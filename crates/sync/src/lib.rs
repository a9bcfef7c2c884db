//! Concurrency-analysis substrate shared by the `crossbeam` shim, the
//! runtime and the `quatrex-check` analysis suite.
//!
//! This crate sits at the very bottom of the workspace dependency graph — it
//! depends on nothing, so the `crossbeam` shim can call into it without
//! creating a cycle through `quatrex-check` (which depends on
//! `quatrex-runtime`, which depends on the shim). `quatrex_check::race` and
//! `quatrex_check::sched` re-export the engines defined here.
//!
//! The ranks of `ThreadComm` share data only through collectives, so the
//! engines model exactly two kinds of synchronisation: channel
//! send→receive and the fork/join of the rank threads.
//!
//! - [`race`] — a FastTrack-style vector-clock happens-before race detector.
//!   The channel shim and `ThreadComm` publish epoch events (channel
//!   send/recv, task fork/join); annotated shared-buffer accesses
//!   ([`race::access_shared`]) are checked against the happens-before
//!   relation those events induce. Enabled by `QUATREX_RACE=1` or
//!   [`race::enable`]; one relaxed atomic load when off.
//! - [`sched`] — a loom-lite schedule explorer: a token-passing
//!   [`sched::Scheduler`] seam threaded through the same sync points
//!   serialises the threads of a test run and enumerates interleavings
//!   (exhaustive DFS or seeded-random, optionally preemption-bounded), with
//!   a replayable schedule token printed on failure.

pub mod race;
pub mod sched;
