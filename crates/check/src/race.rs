//! Happens-before race detection for the collective pipeline.
//!
//! This module is the user-facing surface of the FastTrack-style vector-clock
//! detector whose engine lives in `quatrex-sync` (so the `parking_lot` and
//! `crossbeam` shims can feed it without a dependency cycle). Every
//! synchronisation edge the shims and the runtime mediate — mutex/rwlock
//! release→acquire, channel send→recv, rank spawn→join — advances per-thread
//! vector clocks, and every [`access_shared`] annotation placed in
//! `quatrex-runtime` (slab/wire buffers, `CommHandle` completion, the
//! observer seam) and `quatrex_core::dist` (convolution batch accumulators) is
//! checked against them. Two accesses to the same [`SharedId`], at least one
//! a write, with neither ordered before the other, produce a [`RaceReport`]
//! carrying both capture sites.
//!
//! ## Enabling
//!
//! The detector is off by default and costs one relaxed atomic load per
//! instrumented operation while off. Turn it on with `QUATREX_RACE=1` in the
//! environment (the shims check at first use) or programmatically:
//!
//! ```
//! use quatrex_check::race;
//!
//! race::reset();
//! race::enable();
//! // ... run the pipeline under test ...
//! race::disable();
//! assert_eq!(race::take_reports().len(), 0);
//! ```
//!
//! Reports are collected process-wide; [`take_reports`] drains them and
//! [`report_count`] is a cheap monotone counter for assertions. [`reset`]
//! clears clocks *and* reports between independent runs sharing a process
//! (Rust tests in one binary, for example).
//!
//! ## Soundness notes
//!
//! * A mutex orders its critical sections in **both** directions, so a
//!   lock-protected access never races with another access under the same
//!   lock — even when a barrier between them is missing. A "deleted
//!   barrier" mutation therefore shows up as a wrong *value*, not a race;
//!   to seed a detectable race, delete the lock itself (see the
//!   `race_mutations` test suite).
//! * Barrier edges are published on entry and joined on exit
//!   ([`barrier_enter`]/[`barrier_exit`]), which is sound because the real
//!   barrier guarantees all `n` participants entered before any exits.
//! * The detector tracks the HB relation exactly (vector clocks, no epoch
//!   compression), so there are no false positives on the schedules actually
//!   executed; pair it with [`crate::sched`] to cover *other* schedules.

pub use quatrex_sync::race::{
    access_shared, barrier_enter, barrier_exit, channel_recv, channel_send, disable, enable,
    is_enabled, lock_acquire, lock_release, report_count, reset, take_reports, AccessInfo,
    AccessKind, BarrierToken, RaceReport, SharedId,
};
pub use quatrex_sync::race::{adopt, depart, fork, join, ForkPoint, JoinPoint};
