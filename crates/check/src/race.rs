//! Happens-before race detection for the collective pipeline.
//!
//! This module is the user-facing surface of the FastTrack-style vector-clock
//! detector whose engine lives in `quatrex-sync` (so the `crossbeam` shim can
//! feed it without a dependency cycle). The ranks share data only through
//! collectives, so two kinds of edge are the whole model: channel
//! send→recv, and rank spawn→join (fork/adopt/depart/join around the rank
//! threads). They advance per-thread vector clocks, and every
//! [`access_shared`] annotation placed in `quatrex-runtime` (the `comm.wire`
//! message buffers of every exchange) is checked against them. Two accesses
//! to the same [`SharedId`], at least one a write, with neither ordered
//! before the other, produce a [`RaceReport`] carrying both capture sites.
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
//! * A barrier has no edge of its own: `barrier` and `allreduce_sum` send
//!   one value to every rank and receive one from every rank, so their
//!   channel send→recv edges order everything any rank did before the call
//!   before everything every rank does after it.
//! * The detector tracks the HB relation exactly (vector clocks, no epoch
//!   compression), so there are no false positives on the schedules actually
//!   executed; pair it with [`crate::sched`] to cover *other* schedules.

pub use quatrex_sync::race::{
    access_shared, disable, enable, is_enabled, report_count, reset, take_reports, AccessInfo,
    AccessKind, RaceReport, SharedId,
};
pub use quatrex_sync::race::{adopt, depart, fork, join, ForkPoint, JoinPoint};
