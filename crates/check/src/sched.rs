//! Loom-lite exhaustive/bounded schedule exploration for small pipelines.
//!
//! The engine lives in `quatrex-sync` (the shims call [`yield_point`] /
//! [`block_point`] / [`progress`] at every synchronisation operation); this
//! module re-exports the user-facing controls. A [`Scheduler`] session
//! serialises the registered threads — exactly one runs at a time — and the
//! [`Explorer`] enumerates which thread gets the token at each yield point:
//!
//! * [`Explorer::exhaustive`] — DFS over all interleavings, optionally
//!   capped, with [`Explorer::with_preemption_bound`] pruning to schedules
//!   with at most `b` preemptions (the CHESS observation: most concurrency
//!   bugs need very few).
//! * [`Explorer::random`] — seeded SplitMix64 schedule sampling, for counts
//!   far beyond exhaustive reach. Distinct seeds give distinct (replayable)
//!   schedules.
//!
//! Every explored schedule is identified by a replay token (`dfs:c0.c1...`
//! or `random:<hex-seed>`); a failing schedule's token is printed in the
//! [`ScheduleFailure`] and can be handed to [`replay`] to re-execute exactly
//! that interleaving under a debugger.
//!
//! Threads participate by entering the session
//! ([`SessionHandle::enter`]); `ThreadComm::run_with_observer` does this
//! automatically for its rank threads when a session is current — the only
//! threads library code starts, so the explored state space is the
//! configured thread set. Barrier waits go through [`YieldBarrier`] so the
//! scheduler, not the OS, decides the release order.
//!
//! Keep explored configurations small — 2 groups × 2 spatial ranks, a
//! handful of energies — and assert bit-identical observables across
//! schedules plus zero race reports; the `sched_explore` and
//! `sched_pipeline` test suites are the reference usage.

pub use quatrex_sync::sched::{
    block_point, current, is_registered, progress, replay, run_threads, yield_point, EnterGuard,
    Exploration, Explorer, ScheduleFailure, Scheduler, SessionHandle, YieldBarrier,
};
