//! # quatrex-check
//!
//! Verification tooling for QuaTrEx-RS:
//!
//! * **Runtime half** — [`CollectiveChecker`], a MUST-style verifier for the
//!   thread-backed collectives of `quatrex-runtime`. Installed process-wide
//!   with [`install_collective_checker`] (or per-run via
//!   `ThreadComm::run_with_observer`), it validates cross-rank invariants
//!   *while the solver runs*: identical collective sequences on every rank,
//!   alltoallv byte-matrix consistency, exactly-once completion of every
//!   non-blocking exchange, and wait-for-graph deadlock detection that turns
//!   a would-be hang into a named diagnostic (polled every 20 ms, the
//!   runtime's constant tick).
//!
//! * **Concurrency half** — the [`race`] module, a FastTrack-style
//!   happens-before race detector fed by the two kinds of synchronisation
//!   the ranks have — channel send→receive and the rank threads'
//!   fork/join — and by `access_shared` annotations on the runtime's
//!   message buffers (`QUATREX_RACE=1`, one relaxed atomic load when off),
//!   and the [`sched`] module, a loom-lite schedule explorer that serialises
//!   the rank threads and enumerates their interleavings — exhaustive,
//!   preemption-bounded, or seeded-random — with a replayable token for
//!   every failing schedule.
//!
//! * **Static half** — the [`lint`] module and the `quatrex_lint` binary, a
//!   registry-free scanner enforcing the repo invariants the runtime story
//!   depends on (phase-tagged collectives, the one-clock rule, no anonymous
//!   panics in rank code, no stray stdout, no locks, raw channels or thread
//!   starts in library code outside `ThreadComm`, no stale `lint:allow`
//!   markers). CI runs it over the whole workspace and requires a clean
//!   tree.
//!
//! All halves follow the `quatrex-probe` discipline: zero cost unless
//! explicitly enabled, and never required by a production build.
//!
//! ```
//! use quatrex_check::CollectiveChecker;
//! use quatrex_runtime::{CollectiveObserver, RankContext, ThreadComm};
//! use std::sync::Arc;
//!
//! // Verify a two-rank reduction: the checker rides along as an observer
//! // and the result is identical to an unchecked run.
//! let checker = Arc::new(CollectiveChecker::new(2));
//! let observer: Arc<dyn CollectiveObserver> = checker.clone();
//! let (sums, _stats) = ThreadComm::run_with_observer(2, Some(observer), |ctx: RankContext<()>| {
//!     ctx.allreduce_sum(1.0 + ctx.rank() as f64)
//! });
//! assert_eq!(sums, vec![3.0, 3.0]);
//! assert!(checker.events_verified() > 0);
//! ```

pub mod checker;
pub mod lint;
pub mod race;
pub mod sched;

pub use checker::{install_collective_checker, uninstall_collective_checker, CollectiveChecker};
pub use lint::{lint_source, lint_tree, LintReport, Rule, Violation};
