//! # quatrex-runtime
//!
//! Simulated multi-rank runtime for QuaTrEx-RS.
//!
//! The original QuaTrEx runs one MPI rank per GPU (GH200) or GCD (MI250X) and
//! communicates through NCCL/RCCL, GPU-aware MPI or host MPI (paper Sections
//! 5.1 and 7.2). None of that infrastructure is available at laptop scale, so
//! this crate provides the documented substitution:
//!
//! [`collective`] is a real shared-memory communicator whose "ranks" are OS
//! threads, providing the `Alltoall`, `Allreduce` and barrier primitives the
//! solver needs, with exact byte accounting per [`CommPhase`] tag. What a
//! transposition should ship is the plan's business
//! (`quatrex_core::dist::TranspositionPlan::transposition_bytes`); this crate only
//! counts what was shipped.
//!
//! The entry point is [`ThreadComm::run`]: it executes one closure per
//! simulated rank and hands each a [`RankContext`] with the collectives:
//!
//! ```
//! use quatrex_runtime::{RankContext, ThreadComm};
//! use std::sync::atomic::Ordering;
//!
//! // Four simulated ranks sum their contributions with a real allreduce.
//! let (sums, stats) = ThreadComm::run(4, |ctx: RankContext<()>| ctx.allreduce_sum(1.0));
//! assert!(sums.iter().all(|&s| s == 4.0));
//! // Every collective's wire bytes are accounted.
//! assert!(stats.allreduce_bytes.load(Ordering::Relaxed) > 0);
//! ```

pub mod collective;

pub use collective::{
    set_observer_factory, BlockedOn, CollectiveObserver, CommHandle, CommPhase, CommStats,
    ObserverFactory, RankContext, SyncKind, ThreadComm,
};
