//! # quatrex-dist
//!
//! A re-export of [`quatrex_core::dist`], the SCBA loop over the simulated
//! rank grid — every public item, its modules (`config`, `partition`,
//! `report`, `slab`, `solver`, `spatial`, `warm`) included. The loop lives in
//! `quatrex-core` because `ScbaSolver::run` is its one-group case; this
//! crate keeps the old import paths building.

pub use quatrex_core::dist::*;
