//! # quatrex-dist
//!
//! Distributed SCBA execution: the `G → P → W → Σ` cycle across simulated
//! ranks — the paper's headline contribution made executable at laptop scale.
//!
//! ## The two-level decomposition
//!
//! The paper (Sections 5.1–5.4) distributes the NEGF+scGW workload along two
//! axes. The **energy axis** first: the OBC, assembly and RGF phases are
//! embarrassingly parallel over the `N_E` energy points, so every *rank*
//! owns a contiguous slice of them ([`partition`]: one equal-count split,
//! a pure function of the grid and the rank count, fixed for the run).
//! The **spatial axis** second: devices whose matrices exceed one memory
//! domain split each energy group over `P_S` spatial partitions via the
//! nested-dissection solver ([`spatial`]): the ranks form a
//! `n_energy_groups × P_S` grid, a group's members pool their energies,
//! eliminate and recover their partition interiors of all of them
//! concurrently, and each energy's reduced boundary system is assembled and
//! solved on the member that owns the energy
//! (`DistScbaConfig::spatial_partitions`; the partition layout is
//! FLOP-balanced whenever a middle partition exists, `P_S ≥ 3`). No member
//! is distinguished: every rank assembles, transposes, convolves and mixes
//! what it owns.
//!
//! ## One iteration, one route
//!
//! Every rank runs the same five-step cycle (`rank`): `G`, `P`, `W`, `Σ`,
//! mix. The `G` and `W` steps are three stages — *assemble one energy*,
//! *solve the assembled systems*, *finish one energy* — of which the first
//! and last are `quatrex_core`'s (`g_step_assemble`/`g_step_finish`, …) and
//! the middle one is the group solve [`spatial_phase_solve`]: the local
//! energy-batched RGF solve in a one-member group, the cooperative
//! eliminate → reduce → recover otherwise. The four transpositions run
//! through one double-buffered exchange driver (`pipeline`).
//!
//! ## The transposition dataflow
//!
//! The P and Σ energy convolutions need the *opposite* layout — all energies
//! of a few matrix elements. The cycle therefore transposes data between the
//! energy-major and element-major layouts with real `Alltoallv` collectives
//! (Fig. 3), four times per iteration:
//!
//! ```text
//!  energy-major ranks                element-major ranks
//!  ┌───────────────────┐  #1 G^≶  ┌──────────────────────┐
//!  │ OBC+assembly+RGF  │ ───────> │ P^≶ convolutions     │
//!  │ (per energy)      │ <─────── │ + causal P^R         │
//!  └───────────────────┘  #2 P    └──────────────────────┘
//!  ┌───────────────────┐  #3 W^≶  ┌──────────────────────┐
//!  │ W assembly + RGF  │ ───────> │ Σ^≶ convolutions     │
//!  │ (per energy)      │ <─────── │ + causal Σ^R         │
//!  └───────────────────┘  #4 Σ    └──────────────────────┘
//! ```
//!
//! There is one wire format (Section 5.2): lesser/greater quantities ship
//! only their canonical elements, the mirrors are reconstructed from
//! `X^≶_ij = −X^≶*_ji` at the destination; retarded ones ship both. Every
//! byte is accounted per phase by the communicator ([`DistReport`]), and
//! because ownership is static the plan predicts each transposition's bytes
//! exactly ([`TranspositionPlan::transposition_bytes`]).
//!
//! ## Equivalence with the sequential solver
//!
//! Every per-energy and per-element kernel is shared with
//! `quatrex_core::ScbaSolver` (the stages of `g_step_batch`/`w_step_batch`,
//! the `*_series` convolution kernels, the `SigmaMixer` update rule), so
//! [`DistScbaSolver`] reproduces the sequential observables to well below
//! `1e-10` relative error at any rank count — see
//! `crates/dist/tests/equivalence.rs`.

pub mod config;
pub mod partition;
mod pipeline;
mod rank;
pub mod report;
pub mod slab;
pub mod solver;
pub mod spatial;
pub mod warm;

pub use config::{DistScbaConfig, DistScbaResult};
pub use report::DistReport;
pub use slab::{ElementSlab, TranspositionBatchPlan, TranspositionPlan, BYTES_PER_VALUE};
pub use solver::DistScbaSolver;
pub use spatial::{spatial_phase_solve, RankGrid, SpatialLayout};
pub use warm::{WarmState, WarmStateWireError};
