//! # quatrex-rgf
//!
//! Selected solvers for the block-tridiagonal quadratic matrix problem of the
//! NEGF+scGW scheme (paper Eq. (1)):
//!
//! ```text
//! [M(E) − B^R(E)] · X≶(E) · [M(E) − B^R(E)]† = B≶(E)
//! ```
//!
//! "Selected" means only the diagonal and first off-diagonal blocks of the
//! retarded solution `X^R = Ã⁻¹` and of the lesser/greater solutions
//! `X≶ = Ã⁻¹·B≶·Ã⁻†` are produced — exactly the blocks needed by the energy
//! convolutions and the observables.
//!
//! Two solvers are provided:
//!
//! * [`batch::solve_systems_into`] — the classical recursive Green's
//!   function algorithm (paper Section 4.3.2, Eqs. (9)–(12)): a forward
//!   Schur-complement sweep followed by a backward pass, `O(N_B·N_BS³)` work
//!   per system, run for a batch of same-structure systems (energies) at
//!   once, on energy-major planes or — for small blocks — one vector lane per
//!   energy ([`batch::BlockLayout`]), read through one [`batch::Systems`]
//!   view; [`sequential::rgf_solve`] and friends solve a batch of one;
//! * [`nested::nested_dissection_invert`] / [`nested::nested_dissection_solve`]
//!   — the spatial domain decomposition of Section 5.4: the block range is
//!   split into `P_S` partitions ([`layout`]) whose interiors are eliminated
//!   independently, a reduced system over the partition boundary blocks is
//!   solved (including the quadratic lesser/greater right-hand sides), and the
//!   interior selected blocks are recovered partition by partition; the
//!   single-process driver runs the partitions one after another on the
//!   calling thread, the distributed one on the ranks of a spatial group. A
//!   partition enters and leaves as a plain [`BlockTridiagonal`] sub-range.
//!   A partition with one separator runs the two halves of the batched RGF
//!   recursion around the reduced system; a middle partition runs the
//!   stopped forward half towards each of its two separators and recovers
//!   with one RGF solve of its range, closed by the reduced solution at its
//!   separators — no fill-in anywhere. Every phase has one in-place form,
//!   and the single-process and distributed drivers run the same ones. The
//!   elimination ([`nested::eliminate_partition_into`], which loads each
//!   system's range into its kept state, and [`nested::eliminate_loaded`],
//!   which eliminates states whose ranges are already loaded) and the
//!   recovery ([`nested::recover_partition_into`]) take a whole batch of
//!   systems, so a distributed driver runs elimination and recovery on
//!   different ranks against each rank's warm scratch. Once that scratch is
//!   warm, an end partition's phases allocate nothing.
//!
//! The [`dense`] module provides the brute-force dense references used by the
//! test-suite to validate every selected block.

pub mod batch;
pub mod dense;
pub mod layout;
pub mod nested;
pub mod sequential;

pub use batch::{
    rgf_solve_batch_into, rgf_solve_batch_on, solve_systems_into, BlockLayout, RgfBatchError,
    RgfBatchScratch, Systems,
};
pub use dense::{dense_lesser, dense_retarded};
pub use layout::{
    partition_layout_balanced, separator_blocks, spatial_partition_layout, SpatialPartition,
};
pub use nested::{
    assemble_reduced_system_into, assemble_solution_into, eliminate_loaded,
    eliminate_partition_into, nested_dissection_invert, nested_dissection_solve,
    nested_dissection_solve_with_layout, recover_partition_into, NestedConfig, NestedReport,
    PartitionSolveState, PartitionWorkload,
};
pub use sequential::{
    rgf_selected_inverse, rgf_solve, rgf_solve_into, rgf_solve_scratch, RgfError, RgfScratch,
    SelectedSolution,
};

pub use quatrex_linalg::{c64, CMatrix};
pub use quatrex_sparse::BlockTridiagonal;
