//! # quatrex-sparse
//!
//! Block-banded and block-tridiagonal matrix containers.
//!
//! Every physical quantity of the NEGF+scGW scheme — the DFT Hamiltonian
//! `H_DFT`, the bare Coulomb matrix `V` (after the `r_cut` truncation), the
//! Green's functions `G`, the screened interaction `W`, the polarisation `P`
//! and the self-energies `Σ` — is a block-banded matrix whose blocks are
//! primitive-unit-cell-sized (`Ñ_BS × Ñ_BS`, paper Fig. 2). Grouping `N_U`
//! primitive cells into a *transport cell* of size `N_BS = Ñ_BS·N_U` turns the
//! band into a block-*tridiagonal* matrix on which the recursive Green's
//! function algorithm operates.
//!
//! This crate provides the two containers the solver needs:
//!
//! * [`BlockBanded`] — a general uniform-block banded matrix with arbitrary
//!   block bandwidth, used for `H`, `V`, `P`, `Σ` in their natural
//!   primitive-cell tiling, including banded×banded products whose bandwidth
//!   grows (`V·P^R` has bandwidth `2·bw_V`, `V·P≶·V†` has `3·bw_V`, paper
//!   Section 4.3.1);
//! * [`BlockTridiagonal`] — the transport-cell regrouped form consumed by the
//!   RGF solvers.
//!
//! (The NEGF anti-Hermitian symmetry `X≶_ij = −X≶*_ji` of paper Section 5.2 is
//! exploited where it pays — in the transposition wire format of
//! `quatrex_core::dist`, which ships only the canonical half of every pair.)

pub mod banded;
mod tridiag;

pub use banded::BlockBanded;
pub use tridiag::BlockTridiagonal;

pub use quatrex_linalg::{c64, CMatrix};
