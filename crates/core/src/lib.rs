//! # quatrex-core
//!
//! The NEGF + self-consistent GW (SCBA) driver — the paper's primary
//! contribution, assembled from the substrate crates:
//!
//! * [`assembly`] — construction of the electron (`G`) and screened-Coulomb
//!   (`W`) system matrices and boundary self-energies for every energy point
//!   (paper Section 4.3.1 and Table 2), including the Beyn / Sancho–Rubio /
//!   Lyapunov OBC solvers and the dynamic memoizer;
//! * [`convolution`] — the energy convolutions producing the polarisation `P`
//!   and the GW self-energy `Σ` from the Green's functions and screened
//!   interaction via FFTs (Section 4.4), operating on the transposed
//!   (element-major) data layout, eight element series per lane FFT;
//! * [`element_major`] — that layout: lane-group slabs in split planes and
//!   the energy-outer walks between them and the energy-major matrices;
//! * [`scba`] — the configuration, the per-energy stages of the G and W steps
//!   with on-the-fly symmetrisation (Section 5.2) and FLOP accounting in the
//!   categories of Table 4, and [`ScbaSolver`];
//! * [`dist`] — the one SCBA loop `G → P → W → Σ → G → …`, run by every rank
//!   of an `n_energy_groups × P_S` grid with four `Alltoallv`
//!   transpositions per iteration (Sections 5.1–5.4); [`ScbaSolver::run`] is
//!   its one-group case;
//! * [`mixing`] — the one Σ update rule of that loop (Anderson-accelerated
//!   damped mixing), in the three per-energy pieces the loop calls;
//! * [`observables`] — density of states, electron/hole densities and the
//!   terminal current (Meir–Wingreen) derived from the selected Green's
//!   function blocks (Section 4.5).
//!
//! The one-stop entry point is [`ScbaSolver`]:
//!
//! ```
//! use quatrex_core::{ScbaConfig, ScbaSolver};
//! use quatrex_device::DeviceBuilder;
//!
//! let device = DeviceBuilder::test_device(2, 2, 4).build();
//! let config = ScbaConfig {
//!     n_energies: 8,
//!     max_iterations: 1,
//!     ..ScbaConfig::default()
//! };
//! let result = ScbaSolver::new(device, config).ballistic();
//! assert!(result.observables.current.is_finite());
//! assert_eq!(result.observables.spectral.energies.len(), 8);
//! ```

pub mod assembly;
pub mod convolution;
pub mod dist;
pub mod element_major;
pub mod mixing;
pub mod observables;
pub mod scba;

pub use assembly::{GAssembly, ObcMethod, WAssembly};
pub use convolution::{
    canonical_elements, polarization_from_g, retarded_from_lesser_greater, self_energy_from_gw,
    symmetrize_all, BlockPos, ElementId, EnergyResolved,
};
pub use mixing::{mix_sigma_energy, MixRow, SigmaMixer};
pub use observables::{Observables, SpectralData};
pub use scba::{
    g_step_assemble, g_step_batch, g_step_finish, kernel_chunks, solve_accounting, solve_stage,
    w_step_assemble, w_step_batch, w_step_finish, GStepOutput, KernelTimings, ScbaConfig,
    ScbaResult, ScbaSolver, WStepOutput,
};

pub use quatrex_device::Device;
pub use quatrex_linalg::{c64, CMatrix};
pub use quatrex_sparse::BlockTridiagonal;
