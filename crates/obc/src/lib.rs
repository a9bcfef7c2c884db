//! # quatrex-obc
//!
//! Open boundary condition (OBC) solvers for the NEGF+scGW scheme.
//!
//! The simulated device is connected to two semi-infinite leads (source and
//! drain) kept in thermodynamic equilibrium. Their effect enters the governing
//! equations through boundary self-energy blocks that occupy the first and
//! last diagonal blocks of `B_OBC(E)` (paper Section 4.2). Two classes of
//! problems have to be solved for every energy point, contact and subsystem
//! (electrons `G` and screened interaction `W`):
//!
//! * the **retarded** surface problem, a non-linear matrix equation
//!   `x^R = (m − n·x^R·n')⁻¹` (paper Eq. (4)), solved either iteratively
//!   ([`retarded::fixed_point`], [`retarded::sancho_rubio`], one energy per
//!   call on reused work blocks; [`batch::sancho_rubio_batch`] loops over an
//!   energy set on one [`ObcBatchScratch`]) or directly with the Beyn
//!   contour-integral method ([`retarded::beyn`]), the solvers the
//!   [`cascade`] tries in turn for a robust direct answer;
//! * the **lesser/greater** boundary terms: the fluctuation–dissipation
//!   theorem for electrons ([`lesser::lesser_from_retarded`]) and a
//!   discrete-time Lyapunov (Stein) equation `w≶ = q≶ − a·w≶·a†` for the
//!   screened Coulomb interaction (paper Eq. (7)), solved by fixed-point
//!   iteration, a doubling scheme or a direct eigen-decomposition method
//!   ([`lyapunov`]).
//!
//! The [`memoizer`] module implements the paper's dynamic OBC memoization
//! (Section 5.3): the solution of the previous SCBA iteration is cached and a
//! bounded number of fixed-point refinements replaces the direct solver
//! whenever the cached guess is close enough.

pub mod batch;
pub mod cascade;
pub mod lesser;
pub mod lyapunov;
pub mod memoizer;
pub mod retarded;

pub use batch::{sancho_rubio_batch, ObcBatchScratch};
pub use cascade::{surface_cascade, ObcMethod};
pub use lesser::{greater_from_retarded, lesser_from_retarded};
pub use lyapunov::{lyapunov_direct, lyapunov_doubling, lyapunov_fixed_point, lyapunov_residual};
pub use memoizer::{Contact, MemoizerStats, ObcKey, ObcMemoizer, ObcMode, Subsystem};
pub use retarded::{
    beyn, fixed_point, pevp_direct, sancho_rubio, surface_residual, BeynConfig, ObcError,
    ObcSolution,
};

pub use quatrex_linalg::{c64, CMatrix};
