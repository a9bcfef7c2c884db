//! # QuaTrEx-RS
//!
//! A Rust reproduction of *"Ab-initio Quantum Transport with the GW
//! Approximation, 42,240 Atoms, and Sustained Exascale Performance"*
//! (Vetsch et al., SC 2025): an atomistic NEGF + self-consistent GW quantum
//! transport solver for nanowire / nanoribbon transistors, together with the
//! substrate libraries it needs (dense complex linear algebra, FFTs,
//! block-sparse containers, OBC solvers, recursive Green's function solvers,
//! a simulated multi-rank runtime and the instrumentation whose measurements
//! stand beside the paper's evaluation tables).
//!
//! This umbrella crate re-exports the public API of every workspace member so
//! downstream users (and the bundled examples) can depend on a single crate:
//!
//! ```
//! use quatrex::prelude::*;
//!
//! let device = DeviceBuilder::test_device(3, 2, 4).build();
//! let config = ScbaConfig { n_energies: 16, max_iterations: 1, ..Default::default() };
//! let result = ScbaSolver::new(device, config).ballistic();
//! assert!(result.observables.current.is_finite());
//! ```

pub use quatrex_core as core;
pub use quatrex_core::dist;
pub use quatrex_device as device;
pub use quatrex_fft as fft;
pub use quatrex_linalg as linalg;
pub use quatrex_obc as obc;
pub use quatrex_probe as probe;
pub use quatrex_rgf as rgf;
pub use quatrex_runtime as runtime;
pub use quatrex_serve as serve;
pub use quatrex_sparse as sparse;

/// Commonly used types for writing simulations against QuaTrEx-RS.
pub mod prelude {
    pub use quatrex_core::dist::{
        DistReport, DistScbaConfig, DistScbaResult, DistScbaSolver, WarmState,
    };
    pub use quatrex_core::{ObcMethod, Observables, ScbaConfig, ScbaResult, ScbaSolver};
    pub use quatrex_device::{Device, DeviceBuilder, DeviceCatalog, DeviceParams, EnergyGrid};
    pub use quatrex_linalg::{c64, CMatrix};
    pub use quatrex_obc::ObcMemoizer;
    pub use quatrex_probe::Timeline;
    pub use quatrex_rgf::{
        nested_dissection_invert, nested_dissection_solve, rgf_solve, NestedConfig,
    };
    pub use quatrex_serve::{SweepConfig, SweepEngine, SweepPoint, SweepReport};
    pub use quatrex_sparse::{BlockBanded, BlockTridiagonal};
}
