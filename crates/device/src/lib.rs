//! # quatrex-device
//!
//! Synthetic nano-device models for the NEGF+scGW solver.
//!
//! The paper simulates silicon nanowire (NW) and nanoribbon (NR) transistors
//! whose Hamiltonians are obtained from VASP + Wannier90 as maximally
//! localised Wannier functions (4 per Si, 1 per H) and whose bare Coulomb
//! matrices are evaluated directly in the MLWF basis with a cut-off radius
//! `r_cut` (paper Section 4.1, Table 3). Neither VASP nor the proprietary
//! device structures are available here, so this crate provides the documented
//! substitution: a synthetic Wannier-like tight-binding generator that produces
//! Hamiltonian and Coulomb matrices with exactly the structure the solver
//! relies on — Hermitian, block-banded with `N_U` coupled neighbouring
//! primitive cells, exponentially decaying hoppings, a band gap, and a
//! `1/r`-type Coulomb kernel truncated at `r_cut`.
//!
//! The [`catalog`] module reproduces the paper's Table 3 device catalogue
//! (NW-1, NW-2, NR-16 … NR-80 and the generic NR-`N_B` scaling row) both as
//! analytic parameter sets and as constructible reduced-scale instances.
//!
//! The entry point is [`DeviceBuilder`]:
//!
//! ```
//! use quatrex_device::DeviceBuilder;
//!
//! // A 4-block synthetic device: 3 orbitals per primitive cell, 2 coupled
//! // neighbouring cells (N_U = 2).
//! let device = DeviceBuilder::test_device(3, 2, 4).build();
//! let h = device.hamiltonian_bt();
//! assert_eq!(h.n_blocks(), 4);
//! assert_eq!(h.block_size(), device.transport_cell_size());
//! let grid = device.default_energy_grid(16);
//! assert_eq!(grid.len(), 16);
//! ```

pub mod catalog;
pub mod energy;
pub mod model;

pub use catalog::{DeviceCatalog, DeviceParams};
pub use energy::{fermi, thermal_energy_ev, EnergyGrid};
pub use model::{Device, DeviceBuilder};

pub use quatrex_linalg::{c64, CMatrix};
pub use quatrex_sparse::{BlockBanded, BlockTridiagonal};

/// Boltzmann constant in eV/K.
pub(crate) const KB_EV: f64 = 8.617_333_262e-5;

/// Room temperature in Kelvin used throughout the examples.
pub const ROOM_TEMPERATURE_K: f64 = 300.0;
