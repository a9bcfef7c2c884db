//! # quatrex-serve
//!
//! Warm-started sweep serving over the distributed SCBA solver: the step
//! from "one solve" to the request stream real users send an ab-initio
//! transport code — I–V curves, gate sweeps, temperature grids over the same
//! device, hundreds of strongly correlated solves whose converged states are
//! nearly shared between neighboring points.
//!
//! ## The engine
//!
//! A [`SweepEngine`] owns one device and a queue of [`SweepPoint`]s (bias
//! and/or temperature). Each point instantiates the device through the
//! existing potential-ramp knob (`Device::with_drain_bias`), shifts the
//! drain chemical potential, and runs a [`quatrex_core::dist::DistScbaSolver`]
//! over the configured `n_energy_groups × P_S` rank grid — **seeded from
//! the converged state of the nearest finished neighbor** (a point that
//! stopped at the iteration cap or diverged seeds nobody). The seed is a
//! [`quatrex_core::dist::WarmState`]: per-energy `Σ^<`/`Σ^>`/`Σ^R` plus the OBC
//! memoizer cache. Near a neighbor's fixed point the SCBA loop skips the slow
//! early contraction, so the sweep's total iterations drop — the crate's
//! headline number, recorded per sweep as the warm-vs-cold iteration ratio.
//!
//! ## Checkpoint/restart and reporting
//!
//! The same serialisation powers [`SweepEngine::checkpoint_to`] /
//! [`SweepEngine::resume_from`]: a versioned, digest-protected file holding
//! every finished point's observables and state plus the pending queue, so
//! an interrupted sweep resumes mid-curve and reproduces the uninterrupted
//! observables point-for-point (corruption yields a named [`SweepError`],
//! never a panic). Observables stream incrementally into a [`SweepReport`]
//! — per-point current, charge, iteration counts, warm-start accounting,
//! bytes restored, and the probe's per-phase seconds.
//!
//! ```
//! use quatrex_core::ScbaConfig;
//! use quatrex_device::DeviceBuilder;
//! use quatrex_serve::{SweepConfig, SweepEngine, SweepPoint};
//!
//! let device = DeviceBuilder::test_device(2, 2, 6).build();
//! let scba = ScbaConfig {
//!     n_energies: 8,
//!     max_iterations: 40,
//!     tolerance: 1e-5,
//!     interaction_scale: 0.2,
//!     ..ScbaConfig::default()
//! };
//! // Flat-band bias: the toy device's SCBA map is contractive without the ramp.
//! let config = SweepConfig::new(scba, 2).with_potential_ramp(false);
//! let mut engine = SweepEngine::new(device, config);
//! engine.enqueue_bias_ramp(&[0.0, 0.02]);
//! let report = engine.run_all();
//! assert_eq!(report.points.len(), 2);
//! // The second point warm-starts from the converged first and needs fewer
//! // iterations.
//! assert!(report.points[0].converged && report.points[1].warm_started);
//! assert!(report.points[1].iterations <= report.points[0].iterations);
//! assert!(report.points[1].bytes_restored > 0);
//! ```

pub mod checkpoint;
pub mod engine;
pub mod point;
pub mod report;

pub use checkpoint::{SweepError, CHECKPOINT_MAGIC};
pub use engine::{SweepConfig, SweepEngine};
pub use point::SweepPoint;
pub use report::{PointReport, SweepReport};
