//! The four benchmark workloads: which device, which configuration, which
//! solver entry point. Inputs are generated here from `--seed`; the crates
//! see only the generated configuration.

use quatrex_core::{ScbaConfig, ScbaResult};
use quatrex_device::{DeviceBuilder, DeviceCatalog, DeviceParams};
use quatrex_dist::DistScbaConfig;
use quatrex_serve::SweepConfig;

/// Ranks of every distributed workload. Fixed, not derived from `nproc`, so
/// numbers compare across machines; the 8-rank acceptance grid would time the
/// scheduler on a 2-core box and is deliberately not a workload.
pub const N_RANKS: usize = 2;

/// Relative tolerance of the equivalence gates — the repo's own equivalence
/// band: replay vs solver, kernel cross-checks, and everything on the
/// `sweep_iv` device, whose SCBA map is contractive.
pub const EQUIVALENCE_TOL: f64 = 1e-10;

/// Tolerance of distributed vs sequential on the N_BS = 32 and 64 devices.
/// Their SCBA map is expansive (Σ residuals stay ≈ 1, then grow), so the second
/// iteration amplifies the rounding difference between two correct solvers by
/// a factor that depends on the inputs: over 30 seeds each the deviation was
/// 2e-14 … 3e-11 for `dist_energy` and 8e-13 … 4e-9 for `dist_spatial`
/// (at four iterations: 1e-4). 1e-10 would fail one seed in five; a wrong
/// transposition or reduction shows at 1e-3 and above.
pub const EXPANSIVE_TOL: f64 = 1e-6;

/// Which solver entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ScbaSolver::run`, no communication.
    Sequential,
    /// `DistScbaSolver::run`, 2 energy groups × `P_S = 1`, 2 batches.
    DistEnergy,
    /// `DistScbaSolver::run`, 1 energy group × `P_S = 2`.
    DistSpatial,
    /// `SweepEngine::run_next` over a bias ramp.
    Sweep,
}

/// One workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    params: DeviceParams,
    reduction: usize,
    n_energies: usize,
    /// Fixed iteration count (`tolerance 0`), or `None` for "to convergence".
    fixed_iterations: Option<usize>,
    use_memoizer: bool,
}

impl Workload {
    /// How closely the distributed solver must reproduce the sequential one
    /// on this workload's problem.
    pub fn dist_tolerance(&self) -> f64 {
        match self.kind {
            Kind::Sweep => EQUIVALENCE_TOL,
            _ => EXPANSIVE_TOL,
        }
    }
}

/// Every workload, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "seq_nbs64",
            why: "Kernel-bound: N_BS=64 sequential solve, ~75% GEMM, no communication; linalg/rgf/obc work must show here, runtime/dist/serve work must not",
            kind: Kind::Sequential,
            params: DeviceCatalog::nanoribbon(8),
            reduction: 53,
            n_energies: 16,
            fixed_iterations: Some(2),
            use_memoizer: true,
        },
        Workload {
            name: "dist_energy",
            why: "Energy decomposition: 2 energy groups, four batched Alltoallv transpositions per iteration at N_BS=32; balanced compute/convolution/communication, control for dist_spatial",
            kind: Kind::DistEnergy,
            params: DeviceCatalog::nr16(),
            reduction: 106,
            n_energies: 16,
            fixed_iterations: Some(2),
            use_memoizer: true,
        },
        Workload {
            name: "dist_spatial",
            why: "Spatial decomposition: same problem and ranks as dist_energy but P_S=2 nested dissection with leader-only assembly; comm.wait skew (ROADMAP B) dominates",
            kind: Kind::DistSpatial,
            params: DeviceCatalog::nr16(),
            reduction: 106,
            n_energies: 16,
            fixed_iterations: Some(2),
            use_memoizer: true,
        },
        Workload {
            name: "sweep_iv",
            why: "Time to converged solutions: warm-started 9-point I-V sweep at N_BS=8, overhead-bound (packing, convolutions, allreduce latency, warm-state restore), not FLOP-bound",
            kind: Kind::Sweep,
            params: DeviceCatalog::nr16(),
            reduction: 426,
            n_energies: 12,
            fixed_iterations: None,
            use_memoizer: false,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's only randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

impl Workload {
    pub fn builder(&self) -> DeviceBuilder {
        DeviceBuilder::from_params(&self.params, self.reduction)
    }

    /// The physics configuration: the issue's common settings, with the
    /// contact potentials jittered by at most 1 meV from the seed.
    pub fn scba(&self, seed: u64) -> ScbaConfig {
        let mut rng = SplitMix64::new(seed);
        let base = ScbaConfig::default();
        ScbaConfig {
            n_energies: self.n_energies,
            mu_left: base.mu_left + 1e-3 * rng.next_signed_unit(),
            mu_right: base.mu_right + 1e-3 * rng.next_signed_unit(),
            max_iterations: self.fixed_iterations.unwrap_or(80),
            tolerance: if self.fixed_iterations.is_some() {
                0.0
            } else {
                1e-9
            },
            mixing: 0.4,
            interaction_scale: 0.2,
            use_memoizer: self.use_memoizer,
            ..base
        }
    }

    /// [`Workload::scba`] cut to exactly two full iterations — the
    /// configuration the replay and its `ScbaSolver::run` reference share.
    pub fn scba_two_iterations(&self, seed: u64) -> ScbaConfig {
        ScbaConfig {
            max_iterations: 2,
            tolerance: 0.0,
            ..self.scba(seed)
        }
    }

    /// The distributed configuration of this workload's rank layout. The
    /// sequential workload has none of its own; its traced solve borrows the
    /// energy-group layout.
    pub fn dist(&self, scba: ScbaConfig, probe: bool) -> DistScbaConfig {
        let config = DistScbaConfig::new(scba, N_RANKS).with_probe(probe);
        match self.kind {
            Kind::Sequential | Kind::DistEnergy => config.with_energy_batches(2),
            Kind::DistSpatial => config.with_spatial_partitions(2),
            Kind::Sweep => config,
        }
    }

    /// The sweep configuration (flat-band bias, as `crates/serve/tests`
    /// does: the toy device's SCBA map is only contractive without the ramp).
    pub fn sweep(&self, seed: u64, warm: bool, probe: bool) -> SweepConfig {
        SweepConfig::new(self.scba(seed), N_RANKS)
            .with_warm_start(warm)
            .with_probe(probe)
            .with_potential_ramp(false)
    }
}

/// The sweep's ascending bias ramp, 0 … 0.2 V in 25 mV steps, each point
/// jittered by at most 2 mV from the seed (the first stays non-negative).
pub fn bias_ramp(seed: u64, n_points: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_B1A5);
    (0..n_points)
        .map(|i| (0.025 * i as f64 + 2e-3 * rng.next_signed_unit()).max(0.0))
        .collect()
}

pub fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// The observables every equivalence gate compares.
#[derive(Debug, Clone)]
pub struct Observed {
    pub current: f64,
    /// `max(|I|, ∫|i(E)|dE/2π)`: the non-cancelled scale of the current
    /// integral (`crates/dist/tests/equivalence.rs` compares on this scale,
    /// because close to equilibrium `I` is a difference of large numbers).
    pub current_scale: f64,
    pub density: Vec<f64>,
    pub flops: u64,
    pub iterations: usize,
}

impl Observed {
    pub fn new(obs: &quatrex_core::Observables, flops: u64, iterations: usize) -> Self {
        let e = &obs.spectral.energies;
        let de = if e.len() > 1 { e[1] - e[0] } else { 1.0 };
        let abs_integral = obs
            .spectral
            .current_spectrum
            .iter()
            .map(|x| x.abs())
            .sum::<f64>()
            * de
            / (2.0 * std::f64::consts::PI);
        Self {
            current: obs.current,
            current_scale: obs.current.abs().max(abs_integral),
            density: obs.electron_density.clone(),
            flops,
            iterations,
        }
    }

    pub fn of_sequential(r: &ScbaResult) -> Self {
        Self::new(&r.observables, r.flops.total(), r.iterations)
    }

    pub fn is_finite(&self) -> bool {
        self.current.is_finite() && self.density.iter().all(|d| d.is_finite())
    }

    /// Largest relative deviation of current and per-cell density from
    /// `reference`.
    pub fn deviation_from(&self, reference: &Observed) -> f64 {
        let current =
            (self.current - reference.current).abs() / reference.current_scale.max(1e-300);
        self.density
            .iter()
            .zip(&reference.density)
            .map(|(a, b)| rel_err(*a, *b))
            .fold(current, f64::max)
    }

    /// Bit-for-bit repeat of another run of the same code on the same inputs.
    pub fn repeats_exactly(&self, other: &Observed) -> bool {
        self.current.to_bits() == other.current.to_bits()
            && self.flops == other.flops
            && self.iterations == other.iterations
            && self.density.len() == other.density.len()
            && self
                .density
                .iter()
                .zip(&other.density)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}
