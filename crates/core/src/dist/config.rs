//! Configuration and result types of the distributed SCBA driver.

use crate::observables::Observables;
use crate::scba::ScbaConfig;
use quatrex_linalg::flops::FlopCounter;
use quatrex_probe::Timeline;

use crate::dist::report::DistReport;
use crate::dist::warm::WarmState;

/// Configuration of a distributed SCBA run.
///
/// Beyond the rank count, two knobs shape how the work is decomposed and
/// moved — `spatial_partitions` and `energy_batches` — each documented with
/// *when it pays off* on its field/builder (neither the spatial partition
/// layout nor the ownership of energies and elements is a knob: the layout is
/// FLOP-balanced whenever a middle partition exists, `P_S ≥ 3`, and ownership
/// is the equal-count split of the plan, fixed for the run). They compose
/// freely — the equivalence suite pins the observables against the sequential
/// solver with both enabled at once:
///
/// ```
/// use quatrex_core::dist::{DistScbaConfig, DistScbaSolver};
/// use quatrex_core::ScbaConfig;
/// use quatrex_device::DeviceBuilder;
///
/// let device = DeviceBuilder::test_device(2, 2, 6).build();
/// let scba = ScbaConfig {
///     n_energies: 6,
///     max_iterations: 2,
///     interaction_scale: 0.2,
///     ..ScbaConfig::default()
/// };
/// // 4 ranks as 2 energy groups x P_S = 2 spatial partitions and 2-batch
/// // overlapped transpositions — both knobs composed.
/// let config = DistScbaConfig::new(scba, 4)
///     .with_spatial_partitions(2)
///     .with_energy_batches(2);
/// let result = DistScbaSolver::new(device, config).run();
/// assert_eq!(result.report.spatial_partitions, 2);
/// assert_eq!(result.report.batch_count, 2);
/// assert!(result.observables.current.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct DistScbaConfig {
    /// The physics configuration, the one [`crate::ScbaSolver`] takes.
    /// `enforce_symmetry` must be set: the transpositions ship only the
    /// canonical elements of the lesser/greater quantities (Section 5.2) and
    /// rebuild the mirrors from the NEGF symmetry.
    pub scba: ScbaConfig,
    /// Number of simulated ranks (threads of the
    /// [`quatrex_runtime::ThreadComm`]). At least one, and a multiple of
    /// `spatial_partitions`.
    pub n_ranks: usize,
    /// Spatial partitions per energy group (`P_S`, Section 5.4). The ranks
    /// form `n_ranks / spatial_partitions` energy groups of `P_S` ranks that
    /// cooperate on each energy point through the nested-dissection solver.
    /// `1` disables the second decomposition level.
    ///
    /// **When it pays off:** when one energy point's matrices no longer fit
    /// (or solve fast enough) on a single rank — large `N_B` devices. The
    /// nested-dissection reduced system adds work (on the 24-block bench
    /// cell at `P_S = 4`, a middle partition does 1.25× an even `1/P_S`
    /// share of the sequential solve under the uniform layout, the busiest
    /// partition 1.04× under the balanced one), so `P_S > 1` only wins when
    /// the per-energy solve, not the energy count, is the bottleneck. The
    /// partition layout is FLOP-balanced
    /// ([`crate::dist::spatial::SpatialLayout`]): from `P_S = 3` on the
    /// uniform split would leave the two boundary partitions idle ~30 % of
    /// every solve.
    pub spatial_partitions: usize,
    /// Number of energy batches (`B`) each of the four per-iteration
    /// transpositions is cut into (`crate::dist::TranspositionBatchPlan`). With `B > 1`
    /// the solver double-buffers: batch `k+1`'s `Alltoallv` is posted
    /// non-blocking while the element convolutions consume batch `k`, and
    /// the in-flight transposition buffers shrink ~`B/2`-fold (double
    /// buffering keeps ~2 batches in flight;
    /// `DistReport::peak_slab_bytes`). `B = 1` (the default) is bit-identical
    /// to the unbatched path.
    ///
    /// **When it pays off:** on network-bound runs — the paper's sustained
    /// exascale numbers rest on the transposition flying behind the
    /// convolutions — and whenever the whole-iteration wire buffers dominate
    /// peak memory. In this thread-backed simulation a message moves
    /// ownership, not bytes, so the visible win is the measured buffer
    /// reduction (`DistReport::peak_slab_bytes`), not wall-clock; note the
    /// polarisation's bilinear batching re-runs its correlation kernel per
    /// batch, so very large `B` trades FLOPs for memory/overlap.
    pub energy_batches: usize,
    /// Record a per-rank probe trace of the run (`quatrex_probe`): every rank
    /// installs a thread-local span/counter recorder for the duration of its
    /// closure, and the merged [`Timeline`] lands in
    /// [`DistScbaResult::timeline`] with the derived phase metrics in
    /// [`DistReport`] (per-phase exclusive seconds, overlap efficiency, time-based
    /// load imbalance, per-phase FLOP rates). On by default.
    ///
    /// **When to turn it off:** essentially never in this simulation — the
    /// recorder is a few stores per span into pre-reserved buffers, pinned
    /// ≤2% of the RGF kernel cost by the bench overhead check. Disable it to
    /// pin the absolute floor of the hot path (the disabled probe is one
    /// thread-local read per call, allocation-free by test).
    pub probe: bool,
    /// Capture the final per-energy Σ state and OBC memoizer caches into
    /// [`DistScbaResult::final_state`] when the run ends. Off by default: the
    /// capture drains every rank's Σ matrices and memoizer entries into one
    /// [`WarmState`] over the full grid, which costs memory proportional to
    /// `3 · N_E` block-tridiagonals.
    ///
    /// **When it pays off:** whenever another solve of a *nearby* problem
    /// follows — a bias/temperature sweep point, a restart from checkpoint.
    /// Feed the captured state to [`crate::dist::DistScbaSolver::run_warm`] and the SCBA
    /// loop starts at the neighbor's fixed point instead of `Σ = 0`
    /// (`quatrex-serve` builds its sweep engine on exactly this pair).
    pub capture_state: bool,
}

impl DistScbaConfig {
    /// Distributed configuration with `n_ranks ≥ 1` ranks and default
    /// options (`P_S = 1`, one transposition batch).
    pub fn new(scba: ScbaConfig, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "at least one rank");
        Self {
            scba,
            n_ranks,
            spatial_partitions: 1,
            energy_batches: 1,
            probe: true,
            capture_state: false,
        }
    }

    /// Enable the second decomposition level: `p_s` spatial ranks per energy
    /// group. See [`DistScbaConfig::spatial_partitions`] for when it pays
    /// off.
    pub fn with_spatial_partitions(mut self, p_s: usize) -> Self {
        assert!(p_s >= 1, "at least one spatial partition");
        self.spatial_partitions = p_s;
        self
    }

    /// Cut every transposition into `batches` energy batches and overlap each
    /// batch's `Alltoallv` with the previous batch's convolutions. See
    /// [`DistScbaConfig::energy_batches`] for when it pays off.
    pub fn with_energy_batches(mut self, batches: usize) -> Self {
        assert!(batches >= 1, "at least one transposition batch");
        self.energy_batches = batches;
        self
    }

    /// Enable or disable the per-rank probe trace. See
    /// [`DistScbaConfig::probe`].
    pub fn with_probe(mut self, enabled: bool) -> Self {
        self.probe = enabled;
        self
    }

    /// Capture the run's final Σ/OBC state into
    /// [`DistScbaResult::final_state`]. See
    /// [`DistScbaConfig::capture_state`] for when it pays off.
    pub fn with_state_capture(mut self, enabled: bool) -> Self {
        self.capture_state = enabled;
        self
    }
}

/// Result of an SCBA run of the rank loop — [`crate::ScbaResult`] is this
/// type: the iteration record and observables, plus the communication
/// report, the timeline and the captured state.
#[derive(Debug)]
pub struct DistScbaResult {
    /// Number of iterations performed.
    pub iterations: usize,
    /// True if the self-energy update fell below the tolerance.
    pub converged: bool,
    /// Relative self-energy update per iteration, summed in ascending
    /// energy order on every rank: the same bits at any rank count at
    /// `P_S = 1`.
    pub residual_history: Vec<f64>,
    /// `‖Δg‖ / ‖Δx‖` of every mix that completed a difference pair
    /// ([`crate::SigmaMixer::contraction`]): how much the SCBA map shrank the
    /// step before it, summed the same way. Empty for a run of fewer than
    /// three iterations.
    pub contraction_history: Vec<f64>,
    /// Terminal current per iteration, summed the same way.
    pub current_history: Vec<f64>,
    /// Final observables.
    pub observables: Observables,
    /// Per-kernel FLOP counts summed over ranks.
    pub flops: FlopCounter,
    /// Fraction of OBC solves answered from the per-rank memoizer caches.
    pub memoizer_hit_rate: f64,
    /// Largest relative truncation weight seen by any W assembly.
    pub max_truncation_error: f64,
    /// Times the Σ update cleared its history and fell back to the damped
    /// step (`crate::SigmaMixer::restarts`).
    pub mixing_restarts: usize,
    /// Measured communication report.
    pub report: DistReport,
    /// Merged per-rank probe timeline of the run — one track per rank on a
    /// shared clock. Serialise with [`Timeline::chrome_trace_json`] for
    /// Perfetto / `chrome://tracing`. Empty when
    /// [`DistScbaConfig::probe`] is false.
    pub timeline: Timeline,
    /// The run's final Σ/OBC state assembled over the full energy grid, for
    /// warm-starting a nearby solve via [`crate::dist::DistScbaSolver::run_warm`]. `None`
    /// unless [`DistScbaConfig::capture_state`] is set.
    pub final_state: Option<WarmState>,
}
