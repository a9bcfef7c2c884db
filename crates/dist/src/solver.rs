//! The distributed SCBA driver.
//!
//! [`DistScbaSolver`] executes the same `G → P → W → Σ` cycle as
//! `quatrex_core::ScbaSolver`, but across the ranks of a
//! [`quatrex_runtime::ThreadComm`] communicator following the paper's
//! two-level decomposition. The flat ranks form a
//! `n_energy_groups × P_S` grid ([`crate::spatial::RankGrid`], mirroring
//! `quatrex_runtime::DecompositionPlan`):
//!
//! 1. every energy **group** owns a contiguous slice of energy points
//!    (balanced by the memoizer-aware cost model); the group *leader*
//!    (spatial rank 0) runs OBC + assembly for them against a **per-rank
//!    [`ObcMemoizer`]**. With `spatial_partitions == 1` the leader also runs
//!    the RGF solves; with `P_S > 1` the group's spatial ranks cooperate on
//!    every energy point through the nested-dissection solver
//!    ([`crate::spatial::spatial_phase_solve`]): concurrent interior
//!    eliminations, a reduced boundary system assembled via gather within
//!    the group and solved on the leader, and concurrent recoveries;
//! 2. the selected `G^≶` blocks are transposed into element-major layout with
//!    a real `Alltoallv` among the group leaders (Fig. 3), every leader
//!    computes the `P` convolutions for its canonical elements *and their
//!    mirrors*, symmetrises them element-wise, and transposes `P^≶`/`P^R`
//!    back;
//! 3. the `W` systems are assembled and solved per owned energy (again
//!    spatially decomposed when `P_S > 1`), `W^≶` is transposed forward
//!    again, the `Σ` convolutions run on the element slices, and
//!    `Σ^≶`/`Σ^R` are transposed back to their energy owners;
//! 4. the self-energies are mixed per owned energy and the convergence norms
//!    and observables are allreduced.
//!
//! Because every per-energy and per-element kernel is the *same function* the
//! sequential driver calls (`g_step_batch`, `w_step_batch` over
//! `kernel_chunks` of the owned energies, `polarization_series`,
//! `self_energy_series`, `causal_retarded_series`, `mix_sigma_energy`), the
//! distributed state trajectory matches the sequential one bit-for-bit at
//! `P_S = 1` except for the allreduce-based residual and per-iteration
//! current (whose floating-point summation order differs at machine
//! precision). With `P_S > 1` the nested-dissection solver introduces an
//! additional `≤1e-12`-relative reordering per solve. The equivalence tests
//! pin the observables at `≤ 1e-10` relative either way.

use quatrex_probe::clock::Instant;
use std::collections::VecDeque;
use std::sync::Arc;

use quatrex_core::assembly::{assemble_g, assemble_w};
use quatrex_core::convolution::{
    causal_retarded_series, polarization_series_accumulate, self_energy_series_accumulate,
};
use quatrex_core::observables::{integrate_current, Observables, SpectralData};
use quatrex_core::scba::{
    g_step_batch, g_step_finish, kernel_chunks, mix_sigma_energy, w_step_batch, GStepOutput,
    KernelTimings, ScbaConfig,
};
use quatrex_device::{thermal_energy_ev, Device, DeviceParams, EnergyGrid};
use quatrex_linalg::c64;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::CMatrix;
use quatrex_obc::ObcMemoizer;
use quatrex_probe::{RankTrace, Timeline};
use quatrex_rgf::{
    partition_layout_balanced, probe_partition_flops, separator_blocks, spatial_partition_layout,
    RgfBatchScratch, SpatialPartition,
};
use quatrex_runtime::{
    CommHandle, CommPhase, CommStats, DecompositionPlan, RankContext, ThreadComm,
};
use quatrex_sparse::BlockTridiagonal;
use quatrex_sync::race::{self, AccessKind, SharedId};

use crate::partition::{energy_cost_weights, partition_weighted};
use crate::report::{DistReport, TranspositionBudget};
use crate::slab::{
    off_rank_payload_bytes, push_bt, push_matrix, read_bt, read_matrix, BackComponent, ElementSlab,
    TranspositionBatchPlan, TranspositionPlan, BYTES_PER_VALUE,
};
use crate::spatial::{spatial_phase_solve, RankGrid, SpatialTraffic};
use crate::warm::WarmState;

/// Configuration of a distributed SCBA run.
///
/// Beyond the rank count, four knobs shape how the work is decomposed and
/// moved; each is documented with *when it pays off* on its field/builder.
/// They compose freely — the equivalence suite pins the observables against
/// the sequential solver with all of them enabled at once:
///
/// ```
/// use quatrex_core::ScbaConfig;
/// use quatrex_device::DeviceBuilder;
/// use quatrex_dist::{DistScbaConfig, DistScbaSolver};
///
/// let device = DeviceBuilder::test_device(2, 2, 6).build();
/// let scba = ScbaConfig {
///     n_energies: 6,
///     max_iterations: 2,
///     interaction_scale: 0.2,
///     ..ScbaConfig::default()
/// };
/// // 4 ranks as 2 energy groups x P_S = 2 spatial partitions, FLOP-balanced
/// // layout, measured energy rebalancing, and 2-batch overlapped
/// // transpositions — every knob composed.
/// let config = DistScbaConfig::new(scba, 4)
///     .with_spatial_partitions(2)
///     .with_balanced_partitions(true)
///     .with_energy_rebalancing(true)
///     .with_energy_batches(2);
/// let result = DistScbaSolver::new(device, config).run();
/// assert_eq!(result.report.spatial_partitions, 2);
/// assert_eq!(result.report.batch_count, 2);
/// assert!(result.observables.current.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct DistScbaConfig {
    /// The physics configuration, shared verbatim with the sequential solver.
    pub scba: ScbaConfig,
    /// Number of simulated ranks (threads of the [`ThreadComm`]). Must be a
    /// multiple of `spatial_partitions`.
    pub n_ranks: usize,
    /// Spatial partitions per energy group (`P_S`, Section 5.4). The ranks
    /// form `n_ranks / spatial_partitions` energy groups of `P_S` ranks that
    /// cooperate on each energy point through the nested-dissection solver.
    /// `1` disables the second decomposition level.
    ///
    /// **When it pays off:** when one energy point's matrices no longer fit
    /// (or solve fast enough) on a single rank — large `N_B` devices. The
    /// nested-dissection reduced system adds work (~2.1× per middle partition
    /// on the paper's devices), so `P_S > 1` only wins when the per-energy
    /// solve, not the energy count, is the bottleneck.
    pub spatial_partitions: usize,
    /// Use the FLOP-balanced uneven partition layout
    /// (`quatrex_rgf::partition_layout_balanced`) instead of the uniform
    /// split: the end partitions grow until the per-partition elimination +
    /// recovery FLOPs equalise (paper Section 5.4's load balancing; the
    /// uniform split leaves the boundary partitions at ~60% of a middle
    /// partition). The layout is computed once per run from the shape-only
    /// FLOP probe (`quatrex_rgf::probe_partition_flops`), so every rank
    /// derives the identical layout deterministically. Ignored at `P_S ≤ 2`
    /// (no middle partition exists to balance against).
    ///
    /// **When it pays off:** at `P_S ≥ 3`, where the uniform split leaves the
    /// two boundary partitions idle ~40% of every solve; the balanced layout
    /// cuts the per-partition FLOP spread from ~50% to under 15% on the
    /// 24-block bench cell at `P_S = 4`. At `P_S = 2` there is no middle
    /// partition and the flag is a no-op.
    pub balanced_partitions: bool,
    /// Ship only canonical elements for `≶` quantities and reconstruct the
    /// mirrors from the NEGF symmetry at the destination (Section 5.2).
    /// Requires `scba.enforce_symmetry`.
    ///
    /// **When it pays off:** always, when the physics allows symmetrisation —
    /// it halves the transposition volume of 8 of the 10 component transfers
    /// per iteration (~1.8× on the total). Turn it off only to pin bit-exact
    /// equivalence against the sequential solver (the full wire format ships
    /// raw, unsymmetrised mirrors).
    pub symmetry_reduced: bool,
    /// Catalogue parameters of the device, if known: enables the
    /// memoizer-aware cost model for the energy partition.
    pub device_params: Option<DeviceParams>,
    /// Rebalance the energy partition between SCBA iterations from *measured*
    /// per-energy wall times (ROADMAP "energy-cost weights from measurement"):
    /// the wall seconds each energy spent in assembly + solve during
    /// iteration `n` feed `partition_weighted` for iteration `n+1`, and the
    /// per-energy self-energy state migrates between group leaders when the
    /// split moves. Off by default: rebalancing reorders the residual
    /// reductions, so the bit-exact full-wire-format equivalence only holds
    /// without it (the observables still agree to ≤1e-10).
    ///
    /// **When it pays off:** when per-energy costs are genuinely uneven and
    /// unpredictable — the OBC memoizer answers some energies from cache and
    /// refines others, so static cost models drift. For short runs (1–2
    /// iterations) there is nothing to measure and the migrations are pure
    /// overhead.
    pub rebalance_energies: bool,
    /// Number of energy batches (`B`) each of the four per-iteration
    /// transpositions is cut into ([`TranspositionBatchPlan`]). With `B > 1`
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
    /// peak memory. In this thread-backed simulation the bandwidth is memory
    /// bandwidth, so the visible win is the measured buffer reduction and the
    /// measured overlap window (`DistReport::overlap_window_seconds`), not
    /// wall-clock; note the polarisation's bilinear batching re-runs its
    /// correlation kernel per batch, so very large `B` trades FLOPs for
    /// memory/overlap.
    pub energy_batches: usize,
    /// Record a per-rank probe trace of the run (`quatrex_probe`): every rank
    /// installs a thread-local span/counter recorder for the duration of its
    /// closure, and the merged [`Timeline`] lands in
    /// [`DistScbaResult::timeline`] with the derived phase metrics in
    /// [`DistReport`] (per-phase wall seconds, overlap efficiency, time-based
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
    /// capture drains the leaders' Σ matrices and memoizer entries into one
    /// [`WarmState`] over the full grid, which costs memory proportional to
    /// `3 · N_E` block-tridiagonals.
    ///
    /// **When it pays off:** whenever another solve of a *nearby* problem
    /// follows — a bias/temperature sweep point, a restart from checkpoint.
    /// Feed the captured state to [`DistScbaSolver::run_warm`] and the SCBA
    /// loop starts at the neighbor's fixed point instead of `Σ = 0`
    /// (`quatrex-serve` builds its sweep engine on exactly this pair).
    pub capture_state: bool,
}

impl DistScbaConfig {
    /// Distributed configuration with `n_ranks` ranks and default options
    /// (`P_S = 1`, one transposition batch).
    pub fn new(scba: ScbaConfig, n_ranks: usize) -> Self {
        Self {
            scba,
            n_ranks,
            spatial_partitions: 1,
            balanced_partitions: false,
            symmetry_reduced: true,
            device_params: None,
            rebalance_energies: false,
            energy_batches: 1,
            probe: true,
            capture_state: false,
        }
    }

    /// Enable the second decomposition level: `p_s` spatial ranks per energy
    /// group. See [`DistScbaConfig::spatial_partitions`] for when it pays
    /// off.
    pub fn with_spatial_partitions(mut self, p_s: usize) -> Self {
        self.spatial_partitions = p_s;
        self
    }

    /// Enable the FLOP-balanced uneven partition layout for the spatial
    /// level. See [`DistScbaConfig::balanced_partitions`] for when it pays
    /// off.
    pub fn with_balanced_partitions(mut self, enabled: bool) -> Self {
        self.balanced_partitions = enabled;
        self
    }

    /// Enable measured-wall-time energy rebalancing between iterations. See
    /// [`DistScbaConfig::rebalance_energies`] for when it pays off.
    pub fn with_energy_rebalancing(mut self, enabled: bool) -> Self {
        self.rebalance_energies = enabled;
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

/// Result of a distributed SCBA run: the sequential result fields plus the
/// communication report.
#[derive(Debug)]
pub struct DistScbaResult {
    /// Number of iterations performed.
    pub iterations: usize,
    /// True if the self-energy update fell below the tolerance.
    pub converged: bool,
    /// Relative self-energy update per iteration (allreduced).
    pub residual_history: Vec<f64>,
    /// Terminal current per iteration (allreduced).
    pub current_history: Vec<f64>,
    /// Final observables, identical to the sequential solver's.
    pub observables: Observables,
    /// Per-kernel wall times summed over ranks.
    pub timings: KernelTimings,
    /// Per-kernel FLOP counts summed over ranks.
    pub flops: FlopCounter,
    /// Fraction of OBC solves answered from the per-rank memoizer caches.
    pub memoizer_hit_rate: f64,
    /// Largest relative truncation weight seen by any W assembly.
    pub max_truncation_error: f64,
    /// Measured-vs-modelled communication report.
    pub report: DistReport,
    /// Merged per-rank probe timeline of the run — one track per rank on a
    /// shared clock. Serialise with [`Timeline::chrome_trace_json`] for
    /// Perfetto / `chrome://tracing`. Empty when
    /// [`DistScbaConfig::probe`] is false.
    pub timeline: Timeline,
    /// The run's final Σ/OBC state assembled over the full energy grid, for
    /// warm-starting a nearby solve via [`DistScbaSolver::run_warm`]. `None`
    /// unless [`DistScbaConfig::capture_state`] is set.
    pub final_state: Option<WarmState>,
}

/// Per-rank return value of the communicator closure.
struct RankOut {
    iterations: usize,
    converged: bool,
    residual_history: Vec<f64>,
    current_history: Vec<f64>,
    observables: Observables,
    full_iterations: usize,
    max_truncation: f64,
    transposition_bytes: u64,
    traffic_g: SpatialTraffic,
    traffic_w: SpatialTraffic,
    memo_hits: usize,
    memo_total: usize,
    energy_rebalances: usize,
    rebalance_bytes: u64,
    peak_slab_bytes: u64,
    overlap_seconds: f64,
    /// Cumulative memoizer (hits, total solves) after each full iteration.
    memo_per_iteration: Vec<(usize, usize)>,
    trace: Option<RankTrace>,
    /// Final Σ state of the energies this leader owned at run end, keyed by
    /// global energy index: `(k, Σ^<, Σ^>, Σ^R)`. Empty unless state capture
    /// is on (and always empty on non-leaders).
    final_sigma: Vec<(usize, BlockTridiagonal, BlockTridiagonal, BlockTridiagonal)>,
    /// Final OBC memoizer entries of the owned energies. Empty unless state
    /// capture is on.
    final_obc: Vec<(quatrex_obc::ObcKey, CMatrix)>,
}

/// The distributed NEGF+scGW solver bound to one device and configuration.
pub struct DistScbaSolver {
    device: Device,
    config: DistScbaConfig,
    grid: EnergyGrid,
}

impl DistScbaSolver {
    /// Create a solver for `device` with the given configuration.
    pub fn new(device: Device, config: DistScbaConfig) -> Self {
        let grid = device.default_energy_grid(config.scba.n_energies);
        Self {
            device,
            config,
            grid,
        }
    }

    /// Create a solver with an explicit energy grid.
    pub fn with_grid(device: Device, config: DistScbaConfig, grid: EnergyGrid) -> Self {
        Self {
            device,
            config,
            grid,
        }
    }

    /// The two-level decomposition the run realises, in the vocabulary of
    /// `quatrex_runtime::DecompositionPlan`: `n_ranks / P_S` energy groups of
    /// `P_S` spatial ranks each.
    ///
    /// This is the *idealised uniform* description (every group holds
    /// `ceil(N_E / groups)` energies); the run's actual energy ownership is
    /// the cost-weighted contiguous partition in
    /// [`DistScbaSolver::plan`]`().energy_ranges` — use that to locate an
    /// energy's owner. Panics when `n_ranks` does not factor into
    /// `groups × P_S`, exactly like [`DistScbaSolver::run`].
    pub fn decomposition(&self) -> DecompositionPlan {
        let p_s = self.config.spatial_partitions;
        assert!(
            p_s >= 1 && self.config.n_ranks.is_multiple_of(p_s),
            "n_ranks = {} must factor into energy groups x P_S = {p_s}",
            self.config.n_ranks,
        );
        let groups = self.config.n_ranks / p_s;
        let energies_per_group = self.grid.len().div_ceil(groups.max(1)).max(1);
        DecompositionPlan::new(self.grid.len(), energies_per_group, p_s)
    }

    /// The transposition plan the run will use. Energy and element slices are
    /// per energy *group*; with `P_S > 1` only the group leaders participate
    /// in the transpositions.
    pub fn plan(&self) -> TranspositionPlan {
        let h = self.device.hamiltonian_bt();
        let p_s = self.config.spatial_partitions;
        assert!(
            p_s >= 1 && self.config.n_ranks.is_multiple_of(p_s),
            "n_ranks = {} must factor into energy groups x P_S = {}",
            self.config.n_ranks,
            p_s,
        );
        let n_groups = self.config.n_ranks / p_s;
        let weights = energy_cost_weights(
            self.config.device_params.as_ref(),
            self.config.scba.use_memoizer,
            self.grid.len(),
        );
        TranspositionPlan::new(
            h.n_blocks(),
            h.block_size(),
            self.grid.len(),
            n_groups,
            p_s,
            self.config.symmetry_reduced,
            &weights,
        )
    }

    /// Run a single ballistic iteration across the ranks.
    pub fn ballistic(&self) -> DistScbaResult {
        let mut config = self.config.clone();
        config.scba.max_iterations = 1;
        DistScbaSolver {
            device: self.device.clone(),
            config,
            grid: self.grid.clone(),
        }
        .run()
    }

    /// Run the distributed SCBA loop until convergence or the iteration limit.
    pub fn run(&self) -> DistScbaResult {
        self.run_warm(None)
    }

    /// Run the distributed SCBA loop seeded from a previously captured
    /// [`WarmState`] instead of `Σ = 0`. Group leaders adopt the state's Σ
    /// matrices for their owned energies and pre-fill their OBC memoizer
    /// caches via [`quatrex_obc::ObcMemoizer::insert_cached`] — the same
    /// adoption the rebalancer's migration path performs, fed from a wire
    /// stream instead of an `Alltoallv`. With `initial = None` this *is*
    /// [`DistScbaSolver::run`]: a cold start.
    ///
    /// Panics when the state's grid shape (`N_E`, `N_B`, block size)
    /// disagrees with the solver's device and energy grid — a warm state is
    /// only meaningful across solves of the same discretisation.
    pub fn run_warm(&self, initial: Option<&WarmState>) -> DistScbaResult {
        let cfg = self.config.scba.clone();
        assert!(
            !self.config.symmetry_reduced || cfg.enforce_symmetry,
            "symmetry-reduced transposition requires enforce_symmetry",
        );
        assert!(
            self.config.energy_batches >= 1,
            "energy_batches must be at least 1",
        );
        let n_ranks = self.config.n_ranks;
        let h = Arc::new(self.device.hamiltonian_bt());
        let v = Arc::new({
            let mut v = self.device.coulomb_bt();
            if cfg.interaction_scale != 1.0 {
                v.scale_mut(c64::new(cfg.interaction_scale, 0.0));
            }
            v
        });
        if self.config.spatial_partitions > 1 {
            assert!(
                h.n_blocks() >= 2 * self.config.spatial_partitions,
                "P_S = {} needs at least {} transport blocks (device has {})",
                self.config.spatial_partitions,
                2 * self.config.spatial_partitions,
                h.n_blocks(),
            );
        }
        // The spatial partition layout is fixed for the whole run and shared
        // by every rank: uniform by default, FLOP-balanced (from the
        // shape-only probe, so it is deterministic) when requested. At
        // P_S = 2 there is no middle partition to balance against, so the
        // balanced layout IS the uniform one — skip the probe and report the
        // run as uniform.
        let balanced = self.config.balanced_partitions && self.config.spatial_partitions > 2;
        let spatial_layout: Arc<Vec<SpatialPartition>> =
            Arc::new(if self.config.spatial_partitions > 1 {
                let p_s = self.config.spatial_partitions;
                if balanced {
                    let probe = probe_partition_flops(h.n_blocks(), h.block_size(), p_s, 2)
                        .expect("FLOP probe of the spatial layout failed"); // lint:allow(no-unwrap): a failed FLOP probe means the layout constructor is broken
                    partition_layout_balanced(h.n_blocks(), p_s, &probe)
                } else {
                    spatial_partition_layout(h.n_blocks(), p_s)
                }
                // lint:allow(no-unwrap): the layout was validated against n_blocks at config build
                .expect("spatial partition layout rejected (too few blocks for P_S)")
            } else {
                Vec::new()
            });
        let plan = Arc::new(self.plan());
        let energies = Arc::new(self.grid.points());
        let de = self.grid.spacing();
        let kt = thermal_energy_ev(cfg.temperature_k);
        let ne = self.grid.len();
        let nb = h.n_blocks();
        if let Some(w) = initial {
            assert!(
                w.n_energies == ne && w.n_blocks == nb && w.block_size == h.block_size(),
                "warm state shape ({} energies, {} blocks of {}) disagrees with the run \
                 ({ne} energies, {nb} blocks of {})",
                w.n_energies,
                w.n_blocks,
                w.block_size,
                h.block_size(),
            );
        }
        let warm: Option<Arc<WarmState>> = initial.map(|w| Arc::new(w.clone()));
        let capture = self.config.capture_state;
        let bs = h.block_size();
        let flops = Arc::new(FlopCounter::new());
        let timings = Arc::new(KernelTimings::default());

        // One shared clock zero for every rank's probe recorder, taken before
        // the threads spawn so the merged tracks align.
        let epoch = Instant::now();
        let rank_body = {
            let cfg = cfg.clone();
            let (h, v, plan, energies) = (h, v, Arc::clone(&plan), energies);
            let (flops, timings) = (Arc::clone(&flops), Arc::clone(&timings));
            let rebalance = self.config.rebalance_energies;
            let n_batches = self.config.energy_batches;
            let probe = self.config.probe;
            let layout = Arc::clone(&spatial_layout);
            let warm = warm.clone();
            move |ctx: RankContext<Vec<c64>>| -> RankOut {
                rank_main(
                    &ctx,
                    &cfg,
                    &h,
                    &v,
                    &plan,
                    &layout,
                    &energies,
                    de,
                    kt,
                    ne,
                    nb,
                    rebalance,
                    n_batches,
                    probe,
                    epoch,
                    warm.as_deref(),
                    capture,
                    &flops,
                    &timings,
                )
            }
        };
        let (mut results, stats) = ThreadComm::run(n_ranks, rank_body);
        let mut rank0 = results.remove(0);

        let transposition_bytes: u64 =
            rank0.transposition_bytes + results.iter().map(|r| r.transposition_bytes).sum::<u64>();
        let mut traffic_g = rank0.traffic_g;
        let mut traffic_w = rank0.traffic_w;
        for r in &results {
            traffic_g.merge(&r.traffic_g);
            traffic_w.merge(&r.traffic_w);
        }
        let memo_hits = rank0.memo_hits + results.iter().map(|r| r.memo_hits).sum::<usize>();
        let memo_total = rank0.memo_total + results.iter().map(|r| r.memo_total).sum::<usize>();
        let rebalance_bytes: u64 =
            rank0.rebalance_bytes + results.iter().map(|r| r.rebalance_bytes).sum::<u64>();
        // The busiest rank's in-flight buffer bounds the per-node memory; the
        // overlap windows add up across ranks like the kernel timings do.
        let peak_slab_bytes = results
            .iter()
            .map(|r| r.peak_slab_bytes)
            .fold(rank0.peak_slab_bytes, u64::max);
        let overlap_window_seconds =
            rank0.overlap_seconds + results.iter().map(|r| r.overlap_seconds).sum::<f64>();

        // Merge the per-rank probe buffers into one timeline and derive the
        // phase metrics for the report.
        let mut traces: Vec<RankTrace> = Vec::with_capacity(n_ranks);
        if let Some(t) = rank0.trace.take() {
            traces.push(t);
        }
        for r in &mut results {
            if let Some(t) = r.trace.take() {
                traces.push(t);
            }
        }
        let timeline = Timeline::merge(traces);
        let phase_seconds = timeline.phase_seconds();
        // The k-th posted exchange pairs with the k-th wait on each rank
        // (FIFO wait order); restrict the pairs to the four energy↔element
        // transpositions and ask how much of their in-flight time ran under
        // the convolution kernels.
        let transposition_posts: Vec<&'static str> = CommPhase::ALL
            .iter()
            .filter(|p| p.is_transposition())
            .map(|p| p.post_name())
            .collect();
        let overlap_efficiency = timeline.overlap_efficiency(
            |name| transposition_posts.contains(&name),
            |cat| cat.starts_with("conv."),
        );
        let time_imbalance = timeline.imbalance_factor(|cat| !cat.starts_with("comm."));
        let flop_rates = phase_flop_rates(&phase_seconds, &flops);

        // Per-iteration memoizer hit rate: the per-rank snapshots are
        // cumulative, so consecutive differences give each iteration's solves.
        let n_iter_stats = rank0.memo_per_iteration.len();
        let mut memo_rate_per_iteration = Vec::with_capacity(n_iter_stats);
        let mut prev = (0usize, 0usize);
        for i in 0..n_iter_stats {
            let mut hits = rank0.memo_per_iteration[i].0;
            let mut total = rank0.memo_per_iteration[i].1;
            for r in &results {
                if let Some(&(h, t)) = r.memo_per_iteration.get(i) {
                    hits += h;
                    total += t;
                }
            }
            let (dh, dt) = (hits - prev.0, total - prev.1);
            memo_rate_per_iteration.push(if dt > 0 { dh as f64 / dt as f64 } else { 0.0 });
            prev = (hits, total);
        }
        if memo_total == 0 {
            memo_rate_per_iteration.clear();
        }

        let report = self.build_report(
            &plan,
            &stats,
            balanced,
            rank0.full_iterations,
            transposition_bytes,
            &traffic_g,
            &traffic_w,
            rank0.energy_rebalances,
            rebalance_bytes,
            peak_slab_bytes,
            overlap_window_seconds,
            ProbeMetrics {
                phase_seconds,
                overlap_efficiency,
                time_imbalance,
                memoizer_hit_rate_per_iteration: memo_rate_per_iteration,
                phase_flop_rates: flop_rates,
            },
        );
        // Assemble the captured per-leader Σ/OBC fragments into one state
        // over the full grid. Global energy indices key the fragments, so the
        // assembly is ownership-agnostic: it holds whether the final split is
        // the initial plan or a rebalanced one.
        let final_state = if capture {
            let mut state = WarmState::zeros(ne, nb, bs);
            let mut seen = vec![false; ne];
            let mut obc: Vec<(quatrex_obc::ObcKey, CMatrix)> = Vec::new();
            for r in std::iter::once(&mut rank0).chain(results.iter_mut()) {
                for (k, l, g, sr) in r.final_sigma.drain(..) {
                    assert!(!seen[k], "energy {k} captured by one leader only");
                    seen[k] = true;
                    state.sigma_lesser[k] = l;
                    state.sigma_greater[k] = g;
                    state.sigma_retarded[k] = sr;
                }
                obc.append(&mut r.final_obc);
            }
            assert!(
                seen.iter().all(|&s| s),
                "state capture covers the energy grid",
            );
            obc.sort_by_key(|(key, _)| *key);
            state.obc = obc;
            Some(state)
        } else {
            None
        };
        let result_flops = FlopCounter::new();
        result_flops.merge(&flops);
        DistScbaResult {
            iterations: rank0.iterations,
            converged: rank0.converged,
            residual_history: rank0.residual_history,
            current_history: rank0.current_history,
            observables: rank0.observables,
            timings: copy_timings(&timings),
            flops: result_flops,
            memoizer_hit_rate: if memo_total > 0 {
                memo_hits as f64 / memo_total as f64
            } else {
                0.0
            },
            max_truncation_error: rank0.max_truncation,
            report,
            timeline,
            final_state,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_report(
        &self,
        plan: &TranspositionPlan,
        stats: &CommStats,
        balanced: bool,
        full_iterations: usize,
        transposition_bytes: u64,
        traffic_g: &SpatialTraffic,
        traffic_w: &SpatialTraffic,
        energy_rebalances: usize,
        rebalance_bytes: u64,
        peak_slab_bytes: u64,
        overlap_window_seconds: f64,
        probe: ProbeMetrics,
    ) -> DistReport {
        use std::sync::atomic::Ordering;
        DistReport {
            n_ranks: plan.n_total_ranks(),
            energy_groups: plan.n_ranks,
            spatial_partitions: plan.spatial_partitions,
            // The flag `run` selected the layout with: false at P_S = 2,
            // where the balanced layout degenerates to the uniform split.
            balanced_partitions: balanced,
            energies_per_rank: plan.energy_ranges.iter().map(|r| r.len()).collect(),
            elements_per_rank: plan.element_ranges.iter().map(|r| r.len()).collect(),
            symmetry_reduced: plan.symmetry_reduced,
            full_iterations,
            measured_transposition_bytes: transposition_bytes,
            measured_alltoall_bytes: stats.alltoall_bytes.load(Ordering::Relaxed),
            measured_max_bytes_per_rank: stats.max_alltoall_bytes_per_rank(),
            measured_allreduce_bytes: stats.allreduce_bytes.load(Ordering::Relaxed),
            measured_boundary_bytes_g: traffic_g.boundary_bytes,
            measured_boundary_bytes_w: traffic_w.boundary_bytes,
            measured_slice_bytes_g: traffic_g.slice_bytes,
            measured_slice_bytes_w: traffic_w.slice_bytes,
            broadcast_equivalent_bytes_g: traffic_g.broadcast_equivalent_bytes,
            broadcast_equivalent_bytes_w: traffic_w.broadcast_equivalent_bytes,
            energy_rebalances,
            measured_rebalance_bytes: rebalance_bytes,
            batch_count: self.config.energy_batches,
            peak_slab_bytes,
            overlap_window_seconds,
            n_collectives: stats.n_collectives.load(Ordering::Relaxed),
            alltoall_bytes_per_phase: stats.phase_breakdown(),
            phase_seconds: probe.phase_seconds,
            overlap_efficiency: probe.overlap_efficiency,
            time_imbalance: probe.time_imbalance,
            memoizer_hit_rate_per_iteration: probe.memoizer_hit_rate_per_iteration,
            phase_flop_rates: probe.phase_flop_rates,
            budget: TranspositionBudget::new(
                plan.stored_values(),
                plan.n_energies,
                plan.n_ranks,
                plan.symmetry_reduced,
            ),
        }
    }
}

/// The probe-derived metrics folded into [`DistReport`]; all empty/`None`
/// when [`DistScbaConfig::probe`] is false.
struct ProbeMetrics {
    phase_seconds: Vec<(String, f64)>,
    overlap_efficiency: Option<f64>,
    time_imbalance: Option<f64>,
    memoizer_hit_rate_per_iteration: Vec<f64>,
    phase_flop_rates: Vec<(String, f64)>,
}

/// Join the probe's per-category wall seconds with the [`FlopCounter`]
/// accounting into measured FLOP/s per phase. Only phases with nonzero
/// seconds *and* nonzero FLOPs appear. At `P_S = 1` each subsystem's RGF work
/// is one category (`g.rgf` / `w.rgf`, the spans of the shared step
/// functions, at any `kernel_batch`); the cooperative spatial solves
/// (`P_S > 1`) report one combined `spatial.rgf` rate (the partition
/// eliminations/recoveries and the reduced systems serve both subsystems and
/// cannot be split by category).
fn phase_flop_rates(phase_seconds: &[(String, f64)], flops: &FlopCounter) -> Vec<(String, f64)> {
    let secs = |cats: &[&str]| -> f64 {
        phase_seconds
            .iter()
            .filter(|(c, _)| cats.iter().any(|k| c == k))
            .map(|&(_, s)| s)
            .sum()
    };
    let mut out = Vec::new();
    let mut push = |label: &str, flop: u64, s: f64| {
        if flop > 0 && s > 0.0 {
            out.push((label.to_string(), flop as f64 / s));
        }
    };
    push(
        "g.assembly",
        flops.get(FlopKind::GObc),
        secs(&["g.assembly"]),
    );
    push("g.rgf", flops.get(FlopKind::GRgf), secs(&["g.rgf"]));
    let w_assembly = flops.get(FlopKind::WBeyn)
        + flops.get(FlopKind::WLyapunov)
        + flops.get(FlopKind::WAssemblyLhs)
        + flops.get(FlopKind::WAssemblyRhs);
    push("w.assembly", w_assembly, secs(&["w.assembly"]));
    push("w.rgf", flops.get(FlopKind::WRgf), secs(&["w.rgf"]));
    push(
        "convolution",
        flops.get(FlopKind::Convolution),
        secs(&["conv.p", "conv.sigma"]),
    );
    push(
        "spatial.rgf",
        flops.get(FlopKind::GRgf) + flops.get(FlopKind::WRgf),
        secs(&["rgf.partition", "rgf.reduced"]),
    );
    out
}

/// Element-wise NEGF symmetrisation of a canonical/mirror series pair — the
/// exact per-element arithmetic of `BlockTridiagonal::symmetrize_negf`.
fn symmetrize_series_pair(canonical: &mut [c64], mirror: &mut [c64], self_mirror: bool) {
    let half = c64::new(0.5, 0.0);
    if self_mirror {
        for (c, m) in canonical.iter_mut().zip(mirror.iter_mut()) {
            *c = (*c - c.conj()) * half;
            *m = *c;
        }
    } else {
        for (c, m) in canonical.iter_mut().zip(mirror.iter_mut()) {
            let (a, b) = (*c, *m);
            *c = (a - b.conj()) * half;
            *m = (b - a.conj()) * half;
        }
    }
}

/// Per-element convolution phase output: canonical and mirror series of the
/// lesser, greater and retarded components.
struct ElementPhase {
    lesser_c: Vec<Vec<c64>>,
    lesser_m: Vec<Vec<c64>>,
    greater_c: Vec<Vec<c64>>,
    greater_m: Vec<Vec<c64>>,
    retarded_c: Vec<Vec<c64>>,
    retarded_m: Vec<Vec<c64>>,
}

impl ElementPhase {
    fn back_components(&self) -> [BackComponent<'_>; 3] {
        [
            BackComponent::Symmetric {
                canonical: &self.lesser_c,
                mirror: &self.lesser_m,
            },
            BackComponent::Symmetric {
                canonical: &self.greater_c,
                mirror: &self.greater_m,
            },
            BackComponent::Full {
                canonical: &self.retarded_c,
                mirror: &self.retarded_m,
            },
        ]
    }
}

/// Running per-element convolution accumulators: one series per owned
/// element (canonical and mirror), filled batch by batch by the
/// `quatrex_core::convolution::*_accumulate` kernels while later batches are
/// still in flight.
struct ConvAccumulators {
    lesser_c: Vec<Vec<c64>>,
    lesser_m: Vec<Vec<c64>>,
    greater_c: Vec<Vec<c64>>,
    greater_m: Vec<Vec<c64>>,
}

impl ConvAccumulators {
    fn zeroed(n_local: usize, ne: usize) -> Self {
        let zero = || vec![vec![c64::new(0.0, 0.0); ne]; n_local];
        Self {
            lesser_c: zero(),
            lesser_m: zero(),
            greater_c: zero(),
            greater_m: zero(),
        }
    }

    /// The phase epilogue after the last batch has been consumed: symmetrise
    /// the canonical/mirror pairs and build the retarded components causally
    /// — arithmetic identical to the pre-batch per-element loop.
    fn finish(
        mut self,
        plan: &TranspositionPlan,
        group: usize,
        enforce_symmetry: bool,
        flops: &FlopCounter,
    ) -> ElementPhase {
        // The epilogue read of the batch-accumulated series: ordered after
        // every batch's accumulate (same leader thread, after the batch's
        // CommHandle::wait) — a pipeline mutation that lets the finish read
        // overtake an in-flight batch's accumulate is an HB race here.
        race::access_shared(
            SharedId::new("dist.conv_accum", group as u64),
            AccessKind::Read,
        );
        let elems = plan.element_ranges[group].clone();
        let n_local = elems.len();
        let mut phase = ElementPhase {
            lesser_c: Vec::with_capacity(n_local),
            lesser_m: Vec::with_capacity(n_local),
            greater_c: Vec::with_capacity(n_local),
            greater_m: Vec::with_capacity(n_local),
            retarded_c: Vec::with_capacity(n_local),
            retarded_m: Vec::with_capacity(n_local),
        };
        for (e_local, e) in elems.enumerate() {
            let id = plan.elements[e];
            let mut lc = std::mem::take(&mut self.lesser_c[e_local]);
            let mut gc = std::mem::take(&mut self.greater_c[e_local]);
            let (mut lm, mut gm) = if id.is_self_mirror() {
                (lc.clone(), gc.clone())
            } else {
                (
                    std::mem::take(&mut self.lesser_m[e_local]),
                    std::mem::take(&mut self.greater_m[e_local]),
                )
            };
            if enforce_symmetry {
                symmetrize_series_pair(&mut lc, &mut lm, id.is_self_mirror());
                symmetrize_series_pair(&mut gc, &mut gm, id.is_self_mirror());
            }
            let rc = causal_retarded_series(&lc, &gc, flops);
            let rm = if id.is_self_mirror() {
                rc.clone()
            } else {
                causal_retarded_series(&lm, &gm, flops)
            };
            phase.lesser_c.push(lc);
            phase.lesser_m.push(lm);
            phase.greater_c.push(gc);
            phase.greater_m.push(gm);
            phase.retarded_c.push(rc);
            phase.retarded_m.push(rm);
        }
        phase
    }
}

/// In-flight transposition buffer accounting and overlap stopwatch of one
/// rank: every posted (and received) batch payload counts toward the current
/// buffer footprint until its batch has been consumed; the peak is what
/// `DistReport::peak_slab_bytes` reports, and the overlap clock accumulates
/// the compute time that ran while at least one batch was in flight.
#[derive(Default)]
struct PipelineMetrics {
    in_flight_bytes: u64,
    peak_bytes: u64,
    overlap_seconds: f64,
}

impl PipelineMetrics {
    fn track(&mut self, bytes: u64) {
        self.in_flight_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.in_flight_bytes);
    }

    fn release(&mut self, bytes: u64) {
        self.in_flight_bytes -= bytes;
    }
}

/// Buffer bytes of a per-destination payload set (self-messages included —
/// they occupy memory even though they never touch the wire).
fn payload_bytes(payloads: &[Vec<c64>]) -> u64 {
    payloads
        .iter()
        .map(|m| (m.len() * BYTES_PER_VALUE) as u64)
        .sum()
}

/// Post a per-group exchange through the flat communicator without blocking:
/// group `g`'s message rides to its leader rank, non-leader ranks contribute
/// empty messages. Completed by [`leader_wait`]. The `phase` tag splits the
/// byte accounting per transposition and names the probe post/wait events.
fn leader_alltoallv_start(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    payloads_by_group: Vec<Vec<c64>>,
    phase: CommPhase,
) -> CommHandle<Vec<c64>> {
    debug_assert_eq!(payloads_by_group.len(), grid.n_groups);
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); grid.n_ranks()];
    for (g, msg) in payloads_by_group.into_iter().enumerate() {
        send[grid.leader_of(g)] = msg;
    }
    ctx.alltoallv_start_tagged(send, |m| m.len() * BYTES_PER_VALUE, phase)
}

/// Static probe span name of the batch pack (scatter) stage per transposition.
fn scatter_span_name(phase: CommPhase) -> &'static str {
    match phase {
        CommPhase::FwdG => "transposition.scatter.fwd_g",
        CommPhase::BwdP => "transposition.scatter.bwd_p",
        CommPhase::FwdW => "transposition.scatter.fwd_w",
        CommPhase::BwdSigma => "transposition.scatter.bwd_sigma",
        _ => "transposition.scatter.other",
    }
}

/// Static probe span name of the batch unpack (absorb) stage per
/// transposition.
fn absorb_span_name(phase: CommPhase) -> &'static str {
    match phase {
        CommPhase::FwdG => "transposition.absorb.fwd_g",
        CommPhase::BwdP => "transposition.absorb.bwd_p",
        CommPhase::FwdW => "transposition.absorb.fwd_w",
        CommPhase::BwdSigma => "transposition.absorb.bwd_sigma",
        _ => "transposition.absorb.other",
    }
}

/// Complete an exchange posted by [`leader_alltoallv_start`]: returns the
/// received messages indexed by source *group*.
fn leader_wait(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    handle: CommHandle<Vec<c64>>,
) -> Vec<Vec<c64>> {
    let mut recv = handle.wait(ctx);
    (0..grid.n_groups)
        .map(|g| std::mem::take(&mut recv[grid.leader_of(g)]))
        .collect()
}

/// Drive one forward transposition (energy-major → element-major) through the
/// double-buffered batch pipeline: batch `k+1`'s `Alltoallv` is posted
/// non-blocking before batch `k` is unpacked, so `consume` (the per-batch
/// convolution accumulation; called on leaders for every non-empty batch with
/// the slab-so-far, the arrived global energy indices, and whether earlier
/// batches arrived) computes while the next batch flies. Non-leader ranks
/// join every batch collective with empty messages. Returns the fully
/// assembled element slab on leaders.
#[allow(clippy::too_many_arguments)]
fn forward_pipeline(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    plan: &TranspositionPlan,
    batches: &TranspositionBatchPlan,
    group: usize,
    is_leader: bool,
    comps: &[&[BlockTridiagonal]],
    n_components: usize,
    phase: CommPhase,
    transposition_bytes: &mut u64,
    metrics: &mut PipelineMetrics,
    mut consume: impl FnMut(&ElementSlab, &[usize], bool),
) -> Option<ElementSlab> {
    let n_batches = batches.n_batches;
    let mut slab = is_leader.then(|| {
        ElementSlab::zeroed(
            plan.element_ranges[group].clone(),
            n_components,
            plan.n_energies,
        )
    });
    let post = |b: usize,
                transposition_bytes: &mut u64,
                metrics: &mut PipelineMetrics|
     -> (CommHandle<Vec<c64>>, u64) {
        let payloads = if is_leader {
            quatrex_probe::span(scatter_span_name(phase), "transposition.pack", || {
                plan.scatter_forward_batch(group, comps, batches.local_ranges[group][b].clone())
            })
        } else {
            vec![Vec::new(); grid.n_groups]
        };
        *transposition_bytes += plan.off_rank_bytes(group, &payloads);
        let bytes = payload_bytes(&payloads);
        metrics.track(bytes);
        (leader_alltoallv_start(ctx, grid, payloads, phase), bytes)
    };
    let mut handles: VecDeque<(CommHandle<Vec<c64>>, u64)> = VecDeque::new();
    let first = post(0, transposition_bytes, metrics);
    handles.push_back(first);
    let mut arrived_before = false;
    for b in 0..n_batches {
        if b + 1 < n_batches {
            let next = post(b + 1, transposition_bytes, metrics);
            handles.push_back(next);
        }
        let (handle, sent_bytes) = handles.pop_front().expect("batch in flight"); // lint:allow(no-unwrap): pipeline invariant: a send always precedes this pop
        let received = leader_wait(ctx, grid, handle);
        let recv_bytes = payload_bytes(&received);
        metrics.track(recv_bytes);
        let overlapped = !handles.is_empty();
        let t = Instant::now();
        if let Some(slab) = slab.as_mut() {
            quatrex_probe::span(absorb_span_name(phase), "transposition.unpack", || {
                plan.absorb_forward_batch(group, slab, received, &batches.global_ranges(plan, b));
            });
            let batch_view = batches.arrived_global(plan, b);
            if !batch_view.is_empty() {
                consume(slab, &batch_view, arrived_before);
                arrived_before = true;
            }
        }
        if overlapped {
            metrics.overlap_seconds += t.elapsed().as_secs_f64();
        }
        metrics.release(sent_bytes + recv_bytes);
    }
    slab
}

/// Drive one backward transposition (element-major → energy-major) through
/// the double-buffered batch pipeline: batch `k+1` is packed and posted
/// before batch `k` is scattered into the pre-allocated energy-major
/// matrices. `comps` is the leader's element-phase output (`None` on
/// non-leaders); returns one energy-major quantity per `symmetric` entry on
/// leaders, empty vectors elsewhere.
#[allow(clippy::too_many_arguments)]
fn backward_pipeline(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    plan: &TranspositionPlan,
    batches: &TranspositionBatchPlan,
    group: usize,
    is_leader: bool,
    comps: Option<&[BackComponent<'_>]>,
    symmetric: &[bool],
    phase: CommPhase,
    transposition_bytes: &mut u64,
    metrics: &mut PipelineMetrics,
) -> Vec<Vec<BlockTridiagonal>> {
    let n_batches = batches.n_batches;
    let n_local = plan.energy_ranges[group].len();
    let mut out: Vec<Vec<BlockTridiagonal>> = if is_leader {
        (0..symmetric.len())
            .map(|_| vec![BlockTridiagonal::zeros(plan.n_blocks, plan.block_size); n_local])
            .collect()
    } else {
        (0..symmetric.len()).map(|_| Vec::new()).collect()
    };
    let post = |b: usize,
                transposition_bytes: &mut u64,
                metrics: &mut PipelineMetrics|
     -> (CommHandle<Vec<c64>>, u64) {
        let payloads = match comps {
            Some(comps) => {
                quatrex_probe::span(scatter_span_name(phase), "transposition.pack", || {
                    plan.scatter_backward_batch(group, comps, &batches.global_ranges(plan, b))
                })
            }
            None => vec![Vec::new(); grid.n_groups],
        };
        *transposition_bytes += plan.off_rank_bytes(group, &payloads);
        let bytes = payload_bytes(&payloads);
        metrics.track(bytes);
        (leader_alltoallv_start(ctx, grid, payloads, phase), bytes)
    };
    let mut handles: VecDeque<(CommHandle<Vec<c64>>, u64)> = VecDeque::new();
    let first = post(0, transposition_bytes, metrics);
    handles.push_back(first);
    for b in 0..n_batches {
        if b + 1 < n_batches {
            let next = post(b + 1, transposition_bytes, metrics);
            handles.push_back(next);
        }
        let (handle, sent_bytes) = handles.pop_front().expect("batch in flight"); // lint:allow(no-unwrap): pipeline invariant: a send always precedes this pop
        let received = leader_wait(ctx, grid, handle);
        let recv_bytes = payload_bytes(&received);
        metrics.track(recv_bytes);
        let overlapped = !handles.is_empty();
        let t = Instant::now();
        if is_leader {
            quatrex_probe::span(absorb_span_name(phase), "transposition.unpack", || {
                plan.absorb_backward_batch(
                    group,
                    &mut out,
                    received,
                    symmetric,
                    batches.global_range(plan, group, b),
                );
            });
        }
        if overlapped {
            metrics.overlap_seconds += t.elapsed().as_secs_f64();
        }
        metrics.release(sent_bytes + recv_bytes);
    }
    out
}

/// The per-rank SCBA main loop.
#[allow(clippy::too_many_arguments)]
fn rank_main(
    ctx: &RankContext<Vec<c64>>,
    cfg: &ScbaConfig,
    h: &BlockTridiagonal,
    v: &BlockTridiagonal,
    plan: &TranspositionPlan,
    parts: &[SpatialPartition],
    energies: &[f64],
    de: f64,
    kt: f64,
    ne: usize,
    nb: usize,
    rebalance: bool,
    n_batches: usize,
    probe: bool,
    epoch: Instant,
    warm: Option<&WarmState>,
    capture: bool,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> RankOut {
    let rank = ctx.rank();
    if probe {
        quatrex_probe::install(rank, epoch);
    }
    let grid = RankGrid::new(ctx.n_ranks(), plan.spatial_partitions);
    let p_s = grid.spatial_partitions;
    let group = grid.group_of(rank);
    let is_leader = grid.is_leader(rank);
    let separators: Vec<usize> = if p_s > 1 {
        debug_assert_eq!(parts.len(), p_s, "spatial layout matches P_S");
        separator_blocks(parts)
    } else {
        Vec::new()
    };
    // Rebalancing mutates the energy ownership between iterations; only then
    // does each rank take a private plan copy (the default path keeps the
    // shared, read-only plan).
    let mut plan_rebalanced: Option<TranspositionPlan> = rebalance.then(|| plan.clone());
    let bs = h.block_size();
    let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;

    let mut memoizer = if cfg.use_memoizer {
        Some(ObcMemoizer::new(cfg.n_fpi, 1e-7))
    } else {
        None
    };
    // Per-rank RGF scratch of the `P_S = 1` step calls: all owned energies
    // share one transport-cell shape, so the staged operand batches and the
    // batch arena stay warm across kernel batches and iterations.
    let mut rgf_scratch = RgfBatchScratch::new();

    // Scattering self-energies for the owned energies (energy-major, held by
    // the group leader; non-leaders carry no per-energy state).
    let n_state = if is_leader {
        plan.energy_ranges[group].len()
    } else {
        0
    };
    let mut sigma_r: Vec<BlockTridiagonal> = vec![BlockTridiagonal::zeros(nb, bs); n_state];
    let mut sigma_l = sigma_r.clone();
    let mut sigma_g = sigma_r.clone();

    // Warm start: group leaders adopt the seed state's Σ matrices for their
    // owned energies and pre-fill the OBC memoizer — the identical adoption
    // the rebalancer's migration receive path performs (the shape was
    // validated against the grid before the ranks spawned).
    if let Some(w) = warm {
        if is_leader {
            let my_e0 = plan.energy_ranges[group].clone();
            for (k_local, k) in my_e0.clone().enumerate() {
                sigma_l[k_local] = w.sigma_lesser[k].clone();
                sigma_g[k_local] = w.sigma_greater[k].clone();
                sigma_r[k_local] = w.sigma_retarded[k].clone();
            }
            if let Some(m) = memoizer.as_mut() {
                for (key, block) in &w.obc {
                    if my_e0.contains(&key.energy_index) {
                        m.insert_cached(*key, block.clone());
                    }
                }
            }
        }
    }

    let mut residual_history = Vec::new();
    let mut current_history = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;
    let mut full_iterations = 0usize;
    let mut max_truncation = 0.0f64;
    let mut transposition_bytes = 0u64;
    let mut traffic_g = SpatialTraffic::default();
    let mut traffic_w = SpatialTraffic::default();
    let mut energy_rebalances = 0usize;
    let mut rebalance_bytes = 0u64;
    let mut pipe = PipelineMetrics::default();
    let mut memo_per_iteration: Vec<(usize, usize)> = Vec::new();

    // Last-iteration local spectral data. Only the G^< diagonal traces feed
    // the density, so they are extracted at G-step time instead of keeping
    // the full block matrices around.
    let mut local_spectrum: Vec<f64> = Vec::new();
    let mut local_dos: Vec<Vec<f64>> = Vec::new();
    let mut local_traces: Vec<Vec<c64>> = Vec::new();

    for _iter in 0..cfg.max_iterations {
        iterations += 1;
        let plan_local: &TranspositionPlan = plan_rebalanced.as_ref().unwrap_or(plan);
        // The batch schedule follows the (possibly rebalanced) energy
        // ownership of this iteration.
        let batch_plan = TranspositionBatchPlan::new(plan_local, n_batches);
        let my_e = plan_local.energy_ranges[group].clone();
        let n_local = my_e.len();
        let n_state = if is_leader { n_local } else { 0 };
        // Wall seconds each owned energy spends in assembly + solve this
        // iteration — the measured cost weights of the next rebalance.
        let mut energy_seconds = vec![0.0f64; n_state];

        // ------------------------------------------------------------ G step
        let mut g_lesser = Vec::with_capacity(n_state);
        let mut g_greater = Vec::with_capacity(n_state);
        local_spectrum = Vec::with_capacity(n_state);
        local_dos = Vec::with_capacity(n_state);
        local_traces = Vec::with_capacity(n_state);
        let mut keep_g = |out: GStepOutput| {
            local_traces.push((0..nb).map(|i| out.lesser.diag(i).trace()).collect());
            g_lesser.push(out.lesser);
            g_greater.push(out.greater);
            local_spectrum.push(out.current_spectrum);
            local_dos.push(out.dos_local);
        };
        if p_s == 1 {
            // The step function of the sequential driver, one call per kernel
            // chunk. Chunks are cut inside the transposition batches — a
            // kernel batch never straddles a batch boundary, so the data a
            // solve produces is exactly the data the next pipelined
            // transposition ships.
            for lr in &batch_plan.local_ranges[group] {
                for chunk in kernel_chunks(lr.clone(), cfg.kernel_batch) {
                    let owned = my_e.start + chunk.start..my_e.start + chunk.end;
                    let idxs: Vec<usize> = owned.clone().collect();
                    let sr: Vec<_> = sigma_r[chunk.clone()].iter().map(Some).collect();
                    let sl: Vec<_> = sigma_l[chunk.clone()].iter().map(Some).collect();
                    let sg: Vec<_> = sigma_g[chunk.clone()].iter().map(Some).collect();
                    let outs = g_step_batch(
                        h,
                        &energies[owned],
                        &idxs,
                        cfg,
                        kt,
                        &sr,
                        &sl,
                        &sg,
                        &mut [memoizer.as_mut()],
                        &mut rgf_scratch,
                        flops,
                        timings,
                    )
                    .expect("RGF solve failed: the system matrix became singular"); // lint:allow(no-unwrap): a singular system matrix is a fatal numeric error
                    for (k_local, out) in chunk.zip(outs) {
                        energy_seconds[k_local] += out.seconds;
                        keep_g(out);
                    }
                }
            }
        } else {
            // Leader assembles; the group's spatial ranks solve cooperatively.
            let mut systems = Vec::with_capacity(n_state);
            let mut obc_left: Vec<(CMatrix, CMatrix)> = Vec::with_capacity(n_state);
            for (k_local, k) in my_e.clone().enumerate().take(n_state) {
                let (asm, secs) = quatrex_probe::span_timed("g.assembly", "g.assembly", || {
                    assemble_g(
                        h,
                        energies[k],
                        cfg.eta,
                        k,
                        Some(&sigma_r[k_local]),
                        Some(&sigma_l[k_local]),
                        Some(&sigma_g[k_local]),
                        cfg.mu_left,
                        cfg.mu_right,
                        kt,
                        cfg.obc_method_g,
                        memoizer.as_mut(),
                        flops,
                    )
                });
                timings.add_seconds(&timings.g_assembly_ns, secs);
                energy_seconds[k_local] += secs;
                obc_left.push((
                    asm.sigma_obc_left_lesser.clone(),
                    asm.sigma_obc_left_greater.clone(),
                ));
                systems.push((asm.system, asm.rhs_lesser, asm.rhs_greater));
            }
            let (sols, traffic) = spatial_phase_solve(
                ctx,
                &grid,
                parts,
                &separators,
                n_local,
                systems,
                nb,
                bs,
                flops,
                FlopKind::GRgf,
                timings,
                &timings.g_rgf_ns,
            );
            traffic_g.merge(&traffic);
            for (k_local, sol) in sols.into_iter().enumerate() {
                let mut lessers = sol.lesser.into_iter();
                let gl = lessers.next().expect("lesser solved"); // lint:allow(no-unwrap): rgf_solve returns one grid per requested RHS
                let gg = lessers.next().expect("greater solved"); // lint:allow(no-unwrap): rgf_solve returns one grid per requested RHS
                keep_g(g_step_finish(
                    &obc_left[k_local].0,
                    &obc_left[k_local].1,
                    sol.retarded,
                    gl,
                    gg,
                    cfg,
                ));
            }
        }

        // Observable allreduce: the per-iteration current.
        let partial: f64 = local_spectrum.iter().sum();
        let current = ctx.allreduce_sum(partial) * de / (2.0 * std::f64::consts::PI);
        current_history.push(current);

        if cfg.max_iterations == 1 {
            break;
        }

        // ------------- transposition #1 + P step (pipelined over B batches)
        // Batch k+1's Alltoallv flies while the polarisation kernels consume
        // batch k: P is bilinear in G, so each arriving batch contributes its
        // cross terms against everything arrived so far (exact; see
        // `polarization_series_accumulate`).
        let elems = plan_local.element_ranges[group].clone();
        let n_elems = elems.len();
        let mut p_acc = is_leader.then(|| ConvAccumulators::zeroed(n_elems, ne));
        let g_slab = forward_pipeline(
            ctx,
            &grid,
            plan_local,
            &batch_plan,
            group,
            is_leader,
            &[&g_lesser, &g_greater],
            2,
            CommPhase::FwdG,
            &mut transposition_bytes,
            &mut pipe,
            |slab, batch, arrived_before| {
                let acc = p_acc.as_mut().expect("leader accumulators"); // lint:allow(no-unwrap): this closure runs on the leader rank only
                race::access_shared(
                    SharedId::new("dist.conv_accum", group as u64),
                    AccessKind::Write,
                );
                quatrex_probe::span("scba.p.accumulate", "conv.p", || {
                    let t = Instant::now();
                    for e_local in 0..n_elems {
                        let id = plan_local.elements[elems.start + e_local];
                        // P_ij(ω) needs G^<_ij, G^>_ji, G^>_ij, G^<_ji; the
                        // mirrored element swaps canonical and mirror series.
                        let (gl, gg) = (&slab.canonical[0][e_local], &slab.canonical[1][e_local]);
                        let (gl_m, gg_m) = (&slab.mirror[0][e_local], &slab.mirror[1][e_local]);
                        polarization_series_accumulate(
                            &mut acc.lesser_c[e_local],
                            &mut acc.greater_c[e_local],
                            gl,
                            gg_m,
                            gg,
                            gl_m,
                            batch,
                            arrived_before,
                            de,
                            flops,
                        );
                        if !id.is_self_mirror() {
                            polarization_series_accumulate(
                                &mut acc.lesser_m[e_local],
                                &mut acc.greater_m[e_local],
                                gl_m,
                                gg,
                                gg_m,
                                gl,
                                batch,
                                arrived_before,
                                de,
                                flops,
                            );
                        }
                    }
                    timings.add(&timings.convolution_ns, t);
                });
            },
        );
        let p_phase = p_acc.map(|acc| {
            quatrex_probe::span("scba.p.finish", "conv.p", || {
                let t = Instant::now();
                let phase = acc.finish(plan_local, group, cfg.enforce_symmetry, flops);
                timings.add(&timings.convolution_ns, t);
                phase
            })
        });

        // ------------------------------------ transposition #2: P backward
        let p_comps = p_phase.as_ref().map(|p| p.back_components());
        let mut p_out = backward_pipeline(
            ctx,
            &grid,
            plan_local,
            &batch_plan,
            group,
            is_leader,
            p_comps.as_ref().map(|c| c.as_slice()),
            &[true, true, false],
            CommPhase::BwdP,
            &mut transposition_bytes,
            &mut pipe,
        );
        let (p_lesser, p_greater, p_retarded) = if is_leader {
            let p_retarded = p_out.pop().expect("P^R"); // lint:allow(no-unwrap): the P convolution pushes exactly three grids
            let p_greater = p_out.pop().expect("P^>"); // lint:allow(no-unwrap): the P convolution pushes exactly three grids
            let p_lesser = p_out.pop().expect("P^<"); // lint:allow(no-unwrap): the P convolution pushes exactly three grids
            (p_lesser, p_greater, p_retarded)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        // ------------------------------------------------------------ W step
        let mut w_lesser = Vec::with_capacity(n_state);
        let mut w_greater = Vec::with_capacity(n_state);
        let mut local_trunc = 0.0f64;
        if p_s == 1 {
            // Kernel chunks inside the transposition batches, like the G step.
            for lr in &batch_plan.local_ranges[group] {
                for chunk in kernel_chunks(lr.clone(), cfg.kernel_batch) {
                    let idxs: Vec<usize> =
                        (my_e.start + chunk.start..my_e.start + chunk.end).collect();
                    let pr: Vec<_> = p_retarded[chunk.clone()].iter().collect();
                    let pl: Vec<_> = p_lesser[chunk.clone()].iter().collect();
                    let pg: Vec<_> = p_greater[chunk.clone()].iter().collect();
                    let outs = w_step_batch(
                        v,
                        &pr,
                        &pl,
                        &pg,
                        &idxs,
                        cfg,
                        &mut [memoizer.as_mut()],
                        &mut rgf_scratch,
                        flops,
                        timings,
                    )
                    .expect("W RGF solve failed"); // lint:allow(no-unwrap): a singular W system is a fatal numeric error
                    for (k_local, out) in chunk.zip(outs) {
                        energy_seconds[k_local] += out.seconds;
                        local_trunc = local_trunc.max(out.truncation);
                        w_lesser.push(out.lesser);
                        w_greater.push(out.greater);
                    }
                }
            }
        } else {
            let mut systems = Vec::with_capacity(n_state);
            for (k_local, k) in my_e.clone().enumerate().take(n_state) {
                let (asm, secs) = quatrex_probe::span_timed("w.assembly", "w.assembly", || {
                    assemble_w(
                        v,
                        &p_retarded[k_local],
                        &p_lesser[k_local],
                        &p_greater[k_local],
                        k,
                        cfg.obc_method_w,
                        memoizer.as_mut(),
                        flops,
                    )
                });
                timings.add_seconds(&timings.w_assembly_ns, secs);
                energy_seconds[k_local] += secs;
                local_trunc = local_trunc.max(asm.truncation_error);
                systems.push((asm.system, asm.rhs_lesser, asm.rhs_greater));
            }
            let (sols, traffic) = spatial_phase_solve(
                ctx,
                &grid,
                parts,
                &separators,
                n_local,
                systems,
                nb,
                bs,
                flops,
                FlopKind::WRgf,
                timings,
                &timings.w_rgf_ns,
            );
            traffic_w.merge(&traffic);
            for sol in sols {
                let mut lessers = sol.lesser.into_iter();
                let mut wl = lessers.next().expect("lesser solved"); // lint:allow(no-unwrap): rgf_solve returns one grid per requested RHS
                let mut wg = lessers.next().expect("greater solved"); // lint:allow(no-unwrap): rgf_solve returns one grid per requested RHS
                if cfg.enforce_symmetry {
                    wl.symmetrize_negf();
                    wg.symmetrize_negf();
                }
                w_lesser.push(wl);
                w_greater.push(wg);
            }
        }
        // Global truncation maximum (tiny ordered gather).
        let truncs =
            ctx.allgather_tagged(vec![c64::new(local_trunc, 0.0)], wire, CommPhase::Gathers);
        let iter_trunc = truncs.iter().flatten().fold(0.0f64, |m, t| m.max(t.re));
        max_truncation = max_truncation.max(iter_trunc);

        // ------------- transposition #3 + Σ step (pipelined over B batches)
        // Σ is linear in W, so each arriving W batch contributes
        // `conv(Δw, g)` against the complete G slab (held since #1) while the
        // next batch flies (see `self_energy_series_accumulate`).
        let mut s_acc = is_leader.then(|| ConvAccumulators::zeroed(n_elems, ne));
        let w_slab = forward_pipeline(
            ctx,
            &grid,
            plan_local,
            &batch_plan,
            group,
            is_leader,
            &[&w_lesser, &w_greater],
            2,
            CommPhase::FwdW,
            &mut transposition_bytes,
            &mut pipe,
            |w_slab, batch, _arrived_before| {
                let g_slab = g_slab.as_ref().expect("leader holds the G slab"); // lint:allow(no-unwrap): this closure runs on the leader rank only
                let acc = s_acc.as_mut().expect("leader accumulators"); // lint:allow(no-unwrap): this closure runs on the leader rank only
                race::access_shared(
                    SharedId::new("dist.conv_accum", group as u64),
                    AccessKind::Write,
                );
                quatrex_probe::span("scba.sigma.accumulate", "conv.sigma", || {
                    let t = Instant::now();
                    for e_local in 0..n_elems {
                        let id = plan_local.elements[elems.start + e_local];
                        // Σ_ij(E) needs G^≶_ij and W^≶_ij of the same element.
                        self_energy_series_accumulate(
                            &mut acc.lesser_c[e_local],
                            &mut acc.greater_c[e_local],
                            &g_slab.canonical[0][e_local],
                            &g_slab.canonical[1][e_local],
                            &w_slab.canonical[0][e_local],
                            &w_slab.canonical[1][e_local],
                            batch,
                            de,
                            flops,
                        );
                        if !id.is_self_mirror() {
                            self_energy_series_accumulate(
                                &mut acc.lesser_m[e_local],
                                &mut acc.greater_m[e_local],
                                &g_slab.mirror[0][e_local],
                                &g_slab.mirror[1][e_local],
                                &w_slab.mirror[0][e_local],
                                &w_slab.mirror[1][e_local],
                                batch,
                                de,
                                flops,
                            );
                        }
                    }
                    timings.add(&timings.convolution_ns, t);
                });
            },
        );
        drop(w_slab);
        let s_phase = s_acc.map(|acc| {
            quatrex_probe::span("scba.sigma.finish", "conv.sigma", || {
                let t = Instant::now();
                let phase = acc.finish(plan_local, group, cfg.enforce_symmetry, flops);
                timings.add(&timings.convolution_ns, t);
                phase
            })
        });

        // ------------------------------------ transposition #4: Σ backward
        let s_comps = s_phase.as_ref().map(|s| s.back_components());
        let mut s_out = backward_pipeline(
            ctx,
            &grid,
            plan_local,
            &batch_plan,
            group,
            is_leader,
            s_comps.as_ref().map(|c| c.as_slice()),
            &[true, true, false],
            CommPhase::BwdSigma,
            &mut transposition_bytes,
            &mut pipe,
        );
        let (s_lesser_new, s_greater_new, s_retarded_new) = if is_leader {
            let s_retarded_new = s_out.pop().expect("Σ^R"); // lint:allow(no-unwrap): the Sigma convolution pushes exactly three grids
            let s_greater_new = s_out.pop().expect("Σ^>"); // lint:allow(no-unwrap): the Sigma convolution pushes exactly three grids
            let s_lesser_new = s_out.pop().expect("Σ^<"); // lint:allow(no-unwrap): the Sigma convolution pushes exactly three grids
            (s_lesser_new, s_greater_new, s_retarded_new)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        full_iterations += 1;
        // Cumulative memoizer snapshot: consecutive differences give the
        // per-iteration hit rates reported by `DistReport`.
        memo_per_iteration.push(match &memoizer {
            Some(m) => {
                let s = m.stats();
                (s.hits(), s.total())
            }
            None => (0, 0),
        });

        // ------------------------------------------- mixing and convergence
        let (partial_update, partial_reference) = quatrex_probe::span("scba.mix", "mix", || {
            let t = Instant::now();
            let mut partial_update = 0.0f64;
            let mut partial_reference = 0.0f64;
            for k_local in 0..n_state {
                let (upd, refr) = mix_sigma_energy(
                    &mut sigma_l[k_local],
                    &mut sigma_g[k_local],
                    &mut sigma_r[k_local],
                    &s_lesser_new[k_local],
                    &s_greater_new[k_local],
                    &s_retarded_new[k_local],
                    cfg.mixing,
                );
                partial_update += upd;
                partial_reference += refr;
            }
            timings.add(&timings.other_ns, t);
            (partial_update, partial_reference)
        });
        let update_norm = ctx.allreduce_sum(partial_update);
        let reference_norm = ctx.allreduce_sum(partial_reference);
        let residual = if reference_norm > 0.0 {
            (update_norm / reference_norm).sqrt()
        } else {
            0.0
        };
        residual_history.push(residual);
        if residual < cfg.tolerance {
            converged = true;
            break;
        }

        // -------------------------------------- measured energy rebalancing
        if let (true, Some(plan_mut)) = (_iter + 1 < cfg.max_iterations, plan_rebalanced.as_mut()) {
            let moved = quatrex_probe::span("scba.rebalance", "rebalance", || {
                rebalance_energy_partition(
                    ctx,
                    &grid,
                    plan_mut,
                    &my_e,
                    &energy_seconds,
                    ne,
                    nb,
                    bs,
                    is_leader,
                    &mut sigma_l,
                    &mut sigma_g,
                    &mut sigma_r,
                    memoizer.as_mut(),
                    &mut rebalance_bytes,
                )
            });
            if moved {
                energy_rebalances += 1;
            }
        }
    }

    // ------------------------------------------------- final ordered gathers
    // Pack, per owned energy: current spectrum, per-block DOS, per-block
    // G^< diagonal traces — gathered in rank order (= ascending energy, as
    // group leaders appear in group order), so every rank can evaluate the
    // observables with the sequential summation order exactly.
    let mut packed = Vec::with_capacity(n_state * (1 + 2 * nb));
    for k_local in 0..local_spectrum.len() {
        packed.push(c64::new(local_spectrum[k_local], 0.0));
        for &d in &local_dos[k_local] {
            packed.push(c64::new(d, 0.0));
        }
        packed.extend_from_slice(&local_traces[k_local]);
    }
    let gathered = ctx.allgather_tagged(packed, wire, CommPhase::Gathers);

    let mut current_spectrum = Vec::with_capacity(ne);
    let mut dos_local: Vec<Vec<f64>> = Vec::with_capacity(ne);
    let mut density = vec![0.0f64; nb];
    for msg in &gathered {
        let per_energy = 1 + 2 * nb;
        assert_eq!(msg.len() % per_energy, 0, "spectral gather shape");
        for chunk in msg.chunks_exact(per_energy) {
            current_spectrum.push(chunk[0].re);
            dos_local.push(chunk[1..1 + nb].iter().map(|v| v.re).collect());
            // Same accumulation as `observables::electron_density`.
            for (i, d) in density.iter_mut().enumerate() {
                let tr = chunk[1 + nb + i];
                *d += (c64::new(0.0, -1.0) * tr).re * de / (2.0 * std::f64::consts::PI);
            }
        }
    }
    assert!(
        iterations == 0 || current_spectrum.len() == ne,
        "spectral gather covers the grid",
    );
    let exact_current = integrate_current(&current_spectrum, de);
    if let Some(last) = current_history.last_mut() {
        *last = exact_current;
    }

    let (memo_hits, memo_total) = match &memoizer {
        Some(m) => {
            let s = m.stats();
            (s.memoized_calls, s.memoized_calls + s.direct_calls)
        }
        None => (0, 0),
    };

    // State capture: drain this leader's final Σ matrices and memoizer
    // entries, keyed by global energy index so the solver can reassemble the
    // full-grid state regardless of how rebalancing moved ownership.
    let mut final_sigma = Vec::new();
    let mut final_obc = Vec::new();
    if capture && is_leader {
        let final_e = plan_rebalanced.as_ref().unwrap_or(plan).energy_ranges[group].clone();
        let sl = std::mem::take(&mut sigma_l);
        let sg = std::mem::take(&mut sigma_g);
        let sr = std::mem::take(&mut sigma_r);
        debug_assert_eq!(sl.len(), final_e.len(), "Σ state matches final ownership");
        for (((k, l), g), r) in final_e.clone().zip(sl).zip(sg).zip(sr) {
            final_sigma.push((k, l, g, r));
        }
        if let Some(m) = memoizer.as_mut() {
            for k in final_e {
                final_obc.extend(m.extract_energy(k));
            }
        }
    }

    RankOut {
        iterations,
        converged,
        residual_history,
        current_history,
        observables: Observables {
            electron_density: density,
            current: exact_current,
            spectral: SpectralData {
                energies: energies.to_vec(),
                dos: dos_local.iter().map(|v| v.iter().sum::<f64>()).collect(),
                dos_local,
                current_spectrum,
            },
        },
        full_iterations,
        max_truncation,
        transposition_bytes,
        traffic_g,
        traffic_w,
        memo_hits,
        memo_total,
        energy_rebalances,
        rebalance_bytes,
        peak_slab_bytes: pipe.peak_bytes,
        overlap_seconds: pipe.overlap_seconds,
        memo_per_iteration,
        trace: quatrex_probe::finish(),
        final_sigma,
        final_obc,
    }
}

/// Copy the accumulated timings out of the shared atomics.
fn copy_timings(shared: &KernelTimings) -> KernelTimings {
    use std::sync::atomic::{AtomicU64, Ordering};
    let copy = KernelTimings::default();
    let pairs = [
        (&copy.g_assembly_ns, &shared.g_assembly_ns),
        (&copy.g_rgf_ns, &shared.g_rgf_ns),
        (&copy.w_assembly_ns, &shared.w_assembly_ns),
        (&copy.w_rgf_ns, &shared.w_rgf_ns),
        (&copy.convolution_ns, &shared.convolution_ns),
        (&copy.other_ns, &shared.other_ns),
    ];
    for (dst, src) in pairs {
        let dst: &AtomicU64 = dst;
        dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    copy
}

/// Recompute the energy partition from measured per-energy wall seconds and
/// migrate the per-energy self-energy state between group leaders when the
/// split moves (the ROADMAP "energy-cost weights from measurement" item: the
/// memoizer's direct-vs-refine asymmetry makes per-energy costs uneven, and
/// iteration `n`'s measurements rebalance iteration `n+1`). Every rank joins
/// the collectives and applies the same deterministic update to its plan
/// copy. Returns true when the ownership actually changed.
#[allow(clippy::too_many_arguments)]
fn rebalance_energy_partition(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    plan_local: &mut TranspositionPlan,
    my_e: &std::ops::Range<usize>,
    energy_seconds: &[f64],
    ne: usize,
    nb: usize,
    bs: usize,
    is_leader: bool,
    sigma_l: &mut Vec<BlockTridiagonal>,
    sigma_g: &mut Vec<BlockTridiagonal>,
    sigma_r: &mut Vec<BlockTridiagonal>,
    mut memoizer: Option<&mut ObcMemoizer>,
    rebalance_bytes: &mut u64,
) -> bool {
    let rank = ctx.rank();
    let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;

    // Every leader contributes (energy index, measured seconds) pairs; the
    // gather gives all ranks the identical full weight vector.
    let mut packed: Vec<c64> = Vec::with_capacity(energy_seconds.len());
    for (k_local, k) in my_e.clone().enumerate().take(energy_seconds.len()) {
        packed.push(c64::new(k as f64, energy_seconds[k_local]));
    }
    let gathered = ctx.allgather_tagged(packed, wire, CommPhase::Rebalance);
    let mut weights = vec![0.0f64; ne];
    for msg in &gathered {
        for v in msg {
            weights[v.re as usize] = v.im.max(f64::MIN_POSITIVE);
        }
    }
    let new_ranges = partition_weighted(&weights, grid.n_groups);
    if new_ranges == plan_local.energy_ranges {
        // Still run the (empty) migration collective so every rank executes
        // the same collective sequence regardless of local state.
        let send: Vec<Vec<c64>> = vec![Vec::new(); ctx.n_ranks()];
        let _ = ctx.alltoallv_tagged(send, wire, CommPhase::Rebalance);
        return false;
    }

    // Migrate departing energies to their new owner's group leader.
    let group = grid.group_of(rank);
    let old_ranges = plan_local.energy_ranges.clone();
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); ctx.n_ranks()];
    if is_leader {
        for (k_local, k) in my_e.clone().enumerate() {
            let new_group = new_ranges
                .iter()
                .position(|r| r.contains(&k))
                .expect("every energy stays owned"); // lint:allow(no-unwrap): the ownership ranges partition the energy grid
            if new_group != group {
                let dst = grid.leader_of(new_group);
                // Old owner relinquishes energy k's σ state (matrices +
                // memoizer cache): the migration alltoallv's channel edge
                // must order this against the new owner's adoption below.
                race::access_shared(
                    SharedId::new("dist.sigma_state", k as u64),
                    AccessKind::Write,
                );
                push_bt(&mut send[dst], &sigma_l[k_local]);
                push_bt(&mut send[dst], &sigma_g[k_local]);
                push_bt(&mut send[dst], &sigma_r[k_local]);
                // The OBC memoizer cache of this energy travels too: without
                // it the new owner would fall back to direct solves and the
                // refinement trajectory (and hence the observables at the
                // memoizer tolerance) would drift.
                let entries = match memoizer.as_deref_mut() {
                    Some(m) => m.extract_energy(k),
                    None => Vec::new(),
                };
                send[dst].push(c64::new(entries.len() as f64, 0.0));
                for (key, block) in entries {
                    send[dst].push(encode_obc_key(&key));
                    push_matrix(&mut send[dst], &block);
                }
            }
        }
    }
    *rebalance_bytes += off_rank_payload_bytes(rank, &send);
    let received = ctx.alltoallv_tagged(send, wire, CommPhase::Rebalance);

    if is_leader {
        let new_my = new_ranges[group].clone();
        let mut old_l: Vec<Option<BlockTridiagonal>> =
            std::mem::take(sigma_l).into_iter().map(Some).collect();
        let mut old_g: Vec<Option<BlockTridiagonal>> =
            std::mem::take(sigma_g).into_iter().map(Some).collect();
        let mut old_r: Vec<Option<BlockTridiagonal>> =
            std::mem::take(sigma_r).into_iter().map(Some).collect();
        // One read cursor (iterator) per source leader, shared by every
        // migrated energy; the wire codec is the same push/read helpers the
        // PartitionSlice messages use.
        let mut readers: Vec<std::slice::Iter<'_, c64>> =
            received.iter().map(|m| m.iter()).collect();
        for k in new_my {
            if my_e.contains(&k) {
                let k_local = k - my_e.start;
                sigma_l.push(old_l[k_local].take().expect("kept energy")); // lint:allow(no-unwrap): every kept energy was stored by the previous loop
                sigma_g.push(old_g[k_local].take().expect("kept energy")); // lint:allow(no-unwrap): every kept energy was stored by the previous loop
                sigma_r.push(old_r[k_local].take().expect("kept energy")); // lint:allow(no-unwrap): every kept energy was stored by the previous loop
            } else {
                let src_group = old_ranges
                    .iter()
                    .position(|r| r.contains(&k))
                    .expect("every energy was owned"); // lint:allow(no-unwrap): the previous ownership ranges also partition the grid
                let src = grid.leader_of(src_group);
                let it = &mut readers[src];
                // New owner adopts energy k's migrated σ state.
                race::access_shared(
                    SharedId::new("dist.sigma_state", k as u64),
                    AccessKind::Write,
                );
                sigma_l.push(read_bt(it, nb, bs));
                sigma_g.push(read_bt(it, nb, bs));
                sigma_r.push(read_bt(it, nb, bs));
                let n_entries = it.next().expect("rebalance message").re as usize; // lint:allow(no-unwrap): encoder fixes the rebalance message length
                for _ in 0..n_entries {
                    let key = decode_obc_key(*it.next().expect("rebalance message"), k); // lint:allow(no-unwrap): encoder fixes the rebalance message length
                    let block = read_matrix(it, bs);
                    if let Some(m) = memoizer.as_deref_mut() {
                        m.insert_cached(key, block);
                    }
                }
            }
        }
        for (src, mut it) in readers.into_iter().enumerate() {
            assert!(
                it.next().is_none(),
                "rebalance message from {src} fully consumed"
            );
        }
    }
    plan_local.energy_ranges = new_ranges;
    true
}

/// Encode an [`ObcKey`] (minus the energy index, which is implied by the
/// message position) into one wire value. The warm-state stream
/// ([`crate::WarmState`]) reuses this code and carries the energy index in
/// the imaginary part.
pub(crate) fn encode_obc_key(key: &quatrex_obc::ObcKey) -> c64 {
    use quatrex_obc::{Contact, Subsystem};
    let contact = match key.contact {
        Contact::Left => 0u8,
        Contact::Right => 1,
    };
    let subsystem = match key.subsystem {
        Subsystem::Electron => 0u8,
        Subsystem::ScreenedCoulomb => 1,
    };
    c64::new(
        (contact as f64) + 2.0 * (subsystem as f64) + 4.0 * (key.component as f64),
        0.0,
    )
}

/// Inverse of [`encode_obc_key`] for the given energy index.
pub(crate) fn decode_obc_key(v: c64, energy_index: usize) -> quatrex_obc::ObcKey {
    use quatrex_obc::{Contact, Subsystem};
    let code = v.re as u64;
    quatrex_obc::ObcKey {
        contact: if code & 1 == 0 {
            Contact::Left
        } else {
            Contact::Right
        },
        subsystem: if (code >> 1) & 1 == 0 {
            Subsystem::Electron
        } else {
            Subsystem::ScreenedCoulomb
        },
        component: (code >> 2) as u8,
        energy_index,
    }
}
