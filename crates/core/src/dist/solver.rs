//! The distributed SCBA driver.
//!
//! [`DistScbaSolver`] executes the `G → P → W → Σ` cycle across the ranks
//! of a [`quatrex_runtime::ThreadComm`] communicator following the paper's
//! two-level decomposition ([`crate::ScbaSolver::run`] is its one-group
//! case). The flat ranks form a
//! `n_energy_groups × P_S` grid ([`crate::dist::spatial::RankGrid`]):
//!
//! 1. every **rank** owns a contiguous slice of energy points (an
//!    equal-count split over the flat ranks, fixed for the run; a group's
//!    energies are the union of its members' slices) and assembles their
//!    systems (OBC against a **per-rank
//!    [`quatrex_obc::ObcMemoizer`]**); its group solves them
//!    (`crate::dist::spatial::spatial_phase_solve`: the local energy-batched RGF
//!    solve in a one-member group; with `P_S > 1` concurrent interior
//!    eliminations of the group's energies on every member, the reduced
//!    boundary system of each energy assembled and solved on that energy's
//!    owner, and concurrent recoveries), and the rank finishes its energies;
//! 2. the selected `G^≶` blocks are transposed into element-major layout with
//!    a real `Alltoallv` among all ranks (Fig. 3), every rank computes the
//!    `P` convolutions for its canonical elements *and their mirrors*,
//!    symmetrises them element-wise, and transposes `P^≶`/`P^R` back;
//! 3. the `W` systems are assembled and solved per owned energy (again
//!    spatially decomposed when `P_S > 1`), `W^≶` is transposed forward
//!    again, the `Σ` convolutions run on the element slices, and
//!    `Σ^≶`/`Σ^R` are transposed back to their energy owners;
//! 4. the self-energies of the owned energies advance by the update rule of
//!    `crate::mixing`; its per-energy rows — convergence norms, Gram
//!    sums, current spectrum — are gathered in rank order in between.
//!
//! No rank of a group is distinguished: ownership of energies and elements
//! is the only thing that decides who assembles, convolves and mixes what.
//!
//! This module holds the driver's outside: configuration checks, the
//! read-only problem data every rank borrows, each rank's mixer and buffers
//! (built here and moved into the rank by [`ThreadComm::run_each`], with the
//! borrowed warm state the rank seeds its Σ and memoizer from), and the
//! merge of the per-rank results — the ranks hand their Σ and memoizer
//! back — into one [`DistScbaResult`] and its captured state. The per-rank loop itself is
//! `rank.rs`, its exchange pipeline `pipeline.rs`.
//!
//! Every per-energy and per-element kernel is a public function of this
//! crate (the assemble and finish stages of `g_step_batch`/`w_step_batch`
//! around a solve of `kernel_chunks`, the lane-group kernels
//! `polarization_group_accumulate` and `self_energy_group_accumulate` —
//! whose whole-grid call *is* `polarization_from_g` / `self_energy_from_gw`
//! —, `causal_retarded_group`, the three pieces of `SigmaMixer`; one element
//! pair is a group of one lane), and every sum over the grid is taken in
//! ascending energy order on every rank. So at `P_S = 1` the state
//! trajectory, residuals and per-iteration currents are the same bits at any
//! rank count, and equal to a single-threaded loop over those public
//! functions. With `P_S > 1` the nested-dissection solver introduces an
//! additional `≤1e-12`-relative reordering per solve. The equivalence tests
//! pin the observables at `≤ 1e-10` relative either way.

use std::sync::atomic::Ordering;

use quatrex_device::{thermal_energy_ev, Device, EnergyGrid};
use quatrex_linalg::c64;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_probe::clock::Instant;
use quatrex_probe::{RankTrace, Timeline};
use quatrex_runtime::{CommStats, RankContext, ThreadComm};

use crate::dist::config::{DistScbaConfig, DistScbaResult};
use crate::dist::pipeline::TRANSPOSITIONS;
use crate::dist::rank::{rank_main, Problem, RankCounters, RankOut, RankOwned};
use crate::dist::report::{bytes_per_second, DistReport};
use crate::dist::slab::{TranspositionBatchPlan, TranspositionPlan};
use crate::dist::spatial::SpatialLayout;
use crate::dist::warm::WarmState;

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

    /// Check the configuration against the device once, for every entry
    /// point: the ranks factor into `groups × P_S`, every transposition has
    /// at least one batch, every spatial partition gets its two blocks, and
    /// the wire format's mirror reconstruction has symmetrised data to rely
    /// on.
    fn validate(&self) {
        let (n_ranks, p_s) = (self.config.n_ranks, self.config.spatial_partitions);
        assert!(n_ranks >= 1, "at least one rank");
        assert!(
            p_s >= 1 && n_ranks.is_multiple_of(p_s),
            "n_ranks = {n_ranks} must factor into energy groups x P_S = {p_s}",
        );
        assert!(
            self.config.energy_batches >= 1,
            "energy_batches must be at least 1",
        );
        assert!(
            p_s == 1 || self.device.n_blocks >= 2 * p_s,
            "P_S = {p_s} needs at least {} transport blocks (device has {})",
            2 * p_s,
            self.device.n_blocks,
        );
        assert!(
            self.config.scba.enforce_symmetry,
            "the distributed solver requires enforce_symmetry: its transpositions \
             ship canonical elements only and rebuild the mirrors from X_ji = -X*_ij",
        );
    }

    /// The transposition plan of the run. Energy and element slices are per
    /// flat rank, whatever `P_S` — equal-count contiguous splits, a pure
    /// function of the problem shape and the rank count.
    pub fn plan(&self) -> TranspositionPlan {
        self.validate();
        TranspositionPlan::new(
            self.device.n_blocks,
            self.device.transport_cell_size(),
            self.grid.len(),
            self.config.n_ranks,
        )
    }

    /// Run a single ballistic iteration across the ranks.
    pub fn ballistic(&self) -> DistScbaResult {
        let mut config = self.config.clone();
        config.scba.max_iterations = 1;
        DistScbaSolver::with_grid(self.device.clone(), config, self.grid.clone()).run()
    }

    /// Run the distributed SCBA loop until convergence or the iteration limit.
    pub fn run(&self) -> DistScbaResult {
        self.run_warm(None)
    }

    /// Run the distributed SCBA loop seeded from a previously captured
    /// [`WarmState`] instead of `Σ = 0`. Every rank adopts the state's Σ
    /// matrices for its owned energies and pre-fills its OBC memoizer
    /// caches via [`quatrex_obc::ObcMemoizer::insert_cached`]. With
    /// `initial = None` this *is* [`DistScbaSolver::run`]: a cold start.
    ///
    /// Panics when the state's grid shape (`N_E`, `N_B`, block size)
    /// disagrees with the solver's device and energy grid — a warm state is
    /// only meaningful across solves of the same discretisation.
    pub fn run_warm(&self, initial: Option<&WarmState>) -> DistScbaResult {
        let plan = self.plan();
        let cfg = &self.config.scba;
        let h = self.device.hamiltonian_bt();
        let mut v = self.device.coulomb_bt();
        if cfg.interaction_scale != 1.0 {
            v.scale_mut(c64::new(cfg.interaction_scale, 0.0));
        }
        let (ne, nb, bs) = (self.grid.len(), h.n_blocks(), h.block_size());
        if let Some(w) = initial {
            assert!(
                w.n_energies == ne && w.n_blocks == nb && w.block_size == bs,
                "warm state shape ({} energies, {} blocks of {}) disagrees with the run \
                 ({ne} energies, {nb} blocks of {bs})",
                w.n_energies,
                w.n_blocks,
                w.block_size,
            );
        }
        let n_ranks = self.config.n_ranks;
        let problem = Problem {
            layout: SpatialLayout::new(n_ranks, self.config.spatial_partitions, nb, bs),
            kt: thermal_energy_ev(cfg.temperature_k),
            config: self.config.clone(),
            h,
            v,
            batches: TranspositionBatchPlan::new(&plan, self.config.energy_batches),
            plan,
            energies: self.grid.points(),
            de: self.grid.spacing(),
            // One shared clock zero for every rank's probe recorder, taken
            // before the threads spawn so the merged tracks align.
            epoch: Instant::now(),
            flops: FlopCounter::new(),
        };
        let owned = (0..n_ranks)
            .map(|rank| RankOwned::new(&problem, rank, initial))
            .collect();
        let launch = Instant::now();
        let (mut outs, stats) = ThreadComm::run_each(owned, |ctx: RankContext<Vec<c64>>, own| {
            rank_main(&ctx, &problem, own)
        });
        let wall_seconds = launch.elapsed().as_secs_f64();

        let mut counters = RankCounters::default();
        for out in &outs {
            counters.merge(&out.log.counters);
        }
        // Merge the per-rank probe buffers into one timeline.
        let traces: Vec<RankTrace> = outs.iter_mut().filter_map(|r| r.trace.take()).collect();
        let timeline = Timeline::merge(traces);
        let final_state = self
            .config
            .capture_state
            .then(|| assemble_final_state(&mut outs, &problem));
        let report = self.build_report(&problem, &stats, &counters, &outs, &timeline, wall_seconds);
        let flops = FlopCounter::new();
        flops.merge(&problem.flops);
        // The loop outcome is identical on every rank; report rank 0's.
        let rank0 = outs.swap_remove(0);
        DistScbaResult {
            iterations: rank0.log.iterations,
            converged: rank0.log.converged,
            residual_history: rank0.log.residual_history,
            contraction_history: rank0.log.contraction_history,
            current_history: rank0.log.current_history,
            observables: rank0.observables,
            flops,
            memoizer_hit_rate: if counters.memo_total > 0 {
                counters.memo_hits as f64 / counters.memo_total as f64
            } else {
                0.0
            },
            max_truncation_error: rank0.log.max_truncation,
            mixing_restarts: rank0.log.mixing_restarts,
            report,
            timeline,
            final_state,
        }
    }

    /// Join the communicator's byte statistics, the merged rank counters and
    /// the probe-derived phase metrics into the run's [`DistReport`].
    fn build_report(
        &self,
        problem: &Problem,
        stats: &CommStats,
        counters: &RankCounters,
        outs: &[RankOut],
        timeline: &Timeline,
        wall_seconds: f64,
    ) -> DistReport {
        let (plan, grid) = (&problem.plan, &problem.layout.grid);
        let rank0 = &outs[0].log;
        let phase_seconds = timeline.phase_seconds(wall_seconds);
        // The k-th posted exchange pairs with the k-th wait on each rank
        // (FIFO wait order); restrict the pairs to the four energy↔element
        // transpositions and ask how much of their in-flight time ran under
        // the convolution kernels.
        let transposition_posts = TRANSPOSITIONS.each_ref().map(|t| t.phase.post_name());
        let overlap_efficiency = timeline.overlap_efficiency(
            |name| transposition_posts.contains(&name),
            |cat| cat.starts_with("conv."),
        );

        // Per-iteration memoizer hit rate: the per-rank snapshots are
        // cumulative, so consecutive differences give each iteration's solves.
        let mut memo_rate_per_iteration = Vec::new();
        let mut prev = (0usize, 0usize);
        for i in 0..rank0.memo_per_iteration.len() {
            let (hits, total) = outs
                .iter()
                .filter_map(|r| r.log.memo_per_iteration.get(i))
                .fold((0, 0), |acc, &(h, t)| (acc.0 + h, acc.1 + t));
            let (dh, dt) = (hits - prev.0, total - prev.1);
            memo_rate_per_iteration.push(if dt > 0 { dh as f64 / dt as f64 } else { 0.0 });
            prev = (hits, total);
        }
        if counters.memo_total == 0 {
            memo_rate_per_iteration.clear();
        }

        DistReport {
            n_ranks: plan.n_ranks,
            energy_groups: grid.n_groups,
            spatial_partitions: grid.spatial_partitions,
            balanced_partitions: problem.layout.balanced(),
            full_iterations: rank0.full_iterations,
            mixing_restarts: rank0.mixing_restarts,
            wall_seconds,
            seconds_per_iteration: wall_seconds / rank0.iterations.max(1) as f64,
            measured_transposition_bytes: TRANSPOSITIONS
                .iter()
                .map(|t| stats.phase_bytes(t.phase))
                .sum(),
            measured_alltoall_bytes: stats.alltoall_bytes.load(Ordering::Relaxed),
            measured_max_bytes_per_rank: stats.max_alltoall_bytes_per_rank(),
            batch_count: self.config.energy_batches,
            peak_slab_bytes: counters.peak_slab_bytes,
            n_collectives: stats.n_collectives.load(Ordering::Relaxed),
            alltoall_bytes_per_phase: stats.phase_breakdown(),
            phase_flop_rates: phase_flop_rates(timeline, &problem.flops),
            pack_bytes_per_second: bytes_per_second(
                counters.pack_bytes,
                &phase_seconds,
                "transposition.pack",
            ),
            unpack_bytes_per_second: bytes_per_second(
                counters.unpack_bytes,
                &phase_seconds,
                "transposition.unpack",
            ),
            phase_seconds,
            overlap_efficiency,
            time_imbalance: timeline.imbalance_factor(|cat| !cat.starts_with("comm.")),
            memoizer_hit_rate_per_iteration: memo_rate_per_iteration,
        }
    }
}

/// Assemble the ranks' final Σ and the OBC memoizer entries of their owned
/// energies into one state over the full grid: the owned energy ranges
/// ascend with the rank, so the fragments concatenate in rank order.
fn assemble_final_state(outs: &mut [RankOut], problem: &Problem) -> WarmState {
    let ne = problem.energies.len();
    let mut state = WarmState {
        n_energies: ne,
        n_blocks: problem.h.n_blocks(),
        block_size: problem.h.block_size(),
        sigma_lesser: Vec::with_capacity(ne),
        sigma_greater: Vec::with_capacity(ne),
        sigma_retarded: Vec::with_capacity(ne),
        obc: Vec::new(),
    };
    for (out, owned) in outs.iter_mut().zip(&problem.plan.energy_ranges) {
        if let Some(m) = out.memoizer.as_mut() {
            state
                .obc
                .extend(owned.clone().flat_map(|k| m.extract_energy(k)));
        }
    }
    for s in outs.iter_mut().flat_map(|r| r.sigma.drain(..)) {
        state.sigma_lesser.push(s.lesser);
        state.sigma_greater.push(s.greater);
        state.sigma_retarded.push(s.retarded);
    }
    assert_eq!(
        state.sigma_lesser.len(),
        ne,
        "state capture covers the energy grid"
    );
    state.obc.sort_by_key(|(key, _)| *key);
    state
}

/// Join the probe's timeline with the [`FlopCounter`] accounting into
/// measured FLOP/s per phase: a phase's FLOPs over the rank-seconds spent
/// inside its spans — its exclusive seconds plus those of the kernel spans
/// nested in it (`gemm_batch`, `gemm_lanes`, `obc.direct`), which are where
/// its FLOPs run. Only phases with nonzero seconds *and* nonzero FLOPs
/// appear. At `P_S = 1` each subsystem's RGF work
/// is one category (`g.rgf` / `w.rgf`, the spans of the shared step
/// functions, at any `kernel_batch`); the cooperative spatial solves
/// (`P_S > 1`) report one combined `spatial.rgf` rate (the partition
/// eliminations/recoveries and the reduced systems serve both subsystems and
/// cannot be split by category).
fn phase_flop_rates(timeline: &Timeline, flops: &FlopCounter) -> Vec<(String, f64)> {
    let secs = |cats: &[&str]| -> f64 {
        let inside = timeline.busy_seconds_per_rank(|c| cats.contains(&c));
        inside.iter().sum()
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
    let w_assembly = flops.get(FlopKind::WObc)
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
