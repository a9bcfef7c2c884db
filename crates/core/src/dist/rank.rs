//! One rank's side of the distributed SCBA loop.
//!
//! [`rank_main`] is the closure body every rank of the communicator runs: it
//! builds a [`RankState`] over the run's shared [`Problem`] and drives the
//! five-step cycle — `G`, `P`, `W`, `Σ`, mix — one method per step. The mix
//! is the update rule of `crate::mixing` in its three pieces, the rows
//! of the owned energies gathered in rank order in between.
//! The `G` and `W` steps speak the stage vocabulary of `crate::scba`:
//! *assemble one energy* (core), *solve the assembled systems* (the group
//! solve, [`spatial_phase_solve`] — local at `P_S = 1`, cooperative
//! otherwise), *finish one energy* (core). Every rank runs every step on the
//! energies and elements it owns under the plan — a constant of the run — and
//! there is no distinguished rank in a group. The `P` and `Σ` steps run the
//! element-major convolutions behind the transposition pipeline
//! ([`crate::dist::pipeline`]): the two closures in [`RankState::p_step`] and
//! [`RankState::sigma_step`] are the loop's only calls into the
//! convolution kernels — the same two
//! `crate::convolution::*_group_accumulate` lane-group kernels
//! `polarization_from_g` and `self_energy_from_gw` call with the whole grid
//! as one batch.

use std::ops::Range;

use crate::convolution::{
    is_grid_batch, polarization_group_accumulate, self_energy_group_accumulate,
};
use crate::element_major::{GroupInfo, GroupRowsMut};
use crate::mixing::{MixRow, SigmaMixer, ROW_LEN};
use crate::observables::{integrate_current, Observables, SpectralData};
use crate::scba::{
    g_step_assemble, g_step_finish, kernel_chunks, w_step_assemble_chunk, w_step_finish, ScbaConfig,
};
use parking_lot::Mutex;
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, CMatrix};
use quatrex_obc::{ObcKey, ObcMemoizer, Subsystem};
use quatrex_probe::clock::Instant;
use quatrex_probe::RankTrace;
use quatrex_rgf::{RgfBatchScratch, SelectedSolution};
use quatrex_runtime::{CommPhase, RankContext};
use quatrex_sparse::BlockTridiagonal;

use crate::dist::config::DistScbaConfig;
use crate::dist::pipeline::{ConvSeries, Transposition, TRANSPOSITIONS};
use crate::dist::slab::{ElementSlab, TranspositionBatchPlan, TranspositionPlan, BYTES_PER_VALUE};
use crate::dist::spatial::{spatial_phase_solve, SpatialLayout};
use crate::dist::warm::WarmState;

/// Everything the ranks of one run share, read-only (the FLOP accumulator is
/// atomic).
pub(crate) struct Problem {
    /// The run's configuration (`config.scba` is the physics).
    pub config: DistScbaConfig,
    /// Hamiltonian in the transport-cell tiling.
    pub h: BlockTridiagonal,
    /// Coulomb matrix, already scaled by `interaction_scale`.
    pub v: BlockTridiagonal,
    /// Energy/element ownership and wire format.
    pub plan: TranspositionPlan,
    /// Energy-batch schedule of the transpositions under `plan`.
    pub batches: TranspositionBatchPlan,
    /// Rank grid and spatial partition layout.
    pub layout: SpatialLayout,
    /// Energy grid points and spacing.
    pub energies: Vec<f64>,
    pub de: f64,
    /// Thermal energy `k_B·T` in eV.
    pub kt: f64,
    /// Warm-start seed (shape already validated against the grid).
    pub warm: Option<WarmState>,
    /// The update rule of every rank, taken once by its rank. Built by the
    /// launching thread: the history rings are the run's only large
    /// allocations, and taken from the malloc arena of a short-lived rank
    /// thread they stay resident there after the run (measured: +10 MiB peak
    /// RSS over a 9-point sweep on two ranks).
    pub mixers: Vec<Mutex<Option<SigmaMixer>>>,
    /// One shared clock zero for every rank's probe recorder.
    pub epoch: Instant,
    pub flops: FlopCounter,
}

impl Problem {
    /// The physics configuration.
    pub fn cfg(&self) -> &ScbaConfig {
        &self.config.scba
    }
}

/// Scattering self-energies of one owned energy point.
pub(crate) struct SigmaState {
    pub lesser: BlockTridiagonal,
    pub greater: BlockTridiagonal,
    pub retarded: BlockTridiagonal,
}

/// The additive per-rank measurements of a run, merged over ranks into the
/// [`crate::dist::DistReport`].
#[derive(Default)]
pub(crate) struct RankCounters {
    /// OBC memoizer solves answered from cache / in total.
    pub memo_hits: usize,
    pub memo_total: usize,
    /// Peak in-flight transposition buffer bytes.
    pub peak_slab_bytes: u64,
    /// Payload bytes built by the transpositions' pack stage and consumed
    /// by their unpack stage (self-messages included: they are copied too).
    pub pack_bytes: u64,
    pub unpack_bytes: u64,
    /// Current in-flight transposition buffer bytes (zero between exchanges).
    in_flight_bytes: u64,
}

impl RankCounters {
    /// A posted or received batch payload enters the in-flight footprint.
    pub fn track(&mut self, bytes: u64) {
        self.in_flight_bytes += bytes;
        self.peak_slab_bytes = self.peak_slab_bytes.max(self.in_flight_bytes);
    }

    /// A consumed batch leaves the in-flight footprint.
    pub fn release(&mut self, bytes: u64) {
        self.in_flight_bytes -= bytes;
    }

    /// Fold another rank's counters in: everything adds up across ranks
    /// except the buffer peak, where the busiest rank bounds the per-node
    /// memory.
    pub fn merge(&mut self, other: &RankCounters) {
        self.memo_hits += other.memo_hits;
        self.memo_total += other.memo_total;
        self.pack_bytes += other.pack_bytes;
        self.unpack_bytes += other.unpack_bytes;
        self.peak_slab_bytes = self.peak_slab_bytes.max(other.peak_slab_bytes);
    }
}

/// What one rank records about its loop. The outcome fields (iterations …
/// `max_truncation`) come out identical on every rank; the counters and
/// memoizer snapshots are the rank's own.
#[derive(Default)]
pub(crate) struct RankLog {
    pub iterations: usize,
    /// Iterations that ran the P/W/Σ phases.
    pub full_iterations: usize,
    pub converged: bool,
    pub residual_history: Vec<f64>,
    /// The update rule's contraction at every mix that completed a pair.
    pub contraction_history: Vec<f64>,
    pub current_history: Vec<f64>,
    pub max_truncation: f64,
    /// Times the update rule cleared its history.
    pub mixing_restarts: usize,
    pub counters: RankCounters,
    /// Cumulative memoizer (hits, total solves) after each full iteration.
    pub memo_per_iteration: Vec<(usize, usize)>,
}

/// Per-rank return value of the communicator closure.
pub(crate) struct RankOut {
    pub log: RankLog,
    pub observables: Observables,
    pub trace: Option<RankTrace>,
    /// Final Σ state of the owned energies, ascending. Empty unless state
    /// capture is on.
    pub final_sigma: Vec<SigmaState>,
    /// Final OBC memoizer entries of the owned energies. Empty unless state
    /// capture is on.
    pub final_obc: Vec<(ObcKey, CMatrix)>,
}

/// One rank's mutable state across the SCBA loop.
pub(crate) struct RankState<'a> {
    pub(crate) ctx: &'a RankContext<Vec<c64>>,
    pub(crate) p: &'a Problem,
    /// Σ of the owned energies (energy-major).
    pub(crate) sigma: Vec<SigmaState>,
    /// The Σ update rule with the history of the owned energies.
    mixer: SigmaMixer,
    memoizer: Option<ObcMemoizer>,
    /// RGF scratch of the group solve, local or cooperative (there: the
    /// partition interiors of the group's energies and the reduced systems
    /// of the rank's own): the shapes repeat every iteration, so the staged operand
    /// batches and the batch arena stay warm across kernel batches and
    /// iterations.
    rgf_scratch: RgfBatchScratch,
    pub(crate) log: RankLog,
    /// Last G step's spectral data, packed per owned energy for the final
    /// ordered gather: current spectrum, per-block DOS, per-block `G^<`
    /// diagonal traces (only the traces feed the density, so they are
    /// extracted at G-step time instead of keeping the matrices around).
    spectral: Vec<c64>,
}

/// The per-rank SCBA main loop.
pub(crate) fn rank_main(ctx: &RankContext<Vec<c64>>, p: &Problem) -> RankOut {
    let max_iterations = p.cfg().max_iterations;
    if p.config.probe {
        quatrex_probe::install(ctx.rank(), p.epoch);
    }
    let mut rank = RankState::new(ctx, p);
    for _ in 0..max_iterations {
        rank.log.iterations += 1;
        let g = rank.g_step();
        if max_iterations == 1 {
            break;
        }
        let (g_slab, polarization) = rank.p_step(g);
        let w = rank.w_step(polarization);
        let sigma_new = rank.sigma_step(g_slab, w);
        if rank.mix(sigma_new) {
            break;
        }
    }
    rank.finish()
}

impl<'a> RankState<'a> {
    fn new(ctx: &'a RankContext<Vec<c64>>, p: &'a Problem) -> Self {
        let cfg = p.cfg();
        let mut memoizer = cfg.use_memoizer.then(|| ObcMemoizer::new(cfg.n_fpi, 1e-7));
        let owned = p.plan.energy_ranges[ctx.rank()].clone();
        // Cold start at Σ = 0; a warm start adopts the seed state's Σ for the
        // owned energies and pre-fills the OBC memoizer.
        let zero = BlockTridiagonal::zeros(p.h.n_blocks(), p.h.block_size());
        let sigma = owned
            .clone()
            .map(|k| match &p.warm {
                Some(w) => SigmaState {
                    lesser: w.sigma_lesser[k].clone(),
                    greater: w.sigma_greater[k].clone(),
                    retarded: w.sigma_retarded[k].clone(),
                },
                None => SigmaState {
                    lesser: zero.clone(),
                    greater: zero.clone(),
                    retarded: zero.clone(),
                },
            })
            .collect();
        if let (Some(w), Some(m)) = (&p.warm, memoizer.as_mut()) {
            for (key, block) in &w.obc {
                if owned.contains(&key.energy_index) {
                    m.insert_cached(*key, block.clone());
                }
            }
        }
        let mixer = p.mixers[ctx.rank()]
            .lock()
            .take()
            .expect("a rank takes its mixer once"); // lint:allow(no-unwrap): run_warm fills one slot per rank and each rank runs RankState::new once
        Self {
            ctx,
            p,
            sigma,
            mixer,
            memoizer,
            rgf_scratch: RgfBatchScratch::new(),
            log: RankLog::default(),
            spectral: Vec::new(),
        }
    }

    /// Values per owned energy in the packed spectral data: the current
    /// spectrum, then per block the DOS and the `G^<` diagonal trace.
    fn spectral_stride(&self) -> usize {
        1 + 2 * self.p.h.n_blocks()
    }

    /// Global energy range this rank owns.
    fn my_energies(&self) -> Range<usize> {
        self.p.plan.energy_ranges[self.ctx.rank()].clone()
    }

    /// The local energy ranges one group solve covers. A one-member group
    /// solves kernel chunks cut inside the transposition batches — a kernel
    /// batch never straddles a batch boundary, so the data a solve produces
    /// is exactly the data the next pipelined transposition ships. A spatial
    /// group runs one cooperative solve per phase, to which every member
    /// brings all its energies (even none: it still joins the collectives).
    fn solve_chunks(&self) -> Vec<Range<usize>> {
        if self.p.layout.grid.spatial_partitions > 1 {
            let all = 0..self.my_energies().len();
            return vec![all];
        }
        self.p.batches.local_ranges[self.ctx.rank()]
            .iter()
            .flat_map(|lr| kernel_chunks(lr.clone(), self.p.cfg().kernel_batch))
            .collect()
    }

    /// Stage 2 of a step: solve the systems this rank assembled for one chunk
    /// of its energies, together with the rest of its group.
    fn group_solve(
        &mut self,
        subsystem: Subsystem,
        systems: &[[&BlockTridiagonal; 3]],
    ) -> Vec<SelectedSolution> {
        let (p, rank) = (self.p, self.ctx.rank());
        // What each member brings to this solve: this rank the chunk at
        // hand, the others of a spatial group all their energies.
        let brings = |r: usize| {
            if r == rank {
                systems.len()
            } else {
                p.plan.energy_ranges[r].len()
            }
        };
        let grid = &p.layout.grid;
        let member_energies: Vec<usize> =
            grid.members_of(grid.group_of(rank)).map(brings).collect();
        spatial_phase_solve(
            self.ctx,
            &p.layout,
            subsystem,
            systems,
            &member_energies,
            p.cfg().kernel_batch,
            &mut self.rgf_scratch,
            &p.flops,
        )
    }

    /// G step: `G^≶` of the owned energies (`[G^<, G^>]`) and the packed
    /// spectral data.
    fn g_step(&mut self) -> [Vec<BlockTridiagonal>; 2] {
        let (p, cfg) = (self.p, self.p.cfg());
        let nb = p.h.n_blocks();
        let e0 = self.my_energies().start;
        let mut g = [(); 2].map(|()| Vec::with_capacity(self.sigma.len()));
        self.spectral.clear();
        for chunk in self.solve_chunks() {
            let asms: Vec<_> = chunk
                .map(|k_local| {
                    let s = &self.sigma[k_local];
                    g_step_assemble(
                        &p.h,
                        p.energies[e0 + k_local],
                        e0 + k_local,
                        [Some(&s.retarded), Some(&s.lesser), Some(&s.greater)],
                        cfg,
                        p.kt,
                        self.memoizer.as_mut(),
                        &p.flops,
                    )
                })
                .collect();
            let systems: Vec<_> = asms
                .iter()
                .map(|a| [&a.system, &a.rhs_lesser, &a.rhs_greater])
                .collect();
            let sols = self.group_solve(Subsystem::Electron, &systems);
            for (asm, sol) in asms.iter().zip(sols) {
                let out = g_step_finish(asm, sol, cfg);
                self.spectral.push(c64::new(out.current_spectrum, 0.0));
                self.spectral
                    .extend(out.dos_local.iter().map(|&d| c64::new(d, 0.0)));
                self.spectral
                    .extend((0..nb).map(|i| out.lesser.diag(i).trace()));
                g[0].push(out.lesser);
                g[1].push(out.greater);
            }
        }
        g
    }

    /// The front half of a convolution phase, pipelined over the energy
    /// batches: the forward transposition of `comps`, whose batch `k+1` flies
    /// while `kernel` accumulates batch `k` into every owned lane group's
    /// series (see [`ConvSeries::accumulate`]; `kernel` also gets the
    /// slab-so-far, the energy indices that arrived in the batch and every
    /// index arrived so far). Returns the element slab and the accumulated
    /// series.
    fn convolve(
        &mut self,
        row: &Transposition,
        comps: [&[BlockTridiagonal]; 2],
        kernel: impl Fn(&ElementSlab, &[usize], &[usize], [[GroupRowsMut<'_>; 2]; 2], usize, &GroupInfo),
    ) -> (ElementSlab, ConvSeries) {
        let p = self.p;
        let mut series = ConvSeries::zeroed(&p.plan, self.ctx.rank());
        let slab = self.forward(row, comps, |slab, batch, arrived| {
            // Once per batch, so the kernels' per-element checks can be
            // debug-only.
            assert!(
                is_grid_batch(batch, p.energies.len()),
                "arrived batch {batch:?} is not ascending inside the grid"
            );
            let (name, cat) = row.conv_span;
            quatrex_probe::span(name, cat, || {
                series.accumulate(|x, g, info| kernel(slab, batch, arrived, x, g, info));
            });
        });
        (slab, series)
    }

    /// The back half of a convolution phase: the epilogue of the accumulated
    /// series and their backward transposition. Returns the energy-major
    /// `[X^<, X^>, X^R]` of the owned energies.
    fn ship(&mut self, row: &Transposition, mut series: ConvSeries) -> [Vec<BlockTridiagonal>; 3] {
        let (name, cat) = row.conv_span;
        quatrex_probe::span(name, cat, || series.finish(&self.p.flops));
        self.backward(row, &series)
    }

    /// Transposition #1 + P convolutions + transposition #2. P is bilinear in
    /// G, so each arriving batch contributes its cross terms against
    /// everything arrived so far (exact; see
    /// `polarization_group_accumulate`). Returns the G element slab (kept
    /// for the Σ step) and `[P^<, P^>, P^R]`.
    fn p_step(
        &mut self,
        g: [Vec<BlockTridiagonal>; 2],
    ) -> (ElementSlab, [Vec<BlockTridiagonal>; 3]) {
        let p = self.p;
        let (g_slab, series) = self.convolve(
            &TRANSPOSITIONS[0],
            [&g[0], &g[1]],
            |slab, batch, arrived, out, g, info| {
                let operands = [slab.negf(0, g), slab.negf(1, g)];
                let before = arrived.len() > batch.len();
                let arrived = arrived.iter().copied();
                polarization_group_accumulate(
                    out, operands, arrived, batch, before, p.de, info, &p.flops,
                );
            },
        );
        (g_slab, self.ship(&TRANSPOSITIONS[1], series))
    }

    /// W step: `[W^<, W^>]` of the owned energies and the globally gathered
    /// truncation maximum.
    fn w_step(&mut self, polarization: [Vec<BlockTridiagonal>; 3]) -> [Vec<BlockTridiagonal>; 2] {
        let (p, cfg) = (self.p, self.p.cfg());
        let [p_lesser, p_greater, p_retarded] = polarization;
        let e0 = self.my_energies().start;
        let mut w = [(); 2].map(|()| Vec::with_capacity(self.sigma.len()));
        let mut local_trunc = 0.0f64;
        for chunk in self.solve_chunks() {
            let chunk_p: Vec<_> = chunk
                .clone()
                .map(|k| [&p_retarded[k], &p_lesser[k], &p_greater[k]])
                .collect();
            let indices: Vec<_> = chunk.map(|k| e0 + k).collect();
            let memoizer = &mut [self.memoizer.as_mut()];
            let asms = w_step_assemble_chunk(&p.v, &chunk_p, &indices, cfg, memoizer, &p.flops);
            let systems: Vec<_> = asms
                .iter()
                .map(|a| [&a.system, &a.rhs_lesser, &a.rhs_greater])
                .collect();
            let sols = self.group_solve(Subsystem::ScreenedCoulomb, &systems);
            for (asm, sol) in asms.iter().zip(sols) {
                let out = w_step_finish(asm, sol, cfg);
                local_trunc = local_trunc.max(out.truncation);
                w[0].push(out.lesser);
                w[1].push(out.greater);
            }
        }
        // Global truncation maximum (tiny ordered gather).
        let truncs = self.ctx.allgather_tagged(
            vec![c64::new(local_trunc, 0.0)],
            |m| m.len() * BYTES_PER_VALUE,
            CommPhase::Gathers,
        );
        let iter_trunc = truncs.iter().flatten().fold(0.0f64, |m, t| m.max(t.re));
        self.log.max_truncation = self.log.max_truncation.max(iter_trunc);
        w
    }

    /// Transposition #3 + Σ convolutions + transposition #4. Σ is linear in
    /// W, so each arriving W batch contributes `conv(Δw, g)` against the
    /// complete G slab (held since #1; see `self_energy_group_accumulate`).
    /// Returns `[Σ^<, Σ^>, Σ^R]`.
    fn sigma_step(
        &mut self,
        g_slab: ElementSlab,
        w: [Vec<BlockTridiagonal>; 2],
    ) -> [Vec<BlockTridiagonal>; 3] {
        let p = self.p;
        let (_, series) = self.convolve(
            &TRANSPOSITIONS[2],
            [&w[0], &w[1]],
            |w_slab, batch, _, out, g, info| {
                // Σ_ij(E) needs G^≶_ij and W^≶_ij of the same element.
                let gs = [g_slab.negf(0, g), g_slab.negf(1, g)];
                let ws = [w_slab.negf(0, g), w_slab.negf(1, g)];
                self_energy_group_accumulate(out, gs, ws, batch, p.de, info, &p.flops);
            },
        );
        let sigma_new = self.ship(&TRANSPOSITIONS[3], series);
        self.log.full_iterations += 1;
        // Cumulative memoizer snapshot: consecutive differences give the
        // per-iteration hit rates reported by `DistReport`.
        let stats = self.memoizer.as_ref().map(|m| m.stats());
        let snapshot = stats.map_or((0, 0), |s| (s.hits(), s.total()));
        self.log.memo_per_iteration.push(snapshot);
        sigma_new
    }

    /// Advance the owned Σ state by the update rule. Between *contribute* and
    /// *apply* the rows of the owned energies — with the G step's current
    /// spectrum riding along — are gathered in rank order (= ascending
    /// energy), so every rank sums the grid exactly as a single-threaded
    /// energy loop does: coefficients, residual and per-iteration current come
    /// out with the same bits at any rank count. Returns whether the loop
    /// converged.
    fn mix(&mut self, [new_l, new_g, new_r]: [Vec<BlockTridiagonal>; 3]) -> bool {
        let (p, cfg) = (self.p, self.p.cfg());
        let new = |k: usize| [&new_l[k], &new_g[k], &new_r[k]];
        let per_spectral = self.spectral_stride();
        let residual = quatrex_probe::span("scba.mix", "mix", || {
            let mut rows = Vec::with_capacity((ROW_LEN + 1) * self.sigma.len());
            for (k_local, s) in self.sigma.iter().enumerate() {
                let old = [&s.lesser, &s.greater, &s.retarded];
                let row = self.mixer.contribute(k_local, old, new(k_local));
                rows.extend(row.map(|v| c64::new(v, 0.0)));
                rows.push(self.spectral[k_local * per_spectral]);
            }

            let gathered =
                self.ctx
                    .allgather_tagged(rows, |m| m.len() * BYTES_PER_VALUE, CommPhase::Gathers);
            let per_energy = || gathered.iter().flat_map(|m| m.chunks_exact(ROW_LEN + 1));

            let current_spectrum: Vec<f64> = per_energy().map(|e| e[ROW_LEN].re).collect();
            let current = integrate_current(&current_spectrum, p.de);
            self.log.current_history.push(current);
            let rows = per_energy().map(|e| -> MixRow { std::array::from_fn(|i| e[i].re) });
            let residual = self.mixer.coefficients(rows);
            self.log
                .contraction_history
                .extend(self.mixer.contraction());
            for (k_local, s) in self.sigma.iter_mut().enumerate() {
                let old = [&mut s.lesser, &mut s.greater, &mut s.retarded];
                self.mixer.apply(k_local, old, new(k_local));
            }
            residual
        });
        self.log.residual_history.push(residual);
        self.log.converged = residual < cfg.tolerance;
        self.log.converged
    }

    /// The final ordered gather, the observables, and the state capture.
    fn finish(mut self) -> RankOut {
        let p = self.p;
        let (ne, nb, de) = (p.energies.len(), p.h.n_blocks(), p.de);
        // The packed spectral data is gathered in rank order (= ascending
        // energy, as the plan's ranges ascend with the rank), so every rank
        // can evaluate the observables in ascending energy order exactly.
        let gathered = self.ctx.allgather_tagged(
            std::mem::take(&mut self.spectral),
            |m| m.len() * BYTES_PER_VALUE,
            CommPhase::Gathers,
        );
        let per_energy = self.spectral_stride();
        let mut current_spectrum = Vec::with_capacity(ne);
        let mut dos_local: Vec<Vec<f64>> = Vec::with_capacity(ne);
        let mut density = vec![0.0f64; nb];
        for msg in &gathered {
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
            self.log.iterations == 0 || current_spectrum.len() == ne,
            "spectral gather covers the grid",
        );
        // Every full iteration recorded its current at the mix; a run that
        // ends on a bare G step (the ballistic one) records it here.
        let current = integrate_current(&current_spectrum, de);
        if self.log.current_history.len() < self.log.iterations {
            self.log.current_history.push(current);
        }
        self.log.mixing_restarts = self.mixer.restarts();
        if let Some(stats) = self.memoizer.as_ref().map(|m| m.stats()) {
            self.log.counters.memo_hits = stats.hits();
            self.log.counters.memo_total = stats.total();
        }

        // State capture: drain this rank's final Σ matrices and memoizer
        // entries; the solver concatenates them in rank order.
        let mut final_sigma = Vec::new();
        let mut final_obc = Vec::new();
        if p.config.capture_state {
            final_sigma = std::mem::take(&mut self.sigma);
            let owned = self.my_energies();
            if let Some(m) = self.memoizer.as_mut() {
                final_obc = owned.flat_map(|k| m.extract_energy(k)).collect();
            }
        }

        RankOut {
            log: self.log,
            observables: Observables {
                electron_density: density,
                current,
                spectral: SpectralData {
                    energies: p.energies.clone(),
                    dos: dos_local.iter().map(|v| v.iter().sum::<f64>()).collect(),
                    dos_local,
                    current_spectrum,
                },
            },
            trace: quatrex_probe::finish(),
            final_sigma,
            final_obc,
        }
    }
}
