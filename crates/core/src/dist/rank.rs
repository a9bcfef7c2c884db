//! One rank's side of the distributed SCBA loop.
//!
//! [`rank_main`] is the closure body every rank of the communicator runs: it
//! borrows the run's read-only [`Problem`], takes its [`RankOwned`] by
//! value and drives the five-step cycle — `G`, `P`, `W`, `Σ`, mix. Every
//! rank runs every step on the energies and elements it owns under the plan
//! — a constant of the run — and there is no distinguished rank in a group.
//!
//! `G` and `W` are the two callers of one energy step,
//! [`RankBuffers::energy_step`], in the stage vocabulary of `crate::scba`:
//! *assemble a chunk*, *solve the assembled systems* (the group solve,
//! [`spatial_phase_solve`] — local at `P_S = 1`, cooperative otherwise —
//! straight into the rank's energy sets), *finish one energy*. `P` and `Σ`
//! are the two callers of [`convolve`] and [`RankState::ship`], the halves of
//! a convolution phase around the transposition pipeline
//! ([`crate::dist::pipeline`]); their kernel closures are the loop's only
//! calls into the two `crate::convolution::*_group_accumulate` lane-group
//! kernels, which `polarization_from_g` and `self_energy_from_gw` call with
//! the whole grid as one batch. The mix is the update rule of
//! `crate::mixing` in its three pieces, the rows of the owned energies
//! gathered in rank order in between.
//!
//! A rank's update rule and every buffer of the cycle ([`RankBuffers`]) are
//! built by [`RankOwned::new`] on the launching thread and moved into the
//! rank with the borrowed warm-start seed; the rank builds its Σ and OBC
//! memoizer from that seed on its own thread and hands them back in the
//! [`RankOut`]. The buffers are sized once from the plan and written in
//! place every iteration, so a steady-state iteration allocates next to
//! nothing (`crates/dist/tests/alloc_free.rs`).

use std::ops::Range;

use crate::assembly::{AssemblyScratch, GAssembly};
use crate::convolution::{
    is_grid_batch, polarization_group_accumulate, self_energy_group_accumulate,
};
use crate::element_major::{GroupInfo, GroupRowsMut};
use crate::mixing::{MixRow, SigmaMixer, ROW_LEN};
use crate::observables::{dos_of_block, integrate_current, Observables, SpectralData};
use crate::scba::{
    g_step_assemble_into, g_step_finish, kernel_chunks, w_step_assemble_into, w_step_finish,
    ScbaConfig,
};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, CMatrix};
use quatrex_obc::{ObcMemoizer, Subsystem};
use quatrex_probe::clock::Instant;
use quatrex_probe::RankTrace;
use quatrex_rgf::SelectedSolution;
use quatrex_runtime::RankContext;
use quatrex_sparse::BlockTridiagonal;

use crate::dist::config::DistScbaConfig;
use crate::dist::pipeline::{
    allgather, exchange, zero_in_place, ConvSeries, MessagePool, Transposition, Wire,
    TRANSPOSITIONS,
};
use crate::dist::slab::{ElementSlab, TranspositionBatchPlan, TranspositionPlan};
use crate::dist::spatial::{spatial_phase_solve, GroupScratch, SpatialLayout};
use crate::dist::warm::WarmState;

/// Everything the ranks of one run share, borrowed read-only (the FLOP
/// accumulator is atomic).
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
    /// One shared clock zero for every rank's probe recorder.
    pub epoch: Instant,
    pub flops: FlopCounter,
}

impl Problem {
    /// The physics configuration.
    pub(crate) fn cfg(&self) -> &ScbaConfig {
        &self.config.scba
    }

    /// What a transposition of `ctx`'s rank works with.
    fn wire<'w>(
        &'w self,
        ctx: &'w RankContext<Vec<c64>>,
        log: &'w mut RankLog,
        pool: &'w mut MessagePool,
    ) -> Wire<'w> {
        let (plan, batches, counters) = (&self.plan, &self.batches, &mut log.counters);
        Wire {
            ctx,
            plan,
            batches,
            counters,
            pool,
        }
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
    pub(crate) fn track(&mut self, bytes: u64) {
        self.in_flight_bytes += bytes;
        self.peak_slab_bytes = self.peak_slab_bytes.max(self.in_flight_bytes);
    }

    /// A consumed batch leaves the in-flight footprint.
    pub(crate) fn release(&mut self, bytes: u64) {
        self.in_flight_bytes -= bytes;
    }

    /// Fold another rank's counters in: everything adds up across ranks
    /// except the buffer peak, where the busiest rank bounds the per-node
    /// memory.
    pub(crate) fn merge(&mut self, other: &RankCounters) {
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

impl RankLog {
    /// An empty log whose histories hold `max_iterations` entries without
    /// growing inside the loop.
    fn with_capacity(max_iterations: usize) -> Self {
        Self {
            residual_history: Vec::with_capacity(max_iterations),
            contraction_history: Vec::with_capacity(max_iterations),
            current_history: Vec::with_capacity(max_iterations),
            memo_per_iteration: Vec::with_capacity(max_iterations),
            ..Self::default()
        }
    }
}

/// Per-rank return value of the communicator closure.
pub(crate) struct RankOut {
    pub log: RankLog,
    pub observables: Observables,
    pub trace: Option<RankTrace>,
    /// Final Σ of the owned energies, ascending, and the rank's OBC
    /// memoizer: what the launcher captures into the run's final state.
    pub sigma: Vec<SigmaState>,
    pub memoizer: Option<ObcMemoizer>,
}

/// What one rank owns for the whole run, built on the launching thread and
/// moved into the rank: the history rings and the buffers are the run's
/// large allocations, and taken from the malloc arena of a short-lived rank
/// thread they stay resident there after the run (measured: +10 MiB peak
/// RSS over a 9-point sweep on two ranks) or are faulted in afresh at every
/// run (the buffers: 5× the minor page faults of a sweep, +1.3 MiB peak
/// RSS). Σ and the memoizer are the exception: the rank builds them on its
/// own thread from the borrowed `seed` (`RankState::new`), because Σ built
/// on the launching thread made `sweep_iv` ≈ 9 % slower, measured.
pub(crate) struct RankOwned<'w> {
    /// Warm-start seed (shape already validated against the grid).
    seed: Option<&'w WarmState>,
    /// The Σ update rule with the history of the owned energies.
    mixer: SigmaMixer,
    bufs: RankBuffers,
}

impl<'w> RankOwned<'w> {
    /// The state of `rank` under `p`'s plan, warm-started from `seed`.
    pub(crate) fn new(p: &Problem, rank: usize, seed: Option<&'w WarmState>) -> Self {
        let (cfg, n_owned) = (p.cfg(), p.plan.energy_ranges[rank].len());
        let (nb, bs) = (p.h.n_blocks(), p.h.block_size());
        Self {
            seed,
            mixer: SigmaMixer::new(cfg.mixing, cfg.max_iterations, n_owned, nb, bs),
            bufs: RankBuffers::new(p, rank),
        }
    }
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
    pub(crate) log: RankLog,
    /// Last G step's spectral data, packed per owned energy for the final
    /// ordered gather: current spectrum, per-block DOS, per-block `G^<`
    /// diagonal traces (only the traces feed the density, so they are
    /// extracted at G-step time instead of keeping the matrices around).
    spectral: Vec<c64>,
    bufs: RankBuffers,
}

/// The working buffers of one rank's SCBA cycle, sized once from the plan
/// and written in place every iteration. They are shared by lifetime, not
/// by phase: one energy set per owned energy holds `G` from the G solve
/// until `fwd_g`, `P` from `bwd_p` until the W assembly, `W` from the W solve
/// until `fwd_w` and `Σ_new` from `bwd_sigma` until the mix, each written in
/// place by its solve or transposition; one assembly per kernel-chunk slot
/// holds the chunk's G systems, then its W systems.
pub(crate) struct RankBuffers {
    /// The local energy ranges of the group solves (see
    /// [`solve_chunks`]).
    chunks: Vec<Range<usize>>,
    /// The energies each member of the rank's group brings to a group
    /// solve: the others of a spatial group all theirs, this rank the chunk
    /// at hand.
    members: Vec<usize>,
    /// One assembly per kernel-chunk slot, and the truncation errors of a
    /// chunk's W assemblies.
    slots: Vec<GAssembly>,
    truncation: Vec<f64>,
    assembly: AssemblyScratch,
    /// The products of the current spectrum.
    work: CMatrix,
    /// The energy sets, one per owned energy: `lesser = [X^<, X^>]` and
    /// `retarded = X^R`, the shape a group solve writes.
    sets: Vec<SelectedSolution>,
    /// The forward slabs of `G` (from `fwd_g` until the Σ convolutions)
    /// and `W`, and the convolution output of `P`, then of `Σ`.
    g_slab: ElementSlab,
    w_slab: ElementSlab,
    series: ConvSeries,
    /// The scratch of the group solves.
    group: GroupScratch,
    /// Message buffers of every collective of the loop.
    pool: MessagePool,
    /// The energies arrived so far in a forward transposition.
    arrived: Vec<usize>,
    /// The mix's gathered current spectrum.
    current_spectrum: Vec<f64>,
}

impl RankBuffers {
    /// The buffers of `rank` under `p`'s plan, every matrix at its shape.
    fn new(p: &Problem, rank: usize) -> Self {
        let chunks = solve_chunks(p, rank);
        let (plan, grid) = (&p.plan, &p.layout.grid);
        let (nb, bs) = (p.h.n_blocks(), p.h.block_size());
        let n_owned = plan.energy_ranges[rank].len();
        let n_slots = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        let members = grid.members_of(grid.group_of(rank));
        Self {
            members: members.map(|r| plan.energy_ranges[r].len()).collect(),
            slots: (0..n_slots).map(|_| GAssembly::zeros(nb, bs)).collect(),
            truncation: vec![0.0; n_slots],
            chunks,
            assembly: AssemblyScratch::default(),
            work: CMatrix::default(),
            sets: vec![SelectedSolution::zeros(nb, bs, 2); n_owned],
            g_slab: ElementSlab::zeroed(plan, rank, 2, false),
            w_slab: ElementSlab::zeroed(plan, rank, 2, false),
            series: ConvSeries::zeroed(plan, rank),
            group: GroupScratch::default(),
            pool: MessagePool::default(),
            arrived: Vec::with_capacity(plan.n_energies),
            current_spectrum: Vec::with_capacity(plan.n_energies),
        }
    }

    /// One energy step (`G` or `W`) of the owned energies, chunk by chunk
    /// ([`solve_chunks`]): `assemble(chunk, self)` assembles the chunk's
    /// local energies into the first slots, the group solve of `subsystem`
    /// reads its systems from those slots and writes the chunk's energy sets
    /// in place, and `finish(slot, set, work)` finishes each energy of the
    /// chunk in order. Nothing is copied or listed in between: at
    /// `P_S ≤ 2` a steady-state step allocates nothing.
    fn energy_step(
        &mut self,
        ctx: &RankContext<Vec<c64>>,
        p: &Problem,
        subsystem: Subsystem,
        mut assemble: impl FnMut(Range<usize>, &mut Self),
        mut finish: impl FnMut(&GAssembly, &mut SelectedSolution, &mut CMatrix),
    ) {
        for c in 0..self.chunks.len() {
            let chunk = self.chunks[c].clone();
            assemble(chunk.clone(), self);
            let slots = &self.slots[..chunk.len()];
            self.members[p.layout.grid.spatial_of(ctx.rank())] = slots.len();
            spatial_phase_solve(
                ctx,
                &p.layout,
                subsystem,
                slots,
                &self.members,
                p.cfg().kernel_batch,
                &mut self.group,
                &mut self.pool,
                &p.flops,
                &mut self.sets[chunk.clone()],
            );
            for (asm, set) in slots.iter().zip(&mut self.sets[chunk]) {
                finish(asm, set, &mut self.work);
            }
        }
    }
}

/// The local energy ranges one group solve of `rank` covers. A one-member
/// group solves kernel chunks cut inside the transposition batches — a
/// kernel batch never straddles a batch boundary, so the data a solve
/// produces is exactly the data the next pipelined transposition ships.
/// A spatial group runs one cooperative solve per phase, to which every
/// member brings all its energies (even none: it still joins the
/// collectives).
fn solve_chunks(p: &Problem, rank: usize) -> Vec<Range<usize>> {
    if p.layout.grid.spatial_partitions > 1 {
        let all = 0..p.plan.energy_ranges[rank].len();
        return vec![all];
    }
    p.batches.local_ranges[rank]
        .iter()
        .flat_map(|lr| kernel_chunks(lr.clone(), p.cfg().kernel_batch))
        .collect()
}

/// The per-rank SCBA main loop over the rank's own state.
pub(crate) fn rank_main(ctx: &RankContext<Vec<c64>>, p: &Problem, own: RankOwned<'_>) -> RankOut {
    let max_iterations = p.cfg().max_iterations;
    if p.config.probe {
        quatrex_probe::install(ctx.rank(), p.epoch);
    }
    let mut rank = RankState::new(ctx, p, own);
    for _ in 0..max_iterations {
        rank.log.iterations += 1;
        rank.g_step();
        if max_iterations == 1 {
            break;
        }
        rank.p_step();
        rank.w_step();
        rank.sigma_step();
        if rank.mix() {
            break;
        }
    }
    rank.finish()
}

/// The front half of a convolution phase, pipelined over the energy
/// batches: the forward transposition of the lesser/greater pair of the
/// energy sets `sets` into `slab` (zeroed first), whose batch `k+1` flies
/// while `kernel` accumulates batch `k` into every owned lane group of
/// `series` (zeroed first; see [`ConvSeries::accumulate`]; `kernel` also
/// gets the slab-so-far, the energy indices that arrived in the batch and
/// every index arrived so far, which `arrived` holds).
fn convolve(
    wire: Wire<'_>,
    row: &Transposition,
    sets: &[SelectedSolution],
    slab: &mut ElementSlab,
    arrived: &mut Vec<usize>,
    series: &mut ConvSeries,
    kernel: impl Fn(&ElementSlab, &[usize], &[usize], [[GroupRowsMut<'_>; 2]; 2], usize, &GroupInfo),
) {
    let (plan, batches, rank) = (wire.plan, wire.batches, wire.ctx.rank());
    series.zero();
    zero_in_place(|| slab.zero());
    arrived.clear();
    exchange(
        wire,
        row,
        |b, messages| {
            let local = batches.local_ranges[rank][b].clone();
            let at = |c: usize, k: usize| &sets[k].lesser[c];
            plan.scatter_forward_batch(rank, row.symmetric.len(), at, local, messages)
        },
        |b, received| {
            let sources = batches.global_ranges(b);
            row.unpack(|| plan.absorb_forward_batch(rank, slab, received, sources));
            let batch = batches.arrived_global(b);
            if batch.is_empty() {
                return;
            }
            arrived.extend_from_slice(batch);
            // Once per batch, so the kernels' per-element checks can be
            // debug-only.
            assert!(
                is_grid_batch(batch, plan.n_energies),
                "arrived batch {batch:?} is not ascending inside the grid"
            );
            let (name, cat) = row.conv_span;
            quatrex_probe::span(name, cat, || {
                series.accumulate(|x, g, info| kernel(slab, batch, arrived, x, g, info));
            });
        },
    );
}

impl<'a> RankState<'a> {
    fn new(ctx: &'a RankContext<Vec<c64>>, p: &'a Problem, own: RankOwned<'_>) -> Self {
        let RankOwned { seed, mixer, bufs } = own;
        let cfg = p.cfg();
        let mut memoizer = cfg.use_memoizer.then(|| ObcMemoizer::new(cfg.n_fpi, 1e-7));
        let owned = p.plan.energy_ranges[ctx.rank()].clone();
        // Cold start at Σ = 0; a warm start adopts the seed's Σ for the
        // owned energies and pre-fills the OBC memoizer.
        let zero = BlockTridiagonal::zeros(p.h.n_blocks(), p.h.block_size());
        let sigma = owned
            .clone()
            .map(|k| match seed {
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
        if let (Some(w), Some(m)) = (seed, memoizer.as_mut()) {
            for (key, block) in &w.obc {
                if owned.contains(&key.energy_index) {
                    m.insert_cached(*key, block.clone());
                }
            }
        }
        Self {
            ctx,
            p,
            sigma,
            mixer,
            memoizer,
            log: RankLog::with_capacity(cfg.max_iterations),
            spectral: Vec::new(),
            bufs,
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

    /// G step: `[G^<, G^>, G^R]` of the owned energies into the energy sets
    /// and the packed spectral data.
    fn g_step(&mut self) {
        let (p, cfg) = (self.p, self.p.cfg());
        let nb = p.h.n_blocks();
        let e0 = self.my_energies().start;
        let (sigma, memoizer, spectral) = (&self.sigma, &mut self.memoizer, &mut self.spectral);
        spectral.clear();
        self.bufs.energy_step(
            self.ctx,
            p,
            Subsystem::Electron,
            |chunk, b| {
                let site = |m: usize| {
                    let k = chunk.start + m;
                    let s = &sigma[k];
                    let sigma = [Some(&s.retarded), Some(&s.lesser), Some(&s.greater)];
                    (p.energies[e0 + k], e0 + k, sigma)
                };
                let (slots, scratch) = (&mut b.slots[..chunk.len()], &mut b.assembly);
                let memoizers = &mut [memoizer.as_mut()];
                g_step_assemble_into(slots, scratch, &p.h, site, cfg, p.kt, memoizers, &p.flops);
            },
            |asm, sol, work| {
                let current = g_step_finish(asm, sol, cfg, work);
                spectral.push(c64::new(current, 0.0));
                let dos = (0..nb).map(|i| c64::new(dos_of_block(&sol.retarded, i), 0.0));
                spectral.extend(dos);
                spectral.extend((0..nb).map(|i| sol.lesser[0].diag(i).trace()));
            },
        );
    }

    /// Transposition #1 + P convolutions + transposition #2. P is bilinear in
    /// G, so each arriving batch contributes its cross terms against
    /// everything arrived so far (exact; see
    /// `polarization_group_accumulate`). Leaves the G element slab (kept for
    /// the Σ step) and `[P^<, P^>, P^R]` in the energy sets.
    fn p_step(&mut self) {
        let p = self.p;
        let b = &mut self.bufs;
        let wire = p.wire(self.ctx, &mut self.log, &mut b.pool);
        convolve(
            wire,
            &TRANSPOSITIONS[0],
            &b.sets,
            &mut b.g_slab,
            &mut b.arrived,
            &mut b.series,
            |slab, batch, arrived, out, g, info| {
                let operands = [slab.negf(0, g), slab.negf(1, g)];
                let before = arrived.len() > batch.len();
                let arrived = arrived.iter().copied();
                polarization_group_accumulate(
                    out, operands, arrived, batch, before, p.de, info, &p.flops,
                );
            },
        );
        self.ship(&TRANSPOSITIONS[1]);
    }

    /// The back half of a convolution phase: the epilogue of the accumulated
    /// series and their backward transposition into the energy sets of the
    /// owned energies (every entry written).
    fn ship(&mut self, row: &Transposition) {
        let (p, rank) = (self.p, self.ctx.rank());
        let b = &mut self.bufs;
        let (name, cat) = row.conv_span;
        quatrex_probe::span(name, cat, || b.series.finish(&p.flops));
        let wire = p.wire(self.ctx, &mut self.log, &mut b.pool);
        let (plan, batches, symmetric) = (&p.plan, &p.batches, row.symmetric);
        let (slab, sets) = (b.series.slab(), &mut b.sets);
        exchange(
            wire,
            row,
            |k, messages| {
                let targets = batches.global_ranges(k);
                plan.scatter_backward_batch(rank, slab, symmetric, targets, messages)
            },
            |k, received| {
                let mine = batches.global_ranges(k)[rank].clone();
                row.unpack(|| plan.absorb_backward_batch(rank, sets, received, symmetric, mine));
            },
        );
    }

    /// W step: `[W^<, W^>, W^R]` of the owned energies into the energy sets,
    /// from the `P` there, and the globally gathered truncation maximum.
    fn w_step(&mut self) {
        let (p, cfg) = (self.p, self.p.cfg());
        let e0 = self.my_energies().start;
        let memoizer = &mut self.memoizer;
        let mut local_trunc = 0.0f64;
        self.bufs.energy_step(
            self.ctx,
            p,
            Subsystem::ScreenedCoulomb,
            |chunk, b| {
                // The chunk's P is consumed: its sets take the chunk's W.
                let (n, sets) = (chunk.len(), &b.sets);
                let site = |m: usize| {
                    let s = &sets[chunk.start + m];
                    (
                        e0 + chunk.start + m,
                        [&s.retarded, &s.lesser[0], &s.lesser[1]],
                    )
                };
                let (slots, truncation) = (&mut b.slots[..n], &mut b.truncation[..n]);
                let (scratch, memoizers) = (&mut b.assembly, &mut [memoizer.as_mut()]);
                let (v, flops) = (&p.v, &p.flops);
                w_step_assemble_into(slots, truncation, scratch, v, site, cfg, memoizers, flops);
                local_trunc = truncation.iter().fold(local_trunc, |m, &t| m.max(t));
            },
            |_, sol, _| w_step_finish(sol, cfg),
        );
        // Global truncation maximum (tiny ordered gather).
        let pool = &mut self.bufs.pool;
        let truncs = allgather(self.ctx, pool, |m| m.push(c64::new(local_trunc, 0.0)));
        let iter_trunc = truncs.iter().flatten().fold(0.0f64, |m, t| m.max(t.re));
        pool.recycle(truncs);
        self.log.max_truncation = self.log.max_truncation.max(iter_trunc);
    }

    /// Transposition #3 + Σ convolutions + transposition #4. Σ is linear in
    /// W, so each arriving W batch contributes `conv(Δw, g)` against the
    /// complete G slab (held since #1; see `self_energy_group_accumulate`).
    /// Leaves `[Σ^<, Σ^>, Σ^R]` in the energy sets.
    fn sigma_step(&mut self) {
        let p = self.p;
        let b = &mut self.bufs;
        let g_slab = &b.g_slab;
        let wire = p.wire(self.ctx, &mut self.log, &mut b.pool);
        convolve(
            wire,
            &TRANSPOSITIONS[2],
            &b.sets,
            &mut b.w_slab,
            &mut b.arrived,
            &mut b.series,
            |w_slab, batch, _, out, g, info| {
                // Σ_ij(E) needs G^≶_ij and W^≶_ij of the same element.
                let gs = [g_slab.negf(0, g), g_slab.negf(1, g)];
                let ws = [w_slab.negf(0, g), w_slab.negf(1, g)];
                self_energy_group_accumulate(out, gs, ws, batch, p.de, info, &p.flops);
            },
        );
        self.ship(&TRANSPOSITIONS[3]);
        self.log.full_iterations += 1;
        // Cumulative memoizer snapshot: consecutive differences give the
        // per-iteration hit rates reported by `DistReport`.
        let stats = self.memoizer.as_ref().map(|m| m.stats());
        let snapshot = stats.map_or((0, 0), |s| (s.hits(), s.total()));
        self.log.memo_per_iteration.push(snapshot);
    }

    /// Advance the owned Σ state by the update rule towards the `Σ_new` in
    /// the energy sets. Between *contribute* and *apply* the rows of the
    /// owned energies — with the G step's current spectrum riding along —
    /// are gathered in rank order (= ascending energy), so every rank sums
    /// the grid exactly as a single-threaded energy loop does: coefficients,
    /// residual and per-iteration current come out with the same bits at any
    /// rank count. Returns whether the loop converged.
    fn mix(&mut self) -> bool {
        let (p, cfg) = (self.p, self.p.cfg());
        let per_spectral = self.spectral_stride();
        let b = &mut self.bufs;
        let sets = &b.sets;
        let new = |k: usize| [&sets[k].lesser[0], &sets[k].lesser[1], &sets[k].retarded];
        let (sigma, mixer, spectral) = (&mut self.sigma, &mut self.mixer, &self.spectral);
        let residual = quatrex_probe::span("scba.mix", "mix", || {
            let gathered = allgather(self.ctx, &mut b.pool, |rows| {
                for (k_local, s) in sigma.iter().enumerate() {
                    let old = [&s.lesser, &s.greater, &s.retarded];
                    let row = mixer.contribute(k_local, old, new(k_local));
                    rows.extend(row.map(|v| c64::new(v, 0.0)));
                    rows.push(spectral[k_local * per_spectral]);
                }
            });
            let per_energy = || gathered.iter().flat_map(|m| m.chunks_exact(ROW_LEN + 1));

            b.current_spectrum.clear();
            b.current_spectrum
                .extend(per_energy().map(|e| e[ROW_LEN].re));
            let current = integrate_current(&b.current_spectrum, p.de);
            self.log.current_history.push(current);
            let rows = per_energy().map(|e| -> MixRow { std::array::from_fn(|i| e[i].re) });
            let residual = mixer.coefficients(rows);
            self.log.contraction_history.extend(mixer.contraction());
            for (k_local, s) in sigma.iter_mut().enumerate() {
                let old = [&mut s.lesser, &mut s.greater, &mut s.retarded];
                mixer.apply(k_local, old, new(k_local));
            }
            b.pool.recycle(gathered);
            residual
        });
        self.log.residual_history.push(residual);
        self.log.converged = residual < cfg.tolerance;
        self.log.converged
    }

    /// The final ordered gather and the observables; the rank's Σ and
    /// memoizer go back to the launcher.
    fn finish(mut self) -> RankOut {
        let p = self.p;
        let (ne, nb, de) = (p.energies.len(), p.h.n_blocks(), p.de);
        // The packed spectral data is gathered in rank order (= ascending
        // energy, as the plan's ranges ascend with the rank), so every rank
        // can evaluate the observables in ascending energy order exactly.
        let spectral = &self.spectral;
        let gathered = allgather(self.ctx, &mut self.bufs.pool, |m| {
            m.extend_from_slice(spectral)
        });
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
            sigma: self.sigma,
            memoizer: self.memoizer,
        }
    }
}
