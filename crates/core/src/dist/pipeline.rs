//! The exchange pipeline of the four energy↔element transpositions and the
//! element-major convolution accumulators they feed.
//!
//! Every transposition of an iteration — `G^≶` forward, `P` backward, `W^≶`
//! forward, `Σ` backward ([`TRANSPOSITIONS`]) — runs through **one** driver,
//! [`exchange`]: batch `k+1`'s `Alltoallv` is posted non-blocking before
//! batch `k` is waited for and absorbed, so the absorb side (the per-batch
//! convolution accumulation of the forward transpositions) computes while
//! the next batch flies. The two directions differ only in what a batch packs
//! and what absorbing it means, which [`RankState::forward`] and
//! [`RankState::backward`] supply as closures.
//!
//! Both directions move the same container: a forward transposition fills an
//! [`ElementSlab`], a convolution phase accumulates its output into another
//! ([`ConvSeries`]), and the backward transposition ships that slab as is.

use crate::convolution::causal_retarded_series;
use quatrex_linalg::c64;
use quatrex_linalg::flops::FlopCounter;
use quatrex_runtime::{CommHandle, CommPhase, RankContext};
use quatrex_sparse::BlockTridiagonal;
use quatrex_sync::race::{self, AccessKind, SharedId};

use crate::dist::rank::{RankCounters, RankState};
use crate::dist::slab::{ElementSlab, TranspositionPlan, BYTES_PER_VALUE};

/// Which way a transposition moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Energy-major → element-major (into the convolutions).
    Forward,
    /// Element-major → energy-major (back to the energy owners).
    Backward,
}

/// One of the four per-iteration transpositions: its byte-accounting tag,
/// direction, which of its components obey the NEGF symmetry (and so travel
/// canonical-only: the mask alone decides whether mirrors ship), the probe
/// span names of its pack and unpack stages, and the probe span (name,
/// category) of the convolution stage riding on it — the per-batch
/// accumulation behind a forward transposition, the epilogue ahead of a
/// backward one.
pub(crate) struct Transposition {
    pub phase: CommPhase,
    pub direction: Direction,
    pub symmetric: &'static [bool],
    pub scatter_span: &'static str,
    pub absorb_span: &'static str,
    pub conv_span: (&'static str, &'static str),
}

/// The four transpositions of one SCBA iteration, in cycle order (Fig. 3).
pub(crate) static TRANSPOSITIONS: [Transposition; 4] = [
    Transposition {
        phase: CommPhase::FwdG,
        direction: Direction::Forward,
        symmetric: &[true, true],
        scatter_span: "transposition.scatter.fwd_g",
        absorb_span: "transposition.absorb.fwd_g",
        conv_span: ("scba.p.accumulate", "conv.p"),
    },
    Transposition {
        phase: CommPhase::BwdP,
        direction: Direction::Backward,
        symmetric: &[true, true, false],
        scatter_span: "transposition.scatter.bwd_p",
        absorb_span: "transposition.absorb.bwd_p",
        conv_span: ("scba.p.finish", "conv.p"),
    },
    Transposition {
        phase: CommPhase::FwdW,
        direction: Direction::Forward,
        symmetric: &[true, true],
        scatter_span: "transposition.scatter.fwd_w",
        absorb_span: "transposition.absorb.fwd_w",
        conv_span: ("scba.sigma.accumulate", "conv.sigma"),
    },
    Transposition {
        phase: CommPhase::BwdSigma,
        direction: Direction::Backward,
        symmetric: &[true, true, false],
        scatter_span: "transposition.scatter.bwd_sigma",
        absorb_span: "transposition.absorb.bwd_sigma",
        conv_span: ("scba.sigma.finish", "conv.sigma"),
    },
];

impl Transposition {
    /// Run the unpack stage of one batch under this transposition's span.
    fn unpack<R>(&self, f: impl FnOnce() -> R) -> R {
        quatrex_probe::span(self.absorb_span, "transposition.unpack", f)
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

/// Drive one transposition through the double-buffered batch pipeline: post
/// the next batch, wait for the oldest, absorb it, release its buffers.
///
/// The participants are the flat ranks, each as itself: `pack(b)` builds
/// batch `b`'s per-rank payloads and `absorb(b, received)` consumes the
/// messages received for it (indexed by source rank). Empty surplus batches
/// (more batches than a rank has energies) still post and drain, so every
/// rank executes the same collective sequence.
///
/// Every posted and received payload counts toward the in-flight buffer
/// footprint until its batch has been absorbed (`counters.peak_slab_bytes`).
pub(crate) fn exchange(
    ctx: &RankContext<Vec<c64>>,
    row: &Transposition,
    n_batches: usize,
    counters: &mut RankCounters,
    mut pack: impl FnMut(usize) -> Vec<Vec<c64>>,
    mut absorb: impl FnMut(usize, Vec<Vec<c64>>),
) {
    let mut post = |b: usize, counters: &mut RankCounters| -> (CommHandle<Vec<c64>>, u64) {
        let payloads = quatrex_probe::span(row.scatter_span, "transposition.pack", || pack(b));
        debug_assert_eq!(payloads.len(), ctx.n_ranks());
        let bytes = payload_bytes(&payloads);
        counters.track(bytes);
        let handle = ctx.alltoallv_start_tagged(payloads, |m| m.len() * BYTES_PER_VALUE, row.phase);
        (handle, bytes)
    };
    let mut in_flight = Some(post(0, counters));
    let mut b = 0;
    while let Some((handle, sent_bytes)) = in_flight.take() {
        if b + 1 < n_batches {
            in_flight = Some(post(b + 1, counters));
        }
        let received = handle.wait(ctx);
        let recv_bytes = payload_bytes(&received);
        counters.track(recv_bytes);
        absorb(b, received);
        counters.release(sent_bytes + recv_bytes);
        b += 1;
    }
}

impl RankState<'_> {
    /// One forward transposition (energy-major → element-major) of the
    /// lesser/greater pair `comps`. `consume` is the per-batch convolution
    /// accumulation: called for every non-empty batch with the slab-so-far,
    /// the arrived global energy indices, and whether earlier batches
    /// arrived. Returns the fully assembled element slab.
    pub(crate) fn forward(
        &mut self,
        row: &Transposition,
        comps: [&[BlockTridiagonal]; 2],
        mut consume: impl FnMut(&ElementSlab, &[usize], bool),
    ) -> ElementSlab {
        debug_assert_eq!(row.direction, Direction::Forward);
        let (plan, batches, rank) = (&self.p.plan, &self.p.batches, self.ctx.rank());
        let elements = plan.element_ranges[rank].clone();
        let mut slab = ElementSlab::zeroed(elements, row.symmetric.len(), plan.n_energies);
        let mut arrived_before = false;
        exchange(
            self.ctx,
            row,
            batches.n_batches,
            &mut self.log.counters,
            |b| plan.scatter_forward_batch(rank, &comps, batches.local_ranges[rank][b].clone()),
            |b, received| {
                let sources = batches.global_ranges(plan, b);
                row.unpack(|| plan.absorb_forward_batch(rank, &mut slab, received, &sources));
                let arrived = batches.arrived_global(plan, b);
                if !arrived.is_empty() {
                    consume(&slab, &arrived, arrived_before);
                    arrived_before = true;
                }
            },
        );
        slab
    }

    /// One backward transposition (element-major → energy-major) of the
    /// rank's finished convolution series. Returns the lesser, greater and
    /// retarded energy-major quantities of the owned energies.
    pub(crate) fn backward(
        &mut self,
        row: &Transposition,
        series: &ConvSeries,
    ) -> [Vec<BlockTridiagonal>; 3] {
        debug_assert_eq!(row.direction, Direction::Backward);
        let (plan, batches, rank) = (&self.p.plan, &self.p.batches, self.ctx.rank());
        let zero = BlockTridiagonal::zeros(plan.n_blocks, plan.block_size);
        let mut out = [(); 3].map(|()| vec![zero.clone(); self.sigma.len()]);
        exchange(
            self.ctx,
            row,
            batches.n_batches,
            &mut self.log.counters,
            |b| {
                let targets = batches.global_ranges(plan, b);
                plan.scatter_backward_batch(rank, &series.slab, row.symmetric, &targets)
            },
            |b, received| {
                let mine = batches.global_range(plan, rank, b);
                row.unpack(|| {
                    plan.absorb_backward_batch(rank, &mut out, received, row.symmetric, mine)
                });
            },
        );
        out
    }
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

/// The element-major output of one convolution phase (`P` or `Σ`) on one
/// rank: the owned elements' [`ElementSlab`] of the lesser, greater and —
/// once [`ConvSeries::finish`] ran — retarded component, in the layout the
/// backward transposition ships. The lesser/greater series are running
/// accumulators, filled batch by batch by the
/// `crate::convolution::*_pair_accumulate` kernels while later batches are
/// still in flight.
pub(crate) struct ConvSeries {
    /// Race-detector id of the accumulators (the owning rank).
    owner: u64,
    /// Per owned element: whether it is its own mirror.
    self_mirror: Vec<bool>,
    /// Components `[lesser, greater]`, then `retarded` once finished.
    slab: ElementSlab,
}

/// The lesser and greater component of one side of a [`ConvSeries`] slab,
/// split-borrowed.
fn lesser_greater(side: &mut [Vec<Vec<c64>>]) -> (&mut [Vec<c64>], &mut [Vec<c64>]) {
    let (lesser, rest) = side.split_at_mut(1);
    (&mut lesser[0], &mut rest[0])
}

impl ConvSeries {
    /// All-zero accumulators for the elements `rank` owns.
    pub(crate) fn zeroed(plan: &TranspositionPlan, rank: usize) -> Self {
        let elements = plan.element_ranges[rank].clone();
        Self {
            owner: rank as u64,
            self_mirror: plan.elements[elements.clone()]
                .iter()
                .map(|id| id.is_self_mirror())
                .collect(),
            slab: ElementSlab::zeroed(elements, 2, plan.n_energies),
        }
    }

    /// Accumulate one arrived batch: `kernel(x_ij, x_ji, e_local)` adds the
    /// batch's contribution to the pair of owned element `e_local` — the
    /// `[lesser, greater]` series of the canonical element and, unless it is
    /// its own mirror, of its mirror.
    pub(crate) fn accumulate(
        &mut self,
        mut kernel: impl FnMut([&mut [c64]; 2], Option<[&mut [c64]; 2]>, usize),
    ) {
        race::access_shared(
            SharedId::new("dist.conv_accum", self.owner),
            AccessKind::Write,
        );
        let (lc, gc) = lesser_greater(&mut self.slab.canonical);
        let (lm, gm) = lesser_greater(&mut self.slab.mirror);
        for (e, &self_mirror) in self.self_mirror.iter().enumerate() {
            let mirror = (!self_mirror).then(|| [&mut lm[e][..], &mut gm[e][..]]);
            kernel([&mut lc[e], &mut gc[e]], mirror, e);
        }
    }

    /// The phase epilogue after the last batch has been consumed, in place:
    /// symmetrise the canonical/mirror pairs (the solver always enforces the
    /// NEGF symmetry: its wire format relies on it) and build the retarded
    /// components causally.
    pub(crate) fn finish(&mut self, flops: &FlopCounter) {
        // The epilogue read of the batch-accumulated series: ordered after
        // every batch's accumulate (same rank thread, after the batch's
        // CommHandle::wait) — a pipeline mutation that lets the finish read
        // overtake an in-flight batch's accumulate is an HB race here.
        race::access_shared(
            SharedId::new("dist.conv_accum", self.owner),
            AccessKind::Read,
        );
        let (lc, gc) = lesser_greater(&mut self.slab.canonical);
        let (lm, gm) = lesser_greater(&mut self.slab.mirror);
        let (mut rc_all, mut rm_all) = (Vec::new(), Vec::new());
        for (e, &self_mirror) in self.self_mirror.iter().enumerate() {
            if self_mirror {
                lm[e].clone_from(&lc[e]);
                gm[e].clone_from(&gc[e]);
            }
            symmetrize_series_pair(&mut lc[e], &mut lm[e], self_mirror);
            symmetrize_series_pair(&mut gc[e], &mut gm[e], self_mirror);
            let mut rc = vec![c64::new(0.0, 0.0); lc[e].len()];
            causal_retarded_series(&mut rc, &lc[e], &gc[e], flops);
            let mut rm = rc.clone();
            if !self_mirror {
                causal_retarded_series(&mut rm, &lm[e], &gm[e], flops);
            }
            rc_all.push(rc);
            rm_all.push(rm);
        }
        self.slab.canonical.push(rc_all);
        self.slab.mirror.push(rm_all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::slab::TranspositionBatchPlan;
    use quatrex_linalg::{cplx, CMatrix};
    use quatrex_runtime::ThreadComm;

    /// A synthetic energy-resolved quantity with distinct values everywhere.
    fn quantity(ne: usize, nb: usize, bs: usize, seed: f64) -> Vec<BlockTridiagonal> {
        (0..ne)
            .map(|k| {
                let block = |i: usize, j: usize| {
                    CMatrix::from_fn(bs, bs, |r, c| {
                        cplx(seed + (k * 31 + i * 7 + j * 3) as f64, (r * bs + c) as f64)
                    })
                };
                let mut bt = BlockTridiagonal::zeros(nb, bs);
                for i in 0..nb {
                    bt.set_block(i, i, block(i, i));
                }
                for i in 0..nb - 1 {
                    bt.set_block(i, i + 1, block(i, i + 1));
                    bt.set_block(i + 1, i, block(i + 1, i));
                }
                bt
            })
            .collect()
    }

    #[test]
    fn exchange_posts_and_drains_empty_surplus_batches() {
        // 2 ranks over 5 energies (2 + 3) in B = 3 batches: one rank owns
        // fewer energies than there are batches, so one of its batches is
        // empty — it must still post and drain like the others, and the
        // batch-wise slabs must equal the directly extracted element series.
        let (nb, bs, ne, n_batches) = (3usize, 2usize, 5usize, 3usize);
        let plan = TranspositionPlan::new(nb, bs, ne, 2);
        let batches = TranspositionBatchPlan::new(&plan, n_batches);
        assert!(
            batches.local_ranges.iter().flatten().any(|r| r.is_empty()),
            "the grid must leave a rank a surplus batch: {:?}",
            batches.local_ranges
        );
        let quantities = [quantity(ne, nb, bs, 0.25), quantity(ne, nb, bs, -4.0)];
        let row = &TRANSPOSITIONS[0];
        let (plan2, q2) = (plan.clone(), quantities.clone());
        let (results, stats) = ThreadComm::run(2, move |ctx: RankContext<Vec<c64>>| {
            let (plan, group) = (&plan2, ctx.rank());
            let local: Vec<&[BlockTridiagonal]> = q2
                .iter()
                .map(|q| &q[plan.energy_ranges[group].clone()])
                .collect();
            let mut slab = ElementSlab::zeroed(plan.element_ranges[group].clone(), 2, ne);
            let mut counters = RankCounters::default();
            let mut absorbed = Vec::new();
            exchange(
                &ctx,
                row,
                n_batches,
                &mut counters,
                |b| {
                    plan.scatter_forward_batch(
                        group,
                        &local,
                        batches.local_ranges[group][b].clone(),
                    )
                },
                |b, received| {
                    absorbed.push(b);
                    plan.absorb_forward_batch(
                        group,
                        &mut slab,
                        received,
                        &batches.global_ranges(plan, b),
                    );
                },
            );
            assert_eq!(absorbed, vec![0, 1, 2], "every batch drains, in order");
            assert_eq!(ctx.outstanding_exchanges(), 0);
            (slab, counters)
        });

        for (group, (slab, counters)) in results.iter().enumerate() {
            for (e_local, e) in plan.element_ranges[group].clone().enumerate() {
                let id = plan.elements[e];
                for (c, q) in quantities.iter().enumerate() {
                    let want: Vec<c64> = q.iter().map(|bt| id.value_in(bt)).collect();
                    assert_eq!(slab.canonical[c][e_local], want, "group {group} {id:?}");
                }
            }
            assert!(counters.peak_slab_bytes > 0);
        }
        // One collective per batch (counted on each of the 2 ranks), and the
        // phase shipped exactly the plan's count, surplus batch included.
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(load(&stats.n_collectives), 2 * n_batches as u64);
        let planned = plan.transposition_bytes(row.phase);
        assert!(planned > 0);
        assert_eq!(stats.phase_bytes(row.phase), planned);
        assert_eq!(load(&stats.alltoall_bytes), planned);
    }
}
