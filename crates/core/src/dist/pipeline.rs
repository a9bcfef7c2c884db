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

use crate::convolution::{causal_retarded_group, symmetrize_group};
use crate::element_major::{GroupInfo, GroupRowsMut, LanePlanes};
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
        counters.pack_bytes += bytes;
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
        counters.unpack_bytes += recv_bytes;
        absorb(b, received);
        counters.release(sent_bytes + recv_bytes);
        b += 1;
    }
}

impl RankState<'_> {
    /// One forward transposition (energy-major → element-major) of the
    /// lesser/greater pair `comps`. `consume` is the per-batch convolution
    /// accumulation: called for every non-empty batch with the slab-so-far,
    /// the global energy indices that arrived in the batch, and every index
    /// arrived so far (this batch's included). Returns the fully assembled
    /// element slab.
    pub(crate) fn forward(
        &mut self,
        row: &Transposition,
        comps: [&[BlockTridiagonal]; 2],
        mut consume: impl FnMut(&ElementSlab, &[usize], &[usize]),
    ) -> ElementSlab {
        debug_assert_eq!(row.direction, Direction::Forward);
        let (plan, batches, rank) = (&self.p.plan, &self.p.batches, self.ctx.rank());
        let mut slab = ElementSlab::zeroed(plan, rank, row.symmetric.len(), false);
        let mut arrived_so_far = Vec::with_capacity(plan.n_energies);
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
                    arrived_so_far.extend_from_slice(&arrived);
                    consume(&slab, &arrived, &arrived_so_far);
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

/// The element-major output of one convolution phase (`P` or `Σ`) on one
/// rank: the owned elements' [`ElementSlab`] of the lesser, greater and —
/// once [`ConvSeries::finish`] ran — retarded component, canonical and
/// mirror side, in the layout the backward transposition ships. The
/// lesser/greater series are running accumulators, filled batch by batch,
/// one lane group per call, by the `crate::convolution::*_group_accumulate`
/// kernels while later batches are still in flight.
pub(crate) struct ConvSeries {
    /// Race-detector id of the accumulators (the owning rank).
    owner: u64,
    /// Components `[lesser, greater]`, then `retarded` once finished.
    slab: ElementSlab,
}

/// The rows of lane group `g` of the lesser and greater component of both
/// sides of a [`ConvSeries`] slab, `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]`.
fn group_accumulators<'a>(
    canonical: &'a mut [LanePlanes],
    mirror: &'a mut [LanePlanes],
    g: usize,
) -> [[GroupRowsMut<'a>; 2]; 2] {
    [canonical, mirror].map(|side| {
        let [lesser, greater, ..] = side else {
            unreachable!("a convolution output holds lesser and greater series")
        };
        [lesser.group_mut(g), greater.group_mut(g)]
    })
}

impl ConvSeries {
    /// All-zero accumulators for the elements `rank` owns.
    pub(crate) fn zeroed(plan: &TranspositionPlan, rank: usize) -> Self {
        Self {
            owner: rank as u64,
            slab: ElementSlab::zeroed(plan, rank, 2, true),
        }
    }

    /// Accumulate one arrived batch: `kernel(x, group)` adds the batch's
    /// contribution to lane group `group` of the owned elements — `x` are
    /// its `[[lesser, greater] canonical, [lesser, greater] mirror]` rows.
    pub(crate) fn accumulate(
        &mut self,
        mut kernel: impl FnMut([[GroupRowsMut<'_>; 2]; 2], usize, &GroupInfo),
    ) {
        race::access_shared(
            SharedId::new("dist.conv_accum", self.owner),
            AccessKind::Write,
        );
        let ElementSlab {
            canonical,
            mirror,
            groups,
            ..
        } = &mut self.slab;
        for (g, info) in groups.iter().enumerate() {
            kernel(group_accumulators(canonical, mirror, g), g, info);
        }
    }

    /// The phase epilogue after the last batch has been consumed, in place:
    /// symmetrise the canonical/mirror pairs (the solver always enforces the
    /// NEGF symmetry: its wire format relies on it) and build the retarded
    /// components causally, one lane group at a time.
    pub(crate) fn finish(&mut self, flops: &FlopCounter) {
        // The epilogue read of the batch-accumulated series: ordered after
        // every batch's accumulate (same rank thread, after the batch's
        // CommHandle::wait) — a pipeline mutation that lets the finish read
        // overtake an in-flight batch's accumulate is an HB race here.
        race::access_shared(
            SharedId::new("dist.conv_accum", self.owner),
            AccessKind::Read,
        );
        let (n_elements, ne) = (
            self.slab.canonical[0].n_elements(),
            self.slab.canonical[0].n_energies(),
        );
        let mut retarded = [(); 2].map(|()| LanePlanes::zeroed(n_elements, ne));
        let ElementSlab {
            canonical,
            mirror,
            groups,
            ..
        } = &mut self.slab;
        for (g, info) in groups.iter().enumerate() {
            let [[mut lc, mut gc], [mut lm, mut gm]] = group_accumulators(canonical, mirror, g);
            // A self-mirror lane's mirror is its canonical series.
            for (l, &sign) in info.sign.iter().enumerate().take(info.live) {
                if sign > 0.0 {
                    for (c, m) in [(&lc, &mut lm), (&gc, &mut gm)] {
                        for k in 0..ne {
                            (m.re[k][l], m.im[k][l]) = (c.re[k][l], c.im[k][l]);
                        }
                    }
                }
            }
            symmetrize_group(lc.reborrow(), lm.reborrow());
            symmetrize_group(gc.reborrow(), gm.reborrow());
            // The mirror side only where a lane is paired: a self-mirror
            // lane's retarded mirror never ships.
            let [r_ij, r_ji] = retarded.each_mut().map(|r| r.group_mut(g));
            causal_retarded_group(r_ij, lc.rows(), gc.rows(), info.live, flops);
            if info.paired > 0 {
                causal_retarded_group(r_ji, lm.rows(), gm.rows(), info.paired, flops);
            }
        }
        let [r_ij, r_ji] = retarded;
        self.slab.canonical.push(r_ij);
        self.slab.mirror.push(r_ji);
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
            let mut slab = ElementSlab::zeroed(plan, group, 2, false);
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

        let elements = crate::convolution::canonical_elements(nb, bs);
        for (group, (slab, counters)) in results.iter().enumerate() {
            for (e_local, e) in plan.element_ranges[group].clone().enumerate() {
                let id = elements[e];
                for (c, q) in quantities.iter().enumerate() {
                    let want: Vec<c64> = q.iter().map(|bt| id.value_in(bt)).collect();
                    assert_eq!(
                        slab.canonical[c].series(e_local),
                        want,
                        "group {group} {id:?}"
                    );
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
