//! The exchange pipeline of the four energy↔element transpositions and the
//! element-major convolution accumulators they feed.
//!
//! Every transposition of an iteration — `G^≶` forward, `P` backward, `W^≶`
//! forward, `Σ` backward ([`TRANSPOSITIONS`]) — runs through **one** driver,
//! [`exchange`]: batch `k+1`'s `Alltoallv` is posted non-blocking before
//! batch `k` is waited for and absorbed, so the absorb side (the per-batch
//! convolution accumulation of the forward transpositions) computes while
//! the next batch flies. The two directions differ only in what a batch packs
//! and what absorbing it means, which the two halves of a convolution phase
//! in `crate::dist::rank` (`convolve`, `RankState::ship`) supply as closures.
//!
//! Both directions move the same container: a forward transposition fills an
//! [`ElementSlab`], a convolution phase accumulates its output into another
//! ([`ConvSeries`]), and the backward transposition ships that slab as is.
//! Every slab is the rank's own, zeroed in place and refilled each
//! iteration, and every message comes from and returns to the rank's
//! [`MessagePool`].

use crate::convolution::{causal_retarded_group, symmetrize_group};
use crate::element_major::{GroupInfo, GroupRowsMut, LanePlanes};
use quatrex_linalg::c64;
use quatrex_linalg::flops::FlopCounter;
use quatrex_runtime::{CommHandle, CommPhase, RankContext};
use quatrex_sync::race::{self, AccessKind, SharedId};

use crate::dist::rank::RankCounters;
use crate::dist::slab::{ElementSlab, TranspositionBatchPlan, TranspositionPlan, BYTES_PER_VALUE};

/// One of the four per-iteration transpositions: its byte-accounting tag,
/// which of its components obey the NEGF symmetry (and so travel
/// canonical-only: the mask alone decides whether mirrors ship), the probe
/// span names of its pack and unpack stages, and the probe span (name,
/// category) of the convolution stage riding on it — the per-batch
/// accumulation behind a forward transposition, the epilogue ahead of a
/// backward one.
pub(crate) struct Transposition {
    pub phase: CommPhase,
    pub symmetric: &'static [bool],
    pub scatter_span: &'static str,
    pub absorb_span: &'static str,
    pub conv_span: (&'static str, &'static str),
}

/// The four transpositions of one SCBA iteration, in cycle order (Fig. 3).
pub(crate) static TRANSPOSITIONS: [Transposition; 4] = [
    Transposition {
        phase: CommPhase::FwdG,
        symmetric: &[true, true],
        scatter_span: "transposition.scatter.fwd_g",
        absorb_span: "transposition.absorb.fwd_g",
        conv_span: ("scba.p.accumulate", "conv.p"),
    },
    Transposition {
        phase: CommPhase::BwdP,
        symmetric: &[true, true, false],
        scatter_span: "transposition.scatter.bwd_p",
        absorb_span: "transposition.absorb.bwd_p",
        conv_span: ("scba.p.finish", "conv.p"),
    },
    Transposition {
        phase: CommPhase::FwdW,
        symmetric: &[true, true],
        scatter_span: "transposition.scatter.fwd_w",
        absorb_span: "transposition.absorb.fwd_w",
        conv_span: ("scba.sigma.accumulate", "conv.sigma"),
    },
    Transposition {
        phase: CommPhase::BwdSigma,
        symmetric: &[true, true, false],
        scatter_span: "transposition.scatter.bwd_sigma",
        absorb_span: "transposition.absorb.bwd_sigma",
        conv_span: ("scba.sigma.finish", "conv.sigma"),
    },
];

impl Transposition {
    /// Run the unpack stage of one batch under this transposition's span.
    pub(crate) fn unpack<R>(&self, f: impl FnOnce() -> R) -> R {
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

/// The message buffers of one rank's collectives. A posted message set is
/// drawn from the pool and a received one goes back into it, container
/// included; the communicator moves ownership, so what a rank receives
/// refills what it sent. Every exchange sends and receives one message per
/// rank, so the pool neither grows nor drains, and once its buffers have
/// grown to the largest message they carry it allocates nothing.
#[derive(Default)]
pub(crate) struct MessagePool {
    messages: Vec<Vec<c64>>,
    sets: Vec<Vec<Vec<c64>>>,
}

impl MessagePool {
    /// `n` empty messages, one per destination.
    pub(crate) fn messages(&mut self, n: usize) -> Vec<Vec<c64>> {
        let mut set = self.sets.pop().unwrap_or_default();
        set.extend((0..n).map(|_| {
            let mut m = self.messages.pop().unwrap_or_default();
            m.clear();
            m
        }));
        set
    }

    /// Take a consumed message set back.
    pub(crate) fn recycle(&mut self, mut set: Vec<Vec<c64>>) {
        self.messages.append(&mut set);
        self.sets.push(set);
    }
}

/// Gather every rank's message on every rank, in rank order: `fill` writes
/// this rank's message, and every destination gets a copy of it from the
/// pool, shipped by one `alltoallv` tagged [`CommPhase::Gathers`].
/// The loop's callers recycle the gathered set; `finish` drops it with
/// the pool.
pub(crate) fn allgather(
    ctx: &RankContext<Vec<c64>>,
    pool: &mut MessagePool,
    fill: impl FnOnce(&mut Vec<c64>),
) -> Vec<Vec<c64>> {
    let mut send = pool.messages(ctx.n_ranks());
    let (mine, copies) = send.split_first_mut().expect("a communicator has a rank"); // lint:allow(no-unwrap): ThreadComm runs at least one rank
    fill(mine);
    for m in copies {
        m.extend_from_slice(mine);
    }
    ctx.alltoallv_tagged(send, |m| m.len() * BYTES_PER_VALUE, CommPhase::Gathers)
}

/// What every transposition of a rank works with: its communicator, the
/// run's plan and batch schedule, its counters and its message pool.
pub(crate) struct Wire<'a> {
    pub ctx: &'a RankContext<Vec<c64>>,
    pub plan: &'a TranspositionPlan,
    pub batches: &'a TranspositionBatchPlan,
    pub counters: &'a mut RankCounters,
    pub pool: &'a mut MessagePool,
}

/// Drive one transposition through the double-buffered batch pipeline: post
/// the next batch, wait for the oldest, absorb it, release its buffers.
///
/// The participants are the flat ranks, each as itself: `pack(b, messages)`
/// fills batch `b`'s per-rank payloads (empty messages from the pool) and
/// `absorb(b, received)` consumes the messages received for it (indexed by
/// source rank), which then go back into the pool. Empty surplus batches
/// (more batches than a rank has energies) still post and drain, so every
/// rank executes the same collective sequence.
///
/// Every posted and received payload counts toward the in-flight buffer
/// footprint until its batch has been absorbed (`counters.peak_slab_bytes`).
pub(crate) fn exchange(
    wire: Wire<'_>,
    row: &Transposition,
    mut pack: impl FnMut(usize, &mut [Vec<c64>]),
    mut absorb: impl FnMut(usize, &[Vec<c64>]),
) {
    let Wire {
        ctx,
        batches,
        counters,
        pool,
        ..
    } = wire;
    let n_batches = batches.n_batches;
    let mut post = |b: usize, counters: &mut RankCounters, pool: &mut MessagePool| {
        let mut payloads = pool.messages(ctx.n_ranks());
        quatrex_probe::span(row.scatter_span, "transposition.pack", || {
            pack(b, &mut payloads)
        });
        let bytes = payload_bytes(&payloads);
        counters.track(bytes);
        counters.pack_bytes += bytes;
        let handle = ctx.alltoallv_start_tagged(payloads, |m| m.len() * BYTES_PER_VALUE, row.phase);
        (handle, bytes)
    };
    let mut in_flight: Option<(CommHandle<Vec<c64>>, u64)> = Some(post(0, counters, pool));
    let mut b = 0;
    while let Some((handle, sent_bytes)) = in_flight.take() {
        if b + 1 < n_batches {
            in_flight = Some(post(b + 1, counters, pool));
        }
        let received = handle.wait(ctx);
        let recv_bytes = payload_bytes(&received);
        counters.track(recv_bytes);
        counters.unpack_bytes += recv_bytes;
        absorb(b, &received);
        counters.release(sent_bytes + recv_bytes);
        pool.recycle(received);
        b += 1;
    }
}

/// Zero a kept buffer in place, under its own probe span.
pub(crate) fn zero_in_place(zero: impl FnOnce()) {
    quatrex_probe::span("buffers.zero", "buffers.zero", zero);
}

/// The element-major output of one convolution phase (`P` or `Σ`) on one
/// rank: the owned elements' [`ElementSlab`] of the lesser, greater and
/// retarded component, canonical and mirror side, in the layout the
/// backward transposition ships. The lesser/greater series are running
/// accumulators, filled batch by batch, one lane group per call, by the
/// `crate::convolution::*_group_accumulate` kernels while later batches are
/// still in flight; [`ConvSeries::finish`] builds the retarded series. One
/// series serves both phases of an iteration, zeroed in place before each.
pub(crate) struct ConvSeries {
    /// Race-detector id of the accumulators (the owning rank).
    owner: u64,
    /// Components `[lesser, greater, retarded]`.
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
    /// All-zero series for the elements `rank` owns.
    pub(crate) fn zeroed(plan: &TranspositionPlan, rank: usize) -> Self {
        Self {
            owner: rank as u64,
            slab: ElementSlab::zeroed(plan, rank, 3, true),
        }
    }

    /// The series, as the backward transposition ships them.
    pub(crate) fn slab(&self) -> &ElementSlab {
        &self.slab
    }

    /// Zero every series in place: the start of a convolution phase.
    pub(crate) fn zero(&mut self) {
        zero_in_place(|| self.slab.zero());
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
        let ne = self.slab.canonical[0].n_energies();
        let ElementSlab {
            canonical,
            mirror,
            groups,
            ..
        } = &mut self.slab;
        let ([lesser_ij, greater_ij, retarded_ij], [lesser_ji, greater_ji, retarded_ji]) =
            (split_components(canonical), split_components(mirror));
        for (g, info) in groups.iter().enumerate() {
            let [mut lc, mut gc] = [lesser_ij.group_mut(g), greater_ij.group_mut(g)];
            let [mut lm, mut gm] = [lesser_ji.group_mut(g), greater_ji.group_mut(g)];
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
            let (r_ij, r_ji) = (retarded_ij.group_mut(g), retarded_ji.group_mut(g));
            causal_retarded_group(r_ij, lc.rows(), gc.rows(), info.live, flops);
            if info.paired > 0 {
                causal_retarded_group(r_ji, lm.rows(), gm.rows(), info.paired, flops);
            }
        }
    }
}

/// The `[lesser, greater, retarded]` planes of one side of a series.
fn split_components(side: &mut [LanePlanes]) -> [&mut LanePlanes; 3] {
    let [lesser, greater, retarded] = side else {
        unreachable!("a convolution output holds three components")
    };
    [lesser, greater, retarded]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::slab::TranspositionBatchPlan;
    use quatrex_linalg::{cplx, CMatrix};
    use quatrex_runtime::ThreadComm;
    use quatrex_sparse::BlockTridiagonal;

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
            let mut pool = MessagePool::default();
            let mut absorbed = Vec::new();
            let wire = Wire {
                ctx: &ctx,
                plan,
                batches: &batches,
                counters: &mut counters,
                pool: &mut pool,
            };
            exchange(
                wire,
                row,
                |b, messages| {
                    let local_range = batches.local_ranges[group][b].clone();
                    let at = |c: usize, k: usize| &local[c][k];
                    plan.scatter_forward_batch(group, 2, at, local_range, messages)
                },
                |b, received| {
                    absorbed.push(b);
                    plan.absorb_forward_batch(group, &mut slab, received, batches.global_ranges(b));
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
