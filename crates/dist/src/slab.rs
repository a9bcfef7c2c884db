//! Owned data layouts of the two-level decomposition and their
//! (de)serialisation into all-to-all payloads.
//!
//! The SCBA cycle alternates between two layouts (paper Fig. 3):
//!
//! * **energy-major** (a `Vec<BlockTridiagonal>` per quantity): each rank owns
//!   a contiguous slice of energy points and stores one block-tridiagonal
//!   matrix per energy — the layout of the OBC + assembly + RGF phases;
//! * **element-major** ([`ElementSlab`]): each rank owns a contiguous slice of
//!   the *canonical element list* and stores, per element, the full energy
//!   series — the layout of the P/Σ convolutions (FFTs over energy). It is
//!   the one container of that layout: what a forward transposition delivers,
//!   what a convolution phase accumulates, what a backward one ships.
//!
//! [`TranspositionPlan`] fixes both partitions and the one wire format of the
//! `Alltoallv` messages that convert between them (Section 5.2): only the
//! canonical elements of a lesser/greater quantity travel — the mirror
//! elements are reconstructed from the NEGF symmetry `X^≶_ij = −X^≶*_ji` at
//! the receiving side. Retarded quantities do not obey the symmetry, so their
//! backward transposition ships canonical and mirror elements. Because
//! ownership is fixed by the plan, so is every message length:
//! [`TranspositionPlan::transposition_bytes`] is the exact off-rank volume of
//! each transposition, not an estimate.

use std::ops::Range;

use quatrex_core::convolution::{canonical_elements, ElementId};
use quatrex_core::EnergyResolved;
use quatrex_linalg::{c64, CMatrix};
use quatrex_runtime::CommPhase;
use quatrex_sparse::BlockTridiagonal;

use crate::partition::partition_even;
use crate::pipeline::TRANSPOSITIONS;

/// Bytes on the wire per complex value (complex128).
pub const BYTES_PER_VALUE: usize = 16;

// ---------------------------------------------------------------------------
// Shared complex128-stream primitives of the wire formats: the
// transpositions' and the spatial boundary-system messages, which ride the
// same byte-accounted `Alltoallv`.

/// Next value of a wire stream. The encoders fix every message length, so a
/// stream running dry is a wire-format bug, not an input error.
pub(crate) fn read_value<'a>(it: &mut impl Iterator<Item = &'a c64>) -> c64 {
    *it.next().expect("short wire message") // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
}

/// Append every entry of a matrix in row-major order.
pub(crate) fn push_matrix(buf: &mut Vec<c64>, m: &CMatrix) {
    let (nr, nc) = m.shape();
    for r in 0..nr {
        for c in 0..nc {
            buf.push(m[(r, c)]);
        }
    }
}

/// Read one `bs × bs` matrix written by [`push_matrix`].
pub(crate) fn read_matrix<'a>(it: &mut impl Iterator<Item = &'a c64>, bs: usize) -> CMatrix {
    let mut m = CMatrix::zeros(bs, bs);
    for r in 0..bs {
        for c in 0..bs {
            m[(r, c)] = read_value(it);
        }
    }
    m
}

/// Append a block-tridiagonal quantity: diagonals first, then per row the
/// upper and lower couplings.
pub(crate) fn push_bt(buf: &mut Vec<c64>, bt: &BlockTridiagonal) {
    let nb = bt.n_blocks();
    for i in 0..nb {
        push_matrix(buf, bt.diag(i));
    }
    for i in 0..nb.saturating_sub(1) {
        push_matrix(buf, bt.upper(i));
        push_matrix(buf, bt.lower(i));
    }
}

/// Read a block-tridiagonal quantity written by [`push_bt`].
pub(crate) fn read_bt<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    nb: usize,
    bs: usize,
) -> BlockTridiagonal {
    let mut bt = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        bt.set_block(i, i, read_matrix(it, bs));
    }
    for i in 0..nb.saturating_sub(1) {
        bt.set_block(i, i + 1, read_matrix(it, bs));
        bt.set_block(i + 1, i, read_matrix(it, bs));
    }
    bt
}

/// A rank's element-major slice: full energy series of the owned canonical
/// elements and of their mirrors.
#[derive(Debug, Clone)]
pub struct ElementSlab {
    /// Indices into the canonical element list owned by this rank.
    pub elements: Range<usize>,
    /// `canonical[c][local_element][energy]`.
    pub canonical: Vec<Vec<Vec<c64>>>,
    /// `mirror[c][local_element][energy]` — the series of the transposed
    /// element; for self-mirror elements this repeats the canonical series.
    pub mirror: Vec<Vec<Vec<c64>>>,
}

impl ElementSlab {
    /// An all-zero slab for `elements`, ready to absorb forward batches
    /// ([`TranspositionPlan::absorb_forward_batch`]). Energies that have not
    /// arrived yet read as zero.
    pub fn zeroed(elements: Range<usize>, n_components: usize, n_energies: usize) -> Self {
        let n_local = elements.len();
        let zero = || vec![vec![vec![c64::new(0.0, 0.0); n_energies]; n_local]; n_components];
        Self {
            elements,
            canonical: zero(),
            mirror: zero(),
        }
    }

    /// The lesser/greater series of local element `e` and of its mirror,
    /// `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]` — the operand layout of the
    /// pair kernels in `quatrex_core::convolution`.
    pub fn pair(&self, e: usize) -> [[&[c64]; 2]; 2] {
        [&self.canonical, &self.mirror].map(|side| [&side[0][e][..], &side[1][e][..]])
    }
}

/// The fixed geometry of the energy↔element transposition: partitions,
/// canonical element list and wire format, shared by every rank.
///
/// The participants are the **flat ranks** of the communicator, whatever the
/// rank grid: every rank owns a contiguous slice of the energies and of the
/// canonical elements, holds their energy-major and element-major data and
/// exchanges it as itself. An energy group of the two-level decomposition
/// (`P_S > 1`) owns the union of its members' slices — contiguous, since the
/// slices ascend with the rank.
#[derive(Debug, Clone)]
pub struct TranspositionPlan {
    /// Number of transposition participants (flat communicator ranks).
    pub n_ranks: usize,
    /// Number of energy points.
    pub n_energies: usize,
    /// Number of transport-cell blocks.
    pub n_blocks: usize,
    /// Transport-cell block size.
    pub block_size: usize,
    /// Canonical (symmetry-reduced) element list, in fixed order.
    pub elements: Vec<ElementId>,
    /// Energy ownership per rank (contiguous, ascending).
    pub energy_ranges: Vec<Range<usize>>,
    /// Canonical-element ownership per rank (contiguous, ascending).
    pub element_ranges: Vec<Range<usize>>,
}

impl TranspositionPlan {
    /// Build a plan over `n_ranks` flat ranks from the problem shape: energies
    /// and canonical elements are each split evenly over the ranks.
    pub fn new(n_blocks: usize, block_size: usize, n_energies: usize, n_ranks: usize) -> Self {
        let elements = canonical_elements(n_blocks, block_size);
        let energy_ranges = partition_even(n_energies, n_ranks);
        let element_ranges = partition_even(elements.len(), n_ranks);
        Self {
            n_ranks,
            n_energies,
            n_blocks,
            block_size,
            elements,
            energy_ranges,
            element_ranges,
        }
    }

    /// Number of canonical elements.
    pub fn n_canonical(&self) -> usize {
        self.elements.len()
    }

    /// Exact off-rank bytes of one iteration's transposition `phase` (`FwdG`,
    /// `BwdP`, `FwdW` or `BwdSigma`): for every pair of distinct ranks, at each
    /// of the energy owner's energies, the element owner's canonical values of
    /// every component plus its non-self-mirror values of every component that
    /// is not NEGF-symmetric. Batching only splits the energies, so this holds
    /// at any `B`; a run's `DistReport::alltoall_bytes_per_phase` entry is
    /// this times `full_iterations`.
    pub fn transposition_bytes(&self, phase: CommPhase) -> u64 {
        let row = TRANSPOSITIONS.iter().find(|t| t.phase == phase);
        // lint:allow(no-unwrap): only the four transposition phases have a wire format to count
        let symmetric = row.expect("not a transposition phase").symmetric;
        let mirrored = symmetric.iter().filter(|&&s| !s).count();
        let values: usize = (0..self.n_ranks)
            .map(|q| {
                let elems = &self.elements[self.element_ranges[q].clone()];
                let non_self = elems.iter().filter(|id| !id.is_self_mirror()).count();
                let per_energy = symmetric.len() * elems.len() + mirrored * non_self;
                per_energy * (self.n_energies - self.energy_ranges[q].len())
            })
            .sum();
        (values * BYTES_PER_VALUE) as u64
    }

    /// Forward serialisation (energy-major → element-major) of one energy
    /// batch: build the per-destination messages for the symmetric components
    /// `comps` (`comps[c][local_energy]`, the rank's full local data), carrying
    /// only the energies in `local` (a sub-range of this rank's *local* energy
    /// indices; `0..n_local` ships everything at once).
    ///
    /// Wire format of the message to rank `q`, in order: for every component,
    /// for every canonical element owned by `q` (ascending), the values at
    /// the batch's energies (ascending). The components must be NEGF-symmetric:
    /// the receiver rebuilds their mirrors.
    pub fn scatter_forward_batch(
        &self,
        rank: usize,
        comps: &[&[BlockTridiagonal]],
        local: Range<usize>,
    ) -> Vec<Vec<c64>> {
        let my_energies = self.energy_ranges[rank].clone();
        for c in comps {
            assert_eq!(c.len(), my_energies.len());
        }
        (0..self.n_ranks)
            .map(|q| {
                let elems = self.element_ranges[q].clone();
                let mut msg = Vec::with_capacity(comps.len() * elems.len() * local.len());
                for comp in comps {
                    for e in elems.clone() {
                        let id = self.elements[e];
                        for bt in comp[local.clone()].iter() {
                            msg.push(id.value_in(bt));
                        }
                    }
                }
                msg
            })
            .collect()
    }

    /// Forward deserialisation at the element owner, one batch at a time:
    /// absorb the per-source messages (in rank order) into an accumulating
    /// [`ElementSlab`]. `received[src]` carries source `src`'s energies in `src_ranges[src]`
    /// (global indices; the batch's slice of the source's energy range). The
    /// canonical values are written and the mirror values of the arrived
    /// energies are reconstructed from `X^≶_ji = −X^≶*_ij` immediately, so the
    /// per-batch convolution kernels can consume the batch while the next one
    /// is still in flight.
    pub fn absorb_forward_batch(
        &self,
        rank: usize,
        slab: &mut ElementSlab,
        received: Vec<Vec<c64>>,
        src_ranges: &[Range<usize>],
    ) {
        let elems = self.element_ranges[rank].clone();
        let n_local = elems.len();
        for (src, msg) in received.iter().enumerate() {
            let src_energies = src_ranges[src].clone();
            let mut it = msg.iter();
            for (c, canon_comp) in slab.canonical.iter_mut().enumerate() {
                for (e_local, series) in canon_comp.iter_mut().enumerate().take(n_local) {
                    let id = self.elements[elems.start + e_local];
                    let self_mirror = id.is_self_mirror();
                    for k in src_energies.clone() {
                        let v = read_value(&mut it);
                        series[k] = v;
                        // Mirror of the arrived energy: its own value for
                        // self-mirror elements, the NEGF reconstruction
                        // otherwise.
                        slab.mirror[c][e_local][k] = if self_mirror { v } else { -v.conj() };
                    }
                }
            }
            assert!(it.next().is_none(), "long forward message");
        }
    }

    /// Backward serialisation (element-major → energy-major) of one energy
    /// batch: build the per-destination messages for the components of
    /// `slab` (this rank's element slice); the message to rank `q` carries
    /// only the energies in `dst_ranges[q]` (global indices; the batch's
    /// slice of `q`'s energy range — `energy_ranges` itself ships everything
    /// at once). `symmetric[c]` states whether component `c` obeys
    /// `X_ij = −X*_ji` (lesser/greater-like) — the same mask
    /// [`Self::absorb_backward_batch`] decodes with. That mask alone decides
    /// whether the mirror series ride along or are reconstructed from the
    /// NEGF symmetry at the destination.
    ///
    /// Wire format of the message to rank `q`: for every component, for every
    /// canonical element owned by this rank (ascending), the values at the
    /// batch's energies (ascending); then for every non-symmetric component
    /// (retarded-like: no exploitable symmetry), the mirror series of the
    /// non-self-mirror elements.
    pub fn scatter_backward_batch(
        &self,
        rank: usize,
        slab: &ElementSlab,
        symmetric: &[bool],
        dst_ranges: &[Range<usize>],
    ) -> Vec<Vec<c64>> {
        let elems = self.element_ranges[rank].clone();
        debug_assert_eq!(slab.elements, elems);
        (0..self.n_ranks)
            .map(|q| {
                let dst_energies = dst_ranges[q].clone();
                let mut msg = Vec::new();
                for comp in &slab.canonical {
                    for series in comp {
                        for k in dst_energies.clone() {
                            msg.push(series[k]);
                        }
                    }
                }
                for (comp, &symmetric) in slab.mirror.iter().zip(symmetric) {
                    if symmetric {
                        continue;
                    }
                    for (e_local, series) in comp.iter().enumerate() {
                        if self.elements[elems.start + e_local].is_self_mirror() {
                            continue;
                        }
                        for k in dst_energies.clone() {
                            msg.push(series[k]);
                        }
                    }
                }
                msg
            })
            .collect()
    }

    /// Backward deserialisation at the energy owner, one batch at a time:
    /// absorb the per-source messages into pre-allocated energy-major outputs
    /// (one per component; `symmetric` is the mask the messages were
    /// serialised with). `received` carries, from
    /// every source, this rank's energies in `my_range` (global indices; the
    /// batch's slice of this rank's energy range). Only the matrices of those
    /// energies are touched.
    pub fn absorb_backward_batch(
        &self,
        rank: usize,
        out: &mut [EnergyResolved],
        received: Vec<Vec<c64>>,
        symmetric: &[bool],
        my_range: Range<usize>,
    ) {
        let my_start = self.energy_ranges[rank].start;
        for (src, msg) in received.iter().enumerate() {
            let src_elems = self.element_ranges[src].clone();
            let mut it = msg.iter();
            for (c, comp_out) in out.iter_mut().enumerate() {
                for e in src_elems.clone() {
                    let id = self.elements[e];
                    for k in my_range.clone() {
                        let bt = &mut comp_out[k - my_start];
                        let v = read_value(&mut it);
                        set_element(bt, id, v);
                        // Symmetric mirrors are reconstructed on the fly;
                        // the others arrive explicitly below.
                        if symmetric[c] && !id.is_self_mirror() {
                            set_element(bt, id.mirror(), -v.conj());
                        }
                    }
                }
            }
            for (c, comp_out) in out.iter_mut().enumerate() {
                if symmetric[c] {
                    continue;
                }
                for e in src_elems.clone() {
                    let id = self.elements[e];
                    if id.is_self_mirror() {
                        continue;
                    }
                    let m = id.mirror();
                    for k in my_range.clone() {
                        let v = read_value(&mut it);
                        set_element(&mut comp_out[k - my_start], m, v);
                    }
                }
            }
            assert!(it.next().is_none(), "long backward message");
        }
    }
}

/// The energy-batch schedule of one iteration's transpositions (the paper's
/// communication/computation overlap): every rank's owned energy range is
/// cut into `n_batches` contiguous sub-ranges, and each transposition ships
/// one sub-range per `Alltoallv` instead of the whole range at once. The
/// solver double-buffers the batches — batch `k+1` is posted non-blocking
/// ([`quatrex_runtime::RankContext::alltoallv_start_tagged`]) while batch `k` is
/// unpacked and its convolution contribution accumulated — which bounds the
/// in-flight transposition buffers to a batch (`DistReport::peak_slab_bytes`)
/// instead of a whole iteration.
///
/// With `n_batches = 1` the single batch covers every range in full, and the
/// pipeline degenerates to the original blocking transposition bit-for-bit.
/// More batches than a rank has energies leave the surplus batches empty —
/// harmless degenerate collectives that ship no bytes.
#[derive(Debug, Clone)]
pub struct TranspositionBatchPlan {
    /// Number of batches every transposition is cut into (`B ≥ 1`).
    pub n_batches: usize,
    /// `local_ranges[rank][batch]` — sub-range of the rank's *local* energy
    /// indices shipped in that batch. Per rank the sub-ranges are
    /// contiguous, ascending, and cover `0..n_local` exactly.
    pub local_ranges: Vec<Vec<Range<usize>>>,
}

impl TranspositionBatchPlan {
    /// Cut every rank's energy range of `plan` into `n_batches` near-equal
    /// contiguous batches. Deterministic: every rank derives the identical
    /// schedule from the shared plan.
    pub fn new(plan: &TranspositionPlan, n_batches: usize) -> Self {
        assert!(n_batches >= 1, "at least one batch per transposition");
        let local_ranges = plan
            .energy_ranges
            .iter()
            .map(|r| partition_even(r.len(), n_batches))
            .collect();
        Self {
            n_batches,
            local_ranges,
        }
    }

    /// The *global* energy sub-range `rank` contributes to batch `b`.
    pub fn global_range(&self, plan: &TranspositionPlan, rank: usize, b: usize) -> Range<usize> {
        let start = plan.energy_ranges[rank].start;
        let local = &self.local_ranges[rank][b];
        (start + local.start)..(start + local.end)
    }

    /// The global sub-ranges of every rank for batch `b`, in rank order
    /// (the per-source shapes of one forward batch, and the per-destination
    /// shapes of one backward batch).
    pub fn global_ranges(&self, plan: &TranspositionPlan, b: usize) -> Vec<Range<usize>> {
        (0..plan.n_ranks)
            .map(|r| self.global_range(plan, r, b))
            .collect()
    }

    /// All global energy indices arriving in forward batch `b` (ascending —
    /// the ranks' ranges are ordered and disjoint). This is the batch view
    /// the accumulation kernels in `quatrex_core::convolution` consume.
    pub fn arrived_global(&self, plan: &TranspositionPlan, b: usize) -> Vec<usize> {
        let mut v = Vec::new();
        for r in 0..plan.n_ranks {
            v.extend(self.global_range(plan, r, b));
        }
        v
    }
}

/// Write one scalar element of a BT quantity.
fn set_element(bt: &mut BlockTridiagonal, id: ElementId, value: c64) {
    use quatrex_core::convolution::BlockPos;
    let block = match id.pos {
        BlockPos::Diag(i) => bt.diag_mut(i),
        BlockPos::Upper(i) => bt.upper_mut(i),
        BlockPos::Lower(i) => bt.lower_mut(i),
    };
    block[(id.row, id.col)] = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::{cplx, CMatrix};
    use quatrex_runtime::{CommPhase, RankContext, ThreadComm};

    /// An exactly NEGF-symmetric synthetic quantity.
    fn symmetric_quantity(ne: usize, nb: usize, bs: usize, seed: f64) -> EnergyResolved {
        (0..ne)
            .map(|k| {
                let mut bt = BlockTridiagonal::zeros(nb, bs);
                for i in 0..nb {
                    let raw = CMatrix::from_fn(bs, bs, |r, c| {
                        cplx(
                            (seed + (k * 7 + i * 3 + r * 5 + c) as f64).sin(),
                            (seed * 1.7 + (k + i + 2 * r + 3 * c) as f64).cos(),
                        )
                    });
                    bt.set_block(i, i, raw.negf_antihermitian_part());
                }
                for i in 0..nb - 1 {
                    let u = CMatrix::from_fn(bs, bs, |r, c| {
                        cplx(
                            (seed + (k * 11 + i + r + 4 * c) as f64).cos() * 0.3,
                            (seed + (k * 5 + 2 * i + 3 * r + c) as f64).sin() * 0.2,
                        )
                    });
                    bt.set_block(i, i + 1, u.clone());
                    bt.set_block(i + 1, i, u.dagger().scaled(cplx(-1.0, 0.0)));
                }
                bt
            })
            .collect()
    }

    /// A quantity without the NEGF symmetry (retarded-like): every stored
    /// value distinct.
    fn raw_quantity(ne: usize, nb: usize, bs: usize) -> EnergyResolved {
        (0..ne)
            .map(|k| {
                let block = |i: usize, j: usize| {
                    CMatrix::from_fn(bs, bs, |r, c| {
                        cplx((k * 31 + i * 7 + j * 3) as f64, (r * bs + c) as f64)
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

    /// Ship a lesser/greater pair forward (`FwdG`), then back with a
    /// retarded-like third component beside it (`BwdP`): both directions
    /// restore every value exactly, and each phase ships exactly the plan's
    /// count — what the communicator tallied for the phase.
    fn roundtrip(n_ranks: usize) {
        let (nb, bs, ne) = (3, 2, 8);
        let plan = std::sync::Arc::new(TranspositionPlan::new(nb, bs, ne, n_ranks));
        let quantities = std::sync::Arc::new([
            symmetric_quantity(ne, nb, bs, 0.3),
            symmetric_quantity(ne, nb, bs, 1.9),
            raw_quantity(ne, nb, bs),
        ]);
        let series = |x: &EnergyResolved, id: ElementId| -> Vec<c64> {
            x.iter().map(|bt| id.value_in(bt)).collect()
        };
        let (fwd, bwd) = (&TRANSPOSITIONS[0], &TRANSPOSITIONS[1]);
        assert_eq!((fwd.phase, bwd.phase), (CommPhase::FwdG, CommPhase::BwdP));

        let (plan2, q2) = (
            std::sync::Arc::clone(&plan),
            std::sync::Arc::clone(&quantities),
        );
        let (results, stats) = ThreadComm::run(n_ranks, move |ctx: RankContext<Vec<c64>>| {
            let (plan, q) = (&*plan2, &*q2);
            let rank = ctx.rank();
            let my_e = plan.energy_ranges[rank].clone();
            let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;
            // forward: energy-major -> element-major
            let local = [&q[0][my_e.clone()], &q[1][my_e.clone()]];
            let payloads = plan.scatter_forward_batch(rank, &local, 0..my_e.len());
            let recv = ctx.alltoallv_tagged(payloads, wire, fwd.phase);
            let mut slab = ElementSlab::zeroed(plan.element_ranges[rank].clone(), 2, ne);
            plan.absorb_forward_batch(rank, &mut slab, recv, &plan.energy_ranges);
            // backward: element-major -> energy-major, plus a retarded-like
            // component whose mirrors must travel
            let mut back_slab = slab.clone();
            let owned = &plan.elements[plan.element_ranges[rank].clone()];
            back_slab
                .canonical
                .push(owned.iter().map(|&id| series(&q[2], id)).collect());
            back_slab
                .mirror
                .push(owned.iter().map(|&id| series(&q[2], id.mirror())).collect());
            let back =
                plan.scatter_backward_batch(rank, &back_slab, bwd.symmetric, &plan.energy_ranges);
            let recv = ctx.alltoallv_tagged(back, wire, bwd.phase);
            let mut out = vec![vec![BlockTridiagonal::zeros(nb, bs); my_e.len()]; 3];
            plan.absorb_backward_batch(rank, &mut out, recv, bwd.symmetric, my_e);
            (slab, out)
        });

        for (rank, (slab, out)) in results.iter().enumerate() {
            // Element slabs carry the exact canonical and mirror series.
            for (e_local, e) in plan.element_ranges[rank].clone().enumerate() {
                let id = plan.elements[e];
                for c in 0..2 {
                    let q = &quantities[c];
                    assert_eq!(slab.canonical[c][e_local], series(q, id), "{c} {id:?}");
                    assert_eq!(
                        slab.mirror[c][e_local],
                        series(q, id.mirror()),
                        "{c} {id:?}"
                    );
                }
            }
            // The round trip restores the energy-major slices exactly.
            for (k_local, k) in plan.energy_ranges[rank].clone().enumerate() {
                for (c, q) in quantities.iter().enumerate() {
                    assert!(out[c][k_local].to_dense().approx_eq(&q[k].to_dense(), 0.0));
                }
            }
        }

        for row in [fwd, bwd] {
            let planned = plan.transposition_bytes(row.phase);
            assert_eq!(stats.phase_bytes(row.phase), planned, "{:?}", row.phase);
            assert_eq!(planned == 0, n_ranks == 1);
        }
    }

    #[test]
    fn roundtrip_is_exact_and_ships_the_planned_bytes() {
        for n_ranks in [1usize, 2, 3, 4] {
            roundtrip(n_ranks);
        }
    }

    #[test]
    fn batched_transposition_reproduces_the_unbatched_slabs_exactly() {
        // Forward and backward batches must reassemble the identical slabs
        // and energy-major matrices the single-shot path produces, for every
        // batch count including the degenerate B > n_energies_per_group case.
        let (nb, bs, ne, n_groups) = (3usize, 2usize, 8usize, 2usize);
        let plan = TranspositionPlan::new(nb, bs, ne, n_groups);
        let gl = symmetric_quantity(ne, nb, bs, 0.3);
        let gg = symmetric_quantity(ne, nb, bs, 1.9);
        let gr = raw_quantity(ne, nb, bs);
        let local = |x: &EnergyResolved, src: usize| -> Vec<BlockTridiagonal> {
            x[plan.energy_ranges[src].clone()].to_vec()
        };
        let series = |id: ElementId| -> Vec<c64> { gr.iter().map(|bt| id.value_in(bt)).collect() };
        let bwd = &TRANSPOSITIONS[1];
        for b in [1usize, 2, 3, 7] {
            let batches = TranspositionBatchPlan::new(&plan, b);
            // Forward: batch-wise absorption must reproduce the
            // single-shot slab of every group exactly.
            let mut slabs = Vec::new();
            for group in 0..n_groups {
                let mut want =
                    ElementSlab::zeroed(plan.element_ranges[group].clone(), 2, plan.n_energies);
                plan.absorb_forward_batch(
                    group,
                    &mut want,
                    (0..n_groups)
                        .map(|src| {
                            let mut p = plan.scatter_forward_batch(
                                src,
                                &[&local(&gl, src), &local(&gg, src)],
                                0..plan.energy_ranges[src].len(),
                            );
                            std::mem::take(&mut p[group])
                        })
                        .collect(),
                    &plan.energy_ranges,
                );
                let mut slab =
                    ElementSlab::zeroed(plan.element_ranges[group].clone(), 2, plan.n_energies);
                for batch in 0..b {
                    let recv = (0..n_groups)
                        .map(|src| {
                            let mut p = plan.scatter_forward_batch(
                                src,
                                &[&local(&gl, src), &local(&gg, src)],
                                batches.local_ranges[src][batch].clone(),
                            );
                            std::mem::take(&mut p[group])
                        })
                        .collect();
                    plan.absorb_forward_batch(
                        group,
                        &mut slab,
                        recv,
                        &batches.global_ranges(&plan, batch),
                    );
                }
                assert_eq!(slab.canonical, want.canonical, "canonical B={b}");
                assert_eq!(slab.mirror, want.mirror, "mirror B={b}");
                // A retarded-like third component for the backward direction.
                let owned = &plan.elements[plan.element_ranges[group].clone()];
                slab.canonical
                    .push(owned.iter().map(|&id| series(id)).collect());
                slab.mirror
                    .push(owned.iter().map(|&id| series(id.mirror())).collect());
                slabs.push(slab);
            }
            // Backward: batch-wise shipping must reproduce the
            // single-shot energy-major gather of every destination.
            for dst in 0..n_groups {
                let n_local = plan.energy_ranges[dst].len();
                let zeros = || -> Vec<EnergyResolved> {
                    vec![vec![BlockTridiagonal::zeros(nb, bs); n_local]; 3]
                };
                let mut want_out = zeros();
                plan.absorb_backward_batch(
                    dst,
                    &mut want_out,
                    (0..n_groups)
                        .map(|src| {
                            let mut p = plan.scatter_backward_batch(
                                src,
                                &slabs[src],
                                bwd.symmetric,
                                &plan.energy_ranges,
                            );
                            std::mem::take(&mut p[dst])
                        })
                        .collect(),
                    bwd.symmetric,
                    plan.energy_ranges[dst].clone(),
                );
                let mut got = zeros();
                for batch in 0..b {
                    let recv = (0..n_groups)
                        .map(|src| {
                            let mut p = plan.scatter_backward_batch(
                                src,
                                &slabs[src],
                                bwd.symmetric,
                                &batches.global_ranges(&plan, batch),
                            );
                            std::mem::take(&mut p[dst])
                        })
                        .collect();
                    plan.absorb_backward_batch(
                        dst,
                        &mut got,
                        recv,
                        bwd.symmetric,
                        batches.global_range(&plan, dst, batch),
                    );
                }
                for c in 0..3 {
                    for k in 0..n_local {
                        assert!(
                            got[c][k]
                                .to_dense()
                                .approx_eq(&want_out[c][k].to_dense(), 0.0),
                            "backward B={b} comp {c} energy {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_plan_covers_every_energy_exactly_once() {
        let plan = TranspositionPlan::new(3, 2, 10, 3);
        for b in [1usize, 2, 4, 11] {
            let batches = TranspositionBatchPlan::new(&plan, b);
            // Per group the local sub-ranges tile 0..n_local.
            for (g, ranges) in batches.local_ranges.iter().enumerate() {
                assert_eq!(ranges.len(), b);
                let mut next = 0usize;
                for r in ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, plan.energy_ranges[g].len());
            }
            // The union of the arrived batches is the full grid, in order.
            let mut all = Vec::new();
            for batch in 0..b {
                all.extend(batches.arrived_global(&plan, batch));
            }
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>());
        }
    }
}
