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
//! [`TranspositionPlan`] fixes both partitions and the wire format of the
//! `Alltoallv` messages that convert between them. With
//! `symmetry_reduced = true` (Section 5.2) only the canonical elements travel
//! — the mirror elements are reconstructed from the NEGF symmetry
//! `X^≶_ij = −X^≶*_ji` at the receiving side, halving the volume exactly as
//! [`quatrex_runtime::TranspositionVolume`] models. Retarded quantities do not
//! obey the symmetry, so their backward transposition always ships canonical
//! and mirror elements.

use std::ops::Range;

use quatrex_core::convolution::{canonical_elements, ElementId};
use quatrex_core::EnergyResolved;
use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;

use crate::partition::partition_even;

/// Bytes on the wire per complex value (complex128).
pub const BYTES_PER_VALUE: usize = 16;

// ---------------------------------------------------------------------------
// Shared complex128-stream primitives of the group-level wire formats (the
// spatial boundary-system messages ride the same byte-accounted `Alltoallv`
// as the transpositions).

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
    /// Ship only canonical elements for symmetric quantities (Section 5.2).
    pub symmetry_reduced: bool,
}

impl TranspositionPlan {
    /// Build a plan over `n_ranks` flat ranks from the problem shape: energies
    /// and canonical elements are each split evenly over the ranks.
    pub fn new(
        n_blocks: usize,
        block_size: usize,
        n_energies: usize,
        n_ranks: usize,
        symmetry_reduced: bool,
    ) -> Self {
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
            symmetry_reduced,
        }
    }

    /// Number of canonical elements.
    pub fn n_canonical(&self) -> usize {
        self.elements.len()
    }

    /// Number of stored scalar values per energy of the full BT pattern.
    pub fn stored_values(&self) -> usize {
        quatrex_core::convolution::stored_values(self.n_blocks, self.block_size)
    }

    /// Forward serialisation (energy-major → element-major) of one energy
    /// batch: build the per-destination messages for the symmetric components
    /// `comps` (`comps[c][local_energy]`, the rank's full local data), carrying
    /// only the energies in `local` (a sub-range of this rank's *local* energy
    /// indices; `0..n_local` ships everything at once).
    ///
    /// Wire format of the message to rank `q`, in order: for every component,
    /// for every canonical element owned by `q` (ascending), the values at
    /// the batch's energies (ascending); then, when not symmetry-reduced, the
    /// same loop again for the mirror elements (self-mirror elements skipped).
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
                let mut msg = Vec::with_capacity(2 * comps.len() * elems.len() * local.len());
                for comp in comps {
                    for e in elems.clone() {
                        let id = self.elements[e];
                        for bt in comp[local.clone()].iter() {
                            msg.push(id.value_in(bt));
                        }
                    }
                }
                if !self.symmetry_reduced {
                    for comp in comps {
                        for e in elems.clone() {
                            let id = self.elements[e];
                            if id.is_self_mirror() {
                                continue;
                            }
                            let m = id.mirror();
                            for bt in comp[local.clone()].iter() {
                                msg.push(m.value_in(bt));
                            }
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
    /// energies are filled immediately — read from the message when the plan
    /// is not symmetry-reduced, reconstructed from `X^≶_ji = −X^≶*_ij`
    /// otherwise — so the per-batch convolution kernels can consume the batch
    /// while the next one is still in flight.
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
                        let v = *it.next().expect("short forward message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                        series[k] = v;
                        // Mirror of the arrived energy: its own value for
                        // self-mirror elements, the NEGF reconstruction under
                        // symmetry reduction, and the explicitly shipped value
                        // below otherwise (which overwrites this one).
                        slab.mirror[c][e_local][k] = if self_mirror { v } else { -v.conj() };
                    }
                }
            }
            if !self.symmetry_reduced {
                for mirror_comp in slab.mirror.iter_mut() {
                    for (e_local, series) in mirror_comp.iter_mut().enumerate().take(n_local) {
                        if self.elements[elems.start + e_local].is_self_mirror() {
                            continue;
                        }
                        for k in src_energies.clone() {
                            // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                            series[k] = *it.next().expect("short forward message");
                        }
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
    /// [`Self::absorb_backward_batch`] decodes with. Whether the mirror
    /// series ride along or are reconstructed from the NEGF symmetry at the
    /// destination is decided by that mask.
    ///
    /// Wire format of the message to rank `q`: for every component, for every
    /// canonical element owned by this rank (ascending), the values at the
    /// batch's energies (ascending); then for every component, the mirror
    /// series of the non-self-mirror elements — skipped for symmetric
    /// components under symmetry reduction (retarded-like components have no
    /// exploitable symmetry: canonical and mirror series always ship).
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
                    if symmetric && self.symmetry_reduced {
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
                        let v = *it.next().expect("short backward message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
                        set_element(bt, id, v);
                        // Symmetric mirrors are reconstructed on the fly; the
                        // raw (or full) mirrors arriving below overwrite this
                        // value when they travel explicitly.
                        if symmetric[c] && !id.is_self_mirror() {
                            set_element(bt, id.mirror(), -v.conj());
                        }
                    }
                }
            }
            for (c, comp_out) in out.iter_mut().enumerate() {
                if symmetric[c] && self.symmetry_reduced {
                    continue;
                }
                for e in src_elems.clone() {
                    let id = self.elements[e];
                    if id.is_self_mirror() {
                        continue;
                    }
                    let m = id.mirror();
                    for k in my_range.clone() {
                        let v = *it.next().expect("short backward message"); // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
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

/// Off-rank wire bytes of any per-destination `Alltoallv` payload: messages
/// to `rank` itself stay local and cost nothing. Shared by the transposition
/// accounting and the spatial boundary-system accounting so the
/// "self-messages are free" convention lives in exactly one place.
pub fn off_rank_payload_bytes(rank: usize, payloads: &[Vec<c64>]) -> u64 {
    payloads
        .iter()
        .enumerate()
        .filter(|(q, _)| *q != rank)
        .map(|(_, m)| (m.len() * BYTES_PER_VALUE) as u64)
        .sum()
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

    fn roundtrip(n_ranks: usize, symmetry_reduced: bool) {
        let (nb, bs, ne) = (3, 2, 8);
        let plan = std::sync::Arc::new(TranspositionPlan::new(
            nb,
            bs,
            ne,
            n_ranks,
            symmetry_reduced,
        ));
        let gl = std::sync::Arc::new(symmetric_quantity(ne, nb, bs, 0.3));
        let gg = std::sync::Arc::new(symmetric_quantity(ne, nb, bs, 1.9));

        let plan2 = std::sync::Arc::clone(&plan);
        let gl2 = std::sync::Arc::clone(&gl);
        let gg2 = std::sync::Arc::clone(&gg);
        let (results, stats) = ThreadComm::run(n_ranks, move |ctx: RankContext<Vec<c64>>| {
            let rank = ctx.rank();
            let my_e = plan2.energy_ranges[rank].clone();
            let local_l: Vec<BlockTridiagonal> = gl2[my_e.clone()].to_vec();
            let local_g: Vec<BlockTridiagonal> = gg2[my_e.clone()].to_vec();
            // forward: energy-major -> element-major
            let payloads = plan2.scatter_forward_batch(rank, &[&local_l, &local_g], 0..my_e.len());
            let sent = off_rank_payload_bytes(rank, &payloads);
            let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;
            let recv = ctx.alltoallv_tagged(payloads, wire, CommPhase::Other);
            let mut slab = ElementSlab::zeroed(plan2.element_ranges[rank].clone(), 2, ne);
            plan2.absorb_forward_batch(rank, &mut slab, recv, &plan2.energy_ranges);
            // backward: element-major -> energy-major (as-is)
            let back =
                plan2.scatter_backward_batch(rank, &slab, &[true, true], &plan2.energy_ranges);
            let recv = ctx.alltoallv_tagged(back, wire, CommPhase::Other);
            let mut out = vec![vec![BlockTridiagonal::zeros(nb, bs); my_e.len()]; 2];
            plan2.absorb_backward_batch(rank, &mut out, recv, &[true, true], my_e);
            (slab, out, sent)
        });

        // Element slabs must carry the exact series of both quantities.
        let series = |x: &EnergyResolved, id: ElementId| -> Vec<c64> {
            x.iter().map(|bt| id.value_in(bt)).collect()
        };
        for (rank, (slab, out, _)) in results.iter().enumerate() {
            for (e_local, e) in plan.element_ranges[rank].clone().enumerate() {
                let id = plan.elements[e];
                let want_l = series(&gl, id);
                let want_g = series(&gg, id);
                assert_eq!(
                    slab.canonical[0][e_local], want_l,
                    "canonical lesser {id:?}"
                );
                assert_eq!(
                    slab.canonical[1][e_local], want_g,
                    "canonical greater {id:?}"
                );
                let m = id.mirror();
                let want_ml = series(&gl, m);
                assert_eq!(slab.mirror[0][e_local], want_ml, "mirror lesser {id:?}");
            }
            // Round trip restores the energy-major slices exactly.
            for (k_local, k) in plan.energy_ranges[rank].clone().enumerate() {
                assert!(out[0][k_local].to_dense().approx_eq(&gl[k].to_dense(), 0.0));
                assert!(out[1][k_local].to_dense().approx_eq(&gg[k].to_dense(), 0.0));
            }
        }

        // Byte accounting: measured == expected exactly.
        let total_sent: u64 = results.iter().map(|(_, _, s)| *s).sum();
        assert_eq!(
            stats
                .alltoall_bytes
                .load(std::sync::atomic::Ordering::Relaxed)
                % 2,
            0
        );
        assert!(total_sent > 0 || n_ranks == 1);
        if symmetry_reduced {
            // Exactly the canonical values travel, forward and backward.
            let mut expect = 0u64;
            for r in 0..n_ranks {
                for q in 0..n_ranks {
                    if q == r {
                        continue;
                    }
                    expect += 2
                        * 2
                        * (plan.element_ranges[q].len()
                            * plan.energy_ranges[r].len()
                            * BYTES_PER_VALUE) as u64;
                }
            }
            let measured = stats
                .alltoall_bytes
                .load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(measured, expect);
        }
    }

    #[test]
    fn roundtrip_is_exact_symmetry_reduced() {
        for n_ranks in [1usize, 2, 4] {
            roundtrip(n_ranks, true);
        }
    }

    #[test]
    fn roundtrip_is_exact_full_wire_format() {
        for n_ranks in [1usize, 2, 3] {
            roundtrip(n_ranks, false);
        }
    }

    #[test]
    fn batched_transposition_reproduces_the_unbatched_slabs_exactly() {
        // Forward and backward batches must reassemble the identical slabs
        // and energy-major matrices the single-shot path produces, for every
        // batch count including the degenerate B > n_energies_per_group case.
        let (nb, bs, ne, n_groups) = (3usize, 2usize, 8usize, 2usize);
        for symmetry_reduced in [true, false] {
            let plan = TranspositionPlan::new(nb, bs, ne, n_groups, symmetry_reduced);
            let gl = symmetric_quantity(ne, nb, bs, 0.3);
            let gg = symmetric_quantity(ne, nb, bs, 1.9);
            let local = |x: &EnergyResolved, src: usize| -> Vec<BlockTridiagonal> {
                x[plan.energy_ranges[src].clone()].to_vec()
            };
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
                    slabs.push(slab);
                }

                // Backward: batch-wise shipping must reproduce the
                // single-shot energy-major gather of every destination.
                for dst in 0..n_groups {
                    let n_local = plan.energy_ranges[dst].len();
                    let zeros = || -> Vec<EnergyResolved> {
                        vec![vec![BlockTridiagonal::zeros(nb, bs); n_local]; 2]
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
                                    &[true, true],
                                    &plan.energy_ranges,
                                );
                                std::mem::take(&mut p[dst])
                            })
                            .collect(),
                        &[true, true],
                        plan.energy_ranges[dst].clone(),
                    );
                    let mut got = zeros();
                    for batch in 0..b {
                        let recv = (0..n_groups)
                            .map(|src| {
                                let mut p = plan.scatter_backward_batch(
                                    src,
                                    &slabs[src],
                                    &[true, true],
                                    &batches.global_ranges(&plan, batch),
                                );
                                std::mem::take(&mut p[dst])
                            })
                            .collect();
                        plan.absorb_backward_batch(
                            dst,
                            &mut got,
                            recv,
                            &[true, true],
                            batches.global_range(&plan, dst, batch),
                        );
                    }
                    for c in 0..2 {
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
    }

    #[test]
    fn batch_plan_covers_every_energy_exactly_once() {
        let plan = TranspositionPlan::new(3, 2, 10, 3, true);
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

    #[test]
    fn symmetry_reduction_roughly_halves_the_wire_volume() {
        let (nb, bs, ne, n_ranks) = (4, 3, 8, 4);
        let plan_sym = TranspositionPlan::new(nb, bs, ne, n_ranks, true);
        let plan_full = TranspositionPlan::new(nb, bs, ne, n_ranks, false);
        let g = symmetric_quantity(ne, nb, bs, 0.5);
        let local: Vec<BlockTridiagonal> = g[plan_sym.energy_ranges[0].clone()].to_vec();
        let all = 0..local.len();
        let sym_bytes = off_rank_payload_bytes(
            0,
            &plan_sym.scatter_forward_batch(0, &[&local], all.clone()),
        );
        let full_bytes =
            off_rank_payload_bytes(0, &plan_full.scatter_forward_batch(0, &[&local], all));
        let ratio = sym_bytes as f64 / full_bytes as f64;
        assert!(ratio > 0.5 && ratio < 0.62, "ratio {ratio}");
    }
}
