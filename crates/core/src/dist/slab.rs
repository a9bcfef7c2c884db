//! Owned data layouts of the two-level decomposition and their
//! (de)serialisation into all-to-all payloads.
//!
//! The SCBA cycle alternates between two layouts (paper Fig. 3):
//!
//! * **energy-major** (a `Vec<BlockTridiagonal>` per quantity): each rank owns
//!   a contiguous slice of energy points and stores one block-tridiagonal
//!   matrix per energy — the layout of the OBC + assembly + RGF phases;
//! * **element-major** (`ElementSlab`): each rank owns a contiguous slice of
//!   the *canonical element list* and stores, per element, the full energy
//!   series — the layout of the P/Σ convolutions (FFTs over energy), as
//!   lane-group slabs (`crate::element_major`): eight elements per group,
//!   `[group][energy][lane]` in split planes. It is the one container of
//!   that layout: what a forward transposition delivers, what a convolution
//!   phase accumulates, what a backward one ships.
//!
//! [`TranspositionPlan`] fixes both partitions and the one wire format of the
//! `Alltoallv` messages that convert between them (Section 5.2): only the
//! canonical elements of a lesser/greater quantity travel — the mirror
//! elements are reconstructed from the NEGF symmetry `X^≶_ij = −X^≶*_ji` at
//! the receiving side. Retarded quantities do not obey the symmetry, so their
//! backward transposition ships canonical and mirror elements. A message is
//! ordered component → energy → element, so pack and unpack walk each
//! energy's matrix once through the plan's gather lists
//! (`TranspositionPlan::slots`) and the element side reads and writes whole
//! lane rows. Because ownership is fixed by the plan, so is every message
//! length:
//! [`TranspositionPlan::transposition_bytes`] is the exact off-rank volume of
//! each transposition, not an estimate.

use std::ops::Range;

use crate::convolution::NegfGroup;
use crate::element_major::{
    lane_groups, n_groups, ElementSlots, GroupInfo, LanePlanes, Side, LANES,
};
use quatrex_linalg::{c64, CMatrix};
use quatrex_rgf::SelectedSolution;
use quatrex_runtime::CommPhase;
use quatrex_sparse::BlockTridiagonal;

use crate::dist::partition::partition_even;
use crate::dist::pipeline::TRANSPOSITIONS;

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
    let mut m = CMatrix::default();
    read_matrix_into(it, &mut m, bs);
    m
}

/// Read one `bs × bs` matrix written by [`push_matrix`] into `m`.
pub(crate) fn read_matrix_into<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    m: &mut CMatrix,
    bs: usize,
) {
    let m = m.fit(bs, bs);
    for r in 0..bs {
        for c in 0..bs {
            m[(r, c)] = read_value(it);
        }
    }
}

/// Append a block-tridiagonal quantity: diagonals first, then per row the
/// upper and lower couplings.
pub(crate) fn push_bt(buf: &mut Vec<c64>, bt: &BlockTridiagonal) {
    push_bt_range(buf, bt, 0..bt.n_blocks());
}

/// Append blocks `range` of a block-tridiagonal quantity (and the
/// couplings between them) as [`push_bt`] appends that sub-range.
pub(crate) fn push_bt_range(buf: &mut Vec<c64>, bt: &BlockTridiagonal, range: Range<usize>) {
    for i in range.clone() {
        push_matrix(buf, bt.diag(i));
    }
    for i in range.start..range.end.saturating_sub(1) {
        push_matrix(buf, bt.upper(i));
        push_matrix(buf, bt.lower(i));
    }
}

/// Read a block-tridiagonal quantity of `nb` blocks of `bs` written by
/// [`push_bt`].
pub(crate) fn read_bt<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    nb: usize,
    bs: usize,
) -> BlockTridiagonal {
    let mut bt = BlockTridiagonal::default();
    read_bt_into(it, &mut bt, nb, bs);
    bt
}

/// Read a block-tridiagonal quantity of `nb` blocks of `bs` written by
/// [`push_bt`] into `bt`.
pub(crate) fn read_bt_into<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    bt: &mut BlockTridiagonal,
    nb: usize,
    bs: usize,
) {
    bt.fit(nb, bs);
    for i in 0..nb {
        read_matrix_into(it, bt.diag_mut(i), bs);
    }
    for i in 0..nb.saturating_sub(1) {
        read_matrix_into(it, bt.upper_mut(i), bs);
        read_matrix_into(it, bt.lower_mut(i), bs);
    }
}

/// A rank's element-major slice: lane-group slabs ([`LanePlanes`]) of the
/// full energy series of the owned canonical elements, one per component,
/// and — where they are not the NEGF reconstruction — of their mirrors.
///
/// A forward slab (`G^≶`, `W^≶`, as a forward transposition delivers it)
/// holds canonical series only: its components obey `X_ji = −X*_ij`, and the
/// kernels read a mirror as that ([`ElementSlab::negf`]). A convolution
/// output holds both sides, because its accumulated mirrors are not yet
/// symmetric, and its retarded component never is.
#[derive(Debug, Clone)]
pub(crate) struct ElementSlab {
    /// Indices into the canonical element list owned by this rank.
    pub elements: Range<usize>,
    /// `canonical[c]` — component `c` of the owned canonical elements.
    pub canonical: Vec<LanePlanes>,
    /// `mirror[c]` — component `c` of their mirrors; empty for a forward
    /// slab. A self-mirror lane's mirror is never read.
    pub mirror: Vec<LanePlanes>,
    /// The lane groups of the owned elements.
    pub groups: Vec<GroupInfo>,
}

impl ElementSlab {
    /// An all-zero slab of the elements `rank` owns, with `n_components`
    /// components, and their mirrors if `mirrored`. A forward slab starts
    /// like this and absorbs its batches
    /// ([`TranspositionPlan::absorb_forward_batch`]); energies that have not
    /// arrived read as zero.
    pub fn zeroed(
        plan: &TranspositionPlan,
        rank: usize,
        n_components: usize,
        mirrored: bool,
    ) -> Self {
        let elements = plan.element_ranges[rank].clone();
        let planes = || LanePlanes::zeroed(elements.len(), plan.n_energies);
        let n_mirrored = if mirrored { n_components } else { 0 };
        Self {
            canonical: (0..n_components).map(|_| planes()).collect(),
            mirror: (0..n_mirrored).map(|_| planes()).collect(),
            groups: lane_groups(&plan.slots.self_mirror(elements.clone())),
            elements,
        }
    }

    /// Zero every series in place (the allocation is kept).
    pub fn zero(&mut self) {
        for planes in self.canonical.iter_mut().chain(&mut self.mirror) {
            planes.reset(planes.n_elements());
        }
    }

    /// Component `c` of lane group `g` as a kernel operand whose mirrors
    /// follow from the NEGF symmetry.
    pub fn negf(&self, c: usize, g: usize) -> NegfGroup<'_> {
        NegfGroup {
            rows: self.canonical[c].group(g),
            sign: &self.groups[g].sign,
        }
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
    /// Where every canonical element (`canonical_elements` order) and its
    /// mirror sit in a `BlockTridiagonal`, and which elements are their own
    /// mirror: the gather lists of pack and unpack.
    pub(crate) slots: ElementSlots,
    /// Energy ownership per rank (contiguous, ascending).
    pub energy_ranges: Vec<Range<usize>>,
    /// Canonical-element ownership per rank (contiguous, ascending).
    pub element_ranges: Vec<Range<usize>>,
}

impl TranspositionPlan {
    /// Build a plan over `n_ranks` flat ranks from the problem shape: energies
    /// and canonical elements are each split evenly over the ranks.
    pub fn new(n_blocks: usize, block_size: usize, n_energies: usize, n_ranks: usize) -> Self {
        let slots = ElementSlots::canonical(n_blocks, block_size);
        let energy_ranges = partition_even(n_energies, n_ranks);
        let element_ranges = partition_even(slots.len(), n_ranks);
        Self {
            n_ranks,
            n_energies,
            n_blocks,
            block_size,
            slots,
            energy_ranges,
            element_ranges,
        }
    }

    /// Number of canonical elements.
    pub fn n_canonical(&self) -> usize {
        self.slots.len()
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
                let elems = self.element_ranges[q].clone();
                let non_self = elems
                    .clone()
                    .filter(|&e| !self.slots.is_self_mirror(e))
                    .count();
                let per_energy = symmetric.len() * elems.len() + mirrored * non_self;
                per_energy * (self.n_energies - self.energy_ranges[q].len())
            })
            .sum();
        (values * BYTES_PER_VALUE) as u64
    }

    /// Forward serialisation (energy-major → element-major) of one energy
    /// batch: fill the per-destination `messages` (empty on entry) with
    /// `n_comps` symmetric components, `at(c, k)` component `c` at this
    /// rank's *local* energy `k`, carrying only the energies in `local` (a
    /// sub-range of the local energy indices; `0..n_local` ships everything
    /// at once).
    ///
    /// Wire format of the message to rank `q`, in order: for every component,
    /// for every energy of the batch (ascending), the values of the canonical
    /// elements owned by `q` (ascending). The components must be
    /// NEGF-symmetric: the receiver reads their mirrors as `−X*`. Each
    /// energy's matrix is read once, through the plan's gather list.
    pub(crate) fn scatter_forward_batch<'a>(
        &self,
        rank: usize,
        n_comps: usize,
        at: impl Fn(usize, usize) -> &'a BlockTridiagonal,
        local: Range<usize>,
        messages: &mut [Vec<c64>],
    ) {
        assert!(
            local.end <= self.energy_ranges[rank].len(),
            "local energies"
        );
        for (msg, elems) in messages.iter_mut().zip(&self.element_ranges) {
            msg.reserve(n_comps * elems.len() * local.len());
        }
        for c in 0..n_comps {
            for k in local.clone() {
                let bt = at(c, k);
                for (msg, elems) in messages.iter_mut().zip(&self.element_ranges) {
                    let (slots, side) = (&self.slots, Side::Canonical);
                    slots.read(elems.clone(), side, bt, |_, v| msg.push(v));
                }
            }
        }
    }

    /// Forward deserialisation at the element owner, one batch at a time:
    /// absorb the per-source messages (in rank order) into an accumulating
    /// forward [`ElementSlab`]. `received[src]` carries source `src`'s
    /// energies in `src_ranges[src]` (global indices; the batch's slice of
    /// the source's energy range). Each energy of a message is one run of the
    /// owned elements: it fills that energy's lane rows, group by group. The
    /// mirrors are not stored — the kernels read them as `−X*` — so the
    /// per-batch convolution kernels can consume the batch while the next one
    /// is still in flight.
    pub(crate) fn absorb_forward_batch(
        &self,
        rank: usize,
        slab: &mut ElementSlab,
        received: &[Vec<c64>],
        src_ranges: &[Range<usize>],
    ) {
        let n_local = self.element_ranges[rank].len();
        for (msg, src_energies) in received.iter().zip(src_ranges) {
            let per_comp = src_energies.len() * n_local;
            let expected = slab.canonical.len() * per_comp;
            assert_eq!(msg.len(), expected, "forward message length");
            if per_comp == 0 {
                continue;
            }
            // Group by group, each group's rows in energy order: the
            // message's energy runs are read as parallel streams, the slab
            // is written in order.
            for (planes, comp) in slab.canonical.iter_mut().zip(msg.chunks_exact(per_comp)) {
                for g in 0..n_groups(n_local) {
                    let lanes = g * LANES..((g + 1) * LANES).min(n_local);
                    for (run, k) in comp.chunks_exact(n_local).zip(src_energies.clone()) {
                        let (re, im) = planes.row_mut(g, k);
                        for (l, v) in run[lanes.clone()].iter().enumerate() {
                            (re[l], im[l]) = (v.re, v.im);
                        }
                    }
                }
            }
        }
    }

    /// Backward serialisation (element-major → energy-major) of one energy
    /// batch: fill the per-destination `messages` (empty on entry) with the
    /// components of `slab` (this rank's element slice); the message to rank
    /// `q` carries
    /// only the energies in `dst_ranges[q]` (global indices; the batch's
    /// slice of `q`'s energy range — `energy_ranges` itself ships everything
    /// at once). `symmetric[c]` states whether component `c` obeys
    /// `X_ij = −X*_ji` (lesser/greater-like) — the same mask
    /// [`Self::absorb_backward_batch`] decodes with. That mask alone decides
    /// whether the mirror series ride along or are reconstructed from the
    /// NEGF symmetry at the destination.
    ///
    /// Wire format of the message to rank `q`: for every component, for
    /// every energy of the batch (ascending), the values of the canonical
    /// elements owned by this rank (ascending); then for every non-symmetric
    /// component (retarded-like: no exploitable symmetry), for every energy,
    /// the mirror values of the non-self-mirror elements. Each energy is read
    /// as whole lane rows.
    pub(crate) fn scatter_backward_batch(
        &self,
        rank: usize,
        slab: &ElementSlab,
        symmetric: &[bool],
        dst_ranges: &[Range<usize>],
        messages: &mut [Vec<c64>],
    ) {
        let elems = self.element_ranges[rank].clone();
        debug_assert_eq!(slab.elements, elems);
        let mirrored = symmetric.iter().filter(|&&s| !s).count();
        let n_paired: usize = slab.groups.iter().map(|g| g.paired).sum();
        for (msg, dst_energies) in messages.iter_mut().zip(dst_ranges) {
            let n_k = dst_energies.len();
            let canonical = slab.canonical.len() * n_k * elems.len();
            msg.resize(canonical + mirrored * n_k * n_paired, c64::new(0.0, 0.0));
            let (head, tail) = msg.split_at_mut(canonical);
            for (planes, out) in slab
                .canonical
                .iter()
                .zip(split_runs(head, slab.canonical.len()))
            {
                write_rows(out, planes, dst_energies.clone(), &slab.groups, false);
            }
            let mirrors = symmetric.iter().enumerate().filter(|&(_, &s)| !s);
            for ((c, _), out) in mirrors.zip(split_runs(tail, mirrored)) {
                write_rows(
                    out,
                    &slab.mirror[c],
                    dst_energies.clone(),
                    &slab.groups,
                    true,
                );
            }
        }
    }

    /// Backward deserialisation at the energy owner, one batch at a time:
    /// absorb the per-source messages into the kept energy sets of the owned
    /// energies (`out`, components in [`component_mut`] order; `symmetric`
    /// is the mask the messages were serialised with), every entry of a
    /// touched matrix overwritten. `received` carries, from every source,
    /// this rank's energies in `my_range` (global indices; the batch's slice
    /// of this rank's energy range). Only the matrices of those energies are
    /// touched, each once per component, through the plan's gather lists.
    pub(crate) fn absorb_backward_batch(
        &self,
        rank: usize,
        out: &mut [SelectedSolution],
        received: &[Vec<c64>],
        symmetric: &[bool],
        my_range: Range<usize>,
    ) {
        let start = self.energy_ranges[rank].start;
        let out = &mut out[my_range.start - start..my_range.end - start];
        let slots = &self.slots;
        for (msg, src_elems) in received.iter().zip(&self.element_ranges) {
            let (start, n) = (src_elems.start, src_elems.len());
            let paired = |e: usize| !slots.is_self_mirror(start + e);
            let n_paired = (0..n).filter(|&e| paired(e)).count();
            let mut runs = MessageRuns::new(msg);
            for (c, &symmetric) in symmetric.iter().enumerate() {
                for set in out.iter_mut() {
                    let bt = component_mut(set, c);
                    let values = runs.next(n);
                    slots.write(src_elems.clone(), Side::Canonical, bt, |e| Some(values[e]));
                    // Symmetric mirrors are reconstructed on the fly; the
                    // others arrive explicitly below.
                    if symmetric {
                        slots.write(src_elems.clone(), Side::Mirror, bt, |e| {
                            paired(e).then(|| -values[e].conj())
                        });
                    }
                }
            }
            for (c, &symmetric) in symmetric.iter().enumerate() {
                if symmetric {
                    continue;
                }
                for set in out.iter_mut() {
                    let mut values = runs.next(n_paired).iter();
                    slots.write(
                        src_elems.clone(),
                        Side::Mirror,
                        component_mut(set, c),
                        |e| paired(e).then(|| read_value(&mut values)),
                    );
                }
            }
            assert!(runs.is_done(), "long backward message");
        }
    }
}

/// Component `c` of an energy set, in wire order: `X^<`, `X^>`, `X^R`.
fn component_mut(set: &mut SelectedSolution, c: usize) -> &mut BlockTridiagonal {
    set.lesser.get_mut(c).unwrap_or(&mut set.retarded)
}

/// A wire message read as consecutive runs of values.
struct MessageRuns<'a> {
    msg: &'a [c64],
    at: usize,
}

impl<'a> MessageRuns<'a> {
    fn new(msg: &'a [c64]) -> Self {
        Self { msg, at: 0 }
    }

    /// The next `n` values. The encoders fix every message length, so a
    /// message running dry is a wire-format bug.
    fn next(&mut self, n: usize) -> &'a [c64] {
        let run = self.msg.get(self.at..self.at + n);
        self.at += n;
        run.expect("short wire message") // lint:allow(no-unwrap): encoder fixes the message length; truncation is a wire-format bug
    }

    /// True once every value was read.
    fn is_done(&self) -> bool {
        self.at == self.msg.len()
    }
}

/// `x` cut into `n` equal parts (`n` empty parts of an empty `x`).
fn split_runs(x: &mut [c64], n: usize) -> impl Iterator<Item = &mut [c64]> {
    let len = x.len().checked_div(n).unwrap_or(0);
    let mut rest = x;
    (0..n).map(move |_| {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        part
    })
}

/// Lane groups per tile of [`write_rows`]: a tile's rows of every energy
/// (64 KiB per plane at 16 energies) stay in cache while its energies are
/// written out one after another.
const TILE_GROUPS: usize = 64;

/// Fill `out`, one run per energy of `energies`, with the elements of
/// `planes` — the live lanes of `groups`, or only their paired lanes if
/// `paired_only` — in element order. Tile by tile of lane groups, energy by
/// energy: each energy's run of a tile is written in one piece while the
/// tile's rows stay cached.
fn write_rows(
    out: &mut [c64],
    planes: &LanePlanes,
    energies: Range<usize>,
    groups: &[GroupInfo],
    paired_only: bool,
) {
    let Some(per_energy) = out.len().checked_div(energies.len()).filter(|&n| n > 0) else {
        return;
    };
    let width = |info: &GroupInfo| if paired_only { info.paired } else { info.live };
    let mut at = 0;
    for (tile, infos) in groups.chunks(TILE_GROUPS).enumerate() {
        let tile_width: usize = infos.iter().map(width).sum();
        for (run, k) in out.chunks_exact_mut(per_energy).zip(energies.clone()) {
            let mut dst = run[at..at + tile_width].iter_mut();
            for (g, info) in infos.iter().enumerate() {
                let (re, im) = planes.row(tile * TILE_GROUPS + g, k);
                // A paired lane reads its mirror with the sign −1.
                let lanes = (0..info.live).filter(|&l| !paired_only || info.sign[l] < 0.0);
                // The lanes first: `zip` stops on them without taking a
                // slot of the next group.
                for (l, slot) in lanes.zip(dst.by_ref()) {
                    *slot = c64::new(re[l], im[l]);
                }
            }
        }
        at += tile_width;
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
pub(crate) struct TranspositionBatchPlan {
    /// Number of batches every transposition is cut into (`B ≥ 1`).
    pub n_batches: usize,
    /// `local_ranges[rank][batch]` — sub-range of the rank's *local* energy
    /// indices shipped in that batch. Per rank the sub-ranges are
    /// contiguous, ascending, and cover `0..n_local` exactly.
    pub local_ranges: Vec<Vec<Range<usize>>>,
    /// `global[batch][rank]` — the rank's global energy sub-range in the
    /// batch.
    global: Vec<Vec<Range<usize>>>,
    /// `arrived[batch]` — every global energy of the batch, ascending.
    arrived: Vec<Vec<usize>>,
}

impl TranspositionBatchPlan {
    /// Cut every rank's energy range of `plan` into `n_batches` near-equal
    /// contiguous batches. Deterministic: every rank derives the identical
    /// schedule from the shared plan.
    pub fn new(plan: &TranspositionPlan, n_batches: usize) -> Self {
        assert!(n_batches >= 1, "at least one batch per transposition");
        let local_ranges: Vec<Vec<Range<usize>>> = plan
            .energy_ranges
            .iter()
            .map(|r| partition_even(r.len(), n_batches))
            .collect();
        let global: Vec<Vec<Range<usize>>> = (0..n_batches)
            .map(|b| {
                let at = |r: usize| {
                    let (start, local) = (plan.energy_ranges[r].start, &local_ranges[r][b]);
                    start + local.start..start + local.end
                };
                (0..plan.n_ranks).map(at).collect()
            })
            .collect();
        // The ranks' ranges are ordered and disjoint, so their concatenation
        // ascends.
        let arrived = global
            .iter()
            .map(|ranges| ranges.iter().cloned().flatten().collect())
            .collect();
        Self {
            n_batches,
            local_ranges,
            global,
            arrived,
        }
    }

    /// The global sub-ranges of every rank for batch `b`, in rank order
    /// (the per-source shapes of one forward batch, and the per-destination
    /// shapes of one backward batch).
    pub fn global_ranges(&self, b: usize) -> &[Range<usize>] {
        &self.global[b]
    }

    /// All global energy indices arriving in forward batch `b` (ascending).
    /// This is the batch view the accumulation kernels in
    /// `crate::convolution` consume.
    pub fn arrived_global(&self, b: usize) -> &[usize] {
        &self.arrived[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::{canonical_elements, ElementId, GroupOperand};
    use crate::EnergyResolved;
    use quatrex_linalg::lanes::Lanes;
    use quatrex_linalg::{cplx, CMatrix};
    use quatrex_runtime::{CommPhase, RankContext, ThreadComm};

    /// The forward messages of `comps[c][local energy]`, freshly allocated.
    fn scatter_forward(
        plan: &TranspositionPlan,
        rank: usize,
        comps: &[&[BlockTridiagonal]],
        local: Range<usize>,
    ) -> Vec<Vec<c64>> {
        let mut messages = vec![Vec::new(); plan.n_ranks];
        let at = |c: usize, k: usize| &comps[c][k];
        plan.scatter_forward_batch(rank, comps.len(), at, local, &mut messages);
        messages
    }

    /// The components `[X^<, X^>, X^R]` of energy sets, one matrix each per
    /// energy.
    fn components(mut sets: Vec<SelectedSolution>) -> Vec<EnergyResolved> {
        (0..3)
            .map(|c| {
                sets.iter_mut()
                    .map(|s| component_mut(s, c).clone())
                    .collect()
            })
            .collect()
    }

    /// The backward messages of `slab`, freshly allocated.
    fn scatter_backward(
        plan: &TranspositionPlan,
        rank: usize,
        slab: &ElementSlab,
        symmetric: &[bool],
        dst_ranges: &[Range<usize>],
    ) -> Vec<Vec<c64>> {
        let mut messages = vec![Vec::new(); dst_ranges.len()];
        plan.scatter_backward_batch(rank, slab, symmetric, dst_ranges, &mut messages);
        messages
    }

    /// Add a retarded-like third component, canonical and mirror series, to
    /// a forward slab (whose lesser/greater mirrors are not stored).
    fn push_retarded(slab: &mut ElementSlab, canonical: Vec<Vec<c64>>, mirror: Vec<Vec<c64>>) {
        let ne = slab.canonical[0].n_energies();
        while slab.mirror.len() < slab.canonical.len() {
            slab.mirror.push(LanePlanes::zeroed(canonical.len(), ne));
        }
        slab.canonical.push(LanePlanes::from_series(&canonical));
        slab.mirror.push(LanePlanes::from_series(&mirror));
    }

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
            let payloads = scatter_forward(plan, rank, &local, 0..my_e.len());
            let recv = ctx.alltoallv_tagged(payloads, wire, fwd.phase);
            let mut slab = ElementSlab::zeroed(plan, rank, 2, false);
            plan.absorb_forward_batch(rank, &mut slab, &recv, &plan.energy_ranges);
            // backward: element-major -> energy-major, plus a retarded-like
            // component whose mirrors must travel
            let mut back_slab = slab.clone();
            let owned = &canonical_elements(nb, bs)[plan.element_ranges[rank].clone()];
            push_retarded(
                &mut back_slab,
                owned.iter().map(|&id| series(&q[2], id)).collect(),
                owned.iter().map(|&id| series(&q[2], id.mirror())).collect(),
            );
            let back = scatter_backward(plan, rank, &back_slab, bwd.symmetric, &plan.energy_ranges);
            let recv = ctx.alltoallv_tagged(back, wire, bwd.phase);
            let mut out = vec![SelectedSolution::zeros(nb, bs, 2); my_e.len()];
            plan.absorb_backward_batch(rank, &mut out, &recv, bwd.symmetric, my_e);
            (slab, components(out))
        });

        let elements = canonical_elements(nb, bs);
        for (rank, (slab, out)) in results.iter().enumerate() {
            // Element slabs carry the exact canonical series, and read the
            // exact mirror series through the NEGF symmetry.
            assert!(slab.mirror.is_empty());
            for (e_local, e) in plan.element_ranges[rank].clone().enumerate() {
                let id = elements[e];
                for c in 0..2 {
                    let q = &quantities[c];
                    assert_eq!(
                        slab.canonical[c].series(e_local),
                        series(q, id),
                        "{c} {id:?}"
                    );
                    let mirror: Vec<c64> = (0..ne)
                        .map(|k| {
                            let (re, im) = slab.negf(c, e_local / LANES).ji(k);
                            let (mut r, mut i) = ([0.0; LANES], [0.0; LANES]);
                            re.store(&mut r);
                            im.store(&mut i);
                            c64::new(r[e_local % LANES], i[e_local % LANES])
                        })
                        .collect();
                    assert_eq!(mirror, series(q, id.mirror()), "{c} {id:?}");
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
                let mut want = ElementSlab::zeroed(&plan, group, 2, false);
                plan.absorb_forward_batch(
                    group,
                    &mut want,
                    &(0..n_groups)
                        .map(|src| {
                            let mut p = scatter_forward(
                                &plan,
                                src,
                                &[&local(&gl, src), &local(&gg, src)],
                                0..plan.energy_ranges[src].len(),
                            );
                            std::mem::take(&mut p[group])
                        })
                        .collect::<Vec<_>>(),
                    &plan.energy_ranges,
                );
                let mut slab = ElementSlab::zeroed(&plan, group, 2, false);
                for batch in 0..b {
                    let recv: Vec<_> = (0..n_groups)
                        .map(|src| {
                            let mut p = scatter_forward(
                                &plan,
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
                        &recv,
                        batches.global_ranges(batch),
                    );
                }
                assert_eq!(slab.canonical, want.canonical, "canonical B={b}");
                assert_eq!(slab.mirror, want.mirror, "mirror B={b}");
                // A retarded-like third component for the backward direction.
                let owned = &canonical_elements(nb, bs)[plan.element_ranges[group].clone()];
                push_retarded(
                    &mut slab,
                    owned.iter().map(|&id| series(id)).collect(),
                    owned.iter().map(|&id| series(id.mirror())).collect(),
                );
                slabs.push(slab);
            }
            // Backward: batch-wise shipping must reproduce the
            // single-shot energy-major gather of every destination.
            for dst in 0..n_groups {
                let n_local = plan.energy_ranges[dst].len();
                let zeros = || vec![SelectedSolution::zeros(nb, bs, 2); n_local];
                let mut want_out = zeros();
                plan.absorb_backward_batch(
                    dst,
                    &mut want_out,
                    &(0..n_groups)
                        .map(|src| {
                            let mut p = scatter_backward(
                                &plan,
                                src,
                                &slabs[src],
                                bwd.symmetric,
                                &plan.energy_ranges,
                            );
                            std::mem::take(&mut p[dst])
                        })
                        .collect::<Vec<_>>(),
                    bwd.symmetric,
                    plan.energy_ranges[dst].clone(),
                );
                let mut got = zeros();
                for batch in 0..b {
                    let recv: Vec<_> = (0..n_groups)
                        .map(|src| {
                            let mut p = scatter_backward(
                                &plan,
                                src,
                                &slabs[src],
                                bwd.symmetric,
                                batches.global_ranges(batch),
                            );
                            std::mem::take(&mut p[dst])
                        })
                        .collect();
                    plan.absorb_backward_batch(
                        dst,
                        &mut got,
                        &recv,
                        bwd.symmetric,
                        batches.global_ranges(batch)[dst].clone(),
                    );
                }
                let (got, want_out) = (components(got), components(want_out));
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
                all.extend(batches.arrived_global(batch).iter().copied());
            }
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>());
        }
    }
}
