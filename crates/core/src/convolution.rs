//! Energy convolutions: polarisation `P` and GW self-energy `Σ`.
//!
//! After the per-energy G/W solves, the interaction terms are evaluated
//! element-wise in real space and as convolutions over the energy axis
//! (paper Eq. (3) and Section 4.4):
//!
//! ```text
//! P^≶_ij(ω)  = −i·ΔE/(2π) · Σ_E  G^≶_ij(E) · G^≷_ji(E − ω)
//! Σ^≶_ij(E)  = +i·ΔE/(2π) · Σ_ω  G^≶_ij(E − ω) · W^≶_ij(ω)
//! ```
//!
//! and the retarded components follow from the lesser/greater ones through the
//! causality (Heaviside-in-time) construction `X^R(t) = θ(t)·[X^>(t) − X^<(t)]`
//! evaluated with FFTs. Before the convolutions the data is transposed from
//! energy-major (one matrix per energy, the layout of the RGF solves) to
//! element-major (one energy series per stored matrix element, the layout the
//! FFT needs) — the step that maps to the `Alltoall` of Fig. 3.
//!
//! There is **one** kernel per phase — [`polarization_group_accumulate`],
//! [`self_energy_group_accumulate`], [`causal_retarded_group`] — and the SCBA
//! loop and the whole-grid drivers below both call it; it is the layer's
//! only entry point. A kernel works on a *lane group*
//! ([`crate::element_major`]): the series of up to eight element **pairs**,
//! one per lane of `quatrex_linalg::lanes::Native`, which one lane FFT
//! transforms together. A pair is a canonical element `(i, j)` together with
//! its mirror `(j, i)` (a self-mirror diagonal element is a pair of one); a
//! single pair is a group of one live lane
//! (`LanePlanes::from_series(&[series])`, `lane_groups(&[self_mirror])[0]`).
//! The pair is the unit because the mirror's polarisation is the canonical
//! one's correlation read backwards,
//!
//! ```text
//! corr(a, b)[k] = Σ_m a[m]·b[m − k]      ⇒      corr(b, a)[k] = corr(a, b)[−k]
//! P^<_ij[k] ∝ corr(G^<_ij, G^>_ji)[k]            P^>_ji[k] ∝ corr(G^<_ij, G^>_ji)[−k]
//! P^>_ij[k] ∝ corr(G^>_ij, G^<_ji)[k]            P^<_ji[k] ∝ corr(G^>_ij, G^<_ji)[−k]
//! ```
//!
//! so two correlations give all four outputs. The kernels run on the calling
//! thread's planned lane workspace ([`quatrex_fft::with_workspace_in`] on
//! `Native` planes): every operand is loaded as lane rows, one energy of
//! every lane at a time, straight from its slab into zeroed padded planes
//! (the batch restriction, its complement, the reversal of a correlation's
//! second factor and — for a forward slab — the mirror `−X*` are index maps
//! and sign flips at load time, not copies), transformed **once**, the
//! products of one output are summed in the frequency domain and share one
//! inverse transform, and the inverse's `1/n` rides in the prefactor. Every
//! lane performs exactly the IEEE operations of a one-series transform, so a
//! pair's bits do not depend on its group or its lane. Transforms per pair
//! and call (a self-mirror `Σ` pair costs half; a lane group runs each one
//! for eight pairs at once):
//!
//! | kernel call                         | forward | inverse | total |
//! |-------------------------------------|--------:|--------:|------:|
//! | `P`, first (or only) batch          |       4 |       2 |     6 |
//! | `P`, later batch (cross terms)      |       8 |       2 |    10 |
//! | `Σ`, any batch                      |       8 |       4 |    12 |
//!
//! `FlopKind::Convolution` counts exactly these, for the group's live lanes:
//! `fft_flops(n)` per transform plus `6n` per frequency-domain product.
//! Nothing persists between calls — accumulators are `N_E`-long and
//! time-domain.
//!
//! The kernels take a *batch view*: the energy indices that just arrived,
//! accumulated into running output series. The SCBA loop
//! ([`crate::dist`]), which owns element slices after a real all-to-all
//! transposition, feeds them one `Alltoallv` batch at a time; the
//! energy-major drivers below ([`polarization_from_g`],
//! [`self_energy_from_gw`], [`retarded_from_lesser_greater`]) gather the
//! stored pairs' series into lane-group slabs, energy by energy, and call
//! them once per group with the whole grid as the single batch — "every
//! energy, nothing arrived before". The single-threaded replay
//! of the loop in `crates/core/tests/mixing_rule.rs` relies on the two
//! sharing this path.

use std::cell::RefCell;

use quatrex_fft::{fft_flops, with_workspace_in, Workspace};
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::lanes::{Lanes, Native};
use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;

use crate::element_major::{
    gather_energy, lane_groups, scatter_energy, ElementSlots, GroupInfo, GroupRows, GroupRowsMut,
    LanePlanes, Row, Side, LANES,
};

/// A block-tridiagonal quantity resolved on an energy grid (energy-major layout).
pub type EnergyResolved = Vec<BlockTridiagonal>;

/// Identifier of one stored block position of the BT pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockPos {
    /// Diagonal block `(i, i)`.
    Diag(usize),
    /// First superdiagonal block `(i, i+1)`.
    Upper(usize),
    /// First subdiagonal block `(i+1, i)`.
    Lower(usize),
}

/// The canonical block positions of an `nb`-block BT pattern, in the fixed
/// enumeration order shared by every driver: the diagonal blocks, then the
/// superdiagonal ones. With their transposed positions (a diagonal block is
/// its own) they cover the stored pattern.
fn canonical_positions(nb: usize) -> impl Iterator<Item = BlockPos> {
    (0..nb)
        .map(BlockPos::Diag)
        .chain((0..nb - 1).map(BlockPos::Upper))
}

/// Shared reference to the block at `pos`.
fn get_block(x: &BlockTridiagonal, pos: BlockPos) -> &CMatrix {
    match pos {
        BlockPos::Diag(i) => x.diag(i),
        BlockPos::Upper(i) => x.upper(i),
        BlockPos::Lower(i) => x.lower(i),
    }
}

/// The block position holding the transposed element.
fn transposed_position(pos: BlockPos) -> BlockPos {
    match pos {
        BlockPos::Diag(i) => BlockPos::Diag(i),
        BlockPos::Upper(i) => BlockPos::Lower(i),
        BlockPos::Lower(i) => BlockPos::Upper(i),
    }
}

/// One stored scalar element of the BT pattern: block position plus the
/// in-block row/column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId {
    /// Stored block position.
    pub pos: BlockPos,
    /// Row within the block.
    pub row: usize,
    /// Column within the block.
    pub col: usize,
}

impl ElementId {
    /// The element at the transposed matrix position `(j, i)`.
    pub fn mirror(self) -> ElementId {
        ElementId {
            pos: transposed_position(self.pos),
            row: self.col,
            col: self.row,
        }
    }

    /// True for diagonal elements that are their own mirror.
    pub fn is_self_mirror(self) -> bool {
        matches!(self.pos, BlockPos::Diag(_)) && self.row == self.col
    }

    /// Value of this element in an energy-major BT quantity at one energy.
    pub fn value_in(self, x: &BlockTridiagonal) -> c64 {
        get_block(x, self.pos)[(self.row, self.col)]
    }
}

/// The canonical (symmetry-reduced) element set of Section 5.2: the upper
/// triangle of every diagonal block plus every element of the superdiagonal
/// blocks. Together with its mirrors (recovered through the NEGF symmetry
/// `X^≶_ij = −X^≶*_ji`), it spans the full stored pattern; an element and its
/// mirror are the *pair* the convolution kernels work on.
pub fn canonical_elements(nb: usize, bs: usize) -> Vec<ElementId> {
    let mut elements = Vec::with_capacity(n_canonical(nb, bs));
    for_each_canonical(nb, bs, |id| elements.push(id));
    elements
}

/// Number of canonical elements of an `nb × bs` pattern.
pub(crate) fn n_canonical(nb: usize, bs: usize) -> usize {
    nb * bs * (bs + 1) / 2 + nb.saturating_sub(1) * bs * bs
}

/// `f(id)` for every element of [`canonical_elements`], in its order,
/// without the list.
pub(crate) fn for_each_canonical(nb: usize, bs: usize, mut f: impl FnMut(ElementId)) {
    for pos in canonical_positions(nb) {
        // Row by row: the upper triangle of a diagonal block, every element
        // of a superdiagonal one.
        let upper_triangle = matches!(pos, BlockPos::Diag(_));
        for row in 0..bs {
            for col in if upper_triangle { row } else { 0 }..bs {
                f(ElementId { pos, row, col });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch-view group kernels. A forward transposition delivers the
// Green's-function / screened-interaction series one *energy batch* at a time
// (the global indices that arrived in one `Alltoallv` batch; the whole grid
// for the energy-major drivers), and each batch's convolution contribution is
// accumulated while the next batch is still in flight. The decompositions
// are exact:
//
// * `Σ = Σ_b conv(Δw_b, g)` — the self-energy is *linear* in `W`, so each
//   arriving `W` batch contributes independently against the complete `G`
//   series;
// * `P = Σ_b [corr(Δa_b, B_≤b) + corr(A_<b, Δb_b)]` — the polarisation is
//   *bilinear* in `G`, so batch `b` contributes its cross terms against
//   everything that has arrived up to and including it; summed over batches
//   every pair of batches is counted exactly once. The two terms of a batch
//   are summed in the frequency domain, before the one inverse transform.
//
// With a single batch both are the plain correlation / convolution of the
// full series: the same floating-point operations whichever driver calls.
//
// Every kernel works on a *lane group*: the series of up to `LANES` element
// pairs, one per lane of `quatrex_linalg::lanes::Native`, transformed
// together by one lane FFT. Each lane performs exactly the IEEE operations of
// a one-series transform — the same butterflies, the spectral products in
// the same order, the prefactor multiply in `num-complex`'s formula with its
// `0·re` terms, no fused multiply-add — so a pair's bits do not depend on
// the group it shares or on its lane: a one-lane group of its own series
// gives the same bits.

type Lane = Native;

thread_local! {
    /// The calling thread's lane planes of the group transforms (grown,
    /// never shrunk).
    static LANE_PLANES: RefCell<Vec<Lane>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the calling thread's lane workspace of length `n`.
fn with_lanes<R>(n: usize, f: impl FnOnce(&mut Workspace<'_, Lane>) -> R) -> R {
    LANE_PLANES.with(|planes| with_workspace_in(n, &mut planes.borrow_mut(), f))
}

/// True if `batch` lists strictly ascending indices of an `ne`-point grid —
/// what the kernels require of an arrived batch.
pub(crate) fn is_grid_batch(batch: &[usize], ne: usize) -> bool {
    batch.windows(2).all(|w| w[0] < w[1]) && batch.last().is_none_or(|&k| k < ne)
}

/// Padded transform length of an `ne`-point linear convolution.
fn padded_len(ne: usize) -> usize {
    (2 * ne - 1).next_power_of_two()
}

/// FLOPs of one kernel output: `products` operand pairs transformed and
/// multiplied, one inverse transform.
fn output_flops(n: usize, products: u64) -> u64 {
    (2 * products + 1) * fft_flops(n) + products * 6 * n as u64
}

/// The lane row `r`.
#[inline(always)]
fn lanes(r: &Row) -> Lane {
    Lane::load(r)
}

/// `−x`, exactly (a sign flip, as the scalar negation).
#[inline(always)]
fn neg(x: Lane) -> Lane {
    x * Lane::from(-1.0)
}

/// `slot ← slot + (0 + i·p)·(re + i·im)`: the scalar path's
/// `*slot += prefactor * c64::new(re, im)`, in `num-complex`'s product
/// formula with its `0·re` and `0·im` terms.
#[inline(always)]
fn add_scaled((slot_re, slot_im): (&mut Row, &mut Row), p: Lane, (re, im): (Lane, Lane)) {
    let zero = Lane::from(0.0);
    let (xr, xi) = (zero * re - p * im, zero * im + p * re);
    (lanes(slot_re) + xr).store(slot_re);
    (lanes(slot_im) + xi).store(slot_im);
}

/// One lane group of a lesser/greater-like operand: the canonical series of
/// its elements and the series of their mirrors, read one lane row (one
/// energy of every lane) at a time.
pub trait GroupOperand: Copy {
    /// `(re, im)` of the canonical elements at energy `k`.
    fn ij(self, k: usize) -> (Lane, Lane);
    /// `(re, im)` of the mirrors at energy `k`.
    fn ji(self, k: usize) -> (Lane, Lane);
}

/// A group whose mirrors are not stored but follow from the NEGF symmetry
/// `X_ji = −X*_ij` — a lane's mirror is `(sign·re, im)`, `sign` being `−1`
/// for a paired element and `+1` for a self-mirror one (what
/// [`GroupInfo::sign`] holds). The forward slabs of the rank loop hold
/// canonical series only and are read this way.
#[derive(Debug, Clone, Copy)]
pub struct NegfGroup<'a> {
    /// Canonical rows.
    pub rows: GroupRows<'a>,
    /// Per-lane factor of the mirror's real part.
    pub sign: &'a Row,
}

impl GroupOperand for NegfGroup<'_> {
    #[inline(always)]
    fn ij(self, k: usize) -> (Lane, Lane) {
        (lanes(&self.rows.re[k]), lanes(&self.rows.im[k]))
    }

    #[inline(always)]
    fn ji(self, k: usize) -> (Lane, Lane) {
        let re = lanes(&self.rows.re[k]) * lanes(self.sign);
        (re, lanes(&self.rows.im[k]))
    }
}

/// A group whose mirror series are stored beside the canonical ones (the
/// energy-major drivers read both from the operand).
#[derive(Debug, Clone, Copy)]
pub struct StoredGroup<'a> {
    /// Canonical rows.
    pub ij: GroupRows<'a>,
    /// Mirror rows.
    pub ji: GroupRows<'a>,
}

impl GroupOperand for StoredGroup<'_> {
    #[inline(always)]
    fn ij(self, k: usize) -> (Lane, Lane) {
        (lanes(&self.ij.re[k]), lanes(&self.ij.im[k]))
    }

    #[inline(always)]
    fn ji(self, k: usize) -> (Lane, Lane) {
        (lanes(&self.ji.re[k]), lanes(&self.ji.im[k]))
    }
}

/// Accumulate one energy batch's polarisation contribution into the four
/// series of every pair of a lane group: `p = [[P^<_ij, P^>_ij], [P^<_ji,
/// P^>_ji]]` (length-`N_E` accumulators, zero before the first batch; the
/// mirror side of a self-mirror lane is left meaningless).
///
/// `g = [G^<, G^>]` are the **arrived-so-far** data *including* this batch;
/// `arrived` lists the energies that carry data (every energy that arrived,
/// in any order — an energy it does not list reads as zero), `batch` the
/// global energy indices that arrived in this batch (ascending; may be
/// non-contiguous when several source ranks contribute), and
/// `arrived_before` whether any earlier batch contributed energies. Two
/// correlations are formed per lane — `corr(G^<_ij, G^>_ji)` and
/// `corr(G^>_ij, G^<_ji)` — and each is read twice: at lag `+k` into the
/// canonical element's series, at lag `−k` into the mirror's opposite
/// component (see the module docs). Summed over all batches of one
/// iteration the accumulators equal the whole-grid call (`batch = 0..N_E`,
/// `arrived_before = false` — what [`polarization_from_g`] issues) up to
/// floating-point summation order. Counts the FLOPs of `group.live` pairs.
#[allow(clippy::too_many_arguments)]
pub fn polarization_group_accumulate<O: GroupOperand>(
    p: [[GroupRowsMut<'_>; 2]; 2],
    g: [O; 2],
    arrived: impl Iterator<Item = usize> + Clone,
    batch: &[usize],
    arrived_before: bool,
    de: f64,
    group: &GroupInfo,
    flops: &FlopCounter,
) {
    let ne = p[0][0].re.len();
    if batch.is_empty() {
        return;
    }
    let n = padded_len(ne);
    let prefactor = Lane::from(-de / (2.0 * std::f64::consts::PI) / n as f64);
    let (zero_lag, half) = (ne - 1, ne / 2);
    let [[p_lesser_ij, p_greater_ij], [p_lesser_ji, p_greater_ji]] = p;
    let [g_lesser, g_greater] = g;
    // (first factor, second factor, series read at lag +k, series read at −k)
    let correlations = [
        (g_lesser, g_greater, p_lesser_ij, p_greater_ji),
        (g_greater, g_lesser, p_greater_ij, p_lesser_ji),
    ];
    let zero = (Lane::from(0.0), Lane::from(0.0));
    with_lanes(n, |w| {
        for (a, b, forward, backward) in correlations {
            // `corr(a, b)[k]` is `conv(a, b reversed)[k + N_E − 1]`.
            w.clear();
            // This batch's first factor against everything arrived.
            w.add_product(
                batch.iter().map(|&k| (k, a.ij(k))),
                arrived.clone().map(|m| (zero_lag - m, b.ji(m))),
            );
            if arrived_before {
                // The earlier batches' first factor against this batch's
                // second.
                let earlier = arrived.clone().map(|k| (k, a.ij(k)));
                w.add_product(
                    earlier.chain(batch.iter().map(|&k| (k, zero))),
                    batch.iter().map(|&m| (zero_lag - m, b.ji(m))),
                );
            }
            let (re, im) = w.inverse();
            let at_lag = |at: usize| (re[at], im[at]);
            let GroupRowsMut { re: f_re, im: f_im } = forward;
            for (j, slot) in f_re.iter_mut().zip(f_im.iter_mut()).enumerate() {
                add_scaled(slot, prefactor, at_lag(zero_lag + j - half));
            }
            let GroupRowsMut { re: b_re, im: b_im } = backward;
            for (j, slot) in b_re.iter_mut().zip(b_im.iter_mut()).enumerate() {
                add_scaled(slot, prefactor, at_lag(zero_lag + half - j));
            }
        }
    });
    let per_pair = 2 * output_flops(n, 1 + u64::from(arrived_before));
    flops.add(FlopKind::Convolution, group.live as u64 * per_pair);
}

/// Accumulate one `W` energy batch's self-energy contribution into the four
/// series of every pair of a lane group: `s = [[Σ^<_ij, Σ^>_ij], [Σ^<_ji,
/// Σ^>_ji]]` (length-`N_E` accumulators, zero before the first batch; the
/// mirror side is computed only if the group has a paired lane, and is left
/// meaningless on a self-mirror lane).
///
/// `g = [G^<, G^>]` and `w = [W^<, W^>]` are laid out like
/// [`polarization_group_accumulate`]'s `g`. The `G` series are **complete**
/// (they arrived in the earlier `G` transposition); the `W` series carry the
/// arrived-so-far data including this batch. Because `Σ` is linear in `W`,
/// each batch's contribution `conv(Δw_b, g)` is independent and the sum over
/// batches equals the whole-grid call (`batch = 0..N_E` — what
/// [`self_energy_from_gw`] issues) up to floating-point summation order.
/// Counts the FLOPs of the group's live pairs, a self-mirror one as half.
#[allow(clippy::too_many_arguments)]
pub fn self_energy_group_accumulate<O: GroupOperand>(
    s: [[GroupRowsMut<'_>; 2]; 2],
    g: [O; 2],
    w: [O; 2],
    batch: &[usize],
    de: f64,
    group: &GroupInfo,
    flops: &FlopCounter,
) {
    let ne = s[0][0].re.len();
    if batch.is_empty() {
        return;
    }
    let n = padded_len(ne);
    let prefactor = Lane::from(de / (2.0 * std::f64::consts::PI) / n as f64);
    let half = ne / 2;
    let sides = s
        .into_iter()
        .enumerate()
        .take(1 + usize::from(group.paired > 0));
    with_lanes(n, |ws| {
        for (side, s) in sides {
            let read = |x: O, k: usize| if side == 0 { x.ij(k) } else { x.ji(k) };
            // Lesser, then greater.
            for ((s, g), w) in s.into_iter().zip(g).zip(w) {
                ws.clear();
                ws.add_product(
                    batch.iter().map(|&k| (k, read(w, k))),
                    (0..ne).map(|k| (k, read(g, k))),
                );
                let (re, im) = ws.inverse();
                let GroupRowsMut { re: s_re, im: s_im } = s;
                for (k, slot) in s_re.iter_mut().zip(s_im.iter_mut()).enumerate() {
                    add_scaled(slot, prefactor, (re[k + half], im[k + half]));
                }
            }
        }
    });
    let outputs = 2 * (group.live + group.paired) as u64;
    flops.add(FlopKind::Convolution, outputs * output_flops(n, 1));
}

/// Per-lane causality construction: `X^R(t) = θ(t)·[X^>(t) − X^<(t)]`
/// evaluated with FFTs over the energy axis, written into `retarded`.
/// Counts the FLOPs of `series` series (the lanes that hold one).
pub fn causal_retarded_group(
    retarded: GroupRowsMut<'_>,
    lesser: GroupRows<'_>,
    greater: GroupRows<'_>,
    series: usize,
    flops: &FlopCounter,
) {
    let ne = lesser.re.len();
    let nfft = ne.next_power_of_two();
    let scale = Lane::from(1.0 / nfft as f64);
    let difference = |k: usize| {
        let re = lanes(&greater.re[k]) - lanes(&lesser.re[k]);
        (k, (re, lanes(&greater.im[k]) - lanes(&lesser.im[k])))
    };
    with_lanes(nfft, |w| {
        w.load((0..ne).map(difference));
        // To pseudo-time, apply the Heaviside step, back to energy.
        let (re, im) = w.inverse();
        let (half, zero) = (Lane::from(0.5), Lane::from(0.0));
        re[0] = re[0] * half;
        im[0] = im[0] * half;
        re[(nfft / 2).max(1)..].fill(zero);
        im[(nfft / 2).max(1)..].fill(zero);
        let (re, im) = w.forward();
        let GroupRowsMut { re: r_re, im: r_im } = retarded;
        for k in 0..ne {
            (re[k] * scale).store(&mut r_re[k]);
            (im[k] * scale).store(&mut r_im[k]);
        }
    });
    flops.add(FlopKind::Convolution, series as u64 * 2 * fft_flops(nfft));
}

/// The NEGF symmetrisation of a lane group's canonical series `c` and mirror
/// series `m`, in place: `c ← (c − m*)/2`, `m ← (m − c*)/2` — per lane the
/// scalar `(c − m.conj()) * c64::new(0.5, 0.0)`, `num-complex`'s product
/// with its `0·im` terms. A self-mirror lane must enter with `m = c`; it
/// leaves with `c = m = (c − c*)/2`.
pub(crate) fn symmetrize_group(c: GroupRowsMut<'_>, m: GroupRowsMut<'_>) {
    let (half, zero) = (Lane::from(0.5), Lane::from(0.0));
    // `(re + i·im)·(1/2 + 0i)`.
    let halved = |re: Lane, im: Lane| (re * half - im * zero, re * zero + im * half);
    let rows = c.re.iter_mut().zip(c.im.iter_mut());
    for ((c_re, c_im), (m_re, m_im)) in rows.zip(m.re.iter_mut().zip(m.im.iter_mut())) {
        let (a_re, a_im, b_re, b_im) = (lanes(c_re), lanes(c_im), lanes(m_re), lanes(m_im));
        let (cr, ci) = halved(a_re - b_re, a_im - neg(b_im));
        let (mr, mi) = halved(b_re - a_re, b_im - neg(a_im));
        cr.store(c_re);
        ci.store(c_im);
        mr.store(m_re);
        mi.store(m_im);
    }
}

/// Lane groups per chunk of the energy-major drivers below: their
/// element-major copies of operands and results stay a few MiB whatever
/// the device.
const DRIVER_GROUPS: usize = 32;

/// The one energy-major ↔ element-major scaffold of the drivers below (the
/// single-process stand-in for the forward and backward transpositions).
/// The canonical elements ([`canonical_elements`] order) are taken a chunk
/// of lane groups at a time: the canonical and the mirror series of the `I`
/// input quantities are gathered energy by energy into lane-group slabs,
/// `kernel(inputs, outputs, group)` fills each group's `N` zeroed output
/// series per side (`[canonical, mirror]`; a self-mirror lane's mirror side
/// is not read), and the outputs are written energy by energy into the `N`
/// energy-major results. Asserts that the input grids share `N_E`.
fn map_groups<const I: usize, const N: usize>(
    inputs: [&EnergyResolved; I],
    mut kernel: impl FnMut([StoredGroup<'_>; I], [[GroupRowsMut<'_>; N]; 2], &GroupInfo),
) -> [EnergyResolved; N] {
    let ne = inputs[0].len();
    assert!(
        inputs.iter().all(|x| x.len() == ne),
        "the operand grids differ in N_E: {:?}",
        inputs.map(Vec::len)
    );
    let (nb, bs) = (inputs[0][0].n_blocks(), inputs[0][0].block_size());
    let mut result = [(); N].map(|()| vec![BlockTridiagonal::zeros(nb, bs); ne]);
    let slots = ElementSlots::canonical(nb, bs);
    let n = slots.len();
    let chunk = (DRIVER_GROUPS * LANES).min(n);
    // One set of slabs, reset per chunk: a fresh allocation per chunk costs
    // more than the chunk's convolutions (page faults).
    let planes = || LanePlanes::zeroed(chunk, ne);
    let mut x = [(); I].map(|()| [planes(), planes()]);
    let mut out = [(); 2].map(|()| [(); N].map(|()| planes()));
    let sides = [Side::Canonical, Side::Mirror];
    for start in (0..n).step_by(chunk) {
        let range = start..(start + chunk).min(n);
        // The accumulators start from zero; an operand is overwritten lane
        // by live lane, so only a chunk of another length (the last one,
        // whose tail group has padding lanes) resets it.
        for planes in out.iter_mut().flatten() {
            planes.reset(range.len());
        }
        for planes in x.iter_mut().flatten() {
            if planes.n_elements() != range.len() {
                planes.reset(range.len());
            }
        }
        for k in 0..ne {
            for ([ij, ji], input) in x.iter_mut().zip(inputs) {
                gather_energy([ij, ji], k, &input[k], &slots, range.clone());
            }
        }
        for (g, info) in lane_groups(&slots.self_mirror(range.clone()))
            .iter()
            .enumerate()
        {
            let operands = x.each_ref().map(|[ij, ji]| StoredGroup {
                ij: ij.group(g),
                ji: ji.group(g),
            });
            let outputs = out
                .each_mut()
                .map(|side| side.each_mut().map(|p| p.group_mut(g)));
            kernel(operands, outputs, info);
        }
        for k in 0..ne {
            for (n, bts) in result.iter_mut().enumerate() {
                for (side_out, side) in out.iter().zip(sides) {
                    scatter_energy(&side_out[n], k, &mut bts[k], &slots, range.clone(), side);
                }
            }
        }
    }
    result
}

/// Compute the lesser and greater polarisation from the lesser/greater Green's
/// functions:
/// `P^<_ij(ω_j) = −i·ΔE/(2π)·Σ_E G^<_ij(E)·G^>_ji(E − ω_j)` (and `< ↔ >` for
/// the greater component), on the same `N_E`-point grid with the transfer
/// energy centred at zero.
pub fn polarization_from_g(
    g_lesser: &EnergyResolved,
    g_greater: &EnergyResolved,
    de: f64,
    flops: &FlopCounter,
) -> (EnergyResolved, EnergyResolved) {
    let ne = g_lesser.len();
    assert!(ne >= 2);
    let grid: Vec<usize> = (0..ne).collect();
    let [p_lesser, p_greater] = map_groups([g_lesser, g_greater], |g, p, group| {
        polarization_group_accumulate(p, g, 0..ne, &grid, false, de, group, flops);
    });
    (p_lesser, p_greater)
}

/// Compute the lesser and greater GW self-energy from the Green's functions
/// and the screened interaction:
/// `Σ^≶_ij(E_k) = i·ΔE/(2π)·Σ_ω G^≶_ij(E_k − ω)·W^≶_ij(ω)`.
pub fn self_energy_from_gw(
    g_lesser: &EnergyResolved,
    g_greater: &EnergyResolved,
    w_lesser: &EnergyResolved,
    w_greater: &EnergyResolved,
    de: f64,
    flops: &FlopCounter,
) -> (EnergyResolved, EnergyResolved) {
    let grid: Vec<usize> = (0..g_lesser.len()).collect();
    let inputs = [g_lesser, g_greater, w_lesser, w_greater];
    let [s_lesser, s_greater] = map_groups(inputs, |[gl, gg, wl, wg], s, group| {
        self_energy_group_accumulate(s, [gl, gg], [wl, wg], &grid, de, group, flops);
    });
    (s_lesser, s_greater)
}

/// Build the retarded component from the lesser/greater ones through the
/// causality construction `X^R(t) = θ(t)·[X^>(t) − X^<(t)]`, applied
/// element-wise with FFTs over the energy axis.
pub fn retarded_from_lesser_greater(
    lesser: &EnergyResolved,
    greater: &EnergyResolved,
    flops: &FlopCounter,
) -> EnergyResolved {
    let [retarded] = map_groups([lesser, greater], |[l, g], [[r_ij], [r_ji]], group| {
        causal_retarded_group(r_ij, l.ij, g.ij, group.live, flops);
        if group.paired > 0 {
            causal_retarded_group(r_ji, l.ji, g.ji, group.paired, flops);
        }
    });
    retarded
}

/// Enforce the NEGF lesser/greater symmetry on every energy point in place
/// (the on-the-fly symmetrisation of Section 5.2).
pub fn symmetrize_all(x: &mut EnergyResolved) {
    for bt in x.iter_mut() {
        bt.symmetrize_negf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element_major::lane_groups;
    use quatrex_linalg::cplx;

    fn synthetic_g(ne: usize, nb: usize, bs: usize, sign: f64) -> EnergyResolved {
        (0..ne)
            .map(|k| {
                let mut bt = BlockTridiagonal::zeros(nb, bs);
                for i in 0..nb {
                    let raw = CMatrix::from_fn(bs, bs, |r, c| {
                        let phase = 0.2 * k as f64 + 0.3 * (r + c + i) as f64;
                        cplx(phase.cos() * 0.1, sign * (0.05 + 0.02 * phase.sin().abs()))
                    });
                    bt.set_block(i, i, raw.negf_antihermitian_part());
                }
                for i in 0..nb - 1 {
                    let u = CMatrix::from_fn(bs, bs, |r, c| {
                        cplx(
                            0.02 * (r as f64 - c as f64),
                            sign * 0.01 * (k + i) as f64 / ne as f64,
                        )
                    });
                    bt.set_block(i, i + 1, u.clone());
                    bt.set_block(i + 1, i, u.dagger().scaled(cplx(-1.0, 0.0)));
                }
                bt
            })
            .collect()
    }

    #[test]
    fn polarization_matches_direct_summation_on_the_diagonal() {
        let ne = 16;
        let gl = synthetic_g(ne, 3, 2, 1.0);
        let gg = synthetic_g(ne, 3, 2, -1.0);
        let de = 0.05;
        let flops = FlopCounter::new();
        let (pl, _pg) = polarization_from_g(&gl, &gg, de, &flops);
        // Direct O(N_E²) reference for one element.
        let half = ne / 2;
        let pos = BlockPos::Diag(1);
        let (r, c) = (0, 1);
        for j in [0usize, half, ne - 1] {
            let omega_steps = j as isize - half as isize;
            let mut acc = c64::new(0.0, 0.0);
            for k in 0..ne as isize {
                let kp = k - omega_steps;
                if kp < 0 || kp >= ne as isize {
                    continue;
                }
                acc += get_block(&gl[k as usize], pos)[(r, c)]
                    * get_block(&gg[kp as usize], BlockPos::Diag(1))[(c, r)];
            }
            let expect = c64::new(0.0, -de / (2.0 * std::f64::consts::PI)) * acc;
            let got = get_block(&pl[j], pos)[(r, c)];
            assert!((got - expect).norm() < 1e-10, "j={j}: {got} vs {expect}");
        }
        assert!(flops.get(FlopKind::Convolution) > 0);
    }

    #[test]
    fn polarization_preserves_negf_symmetry() {
        let gl = synthetic_g(12, 4, 2, 1.0);
        let gg = synthetic_g(12, 4, 2, -1.0);
        let flops = FlopCounter::new();
        let (pl, pg) = polarization_from_g(&gl, &gg, 0.1, &flops);
        for bt in pl.iter().chain(pg.iter()) {
            assert!(bt.negf_symmetry_error() < 1e-10);
        }
    }

    #[test]
    fn self_energy_matches_direct_summation() {
        let ne = 12;
        let gl = synthetic_g(ne, 3, 2, 1.0);
        let gg = synthetic_g(ne, 3, 2, -1.0);
        let wl = synthetic_g(ne, 3, 2, 1.0);
        let wg = synthetic_g(ne, 3, 2, -1.0);
        let de = 0.07;
        let flops = FlopCounter::new();
        let (sl, _sg) = self_energy_from_gw(&gl, &gg, &wl, &wg, de, &flops);
        let half = ne / 2;
        let pos = BlockPos::Upper(0);
        let (r, c) = (1, 0);
        for k in [0usize, 3, ne - 1] {
            let mut acc = c64::new(0.0, 0.0);
            for j in 0..ne as isize {
                let omega_steps = j - half as isize;
                let kp = k as isize - omega_steps;
                if kp < 0 || kp >= ne as isize {
                    continue;
                }
                acc += get_block(&gl[kp as usize], pos)[(r, c)]
                    * get_block(&wl[j as usize], pos)[(r, c)];
            }
            let expect = c64::new(0.0, de / (2.0 * std::f64::consts::PI)) * acc;
            let got = get_block(&sl[k], pos)[(r, c)];
            assert!((got - expect).norm() < 1e-10, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "the operand grids differ in N_E: [12, 12, 12, 11]")]
    fn a_short_operand_grid_is_rejected_by_name_before_any_kernel_runs() {
        let g = synthetic_g(12, 3, 2, 1.0);
        let short = synthetic_g(11, 3, 2, -1.0);
        self_energy_from_gw(&g, &g, &g, &short, 0.07, &FlopCounter::new());
    }

    #[test]
    fn retarded_construction_is_causal_and_linear() {
        let ne = 32;
        let l = synthetic_g(ne, 2, 2, 1.0);
        let g = synthetic_g(ne, 2, 2, -1.0);
        let flops = FlopCounter::new();
        let r = retarded_from_lesser_greater(&l, &g, &flops);
        assert_eq!(r.len(), ne);
        // Scaling both inputs scales the output (linearity).
        let l2: EnergyResolved = l
            .iter()
            .map(|bt| {
                let mut b = bt.clone();
                b.scale_mut(cplx(2.0, 0.0));
                b
            })
            .collect();
        let g2: EnergyResolved = g
            .iter()
            .map(|bt| {
                let mut b = bt.clone();
                b.scale_mut(cplx(2.0, 0.0));
                b
            })
            .collect();
        let r2 = retarded_from_lesser_greater(&l2, &g2, &flops);
        for k in 0..ne {
            let scaled = {
                let mut b = r[k].clone();
                b.scale_mut(cplx(2.0, 0.0));
                b
            };
            assert!(r2[k].to_dense().approx_eq(&scaled.to_dense(), 1e-10));
        }
    }

    #[test]
    fn symmetrize_all_restores_the_symmetry() {
        let mut x = synthetic_g(8, 3, 2, 1.0);
        // Perturb one block so the lesser symmetry is clearly violated.
        let mut blk = x[3].upper(0).clone();
        blk[(0, 0)] += cplx(0.5, 0.25);
        x[3].set_block(1, 0, blk);
        assert!(x[3].negf_symmetry_error() > 1e-6);
        symmetrize_all(&mut x);
        for bt in &x {
            assert!(bt.negf_symmetry_error() < 1e-13);
        }
    }

    #[test]
    fn each_lane_of_a_group_equals_a_one_lane_group_of_its_own_series_bit_for_bit() {
        // A ragged group: seven live lanes, two of them self-mirror. The
        // operands are forward-slab data (canonical only, mirrors by the
        // NEGF symmetry), arriving in two batches.
        let ne = 12;
        let self_mirror = [false, true, false, false, true, false, false];
        let info = lane_groups(&self_mirror)[0];
        let series = |seed: f64| -> Vec<Vec<c64>> {
            (0..self_mirror.len())
                .map(|l| {
                    (0..ne)
                        .map(|k| {
                            let phase = seed + 0.7 * l as f64 + 0.31 * k as f64;
                            let re = if self_mirror[l] { 0.0 } else { phase.cos() };
                            cplx(re, phase.sin())
                        })
                        .collect()
                })
                .collect()
        };
        let (g, w) = ([series(0.1), series(1.3)], [series(2.2), series(3.7)]);
        let (g_planes, w_planes) = (
            g.each_ref().map(|x| LanePlanes::from_series(x)),
            w.each_ref().map(|x| LanePlanes::from_series(x)),
        );
        fn negf<'a>(x: &'a [LanePlanes; 2], sign: &'a Row) -> [NegfGroup<'a>; 2] {
            [0, 1].map(|c| NegfGroup {
                rows: x[c].group(0),
                sign,
            })
        }
        fn stored(x: &[[LanePlanes; 2]; 2]) -> [StoredGroup<'_>; 2] {
            x.each_ref().map(|[ij, ji]| StoredGroup {
                ij: ij.group(0),
                ji: ji.group(0),
            })
        }
        fn rows_mut(x: &mut [[LanePlanes; 2]; 2]) -> [[GroupRowsMut<'_>; 2]; 2] {
            x.each_mut()
                .map(|side| side.each_mut().map(|p| p.group_mut(0)))
        }
        let batches: [Vec<usize>; 2] = [(0..5).collect(), (5..ne).collect()];
        let zero = |n: usize| [(); 2].map(|()| [(); 2].map(|()| LanePlanes::zeroed(n, ne)));
        let (mut p, mut sigma) = (zero(self_mirror.len()), zero(self_mirror.len()));
        let flops = FlopCounter::new();
        let mut arrived = Vec::new();
        for batch in &batches {
            arrived.extend_from_slice(batch);
            let before = arrived.len() > batch.len();
            let g = negf(&g_planes, &info.sign);
            let (out, arrived) = (rows_mut(&mut p), arrived.iter().copied());
            polarization_group_accumulate(out, g, arrived, batch, before, 0.05, &info, &flops);
            let (g, w) = (negf(&g_planes, &info.sign), negf(&w_planes, &info.sign));
            self_energy_group_accumulate(rows_mut(&mut sigma), g, w, batch, 0.05, &info, &flops);
        }
        let group_flops = flops.total();

        // Each lane alone in a group of one, mirrors stored as the forward
        // slab held them before (`−X*` of each arrived energy, zero before
        // it arrived) and every energy read as arrived.
        let one_flops = FlopCounter::new();
        let zero_c = c64::new(0.0, 0.0);
        let all: Vec<usize> = (0..ne).collect();
        for (l, &own) in self_mirror.iter().enumerate() {
            let one = lane_groups(&[own])[0];
            // `[X^<, X^>]` of lane `l`, each `[ij, ji]`, unseen energies zero.
            let lane = |x: &[Vec<Vec<c64>>; 2], seen: &[usize]| -> [[LanePlanes; 2]; 2] {
                [0, 1].map(|c| {
                    let (mut ij, mut ji) = (vec![zero_c; ne], vec![zero_c; ne]);
                    for &k in seen {
                        ij[k] = x[c][l][k];
                        ji[k] = if own { ij[k] } else { -ij[k].conj() };
                    }
                    [ij, ji].map(|s| LanePlanes::from_series(&[s]))
                })
            };
            let (mut p_one, mut s_one) = (zero(1), zero(1));
            let mut seen = Vec::new();
            for (b, batch) in batches.iter().enumerate() {
                seen.extend_from_slice(batch);
                let (g_seen, g_all, w_seen) = (lane(&g, &seen), lane(&g, &all), lane(&w, &seen));
                let (out, gs) = (rows_mut(&mut p_one), stored(&g_seen));
                polarization_group_accumulate(out, gs, 0..ne, batch, b > 0, 0.05, &one, &one_flops);
                let (out, gs, ws) = (rows_mut(&mut s_one), stored(&g_all), stored(&w_seen));
                self_energy_group_accumulate(out, gs, ws, batch, 0.05, &one, &one_flops);
            }
            for (group, alone) in [(&p, &p_one), (&sigma, &s_one)] {
                for (side, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    if side == 1 && own {
                        continue;
                    }
                    let bits = |x: Vec<c64>| -> Vec<(u64, u64)> {
                        x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(group[side][c].series(l)),
                        bits(alone[side][c].series(0)),
                        "lane {l}, side {side}, component {c}"
                    );
                }
            }
        }
        assert_eq!(group_flops, one_flops.total());
    }

    #[test]
    fn canonical_elements_with_mirrors_cover_the_stored_pattern_exactly_once() {
        let (nb, bs) = (4, 3);
        let canon = canonical_elements(nb, bs);
        let mut seen = std::collections::HashSet::new();
        for e in &canon {
            assert!(
                seen.insert((e.pos, e.row, e.col)),
                "duplicate canonical {e:?}"
            );
            if !e.is_self_mirror() {
                let m = e.mirror();
                assert!(seen.insert((m.pos, m.row, m.col)), "mirror collides {m:?}");
            }
        }
        // Canonical elements and mirrors cover the stored pattern exactly…
        assert_eq!(seen.len(), (3 * nb - 2) * bs * bs);
        // …and the canonical ones are (stored + diagonal) / 2, the rule
        // `paper_tables` prices at the paper's scale.
        assert_eq!(canon.len(), (seen.len() + nb * bs) / 2);
    }
}
