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
//! There is **one** kernel per phase — [`polarization_pair_accumulate`],
//! [`self_energy_pair_accumulate`], [`causal_retarded_series`] — and the SCBA
//! loop and the whole-grid drivers below both call it. The `P`/`Σ` kernels work on an element **pair**: a
//! canonical element `(i, j)` together with its mirror `(j, i)` (a self-mirror
//! diagonal element is a pair of one). The pair is the unit because the
//! mirror's polarisation is the canonical one's correlation read backwards,
//!
//! ```text
//! corr(a, b)[k] = Σ_m a[m]·b[m − k]      ⇒      corr(b, a)[k] = corr(a, b)[−k]
//! P^<_ij[k] ∝ corr(G^<_ij, G^>_ji)[k]            P^>_ji[k] ∝ corr(G^<_ij, G^>_ji)[−k]
//! P^>_ij[k] ∝ corr(G^>_ij, G^<_ji)[k]            P^<_ji[k] ∝ corr(G^>_ij, G^<_ji)[−k]
//! ```
//!
//! so two correlations give all four outputs. The kernels run on the calling
//! thread's planned FFT workspace ([`quatrex_fft::with_workspace`]): every
//! operand is loaded straight from the caller's series into zeroed padded
//! planes (the batch restriction, its complement and the reversal of a
//! correlation's second factor are index maps at load time, not copies),
//! transformed **once**, the products of one output are summed in the
//! frequency domain and share one inverse transform, and the inverse's `1/n`
//! rides in the prefactor. Transforms per pair and call (a self-mirror `Σ`
//! pair costs half):
//!
//! | kernel call                         | forward | inverse | total |
//! |-------------------------------------|--------:|--------:|------:|
//! | `P`, first (or only) batch          |       4 |       2 |     6 |
//! | `P`, later batch (cross terms)      |       8 |       2 |    10 |
//! | `Σ`, any batch                      |       8 |       4 |    12 |
//!
//! `FlopKind::Convolution` counts exactly these: `fft_flops(n)` per transform
//! run plus `6n` per frequency-domain product. Nothing persists between
//! calls — accumulators are `N_E`-long and time-domain.
//!
//! The kernels take a *batch view*: the energy indices that just arrived,
//! accumulated into running output series. The SCBA loop
//! ([`crate::dist`]), which owns element slices after a real all-to-all
//! transposition, feeds them one `Alltoallv` batch at a time; the
//! energy-major drivers below ([`polarization_from_g`],
//! [`self_energy_from_gw`], [`retarded_from_lesser_greater`]) gather every
//! stored pair's series and call them once with the whole grid as the single
//! batch — "every energy, nothing arrived before". The single-threaded replay
//! of the loop in `crates/core/tests/mixing_rule.rs` relies on the two
//! sharing this path.

use quatrex_fft::{fft_flops, with_workspace};
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;
use rayon::prelude::*;

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
pub fn get_block(x: &BlockTridiagonal, pos: BlockPos) -> &CMatrix {
    match pos {
        BlockPos::Diag(i) => x.diag(i),
        BlockPos::Upper(i) => x.upper(i),
        BlockPos::Lower(i) => x.lower(i),
    }
}

/// Mutable reference to the block at `pos`.
fn get_block_mut(x: &mut BlockTridiagonal, pos: BlockPos) -> &mut CMatrix {
    match pos {
        BlockPos::Diag(i) => x.diag_mut(i),
        BlockPos::Upper(i) => x.upper_mut(i),
        BlockPos::Lower(i) => x.lower_mut(i),
    }
}

/// The block position holding the transposed element.
pub fn transposed_position(pos: BlockPos) -> BlockPos {
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

/// Visit the canonical elements stored in the canonical block `pos`, row by
/// row: the upper triangle of a diagonal block, every element of a
/// superdiagonal one.
fn for_each_canonical_in_block(pos: BlockPos, bs: usize, mut visit: impl FnMut(ElementId)) {
    let upper_triangle = matches!(pos, BlockPos::Diag(_));
    for row in 0..bs {
        for col in if upper_triangle { row } else { 0 }..bs {
            visit(ElementId { pos, row, col });
        }
    }
}

/// The canonical (symmetry-reduced) element set of Section 5.2: the upper
/// triangle of every diagonal block plus every element of the superdiagonal
/// blocks. Together with its mirrors (recovered through the NEGF symmetry
/// `X^≶_ij = −X^≶*_ji`), it spans the full stored pattern; an element and its
/// mirror are the *pair* the convolution kernels work on.
pub fn canonical_elements(nb: usize, bs: usize) -> Vec<ElementId> {
    let mut elements = Vec::with_capacity(nb * bs * (bs + 1) / 2 + (nb - 1) * bs * bs);
    for pos in canonical_positions(nb) {
        for_each_canonical_in_block(pos, bs, |e| elements.push(e));
    }
    elements
}

// ---------------------------------------------------------------------------
// Batch-view pair kernels. A forward transposition delivers the
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

/// True if `batch` lists strictly ascending indices of an `ne`-point grid —
/// what the pair kernels require of an arrived batch.
pub fn is_grid_batch(batch: &[usize], ne: usize) -> bool {
    batch.windows(2).all(|w| w[0] < w[1]) && batch.last().is_none_or(|&k| k < ne)
}

/// True if every series of a kernel call is `ne` long.
fn all_grid_long<'a>(ne: usize, series: impl IntoIterator<Item = &'a [c64]>) -> bool {
    series.into_iter().all(|x| x.len() == ne)
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

/// Accumulate one energy batch's polarisation contribution into the four
/// series of an element pair: `p_ij = [P^<_ij, P^>_ij]` and, unless the
/// element is its own mirror, `p_ji = [P^<_ji, P^>_ji]` (length-`N_E`
/// accumulators, zero-initialised before the first batch).
///
/// `g = [[G^<_ij, G^>_ij], [G^<_ji, G^>_ji]]` are the **arrived-so-far** data
/// *including* this batch (un-arrived energies still zero; for a self-mirror
/// element both sides are the same series); `batch` lists the global energy
/// indices that arrived in this batch (ascending; may be non-contiguous when
/// several source ranks contribute); `arrived_before` states whether any
/// earlier batch contributed energies. Two correlations are formed —
/// `corr(G^<_ij, G^>_ji)` and `corr(G^>_ij, G^<_ji)` — and each is read
/// twice: at lag `+k` into the canonical element's series, at lag `−k` into
/// the mirror's opposite component (see the module docs). Summed over all
/// batches of one iteration the accumulators equal the whole-grid call
/// (`batch = 0..N_E`, `arrived_before = false` — what
/// [`polarization_from_g`] issues) up to floating-point summation order.
pub fn polarization_pair_accumulate(
    p_ij: [&mut [c64]; 2],
    p_ji: Option<[&mut [c64]; 2]>,
    g: [[&[c64]; 2]; 2],
    batch: &[usize],
    arrived_before: bool,
    de: f64,
    flops: &FlopCounter,
) {
    let [[g_lesser_ij, g_greater_ij], [g_lesser_ji, g_greater_ji]] = g;
    let ne = g_lesser_ij.len();
    debug_assert!(is_grid_batch(batch, ne), "batch {batch:?} on {ne} energies");
    debug_assert!(all_grid_long(ne, g.into_iter().flatten()));
    debug_assert!(all_grid_long(
        ne,
        p_ij.iter().chain(p_ji.iter().flatten()).map(|p| &**p)
    ));
    if batch.is_empty() {
        return;
    }
    let n = padded_len(ne);
    let prefactor = c64::new(0.0, -de / (2.0 * std::f64::consts::PI) / n as f64);
    let (zero_lag, half) = (ne - 1, ne / 2);
    let [p_lesser_ij, p_greater_ij] = p_ij;
    let [p_lesser_ji, p_greater_ji] = match p_ji {
        Some([lesser, greater]) => [Some(lesser), Some(greater)],
        None => [None, None],
    };
    // (first factor, second factor, series read at lag +k, series read at −k)
    let correlations = [
        (g_lesser_ij, g_greater_ji, p_lesser_ij, p_greater_ji),
        (g_greater_ij, g_lesser_ji, p_greater_ij, p_lesser_ji),
    ];
    with_workspace(n, |w| {
        for (a, b, forward, backward) in correlations {
            // `corr(a, b)[k]` is `conv(a, b reversed)[k + N_E − 1]`.
            let reversed = |(m, v): (usize, c64)| (zero_lag - m, v);
            w.clear();
            // This batch's first factor against everything arrived.
            w.add_product(
                batch.iter().map(|&k| (k, a[k])),
                b.iter().copied().enumerate().map(reversed),
            );
            if arrived_before {
                // The earlier batches' first factor against this batch's
                // second.
                let zeroed = batch.iter().map(|&k| (k, c64::new(0.0, 0.0)));
                w.add_product(
                    a.iter().copied().enumerate().chain(zeroed),
                    batch.iter().map(|&k| (k, b[k])).map(reversed),
                );
            }
            let (re, im) = w.inverse();
            let at_lag = |at: usize| prefactor * c64::new(re[at], im[at]);
            for (j, slot) in forward.iter_mut().enumerate() {
                *slot += at_lag(zero_lag + j - half);
            }
            for (j, slot) in backward.into_iter().flatten().enumerate() {
                *slot += at_lag(zero_lag + half - j);
            }
        }
    });
    flops.add(
        FlopKind::Convolution,
        2 * output_flops(n, 1 + u64::from(arrived_before)),
    );
}

/// Accumulate one `W` energy batch's self-energy contribution into the four
/// series of an element pair: `s_ij = [Σ^<_ij, Σ^>_ij]` and, unless the
/// element is its own mirror, `s_ji = [Σ^<_ji, Σ^>_ji]` (length-`N_E`
/// accumulators, zero-initialised before the first batch).
///
/// `g` and `w` are laid out like [`polarization_pair_accumulate`]'s `g`
/// (`[side][component]`; the `ji` side is not read for a self-mirror
/// element). The `G` series are **complete** (they arrived in the earlier `G`
/// transposition); the `W` series carry the arrived-so-far data including
/// this batch. Because `Σ` is linear in `W`, each batch's contribution
/// `conv(Δw_b, g)` is independent and the sum over batches equals the
/// whole-grid call (`batch = 0..N_E` — what [`self_energy_from_gw`] issues)
/// up to floating-point summation order.
pub fn self_energy_pair_accumulate(
    s_ij: [&mut [c64]; 2],
    s_ji: Option<[&mut [c64]; 2]>,
    g: [[&[c64]; 2]; 2],
    w: [[&[c64]; 2]; 2],
    batch: &[usize],
    de: f64,
    flops: &FlopCounter,
) {
    let ne = g[0][0].len();
    debug_assert!(is_grid_batch(batch, ne), "batch {batch:?} on {ne} energies");
    debug_assert!(all_grid_long(ne, g.into_iter().chain(w).flatten()));
    debug_assert!(all_grid_long(
        ne,
        s_ij.iter().chain(s_ji.iter().flatten()).map(|s| &**s)
    ));
    if batch.is_empty() {
        return;
    }
    let n = padded_len(ne);
    let prefactor = c64::new(0.0, de / (2.0 * std::f64::consts::PI) / n as f64);
    let half = ne / 2;
    let outputs = 2 * (1 + u64::from(s_ji.is_some()));
    let sides = [Some(s_ij), s_ji].into_iter().zip(g).zip(w);
    with_workspace(n, |ws| {
        for ((s, g), w) in sides {
            // Lesser, then greater, of the sides that exist.
            for ((s, g), w) in s.into_iter().flatten().zip(g).zip(w) {
                ws.clear();
                ws.add_product(
                    batch.iter().map(|&k| (k, w[k])),
                    g.iter().copied().enumerate(),
                );
                let (re, im) = ws.inverse();
                for (k, slot) in s.iter_mut().enumerate() {
                    *slot += prefactor * c64::new(re[k + half], im[k + half]);
                }
            }
        }
    });
    flops.add(FlopKind::Convolution, outputs * output_flops(n, 1));
}

/// Per-element causality construction: `X^R(t) = θ(t)·[X^>(t) − X^<(t)]`
/// evaluated with FFTs over the energy axis, written into `retarded`.
pub fn causal_retarded_series(
    retarded: &mut [c64],
    lesser: &[c64],
    greater: &[c64],
    flops: &FlopCounter,
) {
    let ne = lesser.len();
    debug_assert!(all_grid_long(ne, [greater, &*retarded]));
    let nfft = ne.next_power_of_two();
    let scale = 1.0 / nfft as f64;
    with_workspace(nfft, |w| {
        w.load((0..ne).map(|k| (k, greater[k] - lesser[k])));
        // To pseudo-time, apply the Heaviside step, back to energy.
        let (re, im) = w.inverse();
        re[0] *= 0.5;
        im[0] *= 0.5;
        re[(nfft / 2).max(1)..].fill(0.0);
        im[(nfft / 2).max(1)..].fill(0.0);
        let (re, im) = w.forward();
        for (k, slot) in retarded.iter_mut().enumerate() {
            *slot = c64::new(re[k] * scale, im[k] * scale);
        }
    });
    flops.add(FlopKind::Convolution, 2 * fft_flops(nfft));
}

/// The `N` equally long sub-slices of `x`.
fn split<const N: usize>(x: &[c64]) -> [&[c64]; N] {
    let mut parts = x.chunks_exact(x.len() / N);
    [(); N].map(|()| parts.next().expect("N parts"))
}

/// The `N` equally long mutable sub-slices of `x`.
fn split_mut<const N: usize>(x: &mut [c64]) -> [&mut [c64]; N] {
    let mut parts = x.chunks_exact_mut(x.len() / N);
    [(); N].map(|()| parts.next().expect("N parts"))
}

/// The one energy-major ↔ element-major scaffold of the drivers below (the
/// single-process stand-in for the forward and backward transpositions).
/// For every element pair — canonical element `ij`, mirror `ji` — the series
/// of the `I` input quantities are gathered into per-worker scratch and
/// `kernel(in_ij, in_ji, out_ij, out_ji)` fills the pair's `N` zeroed output
/// series per side (`out_ji` is `None` for a self-mirror element), which are
/// written back as `N` energy-major quantities. Parallel over the canonical
/// block positions; asserts that the input grids share `N_E`.
fn map_pairs<const I: usize, const N: usize>(
    inputs: [&EnergyResolved; I],
    kernel: impl Fn([&[c64]; I], [&[c64]; I], [&mut [c64]; N], Option<[&mut [c64]; N]>) + Sync,
) -> [EnergyResolved; N] {
    let ne = inputs[0].len();
    assert!(
        inputs.iter().all(|x| x.len() == ne),
        "the operand grids differ in N_E: {:?}",
        inputs.map(Vec::len)
    );
    let (nb, bs) = (inputs[0][0].n_blocks(), inputs[0][0].block_size());
    let zero = c64::new(0.0, 0.0);
    // The results are allocated here, on the calling thread, and their blocks
    // lent to the workers position by position: `N · N_E` blocks
    // (component-major) of the position itself and of the transposed one.
    let mut result = [(); N].map(|()| vec![BlockTridiagonal::zeros(nb, bs); ne]);
    let mut lend = |pos: BlockPos| -> Vec<CMatrix> {
        let quantities = result.iter_mut().flatten();
        quantities
            .map(|bt| std::mem::take(get_block_mut(bt, pos)))
            .collect()
    };
    let lent: Vec<(BlockPos, [Vec<CMatrix>; 2])> = canonical_positions(nb)
        .map(|pos| match transposed_position(pos) {
            transposed if transposed == pos => (pos, [lend(pos), Vec::new()]),
            transposed => (pos, [lend(pos), lend(transposed)]),
        })
        .collect();
    let filled: Vec<(BlockPos, [Vec<CMatrix>; 2])> = lent
        .into_par_iter()
        .map(|(pos, mut blocks)| {
            let mirror_side = usize::from(!blocks[1].is_empty());
            // Worker scratch, reused by every pair of the block.
            let mut gathered = vec![zero; 2 * I * ne];
            let mut out = vec![zero; 2 * N * ne];
            for_each_canonical_in_block(pos, bs, |e| {
                let (ij, ji) = gathered.split_at_mut(I * ne);
                for (i, x) in inputs.iter().enumerate() {
                    for (k, bt) in x.iter().enumerate() {
                        ij[i * ne + k] = e.value_in(bt);
                        ji[i * ne + k] = e.mirror().value_in(bt);
                    }
                }
                out.fill(zero);
                let (out_ij, out_ji) = out.split_at_mut(N * ne);
                let paired = !e.is_self_mirror();
                kernel(
                    split(ij),
                    split(ji),
                    split_mut(out_ij),
                    paired.then(|| split_mut(out_ji)),
                );
                let sides = [(e, &*out_ij, 0), (e.mirror(), &*out_ji, mirror_side)];
                for (id, series, side) in sides.into_iter().take(1 + usize::from(paired)) {
                    for (block, &value) in blocks[side].iter_mut().zip(series) {
                        block[(id.row, id.col)] = value;
                    }
                }
            });
            (pos, blocks)
        })
        .collect();
    for (pos, blocks) in filled {
        for (pos, blocks) in [pos, transposed_position(pos)].into_iter().zip(blocks) {
            for (bt, block) in result.iter_mut().flatten().zip(blocks) {
                *get_block_mut(bt, pos) = block;
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
    let [p_lesser, p_greater] = map_pairs([g_lesser, g_greater], |g_ij, g_ji, p_ij, p_ji| {
        polarization_pair_accumulate(p_ij, p_ji, [g_ij, g_ji], &grid, false, de, flops);
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
    let [s_lesser, s_greater] = map_pairs(inputs, |x_ij, x_ji, s_ij, s_ji| {
        let ([gl_ij, gg_ij, wl_ij, wg_ij], [gl_ji, gg_ji, wl_ji, wg_ji]) = (x_ij, x_ji);
        let g = [[gl_ij, gg_ij], [gl_ji, gg_ji]];
        let w = [[wl_ij, wg_ij], [wl_ji, wg_ji]];
        self_energy_pair_accumulate(s_ij, s_ji, g, w, &grid, de, flops);
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
    let [retarded] = map_pairs([lesser, greater], |x_ij, x_ji, [r_ij], r_ji| {
        causal_retarded_series(r_ij, x_ij[0], x_ij[1], flops);
        if let Some([r_ji]) = r_ji {
            causal_retarded_series(r_ji, x_ji[0], x_ji[1], flops);
        }
    });
    retarded
}

/// Enforce the NEGF lesser/greater symmetry on every energy point in place
/// (the on-the-fly symmetrisation of Section 5.2).
pub fn symmetrize_all(x: &mut EnergyResolved) {
    x.par_iter_mut().for_each(|bt| bt.symmetrize_negf());
}

#[cfg(test)]
mod tests {
    use super::*;
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
