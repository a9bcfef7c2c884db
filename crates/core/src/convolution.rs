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
//! There is **one** per-element kernel per phase —
//! [`polarization_series_accumulate`], [`self_energy_series_accumulate`],
//! [`causal_retarded_series`] — and both drivers call it. The kernels take a
//! *batch view*: the energy indices that just arrived, accumulated into
//! running output series. The distributed driver (`quatrex-dist`), which owns
//! element slices after a real all-to-all transposition, feeds them one
//! `Alltoallv` batch at a time; the energy-major drivers below
//! ([`polarization_from_g`], [`self_energy_from_gw`],
//! [`retarded_from_lesser_greater`]) gather every stored element's series and
//! call them once with the whole grid as the single batch — "every energy,
//! nothing arrived before". The equivalence tests rely on the two drivers
//! sharing this path.

use quatrex_fft::{convolve, fft, ifft, next_power_of_two};
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

/// All stored block positions of an `nb`-block BT pattern, in the fixed
/// enumeration order shared by every driver (diagonals first, then
/// upper/lower pairs).
pub fn block_positions(nb: usize) -> Vec<BlockPos> {
    let mut v = Vec::with_capacity(3 * nb - 2);
    for i in 0..nb {
        v.push(BlockPos::Diag(i));
    }
    for i in 0..nb - 1 {
        v.push(BlockPos::Upper(i));
        v.push(BlockPos::Lower(i));
    }
    v
}

/// Shared reference to the block at `pos`.
pub fn get_block(x: &BlockTridiagonal, pos: BlockPos) -> &CMatrix {
    match pos {
        BlockPos::Diag(i) => x.diag(i),
        BlockPos::Upper(i) => x.upper(i),
        BlockPos::Lower(i) => x.lower(i),
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

/// Overwrite the block at `pos`.
pub fn set_block(x: &mut BlockTridiagonal, pos: BlockPos, block: CMatrix) {
    match pos {
        BlockPos::Diag(i) => x.set_block(i, i, block),
        BlockPos::Upper(i) => x.set_block(i, i + 1, block),
        BlockPos::Lower(i) => x.set_block(i + 1, i, block),
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
/// `X^≶_ij = −X^≶*_ji`), it spans the full stored pattern.
pub fn canonical_elements(nb: usize, bs: usize) -> Vec<ElementId> {
    let mut v = Vec::new();
    for i in 0..nb {
        for r in 0..bs {
            for c in r..bs {
                v.push(ElementId {
                    pos: BlockPos::Diag(i),
                    row: r,
                    col: c,
                });
            }
        }
    }
    for i in 0..nb - 1 {
        for r in 0..bs {
            for c in 0..bs {
                v.push(ElementId {
                    pos: BlockPos::Upper(i),
                    row: r,
                    col: c,
                });
            }
        }
    }
    v
}

/// Number of stored scalar values per energy point of the full BT pattern.
pub fn stored_values(nb: usize, bs: usize) -> usize {
    (3 * nb - 2) * bs * bs
}

/// Gather the energy series of one scalar element (`pos`, r, c).
pub fn element_series(x: &EnergyResolved, pos: BlockPos, r: usize, c: usize) -> Vec<c64> {
    x.iter().map(|bt| get_block(bt, pos)[(r, c)]).collect()
}

/// Cross-correlation without conjugation at lag `k` (range `−(n−1)..n`):
/// `out[k + n − 1] = Σ_m a[m]·b[m − k]`.
fn cross_correlate(a: &[c64], b: &[c64]) -> Vec<c64> {
    let b_rev: Vec<c64> = b.iter().rev().copied().collect();
    convolve(a, &b_rev)
}

// ---------------------------------------------------------------------------
// Batch-view kernels. A forward transposition delivers the Green's-function /
// screened-interaction series one *energy batch* at a time (the global
// indices that arrived in one `Alltoallv` batch; the whole grid for the
// energy-major drivers), and each batch's convolution contribution is
// accumulated while the next batch is still in flight. The decompositions
// are exact:
//
// * `Σ = Σ_b conv(Δw_b, g)` — the self-energy is *linear* in `W`, so each
//   arriving `W` batch contributes independently against the complete `G`
//   series;
// * `P = Σ_b [corr(Δa_b, B_≤b) + corr(A_<b, Δb_b)]` — the polarisation is
//   *bilinear* in `G`, so batch `b` contributes its cross terms against
//   everything that has arrived up to and including it; summed over batches
//   every pair of batches is counted exactly once.
//
// With a single batch both are the plain correlation / convolution of the
// full series: the same floating-point operations whichever driver calls.

/// `x` restricted to the batch indices (zero elsewhere): the values that
/// arrived in this batch.
fn batch_delta(x: &[c64], batch: &[usize]) -> Vec<c64> {
    let mut d = vec![c64::new(0.0, 0.0); x.len()];
    for &k in batch {
        d[k] = x[k];
    }
    d
}

/// `x` with the batch indices zeroed: the values that had arrived *before*
/// this batch.
fn batch_complement(x: &[c64], batch: &[usize]) -> Vec<c64> {
    let mut c = x.to_vec();
    for &k in batch {
        c[k] = c64::new(0.0, 0.0);
    }
    c
}

/// Accumulate one energy batch's polarisation contribution into
/// `p_lesser`/`p_greater` (length-`N_E` accumulators, zero-initialised before
/// the first batch).
///
/// The four input series are the **arrived-so-far** data *including* this
/// batch (un-arrived energies still zero); `batch` lists the global energy
/// indices that arrived in this batch (ascending; may be non-contiguous when
/// several source ranks contribute); `arrived_before` states whether any
/// earlier batch contributed energies. Summed over all batches of one
/// iteration the accumulators equal the whole-grid call (`batch = 0..N_E`,
/// `arrived_before = false` — what [`polarization_from_g`] issues) up to
/// floating-point summation order.
#[allow(clippy::too_many_arguments)]
pub fn polarization_series_accumulate(
    p_lesser: &mut [c64],
    p_greater: &mut [c64],
    g_lesser_ij: &[c64],
    g_greater_ji: &[c64],
    g_greater_ij: &[c64],
    g_lesser_ji: &[c64],
    batch: &[usize],
    arrived_before: bool,
    de: f64,
    flops: &FlopCounter,
) {
    if batch.is_empty() {
        return;
    }
    let ne = g_lesser_ij.len();
    let prefactor = c64::new(0.0, -de / (2.0 * std::f64::consts::PI));
    let zero_lag = ne - 1;
    let half = ne / 2;
    let accumulate = |acc: &mut [c64], corr: &[c64]| {
        for (j, slot) in acc.iter_mut().enumerate() {
            let lag = j as isize - half as isize;
            let idx = zero_lag as isize + lag;
            *slot += prefactor * corr[idx as usize];
        }
    };
    // lesser: corr(G^<_ij, G^>_ji); greater: corr(G^>_ij, G^<_ji).
    let corr_l = cross_correlate(&batch_delta(g_lesser_ij, batch), g_greater_ji);
    let corr_g = cross_correlate(&batch_delta(g_greater_ij, batch), g_lesser_ji);
    accumulate(p_lesser, &corr_l);
    accumulate(p_greater, &corr_g);
    let mut n_corr = 2u64;
    if arrived_before {
        // Cross terms of this batch's second factor against the earlier
        // batches' first factor.
        let corr_l = cross_correlate(
            &batch_complement(g_lesser_ij, batch),
            &batch_delta(g_greater_ji, batch),
        );
        let corr_g = cross_correlate(
            &batch_complement(g_greater_ij, batch),
            &batch_delta(g_lesser_ji, batch),
        );
        accumulate(p_lesser, &corr_l);
        accumulate(p_greater, &corr_g);
        n_corr += 2;
    }
    flops.add(
        FlopKind::Convolution,
        n_corr * quatrex_fft::convolution_flops(ne, ne),
    );
}

/// Accumulate one `W` energy batch's self-energy contribution into
/// `s_lesser`/`s_greater` (length-`N_E` accumulators, zero-initialised before
/// the first batch).
///
/// `g_lesser_ij`/`g_greater_ij` are the **complete** Green's-function series
/// (they arrived in the earlier `G` transposition); the `W` series carry the
/// arrived-so-far data including this batch. Because `Σ` is linear in `W`,
/// each batch's contribution `conv(Δw_b, g)` is independent and the sum over
/// batches equals the whole-grid call (`batch = 0..N_E` — what
/// [`self_energy_from_gw`] issues) up to floating-point summation order.
#[allow(clippy::too_many_arguments)]
pub fn self_energy_series_accumulate(
    s_lesser: &mut [c64],
    s_greater: &mut [c64],
    g_lesser_ij: &[c64],
    g_greater_ij: &[c64],
    w_lesser_ij: &[c64],
    w_greater_ij: &[c64],
    batch: &[usize],
    de: f64,
    flops: &FlopCounter,
) {
    if batch.is_empty() {
        return;
    }
    let ne = g_lesser_ij.len();
    let prefactor = c64::new(0.0, de / (2.0 * std::f64::consts::PI));
    let half = ne / 2;
    let conv_l = convolve(&batch_delta(w_lesser_ij, batch), g_lesser_ij);
    let conv_g = convolve(&batch_delta(w_greater_ij, batch), g_greater_ij);
    flops.add(
        FlopKind::Convolution,
        2 * quatrex_fft::convolution_flops(ne, ne),
    );
    for k in 0..ne {
        s_lesser[k] += prefactor * conv_l[k + half];
        s_greater[k] += prefactor * conv_g[k + half];
    }
}

/// Per-element causality construction: `X^R(t) = θ(t)·[X^>(t) − X^<(t)]`
/// evaluated with FFTs over the energy axis, returning the retarded series.
pub fn causal_retarded_series(lesser: &[c64], greater: &[c64], flops: &FlopCounter) -> Vec<c64> {
    let ne = lesser.len();
    let nfft = next_power_of_two(ne);
    let mut spectral: Vec<c64> = vec![c64::new(0.0, 0.0); nfft];
    for k in 0..ne {
        spectral[k] = greater[k] - lesser[k];
    }
    // To pseudo-time, apply the Heaviside step, back to energy.
    ifft(&mut spectral);
    for (t, v) in spectral.iter_mut().enumerate() {
        if t == 0 {
            *v *= 0.5;
        } else if t >= nfft / 2 {
            *v = c64::new(0.0, 0.0);
        }
    }
    fft(&mut spectral);
    flops.add(FlopKind::Convolution, 2 * quatrex_fft::fft_flops(nfft));
    spectral[..ne].to_vec()
}

/// The one energy-major ↔ element-major scaffold of the drivers below (the
/// single-process stand-in for the forward and backward transpositions):
/// `kernel(pos, r, c)` gathers what it needs of stored element `(pos, r, c)`
/// with [`element_series`] and returns the element's `N` output series,
/// which are written back as `N` energy-major quantities shaped like `like`.
/// Parallel over block positions.
fn map_elements<const N: usize>(
    like: &EnergyResolved,
    kernel: impl Fn(BlockPos, usize, usize) -> [Vec<c64>; N] + Sync,
) -> [EnergyResolved; N] {
    let (ne, nb, bs) = (like.len(), like[0].n_blocks(), like[0].block_size());
    let per_position: Vec<(BlockPos, Vec<[Vec<c64>; N]>)> = block_positions(nb)
        .par_iter()
        .map(|&pos| {
            let series = (0..bs * bs).map(|i| kernel(pos, i / bs, i % bs));
            (pos, series.collect())
        })
        .collect();
    let mut out = [(); N].map(|()| vec![BlockTridiagonal::zeros(nb, bs); ne]);
    for (pos, elements) in per_position {
        for (n, component) in out.iter_mut().enumerate() {
            for (k, bt) in component.iter_mut().enumerate() {
                let block = CMatrix::from_fn(bs, bs, |r, c| elements[r * bs + c][n][k]);
                set_block(bt, pos, block);
            }
        }
    }
    out
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
    assert_eq!(ne, g_greater.len());
    assert!(ne >= 2);
    let grid: Vec<usize> = (0..ne).collect();
    let [p_lesser, p_greater] = map_elements(g_lesser, |pos, r, c| {
        let tpos = transposed_position(pos);
        let mut p = [(); 2].map(|()| vec![c64::new(0.0, 0.0); ne]);
        let [pl, pg] = &mut p;
        polarization_series_accumulate(
            pl,
            pg,
            &element_series(g_lesser, pos, r, c),
            &element_series(g_greater, tpos, c, r),
            &element_series(g_greater, pos, r, c),
            &element_series(g_lesser, tpos, c, r),
            &grid,
            false,
            de,
            flops,
        );
        p
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
    let ne = g_lesser.len();
    assert_eq!(ne, w_lesser.len());
    let grid: Vec<usize> = (0..ne).collect();
    let [s_lesser, s_greater] = map_elements(g_lesser, |pos, r, c| {
        let mut s = [(); 2].map(|()| vec![c64::new(0.0, 0.0); ne]);
        let [sl, sg] = &mut s;
        self_energy_series_accumulate(
            sl,
            sg,
            &element_series(g_lesser, pos, r, c),
            &element_series(g_greater, pos, r, c),
            &element_series(w_lesser, pos, r, c),
            &element_series(w_greater, pos, r, c),
            &grid,
            de,
            flops,
        );
        s
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
    let [retarded] = map_elements(lesser, |pos, r, c| {
        let l = element_series(lesser, pos, r, c);
        let g = element_series(greater, pos, r, c);
        [causal_retarded_series(&l, &g, flops)]
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
        assert_eq!(seen.len(), stored_values(nb, bs));
        // Count matches the closed form used by the volume model.
        assert_eq!(canon.len(), nb * bs * (bs + 1) / 2 + (nb - 1) * bs * bs);
    }

    /// Deterministic synthetic series for the batch-kernel tests.
    fn synthetic_series(ne: usize, seed: f64) -> Vec<c64> {
        (0..ne)
            .map(|k| {
                cplx(
                    (seed + 0.37 * k as f64).sin(),
                    (1.3 * seed - 0.21 * k as f64).cos(),
                )
            })
            .collect()
    }

    /// Mask a series to a set of arrived indices (zero elsewhere).
    fn arrived(x: &[c64], upto: &[usize]) -> Vec<c64> {
        let mut m = vec![cplx(0.0, 0.0); x.len()];
        for &k in upto {
            m[k] = x[k];
        }
        m
    }

    /// `(P^<, P^>)` of one element from the whole grid as one batch — the call
    /// [`polarization_from_g`] issues.
    fn whole_grid_polarization(
        [gl, gg_t, gg, gl_t]: [&[c64]; 4],
        de: f64,
        flops: &FlopCounter,
    ) -> (Vec<c64>, Vec<c64>) {
        let ne = gl.len();
        let all: Vec<usize> = (0..ne).collect();
        let mut p_l = vec![cplx(0.0, 0.0); ne];
        let mut p_g = vec![cplx(0.0, 0.0); ne];
        polarization_series_accumulate(
            &mut p_l, &mut p_g, gl, gg_t, gg, gl_t, &all, false, de, flops,
        );
        (p_l, p_g)
    }

    #[test]
    fn batched_polarization_accumulation_is_exact() {
        let ne = 16;
        let gl = synthetic_series(ne, 0.4);
        let gg_t = synthetic_series(ne, -1.1);
        let gg = synthetic_series(ne, 2.3);
        let gl_t = synthetic_series(ne, 0.9);
        let de = 0.05;
        let flops = FlopCounter::new();
        let (want_l, want_g) = whole_grid_polarization([&gl, &gg_t, &gg, &gl_t], de, &flops);

        // Non-contiguous batches (as produced by multiple source ranks),
        // covering every index exactly once.
        let batches: Vec<Vec<usize>> = vec![
            vec![0, 1, 8, 9],
            vec![2, 3, 10, 11, 12],
            vec![],
            vec![4, 5, 6, 7, 13, 14, 15],
        ];
        let mut acc_l = vec![cplx(0.0, 0.0); ne];
        let mut acc_g = vec![cplx(0.0, 0.0); ne];
        let mut seen: Vec<usize> = Vec::new();
        for batch in &batches {
            let before = !seen.is_empty();
            seen.extend_from_slice(batch);
            polarization_series_accumulate(
                &mut acc_l,
                &mut acc_g,
                &arrived(&gl, &seen),
                &arrived(&gg_t, &seen),
                &arrived(&gg, &seen),
                &arrived(&gl_t, &seen),
                batch,
                before,
                de,
                &flops,
            );
        }
        for j in 0..ne {
            assert!((acc_l[j] - want_l[j]).norm() < 1e-12, "lesser at {j}");
            assert!((acc_g[j] - want_g[j]).norm() < 1e-12, "greater at {j}");
        }
    }

    #[test]
    fn batched_self_energy_accumulation_is_exact() {
        let ne = 16;
        let gl = synthetic_series(ne, 0.3);
        let gg = synthetic_series(ne, -0.8);
        let wl = synthetic_series(ne, 1.5);
        let wg = synthetic_series(ne, -2.2);
        let de = 0.07;
        let flops = FlopCounter::new();
        // Reference: the whole grid as one batch.
        let all: Vec<usize> = (0..ne).collect();
        let mut want_l = vec![cplx(0.0, 0.0); ne];
        let mut want_g = vec![cplx(0.0, 0.0); ne];
        self_energy_series_accumulate(
            &mut want_l,
            &mut want_g,
            &gl,
            &gg,
            &wl,
            &wg,
            &all,
            de,
            &flops,
        );

        // Several batches (Σ is linear in W): exact up to summation order.
        let batches: Vec<Vec<usize>> = vec![
            vec![5, 6, 7, 12],
            vec![0, 1, 2, 3, 4],
            vec![8, 9, 10, 11, 13, 14, 15],
        ];
        let mut acc_l = vec![cplx(0.0, 0.0); ne];
        let mut acc_g = vec![cplx(0.0, 0.0); ne];
        let mut seen: Vec<usize> = Vec::new();
        for batch in &batches {
            seen.extend_from_slice(batch);
            self_energy_series_accumulate(
                &mut acc_l,
                &mut acc_g,
                &gl,
                &gg,
                &arrived(&wl, &seen),
                &arrived(&wg, &seen),
                batch,
                de,
                &flops,
            );
        }
        for k in 0..ne {
            assert!((acc_l[k] - want_l[k]).norm() < 1e-12, "lesser at {k}");
            assert!((acc_g[k] - want_g[k]).norm() < 1e-12, "greater at {k}");
        }
    }

    #[test]
    fn element_kernels_match_the_energy_major_drivers() {
        // The per-element kernel, called the way the distributed solver calls
        // it on a single batch, must produce bit-identical series to the
        // energy-major driver: the distributed solver depends on it.
        let ne = 16;
        let gl = synthetic_g(ne, 3, 2, 1.0);
        let gg = synthetic_g(ne, 3, 2, -1.0);
        let de = 0.05;
        let flops = FlopCounter::new();
        let (pl, pg) = polarization_from_g(&gl, &gg, de, &flops);
        for e in canonical_elements(3, 2) {
            let (r, c) = (e.row, e.col);
            let tpos = transposed_position(e.pos);
            let series_gl = element_series(&gl, e.pos, r, c);
            let series_gg_t = element_series(&gg, tpos, c, r);
            let series_gg = element_series(&gg, e.pos, r, c);
            let series_gl_t = element_series(&gl, tpos, c, r);
            let (kl, kg) = whole_grid_polarization(
                [&series_gl, &series_gg_t, &series_gg, &series_gl_t],
                de,
                &flops,
            );
            for j in 0..ne {
                assert_eq!(kl[j], e.value_in(&pl[j]), "lesser {e:?} at {j}");
                assert_eq!(kg[j], e.value_in(&pg[j]), "greater {e:?} at {j}");
            }
        }
    }
}
