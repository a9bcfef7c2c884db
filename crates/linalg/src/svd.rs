//! One-sided Jacobi singular value decomposition.
//!
//! The Beyn contour-integral OBC solver performs an SVD of the first moment
//! matrix `Q0` to reveal the numerical rank of the subspace spanned by the
//! eigenvectors enclosed by the contour (paper Section 4.2.1). The paper notes
//! SVDs "do not perform well on GPUs" and are dispatched to the CPU; the
//! one-sided Jacobi algorithm used here is simple, accurate to working
//! precision, and adequate for the transport-cell sized matrices involved.
//!
//! The sweeps run on split real/imaginary column planes ([`SvdScratch`]): a
//! column pair's Gram sums are accumulated in the 8 lanes of a `lanes`
//! vector and its rotation is four fused multiply-add streams over
//! contiguous columns, the idiom of the GEMM tile and the LU update
//! ([`crate::ops`], [`crate::lu`]).
//! A sweep allocates nothing; a warmed scratch allocates nothing at all.
//! Lane sums are reduced in a fixed order, so a decomposition repeats bit for
//! bit within a build.

use crate::c64;
use crate::lanes::{mul_add, Lanes, Portable};
use crate::lu::split_column;
use crate::matrix::CMatrix;
use crate::ops::{matmul, MR};

/// Thin singular value decomposition `A = U·diag(σ)·V†`.
#[derive(Debug, Clone, Default)]
pub struct Svd {
    /// Left singular vectors (m×n for an m×n input with m ≥ n).
    pub u: CMatrix,
    /// Singular values in non-increasing order.
    pub sigma: Vec<f64>,
    /// Right singular vectors (n×n), as `V` (not `V†`).
    pub v: CMatrix,
}

impl Svd {
    /// Numerical rank with relative tolerance `rtol·σ_max`.
    pub fn rank(&self, rtol: f64) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.sigma.iter().filter(|&&s| s > rtol * smax).count()
    }

    /// Reconstruct `U·diag(σ)·V†` (mainly for testing).
    pub fn reconstruct(&self) -> CMatrix {
        let n = self.sigma.len();
        let mut us = self.u.clone();
        for j in 0..n {
            let s = c64::new(self.sigma[j], 0.0);
            for v in us.col_mut(j) {
                *v *= s;
            }
        }
        matmul(&us, &self.v.dagger())
    }
}

/// Split real/imaginary planes of a column-major matrix whose columns are
/// padded with zero rows to whole [`MR`]-lane tiles (`ld` apart).
#[derive(Debug, Default)]
struct Planes {
    ld: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Planes {
    /// Reshape to `ncols` zero columns of `nrows` rows.
    fn reset(&mut self, nrows: usize, ncols: usize) {
        self.ld = nrows.next_multiple_of(MR);
        for plane in [&mut self.re, &mut self.im] {
            plane.clear();
            plane.resize(self.ld * ncols, 0.0);
        }
    }

    /// Columns `p < q`, mutably: `((p_re, p_im), (q_re, q_im))`.
    #[allow(clippy::type_complexity)]
    fn pair_mut(
        &mut self,
        p: usize,
        q: usize,
    ) -> ((&mut [f64], &mut [f64]), (&mut [f64], &mut [f64])) {
        let ld = self.ld;
        let (head_re, tail_re) = self.re.split_at_mut(q * ld);
        let (head_im, tail_im) = self.im.split_at_mut(q * ld);
        (
            (
                &mut head_re[p * ld..(p + 1) * ld],
                &mut head_im[p * ld..(p + 1) * ld],
            ),
            (&mut tail_re[..ld], &mut tail_im[..ld]),
        )
    }

    /// Column `j`: `(re, im)`.
    fn column(&self, j: usize) -> (&[f64], &[f64]) {
        let range = j * self.ld..(j + 1) * self.ld;
        (&self.re[range.clone()], &self.im[range])
    }
}

/// Lane-wise partial sums of the Gram entries of a column pair — `‖p‖²`,
/// `‖q‖²`, `Re p†·q`, `Im p†·q` — over the (tile-padded) rows.
///
/// Out of line, and apart from the reduction in [`gram`], on purpose: seeing
/// the four lane sums next to the loop, the compiler vectorises across the
/// accumulators and shuffles every tile into that layout.
#[inline(never)]
fn gram_lanes<L: Lanes>(pr: &[f64], pi: &[f64], qr: &[f64], qi: &[f64]) -> [[f64; MR]; 4] {
    let tiles = |plane| <[f64]>::as_chunks::<MR>(plane).0.iter().map(L::load);
    let [mut pp, mut qq, mut re, mut im] = [L::splat(0.0); 4];
    let columns = tiles(pr).zip(tiles(pi)).zip(tiles(qr).zip(tiles(qi)));
    for ((pr, pi), (qr, qi)) in columns {
        pp = pi.fma(pi, pr.fma(pr, pp));
        qq = qi.fma(qi, qr.fma(qr, qq));
        re = pi.fma(qi, pr.fma(qr, re));
        im = pi.fnma(qr, pr.fma(qi, im));
    }
    [pp, qq, re, im].map(|sum| {
        let mut lanes = [0.0; MR];
        sum.store(&mut lanes);
        lanes
    })
}

/// Gram entries of a column pair: `(‖p‖², ‖q‖², p†·q)`, the lanes of
/// [`gram_lanes`] summed in lane order.
///
/// On the portable lanes whatever the target: a sweep is short dependent
/// chains between scalar square roots and the compiler-vectorised [`rotate`],
/// and on the AVX-512 box 512-bit Gram sums made the whole decomposition
/// 15–50 % *slower* at `N = 8 … 64` (narrow floating-point code runs at half
/// rate for a few hundred cycles after every 512-bit burst); with [`rotate`]
/// on 512-bit lanes as well it came out level with this, so nothing is gained
/// for the second lane path.
#[inline(always)]
fn gram(pr: &[f64], pi: &[f64], qr: &[f64], qi: &[f64]) -> (f64, f64, c64) {
    let [pp, qq, re, im] =
        gram_lanes::<Portable>(pr, pi, qr, qi).map(|lanes| lanes.iter().sum::<f64>());
    (pp, qq, c64::new(re, im))
}

/// Apply the rotation `J = [[c, b], [−b̄, c]]` to a column pair from the right:
/// `p ← c·p − b̄·q`, `q ← b·p + c·q`. One `&mut` parameter per written
/// column plane, so the compiler sees they do not overlap.
#[inline(never)]
fn rotate(pr: &mut [f64], pi: &mut [f64], qr: &mut [f64], qi: &mut [f64], c: f64, b: c64) {
    let rows = pr.iter_mut().zip(pi).zip(qr.iter_mut().zip(qi));
    for ((pr, pi), (qr, qi)) in rows {
        let (upr, upi, uqr, uqi) = (*pr, *pi, *qr, *qi);
        *pr = mul_add(-b.im, uqi, mul_add(-b.re, uqr, c * upr));
        *pi = mul_add(b.im, uqr, mul_add(-b.re, uqi, c * upi));
        *qr = mul_add(-b.im, upi, mul_add(b.re, upr, c * uqr));
        *qi = mul_add(b.im, upr, mul_add(b.re, upi, c * uqi));
    }
}

/// Reusable planes of [`svd`]: once warmed at a shape,
/// [`SvdScratch::decompose_into`] performs no heap allocation.
#[derive(Debug, Default)]
pub struct SvdScratch {
    u: Planes,
    v: Planes,
    sigma: Vec<f64>,
    order: Vec<usize>,
}

impl SvdScratch {
    /// Create an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Thin SVD of `a` (requires `nrows ≥ ncols`; pass the adjoint otherwise)
    /// into `out`, whose matrices are reshaped if necessary.
    pub fn decompose_into(&mut self, a: &CMatrix, out: &mut Svd) {
        let (m, n) = a.shape();
        assert!(
            m >= n,
            "svd requires nrows >= ncols; pass the adjoint for wide matrices"
        );
        let (u, v) = (&mut self.u, &mut self.v);
        u.reset(m, n);
        v.reset(n, n);
        for j in 0..n {
            let column = j * u.ld..(j + 1) * u.ld;
            split_column(a.col(j), &mut u.re[column.clone()], &mut u.im[column]);
            v.re[j * v.ld + j] = 1.0;
        }

        let tol = 1e-14;
        let max_sweeps = 60;
        for _sweep in 0..max_sweeps {
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let ((pr, pi), (qr, qi)) = u.pair_mut(p, q);
                    let (app, aqq, apq) = gram(pr, pi, qr, qi);
                    let apq_norm = apq.norm();
                    let scale = (app * aqq).sqrt();
                    off = off.max(apq_norm / scale.max(f64::MIN_POSITIVE));
                    if apq_norm <= tol * scale {
                        continue;
                    }
                    // Complex Jacobi rotation diagonalising the 2x2 Gram block
                    // [[app, apq], [conj(apq), aqq]] (Hermitian), applied on
                    // the right as J = [[c, s·phase], [−s·conj(phase), c]].
                    let phase = apq / apq_norm;
                    let tau = (aqq - app) / (2.0 * apq_norm);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let b = phase * (c * t);
                    rotate(pr, pi, qr, qi, c, b);
                    let ((pr, pi), (qr, qi)) = v.pair_mut(p, q);
                    rotate(pr, pi, qr, qi, c, b);
                }
            }
            if off < tol {
                break;
            }
        }

        // Column norms are the singular values; sorted non-increasing by a
        // stable insertion sort (in place, unlike `sort_by`).
        self.sigma.clear();
        self.sigma.extend((0..n).map(|j| {
            let (re, im) = u.column(j);
            gram(re, im, re, im).0.sqrt()
        }));
        let sigma = &self.sigma;
        self.order.clear();
        for j in 0..n {
            let at = self.order.partition_point(|&i| sigma[i] >= sigma[j]);
            self.order.insert(at, j);
        }

        if out.u.shape() != (m, n) {
            out.u.resize_zeroed(m, n);
        }
        if out.v.shape() != (n, n) {
            out.v.resize_zeroed(n, n);
        }
        out.sigma.clear();
        for (new_j, &old_j) in self.order.iter().enumerate() {
            let s = sigma[old_j];
            out.sigma.push(s);
            let scale = if s > 0.0 { 1.0 / s } else { 1.0 };
            let (re, im) = u.column(old_j);
            for ((x, re), im) in out.u.col_mut(new_j).iter_mut().zip(re).zip(im) {
                *x = c64::new(re * scale, im * scale);
            }
            let (re, im) = v.column(old_j);
            for ((x, re), im) in out.v.col_mut(new_j).iter_mut().zip(re).zip(im) {
                *x = c64::new(*re, *im);
            }
        }
    }
}

/// Compute the thin SVD of `a` (requires `nrows ≥ ncols`; transpose first otherwise).
pub fn svd(a: &CMatrix) -> Svd {
    let mut out = Svd::default();
    SvdScratch::new().decompose_into(a, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx;

    fn pseudo_random(m: usize, n: usize, seed: u64) -> CMatrix {
        CMatrix::from_fn(m, n, |i, j| {
            let t = (i as u64 * 257 + j as u64 * 83 + seed) as f64;
            cplx((t * 0.417).sin(), (t * 0.139).cos())
        })
    }

    /// Entries in `[-1, 1)²` from a SplitMix64 scramble of the index: full
    /// rank at any order ([`pseudo_random`]'s phases make it rank ≤ 4).
    fn scrambled(m: usize, n: usize, seed: u64) -> CMatrix {
        let unit = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        CMatrix::from_fn(m, n, |i, j| {
            let key = (seed << 40) | ((i as u64) << 20) | j as u64;
            let key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            cplx(unit(key), unit(!key))
        })
    }

    #[test]
    fn reconstruction_matches_input() {
        for (m, n) in [(4, 4), (7, 3), (6, 6)] {
            let a = pseudo_random(m, n, 7);
            let dec = svd(&a);
            assert!(dec.reconstruct().approx_eq(&a, 1e-9), "{m}x{n}");
        }
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = pseudo_random(6, 4, 3);
        let dec = svd(&a);
        let utu = matmul(&dec.u.dagger(), &dec.u);
        let vtv = matmul(&dec.v.dagger(), &dec.v);
        assert!(utu.approx_eq(&CMatrix::identity(4), 1e-9));
        assert!(vtv.approx_eq(&CMatrix::identity(4), 1e-9));
    }

    #[test]
    fn transport_cell_sized_full_rank_and_rank_deficient() {
        // 64 × 64 — the Beyn moment matrix of the kernel-bound workload, eight
        // lane tiles per column — and a ragged 61 × 45; full rank, and a
        // rank-40 / rank-17 product of thin factors.
        for (m, n, rank) in [(64, 64, 64), (64, 64, 40), (61, 45, 45), (61, 45, 17)] {
            let a = if rank == n {
                scrambled(m, n, 5)
            } else {
                matmul(&scrambled(m, rank, 1), &scrambled(n, rank, 2).dagger())
            };
            let dec = svd(&a);
            let tag = format!("{m}x{n} rank {rank}");
            assert!(dec.reconstruct().approx_eq(&a, 1e-9), "{tag}");
            assert_eq!(dec.rank(1e-8), rank, "{tag}");
            assert!(dec.sigma.windows(2).all(|w| w[0] >= w[1]), "{tag}");
            // V is unitary; U is orthonormal on the numerical range.
            let vtv = matmul(&dec.v.dagger(), &dec.v);
            assert!(vtv.approx_eq(&CMatrix::identity(n), 1e-9), "{tag}");
            let u_r = dec.u.submatrix(0, 0, m, rank);
            let utu = matmul(&u_r.dagger(), &u_r);
            assert!(utu.approx_eq(&CMatrix::identity(rank), 1e-9), "{tag}");
        }
    }

    #[test]
    fn warmed_scratch_repeats_bit_for_bit_across_shapes() {
        let mut scratch = SvdScratch::new();
        let mut out = Svd::default();
        for (m, n) in [(9, 9), (20, 7), (9, 9)] {
            let a = pseudo_random(m, n, 11);
            let want = svd(&a);
            scratch.decompose_into(&a, &mut out);
            assert!(out.u.approx_eq(&want.u, 0.0), "{m}x{n}");
            assert!(out.v.approx_eq(&want.v, 0.0), "{m}x{n}");
            assert_eq!(out.sigma, want.sigma, "{m}x{n}");
        }
    }

    #[test]
    fn gram_sums_do_not_depend_on_the_lane_type() {
        let a = scrambled(61, 2, 9);
        let mut planes = Planes::default();
        planes.reset(61, 2);
        for j in 0..2 {
            let column = j * planes.ld..(j + 1) * planes.ld;
            split_column(
                a.col(j),
                &mut planes.re[column.clone()],
                &mut planes.im[column],
            );
        }
        let ((pr, pi), (qr, qi)) = (planes.column(0), planes.column(1));
        let bits = |lanes: [[f64; MR]; 4]| lanes.map(|sum| sum.map(f64::to_bits));
        assert_eq!(
            bits(gram_lanes::<Portable>(pr, pi, qr, qi)),
            bits(gram_lanes::<crate::lanes::Native>(pr, pi, qr, qi))
        );
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let a = pseudo_random(8, 5, 13);
        let s = svd(&a).sigma;
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = CMatrix::from_diagonal(&[cplx(0.0, 3.0), cplx(-1.0, 0.0), cplx(0.0, 0.0)]);
        let s = svd(&a).sigma;
        assert!((s[0] - 3.0).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
        assert!(s[2].abs() < 1e-12);
    }

    #[test]
    fn rank_detection() {
        // Build a rank-2 matrix as an outer-product sum.
        let u = pseudo_random(6, 2, 1);
        let v = pseudo_random(4, 2, 2);
        let a = matmul(&u, &v.dagger());
        let dec = svd(&a);
        assert_eq!(dec.rank(1e-10), 2);
    }

    #[test]
    fn wide_matrix_via_adjoint() {
        let a = pseudo_random(3, 6, 21);
        let s = svd(&a.dagger()).sigma;
        assert_eq!(s.len(), 3);
        let energy: f64 = s.iter().map(|x| x * x).sum();
        assert!((energy - a.norm_fro().powi(2)).abs() < 1e-9);
    }
}
