//! One-sided Jacobi singular value decomposition.
//!
//! The Beyn contour-integral OBC solver performs an SVD of the first moment
//! matrix `Q0` to reveal the numerical rank of the subspace spanned by the
//! eigenvectors enclosed by the contour (paper Section 4.2.1). The paper notes
//! SVDs "do not perform well on GPUs" and are dispatched to the CPU; the
//! one-sided Jacobi algorithm used here is simple, accurate to working
//! precision, and adequate for the transport-cell sized matrices involved.

use crate::matrix::CMatrix;
use crate::ops::matmul;
use crate::{c64, ZERO};

/// Thin singular value decomposition `A = U·diag(σ)·V†`.
#[derive(Debug, Clone)]
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

/// Compute the thin SVD of `a` (requires `nrows ≥ ncols`; transpose first otherwise).
pub fn svd(a: &CMatrix) -> Svd {
    let (m, n) = a.shape();
    assert!(
        m >= n,
        "svd requires nrows >= ncols; pass the adjoint for wide matrices"
    );
    let mut u = a.clone();
    let mut v = CMatrix::identity(n);

    let tol = 1e-14;
    let max_sweeps = 60;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries of columns p and q.
                let mut app = 0.0f64;
                let mut aqq = 0.0f64;
                let mut apq = ZERO;
                {
                    let (cp, cq) = (u.col(p).to_vec(), u.col(q).to_vec());
                    for i in 0..m {
                        app += cp[i].norm_sqr();
                        aqq += cq[i].norm_sqr();
                        apq += cp[i].conj() * cq[i];
                    }
                }
                let apq_norm = apq.norm();
                off = off.max(apq_norm / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                if apq_norm <= tol * (app * aqq).sqrt() {
                    continue;
                }
                // Complex Jacobi rotation diagonalising the 2x2 Gram block
                // [[app, apq], [conj(apq), aqq]] (Hermitian).
                let phase = apq / apq_norm;
                let tau = (aqq - app) / (2.0 * apq_norm);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Column update: [cp, cq] <- [c*cp - s*conj(phase)*cq?, ...]
                // Using the rotation J = [[c, s*phase], [-s*conj(phase), c]] applied on the right.
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = up * c - uq * phase.conj() * s;
                    u[(i, q)] = up * phase * s + uq * c;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = vp * c - vq * phase.conj() * s;
                    v[(i, q)] = vp * phase * s + vq * c;
                }
            }
        }
        if off < tol {
            break;
        }
    }

    // Column norms are the singular values; normalise U columns.
    let mut sigma: Vec<f64> = (0..n)
        .map(|j| u.col(j).iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt())
        .collect();
    for j in 0..n {
        if sigma[j] > 0.0 {
            let inv = c64::new(1.0 / sigma[j], 0.0);
            for x in u.col_mut(j) {
                *x *= inv;
            }
        }
    }
    // Sort by decreasing singular value.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).unwrap());
    let mut u_sorted = CMatrix::zeros(m, n);
    let mut v_sorted = CMatrix::zeros(n, n);
    let mut sigma_sorted = vec![0.0; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        sigma_sorted[new_j] = sigma[old_j];
        for i in 0..m {
            u_sorted[(i, new_j)] = u[(i, old_j)];
        }
        for i in 0..n {
            v_sorted[(i, new_j)] = v[(i, old_j)];
        }
    }
    sigma = sigma_sorted;
    Svd {
        u: u_sorted,
        sigma,
        v: v_sorted,
    }
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
