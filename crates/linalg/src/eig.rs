//! Dense non-symmetric complex eigensolver.
//!
//! The Beyn contour-integral OBC solver assembles a small, dense,
//! *non-symmetric* eigenvalue problem (paper Section 4.2.1: "The EVP is
//! solved to obtain the desired φ, λ") and the direct Lyapunov solver
//! diagonalises the propagation matrix `a` (Section 4.2.2). The paper notes
//! that non-symmetric EVPs do not perform well on GPUs and are dispatched to
//! the CPU — which is exactly where this implementation lives.
//!
//! The algorithm is the classical dense path:
//! 1. unitary Hessenberg reduction (Householder),
//! 2. shifted QR iteration with Givens rotations and deflation, producing a
//!    Schur decomposition `A = Z·T·Z†` with `T` upper triangular,
//! 3. eigenvalues from `diag(T)` and eigenvectors by back-substitution on the
//!    triangular Schur factor.

use crate::matrix::CMatrix;
use crate::ops::matmul;
use crate::{c64, ZERO};

/// Schur decomposition `A = Z·T·Z†` with unitary `Z` and upper-triangular `T`.
#[derive(Debug, Clone)]
pub struct SchurDecomposition {
    /// Unitary Schur vectors.
    pub z: CMatrix,
    /// Upper-triangular Schur form.
    pub t: CMatrix,
    /// Number of QR iterations that were needed.
    pub iterations: usize,
}

/// Full eigendecomposition `A·V = V·diag(λ)`.
#[derive(Debug, Clone)]
pub struct Eigendecomposition {
    /// Eigenvalues.
    pub values: Vec<c64>,
    /// Eigenvectors stored as the columns of `vectors`.
    pub vectors: CMatrix,
}

/// Error produced when the QR iteration fails to converge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EigError {
    /// Index of the eigenvalue that failed to deflate.
    pub index: usize,
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QR iteration failed to converge at eigenvalue index {}",
            self.index
        )
    }
}

impl std::error::Error for EigError {}

/// Complex Givens rotation zeroing `b` against `a`:
/// `[c, s; -s̄, c]·[a; b] = [r; 0]` with real `c ≥ 0`.
fn givens(a: c64, b: c64) -> (f64, c64) {
    let an = a.norm();
    let bn = b.norm();
    if bn == 0.0 {
        return (1.0, ZERO);
    }
    if an == 0.0 {
        return (0.0, c64::new(1.0, 0.0));
    }
    let r = (an * an + bn * bn).sqrt();
    let c = an / r;
    let s = (a / an) * b.conj() / r;
    (c, s)
}

/// Reduce `a` to upper Hessenberg form `H = Q†·A·Q`, returning `(H, Q)`.
pub(crate) fn hessenberg(a: &CMatrix) -> (CMatrix, CMatrix) {
    assert!(a.is_square(), "hessenberg requires a square matrix");
    let n = a.nrows();
    let mut h = a.clone();
    let mut q = CMatrix::identity(n);
    if n < 3 {
        return (h, q);
    }
    // One buffer for every Householder vector: the allocation count of the
    // eigensolver depends on the order alone.
    let mut v = vec![ZERO; n];
    for k in 0..n - 2 {
        // Householder vector for column k, rows k+1..n.
        let m = n - k - 1;
        let v = &mut v[..m];
        for i in 0..m {
            v[i] = h[(k + 1 + i, k)];
        }
        let norm_x = v.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        if norm_x == 0.0 {
            continue;
        }
        let x0 = v[0];
        let phase = if x0.norm() > 0.0 {
            x0 / x0.norm()
        } else {
            c64::new(1.0, 0.0)
        };
        let alpha = -phase * norm_x;
        v[0] -= alpha;
        let vnorm2 = v.iter().map(|c| c.norm_sqr()).sum::<f64>();
        if vnorm2 == 0.0 {
            continue;
        }
        // H ← P H, rows k+1..n.
        for j in 0..n {
            let mut dot = ZERO;
            for i in 0..m {
                dot += v[i].conj() * h[(k + 1 + i, j)];
            }
            let scale = dot * 2.0 / vnorm2;
            for i in 0..m {
                let vi = v[i];
                h[(k + 1 + i, j)] -= scale * vi;
            }
        }
        // H ← H P, columns k+1..n.
        for i in 0..n {
            let mut dot = ZERO;
            for j in 0..m {
                dot += h[(i, k + 1 + j)] * v[j];
            }
            let scale = dot * 2.0 / vnorm2;
            for j in 0..m {
                let vj = v[j].conj();
                h[(i, k + 1 + j)] -= scale * vj;
            }
        }
        // Q ← Q P.
        for i in 0..n {
            let mut dot = ZERO;
            for j in 0..m {
                dot += q[(i, k + 1 + j)] * v[j];
            }
            let scale = dot * 2.0 / vnorm2;
            for j in 0..m {
                let vj = v[j].conj();
                q[(i, k + 1 + j)] -= scale * vj;
            }
        }
        // Exact zeros below the first subdiagonal.
        for i in (k + 2)..n {
            h[(i, k)] = ZERO;
        }
    }
    (h, q)
}

/// Wilkinson shift: eigenvalue of the trailing 2×2 block closest to its (2,2) entry.
fn wilkinson_shift(a: c64, b: c64, c: c64, d: c64) -> c64 {
    let tr_half = (a + d) * 0.5;
    let det = a * d - b * c;
    let disc = (tr_half * tr_half - det).sqrt();
    let l1 = tr_half + disc;
    let l2 = tr_half - disc;
    if (l1 - d).norm() < (l2 - d).norm() {
        l1
    } else {
        l2
    }
}

/// Compute the Schur decomposition of a general complex square matrix.
pub fn schur(a: &CMatrix) -> Result<SchurDecomposition, EigError> {
    assert!(a.is_square(), "schur requires a square matrix");
    let n = a.nrows();
    let (mut h, mut z) = hessenberg(a);
    if n <= 1 {
        return Ok(SchurDecomposition {
            z,
            t: h,
            iterations: 0,
        });
    }

    let eps = f64::EPSILON;
    let max_total_iter = 60 * n.max(4);
    let mut total_iter = 0usize;
    let mut hi = n - 1; // active block is [lo..=hi]
    let mut stuck = 0usize;
    let mut rots: Vec<(f64, c64)> = Vec::with_capacity(n - 1);

    while hi > 0 {
        // Deflate converged subdiagonals at the bottom of the active block.
        let small = |h: &CMatrix, i: usize| -> bool {
            let s = h[(i - 1, i - 1)].norm() + h[(i, i)].norm();
            let s = if s == 0.0 { 1.0 } else { s };
            h[(i, i - 1)].norm() <= eps * s * 16.0
        };
        if small(&h, hi) {
            h[(hi, hi - 1)] = ZERO;
            hi -= 1;
            stuck = 0;
            continue;
        }
        // Find the start of the active (unreduced) block.
        let mut lo = hi;
        while lo > 0 && !small(&h, lo) {
            lo -= 1;
        }
        if lo > 0 {
            h[(lo, lo - 1)] = ZERO;
        }

        if total_iter >= max_total_iter {
            return Err(EigError { index: hi });
        }
        total_iter += 1;
        stuck += 1;

        // Shift selection: Wilkinson shift, with an exceptional shift every 12
        // stuck iterations to break symmetry-induced cycles.
        let sigma = if stuck.is_multiple_of(12) {
            h[(hi, hi)] + c64::new(1.5 * h[(hi, hi - 1)].norm(), 0.5 * h[(hi, hi - 1)].norm())
        } else {
            wilkinson_shift(
                h[(hi - 1, hi - 1)],
                h[(hi - 1, hi)],
                h[(hi, hi - 1)],
                h[(hi, hi)],
            )
        };

        // Explicit shifted QR sweep on the active block using Givens rotations.
        for i in lo..=hi {
            h[(i, i)] -= sigma;
        }
        rots.clear();
        for k in lo..hi {
            let (c, s) = givens(h[(k, k)], h[(k + 1, k)]);
            rots.push((c, s));
            // Apply G to rows k, k+1 (columns k..n).
            for j in k..n {
                let hkj = h[(k, j)];
                let hk1j = h[(k + 1, j)];
                h[(k, j)] = hkj * c + hk1j * s;
                h[(k + 1, j)] = -hkj * s.conj() + hk1j * c;
            }
        }
        for (idx, &(c, s)) in rots.iter().enumerate() {
            let k = lo + idx;
            // Apply G† to columns k, k+1 (rows 0..=min(k+1, hi) extended to hi+1 rows above).
            let rmax = (k + 2).min(hi + 1);
            for i in 0..rmax {
                let hik = h[(i, k)];
                let hik1 = h[(i, k + 1)];
                h[(i, k)] = hik * c + hik1 * s.conj();
                h[(i, k + 1)] = -hik * s + hik1 * c;
            }
            // Accumulate into Z (all rows).
            for i in 0..n {
                let zik = z[(i, k)];
                let zik1 = z[(i, k + 1)];
                z[(i, k)] = zik * c + zik1 * s.conj();
                z[(i, k + 1)] = -zik * s + zik1 * c;
            }
        }
        for i in lo..=hi {
            h[(i, i)] += sigma;
        }
    }

    // Zero out the (numerically tiny) strictly-lower part.
    for j in 0..n {
        for i in (j + 1)..n {
            h[(i, j)] = ZERO;
        }
    }
    Ok(SchurDecomposition {
        z,
        t: h,
        iterations: total_iter,
    })
}

/// Eigenvalues only (diagonal of the Schur form).
pub fn eigenvalues(a: &CMatrix) -> Result<Vec<c64>, EigError> {
    Ok(schur(a)?.t.diagonal())
}

/// Full eigendecomposition of a general complex square matrix.
///
/// Eigenvectors are obtained by back-substitution on the triangular Schur
/// factor and rotated back with the Schur vectors; each is normalised to unit
/// Euclidean length.
pub fn eigendecomposition(a: &CMatrix) -> Result<Eigendecomposition, EigError> {
    let n = a.nrows();
    let dec = schur(a)?;
    let t = &dec.t;
    let mut y = CMatrix::zeros(n, n);
    for i in 0..n {
        let lambda = t[(i, i)];
        y[(i, i)] = c64::new(1.0, 0.0);
        for j in (0..i).rev() {
            let mut acc = ZERO;
            for k in (j + 1)..=i {
                acc += t[(j, k)] * y[(k, i)];
            }
            let mut denom = t[(j, j)] - lambda;
            if denom.norm() < 1e-300 {
                denom = c64::new(f64::EPSILON * t.norm_max().max(1.0), 0.0);
            }
            y[(j, i)] = -acc / denom;
        }
    }
    let mut vectors = matmul(&dec.z, &y);
    // Normalise columns.
    for j in 0..n {
        let nrm = vectors
            .col(j)
            .iter()
            .map(|v| v.norm_sqr())
            .sum::<f64>()
            .sqrt();
        if nrm > 0.0 {
            let inv = c64::new(1.0 / nrm, 0.0);
            for v in vectors.col_mut(j) {
                *v *= inv;
            }
        }
    }
    Ok(Eigendecomposition {
        values: t.diagonal(),
        vectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx;

    fn pseudo_random(n: usize, seed: u64) -> CMatrix {
        CMatrix::from_fn(n, n, |i, j| {
            let t = (i as u64 * 131 + j as u64 * 37 + seed) as f64;
            cplx((t * 0.311).sin(), (t * 0.173).cos() * 0.5)
        })
    }

    #[test]
    fn hessenberg_preserves_similarity() {
        let a = pseudo_random(8, 3);
        let (h, q) = hessenberg(&a);
        // Q must be unitary.
        assert!(matmul(&q.dagger(), &q).approx_eq(&CMatrix::identity(8), 1e-10));
        // Q H Q† must reproduce A.
        let back = matmul(&matmul(&q, &h), &q.dagger());
        assert!(back.approx_eq(&a, 1e-9));
        // H must be Hessenberg.
        for j in 0..8 {
            for i in (j + 2)..8 {
                assert_eq!(h[(i, j)], ZERO);
            }
        }
    }

    #[test]
    fn schur_reconstructs_matrix() {
        for n in [2, 3, 5, 9] {
            let a = pseudo_random(n, n as u64);
            let dec = schur(&a).unwrap();
            let back = matmul(&matmul(&dec.z, &dec.t), &dec.z.dagger());
            assert!(back.approx_eq(&a, 1e-8), "n = {n}");
            assert!(matmul(&dec.z.dagger(), &dec.z).approx_eq(&CMatrix::identity(n), 1e-9));
        }
    }

    #[test]
    fn eigenvalues_of_triangular_matrix_are_diagonal() {
        let mut a = CMatrix::zeros(4, 4);
        let diag = [
            cplx(1.0, 0.0),
            cplx(-2.0, 1.0),
            cplx(0.5, -0.5),
            cplx(3.0, 0.0),
        ];
        for (i, d) in diag.iter().enumerate() {
            a[(i, i)] = *d;
            for j in (i + 1)..4 {
                a[(i, j)] = cplx(0.3, 0.1);
            }
        }
        let mut vals = eigenvalues(&a).unwrap();
        // match each expected eigenvalue
        for d in diag {
            let pos = vals
                .iter()
                .position(|v| (v - d).norm() < 1e-8)
                .unwrap_or_else(|| panic!("eigenvalue {d} not found in {vals:?}"));
            vals.remove(pos);
        }
    }

    #[test]
    fn eigenvalues_of_hermitian_matrix_are_real() {
        let a = pseudo_random(6, 11).hermitian_part();
        let vals = eigenvalues(&a).unwrap();
        for v in vals {
            assert!(v.im.abs() < 1e-8, "expected real eigenvalue, got {v}");
        }
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let a = pseudo_random(7, 29);
        let dec = eigendecomposition(&a).unwrap();
        for j in 0..7 {
            let v: Vec<c64> = (0..7).map(|i| dec.vectors[(i, j)]).collect();
            let av = a.matvec(&v);
            let lam = dec.values[j];
            let mut resid = 0.0f64;
            for i in 0..7 {
                resid += (av[i] - lam * v[i]).norm_sqr();
            }
            assert!(
                resid.sqrt() < 1e-7,
                "eigenpair {j} residual {}",
                resid.sqrt()
            );
        }
    }

    #[test]
    fn trace_equals_sum_of_eigenvalues() {
        let a = pseudo_random(10, 5);
        let vals = eigenvalues(&a).unwrap();
        let sum: c64 = vals.into_iter().sum();
        assert!((sum - a.trace()).norm() < 1e-8);
    }

    #[test]
    fn small_matrices_work() {
        let a = CMatrix::from_rows(1, 1, &[cplx(3.0, -4.0)]);
        assert_eq!(eigenvalues(&a).unwrap()[0], cplx(3.0, -4.0));
        let b = CMatrix::from_rows(
            2,
            2,
            &[
                cplx(0.0, 0.0),
                cplx(1.0, 0.0),
                cplx(-1.0, 0.0),
                cplx(0.0, 0.0),
            ],
        );
        let mut vals = eigenvalues(&b).unwrap();
        vals.sort_by(|x, y| x.im.partial_cmp(&y.im).unwrap());
        assert!((vals[0] - cplx(0.0, -1.0)).norm() < 1e-10);
        assert!((vals[1] - cplx(0.0, 1.0)).norm() < 1e-10);
    }
}
