//! Discrete-time Lyapunov (Stein) equation solvers for the screened-interaction
//! lesser/greater boundary functions.
//!
//! The lesser/greater surface function of the screened Coulomb interaction
//! satisfies (paper Eq. (7))
//!
//! ```text
//! w≶ = q≶ − a · w≶ · a† ,
//! ```
//!
//! a discrete-time Lyapunov equation "standard in control systems, but not yet
//! in quantum transport". Three solution strategies are provided, matching the
//! paper's discussion of iterative vs direct approaches:
//!
//! * [`lyapunov_fixed_point`] — the plain substitution iteration, cheap per
//!   step, slow from a cold start, fast from a memoized guess;
//! * [`lyapunov_doubling`] — a Smith-type squaring scheme that converges in
//!   `O(log 1/ε)` steps;
//! * [`lyapunov_direct`] — the direct method via the eigendecomposition of the
//!   propagation matrix `a` (Kitagawa-style), requiring the diagonalisation of
//!   a matrix of size `N_BS` as noted in the paper.

use quatrex_linalg::lu::{self, LuError};
use quatrex_linalg::ops::{congruence, gemm_flops, matmul};
use quatrex_linalg::{c64, eigendecomposition, CMatrix};

use crate::retarded::{is_finite, ObcError};

/// Residual `‖w − (q − a·w·a†)‖_F / max(‖w‖_F, 1)` of a candidate solution.
pub fn lyapunov_residual(w: &CMatrix, a: &CMatrix, q: &CMatrix) -> f64 {
    let awa = congruence(a, w);
    let rhs = q - &awa;
    rhs.distance(w) / w.norm_fro().max(1.0)
}

/// Fixed-point (substitution) iteration `w_{k+1} = q − a·w_k·a†`.
pub fn lyapunov_fixed_point(
    a: &CMatrix,
    q: &CMatrix,
    w0: Option<&CMatrix>,
    tol: f64,
    max_iter: usize,
) -> Result<(CMatrix, usize, u64), ObcError> {
    let dim = a.nrows();
    let mut w = w0.cloned().unwrap_or_else(|| q.clone());
    let mut flops = 0u64;
    for it in 1..=max_iter {
        let awa = congruence(a, &w);
        let w_next = q - &awa;
        flops += 2 * gemm_flops(dim, dim, dim);
        let delta = w_next.distance(&w) / w_next.norm_fro().max(1e-300);
        w = w_next;
        if delta < tol {
            return Ok((w, it, flops));
        }
    }
    Err(ObcError::NotConverged {
        residual: lyapunov_residual(&w, a, q),
        iterations: max_iter,
    })
}

/// Smith doubling: the alternating series `w = Σ_k (−1)^k a^k q a^{†k}` is
/// regrouped pairwise into a standard Stein series with `A' = a²` and
/// `Q' = q − a·q·a†`, which is then summed by repeated squaring. A sum or
/// power that turns non-finite ends the attempt at that step.
pub fn lyapunov_doubling(
    a: &CMatrix,
    q: &CMatrix,
    tol: f64,
    max_iter: usize,
) -> Result<(CMatrix, usize, u64), ObcError> {
    let dim = a.nrows();
    let mut flops = 0u64;
    // Q' = q − a q a† ; A' = a·a.
    let aqa = congruence(a, q);
    let mut w = q - &aqa;
    let mut a_k = matmul(a, a);
    flops += 3 * gemm_flops(dim, dim, dim);
    for it in 1..=max_iter {
        // w ← w + A_k w A_k† ; A_k ← A_k².
        let awa = congruence(&a_k, &w);
        flops += 2 * gemm_flops(dim, dim, dim);
        let increment = awa.norm_fro();
        w += &awa;
        a_k = matmul(&a_k, &a_k);
        flops += gemm_flops(dim, dim, dim);
        if increment < tol * w.norm_fro().max(1e-300) {
            return Ok((w, it, flops));
        }
        if !(is_finite(&w) && is_finite(&a_k)) {
            return Err(ObcError::NotConverged {
                residual: lyapunov_residual(&w, a, q),
                iterations: it,
            });
        }
    }
    Err(ObcError::NotConverged {
        residual: lyapunov_residual(&w, a, q),
        iterations: max_iter,
    })
}

/// Direct solution via the eigendecomposition of the propagation matrix `a`.
///
/// With `a = V·Λ·V⁻¹` the transformed unknown `Y = V⁻¹·w·V⁻†` satisfies the
/// decoupled scalar equations `Y_ij·(1 + λ_i·λ_j*) = (V⁻¹·q·V⁻†)_ij`, which
/// are solved element-wise and transformed back. Valid whenever
/// `λ_i·λ_j* ≠ −1` for all pairs, which holds for any strictly stable `a`
/// (spectral radius < 1).
pub fn lyapunov_direct(a: &CMatrix, q: &CMatrix) -> Result<(CMatrix, u64), ObcError> {
    let dim = a.nrows();
    let eig = eigendecomposition(a).map_err(|_| ObcError::EigenFailure)?;
    let v = eig.vectors;
    // lint:allow(allocating-inverse): cold direct fallback, one inverse per call.
    let v_inv = lu::inverse(&v).map_err(|_: LuError| ObcError::Singular)?;
    // Q̃ = V⁻¹ q V⁻†
    let q_tilde = matmul(&matmul(&v_inv, q), &v_inv.dagger());
    let mut y = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            let denom = c64::new(1.0, 0.0) + eig.values[i] * eig.values[j].conj();
            if denom.norm() < 1e-12 {
                return Err(ObcError::Singular);
            }
            y[(i, j)] = q_tilde[(i, j)] / denom;
        }
    }
    // w = V Y V†
    let w = matmul(&matmul(&v, &y), &v.dagger());
    // Eigendecomposition ≈ 30·n³ real FLOPs (QR iteration), plus the transforms.
    let flops = 30 * (dim as u64).pow(3) + 4 * gemm_flops(dim, dim, dim);
    Ok((w, flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;

    /// A strictly stable propagation matrix (spectral radius < 1) and an
    /// anti-Hermitian (NEGF lesser-like) inhomogeneity.
    fn stable_problem(dim: usize) -> (CMatrix, CMatrix) {
        let a = CMatrix::from_fn(dim, dim, |i, j| {
            let t = (i * 7 + j * 3) as f64;
            cplx(0.25 * (t * 0.31).sin(), 0.2 * (t * 0.17).cos())
                / (1.0 + (i as f64 - j as f64).abs())
        });
        let raw = CMatrix::from_fn(dim, dim, |i, j| {
            cplx(0.3 * (i as f64 + 1.0), 0.7 - 0.1 * j as f64)
        });
        let q = raw.negf_antihermitian_part();
        (a, q)
    }

    #[test]
    fn fixed_point_solves_the_equation() {
        let (a, q) = stable_problem(5);
        let (w, _it, _fl) = lyapunov_fixed_point(&a, &q, None, 1e-13, 500).unwrap();
        assert!(lyapunov_residual(&w, &a, &q) < 1e-10);
    }

    #[test]
    fn doubling_matches_fixed_point() {
        let (a, q) = stable_problem(6);
        let (w_fp, _, _) = lyapunov_fixed_point(&a, &q, None, 1e-13, 1000).unwrap();
        let (w_db, it, _) = lyapunov_doubling(&a, &q, 1e-14, 60).unwrap();
        assert!(w_db.approx_eq(&w_fp, 1e-9));
        // Doubling converges in logarithmically few steps.
        assert!(it <= 12, "doubling took {it} iterations");
    }

    #[test]
    fn direct_matches_doubling() {
        let (a, q) = stable_problem(5);
        let (w_db, _, _) = lyapunov_doubling(&a, &q, 1e-14, 60).unwrap();
        let (w_dir, _) = lyapunov_direct(&a, &q).unwrap();
        assert!(
            w_dir.approx_eq(&w_db, 1e-8),
            "distance {}",
            w_dir.distance(&w_db)
        );
        assert!(lyapunov_residual(&w_dir, &a, &q) < 1e-9);
    }

    #[test]
    fn solution_inherits_negf_antihermiticity() {
        // If q = −q† then w = −w† because the equation preserves the symmetry.
        let (a, q) = stable_problem(5);
        let (w, _) = lyapunov_direct(&a, &q).unwrap();
        assert!(w.is_negf_antihermitian(1e-9));
    }

    #[test]
    fn zero_propagation_matrix_gives_w_equal_q() {
        let (_, q) = stable_problem(4);
        let a = CMatrix::zeros(4, 4);
        let (w, it, _) = lyapunov_fixed_point(&a, &q, None, 1e-15, 10).unwrap();
        assert!(w.approx_eq(&q, 1e-14));
        assert!(it <= 2);
    }

    #[test]
    fn warm_start_accelerates_fixed_point() {
        let (a, q) = stable_problem(6);
        let (w_ref, cold_iters, _) = lyapunov_fixed_point(&a, &q, None, 1e-12, 1000).unwrap();
        let (_, warm_iters, _) = lyapunov_fixed_point(&a, &q, Some(&w_ref), 1e-12, 1000).unwrap();
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
        assert!(warm_iters <= 2);
    }

    #[test]
    fn doubling_an_unstable_propagation_matrix_stops_when_it_overflows() {
        // a_k = 1.2^(2^k)·I overflows at k = 12; all 60 doublings would run.
        let (_, q) = stable_problem(4);
        let a = CMatrix::scaled_identity(4, cplx(1.2, 0.0));
        match lyapunov_doubling(&a, &q, 1e-12, 60) {
            Err(ObcError::NotConverged { iterations, .. }) => {
                assert!(iterations <= 13, "stopped after {iterations} doublings")
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn unstable_propagation_matrix_fails_to_converge() {
        let (_, q) = stable_problem(4);
        let a = CMatrix::scaled_identity(4, cplx(1.2, 0.0));
        assert!(lyapunov_fixed_point(&a, &q, None, 1e-12, 50).is_err());
    }
}
