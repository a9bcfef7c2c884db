//! Lesser/greater boundary self-energies from the fluctuation–dissipation theorem.
//!
//! The contacts are in thermodynamic equilibrium, so their lesser/greater
//! boundary self-energies follow from the retarded one and the Fermi–Dirac
//! occupation of the lead (paper Section 4.2.2, Callen–Welton theorem):
//!
//! ```text
//! Γ   = i·(Σ^R_OBC − Σ^{R†}_OBC)
//! Σ^< = +i·f(E)·Γ
//! Σ^> = −i·(1 − f(E))·Γ
//! ```
//!
//! Both outputs satisfy the NEGF anti-Hermitian symmetry `X_ij = −X*_ji` by
//! construction, which the tests verify.

use quatrex_linalg::{c64, CMatrix};

/// Broadening matrix `Γ = i·(A − A†)` of a retarded boundary quantity `A`,
/// into `out` (reshaped as needed): `A`, then `+= (−1)·A†` entry by entry,
/// then `·i`.
fn broadening_into(out: &mut CMatrix, retarded: &CMatrix) {
    let n = retarded.nrows();
    assert!(retarded.is_square(), "a boundary block is square");
    out.fit(n, n).copy_from(retarded);
    let minus = c64::new(-1.0, 0.0);
    for j in 0..n {
        for i in 0..n {
            out[(i, j)] += minus * retarded[(j, i)].conj();
        }
    }
    out.scale_mut(c64::new(0.0, 1.0));
}

/// Lesser boundary self-energy `Σ^< = i·f·Γ` for occupation `f ∈ [0, 1]`,
/// into `out` (reshaped as needed; allocation-free once warmed at the block
/// size).
pub fn lesser_from_retarded_into(out: &mut CMatrix, retarded: &CMatrix, occupation: f64) {
    broadening_into(out, retarded);
    out.scale_mut(c64::new(0.0, occupation));
}

/// Greater boundary self-energy `Σ^> = −i·(1 − f)·Γ`, into `out` (reshaped
/// as needed; allocation-free once warmed at the block size).
pub fn greater_from_retarded_into(out: &mut CMatrix, retarded: &CMatrix, occupation: f64) {
    broadening_into(out, retarded);
    out.scale_mut(c64::new(0.0, -(1.0 - occupation)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;

    fn broadening(retarded: &CMatrix) -> CMatrix {
        let mut out = CMatrix::default();
        broadening_into(&mut out, retarded);
        out
    }

    fn lesser_from_retarded(retarded: &CMatrix, occupation: f64) -> CMatrix {
        let mut out = CMatrix::default();
        lesser_from_retarded_into(&mut out, retarded, occupation);
        out
    }

    fn greater_from_retarded(retarded: &CMatrix, occupation: f64) -> CMatrix {
        let mut out = CMatrix::default();
        greater_from_retarded_into(&mut out, retarded, occupation);
        out
    }

    fn sample_retarded(n: usize) -> CMatrix {
        CMatrix::from_fn(n, n, |i, j| {
            cplx(
                0.4 / (1.0 + (i as f64 - j as f64).abs()),
                -0.2 - 0.05 * (i + j) as f64,
            )
        })
    }

    #[test]
    fn broadening_is_hermitian() {
        let sig_r = sample_retarded(5);
        let gamma = broadening(&sig_r);
        assert!(gamma.is_hermitian(1e-13));
    }

    #[test]
    fn lesser_and_greater_obey_negf_symmetry() {
        let sig_r = sample_retarded(4);
        let l = lesser_from_retarded(&sig_r, 0.37);
        let g = greater_from_retarded(&sig_r, 0.37);
        assert!(l.is_negf_antihermitian(1e-13));
        assert!(g.is_negf_antihermitian(1e-13));
    }

    #[test]
    fn difference_reproduces_spectral_identity() {
        // Σ^> − Σ^< = −i·Γ = Σ^R − Σ^A, independent of the occupation.
        let sig_r = sample_retarded(4);
        for f in [0.0, 0.25, 0.5, 1.0] {
            let l = lesser_from_retarded(&sig_r, f);
            let g = greater_from_retarded(&sig_r, f);
            let diff = &g - &l;
            let mut expected = sig_r.clone();
            expected.axpy(cplx(-1.0, 0.0), &sig_r.dagger());
            assert!(diff.approx_eq(&expected, 1e-12), "f = {f}");
        }
    }

    #[test]
    fn full_occupation_kills_the_greater_component() {
        let sig_r = sample_retarded(3);
        let g = greater_from_retarded(&sig_r, 1.0);
        assert!(g.norm_max() < 1e-14);
        let l = lesser_from_retarded(&sig_r, 0.0);
        assert!(l.norm_max() < 1e-14);
    }

    #[test]
    fn lesser_diagonal_is_positive_imaginary_for_occupied_states() {
        // −i·Σ^<_ii >= 0 (occupation density must be non-negative) when Γ is
        // positive semi-definite; for our sample the diagonal of Γ is positive.
        let sig_r = sample_retarded(4);
        let l = lesser_from_retarded(&sig_r, 0.8);
        for i in 0..4 {
            assert!(l[(i, i)].im >= -1e-14);
            assert!(l[(i, i)].re.abs() < 1e-14);
        }
    }
}
