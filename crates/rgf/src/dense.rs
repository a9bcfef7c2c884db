//! Dense reference solutions used to validate the selected solvers.
//!
//! These helpers form the full matrices, invert them with LU and evaluate
//! `X^R = Ã⁻¹` and `X≶ = Ã⁻¹·B≶·Ã⁻†` exactly. They are `O(N_AO³)` and only
//! meant for small test systems — which is precisely how the paper
//! characterises the non-RGF alternative (Section 4.3.3).

// lint:allow-file(allocating-inverse): one dense `O(N_AO³)` inverse per
// validation call, not a per-block hot path.
use quatrex_linalg::lu::inverse;
use quatrex_linalg::ops::matmul;
use quatrex_linalg::CMatrix;
use quatrex_sparse::BlockTridiagonal;

/// Dense retarded solution `X^R = Ã⁻¹` (full matrix).
pub fn dense_retarded(a: &BlockTridiagonal) -> CMatrix {
    inverse(&a.to_dense()).expect("system matrix must be invertible")
}

/// Dense lesser/greater solution `X≶ = Ã⁻¹·B≶·Ã⁻†` (full matrix).
pub fn dense_lesser(a: &BlockTridiagonal, b: &BlockTridiagonal) -> CMatrix {
    let ainv = dense_retarded(a);
    matmul(&matmul(&ainv, &b.to_dense()), &ainv.dagger())
}

/// Extract block `(i, j)` of a dense matrix laid out in uniform blocks of
/// size `block_size`.
#[cfg(test)]
pub(crate) fn dense_block(dense: &CMatrix, i: usize, j: usize, block_size: usize) -> CMatrix {
    dense.submatrix(i * block_size, j * block_size, block_size, block_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;

    fn small_system() -> (BlockTridiagonal, BlockTridiagonal) {
        let d = CMatrix::from_fn(2, 2, |i, j| {
            if i == j {
                cplx(3.0, 0.4)
            } else {
                cplx(-0.3, 0.1)
            }
        });
        let c = CMatrix::from_fn(2, 2, |i, j| cplx(-0.5 + 0.1 * i as f64, 0.05 * j as f64));
        let a = BlockTridiagonal::from_periodic(4, &d, &c);
        let braw = CMatrix::from_fn(2, 2, |i, j| {
            cplx(0.2 * (i + 1) as f64, 0.3 - 0.1 * j as f64)
        });
        let mut b = BlockTridiagonal::zeros(4, 2);
        for i in 0..4 {
            b.set_block(i, i, braw.negf_antihermitian_part());
        }
        (a, b)
    }

    #[test]
    fn dense_retarded_is_the_inverse() {
        let (a, _) = small_system();
        let x = dense_retarded(&a);
        let prod = matmul(&a.to_dense(), &x);
        assert!(prod.approx_eq(&CMatrix::identity(8), 1e-9));
    }

    #[test]
    fn dense_lesser_is_negf_antihermitian_for_antihermitian_rhs() {
        let (a, b) = small_system();
        let xl = dense_lesser(&a, &b);
        assert!(xl.is_negf_antihermitian(1e-10));
    }

    #[test]
    fn block_extraction_matches_layout() {
        let (a, _) = small_system();
        let dense = a.to_dense();
        let blk = dense_block(&dense, 1, 2, 2);
        assert!(blk.approx_eq(a.upper(1), 1e-15));
    }
}
