//! # quatrex-linalg
//!
//! Dense complex linear-algebra kernels used by the QuaTrEx-RS quantum-transport
//! solver. The original QuaTrEx code (Vetsch et al., SC'25) dispatches these
//! operations to vendor BLAS/LAPACK libraries on NVIDIA GH200 and AMD MI250X
//! GPUs through NumPy/CuPy. This crate provides portable, pure-Rust
//! implementations of exactly the kernel set the NEGF+scGW algorithm needs:
//!
//! * [`CMatrix`] — a column-major dense complex (`f64`) matrix,
//! * the operand-flag GEMM engine ([`ops::gemm`] with [`ops::Op`] flags,
//!   register-tiled micro-kernels, fused conjugate transposes) plus the
//!   classic wrappers ([`ops::matmul`], [`ops::triple_product`], …),
//! * energy-major batches ([`MatrixBatch`], [`gemm_batch`],
//!   [`invert_batch_into`]): every product and inversion of the batched RGF
//!   solve over one packing per plane, bit-identical to the per-energy calls,
//! * the lane-interleaved layout for small blocks ([`interleaved::LaneBatch`],
//!   [`interleaved::gemm_lanes`]): one vector lane per energy, bit-identical
//!   to the planes,
//! * LU factorisation, linear solves and explicit inverses ([`lu`]),
//! * a complex Hessenberg/shifted-QR eigensolver for non-symmetric matrices
//!   ([`eig`]) as required by the Beyn contour-integral OBC solver and the
//!   direct Lyapunov solver,
//! * a one-sided Jacobi SVD ([`svd()`]) as required by Beyn's rank-revealing step,
//! * FLOP accounting helpers ([`flops`]), the measured counterpart of the
//!   paper's workload columns.
//!
//! All kernels operate on `Complex<f64>` ([`c64`]) in double precision, matching
//! the paper's FP64 measurements.

pub mod batch;
pub mod eig;
pub mod flops;
pub mod interleaved;
pub mod lanes;
pub mod lu;
pub mod matrix;
pub mod ops;
pub mod svd;

pub use batch::{gemm_batch, gemm_batch_flops, invert_batch_into, BatchOp, MatrixBatch};
pub use eig::{eigendecomposition, eigenvalues, schur, Eigendecomposition, SchurDecomposition};
pub use flops::{FlopCounter, FlopKind};
pub use lu::{LuError, LuFactorization, LuScratch};
pub use matrix::CMatrix;
pub use ops::{gemm, matmul, matmul_acc, triple_product, triple_product_flops, Op, OpKind};
pub use svd::{svd, Svd, SvdScratch};

/// Double-precision complex scalar used throughout QuaTrEx-RS.
#[allow(non_camel_case_types)]
pub type c64 = num_complex::Complex<f64>;

/// Convenience constructor for a [`c64`] value.
#[inline(always)]
pub fn cplx(re: f64, im: f64) -> c64 {
    c64::new(re, im)
}

/// The complex unit `i`.
pub const I: c64 = c64::new(0.0, 1.0);

/// The complex zero.
pub const ZERO: c64 = c64::new(0.0, 0.0);

/// The complex one.
pub const ONE: c64 = c64::new(1.0, 0.0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_constants() {
        assert_eq!(I * I, cplx(-1.0, 0.0));
        assert_eq!(ONE + ZERO, ONE);
        assert_eq!(cplx(1.5, -2.0).conj(), cplx(1.5, 2.0));
    }
}
