//! The 8-lane `f64` vector under every dense kernel of this crate.
//!
//! The GEMM register tile ([`crate::ops`]), the LU rank-k update
//! ([`crate::lu`]), the SVD Gram sums ([`mod@crate::svd`]) and the
//! lane-interleaved product ([`crate::interleaved`]) are written once,
//! generically over [`Lanes`]: eight `f64` values with `splat`, `load`,
//! `store`, the two fused multiply-adds the kernels are made of, and the
//! plain `add`, `sub` and `mul` of the interleaved product's `c += α·Σ`. Two
//! types implement it:
//!
//! * [`Portable`] — a `[f64; 8]` and `mul_add` per lane, which the compiler
//!   vectorises at whatever width it prefers for the target (two 256-bit
//!   registers on x86-64 with AVX2, four 128-bit ones on aarch64 and the
//!   SSE2 baseline). It compiles on every target.
//! * `Wide` — one 512-bit register through `core::arch`, compiled only where
//!   the build target has AVX-512F. The compiler's own vectoriser does not
//!   get there: LLVM's tuning for the AVX-512 server cores prefers 256-bit
//!   vectors, so `[f64; 8]` arithmetic lowers to two `ymm` operations on
//!   cores whose FMA units are twice as wide.
//!
//! [`Native`] names the one the build target gets; which one it is is decided
//! in this file, by one predicate, and `WIDE` and [`Lanes::TALL_VECTORS`]
//! carry the decision to the tile shapes (`ops::NR`, `ops::TALL`). Both types
//! perform the same IEEE operation in every lane — one rounding per
//! `fma`/`fnma` where the target has the instruction — so a kernel's results
//! do not depend on which of them it ran on (the tests of `ops` and `lu` hold
//! the two to `to_bits()` equality in one build).
//!
//! Both types also carry the operators `+`, `−`, `·` and a broadcast
//! `From<f64>` — the same single-rounding operations as [`Lanes::add`],
//! [`Lanes::sub`], [`Lanes::mul`] and [`Lanes::splat`] —, which makes them a
//! `Value` of the `quatrex-fft` crate: `quatrex-core`'s lane-group
//! convolution kernels run the FFT butterflies on [`Native`], eight element
//! series per transform.
//!
//! This is the only module of the workspace's library crates with `unsafe`
//! code: the intrinsics behind `Wide`.

/// Lanes of a vector: rows of the short register tile, the padding unit of
/// every split plane, and the energies of one lane group of a
/// [`crate::interleaved::LaneBatch`].
pub const LANES: usize = 8;

/// `a · b + c`: fused where the build target has the instruction, two
/// roundings elsewhere. Selected at build time, so no target falls back to
/// libm's software `fma`.
#[inline(always)]
pub(crate) fn mul_add(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Eight `f64` lanes and the operations the dense kernels are written in.
pub trait Lanes: Copy {
    /// Width of the registers the type computes in, in bits (what
    /// `BENCH_kernels.json` reports as `lane_bits`).
    const BITS: usize;
    /// Lane vectors of rows in the tall register tile: two where a vector is
    /// one of 32 registers — the accumulators of `2 × 4` complex vectors, the
    /// operand vectors and the broadcasts fit — one elsewhere.
    const TALL_VECTORS: usize;
    /// `x` in every lane.
    fn splat(x: f64) -> Self;
    /// The eight values of `src`.
    fn load(src: &[f64; LANES]) -> Self;
    /// The inverse of [`Lanes::load`].
    fn store(self, dst: &mut [f64; LANES]);
    /// `self · b + c` per lane, rounded as `mul_add` rounds.
    fn fma(self, b: Self, c: Self) -> Self;
    /// `−self · b + c` per lane, rounded as `mul_add` rounds.
    fn fnma(self, b: Self, c: Self) -> Self;
    /// `self + b` per lane, one rounding (the scalar `+`).
    fn add(self, b: Self) -> Self;
    /// `self − b` per lane, one rounding (the scalar `-`).
    fn sub(self, b: Self) -> Self;
    /// `self · b` per lane, one rounding (the scalar `*`).
    fn mul(self, b: Self) -> Self;
}

/// The lane array the compiler vectorises on its own.
#[derive(Clone, Copy)]
pub struct Portable([f64; LANES]);

impl Lanes for Portable {
    const BITS: usize = if cfg!(target_feature = "avx") {
        256
    } else {
        128
    };
    const TALL_VECTORS: usize = 1;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; LANES])
    }

    #[inline(always)]
    fn load(src: &[f64; LANES]) -> Self {
        Self(*src)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64; LANES]) {
        *dst = self.0;
    }

    #[inline(always)]
    fn fma(self, b: Self, c: Self) -> Self {
        Self(std::array::from_fn(|r| mul_add(self.0[r], b.0[r], c.0[r])))
    }

    #[inline(always)]
    fn fnma(self, b: Self, c: Self) -> Self {
        Self(std::array::from_fn(|r| mul_add(-self.0[r], b.0[r], c.0[r])))
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        Self(std::array::from_fn(|r| self.0[r] + b.0[r]))
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        Self(std::array::from_fn(|r| self.0[r] - b.0[r]))
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        Self(std::array::from_fn(|r| self.0[r] * b.0[r]))
    }
}

/// The operators of a lane type, each the [`Lanes`] operation of the same
/// name (one rounding per lane).
macro_rules! operators {
    ($t:ty) => {
        impl std::ops::Add for $t {
            type Output = Self;
            #[inline(always)]
            fn add(self, b: Self) -> Self {
                $crate::lanes::Lanes::add(self, b)
            }
        }

        impl std::ops::Sub for $t {
            type Output = Self;
            #[inline(always)]
            fn sub(self, b: Self) -> Self {
                $crate::lanes::Lanes::sub(self, b)
            }
        }

        impl std::ops::Mul for $t {
            type Output = Self;
            #[inline(always)]
            fn mul(self, b: Self) -> Self {
                $crate::lanes::Lanes::mul(self, b)
            }
        }

        impl From<f64> for $t {
            #[inline(always)]
            fn from(x: f64) -> Self {
                <$t as $crate::lanes::Lanes>::splat(x)
            }
        }
    };
}
use operators;

operators!(Portable);

// The predicate for "wide target" is written on the next two items and nowhere
// else in the workspace; everything that depends on it reads `WIDE` or
// `Native`.

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod target {
    use super::{Lanes, LANES};
    use core::arch::x86_64::{
        __m512d, _mm512_add_pd, _mm512_fmadd_pd, _mm512_fnmadd_pd, _mm512_loadu_pd, _mm512_mul_pd,
        _mm512_set1_pd, _mm512_storeu_pd, _mm512_sub_pd,
    };

    /// One 512-bit register.
    #[derive(Clone, Copy)]
    pub struct Wide(__m512d);

    impl Lanes for Wide {
        const BITS: usize = 512;
        const TALL_VECTORS: usize = 2;

        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: this module is compiled under `target_feature =
            // "avx512f"`, so the instruction exists on every CPU the build
            // may run on; no memory is touched.
            Self(unsafe { _mm512_set1_pd(x) })
        }

        #[inline(always)]
        fn load(src: &[f64; LANES]) -> Self {
            // SAFETY: AVX-512F as above; the unaligned load reads exactly
            // the `LANES = 8` `f64` of the array `src` borrows.
            Self(unsafe { _mm512_loadu_pd(src.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f64; LANES]) {
            // SAFETY: AVX-512F as above; the unaligned store writes exactly
            // the `LANES = 8` `f64` of the array `dst` borrows exclusively.
            unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn fma(self, b: Self, c: Self) -> Self {
            // SAFETY: AVX-512F as above; register operands only.
            Self(unsafe { _mm512_fmadd_pd(self.0, b.0, c.0) })
        }

        #[inline(always)]
        fn fnma(self, b: Self, c: Self) -> Self {
            // SAFETY: AVX-512F as above; register operands only.
            Self(unsafe { _mm512_fnmadd_pd(self.0, b.0, c.0) })
        }

        #[inline(always)]
        fn add(self, b: Self) -> Self {
            // SAFETY: AVX-512F as above; register operands only.
            Self(unsafe { _mm512_add_pd(self.0, b.0) })
        }

        #[inline(always)]
        fn sub(self, b: Self) -> Self {
            // SAFETY: AVX-512F as above; register operands only.
            Self(unsafe { _mm512_sub_pd(self.0, b.0) })
        }

        #[inline(always)]
        fn mul(self, b: Self) -> Self {
            // SAFETY: AVX-512F as above; register operands only.
            Self(unsafe { _mm512_mul_pd(self.0, b.0) })
        }
    }

    super::operators!(Wide);

    pub type Native = Wide;
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
mod target {
    pub type Native = super::Portable;
}

/// The lane type of the build target: `Wide` where it has AVX-512F,
/// [`Portable`] elsewhere.
pub use target::Native;

/// Whether the build target computes in 512-bit lanes: 32 vector registers
/// wide enough that one holds a whole column of the short tile.
pub(crate) const WIDE: bool = Native::BITS == 512;

#[cfg(test)]
mod tests {
    use super::*;

    /// Sign-mixed values with full mantissas, so a fused and an unfused
    /// multiply-add round differently.
    fn values(salt: u64) -> [f64; LANES] {
        std::array::from_fn(|r| {
            let z = (salt * 8 + r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
    }

    fn check<L: Lanes>() {
        let (a, b, c) = (values(1), values(2), values(3));
        let mut out = [0.0; LANES];
        L::splat(0.25).store(&mut out);
        assert_eq!(out, [0.25; LANES]);
        L::load(&a).store(&mut out);
        assert_eq!(out, a);
        L::load(&a).fma(L::load(&b), L::load(&c)).store(&mut out);
        for r in 0..LANES {
            assert_eq!(out[r].to_bits(), mul_add(a[r], b[r], c[r]).to_bits());
        }
        L::load(&a).fnma(L::load(&b), L::load(&c)).store(&mut out);
        for r in 0..LANES {
            assert_eq!(out[r].to_bits(), mul_add(-a[r], b[r], c[r]).to_bits());
        }
        L::load(&a).add(L::load(&b)).store(&mut out);
        for r in 0..LANES {
            assert_eq!(out[r].to_bits(), (a[r] + b[r]).to_bits());
        }
        L::load(&a).sub(L::load(&b)).store(&mut out);
        for r in 0..LANES {
            assert_eq!(out[r].to_bits(), (a[r] - b[r]).to_bits());
        }
        L::load(&a).mul(L::load(&b)).store(&mut out);
        for r in 0..LANES {
            assert_eq!(out[r].to_bits(), (a[r] * b[r]).to_bits());
        }
    }

    /// `[a + b, a − b, a · b]` on the lane type `L`.
    fn arithmetic<L: Lanes>(a: [f64; LANES], b: [f64; LANES]) -> [[f64; LANES]; 3] {
        let (a, b) = (L::load(&a), L::load(&b));
        let mut out = [[0.0; LANES]; 3];
        for (x, dst) in [a.add(b), a.sub(b), a.mul(b)].into_iter().zip(&mut out) {
            x.store(dst);
        }
        out
    }

    #[test]
    fn lane_arithmetic_keeps_zero_signs_infinities_and_nans() {
        // The bit-identity of the lane-interleaved product's epilogue rests on
        // these being the IEEE operations, zero signs included.
        let a = [0.0, -0.0, 1.5, f64::INFINITY, -2.0, f64::NAN, 1e-300, 3.0];
        let b = [-0.0, -0.0, -1.5, 1.0, 0.0, 1.0, 1e-300, -3.0];
        for out in [arithmetic::<Portable>(a, b), arithmetic::<Native>(a, b)] {
            for r in 0..LANES {
                let want = [a[r] + b[r], a[r] - b[r], a[r] * b[r]];
                for (got, want) in out.iter().map(|o| o[r]).zip(want) {
                    assert!(
                        got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                        "lane {r}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_lane_type_rounds_as_the_scalar_multiply_add() {
        check::<Portable>();
        check::<Native>();
    }
}
