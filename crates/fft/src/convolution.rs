//! FFT-based linear convolution on the energy axis.
//!
//! In the SCBA loop the polarisation is a correlation of Green's functions and
//! the self-energy a convolution of a Green's function with the screened
//! Coulomb interaction (paper Eq. (3)). After the data transposition the FFTs
//! act on per-element energy series; [`convolve`] implements the padded linear
//! convolution exactly as a reference `O(N_E²)` sum would produce it
//! (validated by the tests below). The polarisation's correlation is this
//! convolution against the reversed series
//! (`quatrex_core::convolution`'s `cross_correlate`).

use crate::c64;
use crate::transform::{fft, fft_flops, ifft, next_power_of_two};

/// Linear convolution `c[k] = Σ_m a[m]·b[k−m]` with `k = 0..(len_a + len_b − 1)`.
///
/// Implemented by zero-padding both inputs to the next power of two and
/// multiplying in the frequency domain.
pub fn convolve(a: &[c64], b: &[c64]) -> Vec<c64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_power_of_two(out_len);
    let mut fa = vec![c64::new(0.0, 0.0); n];
    let mut fb = vec![c64::new(0.0, 0.0); n];
    fa[..a.len()].copy_from_slice(a);
    fb[..b.len()].copy_from_slice(b);
    fft(&mut fa);
    fft(&mut fb);
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x *= *y;
    }
    ifft(&mut fa);
    fa.truncate(out_len);
    fa
}

/// Real-FLOP estimate of one padded convolution of an `n_a`-point with an
/// `n_b`-point series: three FFTs of the padded length plus the point-wise
/// product.
pub fn convolution_flops(n_a: usize, n_b: usize) -> u64 {
    if n_a == 0 || n_b == 0 {
        return 0;
    }
    let n = next_power_of_two(n_a + n_b - 1);
    3 * fft_flops(n) + 6 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_convolve(a: &[c64], b: &[c64]) -> Vec<c64> {
        let out_len = a.len() + b.len() - 1;
        let mut c = vec![c64::new(0.0, 0.0); out_len];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                c[i + j] += ai * bj;
            }
        }
        c
    }

    fn series(n: usize, seed: f64) -> Vec<c64> {
        (0..n)
            .map(|i| {
                let t = i as f64 + seed;
                c64::new((0.4 * t).sin(), (0.9 * t).cos() * 0.3)
            })
            .collect()
    }

    #[test]
    fn convolution_matches_naive_sum() {
        for (na, nb) in [(4, 4), (7, 3), (16, 16), (33, 17)] {
            let a = series(na, 0.0);
            let b = series(nb, 5.0);
            let got = convolve(&a, &b);
            let want = naive_convolve(&a, &b);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).norm() < 1e-9, "na={na} nb={nb}");
            }
        }
    }

    #[test]
    fn convolution_with_delta_is_identity() {
        let a = series(10, 3.0);
        let delta = vec![c64::new(1.0, 0.0)];
        let c = convolve(&a, &delta);
        for (x, y) in c.iter().zip(a.iter()) {
            assert!((x - y).norm() < 1e-12);
        }
    }

    #[test]
    fn convolution_is_commutative() {
        let a = series(9, 0.0);
        let b = series(14, 7.0);
        let ab = convolve(&a, &b);
        let ba = convolve(&b, &a);
        for (x, y) in ab.iter().zip(ba.iter()) {
            assert!((x - y).norm() < 1e-10);
        }
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(convolve(&[], &series(3, 0.0)).is_empty());
        assert!(convolve(&series(3, 0.0), &[]).is_empty());
        assert_eq!(convolution_flops(0, 10), 0);
    }

    #[test]
    fn flops_scale_superlinearly() {
        assert!(convolution_flops(1024, 1024) > 2 * convolution_flops(512, 512));
    }
}
