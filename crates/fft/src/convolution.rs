//! FFT-based linear convolution on the energy axis.
//!
//! In the SCBA loop the polarisation is a correlation of Green's functions and
//! the self-energy a convolution of a Green's function with the screened
//! Coulomb interaction (paper Eq. (3)). After the data transposition the FFTs
//! act on per-element energy series; [`convolve`] implements the padded linear
//! convolution exactly as a reference `O(N_E²)` sum would produce it. It is
//! the pair kernels' inner sequence — two operand transforms, one
//! frequency-domain product, one inverse, on the thread's
//! [`crate::workspace`] — with nothing else around it.

use crate::c64;
use crate::transform::{fft_flops, next_power_of_two};
use crate::workspace::with_workspace;

/// Linear convolution `c[k] = Σ_m a[m]·b[k−m]` with `k = 0..(len_a + len_b − 1)`.
///
/// Implemented by zero-padding both inputs to the next power of two and
/// multiplying in the frequency domain. The returned `Vec` is the only
/// allocation once the thread's workspace is warm.
pub fn convolve(a: &[c64], b: &[c64]) -> Vec<c64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_power_of_two(out_len);
    let scale = 1.0 / n as f64;
    with_workspace(n, |w| {
        w.clear();
        w.add_product(a.iter().copied().enumerate(), b.iter().copied().enumerate());
        let (re, im) = w.inverse();
        let values = re.iter().zip(im.iter()).take(out_len);
        values
            .map(|(&re, &im)| c64::new(re * scale, im * scale))
            .collect()
    })
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

    #[test]
    fn empty_inputs_yield_empty_output() {
        let x = [c64::new(1.0, -2.0); 3];
        assert!(convolve(&[], &x).is_empty());
        assert!(convolve(&x, &[]).is_empty());
        assert_eq!(convolution_flops(0, 10), 0);
    }

    #[test]
    fn flops_scale_superlinearly() {
        assert!(convolution_flops(1024, 1024) > 2 * convolution_flops(512, 512));
    }
}
