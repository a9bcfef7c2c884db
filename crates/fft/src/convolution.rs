//! FFT-based linear convolution on the energy axis.
//!
//! In the SCBA loop the polarisation is a correlation of Green's functions and
//! the self-energy a convolution of a Green's function with the screened
//! Coulomb interaction (paper Eq. (3)). After the data transposition the FFTs
//! act on per-element energy series; [`convolve`] implements the padded linear
//! convolution exactly as a reference `O(N_E²)` sum would produce it. It is
//! the convolution kernels' inner sequence — two operand transforms, one
//! frequency-domain product, one inverse, on the thread's
//! [`crate::workspace`] — on one `f64` series, with nothing else around it.

use crate::c64;
use crate::transform::next_power_of_two;
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
        let split = |v: &c64| (v.re, v.im);
        w.add_product(
            a.iter().map(split).enumerate(),
            b.iter().map(split).enumerate(),
        );
        let (re, im) = w.inverse();
        let values = re.iter().zip(im.iter()).take(out_len);
        values
            .map(|(&re, &im)| c64::new(re * scale, im * scale))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_yield_empty_output() {
        let x = [c64::new(1.0, -2.0); 3];
        assert!(convolve(&[], &x).is_empty());
        assert!(convolve(&x, &[]).is_empty());
    }
}
