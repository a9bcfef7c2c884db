//! In-place transforms of interleaved complex slices, on the planned
//! butterflies of the crate-private plan (`plan.rs`).

use crate::c64;
use crate::workspace::with_workspace;

/// Smallest power of two `>= n`: the padded length of a convolution.
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place forward FFT for power-of-two lengths.
///
/// Uses the physics sign convention `X_k = Σ_n x_n · exp(−2πi·kn/N)`.
pub fn fft(x: &mut [c64]) {
    transform(x, false);
}

/// In-place inverse FFT for power-of-two lengths, normalised by `1/N`.
pub fn ifft(x: &mut [c64]) {
    transform(x, true);
}

fn transform(x: &mut [c64], inverse: bool) {
    let scale = if inverse { 1.0 / x.len() as f64 } else { 1.0 };
    with_workspace(x.len(), |w| {
        w.load(x.iter().copied().enumerate());
        let (re, im) = if inverse { w.inverse() } else { w.forward() };
        for (v, (&re, &im)) in x.iter_mut().zip(re.iter().zip(im.iter())) {
            *v = c64::new(re * scale, im * scale);
        }
    });
}

/// Real-FLOP estimate of one complex FFT of length `n`
/// (the conventional `5·n·log2(n)` count).
pub fn fft_flops(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let log2 = (usize::BITS - (n - 1).leading_zeros()) as u64;
    5 * n as u64 * log2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_transforms_to_constant() {
        let mut x = vec![c64::new(0.0, 0.0); 16];
        x[0] = c64::new(1.0, 0.0);
        fft(&mut x);
        for v in &x {
            assert!((v - c64::new(1.0, 0.0)).norm() < 1e-12);
        }
    }

    #[test]
    fn flop_model_grows_n_log_n() {
        assert_eq!(fft_flops(1), 0);
        assert!(fft_flops(1024) > fft_flops(512) * 2 - 5 * 1024);
        assert_eq!(next_power_of_two(48), 64);
        assert_eq!(next_power_of_two(64), 64);
    }

    #[test]
    #[should_panic(expected = "fft length 6 must be a power of two")]
    fn non_power_of_two_in_place_panics() {
        let mut x = vec![c64::new(1.0, 0.0); 6];
        fft(&mut x);
    }
}
