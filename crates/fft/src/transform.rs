//! Radix-2 FFTs for power-of-two lengths.

use crate::c64;
use std::f64::consts::PI;

/// True if `n` is a power of two (and non-zero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// In-place forward FFT for power-of-two lengths (DIT, iterative, bit-reversal).
///
/// Uses the physics sign convention `X_k = Σ_n x_n · exp(−2πi·kn/N)`.
pub fn fft(x: &mut [c64]) {
    fft_dir(x, -1.0);
}

/// In-place inverse FFT for power-of-two lengths, normalised by `1/N`.
pub fn ifft(x: &mut [c64]) {
    fft_dir(x, 1.0);
    let n = x.len() as f64;
    for v in x.iter_mut() {
        *v /= n;
    }
}

fn fft_dir(x: &mut [c64], sign: f64) {
    let n = x.len();
    assert!(
        is_power_of_two(n),
        "fft length {n} must be a power of two; zero-pad to next_power_of_two"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            x.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = c64::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = c64::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = x[i + k];
                let v = x[i + k + len / 2] * w;
                x[i + k] = u + v;
                x[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
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

    fn naive_dft(x: &[c64], sign: f64) -> Vec<c64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| {
                        let ang = sign * 2.0 * PI * (k * j) as f64 / n as f64;
                        x[j] * c64::new(ang.cos(), ang.sin())
                    })
                    .sum()
            })
            .collect()
    }

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64::new((0.3 * t).sin() + 0.1 * t, (0.7 * t).cos())
            })
            .collect()
    }

    #[test]
    fn power_of_two_helpers() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(48));
        assert_eq!(next_power_of_two(48), 64);
        assert_eq!(next_power_of_two(64), 64);
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [2usize, 4, 8, 32, 128] {
            let x = signal(n);
            let mut got = x.clone();
            fft(&mut got);
            let want = naive_dft(&x, -1.0);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).norm() < 1e-9 * n as f64, "n = {n}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [4usize, 16, 256] {
            let x = signal(n);
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            for (a, b) in y.iter().zip(x.iter()) {
                assert!((a - b).norm() < 1e-10);
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let x = signal(64);
        let mut y = x.clone();
        fft(&mut y);
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let e_freq: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 64.0;
        assert!((e_time - e_freq).abs() < 1e-8 * e_time);
    }

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
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_in_place_panics() {
        let mut x = vec![c64::new(1.0, 0.0); 6];
        fft(&mut x);
    }
}
