//! The planned transforms and `convolve` against their `O(n²)` definitions.
//! (Kept outside `src/`: CI holds that the crate's sources call `sin`/`cos`
//! in `FftPlan::new` only.)

use quatrex_fft::{c64, convolve, fft, ifft, with_workspace};
use std::f64::consts::PI;

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

fn signal(n: usize, seed: f64) -> Vec<c64> {
    (0..n)
        .map(|i| {
            let t = i as f64 + seed;
            c64::new((0.3 * t).sin() + 0.01 * t, (0.7 * t).cos())
        })
        .collect()
}

fn max_norm(x: &[c64]) -> f64 {
    x.iter().map(|v| v.norm()).fold(0.0, f64::max)
}

/// Both parities of `log2 n`: the pure radix-4 route (4, 16, 64, 1024) and
/// the radix-2 tail (2, 8, 32).
const LENGTHS: [usize; 7] = [2, 4, 8, 16, 32, 64, 1024];

#[test]
fn planned_fft_and_ifft_match_the_naive_dft() {
    for n in LENGTHS {
        let x = signal(n, 0.0);
        let tol = 1e-13 * n as f64 * max_norm(&x);
        let mut got = x.clone();
        fft(&mut got);
        for (k, (g, w)) in got.iter().zip(naive_dft(&x, -1.0)).enumerate() {
            assert!((g - w).norm() <= tol, "fft n = {n}, k = {k}: {g} vs {w}");
        }
        let mut got = x.clone();
        ifft(&mut got);
        for (k, (g, w)) in got.iter().zip(naive_dft(&x, 1.0)).enumerate() {
            let w = w / n as f64;
            assert!((g - w).norm() <= tol, "ifft n = {n}, k = {k}: {g} vs {w}");
        }
    }
}

#[test]
fn workspace_inverse_is_n_times_the_inverse_of_forward() {
    for n in LENGTHS {
        let x = signal(n, 2.5);
        with_workspace(n, |w| {
            w.load(x.iter().copied().enumerate());
            w.forward();
            let (re, im) = w.inverse();
            for k in 0..n {
                let back = c64::new(re[k], im[k]) / n as f64;
                assert!((back - x[k]).norm() < 1e-12, "n = {n}, k = {k}");
            }
        });
    }
}

#[test]
fn parseval_holds() {
    let x = signal(64, 0.0);
    let mut y = x.clone();
    fft(&mut y);
    let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
    let e_freq: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / 64.0;
    assert!((e_time - e_freq).abs() < 1e-12 * e_time);
}

fn naive_convolve(a: &[c64], b: &[c64]) -> Vec<c64> {
    let mut c = vec![c64::new(0.0, 0.0); a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            c[i + j] += ai * bj;
        }
    }
    c
}

#[test]
fn convolution_matches_naive_sum() {
    for (na, nb) in [(1, 1), (4, 4), (7, 3), (16, 16), (33, 17)] {
        let a = signal(na, 0.0);
        let b = signal(nb, 5.0);
        let got = convolve(&a, &b);
        let want = naive_convolve(&a, &b);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).norm() < 1e-12 * (na + nb) as f64, "na={na} nb={nb}");
        }
    }
}

#[test]
fn convolution_with_delta_is_identity_and_commutes() {
    let a = signal(10, 3.0);
    let c = convolve(&a, &[c64::new(1.0, 0.0)]);
    for (x, y) in c.iter().zip(a.iter()) {
        assert!((x - y).norm() < 1e-12);
    }
    let b = signal(14, 7.0);
    let (ab, ba) = (convolve(&a, &b), convolve(&b, &a));
    for (x, y) in ab.iter().zip(ba.iter()) {
        assert!((x - y).norm() < 1e-12);
    }
}
