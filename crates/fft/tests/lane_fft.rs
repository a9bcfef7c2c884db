//! The lane transform against the single-series one: the butterflies are
//! written once, generic over the plane's value type, and a vector of lanes
//! must transform every lane's series to exactly the bits `fft` / `ifft`
//! give that series alone — on the portable lane array and on the build
//! target's native lane type, in one build.

use quatrex_fft::{c64, fft, ifft, with_workspace_in, Value};
use quatrex_linalg::lanes::{Lanes, Native, Portable, LANES};

/// Eight sign-mixed series of length `n` with full mantissas.
fn series(n: usize) -> [Vec<c64>; LANES] {
    std::array::from_fn(|l| {
        (0..n)
            .map(|k| {
                let z = ((l * 1031 + k * 17 + 1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let re = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                c64::new(re, (k as f64 * 0.37 + l as f64).sin())
            })
            .collect()
    })
}

/// The lane transform of `x` (forward, or the unnormalised inverse scaled
/// by `1/n` per lane afterwards, as `ifft` scales), per lane.
fn lane_transform<L: Lanes + Value>(x: &[Vec<c64>; LANES], inverse: bool) -> [Vec<c64>; LANES] {
    let n = x[0].len();
    let mut planes: Vec<L> = Vec::new();
    let row = |k: usize, part: fn(&c64) -> f64| L::load(&std::array::from_fn(|l| part(&x[l][k])));
    let (mut re, mut im) = (vec![[0.0; LANES]; n], vec![[0.0; LANES]; n]);
    with_workspace_in(n, &mut planes, |w| {
        w.load((0..n).map(|k| (k, (row(k, |v| v.re), row(k, |v| v.im)))));
        let (r, i) = if inverse { w.inverse() } else { w.forward() };
        for k in 0..n {
            r[k].store(&mut re[k]);
            i[k].store(&mut im[k]);
        }
    });
    let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
    std::array::from_fn(|l| {
        (0..n)
            .map(|k| c64::new(re[k][l] * scale, im[k][l] * scale))
            .collect()
    })
}

fn bits(x: &[c64]) -> Vec<(u64, u64)> {
    x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
}

fn check<L: Lanes + Value>() {
    for n in [1, 2, 4, 8, 16, 32, 64, 128, 512] {
        let x = series(n);
        for inverse in [false, true] {
            let lanes = lane_transform::<L>(&x, inverse);
            for (l, (got, mut want)) in lanes.iter().zip(x.clone()).enumerate() {
                if inverse {
                    ifft(&mut want);
                } else {
                    fft(&mut want);
                }
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "n = {n}, lane {l}, inverse {inverse}"
                );
            }
        }
    }
}

#[test]
fn the_portable_lane_fft_is_bit_identical_to_the_single_series_fft() {
    check::<Portable>();
}

#[test]
fn the_native_lane_fft_is_bit_identical_to_the_single_series_fft() {
    check::<Native>();
}
