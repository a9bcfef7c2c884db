//! The inverse of a committed, pivoting 19 × 19 matrix (three pivot groups,
//! the last one ragged) as the pre-rank-k column-at-a-time LU computed it,
//! entry by entry as IEEE bit patterns: the blocked factorisation — other
//! pivot measure, other summation order — must land within rounding of it.

use quatrex_linalg::lu::inverse;
use quatrex_linalg::{c64, cplx, CMatrix};

const N: usize = 19;

fn fixture_matrix() -> CMatrix {
    CMatrix::from_fn(N, N, |i, j| {
        let t = (i * 37 + j * 11) as f64;
        let bump = if (i + 2 * j) % N == 0 { 3.0 } else { 0.0 };
        cplx((0.7 * t).sin() + bump, (0.3 * t).cos() - 0.5 * bump)
    })
}

#[test]
fn inverse_agrees_with_the_column_at_a_time_factorisation() {
    let bits = |hex: &str| f64::from_bits(u64::from_str_radix(hex, 16).expect("hex bit pattern"));
    let want: Vec<c64> = include_str!("fixtures/lu_inverse_19.txt")
        .lines()
        .map(|line| {
            let (re, im) = line.split_once(' ').expect("two words per entry");
            cplx(bits(re), bits(im))
        })
        .collect();
    let want = CMatrix::from_raw(N, N, want);
    let got = inverse(&fixture_matrix()).unwrap();
    let err = got.distance(&want) / want.norm_fro();
    assert!(err <= 1e-13, "relative distance {err:e}");
}
