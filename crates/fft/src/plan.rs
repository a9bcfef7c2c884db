//! The planned transform: bit-reversal table, exact twiddles, one butterfly.
//!
//! An [`FftPlan`] fixes everything about a length-`n` transform that does not
//! depend on the data: the bit-reversal permutation and the twiddle factors of
//! every pass, each computed once from its exact angle. A transform is then
//! nothing but loads, multiplies and adds on split real/imaginary planes —
//! no trigonometry, no allocation.
//!
//! The butterflies are decimation-in-time over a bit-reversed input: radix-4
//! passes with quarter lengths `1, 4, 16, …` (the first one twiddle-free) and,
//! when `log2 n` is odd, one closing radix-2 pass of half length `n/2`. Every
//! pass but the first sweeps `k` over contiguous quarters of the planes with
//! its twiddles in matching contiguous runs — plain `f64` lane arithmetic the
//! compiler vectorises, the idiom of `quatrex-linalg`'s GEMM tile. The
//! inverse transform runs the *same* butterflies with the two planes swapped
//! (`IDFT(x) = swap(DFT(swap(x)))`, unnormalised): the `1/n` is left to the
//! caller, who folds it into a prefactor it applies anyway.

use std::f64::consts::PI;

/// Everything data-independent about the transforms of one power-of-two
/// length.
pub(crate) struct FftPlan {
    n: usize,
    /// `rev[k]`: `k` with its `log2 n` bits reversed.
    rev: Vec<u32>,
    /// Real parts of the twiddles of every pass after the first, in pass
    /// order: per radix-4 pass of quarter length `h` the three runs
    /// `W_{4h}^{2k}`, `W_{4h}^{k}`, `W_{4h}^{3k}` (`k < h`), then `W_n^k`
    /// (`k < n/2`) of the closing radix-2 pass; `W_m = exp(−2πi/m)`.
    tw_re: Vec<f64>,
    /// Imaginary parts, same layout.
    tw_im: Vec<f64>,
}

impl FftPlan {
    /// Plan the transforms of length `n`.
    ///
    /// # Panics
    /// If `n` is not a power of two: the convolutions zero-pad to
    /// [`crate::next_power_of_two`], so no other length exists.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "fft length {n} must be a power of two; zero-pad to next_power_of_two"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|k| {
                (k.reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0)) as u32
            })
            .collect();
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(n), Vec::with_capacity(n));
        // `W_m^j`, from the exact angle of each entry (no recurrence).
        let mut push = |j: usize, m: usize| {
            let (sin, cos) = (-2.0 * PI * j as f64 / m as f64).sin_cos();
            tw_re.push(cos);
            tw_im.push(sin);
        };
        let mut h = 4;
        while 4 * h <= n {
            for multiple in [2, 1, 3] {
                (0..h).for_each(|k| push(multiple * k, 4 * h));
            }
            h *= 4;
        }
        if bits % 2 == 1 {
            (0..n / 2).for_each(|k| push(k, n));
        }
        Self {
            n,
            rev,
            tw_re,
            tw_im,
        }
    }

    /// The transform length.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Forward transform `X_f = Σ_k x_k · exp(−2πi·fk/n)` in place on split
    /// planes, natural order in and out.
    pub(crate) fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        for (k, &r) in self.rev.iter().enumerate() {
            if k < r as usize {
                re.swap(k, r as usize);
                im.swap(k, r as usize);
            }
        }
        self.butterflies(re, im);
    }

    /// Unnormalised inverse transform `x_k = Σ_f X_f · exp(+2πi·fk/n)` in
    /// place on split planes (`n` times the inverse of [`FftPlan::forward`]).
    pub(crate) fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        self.forward(im, re);
    }

    /// Where element `k` of a natural-order signal sits in the input order
    /// of [`FftPlan::butterflies`].
    #[inline(always)]
    pub(crate) fn slot(&self, k: usize) -> usize {
        self.rev[k] as usize
    }

    /// The passes proper: forward transform of a signal stored in
    /// [`FftPlan::slot`] order, result in natural order.
    pub(crate) fn butterflies(&self, re: &mut [f64], im: &mut [f64]) {
        let n = self.n;
        assert!(re.len() == n && im.len() == n, "plane length is not {n}");
        if n >= 4 {
            radix4_first(re, im);
        }
        let (mut h, mut at) = (4, 0);
        while 4 * h <= n {
            let (wr, wi) = (&self.tw_re[at..at + 3 * h], &self.tw_im[at..at + 3 * h]);
            radix4_pass(re, im, h, wr, wi);
            at += 3 * h;
            h *= 4;
        }
        if n.trailing_zeros() % 2 == 1 {
            radix2_pass(re, im, &self.tw_re[at..], &self.tw_im[at..]);
        }
    }
}

/// `(wr + i·wi) · (xr + i·xi)`.
#[inline(always)]
fn twiddled((wr, wi): (f64, f64), (xr, xi): (f64, f64)) -> (f64, f64) {
    (wr * xr - wi * xi, wr * xi + wi * xr)
}

/// The radix-4 butterfly (two fused radix-2 stages) on `a_0` and the
/// already twiddled `t_q = w_q · a_q`:
/// `c_{0,2} = (a_0 + t_1) ± (t_2 + t_3)`, `c_{1,3} = (a_0 − t_1) ∓ i·(t_2 − t_3)`.
#[inline(always)]
fn radix4(
    (a0r, a0i): (f64, f64),
    (t1r, t1i): (f64, f64),
    (t2r, t2i): (f64, f64),
    (t3r, t3i): (f64, f64),
) -> [(f64, f64); 4] {
    let (b0r, b0i, b1r, b1i) = (a0r + t1r, a0i + t1i, a0r - t1r, a0i - t1i);
    let (b2r, b2i, b3r, b3i) = (t2r + t3r, t2i + t3i, t2r - t3r, t2i - t3i);
    [
        (b0r + b2r, b0i + b2i),
        (b1r + b3i, b1i - b3r),
        (b0r - b2r, b0i - b2i),
        (b1r - b3i, b1i + b3r),
    ]
}

/// The radix-4 pass of quarter length 1: every twiddle is 1, the butterfly
/// is sixteen additions on four adjacent elements.
fn radix4_first(re: &mut [f64], im: &mut [f64]) {
    for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
        let c = radix4((r[0], i[0]), (r[1], i[1]), (r[2], i[2]), (r[3], i[3]));
        for q in 0..4 {
            (r[q], i[q]) = c[q];
        }
    }
}

/// Split a block of `4h` into its four quarters.
fn quarters(x: &mut [f64], h: usize) -> [&mut [f64]; 4] {
    let (lo, hi) = x.split_at_mut(2 * h);
    let ((q0, q1), (q2, q3)) = (lo.split_at_mut(h), hi.split_at_mut(h));
    [q0, q1, q2, q3]
}

/// One radix-4 pass of quarter length `h ≥ 4`: per block of `4h` and
/// `k < h`, the butterfly on `a_q = x[k + q·h]` with `t_q = w_q[k] · a_q`.
fn radix4_pass(re: &mut [f64], im: &mut [f64], h: usize, wr: &[f64], wi: &[f64]) {
    let w = [
        &wr[..h],
        &wi[..h],
        &wr[h..2 * h],
        &wi[h..2 * h],
        &wr[2 * h..],
        &wi[2 * h..],
    ];
    for (r, i) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        let ([r0, r1, r2, r3], [i0, i1, i2, i3]) = (quarters(r, h), quarters(i, h));
        radix4_sweep(r0, r1, r2, r3, i0, i1, i2, i3, w);
    }
}

/// The `k` sweep of one radix-4 block. One parameter per quarter on purpose:
/// each carries its own no-alias guarantee, so the loop vectorises without a
/// run-time overlap check per pair of slices.
#[allow(clippy::too_many_arguments)]
fn radix4_sweep(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    i0: &mut [f64],
    i1: &mut [f64],
    i2: &mut [f64],
    i3: &mut [f64],
    [w1r, w1i, w2r, w2i, w3r, w3i]: [&[f64]; 6],
) {
    let h = r0.len();
    // Equal lengths, stated once: the sweep below then needs no bounds check.
    let planes = [
        &*r1, &*r2, &*r3, &*i0, &*i1, &*i2, &*i3, w1r, w1i, w2r, w2i, w3r, w3i,
    ];
    assert!(planes.iter().all(|x| x.len() == h));
    for k in 0..h {
        let c = radix4(
            (r0[k], i0[k]),
            twiddled((w1r[k], w1i[k]), (r1[k], i1[k])),
            twiddled((w2r[k], w2i[k]), (r2[k], i2[k])),
            twiddled((w3r[k], w3i[k]), (r3[k], i3[k])),
        );
        [
            (r0[k], i0[k]),
            (r1[k], i1[k]),
            (r2[k], i2[k]),
            (r3[k], i3[k]),
        ] = c;
    }
}

/// The closing radix-2 pass of half length `n/2` (odd `log2 n` only):
/// `c_{0,1} = a_0 ± w[k]·a_1`.
fn radix2_pass(re: &mut [f64], im: &mut [f64], wr: &[f64], wi: &[f64]) {
    let h = re.len() / 2;
    let ((r0, r1), (i0, i1)) = (re.split_at_mut(h), im.split_at_mut(h));
    radix2_sweep(r0, r1, i0, i1, &wr[..h], &wi[..h]);
}

/// The `k` sweep of the radix-2 pass, one parameter per half like
/// [`radix4_sweep`].
fn radix2_sweep(
    r0: &mut [f64],
    r1: &mut [f64],
    i0: &mut [f64],
    i1: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let h = r0.len();
    assert!([&*r1, &*i0, &*i1, wr, wi].iter().all(|x| x.len() == h));
    for k in 0..h {
        let (tr, ti) = twiddled((wr[k], wi[k]), (r1[k], i1[k]));
        (r1[k], i1[k]) = (r0[k] - tr, i0[k] - ti);
        (r0[k], i0[k]) = (r0[k] + tr, i0[k] + ti);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reversal_is_an_involution_of_the_right_width() {
        assert_eq!(FftPlan::new(1).rev, [0]);
        assert_eq!(FftPlan::new(8).rev, [0, 4, 2, 6, 1, 5, 3, 7]);
        let plan = FftPlan::new(64);
        for k in 0..64 {
            assert_eq!(plan.slot(plan.slot(k)), k);
        }
    }

    #[test]
    fn twiddle_tables_hold_one_entry_per_butterfly_operand() {
        // n = 32: one radix-4 pass with twiddles (h = 4) and the radix-2 tail.
        assert_eq!(FftPlan::new(32).tw_re.len(), 3 * 4 + 16);
        // n = 64: h = 4 and h = 16, no tail.
        assert_eq!(FftPlan::new(64).tw_im.len(), 3 * 4 + 3 * 16);
        assert!(FftPlan::new(4).tw_re.is_empty());
    }

    #[test]
    #[should_panic(expected = "fft length 12 must be a power of two")]
    fn a_non_power_of_two_is_rejected_at_plan_time() {
        FftPlan::new(12);
    }
}
