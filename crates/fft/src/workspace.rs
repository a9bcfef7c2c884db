//! The per-thread transform scratch: one plan per length seen, three split
//! plane pairs, and the frequency-domain operations of a padded convolution.
//!
//! Every transform of the workspace — the public [`crate::fft`] /
//! [`crate::ifft`] / [`crate::convolve`] and the `P`/`Σ` pair kernels of
//! `quatrex_core::convolution` — runs inside [`with_workspace`]: the thread's
//! plans and planes are created on the first call at a length and reused by
//! every later one, so the steady state computes no twiddle and allocates
//! nothing.

use std::cell::RefCell;

use crate::c64;
use crate::plan::FftPlan;

/// What a thread keeps between calls: grown, never shrunk.
#[derive(Default)]
struct Scratch {
    /// One plan per transform length seen on this thread.
    plans: Vec<FftPlan>,
    /// Backing store of the six planes of the largest length seen.
    planes: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A split real/imaginary plane pair of the workspace's length.
struct Planes<'a> {
    re: &'a mut [f64],
    im: &'a mut [f64],
}

impl Planes<'_> {
    /// Zero the planes, then store the signal `x`, natural index `k` at
    /// `slot(k)`.
    #[inline(always)]
    fn place(&mut self, x: impl Iterator<Item = (usize, c64)>, slot: impl Fn(usize) -> usize) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        for (k, v) in x {
            let at = slot(k);
            (self.re[at], self.im[at]) = (v.re, v.im);
        }
    }

    /// Overwrite the planes with the forward transform of the signal `x`.
    /// The values go straight to the butterflies' input order: no
    /// permutation pass.
    #[inline(always)]
    fn spectrum_of(&mut self, x: impl Iterator<Item = (usize, c64)>, plan: &FftPlan) {
        self.place(x, |k| plan.slot(k));
        plan.butterflies(self.re, self.im);
    }
}

/// The calling thread's plan and planes at one transform length `n`: a
/// signal plane pair `S` that is loaded, transformed and read in natural
/// order, and two operand pairs behind [`Workspace::add_product`].
///
/// A signal comes in as `(index, value)` pairs in natural order. Indices no
/// pair names are zero and a later pair overwrites an earlier one — so "the
/// series without its batch" is the series chained with zeros at the batch
/// indices, and a reversed series is an index map, not a copy.
pub struct Workspace<'a> {
    plan: &'a FftPlan,
    a: Planes<'a>,
    b: Planes<'a>,
    s: Planes<'a>,
}

/// Run `f` on the calling thread's workspace of length `n` (a power of two;
/// planned on the first call at that length). Not re-entrant: `f` must not
/// call back into this crate's transforms.
pub fn with_workspace<R>(n: usize, f: impl FnOnce(&mut Workspace<'_>) -> R) -> R {
    SCRATCH.with(|scratch| {
        let Scratch { plans, planes } = &mut *scratch.borrow_mut();
        let plan = match plans.iter().position(|p| p.len() == n) {
            Some(known) => &plans[known],
            None => {
                plans.push(FftPlan::new(n));
                &plans[plans.len() - 1]
            }
        };
        if planes.len() < 6 * n {
            planes.resize(6 * n, 0.0);
        }
        let mut pairs = planes[..6 * n].chunks_exact_mut(2 * n).map(|pair| {
            let (re, im) = pair.split_at_mut(n);
            Planes { re, im }
        });
        let mut next = || pairs.next().expect("six planes make three pairs");
        let (a, b, s) = (next(), next(), next());
        f(&mut Workspace { plan, a, b, s })
    })
}

/// `s ← s + a · b` point-wise on split planes. One parameter per plane, so
/// the two written ones carry their no-alias guarantee into the loop.
fn add_spectral_product(
    s_re: &mut [f64],
    s_im: &mut [f64],
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) {
    let n = s_re.len();
    assert!([&*s_im, a_re, a_im, b_re, b_im]
        .iter()
        .all(|x| x.len() == n));
    for f in 0..n {
        s_re[f] += a_re[f] * b_re[f] - a_im[f] * b_im[f];
        s_im[f] += a_re[f] * b_im[f] + a_im[f] * b_re[f];
    }
}

impl Workspace<'_> {
    /// `S ← x`, zero where the signal names no index.
    pub fn load(&mut self, x: impl Iterator<Item = (usize, c64)>) {
        self.s.place(x, |k| k);
    }

    /// `S ← 0`, the empty sum of products.
    pub fn clear(&mut self) {
        self.s.re.fill(0.0);
        self.s.im.fill(0.0);
    }

    /// `S ← S + F[a] · F[b]`: transform the two operands and add their
    /// point-wise product to the spectrum held in `S` — two transforms and
    /// one product. Products of one output are summed here, in the frequency
    /// domain, so they share one [`Workspace::inverse`].
    pub fn add_product(
        &mut self,
        a: impl Iterator<Item = (usize, c64)>,
        b: impl Iterator<Item = (usize, c64)>,
    ) {
        self.a.spectrum_of(a, self.plan);
        self.b.spectrum_of(b, self.plan);
        let (a, b, s) = (&self.a, &self.b, &mut self.s);
        add_spectral_product(s.re, s.im, a.re, a.im, b.re, b.im);
    }

    /// Forward-transform `S` in place; returns its planes `(re, im)`.
    pub fn forward(&mut self) -> (&mut [f64], &mut [f64]) {
        self.plan.forward(self.s.re, self.s.im);
        (self.s.re, self.s.im)
    }

    /// Inverse-transform `S` in place, **unnormalised** (`n` times the true
    /// inverse — fold the `1/n` into the prefactor of whatever reads it);
    /// returns its planes `(re, im)`.
    pub fn inverse(&mut self) -> (&mut [f64], &mut [f64]) {
        self.plan.inverse(self.s.re, self.s.im);
        (self.s.re, self.s.im)
    }
}
