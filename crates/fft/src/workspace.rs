//! The transform scratch: one plan per length seen, three split plane
//! pairs, and the frequency-domain operations of a padded convolution.
//!
//! Every transform runs inside a [`Workspace`]. [`with_workspace`] hands out
//! the calling thread's `f64` planes — what [`crate::fft`] / [`crate::ifft`]
//! / [`crate::convolve`] run on —, [`with_workspace_in`] wraps planes of any
//! [`Value`] the caller keeps (the lane-group kernels of
//! `quatrex_core::convolution` keep theirs per thread). Either way the plans
//! are the thread's, created on the first call at a length and reused by
//! every later one, and the planes are grown, never shrunk: the steady state
//! computes no twiddle and allocates nothing.

use std::cell::RefCell;

use crate::plan::{FftPlan, Value};

/// What a thread keeps between calls: grown, never shrunk.
#[derive(Default)]
struct Scratch {
    /// One plan per transform length seen on this thread.
    plans: Vec<FftPlan>,
    /// Backing store of the six `f64` planes of the largest length seen.
    planes: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A split real/imaginary plane pair of the workspace's length.
struct Planes<'a, T> {
    re: &'a mut [T],
    im: &'a mut [T],
}

impl<T: Value> Planes<'_, T> {
    /// Zero the planes, then store the signal `x`, natural index `k` at
    /// `slot(k)`.
    #[inline(always)]
    fn place(&mut self, x: impl Iterator<Item = (usize, (T, T))>, slot: impl Fn(usize) -> usize) {
        let zero = T::from(0.0);
        self.re.fill(zero);
        self.im.fill(zero);
        for (k, (re, im)) in x {
            let at = slot(k);
            (self.re[at], self.im[at]) = (re, im);
        }
    }

    /// Overwrite the planes with the forward transform of the signal `x`.
    /// The values go straight to the butterflies' input order: no
    /// permutation pass.
    #[inline(always)]
    fn spectrum_of(&mut self, x: impl Iterator<Item = (usize, (T, T))>, plan: &FftPlan) {
        self.place(x, |k| plan.slot(k));
        plan.butterflies(self.re, self.im);
    }
}

/// A plan and planes at one transform length `n`: a signal plane pair `S`
/// that is loaded, transformed and read in natural order, and two operand
/// pairs behind [`Workspace::add_product`].
///
/// A signal comes in as `(index, (re, im))` pairs in natural order. Indices
/// no pair names are zero and a later pair overwrites an earlier one — so
/// "the series without its batch" is the series chained with zeros at the
/// batch indices, and a reversed series is an index map, not a copy.
pub struct Workspace<'a, T = f64> {
    plan: &'a FftPlan,
    a: Planes<'a, T>,
    b: Planes<'a, T>,
    s: Planes<'a, T>,
}

/// Run `f` on the calling thread's plan at length `n` (a power of two;
/// planned on the first call at that length) and its `f64` planes. Not
/// re-entrant: `f` must not call back into this crate's transforms.
pub fn with_workspace<R>(n: usize, f: impl FnOnce(&mut Workspace<'_>) -> R) -> R {
    SCRATCH.with(|scratch| {
        let Scratch { plans, planes } = &mut *scratch.borrow_mut();
        f(&mut Workspace::new(plan_of(plans, n), planes))
    })
}

/// [`with_workspace`] on planes of any [`Value`] that the caller keeps in
/// `planes` (grown to the six planes of length `n` on first use, never
/// shrunk) — the lane-group form: one transform of `n` lane vectors
/// transforms every lane's series. Not re-entrant either.
pub fn with_workspace_in<T: Value, R>(
    n: usize,
    planes: &mut Vec<T>,
    f: impl FnOnce(&mut Workspace<'_, T>) -> R,
) -> R {
    SCRATCH.with(|scratch| {
        let plans = &mut scratch.borrow_mut().plans;
        f(&mut Workspace::new(plan_of(plans, n), planes))
    })
}

/// The thread's plan at length `n`, planned on first use.
fn plan_of(plans: &mut Vec<FftPlan>, n: usize) -> &FftPlan {
    match plans.iter().position(|p| p.len() == n) {
        Some(known) => &plans[known],
        None => {
            plans.push(FftPlan::new(n));
            &plans[plans.len() - 1]
        }
    }
}

/// `s ← s + a · b` point-wise on split planes. One parameter per plane, so
/// the two written ones carry their no-alias guarantee into the loop.
fn add_spectral_product<T: Value>(
    s_re: &mut [T],
    s_im: &mut [T],
    a_re: &[T],
    a_im: &[T],
    b_re: &[T],
    b_im: &[T],
) {
    let n = s_re.len();
    assert!([&*s_im, a_re, a_im, b_re, b_im]
        .iter()
        .all(|x| x.len() == n));
    for f in 0..n {
        s_re[f] = s_re[f] + (a_re[f] * b_re[f] - a_im[f] * b_im[f]);
        s_im[f] = s_im[f] + (a_re[f] * b_im[f] + a_im[f] * b_re[f]);
    }
}

impl<'a, T: Value> Workspace<'a, T> {
    /// The workspace of `plan` on `planes`, grown to six planes of its
    /// length.
    fn new(plan: &'a FftPlan, planes: &'a mut Vec<T>) -> Self {
        let n = plan.len();
        if planes.len() < 6 * n {
            planes.resize(6 * n, T::from(0.0));
        }
        let mut pairs = planes[..6 * n].chunks_exact_mut(2 * n).map(|pair| {
            let (re, im) = pair.split_at_mut(n);
            Planes { re, im }
        });
        let mut next = || pairs.next().expect("six planes make three pairs");
        let (a, b, s) = (next(), next(), next());
        Self { plan, a, b, s }
    }

    /// `S ← x`, zero where the signal names no index.
    pub fn load(&mut self, x: impl Iterator<Item = (usize, (T, T))>) {
        self.s.place(x, |k| k);
    }

    /// `S ← 0`, the empty sum of products.
    pub fn clear(&mut self) {
        self.s.re.fill(T::from(0.0));
        self.s.im.fill(T::from(0.0));
    }

    /// `S ← S + F[a] · F[b]`: transform the two operands and add their
    /// point-wise product to the spectrum held in `S` — two transforms and
    /// one product. Products of one output are summed here, in the frequency
    /// domain, so they share one [`Workspace::inverse`].
    pub fn add_product(
        &mut self,
        a: impl Iterator<Item = (usize, (T, T))>,
        b: impl Iterator<Item = (usize, (T, T))>,
    ) {
        self.a.spectrum_of(a, self.plan);
        self.b.spectrum_of(b, self.plan);
        let (a, b, s) = (&self.a, &self.b, &mut self.s);
        add_spectral_product(s.re, s.im, a.re, a.im, b.re, b.im);
    }

    /// Forward-transform `S` in place; returns its planes `(re, im)`.
    pub fn forward(&mut self) -> (&mut [T], &mut [T]) {
        self.plan.forward(self.s.re, self.s.im);
        (self.s.re, self.s.im)
    }

    /// Inverse-transform `S` in place, **unnormalised** (`n` times the true
    /// inverse — fold the `1/n` into the prefactor of whatever reads it);
    /// returns its planes `(re, im)`.
    pub fn inverse(&mut self) -> (&mut [T], &mut [T]) {
        self.plan.inverse(self.s.re, self.s.im);
        (self.s.re, self.s.im)
    }
}
