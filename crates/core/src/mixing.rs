//! The Σ update rule of the SCBA loop.
//!
//! With `x_k = [Σ^<, Σ^>, Σ^R]` (every energy) the self-energy fed to G-step
//! `k`, `g_k` the Σ-step's output and `f_k = g_k − x_k`, the next iterate is
//!
//! ```text
//! x_{k+1} = x_k + f_k − Σ_j γ_j·Δg_j       j over the last m ≤ DEPTH pairs, Δg_j = Δx_j + Δf_j
//! γ       = argmin ‖f_k − Σ_j γ_j·Δf_j‖    real γ, ⟨a, b⟩ = Re Σ a·b̄
//! x_{k+1} = x_k + β·f_k                    with no history (m = 0)
//! ```
//!
//! — undamped (type-II) Anderson mixing, `x_k + f_k = g_k`: the extrapolated
//! step is taken in full, as the method is analysed (Walker & Ni 2011). Only
//! a step with no history is damped, by `β = ScbaConfig::mixing`: it is the
//! step [`mix_sigma_energy`] applies, taken at the first mix, after every
//! restart and at every mix of a run too short to record a pair. Real
//! coefficients keep `Σ^≶` anti-Hermitian and `Σ^R` the causal transform of
//! `Σ^≶`, because both properties are preserved by real linear combinations.
//!
//! A mix is three pieces, called in this order by every rank of the loop in
//! [`crate::dist`]:
//!
//! 1. [`SigmaMixer::contribute`] per owned energy — completes the pending
//!    difference pair in that energy's history and returns the energy's
//!    [`MixRow`]: its share of the convergence norms, of the newest step's
//!    `‖Δx‖²` and `‖Δg‖²`, of the Gram matrix `Δf_i·Δf_j` and of the
//!    right-hand side `Δf_i·f`;
//! 2. [`SigmaMixer::coefficients`] once, over the rows of the **whole grid in
//!    ascending energy order** — the ranks gather them in rank order — so
//!    every caller adds the same numbers in the same order and derives
//!    bit-identical `γ` and residual; this is what keeps the trajectory the
//!    same bits at any rank count;
//! 3. [`SigmaMixer::apply`] per owned energy — the full step minus the
//!    history term, or the damped step where there is no history.
//!
//! The history lives with the owner of the energy: per energy one ring of
//! `2·DEPTH` Σ-sets — per pair `u_j = Δg_j = Δx_j + Δf_j` and `Δf_j`; `Δx_j`
//! is the step the rule itself applied, so no copy of `x_{k−1}` is kept, and
//! `−f_{k−1}` waits in the `Δf` plane of the pair it will complete —
//! allocated once in [`SigmaMixer::new`]. A pair recorded
//! at mix `k` is first read at mix `k + 1`, whose output feeds G-step `k + 2`:
//! nothing is recorded once `k + 2 > max_iterations`, so a two-iteration run
//! allocates no ring and executes the damped step's arithmetic exactly.
//!
//! The history is cleared — the mix falls back to the damped step and starts
//! collecting again — when the secant model behind it cannot be trusted: the
//! map did not contract along the step just taken (`‖Δg‖ ≥ ‖Δx‖`, with
//! `Δg = Δx + Δf` the change of the Σ-step's output), the residual grew
//! against the previous mix, or a pivot of the Gram matrix falls below
//! `PIVOT_THRESHOLD` of its diagonal. On a map that is not contractive the
//! loop then does what plain damping does instead of extrapolating noise.
//!
//! The history holds three pairs ([`DEPTH`]): on the sweep benchmark's device
//! (reduced NR-16, 12 energies, tolerance 1e-9) a cold point converges in 6
//! iterations and the warm-started 9-point ramp in 41. Damping the
//! extrapolated step by `β = 0.4` as well took 8 and 51 (and, with that
//! damping, two pairs 9 and 61, four 54 for the ramp). Each pair costs two
//! Σ-sets per owned energy and two more planes streamed per mix.

use quatrex_linalg::c64;
use quatrex_sparse::BlockTridiagonal;

/// Difference pairs the update extrapolates over (`m` of the module doc).
pub const DEPTH: usize = 3;

/// A Gram pivot below this fraction of its diagonal entry (`sin²` of the
/// angle between a `Δf` and the span of the newer ones) counts as rank
/// deficient: the coefficients would amplify rounding by more than `1e6`.
pub(crate) const PIVOT_THRESHOLD: f64 = 1e-10;

/// Entries of the packed upper triangle of the `DEPTH × DEPTH` Gram matrix.
const GRAM_LEN: usize = DEPTH * (DEPTH + 1) / 2;
const STEP_AT: usize = 2;
const IMAGE_AT: usize = 3;
const GRAM_AT: usize = 4;
const RHS_AT: usize = GRAM_AT + GRAM_LEN;

/// Length of a [`MixRow`].
pub const ROW_LEN: usize = RHS_AT + DEPTH;

/// One energy's additive contribution to a mix:
/// `[‖f^<‖², ‖g^<‖², ‖Δx_0‖², ‖Δg_0‖², Δf_i·Δf_j (i ≤ j, row-major), Δf_i·f]`,
/// pairs indexed by age (`0` = newest, `Δg_0 = Δx_0 + Δf_0` the change of the
/// map's output over the newest step), entries of absent pairs zero.
pub type MixRow = [f64; ROW_LEN];

/// A Σ-set of one energy: `[Σ^<, Σ^>, Σ^R]`.
pub type SigmaSet<'a> = [&'a BlockTridiagonal; 3];

/// Position of `Δf_i·Δf_j` (`i ≤ j`) in a [`MixRow`].
const fn gram_at(i: usize, j: usize) -> usize {
    GRAM_AT + i * DEPTH - (i * i - i) / 2 + (j - i)
}

/// Ring plane of `u_s`.
const fn u_plane(slot: usize) -> usize {
    2 * slot
}

/// Ring plane of `Δf_s` (of `−f_{k−1}` while pair `s` is pending).
const fn df_plane(slot: usize) -> usize {
    2 * slot + 1
}

/// `Re(a·b̄)`: the real inner product the coefficients are fitted under.
fn dot_re(a: c64, b: c64) -> f64 {
    a.re * b.re + a.im * b.im
}

/// One element of the damped step: `mix·new + rest·old`, `rest = 1 − mix`.
#[inline(always)]
fn damped(old: c64, new: c64, mix: c64, rest: c64) -> c64 {
    let mut mixed = new;
    mixed *= mix;
    mixed += rest * old;
    mixed
}

/// `mixed = mix·new + (1 − mix)·old`, element by element, in place of `old`.
fn damped_step(old: &mut BlockTridiagonal, new: &BlockTridiagonal, mix: f64) {
    let (mix, rest) = (c64::new(mix, 0.0), c64::new(1.0 - mix, 0.0));
    for (old, new) in old.blocks_mut().zip(new.blocks()) {
        for (o, n) in old.as_mut_slice().iter_mut().zip(new.as_slice()) {
            *o = damped(*o, *n, mix, rest);
        }
    }
}

/// `(‖new − old‖²_F, ‖new‖²_F)` of one energy's `Σ^<`. Block norms are
/// rooted and squared again, as `BlockTridiagonal::norm_fro` composes them,
/// so a residual history compares bit for bit with one taken through it.
fn lesser_norms(old: &BlockTridiagonal, new: &BlockTridiagonal) -> (f64, f64) {
    let minus_one = c64::new(-1.0, 0.0);
    let (mut update, mut reference) = (0.0f64, 0.0f64);
    for (old, new) in old.blocks().zip(new.blocks()) {
        let pairs = new.as_slice().iter().zip(old.as_slice());
        let diff_sq: f64 = pairs.map(|(n, o)| (*n + minus_one * o).norm_sqr()).sum();
        update += diff_sq.sqrt().powi(2);
        reference += new.norm_fro().powi(2);
    }
    (update.sqrt().powi(2), reference.sqrt().powi(2))
}

/// The damped (linear-mixing) step of one energy point, in place:
/// `Σ ← mix·Σ_new + (1 − mix)·Σ` for `Σ^<`, `Σ^>` and `Σ^R`. Returns this
/// energy's contribution to the convergence norms,
/// `(‖Σ^<_new − Σ^<‖²_F, ‖Σ^<_new‖²_F)`, taken before the step.
///
/// This is the rule of the module doc with an empty history, composed of the
/// same two functions the accelerated rule is: a loop over it is what a
/// [`SigmaMixer`] does for a two-iteration run.
pub fn mix_sigma_energy(
    sigma_l: &mut BlockTridiagonal,
    sigma_g: &mut BlockTridiagonal,
    sigma_r: &mut BlockTridiagonal,
    new_l: &BlockTridiagonal,
    new_g: &BlockTridiagonal,
    new_r: &BlockTridiagonal,
    mix: f64,
) -> (f64, f64) {
    let norms = lesser_norms(sigma_l, new_l);
    damped_step(sigma_l, new_l, mix);
    damped_step(sigma_g, new_g, mix);
    damped_step(sigma_r, new_r, mix);
    norms
}

/// Least-squares coefficients of `pairs` difference pairs from the summed
/// row `total`: the solution of `G·γ = b` by an `LDLᵀ` elimination in age
/// order. `None` when a pivot falls below [`PIVOT_THRESHOLD`] of its diagonal
/// entry (or is not finite): the pairs are linearly dependent to rounding and
/// the caller falls back to the damped step. Entries beyond `pairs` are zero.
pub(crate) fn anderson_coefficients(total: &MixRow, pairs: usize) -> Option<[f64; DEPTH]> {
    assert!(pairs <= DEPTH, "at most DEPTH pairs are kept");
    let gram = |i: usize, j: usize| total[gram_at(i.min(j), i.max(j))];
    let mut l = [[0.0f64; DEPTH]; DEPTH];
    let mut d = [0.0f64; DEPTH];
    for j in 0..pairs {
        let pivot = gram(j, j) - (0..j).map(|k| l[j][k] * l[j][k] * d[k]).sum::<f64>();
        if !(pivot.is_finite() && pivot > PIVOT_THRESHOLD * gram(j, j)) {
            return None;
        }
        d[j] = pivot;
        for i in j + 1..pairs {
            let below = gram(i, j) - (0..j).map(|k| l[i][k] * l[j][k] * d[k]).sum::<f64>();
            l[i][j] = below / pivot;
        }
    }
    let mut gamma = [0.0f64; DEPTH];
    for i in 0..pairs {
        let rhs = total[RHS_AT + i];
        gamma[i] = rhs - (0..i).map(|k| l[i][k] * gamma[k]).sum::<f64>();
    }
    for i in (0..pairs).rev() {
        let above = (i + 1..pairs).map(|k| l[k][i] * gamma[k]).sum::<f64>();
        gamma[i] = gamma[i] / d[i] - above;
    }
    Some(gamma)
}

/// The update rule's state over one SCBA run: the per-energy history rings
/// of the energies the caller owns, and the run-level bookkeeping (which is a
/// function of the summed rows alone, hence identical on every rank).
///
/// Every mix is `contribute` for each owned energy, `coefficients` once,
/// `apply` for each owned energy. A fresh mixer starts with an empty history
/// — also on a warm start, whose Σ comes from another operating point.
#[derive(Debug)]
pub struct SigmaMixer {
    beta: f64,
    max_iterations: usize,
    /// Pairs a ring holds: `DEPTH`, or fewer when the run is too short to
    /// ever read more (`0`: no ring at all).
    capacity: usize,
    /// Elements of one Σ-set, in `[<, >, R]` × [`BlockTridiagonal::blocks`]
    /// order: the length of a ring plane.
    set_len: usize,
    /// Per owned energy the `2·capacity` planes `[u_0, Δf_0, u_1, Δf_1 …]`,
    /// one after the other — a mix streams through the planes it needs and
    /// leaves the rest alone.
    rings: Vec<Vec<c64>>,
    /// Mixes decided so far.
    mixes: usize,
    /// The last decided mix stored its `f` and its step: the next
    /// `contribute` completes them into a pair.
    recording: bool,
    /// Complete pairs, ages `0..pairs` at slots `newest, newest − 1, …`.
    pairs: usize,
    newest: usize,
    gamma: [f64; DEPTH],
    /// `‖Δg_0‖ / ‖Δx_0‖` of the pair the last mix completed.
    contraction: Option<f64>,
    last_residual: f64,
    restarts: usize,
}

impl SigmaMixer {
    /// A mixer for `n_owned` energies of `n_blocks × block_size` matrices,
    /// damping its history-free steps by `beta`, in a run of at most
    /// `max_iterations` iterations. The rings are allocated here, once.
    pub fn new(
        beta: f64,
        max_iterations: usize,
        n_owned: usize,
        n_blocks: usize,
        block_size: usize,
    ) -> Self {
        let capacity = DEPTH.min(max_iterations.saturating_sub(2));
        let stored_blocks = n_blocks + 2 * n_blocks.saturating_sub(1);
        let set_len = 3 * stored_blocks * block_size * block_size;
        Self {
            beta,
            max_iterations,
            capacity,
            set_len,
            rings: vec![vec![c64::new(0.0, 0.0); 2 * capacity * set_len]; n_owned],
            mixes: 0,
            recording: false,
            pairs: 0,
            newest: 0,
            gamma: [0.0; DEPTH],
            contraction: None,
            last_residual: f64::INFINITY,
            restarts: 0,
        }
    }

    /// Values the history rings hold in total (`0` for a run of fewer than
    /// three iterations).
    pub fn ring_len(&self) -> usize {
        self.rings.iter().map(Vec::len).sum()
    }

    /// Times the history was cleared (the map did not contract, the residual
    /// grew, or the Gram matrix was rank deficient).
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// `‖Δg_0‖ / ‖Δx_0‖` over the grid — how much the map shrank the step
    /// just taken — if the last mix completed a pair; `None` otherwise.
    pub fn contraction(&self) -> Option<f64> {
        self.contraction
    }

    /// Whether mix `k` (1-based) stores `f_k` and its step: only if a later
    /// G-step sees what the pair they complete at mix `k + 1` does.
    fn records(&self, k: usize) -> bool {
        k + 2 <= self.max_iterations
    }

    /// Ring slot of the pair of age `age` when the newest is at `newest`.
    fn slot(&self, newest: usize, age: usize) -> usize {
        (newest + self.capacity - age) % self.capacity
    }

    /// Piece 1: the row of owned energy `k_local`, from the Σ it fed the
    /// G-step (`x`) and the Σ-step's output (`g`). Completes the pending pair
    /// of this energy's ring and stores `−f = x − g` for the next one.
    pub fn contribute(&mut self, k_local: usize, x: SigmaSet<'_>, g: SigmaSet<'_>) -> MixRow {
        let mut row = [0.0; ROW_LEN];
        (row[0], row[1]) = lesser_norms(x[0], g[0]);
        let (completes, records) = (self.recording, self.records(self.mixes + 1));
        if !(completes || records) {
            return row;
        }
        let len = self.set_len;
        // The pending pair sits behind the newest complete one. Completed, it
        // is the newest, and the pair this mix opens goes behind it — onto
        // the oldest, whose `Δf` is read here for the last time.
        let pending = (self.newest + 1) % self.capacity;
        let (u, df) = (u_plane(pending) * len, df_plane(pending) * len);
        let (n, opened) = if completes {
            let n = (self.pairs + 1).min(self.capacity);
            (n, (pending + 1) % self.capacity)
        } else {
            (0, pending)
        };
        let opened = df_plane(opened) * len;
        let by_age: [usize; DEPTH] =
            std::array::from_fn(|a| df_plane(self.slot(pending, a % self.capacity)) * len);
        let minus_one = c64::new(-1.0, 0.0);
        let ring = &mut self.rings[k_local][..2 * self.capacity * len];
        let mut i = 0;
        for (x, g) in x.into_iter().zip(g) {
            for (x, g) in x.blocks().zip(g.blocks()) {
                for (x, g) in x.as_slice().iter().zip(g.as_slice()) {
                    let f = *g + minus_one * x;
                    if completes {
                        let (d, step) = (f + ring[df + i], ring[u + i]);
                        let image = step + d;
                        row[STEP_AT] += step.norm_sqr();
                        row[IMAGE_AT] += image.norm_sqr();
                        ring[df + i] = d;
                        ring[u + i] = image;
                    }
                    for a in 0..n {
                        let d_a = ring[by_age[a] + i];
                        row[RHS_AT + a] += dot_re(d_a, f);
                        for b in a..n {
                            row[gram_at(a, b)] += dot_re(d_a, ring[by_age[b] + i]);
                        }
                    }
                    if records {
                        ring[opened + i] = -f;
                    }
                    i += 1;
                }
            }
        }
        row
    }

    /// Piece 2: decide the mix from the rows of every energy of the grid, in
    /// ascending energy order. Returns the relative residual
    /// `‖f^<‖ / ‖g^<‖` of the iteration (the convergence measure).
    pub fn coefficients(&mut self, rows: impl IntoIterator<Item = MixRow>) -> f64 {
        let mut total = [0.0; ROW_LEN];
        for row in rows {
            for (t, r) in total.iter_mut().zip(row) {
                *t += r;
            }
        }
        let residual = if total[1] > 0.0 {
            (total[0] / total[1]).sqrt()
        } else {
            0.0
        };
        self.mixes += 1;
        self.contraction = self
            .recording
            .then(|| (total[IMAGE_AT] / total[STEP_AT]).sqrt());
        if self.recording {
            self.pairs = (self.pairs + 1).min(self.capacity);
            self.newest = (self.newest + 1) % self.capacity;
        } else {
            self.pairs = 0;
        }
        // Extrapolate only where the map contracted along the step just
        // taken (`‖Δg‖ < ‖Δx‖`) and the residual did not grow.
        let contracted = total[IMAGE_AT] < total[STEP_AT] && residual <= self.last_residual;
        let fitted = if self.pairs > 0 && !contracted {
            None
        } else {
            anderson_coefficients(&total, self.pairs)
        };
        if fitted.is_none() {
            self.restarts += 1;
            self.pairs = 0;
        }
        self.gamma = fitted.unwrap_or([0.0; DEPTH]);
        self.recording = self.records(self.mixes);
        self.last_residual = residual;
        residual
    }

    /// Piece 3: advance owned energy `k_local` — to `g` minus the history
    /// term, or by the damped step towards `g` without history — and store
    /// the step for the next pair.
    pub fn apply(&mut self, k_local: usize, x: [&mut BlockTridiagonal; 3], g: SigmaSet<'_>) {
        let (n, recording) = (self.pairs, self.recording);
        if n == 0 && !recording {
            for (x, g) in x.into_iter().zip(g) {
                damped_step(x, g, self.beta);
            }
            return;
        }
        let beta = if n > 0 { 1.0 } else { self.beta };
        let len = self.set_len;
        let (mix, rest) = (c64::new(beta, 0.0), c64::new(1.0 - beta, 0.0));
        let opened = (self.newest + 1) % self.capacity;
        let (step, minus_f) = (u_plane(opened) * len, df_plane(opened) * len);
        let terms: [(f64, usize); DEPTH] = std::array::from_fn(|a| {
            let slot = self.slot(self.newest, a % self.capacity);
            (self.gamma[a], u_plane(slot) * len)
        });
        let ring = &mut self.rings[k_local][..2 * self.capacity * len];
        let mut i = 0;
        for (x, g) in x.into_iter().zip(g) {
            for (x, g) in x.blocks_mut().zip(g.blocks()) {
                for (x, g) in x.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    let mut next = damped(*x, *g, mix, rest);
                    let mut history = c64::new(0.0, 0.0);
                    for &(gamma, u) in &terms[..n] {
                        history += ring[u + i] * gamma;
                    }
                    if n > 0 {
                        next -= history;
                    }
                    *x = next;
                    if recording {
                        ring[step + i] = -ring[minus_f + i] * beta - history;
                    }
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nb: usize, bs: usize, seed: f64) -> BlockTridiagonal {
        let mut bt = BlockTridiagonal::zeros(nb, bs);
        for (b, block) in bt.blocks_mut().enumerate() {
            for (e, v) in block.as_mut_slice().iter_mut().enumerate() {
                let t = seed + 0.61 * b as f64 + 0.173 * e as f64;
                *v = c64::new(t.sin(), (1.7 * t).cos());
            }
        }
        bt
    }

    /// The allocating body `mix_sigma_energy` had before it went in place.
    fn allocating_rule(
        sigma: [&mut BlockTridiagonal; 3],
        new: SigmaSet<'_>,
        mix: f64,
    ) -> (f64, f64) {
        let mix_into = |old: &BlockTridiagonal, new: &BlockTridiagonal| -> BlockTridiagonal {
            let mut mixed = new.clone();
            mixed.scale_mut(c64::new(mix, 0.0));
            mixed.add(c64::new(1.0 - mix, 0.0), old)
        };
        let diff = new[0].add(c64::new(-1.0, 0.0), sigma[0]);
        let norms = (diff.norm_fro().powi(2), new[0].norm_fro().powi(2));
        for (old, new) in sigma.into_iter().zip(new) {
            *old = mix_into(old, new);
        }
        norms
    }

    fn bits(set: [&BlockTridiagonal; 3]) -> Vec<(u64, u64)> {
        set.into_iter()
            .flat_map(|bt| bt.blocks())
            .flat_map(|b| b.as_slice())
            .map(|v| (v.re.to_bits(), v.im.to_bits()))
            .collect()
    }

    #[test]
    fn the_in_place_damped_step_keeps_the_bits_of_the_allocating_one() {
        let fresh = || [sample(4, 3, 0.2), sample(4, 3, 1.1), sample(4, 3, 2.3)];
        let new = [sample(4, 3, 3.9), sample(4, 3, 4.4), sample(4, 3, 5.8)];
        let new = [&new[0], &new[1], &new[2]];
        for mix in [0.4, 0.5, 1.0] {
            let ([mut l, mut g, mut r], [mut wl, mut wg, mut wr]) = (fresh(), fresh());
            let got = mix_sigma_energy(&mut l, &mut g, &mut r, new[0], new[1], new[2], mix);
            let want = allocating_rule([&mut wl, &mut wg, &mut wr], new, mix);
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "update norm, mix {mix}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "reference norm");
            assert_eq!(bits([&l, &g, &r]), bits([&wl, &wg, &wr]), "Σ, mix {mix}");
        }
    }

    /// A row holding the symmetric Gram matrix `gram` (full rows, leading
    /// block) and right-hand side `rhs`; absent pairs' entries zero.
    fn row(gram: &[&[f64]], rhs: &[f64]) -> MixRow {
        let mut row = [0.0; ROW_LEN];
        for (i, gram_row) in gram.iter().enumerate() {
            for (j, &g) in gram_row.iter().enumerate().skip(i) {
                row[gram_at(i, j)] = g;
            }
        }
        row[RHS_AT..RHS_AT + rhs.len()].copy_from_slice(rhs);
        row
    }

    /// `values` followed by zeros up to `DEPTH` entries.
    fn padded(values: &[f64]) -> [f64; DEPTH] {
        let mut out = [0.0; DEPTH];
        out[..values.len()].copy_from_slice(values);
        out
    }

    fn assert_close(got: [f64; DEPTH], want: &[f64]) {
        let want = padded(want);
        let off = got
            .iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max);
        assert!(off < 1e-15, "γ = {got:?}, want {want:?}");
    }

    #[test]
    fn coefficients_solve_the_normal_equations_and_refuse_a_deficient_gram_matrix() {
        // G = [[4, 2], [2, 3]], b = [2, 5]  →  γ = [−0.5, 2].
        let two = row(&[&[4.0, 2.0], &[2.0, 3.0]], &[2.0, 5.0]);
        assert_close(
            anderson_coefficients(&two, 2).expect("regular"),
            &[-0.5, 2.0],
        );
        // G = [[4, 2, 1], [2, 3, 0.5], [1, 0.5, 2]], b = G·[1, −1, 2].
        let three = row(
            &[&[4.0, 2.0, 1.0], &[2.0, 3.0, 0.5], &[1.0, 0.5, 2.0]],
            &[4.0, 0.0, 4.5],
        );
        let gamma = anderson_coefficients(&three, 3).expect("regular");
        assert_close(gamma, &[1.0, -1.0, 2.0]);
        // Fewer pairs than recorded: the older ones are not looked at.
        let gamma = anderson_coefficients(&row(&[&[4.0, 9.9], &[9.9, 0.0]], &[2.0, 9.9]), 1);
        assert_eq!(gamma, Some(padded(&[0.5])));
        assert_close(
            anderson_coefficients(&three, 2).expect("regular"),
            &[1.5, -1.0],
        );
        assert_eq!(
            anderson_coefficients(&[0.0; ROW_LEN], 0),
            Some([0.0; DEPTH])
        );
        // Parallel pairs (Δf_1 = 2·Δf_0), a vanished pair, a poisoned sum,
        // a third pair in the span of the first two (Δf_2 = Δf_0 + Δf_1):
        // no coefficients, the caller takes the damped step.
        for (deficient, pairs) in [
            (row(&[&[1.0, 2.0], &[2.0, 4.0]], &[1.0, 2.0]), 2),
            (row(&[&[0.0, 0.0], &[0.0, 1.0]], &[0.0, 1.0]), 2),
            (row(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]], &[1.0, 1.0]), 2),
            (
                row(
                    &[&[4.0, 2.0, 6.0], &[2.0, 3.0, 5.0], &[6.0, 5.0, 11.0]],
                    &[1.0, 2.0, 3.0],
                ),
                3,
            ),
        ] {
            assert_eq!(anderson_coefficients(&deficient, pairs), None);
        }
    }

    /// Iterate `g(x) = a ∘ x + b` (element-wise, `a` taking three values
    /// below one) from `x = 0` until the residual is below `tol`.
    fn iterations_on_a_linear_map(max_iterations: usize, tol: f64) -> (usize, usize) {
        let (nb, bs) = (3, 2);
        let b = [
            sample(nb, bs, 0.3),
            sample(nb, bs, 1.9),
            sample(nb, bs, 4.2),
        ];
        let image = |x: &BlockTridiagonal, b: &BlockTridiagonal| {
            let mut g = b.clone();
            for (g, x) in g.blocks_mut().zip(x.blocks()) {
                for (e, (g, x)) in g.as_mut_slice().iter_mut().zip(x.as_slice()).enumerate() {
                    *g += *x * [0.1, 0.5, 0.8][e % 3];
                }
            }
            g
        };
        let mut x = [(); 3].map(|()| BlockTridiagonal::zeros(nb, bs));
        let mut mixer = SigmaMixer::new(0.4, max_iterations, 1, nb, bs);
        for k in 1..=max_iterations {
            let g: Vec<_> = x.iter().zip(&b).map(|(x, b)| image(x, b)).collect();
            let g = [&g[0], &g[1], &g[2]];
            let row = mixer.contribute(0, [&x[0], &x[1], &x[2]], g);
            let residual = mixer.coefficients([row]);
            let [xl, xg, xr] = &mut x;
            mixer.apply(0, [xl, xg, xr], g);
            if residual < tol {
                return (k, mixer.restarts());
            }
        }
        (max_iterations + 1, mixer.restarts())
    }

    #[test]
    fn the_accelerated_rule_beats_plain_damping_on_a_contractive_linear_map() {
        // Plain damping contracts by 1 − 0.4·(1 − 0.8) = 0.92 per step on the
        // slowest third of the elements: 1e-10 is ≈ 280 steps away. Three
        // distinct rates are a three-dimensional Krylov space, which the
        // history's pairs exhaust in a few sweeps.
        let (iterations, restarts) = iterations_on_a_linear_map(60, 1e-10);
        assert!(iterations <= 20, "took {iterations} iterations");
        assert_eq!(restarts, 0, "a contractive linear map never restarts");
    }

    /// `[Σ^<, Σ^>, Σ^R]` as one vector, in the order the rings store it.
    fn flat(set: &[BlockTridiagonal; 3]) -> Vec<c64> {
        let blocks = set.iter().flat_map(|bt| bt.blocks());
        blocks.flat_map(|b| b.as_slice().iter().copied()).collect()
    }

    fn sub(a: &[c64], b: &[c64]) -> Vec<c64> {
        a.iter().zip(b).map(|(a, b)| a - b).collect()
    }

    fn norm_sq(a: &[c64]) -> f64 {
        a.iter().map(|v| v.norm_sqr()).sum()
    }

    fn real_dot(a: &[c64], b: &[c64]) -> f64 {
        a.iter().zip(b).map(|(a, b)| dot_re(*a, *b)).sum()
    }

    /// `G·γ = r` for a small dense `G`, by Gaussian elimination with
    /// partial pivoting.
    fn solve_dense(mut g: Vec<Vec<f64>>, mut r: Vec<f64>) -> Vec<f64> {
        let m = r.len();
        for c in 0..m {
            let p = (c..m)
                .max_by(|&i, &j| g[i][c].abs().total_cmp(&g[j][c].abs()))
                .expect("a non-empty column");
            g.swap(c, p);
            r.swap(c, p);
            for i in c + 1..m {
                let l = g[i][c] / g[c][c];
                for j in c..m {
                    g[i][j] -= l * g[c][j];
                }
                r[i] -= l * r[c];
            }
        }
        let mut gamma = vec![0.0; m];
        for i in (0..m).rev() {
            let above: f64 = (i + 1..m).map(|j| g[i][j] * gamma[j]).sum();
            gamma[i] = (r[i] - above) / g[i][i];
        }
        gamma
    }

    /// Drive a mixer over `g(x) = a ∘ x + b` (`a` the element's rate) for
    /// `mixes` mixes of a run of as many iterations, beside a dense record
    /// of every `x` and `g`. From that record alone the reference decides
    /// each mix's pairs — none at the first mix, after a mix that recorded
    /// nothing, or where the map did not contract along the last step or the
    /// residual grew — and the step: with pairs, `g_k − Σ_j γ_j·Δg_j` with
    /// `γ` the least-squares fit of `f_k` by the `Δf_j`, held to 1e-13
    /// relative; without, [`mix_sigma_energy`], held bit for bit. Returns
    /// the steps taken with history and the mixer's restarts.
    fn steps_against_a_dense_reference(rate: fn(usize) -> f64, mixes: usize) -> (usize, usize) {
        let (nb, bs, beta) = (3, 2, 0.4);
        let b = [
            sample(nb, bs, 0.3),
            sample(nb, bs, 1.9),
            sample(nb, bs, 4.2),
        ];
        let image = |x: &[BlockTridiagonal; 3]| {
            let mut g = b.clone();
            let mut e = 0;
            for (g, x) in g.iter_mut().zip(x) {
                for (g, x) in g.blocks_mut().zip(x.blocks()) {
                    for (g, x) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
                        *g += *x * rate(e);
                        e += 1;
                    }
                }
            }
            g
        };
        let lesser_len = flat(&b).len() / 3;
        let residual = |x: &[c64], g: &[c64]| {
            let (x, g) = (&x[..lesser_len], &g[..lesser_len]);
            (norm_sq(&sub(g, x)) / norm_sq(g)).sqrt()
        };

        let mut mixer = SigmaMixer::new(beta, mixes, 1, nb, bs);
        let mut x = [(); 3].map(|()| BlockTridiagonal::zeros(nb, bs));
        let (mut xs, mut gs) = (Vec::<Vec<c64>>::new(), Vec::<Vec<c64>>::new());
        let (mut pairs, mut last_residual, mut history_steps) = (0, f64::INFINITY, 0);
        for k in 1..=mixes {
            let g = image(&x);
            xs.push(flat(&x));
            gs.push(flat(&g));
            let (xk, gk) = (&xs[k - 1], &gs[k - 1]);
            let r = residual(xk, gk);
            pairs = if k == 1 || k + 1 > mixes {
                0
            } else {
                let step = sub(xk, &xs[k - 2]);
                let image_step = sub(gk, &gs[k - 2]);
                let contracted = norm_sq(&image_step) < norm_sq(&step) && r <= last_residual;
                if contracted {
                    (pairs + 1).min(DEPTH)
                } else {
                    0
                }
            };
            last_residual = r;

            let mut damped = x.clone();
            let [dl, dg, dr] = &mut damped;
            mix_sigma_energy(dl, dg, dr, &g[0], &g[1], &g[2], beta);
            let row = mixer.contribute(0, [&x[0], &x[1], &x[2]], [&g[0], &g[1], &g[2]]);
            mixer.coefficients([row]);
            let [xl, xg, xr] = &mut x;
            mixer.apply(0, [xl, xg, xr], [&g[0], &g[1], &g[2]]);
            let got = flat(&x);

            if pairs == 0 {
                let (got, want) = (bits([&x[0], &x[1], &x[2]]), bits([dl, dg, dr]));
                assert_eq!(got, want, "history-free mix {k} is the damped step");
                continue;
            }
            history_steps += 1;
            let fs: Vec<_> = gs.iter().zip(&xs).map(|(g, x)| sub(g, x)).collect();
            let by_age = |v: &[Vec<c64>], a: usize| sub(&v[k - 1 - a], &v[k - 2 - a]);
            let df: Vec<_> = (0..pairs).map(|a| by_age(&fs, a)).collect();
            let dg: Vec<_> = (0..pairs).map(|a| by_age(&gs, a)).collect();
            let gram = df
                .iter()
                .map(|i| df.iter().map(|j| real_dot(i, j)).collect());
            let rhs = df.iter().map(|d| real_dot(d, &fs[k - 1])).collect();
            let gamma = solve_dense(gram.collect(), rhs);
            let mut want = gk.clone();
            for (gamma, dg) in gamma.iter().zip(&dg) {
                for (w, d) in want.iter_mut().zip(dg) {
                    *w -= d * *gamma;
                }
            }
            let off = (norm_sq(&sub(&got, &want)) / norm_sq(&want)).sqrt();
            assert!(off <= 1e-13, "mix {k} with {pairs} pairs is {off:e} off");
        }
        (history_steps, mixer.restarts())
    }

    #[test]
    fn every_step_is_the_undamped_extrapolation_or_the_damped_step() {
        // Rates spread over [0.3, 0.9): no Krylov space of a few pairs
        // exhausts them, so the fit stays regular over eight mixes. Mix 1
        // has no history and mix 8 none either (mix 7 records no pair: no
        // G-step would see it); mixes 2 … 7 extrapolate.
        let contractive = |e: usize| 0.3 + 0.6 * (0.618_034 * e as f64).fract();
        assert_eq!(steps_against_a_dense_reference(contractive, 8), (6, 0));
        // A map that expands every step: every mix clears the history and
        // takes the damped step.
        let expansive = |e: usize| 1.5 + (0.618_034 * e as f64).fract();
        assert_eq!(steps_against_a_dense_reference(expansive, 6), (0, 4));
    }

    #[test]
    fn a_two_iteration_run_holds_no_history() {
        assert_eq!(SigmaMixer::new(0.4, 2, 5, 4, 3).ring_len(), 0);
        assert_eq!(SigmaMixer::new(0.4, 1, 5, 4, 3).ring_len(), 0);
        // `k + 2` iterations read `k` pairs, `DEPTH + 2` or more read DEPTH.
        let set_len = 3 * (4 + 2 * 3) * 9;
        for pairs in 1..=DEPTH {
            let ring = SigmaMixer::new(0.4, pairs + 2, 5, 4, 3).ring_len();
            assert_eq!(ring, 5 * 2 * pairs * set_len, "{} iterations", pairs + 2);
        }
        let full = 5 * 2 * DEPTH * set_len;
        assert_eq!(SigmaMixer::new(0.4, DEPTH + 3, 5, 4, 3).ring_len(), full);
        assert_eq!(SigmaMixer::new(0.4, 80, 5, 4, 3).ring_len(), full);
    }
}
