//! Dynamic OBC memoization (paper Section 5.3).
//!
//! Direct OBC solvers (Beyn, direct Lyapunov) are robust but expensive;
//! fixed-point iterations are cheap but only converge quickly from a good
//! initial guess. The paper observes that after a few SCBA iterations the OBC
//! blocks stop changing significantly, caches them, and switches dynamically
//! from the direct to the iterative method whenever the memoizer estimates
//! that a *fixed* number `N_FPI` of refinement iterations will reach
//! convergence (a fixed allotment avoids load imbalance across ranks).
//!
//! [`ObcMemoizer`] reproduces this decision logic in a solver-agnostic way:
//! the caller provides one step of the fixed-point map and a fallback direct
//! solver as closures, keyed by (contact, subsystem, energy index).

use std::collections::HashMap;

use quatrex_linalg::CMatrix;

/// Which contact of the two-terminal device the OBC belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Contact {
    /// Source / left lead.
    Left,
    /// Drain / right lead.
    Right,
}

/// Which interacting subsystem the OBC belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// Electrons (Green's functions `G`).
    Electron,
    /// Screened Coulomb interaction (`W`).
    ScreenedCoulomb,
}

/// Cache key: one OBC problem per (contact, subsystem, quantity, energy index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObcKey {
    /// Contact side.
    pub contact: Contact,
    /// Subsystem (G or W).
    pub subsystem: Subsystem,
    /// Retarded (`0`), lesser (`1`) or greater (`2`) component.
    pub component: u8,
    /// Index of the energy point.
    pub energy_index: usize,
}

/// How one memoized solve was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObcMode {
    /// No cached value (or estimate too pessimistic): the direct solver ran.
    Direct,
    /// The cached value was refined with at most `N_FPI` fixed-point steps.
    Memoized {
        /// Number of fixed-point refinements actually used.
        refinements: usize,
    },
}

/// Aggregate statistics of the memoizer over an SCBA run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoizerStats {
    /// Number of solves answered by the direct solver.
    pub direct_calls: usize,
    /// Number of solves answered from the cache + fixed-point refinement.
    pub memoized_calls: usize,
    /// Number of cache entries created cold by a solve (a direct solve for a
    /// key never seen before). Adopted entries ([`ObcMemoizer::insert_cached`])
    /// are not counted — they were created (and counted) in the run that
    /// captured them.
    pub inserts: usize,
}

impl MemoizerStats {
    /// Solves answered from the cache (alias of `memoized_calls`).
    pub fn hits(&self) -> usize {
        self.memoized_calls
    }

    /// Solves that fell through to the direct solver (alias of
    /// `direct_calls`): cold keys plus stale entries whose refinement budget
    /// could not reach tolerance.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> usize {
        self.direct_calls
    }

    /// Total solves answered.
    pub fn total(&self) -> usize {
        self.direct_calls + self.memoized_calls
    }
}

/// The dynamic OBC memoizer.
#[derive(Debug, Clone)]
pub struct ObcMemoizer {
    cache: HashMap<ObcKey, CMatrix>,
    /// Refinement buffers between solves (see [`Self::solve_into`]).
    spares: Vec<CMatrix>,
    /// Fixed number of fixed-point refinements allotted to a memoized solve.
    pub n_fpi: usize,
    /// Relative convergence tolerance of the refinement.
    pub tol: f64,
    stats: MemoizerStats,
}

impl ObcMemoizer {
    /// Create a memoizer with the given refinement budget and tolerance.
    ///
    /// The paper finds that the lesser/greater recursion stabilises within
    /// fewer than 10 iterations and the retarded one within ~20, so budgets of
    /// that order are appropriate.
    pub fn new(n_fpi: usize, tol: f64) -> Self {
        assert!(n_fpi >= 1);
        assert!(tol > 0.0);
        Self {
            cache: HashMap::new(),
            spares: Vec::new(),
            n_fpi,
            tol,
            stats: MemoizerStats::default(),
        }
    }

    /// Number of cached OBC blocks.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Aggregate hit/miss statistics.
    pub fn stats(&self) -> MemoizerStats {
        self.stats
    }

    /// Drop every cached block (e.g. when the bias point changes).
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Remove and return every cached block of one energy index, in
    /// deterministic (sorted-key) order — the OBC half of a captured warm
    /// state. Adopting the cache with the energy's Σ keeps the memoized
    /// refinement trajectory identical to a run that never stopped.
    pub fn extract_energy(&mut self, energy_index: usize) -> Vec<(ObcKey, CMatrix)> {
        let mut keys: Vec<ObcKey> = self
            .cache
            .keys()
            .filter(|k| k.energy_index == energy_index)
            .copied()
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                let v = self.cache.remove(&k).expect("key just listed");
                (k, v)
            })
            .collect()
    }

    /// Insert an externally produced cache entry (the adopting side of a
    /// warm start).
    pub fn insert_cached(&mut self, key: ObcKey, value: CMatrix) {
        self.cache.insert(key, value);
    }

    /// Solve one OBC problem.
    ///
    /// * `iterate` applies **one** step of the fixed-point map, writing
    ///   `F(x)` into the provided output buffer (so refinement steps recycle
    ///   two ping-pong buffers instead of allocating a matrix per step). A
    ///   step that cannot be taken (`F` undefined at `x`) writes NaN: a
    ///   non-finite change never compares below a tolerance, so the solve
    ///   falls back to `direct`;
    /// * `direct` produces the solution from scratch with the robust solver.
    ///
    /// If a cached solution exists, one trial refinement estimates the
    /// contraction rate; if the remaining budget of `n_fpi` steps is predicted
    /// to reach `tol`, the refinement continues and the result is returned as
    /// [`ObcMode::Memoized`]. Otherwise the direct solver is invoked. The cache
    /// is updated in both cases.
    pub fn solve(
        &mut self,
        key: ObcKey,
        iterate: impl FnMut(&CMatrix, &mut CMatrix),
        direct: impl FnOnce() -> CMatrix,
    ) -> (CMatrix, ObcMode) {
        let mut x = CMatrix::zeros(0, 0);
        let mode = self.solve_into(key, iterate, |out| *out = direct(), &mut x);
        (x, mode)
    }

    /// [`Self::solve`] writing the solution into `out` (reshaped as
    /// needed), `direct` writing into the buffer it is handed. The
    /// refinement buffers come from the memoizer's own spares, and a cached
    /// block goes back to them when a newer one replaces it: a memoized
    /// solve allocates nothing once the spares are warm.
    pub fn solve_into(
        &mut self,
        key: ObcKey,
        mut iterate: impl FnMut(&CMatrix, &mut CMatrix),
        direct: impl FnOnce(&mut CMatrix),
        out: &mut CMatrix,
    ) -> ObcMode {
        // `remove` instead of `get().cloned()`: the cached block becomes one
        // of the two refinement buffers, so a memoized solve copies nothing.
        let cached = self.cache.remove(&key);
        let had_cached = cached.is_some();
        if let Some(cached) = cached {
            // Trial refinement step.
            let mut x1 = self.spare(cached.nrows(), cached.ncols());
            iterate(&cached, &mut x1);
            let scale = x1.norm_fro().max(1e-300);
            let delta1 = x1.distance(&cached) / scale;
            if delta1 < self.tol {
                // Already converged: the cached value barely moved.
                self.spares.push(cached);
                return self.memoized(key, x1, out, 1);
            }
            // Second step to estimate the contraction rate.
            let mut x2 = cached;
            iterate(&x1, &mut x2);
            let delta2 = x2.distance(&x1) / x2.norm_fro().max(1e-300);
            let rate = if delta1 > 0.0 {
                (delta2 / delta1).min(1.0)
            } else {
                0.0
            };
            // Predicted residual after exhausting the remaining budget.
            let remaining = self.n_fpi.saturating_sub(2) as i32;
            let predicted = delta2 * rate.powi(remaining);
            let (mut x, mut x_next) = (x2, x1);
            if predicted < self.tol && rate < 1.0 {
                let mut used = 2;
                let mut delta = delta2;
                while used < self.n_fpi && delta >= self.tol {
                    iterate(&x, &mut x_next);
                    delta = x_next.distance(&x) / x_next.norm_fro().max(1e-300);
                    std::mem::swap(&mut x, &mut x_next);
                    used += 1;
                }
                if delta < self.tol {
                    self.spares.push(x_next);
                    return self.memoized(key, x, out, used);
                }
            }
            self.spares.extend([x, x_next]);
        }
        // Cold start or pessimistic estimate: run the direct solver.
        let mut x = self.spares.pop().unwrap_or_else(|| CMatrix::zeros(0, 0));
        quatrex_probe::span("obc.direct", "obc.direct", || direct(&mut x));
        out.fit(x.nrows(), x.ncols()).copy_from(&x);
        self.cache.insert(key, x);
        self.stats.direct_calls += 1;
        if !had_cached {
            self.stats.inserts += 1;
        }
        ObcMode::Direct
    }

    /// A spare `nrows × ncols` refinement buffer (contents unspecified).
    fn spare(&mut self, nrows: usize, ncols: usize) -> CMatrix {
        let mut x = self.spares.pop().unwrap_or_else(|| CMatrix::zeros(0, 0));
        x.fit(nrows, ncols);
        x
    }

    /// Book a memoized answer `x` after `refinements` steps: copy it out and
    /// cache it.
    fn memoized(
        &mut self,
        key: ObcKey,
        x: CMatrix,
        out: &mut CMatrix,
        refinements: usize,
    ) -> ObcMode {
        out.fit(x.nrows(), x.ncols()).copy_from(&x);
        self.cache.insert(key, x);
        self.stats.memoized_calls += 1;
        ObcMode::Memoized { refinements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;
    use quatrex_linalg::lu::inverse;
    use quatrex_linalg::ops::matmul;

    /// Fraction of solves that avoided the direct solver.
    fn hit_rate(stats: MemoizerStats) -> f64 {
        let total = stats.total();
        if total == 0 {
            0.0
        } else {
            stats.memoized_calls as f64 / total as f64
        }
    }

    /// Total number of complex values held across all cache entries.
    fn cached_values(memo: &ObcMemoizer) -> usize {
        memo.cache.values().map(|m| m.nrows() * m.ncols()).sum()
    }

    fn key(e: usize) -> ObcKey {
        ObcKey {
            contact: Contact::Left,
            subsystem: Subsystem::Electron,
            component: 0,
            energy_index: e,
        }
    }

    /// Simple contraction map x ↦ (m − n·x·n)⁻¹ with a known fixed point.
    fn contraction_problem() -> (CMatrix, CMatrix) {
        let m = CMatrix::from_fn(3, 3, |i, j| {
            if i == j {
                cplx(3.0, 0.5)
            } else {
                cplx(0.2, 0.0)
            }
        });
        let n = CMatrix::scaled_identity(3, cplx(0.4, 0.0));
        (m, n)
    }

    fn step(m: &CMatrix, n: &CMatrix, x: &CMatrix) -> CMatrix {
        inverse(&(m - &matmul(&matmul(n, x), n))).unwrap()
    }

    #[test]
    fn first_call_is_direct_then_memoized() {
        let (m, n) = contraction_problem();
        let mut memo = ObcMemoizer::new(10, 1e-10);
        let direct_solution = {
            // Converge the fixed point fully as the "direct" answer.
            let mut x = inverse(&m).unwrap();
            for _ in 0..200 {
                x = step(&m, &n, &x);
            }
            x
        };

        let (x1, mode1) = memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || direct_solution.clone(),
        );
        assert_eq!(mode1, ObcMode::Direct);
        let (x2, mode2) = memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || panic!("direct must not be called"),
        );
        assert!(matches!(mode2, ObcMode::Memoized { .. }));
        assert!(x2.approx_eq(&x1, 1e-8));
        assert_eq!(memo.stats().direct_calls, 1);
        assert_eq!(memo.stats().memoized_calls, 1);
        assert!(hit_rate(memo.stats()) > 0.49);
    }

    #[test]
    fn a_step_that_writes_nan_falls_back_to_the_direct_solver() {
        let (m, n) = contraction_problem();
        let mut memo = ObcMemoizer::new(10, 1e-10);
        let direct = || inverse(&m).unwrap();
        memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            direct,
        );
        let nan = |_: &CMatrix, out: &mut CMatrix| out.fill_with(|| cplx(f64::NAN, f64::NAN));
        let (x, mode) = memo.solve(key(0), nan, direct);
        assert_eq!(mode, ObcMode::Direct);
        assert_eq!(x, direct());
        assert_eq!((memo.stats().direct_calls, memo.stats().hits()), (2, 0));
    }

    #[test]
    fn different_keys_have_independent_caches() {
        let (m, n) = contraction_problem();
        let mut memo = ObcMemoizer::new(8, 1e-10);
        let direct = || inverse(&m).unwrap();
        memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            direct,
        );
        // A different energy index must trigger a direct solve again.
        let (_, mode) = memo.solve(
            key(1),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || inverse(&m).unwrap(),
        );
        assert_eq!(mode, ObcMode::Direct);
        assert_eq!(memo.cached_entries(), 2);
        assert!(cached_values(&memo) > 0);
    }

    #[test]
    fn stale_cache_falls_back_to_direct() {
        // If the problem changes so much that the cached value is useless and
        // the refinement budget cannot converge, the direct solver must run.
        let (m, n) = contraction_problem();
        let mut memo = ObcMemoizer::new(2, 1e-14);
        memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || inverse(&m).unwrap(),
        );
        // New, very different problem under the same key with a slowly
        // contracting map: budget of 2 refinements cannot reach 1e-14.
        let m2 = CMatrix::from_fn(3, 3, |i, j| {
            if i == j {
                cplx(1.2, 0.2)
            } else {
                cplx(0.4, -0.1)
            }
        });
        let n2 = CMatrix::scaled_identity(3, cplx(0.9, 0.0));
        let mut direct_called = false;
        let (_, mode) = memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m2, &n2, x),
            || {
                direct_called = true;
                inverse(&m2).unwrap()
            },
        );
        assert_eq!(mode, ObcMode::Direct);
        assert!(direct_called);
    }

    fn component_key(e: usize, component: u8) -> ObcKey {
        ObcKey {
            contact: Contact::Left,
            subsystem: Subsystem::Electron,
            component,
            energy_index: e,
        }
    }

    #[test]
    fn cache_migration_round_trips_between_memoizers() {
        // The warm-state capture moves an energy's cache entries into
        // another run's memoizer via extract_energy → insert_cached; the
        // entries, stats and the memoized refinement behaviour must survive
        // the trip.
        let (m, n) = contraction_problem();
        let mut source = ObcMemoizer::new(10, 1e-10);
        for e in [0usize, 1] {
            for component in 0..2u8 {
                source.solve(
                    component_key(e, component),
                    |x, out: &mut CMatrix| *out = step(&m, &n, x),
                    || inverse(&m).unwrap(),
                );
            }
        }
        assert_eq!(source.cached_entries(), 4);
        let stats_before = source.stats();

        let moved = source.extract_energy(0);
        assert_eq!(moved.len(), 2, "both components of energy 0 travel");
        assert!(
            moved.windows(2).all(|w| w[0].0 <= w[1].0),
            "extraction order is deterministic (sorted keys)"
        );
        assert!(moved.iter().all(|(k, _)| k.energy_index == 0));
        assert_eq!(source.cached_entries(), 2, "energy 1 stays behind");
        assert!(
            source.extract_energy(0).is_empty(),
            "a second extraction finds nothing"
        );
        assert_eq!(
            source.stats(),
            stats_before,
            "migration does not count as solves"
        );

        let mut destination = ObcMemoizer::new(10, 1e-10);
        for (key, value) in moved {
            destination.insert_cached(key, value);
        }
        assert_eq!(destination.cached_entries(), 2);
        assert_eq!(destination.stats(), MemoizerStats::default());
        assert!(cached_values(&destination) > 0);

        // The migrated cache answers without the direct solver and still
        // refines to tolerance.
        let (x, mode) = destination.solve(
            component_key(0, 0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || panic!("direct must not be called on a migrated cache"),
        );
        assert!(matches!(mode, ObcMode::Memoized { .. }));
        let fixed_point = step(&m, &n, &x);
        assert!(
            x.distance(&fixed_point) / fixed_point.norm_fro() < 1e-9,
            "migrated solve refined to the fixed point"
        );
        // The source still answers for the energy it kept.
        let (_, mode) = source.solve(
            component_key(1, 0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || panic!("direct must not be called for the kept energy"),
        );
        assert!(matches!(mode, ObcMode::Memoized { .. }));
    }

    #[test]
    fn extracting_a_missing_energy_is_a_no_op() {
        let mut memo = ObcMemoizer::new(4, 1e-8);
        assert!(memo.extract_energy(7).is_empty());
        assert_eq!(memo.cached_entries(), 0);
        assert_eq!(memo.stats(), MemoizerStats::default());
    }

    #[test]
    fn clear_empties_the_cache() {
        let (m, n) = contraction_problem();
        let mut memo = ObcMemoizer::new(8, 1e-10);
        memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || inverse(&m).unwrap(),
        );
        assert_eq!(memo.cached_entries(), 1);
        memo.clear();
        assert_eq!(memo.cached_entries(), 0);
    }

    #[test]
    fn hit_rate_of_empty_memoizer_is_zero() {
        let memo = ObcMemoizer::new(4, 1e-8);
        assert_eq!(hit_rate(memo.stats()), 0.0);
    }

    #[test]
    fn hit_miss_insert_counters_are_exposed() {
        let (m, n) = contraction_problem();
        let mut memo = ObcMemoizer::new(10, 1e-10);
        // Cold key: a miss that creates a cache entry.
        memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || inverse(&m).unwrap(),
        );
        assert_eq!(memo.stats().misses(), 1);
        assert_eq!(memo.stats().hits(), 0);
        assert_eq!(memo.stats().inserts, 1);
        // Warm key: a hit, no new entry.
        memo.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || panic!("direct must not be called"),
        );
        assert_eq!(memo.stats().hits(), 1);
        assert_eq!(memo.stats().inserts, 1);
        assert_eq!(memo.stats().total(), 2);
        // Stale entry under a hopeless budget: a miss, but the key already
        // existed, so no insert is counted.
        let mut memo2 = ObcMemoizer::new(2, 1e-14);
        memo2.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m, &n, x),
            || inverse(&m).unwrap(),
        );
        let m2 = CMatrix::from_fn(3, 3, |i, j| {
            if i == j {
                cplx(1.2, 0.2)
            } else {
                cplx(0.4, -0.1)
            }
        });
        let n2 = CMatrix::scaled_identity(3, cplx(0.9, 0.0));
        memo2.solve(
            key(0),
            |x, out: &mut CMatrix| *out = step(&m2, &n2, x),
            || inverse(&m2).unwrap(),
        );
        assert_eq!(memo2.stats().misses(), 2);
        assert_eq!(memo2.stats().inserts, 1, "stale re-solve is not an insert");
    }
}
