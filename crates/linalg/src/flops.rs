//! FLOP accounting.
//!
//! The paper's workload columns (Tables 4–6) are produced by counting the FP64
//! operations of every kernel with rocprof / Nsight Compute. This module
//! provides the equivalent software counters: each kernel category of the
//! NEGF+scGW pipeline has a [`FlopKind`], and a [`FlopCounter`] accumulates the
//! real-FLOP totals per kind, which the solvers report and `bench_kernels`
//! writes beside each kernel's wall time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel categories matching the rows of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlopKind {
    /// Retarded open boundary conditions of the electron subsystem (`G: OBC`).
    GObc,
    /// Recursive Green's function solve of the electron subsystem (`G: RGF`).
    GRgf,
    /// Retarded open boundary conditions of the screened interaction, inside
    /// the W assembly (`W: OBC`): Sancho–Rubio or Beyn, whichever answers.
    WObc,
    /// Lyapunov lesser/greater OBC solver (`W: Assembly / Lyapunov`).
    WLyapunov,
    /// Assembly of the retarded LHS `I − V·P^R` (`W: Assembly / LHS`).
    WAssemblyLhs,
    /// Assembly of the lesser/greater RHS `V·P≶·V†` (`W: Assembly / RHS`).
    WAssemblyRhs,
    /// Recursive Green's function solve of the screened interaction (`W: RGF`).
    WRgf,
    /// Energy convolutions (FFT) producing `P` and `Σ`.
    Convolution,
    /// Everything else (element-wise assembly, observables, symmetrisation).
    Other,
}

impl FlopKind {
    /// All categories in the order used by the paper's tables.
    pub const ALL: [FlopKind; 9] = [
        FlopKind::GObc,
        FlopKind::GRgf,
        FlopKind::WObc,
        FlopKind::WLyapunov,
        FlopKind::WAssemblyLhs,
        FlopKind::WAssemblyRhs,
        FlopKind::WRgf,
        FlopKind::Convolution,
        FlopKind::Other,
    ];

    /// Human-readable label matching the paper's table rows.
    pub fn label(&self) -> &'static str {
        match self {
            FlopKind::GObc => "G: OBC",
            FlopKind::GRgf => "G: RGF",
            FlopKind::WObc => "W: OBC",
            FlopKind::WLyapunov => "W: Assembly (Lyapunov)",
            FlopKind::WAssemblyLhs => "W: Assembly (LHS)",
            FlopKind::WAssemblyRhs => "W: Assembly (RHS)",
            FlopKind::WRgf => "W: RGF",
            FlopKind::Convolution => "FFT convolution",
            FlopKind::Other => "Other",
        }
    }
}

/// Thread-safe accumulator of real-FLOP counts per kernel category.
#[derive(Debug, Default)]
pub struct FlopCounter {
    counts: [AtomicU64; 9],
}

impl FlopCounter {
    /// New counter with all categories at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(kind: FlopKind) -> usize {
        FlopKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind present in ALL")
    }

    /// Add `flops` real floating-point operations to `kind`.
    pub fn add(&self, kind: FlopKind, flops: u64) {
        self.counts[Self::slot(kind)].fetch_add(flops, Ordering::Relaxed);
    }

    /// Current total for one category.
    pub fn get(&self, kind: FlopKind) -> u64 {
        self.counts[Self::slot(kind)].load(Ordering::Relaxed)
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot as an ordered map keyed by category.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> std::collections::BTreeMap<FlopKind, u64> {
        FlopKind::ALL.iter().map(|&k| (k, self.get(k))).collect()
    }

    /// Reset every category to zero.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Merge the counts of another counter into this one.
    pub fn merge(&self, other: &FlopCounter) {
        for &k in FlopKind::ALL.iter() {
            self.add(k, other.get(k));
        }
    }
}

impl Clone for FlopCounter {
    fn clone(&self) -> Self {
        let new = FlopCounter::new();
        new.merge(self);
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_totals() {
        let c = FlopCounter::new();
        c.add(FlopKind::GRgf, 100);
        c.add(FlopKind::GRgf, 50);
        c.add(FlopKind::WObc, 7);
        assert_eq!(c.get(FlopKind::GRgf), 150);
        assert_eq!(c.get(FlopKind::WObc), 7);
        assert_eq!(c.total(), 157);
    }

    #[test]
    fn reset_clears_everything() {
        let c = FlopCounter::new();
        c.add(FlopKind::Other, 42);
        c.reset();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let a = FlopCounter::new();
        let b = FlopCounter::new();
        a.add(FlopKind::GObc, 10);
        b.add(FlopKind::GObc, 5);
        b.add(FlopKind::WRgf, 3);
        a.merge(&b);
        assert_eq!(a.get(FlopKind::GObc), 15);
        assert_eq!(a.get(FlopKind::WRgf), 3);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let c = FlopCounter::new();
        let snap = c.snapshot();
        assert_eq!(snap.len(), FlopKind::ALL.len());
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            FlopKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FlopKind::ALL.len());
    }
}
