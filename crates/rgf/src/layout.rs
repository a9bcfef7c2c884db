//! Partition layouts of the spatial domain decomposition (paper Section 5.4):
//! which blocks each of the `P_S` partitions owns, which of them are the
//! separators of the reduced boundary system, and how the interiors are sized:
//! [`partition_layout_balanced`] is an exact min–max search over the
//! elimination + recovery FLOPs of [`crate::nested`]'s partition kernels,
//! read off their own counters.
//!
//! Everything here depends on the problem *shape* only, so every rank of a
//! distributed driver derives the identical layout before the first system
//! is assembled.

use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;

use crate::nested::{nested_dissection_solve_with_layout, NestedReport};
use crate::sequential::RgfError;

/// One spatial partition of the block range: the owned block interval and the
/// separators it contributes to the reduced system.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPartition {
    /// First owned block (inclusive).
    pub lo: usize,
    /// Last owned block (inclusive).
    pub hi: usize,
    /// Separator on the left side (absent for the first partition).
    pub left_boundary: Option<usize>,
    /// Separator on the right side (absent for the last partition).
    pub right_boundary: Option<usize>,
}

impl SpatialPartition {
    /// The interior block range (owned blocks that are not separators).
    pub fn interior(&self) -> std::ops::Range<usize> {
        let start = if self.left_boundary.is_some() {
            self.lo + 1
        } else {
            self.lo
        };
        let end = if self.right_boundary.is_some() {
            self.hi
        } else {
            self.hi + 1
        };
        start..end
    }

    /// The block range the partition reads from a system and returns of its
    /// solution: `lo..=hi` (interior, separators and the couplings between
    /// them) — or nothing when the interior is empty, since a pure-separator
    /// partition has nothing to eliminate or recover.
    pub fn range(&self) -> std::ops::Range<usize> {
        if self.interior().is_empty() {
            self.lo..self.lo
        } else {
            self.lo..self.hi + 1
        }
    }

    /// Number of separators the partition contributes to the reduced system
    /// (one at the ends, two in the middle).
    pub fn n_separators(&self) -> usize {
        usize::from(self.left_boundary.is_some()) + usize::from(self.right_boundary.is_some())
    }
}

/// Split `n_blocks` into `n_partitions` contiguous spatial partitions with
/// their separators. Requires `n_partitions ≥ 2` and at least two blocks per
/// partition (a partition must be able to hold its separators; interiors may
/// be empty).
pub fn spatial_partition_layout(
    n_blocks: usize,
    n_partitions: usize,
) -> Result<Vec<SpatialPartition>, RgfError> {
    if n_partitions < 2 || n_blocks < 2 * n_partitions {
        return Err(RgfError::ShapeMismatch);
    }
    let base = n_blocks / n_partitions;
    let rem = n_blocks % n_partitions;
    let mut parts = Vec::with_capacity(n_partitions);
    let mut lo = 0usize;
    for p in 0..n_partitions {
        let len = base + usize::from(p < rem);
        let hi = lo + len - 1;
        parts.push(SpatialPartition {
            lo,
            hi,
            left_boundary: (p > 0).then_some(lo),
            right_boundary: (p + 1 < n_partitions).then_some(hi),
        });
        lo = hi + 1;
    }
    Ok(parts)
}

/// Validate that a partition layout is a contiguous cover of `0..n_blocks`
/// with consistent separator annotations and at least two blocks per
/// partition (the invariants [`spatial_partition_layout`] guarantees, so
/// externally supplied layouts — e.g. FLOP-balanced ones — are held to the
/// same contract).
pub(crate) fn validate_partition_layout(
    parts: &[SpatialPartition],
    n_blocks: usize,
) -> Result<(), RgfError> {
    if parts.len() < 2 {
        return Err(RgfError::ShapeMismatch);
    }
    let mut next = 0usize;
    for (p, part) in parts.iter().enumerate() {
        let ok = part.lo == next
            && part.hi > part.lo
            && part.left_boundary == (p > 0).then_some(part.lo)
            && part.right_boundary == (p + 1 < parts.len()).then_some(part.hi);
        if !ok {
            return Err(RgfError::ShapeMismatch);
        }
        next = part.hi + 1;
    }
    if next != n_blocks {
        return Err(RgfError::ShapeMismatch);
    }
    Ok(())
}

/// Split `n_blocks` into `n_partitions ≥ 2` contiguous partitions so the
/// busiest partition does the least elimination + recovery work of any
/// whole-block layout and, among the layouts that reach it, the least busy
/// partition does the most (paper Section 5.4's load balancing: no rank of a
/// spatial group idles on a short partition).
///
/// A partition's cost follows from its kind and its interior length `n`
/// alone: its FLOP counters are `a·n` for an end partition (one separator,
/// `n ≥ 1`) and `a·n + b` for a middle one (two separators) when `n ≥ 1`,
/// and 0 for a pure separator, each constant depending on the number of
/// right-hand sides `n_rhs`. The costs are read off the partitions' own
/// counters, measured on the three-partition layouts with interiors
/// `[1, 1, 1]` and `[2, 2, 2]` of a scalar-block system (`layout_flops`:
/// every counter is an exact multiple of `8·N_BS³`, so the units hold at any
/// block size). With `T = n_blocks − 2·(n_partitions − 1)` interior blocks:
///
/// 1. the cap is the smallest cost at which every partition's largest
///    interior within it covers `T` together;
/// 2. the floor is the largest cost under the cap at which every partition's
///    smallest interior reaching it still fits: within the partition's cap,
///    and within `T` together;
/// 3. every partition starts at its floor interior and the remaining blocks
///    go to the partitions in ascending order, each up to its cap interior.
///
/// At `n_partitions == 2` the ends' common cost cancels and this is
/// [`spatial_partition_layout`].
pub fn partition_layout_balanced(
    n_blocks: usize,
    n_partitions: usize,
    n_rhs: usize,
) -> Result<Vec<SpatialPartition>, RgfError> {
    spatial_partition_layout(n_blocks, n_partitions)?;
    // FLOPs of an end (`[0]`) and a middle (`[1]`) partition at interior
    // lengths 1 and 2, and at any length `n` of that kind.
    let probe = |n| {
        let report = layout_flops(&layout_from_interiors(&[n, n, n]), n_rhs)?;
        Ok::<_, RgfError>([0, 1].map(|p| report.partitions[p].flops))
    };
    let (one, two) = (probe(1)?, probe(2)?);
    let cost = |kind: usize, n: usize| match n {
        0 => 0,
        n => one[kind] + (n as u64 - 1) * (two[kind] - one[kind]),
    };
    let last = n_partitions - 1;
    let total = n_blocks - 2 * last;
    // The smallest and largest interior of partition `p` costing
    // `floor..=cap`; an end partition keeps an interior block.
    let span = |p: usize, floor: u64, cap: u64| {
        let middle = p != 0 && p != last;
        let fit: Vec<usize> = (usize::from(!middle)..=total)
            .filter(|&n| (floor..=cap).contains(&cost(middle.into(), n)))
            .collect();
        Some((*fit.first()?, *fit.last()?))
    };
    let spans = |floor, cap| {
        (0..n_partitions)
            .map(|p| span(p, floor, cap))
            .collect::<Option<Vec<_>>>()
    };
    let mut levels: Vec<u64> = (0..=total).flat_map(|n| [cost(0, n), cost(1, n)]).collect();
    levels.sort_unstable();
    levels.dedup();
    let covers = |s: &Vec<(usize, usize)>| s.iter().map(|s| s.1).sum::<usize>() >= total;
    let fits = |s: &Vec<(usize, usize)>| s.iter().map(|s| s.0).sum::<usize>() <= total;
    let cap = *levels
        .iter()
        .find(|&&cap| spans(0, cap).is_some_and(|s| covers(&s)))
        .expect("the costliest level fits every interior length");
    let floors = levels.iter().rev().filter(|&&floor| floor <= cap);
    let spans = floors
        .copied()
        .find_map(|floor| spans(floor, cap).filter(fits))
        .expect("the cheapest level fits every partition's shortest interior");
    let mut left = total - spans.iter().map(|s| s.0).sum::<usize>();
    let interiors: Vec<usize> = spans
        .iter()
        .map(|&(lo, hi)| {
            let grow = left.min(hi - lo);
            left -= grow;
            lo + grow
        })
        .collect();
    Ok(layout_from_interiors(&interiors))
}

/// The contiguous layout whose partition `p` has `interiors[p]` interior
/// blocks: blocks = interior + owned separators.
pub(crate) fn layout_from_interiors(interiors: &[usize]) -> Vec<SpatialPartition> {
    let last = interiors.len() - 1;
    let mut parts = Vec::with_capacity(interiors.len());
    let mut lo = 0usize;
    for (p, &n_int) in interiors.iter().enumerate() {
        let n_sep = usize::from(p > 0) + usize::from(p < last);
        let hi = lo + n_int + n_sep - 1;
        parts.push(SpatialPartition {
            lo,
            hi,
            left_boundary: (p > 0).then_some(lo),
            right_boundary: (p < last).then_some(hi),
        });
        lo = hi + 1;
    }
    parts
}

/// The per-partition FLOP report of a layout, measured by the single-process
/// driver on a synthetic well-conditioned system of scalar blocks. The
/// elimination and recovery counters depend only on the problem *shape*
/// (interior lengths, separator structure, number of right-hand sides), never
/// on the matrix values, and every one of them is an exact multiple of
/// `8·N_BS³` — so the counts at block size 1 are the counts of any block size
/// in that unit, and the probe costs a fraction of a millisecond, not a
/// full-size solve. A distributed driver derives the same balanced layout on every
/// rank deterministically before the first real system is assembled.
fn layout_flops(parts: &[SpatialPartition], n_rhs: usize) -> Result<NestedReport, RgfError> {
    let n_blocks = parts.last().map_or(0, |p| p.hi + 1);
    let (a, rhs) = synthetic_probe_system(n_blocks, n_rhs);
    let rhs: Vec<&BlockTridiagonal> = rhs.iter().collect();
    Ok(nested_dissection_solve_with_layout(&a, &rhs, parts)?.1)
}

/// A deterministic diagonally-dominant system of scalar blocks with
/// anti-Hermitian-structured right-hand sides, for the FLOP probe.
fn synthetic_probe_system(nb: usize, n_rhs: usize) -> (BlockTridiagonal, Vec<BlockTridiagonal>) {
    let scalar = |re: f64, im: f64| CMatrix::from_fn(1, 1, |_, _| c64::new(re, im));
    let mut a = BlockTridiagonal::zeros(nb, 1);
    for i in 0..nb {
        a.set_block(i, i, scalar(2.5 + 0.05 * i as f64, 0.4));
    }
    for i in 0..nb.saturating_sub(1) {
        a.set_block(i, i + 1, scalar(-0.4, 0.03));
        a.set_block(i + 1, i, scalar(-0.35, -0.02));
    }
    let rhs = (0..n_rhs)
        .map(|r| {
            let seed = 1.0 + 0.7 * r as f64;
            let mut b = BlockTridiagonal::zeros(nb, 1);
            for i in 0..nb {
                b.set_block(i, i, scalar(0.0, 0.3 + 0.1 * seed * i as f64));
            }
            for i in 0..nb.saturating_sub(1) {
                b.set_block(i, i + 1, scalar(0.04 * seed, 0.1));
                b.set_block(i + 1, i, scalar(-0.04 * seed, 0.1));
            }
            b
        })
        .collect();
    (a, rhs)
}

/// The separator blocks of a partition layout, in ascending block order —
/// the block pattern of the reduced boundary system.
pub fn separator_blocks(parts: &[SpatialPartition]) -> Vec<usize> {
    let mut separators: Vec<usize> = Vec::new();
    for p in parts {
        if let Some(lo) = p.left_boundary {
            separators.push(lo);
        }
        if let Some(hi) = p.right_boundary {
            separators.push(hi);
        }
    }
    separators.sort_unstable();
    separators.dedup();
    separators
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested::tests::{max_rel_err, test_rhs, test_system};
    use crate::nested::{nested_dissection_solve, NestedConfig};
    use crate::sequential::rgf_solve;

    /// Relative spread of the per-partition FLOPs: `(max − min) / max`.
    fn flop_spread(report: &NestedReport) -> f64 {
        let max = report.partitions.iter().map(|p| p.flops).max().unwrap() as f64;
        let min = report.partitions.iter().map(|p| p.flops).min().unwrap() as f64;
        (max - min) / max
    }

    /// The busiest partition's FLOPs and the spread of a layout, solved at
    /// block size 1 with `n_rhs ≤ 2` right-hand sides.
    fn layout_load(parts: &[SpatialPartition], n_rhs: usize) -> (u64, f64) {
        let n_blocks = parts.last().unwrap().hi + 1;
        let a = test_system(n_blocks, 1);
        let rhs = [1.0, -0.7].map(|seed| test_rhs(n_blocks, 1, seed));
        let rhs: Vec<&BlockTridiagonal> = rhs.iter().take(n_rhs).collect();
        let (_, report) = nested_dissection_solve_with_layout(&a, &rhs, parts).unwrap();
        let busiest = report.partitions.iter().map(|p| p.flops).max().unwrap();
        (busiest, flop_spread(&report))
    }

    /// [`layout_load`] of every layout of `n_blocks` over `n_partitions`
    /// partitions whose end partitions keep an interior block.
    fn every_layout(n_blocks: usize, n_partitions: usize, n_rhs: usize) -> Vec<(u64, f64)> {
        let total = n_blocks - 2 * (n_partitions - 1);
        let mut interiors = vec![Vec::new()];
        for p in 0..n_partitions {
            interiors = interiors
                .into_iter()
                .flat_map(|head: Vec<usize>| {
                    let left = total - head.iter().sum::<usize>();
                    let first = if p + 1 == n_partitions { left } else { 0 };
                    (first..=left).map(move |n| [head.as_slice(), &[n]].concat())
                })
                .collect();
        }
        interiors
            .iter()
            .filter(|n| n[0] > 0 && n[n_partitions - 1] > 0)
            .map(|n| layout_load(&layout_from_interiors(n), n_rhs))
            .collect()
    }

    /// [`every_layout`] of `n_blocks` over four partitions, for 2 right-hand
    /// sides.
    fn every_four_partition_layout(n_blocks: usize) -> Vec<(u64, f64)> {
        every_layout(n_blocks, 4, 2)
    }

    #[test]
    fn balanced_layout_equalises_partition_flops() {
        // Acceptance case: at P_S = 4 on a cell whose block count does not
        // divide evenly, the uniform layout leaves the partitions ≥ 40%
        // apart; the FLOP-balanced layout closes the gap to within 15% while
        // reproducing the sequential solution.
        let (nb, bs) = (22, 2);
        let a = test_system(nb, bs);
        let b1 = test_rhs(nb, bs, 1.0);
        let b2 = test_rhs(nb, bs, -0.7);
        let seq = rgf_solve(&a, &[&b1, &b2]).unwrap();
        let (_, uniform) = nested_dissection_solve(&a, &[&b1, &b2], &NestedConfig::new(4)).unwrap();
        let uniform_spread = flop_spread(&uniform);
        assert!(uniform_spread >= 0.40, "uniform spread {uniform_spread}");

        let parts = partition_layout_balanced(nb, 4, 2).unwrap();
        assert_ne!(parts, spatial_partition_layout(nb, 4).unwrap());
        let (sol, balanced) = nested_dissection_solve_with_layout(&a, &[&b1, &b2], &parts).unwrap();
        assert!(max_rel_err(&sol.retarded, &seq.retarded) < 1e-12);
        for r in 0..2 {
            assert!(max_rel_err(&sol.lesser[r], &seq.lesser[r]) < 1e-12);
        }
        let balanced_spread = flop_spread(&balanced);
        assert!(
            balanced_spread <= 0.15,
            "balanced spread {balanced_spread} (uniform was {uniform_spread})"
        );
    }

    #[test]
    fn balanced_layout_is_the_best_whole_block_layout() {
        // Of every layout of the 22-block cell over four partitions, the
        // FLOP-balanced one has the least busy busiest partition and the
        // smallest spread.
        let (nb, bs) = (22, 2);
        let a = test_system(nb, bs);
        let b1 = test_rhs(nb, bs, 1.0);
        let b2 = test_rhs(nb, bs, -0.7);
        let parts = partition_layout_balanced(nb, 4, 2).unwrap();
        let (_, balanced) = nested_dissection_solve_with_layout(&a, &[&b1, &b2], &parts).unwrap();
        let balanced_spread = flop_spread(&balanced);
        let busiest = balanced.partitions.iter().map(|p| p.flops).max().unwrap();
        let unit = 8 * (bs as u64).pow(3);
        for (other_busiest, other_spread) in every_four_partition_layout(nb) {
            assert!(busiest <= other_busiest * unit / 8, "busiest partition");
            assert!(
                balanced_spread <= other_spread + 1e-12,
                "balanced spread {balanced_spread} (another layout reaches {other_spread})"
            );
        }
    }

    #[test]
    fn balanced_layout_degenerates_to_uniform_at_two_partitions() {
        let parts = partition_layout_balanced(10, 2, 2).unwrap();
        assert_eq!(parts, spatial_partition_layout(10, 2).unwrap());
    }

    #[test]
    fn probe_flops_depend_only_on_the_problem_shape() {
        // The probe runs on a synthetic scalar-block system, yet its
        // per-partition FLOP counters — in units of 8·N_BS³ — match a real
        // solve of the same shape exactly at every block size: the counters
        // are structural, so the balanced layout they imply is too.
        for (nb, p_s) in [(16usize, 4usize), (22, 4), (24, 3), (16, 3)] {
            let probe = layout_flops(&spatial_partition_layout(nb, p_s).unwrap(), 2).unwrap();
            for bs in [1usize, 2, 8] {
                let unit = 8 * (bs as u64).pow(3);
                let a = test_system(nb, bs);
                let b1 = test_rhs(nb, bs, 0.9);
                let b2 = test_rhs(nb, bs, -1.1);
                let (_, real) =
                    nested_dissection_solve(&a, &[&b1, &b2], &NestedConfig::new(p_s)).unwrap();
                for (p, q) in probe.partitions.iter().zip(&real.partitions) {
                    assert_eq!(p.flops * unit, q.flops * 8, "({nb},{p_s}) at N_BS={bs}");
                    assert_eq!(p.blocks, q.blocks);
                }
                assert_eq!(
                    probe.reduced_system_flops * unit,
                    real.reduced_system_flops * 8
                );
            }
        }
    }

    #[test]
    fn balanced_layout_is_the_min_max_layout_at_every_shape() {
        // Against every whole-block layout (end interiors ≥ 1): the balanced
        // layout's busiest partition is the least busy one any layout
        // reaches, its spread the smallest among those that reach it, and at
        // two partitions it is the uniform split.
        for p_s in 2..=5usize {
            for nb in 2 * p_s..=24 {
                for n_rhs in 0..=2 {
                    let parts = partition_layout_balanced(nb, p_s, n_rhs).unwrap();
                    let (busiest, spread) = layout_load(&parts, n_rhs);
                    let others = every_layout(nb, p_s, n_rhs);
                    let best = others.iter().map(|o| o.0).min().unwrap();
                    let at_best = others.iter().filter(|o| o.0 == best);
                    let best_spread = at_best.map(|o| o.1).fold(f64::INFINITY, f64::min);
                    let case = format!("P_S = {p_s}, N_B = {nb}, {n_rhs} RHS");
                    assert_eq!(busiest, best, "{case}: busiest partition");
                    assert!(spread <= best_spread + 1e-12, "{case}: spread {spread}");
                    if p_s == 2 {
                        assert_eq!(parts, spatial_partition_layout(nb, 2).unwrap(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn with_layout_rejects_inconsistent_layouts() {
        let a = test_system(8, 2);
        let b = test_rhs(8, 2, 1.0);
        // Gap between partitions.
        let bad = vec![
            SpatialPartition {
                lo: 0,
                hi: 3,
                left_boundary: None,
                right_boundary: Some(3),
            },
            SpatialPartition {
                lo: 5,
                hi: 7,
                left_boundary: Some(5),
                right_boundary: None,
            },
        ];
        assert!(nested_dissection_solve_with_layout(&a, &[&b], &bad).is_err());
        // One-block partition.
        let bad = vec![
            SpatialPartition {
                lo: 0,
                hi: 0,
                left_boundary: None,
                right_boundary: Some(0),
            },
            SpatialPartition {
                lo: 1,
                hi: 7,
                left_boundary: Some(1),
                right_boundary: None,
            },
        ];
        assert!(nested_dissection_solve_with_layout(&a, &[&b], &bad).is_err());
        // Missing separator annotation.
        let bad = vec![
            SpatialPartition {
                lo: 0,
                hi: 3,
                left_boundary: None,
                right_boundary: None,
            },
            SpatialPartition {
                lo: 4,
                hi: 7,
                left_boundary: Some(4),
                right_boundary: None,
            },
        ];
        assert!(nested_dissection_solve_with_layout(&a, &[&b], &bad).is_err());
    }
}
