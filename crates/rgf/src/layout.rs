//! Partition layouts of the spatial domain decomposition (paper Section 5.4):
//! which blocks each of the `P_S` partitions owns, which of them are the
//! separators of the reduced boundary system, and how the interiors are sized
//! so the per-partition FLOPs of [`crate::nested`]'s elimination + recovery
//! equalise.
//!
//! Everything here depends on the problem *shape* only, so every rank of a
//! distributed driver derives the identical layout before the first system
//! is assembled.

use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;

use crate::nested::{nested_dissection_solve, NestedConfig, NestedReport, PartitionWorkload};
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

/// Split `n_blocks` into `n_partitions` contiguous partitions whose interiors
/// are sized so the per-partition FLOPs of the elimination + recovery phases
/// equalise, using measured per-partition FLOP counters as the cost model
/// (paper Section 5.4's load balancing: boundary partitions own a single
/// separator and therefore do less work than a middle partition under the
/// uniform split — growing the end partitions restores balance). An end
/// partition runs the RGF sweeps over its range and builds no fill-in, so
/// per interior block it costs about a third of a middle partition (127
/// against ≈ 410 units of `8·N_BS³` at two right-hand sides): the end
/// partitions take most of the blocks, and with whole blocks the spread that
/// remains can be 20–35 % on a short device.
///
/// `report` must come from a solve of the same `n_blocks` over the same
/// `n_partitions` (typically the uniform [`spatial_partition_layout`], e.g.
/// via [`nested_dissection_solve`] or [`probe_partition_flops`]): the FLOPs
/// of each partition are divided by its interior length to obtain
/// per-interior-block rates for end (one separator) and middle (two
/// separators) partitions — both elimination and recovery cost are linear in
/// the interior length for a fixed separator count — and the interior sizes
/// are re-chosen so the predicted per-partition FLOPs equalise.
///
/// With `n_partitions == 2` (no middle partition) or a degenerate report the
/// uniform layout is returned unchanged.
pub fn partition_layout_balanced(
    n_blocks: usize,
    n_partitions: usize,
    report: &NestedReport,
) -> Result<Vec<SpatialPartition>, RgfError> {
    let uniform = spatial_partition_layout(n_blocks, n_partitions)?;
    if n_partitions == 2 || report.partitions.len() != n_partitions {
        return Ok(uniform);
    }
    // Per-interior-block FLOP rates of end and middle partitions. The
    // workload's `blocks` count includes the separators the partition owns
    // (one for ends, two for middles).
    let rate_of = |wl: &PartitionWorkload, n_sep: usize| {
        let n_int = wl.blocks.saturating_sub(n_sep);
        (n_int > 0).then(|| wl.flops as f64 / n_int as f64)
    };
    let last = n_partitions - 1;
    let ends: Vec<f64> = [0, last]
        .iter()
        .filter_map(|&p| rate_of(&report.partitions[p], 1))
        .collect();
    let mids: Vec<f64> = (1..last)
        .filter_map(|p| rate_of(&report.partitions[p], 2))
        .collect();
    if ends.is_empty() || mids.is_empty() {
        return Ok(uniform);
    }
    let k_end = ends.iter().sum::<f64>() / ends.len() as f64;
    let k_mid = mids.iter().sum::<f64>() / mids.len() as f64;
    if !(k_end > 0.0 && k_mid > 0.0 && k_mid.is_finite() && k_end.is_finite()) {
        return Ok(uniform);
    }
    // Equalise n_end·k_end = n_mid·k_mid subject to
    // 2·n_end + (P−2)·n_mid = interior_total.
    let interior_total = n_blocks - 2 * (n_partitions - 1);
    let r = k_mid / k_end;
    let n_mid_real = interior_total as f64 / (2.0 * r + (n_partitions - 2) as f64);
    let n_end_real = r * n_mid_real;
    // Largest-remainder rounding over [end, mid × (P−2), end].
    let targets: Vec<f64> = std::iter::once(n_end_real)
        .chain(std::iter::repeat_n(n_mid_real, n_partitions - 2))
        .chain(std::iter::once(n_end_real))
        .collect();
    let mut interiors: Vec<usize> = targets.iter().map(|t| t.floor() as usize).collect();
    let mut leftover = interior_total - interiors.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..n_partitions).collect();
    order.sort_by(|&i, &j| {
        let fi = targets[i] - targets[i].floor();
        let fj = targets[j] - targets[j].floor();
        fj.partial_cmp(&fi).unwrap_or(std::cmp::Ordering::Equal)
    });
    for &p in order.iter().cycle().take(n_partitions * 8) {
        if leftover == 0 {
            break;
        }
        interiors[p] += 1;
        leftover -= 1;
    }
    // End partitions must keep at least one interior block (they hold only
    // one separator, so a one-block end partition would violate the two-block
    // floor); steal from the largest partition when rounding emptied one.
    for p in [0, last] {
        if interiors[p] == 0 {
            let donor = (0..n_partitions)
                .max_by_key(|&q| interiors[q])
                .expect("non-empty layout");
            if interiors[donor] == 0 {
                return Ok(uniform);
            }
            interiors[donor] -= 1;
            interiors[p] += 1;
        }
    }
    let parts = layout_from_interiors(&interiors);
    validate_partition_layout(&parts, n_blocks)?;
    Ok(parts)
}

/// The contiguous layout whose partition `p` has `interiors[p]` interior
/// blocks: blocks = interior + owned separators.
fn layout_from_interiors(interiors: &[usize]) -> Vec<SpatialPartition> {
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

/// Per-partition FLOP report of the uniform layout, measured on a synthetic
/// well-conditioned system of the given shape at block size 1. The
/// elimination/recovery FLOP counters depend only on the problem *shape*
/// (block count, separator structure, number of right-hand sides), never on
/// the matrix values, and every one of them is an exact multiple of
/// `8·N_BS³` — so the counts at block size 1 are the counts of any block size
/// in that unit, the balanced layout they imply is the same, and the probe
/// costs microseconds instead of a full-size nested solve. A distributed
/// driver computes the same FLOP-balanced layout on every rank
/// deterministically before the first real system is assembled.
pub fn probe_partition_flops(
    n_blocks: usize,
    n_partitions: usize,
    n_rhs: usize,
) -> Result<NestedReport, RgfError> {
    let (a, rhs) = synthetic_probe_system(n_blocks, n_rhs);
    let rhs_refs: Vec<&BlockTridiagonal> = rhs.iter().collect();
    let (_, report) = nested_dissection_solve(&a, &rhs_refs, &NestedConfig::new(n_partitions))?;
    Ok(report)
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
    use crate::nested::nested_dissection_solve_with_layout;
    use crate::nested::tests::{max_rel_err, test_rhs, test_system};
    use crate::sequential::rgf_solve;

    /// Relative spread of the per-partition FLOPs: `(max − min) / max`.
    fn flop_spread(report: &NestedReport) -> f64 {
        let max = report.partitions.iter().map(|p| p.flops).max().unwrap() as f64;
        let min = report.partitions.iter().map(|p| p.flops).min().unwrap() as f64;
        (max - min) / max
    }

    /// The busiest partition's FLOPs and the spread of every layout of
    /// `n_blocks` over four partitions (end partitions keep an interior
    /// block), for 2 right-hand sides.
    fn every_four_partition_layout(n_blocks: usize) -> Vec<(u64, f64)> {
        let a = test_system(n_blocks, 1);
        let (b1, b2) = (test_rhs(n_blocks, 1, 1.0), test_rhs(n_blocks, 1, -0.7));
        let total = n_blocks - 6;
        let mut out = Vec::new();
        for first in 1..total {
            for second in 0..total - first {
                for third in 0..total - first - second {
                    let last = total - first - second - third;
                    let parts = layout_from_interiors(&[first, second, third, last]);
                    let (_, report) =
                        nested_dissection_solve_with_layout(&a, &[&b1, &b2], &parts).unwrap();
                    let busiest = report.partitions.iter().map(|p| p.flops).max().unwrap();
                    out.push((busiest, flop_spread(&report)));
                }
            }
        }
        out
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

        let parts = partition_layout_balanced(nb, 4, &uniform).unwrap();
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
        let (_, uniform) = nested_dissection_solve(&a, &[&b1, &b2], &NestedConfig::new(4)).unwrap();
        let parts = partition_layout_balanced(nb, 4, &uniform).unwrap();
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
        let report = probe_partition_flops(10, 2, 2).unwrap();
        let parts = partition_layout_balanced(10, 2, &report).unwrap();
        assert_eq!(parts, spatial_partition_layout(10, 2).unwrap());
    }

    #[test]
    fn probe_flops_depend_only_on_the_problem_shape() {
        // The probe runs on a synthetic scalar-block system, yet its
        // per-partition FLOP counters — in units of 8·N_BS³ — match a real
        // solve of the same shape exactly at every block size: the counters
        // are structural, so the balanced layout they imply is too.
        for (nb, p_s) in [(16usize, 4usize), (22, 4), (24, 3), (16, 3)] {
            let probe = probe_partition_flops(nb, p_s, 2).unwrap();
            let balanced = partition_layout_balanced(nb, p_s, &probe).unwrap();
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
                assert_eq!(
                    partition_layout_balanced(nb, p_s, &real).unwrap(),
                    balanced,
                    "({nb},{p_s}): layout from a real N_BS={bs} report"
                );
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
