//! Work partitioning for the two-level decomposition.
//!
//! The paper spreads the `N_E` energy points across ranks (the first level of
//! the decomposition, Section 5.1); within an energy group the spatial
//! partitions form the second level ([`crate::spatial`]). Energy points are
//! balanced by *cost weights* — uniform at the start of a run (every energy
//! performs the same per-kernel work in the workload model, so any model
//! weight reduces to the equal-count split), and the wall seconds measured in
//! the previous iteration when energy rebalancing is on.

use std::ops::Range;

/// Split `0..weights.len()` into `n_parts` contiguous ranges whose weight
/// sums are as balanced as a contiguous split allows. Each part's target is
/// an even share of the weight **remaining** for it and the parts after it,
/// and the greedy claim is capped at the first item that would cross that
/// target — so a part never overshoots its target by more than the one
/// (forced) item, and one dominant weight cannot drag every later boundary
/// along with it.
///
/// The cumulative-target variant this replaces starved the parts after a
/// dominant item: a huge `weights[0]` pushed the running prefix past every
/// later cumulative target, so the middle parts collapsed to the one-item
/// floor and the whole tail landed in the last range. With per-part adaptive
/// targets the remaining items are re-balanced over the remaining parts
/// instead.
///
/// Every index is covered exactly once; ranges may be empty when there are
/// more parts than items, and all parts are non-empty when `n ≥ n_parts`.
///
/// Degenerate weight vectors (all-zero, or containing NaN/∞ so the total is
/// not finite and positive) carry no balancing information; the split falls
/// back to the uniform equal-count partition instead of letting a zero target
/// hand almost every item to the first range.
pub fn partition_weighted(weights: &[f64], n_parts: usize) -> Vec<Range<usize>> {
    assert!(n_parts >= 1);
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    if !(total.is_finite() && total > 0.0) {
        return partition_uniform(n, n_parts);
    }
    // `total > 0` is guaranteed here, so the tolerance needs no `abs()`.
    let tol = 1e-12 * total;
    let mut ranges = Vec::with_capacity(n_parts);
    let mut start = 0usize;
    let mut remaining = total;
    for p in 0..n_parts {
        let parts_after = n_parts - p - 1;
        let target = remaining / (parts_after + 1) as f64;
        let mut end = start;
        let mut acc = 0.0f64;
        // Leave enough items for the remaining parts to be non-empty when
        // possible, claim at least one item if any are left, and stop at the
        // first item that would cross this part's target.
        let max_end = n - parts_after.min(n.saturating_sub(start));
        while end < max_end && (end == start || acc + weights[end] <= target + tol) {
            acc += weights[end];
            end += 1;
        }
        ranges.push(start..end);
        start = end;
        remaining = (remaining - acc).max(0.0);
    }
    // Any tail (possible only through rounding) goes to the last part.
    if start < n {
        let last = ranges.last_mut().expect("n_parts >= 1"); // lint:allow(no-unwrap): ranges is non-empty: n_parts >= 1 is asserted on entry
        *last = last.start..n;
    }
    ranges
}

/// Uniform equal-count contiguous split of `0..n` into `n_parts` ranges whose
/// sizes differ by at most one (the first `n % n_parts` ranges get the extra
/// item).
fn partition_uniform(n: usize, n_parts: usize) -> Vec<Range<usize>> {
    let base = n / n_parts;
    let rem = n % n_parts;
    let mut ranges = Vec::with_capacity(n_parts);
    let mut start = 0usize;
    for p in 0..n_parts {
        let len = base + usize::from(p < rem);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_covers(ranges: &[Range<usize>], n: usize) {
        let mut next = 0usize;
        for r in ranges {
            assert_eq!(r.start, next, "ranges must be contiguous");
            next = r.end;
        }
        assert_eq!(next, n, "ranges must cover 0..{n}");
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let w = vec![1.0; 16];
        for n_parts in [1usize, 2, 4, 8, 16] {
            let ranges = partition_weighted(&w, n_parts);
            assert_covers(&ranges, 16);
            for r in &ranges {
                assert_eq!(r.len(), 16 / n_parts);
            }
        }
    }

    #[test]
    fn uneven_counts_differ_by_at_most_one() {
        let w = vec![1.0; 10];
        let ranges = partition_weighted(&w, 3);
        assert_covers(&ranges, 10);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
    }

    #[test]
    fn skewed_weights_move_the_boundaries() {
        // First half of the grid is 9x more expensive: the first of two parts
        // must take far fewer items.
        let mut w = vec![9.0; 8];
        w.extend(vec![1.0; 8]);
        let ranges = partition_weighted(&w, 2);
        assert_covers(&ranges, 16);
        assert!(ranges[0].len() < ranges[1].len(), "{ranges:?}");
        let s0: f64 = w[ranges[0].clone()].iter().sum();
        let s1: f64 = w[ranges[1].clone()].iter().sum();
        assert!((s0 - s1).abs() <= 9.0, "loads {s0} vs {s1}");
    }

    #[test]
    fn more_parts_than_items_yields_empty_tails() {
        let w = vec![1.0; 3];
        let ranges = partition_weighted(&w, 5);
        assert_covers(&ranges, 3);
        assert_eq!(ranges.iter().filter(|r| !r.is_empty()).count(), 3);
    }

    #[test]
    fn degenerate_weights_fall_back_to_the_uniform_split() {
        // All-zero weights used to make the first range greedily claim
        // n - (n_parts - 1) items (target = 0); now they split evenly.
        for weights in [
            vec![0.0; 12],
            vec![f64::NAN; 12],
            vec![f64::INFINITY; 12],
            {
                let mut w = vec![1.0; 12];
                w[5] = f64::NAN;
                w
            },
        ] {
            let ranges = partition_weighted(&weights, 4);
            assert_covers(&ranges, 12);
            for r in &ranges {
                assert_eq!(
                    r.len(),
                    3,
                    "degenerate weights must split evenly: {ranges:?}"
                );
            }
        }
        // Uneven counts still differ by at most one.
        let ranges = partition_weighted(&[0.0; 10], 4);
        assert_covers(&ranges, 10);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn a_dominant_first_weight_no_longer_starves_the_middle_parts() {
        // weights[0] holds ~97% of the total. The old cumulative targets were
        // all below the prefix after item 0, so parts 1..n-1 collapsed to one
        // item each and the tail landed in the last part. Adaptive targets
        // re-balance the remaining 15 uniform items over the remaining parts.
        let mut w = vec![1.0f64; 16];
        w[0] = 500.0;
        let ranges = partition_weighted(&w, 4);
        assert_covers(&ranges, 16);
        assert_eq!(ranges[0], 0..1, "the dominant item is one part by itself");
        let tail_sizes: Vec<usize> = ranges[1..].iter().map(|r| r.len()).collect();
        assert_eq!(tail_sizes, vec![5, 5, 5], "{ranges:?}");
    }

    /// Deterministic xorshift PRNG (no rand crate in the offline build).
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn property_random_weights_cover_fill_and_never_overshoot() {
        // Property-style sweep (proptest is unavailable offline): random
        // weight vectors, including occasional dominant spikes and zeros.
        // Invariants: the ranges are contiguous and cover 0..n exactly; all
        // parts are non-empty when n >= n_parts; and no non-last part
        // overshoots its (adaptive) target by more than one item — dropping
        // the part's last item always brings it back to or below target.
        let mut rng = Rng(0x9e3779b97f4a7c15);
        for case in 0..500 {
            let n = 1 + (rng.next_f64() * 40.0) as usize;
            let n_parts = 1 + (rng.next_f64() * 8.0) as usize;
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    let r = rng.next_f64();
                    if r < 0.1 {
                        0.0
                    } else if r < 0.2 {
                        1e6 * rng.next_f64() // dominant spike
                    } else {
                        10.0 * rng.next_f64()
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let ranges = partition_weighted(&weights, n_parts);
            assert_eq!(ranges.len(), n_parts, "case {case}");
            assert_covers(&ranges, n);
            if n >= n_parts {
                assert!(
                    ranges.iter().all(|r| !r.is_empty()),
                    "case {case}: empty part with n={n} >= n_parts={n_parts}: {ranges:?}"
                );
            }
            if !(total.is_finite() && total > 0.0) {
                continue; // uniform fallback: no weight targets to check
            }
            // Re-derive each part's adaptive target and check the overshoot
            // bound for every non-last part.
            let tol = 1e-12 * total;
            let mut remaining = total;
            for (p, r) in ranges.iter().enumerate() {
                let parts_after = n_parts - p - 1;
                let target = remaining / (parts_after + 1) as f64;
                let sum: f64 = weights[r.clone()].iter().sum();
                if p + 1 < n_parts && r.len() > 1 {
                    let without_last: f64 = weights[r.start..r.end - 1].iter().sum();
                    assert!(
                        without_last <= target + tol,
                        "case {case} part {p}: sum-minus-last {without_last} \
                         overshoots target {target} by more than one item"
                    );
                }
                remaining = (remaining - sum).max(0.0);
            }
        }
    }
}
