//! Work partitioning for the two-level decomposition.
//!
//! The paper spreads the `N_E` energy points across ranks (the first level of
//! the decomposition, Section 5.1); within an energy group the spatial
//! partitions form the second level ([`crate::dist::spatial`]). Every energy
//! performs the same per-kernel work in the workload model, so ownership is
//! one equal-count split — a pure function of the counts that never changes
//! during a run. The canonical elements and the energy batches of a rank are
//! cut the same way.

use std::ops::Range;

/// Split `0..n` into `n_parts` contiguous ranges whose sizes differ by at
/// most one: part `p` takes an even share of what is left for it and the
/// parts after it, `(n − start_p) / (n_parts − p)`, so the remainder lands on
/// the **last** parts (`10 / 4 → 2, 2, 3, 3`). Every index is covered exactly
/// once; all parts are non-empty when `n ≥ n_parts`, and the leading parts
/// are empty when there are more parts than items.
pub fn partition_even(n: usize, n_parts: usize) -> Vec<Range<usize>> {
    assert!(n_parts >= 1);
    let mut start = 0usize;
    (0..n_parts)
        .map(|p| {
            let end = start + (n - start) / (n_parts - p);
            std::mem::replace(&mut start, end)..end
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_once_with_sizes_within_one() {
        for n in 0..=64usize {
            for n_parts in 1..=17usize {
                let ranges = partition_even(n, n_parts);
                assert_eq!(ranges.len(), n_parts);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    next = r.end;
                }
                assert_eq!(next, n, "ranges must cover 0..{n}");
                let min = ranges.iter().map(|r| r.len()).min().expect("n_parts >= 1");
                let max = ranges.iter().map(|r| r.len()).max().expect("n_parts >= 1");
                assert!(max - min <= 1, "{n}/{n_parts}: {ranges:?}");
                assert!(n < n_parts || min >= 1, "{n}/{n_parts}: {ranges:?}");
            }
        }
        // The remainder goes to the last parts.
        assert_eq!(partition_even(10, 4), [0..2, 2..4, 4..7, 7..10]);
        let sizes =
            |n, parts| -> Vec<usize> { partition_even(n, parts).iter().map(|r| r.len()).collect() };
        assert_eq!(sizes(7, 4), [1, 2, 2, 2]);
        assert_eq!(sizes(2, 4), [0, 0, 1, 1]);
        assert_eq!(sizes(0, 3), [0, 0, 0]);
        assert_eq!(sizes(16, 8), [2; 8]);
    }
}
