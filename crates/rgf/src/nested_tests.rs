//! Unit tests of [`crate::nested`]; [`crate::layout`]'s tests borrow the
//! system builders.

use super::*;
use crate::dense::{dense_block, dense_lesser, dense_retarded};
use crate::layout::layout_from_interiors;
use crate::sequential::rgf_selected_inverse;
use quatrex_linalg::cplx;
use quatrex_linalg::lu::inverse_flops;
use quatrex_linalg::ops::gemm_flops;

pub(crate) fn test_system(nb: usize, bs: usize) -> BlockTridiagonal {
    let mut a = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let d = CMatrix::from_fn(bs, bs, |r, c| {
            if r == c {
                cplx(2.6 + 0.05 * i as f64, 0.35)
            } else {
                cplx(-0.25 / (1.0 + (r as f64 - c as f64).abs()), 0.05)
            }
        });
        a.set_block(i, i, d);
    }
    for i in 0..nb - 1 {
        let u = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.45 + 0.02 * r as f64, 0.03 * c as f64)
        });
        let l = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.4 - 0.01 * c as f64, -0.02 * r as f64)
        });
        a.set_block(i, i + 1, u);
        a.set_block(i + 1, i, l);
    }
    a
}

/// An anti-Hermitian-structured RHS like the `Σ^≶` of the solver, plus a
/// second unstructured RHS to exercise full generality.
pub(crate) fn test_rhs(nb: usize, bs: usize, seed: f64) -> BlockTridiagonal {
    let mut b = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let raw = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(
                seed * (0.2 * (r + i) as f64 - 0.1 * c as f64),
                0.4 - 0.05 * (r + c) as f64 + 0.02 * seed,
            )
        });
        b.set_block(i, i, raw.negf_antihermitian_part());
    }
    for i in 0..nb - 1 {
        let bu = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(0.05 * (r as f64 - c as f64) * seed, 0.12 + 0.01 * i as f64)
        });
        b.set_block(i, i + 1, bu.clone());
        b.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
    }
    b
}

/// Maximum relative error over all selected blocks of `got` vs `want`.
pub(crate) fn max_rel_err(got: &BlockTridiagonal, want: &BlockTridiagonal) -> f64 {
    let scale = want.norm_fro().max(1e-300);
    let nb = want.n_blocks();
    let mut err = 0.0f64;
    for i in 0..nb {
        err = err.max(got.diag(i).distance(want.diag(i)) / scale);
        if i + 1 < nb {
            err = err.max(got.upper(i).distance(want.upper(i)) / scale);
            err = err.max(got.lower(i).distance(want.lower(i)) / scale);
        }
    }
    err
}

#[test]
fn matches_sequential_rgf_for_two_partitions() {
    let a = test_system(10, 3);
    let seq = rgf_selected_inverse(&a).unwrap();
    let (dist, report) = nested_dissection_invert(&a, &NestedConfig::new(2)).unwrap();
    for i in 0..10 {
        assert!(
            dist.diag(i).approx_eq(seq.retarded.diag(i), 1e-8),
            "diag {i} err {}",
            dist.diag(i).distance(seq.retarded.diag(i))
        );
    }
    for i in 0..9 {
        assert!(
            dist.upper(i).approx_eq(seq.retarded.upper(i), 1e-8),
            "upper {i}"
        );
        assert!(
            dist.lower(i).approx_eq(seq.retarded.lower(i), 1e-8),
            "lower {i}"
        );
    }
    assert_eq!(report.partitions.len(), 2);
    assert_eq!(report.reduced_system_blocks, 2);
}

#[test]
fn matches_sequential_rgf_for_four_partitions() {
    let a = test_system(16, 2);
    let seq = rgf_selected_inverse(&a).unwrap();
    let (dist, report) = nested_dissection_invert(&a, &NestedConfig::new(4)).unwrap();
    for i in 0..16 {
        assert!(
            dist.diag(i).approx_eq(seq.retarded.diag(i), 1e-8),
            "diag {i}"
        );
    }
    for i in 0..15 {
        assert!(
            dist.upper(i).approx_eq(seq.retarded.upper(i), 1e-8),
            "upper {i}"
        );
        assert!(
            dist.lower(i).approx_eq(seq.retarded.lower(i), 1e-8),
            "lower {i}"
        );
    }
    assert_eq!(report.partitions.len(), 4);
    // 2 separators per inner boundary: partitions 0|1|2|3 -> 6 separators.
    assert_eq!(report.reduced_system_blocks, 6);
}

#[test]
fn uneven_block_counts_are_handled() {
    let a = test_system(11, 2);
    let seq = rgf_selected_inverse(&a).unwrap();
    let (dist, _) = nested_dissection_invert(&a, &NestedConfig::new(3)).unwrap();
    for i in 0..11 {
        assert!(
            dist.diag(i).approx_eq(seq.retarded.diag(i), 1e-8),
            "diag {i}"
        );
    }
}

#[test]
fn boundary_partitions_do_less_work_than_middle_ones() {
    let a = test_system(24, 2);
    let (_, report) = nested_dissection_invert(&a, &NestedConfig::new(4)).unwrap();
    let ratio = report.boundary_to_middle_ratio().unwrap();
    assert!(ratio < 0.95, "boundary/middle ratio = {ratio}");
}

#[test]
fn boundary_to_middle_ratio_is_none_when_every_middle_partition_is_a_separator() {
    // The balanced layout of 10 blocks over four partitions leaves both
    // middle partitions pure separators: there is no middle work to divide by.
    let parts = crate::layout::partition_layout_balanced(10, 4, 2).unwrap();
    assert_eq!(parts, layout_from_interiors(&[2, 0, 0, 2]));
    let (a, b1, b2) = (
        test_system(10, 2),
        test_rhs(10, 2, 1.0),
        test_rhs(10, 2, -0.7),
    );
    let (_, report) = nested_dissection_solve_with_layout(&a, &[&b1, &b2], &parts).unwrap();
    assert_eq!(report.partitions[1].flops + report.partitions[2].flops, 0);
    assert_eq!(report.boundary_to_middle_ratio(), None);
}

#[test]
fn one_separator_partitions_cost_one_rgf_sweep() {
    // An end partition costs exactly the forward recursion over its
    // interior, the separator's step without the inversion, and the
    // backward recursion over its range — no fill-in. At P_S = 2 the
    // partitions plus the reduced system are then exactly one sequential
    // solve: 500 695 040 FLOPs at dist_spatial's shape (N_B = 16,
    // N_BS = 32, 2 RHS), where fill-in cost 741 343 232.
    for (nb, bs) in [(24usize, 2usize), (16, 32)] {
        let (g, inv) = (gemm_flops(bs, bs, bs), inverse_flops(bs));
        let a = test_system(nb, bs);
        let b = [test_rhs(nb, bs, 1.0), test_rhs(nb, bs, -0.7)];
        for n_rhs in [0u64, 2] {
            let rhs: Vec<&BlockTridiagonal> = b.iter().take(n_rhs as usize).collect();
            let seq = rgf_solve(&a, &rhs).unwrap();
            for p_s in [2usize, 4] {
                let parts = spatial_partition_layout(nb, p_s).unwrap();
                let (_, report) =
                    nested_dissection_solve(&a, &rhs, &NestedConfig::new(p_s)).unwrap();
                for p in [0, p_s - 1] {
                    let n = parts[p].interior().len() as u64;
                    let forward = n * inv + (n - 1) * (2 + 8 * n_rhs) * g + 2 * n_rhs * g;
                    let separator_step = (2 + 6 * n_rhs) * g;
                    let backward = n * (6 + 51 * n_rhs) * g;
                    let got = &report.partitions[p];
                    let label = format!("N_B = {nb}, P_S = {p_s}, n_rhs = {n_rhs}, part {p}");
                    assert_eq!(got.flops, forward + separator_step + backward, "{label}");
                }
                if p_s == 2 {
                    assert_eq!(
                        report.total_flops(),
                        seq.flops,
                        "N_B = {nb}, n_rhs = {n_rhs}"
                    );
                }
            }
        }
    }
}

/// A right-hand side whose off-diagonal blocks are unrelated to each other
/// (no `B_{i+1,i} = −B_{i,i+1}†` structure).
fn general_rhs(nb: usize, bs: usize, seed: f64) -> BlockTridiagonal {
    let mut b = test_rhs(nb, bs, seed);
    for i in 0..nb - 1 {
        let l = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(
                0.07 * seed * (r + 2 * c) as f64 - 0.1,
                0.05 * (i + r) as f64,
            )
        });
        b.set_block(i + 1, i, l);
    }
    b
}

#[test]
fn every_partition_gives_the_same_bits_in_any_batch_and_on_either_layout() {
    // Elimination plus recovery of a batch equals the same systems one at a
    // time, bit for bit, at both ends (the right one runs block-reversed)
    // and in the middle (two stopped sweeps, one closed solve). At N_BS = 8 a
    // batch of 5 runs on lanes on a 512-bit build and a batch of one on
    // planes.
    for (nb, bs, n_sys) in [(11usize, 2usize, 3usize), (9, 8, 5)] {
        let systems: Vec<[BlockTridiagonal; 3]> = (0..n_sys)
            .map(|e| {
                let mut a = test_system(nb, bs);
                a.scale_mut(cplx(1.0 + 0.1 * e as f64, 0.02));
                let seed = 1.0 + e as f64;
                [a, general_rhs(nb, bs, seed), general_rhs(nb, bs, -seed)]
            })
            .collect();
        let parts = spatial_partition_layout(nb, 3).unwrap();
        let separators = separator_blocks(&parts);
        // The reduced solutions, read off the dense solution.
        let seeds: Vec<SelectedSolution> = systems
            .iter()
            .map(|sys| {
                let x = [
                    dense_retarded(&sys[0]),
                    dense_lesser(&sys[0], &sys[1]),
                    dense_lesser(&sys[0], &sys[2]),
                ];
                let mut red = SelectedSolution::zeros(separators.len(), bs, 2);
                let reduced = std::iter::once(&mut red.retarded).chain(&mut red.lesser);
                for (m, xm) in reduced.zip(&x) {
                    for (k, &blk) in separators.iter().enumerate() {
                        for (l, &other) in separators.iter().enumerate() {
                            if k.abs_diff(l) <= 1 {
                                m.set_block(k, l, dense_block(xm, blk, other, bs));
                            }
                        }
                    }
                }
                red
            })
            .collect();
        for (idx, part) in parts.iter().enumerate() {
            let ranges: Vec<Vec<BlockTridiagonal>> = systems
                .iter()
                .map(|sys| partition_ranges(&refs(sys), part))
                .collect();
            let mut scratch = RgfBatchScratch::new();
            let states = eliminate_partition(&ranges, part, idx, &mut scratch).unwrap();
            let batch = recover_partition(part, &states, &seeds, &mut scratch);
            for e in 0..n_sys {
                let mut scratch = RgfBatchScratch::new();
                let range = std::slice::from_ref(&ranges[e]);
                let one = eliminate_partition(range, part, idx, &mut scratch).unwrap();
                assert_same_elimination(&states[e], &one[0]);
                let seed = std::slice::from_ref(&seeds[e]);
                let rec = recover_partition(part, &one, seed, &mut scratch).remove(0);
                let label = format!("N_BS = {bs}, partition {idx}, system {e}");
                assert_eq!(rec.flops, batch[e].flops, "{label}");
                assert!(
                    rec.retarded
                        .to_dense()
                        .approx_eq(&batch[e].retarded.to_dense(), 0.0),
                    "{label}: retarded"
                );
                for (x, y) in rec.lesser.iter().zip(&batch[e].lesser) {
                    assert!(x.to_dense().approx_eq(&y.to_dense(), 0.0), "{label}");
                }
            }
        }
    }
}

#[test]
fn distributed_work_exceeds_sequential_and_is_spread_over_partitions() {
    let a = test_system(24, 3);
    let seq = rgf_selected_inverse(&a).unwrap();
    let (_, report) = nested_dissection_invert(&a, &NestedConfig::new(4)).unwrap();
    // The decomposition adds workload (reduced system, second sweeps and
    // closed solves in the middle partitions), exactly
    // as the paper states ("the reduced system increases the total
    // computational workload").
    assert!(report.total_flops() > seq.flops);
    // The critical path (busiest partition + reduced system) is well below
    // the total distributed work: the partitions genuinely run concurrently.
    assert!(report.critical_path_flops() < report.total_flops());
    // Every partition carries a non-trivial share.
    for p in &report.partitions {
        assert!(p.flops > 0);
    }
    // Middle partitions carry more than an even share of the sequential work.
    let factor = report.middle_partition_factor(seq.flops).unwrap();
    assert!(
        factor > 1.0,
        "middle partitions carry more than an even share"
    );
}

#[test]
fn too_many_partitions_are_rejected() {
    let a = test_system(6, 2);
    assert!(nested_dissection_invert(&a, &NestedConfig::new(4)).is_err());
}

#[test]
fn solve_is_bit_identical_to_rgf_solve_at_one_partition() {
    let a = test_system(8, 2);
    let b = test_rhs(8, 2, 1.0);
    let seq = rgf_solve(&a, &[&b]).unwrap();
    let (sol, report) = nested_dissection_solve(&a, &[&b], &NestedConfig::new(1)).unwrap();
    assert!(sol
        .retarded
        .to_dense()
        .approx_eq(&seq.retarded.to_dense(), 0.0));
    assert!(sol.lesser[0]
        .to_dense()
        .approx_eq(&seq.lesser[0].to_dense(), 0.0));
    assert_eq!(sol.flops, seq.flops);
    assert_eq!(report.reduced_system_blocks, 0);
    assert_eq!(report.communicated_blocks, 0);
}

#[test]
fn solve_matches_rgf_solve_across_partition_counts() {
    // Anti-Hermitian-structured and general (non-Hermitian off-diagonal)
    // right-hand sides, 0 … 2 of them; uneven layouts (N_B = 13, 11) and
    // partitions whose interior is one block (the last of 11 / 4, both of
    // 4 / 2).
    let bs = 3;
    for (nb, p_counts) in [(13usize, &[2usize, 3, 4][..]), (11, &[2, 3, 4]), (4, &[2])] {
        let a = test_system(nb, bs);
        let structured = [test_rhs(nb, bs, 1.0), test_rhs(nb, bs, -0.7)];
        let general = [general_rhs(nb, bs, 1.0), general_rhs(nb, bs, -0.6)];
        for (b, n_rhs) in [&structured, &general]
            .into_iter()
            .flat_map(|b| (0..=2).map(move |n| (b, n)))
        {
            let rhs: Vec<&BlockTridiagonal> = b.iter().take(n_rhs).collect();
            let seq = rgf_solve(&a, &rhs).unwrap();
            for &p_s in p_counts {
                let (sol, report) =
                    nested_dissection_solve(&a, &rhs, &NestedConfig::new(p_s)).unwrap();
                let label = format!("N_B = {nb}, P_S = {p_s}, n_rhs = {n_rhs}");
                let err_r = max_rel_err(&sol.retarded, &seq.retarded);
                assert!(err_r < 1e-12, "{label}: retarded err {err_r:.2e}");
                for r in 0..n_rhs {
                    let err_l = max_rel_err(&sol.lesser[r], &seq.lesser[r]);
                    assert!(err_l < 1e-12, "{label}: lesser[{r}] err {err_l:.2e}");
                }
                assert_eq!(report.partitions.len(), p_s);
                assert_eq!(report.reduced_system_blocks, 2 * (p_s - 1));
                assert!(report.communicated_blocks > 0);
            }
        }
    }
}

#[test]
fn middle_partitions_match_rgf_solve_at_every_interior_length() {
    // Closed-range recovery against the sequential solve: middle interiors
    // of 1, 2 and 5 blocks at P_S = 3, 4, 5, with 0 … 2 right-hand sides,
    // the second one non-Hermitian.
    let bs = 3;
    for p_s in 3..=5 {
        for n in [1usize, 2, 5] {
            let interiors: Vec<usize> = std::iter::once(2)
                .chain(std::iter::repeat_n(n, p_s - 2))
                .chain(std::iter::once(3))
                .collect();
            let parts = layout_from_interiors(&interiors);
            let nb = parts[p_s - 1].hi + 1;
            let a = test_system(nb, bs);
            let b = [test_rhs(nb, bs, 1.0), general_rhs(nb, bs, -0.6)];
            for n_rhs in 0..=2 {
                let rhs: Vec<&BlockTridiagonal> = b.iter().take(n_rhs).collect();
                let seq = rgf_solve(&a, &rhs).unwrap();
                let (sol, _) = nested_dissection_solve_with_layout(&a, &rhs, &parts).unwrap();
                let label = format!("P_S = {p_s}, n = {n}, n_rhs = {n_rhs}");
                let err_r = max_rel_err(&sol.retarded, &seq.retarded);
                assert!(err_r < 1e-12, "{label}: retarded err {err_r:.2e}");
                for r in 0..n_rhs {
                    let err_l = max_rel_err(&sol.lesser[r], &seq.lesser[r]);
                    assert!(err_l < 1e-12, "{label}: lesser[{r}] err {err_l:.2e}");
                }
            }
        }
    }
}

#[test]
fn solve_handles_non_uniform_block_counts() {
    // 11 blocks over 3 partitions: sizes 4, 4, 3.
    let (nb, bs) = (11, 2);
    let a = test_system(nb, bs);
    let b = test_rhs(nb, bs, 0.6);
    let seq = rgf_solve(&a, &[&b]).unwrap();
    let (sol, _) = nested_dissection_solve(&a, &[&b], &NestedConfig::new(3)).unwrap();
    assert!(max_rel_err(&sol.retarded, &seq.retarded) < 1e-12);
    assert!(max_rel_err(&sol.lesser[0], &seq.lesser[0]) < 1e-12);
}

#[test]
fn solve_handles_empty_interior_partitions() {
    // 6 blocks over 3 partitions of 2 blocks each: the middle partition is
    // all separators (empty interior), the end partitions have one
    // interior block each.
    let (nb, bs) = (6, 2);
    let a = test_system(nb, bs);
    let b = test_rhs(nb, bs, 1.3);
    let parts = spatial_partition_layout(nb, 3).unwrap();
    assert_eq!(
        parts[1].interior().len(),
        0,
        "middle interior must be empty"
    );
    let seq = rgf_solve(&a, &[&b]).unwrap();
    let (sol, report) = nested_dissection_solve(&a, &[&b], &NestedConfig::new(3)).unwrap();
    assert!(max_rel_err(&sol.retarded, &seq.retarded) < 1e-12);
    assert!(max_rel_err(&sol.lesser[0], &seq.lesser[0]) < 1e-12);
    assert_eq!(report.partitions[1].flops, 0);
}

#[test]
fn solve_with_multiple_rhs_is_consistent_with_linearity() {
    let (nb, bs) = (12, 2);
    let a = test_system(nb, bs);
    let b = test_rhs(nb, bs, 1.0);
    let mut b2 = b.clone();
    b2.scale_mut(cplx(-0.5, 0.0));
    let (sol, _) = nested_dissection_solve(&a, &[&b, &b2], &NestedConfig::new(3)).unwrap();
    for i in 0..nb {
        let scaled = sol.lesser[0].diag(i).scaled(cplx(-0.5, 0.0));
        assert!(sol.lesser[1].diag(i).approx_eq(&scaled, 1e-10));
    }
}

/// `base` with blocks `part.lo..=part.hi` replaced by those of `donor`.
fn graft(
    base: &BlockTridiagonal,
    donor: &BlockTridiagonal,
    part: &SpatialPartition,
) -> BlockTridiagonal {
    let mut out = base.clone();
    out.write_range(part.lo, &donor.sub_range(part.lo..part.hi + 1));
    out
}

fn refs(system: &[BlockTridiagonal; 3]) -> Vec<&BlockTridiagonal> {
    system.iter().collect()
}

fn assert_same_elimination(x: &PartitionSolveState, y: &PartitionSolveState) {
    assert_eq!(x.workload, y.workload);
    assert_eq!(x.updates.len(), y.updates.len());
    for (u, v) in x.updates.iter().zip(&y.updates) {
        assert!(u.approx_eq(v, 0.0), "updates bit-identical");
    }
}

#[test]
fn a_partition_reads_only_its_block_range_whatever_the_batch() {
    // Cutting a range and eliminating it equals eliminating from the
    // full system: a second system that agrees with the first on blocks
    // lo..=hi only (everything else differs) yields the identical
    // elimination, and so does a batch of two against a batch of one.
    let (nb, bs) = (12, 2);
    let sys = [
        test_system(nb, bs),
        test_rhs(nb, bs, 1.0),
        test_rhs(nb, bs, -0.4),
    ];
    let mut other = [
        test_system(nb, bs),
        test_rhs(nb, bs, 2.2),
        test_rhs(nb, bs, 0.9),
    ];
    other[0].scale_mut(cplx(1.3, 0.1));
    let full_values: usize = sys.iter().map(BlockTridiagonal::nnz).sum();
    let parts = spatial_partition_layout(nb, 3).unwrap();
    for (idx, part) in parts.iter().enumerate() {
        let ranges = partition_ranges(&refs(&sys), part);
        assert_eq!(ranges.len(), 3);
        // The range is a strict subset of the full system payload.
        let values: usize = ranges.iter().map(BlockTridiagonal::nnz).sum();
        assert_eq!(values, 3 * (3 * (part.hi - part.lo + 1) - 2) * bs * bs);
        assert!(
            values < full_values / 2,
            "range {values} vs full {full_values}"
        );
        let grafted = [0, 1, 2].map(|m| graft(&other[m], &sys[m], part));
        let other_ranges = partition_ranges(&refs(&other), part);
        let mut scratch = RgfBatchScratch::new();
        let own =
            eliminate_partition(std::slice::from_ref(&ranges), part, idx, &mut scratch).unwrap();
        let batch = eliminate_partition(
            &[other_ranges, partition_ranges(&refs(&grafted), part)],
            part,
            idx,
            &mut scratch,
        )
        .unwrap();
        assert_eq!((own.len(), batch.len()), (1, 2));
        assert_same_elimination(&own[0], &batch[1]);
        assert!(!own[0].updates[0].approx_eq(&batch[0].updates[0], 1e-3));
        assert_eq!(own[0].updates.len(), 3 * part.n_separators().pow(2));
    }
}

#[test]
fn empty_interior_partitions_read_send_and_return_nothing() {
    let (nb, bs) = (6, 2);
    let a = test_system(nb, bs);
    let b = test_rhs(nb, bs, 1.3);
    let parts = spatial_partition_layout(nb, 3).unwrap();
    assert_eq!(parts[1].interior().len(), 0);
    assert!(parts[1].range().is_empty());
    let ranges = partition_ranges(&[&a, &b], &parts[1]);
    assert!(ranges.iter().all(|m| m.n_blocks() == 0 && m.nnz() == 0));
    let states = eliminate_partition(&[ranges], &parts[1], 1, &mut RgfBatchScratch::new()).unwrap();
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].workload.flops, 0);
    assert!(states[0].updates.is_empty());
    let reduced = [SelectedSolution::zeros(4, bs, 1)];
    let rec = recover_partition(&parts[1], &states, &reduced, &mut RgfBatchScratch::new());
    assert_eq!(
        (
            rec[0].retarded.n_blocks(),
            rec[0].lesser.len(),
            rec[0].flops
        ),
        (0, 1, 0)
    );
}

/// FLOPs of a middle partition with `n` interior blocks and `r` right-hand
/// sides, in units of `8·N_BS³`: two stopped forward sweeps, the first and
/// last rows of the interior inverse, the two cross entries, the closure
/// and one RGF solve of the closed `n + 2`-block range.
fn middle_partition_units(n: u64, r: u64) -> u64 {
    let stopped_sweep = n + (n - 1) * (2 + 8 * r) + 2 * r + (2 + 6 * r);
    let rows = 2 * 2 * (n - 1);
    let cross = 2 * (2 + r * (4 * n + 3));
    let closure = 8 + r * (8 + 2 * 2);
    let m = n + 2;
    let closed_solve = m + (m - 1) * (2 + 8 * r) + 2 * r + (m - 1) * (6 + 51 * r);
    2 * stopped_sweep + rows + cross + closure + closed_solve
}

#[test]
fn interior_is_factorised_once_per_partition() {
    // The FLOP pin of a middle partition (the name dates from the fill-in
    // design, which factorised the interior once). At dist_spatial's block
    // shape (N_B = 16, N_BS = 32, 2 RHS) over P_S = 4 the two-block
    // interiors cost 546 products or inversions of 8·N_BS³ FLOPs each
    // (185·n + 176 at two right-hand sides). The end partitions run the RGF
    // sweeps (pinned in `one_separator_partitions_cost_one_rgf_sweep`).
    let (nb, bs) = (16, 32);
    let a = test_system(nb, bs);
    let b1 = test_rhs(nb, bs, 1.0);
    let b2 = test_rhs(nb, bs, -0.7);
    let (_, report) = nested_dissection_solve(&a, &[&b1, &b2], &NestedConfig::new(4)).unwrap();
    let unit = 8 * (bs as u64).pow(3);
    assert_eq!((gemm_flops(bs, bs, bs), inverse_flops(bs)), (unit, unit));
    assert_eq!(middle_partition_units(2, 2), 546);
    for p in &report.partitions[1..3] {
        assert_eq!(p.flops, 546 * unit, "partition {}", p.partition);
        assert_eq!(p.flops, 143_130_624, "partition {}", p.partition);
    }
    for p in &report.partitions {
        assert_eq!(p.flops % unit, 0, "partition {} counter", p.partition);
    }
    assert_eq!(report.reduced_system_flops % unit, 0);
    // Every middle interior length and right-hand-side count.
    let (nb, bs) = (22, 2);
    let unit = 8 * (bs as u64).pow(3);
    let a = test_system(nb, bs);
    let b = [test_rhs(nb, bs, 1.0), general_rhs(nb, bs, -0.6)];
    for r in 0..=2 {
        let rhs: Vec<&BlockTridiagonal> = b.iter().take(r).collect();
        for interiors in [[3usize, 1, 5, 7], [6, 2, 4, 4]] {
            let parts = layout_from_interiors(&interiors);
            let (_, report) = nested_dissection_solve_with_layout(&a, &rhs, &parts).unwrap();
            for p in 1..3 {
                let want = middle_partition_units(interiors[p] as u64, r as u64) * unit;
                let label = format!("interiors {interiors:?}, n_rhs = {r}, part {p}");
                assert_eq!(report.partitions[p].flops, want, "{label}");
            }
        }
    }
}

#[test]
fn shape_mismatch_and_zero_partitions_are_rejected() {
    let a = test_system(8, 2);
    let b_wrong = test_rhs(9, 2, 1.0);
    assert!(nested_dissection_solve(&a, &[&b_wrong], &NestedConfig::new(2)).is_err());
    assert!(nested_dissection_solve(&a, &[], &NestedConfig::new(0)).is_err());
}
