//! Unit tests of [`crate::nested`]; [`crate::layout`]'s tests borrow the
//! system builders.

use super::*;
use crate::dense::{dense_block, dense_retarded};
use crate::sequential::rgf_selected_inverse;
use quatrex_linalg::cplx;

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
    assert!(
        ratio > 0.4 && ratio < 0.95,
        "boundary/middle ratio = {ratio}"
    );
    // Every middle partition performs fill-in work.
    for p in &report.partitions[1..3] {
        assert!(p.fill_in_blocks > 0);
    }
}

#[test]
fn distributed_work_exceeds_sequential_and_is_spread_over_partitions() {
    let a = test_system(24, 3);
    let seq = rgf_selected_inverse(&a).unwrap();
    let (_, report) = nested_dissection_invert(&a, &NestedConfig::new(4)).unwrap();
    // The decomposition adds workload (reduced system + fill-in), exactly
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
        "middle partitions must carry fill-in overhead"
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
    let (nb, bs) = (13, 3);
    let a = test_system(nb, bs);
    let b1 = test_rhs(nb, bs, 1.0);
    let b2 = test_rhs(nb, bs, -0.7);
    let seq = rgf_solve(&a, &[&b1, &b2]).unwrap();
    for p_s in [2usize, 3, 4] {
        let (sol, report) =
            nested_dissection_solve(&a, &[&b1, &b2], &NestedConfig::new(p_s)).unwrap();
        let err_r = max_rel_err(&sol.retarded, &seq.retarded);
        assert!(err_r < 1e-12, "P_S={p_s}: retarded err {err_r:.2e}");
        for r in 0..2 {
            let err_l = max_rel_err(&sol.lesser[r], &seq.lesser[r]);
            assert!(err_l < 1e-12, "P_S={p_s}: lesser[{r}] err {err_l:.2e}");
        }
        assert_eq!(report.partitions.len(), p_s);
        assert_eq!(report.reduced_system_blocks, 2 * (p_s - 1));
        assert!(report.communicated_blocks > 0);
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

#[test]
fn the_one_factor_serves_every_plain_and_adjoint_column_solve() {
    // Non-Hermitian interiors (upper ≠ lower†), down to a single block:
    // every block column of A⁻¹ through the plain solve, every block row
    // through the adjoint solve, and a general column through both —
    // against the dense inverse, from ONE factorisation.
    for (nb, bs) in [(1usize, 3usize), (2, 2), (5, 3), (7, 2)] {
        let a = test_system(nb, bs);
        let inv = dense_retarded(&a);
        let factor = InteriorFactor::new(&a).unwrap();
        let gemm_c = gemm_flops(bs, bs, bs);
        assert_eq!(
            factor.flops,
            nb as u64 * inverse_flops(bs) + 2 * (nb as u64 - 1) * gemm_c
        );
        let general: Vec<CMatrix> = (0..nb)
            .map(|k| CMatrix::from_fn(bs, bs, |r, c| cplx(0.3 * (r + k) as f64, 0.7 - c as f64)))
            .collect();
        let mut flops = 0u64;
        let x = factor.solve(general.clone(), false, &mut flops);
        let w = factor.solve(general.clone(), true, &mut flops);
        assert_eq!(flops, 2 * (3 * nb as u64 - 2) * gemm_c);
        for k in 0..nb {
            let mut want_x = CMatrix::zeros(bs, bs);
            let mut want_w = CMatrix::zeros(bs, bs);
            for (j, c) in general.iter().enumerate() {
                want_x += &matmul(&dense_block(&inv, k, j, bs), c);
                want_w += &matmul(&dense_block(&inv, j, k, bs).dagger(), c);
            }
            assert!(x[k].approx_eq(&want_x, 1e-12), "({nb},{bs}) plain {k}");
            assert!(w[k].approx_eq(&want_w, 1e-12), "({nb},{bs}) adjoint {k}");
        }
        for j in 0..nb {
            let col = factor.solve(factor.unit_column(j), false, &mut flops);
            let row = factor.solve(factor.unit_column(j), true, &mut flops);
            for k in 0..nb {
                let want_col = dense_block(&inv, k, j, bs);
                let want_row = dense_block(&inv, j, k, bs);
                assert!(
                    col[k].approx_eq(&want_col, 1e-12),
                    "({nb},{bs}) col {j}/{k}"
                );
                assert!(
                    row[k].dagger().approx_eq(&want_row, 1e-12),
                    "({nb},{bs}) row {j}/{k}"
                );
            }
        }
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
    let reduced = SelectedSolution::zeros(4, bs, 1);
    let rec = recover_partition(&parts[1], &states[0], &reduced);
    assert_eq!(
        (rec.retarded.n_blocks(), rec.lesser.len(), rec.flops),
        (0, 1, 0)
    );
}

#[test]
fn interior_is_factorised_once_per_partition() {
    // The FLOP pin of the dist_spatial shape (N_B = 16, N_BS = 32,
    // P_S = 2, 2 RHS): 791 150 592 with one forward Schur sweep per
    // block-column solve (six per partition), minus the five sweeps per
    // partition the shared factor removes — each 7 inversions and 12
    // products of 8·N_BS³ FLOPs.
    let (nb, bs) = (16, 32);
    let a = test_system(nb, bs);
    let b1 = test_rhs(nb, bs, 1.0);
    let b2 = test_rhs(nb, bs, -0.7);
    let (_, report) = nested_dissection_solve(&a, &[&b1, &b2], &NestedConfig::new(2)).unwrap();
    let unit = 8 * (bs as u64).pow(3);
    assert_eq!((gemm_flops(bs, bs, bs), inverse_flops(bs)), (unit, unit));
    assert_eq!(report.total_flops(), 791_150_592 - 2 * 5 * (7 + 12) * unit);
    assert_eq!(report.total_flops(), 741_343_232);
    for p in &report.partitions {
        assert_eq!(p.flops % unit, 0, "partition {} counter", p.partition);
    }
    assert_eq!(report.reduced_system_flops % unit, 0);
}
#[test]
fn shape_mismatch_and_zero_partitions_are_rejected() {
    let a = test_system(8, 2);
    let b_wrong = test_rhs(9, 2, 1.0);
    assert!(nested_dissection_solve(&a, &[&b_wrong], &NestedConfig::new(2)).is_err());
    assert!(nested_dissection_solve(&a, &[], &NestedConfig::new(0)).is_err());
}
