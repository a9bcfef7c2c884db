//! Equivalence of the GEMM-engine RGF solver against the frozen pre-engine
//! path (the `fixtures/reference.rs` fixture): every selected block agrees to ≤1e-13
//! relative error (the kernels accumulate in the same order, so in practice
//! the agreement is at the few-ulp level), and the `gemm_flops` accounting is
//! identical — for a single system (batch of one) and, directly, for every
//! member of a B = 4 batch.

use quatrex_linalg::cplx;
use quatrex_linalg::CMatrix;
use quatrex_rgf::{
    rgf_solve, rgf_solve_batch_into, BlockTridiagonal, RgfBatchScratch, SelectedSolution,
};

#[path = "fixtures/reference.rs"]
mod reference;

use reference::rgf_solve_reference;

fn test_system(nb: usize, bs: usize, seed: f64) -> (BlockTridiagonal, BlockTridiagonal) {
    let mut a = BlockTridiagonal::zeros(nb, bs);
    let mut b = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let d = CMatrix::from_fn(bs, bs, |r, c| {
            if r == c {
                cplx(2.5 + 0.1 * i as f64 + 0.05 * seed, 0.3)
            } else {
                cplx(
                    -0.3 / (1.0 + (r as f64 - c as f64).abs()),
                    0.07 * (r as f64 - c as f64),
                )
            }
        });
        a.set_block(i, i, d);
        let braw = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(
                seed * (0.2 * (r + i) as f64 - 0.1 * c as f64),
                0.4 - 0.05 * (r + c) as f64,
            )
        });
        b.set_block(i, i, braw.negf_antihermitian_part());
    }
    for i in 0..nb - 1 {
        let u = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.4 + 0.03 * r as f64, 0.05 * c as f64 + 0.01 * i as f64)
        });
        let l = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.35 - 0.02 * c as f64, -0.04 * r as f64)
        });
        a.set_block(i, i + 1, u);
        a.set_block(i + 1, i, l);
        let bu = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(0.05 * (r as f64 - c as f64) * seed, 0.12 + 0.01 * i as f64)
        });
        b.set_block(i, i + 1, bu.clone());
        b.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
    }
    (a, b)
}

fn max_rel_err(got: &BlockTridiagonal, want: &BlockTridiagonal) -> f64 {
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
fn refactored_solver_matches_the_pre_refactor_path() {
    for (nb, bs, seed) in [
        (1usize, 4usize, 1.0),
        (4, 2, 1.0),
        (6, 3, -0.7),
        (10, 5, 0.4),
    ] {
        let (a, b) = test_system(nb, bs, seed);
        let b2 = {
            let mut s = b.clone();
            s.scale_mut(cplx(-0.5, 0.2));
            s
        };
        let rhs = [&b, &b2];
        let old = rgf_solve_reference(&a, &rhs).unwrap();
        let new = rgf_solve(&a, &rhs).unwrap();
        let err_r = max_rel_err(&new.retarded, &old.retarded);
        assert!(err_r < 1e-13, "({nb},{bs}): retarded err {err_r:.2e}");
        for r in 0..rhs.len() {
            let err_l = max_rel_err(&new.lesser[r], &old.lesser[r]);
            assert!(err_l < 1e-13, "({nb},{bs}): lesser[{r}] err {err_l:.2e}");
        }
        // The multiply structure is unchanged, so the FLOP accounting is
        // identical — not merely close.
        assert_eq!(
            new.flops, old.flops,
            "({nb},{bs}): flops accounting drifted"
        );
    }
}

#[test]
fn selected_inverse_matches_the_pre_refactor_path() {
    let (a, _) = test_system(8, 4, 1.0);
    let old = rgf_solve_reference(&a, &[]).unwrap();
    let new = rgf_solve(&a, &[]).unwrap();
    assert!(max_rel_err(&new.retarded, &old.retarded) < 1e-13);
    assert_eq!(new.flops, old.flops);
}

#[test]
fn a_batch_of_four_matches_the_pre_refactor_path_member_by_member() {
    // The anchor must not pass through B = 1 only: solve four different
    // systems in one batch and pin each member against the reference.
    let (nb, bs) = (6, 3);
    let systems: Vec<_> = [1.0, -0.7, 0.4, 2.2]
        .iter()
        .map(|&seed| {
            let (a, b) = test_system(nb, bs, seed);
            let mut b2 = b.clone();
            b2.scale_mut(cplx(-0.5, 0.2));
            (a, [b, b2])
        })
        .collect();
    let sys_refs: Vec<&BlockTridiagonal> = systems.iter().map(|(a, _)| a).collect();
    let rhs_refs: Vec<[&BlockTridiagonal; 2]> =
        systems.iter().map(|(_, rhs)| [&rhs[0], &rhs[1]]).collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs_refs.iter().map(|r| r.as_slice()).collect();
    let mut batch = vec![SelectedSolution::default(); sys_refs.len()];
    let mut scratch = RgfBatchScratch::new();
    rgf_solve_batch_into(&sys_refs, &rhs_slices, &mut batch, &mut scratch).unwrap();
    assert_eq!(batch.len(), 4);
    for (e, (new, (a, rhs))) in batch.iter().zip(systems.iter()).enumerate() {
        let old = rgf_solve_reference(a, &[&rhs[0], &rhs[1]]).unwrap();
        let err_r = max_rel_err(&new.retarded, &old.retarded);
        assert!(err_r < 1e-13, "member {e}: retarded err {err_r:.2e}");
        for r in 0..2 {
            let err_l = max_rel_err(&new.lesser[r], &old.lesser[r]);
            assert!(err_l < 1e-13, "member {e}: lesser[{r}] err {err_l:.2e}");
        }
        assert_eq!(new.flops, old.flops, "member {e}: flops accounting drifted");
    }
}
