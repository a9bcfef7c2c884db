//! Batch-size and layout independence of the RGF solver.
//!
//! The solver stages per-energy blocks into one batched operand per block
//! position and runs every block product as one batched call — on
//! energy-major planes (`gemm_batch`) or, for small blocks, one vector lane
//! per energy (`gemm_lanes`); energies are independent and every element goes
//! through the same operation sequence at any batch length and on either
//! layout. So a member's selected blocks must be **bit-for-bit** the same
//! whichever batch it is solved in — B ∈ {1, 2, 3, 5, all}, including ragged
//! tails where the energy count is not divisible by the batch size — and on
//! whichever layout, and its FLOP count must not depend on either. The
//! anchor to an independent implementation is `reference_equivalence.rs`.

use quatrex_linalg::cplx;
use quatrex_linalg::CMatrix;
use quatrex_rgf::{
    rgf_solve_batch_into, rgf_solve_batch_on, BlockLayout, RgfBatchScratch, RgfError,
    SelectedSolution,
};
use quatrex_sparse::BlockTridiagonal;

/// A well-conditioned per-energy system: E-dependent diagonal shift plus
/// energy-dependent couplings, with a lesser-like and a greater-like RHS.
fn energy_system(nb: usize, bs: usize, e: usize) -> (BlockTridiagonal, [BlockTridiagonal; 2]) {
    let ef = e as f64;
    let mut a = BlockTridiagonal::zeros(nb, bs);
    let mut bl = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let d = CMatrix::from_fn(bs, bs, |r, c| {
            if r == c {
                cplx(2.5 + 0.1 * i as f64 + 0.2 * ef, 0.3)
            } else {
                cplx(
                    -0.3 / (1.0 + (r as f64 - c as f64).abs()),
                    0.07 * (r as f64 - c as f64) + 0.01 * ef,
                )
            }
        });
        a.set_block(i, i, d);
        let braw = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(
                0.2 * (r + i) as f64 - 0.1 * c as f64 + 0.05 * ef,
                0.4 - 0.05 * (r + c) as f64,
            )
        });
        bl.set_block(i, i, braw.negf_antihermitian_part());
    }
    for i in 0..nb - 1 {
        let u = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.4 + 0.03 * r as f64, 0.05 * c as f64 + 0.02 * ef)
        });
        let l = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.35 - 0.02 * c as f64, -0.04 * r as f64 - 0.01 * ef)
        });
        a.set_block(i, i + 1, u);
        a.set_block(i + 1, i, l);
        let bu = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(0.05 * (r as f64 - c as f64), 0.12 + 0.03 * ef)
        });
        bl.set_block(i, i + 1, bu.clone());
        bl.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
    }
    let mut bg = bl.clone();
    bg.scale_mut(cplx(-0.8, 0.0));
    (a, [bl, bg])
}

/// Solve all `systems` in consecutive chunks of `batch` members (the tail
/// chunk is smaller) through one scratch.
fn solve_chunked(
    systems: &[(BlockTridiagonal, [BlockTridiagonal; 2])],
    batch: usize,
) -> Vec<SelectedSolution> {
    let (nb, bs) = (systems[0].0.n_blocks(), systems[0].0.block_size());
    let mut scratch = RgfBatchScratch::new();
    let mut sols = vec![SelectedSolution::zeros(nb, bs, 2); systems.len()];
    for (chunk, out) in systems.chunks(batch).zip(sols.chunks_mut(batch)) {
        let sys_refs: Vec<&BlockTridiagonal> = chunk.iter().map(|(a, _)| a).collect();
        let rhs_refs: Vec<[&BlockTridiagonal; 2]> =
            chunk.iter().map(|(_, rhs)| [&rhs[0], &rhs[1]]).collect();
        let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs_refs.iter().map(|r| r.as_slice()).collect();
        rgf_solve_batch_into(&sys_refs, &rhs_slices, out, &mut scratch).unwrap();
    }
    sols
}

fn assert_solutions_equal(got: &SelectedSolution, want: &SelectedSolution, tag: &str) {
    assert!(
        got.retarded
            .to_dense()
            .approx_eq(&want.retarded.to_dense(), 0.0),
        "{tag}: retarded blocks differ"
    );
    for (r, (gl, wl)) in got.lesser.iter().zip(want.lesser.iter()).enumerate() {
        assert!(
            gl.to_dense().approx_eq(&wl.to_dense(), 0.0),
            "{tag}: lesser[{r}] blocks differ"
        );
    }
    assert_eq!(got.flops, want.flops, "{tag}: FLOP accounting differs");
}

#[test]
fn solutions_are_bit_identical_for_every_batch_size() {
    let (nb, bs, ne) = (5, 4, 7);
    let systems: Vec<_> = (0..ne).map(|e| energy_system(nb, bs, e)).collect();
    let want = solve_chunked(&systems, 1);
    // 2, 3 and 5 leave ragged tails (7 = 2+2+2+1 = 3+3+1 = 5+2).
    for batch in [2usize, 3, 5, 7] {
        let got = solve_chunked(&systems, batch);
        for (e, (got, want)) in got.iter().zip(want.iter()).enumerate() {
            assert_solutions_equal(got, want, &format!("batch={batch} energy={e}"));
        }
    }
}

#[test]
fn flops_do_not_depend_on_the_batch_size() {
    let (nb, bs, ne) = (4, 3, 5);
    let systems: Vec<_> = (0..ne).map(|e| energy_system(nb, bs, e)).collect();
    let total =
        |batch: usize| -> u64 { solve_chunked(&systems, batch).iter().map(|s| s.flops).sum() };
    let one = total(1);
    assert!(one > 0);
    for batch in [3usize, 5] {
        assert_eq!(total(batch), one, "batch={batch}");
    }
}

#[test]
fn a_singular_batch_member_is_reported_with_its_energy_index() {
    let (nb, bs) = (3, 2);
    let mut systems: Vec<_> = (0..3).map(|e| energy_system(nb, bs, e)).collect();
    // Make energy 1 singular at block 1 and decouple it so the Schur
    // complement cannot repair it.
    systems[1].0.set_block(1, 1, CMatrix::zeros(bs, bs));
    systems[1].0.set_block(0, 1, CMatrix::zeros(bs, bs));
    systems[1].0.set_block(1, 0, CMatrix::zeros(bs, bs));
    let sys_refs: Vec<&BlockTridiagonal> = systems.iter().map(|(a, _)| a).collect();
    let rhs_refs: Vec<[&BlockTridiagonal; 2]> =
        systems.iter().map(|(_, rhs)| [&rhs[0], &rhs[1]]).collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs_refs.iter().map(|r| r.as_slice()).collect();
    let mut scratch = RgfBatchScratch::new();
    let mut sols = vec![SelectedSolution::zeros(nb, bs, 2); 3];
    let err = rgf_solve_batch_into(&sys_refs, &rhs_slices, &mut sols, &mut scratch).unwrap_err();
    assert_eq!(err.energy, 1);
    assert_eq!(err.error, RgfError::SingularBlock(1));
}

/// Every selected block of `sol` as raw bits, then its FLOP count.
fn bits(sol: &SelectedSolution) -> Vec<u64> {
    let blocks = std::iter::once(&sol.retarded).chain(&sol.lesser);
    let values = blocks.flat_map(|bt| bt.to_dense().as_slice().to_vec());
    let mut out: Vec<u64> = values
        .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
        .collect();
    out.push(sol.flops);
    out
}

/// Solve `systems` with their first `n_rhs` right-hand sides as one batch on
/// `layout`.
fn solve_on(
    layout: BlockLayout,
    systems: &[(BlockTridiagonal, [BlockTridiagonal; 2])],
    n_rhs: usize,
) -> Result<Vec<SelectedSolution>, quatrex_rgf::RgfBatchError> {
    let (nb, bs) = (systems[0].0.n_blocks(), systems[0].0.block_size());
    let sys_refs: Vec<&BlockTridiagonal> = systems.iter().map(|(a, _)| a).collect();
    let rhs_refs: Vec<Vec<&BlockTridiagonal>> = systems
        .iter()
        .map(|(_, rhs)| rhs[..n_rhs].iter().collect())
        .collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs_refs.iter().map(|r| r.as_slice()).collect();
    let mut sols = vec![SelectedSolution::zeros(nb, bs, n_rhs); systems.len()];
    let mut scratch = RgfBatchScratch::new();
    rgf_solve_batch_on(layout, &sys_refs, &rhs_slices, &mut sols, &mut scratch)?;
    Ok(sols)
}

#[test]
fn the_lane_layout_reproduces_the_planes_bit_for_bit() {
    // N_BS ∈ {4, 8, 12} (the lane size class), 1…9 energies (every fill of
    // one lane group, then a ragged second one), 16 and 17 (two full groups,
    // then a third with one live lane), and 0, 1 or 2 right-hand sides.
    let nb = 4;
    for bs in [4usize, 8, 12] {
        let systems: Vec<_> = (0..17).map(|e| energy_system(nb, bs, e)).collect();
        for batch in (1..=9).chain([16, 17]) {
            for n_rhs in 0..=2 {
                let chunk = &systems[..batch];
                let planes = solve_on(BlockLayout::Planes, chunk, n_rhs).unwrap();
                let lanes = solve_on(BlockLayout::Lanes, chunk, n_rhs).unwrap();
                for (e, (p, l)) in planes.iter().zip(&lanes).enumerate() {
                    assert!(
                        bits(p) == bits(l),
                        "N_BS={bs} B={batch} n_rhs={n_rhs} energy {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_singular_schur_block_in_a_later_lane_group_names_its_energy() {
    // Energy 11 is lane 3 of the second lane group; on both layouts the
    // failure is reported at its batch index and block.
    let (nb, bs) = (3, 4);
    let mut systems: Vec<_> = (0..16).map(|e| energy_system(nb, bs, e)).collect();
    systems[11].0.set_block(1, 1, CMatrix::zeros(bs, bs));
    systems[11].0.set_block(0, 1, CMatrix::zeros(bs, bs));
    systems[11].0.set_block(1, 0, CMatrix::zeros(bs, bs));
    for layout in [BlockLayout::Lanes, BlockLayout::Planes] {
        let err = solve_on(layout, &systems, 2).unwrap_err();
        assert_eq!(err.energy, 11, "{layout:?}");
        assert_eq!(err.error, RgfError::SingularBlock(1), "{layout:?}");
    }
}
