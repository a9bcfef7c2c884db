//! `BENCH_kernels.json` generator: the workspace's one kernel harness.
//!
//! Every row is absolute — wall nanoseconds of one repetition (`ns`, median
//! of the runs) and, where the kernel has a FLOP model, the rate it ran at
//! (`gflops`, paper FLOP counting) — on transport-cell-sized blocks, the
//! unit the paper's Tables 4–6 report. `bench_gate` envelopes these numbers
//! per run mode (`BENCH_reference.json`); nothing is timed against another
//! implementation. The scalar `ops::reference` kernels and the per-energy
//! `gemm` appear only as untimed correctness oracles.
//!
//! * **lane_bits**, **fma_peak_gflops** — the roof the `gflops` rows are read
//!   against: the register width the dense kernels were compiled at and the
//!   rate of bare multiply-add chains on that lane type
//!   (`quatrex_linalg::ops::fma_chain`), best of the runs, one thread.
//! * **gemm_chain** — the RGF forward-step product pattern (Schur chain
//!   `(A_lo·g)·A_up` plus congruence `(g·B)·g†`, fused dagger, pre-allocated
//!   outputs) at `N_BS ∈ {32, 64, 128}`.
//! * **gemm_batch** — `C_e = V · B_e` over 8 energies with the
//!   energy-independent operand packed once ([`BatchOp::Shared`]), same
//!   sizes: the batch layer's shared-operand path, which no library code
//!   multiplies with today (the W assembly runs `BlockBanded::multiply` per
//!   energy; ROADMAP item 3 is to move it here).
//! * **small_blocks** — the size class of the RGF's two layouts at
//!   `N_BS ∈ {8, 12, 16}` × `B ∈ {1, 4, 6, 8}`: one product `C_e = A_e · B_e`
//!   on energy-major planes (`gemm_batch`, `plane_*`) and on the
//!   lane-interleaved layout (`gemm_lanes`, `lane_*`), and a full selected
//!   solve (`N_B = 16`, two right-hand sides) on each layout (`solve_planes_*`,
//!   `solve_lanes_*`), with the layout `rgf_solve_batch_into` picks there and
//!   `bits_equal` — 1 when both products and both solves agree in every bit,
//!   checked untimed (a number, so the gate can hold it at tolerance 0).
//! * **rgf_solve** — a full selected RGF solve (retarded + two quadratic
//!   right-hand sides) on a warm `RgfScratch`, `N_B = 8`, `N_BS ∈ {32, 64}`,
//!   then `N_B = 16`, `N_BS = 32`, each with the exact `flops` the solver
//!   counted — the `N_B` and `N_BS³` laws of Table 1.
//! * **nested_dissection** — untimed exact FLOP counts of the
//!   nested-dissection solve of a 24-block, `N_BS = 8` system (the bench
//!   cell's shape, lesser and greater right-hand sides) at `P_S ∈ {2, 4}` on
//!   the uniform layout and at `P_S = 4` on the FLOP-balanced one (the exact
//!   min–max search over the partition kernels' own costs): per partition,
//!   reduced system, and the sequential `rgf_solve` of the same system
//!   (Table 5).
//! * **lu_invert** — `LuScratch::invert_into` at
//!   `N_BS ∈ {8, 16, 32, 64, 128}` under the `inverse_flops` model.
//! * **svd** — the one-sided Jacobi `svd` of a dense `N × N` matrix at
//!   `N ∈ {32, 64}` (Beyn's rank-revealing step), and **beyn** — one
//!   contour-integral surface solve at `N_BS ∈ {32, 64}` (48 inversions, the
//!   SVD, the reduced eigenproblem): nanoseconds only.
//! * **fft_convolution** — nanoseconds of the convolution layer at
//!   `N_E ∈ {16, 64, 1024}`: one in-place `fft` of the padded length, one
//!   `convolve` of two `N_E`-point series, and one whole-grid call of each
//!   lane-group kernel on a full group of eight non-self-mirror pairs, per
//!   pair (`p_pair_ns`: 6 transforms, `sigma_pair_ns`: 12 per pair);
//!   `bits_equal` — 1 when the group kernels' outputs equal, in every bit,
//!   one pair call (`*_pair_accumulate`) per lane (checked untimed).
//! * **scba_iteration** — wall time (median of warm runs), FLOPs and OBC
//!   memoizer hit rate of a full SCBA run on the reduced NW-1 device, with
//!   its shape (`n_energies`, `n_b`, `n_bs`); **scba_iteration_memoizer_off**
//!   is the same run with the memoizer off (Table 4's memoizer column).
//!
//! Run with `cargo run --release -p quatrex-bench --bin bench_kernels`;
//! set `QUATREX_BENCH_QUICK=1` for the CI smoke mode (fewer repetitions,
//! same JSON shape). The file is written to the current directory.

use quatrex_bench::{bench_solver, chain_operand, quick_mode};
use quatrex_core::convolution::{
    polarization_group_accumulate, polarization_pair_accumulate, self_energy_group_accumulate,
    self_energy_pair_accumulate, StoredGroup,
};
use quatrex_core::element_major::{GroupInfo, GroupRowsMut, LanePlanes, LANES};
use quatrex_fft::{convolve, fft};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::interleaved::{gemm_lanes, LaneBatch};
use quatrex_linalg::lu::inverse_flops;
use quatrex_linalg::ops::reference::{congruence_ref, matmul_ref};
use quatrex_linalg::ops::{fma_chain, gemm, gemm_flops, matmul, Op, LANE_BITS};
use quatrex_linalg::{
    c64, cplx, gemm_batch, gemm_batch_flops, svd, BatchOp, CMatrix, LuScratch, MatrixBatch, OpKind,
    ONE, ZERO,
};
use quatrex_obc::{beyn, BeynConfig};
use quatrex_probe::clock::Instant;
use quatrex_probe::json::Json;
use quatrex_rgf::{
    nested_dissection_solve, nested_dissection_solve_with_layout, partition_layout_balanced,
    rgf_solve, rgf_solve_batch_on, rgf_solve_scratch, BlockLayout, BlockTridiagonal, NestedConfig,
    NestedReport, RgfBatchScratch, RgfScratch, SelectedSolution,
};

/// Median-of-runs wall time per repetition, in nanoseconds.
fn time_ns(runs: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches, arenas and the allocator
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// A time rounded to the tenth the timer resolves.
fn tenths(x: f64) -> Json {
    ((x * 10.0).round() / 10.0).into()
}

/// `flops` in `ns` as GFLOP/s (FLOP per nanosecond), two decimals.
fn gflops(flops: u64, ns: f64) -> Json {
    ((flops as f64 / ns * 100.0).round() / 100.0).into()
}

/// One kernel row: its size (and exact count) fields, then `ns` per
/// repetition and — where the kernel has a FLOP model — the rate `gflops`.
/// Echoed to stdout as it is built.
fn row(kernel: &str, sizes: &[(&'static str, usize)], ns: f64, flops: Option<u64>) -> Json {
    let mut fields: Vec<(&str, Json)> = sizes.iter().map(|&(k, v)| (k, v.into())).collect();
    fields.push(("ns", tenths(ns)));
    if let Some(flops) = flops {
        fields.push(("gflops", gflops(flops, ns)));
    }
    let row = Json::obj(fields);
    println!("{kernel:<12} {row}");
    row
}

/// GFLOP/s of bare multiply-add chains on the dense kernels' lane type: the
/// best of `runs` (a roof is the fastest the machine went, not its median).
fn bench_fma_peak(runs: usize, steps: u64) -> f64 {
    let rate = |_| {
        let t = Instant::now();
        let (flops, checksum) = fma_chain(steps);
        std::hint::black_box(checksum);
        flops as f64 / t.elapsed().as_nanos() as f64
    };
    (0..runs).map(rate).fold(0.0, f64::max)
}

/// The transport-cell GEMM chain of one RGF forward step: register-tiled
/// engine, fused dagger, pre-allocated outputs. Returns `(ns, flops)`.
fn bench_gemm_chain(n_bs: usize, runs: usize, reps: usize) -> (f64, u64) {
    let a_lo = chain_operand(n_bs, 0.3);
    let a_up = chain_operand(n_bs, 1.1);
    let g = chain_operand(n_bs, 2.3);
    let b = chain_operand(n_bs, 3.7);

    let [mut t, mut schur, mut inner] = [(); 3].map(|()| CMatrix::zeros(n_bs, n_bs));
    let ns = time_ns(runs, reps, || {
        gemm(&mut t, ONE, Op::None(&a_lo), Op::None(&g), ZERO);
        gemm(&mut schur, ONE, Op::None(&t), Op::None(&a_up), ZERO);
        gemm(&mut t, ONE, Op::None(&g), Op::None(&b), ZERO);
        gemm(&mut inner, ONE, Op::None(&t), Op::Dagger(&g), ZERO);
        std::hint::black_box((&schur, &inner));
    });

    // Untimed: what was measured agrees with the scalar reference kernels.
    let want = matmul_ref(&matmul_ref(&a_lo, &g), &a_up);
    assert!(schur.approx_eq(&want, 1e-10), "kernel mismatch at {n_bs}");
    let want = congruence_ref(&g, &b);
    assert!(
        inner.approx_eq(&want, 1e-10),
        "congruence mismatch at {n_bs}"
    );

    (ns, 4 * gemm_flops(n_bs, n_bs, n_bs))
}

/// The energy-batched product `C_e = V · B_e` over a block of energies, with
/// an energy-independent left operand: one `gemm_batch` call with
/// [`BatchOp::Shared`], which packs `V` once. Returns `(ns, flops)`.
fn bench_gemm_batch(n_bs: usize, n_e: usize, runs: usize, reps: usize) -> (f64, u64) {
    let shared = chain_operand(n_bs, 0.7);
    let mut b = MatrixBatch::zeros(n_e, n_bs, n_bs);
    for e in 0..n_e {
        b.plane_mut(e)
            .copy_from_slice(chain_operand(n_bs, 13.0 + e as f64).as_slice());
    }
    let mut c = MatrixBatch::zeros(n_e, n_bs, n_bs);
    let ns = time_ns(runs, reps, || {
        gemm_batch(
            &mut c,
            ONE,
            BatchOp::Shared(Op::None(&shared)),
            BatchOp::Each(OpKind::None, &b),
            ZERO,
        );
        std::hint::black_box(&c);
    });

    // Untimed: every batched plane is bit-identical to its per-energy `gemm`.
    let mut out = CMatrix::zeros(n_bs, n_bs);
    for e in 0..n_e {
        let plane = b.plane_matrix(e);
        gemm(&mut out, ONE, Op::None(&shared), Op::None(&plane), ZERO);
        assert_eq!(
            c.plane(e),
            out.as_slice(),
            "gemm_batch plane {e} mismatch at N_BS={n_bs}"
        );
    }

    (ns, gemm_batch_flops(n_e, n_bs, n_bs, n_bs))
}

/// Rows of raw bits of the elements of `x`.
fn bits(x: &[c64]) -> Vec<(u64, u64)> {
    x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
}

/// Every selected block of a solution, as raw bits.
fn solution_bits(sol: &SelectedSolution) -> Vec<(u64, u64)> {
    let blocks = std::iter::once(&sol.retarded).chain(&sol.lesser);
    blocks
        .flat_map(|bt| bits(bt.to_dense().as_slice()))
        .collect()
}

/// One `small_blocks` row: `C_e = A_e · B_e` over `batch` energies of
/// `n_bs × n_bs` blocks on planes and on lanes, then a full selected solve of
/// a 16-block system with two right-hand sides on each layout; the layout
/// `rgf_solve_batch_into` picks for the cell, and whether products and solves
/// of the two layouts agree in every bit (untimed).
fn small_blocks(n_bs: usize, batch: usize, runs: usize, reps: usize, solve_reps: usize) -> Json {
    let operand = |salt: f64| {
        let mut planes = MatrixBatch::zeros(batch, n_bs, n_bs);
        let mut lanes = LaneBatch::zeros(batch, n_bs, n_bs);
        for e in 0..batch {
            let m = chain_operand(n_bs, salt + e as f64);
            planes.copy_plane_from(e, &m);
            lanes.copy_plane_from(e, &m);
        }
        (planes, lanes)
    };
    let ((ap, al), (bp, bl)) = (operand(0.7), operand(13.0));
    let mut cp = MatrixBatch::zeros(batch, n_bs, n_bs);
    let mut cl = LaneBatch::zeros(batch, n_bs, n_bs);
    let (ea, eb) = (
        BatchOp::Each(OpKind::None, &ap),
        BatchOp::Each(OpKind::None, &bp),
    );
    let plane_ns = time_ns(runs, reps, || {
        gemm_batch(&mut cp, ONE, ea, eb, ZERO);
        std::hint::black_box(&cp);
    });
    let lane_ns = time_ns(runs, reps, || {
        gemm_lanes(&mut cl, ONE, (OpKind::None, &al), (OpKind::None, &bl), ZERO);
        std::hint::black_box(&cl);
    });
    let mut bits_equal =
        (0..batch).all(|e| bits(cl.plane_matrix(e).as_slice()) == bits(cp.plane(e)));

    let nb = 16;
    let systems: Vec<_> = (0..batch).map(|e| rgf_system(nb, n_bs, e as f64)).collect();
    let lhs: Vec<&BlockTridiagonal> = systems.iter().map(|(a, _, _)| a).collect();
    let rhs: Vec<[&BlockTridiagonal; 2]> = systems.iter().map(|(_, l, g)| [l, g]).collect();
    let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(|r| r.as_slice()).collect();
    let solve = |layout| {
        let mut sols = vec![SelectedSolution::zeros(nb, n_bs, 2); batch];
        let mut scratch = RgfBatchScratch::new();
        let ns = time_ns(runs, solve_reps, || {
            rgf_solve_batch_on(layout, &lhs, &rhs, &mut sols, &mut scratch)
                .expect("shifted system is regular");
            std::hint::black_box(&sols);
        });
        (ns, sols)
    };
    let (planes_ns, planes) = solve(BlockLayout::Planes);
    let (lanes_ns, lanes) = solve(BlockLayout::Lanes);
    bits_equal &= planes
        .iter()
        .zip(&lanes)
        .all(|(p, l)| solution_bits(p) == solution_bits(l));
    let layout = match BlockLayout::for_solve(n_bs, batch) {
        BlockLayout::Planes => "planes",
        BlockLayout::Lanes => "lanes",
    };

    let product_flops = gemm_batch_flops(batch, n_bs, n_bs, n_bs);
    let solve_flops = batch as u64 * planes[0].flops;
    let row = Json::obj([
        ("n_bs", n_bs.into()),
        ("batch", batch.into()),
        ("layout", layout.into()),
        ("plane_ns", tenths(plane_ns)),
        ("plane_gflops", gflops(product_flops, plane_ns)),
        ("lane_ns", tenths(lane_ns)),
        ("lane_gflops", gflops(product_flops, lane_ns)),
        ("solve_planes_ns", tenths(planes_ns)),
        ("solve_planes_gflops", gflops(solve_flops, planes_ns)),
        ("solve_lanes_ns", tenths(lanes_ns)),
        ("solve_lanes_gflops", gflops(solve_flops, lanes_ns)),
        ("bits_equal", usize::from(bits_equal).into()),
    ]);
    println!("{:<12} {row}", "small_blocks");
    row
}

/// A regular `nb`-block system and its lesser and greater right-hand sides,
/// the operand seeds shifted by `salt` (one value per energy of a batch).
fn rgf_system(
    nb: usize,
    bs: usize,
    salt: f64,
) -> (BlockTridiagonal, BlockTridiagonal, BlockTridiagonal) {
    let mut a = BlockTridiagonal::zeros(nb, bs);
    let mut bl = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let mut d = chain_operand(bs, salt + 0.2 + i as f64);
        for k in 0..bs {
            d[(k, k)] += cplx(4.0, 0.5);
        }
        a.set_block(i, i, d);
        bl.set_block(
            i,
            i,
            chain_operand(bs, salt + 5.0 + i as f64).negf_antihermitian_part(),
        );
    }
    for i in 0..nb - 1 {
        a.set_block(
            i,
            i + 1,
            chain_operand(bs, salt + 7.0 + i as f64).scaled(cplx(-0.3, 0.0)),
        );
        a.set_block(
            i + 1,
            i,
            chain_operand(bs, salt + 9.0 + i as f64).scaled(cplx(-0.3, 0.0)),
        );
        let bu = chain_operand(bs, salt + 11.0 + i as f64).scaled(cplx(0.1, 0.0));
        bl.set_block(i, i + 1, bu.clone());
        bl.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
    }
    let mut bg = bl.clone();
    bg.scale_mut(cplx(-0.8, 0.0));
    (a, bl, bg)
}

/// One selected solve on a warm scratch. Returns `(ns, flops)`, the FLOPs
/// as the solver counted them.
fn bench_rgf(nb: usize, bs: usize, runs: usize, reps: usize) -> (f64, u64) {
    let (a, bl, bg) = rgf_system(nb, bs, 0.0);
    let rhs = [&bl, &bg];
    let mut scratch = RgfScratch::new();
    let mut flops = 0;
    let ns = time_ns(runs, reps, || {
        let sol = rgf_solve_scratch(&a, &rhs, &mut scratch).unwrap();
        flops = sol.flops;
        std::hint::black_box(&sol);
    });
    (ns, flops)
}

/// Exact FLOP counts of the nested-dissection solve of a 24-block,
/// `N_BS = 8` system with two quadratic right-hand sides (the shape of the
/// bench cell's electron system): `(P_S, balanced, sequential rgf_solve
/// FLOPs, report)` at `P_S = 2` and `4` on the uniform layout, then at
/// `P_S = 4` on the FLOP-balanced layout: the one whose busiest partition
/// is the least busy of any whole-block layout, searched exactly over the
/// end and middle partitions' own FLOP counters
/// (`quatrex_rgf::partition_layout_balanced`). Untimed: every counter is a
/// function of the problem shape, never of the values.
fn nested_dissection() -> [(usize, bool, u64, NestedReport); 3] {
    let (a, bl, bg) = rgf_system(24, 8, 0.0);
    let rhs = [&bl, &bg];
    let seq = rgf_solve(&a, &rhs).expect("regular system").flops;
    let uniform = |p_s| {
        let config = NestedConfig::new(p_s);
        nested_dissection_solve(&a, &rhs, &config)
            .expect("regular system")
            .1
    };
    let four = uniform(4);
    let parts = partition_layout_balanced(24, 4, rhs.len()).expect("balanced layout");
    let (_, balanced) =
        nested_dissection_solve_with_layout(&a, &rhs, &parts).expect("regular system");
    [
        (2, false, seq, uniform(2)),
        (4, false, seq, four),
        (4, true, seq, balanced),
    ]
}

/// One LU inversion of a diagonally shifted (regular) block. Returns
/// `(ns, flops)` under the `inverse_flops` model.
fn bench_lu_invert(n_bs: usize, runs: usize, reps: usize) -> (f64, u64) {
    let mut a = chain_operand(n_bs, 4.1);
    for k in 0..n_bs {
        a[(k, k)] += cplx(4.0, 0.5);
    }
    let mut lu = LuScratch::new();
    let mut inv = CMatrix::zeros(n_bs, n_bs);
    let ns = time_ns(runs, reps, || {
        lu.invert_into(&a, &mut inv)
            .expect("shifted block is regular");
        std::hint::black_box(&inv);
    });
    let residual = &matmul(&a, &inv) - &CMatrix::identity(n_bs);
    assert!(residual.norm_max() < 1e-10, "inverse mismatch at {n_bs}");
    (ns, inverse_flops(n_bs))
}

/// One Jacobi SVD of a dense, full-rank block (Beyn's rank-revealing step):
/// entries in `[-1, 1)²` from a SplitMix64 scramble of the index —
/// `chain_operand`'s linear phases have rank ≤ 4 and converge in two sweeps.
fn bench_svd(n: usize, runs: usize, reps: usize) -> f64 {
    let unit = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let a = CMatrix::from_fn(n, n, |i, j| {
        let key = (((i as u64) << 20) | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cplx(unit(key), unit(!key))
    });
    let ns = time_ns(runs, reps, || {
        std::hint::black_box(svd(&a));
    });
    let dec = svd(&a);
    assert!(dec.reconstruct().approx_eq(&a, 1e-9), "svd mismatch at {n}");
    ns
}

/// One Beyn surface solve of a strongly evanescent lead (every Bloch factor
/// well inside the unit contour, the regime of the W boundary problem).
fn bench_beyn(n_bs: usize, runs: usize, reps: usize) -> f64 {
    let h0 = CMatrix::from_fn(n_bs, n_bs, |i, j| {
        if i == j {
            cplx(if i % 2 == 0 { 0.6 } else { -0.6 }, 0.0)
        } else {
            cplx(-0.2 / (1.0 + (i as f64 - j as f64).abs()), 0.0)
        }
    })
    .hermitian_part();
    let h1 = CMatrix::from_fn(n_bs, n_bs, |i, j| {
        cplx(-0.0875 * (-((i as f64 - j as f64).abs()) / 2.0).exp(), 0.0)
    });
    let m = &CMatrix::scaled_identity(n_bs, cplx(2.5, 1e-2)) - &h0;
    let (n, np) = (h1.scaled(-ONE), h1.dagger().scaled(-ONE));
    let config = BeynConfig::default();
    let ns = time_ns(runs, reps, || {
        std::hint::black_box(beyn(&m, &n, &np, &config).expect("evanescent lead"));
    });
    let residual = beyn(&m, &n, &np, &config)
        .expect("evanescent lead")
        .residual;
    assert!(residual < 1e-8, "beyn residual {residual:e} at {n_bs}");
    ns
}

/// `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]`, borrowed the way the pair kernels
/// take it.
fn borrowed(x: &[[Vec<c64>; 2]; 2]) -> [[&[c64]; 2]; 2] {
    x.each_ref().map(|side| side.each_ref().map(|v| &v[..]))
}

/// One full lane group of paired elements: per lane the series of a pair,
/// `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]`, and the same in lane planes.
struct PairGroup {
    pairs: Vec<[[Vec<c64>; 2]; 2]>,
    /// `planes[side][component]`.
    planes: [[LanePlanes; 2]; 2],
}

impl PairGroup {
    fn new(n_e: usize, seed: f64) -> Self {
        let series = |seed: f64| -> Vec<c64> {
            let at = |k: usize| seed + 0.37 * k as f64;
            (0..n_e).map(|k| cplx(at(k).sin(), at(k).cos())).collect()
        };
        let pairs: Vec<_> = (0..LANES)
            .map(|l| {
                let seed = seed + 0.11 * l as f64;
                [0.0, 1.0].map(|s| [0.3, 0.7].map(|c| series(seed + s + c)))
            })
            .collect();
        let planes = [0, 1].map(|side| {
            [0, 1].map(|c| {
                let lanes: Vec<_> = pairs.iter().map(|pair| &pair[side][c]).collect();
                LanePlanes::from_series(&lanes)
            })
        });
        Self { pairs, planes }
    }

    /// The group as the kernels' `[X^<, X^>]` operands.
    fn operands(&self) -> [StoredGroup<'_>; 2] {
        [0, 1].map(|c| StoredGroup {
            ij: self.planes[0][c].group(0),
            ji: self.planes[1][c].group(0),
        })
    }
}

/// `[[canonical; 2]; 2]` zeroed accumulators of one lane group.
fn group_out(n_e: usize) -> [[LanePlanes; 2]; 2] {
    [(); 2].map(|()| [(); 2].map(|()| LanePlanes::zeroed(LANES, n_e)))
}

/// The rows of group 0 of every accumulator.
fn rows(out: &mut [[LanePlanes; 2]; 2]) -> [[GroupRowsMut<'_>; 2]; 2] {
    out.each_mut()
        .map(|side| side.each_mut().map(|p| p.group_mut(0)))
}

/// The convolution layer on an `n_e`-point grid: the padded transform, the
/// public `convolve`, and one whole-grid call of each lane-group kernel on a
/// full group of eight non-self-mirror pairs, per pair:
/// `[fft_ns, convolve_ns, p_pair_ns, sigma_pair_ns]`, and whether the group
/// kernels' outputs equal, in every bit, those of one pair call per lane
/// (checked untimed).
fn bench_fft_convolution(n_e: usize, runs: usize, reps: usize) -> ([f64; 4], bool) {
    let (g, w) = (PairGroup::new(n_e, 0.4), PairGroup::new(n_e, 2.9));

    // Rescaled every pass so the repeated transform neither overflows nor
    // decays into subnormals.
    let padded = (2 * n_e - 1).next_power_of_two();
    let mut x: Vec<c64> = (0..padded).map(|k| cplx(1.0, k as f64 / 8.0)).collect();
    let shrink = cplx(1.0 / (padded as f64).sqrt(), 0.0);
    let fft_ns = time_ns(runs, reps, || {
        fft(&mut x);
        x.iter_mut().for_each(|v| *v *= shrink);
        std::hint::black_box(&x);
    });
    let convolve_ns = time_ns(runs, reps, || {
        std::hint::black_box(convolve(&g.pairs[0][0][0], &w.pairs[0][0][0]));
    });

    let flops = FlopCounter::new();
    let grid: Vec<usize> = (0..n_e).collect();
    let full = GroupInfo {
        live: LANES,
        paired: LANES,
        sign: [-1.0; LANES],
    };
    let polarization = |out: &mut [[LanePlanes; 2]; 2]| {
        polarization_group_accumulate(
            rows(out),
            g.operands(),
            0..n_e,
            &grid,
            false,
            0.05,
            &full,
            &flops,
        );
    };
    let self_energy = |out: &mut [[LanePlanes; 2]; 2]| {
        let (gs, ws) = (g.operands(), w.operands());
        self_energy_group_accumulate(rows(out), gs, ws, &grid, 0.05, &full, &flops);
    };
    let mut out = group_out(n_e);
    let per_pair = 1.0 / LANES as f64;
    let p_pair_ns = per_pair
        * time_ns(runs, reps.div_ceil(LANES), || {
            polarization(&mut out);
            std::hint::black_box(&out);
        });
    let sigma_pair_ns = per_pair
        * time_ns(runs, reps.div_ceil(LANES), || {
            self_energy(&mut out);
            std::hint::black_box(&out);
        });

    // Untimed: the group against one pair call per lane, from zero.
    let (mut p_group, mut s_group) = (group_out(n_e), group_out(n_e));
    polarization(&mut p_group);
    self_energy(&mut s_group);
    let bits_equal = (0..LANES).all(|l| {
        let mut p = [(); 2].map(|()| [(); 2].map(|()| vec![ZERO; n_e]));
        let mut s = p.clone();
        let [ij, ji] = &mut p;
        let (p_ij, p_ji) = (
            ij.each_mut().map(|v| &mut v[..]),
            ji.each_mut().map(|v| &mut v[..]),
        );
        let gl = borrowed(&g.pairs[l]);
        polarization_pair_accumulate(p_ij, Some(p_ji), gl, &grid, false, 0.05, &flops);
        let [ij, ji] = &mut s;
        let (s_ij, s_ji) = (
            ij.each_mut().map(|v| &mut v[..]),
            ji.each_mut().map(|v| &mut v[..]),
        );
        let wl = borrowed(&w.pairs[l]);
        self_energy_pair_accumulate(s_ij, Some(s_ji), gl, wl, &grid, 0.05, &flops);
        let bits = |x: &[c64]| {
            x.iter()
                .map(|v| (v.re.to_bits(), v.im.to_bits()))
                .collect::<Vec<_>>()
        };
        [(&p_group, &p), (&s_group, &s)]
            .iter()
            .all(|(group, pair)| {
                (0..2).all(|side| {
                    (0..2).all(|c| bits(&group[side][c].series(l)) == bits(&pair[side][c]))
                })
            })
    });
    ([fft_ns, convolve_ns, p_pair_ns, sigma_pair_ns], bits_equal)
}

fn main() {
    let quick = quick_mode();
    let runs = if quick { 3 } else { 7 };
    // Repetitions scaled so each block size measures comparable wall time.
    let cubic_reps = |n_bs: usize| {
        let base = (256 / n_bs).pow(3).max(1);
        if quick {
            base.div_ceil(8)
        } else {
            base
        }
    };

    let fma_peak = bench_fma_peak(runs, if quick { 1 << 20 } else { 1 << 23 });
    println!("fma_peak     {fma_peak:.2} GFLOP/s at {LANE_BITS}-bit lanes");

    let chain_rows = [32usize, 64, 128].map(|n_bs| {
        let (ns, flops) = bench_gemm_chain(n_bs, runs, cubic_reps(n_bs));
        row("gemm_chain", &[("n_bs", n_bs)], ns, Some(flops))
    });

    let batch = 8usize;
    let batch_rows = [32usize, 64, 128].map(|n_bs| {
        let (ns, flops) = bench_gemm_batch(n_bs, batch, runs, cubic_reps(n_bs));
        row(
            "gemm_batch",
            &[("n_bs", n_bs), ("batch", batch)],
            ns,
            Some(flops),
        )
    });

    let small_rows: Vec<Json> = [8usize, 12, 16]
        .iter()
        .flat_map(|&n_bs| [1usize, 4, 6, 8].map(|batch| (n_bs, batch)))
        .map(|(n_bs, batch)| {
            let solve_reps = if quick { 1 } else { 3 };
            small_blocks(n_bs, batch, runs, cubic_reps(n_bs), solve_reps)
        })
        .collect();

    let rgf_rows = [(8usize, 32usize, 6), (8, 64, 2), (16, 32, 3)].map(|(nb, bs, reps)| {
        let (ns, flops) = bench_rgf(nb, bs, runs.min(5), if quick { 1 } else { reps });
        let sizes = [("n_b", nb), ("n_bs", bs), ("flops", flops as usize)];
        row("rgf_solve", &sizes, ns, Some(flops))
    });

    let nested_rows = nested_dissection().map(|(p_s, balanced, sequential, report)| {
        let row = Json::obj([
            ("p_s", p_s.into()),
            ("balanced", balanced.into()),
            ("sequential_flops", sequential.into()),
            (
                "partition_flops",
                Json::arr(report.partitions.iter().map(|p| p.flops)),
            ),
            ("reduced_system_flops", report.reduced_system_flops.into()),
        ]);
        println!("{:<12} {row}", "nested");
        row
    });

    let lu_rows = [8usize, 16, 32, 64, 128].map(|n_bs| {
        let (ns, flops) = bench_lu_invert(n_bs, runs, cubic_reps(n_bs));
        row("lu_invert", &[("n_bs", n_bs)], ns, Some(flops))
    });

    let dense_reps = |n: usize| if quick { 1 } else { 128 / n };
    let svd_rows =
        [32usize, 64].map(|n| row("svd", &[("n", n)], bench_svd(n, runs, dense_reps(n)), None));
    let beyn_rows = [32usize, 64].map(|n| {
        let ns = bench_beyn(n, runs, dense_reps(n));
        row("beyn", &[("n_bs", n)], ns, None)
    });

    let conv_rows = [16usize, 64, 1024].map(|n_e| {
        let base = (1 << 18) / n_e;
        let reps = if quick { base.div_ceil(8) } else { base };
        let ([fft_ns, convolve_ns, p_pair_ns, sigma_pair_ns], bits_equal) =
            bench_fft_convolution(n_e, runs, reps);
        let row = Json::obj([
            ("n_e", n_e.into()),
            ("fft_ns", tenths(fft_ns)),
            ("convolve_ns", tenths(convolve_ns)),
            ("p_pair_ns", tenths(p_pair_ns)),
            ("sigma_pair_ns", tenths(sigma_pair_ns)),
            ("bits_equal", usize::from(bits_equal).into()),
        ]);
        println!("{:<12} {row}", "fft_conv");
        row
    });

    // Full SCBA runs on the reduced NW-1 device, memoizer on and off, each
    // timed warm (the first run of a process pays for its arenas).
    let n_energies = if quick { 4 } else { 8 };
    let [scba, scba_memo_off] = [true, false].map(|memoizer| {
        let solver = bench_solver(n_energies, 2, memoizer);
        let mut res = None;
        let ns = time_ns(runs.min(5), 1, || res = Some(solver.run()));
        let res = res.expect("timed at least once");
        let scba = Json::obj([
            ("device", "NW-1/26".into()),
            ("n_energies", n_energies.into()),
            ("n_b", solver.device().n_blocks.into()),
            ("n_bs", solver.device().transport_cell_size().into()),
            ("wall_ms", tenths(ns * 1e-6)),
            ("iterations", res.iterations.into()),
            ("total_flops", res.flops.total().into()),
            ("memoizer_hit_rate", res.memoizer_hit_rate.into()),
        ]);
        println!("{:<12} {scba}", "scba");
        scba
    });

    let doc = Json::obj([
        ("generated_by", "quatrex-bench bench_kernels".into()),
        ("quick_mode", quick.into()),
        ("lane_bits", LANE_BITS.into()),
        (
            "fma_peak_gflops",
            ((fma_peak * 100.0).round() / 100.0).into(),
        ),
        ("gemm_chain", Json::arr(chain_rows)),
        ("gemm_batch", Json::arr(batch_rows)),
        ("small_blocks", Json::arr(small_rows)),
        ("rgf_solve", Json::arr(rgf_rows)),
        ("nested_dissection", Json::arr(nested_rows)),
        ("lu_invert", Json::arr(lu_rows)),
        ("svd", Json::arr(svd_rows)),
        ("beyn", Json::arr(beyn_rows)),
        ("fft_convolution", Json::arr(conv_rows)),
        ("scba_iteration", scba),
        ("scba_iteration_memoizer_off", scba_memo_off),
    ]);
    std::fs::write("BENCH_kernels.json", format!("{doc:#}\n")).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}

#[cfg(test)]
mod tests {
    use super::{nested_dissection, NestedReport};

    #[test]
    fn balancing_four_partitions_closes_the_boundary_gap() {
        let [_, (_, _, seq, uniform), (_, _, _, balanced)] = nested_dissection();
        let ratio = |r: &NestedReport| r.boundary_to_middle_ratio().unwrap();
        let middle = |r: &NestedReport| r.middle_partition_factor(seq).unwrap();
        // Uniform: middle partitions carry fill-in beyond an even share, the
        // boundary partitions less than a middle one.
        assert!(middle(&uniform) > 1.0);
        assert!(ratio(&uniform) > 0.0 && ratio(&uniform) < 1.0);
        // Balanced: boundary/middle climbs towards 1 and the critical-path
        // middle factor drops.
        assert!(ratio(&balanced) > ratio(&uniform));
        assert!((ratio(&balanced) - 1.0).abs() < 0.15);
        assert!(middle(&balanced) < middle(&uniform));
        // The busiest partition drops too.
        assert!(balanced.critical_path_flops() < uniform.critical_path_flops());
    }
}
