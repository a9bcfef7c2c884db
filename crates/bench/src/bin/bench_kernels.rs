//! `BENCH_kernels.json` generator: before/after numbers for the operand-flag
//! GEMM engine of `quatrex-linalg`.
//!
//! Four measurements, all on transport-cell-sized blocks; the engine side of
//! each also reports its absolute rate (`after_gflops`, paper FLOP counting),
//! so the trajectory does not hang on the frozen scalar kernel alone:
//!
//! * **gemm_chain** — the RGF forward-step product pattern (Schur chain
//!   `(A_lo·g)·A_up` plus congruence `(g·B)·g†`) at `N_BS ∈ {32, 64, 128}`:
//!   the pre-refactor scalar kernels with materialized daggers and fresh
//!   allocations ("before") against the register-tiled engine with fused
//!   daggers and pre-allocated outputs ("after"). The acceptance target is ≥2×.
//! * **rgf_solve** — a full selected RGF solve (retarded + two quadratic
//!   right-hand sides) through the frozen pre-refactor solver
//!   (`quatrex_rgf::reference`) vs the refactored one.
//! * **lu_invert** — `LuScratch::invert_into` at
//!   `N_BS ∈ {8, 16, 32, 64, 128}`: nanoseconds and GFLOP/s (no "before": the
//!   reference solvers invert through the same routine).
//! * **svd** — the one-sided Jacobi `svd` of a dense `N × N` matrix at
//!   `N ∈ {32, 64}` (Beyn's rank-revealing step), and **beyn** — one
//!   contour-integral surface solve at `N_BS ∈ {32, 64}` (48 inversions, the
//!   SVD, the reduced eigenproblem): absolute nanoseconds.
//! * **fft_convolution** — absolute nanoseconds of the convolution layer at
//!   `N_E ∈ {16, 64, 1024}`: one in-place `fft` of the padded length, one
//!   `convolve` of two `N_E`-point series, and one whole-grid call of each
//!   pair kernel on a non-self-mirror pair (`p_pair_ns`: 6 transforms,
//!   `sigma_pair_ns`: 12). No "before": these are enveloped as they are.
//! * **scba_iteration** — wall time of a full SCBA run on the reduced NW-1
//!   device with the current engine, recorded so the perf trajectory has a
//!   longitudinal data point per PR.
//!
//! Run with `cargo run --release -p quatrex-bench --bin bench_kernels`;
//! set `QUATREX_BENCH_QUICK=1` for the CI smoke mode (fewer repetitions,
//! same JSON shape). The file is written to the current directory.

use quatrex_probe::clock::Instant;
use std::fmt::Write as _;

use quatrex_bench::{bench_solver, chain_operand};
use quatrex_core::convolution::{polarization_pair_accumulate, self_energy_pair_accumulate};
use quatrex_fft::{convolve, fft};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::lu::inverse_flops;
use quatrex_linalg::ops::reference::{congruence_ref, matmul_ref};
use quatrex_linalg::ops::{congruence, gemm, gemm_flops, matmul, Op};
use quatrex_linalg::{
    c64, cplx, gemm_batch, gemm_batch_flops, svd, BatchOp, CMatrix, LuScratch, MatrixBatch, OpKind,
    ONE, ZERO,
};
use quatrex_obc::{beyn, BeynConfig};
use quatrex_rgf::reference::rgf_solve_reference;
use quatrex_rgf::{rgf_solve_scratch, BlockTridiagonal, RgfScratch};

fn quick_mode() -> bool {
    std::env::var("QUATREX_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

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

struct ChainRow {
    n_bs: usize,
    before_ns: f64,
    after_ns: f64,
    /// Real FLOPs of one repetition (paper counting), both sides alike.
    flops: u64,
}

impl ChainRow {
    fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }

    /// Absolute rate of the engine side (FLOPs per nanosecond = GFLOP/s).
    fn after_gflops(&self) -> f64 {
        self.flops as f64 / self.after_ns
    }

    /// The JSON fields every before/after row ends with.
    fn json_tail(&self) -> String {
        format!(
            "\"before_ns\": {:.1}, \"after_ns\": {:.1}, \"speedup\": {:.3}, \"after_gflops\": {:.2}",
            self.before_ns,
            self.after_ns,
            self.speedup(),
            self.after_gflops()
        )
    }
}

/// The transport-cell GEMM chain of one RGF forward step.
fn bench_gemm_chain(n_bs: usize, runs: usize, reps: usize) -> ChainRow {
    let a_lo = chain_operand(n_bs, 0.3);
    let a_up = chain_operand(n_bs, 1.1);
    let g = chain_operand(n_bs, 2.3);
    let b = chain_operand(n_bs, 3.7);

    // Before: pre-refactor scalar kernels, fresh allocation per product,
    // materialized dagger.
    let before_ns = time_ns(runs, reps, || {
        let schur = matmul_ref(&matmul_ref(&a_lo, &g), &a_up);
        let inner = congruence_ref(&g, &b);
        std::hint::black_box((&schur, &inner));
    });

    // After: register-tiled engine, fused dagger, pre-allocated outputs.
    let [mut t, mut schur, mut inner] = [(); 3].map(|()| CMatrix::zeros(n_bs, n_bs));
    let after_ns = time_ns(runs, reps, || {
        gemm(&mut t, ONE, Op::None(&a_lo), Op::None(&g), ZERO);
        gemm(&mut schur, ONE, Op::None(&t), Op::None(&a_up), ZERO);
        gemm(&mut t, ONE, Op::None(&g), Op::None(&b), ZERO);
        gemm(&mut inner, ONE, Op::None(&t), Op::Dagger(&g), ZERO);
        std::hint::black_box((&schur, &inner));
    });

    // Cross-check while we are here: both paths agree.
    let want = matmul(&matmul(&a_lo, &g), &a_up);
    let got = matmul_ref(&matmul_ref(&a_lo, &g), &a_up);
    assert!(want.approx_eq(&got, 1e-10), "kernel mismatch at {n_bs}");
    let want = congruence(&g, &b);
    let got = congruence_ref(&g, &b);
    assert!(want.approx_eq(&got, 1e-10), "congruence mismatch at {n_bs}");

    ChainRow {
        n_bs,
        before_ns,
        after_ns,
        flops: 4 * gemm_flops(n_bs, n_bs, n_bs),
    }
}

/// The energy-batched product `C_e = V · B_e` over a block of energies, with
/// an energy-independent left operand — the W-assembly pattern the batch
/// layer was built for. "Before" is the frozen per-energy path: one `gemm`
/// per energy, re-packing the shared operand for every plane. "After" is a
/// single `gemm_batch` call with [`BatchOp::Shared`], which packs it once.
///
/// The two paths differ by ~10–40%, not the engine refactor's 2–3×, so the
/// samples are interleaved (before, after, before, after, …) to cancel
/// machine drift between the two measurement windows before taking the
/// per-path medians.
fn bench_gemm_batch(n_bs: usize, n_e: usize, runs: usize, reps: usize) -> ChainRow {
    let shared = chain_operand(n_bs, 0.7);
    let mut b = MatrixBatch::zeros(n_e, n_bs, n_bs);
    for e in 0..n_e {
        b.plane_mut(e)
            .copy_from_slice(chain_operand(n_bs, 13.0 + e as f64).as_slice());
    }
    let b_planes: Vec<CMatrix> = (0..n_e).map(|e| b.plane_matrix(e)).collect();

    let mut outs = vec![CMatrix::zeros(n_bs, n_bs); n_e];
    let mut c = MatrixBatch::zeros(n_e, n_bs, n_bs);
    let mut before = |reps: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            for e in 0..n_e {
                // lint:allow(per-energy-gemm) — this IS the per-energy baseline.
                gemm(
                    &mut outs[e],
                    ONE,
                    Op::None(&shared),
                    Op::None(&b_planes[e]),
                    ZERO,
                );
            }
            std::hint::black_box(&outs);
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    let mut after = |reps: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            gemm_batch(
                &mut c,
                ONE,
                BatchOp::Shared(Op::None(&shared)),
                BatchOp::Each(OpKind::None, &b),
                ZERO,
            );
            std::hint::black_box(&c);
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    before(1); // warm caches, arenas and the allocator on both paths
    after(1);
    let mut before_samples = Vec::with_capacity(runs);
    let mut after_samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        before_samples.push(before(reps));
        after_samples.push(after(reps));
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    let before_ns = median(&mut before_samples);
    let after_ns = median(&mut after_samples);

    // Cross-check: the batched planes are bit-identical to the per-energy path.
    for e in 0..n_e {
        assert_eq!(
            c.plane(e),
            outs[e].as_slice(),
            "gemm_batch plane {e} mismatch at N_BS={n_bs}"
        );
    }

    ChainRow {
        n_bs,
        before_ns,
        after_ns,
        flops: gemm_batch_flops(n_e, n_bs, n_bs, n_bs),
    }
}

fn rgf_system(nb: usize, bs: usize) -> (BlockTridiagonal, BlockTridiagonal, BlockTridiagonal) {
    let mut a = BlockTridiagonal::zeros(nb, bs);
    let mut bl = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let mut d = chain_operand(bs, 0.2 + i as f64);
        for k in 0..bs {
            d[(k, k)] += cplx(4.0, 0.5);
        }
        a.set_block(i, i, d);
        bl.set_block(
            i,
            i,
            chain_operand(bs, 5.0 + i as f64).negf_antihermitian_part(),
        );
    }
    for i in 0..nb - 1 {
        a.set_block(
            i,
            i + 1,
            chain_operand(bs, 7.0 + i as f64).scaled(cplx(-0.3, 0.0)),
        );
        a.set_block(
            i + 1,
            i,
            chain_operand(bs, 9.0 + i as f64).scaled(cplx(-0.3, 0.0)),
        );
        let bu = chain_operand(bs, 11.0 + i as f64).scaled(cplx(0.1, 0.0));
        bl.set_block(i, i + 1, bu.clone());
        bl.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
    }
    let mut bg = bl.clone();
    bg.scale_mut(cplx(-0.8, 0.0));
    (a, bl, bg)
}

fn bench_rgf(nb: usize, bs: usize, runs: usize, reps: usize) -> ChainRow {
    let (a, bl, bg) = rgf_system(nb, bs);
    let rhs = [&bl, &bg];
    let before_ns = time_ns(runs, reps, || {
        let sol = rgf_solve_reference(&a, &rhs).unwrap();
        std::hint::black_box(&sol);
    });
    let mut scratch = RgfScratch::new();
    let mut flops = 0;
    let after_ns = time_ns(runs, reps, || {
        let sol = rgf_solve_scratch(&a, &rhs, &mut scratch).unwrap();
        flops = sol.flops;
        std::hint::black_box(&sol);
    });
    ChainRow {
        n_bs: bs,
        before_ns,
        after_ns,
        flops,
    }
}

/// One LU inversion of a diagonally shifted (regular) block: nanoseconds and
/// the rate under the `inverse_flops` model.
fn bench_lu_invert(n_bs: usize, runs: usize, reps: usize) -> (f64, f64) {
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
    (ns, inverse_flops(n_bs) as f64 / ns)
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

/// One `fft_convolution` row.
struct ConvRow {
    n_e: usize,
    fft_ns: f64,
    convolve_ns: f64,
    p_pair_ns: f64,
    sigma_pair_ns: f64,
}

/// `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]`, borrowed the way the pair kernels
/// take it.
fn borrowed(x: &[[Vec<c64>; 2]; 2]) -> [[&[c64]; 2]; 2] {
    x.each_ref().map(|side| side.each_ref().map(|v| &v[..]))
}

/// The convolution layer on an `n_e`-point grid: the padded transform, the
/// public `convolve`, and the two pair kernels on the whole grid as one batch.
fn bench_fft_convolution(n_e: usize, runs: usize, reps: usize) -> ConvRow {
    let series = |seed: f64| -> Vec<c64> {
        let at = |k: usize| seed + 0.37 * k as f64;
        (0..n_e).map(|k| cplx(at(k).sin(), at(k).cos())).collect()
    };
    let four = |seed: f64| [0.0, 1.0].map(|s| [0.3, 0.7].map(|c| series(seed + s + c)));
    let (g, w) = (four(0.4), four(2.9));

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
        std::hint::black_box(convolve(&g[0][0], &w[0][0]));
    });

    let flops = FlopCounter::new();
    let grid: Vec<usize> = (0..n_e).collect();
    let mut out = [(); 2].map(|()| [(); 2].map(|()| vec![ZERO; n_e]));
    let p_pair_ns = time_ns(runs, reps, || {
        let [ij, ji] = &mut out;
        let (p_ij, p_ji) = (
            ij.each_mut().map(|v| &mut v[..]),
            ji.each_mut().map(|v| &mut v[..]),
        );
        polarization_pair_accumulate(p_ij, Some(p_ji), borrowed(&g), &grid, false, 0.05, &flops);
        std::hint::black_box(&out);
    });
    let sigma_pair_ns = time_ns(runs, reps, || {
        let [ij, ji] = &mut out;
        let (s_ij, s_ji) = (
            ij.each_mut().map(|v| &mut v[..]),
            ji.each_mut().map(|v| &mut v[..]),
        );
        let (g, w) = (borrowed(&g), borrowed(&w));
        self_energy_pair_accumulate(s_ij, Some(s_ji), g, w, &grid, 0.05, &flops);
        std::hint::black_box(&out);
    });
    ConvRow {
        n_e,
        fft_ns,
        convolve_ns,
        p_pair_ns,
        sigma_pair_ns,
    }
}

fn main() {
    let quick = quick_mode();
    let runs = if quick { 3 } else { 7 };

    let mut chain_rows = Vec::new();
    for n_bs in [32usize, 64, 128] {
        // Scale repetitions so each size measures comparable wall time.
        let base = (256 / n_bs).pow(3).max(1);
        let reps = if quick { base.div_ceil(8).max(1) } else { base };
        let row = bench_gemm_chain(n_bs, runs, reps);
        println!(
            "gemm_chain  N_BS={:>4}: before {:>12.0} ns  after {:>12.0} ns  speedup {:>5.2}x  {:>6.2} GFLOP/s",
            row.n_bs,
            row.before_ns,
            row.after_ns,
            row.speedup(),
            row.after_gflops()
        );
        chain_rows.push(row);
    }

    // Energy-batched GEMM: one packing of the shared operand, all energies.
    let batch_energies = 8usize;
    let batch_runs = if quick { 5 } else { 11 };
    let mut batch_rows = Vec::new();
    for n_bs in [32usize, 64, 128] {
        let base = (256 / n_bs).pow(3).max(1);
        let reps = if quick { base.div_ceil(8).max(1) } else { base };
        let row = bench_gemm_batch(n_bs, batch_energies, batch_runs, reps);
        println!(
            "gemm_batch  N_BS={:>4} (B={batch_energies}): before {:>12.0} ns  after {:>12.0} ns  speedup {:>5.2}x  {:>6.2} GFLOP/s",
            row.n_bs,
            row.before_ns,
            row.after_ns,
            row.speedup(),
            row.after_gflops()
        );
        batch_rows.push(row);
    }

    let mut rgf_rows = Vec::new();
    for (nb, bs) in [(8usize, 32usize), (8, 64)] {
        let reps = if quick {
            1
        } else if bs >= 64 {
            2
        } else {
            6
        };
        let row = bench_rgf(nb, bs, runs.min(5), reps);
        println!(
            "rgf_solve   N_BS={:>4} (N_B={nb}): before {:>12.0} ns  after {:>12.0} ns  speedup {:>5.2}x  {:>6.2} GFLOP/s",
            row.n_bs,
            row.before_ns,
            row.after_ns,
            row.speedup(),
            row.after_gflops()
        );
        rgf_rows.push((nb, row));
    }

    let mut lu_rows = Vec::new();
    for n_bs in [8usize, 16, 32, 64, 128] {
        let base = (256 / n_bs).pow(3).max(1);
        let reps = if quick { base.div_ceil(8).max(1) } else { base };
        let (ns, gflops) = bench_lu_invert(n_bs, runs, reps);
        println!("lu_invert   N_BS={n_bs:>4}: {ns:>12.0} ns  {gflops:>6.2} GFLOP/s");
        lu_rows.push((n_bs, ns, gflops));
    }

    let mut svd_rows = Vec::new();
    let mut beyn_rows = Vec::new();
    for n in [32usize, 64] {
        let reps = if quick { 1 } else { 128 / n };
        let ns = bench_svd(n, runs, reps);
        println!("svd         N   ={n:>4}: {ns:>12.0} ns");
        svd_rows.push((n, ns));
        let ns = bench_beyn(n, runs, reps);
        println!("beyn        N_BS={n:>4}: {ns:>12.0} ns");
        beyn_rows.push((n, ns));
    }

    let mut conv_rows = Vec::new();
    for n_e in [16usize, 64, 1024] {
        let base = (1 << 18) / n_e;
        let reps = if quick { base.div_ceil(8) } else { base };
        let row = bench_fft_convolution(n_e, runs, reps);
        println!(
            "fft_conv    N_E ={:>5}: fft {:>10.0} ns  convolve {:>10.0} ns  P pair {:>10.0} ns  Σ pair {:>10.0} ns",
            row.n_e, row.fft_ns, row.convolve_ns, row.p_pair_ns, row.sigma_pair_ns
        );
        conv_rows.push(row);
    }

    // Full SCBA trajectory point (current engine): reduced NW-1 device.
    let solver = bench_solver(if quick { 4 } else { 8 }, 2, true);
    let t = Instant::now();
    let res = solver.run();
    let scba_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "scba        full run: {scba_ms:.1} ms ({} iterations, {:.3e} FLOPs)",
        res.iterations,
        res.flops.total() as f64
    );

    // ---------------------------------------------------------------- JSON
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"quatrex-bench bench_kernels\",\n");
    let _ = writeln!(json, "  \"quick_mode\": {quick},");
    json.push_str("  \"gemm_chain\": [\n");
    for (i, row) in chain_rows.iter().enumerate() {
        let _ = write!(json, "    {{\"n_bs\": {}, {}}}", row.n_bs, row.json_tail());
        json.push_str(if i + 1 < chain_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"gemm_batch\": [\n");
    for (i, row) in batch_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n_bs\": {}, \"batch\": {batch_energies}, {}}}",
            row.n_bs,
            row.json_tail()
        );
        json.push_str(if i + 1 < batch_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"rgf_solve\": [\n");
    for (i, (nb, row)) in rgf_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n_b\": {nb}, \"n_bs\": {}, {}}}",
            row.n_bs,
            row.json_tail()
        );
        json.push_str(if i + 1 < rgf_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"lu_invert\": [\n");
    for (i, (n_bs, ns, gflops)) in lu_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n_bs\": {n_bs}, \"ns\": {ns:.1}, \"gflops\": {gflops:.2}}}"
        );
        json.push_str(if i + 1 < lu_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    for (key, size, rows) in [("svd", "n", &svd_rows), ("beyn", "n_bs", &beyn_rows)] {
        let _ = writeln!(json, "  \"{key}\": [");
        for (i, (n, ns)) in rows.iter().enumerate() {
            let _ = write!(json, "    {{\"{size}\": {n}, \"ns\": {ns:.1}}}");
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ],\n");
    }
    json.push_str("  \"fft_convolution\": [\n");
    for (i, row) in conv_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n_e\": {}, \"fft_ns\": {:.1}, \"convolve_ns\": {:.1}, \"p_pair_ns\": {:.1}, \"sigma_pair_ns\": {:.1}}}",
            row.n_e, row.fft_ns, row.convolve_ns, row.p_pair_ns, row.sigma_pair_ns
        );
        json.push_str(if i + 1 < conv_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"scba_iteration\": {{\"device\": \"NW-1/26\", \"wall_ms\": {scba_ms:.1}, \"iterations\": {}, \"total_flops\": {}}}",
        res.iterations,
        res.flops.total()
    );
    json.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");

    let min_speedup = chain_rows
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    if min_speedup < 2.0 {
        println!("WARNING: GEMM-chain speedup below the 2x target: {min_speedup:.2}x");
    }
}
