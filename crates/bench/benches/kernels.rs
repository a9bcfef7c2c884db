//! Table 4: per-kernel cost of one SCBA iteration on a single compute element,
//! with and without the OBC memoizer, measured on reduced-scale devices whose
//! block structure matches the paper's NW-1 / NW-2 / NR-16 entries — plus the
//! transport-cell GEMM-chain microbench comparing the operand-flag engine
//! against the preserved pre-refactor kernels (the acceptance target of the
//! engine is ≥2× on this chain; `--bin bench_kernels` emits the same numbers
//! as `BENCH_kernels.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quatrex_bench::{bench_config, chain_operand, reduced_device};
use quatrex_core::ScbaSolver;
use quatrex_device::DeviceCatalog;
use quatrex_linalg::ops::reference::{congruence_ref, matmul_ref};
use quatrex_linalg::ops::{gemm, Op};
use quatrex_linalg::{CMatrix, ONE, ZERO};

fn gemm_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/gemm_chain");
    for n_bs in [32usize, 64, 128] {
        let a_lo = chain_operand(n_bs, 0.3);
        let a_up = chain_operand(n_bs, 1.1);
        let g = chain_operand(n_bs, 2.3);
        let b = chain_operand(n_bs, 3.7);
        group.bench_with_input(BenchmarkId::new("reference", n_bs), &n_bs, |bencher, _| {
            bencher.iter(|| {
                let schur = matmul_ref(&matmul_ref(&a_lo, &g), &a_up);
                let inner = congruence_ref(&g, &b);
                (schur, inner)
            });
        });
        let [mut t, mut schur, mut inner] = [(); 3].map(|()| CMatrix::zeros(n_bs, n_bs));
        group.bench_with_input(BenchmarkId::new("engine", n_bs), &n_bs, |bencher, _| {
            bencher.iter(|| {
                gemm(&mut t, ONE, Op::None(&a_lo), Op::None(&g), ZERO);
                gemm(&mut schur, ONE, Op::None(&t), Op::None(&a_up), ZERO);
                gemm(&mut t, ONE, Op::None(&g), Op::None(&b), ZERO);
                gemm(&mut inner, ONE, Op::None(&t), Op::Dagger(&g), ZERO);
                schur[(0, 0)] + inner[(0, 0)]
            });
        });
    }
    group.finish();
}

fn scba_iteration_by_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4/scba_iteration");
    group.sample_size(10);
    let cases = [
        ("NW-1", DeviceCatalog::nw1(), 26usize),
        ("NW-2", DeviceCatalog::nw2(), 126),
        ("NR-16", DeviceCatalog::nr16(), 213),
    ];
    for (name, params, reduction) in cases {
        let device = reduced_device(&params, reduction);
        let solver = ScbaSolver::new(device, bench_config(8, 2, true));
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| solver.run());
        });
    }
    group.finish();
}

fn memoizer_on_off(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4/memoizer");
    group.sample_size(10);
    for (label, memo) in [("memoizer_on", true), ("memoizer_off", false)] {
        let device = reduced_device(&DeviceCatalog::nw1(), 26);
        let solver = ScbaSolver::new(device, bench_config(8, 3, memo));
        group.bench_with_input(BenchmarkId::from_parameter(label), &memo, |b, _| {
            b.iter(|| solver.run());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    gemm_chain,
    scba_iteration_by_device,
    memoizer_on_off
);
criterion_main!(benches);
