//! Figure 6: weak scaling over the energy grid. At laptop scale the "ranks" are
//! threads of the simulated communicator; the bench measures the per-iteration
//! cost of the energy-parallel G-step plus the Alltoall data transposition as
//! the rank count grows with the number of energies (weak scaling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quatrex_bench::bench_device;
use quatrex_core::assembly::{assemble_g, ObcMethod};
use quatrex_linalg::FlopCounter;
use quatrex_rgf::rgf_solve;
use quatrex_runtime::{CommPhase, RankContext, ThreadComm};

fn weak_scaling_energy_ranks(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6/weak_scaling");
    group.sample_size(10);
    let device = bench_device(4, 3);
    let h = device.hamiltonian_bt();

    for n_ranks in [1usize, 2, 4] {
        let h = h.clone();
        group.bench_with_input(BenchmarkId::from_parameter(n_ranks), &n_ranks, |b, &n| {
            b.iter(|| {
                let h = h.clone();
                // One energy per rank; each rank solves its G-step and then the
                // ranks exchange one block-sized payload per peer (the
                // transposition for the subsequent FFT step).
                let (results, _stats) = ThreadComm::run(n, move |ctx: RankContext<Vec<f64>>| {
                    let energy = 0.8 + 0.1 * ctx.rank() as f64;
                    let flops = FlopCounter::new();
                    let asm = assemble_g(
                        &h,
                        energy,
                        1e-3,
                        ctx.rank(),
                        None,
                        None,
                        None,
                        0.1,
                        -0.1,
                        0.0259,
                        ObcMethod::SanchoRubio,
                        None,
                        &flops,
                    );
                    let sol = rgf_solve(&asm.system, &[&asm.rhs_lesser]).unwrap();
                    let payload: Vec<f64> = (0..ctx.n_ranks())
                        .map(|p| sol.lesser[0].diag(0)[(0, 0)].re + p as f64)
                        .collect();
                    let send: Vec<Vec<f64>> =
                        (0..ctx.n_ranks()).map(|p| vec![payload[p]; 64]).collect();
                    let received = ctx.alltoallv_tagged(send, |_| 64 * 8, CommPhase::Other);
                    received.iter().map(|v| v.iter().sum::<f64>()).sum::<f64>()
                });
                results.iter().sum::<f64>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, weak_scaling_energy_ranks);
criterion_main!(benches);
