//! Rank-count and batch-count identity on ragged lane groups: the
//! convolutions transform eight owned elements per lane group, so where a
//! rank's element count is not a multiple of eight its tail group is padded,
//! and a group mixes self-mirror with paired elements. Neither may change a
//! bit of what the loop computes: at one batch the run is bit-identical at
//! every rank count; at two and three batches — whose summation order
//! follows each rank's batch split — the convolution FLOP count is, and the
//! observables agree to rounding.

use quatrex_core::element_major::LANES;
use quatrex_core::{canonical_elements, ScbaConfig};
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaResult, DistScbaSolver};
use quatrex_linalg::flops::FlopKind;

fn bits(r: &DistScbaResult) -> Vec<u64> {
    let o = &r.observables;
    let values = [o.current]
        .into_iter()
        .chain(o.electron_density.iter().copied())
        .chain(o.spectral.dos.iter().copied())
        .chain(o.spectral.current_spectrum.iter().copied())
        .chain(o.spectral.dos_local.iter().flatten().copied())
        .chain(r.residual_history.iter().copied())
        .chain(r.current_history.iter().copied());
    values
        .map(f64::to_bits)
        .chain([r.flops.total(), r.iterations as u64])
        .collect()
}

fn max_rel_diff(a: &DistScbaResult, b: &DistScbaResult) -> f64 {
    let values = |r: &DistScbaResult| -> Vec<f64> {
        let o = &r.observables;
        [o.current]
            .into_iter()
            .chain(o.electron_density.iter().copied())
            .chain(o.spectral.dos.iter().copied())
            .collect()
    };
    let (a, b) = (values(a), values(b));
    let scale = b.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-30);
    a.iter()
        .zip(&b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs() / scale))
}

#[test]
fn ragged_lane_groups_are_bit_identical_across_rank_and_batch_counts() {
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let config = ScbaConfig {
        n_energies: 16,
        max_iterations: 3,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    };
    let run = |n_ranks: usize, batches: usize| {
        let dist = DistScbaConfig::new(config.clone(), n_ranks).with_energy_batches(batches);
        let solver = DistScbaSolver::new(device.clone(), dist);
        let plan = solver.plan();
        let elements = canonical_elements(plan.n_blocks, plan.block_size);
        // Every rank's tail group is ragged, and some rank has a group that
        // holds both a self-mirror and a paired element.
        let mixed = |g: &[_]| {
            let own = |id: &&quatrex_core::ElementId| id.is_self_mirror();
            g.iter().any(|id| own(&id)) && g.iter().any(|id| !own(&id))
        };
        for range in &plan.element_ranges {
            assert_ne!(range.len() % LANES, 0, "{n_ranks} ranks: {range:?}");
        }
        assert!(plan
            .element_ranges
            .iter()
            .any(|range| elements[range.clone()].chunks(LANES).any(mixed)));
        solver.run()
    };
    for batches in [1, 2, 3] {
        let one_rank = run(1, batches);
        for n_ranks in [2, 3] {
            let label = format!("{n_ranks} ranks, B = {batches}");
            let dist = run(n_ranks, batches);
            if batches == 1 {
                // One batch is the whole grid on every rank: the same
                // arithmetic whatever the rank count and the lane groups it
                // makes.
                assert!(bits(&dist) == bits(&one_rank), "{label}: bits differ");
            } else {
                // Batches split each rank's own energies, so a later batch's
                // cross terms — and their summation order — follow the rank
                // count; the convolution work does not. (The total does: the
                // memoizer's refinement steps follow the rounding.)
                let conv = |r: &DistScbaResult| r.flops.get(FlopKind::Convolution);
                assert_eq!(conv(&dist), conv(&one_rank), "{label}");
                assert_eq!(dist.iterations, one_rank.iterations, "{label}");
                let diff = max_rel_diff(&dist, &one_rank);
                assert!(diff < 1e-10, "{label}: {diff:e}");
            }
        }
    }
}
