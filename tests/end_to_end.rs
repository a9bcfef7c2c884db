//! Cross-crate integration tests: full NEGF+scGW pipeline on small devices.

use quatrex::prelude::*;

fn tiny_device() -> Device {
    DeviceBuilder::test_device(3, 2, 4).build()
}

fn fast_config(n_energies: usize, iterations: usize) -> ScbaConfig {
    ScbaConfig {
        n_energies,
        max_iterations: iterations,
        mixing: 0.4,
        tolerance: 1e-4,
        interaction_scale: 0.2,
        ..Default::default()
    }
}

#[test]
fn ballistic_current_increases_with_bias() {
    // Landauer-like behaviour: widening the bias window cannot decrease the
    // ballistic current.
    let mut currents = Vec::new();
    for bias in [0.0, 0.1, 0.2] {
        let device = tiny_device();
        let config = ScbaConfig {
            mu_left: bias / 2.0,
            mu_right: -bias / 2.0,
            ..fast_config(32, 1)
        };
        let res = ScbaSolver::new(device, config).ballistic();
        currents.push(res.observables.current);
    }
    assert!(
        currents[0].abs() < 1e-6,
        "zero-bias current should vanish: {}",
        currents[0]
    );
    assert!(currents[1] >= currents[0] - 1e-9);
    assert!(currents[2] >= currents[1] - 1e-9);
}

#[test]
fn scba_converges_and_respects_physical_invariants() {
    let device = tiny_device();
    let res = ScbaSolver::new(device, fast_config(16, 10)).run();
    assert!(res.iterations >= 2);
    // DOS non-negative at every energy.
    for dos in &res.observables.spectral.dos {
        assert!(*dos > -1e-8);
    }
    // Densities non-negative and finite.
    for n in &res.observables.electron_density {
        assert!(*n >= -1e-8 && n.is_finite());
    }
    // Residuals shrink.
    let first = res.residual_history.first().unwrap();
    let last = res.residual_history.last().unwrap();
    assert!(last <= first);
}

#[test]
fn memoizer_does_not_change_the_physics() {
    // Compared at a fixed point, where "the same physics" is a statement
    // about the solver and not about where an iteration happens to stand: the
    // benchmark's sweep problem, whose SCBA map is contractive. The memoizer
    // refines its cached surface functions to 1e-7, which is the floor of the
    // Σ residual with it on — both runs are converged to 1e-6.
    let run = |use_memoizer: bool| {
        let device =
            DeviceBuilder::from_params(&quatrex::device::DeviceCatalog::nr16(), 426).build();
        let config = ScbaConfig {
            use_memoizer,
            tolerance: 1e-6,
            ..fast_config(12, 40)
        };
        ScbaSolver::new(device, config).run()
    };
    let (with, without) = (run(true), run(false));
    assert!(with.converged && without.converged);
    assert!(with.memoizer_hit_rate > 0.5 && without.memoizer_hit_rate == 0.0);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    let current = rel(with.observables.current, without.observables.current);
    assert!(
        current <= 1e-6,
        "memoizer changed the current by {current:e}"
    );
    let charge = |r: &ScbaResult| r.observables.electron_density.iter().sum::<f64>();
    let charge = rel(charge(&with), charge(&without));
    assert!(charge <= 1e-6, "memoizer changed the charge by {charge:e}");
}

#[test]
fn ballistic_density_is_positive_and_gw_correction_stays_bounded() {
    // The ballistic lesser Green's function must yield strictly positive
    // occupations. The coarse-grid GW correction may shift them strongly (a
    // known limitation of the reduced energy grid), but must stay finite and
    // of the same magnitude.
    let ballistic = ScbaSolver::new(tiny_device(), fast_config(12, 1)).ballistic();
    let max_ballistic = ballistic
        .observables
        .electron_density
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    assert!(max_ballistic > 0.0);
    for n in &ballistic.observables.electron_density {
        assert!(*n > 0.0, "ballistic density must be positive, got {n}");
    }

    let gw = ScbaSolver::new(tiny_device(), fast_config(12, 3)).run();
    for n in &gw.observables.electron_density {
        assert!(n.is_finite());
        assert!(n.abs() < 10.0 * max_ballistic, "GW density diverged: {n}");
    }
    assert!(gw.max_truncation_error < 0.5);
}

#[test]
fn umbrella_crate_reexports_every_layer() {
    // Touch one symbol from every workspace crate through the umbrella.
    let _ = quatrex::linalg::CMatrix::identity(2);
    let _ = quatrex::fft::next_power_of_two(5);
    let _ = quatrex::sparse::BlockTridiagonal::zeros(2, 2);
    let _ = quatrex::device::DeviceCatalog::nw1();
    let _ = quatrex::obc::ObcMemoizer::new(4, 1e-6);
    let _ = quatrex::runtime::CommPhase::FwdG.label();
    let _ = quatrex::rgf::NestedConfig::new(2);
    let _ = quatrex::probe::json::Json::Null;
    let _ = quatrex::dist::DistScbaConfig::new(ScbaConfig::default(), 2);
    let _ = quatrex::serve::SweepConfig::new(ScbaConfig::default(), 2);
    let device = tiny_device();
    let _ = quatrex::core::ScbaSolver::new(device, ScbaConfig::default());
}
