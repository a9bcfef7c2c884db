//! Checkpoint/resume round-trip: a sweep interrupted mid-curve and resumed
//! from disk must reproduce the uninterrupted curve point-for-point, and
//! every way a checkpoint file can be damaged must surface as a named
//! [`SweepError`], never a panic.
//!
//! The engine's solves are deterministic (static ownership, simulated
//! clock ordering fixed by the runtime), so "point-for-point" here means
//! bit-identical observables, asserted via `f64::to_bits`.

use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_serve::{SweepConfig, SweepEngine, SweepError, CHECKPOINT_MAGIC};

const BIASES: [f64; 4] = [0.0, 0.02, 0.04, 0.06];

fn scba() -> ScbaConfig {
    ScbaConfig {
        n_energies: 8,
        max_iterations: 80,
        tolerance: 1e-10,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    }
}

fn config() -> SweepConfig {
    SweepConfig::new(scba(), 2).with_potential_ramp(false)
}

fn engine() -> SweepEngine {
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let mut engine = SweepEngine::new(device, config());
    engine.enqueue_bias_ramp(&BIASES);
    engine
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("quatrex_sweep_{tag}_{}.ckpt", std::process::id()))
}

#[test]
fn resumed_sweep_reproduces_the_uninterrupted_curve_point_for_point() {
    // The uninterrupted reference.
    let uninterrupted = engine().run_all();

    // Run two points, checkpoint, drop the engine entirely.
    let path = temp_path("roundtrip");
    let bytes_written = {
        let mut first_half = engine();
        first_half.run_next().expect("point 0");
        first_half.run_next().expect("point 1");
        assert_eq!(first_half.completed(), 2);
        assert_eq!(first_half.pending(), 2);
        first_half.checkpoint_to(&path).expect("checkpoint written")
    };
    assert!(bytes_written > 0);

    // Resume from disk with a fresh device and finish the sweep.
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let mut resumed =
        SweepEngine::resume_from(device, config(), &path).expect("checkpoint readable");
    assert_eq!(resumed.completed(), 2);
    assert_eq!(resumed.pending(), 2);
    let resumed_report = resumed.run_all();
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed_report.points.len(), uninterrupted.points.len());
    for (u, r) in uninterrupted
        .sorted_points()
        .iter()
        .zip(resumed_report.sorted_points())
    {
        assert_eq!(u.point.bias_v, r.point.bias_v);
        assert_eq!(
            u.current.to_bits(),
            r.current.to_bits(),
            "current at {} V: uninterrupted {:e} vs resumed {:e}",
            u.point.bias_v,
            u.current,
            r.current,
        );
        assert_eq!(
            u.electron_charge.to_bits(),
            r.electron_charge.to_bits(),
            "charge at {} V",
            u.point.bias_v,
        );
        assert_eq!(
            u.peak_spectral_current.to_bits(),
            r.peak_spectral_current.to_bits(),
            "spectral peak at {} V",
            u.point.bias_v,
        );
        assert_eq!(
            u.iterations, r.iterations,
            "iterations at {} V",
            u.point.bias_v
        );
        assert_eq!(u.converged, r.converged);
        assert_eq!(u.warm_started, r.warm_started);
    }
}

#[test]
fn corrupted_checkpoints_yield_named_errors_not_panics() {
    let path = temp_path("corrupt");
    let mut half = engine();
    half.run_next().expect("point 0");
    half.checkpoint_to(&path).expect("checkpoint written");
    let good = std::fs::read(&path).expect("file back");
    std::fs::remove_file(&path).ok();
    let device = || DeviceBuilder::test_device(2, 2, 6).build();
    let resume = |bytes: &[u8], tag: &str| {
        let p = temp_path(tag);
        std::fs::write(&p, bytes).expect("write variant");
        let r = SweepEngine::resume_from(device(), config(), &p);
        std::fs::remove_file(&p).ok();
        r.err().expect("damaged checkpoint must not resume")
    };

    // A flipped payload byte fails the integrity digest.
    let mut flipped = good.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert!(matches!(
        resume(&flipped, "flip"),
        SweepError::DigestMismatch { .. }
    ));

    // A truncated file is named as such.
    assert!(matches!(
        resume(&good[..good.len() / 2], "trunc"),
        SweepError::Truncated
    ));

    // A file that is not a sweep checkpoint at all.
    let mut not_ours = good.clone();
    not_ours[..CHECKPOINT_MAGIC.len()].copy_from_slice(b"NOTMINE!");
    assert!(matches!(resume(&not_ours, "magic"), SweepError::BadMagic));

    // An older or a future format version is refused by number, not
    // mis-parsed (version 2 lacks the contraction history).
    for version in [2u32, 9] {
        let mut other = good.clone();
        other[CHECKPOINT_MAGIC.len()..CHECKPOINT_MAGIC.len() + 4]
            .copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            resume(&other, "version"),
            SweepError::UnsupportedVersion(v) if v == version
        ));
    }

    // A checkpoint from a differently shaped sweep is refused by fingerprint.
    let p = temp_path("shape");
    std::fs::write(&p, &good).expect("write shape variant");
    let other_config = SweepConfig::new(
        ScbaConfig {
            n_energies: 10,
            ..scba()
        },
        2,
    )
    .with_potential_ramp(false);
    let r = SweepEngine::resume_from(device(), other_config, &p);
    std::fs::remove_file(&p).ok();
    assert!(matches!(
        r.err().expect("shape mismatch must not resume"),
        SweepError::ShapeMismatch { .. }
    ));
}
