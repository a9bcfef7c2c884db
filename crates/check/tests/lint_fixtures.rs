//! Fixture-based self-tests of the lint scanner: each fixture file seeds
//! known violations (plus decoys that must *not* fire — strings, comments,
//! `#[cfg(test)]` modules, `lint:allow` escapes) and the tests assert the
//! exact (rule, line) findings.

use quatrex_check::{lint_source, Rule};

/// Findings as (rule name, line) pairs for compact assertions.
fn findings(rel_path: &str, source: &str) -> Vec<(String, usize)> {
    lint_source(rel_path, source)
        .into_iter()
        .map(|v| (v.rule.name().to_string(), v.line))
        .collect()
}

#[test]
fn std_instant_is_flagged_outside_probe() {
    let src = include_str!("fixtures/std_instant.rs");
    let got = findings("crates/core/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![
            ("one-clock".to_string(), 3),
            ("one-clock".to_string(), 4),
            ("one-clock".to_string(), 7),
        ]
    );
    assert!(findings("crates/probe/src/fixture.rs", src).is_empty());
}

#[test]
fn unwrap_is_flagged_only_in_rank_loop_and_runtime_library_code() {
    let src = include_str!("fixtures/unwrap_expect.rs");
    let got = findings("crates/core/src/dist/fixture.rs", src);
    assert_eq!(
        got,
        vec![("no-unwrap".to_string(), 4), ("no-unwrap".to_string(), 5)]
    );
    let runtime = lint_source("crates/runtime/src/fixture.rs", src);
    assert!(runtime.iter().all(|v| v.rule == Rule::NoUnwrap));
    assert_eq!(runtime.len(), 2);
    // Other code may unwrap: the rule is scoped to rank-thread code.
    assert!(findings("crates/core/src/fixture.rs", src).is_empty());
    assert!(findings("crates/dist/src/fixture.rs", src).is_empty());
}

#[test]
fn println_is_flagged_in_library_code_but_not_bins() {
    let src = include_str!("fixtures/println_lib.rs");
    let got = findings("crates/perf/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![("no-println".to_string(), 4), ("no-println".to_string(), 5)]
    );
    assert!(findings("crates/bench/src/bin/fixture.rs", src).is_empty());
    assert!(findings("crates/bench/src/main.rs", src).is_empty());
}

#[test]
fn per_energy_gemm_is_flagged_in_rgf_obc_core_but_not_elsewhere() {
    let src = include_str!("fixtures/per_energy_gemm.rs");
    for root in ["rgf", "obc", "core"] {
        let got = findings(&format!("crates/{root}/src/fixture.rs"), src);
        assert_eq!(got, vec![("per-energy-gemm".to_string(), 7)], "{root}");
    }
    // Other crates (and test code) may call the scalar kernel directly.
    assert!(findings("crates/linalg/src/fixture.rs", src).is_empty());
    assert!(findings("crates/rgf/tests/fixture.rs", src).is_empty());
}

#[test]
fn allocating_inverse_is_flagged_in_rgf_obc_core_but_not_elsewhere() {
    let src = include_str!("fixtures/allocating_inverse.rs");
    for root in ["rgf", "obc", "core"] {
        let got = findings(&format!("crates/{root}/src/fixture.rs"), src);
        let want: Vec<_> = [4, 8, 9, 10]
            .map(|line| ("allocating-inverse".to_string(), line))
            .into();
        assert_eq!(got, want, "{root}");
    }
    // The kernels' own crate, bins and test code may allocate per call.
    assert!(findings("crates/linalg/src/fixture.rs", src).is_empty());
    assert!(findings("crates/bench/src/bin/fixture.rs", src).is_empty());
    assert!(findings("crates/obc/tests/fixture.rs", src).is_empty());
}

#[test]
fn allow_file_marker_suppresses_a_rule_for_the_whole_file() {
    let src = "// lint:allow-file(per-energy-gemm): frozen reference recipe.\n\
               pub fn f(c: &mut CMatrix, a: &CMatrix) {\n    \
               gemm(c, ONE, Op::None(a), Op::None(a), ZERO);\n    \
               gemm(c, ONE, Op::Dagger(a), Op::None(a), ZERO);\n}\n";
    assert!(findings("crates/rgf/src/fixture.rs", src).is_empty());
    // The marker only names one rule: others still fire.
    let src = format!("{src}pub fn g() {{ println!(\"nope\"); }}\n");
    let got = findings("crates/rgf/src/fixture.rs", &src);
    assert_eq!(got, vec![("no-println".to_string(), 6)]);
}

#[test]
fn raw_sync_is_flagged_in_library_code_but_not_sync_or_bins() {
    let src = include_str!("fixtures/raw_sync.rs");
    let got = findings("crates/core/src/dist/fixture.rs", src);
    assert_eq!(
        got,
        vec![
            ("no-raw-sync".to_string(), 4),
            ("no-raw-sync".to_string(), 5),
            ("no-raw-sync".to_string(), 6),
            ("no-raw-sync".to_string(), 7),
            ("no-raw-sync".to_string(), 11),
        ]
    );
    // crates/sync builds the instrumentation out of the raw primitives.
    assert!(findings("crates/sync/src/fixture.rs", src).is_empty());
    // Bin targets own their own threading.
    assert!(findings("crates/runtime/src/bin/fixture.rs", src).is_empty());
    assert!(findings("crates/core/tests/fixture.rs", src).is_empty());
}

#[test]
fn thread_starts_are_flagged_outside_the_runtime_rank_spawn() {
    let src = include_str!("fixtures/thread_start.rs");
    let got = findings("crates/rgf/src/fixture.rs", src);
    assert_eq!(
        got,
        vec![
            ("no-raw-sync".to_string(), 4),
            ("no-raw-sync".to_string(), 5),
            ("no-raw-sync".to_string(), 9),
            ("no-raw-sync".to_string(), 10),
        ]
    );
    // crates/sync builds the instrumentation out of the raw primitives.
    assert!(findings("crates/sync/src/fixture.rs", src).is_empty());
    // Bin targets and tests own their own threading.
    assert!(findings("crates/bench/src/bin/fixture.rs", src).is_empty());
    assert!(findings("crates/core/tests/fixture.rs", src).is_empty());
}

#[test]
fn stale_line_allow_is_reported() {
    let src = "pub fn f() -> u32 {\n    // lint:allow(no-println): nothing to suppress below\n    let x = 1;\n    x\n}\n";
    let got = findings("crates/core/src/fixture.rs", src);
    assert_eq!(got, vec![("stale-allow".to_string(), 2)]);
}

#[test]
fn stale_allow_file_is_reported() {
    let src = "// lint:allow-file(per-energy-gemm): nothing here needs it.\npub fn f() {}\n";
    let got = findings("crates/rgf/src/fixture.rs", src);
    assert_eq!(got, vec![("stale-allow".to_string(), 1)]);
}

#[test]
fn markers_for_non_applicable_rules_are_inert_not_stale() {
    // `no-unwrap` does not apply in crates/core: the marker is ignored
    // entirely rather than reported stale, so fixtures shared across paths
    // stay clean under every path they are linted as.
    let src = "// lint:allow-file(no-unwrap): scoped elsewhere.\npub fn f() {}\n";
    assert!(findings("crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn allow_marker_must_name_the_right_rule() {
    let src = "pub fn f(v: &[u8]) -> u8 {\n    // lint:allow(no-println): wrong rule named\n    *v.first().unwrap()\n}\n";
    let got = findings("crates/core/src/dist/fixture.rs", src);
    // The unwrap still fires, and the mis-named marker (which suppresses
    // nothing) is itself reported stale.
    assert_eq!(
        got,
        vec![("stale-allow".to_string(), 2), ("no-unwrap".to_string(), 3)]
    );
}

#[test]
fn multi_line_constructs_are_stripped() {
    let src = "pub fn f() {\n    /* comment opens\n       x.unwrap() still comment\n    */\n    let s = \"multi\n        line .unwrap() string\";\n    let r = r#\"raw\n        .expect( string\"#;\n}\n";
    assert!(findings("crates/core/src/dist/fixture.rs", src).is_empty());
}

#[test]
fn lint_tree_skips_fixture_directories() {
    // Scanning this very crate must not pick up the seeded fixture
    // violations (the walker skips `fixtures/` and test code).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let report = quatrex_check::lint_tree(root).expect("scan workspace");
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.path.contains("fixtures")),
        "fixture files must be exempt: {:?}",
        report.violations
    );
    assert!(report.files_scanned > 10);
}
