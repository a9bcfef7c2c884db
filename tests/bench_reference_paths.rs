//! `BENCH_reference.json` and the committed artefacts it gates agree on their
//! key names: every `path` of both run modes resolves to a number in the
//! committed `BENCH_kernels.json` / `DIST_report.json` / `SWEEP_report.json`
//! it names. Without this a dangling path (a renamed report key, a dropped
//! kernel row) is found only when CI runs `bench_gate`.

use quatrex::probe::json::{parse, Json};

fn load(file: &str) -> Json {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{file} is not valid JSON: {e}"))
}

#[test]
fn every_reference_path_resolves_in_the_committed_artefacts() {
    let reference = load("BENCH_reference.json");
    let mut artefacts = std::collections::BTreeMap::new();
    for mode in ["quick", "full"] {
        let checks = reference
            .get(mode)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCH_reference.json has no `{mode}` check array"));
        assert!(!checks.is_empty(), "`{mode}` gates nothing");
        for check in checks {
            let field = |key: &str| {
                check
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{mode} check without a string `{key}`: {check}"))
            };
            let (file, path) = (field("file"), field("path"));
            let artefact = artefacts.entry(file).or_insert_with(|| load(file));
            assert!(
                artefact.path(path).and_then(Json::as_f64).is_some(),
                "{mode}: `{path}` is not a number in the committed {file}"
            );
        }
    }
}
