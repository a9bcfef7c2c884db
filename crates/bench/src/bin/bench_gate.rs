//! ReFrame-style bench gate: check the measured bench artifacts against the
//! committed `(value, tolerance)` envelopes in `BENCH_reference.json`.
//!
//! Reads the artifacts the bench-smoke job just produced in the working
//! directory — `BENCH_kernels.json` (kernel nanoseconds and GFLOP/s),
//! `DIST_report.json` (distributed byte counters and probe metrics) and
//! `SWEEP_report.json` (warm-start iteration ratio) — picks the reference
//! section matching the run mode (`QUATREX_BENCH_QUICK=1` selects `"quick"`,
//! otherwise `"full"`), and fails with a nonzero exit code when any measured
//! value falls outside its envelope `value · (1 ± tolerance)`. Every envelope
//! is of the quantity itself — a rate, a time, a byte count — never of a
//! ratio against another implementation. Kernel rates and times carry a wide
//! tolerance (they span machine classes and catch a kernel falling off its
//! fast path, not percent-level drift); byte counters are deterministic
//! functions of the configuration and carry `tolerance: 0` — any drift means
//! the communication schedule itself changed and the reference must be
//! re-baselined deliberately.
//!
//! Every run — pass or fail — is appended as one JSON line to
//! `BENCH_history.jsonl`, so the trajectory of the tracked quantities is
//! recoverable from the repository checkout alone.
//!
//! Run with: `cargo run --release -p quatrex-bench --bin bench_gate`
//! (after `bench_kernels` and the `distributed_scba` and `nanoribbon_iv`
//! examples, same mode).

use quatrex_probe::json::{self, Json};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// One gated quantity: where it lives and the envelope it must sit in.
struct Check<'a> {
    name: &'a str,
    file: &'a str,
    path: &'a str,
    value: f64,
    tolerance: f64,
}

fn field<'a>(check: &'a Json, key: &str) -> &'a Json {
    check
        .get(key)
        .unwrap_or_else(|| panic!("BENCH_reference.json: check missing `{key}`"))
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("read {path}: {e} (run bench_kernels and the two report examples first)")
    });
    json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mode = if quatrex_bench::quick_mode() {
        "quick"
    } else {
        "full"
    };

    let reference = load("BENCH_reference.json");
    let section = reference
        .get(mode)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCH_reference.json has no `{mode}` check array"));
    let checks: Vec<Check> = section
        .iter()
        .map(|c| Check {
            name: field(c, "name").as_str().expect("check `name` is a string"),
            file: field(c, "file").as_str().expect("check `file` is a string"),
            path: field(c, "path").as_str().expect("check `path` is a string"),
            value: field(c, "value")
                .as_f64()
                .expect("check `value` is a number"),
            tolerance: field(c, "tolerance")
                .as_f64()
                .expect("check `tolerance` is a number"),
        })
        .collect();

    // Parse each referenced artifact once.
    let mut docs: Vec<(&str, Json)> = Vec::new();
    for check in &checks {
        if !docs.iter().any(|(f, _)| *f == check.file) {
            docs.push((check.file, load(check.file)));
        }
    }

    println!("bench gate ({mode} mode, {} checks):", checks.len());
    println!(
        "  {:<44} {:>14} {:>14} {:>8}  status",
        "check", "measured", "reference", "tol"
    );
    let mut failures = 0usize;
    let mut history = Vec::new();
    for check in &checks {
        let doc = &docs.iter().find(|(f, _)| *f == check.file).unwrap().1;
        let measured = doc.path(check.path).and_then(Json::as_f64);
        let (status, ok) = match measured {
            None => ("MISSING", false),
            Some(m) => {
                let slack = check.tolerance * check.value.abs();
                if (m - check.value).abs() <= slack {
                    ("ok", true)
                } else if m > check.value {
                    ("HIGH", false)
                } else {
                    ("LOW", false)
                }
            }
        };
        if !ok {
            failures += 1;
        }
        // Six decimals at most, so a full-precision report value fits its column.
        let shown = measured.map_or("-".to_string(), |m| {
            let fixed = format!("{m:.6}");
            fixed
                .trim_end_matches('0')
                .trim_end_matches('.')
                .to_string()
        });
        println!(
            "  {:<44} {:>14} {:>14} {:>7.0}%  {}",
            check.name,
            shown,
            check.value,
            100.0 * check.tolerance,
            status
        );
        history.push(Json::obj([
            ("name", check.name.into()),
            ("measured", measured.into()),
            ("reference", check.value.into()),
            ("ok", ok.into()),
        ]));
    }

    // One line per gate run, pass or fail: the committed trajectory of every
    // tracked quantity.
    let unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = Json::obj([
        ("unix_time", unix.into()),
        ("mode", mode.into()),
        ("failures", failures.into()),
        ("checks", Json::Arr(history)),
    ]);
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .and_then(|mut f| writeln!(f, "{line}"))
        .expect("append BENCH_history.jsonl");

    if failures > 0 {
        println!("\nbench gate FAILED: {failures} check(s) outside their envelope");
        println!("(if the change is intentional, re-baseline BENCH_reference.json)");
        ExitCode::FAILURE
    } else {
        println!("\nbench gate passed; appended run to BENCH_history.jsonl");
        ExitCode::SUCCESS
    }
}
