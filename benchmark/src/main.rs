//! The repo benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload (the unit the driver and the suite below both use): the
//!   untraced timed pass (`--trace 0`, end-to-end metrics) or the traced pass
//!   (`--trace 1`, per-layer metrics). Prints every metric by name with its
//!   unit, then one JSON result object as the last line.
//! * no `--trace` — the suite: every workload (or `--workload W`),
//!   `--repeats R` timed runs and one traced run each, every run a fresh
//!   child process of this binary so peak memory is per run and allocator
//!   state does not leak; prints medians with sample counts, spreads and
//!   bounds, and writes a result file for `--compare`. `--check-only` runs
//!   the correctness gates alone (one repeat of the shortest runs).
//! * `--compare A.json B.json` — two result files of the same code, metric by
//!   metric: both medians, the ratio with its base, and a verdict.

mod calibrate;
mod compare;
mod probes;
mod replay;
mod report;
mod suite;
mod timed;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

/// Default `--seed` of the suite.
const DEFAULT_SEED: u64 = 2025;
/// Default `--seconds` of a run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// An end-to-end metric's definition; `BENCHMARK.json` carries the same table.
pub struct EndToEnd {
    pub name: &'static str,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "iter_s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "gflops",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "point_s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "iterations",
        lower_is_better: true,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        lower_is_better: true,
        bound: 0.25,
    },
];

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeats: Option<usize>,
    out: Option<String>,
    check_only: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeats" => {
                let r: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=100).contains(&r) {
                    return Err(format!("--repeats {r} is outside 1..=100"));
                }
                args.repeats = Some(r);
            }
            "--out" => args.out = Some(value("a file name")?),
            "--check-only" => args.check_only = true,
            "--compare" => {
                args.compare = Some((value("two result files")?, value("two result files")?))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("quatrex-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let Some(traced) = args.trace else {
        return suite::run(&suite::Options {
            workload: args.workload,
            seed,
            seconds,
            repeats: args.repeats.unwrap_or(5),
            out: args.out,
            check_only: args.check_only,
        });
    };
    let Some(workload) = args.workload.as_deref().and_then(workloads::by_name) else {
        let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!("quatrex-benchmark: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };

    println!(
        "workload {} seed {seed} seconds {seconds} trace {} | threads {} | target features:{}",
        workload.name,
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        suite::target_features(),
    );
    let outcome = if traced {
        traced::run(&workload, seed, seconds)
    } else {
        let mut o = timed::run(&workload, seed, seconds);
        o.push(report::Metric::exact(
            "peak_rss_mib",
            report::peak_rss_mib(),
            "MiB",
        ));
        o
    };
    outcome.print_table();
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            quatrex_probe::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<String> = workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names("workloads"), workloads);
        let declared = names("end_to_end");
        assert_eq!(
            declared,
            END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>()
        );
        for (e, entry) in END_TO_END.iter().zip(
            doc.get("end_to_end")
                .and_then(|v| v.as_arr())
                .expect("array"),
        ) {
            assert_eq!(
                entry.get("bound").and_then(|b| b.as_f64()),
                Some(e.bound),
                "{}",
                e.name
            );
            let better = if e.lower_is_better { "lower" } else { "higher" };
            assert_eq!(
                entry.get("better").and_then(|b| b.as_str()),
                Some(better),
                "{}",
                e.name
            );
        }
        assert_eq!(names("per_layer").len(), 55);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(DEFAULT_SECONDS)
        );
    }
}
