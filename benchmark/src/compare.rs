//! `--compare A.json B.json`: two result files of the suite, workload by
//! workload and end-to-end metric by metric — both medians, the ratio with
//! its base, and whether B is within the metric's bound of A, regressed, or
//! unresolved because the run-to-run quartile spread is wider than the bound.

use std::process::ExitCode;

use quatrex_probe::json::{self, Json};

use crate::trace::{median, quartile_spread};
use crate::{EndToEnd, END_TO_END};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Unresolved,
}

/// Judge `b` against the base `a` for one metric.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (base, new) = (median(a), median(b));
    let worse_by = if metric.lower_is_better {
        new - base
    } else {
        base - new
    } / base.abs().max(1e-300);
    if quartile_spread(a).max(quartile_spread(b)) > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path} is not a result file: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("quatrex-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A (base) = {path_a}\nB        = {path_b}");
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread", "bound"
    );
    let mut regressed = false;
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    for (workload, _) in workloads {
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values(&a, workload, metric.name),
                values(&b, workload, metric.name),
            ) else {
                println!(
                    "{workload:<14} {:<14} missing from one of the files",
                    metric.name
                );
                regressed = true;
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(metric, &va, &vb);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload:<14} {:<14} {:>16.9} {:>16.9} {:>9.4} {:>7.2}% {:>6.0}%  {}",
                metric.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                100.0 * quartile_spread(&va).max(quartile_spread(&vb)),
                100.0 * metric.bound,
                match v {
                    Verdict::WithinBound => "within bound",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
        // Failures are not a metric with a spread: B may not fail more
        // operations than A, nor trip a gate A passed.
        let field = |doc: &Json, key: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(key))
                .cloned()
        };
        let fail_frac = |doc: &Json| {
            let count = |key: &str| field(doc, key).and_then(|v| v.as_u64()).unwrap_or(0);
            count("failed") as f64 / count("attempted").max(1) as f64
        };
        let correct = |doc: &Json| {
            field(doc, "correct")
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
        };
        let ok = fail_frac(&b) <= fail_frac(&a) && (correct(&b) || !correct(&a));
        regressed |= !ok;
        println!(
            "{workload:<14} {:<14} {:>16.9} {:>16.9} {:>9} {:>8} {:>7}  {}",
            "fail_frac",
            fail_frac(&a),
            fail_frac(&b),
            "-",
            "-",
            "0%",
            if ok { "within bound" } else { "regressed" }
        );
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "wall_s",
        lower_is_better: true,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "gflops",
        lower_is_better: false,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(verdict(&LOWER, &base, &slower), Verdict::Regressed);
        assert_eq!(verdict(&LOWER, &slower, &base), Verdict::WithinBound);
        assert_eq!(verdict(&HIGHER, &base, &slower), Verdict::WithinBound);
        assert_eq!(verdict(&HIGHER, &slower, &base), Verdict::Regressed);
        assert_eq!(
            verdict(&LOWER, &base, &[1.05, 1.06, 1.04, 1.05, 1.05]),
            Verdict::WithinBound
        );
        // A spread wider than the bound decides nothing either way.
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(verdict(&LOWER, &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, &noisy, &slower), Verdict::Unresolved);
    }
}
