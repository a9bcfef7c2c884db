//! The suite: every workload, several timed runs and one traced run each,
//! every run a fresh child process of this binary (self re-exec), run one
//! after the other. Prints every metric with unit, sample count, spread and
//! bound, and writes the result file `--compare` reads.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use quatrex_probe::json::{self, Json};

use crate::trace::{median, quartile_spread};
use crate::{traced, workloads, END_TO_END};

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub out: Option<String>,
    pub check_only: bool,
}

/// The vector ISA the binary was compiled for, so a build that missed the
/// root `.cargo/config.toml` (`-C target-cpu=native`) is visible.
pub fn target_features() -> String {
    let mut s = String::new();
    for (on, name) in [
        (cfg!(target_feature = "sse2"), "sse2"),
        (cfg!(target_feature = "avx2"), "avx2"),
        (cfg!(target_feature = "fma"), "fma"),
        (cfg!(target_feature = "avx512f"), "avx512f"),
        (cfg!(target_feature = "neon"), "neon"),
    ] {
        if on {
            let _ = write!(s, " {name}");
        }
    }
    s
}

/// The result object of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("GATE FAILED")) {
        println!("  {line}");
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "child {workload} (trace {}) printed no result ({e}); exit {:?}",
            u8::from(traced),
            output.status.code()
        )
    })?;
    let field = |key: &str| doc.get(key).ok_or(format!("child result lacks {key}"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false) && output.status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn machine_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_commit\": {}, \"target_features\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json::escape(&cpu),
        json::escape(&command_line("rustc", &["-V"])),
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        json::escape(target_features().trim()),
    )
}

pub fn run(opts: &Options) -> ExitCode {
    let selected: Vec<_> = workloads::all()
        .into_iter()
        .filter(|w| opts.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if selected.is_empty() {
        eprintln!("quatrex-benchmark: no workload named {:?}", opts.workload);
        return ExitCode::from(2);
    }
    let (repeats, seconds) = if opts.check_only {
        (1, 0.0)
    } else {
        (opts.repeats, opts.seconds)
    };
    let mut all_correct = true;
    let mut file = format!(
        "{{\n\"seed\": {}, \"seconds\": {seconds}, \"repeats\": {repeats},\n\"machine\": {},\n\"workloads\": {{\n",
        opts.seed,
        machine_json()
    );
    for (wi, w) in selected.iter().enumerate() {
        println!("== {} — {}", w.name, w.why);
        let mut timed_runs = Vec::new();
        for r in 0..repeats {
            match run_child(w.name, opts.seed + r as u64, seconds, false) {
                Ok(child) => timed_runs.push(child),
                Err(message) => {
                    println!("  FAILED: {message}");
                    all_correct = false;
                }
            }
        }
        let traced_run = run_child(w.name, opts.seed, seconds, true);
        if let Err(message) = &traced_run {
            println!("  FAILED: {message}");
        }
        let correct = timed_runs.len() == repeats
            && timed_runs.iter().all(|c| c.correct)
            && traced_run.as_ref().is_ok_and(|c| c.correct);
        all_correct &= correct;
        let attempted: u64 = timed_runs.iter().map(|c| c.attempted).sum();
        let failed: u64 = timed_runs.iter().map(|c| c.failed).sum();
        let (gates, gates_failed) = traced_run
            .as_ref()
            .map_or((0, 0), |c| (c.attempted, c.failed));
        println!(
            "  gates: {} | timed pass {failed}/{attempted} operations failed (fail_frac {}) | traced pass {gates_failed}/{gates} gates failed",
            if correct { "all passed" } else { "FAILED" },
            failed as f64 / attempted.max(1) as f64,
        );
        let _ = write!(
            file,
            "{}\"{}\": {{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed},\n  \"end_to_end\": {{",
            if wi == 0 { "" } else { ",\n" },
            w.name
        );
        for (ei, e) in END_TO_END.iter().enumerate().filter(|_| !opts.check_only) {
            let samples: Vec<(f64, &str)> = timed_runs
                .iter()
                .filter_map(|c| c.metrics.iter().find(|(n, _, _)| n == e.name))
                .map(|(_, v, u)| (*v, u.as_str()))
                .collect();
            let values: Vec<f64> = samples.iter().map(|s| s.0).collect();
            let unit = samples.first().map_or("", |s| s.1);
            if values.is_empty() {
                continue;
            }
            println!(
                "  {:<30} {:>16.9} {:<8} median of n={} runs, quartile spread {:.2}%, bound {:.0}% ({} is better)",
                e.name,
                median(&values),
                unit,
                values.len(),
                100.0 * quartile_spread(&values),
                100.0 * e.bound,
                if e.lower_is_better { "lower" } else { "higher" },
            );
            let list: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = write!(
                file,
                "{}\n    \"{}\": {{\"unit\": \"{unit}\", \"values\": [{}]}}",
                if ei == 0 { "" } else { "," },
                e.name,
                list.join(", ")
            );
        }
        file.push_str("},\n  \"per_layer\": {");
        if let (Ok(child), false) = (&traced_run, opts.check_only) {
            for (mi, (name, value, unit)) in child.metrics.iter().enumerate() {
                println!("  {name:<30} {value:>16.9} {unit:<8} traced pass, n=1");
                let _ = write!(
                    file,
                    "{}\n    \"{name}\": {{\"unit\": \"{unit}\", \"value\": {value}}}",
                    if mi == 0 { "" } else { "," }
                );
            }
        }
        file.push_str("}}");
    }
    file.push_str("\n}\n}\n");
    if !opts.check_only {
        let path = opts.out.as_ref().map_or_else(
            || traced::out_dir().join("results.json"),
            std::path::PathBuf::from,
        );
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, &file));
        match written {
            Ok(()) => println!("results -> {}", path.display()),
            Err(e) => {
                eprintln!("quatrex-benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
