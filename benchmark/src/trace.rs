//! The harness's own tracing: an in-memory span recorder for the spans the
//! benchmark puts around its calls into the crates, the exclusive-self-time
//! routine shared by the replay and the reader of `quatrex_probe::Timeline`,
//! and the percentile rule the reports use.
//!
//! Nothing here is called from inside the crates: spans are recorded from the
//! outside, kept in memory and written once when the traced pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span of the harness: a named interval with the span that
/// caused it and the workload it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder (single-threaded: the harness drives the crates
/// from one thread; rank threads are traced by the crates' own probe).
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Self {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; the span's parent is the innermost
    /// span open on entry. Returns `f`'s value and the span's index.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of span `id`.
    pub fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Exclusive self time of every recorded span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let intervals: Vec<Interval> = self
            .spans
            .iter()
            .map(|s| Interval {
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            })
            .collect();
        exclusive_self_ns(&intervals)
    }

    /// Chrome trace-event JSON of the harness spans plus the rank tracks of
    /// any crate timelines handed in (`(label, timeline)`; one `pid` each).
    pub fn chrome_trace_json(&self, timelines: &[(&str, &quatrex_probe::Timeline)]) -> String {
        let esc = quatrex_probe::json::escape;
        let mut events = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{},\"workload\":{}}}}}",
                esc(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                esc(&self.workload),
            ));
        }
        for (pid, (label, timeline)) in timelines.iter().enumerate() {
            for rank in &timeline.ranks {
                for s in &rank.spans {
                    events.push(format!(
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":{},\"cat\":{},\
                         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"solve\":{},\"workload\":{}}}}}",
                        pid + 1,
                        rank.rank,
                        esc(s.name),
                        esc(s.cat),
                        s.start_ns as f64 / 1e3,
                        s.dur_ns as f64 / 1e3,
                        esc(label),
                        esc(&self.workload),
                    ));
                }
            }
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// A closed interval on one thread's clock.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Exclusive self time of each interval: its duration minus the part its
/// direct children cover. The intervals of one thread nest or are disjoint
/// (spans are closures), so the parent of an interval is the innermost
/// earlier-starting interval that contains it; at equal starts the longer one
/// is the parent. Output is in input order.
pub fn exclusive_self_ns(intervals: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by(|&a, &b| {
        intervals[a]
            .start_ns
            .cmp(&intervals[b].start_ns)
            .then(intervals[b].end_ns.cmp(&intervals[a].end_ns))
            .then(a.cmp(&b))
    });
    let mut self_ns: Vec<u64> = intervals
        .iter()
        .map(|i| i.end_ns.saturating_sub(i.start_ns))
        .collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let iv = intervals[i];
        while let Some(&top) = stack.last() {
            if iv.end_ns <= intervals[top].end_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            let covered = iv.end_ns.min(intervals[parent].end_ns) - iv.start_ns;
            self_ns[parent] = self_ns[parent].saturating_sub(covered);
        }
        stack.push(i);
    }
    self_ns
}

/// Exclusive time of one rank split into named groups, plus the remainder
/// (`other`) to the rank's share of the wall clock: by construction
/// `Σ groups + other = wall`.
#[derive(Debug, Clone, Default)]
pub struct RankLedger {
    pub groups: BTreeMap<&'static str, f64>,
    pub other_s: f64,
}

/// Build the ledger of one rank from its probe spans: exclusive self time per
/// span (so `gemm_batch` inside `g.rgf.batch` is counted once), summed by the
/// group `group_of` assigns to the span's category. Categories without a
/// group, and the time inside no span at all, land in `other`.
pub fn rank_ledger(
    spans: &[quatrex_probe::SpanEvent],
    wall_s: f64,
    group_of: impl Fn(&str) -> Option<&'static str>,
) -> RankLedger {
    let intervals: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            start_ns: s.start_ns,
            end_ns: s.end_ns(),
        })
        .collect();
    let self_ns = exclusive_self_ns(&intervals);
    let mut ledger = RankLedger::default();
    for (s, ns) in spans.iter().zip(self_ns) {
        if let Some(group) = group_of(s.cat) {
            *ledger.groups.entry(group).or_insert(0.0) += ns as f64 * 1e-9;
        }
    }
    ledger.other_s = wall_s - ledger.groups.values().sum::<f64>();
    ledger
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, for a sample of `n`; `None` below twenty samples (the median is then
/// all a report states).
pub fn highest_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64).floor() as u32)
}

/// The `p`-th percentile of a sample: the smallest value with at least
/// `p` % of the sample at or below it.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the run-to-run spread the compare tool and the
/// acceptance check use. Zero for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let quantile = |k: usize| -> f64 {
        // statistics.quantiles, method="exclusive": position k·(n+1)/4.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_probe::SpanEvent;

    fn iv(start_ns: u64, end_ns: u64) -> Interval {
        Interval { start_ns, end_ns }
    }

    fn ev(cat: &'static str, start_ns: u64, dur_ns: u64, depth: u32) -> SpanEvent {
        SpanEvent {
            name: cat,
            cat,
            start_ns,
            dur_ns,
            depth,
            bytes: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // outer [0,100] ⊃ mid [10,60] ⊃ inner [20,30]
        let got = exclusive_self_ns(&[iv(0, 100), iv(10, 60), iv(20, 30)]);
        assert_eq!(got, vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_both_count_against_the_parent() {
        let got = exclusive_self_ns(&[iv(0, 100), iv(10, 30), iv(30, 70), iv(200, 250)]);
        assert_eq!(got, vec![40, 20, 40, 50]);
    }

    #[test]
    fn input_order_does_not_matter() {
        // Probe buffers hold exit order: children precede parents.
        let got = exclusive_self_ns(&[iv(20, 30), iv(10, 60), iv(0, 100)]);
        assert_eq!(got, vec![10, 40, 50]);
    }

    #[test]
    fn zero_length_spans_cost_nothing_and_break_nothing() {
        let got = exclusive_self_ns(&[iv(0, 100), iv(50, 50), iv(50, 80), iv(100, 100)]);
        assert_eq!(got, vec![70, 0, 30, 0]);
        // A zero-length span at the start of its parent is a child, not a parent.
        let got = exclusive_self_ns(&[iv(10, 10), iv(10, 40)]);
        assert_eq!(got, vec![0, 30]);
    }

    #[test]
    fn cross_category_nesting_is_counted_once() {
        // gemm_batch [10,40] inside g.rgf.batch [0,50]: Timeline::phase_seconds
        // would report 50 + 30; the ledger reports 20 + 30.
        let spans = [ev("gemm_batch", 10, 30, 1), ev("g.rgf.batch", 0, 50, 0)];
        let ledger = rank_ledger(&spans, 100e-9, |cat| match cat {
            "gemm_batch" => Some("gemm"),
            "g.rgf.batch" => Some("rgf"),
            _ => None,
        });
        assert!((ledger.groups["gemm"] - 30e-9).abs() < 1e-18);
        assert!((ledger.groups["rgf"] - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn ledger_rows_sum_to_rank_seconds() {
        let spans = [
            ev("comm.wait", 5, 10, 1),
            ev("conv.p", 0, 40, 0),
            ev("mix", 50, 10, 0),
            ev("comm.allreduce", 70, 20, 0),
        ];
        let wall_s = 120e-9;
        let ledger = rank_ledger(&spans, wall_s, |cat| match cat {
            "comm.wait" => Some("wait"),
            "conv.p" => Some("conv"),
            "comm.allreduce" => Some("allreduce"),
            _ => None, // "mix" has no group: it must land in `other`
        });
        let total_s = ledger.groups.values().sum::<f64>() + ledger.other_s;
        assert!((total_s - wall_s).abs() < 1e-18);
        assert!((ledger.groups["conv"] - 30e-9).abs() < 1e-18);
        // other = 50 ns inside no span + 10 ns of ungrouped mix
        assert!((ledger.other_s - 60e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_assigns_parents_and_self_time_excludes_children() {
        let mut rec = Recorder::new("w");
        let ((), outer) = rec.span("outer", |rec| {
            rec.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("b", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        let self_ns = rec.self_ns();
        let children =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(
            self_ns[outer],
            spans[outer].end_ns - spans[outer].start_ns - children
        );
        let json = rec.chrome_trace_json(&[]);
        let doc = quatrex_probe::json::parse(&json).expect("valid JSON");
        assert_eq!(
            doc.path("traceEvents[1].args.parent")
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
        assert_eq!(
            doc.path("traceEvents[2].args.workload")
                .and_then(|v| v.as_str()),
            Some("w")
        );
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(27), Some(62));
        assert_eq!(highest_percentile(45), Some(77));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(1000), Some(99));
        for n in 20..400usize {
            let p = highest_percentile(n).expect("n >= 20") as usize;
            let at_or_below = (p * n).div_ceil(100);
            assert!(n - at_or_below >= 10, "n={n} p={p}");
            assert!(
                n - ((p + 1) * n).div_ceil(100) < 10 || p == 99,
                "n={n} p={p} not highest"
            );
        }
    }

    #[test]
    fn percentile_and_median_pick_the_expected_samples() {
        let v: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        assert_eq!(median(&v), 10.5);
        assert_eq!(percentile(&v, 50), 10.0);
        assert_eq!(percentile(&v, 75), 15.0);
        assert_eq!(percentile(&v, 100), 20.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-15);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-15);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0, 4.0]), 0.0);
    }
}
