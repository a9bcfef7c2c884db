//! # quatrex-probe
//!
//! Low-overhead per-rank span tracing for the distributed SCBA cycle.
//!
//! The paper's sustained-performance claims rest on attributing every second
//! of an iteration to a phase of the `G → P → W → Σ` cycle (Tables 5/6,
//! Fig. 6). This crate provides the measurement layer for the reproduction:
//! a thread-local span recorder that each simulated rank (one OS
//! thread under `ThreadComm`) installs for the duration of a run, plus the
//! merge/analysis step that turns the per-rank buffers into a unified
//! timeline with Chrome trace-event JSON output (loadable in Perfetto or
//! `chrome://tracing`, one track per rank).
//!
//! Design constraints, in order:
//!
//! * **Zero heap allocations on the hot path when disabled.** Every probe
//!   call first reads a `const`-initialised thread-local; when no recorder is
//!   installed the call is one TLS read plus a branch. Span and mark names
//!   are `&'static str`, so no call ever formats or copies strings. This is
//!   pinned by a counting-allocator test (`tests/alloc_free.rs`), the same
//!   pattern that guards the RGF inner loop.
//! * **Lock-free within a rank.** The recorder lives in a `thread_local!`
//!   `RefCell`; ranks never contend. Buffers are pre-reserved at install so
//!   the enabled path amortises to a few stores per event.
//! * **One clock.** All ranks timestamp against a shared monotonic epoch
//!   (`Instant`) passed to [`install`], so merged tracks align without any
//!   cross-rank clock reconciliation.
//! * **One order.** A span is written at entry and its duration filled in
//!   at exit, so a rank's buffer is in timeline order by construction (by
//!   start, a parent before its children). Every metric is one borrowed
//!   pass over it: nothing clones or sorts the spans.
//!
//! The analysis half ([`Timeline`]) derives the phase metrics folded into
//! `DistReport`: per-phase exclusive seconds, measured overlap efficiency
//! (fraction of in-flight transposition time hidden under compute),
//! and a time-based load-imbalance factor across the rank grid.

pub mod json;

/// The one clock of the workspace. Everything that timestamps — solvers,
/// kernels, benches — imports [`clock::Instant`] from here instead of
/// `std::time`, so every measured duration is taken against the same
/// monotonic source as the probe spans and the merged timeline never has to
/// reconcile mixed clocks. The `one-clock` rule of `quatrex-lint` enforces
/// the convention; this module is the sanctioned import path.
pub mod clock {
    pub use std::time::{Duration, Instant};
}

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Category assigned to the instantaneous "collective posted" marks recorded
/// by the runtime; the k-th mark with this category pairs with the k-th
/// [`CAT_COMM_WAIT`] span on the same rank (the communicator enforces FIFO
/// wait order, so the pairing is exact).
pub const CAT_COMM_POST: &str = "comm.post";
/// Category assigned to the blocking `CommHandle::wait` spans recorded by the
/// runtime.
pub const CAT_COMM_WAIT: &str = "comm.wait";
/// The [`Timeline::phase_seconds`] entry for rank time inside no span.
pub const UNTRACED: &str = "untraced";

/// A span: a named, categorised interval on one rank's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"transposition.wait.fwd_g"`.
    pub name: &'static str,
    /// Static category used for phase aggregation, e.g. `"comm.wait"`.
    pub cat: &'static str,
    /// Start, nanoseconds since the shared epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at entry (0 = top level on this rank).
    pub depth: u32,
    /// Optional payload size attribution (0 when not applicable).
    pub bytes: u64,
}

impl SpanEvent {
    /// End of the span, nanoseconds since the shared epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// An instantaneous event (e.g. a non-blocking collective being posted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkEvent {
    /// Static mark name, e.g. `"transposition.post.fwd_g"`.
    pub name: &'static str,
    /// Static category, e.g. [`CAT_COMM_POST`].
    pub cat: &'static str,
    /// Timestamp, nanoseconds since the shared epoch.
    pub ts_ns: u64,
    /// Optional payload size attribution.
    pub bytes: u64,
}

/// Everything one rank recorded between [`install`] and [`finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankTrace {
    /// The simulated rank that recorded this buffer.
    pub rank: usize,
    /// Spans in timeline order, recorded at entry: ascending start, a parent
    /// before its children. Every analysis pass reads this buffer as it is.
    pub spans: Vec<SpanEvent>,
    /// Instantaneous marks in record order.
    pub marks: Vec<MarkEvent>,
}

struct Recorder {
    rank: usize,
    epoch: Instant,
    depth: u32,
    spans: Vec<SpanEvent>,
    marks: Vec<MarkEvent>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a recorder on the current thread. All subsequent [`span`] /
/// [`mark`] calls on this thread record into it until
/// [`finish`] is called. `epoch` is the shared clock zero — pass the same
/// `Instant` to every rank so the merged tracks align.
pub fn install(rank: usize, epoch: Instant) {
    let _ = RECORDER.try_with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank,
            epoch,
            depth: 0,
            spans: Vec::with_capacity(4096),
            marks: Vec::with_capacity(1024),
        });
    });
}

/// Uninstall the current thread's recorder and return its buffer, or `None`
/// if no recorder was installed.
pub fn finish() -> Option<RankTrace> {
    RECORDER
        .try_with(|r| r.borrow_mut().take())
        .ok()
        .flatten()
        .map(|rec| RankTrace {
            rank: rec.rank,
            spans: rec.spans,
            marks: rec.marks,
        })
}

/// Whether a recorder is installed on the current thread.
pub fn is_enabled() -> bool {
    RECORDER.try_with(|r| r.borrow().is_some()).unwrap_or(false)
}

/// Push the span's event with its start, depth and payload (timeline order:
/// see the crate doc); [`exit`] fills in its duration through the returned
/// index.
#[inline]
fn enter(name: &'static str, cat: &'static str, bytes: u64) -> Option<usize> {
    RECORDER
        .try_with(|r| {
            r.borrow_mut().as_mut().map(|rec| {
                rec.spans.push(SpanEvent {
                    name,
                    cat,
                    start_ns: rec.epoch.elapsed().as_nanos() as u64,
                    dur_ns: 0,
                    depth: rec.depth,
                    bytes,
                });
                rec.depth += 1;
                rec.spans.len() - 1
            })
        })
        .ok()
        .flatten()
}

/// Close the span [`enter`] pushed at `index`: fill in its duration.
#[inline]
fn exit(index: usize) {
    let _ = RECORDER.try_with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.depth = rec.depth.saturating_sub(1);
            let end = rec.epoch.elapsed().as_nanos() as u64;
            if let Some(s) = rec.spans.get_mut(index) {
                s.dur_ns = end.saturating_sub(s.start_ns);
            }
        }
    });
}

/// Run `f` inside a recorded span. When no recorder is installed this is one
/// thread-local read plus a branch around the call — no clock read, no
/// allocation.
#[inline]
pub fn span<R>(name: &'static str, cat: &'static str, f: impl FnOnce() -> R) -> R {
    span_bytes(name, cat, 0, f)
}

/// Like [`span`], attributing `bytes` to the recorded event.
#[inline]
pub fn span_bytes<R>(
    name: &'static str,
    cat: &'static str,
    bytes: u64,
    f: impl FnOnce() -> R,
) -> R {
    let entered = enter(name, cat, bytes);
    let out = f();
    if let Some(index) = entered {
        exit(index);
    }
    out
}

/// Record an instantaneous mark (e.g. a non-blocking collective post).
#[inline]
pub fn mark(name: &'static str, cat: &'static str, bytes: u64) {
    let _ = RECORDER.try_with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let ts_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.marks.push(MarkEvent {
                name,
                cat,
                ts_ns,
                bytes,
            });
        }
    });
}

impl RankTrace {
    /// Check that the recorded spans form a well-formed nesting per rank:
    /// depths step down by at most one level at a time and every span at
    /// depth `d > 0` is contained in the interval of its depth `d - 1`
    /// ancestor.
    pub(crate) fn validate_nesting(&self) -> Result<(), String> {
        let mut stack: Vec<&SpanEvent> = Vec::new();
        for s in &self.spans {
            let d = s.depth as usize;
            stack.truncate(d);
            if stack.len() != d {
                return Err(format!(
                    "rank {}: span '{}' at depth {} has no depth-{} ancestor",
                    self.rank,
                    s.name,
                    s.depth,
                    d.saturating_sub(1)
                ));
            }
            if let Some(parent) = stack.last() {
                if s.start_ns < parent.start_ns || s.end_ns() > parent.end_ns() {
                    return Err(format!(
                        "rank {}: span '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                        self.rank,
                        s.name,
                        s.start_ns,
                        s.end_ns(),
                        parent.name,
                        parent.start_ns,
                        parent.end_ns()
                    ));
                }
            }
            stack.push(s);
        }
        Ok(())
    }

    /// Total seconds spent in spans whose category satisfies `include`,
    /// counting only spans with no already-counted ancestor (so nested spans
    /// of included categories are not double-counted).
    pub(crate) fn busy_seconds(&self, include: impl Fn(&str) -> bool) -> f64 {
        let mut counted_at: Vec<bool> = Vec::new();
        let mut total_ns: u128 = 0;
        for s in &self.spans {
            let d = s.depth as usize;
            if counted_at.len() <= d {
                counted_at.resize(d + 1, false);
            }
            let ancestor_counted = counted_at[..d].iter().any(|&b| b);
            let count = include(s.cat) && !ancestor_counted;
            counted_at[d] = count;
            if count {
                total_ns += s.dur_ns as u128;
            }
        }
        total_ns as f64 * 1e-9
    }
}

/// Merge-sorted (start, end) interval union; returns disjoint intervals.
fn union_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

fn intervals_len(intervals: &[(u64, u64)]) -> u128 {
    intervals.iter().map(|&(s, e)| (e - s) as u128).sum()
}

/// Total length of the intersection of two disjoint, sorted interval sets.
fn intervals_intersection_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u128 {
    let (mut i, mut j) = (0, 0);
    let mut total: u128 = 0;
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += (hi - lo) as u128;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The merged multi-rank timeline: one [`RankTrace`] per rank, one shared
/// clock. Produced by [`Timeline::merge`] after a distributed run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Per-rank buffers, sorted by rank.
    pub ranks: Vec<RankTrace>,
}

impl Timeline {
    /// Merge per-rank buffers into one timeline (sorts by rank).
    pub fn merge(mut traces: Vec<RankTrace>) -> Self {
        traces.sort_by_key(|t| t.rank);
        Timeline { ranks: traces }
    }

    /// Number of rank tracks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Validate span nesting on every rank track.
    pub fn validate(&self) -> Result<(), String> {
        for rt in &self.ranks {
            rt.validate_nesting()?;
        }
        Ok(())
    }

    /// Exclusive seconds per category, summed across ranks: a span counts
    /// its duration minus its direct children's, so every instant of a rank
    /// inside some span is counted once, under the innermost span's
    /// category. One more entry, [`UNTRACED`], holds the rest of the run's
    /// rank-seconds, `n_ranks × wall_seconds − Σ categories` (time inside no
    /// span), so the entries sum to `n_ranks × wall_seconds`. Returned
    /// sorted by category name (deterministic); empty when no rank recorded
    /// a trace.
    pub fn phase_seconds(&self, wall_seconds: f64) -> Vec<(String, f64)> {
        if self.ranks.is_empty() {
            return Vec::new();
        }
        let mut totals: BTreeMap<&'static str, i128> = BTreeMap::new();
        for rt in &self.ranks {
            // Category of the open span at each depth above the current one.
            let mut open: Vec<&'static str> = Vec::new();
            for s in &rt.spans {
                open.truncate(s.depth as usize);
                *totals.entry(s.cat).or_insert(0) += s.dur_ns as i128;
                if let Some(parent) = open.last() {
                    *totals.entry(parent).or_insert(0) -= s.dur_ns as i128;
                }
                open.push(s.cat);
            }
        }
        let traced_ns: i128 = totals.values().sum();
        let rank_seconds = self.n_ranks() as f64 * wall_seconds;
        let mut phases: BTreeMap<&'static str, f64> = totals
            .into_iter()
            .map(|(cat, ns)| (cat, ns as f64 * 1e-9))
            .collect();
        phases.insert(UNTRACED, rank_seconds - traced_ns as f64 * 1e-9);
        phases
            .into_iter()
            .map(|(cat, s)| (cat.to_string(), s))
            .collect()
    }

    /// Per-rank busy seconds over the categories selected by `include`
    /// (no-double-count rule as in `RankTrace::busy_seconds`).
    pub fn busy_seconds_per_rank(&self, include: impl Fn(&str) -> bool) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|rt| rt.busy_seconds(&include))
            .collect()
    }

    /// Time-based load-imbalance factor over the rank grid: max over ranks of
    /// busy seconds divided by the mean (1.0 = perfectly balanced). `None`
    /// when no rank recorded any included span.
    pub fn imbalance_factor(&self, include: impl Fn(&str) -> bool) -> Option<f64> {
        let busy = self.busy_seconds_per_rank(include);
        if busy.is_empty() {
            return None;
        }
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        Some(max / mean)
    }

    /// Measured overlap efficiency: the fraction of in-flight collective time
    /// that was hidden under compute.
    ///
    /// Per rank, the k-th [`CAT_COMM_POST`] mark pairs with the k-th
    /// [`CAT_COMM_WAIT`] span (FIFO wait order is enforced by the
    /// communicator); each pair whose post name satisfies `pair_filter`
    /// contributes the in-flight window `[post, wait end]`. The windows are
    /// unioned, intersected with the union of spans whose category satisfies
    /// `compute_filter`, and the hidden/in-flight ratio is aggregated over
    /// ranks. `None` when no filtered exchange was recorded.
    pub fn overlap_efficiency(
        &self,
        pair_filter: impl Fn(&str) -> bool,
        compute_filter: impl Fn(&str) -> bool,
    ) -> Option<f64> {
        let mut inflight_total: u128 = 0;
        let mut hidden_total: u128 = 0;
        let mut any = false;
        for rt in &self.ranks {
            let posts: Vec<&MarkEvent> =
                rt.marks.iter().filter(|m| m.cat == CAT_COMM_POST).collect();
            // Wait spans on one rank never nest, so their start order is
            // their completion order, which the communicator pins to
            // posting order.
            let waits: Vec<&SpanEvent> =
                rt.spans.iter().filter(|s| s.cat == CAT_COMM_WAIT).collect();
            let n = posts.len().min(waits.len());
            let mut windows: Vec<(u64, u64)> = Vec::new();
            for k in 0..n {
                if !pair_filter(posts[k].name) {
                    continue;
                }
                windows.push((posts[k].ts_ns, waits[k].end_ns()));
            }
            if windows.is_empty() {
                continue;
            }
            any = true;
            let inflight = union_intervals(windows);
            let compute = union_intervals(
                rt.spans
                    .iter()
                    .filter(|s| compute_filter(s.cat))
                    .map(|s| (s.start_ns, s.end_ns()))
                    .collect(),
            );
            inflight_total += intervals_len(&inflight);
            hidden_total += intervals_intersection_len(&inflight, &compute);
        }
        if !any || inflight_total == 0 {
            return None;
        }
        Some(hidden_total as f64 / inflight_total as f64)
    }

    /// Serialise the timeline as Chrome trace-event JSON (the format Perfetto
    /// and `chrome://tracing` load): one `pid`, one `tid` per rank, complete
    /// (`"X"`) events for spans and instant (`"i"`) events for marks, with
    /// `depth` and `bytes` in `args`. Timestamps are microseconds with
    /// nanosecond precision.
    pub fn chrome_trace_json(&self) -> String {
        let n_events: usize = self
            .ranks
            .iter()
            .map(|r| r.spans.len() + r.marks.len() + 1)
            .sum();
        let mut out = String::with_capacity(160 * n_events + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&ev);
        };
        for rt in &self.ranks {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"rank {}\"}}}}",
                    rt.rank, rt.rank
                ),
            );
            for s in &rt.spans {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                         \"ts\":{:.3},\"dur\":{:.3},\
                         \"args\":{{\"depth\":{},\"bytes\":{}}}}}",
                        json::escape(s.name),
                        json::escape(s.cat),
                        rt.rank,
                        s.start_ns as f64 / 1000.0,
                        s.dur_ns as f64 / 1000.0,
                        s.depth,
                        s.bytes
                    ),
                );
            }
            for m in &rt.marks {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                         \"tid\":{},\"ts\":{:.3},\"args\":{{\"bytes\":{}}}}}",
                        json::escape(m.name),
                        json::escape(m.cat),
                        rt.rank,
                        m.ts_ns as f64 / 1000.0,
                        m.bytes
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One event parsed back out of Chrome trace-event JSON (see
/// [`parse_chrome_trace`]); owned strings because the source text is
/// arbitrary.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// `"X"`, `"i"`, or `"M"`.
    pub ph: String,
    /// Event name.
    pub name: String,
    /// Event category (empty for metadata events).
    pub cat: String,
    /// Rank track.
    pub tid: u64,
    /// Start, nanoseconds (0 for metadata events).
    pub ts_ns: u64,
    /// Duration, nanoseconds (0 for non-span events).
    pub dur_ns: u64,
    /// `args.depth` when present.
    pub depth: u32,
    /// `args.bytes` when present.
    pub bytes: u64,
}

/// Parse Chrome trace-event JSON produced by [`Timeline::chrome_trace_json`]
/// (or any trace with the same `traceEvents` shape) back into events — the
/// round-trip check used by tests and by the bench gate.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let root = json::parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let us_to_ns = |v: f64| (v * 1000.0).round().max(0.0) as u64;
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        ev.as_obj()
            .ok_or_else(|| "trace event is not an object".to_string())?;
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "trace event missing ph".to_string())?
            .to_string();
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string();
        let cat = ev
            .get("cat")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string();
        let tid = ev.get("tid").and_then(|v| v.as_u64()).unwrap_or(0);
        let ts_ns = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .map(us_to_ns)
            .unwrap_or(0);
        let dur_ns = ev
            .get("dur")
            .and_then(|v| v.as_f64())
            .map(us_to_ns)
            .unwrap_or(0);
        let depth = ev
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as u32;
        let bytes = ev
            .get("args")
            .and_then(|a| a.get("bytes"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        if ph == "X" && ev.get("dur").is_none() {
            return Err(format!("complete event '{name}' missing dur"));
        }
        out.push(ParsedEvent {
            ph,
            name,
            cat,
            tid,
            ts_ns,
            dur_ns,
            depth,
            bytes,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_probe<R>(rank: usize, f: impl FnOnce() -> R) -> (R, RankTrace) {
        install(rank, Instant::now());
        let out = f();
        let trace = finish().expect("probe installed");
        (out, trace)
    }

    #[test]
    fn disabled_probe_records_nothing_and_returns_values() {
        assert!(!is_enabled());
        let v = span("outer", "test", || 41 + 1);
        assert_eq!(v, 42);
        mark("m", CAT_COMM_POST, 10);
        assert!(finish().is_none());
    }

    #[test]
    fn spans_nest_with_depths_and_validate() {
        let (_, trace) = with_probe(2, || {
            span("outer", "phase.a", || {
                span("inner1", "phase.b", || std::hint::black_box(1));
                span("inner2", "phase.b", || std::hint::black_box(2));
            });
            span("tail", "phase.c", || std::hint::black_box(3));
        });
        assert_eq!(trace.rank, 2);
        assert_eq!(trace.spans.len(), 4);
        // The buffer is entry order: a parent before its children.
        assert_eq!(trace.spans[0].name, "outer");
        assert_eq!(trace.spans[1].name, "inner1");
        assert_eq!(trace.spans[0].depth, 0);
        assert_eq!(trace.spans[1].depth, 1);
        trace.validate_nesting().expect("well-formed nesting");
    }

    #[test]
    fn nesting_validation_rejects_escaping_child() {
        let trace = RankTrace {
            rank: 0,
            spans: vec![
                SpanEvent {
                    name: "parent",
                    cat: "a",
                    start_ns: 0,
                    dur_ns: 100,
                    depth: 0,
                    bytes: 0,
                },
                SpanEvent {
                    name: "child",
                    cat: "a",
                    start_ns: 50,
                    dur_ns: 100,
                    depth: 1,
                    bytes: 0,
                },
            ],
            marks: vec![],
        };
        assert!(trace.validate_nesting().is_err());
    }

    #[test]
    fn phase_seconds_do_not_double_count_nested_same_category() {
        let trace = RankTrace {
            rank: 0,
            spans: vec![
                SpanEvent {
                    name: "outer",
                    cat: "g",
                    start_ns: 0,
                    dur_ns: 1_000_000_000,
                    depth: 0,
                    bytes: 0,
                },
                SpanEvent {
                    name: "inner",
                    cat: "g",
                    start_ns: 100,
                    dur_ns: 500_000_000,
                    depth: 1,
                    bytes: 0,
                },
                SpanEvent {
                    name: "other",
                    cat: "w",
                    start_ns: 200,
                    dur_ns: 250_000_000,
                    depth: 1,
                    bytes: 0,
                },
            ],
            marks: vec![],
        };
        let tl = Timeline::merge(vec![trace]);
        let phases = tl.phase_seconds(1.5);
        let get = |cat: &str| {
            phases
                .iter()
                .find(|(c, _)| c == cat)
                .map(|&(_, s)| s)
                .unwrap()
        };
        // Outer self 0.25 s plus inner 0.5 s: each instant once.
        assert!((get("g") - 0.75).abs() < 1e-9, "g: {}", get("g"));
        assert!((get("w") - 0.25).abs() < 1e-9);
        assert!((get(UNTRACED) - 0.5).abs() < 1e-9);
        let sum: f64 = phases.iter().map(|&(_, s)| s).sum();
        assert!(
            (sum - 1.5).abs() < 1e-9,
            "phases sum to rank-seconds: {sum}"
        );
        assert!(Timeline::default().phase_seconds(1.0).is_empty());
    }

    #[test]
    fn imbalance_factor_is_max_over_mean() {
        let mk = |rank: usize, dur_ns: u64| RankTrace {
            rank,
            spans: vec![SpanEvent {
                name: "work",
                cat: "g",
                start_ns: 0,
                dur_ns,
                depth: 0,
                bytes: 0,
            }],
            marks: vec![],
        };
        let tl = Timeline::merge(vec![mk(0, 3_000_000_000), mk(1, 1_000_000_000)]);
        let f = tl.imbalance_factor(|cat| cat == "g").unwrap();
        assert!((f - 1.5).abs() < 1e-9, "3s vs 1s → max/mean = 1.5, got {f}");
        assert!(tl.imbalance_factor(|cat| cat == "absent").is_none());
    }

    #[test]
    fn overlap_efficiency_measures_hidden_fraction() {
        // One exchange in flight [100, 1100] ns; compute covers [100, 600] of
        // it → 50% hidden.
        let trace = RankTrace {
            rank: 0,
            spans: vec![
                SpanEvent {
                    name: "conv",
                    cat: "conv.p",
                    start_ns: 100,
                    dur_ns: 500,
                    depth: 0,
                    bytes: 0,
                },
                SpanEvent {
                    name: "wait.fwd_g",
                    cat: CAT_COMM_WAIT,
                    start_ns: 1000,
                    dur_ns: 100,
                    depth: 0,
                    bytes: 64,
                },
            ],
            marks: vec![MarkEvent {
                name: "post.fwd_g",
                cat: CAT_COMM_POST,
                ts_ns: 100,
                bytes: 64,
            }],
        };
        let tl = Timeline::merge(vec![trace]);
        let eff = tl
            .overlap_efficiency(
                |name| name.contains("fwd_g"),
                |cat| cat.starts_with("conv."),
            )
            .unwrap();
        assert!((eff - 0.5).abs() < 1e-9, "expected 0.5, got {eff}");
        // Filtering out the only pair yields None.
        assert!(tl
            .overlap_efficiency(
                |name| name.contains("bwd_p"),
                |cat| cat.starts_with("conv.")
            )
            .is_none());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let (_, trace) = with_probe(1, || {
            span_bytes("transposition.wait.fwd_g", CAT_COMM_WAIT, 4096, || {
                std::hint::black_box(0)
            });
            mark("transposition.post.fwd_g", CAT_COMM_POST, 4096);
            span("scba.g.energy", "g.energy", || std::hint::black_box(1));
        });
        let tl = Timeline::merge(vec![trace.clone()]);
        let text = tl.chrome_trace_json();
        let events = parse_chrome_trace(&text).expect("trace parses");
        let spans: Vec<&ParsedEvent> = events.iter().filter(|e| e.ph == "X").collect();
        let marks: Vec<&ParsedEvent> = events.iter().filter(|e| e.ph == "i").collect();
        let meta: Vec<&ParsedEvent> = events.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(spans.len(), trace.spans.len());
        assert_eq!(marks.len(), trace.marks.len());
        assert_eq!(meta.len(), 1);
        // Timestamps, names and payloads survive the round trip exactly
        // (µs with 3 decimals is ns resolution).
        for (parsed, original) in spans.iter().zip(&trace.spans) {
            assert_eq!(parsed.name, original.name);
            assert_eq!(parsed.cat, original.cat);
            assert_eq!(parsed.ts_ns, original.start_ns);
            assert_eq!(parsed.dur_ns, original.dur_ns);
            assert_eq!(parsed.depth, original.depth);
            assert_eq!(parsed.bytes, original.bytes);
            assert_eq!(parsed.tid, 1);
        }
        assert_eq!(marks[0].bytes, 4096);
    }

    #[test]
    fn interval_union_and_intersection() {
        let u = union_intervals(vec![(0, 10), (5, 15), (20, 30), (30, 40)]);
        assert_eq!(u, vec![(0, 15), (20, 40)]);
        assert_eq!(intervals_len(&u), 35);
        let v = union_intervals(vec![(12, 25)]);
        assert_eq!(intervals_intersection_len(&u, &v), 3 + 5);
    }
}
