//! Registry-free repo-invariant lints for the QuaTrEx-RS workspace.
//!
//! A deliberately small line/token scanner (no `syn`, no proc-macro
//! machinery — the container has no registry access) that enforces the
//! conventions the runtime's verification story depends on:
//!
//! | rule            | invariant                                                        |
//! |-----------------|------------------------------------------------------------------|
//! | `one-clock`     | no `std::time::Instant` outside `quatrex-probe`; all timing goes through `quatrex_probe::clock` so traces share one epoch |
//! | `no-unwrap`     | no `.unwrap()` / `.expect(...)` in the rank loop (`crates/core/src/dist`) and `crates/runtime` library code — rank threads must fail with diagnostics, not anonymous panics |
//! | `no-println`    | no `println!` / `print!` in library crates — reports go through returned structs or probe counters, stdout belongs to the bin targets |
//! | `per-energy-gemm`| library code in `crates/{rgf,obc,core}` calls the batched GEMM entry points (`gemm_batch`), not raw per-energy `gemm`, so loops over energies share one operand packing — frozen reference paths carry explicit `lint:allow(per-energy-gemm)` markers |
//! | `allocating-inverse`| library code in `crates/{rgf,obc,core}` does not reach `lu::inverse`, `lu::solve` or `LuFactorization::new` — each allocates factors and work planes per call where a `LuScratch` the caller already holds allocates nothing; cold fallbacks carry `lint:allow(allocating-inverse)` at the (path-qualified) call |
//! | `no-raw-sync`   | no `std::sync::Mutex` / `std::sync::mpsc` and no thread start (`std::thread::spawn` / `scope` / `Builder`) in library crates — locks and channels go through the workspace shims (`parking_lot`, `crossbeam`) and threads start only in `ThreadComm`'s scoped rank spawn (its one `lint:allow`), which carry the lock-order, race-detection and schedule-exploration seams; a raw primitive is invisible to all three; `crates/sync` (the engine itself) is exempt |
//! | `stale-allow`   | every `lint:allow`/`lint:allow-file` marker must suppress at least one finding — a marker that matches nothing is dead weight that rots into false confidence when the code under it changes |
//!
//! Test code (`tests/`, `benches/`, `#[cfg(test)]` modules) is exempt, and a
//! justified exception is granted in place with
//! `// lint:allow(<rule>): <reason>` on the offending line or the line
//! directly above it. A file that is a frozen reference implementation in
//! its entirety may carry `// lint:allow-file(<rule>): <reason>` instead.
//! Markers for rules that do not apply to the file (or inside test code) are
//! ignored entirely — neither honoured nor reported stale.
//!
//! The scanner strips comments and string literals (including raw strings
//! with any hash depth and nested block comments) before matching, tracks
//! `#[cfg(test)]` item extents by brace depth, and never parses — which keeps
//! it fast enough to run on every CI push and simple enough to be obviously
//! correct on the token patterns above.

use std::fmt;
use std::path::{Path, PathBuf};

/// The enforced rules. `name()` is the identifier used in
/// `// lint:allow(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `std::time::Instant` outside `quatrex-probe`.
    OneClock,
    /// `.unwrap()` / `.expect(` in rank-loop/runtime library code.
    NoUnwrap,
    /// `println!` / `print!` in library code.
    NoPrintln,
    /// Raw per-energy `gemm(` in `crates/{rgf,obc,core}` library code.
    PerEnergyGemm,
    /// `lu::inverse` / `lu::solve` / `LuFactorization::new` in
    /// `crates/{rgf,obc,core}` library code.
    AllocatingInverse,
    /// `std::sync::Mutex` / `std::sync::mpsc` / `std::thread::{spawn, scope,
    /// Builder}` in library code outside `crates/sync`.
    NoRawSync,
    /// A `lint:allow`/`lint:allow-file` marker that suppresses no finding.
    StaleAllow,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::OneClock,
        Rule::NoUnwrap,
        Rule::NoPrintln,
        Rule::PerEnergyGemm,
        Rule::AllocatingInverse,
        Rule::NoRawSync,
        Rule::StaleAllow,
    ];

    /// The rule identifier used in diagnostics and `lint:allow`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::OneClock => "one-clock",
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoPrintln => "no-println",
            Rule::PerEnergyGemm => "per-energy-gemm",
            Rule::AllocatingInverse => "allocating-inverse",
            Rule::NoRawSync => "no-raw-sync",
            Rule::StaleAllow => "stale-allow",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path of the offending file, relative to the scanned root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Result of a tree scan.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, in path/line order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Which rules apply to a file, derived from its path relative to the repo
/// root (forward-slash normalised).
fn applicable_rules(rel: &str) -> Vec<Rule> {
    if !rel.starts_with("crates/") || rel.contains("/fixtures/") {
        return Vec::new();
    }
    // Integration tests, benches and examples are exempt from every rule.
    if rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/") {
        return Vec::new();
    }
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/src/main.rs");
    let mut rules = Vec::new();
    if !rel.starts_with("crates/probe/") {
        rules.push(Rule::OneClock);
    }
    if (rel.starts_with("crates/core/src/dist/") || rel.starts_with("crates/runtime/src/"))
        && !is_bin
    {
        rules.push(Rule::NoUnwrap);
    }
    if !is_bin {
        rules.push(Rule::NoPrintln);
    }
    if (rel.starts_with("crates/rgf/src/")
        || rel.starts_with("crates/obc/src/")
        || rel.starts_with("crates/core/src/"))
        && !is_bin
    {
        rules.push(Rule::PerEnergyGemm);
        rules.push(Rule::AllocatingInverse);
    }
    // `crates/sync` IS the instrumentation engine: it must build on the raw
    // primitives the shims wrap, so the rule would be circular there.
    if !rel.starts_with("crates/sync/") && !is_bin {
        rules.push(Rule::NoRawSync);
    }
    // StaleAllow is never in the applicable set: it fires from marker
    // bookkeeping in `lint_source`, not from line matching.
    rules
}

/// `true` when `code` contains `token` not preceded by an identifier
/// character (so `println!` does not match inside `eprintln!`).
fn has_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let preceded = at > 0
            && code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if !preceded {
            return true;
        }
        from = at + token.len();
    }
    false
}

/// `true` when `code` contains `token` with identifier boundaries on BOTH
/// ends — so `std::sync::Mutex` does not match inside `std::sync::MutexGuard`.
fn has_delimited_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let preceded = at > 0
            && code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let followed = code[at + token.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if !preceded && !followed {
            return true;
        }
        from = at + token.len();
    }
    false
}

/// The items of a brace-grouped import `<prefix>{a, b as c, …}` on this
/// stripped line, trimmed (empty when the line has no such group).
fn grouped_items<'a>(code: &'a str, prefix: &str) -> impl Iterator<Item = &'a str> {
    let group = code.find(prefix).map_or("", |pos| {
        let group = &code[pos + prefix.len()..];
        group.split('}').next().unwrap_or(group)
    });
    group
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
}

/// Does this stripped line reach a raw std sync primitive or start a thread
/// (directly or via a brace-grouped `use std::sync::{...}` /
/// `use std::thread::{...}`)? `std::sync::Arc`, `std::sync::atomic`,
/// `MutexGuard` re-exports, `std::thread::current` etc. stay legal — only the
/// blocking primitives the shims replace and the thread starts the runtime
/// owns are flagged.
fn uses_raw_sync(code: &str) -> bool {
    const RAW: [(&str, &[&str]); 2] = [
        ("std::sync::", &["Mutex", "mpsc"]),
        ("std::thread::", &["spawn", "scope", "Builder"]),
    ];
    RAW.iter().any(|&(module, items)| {
        let group = format!("{module}{{");
        items
            .iter()
            .any(|item| has_delimited_token(code, &format!("{module}{item}")))
            || grouped_items(code, &group).any(|grouped| {
                // First word of the item, so `Mutex as StdMutex` matches but
                // `MutexGuard` does not.
                let first = grouped
                    .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .next();
                first.is_some_and(|word| items.contains(&word))
            })
    })
}

/// Does this stripped line reach one of the allocating LU entry points:
/// `lu::inverse` / `lu::solve` (called path-qualified, or imported by name —
/// directly or through a brace-grouped `lu::{...}`) or `LuFactorization::new`?
/// `inverse_flops`, `LuScratch` and the rest of the module stay legal.
fn uses_allocating_inverse(code: &str) -> bool {
    if has_delimited_token(code, "lu::inverse")
        || has_delimited_token(code, "lu::solve")
        || has_delimited_token(code, "LuFactorization::new")
    {
        return true;
    }
    grouped_items(code, "lu::{").any(|item| matches!(item, "inverse" | "solve"))
}

/// Does this stripped line use `std::time::Instant` (directly or via a
/// brace-grouped `use std::time::{...}`)?
fn uses_std_instant(code: &str) -> bool {
    if code.contains("std::time::Instant") {
        return true;
    }
    grouped_items(code, "std::time::{").any(|item| item == "Instant")
}

/// Multi-line lexer state: what construct is open at the end of a line.
enum LexState {
    Code,
    /// Inside `/* */` comments, with nesting depth.
    BlockComment(u32),
    /// Inside a regular `"` string.
    Str,
    /// Inside a raw string with `hashes` trailing `#` characters.
    RawStr(u32),
}

/// Strip comments and string/char literals from one line, replacing their
/// contents with spaces so byte offsets keep meaning, and carry the lexer
/// state to the next line.
fn strip_line(line: &str, state: LexState) -> (String, LexState) {
    let bytes = line.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0;
    let mut state = state;
    while i < bytes.len() {
        match state {
            LexState::BlockComment(depth) => {
                if bytes[i..].starts_with(b"*/") {
                    state = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if bytes[i..].starts_with(b"/*") {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            LexState::Str => {
                if bytes[i] == b'\\' {
                    i += 2;
                } else if bytes[i] == b'"' {
                    state = LexState::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if bytes[i] == b'"' {
                    let tail = &bytes[i + 1..];
                    let n = hashes as usize;
                    if tail.len() >= n && tail[..n].iter().all(|&b| b == b'#') {
                        state = LexState::Code;
                        i += 1 + n;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            LexState::Code => {
                if bytes[i..].starts_with(b"//") {
                    break; // rest of the line is a comment
                }
                if bytes[i..].starts_with(b"/*") {
                    state = LexState::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw string start: r"..." or r#"..."# (also br/cr prefixes).
                if bytes[i] == b'r'
                    && !(i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
                {
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while j < bytes.len() && bytes[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'"' {
                        out[i..j + 1].copy_from_slice(&bytes[i..j + 1]);
                        state = LexState::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    // A lone `r#` is a raw identifier prefix: fall through.
                }
                if bytes[i] == b'"' {
                    out[i] = b'"';
                    state = LexState::Str;
                    i += 1;
                    continue;
                }
                // Char literal (incl. escapes) vs lifetime: a lifetime has no
                // closing quote within the next few bytes.
                if bytes[i] == b'\'' {
                    let rest = &bytes[i + 1..];
                    let close = if rest.first() == Some(&b'\\') {
                        rest.iter().skip(1).position(|&b| b == b'\'').map(|p| p + 1)
                    } else if rest.len() >= 2 && rest[1] == b'\'' {
                        Some(1)
                    } else {
                        None
                    };
                    if let Some(close) = close {
                        i += close + 2;
                        continue;
                    }
                    out[i] = b'\'';
                    i += 1;
                    continue;
                }
                out[i] = bytes[i];
                i += 1;
            }
        }
    }
    (String::from_utf8_lossy(&out).into_owned(), state)
}

/// Rules suppressed by a `// lint:allow(...)` marker in `raw`.
fn allowed_rules(raw: &str) -> Vec<Rule> {
    let Some(pos) = raw.find("lint:allow(") else {
        return Vec::new();
    };
    let args = &raw[pos + "lint:allow(".len()..];
    let args = args.split(')').next().unwrap_or("");
    args.split(',')
        .map(str::trim)
        .filter_map(|name| Rule::ALL.into_iter().find(|r| r.name() == name))
        .collect()
}

/// One `lint:allow`/`lint:allow-file` marker: where it is, what it names,
/// and whether it has suppressed anything yet (for stale-allow).
struct Marker {
    line: usize,
    rule: Rule,
    used: bool,
}

/// `lint:allow-file(...)` markers with their line numbers — for files that
/// are a frozen reference implementation in their entirety (e.g. the
/// per-energy RGF recipe the batch layer replays plane-by-plane), where a
/// per-line marker on dozens of sites would drown the code. Only markers
/// naming a rule in `rules` are tracked; the rest are inert.
fn file_allow_markers(source: &str, rules: &[Rule]) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let mut from = 0;
        while let Some(pos) = raw[from..].find("lint:allow-file(") {
            let at = from + pos + "lint:allow-file(".len();
            let args = raw[at..].split(')').next().unwrap_or("");
            for rule in args
                .split(',')
                .map(str::trim)
                .filter_map(|name| Rule::ALL.into_iter().find(|r| r.name() == name))
            {
                if rules.contains(&rule) {
                    markers.push(Marker {
                        line: idx + 1,
                        rule,
                        used: false,
                    });
                }
            }
            from = at;
        }
    }
    markers
}

/// Lint one file's source. `rel_path` is the repo-root-relative path used
/// both for rule selection and in diagnostics.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let rules = applicable_rules(rel_path);
    if rules.is_empty() {
        return Vec::new();
    }
    let mut file_allows = file_allow_markers(source, &rules);
    let mut violations = Vec::new();
    let mut state = LexState::Code;
    let mut depth: i64 = 0;
    // `#[cfg(test)]` handling: once seen, the next item (tracked by brace
    // depth) is test code; the region ends when depth falls back below the
    // depth at which the item's first `{` opened.
    let mut pending_cfg_test = false;
    let mut test_region_floor: Option<i64> = None;
    // Line-level `lint:allow` markers seen so far, oldest first.
    let mut line_markers: Vec<Marker> = Vec::new();

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let (code, next_state) = strip_line(raw, state);
        state = next_state;
        let in_test_before = test_region_floor.is_some();

        if !in_test_before && code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        if pending_cfg_test && !in_test_before && code.contains('{') {
            // The gated item's body opens here; everything until the matching
            // close brace is test code.
            test_region_floor = Some(depth);
            pending_cfg_test = false;
        }
        for b in code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(floor) = test_region_floor {
            if depth <= floor {
                test_region_floor = None;
            }
        }
        let in_test = in_test_before || test_region_floor.is_some();

        if !in_test {
            for rule in allowed_rules(raw) {
                if rules.contains(&rule) {
                    line_markers.push(Marker {
                        line: lineno,
                        rule,
                        used: false,
                    });
                }
            }
            for &rule in &rules {
                let finding = match rule {
                    Rule::OneClock => uses_std_instant(&code).then(|| {
                        "std::time::Instant outside quatrex-probe: use \
                         quatrex_probe::clock::Instant so all timing shares one clock"
                            .to_string()
                    }),
                    Rule::NoUnwrap => (code.contains(".unwrap()") || code.contains(".expect("))
                        .then(|| {
                            "unwrap/expect in rank-loop/runtime library code: return a diagnostic \
                             or justify with lint:allow(no-unwrap)"
                                .to_string()
                        }),
                    Rule::NoPrintln => (has_token(&code, "println!") || has_token(&code, "print!"))
                        .then(|| {
                            "println!/print! in library code: stdout belongs to bin targets"
                                .to_string()
                        }),
                    Rule::PerEnergyGemm => has_token(&code, "gemm(").then(|| {
                        "raw per-energy gemm in batchable library code: route energy loops \
                         through gemm_batch so shared operands pack once, or justify with \
                         lint:allow(per-energy-gemm)"
                            .to_string()
                    }),
                    Rule::AllocatingInverse => uses_allocating_inverse(&code).then(|| {
                        "allocating LU entry point (lu::inverse / lu::solve / \
                         LuFactorization::new) in solver library code: invert on the \
                         LuScratch the caller holds, or justify a cold path with \
                         lint:allow(allocating-inverse) at the path-qualified call"
                            .to_string()
                    }),
                    Rule::NoRawSync => uses_raw_sync(&code).then(|| {
                        "raw std::sync/std::thread primitive in library code: lock and send \
                         through the workspace parking_lot/crossbeam shims and start threads \
                         only through quatrex_runtime's ThreadComm, so the lock-order, \
                         race-detection and schedule-exploration seams see it"
                            .to_string()
                    }),
                    // Emitted from marker bookkeeping below, never from line
                    // matching (and never in `rules`).
                    Rule::StaleAllow => None,
                };
                if let Some(message) = finding {
                    // A marker suppresses findings on its own line and the
                    // line directly below it; most recent marker wins.
                    if let Some(m) = line_markers
                        .iter_mut()
                        .rev()
                        .find(|m| m.rule == rule && (m.line == lineno || m.line + 1 == lineno))
                    {
                        m.used = true;
                        continue;
                    }
                    let mut file_suppressed = false;
                    for m in file_allows.iter_mut().filter(|m| m.rule == rule) {
                        m.used = true;
                        file_suppressed = true;
                    }
                    if file_suppressed {
                        continue;
                    }
                    violations.push(Violation {
                        path: rel_path.to_string(),
                        line: lineno,
                        rule,
                        message,
                    });
                }
            }
        }
    }
    for m in line_markers.into_iter().chain(file_allows) {
        if !m.used {
            violations.push(Violation {
                path: rel_path.to_string(),
                line: m.line,
                rule: Rule::StaleAllow,
                message: format!(
                    "allow marker for `{}` suppresses no finding — remove it so the \
                     exception list stays honest",
                    m.rule.name()
                ),
            });
        }
    }
    violations.sort_by_key(|v| v.line);
    violations
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Scan every `.rs` file under `<root>/crates` and return the findings.
pub fn lint_tree(root: &Path) -> std::io::Result<LintReport> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    if crates.is_dir() {
        walk(&crates, &mut files)?;
    }
    let mut report = LintReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        report.violations.extend(lint_source(&rel, &source));
        report.files_scanned += 1;
    }
    Ok(report)
}
