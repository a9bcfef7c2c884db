//! Loom-lite schedule explorer: token-passing serialisation of a test run's
//! threads with exhaustive (DFS) or seeded-random interleaving enumeration.
//!
//! A [`SessionHandle`] is installed in thread-local storage by the
//! [`Explorer`] on the harness thread; the runtime propagates it to each
//! rank thread, which registers through [`SessionHandle::enter`]. Once every
//! expected thread has registered, exactly one registered thread runs at a
//! time. The ranks share data only through channels, and the `crossbeam`
//! shim calls back at every channel operation:
//!
//! - [`yield_point`] — before a send or receive: the scheduler may preempt
//!   and run another thread.
//! - [`block_point`] — a non-blocking receive found its channel empty: the
//!   thread parks until any other thread makes progress, then retries. If
//!   no thread can make progress the schedule is a deadlock and every
//!   thread panics with a replayable schedule token.
//! - [`progress`] — a state change that can unblock a peer (message sent,
//!   last sender dropped).
//!
//! Scheduling decisions are driven by a `Plan`: depth-first replay of a
//! choice prefix (exhaustive enumeration with backtracking, optionally
//! preemption-bounded) or a seeded SplitMix64 stream. Every decision is
//! recorded, so any schedule — including a failing one — is reproducible
//! from its token (`dfs:1.0.2…` or `random:<seed>`), printed on failure.
//!
//! Threads must not block in the OS while registered except through the
//! instrumented points. The collective layer blocks only in channel
//! receives, which the `crossbeam` shim turns into try/[`block_point`]
//! spins for registered threads — its barrier and allreduce included.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Number of currently registered threads across all sessions — the
/// one-relaxed-load fast path for the shim hooks when no exploration runs.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The session visible to this thread (harness and registered threads).
    static SESSION: RefCell<Option<Arc<Core>>> = const { RefCell::new(None) };
    /// This thread's registered key; `u64::MAX` when not registered.
    static KEY: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Whether the calling thread is registered with an active session (i.e.
/// the shims must route through the scheduler).
pub fn is_registered() -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    KEY.with(|k| k.get() != u64::MAX)
}

/// The session installed on this thread (set by the explorer on the harness
/// thread; the runtime clones it into rank threads).
pub fn current() -> Option<SessionHandle> {
    SESSION.with(|s| s.borrow().clone()).map(SessionHandle)
}

fn with_registered_core(f: impl FnOnce(&Core, u64)) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    let key = KEY.with(|k| k.get());
    if key == u64::MAX {
        return;
    }
    if let Some(core) = SESSION.with(|s| s.borrow().clone()) {
        f(&core, key);
    }
}

/// Scheduling decision point before a visible operation. No-op unless the
/// calling thread is registered.
pub fn yield_point() {
    with_registered_core(|core, key| core.yield_point(key));
}

/// Park after a failed non-blocking attempt until a peer makes progress.
/// No-op unless the calling thread is registered.
pub fn block_point() {
    with_registered_core(|core, key| core.block_point(key));
}

/// Announce a state change that may unblock peers. Unlike the other hooks
/// this also counts when called from the (unregistered) harness thread,
/// e.g. a channel sender dropped during teardown.
pub fn progress() {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    if let Some(core) = SESSION.with(|s| s.borrow().clone()) {
        core.progress();
    }
}

/// The scheduler seam the shims call through; implemented by
/// [`SessionHandle`]. The free functions [`yield_point`] / [`block_point`] /
/// [`progress`] dispatch to the calling thread's current session.
pub trait Scheduler {
    /// Decision point before a visible operation.
    fn yield_point(&self);
    /// Park after a failed non-blocking attempt.
    fn block_point(&self);
    /// Announce a state change that may unblock peers.
    fn progress(&self);
}

impl Scheduler for SessionHandle {
    fn yield_point(&self) {
        yield_point();
    }
    fn block_point(&self) {
        block_point();
    }
    fn progress(&self) {
        self.0.progress();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    /// Registered; scheduling has not started.
    Waiting,
    /// Eligible to run, parked awaiting the token.
    Runnable,
    /// Holds the token.
    Running,
    /// Parked at a [`block_point`] taken at the stored progress count.
    Blocked(u64),
}

/// How scheduling decisions are made.
#[derive(Clone, Debug)]
pub(crate) enum Plan {
    /// Follow the recorded choice prefix, then always pick option 0 — the
    /// replay/enumeration arm of depth-first exploration.
    Dfs {
        /// Choice indices to replay before defaulting to 0.
        prefix: Vec<u32>,
    },
    /// Seeded SplitMix64 stream: uniform choice at every decision.
    Random {
        /// The stream seed (also the replay token).
        seed: u64,
    },
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct CoreState {
    threads: BTreeMap<u64, TState>,
    current: Option<u64>,
    /// Number of threads that must register before scheduling starts.
    expect_total: usize,
    started: bool,
    progress: u64,
    preemptions: usize,
    preemption_bound: Option<usize>,
    plan: Plan,
    rng: Option<SplitMix64>,
    /// Position in the DFS prefix.
    pos: usize,
    /// Chosen option index at every multi-option decision.
    trace: Vec<u32>,
    /// Number of options at every multi-option decision.
    widths: Vec<u32>,
    failure: Option<String>,
}

struct Core {
    state: StdMutex<CoreState>,
    cv: Condvar,
}

type Guard<'a> = std::sync::MutexGuard<'a, CoreState>;

impl Core {
    fn new(plan: Plan, preemption_bound: Option<usize>) -> Self {
        let rng = match &plan {
            Plan::Random { seed } => Some(SplitMix64(*seed)),
            Plan::Dfs { .. } => None,
        };
        Core {
            state: StdMutex::new(CoreState {
                threads: BTreeMap::new(),
                current: None,
                expect_total: 0,
                started: false,
                progress: 0,
                preemptions: 0,
                preemption_bound,
                plan,
                rng,
                pos: 0,
                trace: Vec::new(),
                widths: Vec::new(),
                failure: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Replay token of the (possibly partial) schedule.
    fn token(s: &CoreState) -> String {
        match &s.plan {
            Plan::Random { seed } => format!("random:{seed:#x}"),
            Plan::Dfs { .. } => {
                let choices: Vec<String> = s.trace.iter().map(|c| c.to_string()).collect();
                format!("dfs:{}", choices.join("."))
            }
        }
    }

    /// Threads eligible at a decision: runnable/running, or blocked with
    /// progress since they parked. Sorted (BTreeMap) for determinism.
    fn options(s: &CoreState) -> Vec<u64> {
        s.threads
            .iter()
            .filter_map(|(&k, &st)| match st {
                TState::Runnable | TState::Running => Some(k),
                TState::Blocked(p) if p < s.progress => Some(k),
                _ => None,
            })
            .collect()
    }

    fn choose(s: &mut CoreState, options: &[u64]) -> u64 {
        if options.len() == 1 {
            return options[0];
        }
        let n = options.len() as u32;
        let idx = match (&s.plan, &mut s.rng) {
            (Plan::Dfs { prefix }, _) => {
                let i = if s.pos < prefix.len() {
                    prefix[s.pos].min(n - 1)
                } else {
                    0
                };
                s.pos += 1;
                i
            }
            (Plan::Random { .. }, Some(rng)) => (rng.next() % u64::from(n)) as u32,
            (Plan::Random { .. }, None) => 0,
        };
        s.trace.push(idx);
        s.widths.push(n);
        options[idx as usize]
    }

    fn grant(s: &mut CoreState, key: u64) {
        s.threads.insert(key, TState::Running);
        s.current = Some(key);
    }

    fn wait_for_token(&self, mut s: Guard<'_>, key: u64) {
        loop {
            if let Some(f) = s.failure.clone() {
                drop(s);
                panic!("{f}");
            }
            if matches!(s.threads.get(&key), Some(TState::Running)) {
                return;
            }
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn fail(&self, s: &mut CoreState, message: String) {
        if s.failure.is_none() {
            s.failure = Some(message);
        }
        self.cv.notify_all();
    }

    fn deadlock_message(s: &CoreState) -> String {
        let states: Vec<String> = s
            .threads
            .iter()
            .map(|(k, st)| format!("thread {k}: {st:?}"))
            .collect();
        format!(
            "schedule deadlock: every live thread is blocked with no possible progress \
             [{}]. Replay this schedule with token '{}'",
            states.join("; "),
            Core::token(s),
        )
    }

    fn expect(&self, n: usize) {
        let mut s = self.lock();
        assert!(
            s.threads.is_empty(),
            "sched: expect() while threads from a previous group are still registered",
        );
        s.expect_total = n;
        s.started = false;
    }

    fn register(&self, key: u64) {
        let mut s = self.lock();
        let prev = s.threads.insert(key, TState::Waiting);
        assert!(prev.is_none(), "sched: duplicate thread key {key}");
        if !s.started && s.expect_total > 0 && s.threads.len() == s.expect_total {
            s.started = true;
            let keys: Vec<u64> = s.threads.keys().copied().collect();
            for k in &keys {
                s.threads.insert(*k, TState::Runnable);
            }
            let options = Core::options(&s);
            let first = Core::choose(&mut s, &options);
            Core::grant(&mut s, first);
            self.cv.notify_all();
        }
        self.wait_for_token(s, key);
    }

    fn yield_point(&self, key: u64) {
        let mut s = self.lock();
        if let Some(f) = s.failure.clone() {
            drop(s);
            panic!("{f}");
        }
        debug_assert_eq!(s.current, Some(key), "yield from a non-running thread");
        let options = Core::options(&s);
        if options.len() <= 1 {
            return;
        }
        if let Some(bound) = s.preemption_bound {
            if s.preemptions >= bound {
                return;
            }
        }
        let choice = Core::choose(&mut s, &options);
        if choice == key {
            return;
        }
        s.preemptions += 1;
        s.threads.insert(key, TState::Runnable);
        Core::grant(&mut s, choice);
        self.cv.notify_all();
        self.wait_for_token(s, key);
    }

    fn block_point(&self, key: u64) {
        let mut s = self.lock();
        if let Some(f) = s.failure.clone() {
            drop(s);
            panic!("{f}");
        }
        debug_assert_eq!(s.current, Some(key), "block from a non-running thread");
        let at = s.progress;
        s.threads.insert(key, TState::Blocked(at));
        s.current = None;
        let options = Core::options(&s);
        if options.is_empty() {
            let msg = Core::deadlock_message(&s);
            self.fail(&mut s, msg.clone());
            drop(s);
            panic!("{msg}");
        }
        let choice = Core::choose(&mut s, &options);
        Core::grant(&mut s, choice);
        self.cv.notify_all();
        self.wait_for_token(s, key);
    }

    fn progress(&self) {
        let mut s = self.lock();
        s.progress += 1;
    }

    fn thread_exit(&self, key: u64) {
        let mut s = self.lock();
        s.threads.remove(&key);
        if s.failure.is_some() {
            self.cv.notify_all();
            return;
        }
        if s.current == Some(key) {
            s.current = None;
            // The exiting thread's completed teardown (its dropped senders)
            // counts as progress for blocked peers.
            s.progress += 1;
            if !s.threads.is_empty() {
                let options = Core::options(&s);
                if options.is_empty() {
                    let msg = Core::deadlock_message(&s);
                    self.fail(&mut s, msg);
                    return; // never panic here: exits run inside Drop
                }
                let choice = Core::choose(&mut s, &options);
                Core::grant(&mut s, choice);
            }
        }
        self.cv.notify_all();
    }
}

/// Clonable handle to an exploration session.
#[derive(Clone)]
pub struct SessionHandle(Arc<Core>);

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SessionHandle")
    }
}

impl SessionHandle {
    /// Announce how many threads will register; scheduling starts when all
    /// of them have. Must be called before spawning them.
    pub fn expect(&self, n: usize) {
        self.0.expect(n);
    }

    /// Register the calling thread under `key` and block until the
    /// scheduler grants it the token. The returned guard deregisters on
    /// drop (including unwinds). Keys must be unique and stable across
    /// schedules — the rank index, not an OS artefact.
    pub fn enter(&self, key: u64) -> EnterGuard {
        SESSION.with(|s| *s.borrow_mut() = Some(Arc::clone(&self.0)));
        KEY.with(|k| k.set(key));
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        let guard = EnterGuard {
            core: Arc::clone(&self.0),
            key,
        };
        self.0.register(key);
        guard
    }
}

/// RAII registration of a thread in a session (see
/// [`SessionHandle::enter`]).
pub struct EnterGuard {
    core: Arc<Core>,
    key: u64,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        KEY.with(|k| k.set(u64::MAX));
        SESSION.with(|s| *s.borrow_mut() = None);
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
        self.core.thread_exit(self.key);
    }
}

/// Result of an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct Exploration {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct decision traces among them.
    pub distinct: usize,
    /// Whether DFS exhausted the whole schedule space (always `false` for
    /// random exploration).
    pub complete: bool,
}

/// A schedule that panicked or deadlocked, with its replay token.
#[derive(Debug, Clone)]
pub struct ScheduleFailure {
    /// Token accepted by [`replay`] to deterministically re-run the
    /// schedule.
    pub token: String,
    /// The panic/deadlock message.
    pub message: String,
}

impl fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failing schedule (replay token '{}'): {}",
            self.token, self.message
        )
    }
}

#[derive(Clone, Copy, Debug)]
enum StrategyKind {
    Exhaustive,
    Random { seed: u64 },
}

/// Drives repeated executions of a closure under different schedules.
#[derive(Clone, Copy, Debug)]
pub struct Explorer {
    strategy: StrategyKind,
    max_schedules: usize,
    preemption_bound: Option<usize>,
}

impl Explorer {
    /// Depth-first exhaustive enumeration, capped at `max_schedules`.
    pub fn exhaustive(max_schedules: usize) -> Self {
        Explorer {
            strategy: StrategyKind::Exhaustive,
            max_schedules,
            preemption_bound: None,
        }
    }

    /// `schedules` runs driven by a seeded random stream (run `i` uses a
    /// SplitMix64-derived seed, printed in the replay token on failure).
    pub fn random(seed: u64, schedules: usize) -> Self {
        Explorer {
            strategy: StrategyKind::Random { seed },
            max_schedules: schedules,
            preemption_bound: None,
        }
    }

    /// Bound the number of involuntary preemptions per schedule (CHESS-style
    /// iterative context bounding). Only meaningful for DFS enumeration.
    pub fn with_preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Run `f` under every explored schedule. `f` is responsible for its own
    /// assertions (e.g. bit-identical observables against a baseline); any
    /// panic — including scheduler-detected deadlocks — aborts exploration
    /// and surfaces the failing schedule's replay token.
    pub fn explore<F: Fn()>(&self, f: F) -> Result<Exploration, ScheduleFailure> {
        match self.strategy {
            StrategyKind::Random { seed } => {
                let mut seeds = SplitMix64(seed);
                let mut traces = HashSet::new();
                let mut schedules = 0;
                for _ in 0..self.max_schedules {
                    let run_seed = seeds.next();
                    let (trace, _) = self.run_one(&f, Plan::Random { seed: run_seed })?;
                    schedules += 1;
                    traces.insert(fnv1a(&trace));
                }
                Ok(Exploration {
                    schedules,
                    distinct: traces.len(),
                    complete: false,
                })
            }
            StrategyKind::Exhaustive => {
                let mut prefix: Vec<u32> = Vec::new();
                let mut traces = HashSet::new();
                let mut schedules = 0;
                let mut complete = false;
                loop {
                    let (trace, widths) = self.run_one(&f, Plan::Dfs { prefix })?;
                    schedules += 1;
                    traces.insert(fnv1a(&trace));
                    let mut t = trace;
                    let mut w = widths;
                    while let (Some(&c), Some(&n)) = (t.last(), w.last()) {
                        if c + 1 < n {
                            break;
                        }
                        t.pop();
                        w.pop();
                    }
                    if t.is_empty() {
                        complete = true;
                        break;
                    }
                    if schedules >= self.max_schedules {
                        break;
                    }
                    if let Some(last) = t.last_mut() {
                        *last += 1;
                    }
                    prefix = t;
                }
                Ok(Exploration {
                    schedules,
                    distinct: traces.len(),
                    complete,
                })
            }
        }
    }

    /// Run a single schedule, returning its decision trace and widths.
    fn run_one<F: Fn()>(&self, f: &F, plan: Plan) -> Result<(Vec<u32>, Vec<u32>), ScheduleFailure> {
        let core = Arc::new(Core::new(plan, self.preemption_bound));
        SESSION.with(|s| *s.borrow_mut() = Some(Arc::clone(&core)));
        let result = std::panic::catch_unwind(AssertUnwindSafe(f));
        SESSION.with(|s| *s.borrow_mut() = None);
        let s = core.lock();
        match result {
            Ok(()) if s.failure.is_none() => Ok((s.trace.clone(), s.widths.clone())),
            Ok(()) => Err(ScheduleFailure {
                token: Core::token(&s),
                message: s.failure.clone().unwrap_or_default(),
            }),
            Err(payload) => Err(ScheduleFailure {
                token: Core::token(&s),
                message: panic_message(payload.as_ref()),
            }),
        }
    }
}

/// Deterministically re-run one schedule from its token (`dfs:…` or
/// `random:…`). Returns the failure it reproduces, `Ok` if the schedule now
/// passes.
pub fn replay<F: Fn()>(token: &str, f: F) -> Result<(), ScheduleFailure> {
    let plan = parse_token(token).unwrap_or_else(|| panic!("unparseable schedule token '{token}'"));
    Explorer::exhaustive(1).run_one(&f, plan).map(|_| ())
}

fn parse_token(token: &str) -> Option<Plan> {
    if let Some(rest) = token.strip_prefix("random:") {
        let rest = rest.trim_start_matches("0x");
        return u64::from_str_radix(rest, 16)
            .ok()
            .map(|seed| Plan::Random { seed });
    }
    if let Some(rest) = token.strip_prefix("dfs:") {
        if rest.is_empty() {
            return Some(Plan::Dfs { prefix: Vec::new() });
        }
        let prefix: Option<Vec<u32>> = rest.split('.').map(|c| c.parse().ok()).collect();
        return prefix.map(|prefix| Plan::Dfs { prefix });
    }
    None
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

fn fnv1a(trace: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in trace {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Test harness: run `bodies` as registered threads (keys `0..n`) inside
/// the calling thread's current session, joining them all and propagating
/// the first panic. The session must have been installed by
/// [`Explorer::explore`] (this is what the closure passed to `explore`
/// calls).
pub fn run_threads(bodies: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let session = current().expect("run_threads called outside an exploration");
    session.expect(bodies.len());
    let panics: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| {
                let sess = session.clone();
                scope.spawn(move || {
                    let _guard = sess.enter(i as u64);
                    body();
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().err()).collect()
    });
    if let Some(p) = panics.into_iter().next() {
        std::panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// TLS/global scheduler state is per-thread but tests share the
    /// process; serialise them.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn two_thread_program(log: &StdMutex<Vec<u64>>) {
        run_threads(vec![
            Box::new(|| {
                yield_point();
                log.lock().unwrap_or_else(|p| p.into_inner()).push(0);
                yield_point();
                log.lock().unwrap_or_else(|p| p.into_inner()).push(10);
            }),
            Box::new(|| {
                yield_point();
                log.lock().unwrap_or_else(|p| p.into_inner()).push(1);
                yield_point();
                log.lock().unwrap_or_else(|p| p.into_inner()).push(11);
            }),
        ]);
    }

    #[test]
    fn exhaustive_enumeration_completes_with_distinct_schedules() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let orders: StdMutex<HashSet<Vec<u64>>> = StdMutex::new(HashSet::new());
        let log: StdMutex<Vec<u64>> = StdMutex::new(Vec::new());
        let result = Explorer::exhaustive(10_000)
            .explore(|| {
                log.lock().unwrap_or_else(|p| p.into_inner()).clear();
                two_thread_program(&log);
                let order = log.lock().unwrap_or_else(|p| p.into_inner()).clone();
                orders
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(order);
            })
            .expect("no schedule may fail");
        assert!(result.complete, "DFS must exhaust the space: {result:?}");
        assert!(result.schedules > 1, "{result:?}");
        assert_eq!(result.distinct, result.schedules, "DFS never repeats");
        // Both serialised orders of the two log writes must be witnessed.
        let orders = orders.lock().unwrap_or_else(|p| p.into_inner());
        assert!(orders.iter().any(|o| o[0] == 0));
        assert!(orders.iter().any(|o| o[0] == 1));
    }

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let observed: StdMutex<Vec<Vec<u64>>> = StdMutex::new(Vec::new());
        for _ in 0..2 {
            let log: StdMutex<Vec<u64>> = StdMutex::new(Vec::new());
            Explorer::random(0xDEAD_BEEF, 5)
                .explore(|| {
                    log.lock().unwrap_or_else(|p| p.into_inner()).clear();
                    two_thread_program(&log);
                    let order = log.lock().unwrap_or_else(|p| p.into_inner()).clone();
                    observed
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(order);
                })
                .expect("no failure");
        }
        let observed = observed.lock().unwrap_or_else(|p| p.into_inner());
        assert_eq!(observed.len(), 10);
        assert_eq!(&observed[..5], &observed[5..], "same seed, same orders");
    }

    #[test]
    fn deadlock_is_detected_and_replayable() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let scenario = || {
            // Each thread waits for a flag only the other would set — after
            // its own wait. Classic circular wait.
            let a = AtomicUsize::new(0);
            let b = AtomicUsize::new(0);
            let wait_then_set = |wait: &AtomicUsize, set: &AtomicUsize| {
                while wait.load(Ordering::SeqCst) == 0 {
                    block_point();
                }
                set.store(1, Ordering::SeqCst);
                progress();
            };
            run_threads(vec![
                Box::new(|| wait_then_set(&a, &b)),
                Box::new(|| wait_then_set(&b, &a)),
            ]);
        };
        let failure = Explorer::exhaustive(100).explore(scenario);
        let replayed = failure.as_ref().err().map(|f| replay(&f.token, scenario));
        std::panic::set_hook(hook);
        let failure = failure.expect_err("the circular wait must deadlock");
        assert!(
            failure.message.contains("schedule deadlock"),
            "message: {}",
            failure.message
        );
        // The token deterministically reproduces the deadlock.
        let replayed = replayed
            .expect("replay ran")
            .expect_err("replay reproduces");
        assert!(replayed.message.contains("schedule deadlock"));
        assert_eq!(replayed.token, failure.token);
    }

    #[test]
    fn preemption_bound_reduces_the_schedule_count() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let log: StdMutex<Vec<u64>> = StdMutex::new(Vec::new());
        let free = Explorer::exhaustive(10_000)
            .explore(|| {
                log.lock().unwrap_or_else(|p| p.into_inner()).clear();
                two_thread_program(&log);
            })
            .expect("ok");
        let bounded = Explorer::exhaustive(10_000)
            .with_preemption_bound(0)
            .explore(|| {
                log.lock().unwrap_or_else(|p| p.into_inner()).clear();
                two_thread_program(&log);
            })
            .expect("ok");
        assert!(free.complete && bounded.complete);
        assert!(
            bounded.schedules < free.schedules,
            "bound 0 ({}) must shrink the space ({})",
            bounded.schedules,
            free.schedules
        );
    }

    #[test]
    fn hooks_are_no_ops_outside_a_session() {
        // Must not hang or panic from an unregistered thread.
        yield_point();
        block_point();
        progress();
        assert!(!is_registered());
        assert!(current().is_none());
    }
}
