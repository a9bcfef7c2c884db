//! How fast the machine is right now, relative to the undisturbed reference
//! box — measured by the harness's own fixed kernels, never by repo code.
//!
//! The reference box is a 2-vCPU guest on a shared host, and for minutes at
//! a time everything on it runs up to 1.6× slower (user CPU time grows in
//! step, steal time stays 0: the cores are shared, not taken away). Raw wall
//! times of consecutive 20 s runs then spread by 30 – 37 %, more than any
//! bound this benchmark may declare. So the timed pass brackets every
//! operation with a short calibration on the same two threads the workloads
//! use, and reports seconds divided by the mean slowdown it saw: *seconds at
//! reference speed*. Over ten-minute recordings that cut the spread of 20 s
//! medians from 32 % to 9 % (`sweep_iv`'s solves) and from 36 % to 6 %
//! (`dist_energy`). Raw medians and the slowdown are printed beside every
//! normalised value.
//!
//! Three kernels, because the workloads mix the three: a register-resident
//! FMA loop (execution ports), a pointer chase through 2 MiB (cache and TLB
//! latency), and a copy between 4 MiB arrays (bandwidth beyond L2). A change
//! to the repo cannot move them; a change to this file redefines every
//! end-to-end timing and needs the baseline measured again.

use std::hint::black_box;
use std::time::Instant;

use crate::workloads::{SplitMix64, N_RANKS};

/// Seconds each kernel takes on the undisturbed reference box (between the
/// fastest tenth and the fastest third of the calibrations of quiet runs),
/// slower of the two threads.
const REFERENCE_S: [f64; 3] = [0.0460, 0.0400, 0.0275];

const FMA_ROUNDS: usize = 200;
const CHASE_ENTRIES: usize = 1 << 19;
const CHASE_STEPS: usize = 3_000_000;
const COPY_VALUES: usize = 1 << 19;
const COPY_PASSES: usize = 80;

const LANES: usize = 8;
const CHAINS: usize = 10;
const FMA_INNER: usize = 1 << 16;
type Lanes = [f64; LANES];

#[inline(always)]
fn fma(x: Lanes, a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0.0; LANES];
    for l in 0..LANES {
        r[l] = if cfg!(target_feature = "fma") {
            x[l].mul_add(a[l], b[l])
        } else {
            x[l] * a[l] + b[l]
        };
    }
    r
}

/// One round of the register-blocked FP64 loop: ten independent multiply-add
/// chains (fused when the build has FMA), each `LANES` wide so the compiler
/// keeps every accumulator in vector registers. Returns the FLOPs performed.
pub fn fma_round() -> u64 {
    let a: Lanes = black_box([1.000_000_1; LANES]);
    let b: Lanes = black_box([1e-9; LANES]);
    let (mut c0, mut c1, mut c2, mut c3, mut c4) = (a, a, a, a, a);
    let (mut c5, mut c6, mut c7, mut c8, mut c9) = (a, a, a, a, a);
    for _ in 0..FMA_INNER {
        c0 = fma(c0, a, b);
        c1 = fma(c1, a, b);
        c2 = fma(c2, a, b);
        c3 = fma(c3, a, b);
        c4 = fma(c4, a, b);
        c5 = fma(c5, a, b);
        c6 = fma(c6, a, b);
        c7 = fma(c7, a, b);
        c8 = fma(c8, a, b);
        c9 = fma(c9, a, b);
    }
    black_box((&c0, &c1, &c2, &c3, &c4, &c5, &c6, &c7, &c8, &c9));
    (2 * LANES * CHAINS * FMA_INNER) as u64
}

/// The buffers of one calibration thread.
struct Lane {
    /// A random single-cycle permutation: `next[i]` is the entry after `i`.
    next: Vec<u32>,
    src: Vec<f64>,
    dst: Vec<f64>,
}

impl Lane {
    fn new(seed: u64) -> Self {
        // Sattolo's algorithm: a uniformly random cyclic permutation, so the
        // chase visits every entry before it repeats.
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..CHASE_ENTRIES).rev() {
            order.swap(i, (rng.next_u64() % i as u64) as usize);
        }
        let mut next = vec![0u32; CHASE_ENTRIES];
        for i in 0..CHASE_ENTRIES {
            next[order[i] as usize] = order[(i + 1) % CHASE_ENTRIES];
        }
        Self {
            next,
            src: vec![1.5; COPY_VALUES],
            dst: vec![0.0; COPY_VALUES],
        }
    }

    /// Seconds of the three kernels on this thread.
    fn run(&mut self) -> [f64; 3] {
        let t = Instant::now();
        for _ in 0..FMA_ROUNDS {
            fma_round();
        }
        let fma_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..CHASE_STEPS {
            i = self.next[i as usize];
        }
        black_box(i);
        let chase_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..COPY_PASSES {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
        [fma_s, chase_s, t.elapsed().as_secs_f64()]
    }
}

/// The calibration kernels and their buffers, one lane per workload thread.
pub struct Calibrator {
    lanes: Vec<Lane>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            lanes: (0..N_RANKS)
                .map(|t| Lane::new(0xCA11_B8A7 + t as u64))
                .collect(),
        }
    }

    /// Run the kernels on all lanes at once (≈ 0.12 s) and return the
    /// machine's slowdown: per kernel the slowest lane's time over the
    /// reference time, averaged over the kernels. 1.0 on the undisturbed
    /// reference box.
    pub fn slowdown(&mut self) -> f64 {
        let per_lane: Vec<[f64; 3]> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| scope.spawn(move || lane.run()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .collect()
        });
        (0..3)
            .map(|k| per_lane.iter().map(|t| t[k]).fold(0.0, f64::max) / REFERENCE_S[k])
            .sum::<f64>()
            / 3.0
    }
}
