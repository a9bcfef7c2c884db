//! The electron and screened-interaction assemblies of one energy point, as
//! IEEE bit patterns: every block of the assembled system and right-hand
//! sides (and the left contact's lesser/greater boundary terms the current
//! reads), the FLOPs of every `FlopKind` and the memoizer statistics, for
//! the cases a memoized refinement does not decide: a cold electron
//! assembly, one assembled twice on one memoizer, a cold screened-interaction
//! assembly and the first (direct) one on a fresh memoizer.
//!
//! The inputs break every mirror symmetry a contact could hide behind: the
//! scattering self-energy and the polarisation have complex, non-Hermitian
//! off-diagonal blocks, so `M̃_{1,0} ≠ M̃_{0,1}†` at both contacts and a lead
//! whose two couplings are taken in the wrong order moves the fixture.
//!
//! The fixture was captured on a build that fuses multiply-adds (the GEMM
//! tile and the LU rank-k update round once per `a·b + c`). A build without
//! fused multiply-add (the x86-64 baseline) rounds every product on its own,
//! so there every block entry must match within 1e-12 of its matrix's
//! largest entry, and FLOPs and memoizer statistics exactly.

use quatrex_core::assembly::{assemble_g, ObcMethod};
use quatrex_core::w_step_assemble;
use quatrex_device::DeviceBuilder;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::{cplx, CMatrix};
use quatrex_obc::ObcMemoizer;
use quatrex_sparse::BlockTridiagonal;

/// A deterministic block-tridiagonal operand: `scale ×` a smooth complex
/// pattern that differs between the upper and the lower blocks, plus
/// `diag` on the main diagonal.
fn pattern(nb: usize, bs: usize, seed: f64, scale: f64, diag: f64) -> BlockTridiagonal {
    let mut bt = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        for j in i.saturating_sub(1)..(i + 2).min(nb) {
            let block = CMatrix::from_fn(bs, bs, |r, c| {
                let t = seed + (7 * i + 3 * j) as f64 + 0.37 * r as f64 - 0.21 * c as f64;
                let mut v = cplx(scale * (1.3 * t).sin(), scale * (0.7 * t).cos());
                if i == j && r == c {
                    v += cplx(0.0, diag);
                }
                v
            });
            bt.set_block(i, j, block);
        }
    }
    bt
}

fn block_line(case: &str, name: &str, (i, j): (usize, usize), m: &CMatrix) -> String {
    let words: Vec<String> = m
        .as_slice()
        .iter()
        .map(|v| format!("{:016x} {:016x}", v.re.to_bits(), v.im.to_bits()))
        .collect();
    format!("{case} {name} {i} {j} {}", words.join(" "))
}

fn matrix_lines(case: &str, name: &str, bt: &BlockTridiagonal, out: &mut Vec<String>) {
    let nb = bt.n_blocks();
    for i in 0..nb {
        for j in i.saturating_sub(1)..(i + 2).min(nb) {
            let block = bt.block(i, j).expect("block inside the band");
            out.push(block_line(case, name, (i, j), block));
        }
    }
}

fn ledger_lines(
    case: &str,
    flops: &FlopCounter,
    memo: Option<&ObcMemoizer>,
    out: &mut Vec<String>,
) {
    for kind in FlopKind::ALL {
        out.push(format!("{case} flops {kind:?} {}", flops.get(kind)));
    }
    if let Some(memo) = memo {
        let s = memo.stats();
        out.push(format!(
            "{case} memo {} {} {} {}",
            s.direct_calls,
            s.memoized_calls,
            s.inserts,
            memo.cached_entries()
        ));
    }
}

/// Every case, one line per block, FLOP kind and memoizer state, in fixture
/// order.
fn lines() -> Vec<String> {
    let dev = DeviceBuilder::test_device(2, 2, 3).build();
    let (h, v) = (dev.hamiltonian_bt(), dev.coulomb_bt());
    let (nb, bs) = (h.n_blocks(), h.block_size());
    let sigma_r = pattern(nb, bs, 0.5, 0.02, -0.03);
    let sigma_lesser = pattern(nb, bs, 1.5, 0.01, 0.02);
    let sigma_greater = pattern(nb, bs, 2.5, 0.01, -0.02);
    let p_r = pattern(nb, bs, 3.5, 0.02, -0.02);
    let p_lesser = pattern(nb, bs, 4.5, 0.01, 0.03);
    let p_greater = pattern(nb, bs, 5.5, 0.01, -0.04);

    let mut out = Vec::new();
    let g = |memo: Option<&mut ObcMemoizer>, flops: &FlopCounter| {
        assemble_g(
            &h,
            1.1,
            1e-3,
            2,
            Some(&sigma_r),
            Some(&sigma_lesser),
            Some(&sigma_greater),
            0.1,
            -0.1,
            0.0259,
            ObcMethod::SanchoRubio,
            memo,
            flops,
        )
    };
    let g_case = |case: &str, memo: Option<&mut ObcMemoizer>, out: &mut Vec<String>| {
        let flops = FlopCounter::new();
        let asm = g(memo, &flops);
        matrix_lines(case, "system", &asm.system, out);
        matrix_lines(case, "rhs_lesser", &asm.rhs_lesser, out);
        matrix_lines(case, "rhs_greater", &asm.rhs_greater, out);
        out.push(block_line(
            case,
            "left_lesser",
            (0, 0),
            &asm.sigma_obc_left_lesser,
        ));
        out.push(block_line(
            case,
            "left_greater",
            (0, 0),
            &asm.sigma_obc_left_greater,
        ));
        flops
    };
    let flops = g_case("g_cold", None, &mut out);
    ledger_lines("g_cold", &flops, None, &mut out);
    let mut memo = ObcMemoizer::new(20, 1e-7);
    for case in ["g_memo_first", "g_memo_second"] {
        let flops = g_case(case, Some(&mut memo), &mut out);
        ledger_lines(case, &flops, Some(&memo), &mut out);
    }

    let w_case = |case: &str, mut memo: Option<ObcMemoizer>, out: &mut Vec<String>| {
        let flops = FlopCounter::new();
        let asm = w_step_assemble(&v, [&p_r, &p_lesser, &p_greater], 2, memo.as_mut(), &flops);
        matrix_lines(case, "system", &asm.system, out);
        matrix_lines(case, "rhs_lesser", &asm.rhs_lesser, out);
        matrix_lines(case, "rhs_greater", &asm.rhs_greater, out);
        out.push(format!(
            "{case} truncation {:016x}",
            asm.truncation_error.to_bits()
        ));
        ledger_lines(case, &flops, memo.as_ref(), out);
    };
    w_case("w_cold", None, &mut out);
    w_case("w_memo_first", Some(ObcMemoizer::new(20, 1e-7)), &mut out);
    out
}

/// Whether this build fuses multiply-adds, as the build that captured the
/// fixture did (the predicate of `quatrex_linalg`'s lane kernels).
const FUSED: bool = cfg!(any(target_feature = "fma", target_arch = "aarch64"));

fn bits(hex: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(hex, 16).expect("hex bit pattern"))
}

/// The unfused comparison: block lines `<case> <matrix> <i> <j> <entries>…`
/// within 1e-12 of the largest entry of the same `<case> <matrix>` in the
/// fixture (the truncation line within 1e-12), every other line exactly.
fn assert_within_rounding(got: &[String], want: &[&str]) {
    let words = |l: &str| l.split(' ').map(str::to_string).collect::<Vec<_>>();
    let is_block = |w: &[String]| !matches!(w[1].as_str(), "flops" | "memo" | "truncation");
    let scale = |case: &str, name: &str| {
        want.iter()
            .map(|l| words(l))
            .filter(|w| is_block(w) && w[0] == case && w[1] == name)
            .flat_map(|w| w[4..].iter().map(|h| bits(h).abs()).collect::<Vec<_>>())
            .fold(0.0, f64::max)
    };
    for (g, w) in got.iter().zip(want) {
        let (g, w) = (words(g), words(w));
        assert_eq!(g.len(), w.len(), "word count of {:.60}", w.join(" "));
        let tol = if is_block(&w) {
            1e-12 * scale(&w[0], &w[1])
        } else if w[1] == "truncation" {
            1e-12
        } else {
            assert_eq!(g, w, "ledger line");
            continue;
        };
        let first = if is_block(&w) { 4 } else { 2 };
        assert_eq!(g[..first], w[..first], "line head");
        for (i, (gi, wi)) in g.iter().zip(&w).enumerate().skip(first) {
            let d = (bits(gi) - bits(wi)).abs();
            assert!(d <= tol, "word {i} of {:.60}: off by {d:e}", w.join(" "));
        }
    }
}

#[test]
fn both_assemblies_reproduce_the_golden_fixture() {
    let want: Vec<&str> = include_str!("fixtures/assembly.txt").lines().collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    if FUSED {
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "fixture line differs");
        }
    } else {
        assert_within_rounding(&got, &want);
    }
}
