//! The fixed-point and Sancho–Rubio iterations on five lead problems, as the
//! energy-batched active-list solvers computed them, outcome by outcome and
//! entry by entry as IEEE bit patterns: the per-energy iterations run the
//! same products, inversions and norms in the same order, so every line —
//! iterations, residual, FLOPs and surface function — must match exactly.
//!
//! The fixture was captured on a build that fuses multiply-adds (the GEMM
//! tile and the LU rank-k update round once per `a·b + c`). A build without
//! fused multiply-add (the x86-64 baseline) rounds every product on its own,
//! so there the outcomes, iteration counts and FLOPs must still match
//! exactly, and residuals and surface functions within rounding.

use quatrex_linalg::{cplx, CMatrix};
use quatrex_obc::{fixed_point, sancho_rubio, ObcError, ObcSolution};

/// The lead of the `retarded` unit tests at energy `e + iη`, with a coupling
/// that is neither symmetric nor real, so `n ≠ n'` and the decimation's two
/// couplings `α`, `β` differ at every step: `(m, n, n')`.
fn lead_problem(dim: usize, e: f64, eta: f64) -> (CMatrix, CMatrix, CMatrix) {
    let h0 = CMatrix::from_fn(dim, dim, |i, j| {
        if i == j {
            cplx(if i % 2 == 0 { 0.6 } else { -0.6 }, 0.0)
        } else {
            cplx(-0.2 / (1.0 + (i as f64 - j as f64).abs()), 0.0)
        }
    })
    .hermitian_part();
    let h1 = CMatrix::from_fn(dim, dim, |i, j| {
        let (i, j) = (i as f64, j as f64);
        let decay = -0.35 * (-(i - j).abs() / 2.0).exp();
        cplx(
            decay * (1.0 + 0.3 * (j - i).signum()),
            0.04 * (i - 2.0 * j) / dim as f64,
        )
    });
    let m = &CMatrix::scaled_identity(dim, cplx(e, eta)) - &h0;
    let n = h1.scaled(cplx(-1.0, 0.0));
    let nprime = h1.dagger().scaled(cplx(-1.0, 0.0));
    (m, n, nprime)
}

/// `(dim, energy, η)`: energies in and above the band (cold fixed-point
/// iteration stalls at the first, takes hundreds of steps at the second and
/// a few above the band); block sizes on and off the GEMM tile heights.
const PROBLEMS: [(usize, f64, f64); 5] = [
    (4, 1.4, 1e-3),
    (5, 0.3, 1e-2),
    (6, 2.6, 1e-3),
    (7, 3.8, 1e-2),
    (9, 4.5, 1e-2),
];

/// One outcome as a fixture line: `ok <iterations> <residual> <flops> <x>`
/// (`x` column-major, real and imaginary bits per entry),
/// `not_converged <iterations> <residual>` or `singular`.
fn outcome(r: &Result<ObcSolution, ObcError>) -> String {
    match r {
        Ok(s) => {
            let x: Vec<String> =
                s.x.as_slice()
                    .iter()
                    .map(|v| format!("{:016x} {:016x}", v.re.to_bits(), v.im.to_bits()))
                    .collect();
            format!(
                "ok {} {:016x} {} {}",
                s.iterations,
                s.residual.to_bits(),
                s.flops,
                x.join(" ")
            )
        }
        Err(ObcError::NotConverged {
            residual,
            iterations,
        }) => format!("not_converged {iterations} {:016x}", residual.to_bits()),
        Err(ObcError::Singular) => "singular".to_string(),
        Err(other) => panic!("unexpected outcome {other:?}"),
    }
}

/// Every case on every problem, one line each, in fixture order.
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for (p, &(dim, e, eta)) in PROBLEMS.iter().enumerate() {
        let (m, n, np) = lead_problem(dim, e, eta);
        let singular = CMatrix::zeros(dim, dim);
        let sr = sancho_rubio(&m, &n, &np, 1e-12, 200);
        let seed = sr.as_ref().expect("decimation converges").x.clone();
        let cases = [
            ("sancho_rubio_cold", sr),
            (
                "fixed_point_cold",
                fixed_point(&m, &n, &np, None, 1e-10, 2000),
            ),
            (
                "fixed_point_warm",
                fixed_point(&m, &n, &np, Some(&seed), 1e-10, 50),
            ),
            (
                "fixed_point_one_step",
                fixed_point(&m, &n, &np, None, 1e-14, 1),
            ),
            (
                "fixed_point_singular",
                fixed_point(&singular, &n, &np, None, 1e-10, 50),
            ),
            ("sancho_rubio_one_step", sancho_rubio(&m, &n, &np, 1e-14, 1)),
            (
                "sancho_rubio_singular",
                sancho_rubio(&singular, &n, &np, 1e-12, 200),
            ),
        ];
        for (case, r) in cases {
            out.push(format!("p{p} {case} {}", outcome(&r)));
        }
    }
    out
}

/// Whether this build fuses multiply-adds, as the build that captured the
/// fixture did (the predicate of `quatrex_linalg`'s lane kernels).
const FUSED: bool = cfg!(any(target_feature = "fma", target_arch = "aarch64"));

fn bits(hex: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(hex, 16).expect("hex bit pattern"))
}

/// The unfused comparison of one line, `p<k> <case> <kind> [<iterations>
/// <residual> [<flops> <x>…]]`: the residual (word 4) and the entries of `x`
/// (words 6 on) within rounding of the fixture, every other word exactly.
fn assert_within_rounding(got: &str, want: &str) {
    let (g, w): (Vec<&str>, Vec<&str>) = (got.split(' ').collect(), want.split(' ').collect());
    assert_eq!(g.len(), w.len(), "word count of {want:.60}");
    let x_max = w.iter().skip(6).map(|h| bits(h).abs()).fold(0.0, f64::max);
    for (i, (gi, wi)) in g.iter().zip(&w).enumerate() {
        let tol = match i {
            4 => 1e-12,
            6.. => 1e-12 * x_max,
            _ => {
                assert_eq!(gi, wi, "word {i} of {want:.60}");
                continue;
            }
        };
        let d = (bits(gi) - bits(wi)).abs();
        assert!(d <= tol, "word {i} of {want:.60}: off by {d:e}");
    }
}

#[test]
fn per_energy_iterations_reproduce_the_batched_solvers_bit_for_bit() {
    let want: Vec<&str> = include_str!("fixtures/surface_iterations.txt")
        .lines()
        .collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (g, w) in got.iter().zip(&want) {
        if FUSED {
            assert_eq!(g, w, "fixture line differs");
        } else {
            assert_within_rounding(g, w);
        }
    }
}
