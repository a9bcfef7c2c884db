//! Lint fixture: allocating LU entry points in solver library code.
//! Decoys that must not fire: the scratch, the FLOP model, other items of the
//! module, strings/comments, and a justified `lint:allow` escape.
use quatrex_linalg::lu::{inverse, inverse_flops};
use quatrex_linalg::lu::{self, inverse_flops, LuError, LuScratch};

pub fn hot(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let x = lu::inverse(a).unwrap();
    let y = quatrex_linalg::lu::solve(a, b).unwrap();
    let f = LuFactorization::new(a).unwrap();
    x
}

pub fn fine(lu: &mut LuScratch, a: &CMatrix, out: &mut CMatrix) -> u64 {
    lu.invert_into(a, out).unwrap();
    let _s = "lu::inverse( inside a string is not a call";
    // lu::solve( inside a comment is not a call either
    let _selected = rgf_selected_inverse(a);
    // lint:allow(allocating-inverse): cold fallback, justified in place.
    let _cold = lu::inverse(a);
    inverse_flops(4) + solve_flops(4)
}
