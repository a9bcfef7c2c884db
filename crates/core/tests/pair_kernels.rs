//! The `P`/`Σ` pair kernels against the direct `O(N_E²)` sums they replace:
//! all four outputs of a pair at every lag, even and odd grids, a self-mirror
//! pair, and every way a grid can arrive in batches.

use quatrex_core::convolution::{
    canonical_elements, polarization_pair_accumulate, self_energy_pair_accumulate, ElementId,
};
use quatrex_core::{polarization_from_g, EnergyResolved};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, cplx, CMatrix};
use quatrex_sparse::BlockTridiagonal;

const ZERO: c64 = c64::new(0.0, 0.0);
const GRIDS: [usize; 3] = [12, 16, 17];

/// Deterministic synthetic series.
fn series(ne: usize, seed: f64) -> Vec<c64> {
    (0..ne)
        .map(|k| {
            cplx(
                (seed + 0.37 * k as f64).sin(),
                (1.3 * seed - 0.21 * k as f64).cos(),
            )
        })
        .collect()
}

/// `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]` of a synthetic pair; a self-mirror
/// pair repeats the `ij` side.
fn pair_series(ne: usize, seed: f64, self_mirror: bool) -> [[Vec<c64>; 2]; 2] {
    let ij = [series(ne, seed), series(ne, seed + 2.3)];
    let ji = match self_mirror {
        true => ij.clone(),
        false => [series(ne, seed - 1.1), series(ne, seed + 0.9)],
    };
    [ij, ji]
}

fn borrowed(x: &[[Vec<c64>; 2]; 2]) -> [[&[c64]; 2]; 2] {
    x.each_ref().map(|side| side.each_ref().map(|s| &s[..]))
}

/// `x` with every energy outside `arrived` still zero.
fn masked(x: &[[Vec<c64>; 2]; 2], arrived: &[usize]) -> [[Vec<c64>; 2]; 2] {
    x.each_ref().map(|side| {
        side.each_ref().map(|s| {
            let mut m = vec![ZERO; s.len()];
            arrived.iter().for_each(|&k| m[k] = s[k]);
            m
        })
    })
}

/// The ways an `ne`-point grid arrives: whole; two contiguous halves; three
/// non-contiguous batches (several source ranks); an empty batch in between.
fn batch_splits(ne: usize) -> Vec<Vec<Vec<usize>>> {
    let strided = |r: usize| (0..ne).filter(|k| k % 3 == r).collect::<Vec<_>>();
    vec![
        vec![(0..ne).collect()],
        vec![(0..ne / 2).collect(), (ne / 2..ne).collect()],
        vec![strided(1), strided(0), strided(2)],
        vec![(0..ne / 3).collect(), vec![], (ne / 3..ne).collect()],
    ]
}

/// The four accumulators of a pair, `[[X^<_ij, X^>_ij], [X^<_ji, X^>_ji]]`.
type PairOut = [[Vec<c64>; 2]; 2];

fn zeroed(ne: usize) -> PairOut {
    [(); 2].map(|()| [(); 2].map(|()| vec![ZERO; ne]))
}

/// Run `kernel(out_ij, out_ji, arrived-so-far operands, batch, arrived_before)`
/// over the batches of one split.
fn accumulate(
    ne: usize,
    self_mirror: bool,
    batches: &[Vec<usize>],
    mut kernel: impl FnMut([&mut [c64]; 2], Option<[&mut [c64]; 2]>, &[usize], &[usize], bool),
) -> PairOut {
    let mut out = zeroed(ne);
    let mut seen: Vec<usize> = Vec::new();
    for batch in batches {
        let before = !seen.is_empty();
        seen.extend_from_slice(batch);
        let [ij, ji] = &mut out;
        let ji = (!self_mirror).then(|| ji.each_mut().map(|s| &mut s[..]));
        kernel(ij.each_mut().map(|s| &mut s[..]), ji, &seen, batch, before);
    }
    out
}

fn polarization(g: &[[Vec<c64>; 2]; 2], self_mirror: bool, batches: &[Vec<usize>]) -> PairOut {
    let flops = FlopCounter::new();
    let ne = g[0][0].len();
    accumulate(
        ne,
        self_mirror,
        batches,
        |p_ij, p_ji, seen, batch, before| {
            let arrived = masked(g, seen);
            polarization_pair_accumulate(p_ij, p_ji, borrowed(&arrived), batch, before, DE, &flops);
        },
    )
}

fn self_energy(
    g: &[[Vec<c64>; 2]; 2],
    w: &[[Vec<c64>; 2]; 2],
    self_mirror: bool,
    batches: &[Vec<usize>],
) -> PairOut {
    let flops = FlopCounter::new();
    let ne = g[0][0].len();
    accumulate(ne, self_mirror, batches, |s_ij, s_ji, seen, batch, _| {
        let arrived = masked(w, seen);
        let (g, w) = (borrowed(g), borrowed(&arrived));
        self_energy_pair_accumulate(s_ij, s_ji, g, w, batch, DE, &flops);
    })
}

const DE: f64 = 0.05;

/// `−i·ΔE/(2π) · Σ_m a[m]·b[m − lag]`.
fn direct_polarization(a: &[c64], b: &[c64], lag: isize) -> c64 {
    let ne = a.len() as isize;
    let sum: c64 = (0..ne)
        .filter(|m| (0..ne).contains(&(m - lag)))
        .map(|m| a[m as usize] * b[(m - lag) as usize])
        .sum();
    c64::new(0.0, -DE / (2.0 * std::f64::consts::PI)) * sum
}

/// `+i·ΔE/(2π) · Σ_j g[k − (j − half)]·w[j]`.
fn direct_self_energy(g: &[c64], w: &[c64], k: usize) -> c64 {
    let (ne, half) = (g.len() as isize, (g.len() / 2) as isize);
    let sum: c64 = (0..ne)
        .filter(|j| (0..ne).contains(&(k as isize - (j - half))))
        .map(|j| g[(k as isize - (j - half)) as usize] * w[j as usize])
        .sum();
    c64::new(0.0, DE / (2.0 * std::f64::consts::PI)) * sum
}

fn assert_close(got: c64, want: c64, scale: f64, what: &str) {
    assert!(
        (got - want).norm() <= 1e-12 * scale,
        "{what}: {got} vs {want}"
    );
}

#[test]
fn polarization_pair_matches_the_direct_sums_for_every_batch_split() {
    for ne in GRIDS {
        for self_mirror in [false, true] {
            let g = pair_series(ne, 0.4, self_mirror);
            let [[gl_ij, gg_ij], [gl_ji, gg_ji]] = &g;
            let half = (ne / 2) as isize;
            let scale = ne as f64;
            let whole = polarization(&g, self_mirror, &batch_splits(ne)[0]);
            for batches in batch_splits(ne) {
                let got = polarization(&g, self_mirror, &batches);
                for j in 0..ne {
                    let lag = j as isize - half;
                    let what = |name: &str| format!("{name} N_E {ne} lag {lag} {batches:?}");
                    let want = [
                        [
                            direct_polarization(gl_ij, gg_ji, lag),
                            direct_polarization(gg_ij, gl_ji, lag),
                        ],
                        [
                            direct_polarization(gl_ji, gg_ij, lag),
                            direct_polarization(gg_ji, gl_ij, lag),
                        ],
                    ];
                    for side in 0..(if self_mirror { 1 } else { 2 }) {
                        for c in 0..2 {
                            let name = format!("P[{side}][{c}]");
                            assert_close(got[side][c][j], want[side][c], scale, &what(&name));
                            // Summed over batches = the single-batch call.
                            assert_close(got[side][c][j], whole[side][c][j], scale, &what(&name));
                        }
                    }
                }
                if self_mirror {
                    assert!(got[1].iter().flatten().all(|&v| v == ZERO), "unpaired side");
                }
            }
        }
    }
}

#[test]
fn the_mirrors_polarization_is_the_canonical_correlation_read_backwards_bit_for_bit() {
    for ne in GRIDS {
        let g = pair_series(ne, -0.8, false);
        for batches in batch_splits(ne) {
            let [[pl_ij, pg_ij], [pl_ji, pg_ji]] = polarization(&g, false, &batches);
            // Series index j holds lag j − half; lag −(j − half) sits at
            // 2·half − j, which an even grid has for j ≥ 1 only.
            let half = ne / 2;
            for j in (2 * half + 1 - ne)..ne {
                assert_eq!(pg_ji[j], pl_ij[2 * half - j], "P^>_ji, N_E {ne}, j {j}");
                assert_eq!(pl_ji[j], pg_ij[2 * half - j], "P^<_ji, N_E {ne}, j {j}");
            }
        }
    }
}

#[test]
fn self_energy_pair_matches_the_direct_sums_for_every_batch_split() {
    for ne in GRIDS {
        for self_mirror in [false, true] {
            let g = pair_series(ne, 0.3, self_mirror);
            let w = pair_series(ne, 1.5, self_mirror);
            let scale = ne as f64;
            let whole = self_energy(&g, &w, self_mirror, &batch_splits(ne)[0]);
            for batches in batch_splits(ne) {
                let got = self_energy(&g, &w, self_mirror, &batches);
                for side in 0..(if self_mirror { 1 } else { 2 }) {
                    for c in 0..2 {
                        for k in 0..ne {
                            let what = format!("Σ[{side}][{c}] N_E {ne} k {k} {batches:?}");
                            let want = direct_self_energy(&g[side][c], &w[side][c], k);
                            assert_close(got[side][c][k], want, scale, &what);
                            assert_close(got[side][c][k], whole[side][c][k], scale, &what);
                        }
                    }
                }
                if self_mirror {
                    assert!(got[1].iter().flatten().all(|&v| v == ZERO), "unpaired side");
                }
            }
        }
    }
}

fn synthetic_g(ne: usize, nb: usize, bs: usize, sign: f64) -> EnergyResolved {
    (0..ne)
        .map(|k| {
            let mut bt = BlockTridiagonal::zeros(nb, bs);
            for i in 0..nb {
                let raw = CMatrix::from_fn(bs, bs, |r, c| {
                    let phase = 0.2 * k as f64 + 0.3 * (r + 2 * c + i) as f64;
                    cplx(phase.cos() * 0.1, sign * (0.05 + 0.02 * phase.sin().abs()))
                });
                bt.set_block(i, i, raw);
            }
            for i in 0..nb - 1 {
                let u = CMatrix::from_fn(bs, bs, |r, c| {
                    cplx(0.02 * (r as f64 - c as f64), sign * 0.01 * (k + i) as f64)
                });
                bt.set_block(i, i + 1, u.clone());
                bt.set_block(i + 1, i, u.dagger().scaled(cplx(-0.7, 0.1)));
            }
            bt
        })
        .collect()
}

#[test]
fn pair_kernel_matches_the_energy_major_driver_bit_for_bit() {
    // The pair kernel, called the way the distributed solver calls it on a
    // single batch, must produce bit-identical series to the energy-major
    // driver for the canonical element *and* its mirror: the distributed
    // solver's B = 1 bit-identity depends on it.
    let (ne, nb, bs) = (16, 3, 2);
    let gl = synthetic_g(ne, nb, bs, 1.0);
    let gg = synthetic_g(ne, nb, bs, -1.0);
    let flops = FlopCounter::new();
    let (pl, pg) = polarization_from_g(&gl, &gg, DE, &flops);
    let gather = |x: &EnergyResolved, id: ElementId| -> Vec<c64> {
        x.iter().map(|bt| id.value_in(bt)).collect()
    };
    let whole: Vec<usize> = (0..ne).collect();
    for e in canonical_elements(nb, bs) {
        let m = e.mirror();
        let g = [
            [gather(&gl, e), gather(&gg, e)],
            [gather(&gl, m), gather(&gg, m)],
        ];
        let got = polarization(&g, e.is_self_mirror(), std::slice::from_ref(&whole));
        for j in 0..ne {
            assert_eq!(got[0][0][j], e.value_in(&pl[j]), "lesser {e:?} at {j}");
            assert_eq!(got[0][1][j], e.value_in(&pg[j]), "greater {e:?} at {j}");
            if !e.is_self_mirror() {
                assert_eq!(got[1][0][j], m.value_in(&pl[j]), "lesser {m:?} at {j}");
                assert_eq!(got[1][1][j], m.value_in(&pg[j]), "greater {m:?} at {j}");
            }
        }
    }
}
