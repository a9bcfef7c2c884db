//! The `P`/`Σ` lane-group kernels against the direct `O(N_E²)` sums they
//! replace: one ragged group (seven live lanes of eight, two of them
//! self-mirror), all four outputs of every live pair at every lag, even and
//! odd grids, and every way a grid can arrive in batches.

use quatrex_core::convolution::{
    canonical_elements, polarization_group_accumulate, self_energy_group_accumulate, ElementId,
    StoredGroup,
};
use quatrex_core::element_major::{lane_groups, GroupInfo, GroupRowsMut, LanePlanes, LANES};
use quatrex_core::{polarization_from_g, EnergyResolved};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, cplx, CMatrix};
use quatrex_sparse::BlockTridiagonal;

const GRIDS: [usize; 3] = [12, 16, 17];
const DE: f64 = 0.05;

/// Which lanes of the ragged group hold a self-mirror element; the eighth
/// lane pads.
const SELF_MIRROR: [bool; 7] = [false, true, false, false, true, false, false];

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

/// One lane group of stored pairs: per lane the series of its pair, and the
/// same as `planes[side][component]`.
struct Group {
    info: GroupInfo,
    pairs: Vec<[[Vec<c64>; 2]; 2]>,
    planes: [[LanePlanes; 2]; 2],
}

impl Group {
    fn new(info: GroupInfo, pairs: Vec<[[Vec<c64>; 2]; 2]>) -> Self {
        let planes = [0, 1].map(|side| {
            [0, 1].map(|c| {
                let lanes: Vec<_> = pairs.iter().map(|pair| &pair[side][c]).collect();
                LanePlanes::from_series(&lanes)
            })
        });
        Self {
            info,
            pairs,
            planes,
        }
    }

    /// The ragged group of synthetic pairs on an `ne`-point grid.
    fn ragged(ne: usize, seed: f64) -> Self {
        let pairs = SELF_MIRROR
            .iter()
            .enumerate()
            .map(|(l, &own)| pair_series(ne, seed + 0.7 * l as f64, own))
            .collect();
        let info = lane_groups(&SELF_MIRROR)[0];
        assert_eq!((LANES, info.live, info.paired), (8, 7, 5));
        Self::new(info, pairs)
    }

    fn ne(&self) -> usize {
        self.planes[0][0].n_energies()
    }

    /// The group as the kernels' `[X^<, X^>]` operands.
    fn operands(&self) -> [StoredGroup<'_>; 2] {
        [0, 1].map(|c| StoredGroup {
            ij: self.planes[0][c].group(0),
            ji: self.planes[1][c].group(0),
        })
    }
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

/// The four accumulators of every lane, `[[X^<_ij, X^>_ij], [X^<_ji,
/// X^>_ji]]`; a self-mirror lane's `ji` side is not an output.
type GroupOut = [[LanePlanes; 2]; 2];

/// Run `kernel(outputs, arrived-so-far energies, batch, arrived_before)`
/// over the batches of one split, from zeroed accumulators.
fn accumulate(
    group: &Group,
    batches: &[Vec<usize>],
    mut kernel: impl FnMut([[GroupRowsMut<'_>; 2]; 2], &[usize], &[usize], bool),
) -> GroupOut {
    let zeroed = || LanePlanes::zeroed(group.info.live, group.ne());
    let mut out = [(); 2].map(|()| [(); 2].map(|()| zeroed()));
    let mut seen: Vec<usize> = Vec::new();
    for batch in batches {
        let before = !seen.is_empty();
        seen.extend_from_slice(batch);
        let rows = out
            .each_mut()
            .map(|side| side.each_mut().map(|p| p.group_mut(0)));
        kernel(rows, &seen, batch, before);
    }
    out
}

fn polarization(group: &Group, batches: &[Vec<usize>]) -> GroupOut {
    let flops = FlopCounter::new();
    accumulate(group, batches, |p, seen, batch, before| {
        let (g, arrived) = (group.operands(), seen.iter().copied());
        polarization_group_accumulate(p, g, arrived, batch, before, DE, &group.info, &flops);
    })
}

fn self_energy(g: &Group, w: &Group, batches: &[Vec<usize>]) -> GroupOut {
    let flops = FlopCounter::new();
    accumulate(g, batches, |s, _, batch, _| {
        let (gs, ws) = (g.operands(), w.operands());
        self_energy_group_accumulate(s, gs, ws, batch, DE, &g.info, &flops);
    })
}

/// The outputs of lane `l`, `[side][component]`.
fn lane(out: &GroupOut, l: usize) -> [[Vec<c64>; 2]; 2] {
    out.each_ref()
        .map(|side| side.each_ref().map(|p| p.series(l)))
}

/// The sides that are outputs of a lane.
fn sides(self_mirror: bool) -> std::ops::Range<usize> {
    0..if self_mirror { 1 } else { 2 }
}

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
fn polarization_group_matches_the_direct_sums_for_every_batch_split() {
    for ne in GRIDS {
        let group = Group::ragged(ne, 0.4);
        let half = (ne / 2) as isize;
        let scale = ne as f64;
        let whole = polarization(&group, &batch_splits(ne)[0]);
        for batches in batch_splits(ne) {
            let got = polarization(&group, &batches);
            for (l, &own) in SELF_MIRROR.iter().enumerate() {
                let [[gl_ij, gg_ij], [gl_ji, gg_ji]] = &group.pairs[l];
                let (got, whole) = (lane(&got, l), lane(&whole, l));
                for j in 0..ne {
                    let lag = j as isize - half;
                    let what =
                        |name: &str| format!("{name} lane {l} N_E {ne} lag {lag} {batches:?}");
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
                    for side in sides(own) {
                        for c in 0..2 {
                            let name = format!("P[{side}][{c}]");
                            assert_close(got[side][c][j], want[side][c], scale, &what(&name));
                            // Summed over batches = the single-batch call.
                            assert_close(got[side][c][j], whole[side][c][j], scale, &what(&name));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn the_mirrors_polarization_is_the_canonical_correlation_read_backwards_bit_for_bit() {
    for ne in GRIDS {
        let group = Group::ragged(ne, -0.8);
        for batches in batch_splits(ne) {
            let out = polarization(&group, &batches);
            for l in (0..SELF_MIRROR.len()).filter(|&l| !SELF_MIRROR[l]) {
                let [[pl_ij, pg_ij], [pl_ji, pg_ji]] = lane(&out, l);
                // Series index j holds lag j − half; lag −(j − half) sits at
                // 2·half − j, which an even grid has for j ≥ 1 only.
                let half = ne / 2;
                for j in (2 * half + 1 - ne)..ne {
                    let at = format!("lane {l}, N_E {ne}, j {j}");
                    assert_eq!(pg_ji[j], pl_ij[2 * half - j], "P^>_ji, {at}");
                    assert_eq!(pl_ji[j], pg_ij[2 * half - j], "P^<_ji, {at}");
                }
            }
        }
    }
}

#[test]
fn self_energy_group_matches_the_direct_sums_for_every_batch_split() {
    for ne in GRIDS {
        let (g, w) = (Group::ragged(ne, 0.3), Group::ragged(ne, 1.5));
        let scale = ne as f64;
        let whole = self_energy(&g, &w, &batch_splits(ne)[0]);
        for batches in batch_splits(ne) {
            let got = self_energy(&g, &w, &batches);
            for (l, &own) in SELF_MIRROR.iter().enumerate() {
                let (got, whole) = (lane(&got, l), lane(&whole, l));
                let (gs, ws) = (&g.pairs[l], &w.pairs[l]);
                for side in sides(own) {
                    for c in 0..2 {
                        for k in 0..ne {
                            let what =
                                format!("Σ[{side}][{c}] lane {l} N_E {ne} k {k} {batches:?}");
                            let want = direct_self_energy(&gs[side][c], &ws[side][c], k);
                            assert_close(got[side][c][k], want, scale, &what);
                            assert_close(got[side][c][k], whole[side][c][k], scale, &what);
                        }
                    }
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
fn a_group_matches_the_energy_major_driver_bit_for_bit() {
    // The group kernel, called the way the distributed solver calls it on a
    // single batch, must produce bit-identical series to the energy-major
    // driver for every canonical element *and* its mirror, whatever group
    // and lane it sits in: the distributed solver's B = 1 bit-identity
    // depends on it. Groups of seven put the elements in other lanes than
    // the driver's groups of eight.
    let (ne, nb, bs) = (16, 3, 2);
    let gl = synthetic_g(ne, nb, bs, 1.0);
    let gg = synthetic_g(ne, nb, bs, -1.0);
    let flops = FlopCounter::new();
    let (pl, pg) = polarization_from_g(&gl, &gg, DE, &flops);
    let gather = |x: &EnergyResolved, id: ElementId| -> Vec<c64> {
        x.iter().map(|bt| id.value_in(bt)).collect()
    };
    let whole: Vec<usize> = (0..ne).collect();
    for elements in canonical_elements(nb, bs).chunks(SELF_MIRROR.len()) {
        let self_mirror: Vec<bool> = elements.iter().map(|e| e.is_self_mirror()).collect();
        let pairs = elements
            .iter()
            .map(|&e| {
                let m = e.mirror();
                [
                    [gather(&gl, e), gather(&gg, e)],
                    [gather(&gl, m), gather(&gg, m)],
                ]
            })
            .collect();
        let group = Group::new(lane_groups(&self_mirror)[0], pairs);
        let out = polarization(&group, std::slice::from_ref(&whole));
        for (l, &e) in elements.iter().enumerate() {
            let [[l_ij, g_ij], [l_ji, g_ji]] = lane(&out, l);
            let m = e.mirror();
            for j in 0..ne {
                assert_eq!(l_ij[j], e.value_in(&pl[j]), "lesser {e:?} at {j}");
                assert_eq!(g_ij[j], e.value_in(&pg[j]), "greater {e:?} at {j}");
                if !e.is_self_mirror() {
                    assert_eq!(l_ji[j], m.value_in(&pl[j]), "lesser {m:?} at {j}");
                    assert_eq!(g_ji[j], m.value_in(&pg[j]), "greater {m:?} at {j}");
                }
            }
        }
    }
}
