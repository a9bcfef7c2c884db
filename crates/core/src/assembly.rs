//! Assembly of the per-energy linear systems and their boundary conditions.
//!
//! For every energy point the solver needs (paper Table 2):
//!
//! * **Electrons** — `M̃(E) = (E+iη)·S − H − Σ^R_scatt(E) − Σ^R_OBC(E)` and the
//!   right-hand sides `Σ≶(E) = Σ≶_scatt(E) + Σ≶_OBC(E)`;
//! * **Screened Coulomb** — `M̃_W(E) = I − V·P^R(E) − B^R_OBC(E)` and
//!   `B≶(E) = V·P≶(E)·V† + B≶_OBC(E)`.
//!
//! Both systems attach their two contacts through one routine, `attach_leads`:
//! per contact it solves the surface problem Eq. (4) (memoized across SCBA
//! iterations, Section 5.3, or by a cascade of direct solvers — Sancho–Rubio
//! first for the electrons, Beyn for the screened interaction), forms the
//! retarded boundary block `n·x·n′` and subtracts it from the end block. The
//! electron lesser/greater boundary terms then follow from the
//! fluctuation–dissipation theorem, the screened-interaction ones from the
//! discrete Lyapunov equation Eq. (7), in one loop over the two leads.
//!
//! The `V·P^R` and `V·P≶·V†` products are evaluated exactly as banded products
//! (bandwidths 2 and 3 at transport-cell granularity) and then truncated back
//! to the block-tridiagonal pattern of `W`; with the paper's `r_cut` well below
//! one transport-cell length the dropped corner blocks are negligible, and the
//! truncated fraction is reported so it can be monitored.

use quatrex_device::fermi;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::lu::LuScratch;
use quatrex_linalg::ops::{
    congruence, gemm, gemm_flops, matmul, triple_product, triple_product_flops, Op,
};
use quatrex_linalg::{c64, CMatrix, ONE, ZERO};
use quatrex_obc::{
    beyn, fixed_point, greater_from_retarded, lesser_from_retarded, lyapunov_doubling, pevp_direct,
    sancho_rubio, BeynConfig, Contact, ObcError, ObcKey, ObcMemoizer, ObcSolution, Subsystem,
};
use quatrex_sparse::{BlockBanded, BlockTridiagonal};

/// Which retarded OBC algorithm plays the role of the "direct" solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObcMethod {
    /// Sancho–Rubio decimation (robust default for the electron subsystem).
    SanchoRubio,
    /// Beyn contour integration (used for the screened interaction, whose
    /// Bloch factors are strongly evanescent).
    Beyn,
}

/// Assembled electron system for one energy point.
pub struct GAssembly {
    /// `M̃(E)` including scattering and boundary self-energies.
    pub system: BlockTridiagonal,
    /// Lesser right-hand side `Σ^<(E)`.
    pub rhs_lesser: BlockTridiagonal,
    /// Greater right-hand side `Σ^>(E)`.
    pub rhs_greater: BlockTridiagonal,
    /// Lesser/greater boundary blocks at the left contact (for the current).
    pub sigma_obc_left_lesser: CMatrix,
    pub sigma_obc_left_greater: CMatrix,
}

/// Assembled screened-interaction system for one (boson) energy point.
pub struct WAssembly {
    /// `M̃_W = I − V·P^R − B^R_OBC`.
    pub system: BlockTridiagonal,
    /// Lesser right-hand side `V·P^<·V† + B^<_OBC`.
    pub rhs_lesser: BlockTridiagonal,
    /// Greater right-hand side `V·P^>·V† + B^>_OBC`.
    pub rhs_greater: BlockTridiagonal,
    /// Fraction of the banded-product Frobenius weight dropped by the BT truncation.
    pub truncation_error: f64,
}

/// Build `(E+iη)·I − H` as a block-tridiagonal matrix (the MLWF overlap is the
/// identity, Section 4.1). At `E = 1`, `η = 0` this is `I − V·P^R` for `H = V·P^R`.
pub fn bare_system(h: &BlockTridiagonal, energy: f64, eta: f64) -> BlockTridiagonal {
    let nb = h.n_blocks();
    let bs = h.block_size();
    let mut m = h.clone();
    m.scale_mut(c64::new(-1.0, 0.0));
    let shift = c64::new(energy, eta);
    for i in 0..nb {
        let d = m.diag_mut(i);
        for k in 0..bs {
            d[(k, k)] += shift;
        }
    }
    m
}

/// The two contacts, in the order every per-contact loop visits them.
const CONTACTS: [Contact; 2] = [Contact::Left, Contact::Right];

/// One contact of an assembled system, after [`attach_leads`] subtracted its
/// retarded boundary block from the system.
struct Lead {
    /// The end block the contact attaches to (`0` or `N_B − 1`).
    block: usize,
    /// Coupling `n` from the end block towards the lead: `M̃_{1,0}` at the
    /// left contact, `M̃_{N_B−2,N_B−1}` at the right one.
    coupling: CMatrix,
    /// Retarded surface function `x` of the semi-infinite lead.
    surface: CMatrix,
    /// Retarded boundary block `n·x·n′`.
    boundary: CMatrix,
}

/// Attach both contacts of `system`: per contact (left, then right) solve the
/// surface problem of the lead continuing the end block periodically, form
/// the boundary block `n·x·n′` and subtract it from the end block. A contact
/// reads only its own end block and the couplings next to it, which the
/// other contact never writes (`N_B ≥ 2`).
fn attach_leads(
    system: &mut BlockTridiagonal,
    subsystem: Subsystem,
    energy_index: usize,
    method: ObcMethod,
    mut memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
    kind: FlopKind,
) -> [Lead; 2] {
    let nb = system.n_blocks();
    CONTACTS.map(|contact| {
        let (block, n, nprime) = match contact {
            Contact::Left => (0, system.lower(0), system.upper(0)),
            Contact::Right => (nb - 1, system.upper(nb - 2), system.lower(nb - 2)),
        };
        let key = ObcKey {
            contact,
            subsystem,
            component: 0,
            energy_index,
        };
        let memo = memoizer.as_deref_mut().map(|m| (m, key));
        let surface = solve_surface(system.diag(block), n, nprime, method, memo, flops, kind);
        // Boundary block n·x·n′: a triple product whose association order
        // (and FLOP count) is picked from the operand shapes.
        let boundary = triple_product(n, &surface, nprime);
        flops.add(
            kind,
            triple_product_flops(n.shape(), surface.shape(), nprime.shape()),
        );
        let coupling = n.clone();
        *system.diag_mut(block) -= &boundary;
        Lead {
            block,
            coupling,
            surface,
            boundary,
        }
    })
}

/// Answer one boundary problem from the memoizer — its cached solution
/// refined by `step`, one application of the fixed-point map — or, without
/// a memoizer, by `direct`.
fn memoized(
    memoizer: Option<(&mut ObcMemoizer, ObcKey)>,
    step: impl FnMut(&CMatrix, &mut CMatrix),
    direct: impl FnOnce() -> CMatrix,
) -> CMatrix {
    match memoizer {
        Some((memo, key)) => memo.solve(key, step, direct).0,
        None => direct(),
    }
}

/// The retarded surface function `x = (m − n·x·n′)⁻¹` of one lead.
fn solve_surface(
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    method: ObcMethod,
    memoizer: Option<(&mut ObcMemoizer, ObcKey)>,
    flops: &FlopCounter,
    kind: FlopKind,
) -> CMatrix {
    let dim = m.nrows();
    // One fixed-point step x ↦ (m − n·x·n')⁻¹, written into the memoizer's
    // ping-pong buffer with reused LU/product scratch. Where m − n·x·n' is
    // singular the map is undefined, and NaN sends the solve to the cascade.
    let mut lu = LuScratch::new();
    let mut nx = CMatrix::zeros(dim, dim);
    let mut rhs = CMatrix::zeros(dim, dim);
    let step = |x: &CMatrix, out: &mut CMatrix| {
        flops.add(
            kind,
            2 * gemm_flops(dim, dim, dim) + 8 * (dim as u64).pow(3),
        );
        // The memoizer refinement is one fixed-point step on one energy's
        // cached guess by design, so it stays per energy.
        // lint:allow(per-energy-gemm): single-energy memoizer step.
        gemm(&mut nx, ONE, Op::None(n), Op::None(x), ZERO);
        rhs.copy_from(m);
        // lint:allow(per-energy-gemm): see above.
        gemm(&mut rhs, -ONE, Op::None(&nx), Op::None(nprime), ONE);
        if lu.invert_into(&rhs, out).is_err() {
            out.fill_with(|| c64::new(f64::NAN, f64::NAN));
        }
    };
    memoized(memoizer, step, || {
        surface_cascade(m, n, nprime, method, flops, kind)
    })
}

/// One retarded surface solver of the cascade.
type SurfaceSolver = fn(&CMatrix, &CMatrix, &CMatrix) -> Result<ObcSolution, ObcError>;

/// The robust direct solve: the configured method first, then the distinct
/// alternatives, then progressively looser fixed-point iterations. A lead
/// problem perturbed by the GW self-energy can defeat any single method at
/// isolated energy points; the cascade guarantees a usable surface function
/// without aborting the energy loop.
fn surface_cascade(
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    method: ObcMethod,
    flops: &FlopCounter,
    kind: FlopKind,
) -> CMatrix {
    const SANCHO_RUBIO: SurfaceSolver = |m, n, np| sancho_rubio(m, n, np, 1e-9, 400);
    const SANCHO_RUBIO_LOOSE: SurfaceSolver = |m, n, np| sancho_rubio(m, n, np, 1e-8, 600);
    const BEYN: SurfaceSolver = |m, n, np| beyn(m, n, np, &BeynConfig::default());
    const FIXED_POINT: SurfaceSolver = |m, n, np| fixed_point(m, n, np, None, 1e-6, 3000);
    // A loosely converged fixed point: physically a slightly broadened lead.
    const FIXED_POINT_LOOSE: SurfaceSolver = |m, n, np| fixed_point(m, n, np, None, 1e-3, 5000);
    let cascade: &[SurfaceSolver] = match method {
        ObcMethod::SanchoRubio => &[
            SANCHO_RUBIO,
            SANCHO_RUBIO_LOOSE,
            BEYN,
            pevp_direct,
            FIXED_POINT,
            FIXED_POINT_LOOSE,
        ],
        ObcMethod::Beyn => &[
            BEYN,
            SANCHO_RUBIO_LOOSE,
            pevp_direct,
            FIXED_POINT,
            FIXED_POINT_LOOSE,
        ],
    };
    for solve in cascade {
        if let Ok(s) = solve(m, n, nprime) {
            flops.add(kind, s.flops);
            return s.x;
        }
    }
    // Never abort the energy loop.
    // lint:allow(allocating-inverse): last resort of the cascade, reached when every solver failed.
    quatrex_linalg::lu::inverse(m).expect("lead onsite block must be invertible")
}

/// Assemble the electron system at one energy point.
///
/// * `h` — Hamiltonian in the transport-cell BT tiling;
/// * `sigma_r/lesser/greater` — scattering self-energies from the previous
///   SCBA iteration (pass `None` in the first, ballistic iteration);
/// * `mu_left/right`, `kt` — contact electro-chemical potentials and thermal
///   energy for the fluctuation–dissipation occupation;
/// * `memoizer` — the dynamic OBC memoizer (pass `None` to force direct solves).
#[allow(clippy::too_many_arguments)]
pub fn assemble_g(
    h: &BlockTridiagonal,
    energy: f64,
    eta: f64,
    energy_index: usize,
    sigma_r: Option<&BlockTridiagonal>,
    sigma_lesser: Option<&BlockTridiagonal>,
    sigma_greater: Option<&BlockTridiagonal>,
    mu_left: f64,
    mu_right: f64,
    kt: f64,
    obc_method: ObcMethod,
    memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) -> GAssembly {
    let nb = h.n_blocks();
    let bs = h.block_size();
    let mut system = bare_system(h, energy, eta);
    if let Some(sr) = sigma_r {
        system = system.add(c64::new(-1.0, 0.0), sr);
    }
    let mut rhs_lesser = sigma_lesser
        .cloned()
        .unwrap_or_else(|| BlockTridiagonal::zeros(nb, bs));
    let mut rhs_greater = sigma_greater
        .cloned()
        .unwrap_or_else(|| BlockTridiagonal::zeros(nb, bs));
    let leads = attach_leads(
        &mut system,
        Subsystem::Electron,
        energy_index,
        obc_method,
        memoizer,
        flops,
        FlopKind::GObc,
    );
    // Lesser/greater boundary terms by fluctuation–dissipation, each lead at
    // its own contact's occupation.
    let [(sigma_obc_left_lesser, sigma_obc_left_greater), _] =
        [(&leads[0], mu_left), (&leads[1], mu_right)].map(|(lead, mu)| {
            let f = fermi(energy, mu, kt);
            let lesser = lesser_from_retarded(&lead.boundary, f);
            let greater = greater_from_retarded(&lead.boundary, f);
            *rhs_lesser.diag_mut(lead.block) += &lesser;
            *rhs_greater.diag_mut(lead.block) += &greater;
            (lesser, greater)
        });
    GAssembly {
        system,
        rhs_lesser,
        rhs_greater,
        sigma_obc_left_lesser,
        sigma_obc_left_greater,
    }
}

/// Convert a transport-cell BT matrix into the equivalent bandwidth-1
/// [`BlockBanded`] container (for exact banded products).
fn bt_to_banded(bt: &BlockTridiagonal) -> BlockBanded {
    let nb = bt.n_blocks();
    let bs = bt.block_size();
    let mut banded = BlockBanded::zeros(nb, bs, 1);
    for i in 0..nb {
        banded.set_block(i, i, bt.diag(i).clone());
        if i + 1 < nb {
            banded.set_block(i, i + 1, bt.upper(i).clone());
            banded.set_block(i + 1, i, bt.lower(i).clone());
        }
    }
    banded
}

/// Truncate a banded matrix back to the block-tridiagonal pattern, returning
/// the truncated matrix and the fraction of Frobenius weight dropped.
fn truncate_to_bt(banded: &BlockBanded) -> (BlockTridiagonal, f64) {
    let nb = banded.n_blocks();
    let bs = banded.block_size();
    let mut bt = BlockTridiagonal::zeros(nb, bs);
    let mut kept = 0.0f64;
    let mut dropped = 0.0f64;
    for (i, j, blk) in banded.iter_blocks() {
        let w = blk.norm_fro().powi(2);
        if i.abs_diff(j) <= 1 {
            bt.set_block(i, j, blk.clone());
            kept += w;
        } else {
            dropped += w;
        }
    }
    let total = kept + dropped;
    let err = if total > 0.0 {
        (dropped / total).sqrt()
    } else {
        0.0
    };
    (bt, err)
}

/// Assemble the screened-interaction system at one boson energy: `I − V·P^R`
/// and `V·P≶·V†` with their OBCs (the retarded boundary by Beyn, the
/// lesser/greater one by the Lyapunov equation), inside the `w.assembly`
/// probe span.
///
/// `coulomb` is the bare Coulomb matrix `V` in the transport-cell BT tiling,
/// `p = [P^R, P^<, P^>]` the polarisation from the current SCBA iteration.
pub fn w_step_assemble(
    coulomb: &BlockTridiagonal,
    p: [&BlockTridiagonal; 3],
    energy_index: usize,
    mut memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) -> WAssembly {
    quatrex_probe::span("w.assembly", "w.assembly", || {
        let [p_r, p_lesser, p_greater] = p;
        let bs = coulomb.block_size();
        let v_banded = bt_to_banded(coulomb);

        // LHS: I − V·P^R (bandwidth 2, truncated to BT).
        let (vpr, fl1) = v_banded.multiply(&bt_to_banded(p_r));
        flops.add(FlopKind::WAssemblyLhs, fl1);
        let (vpr_bt, err_lhs) = truncate_to_bt(&vpr);
        let mut system = bare_system(&vpr_bt, 1.0, 0.0);

        // RHS: V·P≶·V† (bandwidth 3, truncated to BT). The V† factor is fused
        // into the kernel loads (`multiply_dagger`), never materialized.
        let (vpl, fl2) = v_banded.multiply(&bt_to_banded(p_lesser));
        let (vplv, fl3) = vpl.multiply_dagger(&v_banded);
        let (vpg, fl4) = v_banded.multiply(&bt_to_banded(p_greater));
        let (vpgv, fl5) = vpg.multiply_dagger(&v_banded);
        flops.add(FlopKind::WAssemblyRhs, fl2 + fl3 + fl4 + fl5);
        let (mut rhs_lesser, err_l) = truncate_to_bt(&vplv);
        let (mut rhs_greater, err_g) = truncate_to_bt(&vpgv);

        let leads = attach_leads(
            &mut system,
            Subsystem::ScreenedCoulomb,
            energy_index,
            ObcMethod::Beyn,
            memoizer.as_deref_mut(),
            flops,
            FlopKind::WBeyn,
        );

        // Lesser/greater boundary terms: discrete Lyapunov (Eq. (7)). Propagation
        // matrix a = x^R_w · t with t the lead's coupling block, and inhomogeneity
        // q≶ = x^R_w · B≶_lead · x^R_w†, the semi-infinite continuation of the
        // truncated RHS into the contact; the solution w≶ is injected through the
        // coupling, B≶_OBC = t·w≶·t† (dagger fused).
        let block_gemm = gemm_flops(bs, bs, bs);
        for (lead, contact) in leads.iter().zip(CONTACTS) {
            let a = matmul(&lead.surface, &lead.coupling);
            flops.add(FlopKind::WLyapunov, 5 * block_gemm);
            for (component, rhs) in [(1, &mut rhs_lesser), (2, &mut rhs_greater)] {
                let q = congruence(&lead.surface, rhs.diag(lead.block));
                let key = ObcKey {
                    contact,
                    subsystem: Subsystem::ScreenedCoulomb,
                    component,
                    energy_index,
                };
                // One substitution step w ↦ q − a·w·a†.
                let step = |x: &CMatrix, out: &mut CMatrix| {
                    flops.add(FlopKind::WLyapunov, 2 * block_gemm);
                    *out = &q - &congruence(&a, x);
                };
                let direct = || {
                    lyapunov_doubling(&a, &q, 1e-12, 60)
                        .map(|(w, _, fl)| {
                            flops.add(FlopKind::WLyapunov, fl);
                            w
                        })
                        .unwrap_or_else(|_| q.clone())
                };
                let w = memoized(memoizer.as_deref_mut().map(|m| (m, key)), step, direct);
                *rhs.diag_mut(lead.block) += &congruence(&lead.coupling, &w);
            }
            flops.add(FlopKind::WLyapunov, 4 * block_gemm);
        }

        WAssembly {
            system,
            rhs_lesser,
            rhs_greater,
            truncation_error: err_lhs.max(err_l).max(err_g),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_device::DeviceBuilder;
    use quatrex_linalg::cplx;
    use quatrex_rgf::rgf_solve;

    fn device_bt() -> (BlockTridiagonal, BlockTridiagonal) {
        let dev = DeviceBuilder::test_device(3, 2, 4).build();
        (dev.hamiltonian_bt(), dev.coulomb_bt())
    }

    #[test]
    fn bare_system_shifts_the_diagonal_only() {
        let (h, _) = device_bt();
        let m = bare_system(&h, 0.7, 1e-3);
        let diff = &m.to_dense() + &h.to_dense();
        // diff must be (E + iη)·I.
        for i in 0..h.dim() {
            for j in 0..h.dim() {
                if i == j {
                    assert!((diff[(i, j)] - cplx(0.7, 1e-3)).norm() < 1e-12);
                } else {
                    assert!(diff[(i, j)].norm() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn ballistic_assembly_produces_physical_green_functions() {
        let (h, _) = device_bt();
        let flops = FlopCounter::new();
        let asm = assemble_g(
            &h,
            1.2,
            1e-4,
            0,
            None,
            None,
            None,
            0.2,
            -0.2,
            0.0259,
            ObcMethod::SanchoRubio,
            None,
            &flops,
        );
        let sol = rgf_solve(&asm.system, &[&asm.rhs_lesser, &asm.rhs_greater]).unwrap();
        // DOS = i(G^R − G^A) diagonal must be non-negative.
        for i in 0..h.n_blocks() {
            let gr = sol.retarded.diag(i);
            let dos_block = (gr - &gr.dagger()).scaled(cplx(0.0, 1.0));
            for k in 0..h.block_size() {
                assert!(dos_block[(k, k)].re > -1e-9, "negative DOS at block {i}");
            }
        }
        // G^< and G^> must keep the NEGF symmetry.
        assert!(sol.lesser[0].negf_symmetry_error() < 1e-9);
        assert!(sol.lesser[1].negf_symmetry_error() < 1e-9);
        assert!(flops.get(FlopKind::GObc) > 0);
    }

    #[test]
    fn occupation_limits_follow_the_fermi_functions() {
        // Far below both chemical potentials every injected state is occupied:
        // the greater boundary term vanishes; far above, the lesser one does.
        let (h, _) = device_bt();
        let flops = FlopCounter::new();
        let low = assemble_g(
            &h,
            -3.0,
            1e-4,
            0,
            None,
            None,
            None,
            0.0,
            0.0,
            0.0259,
            ObcMethod::SanchoRubio,
            None,
            &flops,
        );
        assert!(low.sigma_obc_left_greater.norm_max() < 1e-8);
        let high = assemble_g(
            &h,
            3.0,
            1e-4,
            1,
            None,
            None,
            None,
            0.0,
            0.0,
            0.0259,
            ObcMethod::SanchoRubio,
            None,
            &flops,
        );
        assert!(high.sigma_obc_left_lesser.norm_max() < 1e-8);
    }

    #[test]
    fn memoizer_avoids_direct_solves_on_repeated_assembly() {
        let (h, _) = device_bt();
        let flops = FlopCounter::new();
        let mut memo = ObcMemoizer::new(20, 1e-8);
        assemble_g(
            &h,
            1.0,
            1e-3,
            0,
            None,
            None,
            None,
            0.1,
            -0.1,
            0.0259,
            ObcMethod::SanchoRubio,
            Some(&mut memo),
            &flops,
        );
        // Both contacts solved directly and cached ...
        assert_eq!((memo.stats().direct_calls, memo.stats().hits()), (2, 0));
        assemble_g(
            &h,
            1.0,
            1e-3,
            0,
            None,
            None,
            None,
            0.1,
            -0.1,
            0.0259,
            ObcMethod::SanchoRubio,
            Some(&mut memo),
            &flops,
        );
        // ... and both answered from the cache the second time.
        assert_eq!((memo.stats().direct_calls, memo.stats().hits()), (2, 2));
    }

    /// A small, physically-shaped polarisation `[P^R, P^<, P^>]` scaled by
    /// `scale`: anti-Hermitian lesser parts and a damped retarded part.
    fn polarisation(nb: usize, bs: usize, scale: f64) -> [BlockTridiagonal; 3] {
        [cplx(0.05, -0.02), cplx(0.0, 0.03), cplx(0.0, -0.04)].map(|d| {
            let mut p = BlockTridiagonal::zeros(nb, bs);
            for i in 0..nb {
                p.set_block(i, i, CMatrix::scaled_identity(bs, d * scale));
            }
            p
        })
    }

    #[test]
    fn w_assembly_is_well_posed_and_nearly_exact() {
        let (h, v) = device_bt();
        let flops = FlopCounter::new();
        let [p_r, p_l, p_g] = polarisation(h.n_blocks(), h.block_size(), 1.0);
        let asm = w_step_assemble(&v, [&p_r, &p_l, &p_g], 0, None, &flops);
        assert!(
            asm.truncation_error < 0.2,
            "truncation error {}",
            asm.truncation_error
        );
        // The W system must be solvable and produce symmetric lesser output.
        let sol = rgf_solve(&asm.system, &[&asm.rhs_lesser]).unwrap();
        assert!(sol.lesser[0].negf_symmetry_error() < 1e-8);
        assert!(flops.get(FlopKind::WAssemblyLhs) > 0);
        assert!(flops.get(FlopKind::WAssemblyRhs) > 0);
        assert!(flops.get(FlopKind::WBeyn) > 0);
        assert!(flops.get(FlopKind::WLyapunov) > 0);
    }

    #[test]
    fn memoized_w_assembly_follows_a_changed_polarisation() {
        // The memoizer caches the boundary solutions of P; assembled again
        // with 1.3·P, its refined (or re-solved) boundary terms must be the
        // direct ones to within its refinement tolerance.
        let (h, v) = device_bt();
        let (nb, bs) = (h.n_blocks(), h.block_size());
        let flops = FlopCounter::new();
        let [p_r, p_l, p_g] = polarisation(nb, bs, 1.0);
        let mut memo = ObcMemoizer::new(20, 1e-10);
        w_step_assemble(&v, [&p_r, &p_l, &p_g], 0, Some(&mut memo), &flops);
        let [p_r, p_l, p_g] = polarisation(nb, bs, 1.3);
        let warm = w_step_assemble(&v, [&p_r, &p_l, &p_g], 0, Some(&mut memo), &flops);
        let direct = w_step_assemble(&v, [&p_r, &p_l, &p_g], 0, None, &flops);
        let pairs = [
            (&warm.system, &direct.system),
            (&warm.rhs_lesser, &direct.rhs_lesser),
            (&warm.rhs_greater, &direct.rhs_greater),
        ];
        for (k, (got, want)) in pairs.into_iter().enumerate() {
            for (b, (g, w)) in got.blocks().zip(want.blocks()).enumerate() {
                let rel = g.distance(w) / w.norm_fro().max(1e-300);
                assert!(
                    rel <= 1e-8,
                    "matrix {k} block {b}: {rel:e} off the direct solve"
                );
            }
        }
    }

    #[test]
    fn a_singular_memoized_step_falls_back_to_the_direct_solve() {
        // A cached surface function x with m − n·x·n′ = 0: the fixed-point
        // step is undefined there and must not read as converged.
        let m = CMatrix::from_fn(3, 3, |i, j| {
            if i == j {
                cplx(0.4 * i as f64 - 0.3, 1e-3)
            } else {
                cplx(-0.1, 0.0)
            }
        });
        let n = CMatrix::scaled_identity(3, cplx(-0.5, 0.0));
        let key = ObcKey {
            contact: Contact::Left,
            subsystem: Subsystem::Electron,
            component: 0,
            energy_index: 0,
        };
        let mut memo = ObcMemoizer::new(20, 1e-8);
        memo.insert_cached(key, m.scaled(cplx(4.0, 0.0)));
        let flops = FlopCounter::new();
        let memo_key = Some((&mut memo, key));
        let x = solve_surface(
            &m,
            &n,
            &n,
            ObcMethod::SanchoRubio,
            memo_key,
            &flops,
            FlopKind::GObc,
        );
        assert_eq!((memo.stats().direct_calls, memo.stats().hits()), (1, 0));
        assert!(quatrex_obc::surface_residual(&x, &m, &n, &n) < 1e-8);
    }
}
