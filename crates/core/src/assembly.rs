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
//! iterations, Section 5.3, or by [`quatrex_obc::surface_cascade_into`] —
//! Sancho–Rubio first for the electrons; for the screened interaction a
//! Sancho–Rubio attempt of two doublings, which answers weakly coupled leads,
//! then Beyn), forms the retarded boundary block `n·x·n′` and subtracts it
//! from the end block. The electron lesser/greater boundary terms then follow
//! from the fluctuation–dissipation theorem, the screened-interaction ones
//! from the discrete Lyapunov equation Eq. (7), in one loop over the two leads.
//!
//! `V·P^R` and `V·P≶·V†` (bandwidths 2 and 3 at transport-cell granularity)
//! are formed straight from the tridiagonal operands at the block pairs
//! `|i − j| ≤ 1` the system of `W` keeps, each block in the exact banded
//! product's summation order. With the paper's `r_cut` well below one
//! transport-cell length the dropped corner blocks are negligible; the
//! truncation monitor computes them on a sample of energies and reports the
//! dropped fraction of the Frobenius weight.

use std::ops::RangeInclusive;

use quatrex_device::fermi;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::lu::LuScratch;
use quatrex_linalg::ops::{
    congruence_into, gemm, gemm_flops, matmul_into, triple_product_flops, triple_product_into, Op,
};
use quatrex_linalg::{c64, CMatrix, ONE, ZERO};
use quatrex_obc::{
    greater_from_retarded_into, lesser_from_retarded_into, lyapunov_doubling_on,
    surface_cascade_into, Contact, LyapunovScratch, ObcKey, ObcMemoizer, Subsystem,
};
use quatrex_sparse::BlockTridiagonal;

pub use quatrex_obc::ObcMethod;

/// Assembled electron system for one energy point.
#[derive(Default)]
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

impl GAssembly {
    /// An all-zero assembly of `nb` blocks of `bs`.
    pub(crate) fn zeros(nb: usize, bs: usize) -> Self {
        let bt = || BlockTridiagonal::zeros(nb, bs);
        Self {
            system: bt(),
            rhs_lesser: bt(),
            rhs_greater: bt(),
            sigma_obc_left_lesser: CMatrix::zeros(bs, bs),
            sigma_obc_left_greater: CMatrix::zeros(bs, bs),
        }
    }
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

/// The temporaries of the assemblies, reused from energy to energy: the two
/// leads, the operands of the memoizer's fixed-point steps, the W products'
/// block row and the Lyapunov work. Warmed at a block size, an assembly
/// allocates only what a direct boundary solve returns.
#[derive(Default)]
pub(crate) struct AssemblyScratch {
    leads: [Lead; 2],
    work: StepWork,
    /// The right contact's lesser/greater boundary terms (the left
    /// contact's are kept in the [`GAssembly`], for the current).
    right: [CMatrix; 2],
    /// One block row of `V·P≶` (columns `i − 2 ..= i + 2`), and the block a
    /// dropped pair of the truncation monitor is formed in.
    vp_row: [CMatrix; 5],
    spare: CMatrix,
    lyapunov: LyapunovWork,
}

/// The operands of one surface fixed-point step and the intermediate of the
/// boundary block's triple product.
#[derive(Default)]
struct StepWork {
    lu: LuScratch,
    nx: CMatrix,
    rhs: CMatrix,
    tmp: CMatrix,
}

/// The Lyapunov boundary terms of one lead: propagation matrix `a`,
/// inhomogeneity `q`, solution `w`, its injection `t·w·t†`, the
/// substitution step's congruence and the doubling's scratch.
#[derive(Default)]
struct LyapunovWork {
    a: CMatrix,
    q: CMatrix,
    w: CMatrix,
    injected: CMatrix,
    awa: CMatrix,
    ab: CMatrix,
    doubling: LyapunovScratch,
}

/// Build `(E+iη)·I − H` as a block-tridiagonal matrix (the MLWF overlap is the
/// identity, Section 4.1). At `E = 1`, `η = 0` this is `I − V·P^R` for `H = V·P^R`.
pub fn bare_system(h: &BlockTridiagonal, energy: f64, eta: f64) -> BlockTridiagonal {
    let mut m = h.clone();
    shift_negated(&mut m, energy, eta);
    m
}

/// `m ← (E+iη)·I − m`, in place: [`bare_system`] of what `m` holds.
fn shift_negated(m: &mut BlockTridiagonal, energy: f64, eta: f64) {
    m.scale_mut(c64::new(-1.0, 0.0));
    for i in 0..m.n_blocks() {
        let d = m.diag_mut(i);
        for k in 0..d.nrows() {
            d[(k, k)] += c64::new(energy, eta);
        }
    }
}

/// The two contacts, in the order every per-contact loop visits them.
const CONTACTS: [Contact; 2] = [Contact::Left, Contact::Right];

/// One contact of an assembled system, after [`attach_leads`] subtracted its
/// retarded boundary block from the system.
#[derive(Default)]
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
#[allow(clippy::too_many_arguments)]
fn attach_leads(
    system: &mut BlockTridiagonal,
    leads: &mut [Lead; 2],
    work: &mut StepWork,
    subsystem: Subsystem,
    energy_index: usize,
    method: ObcMethod,
    mut memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
    kind: FlopKind,
) {
    let nb = system.n_blocks();
    for (lead, contact) in leads.iter_mut().zip(CONTACTS) {
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
        let m = system.diag(block);
        solve_surface(
            &mut lead.surface,
            work,
            m,
            n,
            nprime,
            method,
            memo,
            flops,
            kind,
        );
        // Boundary block n·x·n′: a triple product whose association order
        // (and FLOP count) is picked from the operand shapes.
        triple_product_into(&mut lead.boundary, &mut work.tmp, n, &lead.surface, nprime);
        flops.add(
            kind,
            triple_product_flops(n.shape(), lead.surface.shape(), nprime.shape()),
        );
        lead.coupling.fit(n.nrows(), n.ncols()).copy_from(n);
        lead.block = block;
        *system.diag_mut(block) -= &lead.boundary;
    }
}

/// Answer one boundary problem into `out` from the memoizer — its cached
/// solution refined by `step`, one application of the fixed-point map — or,
/// without a memoizer, by `direct`.
fn memoized(
    memoizer: Option<(&mut ObcMemoizer, ObcKey)>,
    step: impl FnMut(&CMatrix, &mut CMatrix),
    direct: impl FnOnce(&mut CMatrix),
    out: &mut CMatrix,
) {
    match memoizer {
        Some((memo, key)) => {
            memo.solve_into(key, step, direct, out);
        }
        None => direct(out),
    }
}

/// The retarded surface function `x = (m − n·x·n′)⁻¹` of one lead, into `x`.
#[allow(clippy::too_many_arguments)]
fn solve_surface(
    x: &mut CMatrix,
    work: &mut StepWork,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    method: ObcMethod,
    memoizer: Option<(&mut ObcMemoizer, ObcKey)>,
    flops: &FlopCounter,
    kind: FlopKind,
) {
    let dim = m.nrows();
    let StepWork { lu, nx, rhs, .. } = work;
    // One fixed-point step x ↦ (m − n·x·n')⁻¹, written into the memoizer's
    // ping-pong buffer with reused LU/product scratch. Where m − n·x·n' is
    // singular the map is undefined, and NaN sends the solve to the cascade.
    let step = |x: &CMatrix, out: &mut CMatrix| {
        flops.add(
            kind,
            2 * gemm_flops(dim, dim, dim) + 8 * (dim as u64).pow(3),
        );
        // The memoizer refinement is one fixed-point step on one energy's
        // cached guess by design, so it stays per energy.
        // lint:allow(per-energy-gemm): single-energy memoizer step.
        gemm(nx.fit(dim, dim), ONE, Op::None(n), Op::None(x), ZERO);
        rhs.fit(dim, dim).copy_from(m);
        // lint:allow(per-energy-gemm): see above.
        gemm(rhs, -ONE, Op::None(nx), Op::None(nprime), ONE);
        if lu.invert_into(rhs, out).is_err() {
            out.fill_with(|| c64::new(f64::NAN, f64::NAN));
        }
    };
    let direct = |x: &mut CMatrix| flops.add(kind, surface_cascade_into(x, m, n, nprime, method));
    memoized(memoizer, step, direct, x);
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
    let mut asm = GAssembly::default();
    let sigma = [sigma_r, sigma_lesser, sigma_greater];
    let contacts = [mu_left, mu_right, kt];
    let scratch = &mut AssemblyScratch::default();
    assemble_g_into(
        &mut asm,
        scratch,
        h,
        [energy, eta],
        energy_index,
        sigma,
        contacts,
        obc_method,
        memoizer,
        flops,
    );
    asm
}

/// [`assemble_g`] into a kept assembly, every temporary from `scratch`:
/// `at = [E, η]`, `sigma = [Σ^R, Σ^<, Σ^>]`, `contacts = [μ_L, μ_R, k_BT]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_g_into(
    asm: &mut GAssembly,
    scratch: &mut AssemblyScratch,
    h: &BlockTridiagonal,
    [energy, eta]: [f64; 2],
    energy_index: usize,
    [sigma_r, sigma_lesser, sigma_greater]: [Option<&BlockTridiagonal>; 3],
    [mu_left, mu_right, kt]: [f64; 3],
    obc_method: ObcMethod,
    memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) {
    let (nb, bs) = (h.n_blocks(), h.block_size());
    asm.system.copy_from(h);
    shift_negated(&mut asm.system, energy, eta);
    if let Some(sr) = sigma_r {
        asm.system.axpy(c64::new(-1.0, 0.0), sr);
    }
    for (rhs, sigma) in [
        (&mut asm.rhs_lesser, sigma_lesser),
        (&mut asm.rhs_greater, sigma_greater),
    ] {
        match sigma {
            Some(s) => rhs.copy_from(s),
            None => {
                rhs.fit(nb, bs);
                rhs.set_zero();
            }
        }
    }
    let AssemblyScratch {
        leads, work, right, ..
    } = scratch;
    attach_leads(
        &mut asm.system,
        leads,
        work,
        Subsystem::Electron,
        energy_index,
        obc_method,
        memoizer,
        flops,
        FlopKind::GObc,
    );
    // Lesser/greater boundary terms by fluctuation–dissipation, each lead at
    // its own contact's occupation.
    let [right_lesser, right_greater] = right;
    let terms = [
        (
            &leads[0],
            mu_left,
            [
                &mut asm.sigma_obc_left_lesser,
                &mut asm.sigma_obc_left_greater,
            ],
        ),
        (&leads[1], mu_right, [right_lesser, right_greater]),
    ];
    for (lead, mu, [lesser, greater]) in terms {
        let f = fermi(energy, mu, kt);
        lesser_from_retarded_into(lesser, &lead.boundary, f);
        greater_from_retarded_into(greater, &lead.boundary, f);
        *asm.rhs_lesser.diag_mut(lead.block) += &*lesser;
        *asm.rhs_greater.diag_mut(lead.block) += &*greater;
    }
}

/// Block rows within `reach` of row `i` among `nb`, clipped to the matrix.
fn near(i: usize, reach: usize, nb: usize) -> RangeInclusive<usize> {
    i.saturating_sub(reach)..=(i + reach).min(nb - 1)
}

/// `out = Σ A·op(B)` over `terms` in order, each a GEMM accumulating onto the
/// zeroed block. Returns the number of block products.
fn sum_products<'a>(out: &mut CMatrix, terms: impl Iterator<Item = (&'a CMatrix, Op<'a>)>) -> u64 {
    out.as_mut_slice().fill(ZERO);
    let mut count = 0;
    for (a, b) in terms {
        // lint:allow(per-energy-gemm): one energy's block pairs.
        gemm(out, ONE, Op::None(a), b, ONE);
        count += 1;
    }
    count
}

/// `V·P^R`, `V·P^<·V†` and `V·P^>·V†` of one energy at the block pairs
/// `|i − j| ≤ 1` the tridiagonal system keeps, straight from the tridiagonal
/// operands, into `products`, and the FLOPs of those products. With
/// `monitor`, also at the pairs a truncation of the exact banded products
/// drops, to return the dropped fraction of their Frobenius weight (0
/// without); these diagnostic products count no FLOPs, so FLOP totals do not
/// depend on the sample. `vp_row` and `spare` are work blocks.
fn w_products(
    products: [&mut BlockTridiagonal; 3],
    vp_row: &mut [CMatrix; 5],
    spare: &mut CMatrix,
    v: &BlockTridiagonal,
    p: [&BlockTridiagonal; 3],
    monitor: bool,
    flops: &FlopCounter,
) -> f64 {
    fn at(m: &BlockTridiagonal, i: usize, j: usize) -> &CMatrix {
        m.block(i, j).expect("inside the band")
    }
    let (nb, bs) = (v.n_blocks(), v.block_size());
    for block in vp_row.iter_mut().chain([&mut *spare]) {
        block.fit(bs, bs);
    }
    let mut worst = 0.0f64;
    for (c, product) in products.into_iter().enumerate() {
        // Component 0 is V·P^R (bandwidth 2); 1 and 2 are V·P≶·V† (bandwidth
        // 3), whose block row i reads only row i of V·P≶, columns i − 2 ..=
        // i + 2, the dagger fused into the GEMM's loads. Every kept block
        // is written.
        // The monitor's Frobenius weight: [dropped, kept].
        product.fit(nb, bs);
        let (mut count, mut weight) = (0, [0.0; 2]);
        for i in 0..nb {
            // Block (i, j) of V·P: the terms V_il·P_lj over l ascending.
            let vp = |out: &mut CMatrix, j| {
                let terms = near(i, 1, nb).filter(|l| l.abs_diff(j) <= 1);
                sum_products(out, terms.map(|l| (at(v, i, l), Op::None(at(p[c], l, j)))))
            };
            if c > 0 {
                for k in near(i, 2, nb) {
                    count += vp(&mut vp_row[k + 2 - i], k);
                }
            }
            for j in near(i, if monitor { 2 + c.min(1) } else { 1 }, nb) {
                let kept = i.abs_diff(j) <= 1;
                let out = match product.block_mut(i, j) {
                    Some(out) => out,
                    None => &mut *spare,
                };
                let n = if c == 0 {
                    vp(out, j)
                } else {
                    // Block (i, j) of (V·P≶)·V†: the terms (V·P≶)_ik·V_jk† over k ascending.
                    let terms = near(j, 1, nb).filter(|k| k.abs_diff(i) <= 2);
                    sum_products(
                        out,
                        terms.map(|k| (&vp_row[k + 2 - i], Op::Dagger(at(v, j, k)))),
                    )
                };
                if kept {
                    count += n;
                }
                if monitor {
                    weight[usize::from(kept)] += out.norm_fro().powi(2);
                }
            }
        }
        let kind = [FlopKind::WAssemblyLhs, FlopKind::WAssemblyRhs][c.min(1)];
        flops.add(kind, count * gemm_flops(bs, bs, bs));
        let total = weight[1] + weight[0];
        if total > 0.0 {
            worst = worst.max((weight[0] / total).sqrt());
        }
    }
    worst
}

/// Assemble the screened-interaction system at one boson energy: `I − V·P^R`
/// and `V·P≶·V†` with their OBCs (the retarded boundary by the cascade of
/// [`ObcMethod::Beyn`], the lesser/greater one by the Lyapunov equation).
/// `coulomb` is the bare Coulomb matrix `V` in the transport-cell BT tiling,
/// `p = [P^R, P^<, P^>]` the polarisation from the current SCBA iteration;
/// [`WAssembly::truncation_error`] is measured where `monitor` is set, 0
/// elsewhere.
pub(crate) fn assemble_w(
    coulomb: &BlockTridiagonal,
    p: [&BlockTridiagonal; 3],
    energy_index: usize,
    monitor: bool,
    memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) -> WAssembly {
    let mut out = [(); 3].map(|()| BlockTridiagonal::default());
    let scratch = &mut AssemblyScratch::default();
    let truncation_error = assemble_w_into(
        out.each_mut(),
        scratch,
        coulomb,
        p,
        energy_index,
        monitor,
        memoizer,
        flops,
    );
    let [system, rhs_lesser, rhs_greater] = out;
    WAssembly {
        system,
        rhs_lesser,
        rhs_greater,
        truncation_error,
    }
}

/// [`assemble_w`] into kept matrices `[system, rhs_lesser, rhs_greater]`,
/// every temporary from `scratch`. Returns the truncation error.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_w_into(
    [system, rhs_lesser, rhs_greater]: [&mut BlockTridiagonal; 3],
    scratch: &mut AssemblyScratch,
    coulomb: &BlockTridiagonal,
    p: [&BlockTridiagonal; 3],
    energy_index: usize,
    monitor: bool,
    mut memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) -> f64 {
    let bs = coulomb.block_size();
    let AssemblyScratch {
        leads,
        work,
        vp_row,
        spare,
        lyapunov,
        ..
    } = scratch;
    let products = [&mut *system, &mut *rhs_lesser, &mut *rhs_greater];
    let truncation_error = w_products(products, vp_row, spare, coulomb, p, monitor, flops);
    // The system holds V·P^R: make it I − V·P^R.
    shift_negated(system, 1.0, 0.0);
    attach_leads(
        system,
        leads,
        work,
        Subsystem::ScreenedCoulomb,
        energy_index,
        ObcMethod::Beyn,
        memoizer.as_deref_mut(),
        flops,
        FlopKind::WObc,
    );

    // Lesser/greater boundary terms: discrete Lyapunov (Eq. (7)). Propagation
    // matrix a = x^R_w · t with t the lead's coupling block, and inhomogeneity
    // q≶ = x^R_w · B≶_lead · x^R_w†, the semi-infinite continuation of the
    // truncated RHS into the contact; the solution w≶ is injected through the
    // coupling, B≶_OBC = t·w≶·t† (dagger fused).
    let block_gemm = gemm_flops(bs, bs, bs);
    let LyapunovWork {
        a,
        q,
        w,
        injected,
        awa,
        ab,
        doubling,
    } = lyapunov;
    for (lead, contact) in leads.iter().zip(CONTACTS) {
        matmul_into(a, &lead.surface, &lead.coupling);
        flops.add(FlopKind::WLyapunov, 5 * block_gemm);
        for (component, rhs) in [(1, &mut *rhs_lesser), (2, &mut *rhs_greater)] {
            congruence_into(q, &mut work.tmp, &lead.surface, rhs.diag(lead.block));
            let key = ObcKey {
                contact,
                subsystem: Subsystem::ScreenedCoulomb,
                component,
                energy_index,
            };
            let (a, q) = (&*a, &*q);
            // One substitution step w ↦ q − a·w·a†.
            let step = |x: &CMatrix, out: &mut CMatrix| {
                flops.add(FlopKind::WLyapunov, 2 * block_gemm);
                congruence_into(awa, ab, a, x);
                out.fit(q.nrows(), q.ncols()).copy_from(q);
                out.axpy(c64::new(-1.0, 0.0), awa);
            };
            let direct = |w: &mut CMatrix| match lyapunov_doubling_on(doubling, w, a, q, 1e-12, 60)
            {
                Ok((_, fl)) => flops.add(FlopKind::WLyapunov, fl),
                Err(_) => w.fit(q.nrows(), q.ncols()).copy_from(q),
            };
            let memo = memoizer.as_deref_mut().map(|m| (m, key));
            memoized(memo, step, direct, w);
            congruence_into(injected, &mut work.tmp, &lead.coupling, w);
            *rhs.diag_mut(lead.block) += &*injected;
        }
        flops.add(FlopKind::WLyapunov, 4 * block_gemm);
    }
    truncation_error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scba::w_step_assemble;
    use quatrex_device::DeviceBuilder;
    use quatrex_linalg::cplx;
    use quatrex_linalg::ops::matmul;
    use quatrex_rgf::rgf_solve;

    /// [`w_products`] into fresh matrices.
    fn products(
        v: &BlockTridiagonal,
        p: [&BlockTridiagonal; 3],
        monitor: bool,
        flops: &FlopCounter,
    ) -> ([BlockTridiagonal; 3], f64) {
        let mut out = [(); 3].map(|()| BlockTridiagonal::default());
        let (mut vp_row, mut spare) = (Default::default(), CMatrix::default());
        let worst = w_products(
            out.each_mut(),
            &mut vp_row,
            &mut spare,
            v,
            p,
            monitor,
            flops,
        );
        (out, worst)
    }

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
        assert!(flops.get(FlopKind::WObc) > 0);
        assert!(flops.get(FlopKind::WLyapunov) > 0);
    }

    #[test]
    fn kept_block_pairs_match_the_dense_products() {
        // Six block rows, so pairs at |i − j| = 2 and 3 exist away from both
        // edges; P with non-Hermitian, distinct upper and lower blocks.
        let v = DeviceBuilder::test_device(2, 2, 6).build().coulomb_bt();
        let (nb, bs) = (v.n_blocks(), v.block_size());
        let p: [BlockTridiagonal; 3] = [0.3, 1.1, 2.3].map(|seed| {
            let mut p = BlockTridiagonal::zeros(nb, bs);
            for i in 0..nb {
                for j in i.saturating_sub(1)..(i + 2).min(nb) {
                    let t = |r: usize, c: usize| seed + (5 * i + 2 * j + 3 * r + c) as f64;
                    let block =
                        CMatrix::from_fn(bs, bs, |r, c| cplx(t(r, c).sin(), (0.6 * t(c, r)).cos()));
                    p.set_block(i, j, block);
                }
            }
            p
        });
        let (vd, flops) = (v.to_dense(), FlopCounter::new());
        let ([vpr, vplv, vpgv], truncation) = products(&v, [&p[0], &p[1], &p[2]], true, &flops);
        let block = |m: &CMatrix, i: usize, j: usize| m.submatrix(i * bs, j * bs, bs, bs);
        let mut worst = 0.0f64;
        for (k, got) in [vpr, vplv, vpgv].iter().enumerate() {
            let vp = matmul(&vd, &p[k].to_dense());
            let dense = if k == 0 {
                vp
            } else {
                matmul(&vp, &vd.dagger())
            };
            let mut dropped = 0.0;
            for i in 0..nb {
                for j in 0..nb {
                    let want = block(&dense, i, j);
                    match got.block(i, j) {
                        Some(g) => {
                            let rel = g.distance(&want) / want.norm_fro();
                            assert!(rel <= 1e-13, "product {k} block ({i},{j}): {rel:e} off");
                        }
                        None => dropped += want.norm_fro().powi(2),
                    }
                }
            }
            worst = worst.max((dropped / dense.norm_fro().powi(2)).sqrt());
        }
        assert!(worst > 1e-3, "the dense products drop weight: {worst:e}");
        assert!(
            (truncation - worst).abs() <= 1e-12 * worst,
            "{truncation:e} vs {worst:e}"
        );
        // Unmonitored: the same kept blocks, no fraction, the same FLOPs.
        let unmonitored = FlopCounter::new();
        let (kept, zero) = products(&v, [&p[0], &p[1], &p[2]], false, &unmonitored);
        assert_eq!(zero, 0.0);
        assert_eq!(unmonitored.total(), flops.total());
        let got = products(&v, [&p[0], &p[1], &p[2]], true, &FlopCounter::new()).0;
        for (a, b) in kept.iter().zip(&got) {
            assert!(a.blocks().zip(b.blocks()).all(|(x, y)| x == y));
        }
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
        let mut x = CMatrix::default();
        solve_surface(
            &mut x,
            &mut StepWork::default(),
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
