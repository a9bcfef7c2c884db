//! The paper's evaluation — Tables 1 and 3–6 and Fig. 6 — beside this
//! reproduction's measurements.
//!
//! Reads the three artefacts of the bench-smoke sequence from the working
//! directory — `BENCH_kernels.json` (`bench_kernels`), `DIST_report.json`
//! (`examples/distributed_scba.rs`) and `SWEEP_report.json`
//! (`examples/nanoribbon_iv.rs`); the committed copies are a full-mode run —
//! and prints every table as rows of *paper value | measured value |
//! source*:
//!
//! * a paper value is an entry of [`PAPER`], keyed by table, row and machine
//!   class the way ReFrame keys its `(value, unit)` references by system;
//! * a measured value names the artefact and the JSON paths it was read (or
//!   computed) from;
//! * Table 3 is the structural input the solvers are built from,
//!   `DeviceCatalog`;
//! * Table 6 and Fig. 6 are the output of [`extrapolate`], the one formula
//!   that carries the measured cost of an SCBA iteration to the paper's
//!   machines.
//!
//! A path missing from an artefact is an error naming the file and the path,
//! and a non-zero exit — never a blank cell.
//!
//! Run with: `cargo run --release -p quatrex-bench --bin paper_tables`
//! (after `bench_kernels` and the two report examples).

use quatrex_core::dist::BYTES_PER_VALUE;
use quatrex_device::{DeviceCatalog, DeviceParams};
use quatrex_probe::json::{self, Json};
use std::path::Path;
use std::process::ExitCode;

/// A number the paper reports: `(table, row, machine class, value, unit)`.
/// Frontier's compute element is one MI250X GCD, Alps' one GH200.
type Reference = (&'static str, &'static str, &'static str, f64, &'static str);

/// Every paper number the tables print.
#[rustfmt::skip]
const PAPER: &[Reference] = &[
    ("1", "exponent of N_B", "any", 1.0, "exponent"),
    ("1", "exponent of N_BS", "any", 3.0, "exponent"),
    ("4", "workload per energy, memoizer on", "Frontier", 579.6, "Tflop"),
    ("4", "workload per energy, memoizer off", "Frontier", 590.0, "Tflop"),
    ("4", "time per energy, memoizer on", "Frontier", 29.7, "s"),
    ("4", "time per energy, memoizer off", "Frontier", 52.7, "s"),
    ("4", "rate, memoizer on", "Frontier", 19.5, "Tflop/s"),
    ("4", "fraction of peak, memoizer on", "Frontier", 73.0, "%"),
    ("5", "NR-24, P_S = 2: top partition", "Frontier", 483.5, "Tflop"),
    ("5", "NR-24, P_S = 2: bottom partition", "Frontier", 526.5, "Tflop"),
    ("5", "NR-40, P_S = 4: top partition", "Frontier", 490.0, "Tflop"),
    ("5", "NR-40, P_S = 4: middle partition", "Frontier", 772.0, "Tflop"),
    ("5", "NR-40, P_S = 4: bottom partition", "Frontier", 532.0, "Tflop"),
    ("6", "Rpeak", "Frontier", 2_055.72, "Pflop/s"),
    ("6", "Rmax", "Frontier", 1_353.0, "Pflop/s"),
    ("6", "nodes", "Frontier", 9_604.0, "nodes"),
    ("6", "elements per node", "Frontier", 8.0, "GCDs"),
    ("6", "NIC injection bandwidth", "Frontier", 25.0, "GB/s"),
    ("6", "Rpeak", "Alps", 574.84, "Pflop/s"),
    ("6", "Rmax", "Alps", 434.90, "Pflop/s"),
    ("6", "nodes", "Alps", 2_600.0, "nodes"),
    ("6", "elements per node", "Alps", 4.0, "GPUs"),
    ("6", "NIC injection bandwidth", "Alps", 25.0, "GB/s"),
    ("6", "NR-24: P_S", "Frontier", 2.0, "partitions"),
    ("6", "NR-24: nodes", "Frontier", 9_400.0, "nodes"),
    ("6", "NR-24: energies", "Frontier", 37_600.0, "energies"),
    ("6", "NR-40: P_S", "Frontier", 4.0, "partitions"),
    ("6", "NR-40: nodes", "Frontier", 9_400.0, "nodes"),
    ("6", "NR-40: energies", "Frontier", 18_800.0, "energies"),
    ("6", "NR-40: workload", "Frontier", 48_252.0, "Pflop"),
    ("6", "NR-40: time per iteration", "Frontier", 42.1, "s"),
    ("6", "NR-40: rate", "Frontier", 1_146.0, "Pflop/s"),
    ("6", "NR-40: weak-scaling efficiency", "Frontier", 82.0, "%"),
    ("6", "NR-40: fraction of Rmax", "Frontier", 84.7, "%"),
    ("6", "NR-40: fraction of Rpeak", "Frontier", 55.7, "%"),
    ("6", "NR-23: P_S", "Alps", 1.0, "partitions"),
    ("6", "NR-23: nodes", "Alps", 2_350.0, "nodes"),
    ("6", "NR-23: energies", "Alps", 9_400.0, "energies"),
    ("6", "NR-44: P_S", "Alps", 2.0, "partitions"),
    ("6", "NR-44: nodes", "Alps", 2_350.0, "nodes"),
    ("6", "NR-44: energies", "Alps", 4_700.0, "energies"),
    ("Fig. 6", "efficiency at the largest node count, lower bound", "any", 80.0, "%"),
];

/// Table 6's runs, `(device, machine)`, in the paper's order.
const RUNS: [(&str, &str); 4] = [
    ("NR-24", "Frontier"),
    ("NR-40", "Frontier"),
    ("NR-23", "Alps"),
    ("NR-44", "Alps"),
];

/// The artefacts, in the order [`load`] returns them.
const FILES: [&str; 3] = [KERNELS, "DIST_report.json", "SWEEP_report.json"];
const KERNELS: &str = "BENCH_kernels.json";

/// A number and its unit.
type Quantity = (f64, &'static str);

/// A measured cell: value, unit and where it was read.
type Cell = (f64, &'static str, String);

/// A printed row: label, paper value, measured value.
struct Row(String, Option<Quantity>, Option<Cell>);

/// A table: its title and rows.
type Table = (&'static str, Vec<Row>);

/// The paper's value for `(table, row, machine)`, if it reports one.
fn paper(table: &str, row: &str, machine: &str) -> Option<Quantity> {
    let hit = PAPER
        .iter()
        .find(|r| (r.0, r.1, r.2) == (table, row, machine));
    hit.map(|r| (r.3, r.4))
}

/// A paper value the extrapolation cannot do without.
fn constant(table: &str, row: &str, machine: &str) -> f64 {
    let missing = || panic!("no paper reference ({table}, {row}, {machine})");
    paper(table, row, machine).unwrap_or_else(missing).0
}

/// One parsed artefact and the file name its errors and sources quote.
struct Doc {
    file: &'static str,
    json: Json,
}

impl Doc {
    /// The number at `path`, or an error naming the file and the path.
    fn num(&self, path: &str) -> Result<f64, String> {
        let number = self.json.path(path).and_then(Json::as_f64);
        number.ok_or_else(|| format!("{}: no number at `{path}`", self.file))
    }

    /// `value`, computed from `paths` of this file.
    fn cell(&self, value: f64, unit: &'static str, paths: &str) -> Option<Cell> {
        Some((value, unit, format!("{} {paths}", self.file)))
    }

    /// The number at `path`.
    fn at(&self, path: &str, unit: &'static str) -> Result<Option<Cell>, String> {
        Ok(self.cell(self.num(path)?, unit, path))
    }
}

/// The three artefacts in `dir`, in the order of [`FILES`].
fn load(dir: &Path) -> Result<[Doc; 3], String> {
    let doc = |file: &'static str| -> Result<Doc, String> {
        let text = std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        let json = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        Ok(Doc { file, json })
    };
    Ok([doc(FILES[0])?, doc(FILES[1])?, doc(FILES[2])?])
}

/// Table 1: the `O(N_E·N_B·N_BS³)` law, fitted to the exact FLOP counts of
/// the `rgf_solve` rows (rows 0 and 2 differ in `N_B` only, 0 and 1 in
/// `N_BS` only).
fn table1(k: &Doc) -> Result<Table, String> {
    let at = |i: usize, field: &str| k.num(&format!("rgf_solve[{i}].{field}"));
    let fit = |i, j, size| -> Result<f64, String> {
        Ok((at(j, "flops")? / at(i, "flops")?).ln() / (at(j, size)? / at(i, size)?).ln())
    };
    let mut rows = Vec::new();
    for (size, field, j) in [("N_B", "n_b", 2), ("N_BS", "n_bs", 1)] {
        let label = format!("exponent of {size}");
        let paths = format!("rgf_solve[0,{j}].{{flops, {field}}}");
        let cell = k.cell(fit(0, j, field)?, "exponent", &paths);
        rows.push(Row(label.clone(), paper("1", &label, "any"), cell));
    }
    for i in 0..3 {
        let (n_b, n_bs) = (at(i, "n_b")?, at(i, "n_bs")?);
        let per_unit = at(i, "flops")? / (n_b * n_bs.powi(3));
        let label = format!("FLOPs / (N_B·N_BS³) at N_B = {n_b}, N_BS = {n_bs}");
        let cell = k.cell(per_unit, "flop", &format!("rgf_solve[{i}].flops"));
        rows.push(Row(label, None, cell));
    }
    let title = "Table 1 — per-iteration complexity O(N_E·N_B·N_BS³), one selected RGF solve";
    Ok((title, rows))
}

/// Table 3: the device catalogue, the paper's `H_nnz` beside the structural
/// estimate the synthetic Hamiltonians are built to.
fn table3() -> Table {
    let row = |d: quatrex_device::DeviceParams| {
        let (n_bs, n_b) = (d.transport_cell_size_g(), d.n_blocks_g);
        let (name, n_a, n_ao) = (&d.name, d.n_atoms, d.n_orbitals);
        let label = format!("{name}: N_A {n_a}, N_AO {n_ao}, N_BS {n_bs}, N_B {n_b}");
        let structural = (
            d.h_nnz_structural() as f64,
            "nnz",
            format!("DeviceCatalog {name}"),
        );
        Row(label, Some((d.h_nnz_paper, "nnz")), Some(structural))
    };
    let title = "Table 3 — devices, H_nnz (paper: as reported; measured: structural estimate)";
    (title, DeviceCatalog::all().into_iter().map(row).collect())
}

/// Table 4: one SCBA iteration per energy point with the OBC memoizer on and
/// off — paper NR-16 on an MI250X GCD, measured `bench_kernels`' SCBA runs.
fn table4(k: &Doc) -> Result<Table, String> {
    let (mut rows, mut wall) = (Vec::new(), Vec::new());
    let runs = [
        ("scba_iteration", "on"),
        ("scba_iteration_memoizer_off", "off"),
    ];
    for (run, memo) in runs {
        let at = |field: &str| k.num(&format!("{run}.{field}"));
        let (flops, wall_ms) = (at("total_flops")?, at("wall_ms")?);
        let per = at("iterations")? * at("n_energies")?;
        let gflops = flops / wall_ms / 1e6;
        wall.push(wall_ms);
        let per_energy = |field| format!("{run}.{{{field}, iterations, n_energies}}");
        let (work_path, time_path) = (per_energy("total_flops"), per_energy("wall_ms"));
        let rate_path = format!("{run}.{{total_flops, wall_ms}}");
        let peak_path = format!("{rate_path}, fma_peak_gflops");
        let hit_path = format!("{run}.memoizer_hit_rate");
        let peak = 100.0 * gflops / k.num("fma_peak_gflops")?;
        let hits = at("memoizer_hit_rate")?;
        for (what, value, unit, paths) in [
            ("workload per energy", flops / per, "flop", work_path),
            ("time per energy", wall_ms / per, "ms", time_path),
            ("rate", gflops, "GFLOP/s", rate_path),
            ("fraction of peak", peak, "%", peak_path),
            ("OBC memoizer hit rate", hits, "ratio", hit_path),
        ] {
            let label = format!("{what}, memoizer {memo}");
            let reference = paper("4", &label, "Frontier");
            rows.push(Row(label, reference, k.cell(value, unit, &paths)));
        }
    }
    let time = |memo: &str| {
        let key = format!("time per energy, memoizer {memo}");
        constant("4", &key, "Frontier")
    };
    let reference = Some((time("off") / time("on"), "x"));
    let paths = "scba_iteration{,_memoizer_off}.wall_ms";
    let label = "memoizer speed-up, time off / on";
    rows.push(Row(
        label.into(),
        reference,
        k.cell(wall[1] / wall[0], "x", paths),
    ));
    let title = "Table 4 — SCBA iteration per energy, memoizer on / off \
                 (paper: NR-16 on an MI250X GCD; measured: bench_kernels' reduced NW-1 runs)";
    Ok((title, rows))
}

/// Table 5: per-partition FLOPs of the spatial decomposition — paper NR-24 /
/// NR-40, measured the 24-block bench cell. The paper's runs used the uniform
/// layout only.
fn table5(k: &Doc) -> Result<Table, String> {
    let mut rows = Vec::new();
    for (i, device) in [(0, Some("NR-24")), (1, Some("NR-40")), (2, None)] {
        let row = format!("nested_dissection[{i}]");
        let p_s = k.num(&format!("{row}.p_s"))? as usize;
        let layout = device.map_or("balanced", |_| "uniform");
        let role = |p: usize| match p {
            0 => "top",
            p if p + 1 == p_s => "bottom",
            _ => "middle",
        };
        let key = |p| device.map(|d| format!("{d}, P_S = {p_s}: {} partition", role(p)));
        let mut flops = Vec::new();
        for p in 0..p_s {
            let path = format!("{row}.partition_flops[{p}]");
            flops.push(k.num(&path)?);
            let reference = key(p).and_then(|key| paper("5", &key, "Frontier"));
            let label = format!("P_S = {p_s}, {layout}: {} partition {p}", role(p));
            rows.push(Row(label, reference, k.at(&path, "flop")?));
        }
        if p_s > 2 {
            let mid = flops[1..p_s - 1].iter().sum::<f64>() / (p_s - 2) as f64;
            let ends = 0.5 * (flops[0] + flops[p_s - 1]);
            let part = |p| key(p).map(|key| constant("5", &key, "Frontier"));
            let reference = (part(0).zip(part(1)).zip(part(p_s - 1)))
                .map(|((top, middle), bottom)| (0.5 * (top + bottom) / middle, "ratio"));
            let label = format!("P_S = {p_s}, {layout}: boundary / middle");
            let cell = k.cell(ends / mid, "ratio", &format!("{row}.partition_flops"));
            rows.push(Row(label, reference, cell));
            let even = k.num(&format!("{row}.sequential_flops"))? / p_s as f64;
            let label = format!("P_S = {p_s}, {layout}: middle / even share");
            let paths = format!("{row}.{{partition_flops, sequential_flops}}");
            rows.push(Row(label, None, k.cell(mid / even, "ratio", &paths)));
        }
    }
    let title = "Table 5 — spatial domain decomposition, one energy point \
                 (paper: NR-24 / NR-40; measured: 24-block bench cell, N_BS = 8)";
    Ok((title, rows))
}

/// The measured cost [`extrapolate`] scales: `bench_kernels`' SCBA run.
struct Cost {
    /// FLOPs per energy point per iteration per `N_B·N_BS³`.
    flop_per_unit: f64,
    /// The run's rate over the FMA peak of the machine that ran it.
    peak_fraction: f64,
}

impl Cost {
    fn read(k: &Doc) -> Result<Self, String> {
        let at = |field: &str| k.num(&format!("scba_iteration.{field}"));
        let flops = at("total_flops")?;
        let units = at("n_energies")? * at("iterations")? * at("n_b")? * at("n_bs")?.powi(3);
        let rate = flops / (at("wall_ms")? * 1e6);
        Ok(Cost {
            flop_per_unit: flops / units,
            peak_fraction: rate / k.num("fma_peak_gflops")?,
        })
    }
}

/// One SCBA iteration as [`extrapolate`] prices it.
struct Projection {
    /// Work over all energies, flop.
    workload: f64,
    /// Computation time of one element, s.
    compute_s: f64,
    /// Transposition time of one element, s.
    comm_s: f64,
}

/// The one extrapolation behind Table 6 and Fig. 6: one SCBA iteration of the
/// catalogue `device` over `energies` energy points on `nodes` nodes of the
/// paper's `machine`.
///
/// * **Work** — Table 1's law with the measured constant: the FLOPs per
///   energy per `N_B·N_BS³` of `bench_kernels`' SCBA run times the device's
///   `N_B·N_BS³` times `energies`, split evenly over the GCDs / GPUs.
/// * **Rate** — every element runs at the fraction of the FMA peak the
///   measured run reached, times the element's Rpeak (the machine's Rpeak
///   over its elements).
/// * **Communication** — the four transpositions of one iteration
///   ([`transposed_values_per_energy`] at every energy), less the share
///   `1/elements` that stays on its element, per element, at the NIC
///   injection bandwidth.
///
/// It ignores everything else: work of lower order than `N_B·N_BS³` (the
/// `N_BS³` OBC solves, the `N_E log N_E` convolutions, `N_BS²` assembly terms
/// — the measured constant at the bench device's small `N_BS` folds them in),
/// the nested-dissection overhead at `P_S > 1` (Table 5 measures it), `W`'s
/// own non-zero pattern (`G`'s stands for all four quantities), latency,
/// intra-node links, network contention, load imbalance and any overlap of
/// communication with computation. No multiplier is calibrated against the
/// paper.
fn extrapolate(cost: &Cost, device: &str, machine: &str, nodes: f64, energies: f64) -> Projection {
    let c = |row: &str| constant("6", row, machine);
    let device = DeviceCatalog::by_name(device).expect("Table 6 names catalogue devices");
    let elements = nodes * c("elements per node");
    let element_peak = c("Rpeak") * 1e15 / (c("nodes") * c("elements per node"));
    let workload = cost.flop_per_unit * device.rgf_block_ops_per_energy() * energies;
    let off_element = 1.0 - 1.0 / elements;
    let bytes =
        transposed_values_per_energy(&device) * energies * off_element * BYTES_PER_VALUE as f64;
    Projection {
        workload,
        compute_s: workload / elements / (cost.peak_fraction * element_peak),
        comm_s: bytes / (elements * c("NIC injection bandwidth") * 1e9),
    }
}

/// Complex values one SCBA iteration's transpositions carry per energy, by
/// the rule `TranspositionPlan::transposition_bytes` counts exactly: the 8
/// lesser/greater components ship `(G_nnz + N_AO) / 2` canonical values (the
/// `N_AO` diagonal entries are their own mirrors), the 2 retarded ones all
/// `G_nnz`.
fn transposed_values_per_energy(device: &DeviceParams) -> f64 {
    let nnz = device.g_nnz_paper;
    8.0 * (nnz + device.n_orbitals as f64) / 2.0 + 2.0 * nnz
}

/// The source column of an [`extrapolate`]d value.
const EXTRAPOLATED: &str = "extrapolate: BENCH_kernels.json scba_iteration, fma_peak_gflops";

/// Table 6: the full-machine runs, extrapolated, then the time per SCBA
/// iteration this reproduction measured on its own rank grids.
fn table6([_, d, s]: &[Doc; 3], cost: &Cost) -> Result<Table, String> {
    let mut rows = Vec::new();
    for machine in ["Frontier", "Alps"] {
        let inputs = [
            "Rpeak",
            "Rmax",
            "nodes",
            "elements per node",
            "NIC injection bandwidth",
        ];
        for what in inputs {
            rows.push(Row(
                format!("{machine}: {what}"),
                paper("6", what, machine),
                None,
            ));
        }
    }
    for (device, machine) in RUNS {
        let key = |what: &str| paper("6", &format!("{device}: {what}"), machine);
        let label = |what: &str| format!("{device} on {machine}: {what}");
        for what in ["P_S", "nodes", "energies"] {
            rows.push(Row(label(what), key(what), None));
        }
        let input = |what: &str| constant("6", &format!("{device}: {what}"), machine);
        let run = extrapolate(cost, device, machine, input("nodes"), input("energies"));
        let time = run.compute_s + run.comm_s;
        let rate = run.workload / time;
        let share_of = |row: &str| 100.0 * rate / (constant("6", row, machine) * 1e15);
        for (what, value, unit) in [
            ("workload", run.workload / 1e15, "Pflop"),
            ("time per iteration", time, "s"),
            ("rate", rate / 1e15, "Pflop/s"),
            ("weak-scaling efficiency", 100.0 * run.compute_s / time, "%"),
            ("fraction of Rmax", share_of("Rmax"), "%"),
            ("fraction of Rpeak", share_of("Rpeak"), "%"),
        ] {
            let cell = Some((value, unit, EXTRAPOLATED.into()));
            rows.push(Row(label(what), key(what), cell));
        }
    }
    let (ranks, p_s) = (d.num("n_ranks")?, d.num("spatial_partitions")?);
    let label = format!("this reproduction, {ranks} ranks, P_S = {p_s}: time per iteration");
    rows.push(Row(label, None, d.at("seconds_per_iteration", "s")?));
    let point = |field: &str| s.num(&format!("cold.points[0].{field}"));
    let per_iteration = point("wall_seconds")? / point("iterations")?;
    let cell = s.cell(
        per_iteration,
        "s",
        "cold.points[0].{wall_seconds, iterations}",
    );
    let label = "this reproduction, I-V sweep point 0: time per iteration";
    rows.push(Row(label.into(), None, cell));
    let title = "Table 6 — full-machine runs (measured: extrapolate() of the measured SCBA \
                 iteration; last rows: this reproduction's own rank grids)";
    Ok((title, rows))
}

/// Fig. 6: weak scaling of two Table 6 runs — energies per node held at the
/// full-scale run's — then the transposition volume this reproduction
/// measured.
fn figure6([_, d, s]: &[Doc; 3], cost: &Cost) -> Result<Table, String> {
    let mut rows = Vec::new();
    for (device, machine) in [RUNS[1], RUNS[2]] {
        let input = |what: &str| constant("6", &format!("{device}: {what}"), machine);
        let full = input("nodes");
        let point = |nodes: f64| {
            let energies = (input("energies") * nodes / full).ceil();
            let p = extrapolate(cost, device, machine, nodes, energies);
            (p.compute_s, p.comm_s)
        };
        let (compute_1, comm_1) = point(1.0);
        for nodes in [1.0, 8.0, 64.0, 512.0, full] {
            let (compute, comm) = point(nodes);
            let key = "efficiency at the largest node count, lower bound";
            let bound = paper("Fig. 6", key, "any").filter(|_| nodes == full);
            let efficiency = 100.0 * (compute_1 + comm_1) / (compute + comm);
            let split = format!("compute {compute:.1} s + comm {comm:.2} s");
            let label = format!("{device}, {nodes} {machine} nodes: efficiency ({split})");
            rows.push(Row(
                label,
                bound,
                Some((efficiency, "%", EXTRAPOLATED.into())),
            ));
        }
    }
    let ranks = d.num("n_ranks")?;
    let volume = d.num("measured_transposition_bytes")? / (ranks * d.num("full_iterations")?);
    let paths = "{measured_transposition_bytes, n_ranks, full_iterations}";
    let what = "transposition bytes per rank per iteration";
    let label = format!("this reproduction, {ranks} ranks: {what}");
    rows.push(Row(label, None, d.cell(volume, "bytes", paths)));
    let cell = s.at("cold.points[0].bytes_per_rank_per_iteration", "bytes")?;
    rows.push(Row(
        format!("this reproduction, I-V sweep point 0: {what}"),
        None,
        cell,
    ));
    let title = "Fig. 6 — weak scaling over the energy grid (efficiency vs the 1-node point, \
                 extrapolate()); last rows: measured transposition volume";
    Ok((title, rows))
}

/// Every table, built from the artefacts.
fn tables(docs: &[Doc; 3]) -> Result<Vec<Table>, String> {
    let cost = Cost::read(&docs[0])?;
    Ok(vec![
        table1(&docs[0])?,
        table3(),
        table4(&docs[0])?,
        table5(&docs[0])?,
        table6(docs, &cost)?,
        figure6(docs, &cost)?,
    ])
}

/// A value and its unit: integers in full, other values to five significant
/// digits, scientific notation outside `[1e-3, 1e6)`.
fn show((v, unit): Quantity) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0} {unit}")
    } else if !(1e-3..1e6).contains(&v.abs()) {
        format!("{v:.3e} {unit}")
    } else {
        let digits = (4 - v.abs().log10().floor() as i32).max(0) as usize;
        format!("{v:.digits$} {unit}")
    }
}

fn main() -> ExitCode {
    let tables = match load(Path::new(".")).and_then(|docs| tables(&docs)) {
        Ok(tables) => tables,
        Err(e) => {
            eprintln!("paper_tables: {e}");
            eprintln!("(run bench_kernels, distributed_scba and nanoribbon_iv first)");
            return ExitCode::FAILURE;
        }
    };
    for (title, rows) in &tables {
        println!(
            "{title}\n  {:<72} {:>16} {:>20}  source",
            "row", "paper", "measured"
        );
        for Row(label, paper, measured) in rows {
            let (value, source) = match measured {
                Some((v, unit, source)) => (show((*v, unit)), source.as_str()),
                None => ("-".into(), ""),
            };
            let paper = paper.map_or("-".into(), show);
            println!("  {label:<72} {paper:>16} {value:>20}  {source}");
        }
        println!();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> [Doc; 3] {
        load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")).expect("committed artefacts")
    }

    #[test]
    fn every_table_resolves_against_the_committed_artefacts() {
        let tables = tables(&committed()).expect("every path resolves");
        for prefix in [
            "Table 1", "Table 3", "Table 4", "Table 5", "Table 6", "Fig. 6",
        ] {
            assert!(
                tables.iter().any(|(t, _)| t.starts_with(prefix)),
                "{prefix}"
            );
        }
        let rows: Vec<&Row> = tables.iter().flat_map(|(_, rows)| rows).collect();
        for Row(label, paper, measured) in &rows {
            assert!(paper.is_some() || measured.is_some(), "{label}: empty row");
            if let Some((v, unit, source)) = measured {
                assert!(v.is_finite(), "{label}: {v}");
                assert!(!unit.is_empty() && !source.is_empty(), "{label}");
            }
        }
        // Every paper reference has a unit and reaches a printed row.
        for &(table, row, machine, value, unit) in PAPER {
            assert!(!unit.is_empty(), "({table}, {row}, {machine}) has no unit");
            assert!(
                rows.iter().any(|r| r.1 == Some((value, unit))),
                "({table}, {row}, {machine}) is printed nowhere"
            );
        }
    }

    #[test]
    fn a_missing_path_is_an_error_naming_the_file_and_the_path() {
        let mut docs = committed();
        let Some(Json::Obj(scba)) = (match &mut docs[0].json {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == "scba_iteration"),
            _ => None,
        })
        .map(|(_, row)| row) else {
            panic!("BENCH_kernels.json has an scba_iteration object");
        };
        scba.retain(|(k, _)| k != "wall_ms");
        let err = tables(&docs).err().expect("a missing path is an error");
        assert!(err.contains("BENCH_kernels.json"), "{err}");
        assert!(err.contains("`scba_iteration.wall_ms`"), "{err}");
    }
}
