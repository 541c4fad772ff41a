//! `dse_sweep`: exhaustive single-threaded sweeps of every pipeline
//! with at most nine buffered stages, each swept measured
//! (`MeasureMode::default()`) and priced-only (`MeasureMode::Off`),
//! interleaved.

use crate::calib;
use crate::inputs::{default_spec, noise_frames, DseInputs, Program};
use crate::report::{ms_since, Metrics, Tally};
use crate::stats;
use imagen_core::Session;
use imagen_dse::{
    explore, DseResult, ExploreOptions, ExploreStrategy, MeasureMode, MeasuredEnergy,
};
use imagen_ir::Dag;
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec, StageMemConfig};
use imagen_power::{gate_clocks, measure};
use imagen_rtl::{
    build_netlist, interpret_with_trace, report_resources_for, BitWidths, EvalProgram,
};
use imagen_sim::Image;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A measured sweep slower than this per point, ms, counts against
/// `within_limit_share`: 2× the p90 measured on the 2-core x86-64 VM the
/// benchmark was tuned on (3.8 ms, the pyramids' sweeps), so the share
/// drops by about a tenth if either pyramid's sweeps slow down 2×.
pub const LIMIT_MS_PER_POINT: f64 = 8.0;

/// The percentile `op_tail_ms` reports: the highest with at least ten of
/// a run's ~190 measured sweeps beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

fn backend() -> MemBackend {
    default_spec().backend()
}

fn sweep(dag: &Dag, g: &ImageGeometry, measure: MeasureMode) -> Result<DseResult, String> {
    explore(
        dag,
        g,
        backend(),
        ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads: 1,
            measure,
        },
    )
    .map_err(|e| e.to_string())
}

/// The spec of configuration `mask` (bit `i` set = buffered stage `i`
/// coalesced), as `explore` builds it.
fn spec_for(buffered: &[usize], mask: u64) -> MemorySpec {
    let mut spec = MemorySpec::new(backend(), 2);
    for (bit, &stage) in buffered.iter().enumerate() {
        spec.set_stage(
            stage,
            StageMemConfig {
                ports: 2,
                coalesce: mask & (1 << bit) != 0,
            },
        );
    }
    spec
}

fn n_inputs(dag: &Dag) -> usize {
    dag.stages().filter(|(_, s)| s.is_input()).count()
}

/// The stimulus `explore` measures on under `MeasureMode::default()`.
fn measure_frames(dag: &Dag, g: &ImageGeometry) -> Vec<Image> {
    match MeasureMode::default() {
        MeasureMode::Noise { seed, bits } => noise_frames(n_inputs(dag), g, seed, bits),
        MeasureMode::Off => unreachable!("measurement is on by default"),
    }
}

fn compile(p: &Program) -> Result<Dag, String> {
    imagen_dsl::compile(&p.name, &p.source).map_err(|e| e.to_string())
}

/// The all-DP and all-DPLC anchors of `p` must reproduce the golden
/// executor's pixels (64/64-bit netlists, 8-bit noise).
pub fn anchor_check(p: &Program, g: &ImageGeometry, seed: u64) -> Result<(), String> {
    let dag = compile(p)?;
    let session = Session::new(&dag, *g);
    let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
    let frames = noise_frames(n_inputs(&dag), g, seed, 8);
    for mask in [0, (1u64 << buffered.len()) - 1] {
        let plan = session
            .price_transient(&spec_for(&buffered, mask), None)
            .map_err(|e| e.to_string())?;
        let net = build_netlist(&plan.dag, &plan.design, &BitWidths::wide());
        let report = EvalProgram::compile(&net)
            .and_then(|prog| prog.run(&frames))
            .map_err(|e| e.to_string())?;
        let golden = imagen_sim::execute(&plan.dag, &frames).map_err(|e| e.to_string())?;
        for (stage, img) in &report.output_images {
            if img != golden.stage(imagen_ir::StageId::from_index(*stage)) {
                return Err(format!(
                    "anchor {mask:#x}: stage {stage} differs from golden"
                ));
            }
        }
    }
    Ok(())
}

/// Checks one measured/priced sweep pair: full point count, measurement
/// present exactly in the measured sweep, and identical pricing in both.
fn sweep_pair_check(measured: &DseResult, priced: &DseResult) -> Result<(), String> {
    let want = 1usize << measured.buffered_stages.len();
    if measured.points.len() != want || priced.points.len() != want {
        return Err(format!("expected {want} points"));
    }
    for (a, b) in measured.points.iter().zip(&priced.points) {
        let m = a.measured.ok_or("measured sweep left a point unmeasured")?;
        if b.measured.is_some() {
            return Err("priced sweep measured a point".into());
        }
        if !(m.energy_pj_per_frame.is_finite() && m.energy_pj_per_frame > 0.0) {
            return Err("non-positive measured energy".into());
        }
        if a.design != b.design || a.resources != b.resources || a.choices != b.choices {
            return Err("measured and priced sweeps priced a point differently".into());
        }
    }
    Ok(())
}

/// The lowest measured pJ/frame of a sweep and that design's SRAM.
fn best_point(res: &DseResult) -> (f64, f64) {
    res.points
        .iter()
        .filter_map(|p| p.measured.map(|m| (m.energy_pj_per_frame, p.sram_kb)))
        .fold((f64::INFINITY, f64::NAN), |best, x| {
            if x.0 < best.0 {
                x
            } else {
                best
            }
        })
}

/// Set-up: generate the inputs, check the anchors of every pipeline
/// against the golden executor, and sweep and gate the seed-drawn one.
pub fn setup(seed: u64, tally: &mut Tally) -> DseInputs {
    let inputs = DseInputs::generate(seed);
    for p in inputs.programs.iter().chain([&inputs.seeded]) {
        let r = anchor_check(p, &inputs.geom, seed);
        tally.check(r.is_ok(), || {
            format!("{} anchors: {}", p.name, r.unwrap_err())
        });
    }
    let r = compile(&inputs.seeded).and_then(|dag| {
        let m = sweep(&dag, &inputs.geom, MeasureMode::default())?;
        let p = sweep(&dag, &inputs.geom, MeasureMode::Off)?;
        sweep_pair_check(&m, &p)
    });
    tally.check(r.is_ok(), || {
        format!("{} sweep: {}", inputs.seeded.name, r.unwrap_err())
    });
    inputs
}

/// Runs the workload for `seconds` (at least one whole round) and
/// returns its end-to-end metrics. One operation is one measured sweep,
/// timed per point. Each sweep pair's wall times are scaled to reference
/// host speed ([`calib`]) with kernel runs around the pair; stderr shows
/// the unscaled figures beside the scaled ones.
pub fn run(inputs: &DseInputs, seconds: f64, tally: &mut Tally) -> Metrics {
    let dags: Vec<Dag> = inputs
        .programs
        .iter()
        .map(|p| compile(p).expect("checked in set-up"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // (pipeline, points, measured ms, priced ms, scale factor) per gated
    // sweep pair, and each round's length.
    let mut pairs: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
    let mut round_ends = Vec::new();
    let mut best: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        for (pi, measured_first) in inputs.round(round) {
            let name = inputs.programs[pi].name.as_str();
            let kernel_before = calib::kernel_ms();
            let mut out: [Option<(Result<DseResult, String>, f64)>; 2] = [None, None];
            for measured in [measured_first, !measured_first] {
                let mode = if measured {
                    MeasureMode::default()
                } else {
                    MeasureMode::Off
                };
                let t = Instant::now();
                let res = sweep(&dags[pi], &inputs.geom, mode);
                out[usize::from(measured)] = Some((res, ms_since(t)));
            }
            let scale = calib::scale(kernel_before);
            let [priced, measured] = out.map(|o| o.expect("both sweeps ran"));
            let r = match (&measured.0, &priced.0) {
                (Ok(m), Ok(p)) => sweep_pair_check(m, p).and_then(|()| {
                    let b = best_point(m);
                    let first = *best.entry(pi).or_insert(b);
                    if first.0.to_bits() == b.0.to_bits() {
                        Ok(m.points.len())
                    } else {
                        Err("best measured energy changed between rounds".into())
                    }
                }),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            // The priced sweep; the measured one is counted below.
            tally.attempted += 1;
            match r {
                Ok(n) => {
                    tally.attempted += 1;
                    pairs.push((pi, n, measured.1, priced.1, scale));
                }
                Err(e) => tally.fail_op(format!("{name}: {e}")),
            }
        }
        round_ends.push(pairs.len());
        round += 1;
    }
    let raw_per_point: Vec<f64> = pairs.iter().map(|p| p.2 / p.1 as f64).collect();
    let per_point: Vec<f64> = pairs.iter().map(|p| p.2 * p.4 / p.1 as f64).collect();
    let within = per_point
        .iter()
        .filter(|&&ms| ms <= LIMIT_MS_PER_POINT)
        .count();
    // Points per second of each round, measured (scaled and unscaled)
    // and priced.
    let (mut rates, mut raw_rates, mut priced_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut start = 0;
    for &end in &round_ends {
        let round = &pairs[start..end];
        if !round.is_empty() {
            let points = round.iter().map(|p| p.1).sum::<usize>() as f64;
            let per_s = |ms: f64| points / (ms / 1e3);
            rates.push(per_s(round.iter().map(|p| p.2 * p.4).sum()));
            raw_rates.push(per_s(round.iter().map(|p| p.2).sum()));
            priced_rates.push(per_s(round.iter().map(|p| p.3 * p.4).sum()));
        }
        start = end;
    }
    let mut rows: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (p, ms) in pairs.iter().zip(&per_point) {
        rows.entry(&inputs.programs[p.0].name)
            .or_default()
            .push(1e3 / ms);
    }
    for (name, rates) in &rows {
        let (q1, med, q3) = stats::quartiles(rates);
        eprintln!(
            "dse_sweep row {name:<20} measured points/s q1/median/q3 {q1:.0}/{med:.0}/{q3:.0} (n={})",
            rates.len()
        );
    }
    let (q1, med, q3) = stats::quartiles(&rates);
    let (pq1, pmed, pq3) = stats::quartiles(&priced_rates);
    let (label, tail) = stats::highest_supported(&per_point);
    eprintln!(
        "dse_sweep {round} rounds, {} measured sweeps; measured points/s q1/median/q3 \
         {q1:.0}/{med:.0}/{q3:.0}; priced {pq1:.0}/{pmed:.0}/{pq3:.0}; ms/point per sweep \
         p50 {:.4}, {label} {tail:.4}",
        pairs.len(),
        stats::median(&per_point)
    );
    eprintln!(
        "dse_sweep unscaled: ms/point p50 {:.4}, p{TAIL_PERCENTILE} {:.4}; measured points/s \
         median {:.0}; host scale factor median {:.4}",
        stats::median(&raw_per_point),
        stats::percentile(&raw_per_point, TAIL_PERCENTILE),
        stats::median(&raw_rates),
        stats::median(&pairs.iter().map(|p| p.4).collect::<Vec<_>>())
    );
    let examples: Vec<(f64, f64)> = best
        .iter()
        .filter(|(pi, _)| inputs.programs[**pi].example)
        .map(|(_, b)| *b)
        .collect();
    eprintln!(
        "dse_sweep design_energy_pj (geomean of best measured pJ/frame over examples) {:.1}",
        stats::geomean(&examples.iter().map(|b| b.0).collect::<Vec<_>>())
    );
    let mut m = Metrics::default();
    m.put("op_p50_ms", stats::median(&per_point), "ms");
    m.put(
        "op_tail_ms",
        stats::percentile(&per_point, TAIL_PERCENTILE),
        "ms",
    );
    m.put("throughput_per_s", med, "1/s");
    m.put(
        "design_sram_kb",
        stats::geomean(&examples.iter().map(|b| b.1).collect::<Vec<_>>()),
        "kB",
    );
    m.put(
        "within_limit_share",
        within as f64 / per_point.len().max(1) as f64,
        "share",
    );
    m
}

/// Per-point layer totals of the traced decomposition.
#[derive(Debug, Default)]
struct Layers {
    points: u64,
    price_ms: f64,
    resources_ms: f64,
    netlist_ms: f64,
    gate_ms: f64,
    interpret_ms: f64,
    interpretations: u64,
    interpret_multirate_ms: f64,
    interpretations_multirate: u64,
    pixels: u64,
    measure_ms: f64,
}

/// One measured point, decomposed at each crate's public entry point:
/// `price_transient` → `report_resources_for` → `build_netlist` →
/// `gate_clocks` → `interpret_with_trace` ×2 → `measure` ×2.
fn traced_point(
    session: &Session,
    buffered: &[usize],
    mask: u64,
    frames: &[Image],
    l: &mut Layers,
) -> Result<(MeasuredEnergy, imagen_rtl::ResourceReport), String> {
    let t = Instant::now();
    let plan = session
        .price_transient(&spec_for(buffered, mask), None)
        .map_err(|e| e.to_string())?;
    l.price_ms += ms_since(t);
    let design = plan.design.clone();

    let t = Instant::now();
    let resources = report_resources_for(&plan.dag, &design, &BitWidths::default());
    l.resources_ms += ms_since(t);

    let t = Instant::now();
    let net = build_netlist(&plan.dag, &design, &BitWidths::default());
    l.netlist_ms += ms_since(t);

    let t = Instant::now();
    let gated = gate_clocks(&net);
    l.gate_ms += ms_since(t);

    let t = Instant::now();
    let (_, ungated_trace) = interpret_with_trace(&net, frames).map_err(|e| e.to_string())?;
    let (gated_report, gated_trace) =
        interpret_with_trace(&gated, frames).map_err(|e| e.to_string())?;
    let ms = ms_since(t);
    if plan.dag.is_multirate() {
        l.interpret_multirate_ms += ms;
        l.interpretations_multirate += 2;
    } else {
        l.interpret_ms += ms;
        l.interpretations += 2;
    }
    l.pixels += 2 * frames
        .iter()
        .map(|f| u64::from(f.width()) * u64::from(f.height()))
        .sum::<u64>();

    let t = Instant::now();
    let ungated = measure(&net, &design, &ungated_trace);
    let gated_energy = measure(&gated, &design, &gated_trace);
    l.measure_ms += ms_since(t);
    l.points += 1;
    Ok((
        MeasuredEnergy {
            energy_pj_per_frame: ungated.energy_pj_per_frame(),
            power_mw: ungated.total_mw(),
            gated_power_mw: gated_energy.total_mw(),
            gated_off_cycles: gated_report.gated_off_cycles,
        },
        resources,
    ))
}

fn same_bits(a: &MeasuredEnergy, b: &MeasuredEnergy) -> bool {
    a.energy_pj_per_frame.to_bits() == b.energy_pj_per_frame.to_bits()
        && a.power_mw.to_bits() == b.power_mw.to_bits()
        && a.gated_power_mw.to_bits() == b.gated_power_mw.to_bits()
        && a.gated_off_cycles == b.gated_off_cycles
}

/// Decomposes every point of `dag`'s sweep and checks it reproduces
/// `explore()`'s measured energy bit for bit and its resources exactly.
fn decompose_sweep(
    dag: &Dag,
    g: &ImageGeometry,
    reference: &DseResult,
    l: &mut Layers,
) -> Result<(), String> {
    let session = Session::new(dag, *g);
    let frames = measure_frames(dag, g);
    for (mask, point) in reference.points.iter().enumerate() {
        let (energy, resources) = traced_point(
            &session,
            &reference.buffered_stages,
            mask as u64,
            &frames,
            l,
        )?;
        let want = point.measured.ok_or("reference point unmeasured")?;
        if !same_bits(&energy, &want) || resources != point.resources {
            return Err(format!(
                "point {mask:#x}: decomposition differs from explore()"
            ));
        }
    }
    Ok(())
}

/// The traced run: whole rounds for at least `seconds`; per pipeline, a
/// measured `explore()`, its per-point decomposition (checked bit for
/// bit against it) and a priced sweep.
pub fn run_traced(inputs: &DseInputs, seconds: f64, tally: &mut Tally) -> Metrics {
    let dags: Vec<Dag> = inputs
        .programs
        .iter()
        .map(|p| compile(p).expect("checked in set-up"))
        .collect();
    let g = inputs.geom;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut l = Layers::default();
    let (mut explore_ms, mut decomposed_ms) = (0.0, 0.0);
    let (mut priced_points, mut priced_ms) = (0usize, 0.0);
    let mut rows: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    let mut round_counts = (0u64, 0u64);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        for (pi, _) in inputs.round(rounds) {
            let name = &inputs.programs[pi].name;
            let t = Instant::now();
            let reference = match sweep(&dags[pi], &g, MeasureMode::default()) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail_op(format!("{name}: {e}"));
                    continue;
                }
            };
            let ms = ms_since(t);
            explore_ms += ms;
            let row = rows.entry(pi).or_default();
            row.0 += reference.points.len();
            row.1 += ms;
            best.insert(pi, best_point(&reference).0);

            let t = Instant::now();
            let r = decompose_sweep(&dags[pi], &g, &reference, &mut l);
            decomposed_ms += ms_since(t);
            tally.check(r.is_ok(), || format!("{name}: {}", r.unwrap_err()));

            let t = Instant::now();
            match sweep(&dags[pi], &g, MeasureMode::Off) {
                Ok(p) => {
                    priced_ms += ms_since(t);
                    priced_points += p.points.len();
                }
                Err(e) => tally.fail_op(format!("{name}: {e}")),
            }
        }
        if rounds == 0 {
            round_counts = (l.interpretations + l.interpretations_multirate, l.pixels);
        }
        rounds += 1;
    }
    let points = l.points.max(1) as f64;
    let measure_ms =
        l.netlist_ms + l.gate_ms + l.interpret_ms + l.interpret_multirate_ms + l.measure_ms;
    let total_ms = measure_ms + l.price_ms + l.resources_ms;
    let mut m = Metrics::default();
    m.put("schedule.price_ms", l.price_ms / points, "ms");
    m.put("rtl.resources_ms", l.resources_ms / points, "ms");
    m.put("dse.netlist_build_ms", l.netlist_ms / points, "ms");
    m.put("power.gate_ms", l.gate_ms / points, "ms");
    m.put(
        "rtl.interpret_ms",
        l.interpret_ms / l.interpretations.max(1) as f64,
        "ms",
    );
    m.put(
        "rtl.interpret_multirate_ms",
        l.interpret_multirate_ms / l.interpretations_multirate.max(1) as f64,
        "ms",
    );
    m.put("rtl.interpretations", round_counts.0 as f64, "count");
    m.put("rtl.pixels_interpreted", round_counts.1 as f64, "count");
    m.put("power.price_ms", l.measure_ms / points, "ms");
    m.put("dse.point_ms", total_ms / points, "ms");
    m.put("dse.measure_share", measure_ms / total_ms, "share");
    m.put(
        "dse.priced_points_per_s",
        priced_points as f64 / (priced_ms / 1e3),
        "1/s",
    );
    let examples: Vec<f64> = best
        .iter()
        .filter(|(pi, _)| inputs.programs[**pi].example)
        .map(|(_, e)| *e)
        .collect();
    m.put("power.design_energy_pj", stats::geomean(&examples), "pJ");
    for (pi, (n, ms)) in &rows {
        m.put(
            format!("dse.points_per_s.{}", inputs.programs[*pi].name),
            *n as f64 / (ms / 1e3),
            "1/s",
        );
    }
    m.put(
        "harness.trace_overhead.dse_sweep",
        decomposed_ms / explore_ms - 1.0,
        "share",
    );
    m
}
