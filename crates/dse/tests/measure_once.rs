//! Measure once, reprice per point: the structure pass against the full
//! traced interpretation.
//!
//! * Every `examples/*.imagen` sweep (the multirate pyramids included)
//!   and randomly generated DAG sweeps (some with a `downsample(2,2)` /
//!   `upsample(2,2)` pair), under two stimuli and at 1 and 4 worker
//!   threads, measure every point bit for bit as
//!   `imagen_power::measure_netlist` does, every sweep records a data
//!   trace, and the paired structure pass reproduces
//!   `interpret_with_trace`'s activity traces field for field, ungated
//!   and clock-gated, from the point's roster.
//! * Points outside the guard take the interpreting path: a partially
//!   gated (corrupted) gate window — which must still trip the gated ≡
//!   ungated output assertion — and a datapath whose rate scales differ
//!   from the recorded one.
//! * A rate-1 sweep and a pyramid sweep each record their data pass once,
//!   elaborate no netlist besides the one it is recorded from, and
//!   interpret nothing.

use imagen_core::Session;
use imagen_dse::{explore, DseResult, ExploreOptions, ExploreStrategy, MeasureMode};
use imagen_ir::{BinOp, CmpOp, Dag, Expr, Rate};
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec, StageMemConfig};
use imagen_obs::Collector;
use imagen_power::{gate_clocks, gating_plan, measure_design_point, measure_netlist};
use imagen_rtl::{
    build_netlist, build_roster, interpret_with_trace, BitWidths, DataTrace, GatingPlan, Netlist,
    Roster,
};
use imagen_sim::Image;
use proptest::prelude::*;
use std::sync::Arc;

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 32,
        height: 24,
        pixel_bits: 16,
    }
}

fn backend() -> MemBackend {
    // Blocks hold two rows, so DPLC is available.
    MemBackend::Asic {
        block_bits: 2 * 32 * 16,
    }
}

const MODES: [MeasureMode; 2] = [
    MeasureMode::Noise { seed: 1, bits: 4 },
    MeasureMode::Noise { seed: 7, bits: 8 },
];

/// The stimulus `explore` measures on under `mode`.
fn stimulus(dag: &Dag, mode: MeasureMode) -> Vec<Image> {
    let MeasureMode::Noise { seed, bits } = mode else {
        unreachable!("only measuring modes are swept")
    };
    let g = geom();
    (0..dag.stages().filter(|(_, s)| s.is_input()).count())
        .map(|i| {
            let seed = seed.wrapping_add(i as u64);
            Image::from_fn(g.width, g.height, move |x, y| {
                imagen_algos::noise_bits(seed, x, y, bits)
            })
        })
        .collect()
}

fn sweep(dag: &Dag, mode: MeasureMode, threads: usize) -> DseResult {
    explore(
        dag,
        &geom(),
        backend(),
        ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads,
            measure: mode,
        },
    )
    .expect("sweep")
}

/// Point `mask` of `res`, as `explore` plans it.
struct Point {
    /// The DAG the design was scheduled from.
    dag: Dag,
    design: imagen_mem::Design,
    /// The point's netlist and its roster.
    net: Netlist,
    roster: Roster,
}

fn point(session: &Session, res: &DseResult, mask: usize) -> Point {
    let mut spec = MemorySpec::new(backend(), 2);
    for (bit, &stage) in res.buffered_stages.iter().enumerate() {
        spec.set_stage(
            stage,
            StageMemConfig {
                ports: 2,
                coalesce: mask & (1 << bit) != 0,
            },
        );
    }
    let plan = session.price_transient(&spec, None).expect("price");
    Point {
        net: build_netlist(&plan.dag, &plan.design, &BitWidths::default()),
        roster: build_roster(&plan.dag, &plan.design, &BitWidths::default()),
        dag: plan.dag.clone(),
        design: plan.design.clone(),
    }
}

/// Sweeps `dag` under both stimuli at 1 and 4 threads and checks every
/// point against the reference measurement and the reference traces.
fn check_sweeps(name: &str, dag: &Dag) {
    let session = Session::new(dag, geom());
    for mode in MODES {
        let inputs = stimulus(dag, mode);
        let sweeps = [sweep(dag, mode, 1), sweep(dag, mode, 4)];
        let n = sweeps[0].points.len();
        assert_eq!(
            n,
            1 << sweeps[0].buffered_stages.len(),
            "{name}: point count"
        );
        // The trace level: the data pass recorded on the first point
        // reprices every point exactly as interpretation counts it.
        let data = DataTrace::record(&point(&session, &sweeps[0], 0).net, &inputs).expect("record");
        for mask in 0..n {
            let pt = point(&session, &sweeps[0], mask);
            let net = &pt.net;
            let reference = measure_netlist(net, &pt.design, &inputs).expect("reference");
            for (threads, res) in [1, 4].iter().zip(&sweeps) {
                let m = res.points[mask].measured.expect("measured sweep");
                let tag = format!("{name} {mode:?} threads {threads} point {mask}");
                assert_eq!(
                    m.energy_pj_per_frame.to_bits(),
                    reference.ungated.energy_pj_per_frame().to_bits(),
                    "{tag}: energy"
                );
                assert_eq!(
                    m.power_mw.to_bits(),
                    reference.ungated.total_mw().to_bits(),
                    "{tag}: power"
                );
                assert_eq!(
                    m.gated_power_mw.to_bits(),
                    reference.gated.total_mw().to_bits(),
                    "{tag}: gated power"
                );
                assert_eq!(
                    m.gated_off_cycles,
                    reference.gated_off_cycles(),
                    "{tag}: gated-off cycles"
                );
            }

            let tag = format!("{name} {mode:?} point {mask}");
            let plan = gating_plan(&pt.roster);
            let got = data
                .structure_traces(&pt.dag, &pt.roster, &plan)
                .expect("structure pass");
            let (ungated, gated) = got.unzip();
            let (_, want) = interpret_with_trace(net, &inputs).expect("ungated trace");
            assert_eq!(ungated.as_ref(), Some(&want), "{tag}: ungated trace");
            let (_, want) = interpret_with_trace(&gate_clocks(net), &inputs).expect("gated trace");
            assert_eq!(gated.as_ref(), Some(&want), "{tag}: gated trace");
        }
    }
}

/// The DSL source of `examples/{name}.imagen`.
fn source(name: &str) -> String {
    let path = format!(
        "{}/../../examples/{name}.imagen",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn example(name: &str) -> Dag {
    imagen_dsl::compile(name, &source(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_example_sweep_reprices_bit_identically() {
    let dir = format!("{}/../../examples", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "imagen").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    names.sort();
    assert!(names.len() >= 10, "the example corpus: {names:?}");
    for name in &names {
        check_sweeps(name, &example(name));
    }
}

#[test]
fn synthetic_pipeline_sweeps_reprice_bit_identically() {
    for seed in [3, 11] {
        let dag = imagen_algos::synthetic_pipeline(6, seed);
        check_sweeps(&format!("synthetic-6-{seed}"), &dag);
    }
}

/// SplitMix64 step: the random DAGs are reproducible from the case seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random kernel over producer slots `0..slots`, biased toward the
/// datapath's edge cases: wrapping arithmetic, division by a
/// possibly-zero value, out-of-range shifts, selects and inverted clamps.
fn rand_expr(state: &mut u64, depth: u32, slots: u64) -> Expr {
    let tap = |state: &mut u64| {
        Expr::tap(
            (next(state) % slots) as usize,
            (next(state) % 3) as i32 - 1,
            (next(state) % 3) as i32 - 1,
        )
    };
    if depth == 0 || next(state) % 8 < 2 {
        return if next(state).is_multiple_of(3) {
            Expr::Const((next(state) % 41) as i64 - 20)
        } else {
            tap(state)
        };
    }
    let d = depth - 1;
    let sub = |state: &mut u64| rand_expr(state, d, slots);
    match next(state) % 8 {
        0 => Expr::bin(BinOp::Add, sub(state), sub(state)),
        1 => Expr::bin(BinOp::Mul, sub(state), sub(state)),
        2 => Expr::bin(
            BinOp::Div,
            sub(state),
            Expr::bin(BinOp::Sub, tap(state), tap(state)),
        ),
        3 => Expr::bin(
            BinOp::Shl,
            sub(state),
            Expr::Const((next(state) % 70) as i64),
        ),
        4 => Expr::bin(
            BinOp::Shr,
            sub(state),
            Expr::Const((next(state) % 70) as i64),
        ),
        5 => Expr::Abs(Box::new(sub(state))),
        6 => Expr::select(
            Expr::cmp(CmpOp::Lt, sub(state), sub(state)),
            sub(state),
            sub(state),
        ),
        _ => Expr::Clamp {
            value: Box::new(sub(state)),
            lo: Box::new(sub(state)),
            hi: Box::new(sub(state)),
        },
    }
}

/// A random pipeline of `n_stages` compute stages; a stage sometimes also
/// reads the input, giving the input buffer several consumers. Half the
/// pipelines splice in a `downsample(2,2)` stage and, later, a matching
/// `upsample(2,2)` stage; stages between them run on the half-rate grid
/// and read only their predecessor (producers share one scale). The
/// resampling stages draw from their own stream, so the rate-1 stages
/// are the same as without them.
fn rand_dag(seed: u64, n_stages: usize) -> Dag {
    let mut state = seed;
    let mut rates = seed ^ 0x05EE_D0F4_A7E5;
    let mut dag = Dag::new("fuzz");
    let input = dag.add_input("K0");
    let mut prev = input;
    let span = n_stages as u64 + 1;
    let down = next(&mut rates)
        .is_multiple_of(2)
        .then(|| next(&mut rates) % span);
    let up = down.map(|d| d + next(&mut rates) % (span - d));
    let mut coarse = false;
    for i in 0..=n_stages {
        for (at, name, rate) in [
            (down, "down", Rate::Down { fx: 2, fy: 2 }),
            (up, "up", Rate::Up { fx: 2, fy: 2 }),
        ] {
            if at == Some(i as u64) {
                let expr = Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), rand_expr(&mut rates, 2, 1));
                prev = dag
                    .add_stage_rated(name, &[prev], expr, rate)
                    .expect("valid resampling stage");
                coarse = !coarse;
            }
        }
        if i == n_stages {
            break;
        }
        let producers = if i > 0 && next(&mut state).is_multiple_of(2) && !coarse {
            vec![prev, input]
        } else {
            vec![prev]
        };
        let slots = producers.len() as u64;
        let mut expr = Expr::bin(
            BinOp::Add,
            Expr::tap(0, 0, 0),
            rand_expr(&mut state, 3, slots),
        );
        if slots > 1 {
            expr = Expr::bin(BinOp::Sub, expr, Expr::tap(1, -1, 1));
        }
        prev = dag
            .add_stage(format!("K{}", i + 1), &producers, expr)
            .expect("valid stage");
    }
    dag.mark_output(prev);
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_dag_sweeps_reprice_bit_identically(seed in 0u64..u64::MAX, n_stages in 1usize..5) {
        check_sweeps(&format!("fuzz {seed:#x}/{n_stages}"), &rand_dag(seed, n_stages));
    }
}

/// Spans named `name` in `c`.
fn count(c: &Collector, name: &str) -> usize {
    c.spans().iter().filter(|s| s.name == name).count()
}

/// `example(name)` with every `downsample(..)`/`upsample(..)` modifier
/// removed: the same kernels and windows, all at rate 1.
fn rate_one_variant(name: &str) -> Dag {
    let src = source(name)
        .replace("downsample(2,2) ", "")
        .replace("upsample(2,2) ", "");
    imagen_dsl::compile(name, &src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn data_trace_refuses_a_datapath_at_other_rates() {
    let pyramid = example("gaussian_pyramid");
    let flat = rate_one_variant("gaussian_pyramid");
    assert!(pyramid.is_multirate() && !flat.is_multirate());
    let res = sweep(&pyramid, MeasureMode::Off, 1);
    let pyr = point(&Session::new(&pyramid, geom()), &res, 0);
    let res = sweep(&flat, MeasureMode::Off, 1);
    let flat = point(&Session::new(&flat, geom()), &res, 0);
    let (pyr_net, flat_net) = (&pyr.net, &flat.net);
    // Same kernels, same windows: only the rate scales differ.
    let datapath = |net: &Netlist| {
        net.edges
            .iter()
            .map(|e| (e.producer, e.consumer, e.slot, e.window))
            .collect::<Vec<_>>()
    };
    assert_eq!(datapath(pyr_net), datapath(flat_net));
    assert_eq!(pyr_net.stages.len(), flat_net.stages.len());

    let inputs = stimulus(&pyramid, MeasureMode::default());
    let pyr_data = DataTrace::record(pyr_net, &inputs).expect("pyramid data trace");
    let flat_data = DataTrace::record(flat_net, &inputs).expect("rate-1 data trace");
    // The structure pass of `data` at point `pt`, under its derived gates.
    let traces = |data: &DataTrace, pt: &Point| {
        data.structure_traces(&pt.dag, &pt.roster, &gating_plan(&pt.roster))
            .unwrap()
    };
    assert!(traces(&pyr_data, &pyr).is_some());
    assert!(traces(&pyr_data, &flat).is_none());
    assert!(traces(&flat_data, &flat).is_some());
    assert!(traces(&flat_data, &pyr).is_none());
}

/// The guard's gate-coverage fact against brute force: with each of the
/// pyramids' gate windows delayed or cut short by up to two rows, the
/// structure pass answers exactly when every edge-active load cycle of
/// the buffer lies inside its window, and its answer then equals the
/// traced interpretation under that plan.
#[test]
fn guard_accepts_exactly_the_windows_that_cover_every_load() {
    let (w, h) = (geom().width as u64, geom().height as u64);
    for name in ["gaussian_pyramid", "laplacian_pyramid"] {
        let dag = example(name);
        let res = sweep(&dag, MeasureMode::Off, 1);
        let pt = point(&Session::new(&dag, geom()), &res, 0);
        let net = &pt.net;
        let inputs = stimulus(&dag, MeasureMode::default());
        let data = DataTrace::record(net, &inputs).expect("pyramid data trace");
        // The gated half of the paired structure pass under `plan`.
        let gated_trace = |plan: &GatingPlan| {
            let traces = data.structure_traces(&pt.dag, &pt.roster, plan).unwrap();
            traces.map(|(_, gated)| gated)
        };
        let plan = gating_plan(&pt.roster);
        assert!(gated_trace(&plan).is_some());
        let gated = gate_clocks(net);
        // Edge-active load cycles of buffer `b`: every consumer row `y %
        // ccy == 0`, every producer column `x % pcx == 0`.
        let loads = |b: usize| -> Vec<u64> {
            let producer = net.buffers[b].stage;
            let pcx = net.stages[producer].scale_x as usize;
            net.edges
                .iter()
                .filter(|e| e.producer == producer)
                .flat_map(|e| {
                    let c = &net.stages[e.consumer];
                    (0..h).step_by(c.scale_y as usize).flat_map(move |y| {
                        (0..w).step_by(pcx).map(move |x| c.start_cycle + y * w + x)
                    })
                })
                .collect()
        };
        let (mut accepted, mut refused) = (0, 0);
        for gi in 0..plan.gates.len() {
            let cycles = loads(plan.gates[gi].buffer);
            for delta in 1..=2 * w + 2 {
                for delay in [false, true] {
                    let mut variant = plan.clone();
                    let g = &mut variant.gates[gi];
                    if delay {
                        g.read_start = (g.read_start + delta).min(g.read_end);
                    } else {
                        g.read_end = g.read_end.saturating_sub(delta).max(g.read_start);
                    }
                    let covered = cycles.iter().all(|&t| g.enabled_at(t));
                    let tag = format!("{name} gate {gi} delta {delta} delay {delay}");
                    let got = gated_trace(&variant);
                    assert_eq!(got.is_some(), covered, "{tag}: guard");
                    let Some(got) = got else {
                        refused += 1;
                        continue;
                    };
                    accepted += 1;
                    let mut under = gated.clone();
                    under.gating = Some(variant);
                    let (_, want) = interpret_with_trace(&under, &inputs).unwrap();
                    assert_eq!(got, want, "{tag}: trace");
                }
            }
        }
        assert!(accepted > 0 && refused > 0, "{name}: {accepted}/{refused}");
    }
}

#[test]
fn corrupted_gate_window_takes_the_reference_path_and_trips_the_assertion() {
    let dag = example("unsharp_m");
    let session = Session::new(&dag, geom());
    let res = sweep(&dag, MeasureMode::Off, 1);
    let pt = point(&session, &res, 0);
    let inputs = stimulus(&dag, MeasureMode::default());
    let data = DataTrace::record(&pt.net, &inputs).expect("rate-1 data trace");
    // Measures `pt` under `plan`, elaborating its netlist (span
    // `dse.point.netlist`, as a sweep does) only if the structure pass
    // refuses the point.
    let measure = |plan: &GatingPlan| {
        let elaborate = || {
            let _s = imagen_obs::span("dse.point.netlist");
            pt.net.clone()
        };
        measure_design_point(
            &pt.dag, &pt.roster, &pt.design, plan, &inputs, &data, elaborate,
        )
    };

    // The derived plan passes the guard: no elaboration, no
    // interpretation at all.
    let plan = gating_plan(&pt.roster);
    assert!(data
        .structure_traces(&pt.dag, &pt.roster, &plan)
        .unwrap()
        .is_some());
    let collector = Arc::new(Collector::new());
    imagen_obs::with_collector(&collector, || measure(&plan).unwrap());
    assert_eq!(count(&collector, "program.run"), 0);
    assert_eq!(count(&collector, "dse.point.netlist"), 0);

    // A window that ends half a frame early zeroes live loads: the guard
    // refuses it, and the interpreting path catches the corruption.
    let mut corrupt = plan.clone();
    corrupt.gates[0].read_end -= pt.roster.frame / 2;
    assert!(data
        .structure_traces(&pt.dag, &pt.roster, &corrupt)
        .unwrap()
        .is_none());
    let collector = Arc::new(Collector::new());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        imagen_obs::with_collector(&collector, || measure(&corrupt))
    }));
    let panic = outcome.expect_err("a partially gated window must trip the assertion");
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        msg.contains("clock gating changed the output"),
        "unexpected panic: {msg}"
    );
    assert_eq!(
        count(&collector, "program.run"),
        2,
        "both netlists interpreted"
    );
    assert_ne!(
        count(&collector, "dse.point.netlist"),
        0,
        "the refused point is elaborated"
    );
}

/// Sweeps `name` at 1 and 2 threads and checks it records one data pass
/// — the sweep's only netlist elaboration — interprets nothing, and
/// reports every per-point span.
fn check_one_data_pass(name: &str, points: usize) {
    let dag = example(name);
    for threads in [1, 2] {
        let collector = Arc::new(Collector::new());
        let res =
            imagen_obs::with_collector(&collector, || sweep(&dag, MeasureMode::default(), threads));
        let n = res.points.len();
        assert_eq!(n, points, "{name}");
        assert_eq!(
            count(&collector, "dse.data_trace"),
            1,
            "{name} threads {threads}"
        );
        assert_eq!(
            count(&collector, "dse.point.netlist"),
            0,
            "{name} threads {threads}"
        );
        assert_eq!(
            count(&collector, "program.run"),
            0,
            "{name} threads {threads}"
        );
        // Worker threads report into the caller's collector.
        assert_eq!(
            count(&collector, "dse.point.price"),
            n,
            "{name} threads {threads}"
        );
        assert_eq!(
            count(&collector, "dse.point.measure"),
            n,
            "{name} threads {threads}"
        );
        assert_eq!(
            count(&collector, "power.measure"),
            2 * n,
            "{name} threads {threads}"
        );
    }
}

#[test]
fn rate_one_sweep_records_one_data_pass_and_interprets_nothing() {
    check_one_data_pass("canny_s", 256);
}

#[test]
fn pyramid_sweep_records_one_data_pass_and_interprets_nothing() {
    assert!(example("gaussian_pyramid").is_multirate());
    check_one_data_pass("gaussian_pyramid", 16);
}
