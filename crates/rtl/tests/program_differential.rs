//! Differential suite: the compiled evaluation program vs the legacy
//! graph-walking interpreter.
//!
//! [`interpret`] / [`interpret_with_trace`] route through the one-time
//! netlist→program compiler; [`interpret_legacy`] /
//! [`interpret_with_trace_legacy`] re-walk the netlist graph every
//! cycle. The two must be **bit-identical** — same [`InterpReport`]
//! (cycles, latency, access totals, every output pixel) and same
//! [`ActivityTrace`] field for field — on:
//!
//! * the full Tbl. 3 corpus (all 7 pipelines), at both width regimes
//!   (16/32 default and 64/64 wide), ungated and clock-gated;
//! * a hand-built pyramid, whose traced run takes the per-stage-grid
//!   activity passes;
//! * randomly generated DAGs exercising every kernel operator (wrapping
//!   arithmetic, division by zero, out-of-range shifts, comparisons,
//!   selects, inverted clamps) on random seeds, half of them with a
//!   `downsample(2,2)` / `upsample(2,2)` pair spliced in.

use imagen_algos::{noise_bits, Algorithm};
use imagen_baselines::generate_soda;
use imagen_ir::{BinOp, CmpOp, Dag, Expr, Rate};
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_power::gate_clocks;
use imagen_rtl::{
    build_netlist, interpret, interpret_legacy, interpret_with_trace, interpret_with_trace_legacy,
    ActivityTrace, BitWidths, InterpReport, Netlist,
};
use imagen_schedule::{plan_design, ScheduleOptions};
use imagen_sim::Image;
use proptest::prelude::*;

fn assert_report_eq(tag: &str, a: &InterpReport, b: &InterpReport) {
    assert_eq!(a.cycles, b.cycles, "{tag}: cycles");
    assert_eq!(a.latency, b.latency, "{tag}: latency");
    assert_eq!(a.sram_reads, b.sram_reads, "{tag}: sram_reads");
    assert_eq!(a.sram_writes, b.sram_writes, "{tag}: sram_writes");
    assert_eq!(
        a.gated_off_cycles, b.gated_off_cycles,
        "{tag}: gated_off_cycles"
    );
    assert_eq!(
        a.output_images.len(),
        b.output_images.len(),
        "{tag}: output stream count"
    );
    for ((sa, ia), (sb, ib)) in a.output_images.iter().zip(&b.output_images) {
        assert_eq!(sa, sb, "{tag}: output stage order");
        assert_eq!(ia, ib, "{tag}: output image of stage {sa}");
    }
}

fn assert_trace_eq(tag: &str, a: &ActivityTrace, b: &ActivityTrace) {
    assert_eq!(a.run_cycles, b.run_cycles, "{tag}: run_cycles");
    assert_eq!(a.frame, b.frame, "{tag}: frame");
    assert_eq!(a.buffers.len(), b.buffers.len(), "{tag}: buffer count");
    for (i, (ba, bb)) in a.buffers.iter().zip(&b.buffers).enumerate() {
        assert_eq!(ba.stage, bb.stage, "{tag}: buffer {i} stage");
        assert_eq!(ba.block_reads, bb.block_reads, "{tag}: buffer {i} reads");
        assert_eq!(ba.block_writes, bb.block_writes, "{tag}: buffer {i} writes");
        assert_eq!(ba.block_peaks, bb.block_peaks, "{tag}: buffer {i} peaks");
        assert_eq!(
            ba.read_enabled_cycles, bb.read_enabled_cycles,
            "{tag}: buffer {i} read_enabled_cycles"
        );
        assert_eq!(
            ba.idle_read_cycles, bb.idle_read_cycles,
            "{tag}: buffer {i} idle_read_cycles"
        );
        assert_eq!(
            ba.gated_off_cycles, bb.gated_off_cycles,
            "{tag}: buffer {i} gated_off_cycles"
        );
        assert_eq!(ba.fifo, bb.fifo, "{tag}: buffer {i} fifo");
    }
    assert_eq!(a.stages.len(), b.stages.len(), "{tag}: stage count");
    for (i, (sa, sb)) in a.stages.iter().zip(&b.stages).enumerate() {
        assert_eq!(
            sa.active_cycles, sb.active_cycles,
            "{tag}: stage {i} active_cycles"
        );
        assert_eq!(
            sa.out_reg_writes, sb.out_reg_writes,
            "{tag}: stage {i} out_reg_writes"
        );
        assert_eq!(
            sa.out_reg_toggles, sb.out_reg_toggles,
            "{tag}: stage {i} out_reg_toggles"
        );
    }
    assert_eq!(a.sras.len(), b.sras.len(), "{tag}: sra count");
    for (i, (sa, sb)) in a.sras.iter().zip(&b.sras).enumerate() {
        assert_eq!(
            sa.shift_cycles, sb.shift_cycles,
            "{tag}: sra {i} shift_cycles"
        );
        assert_eq!(sa.cell_writes, sb.cell_writes, "{tag}: sra {i} cell_writes");
        assert_eq!(sa.bit_toggles, sb.bit_toggles, "{tag}: sra {i} bit_toggles");
    }
}

/// Runs both engines (untraced and traced) on `net` and pins equality.
fn differential(tag: &str, net: &Netlist, inputs: &[Image]) {
    let fast = interpret(net, inputs).expect("program path");
    let slow = interpret_legacy(net, inputs).expect("legacy path");
    assert_report_eq(tag, &fast, &slow);

    let (fast_rep, fast_tr) = interpret_with_trace(net, inputs).expect("program traced");
    let (slow_rep, slow_tr) = interpret_with_trace_legacy(net, inputs).expect("legacy traced");
    assert_report_eq(&format!("{tag} traced"), &fast_rep, &slow_rep);
    assert_trace_eq(tag, &fast_tr, &slow_tr);

    // Tracing must not perturb results either.
    assert_report_eq(&format!("{tag} traced-vs-untraced"), &fast, &fast_rep);
}

/// [`differential`] on `gated` with each gate window in turn delayed by
/// `ds` and cut short by `de` cycles, for every `(ds, de)` in `shifts`:
/// corrupted plans the gating pass never emits, whose windows cut into
/// live loads and zero loaded words mid-row.
fn partial_gate_differentials(tag: &str, gated: &Netlist, inputs: &[Image], shifts: &[(u64, u64)]) {
    let n_gates = gated.gating.as_ref().expect("gating plan").gates.len();
    for gi in 0..n_gates {
        for &(ds, de) in shifts {
            let mut net = gated.clone();
            let g = &mut net.gating.as_mut().expect("gating plan").gates[gi];
            g.read_start += ds;
            g.read_end = g.read_end.saturating_sub(de).max(g.read_start);
            differential(&format!("{tag} gate {gi} +{ds}/-{de}"), &net, inputs);
        }
    }
}

fn noise_inputs(dag: &Dag, geom: &ImageGeometry, seed: u64, bits: u32) -> Vec<Image> {
    let n = dag.stages().filter(|(_, s)| s.is_input()).count();
    (0..n)
        .map(|i| {
            let seed = seed.wrapping_add(i as u64);
            Image::from_fn(geom.width, geom.height, move |x, y| {
                noise_bits(seed, x, y, bits)
            })
        })
        .collect()
}

/// The full Tbl. 3 corpus × {16/32, 64/64} × {ungated, gated}.
#[test]
fn program_matches_legacy_on_corpus() {
    let geom = ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    for alg in Algorithm::all() {
        let dag = alg.build();
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let inputs = noise_inputs(&plan.dag, &geom, 0xD1FF + alg as u64, 4);
        for (wname, widths) in [
            ("16/32", BitWidths::default()),
            ("64/64", BitWidths::wide()),
        ] {
            let net = build_netlist(&plan.dag, &plan.design, &widths);
            differential(&format!("{alg:?} {wname} ungated"), &net, &inputs);
            let gated = gate_clocks(&net);
            differential(&format!("{alg:?} {wname} gated"), &gated, &inputs);
        }
    }
}

/// 1-2-1 / 2-4-2 / 1-2-1 smoothing kernel over `slot`, `>> 4`.
fn gauss3(slot: usize) -> Expr {
    let t = |dx: i32, dy: i32| Expr::tap(slot, dx, dy);
    let sum = [
        (-1, -1, 1),
        (0, -1, 2),
        (1, -1, 1),
        (-1, 0, 2),
        (0, 0, 4),
        (1, 0, 2),
        (-1, 1, 1),
        (0, 1, 2),
        (1, 1, 1),
    ]
    .into_iter()
    .map(|(dx, dy, k)| {
        if k == 1 {
            t(dx, dy)
        } else {
            Expr::bin(BinOp::Mul, Expr::Const(k), t(dx, dy))
        }
    })
    .reduce(|a, b| Expr::bin(BinOp::Add, a, b))
    .unwrap();
    Expr::bin(BinOp::Shr, sum, Expr::Const(4))
}

/// A pyramid pipeline: blur, decimate 2×2, half-rate blur, replicate
/// back up, and a unit-rate band stage subtracting the reconstruction
/// from the full-rate input.
fn pyramid_dag() -> Dag {
    let mut dag = Dag::new("pyramid");
    let raw = dag.add_input("raw");
    let g0 = dag.add_stage("g0", &[raw], gauss3(0)).unwrap();
    let l1 = dag
        .add_stage_rated("l1", &[g0], Expr::tap(0, 0, 0), Rate::Down { fx: 2, fy: 2 })
        .unwrap();
    let g1 = dag
        .add_stage(
            "g1",
            &[l1],
            Expr::bin(
                BinOp::Shr,
                Expr::bin(
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Add,
                        Expr::tap(0, -1, 0),
                        Expr::bin(BinOp::Mul, Expr::Const(2), Expr::tap(0, 0, 0)),
                    ),
                    Expr::tap(0, 1, 0),
                ),
                Expr::Const(2),
            ),
        )
        .unwrap();
    let up1 = dag
        .add_stage_rated("up1", &[g1], Expr::tap(0, 0, 0), Rate::Up { fx: 2, fy: 2 })
        .unwrap();
    let band = dag
        .add_stage(
            "band",
            &[raw, up1],
            Expr::bin(BinOp::Sub, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
        )
        .unwrap();
    dag.mark_output(band);
    dag
}

/// [`pyramid_dag`] through the program's per-stage grids (strided
/// resampling stages, tiled same-grid stages) and cadenced activity
/// passes vs the legacy interpreter, both width regimes, ungated and
/// gated.
#[test]
fn program_matches_legacy_on_pyramid() {
    let geom = ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let dag = pyramid_dag();
    let plan = plan_design(
        &dag,
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    let inputs = noise_inputs(&plan.dag, &geom, 0x9E7A, 4);
    for (wname, widths) in [
        ("16/32", BitWidths::default()),
        ("64/64", BitWidths::wide()),
    ] {
        let net = build_netlist(&plan.dag, &plan.design, &widths);
        differential(&format!("pyramid {wname} ungated"), &net, &inputs);
        differential(
            &format!("pyramid {wname} gated"),
            &gate_clocks(&net),
            &inputs,
        );
    }
}

/// Clock-gate windows that cut into live loads — corrupted plans the
/// gating pass never emits — zero loaded words mid-row and mid-frame.
/// The program's gate-aware passes (load-stream toggles, block sweep,
/// read-port duty) must still equal the walker, on the pyramid's
/// per-stage grids as on a rate-1 raster.
#[test]
fn program_matches_legacy_under_partial_gate_windows() {
    let geom = ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let w = geom.width as u64;
    for (name, dag) in [
        ("pyramid", pyramid_dag()),
        ("unsharp_m", Algorithm::UnsharpM.build()),
    ] {
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let inputs = noise_inputs(&plan.dag, &geom, 0x6A7E, 6);
        let gated = gate_clocks(&build_netlist(
            &plan.dag,
            &plan.design,
            &BitWidths::default(),
        ));
        partial_gate_differentials(
            name,
            &gated,
            &inputs,
            &[
                (1, 0),
                (0, 1),
                (w + 3, 0),
                (0, 2 * w + 5),
                (w / 2, 3 * w / 2),
            ],
        );
    }
}

/// A 3×3-stencil pipeline around one resampling pair: blur, `down`,
/// blur on the coarse grid (so the coarse buffer holds several rows),
/// and `up` back to the base grid for a unit-rate band stage.
fn resampled_band(down: Rate, up: Rate) -> Dag {
    let mut dag = Dag::new("band");
    let raw = dag.add_input("raw");
    let g0 = dag.add_stage("g0", &[raw], gauss3(0)).unwrap();
    let d = dag
        .add_stage_rated("d", &[g0], Expr::tap(0, 0, 0), down)
        .unwrap();
    let c = dag.add_stage("c", &[d], gauss3(0)).unwrap();
    let u = dag
        .add_stage_rated("u", &[c], Expr::tap(0, 0, 0), up)
        .unwrap();
    let band = dag
        .add_stage(
            "band",
            &[raw, u],
            Expr::bin(BinOp::Sub, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
        )
        .unwrap();
    dag.mark_output(band);
    dag
}

/// A two-level pyramid: the half-rate band of a quarter-rate blur,
/// replicated back to the base grid.
fn two_level_pyramid() -> Dag {
    let half = Rate::Down { fx: 2, fy: 2 };
    let double = Rate::Up { fx: 2, fy: 2 };
    let mut dag = Dag::new("pyramid2");
    let raw = dag.add_input("raw");
    let g0 = dag.add_stage("g0", &[raw], gauss3(0)).unwrap();
    let d1 = dag
        .add_stage_rated("d1", &[g0], Expr::tap(0, 0, 0), half)
        .unwrap();
    let g1 = dag.add_stage("g1", &[d1], gauss3(0)).unwrap();
    let d2 = dag
        .add_stage_rated("d2", &[g1], Expr::tap(0, 0, 0), half)
        .unwrap();
    let g2 = dag.add_stage("g2", &[d2], gauss3(0)).unwrap();
    let u2 = dag
        .add_stage_rated("u2", &[g2], Expr::tap(0, 0, 0), double)
        .unwrap();
    let b1 = dag
        .add_stage(
            "b1",
            &[g1, u2],
            Expr::bin(BinOp::Sub, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
        )
        .unwrap();
    let u1 = dag
        .add_stage_rated("u1", &[b1], Expr::tap(0, 0, 0), double)
        .unwrap();
    dag.mark_output(u1);
    dag
}

/// Resampling beyond the example pyramids: a two-level pyramid (column
/// cadence 4 on the quarter-rate grid) and an anisotropic
/// `downsample(4,2)` / `upsample(4,2)` pair. Each is planned as the
/// scheduler's design under two bank organisations (two rows per block,
/// and a quarter row per block so a coarse row spans several banks) and
/// as a SODA design (FIFO chains on resampled producers), then run
/// ungated, gated and under gate windows that cut into live loads:
/// program ≡ legacy, report and trace.
#[test]
fn program_matches_legacy_on_deep_and_anisotropic_pyramids() {
    let geom = ImageGeometry {
        width: 48,
        height: 32,
        pixel_bits: 16,
    };
    let w = geom.width as u64;
    let row_bits = geom.row_bits();
    let dags = [
        ("two-level", two_level_pyramid()),
        (
            "4x2",
            resampled_band(Rate::Down { fx: 4, fy: 2 }, Rate::Up { fx: 4, fy: 2 }),
        ),
    ];
    for (name, dag) in &dags {
        let mut plans = Vec::new();
        for block_bits in [2 * row_bits, row_bits / 4] {
            let spec = MemorySpec::new(MemBackend::Asic { block_bits }, 2);
            let plan = plan_design(
                dag,
                &geom,
                &spec,
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
            .unwrap();
            plans.push((format!("{name} {block_bits}b"), plan));
        }
        let soda = generate_soda(
            dag,
            &geom,
            MemBackend::Asic {
                block_bits: 2 * row_bits,
            },
        )
        .unwrap();
        let soda_net = build_netlist(&soda.dag, &soda.design, &BitWidths::default());
        assert!(
            soda_net
                .buffers
                .iter()
                .any(|b| b.fifo && soda_net.stages[b.stage].is_multirate()),
            "{name}: SODA design chains FIFOs on a resampled producer"
        );
        plans.push((format!("{name} soda"), soda));

        for (tag, plan) in &plans {
            assert!(plan.dag.is_multirate(), "{tag}");
            let inputs = noise_inputs(&plan.dag, &geom, 0xDEE9, 6);
            let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
            differential(&format!("{tag} ungated"), &net, &inputs);
            let gated = gate_clocks(&net);
            differential(&format!("{tag} gated"), &gated, &inputs);
            partial_gate_differentials(
                tag,
                &gated,
                &inputs,
                &[(1, 0), (0, 1), (0, 2), (3, 0), (w + 1, 0), (0, w + 3)],
            );
        }
    }
}

/// SplitMix64 step — the corpus generator's only randomness source, so
/// every case is reproducible from the proptest seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random kernel expression over producer slot 0, deliberately biased
/// toward the interpreter's edge cases: division by a possibly-zero
/// runtime value, shift amounts beyond the 0..64 range, clamps whose
/// bounds may invert, and comparisons feeding selects.
fn rand_expr(state: &mut u64, depth: u32) -> Expr {
    let tap = |state: &mut u64| {
        Expr::tap(
            0,
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
    match next(state) % 12 {
        0 => Expr::bin(BinOp::Add, rand_expr(state, d), rand_expr(state, d)),
        1 => Expr::bin(BinOp::Sub, rand_expr(state, d), rand_expr(state, d)),
        2 => Expr::bin(BinOp::Mul, rand_expr(state, d), rand_expr(state, d)),
        // Runtime divisor: hits the guarded divide-by-zero path whenever
        // the subtrahend taps cancel.
        3 => Expr::bin(
            BinOp::Div,
            rand_expr(state, d),
            Expr::bin(BinOp::Sub, tap(state), tap(state)),
        ),
        4 => Expr::bin(BinOp::Min, rand_expr(state, d), rand_expr(state, d)),
        5 => Expr::bin(BinOp::Max, rand_expr(state, d), rand_expr(state, d)),
        // Shift amounts drawn from 0..70: past 63 exercises the
        // out-of-range semantics the Verilog emitter pins.
        6 => Expr::bin(
            BinOp::Shl,
            rand_expr(state, d),
            Expr::Const((next(state) % 70) as i64),
        ),
        7 => Expr::bin(
            BinOp::Shr,
            rand_expr(state, d),
            Expr::Const((next(state) % 70) as i64),
        ),
        8 => Expr::Neg(Box::new(rand_expr(state, d))),
        9 => Expr::Abs(Box::new(rand_expr(state, d))),
        10 => {
            let op = [
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne,
            ][(next(state) % 6) as usize];
            Expr::select(
                Expr::cmp(op, rand_expr(state, d), rand_expr(state, d)),
                rand_expr(state, d),
                rand_expr(state, d),
            )
        }
        // Bounds may invert: the pinned semantics is lo-wins.
        _ => Expr::Clamp {
            value: Box::new(rand_expr(state, d)),
            lo: Box::new(rand_expr(state, d)),
            hi: Box::new(rand_expr(state, d)),
        },
    }
}

/// A random linear pipeline of 1–3 stages (each with at least one tap so
/// every stage has a stencil). Half the pipelines splice in a
/// `downsample(2,2)` stage and, later, a matching `upsample(2,2)` stage,
/// so the stages between them run on the half-rate grid. The resampling
/// stages draw from their own stream, so the rate-1 stages are the same
/// as without them.
fn rand_dag(seed: u64, n_stages: usize) -> Dag {
    let mut state = seed;
    let mut rates = seed ^ 0x05EE_D0F4_A7E5;
    let mut dag = Dag::new("fuzz");
    let mut prev = dag.add_input("K0");
    let span = n_stages as u64 + 1;
    let down = next(&mut rates)
        .is_multiple_of(2)
        .then(|| next(&mut rates) % span);
    let up = down.map(|d| d + next(&mut rates) % (span - d));
    for i in 0..=n_stages {
        for (at, name, rate) in [
            (down, "down", Rate::Down { fx: 2, fy: 2 }),
            (up, "up", Rate::Up { fx: 2, fy: 2 }),
        ] {
            if at == Some(i as u64) {
                let expr = Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), rand_expr(&mut rates, 2));
                prev = dag.add_stage_rated(name, &[prev], expr, rate).unwrap();
            }
        }
        if i < n_stages {
            let expr = Expr::bin(BinOp::Add, Expr::tap(0, 0, 0), rand_expr(&mut state, 3));
            prev = dag.add_stage(format!("K{}", i + 1), &[prev], expr).unwrap();
        }
    }
    dag.mark_output(prev);
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random DAGs (half of them pyramids), random input seeds: program ≡
    /// legacy, ungated, gated and under gate windows that cut into live
    /// loads, report and trace.
    #[test]
    fn program_matches_legacy_on_random_dags(
        seed in 0u64..u64::MAX,
        n_stages in 1usize..4,
        input_seed in 0u64..u64::MAX,
        bits in 1u32..9,
    ) {
        let geom = ImageGeometry { width: 32, height: 24, pixel_bits: 16 };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 1024 }, 2);
        let dag = rand_dag(seed, n_stages);
        let plan = plan_design(&dag, &geom, &spec, ScheduleOptions::default(), DesignStyle::Ours)
            .unwrap();
        let inputs = noise_inputs(&plan.dag, &geom, input_seed, bits);
        for widths in [BitWidths::default(), BitWidths::wide()] {
            let net = build_netlist(&plan.dag, &plan.design, &widths);
            differential("random ungated", &net, &inputs);
            let gated = gate_clocks(&net);
            differential("random gated", &gated, &inputs);
            partial_gate_differentials("random", &gated, &inputs, &[(1, 0), (0, 1), (0, 33)]);
        }
    }
}
