//! End-to-end integration: every Tbl. 3 algorithm × every generator is
//! compiled, simulated cycle by cycle, and verified against the golden
//! executor — the repository's strongest correctness statement.

use imagen::algos::{sample_pattern, Algorithm, TestPattern};
use imagen::baselines::{generate_darkroom, generate_fixynn, generate_soda};
use imagen::rtl::{build_netlist, emit_verilog, interpret, verify_all, BitWidths};
use imagen::sim::{simulate, Image};
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec, Plan, Session};

/// Small frames keep debug-mode simulation fast while exercising every
/// window shape (the tallest stencil is 18 rows, so height > 18 + slack).
fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    }
}

fn backend() -> MemBackend {
    // Blocks hold two rows at this width so coalescing is exercised.
    MemBackend::Asic {
        block_bits: 2 * 40 * 16,
    }
}

fn frame(seed: u64) -> Image {
    let g = geom();
    Image::from_fn(g.width, g.height, |x, y| {
        sample_pattern(TestPattern::Noise, seed, x, y)
    })
}

fn assert_clean(alg: Algorithm, label: &str, plan: &Plan) {
    let report = simulate(&plan.dag, &plan.design, &[frame(7)])
        .unwrap_or_else(|e| panic!("{} {label}: sim failed: {e}", alg.name()));
    assert!(
        report.is_clean(),
        "{} {label}: ports={:?} residency={:?} functional={}",
        alg.name(),
        report.port_violations,
        report.residency_violations,
        report.outputs_match_golden
    );
    assert!(plan.design.ports_respected(), "{} {label}", alg.name());
}

#[test]
fn ours_all_algorithms_clean() {
    for alg in Algorithm::all() {
        let out = Session::new(&alg.build(), geom())
            .compile(&MemorySpec::new(backend(), 2), None)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_clean(alg, "Ours", &out.plan);
    }
}

#[test]
fn ours_lc_all_algorithms_clean() {
    for alg in Algorithm::all() {
        let out = Session::new(&alg.build(), geom())
            .compile(&MemorySpec::new(backend(), 2).with_coalescing(), None)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_clean(alg, "Ours+LC", &out.plan);
    }
}

#[test]
fn fixynn_all_algorithms_clean() {
    for alg in Algorithm::all() {
        let plan = generate_fixynn(&alg.build(), &geom(), backend())
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_clean(alg, "FixyNN", &plan);
    }
}

#[test]
fn darkroom_all_algorithms_clean() {
    for alg in Algorithm::all() {
        let plan = generate_darkroom(&alg.build(), &geom(), backend())
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_clean(alg, "Darkroom", &plan);
        // Linearized pipelines of multi-consumer algorithms carry relays.
        if alg.expected_multi_consumer() > 0 {
            assert!(plan.dag.stats().relay_stages > 0, "{}", alg.name());
        }
    }
}

#[test]
fn soda_all_algorithms_functional() {
    for alg in Algorithm::all() {
        let plan = generate_soda(&alg.build(), &geom(), backend())
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        let report = simulate(&plan.dag, &plan.design, &[frame(9)]).unwrap();
        // FIFO dataflow designs are stall-free by construction; the
        // rotating model must still be residency-clean and bit-exact.
        assert!(
            report.residency_violations.is_empty() && report.outputs_match_golden,
            "{}: residency={:?} functional={}",
            alg.name(),
            report.residency_violations,
            report.outputs_match_golden
        );
        assert_eq!(plan.design.style, DesignStyle::Soda);
    }
}

#[test]
fn rtl_generates_and_verifies_for_all() {
    for alg in Algorithm::all() {
        let out = Session::new(&alg.build(), geom())
            .compile(&MemorySpec::new(backend(), 2), None)
            .unwrap();
        let report = verify_all(&out.netlist);
        assert!(report.is_clean(), "{}: {:?}", alg.name(), report.errors);
        let summary = report.summary;
        assert!(summary.modules >= alg.expected_stages(), "{}", alg.name());
        assert!(summary.sram_instances > 0, "{}", alg.name());
        assert_eq!(
            out.verilog,
            emit_verilog(&out.netlist),
            "{}: cached text is the netlist's rendering",
            alg.name()
        );
    }
}

#[test]
fn netlist_interpretation_closes_the_loop_for_all() {
    // The structure the Verilog is printed from is itself executed and
    // must match the cycle-level simulator stream for stream. (The
    // exhaustive golden/simulator/interpreter differential — both width
    // regimes, random frames — lives in tests/netlist_differential.rs.)
    for alg in Algorithm::all() {
        let out = Session::new(&alg.build(), geom())
            .compile(&MemorySpec::new(backend(), 2), None)
            .unwrap();
        let input = frame(11);
        let sim = simulate(
            &out.plan.dag,
            &out.plan.design,
            std::slice::from_ref(&input),
        )
        .unwrap();
        assert!(sim.is_clean(), "{}", alg.name());
        let wide = build_netlist(&out.plan.dag, &out.plan.design, &BitWidths::wide());
        let run = interpret(&wide, std::slice::from_ref(&input))
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_eq!(
            run.output_images,
            sim.output_images,
            "{}: netlist vs cycle model",
            alg.name()
        );
        assert_eq!(run.latency, sim.latency as u64, "{}", alg.name());
    }
}

#[test]
fn dsl_text_and_builder_agree() {
    // Compiling the printed DSL of a DAG yields an identical design.
    for alg in [Algorithm::UnsharpM, Algorithm::DenoiseM] {
        let dag1 = alg.build();
        let printed = imagen::dsl::to_dsl(&dag1);
        let dag2 = imagen::dsl::compile(alg.name(), &printed).unwrap();
        let spec = MemorySpec::new(backend(), 2);
        let design = |dag| {
            Session::new(dag, geom())
                .compile(&spec, None)
                .unwrap()
                .plan
                .design
        };
        let (d1, d2) = (design(&dag1), design(&dag2));
        assert_eq!(d1.sram_kb(), d2.sram_kb(), "{}", alg.name());
        assert_eq!(d1.start_cycles, d2.start_cycles, "{}", alg.name());
    }
}
