//! Cross-check of the two independent access-counting paths: the cycle
//! simulator's per-block annotations (`imagen_sim::simulate_and_annotate`
//! — the counts that feed the analytic power model) versus the netlist
//! interpreter's activity trace (`imagen_rtl::interpret_with_trace` —
//! the counts that feed the measured energy model).
//!
//! Both count SRAM accesses with the same conventions (same-address
//! reads merged per cycle, one write per producer cycle, FIFO segments
//! at the synthetic one-push-one-pop rate), but through entirely
//! separate code paths: the simulator walks the `Design`'s block plans,
//! the interpreter walks the elaborated `Netlist`. They must agree
//! block for block, for the three `exp_power_breakdown` algorithms ×
//! three styles.

use imagen::algos::Algorithm;
use imagen::baselines::{generate_darkroom, generate_fixynn, generate_soda};
use imagen::mem::{DesignStyle, ImageGeometry, MemBackend};
use imagen::rtl::{build_netlist, interpret_with_trace, BitWidths};
use imagen::sim::{simulate_and_annotate, Image};
use imagen::{MemorySpec, Session};

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 48,
        height: 26,
        pixel_bits: 16,
    }
}

fn backend() -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * geom().row_bits(),
    }
}

fn plan_for(alg: Algorithm, style: DesignStyle) -> imagen::Plan {
    let dag = alg.build();
    let g = geom();
    match style {
        DesignStyle::Soda => generate_soda(&dag, &g, backend()).unwrap(),
        DesignStyle::FixyNn => generate_fixynn(&dag, &g, backend()).unwrap(),
        DesignStyle::Darkroom => generate_darkroom(&dag, &g, backend()).unwrap(),
        _ => {
            Session::new(&dag, g)
                .compile(&MemorySpec::new(backend(), 2), None)
                .unwrap()
                .plan
        }
    }
}

#[test]
fn interpreter_access_counts_match_simulator_annotations() {
    let g = geom();
    let input = Image::from_fn(g.width, g.height, |x, y| ((x * 13 + y * 31) % 199) as i64);
    for alg in [Algorithm::UnsharpM, Algorithm::DenoiseM, Algorithm::CannyM] {
        for style in [DesignStyle::Soda, DesignStyle::Ours, DesignStyle::FixyNn] {
            let mut plan = plan_for(alg, style);
            let report =
                simulate_and_annotate(&plan.dag, &mut plan.design, std::slice::from_ref(&input))
                    .unwrap();
            assert!(
                report.port_violations.is_empty(),
                "{} {style:?}: {:?}",
                alg.name(),
                report.port_violations
            );

            let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
            let (_, trace) = interpret_with_trace(&net, std::slice::from_ref(&input)).unwrap();

            let frame = plan.design.geometry.pixels();
            assert_eq!(
                plan.design.buffers.len(),
                trace.buffers.len(),
                "{} {style:?}: trace parallels the design",
                alg.name()
            );
            for (bp, ba) in plan.design.buffers.iter().zip(&trace.buffers) {
                assert_eq!(bp.stage, ba.stage);
                assert_eq!(bp.blocks.len(), ba.block_reads.len());
                for (i, blk) in bp.blocks.iter().enumerate() {
                    let interp_rate = ba.avg_accesses_per_cycle(i, frame);
                    let interp_writes = ba.avg_writes_per_cycle(i, frame);
                    assert!(
                        (blk.avg_accesses_per_cycle - interp_rate).abs() < 1e-12,
                        "{} {style:?} stage {} block {i}: sim {} vs interp {}",
                        alg.name(),
                        bp.stage,
                        blk.avg_accesses_per_cycle,
                        interp_rate
                    );
                    assert!(
                        (blk.avg_writes_per_cycle - interp_writes).abs() < 1e-12,
                        "{} {style:?} stage {} block {i}: sim writes {} vs interp {}",
                        alg.name(),
                        bp.stage,
                        blk.avg_writes_per_cycle,
                        interp_writes
                    );
                    assert_eq!(
                        blk.peak_accesses,
                        ba.block_peaks[i],
                        "{} {style:?} stage {} block {i}: peak mismatch",
                        alg.name(),
                        bp.stage
                    );
                }
            }
        }
    }
}
