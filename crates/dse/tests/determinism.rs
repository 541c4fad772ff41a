//! Property tests for the parallel, memoized DSE engine:
//!
//! * fanning a sweep out over worker threads returns *byte-identical*
//!   points (order and values) to the sequential walk;
//! * recompiling a cached point equals the cold compile, and both equal
//!   a plan built from scratch without the session's skeleton.

use imagen_core::Session;
use imagen_dse::{explore, DseResult, ExploreOptions, ExploreStrategy};
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec, StageMemConfig};
use imagen_rtl::{build_netlist, emit_verilog, BitWidths};
use imagen_schedule::{plan_design, ScheduleOptions};
use proptest::prelude::*;

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 32,
        height: 24,
        pixel_bits: 16,
    }
}

fn backend() -> MemBackend {
    MemBackend::Asic {
        block_bits: 2 * 32 * 16,
    }
}

/// The small-space algorithms (≤ 16 design points) keep the sweeps cheap.
fn algorithm(idx: usize) -> imagen_algos::Algorithm {
    use imagen_algos::Algorithm;
    [Algorithm::XcorrM, Algorithm::UnsharpM, Algorithm::DenoiseM][idx % 3]
}

/// Byte-exact comparison of two results: same stages, same point order,
/// same choices, and bit-identical floating-point values.
fn assert_byte_identical(a: &DseResult, b: &DseResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.buffered_stages, &b.buffered_stages);
    prop_assert_eq!(a.points.len(), b.points.len());
    for (i, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        prop_assert_eq!(&pa.choices, &pb.choices, "choices differ at point {}", i);
        prop_assert_eq!(
            pa.area_mm2.to_bits(),
            pb.area_mm2.to_bits(),
            "area differs at point {}",
            i
        );
        prop_assert_eq!(
            pa.power_mw.to_bits(),
            pb.power_mw.to_bits(),
            "power differs at point {}",
            i
        );
        prop_assert_eq!(
            pa.sram_kb.to_bits(),
            pb.sram_kb.to_bits(),
            "sram differs at point {}",
            i
        );
        // Measured energy is default-on and part of the determinism
        // contract: the interpreter stimulus is seeded, so the measured
        // values must be bit-identical too.
        let (ma, mb) = (pa.measured.unwrap(), pb.measured.unwrap());
        prop_assert_eq!(
            ma.energy_pj_per_frame.to_bits(),
            mb.energy_pj_per_frame.to_bits(),
            "measured energy differs at point {}",
            i
        );
        prop_assert_eq!(
            ma.gated_power_mw.to_bits(),
            mb.gated_power_mw.to_bits(),
            "gated power differs at point {}",
            i
        );
        prop_assert_eq!(
            ma.gated_off_cycles,
            mb.gated_off_cycles,
            "gated-off cycles differ at point {}",
            i
        );
        prop_assert_eq!(&pa.design, &pb.design, "design differs at point {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Parallel sweep output is byte-identical to the sequential path,
    /// for any worker count.
    #[test]
    fn parallel_sweep_matches_sequential(alg in 0usize..3, threads in 2usize..6) {
        let dag = algorithm(alg).build();
        let sequential = explore(&dag, &geom(), backend(), ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads: 1,
            ..ExploreOptions::default()
        }).unwrap();
        let parallel = explore(&dag, &geom(), backend(), ExploreOptions {
            strategy: ExploreStrategy::Exhaustive,
            threads,
            ..ExploreOptions::default()
        }).unwrap();
        assert_byte_identical(&sequential, &parallel)?;
        prop_assert_eq!(sequential.pareto_front(), parallel.pareto_front());
    }

    /// A cache-hit recompile equals a cold compile, for an arbitrary
    /// DP/DPLC configuration.
    #[test]
    fn cache_hit_equals_cold_compile(alg in 0usize..3, mask in 0u64..16) {
        let dag = algorithm(alg).build();
        let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
        let mut spec = MemorySpec::new(backend(), 2);
        for (bit, &stage) in buffered.iter().enumerate() {
            spec.set_stage(stage, StageMemConfig {
                ports: 2,
                coalesce: mask & (1 << bit) != 0,
            });
        }

        let session = Session::new(&dag, geom());
        let cold = session.compile(&spec, None).unwrap();
        let warm = session.compile(&spec, None).unwrap();
        prop_assert_eq!(&cold.plan.schedule, &warm.plan.schedule);
        prop_assert_eq!(&cold.plan.design, &warm.plan.design);
        prop_assert_eq!(&cold.verilog, &warm.verilog);
        let (hits, _) = session.cache().stats();
        prop_assert!(hits >= 1, "second compile must hit the cache");

        // And both equal a cold plan from scratch (no skeleton reuse).
        let fresh = plan_design(
            &dag,
            &geom(),
            &spec,
            ScheduleOptions::default(),
            session.infer_style(&spec),
        )
        .unwrap();
        let net = build_netlist(&fresh.dag, &fresh.design, &BitWidths::default());
        prop_assert_eq!(&cold.plan.schedule, &fresh.schedule);
        prop_assert_eq!(&cold.plan.design, &fresh.design);
        prop_assert_eq!(&cold.verilog, &emit_verilog(&net));
    }
}
