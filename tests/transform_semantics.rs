//! Semantic preservation of the DAG transforms: linearization (Darkroom)
//! and line coalescing must not change what the pipeline computes — only
//! how it is buffered. Verified by golden execution and by full
//! cycle-level simulation.

use imagen::algos::{sample_pattern, Algorithm, TestPattern};
use imagen::sim::{execute, simulate, Image};
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec, Session};
use imagen_ir::{apply_line_coalescing, linearize, CoalesceFactor};

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    }
}

fn frame(seed: u64) -> Image {
    Image::from_fn(geom().width, geom().height, |x, y| {
        sample_pattern(TestPattern::Noise, seed, x, y)
    })
}

/// Pixels differing in the interior (a border of `margin` excluded),
/// after applying the transform's recorded raster shift:
/// `new[y][x]` is compared against `orig[y - ay][x - ax]`.
///
/// Relays compose clamp-to-edge sampling (`clamp(clamp(i)+o)` instead of
/// `clamp(i+o)`), so linearization can deviate within a few pixels of the
/// frame border — exactly the boundary regime the paper scopes out
/// (Sec. 5, footnote 2). Interior semantics must be bit-identical.
fn diff_interior_shifted(orig: &Image, new: &Image, shift: (i32, i32), margin: u32) -> usize {
    let (ax, ay) = shift;
    let m = margin as i64 + ax.unsigned_abs().max(ay.unsigned_abs()) as i64;
    let mut diffs = 0;
    for y in m..new.height() as i64 - m {
        for x in m..new.width() as i64 - m {
            let o = orig.get_clamped(x - ax as i64, y - ay as i64);
            if o != new.get(x as u32, y as u32) {
                diffs += 1;
            }
        }
    }
    diffs
}

#[test]
fn linearization_preserves_output_semantics() {
    // The relay stages forward data with adjusted taps; the *output*
    // stage's interior must be bit-identical to the original pipeline's
    // up to the recorded raster shift.
    for alg in Algorithm::all() {
        let dag = alg.build();
        let lin = linearize(&dag).unwrap();
        let input = frame(11);
        let orig = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let rewritten = execute(&lin.dag, &[input]).unwrap();

        // Cumulative window reach bounds how far border effects travel.
        let margin = (dag.stats().max_stencil_height * dag.num_stages() as u32 / 2).min(10);
        let orig_out: Vec<_> = orig.outputs(&dag).collect();
        for (out_id, out_img) in rewritten.outputs(&lin.dag) {
            // Match by stage name (ids shift when relays are inserted).
            let name = lin.dag.stage(out_id).name();
            let (oidx, _) = dag
                .stages()
                .find(|(_, s)| s.name() == name)
                .unwrap_or_else(|| panic!("{}: output {name} missing", alg.name()));
            let reference = orig_out
                .iter()
                .find(|(id, _)| *id == oidx)
                .map(|(_, img)| *img)
                .expect("output image");
            assert_eq!(
                diff_interior_shifted(reference, out_img, lin.shifts[oidx.index()], margin),
                0,
                "{}: linearization changed interior of output `{name}` (shift {:?})",
                alg.name(),
                lin.shifts[oidx.index()]
            );
        }
    }
}

#[test]
fn coalescing_preserves_output_semantics() {
    // Coalescing only re-partitions read ports; kernels are untouched, so
    // golden outputs must be identical.
    for alg in Algorithm::all() {
        let dag = alg.build();
        let mut coalesced = dag.clone();
        apply_line_coalescing(&mut coalesced, |_| CoalesceFactor::new(2));
        let input = frame(13);
        let a = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let b = execute(&coalesced, &[input]).unwrap();
        for ((_, ia), (_, ib)) in a.outputs(&dag).zip(b.outputs(&coalesced)) {
            assert_eq!(ia.diff_count(ib), 0, "{}", alg.name());
        }
    }
}

#[test]
fn linearized_designs_simulate_bit_exact() {
    // End to end: schedule the *linearized* pipeline and verify the
    // hardware-level simulation still reproduces the original semantics.
    let alg = Algorithm::UnsharpM;
    let dag = alg.build();
    let lin = linearize(&dag).unwrap();
    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom().row_bits(),
        },
        2,
    );
    let out = Session::new(&lin.dag, geom())
        .compile(&spec, Some(DesignStyle::Darkroom))
        .unwrap();
    let input = frame(17);
    let report = simulate(
        &out.plan.dag,
        &out.plan.design,
        std::slice::from_ref(&input),
    )
    .unwrap();
    assert!(report.is_clean());

    // The simulated output equals the ORIGINAL pipeline's golden output
    // (up to the recorded raster shift, interior-exact).
    let orig = execute(&dag, &[input]).unwrap();
    let (orig_id, _) = dag.stages().find(|(_, s)| s.is_output()).unwrap();
    let (_, sim_img) = &report.output_images[0];
    assert_eq!(
        diff_interior_shifted(orig.stage(orig_id), sim_img, lin.shifts[orig_id.index()], 8),
        0
    );
}

#[test]
fn relay_count_matches_extra_consumers() {
    // One relay per consumer beyond the first, per multi-consumer buffer.
    for alg in Algorithm::all() {
        let dag = alg.build();
        let expected: usize = dag
            .buffered_stages()
            .iter()
            .map(|&p| dag.consumers_of(p).len().saturating_sub(1))
            .sum();
        let lin = linearize(&dag).unwrap();
        assert_eq!(lin.relays.len(), expected, "{}: relay count", alg.name());
        assert_eq!(
            lin.dag.num_stages(),
            dag.num_stages() + expected,
            "{}",
            alg.name()
        );
    }
}

#[test]
fn sync_groups_survive_scheduling() {
    // Relays must start exactly with their mirrored siblings in the final
    // schedule (the property that lets them share a read port).
    let dag = Algorithm::DenoiseM.build();
    let lin = linearize(&dag).unwrap();
    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom().row_bits(),
        },
        2,
    );
    let out = Session::new(&lin.dag, geom())
        .compile(&spec, Some(DesignStyle::Darkroom))
        .unwrap();
    for (id, s) in out.plan.dag.stages() {
        if let Some(g) = s.sync_group() {
            for (id2, s2) in out.plan.dag.stages() {
                if s2.sync_group() == Some(g) {
                    assert_eq!(
                        out.plan.schedule.start(id),
                        out.plan.schedule.start(id2),
                        "sync group {g} split"
                    );
                }
            }
        }
    }
}
