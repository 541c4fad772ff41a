//! The netlist-free roster against the netlist: `build_roster` must give
//! exactly the stages, edges, line buffers, frame size and completion
//! cycle that `build_netlist` elaborates, so the structure pass of a
//! measured sweep (which reads the roster alone) sees the schedule and
//! memories the interpreted netlist has.
//!
//! Covered: every `examples/*.imagen` × all-DP and all-DPLC × 64×48 and
//! 1920×1080, on 16 Kbit blocks — at 1080p a 16-bit row spans two
//! blocks (split rows), and the pyramids' half-rate buffers hold rows of
//! their own, narrower grid.

use imagen::ir::{Dag, StageId, StageKind};
use imagen::rtl::{build_netlist, build_roster, BitWidths, ModuleKind};
use imagen::schedule::plan_design;
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec, ScheduleOptions};

fn examples() -> Vec<(String, Dag)> {
    let dir = format!("{}/examples", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "imagen").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    names.sort();
    assert!(names.len() >= 10, "the example corpus: {names:?}");
    names
        .into_iter()
        .map(|name| {
            let path = format!("{dir}/{name}.imagen");
            let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let dag = imagen::dsl::compile(&name, &src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, dag)
        })
        .collect()
}

#[test]
fn roster_equals_the_netlist_schedule_and_memories() {
    let (mut split_rows, mut scaled_buffers) = (0, 0);
    for (name, dag) in examples() {
        for (w, h) in [(64, 48), (1920, 1080)] {
            let geom = ImageGeometry {
                width: w,
                height: h,
                pixel_bits: 16,
            };
            for coalesce in [false, true] {
                let mut spec = MemorySpec::new(MemBackend::Asic { block_bits: 16384 }, 2);
                if coalesce {
                    spec = spec.with_coalescing();
                }
                let style = if spec.ever_coalesces(&geom) {
                    DesignStyle::OursLc
                } else {
                    DesignStyle::Ours
                };
                let tag = format!("{name} {w}x{h} coalesce={coalesce}");
                let plan = plan_design(&dag, &geom, &spec, ScheduleOptions::default(), style)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                for widths in [BitWidths::default(), BitWidths::wide()] {
                    let net = build_netlist(&plan.dag, &plan.design, &widths);
                    let roster = build_roster(&plan.dag, &plan.design, &widths);
                    assert_eq!(roster.geometry, net.geometry, "{tag}: geometry");
                    assert_eq!(roster.widths, net.widths, "{tag}: widths");
                    assert_eq!(roster.stages, net.stages, "{tag}: stages");
                    assert_eq!(roster.edges, net.edges, "{tag}: edges");
                    assert_eq!(roster.buffers, net.buffers, "{tag}: buffers");
                    assert_eq!(roster.frame, net.frame, "{tag}: frame");
                    assert_eq!(roster.done_cycle, net.done_cycle, "{tag}: done cycle");
                    // The module indices the roster hands out name the
                    // modules the netlist elaborates.
                    for s in &roster.stages {
                        let payload = s.module.and_then(|m| net.modules[m].stage_payload());
                        match plan.dag.stage(StageId::from_index(s.index)).kind() {
                            StageKind::Compute { kernel } => assert_eq!(
                                payload.map(|p| (p.stage, &p.kernel)),
                                Some((s.index, kernel)),
                                "{tag}: module of stage {}",
                                s.index
                            ),
                            StageKind::Input => assert_eq!(s.module, None, "{tag}"),
                        }
                    }
                    for (bi, b) in roster.buffers.iter().enumerate() {
                        assert!(
                            matches!(&net.modules[b.module].kind,
                                ModuleKind::LineBuffer(p) if p.buffer == bi),
                            "{tag}: buffer {bi}"
                        );
                    }
                }
                let roster = build_roster(&plan.dag, &plan.design, &BitWidths::default());
                split_rows += roster
                    .buffers
                    .iter()
                    .filter(|b| b.blocks_per_row > 1)
                    .count();
                scaled_buffers += roster
                    .buffers
                    .iter()
                    .filter(|b| roster.stages[b.stage].scale_x > 1)
                    .count();
            }
        }
    }
    assert!(split_rows > 0, "some buffer must split its rows");
    assert!(scaled_buffers > 0, "some buffer must hold a resampled grid");
}
