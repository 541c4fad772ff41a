//! Activity-trace goldens: the graph walker's [`ActivityTrace`] over the
//! example corpus, pinned as text.
//!
//! Every `examples/*.imagen` pipeline is planned at 64×48 under two
//! memory organisations (blocks of two rows, and blocks of a quarter row
//! so a row spans several banks), built at both width regimes (16/32 and
//! 64/64), and run ungated and under `gate_clocks`. Each case records the
//! run length, per-buffer read/write/peak totals and read-port duty,
//! per-stage and per-SRA totals, and an FNV-64 of the trace's full
//! `Debug` form, so any drift in a single block counter shows up.
//!
//! The golden is produced by the reference walker
//! (`interpret_with_trace_legacy`) and the compiled program
//! (`interpret_with_trace`) must reproduce it byte for byte, pyramids
//! included.
//!
//! Regenerate with `IMAGEN_BLESS=1 cargo test --release --test activity_golden`
//! (only when a change to the traced semantics is intended).

use imagen::algos::noise_bits;
use imagen::ir::Dag;
use imagen::power::gate_clocks;
use imagen::rtl::{
    build_netlist, interpret_with_trace, interpret_with_trace_legacy, ActivityTrace, BitWidths,
};
use imagen::schedule::plan_design;
use imagen::sim::Image;
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec, ScheduleOptions};
use std::fmt::Write as _;
use std::path::Path;

const EXAMPLES: [&str; 10] = [
    "canny_m",
    "canny_s",
    "denoise_m",
    "gaussian_pyramid",
    "harris_m",
    "harris_s",
    "laplacian_pyramid",
    "sobel",
    "unsharp_m",
    "xcorr_m",
];

const GEOM: ImageGeometry = ImageGeometry {
    width: 64,
    height: 48,
    pixel_bits: 16,
};

fn example(stem: &str) -> Dag {
    let path = format!("{}/examples/{stem}.imagen", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    imagen::dsl::compile(stem, &src).unwrap_or_else(|e| panic!("{stem}: {e}"))
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn join<T: ToString>(xs: impl IntoIterator<Item = T>) -> String {
    xs.into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The text record of one trace.
fn render(out: &mut String, tr: &ActivityTrace) {
    let _ = writeln!(
        out,
        "  run_cycles: {} frame: {} fnv64: {:016x}",
        tr.run_cycles,
        tr.frame,
        fnv64(format!("{tr:?}").as_bytes())
    );
    for (i, b) in tr.buffers.iter().enumerate() {
        let _ = writeln!(
            out,
            "  buffer {i} stage {}: reads {} writes {} peak {} enabled {} idle {} gated_off {}{}",
            b.stage,
            b.reads(),
            b.writes(),
            b.block_peaks.iter().max().copied().unwrap_or(0),
            b.read_enabled_cycles,
            b.idle_read_cycles,
            b.gated_off_cycles,
            if b.fifo { " fifo" } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "  stages active: {}",
        join(tr.stages.iter().map(|s| s.active_cycles))
    );
    let _ = writeln!(
        out,
        "  stages out_reg writes/toggles: {}",
        join(
            tr.stages
                .iter()
                .map(|s| format!("{}/{}", s.out_reg_writes, s.out_reg_toggles))
        )
    );
    let _ = writeln!(
        out,
        "  sras shifts/cells/toggles: {}",
        join(
            tr.sras
                .iter()
                .map(|s| format!("{}/{}/{}", s.shift_cycles, s.cell_writes, s.bit_toggles))
        )
    );
}

/// Every case's record, tracing each netlist through `trace`.
fn corpus(trace: impl Fn(&imagen::rtl::Netlist, &[Image]) -> ActivityTrace) -> String {
    let mut out = String::new();
    let row_bits = GEOM.row_bits();
    for stem in EXAMPLES {
        let dag = example(stem);
        for (mem, block_bits) in [("2-row", 2 * row_bits), ("quarter-row", row_bits / 4)] {
            let spec = MemorySpec::new(MemBackend::Asic { block_bits }, 2);
            let plan = plan_design(
                &dag,
                &GEOM,
                &spec,
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
            .unwrap_or_else(|e| panic!("{stem} {mem}: {e}"));
            let n_inputs = plan.dag.stages().filter(|(_, s)| s.is_input()).count();
            let inputs: Vec<Image> = (0..n_inputs as u64)
                .map(|i| {
                    Image::from_fn(GEOM.width, GEOM.height, move |x, y| {
                        noise_bits(0xAC71 + i, x, y, 8)
                    })
                })
                .collect();
            for (wname, widths) in [
                ("16/32", BitWidths::default()),
                ("64/64", BitWidths::wide()),
            ] {
                let net = build_netlist(&plan.dag, &plan.design, &widths);
                for (gname, net) in [("ungated", net.clone()), ("gated", gate_clocks(&net))] {
                    let _ = writeln!(out, "case {stem} {mem} {wname} {gname}");
                    render(&mut out, &trace(&net, &inputs));
                }
            }
        }
    }
    out
}

fn check(out: &str, engine: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/activity_golden.txt");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} (IMAGEN_BLESS=1 to create): {e}", path.display()));
    if out != want {
        let first = out
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(out.lines().count().min(want.lines().count()));
        panic!(
            "{engine}: {} drifted at line {}:\n  got:  {:?}\n  want: {:?}\nrerun with IMAGEN_BLESS=1 only if the change is intended",
            path.display(),
            first + 1,
            out.lines().nth(first),
            want.lines().nth(first)
        );
    }
}

#[test]
fn activity_traces_match_golden() {
    let walker = corpus(|net, inputs| interpret_with_trace_legacy(net, inputs).unwrap().1);
    if std::env::var("IMAGEN_BLESS").is_ok() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/activity_golden.txt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &walker).unwrap();
    }
    check(&walker, "graph walker");
    let program = corpus(|net, inputs| interpret_with_trace(net, inputs).unwrap().1);
    check(&program, "compiled program");
}
