//! Schedule goldens: the exact solver output for the example corpus and
//! the 9–60-stage synthetic pipelines, pinned as text.
//!
//! Every case records the start cycles, the per-stage buffer rows, the
//! total rows, the OR-group sub-problem count and the number of simplex
//! pivots the plan took. The pivot count pins the solver's pivot
//! *sequence* length, so any change to the simplex representation that
//! alters a pivot choice shows up here even when the optimum is the same.
//!
//! The pivot counter is process-global, so this file holds exactly one
//! `#[test]`: no concurrently running test can add pivots to a delta.
//!
//! Regenerate with `IMAGEN_BLESS=1 cargo test --release --test schedule_golden`
//! (only when a schedule change is intended).

use imagen::algos::synthetic_pipeline;
use imagen::ilp::stats::pivot_count;
use imagen::ir::Dag;
use imagen::schedule::plan_design;
use imagen::{DesignStyle, ImageGeometry, MemBackend, MemorySpec, ScheduleOptions, SizeObjective};
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

const GEOMETRIES: [(u32, u32); 2] = [(160, 120), (1920, 1080)];

/// Examples also solved under the exact-rows objective, which keeps the
/// general (rational, branch-and-bound) solver route pinned.
const TOTAL_ROWS_CASES: [&str; 4] = ["sobel", "canny_s", "harris_s", "unsharp_m"];

fn example(stem: &str) -> Dag {
    let path = format!("{}/examples/{stem}.imagen", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    imagen::dsl::compile(stem, &src).unwrap_or_else(|e| panic!("{stem}: {e}"))
}

/// The CLI's default memory spec: 32 Kbit ASIC blocks, dual-ported.
fn spec(coalesce: bool) -> MemorySpec {
    let spec = MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2);
    if coalesce {
        spec.with_coalescing()
    } else {
        spec
    }
}

fn join<T: ToString>(xs: &[T]) -> String {
    xs.iter().map(T::to_string).collect::<Vec<_>>().join(" ")
}

/// Plans one case and appends its record to `out`.
fn record(
    out: &mut String,
    name: &str,
    dag: &Dag,
    (w, h): (u32, u32),
    coalesce: bool,
    obj: SizeObjective,
) {
    let geom = ImageGeometry {
        width: w,
        height: h,
        pixel_bits: 16,
    };
    let spec = spec(coalesce);
    let style = if spec.ever_coalesces(&geom) {
        DesignStyle::OursLc
    } else {
        DesignStyle::Ours
    };
    let opts = ScheduleOptions {
        objective: obj,
        ..ScheduleOptions::default()
    };
    let spec_name = if coalesce { "dp-lc" } else { "dp" };
    let _ = writeln!(out, "case {name} {w}x{h} {spec_name} {obj:?}");
    let before = pivot_count();
    match plan_design(dag, &geom, &spec, opts, style) {
        Ok(plan) => {
            let s = &plan.schedule;
            let _ = writeln!(out, "  starts: {}", join(&s.starts));
            let _ = writeln!(out, "  buffer_rows: {}", join(&s.buffer_rows));
            let _ = writeln!(
                out,
                "  total_rows: {} subproblems: {} pivots: {}",
                s.total_rows,
                s.report.subproblems,
                pivot_count() - before
            );
        }
        Err(e) => {
            let _ = writeln!(out, "  error: {e} pivots: {}", pivot_count() - before);
        }
    }
}

#[test]
fn schedules_match_golden() {
    let mut out = String::new();
    let mut pipelines: Vec<(String, Dag)> = EXAMPLES
        .iter()
        .map(|stem| (stem.to_string(), example(stem)))
        .collect();
    for stages in [9, 18, 27, 36, 48, 60] {
        for seed in [1, 2] {
            pipelines.push((
                format!("synthetic-{stages}-{seed}"),
                synthetic_pipeline(stages, seed),
            ));
        }
    }
    for (name, dag) in &pipelines {
        for geom in GEOMETRIES {
            for coalesce in [false, true] {
                record(
                    &mut out,
                    name,
                    dag,
                    geom,
                    coalesce,
                    SizeObjective::TotalDelay,
                );
            }
        }
    }
    for stem in TOTAL_ROWS_CASES {
        record(
            &mut out,
            stem,
            &example(stem),
            GEOMETRIES[0],
            false,
            SizeObjective::TotalRows,
        );
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedule_golden.txt");
    if std::env::var("IMAGEN_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} (IMAGEN_BLESS=1 to create): {e}", path.display()));
    if out != want {
        let first = out
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(out.lines().count().min(want.lines().count()));
        panic!(
            "{} drifted at line {}:\n  got:  {:?}\n  want: {:?}\nrerun with IMAGEN_BLESS=1 only if the change is intended",
            path.display(),
            first + 1,
            out.lines().nth(first),
            want.lines().nth(first)
        );
    }
}
