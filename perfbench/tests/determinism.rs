//! Determinism self-test of the benchmark: one seed always generates
//! byte-identical inputs and identical deterministic figures; another
//! seed generates different inputs that still pass every gate. Also pins
//! `BENCHMARK.json` to the metric catalogue.
//!
//! The `serve_mix` gates need the `imagen` binary: set `IMAGEN_BIN` to
//! its absolute path (e.g. `$PWD/.bench_build/release/imagen`) to include
//! them.

use imagen_perfbench::inputs::{CompileInputs, DseInputs};
use imagen_perfbench::json::{self, Json};
use imagen_perfbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use imagen_perfbench::report::Tally;
use imagen_perfbench::serve::{self, ServeInputs};
use imagen_perfbench::{compile, dse};

const SEED: u64 = 7;
const OTHER: u64 = 8;

/// The simplex pivot counter is process-wide: tests that read it run
/// one at a time.
static PIVOTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn inputs_are_byte_identical_per_seed_and_differ_across_seeds() {
    let a = CompileInputs::generate(SEED).bytes();
    assert_eq!(a, CompileInputs::generate(SEED).bytes());
    assert_ne!(a, CompileInputs::generate(OTHER).bytes());

    let d = DseInputs::generate(SEED).bytes();
    assert_eq!(d, DseInputs::generate(SEED).bytes());
    assert_ne!(d, DseInputs::generate(OTHER).bytes());

    for timing in [false, true] {
        let s = ServeInputs::generate(SEED, 2.0, timing).bytes();
        assert_eq!(s, ServeInputs::generate(SEED, 2.0, timing).bytes());
        assert_ne!(s, ServeInputs::generate(OTHER, 2.0, timing).bytes());
    }
}

fn compile_figures(seed: u64) -> (u64, u64, compile::RoundCounts) {
    let _serial = PIVOTS.lock().unwrap_or_else(|e| e.into_inner());
    let mut tally = Tally::default();
    let inputs = compile::setup(seed, &mut tally);
    let m = compile::run(&inputs, 0.0, &mut tally);
    assert_eq!(tally.failed, 0, "seed {seed}: {:?}", tally.notes);
    let counts = compile::round_counts(&inputs).expect("round compiles");
    (
        m.get("design_sram_kb").unwrap().to_bits(),
        inputs.programs.len() as u64,
        counts,
    )
}

#[test]
fn compile_figures_repeat_per_seed_and_gates_pass_on_another() {
    let first = compile_figures(SEED);
    assert_eq!(first, compile_figures(SEED));
    assert!(first.2.pivots > 0);
    // Another seed draws other gated pipelines; the timed corpus and so
    // its deterministic figures stay the same.
    assert_eq!(first, compile_figures(OTHER));
}

fn dse_figures(seed: u64) -> (u64, u64) {
    let _serial = PIVOTS.lock().unwrap_or_else(|e| e.into_inner());
    let mut tally = Tally::default();
    let inputs = dse::setup(seed, &mut tally);
    let e2e = dse::run(&inputs, 0.0, &mut tally);
    let layers = dse::run_traced(&inputs, 0.0, &mut tally);
    assert_eq!(tally.failed, 0, "seed {seed}: {:?}", tally.notes);
    (
        e2e.get("design_sram_kb").unwrap().to_bits(),
        layers.get("power.design_energy_pj").unwrap().to_bits(),
    )
}

#[test]
fn dse_figures_repeat_per_seed_and_gates_pass_on_another() {
    let first = dse_figures(SEED);
    assert_eq!(first, dse_figures(SEED));
    assert_eq!(first, dse_figures(OTHER));
}

#[test]
fn serve_gates_pass_when_the_server_is_available() {
    let Ok(imagen) = std::env::var("IMAGEN_BIN") else {
        eprintln!("IMAGEN_BIN unset: serve_mix gates not exercised");
        return;
    };
    for seed in [SEED, OTHER] {
        let mut tally = Tally::default();
        let inputs = ServeInputs::generate(seed, 1.0, false);
        let (server, sram, _) =
            serve::setup(&imagen, &inputs, 1, &mut tally).expect("server starts");
        let m = serve::run(server, &inputs, &sram, &mut tally);
        assert_eq!(tally.failed, 0, "seed {seed}: {:?}", tally.notes);
        assert!(m.get("design_sram_kb").unwrap() > 0.0);
    }
}

fn names(list: &Json) -> Vec<(String, String, String)> {
    let Json::Arr(items) = list else {
        panic!("expected an array")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let triple = |m: &imagen_perfbench::metrics::Metric| {
        (m.name.to_string(), m.unit.to_string(), m.better.to_string())
    };
    assert_eq!(
        names(doc.get("end_to_end").unwrap()),
        END_TO_END.iter().map(triple).collect::<Vec<_>>()
    );
    assert_eq!(
        names(doc.get("per_layer").unwrap()),
        PER_LAYER.iter().map(triple).collect::<Vec<_>>()
    );
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads")
    };
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).unwrap(),
                w.get("why").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    // serve_mix runs but is not listed until its latencies are steady
    // (see README.md); every listed workload must match the catalogue.
    assert!(listed.len() >= 2);
    for w in listed {
        assert!(WORKLOADS.contains(&w), "{w:?} not in the catalogue");
    }
}
