//! **Interpreter speedup** — the compiled evaluation program vs the
//! legacy graph-walking netlist interpreter, per Tbl. 3 pipeline.
//!
//! `imagen_rtl::interpret` lowers each netlist once into a flat
//! evaluation program (`crates/rtl/src/program.rs`) and streams frames
//! through it; `interpret_legacy` re-walks the netlist graph every
//! clock edge. This binary measures both paths — untraced, traced, and
//! clock-gated traced — on every Tbl. 3 pipeline and on the two
//! multirate pyramids (`examples/gaussian_pyramid.imagen`,
//! `examples/laplacian_pyramid.imagen`, whose traced runs take the
//! per-stage-grid activity passes) at the acceptance geometry (120×80 @
//! 16 bpp; smoke mode shrinks it for CI), plus the one-time program
//! compile cost, and prints per-pipeline speedups with a geometric-mean
//! summary. The two engines are pinned bit-identical
//! by `crates/rtl/tests/program_differential.rs`; this binary reports
//! only the wall-clock side of that bargain.
//!
//! EXPERIMENTS.md ("Netlist interpreter") records representative
//! numbers; machine noise of tens of percent run-to-run is normal.

use imagen_algos::{noise_bits, Algorithm};
use imagen_bench::smoke_mode;
use imagen_core::{CompileOutput, Session};
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_power::gate_clocks;
use imagen_rtl::{
    build_netlist, interpret_legacy, interpret_with_trace_legacy, BitWidths, EvalProgram,
};
use imagen_sim::Image;
use std::time::Instant;

/// The multirate example pipelines, by name and DSL source.
const PYRAMIDS: [(&str, &str); 2] = [
    (
        "gauss_pyr",
        include_str!("../../../../examples/gaussian_pyramid.imagen"),
    ),
    (
        "lapl_pyr",
        include_str!("../../../../examples/laplacian_pyramid.imagen"),
    ),
];

/// Best-of-`reps` wall clock in milliseconds.
fn best_ms(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let smoke = smoke_mode();
    let reps = if smoke { 3 } else { 7 };
    let geom = if smoke {
        ImageGeometry {
            width: 48,
            height: 32,
            pixel_bits: 16,
        }
    } else {
        ImageGeometry {
            width: 120,
            height: 80,
            pixel_bits: 16,
        }
    };
    println!("# Netlist interpreter speedup (compiled program vs legacy walker)");
    println!("geometry {geom}, best of {reps} reps\n");
    println!(
        "{:<10} {:>18} {:>18} {:>18} {:>12}",
        "pipeline", "untraced", "traced", "gated traced", "compile ms"
    );

    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let compile = |dag: &imagen_ir::Dag| Session::new(dag, geom).compile(&spec, None).unwrap();
    let mut pipelines: Vec<(&str, CompileOutput)> = Algorithm::all()
        .into_iter()
        .map(|alg| (alg.name(), compile(&alg.build())))
        .collect();
    for (name, src) in PYRAMIDS {
        pipelines.push((name, compile(&imagen_dsl::compile(name, src).unwrap())));
    }

    let mut ratios: Vec<f64> = Vec::new();
    for (name, out) in &pipelines {
        let net = build_netlist(&out.plan.dag, &out.plan.design, &BitWidths::default());
        let gated = gate_clocks(&net);
        let inputs: Vec<Image> = (0..net.input_streams().len())
            .map(|k| {
                let seed = 0x1234 + k as u64;
                Image::from_fn(geom.width, geom.height, move |x, y| {
                    noise_bits(seed, x, y, 4)
                })
            })
            .collect();
        let prog = EvalProgram::compile(&net).unwrap();
        let gprog = EvalProgram::compile(&gated).unwrap();

        let l_u = best_ms(reps, || {
            interpret_legacy(&net, &inputs).unwrap();
        });
        let p_u = best_ms(reps, || {
            prog.run(&inputs).unwrap();
        });
        let l_t = best_ms(reps, || {
            interpret_with_trace_legacy(&net, &inputs).unwrap();
        });
        let p_t = best_ms(reps, || {
            prog.run_with_trace(&inputs).unwrap();
        });
        let l_g = best_ms(reps, || {
            interpret_with_trace_legacy(&gated, &inputs).unwrap();
        });
        let p_g = best_ms(reps, || {
            gprog.run_with_trace(&inputs).unwrap();
        });
        let compile_ms = best_ms(reps, || {
            EvalProgram::compile(&net).unwrap();
        });

        ratios.extend([l_u / p_u, l_t / p_t, l_g / p_g]);
        println!(
            "{:<10} {:>7.3}->{:>5.3} {:>4.1}x {:>7.3}->{:>5.3} {:>4.1}x {:>7.3}->{:>5.3} {:>4.1}x {:>12.4}",
            name,
            l_u,
            p_u,
            l_u / p_u,
            l_t,
            p_t,
            l_t / p_t,
            l_g,
            p_g,
            l_g / p_g,
            compile_ms
        );
    }

    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!(
        "\ninterpreter speedup geomean: {geomean:.1}x over {} measurements",
        ratios.len()
    );
}
