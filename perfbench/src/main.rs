//! `imagen-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--imagen <path>]`: runs one
//! workload and prints one JSON result line last on stdout;
//! `--describe` prints the metric catalogue instead.

use imagen_perfbench::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use imagen_perfbench::report::{peak_rss_mb, result_line, Metrics, Tally};
use imagen_perfbench::{calib, compile, dse, serve, stats};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    imagen: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        imagen: "target/release/imagen".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--imagen" => args.imagen = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(Some(args))
}

/// Runs `f` `times` times and returns the last result and the median
/// duration, seconds, scaled to reference host speed.
fn timed_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut secs, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..times {
        let kernel_before = calib::kernel_ms();
        let t = Instant::now();
        last = Some(f());
        let s = t.elapsed().as_secs_f64();
        raw.push(s);
        secs.push(s * calib::scale(kernel_before));
    }
    eprintln!(
        "setup_s {:.4} scaled, {:.4} unscaled",
        stats::median(&secs),
        stats::median(&raw)
    );
    (last.expect("times >= 1"), stats::median(&secs))
}

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
const SERVE_SETUPS: usize = 5;

fn run_untraced(a: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let (body, setup_s) = match a.workload.as_str() {
        "compile_corpus" => {
            let (inputs, s) = timed_setup(SETUPS, || compile::setup(a.seed, tally));
            let mut body = compile::run(&inputs, a.seconds, tally);
            body.put("peak_rss_mb", peak_rss_mb("self"), "MB");
            (body, s)
        }
        "dse_sweep" => {
            let (inputs, s) = timed_setup(SETUPS, || dse::setup(a.seed, tally));
            let mut body = dse::run(&inputs, a.seconds, tally);
            body.put("peak_rss_mb", peak_rss_mb("self"), "MB");
            (body, s)
        }
        _ => {
            let inputs = serve::ServeInputs::generate(a.seed, a.seconds, false);
            let (server, sram, s) = serve::setup(&a.imagen, &inputs, SERVE_SETUPS, tally)?;
            (serve::run(server, &inputs, &sram, tally), s)
        }
    };
    m.put("setup_s", setup_s, "s");
    m.extend(body);
    Ok(m)
}

/// The traced run covers every layer: each workload's decomposition
/// gets a third of the time.
fn run_traced(a: &Args, tally: &mut Tally) -> Metrics {
    let third = a.seconds / 3.0;
    let mut m = Metrics::default();
    // Layer figures stay unscaled; the host's speed is reported beside
    // them.
    let kernel: Vec<f64> = (0..5).map(|_| calib::kernel_ms()).collect();
    m.put("harness.reference_ms", stats::median(&kernel), "ms");
    let inputs = compile::setup(a.seed, tally);
    m.extend(compile::run_traced(&inputs, third, tally));
    let inputs = dse::setup(a.seed, tally);
    m.extend(dse::run_traced(&inputs, third, tally));
    m.extend(serve::run_traced(&a.imagen, a.seed, third, tally));
    m
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            for (w, why) in WORKLOADS {
                println!("workload {w}: {why}");
            }
            for x in END_TO_END.iter().chain(PER_LAYER.iter()) {
                println!(
                    "{} [{}, {} is better] samples: {}{}",
                    x.name,
                    x.unit,
                    x.better,
                    x.samples,
                    if x.moves.is_empty() {
                        String::new()
                    } else {
                        format!("; moves {}", x.moves)
                    }
                );
            }
            return;
        }
        Err(e) => {
            eprintln!("imagen-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let result = if args.trace {
        Ok(run_traced(&args, &mut tally))
    } else {
        run_untraced(&args, &mut tally)
    };
    let measured = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("imagen-perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    // Print in catalogue order, exactly the catalogue's names.
    let want = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut out = Metrics::default();
    for x in want {
        match measured.get(x.name) {
            Some(v) => out.put(x.name, v, x.unit),
            None => {
                eprintln!("imagen-perfbench: metric {} was not measured", x.name);
                std::process::exit(1);
            }
        }
    }
    for (name, _, _) in &measured.0 {
        if metrics::find(name).is_none() {
            eprintln!("imagen-perfbench: uncatalogued metric {name}");
            std::process::exit(1);
        }
    }
    println!("{}", result_line(&tally, &out));
}
