//! Machine-readable benchmark snapshot (`BENCH_9.json`).
//!
//! Re-runs scaled-down versions of the three hot-loop criterion benches
//! — `netlist_interp`, `activity_interp` and `dse_sweep` — plus a
//! `serve_throughput` group that drives the real `imagen serve` binary
//! with mixed cold/warm traffic, and emits one JSON object with the
//! median wall-clock of each micro-run plus enough environment metadata
//! to interpret the numbers later (rustc, target arch/OS, thread count,
//! smoke mode, geometry). CI archives the output so perf regressions
//! show up as a diffable artifact rather than a scrollback of criterion
//! text.
//!
//! Usage: `exp_bench_snapshot [-o BENCH_9.json]` — prints the JSON to
//! stdout unless `-o` names a file. Honors `IMAGEN_SMOKE` (fewer reps,
//! smaller frame). `imagen bench diff <old> <new>` compares two
//! snapshots and flags regressions; three or more files give a history
//! view.

use imagen_algos::{sample_pattern, Algorithm, TestPattern};
use imagen_bench::smoke_mode;
use imagen_core::Session;
use imagen_dse::{explore, ExploreOptions, ExploreStrategy, MeasureMode};
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_power::gate_clocks;
use imagen_rtl::{build_netlist, emit_verilog, interpret, interpret_with_trace, BitWidths};
use imagen_sim::Image;
use std::time::Instant;

/// Median wall-clock (ms) of `reps` timed runs after one warm-up.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Pipes `lines` through `imagen serve --threads N` (stdin batch mode)
/// and returns stdout (one response line per request, request order).
fn serve_batch(bin: &std::path::Path, threads: usize, lines: &str) -> Result<String, String> {
    use std::process::{Command, Stdio};
    let mut child = Command::new(bin)
        .args(["serve", "--threads", &threads.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    use std::io::Write;
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(lines.as_bytes())
        .map_err(|e| format!("write to serve: {e}"))?;
    let out = child
        .wait_with_output()
        .map_err(|e| format!("wait for serve: {e}"))?;
    if !out.status.success() {
        return Err(format!("serve exited {:?}", out.status.code()));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("serve stdout not UTF-8: {e}"))
}

/// Pulls the integer value of `"key":<n>` out of a response line.
fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// End-to-end serve throughput: ms-per-request medians for cold
/// (first-sight pipeline) and warm (cache-hit recompile) compile
/// requests, measured through the real binary. Also asserts the
/// protocol's byte-identity contract — sequential and threaded runs of
/// the same batch must produce identical bytes — under the
/// instrumented build. Returns `None` (with a stderr note) when the
/// `imagen` binary is not built alongside this one.
fn serve_throughput(reps: usize) -> Option<(f64, f64)> {
    let bin = std::env::current_exe()
        .ok()?
        .with_file_name(format!("imagen{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        eprintln!(
            "note: skipping serve_throughput ({} not built)",
            bin.display()
        );
        return None;
    }
    // Mixed traffic: 4 distinct pipelines, each requested 4 times.
    // Request i compiles pipeline i%4, so the first 4 requests are cold
    // and the remaining 12 are warm (sequential run).
    let uniques = 4usize;
    let total = 16usize;
    let line = |i: usize, timing: bool| {
        let p = i % uniques;
        format!(
            "{{\"id\":{i},\"cmd\":\"compile\",\"name\":\"p{p}\",\
             \"source\":\"input a; output b = im(x,y) (a(x-1,y) + 2*a(x,y) + a(x+1,y) + {p}) / 4 end\",\
             \"width\":32,\"height\":24,\"timing\":{timing}}}\n"
        )
    };
    let timed_batch: String = (0..total).map(|i| line(i, true)).collect();
    let plain_batch: String = (0..total).map(|i| line(i, false)).collect();

    // Byte-identity first (no timing members, which are honestly
    // non-deterministic): one worker vs. four must match exactly.
    let seq = serve_batch(&bin, 1, &plain_batch).ok()?;
    let par = serve_batch(&bin, 4, &plain_batch).ok()?;
    if seq != par {
        eprintln!("error: serve responses differ between --threads 1 and --threads 4");
        std::process::exit(1);
    }

    // Timed runs: sequential, so cold/warm attribution is exact.
    let mut cold_meds = Vec::new();
    let mut warm_meds = Vec::new();
    for _ in 0..reps {
        let out = serve_batch(&bin, 1, &timed_batch).ok()?;
        let us: Vec<u64> = out
            .lines()
            .map(|l| extract_u64(l, "elapsed_us").unwrap_or(0))
            .collect();
        if us.len() != total {
            eprintln!("error: serve answered {} of {total} requests", us.len());
            std::process::exit(1);
        }
        let mut cold: Vec<u64> = us[..uniques].to_vec();
        let mut warm: Vec<u64> = us[uniques..].to_vec();
        cold.sort_unstable();
        warm.sort_unstable();
        cold_meds.push(cold[cold.len() / 2] as f64 / 1e3);
        warm_meds.push(warm[warm.len() / 2] as f64 / 1e3);
    }
    cold_meds.sort_by(|a, b| a.total_cmp(b));
    warm_meds.sort_by(|a, b| a.total_cmp(b));
    Some((
        cold_meds[cold_meds.len() / 2],
        warm_meds[warm_meds.len() / 2],
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("error: -o needs a file name");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: exp_bench_snapshot [-o BENCH_8.json]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

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
    let backend = MemBackend::asic_default();
    let spec = MemorySpec::new(backend, 2);

    // netlist_interp mirror: elaborate / emit / interpret Unsharp-m.
    let dag = Algorithm::UnsharpM.build();
    let out = Session::new(&dag, geom).compile(&spec, None).unwrap();
    let input = Image::from_fn(geom.width, geom.height, |x, y| {
        sample_pattern(TestPattern::Noise, 3, x, y)
    });
    let net = build_netlist(&out.plan.dag, &out.plan.design, &BitWidths::default());
    let build_ms = median_ms(reps, || {
        std::hint::black_box(build_netlist(
            &out.plan.dag,
            &out.plan.design,
            &BitWidths::default(),
        ));
    });
    let emit_ms = median_ms(reps, || {
        std::hint::black_box(emit_verilog(&net));
    });
    let interp_ms = median_ms(reps, || {
        std::hint::black_box(interpret(&net, std::slice::from_ref(&input)).unwrap());
    });

    // activity_interp mirror: traced and gated-traced interpretation.
    let gated = gate_clocks(&net);
    let traced_ms = median_ms(reps, || {
        std::hint::black_box(interpret_with_trace(&net, std::slice::from_ref(&input)).unwrap());
    });
    let gated_traced_ms = median_ms(reps, || {
        std::hint::black_box(interpret_with_trace(&gated, std::slice::from_ref(&input)).unwrap());
    });

    // dse_sweep mirror: the memoized exhaustive engine, one worker —
    // pricing-only, and the shipping default with measured energy
    // (two netlist interpretations per point) folded in.
    let dse_ms = median_ms(reps, || {
        std::hint::black_box(
            explore(
                &dag,
                &geom,
                backend,
                ExploreOptions {
                    strategy: ExploreStrategy::Exhaustive,
                    threads: 1,
                    measure: MeasureMode::Off,
                },
            )
            .unwrap(),
        );
    });
    let dse_measured_ms = median_ms(reps, || {
        std::hint::black_box(
            explore(
                &dag,
                &geom,
                backend,
                ExploreOptions {
                    strategy: ExploreStrategy::Exhaustive,
                    threads: 1,
                    measure: MeasureMode::default(),
                },
            )
            .unwrap(),
        );
    });

    // serve_throughput: end-to-end request latency through the real
    // binary, ms per request (cold = first-sight pipeline, warm =
    // cache-hit recompile), plus the byte-identity assertion.
    let serve_part = match serve_throughput(reps) {
        Some((cold_ms, warm_ms)) => format!(
            ",\"serve_throughput\":{{\"cold_req_ms\":{cold_ms:.4},\"warm_req_ms\":{warm_ms:.4}}}"
        ),
        None => String::new(),
    };

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\"schema\":\"imagen-bench-snapshot/1\",\"env\":{{\"rustc\":{},\"arch\":{},\"os\":{},\"threads\":{},\"smoke\":{},\"geometry\":{{\"width\":{},\"height\":{},\"pixel_bits\":{}}},\"reps\":{}}},\"median_ms\":{{\"netlist_interp\":{{\"build\":{:.4},\"emit\":{:.4},\"interpret\":{:.4}}},\"activity_interp\":{{\"interpret_traced\":{:.4},\"interpret_gated_traced\":{:.4}}},\"dse_sweep\":{{\"session_sequential\":{:.4},\"session_sequential_measured\":{:.4}}}{serve_part}}}}}",
        json_str(&rustc_version()),
        json_str(std::env::consts::ARCH),
        json_str(std::env::consts::OS),
        threads,
        smoke,
        geom.width,
        geom.height,
        geom.pixel_bits,
        reps,
        build_ms,
        emit_ms,
        interp_ms,
        traced_ms,
        gated_traced_ms,
        dse_ms,
        dse_measured_ms,
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, json + "\n").unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}
