//! The metric catalogue: every figure a run prints, with its unit,
//! better-direction, sample basis and — for layer figures — the
//! end-to-end figure and workload it should move. `BENCHMARK.json`
//! mirrors the names, units and directions (pinned by the self-test).

/// The workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "compile_corpus",
        "cold one-shot compiles (DSL to netlist, Verilog, certificate) of the examples and 9-60-stage synthetic pipelines at 160x120 and 1080p: the compiler's own cost",
    ),
    (
        "dse_sweep",
        "exhaustive 1-thread sweeps, measured and priced interleaved, of every pipeline with <=9 buffered stages: interpretation and power pricing dominate",
    ),
    (
        "serve_mix",
        "open-loop compile/dse/invalid mix at 500 req/s against imagen serve --tcp: the only path through compile cache, session map, lint admission, reassembly",
    ),
];

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What one sample is and how many a run takes.
    pub samples: &'static str,
    /// Layer metrics: the end-to-end metric and workload it should
    /// move. Empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    samples: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        samples,
        moves,
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`. The
/// times of `compile_corpus` and `dse_sweep` are scaled to reference host
/// speed (see `calib`); `serve_mix` times are wall-clock as measured.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", "lower", "median of the run's set-ups: 3 of input generation plus golden-executor gates (compile_corpus, dse_sweep); 5 server starts, each primed with one cold compile of every example key (serve_mix)", ""),
    m("peak_rss_mb", "MB", "lower", "VmHWM at the end of the run: the benchmark process, or for serve_mix the server child", ""),
    m("op_p50_ms", "ms", "lower", "median per operation: compile_corpus one compile (~4000/run); dse_sweep one measured sweep, its wall time per point (~190/run, 11 pipelines x rounds); serve_mix one request from its due time (20000/run)", ""),
    m("op_tail_ms", "ms", "lower", "tail of the op_p50_ms samples, the highest percentile with at least 10 samples beyond it in every run: p99 (compile_corpus, serve_mix), p90 (dse_sweep)", ""),
    m("throughput_per_s", "1/s", "higher", "median over rounds: compiles per busy second (compile_corpus), measured points per second (dse_sweep); completed requests per wall second (serve_mix)", ""),
    m("design_sram_kb", "kB", "lower", "geomean of allocated SRAM over the example designs: each example x geometry (compile_corpus, serve_mix) or each example's lowest-energy swept point (dse_sweep); deterministic", ""),
    m("within_limit_share", "share", "higher", "operations that passed their correctness gate within the workload's limit, over operations sent: 60 ms per compile (about 1.5x its tuned p99), 8 ms per point of a measured sweep (2x its tuned p90), 250 ms per request", ""),
];

/// Layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [Metric; 62] = [
    m(
        "dsl.busy_ms",
        "ms",
        "lower",
        "mean per compile",
        "op_p50_ms (compile_corpus)",
    ),
    m(
        "schedule.busy_ms",
        "ms",
        "lower",
        "mean plan_design per compile",
        "op_tail_ms (compile_corpus)",
    ),
    m(
        "ilp.solve_ms",
        "ms",
        "lower",
        "mean ilp.solve span total per compile",
        "op_tail_ms (compile_corpus)",
    ),
    m(
        "ilp.pivots",
        "count",
        "lower",
        "exact simplex pivots over one compile round",
        "op_tail_ms (compile_corpus)",
    ),
    m(
        "schedule.constraints",
        "count",
        "lower",
        "formulated constraints over one compile round",
        "op_tail_ms (compile_corpus)",
    ),
    m(
        "rtl.netlist_build_ms",
        "ms",
        "lower",
        "mean build_netlist per compile",
        "op_p50_ms (compile_corpus)",
    ),
    m(
        "rtl.emit_ms",
        "ms",
        "lower",
        "mean emit_verilog per compile",
        "op_p50_ms (compile_corpus)",
    ),
    m(
        "rtl.verilog_bytes",
        "B",
        "lower",
        "Verilog bytes over one compile round",
        "op_p50_ms (compile_corpus)",
    ),
    m(
        "analysis.certify_ms",
        "ms",
        "lower",
        "mean certify_netlist per compile",
        "op_p50_ms (compile_corpus, serve_mix)",
    ),
    m(
        "analysis.obligations",
        "count",
        "lower",
        "certificate obligations over one compile round",
        "op_p50_ms (compile_corpus, serve_mix)",
    ),
    m(
        "harness.trace_overhead.compile_corpus",
        "share",
        "lower",
        "decomposed over plain compile time, minus 1",
        "",
    ),
    m(
        "schedule.price_ms",
        "ms",
        "lower",
        "mean price_transient per swept point",
        "dse.priced_points_per_s, throughput_per_s (dse_sweep)",
    ),
    m(
        "rtl.resources_ms",
        "ms",
        "lower",
        "mean report_resources_for per swept point",
        "dse.priced_points_per_s (dse_sweep)",
    ),
    m(
        "dse.netlist_build_ms",
        "ms",
        "lower",
        "mean build_netlist per measured point",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "power.gate_ms",
        "ms",
        "lower",
        "mean gate_clocks per measured point",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "rtl.interpret_ms",
        "ms",
        "lower",
        "mean interpret_with_trace per rate-1 interpretation",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "rtl.interpret_multirate_ms",
        "ms",
        "lower",
        "mean interpret_with_trace per pyramid interpretation",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "rtl.interpretations",
        "count",
        "lower",
        "interpretations over one sweep round",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "rtl.pixels_interpreted",
        "count",
        "lower",
        "input pixels streamed over one sweep round",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "power.price_ms",
        "ms",
        "lower",
        "mean imagen_power::measure (both variants) per measured point",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.point_ms",
        "ms",
        "lower",
        "mean decomposed measured point, the base of dse.measure_share",
        "op_p50_ms (dse_sweep)",
    ),
    m(
        "dse.measure_share",
        "share",
        "lower",
        "netlist, gating, interpretation and pricing time over dse.point_ms",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.priced_points_per_s",
        "1/s",
        "higher",
        "priced-only sweep points per second over the traced rounds",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "power.design_energy_pj",
        "pJ",
        "lower",
        "geomean over the examples of the lowest measured pJ/frame; deterministic, must not move",
        "design_sram_kb (dse_sweep)",
    ),
    m(
        "dse.points_per_s.canny_m",
        "1/s",
        "higher",
        "measured points per second of this pipeline's explore()",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.canny_s",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.denoise_m",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.gaussian_pyramid",
        "1/s",
        "higher",
        "as above; multirate",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.harris_m",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.harris_s",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.laplacian_pyramid",
        "1/s",
        "higher",
        "as above; multirate",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.sobel",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.unsharp_m",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.xcorr_m",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "dse.points_per_s.synthetic9",
        "1/s",
        "higher",
        "as above",
        "throughput_per_s (dse_sweep)",
    ),
    m(
        "harness.trace_overhead.dse_sweep",
        "share",
        "lower",
        "decomposed over explore() time, minus 1",
        "",
    ),
    m(
        "serve.setup_s",
        "s",
        "lower",
        "one server start primed with every example key",
        "setup_s (serve_mix)",
    ),
    m(
        "serve.server_rss_mb",
        "MB",
        "lower",
        "server child VmHWM after the traced load",
        "peak_rss_mb (serve_mix)",
    ),
    m(
        "serve.latency_p50_ms",
        "ms",
        "lower",
        "median request latency from its due time over the traced load",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.latency_p99_ms",
        "ms",
        "lower",
        "p99 request latency from its due time over the traced load",
        "op_tail_ms (serve_mix)",
    ),
    m(
        "serve.within_limit_share",
        "share",
        "higher",
        "requests answered correctly within 250 ms, over requests sent",
        "within_limit_share (serve_mix)",
    ),
    m(
        "serve.queue_wait_p50_ms",
        "ms",
        "lower",
        "server histogram over the traced load",
        "op_tail_ms (serve_mix)",
    ),
    m(
        "serve.queue_wait_p99_ms",
        "ms",
        "lower",
        "server histogram over the traced load",
        "op_tail_ms (serve_mix)",
    ),
    m(
        "serve.handle_p50_ms",
        "ms",
        "lower",
        "server histogram over the traced load",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.handle_p99_ms",
        "ms",
        "lower",
        "server histogram over the traced load",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "core.cache_hit_share",
        "share",
        "higher",
        "compile-cache hits over core.cache_lookups",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "core.cache_lookups",
        "count",
        "lower",
        "compile-cache lookups, the base of core.cache_hit_share",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.rollovers",
        "count",
        "lower",
        "session-generation rollovers over the traced load",
        "op_tail_ms, peak_rss_mb (serve_mix)",
    ),
    m(
        "serve.admission_rejected",
        "count",
        "lower",
        "lint admission rejections; must equal the invalid requests sent",
        "within_limit_share (serve_mix)",
    ),
    m(
        "serve.phase.frontend.parse_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.frontend.lower_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.plan.skeleton_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.plan.formulate_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.ilp.solve_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.plan.realize_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.netlist.build_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.emit_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.program.build_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "serve.phase.dse.explore_us",
        "us",
        "lower",
        "phase_us total over the timed requests",
        "op_p50_ms (serve_mix)",
    ),
    m(
        "client.generator_lag_p99_ms",
        "ms",
        "lower",
        "send time minus due time, p99 over the traced load",
        "op_tail_ms (serve_mix)",
    ),
    m(
        "harness.reference_ms",
        "ms",
        "lower",
        "median of 5 runs of the calibration kernel at the start of the traced run; layer times are unscaled",
        "",
    ),
    m(
        "harness.trace_overhead.serve_mix",
        "share",
        "lower",
        "median latency of timed over untimed requests, minus 1",
        "",
    ),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
