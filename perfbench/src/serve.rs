//! `serve_mix`: open-loop load at a fixed offered rate against a real
//! `imagen serve --tcp` child, from one client with two connections and
//! two threads. Every request is timed from the moment it was due, so a
//! late generator cannot hide queueing.

use crate::inputs::{examples, geom, synthetic, Program};
use crate::json::{self, quote, Json};
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::stats::{self, Rng};
use imagen_mem::ImageGeometry;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load, requests per second: under half the capacity measured
/// for this mix on a 2-core x86-64 VM, where the backlog starts growing
/// between 1200 and 1500 requests/s offered. The margin keeps the load
/// below saturation when noisy neighbours slow the host.
pub const RATE_PER_S: f64 = 500.0;

/// A request slower than this (from its due time) counts against
/// `within_limit_share`.
pub const LIMIT_MS: f64 = 250.0;

/// Client connections; the server runs one worker per connection
/// (`--threads 1`), so two connections use the two workers a 2-core
/// machine has.
pub const CONNECTIONS: usize = 2;

/// The mix is drawn in blocks of this many requests, each holding
/// exactly [`INVALID_PER_BLOCK`] invalid and [`DSE_PER_BLOCK`] `dse`
/// requests at seeded positions, so every seed offers the same mix.
const BLOCK: usize = 100;

/// Requests per block whose source the server must reject at admission.
const INVALID_PER_BLOCK: usize = 3;

/// Greedy `dse` requests per block.
const DSE_PER_BLOCK: usize = 7;

/// Zipf exponent of the compile-key popularity.
const ZIPF_S: f64 = 1.1;

/// Sources the lint admission check must reject, each with a fragment
/// of the error it must answer with.
const INVALID: [(&str, &str, bool); 4] = [
    (
        "input raw;\noutput o = im(x,y) raw(x,y) + end\n",
        "expected a number",
        false,
    ),
    (
        "input raw;\noutput o = im(x,y) missing(x,y) end\n",
        "is not defined",
        false,
    ),
    (
        "input raw;\ninput spare;\noutput o = im(x,y) raw(x,y) end\n",
        "has no consumers",
        false,
    ),
    (
        "input raw;\noutput o = im(x,y) raw(x,y) + (2*3) end\n",
        "denied warning[W0105]",
        true,
    ),
];

/// What a response must look like.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A proved compile; example keys carry `(program, geometry)` for
    /// the SRAM figure.
    Compile(Option<(usize, usize)>),
    /// A greedy exploration with measured energy.
    Dse,
    /// An admission rejection whose error contains the fragment.
    Rejected(&'static str),
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The JSON line sent (without the newline).
    pub line: String,
    /// The required response.
    pub expect: Expect,
    /// Seconds after the start of the load at which it is due.
    pub due_s: f64,
}

/// Ids of the priming requests start here.
const PRIME_ID: usize = 1_000_000;

/// The seeded request schedule.
#[derive(Clone, Debug)]
pub struct ServeInputs {
    /// Set-up's priming pass: one cold compile of every example key, in
    /// seeded order, with ids from [`PRIME_ID`].
    pub prime: Vec<Request>,
    /// Timed requests in due order; request `i` goes to connection
    /// `i % CONNECTIONS` with id `i`.
    pub requests: Vec<Request>,
    /// Compile keys (program, geometry) in popularity order.
    pub keys: usize,
    /// Requests of the invalid kind.
    pub invalid: u64,
}

/// Programs compile requests draw from: the example corpus, then
/// fixed-seed synthetic pipelines.
pub fn programs() -> Vec<Program> {
    let mut p = examples();
    for (i, stages) in [9usize, 18, 27, 36].into_iter().enumerate() {
        p.push(synthetic(
            &format!("synthetic{stages}"),
            stages,
            i as u64 + 1,
        ));
    }
    p
}

/// Geometries compile requests draw from.
pub fn geometries() -> Vec<ImageGeometry> {
    vec![
        geom(64, 48),
        geom(160, 120),
        geom(320, 240),
        geom(640, 480),
        geom(1920, 1080),
    ]
}

/// Geometry of the `dse` requests.
const DSE_GEOM: (u32, u32) = (32, 24);

fn compile_line(id: usize, p: &Program, g: &ImageGeometry, timing: bool) -> String {
    format!(
        "{{\"id\":{id},\"cmd\":\"compile\",\"name\":{},\"source\":{},\"width\":{},\"height\":{}{}}}",
        quote(&p.name),
        quote(&p.source),
        g.width,
        g.height,
        if timing { ",\"timing\":true" } else { "" }
    )
}

impl ServeInputs {
    /// Builds the schedule of `seed` for `seconds` of load; with
    /// `timing`, every other request asks for its phase breakdown.
    pub fn generate(seed: u64, seconds: f64, timing: bool) -> ServeInputs {
        let programs = programs();
        let geoms = geometries();
        let mut rng = Rng::new(seed, 3);
        // Popularity order of the keys is fixed, so every seed loads the
        // same hot set; the seed draws the request sequence.
        let mut keys: Vec<(usize, usize)> = (0..programs.len())
            .flat_map(|p| (0..geoms.len()).map(move |g| (p, g)))
            .collect();
        Rng::new(0, 3).shuffle(&mut keys);
        let weights: Vec<f64> = (1..=keys.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let n = (seconds * RATE_PER_S).ceil().max(1.0) as usize;
        let mut requests = Vec::with_capacity(n);
        let mut invalid = 0;
        let mut cold: Vec<(usize, usize)> = keys
            .iter()
            .copied()
            .filter(|&(p, _)| programs[p].example)
            .collect();
        rng.shuffle(&mut cold);
        let prime = cold
            .iter()
            .enumerate()
            .map(|(j, &(p, g))| Request {
                line: compile_line(PRIME_ID + j, &programs[p], &geoms[g], false),
                expect: Expect::Compile(Some((p, g))),
                due_s: 0.0,
            })
            .collect();
        let examples: Vec<&Program> = programs.iter().filter(|p| p.example).collect();
        // Invalid templates and dse pipelines are visited round-robin
        // from seeded offsets.
        let (mut next_invalid, mut next_dse) =
            (rng.below(INVALID.len()), rng.below(examples.len()));
        let mut block: Vec<u8> = Vec::new();
        for i in 0..n {
            let timed = timing && i % 2 == 0;
            let (line, expect) = {
                if block.is_empty() {
                    block = (0..BLOCK)
                        .map(|j| {
                            u8::from(j < INVALID_PER_BLOCK)
                                + 2 * u8::from(j < INVALID_PER_BLOCK + DSE_PER_BLOCK)
                        })
                        .collect();
                    rng.shuffle(&mut block);
                }
                let kind = block.pop().expect("refilled above");
                if kind == 3 {
                    invalid += 1;
                    let (src, frag, deny) = INVALID[next_invalid % INVALID.len()];
                    next_invalid += 1;
                    (
                        format!(
                            "{{\"id\":{i},\"cmd\":\"compile\",\"source\":{}{}{}}}",
                            quote(src),
                            if deny { ",\"deny_warnings\":true" } else { "" },
                            if timed { ",\"timing\":true" } else { "" }
                        ),
                        Expect::Rejected(frag),
                    )
                } else if kind == 2 {
                    let p = examples[next_dse % examples.len()];
                    next_dse += 1;
                    (
                        format!(
                            "{{\"id\":{i},\"cmd\":\"dse\",\"strategy\":\"greedy\",\"name\":{},\"source\":{},\"width\":{},\"height\":{}{}}}",
                            quote(&p.name),
                            quote(&p.source),
                            DSE_GEOM.0,
                            DSE_GEOM.1,
                            if timed { ",\"timing\":true" } else { "" }
                        ),
                        Expect::Dse,
                    )
                } else {
                    let mut x = rng.unit() * total;
                    let mut k = 0;
                    while k + 1 < keys.len() && x >= weights[k] {
                        x -= weights[k];
                        k += 1;
                    }
                    let (p, g) = keys[k];
                    let example = programs[p].example.then_some((p, g));
                    (
                        compile_line(i, &programs[p], &geoms[g], timed),
                        Expect::Compile(example),
                    )
                }
            };
            requests.push(Request {
                line,
                expect,
                due_s: i as f64 / RATE_PER_S,
            });
        }
        ServeInputs {
            prime,
            requests,
            keys: keys.len(),
            invalid,
        }
    }

    /// Canonical bytes of the schedule.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in self.prime.iter().chain(&self.requests) {
            out.extend_from_slice(format!("{:.9} {:?} ", r.due_s, r.expect).as_bytes());
            out.extend_from_slice(r.line.as_bytes());
            out.push(b'\n');
        }
        out
    }
}

/// A running server child and the client's connections to it.
pub struct Server {
    child: Child,
    conns: Vec<TcpStream>,
}

impl Server {
    /// Spawns `imagen serve --tcp` on an ephemeral port, connects, and
    /// waits until every connection answers a ping.
    pub fn start(imagen: &str) -> Result<Server, String> {
        let mut child = Command::new(imagen)
            .args(["serve", "--tcp", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {imagen}: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.strip_prefix("listening ")) {
            (Ok(_), Some(a)) => a.trim().to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        let mut server = Server {
            child,
            conns: Vec::new(),
        };
        for c in 0..CONNECTIONS {
            let mut s = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            writeln!(s, "{{\"id\":\"ping{c}\",\"cmd\":\"ping\"}}").map_err(|e| e.to_string())?;
            let mut r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
            let mut resp = String::new();
            r.read_line(&mut resp).map_err(|e| e.to_string())?;
            if !resp.contains("\"pong\":true") {
                return Err(format!("bad ping response {resp:?}"));
            }
            server.conns.push(s);
        }
        Ok(server)
    }

    /// Sends one request on connection 0 and returns the parsed answer.
    /// Only valid while no other request is outstanding.
    fn ask(&mut self, line: &str) -> Result<Json, String> {
        let s = &mut self.conns[0];
        s.set_nonblocking(false).map_err(|e| e.to_string())?;
        writeln!(s, "{line}").map_err(|e| e.to_string())?;
        let mut r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        let mut resp = String::new();
        r.read_line(&mut resp).map_err(|e| e.to_string())?;
        json::parse(resp.trim())
    }

    /// Closes the connections, reads the child's peak RSS, then stops
    /// it and waits for it to exit. Returns the peak RSS in MiB.
    pub fn shutdown(mut self) -> f64 {
        for c in &self.conns {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        self.conns.clear();
        let rss = peak_rss_mb(&self.child.id().to_string());
        let _ = self.child.kill();
        let _ = self.child.wait();
        rss
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one connection observed.
#[derive(Debug, Default)]
struct ConnLog {
    /// `(request index, ms from due to response, parsed response)`.
    done: Vec<(usize, f64, Result<Json, String>)>,
    /// Generator lag per send, ms.
    lag_ms: Vec<f64>,
    error: Option<String>,
}

/// Polling interval of a client thread while it waits for a response
/// or the next due time. Blocking-read timeouts round up to the kernel
/// tick (milliseconds), so the threads poll non-blocking sockets.
const POLL: Duration = Duration::from_micros(50);

/// Drives one connection: sends its requests at their due times and
/// reads responses in between, never waiting past the next due time.
fn drive(mut conn: TcpStream, reqs: Vec<(usize, &Request)>, start: Instant) -> ConnLog {
    let mut log = ConnLog::default();
    if let Err(e) = conn.set_nonblocking(true) {
        log.error = Some(format!("set_nonblocking: {e}"));
        return log;
    }
    let mut sent = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut raw: Vec<(usize, f64, Vec<u8>)> = Vec::with_capacity(reqs.len());
    let deadline_s = reqs.last().map_or(0.0, |r| r.1.due_s) + 60.0;
    'poll: while raw.len() < reqs.len() {
        if start.elapsed().as_secs_f64() > deadline_s {
            log.error = Some(format!("{} responses missing", reqs.len() - raw.len()));
            break;
        }
        while sent < reqs.len() && reqs[sent].1.due_s <= start.elapsed().as_secs_f64() {
            let r = reqs[sent].1;
            let mut line = r.line.clone().into_bytes();
            line.push(b'\n');
            let mut off = 0;
            while off < line.len() {
                match conn.write(&line[off..]) {
                    Ok(n) => off += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                    Err(e) => {
                        log.error = Some(format!("write: {e}"));
                        break 'poll;
                    }
                }
            }
            log.lag_ms
                .push((start.elapsed().as_secs_f64() - r.due_s) * 1e3);
            sent += 1;
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                log.error = Some("server closed the connection".into());
                break;
            }
            Ok(n) => {
                let at_s = start.elapsed().as_secs_f64();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let k = raw.len();
                    if k >= reqs.len() {
                        log.error = Some("more responses than requests".into());
                        break 'poll;
                    }
                    let (idx, r) = reqs[k];
                    raw.push((idx, (at_s - r.due_s) * 1e3, line));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => {
                log.error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    log.done = raw
        .into_iter()
        .map(|(idx, ms, line)| {
            let parsed = std::str::from_utf8(&line)
                .map_err(|e| e.to_string())
                .and_then(|s| json::parse(s.trim()));
            (idx, ms, parsed)
        })
        .collect();
    log
}

/// Checks one response against its expectation; returns the example
/// key's SRAM for compiles of example keys.
fn check(idx: usize, expect: &Expect, resp: &Json) -> Result<Option<f64>, String> {
    if resp.get("id").and_then(Json::num) != Some(idx as f64) {
        return Err("response out of order".into());
    }
    let ok = resp.get("ok") == Some(&Json::Bool(true));
    match expect {
        Expect::Compile(example) => {
            if !ok {
                return Err(format!("compile failed: {:?}", resp.get("error")));
            }
            if resp.get("certificate_status").and_then(Json::as_str) != Some("proved") {
                return Err("certificate not proved".into());
            }
            let sram = resp
                .get("sram_kb")
                .and_then(Json::num)
                .ok_or("no sram_kb")?;
            Ok(example.map(|_| sram))
        }
        Expect::Dse => {
            let energy = match resp.get("pareto") {
                Some(Json::Arr(points)) if !points.is_empty() => points
                    .iter()
                    .all(|p| p.get("energy_pj_per_frame").and_then(Json::num).is_some()),
                _ => false,
            };
            if ok && energy {
                Ok(None)
            } else {
                Err("dse response without a measured frontier".into())
            }
        }
        Expect::Rejected(fragment) => {
            let msg = resp.get("error").and_then(Json::as_str).unwrap_or("");
            if !ok && msg.contains(fragment) {
                Ok(None)
            } else {
                Err(format!("expected rejection `{fragment}`, got {msg:?}"))
            }
        }
    }
}

/// Everything one load pass observed.
pub struct LoadResult {
    /// Latency from due time, ms, per answered request.
    pub latency_ms: Vec<f64>,
    /// Latency of requests sent with `"timing":true`, ms.
    pub timed_latency_ms: Vec<f64>,
    /// Latency of the others, ms.
    pub untimed_latency_ms: Vec<f64>,
    /// Generator lag per send, ms.
    pub lag_ms: Vec<f64>,
    /// Requests answered correctly within [`LIMIT_MS`].
    pub within: u64,
    /// Requests sent.
    pub sent: u64,
    /// Summed `phase_us` members of timed responses.
    pub phase_us: BTreeMap<String, f64>,
    /// Wall time of the load, seconds.
    pub wall_s: f64,
    /// The server's `"cmd":"stats"` answer after the load.
    pub stats: Json,
}

/// Runs one load pass over `inputs` against `server`, gating every
/// response, and fetches the server's stats afterwards.
pub fn load(server: &mut Server, inputs: &ServeInputs, tally: &mut Tally) -> LoadResult {
    let start = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let conn = server.conns[c].try_clone().expect("clone connection");
                let reqs: Vec<(usize, &Request)> = inputs
                    .requests
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % CONNECTIONS == c)
                    .collect();
                scope.spawn(move || drive(conn, reqs, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut res = LoadResult {
        latency_ms: Vec::new(),
        timed_latency_ms: Vec::new(),
        untimed_latency_ms: Vec::new(),
        lag_ms: Vec::new(),
        within: 0,
        sent: inputs.requests.len() as u64,
        phase_us: BTreeMap::new(),
        wall_s,
        stats: Json::Null,
    };
    let mut answered = 0;
    for log in logs {
        if let Some(e) = log.error {
            tally.fail_op(format!("connection: {e}"));
        }
        res.lag_ms.extend(log.lag_ms);
        for (idx, ms, parsed) in log.done {
            answered += 1;
            let req = &inputs.requests[idx];
            let verdict = parsed.and_then(|resp| {
                if let Some(Json::Obj(phases)) = resp.get("phase_us") {
                    for (name, v) in phases {
                        *res.phase_us.entry(name.clone()).or_default() += v.num().unwrap_or(0.0);
                    }
                }
                check(idx, &req.expect, &resp)
            });
            res.latency_ms.push(ms);
            if req.line.contains("\"timing\":true") {
                res.timed_latency_ms.push(ms);
            } else {
                res.untimed_latency_ms.push(ms);
            }
            match verdict {
                Ok(_) => {
                    tally.attempted += 1;
                    res.within += u64::from(ms <= LIMIT_MS);
                }
                Err(e) => tally.fail_op(format!("request {idx}: {e}")),
            }
        }
    }
    for _ in answered..inputs.requests.len() {
        tally.fail_op("request unanswered".into());
    }
    match server.ask("{\"id\":\"stats\",\"cmd\":\"stats\"}") {
        Ok(stats) => {
            let rejected = stats.num_at("admission_rejected").unwrap_or(-1.0);
            tally.check(rejected == inputs.invalid as f64, || {
                format!(
                    "admission_rejected {rejected} != {} invalid requests sent",
                    inputs.invalid
                )
            });
            res.stats = stats;
        }
        Err(e) => tally.fail_op(format!("stats: {e}")),
    }
    res
}

/// SRAM (kB) of each example design, by (program, geometry) index.
pub type ExampleSram = BTreeMap<(usize, usize), f64>;

/// One set-up: start a server, then prime it with the cold compile of
/// every example key, gating each answer. Returns the server and the
/// SRAM of each example design.
fn start_primed(
    imagen: &str,
    inputs: &ServeInputs,
    tally: &mut Tally,
) -> Result<(Server, ExampleSram), String> {
    let mut server = Server::start(imagen)?;
    let mut sram = BTreeMap::new();
    for (j, req) in inputs.prime.iter().enumerate() {
        let r = server
            .ask(&req.line)
            .and_then(|resp| check(PRIME_ID + j, &req.expect, &resp));
        match (r, &req.expect) {
            (Ok(Some(kb)), Expect::Compile(Some(key))) => {
                tally.attempted += 1;
                sram.insert(*key, kb);
            }
            (r, _) => tally.fail_op(format!("priming request {j}: {r:?}")),
        }
    }
    Ok((server, sram))
}

/// Set-up, repeated `times` on fresh servers: start and prime. Returns
/// the last server, its example SRAM figures and the median set-up
/// time, seconds.
pub fn setup(
    imagen: &str,
    inputs: &ServeInputs,
    times: usize,
    tally: &mut Tally,
) -> Result<(Server, ExampleSram, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times {
        if let Some((s, _)) = last.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        last = Some(start_primed(imagen, inputs, tally)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let (server, sram) = last.expect("times >= 1");
    Ok((server, sram, stats::median(&secs)))
}

/// Runs the timed load of `inputs` against a primed server and returns
/// the end-to-end metrics (all but `setup_s`).
pub fn run(
    mut server: Server,
    inputs: &ServeInputs,
    sram: &ExampleSram,
    tally: &mut Tally,
) -> Metrics {
    let r = load(&mut server, inputs, tally);
    let rss = server.shutdown();
    let (label, tail) = stats::highest_supported(&r.latency_ms);
    eprintln!(
        "serve_mix {} requests at {RATE_PER_S}/s over {} keys; p50 {:.3} ms, {label} {tail:.3} ms; \
         generator lag p99 {:.3} ms; rollovers {}; cache hit rate {:.3}",
        r.sent,
        inputs.keys,
        stats::median(&r.latency_ms),
        stats::percentile(&r.lag_ms, 99.0),
        r.stats.num_at("generation_rollovers").unwrap_or(f64::NAN),
        r.stats.num_at("cache.hit_rate").unwrap_or(f64::NAN),
    );
    let mut m = Metrics::default();
    m.put("op_p50_ms", stats::median(&r.latency_ms), "ms");
    m.put("op_tail_ms", stats::percentile(&r.latency_ms, 99.0), "ms");
    m.put(
        "throughput_per_s",
        r.latency_ms.len() as f64 / r.wall_s,
        "1/s",
    );
    m.put(
        "design_sram_kb",
        stats::geomean(&sram.values().copied().collect::<Vec<_>>()),
        "kB",
    );
    m.put(
        "within_limit_share",
        r.within as f64 / r.sent.max(1) as f64,
        "share",
    );
    m.put("peak_rss_mb", rss, "MB");
    m
}

/// Phase names whose `phase_us` totals the traced run reports.
pub const PHASES: [&str; 10] = [
    "frontend.parse",
    "frontend.lower",
    "plan.skeleton",
    "plan.formulate",
    "ilp.solve",
    "plan.realize",
    "netlist.build",
    "emit",
    "program.build",
    "dse.explore",
];

/// The traced run: the same load with every other request asking for
/// its phase breakdown; layer figures come from the server's stats
/// endpoint and the responses' `phase_us`, client-side figures from the
/// benchmark's clock.
pub fn run_traced(imagen: &str, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let inputs = ServeInputs::generate(seed, seconds, true);
    let t = Instant::now();
    let (mut server, _) = match start_primed(imagen, &inputs, tally) {
        Ok(s) => s,
        Err(e) => {
            tally.fail_op(e);
            return m;
        }
    };
    m.put("serve.setup_s", t.elapsed().as_secs_f64(), "s");
    let r = load(&mut server, &inputs, tally);
    m.put("serve.server_rss_mb", server.shutdown(), "MB");
    m.put("serve.latency_p50_ms", stats::median(&r.latency_ms), "ms");
    m.put(
        "serve.latency_p99_ms",
        stats::percentile(&r.latency_ms, 99.0),
        "ms",
    );
    m.put(
        "serve.within_limit_share",
        r.within as f64 / r.sent.max(1) as f64,
        "share",
    );
    let s = &r.stats;
    let ms = |path: &str| s.num_at(path).unwrap_or(f64::NAN) / 1e3;
    m.put("serve.queue_wait_p50_ms", ms("queue_wait.p50_us"), "ms");
    m.put("serve.queue_wait_p99_ms", ms("queue_wait.p99_us"), "ms");
    m.put("serve.handle_p50_ms", ms("handle_time.p50_us"), "ms");
    m.put("serve.handle_p99_ms", ms("handle_time.p99_us"), "ms");
    m.put(
        "core.cache_hit_share",
        s.num_at("cache.hit_rate").unwrap_or(f64::NAN),
        "share",
    );
    m.put(
        "core.cache_lookups",
        s.num_at("cache.hits").unwrap_or(f64::NAN) + s.num_at("cache.misses").unwrap_or(f64::NAN),
        "count",
    );
    m.put(
        "serve.rollovers",
        s.num_at("generation_rollovers").unwrap_or(f64::NAN),
        "count",
    );
    m.put(
        "serve.admission_rejected",
        s.num_at("admission_rejected").unwrap_or(f64::NAN),
        "count",
    );
    for phase in PHASES {
        m.put(
            format!("serve.phase.{phase}_us"),
            r.phase_us.get(phase).copied().unwrap_or(0.0),
            "us",
        );
    }
    m.put(
        "client.generator_lag_p99_ms",
        stats::percentile(&r.lag_ms, 99.0),
        "ms",
    );
    m.put(
        "harness.trace_overhead.serve_mix",
        stats::median(&r.timed_latency_ms) / stats::median(&r.untimed_latency_ms) - 1.0,
        "share",
    );
    m
}
