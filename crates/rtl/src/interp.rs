//! The executable-netlist interpreter.
//!
//! [`interpret`] runs a [`Netlist`] clock edge by clock edge: the cycle
//! counter advances, per-stage enables fire at the ILP start cycles, the
//! window-load paths shift the SRA register arrays and read the rotating
//! line-buffer SRAMs, the stage compute modules evaluate their kernels at
//! the declared accumulator width, and the output registers truncate to
//! the pixel width — exactly the hardware the netlist describes.
//!
//! This closes the verification loop the repository previously lacked
//! (no synthesis or Verilog simulation tool exists in this environment):
//! the structure the Verilog is printed from is itself executed and
//! cross-checked bit-exactly against the golden executor
//! (`imagen_sim::execute`) and the cycle-level simulator
//! (`imagen_sim::simulate`). At [`BitWidths::wide`](crate::BitWidths::wide)
//! the datapath arithmetic coincides with the software model's `i64`
//! semantics, so equality is exact on full-range inputs; at the default
//! 16/32-bit widths the interpreter reproduces the real truncating
//! hardware, which matches the software model whenever values stay in
//! range (the differential suite checks both regimes).
//!
//! Timing note: values are sampled *after* each clock edge, so output
//! pixel `k` of a stage with start cycle `s` is observed after edge
//! `s + k` — the cycle-level simulator's convention.

use crate::activity::ActivityTrace;
use crate::netlist::{BufferGate, ModuleKind, Netlist};
use imagen_ir::Expr;
use imagen_sim::Image;
use std::fmt;

/// Interpretation failure (structural, before any cycles run).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InterpError {
    /// The number of provided input images does not match the netlist's
    /// input streams.
    InputCount {
        /// Streams expected.
        expected: usize,
        /// Images provided.
        provided: usize,
    },
    /// An input image does not match the netlist geometry.
    GeometryMismatch,
    /// A stage is read through a window but owns no line buffer in the
    /// netlist, so the load path has nothing to read from.
    MissingBuffer {
        /// The buffer-less producer stage.
        stage: usize,
    },
    /// The netlist cannot be streamed a frame at a time: a consumer's
    /// window load comes before its producer wrote the row (write lead
    /// below one cycle) or after the rotating buffer reused the row's
    /// slot, or a stage's rate scale does not divide the frame. The
    /// planner emits none of these, and `imagen certify` refutes the
    /// first two as `E0504`/`E0505`.
    NotStreamable {
        /// The consumer whose load misses its slot, or the stage whose
        /// rate scale does not divide the frame.
        stage: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::InputCount { expected, provided } => write!(
                f,
                "netlist has {expected} input stream(s) but {provided} image(s) were provided"
            ),
            InterpError::GeometryMismatch => {
                write!(
                    f,
                    "input image dimensions do not match the netlist geometry"
                )
            }
            InterpError::MissingBuffer { stage } => {
                write!(f, "stage {stage} is windowed but owns no line buffer")
            }
            InterpError::NotStreamable { stage } => write!(
                f,
                "stage {stage} cannot be streamed: a window load misses its line-buffer slot \
                 or its rate scale does not divide the frame"
            ),
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of interpreting a netlist over one frame.
#[derive(Clone, Debug)]
pub struct InterpReport {
    /// Clock edges executed.
    pub cycles: u64,
    /// Cycle after the last output pixel (end-to-end frame latency).
    pub latency: u64,
    /// The frames streamed out, one per output stage: `(stage index,
    /// image)`.
    pub output_images: Vec<(usize, Image)>,
    /// SRAM words read through the window-load paths.
    pub sram_reads: u64,
    /// SRAM words written through the line-buffer write ports.
    pub sram_writes: u64,
    /// Read-port cycles suppressed by the netlist's clock-gating plan,
    /// summed over all line buffers (0 for ungated netlists). This is
    /// *measured* by the interpreter cycle by cycle, not derived from
    /// the plan, so the energy saving the gating pass claims is backed
    /// by execution.
    pub gated_off_cycles: u64,
}

/// Sign-truncates `v` to `bits` bits (identity for `bits >= 64`).
///
/// Public because the symbolic certifier (`imagen-analysis`) proves its
/// obligations against *this* function and [`eval_acc`] — the pinned
/// semantics of the generated datapath.
pub fn trunc(v: i64, bits: u32) -> i64 {
    if bits >= 64 {
        v
    } else {
        let sh = 64 - bits;
        (v << sh) >> sh
    }
}

/// Evaluates a kernel at accumulator width `acc`: every operation result
/// is truncated to `acc` bits, mirroring the fixed-width datapath of the
/// generated hardware. At `acc = 64` this coincides exactly with
/// [`Expr::eval`]'s wrapping-`i64` semantics.
pub fn eval_acc(e: &Expr, acc: u32, fetch: &mut impl FnMut(usize, i32, i32) -> i64) -> i64 {
    use imagen_ir::BinOp;
    let v = match e {
        Expr::Const(c) => *c,
        Expr::Tap { slot, dx, dy } => fetch(*slot, *dx, *dy),
        Expr::Neg(a) => eval_acc(a, acc, fetch).wrapping_neg(),
        Expr::Abs(a) => eval_acc(a, acc, fetch).wrapping_abs(),
        Expr::Bin(op, a, b) => {
            let a = eval_acc(a, acc, fetch);
            let b = eval_acc(b, acc, fetch);
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b)
                    }
                }
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                // Verilog `<<<`/`>>>` semantics, identical to
                // `imagen_ir::Expr::eval`: out-of-range amounts shift
                // everything out (pinned by tests/shift_semantics.rs).
                BinOp::Shl => {
                    if (0..64).contains(&b) {
                        a.wrapping_shl(b as u32)
                    } else {
                        0
                    }
                }
                BinOp::Shr => {
                    let amt = if (0..64).contains(&b) { b as u32 } else { 63 };
                    a.wrapping_shr(amt)
                }
            }
        }
        Expr::Cmp(op, a, b) => {
            let a = eval_acc(a, acc, fetch);
            let b = eval_acc(b, acc, fetch);
            i64::from(op.apply(a, b))
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            if eval_acc(cond, acc, fetch) != 0 {
                eval_acc(then, acc, fetch)
            } else {
                eval_acc(otherwise, acc, fetch)
            }
        }
        Expr::Clamp { value, lo, hi } => {
            let v = eval_acc(value, acc, fetch);
            let lo = eval_acc(lo, acc, fetch);
            let hi = eval_acc(hi, acc, fetch);
            if lo > hi {
                lo
            } else {
                v.clamp(lo, hi)
            }
        }
    };
    trunc(v, acc)
}

/// Rotating line-buffer storage for one producer stage.
struct BufState {
    rows: u32,
    data: Vec<i64>,
}

/// One shift-register array (window registers of one edge).
struct SraState {
    height: u32,
    width: u32,
    lag: u32,
    data: Vec<i64>,
}

/// Executes `net` on `inputs` (one image per input stream, in stream
/// order), returning the streamed output frames and netlist-level memory
/// access totals.
///
/// Since the program compiler landed this routes through
/// [`EvalProgram`](crate::EvalProgram): the netlist is lowered once into
/// a flat evaluation program, which then streams the frame. Results are
/// bit-identical to the reference graph-walking path
/// ([`interpret_legacy`]), pinned by the program differential suite. To
/// amortize compilation over many frames of the same netlist, hold an
/// [`EvalProgram`](crate::EvalProgram) directly.
///
/// # Errors
///
/// [`InterpError`] for structural problems, [`InterpError::NotStreamable`]
/// included; the interpretation itself cannot fail (the netlist is a
/// closed system once inputs are bound).
pub fn interpret(net: &Netlist, inputs: &[Image]) -> Result<InterpReport, InterpError> {
    crate::program::EvalProgram::compile(net)?.run(inputs)
}

/// Like [`interpret`], but additionally collects an [`ActivityTrace`]:
/// per-SRAM-bank access counts (merged like the cycle simulator's),
/// read-port enable duty, register-array shift/toggle totals and stage
/// enable duty. The returned [`InterpReport`] is identical to the
/// untraced one — tracing observes the execution, it never changes it
/// (pinned by test). Routes through the compiled program, like
/// [`interpret`].
///
/// # Errors
///
/// See [`interpret`].
pub fn interpret_with_trace(
    net: &Netlist,
    inputs: &[Image],
) -> Result<(InterpReport, ActivityTrace), InterpError> {
    crate::program::EvalProgram::compile(net)?.run_with_trace(inputs)
}

/// The reference graph-walking interpreter — executes the netlist by
/// re-traversing its structure every cycle, with no compiled program in
/// between.
///
/// A test reference with no library caller: the semantic baseline the
/// program path is differentially pinned against
/// (`crates/rtl/tests/program_differential.rs`,
/// `tests/multirate_differential.rs`, `tests/activity_golden.rs`), and
/// the one oracle for full activity traces of generated programs that
/// does not share the program's code. Use [`interpret`] everywhere else
/// — it is an order of magnitude faster and bit-identical. Unlike
/// [`interpret`], the walker also runs schedules that violate the
/// streaming margins, cycle by cycle.
///
/// # Errors
///
/// [`InterpError`] on input count or geometry mismatch or a missing
/// line buffer.
pub fn interpret_legacy(net: &Netlist, inputs: &[Image]) -> Result<InterpReport, InterpError> {
    run(net, inputs, None)
}

/// The reference traced interpreter — [`interpret_with_trace`]'s
/// graph-walking baseline and, like [`interpret_legacy`], a test
/// reference with no library caller.
///
/// # Errors
///
/// See [`interpret_legacy`].
pub fn interpret_with_trace_legacy(
    net: &Netlist,
    inputs: &[Image],
) -> Result<(InterpReport, ActivityTrace), InterpError> {
    let mut trace = ActivityTrace::for_netlist(net);
    let report = run(net, inputs, Some(&mut trace))?;
    Ok((report, trace))
}

/// Per-cycle activity scratch, one slot per netlist buffer.
///
/// Historically `cycle_reads` was deduplicated with a linear scan per
/// read and the per-block counters were an associative list scanned per
/// bump — O(accesses²) per cycle. Reads are now collected unchecked and
/// merged with one sort+dedup at end of cycle (the unique set is
/// order-independent, so the result is identical), and the counters are
/// dense per-block arrays with a touched list for O(1) bump and reset.
struct TraceScratch {
    /// Same-address merge candidates for the current cycle:
    /// `(block, row, x)` — the cycle simulator's merge key, deduplicated
    /// at end of cycle.
    cycle_reads: Vec<Vec<(usize, i64, i64)>>,
    /// Dense per-block access counters for the current cycle.
    cycle_counts: Vec<Vec<u32>>,
    /// Blocks touched this cycle (reset list for `cycle_counts`).
    touched: Vec<Vec<usize>>,
    /// Whether any consumer loaded from the buffer this cycle.
    consumed: Vec<bool>,
    /// Previous output-register value per stage (toggle counting).
    prev_out: Vec<i64>,
}

fn bump(counts: &mut [u32], touched: &mut Vec<usize>, block: usize) {
    if counts[block] == 0 {
        touched.push(block);
    }
    counts[block] += 1;
}

/// Toggled bits between two register values at `bits` width.
fn toggles(old: i64, new: i64, bits: u32) -> u64 {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (((old ^ new) as u64) & mask).count_ones() as u64
}

fn run(
    net: &Netlist,
    inputs: &[Image],
    mut trace: Option<&mut ActivityTrace>,
) -> Result<InterpReport, InterpError> {
    let geom = net.geometry;
    let (w, h) = (geom.width as i64, geom.height as i64);
    let frame = net.frame as i64;
    let pixel = net.widths.pixel_bits;
    let acc = net.widths.acc_bits;

    let streams = net.input_streams();
    if streams.len() != inputs.len() {
        return Err(InterpError::InputCount {
            expected: streams.len(),
            provided: inputs.len(),
        });
    }
    if inputs
        .iter()
        .any(|i| i.width() != geom.width || i.height() != geom.height)
    {
        return Err(InterpError::GeometryMismatch);
    }

    // Per-stage cumulative rate scales (1,1 for rate-1 stages).
    let scales: Vec<(i64, i64)> = net
        .stages
        .iter()
        .map(|s| (s.scale_x as i64, s.scale_y as i64))
        .collect();

    // Per-stage rotating buffers (from the netlist's line-buffer roster).
    // A multirate producer's buffer holds its own grid: w / scale_x words
    // per row.
    let mut buffers: Vec<Option<BufState>> = (0..net.stages.len()).map(|_| None).collect();
    for buf in &net.buffers {
        let (sx, _) = scales[buf.stage];
        buffers[buf.stage] = Some(BufState {
            rows: buf.storage_rows,
            data: vec![0; buf.storage_rows as usize * (w / sx) as usize],
        });
    }
    // Every windowed producer must own a buffer for the load path to read.
    for e in &net.edges {
        if buffers[e.producer].is_none() {
            return Err(InterpError::MissingBuffer { stage: e.producer });
        }
    }

    // Netlist-buffer index per stage and per-buffer gating condition.
    let mut buf_of_stage: Vec<Option<usize>> = vec![None; net.stages.len()];
    for (i, b) in net.buffers.iter().enumerate() {
        buf_of_stage[b.stage] = Some(i);
    }
    let gates: Vec<Option<BufferGate>> = (0..net.buffers.len())
        .map(|i| {
            net.gating
                .as_ref()
                .and_then(|g| g.gate_for(i))
                .copied()
                // FIFO chains are dataflow-clocked; the gating pass never
                // targets them.
                .filter(|_| !net.buffers[i].fifo)
        })
        .collect();

    let mut scratch = trace.as_ref().map(|_| TraceScratch {
        cycle_reads: vec![Vec::new(); net.buffers.len()],
        cycle_counts: net
            .buffers
            .iter()
            .map(|b| vec![0u32; b.phys_blocks])
            .collect(),
        touched: vec![Vec::new(); net.buffers.len()],
        consumed: vec![false; net.buffers.len()],
        prev_out: vec![0; net.stages.len()],
    });

    // Shift-register arrays, one per edge — exactly the register arrays
    // the netlist declares (`sra_cells` sizes both).
    let mut sras: Vec<SraState> = net
        .edges
        .iter()
        .map(|e| {
            let width = crate::netlist::sra_columns(&e.window);
            SraState {
                height: e.window.height,
                width,
                lag: e.window.lag,
                data: vec![0; (e.window.height * width) as usize],
            }
        })
        .collect();

    // Input-stream binding and kernel lookup per stage.
    let mut input_of: Vec<Option<usize>> = vec![None; net.stages.len()];
    for (k, stage, _) in &streams {
        input_of[*stage] = Some(*k);
    }
    let kernels: Vec<Option<&Expr>> = net
        .stages
        .iter()
        .map(|s| {
            s.module.map(|m| match &net.modules[m].kind {
                ModuleKind::Stage(p) => &p.kernel,
                other => unreachable!("stage module of wrong kind: {other:?}"),
            })
        })
        .collect();
    // Per-stage slot -> edge index lookup for kernel taps.
    let slot_edge: Vec<Vec<usize>> = net
        .stages
        .iter()
        .map(|s| {
            let mut v: Vec<usize> = Vec::new();
            for (i, e) in net.edges.iter().enumerate() {
                if e.consumer == s.index {
                    if v.len() <= e.slot {
                        v.resize(e.slot + 1, usize::MAX);
                    }
                    v[e.slot] = i;
                }
            }
            v
        })
        .collect();

    let starts: Vec<i64> = net.stages.iter().map(|s| s.start_cycle as i64).collect();
    let end = starts.iter().map(|s| s + frame).max().unwrap_or(frame);

    let mut outputs: Vec<(usize, Image)> = net
        .stages
        .iter()
        .filter(|s| s.is_output)
        .map(|s| {
            let (sx, sy) = scales[s.index];
            (s.index, Image::new((w / sx) as u32, (h / sy) as u32))
        })
        .collect();
    let mut computed: Vec<i64> = vec![0; net.stages.len()];
    let mut sram_reads = 0u64;
    let mut sram_writes = 0u64;
    let mut gated_off_cycles = 0u64;

    for t in 0..end {
        // ---- Read phase: window-load paths fill the SRAs, stage
        // modules evaluate. SRAMs are read-first: reads see the data
        // written on previous edges.
        for s in &net.stages {
            let start = starts[s.index];
            if t < start || t >= start + frame {
                continue;
            }
            let k = t - start;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            let (ccx, ccy) = scales[s.index];

            for (eidx, e) in net.edges.iter().enumerate() {
                if e.consumer != s.index {
                    continue;
                }
                let (pcx, pcy) = scales[e.producer];
                // Edge-active cadence: once per consumer-active row, at
                // every producer-grid column.
                if y % ccy != 0 || x % pcx != 0 {
                    continue;
                }
                let pw = w / pcx;
                let ph = h / pcy;
                let xp = x / pcx;
                let r0 = y / pcy;
                let bufidx = buf_of_stage[e.producer].expect("checked above");
                let gated_off = gates[bufidx].is_some_and(|g| !g.enabled_at(t as u64));
                let sra = &mut sras[eidx];
                // Shift left one column.
                let tracing = scratch.is_some();
                let mut sra_toggles = 0u64;
                for r in 0..sra.height as usize {
                    let base = r * sra.width as usize;
                    for c in 0..sra.width as usize - 1 {
                        if tracing {
                            sra_toggles +=
                                toggles(sra.data[base + c], sra.data[base + c + 1], pixel);
                        }
                        sra.data[base + c] = sra.data[base + c + 1];
                    }
                }
                let pb = buffers[e.producer].as_ref().expect("checked above");
                let nb = &net.buffers[bufidx];
                for j in 0..sra.height {
                    // Clamp-to-edge on the bottom rows: rows past the
                    // frame hold their last written value.
                    let row = (r0 + sra.lag as i64 + j as i64).min(ph - 1);
                    let cell = (j * sra.width + sra.width - 1) as usize;
                    let v = if gated_off {
                        // A gated-off read port supplies no data: a plan
                        // that gates a live consumer corrupts the output
                        // and fails the differential suite — semantics
                        // preservation is checked, not assumed.
                        0
                    } else {
                        let slot = (row.rem_euclid(pb.rows as i64) * pw + xp) as usize;
                        sram_reads += 1;
                        pb.data[slot]
                    };
                    if let Some(ts) = scratch.as_mut() {
                        sra_toggles += toggles(sra.data[cell], v, pixel);
                        if !gated_off {
                            ts.consumed[bufidx] = true;
                            if !nb.fifo {
                                if let Some(block) =
                                    nb.block_of(row as u64, xp as u32, geom.pixel_bits)
                                {
                                    // Reads merge on identical (block,
                                    // row, column) within one cycle —
                                    // the cycle simulator's convention.
                                    // Candidates are collected here and
                                    // deduplicated once at end of cycle.
                                    ts.cycle_reads[bufidx].push((block, row, xp));
                                }
                            }
                        }
                    }
                    sra.data[cell] = v;
                }
                if let Some(tr) = trace.as_deref_mut() {
                    let sa = &mut tr.sras[eidx];
                    sa.shift_cycles += 1;
                    sa.cell_writes += (sra.height * sra.width) as u64;
                    sa.bit_toggles += sra_toggles;
                }
            }

            // Compute fires on the stage's own cadence only.
            if y % ccy != 0 || x % ccx != 0 {
                continue;
            }
            computed[s.index] = match input_of[s.index] {
                Some(idx) => trunc(inputs[idx].get(x as u32, y as u32), pixel),
                None => {
                    let kernel = kernels[s.index].expect("compute stage has a kernel");
                    let slots = &slot_edge[s.index];
                    let edges = &net.edges;
                    let wide = eval_acc(kernel, acc, &mut |slot, dx, dy| {
                        let eidx = slots[slot];
                        let sra = &sras[eidx];
                        let (pcx, _) = scales[edges[eidx].producer];
                        // Newest SRA column holds producer column x/pcx.
                        let newest = x / pcx;
                        let j = (dy as u32).saturating_sub(sra.lag);
                        let col = (newest + dx as i64).max(0);
                        let c = (sra.width as i64 - 1 - (newest - col)).max(0) as u32;
                        sra.data[(j * sra.width + c) as usize]
                    });
                    // The stage output register truncates the wide result
                    // to the pixel datapath.
                    trunc(wide, pixel)
                }
            };
            if let (Some(tr), Some(ts)) = (trace.as_deref_mut(), scratch.as_mut()) {
                let sa = &mut tr.stages[s.index];
                sa.active_cycles += 1;
                if s.module.is_some() {
                    // Compute stages own a clocked output register.
                    sa.out_reg_writes += 1;
                    sa.out_reg_toggles += toggles(ts.prev_out[s.index], computed[s.index], pixel);
                    ts.prev_out[s.index] = computed[s.index];
                }
            }
        }

        // ---- Write phase: line-buffer write ports and output streams
        // commit at the clock edge.
        for s in &net.stages {
            let start = starts[s.index];
            if t < start || t >= start + frame {
                continue;
            }
            let k = t - start;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            let (cx, cy) = scales[s.index];
            // A stage only produces on its own cadence.
            if y % cy != 0 || x % cx != 0 {
                continue;
            }
            let (yc, xc) = (y / cy, x / cx);
            let value = computed[s.index];

            if let Some(sb) = buffers[s.index].as_mut() {
                let slot = (yc.rem_euclid(sb.rows as i64) * (w / cx) + xc) as usize;
                sb.data[slot] = value;
                sram_writes += 1;
                if let (Some(tr), Some(ts)) = (trace.as_deref_mut(), scratch.as_mut()) {
                    let bufidx = buf_of_stage[s.index].expect("writer owns a buffer");
                    let nb = &net.buffers[bufidx];
                    if !nb.fifo {
                        if let Some(block) = nb.block_of(yc as u64, xc as u32, geom.pixel_bits) {
                            tr.buffers[bufidx].block_writes[block] += 1;
                            bump(&mut ts.cycle_counts[bufidx], &mut ts.touched[bufidx], block);
                        }
                    }
                }
            }

            if s.is_output {
                if let Some((_, img)) = outputs.iter_mut().find(|(i, _)| *i == s.index) {
                    img.set(xc as u32, yc as u32, value);
                }
            }
        }

        // ---- End of cycle: gated-off counting, per-block peaks, read
        // port enable duty.
        if net.gating.is_some() {
            for (i, g) in gates.iter().enumerate() {
                if let Some(g) = g {
                    if !g.enabled_at(t as u64) {
                        gated_off_cycles += 1;
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.buffers[i].gated_off_cycles += 1;
                        }
                    }
                }
            }
        }
        if let (Some(tr), Some(ts)) = (trace.as_deref_mut(), scratch.as_mut()) {
            for (i, gate) in gates.iter().enumerate() {
                if !ts.cycle_reads[i].is_empty() {
                    ts.cycle_reads[i].sort_unstable();
                    ts.cycle_reads[i].dedup();
                    for k in 0..ts.cycle_reads[i].len() {
                        let (block, _, _) = ts.cycle_reads[i][k];
                        tr.buffers[i].block_reads[block] += 1;
                        bump(&mut ts.cycle_counts[i], &mut ts.touched[i], block);
                    }
                    ts.cycle_reads[i].clear();
                }
                for k in 0..ts.touched[i].len() {
                    let block = ts.touched[i][k];
                    let count = ts.cycle_counts[i][block];
                    if count > tr.buffers[i].block_peaks[block] {
                        tr.buffers[i].block_peaks[block] = count;
                    }
                    ts.cycle_counts[i][block] = 0;
                }
                ts.touched[i].clear();
                let nb = &net.buffers[i];
                if nb.phys_blocks > 0 && !nb.fifo {
                    let enabled = gate.is_none_or(|g| g.enabled_at(t as u64));
                    if enabled {
                        tr.buffers[i].read_enabled_cycles += 1;
                        if !ts.consumed[i] {
                            tr.buffers[i].idle_read_cycles += 1;
                        }
                    }
                }
                ts.consumed[i] = false;
            }
        }
    }

    if let Some(tr) = trace {
        tr.run_cycles = end as u64;
        tr.frame = net.frame;
        // FIFO chains: one push and one pop per segment per live cycle —
        // the cycle simulator's synthetic SODA accounting (Sec. 3.1), so
        // the two counting paths stay comparable on FIFO designs too.
        // Multirate producers push one stage-grid frame, not a base frame.
        for (i, b) in tr.buffers.iter_mut().enumerate() {
            if b.fifo {
                let s = net.buffers[i].stage;
                let live = net.frame / (net.stages[s].scale_x * net.stages[s].scale_y);
                for r in b.block_reads.iter_mut() {
                    *r = live;
                }
                for wr in b.block_writes.iter_mut() {
                    *wr = live;
                }
                for p in b.block_peaks.iter_mut() {
                    *p = 2;
                }
            }
        }
    }

    Ok(InterpReport {
        cycles: end as u64,
        // The cycle after the last output pixel is the netlist's own
        // done-cycle (the `frame_done` comparator), derived once by the
        // builder.
        latency: net.done_cycle,
        output_images: outputs,
        sram_reads,
        sram_writes,
        gated_off_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{build_netlist, BitWidths};
    use imagen_ir::Dag;
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};
    use imagen_sim::{execute, simulate};

    fn blur_plan() -> (Dag, imagen_mem::Design, ImageGeometry) {
        let mut dag = Dag::new("ip");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::sum((0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1))),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 20,
            height: 14,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (p.dag, p.design, geom)
    }

    #[test]
    fn interpreter_matches_golden_and_cycle_sim() {
        let (dag, design, geom) = blur_plan();
        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 7 + y * 13) % 97) as i64
        });
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let report = interpret(&net, std::slice::from_ref(&input)).unwrap();

        let golden = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let sim = simulate(&dag, &design, std::slice::from_ref(&input)).unwrap();
        assert!(sim.is_clean());
        for (stage, img) in &report.output_images {
            let gold = golden.stage(imagen_ir::StageId::from_index(*stage));
            assert_eq!(img, gold, "netlist vs golden");
            let (_, simg) = sim
                .output_images
                .iter()
                .find(|(i, _)| i == stage)
                .expect("sim produced the stream");
            assert_eq!(img, simg, "netlist vs cycle model");
        }
        assert_eq!(report.latency, sim.latency as u64);
        assert!(report.sram_reads > 0 && report.sram_writes > 0);
    }

    #[test]
    fn default_widths_truncate_like_hardware() {
        // A kernel that overflows 16 bits: the netlist at default widths
        // wraps on the output register (real hardware); at wide widths it
        // matches the untruncated software model.
        let mut dag = Dag::new("ovf");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::bin(
                    imagen_ir::BinOp::Mul,
                    Expr::tap(0, 0, 0),
                    Expr::tap(0, 0, 0),
                ),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 8,
            height: 6,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 256 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let input = Image::from_fn(geom.width, geom.height, |_, _| 300);
        let golden = execute(&p.dag, std::slice::from_ref(&input)).unwrap();
        let gold_v = golden.stage(imagen_ir::StageId::from_index(1)).get(4, 3);
        assert_eq!(gold_v, 90_000, "software model does not truncate");

        let narrow = build_netlist(&p.dag, &p.design, &BitWidths::default());
        let r = interpret(&narrow, std::slice::from_ref(&input)).unwrap();
        assert_eq!(
            r.output_images[0].1.get(4, 3),
            super::trunc(90_000, 16),
            "16-bit register wraps"
        );

        let wide = build_netlist(&p.dag, &p.design, &BitWidths::wide());
        let r = interpret(&wide, std::slice::from_ref(&input)).unwrap();
        assert_eq!(r.output_images[0].1.get(4, 3), 90_000);
    }

    #[test]
    fn negative_only_horizontal_taps_execute_correctly() {
        // A kernel tapping only dx = -1 keeps dx_max = -1 after
        // normalization (the shift clamps at zero), so the window spans
        // one column but the executed SRA must still reach the current
        // raster column to supply the previous pixel. The netlist
        // declares that storage (`sra_cells`), the interpreter executes
        // it, and verification sees consistent shapes.
        let mut dag = Dag::new("negdx");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], Expr::tap(0, -1, 0)).unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 10,
            height: 6,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 512 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let e = p.dag.edges().next().unwrap().1;
        assert_eq!(e.window().dx_max, -1, "normalization keeps dx_max < 0");

        let net = build_netlist(&p.dag, &p.design, &BitWidths::default());
        crate::verify_all(&net).into_result().unwrap();
        let sra = net
            .top_module()
            .net("sra_K1_0")
            .expect("window register array declared");
        assert_eq!(sra.array, Some(2), "two columns: tap dx=-1 plus dx=0");

        let input = Image::from_fn(geom.width, geom.height, |x, y| (x * 10 + y) as i64);
        let run = interpret(&net, std::slice::from_ref(&input)).unwrap();
        let golden = execute(&p.dag, std::slice::from_ref(&input)).unwrap();
        assert_eq!(
            &run.output_images[0].1,
            golden.stage(imagen_ir::StageId::from_index(1)),
            "previous-column semantics, clamped at the left edge"
        );
    }

    #[test]
    fn input_validation() {
        let (dag, design, geom) = blur_plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        assert!(matches!(
            interpret(&net, &[]),
            Err(InterpError::InputCount { .. })
        ));
        let wrong = Image::new(3, 3);
        assert!(matches!(
            interpret(&net, &[wrong]),
            Err(InterpError::GeometryMismatch)
        ));
        let _ = geom;
    }

    #[test]
    fn tracing_changes_nothing() {
        // The activity sink observes; it must not perturb: same pixels,
        // same latency, same legacy access totals with and without it.
        let (dag, design, geom) = blur_plan();
        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 11 + y * 5) % 89) as i64
        });
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let plain = interpret(&net, std::slice::from_ref(&input)).unwrap();
        let (traced, trace) = interpret_with_trace(&net, std::slice::from_ref(&input)).unwrap();

        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.latency, traced.latency);
        assert_eq!(plain.sram_reads, traced.sram_reads);
        assert_eq!(plain.sram_writes, traced.sram_writes);
        assert_eq!(plain.gated_off_cycles, 0);
        assert_eq!(traced.gated_off_cycles, 0);
        assert_eq!(plain.output_images.len(), traced.output_images.len());
        for ((a, ia), (b, ib)) in plain.output_images.iter().zip(&traced.output_images) {
            assert_eq!(a, b);
            assert_eq!(ia, ib);
        }

        // Trace shape and sanity: the input stage's buffer is written
        // once per pixel, the consumer is active one frame, and the
        // always-on read port idles before the consumer starts.
        assert_eq!(trace.run_cycles, plain.cycles);
        assert_eq!(trace.frame, net.frame);
        assert_eq!(trace.buffers[0].writes(), net.frame);
        assert!(trace.buffers[0].reads() > 0);
        assert_eq!(trace.stages[1].active_cycles, net.frame);
        assert_eq!(trace.stages[1].out_reg_writes, net.frame);
        assert!(trace.sras[0].shift_cycles == net.frame);
        assert!(trace.sras[0].bit_toggles > 0);
        assert_eq!(trace.buffers[0].read_enabled_cycles, plain.cycles);
        assert!(
            trace.buffers[0].idle_read_cycles > 0,
            "the ungated read port idles before the consumer window"
        );
        assert_eq!(trace.gated_off_cycles(), 0);
    }

    #[test]
    fn trunc_behaves() {
        assert_eq!(trunc(90_000, 16), 90_000 - 65_536);
        assert_eq!(trunc(-5, 16), -5);
        assert_eq!(trunc(i64::MAX, 64), i64::MAX);
        assert_eq!(trunc(32_767, 16), 32_767);
        assert_eq!(trunc(32_768, 16), -32_768);
    }
}
