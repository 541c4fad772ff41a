//! One-time netlist → flat evaluation program compiler.
//!
//! The reference interpreter ([`crate::interpret_legacy`]) re-walks the
//! netlist graph every cycle: it scans every stage against every edge,
//! recomputes `x`/`y` with `div_euclid`/`rem_euclid` per access, and
//! evaluates kernels by recursing over the [`Expr`] tree behind a fetch
//! closure. [`EvalProgram::compile`] pays all of that once, lowering a
//! [`Netlist`] into a flat program the executor streams through:
//!
//! * **register-tape bytecode** — each kernel tree is linearized into a
//!   [`TapeOp`] sequence evaluated into a dense register file, with
//!   common subexpressions hash-consed away and tap operands resolved to
//!   `(window row, column offset)` pairs at compile time;
//! * **stage-at-a-time streaming** — the compiler proves from the ILP
//!   schedule that every window load happens at least one cycle after
//!   the producer wrote the word and before the rotating buffer reuses
//!   its slot (the streaming margins). Under that proof the lockstep
//!   cycle loop is unnecessary: stages execute one *whole frame* at a
//!   time in start-cycle order, each tap reading the producer's dense
//!   output image directly — `image[min(y+lag+j, h-1)][max(x+dx, 0)]`
//!   is exactly the value the shift-register array would have delivered,
//!   with clock-gated read ports zeroing the affected load columns. The
//!   kernel tape then runs op-by-op over column tiles, so each bytecode
//!   instruction becomes a tight (auto-vectorizable) loop instead of a
//!   per-pixel dispatch;
//! * **closed-form + single-pass activity** — every trace quantity is
//!   either precomputed at compile time (enable duty, gated-off cycles,
//!   shift/write totals, SRAM access totals) or recovered from the dense
//!   images in one linear pass: output-register toggles walk the output
//!   stream, shift-register toggles use the delay-line identity (each
//!   consecutive-load toggle re-appears once per column as it shifts
//!   through, so the per-cycle sum telescopes into a windowed sum over
//!   the load stream), and per-block SRAM read/write/peak counters come
//!   from an event sweep over spans where every participant's row,
//!   bank segment and gate state are constant;
//! * **data pass / structure pass** — the traced run splits along what
//!   its quantities depend on. The *data pass* ([`DataTrace::record`])
//!   depends only on the datapath (kernels, windows, widths, rate
//!   scales, geometry) and the stimulus: the dense stage images, the
//!   output-register toggle total of every stage, and the chained toggle
//!   sums of every load stream, keyed by *(producer stage, row offset
//!   `lag + j`, consumer row cadence)*, with the last loads' toggles kept
//!   for the retirement-tail term of the delay-line identity. The
//!   *structure pass* ([`DataTrace::structure_traces`]) depends only on
//!   the schedule and the memory organisation, and is lowered from a
//!   point's [`Roster`] ([`crate::build_roster`]: stages, edges and line
//!   buffers, no modules), so a swept point elaborates no netlist: start
//!   cycles and bank layout feed the block sweep and the closed forms,
//!   and the SRA toggles are reassembled from the cached sums at each
//!   edge's window height and SRA width. It evaluates no tape, allocates
//!   no image and runs no per-pixel or per-cycle loop, so a design-space
//!   sweep pays for the data pass once and for the structure pass per
//!   point. One structure pass serves both gating variants of a point:
//!   under the guard no load is gated off, so the block sweep is the
//!   same gated or not, and the gated trace differs from the ungated one
//!   only in each buffer's read-port duty (enabled, idle and gated-off
//!   cycles), recomputed in closed form for its gate window. A point
//!   takes the structure pass only under a guard proved for that point:
//!   its datapath equals the recorded one and every gate window covers
//!   all of each edge's load cycles (so no load is zeroed and the gated
//!   pixels equal the ungated ones). Any other point returns `None` and
//!   goes through the full traced run; a point whose schedule cannot be
//!   streamed is an [`InterpError::NotStreamable`] on either route;
//! * **per-stage grids** — pipelines with `downsample`/`upsample` stages
//!   keep the frame-at-a-time streaming order but run each stage over its
//!   *own* grid (`W/cx × H/cy`), stepping taps through the producer's
//!   grid with the cumulative-scale stride (`row = min(⌊y_b/pcy⌋ + lag +
//!   j, ph-1)`, `col = max(⌊x_b/pcx⌋ + dx, 0)`), which is exactly the
//!   value the rate-scheduled SRA holds at the stage's compute-enable
//!   cycles. The streaming-margin proof generalizes with rows re-measured
//!   in producer row periods. A stage on its producers' grid (every stage
//!   of a rate-1 pipeline, and e.g. a pyramid's half-rate blur) runs
//!   through the tile evaluator; a resampling stage evaluates scalarly,
//!   with each tap's window row resolved to its edge and producer grid
//!   once per output row. The activity passes are the rate-1 ones on
//!   these grids, with every count on its cadence: a stage is active on
//!   base cycles `y % cy == 0 && x % cx == 0`, an edge loads on `y % ccy
//!   == 0 && x % pcx == 0` (its load stream is `⌈H/ccy⌉ · pw` words
//!   long), and within a block-sweep span each participant acts on one
//!   residue class of the buffer's column cadence. Traced and untraced
//!   multirate runs, and the data and structure passes of a pyramid
//!   sweep, never touch the reference interpreter;
//! * **typed refusal** — a netlist whose schedule violates the
//!   streaming margins, or whose rate scales do not divide the frame
//!   (neither is produced by the planner, but both are representable),
//!   does not compile: [`EvalProgram::compile`] returns
//!   [`InterpError::NotStreamable`], and so do [`crate::interpret`],
//!   [`crate::interpret_with_trace`] and [`DataTrace::record`]. The two
//!   margin violations are what `imagen certify` refutes as
//!   `E0504`/`E0505`.
//!
//! The program is *semantics-preserving by construction and pinned by
//! test*: [`crate::interpret`] routes through it, and the differential
//! suite (`crates/rtl/tests/program_differential.rs`) checks report,
//! images and the full [`ActivityTrace`] field-for-field against the
//! legacy path on the whole algorithm corpus, a pyramid and generated
//! pipelines (half of them multirate) at both width regimes, gated and
//! ungated; `tests/activity_golden.rs` pins both against the walker's
//! frozen traces of the example corpus. Both halves of the structure
//! pass are pinned the same way against [`crate::interpret_with_trace`],
//! ungated and gated, on every point of every example sweep, pyramids
//! included (`crates/dse/tests/measure_once.rs`), and the roster it
//! reads against the netlist's schedule and buffers
//! (`tests/roster_equivalence.rs`).
//!
//! [`DataTrace::record`]: crate::DataTrace::record
//! [`DataTrace::structure_traces`]: crate::DataTrace::structure_traces

use crate::activity::ActivityTrace;
use crate::interp::{trunc, InterpError, InterpReport};
use crate::netlist::{
    sra_columns, BitWidths, GatingPlan, NetBuffer, NetEdge, NetStage, Netlist, Roster,
};
use imagen_ir::{BinOp, CmpOp, Expr};
use imagen_mem::ImageGeometry;
use imagen_sim::Image;
use std::collections::HashMap;

mod data_trace;
pub use data_trace::DataTrace;

/// Column-tile width of the vectorized tape evaluator: one bytecode
/// dispatch covers this many raster columns, and the per-op inner loops
/// stay resident in L1 (`max_regs × TILE × 8` bytes).
const TILE: usize = 64;

/// One bytecode instruction of a linearized kernel. Instruction `i`
/// writes register `i`; operands name earlier registers. Every result is
/// truncated to the accumulator width, mirroring [`crate::eval_acc`]'s
/// truncate-after-every-node datapath semantics exactly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum TapeOp {
    /// Integer literal.
    Const(i64),
    /// Stencil tap: window row `vrow` (stage-local virtual-row index) at
    /// column `x + dx`, clamped to the left edge.
    Load {
        /// Stage-local virtual-row index (edge window rows, flattened).
        vrow: u32,
        /// Horizontal tap offset (`<= 0` after window normalization).
        dx: i32,
    },
    /// Wrapping negation.
    Neg(u32),
    /// Wrapping absolute value.
    Abs(u32),
    /// Binary arithmetic with the interpreter's pinned semantics
    /// (div-by-zero → 0, Verilog shift behaviour).
    Bin(BinOp, u32, u32),
    /// Three-way wrapping sum — fusion of two single-use `Add` nodes
    /// (wrapping addition is associative, and the fused-away
    /// intermediate was not demanded exact, so the value is unchanged).
    Add3(u32, u32, u32),
    /// Four-way wrapping sum (see [`TapeOp::Add3`]).
    Add4(u32, u32, u32, u32),
    /// Comparison producing 0 or 1.
    Cmp(CmpOp, u32, u32),
    /// `if c != 0 { t } else { o }` — both arms are evaluated eagerly,
    /// which is value-identical because every operation is pure and
    /// total.
    Select(u32, u32, u32),
    /// `clamp(v, lo, hi)` with the `lo > hi → lo` convention.
    Clamp(u32, u32, u32),
}

impl TapeOp {
    /// Calls `f` with each operand register.
    fn for_each_operand(&self, f: &mut impl FnMut(u32)) {
        match *self {
            TapeOp::Const(_) | TapeOp::Load { .. } => {}
            TapeOp::Neg(a) | TapeOp::Abs(a) => f(a),
            TapeOp::Bin(_, a, b) | TapeOp::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            TapeOp::Add3(a, b, c) | TapeOp::Select(a, b, c) | TapeOp::Clamp(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            TapeOp::Add4(a, b, c, d) => {
                f(a);
                f(b);
                f(c);
                f(d);
            }
        }
    }

    /// Rewrites each operand register through `remap`.
    fn remap_operands(&mut self, remap: &[u32]) {
        match self {
            TapeOp::Const(_) | TapeOp::Load { .. } => {}
            TapeOp::Neg(a) | TapeOp::Abs(a) => *a = remap[*a as usize],
            TapeOp::Bin(_, a, b) | TapeOp::Cmp(_, a, b) => {
                *a = remap[*a as usize];
                *b = remap[*b as usize];
            }
            TapeOp::Add3(a, b, c) | TapeOp::Select(a, b, c) | TapeOp::Clamp(a, b, c) => {
                *a = remap[*a as usize];
                *b = remap[*b as usize];
                *c = remap[*c as usize];
            }
            TapeOp::Add4(a, b, c, d) => {
                *a = remap[*a as usize];
                *b = remap[*b as usize];
                *c = remap[*c as usize];
                *d = remap[*d as usize];
            }
        }
    }
}

/// A linearized kernel: evaluate `ops` in order, read `root`.
#[derive(Clone, Debug, Default)]
struct Tape {
    ops: Vec<TapeOp>,
    root: u32,
    /// Per-register "demanded exactness": whether this register must
    /// hold the accumulator-truncated value. Wrapping `Add`/`Sub`/`Mul`,
    /// `Neg` and the shifted operand of `Shl` are ring homomorphisms
    /// modulo `2^acc`, so a register consumed only in such positions can
    /// skip its truncation — the final truncated root is unchanged.
    /// Sign/magnitude-sensitive positions (`Abs`, `Div`, `Min`/`Max`,
    /// `Shr`, shift amounts, comparisons, `Clamp`, select conditions)
    /// demand the exact value, and a `Select` passes its own demand
    /// through to both value arms.
    exact: Vec<bool>,
}

/// Tape construction with hash-consing: structurally identical
/// instructions (same op, same operand registers) share one register.
#[derive(Default)]
struct TapeBuilder {
    ops: Vec<TapeOp>,
    memo: HashMap<TapeOp, u32>,
}

impl TapeBuilder {
    fn push(&mut self, op: TapeOp) -> u32 {
        if let Some(&r) = self.memo.get(&op) {
            return r;
        }
        let r = self.ops.len() as u32;
        self.ops.push(op);
        self.memo.insert(op, r);
        r
    }

    /// Lowers `e`, mapping taps through `tap`.
    fn lower(&mut self, e: &Expr, tap: &impl Fn(usize, i32, i32) -> TapeOp) -> u32 {
        let op = match e {
            Expr::Const(c) => TapeOp::Const(*c),
            Expr::Tap { slot, dx, dy } => tap(*slot, *dx, *dy),
            Expr::Neg(a) => TapeOp::Neg(self.lower(a, tap)),
            Expr::Abs(a) => TapeOp::Abs(self.lower(a, tap)),
            Expr::Bin(op, a, b) => {
                let a = self.lower(a, tap);
                let b = self.lower(b, tap);
                TapeOp::Bin(*op, a, b)
            }
            Expr::Cmp(op, a, b) => {
                let a = self.lower(a, tap);
                let b = self.lower(b, tap);
                TapeOp::Cmp(*op, a, b)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let c = self.lower(cond, tap);
                let t = self.lower(then, tap);
                let o = self.lower(otherwise, tap);
                TapeOp::Select(c, t, o)
            }
            Expr::Clamp { value, lo, hi } => {
                let v = self.lower(value, tap);
                let lo = self.lower(lo, tap);
                let hi = self.lower(hi, tap);
                TapeOp::Clamp(v, lo, hi)
            }
        };
        self.push(op)
    }

    fn finish(self, root: u32) -> Tape {
        let (ops, root) = fuse_adds(self.ops, root);
        let mut exact = vec![false; ops.len()];
        if let Some(e) = exact.get_mut(root as usize) {
            *e = true;
        }
        // Reverse pass: operands always precede their op, so one sweep
        // settles the Select pass-through inheritance too.
        for i in (0..ops.len()).rev() {
            let need = exact[i];
            let mut demand = |r: u32| exact[r as usize] = true;
            match ops[i] {
                TapeOp::Const(_)
                | TapeOp::Load { .. }
                | TapeOp::Neg(_)
                | TapeOp::Add3(..)
                | TapeOp::Add4(..) => {}
                TapeOp::Abs(a) => demand(a),
                TapeOp::Bin(op, a, b) => match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {}
                    BinOp::Shl => demand(b),
                    BinOp::Div | BinOp::Min | BinOp::Max | BinOp::Shr => {
                        demand(a);
                        demand(b);
                    }
                },
                TapeOp::Cmp(_, a, b) => {
                    demand(a);
                    demand(b);
                }
                TapeOp::Select(c, t, o) => {
                    demand(c);
                    if need {
                        demand(t);
                        demand(o);
                    }
                }
                TapeOp::Clamp(v, lo, hi) => {
                    demand(v);
                    demand(lo);
                    demand(hi);
                }
            }
        }
        Tape { ops, root, exact }
    }
}

/// Rewrites chains of single-use `Add` nodes into [`TapeOp::Add3`] /
/// [`TapeOp::Add4`] reductions. A node is absorbed into its consumer
/// when it is an `Add` referenced exactly once, by another `Add`:
/// wrapping addition is associative, the intermediate cannot have been
/// demanded exact (its only consumer is truncation-insensitive and it
/// is not the root), so flattening preserves the value while removing
/// the intermediate's register-file round trip.
fn fuse_adds(ops: Vec<TapeOp>, root: u32) -> (Vec<TapeOp>, u32) {
    let n = ops.len();
    let is_add = |i: u32| matches!(ops[i as usize], TapeOp::Bin(BinOp::Add, _, _));
    let mut uses = vec![0u32; n];
    let mut add_uses = vec![0u32; n];
    for op in ops.iter() {
        let adder = matches!(op, TapeOp::Bin(BinOp::Add, _, _));
        op.for_each_operand(&mut |r| {
            uses[r as usize] += 1;
            if adder {
                add_uses[r as usize] += 1;
            }
        });
    }
    uses[root as usize] += 1;
    let absorbed: Vec<bool> = (0..n as u32)
        .map(|i| is_add(i) && uses[i as usize] == 1 && add_uses[i as usize] == 1)
        .collect();

    let mut out: Vec<TapeOp> = Vec::with_capacity(n);
    let mut remap = vec![u32::MAX; n];
    for i in 0..n {
        if absorbed[i] {
            continue;
        }
        if let TapeOp::Bin(BinOp::Add, a, b) = ops[i] {
            // Flatten the absorbed subtree into a term list (left to
            // right), then reduce it with the widest ops available,
            // accumulating left-to-right for determinism.
            let mut terms: Vec<u32> = Vec::new();
            let mut stack = vec![b, a];
            while let Some(t) = stack.pop() {
                if absorbed[t as usize] {
                    if let TapeOp::Bin(BinOp::Add, x, y) = ops[t as usize] {
                        stack.push(y);
                        stack.push(x);
                    }
                } else {
                    terms.push(remap[t as usize]);
                }
            }
            let mut cur = terms[0];
            let mut k = 1;
            while k < terms.len() {
                let op = match terms.len() - k {
                    rem if rem >= 3 => TapeOp::Add4(cur, terms[k], terms[k + 1], terms[k + 2]),
                    2 => TapeOp::Add3(cur, terms[k], terms[k + 1]),
                    _ => TapeOp::Bin(BinOp::Add, cur, terms[k]),
                };
                k += match op {
                    TapeOp::Add4(..) => 3,
                    TapeOp::Add3(..) => 2,
                    _ => 1,
                };
                out.push(op);
                cur = (out.len() - 1) as u32;
            }
            remap[i] = cur;
        } else {
            let mut op = ops[i];
            op.remap_operands(&remap);
            out.push(op);
            remap[i] = (out.len() - 1) as u32;
        }
    }
    let root = remap[root as usize];
    (out, root)
}

/// Evaluates a tape over exactly [`TILE`] consecutive columns starting
/// at `x0` (rows are padded to a multiple of [`TILE`], so every tile is
/// full). Each op becomes one tight loop with a compile-time trip
/// count, which the optimizer turns into branch- and remainder-free
/// SIMD; `sh` is the truncation shift (`64 - acc`, zero at full width)
/// applied after every demanded-exact node.
fn eval_tile(tape: &Tape, regs: &mut [i64], vrows: &[&[i64]], sh: u32, x0: usize) {
    for (i, op) in tape.ops.iter().enumerate() {
        let (done, rest) = regs.split_at_mut(i * TILE);
        let done = &*done;
        let dst = &mut rest[..TILE];
        // Truncation shift for this register: demanded-exact registers
        // truncate to the accumulator width, the rest stay un-truncated
        // (sound per the [`Tape::exact`] analysis).
        let sh = if tape.exact[i] { sh } else { 0 };
        match *op {
            TapeOp::Const(c) => dst.fill((c << sh) >> sh),
            TapeOp::Load { vrow, dx } => {
                let row = vrows[vrow as usize];
                let off = x0 as i64 + dx as i64;
                // Taps satisfy `dx <= 0` (window normalization), so only
                // the left edge clamps: the first `k` lanes read column
                // 0, the rest shift-copy (`x + dx` stays in range on the
                // right).
                let k = (-off).clamp(0, TILE as i64) as usize;
                let src = &row[(off + k as i64).max(0) as usize..][..TILE - k];
                if sh == 0 {
                    dst[..k].fill(row[0]);
                    dst[k..].copy_from_slice(src);
                } else {
                    dst[..k].fill((row[0] << sh) >> sh);
                    for (d, &s) in dst[k..].iter_mut().zip(src) {
                        *d = (s << sh) >> sh;
                    }
                }
            }
            TapeOp::Neg(a) => {
                let ra = &done[a as usize * TILE..][..TILE];
                for (d, &a) in dst.iter_mut().zip(ra) {
                    *d = (a.wrapping_neg() << sh) >> sh;
                }
            }
            TapeOp::Abs(a) => {
                let ra = &done[a as usize * TILE..][..TILE];
                for (d, &a) in dst.iter_mut().zip(ra) {
                    *d = (a.wrapping_abs() << sh) >> sh;
                }
            }
            TapeOp::Bin(op, a, b) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                macro_rules! lanes {
                    ($f:expr) => {
                        if sh == 0 {
                            for l in 0..TILE {
                                dst[l] = $f(ra[l], rb[l]);
                            }
                        } else {
                            for l in 0..TILE {
                                let v: i64 = $f(ra[l], rb[l]);
                                dst[l] = (v << sh) >> sh;
                            }
                        }
                    };
                }
                match op {
                    BinOp::Add => lanes!(i64::wrapping_add),
                    BinOp::Sub => lanes!(i64::wrapping_sub),
                    BinOp::Mul => lanes!(i64::wrapping_mul),
                    BinOp::Min => lanes!(|a: i64, b: i64| a.min(b)),
                    BinOp::Max => lanes!(|a: i64, b: i64| a.max(b)),
                    // Branchless forms of the pinned Verilog shift
                    // semantics so the lanes stay vectorizable:
                    // out-of-range left shifts zero via the 0/1 factor,
                    // out-of-range right shifts saturate the amount at 63
                    // (negative amounts wrap to huge u64s and hit the min).
                    BinOp::Shl => {
                        lanes!(
                            |a: i64, b: i64| a.wrapping_shl(b as u32) * i64::from((b as u64) < 64)
                        )
                    }
                    BinOp::Shr => {
                        lanes!(|a: i64, b: i64| a.wrapping_shr((b as u64).min(63) as u32))
                    }
                    BinOp::Div => {
                        lanes!(|a: i64, b: i64| if b == 0 { 0 } else { a.wrapping_div(b) })
                    }
                }
            }
            TapeOp::Add3(a, b, c) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                let rc = &done[c as usize * TILE..][..TILE];
                if sh == 0 {
                    for l in 0..TILE {
                        dst[l] = ra[l].wrapping_add(rb[l]).wrapping_add(rc[l]);
                    }
                } else {
                    for l in 0..TILE {
                        let v = ra[l].wrapping_add(rb[l]).wrapping_add(rc[l]);
                        dst[l] = (v << sh) >> sh;
                    }
                }
            }
            TapeOp::Add4(a, b, c, d) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                let rc = &done[c as usize * TILE..][..TILE];
                let rd = &done[d as usize * TILE..][..TILE];
                if sh == 0 {
                    for l in 0..TILE {
                        dst[l] = ra[l]
                            .wrapping_add(rb[l])
                            .wrapping_add(rc[l].wrapping_add(rd[l]));
                    }
                } else {
                    for l in 0..TILE {
                        let v = ra[l]
                            .wrapping_add(rb[l])
                            .wrapping_add(rc[l].wrapping_add(rd[l]));
                        dst[l] = (v << sh) >> sh;
                    }
                }
            }
            TapeOp::Cmp(op, a, b) => {
                let ra = &done[a as usize * TILE..][..TILE];
                let rb = &done[b as usize * TILE..][..TILE];
                // 0/1 survives any truncation width; one monomorphic loop
                // per operator keeps the compare+zext vectorizable.
                macro_rules! cmp_lanes {
                    ($f:expr) => {
                        for l in 0..TILE {
                            dst[l] = i64::from($f(&ra[l], &rb[l]));
                        }
                    };
                }
                match op {
                    CmpOp::Lt => cmp_lanes!(i64::lt),
                    CmpOp::Le => cmp_lanes!(i64::le),
                    CmpOp::Gt => cmp_lanes!(i64::gt),
                    CmpOp::Ge => cmp_lanes!(i64::ge),
                    CmpOp::Eq => cmp_lanes!(i64::eq),
                    CmpOp::Ne => cmp_lanes!(i64::ne),
                }
            }
            TapeOp::Select(c, t, o) => {
                let rc = &done[c as usize * TILE..][..TILE];
                let rt = &done[t as usize * TILE..][..TILE];
                let ro = &done[o as usize * TILE..][..TILE];
                for l in 0..TILE {
                    // Operands are already truncated; select passes one
                    // through unchanged.
                    dst[l] = if rc[l] != 0 { rt[l] } else { ro[l] };
                }
            }
            TapeOp::Clamp(v, lo, hi) => {
                let rv = &done[v as usize * TILE..][..TILE];
                let rl = &done[lo as usize * TILE..][..TILE];
                let rh = &done[hi as usize * TILE..][..TILE];
                for l in 0..TILE {
                    let (v, lo, hi) = (rv[l], rl[l], rh[l]);
                    dst[l] = if lo > hi { lo } else { v.clamp(lo, hi) };
                }
            }
        }
    }
}

/// Evaluates a tape for one pixel, fetching taps through `fetch(vrow,
/// dx)`. Mirrors [`eval_tile`]'s per-op truncation placement exactly
/// (demanded-exact registers truncate; `Cmp`/`Select`/`Clamp` pass
/// already-truncated values through). Resampling stages use this path:
/// their taps step through the producer grid at a non-unit stride, which
/// the lane-shifted tile loader cannot express.
fn eval_scalar(
    tape: &Tape,
    regs: &mut [i64],
    sh: u32,
    fetch: &mut impl FnMut(u32, i32) -> i64,
) -> i64 {
    for (i, op) in tape.ops.iter().enumerate() {
        let sh = if tape.exact[i] { sh } else { 0 };
        let v = match *op {
            TapeOp::Const(c) => (c << sh) >> sh,
            TapeOp::Load { vrow, dx } => (fetch(vrow, dx) << sh) >> sh,
            TapeOp::Neg(a) => (regs[a as usize].wrapping_neg() << sh) >> sh,
            TapeOp::Abs(a) => (regs[a as usize].wrapping_abs() << sh) >> sh,
            TapeOp::Bin(op, a, b) => {
                let (a, b) = (regs[a as usize], regs[b as usize]);
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                    BinOp::Shl => a.wrapping_shl(b as u32) * i64::from((b as u64) < 64),
                    BinOp::Shr => a.wrapping_shr((b as u64).min(63) as u32),
                    BinOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                };
                (v << sh) >> sh
            }
            TapeOp::Add3(a, b, c) => {
                let v = regs[a as usize]
                    .wrapping_add(regs[b as usize])
                    .wrapping_add(regs[c as usize]);
                (v << sh) >> sh
            }
            TapeOp::Add4(a, b, c, d) => {
                let v = regs[a as usize]
                    .wrapping_add(regs[b as usize])
                    .wrapping_add(regs[c as usize].wrapping_add(regs[d as usize]));
                (v << sh) >> sh
            }
            TapeOp::Cmp(op, a, b) => {
                let (a, b) = (regs[a as usize], regs[b as usize]);
                i64::from(match op {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                })
            }
            TapeOp::Select(c, t, o) => {
                if regs[c as usize] != 0 {
                    regs[t as usize]
                } else {
                    regs[o as usize]
                }
            }
            TapeOp::Clamp(v, lo, hi) => {
                let (v, lo, hi) = (regs[v as usize], regs[lo as usize], regs[hi as usize]);
                if lo > hi {
                    lo
                } else {
                    v.clamp(lo, hi)
                }
            }
        };
        regs[i] = v;
    }
    regs[tape.root as usize]
}

/// Compiled window-load path of one consumer edge.
#[derive(Clone, Debug)]
struct EdgeProg {
    /// Netlist edge index (trace attribution).
    edge: usize,
    /// Producer's netlist buffer index (gating, trace attribution).
    buf: usize,
    /// Producer's netlist stage index (dense-image source).
    prod_stage: usize,
    /// SRA rows.
    height: usize,
    /// SRA columns.
    width: usize,
    /// Window row lag.
    lag: u32,
    /// First stage-local virtual-row index of this edge's window rows.
    vrow_base: usize,
    /// Read-enable window `[start, end)` of the producer buffer's clock
    /// gate, `None` when ungated.
    gate: Option<(u64, u64)>,
    /// Producer's cumulative rate scale `(pcx, pcy)`: the edge loads at
    /// base columns `x % pcx == 0`, producer column `x / pcx`.
    pscale: (u64, u64),
    /// Producer grid width `pw = W / pcx`: the columns each load row
    /// spans.
    pw: usize,
    /// Consumer's vertical scale `ccy`: the edge loads on base rows
    /// `y % ccy == 0`.
    ccy: u64,
}

/// One window row of a stage, resolved at build time for the strided
/// (resampling) path: tap `vrow` reads producer row `min(⌊y_b/pcy⌋ + k,
/// ph-1)` through edge program `edge`.
#[derive(Clone, Copy, Debug)]
struct RowTap {
    /// Index into [`EvalProgram::edges`].
    edge: usize,
    /// Producer row offset `lag + j`.
    k: u64,
    /// Producer grid height and image row stride.
    ph: u64,
    stride: usize,
    /// Producer cumulative scale.
    pcx: u64,
    pcy: u64,
}

/// A [`RowTap`] resolved for one output row: producer stage, offset of
/// the producer row in its image, enabled column range `[lo, hi)`, and
/// `pcx`.
type ResolvedRow = (usize, usize, usize, usize, usize);

/// Compiled form of one pipeline stage.
#[derive(Clone, Debug)]
struct StageProg {
    /// Netlist stage index.
    stage: usize,
    /// ILP start cycle.
    start: u64,
    /// Input-stream index for source stages.
    input: Option<usize>,
    /// Whether the stage owns a compute module (output register).
    has_module: bool,
    /// This stage's consumer edges: a contiguous range of
    /// [`EvalProgram::edges`].
    edges: std::ops::Range<usize>,
    /// Linearized kernel.
    tape: Tape,
    /// Virtual rows consumed by the tape (sum of edge window heights).
    n_vrows: usize,
    /// Whether every producer shares this stage's grid (always at rate
    /// 1): the stage then runs through the tile evaluator.
    tiled: bool,
    /// Virtual row → edge and producer grid, for the strided path (empty
    /// for structure-only programs).
    row_taps: Vec<RowTap>,
}

/// Per-buffer metadata plus the closed-form activity quantities
/// precomputed at compile time.
#[derive(Clone, Debug)]
struct BufMeta {
    nb: NetBuffer,
    /// The buffer's read-port duty under its gate window
    /// ([`BufMeta::duty`]).
    duty: ReadDuty,
    /// The cycles its consumer edges load on, as sorted [`loaded_cycles`]
    /// runs: the only input of the duty besides the gate window.
    loads: Vec<(u64, u64, u64)>,
    /// The buffer's column cadence (its producer's horizontal scale), the
    /// step of the `loads` runs.
    pcx: u64,
    /// Base-raster columns at which the bank segment of the buffer's own
    /// grid column changes (only populated when `blocks_per_row > 1`),
    /// used as span cuts by the block sweep.
    seg_cuts: Vec<u64>,
}

/// The read-port duty of one line buffer over a run: cycles the port is
/// enabled, enabled cycles on which no consumer edge loads, and cycles
/// its gate holds it off.
#[derive(Clone, Copy, Default, Debug)]
struct ReadDuty {
    read_enabled_cycles: u64,
    idle_read_cycles: u64,
    gated_off_cycles: u64,
}

impl BufMeta {
    /// The closed-form read-port duty over a run ending at `end`, with
    /// the read port gated to `gate` (enabled throughout when `None`).
    /// The enabled cycles are the gate window; a cycle is *idle* when the
    /// port is enabled but no consumer edge loads — exactly the legacy
    /// `consumed` bookkeeping, folded into interval arithmetic. Only
    /// buffers with allocated, non-FIFO blocks count enabled and idle
    /// cycles.
    fn duty(&self, gate: Option<(u64, u64)>, end: u64) -> ReadDuty {
        let nb = &self.nb;
        let track = nb.phys_blocks > 0 && !nb.fifo;
        let (en_lo, en_hi) = match gate {
            Some((gs, ge)) => (gs.min(end), ge.min(end)),
            None => (0, end),
        };
        let read_enabled_cycles = en_hi - en_lo;
        ReadDuty {
            read_enabled_cycles: if track { read_enabled_cycles } else { 0 },
            idle_read_cycles: if track {
                read_enabled_cycles - loaded_cycles(en_lo, en_hi, &self.loads, self.pcx)
            } else {
                0
            },
            gated_off_cycles: gate.map_or(0, |_| end - en_hi.saturating_sub(en_lo)),
        }
    }
}

/// The schedule/memory roster a program is lowered from, borrowed from a
/// [`Netlist`] or from a [`Roster`] (the same fields either way).
#[derive(Clone, Copy)]
pub(crate) struct RosterRef<'a> {
    geometry: ImageGeometry,
    widths: BitWidths,
    stages: &'a [NetStage],
    edges: &'a [NetEdge],
    buffers: &'a [NetBuffer],
    frame: u64,
    done_cycle: u64,
}

impl<'a> From<&'a Netlist> for RosterRef<'a> {
    fn from(net: &'a Netlist) -> RosterRef<'a> {
        RosterRef {
            geometry: net.geometry,
            widths: net.widths,
            stages: &net.stages,
            edges: &net.edges,
            buffers: &net.buffers,
            frame: net.frame,
            done_cycle: net.done_cycle,
        }
    }
}

impl<'a> From<&'a Roster> for RosterRef<'a> {
    fn from(r: &'a Roster) -> RosterRef<'a> {
        RosterRef {
            geometry: r.geometry,
            widths: r.widths,
            stages: &r.stages,
            edges: &r.edges,
            buffers: &r.buffers,
            frame: r.frame,
            done_cycle: r.done_cycle,
        }
    }
}

/// Per-buffer read-enable windows of `gating` (FIFO chains are
/// dataflow-clocked; the gating pass never targets them — same filter as
/// the legacy path).
pub(crate) fn gate_windows(
    buffers: &[NetBuffer],
    gating: Option<&GatingPlan>,
) -> Vec<Option<(u64, u64)>> {
    (0..buffers.len())
        .map(|i| {
            gating
                .and_then(|g| g.gate_for(i))
                .filter(|_| !buffers[i].fifo)
                .map(|g| (g.read_start, g.read_end))
        })
        .collect()
}

/// A [`Netlist`] lowered to a flat evaluation program.
///
/// Compile once with [`EvalProgram::compile`], then execute frames with
/// [`EvalProgram::run`] / [`EvalProgram::run_with_trace`] — both produce
/// bit-identical results to the reference interpreter
/// ([`crate::interpret_legacy`]), at a fraction of the cost. The
/// public entry points [`crate::interpret`] and
/// [`crate::interpret_with_trace`] compile-and-run internally; hold an
/// `EvalProgram` directly to amortize compilation over repeated frames
/// (the DSE measurement loop does).
#[derive(Clone, Debug)]
pub struct EvalProgram {
    w: i64,
    h: i64,
    width_px: u32,
    height_px: u32,
    frame: u64,
    end: u64,
    done_cycle: u64,
    pixel: u32,
    acc: u32,
    geom_pixel_bits: u32,
    n_inputs: usize,
    /// Stages sorted by start cycle (ties by netlist index).
    stages: Vec<StageProg>,
    /// Consumer edges grouped per stage, in sorted-stage order.
    edges: Vec<EdgeProg>,
    /// Netlist-buffer metadata, in netlist buffer order.
    buffers: Vec<BufMeta>,
    /// Start cycle per netlist stage index (block-sweep writer lookup).
    start_of: Vec<u64>,
    n_net_stages: usize,
    n_net_edges: usize,
    /// Output stages in netlist order (slot -> netlist stage index).
    outputs: Vec<usize>,
    max_regs: usize,
    /// Closed-form totals (identical to what the legacy interpreter
    /// counts cycle by cycle).
    sram_reads: u64,
    sram_writes: u64,
    gated_off_cycles: u64,
    /// Cumulative rate scale per netlist stage (`(1, 1)` for rate-1).
    scale_of: Vec<(u64, u64)>,
}

/// Cycles of `[lo, hi)` in which at least one of `runs` loads, used for
/// the closed-form idle-read accounting. A run `(phase, start, end)`
/// loads on the cycles `t ≡ phase (mod step)` of `[start, end)`; runs
/// (sorted) of one phase are merged into a union, and phases are
/// disjoint. With `step == 1` this is the plain clipped union length.
fn loaded_cycles(lo: u64, hi: u64, runs: &[(u64, u64, u64)], step: u64) -> u64 {
    let mut covered = 0u64;
    let mut class = None;
    let mut cursor = lo;
    for &(phase, s, e) in runs.iter() {
        if class != Some(phase) {
            class = Some(phase);
            cursor = lo;
        }
        // Cycles `t ≡ phase` in `[0, n)`.
        let below = |n: u64| {
            if step == 1 {
                n
            } else {
                n.saturating_sub(phase).div_ceil(step)
            }
        };
        let s = s.max(cursor).min(hi);
        let e = e.min(hi);
        if e > s {
            covered += below(e) - below(s);
            cursor = e;
        }
    }
    covered
}

impl EvalProgram {
    /// Lowers `net` into a flat evaluation program.
    ///
    /// # Errors
    ///
    /// [`InterpError::MissingBuffer`] when a windowed producer owns no
    /// line buffer (the same structural check the reference interpreter
    /// performs up front); [`InterpError::NotStreamable`] when the
    /// schedule violates the streaming margins or a rate scale does not
    /// divide the frame.
    pub fn compile(net: &Netlist) -> Result<EvalProgram, InterpError> {
        let _s = imagen_obs::span("program.build");
        EvalProgram::lower(net.into(), net.gating.as_ref(), Some(net))
    }

    /// Lowers the roster `net` under the clock-gating plan `gating` (a
    /// netlist's own `gating` is not consulted). `executable` is the
    /// netlist of that roster when the program will run: its kernels are
    /// linearized. With `None` only the structure is lowered — schedule,
    /// edges, buffer metadata and closed forms — for the structure pass,
    /// so such a program must never be executed.
    pub(crate) fn lower(
        net: RosterRef<'_>,
        gating: Option<&GatingPlan>,
        executable: Option<&Netlist>,
    ) -> Result<EvalProgram, InterpError> {
        let tapes = executable.is_some();
        let geom = net.geometry;
        let (w, h) = (geom.width as i64, geom.height as i64);
        let frame = net.frame;

        let mut bufidx_of_stage: Vec<Option<usize>> = vec![None; net.stages.len()];
        for (i, b) in net.buffers.iter().enumerate() {
            bufidx_of_stage[b.stage] = Some(i);
        }
        for e in net.edges {
            if bufidx_of_stage[e.producer].is_none() {
                return Err(InterpError::MissingBuffer { stage: e.producer });
            }
        }

        let gates = gate_windows(net.buffers, gating);

        // Stage order: sorted by ILP start cycle, so producers stream
        // before their consumers (the write-lead margin below proves the
        // starts are strictly ordered along every edge).
        let mut order: Vec<usize> = (0..net.stages.len()).collect();
        order.sort_by_key(|&i| (net.stages[i].start_cycle, i));

        let input_of: Vec<Option<usize>> = net.stages.iter().map(|s| s.input_stream).collect();

        let outputs: Vec<usize> = net
            .stages
            .iter()
            .filter(|s| s.is_output)
            .map(|s| s.index)
            .collect();

        let end = net
            .stages
            .iter()
            .map(|s| s.start_cycle + frame)
            .max()
            .unwrap_or(frame);

        // Streaming-margin proof: frame-at-a-time execution with direct
        // image reads is exact iff, for every edge, (a) the producer
        // writes each window row at least one cycle before the earliest
        // load of it (write lead — also covers clamp-to-edge reads of
        // the last row, whose loads happen strictly later), and (b) the
        // rotating buffer does not reuse a slot until the load has
        // happened (read-first ties allowed). Both margins are measured
        // in the producer's row period `P_p = pcy·W` (which is `W` for
        // rate-1, reducing to the original formulas exactly); upsample
        // readers re-read a producer row for `P_p - P_c` base cycles
        // past the rate-1 model's last access, hence the extra reuse
        // slack term. Every planner schedule satisfies both; a
        // hand-built netlist that does not is refused.
        let scale_of: Vec<(u64, u64)> = net.stages.iter().map(|s| (s.scale_x, s.scale_y)).collect();
        // Per-stage grids are `W/cx × H/cy`: every scale must divide the
        // frame, as the planner requires.
        if let Some(stage) = scale_of.iter().position(|&(sx, sy)| {
            (sx, sy) != (1, 1) && !((w as u64).is_multiple_of(sx) && (h as u64).is_multiple_of(sy))
        }) {
            return Err(InterpError::NotStreamable { stage });
        }
        for e in net.edges {
            let sc = net.stages[e.consumer].start_cycle as i64;
            let sp = net.stages[e.producer].start_cycle as i64;
            let lag = e.window.lag as i64;
            let height = e.window.height as i64;
            let rows = net.buffers[bufidx_of_stage[e.producer].expect("checked above")].storage_rows
                as i64;
            let pp = scale_of[e.producer].1 as i64 * w;
            let pc = scale_of[e.consumer].1 as i64 * w;
            let write_lead = sc - sp - (lag + height - 1) * pp;
            let reuse = (lag + rows) * pp - (sc - sp) - (pp - pc).max(0);
            if write_lead < 1 || reuse < 0 {
                return Err(InterpError::NotStreamable { stage: e.consumer });
            }
        }

        let mut stages = Vec::with_capacity(net.stages.len());
        let mut edges: Vec<EdgeProg> = Vec::with_capacity(net.edges.len());
        let mut max_regs = 0usize;
        let mut sram_reads = 0u64;

        for &si in &order {
            let s = &net.stages[si];
            let first_edge = edges.len();
            // This stage's consumer edges, with slot -> local index for
            // kernel taps.
            let mut slot_local: Vec<usize> = Vec::new();
            let mut n_vrows = 0usize;
            let mut row_taps: Vec<RowTap> = Vec::new();
            for (eidx, e) in net.edges.iter().enumerate() {
                if e.consumer != si {
                    continue;
                }
                let width = sra_columns(&e.window) as usize;
                let height = e.window.height as usize;
                let bufidx = bufidx_of_stage[e.producer].expect("checked above");
                if slot_local.len() <= e.slot {
                    slot_local.resize(e.slot + 1, usize::MAX);
                }
                slot_local[e.slot] = edges.len() - first_edge;
                let gate = gates[bufidx];
                // Closed-form SRAM read total: `height` words per
                // non-gated *edge-active* cycle of this edge. An edge is
                // active once per consumer-active row (`y % ccy == 0`)
                // at every producer-grid column (`x % pcx == 0`); for a
                // rate-1 edge every active cycle qualifies and the sum
                // collapses to the plain clipped-interval length.
                let ccy = scale_of[si].1;
                let pcx = scale_of[e.producer].0;
                let (astart, aend) = (s.start_cycle, s.start_cycle + frame);
                let (gs, ge) = match gate {
                    Some((gs, ge)) => (gs.max(astart), ge.min(aend)),
                    None => (astart, aend),
                };
                let mut enabled = 0u64;
                let mut y = 0u64;
                while y < geom.height as u64 {
                    let base = astart + y * geom.width as u64;
                    let lo = gs.max(base);
                    let hi = ge.min(base + geom.width as u64);
                    if hi > lo {
                        let (a, b) = (lo - base, hi - base);
                        enabled += b.div_ceil(pcx) - a.div_ceil(pcx);
                    }
                    y += ccy;
                }
                sram_reads += height as u64 * enabled;
                let pscale = scale_of[e.producer];
                if tapes {
                    row_taps.extend((0..height as u64).map(|j| RowTap {
                        edge: edges.len(),
                        k: e.window.lag as u64 + j,
                        ph: geom.height as u64 / pscale.1,
                        stride: (geom.width as u64 / pscale.0).next_multiple_of(TILE as u64)
                            as usize,
                        pcx: pscale.0,
                        pcy: pscale.1,
                    }));
                }
                edges.push(EdgeProg {
                    edge: eidx,
                    buf: bufidx,
                    prod_stage: e.producer,
                    height,
                    width,
                    lag: e.window.lag,
                    vrow_base: n_vrows,
                    gate,
                    pscale,
                    pw: (geom.width as u64 / pscale.0) as usize,
                    ccy,
                });
                n_vrows += height;
            }
            let edge_range = first_edge..edges.len();

            // Linearize the kernel; taps resolve to (virtual row, dx).
            let kernel = executable.and_then(|x| x.module_kernel(s.module));
            let tape = match kernel {
                Some(k) => {
                    let mut tb = TapeBuilder::default();
                    let root = tb.lower(k, &|slot, dx, dy| {
                        let le = &edges[edge_range.start + slot_local[slot]];
                        // Same row selection as the legacy fetch closure.
                        let j = (dy as u32).saturating_sub(le.lag) as usize;
                        assert!(j < le.height, "tap dy={dy} reaches outside the edge window");
                        TapeOp::Load {
                            vrow: (le.vrow_base + j) as u32,
                            dx,
                        }
                    });
                    tb.finish(root)
                }
                _ => Tape::default(),
            };
            max_regs = max_regs.max(tape.ops.len());

            stages.push(StageProg {
                stage: si,
                start: s.start_cycle,
                input: input_of[si],
                has_module: s.module.is_some(),
                tiled: edges[edge_range.clone()]
                    .iter()
                    .all(|e| e.pscale == scale_of[si]),
                edges: edge_range,
                tape,
                n_vrows,
                row_taps,
            });
        }

        // One write per buffered stage per *write-cadence* cycle: a
        // stage at cumulative scale `(cx, cy)` commits `frame/(cx·cy)`
        // words (the full frame for rate-1 stages).
        let sram_writes = net
            .buffers
            .iter()
            .map(|b| {
                let (sx, sy) = scale_of[b.stage];
                frame / (sx * sy)
            })
            .sum();
        let gated_off_cycles: u64 = gates
            .iter()
            .flatten()
            .map(|&(gs, ge)| end - ge.min(end).saturating_sub(gs.min(end)))
            .sum();

        // Per-buffer closed-form read-port duty ([`BufMeta::duty`]). An
        // edge loads on its consumer's rows `y % ccy == 0`, at base
        // cycles congruent to the consumer's start modulo the producer's
        // column cadence `pcx` (shared by every edge of one buffer), so
        // the union is taken per residue class; a rate-1 edge's loads
        // are the whole interval `[cs, cs + frame)`.
        let buffers: Vec<BufMeta> = net
            .buffers
            .iter()
            .enumerate()
            .map(|(i, nb)| {
                let pcx = scale_of[nb.stage].0;
                let mut loads: Vec<(u64, u64, u64)> = Vec::new();
                for e in net.edges {
                    if bufidx_of_stage[e.producer] == Some(i) {
                        let cs = net.stages[e.consumer].start_cycle;
                        let ccy = scale_of[e.consumer].1;
                        if ccy == 1 {
                            loads.push((cs % pcx, cs, cs + frame));
                        } else {
                            let (gw, gh) = (geom.width as u64, geom.height as u64);
                            loads.extend(
                                (0..gh)
                                    .step_by(ccy as usize)
                                    .map(|y| (cs % pcx, cs + y * gw, cs + (y + 1) * gw)),
                            );
                        }
                    }
                }
                loads.sort_unstable();
                let mut seg_cuts = Vec::new();
                if nb.blocks_per_row > 1 {
                    let cap = nb.block_capacity_bits.max(1);
                    let mut prev_seg = 0u64;
                    for xg in 1..geom.width as u64 / pcx {
                        let seg = xg * geom.pixel_bits as u64 / cap;
                        if seg != prev_seg {
                            seg_cuts.push(xg * pcx);
                            prev_seg = seg;
                        }
                    }
                }
                let mut meta = BufMeta {
                    nb: nb.clone(),
                    duty: ReadDuty::default(),
                    loads,
                    pcx,
                    seg_cuts,
                };
                meta.duty = meta.duty(gates[i], end);
                meta
            })
            .collect();

        Ok(EvalProgram {
            w,
            h,
            width_px: geom.width,
            height_px: geom.height,
            frame,
            end,
            done_cycle: net.done_cycle,
            pixel: net.widths.pixel_bits,
            acc: net.widths.acc_bits,
            geom_pixel_bits: geom.pixel_bits,
            n_inputs: input_of.iter().flatten().count(),
            stages,
            edges,
            buffers,
            start_of: net.stages.iter().map(|s| s.start_cycle).collect(),
            n_net_stages: net.stages.len(),
            n_net_edges: net.edges.len(),
            outputs,
            max_regs,
            sram_reads,
            sram_writes,
            gated_off_cycles,
            scale_of,
        })
    }

    /// Executes one frame without tracing — the fastest path.
    ///
    /// # Errors
    ///
    /// [`InterpError`] on input count/geometry mismatch.
    pub fn run(&self, inputs: &[Image]) -> Result<InterpReport, InterpError> {
        let _s = imagen_obs::span("program.run");
        self.check_inputs(inputs)?;
        Ok(self.report(&self.stage_images(inputs)))
    }

    /// Executes one frame, additionally collecting an [`ActivityTrace`]
    /// identical to the reference interpreter's.
    ///
    /// # Errors
    ///
    /// See [`EvalProgram::run`].
    pub fn run_with_trace(
        &self,
        inputs: &[Image],
    ) -> Result<(InterpReport, ActivityTrace), InterpError> {
        let _s = imagen_obs::span("program.run");
        self.check_inputs(inputs)?;
        let images = self.stage_images(inputs);
        let mut tr = TraceAcc::for_program(self);
        for st in &self.stages {
            if st.has_module {
                tr.out_toggles[st.stage] = self.out_toggles(st.stage, &images[st.stage]);
            }
            for (lei, ep) in self.edges[st.edges.clone()].iter().enumerate() {
                tr.sra_toggles[st.edges.start + lei] = self.edge_bit_toggles(st.start, ep, &images);
            }
        }
        self.block_sweep(&mut tr);
        Ok((self.report(&images), self.assemble_trace(tr)))
    }

    pub(crate) fn check_inputs(&self, inputs: &[Image]) -> Result<(), InterpError> {
        if self.n_inputs != inputs.len() {
            return Err(InterpError::InputCount {
                expected: self.n_inputs,
                provided: inputs.len(),
            });
        }
        if inputs
            .iter()
            .any(|i| i.width() != self.width_px || i.height() != self.height_px)
        {
            return Err(InterpError::GeometryMismatch);
        }
        Ok(())
    }

    /// The grid of netlist stage `stage`'s dense image: `(columns, rows,
    /// row stride)`. A stage at cumulative scale `(cx, cy)` owns a `W/cx
    /// × H/cy` grid; rows are stored at a stride padded to a whole number
    /// of evaluation tiles, so every tile evaluation is full-width (the
    /// padding lanes hold don't-care values that no in-grid column ever
    /// reads back, since taps satisfy `dx <= 0`).
    fn grid(&self, stage: usize) -> (usize, usize, usize) {
        let (cx, cy) = self.scale_of[stage];
        let cw = self.w as usize / cx as usize;
        let ch = self.h as usize / cy as usize;
        (cw, ch, cw.next_multiple_of(TILE))
    }

    /// Producer columns of consumer base row `yb` whose loads through
    /// `ep` (consumer active since `start`) fall inside the gate window:
    /// `[en_lo, en_hi)` (the whole producer row when ungated). The load
    /// of producer column `col` happens at base cycle `start + yb·W +
    /// col·pcx`; loaded values outside the window are zero.
    fn gate_cols(&self, ep: &EdgeProg, start: u64, yb: usize) -> (usize, usize) {
        match ep.gate {
            None => (0, ep.pw),
            Some((gs, ge)) => {
                let (pcx, pw) = (ep.pscale.0, ep.pw as u64);
                let base = start + yb as u64 * self.w as u64;
                let lo = gs.saturating_sub(base).div_ceil(pcx).min(pw) as usize;
                let hi = ge.saturating_sub(base).div_ceil(pcx).min(pw) as usize;
                (lo, hi.max(lo))
            }
        }
    }

    /// The frame-at-a-time executor: stages stream whole frames in
    /// start-cycle order into dense images, one per netlist stage, each
    /// in its own grid ([`EvalProgram::grid`]). A stage on its producers'
    /// grid — every stage of a rate-1 program — streams through the
    /// vectorized tile evaluator; a resampling stage steps its taps
    /// through the producer grid scalarly. The activity passes and the
    /// report read these images afterwards.
    pub(crate) fn stage_images(&self, inputs: &[Image]) -> Vec<Vec<i64>> {
        let pixel = self.pixel;
        let mut images: Vec<Vec<i64>> = vec![Vec::new(); self.n_net_stages];
        // Shared workspaces across stages.
        let mut regs = vec![0i64; self.max_regs * TILE];
        let mut scratch: Vec<Vec<i64>> = Vec::new();
        let mut rows: Vec<ResolvedRow> = Vec::new();

        for st in &self.stages {
            let (cw, ch, stride) = self.grid(st.stage);
            let mut out = vec![0i64; ch * stride];
            match st.input {
                // Each input stream feeds exactly one stage, at rate 1.
                Some(k) => {
                    let mut it = inputs[k].raster();
                    for y in 0..ch {
                        for v in out[y * stride..y * stride + cw].iter_mut() {
                            *v = trunc(it.next().unwrap_or(0), pixel);
                        }
                    }
                }
                None if st.tiled => {
                    self.eval_stage(st, &images, &mut out, &mut regs, &mut scratch);
                }
                None => self.eval_stage_strided(st, &images, &mut out, &mut regs, &mut rows),
            }
            images[st.stage] = out;
        }
        images
    }

    /// The interpreter report of a run: output streams cut from the
    /// dense images, totals from the compile-time closed forms.
    fn report(&self, images: &[Vec<i64>]) -> InterpReport {
        let output_images = self
            .outputs
            .iter()
            .map(|&stage| {
                let (cw, ch, stride) = self.grid(stage);
                let img = &images[stage];
                let mut dense = vec![0i64; cw * ch];
                for y in 0..ch {
                    dense[y * cw..(y + 1) * cw].copy_from_slice(&img[y * stride..y * stride + cw]);
                }
                (stage, Image::from_raster(cw as u32, ch as u32, dense))
            })
            .collect();

        InterpReport {
            cycles: self.end,
            latency: self.done_cycle,
            output_images,
            sram_reads: self.sram_reads,
            sram_writes: self.sram_writes,
            gated_off_cycles: self.gated_off_cycles,
        }
    }

    /// Output-register bit toggles of netlist stage `stage`: the chain of
    /// consecutive values of its output stream over its own grid, from a
    /// zero reset.
    pub(crate) fn out_toggles(&self, stage: usize, img: &[i64]) -> u64 {
        let (cw, ch, stride) = self.grid(stage);
        // Adjacent-pair form of the toggle chain (vectorizes).
        let mut tg = 0u64;
        let mut prev = 0i64;
        for y in 0..ch {
            let row = &img[y * stride..y * stride + cw];
            tg += toggles(prev, row[0], self.pixel);
            tg += row
                .windows(2)
                .map(|p| toggles(p[0], p[1], self.pixel))
                .sum::<u64>();
            prev = row[cw - 1];
        }
        tg
    }

    /// Streams one resampling stage's whole frame into `out`, over its
    /// own `W/cx × H/cy` grid with taps stepping through the producer's
    /// grid at the cumulative-scale stride. Under the (generalized)
    /// streaming margins the dense producer image at `[min(⌊y_b/pcy⌋ +
    /// lag + j, ph-1)][max(⌊x_b/pcx⌋ + dx, 0)]` is exactly the word the
    /// rate-scheduled SRA holds at the stage's compute-enable cycle; gate
    /// windows are applied per load at the base cycle the load would
    /// occur (`S_c + y_b·W + col·pcx`). The window rows are resolved once
    /// per output row into `rows`, so a tap costs one bounds test and one
    /// load.
    fn eval_stage_strided(
        &self,
        st: &StageProg,
        images: &[Vec<i64>],
        out: &mut [i64],
        regs: &mut [i64],
        rows: &mut Vec<ResolvedRow>,
    ) {
        let (cw, ch, stride) = self.grid(st.stage);
        let (ccx, ccy) = self.scale_of[st.stage];
        let sh = 64 - self.acc.min(64);
        for yc in 0..ch {
            let yb = yc * ccy as usize;
            rows.clear();
            rows.extend(st.row_taps.iter().map(|rt| {
                let ep = &self.edges[rt.edge];
                let row = (yb as u64 / rt.pcy + rt.k).min(rt.ph - 1) as usize;
                let (lo, hi) = self.gate_cols(ep, st.start, yb);
                (ep.prod_stage, row * rt.stride, lo, hi, rt.pcx as usize)
            }));
            let orow = &mut out[yc * stride..yc * stride + cw];
            for (xc, o) in orow.iter_mut().enumerate() {
                let xb = xc * ccx as usize;
                let root = eval_scalar(&st.tape, regs, sh, &mut |vrow, dx| {
                    let (prod, base, lo, hi, pcx) = rows[vrow as usize];
                    let col = ((xb / pcx) as isize + dx as isize).max(0) as usize;
                    if col < lo || col >= hi {
                        0
                    } else {
                        images[prod][base + col]
                    }
                });
                *o = trunc(root, self.pixel);
            }
        }
    }

    /// Streams one compute stage on its producers' grid — the whole
    /// frame of a rate-1 stage — into `out` through the tile evaluator.
    fn eval_stage(
        &self,
        st: &StageProg,
        images: &[Vec<i64>],
        out: &mut [i64],
        regs: &mut [i64],
        scratch: &mut Vec<Vec<i64>>,
    ) {
        // The stage shares its producers' grid, so a tap at row offset
        // `lag + j` reads producer row `min(y + lag + j, h - 1)` of the
        // same extents and stride.
        let (w, h, ws) = self.grid(st.stage);
        let ccy = self.scale_of[st.stage].1 as usize;
        let sh = 64 - self.acc.min(64);
        let pixel = self.pixel;
        if scratch.len() < st.n_vrows {
            scratch.resize(st.n_vrows, Vec::new());
        }

        for y in 0..h {
            // Resolve the virtual SRA rows: producer image rows with the
            // bottom clamp, gate-zeroed per load column. Scratch copies
            // are only made on partially-gated rows (adversarial plans).
            for ep in &self.edges[st.edges.clone()] {
                let (en_lo, en_hi) = self.gate_cols(ep, st.start, y * ccy);
                if en_lo == 0 && en_hi == w {
                    continue;
                }
                let prod = &images[ep.prod_stage];
                for j in 0..ep.height {
                    let r = (y + ep.lag as usize + j).min(h - 1);
                    let s = &mut scratch[ep.vrow_base + j];
                    s.clear();
                    s.resize(ws, 0);
                    if en_hi > en_lo {
                        s[en_lo..en_hi].copy_from_slice(&prod[r * ws + en_lo..r * ws + en_hi]);
                    }
                }
            }
            let mut vrows: Vec<&[i64]> = Vec::with_capacity(st.n_vrows);
            for ep in &self.edges[st.edges.clone()] {
                let (en_lo, en_hi) = self.gate_cols(ep, st.start, y * ccy);
                let prod = &images[ep.prod_stage];
                for j in 0..ep.height {
                    if en_lo == 0 && en_hi == w {
                        let r = (y + ep.lag as usize + j).min(h - 1);
                        vrows.push(&prod[r * ws..(r + 1) * ws]);
                    } else {
                        vrows.push(&scratch[ep.vrow_base + j][..ws]);
                    }
                }
            }

            let orow = &mut out[y * ws..(y + 1) * ws];
            // The whole row runs through the vectorized tile path; the
            // tile loader handles the left-edge column clamp itself and
            // the padding lanes compute don't-care values.
            for x0 in (0..ws).step_by(TILE) {
                eval_tile(&st.tape, regs, &vrows, sh, x0);
                let root = &regs[st.tape.root as usize * TILE..][..TILE];
                for (o, &v) in orow[x0..x0 + TILE].iter_mut().zip(root) {
                    *o = trunc(v, pixel);
                }
            }
        }
    }

    /// Total shift-register bit toggles of one edge, recovered from the
    /// load stream. The SRA is a delay line: every toggle between two
    /// consecutively loaded values re-appears once per column as it
    /// shifts through, so the legacy per-cycle sum telescopes to
    /// `Σ_u T(u) · min(width, L - u)` over the load stream `T` of length
    /// `L` (the tail loads retire before completing the full traversal).
    /// The stream is the edge's loads in cycle order: per consumer row
    /// `y_b` (step `ccy`), producer row `min(⌊y_b/pcy⌋ + lag + j, ph-1)`
    /// across all `pw` producer columns, so `L = ⌈H/ccy⌉ · pw` (`L =
    /// frame` for a rate-1 edge).
    fn edge_bit_toggles(&self, start: u64, ep: &EdgeProg, images: &[Vec<i64>]) -> u64 {
        let (pw, ph, stride) = self.grid(ep.prod_stage);
        let pcy = ep.pscale.1 as usize;
        // Producer row of consumer base row `yb` (no division at rate 1).
        let prow = |yb: usize| if pcy == 1 { yb } else { yb / pcy };
        let h = self.h as usize;
        let len = (h.div_ceil(ep.ccy as usize) * pw) as u64;
        let width = ep.width as u64;
        let prod = &images[ep.prod_stage];
        let mask = if self.pixel >= 64 {
            u64::MAX
        } else {
            (1u64 << self.pixel) - 1
        };
        let tail_start = len.saturating_sub(width - 1);
        let mut total = 0u64;
        for j in 0..ep.height {
            let mut prev = 0i64;
            let mut full_sum = 0u64;
            for (i, yb) in (0..h).step_by(ep.ccy as usize).enumerate() {
                let r = (prow(yb) + ep.lag as usize + j).min(ph - 1);
                let row = &prod[r * stride..r * stride + pw];
                let (en_lo, en_hi) = self.gate_cols(ep, start, yb);
                let row_t = (i * pw) as u64;
                let xsplit = (tail_start.saturating_sub(row_t) as usize).min(pw);
                if en_lo == 0 && en_hi == pw && xsplit == pw {
                    // Fully enabled, fully ahead of the retirement tail
                    // (the common case: every row but the stream's last
                    // few loads, ungated or inside the gate window).
                    // The chain against `prev` reduces to adjacent
                    // pairs, which vectorizes.
                    full_sum += (((prev ^ row[0]) as u64) & mask).count_ones() as u64;
                    full_sum += row
                        .windows(2)
                        .map(|p| (((p[0] ^ p[1]) as u64) & mask).count_ones() as u64)
                        .sum::<u64>();
                    prev = row[pw - 1];
                } else {
                    for (x, &cell) in row.iter().enumerate() {
                        let v = if x >= en_lo && x < en_hi { cell } else { 0 };
                        let tg = (((prev ^ v) as u64) & mask).count_ones() as u64;
                        prev = v;
                        if x < xsplit {
                            full_sum += tg;
                        } else {
                            total += tg * (len - (row_t + x as u64));
                        }
                    }
                }
            }
            total += full_sum * width;
        }
        total
    }

    /// Per-block SRAM read/write/peak accounting, reproduced without a
    /// cycle loop: for each buffer, sweep spans of cycles over which
    /// every participant (the writer and each consumer edge) keeps its
    /// raster row, bank segment and gate state. A participant acts only
    /// on its cadence — rows `y % cy == 0` of its own (writer) or its
    /// consumer's (reader) vertical scale, columns `x % pcx == 0` of the
    /// buffer's horizontal scale, shared by every participant — so within
    /// a span it acts on the cycles of one residue class mod `pcx`, and
    /// per-cycle counts are constant within each class. Reads merge on
    /// identical `(block, row, column)` within a cycle, which across
    /// edges can only collide when two consumers run phase-aligned (start
    /// cycles congruent mod `w`); the sweep merges their window rows
    /// first.
    fn block_sweep(&self, tr: &mut TraceAcc) {
        let mut readers: Vec<Vec<ReaderEdge>> = vec![Vec::new(); self.buffers.len()];
        for st in &self.stages {
            for ep in &self.edges[st.edges.clone()] {
                readers[ep.buf].push((st.start, ep.lag, ep.height as u64, ep.gate, ep.ccy));
            }
        }
        for (bi, rd) in readers.iter().enumerate() {
            let nb = &self.buffers[bi].nb;
            if nb.phys_blocks == 0 || nb.fifo {
                continue;
            }
            // Buffers whose participants all act on every cycle take the
            // instantiation with the cadence arithmetic folded away.
            if self.scale_of[nb.stage] == (1, 1) && rd.iter().all(|r| r.4 == 1) {
                self.sweep_buffer::<true>(bi, rd, tr);
            } else {
                self.sweep_buffer::<false>(bi, rd, tr);
            }
        }
    }

    /// [`EvalProgram::block_sweep`] of buffer `bi` read by `rd`. `UNIT`
    /// asserts that the buffer and every reader run at rate 1.
    fn sweep_buffer<const UNIT: bool>(&self, bi: usize, rd: &[ReaderEdge], tr: &mut TraceAcc) {
        let w = self.w as u64;
        let frame = self.frame;
        let meta = &self.buffers[bi];
        let nb = &meta.nb;
        let (pcx, pcy) = if UNIT {
            (1, 1)
        } else {
            self.scale_of[nb.stage]
        };
        let ph = self.h as u64 / pcy;
        let ws = self.start_of[nb.stage];
        let t0 = rd.iter().map(|r| r.0).min().unwrap_or(ws).min(ws);
        let tend = rd
            .iter()
            .map(|r| r.0 + frame)
            .max()
            .unwrap_or(ws + frame)
            .max(ws + frame);

        let mut rcnt = vec![0u32; nb.phys_blocks];
        let mut wcnt = vec![0u32; nb.phys_blocks];
        let mut touched: Vec<usize> = Vec::new();
        // Merged unique reads of one span: (column phase, row). Loads
        // merge only within a phase class (identical column), which
        // implies an identical residue.
        let mut reads: Vec<(u64, u64)> = Vec::new();
        let mut residues: Vec<u64> = Vec::new();

        // Position of a participant active since `start` at cycle `t`,
        // shrinking the span end `se` to the next boundary at which its
        // row / segment / liveness changes.
        let span_for = |start: u64, t: u64, se: &mut u64| -> Option<(u64, u64)> {
            if t < start {
                *se = (*se).min(start);
                return None;
            }
            if t >= start + frame {
                return None;
            }
            let k = t - start;
            let (y, x) = (k / w, k % w);
            *se = (*se).min(t + (w - x)).min(start + frame);
            if nb.blocks_per_row > 1 {
                let cut = meta.seg_cuts.iter().find(|&&c| c > x).copied().unwrap_or(w) - x;
                *se = (*se).min(t + cut);
            }
            Some((y, x))
        };
        // First offset into the span at which a participant at column
        // `x` acts: its residue class mod `pcx`.
        let residue = |x: u64| if UNIT { 0 } else { (pcx - x % pcx) % pcx };

        // Adds `n` cycles of residue class `rho` of one span — its merged
        // unique reads, then the write — to the per-block totals and peaks.
        let mut tally = |rho: u64, n: u64, reads: &[(u64, u64)], writer_at: Option<(u64, u64)>| {
            for &(x, r) in reads.iter().filter(|r| residue(r.0) == rho) {
                let xg = (x + rho) / pcx;
                if let Some(b) = nb.block_of(r, xg as u32, self.geom_pixel_bits) {
                    if rcnt[b] == 0 && wcnt[b] == 0 {
                        touched.push(b);
                    }
                    rcnt[b] += 1;
                }
            }
            if let Some((y, x)) = writer_at.filter(|&(_, x)| residue(x) == rho) {
                let xg = (x + rho) / pcx;
                if let Some(b) = nb.block_of(y / pcy, xg as u32, self.geom_pixel_bits) {
                    if rcnt[b] == 0 && wcnt[b] == 0 {
                        touched.push(b);
                    }
                    wcnt[b] += 1;
                }
            }
            for &b in &touched {
                tr.block_reads[bi][b] += rcnt[b] as u64 * n;
                tr.block_writes[bi][b] += wcnt[b] as u64 * n;
                let peak = rcnt[b] + wcnt[b];
                if peak > tr.block_peaks[bi][b] {
                    tr.block_peaks[bi][b] = peak;
                }
                rcnt[b] = 0;
                wcnt[b] = 0;
            }
            touched.clear();
        };

        let mut t = t0;
        while t < tend {
            let mut se = tend;
            let writer_at = span_for(ws, t, &mut se).filter(|&(y, _)| UNIT || y % pcy == 0);
            reads.clear();
            for &(rs, lag, height, gate, ccy) in rd {
                let pos = span_for(rs, t, &mut se);
                let mut enabled = true;
                if let Some((gs, ge)) = gate {
                    if t < gs {
                        se = se.min(gs);
                        enabled = false;
                    } else if t < ge {
                        se = se.min(ge);
                    } else {
                        enabled = false;
                    }
                }
                if let Some((y, x)) = pos {
                    if enabled && (UNIT || y % ccy == 0) {
                        let r0 = y / pcy + lag as u64;
                        reads.extend((0..height).map(|j| (x, (r0 + j).min(ph - 1))));
                    }
                }
            }
            let len = se - t;

            // Per-cycle counts of each residue class of this span.
            reads.sort_unstable();
            reads.dedup();
            if UNIT {
                tally(0, len, &reads, writer_at);
            } else {
                residues.clear();
                residues.extend(reads.iter().map(|r| residue(r.0)));
                residues.extend(writer_at.map(|(_, x)| residue(x)));
                residues.sort_unstable();
                residues.dedup();
                for &rho in &residues {
                    // Cycles of the span in this class.
                    let n = len.saturating_sub(rho).div_ceil(pcx);
                    if n > 0 {
                        tally(rho, n, &reads, writer_at);
                    }
                }
            }
            t = se;
        }
    }

    /// Builds the final [`ActivityTrace`] from the pass results plus the
    /// compile-time closed forms.
    fn assemble_trace(&self, tr: TraceAcc) -> ActivityTrace {
        let mut trace = ActivityTrace {
            run_cycles: self.end,
            frame: self.frame,
            buffers: Vec::with_capacity(self.buffers.len()),
            stages: vec![Default::default(); self.n_net_stages],
            sras: vec![Default::default(); self.n_net_edges],
        };
        for (bi, meta) in self.buffers.iter().enumerate() {
            let nb = &meta.nb;
            let mut b = crate::activity::BufferActivity {
                stage: nb.stage,
                block_reads: tr.block_reads[bi].clone(),
                block_writes: tr.block_writes[bi].clone(),
                block_peaks: tr.block_peaks[bi].clone(),
                read_enabled_cycles: meta.duty.read_enabled_cycles,
                idle_read_cycles: meta.duty.idle_read_cycles,
                gated_off_cycles: meta.duty.gated_off_cycles,
                fifo: nb.fifo,
            };
            if nb.fifo {
                // FIFO chains: one push and one pop per segment per live
                // cycle — the cycle simulator's synthetic SODA accounting.
                // A multirate producer pushes one stage-grid frame.
                let (sx, sy) = self.scale_of[nb.stage];
                let live = self.frame / (sx * sy);
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
            trace.buffers.push(b);
        }
        // Cadence counts: base cycles of the frame raster with `y % cy ==
        // 0 && x % cx == 0` (the whole frame at rate 1).
        let (w, h) = (self.w as u64, self.h as u64);
        let cadence = |cx: u64, cy: u64| h.div_ceil(cy) * w.div_ceil(cx);
        for st in &self.stages {
            let (cx, cy) = self.scale_of[st.stage];
            let sa = &mut trace.stages[st.stage];
            sa.active_cycles = cadence(cx, cy);
            if st.has_module {
                sa.out_reg_writes = sa.active_cycles;
                sa.out_reg_toggles = tr.out_toggles[st.stage];
            }
            for (lei, ep) in self.edges[st.edges.clone()].iter().enumerate() {
                let ea = &mut trace.sras[ep.edge];
                // Edge-active cycles: consumer rows, producer columns.
                ea.shift_cycles = cadence(ep.pscale.0, ep.ccy);
                ea.cell_writes = (ep.height * ep.width) as u64 * ea.shift_cycles;
                ea.bit_toggles = tr.sra_toggles[st.edges.start + lei];
            }
        }
        trace
    }
}

/// Toggled bits between two register values at `bits` width.
#[inline]
fn toggles(old: i64, new: i64, bits: u32) -> u64 {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (((old ^ new) as u64) & mask).count_ones() as u64
}

/// One consumer edge of a buffer, as the block sweep sees it: consumer
/// start, window lag, window height, gate window and consumer row cadence
/// `ccy`.
type ReaderEdge = (u64, u32, u64, Option<(u64, u64)>, u64);

/// Per-run activity accumulators of a traced run or a structure pass.
struct TraceAcc {
    /// Bit toggles per edge program (sorted-stage edge order).
    sra_toggles: Vec<u64>,
    /// Output-register toggles per netlist stage.
    out_toggles: Vec<u64>,
    block_reads: Vec<Vec<u64>>,
    block_writes: Vec<Vec<u64>>,
    block_peaks: Vec<Vec<u32>>,
}

impl TraceAcc {
    fn for_program(p: &EvalProgram) -> TraceAcc {
        TraceAcc {
            sra_toggles: vec![0; p.edges.len()],
            out_toggles: vec![0; p.n_net_stages],
            block_reads: p
                .buffers
                .iter()
                .map(|b| vec![0u64; b.nb.phys_blocks])
                .collect(),
            block_writes: p
                .buffers
                .iter()
                .map(|b| vec![0u64; b.nb.phys_blocks])
                .collect(),
            block_peaks: p
                .buffers
                .iter()
                .map(|b| vec![0u32; b.nb.phys_blocks])
                .collect(),
        }
    }
}
