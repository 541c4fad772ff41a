//! Measure once, reprice per point: the data pass and the structure pass
//! of a traced run (see the parent module docs).
//!
//! A design-space sweep measures many designs that share one datapath
//! — the same kernels, windows and widths on the same stimulus — and
//! differ only in schedule, bank organisation and gate windows. The
//! data-dependent half of a traced run is therefore identical at every
//! point. [`DataTrace::record`] runs it once on one netlist;
//! [`DataTrace::structure_traces`] reassembles each point's full
//! [`ActivityTrace`]s, ungated and gated, from it and the point's
//! [`Roster`] without evaluating a kernel or elaborating a netlist.

use super::{gate_windows, EdgeProg, EvalProgram, RosterRef, TraceAcc};
use crate::activity::ActivityTrace;
use crate::interp::InterpError;
use crate::netlist::{GatingPlan, NetStage, Netlist, Roster};
use imagen_ir::{Dag, Expr, StageId, StageKind, Window};
use imagen_sim::Image;
use std::collections::HashMap;

/// Chained toggle sums of one load stream: the cycle-order sequence of
/// words a window row at row offset `k` of a consumer with row cadence
/// `ccy` loads from its producer — per consumer row `y_b` (step `ccy`),
/// `image[min(⌊y_b/pcy⌋ + k, ph - 1)][0..pw]`.
#[derive(Debug)]
struct LoadSums {
    /// Stream length `L = ⌈H/ccy⌉ · pw`.
    len: u64,
    /// Bit toggles between consecutive loads over the whole stream,
    /// starting from a zero reset.
    total: u64,
    /// Per-load toggles of the stream's last `tail.len()` loads — the
    /// retirement tail, whose loads leave the array before crossing all
    /// of its columns.
    tail: Vec<u32>,
}

/// One roster stage's share of a [`Datapath`]: input stream, kernel of
/// compute stages, and cumulative rate scale (which fixes the stage's
/// grid and cadence).
type StageDatapath = (Option<usize>, Option<Expr>, (u64, u64));

/// The datapath a [`DataTrace`] was recorded from: everything the stage
/// images depend on besides the stimulus. A point whose roster and
/// kernels match it computes the same images, whatever its schedule or
/// memories.
#[derive(Debug)]
struct Datapath {
    width: u32,
    height: u32,
    pixel_bits: u32,
    acc_bits: u32,
    stages: Vec<StageDatapath>,
    /// Per roster edge: producer, consumer, kernel slot and window.
    edges: Vec<(usize, usize, usize, Window)>,
}

impl Datapath {
    fn of(net: &Netlist) -> Datapath {
        Datapath {
            width: net.geometry.width,
            height: net.geometry.height,
            pixel_bits: net.widths.pixel_bits,
            acc_bits: net.widths.acc_bits,
            stages: net
                .stages
                .iter()
                .map(|s| {
                    (
                        s.input_stream,
                        net.module_kernel(s.module).cloned(),
                        (s.scale_x, s.scale_y),
                    )
                })
                .collect(),
            edges: net
                .edges
                .iter()
                .map(|e| (e.producer, e.consumer, e.slot, e.window))
                .collect(),
        }
    }

    /// Whether the roster `net` of a design scheduled from `dag` has this
    /// datapath.
    fn matches(&self, dag: &Dag, net: &Roster) -> bool {
        let kernel = |s: &NetStage| match dag.stage(StageId::from_index(s.index)).kind() {
            StageKind::Compute { kernel } => Some(kernel),
            StageKind::Input => None,
        };
        self.width == net.geometry.width
            && self.height == net.geometry.height
            && self.pixel_bits == net.widths.pixel_bits
            && self.acc_bits == net.widths.acc_bits
            && self.stages.len() == net.stages.len()
            && self
                .stages
                .iter()
                .zip(&net.stages)
                .all(|((input, want, scale), s)| {
                    *input == s.input_stream
                        && want.as_ref() == kernel(s)
                        && *scale == (s.scale_x, s.scale_y)
                })
            && self.edges.len() == net.edges.len()
            && self
                .edges
                .iter()
                .zip(&net.edges)
                .all(|(&(p, c, slot, window), e)| {
                    (p, c, slot, window) == (e.producer, e.consumer, e.slot, e.window)
                })
    }
}

/// The data pass of a traced run, recorded once for one datapath on one
/// stimulus: the output-register toggle total of every stage and the
/// chained toggle sums of every load stream, keyed by *(producer stage,
/// row offset, consumer row cadence)* rather than by netlist edge, so
/// the sums stay valid when coalescing rewrites a point's read ports.
/// Multirate datapaths are covered: images, toggle chains and load
/// streams all live on each stage's own grid.
///
/// Record it from one netlist, hold it for the duration of a sweep and
/// reprice every point, ungated and gated, from the point's [`Roster`]
/// with [`DataTrace::structure_traces`]. It is immutable, so worker
/// threads share it by reference.
#[derive(Debug)]
pub struct DataTrace {
    datapath: Datapath,
    /// Output-register toggles per netlist stage (0 for input stages).
    out_toggles: Vec<u64>,
    loads: HashMap<(usize, u32, u64), LoadSums>,
}

impl DataTrace {
    /// Runs the data pass of `net`'s datapath on `inputs` — one untraced
    /// frame, ignoring `net`'s clock gating — and keeps the sums the
    /// structure pass needs.
    ///
    /// # Errors
    ///
    /// [`InterpError`] on a missing line buffer, on input count or
    /// geometry mismatch, and [`InterpError::NotStreamable`] for a
    /// schedule the program cannot stream.
    pub fn record(net: &Netlist, inputs: &[Image]) -> Result<DataTrace, InterpError> {
        let prog = EvalProgram::lower(net.into(), None, Some(net))?;
        prog.check_inputs(inputs)?;
        let images = prog.stage_images(inputs);
        let mut out_toggles = vec![0; prog.n_net_stages];
        for st in prog.stages.iter().filter(|st| st.has_module) {
            out_toggles[st.stage] = prog.out_toggles(st.stage, &images[st.stage]);
        }
        // The widest array's tail covers every narrower one.
        let tail = prog.edges.iter().map(|e| e.width - 1).max().unwrap_or(0);
        let mut loads = HashMap::new();
        for ep in &prog.edges {
            for j in 0..ep.height as u32 {
                let k = ep.lag + j;
                loads
                    .entry((ep.prod_stage, k, ep.ccy))
                    .or_insert_with(|| prog.load_sums(ep, &images[ep.prod_stage], k, tail));
            }
        }
        Ok(DataTrace {
            datapath: Datapath::of(net),
            out_toggles,
            loads,
        })
    }

    /// The structure pass of one design point, for both gating variants:
    /// the [`ActivityTrace`]s that [`crate::interpret_with_trace`]
    /// returns for the point's netlist ungated and with the clock-gating
    /// plan `gating` attached, in that order. They are assembled from
    /// the recorded sums plus the point's [`Roster`] (its schedule and
    /// memories, [`crate::build_roster`]) and the kernels of `dag`, the
    /// DAG the roster was derived from — no netlist is elaborated and no
    /// kernel is evaluated.
    ///
    /// One structure lowering and one block sweep serve both variants:
    /// under the guard no load is gated off, so the gated trace is the
    /// ungated one with only each buffer's gate-dependent closed forms
    /// (`read_enabled_cycles`, `idle_read_cycles`, `gated_off_cycles`)
    /// recomputed for its gate window.
    ///
    /// Returns `Ok(None)` unless the guard holds for this point: its
    /// datapath equals the recorded one (kernels, windows, widths and
    /// every stage's rate scale), and every gate window of `gating`
    /// covers all of its buffer's load cycles.
    /// Under the guard the point's stage images are the recorded ones,
    /// gated or not, so both traces are identical field for field — for
    /// rate-1 and multirate pipelines alike.
    ///
    /// # Errors
    ///
    /// [`InterpError::MissingBuffer`] when a windowed producer owns no
    /// line buffer; [`InterpError::NotStreamable`] for a schedule the
    /// program cannot stream.
    pub fn structure_traces(
        &self,
        dag: &Dag,
        roster: &Roster,
        gating: &GatingPlan,
    ) -> Result<Option<(ActivityTrace, ActivityTrace)>, InterpError> {
        if !self.datapath.matches(dag, roster) {
            return Ok(None);
        }
        let prog = EvalProgram::lower(RosterRef::from(roster), None, None)?;
        let gates = gate_windows(&roster.buffers, Some(gating));
        if !prog.gates_cover_loads(&gates) {
            return Ok(None);
        }
        let mut tr = TraceAcc::for_program(&prog);
        for st in &prog.stages {
            if st.has_module {
                tr.out_toggles[st.stage] = self.out_toggles[st.stage];
            }
            for (lei, ep) in prog.edges[st.edges.clone()].iter().enumerate() {
                match self.edge_bit_toggles(ep) {
                    Some(t) => tr.sra_toggles[st.edges.start + lei] = t,
                    None => return Ok(None),
                }
            }
        }
        prog.block_sweep(&mut tr);
        let ungated = prog.assemble_trace(tr);
        let mut gated = ungated.clone();
        for ((b, meta), &gate) in gated.buffers.iter_mut().zip(&prog.buffers).zip(&gates) {
            let duty = meta.duty(gate, prog.end);
            b.read_enabled_cycles = duty.read_enabled_cycles;
            b.idle_read_cycles = duty.idle_read_cycles;
            b.gated_off_cycles = duty.gated_off_cycles;
        }
        Ok(Some((ungated, gated)))
    }

    /// [`EvalProgram::edge_bit_toggles`] of an edge none of whose loads
    /// is gated off, from the cached sums: `Σ_u T(u) · min(width, L - u)`
    /// per window row, with every load but the tail's weighted by the
    /// full array width. `None` if a load stream or a tail this long was
    /// not recorded.
    fn edge_bit_toggles(&self, ep: &EdgeProg) -> Option<u64> {
        let width = ep.width as u64;
        let mut total = 0u64;
        for j in 0..ep.height as u32 {
            let sums = self.loads.get(&(ep.prod_stage, ep.lag + j, ep.ccy))?;
            let n_tail = (width - 1).min(sums.len) as usize;
            let tail = &sums.tail[sums.tail.len().checked_sub(n_tail)?..];
            let head = sums.total - tail.iter().map(|&t| t as u64).sum::<u64>();
            total += head * width;
            // The load `i` cycles into the tail shifts through
            // `n_tail - i` columns before the frame ends.
            total += tail
                .iter()
                .enumerate()
                .map(|(i, &t)| t as u64 * (n_tail - i) as u64)
                .sum::<u64>();
        }
        Some(total)
    }
}

impl EvalProgram {
    /// Guard fact three: every gate window covers all of each edge's
    /// load cycles, so no load is zeroed. An edge loads from its
    /// consumer's first row (at the consumer's start cycle) to the last
    /// producer column of its last active row `⌊(H-1)/ccy⌋·ccy`.
    /// `gates` holds the read-enable window of each buffer.
    fn gates_cover_loads(&self, gates: &[Option<(u64, u64)>]) -> bool {
        let w = self.w as u64;
        self.stages.iter().all(|st| {
            self.edges[st.edges.clone()].iter().all(|ep| {
                gates[ep.buf].is_none_or(|(gs, ge)| {
                    let pcx = ep.pscale.0;
                    let last_row = (self.h as u64 - 1) / ep.ccy * ep.ccy;
                    let last = st.start + last_row * w + (ep.pw as u64 - 1) * pcx;
                    gs <= st.start && last < ge
                })
            })
        })
    }

    /// The chained toggle sums of the load stream at row offset `k` of
    /// edge `ep`'s consumer cadence over the producer image `prod`,
    /// keeping the last `tail` per-load toggles.
    fn load_sums(&self, ep: &EdgeProg, prod: &[i64], k: u32, tail: usize) -> LoadSums {
        let (pw, ph, stride) = self.grid(ep.prod_stage);
        let pcy = ep.pscale.1 as usize;
        // Producer row of consumer base row `yb` (no division at rate 1).
        let prow = |yb: usize| if pcy == 1 { yb } else { yb / pcy };
        let h = self.h as usize;
        let n_rows = h.div_ceil(ep.ccy as usize);
        let len = n_rows * pw;
        let tail = tail.min(len);
        let mask = if self.pixel >= 64 {
            u64::MAX
        } else {
            (1u64 << self.pixel) - 1
        };
        let tg = |a: i64, b: i64| (((a ^ b) as u64) & mask).count_ones();
        let tail_start = len - tail;
        let mut sums = LoadSums {
            len: len as u64,
            total: 0,
            tail: Vec::with_capacity(tail),
        };
        let mut prev = 0i64;
        for (i, yb) in (0..h).step_by(ep.ccy as usize).enumerate() {
            let r = (prow(yb) + k as usize).min(ph - 1);
            let row = &prod[r * stride..r * stride + pw];
            if (i + 1) * pw <= tail_start {
                // Adjacent-pair form of the chain (vectorizes).
                sums.total += tg(prev, row[0]) as u64;
                sums.total += row.windows(2).map(|p| tg(p[0], p[1]) as u64).sum::<u64>();
            } else {
                let mut p = prev;
                for (x, &v) in row.iter().enumerate() {
                    let t = tg(p, v);
                    p = v;
                    sums.total += t as u64;
                    if i * pw + x >= tail_start {
                        sums.tail.push(t);
                    }
                }
            }
            prev = row[pw - 1];
        }
        sums
    }
}
