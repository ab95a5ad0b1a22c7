//! The fused steady-state execution engine.
//!
//! Most DSP kernels run the ring in a *steady state*: the active context's
//! configuration is static for long windows, local-mode Dnodes replay
//! ≤8-instruction loops, and the controller is halted or sitting in a
//! `wait`. The predecoded cache (`plan`) already removed the
//! per-cycle decode from that regime, but the stepper still pays per-cycle
//! dispatch: a mode match and sequencer index per Dnode, operand matches,
//! staged-write buffering, per-Dnode statistics branches, a controller
//! call and a host-interface call — every cycle, for work that is known in
//! advance to be identical for the whole window.
//!
//! This module compiles such a window *once* into a `FusedProgram` and
//! replays it *time-major*: each operation runs over a whole block of
//! cycles before the next operation starts, instead of the whole ring
//! stepping once per cycle.
//!
//! * **Blocks.** A burst of `k` cycles is cut into blocks of up to
//!   `BLOCK` cycles. With the configuration frozen, the ring's steady
//!   state is a static dataflow schedule: `compile` orders the ops by
//!   read-after-write dependency once per program, and each op whose
//!   result does not feed back into itself runs over the block as one
//!   slice kernel with the ALU `match` hoisted out of the time loop, so
//!   `add`, `sub`, `mov` and friends vectorize.
//! * **Histories.** Every piece of state an op reads is a *column*: one
//!   value per cycle of the block (plus lanes, see below). A Dnode's output
//!   column holds its output after every cycle, a register column its
//!   register, the bus column the bus. Operands are shifted views into
//!   these columns: reading the upstream output at cycle `t` is position
//!   `t` of its column, a feedback-pipeline tap at stage `s` is the same
//!   column `s + 1` positions earlier. The feedback pipelines therefore
//!   *are* the output histories: at burst entry each output column is
//!   prefixed with its pipeline's contents, and the architectural `pipe`
//!   state is rebuilt from the column tails at scatter. Between blocks the
//!   last `depth + 1` positions rotate to the front.
//! * **Cursors.** A host-input FIFO and the source stream behind it form
//!   one queue `fifo ++ source`; replay tracks `popped`/`filled` cursors
//!   into it and copies each cycle's head values into the FIFO's column,
//!   a contiguous slice per run of non-empty cycles. The queues themselves
//!   are only cut at scatter. Captures drain from the output columns
//!   straight into the sink `Vec`s at the end of each block. On a direct
//!   link host traffic does not depend on data values, so it is plain
//!   cursor arithmetic. A metered link shares one rotating allowance
//!   across ports, so its bursts run one-cycle blocks through the
//!   machine's own host step instead.
//! * **Group step.** What cannot run as a whole-block kernel — ops in a
//!   dependency cycle (a MAC accumulating into its own register, two ops
//!   feeding each other), and every op of a program whose local
//!   sequencers give it a period above one (phase-varying ops, bus drivers
//!   that hold the bus on driverless phases) — runs inside the same block
//!   engine as a per-cycle step over the same histories. A single op whose
//!   only cycle is through its own destination still sweeps the block in
//!   one pass with its `match` hoisted.
//! * **Lanes.** [`lockstep_burst`] steps N machines that share one compiled
//!   program in lockstep. The lanes are the inner dimension of every
//!   column (position-major, lane-minor), so a kernel over a block is one
//!   contiguous slice of `cycles * lanes` words whatever the lane count,
//!   and the batch runner's 16-lane groups get the same vector kernels.
//!
//! Between bursts the machine always holds canonical architectural state,
//! so checkpoints, traces and accessors need no special cases.
//!
//! # Entry and deoptimization
//!
//! A burst is entered only from [`crate::RingMachine::run`] /
//! [`crate::RingMachine::run_until_halt`] (never from
//! [`crate::RingMachine::step`], so single-cycle stepping and per-cycle
//! tracing always take the decoded path), and only when the machine is
//! *quiescent*: controller halted or mid-`wait`, no fault injector armed,
//! no watchdog, no staged context switch, and the configuration epochs
//! stable for `DETECTION_WINDOW` cycles. Any reconfiguration write, mode
//! flip, sequencer write or context switch bumps an epoch the engine
//! stamps its program with, which invalidates the program
//! ([`crate::Stats::fused_deopts`]) and falls back to the decoded path;
//! arming a fault injector or watchdog does the same. Since nothing that
//! can fault executes inside a burst (no controller instructions, no
//! configuration writes, no detection sweeps), a burst cannot fail
//! mid-flight — the PR-3 cycle-boundary fail-stop contract is preserved
//! bit-for-bit by construction.

use std::collections::VecDeque;

use systolic_ring_isa::dnode::{AluOp, DnodeMode};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::controller::CtrlState;
use crate::dnode::DnodeState;
use crate::machine::RingMachine;
use crate::params::LinkModel;
use crate::plan::{CtxPlan, DecodedOp, FastSrc};
use crate::switch::PushOutcome;

/// Cycles the configuration epochs must have been stable before a window
/// is considered steady-state and compiled. Also guarantees the decoded
/// path (and its cache counters) is exercised at the start of every run
/// and after every reconfiguration, so short steady regions between
/// context rewrites still pay for their decode-cache refills before the
/// fused engine takes over.
pub(crate) const DETECTION_WINDOW: u64 = 32;

/// Minimum burst length worth the gather/scatter round trip.
pub(crate) const MIN_BURST: u64 = 8;

/// Cycles per replay block: long enough that a kernel's per-block set-up
/// is noise next to its time loop, short enough that a block's columns
/// stay in the first-level cache for single-machine bursts.
const BLOCK: usize = 256;

/// Sentinel for "no op / no capture / not read by the program".
const NONE32: u32 = u32::MAX;

/// The configuration-epoch fingerprint a [`FusedProgram`] is valid for.
///
/// Every mutation that could change compiled behaviour bumps one of these
/// monotonic clocks (see [`crate::config::ConfigLayer`] and
/// [`crate::plan::DecodedPlan`]); equality therefore proves the program
/// still matches the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FusedStamps {
    ctx: usize,
    cfg_epoch: u64,
    capture_epoch: u64,
    modes_clock: u64,
    seq_clock: u64,
}

/// A shifted view into a history column: position `shift + t` of column
/// `id` is the value for block cycle `t`.
///
/// Column ids are laid out kind by kind: Dnode outputs (`0..dnodes`, the
/// output history behind a `depth`-stage pipeline prefix), then the
/// registers the program touches, the bus, the host-input FIFOs it reads
/// and its constants (id 0 of those is zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Col {
    id: u32,
    shift: u32,
}

/// One lowered Dnode operation: `dst[..ndst] = alu(src[0], src[1], src[2])`
/// with `src[2]` the accumulator (the zero column when unused).
#[derive(Clone, Copy, Debug, PartialEq)]
struct FusedOp {
    alu: AluOp,
    src: [Col; 3],
    /// Written columns, primary first; the others receive copies.
    dst: [Col; 3],
    ndst: u8,
}

impl FusedOp {
    fn dsts(&self) -> &[Col] {
        &self.dst[..usize::from(self.ndst)]
    }
}

/// Per-phase slices into the program's flat tables.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PhaseMeta {
    /// Range into [`FusedProgram::ops`].
    ops: (u32, u32),
    /// Range into [`FusedProgram::incs`].
    incs: (u32, u32),
    /// Range into [`FusedProgram::holds`].
    holds: (u32, u32),
    /// More than one Dnode drives the bus this phase.
    conflict: bool,
}

/// One entry of a period-1 program's block schedule, in dependency order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// One op over the whole block as a slice kernel.
    Kernel(u32),
    /// The ops `group_ops[range]` form a dependency cycle and step cycle
    /// by cycle; `sweep` marks a single op whose cycle runs only through
    /// its primary destination, which sweeps the block in one pass.
    Group { ops: (u32, u32), sweep: bool },
    /// Period > 1: each cycle runs its phase's ops, then the phase's holds.
    Phased,
}

/// A compiled steady-state window: the whole ring's behaviour for one
/// configuration epoch, scheduled over `period` phases.
///
/// Derives `PartialEq` so the lane-fusion path can prove two machines
/// compiled *identical* programs before stepping them in lockstep.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FusedProgram {
    /// `lcm` of the local-mode sequencer limits (1 with none in local
    /// mode).
    pub(crate) period: u32,
    /// Geometry snapshot the column ids were computed against.
    dnodes: u32,
    width: u32,
    depth: u32,
    switches: u32,
    /// All phases' operations (those with a destination), concatenated.
    ops: Vec<FusedOp>,
    phases: Vec<PhaseMeta>,
    /// Block schedule: dependency-ordered kernels and groups (period 1),
    /// or a single [`Step::Phased`].
    schedule: Vec<Step>,
    /// Op indices of the [`Step::Group`]s.
    group_ops: Vec<u32>,
    /// Per-phase statistics increments: `(dnode, uses multiplier)`.
    incs: Vec<(u32, bool)>,
    /// Per-phase columns written in some other phase but not this one:
    /// they hold their previous value.
    holds: Vec<Col>,
    /// Flat register indices (`dnode * 4 + reg`) with a column.
    regs: Vec<u32>,
    /// Host-input FIFOs the program reads: `(switch, port)`.
    slots: Vec<(u32, u32)>,
    /// Operand reads of each slot per phase (`phase * slots + slot`); an
    /// empty FIFO underflows once per operand read.
    slot_reads: Vec<u32>,
    /// Constant columns' values (index 0 is zero).
    consts: Vec<Word16>,
    /// Per column id: written by some op (otherwise constant over a burst).
    written: Vec<bool>,
    /// Host captures (static across phases): `(switch, port, src dnode)`.
    captures: Vec<(u32, u32, u32)>,
    /// Local-mode Dnodes: `(dnode, limit, counter at phase 0)`.
    locals: Vec<(u32, u8, u8)>,
    /// Upstream Dnode feeding each `(switch, lane)` pipeline slot.
    pipe_rows: Vec<u32>,
}

impl FusedProgram {
    /// `true` when `phase` lines up with every local sequencer counter.
    fn phase_matches(&self, phase: u32, dnodes: &[DnodeState]) -> bool {
        self.locals.iter().all(|&(d, limit, base)| {
            dnodes[d as usize].sequencer().counter()
                == ((u32::from(base) + phase) % u32::from(limit)) as u8
        })
    }

    /// Finds the phase matching the machine's current sequencer counters,
    /// trying `hint` first (the phase a previous burst stopped before).
    pub(crate) fn find_phase(&self, hint: u32, dnodes: &[DnodeState]) -> Option<u32> {
        let hint = hint % self.period;
        if self.phase_matches(hint, dnodes) {
            return Some(hint);
        }
        (0..self.period).find(|&p| self.phase_matches(p, dnodes))
    }

    fn nd(&self) -> usize {
        self.dnodes as usize
    }

    fn bus_col(&self) -> usize {
        self.nd() + self.regs.len()
    }

    fn host_col(&self, slot: usize) -> usize {
        self.bus_col() + 1 + slot
    }

    fn const_col(&self, index: usize) -> usize {
        self.host_col(self.slots.len()) + index
    }
}

/// Per-machine fused-engine state: the compiled program, the epoch stamps
/// it is valid for, and the stability bookkeeping that gates entry.
#[derive(Clone, Debug, Default)]
pub(crate) struct FusedEngine {
    program: Option<FusedProgram>,
    /// Epoch fingerprint observed at the last quiescent check.
    stamps: Option<FusedStamps>,
    /// Cycles executed since the stamps last changed.
    stable_cycles: u64,
    /// Machine cycle of the last quiescent check.
    last_seen_cycle: u64,
    /// Entry phase prepared for the imminent burst.
    entry_phase: u32,
    /// Phase the next burst is expected to start at (hint).
    next_phase: u32,
    /// Replay buffers, reused across bursts.
    scratch: BlockScratch,
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

/// Index of `x` in `v`, appending it first if absent.
fn intern<T: PartialEq>(v: &mut Vec<T>, x: T) -> u32 {
    match v.iter().position(|y| *y == x) {
        Some(i) => i as u32,
        None => {
            v.push(x);
            v.len() as u32 - 1
        }
    }
}

/// Compiles the active context's decoded plan into a [`FusedProgram`],
/// with phase 0 anchored at the local sequencers' *current* counters.
/// Shared by the fused engine and the AOT phase cache (`crate::aot`).
pub(crate) fn compile(
    cp: &CtxPlan,
    dnodes: &[DnodeState],
    g: RingGeometry,
    depth: usize,
) -> FusedProgram {
    let width = g.width();
    let nd = g.dnodes();
    let mut locals: Vec<(u32, u8, u8)> = Vec::new();
    for &d32 in &cp.work {
        let d = d32 as usize;
        if dnodes[d].mode() == DnodeMode::Local {
            let seq = dnodes[d].sequencer();
            locals.push((d32, seq.limit(), seq.counter()));
        }
    }
    let period = locals
        .iter()
        .fold(1u32, |acc, &(_, limit, _)| lcm(acc, u32::from(limit)));
    let op_at = |d: usize, phase: u32| -> &DecodedOp {
        match dnodes[d].mode() {
            DnodeMode::Global => &cp.ops[d],
            DnodeMode::Local => {
                let &(_, limit, base) = locals
                    .iter()
                    .find(|x| x.0 as usize == d)
                    .expect("local Dnode recorded");
                let lp = cp.local[d].as_ref().expect("local plan refreshed");
                &lp.ops[((u32::from(base) + phase) % u32::from(limit)) as usize]
            }
        }
    };

    // Pass 1: the registers, host FIFOs and constants that need columns.
    let mut regs: Vec<u32> = Vec::new();
    let mut slots: Vec<(u32, u32)> = Vec::new();
    let mut consts: Vec<Word16> = vec![Word16::ZERO];
    for phase in 0..period {
        for &d32 in &cp.work {
            let d = d32 as usize;
            let op = op_at(d, phase);
            if op.skip {
                continue;
            }
            for src in [op.a, op.b] {
                match src {
                    FastSrc::Reg(r) => {
                        intern(&mut regs, (d * 4 + r.index()) as u32);
                    }
                    FastSrc::HostIn { switch, port } => {
                        intern(&mut slots, (switch as u32, port as u32));
                    }
                    FastSrc::Const(word) => {
                        intern(&mut consts, word);
                    }
                    FastSrc::Bus | FastSrc::Out(_) | FastSrc::Pipe { .. } => {}
                }
            }
            for r in op.acc.iter().chain(op.wr_reg.iter()) {
                intern(&mut regs, (d * 4 + r.index()) as u32);
            }
        }
    }
    let pipe_rows: Vec<u32> = (0..g.switches())
        .flat_map(|s| {
            let layer = g.upstream_layer(s);
            (0..width).map(move |lane| g.dnode_index(layer, lane) as u32)
        })
        .collect();

    let reg_col = |flat: usize| {
        (nd + regs
            .iter()
            .position(|&r| r as usize == flat)
            .expect("interned")) as u32
    };
    let bus = (nd + regs.len()) as u32;
    let slot_of = |key: (u32, u32)| slots.iter().position(|&s| s == key).expect("interned");
    let host0 = bus as usize + 1;
    let const0 = host0 + slots.len();
    let ncols = const0 + consts.len();
    let lower = |src: FastSrc, d: usize| -> Col {
        let (id, shift) = match src {
            FastSrc::Const(word) => (
                const0 + consts.iter().position(|&c| c == word).expect("interned"),
                0,
            ),
            FastSrc::Reg(r) => (reg_col(d * 4 + r.index()) as usize, 0),
            FastSrc::Bus => (bus as usize, 0),
            FastSrc::Out(index) => (index, depth),
            FastSrc::Pipe {
                switch,
                stage,
                lane,
            } => (pipe_rows[switch * width + lane] as usize, depth - 1 - stage),
            FastSrc::HostIn { switch, port } => (host0 + slot_of((switch as u32, port as u32)), 0),
        };
        Col {
            id: id as u32,
            shift: shift as u32,
        }
    };
    let zero = Col {
        id: const0 as u32,
        shift: 0,
    };

    // Pass 2: lower every phase's ops.
    let mut ops: Vec<FusedOp> = Vec::new();
    let mut phases = Vec::with_capacity(period as usize);
    let mut incs: Vec<(u32, bool)> = Vec::new();
    let mut slot_reads = vec![0u32; period as usize * slots.len()];
    let mut written = vec![false; ncols];
    for phase in 0..period {
        let ops_start = ops.len() as u32;
        let incs_start = incs.len() as u32;
        let mut drivers = 0u32;
        for &d32 in &cp.work {
            let d = d32 as usize;
            let op = op_at(d, phase);
            if op.skip {
                continue;
            }
            for src in [op.a, op.b] {
                if let FastSrc::HostIn { switch, port } = src {
                    slot_reads
                        [phase as usize * slots.len() + slot_of((switch as u32, port as u32))] += 1;
                }
            }
            if op.active {
                incs.push((d32, op.mult));
            }
            let mut dst = [zero; 3];
            let mut ndst = 0usize;
            if op.wr_out {
                dst[ndst] = Col {
                    id: d32,
                    shift: depth as u32 + 1,
                };
                ndst += 1;
            }
            if let Some(r) = op.wr_reg {
                dst[ndst] = Col {
                    id: reg_col(d * 4 + r.index()),
                    shift: 1,
                };
                ndst += 1;
            }
            if op.wr_bus {
                // No controller inside a burst: the lowest-index driver wins.
                drivers += 1;
                if drivers == 1 {
                    dst[ndst] = Col { id: bus, shift: 1 };
                    ndst += 1;
                }
            }
            if ndst == 0 {
                continue;
            }
            for c in &dst[..ndst] {
                written[c.id as usize] = true;
            }
            ops.push(FusedOp {
                alu: op.alu,
                src: [
                    lower(op.a, d),
                    lower(op.b, d),
                    op.acc.map_or(zero, |r| Col {
                        id: reg_col(d * 4 + r.index()),
                        shift: 0,
                    }),
                ],
                dst,
                ndst: ndst as u8,
            });
        }
        phases.push(PhaseMeta {
            ops: (ops_start, ops.len() as u32),
            incs: (incs_start, incs.len() as u32),
            holds: (0, 0),
            conflict: drivers >= 2,
        });
    }

    // Columns written on some phases hold on the others.
    let mut holds = Vec::new();
    if period > 1 {
        for pm in &mut phases {
            let here: Vec<Col> = ops[pm.ops.0 as usize..pm.ops.1 as usize]
                .iter()
                .flat_map(|op| op.dsts().iter().copied())
                .collect();
            let start = holds.len() as u32;
            for (id, _) in written.iter().enumerate().filter(|&(_, &w)| w) {
                if here.iter().all(|c| c.id as usize != id) {
                    let shift = if id < nd { depth as u32 + 1 } else { 1 };
                    holds.push(Col {
                        id: id as u32,
                        shift,
                    });
                }
            }
            pm.holds = (start, holds.len() as u32);
        }
    }

    let (schedule, group_ops) = if period == 1 {
        schedule(&mut ops, ncols)
    } else {
        (vec![Step::Phased], Vec::new())
    };

    let captures = cp
        .captures
        .iter()
        .map(|c| (c.switch as u32, c.port as u32, c.src as u32))
        .collect();

    FusedProgram {
        period,
        dnodes: nd as u32,
        width: width as u32,
        depth: depth as u32,
        switches: g.switches() as u32,
        ops,
        phases,
        schedule,
        group_ops,
        incs,
        holds,
        regs,
        slots,
        slot_reads,
        consts,
        written,
        captures,
        locals,
        pipe_rows,
    }
}

/// Orders a period-1 program's ops by read-after-write dependency: each
/// strongly connected component of the "writes a column the other reads"
/// graph becomes one step, writers before readers. A single op without a
/// self-dependency is a [`Step::Kernel`]; everything else is a
/// [`Step::Group`].
fn schedule(ops: &mut [FusedOp], ncols: usize) -> (Vec<Step>, Vec<u32>) {
    let mut writer = vec![NONE32; ncols];
    for (i, op) in ops.iter().enumerate() {
        for c in op.dsts() {
            writer[c.id as usize] = i as u32;
        }
    }
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); ops.len()];
    for (v, op) in ops.iter().enumerate() {
        for s in &op.src {
            let u = writer[s.id as usize];
            if u != NONE32 && !succ[u as usize].contains(&(v as u32)) {
                succ[u as usize].push(v as u32);
            }
        }
    }
    let mut steps = Vec::new();
    let mut group_ops = Vec::new();
    // Tarjan emits components readers-first; replay wants writers first.
    for comp in tarjan(&succ).into_iter().rev() {
        let v = comp[0] as usize;
        if comp.len() == 1 && !succ[v].contains(&comp[0]) {
            steps.push(Step::Kernel(comp[0]));
            continue;
        }
        let mut sweep = false;
        if comp.len() == 1 {
            // A self-loop sweeps the block in one pass when it reads back
            // only one of its destinations: make that one primary.
            let op = &mut ops[v];
            let fed: Vec<usize> = (0..usize::from(op.ndst))
                .filter(|&i| op.src.iter().any(|s| s.id == op.dst[i].id))
                .collect();
            if let [i] = fed[..] {
                op.dst.swap(0, i);
                sweep = true;
            }
        }
        let start = group_ops.len() as u32;
        group_ops.extend_from_slice(&comp);
        steps.push(Step::Group {
            ops: (start, group_ops.len() as u32),
            sweep,
        });
    }
    (steps, group_ops)
}

/// Strongly connected components of the graph `succ`, in reverse
/// topological order (every component after all it reaches).
fn tarjan(succ: &[Vec<u32>]) -> Vec<Vec<u32>> {
    struct State<'a> {
        succ: &'a [Vec<u32>],
        index: Vec<u32>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<u32>,
        next: u32,
        out: Vec<Vec<u32>>,
    }
    fn visit(st: &mut State<'_>, v: usize) {
        st.index[v] = st.next;
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v as u32);
        st.on_stack[v] = true;
        for i in 0..st.succ[v].len() {
            let w = st.succ[v][i] as usize;
            if st.index[w] == NONE32 {
                visit(st, w);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w]);
            }
        }
        if st.low[v] == st.index[v] {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().expect("component root on stack");
                st.on_stack[w as usize] = false;
                comp.push(w);
                if w as usize == v {
                    break;
                }
            }
            st.out.push(comp);
        }
    }
    let n = succ.len();
    let mut st = State {
        succ,
        index: vec![NONE32; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v] == NONE32 {
            visit(&mut st, v);
        }
    }
    st.out
}

/// Runs `$body` with `$f` bound to `$alu`'s evaluation function, so the
/// `match` on the operation runs once per call rather than per word.
macro_rules! with_alu {
    ($alu:expr, $f:ident => $body:expr) => {
        with_alu!(@arms $alu, $f, $body; Nop PassA PassB Add AddSat Sub SubSat Neg Abs
            AbsDiff And Or Xor Not Shl Shr Asr Min Max MinU MaxU Slt SltU Mul MulHi
            MulHiU Mac MacSat Msu)
    };
    (@arms $alu:expr, $f:ident, $body:expr; $($op:ident)*) => {
        match $alu {
            $(AluOp::$op => {
                let $f = |a: Word16, b: Word16, c: Word16| AluOp::$op.eval(a, b, c);
                $body
            })*
        }
    };
}

/// `out[i] = f(a[i], b[i], c[i])` over equal-length slices.
#[inline(always)]
fn map3(
    f: impl Fn(Word16, Word16, Word16) -> Word16,
    a: &[Word16],
    b: &[Word16],
    c: &[Word16],
    out: &mut [Word16],
) {
    for (((o, &a), &b), &c) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(a, b, c);
    }
}

/// The `len` words at `start`, which lie outside the split-out range
/// `[lo.len(), lo.len() + gap)`.
fn outside<'a>(
    lo: &'a [Word16],
    hi: &'a [Word16],
    gap: usize,
    start: usize,
    len: usize,
) -> &'a [Word16] {
    if start < lo.len() {
        &lo[start..start + len]
    } else {
        &hi[start - lo.len() - gap..][..len]
    }
}

/// Replay buffers for one burst, kept in the engine and reused so a burst
/// allocates nothing once warm. Pure scratch: cloning a machine (a
/// checkpoint) starts the clone with empty buffers.
#[derive(Default)]
pub(crate) struct BlockScratch {
    /// Every column of the burst, back to back (see [`Col`]).
    hist: Vec<Word16>,
    /// Start of each column in `hist`.
    bases: Vec<usize>,
    /// Host-side cursors, one set per lane.
    hosts: Vec<LaneHost>,
}

impl Clone for BlockScratch {
    fn clone(&self) -> Self {
        BlockScratch::default()
    }
}

impl std::fmt::Debug for BlockScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockScratch")
            .field("words", &self.hist.capacity())
            .finish()
    }
}

/// A host-input FIFO during a burst: a window `[popped, filled)` of the
/// queue `fifo ++ source`, whose first `len0` words were in the FIFO at
/// entry.
struct InPort {
    switch: u32,
    port: u32,
    /// Program slot reading this FIFO, or [`NONE32`] when only the host
    /// fills it.
    slot: u32,
    popped: usize,
    filled: usize,
    len0: usize,
    total: usize,
    cap: usize,
}

/// A host-output FIFO that captures or drains during a burst.
struct OutPort {
    switch: u32,
    port: u32,
    /// Captured Dnode, or [`NONE32`].
    src: u32,
    open: bool,
    cap: usize,
}

/// One lane's host-side replay state.
#[derive(Default)]
struct LaneHost {
    ins: Vec<InPort>,
    outs: Vec<OutPort>,
    /// A metered link shares one allowance across ports in a rotating
    /// order, so its bursts run one-cycle blocks through the machine's own
    /// host step; a direct link's ports are independent and advance in
    /// closed-form runs.
    metered: bool,
    under: u64,
    over: u64,
    words_in: u64,
    words_out: u64,
}

/// Copies queue words `[from, from + run)` of `fifo ++ source` into one
/// lane of a column, starting at element `at` with stride `l`.
fn copy_queue(
    fifo: &VecDeque<Word16>,
    source: &VecDeque<Word16>,
    from: usize,
    run: usize,
    col: &mut [Word16],
    at: usize,
    l: usize,
) {
    let (f0, f1) = fifo.as_slices();
    let (s0, s1) = source.as_slices();
    let mut skip = from;
    let mut left = run;
    let mut at = at;
    for seg in [f0, f1, s0, s1] {
        if left == 0 {
            break;
        }
        if skip >= seg.len() {
            skip -= seg.len();
            continue;
        }
        let part = &seg[skip..seg.len().min(skip + left)];
        skip = 0;
        if l == 1 {
            col[at..at + part.len()].copy_from_slice(part);
        } else {
            for (i, &w) in part.iter().enumerate() {
                col[at + i * l] = w;
            }
        }
        at += part.len() * l;
        left -= part.len();
    }
}

/// The queue word at `i` of `fifo ++ source`.
fn queue_word(fifo: &VecDeque<Word16>, source: &VecDeque<Word16>, i: usize) -> Word16 {
    if i < fifo.len() {
        fifo[i]
    } else {
        source[i - fifo.len()]
    }
}

/// Replays `program` for `k` cycles over all `lanes` in lockstep,
/// starting at phase `entry`. Every lane must have been prepared
/// (validated + entered) by [`RingMachine::prepare_fused`], and for
/// multi-lane calls the prepared programs must be equal.
///
/// Infallible by construction: nothing inside a burst can raise a
/// [`crate::SimError`] (no controller execution, no configuration writes,
/// no fault machinery).
///
/// `aot` selects which engine's entry/cycle counters account the burst
/// ([`crate::Stats::aot_entries`] vs [`crate::Stats::fused_entries`]); the
/// architectural effects are identical.
pub(crate) fn execute(
    program: &FusedProgram,
    entry: u32,
    lanes: &mut [&mut RingMachine],
    k: u64,
    aot: bool,
    scratch: &mut BlockScratch,
) {
    debug_assert!(k >= 1 && !lanes.is_empty());
    let l = lanes.len();
    // Columns only need room for the longest block of this burst.
    let cap = (k as usize).min(BLOCK);
    scratch.gather(program, lanes, k, cap);
    let block = if scratch.hosts[..l].iter().any(|h| h.metered) {
        1
    } else {
        BLOCK
    };
    let mut done = 0u64;
    while done < k {
        let n = ((k - done) as usize).min(block);
        let phase = ((u64::from(entry) + done) % u64::from(program.period)) as u32;
        let BlockScratch { hist, bases, hosts } = scratch;
        for (lane, (m, h)) in lanes.iter().zip(hosts.iter_mut()).enumerate() {
            h.inputs(program, m, hist, bases, phase, n, l, lane);
        }
        run_block(program, hist, bases, phase, n, l);
        for (lane, (m, h)) in lanes.iter_mut().zip(hosts.iter_mut()).enumerate() {
            h.outputs(program, m, hist, bases, phase, n, l, lane);
        }
        // The block's last `depth + 1` output positions (and last register
        // and bus positions) become the next block's prefix.
        let depth = program.depth as usize;
        for (id, &base) in bases.iter().enumerate().take(program.bus_col() + 1) {
            let keep = if id < program.nd() { depth + 1 } else { 1 };
            hist.copy_within(base + n * l..base + (n + keep) * l, base);
        }
        done += n as u64;
    }
    scratch.scatter(program, entry, lanes, k, aot);
}

/// Runs one block of `n` cycles of the ring's schedule over the columns.
fn run_block(
    program: &FusedProgram,
    hist: &mut [Word16],
    bases: &[usize],
    phase: u32,
    n: usize,
    l: usize,
) {
    for step in &program.schedule {
        match *step {
            Step::Kernel(i) => kernel(hist, bases, &program.ops[i as usize], n, l),
            Step::Group { ops, sweep: true } => {
                let op = &program.ops[program.group_ops[ops.0 as usize] as usize];
                sequential(hist, bases, op, 0, n, l);
            }
            Step::Group { ops, sweep: false } => {
                let group = &program.group_ops[ops.0 as usize..ops.1 as usize];
                for t in 0..n {
                    for &i in group {
                        step_cycle(hist, bases, &program.ops[i as usize], t, l);
                    }
                }
            }
            Step::Phased => {
                let mut phase = phase as usize;
                for t in 0..n {
                    let pm = &program.phases[phase];
                    for op in &program.ops[pm.ops.0 as usize..pm.ops.1 as usize] {
                        step_cycle(hist, bases, op, t, l);
                    }
                    for h in &program.holds[pm.holds.0 as usize..pm.holds.1 as usize] {
                        let at = bases[h.id as usize] + (h.shift as usize + t) * l;
                        if l == 1 {
                            hist[at] = hist[at - 1];
                        } else {
                            hist.copy_within(at - l..at, at);
                        }
                    }
                    phase += 1;
                    if phase == program.period as usize {
                        phase = 0;
                    }
                }
            }
        }
    }
}

/// Runs `op` over a block of `n` cycles as one slice kernel. The op must
/// not read any column it writes.
fn kernel(hist: &mut [Word16], bases: &[usize], op: &FusedOp, n: usize, l: usize) {
    let len = n * l;
    let at = |c: Col| bases[c.id as usize] + c.shift as usize * l;
    let d = at(op.dst[0]);
    {
        let (lo, rest) = hist.split_at_mut(d);
        let (out, hi) = rest.split_at_mut(len);
        let a = outside(lo, hi, len, at(op.src[0]), len);
        let b = outside(lo, hi, len, at(op.src[1]), len);
        let c = outside(lo, hi, len, at(op.src[2]), len);
        with_alu!(op.alu, f => map3(f, a, b, c, out));
    }
    for &x in &op.dsts()[1..] {
        hist.copy_within(d..d + len, at(x));
    }
}

/// Runs `op` for cycles `[t0, t0 + cycles)` in time order, reading back
/// anything it (or an earlier op of its group) wrote in earlier cycles.
fn sequential(
    hist: &mut [Word16],
    bases: &[usize],
    op: &FusedOp,
    t0: usize,
    cycles: usize,
    l: usize,
) {
    let len = cycles * l;
    let at = |c: Col| bases[c.id as usize] + (c.shift as usize + t0) * l;
    let (a, b, c, d) = (at(op.src[0]), at(op.src[1]), at(op.src[2]), at(op.dst[0]));
    with_alu!(op.alu, f => {
        for i in 0..len {
            hist[d + i] = f(hist[a + i], hist[b + i], hist[c + i]);
        }
    });
    for &x in &op.dsts()[1..] {
        hist.copy_within(d..d + len, at(x));
    }
}

/// Runs cycle `t` of `op` on every lane: the group step's unit of work.
/// A single lane evaluates one word directly; more lanes sweep them with
/// the `match` hoisted.
#[inline]
fn step_cycle(hist: &mut [Word16], bases: &[usize], op: &FusedOp, t: usize, l: usize) {
    if l > 1 {
        sequential(hist, bases, op, t, 1, l);
        return;
    }
    let at = |c: Col| bases[c.id as usize] + c.shift as usize + t;
    let word = op.alu.eval(
        hist[at(op.src[0])],
        hist[at(op.src[1])],
        hist[at(op.src[2])],
    );
    for &x in op.dsts() {
        hist[at(x)] = word;
    }
}

impl BlockScratch {
    /// Lays out the columns for `cap`-cycle blocks over `lanes.len()`
    /// lanes and loads every lane's machine state into them.
    fn gather(
        &mut self,
        program: &FusedProgram,
        lanes: &mut [&mut RingMachine],
        k: u64,
        cap: usize,
    ) {
        let l = lanes.len();
        let nd = program.nd();
        let depth = program.depth as usize;
        let width = program.width as usize;
        let ncols = program.written.len();
        self.bases.clear();
        let mut total = 0usize;
        for id in 0..ncols {
            self.bases.push(total);
            total += l * if id < nd {
                depth + 1 + cap
            } else if id <= program.bus_col() {
                1 + cap
            } else {
                cap
            };
        }
        self.hist.resize(total, Word16::ZERO);
        let (hist, bases) = (&mut self.hist, &self.bases);

        // Constants are lane-independent: fill whole columns.
        for (i, &word) in program.consts.iter().enumerate() {
            let base = bases[program.const_col(i)];
            hist[base..base + cap * l].fill(word);
        }
        // A column no op writes is constant over the burst.
        let fill = |hist: &mut [Word16], id: usize, from: usize, lane: usize, word: Word16| {
            if !program.written[id] {
                let col = &mut hist[bases[id] + from * l..][..cap * l];
                if l == 1 {
                    col.fill(word);
                } else {
                    col.iter_mut().skip(lane).step_by(l).for_each(|w| *w = word);
                }
            }
        };
        self.hosts.resize_with(l, LaneHost::default);
        for (lane, m) in lanes.iter_mut().enumerate() {
            // Output columns: pipeline contents (oldest first), then the
            // output register.
            for s in 0..program.switches as usize {
                for w in 0..width {
                    let d = program.pipe_rows[s * width + w] as usize;
                    let base = bases[d];
                    for st in 0..depth {
                        hist[base + (depth - 1 - st) * l + lane] = m.switches[s].pipe.read(st, w);
                    }
                }
            }
            for d in 0..nd {
                let out = m.dnodes[d].out();
                hist[bases[d] + depth * l + lane] = out;
                fill(hist, d, depth + 1, lane, out);
            }
            for (i, &flat) in program.regs.iter().enumerate() {
                let id = nd + i;
                let word = m.dnodes[flat as usize / 4].regs_raw()[flat as usize % 4];
                hist[bases[id] + lane] = word;
                fill(hist, id, 1, lane, word);
            }
            let bus = program.bus_col();
            hist[bases[bus] + lane] = m.bus;
            fill(hist, bus, 1, lane, m.bus);
            self.hosts[lane].gather(program, m, k);
        }
    }

    /// Writes the burst's final state back into every lane's machine and
    /// accounts the burst's statistics.
    fn scatter(
        &mut self,
        program: &FusedProgram,
        entry: u32,
        lanes: &mut [&mut RingMachine],
        k: u64,
        aot: bool,
    ) {
        let l = lanes.len();
        let nd = program.nd();
        let depth = program.depth as usize;
        let width = program.width as usize;
        let period = program.period as usize;
        let (hist, bases) = (&self.hist, &self.bases);

        // How many times each phase executed over the k cycles from
        // `entry`, and the last burst cycle each Dnode's output was written.
        let mut execs = vec![k / period as u64; period];
        for i in 0..(k % period as u64) as usize {
            execs[(entry as usize + i) % period] += 1;
        }
        let mut stamp: Vec<Option<u64>> = vec![None; nd];
        for (p, pm) in program.phases.iter().enumerate() {
            if execs[p] == 0 {
                continue;
            }
            let first = (p + period - entry as usize) as u64 % period as u64;
            let last = first + (k - 1 - first) / period as u64 * period as u64;
            for op in &program.ops[pm.ops.0 as usize..pm.ops.1 as usize] {
                let d = op.dsts().iter().find(|c| (c.id as usize) < nd);
                if let Some(c) = d {
                    let s = &mut stamp[c.id as usize];
                    *s = (*s).max(Some(last));
                }
            }
        }

        for (lane, m) in lanes.iter_mut().enumerate() {
            let base_cycle = m.cycle;
            for d in 0..nd {
                let mut r = m.dnodes[d].regs_raw();
                for (i, &flat) in program.regs.iter().enumerate() {
                    if flat as usize / 4 == d {
                        r[flat as usize % 4] = hist[bases[nd + i] + lane];
                    }
                }
                let out = hist[bases[d] + depth * l + lane];
                let written = stamp[d]
                    .map(|t| base_cycle + t)
                    .or(m.dnodes[d].out_written_at());
                m.dnodes[d].scatter_raw(r, out, written);
            }
            for s in 0..program.switches as usize {
                for w in 0..width {
                    let base = bases[program.pipe_rows[s * width + w] as usize];
                    for st in 0..depth {
                        m.switches[s]
                            .pipe
                            .poke(st, w, hist[base + (depth - 1 - st) * l + lane]);
                    }
                }
            }
            m.bus = hist[bases[program.bus_col()] + lane];
            self.hosts[lane].scatter(m, k);
            for &(d, limit, base) in &program.locals {
                let cpt = ((u64::from(base) + u64::from(entry) + k) % u64::from(limit)) as u8;
                m.dnodes[d as usize].sequencer_mut().set_counter_raw(cpt);
                m.stats.dnodes[d as usize].local_cycles += k;
            }
            // The controller spent the whole burst halted or waiting: every
            // cycle is a stall cycle, and a pending wait shrinks by k.
            if let CtrlState::Waiting(_) = m.controller.state() {
                m.controller.skip_wait(k);
            }
            m.stats.ctrl_stall_cycles += k;
            for (p, &n) in execs.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let pm = &program.phases[p];
                for &(d, mult) in &program.incs[pm.incs.0 as usize..pm.incs.1 as usize] {
                    let ds = &mut m.stats.dnodes[d as usize];
                    ds.active_cycles += n;
                    ds.alu_ops += n;
                    if mult {
                        ds.mult_ops += n;
                    }
                }
                if pm.conflict {
                    m.stats.bus_conflicts += n;
                }
            }
            m.cycle += k;
            m.stats.cycles += k;
            if aot {
                m.stats.aot_entries += 1;
                m.stats.aot_cycles += k;
            } else {
                m.stats.fused_entries += 1;
                m.stats.fused_cycles += k;
                m.stats.fused_lane_occupancy += k * l as u64;
            }
        }
    }
}

impl LaneHost {
    /// Opens cursors on every host FIFO the burst can touch: FIFOs the
    /// program reads or whose source still holds words, and host-output
    /// FIFOs that capture or drain into an open sink. Open sinks reserve
    /// room for the burst's drains up front. A metered link opens none:
    /// its bursts step the live FIFOs one cycle per block.
    fn gather(&mut self, program: &FusedProgram, m: &mut RingMachine, k: u64) {
        self.ins.clear();
        self.outs.clear();
        self.under = 0;
        self.over = 0;
        self.words_in = 0;
        self.words_out = 0;
        self.metered = m.params.link != LinkModel::Direct;
        if self.metered {
            return;
        }
        for (s, sw) in m.switches.iter().enumerate() {
            for (p, fifo) in sw.host_in.iter().enumerate() {
                let source = &m.host.sources[s][p];
                let slot = program
                    .slots
                    .iter()
                    .position(|&x| x == (s as u32, p as u32))
                    .map_or(NONE32, |i| i as u32);
                if slot != NONE32 || !source.is_empty() {
                    let len0 = fifo.queue.len();
                    self.ins.push(InPort {
                        switch: s as u32,
                        port: p as u32,
                        slot,
                        popped: 0,
                        filled: len0,
                        len0,
                        total: len0 + source.len(),
                        cap: fifo.capacity,
                    });
                }
            }
            for (p, fifo) in sw.host_out.iter().enumerate() {
                let src = program
                    .captures
                    .iter()
                    .find(|c| (c.0, c.1) == (s as u32, p as u32))
                    .map_or(NONE32, |c| c.2);
                let open = m.host.sink_open[s][p];
                if open {
                    let most = if src == NONE32 {
                        fifo.queue.len()
                    } else {
                        k as usize
                    };
                    m.host.sinks[s][p].reserve(most.min(k as usize));
                }
                if src != NONE32 || open {
                    self.outs.push(OutPort {
                        switch: s as u32,
                        port: p as u32,
                        src,
                        open,
                        cap: fifo.capacity,
                    });
                }
            }
        }
    }

    /// Fills the host-input columns for one block of `n` cycles starting
    /// at `phase`, advancing the input cursors. On a metered link the
    /// block is one cycle, read from the live FIFO heads.
    #[allow(clippy::too_many_arguments)]
    fn inputs(
        &mut self,
        program: &FusedProgram,
        m: &RingMachine,
        hist: &mut [Word16],
        bases: &[usize],
        phase: u32,
        n: usize,
        l: usize,
        lane: usize,
    ) {
        let nslots = program.slots.len();
        if self.metered {
            for (slot, &(s, p)) in program.slots.iter().enumerate() {
                let reads = program.slot_reads[phase as usize * nslots + slot];
                if reads > 0 {
                    let head = m.switches[s as usize].host_in[p as usize].peek();
                    hist[bases[program.host_col(slot)] + lane] = head.unwrap_or_else(|| {
                        self.under += u64::from(reads);
                        Word16::ZERO
                    });
                }
            }
            return;
        }
        for ip in &mut self.ins {
            if ip.slot == NONE32 {
                // Host fills only: one word per cycle while there is room.
                let to = (ip.filled + n)
                    .min(ip.total)
                    .min(ip.popped + ip.cap)
                    .max(ip.filled);
                self.words_in += (to - ip.filled) as u64;
                ip.filled = to;
                continue;
            }
            let base = bases[program.host_col(ip.slot as usize)] + lane;
            let (fifo, source) = (
                &m.switches[ip.switch as usize].host_in[ip.port as usize].queue,
                &m.host.sources[ip.switch as usize][ip.port as usize],
            );
            if program.period > 1 {
                // Read on some phases only: pop where read, refill behind.
                let mut phase = phase as usize;
                for t in 0..n {
                    let reads = program.slot_reads[phase * nslots + ip.slot as usize];
                    if reads > 0 {
                        hist[base + t * l] = if ip.popped < ip.filled {
                            ip.popped += 1;
                            queue_word(fifo, source, ip.popped - 1)
                        } else {
                            self.under += u64::from(reads);
                            Word16::ZERO
                        };
                    }
                    if ip.filled < ip.total && ip.filled - ip.popped < ip.cap {
                        ip.filled += 1;
                        self.words_in += 1;
                    }
                    phase += 1;
                    if phase == program.period as usize {
                        phase = 0;
                    }
                }
                continue;
            }
            // Read every cycle: closed-form runs.
            let reads = u64::from(program.slot_reads[ip.slot as usize]);
            let mut t = 0;
            while t < n {
                if ip.popped < ip.filled {
                    // Non-empty: each cycle pops the head and the host
                    // refills behind it, until the whole queue is consumed.
                    let run = (n - t).min(ip.total - ip.popped);
                    copy_queue(fifo, source, ip.popped, run, hist, base + t * l, l);
                    ip.popped += run;
                    let to = (ip.filled + run).min(ip.total);
                    self.words_in += (to - ip.filled) as u64;
                    ip.filled = to;
                    t += run;
                } else if ip.filled < ip.total && ip.cap > 0 {
                    // Empty with words upstream: underflow once, then refill.
                    hist[base + t * l] = Word16::ZERO;
                    self.under += reads;
                    ip.filled += 1;
                    self.words_in += 1;
                    t += 1;
                } else {
                    // Dry for the rest of the burst.
                    for tt in t..n {
                        hist[base + tt * l] = Word16::ZERO;
                    }
                    self.under += reads * (n - t) as u64;
                    t = n;
                }
            }
        }
    }

    /// Moves one block's captures and drains through the host-output FIFOs
    /// into the sinks. Captured words come straight from the source Dnode's
    /// output column (its pre-commit output at each cycle). A metered
    /// link's one-cycle block finishes the cycle as the decoded path does:
    /// pop the FIFOs read, run the machine's own host step, capture.
    #[allow(clippy::too_many_arguments)]
    fn outputs(
        &mut self,
        program: &FusedProgram,
        m: &mut RingMachine,
        hist: &[Word16],
        bases: &[usize],
        phase: u32,
        n: usize,
        l: usize,
        lane: usize,
    ) {
        let depth = program.depth as usize;
        if self.metered {
            let nslots = program.slots.len();
            for (slot, &(s, p)) in program.slots.iter().enumerate() {
                if program.slot_reads[phase as usize * nslots + slot] > 0 {
                    m.switches[s as usize].host_in[p as usize].pop();
                }
            }
            m.host.step(&mut m.switches, &mut m.stats);
            for &(s, p, src) in &program.captures {
                let word = hist[bases[src as usize] + depth * l + lane];
                if m.switches[s as usize].host_out[p as usize].push(word) == PushOutcome::Dropped {
                    self.over += 1;
                }
            }
            return;
        }
        for op in &self.outs {
            let (s, p) = (op.switch as usize, op.port as usize);
            let fifo = &mut m.switches[s].host_out[p].queue;
            let sink = &mut m.host.sinks[s][p];
            // Captured word `i` of this block, for `i` in `range`.
            let captured = |range: std::ops::Range<usize>| {
                let start = bases[op.src as usize] + (depth + range.start) * l + lane;
                hist[start..].iter().step_by(l).take(range.len()).copied()
            };
            let len = fifo.len();
            match (op.src != NONE32, op.open) {
                (true, true) if op.cap > 0 => {
                    // Each cycle drains the head (if any), then the capture
                    // lands behind it: every capture is accepted.
                    let drains = if len > 0 { n } else { n - 1 };
                    let from_fifo = len.min(drains);
                    sink.extend(fifo.drain(..from_fifo));
                    let direct = drains - from_fifo;
                    if l == 1 {
                        let start = bases[op.src as usize] + depth;
                        sink.extend_from_slice(&hist[start..start + direct]);
                    } else {
                        sink.extend(captured(0..direct));
                    }
                    fifo.extend(captured(direct..n));
                    self.words_out += drains as u64;
                }
                (true, _) => {
                    // Nothing drains: captures fill the FIFO, then drop.
                    let accepted = op.cap.saturating_sub(len).min(n);
                    fifo.extend(captured(0..accepted));
                    self.over += (n - accepted) as u64;
                }
                (false, _) => {
                    let drains = len.min(n);
                    sink.extend(fifo.drain(..drains));
                    self.words_out += drains as u64;
                }
            }
        }
    }

    /// Cuts the input queues at their cursors and accounts the burst's host
    /// traffic.
    fn scatter(&mut self, m: &mut RingMachine, k: u64) {
        for ip in &self.ins {
            let (s, p) = (ip.switch as usize, ip.port as usize);
            let fifo = &mut m.switches[s].host_in[p].queue;
            let source = &mut m.host.sources[s][p];
            // New FIFO: queue[popped..filled]; new source: queue[filled..].
            if ip.popped >= ip.len0 {
                fifo.clear();
                source.drain(..ip.popped - ip.len0);
            } else {
                fifo.drain(..ip.popped);
            }
            fifo.extend(source.drain(..ip.filled - ip.popped.max(ip.len0)));
            if source.is_empty() {
                // A stream delivered in full gives its buffer back now,
                // not when the machine is dropped.
                source.shrink_to_fit();
            }
        }
        if !self.metered {
            // Each replayed cycle's host step turned the service rotation.
            m.host.rotate = m.host.rotate.wrapping_add(k as usize);
        }
        m.stats.fifo_underflows += self.under;
        m.stats.fifo_overflows += self.over;
        m.stats.host_words_in += self.words_in;
        m.stats.host_words_out += self.words_out;
    }
}

impl RingMachine {
    /// The current configuration-epoch fingerprint (also the AOT guard's
    /// cheap content-unchanged revalidation: equal stamps prove no
    /// configuration, mode or sequencer write happened in between).
    pub(crate) fn fused_stamps(&self) -> FusedStamps {
        let ctx = self.config.active_index();
        let (modes_clock, seq_clock) = self.plan.clocks();
        FusedStamps {
            ctx,
            cfg_epoch: self.config.ctx_epoch(ctx),
            capture_epoch: self.config.capture_epoch(ctx),
            modes_clock,
            seq_clock,
        }
    }

    /// Drops a live compiled program, counting the deoptimization.
    fn fused_deopt_if_live(&mut self) {
        if let Some(engine) = &mut self.fused {
            if engine.program.take().is_some() {
                self.stats.fused_deopts += 1;
            }
            engine.stamps = None;
            engine.stable_cycles = 0;
        }
    }

    /// Gatekeeper for fused execution: checks quiescence, maintains the
    /// epoch-stability window, compiles (or revalidates) the program and
    /// locates the entry phase. Returns the admissible burst length
    /// (`<= remaining`), or `None` to stay on the decoded path.
    pub(crate) fn prepare_fused(&mut self, remaining: u64) -> Option<u64> {
        if !self.params.fused || !self.params.decode_cache {
            return None;
        }
        if self.fault.is_some() || self.params.watchdog_interval > 0 {
            // Persistent ineligibility: armed fault machinery or watchdog
            // demand the per-cycle bracketing of the decoded path.
            self.fused_deopt_if_live();
            return None;
        }
        let window = match self.controller.state() {
            CtrlState::Halted => remaining,
            CtrlState::Waiting(n) => remaining.min(u64::from(n)),
            CtrlState::Running => 0,
        };
        if window == 0 || self.config.select_pending() {
            // Transient: the program (if any) stays cached; a real
            // configuration change will show up in the stamps.
            return None;
        }
        let stamps = self.fused_stamps();
        let mut engine = self.fused.take().unwrap_or_default();
        let prepared = (|| {
            match engine.stamps {
                Some(prev) if prev == stamps => {
                    engine.stable_cycles += self.cycle - engine.last_seen_cycle;
                }
                Some(_) => {
                    if engine.program.take().is_some() {
                        self.stats.fused_deopts += 1;
                    }
                    engine.stamps = Some(stamps);
                    engine.stable_cycles = 0;
                }
                None => {
                    engine.stamps = Some(stamps);
                    engine.stable_cycles = 0;
                }
            }
            engine.last_seen_cycle = self.cycle;
            if window < MIN_BURST {
                return None;
            }
            if engine.stable_cycles < DETECTION_WINDOW {
                // Stability not yet *observed* — but an attached proof
                // manifest may have *proven* it: past the manifest's
                // stability cycle no configuration write can happen on any
                // execution path, so the detection window is pure warm-up
                // and the engine may engage immediately. The burst itself
                // is bit-identical replay either way; only the entry
                // heuristic is waived.
                match self.proof_stable_from {
                    Some(stable) if self.cycle >= stable => {
                        self.stats.guards_elided += 1;
                    }
                    _ => return None,
                }
            }
            let active = self.config.active_index();
            let misses = self
                .plan
                .refresh(active, &self.config, &self.dnodes, self.geometry);
            if misses > 0 {
                self.stats.decode_cache_misses += misses;
            }
            if engine.program.is_none() {
                engine.program = Some(compile(
                    self.plan.context_plan(active),
                    &self.dnodes,
                    self.geometry,
                    self.params.pipe_depth,
                ));
                engine.next_phase = 0;
            }
            let entry = engine
                .program
                .as_ref()
                .expect("program just ensured")
                .find_phase(engine.next_phase, &self.dnodes);
            engine.entry_phase = match entry {
                Some(p) => p,
                None => {
                    // Sequencer counters no longer line up with the
                    // compiled phase origin: re-anchor at the current
                    // counters (always succeeds with entry phase 0).
                    engine.program = Some(compile(
                        self.plan.context_plan(active),
                        &self.dnodes,
                        self.geometry,
                        self.params.pipe_depth,
                    ));
                    0
                }
            };
            Some(window)
        })();
        self.fused = Some(engine);
        prepared
    }

    /// Attempts one single-lane fused burst of up to `remaining` cycles;
    /// returns the cycles executed (0 = not entered).
    pub(crate) fn try_fused(&mut self, remaining: u64) -> u64 {
        let Some(window) = self.prepare_fused(remaining) else {
            return 0;
        };
        let mut engine = self.fused.take().expect("engine prepared");
        let program = engine.program.take().expect("program prepared");
        let entry = engine.entry_phase;
        {
            let mut lanes = [&mut *self];
            execute(
                &program,
                entry,
                &mut lanes,
                window,
                false,
                &mut engine.scratch,
            );
        }
        engine.next_phase = ((u64::from(entry) + window) % u64::from(program.period)) as u32;
        engine.program = Some(program);
        self.fused = Some(engine);
        window
    }
}

/// Steps `lanes` machines in lockstep through one shared fused burst of at
/// most `max_cycles` cycles, returning the cycles executed (0 = the burst
/// was not entered and no machine advanced).
///
/// Entry requires *every* lane to be individually fusible right now (see
/// [`crate::MachineParams::fused`]) and all lanes to have compiled equal
/// programs at the same entry phase — the batch runner arranges this by
/// grouping jobs that share an identical object program and cycle budget.
/// When the burst executes, all lanes advance exactly `max_cycles`
/// (bounded by each lane's own admissible window) over shared history
/// columns with the lanes as their inner dimension, so each block kernel
/// covers the whole group at once. Each lane's statistics account the burst with
/// `fused_lane_occupancy = cycles * lanes` (see
/// [`crate::Stats::fused_lane_occupancy`]).
///
/// Machines left unentered (return 0) are completely untouched; callers
/// fall back to stepping them individually.
pub fn lockstep_burst(lanes: &mut [&mut RingMachine], max_cycles: u64) -> u64 {
    if lanes.is_empty() || max_cycles == 0 {
        return 0;
    }
    let mut window = max_cycles;
    for m in lanes.iter_mut() {
        match m.prepare_fused(window) {
            Some(w) => window = window.min(w),
            None => return 0,
        }
    }
    {
        let first = lanes[0].fused.as_ref().expect("prepared");
        let program = first.program.as_ref().expect("prepared");
        let entry = first.entry_phase;
        for m in lanes[1..].iter() {
            let engine = m.fused.as_ref().expect("prepared");
            if engine.entry_phase != entry || engine.program.as_ref() != Some(program) {
                return 0;
            }
        }
    }
    let mut engine0 = lanes[0].fused.take().expect("prepared");
    let program = engine0.program.take().expect("prepared");
    let entry = engine0.entry_phase;
    execute(&program, entry, lanes, window, false, &mut engine0.scratch);
    let next = ((u64::from(entry) + window) % u64::from(program.period)) as u32;
    engine0.next_phase = next;
    engine0.program = Some(program);
    lanes[0].fused = Some(engine0);
    for m in lanes[1..].iter_mut() {
        m.fused.as_mut().expect("prepared").next_phase = next;
    }
    window
}
