//! The ahead-of-time multi-phase superblock cache (the `aot` tier).
//!
//! The fused engine (see [`crate::fused`]) discovers steady-state windows
//! at run time: it waits [`crate::fused::DETECTION_WINDOW`] stable cycles
//! before compiling, and *deoptimizes* — drops the compiled program and
//! falls back to the decoded path — on every reconfiguration write. For
//! kernels that reconfigure frequently (Table 1 motion estimation switches
//! contexts every few hundred cycles) most of the run is therefore spent
//! re-detecting windows it has already compiled and thrown away.
//!
//! This module keeps a *cache of compiled programs keyed by configuration
//! content* instead of a single program keyed by monotonic epochs:
//!
//! * **Load-time prefill.** [`RingMachine::load`] walks the controller
//!   program over shadow state (controller + configuration layer only, no
//!   datapath), applying configuration effects as it goes. Every steady
//!   window it can prove — a `wait` of at least [`MIN_BURST`] cycles or a
//!   `halt` — has its configuration snapshot compiled into the cache
//!   before cycle 0. The walk is best-effort and conservative: it stops at
//!   anything whose value it cannot know at load time (`busr`, `hpop`,
//!   controller faults) and is bounded by a retire budget, so it is an
//!   accelerator, never an oracle.
//! * **Content-keyed guard.** At run time, entry into a compiled program
//!   is guarded by the configuration *content* (every active-context
//!   microinstruction, route, capture, mode and live sequencer slot), not
//!   by the monotonic epochs: rewriting a context with identical words, or
//!   cycling A→B→A, re-enters the cached program instead of deoptimizing.
//!   The epoch fingerprint ([`crate::fused::FusedStamps`]) is kept as a
//!   cheap revalidation — equal stamps prove the content (and therefore
//!   the resolved cache entry) is unchanged without re-serializing it.
//! * **Guard stitching.** A guard miss ([`crate::Stats::aot_guard_misses`])
//!   does not abandon compiled execution the way a fused deopt does: the
//!   unseen configuration is compiled on the spot ([`crate::Stats::
//!   aot_compiles`]) and entered immediately, with no re-detection window.
//! * **Schedule bursts.** A *running* controller does not force the
//!   decoded path either, as long as it stays off the datapath: a
//!   lookahead over a cloned controller admits every cycle whose
//!   instruction provably retires without reading the bus or a host FIFO
//!   and whose only architectural effect is a context select. The admitted
//!   region partitions into per-context segments; each segment's fabric
//!   cycles run through the cached compiled program for that
//!   configuration, and the controller then replays over the same cycles
//!   (one instruction per cycle, datapath-free by admission). Within the
//!   region the controller and the fabric only interact at the
//!   segment-boundary context commits, so the decomposition is
//!   cycle-exact. This is what covers multi-phase schedules whose
//!   controller ping-pongs contexts without ever waiting.
//!
//! The decoded path is only taken for cycles that are structurally
//! inadmissible: a pending context select, an armed fault injector,
//! sub-[`MIN_BURST`] windows, or controller instructions that touch the
//! datapath (`busr`, `hpop`, `busw`, `hpush`, configuration writes).
//!
//! Because admission is by content equality, soundness never depends on
//! the load-time walk being right: a stale or missing prefill entry can
//! only cost a recompile, never a wrong result. Replay itself is the fused
//! engine's [`crate::fused::execute`], so the two tiers share one compiled
//! semantics and differ only in admission policy.
//!
//! # Watchdog interaction
//!
//! The fused engine refuses to run with the watchdog armed. The AOT tier
//! admits *provably quiet* windows (direct link, input streams drained, no
//! open sinks — so no host progress is possible inside the burst) bounded
//! so the burst ends no later than the earliest possible trip: the skipped
//! per-cycle boundary checks are then exact no-ops, and a due trip is
//! raised by the decoded path at the same cycle, with the same
//! architectural context, as it would have been cycle-by-cycle.

use std::cell::Cell;

use systolic_ring_isa::dnode::{DnodeMode, MicroInstr};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::config::ConfigLayer;
use crate::controller::{CtrlEffect, CtrlPorts, CtrlState};
use crate::dnode::DnodeState;
use crate::error::ConfigError;
use crate::fused::{self, FusedProgram, FusedStamps, MIN_BURST};
use crate::machine::RingMachine;
use crate::params::LinkModel;
use crate::plan::DecodedPlan;
use crate::stats::Stats;

/// Most compiled programs kept per machine. Conformance kernels use a
/// handful of configuration phases; the cap is a backstop against
/// pathological controller programs that generate unbounded distinct
/// configurations (eviction is FIFO — oldest program first).
pub(crate) const AOT_CACHE_CAP: usize = 64;

/// Controller instructions the load-time walk may retire before giving
/// up. Real controller programs finish their configuration prologue in a
/// few hundred instructions; the budget only exists to bound datapath-free
/// infinite loops.
const PREFILL_RETIRE_BUDGET: u64 = 10_000;

/// One compiled configuration phase.
#[derive(Clone, Debug)]
struct AotEntry {
    /// FNV-1a hash of `key` (cheap reject before the exact compare).
    hash: u64,
    /// Canonical serialization of the configuration content the program
    /// was compiled from (see [`content_key`]).
    key: Vec<u64>,
    program: FusedProgram,
    /// Phase the next burst through this entry is expected to start at.
    next_phase: u32,
}

/// Recently resolved stamps the engine remembers; schedules ping-pong
/// among a handful of contexts, so a short most-recently-used list hits
/// on every segment of a steady multi-phase loop.
const STAMP_MEMO_CAP: usize = 8;

/// Per-machine AOT state: the content-keyed program cache plus the
/// stamps memo that skips re-serialization on already-seen epochs.
#[derive(Clone, Debug, Default)]
pub(crate) struct AotEngine {
    entries: Vec<AotEntry>,
    /// Resolved (fingerprint → entry) pairs, most recent first; an equal
    /// fingerprint proves the content key (and therefore the entry)
    /// without re-serializing it, because every content mutation bumps
    /// an epoch or clock in the fingerprint.
    stamp_memo: Vec<(FusedStamps, usize)>,
    /// Cycle before which a running-controller schedule lookahead is known
    /// to come up short: the instruction that stopped the last lookahead
    /// cannot retire before this cycle, so re-walking earlier is wasted
    /// work (the lookahead is deterministic).
    schedule_stuck_until: u64,
    /// Entry pinned by a proof manifest: once the machine is past its
    /// proven configuration-stability cycle, the first resolved entry is
    /// remembered here and subsequent quiet-window bursts reuse it
    /// without re-probing the content hash (the proof guarantees the
    /// content cannot have changed). Cleared on FIFO eviction (indices
    /// shift) and whenever the machine detaches its proof.
    pub(crate) proof_idx: Option<usize>,
    /// Entry compiled for the halt-state configuration when the load-time
    /// walk covered the *whole* controller execution (reached `halt`
    /// without ever touching the datapath). The walk is deterministic and
    /// datapath-free, so the real run retires the same instructions: once
    /// a proof manifest additionally establishes a stability cycle,
    /// `RingMachine::attach_proof` pins this entry as [`Self::proof_idx`]
    /// — every post-stability burst runs this exact configuration.
    pub(crate) prefill_final: Option<usize>,
    /// Replay buffers for [`fused::execute`], reused across bursts.
    scratch: fused::BlockScratch,
}

impl AotEngine {
    /// Number of compiled programs currently cached (test/lint hook).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn lookup(&self, hash: u64, key: &[u64]) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.hash == hash && e.key == key)
    }

    fn insert(&mut self, entry: AotEntry) -> usize {
        if self.entries.len() >= AOT_CACHE_CAP {
            self.entries.remove(0);
            // Indices shifted: the memo (and any proof- or prefill-pinned
            // index) may name wrong entries now.
            self.stamp_memo.clear();
            self.proof_idx = None;
            self.prefill_final = None;
        }
        self.entries.push(entry);
        self.entries.len() - 1
    }
}

/// FNV-1a over the key words.
fn fnv1a(key: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in key {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Serializes everything a compiled program's behaviour depends on:
/// the active context's microinstructions, routes and captures, every
/// Dnode's mode, and — for local-mode Dnodes — the sequencer limit and
/// the slots below it.
///
/// Deliberately excluded: sequencer *counters* (handled by
/// [`FusedProgram::find_phase`] / re-anchoring), slots at or above the
/// limit (unreachable until a `wlim` raises it, which changes the key),
/// and all datapath state (registers, outputs, pipelines, FIFOs, bus),
/// which the replay engine reads live.
fn content_key(config: &ConfigLayer, dnodes: &[DnodeState], g: RingGeometry) -> Vec<u64> {
    let width = g.width();
    let ctx = config.active();
    let mut key = Vec::with_capacity(g.dnodes() * 3 + g.switches() * width * 5);
    for d in 0..g.dnodes() {
        key.push(ctx.dnode_instr(d).encode());
    }
    for s in 0..g.switches() {
        for lane in 0..width {
            for port in 0..4 {
                key.push(u64::from(ctx.port(width, s, lane, port).encode()));
            }
        }
        for port in 0..width {
            key.push(u64::from(ctx.capture(width, s, port).encode()));
        }
    }
    for d in dnodes {
        match d.mode() {
            DnodeMode::Global => key.push(0),
            DnodeMode::Local => {
                let seq = d.sequencer();
                key.push(1 | u64::from(seq.limit()) << 1);
                for slot in 0..usize::from(seq.limit()) {
                    key.push(seq.slot(slot).encode());
                }
            }
        }
    }
    key
}

/// Compiles the shadow configuration into `engine` unless an identical
/// content key is already cached.
fn prefill_compile(
    engine: &mut AotEngine,
    config: &ConfigLayer,
    dnodes: &[DnodeState],
    plan: &mut DecodedPlan,
    g: RingGeometry,
    depth: usize,
    stats: &mut Stats,
) -> Option<usize> {
    if engine.entries.len() >= AOT_CACHE_CAP {
        return None;
    }
    let key = content_key(config, dnodes, g);
    let hash = fnv1a(&key);
    if let Some(idx) = engine.lookup(hash, &key) {
        return Some(idx);
    }
    let active = config.active_index();
    plan.refresh(active, config, dnodes, g);
    let program = fused::compile(plan.context_plan(active), dnodes, g, depth);
    stats.aot_compiles += 1;
    Some(engine.insert(AotEntry {
        hash,
        key,
        program,
        next_phase: 0,
    }))
}

/// The load-time walk's controller environment: the walk has no datapath,
/// so a `busr` returns an unknowable value (flagged, aborting the walk)
/// and an `hpop` always stalls (a non-retiring step, likewise aborting).
#[derive(Default)]
struct BlindPorts {
    blind: Cell<bool>,
}

impl CtrlPorts for BlindPorts {
    fn bus(&self) -> Word16 {
        self.blind.set(true);
        Word16::ZERO
    }

    fn hpop(&mut self, _switch: usize, _port: usize) -> Result<Option<Word16>, ConfigError> {
        Ok(None)
    }
}

/// Applies one controller effect to the walk's shadow configuration,
/// mirroring [`RingMachine`]'s end-of-cycle commit (validation included)
/// minus statistics and datapath side effects: `busw` only matters to a
/// later `busr` (which aborts the walk anyway) and `hpush` only feeds the
/// datapath, so both are no-ops here.
fn apply_walk_effect(
    effect: &CtrlEffect,
    config: &mut ConfigLayer,
    dnodes: &mut [DnodeState],
    plan: &mut DecodedPlan,
) -> Result<(), ConfigError> {
    match *effect {
        CtrlEffect::WriteDnode { ctx, dnode, word } => {
            let instr = MicroInstr::decode(word)?;
            config.set_dnode_instr(ctx, dnode, instr)
        }
        CtrlEffect::WritePort { ctx, flat, word } => {
            let source = PortSource::decode(word)?;
            config.set_port_flat(ctx, flat, source)
        }
        CtrlEffect::WriteCapture {
            ctx,
            switch,
            port,
            word,
        } => {
            let capture = HostCapture::decode(word)?;
            config.set_capture(ctx, switch, port, capture)
        }
        CtrlEffect::WriteMode { dnode, local } => {
            let count = dnodes.len();
            let state = dnodes.get_mut(dnode).ok_or(ConfigError::DnodeOutOfRange {
                dnode,
                dnodes: count,
            })?;
            let mode = if local {
                DnodeMode::Local
            } else {
                DnodeMode::Global
            };
            if state.mode() != mode {
                plan.note_mode_write();
            }
            state.set_mode(mode);
            Ok(())
        }
        CtrlEffect::WriteLocalSlot { dnode, slot, word } => {
            let count = dnodes.len();
            let state = dnodes.get_mut(dnode).ok_or(ConfigError::DnodeOutOfRange {
                dnode,
                dnodes: count,
            })?;
            if slot >= 8 {
                return Err(ConfigError::SlotOutOfRange { slot });
            }
            let instr = MicroInstr::decode(word)?;
            state.sequencer_mut().set_slot(slot, instr);
            plan.note_seq_write(dnode);
            Ok(())
        }
        CtrlEffect::WriteLocalLimit { dnode, limit } => {
            let count = dnodes.len();
            let state = dnodes.get_mut(dnode).ok_or(ConfigError::DnodeOutOfRange {
                dnode,
                dnodes: count,
            })?;
            if !(1..=8).contains(&limit) {
                return Err(ConfigError::BadLocalLimit {
                    limit: limit as usize,
                });
            }
            state.sequencer_mut().set_limit(limit as u8);
            plan.note_seq_write(dnode);
            Ok(())
        }
        CtrlEffect::SetActiveCtx(ctx) => config.stage_select(ctx),
        CtrlEffect::DriveBus(_) => Ok(()),
        CtrlEffect::HostPush { .. } => Ok(()),
    }
}

impl RingMachine {
    /// Number of compiled programs in the AOT cache (0 with the tier off).
    /// Exposed for the lint cross-check and tests.
    pub fn aot_cached_programs(&self) -> usize {
        self.aot.as_ref().map_or(0, |e| e.len())
    }

    /// Load-time prefill: walks the freshly loaded controller program over
    /// shadow state and compiles every provable steady window into the AOT
    /// cache. Called from [`RingMachine::load`]; a no-op unless the `aot`
    /// tier is fully enabled.
    pub(crate) fn aot_prefill(&mut self) {
        if !self.params.aot || !self.params.fused || !self.params.decode_cache {
            return;
        }
        let mut engine = self.aot.take().unwrap_or_default();
        let mut ctrl = self.controller.clone();
        let mut config = self.config.clone();
        let mut dnodes = self.dnodes.clone();
        let mut plan = DecodedPlan::new(self.geometry, self.params.contexts);
        let mut ports = BlindPorts::default();
        let mut retired = 0u64;
        'walk: while retired < PREFILL_RETIRE_BUDGET && engine.entries.len() < AOT_CACHE_CAP {
            match ctrl.state() {
                CtrlState::Halted => {
                    // A halt is an unbounded steady window — and reaching
                    // it means the walk covered the whole (deterministic,
                    // datapath-free) controller execution, so this entry
                    // is the configuration every post-stability burst
                    // will run; remember it for proof-pinned elision.
                    engine.prefill_final = prefill_compile(
                        &mut engine,
                        &config,
                        &dnodes,
                        &mut plan,
                        self.geometry,
                        self.params.pipe_depth,
                        &mut self.stats,
                    );
                    break 'walk;
                }
                CtrlState::Waiting(n) => {
                    if u64::from(n) >= MIN_BURST {
                        let _ = prefill_compile(
                            &mut engine,
                            &config,
                            &dnodes,
                            &mut plan,
                            self.geometry,
                            self.params.pipe_depth,
                            &mut self.stats,
                        );
                    }
                    ctrl.skip_wait(u64::from(n));
                    continue;
                }
                CtrlState::Running => {}
            }
            let Ok(step) = ctrl.step(&mut ports) else {
                // The walk reached an instruction that faults; the real run
                // will stop there too, but everything compiled so far is
                // still reachable before the fault.
                break;
            };
            if ports.blind.get() || !step.retired {
                // `busr` read a bus value the walk cannot know, or `hpop`
                // stalled on run-time FIFO data: control flow past this
                // point is unknowable at load time.
                break;
            }
            retired += 1;
            for effect in &step.effects {
                if apply_walk_effect(effect, &mut config, &mut dnodes, &mut plan).is_err() {
                    break 'walk;
                }
            }
            config.commit();
        }
        self.aot = Some(engine);
    }

    /// Resolves the current configuration content against the cache under
    /// `stamps`, stitch-compiling on a guard miss. Returns the entry
    /// index, remembered in the stamps memo for the next resolution.
    fn aot_resolve(&mut self, engine: &mut AotEngine, stamps: FusedStamps) -> usize {
        if let Some(pos) = engine.stamp_memo.iter().position(|(s, _)| *s == stamps) {
            let hit = engine.stamp_memo.remove(pos);
            let idx = hit.1;
            engine.stamp_memo.insert(0, hit);
            return idx;
        }
        // The epochs moved past the memo: re-resolve the configuration
        // content against the cache. The decoded plan is the compiler's
        // input, so bring it up to date first (counting the misses
        // exactly as the decoded path would).
        let active = self.config.active_index();
        let misses = self
            .plan
            .refresh(active, &self.config, &self.dnodes, self.geometry);
        if misses > 0 {
            self.stats.decode_cache_misses += misses;
        }
        let key = content_key(&self.config, &self.dnodes, self.geometry);
        let hash = fnv1a(&key);
        let idx = match engine.lookup(hash, &key) {
            Some(i) => i,
            None => {
                // Guard miss: stitch by compiling the unseen
                // configuration now, instead of deoptimizing.
                self.stats.aot_guard_misses += 1;
                let program = fused::compile(
                    self.plan.context_plan(active),
                    &self.dnodes,
                    self.geometry,
                    self.params.pipe_depth,
                );
                self.stats.aot_compiles += 1;
                engine.insert(AotEntry {
                    hash,
                    key,
                    program,
                    next_phase: 0,
                })
            }
        };
        engine.stamp_memo.insert(0, (stamps, idx));
        engine.stamp_memo.truncate(STAMP_MEMO_CAP);
        idx
    }

    /// Locates the entry phase of `engine.entries[idx]` against the live
    /// sequencer counters, re-anchoring (recompiling in place) when the
    /// counters left the compiled orbit.
    fn aot_anchor(&mut self, engine: &mut AotEngine, idx: usize) -> u32 {
        let hint = engine.entries[idx].next_phase;
        match engine.entries[idx].program.find_phase(hint, &self.dnodes) {
            Some(p) => p,
            None => {
                // The sequencer counters left the compiled orbit (e.g. a
                // `wlim` reset skewed one Dnode against the others):
                // re-anchor at the current counters. Same content key, so
                // the entry is replaced in place.
                let active = self.config.active_index();
                let misses = self
                    .plan
                    .refresh(active, &self.config, &self.dnodes, self.geometry);
                if misses > 0 {
                    self.stats.decode_cache_misses += misses;
                }
                engine.entries[idx].program = fused::compile(
                    self.plan.context_plan(active),
                    &self.dnodes,
                    self.geometry,
                    self.params.pipe_depth,
                );
                self.stats.aot_compiles += 1;
                0
            }
        }
    }

    /// Attempts one AOT superblock burst of up to `remaining` cycles;
    /// returns the cycles executed (0 = not entered, fall through to the
    /// fused engine and then the decoded path).
    pub(crate) fn try_aot(&mut self, remaining: u64) -> u64 {
        if !self.params.aot || !self.params.fused || !self.params.decode_cache {
            return 0;
        }
        if self.fault.is_some() {
            // Armed fault machinery demands the decoded path's per-cycle
            // injection/detection bracketing.
            return 0;
        }
        if self.config.select_pending() {
            return 0;
        }
        let mut window = match self.controller.state() {
            CtrlState::Halted => remaining,
            CtrlState::Waiting(n) => remaining.min(u64::from(n)),
            CtrlState::Running => return self.try_aot_schedule(remaining),
        };
        if window == 0 {
            return 0;
        }
        if self.params.watchdog_interval > 0 {
            // Watchdog-armed admission (see the module docs): only quiet
            // windows, bounded to end no later than the earliest possible
            // trip. First fold outstanding progress into the heartbeat —
            // the update half of the boundary check we are about to skip.
            if self.params.link != LinkModel::Direct
                || !self.host.inputs_drained()
                || self.host.any_sink_open()
            {
                return 0;
            }
            self.watchdog_observe();
            window = window.min(self.watchdog_margin());
        }
        if window < MIN_BURST {
            return 0;
        }
        let mut engine = self.aot.take().unwrap_or_default();
        // Past the proven stability cycle the configuration content is a
        // constant: the guard probe (stamp memo, content serialization,
        // hash lookup) can only ever re-derive the pinned entry, so skip
        // it. First resolution past the proof binds the pin.
        let proven_stable = self.proof_stable_from.is_some_and(|s| self.cycle >= s);
        let idx = match engine.proof_idx {
            Some(idx) if proven_stable => {
                self.stats.guards_elided += 1;
                idx
            }
            _ => {
                let stamps = self.fused_stamps();
                let idx = self.aot_resolve(&mut engine, stamps);
                if proven_stable {
                    engine.proof_idx = Some(idx);
                }
                idx
            }
        };
        let entry_phase = self.aot_anchor(&mut engine, idx);
        {
            let program = &engine.entries[idx].program;
            let mut lanes = [&mut *self];
            fused::execute(
                program,
                entry_phase,
                &mut lanes,
                window,
                true,
                &mut engine.scratch,
            );
        }
        let period = u64::from(engine.entries[idx].program.period);
        engine.entries[idx].next_phase = ((u64::from(entry_phase) + window) % period) as u32;
        self.aot = Some(engine);
        window
    }

    /// Walks a *clone* of the controller up to `limit` cycles ahead,
    /// admitting only datapath-independent cycles: every instruction must
    /// retire without touching the datapath (`busr`, `hpop`), and the only
    /// architectural effect allowed is a valid `ctx` select. Returns the
    /// admitted cycles partitioned into per-active-context segments (a
    /// segment ends on the cycle whose commit switches contexts), plus
    /// whether the walk stopped at the budget rather than at an
    /// inadmissible cycle.
    ///
    /// The walk is deterministic: admitted instructions read only
    /// controller-internal state (registers, data memory, the program
    /// counter), so replaying the real controller over the admitted prefix
    /// retires exactly the same instructions with the same effects.
    fn schedule_lookahead(&self, limit: u64) -> (Vec<u64>, bool) {
        let mut ctrl = self.controller.lookahead_clone();
        let mut ports = BlindPorts::default();
        let contexts = self.config.contexts();
        let mut segments = Vec::new();
        let mut seg = 0u64;
        let mut total = 0u64;
        while total < limit {
            match ctrl.state() {
                // Leave the halt (and any not-yet-started wait tail) to
                // the plain window path: it covers those cycles with bulk
                // accounting instead of a per-cycle replay.
                CtrlState::Halted => break,
                CtrlState::Waiting(n) => {
                    let k = u64::from(n).min(limit - total);
                    ctrl.skip_wait(k);
                    seg += k;
                    total += k;
                    continue;
                }
                CtrlState::Running => {}
            }
            let Ok(step) = ctrl.step(&mut ports) else {
                // The next instruction faults: the decoded path must be
                // the one to raise it.
                break;
            };
            if ports.blind.get() || !step.retired {
                // `busr` needs the live bus, or `hpop` may block on
                // run-time FIFO data: control flow past this cycle is
                // unknowable without the datapath.
                break;
            }
            let mut admissible = true;
            let mut switches_ctx = false;
            for effect in &step.effects {
                match *effect {
                    CtrlEffect::SetActiveCtx(ctx) if ctx < contexts => switches_ctx = true,
                    _ => admissible = false,
                }
            }
            if !admissible {
                break;
            }
            seg += 1;
            total += 1;
            if switches_ctx {
                segments.push(seg);
                seg = 0;
            }
        }
        if seg > 0 {
            segments.push(seg);
        }
        (segments, total == limit)
    }

    /// The running-controller burst: covers multi-phase schedules whose
    /// controller never goes quiet (context ping-pong loops). The admitted
    /// region decomposes into per-context segments; each segment's fabric
    /// cycles replay through the cached compiled program for that
    /// configuration, then the controller replays over the same cycles at
    /// one instruction per cycle — cheap, datapath-free by admission, and
    /// bit-identical to the decoded interleaving because within the region
    /// the controller and the fabric only interact at the segment-boundary
    /// context commits.
    fn try_aot_schedule(&mut self, remaining: u64) -> u64 {
        if self.params.watchdog_interval > 0 {
            // The heartbeat samples controller progress at every decoded
            // cycle boundary; keep that bracketing exact.
            return 0;
        }
        let mut engine = self.aot.take().unwrap_or_default();
        if self.cycle < engine.schedule_stuck_until {
            self.aot = Some(engine);
            return 0;
        }
        let (segments, capped) = self.schedule_lookahead(remaining);
        let total: u64 = segments.iter().sum();
        if total < MIN_BURST {
            if !capped {
                // The blocking instruction sits `total` cycles out and the
                // controller retires at most one instruction per cycle, so
                // any earlier re-walk stops at the same place.
                engine.schedule_stuck_until = self.cycle + total + 1;
            }
            self.aot = Some(engine);
            return 0;
        }
        for len in segments {
            // Same proof-pinned elision as the quiet-window path, gated
            // per segment: a segment starting past the proven stability
            // cycle can only be running the pinned configuration.
            let proven_stable = self.proof_stable_from.is_some_and(|s| self.cycle >= s);
            let idx = match engine.proof_idx {
                Some(idx) if proven_stable => {
                    self.stats.guards_elided += 1;
                    idx
                }
                _ => {
                    let stamps = self.fused_stamps();
                    let idx = self.aot_resolve(&mut engine, stamps);
                    if proven_stable {
                        engine.proof_idx = Some(idx);
                    }
                    idx
                }
            };
            let entry_phase = self.aot_anchor(&mut engine, idx);
            {
                let program = &engine.entries[idx].program;
                let mut lanes = [&mut *self];
                fused::execute(
                    program,
                    entry_phase,
                    &mut lanes,
                    len,
                    true,
                    &mut engine.scratch,
                );
            }
            let period = u64::from(engine.entries[idx].program.period);
            engine.entries[idx].next_phase = ((u64::from(entry_phase) + len) % period) as u32;
            // The burst accounted the controller as stalled for the whole
            // segment (the quiet-window convention); the replay below
            // re-counts each of these cycles exactly as the decoded path
            // would have.
            self.stats.ctrl_stall_cycles -= len;
            for i in 0..len {
                let cycle = self.cycle - len + i;
                let step = self
                    .controller_substep(cycle)
                    .expect("schedule replay diverged from the admitted lookahead");
                for effect in &step.effects {
                    let CtrlEffect::SetActiveCtx(ctx) = *effect else {
                        unreachable!("inadmissible effect in a schedule segment");
                    };
                    self.config
                        .stage_select(ctx)
                        .expect("lookahead validated the context index");
                }
                if self.config.commit() {
                    self.stats.ctx_switches += 1;
                }
            }
        }
        self.aot = Some(engine);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;
    use systolic_ring_isa::ctrl::{CReg, CtrlInstr};
    use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand, Reg};
    use systolic_ring_isa::object::Object;

    fn aot_params() -> MachineParams {
        MachineParams::PAPER
            .with_decode_cache(true)
            .with_fused(true)
            .with_aot(true)
    }

    fn mac_object() -> Object {
        use systolic_ring_isa::object::Preload;
        let mac = MicroInstr::op(AluOp::Mac, Operand::In1, Operand::In2).write_reg(Reg::R0);
        Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 1,
            code: vec![
                CtrlInstr::Wait { cycles: 64 }.encode(),
                CtrlInstr::Halt.encode(),
            ],
            data: vec![],
            preload: vec![
                Preload::SwitchPort {
                    ctx: 0,
                    switch: 0,
                    lane: 0,
                    input: 0,
                    word: PortSource::HostIn { port: 0 }.encode(),
                },
                Preload::SwitchPort {
                    ctx: 0,
                    switch: 0,
                    lane: 0,
                    input: 1,
                    word: PortSource::HostIn { port: 1 }.encode(),
                },
                Preload::LocalSlot {
                    dnode: 0,
                    slot: 0,
                    word: mac.encode(),
                },
                Preload::LocalLimit { dnode: 0, limit: 1 },
                Preload::Mode {
                    dnode: 0,
                    local: true,
                },
            ],
        }
    }

    #[test]
    fn content_key_ignores_counters_and_dead_slots() {
        let m = RingMachine::new(RingGeometry::RING_8, aot_params());
        let mut dnodes = m.dnodes.clone();
        let base = content_key(&m.config, &dnodes, m.geometry);
        // Counters are excluded: advancing one changes nothing.
        dnodes[0].sequencer_mut().set_limit(4);
        let with_local_global_mode = content_key(&m.config, &dnodes, m.geometry);
        assert_eq!(
            base, with_local_global_mode,
            "sequencer state of a global-mode Dnode is dead content"
        );
        dnodes[0].set_mode(DnodeMode::Local);
        let local = content_key(&m.config, &dnodes, m.geometry);
        assert_ne!(base, local, "mode flips must change the key");
        // A slot at or above the limit is unreachable: still equal.
        let nop = MicroInstr::NOP;
        dnodes[0]
            .sequencer_mut()
            .set_slot(7, nop.with_imm(Word16::from_i16(3)));
        assert_eq!(local, content_key(&m.config, &dnodes, m.geometry));
        // A live slot is not.
        dnodes[0]
            .sequencer_mut()
            .set_slot(0, nop.with_imm(Word16::from_i16(3)));
        assert_ne!(local, content_key(&m.config, &dnodes, m.geometry));
    }

    #[test]
    fn prefill_compiles_the_wait_window_at_load() {
        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&mac_object()).unwrap();
        assert_eq!(m.aot_cached_programs(), 1, "one steady window prefilled");
        assert_eq!(m.stats().aot_compiles, 1);
        // The very first run enters the cache with no detection warmup and
        // no guard miss: the prefill already paid for the compile.
        m.attach_input(0, 0, [1, 3, 5].map(Word16::from_i16))
            .unwrap();
        m.attach_input(0, 1, [2, 4, 6].map(Word16::from_i16))
            .unwrap();
        m.run(32).unwrap();
        assert_eq!(m.dnode(0).reg(Reg::R0).as_i16(), 44);
        assert!(m.stats().aot_entries >= 1, "burst entered");
        assert_eq!(m.stats().aot_guard_misses, 0, "prefill hit, no stitch");
        assert_eq!(m.stats().fused_entries, 0, "aot outranks fused dispatch");
    }

    #[test]
    fn aot_matches_decoded_bit_for_bit() {
        let inputs: [Vec<Word16>; 2] = [
            (0..48).map(|i| Word16::from_i16(i - 7)).collect(),
            (0..48).map(|i| Word16::from_i16(3 * i + 1)).collect(),
        ];
        let run = |params: MachineParams| {
            let mut m = RingMachine::new(RingGeometry::RING_8, params);
            m.load(&mac_object()).unwrap();
            m.attach_input(0, 0, inputs[0].iter().copied()).unwrap();
            m.attach_input(0, 1, inputs[1].iter().copied()).unwrap();
            m.run(80).unwrap();
            (
                m.dnode(0).reg(Reg::R0),
                m.cycle(),
                m.stats().without_cache_counters(),
            )
        };
        let decoded = run(MachineParams::PAPER.with_decode_cache(true));
        let aot = run(aot_params());
        assert_eq!(decoded, aot);
    }

    /// A context ping-pong loop whose controller never waits: the
    /// schedule burst must cover it, entering one superblock per
    /// per-context segment, with counters bit-identical to decoded.
    #[test]
    fn schedule_burst_covers_a_running_context_ping_pong() {
        use systolic_ring_isa::object::Preload;
        let add7 = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::Imm)
            .with_imm(Word16::from_i16(7))
            .write_reg(Reg::R0);
        let sub2 = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R1), Operand::Imm)
            .with_imm(Word16::from_i16(-2))
            .write_reg(Reg::R1);
        let r1 = CReg::new(1).unwrap();
        let r0 = CReg::new(0).unwrap();
        let object = Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 2,
            code: vec![
                CtrlInstr::Addi {
                    rd: r1,
                    ra: r0,
                    imm: 24,
                }
                .encode(),
                // flip: ctx 1; ctx 0; countdown; loop
                CtrlInstr::Ctx { ctx: 1 }.encode(),
                CtrlInstr::Ctx { ctx: 0 }.encode(),
                CtrlInstr::Addi {
                    rd: r1,
                    ra: r1,
                    imm: -1,
                }
                .encode(),
                CtrlInstr::Bne {
                    ra: r1,
                    rb: r0,
                    offset: -4,
                }
                .encode(),
                CtrlInstr::Halt.encode(),
            ],
            data: vec![],
            preload: vec![
                Preload::DnodeInstr {
                    ctx: 0,
                    dnode: 0,
                    word: add7.encode(),
                },
                Preload::DnodeInstr {
                    ctx: 1,
                    dnode: 1,
                    word: sub2.encode(),
                },
            ],
        };
        let run = |params: MachineParams| {
            let mut m = RingMachine::new(RingGeometry::RING_8, params);
            m.load(&object).unwrap();
            m.run(128).unwrap();
            (
                m.dnode(0).reg(Reg::R0),
                m.dnode(1).reg(Reg::R1),
                m.cycle(),
                m.stats().without_cache_counters(),
            )
        };
        let decoded = run(MachineParams::PAPER.with_decode_cache(true));
        let aot = run(aot_params());
        assert_eq!(decoded, aot, "schedule bursts must be cycle-exact");

        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&object).unwrap();
        m.run(128).unwrap();
        let stats = m.stats();
        assert_eq!(
            stats.aot_cycles, 128,
            "the whole run is schedule-burst admissible"
        );
        assert!(
            stats.aot_entries > 2,
            "one superblock per per-context segment, got {}",
            stats.aot_entries
        );
        assert_eq!(stats.ctx_switches, 48, "24 rounds of ctx 1 / ctx 0");
    }

    #[test]
    fn blind_reads_abort_the_prefill_walk() {
        let mut object = mac_object();
        object.code = vec![
            CtrlInstr::Busr {
                rd: CReg::new(1).unwrap(),
            }
            .encode(),
            CtrlInstr::Wait { cycles: 64 }.encode(),
            CtrlInstr::Halt.encode(),
        ];
        let mut m = RingMachine::new(RingGeometry::RING_8, aot_params());
        m.load(&object).unwrap();
        assert_eq!(
            m.aot_cached_programs(),
            0,
            "no window may be compiled past a datapath-dependent read"
        );
        // The run still covers the wait via a guard-miss stitch.
        m.run(40).unwrap();
        assert_eq!(m.stats().aot_guard_misses, 1);
        assert!(m.stats().aot_cycles > 0);
    }
}
