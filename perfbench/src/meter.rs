//! Round accounting shared by the in-process workloads.
//!
//! A workload runs in rounds (a frame, a frame of block searches, a
//! corpus sweep) until its time is up. In the untraced run every round
//! is measured for the end-to-end metrics: the host instructions each
//! round retired (see [`crate::counters`]), without the benchmark's own
//! checking, and, for the notes and the `host.*` and `wall.*` metrics,
//! its cycles and wall time. In the traced run rounds alternate
//! untraced/traced: the traced rounds give the per-layer figures, and the
//! two kinds together give the tracing overhead.

use std::time::{Duration, Instant};

use systolic_ring_core::Stats;

use crate::counters::{Counters, Counts};
use crate::metrics::{median, windowed_latency, Report, LAYERS};
use crate::trace::{self, Tracer};

/// Engine counters summed over the simulating calls of the traced
/// rounds (or of every round, untraced), with the host time those calls
/// took.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreTotals {
    /// Units the counters cover.
    pub units: u64,
    /// Host nanoseconds inside the simulating calls.
    pub sim_ns: u64,
    cycles: u64,
    compiled_cycles: u64,
    fused_entries: u64,
    decode_hits: u64,
    decode_misses: u64,
    fused_deopts: u64,
    aot_guard_misses: u64,
    ctx_switches: u64,
    config_writes: u64,
    guards_elided: u64,
}

impl CoreTotals {
    /// Adds one simulating call's statistics.
    pub fn add(&mut self, stats: &Stats, units: u64, sim: Duration) {
        self.units += units;
        self.sim_ns += sim.as_nanos() as u64;
        self.cycles += stats.cycles;
        self.compiled_cycles += stats.fused_cycles + stats.aot_cycles;
        self.fused_entries += stats.fused_entries;
        self.decode_hits += stats.decode_cache_hits;
        self.decode_misses += stats.decode_cache_misses;
        self.fused_deopts += stats.fused_deopts;
        self.aot_guard_misses += stats.aot_guard_misses;
        self.ctx_switches += stats.ctx_switches;
        self.config_writes += stats.config_writes;
        self.guards_elided += stats.guards_elided;
    }

    /// Writes the `core.*` metrics. Counts are per unit, so they do not
    /// depend on how many rounds fit in the run.
    pub fn report(&self, r: &mut Report) {
        let per_unit = |v: u64| ratio(v, self.units);
        r.set("core.cycles", per_unit(self.cycles));
        r.set("core.ns_per_cycle", ratio(self.sim_ns, self.cycles));
        r.set(
            "core.compiled_coverage",
            ratio(self.compiled_cycles, self.cycles),
        );
        r.set("core.fused_entries", per_unit(self.fused_entries));
        r.set(
            "core.decode_cache_hit_ratio",
            ratio(self.decode_hits, self.decode_hits + self.decode_misses),
        );
        r.set("core.fused_deopts", per_unit(self.fused_deopts));
        r.set("core.aot_guard_misses", per_unit(self.aot_guard_misses));
        r.set("core.ctx_switches", per_unit(self.ctx_switches));
        r.set("core.config_writes", per_unit(self.config_writes));
        r.set("core.guards_elided", per_unit(self.guards_elided));
    }
}

/// `a / b` as a float, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Round bookkeeping for one in-process workload run.
pub struct Meter {
    trace: bool,
    deadline: Instant,
    rounds: u64,
    /// The span recorder (recording only during traced rounds).
    pub tracer: Tracer,
    counters: Counters,
    round_start: Instant,
    round_counts_start: Counts,
    round_units: u64,
    excluded_ns: u64,
    excluded_counts: Counts,
    untraced_ns: u64,
    untraced_units: u64,
    traced_ns: u64,
    traced_units: u64,
    check_ns: u64,
    cycles: u64,
    round_cycles: u64,
    /// Units per second of each untraced round's measured wall time.
    round_rates: Vec<f64>,
    /// `[host M instructions per unit, host instructions per simulated
    /// cycle, host M cycles per unit]` of each untraced round.
    round_costs: Vec<[f64; 3]>,
    latencies_ms: Vec<f64>,
    /// Engine counters over the rounds the per-layer figures cover.
    pub core: CoreTotals,
}

impl Meter {
    /// A meter that runs rounds for `seconds` from now, or why there is
    /// none.
    pub fn new(trace: bool, seconds: f64, epoch: Instant) -> Result<Meter, String> {
        let counters = Counters::open()?;
        let now = Instant::now();
        Ok(Meter {
            trace,
            deadline: now + Duration::from_secs_f64(seconds),
            rounds: 0,
            tracer: Tracer::new(false, epoch),
            counters,
            round_start: now,
            round_counts_start: Counts::default(),
            round_units: 0,
            excluded_ns: 0,
            excluded_counts: Counts::default(),
            untraced_ns: 0,
            untraced_units: 0,
            traced_ns: 0,
            traced_units: 0,
            check_ns: 0,
            cycles: 0,
            round_cycles: 0,
            round_rates: Vec::new(),
            round_costs: Vec::new(),
            latencies_ms: Vec::new(),
            core: CoreTotals::default(),
        })
    }

    /// Starts the next round, or returns `false` when time is up. A traced
    /// run always gets at least one untraced and one traced round.
    pub fn next_round(&mut self) -> bool {
        let min_rounds = if self.trace { 2 } else { 1 };
        if self.rounds >= min_rounds && Instant::now() >= self.deadline {
            return false;
        }
        let traced = self.trace && self.rounds % 2 == 1;
        self.tracer.set_on(traced);
        self.tracer.set_unit(self.rounds);
        self.rounds += 1;
        self.round_units = 0;
        self.round_cycles = 0;
        self.excluded_ns = 0;
        self.excluded_counts = Counts::default();
        self.round_counts_start = self.counts();
        self.round_start = Instant::now();
        true
    }

    /// The counts so far. Counters that opened keep reading; a failed
    /// read would only make one round's figures absurd, and medians drop
    /// those.
    fn counts(&self) -> Counts {
        self.counters.read().unwrap_or_default()
    }

    /// Whether the current round records spans.
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }

    /// Index of the current round (0-based).
    pub fn round(&self) -> u64 {
        self.rounds - 1
    }

    /// Records a completed unit: its latency and simulated cycles.
    pub fn unit(&mut self, latency: Duration, cycles: u64) {
        self.units(1, latency, cycles);
    }

    /// Records `count` units that completed together with one latency (a
    /// batch), as one latency sample.
    pub fn units(&mut self, count: u64, latency: Duration, cycles: u64) {
        self.round_units += count;
        if !self.traced() {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
            self.cycles += cycles;
            self.round_cycles += cycles;
        }
    }

    /// Whether this round's engine counters feed the `core.*` metrics.
    pub fn counts_core(&self) -> bool {
        !self.trace || self.traced()
    }

    /// Runs `f` as benchmark-side checking: inside a `bench.check` span,
    /// outside the measured time, accumulated into `bench.check_s`.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let counts = self.counts();
        let t = Instant::now();
        let out = self.tracer.span("bench.check", f);
        let ns = t.elapsed().as_nanos() as u64;
        self.excluded_counts = self.excluded_counts.plus(self.counts().since(counts));
        self.check_ns += ns;
        self.excluded_ns += ns;
        out
    }

    /// Closes the current round.
    pub fn end_round(&mut self) {
        let wall = self.round_start.elapsed().as_nanos() as u64;
        let Counts {
            instructions,
            cycles,
        } = self
            .counts()
            .since(self.round_counts_start)
            .since(self.excluded_counts);
        if self.traced() {
            self.traced_ns += wall;
            self.traced_units += self.round_units;
        } else {
            let timed = wall.saturating_sub(self.excluded_ns);
            let secs = timed as f64 * 1e-9;
            self.round_rates.push(self.round_units as f64 / secs);
            if self.round_units > 0 && self.round_cycles > 0 && instructions > 0 {
                let units = self.round_units as f64;
                self.round_costs.push([
                    instructions as f64 * 1e-6 / units,
                    instructions as f64 / self.round_cycles as f64,
                    cycles as f64 * 1e-6 / units,
                ]);
            }
            self.untraced_ns += wall;
            self.untraced_units += self.round_units;
        }
        self.tracer.set_on(false);
    }

    /// Fills the end-to-end metrics from the untraced rounds, or the
    /// per-layer bookkeeping metrics from the traced ones.
    pub fn finish(&self, r: &mut Report, setup_s: f64) {
        r.note(format!(
            "rounds {} ({} units measured untraced, {} traced), checks {:.3} s",
            self.rounds,
            self.untraced_units,
            self.traced_units,
            self.check_ns as f64 * 1e-9
        ));
        // Every figure is a median over rounds, so a host stall moves one
        // round rather than the run.
        let lat = windowed_latency(&self.latencies_ms);
        let wall_units = median(&self.round_rates);
        let cost = |i: usize| median(&self.round_costs.iter().map(|c| c[i]).collect::<Vec<_>>());
        r.note(format!(
            "wall: {wall_units:.3} units/s, latency {}; {:.3} M cycles per unit",
            lat.describe(),
            cost(2)
        ));
        if !self.trace {
            r.set("setup_s", setup_s);
            r.set("host_minstr_per_unit", cost(0));
            r.set("host_instr_per_sim_cyc", cost(1));
            r.set(
                "sim_cycles_per_unit",
                ratio(self.cycles, self.untraced_units),
            );
            r.set(
                "peak_rss_mb",
                crate::metrics::peak_rss_mb("self").unwrap_or(0.0),
            );
            return;
        }
        r.set("host.mcyc_per_unit", cost(2));
        r.set("wall.units_per_s", wall_units);
        r.set("wall.latency_p50_ms", lat.p50);
        r.set("wall.latency_tail_ms", lat.tail);
        let spans = self.tracer.spans();
        layer_metrics(r, spans);
        r.set("bench.check_s", self.check_ns as f64 * 1e-9);
        r.set("bench.traced_units", self.traced_units as f64);
        r.set(
            "bench.span_coverage",
            ratio(trace::root_ns(spans), self.traced_ns),
        );
        r.set(
            "bench.trace_overhead",
            ratio(self.traced_ns, self.traced_units) / ratio(self.untraced_ns, self.untraced_units),
        );
        self.core.report(r);
        r.spans = vec![spans.to_vec()];
    }
}

/// Per-layer busy/self times from spans.
pub fn layer_metrics(r: &mut Report, spans: &[trace::Span]) {
    let times = trace::layer_times(spans);
    for (layer, busy, own) in LAYERS.iter().map(|l| {
        let t = times.get(l).copied().unwrap_or_default();
        (*l, t.busy_ns, t.self_ns)
    }) {
        let busy_name = crate::metrics::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".busy_s") == Some(layer))
            .map(|(n, _)| *n)
            .expect("every layer has a busy_s metric");
        let self_name = crate::metrics::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_s") == Some(layer))
            .map(|(n, _)| *n)
            .expect("every layer has a self_s metric");
        r.set(busy_name, busy as f64 * 1e-9);
        r.set(self_name, own as f64 * 1e-9);
    }
}
