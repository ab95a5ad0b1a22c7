//! Metric catalogue, the per-run report and the small statistics the
//! workloads share.
//!
//! The catalogue is the single list of metric names and units; the JSON
//! result line prints exactly the end-to-end entries (untraced run) or
//! exactly the per-layer entries (traced run), and a self-test holds it
//! equal to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, reported by every workload.
///
/// Speed is counted in host instructions retired, not in time (see
/// [`crate::counters`] for why). Cycles and wall time are printed with
/// every run and are per-layer metrics of the traced run (`host.*`,
/// `wall.*`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_minstr_per_unit", "Minstr"),
    ("host_instr_per_sim_cyc", "instr"),
    ("sim_cycles_per_unit", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Layers that get a busy/self time pair from the traced run.
pub const LAYERS: &[&str] = &["kernels", "asm", "lint", "harness", "server", "bench"];

/// Per-layer metrics: `(name, unit)`. Every workload prints all of them;
/// a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.busy_s", "s"),
    ("kernels.self_s", "s"),
    ("asm.busy_s", "s"),
    ("asm.self_s", "s"),
    ("lint.busy_s", "s"),
    ("lint.self_s", "s"),
    ("harness.busy_s", "s"),
    ("harness.self_s", "s"),
    ("server.busy_s", "s"),
    ("server.self_s", "s"),
    ("bench.busy_s", "s"),
    ("bench.self_s", "s"),
    ("asm.assemble_s", "s"),
    ("asm.calls", "count"),
    ("lint.lint_s", "s"),
    ("lint.calls", "count"),
    ("harness.job_build_s", "s"),
    ("harness.batch_run_s", "s"),
    ("harness.job_wall_p50_ms", "ms"),
    ("harness.lane_occupancy", "lanes"),
    ("harness.jobs", "count"),
    ("kernels.forward_2d_s", "s"),
    ("kernels.block_match_s", "s"),
    ("kernels.calls", "count"),
    ("core.cycles", "cycles/unit"),
    ("core.ns_per_cycle", "ns"),
    ("core.compiled_coverage", "ratio"),
    ("core.fused_entries", "count/unit"),
    ("core.decode_cache_hit_ratio", "ratio"),
    ("core.fused_deopts", "count/unit"),
    ("core.aot_guard_misses", "count/unit"),
    ("core.ctx_switches", "count/unit"),
    ("core.config_writes", "count/unit"),
    ("core.guards_elided", "count/unit"),
    ("server.submit_ms_p50", "ms"),
    ("server.submit_ms_tail", "ms"),
    ("server.settle_ms_p50", "ms"),
    ("server.settle_ms_tail", "ms"),
    ("server.status_polls_per_job", "count"),
    ("server.lane_occupancy", "lanes"),
    ("server.advanced_cycles", "cycles"),
    ("server.preemptions", "count"),
    ("server.rejected_full", "count"),
    ("server.rejected_quota", "count"),
    ("server.max_depth", "count"),
    ("server.faulted", "count"),
    ("service.slo_rate_jobs_per_s", "jobs/s"),
    ("service.interactive_latency_tail_ms", "ms"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.connections", "count"),
    ("bench.check_s", "s"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.traced_units", "count"),
    ("host.mcyc_per_unit", "Mcycles"),
    ("wall.units_per_s", "1/s"),
    ("wall.latency_p50_ms", "ms"),
    ("wall.latency_tail_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "wavelet_frame",
    "motion_frame",
    "corpus_sweep",
    "service_mixed",
];

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Units attempted (measured units plus checked warm-up units).
    pub attempted: u64,
    /// Units whose output check failed, or that faulted, were refused or
    /// were lost.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
    /// Set when the run cannot stand as a measurement (e.g. the open-loop
    /// sender fell behind its schedule).
    pub invalid: Option<String>,
    /// Recorded spans, one list per recording thread (traced run only).
    pub spans: Vec<Vec<crate::trace::Span>>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// `setup_s` from a run's set-up samples: their
/// [`crate::SETUP_QUANTILE`].
pub fn setup_s(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, crate::SETUP_QUANTILE)
}

/// A latency distribution's median and tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (0.5 when there are too few samples
    /// for any higher one).
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
    /// Samples strictly above the tail percentile's rank (in each
    /// window, for [`windowed_latency`]).
    pub beyond: usize,
    /// Windows the figures are medians over (1 for [`latency`]).
    pub windows: usize,
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [0.999, 0.99, 0.98, 0.96, 0.95, 0.9, 0.75, 0.5];

/// Median and the highest percentile of [`TAIL_LADDER`] with at least ten
/// samples beyond it.
pub fn latency(samples: &[f64]) -> Latency {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |p: f64| n - ((n as f64 * p).ceil() as usize).min(n);
    let tail_p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(0.5);
    Latency {
        n,
        p50: percentile(&v, 0.5),
        tail_p,
        tail: percentile(&v, tail_p),
        beyond: beyond(tail_p),
        windows: 1,
    }
}

/// Samples per window of [`windowed_latency`]: the smallest count whose
/// p96 has ten samples beyond it. Short windows keep a few stalled
/// stretches of a run from setting the run's tail.
const WINDOW: usize = 250;

/// Latency figures over consecutive windows of at least [`WINDOW`] samples
/// (one window when there are fewer): the median over windows of each
/// window's median and tail. A host stall then moves one window's
/// figures, not the run's.
pub fn windowed_latency(samples: &[f64]) -> Latency {
    let windows = (samples.len() / WINDOW).max(1);
    let per: Vec<Latency> = (0..windows)
        .map(|i| latency(&samples[i * samples.len() / windows..(i + 1) * samples.len() / windows]))
        .collect();
    let pick = |f: fn(&Latency) -> f64| median(&per.iter().map(f).collect::<Vec<_>>());
    Latency {
        n: samples.len(),
        p50: pick(|l| l.p50),
        tail_p: per.iter().map(|l| l.tail_p).fold(1.0, f64::min),
        tail: pick(|l| l.tail),
        beyond: per.iter().map(|l| l.beyond).min().unwrap_or(0),
        windows,
    }
}

impl Latency {
    /// `p50 0.5 ms, p99 1.2 ms (n = 6000, 6 windows, >= 10 beyond each)`.
    pub fn describe(&self) -> String {
        format!(
            "p50 {:.3} ms, p{} {:.3} ms (n = {}, {} window(s), >= {} beyond each)",
            self.p50,
            self.tail_p * 100.0,
            self.tail,
            self.n,
            self.windows,
            self.beyond
        )
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of process `pid` (`"self"` for this one) so
/// far, in seconds (`/proc` counts in units of 1/100 s).
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) / 100.0)
}

/// SplitMix64: the benchmark's own seeded generator for input choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Formats a metric value for JSON: finite numbers with all their digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
/// over exactly the catalogue entries `names`.
pub fn result_json(report: &Report, correct: bool, names: &[(&str, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = latency(&samples);
        assert_eq!(l.tail_p, 0.95);
        assert_eq!(l.beyond, 10);
        assert_eq!(l.tail, 190.0);
        assert_eq!(l.p50, 100.0);
        let few = latency(&[3.0, 1.0, 2.0]);
        assert_eq!(few.tail_p, 0.5);
        assert_eq!(few.p50, 2.0);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 250; a stall inflates only the middle one.
        let mut samples: Vec<f64> = (0..750).map(|i| f64::from(i % 250)).collect();
        for s in &mut samples[250..260] {
            *s = 1e6;
        }
        let l = windowed_latency(&samples);
        assert_eq!((l.windows, l.tail_p, l.beyond), (3, 0.96, 10));
        assert_eq!(l.tail, 239.0);
        assert_eq!(l.p50, 124.0);
        assert_eq!(windowed_latency(&[1.0, 2.0, 3.0]).windows, 1);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
