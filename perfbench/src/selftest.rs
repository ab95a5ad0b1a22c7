//! `perfbench --self-test`: checks the benchmark itself.
//!
//! * Every metric name matches `[A-Za-z0-9_.-]+` and the catalogue stays
//!   within the limits: 4 workloads, at most 16 end-to-end and at most
//!   128 per-layer metrics. `BENCHMARK.json` names exactly these.
//! * A deliberately corrupted expected output is counted as a failure on
//!   every workload.
//! * Two traced runs with the same seed give identical `core.*` counts,
//!   and two untraced runs identical `sim_cycles_per_unit`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use crate::metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{run_workload, Ctx};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Catalogue checks, and agreement with `BENCHMARK.json` text.
fn catalogue(benchmark_json: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if WORKLOADS.len() != 4 {
        problems.push(format!("{} workloads, want 4", WORKLOADS.len()));
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        problems.push("too many metrics".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if !valid_name(name) || !valid_unit(unit) || !seen.insert(name) {
            problems.push(format!("bad or repeated metric {name} ({unit})"));
        }
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !benchmark_json.contains(&entry) {
            problems.push(format!("BENCHMARK.json lacks {entry}"));
        }
    }
    for w in WORKLOADS {
        if !valid_name(w) || !benchmark_json.contains(&format!("\"name\": \"{w}\"")) {
            problems.push(format!("BENCHMARK.json lacks workload {w}"));
        }
    }
    let entries = benchmark_json.matches("\"name\":").count();
    let want = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
    if entries != want {
        problems.push(format!(
            "BENCHMARK.json has {entries} named entries, want {want}"
        ));
    }
    problems
}

fn ctx(srserved: &Path, programs: &Path, seed: u64, trace: bool, corrupt: bool) -> Ctx {
    Ctx {
        seed,
        seconds: 0.3,
        trace,
        srserved: srserved.to_path_buf(),
        programs: programs.to_path_buf(),
        epoch: Instant::now(),
        corrupt_expected: corrupt,
    }
}

fn core_counts(r: &Report) -> Vec<(&'static str, f64)> {
    r.metrics
        .iter()
        .filter(|(k, _)| k.starts_with("core.") && **k != "core.ns_per_cycle")
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Runs every self-test; exit code 1 when any fails.
pub fn run(srserved: &Path, programs: &Path) -> ExitCode {
    let mut problems = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => catalogue(&text),
        Err(e) => vec![format!("BENCHMARK.json: {e}")],
    };
    for &w in WORKLOADS {
        let r = run_workload(w, &ctx(srserved, programs, 7, false, true)).expect("known workload");
        println!(
            "corrupted {w}: {} attempted, {} failed",
            r.attempted, r.failed
        );
        if r.attempted == 0 || r.failed != r.attempted {
            problems.push(format!(
                "{w}: corrupted expectations were not all counted as failures"
            ));
        }
        let runs: Vec<Report> = (0..2)
            .map(|_| run_workload(w, &ctx(srserved, programs, 11, false, false)).expect("known"))
            .collect();
        let cycles: Vec<f64> = runs
            .iter()
            .map(|r| r.metrics["sim_cycles_per_unit"])
            .collect();
        println!("{w}: sim_cycles_per_unit {cycles:?}");
        if cycles[0] != cycles[1] || runs.iter().any(|r| r.failed > 0) {
            problems.push(format!(
                "{w}: sim_cycles_per_unit differs between runs or a run failed"
            ));
        }
        if w == "service_mixed" {
            continue;
        }
        let traced: Vec<Report> = (0..2)
            .map(|_| run_workload(w, &ctx(srserved, programs, 11, true, false)).expect("known"))
            .collect();
        let (a, b) = (core_counts(&traced[0]), core_counts(&traced[1]));
        println!("{w}: core counts {a:?}");
        if a.is_empty() || a != b {
            problems.push(format!("{w}: traced core.* counts differ between runs"));
        }
    }
    for p in &problems {
        println!("SELF-TEST FAILED: {p}");
    }
    if problems.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_contract() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn catalogue_matches_the_checked_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(catalogue(&text), Vec::<String>::new());
    }
}
