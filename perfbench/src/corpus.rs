//! `corpus_sweep`: the toolchain path from source text to checked result.
//!
//! Each round reads every `programs/*.sr` and `*.sr.md`, assembles it
//! (`asm::assemble_source`), lints it (`lint::lint_object_expecting`),
//! builds [`COPIES`] jobs per program with `harness::Job::from_object`
//! bound to the `;!` inputs and sinks, runs them all in one
//! `BatchRunner` (two workers, lane fusion on) and judges each job
//! against its `;!` sinks and cycle budget. Programs run 44 to about
//! 1,000 cycles, so assembly, lint, job build and the runner's own
//! bookkeeping carry much of the time.
//!
//! The `;!` expectations pin the outputs of exactly the declared input
//! vectors, so the seed chooses the order the jobs are submitted in, not
//! their inputs.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use systolic_ring_core::MachineParams;
use systolic_ring_harness::{BatchRunner, CycleBudget, Job, JobOutcome};
use systolic_ring_isa::expect::Expectations;
use systolic_ring_isa::object::Object;
use systolic_ring_isa::{RingGeometry, Word16};
use systolic_ring_lint::LintLimits;

use crate::meter::{ratio, Meter};
use crate::metrics::{percentile, Report, Rng};
use crate::trace::Tracer;
use crate::{Ctx, SETUP_QUANTILE};

/// Jobs built per program per round.
pub const COPIES: usize = 16;
/// Worker threads of the batch runner (the box's core count).
const WORKERS: usize = 2;
/// `UntilHalt` bound for a program that declares no cycle budget.
const DEFAULT_MAX_CYCLES: u64 = 20_000;

/// One assembled and linted program.
pub struct Program {
    /// File name.
    pub name: String,
    /// Assembled object.
    pub object: Object,
    /// Its `;!` block.
    pub expectations: Expectations,
    /// Whether lint passed (warnings allowed, as the job pre-flight does).
    pub lint_ok: bool,
}

impl Program {
    /// The geometry the program declares (Ring-8 by default).
    pub fn geometry(&self) -> RingGeometry {
        self.object.geometry.unwrap_or(RingGeometry::RING_8)
    }
}

/// Lists the corpus sources in `dir`, sorted by name.
pub fn sources(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".sr") || n.ends_with(".sr.md"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Reads, assembles and lints the corpus, one span per call.
pub fn load(dir: &Path, tracer: &mut Tracer) -> Result<Vec<Program>, String> {
    let texts = tracer.span("bench.read_sources", || -> Result<_, String> {
        let paths = sources(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        paths
            .iter()
            .map(|p| {
                let name = p
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("")
                    .to_owned();
                std::fs::read_to_string(p)
                    .map(|text| (name, text))
                    .map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    if texts.is_empty() {
        return Err(format!("no .sr/.sr.md programs in {}", dir.display()));
    }
    let params = MachineParams::default();
    let mut programs = Vec::new();
    for (name, text) in texts {
        let (object, expectations) = tracer
            .span("asm.assemble_source", || {
                systolic_ring_asm::assemble_source(&name, &text)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let limits = LintLimits {
            contexts: params.contexts,
            pipe_depth: params.pipe_depth,
            prog_capacity: params.prog_capacity,
            dmem_capacity: params.dmem_capacity,
            geometry: Some(object.geometry.unwrap_or(RingGeometry::RING_8)),
        };
        let report = tracer.span("lint.lint_object_expecting", || {
            systolic_ring_lint::lint_object_expecting(&object, &limits, Some(&expectations))
        });
        programs.push(Program {
            name,
            lint_ok: report.into_result(false).is_ok(),
            object,
            expectations,
        });
    }
    Ok(programs)
}

/// Builds the job for one program, bound to its `;!` inputs and sinks.
pub fn job(program: &Program) -> Job {
    let exp = &program.expectations;
    let budget = CycleBudget::UntilHalt {
        max_cycles: exp.cycle_budget.unwrap_or(DEFAULT_MAX_CYCLES),
    };
    let mut job = Job::from_object(
        program.name.clone(),
        program.geometry(),
        MachineParams::default(),
        program.object.clone(),
        budget,
    );
    for input in &exp.inputs {
        job = job.with_input(
            input.switch,
            input.port,
            input.words.iter().map(|&v| Word16::from_i16(v)),
        );
    }
    for (switch, port) in exp.sink_ports() {
        job = job.with_sink(switch, port);
    }
    job
}

/// Judges one job outcome against the program's `;!` sinks and cycle
/// budget.
pub fn judge(program: &Program, outcome: &JobOutcome) -> bool {
    let JobOutcome::Completed(out) = outcome else {
        return false;
    };
    if program
        .expectations
        .cycle_budget
        .is_some_and(|b| out.cycles > b)
    {
        return false;
    }
    sinks_ok(program, &out.outputs)
}

/// Whether captured output streams, one per `;!` sink port in
/// `sink_ports()` order, meet every `;!` sink expectation.
pub fn sinks_ok(program: &Program, outputs: &[Vec<i16>]) -> bool {
    let exp = &program.expectations;
    let ports = exp.sink_ports();
    exp.sinks.iter().all(|sink| {
        ports
            .iter()
            .position(|&p| p == (sink.switch, sink.port))
            .and_then(|i| outputs.get(i))
            .is_some_and(|stream| sink.check(stream))
    })
}

/// Self-test hook: makes every sink expectation wrong by demanding one
/// more word, `i16::MIN`, after the expected ones.
pub fn corrupt_expectations(programs: &mut [Program]) {
    for p in programs {
        for sink in &mut p.expectations.sinks {
            sink.values.push(i16::MIN);
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let runner = BatchRunner::with_workers(WORKERS).with_lane_fusion(true);

    // Set-up is reading, assembling and linting the corpus until the
    // first job can be built. Every round does it again, after the
    // previous round's batch run has used the caches, as before a first
    // load, and those loads are the set-up samples; this one checks the
    // corpus.
    let count = match load(&ctx.programs, &mut Tracer::new(false, ctx.epoch)) {
        Ok(p) => p.len(),
        Err(e) => {
            r.invalid = Some(e);
            r.attempted += 1;
            r.failed += 1;
            return r;
        }
    };
    let mut loads = Vec::new();

    // The seed fixes the job order for the whole run.
    let mut order: Vec<usize> = (0..count * COPIES).map(|i| i % count).collect();
    Rng::new(ctx.seed, 3).shuffle(&mut order);

    let mut m = match Meter::new(ctx.trace, ctx.seconds, ctx.epoch) {
        Ok(m) => m,
        Err(e) => {
            r.invalid = Some(e);
            r.attempted += 1;
            r.failed += 1;
            return r;
        }
    };
    let (mut build_ns, mut batch_ns, mut jobs_traced) = (0u64, 0u64, 0u64);
    let (mut lane_cycles, mut fused_cycles) = (0u64, 0u64);
    let mut job_walls_ms = Vec::new();
    while m.next_round() {
        let t = Instant::now();
        let mut programs = match load(&ctx.programs, &mut m.tracer) {
            Ok(p) if p.len() == count => p,
            Ok(_) | Err(_) => {
                r.invalid = Some("the corpus changed during the run".into());
                r.attempted += 1;
                r.failed += 1;
                break;
            }
        };
        if !m.traced() {
            loads.push(t.elapsed().as_secs_f64());
        }
        if ctx.corrupt_expected {
            corrupt_expectations(&mut programs);
        }
        let tb = Instant::now();
        let jobs: Vec<Job> = order
            .iter()
            .map(|&p| m.tracer.span("harness.job_build", || job(&programs[p])))
            .collect();
        let tr = Instant::now();
        let batch = m.tracer.span("harness.batch_run", || runner.run(&jobs));
        let latency = t.elapsed();
        let run_wall = tr.elapsed();
        let verdicts: Vec<bool> = m.check(|| {
            batch
                .reports
                .iter()
                .zip(&order)
                .map(|(rep, &p)| programs[p].lint_ok && judge(&programs[p], &rep.outcome))
                .collect()
        });
        if m.traced() {
            build_ns += (tr - tb).as_nanos() as u64;
            batch_ns += run_wall.as_nanos() as u64;
        }
        let (mut round_jobs, mut round_cycles) = (0u64, 0u64);
        for (rep, ok) in batch.reports.iter().zip(verdicts) {
            r.attempted += 1;
            let out = match (&rep.outcome, ok) {
                (JobOutcome::Completed(out), true) => out,
                _ => {
                    r.failed += 1;
                    continue;
                }
            };
            if m.counts_core() {
                m.core.add(&out.stats, 1, Duration::ZERO);
            }
            if m.traced() {
                jobs_traced += 1;
                job_walls_ms.push(rep.wall.as_secs_f64() * 1e3);
                lane_cycles += out.stats.fused_lane_occupancy;
                fused_cycles += out.stats.fused_cycles;
            }
            round_cycles += out.cycles;
            round_jobs += 1;
        }
        // Every job of the round waits for the whole sweep: one latency
        // sample per round.
        m.units(round_jobs, latency, round_cycles);
        if m.counts_core() {
            m.core.sim_ns += run_wall.as_nanos() as u64;
        }
        m.end_round();
    }
    loads.sort_by(f64::total_cmp);
    r.note(format!(
        "set-up: corpus loads of {} untraced rounds, quartiles {:.1} / {:.1} / {:.1} us",
        loads.len(),
        percentile(&loads, 0.25) * 1e6,
        percentile(&loads, 0.5) * 1e6,
        percentile(&loads, 0.75) * 1e6
    ));
    m.finish(&mut r, percentile(&loads, SETUP_QUANTILE));
    if ctx.trace {
        let spans = m.tracer.spans();
        let (asm_ns, asm_calls) = crate::trace::named(spans, "asm.assemble_source");
        let (lint_ns, lint_calls) = crate::trace::named(spans, "lint.lint_object_expecting");
        r.set("asm.assemble_s", asm_ns as f64 * 1e-9);
        r.set("asm.calls", asm_calls as f64);
        r.set("lint.lint_s", lint_ns as f64 * 1e-9);
        r.set("lint.calls", lint_calls as f64);
        r.set("harness.job_build_s", build_ns as f64 * 1e-9);
        r.set("harness.batch_run_s", batch_ns as f64 * 1e-9);
        job_walls_ms.sort_by(f64::total_cmp);
        r.set("harness.job_wall_p50_ms", percentile(&job_walls_ms, 0.5));
        r.set("harness.lane_occupancy", ratio(lane_cycles, fused_cycles));
        r.set("harness.jobs", jobs_traced as f64);
    }
    r.note(format!(
        "corpus: {count} programs x {COPIES} jobs per round on {WORKERS} workers"
    ));
    r
}
