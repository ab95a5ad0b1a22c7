//! `service_mixed`: spawned `srserved --workers 2` daemons under an
//! open-loop, mixed-tenant load.
//!
//! The load comes from two threads and at most two connections at a
//! time: this thread sends on the schedule (`POST /v1/jobs`), and one
//! settler thread polls ticket status (`GET /v1/jobs/<ticket>`) and
//! records when each job is seen settled. Arrivals are scheduled from the
//! rung start, never from responses, and each job's latency runs from
//! its scheduled arrival to the moment its settlement is observed.
//!
//! The traffic mix, fixed per seed:
//! * four batch tenants (as `srload` uses) submit the shared demo object,
//!   identical objects the service packs into 16-lane groups;
//! * one tenant submits 256-cycle interactive demo jobs (the size of the
//!   scripted preemption suite's bursts), which preempt batch units at
//!   slice boundaries;
//! * a share of jobs carries the other corpus objects, which cannot pack
//!   and each need their own lint admission.
//!
//! Batch jobs run [`BATCH_CYCLES`]. At `srload`'s 2,048 cycles the
//! service kept up with all that a two-thread load generator can send
//! (4,375 jobs/s offered and completed, queue depth at most 7), so no
//! rung could reach saturation; at 16,384 cycles the service saturates
//! well inside the generator's reach.
//!
//! The offered rates are a ladder of fractions of [`CAPACITY_REF`], the
//! measured knee of the service under this mix. Each rung runs on a
//! daemon of its own, started with queue and tenant limits high enough
//! that overload queues instead of being refused. Every settled output is
//! checked against `bench::service::expected_outputs` or the object's
//! `;!` sinks; a refusal (429), a fault, a wrong output or a job never
//! seen settled counts as failed.
//!
//! * Followed rungs, up to 1.25 times the knee: every ticket is polled to
//!   settlement. Their tails give the SLO rate (the highest rung whose
//!   tail meets [`SLO_TAIL_MS`] with nothing failed and no growing
//!   backlog); the long rung at a quarter of the knee gives the wall
//!   latency figures (`wall.latency_*`).
//! * Overload rungs, three times the knee: the settler stays quiet while
//!   the sender sends as fast as the host lets it, the backlog builds in
//!   the service (queue depth 50 to 300, lane groups packed two to
//!   three deep, hundreds of preemptions), and the service's own
//!   completion counter says when it has caught up. The median completion
//!   rate over the repetitions is `wall.units_per_s`. Load generator and
//!   service share the host's two cores, and `srserved` uses about 84% of
//!   the CPU time spent in these rungs, so the figure follows the
//!   service's cost per job; it cannot show a service faster than the
//!   sender can submit (about 6,500 jobs/s on the reference host).
//!
//! The end-to-end figures are the service's cost: the user-space
//! instructions `srserved` retires per settled job over the whole
//! ladder, counted per daemon over its life (see [`crate::counters`]),
//! and per simulated cycle. Wall rates and latencies follow the host's
//! other tenants as much as the service (run-to-run spreads of 30-40% on
//! a shared host), so they are the traced run's `wall.*` figures, beside
//! the daemon's cycles per job (`host.mcyc_per_unit`).
//!
//! `srserved` keeps every connection-handler thread until it drains and
//! aborts after about 32,700 connections, so each daemon gets a budget of
//! [`CONN_BUDGET`] connections: polls back off with a ticket's age, the
//! count is reported as `bench.connections`, and a rung that reaches the
//! budget stops and makes the run invalid rather than crash the daemon.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use systolic_ring_bench::service::{demo_inputs, demo_object, expected_outputs};
use systolic_ring_server::{Client, Submit, SubmitSpec, TicketStatus};

use crate::corpus::{self, Program};
use crate::counters::{Counters, Counts};
use crate::meter::{layer_metrics, ratio};
use crate::metrics::{cpu_s, latency, median, percentile, setup_s, windowed_latency, Report, Rng};
use crate::trace::{self, Tracer};
use crate::{Ctx, SETUP_REPS};

/// The knee of `srserved --workers 2` under this mix with every job
/// followed to settlement, on the reference host (2-core x86-64 Linux
/// VM): at 1,450 jobs/s offered the tail sometimes meets the SLO; at
/// 1,812 jobs/s only 1,440 to 1,580 jobs/s settled, in three seeds out of
/// three. The ladder is built from it.
pub const CAPACITY_REF: f64 = 1450.0;
/// The ladder: (fraction of [`CAPACITY_REF`], share of the run's
/// seconds), run in this order, each on a fresh daemon. The last
/// [`OVERLOAD_REPS`] are overload rungs, watched through `/v1/stats` (see
/// [`watch_loop`]); the others are followed ticket by ticket.
pub const RUNGS: [(f64, f64); 10] = [
    (0.25, 0.60),
    (0.5, 0.04),
    (0.75, 0.04),
    (1.0, 0.04),
    (1.25, 0.04),
    (3.0, 0.04),
    (3.0, 0.04),
    (3.0, 0.04),
    (3.0, 0.04),
    (3.0, 0.04),
];
/// Overload repetitions at the end of [`RUNGS`]; the wall throughput
/// figure is the median over them.
const OVERLOAD_REPS: usize = 5;
/// The rung whose latencies are the `wall.latency_*` figures: a
/// quarter of the knee, where queueing adds little to host noise, given
/// most of the time so the tail rests on many samples.
const REFERENCE_RUNG: usize = 0;
/// The rung whose interactive tail is reported: the knee, where
/// interactive jobs meet running batch units.
const LOADED_RUNG: usize = 3;
/// Latency limit on the tail percentile for the SLO rate.
pub const SLO_TAIL_MS: f64 = 25.0;
/// A followed rung whose sender ran later than this behind schedule does
/// not count for the SLO rate, and the wall latency figures of a
/// reference rung that did are marked in the notes. The end-to-end
/// figures count the daemon's instructions, which a late sender does not
/// change, so it does not void the run.
const LAG_LIMIT_MS: f64 = 50.0;
/// How long the settler waits for stragglers after a rung's last arrival.
const SETTLE_GRACE: Duration = Duration::from_secs(10);
/// Connections one daemon may be opened, well below the ~32,700 after
/// which `srserved` aborts.
const CONN_BUDGET: u64 = 16_000;
/// Jobs one rung may plan, so that a submit and about one poll per job
/// stay well inside [`CONN_BUDGET`].
const MAX_RUNG_JOBS: usize = 6_000;
/// A ticket seen unsettled is polled again no sooner than a sixteenth of
/// its age, clamped to these bounds: young tickets are watched closely,
/// old ones cost few connections.
const MIN_GAP: Duration = Duration::from_micros(200);
const MAX_GAP: Duration = Duration::from_millis(4);
/// How often the overload rung samples the server's completion counter.
const WATCH_GAP: Duration = Duration::from_millis(2);
/// Queue and per-tenant limits of the spawned daemons: far above any
/// backlog a run builds, so overload queues rather than being refused.
const ADMISSION_LIMIT: &str = "1000000";
const BATCH_TENANTS: usize = 4;
/// Cycles of a batch demo job (see the module notes for why this size).
const BATCH_CYCLES: u64 = 16384;
const INTERACTIVE_CYCLES: u64 = 256;
/// Every run of [`MIX`]'s length consecutive jobs holds the whole mix, in
/// seeded order, so the mix does not drift between seeds.
const BURST: usize = MIX.len();
/// Distinct demo input offsets per run.
const BASES: usize = 16;
/// Of every 10 jobs: 1 interactive, 1 corpus object, 8 batch demo. A
/// chosen design point, not a measured trace: batch work dominates so
/// that identical objects can pack, interactive jobs are frequent enough
/// to give a tail of their own, and each corpus object recurs often
/// enough to be admitted many times per rung.
const MIX: [Kind; 10] = [
    Kind::Interactive,
    Kind::Corpus,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
    Kind::Batch,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Batch,
    Interactive,
    Corpus,
}

/// One scheduled job and the answer it must produce.
struct Planned {
    kind: Kind,
    spec: SubmitSpec,
    /// Demo jobs: index into the expected-output table; corpus jobs:
    /// index of the program.
    answer: usize,
    cycles: u64,
}

/// What the settler saw for one job.
struct Settled {
    job: usize,
    status: TicketStatus,
    seen: Instant,
    latency: Duration,
    settle: Duration,
    polls: u32,
}

/// Accepted job handed from the sender to the settler.
struct Ticket {
    job: usize,
    ticket: u64,
    due: Instant,
    accepted: Instant,
    interactive: bool,
    traced: bool,
}

/// A spawned `srserved`, stopped and reaped on drop.
struct Daemon {
    child: Child,
    /// Its host counts, complete once it has exited.
    counters: Counters,
    addr: SocketAddr,
    /// Connections opened to it so far.
    conns: AtomicU64,
}

impl Daemon {
    fn spawn(binary: &Path) -> Result<Daemon, String> {
        // Started from a thread of its own that ends at once, so the
        // inherited counters count the daemon and nothing else of ours.
        let spawner = || -> Result<(Counters, Child), String> {
            let counters = Counters::open()?;
            let child = Command::new(binary)
                .args(["--workers", "2"])
                .args(["--queue-cap", ADMISSION_LIMIT])
                .args(["--tenant-quota", ADMISSION_LIMIT])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
            Ok((counters, child))
        };
        let (counters, mut child) = std::thread::scope(|s| s.spawn(spawner).join())
            .map_err(|_| "the spawning thread panicked".to_owned())??;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(Daemon {
                child,
                counters,
                addr,
                conns: AtomicU64::new(0),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("srserved printed no address: {line:?}"))
            }
        }
    }

    /// Claims one connection; `false` once [`CONN_BUDGET`] is spent.
    fn connect(&self) -> bool {
        self.conns.fetch_add(1, Ordering::Relaxed) < CONN_BUDGET
    }

    /// CPU seconds used so far by the benchmark and by the daemon.
    fn cpu(&self) -> Option<[f64; 2]> {
        Some([cpu_s("self")?, cpu_s(&self.child.id().to_string())?])
    }

    fn connections(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }

    /// Asks the server to drain, without waiting for it to exit.
    fn request_drain(&self) -> bool {
        self.conns.fetch_add(1, Ordering::Relaxed);
        Client::new(self.addr).drain().is_ok()
    }

    /// Waits for a clean exit after a drain request; returns the host
    /// counts of the daemon's whole life.
    fn wait_exit(mut self, drained: bool) -> Result<Counts, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && drained => {
                    return self
                        .counters
                        .read()
                        .map_err(|e| format!("cannot read srserved's counters: {e}"))
                }
                Ok(Some(status)) => return Err(format!("srserved exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("srserved did not exit after drain".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Drains every daemon, then waits for all of them, so their shutdown
/// grace periods overlap; returns their host counts.
fn drain_all(daemons: Vec<Daemon>) -> Result<Vec<Counts>, String> {
    let drained: Vec<bool> = daemons.iter().map(Daemon::request_drain).collect();
    let exits: Vec<Result<Counts, String>> = daemons
        .into_iter()
        .zip(drained)
        .map(|(d, ok)| d.wait_exit(ok))
        .collect();
    exits.into_iter().collect()
}

/// Spawns a daemon and waits for `/healthz`; returns it with the time
/// from spawn to the first healthy answer.
fn start(binary: &Path) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(binary)?;
    let client = Client::new(daemon.addr).with_timeout(Duration::from_secs(5));
    loop {
        daemon.connect();
        if let Ok(true) = client.health() {
            return Ok((daemon, t.elapsed().as_secs_f64()));
        }
        if t.elapsed() > Duration::from_secs(10) {
            return Err("srserved never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Every rung's jobs, and the expected demo outputs they index.
type Plan = (Vec<Vec<Planned>>, Vec<Vec<Vec<i16>>>);

/// When a watched rung's jobs had all settled by the service's own count,
/// with the benchmark's and the daemon's CPU seconds at that moment.
type AllSettled = (Instant, Option<[f64; 2]>);

/// Plans every job of every rung from the seed.
fn plan(ctx: &Ctx, programs: &[Program]) -> Result<Plan, String> {
    let mut rng = Rng::new(ctx.seed, 4);
    let bases: Vec<i16> = (0..BASES).map(|_| rng.range(-1000, 1000) as i16).collect();
    // Expected outputs: BASES batch answers, then BASES interactive ones.
    let mut expected: Vec<Vec<Vec<i16>>> = bases
        .iter()
        .map(|&b| expected_outputs(b, BATCH_CYCLES))
        .chain(
            bases
                .iter()
                .map(|&b| expected_outputs(b, INTERACTIVE_CYCLES)),
        )
        .collect();
    if ctx.corrupt_expected {
        expected = crate::corrupt(expected.into_iter().map(|o| o.concat()).collect())
            .into_iter()
            .map(|flat| vec![flat])
            .collect();
    }
    let demo = demo_object();
    let mut corpus_order: Vec<usize> = (0..programs.len()).collect();
    rng.shuffle(&mut corpus_order);
    let mut next_corpus = 0usize;
    let mut rungs = Vec::new();
    for &(fraction, share) in &RUNGS {
        let jobs = (fraction * CAPACITY_REF * share * ctx.seconds)
            .round()
            .max(MIX.len() as f64) as usize;
        if jobs > MAX_RUNG_JOBS {
            return Err(format!(
                "{jobs} jobs at {} jobs/s exceed the {MAX_RUNG_JOBS} one daemon may take; use fewer --seconds",
                fraction * CAPACITY_REF
            ));
        }
        let mut kinds: Vec<Kind> = (0..jobs).map(|i| MIX[i % BURST]).collect();
        for burst in kinds.chunks_mut(BURST) {
            rng.shuffle(burst);
        }
        let rung = kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Corpus => {
                    let p = corpus_order[next_corpus % corpus_order.len()];
                    next_corpus += 1;
                    corpus_job(&programs[p], p)
                }
                Kind::Batch | Kind::Interactive => {
                    let b = rng.range(0, BASES as i64 - 1) as usize;
                    let (tenant, cycles, answer) = if kind == Kind::Batch {
                        let t = rng.range(0, BATCH_TENANTS as i64 - 1);
                        (format!("batch-{t}"), BATCH_CYCLES, b)
                    } else {
                        ("interactive".to_owned(), INTERACTIVE_CYCLES, BASES + b)
                    };
                    let mut spec = SubmitSpec::new(tenant, &demo, cycles)
                        .input(0, 0, &demo_inputs(bases[b]))
                        .sink(1, 0);
                    if kind == Kind::Interactive {
                        spec = spec.interactive();
                    }
                    Planned {
                        kind,
                        spec,
                        answer,
                        cycles,
                    }
                }
            })
            .collect();
        rungs.push(rung);
    }
    Ok((rungs, expected))
}

/// A corpus object as a service job: its `;!` inputs and sinks, run for
/// its declared cycle budget.
fn corpus_job(program: &Program, index: usize) -> Planned {
    let exp = &program.expectations;
    let cycles = exp.cycle_budget.unwrap_or(1024);
    let mut spec = SubmitSpec::new(format!("corpus-{}", program.name), &program.object, cycles);
    spec.geometry = program.geometry().dnodes();
    for input in &exp.inputs {
        spec = spec.input(input.switch, input.port, &input.words);
    }
    for (switch, port) in exp.sink_ports() {
        spec = spec.sink(switch, port);
    }
    Planned {
        kind: Kind::Corpus,
        spec,
        answer: index,
        cycles,
    }
}

/// Checks one settled job.
fn correct(
    planned: &Planned,
    status: &TicketStatus,
    expected: &[Vec<Vec<i16>>],
    programs: &[Program],
) -> bool {
    if status.status != "completed" || status.cycles != Some(planned.cycles) {
        return false;
    }
    match planned.kind {
        Kind::Corpus => corpus::sinks_ok(&programs[planned.answer], &status.outputs),
        Kind::Batch | Kind::Interactive => status.outputs == expected[planned.answer],
    }
}

/// Everything one rung measured.
#[derive(Default)]
struct Rung {
    rate: f64,
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    interactive_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    settle_ms: Vec<f64>,
    polls: u64,
    settled_cycles: u64,
    settled: u64,
    /// From the first scheduled arrival to the last settlement: observed,
    /// or for a watched rung counted by the service.
    busy: Duration,
    /// From the first scheduled arrival to the last submit's answer.
    sending: Duration,
    lag_ms: Vec<f64>,
    accepted: u64,
    drain_after_last: Duration,
    invalid: bool,
    over_budget: bool,
    /// Watched through `/v1/stats` rather than followed ticket by ticket.
    watched: bool,
    /// CPU seconds of the benchmark and of `srserved` over the rung's
    /// sending and settling (before the watched rung's output fetch).
    cpu_s: [f64; 2],
    /// User-space host counts of the rung's daemon over its whole life.
    daemon: Counts,
    connections: u64,
    counters: BTreeMap<String, f64>,
    rss_mb: f64,
    check_ns: u64,
    /// Traced and untraced sender time per job, for the overhead ratio.
    sender_ns: [u64; 2],
    sender_jobs: [u64; 2],
    traced_slot_ns: u64,
}

/// Runs one rung on `daemon`: sends `jobs` on the schedule from this
/// thread while a settler thread observes settlements.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    daemon: &Daemon,
    rate: f64,
    jobs: &[Planned],
    expected: &[Vec<Vec<i16>>],
    programs: &[Program],
    trace: bool,
    watch: bool,
    sender_tr: &mut Tracer,
    settler_tr: &mut Tracer,
) -> Rung {
    let mut rung = Rung {
        rate,
        ..Rung::default()
    };
    let client = Client::new(daemon.addr).with_timeout(Duration::from_secs(30));
    let (tx, rx) = mpsc::channel::<Ticket>();
    let start = Instant::now() + Duration::from_millis(5);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut last_due = start;
    let mut last_answer = start;

    let cpu_before = daemon.cpu();
    let mut all_done = None;
    let (settled, settler_over_budget) = std::thread::scope(|scope| {
        let settler_client = client.clone();
        let all_done = &mut all_done;
        let settler = scope.spawn(move || {
            if watch {
                let (out, done, over) = watch_loop(&settler_client, daemon, rx);
                *all_done = done;
                (out, over)
            } else {
                settle_loop(&settler_client, daemon, rx, settler_tr)
            }
        });
        for (i, job) in jobs.iter().enumerate() {
            let traced = trace && i % 2 == 1;
            sender_tr.set_on(traced);
            sender_tr.set_unit(i as u64);
            let slot = Instant::now();
            let due = start + interval * i as u32;
            last_due = due;
            let wait = sender_tr.begin("bench.wait");
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sender_tr.end(wait);
            if !daemon.connect() {
                rung.over_budget = true;
                break;
            }
            let sent = Instant::now();
            if !watch {
                rung.lag_ms
                    .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            let span = sender_tr.begin("server.submit");
            let result = client.submit(job.spec.clone());
            sender_tr.end(span);
            let accepted = Instant::now();
            last_answer = accepted;
            rung.submit_ms.push((accepted - sent).as_secs_f64() * 1e3);
            let record = sender_tr.begin("bench.record");
            rung.attempted += 1;
            match result {
                Ok(Submit::Accepted { ticket, .. }) => {
                    rung.accepted += 1;
                    let _ = tx.send(Ticket {
                        job: i,
                        ticket,
                        due,
                        accepted,
                        interactive: job.kind == Kind::Interactive,
                        traced,
                    });
                }
                _ => rung.failed += 1,
            }
            sender_tr.end(record);
            let k = usize::from(traced);
            rung.sender_ns[k] += (Instant::now() - sent).as_nanos() as u64;
            rung.sender_jobs[k] += 1;
            if traced {
                rung.traced_slot_ns += slot.elapsed().as_nanos() as u64;
            }
        }
        sender_tr.set_on(false);
        drop(tx);
        settler.join().expect("settler thread panicked")
    });
    let end = Instant::now();
    let cpu_after = match all_done {
        Some((_, cpu)) => cpu,
        None => daemon.cpu(),
    };
    if let (Some([bench0, server0]), Some([bench1, server1])) = (cpu_before, cpu_after) {
        rung.cpu_s = [bench1 - bench0, server1 - server0];
    }
    rung.over_budget |= settler_over_budget;
    rung.sending = last_answer.saturating_duration_since(start);
    rung.busy = all_done
        .map(|(t, _)| t)
        .or_else(|| settled.iter().map(|s| s.seen).max())
        .unwrap_or(end)
        .saturating_duration_since(start);
    rung.drain_after_last = end.saturating_duration_since(last_due);
    // An overload rung is meant to outrun the service, which slows the
    // sender too, so only followed rungs record lag and are held to the
    // schedule.
    rung.watched = watch;
    rung.invalid = rung.over_budget
        || rung.lag_ms.last().copied().unwrap_or(0.0) > LAG_LIMIT_MS
        || percentile(&sorted(&rung.lag_ms), 0.99) > LAG_LIMIT_MS;

    let t = Instant::now();
    for s in &settled {
        let planned = &jobs[s.job];
        if !correct(planned, &s.status, expected, programs) {
            rung.failed += 1;
            continue;
        }
        if !watch {
            let ms = s.latency.as_secs_f64() * 1e3;
            rung.latencies_ms.push(ms);
            if planned.kind == Kind::Interactive {
                rung.interactive_ms.push(ms);
            }
            rung.settle_ms.push(s.settle.as_secs_f64() * 1e3);
            rung.polls += u64::from(s.polls);
        }
        rung.settled += 1;
        rung.settled_cycles += planned.cycles;
    }
    // Accepted jobs never seen settled are lost.
    rung.failed += rung.accepted.saturating_sub(settled.len() as u64);
    rung.check_ns = t.elapsed().as_nanos() as u64;
    daemon.connect();
    rung.counters = server_counters(&client);
    rung.rss_mb = crate::metrics::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    rung.connections = daemon.connections();
    rung
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Share of the CPU time spent during a rung that `srserved` used.
fn server_share(rung: &Rung) -> f64 {
    let [bench, server] = rung.cpu_s;
    if bench + server > 0.0 {
        server / (bench + server)
    } else {
        0.0
    }
}

/// How long a ticket seen unsettled at `age` waits for its next poll.
fn poll_gap(age: Duration) -> Duration {
    (age / 16).clamp(MIN_GAP, MAX_GAP)
}

/// One accepted job the settler has not yet seen settled.
struct Waiting {
    ticket: Ticket,
    polls: u32,
    next: Instant,
}

/// The settler: polls outstanding tickets that are due — interactive
/// ones first, then batch ones oldest first until one is still running —
/// and records each settlement as it is observed. Returns the
/// settlements and whether the daemon's connection budget ran out.
fn settle_loop(
    client: &Client,
    daemon: &Daemon,
    rx: mpsc::Receiver<Ticket>,
    tr: &mut Tracer,
) -> (Vec<Settled>, bool) {
    let mut out = Vec::new();
    let mut waiting: VecDeque<Waiting> = VecDeque::new();
    let mut sender_done = false;
    let mut grace_end: Option<Instant> = None;
    let admit = |waiting: &mut VecDeque<Waiting>, t: Ticket| {
        let next = t.accepted;
        let pos = if t.interactive {
            waiting
                .iter()
                .position(|w| !w.ticket.interactive)
                .unwrap_or(waiting.len())
        } else {
            waiting.len()
        };
        waiting.insert(
            pos,
            Waiting {
                ticket: t,
                polls: 0,
                next,
            },
        );
    };
    loop {
        loop {
            match rx.try_recv() {
                Ok(t) => admit(&mut waiting, t),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        if sender_done {
            if waiting.is_empty() {
                return (out, false);
            }
            let end = *grace_end.get_or_insert_with(|| Instant::now() + SETTLE_GRACE);
            if Instant::now() > end {
                return (out, false);
            }
        }
        // One sweep over the due tickets: interactive ones (kept at the
        // front), then batch ones oldest first until one is still running.
        let mut i = 0;
        let mut batch_blocked = false;
        while i < waiting.len() {
            let w = &waiting[i];
            if Instant::now() < w.next || (batch_blocked && !w.ticket.interactive) {
                i += 1;
                continue;
            }
            if !daemon.connect() {
                return (out, true);
            }
            tr.set_on(w.ticket.traced);
            tr.set_unit(w.ticket.job as u64);
            let span = tr.begin("server.poll");
            let status = client.status(w.ticket.ticket);
            tr.end(span);
            let seen = Instant::now();
            let w = &mut waiting[i];
            w.polls += 1;
            match status {
                Ok(Some(s)) if s.is_settled() => {
                    let w = waiting.remove(i).expect("index in range");
                    out.push(Settled {
                        job: w.ticket.job,
                        latency: seen.saturating_duration_since(w.ticket.due),
                        settle: seen.saturating_duration_since(w.ticket.accepted),
                        seen,
                        status: s,
                        polls: w.polls,
                    });
                }
                Ok(Some(_)) => {
                    w.next = seen + poll_gap(seen.saturating_duration_since(w.ticket.accepted));
                    batch_blocked |= !w.ticket.interactive;
                    i += 1;
                }
                // Unknown ticket or a broken connection: the job is lost.
                _ => {
                    waiting.remove(i);
                }
            }
        }
        tr.set_on(false);
        // Sleep until the next ticket that a sweep would poll is due, or
        // a new ticket arrives.
        let head = waiting.iter().find(|w| !w.ticket.interactive);
        let wake = waiting
            .iter()
            .take_while(|w| w.ticket.interactive)
            .chain(head)
            .map(|w| w.next)
            .min();
        let now = Instant::now();
        let wait = match wake {
            Some(t) => t.saturating_duration_since(now),
            None if sender_done => Duration::ZERO,
            None => Duration::from_millis(50),
        };
        if wait.is_zero() || sender_done {
            std::thread::sleep(wait);
            continue;
        }
        match rx.recv_timeout(wait) {
            Ok(t) => admit(&mut waiting, t),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => sender_done = true,
        }
    }
}

/// The overload rung's settler: instead of polling tickets while the
/// rung runs, it waits for the sender, so the load generator spends its
/// time sending and the backlog builds in the service. Then it samples
/// the server's own `completed + faulted` counter every [`WATCH_GAP`]
/// until it covers every accepted job, and fetches each ticket once for
/// the output check. Returns the settlements, when the counter first covered every
/// accepted job, and whether the connection budget ran out.
fn watch_loop(
    client: &Client,
    daemon: &Daemon,
    rx: mpsc::Receiver<Ticket>,
) -> (Vec<Settled>, Option<AllSettled>, bool) {
    let tickets: Vec<Ticket> = rx.iter().collect();
    let mut done = None;
    let deadline = Instant::now() + SETTLE_GRACE;
    while done.is_none() && Instant::now() < deadline {
        if !daemon.connect() {
            return (Vec::new(), None, true);
        }
        let settled = client.stats().ok().map(|json| {
            let n = |k: &str| json.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            n("completed") + n("faulted")
        });
        if settled.is_some_and(|n| n >= tickets.len() as u64) {
            done = Some((Instant::now(), daemon.cpu()));
        } else {
            std::thread::sleep(WATCH_GAP);
        }
    }
    let mut out = Vec::new();
    for t in tickets {
        let mut polls = 0;
        let deadline = Instant::now() + SETTLE_GRACE;
        while Instant::now() < deadline {
            if !daemon.connect() {
                return (out, done, true);
            }
            polls += 1;
            match client.status(t.ticket) {
                Ok(Some(s)) if s.is_settled() => {
                    let seen = done.map_or_else(Instant::now, |(t, _)| t);
                    out.push(Settled {
                        job: t.job,
                        latency: seen.saturating_duration_since(t.due),
                        settle: seen.saturating_duration_since(t.accepted),
                        seen,
                        status: s,
                        polls,
                    });
                    break;
                }
                Ok(Some(_)) => std::thread::sleep(MAX_GAP),
                _ => break,
            }
        }
    }
    (out, done, false)
}

/// Reads `/v1/stats` counters as numbers.
fn server_counters(client: &Client) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Ok(json) = client.stats() {
        for key in [
            "lane_occupancy",
            "advanced_cycles",
            "preemptions",
            "rejected_full",
            "rejected_quota",
            "max_queue_depth",
            "faulted",
        ] {
            if let Some(v) = json.get(key).and_then(|v| v.as_f64()) {
                out.insert(key.to_owned(), v);
            }
        }
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let fail = |mut r: Report, why: String| {
        r.invalid = Some(why);
        r.attempted = r.attempted.max(1);
        r.failed = r.failed.max(1);
        r
    };
    let mut scratch = Tracer::new(false, ctx.epoch);
    let mut programs = match corpus::load(&ctx.programs, &mut scratch) {
        Ok(p) => p,
        Err(e) => return fail(r, e),
    };
    if ctx.corrupt_expected {
        corpus::corrupt_expectations(&mut programs);
    }
    let (rungs, expected) = match plan(ctx, &programs) {
        Ok(p) => p,
        Err(e) => return fail(r, e),
    };

    // Set-up: spawn to first healthy answer, for daemons started and
    // drained at once and then for each rung's own daemon, so the samples
    // spread over the run.
    let mut setup = Vec::new();
    let mut spares = Vec::new();
    for _ in 0..SETUP_REPS {
        match start(&ctx.srserved) {
            Ok((d, secs)) => {
                setup.push(secs);
                spares.push(d);
            }
            Err(e) => return fail(r, e),
        }
    }
    if let Err(e) = drain_all(spares) {
        r.note(format!("set-up daemon: {e}"));
    }

    let mut sender_tr = Tracer::new(false, ctx.epoch);
    let mut settler_tr = Tracer::new(false, ctx.epoch);
    let mut results = Vec::new();
    for (i, (&(fraction, _), jobs)) in RUNGS.iter().zip(&rungs).enumerate() {
        let daemon = match start(&ctx.srserved) {
            Ok((d, secs)) => {
                setup.push(secs);
                d
            }
            Err(e) => return fail(r, e),
        };
        results.push(run_rung(
            &daemon,
            fraction * CAPACITY_REF,
            jobs,
            &expected,
            &programs,
            ctx.trace,
            i >= RUNGS.len() - OVERLOAD_REPS,
            &mut sender_tr,
            &mut settler_tr,
        ));
        match drain_all(vec![daemon]) {
            Ok(counts) => results.last_mut().expect("just pushed").daemon = counts[0],
            Err(e) => r.invalid = Some(e),
        }
    }

    // SLO rate: the highest valid followed rate meeting the tail limit
    // with nothing failed and the backlog cleared within the limit.
    let mut slo_rate = 0.0;
    for p in &results {
        let counter = |k: &str| p.counters.get(k).copied().unwrap_or(0.0);
        let server = format!(
            "srserved {:.3} M instructions, {:.3} M cycles and {:.4} ms CPU per job, max depth {}, preemptions {}, lane occupancy {:.2}, {} connections",
            p.daemon.instructions as f64 * 1e-6 / p.settled.max(1) as f64,
            p.daemon.cycles as f64 * 1e-6 / p.settled.max(1) as f64,
            p.cpu_s[1] * 1e3 / p.settled.max(1) as f64,
            counter("max_queue_depth"),
            counter("preemptions"),
            counter("lane_occupancy"),
            p.connections
        );
        if p.watched {
            r.note(format!(
                "rate {:>6.0}/s (overload, watched through /v1/stats): {} jobs, {} failed, offered {:.0}/s, completed {:.0}/s, all settled {:.1} ms after last arrival, srserved {:.0}% of the CPU time, {server}{}",
                p.rate,
                p.attempted,
                p.failed,
                p.accepted as f64 / p.sending.as_secs_f64(),
                p.settled as f64 / p.busy.as_secs_f64(),
                (p.busy.as_secs_f64() - p.sending.as_secs_f64()) * 1e3,
                100.0 * server_share(p),
                if counter("max_queue_depth") < 16.0 {
                    ", NO BACKLOG: the service kept up, so the completion rate is the offered rate"
                } else {
                    ""
                },
            ));
        } else {
            let lat = latency(&p.latencies_ms);
            let meets = !p.invalid
                && p.failed == 0
                && lat.tail <= SLO_TAIL_MS
                && p.drain_after_last.as_secs_f64() * 1e3 <= SLO_TAIL_MS;
            if meets {
                slo_rate = p.rate;
            }
            let inter = latency(&p.interactive_ms);
            r.note(format!(
                "rate {:>6.0}/s: {} jobs, {} failed, {}, interactive p{} {:.3} ms, sender lag p99 {:.3} ms, backlog cleared {:.1} ms after last arrival, {server}{}{}",
                p.rate,
                p.attempted,
                p.failed,
                lat.describe(),
                inter.tail_p * 100.0,
                inter.tail,
                percentile(&sorted(&p.lag_ms), 0.99),
                p.drain_after_last.as_secs_f64() * 1e3,
                if meets { ", meets SLO" } else { "" },
                if p.invalid { ", INVALID: sender fell behind" } else { "" },
            ));
        }
        r.attempted += p.attempted;
        r.failed += p.failed;
    }
    let reference = &results[REFERENCE_RUNG];
    let overload = &results[RUNGS.len() - OVERLOAD_REPS..];
    let interactive_tail = latency(&results[LOADED_RUNG].interactive_ms).tail;
    let completion = |f: fn(&Rung) -> u64| {
        median(
            &overload
                .iter()
                .map(|p| f(p) as f64 / p.busy.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let throughput = completion(|p| p.settled);
    r.note(format!(
        "slo: {slo_rate} jobs/s is the highest offered rate with tail <= {SLO_TAIL_MS} ms; interactive tail at {:.0} jobs/s {interactive_tail:.3} ms",
        results[LOADED_RUNG].rate
    ));
    if let Some(p) = results.iter().find(|p| p.over_budget) {
        r.invalid = Some(format!(
            "the {:.0} jobs/s rung spent its {CONN_BUDGET}-connection budget",
            p.rate
        ));
    }

    let settled: u64 = results.iter().map(|p| p.settled).sum();
    let cycles: u64 = results.iter().map(|p| p.settled_cycles).sum();
    let check_ns: u64 = results.iter().map(|p| p.check_ns).sum();
    let server_cpu: f64 = results.iter().map(|p| p.cpu_s[1]).sum();
    let daemon = results
        .iter()
        .fold(Counts::default(), |sum, p| sum.plus(p.daemon));
    let per_job = |v: u64| v as f64 * 1e-6 / settled.max(1) as f64;
    let lat = windowed_latency(&reference.latencies_ms);
    r.note(format!(
        "srserved over {settled} settled jobs: {:.3} M instructions, {:.3} M cycles and {:.4} ms CPU per job",
        per_job(daemon.instructions),
        per_job(daemon.cycles),
        server_cpu * 1e3 / settled.max(1) as f64
    ));
    r.note(format!(
        "wall: overload completion {throughput:.0} jobs/s, reference rate latency {}{}",
        lat.describe(),
        if reference.invalid {
            " (INVALID: the sender fell behind, so these include its lag)"
        } else {
            ""
        }
    ));
    if !ctx.trace {
        r.set("setup_s", setup_s(&setup));
        r.set("host_minstr_per_unit", per_job(daemon.instructions));
        r.set("host_instr_per_sim_cyc", ratio(daemon.instructions, cycles));
        r.set("sim_cycles_per_unit", ratio(cycles, settled));
        r.set(
            "peak_rss_mb",
            results.iter().map(|p| p.rss_mb).fold(0.0, f64::max),
        );
        return r;
    }

    let all = |f: fn(&Rung) -> &Vec<f64>| -> Vec<f64> {
        results.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let submit = latency(&all(|p| &p.submit_ms));
    let settle = latency(&all(|p| &p.settle_ms));
    let polls: u64 = results.iter().map(|p| p.polls).sum();
    let followed: u64 = results
        .iter()
        .filter(|p| !p.watched)
        .map(|p| p.settled)
        .sum();
    r.set("server.submit_ms_p50", submit.p50);
    r.set("server.submit_ms_tail", submit.tail);
    r.set("server.settle_ms_p50", settle.p50);
    r.set("server.settle_ms_tail", settle.tail);
    r.set("server.status_polls_per_job", ratio(polls, followed));
    let sum = |k: &str| -> f64 {
        results
            .iter()
            .map(|p| p.counters.get(k).copied().unwrap_or(0.0))
            .sum()
    };
    let advanced = sum("advanced_cycles");
    let occupancy: f64 = results
        .iter()
        .map(|p| {
            let c = |k: &str| p.counters.get(k).copied().unwrap_or(0.0);
            c("lane_occupancy") * c("advanced_cycles")
        })
        .sum();
    r.set(
        "server.lane_occupancy",
        if advanced > 0.0 {
            occupancy / advanced
        } else {
            0.0
        },
    );
    r.set("server.advanced_cycles", advanced);
    r.set("server.preemptions", sum("preemptions"));
    r.set("server.rejected_full", sum("rejected_full"));
    r.set("server.rejected_quota", sum("rejected_quota"));
    r.set(
        "server.max_depth",
        results
            .iter()
            .map(|p| p.counters.get("max_queue_depth").copied().unwrap_or(0.0))
            .fold(0.0, f64::max),
    );
    r.set("server.faulted", sum("faulted"));
    r.set("service.slo_rate_jobs_per_s", slo_rate);
    r.set("host.mcyc_per_unit", per_job(daemon.cycles));
    r.set("wall.units_per_s", throughput);
    r.set("wall.latency_p50_ms", lat.p50);
    r.set("wall.latency_tail_ms", lat.tail);
    r.set("service.interactive_latency_tail_ms", interactive_tail);
    r.set(
        "bench.gen_lag_ms",
        percentile(&sorted(&all(|p| &p.lag_ms)), 0.99),
    );
    r.set("bench.check_s", check_ns as f64 * 1e-9);
    r.set(
        "bench.connections",
        results.iter().map(|p| p.connections).max().unwrap_or(0) as f64,
    );

    let mut spans = sender_tr.spans().to_vec();
    let offset = spans.len();
    spans.extend(settler_tr.spans().iter().map(|s| trace::Span {
        parent: s.parent.map(|p| p + offset),
        ..s.clone()
    }));
    layer_metrics(&mut r, &spans);
    // Coverage over the sender's traced job slots, where every moment is
    // inside a wait, submit or bookkeeping span.
    let traced_slot_ns: u64 = results.iter().map(|p| p.traced_slot_ns).sum();
    let sender_root: u64 = sender_tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::ns)
        .sum();
    r.set("bench.span_coverage", ratio(sender_root, traced_slot_ns));
    let per_job = |k: usize| {
        ratio(
            results.iter().map(|p| p.sender_ns[k]).sum(),
            results.iter().map(|p| p.sender_jobs[k]).sum(),
        )
    };
    r.set("bench.trace_overhead", per_job(1) / per_job(0));
    r.set(
        "bench.traced_units",
        results.iter().map(|p| p.sender_jobs[1]).sum::<u64>() as f64,
    );
    r.spans = vec![sender_tr.spans().to_vec(), settler_tr.spans().to_vec()];
    r
}
