//! Fused-engine acceptance over the whole kernel library: the AOT
//! superblock tier, the fused steady-state path, the decoded per-cycle
//! path and the slow decode-per-cycle reference must agree output for
//! output, cycle for cycle and counter for counter — and all four must
//! match the golden software models. Lane-fused batch execution must be
//! outcome-identical to serial execution, and fault-injection campaigns
//! must behave exactly as they do without the compiled engines (which
//! are required to stand down whenever an injector is armed).

use systolic_ring::asm::assemble;
use systolic_ring::harness::campaign::run_chaos;
use systolic_ring::harness::job::{CycleBudget, Job, RetryPolicy};
use systolic_ring::harness::runner::BatchRunner;
use systolic_ring::isa::Word16;
use systolic_ring::kernels::batch::{campaign_suite, oracle_suite, run_oracle, OracleCase};

const SEED: u64 = 0xf5ed_ca5e;

/// The oracle suite with every job pinned to one of the four simulation
/// tiers: aot (`aot` + `fused` + `decode_cache`), fused (`fused` +
/// `decode_cache`), decoded (`decode_cache` only) or slow (neither).
fn suite_at_tier(aot: bool, fused: bool, cache: bool) -> Vec<OracleCase> {
    oracle_suite(SEED, 2)
        .into_iter()
        .map(|case| OracleCase {
            job: case
                .job
                .with_aot(aot)
                .with_fused(fused)
                .with_decode_cache(cache),
            ..case
        })
        .collect()
}

/// All four tiers satisfy the golden differential oracle on their own.
#[test]
fn every_tier_matches_golden_models() {
    for (aot, fused, cache) in [
        (true, true, true),
        (false, true, true),
        (false, false, true),
        (false, false, false),
    ] {
        let report = run_oracle(&BatchRunner::new(), suite_at_tier(aot, fused, cache));
        assert!(
            report.all_match(),
            "aot={aot} fused={fused} cache={cache}: mismatches {:?} faults {:?}",
            report.mismatches,
            report.faults
        );
    }
}

/// Aot vs fused vs decoded vs slow, kernel by kernel: identical outputs,
/// cycle counts and architectural statistics. Only the engines' own
/// counters may differ — and the compiled suites must actually run
/// compiled bursts somewhere.
#[test]
fn four_tiers_agree_over_every_kernel_family() {
    let jobs_at = |aot, fused, cache| -> Vec<Job> {
        suite_at_tier(aot, fused, cache)
            .into_iter()
            .map(|c| c.job)
            .collect()
    };
    let aot = BatchRunner::new().run(&jobs_at(true, true, true));
    let fused = BatchRunner::new().run(&jobs_at(false, true, true));
    let decoded = BatchRunner::new().run(&jobs_at(false, false, true));
    let slow = BatchRunner::new().run(&jobs_at(false, false, false));

    assert_eq!(aot.reports.len(), 22, "11 kernel families x 2 rounds");
    let mut fused_entries = 0;
    let mut aot_entries = 0;
    for (((a, f), d), s) in aot
        .reports
        .iter()
        .zip(&fused.reports)
        .zip(&decoded.reports)
        .zip(&slow.reports)
    {
        let ao = a
            .outcome
            .output()
            .unwrap_or_else(|| panic!("aot tier faulted on {}: {:?}", a.name, a.outcome));
        let fo = f
            .outcome
            .output()
            .unwrap_or_else(|| panic!("fused tier faulted on {}: {:?}", f.name, f.outcome));
        let so = s
            .outcome
            .output()
            .unwrap_or_else(|| panic!("slow tier faulted on {}: {:?}", s.name, s.outcome));
        let dn = d.outcome.output().expect("decoded tier completed");
        for (other, label) in [(fo, "fused"), (dn, "decoded"), (so, "slow")] {
            assert_eq!(ao.outputs, other.outputs, "{}: {label} outputs", a.name);
            assert_eq!(ao.cycles, other.cycles, "{}: {label} cycles", a.name);
            assert_eq!(
                ao.stats.without_cache_counters(),
                other.stats.without_cache_counters(),
                "{}: {label} architectural stats",
                a.name
            );
        }
        assert_eq!(
            dn.stats.fused_entries + so.stats.fused_entries,
            0,
            "{}: non-fused tiers must never enter the fused engine",
            f.name
        );
        assert_eq!(
            fo.stats.aot_entries + dn.stats.aot_entries + so.stats.aot_entries,
            0,
            "{}: non-aot tiers must never enter the AOT cache",
            a.name
        );
        fused_entries += fo.stats.fused_entries;
        aot_entries += ao.stats.aot_entries + ao.stats.fused_entries;
    }
    assert!(
        fused_entries > 0,
        "the fused suite must actually execute fused bursts"
    );
    assert!(
        aot_entries > 0,
        "the aot suite must actually execute compiled bursts"
    );
}

/// A batch of identical-program jobs (the shape of a parameter sweep)
/// lane-fuses in the runner and still matches serial execution exactly.
#[test]
fn lane_fused_batch_matches_serial_over_32_jobs() {
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs/fir3.sr"),
    )
    .expect("shipped program");
    let object = assemble(&source).expect("fir3 assembles");
    let geometry = object.geometry.expect("fir3 declares its ring");

    let jobs: Vec<Job> = (0..32)
        .map(|i| {
            Job::from_object(
                format!("fir3-sweep-{i}"),
                geometry,
                systolic_ring::core::MachineParams::PAPER,
                object.clone(),
                CycleBudget::Cycles(4096),
            )
            .with_input(0, 0, (0..64).map(|w| Word16::from_i16(w * 7 + i)))
            .with_sink(1, 0)
        })
        .collect();

    let fused = BatchRunner::with_workers(4).run(&jobs);
    let unfused = BatchRunner::with_workers(4)
        .with_lane_fusion(false)
        .run(&jobs);
    let serial = BatchRunner::run_serial(&jobs);
    assert!(fused.outcomes_match(&serial), "lane-fused diverged");
    assert!(unfused.outcomes_match(&serial), "unfused diverged");

    let summary = fused.summary();
    assert_eq!(summary.completed, 32);
    let merged = &summary.merged;
    assert!(
        merged.fused_lane_occupancy > merged.fused_cycles,
        "32 identical jobs must share multi-lane bursts \
         (occupancy {}, cycles {})",
        merged.fused_lane_occupancy,
        merged.fused_cycles
    );
    assert!(summary.render().contains("fused:"));
}

/// The chaos campaign classifies every case identically with the
/// compiled engines enabled and disabled: armed injectors force the
/// cycle-by-cycle path, so fault detection, rollback and outputs cannot
/// shift — on the fused tier and on the AOT tier alike.
#[test]
fn chaos_campaign_is_identical_with_fusion_enabled() {
    let with_tiers = |aot: bool, fused: bool| {
        run_chaos(
            &BatchRunner::with_workers(2),
            &[0, 2_000],
            SEED,
            RetryPolicy::retries(4),
            move |_| {
                campaign_suite(SEED, 1)
                    .into_iter()
                    .take(4)
                    .map(|mut case| {
                        case.job = case.job.with_aot(aot).with_fused(fused);
                        case
                    })
                    .collect()
            },
        )
    };
    let aot = with_tiers(true, true);
    let fused = with_tiers(false, true);
    let plain = with_tiers(false, false);
    assert!(fused.zero_undetected(), "\n{}", fused.render());
    assert!(aot.zero_undetected(), "\n{}", aot.render());
    for (label, compiled) in [("fusion", &fused), ("aot", &aot)] {
        for (a, b) in compiled.rows.iter().zip(&plain.rows) {
            assert_eq!(a.clean, b.clean, "clean counts shifted under {label}");
            assert_eq!(
                a.faults_detected, b.faults_detected,
                "detection counts shifted under {label}"
            );
        }
    }
}

/// CI smoke slice: one oracle round, fused vs decoded, well under a
/// second. `ci.sh` runs exactly this test as its fast differential.
#[test]
fn fused_smoke() {
    let strip = |cases: Vec<OracleCase>| -> Vec<Job> { cases.into_iter().map(|c| c.job).collect() };
    let fused_jobs = strip(
        oracle_suite(7, 1)
            .into_iter()
            .map(|c| OracleCase {
                job: c.job.with_fused(true),
                ..c
            })
            .collect(),
    );
    let decoded_jobs = strip(
        oracle_suite(7, 1)
            .into_iter()
            .map(|c| OracleCase {
                job: c.job.with_fused(false),
                ..c
            })
            .collect(),
    );
    let fused = BatchRunner::with_workers(2).run(&fused_jobs);
    let decoded = BatchRunner::with_workers(2).run(&decoded_jobs);
    assert!(
        fused.outcomes_match(&decoded),
        "fused and decoded paths diverged on the smoke suite"
    );
    assert_eq!(fused.summary().faulted, 0);
}

/// CI smoke slice for the AOT tier: one oracle round, aot vs decoded,
/// well under a second. `ci.sh` runs exactly this test as its AOT gate.
#[test]
fn aot_smoke() {
    let at = |aot: bool| -> Vec<Job> {
        oracle_suite(7, 1)
            .into_iter()
            .map(|c| c.job.with_aot(aot).with_fused(aot))
            .collect()
    };
    let aot = BatchRunner::with_workers(2).run(&at(true));
    let decoded = BatchRunner::with_workers(2).run(&at(false));
    assert!(
        aot.outcomes_match(&decoded),
        "aot and decoded paths diverged on the smoke suite"
    );
    assert_eq!(aot.summary().faulted, 0);
    assert!(
        aot.summary().merged.aot_entries > 0,
        "the aot smoke suite never entered a superblock"
    );
}

/// Block replay differential. The fused engine replays a burst
/// time-major, in blocks of 256 cycles, with the feedback pipelines kept
/// as output histories and host FIFOs as cursors. These scenarios put the
/// block and burst boundaries where that bookkeeping is most fragile and
/// demand bit-identity with the slow stepper after every `run` call:
/// sinks, FIFO contents, statistics minus the engines' own counters,
/// output write stamps, pipeline contents and checkpoint images.
mod block_replay {
    use systolic_ring::core::{lockstep_burst, LinkModel, MachineParams, RingMachine};
    use systolic_ring::isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
    use systolic_ring::isa::switch::{HostCapture, PortSource};
    use systolic_ring::isa::{RingGeometry, Word16};

    /// The engine's block length in cycles.
    const BLOCK: u64 = 256;
    /// Burst lengths around one and two blocks, plus bursts shorter than
    /// `pipe_depth + 2` and a sub-burst single step.
    const BURSTS: [u64; 9] = [
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        8,
        9,
        2 * BLOCK + 1,
        1,
        2 * BLOCK,
        300,
    ];

    fn words(n: usize, seed: i16) -> Vec<Word16> {
        (0..n)
            .map(|i| Word16::from_i16((i as i16).wrapping_mul(37).wrapping_add(seed)))
            .collect()
    }

    /// Every architecturally visible piece of state, rendered: Dnodes
    /// (registers, output, stamp, mode, sequencer), switches (pipelines
    /// and FIFO contents), the host (sources, sinks, link meter,
    /// rotation), controller, bus, cycle and the architectural counters.
    fn image(m: &RingMachine) -> String {
        let g = m.geometry();
        let dnodes: Vec<_> = (0..g.dnodes())
            .map(|d| format!("{:?}", m.dnode(d)))
            .collect();
        let switches: Vec<_> = (0..g.switches())
            .map(|s| format!("{:?}", m.switch(s)))
            .collect();
        format!(
            "{dnodes:?}\n{switches:?}\n{:?}\n{:?}\n{:?} @{}\n{:?}",
            m.host(),
            m.controller(),
            m.bus(),
            m.cycle(),
            m.stats().without_cache_counters()
        )
    }

    fn assert_same(fused: &mut RingMachine, slow: &mut RingMachine, what: &str) {
        assert_eq!(image(fused), image(slow), "{what}: state diverged");
        let (a, b) = (fused.checkpoint().hydrate(), slow.checkpoint().hydrate());
        assert_eq!(image(&a), image(&b), "{what}: checkpoint images diverged");
    }

    /// Kernels, self-loops, a two-op cycle and host traffic on Ring-16:
    /// - (0,0) adds host port 0 to a stage-7 pipeline tap (the oldest
    ///   stage, read from the pipeline prefix in a burst's first cycles);
    /// - (0,1) subtracts 3 from host port 1, whose stream runs dry
    ///   mid-block (underflows);
    /// - (1,0) multiply-accumulates into its own register, multiplying
    ///   by its own output two cycles back;
    /// - (1,1) accumulates through a register operand;
    /// - (2,0) and (2,1) feed each other through pipelines;
    /// - (3,1) and (3,2) both drive the bus (a conflict every cycle),
    ///   which (3,0) reads;
    /// - captures drain into an open sink and fill a closed one, whose
    ///   FIFO overflows mid-block;
    /// - a host FIFO nobody reads fills up to capacity.
    fn configure(m: &mut RingMachine, seed: i16) {
        use Operand::{Bus, Imm, In1, In2, One};
        let g = m.geometry();
        let d = |layer: usize, lane: usize| g.dnode_index(layer, lane);
        let cfg = m.configure();
        let pipe = |switch: u8, stage: u8, lane: u8| PortSource::Pipe {
            switch,
            stage,
            lane,
        };
        let prev = |lane: u8| PortSource::PrevOut { lane };
        for (layer, lane, port, src) in [
            (0, 0, 0, PortSource::HostIn { port: 0 }),
            (0, 0, 1, pipe(1, 7, 1)),
            (0, 1, 0, PortSource::HostIn { port: 1 }),
            (1, 0, 0, prev(0)),
            (1, 0, 1, pipe(2, 1, 0)),
            (1, 1, 0, prev(0)),
            (2, 0, 0, prev(0)),
            (2, 0, 1, pipe(3, 0, 1)),
            (2, 1, 0, pipe(3, 2, 0)),
            (3, 0, 0, prev(0)),
            (3, 1, 0, prev(1)),
            (3, 2, 0, prev(0)),
        ] {
            cfg.set_port(0, layer, lane, port, src).expect("port");
        }
        let three = Word16::new(3);
        for (dnode, instr) in [
            (d(0, 0), MicroInstr::op(AluOp::Add, In1, In2).write_out()),
            (
                d(0, 1),
                MicroInstr::op(AluOp::Sub, In1, Imm)
                    .with_imm(three)
                    .write_out(),
            ),
            (
                d(1, 0),
                MicroInstr::op(AluOp::Mac, In1, In2)
                    .write_reg(Reg::R1)
                    .write_out(),
            ),
            (
                d(1, 1),
                MicroInstr::op(AluOp::Add, In1, Operand::Reg(Reg::R2)).write_reg(Reg::R2),
            ),
            (d(2, 0), MicroInstr::op(AluOp::Add, In1, In2).write_out()),
            (
                d(2, 1),
                MicroInstr::op(AluOp::Xor, In1, Imm)
                    .with_imm(three)
                    .write_out(),
            ),
            (d(3, 0), MicroInstr::op(AluOp::Min, In1, Bus).write_out()),
            (d(3, 1), MicroInstr::op(AluOp::PassA, In1, One).write_bus()),
            (
                d(3, 2),
                MicroInstr::op(AluOp::Add, In1, One).write_bus().write_out(),
            ),
        ] {
            cfg.set_dnode_instr(0, dnode, instr).expect("instr");
        }
        cfg.set_capture(0, 0, 0, HostCapture::lane(0))
            .expect("capture");
        cfg.set_capture(0, 1, 1, HostCapture::lane(0))
            .expect("capture");
        cfg.set_capture(0, 3, 0, HostCapture::lane(1))
            .expect("capture");
        m.open_sink(0, 0).expect("sink");
        m.open_sink(3, 0).expect("sink");
        m.attach_input(0, 0, words(32 + 3 * BLOCK as usize + 40, seed))
            .expect("stream");
        m.attach_input(0, 1, words(32 + 140, seed ^ 0x55))
            .expect("stream");
        // Nothing reads this port: the host fills its FIFO until full.
        m.attach_input(1, 3, words(200, seed)).expect("stream");
    }

    /// Local-mode loops of lengths 3 and 2 (period 6) on Ring-8: the
    /// 3-loop drives the bus on one phase only (the bus holds on the
    /// others), the 2-loop accumulates and reads a host FIFO on one phase.
    fn configure_local(m: &mut RingMachine, seed: i16) {
        use Operand::{Bus, In1, In2, One, Zero};
        let cfg = m.configure();
        cfg.set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })
            .expect("port");
        cfg.set_port(0, 1, 1, 0, PortSource::PrevOut { lane: 0 })
            .expect("port");
        cfg.set_port(0, 1, 1, 1, PortSource::HostIn { port: 1 })
            .expect("port");
        cfg.set_port(0, 2, 0, 0, PortSource::PrevOut { lane: 1 })
            .expect("port");
        cfg.set_dnode_instr(0, 4, MicroInstr::op(AluOp::Add, In1, Bus).write_out())
            .expect("instr");
        cfg.set_capture(0, 3, 0, HostCapture::lane(0))
            .expect("capture");
        m.set_local_program(
            0,
            &[
                MicroInstr::op(AluOp::PassA, In1, Zero).write_out(),
                MicroInstr::op(AluOp::Add, In1, One).write_bus(),
                MicroInstr::op(AluOp::Nop, Zero, Zero),
            ],
        )
        .expect("local program");
        m.set_local_program(
            3,
            &[
                MicroInstr::op(AluOp::Mac, In1, One).write_reg(Reg::R0),
                MicroInstr::op(AluOp::Sub, In2, In1).write_out(),
            ],
        )
        .expect("local program");
        m.set_mode(0, DnodeMode::Local);
        m.set_mode(3, DnodeMode::Local);
        m.open_sink(3, 0).expect("sink");
        m.attach_input(0, 0, words(500, seed)).expect("stream");
        m.attach_input(1, 1, words(90, seed ^ 0x33))
            .expect("stream");
    }

    /// Runs a fused and a slow machine through the burst sequence,
    /// comparing after every `run`; every burst-sized run must replay
    /// whole on the fused machine.
    fn differential(params: MachineParams, g: RingGeometry, setup: fn(&mut RingMachine, i16)) {
        let build = |params: MachineParams| {
            let mut m = RingMachine::new(g, params);
            setup(&mut m, 11);
            m
        };
        let mut fused = build(params);
        let mut slow = build(params.with_fused(false).with_decode_cache(false));
        fused.run(32).expect("warm-up");
        slow.run(32).expect("warm-up");
        assert_same(&mut fused, &mut slow, "warm-up");
        for k in BURSTS {
            let before = fused.stats().fused_cycles;
            fused.run(k).expect("fused run");
            slow.run(k).expect("slow run");
            assert_same(&mut fused, &mut slow, &format!("after a {k}-cycle run"));
            if k >= 8 {
                assert_eq!(
                    fused.stats().fused_cycles - before,
                    k,
                    "a {k}-cycle run did not replay as one burst"
                );
            }
        }
    }

    #[test]
    fn kernels_groups_and_host_cursors() {
        differential(
            MachineParams::PAPER.with_host_fifo_capacity(48),
            RingGeometry::RING_16,
            configure,
        );
    }

    #[test]
    fn local_mode_period_above_one() {
        // Reads on two phases of three fall behind the host's one word per
        // cycle, so the small FIFOs fill up.
        differential(
            MachineParams::PAPER.with_host_fifo_capacity(16),
            RingGeometry::RING_8,
            configure_local,
        );
    }

    #[test]
    fn metered_link() {
        differential(
            MachineParams::PAPER
                .with_host_fifo_capacity(48)
                .with_link(LinkModel::PCI_250MBPS_AT_200MHZ),
            RingGeometry::RING_16,
            configure,
        );
    }

    /// Lockstep lanes with different input streams, driven purely by
    /// `lockstep_burst`, match per-lane slow stepping.
    #[test]
    fn lockstep_lanes() {
        for lanes in [1usize, 3, 16] {
            let params = MachineParams::PAPER.with_host_fifo_capacity(48);
            let mut group: Vec<RingMachine> = Vec::new();
            let mut slow: Vec<RingMachine> = Vec::new();
            for lane in 0..lanes {
                for (pool, p) in [
                    (&mut group, params),
                    (&mut slow, params.with_fused(false).with_decode_cache(false)),
                ] {
                    let mut m = RingMachine::new(RingGeometry::RING_16, p);
                    configure(&mut m, 100 * lane as i16);
                    pool.push(m);
                }
            }
            let mut bursts = BURSTS.iter().copied().filter(|&k| k >= 8);
            let mut occupancy = 0;
            while let Some(k) = bursts.clone().next() {
                let ran = {
                    let mut refs: Vec<&mut RingMachine> = group.iter_mut().collect();
                    lockstep_burst(&mut refs, k)
                };
                let step = if ran == 0 {
                    for m in &mut group {
                        m.run(1).expect("warm-up cycle");
                    }
                    1
                } else {
                    assert_eq!(ran, k, "{lanes} lanes: short burst");
                    bursts.next();
                    occupancy += k * lanes as u64;
                    k
                };
                for m in &mut slow {
                    m.run(step).expect("slow run");
                }
            }
            for (i, (g, s)) in group.iter_mut().zip(&mut slow).enumerate() {
                assert_same(g, s, &format!("{lanes} lanes, lane {i}"));
                assert_eq!(g.stats().fused_lane_occupancy, occupancy);
            }
        }
    }
}
