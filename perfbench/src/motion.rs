//! `motion_frame`: the Table 1 workload over whole CIF frames.
//!
//! Each unit is one `kernels::motion::block_match` search (8x8 block,
//! ±8 range, Ring-16); a round is every block of a 352x288
//! `Image::motion_pair` with seed-chosen motion. Every search builds a
//! fresh machine, configures its contexts, assembles and loads a
//! controller program and then switches context every few cycles, so
//! this workload weighs per-call set-up and the reconfiguration path.

use std::time::Instant;

use systolic_ring_isa::RingGeometry;
use systolic_ring_kernels::golden::{full_search, sad};
use systolic_ring_kernels::image::Image;
use systolic_ring_kernels::motion::{analytic_cycles, block_match, BlockMatch, MotionEstimate};

use crate::meter::{ratio, Meter};
use crate::metrics::{setup_s, Report, Rng};
use crate::{Ctx, SETUP_REPS};

const WIDTH: usize = 352;
const HEIGHT: usize = 288;
const BLOCK: usize = 8;
/// Distinct frame pairs per run; rounds cycle through them.
const FRAMES: usize = 3;

/// One frame pair and its golden full-search answer per block.
struct Frame {
    reference: Image,
    current: Image,
    /// `(x0, y0, dx, dy, sad)` per block, row-major.
    golden: Vec<(usize, usize, isize, isize, i32)>,
}

fn make_frame(rng: &mut Rng, corrupt: bool) -> Frame {
    let dx = rng.range(-5, 5) as isize;
    let dy = rng.range(-5, 5) as isize;
    let (reference, current) = Image::motion_pair(WIDTH, HEIGHT, dx, dy, rng.next_u64());
    let mut golden = Vec::new();
    for y0 in (0..HEIGHT).step_by(BLOCK) {
        for x0 in (0..WIDTH).step_by(BLOCK) {
            let block = current.block(x0, y0, BLOCK, BLOCK);
            let (gx, gy, gsad) = full_search(
                reference.data(),
                WIDTH,
                HEIGHT,
                &block,
                BLOCK,
                BLOCK,
                x0 as isize,
                y0 as isize,
                BlockMatch::PAPER.range,
            );
            golden.push((x0, y0, gx, gy, gsad + i32::from(corrupt)));
        }
    }
    Frame {
        reference,
        current,
        golden,
    }
}

/// Checks one search against the golden model: best displacement, best
/// SAD and every candidate's SAD.
fn correct(frame: &Frame, index: usize, est: &MotionEstimate) -> bool {
    let (x0, y0, gx, gy, gsad) = frame.golden[index];
    if est.best != (gx, gy) || est.best_sad as i32 != gsad {
        return false;
    }
    let block = frame.current.block(x0, y0, BLOCK, BLOCK);
    est.candidates.iter().all(|&(dx, dy, s)| {
        let cx = (x0 as isize + dx) as usize;
        let cy = (y0 as isize + dy) as usize;
        sad(&block, &frame.reference.block(cx, cy, BLOCK, BLOCK)) == s as i32
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let mut rng = Rng::new(ctx.seed, 2);
    let frames: Vec<Frame> = (0..FRAMES)
        .map(|_| make_frame(&mut rng, ctx.corrupt_expected))
        .collect();
    let geometry = RingGeometry::RING_16;
    let search = |frame: &Frame, index: usize| {
        let (x0, y0, ..) = frame.golden[index];
        block_match(
            geometry,
            &frame.reference,
            &frame.current,
            BlockMatch::paper_at(x0, y0),
        )
    };

    // Set-up: searches on the centre block, before measuring and again
    // after every round, so the samples spread over the run.
    let centre = frames[0].golden.len() / 2 + WIDTH / BLOCK / 2;
    let setup_sample = |r: &mut Report, setup: &mut Vec<f64>| {
        let t = Instant::now();
        let out = search(&frames[0], centre);
        setup.push(t.elapsed().as_secs_f64());
        r.attempted += 1;
        if !matches!(&out, Ok(est) if correct(&frames[0], centre, est)) {
            r.failed += 1;
        }
    };
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        setup_sample(&mut r, &mut setup);
    }

    let mut m = match Meter::new(ctx.trace, ctx.seconds, ctx.epoch) {
        Ok(m) => m,
        Err(e) => {
            r.invalid = Some(e);
            r.attempted += 1;
            r.failed += 1;
            return r;
        }
    };
    let (mut model_exact, mut model_total) = (0u64, 0u64);
    while m.next_round() {
        let frame = &frames[(m.round() % FRAMES as u64) as usize];
        for index in 0..frame.golden.len() {
            let t = Instant::now();
            let span = m.tracer.begin("kernels.block_match");
            let out = search(frame, index);
            m.tracer.end(span);
            let wall = t.elapsed();
            r.attempted += 1;
            let ok = m.check(|| matches!(&out, Ok(est) if correct(frame, index, est)));
            match out {
                Ok(est) if ok => {
                    model_total += 1;
                    let predicted = analytic_cycles(geometry, est.candidates.len(), BLOCK * BLOCK);
                    model_exact += u64::from(predicted == est.cycles);
                    if m.counts_core() {
                        m.core.add(&est.stats, 1, wall);
                    }
                    m.unit(wall, est.cycles);
                }
                _ => r.failed += 1,
            }
        }
        m.end_round();
        setup_sample(&mut r, &mut setup);
    }
    m.finish(&mut r, setup_s(&setup));
    if ctx.trace {
        r.set("kernels.calls", m.core.units as f64);
        r.set(
            "kernels.block_match_s",
            ratio(m.core.sim_ns, m.core.units) * 1e-9,
        );
    }
    r.note(format!(
        "model: cycles per block equal kernels::motion::analytic_cycles for {model_exact} of {model_total} searches"
    ));
    r
}
