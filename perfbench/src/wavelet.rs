//! `wavelet_frame`: the Table 2 workload at paper scale.
//!
//! Each unit is one `kernels::wavelet::forward_2d` call on Ring-16 over a
//! 1024x768 16-bit textured frame, checked against
//! `golden::lifting53_forward_2d`. Simulation is nearly all of the wall
//! time and the fabric is configured once per pass, so this workload
//! isolates steady-state execution in `core`.

use std::time::Instant;

use systolic_ring_isa::RingGeometry;
use systolic_ring_kernels::golden::lifting53_forward_2d;
use systolic_ring_kernels::image::Image;
use systolic_ring_kernels::wavelet::{forward_2d, WaveletRun};

use crate::meter::{ratio, Meter};
use crate::metrics::{setup_s, Report};
use crate::{Ctx, SETUP_REPS};

const WIDTH: usize = 1024;
const HEIGHT: usize = 768;
/// Distinct frames per run; rounds cycle through them.
const FRAMES: u64 = 3;

fn frame_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i)
}

fn correct(run: &Result<WaveletRun, impl std::fmt::Debug>, golden: &[i16]) -> bool {
    matches!(run, Ok(run) if run.coefficients == golden && run.pixels == WIDTH * HEIGHT)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let frames: Vec<Image> = (0..FRAMES)
        .map(|i| Image::textured(WIDTH, HEIGHT, frame_seed(ctx.seed, i)))
        .collect();
    let golden: Vec<Vec<i16>> = frames
        .iter()
        .map(|f| lifting53_forward_2d(WIDTH, HEIGHT, f.data()))
        .collect();
    let golden = if ctx.corrupt_expected {
        crate::corrupt(golden)
    } else {
        golden
    };
    let geometry = RingGeometry::RING_16;

    // Set-up: the program has no set-up step of its own beyond its first
    // calls, so set-up is the warm-up units issued before measuring.
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS {
        let frame = (i as u64 % FRAMES) as usize;
        let t = Instant::now();
        let out = forward_2d(geometry, &frames[frame]);
        setup.push(t.elapsed().as_secs_f64());
        r.attempted += 1;
        if !correct(&out, &golden[frame]) {
            r.failed += 1;
        }
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
    let (mut cycles, mut pixels) = (0u64, 0u64);
    while m.next_round() {
        let frame = (m.round() % FRAMES) as usize;
        let t = Instant::now();
        let span = m.tracer.begin("kernels.forward_2d");
        let out = forward_2d(geometry, &frames[frame]);
        m.tracer.end(span);
        let wall = t.elapsed();
        r.attempted += 1;
        let ok = m.check(|| correct(&out, &golden[frame]));
        match out {
            Ok(run) if ok => {
                if m.counts_core() {
                    m.core.add(&run.stats, 1, wall);
                }
                cycles += run.cycles;
                pixels += run.pixels as u64;
                m.unit(wall, run.cycles);
            }
            _ => r.failed += 1,
        }
        m.end_round();
    }
    m.finish(&mut r, setup_s(&setup));
    if ctx.trace {
        r.set("kernels.calls", m.core.units as f64);
        r.set(
            "kernels.forward_2d_s",
            ratio(m.core.sim_ns, m.core.units) * 1e-9,
        );
    }
    if pixels > 0 {
        let cpp = cycles as f64 / pixels as f64;
        r.note(format!(
            "model: {cpp:.4} cycles/pixel against the paper's 1 pixel/cycle (Table 2), {:+.2}%",
            (cpp - 1.0) * 100.0
        ));
    }
    r
}
