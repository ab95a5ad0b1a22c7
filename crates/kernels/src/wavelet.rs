//! 5/3 lifting-scheme wavelet transform (Table 2 workload).
//!
//! The paper implements "the lifting scheme algorithm and operates a 2D
//! direct transform on an 1024x768 pixels 16 bits coded image. One pixel
//! sample is computed each clock cycle", on a Ring-16 with "25% of the Ring
//! structure free for other computations".
//!
//! # Mapping (11 of 16 Dnodes on a 4x4 ring)
//!
//! The reversible JPEG2000 5/3 lifting steps
//!
//! ```text
//! d[i] = o[i] - floor((e[i] + e[i+1]) / 2)        (predict)
//! s[i] = e[i] + floor((d[i-1] + d[i] + 2) / 4)    (update)
//! ```
//!
//! become an 8-stage pipeline processing one even/odd **pair per cycle**
//! (two pixel samples per cycle per pass; a separable 2-D transform is two
//! passes, so the full 2-D rate is one pixel per cycle — the paper's
//! figure):
//!
//! | cell | (layer,lane) | operation |
//! |------|--------------|-----------|
//! | A1   | (0,0) | `e[i] + e[i+1]` from host streams |
//! | B0   | (0,1) | pass `o[i]` |
//! | E    | (0,2) | `u + 2` (update path, wrapped around the ring) |
//! | P0   | (0,3) | pass `e[i]` (tapped later through a pipeline) |
//! | A2   | (1,0) | `>> 1` |
//! | B1   | (1,1) | pass `o[i]` (alignment) |
//! | F    | (1,2) | `>> 2` |
//! | C    | (2,0) | `d[i] = o - t` |
//! | G    | (2,2) | `s[i] = upd + e[i]`, `e[i]` read from pipe\[1\] stage 4 |
//! | D    | (3,0) | `d[i-1] + d[i]`, `d[i-1]` from pipe\[3\] stage 0 |
//! | Pd   | (3,1) | pass `d[i]` towards the detail capture |
//!
//! The **feedback pipelines** provide both the one-sample recurrence
//! (`d[i-1]`, pipe stage 0) and the six-cycle alignment delay for `e[i]`
//! (pipe stage 4) — no extra routing resources, the paper's scalability
//! argument in action. Per-row symmetric boundary extension is realized by
//! the host prefixing each row with a mirrored pair (its outputs are
//! discarded), standard line-based JPEG2000 practice.
//!
//! Beyond the paper's direct transform, this module also provides the
//! multi-level dyadic decomposition ([`forward_2d_multi`]) and the
//! **inverse** transform ([`inverse_1d`], [`inverse_2d`]), the latter
//! generated by the dataflow compiler — hardware forward followed by
//! hardware inverse reconstructs the image bit-exactly.

use systolic_ring_core::{MachineParams, RingMachine, Stats};
use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};

use crate::image::Image;
use crate::KernelError;

/// Result of a wavelet pass or full transform.
#[derive(Clone, Debug)]
pub struct WaveletRun {
    /// Transformed coefficients (layout matches
    /// [`crate::golden::lifting53_forward`] /
    /// [`crate::golden::lifting53_forward_2d`]).
    pub coefficients: Vec<i16>,
    /// Total clock cycles.
    pub cycles: u64,
    /// Pixels processed (for the cycles/pixel figure).
    pub pixels: usize,
    /// Machine statistics (fabric utilization for the "25% free" claim).
    pub stats: Stats,
}

/// Pipeline latency from a slot entering cell A1 to its detail coefficient
/// appearing at the detail capture sink.
const D_LATENCY: usize = 5;
/// Ditto for the approximation coefficient at its sink.
const S_LATENCY: usize = 8;

fn check_geometry(geometry: RingGeometry) -> Result<(), KernelError> {
    if geometry.layers() < 4 || geometry.width() < 4 {
        return Err(KernelError::DoesNotFit(format!(
            "the lifting pipeline needs a 4x4 fabric, {geometry} is too small"
        )));
    }
    Ok(())
}

/// Configures the 11-cell lifting pipeline in context 0.
fn configure_pipeline(m: &mut RingMachine) -> Result<(), KernelError> {
    use Operand::{Fifo1, Imm, In1, In2, Zero};
    let g = m.geometry();
    let d = |layer: usize, lane: usize| g.dnode_index(layer, lane);
    let cfg = m.configure();

    // Layer 0.
    cfg.set_port(0, 0, 0, 0, PortSource::HostIn { port: 0 })?; // A1.in1 = e[i]
    cfg.set_port(0, 0, 0, 1, PortSource::HostIn { port: 1 })?; // A1.in2 = e[i+1]
    cfg.set_dnode_instr(0, d(0, 0), MicroInstr::op(AluOp::Add, In1, In2).write_out())?;
    cfg.set_port(0, 0, 1, 0, PortSource::HostIn { port: 2 })?; // B0.in1 = o[i]
    cfg.set_dnode_instr(
        0,
        d(0, 1),
        MicroInstr::op(AluOp::PassA, In1, Zero).write_out(),
    )?;
    cfg.set_port(0, 0, 2, 0, PortSource::PrevOut { lane: 0 })?; // E.in1 = D (ring wrap)
    cfg.set_dnode_instr(
        0,
        d(0, 2),
        MicroInstr::op(AluOp::Add, In1, Imm)
            .with_imm(Word16::new(2))
            .write_out(),
    )?;
    cfg.set_port(0, 0, 3, 0, PortSource::HostIn { port: 0 })?; // P0.in1 = e[i]
    cfg.set_dnode_instr(
        0,
        d(0, 3),
        MicroInstr::op(AluOp::PassA, In1, Zero).write_out(),
    )?;

    // Layer 1.
    cfg.set_port(0, 1, 0, 0, PortSource::PrevOut { lane: 0 })?; // A2.in1 = A1
    cfg.set_dnode_instr(
        0,
        d(1, 0),
        MicroInstr::op(AluOp::Asr, In1, Imm)
            .with_imm(Word16::ONE)
            .write_out(),
    )?;
    cfg.set_port(0, 1, 1, 0, PortSource::PrevOut { lane: 1 })?; // B1.in1 = B0
    cfg.set_dnode_instr(
        0,
        d(1, 1),
        MicroInstr::op(AluOp::PassA, In1, Zero).write_out(),
    )?;
    cfg.set_port(0, 1, 2, 0, PortSource::PrevOut { lane: 2 })?; // F.in1 = E
    cfg.set_dnode_instr(
        0,
        d(1, 2),
        MicroInstr::op(AluOp::Asr, In1, Imm)
            .with_imm(Word16::new(2))
            .write_out(),
    )?;

    // Layer 2.
    cfg.set_port(0, 2, 0, 0, PortSource::PrevOut { lane: 1 })?; // C.in1 = o
    cfg.set_port(0, 2, 0, 1, PortSource::PrevOut { lane: 0 })?; // C.in2 = t
    cfg.set_dnode_instr(0, d(2, 0), MicroInstr::op(AluOp::Sub, In1, In2).write_out())?;
    cfg.set_port(0, 2, 2, 0, PortSource::PrevOut { lane: 2 })?; // G.in1 = upd
    cfg.set_port(
        0,
        2,
        2,
        1,
        PortSource::Pipe {
            switch: 1,
            stage: 4,
            lane: 3,
        },
    )?; // G.in2 = e[i]
    cfg.set_dnode_instr(0, d(2, 2), MicroInstr::op(AluOp::Add, In1, In2).write_out())?;

    // Layer 3.
    cfg.set_port(0, 3, 0, 0, PortSource::PrevOut { lane: 0 })?; // D.in1 = d[i]
    cfg.set_port(
        0,
        3,
        0,
        2,
        PortSource::Pipe {
            switch: 3,
            stage: 0,
            lane: 0,
        },
    )?; // D.fifo1 = d[i-1]
    cfg.set_dnode_instr(
        0,
        d(3, 0),
        MicroInstr::op(AluOp::Add, In1, Fifo1).write_out(),
    )?;
    cfg.set_port(0, 3, 1, 0, PortSource::PrevOut { lane: 0 })?; // Pd.in1 = d[i]
    cfg.set_dnode_instr(
        0,
        d(3, 1),
        MicroInstr::op(AluOp::PassA, In1, Zero).write_out(),
    )?;

    // Captures: switch 0 sees layer 3 (detail via Pd, lane 1); switch 3
    // sees layer 2 (approximation via G, lane 2).
    cfg.set_capture(0, 0, 0, HostCapture::lane(1))?;
    cfg.set_capture(0, 3, 0, HostCapture::lane(2))?;
    m.open_sink(0, 0)?;
    m.open_sink(3, 0)?;
    Ok(())
}

/// One row's slot streams: a mirrored prefix pair plus `half` real slots.
struct RowSlots {
    e0: Vec<Word16>,
    e1: Vec<Word16>,
    o: Vec<Word16>,
}

fn row_slots(row: &[i16]) -> RowSlots {
    let half = row.len() / 2;
    let e = |i: usize| Word16::from_i16(row[2 * i]);
    let o = |i: usize| Word16::from_i16(row[2 * i + 1]);
    // x[2i+2] with symmetric extension at the right edge.
    let e_next = |i: usize| {
        if i + 1 < half {
            e(i + 1)
        } else {
            e(half - 1)
        }
    };
    let mut slots = RowSlots {
        e0: Vec::with_capacity(half + 1),
        e1: Vec::with_capacity(half + 1),
        o: Vec::with_capacity(half + 1),
    };
    // Mirrored prefix: a copy of slot 0, whose detail output equals d[0],
    // priming the d[i-1] recurrence with the symmetric extension value.
    for i in std::iter::once(0).chain(0..half) {
        slots.e0.push(e(i));
        slots.e1.push(e_next(i));
        slots.o.push(o(i));
    }
    slots
}

/// Runs the forward 5/3 lifting transform of one signal (even length >= 2)
/// and returns `[approx | detail]` coefficients plus timing.
///
/// # Errors
///
/// Returns [`KernelError`] if the geometry is smaller than 4x4 or the
/// signal length is odd or less than 2.
pub fn forward_1d(geometry: RingGeometry, signal: &[i16]) -> Result<WaveletRun, KernelError> {
    check_geometry(geometry)?;
    if signal.len() < 2 || !signal.len().is_multiple_of(2) {
        return Err(KernelError::BadParams(format!(
            "signal length must be even and >= 2 (got {})",
            signal.len()
        )));
    }
    let rows: Vec<&[i16]> = vec![signal];
    let (coeff_rows, cycles, stats) = run_pass(geometry, &rows)?;
    Ok(WaveletRun {
        coefficients: coeff_rows.into_iter().next().expect("one row"),
        cycles,
        pixels: signal.len(),
        stats,
    })
}

/// Runs one streaming pass over many independent rows, returning per-row
/// `[approx | detail]` vectors.
fn run_pass(
    geometry: RingGeometry,
    rows: &[&[i16]],
) -> Result<(Vec<Vec<i16>>, u64, Stats), KernelError> {
    // Pipe stage 4 is read for the e[i] tap: ensure depth covers it.
    let params = MachineParams::PAPER.with_host_fifo_capacity(1 << 17);
    let mut m = RingMachine::new(geometry, params);
    configure_pipeline(&mut m)?;

    let mut e0 = Vec::new();
    let mut e1 = Vec::new();
    let mut o = Vec::new();
    let mut slots_per_row = Vec::with_capacity(rows.len());
    for row in rows {
        let slots = row_slots(row);
        slots_per_row.push(slots.e0.len());
        e0.extend(slots.e0);
        e1.extend(slots.e1);
        o.extend(slots.o);
    }
    let total_slots = e0.len();
    m.attach_input(0, 0, e0)?;
    m.attach_input(0, 1, e1)?;
    m.attach_input(0, 2, o)?;

    m.run(total_slots as u64 + 16)?;

    let sink_d = m.take_sink(0, 0)?;
    let sink_s = m.take_sink(3, 0)?;

    // Global slot j is read by the pipeline at cycle j + 1; its detail
    // lands at sink index j + D_LATENCY, the approximation at
    // j + S_LATENCY (one capture per cycle, sinks drain in order). The
    // first slot of every row is the mirrored prefix and is discarded.
    let mut out = Vec::with_capacity(rows.len());
    let mut base = 0usize;
    for (row, &slots) in rows.iter().zip(&slots_per_row) {
        let half = row.len() / 2;
        let mut coeffs = Vec::with_capacity(row.len());
        for i in 0..half {
            let j = base + 1 + i;
            coeffs.push(sink_s[j + S_LATENCY].as_i16());
        }
        for i in 0..half {
            let j = base + 1 + i;
            coeffs.push(sink_d[j + D_LATENCY].as_i16());
        }
        out.push(coeffs);
        base += slots;
    }
    let cycles = m.cycle();
    Ok((out, cycles, m.stats().clone()))
}

/// Runs the one-level separable 2-D forward transform (rows, then columns)
/// and returns the coefficient image in the same layout as
/// [`crate::golden::lifting53_forward_2d`].
///
/// # Errors
///
/// Returns [`KernelError`] for a sub-4x4 geometry or odd image dimensions.
pub fn forward_2d(geometry: RingGeometry, image: &Image) -> Result<WaveletRun, KernelError> {
    check_geometry(geometry)?;
    let (w, h) = (image.width(), image.height());
    if w % 2 != 0 || h % 2 != 0 || w < 2 || h < 2 {
        return Err(KernelError::BadParams(format!(
            "image dimensions must be even and >= 2 (got {w}x{h})"
        )));
    }

    // Row pass: all rows streamed through one machine instance.
    let rows: Vec<&[i16]> = (0..h).map(|y| &image.data()[y * w..(y + 1) * w]).collect();
    let (row_coeffs, row_cycles, row_stats) = run_pass(geometry, &rows)?;

    // Column pass over the row-transformed image (host performs the
    // transpose, as a line-buffered implementation would).
    let mut columns = vec![vec![0i16; h]; w];
    for (y, coeffs) in row_coeffs.iter().enumerate() {
        for x in 0..w {
            columns[x][y] = coeffs[x];
        }
    }
    let col_refs: Vec<&[i16]> = columns.iter().map(Vec::as_slice).collect();
    let (col_coeffs, col_cycles, col_stats) = run_pass(geometry, &col_refs)?;

    let mut out = vec![0i16; w * h];
    for (x, coeffs) in col_coeffs.iter().enumerate() {
        for y in 0..h / 2 {
            out[y * w + x] = coeffs[y];
            out[(y + h / 2) * w + x] = coeffs[y + h / 2];
        }
    }

    // Both passes' statistics, every counter summed.
    let mut stats = row_stats;
    stats.merge(&col_stats);
    Ok(WaveletRun {
        coefficients: out,
        cycles: row_cycles + col_cycles,
        pixels: w * h,
        stats,
    })
}

/// Runs a `levels`-deep dyadic decomposition (each level re-transforms the
/// previous LL quadrant on the fabric), matching
/// [`crate::golden::lifting53_forward_2d_multi`] exactly.
///
/// # Errors
///
/// Returns [`KernelError`] if any level's LL quadrant has odd or too-small
/// dimensions, or for a sub-4x4 geometry.
pub fn forward_2d_multi(
    geometry: RingGeometry,
    image: &Image,
    levels: usize,
) -> Result<WaveletRun, KernelError> {
    if levels == 0 {
        return Err(KernelError::BadParams("at least one level".into()));
    }
    let (width, height) = (image.width(), image.height());
    let mut out = image.data().to_vec();
    let (mut w, mut h) = (width, height);
    let mut cycles = 0u64;
    let mut stats = Stats::new(geometry.dnodes());
    for level in 0..levels {
        if w % 2 != 0 || h % 2 != 0 || w < 2 || h < 2 {
            return Err(KernelError::BadParams(format!(
                "level {level}: LL quadrant {w}x{h} is not transformable"
            )));
        }
        let mut region = vec![0i16; w * h];
        for y in 0..h {
            for x in 0..w {
                region[y * w + x] = out[y * width + x];
            }
        }
        let run = forward_2d(geometry, &Image::from_data(w, h, region))?;
        for y in 0..h {
            for x in 0..w {
                out[y * width + x] = run.coefficients[y * w + x];
            }
        }
        cycles += run.cycles;
        stats.merge(&run.stats);
        w /= 2;
        h /= 2;
    }
    Ok(WaveletRun {
        coefficients: out,
        cycles,
        pixels: width * height,
        stats,
    })
}

/// The inverse 5/3 lifting transform of one `[approx | detail]` row,
/// executed on the fabric by a **compiler-generated** configuration — the
/// paper's future-work tool reconstructing its own evaluation workload.
///
/// The dataflow graph implements the inverse lifting steps with in-graph
/// delays:
///
/// ```text
/// e[t]   = s[t] - ((d[t-1] + d[t] + 2) >> 2)      (undo update)
/// odd[t] = d[t-1] + ((e[t-1] + e[t]) >> 1)        (undo predict, emitted
///                                                  one slot late)
/// ```
///
/// The host supplies one boundary prefix slot (mirroring `d\[0\]`) and one
/// tail slot (mirroring the right-edge extension), then interleaves the
/// even/odd output streams back into samples.
///
/// # Errors
///
/// Returns [`KernelError`] for a sub-4x4 geometry, mismatched subband
/// lengths, or empty input.
pub fn inverse_1d(
    geometry: RingGeometry,
    approx: &[i16],
    detail: &[i16],
) -> Result<WaveletRun, KernelError> {
    let compiled = compile_inverse(geometry)?;
    inverse_1d_with(&compiled, approx, detail)
}

/// Compiles the inverse-lifting dataflow graph for `geometry` (reusable
/// across rows/columns; the graph is length-independent).
fn compile_inverse(
    geometry: RingGeometry,
) -> Result<systolic_ring_compiler::CompiledGraph, KernelError> {
    check_geometry(geometry)?;
    use systolic_ring_compiler::{compile, Graph};
    use systolic_ring_isa::dnode::AluOp;
    let mut g = Graph::new();
    let s = g.input();
    let d = g.input();
    let two = g.constant(2);
    let one = g.constant(1);
    let d_prev = g.delay(d, 1);
    // e[t] = s - ((d_prev + d + 2) >> 2)
    let dsum = g.op(AluOp::Add, d_prev, d);
    let dsum2 = g.op(AluOp::Add, dsum, two);
    let upd = g.op(AluOp::Asr, dsum2, two);
    let e = g.op(AluOp::Sub, s, upd);
    // odd[t] = d_prev + ((e_prev + e) >> 1)   (= odd for slot t-1)
    let e_prev = g.delay(e, 1);
    let esum = g.op(AluOp::Add, e_prev, e);
    let pred = g.op(AluOp::Asr, esum, one);
    let odd = g.op(AluOp::Add, d_prev, pred);
    g.output(e);
    g.output(odd);
    compile(&g, geometry, MachineParams::PAPER)
        .map_err(|err| KernelError::BadParams(format!("inverse wavelet graph: {err}")))
}

/// Runs one inverse pass with a precompiled configuration.
fn inverse_1d_with(
    compiled: &systolic_ring_compiler::CompiledGraph,
    approx: &[i16],
    detail: &[i16],
) -> Result<WaveletRun, KernelError> {
    if approx.len() != detail.len() || approx.is_empty() {
        return Err(KernelError::BadParams(format!(
            "subband lengths {} / {} must match and be nonzero",
            approx.len(),
            detail.len()
        )));
    }
    let half = approx.len();
    let geometry_dnodes = compiled.geometry().dnodes();

    // Slot streams: prefix slot (s[0], d[0]) primes d_prev with the
    // symmetric extension d[-1] = d[0]; tail slot (s[half-1], d[half-2])
    // makes the final lookahead equal the right-edge extension.
    let mut s_stream = Vec::with_capacity(half + 2);
    let mut d_stream = Vec::with_capacity(half + 2);
    s_stream.push(approx[0]);
    d_stream.push(detail[0]);
    s_stream.extend_from_slice(approx);
    d_stream.extend_from_slice(detail);
    s_stream.push(approx[half - 1]);
    d_stream.push(detail[half.saturating_sub(2)]);

    let streams: [&[i16]; 2] = [&s_stream, &d_stream];
    let (outputs, cycles) = compiled
        .run(&streams)
        .map_err(|err| KernelError::BadParams(format!("inverse wavelet run: {err}")))?;
    // Even values: slots 1..=half (slot 0 was the prefix). Odd values:
    // odd[t] carries slot t-1's result, so slots 2..=half+1.
    let mut samples = Vec::with_capacity(half * 2);
    for i in 0..half {
        samples.push(outputs[0][i + 1]);
        samples.push(outputs[1][i + 2]);
    }
    let mut stats = systolic_ring_core::Stats::new(geometry_dnodes);
    stats.cycles = cycles;
    Ok(WaveletRun {
        coefficients: samples,
        cycles,
        pixels: half * 2,
        stats,
    })
}

/// Inverse of [`forward_2d`]: undoes the column pass, then the row pass,
/// reconstructing the image bit-exactly.
///
/// # Errors
///
/// Returns [`KernelError`] for odd dimensions or a sub-4x4 geometry.
pub fn inverse_2d(
    geometry: RingGeometry,
    width: usize,
    height: usize,
    coefficients: &[i16],
) -> Result<WaveletRun, KernelError> {
    check_geometry(geometry)?;
    if !width.is_multiple_of(2) || !height.is_multiple_of(2) || width < 2 || height < 2 {
        return Err(KernelError::BadParams(format!(
            "dimensions must be even and >= 2 (got {width}x{height})"
        )));
    }
    if coefficients.len() != width * height {
        return Err(KernelError::BadParams("coefficient count mismatch".into()));
    }
    let compiled = compile_inverse(geometry)?;
    let mut cycles = 0u64;
    // Undo the column pass.
    let mut rows_stage = vec![0i16; width * height];
    for x in 0..width {
        let approx: Vec<i16> = (0..height / 2)
            .map(|y| coefficients[y * width + x])
            .collect();
        let detail: Vec<i16> = (0..height / 2)
            .map(|y| coefficients[(y + height / 2) * width + x])
            .collect();
        let run = inverse_1d_with(&compiled, &approx, &detail)?;
        for (y, &v) in run.coefficients.iter().enumerate() {
            rows_stage[y * width + x] = v;
        }
        cycles += run.cycles;
    }
    // Undo the row pass.
    let mut out = vec![0i16; width * height];
    for y in 0..height {
        let row = &rows_stage[y * width..(y + 1) * width];
        let run = inverse_1d_with(&compiled, &row[..width / 2], &row[width / 2..])?;
        out[y * width..(y + 1) * width].copy_from_slice(&run.coefficients);
        cycles += run.cycles;
    }
    let mut stats = systolic_ring_core::Stats::new(geometry.dnodes());
    stats.cycles = cycles;
    Ok(WaveletRun {
        coefficients: out,
        cycles,
        pixels: width * height,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::image::test_signal;

    #[test]
    fn forward_1d_matches_golden() {
        let signal = test_signal(32, 6);
        let run = forward_1d(RingGeometry::RING_16, &signal).unwrap();
        let (a, d) = golden::lifting53_forward(&signal);
        let expect: Vec<i16> = a.into_iter().chain(d).collect();
        assert_eq!(run.coefficients, expect);
    }

    #[test]
    fn forward_1d_constant_signal() {
        let signal = vec![77i16; 16];
        let run = forward_1d(RingGeometry::RING_16, &signal).unwrap();
        assert_eq!(&run.coefficients[..8], &[77; 8]);
        assert_eq!(&run.coefficients[8..], &[0; 8]);
    }

    #[test]
    fn forward_1d_short_signal() {
        let signal = [10, 20, 30, 40];
        let run = forward_1d(RingGeometry::RING_16, &signal).unwrap();
        let (a, d) = golden::lifting53_forward(&signal);
        let expect: Vec<i16> = a.into_iter().chain(d).collect();
        assert_eq!(run.coefficients, expect);
    }

    #[test]
    fn forward_2d_matches_golden() {
        let image = Image::textured(16, 8, 12);
        let run = forward_2d(RingGeometry::RING_16, &image).unwrap();
        let expect = golden::lifting53_forward_2d(16, 8, image.data());
        assert_eq!(run.coefficients, expect);
    }

    #[test]
    fn throughput_is_about_two_pixels_per_cycle_per_pass() {
        let image = Image::textured(32, 32, 1);
        let run = forward_2d(RingGeometry::RING_16, &image).unwrap();
        // Two passes at ~2 px/cycle each: total ~1 px/cycle for the 2-D
        // transform, the paper's headline rate.
        let cpp = run.cycles as f64 / run.pixels as f64;
        assert!(cpp < 1.3, "cycles/pixel = {cpp:.2}");
    }

    #[test]
    fn about_a_quarter_of_the_fabric_stays_free() {
        let image = Image::textured(16, 16, 3);
        let run = forward_2d(RingGeometry::RING_16, &image).unwrap();
        // 11 of 16 Dnodes are used -> 5 idle (the paper reports 25% free).
        assert_eq!(run.stats.idle_dnodes(), 5);
    }

    #[test]
    fn multi_level_matches_golden() {
        let image = Image::textured(32, 16, 19);
        let run = forward_2d_multi(RingGeometry::RING_16, &image, 3).unwrap();
        let expect = golden::lifting53_forward_2d_multi(32, 16, image.data(), 3);
        assert_eq!(run.coefficients, expect);
        // Three levels cost the 2-D pass plus quarters of it.
        let one = forward_2d(RingGeometry::RING_16, &image).unwrap();
        assert!(run.cycles > one.cycles);
        assert!(run.cycles < one.cycles * 2);
    }

    #[test]
    fn statistics_cover_every_pass_and_level() {
        let image = Image::textured(64, 32, 4);
        let compiled =
            |stats: &Stats| (stats.fused_cycles + stats.aot_cycles) as f64 / stats.cycles as f64;
        let run = forward_2d(RingGeometry::RING_16, &image).unwrap();
        assert_eq!(run.stats.cycles, run.cycles);
        assert!(
            compiled(&run.stats) > 0.95,
            "compiled coverage {}",
            compiled(&run.stats)
        );
        let multi = forward_2d_multi(RingGeometry::RING_16, &image, 3).unwrap();
        assert_eq!(multi.stats.cycles, multi.cycles);
        assert!(multi.stats.host_words_in > run.stats.host_words_in);
    }

    #[test]
    fn multi_level_rejects_undecomposable_depths() {
        let image = Image::textured(8, 8, 2);
        // 8 -> 4 -> 2 -> 1: the fourth level would need a 1x1 quadrant.
        assert!(forward_2d_multi(RingGeometry::RING_16, &image, 4).is_err());
        assert!(forward_2d_multi(RingGeometry::RING_16, &image, 0).is_err());
        assert!(forward_2d_multi(RingGeometry::RING_16, &image, 3).is_ok());
    }

    #[test]
    fn inverse_1d_round_trips_the_golden_forward() {
        let signal = test_signal(48, 8);
        let (a, d) = golden::lifting53_forward(&signal);
        let run = inverse_1d(RingGeometry::RING_16, &a, &d).unwrap();
        assert_eq!(run.coefficients, signal);
        // Cross-check against the golden inverse too.
        assert_eq!(run.coefficients, golden::lifting53_inverse(&a, &d));
    }

    #[test]
    fn hardware_forward_then_hardware_inverse_is_identity() {
        // The full loop: forward on the hand-mapped pipeline, inverse on
        // the compiler-generated one, bit-exact reconstruction.
        let image = Image::textured(16, 8, 77);
        let fwd = forward_2d(RingGeometry::RING_16, &image).unwrap();
        let inv = inverse_2d(RingGeometry::RING_16, 16, 8, &fwd.coefficients).unwrap();
        assert_eq!(inv.coefficients, image.data());
    }

    #[test]
    fn inverse_rejects_bad_inputs() {
        assert!(inverse_1d(RingGeometry::RING_16, &[1, 2], &[1]).is_err());
        assert!(inverse_1d(RingGeometry::RING_16, &[], &[]).is_err());
        assert!(inverse_2d(RingGeometry::RING_16, 5, 4, &[0; 20]).is_err());
        assert!(inverse_2d(RingGeometry::RING_16, 4, 4, &[0; 15]).is_err());
        assert!(inverse_1d(RingGeometry::RING_8, &[1], &[1]).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            forward_1d(RingGeometry::RING_8, &[1, 2]),
            Err(KernelError::DoesNotFit(_))
        ));
        assert!(matches!(
            forward_1d(RingGeometry::RING_16, &[1, 2, 3]),
            Err(KernelError::BadParams(_))
        ));
        let odd = Image::zeros(5, 4);
        assert!(matches!(
            forward_2d(RingGeometry::RING_16, &odd),
            Err(KernelError::BadParams(_))
        ));
    }
}
