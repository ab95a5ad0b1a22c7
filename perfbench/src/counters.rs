//! The processor's instruction and cycle counters, through
//! `perf_event_open(2)`, counting user space only.
//!
//! The host shares its cores and caches with other machines. Their load
//! moves this machine's clock rate, takes its cores away for a while and
//! evicts its caches, so the same work takes 10-50% more or less wall
//! time, CPU time and even cycles from one minute to the next (measured
//! on the reference host: a `motion_frame` block search took 2.7 to 3.4
//! million cycles, a `corpus_sweep` job 0.09 to 0.14 million, within
//! half an hour). The number of instructions the work retires does not
//! depend on any of that, so the end-to-end speed figures count
//! instructions, as compiler performance trackers do for the same reason;
//! cycles and wall time are per-layer figures.
//!
//! Counters are inherited: they count the thread that opened them and
//! every thread and process it starts afterwards. A child's counts join
//! the total when the child exits.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::FromRawFd;
use std::os::raw::{c_int, c_long};

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

/// `PERF_TYPE_HARDWARE` and its `PERF_COUNT_HW_CPU_CYCLES` and
/// `PERF_COUNT_HW_INSTRUCTIONS` events.
const TYPE_HARDWARE: u32 = 0;
const HW_CPU_CYCLES: u64 = 0;
const HW_INSTRUCTIONS: u64 = 1;
/// `read_format`: total time enabled and running, to scale a count if
/// the kernel had to share the counter between events.
const FORMAT_TIMES: u64 = 1 | 2;
/// `attr` flag bits: inherit, exclude_kernel, exclude_hv.
const INHERIT: u64 = 1 << 1;
const EXCLUDE_KERNEL: u64 = 1 << 5;
const EXCLUDE_HV: u64 = 1 << 6;
/// `PERF_ATTR_SIZE_VER0`: the fields up to `config1`.
const ATTR_SIZE: usize = 64;

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
}

fn open(config: u64) -> io::Result<File> {
    let mut attr = [0u8; ATTR_SIZE];
    attr[0..4].copy_from_slice(&TYPE_HARDWARE.to_ne_bytes());
    attr[4..8].copy_from_slice(&(ATTR_SIZE as u32).to_ne_bytes());
    attr[8..16].copy_from_slice(&config.to_ne_bytes());
    attr[32..40].copy_from_slice(&FORMAT_TIMES.to_ne_bytes());
    attr[40..48].copy_from_slice(&(INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV).to_ne_bytes());
    let (pid, cpu, group, flags): (c_int, c_int, c_int, u64) = (0, -1, -1, 0);
    // SAFETY: `attr` is a valid `perf_event_attr` of the size it states,
    // alive for the call; the other arguments are plain integers, as the
    // system call takes them.
    let fd = unsafe { syscall(SYS_PERF_EVENT_OPEN, attr.as_ptr(), pid, cpu, group, flags) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned this descriptor, owned by no one
    // else.
    Ok(unsafe { File::from_raw_fd(fd as c_int) })
}

fn read(fd: &File) -> io::Result<u64> {
    let mut buf = [0u8; 24];
    (&*fd).read_exact(&mut buf)?;
    let word = |i: usize| u64::from_ne_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    let (count, enabled, running) = (word(0), word(1), word(2));
    Ok(if running > 0 && running < enabled {
        (count as u128 * enabled as u128 / running as u128) as u64
    } else {
        count
    })
}

/// Instructions and cycles counted so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Instructions retired.
    pub instructions: u64,
    /// Core cycles.
    pub cycles: u64,
}

impl Counts {
    /// `self - earlier`, counter by counter.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            cycles: self.cycles.saturating_sub(earlier.cycles),
        }
    }

    /// Sum, counter by counter.
    pub fn plus(self, other: Counts) -> Counts {
        Counts {
            instructions: self.instructions + other.instructions,
            cycles: self.cycles + other.cycles,
        }
    }
}

/// An open pair of counters.
pub struct Counters {
    instructions: File,
    cycles: File,
}

impl Counters {
    /// Counts the user-space instructions and cycles of the calling
    /// thread and of every thread and process it starts from now on, or
    /// says why it cannot (the benchmark cannot measure without them).
    pub fn open() -> Result<Counters, String> {
        let explain = |e: io::Error| {
            format!("cannot open the processor's counters (perf_event_open: {e}); the benchmark needs them readable by unprivileged processes (kernel.perf_event_paranoid <= 2)")
        };
        Ok(Counters {
            instructions: open(HW_INSTRUCTIONS).map_err(explain)?,
            cycles: open(HW_CPU_CYCLES).map_err(explain)?,
        })
    }

    /// The counts so far.
    pub fn read(&self) -> io::Result<Counts> {
        Ok(Counts {
            instructions: read(&self.instructions)?,
            cycles: read(&self.cycles)?,
        })
    }
}
