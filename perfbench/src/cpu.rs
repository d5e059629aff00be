//! The host's speed: measuring it, and running on its fastest CPU.
//!
//! On a shared VM each vCPU runs at its own speed, which changes every few
//! seconds with what shares its host core, by up to ~1.8x and with almost
//! no steal time reported. So the benchmark times a fixed calibration unit
//! between every two profiling windows ([`speed`]) and reports each timing
//! scaled to a reference speed, and before each timed set-up or run it
//! pins the coordinator to the CPU that runs the unit fastest
//! ([`pin_fastest`]). Pinning also keeps the coordinator, the
//! `plasma-server` workers it spawns and the live carrier's server threads
//! (which inherit the mask) on one CPU, so a decision round's query/reply
//! hand-offs are context switches there rather than wake-ups of another
//! vCPU.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// glibc's `cpu_set_t`: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may use, read once before any pinning.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and its size
        // is passed alongside; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    })
}

/// Pins the calling thread to `cpu`; false if the kernel refused.
fn pin(cpu: usize) -> bool {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is an initialised `cpu_set_t`-sized buffer and its
    // size is passed alongside; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Keys the calibration sorts and queues, fixed pseudo-random values.
const KEYS: usize = 2048;
/// Steps of the calibration's branchy dispatch loop.
const DISPATCH_STEPS: usize = 30_000;
/// Units per calibration; the fastest is kept, so an interrupt in one
/// does not read as a slow host.
const UNITS: usize = 3;
/// The calibration unit's time at the reference speed, ns: timings are
/// reported as if the unit took this long. On the 2-vCPU Intel Xeon VM the
/// benchmark was tuned on, it took about 180 to 230 µs.
pub const REFERENCE_NS: f64 = 250_000.0;
/// How much more the workloads slow down than the unit when the host
/// slows: the log of a workload run's wall time moved 1.3 to 1.8 times as
/// far as the log of the unit's time, on the net and the sim workload
/// alike, so [`speed`] raises the unit's speed to this power.
const SENSITIVITY: f64 = 1.5;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 17
}

/// The calibration's keys, built once.
fn keys() -> &'static [u64] {
    static KEYS_: OnceLock<Vec<u64>> = OnceLock::new();
    KEYS_.get_or_init(|| {
        let mut state = 0x2545_F491_4F6C_DD1D;
        (0..KEYS).map(|_| lcg(&mut state)).collect()
    })
}

/// One calibration unit, the kind of work the runtime does between its
/// own data structures, done with the standard library only: an unstable
/// sort, a binary heap filled and drained, and a dispatch loop whose
/// branches the predictor misses one time in eight. A timed spin of
/// dependent multiplies does not do: it kept its speed while the program
/// slowed by half. Returns the unit's wall time, ns.
fn unit_ns() -> f64 {
    let keys = keys();
    let start = Instant::now();
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let mut heap: BinaryHeap<u64> = keys.iter().copied().collect();
    let mut acc = sorted[KEYS / 2];
    while let Some(k) = heap.pop() {
        acc ^= k;
    }
    let ops: [u8; 16] = [0, 1, 2, 0, 3, 1, 2, 2, 0, 3, 3, 1, 0, 2, 1, 3];
    let mut state = acc;
    for i in 0..DISPATCH_STEPS {
        let op = if lcg(&mut state) & 7 == 0 {
            ops[(i * 7) & 15]
        } else {
            ops[i & 15]
        };
        acc = match black_box(op) {
            0 => acc.wrapping_add(i as u64),
            1 => acc ^ (acc >> 3),
            2 => acc.wrapping_mul(3),
            _ => acc.rotate_left(1),
        };
    }
    black_box((acc, sorted));
    start.elapsed().as_nanos() as f64
}

/// The host's speed now, as [`REFERENCE_NS`] over the time of a fixed unit
/// of work (the fastest of [`UNITS`]), raised to [`SENSITIVITY`]: 1.0 at
/// the reference speed, about 0.35 when the unit takes twice as long.
///
/// A timing multiplied by the speed measured around it is the time it
/// would have taken at the reference speed. The shared host slows the
/// calibration and the program together, so the product moves with the
/// program's own cost and not with its neighbours' load.
pub fn speed() -> f64 {
    let fastest = (0..UNITS).map(|_| unit_ns()).fold(f64::INFINITY, f64::min);
    (REFERENCE_NS / fastest.max(1.0)).powf(SENSITIVITY)
}

/// Pins the calling thread, and so every thread and process it starts
/// afterwards, to the allowed CPU with the highest [`speed`] now. Leaves
/// the mask alone when it cannot be read or set.
pub fn pin_fastest() {
    let fastest = allowed()
        .iter()
        .filter(|&&cpu| pin(cpu))
        .map(|&cpu| (speed(), cpu))
        .max_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((_, cpu)) = fastest {
        pin(cpu);
    }
}
