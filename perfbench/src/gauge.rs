//! The host gauge: how fast the host runs interpreter-like code while
//! the benchmark measures, so host-time metrics can be stated at one
//! fixed host speed.
//!
//! The reference host is a shared machine whose vCPUs change speed by up
//! to 1.5× for tens of seconds at a time, longer than a run can average
//! over. The slowdown hits the simulator's dispatch-heavy code and spares
//! register-bound loops, so the gauge is a small bytecode interpreter of
//! its own: random opcodes dispatched through a jump table, with loads
//! and stores into an L1-sized memory. It lives in the benchmark and
//! uses only `std`, so no change to the program under test moves it.
//!
//! A background thread runs a short gauge sample every few milliseconds
//! ([`Sampling`]), timed by its own CPU clock so that time spent waiting
//! for a core does not count. Every timed unit — an experiment, a fleet run, a serve slice,
//! one request or one script's requests of a class — is scaled to the
//! host speed [`NOMINAL_NS_PER_STEP`] by the median sample taken during
//! it ([`Readings::time_factor`]). The vCPUs change speed independently,
//! so the gauge must share the cores the work runs on: a `parallel` run
//! keeps every core busy, and a `serial` run pins the process to one
//! core ([`pin_to_one_cpu`]). On the reference host, over sets of five
//! runs of each workload, the scaling narrowed the spread (quartile
//! distance ÷ median) of the suite and fleet figures from 0.1–0.4 to
//! 0.02–0.11.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the gauge samples: steps per sample and the pause between
/// samples. Both settings keep it near 5% of one core.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    steps: u64,
    period: Duration,
}

/// For a run pinned to one CPU, where a sample delays every request that
/// arrives during it: ≈0.33 ms every 6.25 ms on the reference host.
/// (1.3 ms samples spread the `serial` p99 by 0.35 of its median.)
pub const SHARED_CPU: Sampling = Sampling {
    steps: 125_000,
    period: Duration::from_micros(6250),
};

/// For a run free to use every CPU, where each wake-up preempts the
/// work: ≈1.3 ms every 25 ms. (Four times as many wake-ups spread the
/// `parallel` serve figures by up to 0.15.)
pub const FREE_CPUS: Sampling = Sampling {
    steps: 500_000,
    period: Duration::from_millis(25),
};

/// The gauge speed that scaled metrics are stated at, ns per step. The
/// reference host reads 2.0–3.5.
pub const NOMINAL_NS_PER_STEP: f64 = 2.5;

/// Program length, instructions.
const PROGRAM: usize = 4096;

/// Memory size, words (16 KiB).
const MEMORY: usize = 4096;

/// Seed of the gauge program: every sample runs the same program.
const SEED: u64 = 9;

/// The gauge interpreter: a random program over 16 registers and
/// [`MEMORY`] words, run for `steps` instructions. Returns a digest so
/// the work cannot be optimized away.
fn interpret(steps: u64, seed: u64) -> u32 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let program: Vec<(u8, usize, usize, u32)> = (0..PROGRAM)
        .map(|_| {
            let r = next();
            (
                (r % 12) as u8,
                ((r >> 8) % 16) as usize,
                ((r >> 16) % 16) as usize,
                (r >> 32) as u32,
            )
        })
        .collect();
    let mut mem: Vec<u32> = (0..MEMORY).map(|i| next() as u32 ^ i as u32).collect();
    let mask = MEMORY - 1;
    let mut reg = [0u32; 16];
    let mut pc = 0usize;
    for _ in 0..steps {
        let (op, a, b, imm) = program[pc];
        pc += 1;
        match op {
            0 => reg[a] = reg[a].wrapping_add(reg[b]),
            1 => reg[a] = reg[a].wrapping_sub(imm),
            2 => reg[a] ^= reg[b].rotate_left(imm & 31),
            3 => reg[a] = mem[reg[b] as usize & mask],
            4 => mem[reg[a] as usize & mask] = reg[b],
            5 => reg[a] = reg[b].wrapping_mul(imm | 1),
            6 => {
                if reg[a] & 1 == 0 {
                    pc = imm as usize % PROGRAM
                }
            }
            7 => reg[a] = imm,
            8 => reg[a] >>= reg[b] & 7,
            9 => {
                if reg[a] > reg[b] {
                    pc = (pc + (imm as usize & 63)) % PROGRAM
                }
            }
            10 => reg[a] = mem[(imm as usize ^ reg[a] as usize) & mask].wrapping_add(1),
            _ => reg[a] = reg[a].wrapping_add(1),
        }
        if pc >= PROGRAM {
            pc = 0;
        }
    }
    reg.iter().fold(0, |h, r| h.rotate_left(5) ^ r)
}

#[cfg(target_os = "linux")]
mod os {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// A `cpu_set_t`: 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const THREAD_CPUTIME: i32 = 3;

    /// The calling thread's CPU mask.
    pub fn affinity() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; threads it spawns later
    /// inherit it.
    pub fn set_affinity(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable cpu_set_t of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    /// Restricts the calling thread to the lowest CPU it may run on.
    pub fn pin() -> Option<(CpuSet, usize)> {
        let all = affinity()?;
        let cpu = (0..1024).find(|&c| (all[c / 64] >> (c % 64)) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one).then_some((all, cpu))
    }

    /// CPU time of the calling thread, seconds; `None` if unavailable.
    pub fn thread_cpu_s() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

#[cfg(not(target_os = "linux"))]
mod os {
    pub type CpuSet = ();

    pub fn thread_cpu_s() -> Option<f64> {
        None
    }

    pub fn pin() -> Option<(CpuSet, usize)> {
        None
    }

    pub fn set_affinity(_: &CpuSet) -> bool {
        false
    }
}

/// The CPU mask a thread had before [`pin_to_one_cpu`].
#[derive(Debug)]
pub struct Pinned {
    before: os::CpuSet,
    /// The CPU now used.
    pub cpu: usize,
}

impl Pinned {
    /// Gives the calling thread, and the threads it spawns from now on,
    /// its former CPU mask back.
    pub fn release(self) {
        os::set_affinity(&self.before);
    }
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to one CPU, so the gauge and the work share it. `None` where the
/// platform does not allow it.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    os::pin().map(|(before, cpu)| Pinned { before, cpu })
}

/// One gauge sample, ns per step: thread CPU time where the platform
/// gives it, wall time otherwise.
fn sample(steps: u64) -> f64 {
    let (wall, cpu) = (Instant::now(), os::thread_cpu_s());
    black_box(interpret(black_box(steps), SEED));
    let s = match (cpu, os::thread_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.elapsed().as_secs_f64(),
    };
    s * 1e9 / steps as f64
}

/// A stretch of the run: start and end.
pub type Span = (Instant, Instant);

/// A running gauge thread.
#[derive(Debug)]
pub struct Gauge {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, f64)>>,
}

impl Gauge {
    /// Starts sampling in the background.
    pub fn start(sampling: Sampling) -> Gauge {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let ns = sample(sampling.steps);
                samples.push((Instant::now(), ns));
                std::thread::sleep(sampling.period);
            }
            samples
        });
        Gauge { stop, handle }
    }

    /// Stops the thread, waits for it and returns its readings.
    pub fn finish(self) -> Readings {
        self.stop.store(true, Ordering::Relaxed);
        Readings {
            samples: self.handle.join().expect("gauge thread does not panic"),
        }
    }
}

/// Fewest gauge samples a stretch of time needs to be scaled by its
/// own; a shorter stretch is scaled by the samples around its middle.
const MIN_SAMPLES: usize = 5;

/// Half-width of the neighbourhood a short stretch takes its samples
/// from.
const NEIGHBOURHOOD: Duration = Duration::from_secs(1);

/// Every gauge sample of a run, with the instant it ended, in order.
#[derive(Debug)]
pub struct Readings {
    samples: Vec<(Instant, f64)>,
}

impl Readings {
    /// The samples that ended in `[from, to]`.
    fn within(&self, from: Instant, to: Instant) -> impl Iterator<Item = f64> + '_ {
        let lo = self.samples.partition_point(|(t, _)| *t < from);
        let hi = self.samples.partition_point(|(t, _)| *t <= to);
        self.samples[lo..hi.max(lo)].iter().map(|(_, ns)| *ns)
    }

    /// The median sample that ended in `[from, to]` and how many did.
    fn median_in(&self, from: Instant, to: Instant) -> (f64, usize) {
        let inside: Vec<f64> = self.within(from, to).collect();
        (crate::stats::median(&inside), inside.len())
    }

    /// The factor that states a host time measured over `span` at the
    /// nominal gauge speed: [`NOMINAL_NS_PER_STEP`] ÷ the median sample
    /// taken in the span, or, when it holds fewer than [`MIN_SAMPLES`],
    /// in the [`NEIGHBOURHOOD`] around its middle, or else in the run.
    pub fn time_factor(&self, (from, to): Span) -> f64 {
        let (own, n) = self.median_in(from, to);
        if n >= MIN_SAMPLES {
            return NOMINAL_NS_PER_STEP / own;
        }
        let mid = from + (to.saturating_duration_since(from)) / 2;
        let (near, n) = self.median_in(
            mid.checked_sub(NEIGHBOURHOOD).unwrap_or(mid),
            mid + NEIGHBOURHOOD,
        );
        if n >= MIN_SAMPLES {
            NOMINAL_NS_PER_STEP / near
        } else {
            NOMINAL_NS_PER_STEP / self.overall().0
        }
    }

    /// A host time measured over `span`, at the nominal gauge speed.
    pub fn time(&self, span: Span, raw: f64) -> f64 {
        raw * self.time_factor(span)
    }

    /// The median sample of the run, ns per step, and the sample count.
    pub fn overall(&self) -> (f64, usize) {
        let all: Vec<f64> = self.samples.iter().map(|(_, ns)| *ns).collect();
        (crate::stats::median(&all), all.len())
    }

    /// The median sample over several stretches, ns per step, and the
    /// sample count, for the report.
    pub fn over(&self, spans: &[Span]) -> (f64, usize) {
        let inside: Vec<f64> = spans
            .iter()
            .flat_map(|&(from, to)| self.within(from, to))
            .collect();
        (crate::stats::median(&inside), inside.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_factor_takes_the_stretch_or_its_neighbourhood() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The nominal speed for the first second, half of it after.
        let samples = (0..80)
            .map(|i| (at(i * 25), if i < 40 { 2.5 } else { 5.0 }))
            .collect();
        let r = Readings { samples };
        assert_eq!(r.time_factor((at(0), at(900))), 1.0);
        assert_eq!(r.time_factor((at(1100), at(1900))), 0.5);
        // Too short to hold samples: the neighbourhood of its middle.
        assert_eq!(r.time_factor((at(1500), at(1510))), 0.5);
        assert_eq!(r.time((at(1100), at(1900)), 3.0), 1.5);
    }

    #[test]
    fn gauge_samples_until_finished() {
        let gauge = Gauge::start(SHARED_CPU);
        std::thread::sleep(Duration::from_millis(60));
        let (ns, n) = gauge.finish().overall();
        assert!(n >= 1 && ns > 0.0);
    }
}
