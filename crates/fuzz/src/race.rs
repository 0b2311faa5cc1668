//! The checkpoint-strategy race: every zoo member against `FullDump`
//! under adversarial power-failure injection.
//!
//! Two oracles, both driven by a seeded injection *schedule* (where the
//! cuts land and whether each is an abrupt collapse or a gradual sag):
//!
//! * **Lockstep** — [`Differential`] must be *bit-identical* to
//!   [`FullDump`] through the whole run: both commit at the same
//!   instruction triggers with the same logical content (a delta chain
//!   reconstructs the full image), host-side FRAM traffic costs the
//!   target nothing, so registers, pc, capacitor bits, and SRAM must
//!   agree at every step and the mailbox at the end.
//! * **Result** — every strategy (including [`Speculative`], whose
//!   commit *points* legitimately differ) must drive a
//!   restart-idempotent kernel to the same published result as an
//!   uninterrupted run. The kernels keep all progress in volatile
//!   state and publish a deterministic value to an FRAM mailbox, so
//!   any mix of checkpoint restores and cold reboots converges on the
//!   oracle answer — or the strategy corrupted a restore.
//!
//! A divergence is minimized by ddmin over the injection schedule
//! ([`crate::shrink::ddmin`] with [`check_race_on`]): the smallest set
//! of cuts that still breaks the race is the bug report.
//!
//! [`Differential`]: StrategyKind::Differential
//! [`FullDump`]: StrategyKind::FullDump
//! [`Speculative`]: StrategyKind::Speculative

use crate::diff::Divergence;
use edb_device::{Device, DeviceConfig};
use edb_energy::{PowerEdge, SimTime, TheveninSource};
use edb_runtime::ckpt::{CkptConfig, CkptEngine, StrategyKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FRAM word the kernels publish their result to.
pub const MAILBOX: u16 = 0x6000;
/// FRAM word set to [`DONE_MAGIC`] after the result is published.
pub const FLAG: u16 = 0x6002;
/// Completion marker.
pub const DONE_MAGIC: u16 = 0xBEEF;

/// One restart-idempotent kernel: progress lives in registers and SRAM
/// only, inputs are constants (in code or read-only FRAM tables), and
/// the deterministic result is published to the mailbox. Any interleave
/// of checkpoint restores and cold reboots must publish the same value.
#[derive(Debug, Clone)]
pub struct RaceKernel {
    /// Short name for reports.
    pub name: &'static str,
    /// Assembly source.
    pub source: String,
}

fn prologue() -> String {
    "    .org 0x4400\ninit:\n    movi sp, 0x2400\n".to_string()
}

fn epilogue(result_reg: &str) -> String {
    format!(
        "publish:\n    movi r14, {MAILBOX:#06x}\n    st   [r14], {result_reg}\n    \
         movi r13, {DONE_MAGIC:#06x}\n    st   [r14 + 2], r13\nspin:\n    jmp  spin\n    \
         .org 0xFFFE\n    .word init\n"
    )
}

/// The kernel suite the race runs across.
pub fn kernels() -> Vec<RaceKernel> {
    let mut out = Vec::new();

    // Triangular sum 1..=600 (wraps mod 2^16): pure register progress.
    out.push(RaceKernel {
        name: "sum",
        source: format!(
            "{}    movi r0, 0\n    movi r1, 0\nloop:\n    add  r1, 1\n    add  r0, r1\n    \
             cmpi r1, 600\n    jne  loop\n{}",
            prologue(),
            epilogue("r0")
        ),
    });

    // Iterative Fibonacci, 300 steps mod 2^16.
    out.push(RaceKernel {
        name: "fib",
        source: format!(
            "{}    movi r0, 0\n    movi r1, 1\n    movi r2, 0\nloop:\n    mov  r3, r1\n    \
             add  r1, r0\n    mov  r0, r3\n    add  r2, 1\n    cmpi r2, 300\n    jne  loop\n{}",
            prologue(),
            epilogue("r1")
        ),
    });

    // Rotate-xor checksum over a 32-word FRAM table.
    let table: String = (0..32u32)
        .map(|i| format!("    .word {:#06x}\n", (i * 0x9E37 + 0x79B9) & 0xFFFF))
        .collect();
    out.push(RaceKernel {
        name: "checksum",
        source: format!(
            "{}    movi r0, 0\n    movi r1, 0x7000\n    movi r2, 0\nloop:\n    ld   r3, [r1]\n    \
             mov  r4, r0\n    shl  r4, 1\n    shr  r0, 15\n    or   r0, r4\n    xor  r0, r3\n    \
             add  r1, 2\n    add  r2, 1\n    cmpi r2, 32\n    jne  loop\n{}    \
             .org 0x7000\n{table}",
            prologue(),
            epilogue("r0")
        ),
    });

    // Generate 16 pseudo-random words into SRAM, bubble-sort ascending,
    // publish an order-sensitive digest of the sorted array.
    out.push(RaceKernel {
        name: "sort",
        source: format!(
            "{}    movi r0, 0x1C20\n    movi r1, 7\n    movi r2, 0\nfill:\n    \
             mul  r1, 31\n    add  r1, 7\n    st   [r0], r1\n    add  r0, 2\n    add  r2, 1\n    \
             cmpi r2, 16\n    jne  fill\n\
             pass:\n    movi r5, 0\n    movi r0, 0x1C20\n    movi r2, 0\n\
             sweep:\n    ld   r3, [r0]\n    ld   r4, [r0 + 2]\n    cmp  r3, r4\n    jle  inorder\n    \
             st   [r0], r4\n    st   [r0 + 2], r3\n    movi r5, 1\ninorder:\n    add  r0, 2\n    \
             add  r2, 1\n    cmpi r2, 15\n    jne  sweep\n    cmpi r5, 0\n    jne  pass\n\
             digest:\n    movi r0, 0x1C20\n    movi r1, 0\n    movi r2, 0\n\
             dloop:\n    ld   r3, [r0]\n    mul  r1, 33\n    xor  r1, r3\n    add  r0, 2\n    \
             add  r2, 1\n    cmpi r2, 16\n    jne  dloop\n{}",
            prologue(),
            epilogue("r1")
        ),
    });

    // Dot product of two 16-word FRAM vectors, accumulator in SRAM (so
    // the differential tracker sees real dirty-word churn).
    let vec_a: String = (0..16u32)
        .map(|i| format!("    .word {:#06x}\n", (i * 3 + 1) & 0xFFFF))
        .collect();
    let vec_b: String = (0..16u32)
        .map(|i| format!("    .word {:#06x}\n", (i * 5 + 2) & 0xFFFF))
        .collect();
    out.push(RaceKernel {
        name: "dot",
        source: format!(
            "{}    movi r0, 0x7100\n    movi r1, 0x7140\n    movi r2, 0\n    movi r6, 0x1C40\n    \
             movi r5, 0\n    st   [r6], r5\nloop:\n    ld   r3, [r0]\n    ld   r4, [r1]\n    \
             mul  r3, r4\n    ld   r5, [r6]\n    add  r5, r3\n    st   [r6], r5\n    \
             add  r0, 2\n    add  r1, 2\n    add  r2, 1\n    cmpi r2, 16\n    jne  loop\n    \
             ld   r7, [r6]\n{}    .org 0x7100\n{vec_a}    .org 0x7140\n{vec_b}",
            prologue(),
            epilogue("r7")
        ),
    });

    out
}

/// One injected power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Instructions to retire (since the previous cut) before failing.
    pub after_instructions: u64,
    /// `true`: collapse straight past the brown-out threshold (no knee
    /// warning). `false`: sag gradually through the knee first, giving
    /// a speculative strategy its commit window.
    pub abrupt: bool,
}

/// A seeded injection schedule: 2–6 cuts, mixed abrupt and gradual.
pub fn generate_schedule(seed: u64) -> Vec<Cut> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ACE_CA75);
    (0..rng.gen_range(2u32..=6))
        .map(|_| Cut {
            after_instructions: rng.gen_range(80u64..2500),
            abrupt: rng.gen_bool(0.5),
        })
        .collect()
}

/// A strategy arm mid-run: the device, its engine, and its harvester.
struct Arm {
    dev: Device,
    engine: Option<CkptEngine>,
    h: TheveninSource,
}

impl Arm {
    fn new(image: &edb_mcu::Image, kind: Option<StrategyKind>) -> Self {
        let mut dev = Device::new(DeviceConfig::wisp5());
        dev.flash(image);
        dev.set_v_cap(3.0);
        let engine = kind.map(|k| {
            let mut e = CkptEngine::new(CkptConfig::new(k).interval(96));
            e.attach(dev.mem_mut());
            e
        });
        Arm {
            dev,
            engine,
            h: TheveninSource::new(3.2, 1500.0),
        }
    }

    fn step(&mut self) -> Option<PowerEdge> {
        let step = self.dev.step(&mut self.h, 0.0);
        if let Some(e) = &mut self.engine {
            e.observe(&mut self.dev, step.power_edge);
        }
        step.power_edge
    }

    /// Steps until `n` more instructions retire (bounded by sim time —
    /// the run may be parked in an off window or the spin loop).
    fn run_instructions(&mut self, n: u64) {
        let until = self.dev.total_instructions() + n;
        let guard = SimTime::from_ns(self.dev.now().as_ns() + 80_000_000);
        while self.dev.total_instructions() < until && self.dev.now() < guard {
            self.step();
        }
    }

    /// Injects one cut: fail, then repower (the turn-on restores).
    fn inject(&mut self, cut: Cut) -> Result<(), String> {
        if !self.dev.powered() {
            self.dev.set_v_cap(3.0);
        }
        if cut.abrupt {
            self.dev.set_v_cap(1.0);
        } else {
            // Sag through the knee for one sample, then collapse.
            self.dev.set_v_cap(1.95);
            self.step();
            self.dev.set_v_cap(1.0);
        }
        for _ in 0..8 {
            if self.step() == Some(PowerEdge::BrownOut) {
                break;
            }
        }
        if self.dev.powered() {
            return Err("brown-out edge never fired".into());
        }
        self.dev.set_v_cap(3.0);
        for _ in 0..8 {
            if self.step() == Some(PowerEdge::TurnOn) {
                return Ok(());
            }
        }
        Err("turn-on edge never fired".into())
    }

    /// Runs to completion and reads the mailbox.
    fn finish(&mut self) -> Result<u16, String> {
        let guard = SimTime::from_ns(self.dev.now().as_ns() + 400_000_000);
        while self.dev.mem().peek_word(FLAG) != DONE_MAGIC {
            if self.dev.now() >= guard {
                return Err("kernel never published (flag unset)".into());
            }
            self.step();
        }
        Ok(self.dev.mem().peek_word(MAILBOX))
    }
}

fn assemble(kernel: &RaceKernel) -> Result<edb_mcu::Image, Divergence> {
    edb_mcu::asm::assemble(&kernel.source).map_err(|e| {
        Divergence::new(
            "strategy",
            format!("kernel `{}` does not assemble: {e}", kernel.name),
        )
    })
}

/// The uninterrupted-run oracle result for a kernel.
pub fn oracle_result(kernel: &RaceKernel) -> Result<u16, Divergence> {
    let image = assemble(kernel)?;
    let mut arm = Arm::new(&image, None);
    arm.finish()
        .map_err(|e| Divergence::new("strategy", format!("oracle {}: {e}", kernel.name)))
}

/// Result arm: runs `kind` under the schedule; the published result
/// must equal `oracle`.
pub fn race_result(
    kernel: &RaceKernel,
    kind: StrategyKind,
    schedule: &[Cut],
    oracle: u16,
) -> Option<Divergence> {
    let image = match assemble(kernel) {
        Ok(i) => i,
        Err(d) => return Some(d),
    };
    let mut arm = Arm::new(&image, Some(kind));
    for (i, &cut) in schedule.iter().enumerate() {
        arm.run_instructions(cut.after_instructions);
        if let Err(e) = arm.inject(cut) {
            return Some(Divergence::new(
                "strategy",
                format!("{}/{kind}: cut {i}: {e}", kernel.name),
            ));
        }
    }
    match arm.finish() {
        Ok(got) if got == oracle => None,
        Ok(got) => Some(Divergence::new(
            "strategy",
            format!(
                "{}/{kind}: published {got:#06x}, oracle {oracle:#06x} \
                 (restore corrupted the kernel)",
                kernel.name
            ),
        )),
        Err(e) => Some(Divergence::new(
            "strategy",
            format!("{}/{kind}: {e}", kernel.name),
        )),
    }
}

/// Lockstep arm: `Differential` raced bit-for-bit against `FullDump`
/// under the same schedule. Both commit at the same instruction
/// triggers with the same logical content, so the whole architectural
/// trajectory must agree step by step.
pub fn race_lockstep(kernel: &RaceKernel, schedule: &[Cut]) -> Option<Divergence> {
    let image = match assemble(kernel) {
        Ok(i) => i,
        Err(d) => return Some(d),
    };
    let mut full = Arm::new(&image, Some(StrategyKind::FullDump));
    let mut diff = Arm::new(&image, Some(StrategyKind::Differential));
    let compare = |full: &Arm, diff: &Arm, at: &str| -> Option<Divergence> {
        let (f, d) = (&full.dev, &diff.dev);
        if f.cpu().pc != d.cpu().pc
            || f.cpu().regs != d.cpu().regs
            || f.v_cap().to_bits() != d.v_cap().to_bits()
            || f.total_instructions() != d.total_instructions()
        {
            return Some(Divergence::new(
                "strategy",
                format!(
                    "{}: differential diverged from full_dump at {at} \
                     (pc {:#06x} vs {:#06x}, {} vs {} instructions)",
                    kernel.name,
                    f.cpu().pc,
                    d.cpu().pc,
                    f.total_instructions(),
                    d.total_instructions()
                ),
            ));
        }
        if f.mem().sram() != d.mem().sram() {
            return Some(Divergence::new(
                "strategy",
                format!("{}: SRAM diverged at {at}", kernel.name),
            ));
        }
        None
    };
    // Drive both arms through identical forcing, comparing as we go.
    let lockstep = |full: &mut Arm, diff: &mut Arm, n: u64| {
        let until = full.dev.total_instructions() + n;
        let guard = SimTime::from_ns(full.dev.now().as_ns() + 80_000_000);
        while full.dev.total_instructions() < until && full.dev.now() < guard {
            full.step();
            diff.step();
        }
    };
    for (i, &cut) in schedule.iter().enumerate() {
        lockstep(&mut full, &mut diff, cut.after_instructions);
        if let Some(d) = compare(&full, &diff, &format!("cut {i} (pre-fail)")) {
            return Some(d);
        }
        let a = full.inject(cut);
        let b = diff.inject(cut);
        if let Err(e) = a.and(b) {
            return Some(Divergence::new(
                "strategy",
                format!("{}: cut {i}: {e}", kernel.name),
            ));
        }
        if let Some(d) = compare(&full, &diff, &format!("cut {i} (post-restore)")) {
            return Some(d);
        }
    }
    lockstep(&mut full, &mut diff, 20_000);
    if let Some(d) = compare(&full, &diff, "end of run") {
        return Some(d);
    }
    let (a, b) = (
        full.dev.mem().peek_word(MAILBOX),
        diff.dev.mem().peek_word(MAILBOX),
    );
    if a != b {
        return Some(Divergence::new(
            "strategy",
            format!(
                "{}: mailbox diverged: full_dump {a:#06x}, differential {b:#06x}",
                kernel.name
            ),
        ));
    }
    None
}

/// One complete race trial from a seed: pick a kernel and a schedule,
/// run the lockstep arm and every strategy's result arm.
pub fn check_race(seed: u64) -> Option<Divergence> {
    let suite = kernels();
    let kernel = &suite[(seed as usize) % suite.len()];
    let schedule = generate_schedule(seed);
    check_race_on(kernel, &schedule)
}

/// The race oracle for a fixed kernel and schedule (what the shrinker
/// replays).
pub fn check_race_on(kernel: &RaceKernel, schedule: &[Cut]) -> Option<Divergence> {
    let oracle = match oracle_result(kernel) {
        Ok(v) => v,
        Err(d) => return Some(d),
    };
    if let Some(d) = race_lockstep(kernel, schedule) {
        return Some(d);
    }
    for kind in StrategyKind::ALL {
        if let Some(d) = race_result(kernel, kind, schedule, oracle) {
            return Some(d);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_assembles_and_finishes() {
        for kernel in kernels() {
            let v = oracle_result(&kernel).unwrap_or_else(|d| panic!("{d}"));
            assert_ne!(v, 0, "{}: oracle result must be nonzero", kernel.name);
        }
    }

    #[test]
    fn a_few_race_trials_are_divergence_free() {
        for seed in 1..=5u64 {
            if let Some(d) = check_race(seed) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn shrinker_minimizes_to_the_culprit_cut() {
        // Synthetic oracle: the race "diverges" iff the schedule still
        // contains the poisoned cut. ddmin must isolate exactly it.
        let poison = Cut {
            after_instructions: 1234,
            abrupt: true,
        };
        let mut schedule = generate_schedule(11);
        schedule.insert(2, poison);
        let check = |s: &[Cut]| {
            s.contains(&poison)
                .then(|| Divergence::new("strategy", "synthetic"))
        };
        let seed_div = check(&schedule).expect("diverges with poison present");
        let (min, _) = crate::shrink::ddmin(&schedule, seed_div, check);
        assert_eq!(min, vec![poison]);
    }
}
