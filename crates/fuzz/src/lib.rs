//! Differential fuzzing and power-cycle fault injection for the EDB
//! simulation fast path.
//!
//! The bench-gated fast path (PR 2) rests on two equivalences that are
//! cheap to state and easy to silently break:
//!
//! 1. the **predecoded-instruction cache** must be architecturally
//!    invisible — cached and cold decode execute identically even under
//!    self-modifying code and power cycles;
//! 2. the **span-batched energy integration** (`Device::run_span`,
//!    `System::run_for`) must be bit-identical to naive per-quantum
//!    stepping.
//!
//! This crate adversarially checks both with seed-driven engines:
//!
//! * [`gen`] — a random MSP430-class program generator that emits valid
//!   assembler source (weighted over addressing modes, self-modifying
//!   stores, port traffic, wild pointers) and feeds it through the real
//!   two-pass assembler;
//! * [`diff`] — differential executors running each program through
//!   paired configurations (cache on/off at the bare-CPU, device, and
//!   full-system layers; span-batched vs stepped integration) and
//!   comparing architectural state, memory images, energy trajectories,
//!   and emitted events at every sync point;
//! * [`fault`] — a power-cycle fault injector that reboots at seeded
//!   instruction boundaries and checks the volatile/non-volatile
//!   invariants (FRAM persists, SRAM/registers clear, cache
//!   invalidation holds, checkpoint-restore round-trips);
//! * [`session`] — a debug-session fuzzer (PR 4) that drives random
//!   framed command sequences through a noisy debug UART with
//!   mid-exchange brown-outs, asserting every command either completes
//!   with the true memory value or aborts with a typed `EdbError`;
//! * [`container`] — a recording-container fuzzer that bit-flips,
//!   splices, inflates length fields in and deeply nests recorded
//!   `.edbr` tapes, asserting the parser returns a recording or a typed
//!   error and never panics or aborts;
//! * [`soundness`] — an analyzer-soundness fuzzer that generates
//!   bounded-by-construction programs and asserts no simulated
//!   execution, under any harvest trace, exceeds `edb-analyze`'s static
//!   WCEC bound or takes a CFG edge the analyzer missed.
//!
//! Divergences are minimized by greedy instruction deletion ([`mod@shrink`])
//! and written as self-contained reproducers ([`artifact`]). The
//! `fuzz_smoke` binary drives everything through `edb-bench`'s
//! deterministic runner, so a given `--seed` produces bit-identical
//! verdicts at any thread count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod container;
pub mod diff;
pub mod fault;
pub mod gen;
pub mod race;
pub mod session;
pub mod shrink;
pub mod soundness;

pub use diff::Divergence;
pub use gen::Program;
pub use shrink::{shrink, Shrunk};

/// Knobs for one fuzzing run. The defaults are sized so a single case
/// costs a few milliseconds in release builds.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Lockstep steps for the bare-CPU cache-vs-cold arm.
    pub mcu_steps: usize,
    /// Simulated window (ms) for the device-layer arms.
    pub device_sim_ms: u64,
    /// Simulated window (ms) for the full-system arm.
    pub system_sim_ms: u64,
    /// Evaluation budget for shrinking a failing case.
    pub max_shrink_steps: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            mcu_steps: 4000,
            device_sim_ms: 30,
            system_sim_ms: 20,
            max_shrink_steps: 400,
        }
    }
}

/// One failing case: the seed that produced it, the offending program,
/// and what diverged.
#[derive(Debug)]
pub struct CaseFailure {
    /// Trial seed (from the deterministic runner) that generated the case.
    pub seed: u64,
    /// The generated program that exposed the divergence.
    pub program: Program,
    /// First divergence observed.
    pub divergence: Divergence,
}

/// Re-checks a specific program under a case seed: runs every
/// differential and fault-injection arm and returns the first
/// divergence. This is the oracle the shrinker replays.
pub fn check_program(prog: &Program, seed: u64, cfg: &FuzzConfig) -> Option<Divergence> {
    if let Some(d) = diff::diff_mcu(prog, seed, cfg.mcu_steps) {
        return Some(d);
    }
    if let Some(d) = diff::diff_device(prog, seed, cfg.device_sim_ms) {
        return Some(d);
    }
    if let Some(d) = diff::diff_system(prog, seed, cfg.system_sim_ms) {
        return Some(d);
    }
    fault::inject_power_cycles(prog, seed)
}

/// Generates and checks one case from its seed. Returns `None` when all
/// arms agree (the healthy outcome).
pub fn run_case(seed: u64, cfg: &FuzzConfig) -> Option<CaseFailure> {
    let program = gen::generate(seed);
    check_program(&program, seed, cfg).map(|divergence| CaseFailure {
        seed,
        program,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build smoke: a handful of cases through every arm. The big
    /// budgets live in the release-mode `fuzz_smoke` bin and CI job.
    #[test]
    fn a_few_cases_are_divergence_free() {
        let cfg = FuzzConfig {
            mcu_steps: 600,
            device_sim_ms: 8,
            system_sim_ms: 6,
            max_shrink_steps: 50,
        };
        for seed in 1..=4u64 {
            if let Some(f) = run_case(seed, &cfg) {
                panic!("seed {seed}: {}", f.divergence);
            }
        }
    }

    #[test]
    fn checkpoint_round_trip_smoke() {
        if let Some(d) = fault::checkpoint_round_trip(7) {
            panic!("{d}");
        }
    }
}
