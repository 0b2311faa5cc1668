//! Debug-session fuzzing: random command sequences through a noisy
//! debug UART, with brown-outs injected mid-exchange.
//!
//! Each trial boots a WISP-class target whose firmware fills a known
//! FRAM window and then fails an EDB assertion, opening a keep-alive
//! debug session. The engine then drives a seeded sequence of
//! `CMD_READ` / `CMD_WRITE` / `CMD_GET_PC` exchanges while the channel
//! flips, drops, and duplicates bytes ([`ChannelFaultConfig`]), and
//! occasionally collapses the capacitor in the middle of an exchange.
//!
//! The oracle is simple and strict:
//!
//! * a command that completes must carry the **true** value — reads
//!   must match `Memory::peek_word`, acknowledged writes must actually
//!   have landed;
//! * a command that does not complete must surface a **typed**
//!   [`EdbError`] (timeout, corrupt reply, aborted by brown-out) —
//!   never a panic, never a silent wrong answer;
//! * the per-trial outcome stream folds into an FNV-1a digest, so a
//!   whole run is bit-reproducible across `--threads` settings.

use crate::diff::Divergence;
use edb_core::debugger::SessionOutcome;
use edb_core::{ChannelFaultConfig, DebugRequest, EdbError, SessionPoll, System};
use edb_device::DeviceConfig;
use edb_energy::{SimTime, TheveninSource};
use edb_replay::Fnv;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// First word of the FRAM window the firmware fills at every boot.
pub const WINDOW_BASE: u16 = 0x6000;
/// Number of words in the window.
pub const WINDOW_WORDS: u16 = 32;

/// Knobs for one session trial.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Commands to issue per session.
    pub commands: u32,
    /// Per-delivered-byte bit-flip probability.
    pub bit_flip: f64,
    /// Per-byte drop probability.
    pub drop: f64,
    /// Per-byte duplication probability.
    pub duplicate: f64,
    /// Probability of collapsing the capacitor mid-exchange.
    pub brownout_rate: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            commands: 6,
            bit_flip: 0.003,
            drop: 0.002,
            duplicate: 0.002,
            brownout_rate: 0.2,
        }
    }
}

/// What happened across one fuzzed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Commands that completed on the first attempt.
    pub completed: u32,
    /// Commands that completed after one or more retries.
    pub retried: u32,
    /// Commands that aborted with a typed error.
    pub aborted: u32,
    /// Brown-outs injected mid-exchange.
    pub injected_brownouts: u32,
    /// FNV-1a digest of the outcome stream (order-sensitive).
    pub digest: u64,
}

/// Combines per-trial digests (in trial order) into a run digest.
pub fn combine_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = Fnv::new();
    for d in digests {
        acc.write(&d.to_le_bytes());
    }
    acc.finish()
}

/// The target firmware: refill the FRAM window, then fail an assertion
/// so EDB tethers the target and serves the interactive session. After
/// any reboot the same thing happens again, which is what re-opens the
/// session while a parked command waits.
fn session_app() -> Result<edb_mcu::Image, Divergence> {
    let src = edb_core::libedb::wrap_program(
        r#"
        .org 0x4400
    main:
        movi sp, 0x2400
        movi r1, 0x6000
        movi r0, 0x1101
        movi r3, 32
    fill:
        st   [r1], r0
        add  r1, 2
        add  r0, 0x0101
        sub  r3, 1
        cmpi r3, 0
        jnz  fill
    again:
        movi r0, 1
        call __edb_assert_fail
        jmp  again
        .org 0xFFFE
        .word main
        "#,
    );
    edb_mcu::asm::assemble(&src)
        .map_err(|e| Divergence::new("session", format!("firmware does not assemble: {e}")))
}

/// One command the fuzzer can issue.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read { addr: u16 },
    Write { addr: u16, value: u16 },
    GetPc,
}

/// Draws a command over the FRAM window.
fn draw_op(rng: &mut SmallRng) -> Op {
    let addr = WINDOW_BASE + 2 * rng.gen_range(0..WINDOW_WORDS);
    match rng.gen_range(0u32..9) {
        0..=3 => Op::Read { addr },
        4..=7 => Op::Write {
            addr,
            value: rng.gen(),
        },
        _ => Op::GetPc,
    }
}

/// Runs one fuzzed session. Returns the stats on a clean trial and a
/// [`Divergence`] when any invariant breaks (wrong value, stuck
/// command, session that never opens).
pub fn run_session_case(seed: u64, cfg: &SessionConfig) -> Result<SessionStats, Divergence> {
    let image = session_app()?;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E55_10F2);
    // A stiff-ish source so the target can reboot and re-assert within
    // the host's parked-command window at least some of the time; the
    // resistance is varied so both the re-arm path and the park-expiry
    // path get exercised.
    let r_th = [220.0, 470.0, 1000.0][rng.gen_range(0..3usize)];
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(TheveninSource::new(3.2, r_th))
        .seed(seed)
        .channel_fault(ChannelFaultConfig {
            bit_flip: cfg.bit_flip,
            drop: cfg.drop,
            duplicate: cfg.duplicate,
            seed: seed ^ 0x0F15_E5EE,
        })
        .build();
    sys.flash(&image);
    if !sys.wait_for_session(SimTime::from_secs(2)) {
        return Err(Divergence::new("session", "assert session never opened"));
    }

    let mut stats = SessionStats::default();
    let mut digest = Fnv::new();
    for cmd_ix in 0..cfg.commands {
        // A brown-out (injected or otherwise) tears the session down;
        // the target reboots, refills the window, and re-asserts.
        if !sys.edb().is_some_and(|e| e.session_active())
            && !sys.wait_for_session(SimTime::from_secs(2))
        {
            return Err(Divergence::new(
                "session",
                format!("cmd {cmd_ix}: session did not re-open after brown-out"),
            ));
        }
        let op = draw_op(&mut rng);
        let inject_at = rng
            .gen_bool(cfg.brownout_rate)
            .then(|| rng.gen_range(1u32..40));
        let request = match op {
            Op::Read { addr } => DebugRequest::ReadWord { addr },
            Op::Write { addr, value } => DebugRequest::WriteWord { addr, value },
            Op::GetPc => DebugRequest::GetPc,
        };
        let now = sys.now();
        let id = {
            let (edb, dev) = sys.edb_and_device().expect("EDB attached");
            edb.submit(dev, request, now)
        };

        let deadline = sys.now() + SimTime::from_ms(500);
        let mut steps = 0u32;
        let outcome = loop {
            match sys.edb_mut().poll(id) {
                SessionPoll::Ready(outcome) => break outcome,
                SessionPoll::Superseded => {
                    return Err(Divergence::new(
                        "session",
                        format!("cmd {cmd_ix} ({op:?}): request superseded with one submitter"),
                    ));
                }
                SessionPoll::Pending { .. } => {}
            }
            if sys.now() >= deadline {
                let attempts = sys.edb_mut().cancel_command();
                return Err(Divergence::new(
                    "session",
                    format!("cmd {cmd_ix} ({op:?}): stuck after {attempts} attempt(s)"),
                ));
            }
            if Some(steps) == inject_at {
                sys.device_mut().set_v_cap(1.0);
                stats.injected_brownouts += 1;
            }
            sys.step();
            steps += 1;
        };

        match outcome {
            Ok(response) => {
                let word = response.word();
                match op {
                    Op::Read { addr } => {
                        let truth = sys.device().mem().peek_word(addr);
                        if word != truth {
                            return Err(Divergence::new(
                                "session",
                                format!(
                                    "cmd {cmd_ix}: read {addr:#06x} returned {word:#06x}, \
                                     memory holds {truth:#06x}"
                                ),
                            ));
                        }
                    }
                    Op::Write { addr, value } => {
                        let landed = sys.device().mem().peek_word(addr);
                        if landed != value {
                            return Err(Divergence::new(
                                "session",
                                format!(
                                    "cmd {cmd_ix}: acknowledged write {addr:#06x} <- \
                                     {value:#06x} but memory holds {landed:#06x}"
                                ),
                            ));
                        }
                    }
                    Op::GetPc => {}
                }
                match sys.edb().and_then(|e| e.last_outcome()) {
                    Some(SessionOutcome::Retried { retries }) => {
                        stats.retried += 1;
                        digest.write(&[2, *retries as u8]);
                    }
                    _ => {
                        stats.completed += 1;
                        digest.write(&[1]);
                    }
                }
                digest.write(&word.to_le_bytes());
            }
            Err(error) => {
                // Any typed error is a clean abort; encode its shape.
                let code = match &error {
                    EdbError::CommandTimeout { .. } => 3u8,
                    EdbError::AbortedByBrownout { .. } => 4,
                    EdbError::CorruptReply { .. } => 5,
                    _ => 6,
                };
                stats.aborted += 1;
                digest.write(&[code]);
            }
        }
    }
    stats.digest = digest.finish();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_channel_session_completes_every_command() {
        let cfg = SessionConfig {
            commands: 4,
            bit_flip: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            brownout_rate: 0.0,
        };
        let stats = run_session_case(11, &cfg).expect("clean trial");
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.aborted, 0);
    }

    #[test]
    fn noisy_trials_are_deterministic_per_seed() {
        let cfg = SessionConfig::default();
        let a = run_session_case(23, &cfg).expect("trial");
        let b = run_session_case(23, &cfg).expect("trial");
        assert_eq!(a, b);
        assert_eq!(a.completed + a.retried + a.aborted, cfg.commands);
    }

    #[test]
    fn injected_brownouts_abort_or_recover_cleanly() {
        let cfg = SessionConfig {
            commands: 5,
            bit_flip: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            brownout_rate: 1.0,
        };
        let stats = run_session_case(7, &cfg).expect("trial");
        assert!(stats.injected_brownouts > 0);
        assert_eq!(stats.completed + stats.retried + stats.aborted, 5);
    }
}
