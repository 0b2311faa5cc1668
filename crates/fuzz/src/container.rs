//! Recording-container fuzzing: hostile `.edbr` byte streams.
//!
//! `Recording::from_bytes` parses bytes a client names (`fleet_verify`
//! reads any file path), so every byte string must either parse to a
//! recording or fail with a typed [`edb_replay::FormatError`] — never a
//! panic, and never a stack overflow that aborts the process.
//!
//! Each trial takes one of two recorded base tapes (an interactive
//! session with full-state snapshots, and a digest-only fleet tape) and
//! applies a short seeded list of [`Mutation`]s: bit flips, splices from
//! the other tape, inflated length fields and deep nesting. Most
//! mutations re-seal the chunk digests they break, so the damage reaches
//! the payload decoder instead of stopping at the first FNV check. The
//! oracle:
//!
//! * parsing never panics;
//! * a tape that parses re-encodes to bytes that parse back to the same
//!   bytes (the container's canonical form is a fixed point).
//!
//! A failing mutation list is ddmin-shrunk ([`crate::shrink::ddmin`]).

use crate::diff::Divergence;
use edb_core::replay::{FleetOp, FleetSpec, FleetTape};
use edb_core::{DebugRequest, FleetConfig, SessionSpec};
use edb_energy::SimTime;
use edb_replay::{Fnv, Recording, MAX_DEPTH};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Bytes before the first chunk: magic, version, flags.
const HEADER_LEN: usize = 8;
/// Chunk framing around the payload: tag, length, digest.
const FRAME_LEN: usize = 1 + 4 + 8;

/// One edit to a recording byte stream. Positions are taken modulo the
/// current stream (or chunk table) length, so any sub-list of a trial's
/// mutations still applies — which is what lets ddmin drop entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flips one bit anywhere in the stream.
    FlipBit {
        /// Byte position.
        at: u64,
        /// Bit index, `0..8`.
        bit: u8,
        /// Re-seal chunk digests afterwards.
        reseal: bool,
    },
    /// Overwrites a run of bytes with bytes from the other base tape.
    Splice {
        /// Destination position.
        at: u64,
        /// Source position in the donor tape.
        from: u64,
        /// Run length.
        len: u16,
        /// Re-seal chunk digests afterwards.
        reseal: bool,
    },
    /// Overwrites a chunk's length, or a string/sequence/map length
    /// inside its payload, with `value`; the chunk is then re-sealed.
    InflateLength {
        /// Chunk index.
        chunk: u16,
        /// Which length field of that chunk (0 is the chunk's own).
        field: u16,
        /// The new length.
        value: u32,
    },
    /// Replaces a chunk's payload value with one-element sequences
    /// nested `depth` deep, in a correctly sealed chunk.
    Nest {
        /// Chunk index.
        chunk: u16,
        /// Nesting depth.
        depth: u32,
    },
}

/// The two base tapes, recorded once per process: `[session, fleet]`.
pub fn base_tapes() -> &'static [Vec<u8>; 2] {
    static TAPES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    TAPES.get_or_init(|| [session_tape(), fleet_tape()])
}

/// An interactive assert session with a snapshot every two operations.
fn session_tape() -> Vec<u8> {
    const APP: &str = r#"
        .org 0x4400
    main:
        movi sp, 0x2400
        movi r1, 0x6000
        movi r0, 0x1101
        st   [r1], r0
    again:
        movi r0, 1
        call __edb_assert_fail
        jmp  again
        .org 0xFFFE
        .word main
        "#;
    let spec = SessionSpec::bench(APP);
    let mut s = spec.record(2).expect("bench session builds");
    let _ = s.run_until_session(SimTime::from_secs(2));
    let _ = s.perform(DebugRequest::ReadWord { addr: 0x6000 });
    let _ = s.perform(DebugRequest::WriteWord {
        addr: 0x6002,
        value: 0xBEEF,
    });
    s.advance(SimTime::from_ms(2));
    s.stop_recording().expect("was recording").to_bytes()
}

/// A small fleet run: digest boundaries only, spec-rebuilt.
fn fleet_tape() -> Vec<u8> {
    let spec = FleetSpec {
        config: FleetConfig::standard(8),
        seed: 3,
    };
    let mut sim = spec.build();
    let mut tape = FleetTape::new(spec, &sim);
    tape.run(&mut sim, FleetOp::RunSlots(20));
    tape.run(&mut sim, FleetOp::RunMs(5));
    tape.export(&sim).to_bytes()
}

/// Draws one trial's base-tape index and mutation list from `seed`.
pub fn generate(seed: u64) -> (usize, Vec<Mutation>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let base = rng.gen_range(0..2usize);
    let n = rng.gen_range(1..5usize);
    let muts = (0..n)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => Mutation::FlipBit {
                at: rng.gen(),
                bit: rng.gen_range(0..8u8),
                reseal: rng.gen_bool(0.8),
            },
            1 => Mutation::Splice {
                at: rng.gen(),
                from: rng.gen(),
                len: rng.gen_range(1..512u16),
                reseal: rng.gen_bool(0.8),
            },
            2 => Mutation::InflateLength {
                chunk: rng.gen(),
                field: rng.gen(),
                value: match rng.gen_range(0..3u32) {
                    0 => u32::MAX,
                    1 => rng.gen_range(1..1 << 24),
                    _ => rng.gen_range(0..64),
                },
            },
            _ => Mutation::Nest {
                chunk: rng.gen(),
                depth: match rng.gen_range(0..4u32) {
                    0 => MAX_DEPTH as u32,
                    1 => MAX_DEPTH as u32 + 1,
                    2 => rng.gen_range(1..4_000),
                    _ => 200_000,
                },
            },
        })
        .collect();
    (base, muts)
}

/// `(start, payload_len)` of every chunk whose framing lies in bounds.
fn chunk_table(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut table = Vec::new();
    let mut pos = HEADER_LEN;
    while let Some(len) = bytes.get(pos + 1..pos + 5) {
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        if pos + FRAME_LEN + len > bytes.len() {
            break;
        }
        table.push((pos, len));
        pos += FRAME_LEN + len;
    }
    table
}

/// Recomputes the digest of every in-bounds chunk.
fn reseal(bytes: &mut [u8]) {
    for (start, len) in chunk_table(bytes) {
        let end = start + 5 + len;
        let mut h = Fnv::new();
        h.write(&bytes[start..end]);
        bytes[end..end + 8].copy_from_slice(&h.finish().to_le_bytes());
    }
}

/// Fixed-width words leading each chunk kind's payload.
fn leading_words(tag: u8) -> usize {
    match tag {
        1 => 0,
        3 | 4 => 1,
        _ => 2,
    }
}

/// Collects the offsets of the string/sequence/map length fields in the
/// canonical value encoding at `*pos`, down to [`MAX_DEPTH`] levels.
/// Stops quietly at malformed or deeper input.
fn length_fields(bytes: &[u8], pos: &mut usize, out: &mut Vec<usize>, depth: usize) -> Option<()> {
    if depth > MAX_DEPTH {
        return None;
    }
    let tag = *bytes.get(*pos)?;
    *pos += 1;
    match tag {
        0..=2 => {}
        3..=5 => *pos += 8,
        6..=8 => {
            let n = u32::from_le_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
            out.push(*pos);
            *pos += 4;
            if tag == 6 {
                *pos += n;
            } else {
                for _ in 0..n * usize::from(tag - 6) {
                    length_fields(bytes, pos, out, depth + 1)?;
                }
            }
        }
        _ => return None,
    }
    Some(())
}

/// Applies `muts` in order to a copy of `base`.
pub fn apply(base: &[u8], donor: &[u8], muts: &[Mutation]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for m in muts {
        match *m {
            Mutation::FlipBit { at, bit, reseal: r } => {
                if bytes.is_empty() {
                    continue;
                }
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << bit;
                if r {
                    reseal(&mut bytes);
                }
            }
            Mutation::Splice {
                at,
                from,
                len,
                reseal: r,
            } => {
                if bytes.is_empty() || donor.is_empty() {
                    continue;
                }
                let at = (at % bytes.len() as u64) as usize;
                let from = (from % donor.len() as u64) as usize;
                let run = &donor[from..(from + usize::from(len)).min(donor.len())];
                let end = (at + run.len()).min(bytes.len());
                bytes.splice(at..end, run.iter().copied());
                if r {
                    reseal(&mut bytes);
                }
            }
            Mutation::InflateLength {
                chunk,
                field,
                value,
            } => {
                let table = chunk_table(&bytes);
                if table.is_empty() {
                    continue;
                }
                let (start, len) = table[usize::from(chunk) % table.len()];
                let payload = start + 5;
                let mut fields = vec![start + 1];
                let mut pos = payload + 8 * leading_words(bytes[start]);
                let _ = length_fields(&bytes[..payload + len], &mut pos, &mut fields, 0);
                let at = fields[usize::from(field) % fields.len()];
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
                reseal(&mut bytes);
            }
            Mutation::Nest { chunk, depth } => {
                let table = chunk_table(&bytes);
                if table.is_empty() {
                    continue;
                }
                let (start, len) = table[usize::from(chunk) % table.len()];
                let tag = bytes[start];
                let words = (8 * leading_words(tag)).min(len);
                let mut payload = bytes[start + 5..start + 5 + words].to_vec();
                payload.extend([7u8, 1, 0, 0, 0].repeat(depth as usize));
                payload.push(0);
                let mut chunk = vec![tag];
                chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                chunk.extend_from_slice(&payload);
                let mut h = Fnv::new();
                h.write(&chunk);
                chunk.extend_from_slice(&h.finish().to_le_bytes());
                bytes.splice(start..start + FRAME_LEN + len, chunk);
            }
        }
    }
    bytes
}

/// What one hostile tape did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Parsed to a recording whose encoding is a fixed point; carries
    /// the FNV-1a of that encoding.
    Parsed(u64),
    /// Rejected with a typed error at this byte offset.
    Rejected(usize),
}

/// Parses `bytes` under the oracle.
pub fn check_tape(bytes: &[u8]) -> Result<Verdict, Divergence> {
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        Recording::from_bytes(bytes).map(|rec| rec.to_bytes())
    }))
    .map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        Divergence::new("container", format!("from_bytes panicked: {msg}"))
    })?;
    match parsed {
        Err(e) => Ok(Verdict::Rejected(e.offset)),
        Ok(canonical) => match Recording::from_bytes(&canonical) {
            Ok(again) if again.to_bytes() == canonical => {
                Ok(Verdict::Parsed(edb_replay::fnv1a(&canonical)))
            }
            Ok(_) => Err(Divergence::new(
                "container",
                "an accepted tape does not re-encode to a fixed point",
            )),
            Err(e) => Err(Divergence::new(
                "container",
                format!("an accepted tape's re-encoding does not parse: {e}"),
            )),
        },
    }
}

/// A failing container trial.
#[derive(Debug, Clone)]
pub struct ContainerFailure {
    /// The trial seed.
    pub seed: u64,
    /// Which base tape (0 session, 1 fleet).
    pub base: usize,
    /// The trial's full mutation list.
    pub mutations: Vec<Mutation>,
    /// What went wrong.
    pub divergence: Divergence,
}

/// Runs one trial: generate, mutate, check.
pub fn run_container_case(seed: u64) -> Result<Verdict, ContainerFailure> {
    let (base, mutations) = generate(seed);
    check_mutations(base, &mutations).map_err(|divergence| ContainerFailure {
        seed,
        base,
        mutations,
        divergence,
    })
}

/// Applies `mutations` to base tape `base` and checks the result.
pub fn check_mutations(base: usize, mutations: &[Mutation]) -> Result<Verdict, Divergence> {
    let tapes = base_tapes();
    check_tape(&apply(&tapes[base], &tapes[1 - base], mutations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_tapes_parse_and_are_fixed_points() {
        for tape in base_tapes() {
            assert!(matches!(check_tape(tape), Ok(Verdict::Parsed(_))));
        }
    }

    #[test]
    fn deep_nesting_in_a_sealed_chunk_is_a_typed_error() {
        for depth in [MAX_DEPTH as u32 + 1, 20_000] {
            for chunk in 0..4 {
                let muts = [Mutation::Nest { chunk, depth }];
                assert!(
                    matches!(check_mutations(0, &muts), Ok(Verdict::Rejected(_))),
                    "chunk {chunk}, depth {depth}"
                );
            }
        }
    }

    #[test]
    fn inflated_lengths_are_typed_errors() {
        for field in 0..6 {
            let muts = [Mutation::InflateLength {
                chunk: 0,
                field,
                value: u32::MAX,
            }];
            assert!(
                matches!(check_mutations(0, &muts), Ok(Verdict::Rejected(_))),
                "field {field}"
            );
        }
    }

    #[test]
    fn unsealed_flips_never_parse_and_trials_are_deterministic() {
        let muts = [Mutation::FlipBit {
            at: 1_000,
            bit: 3,
            reseal: false,
        }];
        assert!(matches!(
            check_mutations(1, &muts),
            Ok(Verdict::Rejected(_))
        ));
        for seed in 0..40 {
            let a = run_container_case(seed).map_err(|f| f.divergence.to_string());
            let b = run_container_case(seed).map_err(|f| f.divergence.to_string());
            assert_eq!(a, b, "seed {seed}");
            assert!(a.is_ok(), "seed {seed}: {a:?}");
        }
    }
}
