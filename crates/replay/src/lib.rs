//! The recording container for deterministic record/replay.
//!
//! A recording captures one simulated debugging run as a byte-stable
//! artifact: the session's rebuildable *spec*, the sequence of typed
//! session operations (the run's only inputs — everything below the
//! session API is a pure function of the seed), periodic full-state
//! *snapshots*, and per-boundary state *digests*. Replay reconstructs
//! any instant by restoring the nearest snapshot and re-executing
//! forward; divergence checking re-executes the whole tape and asserts
//! bit-identity against every recorded snapshot and digest.
//!
//! This crate owns only the format: a canonical binary encoding of the
//! workspace's [`serde::Value`] tree (floats encoded as their IEEE-754
//! bit patterns, so identity means *bit* identity, not `==`), and a
//! chunked container with an FNV-1a digest per chunk. The semantic
//! layers — what a snapshot contains, how an operation re-executes —
//! live in `edb-core`'s `replay` module and in `edb-bench`.
//!
//! # Container layout
//!
//! ```text
//! "EDBR" | version u16 LE | flags u16 LE | chunk*
//! chunk := tag u8 | payload_len u32 LE | payload | fnv u64 LE
//! ```
//!
//! The trailing FNV-1a digest covers the tag, the length bytes, and the
//! payload, so a flipped bit anywhere in a chunk is caught before its
//! payload is interpreted. Unknown chunk tags are an error: a recording
//! is a precision artifact, not a best-effort log.

use serde::Value;
use std::fmt;
use std::path::Path;

/// Container magic: the first four bytes of every recording.
pub const MAGIC: [u8; 4] = *b"EDBR";

/// Current container version.
pub const VERSION: u16 = 1;

const TAG_SPEC: u8 = 1;
const TAG_META: u8 = 2;
const TAG_OP: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_DIGEST: u8 = 5;
const TAG_END: u8 = 6;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME^8`: folding eight zero bytes is one multiply by it.
const FNV_PRIME_POW8: u64 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

/// Streaming FNV-1a: the one hash of the workspace. It digests recording
/// chunks and state encodings, checkpoint commit records, fuzz outcome
/// streams and trial-seed derivation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds `tag` followed by the eight little-endian bytes of `x`.
    fn write_tagged_u64(&mut self, tag: u8, x: u64) {
        self.write(&[tag]);
        self.write(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Deepest `Seq`/`Map` nesting [`decode_value`] accepts. The decoder
/// recurses once per level, so a hostile recording of nested one-element
/// sequences could otherwise exhaust the thread's stack and abort the
/// process. Every tree the workspace records is far shallower.
pub const MAX_DEPTH: usize = 128;

/// A malformed or corrupt recording, with the byte offset of the fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// Byte offset at which the fault was detected.
    pub offset: usize,
    /// What was wrong.
    pub detail: String,
}

impl FormatError {
    fn new(offset: usize, detail: impl Into<String>) -> Self {
        FormatError {
            offset,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recording byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for FormatError {}

// ---------------------------------------------------------------------
// Canonical Value encoding
// ---------------------------------------------------------------------

const VAL_NULL: u8 = 0x00;
const VAL_FALSE: u8 = 0x01;
const VAL_TRUE: u8 = 0x02;
const VAL_U64: u8 = 0x03;
const VAL_I64: u8 = 0x04;
const VAL_F64: u8 = 0x05;
const VAL_STR: u8 = 0x06;
const VAL_SEQ: u8 = 0x07;
const VAL_MAP: u8 = 0x08;

/// Appends the canonical binary encoding of `v` to `out`.
///
/// The encoding is injective over `Value` trees and encodes floats as
/// their `to_bits` pattern, so two states encode identically iff they
/// are bit-identical — `-0.0` vs `0.0` and differing NaN payloads are
/// divergences here even though `==` would blur them.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(false) => out.push(VAL_FALSE),
        Value::Bool(true) => out.push(VAL_TRUE),
        Value::U64(x) => {
            out.push(VAL_U64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            out.push(VAL_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(VAL_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(VAL_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(pairs) => {
            out.push(VAL_MAP);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (k, val) in pairs {
                encode_value(k, out);
                encode_value(val, out);
            }
        }
        // Exactly the bytes of the `Seq` of `U64`s it stands for.
        Value::Bytes(bytes) => {
            out.push(VAL_SEQ);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.reserve(9 * bytes.len());
            for &b in bytes {
                out.extend_from_slice(&[VAL_U64, b, 0, 0, 0, 0, 0, 0, 0]);
            }
        }
    }
}

/// The length of the canonical encoding of `v`, without encoding it.
fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::U64(_) | Value::I64(_) | Value::F64(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Seq(items) => 5 + items.iter().map(encoded_len).sum::<usize>(),
        Value::Map(pairs) => {
            5 + pairs
                .iter()
                .map(|(k, val)| encoded_len(k) + encoded_len(val))
                .sum::<usize>()
        }
        Value::Bytes(bytes) => 5 + 9 * bytes.len(),
    }
}

/// The canonical encoding of `v` as an owned buffer.
pub fn value_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(v));
    encode_value(v, &mut out);
    out
}

/// FNV-1a digest of the canonical encoding of `v` — the "state digest"
/// used at snapshot boundaries. Always equal to
/// `fnv1a(&value_bytes(v))`, but computed by walking the tree, with no
/// encode buffer.
pub fn value_digest(v: &Value) -> u64 {
    let mut h = Fnv::new();
    digest_value(v, &mut h);
    h.finish()
}

/// Folds the canonical encoding of `v` into `h` without building it.
fn digest_value(v: &Value, h: &mut Fnv) {
    match v {
        Value::Null => h.write(&[VAL_NULL]),
        Value::Bool(false) => h.write(&[VAL_FALSE]),
        Value::Bool(true) => h.write(&[VAL_TRUE]),
        Value::U64(x) => h.write_tagged_u64(VAL_U64, *x),
        Value::I64(x) => h.write_tagged_u64(VAL_I64, *x as u64),
        Value::F64(x) => h.write_tagged_u64(VAL_F64, x.to_bits()),
        Value::Str(s) => {
            h.write(&[VAL_STR]);
            h.write(&(s.len() as u32).to_le_bytes());
            h.write(s.as_bytes());
        }
        Value::Seq(items) => {
            h.write(&[VAL_SEQ]);
            h.write(&(items.len() as u32).to_le_bytes());
            for item in items {
                digest_value(item, h);
            }
        }
        Value::Map(pairs) => {
            h.write(&[VAL_MAP]);
            h.write(&(pairs.len() as u32).to_le_bytes());
            for (k, val) in pairs {
                digest_value(k, h);
                digest_value(val, h);
            }
        }
        Value::Bytes(bytes) => {
            h.write(&[VAL_SEQ]);
            h.write(&(bytes.len() as u32).to_le_bytes());
            // Each element encodes as `VAL_U64, b, 0 × 7`: two FNV rounds,
            // then seven zero bytes, which only multiply by the prime.
            let mut x = h.0;
            for &b in bytes {
                x = (x ^ u64::from(VAL_U64)).wrapping_mul(FNV_PRIME);
                x = (x ^ u64::from(b)).wrapping_mul(FNV_PRIME_POW8);
            }
            h.0 = x;
        }
    }
}

/// Decodes one canonical `Value` starting at `*pos`, advancing `*pos`.
/// Nesting deeper than [`MAX_DEPTH`] is a [`FormatError`].
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, FormatError> {
    decode_nested(bytes, pos, 0)
}

fn decode_nested(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, FormatError> {
    let at = *pos;
    let tag = *bytes
        .get(at)
        .ok_or_else(|| FormatError::new(at, "truncated value"))?;
    *pos += 1;
    match tag {
        VAL_NULL => Ok(Value::Null),
        VAL_FALSE => Ok(Value::Bool(false)),
        VAL_TRUE => Ok(Value::Bool(true)),
        VAL_U64 => Ok(Value::U64(take_u64(bytes, pos)?)),
        VAL_I64 => Ok(Value::I64(take_u64(bytes, pos)? as i64)),
        VAL_F64 => Ok(Value::F64(f64::from_bits(take_u64(bytes, pos)?))),
        VAL_STR => {
            let len = take_u32(bytes, pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| FormatError::new(*pos, "truncated string"))?;
            let s = std::str::from_utf8(&bytes[*pos..end])
                .map_err(|_| FormatError::new(*pos, "invalid UTF-8 in string"))?
                .to_string();
            *pos = end;
            Ok(Value::Str(s))
        }
        VAL_SEQ | VAL_MAP if depth == MAX_DEPTH => Err(FormatError::new(
            at,
            format!("value nesting deeper than {MAX_DEPTH}"),
        )),
        VAL_SEQ => {
            let n = take_u32(bytes, pos)? as usize;
            let mut items = Vec::new();
            for _ in 0..n {
                items.push(decode_nested(bytes, pos, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        VAL_MAP => {
            let n = take_u32(bytes, pos)? as usize;
            let mut pairs = Vec::new();
            for _ in 0..n {
                let k = decode_nested(bytes, pos, depth + 1)?;
                let v = decode_nested(bytes, pos, depth + 1)?;
                pairs.push((k, v));
            }
            Ok(Value::Map(pairs))
        }
        other => Err(FormatError::new(
            at,
            format!("unknown value tag {other:#x}"),
        )),
    }
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, FormatError> {
    let end = *pos + 4;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| FormatError::new(*pos, "truncated u32"))?;
    *pos = end;
    Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, FormatError> {
    let end = *pos + 8;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| FormatError::new(*pos, "truncated u64"))?;
    *pos = end;
    Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

// ---------------------------------------------------------------------
// Chunked container
// ---------------------------------------------------------------------

/// One chunk of a recording.
#[derive(Debug, Clone, PartialEq)]
pub enum Chunk {
    /// The rebuildable session spec (present when the recorder knew how
    /// the session was constructed, so a fresh process can replay).
    Spec {
        /// The spec as a serialized tree; its meaning belongs to the
        /// layer that recorded it.
        value: Value,
    },
    /// Recording parameters.
    Meta {
        /// Snapshot stride: the recorder's boundary cadence. The unit is
        /// the recorder's to choose; `edb-core`'s replay layer strides by
        /// recorded *operations* between full snapshots.
        stride: u64,
        /// Sim time at which recording started.
        start_ns: u64,
    },
    /// One recorded session operation.
    Op {
        /// Sim time immediately before the operation ran.
        now_ns: u64,
        /// The serialized operation.
        value: Value,
    },
    /// A full-state snapshot at an operation boundary.
    Snapshot {
        /// Sim time of the snapshot.
        now_ns: u64,
        /// The serialized full state.
        state: Value,
    },
    /// A state digest at an operation boundary (worlds that cannot
    /// serialize in full still digest).
    Digest {
        /// Sim time of the digest.
        now_ns: u64,
        /// FNV-1a over the canonical state encoding.
        digest: u64,
    },
    /// End of recording, with the final state digest.
    End {
        /// Sim time when recording stopped.
        now_ns: u64,
        /// Final state digest.
        digest: u64,
    },
}

impl Chunk {
    /// Appends this chunk, framed and digested, to `out`.
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Chunk::Spec { value } => push_chunk(out, TAG_SPEC, &[], Some(value)),
            Chunk::Meta { stride, start_ns } => {
                push_chunk(out, TAG_META, &[*stride, *start_ns], None);
            }
            Chunk::Op { now_ns, value } => push_chunk(out, TAG_OP, &[*now_ns], Some(value)),
            Chunk::Snapshot { now_ns, state } => {
                push_chunk(out, TAG_SNAPSHOT, &[*now_ns], Some(state));
            }
            Chunk::Digest { now_ns, digest } => {
                push_chunk(out, TAG_DIGEST, &[*now_ns, *digest], None);
            }
            Chunk::End { now_ns, digest } => push_chunk(out, TAG_END, &[*now_ns, *digest], None),
        }
    }

    fn decode(tag: u8, payload: &[u8], base: usize) -> Result<Chunk, FormatError> {
        let mut pos = 0usize;
        let chunk = match tag {
            TAG_SPEC => Chunk::Spec {
                value: decode_value(payload, &mut pos)?,
            },
            TAG_META => Chunk::Meta {
                stride: take_u64(payload, &mut pos)?,
                start_ns: take_u64(payload, &mut pos)?,
            },
            TAG_OP => Chunk::Op {
                now_ns: take_u64(payload, &mut pos)?,
                value: decode_value(payload, &mut pos)?,
            },
            TAG_SNAPSHOT => Chunk::Snapshot {
                now_ns: take_u64(payload, &mut pos)?,
                state: decode_value(payload, &mut pos)?,
            },
            TAG_DIGEST => Chunk::Digest {
                now_ns: take_u64(payload, &mut pos)?,
                digest: take_u64(payload, &mut pos)?,
            },
            TAG_END => Chunk::End {
                now_ns: take_u64(payload, &mut pos)?,
                digest: take_u64(payload, &mut pos)?,
            },
            other => {
                return Err(FormatError::new(base, format!("unknown chunk tag {other}")));
            }
        };
        if pos != payload.len() {
            return Err(FormatError::new(
                base + pos,
                format!(
                    "chunk tag {tag}: {} trailing payload bytes",
                    payload.len() - pos
                ),
            ));
        }
        Ok(chunk)
    }
}

/// Appends one chunk whose payload is `words` (little-endian) followed
/// by the canonical encoding of `value`. The payload is encoded straight
/// into `out`, and its digest is folded from the same fields (see
/// [`value_digest`]) rather than re-read from the encoded bytes.
fn push_chunk(out: &mut Vec<u8>, tag: u8, words: &[u64], value: Option<&Value>) {
    let len = 8 * words.len() + value.map_or(0, encoded_len);
    let len = (len as u32).to_le_bytes();
    let mut h = Fnv::new();
    h.write(&[tag]);
    h.write(&len);
    out.push(tag);
    out.extend_from_slice(&len);
    for word in words {
        let word = word.to_le_bytes();
        h.write(&word);
        out.extend_from_slice(&word);
    }
    if let Some(value) = value {
        digest_value(value, &mut h);
        encode_value(value, out);
    }
    out.extend_from_slice(&h.finish().to_le_bytes());
}

/// A container header with no chunks yet.
fn header() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out
}

/// Serializes `chunks` into a complete recording byte stream.
pub fn write_chunks(chunks: &[Chunk]) -> Vec<u8> {
    let mut out = header();
    for chunk in chunks {
        chunk.write(&mut out);
    }
    out
}

/// Parses a recording byte stream, verifying every chunk digest.
pub fn read_chunks(bytes: &[u8]) -> Result<Vec<Chunk>, FormatError> {
    if bytes.get(..4) != Some(&MAGIC[..]) {
        return Err(FormatError::new(0, "bad magic (not an EDBR recording)"));
    }
    let mut pos = 4usize;
    let version = u16::from_le_bytes(
        bytes
            .get(pos..pos + 2)
            .ok_or_else(|| FormatError::new(pos, "truncated header"))?
            .try_into()
            .expect("2 bytes"),
    );
    if version != VERSION {
        return Err(FormatError::new(
            pos,
            format!("unsupported version {version} (expected {VERSION})"),
        ));
    }
    pos += 2;
    let flags = u16::from_le_bytes(
        bytes
            .get(pos..pos + 2)
            .ok_or_else(|| FormatError::new(pos, "truncated header"))?
            .try_into()
            .expect("2 bytes"),
    );
    if flags != 0 {
        return Err(FormatError::new(
            pos,
            format!("unsupported flags {flags:#06x}"),
        ));
    }
    pos += 2;
    let mut chunks = Vec::new();
    while pos < bytes.len() {
        let base = pos;
        let tag = bytes[pos];
        pos += 1;
        let len = take_u32(bytes, &mut pos)? as usize;
        let payload = bytes
            .get(pos..pos + len)
            .ok_or_else(|| FormatError::new(pos, "truncated chunk payload"))?;
        pos += len;
        let stored = take_u64(bytes, &mut pos)?;
        let mut h = Fnv::new();
        h.write(&[tag]);
        h.write(&(len as u32).to_le_bytes());
        h.write(payload);
        if h.finish() != stored {
            return Err(FormatError::new(
                base,
                format!("chunk tag {tag}: digest mismatch (corrupt chunk)"),
            ));
        }
        chunks.push(Chunk::decode(tag, payload, base)?);
    }
    Ok(chunks)
}

// ---------------------------------------------------------------------
// Recording: the convenience view over the chunk stream
// ---------------------------------------------------------------------

/// A recording's body entry: the chunk kinds that appear in tape order.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A recorded operation.
    Op {
        /// Sim time immediately before the operation.
        now_ns: u64,
        /// The serialized operation.
        value: Value,
    },
    /// A full-state snapshot.
    Snapshot {
        /// Sim time of the snapshot.
        now_ns: u64,
        /// The serialized state.
        state: Value,
    },
    /// A digest-only boundary.
    Digest {
        /// Sim time of the digest.
        now_ns: u64,
        /// The state digest.
        digest: u64,
    },
}

/// A parsed recording: header fields plus the ordered tape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// The rebuildable session spec, when recorded.
    pub spec: Option<Value>,
    /// Snapshot stride: recorded operations between full snapshots (see
    /// [`Chunk::Meta`]).
    pub stride: u64,
    /// Sim time at which recording started.
    pub start_ns: u64,
    /// Ops, snapshots, and digests in tape order.
    pub entries: Vec<Entry>,
    /// Final `(now_ns, digest)` pair, once the recording is finished.
    pub end: Option<(u64, u64)>,
}

impl Recording {
    /// Serializes to the container byte stream, encoding straight from
    /// the borrowed entries.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = header();
        if let Some(spec) = &self.spec {
            push_chunk(&mut out, TAG_SPEC, &[], Some(spec));
        }
        push_chunk(&mut out, TAG_META, &[self.stride, self.start_ns], None);
        for entry in &self.entries {
            match entry {
                Entry::Op { now_ns, value } => {
                    push_chunk(&mut out, TAG_OP, &[*now_ns], Some(value))
                }
                Entry::Snapshot { now_ns, state } => {
                    push_chunk(&mut out, TAG_SNAPSHOT, &[*now_ns], Some(state));
                }
                Entry::Digest { now_ns, digest } => {
                    push_chunk(&mut out, TAG_DIGEST, &[*now_ns, *digest], None);
                }
            }
        }
        if let Some((now_ns, digest)) = self.end {
            push_chunk(&mut out, TAG_END, &[now_ns, digest], None);
        }
        out
    }

    /// Parses a recording from the container byte stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, FormatError> {
        let mut rec = Recording::default();
        let mut saw_meta = false;
        for chunk in read_chunks(bytes)? {
            if rec.end.is_some() {
                return Err(FormatError::new(bytes.len(), "chunk after End chunk"));
            }
            match chunk {
                Chunk::Spec { value } => rec.spec = Some(value),
                Chunk::Meta { stride, start_ns } => {
                    rec.stride = stride;
                    rec.start_ns = start_ns;
                    saw_meta = true;
                }
                Chunk::Op { now_ns, value } => rec.entries.push(Entry::Op { now_ns, value }),
                Chunk::Snapshot { now_ns, state } => {
                    rec.entries.push(Entry::Snapshot { now_ns, state });
                }
                Chunk::Digest { now_ns, digest } => {
                    rec.entries.push(Entry::Digest { now_ns, digest });
                }
                Chunk::End { now_ns, digest } => rec.end = Some((now_ns, digest)),
            }
        }
        if !saw_meta {
            return Err(FormatError::new(8, "recording has no Meta chunk"));
        }
        // The End chunk doubles as the terminator: a stream truncated at
        // a clean chunk boundary would otherwise parse as a silently
        // shorter recording.
        if rec.end.is_none() {
            return Err(FormatError::new(bytes.len(), "recording has no End chunk"));
        }
        Ok(rec)
    }

    /// Writes the recording to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a recording from `path`.
    pub fn load(path: &Path) -> std::io::Result<Recording> {
        let bytes = std::fs::read(path)?;
        Recording::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The number of recorded operations.
    pub fn op_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Op { .. }))
            .count()
    }

    /// The number of snapshot entries.
    pub fn snapshot_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Snapshot { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recording() -> Recording {
        Recording {
            spec: Some(Value::Map(vec![(
                Value::Str("kind".into()),
                Value::Str("demo".into()),
            )])),
            stride: 50_000_000,
            start_ns: 0,
            entries: vec![
                Entry::Snapshot {
                    now_ns: 0,
                    state: Value::Seq(vec![Value::U64(1), Value::F64(2.5)]),
                },
                Entry::Op {
                    now_ns: 0,
                    value: Value::Map(vec![(
                        Value::Str("Advance".into()),
                        Value::Map(vec![(Value::Str("ns".into()), Value::U64(1000))]),
                    )]),
                },
                Entry::Digest {
                    now_ns: 1000,
                    digest: 0xDEAD_BEEF,
                },
            ],
            end: Some((1000, 0xDEAD_BEEF)),
        }
    }

    #[test]
    fn container_round_trips() {
        let rec = sample_recording();
        let bytes = rec.to_bytes();
        assert_eq!(&bytes[..4], b"EDBR");
        let back = Recording::from_bytes(&bytes).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.op_count(), 1);
        assert_eq!(back.snapshot_count(), 1);
    }

    #[test]
    fn encoding_is_byte_stable() {
        let rec = sample_recording();
        assert_eq!(rec.to_bytes(), rec.to_bytes());
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        // Flip one bit at a time across the whole stream: every
        // corruption must surface as an error, never as a silently
        // different recording.
        let rec = sample_recording();
        let bytes = rec.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match Recording::from_bytes(&bad) {
                Err(_) => {}
                Ok(parsed) => {
                    panic!("flip at byte {i} parsed silently: {parsed:?}");
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_recording().to_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Recording::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn float_encoding_is_bitwise() {
        // -0.0 vs 0.0 compare equal as floats but are different states.
        let a = value_bytes(&Value::F64(0.0));
        let b = value_bytes(&Value::F64(-0.0));
        assert_ne!(a, b);
        // NaN payloads round-trip exactly.
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let enc = value_bytes(&Value::F64(nan));
        let mut pos = 0;
        match decode_value(&enc, &mut pos).expect("decodes") {
            Value::F64(x) => assert_eq!(x.to_bits(), nan.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_codec_round_trips_nested_trees() {
        let v = Value::Map(vec![
            (Value::Str("null".into()), Value::Null),
            (
                Value::Str("bools".into()),
                Value::Seq(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            (Value::U64(7), Value::I64(-12)),
            (
                Value::Str("nested".into()),
                Value::Map(vec![(Value::Str("s".into()), Value::Str("héllo".into()))]),
            ),
        ]);
        let enc = value_bytes(&v);
        let mut pos = 0;
        let back = decode_value(&enc, &mut pos).expect("decodes");
        assert_eq!(pos, enc.len());
        assert_eq!(back, v);
        assert_eq!(value_digest(&back), value_digest(&v));
    }

    /// An arbitrary tree drawn from `seed`, up to `depth` levels deep,
    /// with every variant (byte strings included) at every level.
    fn arbitrary_value(seed: &mut u64, depth: u32) -> Value {
        let mut next = || {
            *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let pick = next() % if depth == 0 { 7 } else { 9 };
        let x = next();
        match pick {
            0 => Value::Null,
            1 => Value::Bool(x & 1 == 1),
            2 => Value::U64(x >> (x % 64)),
            3 => Value::I64(x as i64),
            4 => Value::F64(f64::from_bits(x)),
            5 => Value::Str("héllo, wörld".chars().take((x % 13) as usize).collect()),
            6 => Value::Bytes(
                (0..x % 40)
                    .map(|i| (x >> (i % 8 * 8)) as u8 ^ i as u8)
                    .collect(),
            ),
            7 => Value::Seq(
                (0..x % 5)
                    .map(|_| arbitrary_value(seed, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..x % 4)
                    .map(|_| {
                        (
                            arbitrary_value(seed, depth - 1),
                            arbitrary_value(seed, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// `Bytes(b)` with every byte string spelled out as the `Seq` of
    /// `U64`s it stands for — the form a decoded tape holds.
    fn spelled_out(v: &Value) -> Value {
        match v {
            Value::Bytes(b) => Value::Seq(b.iter().map(|&x| Value::U64(u64::from(x))).collect()),
            Value::Seq(items) => Value::Seq(items.iter().map(spelled_out).collect()),
            Value::Map(pairs) => Value::Map(
                pairs
                    .iter()
                    .map(|(k, val)| (spelled_out(k), spelled_out(val)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The structural digest and length agree with the encoding for
        /// every tree, and a byte string encodes exactly as its `Seq`.
        #[test]
        fn structural_digest_matches_the_encoding(
            mut seed in proptest::prelude::any::<u64>(),
            depth in 0u32..5,
        ) {
            let v = arbitrary_value(&mut seed, depth);
            let enc = value_bytes(&v);
            proptest::prop_assert_eq!(value_digest(&v), fnv1a(&enc));
            proptest::prop_assert_eq!(encoded_len(&v), enc.len());
            let seq = spelled_out(&v);
            proptest::prop_assert_eq!(&value_bytes(&seq), &enc);
            proptest::prop_assert_eq!(value_digest(&seq), value_digest(&v));
            let mut pos = 0;
            let back = decode_value(&enc, &mut pos).expect("decodes");
            proptest::prop_assert_eq!(pos, enc.len());
            proptest::prop_assert_eq!(value_bytes(&back), enc);
        }
    }

    #[test]
    fn byte_strings_encode_digest_and_compare_as_their_seq() {
        let image: Vec<u8> = (0..49_152u32).map(|i| (i * 31 % 251) as u8).collect();
        let bytes = Value::Bytes(image.clone());
        let seq = Value::Seq(image.iter().map(|&b| Value::U64(u64::from(b))).collect());
        assert_eq!(value_bytes(&bytes), value_bytes(&seq));
        assert_eq!(value_digest(&bytes), fnv1a(&value_bytes(&seq)));
        assert_eq!(bytes, seq);
        // A recording holding byte strings equals its decoded copy, whose
        // images are `Seq`s again, and re-encodes to the same bytes.
        let mut rec = sample_recording();
        rec.entries.push(Entry::Snapshot {
            now_ns: 2000,
            state: Value::Map(vec![(Value::Str("mem".into()), bytes)]),
        });
        let encoded = rec.to_bytes();
        let back = Recording::from_bytes(&encoded).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.to_bytes(), encoded);
        // `to_bytes` frames chunks exactly as `write_chunks` does.
        let mut chunks = vec![Chunk::Spec {
            value: rec.spec.clone().unwrap(),
        }];
        chunks.push(Chunk::Meta {
            stride: rec.stride,
            start_ns: rec.start_ns,
        });
        for entry in &rec.entries {
            chunks.push(match entry.clone() {
                Entry::Op { now_ns, value } => Chunk::Op { now_ns, value },
                Entry::Snapshot { now_ns, state } => Chunk::Snapshot { now_ns, state },
                Entry::Digest { now_ns, digest } => Chunk::Digest { now_ns, digest },
            });
        }
        let (now_ns, digest) = rec.end.unwrap();
        chunks.push(Chunk::End { now_ns, digest });
        assert_eq!(write_chunks(&chunks), encoded);
    }

    /// A valid `Spec` chunk around `payload`.
    fn spec_chunk_recording(payload: &[u8]) -> Vec<u8> {
        let mut bytes = write_chunks(&[]);
        let len = (payload.len() as u32).to_le_bytes();
        let mut h = Fnv::new();
        h.write(&[TAG_SPEC]);
        h.write(&len);
        h.write(payload);
        bytes.push(TAG_SPEC);
        bytes.extend_from_slice(&len);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&h.finish().to_le_bytes());
        bytes
    }

    #[test]
    fn nesting_is_bounded() {
        // One-element sequences nested `depth` deep around a null.
        let nested = |depth: usize| {
            let mut payload = [VAL_SEQ, 1, 0, 0, 0].repeat(depth);
            payload.push(VAL_NULL);
            payload
        };
        let mut pos = 0;
        assert!(decode_value(&nested(MAX_DEPTH), &mut pos).is_ok());
        let mut pos = 0;
        let err = decode_value(&nested(MAX_DEPTH + 1), &mut pos).unwrap_err();
        assert!(err.detail.contains("nesting"), "{err}");
        assert_eq!(err.offset, 5 * MAX_DEPTH);
        // 100 KB of nesting with a valid chunk digest: far past any
        // thread stack, yet a typed error rather than an abort.
        let hostile = spec_chunk_recording(&nested(20_000));
        let err = Recording::from_bytes(&hostile).unwrap_err();
        assert!(err.detail.contains("nesting"), "{err}");
    }

    #[test]
    fn unknown_chunk_tags_are_rejected() {
        let mut bytes = write_chunks(&[]);
        // Append a chunk with tag 99 and a valid digest.
        let payload: &[u8] = &[];
        let mut h = Fnv::new();
        h.write(&[99]);
        h.write(&0u32.to_le_bytes());
        h.write(payload);
        bytes.push(99);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&h.finish().to_le_bytes());
        let err = read_chunks(&bytes).unwrap_err();
        assert!(err.detail.contains("unknown chunk tag"), "{err}");
    }
}
