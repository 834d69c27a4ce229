//! Length-prefixed message frames.
//!
//! # Format
//!
//! ```text
//! [payload length: u32, little-endian] [format version: 1 byte] [message]
//! ```
//!
//! The length counts the version byte and the message. The message is the
//! workspace serde's positional binary rendering (`serde::bin`) of a
//! [`ServiceMessage`](crate::ServiceMessage): varint integers,
//! length-prefixed strings and sequences, an enum's variant as its
//! declaration index, struct fields in declaration order — no field names,
//! nothing self-describing. Every frame of the service protocol, engine and
//! control plane alike, travels this way; there is no second encoding.
//!
//! Positional means **all processes of a cluster run one build**: adding,
//! removing or reordering a field or variant of anything reachable from
//! `ServiceMessage` changes the bytes. [`FORMAT_VERSION`] is bumped with any
//! such change, so a process from another build is refused as
//! [`Malformed`](TransportError::Malformed) at its first frame rather than
//! misread.
//!
//! TCP gives per-connection FIFO and the prefix gives message boundaries;
//! everything else — ordering across connections, retransmission after a
//! crash — is the protocol's problem, not the frame layer's.
//!
//! # Reading
//!
//! [`FrameReader`] is what a connection's reader thread uses: one reusable
//! buffer, one `read` per refill, every complete frame in the buffer decoded
//! before the next `read`. [`read_frame`] reads exactly one frame from any
//! `Read` and leaves the stream positioned after it. Both distinguish the
//! three ways a stream can end:
//!
//! * clean EOF on a frame boundary → `Ok(None)` (the peer closed politely),
//! * EOF inside the prefix or payload → [`TransportError::Truncated`]
//!   (the peer died mid-frame),
//! * a complete frame that fails to decode (wrong version byte, unknown
//!   variant index, a length field running past the payload, trailing
//!   bytes) → [`TransportError::Malformed`].

use crate::error::TransportError;
use serde::bin::{self, BinError};
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Sanity limit on a single frame's payload (64 MiB). A peer announcing
/// more is treated as corrupt rather than allocated for.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// First payload byte of every frame: the revision of the positional
/// format, i.e. of the type declarations behind `ServiceMessage`.
///
/// * 1 — the first binary format.
/// * 2 — a `PendingQuery` carries its subscribers as a table (groups of an
///   immutable subscriber set plus the tuples bound since the merge)
///   instead of a list of per-subscriber `SELECT` continuations, so a shared
///   `Eval` or a re-homed shared entry renders differently.
/// * 3 — `EngineConfig`, carried by the `Configure` frame, lost its
///   `compiled_predicates`, `hypercube_planner` and `trigger_index` fields.
/// * 4 — `EngineConfig` lost its expiry-mode selector (the sweep mode).
/// * 5 — `Configure` carries `EngineConfig`, which lost `ric_window` and
///   `ct_validity` (both are constants now).
/// * 6 — `Configure` carries `EngineConfig`, which lost
///   `successor_list_len` (the simulated Chord ring's is a constant now).
/// * 7 — a `PendingQuery` is its input query (id, owner, insertion time,
///   the query length-prefixed, the hypercube reference) plus its window
///   span and the tuples bound so far (a slot mask, then each tuple
///   length-prefixed) instead of the rewritten query; `original_joins` is
///   gone. The prefixes let a receiver share what it decoded before
///   (`rjoin_relation::DecodedTable`).
/// * 8 — an `Eval`'s piggy-backed RIC observations carry the candidate
///   key's ring id (a `u64`) instead of the key text, and a `PendingQuery`
///   carries only the window `start` of its span: the contribution span
///   `[min, max]` is read off its bound tuples.
pub const FORMAT_VERSION: u8 = 8;

/// Bytes of the length prefix.
const PREFIX_LEN: usize = 4;

/// Appends one frame to `out`; on error `out` is left as it was.
pub fn encode_frame<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    msg: &T,
) -> Result<(), TransportError> {
    let start = out.len();
    out.extend_from_slice(&[0; PREFIX_LEN]);
    out.push(FORMAT_VERSION);
    msg.serialize_bin(out);
    let len = out.len() - start - PREFIX_LEN;
    if len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(TransportError::TooLarge { len });
    }
    out[start..start + PREFIX_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Writes one length-prefixed frame with a single `write_all`.
pub fn write_frame<W: Write, T: Serialize + ?Sized>(
    w: &mut W,
    msg: &T,
) -> Result<(), TransportError> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// The payload length a prefix announces, if it is within the sanity limit.
fn announced_len(prefix: [u8; PREFIX_LEN]) -> Result<usize, TransportError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(TransportError::TooLarge { len });
    }
    Ok(len)
}

/// Decodes a complete payload: the version byte, then exactly one message.
fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, TransportError> {
    let decoded = match payload.split_first() {
        None => Err(BinError::Eof),
        Some((&FORMAT_VERSION, body)) => bin::from_slice(body),
        Some(_) => Err(BinError::Invalid("frame format version")),
    };
    decoded.map_err(TransportError::Malformed)
}

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// stream cleanly on a frame boundary.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, TransportError> {
    let mut prefix = [0u8; PREFIX_LEN];
    match read_exact_or_eof(r, &mut prefix)? {
        0 => return Ok(None),
        PREFIX_LEN => {}
        got => return Err(TransportError::Truncated { expected: PREFIX_LEN - got, got }),
    }
    let len = announced_len(prefix)?;
    let mut payload = vec![0u8; len];
    let got = read_exact_or_eof(r, &mut payload)?;
    if got < len {
        return Err(TransportError::Truncated { expected: len - got, got });
    }
    decode_payload(&payload).map(Some)
}

/// Like `read_exact`, but reports how many bytes arrived before EOF instead
/// of collapsing a short read into `UnexpectedEof`.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TransportError> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_some(r, &mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// One `read`, retried on `Interrupted`.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TransportError> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
}

/// The reading end of one connection: a reusable buffer that is refilled
/// with one `read` at a time and drained frame by frame.
///
/// A peer that coalesces its writes (see [`PeerLinks`](crate::peers)) puts
/// many frames into one segment; this hands all of them out before touching
/// the socket again, with no per-frame allocation.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// Initial buffer size; the buffer grows to the largest frame seen.
    const BUF_LEN: usize = 64 << 10;

    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader { buf: vec![0; Self::BUF_LEN], start: 0, end: 0 }
    }

    /// The next frame: out of the buffer if a complete one is there,
    /// otherwise after as many `read`s as it takes to complete one.
    /// `Ok(None)` is a clean EOF on a frame boundary; EOF anywhere else is
    /// [`TransportError::Truncated`].
    pub fn next_frame<R: Read, T: Deserialize>(
        &mut self,
        r: &mut R,
    ) -> Result<Option<T>, TransportError> {
        loop {
            let have = self.end - self.start;
            // Size of the frame at the front of the buffer, prefix included,
            // once its prefix is in; until then, of the prefix alone.
            let prefix = self.buf[self.start..self.end].first_chunk::<PREFIX_LEN>();
            let need = match prefix {
                Some(prefix) => PREFIX_LEN + announced_len(*prefix)?,
                None => PREFIX_LEN,
            };
            if have >= need {
                let payload = &self.buf[self.start + PREFIX_LEN..self.start + need];
                self.start += need;
                return decode_payload(payload).map(Some);
            }
            // As `read_frame` counts: payload bytes once the prefix is in.
            let got = if prefix.is_some() { have - PREFIX_LEN } else { have };
            self.make_room(need);
            match read_some(r, &mut self.buf[self.end..])? {
                0 if have == 0 => return Ok(None),
                0 => return Err(TransportError::Truncated { expected: need - have, got }),
                n => self.end += n,
            }
        }
    }

    /// Makes sure a frame of `need` bytes starting at `start` fits, and
    /// that there is room to read into.
    fn make_room(&mut self, need: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.start + need > self.buf.len() || self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_message() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "forty-two").unwrap();
        let mut cur = Cursor::new(buf);
        let back: Option<String> = read_frame(&mut cur).unwrap();
        assert_eq!(back.as_deref(), Some("forty-two"));
        let end: Option<String> = read_frame(&mut cur).unwrap();
        assert!(end.is_none(), "a second read hits clean EOF");
    }

    #[test]
    fn truncated_payload_is_reported_with_missing_byte_count() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "forty-two").unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame::<_, String>(&mut Cursor::new(buf)).unwrap_err();
        match err {
            TransportError::Truncated { expected: 3, got } => assert!(got > 0),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_prefix_is_reported() {
        let buf = vec![0x05, 0x00];
        let err = read_frame::<_, String>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, TransportError::Truncated { expected: 2, got: 2 }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let buf = (u32::MAX).to_le_bytes().to_vec();
        let err = read_frame::<_, String>(&mut Cursor::new(buf.clone())).unwrap_err();
        assert!(matches!(err, TransportError::TooLarge { .. }));
        let err = FrameReader::new().next_frame::<_, String>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, TransportError::TooLarge { .. }));
    }

    #[test]
    fn malformed_payload_is_distinguished_from_truncation() {
        let payload = b"not json";
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(payload);
        let err = read_frame::<_, String>(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, TransportError::Malformed(_)));
    }

    /// Hands out at most `chunk` bytes per `read`, like a socket would.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_reassembles_frames_across_reads_of_any_size() {
        let messages: Vec<String> = (0..40).map(|i| "x".repeat(i * 37 % 300)).collect();
        let mut bytes = Vec::new();
        for m in &messages {
            encode_frame(&mut bytes, m).unwrap();
        }
        for chunk in [1, 3, 7, 64, 4096, usize::MAX] {
            let mut source = Dribble { bytes: bytes.clone(), pos: 0, chunk };
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            while let Some(m) = reader.next_frame::<_, String>(&mut source).unwrap() {
                got.push(m);
            }
            assert_eq!(got, messages, "chunk size {chunk}");
        }
    }

    #[test]
    fn frame_reader_grows_for_a_frame_larger_than_its_buffer() {
        let big = "y".repeat(3 * FrameReader::BUF_LEN);
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, "small").unwrap();
        encode_frame(&mut bytes, &big).unwrap();
        encode_frame(&mut bytes, "after").unwrap();
        let mut source = Cursor::new(bytes);
        let mut reader = FrameReader::new();
        for want in ["small", &big, "after"] {
            let got: Option<String> = reader.next_frame(&mut source).unwrap();
            assert_eq!(got.as_deref(), Some(want));
        }
        assert!(reader.next_frame::<_, String>(&mut source).unwrap().is_none());
    }
}
