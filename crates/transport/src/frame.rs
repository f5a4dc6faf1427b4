//! Length-prefixed, checksummed frames over a byte stream.
//!
//! Every message on a socket connection travels as one frame:
//!
//! ```text
//! [0..4)    body length L        (u32, little-endian)
//! [4..8)    checksum             (low 32 bits of FNV-1a-64 of the body)
//! [8..8+L)  body                 (Msg::encode_transport bytes, or a hello)
//! ```
//!
//! The 8-byte header is the *entire* per-message transport overhead, so
//! the socket driver runs with `StoreConfig::header_bytes ==`
//! [`HEADER_BYTES`] and the nodes' wire ledgers charge exactly the
//! bytes written to the socket (`Msg::wire_size == encode_transport
//! len`, plus this header) — honest accounting, not a modeled constant.
//!
//! A stream decoder cannot resynchronise after corruption (there is no
//! frame delimiter to hunt for), so every decode failure — truncated
//! header or body, oversized length, checksum mismatch — is terminal
//! for the connection: the caller drops it and lets the dialer
//! reconnect. That maps corruption onto the protocol's existing
//! wire-loss semantics instead of risking a desynchronised parse.
//!
//! There is one decoder, the incremental [`Unframer`]: the socket
//! fabric feeds it whatever each nonblocking read returns, and
//! [`read_frame`] drives it over a blocking reader.

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};

use storage::fnv1a64;

/// Bytes of framing overhead per message: 4-byte length + 4-byte
/// checksum.
pub const HEADER_BYTES: usize = 8;

/// Default cap on a frame body. Protocol messages are far smaller; a
/// length field beyond this is treated as stream corruption rather than
/// an allocation request.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Body bytes [`read_frame`] reserves before its first read: most
/// protocol messages fit, so their frame is read into one allocation.
const READ_FRAME_RESERVE: usize = 512;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed mid-frame (including EOF after a
    /// partial header or body — a torn frame).
    Io(io::Error),
    /// The header announced a body larger than the configured cap.
    TooLarge {
        /// The announced body length.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The body did not match the header's checksum.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The checksum field for `body`: FNV-1a-64 truncated to 32 bits (the
/// same hash the storage log's records use for torn-write detection).
fn checksum(body: &[u8]) -> u32 {
    fnv1a64(body) as u32
}

/// Appends one frame (header + body) to `buf`.
pub(crate) fn append_frame(buf: &mut Vec<u8>, body: &[u8]) {
    buf.reserve(HEADER_BYTES + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&checksum(body).to_le_bytes());
    buf.extend_from_slice(body);
}

/// Writes one frame (header + body) to `w`. A single buffered
/// `write_all`, so a frame is either queued to the OS in full or the
/// write fails — there is no partial-frame success path.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut buf = Vec::new();
    append_frame(&mut buf, body);
    w.write_all(&buf)
}

/// The error a stream that ends inside a frame surfaces as.
fn torn() -> FrameError {
    FrameError::Io(io::Error::new(
        ErrorKind::UnexpectedEof,
        "stream ended inside a frame",
    ))
}

/// Incremental frame decoder: takes stream bytes in whatever pieces
/// they arrive and yields complete, checksum-verified frame bodies.
///
/// This is the only frame decoder: [`read_frame`] drives it over a
/// blocking reader, the socket fabric over nonblocking connections.
/// Errors are sticky — once [`next_frame`](Self::next_frame) reports
/// corruption it keeps reporting it, since a stream cannot be resynced
/// past a bad frame. An announced length beyond the cap is rejected as
/// soon as the header is complete, before any buffer grows toward it.
#[derive(Debug)]
pub struct Unframer {
    /// Stream bytes; `buf[head..tail]` is undecoded.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    max_frame: usize,
}

impl Unframer {
    /// An empty decoder rejecting bodies longer than `max_frame`.
    #[must_use]
    pub fn new(max_frame: usize) -> Self {
        Unframer {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            max_frame,
        }
    }

    /// Bytes received but not yet yielded as a frame.
    fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// The body length the buffered header announces, once the header
    /// is complete.
    fn announced(&self) -> Option<usize> {
        if self.buffered() < HEADER_BYTES {
            return None;
        }
        let len = &self.buf[self.head..self.head + 4];
        Some(u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize)
    }

    /// Bytes still missing from the frame at the head of the buffer:
    /// the rest of the header, then the rest of the body. Zero when a
    /// frame is complete (or the header announced an oversized body).
    #[must_use]
    pub fn missing(&self) -> usize {
        match self.announced() {
            None => HEADER_BYTES - self.buffered(),
            Some(len) if len > self.max_frame => 0,
            Some(len) => (HEADER_BYTES + len).saturating_sub(self.buffered()),
        }
    }

    /// Appends stream bytes.
    pub fn push(&mut self, mut bytes: &[u8]) {
        let n = bytes.len();
        self.read_from(&mut bytes, n)
            .expect("reading from a slice cannot fail");
    }

    /// One `read` of at most `limit` bytes from `r` into the buffer;
    /// returns what `read` returned (`Ok(0)` is end of stream).
    pub(crate) fn read_from(&mut self, r: &mut impl Read, limit: usize) -> io::Result<usize> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        if self.buf.len() - self.tail < limit {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if self.buf.len() - self.tail < limit {
                self.buf.resize(self.tail + limit, 0);
            }
        }
        let n = r.read(&mut self.buf[self.tail..self.tail + limit])?;
        self.tail += n;
        Ok(n)
    }

    /// The next complete frame body, `Ok(None)` if more bytes are
    /// needed, or the (sticky) reason the stream is corrupt.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some(len) = self.announced() else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        if self.buffered() < HEADER_BYTES + len {
            return Ok(None);
        }
        let start = self.head + HEADER_BYTES;
        let want = u32::from_le_bytes(self.buf[self.head + 4..start].try_into().expect("4 bytes"));
        let body = start..start + len;
        if checksum(&self.buf[body.clone()]) != want {
            return Err(FrameError::BadChecksum);
        }
        self.head = body.end;
        Ok(Some(&self.buf[body]))
    }

    /// The body of the one frame this decoder has held since its first
    /// byte, taken without a copy — [`read_frame`]'s case, which never
    /// reads past the frame it decodes.
    fn into_only_body(mut self) -> Vec<u8> {
        debug_assert!(self.head == self.tail && self.tail >= HEADER_BYTES);
        self.buf.truncate(self.tail);
        self.buf.drain(..HEADER_BYTES);
        self.buf
    }

    /// Judges the end of the stream: clean on a frame boundary, a torn
    /// frame ([`FrameError::Io`]) otherwise.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buffered() == 0 {
            Ok(())
        } else {
            Err(torn())
        }
    }
}

/// Reads one frame body from `r`.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer
/// closed between frames). EOF inside a header or body is a torn frame
/// and surfaces as [`FrameError::Io`]. Short reads (partial TCP
/// segments) are reassembled by an [`Unframer`] that never asks `r`
/// for more than the current frame still lacks, so the stream is left
/// positioned at the next frame.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut u = Unframer::new(max_frame);
    u.buf.reserve(HEADER_BYTES + READ_FRAME_RESERVE);
    loop {
        if u.next_frame()?.is_some() {
            return Ok(Some(u.into_only_body()));
        }
        let missing = u.missing();
        match u.read_from(r, missing) {
            Ok(0) if u.buffered() == 0 => return Ok(None),
            Ok(0) => return Err(torn()),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrips_and_reports_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 300]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), vec![0xAB; 300]);
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { .. }));
    }

    #[test]
    fn torn_header_and_torn_body_are_io_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload").unwrap();
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut]), 1024).unwrap_err();
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn corrupt_body_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum));
    }
}
