//! Property coverage for the socket frame decoder: whatever the stream
//! does — arrives one byte at a time, tears mid-frame, announces an
//! absurd length, or flips a bit anywhere — the decoder never panics
//! and never silently desynchronises. Valid prefixes decode exactly;
//! the first corruption is a terminal, *detected* error (the connection
//! layer responds by dropping the connection, which the protocol
//! already tolerates as wire loss).
//!
//! The socket fabric decodes with the incremental [`Unframer`] and
//! `read_frame` is built on it; the equivalence properties below pin
//! that, however a stream is chunked, the two yield the same frames and
//! end in the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

use proptest::collection::vec;
use proptest::prelude::*;
use transport::{read_frame, write_frame, FrameError, Unframer, HEADER_BYTES};

const MAX_FRAME: usize = 1 << 16;

thread_local! {
    /// The largest allocation this thread has asked for since reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request so a
/// test can prove an announced length was never allocated.
struct Recording;

// SAFETY: defers every operation to `System` unchanged.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.with(|m| m.set(m.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// Everything one decoder made of a stream: its frames, then how the
/// stream ended — `"clean"` or the error, by variant and payload.
#[derive(Debug, PartialEq)]
struct Decoded {
    frames: Vec<Vec<u8>>,
    end: String,
}

fn ending(e: &FrameError) -> String {
    match e {
        FrameError::Io(io) => format!("io {:?}", io.kind()),
        FrameError::TooLarge { len, max } => format!("too large {len} > {max}"),
        FrameError::BadChecksum => "bad checksum".to_string(),
    }
}

/// Decodes `stream` with repeated `read_frame` calls.
fn by_read_frame(stream: &[u8]) -> Decoded {
    let mut r = stream;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut r, MAX_FRAME) {
            Ok(Some(body)) => frames.push(body),
            Ok(None) => {
                return Decoded {
                    frames,
                    end: "clean".to_string(),
                }
            }
            Err(e) => {
                return Decoded {
                    frames,
                    end: ending(&e),
                }
            }
        }
    }
}

/// Decodes `stream` with one [`Unframer`], fed in the pieces `cuts`
/// (taken modulo the stream length) split it into.
fn by_unframer(stream: &[u8], cuts: &[u64]) -> Decoded {
    let mut bounds: Vec<usize> = cuts
        .iter()
        .map(|c| (*c as usize) % (stream.len() + 1))
        .chain([stream.len()])
        .collect();
    bounds.sort_unstable();
    let mut u = Unframer::new(MAX_FRAME);
    let mut frames = Vec::new();
    let mut at = 0;
    for end in bounds {
        u.push(&stream[at..end]);
        at = end;
        loop {
            match u.next_frame() {
                Ok(Some(body)) => frames.push(body.to_vec()),
                Ok(None) => break,
                Err(e) => {
                    return Decoded {
                        frames,
                        end: ending(&e),
                    }
                }
            }
        }
    }
    let end = match u.finish() {
        Ok(()) => "clean".to_string(),
        Err(e) => ending(&e),
    };
    Decoded { frames, end }
}

/// A reader that hands out at most `chunk` bytes per call — models TCP
/// delivering partial segments. `read_frame` must reassemble
/// transparently.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn arb_bodies() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..200), 1..6)
}

fn encode_stream(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for b in bodies {
        write_frame(&mut out, b).unwrap();
    }
    out
}

proptest! {
    /// Partial reads never corrupt reassembly: any chunk size yields
    /// the identical frame sequence and a clean close.
    #[test]
    fn chunked_reads_reassemble_exactly(bodies in arb_bodies(), chunk in 1usize..17) {
        let stream = encode_stream(&bodies);
        let mut r = Chunked { data: &stream, pos: 0, chunk };
        for body in &bodies {
            let got = read_frame(&mut r, MAX_FRAME).unwrap().expect("frame");
            prop_assert_eq!(&got, body);
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// A stream cut at an arbitrary byte: every fully-contained frame
    /// decodes exactly; the cut frame surfaces as a detected error
    /// (torn i/o) or, if the cut lands on a frame boundary, a clean
    /// close. Never a panic, never a wrong frame.
    #[test]
    fn torn_streams_fail_detectably(bodies in arb_bodies(), cut_seed in any::<u64>()) {
        let stream = encode_stream(&bodies);
        let cut = (cut_seed as usize) % (stream.len() + 1);
        let mut r = &stream[..cut];
        let mut offset = 0usize;
        for body in &bodies {
            let end = offset + HEADER_BYTES + body.len();
            if end <= cut {
                // Fully inside the kept prefix: must decode exactly.
                let got = read_frame(&mut r, MAX_FRAME).unwrap().expect("frame");
                prop_assert_eq!(&got, body);
                offset = end;
            } else {
                // The torn frame: boundary cut reads as clean close,
                // anything else is a detected i/o tear.
                match read_frame(&mut r, MAX_FRAME) {
                    Ok(None) => prop_assert_eq!(cut, offset, "clean close off-boundary"),
                    Ok(Some(_)) => prop_assert!(false, "decoded a torn frame"),
                    Err(FrameError::Io(_)) => {}
                    Err(e) => prop_assert!(false, "unexpected error class: {e}"),
                }
                return Ok(());
            }
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// A bit flipped anywhere in the stream: frames before the flip
    /// decode exactly; the flipped frame NEVER decodes to different
    /// bytes than were sent — it errors (checksum/oversize/tear), the
    /// flip lands in a don't-care... it doesn't: every byte is covered
    /// by length, checksum, or body, so the outcome is an error or an
    /// identical frame is impossible. Assert: no panic, no silent
    /// wrong-body success.
    #[test]
    fn bit_flips_never_yield_wrong_bytes(bodies in arb_bodies(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let mut stream = encode_stream(&bodies);
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= 1 << bit;
        let mut r = stream.as_slice();
        for body in &bodies {
            match read_frame(&mut r, MAX_FRAME) {
                Ok(Some(got)) => prop_assert_eq!(
                    &got, body,
                    "decoder returned bytes that were never sent"
                ),
                // Detected corruption: terminal for the connection.
                Ok(None) | Err(_) => return Ok(()),
            }
        }
        // Flip must have been detected somewhere (it can't be a no-op:
        // every stream byte is load-bearing).
        prop_assert!(false, "bit flip at {pos} went completely unnoticed");
    }

    /// An announced length beyond the cap is rejected before any
    /// allocation, whatever follows it: no buffer of (or toward) the
    /// announced size is ever requested, and the incremental decoder
    /// asks for no more bytes.
    #[test]
    fn oversized_lengths_are_rejected(len in (MAX_FRAME as u32 + 1)..u32::MAX, tail in vec(any::<u8>(), 0..16), cuts in vec(any::<u64>(), 0..4)) {
        let mut stream = Vec::new();
        stream.extend_from_slice(&len.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&tail);
        LARGEST_ALLOC.with(|m| m.set(0));
        let result = read_frame(&mut stream.as_slice(), MAX_FRAME);
        let largest = LARGEST_ALLOC.with(Cell::get);
        match result {
            Err(FrameError::TooLarge { len: got, max }) => {
                prop_assert_eq!(got, len as usize);
                prop_assert_eq!(max, MAX_FRAME);
            }
            other => prop_assert!(false, "expected TooLarge, got {:?}", other.map(|_| ())),
        }
        prop_assert!(largest < 1024, "allocated {} bytes for a rejected frame", largest);

        let mut u = Unframer::new(MAX_FRAME);
        u.push(&stream[..HEADER_BYTES]);
        let rejected = matches!(u.next_frame(), Err(FrameError::TooLarge { .. }));
        prop_assert!(rejected, "the unframer took an oversized header");
        prop_assert_eq!(u.missing(), 0);
        prop_assert_eq!(by_unframer(&stream, &cuts), by_read_frame(&stream));
    }

    /// However a valid stream is chunked, the incremental decoder
    /// yields exactly the frames `read_frame` does, then a clean end.
    #[test]
    fn unframer_matches_read_frame_on_any_chunking(bodies in arb_bodies(), cuts in vec(any::<u64>(), 0..12)) {
        let stream = encode_stream(&bodies);
        let decoded = by_unframer(&stream, &cuts);
        prop_assert_eq!(&decoded.frames, &bodies);
        prop_assert_eq!(decoded, by_read_frame(&stream));
    }

    /// A stream cut anywhere and chunked anyhow: both decoders yield
    /// the same complete frames and the same typed tear (or clean end).
    #[test]
    fn unframer_matches_read_frame_on_torn_streams(bodies in arb_bodies(), cut_seed in any::<u64>(), cuts in vec(any::<u64>(), 0..12)) {
        let stream = encode_stream(&bodies);
        let torn = &stream[..(cut_seed as usize) % (stream.len() + 1)];
        prop_assert_eq!(by_unframer(torn, &cuts), by_read_frame(torn));
    }

    /// A bit flipped anywhere: both decoders yield the same frames and
    /// fail with the same typed error — checksum, oversize or tear.
    #[test]
    fn unframer_matches_read_frame_on_bit_flips(bodies in arb_bodies(), pos_seed in any::<u64>(), bit in 0u8..8, cuts in vec(any::<u64>(), 0..12)) {
        let mut stream = encode_stream(&bodies);
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= 1 << bit;
        let decoded = by_unframer(&stream, &cuts);
        prop_assert!(decoded.end != "clean", "bit flip at {} went unnoticed", pos);
        prop_assert_eq!(decoded, by_read_frame(&stream));
    }
}
