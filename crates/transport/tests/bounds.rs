//! Every queue has a bound, and a slow peer cannot stall a sender: a
//! receiver that is never pumped leaves the sender's link buffer full,
//! and further sends return at once, dropping into the ledger.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dvv::mechanisms::DvvMechanism;
use runtime::Progress;
use simnet::SimRng;
use transport::{Fabric, FabricStats, HEADER_BYTES};

const CAP: usize = 16;

/// Sends `10 × CAP` frames of `body_len` bytes on `from → to`, pumping
/// the sender after each send if `pump_sender`; asserts every call
/// returns promptly. Returns the bytes the sends charged.
fn flood(
    fabric: &Fabric<DvvMechanism>,
    from: usize,
    to: usize,
    body_len: usize,
    pump_sender: bool,
) -> u64 {
    let mut charged = 0;
    for i in 0..10 * CAP {
        let started = Instant::now();
        fabric.send_bytes(from, to, vec![0xAB; body_len]);
        if pump_sender {
            fabric.pump(from, Duration::ZERO);
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "send {i} took {took:?}");
        charged += (body_len + HEADER_BYTES) as u64;
    }
    charged
}

fn assert_ledger(s: &FabricStats, frames: u64, charged: u64) {
    assert_eq!(s.enqueued_frames + s.dropped_frames, frames, "{s:#?}");
    assert_eq!(
        s.enqueued_bytes + s.dropped_bytes + s.self_bytes,
        charged,
        "ledger identity\n{s:#?}"
    );
}

#[test]
fn unpumped_receiver_bounds_the_link_buffer() {
    let (tx0, _rx0) = mpsc::sync_channel(4);
    let (tx1, _rx1) = mpsc::sync_channel(4);
    let shutdown = Arc::new(AtomicBool::new(false));
    let fabric = Fabric::start(
        DvvMechanism,
        2,
        vec![tx0, tx1],
        Arc::new(Progress::new(2)),
        Arc::clone(&shutdown),
        SimRng::new(0xB0D5),
        CAP,
        1 << 20,
        0xB0D5_5EC2,
    )
    .expect("bind loopback listeners");

    // Neither end pumped: nothing is even dialed, so the buffer holds
    // exactly CAP frames and every later send drops.
    let mut charged = flood(&fabric, 1, 0, 64, false);
    let s = fabric.stats();
    assert_eq!(s.enqueued_frames, CAP as u64, "{s:#?}");
    assert_eq!(s.dropped_frames, 9 * CAP as u64, "{s:#?}");
    assert_ledger(&s, 10 * CAP as u64, charged);

    // The sender pumped, the receiver never: the connection's kernel
    // buffers fill (the receiver does not even accept), the link
    // buffer fills behind them, and sends keep returning at once.
    charged += flood(&fabric, 0, 1, 32 << 10, true);
    let s = fabric.stats();
    assert_eq!(s.connects, 1, "the sender dialed: {s:#?}");
    assert!(
        s.dropped_frames > 9 * CAP as u64,
        "a never-read link must drop\n{s:#?}"
    );
    assert!(s.written_frames <= s.enqueued_frames, "{s:#?}");
    assert_eq!(s.recv_frames + s.inbox_drops, 0, "{s:#?}");
    assert_ledger(&s, 20 * CAP as u64, charged);

    shutdown.store(true, Ordering::Relaxed);
    fabric.stop();
}
