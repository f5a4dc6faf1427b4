//! Charge parity on the wire: the bytes a sender's ledger is charged
//! for a message (`Msg::wire_size + HEADER_BYTES`) are exactly the
//! bytes that cross the socket for it — frame header plus the real
//! `encode_transport` serialisation, counted on both ends.
//!
//! This is the socket-transport mirror of the simulator's
//! `sim_ctx_derives_bytes_from_wire_size` probe: there the "network"
//! observes the charged byte count; here a real TCP connection does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::messages::Msg;
use kvstore::value::{StampedValue, WriteId};
use runtime::watchdog::Progress;
use simnet::SimRng;
use transport::fabric::Fabric;
use transport::{read_frame, write_frame, HEADER_BYTES};

type M = DvvMechanism;

/// A representative spread of protocol messages: tiny fixed-size acks,
/// keyed requests, and state-carrying replication traffic.
fn sample_msgs() -> Vec<Msg<M>> {
    let mech = DvvMechanism;
    let mut st = <M as Mechanism<StampedValue>>::State::default();
    mech.write(
        &mut st,
        WriteOrigin::new(ReplicaId(0), ClientId(1)),
        &VersionVector::new(),
        StampedValue::new(WriteId::new(ClientId(1), 1), vec![0xA5; 48]),
    );
    vec![
        Msg::RepPutAck { req: 7 },
        Msg::ClientGet {
            req: 1,
            key: b"parity-key".to_vec(),
            digest: 0xDEAD_BEEF,
        },
        Msg::RepGetResp {
            req: 2,
            key: b"parity-key".to_vec(),
            state: st.clone(),
        },
        Msg::RepPut {
            req: 3,
            key: b"another-key".to_vec(),
            state: st,
            hint: Some(ReplicaId(2)),
        },
    ]
}

/// Framing a message costs exactly what the ledger charges: body bytes
/// equal `wire_size`, the frame adds [`HEADER_BYTES`], nothing else.
#[test]
fn frame_bytes_equal_ledger_charge_per_message() {
    let mech = DvvMechanism;
    for msg in sample_msgs() {
        let body = msg.encode_transport(&mech);
        assert_eq!(
            body.len(),
            msg.wire_size(&mech),
            "encode/wire_size contract broken for {msg:?}"
        );
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        assert_eq!(framed.len(), msg.wire_size(&mech) + HEADER_BYTES);
        // And the receiver reads back the same body it was charged for.
        let back = read_frame(&mut framed.as_slice(), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(back, body);
    }
}

/// End-to-end over a real connection: a two-node fabric carries the
/// sample messages; the sender-side ledger (enqueued), the socket
/// writer (written), and the receiver (recv) all count the identical
/// byte total — Σ (wire_size + HEADER_BYTES).
#[test]
fn fabric_counts_match_ledger_on_both_ends() {
    let mech = DvvMechanism;
    let msgs = sample_msgs();
    let charged: u64 = msgs
        .iter()
        .map(|m| (m.wire_size(&mech) + HEADER_BYTES) as u64)
        .sum();

    let (tx0, _rx0) = mpsc::sync_channel(64);
    let (tx1, rx1) = mpsc::sync_channel(64);
    let progress = Arc::new(Progress::new(2));
    let shutdown = Arc::new(AtomicBool::new(false));
    let fabric = Fabric::start(
        mech,
        2,
        vec![tx0, tx1],
        Arc::clone(&progress),
        Arc::clone(&shutdown),
        SimRng::new(42),
        64,
        1 << 20,
        0x0073_575E_C2E7,
    )
    .unwrap();

    // The fabric moves bytes only when its nodes are pumped.
    let pump = {
        let (fabric, shutdown) = (Arc::clone(&fabric), Arc::clone(&shutdown));
        thread::spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                fabric.pump(0, Duration::from_millis(1));
                fabric.pump(1, Duration::from_millis(1));
            }
        })
    };

    let mech = DvvMechanism;
    for msg in &msgs {
        fabric.send_bytes(0, 1, msg.encode_transport(&mech));
    }

    // Every message arrives intact, in order, from node 0.
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < msgs.len() {
        assert!(Instant::now() < deadline, "messages never arrived");
        if let Ok((from, msg)) = rx1.recv_timeout(Duration::from_millis(100)) {
            assert_eq!(from.0, 0);
            got.push(msg);
        }
    }
    for (sent, received) in msgs.iter().zip(&got) {
        assert_eq!(
            sent.encode_transport(&DvvMechanism),
            received.encode_transport(&DvvMechanism),
            "message mutated in transit"
        );
    }

    shutdown.store(true, Ordering::Relaxed);
    pump.join().unwrap();
    fabric.stop();
    let stats = fabric.stats();
    assert_eq!(stats.enqueued_bytes, charged, "sender ledger\n{stats:#?}");
    assert_eq!(stats.written_bytes, charged, "socket writer\n{stats:#?}");
    assert_eq!(stats.recv_bytes, charged, "receiver\n{stats:#?}");
    assert_eq!(stats.dropped_bytes + stats.io_lost_frames, 0);
    assert_eq!(stats.connects, 1, "exactly one dialed link");
}
