//! The codec pass of the traced run: client and replica messages
//! rebuilt from a fleet's final per-key states are encoded, framed,
//! unframed and decoded through the public codec functions, each call
//! inside a span.

use std::io::Cursor;
use std::time::{Duration, Instant};

use dvv::mechanisms::{DvvMechanism, Mechanism};
use kvstore::harness::FleetHarness;
use kvstore::messages::Msg;
use kvstore::value::{StampedValue, WriteId};
use transport::{read_frame, write_frame, DEFAULT_MAX_FRAME};

use crate::trace::{self, Layer};
use crate::traced::{DvvState, TracedDvv};

/// Keys the sample takes from each server.
const KEYS_PER_SERVER: usize = 256;

/// Rebuilds the message sample from every member server's states: for
/// each key, the client GET and its reply, the client PUT that would
/// follow, and the replica read reply and replication that carry the
/// whole state.
pub fn sample<M, H>(fleet: &H) -> Vec<Msg<TracedDvv>>
where
    M: Mechanism<StampedValue, State = DvvState>,
    H: FleetHarness<M>,
{
    let mut out = Vec::new();
    let mut req = 0u64;
    for i in fleet.member_servers() {
        for (key, state) in fleet.server_ref(i).data().iter().take(KEYS_PER_SERVER) {
            let (values, ctx) = DvvMechanism.read(state);
            let value = values.first().cloned().unwrap_or_else(|| {
                StampedValue::new(WriteId::new(dvv::ClientId(0), 1), vec![0; 8])
            });
            req += 1;
            out.push(Msg::ClientGet {
                req,
                key: key.clone(),
                digest: req,
            });
            out.push(Msg::ClientGetResp {
                req,
                ok: true,
                values,
                ctx: ctx.clone(),
            });
            out.push(Msg::ClientPut {
                req,
                key: key.clone(),
                value,
                ctx,
                digest: req,
            });
            out.push(Msg::RepGetResp {
                req,
                key: key.clone(),
                state: state.clone(),
            });
            out.push(Msg::RepPut {
                req,
                key: key.clone(),
                state: state.clone(),
                hint: None,
            });
        }
    }
    out
}

fn round_trip(msg: &Msg<TracedDvv>) -> Result<Msg<TracedDvv>, String> {
    let body = trace::span(Layer::MsgEncode, || msg.encode_transport(&TracedDvv));
    let mut framed = Vec::with_capacity(body.len() + transport::HEADER_BYTES);
    trace::span(Layer::FrameWrite, || write_frame(&mut framed, &body))
        .map_err(|e| format!("write_frame: {e}"))?;
    let read = trace::span(Layer::FrameRead, || {
        read_frame(&mut Cursor::new(&framed), DEFAULT_MAX_FRAME)
    })
    .map_err(|e| format!("read_frame: {e}"))?
    .ok_or("read_frame: empty stream")?;
    trace::span(Layer::MsgDecode, || {
        Msg::<TracedDvv>::decode_transport(&TracedDvv, &read)
    })
    .map_err(|e| format!("decode_transport: {e}"))
}

/// Checks that every sample message survives the round trip byte for
/// byte, then times round trips over the sample for at least `min`.
/// Returns the folded spans of the timed passes only.
pub fn pass(sample: &[Msg<TracedDvv>], min: Duration) -> Result<trace::Totals, String> {
    for msg in sample {
        let first = msg.encode_transport(&TracedDvv);
        if round_trip(msg)?.encode_transport(&TracedDvv) != first {
            return Err(format!("codec round trip changed a {:?}", msg.class()));
        }
    }
    trace::collect();
    let started = Instant::now();
    while started.elapsed() < min {
        for msg in sample {
            std::hint::black_box(round_trip(msg)?);
        }
    }
    Ok(trace::collect())
}
