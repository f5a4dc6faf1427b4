//! Real socket transport driver for the kvstore protocol.
//!
//! The third — and only non-simulated — driver of the generic protocol
//! stack. Where the simulator's `Cluster` models the network and the
//! threaded `RuntimeFleet` passes `Msg` values through in-process
//! channels, this crate serialises every inter-node message with the
//! real wire codec ([`kvstore::messages::Msg::encode_transport`]),
//! frames it ([`frame`]) and ships it over loopback TCP connections
//! managed by a reconnecting connection layer ([`fabric`]) that each
//! node's own thread drives through `poll(2)`. The protocol code is
//! byte-for-byte the same in all three drivers, and the two real ones
//! share one host (`runtime::host`): its event loop, its
//! [`kvstore::ctx::NodeCtx`] implementation and its run supervisor.
//! Only the wire differs — this crate's is the socket one.
//!
//! Failure semantics deliberately mirror the in-process drivers: a full
//! outbound buffer or full inbox drops the message (wire loss the
//! protocol already tolerates), a torn/corrupt frame kills the
//! connection and the dialer reconnects with jittered backoff, and
//! anti-entropy repairs whatever an outage cost. The
//! [`fleet::SocketFleet`] harness implements
//! [`kvstore::harness::FleetHarness`], so the identical audit stack
//! (single view, AAE equivalence, residual audit, oracle-clean
//! converge) that gates the simulator and the threaded runtime gates
//! the socket driver too.

#![deny(unsafe_code)] // `poll` alone opts out, to call poll(2)
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fabric;
pub mod fleet;
pub mod frame;
mod poll;

pub use fabric::{hello_body, Fabric, FabricStats};
pub use fleet::{ConnKill, SocketConfig, SocketFleet};
pub use frame::{read_frame, write_frame, FrameError, Unframer, DEFAULT_MAX_FRAME, HEADER_BYTES};
