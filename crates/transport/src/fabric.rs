//! The socket fabric: listeners, reconnecting per-peer links, and the
//! fleet-wide byte ledger — all driven by the nodes' own threads.
//!
//! Every node owns a loopback TCP listener; messages between distinct
//! nodes travel as [`frame`](crate::frame)-encoded
//! `Msg::encode_transport` bodies over per-`(sender, receiver)`
//! connections dialed lazily on first send. The fabric spawns no
//! thread. Each node has an *endpoint* — its nonblocking listener, its
//! inbound connections and its outbound links — and the node's own
//! thread drives it with [`Fabric::pump`]: one `poll(2)` over the
//! endpoint's sockets, then accepting, reading and writing whatever is
//! ready. A frame therefore costs the sender one `write` and the
//! receiver one wake-up from `poll`, with no hand-off between threads.
//!
//! Each outbound link has:
//!
//! * a bounded buffer of at most `queue_capacity` frames — a full
//!   buffer drops the frame, exactly the threaded runtime's full-inbox
//!   wire-loss semantics, so a slow or dead peer can never block a
//!   sender; `pump` writes the buffer out with nonblocking writes;
//! * a connection that introduces itself with an *authenticated* hello
//!   frame — its node id plus a keyed FNV-1a tag over the fleet's
//!   shared cluster secret ([`hello_body`]) — and is redialed at once
//!   when it breaks, then with jittered exponential backoff while dials
//!   fail (a frame cut in half by the break is lost, `io_lost`; frames
//!   not yet started wait for the next connection). The accept side
//!   verifies the tag in constant time and terminally rejects the
//!   connection on any mismatch, so a stray process dialing a
//!   listener's port cannot inject frames attributed to a cluster
//!   member.
//!
//! Inbound, each connection feeds an incremental
//! [`Unframer`](crate::frame::Unframer); decoded messages go into the
//! node's bounded inbox, and a full inbox drops the message, matching
//! the runtime. A malformed frame (torn, oversized, bad checksum) or an
//! undecodable body kills that connection — a stream decoder cannot
//! resync after corruption — and the dialer's redial takes it from
//! there.
//!
//! The fabric keeps an atomic ledger of every byte it handles, split by
//! fate (written / queued / dropped / self-delivered / hello), so the
//! conformance suite can assert *charge parity*: the bytes the nodes'
//! wire ledgers charged equal the bytes the fabric accepted, to the
//! byte — the accounting the simulator models is the accounting the
//! socket driver measures.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::WireMechanism;
use kvstore::messages::Msg;
use kvstore::value::StampedValue;
use runtime::Progress;
use simnet::{NodeId, SimRng};
use storage::fnv1a64;

use crate::frame::{self, Unframer, HEADER_BYTES};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// Initial reconnect backoff.
const BACKOFF_BASE_MS: u64 = 1;
/// Backoff cap (before jitter).
const BACKOFF_CAP_MS: u64 = 128;
/// Cap on one dial. A loopback connect to a live listener completes at
/// once; this bounds the stall if the listener's backlog is full.
const DIAL_TIMEOUT: StdDuration = StdDuration::from_millis(50);
/// Bytes asked of an inbound connection per `read`.
const READ_CHUNK: usize = 16 << 10;

/// Bytes in an authenticated hello body: 4-byte node id + 8-byte tag.
const HELLO_LEN: usize = 12;

/// The authenticated hello body for `node` under `secret`: the node id
/// plus [`hello_tag`] over it. Public so tests (and any future
/// out-of-process peer) can speak the handshake.
#[must_use]
pub fn hello_body(node: u32, secret: u64) -> [u8; HELLO_LEN] {
    let mut body = [0u8; HELLO_LEN];
    body[..4].copy_from_slice(&node.to_le_bytes());
    body[4..].copy_from_slice(&hello_tag(node, secret).to_le_bytes());
    body
}

/// The keyed challenge tag: FNV-1a-64 over `secret || node`. FNV is not
/// a MAC against a resourceful adversary; the threat here is accidental
/// cross-talk — a stray process, a mis-configured fleet, a port reused
/// across runs — dialing a listener and having its frames attributed to
/// a cluster member. Matching the storage log's hash keeps the
/// dependency surface at zero.
fn hello_tag(node: u32, secret: u64) -> u64 {
    let mut keyed = [0u8; 12];
    keyed[..8].copy_from_slice(&secret.to_le_bytes());
    keyed[8..].copy_from_slice(&node.to_le_bytes());
    fnv1a64(&keyed)
}

/// Constant-time tag comparison: folds the XOR of every byte pair so
/// the time taken is independent of which byte (if any) differs.
fn tags_match(a: u64, b: u64) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.to_le_bytes().into_iter().zip(b.to_le_bytes()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// A message delivered into a node's inbox: the sending node plus the
/// decoded message.
pub type InPacket<M> = (NodeId, Msg<M>);

/// Snapshot of the fabric's byte/frame ledger.
///
/// Invariant (asserted by the conformance suite): every byte a node's
/// `ctx.send` charged is accounted exactly once as `enqueued`,
/// `dropped` or `self_delivered`, so
/// `enqueued_bytes + dropped_bytes + self_bytes` equals the fleet's
/// summed wire ledgers. `written` trails `enqueued` only by frames
/// still queued (or lost to a broken connection) at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames accepted into an outbound buffer.
    pub enqueued_frames: u64,
    /// Bytes (header included) accepted into an outbound buffer.
    pub enqueued_bytes: u64,
    /// Frames actually written to a socket.
    pub written_frames: u64,
    /// Bytes (header included) actually written to a socket.
    pub written_bytes: u64,
    /// Frames dropped at enqueue: buffer full or fabric shut down.
    pub dropped_frames: u64,
    /// Bytes dropped at enqueue.
    pub dropped_bytes: u64,
    /// Frames lost to a connection that broke while they were being
    /// written.
    pub io_lost_frames: u64,
    /// Self-sends delivered locally, bypassing the sockets.
    pub self_frames: u64,
    /// Bytes (header included) self-delivered locally.
    pub self_bytes: u64,
    /// Bytes spent on hello frames (connection setup, not message
    /// traffic — kept out of the data ledger on purpose).
    pub hello_bytes: u64,
    /// Successful outbound connection establishments.
    pub connects: u64,
    /// Connects beyond each link's first — i.e. recoveries after a
    /// broken connection.
    pub reconnects: u64,
    /// Frames received and decoded.
    pub recv_frames: u64,
    /// Bytes (header included) received in decoded frames.
    pub recv_bytes: u64,
    /// Connections dropped on a frame-layer error (torn / oversized /
    /// bad checksum).
    pub frame_errors: u64,
    /// Connections dropped on an undecodable message body.
    pub decode_errors: u64,
    /// Connections terminally rejected at the hello: malformed body,
    /// out-of-range node id, or a challenge tag that does not match the
    /// cluster secret.
    pub hello_rejects: u64,
    /// Decoded messages dropped because the destination inbox was full.
    pub inbox_drops: u64,
}

#[derive(Debug, Default)]
struct Counters {
    enqueued_frames: AtomicU64,
    enqueued_bytes: AtomicU64,
    written_frames: AtomicU64,
    written_bytes: AtomicU64,
    dropped_frames: AtomicU64,
    dropped_bytes: AtomicU64,
    io_lost_frames: AtomicU64,
    self_frames: AtomicU64,
    self_bytes: AtomicU64,
    hello_bytes: AtomicU64,
    connects: AtomicU64,
    reconnects: AtomicU64,
    recv_frames: AtomicU64,
    recv_bytes: AtomicU64,
    frame_errors: AtomicU64,
    decode_errors: AtomicU64,
    hello_rejects: AtomicU64,
    inbox_drops: AtomicU64,
}

/// Adds `by` to a ledger counter.
fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// One node's sockets: everything its thread polls.
#[derive(Default)]
struct Endpoint {
    listener: Option<TcpListener>,
    inbound: Vec<Inbound>,
    /// Outbound links by destination node, created on first send.
    links: Vec<Option<Link>>,
}

/// An accepted connection.
struct Inbound {
    stream: TcpStream,
    /// The authenticated dialer, once its hello has passed.
    from: Option<usize>,
    unframer: Unframer,
    /// Cleared when the connection dies; the endpoint then forgets it.
    open: bool,
}

/// One directed link `node → to`: its frame buffer and, while
/// connected, its socket.
struct Link {
    stream: Option<TcpStream>,
    /// Queued frames back to back; `buf[sent..]` is not yet written.
    buf: Vec<u8>,
    sent: usize,
    /// Byte length of every frame not yet fully written, oldest first.
    /// Never longer than the fabric's `queue_capacity`.
    frames: VecDeque<usize>,
    /// Bytes of `frames[0]` already written.
    head_written: usize,
    /// While disconnected: when to dial next.
    redial_at: Instant,
    backoff_ms: u64,
    connected_before: bool,
    /// Backoff jitter stream.
    rng: SimRng,
}

impl Link {
    fn pending(&self) -> bool {
        self.sent < self.buf.len()
    }
}

/// What a polled descriptor belongs to.
#[derive(Clone, Copy)]
enum Slot {
    Listener,
    Inbound(usize),
    Link(usize),
}

/// The shared socket layer of a [`SocketFleet`](crate::fleet::SocketFleet).
pub struct Fabric<M: WireMechanism<StampedValue>> {
    mech: M,
    addrs: Vec<SocketAddr>,
    inboxes: Vec<SyncSender<InPacket<M>>>,
    progress: Arc<Progress>,
    shutdown: Arc<AtomicBool>,
    counters: Counters,
    endpoints: Vec<Mutex<Endpoint>>,
    rng_root: SimRng,
    queue_capacity: usize,
    max_frame: usize,
    secret: u64,
}

impl<M> std::fmt::Debug for Fabric<M>
where
    M: WireMechanism<StampedValue>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.addrs.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<M: WireMechanism<StampedValue>> Fabric<M> {
    /// Binds one nonblocking loopback listener per node and returns the
    /// shared fabric. `inboxes[i]` receives decoded messages addressed
    /// to node `i`; `rng_root` seeds the per-link backoff jitter
    /// streams; `secret` keys the hello challenge every inbound
    /// connection must pass. Nothing moves until the nodes are pumped
    /// ([`pump`](Self::pump)).
    #[allow(clippy::too_many_arguments)] // the fleet's one construction site
    pub fn start(
        mech: M,
        nodes: usize,
        inboxes: Vec<SyncSender<InPacket<M>>>,
        progress: Arc<Progress>,
        shutdown: Arc<AtomicBool>,
        rng_root: SimRng,
        queue_capacity: usize,
        max_frame: usize,
        secret: u64,
    ) -> std::io::Result<Arc<Self>> {
        assert_eq!(inboxes.len(), nodes, "one inbox per node");
        let mut addrs = Vec::with_capacity(nodes);
        let mut endpoints = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            endpoints.push(Mutex::new(Endpoint {
                listener: Some(listener),
                inbound: Vec::new(),
                links: (0..nodes).map(|_| None).collect(),
            }));
        }
        Ok(Arc::new(Fabric {
            mech,
            addrs,
            inboxes,
            progress,
            shutdown,
            counters: Counters::default(),
            endpoints,
            rng_root,
            queue_capacity,
            max_frame,
            secret,
        }))
    }

    /// The listen address of node `i` (loopback, ephemeral port).
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// Snapshot of the byte/frame ledger.
    pub fn stats(&self) -> FabricStats {
        let c = &self.counters;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FabricStats {
            enqueued_frames: ld(&c.enqueued_frames),
            enqueued_bytes: ld(&c.enqueued_bytes),
            written_frames: ld(&c.written_frames),
            written_bytes: ld(&c.written_bytes),
            dropped_frames: ld(&c.dropped_frames),
            dropped_bytes: ld(&c.dropped_bytes),
            io_lost_frames: ld(&c.io_lost_frames),
            self_frames: ld(&c.self_frames),
            self_bytes: ld(&c.self_bytes),
            hello_bytes: ld(&c.hello_bytes),
            connects: ld(&c.connects),
            reconnects: ld(&c.reconnects),
            recv_frames: ld(&c.recv_frames),
            recv_bytes: ld(&c.recv_bytes),
            frame_errors: ld(&c.frame_errors),
            decode_errors: ld(&c.decode_errors),
            hello_rejects: ld(&c.hello_rejects),
            inbox_drops: ld(&c.inbox_drops),
        }
    }

    fn endpoint(&self, node: usize) -> MutexGuard<'_, Endpoint> {
        self.endpoints[node].lock().expect("endpoint lock")
    }

    /// Queues an encoded message body for transmission `from → to`; the
    /// link is dialed and the frame written when `from` is next pumped.
    /// A full buffer (or a shut-down fabric) drops the frame — wire
    /// loss, charged to the ledger as `dropped`. Never blocks on I/O.
    pub fn send_bytes(&self, from: usize, to: usize, body: Vec<u8>) {
        let bytes = body.len() + HEADER_BYTES;
        let queued = !self.shutdown.load(Ordering::Relaxed) && {
            let mut ep = self.endpoint(from);
            let link = ep.links[to].get_or_insert_with(|| self.new_link(from, to));
            link.frames.len() < self.queue_capacity && {
                frame::append_frame(&mut link.buf, &body);
                link.frames.push_back(bytes);
                true
            }
        };
        let c = &self.counters;
        if queued {
            bump(&c.enqueued_frames, 1);
            bump(&c.enqueued_bytes, bytes as u64);
        } else {
            bump(&c.dropped_frames, 1);
            bump(&c.dropped_bytes, bytes as u64);
        }
    }

    /// Records a self-send delivered locally (self-traffic never
    /// touches a socket, but its charged bytes must still balance the
    /// ledger identity).
    pub fn note_self(&self, wire_bytes: usize) {
        bump(&self.counters.self_frames, 1);
        bump(&self.counters.self_bytes, wire_bytes as u64);
    }

    /// Severs every live connection touching `node` (both directions).
    /// Their owners see the break on their next pump; dialers redial.
    /// Returns how many connections were killed.
    pub fn kill_node_connections(&self, node: usize) -> usize {
        let mut killed = 0;
        for (owner, ep) in self.endpoints.iter().enumerate() {
            let ep = ep.lock().expect("endpoint lock");
            let inbound = ep
                .inbound
                .iter()
                .filter(|c| c.open && c.from.is_some_and(|f| owner == node || f == node))
                .map(|c| &c.stream);
            let outbound = ep
                .links
                .iter()
                .enumerate()
                .filter(|(to, _)| owner == node || *to == node)
                .filter_map(|(_, l)| l.as_ref()?.stream.as_ref());
            for stream in inbound.chain(outbound) {
                let _ = stream.shutdown(Shutdown::Both);
                killed += 1;
            }
        }
        killed
    }

    /// Tears the fabric down: requires the shared shutdown flag to be
    /// set (which stops pumping and sending), then closes every
    /// listener and connection. Frames still buffered are abandoned.
    pub fn stop(&self) {
        assert!(
            self.shutdown.load(Ordering::Relaxed),
            "set the shared shutdown flag before Fabric::stop"
        );
        for ep in &self.endpoints {
            *ep.lock().expect("endpoint lock") = Endpoint::default();
        }
    }

    /// Drives node `node`'s sockets once. Redials links whose backoff
    /// has passed and writes what the kernel takes of every buffer;
    /// then waits in `poll(2)`, up to `timeout` (rounded up to whole
    /// milliseconds, and cut short by a pending redial), for any of the
    /// node's sockets; then accepts and authenticates new connections,
    /// reads and decodes frames into the node's inbox, finishes writes
    /// and notices broken links. Returns the messages delivered into
    /// the inbox.
    ///
    /// One thread at a time pumps a given node — in a
    /// [`SocketFleet`](crate::fleet::SocketFleet), the node's own.
    /// Sends may come from any thread. After shutdown it returns 0 at
    /// once.
    pub fn pump(&self, node: usize, timeout: StdDuration) -> usize {
        let mut fds = Vec::new();
        let mut slots = Vec::new();
        let mut wait = timeout;
        {
            let mut ep = self.endpoint(node);
            if self.shutdown.load(Ordering::Relaxed) {
                return 0;
            }
            let now = Instant::now();
            for (to, link) in ep.links.iter_mut().enumerate() {
                let Some(link) = link else { continue };
                if link.stream.is_none() && link.redial_at <= now {
                    self.dial(node, to, link);
                }
                self.flush(link);
                match &link.stream {
                    Some(s) => {
                        let events = if link.pending() {
                            POLLIN | POLLOUT
                        } else {
                            POLLIN
                        };
                        fds.push(PollFd::new(s, events));
                        slots.push(Slot::Link(to));
                    }
                    None => wait = wait.min(link.redial_at.saturating_duration_since(now)),
                }
            }
            if let Some(l) = &ep.listener {
                fds.push(PollFd::new(l, POLLIN));
                slots.push(Slot::Listener);
            }
            for (i, c) in ep.inbound.iter().enumerate() {
                fds.push(PollFd::new(&c.stream, POLLIN));
                slots.push(Slot::Inbound(i));
            }
        }
        if poll::wait(&mut fds, wait) == 0 {
            return 0;
        }
        // Only this thread adds or removes the endpoint's connections
        // (`stop` aside, which empties it), so the slots still match.
        let mut ep = self.endpoint(node);
        let mut delivered = 0;
        for (fd, slot) in fds.iter().zip(slots) {
            match slot {
                Slot::Listener if fd.ready(POLLIN) => self.accept(&mut ep),
                Slot::Inbound(i) if fd.ready(POLLIN) => {
                    if let Some(c) = ep.inbound.get_mut(i) {
                        delivered += self.read(node, c);
                    }
                }
                Slot::Link(to) => {
                    if let Some(Some(link)) = ep.links.get_mut(to) {
                        if fd.ready(POLLIN) {
                            self.check_link(link);
                        }
                        if fd.ready(POLLOUT) {
                            self.flush(link);
                        }
                    }
                }
                _ => {}
            }
        }
        ep.inbound.retain(|c| c.open);
        delivered
    }

    /// A fresh, unconnected link `from → to`, due to dial at once.
    fn new_link(&self, from: usize, to: usize) -> Link {
        let n = self.addrs.len() as u64;
        Link {
            stream: None,
            buf: Vec::new(),
            sent: 0,
            frames: VecDeque::new(),
            head_written: 0,
            redial_at: Instant::now(),
            backoff_ms: BACKOFF_BASE_MS,
            connected_before: false,
            rng: self
                .rng_root
                .fork_indexed("link", from as u64 * n + to as u64),
        }
    }

    /// Dials `to` and says hello; on failure, schedules the next try
    /// with jittered exponential backoff.
    fn dial(&self, from: usize, to: usize, link: &mut Link) {
        let hello = hello_body(from as u32, self.secret);
        let connect = || -> std::io::Result<TcpStream> {
            let mut s = TcpStream::connect_timeout(&self.addrs[to], DIAL_TIMEOUT)?;
            s.set_nodelay(true)?;
            // Introduce ourselves — id plus keyed tag — so the reader
            // can both attribute and *authenticate* every subsequent
            // frame on this connection.
            frame::write_frame(&mut s, &hello)?;
            s.set_nonblocking(true)?;
            Ok(s)
        };
        match connect() {
            Ok(s) => {
                let c = &self.counters;
                bump(&c.hello_bytes, (HEADER_BYTES + hello.len()) as u64);
                bump(&c.connects, 1);
                if link.connected_before {
                    bump(&c.reconnects, 1);
                }
                link.connected_before = true;
                link.backoff_ms = BACKOFF_BASE_MS;
                link.stream = Some(s);
            }
            Err(_) => {
                let jitter = link.rng.range_u64(0, link.backoff_ms + 1);
                link.redial_at =
                    Instant::now() + StdDuration::from_millis(link.backoff_ms + jitter);
                link.backoff_ms = (link.backoff_ms * 2).min(BACKOFF_CAP_MS);
            }
        }
    }

    /// Writes as much of the link's buffer as the socket takes without
    /// blocking, counting every frame whose last byte went out.
    fn flush(&self, link: &mut Link) {
        let Some(stream) = &mut link.stream else {
            return;
        };
        let mut broken = false;
        while link.sent < link.buf.len() {
            match stream.write(&link.buf[link.sent..]) {
                Ok(0) => broken = true,
                Ok(n) => {
                    link.sent += n;
                    link.head_written += n;
                    while let Some(&len) = link.frames.front() {
                        if link.head_written < len {
                            break;
                        }
                        link.head_written -= len;
                        link.frames.pop_front();
                        bump(&self.counters.written_frames, 1);
                        bump(&self.counters.written_bytes, len as u64);
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => broken = e.kind() != ErrorKind::WouldBlock,
            }
            break;
        }
        if broken {
            self.break_link(link);
        } else if !link.pending() {
            link.buf.clear();
            link.sent = 0;
        } else if link.sent - link.head_written > link.buf.len() / 2 {
            link.buf.drain(..link.sent - link.head_written);
            link.sent = link.head_written;
        }
    }

    /// An outbound connection polled readable: the peer never speaks on
    /// it, so this is a close, a reset or a protocol violation.
    fn check_link(&self, link: &mut Link) {
        let Some(stream) = &mut link.stream else {
            return;
        };
        match stream.read(&mut [0u8; 64]) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            _ => self.break_link(link),
        }
    }

    /// Drops a broken connection. The frame it broke inside is lost;
    /// frames not yet started wait for the redial, which is immediate.
    fn break_link(&self, link: &mut Link) {
        link.stream = None;
        if link.head_written > 0 {
            let len = link.frames.pop_front().expect("a frame was in flight");
            link.sent += len - link.head_written;
            link.head_written = 0;
            bump(&self.counters.io_lost_frames, 1);
        }
        link.buf.drain(..link.sent);
        link.sent = 0;
        link.redial_at = Instant::now();
    }

    /// Accepts every waiting connection; each must pass the hello
    /// before its frames count.
    fn accept(&self, ep: &mut Endpoint) {
        let Some(listener) = &ep.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        ep.inbound.push(Inbound {
                            stream,
                            from: None,
                            unframer: Unframer::new(self.max_frame),
                            open: true,
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Verifies an inbound hello body: well-formed, in-range node id,
    /// and a challenge tag matching the cluster secret (compared in
    /// constant time). Returns the authenticated dialer index.
    fn verify_hello(&self, body: &[u8]) -> Option<usize> {
        if body.len() != HELLO_LEN {
            return None;
        }
        let id = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
        let tag = u64::from_le_bytes(body[4..].try_into().expect("8 bytes"));
        if (id as usize) < self.addrs.len() && tags_match(tag, hello_tag(id, self.secret)) {
            Some(id as usize)
        } else {
            None
        }
    }

    /// Kills an inbound connection, charging `counter` — or, if the
    /// connection never passed its hello, `hello_rejects`: no retry
    /// negotiation, the (legitimate) dialer's redial owns recovery.
    fn fail(&self, c: &mut Inbound, counter: &AtomicU64) {
        let counter = if c.from.is_some() {
            counter
        } else {
            &self.counters.hello_rejects
        };
        bump(counter, 1);
        let _ = c.stream.shutdown(Shutdown::Both);
        c.open = false;
    }

    /// Reads what an inbound connection has for node `to` and delivers
    /// the frames it completes. Returns the messages delivered.
    fn read(&self, to: usize, c: &mut Inbound) -> usize {
        let mut delivered = 0;
        loop {
            let limit = c.unframer.missing().max(READ_CHUNK);
            match c.unframer.read_from(&mut c.stream, limit) {
                Ok(0) => {
                    // End of stream: clean between frames (including a
                    // close before any hello), torn inside one.
                    if c.unframer.finish().is_err() {
                        self.fail(c, &self.counters.frame_errors);
                    }
                    c.open = false;
                    return delivered;
                }
                Ok(n) => {
                    delivered += self.deliver(to, c);
                    if !c.open || n < limit {
                        return delivered;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return delivered,
                Err(_) => {
                    self.fail(c, &self.counters.frame_errors);
                    return delivered;
                }
            }
        }
    }

    /// Takes every complete frame off an inbound connection: the first
    /// is its hello, the rest are messages for node `to`'s inbox.
    fn deliver(&self, to: usize, c: &mut Inbound) -> usize {
        let mut delivered = 0;
        loop {
            let body = match c.unframer.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return delivered,
                Err(_) => {
                    self.fail(c, &self.counters.frame_errors);
                    return delivered;
                }
            };
            let Some(from) = c.from else {
                // The hello attributes the connection to its dialer.
                match self.verify_hello(body) {
                    Some(id) => c.from = Some(id),
                    None => {
                        self.fail(c, &self.counters.hello_rejects);
                        return delivered;
                    }
                }
                continue;
            };
            bump(&self.counters.recv_frames, 1);
            bump(
                &self.counters.recv_bytes,
                (body.len() + HEADER_BYTES) as u64,
            );
            let Ok(msg) = Msg::<M>::decode_transport(&self.mech, body) else {
                // Undecodable body: the stream can no longer be
                // trusted. Drop the connection.
                self.fail(c, &self.counters.decode_errors);
                return delivered;
            };
            match self.inboxes[to].try_send((NodeId(from as u32), msg)) {
                Ok(()) => {
                    self.progress.inbox_depth[to].fetch_add(1, Ordering::Relaxed);
                    delivered += 1;
                }
                // Wire loss at the inbox, same as the threaded
                // runtime's bounded inboxes.
                Err(TrySendError::Full(_)) => bump(&self.counters.inbox_drops, 1),
                Err(TrySendError::Disconnected(_)) => {
                    c.open = false;
                    return delivered;
                }
            }
        }
    }
}
