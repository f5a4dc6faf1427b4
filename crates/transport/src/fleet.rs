//! [`SocketFleet`]: the kvstore protocol over real TCP sockets.
//!
//! The third driver. Layout matches the simulator's `Cluster` and the
//! threaded `RuntimeFleet` — node ids `0..servers` are replica servers,
//! `servers..servers + clients` are closed-loop clients — but every
//! inter-node message is *actually serialised*
//! ([`Msg::encode_transport`]), framed ([`crate::frame`]) and sent
//! through a loopback TCP connection managed by the
//! [`Fabric`](crate::fabric::Fabric). Each node runs its own event-loop
//! thread and dispatches the same generic
//! `on_start`/`on_message`/`on_timer` protocol code the other two
//! drivers host, through the runtime's [`RtCtx`] adapter; self-sends
//! are delivered locally (a node does not dial itself), every other
//! message takes the wire.
//!
//! The node thread also does the node's socket I/O: there is no other
//! thread per node or per link. After each dispatch batch it pumps its
//! fabric endpoint ([`Fabric::pump`]), which writes the batch's frames
//! with nonblocking writes and then sleeps in `poll(2)` until one of
//! the node's sockets is ready or the node's next timer is due (20 ms
//! at most, so shutdown is noticed); the frames it reads land in the
//! node's inbox and are dispatched next. A run's threads are the
//! nodes, the stall watchdog and the caller.
//!
//! `StoreConfig::header_bytes` is forced to the frame codec's real
//! [`HEADER_BYTES`](crate::frame::HEADER_BYTES), so the per-class wire
//! ledgers charge exactly the bytes written to the sockets — the
//! accounting the paper's evaluation models is measured here, not
//! assumed. The conformance suite asserts the identity to the byte.
//!
//! Post-run, the fleet implements [`kvstore::harness::FleetHarness`],
//! so the same `audit_fleet` stack (one view, AAE equivalence, residual
//! audit, oracle-clean converge) that gates the other drivers gates
//! this one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::WireMechanism;
use dvv::{ClientId, ReplicaId};
use kvstore::client::ClientNode;
use kvstore::cluster::StoreProc;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::FleetHarness;
use kvstore::messages::Msg;
use kvstore::node::StoreNode;
use kvstore::value::StampedValue;
use ring::RingView;
use runtime::watchdog::{self, Progress, StallReport};
use runtime::{NodeSnapshot, RtCtx, RunReport, TimerWheel};
use simnet::{NodeId, SimRng, SimTime, TimerId};

use crate::fabric::{Fabric, FabricStats, InPacket};
use crate::frame;

/// Clean AAE rounds every server must initiate, after the last observed
/// repair activity, before the quiesce may end early (same rule as the
/// threaded runtime).
const SETTLE_CLEAN_ROUNDS: u64 = 8;

/// A scheduled connection fault: at `after` (wall clock from run
/// start), every live TCP connection touching `node` is severed. The
/// frames in flight are wire loss; dialers reconnect with backoff and
/// anti-entropy repairs whatever the outage cost — the run must still
/// audit clean.
#[derive(Clone, Copy, Debug)]
pub struct ConnKill {
    /// Wall clock from run start to the cut.
    pub after: StdDuration,
    /// Node whose connections are severed (both directions).
    pub node: usize,
}

/// Complete configuration of a [`SocketFleet`] run.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Number of replica servers (one event-loop thread each).
    pub servers: usize,
    /// Number of closed-loop client sessions (one thread each).
    pub clients: usize,
    /// Read-modify-write cycles per client.
    pub cycles_per_client: u32,
    /// Store protocol parameters. `header_bytes` is overridden with the
    /// frame codec's real header size at build time.
    pub store: StoreConfig,
    /// Client session parameters (`cycles` overridden by
    /// `cycles_per_client`).
    pub client: ClientConfig,
    /// Inbox slots per node; a full inbox drops (wire loss).
    pub inbox_capacity: usize,
    /// Outbound frames buffered per link; a full buffer drops (wire
    /// loss).
    pub queue_capacity: usize,
    /// Frame body cap; an announced length beyond this kills the
    /// connection.
    pub max_frame: usize,
    /// The watchdog declares a stall after this long without a client
    /// op completing.
    pub stall_budget: StdDuration,
    /// Watchdog polling interval.
    pub watchdog_poll: StdDuration,
    /// Hard wall-clock stop for the whole run.
    pub run_budget: StdDuration,
    /// Settling budget after the last client finishes (exits early once
    /// repairs sit still for [`settle_window`](Self::settle_window)).
    pub quiesce: StdDuration,
    /// How long the repair counters must sit still before the quiesce
    /// is settled.
    pub settle_window: StdDuration,
    /// Scheduled connection faults (see [`ConnKill`]).
    pub conn_kills: Vec<ConnKill>,
    /// Shared cluster secret keying the hello challenge every inbound
    /// connection must answer (see [`crate::fabric::hello_body`]). All
    /// nodes of one fleet must agree on it; a dialer with the wrong
    /// secret is terminally rejected at the handshake.
    pub cluster_secret: u64,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            servers: 3,
            clients: 8,
            cycles_per_client: 20,
            store: StoreConfig::default(),
            client: ClientConfig::default(),
            inbox_capacity: 1024,
            queue_capacity: 256,
            max_frame: frame::DEFAULT_MAX_FRAME,
            stall_budget: StdDuration::from_secs(10),
            watchdog_poll: StdDuration::from_millis(25),
            run_budget: StdDuration::from_secs(120),
            quiesce: StdDuration::from_millis(500),
            settle_window: StdDuration::from_millis(400),
            conn_kills: Vec::new(),
            cluster_secret: 0xd077_edc1_0057_e2ab, // any agreed-upon value
        }
    }
}

/// One node hosted on its own event-loop thread.
#[derive(Debug)]
struct Hosted<M: WireMechanism<StampedValue>> {
    id: NodeId,
    proc_: StoreProc<M>,
    rng: SimRng,
    wheel: TimerWheel<TimerId>,
    next_timer: u64,
    was_done: bool,
    last_ops: u64,
}

/// An event to dispatch into a hosted node.
enum Ev<M: WireMechanism<StampedValue>> {
    Start,
    Message { from: NodeId, msg: Msg<M> },
    Timer(TimerId),
}

/// The socket-transport fleet. Build with [`SocketFleet::new`], run
/// with [`SocketFleet::run`], audit through
/// [`kvstore::harness::FleetHarness`] like any other driver.
#[derive(Debug)]
pub struct SocketFleet<M: WireMechanism<StampedValue>> {
    config: SocketConfig,
    mech: M,
    view: RingView<ReplicaId>,
    nodes: Vec<Hosted<M>>,
    snapshots: Arc<Vec<Mutex<NodeSnapshot>>>,
    progress: Arc<Progress>,
    net_root: SimRng,
    fabric_stats: Option<FabricStats>,
}

impl<M> SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    /// Builds a fleet. Protocol randomness derives from `seed` through
    /// the same `fork_indexed("node", i)` scheme the other drivers use;
    /// `store.header_bytes` is replaced with the frame codec's real
    /// header size so the wire ledgers account actual socket bytes.
    pub fn new(seed: u64, mech: M, mut config: SocketConfig) -> Self {
        assert!(config.servers > 0, "need at least one server");
        config.store.header_bytes = frame::HEADER_BYTES;
        config.store.validate();
        assert!(
            config.store.n <= config.servers,
            "replication factor exceeds server count"
        );
        for k in &config.conn_kills {
            assert!(
                k.node < config.servers + config.clients,
                "connection kill on unknown node {}",
                k.node
            );
        }
        let root = SimRng::new(seed);
        let replicas: Vec<ReplicaId> = (0..config.servers as u32).map(ReplicaId).collect();
        let view = RingView::from_members(replicas.iter().copied());
        let total = config.servers + config.clients;

        let mut nodes = Vec::with_capacity(total);
        for r in &replicas {
            nodes.push(Hosted {
                id: NodeId(r.0),
                proc_: StoreProc::Server(StoreNode::new(
                    *r,
                    mech.clone(),
                    config.store,
                    view.clone(),
                )),
                rng: root.fork_indexed("node", r.0 as u64),
                wheel: TimerWheel::new(),
                next_timer: 0,
                was_done: false,
                last_ops: 0,
            });
        }
        for j in 0..config.clients {
            let node_index = (config.servers + j) as u32;
            let mut client_cfg = config.client.clone();
            client_cfg.cycles = config.cycles_per_client;
            nodes.push(Hosted {
                id: NodeId(node_index),
                proc_: StoreProc::Client(ClientNode::new(
                    ClientId(j as u64),
                    node_index,
                    mech.clone(),
                    client_cfg,
                    config.store.n,
                    config.store.header_bytes,
                    view.clone(),
                    config.store.vnodes,
                )),
                rng: root.fork_indexed("node", node_index as u64),
                wheel: TimerWheel::new(),
                next_timer: 0,
                was_done: false,
                last_ops: 0,
            });
        }
        SocketFleet {
            config,
            mech,
            view,
            nodes,
            snapshots: Arc::new(
                (0..total)
                    .map(|_| Mutex::new(NodeSnapshot::default()))
                    .collect(),
            ),
            progress: Arc::new(Progress::new(total)),
            net_root: root.fork("socknet"),
            fabric_stats: None,
        }
    }

    /// The fabric's byte/frame ledger from the last completed run.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has not run yet.
    pub fn fabric_report(&self) -> FabricStats {
        self.fabric_stats.expect("fabric report requires a run")
    }

    /// Runs the fleet to completion over real sockets: binds one
    /// loopback listener per node, spawns per-node event threads (which
    /// drive their own sockets) plus the stall watchdog, waits for every
    /// client, quiesces until the repair ledger sits still, then tears
    /// the fabric down and reassembles the nodes for inspection.
    ///
    /// Returns `Err` with per-node diagnostics if the watchdog declares
    /// a stall or the run budget expires first.
    pub fn run(&mut self) -> Result<RunReport, StallReport> {
        let cfg = self.config.clone();
        let total = cfg.servers + cfg.clients;
        let shutdown = Arc::new(AtomicBool::new(false));
        let origin = Instant::now();

        // One bounded inbox per node, fed by the node's own pumps.
        let mut inbox_txs: Vec<SyncSender<InPacket<M>>> = Vec::with_capacity(total);
        let mut inbox_rxs: Vec<Option<Receiver<InPacket<M>>>> = Vec::with_capacity(total);
        for _ in 0..total {
            let (tx, rx) = mpsc::sync_channel(cfg.inbox_capacity);
            inbox_txs.push(tx);
            inbox_rxs.push(Some(rx));
        }

        let fabric = Fabric::start(
            self.mech.clone(),
            total,
            inbox_txs,
            Arc::clone(&self.progress),
            Arc::clone(&shutdown),
            self.net_root.fork("fabric"),
            cfg.queue_capacity,
            cfg.max_frame,
            cfg.cluster_secret,
        )
        .expect("bind loopback listeners");

        // Node event-loop threads.
        let nodes = std::mem::take(&mut self.nodes);
        let mut handles: Vec<JoinHandle<Hosted<M>>> = Vec::new();
        for h in nodes {
            let rx = inbox_rxs[h.id.0 as usize]
                .take()
                .expect("receiver taken once");
            let f = Arc::clone(&fabric);
            let snapshots = Arc::clone(&self.snapshots);
            let progress = Arc::clone(&self.progress);
            let sd = Arc::clone(&shutdown);
            handles.push(thread::spawn(move || {
                node_loop(h, rx, f, progress, snapshots, sd, origin)
            }));
        }

        // Stall watchdog.
        let report_slot: Arc<Mutex<Option<StallReport>>> = Arc::new(Mutex::new(None));
        let wd_handle = {
            let progress = Arc::clone(&self.progress);
            let wd_shutdown = Arc::clone(&shutdown);
            let slot = Arc::clone(&report_slot);
            let clients = cfg.clients as u64;
            let budget = cfg.stall_budget;
            let poll = cfg.watchdog_poll;
            thread::spawn(move || {
                watchdog::supervise(progress, wd_shutdown, slot, origin, clients, budget, poll)
            })
        };

        // Wait for completion, a stall, or the run budget, cutting
        // connections as the kill schedule comes due.
        let started = origin;
        let mut kills_fired = vec![false; cfg.conn_kills.len()];
        let mut elapsed = None;
        loop {
            drive_conn_kills(&cfg.conn_kills, &mut kills_fired, started, &fabric);
            if self.progress.stalled.load(Ordering::Relaxed) {
                break;
            }
            if self.progress.done_clients.load(Ordering::Relaxed) >= cfg.clients as u64 {
                elapsed = Some(started.elapsed());
                break;
            }
            if started.elapsed() > cfg.run_budget {
                break;
            }
            thread::sleep(StdDuration::from_millis(2));
        }

        let stalled = self.progress.stalled.load(Ordering::Relaxed);
        if elapsed.is_some() {
            // Quiesce: let reconnects, repairs and AAE land; exit early
            // once the repair ledger has been still for the window and
            // every server has initiated clean AAE rounds since.
            let settle_started = Instant::now();
            let (mut last_sig, mut rounds_floor) = self.settle_probe();
            let mut still_since = Instant::now();
            while settle_started.elapsed() < cfg.quiesce && started.elapsed() <= cfg.run_budget {
                thread::sleep(StdDuration::from_millis(50));
                drive_conn_kills(&cfg.conn_kills, &mut kills_fired, started, &fabric);
                let (sig, rounds) = self.settle_probe();
                if sig != last_sig {
                    last_sig = sig;
                    rounds_floor = rounds;
                    still_since = Instant::now();
                } else if kills_fired.iter().all(|f| *f)
                    && still_since.elapsed() >= cfg.settle_window
                    && rounds >= rounds_floor + SETTLE_CLEAN_ROUNDS
                {
                    break;
                }
            }
        }
        shutdown.store(true, Ordering::Relaxed);

        let mut returned: Vec<Hosted<M>> = Vec::with_capacity(total);
        for h in handles {
            returned.push(h.join().expect("node thread panicked"));
        }
        returned.sort_by_key(|h| h.id.0);
        self.nodes = returned;
        fabric.stop();
        self.fabric_stats = Some(fabric.stats());
        wd_handle.join().expect("watchdog thread panicked");

        if stalled {
            let report = report_slot
                .lock()
                .expect("watchdog slot")
                .take()
                .expect("stall implies report");
            return Err(report);
        }
        match elapsed {
            Some(elapsed) => Ok(RunReport {
                elapsed,
                ops_ok: self.progress.ops_ok.load(Ordering::Relaxed),
                all_done: true,
            }),
            None => Err(watchdog::diagnose(&self.progress, origin, cfg.run_budget)),
        }
    }

    /// Fold of the live repair counters plus the minimum per-server
    /// count of initiated AAE rounds (see the threaded runtime's settle
    /// loop, which this mirrors).
    fn settle_probe(&self) -> ((u64, u64, u64, u64), u64) {
        let mut sig = (0u64, 0u64, 0u64, 0u64);
        let mut min_rounds = u64::MAX;
        for i in 0..self.config.servers {
            let snap = self.snapshots[i].lock().expect("snapshot lock");
            if let Some(s) = snap.server {
                sig.0 += s.aae_divergent;
                sig.1 += s.read_repairs;
                sig.2 += s.handoffs;
                sig.3 += s.transfers_in + s.transfers_out;
                min_rounds = min_rounds.min(s.aae_rounds);
            }
        }
        (
            sig,
            if min_rounds == u64::MAX {
                0
            } else {
                min_rounds
            },
        )
    }

    // ---- post-run inspection ----

    /// Read access to server `i`'s store node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server(&self, i: usize) -> &StoreNode<M> {
        assert!(i < self.config.servers, "node {i} is not a server");
        match &self.nodes[i].proc_ {
            StoreProc::Server(s) => s,
            StoreProc::Client(_) => unreachable!("layout: servers first"),
        }
    }

    /// Mutable access to server `i`'s store node (harness convergence).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server_mut(&mut self, i: usize) -> &mut StoreNode<M> {
        assert!(i < self.config.servers, "node {i} is not a server");
        match &mut self.nodes[i].proc_ {
            StoreProc::Server(s) => s,
            StoreProc::Client(_) => unreachable!("layout: servers first"),
        }
    }

    /// Read access to client `j`'s session node.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a client index.
    pub fn client(&self, j: usize) -> &ClientNode<M> {
        assert!(j < self.config.clients, "client {j} out of range");
        match &self.nodes[self.config.servers + j].proc_ {
            StoreProc::Client(c) => c,
            StoreProc::Server(_) => unreachable!("layout: clients after servers"),
        }
    }

    /// Number of replica servers.
    pub fn server_count(&self) -> usize {
        self.config.servers
    }
}

/// The measurement-and-audit surface comes from [`FleetHarness`]'s
/// provided methods — the same implementation the simulator's `Cluster`
/// and the threaded `RuntimeFleet` share.
impl<M> FleetHarness<M> for SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    fn mechanism(&self) -> &M {
        &self.mech
    }

    fn member_servers(&self) -> Vec<usize> {
        (0..self.config.servers).collect()
    }

    fn client_count(&self) -> usize {
        self.config.clients
    }

    fn server_ref(&self, i: usize) -> &StoreNode<M> {
        self.server(i)
    }

    fn server_mut_ref(&mut self, i: usize) -> &mut StoreNode<M> {
        self.server_mut(i)
    }

    fn client_ref(&self, j: usize) -> &ClientNode<M> {
        self.client(j)
    }

    fn audit_view(&self) -> &RingView<ReplicaId> {
        &self.view
    }
}

/// Fires every due [`ConnKill`] exactly once.
fn drive_conn_kills<M>(
    kills: &[ConnKill],
    fired: &mut [bool],
    started: Instant,
    fabric: &Arc<Fabric<M>>,
) where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    let elapsed = started.elapsed();
    for (k, done) in kills.iter().zip(fired.iter_mut()) {
        if !*done && elapsed >= k.after {
            fabric.kill_node_connections(k.node);
            *done = true;
        }
    }
}

/// One node's event loop: timers from its wheel, its local self-send
/// queue, and messages its own [`Fabric::pump`] reads off its sockets
/// into its inbox, dispatched through the same [`RtCtx`] adapter the
/// threaded runtime uses. Each pump first writes out what the last
/// dispatch batch sent, then sleeps in `poll(2)` until a socket is ready
/// or the next timer is due (20 ms at most).
fn node_loop<M>(
    mut h: Hosted<M>,
    rx: Receiver<InPacket<M>>,
    fabric: Arc<Fabric<M>>,
    progress: Arc<Progress>,
    snapshots: Arc<Vec<Mutex<NodeSnapshot>>>,
    shutdown: Arc<AtomicBool>,
    origin: Instant,
) -> Hosted<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    let me = h.id.0 as usize;
    let mut local: VecDeque<(NodeId, Msg<M>)> = VecDeque::new();
    let run = |h: &mut Hosted<M>, ev, local: &mut VecDeque<_>| {
        dispatch(h, ev, &fabric, local, &progress, &snapshots, origin);
    };
    run(&mut h, Ev::Start, &mut local);
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return h;
        }

        // Fire everything due, repeatedly: a handler may arm another
        // timer already due, or self-send.
        let mut worked = true;
        while worked {
            worked = false;
            let now_us = origin.elapsed().as_micros() as u64;
            while let Some(t) = h.wheel.pop_due(now_us) {
                run(&mut h, Ev::Timer(t), &mut local);
                worked = true;
            }
            while let Some((from, msg)) = local.pop_front() {
                run(&mut h, Ev::Message { from, msg }, &mut local);
                worked = true;
            }
        }

        // Write out this batch's sends, then sleep until a socket is
        // ready or the next timer is due.
        let now_us = origin.elapsed().as_micros() as u64;
        let wait = match h.wheel.next_due() {
            Some(d) => StdDuration::from_micros(d.saturating_sub(now_us).min(20_000)),
            None => StdDuration::from_millis(20),
        };
        fabric.pump(me, wait);
        while let Ok((from, msg)) = rx.try_recv() {
            progress.inbox_depth[me].fetch_sub(1, Ordering::Relaxed);
            run(&mut h, Ev::Message { from, msg }, &mut local);
        }
    }
}

/// Runs one event through a hosted node and applies its effects:
/// timers to the wheel, self-sends to the local queue, everything else
/// serialised onto the fabric. Mirrors the threaded runtime's dispatch;
/// the only difference is where the outbox goes.
fn dispatch<M>(
    h: &mut Hosted<M>,
    ev: Ev<M>,
    fabric: &Arc<Fabric<M>>,
    local: &mut VecDeque<(NodeId, Msg<M>)>,
    progress: &Arc<Progress>,
    snapshots: &Arc<Vec<Mutex<NodeSnapshot>>>,
    origin: Instant,
) where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    let now = SimTime::from_micros(origin.elapsed().as_micros() as u64);
    let (mech, header_bytes) = match &h.proc_ {
        StoreProc::Server(s) => (s.mech().clone(), s.header_bytes()),
        StoreProc::Client(c) => (c.mech().clone(), c.header_bytes()),
    };
    debug_assert_eq!(header_bytes, frame::HEADER_BYTES);
    let mut ctx = RtCtx::new(
        h.id,
        now,
        &mut h.rng,
        mech.clone(),
        header_bytes,
        &mut h.next_timer,
    );
    match (&mut h.proc_, ev) {
        (StoreProc::Server(s), Ev::Start) => s.on_start(&mut ctx),
        (StoreProc::Server(s), Ev::Message { from, msg }) => s.on_message(&mut ctx, from, msg),
        (StoreProc::Server(s), Ev::Timer(t)) => s.on_timer(&mut ctx, t),
        (StoreProc::Client(c), Ev::Start) => c.on_start(&mut ctx),
        (StoreProc::Client(c), Ev::Message { from, msg }) => c.on_message(&mut ctx, from, msg),
        (StoreProc::Client(c), Ev::Timer(t)) => c.on_timer(&mut ctx, t),
    }
    let RtCtx {
        outbox,
        timer_sets,
        timer_cancels,
        ..
    } = ctx;
    for (due, t) in timer_sets {
        h.wheel.schedule(due, t);
    }
    for t in timer_cancels {
        h.wheel.cancel(t);
    }
    for (to, msg) in outbox {
        if to == h.id {
            // Local delivery — but the charged bytes still balance the
            // fabric's ledger identity.
            fabric.note_self(msg.wire_size(&mech) + frame::HEADER_BYTES);
            local.push_back((h.id, msg));
        } else {
            let body = msg.encode_transport(&mech);
            fabric.send_bytes(h.id.0 as usize, to.0 as usize, body);
        }
    }

    // Progress + snapshot bookkeeping (same shape as the runtime's).
    let id = h.id.0 as usize;
    progress.events[id].fetch_add(1, Ordering::Relaxed);
    progress.last_event_micros[id].store(now.as_micros().max(1), Ordering::Relaxed);
    let mut snap = snapshots[id].lock().expect("snapshot lock");
    snap.events += 1;
    match &h.proc_ {
        StoreProc::Server(s) => {
            snap.wire = s.wire_stats();
            snap.server = Some(s.stats());
        }
        StoreProc::Client(c) => {
            snap.wire = c.wire_stats();
            let stats = c.stats();
            let ops = stats.get_latency.count() + stats.put_latency.count();
            if ops > h.last_ops {
                progress
                    .ops_ok
                    .fetch_add(ops - h.last_ops, Ordering::Relaxed);
                h.last_ops = ops;
            }
            snap.ops_ok = ops;
            snap.cycles_done = c.cycles_done();
            snap.done = c.is_done();
            if c.is_done() && !h.was_done {
                h.was_done = true;
                progress.done_clients.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
