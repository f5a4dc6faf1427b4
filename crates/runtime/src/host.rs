//! The host: the one event loop and run supervisor both real drivers
//! share.
//!
//! A [`Host`] holds the fleet layout of the simulator's `Cluster` —
//! node ids `0..servers` are replica servers, `servers..servers +
//! clients` are closed-loop client sessions, each a [`StoreProc`] — and
//! dispatches the *same* generic `on_start`/`on_message`/`on_timer` code
//! the simulator drives, through [`RtCtx`], the only driver-side layer
//! a node ever sees.
//!
//! A driver differs from another only in its [`Wire`]: how an outbound
//! message leaves a node thread, how that thread waits for input, and a
//! per-tick schedule hook for scheduled faults. The threaded
//! [`RuntimeFleet`](crate::RuntimeFleet) wires nodes together with
//! in-process channels; the socket driver in the `transport` crate
//! encodes every message onto loopback TCP. Everything else lives here
//! once:
//!
//! * [`serve`], the node-thread loop: run the schedule hook, dispatch
//!   what arrived and every local self-send, fire due timers, repeat
//!   until quiet, then wait for input until the next timer is due (20 ms
//!   at most, so shutdown is noticed). A self-send never leaves the
//!   thread: it is reliable and zero-delay, like the simulator's local
//!   delivery.
//! * [`Host::run`], the supervisor: the stall watchdog, the wait for
//!   every client, a quiesce that lasts until the repair ledger stands
//!   still and no scheduled fault is pending, then shutdown and join.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::Mechanism;
use dvv::{ClientId, ReplicaId};
use kvstore::client::ClientNode;
use kvstore::cluster::{EngineFactory, StoreProc};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::messages::{Msg, WireStats};
use kvstore::node::{NodeStats, StoreNode};
use kvstore::value::StampedValue;
use ring::RingView;
use simnet::{NodeId, SimRng, SimTime, TimerId};

use crate::rtctx::RtCtx;
use crate::watchdog::{self, Progress, StallReport};
use crate::wheel::TimerWheel;

/// Clean AAE rounds every server must initiate, after the last observed
/// repair activity, before the quiesce may end early (with 3+ servers
/// and random peer choice this gives each pair several chances to
/// detect leftover divergence).
const SETTLE_CLEAN_ROUNDS: u64 = 8;

/// Longest a node thread waits for input before it looks at the
/// shutdown flag and its schedule again.
const MAX_WAIT: StdDuration = StdDuration::from_millis(20);

/// An addressed message between hosted nodes.
#[derive(Debug)]
pub struct Packet<M: Mechanism<StampedValue>> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The message.
    pub msg: Msg<M>,
}

/// What a driver supplies to [`serve`]: one value per node thread.
pub trait Wire<M: Mechanism<StampedValue>> {
    /// Sends `msg` from hosted node `from` to another node `to`. Never
    /// called for a self-send; the host delivers those itself.
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg<M>);

    /// Accounts a self-send the host is about to deliver locally.
    fn sent_self(&mut self, _msg: &Msg<M>) {}

    /// Waits at most `timeout` for input, then appends every message
    /// that has arrived for this thread's nodes to `inbox`. Each one
    /// must have been counted into [`Progress::inbox_depth`] on arrival;
    /// the host counts it out.
    fn wait(&mut self, timeout: StdDuration, inbox: &mut VecDeque<Packet<M>>);

    /// The per-tick schedule hook, run before anything is dispatched:
    /// it may rebuild a hosted node, drop the queued input (a crashed
    /// node receives nothing) or inject a message.
    fn tick(&mut self, _nodes: &mut [Hosted<M>], _inbox: &mut VecDeque<Packet<M>>) {}
}

/// One node hosted on a node thread: the protocol state machine plus
/// its scheduling state.
#[derive(Debug)]
pub struct Hosted<M: Mechanism<StampedValue>> {
    id: NodeId,
    proc_: StoreProc<M>,
    rng: SimRng,
    wheel: TimerWheel<TimerId>,
    next_timer: u64,
    was_done: bool,
    last_ops: u64,
}

impl<M: Mechanism<StampedValue>> Hosted<M> {
    fn new(id: u32, proc_: StoreProc<M>, root: &SimRng) -> Self {
        Hosted {
            id: NodeId(id),
            proc_,
            rng: root.fork_indexed("node", u64::from(id)),
            wheel: TimerWheel::new(),
            next_timer: 0,
            was_done: false,
            last_ops: 0,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Puts `server` in this slot with no timer armed: a crash's husk,
    /// or the node rebuilt after it.
    pub fn replace_server(&mut self, server: StoreNode<M>) {
        self.proc_ = StoreProc::Server(server);
        self.wheel = TimerWheel::new();
    }
}

/// An event to dispatch into a hosted node.
enum Ev<M: Mechanism<StampedValue>> {
    Start,
    Message { from: NodeId, msg: Msg<M> },
    Timer(TimerId),
}

/// Cheap, lock-scoped copy of one node's reporting state, refreshed by
/// its node thread after every dispatch — the analogue of reading a
/// live `Cluster` node, available *while the fleet is running*.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Per-class wire ledger ([`WireStats`] is `Copy`).
    pub wire: WireStats,
    /// Server counters; `None` for client nodes.
    pub server: Option<NodeStats>,
    /// Client ops completed (GET + PUT acks); 0 for servers.
    pub ops_ok: u64,
    /// Client cycles finished; 0 for servers.
    pub cycles_done: u32,
    /// Whether a client session has completed all its cycles.
    pub done: bool,
    /// Events this node has dispatched.
    pub events: u64,
}

/// Clonable live-stats handle: snapshot any node or fold the fleet-wide
/// wire ledger without pausing node threads.
#[derive(Clone, Debug)]
pub struct FleetStats {
    snapshots: Arc<Vec<Mutex<NodeSnapshot>>>,
}

impl FleetStats {
    /// A copy of node `i`'s latest snapshot (fleet layout order:
    /// servers, then clients).
    pub fn snapshot(&self, i: usize) -> NodeSnapshot {
        self.snapshots[i].lock().expect("snapshot lock").clone()
    }

    /// Sums every node's per-class wire counters from the live
    /// snapshots — same fold as [`kvstore::cluster::Cluster::wire_report`].
    pub fn wire_report(&self) -> WireStats {
        let mut out = WireStats::default();
        for s in self.snapshots.iter() {
            out.absorb(&s.lock().expect("snapshot lock").wire);
        }
        out
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when the handle covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

/// Outcome of a completed (non-stalled) run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock from every node thread having started to the last
    /// client finishing (quiesce excluded), at the supervisor's polling
    /// granularity.
    pub elapsed: StdDuration,
    /// Client operations completed fleet-wide.
    pub ops_ok: u64,
    /// All clients finished within the run budget.
    pub all_done: bool,
}

/// The time limits of one run, copied from the driver's config.
#[derive(Clone, Copy, Debug)]
pub struct Budgets {
    /// The watchdog declares a stall after this long without a client
    /// op completing.
    pub stall: StdDuration,
    /// Watchdog polling interval.
    pub watchdog_poll: StdDuration,
    /// Hard wall-clock stop for the whole run.
    pub run: StdDuration,
    /// Settling budget after the last client finishes.
    pub quiesce: StdDuration,
    /// How long the repair counters must sit still before the quiesce
    /// is settled.
    pub settle_window: StdDuration,
}

/// What every thread of one run shares: the clock, the flags and the
/// progress counters.
#[derive(Debug)]
pub struct Shared {
    /// The run's clock origin; node time is microseconds since it.
    pub origin: Instant,
    /// Pulled to stop every thread of the run.
    pub shutdown: Arc<AtomicBool>,
    /// Set once the last client has finished: a wire that injects
    /// faults stops, so the fleet settles on a clean network.
    pub(crate) quiescing: AtomicBool,
    /// Scheduled fault events not yet complete; the quiesce stays open
    /// until it reads 0.
    pub pending: AtomicUsize,
    /// Liveness counters read by the watchdog.
    pub progress: Arc<Progress>,
    snapshots: Arc<Vec<Mutex<NodeSnapshot>>>,
}

impl Shared {
    /// Microseconds since the run's origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A fleet's hosted nodes between runs, plus the state the supervisor
/// and the post-run inspection read.
#[derive(Debug)]
pub struct Host<M: Mechanism<StampedValue>> {
    mech: M,
    /// The ring view the post-run audit checks every server against.
    pub view: RingView<ReplicaId>,
    servers: usize,
    clients: usize,
    nodes: Vec<Hosted<M>>,
    snapshots: Arc<Vec<Mutex<NodeSnapshot>>>,
    progress: Arc<Progress>,
}

impl<M: Mechanism<StampedValue>> Host<M> {
    /// Builds `servers` servers then `clients` client sessions. All
    /// protocol randomness derives from `seed` through the same
    /// `fork_indexed("node", i)` scheme the simulator uses, so a node's
    /// RNG stream depends only on `(seed, i)`. With a `factory`, each
    /// server opens its storage engine through it.
    ///
    /// # Panics
    ///
    /// Panics on an invalid store config, no servers, or a replication
    /// factor above the server count.
    pub fn new(
        seed: u64,
        mech: M,
        store: StoreConfig,
        client: &ClientConfig,
        servers: usize,
        clients: usize,
        factory: Option<&EngineFactory<M>>,
    ) -> Self {
        assert!(servers > 0, "need at least one server");
        store.validate();
        assert!(
            store.n <= servers,
            "replication factor exceeds server count"
        );
        let root = SimRng::new(seed);
        let view = RingView::from_members((0..servers as u32).map(ReplicaId));
        let total = servers + clients;
        let mut nodes = Vec::with_capacity(total);
        for r in (0..servers as u32).map(ReplicaId) {
            let node = match factory {
                Some(f) => StoreNode::with_engine(
                    r,
                    mech.clone(),
                    store,
                    view.clone(),
                    f.build(r.0 as usize),
                ),
                None => StoreNode::new(r, mech.clone(), store, view.clone()),
            };
            nodes.push(Hosted::new(r.0, StoreProc::Server(node), &root));
        }
        for j in 0..clients {
            let id = (servers + j) as u32;
            let node = ClientNode::new(
                ClientId(j as u64),
                id,
                mech.clone(),
                client.clone(),
                store.n,
                store.header_bytes,
                view.clone(),
                store.vnodes,
            );
            nodes.push(Hosted::new(id, StoreProc::Client(node), &root));
        }
        Host {
            mech,
            view,
            servers,
            clients,
            nodes,
            snapshots: Arc::new((0..total).map(|_| Mutex::default()).collect()),
            progress: Arc::new(Progress::new(total)),
        }
    }

    /// Opens a run: a fresh clock origin and shutdown flag, with
    /// `pending` scheduled fault events to wait for.
    pub fn begin(&self, pending: usize) -> Arc<Shared> {
        Arc::new(Shared {
            origin: Instant::now(),
            shutdown: Arc::new(AtomicBool::new(false)),
            quiescing: AtomicBool::new(false),
            pending: AtomicUsize::new(pending),
            progress: Arc::clone(&self.progress),
            snapshots: Arc::clone(&self.snapshots),
        })
    }

    /// Hands the nodes over to node threads, in layout order;
    /// [`run`](Self::run) takes them back.
    pub fn take_nodes(&mut self) -> Vec<Hosted<M>> {
        std::mem::take(&mut self.nodes)
    }

    /// Supervises a run whose node threads (`threads`, each returning
    /// the nodes it hosted) are already started on `shared`: spawns the
    /// stall watchdog, waits for every client, quiesces, then pulls the
    /// shutdown flag, joins every thread and takes the nodes back for
    /// inspection.
    ///
    /// The quiesce lets in-flight repairs, handoffs and AAE rounds land.
    /// It ends early once the repair ledger has stood still for the
    /// settle window and every server has since initiated clean AAE
    /// rounds — anti-entropy gossips forever, so "done" is a quiet
    /// repair ledger, not a quiet wire. A scheduled fault still pending
    /// keeps it open past its budget.
    ///
    /// Returns `Err` with per-node diagnostics if the watchdog declares
    /// a stall or the run budget expires first.
    pub fn run(
        &mut self,
        shared: &Shared,
        threads: Vec<JoinHandle<Vec<Hosted<M>>>>,
        budgets: &Budgets,
    ) -> Result<RunReport, StallReport> {
        let origin = shared.origin;
        let report_slot: Arc<Mutex<Option<StallReport>>> = Arc::new(Mutex::new(None));
        let watchdog = {
            let progress = Arc::clone(&self.progress);
            let shutdown = Arc::clone(&shared.shutdown);
            let slot = Arc::clone(&report_slot);
            let (clients, b) = (self.clients as u64, *budgets);
            thread::spawn(move || {
                watchdog::supervise(
                    progress,
                    shutdown,
                    slot,
                    origin,
                    clients,
                    b.stall,
                    b.watchdog_poll,
                )
            })
        };

        // The measured window opens now, with every node thread started.
        let started = Instant::now();
        let progress = &self.progress;
        let mut elapsed = None;
        while !progress.stalled.load(Ordering::Relaxed) && started.elapsed() <= budgets.run {
            if progress.done_clients.load(Ordering::Relaxed) >= self.clients as u64 {
                elapsed = Some(started.elapsed());
                break;
            }
            thread::sleep(StdDuration::from_millis(2));
        }

        let stalled = progress.stalled.load(Ordering::Relaxed);
        if elapsed.is_some() {
            shared.quiescing.store(true, Ordering::Relaxed);
            let settled = Instant::now();
            let (mut last_sig, mut rounds_floor) = self.settle_probe();
            let mut still_since = Instant::now();
            let pending = || shared.pending.load(Ordering::Relaxed) > 0;
            while (settled.elapsed() < budgets.quiesce || pending())
                && started.elapsed() <= budgets.run
            {
                thread::sleep(StdDuration::from_millis(50));
                let (sig, rounds) = self.settle_probe();
                if sig != last_sig {
                    last_sig = sig;
                    rounds_floor = rounds;
                    still_since = Instant::now();
                } else if !pending()
                    && still_since.elapsed() >= budgets.settle_window
                    && rounds >= rounds_floor + SETTLE_CLEAN_ROUNDS
                {
                    // Quiet for the window *and* every server has since
                    // initiated several divergence-free AAE rounds — the
                    // stillness reflects convergence, not CPU starvation.
                    break;
                }
            }
        }
        shared.shutdown.store(true, Ordering::Relaxed);

        let mut returned = Vec::with_capacity(self.servers + self.clients);
        for h in threads {
            returned.extend(h.join().expect("node thread panicked"));
        }
        watchdog.join().expect("watchdog thread panicked");
        returned.sort_by_key(|h| h.id.0);
        self.nodes = returned;

        if stalled {
            let report = report_slot.lock().expect("watchdog slot").take();
            return Err(report.expect("stall implies report"));
        }
        match elapsed {
            Some(elapsed) => Ok(RunReport {
                elapsed,
                ops_ok: self.progress.ops_ok.load(Ordering::Relaxed),
                all_done: true,
            }),
            None => Err(watchdog::diagnose(&self.progress, origin, budgets.run)),
        }
    }

    /// Fold of the live repair counters (changes while AAE repairs,
    /// read repairs, handoffs or transfers are still landing), plus the
    /// minimum per-server count of *initiated* AAE rounds — the quiesce
    /// uses the latter to require actual clean rounds, not just elapsed
    /// quiet time.
    fn settle_probe(&self) -> ((u64, u64, u64, u64), u64) {
        let mut sig = (0u64, 0u64, 0u64, 0u64);
        let mut min_rounds = None::<u64>;
        for snap in &self.snapshots[..self.servers] {
            if let Some(s) = snap.lock().expect("snapshot lock").server {
                sig.0 += s.aae_divergent;
                sig.1 += s.read_repairs;
                sig.2 += s.handoffs;
                sig.3 += s.transfers_in + s.transfers_out;
                min_rounds = Some(min_rounds.map_or(s.aae_rounds, |m| m.min(s.aae_rounds)));
            }
        }
        (sig, min_rounds.unwrap_or(0))
    }

    /// A clonable handle for observing the nodes while (or after) a run.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            snapshots: Arc::clone(&self.snapshots),
        }
    }

    /// The protocol's mechanism.
    pub fn mech(&self) -> &M {
        &self.mech
    }

    /// Number of replica servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of client sessions.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Read access to server `i`'s store node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server(&self, i: usize) -> &StoreNode<M> {
        assert!(i < self.servers, "node {i} is not a server");
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
        assert!(i < self.servers, "node {i} is not a server");
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
        assert!(j < self.clients, "client {j} out of range");
        match &self.nodes[self.servers + j].proc_ {
            StoreProc::Client(c) => c,
            StoreProc::Server(_) => unreachable!("layout: clients after servers"),
        }
    }
}

/// One node thread's event loop over `nodes` until `shared.shutdown`;
/// returns the nodes. Starts every node, then repeats: the wire's
/// schedule hook; every queued message and due timer, until none is
/// left (a handler may self-send or arm a timer already due); one wait
/// for input, bounded by the next timer.
pub fn serve<M, W>(mut nodes: Vec<Hosted<M>>, mut wire: W, shared: &Shared) -> Vec<Hosted<M>>
where
    M: Mechanism<StampedValue>,
    W: Wire<M>,
{
    // Node id → position in `nodes`, so a packet finds its node by index.
    let mut slot = vec![usize::MAX; nodes.iter().map(|h| h.id.0 as usize + 1).max().unwrap_or(0)];
    for (i, h) in nodes.iter().enumerate() {
        slot[h.id.0 as usize] = i;
    }
    let mut queue = VecDeque::new();
    for h in &mut nodes {
        dispatch(h, Ev::Start, &mut wire, &mut queue, shared);
    }
    while !shared.shutdown.load(Ordering::Relaxed) {
        wire.tick(&mut nodes, &mut queue);
        loop {
            while let Some(Packet { from, to, msg }) = queue.pop_front() {
                if let Some(h) = slot.get(to.0 as usize).and_then(|&i| nodes.get_mut(i)) {
                    dispatch(h, Ev::Message { from, msg }, &mut wire, &mut queue, shared);
                }
            }
            let now_us = shared.now_us();
            let mut fired = false;
            for h in &mut nodes {
                while let Some(t) = h.wheel.pop_due(now_us) {
                    dispatch(h, Ev::Timer(t), &mut wire, &mut queue, shared);
                    fired = true;
                }
            }
            if !fired && queue.is_empty() {
                break;
            }
        }

        let now_us = shared.now_us();
        let wait = nodes
            .iter_mut()
            .filter_map(|h| h.wheel.next_due())
            .min()
            .map_or(MAX_WAIT, |d| {
                StdDuration::from_micros(d.saturating_sub(now_us)).min(MAX_WAIT)
            });
        wire.wait(wait, &mut queue);
        for p in &queue {
            shared.progress.inbox_depth[p.to.0 as usize].fetch_sub(1, Ordering::Relaxed);
        }
    }
    nodes
}

/// Runs one event through a hosted node and applies its effects: armed
/// timers to the wheel, cancelled timers out of it, self-sends to the
/// local queue, every other message onto the wire, fresh counters into
/// the progress atomics and the node's snapshot.
fn dispatch<M, W>(
    h: &mut Hosted<M>,
    ev: Ev<M>,
    wire: &mut W,
    local: &mut VecDeque<Packet<M>>,
    shared: &Shared,
) where
    M: Mechanism<StampedValue>,
    W: Wire<M>,
{
    let now = SimTime::from_micros(shared.now_us());
    let (mech, header_bytes) = match &h.proc_ {
        StoreProc::Server(s) => (s.mech().clone(), s.header_bytes()),
        StoreProc::Client(c) => (c.mech().clone(), c.header_bytes()),
    };
    let mut ctx = RtCtx::new(h.id, now, &mut h.rng, mech, header_bytes, &mut h.next_timer);
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
            wire.sent_self(&msg);
            local.push_back(Packet { from: to, to, msg });
        } else {
            wire.send(h.id, to, msg);
        }
    }

    let id = h.id.0 as usize;
    let progress = &shared.progress;
    progress.events[id].fetch_add(1, Ordering::Relaxed);
    progress.last_event_micros[id].store(now.as_micros().max(1), Ordering::Relaxed);
    let mut snap = shared.snapshots[id].lock().expect("snapshot lock");
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
