//! [`RuntimeFleet`]: hosts the kvstore protocol on real threads.
//!
//! A configuration of the shared [`host`](crate::host): the nodes, the
//! event loop and the run supervisor are the host's; this module adds
//! the in-process wire. Each server gets a dedicated node thread;
//! clients are partitioned across `client_workers` threads (the
//! parallelism knob the bench sweeps).
//!
//! Messages between threads route through `std::sync::mpsc` sync
//! channels, one bounded inbox per thread. A full inbox drops the
//! message (wire loss; the protocol's timeouts, retries and
//! anti-entropy absorb it), so threads can never deadlock on a send. A
//! [`FaultPlan`] can drop, duplicate or stale-replay messages, hold
//! them back in a delayer thread for a sampled latency, or wedge chosen
//! servers to exercise the stall watchdog. A [`CrashEvent`] is carried
//! out by the crashed server's own thread, so the node is never touched
//! from two threads.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration as StdDuration;

use dvv::mechanisms::Mechanism;
use dvv::ReplicaId;
use kvstore::client::ClientNode;
use kvstore::cluster::EngineFactory;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::FleetHarness;
use kvstore::messages::Msg;
use kvstore::node::StoreNode;
use kvstore::value::StampedValue;
use ring::{MemberStatus, RingView};
use simnet::{NodeId, SimRng};
use storage::{MemEngine, StorageEngine};

use crate::host::{self, Budgets, FleetStats, Host, Hosted, Packet, RunReport, Shared, Wire};
use crate::watchdog::{Progress, StallReport};
use crate::wheel::TimerWheel;
use crate::{CrashEvent, FaultPlan, RuntimeConfig};

/// Captured frames kept per directed link for stale-replay injection —
/// same bound as the simulator driver's stash, and for the same reason:
/// replays resurface recent-ish history without hoarding clones.
const REPLAY_STASH_CAP: usize = 16;

/// A node thread's wire: its own inbox, every thread's inbox sender,
/// the fault plan with its RNG stream, and — on a server's thread — the
/// crash scheduled for it. Each thread keeps its own replay stash, so a
/// stale replay resurfaces traffic this thread's nodes actually sent on
/// that link.
struct Router<M: Mechanism<StampedValue>> {
    shared: Arc<Shared>,
    faults: FaultPlan,
    rx: Receiver<Packet<M>>,
    slots: Vec<SyncSender<Packet<M>>>,
    delayer: Option<Sender<(u64, Packet<M>)>>,
    rng: SimRng,
    replay_stash: BTreeMap<(NodeId, NodeId), Vec<Msg<M>>>,
    crash: Option<Crash<M>>,
}

/// Where a server's scheduled [`CrashEvent`] stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashStage {
    Pending,
    Down,
    Done,
}

/// A server thread's scheduled crash, with everything it needs to
/// rebuild the node from scratch: the constructor inputs the fleet used
/// at build time, plus the engine factory when the fleet is durable (a
/// log-backed engine replays its durable prefix on open; without a
/// factory the respawn comes back empty, the diskless baseline).
struct Crash<M: Mechanism<StampedValue>> {
    event: CrashEvent,
    stage: CrashStage,
    mech: M,
    store: StoreConfig,
    genesis_view: RingView<ReplicaId>,
    factory: Option<EngineFactory<M>>,
    /// The fleet's audit view, bumped by every respawn.
    view: Arc<Mutex<RingView<ReplicaId>>>,
}

impl<M: Mechanism<StampedValue>> Router<M> {
    /// Delivers one (possibly injected) inter-node message, routing it
    /// through the delayer with a freshly sampled delay when the plan
    /// has a latency window — so duplicates and replays each draw their
    /// own delay, like the simulator's independently delayed copies.
    fn forward(&mut self, from: NodeId, to: NodeId, msg: Msg<M>) {
        if let (Some((lo, hi)), Some(tx)) = (self.faults.delay_micros, &self.delayer) {
            let d = if hi > lo {
                self.rng.range_u64(lo, hi + 1)
            } else {
                lo
            };
            let _ = tx.send((self.shared.now_us() + d, Packet { from, to, msg }));
            return;
        }
        deliver(&self.shared.progress, &self.slots, Packet { from, to, msg });
    }
}

impl<M: Mechanism<StampedValue>> Wire<M> for Router<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg<M>) {
        if self.faults.is_noop() || self.shared.quiescing.load(Ordering::Relaxed) {
            deliver(&self.shared.progress, &self.slots, Packet { from, to, msg });
            return;
        }
        let f = &self.faults;
        let (drop_p, dup_p, replay_p) = (
            f.drop_probability,
            f.duplicate_probability,
            f.replay_probability,
        );
        if drop_p > 0.0 && self.rng.chance(drop_p) {
            return;
        }
        if dup_p > 0.0 && self.rng.chance(dup_p) {
            self.forward(from, to, msg.clone());
        }
        if replay_p > 0.0 {
            if self.rng.chance(replay_p) {
                let stale = self.replay_stash.get(&(from, to)).and_then(|stash| {
                    if stash.is_empty() {
                        None
                    } else {
                        let pick = self.rng.next_u64() as usize % stash.len();
                        Some(stash[pick].clone())
                    }
                });
                if let Some(stale) = stale {
                    self.forward(from, to, stale);
                }
            }
            let stash = self.replay_stash.entry((from, to)).or_default();
            if stash.len() >= REPLAY_STASH_CAP {
                stash.remove(0);
            }
            stash.push(msg.clone());
        }
        self.forward(from, to, msg);
    }

    fn wait(&mut self, timeout: StdDuration, inbox: &mut VecDeque<Packet<M>>) {
        let first = if timeout.is_zero() {
            self.rx.try_recv().ok()
        } else {
            self.rx.recv_timeout(timeout).ok()
        };
        if let Some(first) = first {
            inbox.push_back(first);
            inbox.extend(self.rx.try_iter());
        }
    }

    /// Carries out this server's crash as its deadlines come due. The
    /// kill drops the node — in-memory state and the engine's unsynced
    /// buffer are gone, like a power cut — and parks an inert husk in
    /// the slot; while down, whatever arrives is lost (a crashed box
    /// answers nothing). The respawn rebuilds the node, bumps it to a
    /// fresh `Up` incarnation, and re-admits it in band with a
    /// [`Msg::Rejoin`] that re-arms its timers and lets gossip spread
    /// the re-admission. No harness view synchronisation.
    fn tick(&mut self, nodes: &mut [Hosted<M>], inbox: &mut VecDeque<Packet<M>>) {
        let Some(c) = &mut self.crash else {
            return;
        };
        let elapsed = self.shared.origin.elapsed();
        let server = c.event.server;
        let replica = ReplicaId(server as u32);
        match c.stage {
            CrashStage::Pending if elapsed >= c.event.kill_after => {
                self.shared.progress.set_expected_down(server, true);
                let husk =
                    StoreNode::dormant(replica, c.mech.clone(), c.store, c.genesis_view.clone());
                nodes[0].replace_server(husk);
                c.stage = CrashStage::Down;
            }
            CrashStage::Down if elapsed >= c.event.respawn_after => {
                let engine: Box<dyn StorageEngine<M::State>> = match &c.factory {
                    Some(f) => f.build(server),
                    None => Box::new(MemEngine::new()),
                };
                let node = StoreNode::with_engine(
                    replica,
                    c.mech.clone(),
                    c.store,
                    c.genesis_view.clone(),
                    engine,
                );
                nodes[0].replace_server(node);
                let mut view = c.view.lock().expect("view lock");
                view.bump(&replica, MemberStatus::Up);
                let id = nodes[0].id();
                inbox.clear();
                inbox.push_back(Packet {
                    from: id,
                    to: id,
                    msg: Msg::Rejoin { view: view.clone() },
                });
                self.shared.progress.set_expected_down(server, false);
                self.shared.pending.fetch_sub(1, Ordering::Relaxed);
                c.stage = CrashStage::Done;
            }
            _ => {}
        }
        if c.stage == CrashStage::Down {
            inbox.clear();
        }
    }
}

/// Enqueues `pkt` at its destination; a full inbox is wire loss.
fn deliver<M: Mechanism<StampedValue>>(
    progress: &Progress,
    slots: &[SyncSender<Packet<M>>],
    pkt: Packet<M>,
) {
    let to = pkt.to.0 as usize;
    if slots[to].try_send(pkt).is_ok() {
        progress.inbox_depth[to].fetch_add(1, Ordering::Relaxed);
    }
}

/// The multi-threaded fleet. Build with [`RuntimeFleet::new`], run with
/// [`RuntimeFleet::run`], then inspect nodes and reports exactly like a
/// [`Cluster`](kvstore::cluster::Cluster) after a simulated run.
#[derive(Debug)]
pub struct RuntimeFleet<M: Mechanism<StampedValue>> {
    config: RuntimeConfig,
    host: Host<M>,
    genesis_view: RingView<ReplicaId>,
    factory: Option<EngineFactory<M>>,
    net_root: SimRng,
}

impl<M> RuntimeFleet<M>
where
    M: Mechanism<StampedValue> + Send + 'static,
    M::State: Send,
    M::Context: Send,
{
    /// Builds a fleet. All protocol randomness derives from `seed`
    /// through the same `fork_indexed("node", i)` scheme the simulator
    /// uses, so a node's RNG stream depends only on `(seed, i)`.
    pub fn new(seed: u64, mech: M, config: RuntimeConfig) -> Self {
        Self::build(seed, mech, config, None)
    }

    /// Builds a fleet whose servers persist through `factory`-built
    /// storage engines — the threaded counterpart of
    /// [`Cluster::new_durable`](kvstore::cluster::Cluster::new_durable).
    /// Opening an engine replays whatever a previous incarnation (or a
    /// previous fleet over the same directory) durably synced, and a
    /// scheduled [`CrashEvent`] respawn rebuilds from the same factory.
    pub fn new_durable(
        seed: u64,
        mech: M,
        config: RuntimeConfig,
        factory: EngineFactory<M>,
    ) -> Self {
        Self::build(seed, mech, config, Some(factory))
    }

    fn build(seed: u64, mech: M, config: RuntimeConfig, factory: Option<EngineFactory<M>>) -> Self {
        assert!(config.client_workers > 0, "need at least one client worker");
        let mut crash_targets = std::collections::BTreeSet::new();
        for c in &config.crashes {
            assert!(
                c.server < config.servers,
                "crash of non-server {}",
                c.server
            );
            assert!(
                c.respawn_after > c.kill_after,
                "respawn must come after the kill"
            );
            assert!(
                crash_targets.insert(c.server),
                "server {} crashed twice in one schedule",
                c.server
            );
        }
        let client = ClientConfig {
            cycles: config.cycles_per_client,
            ..config.client.clone()
        };
        let host = Host::new(
            seed,
            mech,
            config.store,
            &client,
            config.servers,
            config.clients,
            factory.as_ref(),
        );
        RuntimeFleet {
            genesis_view: host.view.clone(),
            host,
            factory,
            net_root: SimRng::new(seed).fork("rtnet"),
            config,
        }
    }

    /// A clonable handle for observing the fleet while (or after) it
    /// runs.
    pub fn stats(&self) -> FleetStats {
        self.host.stats()
    }

    /// Runs the fleet to completion: spawns per-server and client-worker
    /// threads (plus the optional delayer and the stall watchdog), waits
    /// for every client to finish, lets the fleet quiesce with faults
    /// disabled, then joins all threads and reassembles the nodes for
    /// inspection.
    ///
    /// Returns `Err` with per-node diagnostics if the watchdog declares
    /// a stall or the run budget expires first.
    pub fn run(&mut self) -> Result<RunReport, StallReport> {
        let cfg = &self.config;
        let shared = self.host.begin(cfg.crashes.len());

        // Partition nodes onto threads: one per server, then clients
        // chunked across `client_workers` threads.
        let mut groups: Vec<Vec<Hosted<M>>> = Vec::new();
        let mut client_groups: Vec<Vec<Hosted<M>>> =
            (0..cfg.client_workers).map(|_| Vec::new()).collect();
        for (i, h) in self.host.take_nodes().into_iter().enumerate() {
            if i < cfg.servers {
                groups.push(vec![h]);
            } else {
                client_groups[(i - cfg.servers) % cfg.client_workers].push(h);
            }
        }
        groups.extend(client_groups.into_iter().filter(|g| !g.is_empty()));

        // One bounded inbox per thread; slot j routes to the thread
        // hosting node j.
        let (txs, rxs): (Vec<SyncSender<Packet<M>>>, Vec<_>) = groups
            .iter()
            .map(|g| mpsc::sync_channel(cfg.inbox_capacity * g.len()))
            .unzip();
        let mut slots = vec![txs[0].clone(); cfg.servers + cfg.clients];
        for (g, tx) in groups.iter().zip(&txs) {
            for h in g {
                slots[h.id().0 as usize] = tx.clone();
            }
        }

        // Optional delayer thread holding back latency-sampled packets.
        let (delayer, delayer_handle) = if cfg.faults.delay_micros.is_some() {
            let (tx, rx) = mpsc::channel();
            let (shared, slots) = (Arc::clone(&shared), slots.clone());
            (
                Some(tx),
                Some(thread::spawn(move || delayer_loop(rx, &shared, &slots))),
            )
        } else {
            (None, None)
        };

        let view = Arc::new(Mutex::new(self.host.view.clone()));
        let mut threads: Vec<JoinHandle<Vec<Hosted<M>>>> = Vec::new();
        for (w, (group, rx)) in groups.into_iter().zip(rxs).enumerate() {
            // Server threads come first, so thread `w < servers` hosts
            // server `w`.
            let crash = cfg
                .crashes
                .iter()
                .find(|c| c.server == w)
                .map(|&event| Crash {
                    event,
                    stage: CrashStage::Pending,
                    mech: self.host.mech().clone(),
                    store: cfg.store,
                    genesis_view: self.genesis_view.clone(),
                    factory: self.factory.clone(),
                    view: Arc::clone(&view),
                });
            let router = Router {
                shared: Arc::clone(&shared),
                faults: cfg.faults.clone(),
                rx,
                slots: slots.clone(),
                delayer: delayer.clone(),
                rng: self.net_root.fork_indexed("worker", w as u64),
                replay_stash: BTreeMap::new(),
                crash,
            };
            let hang = group
                .iter()
                .any(|h| cfg.faults.hang_servers.contains(&(h.id().0 as usize)));
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || {
                if !hang {
                    return host::serve(group, router, &shared);
                }
                // A wedged thread: never starts its nodes, never drains
                // its inbox. Exists to prove the watchdog fires.
                while !shared.shutdown.load(Ordering::Relaxed) {
                    thread::sleep(StdDuration::from_millis(5));
                }
                group
            }));
        }

        let budgets = Budgets {
            stall: cfg.stall_budget,
            watchdog_poll: cfg.watchdog_poll,
            run: cfg.run_budget,
            quiesce: cfg.quiesce,
            settle_window: cfg.settle_window,
        };
        let report = self.host.run(&shared, threads, &budgets);
        if let Some(h) = delayer_handle {
            h.join().expect("delayer thread panicked");
        }
        self.host.view = view.lock().expect("view lock").clone();
        report
    }

    // ---- post-run inspection (Cluster-equivalent surface) ----

    /// Read access to server `i`'s store node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server(&self, i: usize) -> &StoreNode<M> {
        self.host.server(i)
    }

    /// Read access to client `j`'s session node.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a client index.
    pub fn client(&self, j: usize) -> &ClientNode<M> {
        self.host.client(j)
    }

    /// Number of replica servers.
    pub fn server_count(&self) -> usize {
        self.host.servers()
    }

    /// Number of client sessions.
    pub fn client_count(&self) -> usize {
        self.host.clients()
    }

    /// Mutable access to server `i`'s store node (harness convergence).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server_mut(&mut self, i: usize) -> &mut StoreNode<M> {
        self.host.server_mut(i)
    }
}

/// The post-run measurement surface — `oracle` / `converge` /
/// `anomaly_report` / `residual_copies` / `latency_report` /
/// `wire_report` — comes from [`FleetHarness`]'s provided methods, the
/// same implementation the simulator's `Cluster` and the socket driver
/// run. ([`FleetStats::wire_report`] remains the *live* snapshot fold;
/// the trait's is the post-run authoritative one from the node
/// ledgers.)
impl<M> FleetHarness<M> for RuntimeFleet<M>
where
    M: Mechanism<StampedValue> + Send + 'static,
    M::State: Send,
    M::Context: Send,
{
    fn mechanism(&self) -> &M {
        self.host.mech()
    }

    fn member_servers(&self) -> Vec<usize> {
        (0..self.host.servers()).collect()
    }

    fn client_count(&self) -> usize {
        self.host.clients()
    }

    fn server_ref(&self, i: usize) -> &StoreNode<M> {
        self.host.server(i)
    }

    fn server_mut_ref(&mut self, i: usize) -> &mut StoreNode<M> {
        self.host.server_mut(i)
    }

    fn client_ref(&self, j: usize) -> &ClientNode<M> {
        self.host.client(j)
    }

    fn audit_view(&self) -> &RingView<ReplicaId> {
        &self.host.view
    }
}

/// Holds back latency-sampled packets until their due instant, then
/// delivers them. Runs on its own thread whenever the fault plan has a
/// delay window.
fn delayer_loop<M: Mechanism<StampedValue>>(
    rx: Receiver<(u64, Packet<M>)>,
    shared: &Shared,
    slots: &[SyncSender<Packet<M>>],
) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut parked: BTreeMap<u64, Packet<M>> = BTreeMap::new();
    let mut seq = 0u64;
    while !shared.shutdown.load(Ordering::Relaxed) {
        let now = shared.now_us();
        while let Some(s) = wheel.pop_due(now) {
            if let Some(p) = parked.remove(&s) {
                deliver(&shared.progress, slots, p);
            }
        }
        let wait_us = wheel
            .next_due()
            .map(|d| d.saturating_sub(now).min(10_000))
            .unwrap_or(10_000)
            .max(100);
        match rx.recv_timeout(StdDuration::from_micros(wait_us)) {
            Ok((due, pkt)) => {
                wheel.schedule(due, seq);
                parked.insert(seq, pkt);
                seq += 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}
