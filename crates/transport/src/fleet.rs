//! [`SocketFleet`]: the kvstore protocol over real TCP sockets.
//!
//! The third driver, and a configuration of the runtime's shared host
//! ([`runtime::host`]): the nodes, their event loop and the run
//! supervisor are the host's, exactly as in the threaded
//! `RuntimeFleet`. Only the wire differs. Every inter-node message is
//! *actually serialised* ([`Msg::encode_transport`]), framed
//! ([`crate::frame`]) and sent through a loopback TCP connection
//! managed by the [`Fabric`](crate::fabric::Fabric); self-sends stay
//! on the host's local queue, as on every driver.
//!
//! Each node runs on its own thread, which also does the node's socket
//! I/O: there is no other thread per node or per link. Waiting for
//! input means pumping the node's fabric endpoint ([`Fabric::pump`]),
//! which writes the last dispatch batch's frames with nonblocking
//! writes and then sleeps in `poll(2)` until one of the node's sockets
//! is ready or the node's next timer is due; the frames it reads land
//! in the node's inbox and are dispatched next. A run's threads are the
//! nodes, the stall watchdog and the caller. A scheduled [`ConnKill`]
//! is carried out by the thread of the node it cuts.
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
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::Duration as StdDuration;

use dvv::mechanisms::WireMechanism;
use dvv::ReplicaId;
use kvstore::client::ClientNode;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::FleetHarness;
use kvstore::messages::Msg;
use kvstore::node::StoreNode;
use kvstore::value::StampedValue;
use ring::RingView;
use runtime::host::{self, Budgets, Host, Hosted, Packet, Shared, Wire};
use runtime::watchdog::StallReport;
use runtime::RunReport;
use simnet::{NodeId, SimRng};

use crate::fabric::{Fabric, FabricStats, InPacket};
use crate::frame;

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

/// A node thread's wire: the node's fabric endpoint and inbox, and the
/// connection kills scheduled against the node.
struct SocketWire<M: WireMechanism<StampedValue>> {
    me: usize,
    mech: M,
    fabric: Arc<Fabric<M>>,
    rx: Receiver<InPacket<M>>,
    kills: Vec<ConnKill>,
    shared: Arc<Shared>,
}

impl<M: WireMechanism<StampedValue>> Wire<M> for SocketWire<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg<M>) {
        let body = msg.encode_transport(&self.mech);
        self.fabric.send_bytes(from.0 as usize, to.0 as usize, body);
    }

    fn sent_self(&mut self, msg: &Msg<M>) {
        // Self-traffic never touches a socket, but its charged bytes
        // still balance the fabric's ledger identity.
        self.fabric
            .note_self(msg.wire_size(&self.mech) + frame::HEADER_BYTES);
    }

    fn wait(&mut self, timeout: StdDuration, inbox: &mut VecDeque<Packet<M>>) {
        self.fabric.pump(self.me, timeout);
        let to = NodeId(self.me as u32);
        inbox.extend(
            self.rx
                .try_iter()
                .map(|(from, msg)| Packet { from, to, msg }),
        );
    }

    fn tick(&mut self, _nodes: &mut [Hosted<M>], _inbox: &mut VecDeque<Packet<M>>) {
        let fired = drive_conn_kills(&mut self.kills, self.shared.origin.elapsed(), &self.fabric);
        self.shared.pending.fetch_sub(fired, Ordering::Relaxed);
    }
}

/// Fires every [`ConnKill`] due at `elapsed` and drops it from `kills`.
/// Returns how many fired.
fn drive_conn_kills<M: WireMechanism<StampedValue>>(
    kills: &mut Vec<ConnKill>,
    elapsed: StdDuration,
    fabric: &Fabric<M>,
) -> usize {
    let before = kills.len();
    kills.retain(|k| {
        let due = elapsed >= k.after;
        if due {
            fabric.kill_node_connections(k.node);
        }
        !due
    });
    before - kills.len()
}

/// The socket-transport fleet. Build with [`SocketFleet::new`], run
/// with [`SocketFleet::run`], audit through
/// [`kvstore::harness::FleetHarness`] like any other driver.
#[derive(Debug)]
pub struct SocketFleet<M: WireMechanism<StampedValue>> {
    config: SocketConfig,
    host: Host<M>,
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
        config.store.header_bytes = frame::HEADER_BYTES;
        for k in &config.conn_kills {
            assert!(
                k.node < config.servers + config.clients,
                "connection kill on unknown node {}",
                k.node
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
            None,
        );
        SocketFleet {
            config,
            host,
            net_root: SimRng::new(seed).fork("socknet"),
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
    /// loopback listener per node, spawns per-node threads (which drive
    /// their own sockets) plus the stall watchdog, waits for every
    /// client, quiesces until the repair ledger sits still and every
    /// connection kill has fired, then tears the fabric down and
    /// reassembles the nodes for inspection.
    ///
    /// Returns `Err` with per-node diagnostics if the watchdog declares
    /// a stall or the run budget expires first.
    pub fn run(&mut self) -> Result<RunReport, StallReport> {
        let cfg = &self.config;
        let total = cfg.servers + cfg.clients;
        let shared = self.host.begin(cfg.conn_kills.len());

        // One bounded inbox per node, fed by the node's own pumps.
        let (inboxes, rxs): (Vec<_>, Vec<_>) = (0..total)
            .map(|_| mpsc::sync_channel(cfg.inbox_capacity))
            .unzip();
        let mech = self.host.mech().clone();
        let fabric = Fabric::start(
            mech.clone(),
            total,
            inboxes,
            Arc::clone(&shared.progress),
            Arc::clone(&shared.shutdown),
            self.net_root.fork("fabric"),
            cfg.queue_capacity,
            cfg.max_frame,
            cfg.cluster_secret,
        )
        .expect("bind loopback listeners");

        let mut threads = Vec::with_capacity(total);
        for (h, rx) in self.host.take_nodes().into_iter().zip(rxs) {
            let me = h.id().0 as usize;
            let wire = SocketWire {
                me,
                mech: mech.clone(),
                fabric: Arc::clone(&fabric),
                rx,
                kills: cfg
                    .conn_kills
                    .iter()
                    .filter(|k| k.node == me)
                    .copied()
                    .collect(),
                shared: Arc::clone(&shared),
            };
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || host::serve(vec![h], wire, &shared)));
        }

        let budgets = Budgets {
            stall: cfg.stall_budget,
            watchdog_poll: cfg.watchdog_poll,
            run: cfg.run_budget,
            quiesce: cfg.quiesce,
            settle_window: cfg.settle_window,
        };
        let report = self.host.run(&shared, threads, &budgets);
        fabric.stop();
        self.fabric_stats = Some(fabric.stats());
        report
    }

    // ---- post-run inspection ----

    /// Read access to server `i`'s store node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server(&self, i: usize) -> &StoreNode<M> {
        self.host.server(i)
    }

    /// Mutable access to server `i`'s store node (harness convergence).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a server index.
    pub fn server_mut(&mut self, i: usize) -> &mut StoreNode<M> {
        self.host.server_mut(i)
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
