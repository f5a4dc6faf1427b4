//! The shared host (`runtime::host`) on the test thread, with no thread
//! or socket of its own: an in-memory [`Wire`] carries every message
//! between the nodes of one [`serve`] call, and decides when the loop
//! stops. It checks the host's own bookkeeping — what the watchdog and
//! the supervisor read — against what actually crossed the wire.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use dvv::ReplicaId;
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::messages::Msg;
use ring::RingView;
use runtime::host::{serve, Host, Hosted, Packet, Shared, Wire};
use simnet::{Duration, NodeId};

type M = DvvMechanism;

/// Delivers every send in memory at the next wait, sleeping out the
/// wait when nothing is in flight so timers come due.
struct MemWire {
    shared: Arc<Shared>,
    mail: VecDeque<Packet<M>>,
    /// Client responses sent with `ok: true` — the acknowledged ops.
    acked: u64,
    self_sends: u64,
    waits: u64,
    /// Messages handed to the host at the next wait, bypassing `send`.
    inject: Vec<Packet<M>>,
    injected: u64,
}

impl MemWire {
    fn new(shared: &Arc<Shared>) -> Self {
        MemWire {
            shared: Arc::clone(shared),
            mail: VecDeque::new(),
            acked: 0,
            self_sends: 0,
            waits: 0,
            inject: Vec::new(),
            injected: 0,
        }
    }
}

impl Wire<M> for MemWire {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg<M>) {
        assert_ne!(from, to, "a self-send reached the wire");
        if matches!(
            msg,
            Msg::ClientGetResp { ok: true, .. } | Msg::ClientPutResp { ok: true, .. }
        ) {
            self.acked += 1;
        }
        self.shared.progress.inbox_depth[to.0 as usize].fetch_add(1, Ordering::Relaxed);
        self.mail.push_back(Packet { from, to, msg });
    }

    fn sent_self(&mut self, _msg: &Msg<M>) {
        self.self_sends += 1;
    }

    fn wait(&mut self, timeout: StdDuration, inbox: &mut VecDeque<Packet<M>>) {
        self.waits += 1;
        if self.mail.is_empty() && self.inject.is_empty() {
            std::thread::sleep(timeout);
        }
        for p in self.inject.drain(..) {
            self.injected += 1;
            self.shared.progress.inbox_depth[p.to.0 as usize].fetch_add(1, Ordering::Relaxed);
            inbox.push_back(p);
        }
        inbox.extend(self.mail.drain(..));
    }
}

fn host(servers: usize, clients: usize, store: StoreConfig) -> Host<M> {
    let client = ClientConfig {
        cycles: 4,
        think_time: Duration::from_micros(200),
        key_count: 4,
        request_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    Host::new(9, DvvMechanism, store, &client, servers, clients, None)
}

fn single_replica() -> StoreConfig {
    StoreConfig {
        n: 1,
        r: 1,
        w: 1,
        ..StoreConfig::default()
    }
}

/// Every client finishes once, and only once: after the last one is
/// done, each client keeps receiving (stale) responses, and the done
/// count must not move. The fleet-wide op counter equals the responses
/// the server acknowledged on the wire — here every cycle's GET and PUT.
#[test]
fn done_clients_and_ops_ok_count_exactly_what_happened() {
    const CLIENTS: usize = 3;
    let mut host = host(1, CLIENTS, single_replica());
    let shared = host.begin(0);

    /// Once every client is done, sends each a stale response at every
    /// wait; stops after six such rounds.
    struct Finish<'a>(&'a mut MemWire);
    impl Wire<M> for Finish<'_> {
        fn send(&mut self, from: NodeId, to: NodeId, msg: Msg<M>) {
            self.0.send(from, to, msg);
        }
        fn sent_self(&mut self, msg: &Msg<M>) {
            self.0.sent_self(msg);
        }
        fn wait(&mut self, timeout: StdDuration, inbox: &mut VecDeque<Packet<M>>) {
            let shared = Arc::clone(&self.0.shared);
            if shared.progress.done_clients.load(Ordering::Relaxed) >= CLIENTS as u64 {
                for j in 0..CLIENTS {
                    self.0.inject.push(Packet {
                        from: NodeId(0),
                        to: NodeId(1 + j as u32),
                        msg: Msg::ClientGetResp {
                            req: u64::MAX,
                            ok: true,
                            values: Vec::new(),
                            ctx: Default::default(),
                        },
                    });
                }
            }
            if self.0.injected > 5 * CLIENTS as u64
                || shared.origin.elapsed() > StdDuration::from_secs(60)
            {
                shared.shutdown.store(true, Ordering::Relaxed);
            }
            self.0.wait(timeout, inbox);
        }
    }

    let mut wire = MemWire::new(&shared);
    let nodes: Vec<Hosted<M>> = serve(host.take_nodes(), Finish(&mut wire), &shared);
    assert_eq!(nodes.len(), 1 + CLIENTS);
    assert!(
        wire.injected > 5 * CLIENTS as u64,
        "the clients never finished"
    );
    let acked = wire.acked;
    let progress = &shared.progress;
    assert_eq!(
        progress.done_clients.load(Ordering::Relaxed),
        CLIENTS as u64,
        "each finished client is counted exactly once"
    );
    assert_eq!(acked, (CLIENTS * 4 * 2) as u64, "every GET and PUT acked");
    assert_eq!(
        progress.ops_ok.load(Ordering::Relaxed),
        acked,
        "ops_ok counts exactly the acknowledged ops"
    );
    let stats = host.stats();
    let snapshot_ops: u64 = (1..=CLIENTS).map(|i| stats.snapshot(i).ops_ok).sum();
    assert_eq!(snapshot_ops, acked);
    assert!((1..=CLIENTS).all(|i| stats.snapshot(i).done));
}

/// A self-send stays on the node's thread and is dispatched before the
/// host waits for input again. A server asked for a read by itself
/// answers itself; at every wait, the server has dispatched its start,
/// the injected request and every self-send made so far — nothing is
/// left queued behind the wait.
#[test]
fn a_self_send_is_dispatched_before_the_next_wait() {
    // Periodic timers an hour out: the server dispatches nothing on its
    // own, so its event count is exact.
    let hour = Duration::from_secs(3600);
    let mut host = host(
        1,
        0,
        StoreConfig {
            anti_entropy_interval: hour,
            gossip_interval: hour,
            handoff_interval: hour,
            ..single_replica()
        },
    );
    let shared = host.begin(0);

    /// Asks the server for a read on its own behalf at the first wait;
    /// stops at the fourth.
    struct SelfAsk<'a>(&'a mut MemWire);
    impl Wire<M> for SelfAsk<'_> {
        fn send(&mut self, from: NodeId, to: NodeId, msg: Msg<M>) {
            self.0.send(from, to, msg);
        }
        fn sent_self(&mut self, msg: &Msg<M>) {
            self.0.sent_self(msg);
        }
        fn wait(&mut self, timeout: StdDuration, inbox: &mut VecDeque<Packet<M>>) {
            let w = &mut *self.0;
            assert!(inbox.is_empty(), "input left queued across a wait");
            assert_eq!(
                w.shared.progress.events[0].load(Ordering::Relaxed),
                1 + w.injected + w.self_sends,
                "a self-send was still undispatched at wait {}",
                w.waits
            );
            match w.waits {
                0 => {
                    let view = RingView::from_members([ReplicaId(0)]);
                    w.inject.push(Packet {
                        from: NodeId(0),
                        to: NodeId(0),
                        msg: Msg::ClientGet {
                            req: 1,
                            key: b"k".to_vec(),
                            digest: view.digest(),
                        },
                    });
                }
                3 => w.shared.shutdown.store(true, Ordering::Relaxed),
                _ => {}
            }
            w.wait(timeout.min(StdDuration::from_millis(1)), inbox);
        }
    }

    let mut wire = MemWire::new(&shared);
    serve(host.take_nodes(), SelfAsk(&mut wire), &shared);
    assert_eq!(wire.injected, 1);
    assert!(wire.self_sends >= 1, "the server never answered itself");
    assert_eq!(wire.waits, 4);
}
