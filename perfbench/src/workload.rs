//! The three workloads: their shapes and the fleet configurations that
//! realise them. Every workload runs 4 servers with N=3, R=W=2 and at
//! most two load-generating threads, closed loop with zero think time.

use std::time::Duration as StdDuration;

use kvstore::config::{ClientConfig, StoreConfig};
use runtime::RuntimeConfig;
use simnet::Duration;
use transport::SocketConfig;

pub const SERVERS: usize = 4;

/// Which driver hosts the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `runtime::RuntimeFleet`: in-process channels between threads.
    Threaded,
    /// `transport::SocketFleet`: framed messages over loopback TCP.
    Socket,
}

/// One workload. A round is one fleet lifetime: `cycles` RMW cycles per
/// session, then quiesce and audit. The audit's oracle costs more than
/// cubic time in the writes per key, so a round is sized to keep its
/// audit short; a run repeats rounds for the requested seconds.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    /// Servers persist through a group-sync `LogEngine` each.
    pub durable: bool,
    pub sessions: usize,
    /// Threads the sessions share (the socket driver runs one thread
    /// per session, so there it equals `sessions`).
    pub workers: usize,
    pub keys: usize,
    /// Zipf exponent of key popularity (0 = uniform).
    pub zipf: f64,
    pub value_bytes: usize,
    pub read_only: f64,
    /// RMW cycles per session per round.
    pub cycles: u32,
    /// Anti-entropy period. The quiesce that ends a round waits for
    /// several clean anti-entropy rounds, so this also sets its length.
    pub aae_ms: u64,
}

pub const WORKLOADS: [Shape; 3] = [
    Shape {
        name: "hot-rmw",
        why: "concurrent writers on hot keys make siblings and merges: load on dvv, the \
              coordinator and replica handlers and client session bookkeeping",
        driver: Driver::Threaded,
        durable: false,
        sessions: 64,
        workers: 2,
        keys: 32,
        zipf: 1.0,
        value_bytes: 64,
        read_only: 0.0,
        cycles: 10,
        aae_ms: 10,
    },
    Shape {
        name: "cold-tcp",
        why: "single-sibling states and mostly reads: dvv idles, cost is framing, codec, \
              per-link fabric threads and loopback TCP",
        driver: Driver::Socket,
        durable: false,
        sessions: 2,
        workers: 2,
        keys: 4096,
        zipf: 0.0,
        value_bytes: 64,
        read_only: 0.8,
        cycles: 1000,
        aae_ms: 50,
    },
    Shape {
        name: "durable-write",
        why: "every cycle writes through a group-sync log per server: append, group fsync, \
              dot-reservation fsync and compaction dominate",
        driver: Driver::Threaded,
        durable: true,
        sessions: 16,
        workers: 2,
        keys: 4096,
        zipf: 0.0,
        value_bytes: 256,
        read_only: 0.0,
        cycles: 250,
        aae_ms: 50,
    },
];

pub fn find(name: &str) -> Option<&'static Shape> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Shape {
    /// One line describing the shape, for reports.
    pub fn describe(&self) -> String {
        let driver = match (self.driver, self.durable) {
            (Driver::Socket, _) => "SocketFleet/loopback",
            (Driver::Threaded, true) => "RuntimeFleet/LogEngine",
            (Driver::Threaded, false) => "RuntimeFleet/MemEngine",
        };
        let popularity = if self.zipf > 0.0 {
            format!("zipf {}", self.zipf)
        } else {
            "uniform".to_string()
        };
        format!(
            "{driver}, {SERVERS} servers N=3 R=W=2, {} sessions on {} threads, {} keys {popularity}, \
             {} B values, {}% read-only cycles, {} cycles/session/round, AAE every {} ms, closed loop",
            self.sessions,
            self.workers,
            self.keys,
            self.value_bytes,
            (self.read_only * 100.0).round(),
            self.cycles,
            self.aae_ms
        )
    }

    fn store(&self) -> StoreConfig {
        StoreConfig {
            n: 3,
            r: 2,
            w: 2,
            request_timeout: Duration::from_millis(250),
            anti_entropy_interval: Duration::from_millis(self.aae_ms),
            gossip_interval: Duration::from_millis(100),
            ..StoreConfig::default()
        }
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            cycles: self.cycles,
            think_time: Duration::ZERO,
            value_size: self.value_bytes,
            key_count: self.keys,
            zipf_alpha: self.zipf,
            request_timeout: Duration::from_millis(500),
            read_only_fraction: self.read_only,
            ..ClientConfig::default()
        }
    }

    /// How long repair counters must stand still to end the quiesce:
    /// four anti-entropy periods.
    fn settle_window(&self) -> StdDuration {
        StdDuration::from_millis(4 * self.aae_ms)
    }

    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            servers: SERVERS,
            clients: self.sessions,
            client_workers: self.workers,
            cycles_per_client: self.cycles,
            store: self.store(),
            client: self.client(),
            stall_budget: StdDuration::from_secs(20),
            run_budget: StdDuration::from_secs(90),
            quiesce: StdDuration::from_secs(10),
            settle_window: self.settle_window(),
            ..RuntimeConfig::default()
        }
    }

    pub fn socket_config(&self) -> SocketConfig {
        SocketConfig {
            servers: SERVERS,
            clients: self.sessions,
            cycles_per_client: self.cycles,
            store: self.store(),
            client: self.client(),
            stall_budget: StdDuration::from_secs(20),
            run_budget: StdDuration::from_secs(90),
            quiesce: StdDuration::from_secs(10),
            settle_window: self.settle_window(),
            ..SocketConfig::default()
        }
    }
}
