//! One round: build a fleet (timed as set-up), run it (the timed
//! window), read every stats surface, gate it, and for traced rounds
//! time log replay and the codec pass.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use dvv::mechanisms::{DvvMechanism, WireMechanism};
use kvstore::cluster::EngineFactory;
use kvstore::harness::FleetHarness;
use kvstore::messages::{Msg, MsgClass, WireStats};
use kvstore::value::StampedValue;
use runtime::watchdog::{Progress, StallReport};
use runtime::{FleetStats, RunReport, RuntimeFleet};
use simnet::SimRng;
use storage::{LogConfig, LogEngine};
use transport::{Fabric, FabricStats, SocketConfig, SocketFleet};
use workloads::Histogram;

use crate::probe::{Sampler, Samples};
use crate::trace::{self, Totals};
use crate::traced::{DvvState, StorageProbe, StorageTally, TracedDvv, TracedEngine};
use crate::workload::{Driver, Shape, SERVERS};

/// Fleets built per round; the last one runs, and the set-up metric is
/// the median over all of them.
const SETUPS_PER_ROUND: usize = 5;

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: Vec<f64>,
    pub elapsed_s: f64,
    /// Process CPU time spent within the timed window.
    pub cpu_s: f64,
    /// Wall time of the whole fleet run, quiesce included.
    pub run_s: f64,
    /// Wall time the correctness gate took (not measured time).
    pub gate_s: f64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub get: Histogram,
    pub put: Histogram,
    pub wire: WireStats,
    pub samples: Samples,
    pub quorum_timeouts: u64,
    pub read_repairs: u64,
    pub aae_rounds: u64,
    pub aae_divergent: u64,
    /// Events dispatched by every hosted node (threaded driver only).
    pub events: Option<u64>,
    pub fabric: Option<FabricStats>,
    pub observed_ids: u64,
    pub writes: u64,
    pub siblings_per_key: f64,
    pub metadata_bytes_per_key: f64,
    /// Traced rounds only from here on.
    pub storage: Option<StorageTally>,
    pub replay_s: Option<f64>,
    pub spans: Totals,
    /// Messages rebuilt from the final states, for the codec pass.
    pub sample: Vec<Msg<TracedDvv>>,
    /// Spans of the codec pass (run on one round of a phase).
    pub codec: Totals,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s.max(1e-9)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops.max(1) as f64
    }

    pub fn msgs(&self) -> u64 {
        MsgClass::ALL.iter().map(|c| self.wire.msgs(*c)).sum()
    }
}

/// What the round runner needs from a driver beyond the audit surface.
trait Fleet<M: WireMechanism<StampedValue>>: FleetHarness<M> {
    fn run_fleet(&mut self) -> Result<RunReport, StallReport>;
    fn live(&self) -> Option<FleetStats>;
    fn fabric(&self) -> Option<FabricStats>;
}

impl<M> Fleet<M> for RuntimeFleet<M>
where
    M: WireMechanism<StampedValue> + Send + 'static,
    M::State: Send,
    M::Context: Send,
{
    fn run_fleet(&mut self) -> Result<RunReport, StallReport> {
        self.run()
    }

    fn live(&self) -> Option<FleetStats> {
        Some(self.stats())
    }

    fn fabric(&self) -> Option<FabricStats> {
        None
    }
}

impl<M> Fleet<M> for SocketFleet<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    fn run_fleet(&mut self) -> Result<RunReport, StallReport> {
        self.run()
    }

    fn live(&self) -> Option<FleetStats> {
        None
    }

    fn fabric(&self) -> Option<FabricStats> {
        Some(self.fabric_report())
    }
}

/// Runs one round of `shape` under `seed`. `work` is a scratch
/// directory for logs, removed before returning.
pub fn run(shape: &Shape, seed: u64, traced: bool, work: &Path) -> Result<Round, String> {
    let out = if traced {
        run_with(shape, seed, TracedDvv, true, work)
    } else {
        run_with(shape, seed, DvvMechanism, false, work)
    };
    let _ = std::fs::remove_dir_all(work);
    out
}

fn run_with<M>(
    shape: &Shape,
    seed: u64,
    mech: M,
    traced: bool,
    work: &Path,
) -> Result<Round, String>
where
    M: WireMechanism<StampedValue, State = DvvState> + Copy + Send + Sync + 'static,
    M::Context: Send,
{
    match shape.driver {
        Driver::Socket => {
            let cfg = shape.socket_config();
            measure::<M, _>(shape, traced, None, Vec::new(), |_| {
                let fleet = SocketFleet::new(seed, mech, cfg.clone());
                bind_probe(mech, &cfg, seed);
                fleet
            })
        }
        Driver::Threaded => {
            let cfg = shape.runtime_config();
            let probes: Vec<Arc<StorageProbe>> = (0..SERVERS).map(|_| Arc::default()).collect();
            let durable = shape.durable;
            let log_dir = |rep: usize| work.join(format!("setup-{rep}"));
            let logs = durable.then(|| log_dir(SETUPS_PER_ROUND - 1));
            let probe_list = if traced && durable {
                probes.clone()
            } else {
                Vec::new()
            };
            measure::<M, _>(shape, traced, logs, probe_list, |rep| {
                if !durable {
                    return RuntimeFleet::new(seed, mech, cfg.clone());
                }
                std::fs::create_dir_all(log_dir(rep)).expect("create log directory");
                let factory = if traced {
                    let (dir, probes) = (log_dir(rep), probes.clone());
                    EngineFactory::new(move |slot| {
                        let log = LogEngine::<DvvState>::open(
                            dir.join(format!("node-{slot}.log")),
                            LogConfig::default(),
                        )
                        .expect("open log engine");
                        Box::new(TracedEngine::new(log, Arc::clone(&probes[slot])))
                    })
                } else {
                    EngineFactory::log_in(log_dir(rep), LogConfig::default())
                };
                RuntimeFleet::new_durable(seed, mech, cfg.clone(), factory)
            })
        }
    }
}

/// Binds and tears down a socket fabric of the fleet's size, the
/// listener set-up `SocketFleet::run` repeats before its first op.
fn bind_probe<M>(mech: M, cfg: &SocketConfig, seed: u64)
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
    M::State: Send,
    M::Context: Send,
{
    let nodes = cfg.servers + cfg.clients;
    let (inboxes, _receivers): (Vec<_>, Vec<_>) = (0..nodes)
        .map(|_| mpsc::sync_channel(cfg.inbox_capacity))
        .unzip();
    let shutdown = Arc::new(AtomicBool::new(false));
    let fabric = Fabric::start(
        mech,
        nodes,
        inboxes,
        Arc::new(Progress::new(nodes)),
        Arc::clone(&shutdown),
        SimRng::new(seed).fork("bind-probe"),
        cfg.queue_capacity,
        cfg.max_frame,
        cfg.cluster_secret,
    )
    .expect("bind loopback listeners");
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    fabric.stop();
}

fn measure<M, F>(
    shape: &Shape,
    traced: bool,
    logs: Option<PathBuf>,
    probes: Vec<Arc<StorageProbe>>,
    mut build: impl FnMut(usize) -> F,
) -> Result<Round, String>
where
    M: WireMechanism<StampedValue, State = DvvState>,
    F: Fleet<M>,
{
    let mut round = Round::default();
    let mut fleet = None;
    for rep in 0..SETUPS_PER_ROUND {
        drop(fleet.take());
        let started = Instant::now();
        let built = build(rep);
        round.setup_s.push(started.elapsed().as_secs_f64());
        fleet = Some(built);
    }
    let mut fleet = fleet.expect("at least one set-up");
    trace::collect();

    let clients = SERVERS..SERVERS + shape.sessions;
    let live = fleet.live();
    let run_started = Instant::now();
    let sampler = Sampler::start(
        run_started,
        crate::probe::process_cpu_s(),
        live.clone().filter(|_| traced).map(|l| (l, clients)),
        traced,
    );
    let outcome = fleet.run_fleet();
    round.run_s = run_started.elapsed().as_secs_f64();
    round.samples = sampler.stop();
    if traced {
        round.spans = trace::collect();
    }
    let report = outcome.map_err(|stall| format!("fleet stalled:\n{stall}"))?;
    if !report.all_done {
        return Err("fleet did not finish its cycles".to_string());
    }
    round.elapsed_s = report.elapsed.as_secs_f64();
    round.cpu_s = round.samples.cpu_at(round.elapsed_s);
    round.ops = report.ops_ok;

    let latency = fleet.latency_report();
    round.get = latency.get;
    round.put = latency.put;
    round.failed = latency.failed_cycles;
    round.retries = latency.retries;
    round.wire = fleet.wire_report();
    for j in 0..fleet.client_count() {
        let client = fleet.client_ref(j);
        round.attempted += u64::from(client.cycles_done());
        for entry in client.write_log() {
            round.writes += 1;
            round.observed_ids += entry.observed.len() as u64;
        }
    }
    let (mut keys, mut metadata, mut siblings) = (0usize, 0usize, 0.0);
    let members = fleet.member_servers();
    for &i in &members {
        let server = fleet.server_ref(i);
        let stats = server.stats();
        round.quorum_timeouts += stats.quorum_timeouts;
        round.read_repairs += stats.read_repairs;
        round.aae_rounds += stats.aae_rounds;
        round.aae_divergent += stats.aae_divergent;
        keys += server.data().len();
        metadata += server.metadata_bytes();
        siblings += server.mean_siblings();
    }
    round.siblings_per_key = siblings / members.len() as f64;
    round.metadata_bytes_per_key = metadata as f64 / keys.max(1) as f64;
    round.events = live.map(|l| (0..l.len()).map(|i| l.snapshot(i).events).sum());
    round.fabric = fleet.fabric();
    if !probes.is_empty() {
        let mut tally = StorageTally::default();
        for p in &probes {
            tally.absorb(&p.tally());
        }
        round.storage = Some(tally);
    }
    if traced {
        round.sample = crate::codec::sample(&fleet);
    }

    let gate_started = Instant::now();
    crate::gate::check(&mut fleet, SERVERS, logs.as_deref())?;
    drop(fleet);
    round.gate_s = gate_started.elapsed().as_secs_f64();

    if let (true, Some(dir)) = (traced, &logs) {
        let started = Instant::now();
        for slot in 0..SERVERS {
            LogEngine::<DvvState>::open(dir.join(format!("node-{slot}.log")), LogConfig::default())
                .map_err(|e| format!("replaying log {slot}: {e}"))?;
        }
        round.replay_s = Some(started.elapsed().as_secs_f64());
    }
    Ok(round)
}
