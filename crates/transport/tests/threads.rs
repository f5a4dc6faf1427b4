//! A `SocketFleet` runs one thread per node and no more: the fabric has
//! no threads of its own. Sampling `/proc/self/task` throughout a run
//! must never count more than the nodes plus three — this process's
//! main thread (which runs the fleet), the stall watchdog, and the
//! sampler itself.
//!
//! Built without the libtest harness (see `Cargo.toml`), so no test
//! runner thread inflates the count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration as StdDuration;

use dvv::mechanisms::DvvMechanism;
use kvstore::config::{ClientConfig, StoreConfig};
use simnet::Duration;
use transport::{SocketConfig, SocketFleet};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

fn main() {
    let config = SocketConfig {
        servers: 4,
        clients: 4,
        cycles_per_client: 150,
        store: StoreConfig {
            anti_entropy_interval: Duration::from_millis(25),
            ..StoreConfig::default()
        },
        client: ClientConfig {
            key_count: 64,
            ..ClientConfig::default()
        },
        quiesce: StdDuration::from_millis(300),
        settle_window: StdDuration::from_millis(100),
        ..SocketConfig::default()
    };
    let nodes = config.servers + config.clients;

    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                thread::sleep(StdDuration::from_millis(2));
            }
            peak
        })
    };
    let mut fleet = SocketFleet::new(0x7EAD, DvvMechanism, config);
    let report = fleet
        .run()
        .unwrap_or_else(|stall| panic!("socket fleet stalled:\n{stall}"));
    done.store(true, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler thread");

    assert!(report.all_done, "clients left unfinished");
    assert!(
        peak >= nodes,
        "sampled {peak} threads: never saw the fleet's {nodes} node threads"
    );
    assert!(
        peak <= nodes + 3,
        "{peak} threads for {nodes} nodes: the fabric must not spawn threads"
    );
    println!("socket fleet thread bound: peak {peak} threads for {nodes} nodes ... ok");
}
