//! Process-level sampling during a round (CPU time, resident memory,
//! OS threads, client progress from the runtime's live stats) and the
//! host header.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use runtime::FleetStats;

/// How often the process CPU clock is read.
const CPU_EVERY: Duration = Duration::from_millis(1);
/// Every how many CPU reads `/proc/self/status` is read as well (5 ms).
const STATUS_EVERY: u32 = 5;
/// Shortest window whose first and last rates are reported. Its
/// quarters then span at least 62 ms, or 12 progress samples, against
/// the millisecond or so by which the sampler's clock, which starts
/// before the fleet spawns its workers, and `RunReport::elapsed`
/// disagree.
const MIN_RATE_WINDOW_S: f64 = 0.25;

/// What one round's sampler saw.
#[derive(Debug, Default)]
pub struct Samples {
    /// `(seconds since start, process CPU seconds since start)`, from
    /// `(0, 0)` on.
    pub cpu: Vec<(f64, f64)>,
    pub peak_rss_bytes: u64,
    /// `(seconds since start, OS threads in this process)`.
    pub threads: Vec<(f64, u64)>,
    /// `(seconds since start, client ops completed)`; empty without a
    /// live stats handle.
    pub progress: Vec<(f64, u64)>,
}

impl Samples {
    /// Process CPU seconds used in the first `t` seconds.
    pub fn cpu_at(&self, t: f64) -> f64 {
        value_at(self.cpu.iter().copied(), t)
    }

    /// Client ops/s over the first and the last second of a window of
    /// `elapsed` seconds that ended with `ops` completed; a window
    /// shorter than four seconds uses its first and last quarter.
    /// Progress between samples is interpolated. `None` without
    /// progress samples or for a window shorter than
    /// [`MIN_RATE_WINDOW_S`].
    pub fn first_last_rates(&self, elapsed: f64, ops: u64) -> Option<(f64, f64)> {
        if self.progress.is_empty() || elapsed < MIN_RATE_WINDOW_S {
            return None;
        }
        let span = elapsed.min(4.0) / 4.0;
        let ops_at = |t: f64| {
            value_at(
                self.progress.iter().map(|&(s, n)| (s, n.min(ops) as f64)),
                t,
            )
        };
        let first = ops_at(span) / span;
        let last = (ops as f64 - ops_at(elapsed - span)) / span;
        Some((first, last))
    }

    /// The thread count sampled nearest to `t` seconds.
    pub fn threads_at(&self, t: f64) -> u64 {
        self.threads
            .iter()
            .min_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()))
            .map_or(0, |s| s.1)
    }
}

/// The value at `t` of a series of `(seconds, value)` samples,
/// interpolated between the samples around `t` (from `(0, 0)` before
/// the first); past the last sample, its value.
fn value_at(series: impl IntoIterator<Item = (f64, f64)>, t: f64) -> f64 {
    let mut prev = (0.0, 0.0);
    for (s, v) in series {
        if s >= t {
            let w = if s > prev.0 {
                (t - prev.0) / (s - prev.0)
            } else {
                1.0
            };
            return prev.1 + w * (v - prev.1);
        }
        prev = (s, v);
    }
    prev.1
}

/// A background thread sampling until [`Sampler::stop`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Samples>,
}

impl Sampler {
    /// Starts sampling; times count from `origin`, and CPU time from
    /// `cpu_origin`, the process CPU clock read at `origin`. With
    /// `live`, client progress is summed over the given node range of
    /// the runtime's live snapshots.
    pub fn start(
        origin: Instant,
        cpu_origin: f64,
        live: Option<(FleetStats, Range<usize>)>,
        detail: bool,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut out = Samples {
                cpu: vec![(0.0, 0.0)],
                ..Samples::default()
            };
            let mut tick = 0u32;
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(CPU_EVERY);
                let t = origin.elapsed().as_secs_f64();
                out.cpu.push((t, process_cpu_s() - cpu_origin));
                tick += 1;
                if !tick.is_multiple_of(STATUS_EVERY) {
                    continue;
                }
                let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
                if let Some(kb) = status_field(&status, "VmRSS:") {
                    out.peak_rss_bytes = out.peak_rss_bytes.max(kb * 1024);
                }
                if detail {
                    if let Some(n) = status_field(&status, "Threads:") {
                        out.threads.push((t, n));
                    }
                    if let Some((stats, clients)) = &live {
                        let ops = clients.clone().map(|i| stats.snapshot(i).ops_ok).sum();
                        out.progress.push((t, ops));
                    }
                }
            }
            out
        });
        Sampler { stop, handle }
    }

    pub fn stop(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked")
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restricts the calling thread, and so every thread it spawns later,
/// to the highest-numbered CPU it may run on, and returns that CPU.
///
/// The fleets run more threads than a small host has CPUs, and pass
/// every message between threads. Spread over several virtual CPUs of
/// a shared host, their speed follows cross-CPU wake-ups and which
/// virtual CPU the host happens to stall, more than the program's own
/// work. On one CPU the threads hand over to each other without
/// cross-CPU wake-ups. The highest-numbered CPU is taken because CPU 0
/// usually serves most device interrupts.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPU_CLOCK: i32 = 2;

/// CPU seconds every thread of this process has run so far. On a
/// virtual machine the kernel leaves out time the host took the
/// virtual CPU away (steal), so this counts the program's own work.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn status_field(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// The host a result was measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    /// The one CPU the benchmark runs on (see [`pin_to_one_cpu`]).
    pub pinned_cpu: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: String,
}

impl Host {
    /// Describes this host; `nproc` counts the CPUs the process may
    /// use before it is pinned to `pinned_cpu`.
    pub fn detect(nproc: usize, pinned_cpu: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc,
            pinned_cpu,
            cpu,
            kernel,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
        }
    }
}
