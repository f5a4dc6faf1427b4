//! Turns measured rounds into named metrics, each with its unit, its
//! better direction and the sample count it rests on, and prints them.

use std::fmt::Write as _;

use kvstore::messages::MsgClass;
use workloads::Histogram;

use crate::probe::Host;
use crate::round::Round;
use crate::trace::{Layer, Stat, Totals};
use crate::workload::Shape;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub samples: u64,
    /// For a percentile: samples beyond its reported value.
    pub beyond: Option<u64>,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    better: Better,
    samples: u64,
) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        better,
        samples,
        beyond: None,
    }
}

fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolated between neighbours.
fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let at = q * (values.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    values[lo] + (at - lo as f64) * (values[hi] - values[lo])
}

/// A timing over its samples, as the quartile the host slowed least:
/// the 25th percentile of a time, the 75th of a rate. A shared host
/// slows stretches of a run by up to a half, and a median moves with
/// how much of the run such stretches cover; this quartile does not
/// until they cover most of it.
fn least_slowed(values: Vec<f64>, better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, 0.25),
        Better::Higher => quantile(values, 0.75),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sum(rounds: &[Round], f: impl Fn(&Round) -> u64) -> u64 {
    rounds.iter().map(f).sum()
}

/// Median over rounds of a per-round value.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(rounds.iter().map(f).collect())
}

/// A per-round timing over rounds, by [`least_slowed`].
fn timing(rounds: &[Round], better: Better, f: impl Fn(&Round) -> f64) -> f64 {
    least_slowed(rounds.iter().map(f).collect(), better)
}

/// Per-round ops/s over rounds, by [`least_slowed`].
pub fn ops_per_s(rounds: &[Round]) -> f64 {
    timing(rounds, Better::Higher, Round::ops_per_s)
}

/// The end-to-end metrics the `--trace 0` result line carries, and
/// BENCHMARK.json bounds. The pinned CPU's time per op is what a
/// shared host moves least: time the host takes the CPU away is not
/// counted, while it stretches wall-clock rates and latencies of whole
/// runs. Those (`ops_per_s` and the latency means) and `fail_frac`, zero
/// on a healthy run, go to the traced result line instead.
pub const RESULT_LINE: [&str; 4] = [
    "cpu_us_per_op",
    "wire_bytes_per_op",
    "peak_rss_mb",
    "setup_s",
];

/// The end-to-end metrics of untraced rounds.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let n = rounds.len() as u64;
    let get_count = sum(rounds, |r| r.get.count());
    let put_count = sum(rounds, |r| r.put.count());
    let attempted = sum(rounds, |r| r.attempted);
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let setup_count = setups.len() as u64;
    vec![
        metric(
            "cpu_us_per_op",
            timing(rounds, Better::Lower, Round::cpu_us_per_op),
            "us",
            Better::Lower,
            n,
        ),
        metric("ops_per_s", ops_per_s(rounds), "1/s", Better::Higher, n),
        metric(
            "get_mean_us",
            timing(rounds, Better::Lower, |r| r.get.mean()),
            "us",
            Better::Lower,
            get_count,
        ),
        metric(
            "put_mean_us",
            timing(rounds, Better::Lower, |r| r.put.mean()),
            "us",
            Better::Lower,
            put_count,
        ),
        metric(
            "fail_frac",
            ratio(sum(rounds, |r| r.failed) as f64, attempted as f64),
            "frac",
            Better::Lower,
            attempted,
        ),
        metric(
            "wire_bytes_per_op",
            per_round(rounds, |r| ratio(r.wire.total_bytes() as f64, r.ops as f64)),
            "B/op",
            Better::Lower,
            n,
        ),
        metric(
            "peak_rss_mb",
            per_round(rounds, |r| r.samples.peak_rss_bytes as f64) / (1 << 20) as f64,
            "MiB",
            Better::Lower,
            n,
        ),
        metric(
            "setup_s",
            least_slowed(setups, Better::Lower),
            "s",
            Better::Lower,
            setup_count,
        ),
    ]
}

/// Samples at or below `edge` in `h`: the largest `k` whose `k`-th
/// smallest sample the histogram places at or below `edge`.
fn count_at_most(h: &Histogram, edge: u64) -> u64 {
    let n = h.count();
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if h.percentile((mid as f64 - 0.5) / n as f64) <= edge {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Latency tails from the client histograms: log2 bucket upper edges,
/// each with the number of samples beyond it.
fn tails(rounds: &[Round]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (op, pick) in [
        ("get", (|r: &Round| &r.get) as fn(&Round) -> &Histogram),
        ("put", |r: &Round| &r.put),
    ] {
        let mut h = Histogram::new();
        for r in rounds {
            h.merge(pick(r));
        }
        for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
            let edge = h.percentile(q);
            let mut m = metric(
                format!("client.{op}_{label}_us_bucket"),
                edge as f64,
                "us",
                Better::Lower,
                h.count(),
            );
            m.beyond = Some(h.count() - count_at_most(&h, edge));
            out.push(m);
        }
    }
    out
}

/// The per-layer metrics: spans and counters from traced rounds,
/// latency tails and the failure share from untraced ones, and the
/// throughput the tracing cost.
pub fn per_layer(untraced: &[Round], traced: &[Round]) -> Vec<Metric> {
    let n = traced.len() as u64;
    let ops = sum(traced, |r| r.ops) as f64;
    let mut spans = Totals::default();
    let mut codec = Totals::default();
    for r in traced {
        spans.absorb(&r.spans);
        codec.absorb(&r.codec);
    }
    let ns = |name: &str, s: Stat| metric(name, s.mean_self_ns(), "ns", Better::Lower, s.calls);
    let per_op =
        |name: &str, count: u64| metric(name, ratio(count as f64, ops), "1/op", Better::Lower, n);
    let per_kop = |name: &str, count: u64| {
        metric(
            name,
            ratio(count as f64 * 1000.0, ops),
            "1/kop",
            Better::Lower,
            n,
        )
    };
    // A per-round count over the `rounds` rounds that ran the layer.
    let per_round_count = |name: &str, count: u64, rounds: u64| {
        metric(
            name,
            ratio(count as f64, rounds as f64),
            "count",
            Better::Lower,
            rounds,
        )
    };
    let fabric_rounds = traced.iter().filter(|r| r.fabric.is_some()).count() as u64;
    let storage_rounds = traced.iter().filter(|r| r.storage.is_some()).count() as u64;
    let dvv_calls: u64 = [
        Layer::DvvWrite,
        Layer::DvvMerge,
        Layer::DvvRead,
        Layer::DvvMergeContexts,
    ]
    .iter()
    .map(|l| spans.get(*l).calls)
    .sum();
    let fleet_codec_calls =
        spans.get(Layer::DvvEncodeState).calls + spans.get(Layer::DvvDecodeState).calls;

    let mut out = vec![
        ns("dvv.write_ns", spans.get(Layer::DvvWrite)),
        ns("dvv.merge_ns", spans.get(Layer::DvvMerge)),
        ns("dvv.read_ns", spans.get(Layer::DvvRead)),
        ns("dvv.merge_contexts_ns", spans.get(Layer::DvvMergeContexts)),
        per_op("dvv.calls_per_op", dvv_calls),
        metric(
            "dvv.siblings_per_key",
            per_round(traced, |r| r.siblings_per_key),
            "count",
            Better::Lower,
            n,
        ),
        metric(
            "dvv.metadata_bytes_per_key",
            per_round(traced, |r| r.metadata_bytes_per_key),
            "B",
            Better::Lower,
            n,
        ),
        ns("dvv.encode_state_ns", codec.get(Layer::DvvEncodeState)),
        ns("dvv.decode_state_ns", codec.get(Layer::DvvDecodeState)),
        per_op("dvv.codec_calls_per_op", fleet_codec_calls),
        metric(
            "client.observed_ids_per_write",
            ratio(
                sum(traced, |r| r.observed_ids) as f64,
                sum(traced, |r| r.writes) as f64,
            ),
            "1/write",
            Better::Lower,
            sum(traced, |r| r.writes),
        ),
        per_kop("client.retries_per_kop", sum(traced, |r| r.retries)),
    ];
    let rates: Vec<(f64, f64)> = traced
        .iter()
        .filter_map(|r| r.samples.first_last_rates(r.elapsed_s, r.ops))
        .collect();
    let rate_samples = rates.len() as u64;
    out.push(metric(
        "client.ops_per_s_first_s",
        median(rates.iter().map(|r| r.0).collect()),
        "1/s",
        Better::Higher,
        rate_samples,
    ));
    out.push(metric(
        "client.ops_per_s_last_s",
        median(rates.iter().map(|r| r.1).collect()),
        "1/s",
        Better::Higher,
        rate_samples,
    ));
    out.extend([
        per_op("kvstore.msgs_per_op", sum(traced, Round::msgs)),
        per_kop(
            "kvstore.quorum_timeouts_per_kop",
            sum(traced, |r| r.quorum_timeouts),
        ),
        per_kop(
            "kvstore.read_repairs_per_kop",
            sum(traced, |r| r.read_repairs),
        ),
        metric(
            "kvstore.aae_divergent_frac",
            ratio(
                sum(traced, |r| r.aae_divergent) as f64,
                sum(traced, |r| r.aae_rounds) as f64,
            ),
            "frac",
            Better::Lower,
            sum(traced, |r| r.aae_rounds),
        ),
        ns("kvstore.messages.encode_ns", codec.get(Layer::MsgEncode)),
        ns("kvstore.messages.decode_ns", codec.get(Layer::MsgDecode)),
        per_op(
            "runtime.events_per_op",
            sum(traced, |r| r.events.unwrap_or(0)),
        ),
    ]);
    let fabric =
        |f: fn(&transport::FabricStats) -> u64| sum(traced, |r| r.fabric.as_ref().map_or(0, f));
    out.extend([
        per_op("transport.frames_per_op", fabric(|f| f.written_frames)),
        per_round_count(
            "transport.dropped_frames",
            fabric(|f| f.dropped_frames),
            fabric_rounds,
        ),
        per_round_count(
            "transport.inbox_drops",
            fabric(|f| f.inbox_drops),
            fabric_rounds,
        ),
        per_round_count(
            "transport.reconnects",
            fabric(|f| f.reconnects),
            fabric_rounds,
        ),
        metric(
            "transport.os_threads",
            per_round(traced, |r| r.samples.threads_at(r.elapsed_s / 2.0) as f64),
            "count",
            Better::Lower,
            n,
        ),
        ns("transport.frame.write_ns", codec.get(Layer::FrameWrite)),
        ns("transport.frame.read_ns", codec.get(Layer::FrameRead)),
    ]);
    let storage = |f: fn(&crate::traced::StorageTally) -> u64| {
        sum(traced, |r| r.storage.as_ref().map_or(0, f))
    };
    let (appended, rewritten) = (storage(|s| s.appended), storage(|s| s.rewritten));
    out.extend([
        ns("storage.apply_ns", spans.get(Layer::StorageApply)),
        ns("storage.apply_sync_ns", spans.get(Layer::StorageApplySync)),
        ns(
            "storage.reservation_ns",
            spans.get(Layer::StorageReservation),
        ),
        metric(
            "storage.syncs_per_kput",
            ratio(
                storage(|s| s.syncs) as f64 * 1000.0,
                storage(|s| s.applies) as f64,
            ),
            "1/kput",
            Better::Lower,
            storage(|s| s.applies),
        ),
        per_round_count(
            "storage.compactions",
            storage(|s| s.compactions),
            storage_rounds,
        ),
        metric(
            "storage.write_amp",
            ratio((appended + rewritten) as f64, appended as f64),
            "ratio",
            Better::Lower,
            storage_rounds,
        ),
        metric(
            "storage.space_amp",
            per_round(traced, |r| {
                r.storage
                    .as_ref()
                    .map_or(0.0, |s| ratio(s.durable as f64, s.live as f64))
            }),
            "ratio",
            Better::Lower,
            storage_rounds,
        ),
        metric(
            "storage.replay_s",
            per_round(traced, |r| r.replay_s.unwrap_or(0.0)),
            "s",
            Better::Lower,
            traced.iter().filter(|r| r.replay_s.is_some()).count() as u64,
        ),
    ]);
    for class in MsgClass::ALL {
        out.push(metric(
            format!("kvstore.wire.{}_bytes_per_op", class.name()),
            ratio(sum(traced, |r| r.wire.bytes(class)) as f64, ops),
            "B/op",
            Better::Lower,
            n,
        ));
    }
    out.extend(tails(untraced));
    out.extend(
        end_to_end(untraced)
            .into_iter()
            .filter(|m| !RESULT_LINE.contains(&m.name.as_str())),
    );
    out.push(metric(
        "trace.overhead_frac",
        1.0 - ratio(ops_per_s(traced), ops_per_s(untraced)),
        "frac",
        Better::Lower,
        n,
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result: `correct`, `attempted`, `failed` and each
/// metric's value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The human-readable table: one metric per line with unit, better
/// direction and samples (and the count beyond for percentiles).
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{title}\n  {:<38} {:>16} {:<7} {:<8} {:>9}\n",
        "metric", "value", "unit", "better", "samples"
    );
    for m in metrics {
        let _ = write!(
            out,
            "  {:<38} {:>16.4} {:<7} {:<8} {:>9}",
            m.name,
            m.value,
            m.unit,
            m.better.name(),
            m.samples
        );
        if let Some(b) = m.beyond {
            let _ = write!(out, "  ({b} beyond; log2 bucket upper edge)");
        }
        out.push('\n');
    }
    out
}

pub fn host_line(host: &Host) -> String {
    format!(
        "host: nproc={} pinned_cpu={} cpu={:?} kernel={} rustc={:?}",
        host.nproc, host.pinned_cpu, host.cpu, host.kernel, host.rustc
    )
}

/// The self-describing result document `--out` writes (only for a run
/// that passed its gate) and `compare.py` reads.
#[allow(clippy::too_many_arguments)]
pub fn document(
    host: &Host,
    shape: &Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let mut out = String::from("{\n  \"schema\": \"perfbench-result/1\",\n");
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {}, \"pinned_cpu\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}}},",
        host.nproc,
        host.pinned_cpu,
        json_str(&host.cpu),
        json_str(&host.kernel),
        json_str(&host.rustc)
    );
    let _ = writeln!(
        out,
        "  \"workload\": {{\"name\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"shape\": {}, \"why\": {}}},",
        json_str(shape.name),
        json_str(&shape.describe()),
        json_str(shape.why)
    );
    let _ = writeln!(
        out,
        "  \"correct\": true, \"attempted\": {attempted}, \"failed\": {failed},\n  \"metrics\": {{"
    );
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            let beyond = m.beyond.map_or(String::new(), |b| format!(", \"beyond\": {b}"));
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": \"{}\", \"samples\": {}{beyond}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit),
                m.better.name(),
                m.samples
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}
