//! The repository's benchmark: closed-loop workloads over the threaded,
//! socket and durable fleets, each gated for correctness after its
//! timed window.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-rmw|cold-tcp|durable-write|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! A run repeats rounds (one fleet lifetime each) for `--seconds` of
//! wall clock, set-up, quiesce and gate included, and at least
//! [`MIN_ROUNDS`]. With `--trace 0` it reports the
//! end-to-end metrics of those rounds. With `--trace 1` it splits the
//! seconds between untraced rounds and then traced ones, and reports
//! the per-layer metrics. The whole process runs on one CPU (see
//! [`probe::pin_to_one_cpu`]). Stdout carries a table per workload (metric,
//! value, unit, better direction, samples) and, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. A
//! run whose gate fails prints `correct: false` without metrics and
//! exits with status 1. `--out` writes a result document per workload;
//! with `all` each file name gets the workload's name before its
//! extension.

mod codec;
mod gate;
mod probe;
mod report;
mod round;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Host;
use report::Metric;
use round::Round;
use workload::Shape;

/// Rounds a phase runs at least, whatever its seconds.
const MIN_ROUNDS: usize = 3;
/// Minimum time the traced codec pass spends on the message sample.
const CODEC_PASS: Duration = Duration::from_millis(300);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && workload::find(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {} or all",
            workload::WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A seed for round `r` of a phase, spread from the run's seed.
fn round_seed(seed: u64, phase: u64, r: u64) -> u64 {
    let mut z = seed ^ phase.rotate_left(32) ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a run stopped early: the cycles it attempted and failed, and
/// the error.
type Stop = (u64, u64, String);

/// Runs rounds back to back for `seconds` of wall clock (set-up,
/// window, quiesce and gate included), and at least [`MIN_ROUNDS`].
fn rounds(
    shape: &Shape,
    args: &Args,
    seconds: f64,
    phase: u64,
    traced: bool,
) -> Result<Vec<Round>, Stop> {
    let work_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string());
    let started = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    while out.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let r = out.len() as u64;
        let work = work_root.join(format!("{}-{phase}-{r}", shape.name));
        let round = match round::run(shape, round_seed(args.seed, phase, r), traced, &work) {
            Ok(round) => round,
            Err(e) => {
                remove_work_root(&work_root);
                // Nothing the failing round returned can be trusted:
                // every cycle it set out to run counts as attempted
                // and failed.
                let planned = shape.sessions as u64 * u64::from(shape.cycles);
                return Err((
                    out.iter().map(|r| r.attempted).sum::<u64>() + planned,
                    out.iter().map(|r| r.failed).sum::<u64>() + planned,
                    format!("{} round {r}: {e}", shape.name),
                ));
            }
        };
        eprintln!(
            "{} round {r}: window {:.3} s of {:.3} s run, {} ops ({:.0}/s, {:.1} cpu us/op), gate {:.3} s",
            shape.name,
            round.elapsed_s,
            round.run_s,
            round.ops,
            round.ops_per_s(),
            round.cpu_us_per_op(),
            round.gate_s
        );
        out.push(round);
    }
    remove_work_root(&work_root);
    Ok(out)
}

/// Removes this process's scratch directory for round logs and, when
/// no other run still uses it, its parent.
fn remove_work_root(work_root: &std::path::Path) {
    let _ = std::fs::remove_dir_all(work_root);
    if let Some(parent) = work_root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Where `--out` puts the document of `shape`: the given path for a
/// single workload, and with `all` that path with the workload's name
/// before its extension (`r.json` → `r.hot-rmw.json`).
fn out_path(args: &Args, shape: &Shape) -> Option<PathBuf> {
    let path = args.out.as_ref()?;
    if args.workload != "all" {
        return Some(path.clone());
    }
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{}.{}", shape.name, ext.to_string_lossy()),
        None => format!("{stem}.{}", shape.name),
    };
    Some(path.with_file_name(name))
}

struct Outcome {
    attempted: u64,
    failed: u64,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
}

/// Runs one workload and prints its tables.
fn run_workload(shape: &Shape, args: &Args, host: &Host) -> Result<Outcome, Stop> {
    println!(
        "== {} · seed {} · {} s · trace {}",
        shape.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("shape: {}", shape.describe());
    println!("why: {}", shape.why);
    // A traced run gives each phase half the seconds, so that every
    // run takes about as long whatever its mode.
    let phase_s = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let plain = rounds(shape, args, phase_s, 0, false)?;
    let mut attempted: u64 = plain.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = plain.iter().map(|r| r.failed).sum();
    let e2e = report::end_to_end(&plain);
    println!(
        "untraced rounds: {} ({:.2} s measured)",
        plain.len(),
        plain.iter().map(|r| r.elapsed_s).sum::<f64>()
    );
    print!("{}", report::table("end-to-end", &e2e));
    let metrics = if args.trace {
        let mut traced = rounds(shape, args, phase_s, 1, true)
            .map_err(|(a, f, e)| (attempted + a, failed + f, e))?;
        attempted += traced.iter().map(|r| r.attempted).sum::<u64>();
        failed += traced.iter().map(|r| r.failed).sum::<u64>();
        let last = traced.last_mut().expect("at least one traced round");
        let sample = std::mem::take(&mut last.sample);
        last.codec = codec::pass(&sample, CODEC_PASS)
            .map_err(|e| (attempted, failed, format!("{} codec pass: {e}", shape.name)))?;
        println!("traced rounds: {}", traced.len());
        let layers = report::per_layer(&plain, &traced);
        print!("{}", report::table("per-layer", &layers));
        layers
    } else {
        e2e
    };
    if let Some(path) = out_path(args, shape) {
        let doc = report::document(
            host,
            shape,
            args.seed,
            args.seconds,
            args.trace,
            attempted,
            failed,
            &metrics,
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("writing {}: {e}", path.display());
        }
    }
    let metrics = if args.trace {
        metrics
    } else {
        metrics
            .into_iter()
            .filter(|m| report::RESULT_LINE.contains(&m.name.as_str()))
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Counted before pinning, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = match probe::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: pinning to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect(nproc, pinned);
    println!("{}", report::host_line(&host));
    let shapes: Vec<&Shape> = match workload::find(&args.workload) {
        Some(s) => vec![s],
        None => workload::WORKLOADS.iter().collect(),
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for shape in &shapes {
        match run_workload(shape, &args, &host) {
            Ok(o) => {
                attempted += o.attempted;
                failed += o.failed;
                let prefix = if shapes.len() > 1 {
                    format!("{}.", shape.name)
                } else {
                    String::new()
                };
                metrics.extend(o.metrics.into_iter().map(|mut m| {
                    m.name = format!("{prefix}{}", m.name);
                    m
                }));
            }
            Err((a, f, e)) => {
                eprintln!("perfbench: correctness gate failed: {e}");
                println!(
                    "{}",
                    report::result_line(false, attempted + a, failed + f, &[])
                );
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", report::result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
