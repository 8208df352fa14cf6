//! End-to-end and per-stage benchmark of the ZigZag receiver.
//!
//! ```text
//! cargo run --release --manifest-path zzbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `stream_saturated`, `stream_paced`, `recovery_groups`,
//! `cell_dcf` (see `zzbench/BENCHMARK.md`). Inputs come from `--seed`
//! alone. Every run checks the receiver's outputs against ground truth
//! and exits non-zero on any failure. The last line of standard output is
//! the result: end-to-end metrics with `--trace 0`, per-layer metrics
//! (and the tracing overhead) with `--trace 1`, which also writes the
//! recorded spans to `.bench_trace/`.

mod cell;
mod gen;
mod recovery;
mod report;
#[cfg(test)]
mod selftest;
mod stream;
mod trace;

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use zigzag_core::engine::BatchEngine;
use zigzag_core::ShardConfig;

use report::{json_num, json_object, json_string, median, result_line, Metrics};
use trace::{Probe, Span};

/// Air samples per 20 µs MAC slot at the 1 sample/symbol, 802.11g
/// scaling the cell lowering uses (10 symbols per slot).
pub const SAMPLES_PER_SLOT: f64 = 10.0;

/// Set-ups timed before the timed passes, and as many again after them.
/// `setup_s` is the median of all of them: the host's speed drifts in
/// phases of a second or two, so set-ups timed back to back all meet the
/// same phase, while set-ups on both sides of the timed passes seldom do.
const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 4] = ["stream_saturated", "stream_paced", "recovery_groups", "cell_dcf"];

/// The end-to-end metrics, in report order.
const E2E: [&str; 8] = [
    "setup_s",
    "throughput_msamples_per_s",
    "throughput_buffers_per_s",
    "region_latency_p50_ms",
    "region_latency_p95_ms",
    "sim_slots_per_s",
    "frames_delivered_frac",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports; a layer a workload never
/// enters reads 0.
fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("stream.segment_busy_s", "s"),
        ("stream.segment_msamples_per_s", "Msamples/s"),
        ("stream.regions", "count"),
        ("stream.carved_frac", "ratio"),
        ("stream.source_stalls", "count"),
        ("stream.ring_high_water", "samples"),
        ("shard.queue_wait_p50_ms", "ms"),
        ("shard.queue_wait_p99_ms", "ms"),
        ("shard.stalls", "count"),
        ("shard.queue_high_water", "count"),
        ("shard.load_max_over_mean", "ratio"),
        ("shard.worker_busy_frac", "ratio"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for stage in trace::standard_stages() {
        for (field, unit) in
            [("calls", "count"), ("busy_s", "s"), ("finished", "count"), ("delivered", "count")]
        {
            v.push((format!("stage.{}.{field}", stage.name()), unit));
        }
    }
    for (n, u) in [
        ("stage.capture.yield", "ratio"),
        ("stage.match.hit_frac", "ratio"),
        ("stage.recover.yield", "ratio"),
        ("cell.resolve_busy_s", "s"),
        ("cell.mac_busy_s", "s"),
        ("cell.collision_rounds", "count"),
        ("cell.lowered_rounds", "count"),
        ("cell.lowered_delivery_frac", "ratio"),
        ("cell.in_flight_at_end", "count"),
        ("gen.synth_s", "s"),
        ("gen.lag_max_ms", "ms"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// What one workload run produced.
pub struct Run {
    pub e2e: Metrics,
    /// Per-layer metrics and tracing overhead (traced runs).
    pub layers: Option<Metrics>,
    /// Decode units (regions, buffers, or cell collision rounds) the
    /// timed passes handed to the receiver.
    pub attempted: u64,
    pub spans: Vec<Span>,
}

/// Clock shared by set-up timing and spans.
pub struct Timed {
    pub epoch: Instant,
}

impl Timed {
    /// Runs `setup` [`SETUP_REPS`] times before the timed passes; returns
    /// the last result and the wall times.
    pub fn setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut times = Vec::with_capacity(2 * SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), times)
    }

    /// Times [`SETUP_REPS`] more set-ups after the timed passes (their
    /// results are dropped) and returns `setup_s`: the median of these and
    /// the `before` times.
    pub fn setup_s<T>(&self, mut before: Vec<f64>, mut setup: impl FnMut() -> T) -> f64 {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            drop(setup());
            before.push(t.elapsed().as_secs_f64());
        }
        median(&before)
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The shard-balance, worker-busy and stage metrics of a traced receiver.
/// Stage counts and busy times are per pass over the workload's inputs.
pub fn shard_and_stage_layers(
    probe: &Probe,
    loads: &[u64],
    shards: usize,
    wall_s: f64,
    passes: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    m.put("shard.load_max_over_mean", if mean > 0.0 { max / mean } else { 0.0 }, "ratio");
    m.put(
        "shard.worker_busy_frac",
        probe.busy_ns() as f64 / 1e9 / (shards as f64 * wall_s),
        "ratio",
    );
    let per_pass = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64 / passes;
    for (name, c) in &probe.stages {
        m.put(format!("stage.{name}.calls"), per_pass(&c.calls), "count");
        m.put(format!("stage.{name}.busy_s"), per_pass(&c.busy_ns) / 1e9, "s");
        m.put(format!("stage.{name}.finished"), per_pass(&c.finished), "count");
        m.put(format!("stage.{name}.delivered"), per_pass(&c.delivered), "count");
    }
    let ratio = |a: &str, b: &str| {
        let (a, b) = (m.get(a).expect("stage metric"), m.get(b).expect("stage metric"));
        if b > 0.0 {
            a / b
        } else {
            0.0
        }
    };
    let yields = [
        ("stage.capture.yield", ratio("stage.capture.finished", "stage.capture.calls")),
        ("stage.match.hit_frac", ratio("stage.zigzag.finished", "stage.match.calls")),
        ("stage.recover.yield", ratio("stage.recover.delivered", "stage.recover.calls")),
    ];
    for (name, v) in yields {
        m.put(name, v, "ratio");
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(12.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's commit, when it is a git work tree; "unknown" otherwise.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn facts(args: &Args) -> String {
    // the resolution `ShardedReceiver` applies to `ShardConfig::default()`
    let shards = BatchEngine::new(ShardConfig::default().shards).threads();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    json_object(&[
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("avx2", avx2.to_string()),
        ("backend", json_string(zigzag_core::DecoderConfig::default().backend.name())),
        ("shards", shards.to_string()),
        ("commit", json_string(&commit())),
    ])
}

/// Writes the facts and spans of a traced run as JSON lines.
fn write_spans(args: &Args, facts: &str, spans: &[Span]) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(w, "{{\"facts\": {facts}}}")?;
        for s in spans {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"unit\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.unit,
                json_string(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zzbench: {e}");
            std::process::exit(2);
        }
    };
    let timed = Timed { epoch: Instant::now() };
    let result = match args.workload.as_str() {
        "stream_saturated" => stream::run(args.seed, false, args.seconds, args.trace, &timed),
        "stream_paced" => stream::run(args.seed, true, args.seconds, args.trace, &timed),
        "recovery_groups" => recovery::run(args.seed, args.seconds, args.trace, &timed),
        "cell_dcf" => cell::run(args.seed, args.seconds, args.trace, &timed),
        _ => unreachable!("workload validated by parse_args"),
    };
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("zzbench: {}: check failed: {e}", args.workload);
            println!("{}", result_line(false, 1, 1, &Metrics::default()));
            std::process::exit(1);
        }
    };
    let facts = facts(&args);
    println!("{{\"facts\": {facts}}}");

    let mut e2e = Metrics::default();
    for name in E2E {
        let (v, unit) =
            run.e2e.entry(name).expect("every workload reports every end-to-end metric");
        e2e.put(name, v, unit);
    }
    for (n, v, u) in &e2e.0 {
        println!("{n:<36} {v:>14.4} {u}");
    }
    let metrics = match &run.layers {
        None => e2e,
        Some(layers) => {
            let mut m = Metrics::default();
            for (name, unit) in layer_names() {
                m.put(name.clone(), layers.get(&name).unwrap_or(0.0), unit);
            }
            for (name, v, unit) in &layers.0 {
                if name.starts_with("trace_overhead.") {
                    m.put(name.clone(), *v, unit);
                } else {
                    assert!(m.get(name).is_some(), "layer metric {name} is not in the list");
                }
            }
            for (n, v, u) in &m.0 {
                println!("{n:<36} {v:>14.4} {u}");
            }
            match write_spans(&args, &facts, &run.spans) {
                Ok(path) => println!("spans: {} written to {path}", run.spans.len()),
                Err(e) => {
                    eprintln!("zzbench: {e}");
                    std::process::exit(1);
                }
            }
            m
        }
    };
    println!("{}", result_line(true, run.attempted, 0, &metrics));
}
