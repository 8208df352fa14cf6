//! The two stream workloads: the same kind of air through
//! `ShardedReceiver::process_stream`, pushed as fast as backpressure
//! allows (`stream_saturated`, closed loop) or on a fixed sample schedule
//! (`stream_paced`, open loop).

use std::sync::Arc;
use std::time::{Duration, Instant};

use zigzag_core::config::{ClientRegistry, DecoderConfig, ShardConfig, StreamConfig};
use zigzag_core::engine::ShardedReceiver;
use zigzag_core::stream::{carve_buffer, Segmenter, StreamOutcome};
use zigzag_core::ReceiverEvent;
use zigzag_phy::complex::Complex;

use crate::gen::{self, Air};
use crate::report::{median, percentile, Metrics};
use crate::trace::{unit_key, Probe, Span, Spans};
use crate::{Run, Timed};

/// Producer chunk size, samples: as large as the stream driver's window when
/// saturating, small when paced so the schedule's granularity adds little
/// to the measured latency.
const CHUNK: usize = 4096;
const PACED_CHUNK: usize = 1024;

/// `stream_saturated` air: retransmission rounds of the four hidden
/// pairs (8 bursts and about 59k samples each), about 2.1 M samples.
const SATURATED_ROUNDS: usize = 36;

/// `stream_paced` schedule, samples per second: about two fifths of what
/// the saturated run sustains on a 2-core box, so the backlog stays
/// bounded (at 0.3 M it did not).
const PACED_RATE: f64 = 200_000.0;

/// Shard ingest-queue depth. With the default 32, whether the queues
/// filled in a saturated run depended on whether segmenting or decoding
/// was the bottleneck that run, and region latency jumped between about
/// 170 and 300 ms; a shallow queue leaves the ring as the one buffer.
const QUEUE_DEPTH: usize = 4;

/// Samples of air streamed before the timed passes (about 34 regions).
const WARM_UP: usize = 250_000;

/// Mean air per round, used to size the paced air to the run length.
const SAMPLES_PER_ROUND: f64 = 59_000.0;

/// A stream workload, set up.
pub struct Stream {
    air: Air,
    registry: ClientRegistry,
    cfg: DecoderConfig,
    scfg: StreamConfig,
    rx: ShardedReceiver,
    probe: Arc<Probe>,
    /// `Some(rate)` for the paced workload.
    pace: Option<f64>,
    /// Producer chunk size.
    chunk: usize,
    /// Time spent synthesising `air`.
    pub synth_s: f64,
}

/// One `process_stream` call over the whole air.
struct Pass {
    outcome: StreamOutcome,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    lag_max_ms: f64,
    loads: Vec<u64>,
}

impl Stream {
    /// Synthesises the air and builds the receiver. The paced air lasts
    /// `seconds` on the schedule.
    pub fn setup(seed: u64, paced: bool, seconds: f64, spans: Option<Arc<Spans>>) -> Self {
        let t = Instant::now();
        let (rounds, pace) = if paced {
            ((PACED_RATE * seconds / SAMPLES_PER_ROUND).ceil() as usize, Some(PACED_RATE))
        } else {
            (SATURATED_ROUNDS, None)
        };
        let air = gen::stream_air(seed, rounds.max(1));
        let synth_s = t.elapsed().as_secs_f64();
        let registry = gen::registry();
        let cfg = DecoderConfig::shared_ap();
        let probe = Probe::new(spans);
        let rx = ShardedReceiver::with_pipeline(
            cfg.clone(),
            ShardConfig { queue_depth: QUEUE_DEPTH, ..ShardConfig::default() },
            registry.clone(),
            probe.pipeline(),
        );
        let chunk = if paced { PACED_CHUNK } else { CHUNK };
        Self { air, registry, cfg, scfg: StreamConfig::default(), rx, probe, pace, chunk, synth_s }
    }

    /// An untimed, unpaced stream over the first `WARM_UP` samples of the
    /// air, so the first timed regions do not pay for first-touch memory
    /// and thread-arena growth.
    fn warm_up(&mut self) {
        let air = &self.air.samples[..WARM_UP.min(self.air.samples.len())];
        let chunk_len = self.chunk;
        self.rx.process_stream(&self.scfg, |src| {
            for chunk in air.chunks(chunk_len) {
                src.push_samples(chunk);
            }
        });
        self.probe.reset();
    }

    fn pass(&mut self) -> Pass {
        self.rx.reset_history();
        self.probe.take_done();
        let air = &self.air.samples;
        let (pace, chunk_len) = (self.pace, self.chunk);
        let mut lag_max = Duration::ZERO;
        let t0 = Instant::now();
        let due = |end: usize, rate: f64| t0 + Duration::from_secs_f64(end as f64 / rate);
        let outcome = self.rx.process_stream(&self.scfg, |src| {
            for (i, chunk) in air.chunks(chunk_len).enumerate() {
                if let Some(rate) = pace {
                    let due = due(i * chunk_len + chunk.len(), rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    lag_max = lag_max.max(Instant::now().saturating_duration_since(due));
                }
                src.push_samples(chunk);
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let done = self.probe.take_done();
        let latencies_ms = outcome
            .regions
            .iter()
            .map(|r| {
                let end = r.start + r.len;
                let (start, fin) = done[&unit_key(&air[r.start..end])];
                let latency = match pace {
                    // from the region's last sample's due time on the schedule
                    Some(rate) => fin.saturating_duration_since(due(end, rate)),
                    // from the region's first stage to its last: the
                    // always-full ring and the shard queue, which fills or
                    // drains with the host's speed, are left out
                    None => fin - start,
                };
                latency.as_secs_f64() * 1e3
            })
            .collect();
        let loads = self.rx.loads().to_vec();
        Pass { outcome, wall_s, latencies_ms, lag_max_ms: lag_max.as_secs_f64() * 1e3, loads }
    }

    /// Timed passes: one paced pass, or saturated passes until `seconds`
    /// have elapsed. Checks every pass against the ground truth and the
    /// first pass's events.
    fn passes(
        &mut self,
        seconds: f64,
        reference: &mut Option<Vec<Vec<ReceiverEvent>>>,
    ) -> Result<Vec<Pass>, String> {
        self.warm_up();
        let start = Instant::now();
        let mut out = Vec::new();
        loop {
            let pass = self.pass();
            if pass.outcome.stats.samples != self.air.samples.len() as u64 {
                return Err(format!(
                    "stream accepted {} of {} samples",
                    pass.outcome.stats.samples,
                    self.air.samples.len()
                ));
            }
            let events = pass.outcome.events();
            self.air.truth.check(events.iter().flatten())?;
            match reference {
                Some(r) if *r != events => {
                    return Err("a stream pass decoded differently from the first pass".into())
                }
                Some(_) => {}
                None => *reference = Some(events),
            }
            out.push(pass);
            if self.pace.is_some() || start.elapsed().as_secs_f64() >= seconds {
                return Ok(out);
            }
        }
    }

    /// End-to-end metrics of the timed passes.
    fn e2e(&self, passes: &[Pass]) -> Result<Metrics, String> {
        let samples = self.air.samples.len() as f64;
        let regions = passes[0].outcome.regions.len();
        if regions < 200 && self.pace.is_some() {
            return Err(format!("the paced run carved {regions} regions; it needs 200"));
        }
        let delivered = self.air.truth.check(passes[0].outcome.events().iter().flatten())?;
        // every pass carves and decodes the same regions; each region's
        // latency is its least over the passes, which leaves out the
        // passes in which the host held its worker off a core
        let least: Vec<f64> = (0..regions)
            .map(|i| passes.iter().map(|p| p.latencies_ms[i]).fold(f64::INFINITY, f64::min))
            .collect();
        let lat = |q: f64| percentile(&least, q);
        let rate: Vec<f64> = passes.iter().map(|p| samples / p.wall_s).collect();
        let rate = median(&rate);
        let mut m = Metrics::default();
        m.put("throughput_msamples_per_s", rate / 1e6, "Msamples/s");
        m.put("throughput_buffers_per_s", rate * regions as f64 / samples, "buffers/s");
        m.put("region_latency_p50_ms", lat(50.0), "ms");
        m.put("region_latency_p95_ms", lat(95.0), "ms");
        m.put("sim_slots_per_s", rate / crate::SAMPLES_PER_SLOT, "slots/s");
        m.put("frames_delivered_frac", delivered as f64 / self.air.truth.offered() as f64, "ratio");
        Ok(m)
    }

    /// Stream events must equal cutting the same air with `carve_buffer`
    /// and decoding the regions through `process_batch` on a receiver
    /// running plain `Pipeline::standard`. This also pins the probe
    /// pipeline to the standard one.
    fn check_precut(&self, stream_events: &[Vec<ReceiverEvent>]) -> Result<(), String> {
        let regions = carve_buffer(&self.air.samples, &self.cfg, &self.registry, &self.scfg);
        let buffers: Vec<Vec<Complex>> = regions.into_iter().map(|r| r.samples).collect();
        let mut plain =
            ShardedReceiver::new(self.cfg.clone(), ShardConfig::default(), self.registry.clone());
        if plain.process_batch(&buffers) != stream_events {
            return Err("stream events differ from carve_buffer + process_batch".into());
        }
        Ok(())
    }

    /// The standalone `Segmenter` pass over the same air, pushed in the
    /// producer's chunks: the `stream` layer's busy time.
    fn segment(&self, spans: &Spans) -> (f64, usize, u64) {
        let mut seg = Segmenter::new(&self.cfg, &self.registry, &self.scfg);
        let mut regions = Vec::new();
        let parent = spans.id();
        let t = Instant::now();
        for chunk in self.air.samples.chunks(self.chunk) {
            let before = regions.len();
            let push = Instant::now();
            seg.push(chunk, &mut regions);
            let id = spans.close("stream.segment.push", parent, 0, push);
            for r in &regions[before..] {
                spans.close("stream.region", id, unit_key(&r.samples), Instant::now());
            }
        }
        seg.finish(&mut regions);
        let busy = t.elapsed().as_secs_f64();
        spans.record(Span {
            id: parent,
            parent: 0,
            unit: 0,
            name: "stream.segment".into(),
            start_ns: spans.ns(t),
            end_ns: spans.ns(t) + (busy * 1e9) as u64,
        });
        let carved = regions.iter().map(|r| r.samples.len() as u64).sum();
        (busy, regions.len(), carved)
    }
}

/// Runs a stream workload.
pub fn run(
    seed: u64,
    paced: bool,
    seconds: f64,
    trace: bool,
    timed: &Timed,
) -> Result<Run, String> {
    let spans = Arc::new(Spans::new(timed.epoch));
    let (mut stream, setup_times) = timed.setup(|| Stream::setup(seed, paced, seconds, None));
    let mut reference = None;
    let untraced = stream.passes(seconds, &mut reference)?;
    let mut e2e = stream.e2e(&untraced)?;
    let reference = reference.expect("at least one pass");
    let mut attempted: u64 = untraced.iter().map(|p| p.outcome.regions.len() as u64).sum();
    stream.check_precut(&reference)?;
    e2e.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    drop(stream);
    let setup_s = timed.setup_s(setup_times, || Stream::setup(seed, paced, seconds, None));
    e2e.put("setup_s", setup_s, "s");

    let mut run = Run { e2e, layers: None, attempted, spans: Vec::new() };
    if !trace {
        return Ok(run);
    }

    let traced_setup = || Stream::setup(seed, paced, seconds, Some(Arc::clone(&spans)));
    let (mut traced, setup_times) = timed.setup(traced_setup);
    let passes = traced.passes(seconds, &mut Some(reference))?;
    attempted += passes.iter().map(|p| p.outcome.regions.len() as u64).sum::<u64>();
    let mut t_e2e = traced.e2e(&passes)?;
    t_e2e.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    t_e2e.put("setup_s", timed.setup_s(setup_times, traced_setup), "s");

    let n = passes.len() as f64;
    let (seg_s, seg_regions, carved) = traced.segment(&spans);
    if seg_regions != passes[0].outcome.regions.len() {
        return Err(format!(
            "the standalone Segmenter carved {seg_regions} regions, the stream {}",
            passes[0].outcome.regions.len()
        ));
    }
    let samples = traced.air.samples.len() as f64;
    let mut l = Metrics::default();
    l.put("stream.segment_busy_s", seg_s, "s");
    l.put("stream.segment_msamples_per_s", samples / seg_s / 1e6, "Msamples/s");
    l.put("stream.regions", seg_regions as f64, "count");
    l.put("stream.carved_frac", carved as f64 / samples, "ratio");
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    l.put("stream.source_stalls", per_pass(&|p| p.outcome.stats.source_stalls as f64), "count");
    l.put(
        "stream.ring_high_water",
        passes.iter().map(|p| p.outcome.stats.ring_high_water).max().unwrap_or(0) as f64,
        "samples",
    );
    let waits: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.outcome.regions.iter().map(|r| r.queue_wait_ns as f64 / 1e6))
        .collect();
    l.put("shard.queue_wait_p50_ms", percentile(&waits, 50.0), "ms");
    l.put("shard.queue_wait_p99_ms", percentile(&waits, 99.0), "ms");
    l.put(
        "shard.stalls",
        per_pass(&|p| p.outcome.stats.shard_stalls.iter().sum::<u64>() as f64),
        "count",
    );
    l.put(
        "shard.queue_high_water",
        passes
            .iter()
            .flat_map(|p| p.outcome.stats.queue_high_water.iter().copied())
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    l.extend(crate::shard_and_stage_layers(
        &traced.probe,
        &passes[0].loads,
        traced.rx.shards(),
        wall,
        n,
    ));
    l.put("gen.synth_s", traced.synth_s, "s");
    l.put("gen.lag_max_ms", passes.iter().map(|p| p.lag_max_ms).fold(0.0, f64::max), "ms");
    l.extend(Metrics::overhead(&run.e2e, &t_e2e));

    // queue-wait spans: each ends where its unit's first stage began
    let mut recorded = spans.take();
    let unit_start: std::collections::HashMap<u64, u64> =
        recorded.iter().filter(|s| s.name == "unit").map(|s| (s.unit, s.start_ns)).collect();
    let last = passes.last().expect("at least one pass");
    for r in &last.outcome.regions {
        let key = unit_key(&traced.air.samples[r.start..r.start + r.len]);
        if let Some(&start) = unit_start.get(&key) {
            recorded.push(Span {
                id: spans.id(),
                parent: 0,
                unit: key,
                name: "shard.queue_wait".into(),
                start_ns: start.saturating_sub(r.queue_wait_ns),
                end_ns: start,
            });
        }
    }
    run.layers = Some(l);
    run.attempted = attempted;
    run.spans = recorded;
    Ok(run)
}
