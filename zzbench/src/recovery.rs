//! `recovery_groups`: pre-cut equal-offset retransmission groups through
//! `ShardedReceiver::process_batch` with algebraic recovery on.

use std::sync::Arc;
use std::time::Instant;

use zigzag_core::config::{DecoderConfig, RecoveryConfig, ShardConfig};
use zigzag_core::engine::ShardedReceiver;
use zigzag_core::ReceiverEvent;
use zigzag_phy::complex::Complex;

use crate::gen::{self, Truth};
use crate::report::{percentile, Metrics};
use crate::trace::{unit_key, Probe, Spans};
use crate::{Run, Timed};

/// Retransmission rounds per second of `--seconds`; each round is one
/// `process_batch` call of 8 buffers (one group from each of the four
/// client sets). About 12 % of these frames decode and neighbouring
/// groups succeed or fail together (the salvage pool links them), so the
/// delivered share needs this many groups to be steady across seeds: the
/// one timed pass lasts about 1.6 times `--seconds` on a 2-core x86-64
/// box.
const ROUNDS_PER_SECOND: f64 = 10.0;

pub struct Recovery {
    batches: Vec<Vec<Vec<Complex>>>,
    truth: Truth,
    cfg: DecoderConfig,
    rx: ShardedReceiver,
    probe: Arc<Probe>,
    pub synth_s: f64,
}

struct Pass {
    events: Vec<Vec<ReceiverEvent>>,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    loads: Vec<u64>,
    stalls: u64,
    high_water: usize,
}

/// The shared-AP key window with algebraic recovery on.
pub fn config() -> DecoderConfig {
    DecoderConfig { recovery: RecoveryConfig::on(), ..DecoderConfig::shared_ap() }
}

impl Recovery {
    pub fn setup(seed: u64, seconds: f64, spans: Option<Arc<Spans>>) -> Self {
        let t = Instant::now();
        let rounds = (seconds * ROUNDS_PER_SECOND).ceil().max(1.0) as usize;
        let (batches, truth) = gen::recovery_rounds(seed, rounds);
        let synth_s = t.elapsed().as_secs_f64();
        let cfg = config();
        let probe = Probe::new(spans);
        let rx = ShardedReceiver::with_pipeline(
            cfg.clone(),
            ShardConfig::default(),
            gen::registry(),
            probe.pipeline(),
        );
        Self { batches, truth, cfg, rx, probe, synth_s }
    }

    fn buffers(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    fn samples(&self) -> usize {
        self.batches.iter().flatten().map(Vec::len).sum()
    }

    /// One pass over every round. A buffer's latency runs from the
    /// submission of its round's batch to the stage that finished it.
    fn pass(&mut self) -> Pass {
        self.rx.reset_history();
        self.probe.take_done();
        let mut events = Vec::with_capacity(self.buffers());
        let mut latencies_ms = Vec::with_capacity(self.buffers());
        let t0 = Instant::now();
        for batch in &self.batches {
            let submitted = Instant::now();
            events.extend(self.rx.process_batch(batch));
            let done = self.probe.take_done();
            for b in batch {
                let (_, fin) = done[&unit_key(b)];
                latencies_ms.push(fin.saturating_duration_since(submitted).as_secs_f64() * 1e3);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        Pass {
            events,
            wall_s,
            latencies_ms,
            loads: self.rx.loads().to_vec(),
            stalls: self.rx.shard_stalls().iter().sum(),
            high_water: self.rx.queue_high_water().iter().copied().max().unwrap_or(0),
        }
    }

    /// The timed pass, after one untimed round so the first timed batch
    /// does not pay for first-touch memory; checked against the ground
    /// truth and, when given, the events of an earlier pass.
    fn checked_pass(&mut self, reference: Option<&[Vec<ReceiverEvent>]>) -> Result<Pass, String> {
        self.rx.process_batch(&self.batches[0]);
        self.probe.reset();
        let pass = self.pass();
        self.truth.check(pass.events.iter().flatten())?;
        if reference.is_some_and(|r| r != pass.events) {
            return Err("the traced pass decoded differently from the untraced one".into());
        }
        Ok(pass)
    }

    fn e2e(&self, pass: &Pass) -> Result<Metrics, String> {
        let samples = self.samples() as f64;
        let delivered = self.truth.check(pass.events.iter().flatten())?;
        let wall = pass.wall_s;
        let lat = &pass.latencies_ms;
        let mut m = Metrics::default();
        m.put("throughput_msamples_per_s", samples / wall / 1e6, "Msamples/s");
        m.put("throughput_buffers_per_s", self.buffers() as f64 / wall, "buffers/s");
        m.put("region_latency_p50_ms", percentile(lat, 50.0), "ms");
        m.put("region_latency_p95_ms", percentile(lat, 95.0), "ms");
        m.put("sim_slots_per_s", samples / wall / crate::SAMPLES_PER_SLOT, "slots/s");
        m.put("frames_delivered_frac", delivered as f64 / self.truth.offered() as f64, "ratio");
        Ok(m)
    }

    /// The probe pipeline must decode exactly like `Pipeline::standard`.
    fn check_standard(&self, reference: &[Vec<ReceiverEvent>]) -> Result<(), String> {
        let mut plain =
            ShardedReceiver::new(self.cfg.clone(), ShardConfig::default(), gen::registry());
        let events: Vec<Vec<ReceiverEvent>> =
            self.batches.iter().flat_map(|b| plain.process_batch(b)).collect();
        if events != reference {
            return Err("the probe pipeline decoded differently from Pipeline::standard".into());
        }
        Ok(())
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, timed: &Timed) -> Result<Run, String> {
    let (mut rec, setup_times) = timed.setup(|| Recovery::setup(seed, seconds, None));
    let untraced = rec.checked_pass(None)?;
    let mut e2e = rec.e2e(&untraced)?;
    e2e.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    e2e.put("setup_s", timed.setup_s(setup_times, || Recovery::setup(seed, seconds, None)), "s");
    let buffers = rec.buffers() as u64;
    let mut run = Run { e2e, layers: None, attempted: buffers, spans: Vec::new() };
    if !trace {
        return Ok(run);
    }

    rec.check_standard(&untraced.events)?;
    let spans = Arc::new(Spans::new(timed.epoch));
    let traced_setup = || Recovery::setup(seed, seconds, Some(Arc::clone(&spans)));
    let (mut traced, setup_times) = timed.setup(traced_setup);
    let pass = traced.checked_pass(Some(&untraced.events))?;
    run.attempted += buffers;
    let mut t_e2e = traced.e2e(&pass)?;
    t_e2e.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    t_e2e.put("setup_s", timed.setup_s(setup_times, traced_setup), "s");

    let mut l = Metrics::default();
    l.put("shard.stalls", pass.stalls as f64, "count");
    l.put("shard.queue_high_water", pass.high_water as f64, "count");
    l.extend(crate::shard_and_stage_layers(
        &traced.probe,
        &pass.loads,
        traced.rx.shards(),
        pass.wall_s,
        1.0,
    ));
    l.put("gen.synth_s", traced.synth_s, "s");
    l.extend(Metrics::overhead(&run.e2e, &t_e2e));
    run.layers = Some(l);
    run.spans = spans.take();
    Ok(run)
}
