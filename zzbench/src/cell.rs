//! `cell_dcf`: the 1 M-station DCF hidden-terminal cell through
//! `zigzag_mac::cell::run_cell`, with a fixed share of collision episodes
//! lowered to IQ and decoded by the testbed's `SignalResolver`.

use std::time::Instant;

use zigzag_mac::cell::{
    mix2, run_cell, CellConfig, CellOutcome, CellPreset, CollisionResolver, DecodeModel,
    SplitResolver,
};
use zigzag_testbed::SignalResolver;

use crate::report::{percentile, Metrics};
use crate::trace::{Span, Spans, TimedResolver};
use crate::{Run, Timed};

const STATIONS: u32 = 1_000_000;
/// Traffic slots per simulation.
const SLOTS: u64 = 200_000;
/// Offered frames per slot over the whole population: below the load
/// where hidden-terminal DCF collapses (about 0.25 here), so the backlog
/// stays bounded and the per-slot cost does not grow with run length.
const LOAD: f64 = 0.2;
/// Share of collision episodes lowered to the signal level.
const LOWER: f64 = 0.05;
/// Widest episode lowered. Wider episodes are rare, long and costly to
/// decode: with them lowered, one episode could double a simulation's
/// resolve time and slots/s swung ±40% between seeds. They stay on the
/// symbolic model.
const MAX_K: usize = 2;
/// Simulations per run: one per this many seconds of `--seconds`, each
/// on its own seed derived from the workload seed.
const SECONDS_PER_SIM: f64 = 2.5;
/// Simulated slots per latency sample (20 ms of air).
const WINDOW: u64 = 1_000;
/// Slots of the warm-up run inside set-up.
const WARMUP_SLOTS: u64 = 20_000;
/// Seed of the warm-up run: the same for every workload seed, so set-up
/// time does not depend on how many costly episodes one seed lowers.
const WARMUP_SEED: u64 = 0x5741_524d;
const PRESET: CellPreset = CellPreset::DcfHidden { cells: 8, groups_per_cell: 2 };

pub struct Cell {
    /// One configuration per simulation.
    sims: Vec<CellConfig>,
}

/// One `run_cell` call and what the timing resolver saw.
struct Sim {
    outcome: CellOutcome,
    wall_s: f64,
    resolve_s: f64,
    /// Host time per `WINDOW` simulated slots.
    window_ms: Vec<f64>,
}

/// Host time of each `WINDOW`-slot window of traffic, from progress marks
/// `(slot, host time)`: a window ends at the first mark at or past its
/// last slot. A mark that passes several boundaries at once splits its
/// interval evenly over them.
fn window_ms(start: Instant, marks: &[(u64, Instant)]) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut boundary, mut since) = (WINDOW, start);
    for &(slot, t) in marks.iter().take_while(|(slot, _)| *slot < SLOTS) {
        if slot < boundary {
            continue;
        }
        let passed = (slot - boundary) / WINDOW + 1;
        let ms = t.saturating_duration_since(since).as_secs_f64() * 1e3 / passed as f64;
        out.extend(std::iter::repeat_n(ms, passed as usize));
        boundary += passed * WINDOW;
        since = t;
    }
    out
}

fn split(signal: &mut dyn CollisionResolver, seed: u64) -> SplitResolver<'_> {
    SplitResolver::new(DecodeModel::zigzag_ap(seed), signal, LOWER, MAX_K, seed)
}

impl Cell {
    /// Builds the configurations and warms up with a short run of a fixed
    /// one, so lazy initialisation is not timed in the first simulation.
    pub fn setup(seed: u64, seconds: f64) -> Self {
        let n = (seconds / SECONDS_PER_SIM).ceil().max(1.0) as u64;
        let sims: Vec<CellConfig> =
            (0..n).map(|i| PRESET.config(STATIONS, SLOTS, LOAD, mix2(seed, i))).collect();
        let warm = PRESET.config(STATIONS, WARMUP_SLOTS, LOAD, WARMUP_SEED);
        let mut signal = SignalResolver::with_seed(warm.seed, 0);
        std::hint::black_box(run_cell(&warm, &mut split(&mut signal, warm.seed)));
        Self { sims }
    }

    /// Runs simulation `i` at the default decode thread count. One timing
    /// resolver around the signal resolver measures resolve time; one
    /// around the split resolver sees every collision slot, which marks
    /// the simulation's progress for the window latencies.
    fn sim(&self, i: usize, spans: Option<&Spans>) -> Sim {
        let cfg = &self.sims[i];
        let mut signal = SignalResolver::with_seed(cfg.seed, 0);
        let run_span = spans.map(|s| s.id());
        let mut inner = TimedResolver::new(&mut signal, spans.zip(run_span));
        let mut split = split(&mut inner, cfg.seed);
        let mut outer = TimedResolver::new(&mut split, None);
        let t = Instant::now();
        let outcome = run_cell(cfg, &mut outer);
        let wall_s = t.elapsed().as_secs_f64();
        let window_ms = window_ms(t, &outer.marks);
        drop(split);
        if let (Some(s), Some(id)) = (spans, run_span) {
            s.record(Span {
                id,
                parent: 0,
                unit: 0,
                name: "cell.run".into(),
                start_ns: s.ns(t),
                end_ns: s.ns(t) + (wall_s * 1e9) as u64,
            });
        }
        Sim { outcome, wall_s, resolve_s: inner.busy_ns as f64 / 1e9, window_ms }
    }

    fn run_all(&self, spans: Option<&Spans>) -> Vec<Sim> {
        (0..self.sims.len()).map(|i| self.sim(i, spans)).collect()
    }

    /// Totals over all simulations; latency samples are the host times
    /// of the simulations' `WINDOW`-slot windows.
    fn e2e(sims: &[Sim]) -> Metrics {
        let wall: f64 = sims.iter().map(|s| s.wall_s).sum();
        let sum = |f: fn(&Sim) -> u64| sims.iter().map(f).sum::<u64>() as f64;
        let windows: Vec<f64> = sims.iter().flat_map(|s| s.window_ms.iter().copied()).collect();
        let slots = sims.len() as f64 * SLOTS as f64 / wall;
        let mut m = Metrics::default();
        m.put("throughput_msamples_per_s", slots * crate::SAMPLES_PER_SLOT / 1e6, "Msamples/s");
        m.put(
            "throughput_buffers_per_s",
            sum(|s| s.outcome.stats.lowered_rounds) / wall,
            "buffers/s",
        );
        m.put("region_latency_p50_ms", percentile(&windows, 50.0), "ms");
        m.put("region_latency_p95_ms", percentile(&windows, 95.0), "ms");
        m.put("sim_slots_per_s", slots, "slots/s");
        m.put(
            "frames_delivered_frac",
            sum(|s| s.outcome.stats.delivered_frames) / sum(|s| s.outcome.stats.offered_frames),
            "ratio",
        );
        m
    }

    /// The first simulation's trace hash at 1 decode thread, through the
    /// signal resolver without the timing wrapper.
    fn reference_hash(&self) -> u64 {
        let cfg = &self.sims[0];
        let mut signal = SignalResolver::with_seed(cfg.seed, 1);
        run_cell(cfg, &mut split(&mut signal, cfg.seed)).trace_hash
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, timed: &Timed) -> Result<Run, String> {
    let (cell, setup_times) = timed.setup(|| Cell::setup(seed, seconds));
    let reference = cell.reference_hash();
    let untraced = cell.run_all(None);
    if untraced[0].outcome.trace_hash != reference {
        return Err(format!(
            "cell trace hash {:#x} at the default thread count differs from {reference:#x} at 1 thread",
            untraced[0].outcome.trace_hash
        ));
    }
    let mut e2e = Cell::e2e(&untraced);
    e2e.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    e2e.put("setup_s", timed.setup_s(setup_times, || Cell::setup(seed, seconds)), "s");
    let rounds = |sims: &[Sim]| -> u64 {
        sims.iter()
            .map(|s| s.outcome.stats.collision_rounds + s.outcome.stats.recovery_rounds)
            .sum()
    };
    let mut run = Run { e2e, layers: None, attempted: rounds(&untraced), spans: Vec::new() };
    if !trace {
        return Ok(run);
    }

    let spans = Spans::new(timed.epoch);
    let (cell, setup_times) = timed.setup(|| Cell::setup(seed, seconds));
    let traced = cell.run_all(Some(&spans));
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        if u.outcome.trace_hash != t.outcome.trace_hash {
            return Err(format!("simulation {i}: the traced run changed the cell trace hash"));
        }
    }
    run.attempted += rounds(&traced);
    let mut t_e2e = Cell::e2e(&traced);
    t_e2e.put("peak_rss_mb", crate::peak_rss_mb()?, "MB");
    t_e2e.put("setup_s", timed.setup_s(setup_times, || Cell::setup(seed, seconds)), "s");

    // per simulation of SLOTS slots, averaged over the run's simulations
    let n = traced.len() as f64;
    let mean = |f: &dyn Fn(&Sim) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let mut l = Metrics::default();
    l.put("cell.resolve_busy_s", mean(&|s| s.resolve_s), "s");
    l.put("cell.mac_busy_s", mean(&|s| s.wall_s - s.resolve_s), "s");
    l.put("cell.collision_rounds", mean(&|s| s.outcome.stats.collision_rounds as f64), "count");
    l.put("cell.lowered_rounds", mean(&|s| s.outcome.stats.lowered_rounds as f64), "count");
    let deliveries = mean(&|s| s.outcome.stats.lowered_deliveries as f64);
    let retries = mean(&|s| s.outcome.stats.lowered_retries as f64);
    l.put(
        "cell.lowered_delivery_frac",
        if deliveries + retries > 0.0 { deliveries / (deliveries + retries) } else { 0.0 },
        "ratio",
    );
    l.put("cell.in_flight_at_end", mean(&|s| s.outcome.stats.in_flight_at_end as f64), "count");
    l.extend(Metrics::overhead(&run.e2e, &t_e2e));
    run.layers = Some(l);
    run.spans = spans.take();
    Ok(run)
}
