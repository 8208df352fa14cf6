//! Timing seams around the receiver's public interfaces.
//!
//! Nothing here reaches inside the program. The stage layer is observed
//! through a `Pipeline::from_stages` list that wraps each
//! `Pipeline::standard` stage ([`ProbeStage`]); the cell's signal path
//! through a [`CollisionResolver`] wrapped around the real one
//! ([`TimedResolver`]). With tracing off a probe reads the clock twice per
//! unit, when its first stage starts and when a stage returns
//! `Flow::Done`, for the latency metrics. With
//! tracing on it also counts calls, busy time, `Done` returns and
//! `Delivered` events per stage, and records a span per layer boundary.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use zigzag_core::engine::{
    CaptureStage, DecodeStage, DetectStage, Flow, MatchStage, Pipeline, PlanStage, ReceiverCore,
    RecoverStage, StandardDecodeStage, StoreStage, UnitCtx, ZigzagStage,
};
use zigzag_core::ReceiverEvent;
use zigzag_mac::cell::{CollisionResolver, CollisionRound, RoundResolution};
use zigzag_phy::complex::Complex;

/// The `Pipeline::standard` stages, in its order, as a list to wrap.
pub fn standard_stages() -> Vec<Box<dyn DecodeStage>> {
    let stages: Vec<Box<dyn DecodeStage>> = vec![
        Box::new(DetectStage),
        Box::new(StandardDecodeStage),
        Box::new(CaptureStage),
        Box::new(MatchStage),
        Box::new(PlanStage),
        Box::new(ZigzagStage),
        Box::new(RecoverStage),
        Box::new(StoreStage),
    ];
    let names: Vec<&str> = stages.iter().map(|s| s.name()).collect();
    assert_eq!(
        names,
        Pipeline::standard().stage_names(),
        "the wrapped list must be exactly Pipeline::standard"
    );
    stages
}

/// Identifies a decode unit by its samples: length plus the bit patterns
/// of three samples. Carved regions and pre-cut buffers are distinct
/// noise, so the key is unique within a workload; it lets stage spans,
/// `Done` times and the stream layer's regions name the same unit.
pub fn unit_key(samples: &[Complex]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
    eat(samples.len() as u64);
    for s in [samples.first(), samples.get(samples.len() / 2), samples.last()].into_iter().flatten()
    {
        eat(s.re.to_bits());
        eat(s.im.to_bits());
    }
    h
}

/// One recorded interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Span that caused this one (`0`: none).
    pub parent: u64,
    /// Shared by every span of one decode unit (see [`unit_key`]); `0`
    /// for spans not tied to one unit.
    pub unit: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store, written out when the benchmark exits.
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records `[start, now)` under a fresh id and returns the id.
    pub fn close(&self, name: &str, parent: u64, unit: u64, start: Instant) -> u64 {
        let id = self.id();
        let end = Instant::now();
        self.record(Span {
            id,
            parent,
            unit,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Per-stage counters of the traced run.
#[derive(Default)]
pub struct StageCounters {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
    pub finished: AtomicU64,
    pub delivered: AtomicU64,
}

/// What the probe stages of one receiver share.
pub struct Probe {
    /// `Some` in the traced run.
    trace: Option<Arc<Spans>>,
    /// Per stage, in pipeline order (traced run only).
    pub stages: Vec<(&'static str, StageCounters)>,
    /// When each unit started and finished, by [`unit_key`].
    done: Mutex<HashMap<u64, (Instant, Instant)>>,
}

thread_local! {
    /// The unit a shard worker is decoding: `(span id, unit key, start)`.
    /// A worker runs one unit's stages back to back, so the first stage
    /// call opens the unit and the `Done` return closes it.
    static OPEN_UNIT: Cell<Option<(u64, u64, Instant)>> = const { Cell::new(None) };
}

impl Probe {
    pub fn new(trace: Option<Arc<Spans>>) -> Arc<Self> {
        let stages =
            standard_stages().iter().map(|s| (s.name(), StageCounters::default())).collect();
        Arc::new(Self { trace, stages, done: Mutex::new(HashMap::new()) })
    }

    /// `Pipeline::standard`, each stage wrapped in a [`ProbeStage`].
    pub fn pipeline(self: &Arc<Self>) -> Pipeline {
        Pipeline::from_stages(
            standard_stages()
                .into_iter()
                .enumerate()
                .map(|(index, inner)| {
                    Box::new(ProbeStage { inner, index, probe: Arc::clone(self) })
                        as Box<dyn DecodeStage>
                })
                .collect(),
        )
    }

    /// Takes the `(start, Done)` times recorded so far.
    pub fn take_done(&self) -> HashMap<u64, (Instant, Instant)> {
        std::mem::take(&mut *self.done.lock().expect("done map poisoned"))
    }

    fn finished(&self, key: u64, start: Instant, end: Instant) {
        OPEN_UNIT.with(|open| open.set(None));
        self.done.lock().expect("done map poisoned").insert(key, (start, end));
    }

    /// Forgets counters and spans recorded so far (after a warm-up).
    pub fn reset(&self) {
        for (_, c) in &self.stages {
            for v in [&c.calls, &c.busy_ns, &c.finished, &c.delivered] {
                v.store(0, Ordering::Relaxed);
            }
        }
        if let Some(spans) = &self.trace {
            spans.take();
        }
        self.take_done();
    }

    /// Total busy time over all stages.
    pub fn busy_ns(&self) -> u64 {
        self.stages.iter().map(|(_, c)| c.busy_ns.load(Ordering::Relaxed)).sum()
    }
}

/// One pipeline stage behind the probe.
pub struct ProbeStage {
    inner: Box<dyn DecodeStage>,
    index: usize,
    probe: Arc<Probe>,
}

impl DecodeStage for ProbeStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        let (unit_span, key, unit_start) = OPEN_UNIT.with(|open| {
            open.get().unwrap_or_else(|| {
                let id = self.probe.trace.as_ref().map_or(0, |spans| spans.id());
                let u = (id, unit_key(unit.buffer), Instant::now());
                open.set(Some(u));
                u
            })
        });
        let Some(spans) = &self.probe.trace else {
            let flow = self.inner.run(rx, unit, events);
            if flow == Flow::Done {
                self.probe.finished(key, unit_start, Instant::now());
            }
            return flow;
        };
        let before = events.len();
        let start = Instant::now();
        let flow = self.inner.run(rx, unit, events);
        let end = Instant::now();
        let c = &self.probe.stages[self.index].1;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.busy_ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        let delivered = events[before..]
            .iter()
            .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
            .count();
        c.delivered.fetch_add(delivered as u64, Ordering::Relaxed);
        spans.record(Span {
            id: spans.id(),
            parent: unit_span,
            unit: key,
            name: format!("stage.{}", self.inner.name()),
            start_ns: spans.ns(start),
            end_ns: spans.ns(end),
        });
        if flow == Flow::Done {
            c.finished.fetch_add(1, Ordering::Relaxed);
            spans.record(Span {
                id: unit_span,
                parent: 0,
                unit: key,
                name: "unit".to_string(),
                start_ns: spans.ns(unit_start),
                end_ns: spans.ns(end),
            });
            self.probe.finished(key, unit_start, end);
        }
        flow
    }
}

/// A [`CollisionResolver`] that times every `resolve` call of the
/// resolver it wraps.
pub struct TimedResolver<'a> {
    inner: &'a mut dyn CollisionResolver,
    spans: Option<(&'a Spans, u64)>,
    pub calls: u64,
    pub busy_ns: u64,
    /// Per call: the simulated slot its rounds closed in, and when the
    /// call began — the simulation's progress against the host clock.
    pub marks: Vec<(u64, Instant)>,
}

impl<'a> TimedResolver<'a> {
    /// Wraps `inner`; with `spans`, each call is also recorded as a span
    /// under the given parent.
    pub fn new(inner: &'a mut dyn CollisionResolver, spans: Option<(&'a Spans, u64)>) -> Self {
        Self { inner, spans, calls: 0, busy_ns: 0, marks: Vec::new() }
    }
}

impl CollisionResolver for TimedResolver<'_> {
    fn resolve(&mut self, rounds: &[CollisionRound]) -> Vec<RoundResolution> {
        let start = Instant::now();
        let out = self.inner.resolve(rounds);
        if let Some((spans, parent)) = self.spans {
            spans.close("cell.resolve", parent, 0, start);
        }
        self.calls += 1;
        self.busy_ns += start.elapsed().as_nanos() as u64;
        if let Some(r) = rounds.first() {
            self.marks.push((r.slot, start));
        }
        out
    }

    fn retire(&mut self, episode: u64) {
        self.inner.retire(episode);
    }
}
