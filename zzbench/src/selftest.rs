//! Self-tests: the timing seams must not change what is measured.
//!
//! `cargo test --release --manifest-path zzbench/Cargo.toml`

use std::sync::Arc;
use std::time::Instant;

use zigzag_core::config::{DecoderConfig, ShardConfig, StreamConfig};
use zigzag_core::engine::ShardedReceiver;
use zigzag_mac::cell::{run_cell, CellPreset, DecodeModel, SplitResolver};
use zigzag_testbed::SignalResolver;

use crate::gen;
use crate::trace::{Probe, Spans, TimedResolver};

/// The probe pipeline, traced or not, against `Pipeline::standard`.
fn probes() -> Vec<Arc<Probe>> {
    vec![Probe::new(None), Probe::new(Some(Arc::new(Spans::new(Instant::now()))))]
}

#[test]
fn probe_pipeline_streams_like_the_standard_one() {
    let air = gen::stream_air(11, 2);
    let cfg = DecoderConfig::shared_ap();
    let scfg = StreamConfig::default();
    let stream = |rx: &mut ShardedReceiver| {
        rx.process_stream(&scfg, |src| {
            for chunk in air.samples.chunks(4096) {
                src.push_samples(chunk);
            }
        })
        .events()
    };
    let mut plain = ShardedReceiver::new(cfg.clone(), ShardConfig::default(), gen::registry());
    let reference = stream(&mut plain);
    assert!(reference.len() >= 16, "two rounds carve at least 16 regions");
    air.truth.check(reference.iter().flatten()).expect("frames match the ones sent");
    for probe in probes() {
        let mut rx = ShardedReceiver::with_pipeline(
            cfg.clone(),
            ShardConfig::default(),
            gen::registry(),
            probe.pipeline(),
        );
        assert_eq!(stream(&mut rx), reference);
        assert_eq!(probe.take_done().len(), reference.len(), "one Done per region");
    }
}

#[test]
fn probe_pipeline_recovers_like_the_standard_one() {
    let (batches, truth) = gen::recovery_rounds(12, 3);
    let cfg = crate::recovery::config();
    let decode = |rx: &mut ShardedReceiver| -> Vec<_> {
        batches.iter().flat_map(|b| rx.process_batch(b)).collect()
    };
    let mut plain = ShardedReceiver::new(cfg.clone(), ShardConfig::default(), gen::registry());
    let reference = decode(&mut plain);
    truth.check(reference.iter().flatten()).expect("frames match the ones sent");
    for probe in probes() {
        let mut rx = ShardedReceiver::with_pipeline(
            cfg.clone(),
            ShardConfig::default(),
            gen::registry(),
            probe.pipeline(),
        );
        assert_eq!(decode(&mut rx), reference);
    }
}

#[test]
fn timing_resolver_keeps_the_cell_trace_hash() {
    let preset = CellPreset::DcfHidden { cells: 8, groups_per_cell: 2 };
    let cfg = preset.config(1_000_000, 2_000, 0.8, 5);
    let run = |timed: bool| {
        let mut signal = SignalResolver::with_seed(5, 0);
        let spans = Spans::new(Instant::now());
        let model = DecodeModel::zigzag_ap(5);
        if !timed {
            let mut split = SplitResolver::new(model, &mut signal, 0.05, 4, 5);
            let out = run_cell(&cfg, &mut split);
            return (out.stats, out.trace_hash, 0);
        }
        let mut inner = TimedResolver::new(&mut signal, Some((&spans, 1)));
        let mut split = SplitResolver::new(model, &mut inner, 0.05, 4, 5);
        let mut outer = TimedResolver::new(&mut split, None);
        let out = run_cell(&cfg, &mut outer);
        let marks = outer.marks.len();
        drop(split);
        assert!(marks > 0, "the outer timing resolver must see collision slots");
        (out.stats, out.trace_hash, inner.calls)
    };
    let (plain_stats, plain_hash, _) = run(false);
    let (timed_stats, timed_hash, calls) = run(true);
    assert!(plain_stats.lowered_rounds > 0, "the run must lower collisions");
    assert!(calls > 0, "the timing resolver must see the lowered rounds");
    assert_eq!((timed_stats, timed_hash), (plain_stats, plain_hash));
}

#[test]
fn inputs_follow_the_seed() {
    let a = gen::stream_air(3, 1);
    let b = gen::stream_air(3, 1);
    let c = gen::stream_air(4, 1);
    assert_eq!(a.samples, b.samples);
    assert_ne!(a.samples, c.samples);
    assert_eq!(a.truth.offered(), 2 * gen::SETS.len());
    assert_eq!(gen::recovery_rounds(3, 1).0, gen::recovery_rounds(3, 1).0);
}
