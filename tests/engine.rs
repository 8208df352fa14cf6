//! Engine-level integration tests: the stage pipeline must reproduce its
//! golden event hashes, and the multi-threaded `BatchEngine` must be
//! bit-for-bit identical to a single-threaded run.

mod common;

use common::{hash_events, FNV_OFFSET};
use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::{clean_reception, hidden_pair, synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig};
use zigzag::core::engine::{
    decode_batch, unit_seed, BatchEngine, CaptureStage, DecodeUnit, DetectStage, MatchStage,
    Pipeline, ReceiverCore, ShardedReceiver, StandardDecodeStage, StoreStage,
};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn registry(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
    let mut reg = ClientRegistry::new();
    for (id, l) in links {
        reg.associate(
            *id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    reg
}

fn air(src: u16, seq: u16, len: usize) -> zigzag::phy::frame::AirFrame {
    let f = Frame::with_random_payload(0, src, seq, len, 40_000 + src as u64 * 131 + seq as u64);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// A mixed workload per unit: a clean delivery, a hidden-terminal
/// retransmission pair (store → match → zigzag), and a noise buffer.
fn build_units(n: usize, payload: usize) -> Vec<DecodeUnit> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(unit_seed(77, i));
            let la = LinkProfile::typical(16.0, &mut rng);
            let lb = LinkProfile::typical(16.0, &mut rng);
            let a = air(1, i as u16, payload);
            let b = air(2, i as u16, payload);
            let clean = clean_reception(&air(1, 1000 + i as u16, payload), &la, &mut rng);
            let d1 = 200 + 10 * (i % 8);
            let d2 = 70 + 10 * (i % 4);
            let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
            let noise = zigzag::channel::noise::awgn_vec(&mut rng, 1500, 1.0);
            DecodeUnit {
                cfg: DecoderConfig::default(),
                registry: registry(&[(1, &la), (2, &lb)]),
                buffers: vec![clean.buffer, hp.collision1.buffer, hp.collision2.buffer, noise],
            }
        })
        .collect()
}

/// Unequal-power collision units (strong 22 dB over weak 13 dB), so the
/// capture / interference-cancellation / MRC-retry stages are exercised
/// too — equal-power units never take them.
fn build_capture_units(n: usize, payload: usize) -> Vec<DecodeUnit> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(unit_seed(15, i));
            let la = LinkProfile::typical(22.0, &mut rng);
            let lb = LinkProfile::typical(13.0, &mut rng);
            let a = air(1, 500 + i as u16, payload);
            let b = air(2, 500 + i as u16, payload);
            let hp = hidden_pair(&a, &b, &la, &lb, 300, 120, &mut rng);
            DecodeUnit {
                cfg: DecoderConfig::default(),
                registry: registry(&[(1, &la), (2, &lb)]),
                buffers: vec![hp.collision1.buffer, hp.collision2.buffer],
            }
        })
        .collect()
}

/// Three senders at distinct oscillator offsets colliding three times
/// with distinct offset structure (a decodable 3×3 system): the first two
/// collisions are stored, the third completes the match set. Returns the
/// registry, the three receive buffers, and each buffer's ground-truth
/// placements.
fn three_sender_set() -> (ClientRegistry, Vec<Vec<Complex>>, [[usize; 3]; 3]) {
    let mut rng = StdRng::seed_from_u64(3);
    // Distinct oscillator offsets per client: the AP tells senders apart
    // by frequency-compensated correlation (§4.2.1), so a k-way workload
    // needs separated ω's to be physically resolvable.
    let omegas = [-0.08, 0.02, 0.09];
    let links: Vec<LinkProfile> =
        (0..3).map(|i| LinkProfile::clean_with_omega(18.0, omegas[i])).collect();
    let airs: Vec<zigzag::phy::frame::AirFrame> =
        (0..3).map(|i| air(i as u16 + 1, i as u16, 150)).collect();
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    let offs = [[0usize, 310, 620], [0, 620, 310], [100, 0, 450]];
    let buffers: Vec<Vec<Complex>> = offs
        .iter()
        .map(|o| {
            let placed: Vec<PlacedTx<'_>> =
                (0..3).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: o[i] }).collect();
            synth_collision(&placed, 1.0, &mut rng).buffer
        })
        .collect();
    (registry(&[(1, &links[0]), (2, &links[1]), (3, &links[2])]), buffers, offs)
}

/// Golden digests of the standard pipeline's events on the three
/// workloads below, recorded (identically on the scalar and simd
/// backends) while the pipeline still matched the original monolithic
/// receiver flow event-for-event. A change to any of them is a change in
/// decode behaviour.
const GOLDEN_MIXED: u64 = 0x090e_957d_5294_da56;
const GOLDEN_CAPTURE: u64 = 0x87db_eb56_de2d_0dcc;
const GOLDEN_THREE_SENDER: u64 = 0x011b_1f6e_c397_9b0b;

/// Digest of every unit's per-buffer events through a fresh one-shard
/// receiver (the front door a single AP uses).
fn pipeline_digest(units: &[DecodeUnit]) -> (u64, Vec<ReceiverEvent>) {
    let mut h = FNV_OFFSET;
    let mut all = Vec::new();
    for unit in units {
        let mut rx = ShardedReceiver::new(
            unit.cfg.clone(),
            ShardConfig::with_shards(1),
            unit.registry.clone(),
        );
        for buffer in &unit.buffers {
            let events = rx.process(buffer);
            hash_events(&mut h, &events);
            all.extend(events);
        }
    }
    (h, all)
}

/// The pipeline's behaviour pin: over clean receptions, collisions,
/// matched pairs, capture scenarios and noise, the standard pipeline's
/// events hash to the recorded golden digests.
#[test]
fn pipeline_matches_golden_event_hashes() {
    let (mixed, _) = pipeline_digest(&build_units(4, 200));
    let (capture, events) = pipeline_digest(&build_capture_units(3, 250));
    let capture_fired = events.iter().any(|e| {
        matches!(
            e,
            ReceiverEvent::Delivered {
                path: DecodePath::Capture
                    | DecodePath::InterferenceCancellation
                    | DecodePath::MrcRetry,
                ..
            }
        )
    });
    assert!(capture_fired, "workload must exercise the capture/IC stage");
    assert_eq!(mixed, GOLDEN_MIXED, "mixed workload digest {mixed:#018x}");
    assert_eq!(capture, GOLDEN_CAPTURE, "capture workload digest {capture:#018x}");
}

/// Multi-threaded batch decoding must equal the single-threaded run
/// bit for bit (events compare structurally, including frame payloads).
#[test]
fn batch_engine_is_deterministic_across_thread_counts() {
    let units = build_units(8, 150);
    let reference = decode_batch(&BatchEngine::single_threaded(), &units);
    // the workload must actually exercise the decode paths
    let delivered: usize = reference
        .iter()
        .flat_map(|ev| ev.iter())
        .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
        .count();
    assert!(delivered >= units.len(), "workload too easy: {delivered} deliveries");
    for threads in [2, 4, 8] {
        let out = decode_batch(&BatchEngine::new(threads), &units);
        assert_eq!(reference, out, "batch decode diverged at {threads} threads");
    }
}

/// The engine preserves input order even when units finish wildly out of
/// order (unit 0 is far heavier than the rest).
#[test]
fn batch_engine_preserves_order_under_skew() {
    let mut units = build_units(5, 150);
    let heavy = build_units(1, 600);
    units[0] = heavy.into_iter().next().unwrap();
    let seq = decode_batch(&BatchEngine::single_threaded(), &units);
    let par = decode_batch(&BatchEngine::new(4), &units);
    assert_eq!(seq, par);
}

/// A custom pipeline without a ZigzagStage must not destroy matched
/// stored collisions: MatchStage is non-destructive (the store entry is
/// only removed by the consuming ZigzagStage), so dropping/reordering
/// stages (the advertised pipeline contract) never loses collision data.
#[test]
fn custom_pipeline_without_zigzag_keeps_stored_collisions() {
    let units = build_units(1, 200);
    let unit = &units[0];
    let pipeline = Pipeline::from_stages(vec![
        Box::new(DetectStage),
        Box::new(StandardDecodeStage),
        Box::new(CaptureStage),
        Box::new(MatchStage),
        Box::new(StoreStage),
    ]);
    let mut rx = ShardedReceiver::with_pipeline(
        unit.cfg.clone(),
        ShardConfig::with_shards(1),
        unit.registry.clone(),
        pipeline,
    );
    // buffers[1] and buffers[2] are the matched retransmission pair
    let ev1 = rx.process(&unit.buffers[1]);
    assert!(ev1.contains(&ReceiverEvent::CollisionStored), "{ev1:?}");
    assert_eq!(rx.stored_collisions(), 1);
    let ev2 = rx.process(&unit.buffers[2]);
    assert!(ev2.contains(&ReceiverEvent::CollisionStored), "{ev2:?}");
    // the matched stored collision was put back alongside the new one
    assert_eq!(rx.stored_collisions(), 2, "matched stored collision must not be lost");
}

/// The k-way tentpole: a 3-sender/3-collision workload decodes all three
/// frames end-to-end through `ReceiverCore::receive` — the first two
/// collisions accumulate in the keyed store, the third completes a
/// decodable 3×3 match set — with frames identical to the hand-driven
/// executor/scheduler path, and the events matching their golden digest.
#[test]
fn three_sender_collisions_decode_through_pipeline() {
    let (reg, buffers, offs) = three_sender_set();

    // --- hand-driven executor path (ground-truth placements) ---
    let dec = ZigzagDecoder::new(DecoderConfig::default(), &reg);
    let specs: Vec<CollisionSpec<'_>> = buffers
        .iter()
        .zip(offs.iter())
        .map(|(b, o)| CollisionSpec { buffer: b, placements: (0..3).map(|i| (i, o[i])).collect() })
        .collect();
    let exec = dec.decode(
        &specs,
        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }, PacketSpec { client: 3 }],
    );
    let exec_frames: Vec<Frame> = exec.packets.iter().filter_map(|p| p.frame.clone()).collect();
    assert_eq!(exec_frames.len(), 3, "executor path must recover all three frames");

    // --- full-stack pipeline path: ReceiverCore::receive ---
    let pipeline = Pipeline::standard();
    let mut core = ReceiverCore::new(DecoderConfig::default(), reg.clone());
    let ev1 = core.receive(&pipeline, &buffers[0]);
    assert!(matches!(&ev1[..], [ReceiverEvent::CollisionStored]), "{ev1:?}");
    let ev2 = core.receive(&pipeline, &buffers[1]);
    assert!(matches!(&ev2[..], [ReceiverEvent::CollisionStored]), "{ev2:?}");
    assert_eq!(core.store().len(), 2, "both collisions must accumulate in the store");
    let ev3 = core.receive(&pipeline, &buffers[2]);
    let delivered: Vec<&Frame> = ev3
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Delivered { frame, path: DecodePath::Zigzag } => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 3, "events: {ev3:?}");
    for f in &exec_frames {
        assert!(delivered.contains(&f), "pipeline must deliver the executor-path frame {f:?}");
    }
    assert_eq!(core.store().len(), 0, "matched members must be consumed");

    // --- golden digest: the same events through the one-shard front door ---
    let unit = DecodeUnit { cfg: DecoderConfig::default(), registry: reg, buffers };
    let (digest, events) = pipeline_digest(&[unit]);
    assert_eq!(events, [ev1, ev2, ev3].concat(), "one shard must equal ReceiverCore::receive");
    assert_eq!(digest, GOLDEN_THREE_SENDER, "three-sender digest {digest:#018x}");
}

/// Per-unit scratch reuse must not leak state between buffers: decoding
/// the same buffer twice through fresh receivers gives identical events.
#[test]
fn scratch_reuse_is_stateless_across_buffers() {
    let units = build_units(1, 200);
    let unit = &units[0];
    let run = |buffers: &[Vec<Complex>]| {
        let mut core = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
        let pipeline = Pipeline::standard();
        buffers.iter().flat_map(|b| core.receive(&pipeline, b)).collect::<Vec<_>>()
    };
    assert_eq!(run(&unit.buffers), run(&unit.buffers));
}
