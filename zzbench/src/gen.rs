//! Seeded workload synthesis with ground truth.
//!
//! Every input comes from the workload seed alone: payloads, channel
//! draws, collision offsets, noise gaps and the order in which client sets
//! reach the air. Nothing is screened — a group that the receiver cannot
//! decode stays in the workload and shows in `frames_delivered_frac`.

use std::collections::HashMap;

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::noise::awgn_vec;
use zigzag_channel::scenario::{hidden_pair, synth_collision, PlacedTx};
use zigzag_core::config::{ClientInfo, ClientRegistry};
use zigzag_core::ReceiverEvent;
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, AirFrame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

/// Oscillator offset of client `i + 1`. The AP tells clients apart by
/// frequency-compensated preamble correlation (§4.2.1), so every
/// associated client sits at its own ω.
const OMEGA: [f64; 8] = [-0.13, 0.14, -0.08, 0.02, 0.09, -0.18, 0.19, -0.03];

/// Four disjoint hidden pairs behind one AP: the client sets the router
/// spreads over shards.
pub const SETS: [[u16; 2]; 4] = [[1, 2], [3, 4], [5, 6], [7, 8]];

const SNR_DB: f64 = 17.0;

/// Noise between bursts, in samples. The floor exceeds
/// `StreamConfig::default().max_packet` (4096) so each burst carves into
/// its own region.
const GAP: std::ops::Range<usize> = 4400..6000;

/// Bob's offset behind Alice in a stream collision, in samples.
const OFFSET: std::ops::Range<usize> = 40..640;
/// Bob's offset in both collisions of an equal-offset recovery group.
const EQUAL_OFFSET: std::ops::Range<usize> = 240..400;

fn link(id: u16) -> LinkProfile {
    LinkProfile::clean_with_omega(SNR_DB, OMEGA[usize::from(id) - 1])
}

/// The AP's association table: all eight clients, whichever set a buffer
/// belongs to (so other sets' preambles can raise §5.3a false positives).
pub fn registry() -> ClientRegistry {
    let mut registry = ClientRegistry::new();
    for id in 1..=OMEGA.len() as u16 {
        let l = link(id);
        registry.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    registry
}

fn airframe(src: u16, seq: u16, payload: usize, rng: &mut StdRng) -> AirFrame {
    let frame = Frame::with_random_payload(0, src, seq, payload, rng.next_u64());
    encode_frame(&frame, Modulation::Bpsk, &Preamble::default_len())
}

/// The transmitted frames, keyed by `(src, seq)`.
#[derive(Default)]
pub struct Truth {
    frames: HashMap<(u16, u16), Frame>,
}

impl Truth {
    fn insert(&mut self, frame: &Frame) {
        let prev = self.frames.insert((frame.src, frame.seq), frame.clone());
        assert!(prev.is_none(), "generator reused (src, seq) = ({}, {})", frame.src, frame.seq);
    }

    /// Frames offered to the receiver.
    pub fn offered(&self) -> usize {
        self.frames.len()
    }

    /// Checks every `Delivered` frame against the transmitted frame with
    /// the same `(src, seq)` and returns the distinct `(src, seq)`
    /// delivered, or a description of the first mismatch.
    pub fn check<'a>(
        &self,
        events: impl IntoIterator<Item = &'a ReceiverEvent>,
    ) -> Result<usize, String> {
        let mut seen = std::collections::HashSet::new();
        for ev in events {
            if let ReceiverEvent::Delivered { frame, path } = ev {
                match self.frames.get(&(frame.src, frame.seq)) {
                    Some(sent) if sent == frame => {
                        seen.insert((frame.src, frame.seq));
                    }
                    Some(_) => {
                        return Err(format!(
                            "frame ({}, {}) delivered via {path:?} differs from the one sent",
                            frame.src, frame.seq
                        ))
                    }
                    None => {
                        return Err(format!(
                            "frame ({}, {}) delivered via {path:?} was never sent",
                            frame.src, frame.seq
                        ))
                    }
                }
            }
        }
        Ok(seen.len())
    }
}

/// One continuous stretch of AP air.
pub struct Air {
    pub samples: Vec<Complex>,
    pub truth: Truth,
}

/// Continuous air from the four hidden pairs: `rounds` retransmission
/// rounds, each giving every set one two-collision hidden-pair group
/// (§4.2.3: Alice at 0, Bob at Δ₁ then Δ₂, both offsets drawn freely).
/// Within a round the sets' first collisions reach the air in a seeded
/// order, then their second collisions in another, each burst followed by
/// a noise gap. Each offset is uniform on `OFFSET`, drawn by Latin
/// hypercube over the air's groups, so every seed covers the offset
/// range evenly and the share of groups that decode varies less between
/// seeds.
pub fn stream_air(seed: u64, rounds: usize) -> Air {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_5245_414d);
    let mut truth = Truth::default();
    let groups = rounds * SETS.len();
    let mut d1s = stratified(OFFSET, groups, &mut rng).into_iter();
    let mut d2s = stratified(OFFSET, groups, &mut rng).into_iter();
    let mut samples = noise_gap(&mut rng);
    for round in 0..rounds {
        let seq = u16::try_from(round).expect("rounds fit the 16-bit sequence space");
        let mut firsts = Vec::with_capacity(SETS.len());
        let mut seconds = Vec::with_capacity(SETS.len());
        for ids in SETS {
            let a = airframe(ids[0], seq, 200, &mut rng);
            let b = airframe(ids[1], seq, 200, &mut rng);
            truth.insert(&a.frame);
            truth.insert(&b.frame);
            let (d1, d2) = (d1s.next().expect("one per group"), d2s.next().expect("one per group"));
            let hp = hidden_pair(&a, &b, &link(ids[0]), &link(ids[1]), d1, d2, &mut rng);
            firsts.push(hp.collision1.buffer);
            seconds.push(hp.collision2.buffer);
        }
        for mut batch in [firsts, seconds] {
            shuffle(&mut batch, &mut rng);
            for burst in batch {
                samples.extend_from_slice(&burst);
                samples.extend(noise_gap(&mut rng));
            }
        }
    }
    Air { samples, truth }
}

/// Pre-cut equal-offset retransmission groups (§4.5's Δ₁ = Δ₂ case, which
/// chunk peeling cannot decode): per round, every set's pair collides
/// twice at the same offset (uniform on `EQUAL_OFFSET`, by Latin
/// hypercube over the groups) with fresh per-transmission phase.
/// Returns one batch of buffers per round — the sets' first collisions in
/// a seeded order, then their second collisions.
pub fn recovery_rounds(seed: u64, rounds: usize) -> (Vec<Vec<Vec<Complex>>>, Truth) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0052_4543_4f56_4552);
    let mut truth = Truth::default();
    let mut deltas = stratified(EQUAL_OFFSET, rounds * SETS.len(), &mut rng).into_iter();
    let mut batches = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let seq = u16::try_from(round).expect("rounds fit the 16-bit sequence space");
        let mut firsts = Vec::with_capacity(SETS.len());
        let mut seconds = Vec::with_capacity(SETS.len());
        for ids in SETS {
            let a = airframe(ids[0], seq, 120, &mut rng);
            let b = airframe(ids[1], seq, 120, &mut rng);
            truth.insert(&a.frame);
            truth.insert(&b.frame);
            let delta = deltas.next().expect("one per group");
            let (ca, cb) = (link(ids[0]).draw(&mut rng), link(ids[1]).draw(&mut rng));
            let placed = [
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: delta },
            ];
            firsts.push(synth_collision(&placed, 1.0, &mut rng).buffer);
            seconds.push(synth_collision(&placed, 1.0, &mut rng).buffer);
        }
        shuffle(&mut firsts, &mut rng);
        shuffle(&mut seconds, &mut rng);
        firsts.extend(seconds);
        batches.push(firsts);
    }
    (batches, truth)
}

/// `n` draws from `range`, one uniform draw from each of `n` equal strata,
/// in a seeded order.
fn stratified(range: std::ops::Range<usize>, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let width = (range.end - range.start) as f64 / n as f64;
    let mut v: Vec<usize> = (0..n)
        .map(|k| range.start + ((k as f64 + rng.gen_range(0.0..1.0)) * width) as usize)
        .map(|d| d.min(range.end - 1))
        .collect();
    shuffle(&mut v, rng);
    v
}

fn noise_gap(rng: &mut StdRng) -> Vec<Complex> {
    let n = rng.gen_range(GAP);
    awgn_vec(rng, n, 1.0)
}

/// Fisher–Yates with the workload's RNG.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
