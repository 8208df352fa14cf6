//! Receiver configuration and the per-client association registry.
//!
//! §4.2.1: "The frequency offset does not change over long periods, and
//! thus the AP can maintain coarse estimates of the frequency offsets of
//! active clients as obtained at the time of association. The AP uses
//! these estimates in the computation." The registry holds exactly that
//! per-client state (plus the per-link static ISI taps and a coarse SNR
//! estimate, both also learnable from any clean packet).

use crate::stream::{lookahead, LEAD};
use std::collections::BTreeMap;
use std::sync::Arc;
use zigzag_phy::filter::Fir;
use zigzag_phy::kernel::BackendKind;

/// Tunable knobs of the ZigZag receiver. Defaults reproduce the paper's
/// configuration; the `false` settings exist for the Table 5.1 ablations.
/// Values the evaluation never varies are documented constants beside
/// their readers: the §5.3a detection threshold β
/// ([`BETA`](crate::detect::BETA)) and the chunk decoder's tracking
/// loop gains and block size (`view.rs`).
#[derive(Clone, Debug)]
pub struct DecoderConfig {
    /// Track the phase/frequency (§4.2.4b), sampling offset (§4.2.4c)
    /// and channel amplitude of reconstructed chunk images. Table 5.1 row
    /// "Frequency & Phase Tracking".
    pub tracking: bool,
    /// Model/compensate ISI (equalizer + inverse filter, §4.2.4d).
    /// Table 5.1 row "ISI Filter".
    pub use_isi_filter: bool,
    /// Run the backward pass and MRC-combine with the forward pass (§4.3b).
    pub backward: bool,
    /// How many recent unmatched collisions the AP stores **per
    /// client-set key** (§4.2.2: "it is sufficient to store the few most
    /// recent collisions"). A k-sender match set needs k−1 stored
    /// collisions, so this bounds the largest decodable sender count at
    /// `collision_store + 1` — raise it for deployments expecting more
    /// simultaneous hidden senders.
    pub collision_store: usize,
    /// Samples past the *earliest* detection within which a detection
    /// can still open a collision's client-set key (the store/match/
    /// routing index). True packet starts cluster at the front of a
    /// collision — their spread is the MAC backoff jitter (§4.2.2's Δ) —
    /// while a §5.3a false positive from an interferer's data sidelobe
    /// can spike anywhere; with several client sets associated at one
    /// AP, an un-windowed key absorbs those spurious *foreign* clients
    /// and sends two-sender collisions down the k-way path. Matching and
    /// decoding still see every detection; the window only gates set
    /// membership.
    ///
    /// Defaults to `usize::MAX` (off): with a single client set
    /// associated, every detection is evidence of a set member — even a
    /// far-tail sidelobe — and filtering it would discard real presence
    /// information. Multi-set deployments (the sharded receiver's whole
    /// reason to exist) should use [`DecoderConfig::shared_ap`] or set
    /// this to roughly the MAC's backoff spread (≈1024 samples).
    pub key_window: usize,
    /// Which phy kernel backend the decode hot loops run on
    /// (`zigzag_phy::kernel`). Defaults to the explicit-SIMD backend;
    /// `ZIGZAG_BACKEND=scalar` selects the scalar reference process-wide.
    pub backend: BackendKind,
    /// The algebraic batch-recovery subsystem
    /// ([`crate::recovery`]): joint Gaussian elimination over collision
    /// groups the chunk scheduler cannot peel. Off by default — see
    /// [`RecoveryConfig`] and [`DecoderConfig::with_recovery`].
    pub recovery: RecoveryConfig,
    /// §4.1's "collision followed by a clean retransmission" path: after
    /// a successful *single-packet* decode, re-encode the packet,
    /// subtract it from every stored collision that contains this client
    /// (the ANC primitive, [`crate::capture::subtract_known`]), and try
    /// to decode the buried partners from the residuals. `false` (the
    /// default) keeps the receiver bit-identical to the pre-reap
    /// pipeline: a solo reception never touches the store.
    pub solo_reap: bool,
}

/// The algebraic batch-recovery subsystem's one setting
/// ([`crate::recovery`]): off, the single-pass solver, or the robust
/// preset.
///
/// Recovery takes the match sets `schedule::decodable` rejects as
/// under-determined — plus collisions evicted from the store — and solves
/// them *jointly* as a linear system over demodulated symbols, instead of
/// evicting them as loss. This decodes scenarios the paper's iterative
/// decoder provably cannot (e.g. Δ₁ = Δ₂ duplicate-offset collisions,
/// §4.5), at the cost of extra memory (the salvage pool) and solver time
/// on otherwise-dead buffers.
///
/// Everything else is a documented constant beside its reader: the
/// solver's shape — window 32 / commit 16 symbols, ridge λ = 1e-4 of the
/// mean observation energy, a 0.25 observation gate — and the robust
/// preset's window-PLL gains (`recovery.rs`); the salvage pool of 4
/// collisions per client-set key and groups of at most 4 collisions
/// (`engine/stage.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryConfig {
    /// No recovery (the default): the receiver is bit-identical to the
    /// pre-recovery pipeline — rejected alignments and evictions are
    /// dropped.
    #[default]
    Off,
    /// The single-pass joint solver: one solve per group, executor-style
    /// one-shot phase feedback, a flat ridge, and every confirmed
    /// salvage-pool candidate admitted.
    SinglePass,
    /// The typical-link robustness preset: the single-pass solver plus
    /// the machinery that survives impaired channels — per-window PI
    /// phase tracking (rides phase-noise walks), one turbo re-estimation
    /// pass (reclaims CRC-failed first solves from their own cancelled
    /// buffers, the SIC iteration of arXiv:1401.7374), and a
    /// conditioning-scaled ridge (it grows with each window's
    /// observation-energy spread). Every confirmed salvage-pool candidate
    /// is admitted, as under [`RecoveryConfig::SinglePass`]: members poor
    /// in channel diversity (the case arXiv:1001.1948's joint solve
    /// depends on) are left to the ridge, not filtered out. On benign links it delivers the same frames as
    /// [`RecoveryConfig::SinglePass`]; on `LinkProfile::typical`-class
    /// links it reclaims strictly more (the bench's tracked robustness
    /// curve).
    Robust,
}

impl RecoveryConfig {
    /// The single-pass solver, [`RecoveryConfig::SinglePass`].
    pub fn on() -> Self {
        Self::SinglePass
    }

    /// The robust preset, [`RecoveryConfig::Robust`].
    pub fn robust() -> Self {
        Self::Robust
    }

    /// `true` unless recovery is [`RecoveryConfig::Off`].
    pub(crate) fn is_enabled(self) -> bool {
        self != Self::Off
    }

    /// `true` for the [`RecoveryConfig::Robust`] preset.
    pub(crate) fn is_robust(self) -> bool {
        self == Self::Robust
    }
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            tracking: true,
            use_isi_filter: true,
            backward: true,
            collision_store: 4,
            key_window: usize::MAX,
            backend: BackendKind::default(),
            recovery: RecoveryConfig::default(),
            solo_reap: false,
        }
    }
}

impl DecoderConfig {
    /// The default configuration pinned to a specific kernel backend
    /// (differential testing, benchmarks).
    pub fn with_backend(backend: BackendKind) -> Self {
        Self { backend, ..Self::default() }
    }

    /// Configuration for an AP serving *several* client sets at once —
    /// the sharded-receiver deployment: bounds the client-set key window
    /// to the MAC backoff spread so another set's data-sidelobe false
    /// positives (§5.3a) don't pollute this set's store/match/routing
    /// key.
    pub fn shared_ap() -> Self {
        Self { key_window: 1024, ..Self::default() }
    }

    /// The default configuration with algebraic batch recovery enabled
    /// ([`crate::recovery`]): undecodable match sets and store evictions
    /// are jointly solved instead of dropped.
    pub fn with_recovery() -> Self {
        Self { recovery: RecoveryConfig::on(), ..Self::default() }
    }

    /// [`DecoderConfig::with_recovery`] hardened for typical (impaired)
    /// links: the [`RecoveryConfig::Robust`] preset — window PLL, one
    /// turbo re-estimation pass, conditioning-scaled ridge.
    pub fn with_robust_recovery() -> Self {
        Self { recovery: RecoveryConfig::robust(), ..Self::default() }
    }

    /// The default configuration with §4.1 solo-reaping enabled: a clean
    /// retransmission is subtracted from stored collisions containing
    /// the same client, recovering the buried partners.
    pub fn with_solo_reap() -> Self {
        Self { solo_reap: true, ..Self::default() }
    }
}

impl DecoderConfig {
    /// Configuration with all ZigZag-specific tracking disabled (the
    /// "Success Without" rows of Table 5.1).
    pub fn without_tracking() -> Self {
        Self { tracking: false, ..Self::default() }
    }

    /// Configuration without ISI modelling (Table 5.1 "ISI Filter"
    /// ablation).
    pub fn without_isi_filter() -> Self {
        Self { use_isi_filter: false, ..Self::default() }
    }

    /// Forward-only decoding (isolates the §4.3b backward/MRC gain).
    pub fn forward_only() -> Self {
        Self { backward: false, ..Self::default() }
    }
}

/// What the AP knows about one associated client.
#[derive(Clone, Debug)]
pub struct ClientInfo {
    /// Coarse oscillator-offset estimate, radians/sample (§4.2.1).
    pub omega: f64,
    /// Coarse SNR estimate in dB, from previously decoded packets — used
    /// to set the collision-detection threshold (§5.3a).
    pub snr_db: f64,
    /// Static per-link ISI taps learned from clean packets (unit main
    /// tap; the per-packet complex gain is estimated per collision).
    pub taps: Fir,
}

/// The AP's association table.
#[derive(Clone, Debug, Default)]
pub struct ClientRegistry {
    clients: BTreeMap<u16, ClientInfo>,
}

impl ClientRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a client.
    pub fn associate(&mut self, id: u16, info: ClientInfo) {
        self.clients.insert(id, info);
    }

    /// Looks up a client.
    pub fn get(&self, id: u16) -> Option<&ClientInfo> {
        self.clients.get(&id)
    }

    /// Iterates over `(id, info)` pairs in ascending id order — the
    /// order every detection scan visits clients in, so an exact
    /// correlation tie always goes to the lowest id.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &ClientInfo)> {
        self.clients.iter().map(|(&k, v)| (k, v))
    }

    /// Number of associated clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// `true` if no clients are associated.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Updates a client's frequency estimate (e.g. after decoding a clean
    /// packet from it).
    pub fn update_omega(&mut self, id: u16, omega: f64) {
        if let Some(c) = self.clients.get_mut(&id) {
            c.omega = omega;
        }
    }
}

/// A read-mostly shared handle to the association registry.
///
/// The registry is written at association time and read on every buffer,
/// by every receiver shard — the classic read-mostly shape. The handle is
/// an `Arc` with copy-on-write semantics: clones are pointer copies (what
/// the [`ShardedReceiver`](crate::engine::shard::ShardedReceiver) hands
/// each shard), reads deref straight to the registry with no locking, and
/// [`Self::associate`]/[`Self::update_omega`] clone the underlying table
/// only when other handles are still alive (`Arc::make_mut`).
#[derive(Clone, Debug, Default)]
pub struct SharedRegistry {
    inner: Arc<ClientRegistry>,
}

impl SharedRegistry {
    /// Wraps a registry for shared read-mostly access.
    pub fn new(registry: ClientRegistry) -> Self {
        Self { inner: Arc::new(registry) }
    }

    /// Registers (or updates) a client — copy-on-write if other handles
    /// exist.
    pub fn associate(&mut self, id: u16, info: ClientInfo) {
        Arc::make_mut(&mut self.inner).associate(id, info);
    }

    /// Updates a client's frequency estimate — copy-on-write if other
    /// handles exist.
    pub fn update_omega(&mut self, id: u16, omega: f64) {
        Arc::make_mut(&mut self.inner).update_omega(id, omega);
    }

    /// `true` if `other` is a handle to the same registry allocation
    /// (i.e. writes through one are visible to the other's next clone).
    pub fn shares_with(&self, other: &SharedRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::ops::Deref for SharedRegistry {
    type Target = ClientRegistry;

    fn deref(&self) -> &ClientRegistry {
        &self.inner
    }
}

impl From<ClientRegistry> for SharedRegistry {
    fn from(registry: ClientRegistry) -> Self {
        Self::new(registry)
    }
}

/// Shape of the sharded multi-core receiver
/// ([`ShardedReceiver`](crate::engine::shard::ShardedReceiver)): how many
/// receiver shards run and how deep each shard's bounded ingest queue is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of receiver shards (one `ReceiverCore` each); `0` means one
    /// per available CPU.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue. Ingestion *blocks*
    /// when a queue is full (backpressure — buffers are never dropped),
    /// so the depth bounds how far detection runs ahead of decode.
    pub queue_depth: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards: 0, queue_depth: 32 }
    }
}

impl ShardConfig {
    /// A config pinned to an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }
}

/// Shape of the streaming front end ([`crate::stream`]): how the
/// continuous IQ stream is windowed for detection and how much raw
/// sample memory the bounded ingest ring may hold. The carve geometry —
/// scan lookahead, region lead, packet horizon and region cap — is fixed
/// by the preamble and the frame format (constants in `stream/`).
///
/// The determinism contract extends through these knobs: for a given
/// configuration the carved regions — boundaries, samples, and attached
/// detections — depend only on the sample stream, never on how the
/// producer chunked its `push_samples` calls or how often the ring
/// filled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Samples the sliding detect operator commits per advance (the
    /// detection window stride). Smaller windows lower latency and ring
    /// retention; the scan cost per sample is the same either way
    /// because every correlation position is computed exactly once.
    pub window: usize,
    /// Capacity of the bounded [`SampleRing`](crate::stream::SampleRing)
    /// in samples. When the ring is full, `push_samples` blocks — the
    /// end of the backpressure chain (shard queue → carver → ring →
    /// source). Raised if necessary so one window + lookahead + lead
    /// always fits.
    pub ring_depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { window: 4096, ring_depth: 1 << 16 }
    }
}

impl StreamConfig {
    /// The effective window stride (floor: one preamble length).
    pub fn effective_window(&self, l: usize) -> usize {
        self.window.max(l)
    }

    /// The effective ring capacity: at least one full advance —
    /// window + lookahead + lead + interpolation margin — must fit.
    pub fn effective_ring_depth(&self, l: usize) -> usize {
        self.ring_depth.max(self.effective_window(l) + lookahead(l) + LEAD + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DecoderConfig::default();
        assert!(c.tracking && c.use_isi_filter && c.backward);
    }

    #[test]
    fn ablations_toggle_single_concerns() {
        let t = DecoderConfig::without_tracking();
        assert!(!t.tracking);
        assert!(t.use_isi_filter && t.backward);
        let i = DecoderConfig::without_isi_filter();
        assert!(!i.use_isi_filter && i.tracking);
        let f = DecoderConfig::forward_only();
        assert!(!f.backward && f.tracking);
    }

    #[test]
    fn recovery_presets_map_to_the_setting() {
        assert_eq!(DecoderConfig::default().recovery, RecoveryConfig::Off);
        assert_eq!(DecoderConfig::with_recovery().recovery, RecoveryConfig::SinglePass);
        assert_eq!(DecoderConfig::with_robust_recovery().recovery, RecoveryConfig::Robust);
    }

    #[test]
    fn shared_registry_is_copy_on_write() {
        let mut reg = ClientRegistry::new();
        reg.associate(1, ClientInfo { omega: 0.01, snr_db: 12.0, taps: Fir::identity() });
        let mut a = SharedRegistry::new(reg);
        let b = a.clone();
        assert!(a.shares_with(&b), "clones are pointer copies");
        a.associate(2, ClientInfo { omega: 0.05, snr_db: 14.0, taps: Fir::identity() });
        assert!(!a.shares_with(&b), "a write with live readers must copy, not mutate in place");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1, "existing handles keep their snapshot");
        a.update_omega(1, 0.03);
        assert!((a.get(1).unwrap().omega - 0.03).abs() < 1e-12);
        assert!((b.get(1).unwrap().omega - 0.01).abs() < 1e-12);
    }

    #[test]
    fn shard_config_defaults() {
        let c = ShardConfig::default();
        assert_eq!(c.shards, 0, "0 = one shard per available CPU");
        assert!(c.queue_depth >= 1);
        assert_eq!(ShardConfig::with_shards(3).shards, 3);
    }

    #[test]
    fn stream_config_applies_structural_floors() {
        let c = StreamConfig::default();
        assert_eq!(lookahead(32), 72, "lookahead = 2·L + 8");
        assert!(c.effective_window(32) >= 32);
        assert!(c.effective_ring_depth(32) >= c.effective_window(32) + 72 + LEAD);
        // degenerate knobs are raised, never honored below the floor
        let tiny = StreamConfig { window: 8, ring_depth: 1 };
        assert_eq!(tiny.effective_window(32), 32);
        assert!(tiny.effective_ring_depth(32) >= 32 + 72 + LEAD);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = ClientRegistry::new();
        assert!(r.is_empty());
        r.associate(7, ClientInfo { omega: 0.01, snr_db: 12.0, taps: Fir::identity() });
        assert_eq!(r.len(), 1);
        assert!((r.get(7).unwrap().omega - 0.01).abs() < 1e-12);
        r.update_omega(7, 0.02);
        assert!((r.get(7).unwrap().omega - 0.02).abs() < 1e-12);
        assert!(r.get(8).is_none());
    }
}
