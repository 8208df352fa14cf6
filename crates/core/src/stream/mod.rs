//! # The streaming flowgraph front end
//!
//! Everything else in this crate decodes *buffers*; a real AP sees an
//! unbounded IQ sample stream. This module is the flowgraph that turns
//! one into the other — a windowed source→detect→carve→route operator
//! graph over a ring of raw samples:
//!
//! ```text
//!                    ┌────────────── Segmenter ──────────────┐
//! push_samples ──► SampleRing ──► WindowScanner ──► RegionCarver ──► CarvedRegion
//!   (producer)    bounded ring    sliding §4.2.1      collision          │
//!                 absolute idx    preamble scan,      regions across     ▼
//!                                 overlap reused      window bounds   route ──► IngestQueue ──► ReceiverCore
//! ```
//!
//! * [`SampleRing`] ingests arbitrary-sized chunks and addresses them in
//!   absolute stream coordinates.
//! * `WindowScanner` runs the kernel-backend preamble scan over
//!   sliding windows, carrying correlation context across the overlap
//!   so **no sample is scanned twice** — and commits detections at
//!   fixed window-stride boundaries, which is what makes the output
//!   independent of producer chunking.
//! * `RegionCarver` assembles collision regions
//!   from runs of detections — including collisions whose second packet
//!   starts in a later window — and emits `UnitCtx`-ready buffers with
//!   their detections attached (the `receive_detected` seam: shards
//!   never re-scan).
//! * the driver routes each region into the existing sharded receiver
//!   with **end-to-end backpressure**: full shard queue ⇒ stalled
//!   carver ⇒ full ring ⇒ blocked [`StreamSource::push_samples`].
//!   Bounded memory; never a dropped sample.
//!
//! The determinism gate: the same air pushed through the stream front
//! end (any chunking, any backend, any shard count) and pre-cut with
//! [`carve_buffer`] then batch-decoded yields bit-identical decode
//! events — pinned by `tests/stream.rs` and the soak bench.

mod carver;
mod driver;
mod ring;
mod window;

pub use carver::CarvedRegion;
pub use driver::{
    carve_buffer, RegionOutcome, Segmenter, StreamOutcome, StreamSource, StreamStats,
};
pub use ring::SampleRing;

/// Extra lookahead samples the scanner waits for beyond the window being
/// committed, for preamble length `l`: peak suppression needs `l` of
/// right context, the correlation sum reads `l` further, and the
/// half-sample grid interpolates 8 taps ahead — so every committed
/// position has its full suppression neighbourhood and full-length
/// correlation sums.
pub(crate) const fn lookahead(l: usize) -> usize {
    2 * l + 8
}

/// Quiet samples carved ahead of a region's first detection, so the
/// carved buffer gives the decode pipeline the same interpolation and
/// suppression context the detections were found with.
pub(crate) const LEAD: usize = 64;

/// Samples a region is extended past its *last* detection before it can
/// close — an upper bound on one packet's air length (plus tail pad).
/// Any further detection inside that horizon extends the region, so
/// collisions spanning many windows stay in one region.
pub(crate) const MAX_PACKET: usize = 4096;

/// Hard cap on a single region's length: a pathological detection chain
/// (e.g. a continuously-keyed interferer) closes at this size and
/// re-opens, bounding carve memory.
pub(crate) const MAX_REGION: usize = 1 << 20;
const _: () = assert!(MAX_REGION >= MAX_PACKET + LEAD);
