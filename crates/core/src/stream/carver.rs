//! The region carver: collision buffers cut out of the continuous
//! stream around runs of detections.
//!
//! The paper's receive path starts from a *buffer* containing a
//! collision; on a real AP that buffer has to be carved out of the air.
//! [`RegionCarver`] folds the scanner's committed spikes into regions:
//!
//! * the first spike opens a region [`LEAD`] samples
//!   early (quiet context for the decoder's interpolation and for the
//!   suppression neighborhoods the spikes were decided with);
//! * every further spike — raw, pre-merge, so even a collapsed
//!   near-duplicate counts as evidence — extends the close horizon to
//!   `spike + MAX_PACKET`, which is how a collision whose second packet
//!   starts several windows later stays in one region;
//! * the region closes once the scanner has committed past the horizon
//!   with no new spike (or at [`MAX_REGION`], the runaway
//!   bound), and is emitted with its finalized merged detections
//!   attached, rebased to region coordinates — ready for the
//!   `receive_detected` seam with no re-scan.
//!
//! Samples are copied into the open region incrementally at every
//! advance, so ring retention never depends on region length: the ring
//! is purely the producer-side backpressure buffer.

use super::window::ScanSpan;
use super::{LEAD, MAX_PACKET, MAX_REGION};
use crate::detect::Detection;
use zigzag_phy::complex::Complex;

/// One carved collision region: a `UnitCtx`-ready buffer plus the
/// detections found in it, in region-relative coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct CarvedRegion {
    /// Region sequence number (0-based, in stream order) — the
    /// deterministic-merge key, exactly like a batch buffer index.
    pub seq: usize,
    /// Absolute stream index of `samples[0]`.
    pub start: usize,
    /// The carved samples.
    pub samples: Vec<Complex>,
    /// The detections inside this region, positions relative to
    /// `start`, exactly as the windowed scanner finalized them.
    pub detections: Vec<Detection>,
}

#[derive(Debug)]
struct OpenRegion {
    start: usize,
    /// Close horizon: the region closes once the scan commits past this
    /// with no spike at or before it.
    end_cand: usize,
    /// Absolute index up to which samples have been copied in.
    filled: usize,
    samples: Vec<Complex>,
}

/// Assembles [`CarvedRegion`]s from scanner spans (see module docs).
#[derive(Debug)]
pub(crate) struct RegionCarver {
    next_seq: usize,
    open: Option<OpenRegion>,
    /// Finalized merged detections not yet attached to a closed region.
    pending: Vec<Detection>,
}

impl RegionCarver {
    pub fn new() -> Self {
        Self { next_seq: 0, open: None, pending: Vec::new() }
    }

    /// Regions emitted so far.
    pub fn regions(&self) -> usize {
        self.next_seq
    }

    /// Lowest absolute sample index the carver may still read (the open
    /// region's fill point) — the driver keeps the ring at least this
    /// far back, minus [`LEAD`] for a region that might open just behind
    /// the commit point.
    pub fn min_sample_needed(&self, commit: usize) -> usize {
        let open_from = self.open.as_ref().map(|o| o.filled).unwrap_or(usize::MAX);
        open_from.min(commit.saturating_sub(LEAD))
    }

    /// Folds one committed span into the carve state: opens/extends/
    /// closes regions from `span.raw`, buffers `span.merged` for
    /// attachment, copies samples through `upto` (the new commit point),
    /// and emits every region that closed.
    pub fn advance(
        &mut self,
        span: &ScanSpan,
        slice: &[Complex],
        base: usize,
        upto: usize,
        out: &mut Vec<CarvedRegion>,
    ) {
        self.pending.extend_from_slice(&span.merged);
        for &p in &span.raw {
            if matches!(&self.open, Some(o) if p > o.end_cand) {
                let region = self.close(slice, base, None);
                out.push(region);
            }
            match &mut self.open {
                Some(o) => o.end_cand = (p + MAX_PACKET).min(o.start + MAX_REGION),
                None => {
                    let start = p.saturating_sub(LEAD);
                    self.open = Some(OpenRegion {
                        start,
                        end_cand: (p + MAX_PACKET).min(start + MAX_REGION),
                        filled: start,
                        samples: Vec::new(),
                    });
                }
            }
        }
        let mut closes = false;
        if let Some(o) = &mut self.open {
            let fill_to = upto.min(o.end_cand);
            if fill_to > o.filled {
                o.samples.extend_from_slice(&slice[o.filled - base..fill_to - base]);
                o.filled = fill_to;
            }
            closes = upto >= o.end_cand;
        }
        if closes {
            let region = self.close(slice, base, None);
            out.push(region);
        }
    }

    /// Closes any still-open region at stream end `end` (the final
    /// flush: the air ended before the close horizon was reached).
    pub fn finish(
        &mut self,
        slice: &[Complex],
        base: usize,
        end: usize,
        out: &mut Vec<CarvedRegion>,
    ) {
        if self.open.is_some() {
            let region = self.close(slice, base, Some(end));
            out.push(region);
        }
        self.pending.clear();
    }

    fn close(
        &mut self,
        slice: &[Complex],
        base: usize,
        truncate_at: Option<usize>,
    ) -> CarvedRegion {
        let mut o = self.open.take().expect("close without an open region");
        let end = truncate_at.map_or(o.end_cand, |e| e.min(o.end_cand));
        if end > o.filled {
            o.samples.extend_from_slice(&slice[o.filled - base..end - base]);
        }
        let mut detections = Vec::new();
        self.pending.retain(|d| {
            if d.pos < end {
                let mut d = *d;
                d.pos -= o.start;
                detections.push(d);
                false
            } else {
                true
            }
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        CarvedRegion { seq, start: o.start, samples: o.samples, detections }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_phy::complex::ZERO;

    fn spikes(raw: Vec<usize>) -> ScanSpan {
        ScanSpan { merged: Vec::new(), raw }
    }

    #[test]
    fn region_opens_lead_early_and_closes_a_packet_horizon_late() {
        // the geometry is pinned by value: 64 samples of lead before the
        // first spike, a 4096-sample horizon past the last one
        let slice = vec![ZERO; 12_000];
        let mut carver = RegionCarver::new();
        let mut out = Vec::new();
        carver.advance(&spikes(vec![1000, 2500]), &slice, 0, 3000, &mut out);
        assert!(out.is_empty(), "the horizon past the last spike is still open");
        carver.advance(&spikes(Vec::new()), &slice, 0, 2500 + 4096, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start, 1000 - 64);
        assert_eq!(out[0].start + out[0].samples.len(), 2500 + 4096);
    }

    #[test]
    fn runaway_spike_chain_closes_at_the_region_cap() {
        // spikes closer than the packet horizon never let the region
        // close on their own; the 2^20-sample cap cuts it and the next
        // spike opens a fresh region
        let cap = 1 << 20;
        let slice = vec![ZERO; cap + 20_000];
        let chain: Vec<usize> =
            (0..).map(|k| 64 + 4000 * k).take_while(|&p| p < cap + 8000).collect();
        let reopen = *chain.iter().find(|&&p| p > cap).unwrap();
        let mut carver = RegionCarver::new();
        let mut out = Vec::new();
        carver.advance(&spikes(chain), &slice, 0, cap + 8000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].start, out[0].samples.len()), (0, cap));
        carver.finish(&slice, 0, slice.len(), &mut out);
        assert_eq!(out[1].start, reopen - 64);
    }
}
