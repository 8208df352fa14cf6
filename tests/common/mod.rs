//! Helpers shared by the integration tests that pin decode behaviour as
//! golden event digests.

use zigzag::core::receiver::{DecodePath, ReceiverEvent};

/// FNV-1a offset basis: the starting value of every digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, folded into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds one buffer's event sequence into `h`: the event count, then per
/// event its variant tag, and for a delivery its [`DecodePath`] tag and
/// the frame's length-prefixed MPDU bytes.
pub fn hash_events(h: &mut u64, events: &[ReceiverEvent]) {
    fnv1a(h, &(events.len() as u64).to_le_bytes());
    for e in events {
        match e {
            ReceiverEvent::Delivered { frame, path } => {
                let path_tag = match path {
                    DecodePath::Standard => 0,
                    DecodePath::Capture => 1,
                    DecodePath::InterferenceCancellation => 2,
                    DecodePath::Zigzag => 3,
                    DecodePath::MrcRetry => 4,
                    DecodePath::Recovered => 5,
                };
                fnv1a(h, &[0, path_tag]);
                let mpdu = frame.mpdu_bytes();
                fnv1a(h, &(mpdu.len() as u64).to_le_bytes());
                fnv1a(h, &mpdu);
            }
            ReceiverEvent::CollisionStored => fnv1a(h, &[1]),
            ReceiverEvent::DecodeFailed => fnv1a(h, &[2]),
        }
    }
}
