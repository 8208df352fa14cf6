//! Deterministic fan-out of independent decode work across threads.
//!
//! Collision decoding is embarrassingly parallel across *work units* —
//! receive buffers from distinct clients/APs, matched collision pairs,
//! Monte-Carlo rounds — and strictly sequential within one (the receiver
//! FSM carries state between a client's buffers). A [`BatchEngine`] fans
//! a slice of units across a scoped thread pool and returns outputs in
//! input order.
//!
//! **Determinism.** Results are written by unit index, every unit's RNG is
//! seeded from [`unit_seed`] (a function of the base seed and the unit
//! index only), and no state is shared between units — so the output is
//! bit-for-bit identical for any thread count, including 1. The
//! multi-thread-equals-single-thread test in `tests/engine.rs` pins this.

use crate::config::{ClientRegistry, DecoderConfig};
use crate::engine::stage::{Pipeline, ReceiverCore};
use crate::receiver::ReceiverEvent;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use zigzag_phy::complex::Complex;

/// A scoped worker pool for independent work units.
#[derive(Clone, Copy, Debug)]
pub struct BatchEngine {
    threads: usize,
}

impl BatchEngine {
    /// An engine with `threads` workers; `0` means one worker per
    /// available CPU.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// The single-threaded engine (runs units inline, in order).
    pub fn single_threaded() -> Self {
        Self { threads: 1 }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, fanning across the pool. Outputs are
    /// returned in input order; `f` receives `(index, &item)`.
    ///
    /// Work is distributed by an atomic cursor (dynamic load balancing:
    /// decode times vary wildly between clean buffers and deep zigzag
    /// decodes), which does not affect output order or content.
    pub fn map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        self.map_with(items, || (), |_, i, t| f(i, t))
    }

    /// [`Self::map`] with reusable worker-local state: `init` builds one
    /// `S` per worker thread, and `f` receives it mutably for every item
    /// that worker claims. This is how per-thread
    /// [`Scratch`](crate::engine::Scratch) arenas ride a fan-out without either
    /// sharing (they are `!Sync` by design) or re-allocating per item —
    /// e.g. the sharded receiver's parallel detect pre-pass.
    ///
    /// `f` must not let `S` carry information *between* items that
    /// changes outputs (scratch buffers are fine, accumulators are not),
    /// or determinism across thread counts is lost.
    pub fn map_with<T, O, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> O + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            let mut state = init();
            return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<O>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(items.len()) {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let out = f(&mut state, i, &items[i]);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every unit index was claimed by a worker")
            })
            .collect()
    }
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Deterministic per-unit RNG seed: a SplitMix64-style mix of the base
/// seed and the unit index. Use this (never a shared RNG) to seed
/// per-unit randomness so results are independent of scheduling.
pub fn unit_seed(base: u64, index: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independent receiver workload: a fresh [`ReceiverCore`] fed a
/// sequence of receive buffers (e.g. one client's or one AP's traffic).
#[derive(Clone, Debug)]
pub struct DecodeUnit {
    /// Receiver configuration.
    pub cfg: DecoderConfig,
    /// Association registry for this unit's receiver.
    pub registry: ClientRegistry,
    /// Receive buffers, processed in order through one receiver FSM.
    pub buffers: Vec<Vec<Complex>>,
}

/// Decodes every unit through a fresh [`ReceiverCore`] on the standard
/// pipeline, in parallel across units, returning each unit's
/// concatenated event stream in input order.
pub fn decode_batch(engine: &BatchEngine, units: &[DecodeUnit]) -> Vec<Vec<ReceiverEvent>> {
    let pipeline = Pipeline::standard();
    engine.map(units, |_, unit| {
        let mut core = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
        unit.buffers.iter().flat_map(|buffer| core.receive(&pipeline, buffer)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_indices() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7] {
            let engine = BatchEngine::new(threads);
            let out = engine.map(&items, |i, &v| {
                assert_eq!(i, v);
                v * 3
            });
            assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        assert!(BatchEngine::new(0).threads() >= 1);
        assert_eq!(BatchEngine::single_threaded().threads(), 1);
    }

    #[test]
    fn unit_seed_is_index_sensitive_and_stable() {
        let a = unit_seed(42, 0);
        let b = unit_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, unit_seed(42, 0));
        assert_ne!(unit_seed(42, 5), unit_seed(43, 5));
    }

    #[test]
    fn empty_batch_is_empty() {
        let engine = BatchEngine::new(4);
        let out: Vec<u32> = engine.map(&[] as &[u32], |_, &v| v);
        assert!(out.is_empty());
    }
}
