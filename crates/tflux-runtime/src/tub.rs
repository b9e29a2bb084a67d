//! The Thread-to-Update Buffer (TUB).
//!
//! §4.2 of the paper: when a DThread completes, its kernel publishes the
//! update into a shared buffer the TSU Emulator drains. Because every kernel
//! writes into the TUB, naive locking would serialize completions; TFlux
//! *partitions the TUB into segments* and kernels acquire "the first
//! available segment using try/lock, a non-blocking technique which locks an
//! entity only if it is available" — so a kernel stalls only when *every*
//! segment is busy.
//!
//! **Experiment-only.** No run path pushes here: kernels complete every
//! DThread themselves (`arena.rs`). What is left is what `figures -- tub`
//! (EXPERIMENTS.md S42) measures — the segmented `try_lock` publish against
//! a drainer, with its all-busy backoff.

use crate::sync::{lock, try_lock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tflux_core::ids::{Epoch, Instance};
use tflux_core::rng::mix;

/// Contention counters of a [`Tub`], as [`Tub::stats`] reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TubSnapshot {
    /// Completions published.
    pub pushes: u64,
    /// Segment `try_lock` attempts that found the segment busy.
    pub busy_hits: u64,
    /// Full passes over all segments that found every segment busy
    /// (the genuine stall case the segmentation is designed to avoid).
    pub full_spins: u64,
    /// Times a pushing kernel gave up spinning on an all-busy TUB and
    /// parked.
    pub parks: u64,
}

// How a pushing kernel degrades when *every* TUB segment stays busy.
//
// The paper's `try_lock` scheme assumes some segment frees up quickly; an
// all-segments-busy livelock would otherwise burn a core on `yield_now`.
// After `FULL_SPIN_LIMIT` full passes over the segments the kernel parks
// instead of bare-yielding, with bounded exponential backoff: the park
// starts at `PARK_NS`, doubles per further all-busy pass, and caps at
// `MAX_PARK_NS`, shortened by a deterministic per-pass jitter so colliding
// kernels do not re-collide in lockstep.
//
// Constants, not configuration: only a synthetic hammer (`figures -- tub`,
// the tests below) gets here, and no experiment has a schedule to vary.

/// Full all-busy passes to spin (with `yield_now`) before parking.
const FULL_SPIN_LIMIT: u32 = 16;
/// Park duration of the first parked pass, in nanoseconds.
const PARK_NS: u64 = 50_000;
/// Upper bound the doubling saturates at, in nanoseconds.
const MAX_PARK_NS: u64 = 2_000_000;
/// Seed of the per-pass jitter.
const JITTER_SEED: u64 = 0x7546_FB1C_55AB_10E5;

/// The park duration of the `parked_pass`-th all-busy pass past the spin
/// limit (0-based): `PARK_NS << parked_pass`, saturating at `MAX_PARK_NS`,
/// minus a jitter of up to half the grown value. Pure — the same pass
/// always parks the same duration.
fn park_duration(parked_pass: u32) -> Duration {
    // clamp the shift to keep `1 << shift` legal; saturating_mul absorbs
    // the multiplication overflow before the cap applies
    let grown = PARK_NS
        .saturating_mul(1u64 << parked_pass.min(63))
        .min(MAX_PARK_NS);
    let jitter = mix(JITTER_SEED ^ parked_pass as u64) % (grown / 2 + 1);
    Duration::from_nanos(grown - jitter)
}

/// The segmented Thread-to-Update Buffer.
pub struct Tub {
    segments: Vec<Mutex<Vec<(Instance, Epoch)>>>,
    /// Round-robin hint so kernels spread over segments.
    next: AtomicUsize,
    pushes: AtomicU64,
    busy_hits: AtomicU64,
    full_spins: AtomicU64,
    parks: AtomicU64,
}

impl Tub {
    /// A TUB with `segments` independently lockable segments (min 1).
    pub fn new(segments: usize) -> Self {
        let n = segments.max(1);
        Tub {
            segments: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            next: AtomicUsize::new(0),
            pushes: AtomicU64::new(0),
            busy_hits: AtomicU64::new(0),
            full_spins: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Contention counters so far.
    pub fn stats(&self) -> TubSnapshot {
        TubSnapshot {
            pushes: self.pushes.load(Ordering::Relaxed),
            busy_hits: self.busy_hits.load(Ordering::Relaxed),
            full_spins: self.full_spins.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }

    /// Publish a completed instance with the epoch token it was fetched
    /// under: lock the first available segment via `try_lock`, spinning
    /// over segments until one is free.
    pub fn push(&self, inst: Instance, epoch: Epoch) {
        self.pushes.fetch_add(1, Ordering::Relaxed);
        let n = self.segments.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let mut offset = 0usize;
        let mut all_busy_passes = 0u32;
        loop {
            let idx = (start + offset) % n;
            if let Some(mut seg) = try_lock(&self.segments[idx]) {
                seg.push((inst, epoch));
                break;
            }
            self.busy_hits.fetch_add(1, Ordering::Relaxed);
            offset += 1;
            if offset.is_multiple_of(n) {
                // every segment busy: yield while under the spin limit,
                // then degrade to exponentially growing, jittered parks
                // (bounded livelock, desynchronized retries)
                self.full_spins.fetch_add(1, Ordering::Relaxed);
                all_busy_passes += 1;
                if all_busy_passes > FULL_SPIN_LIMIT {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    let parked_pass = all_busy_passes - FULL_SPIN_LIMIT - 1;
                    std::thread::park_timeout(park_duration(parked_pass));
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Drain every segment into `out`; returns the number of entries taken.
    pub fn drain_into(&self, out: &mut Vec<(Instance, Epoch)>) -> usize {
        let before = out.len();
        for seg in &self.segments {
            let mut seg = lock(seg);
            out.append(&mut seg);
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tflux_core::ids::{Context, Instance, ThreadId};

    const E0: Epoch = Epoch(0);

    fn inst(t: u32, c: u32) -> Instance {
        Instance::new(ThreadId(t), Context(c))
    }

    #[test]
    fn push_then_drain_roundtrips() {
        let tub = Tub::new(4);
        for i in 0..10 {
            tub.push(inst(i, 0), E0);
        }
        let mut out = Vec::new();
        assert_eq!(tub.drain_into(&mut out), 10);
        out.sort();
        assert_eq!(out, (0..10).map(|i| (inst(i, 0), E0)).collect::<Vec<_>>());
        // second drain finds nothing
        assert_eq!(tub.drain_into(&mut out), 0);
    }

    #[test]
    fn zero_segments_clamped() {
        let tub = Tub::new(0);
        assert_eq!(tub.segments(), 1);
        tub.push(inst(0, 0), E0);
        let mut out = Vec::new();
        assert_eq!(tub.drain_into(&mut out), 1);
    }

    #[test]
    fn concurrent_pushes_lose_nothing() {
        let tub = Arc::new(Tub::new(4));
        let threads = 8;
        let per = 500;
        std::thread::scope(|s| {
            for t in 0..threads {
                let tub = Arc::clone(&tub);
                s.spawn(move || {
                    for c in 0..per {
                        tub.push(inst(t, c), E0);
                    }
                });
            }
        });
        let mut out = Vec::new();
        tub.drain_into(&mut out);
        assert_eq!(out.len(), (threads * per) as usize);
        out.sort();
        out.dedup();
        assert_eq!(out.len(), (threads * per) as usize, "duplicate entries");
        assert_eq!(tub.stats().pushes, (threads * per) as u64);
    }

    #[test]
    fn drain_interleaved_with_pushes_sees_every_entry() {
        let tub = Arc::new(Tub::new(2));
        let total = 2000u32;
        let collected = std::thread::scope(|s| {
            let pusher = {
                let tub = Arc::clone(&tub);
                s.spawn(move || {
                    for c in 0..total {
                        tub.push(inst(1, c), E0);
                    }
                })
            };
            let mut got = Vec::new();
            while got.len() < total as usize {
                std::thread::yield_now();
                tub.drain_into(&mut got);
            }
            pusher.join().unwrap();
            got
        });
        assert_eq!(collected.len(), total as usize);
    }

    #[test]
    fn backoff_schedule_grows_doubles_and_caps() {
        let (park, max_park) = (
            Duration::from_nanos(PARK_NS),
            Duration::from_nanos(MAX_PARK_NS),
        );
        for pass in 0..80u32 {
            let d = park_duration(pass);
            // deterministic: the same pass always parks the same duration
            assert_eq!(d, park_duration(pass));
            // the un-jittered envelope is park << pass, capped at max_park;
            // jitter removes at most half, so d is in [envelope/2, envelope]
            let envelope = park.saturating_mul(1 << pass.min(16)).min(max_park);
            assert!(d <= envelope, "pass {pass}: {d:?} > {envelope:?}");
            assert!(
                d >= envelope / 2,
                "pass {pass}: {d:?} < half of {envelope:?}"
            );
        }
        // the envelope really grows before the cap: pass 3's floor exceeds
        // pass 0's ceiling
        assert!(park_duration(3) > park_duration(0));
        // and the jitter really varies once the cap flattens the envelope
        assert!((8..40).any(|p| park_duration(p) != park_duration(p + 1)));
    }

    #[test]
    fn single_segment_tub_still_works_under_contention() {
        let tub = Arc::new(Tub::new(1));
        std::thread::scope(|s| {
            for t in 0..4 {
                let tub = Arc::clone(&tub);
                s.spawn(move || {
                    for c in 0..200 {
                        tub.push(inst(t, c), E0);
                    }
                });
            }
        });
        let mut out = Vec::new();
        assert_eq!(tub.drain_into(&mut out), 800);
        let snap = tub.stats();
        assert_eq!(snap.pushes, 800);
        // parking only ever follows a counted all-busy pass
        assert!(snap.parks <= snap.full_spins);
    }
}
