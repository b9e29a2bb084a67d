//! Helpers shared by the multi-tenant integration suites: a deterministic
//! program generator and the checksum discipline its bodies use.
//!
//! Everything here derives from a per-run seed, so a CI failure reproduces
//! locally from the seed printed in the assertion.

#![allow(dead_code)] // not every suite uses every helper

use std::sync::Arc;
use tflux_core::prelude::*;

/// The mixing function behind every `FaultPlan` decision, reused for
/// program generation and body checksums.
pub use tflux_core::rng::mix;

/// Tiny deterministic generator for program shapes. (A counter fed
/// through [`mix`], not the `SplitMix64` stream: the shapes each chaos
/// seed has always produced depend on it.)
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The pure per-instance key the checksum bodies fold.
pub fn instance_key(i: Instance) -> u64 {
    ((i.thread.0 as u64) << 32) | i.context.0 as u64
}

/// Generate a layered program: 1–2 blocks, each 1–3 layers of 1–6-wide
/// loop threads, consecutive layers joined all-to-all. Returns the program
/// and its application threads with their arities.
pub fn build_program(rng: &mut Rng) -> (Arc<DdmProgram>, Vec<(ThreadId, u32)>) {
    let mut b = ProgramBuilder::new();
    let mut app = Vec::new();
    let blocks = 1 + rng.below(2);
    for bi in 0..blocks {
        let blk = b.block();
        let layers = 1 + rng.below(3);
        let mut prev: Option<ThreadId> = None;
        for li in 0..layers {
            let arity = 1 + rng.below(6) as u32;
            let t = b.thread(blk, ThreadSpec::new(format!("b{bi}l{li}"), arity));
            if let Some(p) = prev {
                b.arc(p, t, ArcMapping::All).unwrap();
            }
            app.push((t, arity));
            prev = Some(t);
        }
    }
    (Arc::new(b.build().unwrap()), app)
}

/// The checksum a fault-free run of `app` must produce.
pub fn expected_checksum(app: &[(ThreadId, u32)]) -> u64 {
    app.iter()
        .flat_map(|&(t, arity)| {
            (0..arity).map(move |c| mix(instance_key(Instance::new(t, Context(c)))))
        })
        .fold(0u64, u64::wrapping_add)
}

/// How many seeds the chaos matrices sweep: `CHAOS_SEEDS` from the
/// environment, defaulting to 200 (the CI gate).
pub fn chaos_seeds() -> u64 {
    std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(200)
}
