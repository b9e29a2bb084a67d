//! Helpers shared by the multi-tenant integration suites: programs drawn
//! from `tflux_core::random_program` and the checksum discipline their
//! bodies use.
//!
//! Everything here derives from a per-run seed, so a CI failure reproduces
//! locally from the seed printed in the assertion.

#![allow(dead_code)] // not every suite uses every helper

use std::sync::Arc;
use tflux_core::prelude::*;

use tflux_core::random_program;
/// The mixing function behind every `FaultPlan` decision, reused for
/// seeds and body checksums.
pub use tflux_core::{mix, SplitMix64};

/// The pure per-instance key the checksum bodies fold.
pub fn instance_key(i: Instance) -> u64 {
    ((i.thread.0 as u64) << 32) | i.context.0 as u64
}

/// Draw a tenant's program from the shared generator at its smallest size
/// (one kernel's worth of arity). Returns the program and its application
/// threads with their arities.
pub fn generated(rng: &mut SplitMix64) -> (Arc<DdmProgram>, Vec<(ThreadId, u32)>) {
    let p = random_program(rng, 1);
    let app = (0..p.threads().len() as u32)
        .map(ThreadId)
        .filter(|&t| p.thread(t).kind == ThreadKind::App)
        .map(|t| (t, p.thread(t).arity))
        .collect();
    (Arc::new(p), app)
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
