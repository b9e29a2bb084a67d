//! Server chaos suite: seeded multi-tenant fault matrices against the
//! [`ProgramServer`].
//!
//! Four gates:
//! * the **chaos matrix** — per seed, a handful of generated programs with
//!   mixed fault sites share one pool; every tenant either completes
//!   bit-correct or returns its own typed error, never a neighbour's;
//! * the **poison regression** — a poisoned Synchronization Memory shard
//!   in one tenant never surfaces [`CoreError::SmPoisoned`] to any other
//!   tenant;
//! * the **leak regression** — 1000 admit/evict cycles (clean, panicked,
//!   and poisoned evictions) leave no arena resident;
//! * the **overload gate** — a saturated admission queue sheds load with a
//!   structured error, and no tenant the server *did* admit starves.
//!
//! The seed count honours `CHAOS_SEEDS` (default 200), so CI can sweep a
//! wide matrix in `--release` while local runs stay quick with
//! `CHAOS_SEEDS=20`.

mod common;

use common::{chaos_seeds, expected_checksum, generated, instance_key, mix, SplitMix64};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tflux_core::prelude::*;
use tflux_core::CoreError;
use tflux_runtime::{
    BodyTable, FaultPlan, ProgramServer, RuntimeError, ServerConfig, Submission, Submit,
};

/// A single flat loop thread of the given arity — the smallest useful
/// tenant, used where the *server* and not the program is under test.
fn flat_program(arity: u32) -> (Arc<DdmProgram>, ThreadId) {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let t = b.thread(blk, ThreadSpec::new("w", arity));
    (Arc::new(b.build().unwrap()), t)
}

/// A generated checksum tenant: submission, checksum cell, expected value,
/// and the set of its application threads (for panic filtering).
fn checksum_tenant(seed: u64, plan: FaultPlan) -> (Submission, Arc<AtomicU64>, u64, HashSet<u32>) {
    let mut rng = SplitMix64(mix(seed));
    let (program, app) = generated(&mut rng);
    let checksum = Arc::new(AtomicU64::new(0));
    let mut bodies = BodyTable::new(&program);
    for &(t, _) in &app {
        let checksum = Arc::clone(&checksum);
        bodies.set(t, move |c| {
            checksum.fetch_add(mix(instance_key(c.instance)), Ordering::Relaxed);
        });
    }
    let expected = expected_checksum(&app);
    let app_threads: HashSet<u32> = app.iter().map(|&(t, _)| t.0).collect();
    (
        Submission::new(program, bodies).faults(plan),
        checksum,
        expected,
        app_threads,
    )
}

#[test]
fn chaos_matrix_isolates_every_fault_to_its_tenant() {
    const TENANTS: u64 = 6;
    let seeds = chaos_seeds();
    let mut ok_tenants = 0u64;
    let mut panicked_tenants = 0u64;

    for seed in 0..seeds {
        let mut rng = SplitMix64(mix(seed ^ 0x5EED));
        let kernels = 2 + rng.below(3) as u32;
        let server = ProgramServer::start(
            ServerConfig::with_kernels(kernels)
                .max_resident(4)
                .queue_depth(16)
                .watchdog(Duration::from_secs(5)),
        );

        // half the tenants are panic-free so every matrix cell also proves
        // the benign fault sites never corrupt a co-resident result
        let mut waits = Vec::new();
        for t in 0..TENANTS {
            let panic_rate = if t % 2 == 0 {
                0
            } else {
                10 + rng.below(70) as u32
            };
            let plan = FaultPlan::new(mix(seed.wrapping_mul(31).wrapping_add(t)))
                .body_panic(panic_rate)
                .body_delay(rng.below(300) as u32, Duration::from_micros(100))
                .kernel_stall(rng.below(200) as u32, Duration::from_micros(200))
                .transition_delay(rng.below(200) as u32, Duration::from_micros(50))
                .drain_jitter(rng.below(200) as u32, Duration::from_micros(100))
                .dropped_bell(rng.below(400) as u32);
            let (sub, checksum, expected, app_threads) =
                checksum_tenant(seed.wrapping_mul(131).wrapping_add(t), plan);
            let adm = server
                .submit(sub.weight(1 + (t % 3) as u32), Submit::Block)
                .unwrap();
            waits.push((t, adm, checksum, expected, app_threads));
        }

        for (t, adm, checksum, expected, app_threads) in waits {
            match adm.wait() {
                Ok(_) => {
                    ok_tenants += 1;
                    assert_eq!(
                        checksum.load(Ordering::Relaxed),
                        expected,
                        "seed {seed} tenant {t}: completed tenant computed a wrong result"
                    );
                }
                Err(RuntimeError::BodyPanicked { panics }) => {
                    panicked_tenants += 1;
                    assert!(
                        !panics.is_empty(),
                        "seed {seed} tenant {t}: empty panic report"
                    );
                    // the surviving bodies are bit-correct: the checksum is
                    // missing exactly the panicked app instances, no more
                    let missing: u64 = panics
                        .iter()
                        .filter(|bp| app_threads.contains(&bp.instance.thread.0))
                        .map(|bp| mix(instance_key(bp.instance)))
                        .fold(0u64, u64::wrapping_add);
                    assert_eq!(
                        checksum.load(Ordering::Relaxed),
                        expected.wrapping_sub(missing),
                        "seed {seed} tenant {t}: panic eviction corrupted surviving bodies"
                    );
                }
                Err(other) => {
                    panic!("seed {seed} tenant {t}: untyped/unexpected failure: {other}")
                }
            }
        }
        assert_eq!(server.resident(), 0, "seed {seed}: arenas leaked");
        server.shutdown();
    }

    // the matrix must exercise both outcomes, not collapse into one
    // (a tiny CHAOS_SEEDS sweep may legitimately see no panics)
    assert!(ok_tenants > seeds, "only {ok_tenants} tenants succeeded");
    assert!(
        seeds < 20 || panicked_tenants > 0,
        "no tenant panicked despite injected panic rates"
    );
}

#[test]
fn epoch_stress_streams_survive_mid_stream_faults() {
    const EPOCHS: u64 = 4;
    const TENANTS: u64 = 5;
    let seeds = chaos_seeds();
    let mut clean_streams = 0u64;
    let mut evicted_streams = 0u64;

    for seed in 0..seeds {
        let mut rng = SplitMix64(mix(seed ^ 0xE90C));
        let kernels = 2 + rng.below(3) as u32;
        let server = ProgramServer::start(
            ServerConfig::with_kernels(kernels)
                .max_resident(4)
                .queue_depth(16)
                .tsu(TsuConfig {
                    window: 2,
                    ..Default::default()
                })
                .watchdog(Duration::from_secs(5)),
        );

        // every tenant is a stream under benign mid-stream chaos (delays
        // and stalls landing in arbitrary epochs); one in three also
        // panics mid-stream and must be evicted with its epoch ledger
        // closed while the surviving streams keep wrapping cleanly
        let mut waits = Vec::new();
        for t in 0..TENANTS {
            let panic_rate = if t % 3 == 2 {
                5 + rng.below(40) as u32
            } else {
                0
            };
            let plan = FaultPlan::new(mix(seed.wrapping_mul(77).wrapping_add(t)))
                .body_panic(panic_rate)
                .body_delay(rng.below(300) as u32, Duration::from_micros(100))
                .kernel_stall(rng.below(200) as u32, Duration::from_micros(200))
                .transition_delay(rng.below(200) as u32, Duration::from_micros(50))
                .drain_jitter(rng.below(200) as u32, Duration::from_micros(100))
                .dropped_bell(rng.below(400) as u32);
            let (sub, checksum, expected, _) =
                checksum_tenant(seed.wrapping_mul(513).wrapping_add(t), plan);
            let adm = server.submit(sub.stream(EPOCHS), Submit::Block).unwrap();
            waits.push((t, adm, checksum, expected));
        }

        for (t, adm, checksum, expected) in waits {
            match adm.wait() {
                Ok(report) => {
                    clean_streams += 1;
                    assert_eq!(
                        report.tsu.epochs, EPOCHS,
                        "seed {seed} tenant {t}: stream stopped short of its epochs"
                    );
                    // every epoch replayed every body exactly once: the
                    // checksum is EPOCHS identical passes, no cross-epoch
                    // duplication or loss
                    assert_eq!(
                        checksum.load(Ordering::Relaxed),
                        expected.wrapping_mul(EPOCHS),
                        "seed {seed} tenant {t}: streamed checksum diverged"
                    );
                }
                Err(RuntimeError::BodyPanicked { panics }) => {
                    evicted_streams += 1;
                    assert!(
                        !panics.is_empty(),
                        "seed {seed} tenant {t}: empty panic report"
                    );
                }
                Err(other) => {
                    panic!("seed {seed} tenant {t}: untyped mid-stream failure: {other}")
                }
            }
        }
        assert_eq!(server.resident(), 0, "seed {seed}: streamed arenas leaked");
        server.shutdown();
    }

    assert!(clean_streams > 0, "no stream ever completed");
    assert!(
        seeds < 20 || evicted_streams > 0,
        "no stream was ever evicted despite injected panic rates"
    );
}

#[test]
fn poisoned_shard_never_surfaces_to_another_tenant() {
    const ROUNDS: u32 = 25;
    for round in 0..ROUNDS {
        let server = ProgramServer::start(
            ServerConfig::with_kernels(3)
                .max_resident(8)
                .watchdog(Duration::from_secs(5)),
        );

        // the victim runs long enough for the poison to land mid-flight
        let (p, w) = flat_program(16);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |_| std::thread::sleep(Duration::from_millis(20)));
        let victim = server
            .submit(Submission::new(p, bodies), Submit::Block)
            .unwrap();
        let victim_id = victim.id();

        // co-residents: clean checksum tenants plus one with its own,
        // *different* fault (a body panic) — its error must stay its own
        let mut clean = Vec::new();
        for t in 0..4u64 {
            let (sub, checksum, expected, _) =
                checksum_tenant(round as u64 * 1000 + t, FaultPlan::default());
            clean.push((
                server.submit(sub, Submit::Block).unwrap(),
                checksum,
                expected,
            ));
        }
        let (p, w) = flat_program(8);
        let mut bodies = BodyTable::new(&p);
        bodies.set(w, |c| {
            if c.context.0 == 2 {
                panic!("own fault");
            }
        });
        let panicky = server
            .submit(Submission::new(p, bodies), Submit::Block)
            .unwrap();

        // poison the victim's Synchronization Memory while it is resident
        while !server.poison(victim_id) {
            std::thread::yield_now();
        }

        match victim.wait() {
            Err(RuntimeError::Protocol(CoreError::SmPoisoned)) => {}
            other => panic!(
                "round {round}: victim must die of SmPoisoned, got ok={}",
                other.is_ok()
            ),
        }
        // the panicky neighbour fails with *its* fault, never the poison
        match panicky.wait() {
            Err(RuntimeError::BodyPanicked { panics }) => {
                assert!(panics[0].message.contains("own fault"));
            }
            Err(RuntimeError::Protocol(CoreError::SmPoisoned)) => {
                panic!("round {round}: poison leaked into another tenant")
            }
            other => panic!(
                "round {round}: neighbour lost its own error, ok={}",
                other.is_ok()
            ),
        }
        // clean neighbours are bit-correct
        for (adm, checksum, expected) in clean {
            match adm.wait() {
                Ok(_) => assert_eq!(
                    checksum.load(Ordering::Relaxed),
                    expected,
                    "round {round}: poison perturbed a clean tenant"
                ),
                Err(e) => panic!("round {round}: clean tenant failed: {e}"),
            }
        }
        server.shutdown();
    }
}

#[test]
fn eviction_frees_the_arena_across_1000_cycles() {
    const CYCLES: u64 = 1000;
    let server = ProgramServer::start(
        ServerConfig::with_kernels(2)
            .max_resident(2)
            .watchdog(Duration::from_secs(5)),
    );
    for cycle in 0..CYCLES {
        let id = if cycle % 50 == 7 {
            // poisoned eviction
            let (p, w) = flat_program(4);
            let mut bodies = BodyTable::new(&p);
            bodies.set(w, |_| std::thread::sleep(Duration::from_millis(5)));
            let adm = server
                .submit(Submission::new(p, bodies), Submit::Block)
                .unwrap();
            let id = adm.id();
            while !server.poison(id) {
                std::thread::yield_now();
            }
            match adm.wait() {
                Err(RuntimeError::Protocol(CoreError::SmPoisoned)) => {}
                other => panic!("cycle {cycle}: expected SmPoisoned, ok={}", other.is_ok()),
            }
            id
        } else if cycle % 3 == 0 {
            // panic eviction
            let (p, w) = flat_program(2);
            let mut bodies = BodyTable::new(&p);
            bodies.set(w, |_| panic!("cycle fault"));
            let adm = server
                .submit(Submission::new(p, bodies), Submit::Block)
                .unwrap();
            let id = adm.id();
            match adm.wait() {
                Err(RuntimeError::BodyPanicked { panics }) => assert_eq!(panics.len(), 2),
                other => panic!("cycle {cycle}: expected BodyPanicked, ok={}", other.is_ok()),
            }
            id
        } else {
            // clean completion
            let (p, w) = flat_program(2);
            let hits = Arc::new(AtomicU64::new(0));
            let mut bodies = BodyTable::new(&p);
            {
                let hits = Arc::clone(&hits);
                bodies.set(w, move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            let adm = server
                .submit(Submission::new(p, bodies), Submit::Block)
                .unwrap();
            let id = adm.id();
            adm.wait().unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
            assert_eq!(hits.load(Ordering::Relaxed), 2, "cycle {cycle}");
            id
        };
        // the arena is gone: the evicted/finished id is no longer resident
        assert!(
            !server.poison(id),
            "cycle {cycle}: arena survived its eviction"
        );
    }
    assert_eq!(server.resident(), 0, "arenas leaked across cycles");
    assert_eq!(server.queued(), 0);
    // the server is still healthy after 1000 evictions
    let (p, w) = flat_program(4);
    let hits = Arc::new(AtomicU64::new(0));
    let mut bodies = BodyTable::new(&p);
    {
        let hits = Arc::clone(&hits);
        bodies.set(w, move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    let adm = server
        .submit(Submission::new(p, bodies), Submit::Block)
        .unwrap();
    adm.wait().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 4);
    server.shutdown();
}

#[test]
fn overload_sheds_structured_errors_and_admitted_tenants_never_starve() {
    const OFFERED: u64 = 120;
    let server = ProgramServer::start(
        ServerConfig::with_kernels(2)
            .max_resident(4)
            .queue_depth(8)
            .watchdog(Duration::from_secs(5)),
    );
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..OFFERED {
        // slow enough that submission outpaces draining and the queue fills
        let (p, w) = flat_program(4);
        let hits = Arc::new(AtomicU64::new(0));
        let mut bodies = BodyTable::new(&p);
        {
            let hits = Arc::clone(&hits);
            bodies.set(w, move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            });
        }
        match server.submit(Submission::new(p, bodies), Submit::Reject) {
            Ok(adm) => admitted.push((i, adm, hits)),
            // shedding is structured and non-destructive: the queue really
            // was full, and the caller may retry or back off
            Err(tflux_runtime::SubmitError::Overloaded { queued, limit, .. }) => {
                shed += 1;
                assert_eq!(limit, 8);
                assert!(queued >= limit, "shed below the configured bound");
            }
            Err(e) => panic!("offer {i}: unexpected submit error: {e}"),
        }
    }
    assert!(shed > 0, "the load never saturated the queue");
    assert!(!admitted.is_empty());
    // every admitted tenant runs to completion — backpressure must never
    // starve a program the server accepted
    for (i, adm, hits) in admitted {
        let report = adm.wait().unwrap_or_else(|e| panic!("offer {i}: {e}"));
        assert_ne!(report.executed, 0, "offer {i} starved");
        assert_eq!(hits.load(Ordering::Relaxed), 4, "offer {i} lost bodies");
    }
    server.shutdown();
}
