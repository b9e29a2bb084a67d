//! Multi-tenant scale suite: hundreds of simultaneous DDM programs pushed
//! through one [`ProgramServer`] by concurrent submitters, with seeded
//! [`FaultPlan`]s targeting a known subset of them.
//!
//! The isolation contract under test: faults injected into K seeded
//! programs fail *exactly* those K — each with the correct per-program
//! typed [`RuntimeError`] naming the injected instance — while every other
//! co-resident program runs to a bit-correct result on the same kernel
//! pool. No cross-tenant contamination, no starvation, no hangs.

mod common;

use common::{build_program, expected_checksum, instance_key, mix, Rng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tflux_core::prelude::*;
use tflux_runtime::{
    BodyTable, FaultPlan, ProgramServer, RuntimeError, ServerConfig, Submission, Submit,
};

/// One program for the matrix: its submission (bodies fold a pure function
/// of each instance into a checksum), the checksum cell, the checksum a
/// fault-free run must produce, and — for seeded-faulty programs — the
/// instance whose body the plan panics.
fn make_submission(idx: u64, faulty: bool) -> (Submission, Arc<AtomicU64>, u64, Option<Instance>) {
    let mut rng = Rng(mix(idx));
    let (program, app) = build_program(&mut rng);

    let checksum = Arc::new(AtomicU64::new(0));
    let mut bodies = BodyTable::new(&program);
    for &(t, _) in &app {
        let checksum = Arc::clone(&checksum);
        bodies.set(t, move |c| {
            checksum.fetch_add(mix(instance_key(c.instance)), Ordering::Relaxed);
        });
    }
    let expected = expected_checksum(&app);

    // every tenant gets benign fault pressure (delays, stalls, late block
    // transitions, a jittery supervisor that misses rings); only the
    // seeded-faulty subset gets a targeted panic
    let target = faulty.then(|| {
        let (t, arity) = app[rng.below(app.len() as u64) as usize];
        Instance::new(t, Context(rng.below(arity as u64) as u32))
    });
    let mut plan = FaultPlan::new(mix(idx ^ 0x00FA_CADE))
        .body_delay(rng.below(150) as u32, Duration::from_micros(50))
        .kernel_stall(rng.below(80) as u32, Duration::from_micros(100))
        .transition_delay(rng.below(150) as u32, Duration::from_micros(30))
        .drain_jitter(rng.below(100) as u32, Duration::from_micros(50))
        .dropped_bell(rng.below(300) as u32);
    if let Some(t) = target {
        plan = plan.panic_at(t);
    }

    let sub = Submission::new(program, bodies)
        .faults(plan)
        .weight(1 + (idx % 3) as u32);
    (sub, checksum, expected, target)
}

#[test]
fn hundreds_of_programs_fault_exactly_the_seeded_subset() {
    const PROGRAMS: u64 = 300;
    const FAULT_EVERY: u64 = 5; // K = 60 seeded-faulty programs
    const SUBMITTERS: u64 = 6;

    let server = ProgramServer::start(
        ServerConfig::with_kernels(4)
            .max_resident(16)
            .queue_depth(32)
            .watchdog(Duration::from_secs(10)),
    );

    let (ok_total, faulted_total) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = &server;
                s.spawn(move || {
                    // submit this stripe of the matrix, then collect it;
                    // Submit::Block applies backpressure when the queue
                    // fills, so submitters interleave with drains
                    let mut outcomes = Vec::new();
                    for idx in (t..PROGRAMS).step_by(SUBMITTERS as usize) {
                        let faulty = idx % FAULT_EVERY == 0;
                        let (sub, checksum, expected, target) = make_submission(idx, faulty);
                        let adm = server.submit(sub, Submit::Block).unwrap();
                        outcomes.push((idx, adm, checksum, expected, target));
                    }
                    let (mut ok, mut faulted) = (0u64, 0u64);
                    for (idx, adm, checksum, expected, target) in outcomes {
                        match (adm.wait(), target) {
                            // clean program: bit-correct, fully completed
                            (Ok(report), None) => {
                                ok += 1;
                                assert_eq!(
                                    checksum.load(Ordering::Relaxed),
                                    expected,
                                    "program {idx}: clean tenant computed a wrong result"
                                );
                                assert_ne!(report.executed, 0, "program {idx} starved");
                            }
                            // seeded-faulty program: the typed error names
                            // exactly the injected instance, and the
                            // checksum is missing exactly its contribution
                            (Err(RuntimeError::BodyPanicked { panics }), Some(hit)) => {
                                faulted += 1;
                                assert_eq!(
                                    panics.len(),
                                    1,
                                    "program {idx}: expected exactly the injected panic"
                                );
                                assert_eq!(panics[0].instance, hit, "program {idx}");
                                assert_eq!(
                                    checksum.load(Ordering::Relaxed),
                                    expected.wrapping_sub(mix(instance_key(hit))),
                                    "program {idx}: faulty tenant's surviving bodies corrupted"
                                );
                            }
                            (res, target) => panic!(
                                "program {idx}: wrong outcome (ok={}, seeded fault={})",
                                res.is_ok(),
                                target.is_some()
                            ),
                        }
                    }
                    (ok, faulted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |(a, b), (c, d)| (a + c, b + d))
    });

    let k = PROGRAMS.div_ceil(FAULT_EVERY);
    assert_eq!(faulted_total, k, "exactly the seeded subset must fault");
    assert_eq!(ok_total, PROGRAMS - k, "every other program must succeed");
    assert_eq!(server.resident(), 0, "arenas leaked past completion");
    assert_eq!(server.queued(), 0);
    server.shutdown();
}

#[test]
fn seeded_faults_replay_identically_through_the_server() {
    // same seed, same program, two server runs: the same instances panic —
    // a CI failure in the matrix above reproduces locally from its index
    for seed in [3u64, 11, 29] {
        let outcomes: Vec<Vec<(u32, u32)>> = (0..2)
            .map(|_| {
                let mut rng = Rng(mix(seed));
                let (program, app) = build_program(&mut rng);
                let mut bodies = BodyTable::new(&program);
                for &(t, _) in &app {
                    bodies.set(t, |_| {});
                }
                let plan = FaultPlan::new(seed).body_panic(250);
                let server = ProgramServer::start(ServerConfig::with_kernels(2));
                let adm = server
                    .submit(Submission::new(program, bodies).faults(plan), Submit::Block)
                    .unwrap();
                let v = match adm.wait() {
                    Ok(_) => Vec::new(),
                    Err(RuntimeError::BodyPanicked { panics }) => {
                        let mut v: Vec<(u32, u32)> = panics
                            .iter()
                            .map(|bp| (bp.instance.thread.0, bp.instance.context.0))
                            .collect();
                        v.sort_unstable();
                        v
                    }
                    Err(other) => panic!("seed {seed}: untyped/unexpected failure: {other}"),
                };
                server.shutdown();
                v
            })
            .collect();
        assert_eq!(
            outcomes[0], outcomes[1],
            "seed {seed}: two runs of the same plan diverged"
        );
    }
}
