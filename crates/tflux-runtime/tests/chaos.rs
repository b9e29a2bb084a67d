//! Chaos property suite: randomly generated DDM programs × seeded fault
//! plans.
//!
//! The contract under test: whatever a deterministic [`FaultPlan`] throws
//! at the runtime — injected body panics, delays, kernel stalls, late block
//! transitions, lost supervisor wakeups, supervisor jitter — every run either
//! finishes with the correct result or returns a *typed*
//! [`RuntimeError`], within the watchdog bound. No hangs, no silent
//! corruption, no unwinding out of `Runtime::run_with`.
//!
//! Both the programs and the fault plans derive from a per-run seed, so a
//! CI failure reproduces locally from the seed printed in the assertion.
//! The matrix width honours the `CHAOS_SEEDS` environment variable
//! (default 200), so CI can widen the sweep without a recompile.

mod common;

use common::{build_program, chaos_seeds, expected_checksum, instance_key, mix, Rng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tflux_core::prelude::*;
use tflux_runtime::{BodyTable, FaultPlan, RetryPolicy, Runtime, RuntimeConfig, RuntimeError};

#[test]
fn chaos_matrix_never_hangs_and_never_lies() {
    const WATCHDOG: Duration = Duration::from_secs(5);
    let runs = chaos_seeds();
    let mut ok_runs = 0u64;
    let mut panicked_runs = 0u64;

    for seed in 0..runs {
        let mut rng = Rng(mix(seed));
        let (program, app) = build_program(&mut rng);

        // alternate stealing and retry regimes across the matrix
        let kernels = 1 + rng.below(3) as u32;
        let steal = seed % 2 != 0;
        let with_retry = seed % 4 >= 2;
        let retry = if with_retry {
            RetryPolicy::attempts(3)
        } else {
            RetryPolicy::default()
        };

        // half the runs are panic-free so the suite also proves the benign
        // fault sites (delays, jitter, lost bells) never corrupt a result
        let panic_rate = if seed % 2 == 0 {
            0
        } else {
            10 + rng.below(70) as u32
        };
        let plan = FaultPlan::new(mix(seed ^ 0xC0FFEE))
            .body_panic(panic_rate)
            .body_delay(rng.below(300) as u32, Duration::from_micros(100))
            .kernel_stall(rng.below(200) as u32, Duration::from_micros(200))
            .transition_delay(rng.below(200) as u32, Duration::from_micros(50))
            .drain_jitter(rng.below(200) as u32, Duration::from_micros(100))
            .dropped_bell(rng.below(400) as u32);

        // every body folds a pure function of its instance into a checksum;
        // a made-up or double-counted completion would show up here.
        // Injected panics fire *before* the body runs, so a retried attempt
        // contributes exactly once on success — the bodies are honestly
        // idempotent.
        let checksum = AtomicU64::new(0);
        let mut bodies = BodyTable::new(&program);
        for &(t, _) in &app {
            let checksum = &checksum;
            bodies.set(t, move |c| {
                checksum.fetch_add(mix(instance_key(c.instance)), Ordering::Relaxed);
            });
            if with_retry {
                bodies.mark_idempotent(t);
            }
        }
        let expected = expected_checksum(&app);

        let config = RuntimeConfig::with_kernels(kernels)
            .tsu(TsuConfig {
                steal,
                ..Default::default()
            })
            .retry(retry)
            .watchdog(WATCHDOG);

        let start = Instant::now();
        let result = Runtime::new(config).run_with(&program, &bodies, &plan);
        let elapsed = start.elapsed();
        assert!(
            elapsed < WATCHDOG + Duration::from_secs(5),
            "seed {seed}: run exceeded the watchdog bound ({elapsed:?})"
        );

        match result {
            Ok(report) => {
                ok_runs += 1;
                assert_eq!(
                    checksum.load(Ordering::Relaxed),
                    expected,
                    "seed {seed}: completed run computed a wrong result"
                );
                assert_eq!(
                    report.tsu.completions as usize,
                    program.total_instances(),
                    "seed {seed}: completion count off"
                );
            }
            Err(RuntimeError::BodyPanicked { panics }) => {
                panicked_runs += 1;
                assert!(!panics.is_empty(), "seed {seed}: empty panic report");
            }
            Err(other) => panic!("seed {seed}: untyped/unexpected failure: {other}"),
        }
    }

    // the matrix must exercise both outcomes, not collapse into one
    // (a tiny CHAOS_SEEDS sweep may legitimately see no panics)
    assert!(ok_runs > runs / 4, "only {ok_runs}/{runs} runs succeeded");
    assert!(
        runs < 20 || panicked_runs > 0,
        "no run panicked despite injected panic rates"
    );
}

#[test]
fn fault_plan_replays_identically() {
    // same seed, same program, two runs: the same instances panic
    for seed in [1u64, 7, 42] {
        let outcomes: Vec<Vec<(u32, u32)>> = (0..2)
            .map(|_| {
                let mut b = ProgramBuilder::new();
                let blk = b.block();
                let _w = b.thread(blk, ThreadSpec::new("w", 24));
                let p = b.build().unwrap();
                let bodies = BodyTable::new(&p);
                let plan = FaultPlan::new(seed).body_panic(150);
                match Runtime::new(RuntimeConfig::with_kernels(2)).run_with(&p, &bodies, &plan) {
                    Ok(_) => Vec::new(),
                    Err(RuntimeError::BodyPanicked { panics }) => {
                        let mut v: Vec<(u32, u32)> = panics
                            .iter()
                            .map(|bp| (bp.instance.thread.0, bp.instance.context.0))
                            .collect();
                        v.sort_unstable();
                        v
                    }
                    Err(other) => panic!("seed {seed}: {other}"),
                }
            })
            .collect();
        assert_eq!(
            outcomes[0], outcomes[1],
            "seed {seed}: two runs of the same plan diverged"
        );
    }
}

#[test]
fn poisoned_producer_yields_forensic_stall_report() {
    // A consumer whose producer panics until its retries are exhausted and
    // is then poisoned: the program genuinely deadlocks, the watchdog
    // fires, and the report must name the stuck consumer and its remaining
    // ready count.
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let src = b.thread(blk, ThreadSpec::scalar("src"));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(src, sink, ArcMapping::All).unwrap();
    let program = b.build().unwrap();

    let mut bodies = BodyTable::new(&program);
    bodies.set_idempotent(src, |_| panic!("producer keeps failing"));

    let config = RuntimeConfig::with_kernels(2)
        .retry(RetryPolicy::attempts(2).poison_on_exhaust(true))
        .watchdog(Duration::from_millis(100));
    let err = Runtime::new(config).run(&program, &bodies).unwrap_err();

    let report = match err {
        RuntimeError::Stalled { report } => report,
        other => panic!("expected a stall, got {other}"),
    };
    let sink_inst = Instance::scalar(sink);
    let src_inst = Instance::scalar(src);

    // the stuck consumer, with its remaining ready count
    let sink_row = report
        .waiting
        .iter()
        .find(|w| w.instance == sink_inst)
        .unwrap_or_else(|| panic!("sink not in waiting set: {report}"));
    assert_eq!(sink_row.remaining, 1);
    // the poisoned producer never completed: dispatched, still in flight
    assert!(
        report.in_flight.iter().any(|f| f.instance == src_inst),
        "poisoned producer not in flight: {report}"
    );
    // the panic record shows both attempts were consumed
    assert_eq!(report.panics.len(), 1);
    assert_eq!(report.panics[0].instance, src_inst);
    assert_eq!(report.panics[0].attempts, 2);
    // exactly one instance was poisoned, and the counters say so
    let poisoned: u64 = report.kernels.iter().map(|k| k.poisoned).sum();
    assert_eq!(poisoned, 1);
    // the pretty-printer names the stuck instance for humans
    let text = format!("{report}");
    assert!(text.contains(&format!("{sink_inst}")), "{text}");
    assert!(text.contains("needs 1 more completion"), "{text}");
}
