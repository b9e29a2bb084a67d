//! Fault-injection integration: the no-op injector is observationally free,
//! and a targeted `FaultPlan` drives panic retry end to end through the
//! umbrella crate's public API.

use std::sync::atomic::{AtomicU64, Ordering};
use tflux::core::prelude::*;
use tflux::runtime::{
    BodyTable, FaultCounts, FaultPlan, NoFaults, RetryPolicy, Runtime, RuntimeConfig,
};

fn fork_join(arity: u32) -> (DdmProgram, ThreadId, ThreadId) {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let src = b.thread(blk, ThreadSpec::scalar("src"));
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(src, work, ArcMapping::Broadcast).unwrap();
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    (b.build().unwrap(), work, sink)
}

fn sum_bodies<'a>(
    program: &DdmProgram,
    work: ThreadId,
    sink: ThreadId,
    acc: &'a AtomicU64,
    total: &'a AtomicU64,
) -> BodyTable<'a> {
    let mut bodies = BodyTable::new(program);
    bodies.set(work, move |c| {
        acc.fetch_add((c.context.0 as u64 + 1).pow(2), Ordering::Relaxed);
    });
    bodies.set(sink, move |_| {
        total.store(acc.load(Ordering::Relaxed), Ordering::Relaxed);
    });
    bodies
}

/// The deterministic counters a fault-free run must reproduce exactly,
/// whichever injector (or none) is threaded through.
fn deterministic_counters(r: &tflux::runtime::RunReport) -> (u64, u64, u64, u64, usize, u64, u64) {
    (
        r.tsu.completions,
        r.tsu.fetches,
        r.tsu.rc_updates,
        r.tsu.blocks_loaded,
        r.tsu.max_resident,
        r.tsu.epochs,
        r.total_executed(),
    )
}

#[test]
fn noop_injector_counters_match_plain_run() {
    let (program, work, sink) = fork_join(16);
    let runtime = Runtime::new(RuntimeConfig::with_kernels(3));
    let expected_sum: u64 = (1..=16u64).map(|i| i * i).sum();

    let mut reports = Vec::new();
    for variant in 0..3 {
        let acc = AtomicU64::new(0);
        let total = AtomicU64::new(0);
        let bodies = sum_bodies(&program, work, sink, &acc, &total);
        let report = match variant {
            0 => runtime.run(&program, &bodies).unwrap(),
            1 => runtime.run_with(&program, &bodies, &NoFaults).unwrap(),
            _ => {
                let zero_rate = FaultPlan::new(0);
                let r = runtime.run_with(&program, &bodies, &zero_rate).unwrap();
                assert_eq!(zero_rate.counts(), FaultCounts::default());
                r
            }
        };
        assert_eq!(total.load(Ordering::Relaxed), expected_sum);
        reports.push(deterministic_counters(&report));
    }
    assert_eq!(reports[0], reports[1], "run vs run_with(NoFaults)");
    assert_eq!(reports[0], reports[2], "run vs run_with(zero-rate plan)");
}

#[test]
fn targeted_panic_first_recovers_through_retry() {
    let (program, work, sink) = fork_join(8);
    let acc = AtomicU64::new(0);
    let total = AtomicU64::new(0);
    let mut bodies = sum_bodies(&program, work, sink, &acc, &total);
    bodies.mark_idempotent(work);

    // instance (work, 3) fails its first two attempts, then succeeds
    let victim = Instance::new(work, Context(3));
    let plan = FaultPlan::new(11).panic_first(victim, 2);
    let report = Runtime::new(RuntimeConfig::with_kernels(2).retry(RetryPolicy::attempts(3)))
        .run_with(&program, &bodies, &plan)
        .unwrap();

    // the injected panics fire before the body runs, so the sum is intact
    assert_eq!(
        total.load(Ordering::Relaxed),
        (1..=8u64).map(|i| i * i).sum()
    );
    assert_eq!(report.kernels.iter().map(|k| k.retries).sum::<u64>(), 2);
    assert_eq!(plan.counts().body_panics, 2);
    assert_eq!(report.tsu.completions as usize, program.total_instances());
}
