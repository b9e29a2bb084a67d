//! Quickstart: build a small DDM program and run it on the TFluxSoft
//! runtime.
//!
//! The program computes a sum of squares with a fork/join synchronization
//! graph: a loop DThread of 16 instances produces partial results, and a
//! scalar sink DThread reduces them once — and only once — every producer
//! has completed. No locks, no barriers: the TSU's ready counts provide
//! all the synchronization.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tflux::core::prelude::*;
use tflux::runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};

fn main() {
    // 1. Describe the synchronization graph.
    let mut builder = ProgramBuilder::new();
    let block = builder.block();
    let work = builder.thread(block, ThreadSpec::new("square", 16));
    let sink = builder.thread(block, ThreadSpec::scalar("reduce"));
    builder
        .arc(work, sink, ArcMapping::Reduction)
        .expect("valid arc");
    let program = builder.build().expect("valid DDM program");

    // 2. Attach bodies. DThreads communicate through SharedVar slots:
    //    each producer writes its own slot; the consumer reads them all.
    let partial = SharedVar::<u64>::new(16);
    let total = SharedVar::<u64>::scalar();
    let mut bodies = BodyTable::new(&program);
    let (partial_ref, total_ref) = (&partial, &total);
    bodies.set(work, move |ctx| {
        let i = ctx.context.0 as u64;
        partial_ref.put(ctx.context, i * i);
    });
    bodies.set(sink, move |_| {
        total_ref.put(Context(0), partial_ref.iter().sum());
    });

    // 3. Run on 4 kernel threads (the calling thread supervises).
    let report = Runtime::new(RuntimeConfig::with_kernels(4))
        .run(&program, &bodies)
        .expect("run to completion");

    println!("sum of squares 0..16 = {}", total.value());
    println!(
        "executed {} DThread instances across {} kernels in {:?}",
        report.total_executed(),
        report.kernels.len(),
        report.wall
    );
    println!(
        "TSU: {} ready-count updates, {} blocks loaded, {} steals",
        report.tsu.rc_updates,
        report.tsu.blocks_loaded,
        report.total_steals()
    );
    assert_eq!(*total.value(), (0..16u64).map(|i| i * i).sum());
}
