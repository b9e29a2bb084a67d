//! Property tests of the threaded TFluxSoft runtime: generated DAG
//! programs executed on real kernel threads run every instance exactly once
//! and never violate producer→consumer ordering, regardless of thread
//! interleaving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tflux_core::prelude::*;
use tflux_core::{cases, drain_sequential, random_program, Access};
use tflux_runtime::{BodyTable, Runtime, RuntimeConfig};

#[test]
fn every_instance_executes_exactly_once() {
    // Thread spawning is expensive; keep the case count moderate.
    cases(40, |rng| {
        let kernels = rng.range(1u32..5);
        let p = random_program(rng, kernels);
        let seq = AtomicUsize::new(0);
        let log: Mutex<Vec<(Instance, usize)>> = Mutex::new(Vec::new());
        let mut bodies = BodyTable::new(&p);
        for t in 0..p.threads().len() {
            let t = ThreadId(t as u32);
            let seq = &seq;
            let log = &log;
            bodies.set(t, move |c| {
                let n = seq.fetch_add(1, Ordering::SeqCst);
                log.lock().unwrap().push((c.instance, n));
            });
        }
        let report =
            Runtime::new(RuntimeConfig::with_kernels(kernels).watchdog(Duration::from_secs(20)))
                .run(&p, &bodies)
                .expect("run failed");
        drop(bodies);

        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), p.total_instances());
        assert_eq!(report.tsu.completions as usize, p.total_instances());

        // exactly once
        let mut seen = HashMap::new();
        for (i, _) in &log {
            *seen.entry(*i).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&v| v == 1));

        // ordering: producers before consumers (by body start sequence;
        // bodies are serialized through the SeqCst counter so sequence
        // numbers are a valid happens-before witness for completion order)
        let pos: HashMap<Instance, usize> = log.iter().cloned().collect();
        for t in 0..p.threads().len() {
            let t = ThreadId(t as u32);
            let pa = p.thread(t).arity;
            for arc in p.consumers(t) {
                let ca = p.thread(arc.consumer).arity;
                for pc in 0..pa {
                    let pi = Instance::new(t, Context(pc));
                    for cc in arc.mapping.consumers(Context(pc), pa, ca) {
                        let ci = Instance::new(arc.consumer, cc);
                        assert!(pos[&pi] < pos[&ci], "{pi} started after its consumer {ci}");
                    }
                }
            }
        }
    });
}

#[test]
fn large_fan_out_under_contention() {
    // stress: 2000 tiny DThreads over 4 kernels
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", 2000));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    let p = b.build().unwrap();

    let count = AtomicUsize::new(0);
    let mut bodies = BodyTable::new(&p);
    bodies.set(work, |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    let report = Runtime::new(RuntimeConfig::with_kernels(4))
        .run(&p, &bodies)
        .unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 2000);
    // every completion — the block's inlet and outlet included — ran on
    // the kernel that executed the DThread
    assert_eq!(
        report.tsu.completions,
        2000 + 1 + 2 * report.tsu.blocks_loaded
    );
}

#[test]
fn blocks_ready_at_once_fit_their_queue_units() {
    // no app thread has a producer, so each block's whole share of a
    // kernel is queued the moment the block loads: the most its Queue
    // Unit must hold, which is what the Tsu sized it for
    for kernels in 1..=4u32 {
        let fixed = Affinity::Fixed(KernelId(kernels));
        for affinity in [Affinity::Range, Affinity::RoundRobin, fixed] {
            let mut b = ProgramBuilder::new();
            for arity in [509, 250] {
                let blk = b.block();
                b.thread(blk, ThreadSpec::new("wide", arity).with_affinity(affinity));
                b.thread(blk, ThreadSpec::new("odd", 3).with_affinity(affinity));
            }
            let p = b.build().unwrap();
            // the bound, counted instance by instance
            let mut bound = vec![1usize; kernels as usize];
            for blk in p.blocks() {
                let mut load = vec![0; kernels as usize];
                for &t in blk.threads.iter().chain([&blk.outlet]) {
                    for i in p.instances_of(t) {
                        load[p.kernel_of(i, kernels).idx()] += 1;
                    }
                }
                for (b, l) in bound.iter_mut().zip(load) {
                    *b = (*b).max(l);
                }
            }
            let slots: Vec<usize> = bound.iter().map(|b| b.next_power_of_two()).collect();
            // each constructor's queue sizes, after a drain through them
            fn drained<M: Access>(tsu: Tsu<&DdmProgram, M>) -> Vec<usize> {
                let total = tsu.program().total_instances();
                assert_eq!(drain_sequential(&tsu).unwrap().len(), total);
                tsu.queues().iter().map(|q| q.capacity()).collect()
            }
            for sized in [
                drained(Tsu::new(&p, kernels, TsuConfig::default())),
                drained(Tsu::threaded(&p, kernels, TsuConfig::default())),
            ] {
                assert_eq!(sized, slots, "{affinity:?} at {kernels} kernels");
            }
            let report = Runtime::new(RuntimeConfig::with_kernels(kernels))
                .run(&p, &BodyTable::new(&p))
                .unwrap();
            assert_eq!(report.tsu.completions as usize, p.total_instances());
        }
    }
}

#[test]
fn deep_chain_sequentializes_correctly() {
    // a 200-deep scalar chain: strictly sequential despite 4 kernels
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let mut prev = b.thread(blk, ThreadSpec::scalar("t0"));
    let mut chain = vec![prev];
    for i in 1..200 {
        let t = b.thread(blk, ThreadSpec::scalar(format!("t{i}")));
        b.arc(prev, t, ArcMapping::Scalar).unwrap();
        prev = t;
        chain.push(t);
    }
    let p = b.build().unwrap();
    let order: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let mut bodies = BodyTable::new(&p);
    for &t in &chain {
        let order = &order;
        bodies.set(t, move |c| order.lock().unwrap().push(c.instance.thread));
    }
    Runtime::new(RuntimeConfig::with_kernels(4))
        .run(&p, &bodies)
        .unwrap();
    drop(bodies);
    let order = order.into_inner().unwrap();
    assert_eq!(order, chain);
}

#[test]
fn rerunning_same_program_is_deterministic_in_outcome() {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("w", 64));
    let sink = b.thread(blk, ThreadSpec::scalar("s"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    let p = b.build().unwrap();

    let mut results = Vec::new();
    for _ in 0..5 {
        let sum = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let sum_ref = &sum;
        let done_ref = &done;
        let mut bodies = BodyTable::new(&p);
        bodies.set(work, move |c| {
            sum_ref.fetch_add((c.context.0 as usize).pow(2), Ordering::Relaxed);
        });
        bodies.set(sink, move |_| {
            done_ref.store(sum_ref.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        Runtime::new(RuntimeConfig::with_kernels(3))
            .run(&p, &bodies)
            .unwrap();
        drop(bodies);
        results.push(done.load(Ordering::Relaxed));
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(results[0], (0..64usize).map(|i| i * i).sum());
}
