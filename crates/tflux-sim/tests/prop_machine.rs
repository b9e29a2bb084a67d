//! Property tests of the full machine: generated programs with random work
//! models always complete every instance, produce physically consistent
//! traces, and respect the work/span lower bound.

use tflux_core::prelude::*;
use tflux_core::rng::{cases, program};
use tflux_sim::work::{FnWork, InstanceWork};
use tflux_sim::{Machine, MachineConfig};

#[test]
fn machine_completes_arbitrary_programs() {
    cases(64, |rng| {
        let cores = rng.range(1u32..9);
        let base = rng.range(10u64..5_000);
        let p = program(rng, 2);
        let src = FnWork(move |i: Instance, out: &mut InstanceWork| {
            out.compute = base + i.context.0 as u64 * 7;
            // touch a private line now and then
            if i.context.0.is_multiple_of(3) {
                out.accesses.push(tflux_sim::work::MemAccess::read(
                    0x1000_0000 + i.context.0 as u64 * 64,
                ));
            }
        });
        let m = Machine::new(MachineConfig::bagle(cores));
        let (report, trace) = m.run_traced(&p, &src).expect("sim run");
        assert_eq!(report.instances, p.total_instances());
        assert_eq!(report.tsu.completions as usize, p.total_instances());
        assert!(trace.find_overlap().is_none());
        assert!(report.cycles >= trace.end());

        // wall time can never beat the critical path (work/span bound with
        // the same weights the source charges, ignoring memory time)
        let ws = tflux_core::graph::work_span(&p, |t, c| {
            if p.thread(t).kind == tflux_core::ThreadKind::App {
                (base + c.0 as u64 * 7) as f64
            } else {
                0.0
            }
        });
        assert!(
            (report.cycles as f64) >= ws.span,
            "cycles {} < span {}",
            report.cycles,
            ws.span
        );
        // nor beat perfect parallelism over the cores
        assert!((report.cycles as f64) * (cores as f64) >= ws.work);
    });
}

#[test]
fn more_cores_never_slow_down_compute_bound_programs() {
    cases(64, |rng| {
        let arity = rng.range(4u32..40);
        let cost = rng.range(1_000u64..50_000);
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", arity));
        let p = b.build().unwrap();
        let src = FnWork(move |_: Instance, out: &mut InstanceWork| {
            out.compute = cost;
        });
        let c2 = Machine::new(MachineConfig::bagle(2))
            .run(&p, &src)
            .unwrap()
            .cycles;
        let c8 = Machine::new(MachineConfig::bagle(8))
            .run(&p, &src)
            .unwrap()
            .cycles;
        assert!(c8 <= c2, "8 cores ({c8}) slower than 2 ({c2})");
    });
}
