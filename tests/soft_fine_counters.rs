//! The Synchronization Memory's counters are single-writer rows, one per
//! kernel, summed at report time (`tsu/sync.rs`). A lost update would show
//! as a fetch without a completion or a per-kernel ledger that does not
//! sum to the total — so every `soft_fine` shape of `bench_e2e` (the
//! workload whose time is all fetch/complete traffic) is run on two real
//! kernels and its report audited. Bodies are no-ops: the counters depend
//! on the graph alone.

use tflux::core::prelude::*;
use tflux::runtime::{BodyTable, Runtime, RuntimeConfig};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::Params;

/// `layers` threads of `n` instances, each feeding the next through `m`.
fn chain(layers: usize, n: u32, m: ArcMapping) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let mut prev = b.thread(blk, ThreadSpec::new("layer", n));
    for _ in 1..layers {
        let t = b.thread(blk, ThreadSpec::new("layer", n));
        b.arc(prev, t, m).unwrap();
        prev = t;
    }
    b.build().unwrap()
}

/// 32 blocks of `a(256) → b(256)`, the last one reduced into a sink.
fn multiblock() -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let mut last = None;
    for _ in 0..32 {
        let blk = b.block();
        let a = b.thread(blk, ThreadSpec::new("a", 256));
        let c = b.thread(blk, ThreadSpec::new("b", 256));
        b.arc(a, c, ArcMapping::OneToOne).unwrap();
        last = Some((blk, c));
    }
    let (blk, c) = last.unwrap();
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(c, sink, ArcMapping::Reduction).unwrap();
    b.build().unwrap()
}

/// 4096 leaves merged pairwise through Group(2) levels down to one root.
fn merge_tree() -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let mut len = 4096u32;
    let mut prev = b.thread(blk, ThreadSpec::new("leaf", len));
    while len > 1 {
        len = len.div_ceil(2);
        let t = b.thread(blk, ThreadSpec::new("merge", len));
        b.arc(prev, t, ArcMapping::Group { factor: 2 }).unwrap();
        prev = t;
    }
    b.build().unwrap()
}

#[test]
fn single_writer_rows_lose_nothing_on_two_kernels() {
    let trapez = Params::soft(2, 16, SizeClass::Small);
    let shapes = [
        ("pipeline", chain(8, 4096, ArcMapping::OneToOne)),
        ("multiblock", multiblock()),
        ("fanout_reduce", tflux_bench::tsu_path::fanout_reduce()),
        ("merge_tree", merge_tree()),
        ("trapez@16", tflux::workloads::trapez::program(&trapez).0),
    ];
    let runtime = Runtime::new(RuntimeConfig::with_kernels(2));
    for (name, program) in &shapes {
        let report = runtime.run(program, &BodyTable::new(program)).unwrap();
        let instances = program.total_instances() as u64;
        assert_eq!(report.tsu.fetches, instances, "{name}: fetches");
        assert_eq!(report.tsu.completions, instances, "{name}: completions");
        assert_eq!(report.total_executed(), instances, "{name}: executed");
        assert_eq!(report.kernels.len(), 2, "{name}");
        let rows = &report.kernels;
        let rc_updates: u64 = rows.iter().map(|k| k.rc_updates).sum();
        let rc_rmws: u64 = rows.iter().map(|k| k.rc_rmws).sum();
        assert_eq!(rc_updates, report.tsu.rc_updates, "{name}");
        assert_eq!(rc_rmws, report.tsu.rc_rmws, "{name}");
        // every arc instance is one logical decrement, whoever applied it
        let arcs: u64 = (0..program.threads().len() as u32)
            .flat_map(|t| program.instances_of(ThreadId(t)))
            .map(|i| program.initial_rcs(i.thread)[i.context.idx()] as u64)
            .sum();
        assert_eq!(report.tsu.rc_updates, arcs, "{name}: rc_updates");
    }
}
