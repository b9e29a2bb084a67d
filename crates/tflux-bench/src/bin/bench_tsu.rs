//! Measure the shipping TSU layers and write `BENCH_tsu.json` at the
//! workspace root: direct vs. funneled completion into a hot sink
//! (`funnel`), consecutive streaming epochs (`streaming`), work stealing
//! and workload scaling in simulated cycles (`steal`, `scaling`), the
//! simulator's memory system (`memsys`), the program server's wake-ups
//! (`server`) and what a `Tsu` allocates in either access mode
//! (`construction`).
//!
//! ```sh
//! cargo run --release -p tflux-bench --bin bench_tsu   # write BENCH_tsu.json
//! cargo test --release -p tflux-bench                  # the floors
//! ```
//!
//! The rows and their scenarios live in `tflux_bench::tsu_path`, whose
//! unit tests hold each row to its floor; this binary's one test holds
//! the `construction` row, which needs the counting allocator below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use tflux_bench::json::{Json, ToJson};
use tflux_bench::tsu_path::{
    balanced_fanout, fanout_reduce, funnel_row, imbalanced_fanout, memsys_row, scaling_machines,
    scaling_row, server_row, steal_row, stream_row, MemStream, ARITY, KERNELS, STEAL_ARITY,
};
use tflux_core::{drain_sequential, Access, DdmProgram, SyncMemory, Tsu, TsuConfig};
use tflux_workloads::Bench;

/// The system allocator, counting. This binary is the one place in the
/// workspace with an `unsafe impl` (every library crate forbids `unsafe`):
/// allocation counts are host-independent, so a gate can key on them.
struct Counting;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; `realloc` keeps its
// default, which goes through `alloc` and `dealloc` below and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(calls, bytes)` allocated by this thread of control while `f` ran
/// (nothing else runs meanwhile: the callers are single-threaded).
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let r = f();
    (
        r,
        ALLOC_CALLS.load(Relaxed) - calls,
        ALLOC_BYTES.load(Relaxed) - bytes,
    )
}

/// What building a threaded `Tsu` for `fanout_reduce` at 2 kernels allocates,
/// and what draining it allocates per instance — counted, not timed, and
/// identical on any host, which is what the floor keys on. `sm_table_bytes`
/// is the ready-count slab, O(instances) by definition; `queue_bytes` is the
/// queue units' rings, each sized once for its kernel's share of the block;
/// the rest of `bytes` — inboxes, counter rows — must not grow with the
/// block.
/// `rings` (bell rings on kernel 1's queue) and `inbox_locks` (inbox
/// acquisitions, both queues) count the hand-over of the block load,
/// which publishes one run per (owner, thread). The drain's TSU counters
/// (`completions`, `rc_updates`, `rc_rmws`) are checked, not written.
/// `owned` is the same three allocation counts for an owned `Tsu`
/// (`Tsu::new`) of the same program. `drain_ns` is the one wall-clock
/// column, reported and never gated: `drain_sequential`'s best time over
/// a few drains of each, threaded then owned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConstructionRow {
    instances: u64,
    alloc_calls: u64,
    bytes: u64,
    sm_table_bytes: u64,
    queue_bytes: u64,
    drain_alloc_calls: u64,
    rings: u64,
    inbox_locks: u64,
    completions: u64,
    rc_updates: u64,
    rc_rmws: u64,
    owned: Allocations,
    drain_ns: Option<[u64; 2]>,
}

/// `(construction calls, construction bytes, drain calls)` of one `Tsu`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Allocations {
    alloc_calls: u64,
    bytes: u64,
    drain_alloc_calls: u64,
}

/// Build a `Tsu` with `build` and drain it, counting both.
fn built<'p, M: Access>(
    build: impl FnOnce() -> Tsu<&'p DdmProgram, M>,
) -> (
    Tsu<&'p DdmProgram, M>,
    Vec<tflux_core::Instance>,
    Allocations,
) {
    let (tsu, alloc_calls, bytes) = allocations(build);
    let (order, drain_alloc_calls, _) =
        allocations(|| drain_sequential(&tsu).expect("fanout_reduce drains"));
    let counts = Allocations {
        alloc_calls,
        bytes,
        drain_alloc_calls,
    };
    (tsu, order, counts)
}

/// Wall-clock nanoseconds of `drain_sequential` on a fresh `Tsu` from
/// `build`, the best of `DRAINS` (construction untimed).
fn best_drain_ns<'p, M: Access>(build: impl Fn() -> Tsu<&'p DdmProgram, M>) -> u64 {
    const DRAINS: usize = 7;
    (0..DRAINS)
        .map(|_| {
            let tsu = build();
            let t0 = Instant::now();
            drain_sequential(&tsu).expect("fanout_reduce drains");
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one drain")
}

/// Bytes of one deque slot: an instance word and an epoch word.
const SLOT_BYTES: u64 = 16;

impl ConstructionRow {
    const KERNELS: u32 = 2;

    fn measure() -> Self {
        let program = fanout_reduce();
        let (_, _, sm_table_bytes) = allocations(|| SyncMemory::new(&program, Self::KERNELS, 0));
        let (tsu, order, threaded) =
            built(|| Tsu::threaded(&program, Self::KERNELS, TsuConfig::default()));
        let (_, _, owned) = built(|| Tsu::new(&program, Self::KERNELS, TsuConfig::default()));
        let stats = tsu.stats();
        ConstructionRow {
            instances: order.len() as u64,
            alloc_calls: threaded.alloc_calls,
            bytes: threaded.bytes,
            sm_table_bytes,
            queue_bytes: tsu
                .queues()
                .iter()
                .map(|q| q.capacity() as u64)
                .sum::<u64>()
                * SLOT_BYTES,
            drain_alloc_calls: threaded.drain_alloc_calls,
            rings: tsu.queues()[1].handover_counts().0,
            inbox_locks: tsu.queues().iter().map(|q| q.handover_counts().1).sum(),
            completions: stats.completions,
            rc_updates: stats.rc_updates,
            rc_rmws: stats.rc_rmws,
            owned,
            drain_ns: None,
        }
    }

    /// [`measure`](Self::measure), then time the drain in both modes,
    /// alternating them.
    fn measure_timed() -> Self {
        let program = fanout_reduce();
        let config = TsuConfig::default();
        let mut ns = [u64::MAX; 2];
        for _ in 0..3 {
            let threaded = best_drain_ns(|| Tsu::threaded(&program, Self::KERNELS, config));
            let owned = best_drain_ns(|| Tsu::new(&program, Self::KERNELS, config));
            ns = [ns[0].min(threaded), ns[1].min(owned)];
        }
        ConstructionRow {
            drain_ns: Some(ns),
            ..Self::measure()
        }
    }

    fn beyond_table_bytes(&self) -> u64 {
        self.bytes - self.sm_table_bytes
    }
}

impl ToJson for ConstructionRow {
    fn to_json(&self) -> Json {
        let per_instance = self.drain_alloc_calls as f64 / self.instances as f64;
        let mut row = vec![
            ("shape", "fanout_reduce_8x8192".to_json()),
            ("kernels", Self::KERNELS.to_json()),
            ("instances", self.instances.to_json()),
            ("alloc_calls", self.alloc_calls.to_json()),
            ("bytes", self.bytes.to_json()),
            ("sm_table_bytes", self.sm_table_bytes.to_json()),
            ("beyond_table_bytes", self.beyond_table_bytes().to_json()),
            ("queue_bytes", self.queue_bytes.to_json()),
            ("drain_alloc_calls", self.drain_alloc_calls.to_json()),
            ("drain_allocs_per_instance", per_instance.to_json()),
            ("rings", self.rings.to_json()),
            ("inbox_locks", self.inbox_locks.to_json()),
            ("owned_alloc_calls", self.owned.alloc_calls.to_json()),
            ("owned_bytes", self.owned.bytes.to_json()),
            (
                "owned_drain_alloc_calls",
                self.owned.drain_alloc_calls.to_json(),
            ),
        ];
        if let Some([threaded, owned]) = self.drain_ns {
            let per_instance = |ns: u64| ns as f64 / self.instances as f64;
            row.extend([
                (
                    "drain_host_ns_per_instance",
                    per_instance(threaded).to_json(),
                ),
                (
                    "owned_drain_host_ns_per_instance",
                    per_instance(owned).to_json(),
                ),
            ]);
        }
        Json::obj(row)
    }
}

/// The ns_* fields of `funnel`/`streaming`,
/// `memsys.host_ns_per_access`, `server.host_us_per_program` and the
/// `construction` drain times are wall clock and depend on the host, and
/// the `server` turn columns on timing; `steal`, `scaling` and the other
/// `memsys` columns are simulated, the other `server` columns are counts
/// fixed by the mix and the other `construction` columns count
/// allocations, identical on any host.
const WALL_CLOCK_NOTE: &str = "funnel/streaming ns fields, memsys \
     host_ns_per_access, server host_us_per_program and construction drain_host_ns_per_instance \
     fields are wall clock and vary with the host, \
     server turns_per_program and empty_turns_per_program depend on timing; \
     steal, scaling and the other memsys columns are simulated, the other server columns are \
     counts fixed by the mix, the other construction columns count allocations, host-independent";

fn main() {
    let multi = || KERNELS.into_iter().filter(|&k| k > 1);
    let steal = |k| {
        [
            steal_row("imbalanced_fanout", &imbalanced_fanout(STEAL_ARITY), k),
            steal_row("balanced_fanout", &balanced_fanout(STEAL_ARITY), k),
        ]
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj([
        ("bench", "tsu_completion_path".to_json()),
        (
            "regenerate",
            "cargo run --release -p tflux-bench --bin bench_tsu".to_json(),
        ),
        ("host_threads", host_threads.to_json()),
        ("wall_clock_note", WALL_CLOCK_NOTE.to_json()),
        ("arity", ARITY.to_json()),
        (
            "funnel",
            multi().map(funnel_row).collect::<Vec<_>>().to_json(),
        ),
        ("streaming", Vec::from(KERNELS.map(stream_row)).to_json()),
        (
            "steal",
            multi().flat_map(steal).collect::<Vec<_>>().to_json(),
        ),
        (
            "scaling",
            scaling_machines()
                .into_iter()
                .flat_map(|(name, cfg)| Bench::ALL.map(|b| scaling_row(name, b, cfg)))
                .collect::<Vec<_>>()
                .to_json(),
        ),
        (
            "memsys",
            Vec::from(MemStream::ALL.map(memsys_row)).to_json(),
        ),
        ("server", vec![server_row()].to_json()),
        (
            "construction",
            vec![ConstructionRow::measure_timed()].to_json(),
        ),
    ]);
    let json = report.pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tsu.json");
    std::fs::write(path, json).expect("write BENCH_tsu.json");
    println!("wrote {path}");
    for s in std::fs::read_to_string(path).unwrap().lines() {
        println!("{s}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::{KernelId, ThreadKind};

    #[test]
    fn construction_stays_small_and_hands_the_block_over_per_run() {
        let (a, b) = (ConstructionRow::measure(), ConstructionRow::measure());
        // each ring holds its kernel's share of the one block (all but
        // the inlet), rounded up to a power of two
        let (program, kernels) = (fanout_reduce(), ConstructionRow::KERNELS);
        let share = |k| -> u32 {
            let resident = program
                .threads()
                .iter()
                .filter(|t| t.kind != ThreadKind::Inlet);
            resident
                .map(|t| t.affinity.share(KernelId(k), t.arity, kernels))
                .sum()
        };
        let ring_bytes: u64 = (0..kernels)
            .map(|k| share(k).next_power_of_two() as u64 * SLOT_BYTES)
            .sum();
        assert_eq!(a.queue_bytes, ring_bytes, "{a:?}");
        assert_eq!(a.queue_bytes, (65_536 + 32_768) * SLOT_BYTES);
        // everything else — inboxes and counter rows — stays small
        // whatever the block, and draining allocates a fixed handful
        assert!(a.beyond_table_bytes() - a.queue_bytes <= 256 << 10, "{a:?}");
        assert_eq!(a.drain_alloc_calls, 23, "{a:?}");
        // one ring per foreign run (8 threads' shares for kernel 1, plus
        // slack), one inbox lock per foreign run and per take-over
        assert!(a.rings <= 16 && a.inbox_locks <= 32, "{a:?}");
        assert_eq!(a, b, "two constructions and drains disagree on a count");
        // the owned TSU is the same units in the other access mode, whose
        // runs never reach an inbox: it allocates what the threaded one
        // does less the inbox buffers — the armed inlet's (one call, four
        // 16-byte entries) when built, and kernel 1's four growths to
        // hold the block load's foreign runs when drained
        let owned = (
            a.owned.alloc_calls,
            a.owned.bytes,
            a.owned.drain_alloc_calls,
        );
        let threaded = (a.alloc_calls - 1, a.bytes - 64, a.drain_alloc_calls - 4);
        assert_eq!(owned, threaded, "{a:?}");
        // the funneled drain runs every instance, the hot sink batched
        assert_eq!(a.instances, 8 * 8192 + 3);
        assert_eq!(a.completions, a.instances);
        assert!(
            a.rc_rmws < a.rc_updates,
            "the hot sink must be funneled: {a:?}"
        );
    }
}
