//! Measure the TSU completion hot path and write `BENCH_tsu.json` at the
//! workspace root: the serialized single-drainer baseline (the pre-split
//! emulator model, one thread performing every ready-count update), the
//! and the lock-free direct-update path (one completing thread per kernel,
//! `fetch_sub` on atomic ready-count slots) on the same host.
//!
//! ```sh
//! cargo run --release -p tflux-bench --bin bench_tsu            # write BENCH_tsu.json
//! cargo run --release -p tflux-bench --bin bench_tsu -- --check # CI smoke
//! ```
//!
//! `--check` writes nothing: it is the regression gate the CI bench smoke
//! job runs. Every pass/fail verdict keys on *deterministic* quantities —
//! shard counters, simulated cycles, the 64-core NUMA scaling floors, the
//! access classes of the `memsys` streams, the wake-up counts of the
//! `server` mix and the allocations of the `construction` row — so the
//! gate's outcome is identical on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use tflux_bench::json::{Json, ToJson};
use tflux_bench::tsu_path::{
    armed, balanced_fanout, complete_interleaved, fanout_reduce, imbalanced_fanout, measure,
    measure_stream, memsys_stream, pipeline, reduction, server_mix, sim_makespan, sim_scaling,
    MemStream, MemsysMeasure, ServerMeasure, SERVER_KERNELS, SERVER_PROGRAMS,
};
use tflux_core::tsu::{drain_sequential, SyncMemory, Tsu, TsuConfig};
use tflux_sim::MachineConfig;
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

const ARITY: u32 = 4096;
const KERNELS: [u32; 4] = [1, 2, 4, 8];
const WARMUP: usize = 2;
const RUNS: usize = 7;
/// Completions per funnel flush in the reduction scenario.
const FUNNEL_BATCH: usize = 8;
/// Consecutive passes per context in the streaming scenario.
const STREAM_EPOCHS: u64 = 8;
/// Fanout width of the work-stealing scenarios (simulated, so it need
/// not match the wall-clock `ARITY`).
const STEAL_ARITY: u32 = 256;
/// Uniform compute cycles per instance in the steal scenarios.
const STEAL_WORK: u64 = 200;

struct Row {
    path: &'static str,
    kernels: u32,
    ns_total: u64,
    ns_per_completion: f64,
    completions_per_sec: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", self.path.to_json()),
            ("kernels", self.kernels.to_json()),
            ("ns_total", self.ns_total.to_json()),
            ("ns_per_completion", self.ns_per_completion.to_json()),
            ("completions_per_sec", self.completions_per_sec.to_json()),
        ])
    }
}

struct Speedup {
    kernels: u32,
    lockfree_over_serialized: f64,
}

impl ToJson for Speedup {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernels", self.kernels.to_json()),
            (
                "lockfree_over_serialized",
                self.lockfree_over_serialized.to_json(),
            ),
        ])
    }
}

/// One funnel-on vs funnel-off comparison on the reduction scenario.
/// The counters are deterministic (the driver interleaves round-robin);
/// only the wall-clock fields vary between hosts.
struct FunnelRow {
    kernels: u32,
    batch: usize,
    ns_funnel_off: u64,
    ns_funnel_on: u64,
    contended_off: u64,
    contended_on: u64,
    contended_ratio: f64,
    rc_rmws_off: u64,
    rc_rmws_on: u64,
}

impl ToJson for FunnelRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernels", self.kernels.to_json()),
            ("batch", self.batch.to_json()),
            ("ns_funnel_off", self.ns_funnel_off.to_json()),
            ("ns_funnel_on", self.ns_funnel_on.to_json()),
            ("contended_off", self.contended_off.to_json()),
            ("contended_on", self.contended_on.to_json()),
            ("contended_ratio", self.contended_ratio.to_json()),
            ("rc_rmws_off", self.rc_rmws_off.to_json()),
            ("rc_rmws_on", self.rc_rmws_on.to_json()),
        ])
    }
}

/// One sustained-throughput streaming measurement: `epochs` consecutive
/// passes through one windowed SyncMemory, context slots re-armed in
/// place at every wrap. The wrap columns price the epoch turnaround
/// (`retire_epoch` + `open_epoch`) against the steady-state completion
/// work it buys.
struct StreamRow {
    kernels: u32,
    epochs: u64,
    ns_total: u64,
    completions: u64,
    completions_per_sec: f64,
    wrap_ns_per_epoch: f64,
    wrap_fraction: f64,
}

impl ToJson for StreamRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernels", self.kernels.to_json()),
            ("epochs", self.epochs.to_json()),
            ("ns_total", self.ns_total.to_json()),
            ("completions", self.completions.to_json()),
            ("completions_per_sec", self.completions_per_sec.to_json()),
            ("wrap_ns_per_epoch", self.wrap_ns_per_epoch.to_json()),
            ("wrap_fraction", self.wrap_fraction.to_json()),
        ])
    }
}

/// One work-stealing comparison: the same fanout simulated with stealing
/// on and off. Simulated cycles — fully deterministic, identical on any
/// host (unlike the wall-clock rows).
struct StealRow {
    scenario: &'static str,
    cores: u32,
    cycles_steal_on: u64,
    cycles_steal_off: u64,
    speedup: f64,
    steals: u64,
    steal_misses: u64,
    stolen_fetches: u64,
}

impl ToJson for StealRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("cores", self.cores.to_json()),
            ("cycles_steal_on", self.cycles_steal_on.to_json()),
            ("cycles_steal_off", self.cycles_steal_off.to_json()),
            ("speedup", self.speedup.to_json()),
            ("steals", self.steals.to_json()),
            ("steal_misses", self.steal_misses.to_json()),
            ("stolen_fetches", self.stolen_fetches.to_json()),
        ])
    }
}

/// One simulated-cycle scaling row: a full workload on a machine preset,
/// speedup over the zero-overhead sequential baseline on the same
/// machine. Host-independent — these are the rows `--check` gates on,
/// because they cannot be perturbed by how many host threads the runner
/// happens to have.
struct ScalingRow {
    topology: &'static str,
    bench: &'static str,
    cores: u32,
    sim_cycles: u64,
    seq_cycles: u64,
    speedup: f64,
    remote_node: u64,
    channel_wait: u64,
    steals: u64,
}

impl ToJson for ScalingRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("topology", self.topology.to_json()),
            ("bench", self.bench.to_json()),
            ("cores", self.cores.to_json()),
            ("sim_cycles", self.sim_cycles.to_json()),
            ("seq_cycles", self.seq_cycles.to_json()),
            ("speedup", self.speedup.to_json()),
            ("remote_node", self.remote_node.to_json()),
            ("channel_wait", self.channel_wait.to_json()),
            ("steals", self.steals.to_json()),
        ])
    }
}

/// One synthetic stream through `MemorySystem::access` on `bagle(27)`.
/// `host_ns_per_access` is wall clock; every other column is simulated
/// and identical on any host, which is what `--check` gates.
struct MemsysRow(MemStream, MemsysMeasure);

impl ToJson for MemsysRow {
    fn to_json(&self) -> Json {
        let MemsysRow(stream, m) = self;
        Json::obj([
            ("stream", stream.name().to_json()),
            ("accesses", m.accesses.to_json()),
            ("l1_hits", m.stats.l1_hits.to_json()),
            ("l2_hits", m.stats.l2_hits.to_json()),
            ("upgrades", m.stats.upgrades.to_json()),
            ("remote_hits", m.stats.remote_hits.to_json()),
            ("mem_misses", m.stats.mem_misses.to_json()),
            ("latency_cycles", m.latency_cycles.to_json()),
            ("host_ns_per_access", m.host_ns_per_access().to_json()),
        ])
    }
}

/// The fixed program mix through a `SERVER_KERNELS`-kernel `ProgramServer`.
/// `host_us_per_program` is wall clock; the counts are fixed by the mix
/// and identical on any host, which is what `--check` gates.
struct ServerRow(ServerMeasure);

impl ToJson for ServerRow {
    fn to_json(&self) -> Json {
        let ServerRow(m) = self;
        Json::obj([
            ("mix", "blocks_1_2_work_16_64_every_10th_stream_8".to_json()),
            ("programs", SERVER_PROGRAMS.to_json()),
            ("kernels", SERVER_KERNELS.to_json()),
            ("completions", m.completions.to_json()),
            ("pool_rings", m.pool_rings.to_json()),
            ("supervisor_rings", m.supervisor_rings.to_json()),
            ("rings_per_completion", m.rings_per_completion().to_json()),
            ("host_us_per_program", m.host_us_per_program().to_json()),
        ])
    }
}

/// What building a threaded `Tsu` for `fanout_reduce` at 2 kernels allocates,
/// and what draining it allocates per instance — counted, not timed, and
/// identical on any host, which is what `--check` gates. `sm_table_bytes`
/// is the ready-count slab, O(instances) by definition; the rest of
/// `bytes` — queue units, counter rows — must not grow with the block.
/// `rings` (bell rings on kernel 1's queue) and `inbox_locks` (inbox
/// acquisitions, both queues) count the hand-over of the block load,
/// which publishes one run per (owner, thread).
#[derive(Clone, Copy, PartialEq, Eq)]
struct ConstructionRow {
    instances: u64,
    alloc_calls: u64,
    bytes: u64,
    sm_table_bytes: u64,
    drain_alloc_calls: u64,
    rings: u64,
    inbox_locks: u64,
}

/// Ceiling on construction bytes beyond the ready-count table.
const CONSTRUCTION_CEILING: u64 = 256 << 10;
/// Ceilings on the drain's hand-over counts: one ring per foreign run
/// (8 threads' shares for kernel 1, plus slack), one inbox lock per
/// foreign run and per take-over.
const RINGS_CEILING: u64 = 16;
const INBOX_LOCKS_CEILING: u64 = 32;

impl ConstructionRow {
    const KERNELS: u32 = 2;

    fn measure() -> Self {
        let program = fanout_reduce();
        let (_, _, sm_table_bytes) = allocations(|| SyncMemory::new(&program, Self::KERNELS, 0));
        let (tsu, alloc_calls, bytes) =
            allocations(|| Tsu::threaded(&program, Self::KERNELS, TsuConfig::default()));
        let (order, drain_alloc_calls, _) =
            allocations(|| drain_sequential(&tsu).expect("fanout_reduce drains"));
        ConstructionRow {
            instances: order.len() as u64,
            alloc_calls,
            bytes,
            sm_table_bytes,
            drain_alloc_calls,
            rings: tsu.queues()[1].handover_counts().0,
            inbox_locks: tsu.queues().iter().map(|q| q.handover_counts().1).sum(),
        }
    }

    fn beyond_table_bytes(&self) -> u64 {
        self.bytes - self.sm_table_bytes
    }
}

impl ToJson for ConstructionRow {
    fn to_json(&self) -> Json {
        let per_instance = self.drain_alloc_calls as f64 / self.instances as f64;
        Json::obj([
            ("shape", "fanout_reduce_8x8192".to_json()),
            ("kernels", Self::KERNELS.to_json()),
            ("instances", self.instances.to_json()),
            ("alloc_calls", self.alloc_calls.to_json()),
            ("bytes", self.bytes.to_json()),
            ("sm_table_bytes", self.sm_table_bytes.to_json()),
            ("beyond_table_bytes", self.beyond_table_bytes().to_json()),
            ("drain_alloc_calls", self.drain_alloc_calls.to_json()),
            ("drain_allocs_per_instance", per_instance.to_json()),
            ("rings", self.rings.to_json()),
            ("inbox_locks", self.inbox_locks.to_json()),
        ])
    }
}

struct Report {
    bench: &'static str,
    regenerate: &'static str,
    host_threads: usize,
    wall_clock_note: &'static str,
    arity: u32,
    rows: Vec<Row>,
    speedups: Vec<Speedup>,
    funnel: Vec<FunnelRow>,
    streaming: Vec<StreamRow>,
    steal: Vec<StealRow>,
    scaling: Vec<ScalingRow>,
    memsys: Vec<MemsysRow>,
    server: Vec<ServerRow>,
    construction: Vec<ConstructionRow>,
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bench", self.bench.to_json()),
            ("regenerate", self.regenerate.to_json()),
            ("host_threads", self.host_threads.to_json()),
            ("wall_clock_note", self.wall_clock_note.to_json()),
            ("arity", self.arity.to_json()),
            ("rows", self.rows.to_json()),
            ("speedups", self.speedups.to_json()),
            ("funnel", self.funnel.to_json()),
            ("streaming", self.streaming.to_json()),
            ("steal", self.steal.to_json()),
            ("scaling", self.scaling.to_json()),
            ("memsys", self.memsys.to_json()),
            ("server", self.server.to_json()),
            ("construction", self.construction.to_json()),
        ])
    }
}

/// The ns_* fields of `rows`/`speedups`/`funnel`/`streaming`,
/// `memsys.host_ns_per_access` and `server.host_us_per_program` are wall
/// clock and depend on the host; `steal`, `scaling` and the other `memsys`
/// columns are simulated and the other `server` columns are counts fixed
/// by the mix and `construction` counts allocations, identical on any host.
const WALL_CLOCK_NOTE: &str = "rows/speedups/funnel/streaming ns fields, memsys \
     host_ns_per_access and server host_us_per_program are wall clock and vary with the host; \
     steal, scaling and the other memsys columns are simulated, the other server columns are \
     counts fixed by the mix, construction counts allocations, host-independent";

/// Machine presets the scaling section sweeps: the paper's flat UMA
/// board and the 64-core 4-node NUMA part.
fn scaling_machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("bagle", MachineConfig::bagle(8)),
        (
            "sparc_t3_4",
            MachineConfig::sparc_t3_4(64).expect("64 kernels fit the T3-4"),
        ),
    ]
}

fn scaling_row(topology: &'static str, bench: Bench, cfg: MachineConfig) -> ScalingRow {
    let m = sim_scaling(bench, cfg);
    ScalingRow {
        topology,
        bench: bench.name(),
        cores: cfg.cores,
        sim_cycles: m.sim_cycles,
        seq_cycles: m.seq_cycles,
        speedup: m.speedup,
        remote_node: m.remote_node,
        channel_wait: m.channel_wait,
        steals: m.steals,
    }
}

/// Best-of-`RUNS` after warmup: the completion path is short enough that
/// the minimum is the least noisy central estimate.
fn best(program: &tflux_core::DdmProgram, kernels: u32, sharded: bool) -> u64 {
    for _ in 0..WARMUP {
        measure(program, kernels, sharded);
    }
    (0..RUNS)
        .map(|_| measure(program, kernels, sharded))
        .min()
        .unwrap()
}

fn row(path: &'static str, kernels: u32, ns_total: u64) -> Row {
    let n = ARITY as f64;
    Row {
        path,
        kernels,
        ns_total,
        ns_per_completion: ns_total as f64 / n,
        completions_per_sec: n / (ns_total as f64 / 1e9),
    }
}

/// One funnel-off vs funnel-on measurement of the reduction scenario:
/// deterministic round-robin interleaving, best-of-`RUNS` wall clock.
fn funnel_row(kernels: u32) -> FunnelRow {
    let program = reduction(ARITY);
    let run = |batch: usize| {
        let mut best_ns = u64::MAX;
        let mut stats = None;
        for i in 0..WARMUP + RUNS {
            let (sm, work) = armed(&program, kernels);
            let ns = complete_interleaved(&sm, &work, kernels, batch);
            if i >= WARMUP {
                best_ns = best_ns.min(ns);
            }
            stats = Some(sm.stats());
        }
        (best_ns, stats.unwrap())
    };
    let (ns_off, off) = run(1);
    let (ns_on, on) = run(FUNNEL_BATCH);
    assert_eq!(on.rc_updates, off.rc_updates, "batching lost decrements");
    FunnelRow {
        kernels,
        batch: FUNNEL_BATCH,
        ns_funnel_off: ns_off,
        ns_funnel_on: ns_on,
        contended_off: off.sm_contended,
        contended_on: on.sm_contended,
        contended_ratio: off.sm_contended as f64 / on.sm_contended.max(1) as f64,
        rc_rmws_off: off.rc_rmws,
        rc_rmws_on: on.rc_rmws,
    }
}

/// Best-of-`RUNS` sustained streaming measurement. Correctness (exact
/// completion counts, epoch-ordered dispatch) is asserted inside
/// `measure_stream` on every run, warmup included.
fn stream_row(kernels: u32) -> StreamRow {
    let program = pipeline(ARITY);
    let mut best: Option<tflux_bench::tsu_path::StreamMeasure> = None;
    for i in 0..WARMUP + RUNS {
        let m = measure_stream(&program, kernels, STREAM_EPOCHS);
        if i >= WARMUP && best.is_none_or(|b| m.ns_total < b.ns_total) {
            best = Some(m);
        }
    }
    let m = best.unwrap();
    StreamRow {
        kernels,
        epochs: m.epochs,
        ns_total: m.ns_total,
        completions: m.completions,
        completions_per_sec: m.completions_per_sec(),
        wrap_ns_per_epoch: m.wrap_ns_per_epoch(),
        wrap_fraction: m.wrap_fraction(),
    }
}

/// One steal-on vs steal-off comparison at `cores` cores (simulated).
fn steal_row(scenario: &'static str, program: &tflux_core::DdmProgram, cores: u32) -> StealRow {
    let on = sim_makespan(program, cores, true, STEAL_WORK);
    let off = sim_makespan(program, cores, false, STEAL_WORK);
    StealRow {
        scenario,
        cores,
        cycles_steal_on: on.cycles,
        cycles_steal_off: off.cycles,
        speedup: off.cycles as f64 / on.cycles.max(1) as f64,
        steals: on.steals,
        steal_misses: on.steal_misses,
        stolen_fetches: on.stolen_fetches,
    }
}

/// Best-of-`RUNS` host time of one memory-system stream; the simulated
/// columns are the same in every run.
fn memsys_row(stream: MemStream) -> MemsysRow {
    let best = (0..WARMUP + RUNS)
        .map(|_| memsys_stream(stream))
        .skip(WARMUP)
        .min_by_key(|m| m.host_ns)
        .unwrap();
    MemsysRow(stream, best)
}

/// Best-of-`RUNS` host time of the server mix; the counts are the same in
/// every run.
fn server_row() -> ServerRow {
    let best = (0..WARMUP + RUNS)
        .map(|_| server_mix())
        .skip(WARMUP)
        .min_by_key(|m| m.host_ns)
        .unwrap();
    ServerRow(best)
}

/// The CI smoke. Every gate keys on deterministic quantities — shard
/// counters and simulated cycles: the funnel line-transfer cut, streaming
/// epoch progress, the work-stealing makespans, the 64-core NUMA scaling
/// floors, the memory-system streams' access classes, the server mix's
/// wake-up counts and what constructing a threaded `Tsu` allocates.
fn check() -> ! {
    let k = *KERNELS.last().unwrap();
    let f = funnel_row(k);
    println!(
        "bench_tsu --check funnel at {k} kernels: contended off {} vs on {} \
         ({:.2}x), rc RMWs off {} vs on {}",
        f.contended_off, f.contended_on, f.contended_ratio, f.rc_rmws_off, f.rc_rmws_on
    );
    if f.contended_ratio < 1.5 {
        eprintln!("FAIL: completion funnel cuts line transfers by less than 1.5x");
        std::process::exit(1);
    }
    // streaming gate: the windowed SyncMemory must sustain at least 3
    // consecutive epochs per context slot with exact completion counts
    // (measure_stream asserts the counts and the per-dispatch epoch
    // internally) and without the wraps dominating the stream
    let s = measure_stream(&pipeline(ARITY), k, 3);
    println!(
        "bench_tsu --check streaming at {k} kernels: {} epochs, {:.0} completions/s, \
         wrap {:.0} ns/epoch ({:.2}% of wall clock)",
        s.epochs,
        s.completions_per_sec(),
        s.wrap_ns_per_epoch(),
        100.0 * s.wrap_fraction()
    );
    if s.epochs < 3 {
        eprintln!("FAIL: streaming did not sustain 3 consecutive epochs");
        std::process::exit(1);
    }
    if s.wrap_fraction() > 0.5 {
        eprintln!("FAIL: epoch wraparound dominates the stream");
        std::process::exit(1);
    }
    // work-stealing gates: simulated cycles, so the comparison is exact
    // and host-independent
    let imb = steal_row("imbalanced_fanout", &imbalanced_fanout(STEAL_ARITY), k);
    println!(
        "bench_tsu --check steal (imbalanced) at {k} cores: on {} vs off {} cycles \
         ({:.2}x, {} steals, {} misses)",
        imb.cycles_steal_on, imb.cycles_steal_off, imb.speedup, imb.steals, imb.steal_misses
    );
    if imb.speedup < 1.2 {
        eprintln!("FAIL: work-stealing does not beat no-steal FIFO on the imbalanced fanout");
        std::process::exit(1);
    }
    let bal = steal_row("balanced_fanout", &balanced_fanout(STEAL_ARITY), k);
    println!(
        "bench_tsu --check steal (balanced) at {k} cores: on {} vs off {} cycles ({:.2}x)",
        bal.cycles_steal_on, bal.cycles_steal_off, bal.speedup
    );
    let (lo, hi) = (
        bal.cycles_steal_on.min(bal.cycles_steal_off),
        bal.cycles_steal_on.max(bal.cycles_steal_off),
    );
    if hi * 100 > lo * 105 {
        eprintln!("FAIL: stealing perturbs the balanced fanout by more than 5%");
        std::process::exit(1);
    }
    // 64-core NUMA scaling gates: simulated cycles on the T3-4 preset,
    // so the thresholds hold on any host.
    let t3 = MachineConfig::sparc_t3_4(64).expect("64 kernels fit the T3-4");
    let numa = sim_scaling(Bench::Trapez, t3);
    println!(
        "bench_tsu --check scaling (trapez, sparc_t3_4 x64): {} cycles vs {} sequential \
         ({:.1}x speedup, {} remote-node transfers, {} channel-wait cycles)",
        numa.sim_cycles, numa.seq_cycles, numa.speedup, numa.remote_node, numa.channel_wait
    );
    if numa.speedup < 16.0 {
        eprintln!(
            "FAIL: 64-core T3-4 speedup {:.1}x is below the 16x floor",
            numa.speedup
        );
        std::process::exit(1);
    }
    if numa.remote_node == 0 {
        eprintln!("FAIL: 64-core T3-4 run paid no cross-node transfers — NUMA model inert");
        std::process::exit(1);
    }
    let bagle = sim_scaling(Bench::Trapez, MachineConfig::bagle(8));
    println!(
        "bench_tsu --check scaling (trapez, bagle x8): {:.1}x speedup",
        bagle.speedup
    );
    if bagle.speedup < 4.0 {
        eprintln!(
            "FAIL: 8-core Bagle speedup {:.1}x is below the 4x floor",
            bagle.speedup
        );
        std::process::exit(1);
    }
    // memory-system gates: each synthetic stream exercises the path it is
    // built for, and the model repeats exactly
    for stream in MemStream::ALL {
        let (a, b) = (memsys_stream(stream), memsys_stream(stream));
        let on_target = stream.on_target(&a);
        println!(
            "bench_tsu --check memsys ({}): {} of {} accesses in class, {} latency cycles \
             ({:.0} host ns per access, wall clock)",
            stream.name(),
            on_target,
            a.accesses,
            a.latency_cycles,
            a.host_ns_per_access()
        );
        if on_target * 100 < a.accesses * 95 {
            eprintln!("FAIL: memsys stream landed under 95% in the class it is built for");
            std::process::exit(1);
        }
        if (a.stats, a.latency_cycles) != (b.stats, b.latency_cycles) {
            eprintln!("FAIL: two runs of one memsys stream disagree");
            std::process::exit(1);
        }
    }
    // server gates: wake-ups are rung per published work rather than per
    // completion, and the counts are fixed by the mix
    let (a, b) = (server_mix(), server_mix());
    println!(
        "bench_tsu --check server ({SERVER_PROGRAMS} programs, {SERVER_KERNELS} kernels): {} completions, \
         {} pool + {} supervisor rings ({:.3} per completion) \
         ({:.1} host us per program, wall clock)",
        a.completions,
        a.pool_rings,
        a.supervisor_rings,
        a.rings_per_completion(),
        a.host_us_per_program()
    );
    if a.rings_per_completion() > 0.25 {
        eprintln!("FAIL: the server rings more than once per four completions");
        std::process::exit(1);
    }
    if a.counts() != b.counts() {
        eprintln!("FAIL: two runs of the server mix disagree on a count");
        std::process::exit(1);
    }
    // construction gate: queue units start small whatever the block, the
    // block load reaches each kernel in one hand-over per run, and the
    // counts repeat exactly
    let (a, b) = (ConstructionRow::measure(), ConstructionRow::measure());
    println!(
        "bench_tsu --check construction (fanout_reduce, {} kernels): {} bytes in {} \
         allocations, {} of them beyond the {}-byte ready-count table; {} allocations, \
         {} rings on kernel 1 and {} inbox locks draining {} instances",
        ConstructionRow::KERNELS,
        a.bytes,
        a.alloc_calls,
        a.beyond_table_bytes(),
        a.sm_table_bytes,
        a.drain_alloc_calls,
        a.rings,
        a.inbox_locks,
        a.instances
    );
    if a.beyond_table_bytes() > CONSTRUCTION_CEILING {
        eprintln!("FAIL: a threaded Tsu allocates more than 256 KiB beyond its ready-count table");
        std::process::exit(1);
    }
    if a.rings > RINGS_CEILING || a.inbox_locks > INBOX_LOCKS_CEILING {
        eprintln!(
            "FAIL: the block load is handed over per instance: more than \
             {RINGS_CEILING} rings or {INBOX_LOCKS_CEILING} inbox locks"
        );
        std::process::exit(1);
    }
    if a != b {
        eprintln!("FAIL: two constructions and drains disagree on a count");
        std::process::exit(1);
    }
    println!(
        "OK: completion funnel, epoch streaming, work-stealing, 64-core simulated \
         scaling, memsys access classes, server wake-up counts and construction \
         allocations and hand-overs hold (gates are host-independent counters and \
         simulated cycles)"
    );
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
    }
    let program = pipeline(ARITY);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &k in &KERNELS {
        let serial = best(&program, k, false);
        rows.push(row("serialized_single_drainer", k, serial));
        if k > 1 {
            let lockfree = best(&program, k, true);
            rows.push(row("lockfree_direct_update", k, lockfree));
            speedups.push(Speedup {
                kernels: k,
                lockfree_over_serialized: serial as f64 / lockfree as f64,
            });
        }
    }
    let funnel = KERNELS
        .iter()
        .filter(|&&k| k > 1)
        .map(|&k| funnel_row(k))
        .collect();
    let streaming = KERNELS.iter().map(|&k| stream_row(k)).collect();
    let steal = KERNELS
        .iter()
        .filter(|&&k| k > 1)
        .flat_map(|&k| {
            [
                steal_row("imbalanced_fanout", &imbalanced_fanout(STEAL_ARITY), k),
                steal_row("balanced_fanout", &balanced_fanout(STEAL_ARITY), k),
            ]
        })
        .collect();
    let scaling = scaling_machines()
        .into_iter()
        .flat_map(|(name, cfg)| Bench::ALL.map(|b| scaling_row(name, b, cfg)))
        .collect();
    let memsys = MemStream::ALL.map(memsys_row).into();
    let server = vec![server_row()];
    let construction = vec![ConstructionRow::measure()];
    let report = Report {
        bench: "tsu_completion_path",
        regenerate: "cargo run --release -p tflux-bench --bin bench_tsu",
        host_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        wall_clock_note: WALL_CLOCK_NOTE,
        arity: ARITY,
        rows,
        speedups,
        funnel,
        streaming,
        steal,
        scaling,
        memsys,
        server,
        construction,
    };
    let json = report.to_json().pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tsu.json");
    std::fs::write(path, json).expect("write BENCH_tsu.json");
    println!("wrote {path}");
    for s in std::fs::read_to_string(path).unwrap().lines() {
        println!("{s}");
    }
}
