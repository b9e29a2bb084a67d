//! The scenarios `bench_tsu` measures, the rows it writes to
//! `BENCH_tsu.json` from them, and the floors those rows are held to —
//! one scenario per shipping layer:
//!
//! * the completion funnel: App completions into one hot sink, completed
//!   directly or in batches on the same [`SyncMemory`], in a
//!   deterministic round-robin over the kernels ([`complete_interleaved`]);
//! * streaming epochs: consecutive passes through one windowed
//!   `SyncMemory` ([`measure_stream`]);
//! * work stealing and workload scaling, in simulated cycles on the
//!   `tflux-sim` machine ([`sim_makespan`], [`sim_scaling`]);
//! * synthetic streams through the simulator's memory system
//!   ([`memsys_stream`]);
//! * a fixed mix of small programs through a `ProgramServer`
//!   ([`server_mix`]).
//!
//! Every scenario's counts repeat exactly; only its wall-clock fields
//! depend on the host. Each floor is a unit test of this module that runs
//! the row's scenario at the row's size (the `construction` floor is
//! `bench_tsu`'s own test, since only that binary counts allocations):
//!
//! ```sh
//! cargo test --release -p tflux-bench
//! ```

use crate::json::{Json, ToJson};
use std::time::Instant;
use tflux_core::prelude::*;
use tflux_core::{Epoch, SyncMemory};
use tflux_sim::MachineConfig;
use tflux_workloads::Bench;

/// Instances per stage of the funnel and streaming scenarios.
pub const ARITY: u32 = 4096;
/// Kernel counts the funnel, streaming and steal rows sweep.
pub const KERNELS: [u32; 4] = [1, 2, 4, 8];
/// Completions per funnel flush in the reduction scenario.
pub const FUNNEL_BATCH: usize = 8;
/// Consecutive passes per context in the streaming scenario.
pub const STREAM_EPOCHS: u64 = 8;
/// Fanout width of the work-stealing scenarios (simulated, so it need
/// not match the wall-clock `ARITY`).
pub const STEAL_ARITY: u32 = 256;
/// Uniform compute cycles per instance in the steal scenarios.
pub const STEAL_WORK: u64 = 200;
const WARMUP: usize = 2;
const RUNS: usize = 7;

/// The run with the fewest wall-clock nanoseconds (`ns`) of `RUNS`
/// measurements, after `WARMUP` discarded ones.
fn best_of<M>(measure: impl FnMut() -> M, ns: impl Fn(&M) -> u64) -> M {
    std::iter::repeat_with(measure)
        .take(WARMUP + RUNS)
        .skip(WARMUP)
        .min_by_key(ns)
        .expect("RUNS > 0")
}

/// A two-stage `OneToOne` pipeline of `arity` instances per stage,
/// reduced into one scalar `sink`: the program the streaming scenario
/// drives pass after pass.
pub fn pipeline(arity: u32) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let produce = b.thread(blk, ThreadSpec::new("produce", arity));
    let consume = b.thread(blk, ThreadSpec::new("consume", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(produce, consume, ArcMapping::OneToOne).unwrap();
    b.arc(consume, sink, ArcMapping::Reduction).unwrap();
    b.build().unwrap()
}

/// A Synchronization Memory with the block loaded and every initially
/// ready instance dispatched; returns the instances whose completions are
/// the measured work. The measured pass is epoch 0, so completers hand back
/// `Epoch(0)` tokens.
pub fn armed(program: &DdmProgram, kernels: u32) -> (SyncMemory<&DdmProgram>, Vec<Instance>) {
    let sm = SyncMemory::new(program, kernels, 0);
    let mut ready = Vec::new();
    let inlet = sm.armed_inlet();
    let ep = sm.dispatch(Some(K0), inlet).expect("inlet dispatch");
    sm.complete(K0, inlet, ep, &mut ready)
        .expect("inlet completion");
    // the block is loaded; `ready` holds the zero-ready-count first stage
    let work = ready.clone();
    for &i in &work {
        sm.dispatch(Some(K0), i).expect("work dispatch");
    }
    (sm, work)
}

/// The epoch token of the one-shot measured pass.
const E0: Epoch = Epoch(0);

/// The kernel a single-threaded driver acts as.
const K0: KernelId = KernelId(0);

/// A wide fan-in: every one of `arity` producers feeds the same scalar
/// sink through a `Reduction` arc — the hot-sink case the completion
/// funnel exists for. Every producer completion decrements the *same*
/// two slots (sink and outlet), so with K kernels completing in an
/// interleaved order those cache lines transfer between kernels on
/// nearly every update.
pub fn reduction(arity: u32) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    b.build().unwrap()
}

/// Complete `work` in a deterministic round-robin over the kernels,
/// `batch` completions per turn (1 = the direct path, one RMW pair per
/// completion; >1 = the funnel path, one `complete_batch` per turn).
/// The round-robin is the adversarial interleaving: consecutive updates
/// of the sink's slot come from different kernels, so the `contended`
/// line-transfer counter records the ping-pong the funnel eliminates.
/// Returns elapsed nanoseconds; read `sm.stats()` for the counters.
pub fn complete_interleaved(
    sm: &SyncMemory<&DdmProgram>,
    work: &[Instance],
    kernels: u32,
    batch: usize,
) -> u64 {
    let gm = sm.graph();
    let mut by_k: Vec<Vec<Instance>> = vec![Vec::new(); kernels as usize];
    for &i in work {
        by_k[gm.owner_of(i).idx()].push(i);
    }
    let batch = batch.max(1);
    let mut out = Vec::new();
    let mut cursor = vec![0usize; kernels as usize];
    let mut remaining = work.len();
    let t = Instant::now();
    while remaining > 0 {
        for k in 0..kernels as usize {
            let c = cursor[k];
            if c >= by_k[k].len() {
                continue;
            }
            let hi = (c + batch).min(by_k[k].len());
            if batch == 1 {
                sm.complete(KernelId(k as u32), by_k[k][c], E0, &mut out)
                    .expect("direct completion");
            } else {
                sm.complete_batch(KernelId(k as u32), &by_k[k][c..hi], E0, &mut out)
                    .expect("batched completion");
            }
            cursor[k] = hi;
            remaining -= hi - c;
        }
    }
    t.elapsed().as_nanos() as u64
}

/// The outcome of a sustained streaming run: `epochs` consecutive passes
/// of the same program through one windowed [`SyncMemory`], each pass
/// re-using the context slots the previous pass just vacated.
#[derive(Debug, Clone, Copy)]
pub struct StreamMeasure {
    /// Wall-clock nanoseconds for the whole stream, wraps included.
    pub ns_total: u64,
    /// Completions processed across all passes (incl. inlets/outlets).
    pub completions: u64,
    /// Passes driven to the outlet.
    pub epochs: u64,
    /// Nanoseconds spent inside the epoch wraps themselves — the
    /// `retire_epoch` + `open_epoch` pair that hands the drained pass's
    /// credit back and re-arms every context slot for the next pass.
    pub wrap_ns: u64,
}

impl StreamMeasure {
    /// Steady-state completion throughput over the whole stream.
    pub fn completions_per_sec(&self) -> f64 {
        self.completions as f64 / (self.ns_total.max(1) as f64 / 1e9)
    }

    /// Average nanoseconds per epoch wrap (0 for a single pass).
    pub fn wrap_ns_per_epoch(&self) -> f64 {
        if self.epochs <= 1 {
            0.0
        } else {
            self.wrap_ns as f64 / (self.epochs - 1) as f64
        }
    }

    /// Fraction of the stream's wall clock spent wrapping epochs.
    pub fn wrap_fraction(&self) -> f64 {
        self.wrap_ns as f64 / self.ns_total.max(1) as f64
    }
}

/// Drive `epochs` consecutive passes of `program` through one windowed
/// `SyncMemory` and measure steady-state throughput plus the wraparound
/// overhead. Each pass is drained by a dependency-order worklist (no
/// queue or body noise, same as the one-shot scenarios); between passes
/// the drained epoch is retired and the next one opened, which re-arms
/// every context slot in place. Panics on any protocol error — a stale
/// token or a corrupted ready count cannot pass silently.
pub fn measure_stream(program: &DdmProgram, kernels: u32, epochs: u64) -> StreamMeasure {
    let sm = SyncMemory::with_window(program, kernels, 0, 2);
    let per_pass = program.total_instances() as u64;
    let mut frontier = vec![sm.armed_inlet()];
    let mut out = Vec::new();
    let mut wrap_ns = 0u64;
    let t = Instant::now();
    for e in 0..epochs {
        while let Some(i) = frontier.pop() {
            let ep = sm.dispatch(Some(K0), i).expect("stream dispatch");
            assert_eq!(ep.0, e, "instance dispatched under the wrong epoch");
            sm.complete(K0, i, ep, &mut out).expect("stream completion");
            frontier.append(&mut out);
        }
        assert!(sm.finished(), "pass did not drain");
        if e + 1 < epochs {
            let w = Instant::now();
            sm.retire_epoch(Epoch(e)).expect("retire drained epoch");
            sm.open_epoch(&mut frontier).expect("open next epoch");
            wrap_ns += w.elapsed().as_nanos() as u64;
        }
    }
    let ns_total = t.elapsed().as_nanos() as u64;
    sm.retire_epoch(Epoch(epochs - 1))
        .expect("retire final epoch");
    let measured = StreamMeasure {
        ns_total,
        completions: sm.completions(),
        epochs,
        wrap_ns,
    };
    assert_eq!(
        measured.completions,
        epochs * per_pass,
        "cross-epoch ready-count corruption: completions diverged"
    );
    measured
}

/// `bench_e2e`'s `fanout_reduce` shape: 8 threads × 8192 into one
/// Reduction sink, a 65 539-instance block — the widest the runtime is
/// benchmarked on, so the shape its construction cost is gated on.
pub fn fanout_reduce() -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let fans: Vec<ThreadId> = (0..8)
        .map(|_| b.thread(blk, ThreadSpec::new("fan", 8192)))
        .collect();
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    for fan in fans {
        b.arc(fan, sink, ArcMapping::Reduction).unwrap();
    }
    b.build().unwrap()
}

/// Imbalanced fanout: every `work` instance is pinned to kernel 0 — one
/// producer kernel, N−1 consumers with empty local queues. Without
/// stealing, core 0 drains the whole stage serially while the others
/// park; with stealing, the idle cores take the oldest entries from
/// kernel 0's deque. The makespan gap between the two is the value of
/// the work-stealing layer, and it is measured in *simulated* cycles
/// ([`sim_makespan`]) so the comparison is deterministic and
/// host-independent.
pub fn imbalanced_fanout(arity: u32) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(
        blk,
        ThreadSpec::new("work", arity).with_affinity(Affinity::Fixed(KernelId(0))),
    );
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    b.build().unwrap()
}

/// The same fanout shape, range-partitioned across kernels — the control
/// scenario: each kernel owns an equal slice, so stealing has (almost)
/// nothing to move and must not slow the balanced case down.
pub fn balanced_fanout(arity: u32) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    b.build().unwrap()
}

/// One deterministic steal measurement: simulated makespan plus the
/// steal counters of the run.
#[derive(Debug, Clone, Copy)]
pub struct StealMeasure {
    /// Simulated makespan in cycles (last core's finish time).
    pub cycles: u64,
    /// Successful steals (entries executed away from their owner).
    pub steals: u64,
    /// Victim probes that found the victim empty.
    pub steal_misses: u64,
    /// Fetches the TSU device served by walking a sibling queue (each
    /// charged [`tflux_sim::TsuCosts::steal`] extra cycles).
    pub stolen_fetches: u64,
}

/// Run `program` on the simulated Bagle machine with `cores` cores and
/// `work_cycles` of uniform compute per instance, stealing on or off.
/// Fully deterministic: same inputs, same cycle count, any host.
pub fn sim_makespan(
    program: &DdmProgram,
    cores: u32,
    steal: bool,
    work_cycles: u64,
) -> StealMeasure {
    use tflux_core::TsuConfig;
    use tflux_sim::work::UniformWork;
    use tflux_sim::Machine;
    let r = Machine::new(MachineConfig::bagle(cores))
        .with_tsu_config(TsuConfig {
            steal,
            ..TsuConfig::default()
        })
        .run(
            program,
            &UniformWork {
                cycles: work_cycles,
            },
        )
        .expect("sim run");
    StealMeasure {
        cycles: r.cycles,
        steals: r.tsu.steals,
        steal_misses: r.tsu.steal_misses,
        stolen_fetches: r.dev.stolen_fetches,
    }
}

/// One simulated scaling point: a full workload run on a machine preset,
/// priced against the zero-overhead sequential baseline on the *same*
/// machine. All fields are simulated — identical on any host, any
/// `host_threads`, so a floor can key on them without caring how
/// parallel the test host happens to be.
#[derive(Debug, Clone, Copy)]
pub struct ScalingMeasure {
    /// Parallel makespan in simulated cycles.
    pub sim_cycles: u64,
    /// Sequential zero-overhead baseline on the same machine, in cycles.
    pub seq_cycles: u64,
    /// `seq_cycles / sim_cycles` — the paper's speedup metric.
    pub speedup: f64,
    /// Cross-NUMA-node transfers observed (0 on flat topologies).
    pub remote_node: u64,
    /// Cycles spent queued on saturated node memory channels.
    pub channel_wait: u64,
    /// Successful steals during the parallel run.
    pub steals: u64,
}

/// Run `bench` at `Small` size with one kernel per core of `cfg` and
/// report the simulated speedup over the sequential baseline.
pub fn sim_scaling(bench: Bench, cfg: MachineConfig) -> ScalingMeasure {
    use tflux_workloads::setup::with_default_unroll;
    use tflux_workloads::sizes::SizeClass;
    use tflux_workloads::Params;
    let p = with_default_unroll(bench, Params::hard(cfg.cores, 0, SizeClass::Small));
    let (par, seq) = crate::figures::sim_run(bench, &tflux_sim::Machine::new(cfg), &p);
    ScalingMeasure {
        sim_cycles: par.cycles,
        seq_cycles: seq.cycles,
        speedup: par.speedup_over(&seq),
        remote_node: par.mem.remote_node,
        channel_wait: par.mem.channel_wait,
        steals: par.tsu.steals,
    }
}

/// A synthetic access stream driven straight at
/// [`MemorySystem::access`](tflux_sim::MemorySystem::access) on
/// `bagle(27)`: the micro layer under `bench_e2e`'s `sim_mem_bound`, one
/// stream per path through the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemStream {
    /// Core 0 re-reads 256 lines, half its L1.
    L1Resident,
    /// Core 0 walks 8192 lines (16× its L1, a quarter of its L2) line by
    /// line, 32 times over: an L1 miss and an L2 hit per access, the
    /// regime MMULT Large spends its time in.
    L2Walk,
    /// Core 0 reads a new L2 line every access: all main memory.
    ColdWalk,
    /// Cores 0 and 1 (separate L2 groups) write one line in turn, a round
    /// commit between: every write takes the line from the other's cache.
    PingPong,
}

impl MemStream {
    /// Every stream, in `BENCH_tsu.json` row order.
    pub const ALL: [MemStream; 4] = [
        MemStream::L1Resident,
        MemStream::L2Walk,
        MemStream::ColdWalk,
        MemStream::PingPong,
    ];

    /// The row's `stream` column.
    pub fn name(self) -> &'static str {
        match self {
            MemStream::L1Resident => "l1_resident",
            MemStream::L2Walk => "l2_walk",
            MemStream::ColdWalk => "cold_walk",
            MemStream::PingPong => "ping_pong",
        }
    }

    fn accesses(self) -> u64 {
        match self {
            MemStream::L1Resident | MemStream::L2Walk => 1 << 18,
            MemStream::ColdWalk => 1 << 16,
            MemStream::PingPong => 1 << 14,
        }
    }

    /// Accesses between round commits: one of the machine's 64-access
    /// chunks, except where the stream is about the commit itself.
    fn commit_every(self) -> u64 {
        match self {
            MemStream::PingPong => 1,
            _ => 64,
        }
    }

    /// The `i`-th access: `(core, byte address, write)`.
    fn access(self, i: u64) -> (u32, u64, bool) {
        match self {
            MemStream::L1Resident => (0, i % 256 * 64, false),
            MemStream::L2Walk => (0, i % 8192 * 64, false),
            MemStream::ColdWalk => (0, i * 128, false),
            MemStream::PingPong => ((i % 2) as u32, 0, true),
        }
    }

    /// Accesses of `m` that landed in the class the stream is built for.
    pub fn on_target(self, m: &MemsysMeasure) -> u64 {
        match self {
            MemStream::L1Resident => m.stats.l1_hits,
            MemStream::L2Walk => m.stats.l2_hits,
            MemStream::ColdWalk => m.stats.mem_misses,
            MemStream::PingPong => m.stats.remote_hits,
        }
    }
}

/// One run of a [`MemStream`]. Everything but `host_ns` is simulated and
/// repeats exactly.
#[derive(Debug, Clone, Copy)]
pub struct MemsysMeasure {
    /// Accesses issued.
    pub accesses: u64,
    /// The memory system's counters after the last access.
    pub stats: tflux_sim::MemStats,
    /// Sum of the latencies the accesses were charged, in cycles.
    pub latency_cycles: u64,
    /// Wall-clock nanoseconds for the stream, construction excluded.
    pub host_ns: u64,
}

impl MemsysMeasure {
    /// Host nanoseconds per simulated access (wall clock).
    pub fn host_ns_per_access(&self) -> f64 {
        self.host_ns as f64 / self.accesses as f64
    }
}

/// Drive `stream` through a fresh `bagle(27)` memory system, each access
/// issuing when the previous one returns, rounds committed as the stream
/// prescribes.
pub fn memsys_stream(stream: MemStream) -> MemsysMeasure {
    use tflux_sim::MemorySystem;
    let mut mem = MemorySystem::new(MachineConfig::bagle(27)).expect("a valid preset");
    let accesses = stream.accesses();
    let mut now = 0u64;
    let t = Instant::now();
    for i in 0..accesses {
        let (core, addr, write) = stream.access(i);
        now += mem.access(core, now, addr, write).0;
        if (i + 1) % stream.commit_every() == 0 {
            mem.commit_round();
        }
    }
    let host_ns = t.elapsed().as_nanos() as u64;
    MemsysMeasure {
        accesses,
        stats: mem.stats(),
        latency_cycles: now,
        host_ns,
    }
}

/// Programs in one [`server_mix`] run.
pub const SERVER_PROGRAMS: usize = 2000;
/// Pool kernels of the [`server_mix`] server.
pub const SERVER_KERNELS: u32 = 2;
/// Programs the [`server_mix`] submitter keeps in flight.
const SERVER_OUTSTANDING: usize = 8;
/// Passes of every tenth [`server_mix`] program.
const SERVER_STREAM_EPOCHS: u64 = 8;

/// One [`server_mix`] run. The rings and completions are counts fixed by
/// the mix (which completion readies something does not depend on the
/// interleaving) and repeat exactly; `host_ns` and the turn counts depend
/// on timing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerMeasure {
    /// DThread completions over all programs (inlets and outlets included).
    pub completions: u64,
    /// Rings of the eventcount the pool kernels park on.
    pub pool_rings: u64,
    /// Rings of the eventcount the supervisor parks on.
    pub supervisor_rings: u64,
    /// Turns the pool kernels gave tenants.
    pub turns: u64,
    /// Turns that found nothing runnable.
    pub empty_turns: u64,
    /// Wall-clock nanoseconds from the first submit to the last report.
    pub host_ns: u64,
}

impl ServerMeasure {
    /// Host microseconds per program (wall clock).
    pub fn host_us_per_program(&self) -> f64 {
        self.host_ns as f64 / 1e3 / SERVER_PROGRAMS as f64
    }

    /// Pool-kernel turns per program (timing-dependent).
    pub fn turns_per_program(&self) -> f64 {
        self.turns as f64 / SERVER_PROGRAMS as f64
    }

    /// Turns that ran nothing, per program (timing-dependent).
    pub fn empty_turns_per_program(&self) -> f64 {
        self.empty_turns as f64 / SERVER_PROGRAMS as f64
    }

    /// Eventcount rings per DThread completion.
    pub fn rings_per_completion(&self) -> f64 {
        (self.pool_rings + self.supervisor_rings) as f64 / self.completions as f64
    }

    /// The columns that must repeat exactly.
    pub fn counts(&self) -> [u64; 3] {
        [self.completions, self.pool_rings, self.supervisor_rings]
    }
}

/// [`SERVER_PROGRAMS`] small programs through a [`SERVER_KERNELS`]-kernel
/// [`ProgramServer`](tflux_runtime::ProgramServer), one submitter keeping
/// 8 outstanding: programs cycle through 1 and 2 blocks of `work(16) →
/// sink`, then 1 and 2 blocks of `work(64) → sink`, and every tenth is a
/// `.stream(8)` tenant. Every sink's sum is checked.
pub fn server_mix() -> ServerMeasure {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;
    use tflux_runtime::{BodyTable, ProgramServer, ServerConfig, Submission, Submit};

    /// `blocks` blocks of `work(arity) → sink`, with the thread ids.
    fn shape(blocks: usize, arity: u32) -> (Arc<DdmProgram>, Vec<(ThreadId, ThreadId)>) {
        let mut b = ProgramBuilder::new();
        let threads = (0..blocks)
            .map(|_| {
                let blk = b.block();
                let work = b.thread(blk, ThreadSpec::new("work", arity));
                let sink = b.thread(blk, ThreadSpec::scalar("sink"));
                b.arc(work, sink, ArcMapping::Reduction).unwrap();
                (work, sink)
            })
            .collect();
        (Arc::new(b.build().unwrap()), threads)
    }

    const SHAPES: [(usize, u32); 4] = [(1, 16), (2, 16), (1, 64), (2, 64)];
    let shapes = SHAPES.map(|(blocks, arity)| shape(blocks, arity));
    let server = ProgramServer::start(
        ServerConfig::with_kernels(SERVER_KERNELS).max_resident(SERVER_OUTSTANDING),
    );
    let mut m = ServerMeasure::default();
    let mut flying = VecDeque::with_capacity(SERVER_OUTSTANDING);
    let mut reap = |flying: &mut VecDeque<(tflux_runtime::Admission, Arc<AtomicU64>, u64)>| {
        let (adm, sum, want) = flying.pop_front().expect("something in flight");
        let report = adm.wait().expect("a fault-free program finishes");
        assert_eq!(sum.load(Relaxed), want, "{:?} summed wrong", report.id);
        m.completions += report.tsu.completions;
    };
    let t = Instant::now();
    for n in 0..SERVER_PROGRAMS {
        if flying.len() == SERVER_OUTSTANDING {
            reap(&mut flying);
        }
        let (blocks, arity) = SHAPES[n % 4];
        let (program, threads) = &shapes[n % 4];
        let epochs = if n % 10 == 9 { SERVER_STREAM_EPOCHS } else { 1 };
        let sum = Arc::new(AtomicU64::new(0));
        let mut bodies = BodyTable::new(program);
        for &(work, sink) in threads {
            let cells: Arc<Vec<AtomicU64>> =
                Arc::new((0..arity).map(|_| AtomicU64::new(0)).collect());
            let written = Arc::clone(&cells);
            bodies.set(work, move |c| {
                written[c.context.0 as usize].store(1 + c.context.0 as u64, Relaxed);
            });
            let sum = Arc::clone(&sum);
            bodies.set(sink, move |_| {
                sum.fetch_add(cells.iter().map(|c| c.load(Relaxed)).sum(), Relaxed);
            });
        }
        let want = epochs * blocks as u64 * (1..=arity as u64).sum::<u64>();
        let adm = server
            .submit(
                Submission::new(Arc::clone(program), bodies).stream(epochs),
                Submit::Block,
            )
            .expect("8 outstanding fit the admission queue");
        flying.push_back((adm, sum, want));
    }
    while !flying.is_empty() {
        reap(&mut flying);
    }
    m.host_ns = t.elapsed().as_nanos() as u64;
    // every ring a tenant causes is issued right behind a completion that
    // precedes its report; shutdown's own two come after this snapshot
    let stats = server.stats();
    m.pool_rings = stats.pool_rings;
    m.supervisor_rings = stats.supervisor_rings;
    m.turns = stats.turns;
    m.empty_turns = stats.empty_turns;
    server.shutdown();
    m
}

/// One funnel-on vs funnel-off comparison on the reduction scenario.
/// The counters are deterministic (the driver interleaves round-robin);
/// only the wall-clock fields vary between hosts.
pub struct FunnelRow {
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

/// One funnel-off vs funnel-on measurement of `reduction(ARITY)`:
/// deterministic round-robin interleaving, best-of-`RUNS` wall clock.
/// Panics if batching changes the logical work.
pub fn funnel_row(kernels: u32) -> FunnelRow {
    let program = reduction(ARITY);
    let run = |batch: usize| {
        best_of(
            || {
                let (sm, work) = armed(&program, kernels);
                let ns = complete_interleaved(&sm, &work, kernels, batch);
                (ns, sm.stats())
            },
            |&(ns, _)| ns,
        )
    };
    let (ns_off, off) = run(1);
    let (ns_on, on) = run(FUNNEL_BATCH);
    assert_eq!(on.rc_updates, off.rc_updates, "batching lost decrements");
    assert_eq!(on.completions, off.completions, "batching lost completions");
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

/// One sustained-throughput streaming measurement: `epochs` consecutive
/// passes through one windowed SyncMemory, context slots re-armed in
/// place at every wrap. The wrap columns price the epoch turnaround
/// (`retire_epoch` + `open_epoch`) against the steady-state completion
/// work it buys.
pub struct StreamRow(u32, StreamMeasure);

impl ToJson for StreamRow {
    fn to_json(&self) -> Json {
        let StreamRow(kernels, m) = self;
        Json::obj([
            ("kernels", kernels.to_json()),
            ("epochs", m.epochs.to_json()),
            ("ns_total", m.ns_total.to_json()),
            ("completions", m.completions.to_json()),
            ("completions_per_sec", m.completions_per_sec().to_json()),
            ("wrap_ns_per_epoch", m.wrap_ns_per_epoch().to_json()),
            ("wrap_fraction", m.wrap_fraction().to_json()),
        ])
    }
}

/// Best-of-`RUNS` sustained streaming measurement of `pipeline(ARITY)`
/// over `STREAM_EPOCHS` passes. Correctness (exact completion counts,
/// epoch-ordered dispatch) is asserted inside `measure_stream` on every
/// run, warmup included.
pub fn stream_row(kernels: u32) -> StreamRow {
    let program = pipeline(ARITY);
    let best = best_of(
        || measure_stream(&program, kernels, STREAM_EPOCHS),
        |m| m.ns_total,
    );
    StreamRow(kernels, best)
}

/// One work-stealing comparison: the same fanout simulated with stealing
/// on and off. Simulated cycles — fully deterministic, identical on any
/// host (unlike the wall-clock rows).
pub struct StealRow {
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

/// One steal-on vs steal-off comparison at `cores` cores (simulated),
/// `STEAL_WORK` cycles per instance. Panics if the run with stealing off
/// steals.
pub fn steal_row(scenario: &'static str, program: &DdmProgram, cores: u32) -> StealRow {
    let on = sim_makespan(program, cores, true, STEAL_WORK);
    let off = sim_makespan(program, cores, false, STEAL_WORK);
    assert_eq!(
        (off.steals, off.stolen_fetches),
        (0, 0),
        "{scenario}: a run with stealing off stole"
    );
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

/// One simulated-cycle scaling row: a full workload on a machine preset,
/// speedup over the zero-overhead sequential baseline on the same
/// machine. Host-independent: these rows carry the scaling floors,
/// because they cannot be perturbed by how many host threads the runner
/// happens to have.
pub struct ScalingRow {
    topology: &'static str,
    bench: Bench,
    cores: u32,
    m: ScalingMeasure,
}

impl ToJson for ScalingRow {
    fn to_json(&self) -> Json {
        let m = &self.m;
        Json::obj([
            ("topology", self.topology.to_json()),
            ("bench", self.bench.name().to_json()),
            ("cores", self.cores.to_json()),
            ("sim_cycles", m.sim_cycles.to_json()),
            ("seq_cycles", m.seq_cycles.to_json()),
            ("speedup", m.speedup.to_json()),
            ("remote_node", m.remote_node.to_json()),
            ("channel_wait", m.channel_wait.to_json()),
            ("steals", m.steals.to_json()),
        ])
    }
}

/// Machine presets the scaling rows sweep: the paper's flat UMA board
/// and the 64-core 4-node NUMA part.
pub fn scaling_machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("bagle", MachineConfig::bagle(8)),
        (
            "sparc_t3_4",
            MachineConfig::sparc_t3_4(64).expect("64 kernels fit the T3-4"),
        ),
    ]
}

/// `bench` at `Small` size on `cfg`, one kernel per core.
pub fn scaling_row(topology: &'static str, bench: Bench, cfg: MachineConfig) -> ScalingRow {
    ScalingRow {
        topology,
        bench,
        cores: cfg.cores,
        m: sim_scaling(bench, cfg),
    }
}

/// One synthetic stream through `MemorySystem::access` on `bagle(27)`.
/// `host_ns_per_access` is wall clock; every other column is simulated
/// and identical on any host, which is what the floor keys on.
pub struct MemsysRow(MemStream, MemsysMeasure);

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

/// Best-of-`RUNS` host time of one memory-system stream; the simulated
/// columns are the same in every run.
pub fn memsys_row(stream: MemStream) -> MemsysRow {
    MemsysRow(stream, best_of(|| memsys_stream(stream), |m| m.host_ns))
}

/// The fixed program mix through a `SERVER_KERNELS`-kernel `ProgramServer`.
/// `host_us_per_program` is wall clock and the turn columns beside it
/// depend on timing; the other counts are fixed by the mix and identical
/// on any host, which is what the floor keys on.
pub struct ServerRow(ServerMeasure);

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
            ("turns_per_program", m.turns_per_program().to_json()),
            (
                "empty_turns_per_program",
                m.empty_turns_per_program().to_json(),
            ),
        ])
    }
}

/// Best-of-`RUNS` host time of the server mix; the counts are the same in
/// every run.
pub fn server_row() -> ServerRow {
    ServerRow(best_of(server_mix, |m| m.host_ns))
}

/// The floors: each test runs the scenario of a `BENCH_tsu.json` row at
/// the row's size and holds it to the bound the row is read against.
/// Every floor but the streaming wrap share keys on counts or simulated
/// cycles, so its verdict is the same on any host.
#[cfg(test)]
mod tests {
    use super::*;

    const MOST_KERNELS: u32 = KERNELS[KERNELS.len() - 1];

    #[test]
    fn funnel_batches_cut_line_transfers() {
        let f = funnel_row(MOST_KERNELS);
        assert!(
            f.contended_ratio >= 1.5,
            "the funnel must cut line transfers by >= 1.5x: off {} vs on {}",
            f.contended_off,
            f.contended_on
        );
        assert!(
            f.rc_rmws_on < f.rc_rmws_off,
            "{} !< {}",
            f.rc_rmws_on,
            f.rc_rmws_off
        );
    }

    #[test]
    fn stream_sustains_consecutive_epochs() {
        let p = pipeline(ARITY);
        // completion counts and per-dispatch epochs are asserted inside
        let m = measure_stream(&p, MOST_KERNELS, 3);
        assert!(m.epochs >= 3, "{m:?}");
        assert_eq!(m.completions, m.epochs * p.total_instances() as u64);
        assert!(m.completions_per_sec() > 0.0 && m.wrap_ns_per_epoch() >= 0.0);
        // the one floor that reads wall clock: epoch wraps must not
        // dominate the stream (they take well under 1 % of it)
        assert!(m.wrap_fraction() <= 0.5, "{m:?}");
    }

    #[test]
    fn stealing_beats_no_steal_on_the_imbalanced_fanout() {
        let r = steal_row(
            "imbalanced_fanout",
            &imbalanced_fanout(STEAL_ARITY),
            MOST_KERNELS,
        );
        assert!(
            r.speedup >= 1.2,
            "stealing must beat no-steal by >= 1.2x on the pinned fanout: on {} vs off {}",
            r.cycles_steal_on,
            r.cycles_steal_off
        );
        assert!(r.steals > 0 && r.stolen_fetches > 0);
    }

    #[test]
    fn stealing_is_noise_on_the_balanced_fanout() {
        let r = steal_row(
            "balanced_fanout",
            &balanced_fanout(STEAL_ARITY),
            MOST_KERNELS,
        );
        let (on, off) = (r.cycles_steal_on, r.cycles_steal_off);
        assert!(
            on.max(off) * 100 <= on.min(off) * 105,
            "balanced makespans must agree within 5%: on {on} vs off {off}"
        );
    }

    #[test]
    fn committed_steal_rows_match_the_code() {
        // the rows are simulated cycles, so the committed file must hold
        // exactly what the code computes now
        let squash = |s: &str| s.split_whitespace().collect::<String>();
        let committed = squash(include_str!("../../../BENCH_tsu.json"));
        for k in KERNELS.into_iter().filter(|&k| k > 1) {
            for (name, p) in [
                ("imbalanced_fanout", imbalanced_fanout(STEAL_ARITY)),
                ("balanced_fanout", balanced_fanout(STEAL_ARITY)),
            ] {
                let row = steal_row(name, &p, k).to_json().pretty();
                assert!(
                    committed.contains(&squash(&row)),
                    "BENCH_tsu.json's {name} row at {k} cores is stale; it is now\n{row}\
                     regenerate with `cargo run --release -p tflux-bench --bin bench_tsu`"
                );
            }
        }
    }

    #[test]
    fn trapez_scales_on_both_machines() {
        for (name, cfg) in scaling_machines() {
            let r = scaling_row(name, Bench::Trapez, cfg);
            let floor = if name == "sparc_t3_4" { 16.0 } else { 4.0 };
            assert!(
                r.m.speedup >= floor,
                "{name} x{}: {:.1}x is below the {floor}x floor",
                r.cores,
                r.m.speedup
            );
            if name == "sparc_t3_4" {
                assert!(r.m.remote_node > 0, "the NUMA model is inert: {:?}", r.m);
            }
        }
    }

    #[test]
    fn memsys_streams_land_in_their_class() {
        for stream in MemStream::ALL {
            let (a, b) = (memsys_stream(stream), memsys_stream(stream));
            assert_eq!(a.stats.accesses(), a.accesses);
            assert!(
                stream.on_target(&a) * 100 >= a.accesses * 95,
                "{}: {:?}",
                stream.name(),
                a.stats
            );
            assert_eq!((a.stats, a.latency_cycles), (b.stats, b.latency_cycles));
        }
    }

    #[test]
    fn server_mix_counts_are_fixed_by_the_mix() {
        let (a, b) = (server_mix(), server_mix());
        assert!(a.rings_per_completion() <= 0.25, "{a:?}");
        assert_eq!(a.counts(), b.counts());
    }
}
