//! The TSU fetch/complete hot path, isolated for measurement.
//!
//! Before the TSU decomposition, every App completion funneled through
//! the single TSU-owner thread (the TFluxSoft emulator): kernels published
//! instance ids and one thread performed all ready-count updates. After
//! the split, kernels call [`SyncMemory::complete`] themselves; the
//! ready counts now live in a lock-free table of atomic slots. This module
//! builds the paths on the *same* `SyncMemory` so the `bench_tsu` binary
//! (which writes `BENCH_tsu.json`) compares exactly the completion work,
//! with no body execution or queue noise. (The locked-shard interior the
//! table replaced was kept here as a reference until its numbers were
//! frozen in EXPERIMENTS.md, "SM completion path".)

use std::time::Instant;
use tflux_core::ids::Epoch;
use tflux_core::prelude::*;
use tflux_core::tsu::SyncMemory;

/// A two-stage `OneToOne` pipeline of `arity` instances per stage.
///
/// Every `produce[i]` completion decrements `consume[i]`'s ready count
/// through the shard of `consume[i]`'s owning kernel, so with the range
/// partition the update traffic of different kernels lands on different
/// shards — the case the sharding is designed for. The final reduction
/// into `sink` is *not* part of the measured set; it is the funnel case
/// the per-shard `contended` counter diagnoses at run time.
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

/// A Synchronization Memory with the block loaded and every first-stage
/// instance dispatched; returns the instances whose completions are the
/// measured work. The measured pass is epoch 0, so completers hand back
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

/// The kernel a single drainer acts as.
const K0: KernelId = KernelId(0);

/// Complete every instance from one thread — the pre-split model where a
/// single TSU owner performs all ready-count updates.
pub fn complete_serialized(sm: &SyncMemory<&DdmProgram>, work: &[Instance]) {
    let mut out = Vec::new();
    for &i in work {
        sm.complete(K0, i, E0, &mut out)
            .expect("serialized completion");
    }
}

/// Complete the instances from `kernels` threads, each completing the
/// instances it owns — the sharded direct-update path of the threaded
/// runtime.
pub fn complete_sharded(sm: &SyncMemory<&DdmProgram>, work: &[Instance], kernels: u32) {
    let gm = sm.graph();
    std::thread::scope(|s| {
        for k in 0..kernels {
            let mine: Vec<Instance> = work
                .iter()
                .copied()
                .filter(|&i| gm.owner_of(i) == KernelId(k))
                .collect();
            s.spawn(move || {
                let mut out = Vec::new();
                for i in mine {
                    sm.complete(KernelId(k), i, E0, &mut out)
                        .expect("sharded completion");
                }
            });
        }
    });
}

/// Nanoseconds to complete all first-stage instances of `program`, setup
/// excluded. `sharded = false` runs the single-drainer baseline.
pub fn measure(program: &DdmProgram, kernels: u32, sharded: bool) -> u64 {
    let (sm, work) = armed(program, kernels);
    let t = Instant::now();
    if sharded {
        complete_sharded(&sm, &work, kernels);
    } else {
        complete_serialized(&sm, &work);
    }
    let ns = t.elapsed().as_nanos() as u64;
    assert_eq!(
        sm.completions() as usize,
        work.len() + 1,
        "lost completions"
    );
    ns
}

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
    use tflux_core::tsu::TsuConfig;
    use tflux_sim::work::UniformWork;
    use tflux_sim::{Machine, MachineConfig};
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
/// `host_threads`, so `bench_tsu --check` can gate on them without
/// caring how parallel the CI runner happens to be.
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
pub fn sim_scaling(bench: tflux_workloads::Bench, cfg: tflux_sim::MachineConfig) -> ScalingMeasure {
    use tflux_workloads::common::Params;
    use tflux_workloads::setup::{sim_baseline, sim_setup, with_default_unroll};
    use tflux_workloads::sizes::SizeClass;
    let p = with_default_unroll(bench, Params::hard(cfg.cores, 0, SizeClass::Small));
    let machine = tflux_sim::Machine::new(cfg);
    let (prog, src) = sim_setup(bench, &p);
    let (sprog, ssrc) = sim_baseline(bench, &p);
    let seq = machine.run_sequential(&sprog, ssrc.as_ref());
    let par = machine.run(&prog, src.as_ref()).expect("sim run");
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
/// [`MemorySystem::access`](tflux_sim::memsys::MemorySystem::access) on
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
    pub stats: tflux_sim::memsys::MemStats,
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
    use tflux_sim::memsys::MemorySystem;
    let mut mem = MemorySystem::new(tflux_sim::MachineConfig::bagle(27));
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

/// One [`server_mix`] run. Everything but `host_ns` is a count fixed by
/// the mix (which completion readies something does not depend on the
/// interleaving) and repeats exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerMeasure {
    /// DThread completions over all programs (inlets and outlets included).
    pub completions: u64,
    /// Rings of the eventcount the pool kernels park on.
    pub pool_rings: u64,
    /// Rings of the eventcount the supervisor parks on.
    pub supervisor_rings: u64,
    /// Wall-clock nanoseconds from the first submit to the last report.
    pub host_ns: u64,
}

impl ServerMeasure {
    /// Host microseconds per program (wall clock).
    pub fn host_us_per_program(&self) -> f64 {
        self.host_ns as f64 / 1e3 / SERVER_PROGRAMS as f64
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
    server.shutdown();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_complete_every_instance() {
        let p = pipeline(64);
        let (sm, work) = armed(&p, 4);
        assert_eq!(work.len(), 64);
        complete_serialized(&sm, &work);
        assert_eq!(sm.completions(), 65); // inlet + 64

        let (sm, work) = armed(&p, 4);
        complete_sharded(&sm, &work, 4);
        assert_eq!(sm.completions(), 65);
        // every update went through a shard
        let updates: u64 = sm.shard_stats().iter().map(|s| s.rc_updates).sum();
        assert_eq!(updates, sm.stats().rc_updates);
    }

    #[test]
    fn funneled_drain_runs_every_instance_of_the_fanout() {
        let p = fanout_reduce();
        assert_eq!(p.total_instances(), 8 * 8192 + 3);
        let tsu = Tsu::threaded(&p, 2, Default::default());
        let order = tflux_core::tsu::drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
        let s = tsu.stats();
        assert_eq!(s.completions as usize, p.total_instances());
        assert!(s.rc_rmws < s.rc_updates, "the hot sink must be funneled");
    }

    #[test]
    fn measure_reports_nonzero_time() {
        let p = pipeline(128);
        assert!(measure(&p, 1, false) > 0);
        assert!(measure(&p, 2, true) > 0);
    }

    #[test]
    fn funnel_batches_cut_line_transfers() {
        let p = reduction(64);
        let (sm, work) = armed(&p, 4);
        complete_interleaved(&sm, &work, 4, 1);
        let off = sm.stats();
        let (sm, work) = armed(&p, 4);
        complete_interleaved(&sm, &work, 4, 8);
        let on = sm.stats();
        // identical logical work, far fewer RMWs and line transfers
        assert_eq!(on.rc_updates, off.rc_updates);
        assert_eq!(on.completions, off.completions);
        assert!(
            on.rc_rmws < off.rc_rmws,
            "{} !< {}",
            on.rc_rmws,
            off.rc_rmws
        );
        assert!(
            off.sm_contended as f64 >= 1.5 * on.sm_contended as f64,
            "funnel must cut line transfers ≥1.5x: off {} vs on {}",
            off.sm_contended,
            on.sm_contended
        );
    }

    #[test]
    fn stream_sustains_consecutive_epochs() {
        let p = pipeline(64);
        let m = measure_stream(&p, 4, 4);
        assert_eq!(m.epochs, 4);
        assert_eq!(m.completions, 4 * p.total_instances() as u64);
        assert!(m.completions_per_sec() > 0.0);
        assert!(m.wrap_ns_per_epoch() >= 0.0);
        assert!(m.wrap_fraction() < 1.0);
    }

    #[test]
    fn memsys_streams_land_in_their_class() {
        for stream in MemStream::ALL {
            let m = memsys_stream(stream);
            assert_eq!(m.stats.accesses(), m.accesses);
            assert!(
                stream.on_target(&m) * 100 >= m.accesses * 95,
                "{}: {:?}",
                stream.name(),
                m.stats
            );
        }
    }

    #[test]
    fn server_mix_counts_are_fixed_by_the_mix() {
        let (a, b) = (server_mix(), server_mix());
        assert_eq!(a.counts(), b.counts());
        assert!(a.rings_per_completion() <= 0.25, "{a:?}");
    }

    #[test]
    fn stealing_beats_no_steal_on_the_imbalanced_fanout() {
        let p = imbalanced_fanout(64);
        let on = sim_makespan(&p, 4, true, 200);
        let off = sim_makespan(&p, 4, false, 200);
        assert!(
            on.cycles * 12 < off.cycles * 10,
            "stealing must beat no-steal by >1.2x on the pinned fanout: \
             on {} vs off {}",
            on.cycles,
            off.cycles
        );
        assert!(on.steals > 0 && on.stolen_fetches > 0);
        assert_eq!(off.steals, 0);
    }

    #[test]
    fn stealing_is_noise_on_the_balanced_fanout() {
        let p = balanced_fanout(64);
        let on = sim_makespan(&p, 4, true, 200);
        let off = sim_makespan(&p, 4, false, 200);
        let (lo, hi) = (on.cycles.min(off.cycles), on.cycles.max(off.cycles));
        assert!(
            hi * 100 <= lo * 105,
            "balanced makespans must agree within 5%: on {} vs off {}",
            on.cycles,
            off.cycles
        );
    }
}
