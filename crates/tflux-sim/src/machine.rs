//! The simulated machine: cores running the Fig. 2 kernel loop against the
//! TSU device and the memory hierarchy, driven by a deterministic
//! discrete-event loop.
//!
//! Cores execute DThread instances as chunks of memory accesses interleaved
//! with compute cycles; every chunk boundary is an event, which keeps cores
//! loosely synchronized so bus arbitration and coherence see a realistic
//! interleaving without paying for an event per access.
//!
//! # Rounds
//!
//! Time advances in *rounds*. A round starts at the earliest pending event
//! cycle `t0` and spans `R = MachineConfig::merge_round_len()` cycles, in
//! three phases:
//!
//! 1. **Drain** — events earlier than `t0 + R` are popped in canonical
//!    `(cycle, lane)` order. `Chunk` events execute immediately against the
//!    core's memory domain (reading the shared snapshot, writing a private
//!    overlay); they only ever push follow-up events onto their own lane.
//!    `Fetch` events and chunk completions are *deferred* into the batch, a
//!    second [`EventQueue`] of [`DevOp`]s on the same `(cycle, lane)` keys —
//!    TSU-device state is global, so device commands wait until every lane
//!    has reached the round boundary.
//! 2. **Replay** — the batch drains in `(cycle, lane)` order. Device
//!    commands run here, as methods on the one [`Run`] state; fetches they
//!    spawn inside the round join the batch, chunk work always lands on the
//!    event queue for the next round. The device keeps its parked cores as
//!    a bitmask and retries them in ascending core order.
//! 3. **Commit** — every domain's memory overlay merges into the shared
//!    snapshot in domain-index order ([`crate::memsys`]).
//!
//! The rounds are the *model*, not an execution strategy: they fix when one
//! core's coherence traffic and TSU commands become visible to another, and
//! `tests/sim_report_pins.rs` pins the reports they produce.

use crate::config::MachineConfig;
use crate::error::SimError;
use crate::event::EventQueue;
use crate::memsys::{MemStats, MemorySystem};
use crate::report::SimReport;
use crate::tsu_dev::{DevFetch, TsuDevice};
use crate::work::{InstanceWork, WorkSource};
use tflux_core::{
    drain_sequential, DdmProgram, Epoch, ExecTrace, FlushPolicy, Instance, Tsu, TsuConfig,
};

/// Accesses per scheduling quantum. Chunking trades event-queue overhead
/// against interleaving fidelity; 64 accesses ≈ a few hundred cycles, well
/// under typical DThread lengths.
const CHUNK: usize = 64;

/// A simulated TFlux machine.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    cfg: MachineConfig,
    tsu_cfg: TsuConfig,
    /// Streaming passes over the program graph (1 = one-shot).
    epochs: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The core asks the TSU for its next DThread.
    Fetch(u32),
    /// The core executes its next chunk of the current instance.
    Chunk(u32),
}

#[derive(Debug, Default)]
struct CoreState {
    current: Option<(Instance, Epoch)>,
    /// Cycle the current instance's body started (for tracing).
    started: u64,
    work: InstanceWork,
    cursor: usize,
    compute_per_chunk: u64,
    compute_rem: u64,
    parked_since: u64,
    busy: u64,
    tsu_time: u64,
    idle: u64,
    finish: u64,
    done: bool,
}

/// A deferred TSU-device operation on its lane, replayed serially at the
/// round boundary. A lane has at most one outstanding operation, so the
/// batch's `(cycle, lane)` keys are unique and its insertion-order
/// tie-break never decides.
#[derive(Debug, Clone, Copy)]
enum DevOp {
    /// Replay `dev.fetch(lane, cycle)`.
    Fetch(u32),
    /// The lane's instance finished its last chunk at this cycle (≥ the
    /// triggering event's cycle, which keys the batch).
    Complete(u32, u64),
}

/// Outcome of executing one chunk.
enum ChunkOut {
    /// More accesses remain; the next chunk event fires at this cycle.
    Continue(u64),
    /// The instance's body finished at this cycle.
    Done(u64),
}

/// Execute one chunk of core `c`'s current instance starting at cycle `t`.
fn run_chunk(s: &mut CoreState, c: u32, t: u64, mem: &mut MemorySystem) -> ChunkOut {
    let mut now = t;
    let total = s.work.accesses.len();
    let end = (s.cursor + CHUNK).min(total);
    for i in s.cursor..end {
        let a = s.work.accesses[i];
        now += mem.access(c, now, a.addr, a.write).0;
    }
    s.cursor = end;
    now += s.compute_per_chunk;
    if s.cursor >= total {
        now += s.compute_rem;
        s.compute_rem = 0;
    }
    s.busy += now - t;
    if s.cursor < total {
        ChunkOut::Continue(now)
    } else {
        ChunkOut::Done(now)
    }
}

/// One simulation's state: the device, the cores, the event queue and the
/// round's deferred device batch. The replay phase runs as its methods.
struct Run<'p, 's> {
    dev: TsuDevice<'p>,
    source: &'s dyn WorkSource,
    states: Vec<CoreState>,
    events: EventQueue<Ev>,
    /// The round's deferred device operations, in `(cycle, lane)` order.
    batch: EventQueue<DevOp>,
    round_end: u64,
    /// Minimum cross-lane scheduling latency (`tsu.access + tsu.op`).
    window: u64,
    /// `(cycle, lane)` key of the op being replayed.
    trigger: (u64, u32),
    instances: usize,
    trace: Option<&'s mut ExecTrace>,
}

impl Run<'_, '_> {
    /// Push router for the replay phase: fetches landing inside the current
    /// round rejoin the device batch, everything else goes to the event
    /// queue. Also asserts the conservative bound that justifies deferral —
    /// a device op triggered at `trigger` can only schedule *other* lanes at
    /// least one TSU service latency later.
    fn push(&mut self, lane: u32, at: u64, ev: Ev) {
        let (t0, l0) = self.trigger;
        if lane != l0 {
            debug_assert!(
                at >= t0 + self.window,
                "cross-lane event at cycle {at} lands inside the conservative \
                 window {t0}+{}: deferring device ops to the round boundary \
                 no longer preserves event order",
                self.window
            );
        }
        if matches!(ev, Ev::Fetch(_)) && at < self.round_end {
            self.batch.push_lane(lane, at, DevOp::Fetch(lane));
        } else {
            self.events.push_lane(lane, at, ev);
        }
    }

    /// Replay the round's deferred device operations in `(cycle, lane)`
    /// order. Returns the number of operations replayed.
    fn replay_batch(&mut self) -> Result<u64, SimError> {
        let mut done = 0u64;
        while let Some((at, op)) = self.batch.pop() {
            done += 1;
            let (DevOp::Fetch(lane) | DevOp::Complete(lane, _)) = op;
            self.trigger = (at, lane);
            match op {
                DevOp::Fetch(c) => self.handle_fetch(c, at)?,
                DevOp::Complete(c, now) => self.handle_completion(c, now)?,
            }
        }
        Ok(done)
    }

    fn finish_report(self, mem: MemStats, events: u64) -> Result<SimReport, SimError> {
        let states = &self.states;
        let stuck = states.iter().filter(|s| !s.done).count() as u32;
        if stuck > 0 || !self.dev.finished() {
            return Err(SimError::Deadlock { stuck });
        }
        Ok(SimReport {
            cycles: states.iter().map(|s| s.finish).max().unwrap_or(0),
            core_busy: states.iter().map(|s| s.busy).collect(),
            core_tsu: states.iter().map(|s| s.tsu_time).collect(),
            core_idle: states.iter().map(|s| s.idle).collect(),
            mem,
            tsu: self.dev.tsu().stats(),
            dev: self.dev.stats,
            instances: self.instances,
            events,
        })
    }

    /// Start executing `inst` (fetched under `epoch`) on core `c` at
    /// cycle `start`.
    fn begin_instance(&mut self, c: u32, start: u64, inst: Instance, epoch: Epoch) {
        let s = &mut self.states[c as usize];
        s.current = Some((inst, epoch));
        s.started = start;
        s.work.clear();
        self.source.work(inst, &mut s.work);
        s.cursor = 0;
        let chunks = s.work.accesses.len().div_ceil(CHUNK).max(1) as u64;
        s.compute_per_chunk = s.work.compute / chunks;
        s.compute_rem = s.work.compute % chunks;
        self.push(c, start, Ev::Chunk(c));
    }

    /// Act on the device's answer to core `c`'s fetch at cycle `t`: start
    /// the DThread, or retire the core. A `Parked` answer changes nothing.
    fn take(&mut self, c: u32, t: u64, fetched: DevFetch) {
        match fetched {
            DevFetch::Thread(inst, epoch, at) => {
                let start = at + self.dev.kernel_overhead();
                self.states[c as usize].tsu_time += start - t;
                self.begin_instance(c, start, inst, epoch);
            }
            DevFetch::Parked => {}
            DevFetch::Exit(at) => {
                let s = &mut self.states[c as usize];
                s.tsu_time += at - t;
                s.finish = at;
                s.done = true;
            }
        }
    }

    fn handle_fetch(&mut self, c: u32, t: u64) -> Result<(), SimError> {
        let fetched = self.dev.fetch(c, t)?;
        self.take(c, t, fetched);
        if fetched == DevFetch::Parked {
            self.states[c as usize].parked_since = t;
        }
        Ok(())
    }

    fn handle_completion(&mut self, c: u32, now: u64) -> Result<(), SimError> {
        let s = &mut self.states[c as usize];
        let (inst, epoch) = s
            .current
            .take()
            .expect("completion without a current instance");
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record(c, inst, s.started, now);
        }
        self.instances += 1;
        let (core_free, ready_at) = self.dev.complete(c, now, inst, epoch)?;
        let next_fetch = core_free + self.dev.kernel_overhead();
        self.states[c as usize].tsu_time += next_fetch - now;
        self.push(c, next_fetch, Ev::Fetch(c));

        // Wake parked cores: after post-processing, ready DThreads (or the
        // Exit condition) become visible at `ready_at`.
        self.wake_parked(ready_at)
    }

    /// Retry the fetches of the parked cores, ascending, at cycle
    /// `ready_at`, if any work is ready or the program finished.
    fn wake_parked(&mut self, ready_at: u64) -> Result<(), SimError> {
        let mut parked = self.dev.parked;
        // the mask first: `ready_len` sums every core's queue, and most
        // completions find no core parked
        let mut budget = match parked {
            0 => 0,
            _ if self.dev.finished() => usize::MAX,
            _ => self.dev.tsu().ready_len(),
        };
        while parked != 0 && budget > 0 {
            let p = parked.trailing_zeros();
            parked &= parked - 1;
            let fetched = self.dev.fetch(p, ready_at)?;
            if fetched != DevFetch::Parked {
                let s = &mut self.states[p as usize];
                s.idle += ready_at.saturating_sub(s.parked_since);
                budget -= matches!(fetched, DevFetch::Thread(..)) as usize;
            }
            self.take(p, ready_at, fetched);
        }
        Ok(())
    }
}

impl Machine {
    /// A machine with default (unlimited-capacity) TSU configuration.
    ///
    /// The device posts every completion straight to the Synchronization
    /// Memory, as the paper's hardware TSU does: it keeps no completion
    /// funnel, and its `Tsu` is built with [`FlushPolicy::Direct`].
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            cfg,
            tsu_cfg: TsuConfig::default(),
            epochs: 1,
        }
    }

    /// Override the TSU capacity, stealing and epoch window. `flush` is not
    /// consulted: the device publishes every completion directly, so its
    /// `Tsu` is built with [`FlushPolicy::Direct`] whatever the policy.
    pub fn with_tsu_config(mut self, tsu_cfg: TsuConfig) -> Self {
        self.tsu_cfg = tsu_cfg;
        self
    }

    /// Stream the program for `epochs` consecutive passes (clamped to
    /// ≥ 1): contexts re-arm at each pass boundary and cores keep running
    /// without tearing the machine down. The epochs are banked on the
    /// device up front, so a [`TsuConfig::window`] smaller than `epochs`
    /// is a protocol error (the sim has no supervisor to retire credits
    /// mid-run).
    pub fn with_epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Simulate `program` with per-instance costs from `source`.
    ///
    /// # Errors
    /// [`SimError::Protocol`] if the TSU rejects a command (e.g. a block
    /// exceeding the configured capacity), [`SimError::Deadlock`] if the
    /// event queue drains with cores still waiting — both indicate an
    /// invalid program/configuration pair, not a data-dependent condition —
    /// and [`SimError::Config`] if the machine has no cores, more
    /// than the 64 the coherence directory can track, or a cache geometry
    /// the tag stores cannot address.
    pub fn run(
        &self,
        program: &DdmProgram,
        source: &dyn WorkSource,
    ) -> Result<SimReport, SimError> {
        self.run_inner(program, source, None)
    }

    /// Like [`run`](Self::run), additionally recording a per-instance
    /// execution trace (core, start, end) for Gantt rendering and
    /// schedule analysis.
    pub fn run_traced(
        &self,
        program: &DdmProgram,
        source: &dyn WorkSource,
    ) -> Result<(SimReport, ExecTrace), SimError> {
        let mut trace = ExecTrace::new("cycles");
        let report = self.run_inner(program, source, Some(&mut trace))?;
        Ok((report, trace))
    }

    /// Build the TSU device with every streaming epoch banked up front.
    fn build_dev<'p>(
        &self,
        program: &'p DdmProgram,
        cores: u32,
    ) -> Result<TsuDevice<'p>, SimError> {
        let direct = TsuConfig {
            flush: FlushPolicy::Direct,
            ..self.tsu_cfg
        };
        let tsu = Tsu::new(program, cores, direct);
        // cross-TSU-group updates ride the system network
        let cross = if self.cfg.tsu_groups > 1 {
            self.cfg.bus_transfer * 2
        } else {
            0
        };
        let mut dev = TsuDevice::sharded(tsu, self.cfg.tsu, cores, self.cfg.tsu_groups, cross);
        // streaming: bank every pass beyond the first before any core
        // fetches; re-arms then ride the final outlet of each pass
        for _ in 1..self.epochs {
            dev.open_epoch(0)?;
        }
        Ok(dev)
    }

    fn run_inner(
        &self,
        program: &DdmProgram,
        source: &dyn WorkSource,
        trace: Option<&mut ExecTrace>,
    ) -> Result<SimReport, SimError> {
        let mut mem = MemorySystem::new(self.cfg)?;
        let cores = self.cfg.cores;
        let round_len = self.cfg.merge_round_len();
        let mut run = Run {
            dev: self.build_dev(program, cores)?,
            source,
            states: (0..cores).map(|_| CoreState::default()).collect(),
            events: EventQueue::new(),
            batch: EventQueue::new(),
            round_end: 0,
            window: self.cfg.tsu.access + self.cfg.tsu.op,
            trigger: (0, 0),
            instances: 0,
            trace,
        };
        let mut events_done = 0u64;

        for c in 0..cores {
            run.events.push_lane(c, 0, Ev::Fetch(c));
        }

        while let Some(t0) = run.events.min_time() {
            run.round_end = t0.saturating_add(round_len);
            // phase 1: drain chunks, defer device ops
            while let Some((t, ev)) = run.events.pop_before(run.round_end) {
                events_done += 1;
                match ev {
                    Ev::Fetch(c) => run.batch.push_lane(c, t, DevOp::Fetch(c)),
                    Ev::Chunk(c) => {
                        let s = &mut run.states[c as usize];
                        match run_chunk(s, c, t, &mut mem) {
                            ChunkOut::Continue(now) => run.events.push_lane(c, now, Ev::Chunk(c)),
                            ChunkOut::Done(now) => {
                                run.batch.push_lane(c, t, DevOp::Complete(c, now))
                            }
                        }
                    }
                }
            }
            // phase 2: replay device ops serially
            events_done += run.replay_batch()?;
            // phase 3: merge round overlays
            mem.commit_round();
        }

        run.finish_report(mem.stats(), events_done)
    }

    /// Simulate the *sequential baseline*: the original program's work
    /// executed instance-by-instance on a single core, with **zero** TSU
    /// and kernel costs — the paper's "original sequential \[program\],
    /// i.e. without any TFlux overheads" (§5).
    ///
    /// # Panics
    ///
    /// If the configuration has a cache geometry the tag stores cannot
    /// address (the [`SimError::Config`] that [`run`](Self::run) returns).
    /// The baseline runs on one core, so the core count never fails it.
    pub fn run_sequential(&self, program: &DdmProgram, source: &dyn WorkSource) -> SimReport {
        let tsu = Tsu::new(program, 1, TsuConfig::default());
        // a `DdmProgram` is validated acyclic at build and capacity is
        // unlimited here, so neither a protocol error nor a deadlock can occur
        let order = drain_sequential(&tsu).expect("validated program, unlimited capacity");
        let mut mem = MemorySystem::new(MachineConfig {
            cores: 1,
            ..self.cfg
        })
        .expect("a cache geometry the tag stores can address");
        let mut now = 0u64;
        let mut work = InstanceWork::default();
        let mut instances = 0usize;
        for inst in order {
            work.clear();
            source.work(inst, &mut work);
            for a in &work.accesses {
                let (lat, _) = mem.access(0, now, a.addr, a.write);
                now += lat;
            }
            now += work.compute;
            instances += 1;
            // one domain: its overlay and the snapshot are the same state,
            // so committing moves no cycle — it only bounds the edit log
            mem.commit_round();
        }
        SimReport {
            cycles: now,
            core_busy: vec![now],
            core_tsu: vec![0],
            core_idle: vec![0],
            mem: mem.stats(),
            tsu: tsu.stats(),
            dev: Default::default(),
            instances,
            events: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, TsuCosts};
    use crate::work::{FnWork, StreamWork, UniformWork};
    use tflux_core::prelude::*;

    fn fork_join(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    fn chain(len: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let mut prev = b.thread(blk, ThreadSpec::scalar("t0"));
        for i in 1..len {
            let t = b.thread(blk, ThreadSpec::scalar(format!("t{i}")));
            b.arc(prev, t, ArcMapping::Scalar).unwrap();
            prev = t;
        }
        b.build().unwrap()
    }

    /// Work only on the loop thread (T0); inlet/outlet/sinks are free.
    fn app_work(cycles: u64) -> impl WorkSource {
        FnWork(move |inst: Instance, out: &mut InstanceWork| {
            if inst.thread == ThreadId(0) {
                out.compute = cycles;
            }
        })
    }

    #[test]
    fn embarrassingly_parallel_scales_nearly_linearly() {
        let p = fork_join(64);
        let src = app_work(50_000);
        let seq = Machine::new(MachineConfig::bagle(1)).run_sequential(&p, &src);
        let par4 = Machine::new(MachineConfig::bagle(4)).run(&p, &src).unwrap();
        let par8 = Machine::new(MachineConfig::bagle(8)).run(&p, &src).unwrap();
        let s4 = par4.speedup_over(&seq);
        let s8 = par8.speedup_over(&seq);
        assert!(s4 > 3.5 && s4 <= 4.01, "speedup(4)={s4}");
        assert!(s8 > 7.0 && s8 <= 8.01, "speedup(8)={s8}");
    }

    #[test]
    fn serial_chain_gets_no_speedup() {
        let p = chain(32);
        let src = UniformWork { cycles: 10_000 };
        let seq = Machine::new(MachineConfig::bagle(1)).run_sequential(&p, &src);
        let par = Machine::new(MachineConfig::bagle(8)).run(&p, &src).unwrap();
        let s = par.speedup_over(&seq);
        assert!(s <= 1.0, "chain cannot speed up, got {s}");
        assert!(
            s > 0.9,
            "overheads should stay small at this grain, got {s}"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = fork_join(32);
        let src = StreamWork {
            bytes_per_instance: 4096,
            stride: 64,
            base: 0x10_0000,
            writes: false,
            cycles_per_access: 3,
        };
        let a = Machine::new(MachineConfig::bagle(8)).run(&p, &src).unwrap();
        let b = Machine::new(MachineConfig::bagle(8)).run(&p, &src).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem.accesses(), b.mem.accesses());
        assert_eq!(a.dev.commands, b.dev.commands);
    }

    #[test]
    fn all_instances_execute() {
        let p = fork_join(20);
        let src = UniformWork { cycles: 100 };
        let r = Machine::new(MachineConfig::bagle(4)).run(&p, &src).unwrap();
        assert_eq!(r.instances, p.total_instances());
        assert_eq!(r.tsu.completions as usize, p.total_instances());
        assert!(r.events > 0, "the event counter must tick");
    }

    #[test]
    fn the_device_ignores_the_flush_policy() {
        // a hot reduction sink on several kernels is where a batching
        // funnel would change the unit's command stream; the device has
        // none, so the policy moves no number of the report
        let p = fork_join(64);
        let src = UniformWork { cycles: 300 };
        let run = |flush| {
            let tsu_cfg = TsuConfig {
                flush,
                ..TsuConfig::default()
            };
            let m = Machine::new(MachineConfig::bagle(4)).with_tsu_config(tsu_cfg);
            format!("{:?}", m.run(&p, &src).unwrap())
        };
        assert_eq!(
            run(FlushPolicy::Batch { size: 8 }),
            run(FlushPolicy::Direct)
        );
    }

    #[test]
    fn tsu_op_latency_barely_matters_at_coarse_grain() {
        // §4.1: 1 -> 128 cycles of TSU processing changes performance <1%.
        let p = fork_join(128);
        let src = app_work(200_000);
        let base = MachineConfig::bagle(8);
        let fast = Machine::new(base.with_tsu(TsuCosts {
            op: 1,
            ..TsuCosts::hard()
        }))
        .run(&p, &src)
        .unwrap();
        let slow = Machine::new(base.with_tsu(TsuCosts {
            op: 128,
            ..TsuCosts::hard()
        }))
        .run(&p, &src)
        .unwrap();
        let delta = (slow.cycles as f64 - fast.cycles as f64) / fast.cycles as f64;
        assert!(delta < 0.01, "TSU latency impact {delta} >= 1%");
    }

    #[test]
    fn tsu_op_latency_hurts_at_fine_grain() {
        let p = fork_join(512);
        let src = UniformWork { cycles: 60 }; // DThreads of ~60 cycles
        let base = MachineConfig::bagle(8);
        let fast = Machine::new(base.with_tsu(TsuCosts {
            op: 1,
            ..TsuCosts::hard()
        }))
        .run(&p, &src)
        .unwrap();
        let slow = Machine::new(base.with_tsu(TsuCosts {
            op: 128,
            ..TsuCosts::hard()
        }))
        .run(&p, &src)
        .unwrap();
        let delta = (slow.cycles as f64 - fast.cycles as f64) / fast.cycles as f64;
        assert!(
            delta > 0.10,
            "fine grain must expose TSU latency, got {delta}"
        );
    }

    #[test]
    fn soft_tsu_needs_coarser_grain_than_hard() {
        // the §6.2.2 effect: at fine grain the software TSU hurts much more
        let p = fork_join(256);
        let fine = UniformWork { cycles: 500 };
        let hard = Machine::new(MachineConfig::bagle(4))
            .run(&p, &fine)
            .unwrap();
        let soft = Machine::new(MachineConfig::bagle(4).with_tsu(TsuCosts::soft()))
            .run(&p, &fine)
            .unwrap();
        assert!(
            soft.cycles as f64 > hard.cycles as f64 * 1.5,
            "soft {} vs hard {}",
            soft.cycles,
            hard.cycles
        );
    }

    #[test]
    fn sequential_baseline_has_no_tsu_cost() {
        let p = fork_join(16);
        let src = UniformWork { cycles: 1000 };
        let seq = Machine::new(MachineConfig::bagle(1)).run_sequential(&p, &src);
        assert_eq!(seq.cycles, p.total_instances() as u64 * 1000);
        assert_eq!(seq.dev.commands, 0);
    }

    #[test]
    fn idle_time_recorded_for_starved_cores() {
        // 1 long thread then a barrier: other cores park
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let long = b.thread(blk, ThreadSpec::scalar("long"));
        let fan = b.thread(blk, ThreadSpec::new("fan", 8));
        b.arc(long, fan, ArcMapping::Broadcast).unwrap();
        let p = b.build().unwrap();
        let src = FnWork(|inst: Instance, out: &mut InstanceWork| {
            out.compute = if inst.thread == ThreadId(0) {
                100_000
            } else {
                1_000
            };
        });
        let r = Machine::new(MachineConfig::bagle(4)).run(&p, &src).unwrap();
        let total_idle: u64 = r.core_idle.iter().sum();
        assert!(total_idle > 100_000, "idle {total_idle}");
        assert!(r.utilization() < 0.7);
    }

    #[test]
    fn trace_covers_every_instance_without_overlap() {
        let p = fork_join(32);
        let src = UniformWork { cycles: 777 };
        let m = Machine::new(MachineConfig::bagle(4));
        let (report, trace) = m.run_traced(&p, &src).unwrap();
        assert_eq!(trace.len(), p.total_instances());
        assert_eq!(report.instances, trace.len());
        assert!(trace.find_overlap().is_none(), "{:?}", trace.find_overlap());
        assert!(trace.end() <= report.cycles);
        // busy accounting agrees with the report
        assert_eq!(trace.core_busy(4), report.core_busy);
        // gantt renders
        let g = trace.gantt(&p, 4, 60);
        assert!(g.contains("core  0"));
    }

    #[test]
    fn traced_and_untraced_runs_are_identical() {
        let p = fork_join(16);
        let src = UniformWork { cycles: 1000 };
        let m = Machine::new(MachineConfig::bagle(3));
        let plain = m.run(&p, &src).unwrap();
        let (traced, _) = m.run_traced(&p, &src).unwrap();
        assert_eq!(plain.cycles, traced.cycles);
    }

    #[test]
    fn multi_block_program_completes() {
        let mut b = ProgramBuilder::new();
        for _ in 0..4 {
            let blk = b.block();
            b.thread(blk, ThreadSpec::new("w", 16));
        }
        let p = b.build().unwrap();
        let r = Machine::new(MachineConfig::bagle(4))
            .run(&p, &UniformWork { cycles: 500 })
            .unwrap();
        assert_eq!(r.instances, p.total_instances());
        assert_eq!(r.tsu.blocks_loaded, 4);
    }

    #[test]
    fn streamed_epochs_replay_the_program_deterministically() {
        let p = fork_join(16);
        let src = UniformWork { cycles: 800 };
        let m = Machine::new(MachineConfig::bagle(4)).with_epochs(3);
        let a = m.run(&p, &src).unwrap();
        assert_eq!(a.instances, 3 * p.total_instances());
        assert_eq!(a.tsu.completions as usize, 3 * p.total_instances());
        assert_eq!(a.tsu.epochs, 3);
        // wraparound keeps the sim deterministic
        let b = m.run(&p, &src).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dev.commands, b.dev.commands);
        // three passes cost roughly three one-shot runs, never less
        let one = Machine::new(MachineConfig::bagle(4)).run(&p, &src).unwrap();
        assert!(
            a.cycles > 2 * one.cycles,
            "{} !> 2*{}",
            a.cycles,
            one.cycles
        );
    }

    #[test]
    fn protocol_errors_surface_as_sim_errors() {
        // banking more epochs than the TSU credit window is a protocol
        // error, reported as a typed SimError rather than a panic
        let p = fork_join(8);
        let src = UniformWork { cycles: 100 };
        let r = Machine::new(MachineConfig::bagle(4))
            .with_tsu_config(TsuConfig {
                window: 1,
                ..TsuConfig::default()
            })
            .with_epochs(3)
            .run(&p, &src);
        assert!(
            matches!(r, Err(SimError::Protocol(_))),
            "expected a protocol error, got {r:?}"
        );
    }

    #[test]
    fn unrepresentable_core_counts_surface_as_config_errors() {
        // regression: `cores` is a public field, and both of these used to
        // panic inside `MemorySystem::new` (the 64-bit sharer-bitmap assert
        // and an out-of-bounds domain index) instead of returning
        let p = fork_join(8);
        let src = UniformWork { cycles: 100 };
        let run = |cores| {
            let m = Machine::new(MachineConfig::bagle(cores));
            let traced = m.run_traced(&p, &src).map(|(r, _)| r);
            let plain = m.run(&p, &src);
            assert_eq!(plain.as_ref().err(), traced.as_ref().err());
            plain.map(|r| r.cycles)
        };
        let too_many = ConfigError::Oversubscribed {
            kernels: 65,
            cores: 64,
        };
        assert_eq!(run(65), Err(SimError::Config(too_many)));
        assert_eq!(run(0), Err(SimError::Config(ConfigError::NoCores)));
        assert!(run(64).is_ok(), "64 cores is the largest valid machine");
    }

    #[test]
    fn malformed_cache_geometries_surface_as_config_errors() {
        // regression: `CacheConfig` fields are public; the first two used
        // to divide by zero, the last two were mis-addressed silently
        let p = fork_join(8);
        let src = UniformWork { cycles: 100 };
        let run = |edit: fn(&mut MachineConfig)| {
            let mut cfg = MachineConfig::bagle(4);
            edit(&mut cfg);
            let m = Machine::new(cfg);
            let traced = m.run_traced(&p, &src).map(|(r, _)| r.cycles);
            let plain = m.run(&p, &src).map(|r| r.cycles);
            assert_eq!(plain, traced);
            plain
        };
        let bad = |cache, field| {
            Err(SimError::Config(ConfigError::CacheGeometry {
                cache,
                field,
            }))
        };
        assert_eq!(run(|c| c.l1.line = 0), bad("l1", "line"));
        assert_eq!(run(|c| c.l2.assoc = 0), bad("l2", "assoc"));
        assert_eq!(run(|c| c.l1.line = 96), bad("l1", "line"));
        assert_eq!(run(|c| c.l2.line = 32), bad("l2", "line"));
        assert!(run(|c| c.l1.line = 128).is_ok(), "equal L1 and L2 lines");
    }

    #[test]
    fn t3_4_64_cores_scale_and_pay_numa_costs() {
        let p = fork_join(256);
        let src = StreamWork {
            bytes_per_instance: 8192,
            stride: 64,
            base: 0x40_0000,
            writes: false,
            cycles_per_access: 8,
        };
        let cfg64 = MachineConfig::sparc_t3_4(64).unwrap();
        let seq = Machine::new(cfg64).run_sequential(&p, &src);
        let par = Machine::new(cfg64).run(&p, &src).unwrap();
        let s = par.speedup_over(&seq);
        assert!(s > 16.0, "64-core run should scale well past 16x, got {s}");
        assert!(s <= 64.5, "speedup cannot exceed core count, got {s}");
        assert!(
            par.mem.remote_node > 0,
            "a 4-node run must cross node boundaries"
        );
    }

    #[test]
    fn shared_write_traffic_limits_scaling() {
        // all instances hammer the same lines: coherence should throttle
        let p = fork_join(64);
        let shared = StreamWork {
            bytes_per_instance: 0, // overwritten below
            stride: 64,
            base: 0,
            writes: true,
            cycles_per_access: 1,
        };
        // every instance writes the same 64 lines
        let src = FnWork(move |inst: Instance, out: &mut InstanceWork| {
            let _ = inst;
            let _ = shared;
            for i in 0..64u64 {
                out.accesses.push(crate::work::MemAccess::write(i * 64));
            }
            out.compute = 64;
        });
        let seq = Machine::new(MachineConfig::bagle(1)).run_sequential(&p, &src);
        let par = Machine::new(MachineConfig::bagle(8)).run(&p, &src).unwrap();
        let s = par.speedup_over(&seq);
        assert!(s < 4.0, "pure coherence traffic cannot scale: {s}");
        assert!(par.mem.remote_hits > 0);
        assert!(par.mem.invalidations > 0);
    }
}
