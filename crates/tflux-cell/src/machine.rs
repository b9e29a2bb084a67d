//! The TFluxCell machine model: PPE-resident TSU Emulator + SPE kernels.
//!
//! The execution protocol follows §4.3 exactly:
//!
//! 1. a kernel (SPE) *waits on its mailbox* for the id of the next DThread;
//! 2. before the DThread starts, its input data is *imported* from the
//!    SharedVariableBuffer in main memory into the Local Store by DMA;
//! 3. the DThread executes out of the LS;
//! 4. produced data is *exported* back to the SharedVariableBuffer by DMA;
//! 5. the kernel *places a command into its CommandBuffer*; the TSU
//!    Emulator on the PPE, which loops over all CommandBuffers, picks it
//!    up, runs the post-processing phase, and answers ready DThreads
//!    through the mailboxes.
//!
//! The buffers themselves are costs, not data: `CMD_LAT` is the command's
//! trip to main memory and `POLL_SCAN` the PPE's scan that finds it, and
//! the DMA import/export bytes of [`CellWork`] are the SharedVariableBuffer
//! traffic. An SPE sends one command and then waits on its mailbox, so its
//! CommandBuffer never holds more than one record.
//!
//! DMA transfers arbitrate for the element-interconnect bus; the PPE
//! emulator is a serialized resource. Everything is deterministic.

use crate::config::{CellConfig, CMD_LAT, MAILBOX_LAT, POLL_SCAN, PPE_OP};
use crate::report::CellReport;
use crate::work::{CellWork, CellWorkSource};
use tflux_core::{
    drain_sequential, funnel_batch, CompletionFunnel, DdmProgram, Epoch, FetchResult, Instance,
    KernelId, Tsu, TsuConfig,
};
use tflux_sim::EventQueue;

/// Errors of a TFluxCell run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// An instance needs more Local Store than the SPE has. This is the
    /// §6.3 QSORT limitation: "larger problem sizes ... would not fit in
    /// each SPE Local Store".
    LocalStoreOverflow {
        /// The offending instance.
        inst: Instance,
        /// Bytes the instance needs resident.
        need: u64,
        /// Local Store capacity.
        have: u64,
    },
    /// A TSU protocol error.
    Protocol(tflux_core::CoreError),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::LocalStoreOverflow { inst, need, have } => write!(
                f,
                "instance {inst} needs {need} B of Local Store but SPEs have {have} B; \
                 stage the algorithm or shrink the problem size"
            ),
            CellError::Protocol(e) => write!(f, "TSU protocol error: {e}"),
        }
    }
}

impl std::error::Error for CellError {}

/// The simulated Cell/BE machine.
#[derive(Clone, Copy, Debug)]
pub struct CellMachine {
    cfg: CellConfig,
    epochs: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A mailbox message delivering an instance of an epoch to an SPE.
    Mail(u32, Instance, Epoch),
    /// The SPE's import DMA finished; compute starts.
    Imported(u32),
    /// Compute finished; the export DMA starts.
    Export(u32),
    /// An SPE finished executing and its command reaches the PPE. The
    /// command carries the epoch token the instance was dispatched under,
    /// so a command that outlives its pass is rejected, not absorbed.
    Cmd(u32, Instance, Epoch),
    /// A shutdown mail: the SPE exits.
    Bye(u32),
}

struct Spe {
    waiting_since: Option<u64>,
    /// A mailbox message is in flight; do not dispatch again.
    dispatched: bool,
    /// The instance, its epoch token, and the work currently executing
    /// on this SPE.
    cur: Option<(Instance, Epoch, CellWork)>,
    busy: u64,
    dma: u64,
    idle: u64,
    finish: u64,
    done: bool,
}

impl CellMachine {
    /// A machine with the given configuration.
    pub fn new(cfg: CellConfig) -> Self {
        CellMachine { cfg, epochs: 1 }
    }

    /// Stream the program for `epochs` consecutive passes: every epoch
    /// after the first is credited up front (there is no supervisor on
    /// the PPE to bank credits mid-run), so the TSU re-arms the inlet the
    /// moment a pass drains and the SPEs never go idle between passes.
    /// The credit window in [`TsuConfig::window`] must admit `epochs`
    /// simultaneous credits (0 = unwindowed); a tighter window is a
    /// configuration error surfaced as [`CellError::Protocol`].
    pub fn with_epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    fn check_ls(&self, inst: Instance, w: &CellWork) -> Result<(), CellError> {
        if w.ls_bytes > self.cfg.ls_bytes {
            return Err(CellError::LocalStoreOverflow {
                inst,
                need: w.ls_bytes,
                have: self.cfg.ls_bytes,
            });
        }
        Ok(())
    }

    /// Run `program` on the simulated Cell.
    pub fn run(
        &self,
        program: &DdmProgram,
        source: &dyn CellWorkSource,
    ) -> Result<CellReport, CellError> {
        let batch = funnel_batch(program, self.cfg.spes.max(1));
        self.run_funneled(program, source, batch)
    }

    /// [`run`](Self::run) with the PPE emulator's completion funnel of
    /// batch size `batch`: above 1, App commands park there and
    /// post-process as one batch (one `PPE_OP` charge per flush instead of
    /// per command).
    fn run_funneled(
        &self,
        program: &DdmProgram,
        source: &dyn CellWorkSource,
        batch: usize,
    ) -> Result<CellReport, CellError> {
        let spes = self.cfg.spes.max(1);
        let tsu = Tsu::new(program, spes, self.cfg.tsu);
        let mut funnel = CompletionFunnel::new(batch);
        let mut spelist: Vec<Spe> = (0..spes)
            .map(|_| Spe {
                waiting_since: Some(0),
                dispatched: false,
                cur: None,
                busy: 0,
                dma: 0,
                idle: 0,
                finish: 0,
                done: false,
            })
            .collect();
        let mut events: EventQueue<Ev> = EventQueue::new();
        let mut bus_free = 0u64;
        let mut ppe_free = 0u64;
        let mut ppe_busy = 0u64;
        let mut commands = 0u64;
        let mut instances = 0usize;
        let mut peak_ls = 0u64;
        let mut ready_buf: Vec<Instance> = Vec::new();

        // Credit every streamed pass beyond the first before the event
        // loop starts; the re-armed inlet then rides the final outlet of
        // each pass and the machine flows continuously.
        for _ in 1..self.epochs {
            tsu.open_epoch(&mut ready_buf)
                .map_err(CellError::Protocol)?;
        }

        // Arm: the first block's inlet, queued inside the TSU, goes out
        // over the mailbox of the first SPE whose fetch reaches it.
        for k in 0..spes {
            if let FetchResult::Thread(inst, ep) =
                tsu.fetch(KernelId(k)).map_err(CellError::Protocol)?
            {
                events.push(MAILBOX_LAT, Ev::Mail(k, inst, ep));
                spelist[k as usize].dispatched = true;
            }
        }

        while let Some((t, ev)) = events.pop() {
            match ev {
                Ev::Mail(spe, inst, epoch) => {
                    let s = &mut spelist[spe as usize];
                    s.dispatched = false;
                    if let Some(since) = s.waiting_since.take() {
                        s.idle += t.saturating_sub(since);
                    }
                    let w = source.work(inst);
                    self.check_ls(inst, &w)?;
                    peak_ls = peak_ls.max(w.ls_bytes);
                    s.cur = Some((inst, epoch, w));
                    // import DMA (bus arbitration at the current time)
                    if w.import_bytes > 0 {
                        let cost = self.cfg.dma_cycles(w.import_bytes);
                        bus_free = bus_free.max(t) + cost;
                        s.dma += bus_free - t;
                        events.push(bus_free, Ev::Imported(spe));
                    } else {
                        events.push(t, Ev::Imported(spe));
                    }
                }
                Ev::Imported(spe) => {
                    let s = &mut spelist[spe as usize];
                    let (_, _, w) = s.cur.expect("Imported without current work");
                    let c = w.compute;
                    s.busy += c;
                    events.push(t + c, Ev::Export(spe));
                }
                Ev::Export(spe) => {
                    let s = &mut spelist[spe as usize];
                    let (inst, epoch, w) = s.cur.take().expect("Export without current work");
                    let mut now = t;
                    if w.export_bytes > 0 {
                        let cost = self.cfg.dma_cycles(w.export_bytes);
                        let start = bus_free.max(now);
                        bus_free = start + cost;
                        s.dma += (start - now) + cost;
                        now = start + cost;
                    }
                    instances += 1;
                    events.push(now + CMD_LAT, Ev::Cmd(spe, inst, epoch));
                }
                Ev::Cmd(spe, inst, epoch) => {
                    // the PPE picks the command up: the scan is always
                    // charged, the post-processing op once per
                    // Synchronization Memory operation the funnel performs
                    let start = ppe_free.max(t);
                    commands += 1;
                    let ops = funnel
                        .complete(KernelId(spe), &tsu, inst, epoch, &mut ready_buf)
                        .map_err(CellError::Protocol)?;
                    let cost = POLL_SCAN + PPE_OP * ops as u64;
                    let mut done = start + cost;
                    ppe_free = done;
                    ppe_busy += cost;

                    // this SPE is now waiting on its mailbox
                    spelist[spe as usize].waiting_since = Some(t);

                    if tsu.finished() {
                        for (k, s) in spelist.iter().enumerate() {
                            if s.waiting_since.is_some() && !s.done && !s.dispatched {
                                events.push(done + MAILBOX_LAT, Ev::Bye(k as u32));
                            }
                        }
                    } else {
                        loop {
                            // serve every waiting SPE out of the TSU queue
                            // units: its own queue first, then
                            // (LocalityFirst policy) a steal from the
                            // longest other queue
                            for k in 0..spes {
                                let s = &spelist[k as usize];
                                if s.waiting_since.is_none() || s.done || s.dispatched {
                                    continue;
                                }
                                if let FetchResult::Thread(i, ep) =
                                    tsu.fetch(KernelId(k)).map_err(CellError::Protocol)?
                                {
                                    events.push(done + MAILBOX_LAT, Ev::Mail(k, i, ep));
                                    spelist[k as usize].dispatched = true;
                                }
                            }
                            // if every SPE is drained and idle, the parked
                            // decrements are the only remaining work: flush
                            // them now or the machine deadlocks
                            if funnel.is_empty()
                                || spelist.iter().any(|s| s.cur.is_some() || s.dispatched)
                            {
                                break;
                            }
                            ppe_free += PPE_OP;
                            ppe_busy += PPE_OP;
                            done = ppe_free;
                            funnel
                                .flush(KernelId(spe), &tsu, &mut ready_buf)
                                .map_err(CellError::Protocol)?;
                        }
                    }
                }
                Ev::Bye(spe) => {
                    let s = &mut spelist[spe as usize];
                    if s.done {
                        continue;
                    }
                    if let Some(since) = s.waiting_since.take() {
                        s.idle += t.saturating_sub(since);
                    }
                    s.finish = t;
                    s.done = true;
                }
            }
        }

        assert!(
            tsu.finished() && spelist.iter().all(|s| s.done),
            "TFluxCell simulation deadlocked"
        );

        // Close the ledger: every streamed pass drained, so its credit
        // can be handed back in order.
        tsu.retire_drained().map_err(CellError::Protocol)?;

        Ok(CellReport {
            cycles: spelist.iter().map(|s| s.finish).max().unwrap_or(0),
            spe_busy: spelist.iter().map(|s| s.busy).collect(),
            spe_dma: spelist.iter().map(|s| s.dma).collect(),
            spe_idle: spelist.iter().map(|s| s.idle).collect(),
            ppe_busy,
            tsu: tsu.stats(),
            commands,
            cmd_stalls: 0,
            instances,
            peak_ls,
        })
    }

    /// Sequential baseline: one SPE executes every instance in dependency
    /// order with DMA staging but no TSU, mailbox, or CommandBuffer costs.
    pub fn run_sequential(
        &self,
        program: &DdmProgram,
        source: &dyn CellWorkSource,
    ) -> Result<CellReport, CellError> {
        let tsu = Tsu::new(program, 1, TsuConfig::default());
        let order = drain_sequential(&tsu).map_err(CellError::Protocol)?;
        let mut now = 0u64;
        let mut busy = 0u64;
        let mut dma = 0u64;
        let mut peak_ls = 0u64;
        let mut instances = 0usize;
        for inst in order {
            let w = source.work(inst);
            self.check_ls(inst, &w)?;
            peak_ls = peak_ls.max(w.ls_bytes);
            let d = self.cfg.dma_cycles(w.import_bytes) + self.cfg.dma_cycles(w.export_bytes);
            let c = w.compute;
            dma += d;
            busy += c;
            now += d + c;
            instances += 1;
        }
        Ok(CellReport {
            cycles: now,
            spe_busy: vec![busy],
            spe_dma: vec![dma],
            spe_idle: vec![0],
            ppe_busy: 0,
            tsu: tsu.stats(),
            commands: 0,
            cmd_stalls: 0,
            instances,
            peak_ls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{FnCellWork, UniformCellWork};
    use tflux_core::prelude::*;
    use tflux_core::FUNNEL_BATCH;

    fn fork_join(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        let work = b.thread(blk, ThreadSpec::new("work", arity));
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        b.build().unwrap()
    }

    fn app_work(compute: u64, import: u64, export: u64) -> impl CellWorkSource {
        FnCellWork(move |inst: Instance| {
            if inst.thread == ThreadId(0) {
                CellWork {
                    compute,
                    import_bytes: import,
                    export_bytes: export,
                    ls_bytes: 16 * 1024 + import,
                }
            } else {
                CellWork::default()
            }
        })
    }

    #[test]
    fn parallel_speedup_with_coarse_threads() {
        let p = fork_join(96);
        let src = app_work(400_000, 8192, 4096);
        let m6 = CellMachine::new(CellConfig::ps3());
        let seq = m6.run_sequential(&p, &src).unwrap();
        let par = m6.run(&p, &src).unwrap();
        let s = par.speedup_over(&seq);
        assert!(s > 4.5 && s <= 6.01, "speedup {s}");
    }

    #[test]
    fn fine_grain_threads_are_throttled_by_overheads() {
        let p = fork_join(96);
        let src = app_work(2_000, 8192, 4096); // tiny compute, big transfers
        let m6 = CellMachine::new(CellConfig::ps3());
        let seq = m6.run_sequential(&p, &src).unwrap();
        let par = m6.run(&p, &src).unwrap();
        let s = par.speedup_over(&seq);
        assert!(s < 4.0, "fine grain cannot reach near-linear: {s}");
        assert!(par.dma_fraction() > 0.1);
    }

    #[test]
    fn ls_overflow_is_reported() {
        let p = fork_join(4);
        let src = UniformCellWork {
            work: CellWork::compute(100, 512 * 1024),
        };
        let err = CellMachine::new(CellConfig::ps3())
            .run(&p, &src)
            .unwrap_err();
        assert!(matches!(err, CellError::LocalStoreOverflow { .. }));
        let err2 = CellMachine::new(CellConfig::ps3())
            .run_sequential(&p, &src)
            .unwrap_err();
        assert!(matches!(err2, CellError::LocalStoreOverflow { .. }));
    }

    #[test]
    fn all_instances_execute_exactly_once() {
        let p = fork_join(20);
        let src = app_work(1_000, 0, 0);
        let r = CellMachine::new(CellConfig::ps3()).run(&p, &src).unwrap();
        assert_eq!(r.instances, p.total_instances());
        assert_eq!(r.tsu.completions as usize, p.total_instances());
    }

    #[test]
    fn deterministic_runs() {
        let p = fork_join(32);
        let src = app_work(10_000, 2048, 1024);
        let m = CellMachine::new(CellConfig::ps3());
        let a = m.run(&p, &src).unwrap();
        let b = m.run(&p, &src).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.commands, b.commands);
    }

    #[test]
    fn fewer_spes_less_speedup() {
        let p = fork_join(96);
        let src = app_work(300_000, 4096, 2048);
        let seq = CellMachine::new(CellConfig::ps3())
            .run_sequential(&p, &src)
            .unwrap();
        let mut prev = 0.0;
        for spes in [2u32, 4, 6] {
            let r = CellMachine::new(CellConfig::ps3().with_spes(spes))
                .run(&p, &src)
                .unwrap();
            let s = r.speedup_over(&seq);
            assert!(s > prev, "speedup must grow with SPEs: {s} after {prev}");
            prev = s;
        }
    }

    #[test]
    fn dma_fraction_grows_with_transfer_size() {
        let p = fork_join(48);
        let small = app_work(100_000, 1024, 512);
        let big = app_work(100_000, 65_536, 32_768);
        let m = CellMachine::new(CellConfig::ps3());
        let rs = m.run(&p, &small).unwrap();
        let rb = m.run(&p, &big).unwrap();
        assert!(rb.dma_fraction() > rs.dma_fraction());
        assert!(rb.cycles > rs.cycles);
    }

    #[test]
    fn funneled_ppe_batches_post_processing() {
        let p = fork_join(64);
        let src = app_work(10_000, 1024, 512);
        let m = CellMachine::new(CellConfig::ps3());
        // this hot-sink program batches on its own; the direct path is the
        // contrast
        let batched = m.run(&p, &src).unwrap();
        assert_eq!(
            format!("{batched:?}"),
            format!("{:?}", m.run_funneled(&p, &src, FUNNEL_BATCH).unwrap())
        );
        let direct = m.run_funneled(&p, &src, 1).unwrap();
        // identical logical outcome...
        assert_eq!(batched.instances, direct.instances);
        assert_eq!(batched.tsu.completions, direct.tsu.completions);
        assert_eq!(batched.tsu.rc_updates, direct.tsu.rc_updates);
        // ...with fewer physical RMWs and less PPE post-processing time,
        // since up to 8 App commands share one `PPE_OP` charge
        assert!(batched.tsu.rc_rmws < direct.tsu.rc_rmws);
        assert!(
            batched.ppe_busy < direct.ppe_busy,
            "batched PPE busy {} !< direct {}",
            batched.ppe_busy,
            direct.ppe_busy
        );
    }

    #[test]
    fn streamed_epochs_replay_on_the_cell() {
        let p = fork_join(24);
        let src = app_work(20_000, 2048, 1024);
        let m = CellMachine::new(CellConfig::ps3());
        let one = m.run(&p, &src).unwrap();
        let streamed = m.with_epochs(3).run(&p, &src).unwrap();
        // three bit-identical passes: every instance executes once per
        // epoch, and the ready counts re-arm cleanly between passes
        assert_eq!(streamed.instances, 3 * p.total_instances());
        assert_eq!(streamed.tsu.completions as usize, 3 * p.total_instances());
        assert_eq!(streamed.tsu.epochs, 3);
        assert_eq!(one.tsu.epochs, 1);
        // streaming is still deterministic, and three passes cost more
        // than two single passes (they share the wind-down of each pass)
        let again = m.with_epochs(3).run(&p, &src).unwrap();
        assert_eq!(streamed.cycles, again.cycles);
        assert!(streamed.cycles > 2 * one.cycles);
    }

    #[test]
    fn streaming_beyond_the_credit_window_is_a_protocol_error() {
        let p = fork_join(8);
        let src = app_work(1_000, 0, 0);
        let m = CellMachine::new(CellConfig::ps3().with_tsu(TsuConfig {
            window: 2,
            ..TsuConfig::default()
        }));
        assert!(m.with_epochs(2).run(&p, &src).is_ok());
        assert!(matches!(
            m.with_epochs(3).run(&p, &src),
            Err(CellError::Protocol(
                tflux_core::CoreError::WindowExhausted { .. }
            ))
        ));
    }

    #[test]
    fn multi_block_cell_program_completes() {
        let mut b = ProgramBuilder::new();
        for _ in 0..3 {
            let blk = b.block();
            b.thread(blk, ThreadSpec::new("w", 12));
        }
        let p = b.build().unwrap();
        let src = UniformCellWork {
            work: CellWork::compute(5_000, 1024),
        };
        let r = CellMachine::new(CellConfig::ps3()).run(&p, &src).unwrap();
        assert_eq!(r.instances, p.total_instances());
        assert_eq!(r.tsu.blocks_loaded, 3);
    }
}
