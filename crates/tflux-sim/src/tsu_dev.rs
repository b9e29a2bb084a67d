//! The TSU device model: the hardware TSU Group behind its Memory-Mapped
//! Interface, or the software TSU Emulator — same state machine, different
//! cycle costs.
//!
//! §4.1: the CPU controls the TSU Group "through specially encoded flags"
//! sent as memory accesses the MMI snoops off the system network; each
//! access is an L1-latency-plus-4-cycles operation, and the unit itself
//! takes a configurable processing time per command (the 1→128-cycle
//! sensitivity knob). The device serializes command processing — it is one
//! unit — which is exactly why grouping per-CPU TSUs into a TSU Group
//! (§3.3) must be cheap for the paper's claim to hold; the ablation bench
//! sweeps `op` to verify the <1% claim.

use crate::config::TsuCosts;
use tflux_core::{CoreError, DdmProgram, Epoch, FetchResult, Instance, KernelId, Owned, Tsu};

/// Counters of the device model.
#[derive(Clone, Copy, Debug, Default)]
pub struct TsuDevStats {
    /// Commands processed (fetches + completions).
    pub commands: u64,
    /// Cycles the unit spent processing commands.
    pub busy: u64,
    /// Fetches that found nothing ready (core parked).
    pub empty_fetches: u64,
    /// Peak number of simultaneously parked cores.
    pub max_parked: u32,
    /// Completions whose ready-count updates crossed TSU-Group shards
    /// (each one TSU-to-TSU network message).
    pub cross_updates: u64,
    /// Fetches served by stealing from a sibling kernel's ready queue
    /// (each paid [`TsuCosts::steal`] extra cycles inside the unit).
    pub stolen_fetches: u64,
}

/// Result of a fetch command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DevFetch {
    /// Run this instance, dispatched under this epoch; the core may start
    /// at the given cycle. The epoch token must be handed back on
    /// [`TsuDevice::complete`].
    Thread(Instance, Epoch, u64),
    /// Nothing ready: the core parks until the device wakes it.
    Parked,
    /// Program finished: the core exits at the given cycle.
    Exit(u64),
}

/// The TSU Group / TSU Emulator device. Optionally sharded into multiple
/// TSU Groups (§3.3's "systems with very large number of CPUs" extension):
/// each shard serializes its own cores' commands, and a ready-count update
/// that crosses shards pays `cross_cost` extra cycles (the TSU-to-TSU
/// message that the single-group design handles internally).
pub(crate) struct TsuDevice<'p> {
    tsu: Tsu<&'p DdmProgram, Owned>,
    unit: Unit,
    /// The parked cores, bit `c` for core `c` (a machine has at most 64);
    /// the machine retries their fetches after every completion.
    pub(crate) parked: u64,
    ready_buf: Vec<Instance>,
    /// Counters.
    pub stats: TsuDevStats,
}

/// The unit's timing: one serialized command stream per shard, and what a
/// command costs.
struct Unit {
    costs: TsuCosts,
    busy_until: Vec<u64>,
    /// `shard_of[core]`.
    shard_of: Vec<u32>,
    cross_cost: u64,
}

impl Unit {
    /// Serialize one command into a shard; returns its completion cycle.
    fn process(&mut self, stats: &mut TsuDevStats, shard: u32, arrive: u64) -> u64 {
        let b = &mut self.busy_until[shard as usize];
        let start = (*b).max(arrive);
        let done = start + self.costs.op;
        *b = done;
        stats.commands += 1;
        stats.busy += self.costs.op;
        done
    }

    /// One Synchronization Memory command arriving at `shard` at cycle
    /// `arrive` that made `ready` ready; returns the cycle at which they
    /// become visible. That includes the TSU-to-TSU network message of a
    /// cross-shard ready-count update: `cross_cost` extra cycles, charged
    /// only when a newly-ready instance's owning kernel actually lives on
    /// another shard.
    fn sm_command(
        &mut self,
        stats: &mut TsuDevStats,
        tsu: &Tsu<&DdmProgram, Owned>,
        shard: u32,
        arrive: u64,
        ready: &[Instance],
    ) -> u64 {
        let done = self.process(stats, shard, arrive);
        let crosses = |&i: &Instance| self.shard_of[tsu.owner_of(i).idx()] != shard;
        if self.cross_cost == 0 || !ready.iter().any(crosses) {
            return done;
        }
        stats.cross_updates += 1;
        done + self.cross_cost
    }
}

impl<'p> TsuDevice<'p> {
    /// A sharded TSU: `groups` independent units, cross-shard updates
    /// costing `cross_cost` extra cycles.
    pub(crate) fn sharded(
        tsu: Tsu<&'p DdmProgram, Owned>,
        costs: TsuCosts,
        cores: u32,
        groups: u32,
        cross_cost: u64,
    ) -> Self {
        let g = groups.max(1);
        let shard_of = (0..cores)
            .map(|c| (c as u64 * g as u64 / cores.max(1) as u64) as u32)
            .collect();
        TsuDevice {
            tsu,
            unit: Unit {
                costs,
                busy_until: vec![0; g as usize],
                shard_of,
                cross_cost,
            },
            parked: 0,
            ready_buf: Vec::new(),
            stats: TsuDevStats::default(),
        }
    }

    /// The wrapped state machine.
    pub(crate) fn tsu(&self) -> &Tsu<&'p DdmProgram, Owned> {
        &self.tsu
    }

    /// Whether the program has finished.
    pub(crate) fn finished(&self) -> bool {
        self.tsu.finished()
    }

    /// A core asks for its next DThread at core-local cycle `now`.
    /// Propagates TSU protocol errors (non-resident dispatch, poisoned
    /// Synchronization Memory) instead of handing out a bogus instance.
    pub(crate) fn fetch(&mut self, core: u32, now: u64) -> Result<DevFetch, CoreError> {
        let arrive = now + self.unit.costs.access;
        let shard = self.unit.shard_of[core as usize];
        let mut done = self.unit.process(&mut self.stats, shard, arrive);
        let (fetched, stolen) = self.tsu.fetch_traced(KernelId(core))?;
        if stolen {
            // the unit walked a sibling queue to serve this fetch: the
            // command occupies the shard for `steal` extra cycles
            let steal = self.unit.costs.steal;
            self.unit.busy_until[shard as usize] += steal;
            self.stats.busy += steal;
            self.stats.stolen_fetches += 1;
            done += steal;
        }
        let bit = 1u64 << core;
        Ok(match fetched {
            FetchResult::Thread(i, ep) => {
                self.parked &= !bit;
                DevFetch::Thread(i, ep, done)
            }
            FetchResult::Wait => {
                self.stats.empty_fetches += 1;
                self.parked |= bit;
                let parked = self.parked.count_ones();
                self.stats.max_parked = self.stats.max_parked.max(parked);
                DevFetch::Parked
            }
            FetchResult::Exit => {
                self.parked &= !bit;
                DevFetch::Exit(done)
            }
        })
    }

    /// A core notifies completion of `inst` at core-local cycle `now`.
    ///
    /// Returns `(core_free, ready_at)`: the cycle the core may continue
    /// (the notification is a posted store — the core does not wait for the
    /// TSU's post-processing), and the cycle at which newly-ready DThreads
    /// become visible (post-processing done inside the unit).
    ///
    /// The completion is one unit command arriving after the MMI access:
    /// the hardware TSU posts every completion straight to the
    /// Synchronization Memory, with no combining stage in front of it.
    pub(crate) fn complete(
        &mut self,
        core: u32,
        now: u64,
        inst: Instance,
        epoch: Epoch,
    ) -> Result<(u64, u64), CoreError> {
        let arrive = now + self.unit.costs.access;
        let shard = self.unit.shard_of[core as usize];
        self.tsu
            .complete(KernelId(core), inst, epoch, &mut self.ready_buf)?;
        let ready_at =
            self.unit
                .sm_command(&mut self.stats, &self.tsu, shard, arrive, &self.ready_buf);
        Ok((arrive, ready_at))
    }

    /// Kernel-side software overhead per DThread transition.
    pub(crate) fn kernel_overhead(&self) -> u64 {
        self.unit.costs.kernel_overhead
    }

    /// Open the next streaming epoch: one unit command on shard 0 (epoch
    /// control is a serialized MMI operation). Returns the epoch id and
    /// the cycle at which any re-armed instances become fetchable.
    pub(crate) fn open_epoch(&mut self, now: u64) -> Result<(Epoch, u64), CoreError> {
        let done = self
            .unit
            .process(&mut self.stats, 0, now + self.unit.costs.access);
        let ep = self.tsu.open_epoch(&mut self.ready_buf)?;
        Ok((ep, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::prelude::*;

    fn fork(arity: u32) -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", arity));
        b.build().unwrap()
    }

    #[test]
    fn fetch_charges_access_and_op_latency() {
        let p = fork(2);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 1, 1, 0);
        match dev.fetch(0, 100).unwrap() {
            DevFetch::Thread(i, _, at) => {
                assert_eq!(i.thread, p.blocks()[0].inlet);
                // 100 + access(6) + op(4)
                assert_eq!(at, 110);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stolen_fetch_charges_access_op_and_steal_latency() {
        // every `w` instance is pinned to kernel 0, so core 1 can only be
        // served by the unit walking kernel 0's queue: that fetch pays
        // access + op + steal, a local fetch pays access + op only
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(
            blk,
            ThreadSpec::new("w", 4).with_affinity(Affinity::Fixed(KernelId(0))),
        );
        let p = b.build().unwrap();
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 2, 1, 0);
        let DevFetch::Thread(inlet, ep, t0) = dev.fetch(0, 0).unwrap() else {
            panic!()
        };
        dev.complete(0, t0, inlet, ep).unwrap();
        // local fetch on core 0: 1000 + access(6) + op(4)
        let DevFetch::Thread(_, _, local_at) = dev.fetch(0, 1000).unwrap() else {
            panic!()
        };
        assert_eq!(local_at, 1010);
        assert_eq!(dev.stats.stolen_fetches, 0);
        // stolen fetch on core 1: serialized behind the local fetch, plus
        // the steal walk (10)
        let DevFetch::Thread(_, _, stolen_at) = dev.fetch(1, 1000).unwrap() else {
            panic!()
        };
        assert_eq!(stolen_at, local_at + 4 + 10);
        assert_eq!(dev.stats.stolen_fetches, 1);
        assert!(dev.tsu().stats().steals >= 1);
    }

    #[test]
    fn commands_serialize_through_the_unit() {
        let p = fork(8);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 2, 1, 0);
        // prime: inlet fetched and completed so app threads are ready
        let DevFetch::Thread(inlet, ep, t0) = dev.fetch(0, 0).unwrap() else {
            panic!()
        };
        let (_, _) = dev.complete(0, t0, inlet, ep).unwrap();
        // two cores fetch at the same instant: second is delayed by op
        let DevFetch::Thread(_, _, a) = dev.fetch(0, 1000).unwrap() else {
            panic!()
        };
        let DevFetch::Thread(_, _, b) = dev.fetch(1, 1000).unwrap() else {
            panic!()
        };
        assert!(b >= a + 4, "unit must serialize: {a} vs {b}");
    }

    #[test]
    fn empty_fetch_parks_core() {
        let p = fork(1);
        let tsu = Tsu::new(&p, 2, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 2, 1, 0);
        let DevFetch::Thread(inlet, ep, _) = dev.fetch(0, 0).unwrap() else {
            panic!()
        };
        // core 1 fetches while only core 0 holds the inlet: nothing ready
        assert_eq!(dev.fetch(1, 0).unwrap(), DevFetch::Parked);
        assert_eq!(dev.parked, 0b10);
        assert_eq!(dev.stats.empty_fetches, 1);
        // completing the inlet loads the block; core 1 can now fetch
        dev.complete(0, 10, inlet, ep).unwrap();
        assert!(matches!(dev.fetch(1, 20).unwrap(), DevFetch::Thread(..)));
        assert_eq!(dev.parked, 0);
    }

    #[test]
    fn completion_is_posted_core_continues_before_postprocessing() {
        let p = fork(1);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::soft(), 1, 1, 0);
        let DevFetch::Thread(inlet, ep, t) = dev.fetch(0, 0).unwrap() else {
            panic!()
        };
        let (core_free, ready_at) = dev.complete(0, t, inlet, ep).unwrap();
        assert_eq!(core_free, t + TsuCosts::soft().access);
        assert!(ready_at >= core_free + TsuCosts::soft().op);
    }

    #[test]
    fn shards_serialize_independently() {
        let p = fork(16);
        let tsu = Tsu::new(&p, 4, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 4, 2, 8);
        // prime the block
        let DevFetch::Thread(inlet, ep, t0) = dev.fetch(0, 0).unwrap() else {
            panic!()
        };
        dev.complete(0, t0, inlet, ep).unwrap();
        // cores 0 and 2 are on different shards: same-instant fetches do
        // NOT serialize against each other
        let DevFetch::Thread(_, _, a) = dev.fetch(0, 1000).unwrap() else {
            panic!()
        };
        let DevFetch::Thread(_, _, b) = dev.fetch(2, 1000).unwrap() else {
            panic!()
        };
        assert_eq!(a, b, "different shards must not serialize");
        // cores 2 and 3 share a shard: they do serialize
        let DevFetch::Thread(_, _, c) = dev.fetch(3, 1000).unwrap() else {
            panic!()
        };
        assert!(c > b, "same shard must serialize: {b} vs {c}");
    }

    #[test]
    fn cross_shard_updates_are_charged_and_counted() {
        let p = fork(8);
        let tsu = Tsu::new(&p, 4, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 4, 2, 50);
        let DevFetch::Thread(inlet, ep, t0) = dev.fetch(0, 0).unwrap() else {
            panic!()
        };
        // the inlet load readies instances owned by both shards
        let (_, ready_at) = dev.complete(0, t0, inlet, ep).unwrap();
        assert!(dev.stats.cross_updates >= 1);
        // ready_at includes the cross-shard message
        let plain_tsu = Tsu::new(&p, 4, TsuConfig::default());
        let mut plain = TsuDevice::sharded(plain_tsu, TsuCosts::hard(), 4, 1, 0);
        let DevFetch::Thread(inlet2, ep2, t1) = plain.fetch(0, 0).unwrap() else {
            panic!()
        };
        let (_, plain_ready) = plain.complete(0, t1, inlet2, ep2).unwrap();
        assert_eq!(ready_at, plain_ready + 50);
    }

    #[test]
    fn reopened_epoch_resumes_the_device_after_exit() {
        let p = fork(2);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 1, 1, 0);
        let mut now = 0;
        let drive = |dev: &mut TsuDevice<'_>, mut now: u64| loop {
            match dev.fetch(0, now).unwrap() {
                DevFetch::Thread(i, ep, at) => {
                    let (free, _) = dev.complete(0, at, i, ep).unwrap();
                    now = free;
                }
                DevFetch::Exit(at) => break at,
                DevFetch::Parked => panic!("single core should never park"),
            }
        };
        now = drive(&mut dev, now);
        assert!(dev.finished());
        // open the next epoch: the device re-arms and serves a full pass
        let (ep, ready_at) = dev.open_epoch(now).unwrap();
        assert_eq!(ep, tflux_core::Epoch(1));
        assert!(!dev.finished());
        drive(&mut dev, ready_at);
        assert!(dev.finished());
        assert_eq!(
            dev.tsu().stats().completions as usize,
            2 * p.total_instances()
        );
        assert_eq!(dev.tsu().stats().epochs, 2);
    }

    #[test]
    fn exit_after_program_finishes() {
        let p = fork(1);
        let tsu = Tsu::new(&p, 1, TsuConfig::default());
        let mut dev = TsuDevice::sharded(tsu, TsuCosts::hard(), 1, 1, 0);
        let mut now = 0;
        loop {
            match dev.fetch(0, now).unwrap() {
                DevFetch::Thread(i, ep, at) => {
                    let (free, _) = dev.complete(0, at, i, ep).unwrap();
                    now = free;
                }
                DevFetch::Exit(_) => break,
                DevFetch::Parked => panic!("single core should never park"),
            }
        }
        assert!(dev.finished());
        assert_eq!(dev.tsu().stats().completions as usize, p.total_instances());
    }
}
