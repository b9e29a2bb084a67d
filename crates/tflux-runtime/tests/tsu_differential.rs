//! Differential test of the one `Tsu` across its queue units.
//!
//! The platforms differ only in the [`QueueUnit`] they instantiate:
//! `StealDeque` behind the device models, the runtime's `ReadyQueue` behind
//! kernel threads. Driven by *one* thread round-robining the kernel ids,
//! `ReadyQueue`'s inbox-then-deque is observationally a `StealDeque`, so
//! under the same steal pacing the two must make the same decisions:
//! identical execution order, identical `TsuStats`. The one legitimate
//! difference is the pacing itself (`QueueUnit::BACKOFF`), so the shipping
//! `StealDeque` is additionally held to the order-independent part.
//!
//! Generated programs are built to hit the paths where the units could
//! diverge: wide threads pinned to one kernel (every sibling must steal),
//! reductions into a scalar sink under `FlushPolicy::Batch` (funnels +
//! combining), several blocks, and three or more streamed epochs.

use tflux_core::ids::Epoch;
use tflux_core::prelude::*;
use tflux_core::rng::{cases, SplitMix64};
use tflux_core::tsu::{GraphMemory, QueueUnit, Steal, StealDeque, TsuStats};
use tflux_runtime::sm::ReadyQueue;

/// A `StealDeque` driven at the runtime's pacing: every miss probes.
struct Unpaced(StealDeque);

impl QueueUnit for Unpaced {
    const BACKOFF: bool = false;
    fn new(cap: usize) -> Self {
        Unpaced(QueueUnit::new(cap))
    }
    fn push(&self, inst: Instance, epoch: Epoch, _by_owner: bool) {
        self.0.push(inst, epoch)
    }
    fn take(&self) -> Option<(Instance, Epoch)> {
        self.0.pop()
    }
    fn steal(&self) -> Steal {
        self.0.steal()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

struct Case {
    program: DdmProgram,
    kernels: u32,
    config: TsuConfig,
    epochs: u64,
    /// Bank every pass up front (the device models' way) instead of
    /// opening the next one after each drain (the supervisor's way).
    bank_up_front: bool,
}

fn affinity(rng: &mut SplitMix64, kernels: u32) -> Affinity {
    match rng.below(4) {
        0 => Affinity::Range,
        1 => Affinity::RoundRobin,
        // half of all threads sit on one kernel's queue: siblings steal
        _ => Affinity::Fixed(KernelId(rng.range(0..kernels))),
    }
}

fn case(rng: &mut SplitMix64, steal: bool) -> Case {
    let kernels = rng.range(2u32..6);
    let mut b = ProgramBuilder::new();
    for _ in 0..rng.range(1..4) {
        let blk = b.block();
        // a fork-join spine with a hot reduction sink...
        let src = b.thread(blk, ThreadSpec::scalar("src"));
        let wide = rng.range(kernels..4 * kernels + 1);
        let work = b.thread(
            blk,
            ThreadSpec::new("work", wide).with_affinity(affinity(rng, kernels)),
        );
        let sink = b.thread(blk, ThreadSpec::scalar("sink"));
        b.arc(src, work, ArcMapping::Broadcast).unwrap();
        b.arc(work, sink, ArcMapping::Reduction).unwrap();
        // ...plus random side threads hung off it wherever the arities fit
        let mut threads = vec![src, work];
        for i in 0..rng.range(0..4) {
            let arity = [1, wide, rng.range(1..9)][rng.below(3) as usize];
            let t = b.thread(
                blk,
                ThreadSpec::new(format!("t{i}"), arity).with_affinity(affinity(rng, kernels)),
            );
            let producer = *rng.pick(&threads);
            let mapping = *rng.pick(&[
                ArcMapping::All,
                ArcMapping::OneToOne,
                ArcMapping::Offset(1),
                ArcMapping::Group { factor: 2 },
            ]);
            // arc() validates arity compatibility; an unconnected thread is
            // simply ready at block load
            let _ = b.arc(producer, t, mapping);
            threads.push(t);
        }
    }
    let epochs = rng.range(3u64..6);
    Case {
        program: b.build().expect("generated program must validate"),
        kernels,
        config: TsuConfig {
            capacity: 0,
            steal,
            flush: *rng.pick(&[
                FlushPolicy::Batch { size: 3 },
                FlushPolicy::Batch { size: 8 },
                FlushPolicy::Auto,
                FlushPolicy::Direct,
            ]),
            window: epochs as usize,
        },
        epochs,
        bank_up_front: rng.chance(1, 2),
    }
}

/// Drain every epoch of `case` through a `Tsu<_, Q>` the way a platform
/// does — per-kernel funnels, flushed when full, before a block
/// transition and before conceding a wait — with one thread playing all
/// kernels in turn. Returns the execution order of each epoch and the
/// final counters.
fn drive<Q: QueueUnit>(case: &Case) -> (Vec<Vec<Instance>>, TsuStats) {
    let tsu = Tsu::<_, Q>::with_queue_unit(&case.program, case.kernels, case.config);
    let n = case.kernels as usize;
    let mut funnels: Vec<_> = (0..n)
        .map(|_| CompletionFunnel::new(tsu.flush_policy()))
        .collect();
    let mut scratch = Vec::new();
    let mut order = vec![Vec::new(); case.epochs as usize];
    let mut opened = 1;
    if case.bank_up_front {
        for _ in 1..case.epochs {
            tsu.open_epoch(&mut scratch).expect("bank a pass");
        }
        opened = case.epochs;
    }
    let (mut k, mut idle) = (0usize, 0usize);
    loop {
        match tsu.fetch(KernelId(k as u32)).expect("fetch") {
            FetchResult::Thread(i, ep) => {
                idle = 0;
                order[ep.0 as usize].push(i);
                if funnels[k].batching() && tsu.graph().kind(i.thread) == ThreadKind::App {
                    if funnels[k].push(i, ep) {
                        funnels[k]
                            .flush(KernelId(k as u32), &tsu, &mut scratch)
                            .expect("flush");
                    }
                } else {
                    funnels[k]
                        .flush(KernelId(k as u32), &tsu, &mut scratch)
                        .expect("flush");
                    tsu.complete(KernelId(k as u32), i, ep, &mut scratch)
                        .expect("complete");
                }
            }
            FetchResult::Wait => {
                funnels[k]
                    .flush(KernelId(k as u32), &tsu, &mut scratch)
                    .expect("flush");
                idle += 1;
                assert!(idle <= 2 * n, "no kernel can make progress");
            }
            FetchResult::Exit if opened < case.epochs => {
                tsu.open_epoch(&mut scratch).expect("open next pass");
                opened += 1;
            }
            FetchResult::Exit => break,
        }
        k = (k + 1) % n;
    }
    assert!(funnels.iter().all(|f| f.is_empty()));
    for e in 0..case.epochs {
        tsu.retire_epoch(Epoch(e)).expect("retire drained pass");
    }
    assert_eq!(tsu.epoch_ledger(), (case.epochs, case.epochs, case.epochs));
    (order, tsu.stats())
}

/// The counters that cannot depend on who executed what when.
fn order_independent(s: &TsuStats) -> [u64; 6] {
    [
        s.fetches,
        s.completions,
        s.rc_updates,
        s.blocks_loaded,
        s.epochs,
        s.max_resident as u64,
    ]
}

fn sorted(order: &[Vec<Instance>]) -> Vec<Vec<Instance>> {
    let mut epochs = order.to_vec();
    epochs.iter_mut().for_each(|e| e.sort_unstable());
    epochs
}

#[test]
fn queue_units_make_the_same_decisions_under_the_same_pacing() {
    let (mut steals, mut batched) = (0, 0);
    cases(96, |rng| {
        let steal = rng.chance(3, 4);
        let case = case(rng, steal);
        let (deque_order, deque_stats) = drive::<Unpaced>(&case);
        let (ready_order, ready_stats) = drive::<ReadyQueue>(&case);
        assert_eq!(deque_order, ready_order, "execution order diverged");
        assert_eq!(format!("{deque_stats:?}"), format!("{ready_stats:?}"));
        // every pass ran every instance exactly once
        let p = &case.program;
        let mut all: Vec<Instance> = (0..p.threads().len() as u32)
            .flat_map(|t| p.instances_of(ThreadId(t)))
            .collect();
        all.sort_unstable();
        for pass in sorted(&deque_order) {
            assert_eq!(pass, all);
        }
        assert_eq!(
            deque_stats.completions as usize,
            case.epochs as usize * case.program.total_instances()
        );
        steals += deque_stats.steals;
        batched += deque_stats.rc_updates - deque_stats.rc_rmws;
        // the shipping device unit differs from the runtime's only in
        // pacing: same work, same bookkeeping, in whatever order
        let (paced_order, paced_stats) = drive::<StealDeque>(&case);
        assert_eq!(sorted(&paced_order), sorted(&ready_order));
        assert_eq!(
            order_independent(&paced_stats),
            order_independent(&ready_stats)
        );
        assert_eq!(ready_stats.steal_skips, 0, "kernel threads never skip");
    });
    // the generator does reach the paths it is meant to
    assert!(steals > 1_000, "pinned threads must force steals: {steals}");
    assert!(
        batched > 1_000,
        "funnels must combine decrements: {batched}"
    );
}

#[test]
fn zero_kernels_clamp_to_one_on_both_queue_units() {
    // one rule in the one constructor (and in the units under it):
    // `kernels == 0` means one kernel, as the platform configs clamp
    fn check<Q: QueueUnit>(p: &DdmProgram) {
        let tsu = Tsu::<_, Q>::with_queue_unit(p, 0, TsuConfig::default());
        assert_eq!(tsu.kernels(), 1);
        assert_eq!(tsu.queues().len(), 1);
        assert!(!tsu.stealing());
        // and only one: no id is aliased onto the one queue
        assert!(matches!(
            tsu.fetch(KernelId(7)),
            Err(CoreError::UnknownKernel { kernels: 1, .. })
        ));
        let order = tflux_core::tsu::drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
        assert_eq!(tsu.stats().completions as usize, p.total_instances());
    }
    let mut rng = SplitMix64(0);
    let case = case(&mut rng, true);
    assert_eq!(GraphMemory::new(&case.program, 0).kernels(), 1);
    check::<StealDeque>(&case.program);
    check::<ReadyQueue>(&case.program);
}
