//! Differential test of the one `Tsu` across its two constructors.
//!
//! Every platform runs the same queue type; what differs is the driver.
//! `Tsu::new` serves one thread playing every kernel id (the device models,
//! the sequential drain): every run lands on its owner's deque, and idle
//! victim scans are paced. `Tsu::threaded` serves kernel threads: a run by
//! anyone but its owner goes through the owner's inbox, and scans are never
//! skipped. Driven by *one* thread, the inbox keeps arrival order, so with
//! stealing off the two must make the same decisions — identical execution
//! order, identical `TsuStats` — under either driver below: kernels taking
//! turns, or kernels each holding a fetched instance while the held ones
//! complete in a seeded order, as the simulator's event loop does. With
//! stealing on, pacing legitimately differs, so the two are held to the
//! order-independent part.
//!
//! The generated programs (`tflux_core::random_program`) hit the paths
//! where the two could diverge: wide threads pinned to one kernel (every
//! sibling must steal), reductions into a scalar sink, whose fan-in makes
//! every case's funnels batch (combining), and several blocks; each case
//! streams three or more epochs.

use tflux_core::prelude::*;
use tflux_core::{
    cases, funnel_batch, random_program, Access, Epoch, SplitMix64, SyncMemory, TsuStats,
    FUNNEL_BATCH,
};

struct Case {
    program: DdmProgram,
    kernels: u32,
    config: TsuConfig,
    epochs: u64,
    /// Bank every pass up front (the device models' way) instead of
    /// opening the next one after each drain (the supervisor's way).
    bank_up_front: bool,
}

fn case(rng: &mut SplitMix64) -> Case {
    let kernels = rng.range(2u32..6);
    let program = random_program(rng, kernels);
    let epochs = rng.range(3u64..6);
    Case {
        program,
        kernels,
        config: TsuConfig {
            capacity: 0,
            steal: true,
            window: epochs as usize,
        },
        epochs,
        bank_up_front: rng.chance(1, 2),
    }
}

/// Drain every epoch of `case`, stealing or not, through the `Tsu` that
/// `build` constructs, the way a platform does — completing through
/// per-kernel funnels batching as [`funnel_batch`] reads the program, and
/// flushing them before conceding a wait — with
/// one thread playing all kernels. With `interleave` unset the
/// kernels take turns, each completing what it fetched at once; with a
/// seed, every kernel holds up to one fetched instance and a seeded draw
/// picks which holder completes next. Returns the execution order of each
/// epoch and the final counters.
fn drive<'p, M: Access>(
    case: &'p Case,
    steal: bool,
    build: fn(&'p DdmProgram, u32, TsuConfig) -> Tsu<&'p DdmProgram, M>,
    interleave: Option<u64>,
) -> (Vec<Vec<Instance>>, TsuStats) {
    let tsu = build(
        &case.program,
        case.kernels,
        TsuConfig {
            steal,
            ..case.config
        },
    );
    let n = case.kernels as usize;
    let batch = funnel_batch(&case.program, case.kernels);
    let mut funnels: Vec<_> = (0..n).map(|_| CompletionFunnel::new(batch)).collect();
    let mut scratch = Vec::new();
    let mut order = vec![Vec::new(); case.epochs as usize];
    let mut opened = 1;
    if case.bank_up_front {
        for _ in 1..case.epochs {
            tsu.open_epoch(&mut scratch).expect("bank a pass");
        }
        opened = case.epochs;
    }
    let mut held = vec![None; n];
    let mut rng = SplitMix64(interleave.unwrap_or(0));
    let (mut k, mut idle) = (0usize, 0usize);
    loop {
        // the turn-taking driver fetches for one kernel, the interleaved
        // one for every kernel holding nothing
        let fetching: Vec<usize> = match interleave {
            None => vec![k],
            Some(_) => (0..n).filter(|&k| held[k].is_none()).collect(),
        };
        let mut exit = false;
        for f in fetching {
            match tsu.fetch(KernelId(f as u32)).expect("fetch") {
                FetchResult::Thread(i, ep) => {
                    order[ep.0 as usize].push(i);
                    held[f] = Some((i, ep));
                }
                FetchResult::Wait => {
                    funnels[f]
                        .flush(KernelId(f as u32), &tsu, &mut scratch)
                        .expect("flush");
                }
                FetchResult::Exit => exit = true,
            }
        }
        let holders: Vec<usize> = (0..n).filter(|&k| held[k].is_some()).collect();
        if holders.is_empty() {
            if exit && opened < case.epochs {
                tsu.open_epoch(&mut scratch).expect("open next pass");
                opened += 1;
            } else if exit {
                break;
            } else {
                idle += 1;
                assert!(idle <= 2 * n, "no kernel can make progress");
            }
        } else {
            idle = 0;
            let h = *rng.pick(&holders);
            let (i, ep) = held[h].take().expect("a holder holds");
            funnels[h]
                .complete(KernelId(h as u32), &tsu, i, ep, &mut scratch)
                .expect("complete");
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
fn both_constructors_make_the_same_decisions_under_one_thread() {
    let (mut steals, mut batched) = (0, 0);
    cases(96, |rng| {
        let case = case(rng);
        // the `src → wide → sink` spine is a hot sink on every kernel count
        assert_eq!(funnel_batch(&case.program, case.kernels), FUNNEL_BATCH);
        let seed = rng.next_u64();
        // every pass ran every instance exactly once
        let p = &case.program;
        let mut all: Vec<Instance> = (0..p.threads().len() as u32)
            .flat_map(|t| p.instances_of(ThreadId(t)))
            .collect();
        all.sort_unstable();
        for interleave in [None, Some(seed)] {
            let (order, stats) = drive(&case, false, Tsu::new, interleave);
            let (threaded_order, threaded_stats) = drive(&case, false, Tsu::threaded, interleave);
            assert_eq!(order, threaded_order, "execution order diverged");
            assert_eq!(format!("{stats:?}"), format!("{threaded_stats:?}"));
            for pass in sorted(&order) {
                assert_eq!(pass, all);
            }
            assert_eq!(
                stats.completions as usize,
                case.epochs as usize * p.total_instances()
            );
            batched += stats.rc_updates - stats.rc_rmws;
            // stealing: the two differ only in pacing — same work, same
            // bookkeeping, in whatever order
            let (paced_order, paced_stats) = drive(&case, true, Tsu::new, interleave);
            let (order, stats) = drive(&case, true, Tsu::threaded, interleave);
            assert_eq!(sorted(&paced_order), sorted(&order));
            assert_eq!(order_independent(&paced_stats), order_independent(&stats));
            assert_eq!(stats.steal_skips, 0, "kernel threads never skip");
            steals += stats.steals;
        }
    });
    // the generator does reach the paths it is meant to
    assert!(steals > 1_000, "pinned threads must force steals: {steals}");
    assert!(
        batched > 1_000,
        "funnels must combine decrements: {batched}"
    );
}

#[test]
fn zero_kernels_clamp_to_one_on_both_constructors() {
    // one rule in the one constructor (and in the units under it):
    // `kernels == 0` means one kernel, as the platform configs clamp
    fn check<'p, M: Access>(
        p: &'p DdmProgram,
        build: fn(&'p DdmProgram, u32, TsuConfig) -> Tsu<&'p DdmProgram, M>,
    ) {
        let tsu = build(p, 0, TsuConfig::default());
        assert_eq!(tsu.kernels(), 1);
        assert_eq!(tsu.queues().len(), 1);
        // and only one: no id is aliased onto the one queue
        assert!(matches!(
            tsu.fetch(KernelId(7)),
            Err(CoreError::UnknownKernel { kernels: 1, .. })
        ));
        let order = tflux_core::drain_sequential(&tsu).unwrap();
        assert_eq!(order.len(), p.total_instances());
        assert_eq!(tsu.stats().completions as usize, p.total_instances());
    }
    let mut rng = SplitMix64(0);
    let case = case(&mut rng);
    assert_eq!(SyncMemory::new(&case.program, 0, 0).kernels(), 1);
    check(&case.program, Tsu::new);
    check(&case.program, Tsu::threaded);
}
