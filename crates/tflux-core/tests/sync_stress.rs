//! N-thread dispatch/complete race over the lock-free ready-count table.
//!
//! Every racing thread attempts to dispatch *every* ready instance of a
//! wide fan-in program, so the RESIDENT→RUNNING CAS is exercised under
//! genuine contention: exactly one thread may win each instance, losers
//! must observe [`CoreError::NotResident`], the fan-in sink must become
//! newly-ready exactly once, and the decrement ledger (`rc_updates`)
//! must balance to the program's arc structure exactly — a lost or
//! duplicated `fetch_sub` shows up as an off-by-one here. Every concurrent
//! thread acts as a kernel id of its own, as the SM's single-writer counter
//! rows require; the sequential prologues and epilogues act as kernel 0.
//!
//! Runs in the CI chaos job (and under ThreadSanitizer in the tsan job).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tflux_core::prelude::*;
use tflux_core::{SyncMemory, TsuStats};

/// The kernel the single-threaded parts of every test act as.
const K0: KernelId = KernelId(0);

/// `column` of every kernel's counter row, summed.
fn kernel_sum(sm: &SyncMemory<&DdmProgram>, column: fn(&TsuStats) -> u64) -> u64 {
    let rows = (0..sm.kernels()).map(|k| sm.kernel_stats(KernelId(k)));
    rows.map(|s| column(&s)).sum()
}

/// One round: `arity` producers reduced into a scalar sink, raced by
/// `racers` threads that all contend for every dispatch. The SM is built
/// for at least `racers` kernels, so that every racer has a row.
fn race_round(arity: u32, racers: usize, kernels: u32) {
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    let p = b.build().unwrap();

    let sm = SyncMemory::new(&p, kernels.max(racers as u32), 0);
    let mut ready = Vec::new();
    let inlet = sm.armed_inlet();
    let ep = sm.dispatch(Some(K0), inlet).unwrap();
    sm.complete(K0, inlet, ep, &mut ready).unwrap();
    assert_eq!(ready.len(), arity as usize);

    let wins = AtomicU64::new(0);
    let losses = AtomicU64::new(0);
    let newly: Mutex<Vec<Instance>> = Mutex::new(Vec::new());
    let (sm_ref, ready_ref) = (&sm, &ready);
    let (wins_ref, losses_ref, newly_ref) = (&wins, &losses, &newly);
    std::thread::scope(|s| {
        for k in (0..racers as u32).map(KernelId) {
            s.spawn(move || {
                let mut local = Vec::new();
                for &i in ready_ref {
                    // every racer tries every instance: the state CAS must
                    // admit exactly one winner, and reject the rest with a
                    // protocol error rather than a silent double-dispatch
                    match sm_ref.dispatch(Some(k), i) {
                        Ok(ep) => {
                            wins_ref.fetch_add(1, Ordering::Relaxed);
                            sm_ref.complete(k, i, ep, &mut local).unwrap();
                            newly_ref.lock().unwrap().extend(local.drain(..));
                        }
                        Err(CoreError::NotResident(lost)) => {
                            assert_eq!(lost, i);
                            losses_ref.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected dispatch error: {e}"),
                    }
                }
            });
        }
    });

    // exactly one winner per instance; everyone else saw NotResident
    assert_eq!(wins.load(Ordering::Relaxed), arity as u64);
    assert_eq!(
        losses.load(Ordering::Relaxed),
        (racers as u64 - 1) * arity as u64
    );

    // the 1→0 transition fired exactly once: the sink is newly-ready
    // once, never zero times (lost decrement) or twice (double-ready)
    let newly = newly.into_inner().unwrap();
    assert_eq!(newly, vec![Instance::scalar(sink)]);

    // decrement conservation: each work completion decrements the sink
    // (Reduction) and the block outlet (implicit All) exactly once
    let after_race = 2 * arity as u64;
    assert_eq!(sm.stats().rc_updates, after_race);
    let by_kernel = kernel_sum(&sm, |s| s.rc_updates);
    assert_eq!(by_kernel, after_race, "per-kernel ledger must sum to total");

    // drain the rest of the program sequentially: sink, then outlet
    let mut frontier = newly;
    while let Some(i) = frontier.pop() {
        let ep = sm.dispatch(Some(K0), i).unwrap();
        sm.complete(K0, i, ep, &mut frontier).unwrap();
    }
    assert!(sm.finished(), "program must drain to completion");
    assert!(!sm.is_poisoned());

    // fetch/complete pairing over the whole run (inlet + work + sink + outlet)
    let st = sm.stats();
    assert_eq!(st.completions as usize, p.total_instances());
    // sink completion adds one more outlet decrement
    assert_eq!(st.rc_updates, after_race + 1);
}

#[test]
fn racing_dispatchers_admit_exactly_one_winner() {
    race_round(256, 8, 4);
}

#[test]
fn race_rounds_across_shapes() {
    // seeded sweep of (arity, racers, kernels) shapes so the race is
    // exercised at different contention ratios and shard layouts
    for &(arity, racers, kernels) in &[
        (64, 2, 1),
        (96, 3, 2),
        (128, 4, 4),
        (200, 6, 3),
        (512, 8, 8),
    ] {
        race_round(arity, racers, kernels);
    }
}

#[test]
fn racing_batch_flushers_conserve_the_decrement_ledger() {
    // funnel-flush variant of the race: each flusher owns a disjoint slice
    // of the ready set, dispatches it, and retires it through
    // `complete_batch` — so concurrent `fetch_sub(n)` updates race on the
    // shared sink slot. Batching must conserve the logical ledger exactly
    // and admit exactly one n→0 publisher.
    let arity = 512u32;
    let flushers = 8usize;
    let batch = 16usize;
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    let p = b.build().unwrap();

    let sm = SyncMemory::new(&p, flushers as u32, 0);
    let mut ready = Vec::new();
    let inlet = sm.armed_inlet();
    let ep = sm.dispatch(Some(K0), inlet).unwrap();
    sm.complete(K0, inlet, ep, &mut ready).unwrap();
    assert_eq!(ready.len(), arity as usize);

    let newly: Mutex<Vec<Instance>> = Mutex::new(Vec::new());
    let (sm_ref, newly_ref) = (&sm, &newly);
    std::thread::scope(|s| {
        for (k, slice) in ready.chunks(arity as usize / flushers).enumerate() {
            s.spawn(move || {
                let k = KernelId(k as u32);
                let mut out = Vec::new();
                let mut published = Vec::new();
                for sub in slice.chunks(batch) {
                    let mut ep = sm_ref.current_epoch();
                    for &i in sub {
                        ep = sm_ref.dispatch(Some(k), i).unwrap();
                    }
                    // one flush per sub-batch: each covers up to `batch`
                    // logical decrements of the sink with one RMW
                    sm_ref.complete_batch(k, sub, ep, &mut out).unwrap();
                    published.append(&mut out);
                }
                newly_ref.lock().unwrap().extend(published);
            });
        }
    });

    // exactly one flusher observed the n→0 edge on the sink
    let newly = newly.into_inner().unwrap();
    assert_eq!(newly, vec![Instance::scalar(sink)]);

    // the logical ledger is invariant under batching: each work completion
    // still decrements the sink (Reduction) and the outlet (implicit All)
    // exactly once, same as the direct path in `race_round`
    let st = sm.stats();
    assert_eq!(st.rc_updates, 2 * arity as u64);
    let by_kernel = kernel_sum(&sm, |s| s.rc_updates);
    assert_eq!(
        by_kernel,
        2 * arity as u64,
        "per-kernel ledger must sum to total"
    );
    // ...but the physical RMW count collapsed: each flush combines its
    // sub-batch into at most two RMWs (sink + outlet)
    assert!(
        st.rc_rmws <= 2 * (arity as u64).div_ceil(batch as u64),
        "batching did not collapse RMWs: {} physical for {} logical",
        st.rc_rmws,
        st.rc_updates
    );

    // drain the rest of the program and audit the totals
    let mut frontier = newly;
    while let Some(i) = frontier.pop() {
        let ep = sm.dispatch(Some(K0), i).unwrap();
        sm.complete(K0, i, ep, &mut frontier).unwrap();
    }
    assert!(sm.finished(), "program must drain to completion");
    assert!(!sm.is_poisoned());
    let st = sm.stats();
    assert_eq!(st.completions as usize, p.total_instances());
    assert_eq!(st.rc_updates, 2 * arity as u64 + 1);
}

#[test]
fn completions_are_exact_under_concurrent_completers() {
    // non-racing variant: partition the ready set, complete concurrently,
    // and audit the exactly-once property instance by instance
    let arity = 384u32;
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    let p = b.build().unwrap();

    let sm = SyncMemory::new(&p, arity / 24, 0);
    let mut ready = Vec::new();
    let inlet = sm.armed_inlet();
    let ep = sm.dispatch(Some(K0), inlet).unwrap();
    sm.complete(K0, inlet, ep, &mut ready).unwrap();

    let done: Mutex<Vec<Instance>> = Mutex::new(Vec::new());
    let (sm_ref, done_ref) = (&sm, &done);
    std::thread::scope(|s| {
        for (k, chunk) in ready.chunks(24).enumerate() {
            s.spawn(move || {
                let k = KernelId(k as u32);
                let mut newly = Vec::new();
                for &i in chunk {
                    let ep = sm_ref.dispatch(Some(k), i).unwrap();
                    sm_ref.complete(k, i, ep, &mut newly).unwrap();
                }
                done_ref.lock().unwrap().extend(chunk.iter().copied());
                done_ref.lock().unwrap().extend(newly.drain(..));
            });
        }
    });

    // every work instance completed exactly once, plus the sink readied once
    let done = done.into_inner().unwrap();
    let mut counts: HashMap<Instance, usize> = HashMap::new();
    for i in &done {
        *counts.entry(*i).or_insert(0) += 1;
    }
    assert_eq!(done.len(), arity as usize + 1);
    assert!(counts.values().all(|&c| c == 1), "double-ready detected");
    assert_eq!(counts.get(&Instance::scalar(sink)), Some(&1));
    assert_eq!(sm.completions(), 1 + arity as u64); // inlet + work
                                                    // single-writer rows lose nothing: each completer's 24 completions put
                                                    // 24 sink and 24 outlet decrements on its own row
    for k in 0..arity / 24 {
        let row = sm.kernel_stats(KernelId(k));
        assert_eq!((row.rc_updates, row.rc_rmws), (48, 48));
    }
}

#[test]
fn steal_heavy_thieves_claim_every_entry_exactly_once() {
    // steal-heavy Chase-Lev race: four thieves hammer one owner's deque
    // while the owner interleaves pushes with LIFO pops, and the tiny
    // ring wraps its indices thousands of times under fire. Every entry
    // must be claimed exactly once across owner and thieves — a lost CAS
    // that still hands out the entry, or a push that overwrites a live
    // slot, shows up as a duplicate or a hole here. Runs under
    // ThreadSanitizer in the tsan job.
    use std::sync::atomic::AtomicBool;
    use tflux_core::{Context, Epoch, Instance, Steal, StealDeque, ThreadId};

    let total: u32 = 20_000;
    let q = StealDeque::with_capacity(8);
    let done = AtomicBool::new(false);
    let claimed: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let (q_ref, done_ref, claimed_ref) = (&q, &done, &claimed);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    match q_ref.steal() {
                        Steal::Success((i, ep)) => {
                            assert_eq!(ep, Epoch(3), "epoch tag lost on the steal path");
                            mine.push(i.context.0);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done_ref.load(Ordering::SeqCst) && q_ref.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                claimed_ref.lock().unwrap().extend(mine);
            });
        }
        // the owner: push everything, popping every third entry itself
        let t = ThreadId(0);
        let mut mine = Vec::new();
        for c in 0..total {
            // a full ring refuses the push: take one back and retry
            while q_ref.push(Instance::new(t, Context(c)), Epoch(3)).is_err() {
                mine.extend(q_ref.pop().map(|(i, _)| i.context.0));
            }
            if c % 3 == 0 {
                if let Some((i, _)) = q_ref.pop() {
                    mine.push(i.context.0);
                }
            }
        }
        while let Some((i, _)) = q_ref.pop() {
            mine.push(i.context.0);
        }
        done_ref.store(true, Ordering::SeqCst);
        claimed_ref.lock().unwrap().extend(mine);
    });
    let mut all = claimed.into_inner().unwrap();
    assert_eq!(all.len(), total as usize, "lost or duplicated entries");
    all.sort_unstable();
    for (want, got) in all.iter().enumerate() {
        assert_eq!(*got, want as u32, "entry claimed twice or never");
    }
}

/// One owner-vs-thief round on a fresh capacity-2 deque holding
/// `0..preloaded`: both sides start together at a barrier, the owner runs
/// `owner` (returning what it claimed) while the thief steals until
/// `Empty`. Returns every claimed context, sorted.
fn owner_vs_thief(
    preloaded: u32,
    owner: impl FnOnce(&tflux_core::StealDeque) -> Vec<u32>,
) -> Vec<u32> {
    use tflux_core::{Context, Epoch, Instance, Steal, StealDeque, ThreadId};

    let q = StealDeque::with_capacity(2);
    for c in 0..preloaded {
        q.push(Instance::new(ThreadId(1), Context(c)), Epoch(0))
            .unwrap();
    }
    let start = std::sync::Barrier::new(2);
    let (q_ref, start_ref) = (&q, &start);
    let mut all = std::thread::scope(|s| {
        let thief = s.spawn(move || {
            start_ref.wait();
            let mut got = Vec::new();
            loop {
                match q_ref.steal() {
                    Steal::Success((i, ep)) => {
                        assert_eq!(ep, Epoch(0));
                        got.push(i.context.0);
                    }
                    Steal::Retry => {}
                    Steal::Empty => return got,
                }
            }
        });
        start.wait();
        let mut all = owner(q_ref);
        all.extend(thief.join().expect("thief panicked"));
        all
    });
    all.sort_unstable();
    all
}

#[test]
fn steal_during_wrap_around_neither_loses_nor_duplicates() {
    // a capacity-2 ring: the owner pushes every entry over slots a thief
    // may be reading mid-steal (taking one back whenever the ring
    // refuses), so the indices wrap ten thousand times while the thief
    // steals; the monotonic top counter must make a claim of an
    // overwritten slot impossible
    use std::sync::atomic::AtomicBool;
    use tflux_core::{Context, Epoch, Instance, Steal, StealDeque, ThreadId};

    let total: u32 = 20_000;
    let q = StealDeque::with_capacity(2);
    let (done, start) = (AtomicBool::new(false), std::sync::Barrier::new(2));
    let (q_ref, done_ref, start_ref) = (&q, &done, &start);
    let mut all = std::thread::scope(|s| {
        let thief = s.spawn(move || {
            start_ref.wait();
            let mut got = Vec::new();
            loop {
                match q_ref.steal() {
                    Steal::Success((i, _)) => got.push(i.context.0),
                    Steal::Retry => {}
                    Steal::Empty => {
                        if done_ref.load(Ordering::SeqCst) && q_ref.is_empty() {
                            return got;
                        }
                    }
                }
            }
        });
        start.wait();
        let mut mine = Vec::new();
        for c in 0..total {
            let i = Instance::new(ThreadId(1), Context(c));
            while q_ref.push(i, Epoch(0)).is_err() {
                mine.extend(q_ref.pop().map(|(i, _)| i.context.0));
            }
        }
        while let Some((i, _)) = q_ref.pop() {
            mine.push(i.context.0);
        }
        done_ref.store(true, Ordering::SeqCst);
        mine.extend(thief.join().expect("thief panicked"));
        mine
    });
    all.sort_unstable();
    assert!(
        all.iter().copied().eq(0..total),
        "the wrap lost or duplicated an entry"
    );
}

#[test]
fn last_entry_goes_to_exactly_one_side() {
    // the owner's restoring CAS and the thief's top CAS contend for the
    // only entry: exactly one side wins, the loser sees nothing
    for round in 0..2_000 {
        let all = owner_vs_thief(1, |q| {
            q.pop().map(|(i, _)| i.context.0).into_iter().collect()
        });
        assert_eq!(
            all,
            vec![0],
            "round {round}: the last entry must go to exactly one side"
        );
    }
}

#[test]
fn stale_epoch_completions_lose_the_rearm_race() {
    // streaming re-arm race: epoch 1 re-runs the whole graph while racers
    // replay every epoch-0 work completion with its (now stale) token.
    // Exactly-one-winner means every stale replay must be rejected — the
    // slot tag comparison classifies it as StaleEpoch once the slot is
    // re-armed under the new tag, or NotRunning while it is still
    // unloaded — and the ledger must show exactly two clean passes.
    let arity = 256u32;
    let mut b = ProgramBuilder::new();
    let blk = b.block();
    let work = b.thread(blk, ThreadSpec::new("work", arity));
    let sink = b.thread(blk, ThreadSpec::scalar("sink"));
    b.arc(work, sink, ArcMapping::Reduction).unwrap();
    let p = b.build().unwrap();

    // four replaying racers and the epoch-1 driver: five kernels
    let sm = SyncMemory::new(&p, 5, 0);
    let mut ready = Vec::new();
    let inlet = sm.armed_inlet();
    let e0 = sm.dispatch(Some(K0), inlet).unwrap();
    sm.complete(K0, inlet, e0, &mut ready).unwrap();
    let work_insts = ready.clone();
    let mut frontier = Vec::new();
    for &i in &work_insts {
        let ep = sm.dispatch(Some(K0), i).unwrap();
        assert_eq!(ep, e0);
        sm.complete(K0, i, ep, &mut frontier).unwrap();
    }
    // bank a second pass before the wrap, so the outlet completion below
    // re-arms the graph into epoch 1
    let mut out = Vec::new();
    let e1 = sm.open_epoch(&mut out).unwrap();
    assert!(out.is_empty(), "epoch 0 still running; credit is banked");
    while let Some(i) = frontier.pop() {
        let ep = sm.dispatch(Some(K0), i).unwrap();
        sm.complete(K0, i, ep, &mut frontier).unwrap();
        if sm.current_epoch() != e0 {
            break; // the outlet wrapped the table into epoch 1
        }
    }
    assert_eq!(sm.current_epoch(), e1);

    let stale_tagged = AtomicU64::new(0);
    let (sm_ref, stale_ref) = (&sm, &stale_tagged);
    std::thread::scope(|s| {
        // racers replay every epoch-0 completion with the stale token
        for k in (0..4).map(KernelId) {
            let work_insts = work_insts.clone();
            s.spawn(move || {
                let mut buf = Vec::new();
                for &i in &work_insts {
                    match sm_ref.complete(k, i, e0, &mut buf) {
                        Ok(()) => panic!("stale epoch-0 completion of {i} was accepted"),
                        Err(CoreError::StaleEpoch { epoch, current }) => {
                            assert_eq!(epoch, e0);
                            assert_eq!(current, e1);
                            stale_ref.fetch_add(1, Ordering::Relaxed);
                        }
                        // before the block reloads (or after epoch 1 ran the
                        // instance) the slot rejects on phase instead of tag
                        Err(CoreError::NotRunning(lost)) => assert_eq!(lost, i),
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
            });
        }
        // one driver runs epoch 1 to completion underneath the replays
        s.spawn(move || {
            let mut frontier = vec![sm_ref.armed_inlet()];
            let mut newly = Vec::new();
            while let Some(i) = frontier.pop() {
                let ep = sm_ref.dispatch(Some(KernelId(4)), i).unwrap();
                assert_eq!(ep, e1);
                sm_ref.complete(KernelId(4), i, ep, &mut newly).unwrap();
                frontier.append(&mut newly);
            }
        });
    });

    assert!(
        sm.finished(),
        "epoch 1 must drain despite the stale replays"
    );
    assert!(!sm.is_poisoned());
    // after the wrap the rejection is deterministic: the slot carries the
    // epoch-1 tag, so the stale token loses on the tag bits
    let mut buf = Vec::new();
    assert_eq!(
        sm.complete(K0, work_insts[0], e0, &mut buf),
        Err(CoreError::StaleEpoch {
            epoch: e0,
            current: e1
        })
    );
    // cross-epoch corruption would break the ledger: exactly two passes'
    // worth of completions and decrements, nothing leaked from a replay
    let st = sm.stats();
    assert_eq!(st.completions as usize, 2 * p.total_instances());
    assert_eq!(st.rc_updates, 2 * (2 * arity as u64 + 1));
    assert_eq!(sm.epoch_ledger(), (2, 2, 0));
    sm.retire_epoch(e0).unwrap();
    sm.retire_epoch(e1).unwrap();
    assert_eq!(sm.epoch_ledger(), (2, 2, 2));
}
