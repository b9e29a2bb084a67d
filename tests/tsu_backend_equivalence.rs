//! Equivalence of the platforms driving the one `Tsu`: the threaded TFluxSoft path
//! (kernels post-processing App completions directly through the sharded
//! Synchronization Memory + the emulator handling block transitions), the
//! simulated hardware TSU device, and the sequential reference executor
//! all drive the same `GraphMemory`/`SyncMemory` semantics — so under the
//! deterministic `GlobalFifo` policy they must complete the *same multiset
//! of instances* with the *same ready-count-update and block-load
//! bookkeeping* for every workload in the suite.

use tflux::core::ids::Epoch;
use tflux::core::prelude::*;
use tflux::core::tsu::{drain_sequential, FetchResult, TsuStats};
use tflux::runtime::{BodyTable, Runtime, RuntimeConfig, SoftTsu};
use tflux::sim::tsu_dev::{DevFetch, TsuDevice};
use tflux::sim::TsuCosts;
use tflux::workloads::common::Params;
use tflux::workloads::setup::{sim_setup, with_default_unroll};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::Bench;

const KERNELS: u32 = 3;
/// Completions per funnel flush in the batched variants.
const FUNNEL_BATCH: u32 = 8;
/// Consecutive streamed passes in the epoch-equivalence scenarios.
const STREAM_EPOCHS: u64 = 3;

fn fifo() -> TsuConfig {
    TsuConfig {
        capacity: 0,
        policy: SchedulingPolicy::GlobalFifo,
        // pinned: the funnel-free baseline the batched variants contrast
        flush: FlushPolicy::Direct,
        ..Default::default()
    }
}

/// Same deterministic policy with completion funnels enabled: kernels
/// (soft) and cores (hard) accumulate App completions locally and flush
/// them as batches. Batching collapses physical RMWs but must not change
/// the completion multiset or the logical decrement ledger.
fn batched() -> TsuConfig {
    TsuConfig {
        flush: FlushPolicy::Batch { size: FUNNEL_BATCH },
        ..fifo()
    }
}

/// Completion multiset + the scheduling bookkeeping the paths must agree on.
struct Outcome {
    completed: Vec<Instance>,
    rc_updates: u64,
    blocks_loaded: u64,
}

impl Outcome {
    fn new(mut completed: Vec<Instance>, stats: &TsuStats) -> Self {
        completed.sort_unstable();
        Outcome {
            completed,
            rc_updates: stats.rc_updates,
            blocks_loaded: stats.blocks_loaded,
        }
    }
}

/// TFluxSoft: real kernel threads take the direct-update path for App
/// completions; the emulator drains Inlet/Outlet transitions from the TUB.
fn soft_outcome(program: &DdmProgram, cfg: TsuConfig) -> Outcome {
    let bodies = BodyTable::new(program); // no-op bodies: scheduling only
    let (report, spans) = Runtime::new(RuntimeConfig::with_kernels(KERNELS).tsu(cfg))
        .run_traced(program, &bodies)
        .expect("soft run failed");
    let completed = spans.iter().map(|s| s.instance).collect();
    Outcome::new(completed, &report.tsu)
}

/// TFluxHard: the memory-mapped TSU device wrapping the `Tsu`, driven
/// core-by-core exactly like the simulated kernel loop. With `epochs > 1`
/// every pass beyond the first is credited up front (the drive loop has
/// no supervisor to bank credits mid-run), so the device re-arms the
/// inlet at each pass's final outlet and streams straight through.
fn hard_stream_outcome(program: &DdmProgram, cfg: TsuConfig, epochs: u64) -> Outcome {
    let cfg = TsuConfig {
        window: epochs as usize,
        ..cfg
    };
    let tsu = Tsu::new(program, KERNELS, cfg);
    let mut dev = TsuDevice::new(tsu, TsuCosts::hard(), KERNELS);
    let mut completed = Vec::new();
    let mut now = 0u64;
    for _ in 1..epochs {
        let (_, done) = dev.open_epoch(now).expect("bank stream credit");
        now = done;
    }
    let mut core = 0u32;
    let mut parked_in_a_row = 0u32;
    loop {
        match dev.fetch(core, now).expect("fetch protocol error") {
            DevFetch::Thread(inst, ep, at) => {
                parked_in_a_row = 0;
                completed.push(inst);
                let (core_free, _) = dev.complete(core, at, inst, ep).expect("protocol error");
                now = core_free;
            }
            DevFetch::Parked => {
                parked_in_a_row += 1;
                assert!(parked_in_a_row <= KERNELS, "device drive deadlocked");
            }
            DevFetch::Exit(_) => break,
        }
        core = (core + 1) % KERNELS;
    }
    for e in 0..epochs {
        now = dev.retire_epoch(Epoch(e), now).expect("retire pass");
    }
    let stats = dev.tsu().stats();
    Outcome::new(completed, &stats)
}

fn hard_outcome(program: &DdmProgram, cfg: TsuConfig) -> Outcome {
    hard_stream_outcome(program, cfg, 1)
}

/// The sequential reference executor over the same units.
fn seq_outcome(program: &DdmProgram) -> Outcome {
    let tsu = Tsu::new(program, KERNELS, fifo());
    let completed = drain_sequential(&tsu).unwrap();
    let stats = tsu.stats();
    Outcome::new(completed, &stats)
}

/// The sequential reference, streamed: drain a pass, retire its epoch,
/// open the next (which re-arms the inlet in place), drain again.
fn seq_stream_outcome(program: &DdmProgram, epochs: u64) -> Outcome {
    let cfg = TsuConfig {
        window: 2,
        ..fifo()
    };
    let tsu = Tsu::new(program, KERNELS, cfg);
    let mut completed = Vec::new();
    let mut scratch = Vec::new();
    for e in 0..epochs {
        completed.extend(drain_sequential(&tsu).unwrap());
        tsu.retire_epoch(Epoch(e)).expect("retire drained pass");
        if e + 1 < epochs {
            tsu.open_epoch(&mut scratch).expect("open next pass");
        }
    }
    let stats = tsu.stats();
    Outcome::new(completed, &stats)
}

/// TFluxSoft, streamed: one inline kernel drives the shared `GlobalFifo`
/// ready queue through `complete` (the kernels' direct-update
/// path); at each pass boundary the drained epoch is retired and the
/// next opened, re-arming the context slots the pass just vacated.
fn soft_stream_outcome(program: &DdmProgram, cfg: TsuConfig, epochs: u64) -> Outcome {
    let cfg = TsuConfig { window: 2, ..cfg };
    let soft = SoftTsu::with_queue_unit(program, KERNELS, cfg);
    let mut completed = Vec::new();
    let mut scratch = Vec::new();
    for e in 0..epochs {
        loop {
            match soft.queues()[0].try_pop() {
                FetchResult::Thread(i, ep) => {
                    completed.push(i);
                    soft.complete(i, ep, &mut scratch)
                        .expect("soft stream completion");
                }
                _ => {
                    assert!(soft.finished(), "soft stream stalled mid-pass");
                    break;
                }
            }
        }
        soft.retire_epoch(Epoch(e)).expect("retire drained pass");
        if e + 1 < epochs {
            soft.open_epoch(&mut scratch).expect("open next pass");
        }
    }
    let stats = soft.stats();
    Outcome::new(completed, &stats)
}

fn assert_equivalent(bench: Bench) {
    let p = with_default_unroll(bench, Params::hard(KERNELS, 0, SizeClass::Small));
    let (program, _) = sim_setup(bench, &p);

    let soft = soft_outcome(&program, fifo());
    let hard = hard_outcome(&program, fifo());
    let seq = seq_outcome(&program);
    // funnel-enabled variants of the two concurrent paths, held to the
    // same funnel-free sequential baseline: batching is an implementation
    // detail of the completion hot path, not a semantic change
    let soft_f = soft_outcome(&program, batched());
    let hard_f = hard_outcome(&program, batched());

    let name = bench.name();
    assert_eq!(
        soft.completed.len(),
        program.total_instances(),
        "{name}: soft did not drain the program"
    );
    assert_eq!(
        soft.completed, hard.completed,
        "{name}: soft vs hard completion multiset"
    );
    assert_eq!(
        hard.completed, seq.completed,
        "{name}: hard vs sequential completion multiset"
    );
    assert_eq!(
        soft_f.completed, seq.completed,
        "{name}: funneled soft vs sequential completion multiset"
    );
    assert_eq!(
        hard_f.completed, seq.completed,
        "{name}: funneled hard vs sequential completion multiset"
    );
    assert_eq!(
        soft.rc_updates, hard.rc_updates,
        "{name}: rc_updates soft vs hard"
    );
    assert_eq!(
        hard.rc_updates, seq.rc_updates,
        "{name}: rc_updates hard vs sequential"
    );
    assert_eq!(
        soft_f.rc_updates, seq.rc_updates,
        "{name}: rc_updates funneled soft vs sequential (batching lost decrements)"
    );
    assert_eq!(
        hard_f.rc_updates, seq.rc_updates,
        "{name}: rc_updates funneled hard vs sequential (batching lost decrements)"
    );
    assert_eq!(
        soft.blocks_loaded, hard.blocks_loaded,
        "{name}: blocks_loaded soft vs hard"
    );
    assert_eq!(
        hard.blocks_loaded, seq.blocks_loaded,
        "{name}: blocks_loaded hard vs sequential"
    );
    assert_eq!(
        soft_f.blocks_loaded, seq.blocks_loaded,
        "{name}: blocks_loaded funneled soft vs sequential"
    );
    assert_eq!(
        hard_f.blocks_loaded, seq.blocks_loaded,
        "{name}: blocks_loaded funneled hard vs sequential"
    );
}

/// K streamed epochs must be bit-identical to K one-shot runs: the same
/// completion multiset K times over, K times the decrement ledger, K
/// times the block loads — on the sequential reference, the soft direct
/// path, and the simulated hardware device alike. Any cross-epoch
/// ready-count leakage (a late decrement surviving a re-arm) would break
/// the multiset or the ledger.
fn assert_stream_equivalent(bench: Bench) {
    let p = with_default_unroll(bench, Params::hard(KERNELS, 0, SizeClass::Small));
    let (program, _) = sim_setup(bench, &p);

    let one = seq_outcome(&program);
    let seq_s = seq_stream_outcome(&program, STREAM_EPOCHS);
    let soft_s = soft_stream_outcome(&program, fifo(), STREAM_EPOCHS);
    let hard_s = hard_stream_outcome(&program, fifo(), STREAM_EPOCHS);

    let mut k_copies: Vec<Instance> =
        std::iter::repeat_n(one.completed.iter().copied(), STREAM_EPOCHS as usize)
            .flatten()
            .collect();
    k_copies.sort_unstable();

    let name = bench.name();
    assert_eq!(
        seq_s.completed, k_copies,
        "{name}: streamed sequential vs {STREAM_EPOCHS}x one-shot multiset"
    );
    assert_eq!(
        soft_s.completed, k_copies,
        "{name}: streamed soft vs {STREAM_EPOCHS}x one-shot multiset"
    );
    assert_eq!(
        hard_s.completed, k_copies,
        "{name}: streamed hard vs {STREAM_EPOCHS}x one-shot multiset"
    );
    assert_eq!(
        seq_s.rc_updates,
        STREAM_EPOCHS * one.rc_updates,
        "{name}: streamed rc_updates vs {STREAM_EPOCHS}x one-shot"
    );
    assert_eq!(
        soft_s.rc_updates, seq_s.rc_updates,
        "{name}: rc_updates streamed soft vs sequential"
    );
    assert_eq!(
        hard_s.rc_updates, seq_s.rc_updates,
        "{name}: rc_updates streamed hard vs sequential"
    );
    assert_eq!(
        seq_s.blocks_loaded,
        STREAM_EPOCHS * one.blocks_loaded,
        "{name}: streamed blocks_loaded vs {STREAM_EPOCHS}x one-shot"
    );
    assert_eq!(
        soft_s.blocks_loaded, seq_s.blocks_loaded,
        "{name}: blocks_loaded streamed soft vs sequential"
    );
    assert_eq!(
        hard_s.blocks_loaded, seq_s.blocks_loaded,
        "{name}: blocks_loaded streamed hard vs sequential"
    );
}

#[test]
fn trapez_paths_agree() {
    assert_equivalent(Bench::Trapez);
}

#[test]
fn mmult_paths_agree() {
    assert_equivalent(Bench::Mmult);
}

#[test]
fn qsort_paths_agree() {
    assert_equivalent(Bench::Qsort);
}

#[test]
fn susan_paths_agree() {
    assert_equivalent(Bench::Susan);
}

#[test]
fn fft_paths_agree() {
    assert_equivalent(Bench::Fft);
}

#[test]
fn trapez_streams_agree() {
    assert_stream_equivalent(Bench::Trapez);
}

#[test]
fn mmult_streams_agree() {
    assert_stream_equivalent(Bench::Mmult);
}

#[test]
fn qsort_streams_agree() {
    assert_stream_equivalent(Bench::Qsort);
}

#[test]
fn fft_streams_agree() {
    assert_stream_equivalent(Bench::Fft);
}
