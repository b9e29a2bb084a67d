//! Equivalence of the platforms driving the one `Tsu`: the threaded TFluxSoft path
//! (kernels post-processing every completion, block transitions included,
//! through the lock-free Synchronization Memory, batched by completion
//! funnels wherever the program has a hot sink), the simulated hardware
//! TSU device, and the sequential reference executor all drive the same
//! `SyncMemory` semantics over the same program, the TSU's Graph Memory —
//! so with
//! stealing off *and* with the shipping default (stealing on) they must
//! complete the *same multiset of instances* with the *same
//! ready-count-update and block-load bookkeeping* for every workload in
//! the suite. Who executed what, and in which order, is free.

use tflux::core::prelude::*;
use tflux::core::{drain_sequential, Access, Epoch, TsuStats};
use tflux::runtime::{BodyTable, Runtime, RuntimeConfig};
use tflux::sim::work::UniformWork;
use tflux::sim::{Machine, MachineConfig};
use tflux::workloads::setup::{sim_setup, with_default_unroll};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::{Bench, Params};

const KERNELS: u32 = 3;
/// Consecutive streamed passes in the epoch-equivalence scenarios.
const STREAM_EPOCHS: u64 = 3;

/// The default configuration with stealing off or on.
fn config(steal: bool) -> TsuConfig {
    TsuConfig {
        steal,
        ..Default::default()
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

    /// Field by field, so a failure names what diverged without printing
    /// two whole multisets for a counter mismatch.
    fn assert_matches(&self, want: &Outcome, what: &str) {
        assert_eq!(
            self.completed, want.completed,
            "{what}: completion multiset"
        );
        assert_eq!(self.rc_updates, want.rc_updates, "{what}: rc_updates");
        assert_eq!(
            self.blocks_loaded, want.blocks_loaded,
            "{what}: blocks_loaded"
        );
    }
}

/// TFluxSoft: real kernel threads post-process every completion, Inlet and
/// Outlet included, through funnels that batch as the program asks.
/// Batching collapses physical RMWs but must not change the completion
/// multiset or the logical decrement ledger.
fn soft_outcome(program: &DdmProgram, cfg: TsuConfig) -> Outcome {
    let bodies = BodyTable::new(program); // no-op bodies: scheduling only
    let (report, trace) = Runtime::new(RuntimeConfig::with_kernels(KERNELS).tsu(cfg))
        .run_traced(program, &bodies)
        .expect("soft run failed");
    let completed = trace.spans.iter().map(|s| s.instance).collect();
    Outcome::new(completed, &report.tsu)
}

/// TFluxHard: the simulated machine, its cores driving the memory-mapped
/// TSU device, every instance the same compute. With `epochs > 1` the
/// machine banks every pass up front and streams straight through.
fn hard_stream_outcome(program: &DdmProgram, cfg: TsuConfig, epochs: u64) -> Outcome {
    let cfg = TsuConfig {
        window: epochs as usize,
        ..cfg
    };
    let (report, trace) = Machine::new(MachineConfig::bagle(KERNELS))
        .with_tsu_config(cfg)
        .with_epochs(epochs)
        .run_traced(program, &UniformWork { cycles: 100 })
        .expect("sim run failed");
    let completed = trace.spans.iter().map(|s| s.instance).collect();
    Outcome::new(completed, &report.tsu)
}

fn hard_outcome(program: &DdmProgram, cfg: TsuConfig) -> Outcome {
    hard_stream_outcome(program, cfg, 1)
}

/// The sequential reference executor over the same units.
fn seq_outcome(program: &DdmProgram) -> Outcome {
    let tsu = Tsu::new(program, KERNELS, config(false));
    let completed = drain_sequential(&tsu).unwrap();
    let stats = tsu.stats();
    Outcome::new(completed, &stats)
}

/// One thread streaming a `Tsu` from `build`, round-robining the
/// kernel ids: drain a pass, retire its epoch, open the next (which
/// re-arms the inlet in place), drain again. `Tsu::new` is the
/// sequential reference, in owned access; `Tsu::threaded` is the TSU
/// kernel threads run on, in shared access, completing through the same
/// funnels.
fn stream_outcome<'p, M: Access>(
    build: fn(&'p DdmProgram, u32, TsuConfig) -> Tsu<&'p DdmProgram, M>,
    program: &'p DdmProgram,
    cfg: TsuConfig,
    epochs: u64,
) -> Outcome {
    let cfg = TsuConfig { window: 2, ..cfg };
    let tsu = build(program, KERNELS, cfg);
    let mut completed = Vec::new();
    let mut scratch = Vec::new();
    for e in 0..epochs {
        completed.extend(drain_sequential(&tsu).expect("stream stalled mid-pass"));
        tsu.retire_epoch(Epoch(e)).expect("retire drained pass");
        if e + 1 < epochs {
            tsu.open_epoch(&mut scratch).expect("open next pass");
        }
    }
    let stats = tsu.stats();
    Outcome::new(completed, &stats)
}

fn assert_equivalent(bench: Bench) {
    let p = with_default_unroll(bench, Params::hard(KERNELS, 0, SizeClass::Small));
    let (program, _) = sim_setup(bench, &p);
    let name = bench.name();

    let seq = seq_outcome(&program);
    assert_eq!(
        seq.completed.len(),
        program.total_instances(),
        "{name}: the reference did not drain the program"
    );
    for steal in [false, true] {
        // the two concurrent paths, both held to the one steal-free
        // sequential baseline: batching and stealing are implementation
        // details of the completion and fetch hot paths, not semantic
        // changes
        let at = |path: &str| format!("{name}, steal {steal}: {path} vs sequential");
        soft_outcome(&program, config(steal)).assert_matches(&seq, &at("soft"));
        hard_outcome(&program, config(steal)).assert_matches(&seq, &at("hard"));
    }
}

/// K streamed epochs must be bit-identical to K one-shot runs: the same
/// completion multiset K times over, K times the decrement ledger, K
/// times the block loads — on the sequential reference, the soft path,
/// and the simulated hardware device alike. Any cross-epoch
/// ready-count leakage (a late decrement surviving a re-arm) would break
/// the multiset or the ledger.
fn assert_stream_equivalent(bench: Bench) {
    let p = with_default_unroll(bench, Params::hard(KERNELS, 0, SizeClass::Small));
    let (program, _) = sim_setup(bench, &p);
    let name = bench.name();

    let one = seq_outcome(&program);
    let mut k_copies: Vec<Instance> =
        std::iter::repeat_n(one.completed.iter().copied(), STREAM_EPOCHS as usize)
            .flatten()
            .collect();
    k_copies.sort_unstable();
    let k_one_shots = Outcome {
        completed: k_copies,
        rc_updates: STREAM_EPOCHS * one.rc_updates,
        blocks_loaded: STREAM_EPOCHS * one.blocks_loaded,
    };

    for steal in [false, true] {
        let at = |path: &str| {
            format!("{name}, steal {steal}: streamed {path} vs {STREAM_EPOCHS}x one-shot")
        };
        stream_outcome(Tsu::new, &program, config(steal), STREAM_EPOCHS)
            .assert_matches(&k_one_shots, &at("sequential"));
        stream_outcome(Tsu::threaded, &program, config(steal), STREAM_EPOCHS)
            .assert_matches(&k_one_shots, &at("soft"));
        hard_stream_outcome(&program, config(steal), STREAM_EPOCHS)
            .assert_matches(&k_one_shots, &at("hard"));
    }
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
