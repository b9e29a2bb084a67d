//! The simulator's model, pinned: every paper workload at `Small` on the
//! flat 8-core Bagle board, the 9-core x86 box and the 64-core 4-node
//! T3-4, plus TRAPEZ streamed for three epochs on each, must reproduce its
//! whole [`SimReport`] — makespan, event count, instances, per-core
//! busy/tsu/idle splits, `MemStats`, TSU and device counters.
//!
//! The pins were captured at the last commit that still had a second and
//! third DES engine agreeing with this one field for field, so they carry
//! that suite's guarantee forward. A change that moves any of them is a
//! *model* change (round length, replay order, commit order, latencies):
//! make it deliberately, and replace the table with the rows this test
//! prints on failure.
//!
//! The Cell table does the same for TFluxCell: every Cell benchmark at
//! `Small` on the six-SPE PS3 under the default `Auto` flush (so the
//! hot-sink programs batch on the PPE), plus TRAPEZ streamed for three
//! epochs, must reproduce its whole [`CellReport`].

use tflux::cell::{CellConfig, CellMachine, CellReport};
use tflux::core::mix;
use tflux::sim::{Machine, MachineConfig, SimReport};
use tflux::workloads::setup::{cell_setup, sim_setup, with_default_unroll};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::{Bench, Params};

fn machine(name: &str) -> MachineConfig {
    match name {
        "bagle_x8" => MachineConfig::bagle(8),
        "x86_x8" => MachineConfig::x86_9core(8).expect("8 kernels fit the 9-core x86"),
        "sparc_t3_4_x64" => MachineConfig::sparc_t3_4(64).expect("64 kernels fit the T3-4"),
        other => panic!("unknown machine {other}"),
    }
}

fn run(bench: Bench, cfg: MachineConfig, epochs: u64) -> SimReport {
    let p = with_default_unroll(bench, Params::hard(cfg.cores, 0, SizeClass::Small));
    let (prog, src) = sim_setup(bench, &p);
    Machine::new(cfg)
        .with_epochs(epochs)
        .run(&prog, src.as_ref())
        .expect("sim run")
}

/// Fold of a report's `Debug` rendering: covers every field, including
/// the per-core vectors and the nested counter structs.
fn fold(r: &impl std::fmt::Debug) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0, |h, b| mix(h ^ u64::from(b)))
}

/// `(bench, machine, epochs, cycles, events, fold)`.
type Pin = (Bench, &'static str, u64, u64, u64, u64);

#[rustfmt::skip]
const PINS: [Pin; 18] = [
    (Bench::Trapez, "bagle_x8", 1, 806370, 4123, 0xc8b773454d4ff4d1),
    (Bench::Mmult, "bagle_x8", 1, 251937, 1177, 0x64b9e42a198bcdf0),
    (Bench::Qsort, "bagle_x8", 1, 1437372, 362, 0x07da5167318e89c6),
    (Bench::Susan, "bagle_x8", 1, 1792276, 898, 0xcb0db15e005fcf7d),
    (Bench::Fft, "bagle_x8", 1, 26100, 262, 0x9f814f6cfa3a0cf6),
    (Bench::Trapez, "bagle_x8", 3, 2415494, 12337, 0x8dbd179c2660ee26),
    (Bench::Trapez, "x86_x8", 1, 810565, 4123, 0x5109f533eb11a81b),
    (Bench::Mmult, "x86_x8", 1, 333402, 1177, 0x6b98732c1666c44a),
    (Bench::Qsort, "x86_x8", 1, 1594040, 362, 0x1108ab94f76e3903),
    (Bench::Susan, "x86_x8", 1, 1839257, 898, 0x7aca54fc87a549df),
    (Bench::Fft, "x86_x8", 1, 34126, 262, 0x84b5aa1378a2c743),
    (Bench::Trapez, "x86_x8", 3, 2424683, 12337, 0x467d19212593c6e5),
    (Bench::Trapez, "sparc_t3_4_x64", 1, 120955, 4235, 0x032d829f0c65297d),
    (Bench::Mmult, "sparc_t3_4_x64", 1, 159168, 1289, 0x744ce23fc8298f6e),
    (Bench::Qsort, "sparc_t3_4_x64", 1, 1421665, 1063, 0x98db79b1aaa3a03d),
    (Bench::Susan, "sparc_t3_4_x64", 1, 438490, 1010, 0x975b28536fa84e8b),
    (Bench::Fft, "sparc_t3_4_x64", 1, 36159, 374, 0xcdcefa9be954e648),
    (Bench::Trapez, "sparc_t3_4_x64", 3, 361568, 12449, 0x6f6134fdb1d20696),
];

#[test]
fn every_report_matches_its_pin() {
    let mut moved = false;
    let mut table = String::new();
    for &(bench, name, epochs, cycles, events, pin) in &PINS {
        let r = run(bench, machine(name), epochs);
        assert_eq!(
            r.tsu.epochs, epochs,
            "{bench:?} on {name}: epochs did not stream"
        );
        let now = (r.cycles, r.events, fold(&r));
        if now != (cycles, events, pin) {
            moved = true;
            eprintln!(
                "{bench:?} on {name} x{epochs} moved from {cycles} cycles / {events} events \
                 to {r:?}"
            );
        }
        table += &format!(
            "    (Bench::{bench:?}, {name:?}, {epochs}, {}, {}, {:#018x}),\n",
            now.0, now.1, now.2
        );
    }
    assert!(
        !moved,
        "the simulated model moved; the table is now\n{table}"
    );
}

/// `(bench, epochs, cycles, commands, fold)` on `CellConfig::ps3()`.
type CellPin = (Bench, u64, u64, u64, u64);

#[rustfmt::skip]
const CELL_PINS: [CellPin; 5] = [
    (Bench::Trapez, 1, 1189382, 19, 0xa4fb7c160953bee2),
    (Bench::Mmult, 1, 21322064, 7, 0xfb610f39b8b4b387),
    (Bench::Qsort, 1, 825210, 22, 0x5c8d691f00d12e07),
    (Bench::Susan, 1, 3139504, 33, 0x036ce50b7f2af25f),
    (Bench::Trapez, 3, 3569186, 57, 0xb4e3f053fecb65e0),
];

fn cell_run(bench: Bench, epochs: u64) -> CellReport {
    let cfg = CellConfig::ps3();
    let p = with_default_unroll(bench, Params::cell(cfg.spes, 0, SizeClass::Small));
    let (prog, src) = cell_setup(bench, &p);
    CellMachine::new(cfg)
        .with_epochs(epochs)
        .run(&prog, src.as_ref())
        .expect("cell run")
}

#[test]
fn every_cell_report_matches_its_pin() {
    let mut moved = false;
    let mut table = String::new();
    for &(bench, epochs, cycles, commands, pin) in &CELL_PINS {
        let r = cell_run(bench, epochs);
        assert_eq!(r.tsu.epochs, epochs, "{bench:?}: epochs did not stream");
        let now = (r.cycles, r.commands, fold(&r));
        if now != (cycles, commands, pin) {
            moved = true;
            eprintln!(
                "{bench:?} x{epochs} moved from {cycles} cycles / {commands} commands to {r:?}"
            );
        }
        table += &format!(
            "    (Bench::{bench:?}, {epochs}, {}, {}, {:#018x}),\n",
            now.0, now.1, now.2
        );
    }
    assert!(!moved, "the Cell model moved; the table is now\n{table}");
}

#[test]
fn numa_machine_actually_pays_numa_costs_in_the_matrix() {
    // guard against the table silently degenerating to flat machines: the
    // 64-core rows must cross node boundaries
    let r = run(Bench::Mmult, machine("sparc_t3_4_x64"), 1);
    assert!(
        r.mem.remote_node > 0,
        "MMULT on the T3-4 never crossed a node boundary"
    );
}
