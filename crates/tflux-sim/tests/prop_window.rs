//! Property tests of the conservative-window invariant that licenses the
//! round structure: within one merge round no lane can influence another,
//! because every cross-lane push lands at least `tsu.access + tsu.op`
//! cycles after the event that caused it. The machine debug-asserts that
//! bound on every cross-lane push (`RoundIo::push`), so in debug builds
//! each case fuzzes the invariant directly, for arbitrary `TsuCosts`,
//! programs, machine shapes and epoch counts; the test then checks that
//! the run is complete and repeats bit for bit.

use tflux_core::prelude::*;
use tflux_core::{cases, random_program, SplitMix64};
use tflux_sim::work::{FnWork, InstanceWork};
use tflux_sim::{Machine, MachineConfig, SimReport, TsuCosts};

#[derive(Debug, Clone)]
struct Draw {
    program: DdmProgram,
    cores: u32,
    xeon: bool,
    base_cost: u64,
    tsu: TsuCosts,
    epochs: u64,
}

fn draw(rng: &mut SplitMix64) -> Draw {
    Draw {
        program: random_program(rng, 2),
        cores: rng.range(2u32..9),
        xeon: rng.chance(1, 2),
        base_cost: rng.range(10u64..3_000),
        // TsuCosts spanning hardware-like (~cycles) to software-like
        // (~hundreds of cycles) regimes, so the window `access + op`
        // ranges from 2 to ~1000 cycles
        tsu: TsuCosts {
            access: rng.range(1u64..300),
            op: rng.range(1u64..700),
            kernel_overhead: rng.range(0u64..200),
            steal: rng.range(0u64..50),
        },
        epochs: rng.range(1u64..4),
    }
}

fn config(d: &Draw) -> MachineConfig {
    let cfg = if d.xeon {
        MachineConfig::xeon_x3650(d.cores)
    } else {
        MachineConfig::bagle(d.cores)
    };
    cfg.with_tsu(d.tsu)
}

fn run(d: &Draw) -> SimReport {
    let base = d.base_cost;
    let src = FnWork(move |i: Instance, out: &mut InstanceWork| {
        out.compute = base + i.context.0 as u64 * 13;
        // shared traffic so the memsys directory actually carries
        // cross-domain invalidations between rounds
        out.accesses.push(tflux_sim::work::MemAccess::read(
            0x2000_0000 + (i.context.0 as u64 % 8) * 64,
        ));
        if i.context.0.is_multiple_of(4) {
            out.accesses
                .push(tflux_sim::work::MemAccess::write(0x2000_0000));
        }
    });
    Machine::new(config(d))
        .with_epochs(d.epochs)
        .run(&d.program, &src)
        .expect("sim run")
}

/// For arbitrary `TsuCosts` the window bound holds on every cross-lane
/// push (enforced by the machine's debug assertion while these cases
/// run), every instance of every epoch executes, and a second run
/// reproduces the report field for field.
#[test]
fn window_invariant_holds_for_random_tsu_costs() {
    cases(48, |rng| {
        let d = draw(rng);
        let first = run(&d);
        assert_eq!(
            first.instances as u64,
            d.epochs * d.program.total_instances() as u64
        );
        assert_eq!(format!("{first:?}"), format!("{:?}", run(&d)));
    });
}
