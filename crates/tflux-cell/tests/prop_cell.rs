//! Property tests of the Cell machine: generated programs with
//! arbitrary (LS-feasible) costs always complete, deterministically, with
//! consistent accounting.

use tflux_cell::work::{CellWork, FnCellWork};
use tflux_cell::{CellConfig, CellMachine};
use tflux_core::prelude::*;
use tflux_core::{cases, random_program, SplitMix64};

#[derive(Debug, Clone)]
struct Draw {
    program: DdmProgram,
    spes: u32,
    compute: u64,
    import: u64,
    export: u64,
}

fn draw(rng: &mut SplitMix64) -> Draw {
    Draw {
        program: random_program(rng, 1),
        spes: rng.range(1u32..7),
        compute: rng.range(10u64..100_000),
        import: rng.range(0u64..32_768),
        export: rng.range(0u64..16_384),
    }
}

#[test]
fn cell_machine_completes_and_accounts() {
    cases(96, |rng| {
        let d = draw(rng);
        let p = &d.program;
        let w = CellWork {
            compute: d.compute,
            import_bytes: d.import,
            export_bytes: d.export,
            ls_bytes: 32 * 1024 + d.import + d.export,
        };
        let src = FnCellWork(move |_: Instance| w);
        let m = CellMachine::new(CellConfig::ps3().with_spes(d.spes));
        let r = m.run(p, &src).expect("feasible run");
        assert_eq!(r.instances, p.total_instances());
        assert_eq!(r.tsu.completions as usize, p.total_instances());
        assert_eq!(r.commands as usize, p.total_instances());
        // busy time accounting: every instance contributed its compute
        let busy: u64 = r.spe_busy.iter().sum();
        assert_eq!(busy, d.compute * p.total_instances() as u64);
        // and the wall clock cannot beat perfect parallelism of compute
        assert!(r.cycles * d.spes as u64 >= busy);

        // deterministic
        let r2 = m.run(p, &src).expect("second run");
        assert_eq!(r.cycles, r2.cycles);
    });
}
