//! Property tests of the Cell machine: arbitrary layered programs with
//! arbitrary (LS-feasible) costs always complete, deterministically, with
//! consistent accounting.

use tflux_cell::work::{CellWork, FnCellWork};
use tflux_cell::{CellConfig, CellMachine};
use tflux_core::prelude::*;
use tflux_core::rng::{cases, SplitMix64};

#[derive(Debug, Clone)]
struct Desc {
    layers: Vec<u32>,
    blocks: u32,
    spes: u32,
    compute: u64,
    import: u64,
    export: u64,
    double_buffer: bool,
}

fn desc(rng: &mut SplitMix64) -> Desc {
    Desc {
        layers: (0..rng.range(1..4)).map(|_| rng.range(1u32..8)).collect(),
        blocks: rng.range(1u32..3),
        spes: rng.range(1u32..7),
        compute: rng.range(10u64..100_000),
        import: rng.range(0u64..32_768),
        export: rng.range(0u64..16_384),
        double_buffer: rng.chance(1, 2),
    }
}

fn build(d: &Desc) -> DdmProgram {
    let mut b = ProgramBuilder::new();
    for _ in 0..d.blocks {
        let blk = b.block();
        let mut prev: Option<ThreadId> = None;
        for (li, &arity) in d.layers.iter().enumerate() {
            let t = b.thread(blk, ThreadSpec::new(format!("l{li}"), arity));
            if let Some(p) = prev {
                b.arc(p, t, ArcMapping::All).unwrap();
            }
            prev = Some(t);
        }
    }
    b.build().unwrap()
}

#[test]
fn cell_machine_completes_and_accounts() {
    cases(96, |rng| {
        let d = desc(rng);
        let p = build(&d);
        let w = CellWork {
            compute: d.compute,
            import_bytes: d.import,
            export_bytes: d.export,
            ls_bytes: 32 * 1024 + d.import + d.export,
        };
        let src = FnCellWork(move |_: Instance| w);
        let m = CellMachine::new(
            CellConfig::ps3()
                .with_spes(d.spes)
                .with_double_buffer(d.double_buffer),
        );
        let r = m.run(&p, &src).expect("feasible run");
        assert_eq!(r.instances, p.total_instances());
        assert_eq!(r.tsu.completions as usize, p.total_instances());
        assert_eq!(r.commands as usize, p.total_instances());
        // busy time accounting: every instance contributed its compute
        let busy: u64 = r.spe_busy.iter().sum();
        assert_eq!(busy, d.compute * p.total_instances() as u64);
        // and the wall clock cannot beat perfect parallelism of compute
        assert!(r.cycles * d.spes as u64 >= busy);

        // deterministic
        let r2 = m.run(&p, &src).expect("second run");
        assert_eq!(r.cycles, r2.cycles);
    });
}

#[test]
fn double_buffering_never_slows_a_run() {
    cases(96, |rng| {
        let arity = rng.range(4u32..32);
        let compute = rng.range(1_000u64..100_000);
        let import = rng.range(0u64..32_768);
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", arity));
        let p = b.build().unwrap();
        let w = CellWork {
            compute,
            import_bytes: import,
            export_bytes: 512,
            ls_bytes: 48 * 1024 + import,
        };
        let src = FnCellWork(move |_: Instance| w);
        let plain = CellMachine::new(CellConfig::ps3()).run(&p, &src).unwrap();
        let db = CellMachine::new(CellConfig::ps3().with_double_buffer(true))
            .run(&p, &src)
            .unwrap();
        assert!(
            db.cycles <= plain.cycles,
            "double buffering slowed {} -> {}",
            plain.cycles,
            db.cycles
        );
    });
}
