//! TFluxCell: run the MMULT workload on the simulated Cell/BE, showing the
//! Local-Store / DMA cost structure — and the hard Local-Store limit that
//! stopped the paper from running large QSORT inputs on the PS3.
//!
//! ```sh
//! cargo run --release --example cell_offload
//! ```

use tflux::cell::{CellConfig, CellMachine};
use tflux::workloads::setup::{cell_baseline, cell_setup};
use tflux::workloads::sizes::{Platform, SizeClass};
use tflux::workloads::{Bench, Params};

fn main() {
    println!("MMULT on the simulated PS3 (1 PPE + SPEs, 256 KB Local Stores)\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>8}",
        "SPEs", "size", "cycles", "speedup", "DMA%"
    );
    for &size in &[SizeClass::Small, SizeClass::Medium, SizeClass::Large] {
        for spes in [2u32, 4, 6] {
            let p = Params::cell(spes, 64, size);
            let (prog, src) = cell_setup(Bench::Mmult, &p);
            let (sprog, ssrc) = cell_baseline(Bench::Mmult, &p);
            let machine = CellMachine::new(CellConfig::ps3().with_spes(spes));
            let seq = machine
                .run_sequential(&sprog, ssrc.as_ref())
                .expect("baseline");
            let par = machine.run(&prog, src.as_ref()).expect("run");
            println!(
                "{spes:>6} {:>8} {:>10} {:>9.1}x {:>7.1}%",
                format!(
                    "{}²",
                    tflux::workloads::sizes::mmult_n(size, Platform::Cell)
                ),
                par.cycles,
                par.speedup_over(&seq),
                par.dma_fraction() * 100.0
            );
        }
    }

    // The Local Store limit, §6.3: QSORT beyond ~12 K elements cannot keep
    // the merge working set resident.
    println!("\nQSORT Local-Store limit:");
    let ok = Params::cell(6, 1, SizeClass::Large); // 12 K elements: fits
    let (prog, src) = cell_setup(Bench::Qsort, &ok);
    let machine = CellMachine::new(CellConfig::ps3());
    let r = machine.run(&prog, src.as_ref()).expect("12K fits");
    println!(
        "  12 K elements: OK, peak LS use {} KB of 256 KB",
        r.peak_ls / 1024
    );

    let too_big = Params {
        kernels: 6,
        unroll: 1,
        size: SizeClass::Large,
        platform: Platform::Native, // 50 K elements, the size the paper could NOT run
    };
    let (prog, src) = cell_setup(Bench::Qsort, &too_big);
    match machine.run(&prog, src.as_ref()) {
        Err(e) => println!("  50 K elements: {e}"),
        Ok(_) => unreachable!("50K must overflow the Local Store"),
    }
}
