//! Capacity planning with a custom machine model: scale a hypothetical
//! future CMP from 8 to 56 cores and watch where each benchmark's scaling
//! breaks — TSU command serialization, bus bandwidth, or algorithmic
//! bottlenecks. Everything the paper measured at 27 cores, extrapolated.
//!
//! ```sh
//! cargo run --release --example custom_machine
//! ```

use tflux::sim::{CacheConfig, Machine, MachineConfig, Topology, TsuCosts};
use tflux::workloads::setup::{sim_baseline, sim_setup, with_default_unroll};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::{Bench, Params};

/// A 2012-flavoured CMP: more cores, bigger L2 slices, faster memory.
fn future_cmp(cores: u32) -> MachineConfig {
    MachineConfig {
        cores,
        l1: CacheConfig {
            size: 32 * 1024,
            line: 64,
            assoc: 8,
            read_lat: 3,
            write_lat: 1,
        },
        l2: CacheConfig {
            size: 4 * 1024 * 1024,
            line: 64,
            assoc: 16,
            read_lat: 18,
            write_lat: 18,
        },
        l2_group: 4, // 4 cores share an L2 slice
        mem_lat: 160,
        bus_transfer: 2,
        bus_control: 1,
        c2c_lat: 30,
        tsu: TsuCosts::hard(),
        tsu_groups: 2, // the paper's §3.3 multi-group extension
        topology: Topology::flat(),
    }
}

fn main() {
    println!("scaling study on a hypothetical 2-TSU-group CMP (Large sizes)\n");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6}",
        "Bench", "@8", "@16", "@32", "@56"
    );
    for bench in Bench::ALL {
        let mut row = format!("{:<8}", bench.name());
        for cores in [8u32, 16, 32, 56] {
            let p = with_default_unroll(bench, Params::hard(cores, 0, SizeClass::Large));
            let machine = Machine::new(future_cmp(cores));
            let (prog, src) = sim_setup(bench, &p);
            let (sprog, ssrc) = sim_baseline(bench, &p);
            let seq = machine.run_sequential(&sprog, ssrc.as_ref());
            let par = machine.run(&prog, src.as_ref()).expect("sim run");
            row.push_str(&format!(" {:>5.1}x", par.speedup_over(&seq)));
        }
        println!("{row}");
    }
    println!("\nTRAPEZ/SUSAN keep scaling; QSORT hits its merge wall regardless of");
    println!("cores; MMULT and FFT bend as the shared bus and reuse distances bite.");
}
