//! TRAPEZ end-to-end: the same DDM program runs on the real threaded
//! runtime (for the numeric answer) and on the simulated TFluxHard machine
//! (for the speedup curve), demonstrating the TFlux portability claim —
//! one decomposition, many platforms.
//!
//! ```sh
//! cargo run --release --example trapez_integration
//! ```

use tflux::sim::{Machine, MachineConfig};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::{trapez, Params};

fn main() {
    // --- native execution on the TFluxSoft runtime ---
    let p = Params::soft(4, 8192, SizeClass::Small);
    let ddm = trapez::run_ddm(&p);
    let seq = trapez::seq(tflux::workloads::sizes::trapez_intervals(p.size));
    println!("TRAPEZ ∫₀¹ 4/(1+x²) dx:");
    println!("  sequential reference : {seq:.12}");
    println!("  DDM on 4 kernels     : {ddm:.12}");
    println!(
        "  |error vs π|         : {:.2e}",
        (ddm - std::f64::consts::PI).abs()
    );
    assert!((ddm - seq).abs() < 1e-9);

    // --- the same program on the simulated hardware-TSU machine ---
    println!("\nTFluxHard (simulated Bagle, hardware TSU Group):");
    println!("{:>8} {:>10}", "kernels", "speedup");
    for kernels in [2u32, 4, 8, 16, 27] {
        let p = Params::hard(kernels, 512, SizeClass::Medium);
        let (prog, ids) = trapez::program(&p);
        let arity = prog.thread(ids.work).arity;
        let src = trapez::model(&p, ids, arity);
        let machine = Machine::new(MachineConfig::bagle(kernels));
        let baseline = machine.run_sequential(&prog, &src);
        let parallel = machine.run(&prog, &src).expect("sim run");
        println!("{kernels:>8} {:>9.1}x", parallel.speedup_over(&baseline));
    }
    println!("\n(near-linear, as in Fig. 5 of the paper: TRAPEZ has almost no");
    println!(" inter-DThread data transfer beyond the final reduction)");
}
