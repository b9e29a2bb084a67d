//! Visualize a DDM schedule: run QSORT on the simulated TFluxHard machine
//! with tracing enabled and print a per-core Gantt chart — the two-level
//! merge-tree bottleneck of §6.1.2 is visible as the lone `#` tail after
//! the parallel sort burst.
//!
//! ```sh
//! cargo run --release --example schedule_gantt
//! ```

use tflux::sim::{Machine, MachineConfig};
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::{qsort, Params};

fn main() {
    let kernels = 8;
    let p = Params::hard(kernels, 1, SizeClass::Small);
    let (prog, ids) = qsort::program(&p);
    let src = qsort::model(&p, ids);
    let machine = Machine::new(MachineConfig::bagle(kernels));
    let (report, trace) = machine.run_traced(&prog, &src).expect("sim run");

    println!(
        "QSORT on {kernels} kernels — {} instances, {} cycles\n",
        report.instances, report.cycles
    );
    print!("{}", trace.gantt(&prog, kernels, 100));
    println!("\nlegend: # application DThread, | inlet/outlet, . idle");

    let longest = trace.longest().expect("nonempty trace");
    println!(
        "\nlongest span: {} on core {} ({} cycles — the serial final merge)",
        longest.instance,
        longest.core,
        longest.end - longest.start
    );
    let busy = trace.core_busy(kernels);
    println!("per-core busy cycles: {busy:?}");
    println!("\nper-DThread-template breakdown (busiest first):");
    println!(
        "{:<16} {:>10} {:>14} {:>12}",
        "template", "instances", "total cycles", "max span"
    );
    for (name, n, total, max) in trace.per_template(&prog) {
        println!("{name:<16} {n:>10} {total:>14} {max:>12}");
    }
    println!(
        "utilization {:.0}% — QSORT's plateau in Fig. 5 is this idle tail",
        report.utilization() * 100.0
    );
    assert!(trace.find_overlap().is_none());
}
