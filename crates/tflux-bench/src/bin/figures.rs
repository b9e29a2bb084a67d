//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] table1|fig5|fig6|fig7|tsu-latency|unroll|tsu-group|tub|all
//! ```
//!
//! Run with `--release`; the full Figure 5 sweep simulates hundreds of
//! millions of cache accesses.

use std::process::ExitCode;
use tflux_bench::figures;
use tflux_bench::render::{headline, render_figure};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let what = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map(String::as_str)
        .unwrap_or("all");

    if json {
        // machine-readable output for the speedup figures
        let rows = match what {
            "fig5" => figures::fig5(quick),
            "fig6" => figures::fig6(quick),
            "fig7" => figures::fig7(quick),
            other => {
                eprintln!("--json supports fig5|fig6|fig7, not `{other}`");
                return ExitCode::from(2);
            }
        };
        print!("{}", tflux_bench::json::ToJson::to_json(&rows).pretty());
        return ExitCode::SUCCESS;
    }

    let t0 = std::time::Instant::now();
    match what {
        "table1" => print!("{}", figures::table1_text()),
        "fig5" => fig5(quick),
        "fig6" => fig6(quick),
        "fig7" => fig7(quick),
        "tsu-latency" => tsu_latency(quick),
        "unroll" => unroll(quick),
        "tsu-group" => tsu_group(quick),
        "tsu-groups-scale" => tsu_groups_scale(quick),
        "qsort-tree" => qsort_tree(quick),
        "calibrate" => calibrate(),
        "tub" => tub(),
        "fig5-x86" => fig5_x86(quick),
        "all" => {
            print!("{}", figures::table1_text());
            println!();
            fig5(quick);
            fig6(quick);
            fig7(quick);
            tsu_latency(quick);
            unroll(quick);
            tsu_group(quick);
            tsu_groups_scale(quick);
            qsort_tree(quick);
            calibrate();
            tub();
            fig5_x86(quick);
        }
        other => {
            eprintln!(
                "unknown artifact `{other}`; expected table1|fig5|fig6|fig7|tsu-latency|unroll|tsu-group|tsu-groups-scale|qsort-tree|calibrate|tub|fig5-x86|all"
            );
            return ExitCode::from(2);
        }
    }
    eprintln!("[figures: {what} in {:.1?}]", t0.elapsed());
    ExitCode::SUCCESS
}

fn fig5(quick: bool) {
    let rows = figures::fig5(quick);
    print!(
        "{}",
        render_figure("Figure 5: TFluxHard speedup (hardware TSU, Bagle)", &rows)
    );
    println!(
        "average speedup at 27 kernels, Large: {:.1}x (paper: 21x)\n",
        headline(&rows, 27, if quick { "Small" } else { "Large" })
    );
}

fn fig6(quick: bool) {
    let rows = figures::fig6(quick);
    print!(
        "{}",
        render_figure(
            "Figure 6: TFluxSoft speedup (software TSU, Xeon model)",
            &rows
        )
    );
    println!(
        "average speedup at 6 kernels, Large: {:.1}x (paper: ~4.4x)\n",
        headline(&rows, 6, if quick { "Small" } else { "Large" })
    );
}

fn fig7(quick: bool) {
    let rows = figures::fig7(quick);
    print!(
        "{}",
        render_figure("Figure 7: TFluxCell speedup (PS3 model)", &rows)
    );
    println!(
        "average speedup at 6 SPEs, Large: {:.1}x (paper: ~4.4x avg over soft+cell)\n",
        headline(&rows, 6, if quick { "Small" } else { "Large" })
    );
}

fn tsu_latency(quick: bool) {
    println!("== §4.1: TSU processing-time sensitivity (MMULT, 8 kernels) ==");
    println!("{:>10} {:>14} {:>8}", "op-cycles", "exec cycles", "delta");
    for (op, cycles, delta) in figures::tsu_latency(quick) {
        println!("{op:>10} {cycles:>14} {:>7.2}%", delta * 100.0);
    }
    println!("paper: <1% impact from 1 to 128 cycles\n");
}

fn unroll(quick: bool) {
    println!("== §5/§6: unroll-factor study (MMULT Small) ==");
    println!("{:>8} {:>8} {:>8}", "platform", "unroll", "speedup");
    for (platform, u, s) in figures::unroll_study(quick) {
        println!("{platform:>8} {u:>8} {s:>8.2}");
    }
    println!("paper: hard peaks at unroll 2-4; soft needs >16; cell needs 64 (MMULT)\n");
}

fn fig5_x86(quick: bool) {
    println!("== §6.1.2 cross-check: 9-core x86 vs Bagle (8 kernels) ==");
    println!("{:<8} {:>8} {:>8}", "Bench", "x86", "Bagle");
    for (bench, x86, bagle) in tflux_bench::figures::fig5_x86(quick) {
        println!("{bench:<8} {x86:>7.1}x {bagle:>7.1}x");
    }
    println!("paper: \"speedup values observed and conclusions drawn are similar\"\n");
}

fn calibrate() {
    println!("== calibration: native per-DThread overhead vs the soft-TSU model ==");
    let ghz = 2.33; // the paper's Xeon E5320 clock
    let (ns, cycles, modeled) = tflux_bench::figures::calibrate_soft_overhead(ghz);
    println!("this runtime, this host : {ns:.0} ns/DThread ({cycles} cycles at {ghz} GHz)");
    println!("paper-2008 cost model   : {modeled} cycles/DThread (2*access + 2*op + kernel)");
    println!("the Fig. 6 model is calibrated to the paper's 2008 pthread runtime;");
    println!("this Rust runtime's transition path is considerably cheaper");
    let host = tflux_bench::figures::host_capacity();
    println!(
        "parallel capacity       : {:.2} cores (multiply-bound loop: {:.0} ms on 1 thread, {:.0} ms each on 2)",
        host.parallel_capacity(),
        host.one_thread_ms,
        host.two_threads_ms
    );
    let [alone, beside, shared] = host.fetch_add_ns;
    println!(
        "fetch_add               : {alone:.1} ns alone, {beside:.1} ns beside a sibling on another line, {shared:.1} ns on the same line\n"
    );
}

fn tub() {
    println!("== §4.2: segmented TUB contention (simulated, soft-TSU costs, 1000 pushes/core) ==");
    println!(" pushers segments  busy_hits  cycles/push");
    for (pushers, segments, s) in figures::tub_contention() {
        let (hits, per_push) = (s.busy_hits, s.push_cycles as f64 / s.pushes as f64);
        println!("{pushers:>8} {segments:>8} {hits:>10} {per_push:>12.1}");
    }
    println!("paper: segments keep completing kernels from serializing on one lock\n");
}

fn qsort_tree(quick: bool) {
    println!("== §6.1.2: QSORT merge-tree depth (27 kernels) ==");
    println!("{:>6} {:>10} {:>10}", "depth", "Small", "Large");
    for (d, small, large) in tflux_bench::figures::qsort_tree_depth(quick) {
        println!("{d:>6} {small:>10.2} {large:>10.2}");
    }
    println!("paper: shipped depth 1; deeper trees trade steps for parallelism\n");
}

fn tsu_groups_scale(quick: bool) {
    println!("== §3.3 extension: multiple TSU Groups (27 kernels, fine-grain MMULT) ==");
    println!("{:>8} {:>14} {:>14}", "groups", "cycles", "cross-updates");
    for (g, cycles, cross) in tflux_bench::figures::tsu_groups_scaling(quick) {
        println!("{g:>8} {cycles:>14} {cross:>14}");
    }
    println!();
}

fn tsu_group(quick: bool) {
    println!("== §3.3: TSU Group vs per-CPU TSUs (MMULT, 8 kernels) ==");
    for (label, cycles) in figures::tsu_group_ablation(quick) {
        println!("{label:<28} {cycles:>14} cycles");
    }
    println!();
}
