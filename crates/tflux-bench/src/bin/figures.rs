//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--json] table1|fig5|fig6|fig7|tsu-latency|unroll|tsu-group|tsu-groups-scale|qsort-tree|calibrate|tub|fig5-x86|pinned|all
//! ```
//!
//! `all` prints every artifact; `pinned` prints every one but the
//! host-dependent `calibrate`, which is the text of
//! `docs/figures_output.txt`. Run with `--release`; the full Figure 5 sweep
//! simulates hundreds of millions of cache accesses.

use std::process::ExitCode;
use tflux_bench::figures;
use tflux_bench::render::{section, PINNED, SECTIONS};

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
    let names: Vec<&str> = match what {
        "all" => SECTIONS.to_vec(),
        "pinned" => PINNED.to_vec(),
        one => vec![one],
    };
    for name in names {
        let Some(text) = section(name, quick) else {
            eprintln!(
                "unknown artifact `{name}`; expected {}|pinned|all",
                SECTIONS.join("|")
            );
            return ExitCode::from(2);
        };
        print!("{text}");
    }
    eprintln!("[figures: {what} in {:.1?}]", t0.elapsed());
    ExitCode::SUCCESS
}
