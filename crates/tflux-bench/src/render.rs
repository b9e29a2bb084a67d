//! Plain-text rendering of every artifact the `figures` binary prints:
//! one [`section`] per artifact, in the paper's row format. Figure rows are
//! grouped per benchmark, one line per kernel count, one column per size
//! class — the same arrangement as the paper's bar charts.
//!
//! Every section but the host-timed `calibrate` is a pure function of the
//! code, so `docs/figures_output.txt` pins them: it holds the [`PINNED`]
//! sections as `figures pinned` prints them, and this module's tests
//! regenerate each one and compare it byte for byte.

use crate::figures::{self, FigRow};
use std::fmt::Write as _;

/// Every artifact `figures all` prints, in its order.
pub const SECTIONS: [&str; 12] = [
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "tsu-latency",
    "unroll",
    "tsu-group",
    "tsu-groups-scale",
    "qsort-tree",
    "calibrate",
    "tub",
    "fig5-x86",
];

/// The sections of `figures all` that depend on nothing but the code, in
/// order — all but `calibrate`, which measures the host: the text of
/// `figures pinned` and of `docs/figures_output.txt`.
pub const PINNED: [&str; 11] = [
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "tsu-latency",
    "unroll",
    "tsu-group",
    "tsu-groups-scale",
    "qsort-tree",
    "tub",
    "fig5-x86",
];

/// The text of artifact `name` (one of [`SECTIONS`]), ending in a blank
/// line; `None` for an unknown name. `quick` selects the reduced sweeps.
pub fn section(name: &str, quick: bool) -> Option<String> {
    let mut s = String::new();
    let largest = if quick { "Small" } else { "Large" };
    // writing into a String cannot fail
    let _ = match name {
        "table1" => writeln!(s, "{}", figures::table1_text()),
        "fig5" | "fig6" | "fig7" => {
            // (rows, title, headline kernel count, what a kernel is, paper)
            let (rows, title, at, unit, paper) = match name {
                "fig5" => (
                    figures::fig5(quick),
                    "Figure 5: TFluxHard speedup (hardware TSU, Bagle)",
                    27,
                    "kernels",
                    "21x",
                ),
                "fig6" => (
                    figures::fig6(quick),
                    "Figure 6: TFluxSoft speedup (software TSU, Xeon model)",
                    6,
                    "kernels",
                    "~4.4x",
                ),
                _ => (
                    figures::fig7(quick),
                    "Figure 7: TFluxCell speedup (PS3 model)",
                    6,
                    "SPEs",
                    "~4.4x avg over soft+cell",
                ),
            };
            s.push_str(&render_figure(title, &rows));
            let avg = headline(&rows, at, largest);
            writeln!(
                s,
                "average speedup at {at} {unit}, Large: {avg:.1}x (paper: {paper})\n"
            )
        }
        "tsu-latency" => tsu_latency(&mut s, quick),
        "unroll" => unroll(&mut s, quick),
        "tsu-group" => tsu_group(&mut s, quick),
        "tsu-groups-scale" => tsu_groups_scale(&mut s, quick),
        "qsort-tree" => qsort_tree(&mut s, quick),
        "calibrate" => calibrate(&mut s),
        "tub" => tub(&mut s),
        "fig5-x86" => fig5_x86(&mut s, quick),
        _ => return None,
    };
    Some(s)
}

fn tsu_latency(s: &mut String, quick: bool) -> std::fmt::Result {
    writeln!(
        s,
        "== §4.1: TSU processing-time sensitivity (MMULT, 8 kernels) =="
    )?;
    writeln!(
        s,
        "{:>10} {:>14} {:>8}",
        "op-cycles", "exec cycles", "delta"
    )?;
    for (op, cycles, delta) in figures::tsu_latency(quick) {
        writeln!(s, "{op:>10} {cycles:>14} {:>7.2}%", delta * 100.0)?;
    }
    writeln!(s, "paper: <1% impact from 1 to 128 cycles\n")
}

fn unroll(s: &mut String, quick: bool) -> std::fmt::Result {
    writeln!(s, "== §5/§6: unroll-factor study (MMULT Small) ==")?;
    writeln!(s, "{:>8} {:>8} {:>8}", "platform", "unroll", "speedup")?;
    for (platform, u, speedup) in figures::unroll_study(quick) {
        writeln!(s, "{platform:>8} {u:>8} {speedup:>8.2}")?;
    }
    writeln!(
        s,
        "paper: hard peaks at unroll 2-4; soft needs >16; cell needs 64 (MMULT)\n"
    )
}

fn tsu_group(s: &mut String, quick: bool) -> std::fmt::Result {
    writeln!(
        s,
        "== §3.3: TSU Group vs per-CPU TSUs (MMULT, 8 kernels) =="
    )?;
    for (label, cycles) in figures::tsu_group_ablation(quick) {
        writeln!(s, "{label:<28} {cycles:>14} cycles")?;
    }
    writeln!(s)
}

fn tsu_groups_scale(s: &mut String, quick: bool) -> std::fmt::Result {
    writeln!(
        s,
        "== §3.3 extension: multiple TSU Groups (27 kernels, fine-grain MMULT) =="
    )?;
    writeln!(
        s,
        "{:>8} {:>14} {:>14}",
        "groups", "cycles", "cross-updates"
    )?;
    for (g, cycles, cross) in figures::tsu_groups_scaling(quick) {
        writeln!(s, "{g:>8} {cycles:>14} {cross:>14}")?;
    }
    writeln!(s)
}

fn qsort_tree(s: &mut String, quick: bool) -> std::fmt::Result {
    writeln!(s, "== §6.1.2: QSORT merge-tree depth (27 kernels) ==")?;
    writeln!(s, "{:>6} {:>10} {:>10}", "depth", "Small", "Large")?;
    for (d, small, large) in figures::qsort_tree_depth(quick) {
        writeln!(s, "{d:>6} {small:>10.2} {large:>10.2}")?;
    }
    writeln!(
        s,
        "paper: shipped depth 1; deeper trees trade steps for parallelism\n"
    )
}

fn calibrate(s: &mut String) -> std::fmt::Result {
    writeln!(
        s,
        "== calibration: native per-DThread overhead vs the soft-TSU model =="
    )?;
    let ghz = 2.33; // the paper's Xeon E5320 clock
    let (ns, cycles, modeled) = figures::calibrate_soft_overhead(ghz);
    writeln!(
        s,
        "this runtime, this host : {ns:.0} ns/DThread ({cycles} cycles at {ghz} GHz)"
    )?;
    writeln!(
        s,
        "paper-2008 cost model   : {modeled} cycles/DThread (2*access + 2*op + kernel)"
    )?;
    writeln!(
        s,
        "the Fig. 6 model is calibrated to the paper's 2008 pthread runtime;"
    )?;
    writeln!(
        s,
        "this Rust runtime's transition path is considerably cheaper"
    )?;
    let host = figures::host_capacity();
    writeln!(
        s,
        "parallel capacity       : {:.2} cores (multiply-bound loop: {:.0} ms on 1 thread, {:.0} ms each on 2)",
        host.parallel_capacity(),
        host.one_thread_ms,
        host.two_threads_ms
    )?;
    let [alone, beside, shared] = host.fetch_add_ns;
    writeln!(
        s,
        "fetch_add               : {alone:.1} ns alone, {beside:.1} ns beside a sibling on another line, {shared:.1} ns on the same line\n"
    )
}

fn tub(s: &mut String) -> std::fmt::Result {
    writeln!(
        s,
        "== §4.2: segmented TUB contention (simulated, soft-TSU costs, 1000 pushes/core) =="
    )?;
    writeln!(s, " pushers segments  busy_hits  cycles/push")?;
    for (pushers, segments, t) in figures::tub_contention() {
        let (hits, per_push) = (t.busy_hits, t.push_cycles as f64 / t.pushes as f64);
        writeln!(s, "{pushers:>8} {segments:>8} {hits:>10} {per_push:>12.1}")?;
    }
    writeln!(
        s,
        "paper: segments keep completing kernels from serializing on one lock\n"
    )
}

fn fig5_x86(s: &mut String, quick: bool) -> std::fmt::Result {
    writeln!(
        s,
        "== §6.1.2 cross-check: 9-core x86 vs Bagle (8 kernels) =="
    )?;
    writeln!(s, "{:<8} {:>8} {:>8}", "Bench", "x86", "Bagle")?;
    for (bench, x86, bagle) in figures::fig5_x86(quick) {
        writeln!(s, "{bench:<8} {x86:>7.1}x {bagle:>7.1}x")?;
    }
    writeln!(
        s,
        "paper: \"speedup values observed and conclusions drawn are similar\"\n"
    )
}

/// Render rows as the paper's figure layout.
fn render_figure(title: &str, rows: &[FigRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = writeln!(
        s,
        "{:<8} {:>7} {:>10} {:>10} {:>10}   {:>9} {:>6}",
        "Bench", "Kernels", "Small", "Medium", "Large", "coh-miss%", "util%"
    );
    let benches: Vec<&str> = {
        let mut v = Vec::new();
        for r in rows {
            if !v.contains(&r.bench) {
                v.push(r.bench);
            }
        }
        v
    };
    for bench in benches {
        let mut kernels: Vec<u32> = rows
            .iter()
            .filter(|r| r.bench == bench)
            .map(|r| r.kernels)
            .collect();
        kernels.sort_unstable();
        kernels.dedup();
        for k in kernels {
            let cell = |size: &str| -> Option<&FigRow> {
                rows.iter()
                    .find(|r| r.bench == bench && r.kernels == k && r.size == size)
            };
            let fmt = |r: Option<&FigRow>| match r {
                Some(r) => format!("{:.1}", r.speedup),
                None => "-".to_string(),
            };
            // annotate with the largest-size point's diagnostics; a platform
            // without coherent caches prints `-` for its coherency misses
            let diag = cell("Large").or(cell("Medium")).or(cell("Small"));
            let coherency = |r: &FigRow| {
                r.coherency_ratio
                    .map_or("-".into(), |c| format!("{:.1}", c * 100.0))
            };
            let _ = writeln!(
                s,
                "{:<8} {:>7} {:>10} {:>10} {:>10}   {:>9} {:>6}",
                bench,
                k,
                fmt(cell("Small")),
                fmt(cell("Medium")),
                fmt(cell("Large")),
                diag.map(coherency).unwrap_or_default(),
                diag.map(|r| format!("{:.0}", r.utilization * 100.0))
                    .unwrap_or_default(),
            );
        }
        let _ = writeln!(s);
    }
    s
}

/// Average speedup of the largest kernel configuration (the paper's
/// headline numbers: 21x at 27 nodes hard, 4.4x at 6 nodes soft/cell).
fn headline(rows: &[FigRow], kernels: u32, size: &str) -> f64 {
    let pts: Vec<f64> = rows
        .iter()
        .filter(|r| r.kernels == kernels && r.size == size)
        .map(|r| r.speedup)
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    pts.iter().sum::<f64>() / pts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: &'static str, size: &'static str, kernels: u32, speedup: f64) -> FigRow {
        FigRow {
            bench,
            size,
            kernels,
            speedup,
            coherency_ratio: Some(0.01),
            utilization: 0.9,
        }
    }

    #[test]
    fn renders_grid() {
        let rows = vec![
            row("TRAPEZ", "Small", 2, 2.0),
            row("TRAPEZ", "Large", 2, 2.0),
            row("TRAPEZ", "Small", 4, 3.9),
        ];
        let s = render_figure("Figure X", &rows);
        assert!(s.contains("Figure X"));
        assert!(s.contains("TRAPEZ"));
        assert!(s.contains("3.9"));
        assert!(s.contains('-'), "missing sizes render as dashes");
    }

    #[test]
    fn headline_averages_selected_points() {
        let rows = vec![
            row("A", "Large", 27, 20.0),
            row("B", "Large", 27, 22.0),
            row("A", "Large", 2, 2.0),
        ];
        assert_eq!(headline(&rows, 27, "Large"), 21.0);
        assert_eq!(headline(&rows, 16, "Large"), 0.0);
    }

    /// The pinned figures file, cut at each section's `== ` title line
    /// (`table1`, the first section, has none).
    fn pinned_file() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/figures_output.txt");
        let text = std::fs::read_to_string(path).expect("docs/figures_output.txt");
        let mut sections = vec![String::new()];
        for line in text.split_inclusive('\n') {
            if line.starts_with("== ") && !sections[0].is_empty() {
                sections.push(String::new());
            }
            sections.last_mut().unwrap().push_str(line);
        }
        sections
    }

    /// Regenerate section `name` and compare it with its text in the
    /// pinned file, byte for byte.
    fn check_pinned(name: &str) {
        let at = PINNED
            .iter()
            .position(|&n| n == name)
            .expect("a pinned section");
        let file = pinned_file();
        let got = section(name, false).unwrap();
        if file.get(at) == Some(&got) {
            return;
        }
        let want = file.get(at).map_or("", String::as_str);
        let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
        let mut diff = String::new();
        for i in 0..want.len().max(got.len()) {
            if want.get(i) != got.get(i) {
                for (sign, line) in [('-', want.get(i)), ('+', got.get(i))] {
                    if let Some(l) = line {
                        let _ = writeln!(diff, "{sign}{l}");
                    }
                }
            }
        }
        panic!(
            "`figures {name}` no longer prints its text in docs/figures_output.txt \
             (- file, + code):\n{diff}\nIf the change is meant, regenerate the file:\n  \
             cargo run --release -p tflux-bench --bin figures -- pinned > docs/figures_output.txt"
        );
    }

    #[test]
    fn the_pinned_file_holds_every_pinned_section_and_nothing_else() {
        assert_eq!(pinned_file().len(), PINNED.len());
        // `figures all` in its order, less the host-timed section
        let deterministic: Vec<_> = SECTIONS.into_iter().filter(|&n| n != "calibrate").collect();
        assert_eq!(deterministic, PINNED);
    }

    macro_rules! pinned_sections {
        ($($test:ident => $name:literal,)*) => {
            $(
                #[test]
                fn $test() {
                    check_pinned($name);
                }
            )*
        };
    }

    // one test per section, so the slow sweeps run in parallel
    pinned_sections! {
        pinned_table1 => "table1",
        pinned_fig5 => "fig5",
        pinned_fig6 => "fig6",
        pinned_fig7 => "fig7",
        pinned_tsu_latency => "tsu-latency",
        pinned_unroll => "unroll",
        pinned_tsu_group => "tsu-group",
        pinned_tsu_groups_scale => "tsu-groups-scale",
        pinned_qsort_tree => "qsort-tree",
        pinned_tub => "tub",
        pinned_fig5_x86 => "fig5-x86",
    }
}
