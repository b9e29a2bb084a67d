//! `bench_e2e compare A B`: parent runs against change runs.
//!
//! `A` and `B` are files of lines written by `--out`. For every end-to-end
//! metric × workload the verdict follows the choosing-metrics rules with
//! the bounds fixed in `BENCHMARK.json`:
//!
//! * **improved**: B wins at least nine tenths of the pairs (run *i* of A
//!   against run *i* of B, ties counting for neither) and the medians
//!   differ by more than A's interquartile distance;
//! * **regressed**: B's median is worse than A's by more than the bound;
//! * **unresolved**: neither, but either side's interquartile spread is
//!   wider than the bound, and not every run of B beats every run of A;
//! * **unchanged**: otherwise.

use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (ma, mb) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    let iqr_a = if a.len() < 2 {
        0.0
    } else {
        quartiles(a)[2] - quartiles(a)[0]
    };
    if better(mb, ma) && wins * 10 >= pairs * 9 && (mb - ma).abs() > iqr_a {
        return Verdict::Improved;
    }
    let worse_by = if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// `workload → metric → values`, from the untraced lines of an `--out` file.
fn load(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let head = doc
            .get("header")
            .ok_or(format!("{path}:{}: no header", n + 1))?;
        if head.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = head
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", n + 1))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or(format!("{path}:{}: no metrics", n + 1))?;
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench-json" {
            bench_json = it.next().ok_or("--bench-json needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err(
            "usage: bench_e2e compare A.jsonl B.jsonl [--bench-json BENCHMARK.json]".into(),
        );
    };
    let spec = std::fs::read_to_string(&bench_json).map_err(|e| format!("{bench_json}: {e}"))?;
    let spec = Json::parse(&spec)?;
    let (a, b) = (load(a_path)?, load(b_path)?);

    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut regressed = 0;
    for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let higher = m.get("better").and_then(Json::as_str) == Some("higher");
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without a bound")?;
        for (workload, metrics) in &a {
            let (Some(va), Some(vb)) =
                (metrics.get(name), b.get(workload).and_then(|w| w.get(name)))
            else {
                continue;
            };
            let v = verdict(va, vb, higher, bound);
            regressed += usize::from(v == Verdict::Regressed);
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{workload:<16} {name:<16} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>5.0}%  {} (n={}/{}, spread {:.1}%/{:.1}%)",
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                v.label(),
                va.len(),
                vb.len(),
                spread(va) * 100.0,
                spread(vb) * 100.0,
            );
        }
    }
    if regressed > 0 {
        return Err(format!("{regressed} metric × workload pairs regressed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    fn scaled(k: f64) -> Vec<f64> {
        STEADY.iter().map(|x| x * k).collect()
    }

    #[test]
    fn clear_gain_is_improved_in_the_metric_direction() {
        assert_eq!(
            verdict(&STEADY, &scaled(0.8), false, 0.1),
            Verdict::Improved
        );
        assert_eq!(verdict(&STEADY, &scaled(1.2), true, 0.1), Verdict::Improved);
    }

    #[test]
    fn loss_beyond_the_bound_is_regressed() {
        assert_eq!(
            verdict(&STEADY, &scaled(1.2), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&STEADY, &scaled(0.8), true, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn small_shift_within_the_bound_is_unchanged() {
        assert_eq!(
            verdict(&STEADY, &scaled(1.03), false, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&STEADY, &STEADY, false, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &noisy, false, 0.1), Verdict::Unresolved);
        // a win smaller than the parent's own spread is not a gain
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 0.97).collect();
        assert_eq!(verdict(&noisy, &shifted, false, 0.1), Verdict::Unresolved);
    }
}
