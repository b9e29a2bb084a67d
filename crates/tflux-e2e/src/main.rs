//! `bench_e2e`: the end-to-end, layer-attributed benchmark.
//!
//! ```text
//! bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--trace-out FILE]
//! bench_e2e compare A.jsonl B.jsonl [--bench-json BENCHMARK.json]
//! ```
//!
//! One workload per process (so `peak_rss_mb` is the workload's own);
//! `--workload all` runs each in a child process. The last line of
//! standard output is the result object `BENCHMARK.json` describes.
//! README.md explains the workloads, the metrics and the oracles.

mod api;
mod compare;
mod gen;
mod host;
mod json;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{LayerMetrics, Pass, Workload, E2E, KERNELS, LAYERS, NAMES};

/// The seed used when `--seed` is not given; `expected.json`'s cell pin
/// was recorded with it.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u32 = 10;
/// Set-ups per run; `setup_s` is their quiet level.
const SETUP_REPEATS: usize = 5;

struct Opts {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=600).contains(&o.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            "--trace-out" => o.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workload != "all" && !NAMES.contains(&o.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of: all {}",
            o.workload,
            NAMES.join(" ")
        ));
    }
    Ok(o)
}

/// What the runner script knows and the binary cannot: passed in through
/// the environment, "unknown" when run by hand.
fn header(o: &Opts) -> Json {
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    Json::obj([
        ("bench", Json::str("bench_e2e")),
        ("workload", Json::str(&*o.workload)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(f64::from(o.seconds))),
        ("trace", Json::Num(f64::from(u8::from(o.trace)))),
        ("deps", env("TFLUX_E2E_DEPS")),
        ("rustc", env("TFLUX_E2E_RUSTC")),
        ("commit", env("TFLUX_E2E_COMMIT")),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("kernels", Json::Num(f64::from(KERNELS))),
    ])
}

/// The passes of one phase (warm-up, untraced, traced), part by part.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Work units of one pass (the same on every pass).
    work: u64,
    /// `parts[i]`: the busy time of part `i` on each pass, ms.
    parts: Vec<Vec<f64>>,
    /// Median request latency of each pass, for workloads that serve requests.
    latency_p50: Vec<f64>,
    /// Every request latency.
    latency: Vec<f64>,
}

impl Phase {
    fn add(&mut self, p: Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.work = p.work;
        self.parts.resize(p.parts_ms.len(), Vec::new());
        for (series, ms) in self.parts.iter_mut().zip(&p.parts_ms) {
            series.push(*ms);
        }
        if !p.latency_ms.is_empty() {
            self.latency_p50.push(stats::median(&p.latency_ms));
            self.latency.extend(p.latency_ms);
        }
    }

    /// Busy time of each whole pass, ms.
    fn totals(&self) -> Vec<f64> {
        let passes = self.parts.first().map_or(0, Vec::len);
        (0..passes)
            .map(|i| self.parts.iter().map(|s| s[i]).sum())
            .collect()
    }

    /// What a pass takes when nothing else competes for the host: each
    /// part's quiet time, summed. Parts are judged separately because a
    /// short part finds a quiet moment more often than a whole pass does.
    fn quiet_pass_ms(&self) -> f64 {
        self.parts.iter().map(|s| stats::quiet(s)).sum()
    }

    /// Latency samples where the workload has them, else pass totals.
    fn samples(&self) -> Vec<f64> {
        if self.latency.is_empty() {
            self.totals()
        } else {
            self.latency.clone()
        }
    }
}

fn metrics_json(values: &[(&str, f64)], units: &[(&str, &str)]) -> Json {
    Json::obj(values.iter().map(|&(name, v)| {
        let unit = units
            .iter()
            .find(|(n, _)| *n == name)
            .expect("metric is in its table")
            .1;
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
        )
    }))
}

/// Set up `SETUP_REPEATS` times, run the timed passes, and build the
/// result object.
fn run<W: Workload>(
    o: &Opts,
    make: impl Fn(u64, &mut Tracer) -> Result<W, String>,
) -> Result<Json, String> {
    let mut tr = Tracer::new(o.trace);
    let mut off = Tracer::new(false);
    let mut warm = Phase::default();
    let steal0 = host::cpu_ticks();

    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        // ending the previous set-up (a server joins its pool) is not
        // part of the next one
        drop(w.take());
        let t = Instant::now();
        let mut fresh = make(o.seed, &mut tr)?;
        // the first pass is warm-up and is charged to set-up
        warm.add(fresh.pass(&mut off));
        setup_s.push(t.elapsed().as_secs_f64());
        w = Some(fresh);
    }
    let mut w = w.expect("SETUP_REPEATS > 0");

    let passes = (w.passes_per_10s() * o.seconds).div_ceil(10).max(2);
    // a traced run traces every other pass, so both halves see the same host
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    for i in 0..passes {
        if o.trace && i % 2 == 1 {
            tr.set_iter(i);
            traced.add(w.pass(&mut tr));
        } else {
            untraced.add(w.pass(&mut off));
        }
    }
    let untraced_passes = if o.trace { passes.div_ceil(2) } else { passes };
    let peak_rss_mb = host::peak_rss_mb();

    let attempted = warm.attempted + untraced.attempted + traced.attempted;
    let failed = warm.failed + untraced.failed + traced.failed;
    let samples = untraced.samples();
    let [q1, q2, q3] = stats::quartiles(&samples);
    println!(
        "# passes: {untraced_passes} untraced + {} traced; {} samples, quartiles {q1:.4} {q2:.4} {q3:.4} ms, tail at p{}; set-ups {setup_s:.4?} s",
        passes - untraced_passes,
        samples.len(),
        stats::tail_percentile(samples.len()) * 100.0,
    );
    for line in w.details() {
        println!("# {line}");
    }
    let metrics = if o.trace {
        let mut layers = LayerMetrics::new();
        w.layers(&mut tr, &mut layers);
        layers.set("pass_ms_p50", stats::median(&samples));
        layers.set("pass_ms_tail", stats::tail(&samples));
        layers.set(
            "trace_overhead_pct",
            (traced.quiet_pass_ms() / untraced.quiet_pass_ms() - 1.0) * 100.0,
        );
        let (busy, stolen) = host::cpu_ticks();
        layers.set(
            "host.steal_pct",
            workloads::ratio(
                stolen.saturating_sub(steal0.1) as f64,
                busy.saturating_sub(steal0.0) as f64,
            ) * 100.0,
        );
        layers.set("spans", tr.spans().len() as f64);
        for (name, l) in tr.layers() {
            println!(
                "# span {name}: calls {} total_ms {:.3} self_ms {:.3}",
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
        let path = o
            .trace_out
            .clone()
            .unwrap_or_else(|| format!(".bench_out/{}.trace.json", o.workload));
        if let Some(dir) = std::path::Path::new(&path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, tr.chrome_json(&o.workload)).map_err(|e| format!("{path}: {e}"))?;
        println!("# chrome trace: {path}");
        let values: Vec<(&str, f64)> = LAYERS.iter().map(|&(n, _)| (n, layers.get(n))).collect();
        metrics_json(&values, &LAYERS)
    } else {
        let quiet_pass_ms = untraced.quiet_pass_ms();
        let values = [
            ("setup_s", stats::quiet(&setup_s)),
            (
                "pass_ms",
                if untraced.latency_p50.is_empty() {
                    quiet_pass_ms
                } else {
                    stats::quiet(&untraced.latency_p50)
                },
            ),
            ("work_per_s", untraced.work as f64 / (quiet_pass_ms / 1e3)),
            ("speedup_vs_seq", w.speedup_vs_seq()),
            ("peak_rss_mb", peak_rss_mb),
        ];
        if let Some((name, v)) = values.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(format!(
                "{name} = {v}: an end-to-end metric must be a positive number"
            ));
        }
        metrics_json(&values, &E2E)
    };
    Ok(Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]))
}

fn run_named(o: &Opts) -> Result<Json, String> {
    use workloads::{
        ddm_to_cell::DdmToCell, server_mix::ServerMix, sim, soft_coarse::SoftCoarse,
        soft_fine::SoftFine,
    };
    match o.workload.as_str() {
        "soft_coarse" => run(o, SoftCoarse::setup),
        "soft_fine" => run(o, SoftFine::setup),
        "server_mix" => run(o, ServerMix::setup),
        "sim_event_bound" => run(o, |seed, tr| {
            sim::Sim::setup(seed, tr, sim::EVENT_BOUND, sim::Unit::Events)
        }),
        "sim_mem_bound" => run(o, |seed, tr| {
            sim::Sim::setup(seed, tr, sim::MEM_BOUND, sim::Unit::Accesses)
        }),
        "ddm_to_cell" => run(o, DdmToCell::setup),
        other => unreachable!("parse_opts rejected {other}"),
    }
}

/// One workload in this process: header line, detail lines, result line.
fn run_single(o: &Opts) -> Result<(), String> {
    let head = header(o);
    println!("{}", head.render());
    let result = run_named(o)?;
    if let Some(path) = &o.out {
        let line = Json::obj([("header", head), ("result", result.clone())]).render();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(())
}

/// Every workload, each in a child process running this executable.
fn run_all(o: &Opts, args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in NAMES {
        let mut child_args = vec!["--workload".to_string(), name.to_string()];
        child_args.extend(args.iter().cloned());
        // `output` waits for the child to end
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            return Err(format!("{name}: exited with {}", out.status));
        }
        let last = text.lines().last().ok_or(format!("{name}: no output"))?;
        let result = Json::parse(last)?;
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        results.push((name, result));
    }
    println!(
        "{}",
        Json::obj([("header", header(o)), ("workloads", Json::obj(results))]).render()
    );
    if all_correct {
        Ok(())
    } else {
        Err("a workload reported a wrong result".into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().is_some_and(|a| a == "compare") {
        compare::main(&args[1..])
    } else {
        parse_opts(&args).and_then(|o| {
            if o.workload == "all" {
                // children get every argument but the workload
                let rest: Vec<String> = strip_flag(&args, "--workload");
                run_all(&o, &rest)
            } else {
                run_single(&o)
            }
        })
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `args` without `flag` and its value.
fn strip_flag(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            it.next();
        } else {
            out.push(a.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let o = parse_opts(&args(
            "--workload soft_fine --seed 42 --seconds 7 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("soft_fine", 42, 7, true)
        );
        let o = parse_opts(&[]).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("all", DEFAULT_SEED, 10, false)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn strip_flag_drops_flag_and_value() {
        assert_eq!(
            strip_flag(&args("--seed 3 --workload all --trace 0"), "--workload"),
            args("--seed 3 --trace 0")
        );
    }

    /// `BENCHMARK.json` is what the driver reads; the tables in
    /// `workloads/mod.rs` are what the binary prints. They must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str, unit_key: Option<&str>| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                    let unit = unit_key.map_or(String::new(), |u| {
                        m.get(u).and_then(Json::as_str).unwrap().to_string()
                    });
                    (name, unit)
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", Some("unit")), table(&E2E));
        assert_eq!(listed("per_layer", Some("unit")), table(&LAYERS));
        let names: Vec<String> = listed("workloads", None)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(DEFAULT_SECONDS))
        );
    }
}
