//! `sim_event_bound` and `sim_mem_bound`: host speed of the TFluxHard
//! simulator on two kinds of input.
//!
//! Why two: TRAPEZ Large is ~65 k events with almost no memory traffic
//! (~0.3 µs of host time per event, all in the event queue and the TSU
//! device replay), while MMULT/SUSAN/FFT Large spend their host time in
//! `memsys`, `cache` and trace generation (~10 µs per event). An
//! event-queue change must move the first and leave the second alone, and
//! a memory-system change the reverse.
//!
//! Oracle: the instance count of the program, cycles and events identical
//! on every run of the process, and both equal to the values pinned in
//! `expected.json`. A change meant only to speed the simulator up must
//! leave them alone; a change to the model re-pins them, as its own change.

use super::{pinned, ratio, timed, LayerMetrics, Pass, Workload};
use crate::api::{self, Bench, DdmProgram, Machine, SimCounters, SimMachine, SimSource, SizeClass};
use crate::gen::Rng;
use crate::stats::geomean;
use crate::trace::Tracer;
use std::time::Duration;

/// Which counter is a workload's unit of work.
#[derive(Clone, Copy, PartialEq)]
pub enum Unit {
    Events,
    Accesses,
}

pub const EVENT_BOUND: &[(Bench, SimMachine)] = &[
    (Bench::Trapez, SimMachine::Bagle),
    (Bench::Trapez, SimMachine::Sparc),
];

pub const MEM_BOUND: &[(Bench, SimMachine)] = &[
    (Bench::Mmult, SimMachine::Bagle),
    (Bench::Susan, SimMachine::Bagle),
    (Bench::Susan, SimMachine::Sparc),
    (Bench::Fft, SimMachine::Bagle),
    (Bench::Fft, SimMachine::Sparc),
];

const SIZE: SizeClass = SizeClass::Large;

struct Case {
    /// `<bench>.<machine>`, as in the metric names and `expected.json`.
    key: String,
    machine: Machine,
    program: DdmProgram,
    source: SimSource,
    /// Pinned `(cycles, events)`.
    pinned: Option<(u64, u64)>,
    first: Option<SimCounters>,
    host: Duration,
    runs: u64,
}

pub struct Sim {
    unit: Unit,
    cases: Vec<Case>,
}

fn bench_key(b: Bench) -> &'static str {
    match b {
        Bench::Trapez => "trapez",
        Bench::Mmult => "mmult",
        Bench::Qsort => "qsort",
        Bench::Susan => "susan",
        Bench::Fft => "fft",
    }
}

impl Sim {
    pub fn setup(
        seed: u64,
        tr: &mut Tracer,
        cases: &[(Bench, SimMachine)],
        unit: Unit,
    ) -> Result<Self, String> {
        let mut cases: Vec<Case> = cases
            .iter()
            .map(|&(bench, m)| {
                let key = format!("{}.{}", bench_key(bench), m.name());
                let (program, source) = tr.span("workloads.sim_setup", |_| {
                    api::sim_setup(bench, m.kernels(), SIZE)
                });
                Case {
                    pinned: pinned(&["sim", &key, "cycles"]).zip(pinned(&["sim", &key, "events"])),
                    key,
                    machine: m.build(),
                    program,
                    source,
                    first: None,
                    host: Duration::ZERO,
                    runs: 0,
                }
            })
            .collect();
        // the simulated inputs are fixed by the product crate; the seed
        // decides the order the cases run in
        Rng::new(seed).shuffle(&mut cases);
        Ok(Sim { unit, cases })
    }

    /// The sequential baseline of every case.
    fn sequential(&self, tr: &mut Tracer) -> Vec<SimCounters> {
        self.cases
            .iter()
            .map(|c| {
                tr.span("sim.machine.run_sequential", |_| {
                    api::sim_run_sequential(&c.machine, &c.program, &c.source)
                })
            })
            .collect()
    }
}

impl Workload for Sim {
    fn passes_per_10s(&self) -> u32 {
        match self.unit {
            Unit::Events => 500,
            Unit::Accesses => 14,
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for c in &mut self.cases {
            let (r, host) = timed(|| {
                tr.span("sim.machine.run", |_| {
                    api::sim_run(&c.machine, &c.program, &c.source)
                })
            });
            pass.part(host);
            let Ok(r) = r else {
                pass.check(false);
                continue;
            };
            let first = *c.first.get_or_insert(r);
            pass.check(
                r.instances == c.program.total_instances() as u64
                    && r == first
                    && c.pinned.is_none_or(|p| p == (r.cycles, r.events)),
            );
            c.host += host;
            c.runs += 1;
            pass.work += match self.unit {
                Unit::Events => r.events,
                Unit::Accesses => r.accesses,
            };
        }
        pass
    }

    /// Geometric mean over the cases of sequential-baseline cycles over
    /// parallel cycles: simulated time, so it repeats exactly and moves
    /// only when the model does.
    fn speedup_vs_seq(&mut self) -> f64 {
        let seq = self.sequential(&mut Tracer::new(false));
        let ratios: Vec<f64> = self
            .cases
            .iter()
            .zip(&seq)
            .filter_map(|(c, s)| c.first.map(|p| s.cycles as f64 / p.cycles as f64))
            .collect();
        geomean(&ratios)
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut LayerMetrics) {
        let seq = self.sequential(tr);
        let mut gen_accesses = 0u64;
        for c in &self.cases {
            gen_accesses += tr.span("workloads.trace_gen", |_| {
                api::trace_gen(&c.program, &c.source)
            });
        }
        let (mut host_ns, mut tot, mut per_pass) = (0.0, SimCounters::default(), 0u64);
        for c in &self.cases {
            let Some(r) = c.first else { continue };
            host_ns += c.host.as_nanos() as f64;
            let n = c.runs;
            tot.events += r.events * n;
            tot.instances += r.instances * n;
            tot.accesses += r.accesses * n;
            tot.l1_hits += r.l1_hits * n;
            tot.remote_hits += r.remote_hits * n;
            tot.dev_commands += r.dev_commands * n;
            tot.dev_empty_fetches += r.dev_empty_fetches * n;
            per_pass += r.instances;
            out.set(&format!("sim.cycles.{}", c.key), r.cycles as f64);
            out.set(&format!("sim.events.{}", c.key), r.events as f64);
        }
        let seq_accesses: u64 = seq.iter().map(|s| s.accesses).sum();
        let span_ns = |name: &str| tr.layer(name).total_ns as f64;
        out.set("core.total_instances", per_pass as f64);
        out.set(
            "sim.machine.host_ns_per_event",
            ratio(host_ns, tot.events as f64),
        );
        out.set(
            "sim.tsu_dev.commands_per_instance",
            ratio(tot.dev_commands as f64, tot.instances as f64),
        );
        out.set(
            "sim.tsu_dev.empty_fetch_ratio",
            ratio(tot.dev_empty_fetches as f64, tot.dev_commands as f64),
        );
        out.set(
            "sim.memsys.host_ns_per_access",
            ratio(host_ns, tot.accesses as f64),
        );
        out.set(
            "sim.memsys.seq_host_ns_per_access",
            ratio(span_ns("sim.machine.run_sequential"), seq_accesses as f64),
        );
        out.set(
            "sim.memsys.l1_hit_ratio",
            ratio(tot.l1_hits as f64, tot.accesses as f64),
        );
        out.set(
            "sim.memsys.coherency_ratio",
            ratio(tot.remote_hits as f64, tot.accesses as f64),
        );
        out.set(
            "workloads.trace_gen_ns_per_access",
            ratio(span_ns("workloads.trace_gen"), gen_accesses as f64),
        );
        out.set(
            "workloads.setup_us",
            tr.layer("workloads.sim_setup").per_call_us(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_bound_cases_repeat_exactly_and_match_their_pins() {
        let tr = &mut Tracer::new(false);
        let mut w = Sim::setup(1, tr, EVENT_BOUND, Unit::Events).unwrap();
        assert!(
            w.cases.iter().all(|c| c.pinned.is_some()),
            "expected.json pins every case"
        );
        for _ in 0..2 {
            let p = w.pass(tr);
            assert_eq!((p.attempted, p.failed, p.parts_ms.len()), (2, 0, 2));
            assert!(p.work > 100_000);
        }
        assert!(w.speedup_vs_seq() > 10.0);
        // a moved pin is a failed check
        w.cases[0].pinned = w.cases[0].pinned.map(|(c, e)| (c + 1, e));
        assert_eq!(w.pass(tr).failed, 1);
    }

    #[test]
    fn every_mem_bound_case_is_pinned() {
        let w = Sim::setup(1, &mut Tracer::new(false), MEM_BOUND, Unit::Accesses).unwrap();
        assert_eq!(
            w.cases.iter().filter(|c| c.pinned.is_some()).count(),
            MEM_BOUND.len()
        );
    }
}
