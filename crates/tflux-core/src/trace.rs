//! Execution traces: per-instance (executor, start, end) spans, recorded in
//! simulated cycles by the simulator and in wall-clock nanoseconds by the
//! threaded runtime, with a text Gantt renderer — the tooling equivalent of
//! watching the paper's Fig. 2 kernel loop run.

use crate::ids::{Instance, ThreadId};
use crate::program::DdmProgram;
use crate::thread::ThreadKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One executed instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The core (simulator) or kernel (runtime) that executed it.
    pub core: u32,
    /// The instance.
    pub instance: Instance,
    /// When the body started, in the trace's unit.
    pub start: u64,
    /// When the body finished, in the trace's unit.
    pub end: u64,
}

/// The full trace of one run.
#[derive(Clone, Debug)]
pub struct ExecTrace {
    /// What `start` and `end` count: `"cycles"` or `"ns"`.
    pub unit: &'static str,
    /// Spans in completion order.
    pub spans: Vec<Span>,
}

impl ExecTrace {
    /// An empty trace whose times count `unit`.
    pub fn new(unit: &'static str) -> Self {
        ExecTrace {
            unit,
            spans: Vec::new(),
        }
    }

    /// Record a span.
    pub fn record(&mut self, core: u32, instance: Instance, start: u64, end: u64) {
        self.spans.push(Span {
            core,
            instance,
            start,
            end,
        });
    }

    /// Total spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The last span's end.
    pub fn end(&self) -> u64 {
        self.spans.iter().map(|s| s.end).max().unwrap_or(0)
    }

    /// The longest span (often the serialization culprit).
    pub fn longest(&self) -> Option<Span> {
        self.spans.iter().copied().max_by_key(|s| s.end - s.start)
    }

    /// Busy time per core.
    pub fn core_busy(&self, cores: u32) -> Vec<u64> {
        let mut busy = vec![0u64; cores as usize];
        for s in &self.spans {
            if let Some(b) = busy.get_mut(s.core as usize) {
                *b += s.end - s.start;
            }
        }
        busy
    }

    /// Verify the trace is physically consistent: no core executes two
    /// instances at once. Returns the first overlap found.
    pub fn find_overlap(&self) -> Option<(Span, Span)> {
        let mut cores: HashMap<u32, Vec<Span>> = HashMap::new();
        for s in &self.spans {
            cores.entry(s.core).or_default().push(*s);
        }
        for spans in cores.values_mut() {
            spans.sort_by_key(|s| s.start);
            for w in spans.windows(2) {
                if w[1].start < w[0].end {
                    return Some((w[0], w[1]));
                }
            }
        }
        None
    }

    /// Aggregate busy time and instance counts per thread template —
    /// "which DThread is the bottleneck" at a glance. Returns
    /// `(name, instances, total, max_span)` rows sorted by total,
    /// descending.
    pub fn per_template(&self, program: &DdmProgram) -> Vec<(String, usize, u64, u64)> {
        let mut agg: HashMap<ThreadId, (usize, u64, u64)> = HashMap::new();
        for s in &self.spans {
            let e = agg.entry(s.instance.thread).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 = e.2.max(s.end - s.start);
        }
        let mut rows: Vec<_> = agg
            .into_iter()
            .map(|(t, (n, total, max))| (program.thread(t).name.clone(), n, total, max))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }

    /// Render a text Gantt chart: a header naming the time unit, then one
    /// row per core, `width` columns over the run's duration. App
    /// instances print as `#`, inlets/outlets as `|`, idle as `.`.
    pub fn gantt(&self, program: &DdmProgram, cores: u32, width: usize) -> String {
        let total = self.end().max(1);
        let width = width.max(10);
        let mut rows = vec![vec![b'.'; width]; cores as usize];
        for s in &self.spans {
            let Some(row) = rows.get_mut(s.core as usize) else {
                continue;
            };
            let c = match program.thread(s.instance.thread).kind {
                ThreadKind::App => b'#',
                ThreadKind::Inlet | ThreadKind::Outlet => b'|',
            };
            let lo = (s.start as u128 * width as u128 / total as u128) as usize;
            let hi = ((s.end as u128 * width as u128).div_ceil(total as u128) as usize)
                .min(width)
                .max(lo + 1);
            for cell in &mut row[lo..hi.min(width)] {
                *cell = c;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} 0..{total} ({} spans)", self.unit, self.spans.len());
        for (i, row) in rows.into_iter().enumerate() {
            let _ = writeln!(out, "core {i:>2} [{}]", String::from_utf8_lossy(&row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Context;
    use crate::prelude::*;

    fn prog() -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", 4));
        b.build().unwrap()
    }

    fn inst(t: u32, c: u32) -> Instance {
        Instance::new(ThreadId(t), Context(c))
    }

    #[test]
    fn busy_and_longest() {
        let mut tr = ExecTrace::new("cycles");
        tr.record(0, inst(0, 0), 0, 100);
        tr.record(1, inst(0, 1), 10, 250);
        assert_eq!(tr.core_busy(2), vec![100, 240]);
        assert_eq!(tr.longest().unwrap().end, 250);
        assert_eq!(tr.end(), 250);
    }

    #[test]
    fn overlap_detection() {
        let mut tr = ExecTrace::new("cycles");
        tr.record(0, inst(0, 0), 0, 100);
        tr.record(0, inst(0, 0), 50, 150); // overlaps on core 0
        assert!(tr.find_overlap().is_some());
        let mut ok = ExecTrace::new("cycles");
        ok.record(0, inst(0, 0), 0, 100);
        ok.record(0, inst(0, 0), 100, 150);
        ok.record(1, inst(0, 0), 0, 150);
        assert!(ok.find_overlap().is_none());
    }

    #[test]
    fn gantt_renders_rows() {
        let p = prog();
        let mut tr = ExecTrace::new("ns");
        tr.record(0, inst(0, 0), 0, 500);
        tr.record(1, inst(0, 1), 500, 1000);
        let g = tr.gantt(&p, 2, 40);
        // the header names the unit
        assert!(g.starts_with("ns 0..1000 (2 spans)"), "{g}");
        assert!(g.contains("core  0"));
        assert!(g.contains("core  1"));
        assert!(g.contains('#'));
        assert!(g.contains('.'));
        // core 0 busy early, core 1 late
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[1].starts_with("core  0 [#"));
        assert!(lines[2].contains(".#") || lines[2].ends_with("#]"));
    }

    #[test]
    fn per_template_aggregates_and_sorts() {
        let p = prog();
        let mut tr = ExecTrace::new("cycles");
        tr.record(0, inst(0, 0), 0, 100);
        tr.record(1, inst(0, 1), 0, 300);
        tr.record(0, Instance::scalar(p.blocks()[0].inlet), 0, 10);
        let rows = tr.per_template(&p);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "w");
        assert_eq!(rows[0].1, 2); // instances
        assert_eq!(rows[0].2, 400); // total
        assert_eq!(rows[0].3, 300); // max span
        assert_eq!(rows[1].0, "inlet.B0");
    }

    #[test]
    fn inlets_render_as_bars() {
        let p = prog();
        let inlet = p.blocks()[0].inlet;
        let mut tr = ExecTrace::new("cycles");
        tr.record(0, Instance::scalar(inlet), 0, 100);
        let g = tr.gantt(&p, 1, 20);
        assert!(g.contains('|'));
    }
}
