//! Execution traces: per-instance (core, start, end) spans recorded during
//! a simulation, with a text Gantt renderer — the tooling equivalent of
//! watching the paper's Fig. 2 kernel loop run.

use std::fmt::Write as _;
use tflux_core::ids::Instance;
use tflux_core::program::DdmProgram;
use tflux_core::thread::ThreadKind;

/// One executed instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The core that executed it.
    pub core: u32,
    /// The instance.
    pub instance: Instance,
    /// First cycle of the body.
    pub start: u64,
    /// Completion cycle.
    pub end: u64,
}

/// The full trace of one simulated run.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// Spans in completion order.
    pub spans: Vec<Span>,
}

impl ExecTrace {
    /// Record a span (called by the machine).
    pub(crate) fn record(&mut self, core: u32, instance: Instance, start: u64, end: u64) {
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

    /// Last completion cycle.
    pub fn end_cycle(&self) -> u64 {
        self.spans.iter().map(|s| s.end).max().unwrap_or(0)
    }

    /// The longest span (often the serialization culprit).
    pub fn longest(&self) -> Option<Span> {
        self.spans.iter().copied().max_by_key(|s| s.end - s.start)
    }

    /// Busy cycles per core.
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
        let mut cores: std::collections::HashMap<u32, Vec<Span>> = Default::default();
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

    /// Aggregate busy cycles and instance counts per thread template —
    /// "which DThread is the bottleneck" at a glance. Returns
    /// `(name, instances, total_cycles, max_span_cycles)` rows sorted by
    /// total cycles, descending.
    pub fn per_template(&self, program: &DdmProgram) -> Vec<(String, usize, u64, u64)> {
        use std::collections::HashMap;
        let mut agg: HashMap<tflux_core::ids::ThreadId, (usize, u64, u64)> = HashMap::new();
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

    /// Render a text Gantt chart: one row per core, `width` columns over
    /// the run's duration. App instances print as `#`, inlets/outlets as
    /// `|`, idle as `.`.
    pub fn gantt(&self, program: &DdmProgram, cores: u32, width: usize) -> String {
        let total = self.end_cycle().max(1);
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
        let _ = writeln!(out, "cycles 0..{total} ({} spans)", self.spans.len());
        for (i, row) in rows.into_iter().enumerate() {
            let _ = writeln!(out, "core {i:>2} [{}]", String::from_utf8_lossy(&row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::ids::{Context, ThreadId};
    use tflux_core::prelude::*;

    fn prog() -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", 4));
        b.build().unwrap()
    }

    fn span(core: u32, t: u32, start: u64, end: u64) -> Span {
        Span {
            core,
            instance: Instance::new(ThreadId(t), Context(0)),
            start,
            end,
        }
    }

    #[test]
    fn busy_and_longest() {
        let mut tr = ExecTrace::default();
        tr.record(0, Instance::new(ThreadId(0), Context(0)), 0, 100);
        tr.record(1, Instance::new(ThreadId(0), Context(1)), 10, 250);
        assert_eq!(tr.core_busy(2), vec![100, 240]);
        assert_eq!(tr.longest().unwrap().end, 250);
        assert_eq!(tr.end_cycle(), 250);
    }

    #[test]
    fn overlap_detection() {
        let mut tr = ExecTrace::default();
        tr.spans.push(span(0, 0, 0, 100));
        tr.spans.push(span(0, 0, 50, 150)); // overlaps on core 0
        assert!(tr.find_overlap().is_some());
        let mut ok = ExecTrace::default();
        ok.spans.push(span(0, 0, 0, 100));
        ok.spans.push(span(0, 0, 100, 150));
        ok.spans.push(span(1, 0, 0, 150));
        assert!(ok.find_overlap().is_none());
    }

    #[test]
    fn gantt_renders_rows() {
        let p = prog();
        let mut tr = ExecTrace::default();
        tr.record(0, Instance::new(ThreadId(0), Context(0)), 0, 500);
        tr.record(1, Instance::new(ThreadId(0), Context(1)), 500, 1000);
        let g = tr.gantt(&p, 2, 40);
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
        let mut tr = ExecTrace::default();
        tr.record(0, Instance::new(ThreadId(0), Context(0)), 0, 100);
        tr.record(1, Instance::new(ThreadId(0), Context(1)), 0, 300);
        tr.record(0, Instance::scalar(p.blocks()[0].inlet), 0, 10);
        let rows = tr.per_template(&p);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "w");
        assert_eq!(rows[0].1, 2); // instances
        assert_eq!(rows[0].2, 400); // total cycles
        assert_eq!(rows[0].3, 300); // max span
        assert_eq!(rows[1].0, "inlet.B0");
    }

    #[test]
    fn inlets_render_as_bars() {
        let p = prog();
        let inlet = p.blocks()[0].inlet;
        let mut tr = ExecTrace::default();
        tr.record(0, Instance::scalar(inlet), 0, 100);
        let g = tr.gantt(&p, 1, 20);
        assert!(g.contains('|'));
    }
}
