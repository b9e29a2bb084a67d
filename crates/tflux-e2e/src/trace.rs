//! In-memory spans around every call into a product layer.
//!
//! The spans live in the benchmark, not in the product crates: a span
//! covers one call through `api.rs`. With tracing off `span` is a plain
//! call, so the untraced run pays nothing; the traced run's slowdown is
//! reported as `trace_overhead_pct`.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Iteration (pass) of the workload the span belongs to.
    pub iter: u32,
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the part child spans cover.
    pub self_ns: u64,
}

impl Layer {
    /// Mean duration of one call, µs; 0 for a layer never entered.
    pub fn per_call_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    iter: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Spans recorded from here on belong to pass `iter`.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Run `f` inside a span called `name`; nested `span` calls made
    /// through the tracer handed to `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time = duration − time covered by
    /// direct children.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            l.calls += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Totals of the spans called `name`; zeros if there are none.
    pub fn layer(&self, name: &str) -> Layer {
        self.layers().get(name).copied().unwrap_or_default()
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond times),
    /// loadable in chrome://tracing or Perfetto.
    pub fn chrome_json(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::str(workload)),
                            ("iter", Json::Num(s.iter as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_iter(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|s| s.iter == 3 && s.end_ns >= s.start_ns));
        let layers = t.layers();
        assert_eq!(layers["inner"].calls, 2);
        assert_eq!(
            layers["outer"].self_ns,
            layers["outer"].total_ns - layers["inner"].total_ns
        );
        assert!(layers["inner"].total_ns >= 2_000_000);
    }

    #[test]
    fn chrome_json_parses_back() {
        let mut t = Tracer::new(true);
        t.span("a", |t| t.span("b", |_| ()));
        let doc = Json::parse(&t.chrome_json("w")).unwrap();
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[1].get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(ev[0].get("ph").unwrap().as_str(), Some("X"));
    }
}
