//! The benchmark's own spans around each layer call.
//!
//! A span has a layer name, the id of the loop or request it belongs
//! to (shared by every span of that operation), a parent (the span open
//! when it began), and start/end times. A disabled recorder keeps
//! nothing, so untraced runs pay one branch per call. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`tms`, `sim.spmt`, `daemon.process`, …).
    pub layer: &'static str,
    /// Loop or request id, shared by every span of that operation.
    pub id: u64,
    /// Recording thread (a Chrome `tid`).
    pub tid: u32,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
}

/// Handle of an open span (inert when recording is off).
#[must_use = "a span must be closed with Spans::end"]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder timing from `origin` as thread `tid`; `on = false`
    /// records nothing.
    pub fn new(on: bool, origin: Instant, tid: u32) -> Spans {
        Spans {
            on,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; children opened before [`Spans::end`] nest in it.
    pub fn begin(&mut self, layer: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            id,
            tid: self.tid,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(ix);
        Open(Some(ix))
    }

    /// Close a span opened by [`Spans::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(ix) = open.0 {
            debug_assert_eq!(self.open.last(), Some(&ix), "spans close innermost first");
            self.open.pop();
            self.spans[ix].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a leaf span.
    pub fn scope<R>(&mut self, layer: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, id);
        let r = f();
        self.end(open);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer totals: calls, inclusive seconds, self seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Sum of span durations.
    pub total_s: f64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_s: f64,
}

/// Aggregated per-layer times over any number of recorders.
#[derive(Debug, Clone, Default)]
pub struct LayerTable(pub BTreeMap<&'static str, LayerTime>);

impl LayerTable {
    /// Fold one recorder's spans in.
    pub fn add(&mut self, rec: &Spans) {
        let spans = rec.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = self.0.entry(s.layer).or_default();
            e.calls += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
    }

    /// Inclusive seconds of `layer` (0 when it never ran).
    pub fn total_s(&self, layer: &str) -> f64 {
        self.0.get(layer).map_or(0.0, |t| t.total_s)
    }

    /// The self-time table as text, heaviest layer first.
    pub fn render(&self, title: &str) -> String {
        let mut rows: Vec<_> = self.0.iter().collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        let all: f64 = rows.iter().map(|(_, t)| t.self_s).sum();
        let mut out = format!(
            "-- {title} --\n{:<18} {:>9} {:>11} {:>11} {:>7}\n",
            "layer", "calls", "total_s", "self_s", "self%"
        );
        for (layer, t) in rows {
            let share = if all > 0.0 {
                100.0 * t.self_s / all
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{layer:<18} {:>9} {:>11.4} {:>11.4} {share:>6.1}%",
                t.calls, t.total_s, t.self_s
            );
        }
        out
    }
}

/// Render recorders as a Chrome `trace_event` JSON document: one
/// complete (`"ph":"X"`) event per span, `args.id` carrying the loop or
/// request id. `pid` separates phases of a run (e.g. the wire run and
/// the in-process replay).
pub fn chrome_json(recorders: &[(u32, &Spans)]) -> String {
    let mut events = Vec::new();
    for (pid, rec) in recorders {
        for s in rec.spans() {
            events.push(format!(
                r#"{{"name":"{}","cat":"perfbench","ph":"X","ts":{:.3},"dur":{:.3},"pid":{pid},"tid":{},"args":{{"id":{}}}}}"#,
                s.layer,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
                s.tid,
                s.id
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Spans::new(true, Instant::now(), 0);
        let root = rec.begin("loop", 7);
        rec.scope("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        let mut table = LayerTable::default();
        table.add(&rec);
        let root = table.0["loop"];
        let child = table.0["child"];
        assert_eq!(child.calls, 1);
        assert!(child.total_s >= 0.002);
        assert!((root.total_s - root.self_s - child.total_s).abs() < 1e-9);
        assert!(rec.spans().iter().all(|s| s.id == 7));
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Spans::new(false, Instant::now(), 0);
        let open = rec.begin("loop", 1);
        rec.end(open);
        assert!(rec.spans().is_empty());
    }
}
