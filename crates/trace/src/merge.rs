//! Offline merge of spilled traces and sharded metrics.
//!
//! Two converters live here, both consuming files the exporters wrote:
//!
//! * **Spill → Chrome.** [`chrome_from_spills`] reads one-or-many
//!   `.trace.ndjson` spill files and renders the single Chrome
//!   `trace_event` document the in-memory sink would have produced for
//!   the same events — same sort, same renderer, byte-identical
//!   output. This is the `tms trace merge` backend.
//! * **Snapshot merge.** [`parse_snapshot`] reads the deterministic
//!   metrics slice back out of a snapshot (or full metrics) JSON, and
//!   [`merge_snapshot_files`] folds any number of per-shard files into
//!   one [`MetricsSnapshot`] — the `tms-verify merge-metrics` backend.
//!   Because snapshots are a commutative monoid, the merged report is
//!   byte-identical to a single-process run at any shard count.

use crate::error::TraceError;
use crate::sink::{Histogram, MetricsSnapshot};
use crate::stream::{exact_u64, parse_spill, parse_spill_lossy, OwnedEvent};
use serde_json::Value;
use std::path::Path;

fn read_file(p: &Path) -> Result<String, TraceError> {
    std::fs::read_to_string(p).map_err(|e| TraceError::io(p, e))
}

/// Parse every `.trace.ndjson` file in `paths` (in order) into one
/// event list. Within a file, spill order is recording order, so the
/// stable render sort reproduces the in-memory tie-breaking.
pub fn events_from_spills<P: AsRef<Path>>(paths: &[P]) -> Result<Vec<OwnedEvent>, TraceError> {
    let mut events = Vec::new();
    for p in paths {
        let p = p.as_ref();
        let text = read_file(p)?;
        events.extend(parse_spill(&text).map_err(|e| TraceError::malformed(p, e))?);
    }
    Ok(events)
}

/// Events recovered from one-or-many possibly-truncated spill files,
/// with a note per dropped tail.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillRecovery {
    /// Every event on a complete, valid line, in file-then-line order.
    pub events: Vec<OwnedEvent>,
    /// One `"<path>: <detail>"` note per truncated file (empty when all
    /// files were intact). Never silently dropped — callers print or
    /// record these.
    pub notes: Vec<String>,
}

/// Crash-tolerant variant of [`events_from_spills`]: each file's valid
/// prefix is recovered and a truncated final line (a killed process, a
/// torn write) is dropped and reported in
/// [`SpillRecovery::notes`] rather than failing the merge. Mid-file
/// corruption still errors — that is damage, not truncation.
pub fn events_from_spills_lossy<P: AsRef<Path>>(paths: &[P]) -> Result<SpillRecovery, TraceError> {
    let mut out = SpillRecovery {
        events: Vec::new(),
        notes: Vec::new(),
    };
    for p in paths {
        let p = p.as_ref();
        let text = read_file(p)?;
        let rec = parse_spill_lossy(&text).map_err(|e| TraceError::malformed(p, e))?;
        out.events.extend(rec.events);
        if let Some(note) = rec.truncated {
            out.notes.push(format!("{}: {note}", p.display()));
        }
    }
    Ok(out)
}

/// Render one-or-many spill files as a single Chrome `trace_event`
/// JSON document.
pub fn chrome_from_spills<P: AsRef<Path>>(paths: &[P]) -> Result<String, TraceError> {
    Ok(crate::chrome::render(&events_from_spills(paths)?))
}

/// [`chrome_from_spills`] over [`events_from_spills_lossy`]: renders
/// whatever survives truncation, returning the recovery notes next to
/// the document.
pub fn chrome_from_spills_lossy<P: AsRef<Path>>(
    paths: &[P],
) -> Result<(String, Vec<String>), TraceError> {
    let rec = events_from_spills_lossy(paths)?;
    Ok((crate::chrome::render(&rec.events), rec.notes))
}

fn histogram_from_json(name: &str, v: &Value) -> Result<Histogram, String> {
    let field = |key: &str| {
        v.get(key)
            .and_then(exact_u64)
            .ok_or_else(|| format!("histogram '{name}': missing '{key}'"))
    };
    let buckets = match v.get("buckets") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|pair| match pair {
                Value::Array(p) if p.len() == 2 => match (exact_u64(&p[0]), exact_u64(&p[1])) {
                    (Some(i), Some(n)) => Ok((i, n)),
                    _ => Err(format!("histogram '{name}': non-integer bucket pair")),
                },
                _ => Err(format!("histogram '{name}': malformed bucket pair")),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(format!("histogram '{name}': missing 'buckets'")),
    };
    Histogram::from_parts(
        field("count")?,
        field("sum")?,
        field("min")?,
        field("max")?,
        &buckets,
    )
    .map_err(|e| format!("histogram '{name}': {e}"))
}

/// Parse the deterministic metrics slice out of a snapshot JSON
/// ([`MetricsSnapshot::to_json`]) or a full metrics JSON
/// ([`crate::Trace::metrics_json`] — the `timers_ns` / `span_events`
/// sections are ignored).
pub fn parse_snapshot(text: &str) -> Result<MetricsSnapshot, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut snap = MetricsSnapshot::default();
    if let Some(counters) = doc.get("counters").and_then(Value::as_object) {
        for (k, v) in counters {
            let n =
                exact_u64(v).ok_or_else(|| format!("counter '{k}' is not an unsigned integer"))?;
            snap.counters.insert(k.clone(), n);
        }
    } else {
        return Err("missing 'counters' object".to_string());
    }
    if let Some(values) = doc.get("values").and_then(Value::as_object) {
        for (k, v) in values {
            snap.values.insert(k.clone(), histogram_from_json(k, v)?);
        }
    } else {
        return Err("missing 'values' object".to_string());
    }
    Ok(snap)
}

/// Read and fold any number of snapshot/metrics files into one merged
/// snapshot.
pub fn merge_snapshot_files<P: AsRef<Path>>(paths: &[P]) -> Result<MetricsSnapshot, TraceError> {
    let mut merged = MetricsSnapshot::default();
    for p in paths {
        let p = p.as_ref();
        let text = read_file(p)?;
        let snap = parse_snapshot(&text).map_err(|e| TraceError::malformed(p, e))?;
        merged.merge(&snap);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn record_run(t: &Trace, offset: u64) {
        for i in 0..40u64 {
            t.event_at(
                "sim.vthread",
                || format!("t{}", offset + i),
                i % 4,
                offset + i * 3,
                2,
                || vec![("thread", (offset + i).to_string())],
            );
            t.counter_sample("sim.vcounter", || "len".into(), 0, offset + i * 3, i % 7);
            t.count("n", 1);
            t.record("v", i);
        }
    }

    #[test]
    fn spill_merge_reproduces_in_memory_chrome_bytes() {
        let dir = std::env::temp_dir().join("tms_trace_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trace.ndjson");

        let mem = Trace::enabled();
        record_run(&mem, 0);
        let streamed = Trace::streaming(&path, 5).unwrap();
        record_run(&streamed, 0);
        streamed.flush().unwrap();

        assert!(streamed.spill_high_water() <= 5);
        let merged = chrome_from_spills(&[&path]).unwrap();
        assert_eq!(merged, mem.chrome_json(), "merge diverged from in-memory");
        assert_eq!(streamed.metrics(), mem.metrics());
        assert_eq!(streamed.snapshot_json(), mem.snapshot_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Trace::enabled();
        record_run(&t, 0);
        let snap = t.metrics();
        let back = parse_snapshot(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), snap.to_json());
        // The full metrics JSON parses to the same slice.
        let from_full = parse_snapshot(&t.metrics_json()).unwrap();
        assert_eq!(from_full, snap);
        // Counters are exact to the last bit of a u64.
        let t = Trace::enabled();
        t.count("max", u64::MAX);
        let back = parse_snapshot(&t.snapshot_json()).unwrap();
        assert_eq!(back.counters["max"], u64::MAX);
    }

    #[test]
    fn snapshot_files_merge_to_the_single_run() {
        let dir = std::env::temp_dir().join("tms_trace_merge_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let single = Trace::enabled();
        record_run(&single, 0);
        record_run(&single, 1000);

        let a = Trace::enabled();
        record_run(&a, 0);
        let b = Trace::enabled();
        record_run(&b, 1000);
        let pa = dir.join("a.json");
        let pb = dir.join("b.json");
        a.write_snapshot(&pa).unwrap();
        b.write_snapshot(&pb).unwrap();

        let ab = merge_snapshot_files(&[&pa, &pb]).unwrap();
        let ba = merge_snapshot_files(&[&pb, &pa]).unwrap();
        assert_eq!(ab.to_json(), single.snapshot_json());
        assert_eq!(
            ba.to_json(),
            single.snapshot_json(),
            "merge not commutative"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_snapshot_rejects_malformed_documents() {
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot("{\"counters\": {\"a\": \"x\"}}").is_err());
        assert!(parse_snapshot("{\"counters\": {}, \"values\": {\"h\": {\"count\": 1}}}").is_err());
        // A counter is an exact unsigned integer: not `1.0`, not `-1`.
        for bad in ["1.0", "-1", "1e0"] {
            let doc = format!("{{\"counters\": {{\"a\": {bad}}}, \"values\": {{}}}}");
            let err = parse_snapshot(&doc).unwrap_err();
            assert!(err.contains("counter 'a'"), "{bad}: {err}");
        }
        assert!(parse_snapshot("{\"counters\": {\"a\": 1}, \"values\": {}}").is_ok());
    }

    #[test]
    fn parse_snapshot_rejects_inverted_histogram_range() {
        // A histogram whose min exceeds its max is structurally
        // impossible for the recorder to produce; a hand-edited or
        // corrupted snapshot must fail at parse time rather than panic
        // later inside `percentile`'s clamp.
        let doc = "{\"counters\": {}, \"values\": {\"h\": \
                   {\"count\": 1, \"sum\": 7, \"min\": 9, \"max\": 3, \
                    \"buckets\": [[3, 1]]}}}";
        let err = parse_snapshot(doc).unwrap_err();
        assert!(err.contains("min 9 exceeds max 3"), "got: {err}");
    }

    #[test]
    fn sparse_and_empty_histograms_round_trip_and_merge() {
        // Sparse buckets: only the populated indices are serialized, so
        // a histogram with samples in two distant buckets exercises the
        // sparse-pair path through to `from_parts`.
        let t = Trace::enabled();
        t.record("sparse", 1);
        t.record("sparse", u64::MAX / 2);
        let snap = t.metrics();
        let back = parse_snapshot(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        let h = &back.values["sparse"];
        assert_eq!((h.p50(), h.count), (1, 2));

        // An empty histogram round-trips and is the merge identity.
        let empty = Histogram::from_parts(0, 0, 0, 0, &[]).unwrap();
        assert_eq!((empty.p50(), empty.p95(), empty.p99()), (0, 0, 0));
        let mut merged = empty;
        merged.merge(h);
        assert_eq!(&merged, h);
    }
}
