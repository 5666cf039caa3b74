//! The `.trace.ndjson` spill format: one event per line, newline-
//! delimited JSON.
//!
//! A [`crate::Trace::streaming`] sink writes completed events here as
//! its bounded buffer fills, so a traced `--specfp-cap 0` sweep never
//! holds more than the buffer cap of span events in memory. Each line
//! is a self-contained JSON object in Chrome-adjacent terms:
//!
//! ```json
//! {"ph":"X","cat":"sweep","name":"kernels","tid":0,"ts":12,"dur":3400,"args":{"loops":"18"}}
//! {"ph":"C","cat":"sim.vcounter","name":"sim.prune.log_len","tid":0,"ts":96,"args":{"value":7}}
//! ```
//!
//! `pid` is not stored — it is a pure function of `cat` (see
//! [`crate::chrome::pid_of_cat`]) and is re-derived at render time.
//! Span (`"ph":"X"`) args are strings; counter (`"ph":"C"`) args are
//! unsigned integers, the same distinction the Chrome exporter makes.
//! [`parse_line`] inverts [`write_ndjson_line`] exactly, which is what
//! lets `tms trace merge` reproduce the in-memory exporter's bytes.

use crate::json::{push_u64, write_str};
use crate::sink::{Event, EventPhase};
use serde_json::Value;

/// An event parsed back from a spill file — same shape as
/// [`Event`] with owned strings.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Chrome phase.
    pub ph: EventPhase,
    /// Category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Track (`tid`).
    pub track: u64,
    /// Timestamp (µs or cycles).
    pub ts_us: u64,
    /// Duration (µs or cycles); 0 for counters.
    pub dur_us: u64,
    /// Annotations in recording order. Counter values are canonical
    /// decimal integers.
    pub args: Vec<(String, String)>,
}

impl crate::chrome::ChromeEvent for OwnedEvent {
    fn phase(&self) -> EventPhase {
        self.ph
    }
    fn cat(&self) -> &str {
        &self.cat
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn track(&self) -> u64 {
        self.track
    }
    fn ts_us(&self) -> u64 {
        self.ts_us
    }
    fn dur_us(&self) -> u64 {
        self.dur_us
    }
    fn args(&self) -> impl Iterator<Item = (&str, &str)> {
        self.args.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// Append `ev` as one ndjson line (including the trailing newline).
pub fn write_ndjson_line(out: &mut String, ev: &Event) {
    match ev.ph {
        EventPhase::Complete => out.push_str("{\"ph\":\"X\",\"cat\":"),
        EventPhase::Counter => out.push_str("{\"ph\":\"C\",\"cat\":"),
    }
    write_str(out, ev.cat);
    out.push_str(",\"name\":");
    write_str(out, &ev.name);
    out.push_str(",\"tid\":");
    push_u64(out, ev.track);
    out.push_str(",\"ts\":");
    push_u64(out, ev.ts_us);
    if ev.ph == EventPhase::Complete {
        out.push_str(",\"dur\":");
        push_u64(out, ev.dur_us);
    }
    out.push_str(",\"args\":{");
    for (j, (k, v)) in ev.args.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        if ev.ph == EventPhase::Counter {
            out.push_str(v);
        } else {
            write_str(out, v);
        }
    }
    out.push_str("}}\n");
}

/// An exact unsigned integer — the only number shape the exporters
/// write. `Value::as_u64` is not strict enough: it also takes `1.0`.
pub(crate) fn exact_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::UInt(n) => Some(n),
        Value::Int(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

fn field_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(exact_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

/// Parse one spill line back into an [`OwnedEvent`].
pub fn parse_line(line: &str) -> Result<OwnedEvent, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let ph = match v.get("ph").and_then(Value::as_str) {
        Some("X") => EventPhase::Complete,
        Some("C") => EventPhase::Counter,
        other => return Err(format!("bad ph {other:?}")),
    };
    let cat = v
        .get("cat")
        .and_then(Value::as_str)
        .ok_or("missing 'cat'")?
        .to_string();
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing 'name'")?
        .to_string();
    let track = field_u64(&v, "tid")?;
    let ts_us = field_u64(&v, "ts")?;
    let dur_us = match ph {
        EventPhase::Complete => field_u64(&v, "dur")?,
        EventPhase::Counter => 0,
    };
    let args_obj = v
        .get("args")
        .and_then(Value::as_object)
        .ok_or("missing 'args' object")?;
    let mut args = Vec::with_capacity(args_obj.len());
    for (k, val) in args_obj {
        let rendered = match (ph, val) {
            (EventPhase::Complete, Value::Str(s)) => Some(s.clone()),
            (EventPhase::Counter, n) => exact_u64(n).map(|n| n.to_string()),
            _ => None,
        };
        let rendered = rendered.ok_or_else(|| format!("arg '{k}' has the wrong type for ph"))?;
        args.push((k.clone(), rendered));
    }
    Ok(OwnedEvent {
        ph,
        cat,
        name,
        track,
        ts_us,
        dur_us,
        args,
    })
}

/// Parse a whole spill file (empty lines are not produced and not
/// accepted). Errors carry the 1-based line number.
pub fn parse_spill(text: &str) -> Result<Vec<OwnedEvent>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| parse_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Outcome of [`parse_spill_lossy`]: the recovered events plus a note
/// about the dropped tail, if the file was truncated.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSpill {
    /// Every event on a complete, valid line.
    pub events: Vec<OwnedEvent>,
    /// Human-readable description of the dropped final line (`None`
    /// when the file was fully intact).
    pub truncated: Option<String>,
}

/// Crash-tolerant spill parse. The sink writes line-atomically, so a
/// killed process (or an injected torn write) damages at most the
/// **final** line of the file: this parser recovers the valid prefix
/// and reports the dropped tail instead of failing the whole file. A
/// bad line anywhere *before* the end is not a truncation artefact —
/// that stays a hard error, as in [`parse_spill`].
pub fn parse_spill_lossy(text: &str) -> Result<RecoveredSpill, String> {
    let total = text.lines().count();
    let mut events = Vec::with_capacity(total);
    for (i, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) if i + 1 == total => {
                return Ok(RecoveredSpill {
                    events,
                    truncated: Some(format!(
                        "dropped truncated final line {} ({} byte(s): {e})",
                        i + 1,
                        line.len()
                    )),
                });
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(RecoveredSpill {
        events,
        truncated: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, args: Vec<(&'static str, String)>) -> Event {
        Event {
            ph: EventPhase::Complete,
            cat: "sweep",
            name: name.to_string(),
            track: 3,
            ts_us: 10,
            dur_us: 20,
            args,
        }
    }

    #[test]
    fn spans_round_trip_exactly() {
        // Every escape `write_str` emits, read back through serde_json.
        let ev = span(
            "ker\"nel\n\r\t\u{1}",
            vec![("loops", "18".into()), ("k", "v\\x".into())],
        );
        let mut line = String::new();
        write_ndjson_line(&mut line, &ev);
        assert!(line.ends_with('\n'));
        let back = parse_line(line.trim_end()).unwrap();
        assert_eq!(back.ph, EventPhase::Complete);
        assert_eq!(back.cat, "sweep");
        assert_eq!(back.name, "ker\"nel\n\r\t\u{1}");
        assert_eq!((back.track, back.ts_us, back.dur_us), (3, 10, 20));
        assert_eq!(
            back.args,
            vec![
                ("loops".to_string(), "18".to_string()),
                ("k".to_string(), "v\\x".to_string())
            ]
        );
    }

    #[test]
    fn counters_round_trip_with_numeric_args() {
        let ev = Event {
            ph: EventPhase::Counter,
            cat: "sim.vcounter",
            name: "sim.prune.log_len".to_string(),
            track: 0,
            ts_us: 96,
            dur_us: 0,
            args: vec![("value", "7".to_string())],
        };
        let mut line = String::new();
        write_ndjson_line(&mut line, &ev);
        assert!(line.contains("\"args\":{\"value\":7}"));
        assert!(!line.contains("\"dur\""));
        let back = parse_line(line.trim_end()).unwrap();
        assert_eq!(back.ph, EventPhase::Counter);
        assert_eq!(back.args, vec![("value".to_string(), "7".to_string())]);
        // Counter args and numeric fields are exact unsigned integers.
        for bad in ["{\"value\":7.0}", "{\"value\":-1}", "{\"value\":\"7\"}"] {
            let text = line.trim_end().replace("{\"value\":7}", bad);
            assert!(parse_line(&text).is_err(), "{text}");
        }
        for bad in ["\"ts\":96.0", "\"ts\":-1", "\"ts\":1e2"] {
            let text = line.trim_end().replace("\"ts\":96", bad);
            assert!(parse_line(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn lossy_parse_recovers_the_valid_prefix() {
        let ev = span("a", vec![("k", "v".into())]);
        let mut text = String::new();
        write_ndjson_line(&mut text, &ev);
        write_ndjson_line(&mut text, &ev);
        let whole_len = text.len();
        write_ndjson_line(&mut text, &ev);
        // Tear the final line mid-frame, as a killed process would.
        let torn = &text[..whole_len + 20];
        assert!(parse_spill(torn).is_err(), "strict parse must reject");
        let rec = parse_spill_lossy(torn).unwrap();
        assert_eq!(rec.events.len(), 2);
        let note = rec.truncated.expect("truncation must be reported");
        assert!(note.contains("line 3"), "{note}");

        // An intact file recovers everything with no note.
        let rec = parse_spill_lossy(&text).unwrap();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.truncated, None);
        assert_eq!(parse_spill_lossy("").unwrap().events.len(), 0);
    }

    #[test]
    fn lossy_parse_still_rejects_mid_file_corruption() {
        let ev = span("a", vec![]);
        let mut text = String::from("{\"ph\":\"X\"}\n");
        write_ndjson_line(&mut text, &ev);
        let err = parse_spill_lossy(&text).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse_spill(&"[".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn parse_spill_reports_line_numbers() {
        let err = parse_spill("{\"ph\":\"X\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let ev = span("a", vec![]);
        let mut text = String::new();
        write_ndjson_line(&mut text, &ev);
        write_ndjson_line(&mut text, &ev);
        assert_eq!(parse_spill(&text).unwrap().len(), 2);
    }
}
