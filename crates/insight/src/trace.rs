//! Reads a Chrome-trace JSON document (the `--trace FILE` output of the
//! serving engine) back into [`flat_telemetry::Event`]s, the record the
//! producers write, plus the argument lookups attribution needs.
//!
//! The reader lives here rather than in `flat-telemetry` because parsing
//! needs `serde_json`, and the telemetry crate depends on std alone.

use flat_telemetry::{ArgValue, Event, EventPhase};
use std::borrow::Cow;

/// The integer argument `key`, accepting integral floats (the JSON
/// round trip may widen).
pub(crate) fn arg_u64(e: &Event, key: &str) -> Option<u64> {
    arg(e, key).and_then(|v| match v {
        ArgValue::U64(u) => Some(*u),
        ArgValue::F64(f) if f.is_finite() && *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
        _ => None,
    })
}

/// The string argument `key`.
pub(crate) fn arg_str<'e>(e: &'e Event, key: &str) -> Option<&'e str> {
    arg(e, key).and_then(|v| match v {
        ArgValue::Str(s) => Some(s.as_str()),
        _ => None,
    })
}

/// Whether the event carries argument `key` at all.
pub(crate) fn has_arg(e: &Event, key: &str) -> bool {
    arg(e, key).is_some()
}

fn arg<'e>(e: &'e Event, key: &str) -> Option<&'e ArgValue> {
    e.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a Chrome trace JSON document into events.
///
/// Tolerant of the exporter's lossy spots: non-finite numeric arguments
/// are serialized as strings (`"NaN"`) and parse back as strings;
/// `dur` was clamped to ≥ 1 ns on export. Events missing any of the
/// required `name`/`ph`/`ts`/`pid`/`tid` fields are rejected with a
/// description rather than skipped — a malformed document should be
/// loud, not quietly half-analyzed. Well-formed events whose `ph` is
/// none of `B/E/X/C/i/M` (keyed on its first character) are skipped:
/// no analysis reads them.
///
/// # Errors
///
/// Returns a description of the first malformed construct: unparseable
/// JSON, a missing `traceEvents` array, or an event missing required
/// fields.
pub(crate) fn parse_chrome_trace(text: &str) -> Result<Vec<Event>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "missing \"traceEvents\" array (not a Chrome trace document)".to_owned())?;
    events
        .iter()
        .enumerate()
        .filter_map(|(i, ev)| {
            parse_event(ev)
                .map_err(|e| format!("traceEvents[{i}]: {e}"))
                .transpose()
        })
        .collect()
}

fn parse_event(ev: &serde_json::Value) -> Result<Option<Event>, String> {
    let name = ev
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or("missing \"name\"")?
        .to_owned();
    let cat = ev
        .get("cat")
        .and_then(|v| v.as_str())
        .unwrap_or("")
        .to_owned();
    let ph = ev
        .get("ph")
        .and_then(|v| v.as_str())
        .and_then(|s| s.chars().next())
        .ok_or("missing \"ph\"")?;
    let ts_us = ev
        .get("ts")
        .and_then(|v| v.as_f64())
        .ok_or("missing \"ts\"")?;
    let pid = ev
        .get("pid")
        .and_then(|v| v.as_u64())
        .ok_or("missing \"pid\"")?;
    let pid = u32::try_from(pid).map_err(|_| "\"pid\" exceeds u32".to_owned())?;
    let tid = ev
        .get("tid")
        .and_then(|v| v.as_u64())
        .ok_or("missing \"tid\"")?;
    let ph = match ph {
        'B' => EventPhase::Begin,
        'E' => EventPhase::End,
        'X' => EventPhase::Complete {
            dur_us: ev.get("dur").and_then(|v| v.as_f64()).unwrap_or(0.0),
        },
        'C' => EventPhase::Counter,
        'i' => EventPhase::Instant,
        'M' => EventPhase::Metadata,
        _ => return Ok(None),
    };
    let args = match ev.get("args").and_then(|v| v.as_object()) {
        None => Vec::new(),
        Some(map) => map
            .iter()
            .map(|(k, v)| {
                let value = if let Some(u) = v.as_u64() {
                    ArgValue::U64(u)
                } else if let Some(f) = v.as_f64() {
                    ArgValue::F64(f)
                } else {
                    ArgValue::Str(v.as_str().unwrap_or_default().to_owned())
                };
                (Cow::Owned(k.clone()), value)
            })
            .collect(),
    };
    Ok(Some(Event {
        name,
        cat: Cow::Owned(cat),
        ph,
        ts_us,
        pid,
        tid,
        args,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_exporter_writes() {
        let events = vec![
            Event::begin("request", "request", 10.0, 0, 3).arg("tenant", 1u64),
            Event::complete("decode", "request", 10.0, 2.0, 0, 3)
                .arg("ctx_tokens", 17u64)
                .arg("tokens", 1u64),
            Event::instant("dropped", "request", 20.0, 0, 4).arg("reason", "deadline-exceeded"),
        ];
        let doc = flat_telemetry::chrome_trace_json(&events);
        let parsed = parse_chrome_trace(&doc).expect("round trip");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "request");
        assert_eq!(parsed[0].ph, EventPhase::Begin);
        assert_eq!(arg_u64(&parsed[0], "tenant"), Some(1));
        assert_eq!(parsed[1].ph, EventPhase::Complete { dur_us: 2.0 });
        assert_eq!(arg_u64(&parsed[1], "ctx_tokens"), Some(17));
        assert_eq!(arg_str(&parsed[2], "reason"), Some("deadline-exceeded"));
        assert!(!has_arg(&parsed[2], "tokens"));
        // With each event's arguments in key order (the order the reader
        // yields them), the parsed events export to the same bytes.
        assert_eq!(flat_telemetry::chrome_trace_json(&parsed), doc);
    }

    #[test]
    fn skips_unknown_phases() {
        let doc = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"b\",\"ts\":1,\"pid\":0,\"tid\":0},\
                   {\"name\":\"b\",\"ph\":\"i\",\"ts\":2,\"pid\":0,\"tid\":0}]}";
        let parsed = parse_chrome_trace(doc).expect("well-formed");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "b");
    }

    #[test]
    fn rejects_non_trace_documents() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"foo\":1}").is_err());
        let err = parse_chrome_trace("{\"traceEvents\":[{\"cat\":\"x\"}]}").unwrap_err();
        assert!(err.contains("traceEvents[0]"), "{err}");
    }
}
