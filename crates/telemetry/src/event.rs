//! The trace event model: a minimal, allocation-conscious subset of the
//! Chrome trace-event format that Perfetto and `chrome://tracing` load.
//!
//! Every event carries the four fields the viewers require — a phase
//! (`ph`), a timestamp in microseconds (`ts`), a process id (`pid`), and
//! a thread id (`tid`) — plus a name, a category, and an ordered list of
//! numeric or string arguments. Producers stamp `ts` from whatever clock
//! they own (the serving engine's deterministic virtual clock, the
//! simulator's cycle counter, a search's candidate index): the schema is
//! clock-agnostic, and byte-reproducibility is the producer's clock's
//! property, preserved verbatim here.
//!
//! The category and argument keys are [`Cow`]s: producers pass
//! `&'static str` literals, which the constructors store borrowed, and a
//! reader of an exported document (`flat-insight`) stores them owned, so
//! one record type serves both sides.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The event phase — the `ph` field of the Chrome trace-event format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventPhase {
    /// `B`: a span opens on `(pid, tid)` at `ts`.
    Begin,
    /// `E`: the innermost open span on `(pid, tid)` closes at `ts`.
    End,
    /// `X`: a complete span of `dur_us` microseconds starting at `ts`.
    Complete {
        /// Span duration in microseconds.
        dur_us: f64,
    },
    /// `C`: a counter sample — each numeric argument becomes one series
    /// of the counter track named by the event.
    Counter,
    /// `i`: an instant marker.
    Instant,
    /// `M`: viewer metadata (`process_name` / `thread_name`).
    Metadata,
}

impl EventPhase {
    /// The single-character `ph` value the exporters write.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            EventPhase::Begin => "B",
            EventPhase::End => "E",
            EventPhase::Complete { .. } => "X",
            EventPhase::Counter => "C",
            EventPhase::Instant => "i",
            EventPhase::Metadata => "M",
        }
    }
}

/// One event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An integer (exact in the export).
    U64(u64),
    /// A float (exported with three decimals, deterministically).
    F64(f64),
    /// A string (JSON-escaped in the export).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event (or span, or counter-track) name.
    pub name: String,
    /// Category, used by viewers for filtering (`request`, `collective`,
    /// `dse`, `engine`, …).
    pub cat: Cow<'static, str>,
    /// Phase.
    pub ph: EventPhase,
    /// Timestamp in microseconds on the producer's clock.
    pub ts_us: f64,
    /// Process lane: `pid` 0 is the engine/scheduler; `pid` 1 is the
    /// cluster fabric (serving) or the simulated hardware (`flat sim`).
    pub pid: u32,
    /// Thread lane within the process: request id, engine lane, or
    /// hardware resource.
    pub tid: u64,
    /// Ordered key/value arguments (order is preserved in the export, so
    /// output stays byte-deterministic).
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

impl Event {
    /// A span-begin event.
    #[must_use]
    pub fn begin(name: &str, cat: &'static str, ts_us: f64, pid: u32, tid: u64) -> Self {
        Event::new(name, cat, EventPhase::Begin, ts_us, pid, tid)
    }

    /// A span-end event.
    #[must_use]
    pub fn end(name: &str, cat: &'static str, ts_us: f64, pid: u32, tid: u64) -> Self {
        Event::new(name, cat, EventPhase::End, ts_us, pid, tid)
    }

    /// A complete span covering `[ts_us, ts_us + dur_us]`.
    #[must_use]
    pub fn complete(
        name: &str,
        cat: &'static str,
        ts_us: f64,
        dur_us: f64,
        pid: u32,
        tid: u64,
    ) -> Self {
        Event::new(name, cat, EventPhase::Complete { dur_us }, ts_us, pid, tid)
    }

    /// A counter sample; add one series per [`arg`](Self::arg).
    #[must_use]
    pub fn counter(name: &str, cat: &'static str, ts_us: f64, pid: u32, tid: u64) -> Self {
        Event::new(name, cat, EventPhase::Counter, ts_us, pid, tid)
    }

    /// An instant marker.
    #[must_use]
    pub fn instant(name: &str, cat: &'static str, ts_us: f64, pid: u32, tid: u64) -> Self {
        Event::new(name, cat, EventPhase::Instant, ts_us, pid, tid)
    }

    /// Metadata naming process `pid` in the viewer.
    #[must_use]
    pub fn process_name(pid: u32, name: &str) -> Self {
        Event::new(
            "process_name",
            "__metadata",
            EventPhase::Metadata,
            0.0,
            pid,
            0,
        )
        .arg("name", name)
    }

    /// Metadata naming thread `(pid, tid)` in the viewer.
    #[must_use]
    pub fn thread_name(pid: u32, tid: u64, name: &str) -> Self {
        Event::new(
            "thread_name",
            "__metadata",
            EventPhase::Metadata,
            0.0,
            pid,
            tid,
        )
        .arg("name", name)
    }

    fn new(name: &str, cat: &'static str, ph: EventPhase, ts_us: f64, pid: u32, tid: u64) -> Self {
        Event {
            name: name.to_owned(),
            cat: Cow::Borrowed(cat),
            ph,
            ts_us,
            pid,
            tid,
            args: Vec::new(),
        }
    }

    /// Appends one argument (builder-style).
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((Cow::Borrowed(key), value.into()));
        self
    }

    /// Serializes the event as one Chrome trace-event JSON object —
    /// byte-deterministic: fixed field order, fixed float precision, no
    /// hash-ordered containers anywhere.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"name\":\"");
        escape_into(&mut out, &self.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, &self.cat);
        let _ = write!(
            out,
            "\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}",
            self.ph.code(),
            self.ts_us,
            self.pid,
            self.tid
        );
        if let EventPhase::Complete { dur_us } = self.ph {
            // Viewers drop zero-width slices; clamp to 1 ns.
            let _ = write!(out, ",\"dur\":{:.3}", dur_us.max(0.001));
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(&mut out, key);
                out.push_str("\":");
                match value {
                    ArgValue::U64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    ArgValue::F64(v) if v.is_finite() => {
                        let _ = write!(out, "{v:.3}");
                    }
                    // JSON has no NaN/inf; stringify rather than emit an
                    // unparseable document.
                    ArgValue::F64(v) => {
                        let _ = write!(out, "\"{v}\"");
                    }
                    ArgValue::Str(s) => {
                        out.push('"');
                        escape_into(&mut out, s);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_has_all_required_fields() {
        let ev = Event::begin("prefill", "request", 1500.25, 0, 7);
        let json = ev.to_json();
        for field in [
            "\"name\":\"prefill\"",
            "\"cat\":\"request\"",
            "\"ph\":\"B\"",
            "\"ts\":1500.250",
            "\"pid\":0",
            "\"tid\":7",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[test]
    fn complete_events_carry_duration_and_clamp_zero() {
        let ev = Event::complete("tick", "engine", 10.0, 0.0, 0, 0);
        assert!(ev.to_json().contains("\"dur\":0.001"));
        let ev = Event::complete("tick", "engine", 10.0, 2.5, 0, 0);
        assert!(ev.to_json().contains("\"dur\":2.500"));
    }

    #[test]
    fn args_preserve_order_and_types() {
        let ev = Event::counter("kv", "engine", 0.0, 0, 0)
            .arg("used", 12u64)
            .arg("frac", 0.5)
            .arg("label", "pool");
        let json = ev.to_json();
        assert!(json.contains("\"args\":{\"used\":12,\"frac\":0.500,\"label\":\"pool\"}"));
    }

    #[test]
    fn nonfinite_args_stay_parseable() {
        let ev = Event::counter("x", "c", 0.0, 0, 0).arg("bad", f64::NAN);
        assert!(ev.to_json().contains("\"bad\":\"NaN\""));
    }

    #[test]
    fn names_are_escaped() {
        let ev = Event::instant("a\"b\\c\n", "cat", 0.0, 0, 0);
        assert!(ev.to_json().contains("a\\\"b\\\\c\\n"));
    }

    #[test]
    fn metadata_constructors_name_lanes() {
        let p = Event::process_name(2, "chip 1");
        assert_eq!(p.ph.code(), "M");
        assert!(p.to_json().contains("\"args\":{\"name\":\"chip 1\"}"));
        let t = Event::thread_name(0, 3, "request 3");
        assert_eq!(t.pid, 0);
        assert_eq!(t.tid, 3);
    }
}
