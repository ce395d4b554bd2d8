//! Trace sinks: where producers send their events.
//!
//! The contract is built for hot loops: every producer call site guards
//! with [`TraceSink::enabled`] before *constructing* an [`Event`] (event
//! construction allocates), so a disabled sink costs one inlined boolean
//! load per potential event — the zero-overhead-when-off guarantee the
//! serving tests pin by diffing metrics JSON against an untraced run.

use crate::event::Event;
use crate::export::{chrome_trace_json, TRACE_FOOTER, TRACE_HEADER};
use std::io::Write;

/// A destination for trace events.
///
/// Implementations must not reorder events: exporters rely on
/// file-arrival order only for byte-determinism (viewers sort by `ts`
/// themselves), and producers emit deterministically.
pub trait TraceSink {
    /// Whether events should be produced at all. Call sites must check
    /// this before building an [`Event`]; a `false` sink sees no traffic.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, ev: Event);
}

/// The disabled sink: [`enabled`](TraceSink::enabled) is `false` and
/// [`record`](TraceSink::record) is empty, so traced code paths compile
/// down to untraced ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: Event) {}
}

/// An in-memory sink: buffers every event, for tests and for callers
/// that post-process (schema checks, `flat-insight` attribution).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// The recorded events, in arrival order.
    pub events: Vec<Event>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Exports everything recorded so far as a Chrome trace JSON
    /// document.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace_json(&self.events)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// A streaming sink: writes each event as one line of a Chrome trace
/// JSON document as it arrives, so long runs never buffer their whole
/// trace in memory.
///
/// I/O errors cannot surface from [`TraceSink::record`]; the first one
/// is latched and returned by [`finish`](Self::finish), and recording
/// stops after it.
#[derive(Debug)]
pub struct JsonStreamSink<W: Write> {
    writer: W,
    written: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonStreamSink<W> {
    /// Starts a trace document on `writer`.
    ///
    /// # Errors
    ///
    /// Propagates the header write failure.
    pub fn new(mut writer: W) -> std::io::Result<Self> {
        writer.write_all(TRACE_HEADER.as_bytes())?;
        Ok(JsonStreamSink {
            writer,
            written: 0,
            error: None,
        })
    }

    /// Events successfully written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Closes the JSON document and returns the writer.
    ///
    /// # Errors
    ///
    /// The first error hit while recording, or the footer write/flush
    /// failure.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.write_all(TRACE_FOOTER.as_bytes())?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonStreamSink<W> {
    fn record(&mut self, ev: Event) {
        if self.error.is_some() {
            return;
        }
        let mut line = String::with_capacity(112);
        if self.written > 0 {
            line.push_str(",\n");
        }
        line.push_str(&ev.to_json());
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
            return;
        }
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.record(Event::instant("x", "c", 0.0, 0, 0)); // must not panic
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let mut sink = MemorySink::new();
        assert!(sink.enabled());
        sink.record(Event::begin("a", "c", 0.0, 0, 1));
        sink.record(Event::end("a", "c", 5.0, 0, 1));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].name, "a");
        let json = sink.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn stream_sink_matches_memory_export_byte_for_byte() {
        let events = vec![
            Event::process_name(0, "engine"),
            Event::begin("a", "c", 0.0, 0, 1).arg("k", 7u64),
            Event::end("a", "c", 5.0, 0, 1),
        ];
        let mut mem = MemorySink::new();
        let mut stream = JsonStreamSink::new(Vec::new()).unwrap();
        for ev in &events {
            mem.record(ev.clone());
            stream.record(ev.clone());
        }
        assert_eq!(stream.events_written(), 3);
        let bytes = stream.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), mem.to_chrome_trace());
    }

    #[test]
    fn stream_sink_with_no_events_is_valid_json() {
        let sink = JsonStreamSink::new(Vec::new()).unwrap();
        let bytes = sink.finish().unwrap();
        let doc = String::from_utf8(bytes).unwrap();
        assert_eq!(doc, chrome_trace_json(&[]));
    }

    /// A sink that fails mid-run latches the error for `finish` instead
    /// of panicking in `record`.
    #[test]
    fn stream_sink_latches_io_errors() {
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonStreamSink::new(Failing(2)).unwrap();
        sink.record(Event::instant("a", "c", 0.0, 0, 0));
        sink.record(Event::instant("b", "c", 1.0, 0, 0)); // hits the error
        sink.record(Event::instant("c", "c", 2.0, 0, 0)); // silently skipped
        assert!(sink.finish().is_err());
    }
}
