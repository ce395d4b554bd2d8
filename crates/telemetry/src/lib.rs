//! `flat-telemetry` — the unified observability layer of the FLAT stack:
//! virtual-clock-aware spans, monotonic counters, gauges and summaries,
//! a Chrome trace-event / Perfetto-compatible JSON exporter, and a
//! Prometheus-style text exposition dump.
//!
//! The rest of the workspace measures *where time and bytes go* — SG
//! residency, off-chip round trips, fabric collectives — but before this
//! crate each layer kept its own dead-end format: `flat-serve` had one
//! end-of-run JSON blob, `flat sim` an ad-hoc trace writer, and
//! `flat-dist` collectives were invisible at runtime. Everything now
//! records through one [`TraceSink`]:
//!
//! * [`Event`] / [`EventPhase`] — the Chrome trace-event subset the
//!   exporters write (`ph: B/E/X/C/i/M`, microsecond `ts`, `pid` = chip,
//!   `tid` = request or engine lane), and the one trace record from
//!   producer to analysis: `flat-insight` reads exported documents back
//!   into it;
//! * [`TraceSink`] — the producer-facing trait, with three
//!   implementations: [`NoopSink`] (disabled, compiles away behind the
//!   [`TraceSink::enabled`] guard), [`MemorySink`] (buffering, for tests
//!   and post-processing), and [`JsonStreamSink`] (streams each event to
//!   an `io::Write` so long runs never hold their trace in memory);
//! * [`chrome_trace_json`] — the buffered exporter; the streaming sink
//!   produces byte-identical documents;
//! * [`Registry`] — the aggregate side: counters, gauges, and summaries
//!   rendered as Prometheus text exposition by [`Registry::prometheus`].
//!
//! Timestamps are whatever clock the producer owns — the serving
//! engine's deterministic virtual clock, the simulator's cycle counter,
//! a search's candidate index. The layer adds no clock of its own, which
//! is what makes traces byte-reproducible for a fixed seed.
//!
//! # Example
//!
//! ```
//! use flat_telemetry::{Event, MemorySink, TraceSink};
//!
//! let mut sink = MemorySink::new();
//! if sink.enabled() {
//!     sink.record(Event::begin("prefill", "request", 0.0, 0, 7).arg("tokens", 128u64));
//!     sink.record(Event::end("prefill", "request", 950.0, 0, 7));
//! }
//! let json = sink.to_chrome_trace();
//! assert!(json.contains("\"ph\":\"B\""));
//! // Load the document in https://ui.perfetto.dev to see the span.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Same robustness contract as flat-serve/flat-dist: the observability
// layer must never be the thing that panics a run. CI gates this.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
mod export;
mod registry;
mod sink;

pub use event::{ArgValue, Event, EventPhase};
pub use export::{chrome_trace_json, sort_events};
pub use registry::Registry;
pub use sink::{JsonStreamSink, MemorySink, NoopSink, TraceSink};
