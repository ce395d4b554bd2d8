//! Metrics registry: monotonic counters, gauges, and summaries, with a
//! Prometheus-style text exposition dump.
//!
//! The registry is the *aggregate* side of the telemetry layer — where
//! the trace sinks record every event, the registry records totals and
//! distributions, and [`Registry::prometheus`] renders them in the text
//! exposition format scrape endpoints serve. Everything is plain `Vec`s
//! in insertion order: the dump is byte-deterministic for a fixed
//! sequence of updates.

use std::fmt::Write as _;

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(f64),
    Gauge(f64),
    /// Pre-computed quantiles, rendered with Prometheus `quantile`
    /// labels (the summary exposition type).
    Summary(Vec<(&'static str, f64)>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Summary(_) => "summary",
        }
    }
}

/// A named collection of metrics, rendered via
/// [`prometheus`](Self::prometheus).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// `(name, help, metric)` in registration order.
    metrics: Vec<(String, String, Metric)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(&mut self, name: &str, help: &str) -> usize {
        match self.metrics.iter().position(|(n, _, _)| n == name) {
            Some(i) => i,
            None => {
                self.metrics
                    .push((name.to_owned(), help.to_owned(), Metric::Counter(0.0)));
                self.metrics.len() - 1
            }
        }
    }

    /// Adds `v` to the monotonic counter `name` (registering it first if
    /// needed). Negative or non-finite increments are ignored —
    /// counters only go up.
    pub fn counter_add(&mut self, name: &str, help: &str, v: f64) {
        let i = self.slot(name, help);
        if let Metric::Counter(total) = &mut self.metrics[i].2 {
            if v.is_finite() && v >= 0.0 {
                *total += v;
            }
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, help: &str, v: f64) {
        let i = self.slot(name, help);
        self.metrics[i].2 = Metric::Gauge(v);
    }

    /// Registers pre-computed quantiles as a summary metric.
    pub fn summary(&mut self, name: &str, help: &str, quantiles: Vec<(&'static str, f64)>) {
        let i = self.slot(name, help);
        self.metrics[i].2 = Metric::Summary(quantiles);
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` headers, then one line per sample, in
    /// registration order. Help text and label values carry the format's
    /// escaping (`\\`, `\n`, and `\"` in label values), so hostile
    /// strings cannot break a line or smuggle in an extra label.
    #[must_use]
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, metric) in &self.metrics {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
            let _ = writeln!(out, "# TYPE {name} {}", metric.type_name());
            match metric {
                Metric::Counter(v) | Metric::Gauge(v) => {
                    let _ = writeln!(out, "{name} {}", fmt_value(*v));
                }
                Metric::Summary(quantiles) => {
                    for (q, v) in quantiles {
                        let _ = writeln!(
                            out,
                            "{name}{{quantile=\"{}\"}} {}",
                            escape_label_value(q),
                            fmt_value(*v)
                        );
                    }
                }
            }
        }
        out
    }

    /// Registers raw samples as a summary metric with nearest-rank
    /// p50/p95/p99 quantiles — the one-call path from a vector of
    /// latencies to an exposition-ready summary. Non-finite samples are
    /// excluded; an all-empty input registers an empty summary.
    pub fn summary_of(&mut self, name: &str, help: &str, samples: &[f64]) {
        let mut finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        finite.sort_by(f64::total_cmp);
        let quantiles = if finite.is_empty() {
            Vec::new()
        } else {
            let at = |p: f64| {
                let rank = (p * finite.len() as f64).ceil() as usize;
                finite[rank.clamp(1, finite.len()) - 1]
            };
            vec![("0.5", at(0.50)), ("0.95", at(0.95)), ("0.99", at(0.99))]
        };
        self.summary(name, help, quantiles);
    }
}

/// 0.0.4 `# HELP` escaping: backslash and line feed only (double quotes
/// are legal in help text).
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// 0.0.4 label-value escaping: backslash, double quote, and line feed.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic value formatting: integers print bare, everything else
/// with full round-trip precision via Rust's shortest-representation
/// float formatter (stable across runs and platforms).
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let mut r = Registry::new();
        r.counter_add("requests_total", "Requests offered.", 3.0);
        r.counter_add("requests_total", "Requests offered.", 2.0);
        r.counter_add("requests_total", "Requests offered.", -5.0); // ignored
        r.counter_add("requests_total", "Requests offered.", f64::NAN); // ignored
        let text = r.prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("\nrequests_total 5\n"));
    }

    #[test]
    fn exposition_covers_all_three_types() {
        let mut r = Registry::new();
        r.counter_add("a_total", "A.", 1.0);
        r.gauge_set("b", "B.", 0.25);
        r.summary("d_ms", "D.", vec![("0.5", 10.0), ("0.99", 42.5)]);
        let text = r.prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("# TYPE b gauge"));
        assert!(text.contains("\nb 0.25\n"));
        assert!(text.contains("# TYPE d_ms summary"));
        assert!(text.contains("d_ms{quantile=\"0.99\"} 42.5"));
    }

    /// 0.0.4 conformance over hostile help text and label values: every
    /// metric still renders as exactly one HELP line, one TYPE line, and
    /// one sample line — newlines, backslashes, and quotes in the inputs
    /// arrive escaped instead of splitting lines or closing the label
    /// quote early.
    #[test]
    fn exposition_escapes_hostile_help_and_label_values() {
        let mut r = Registry::new();
        r.counter_add("evil_total", "line one\nline two \\ \"quoted\"", 1.0);
        r.summary(
            "evil_ms",
            "Quantiles.",
            vec![("0.5\"},evil{x=\"", 1.0), ("p\\n", 2.0)],
        );
        let text = r.prometheus();
        assert!(text.contains("# HELP evil_total line one\\nline two \\\\ \"quoted\"\n"));
        assert!(text.contains("evil_ms{quantile=\"0.5\\\"},evil{x=\\\"\"} 1\n"));
        assert!(text.contains("evil_ms{quantile=\"p\\\\n\"} 2\n"));
        // No raw newline escaped the HELP line: every line is a comment,
        // a sample, or empty — a sample line never starts with a space.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("evil_"),
                "unexpected exposition line {line:?}"
            );
        }
    }

    #[test]
    fn summary_of_computes_nearest_rank_quantiles() {
        let mut r = Registry::new();
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        r.summary_of("lat_ms", "Latency.", &samples);
        let text = r.prometheus();
        assert!(text.contains("lat_ms{quantile=\"0.5\"} 50\n"));
        assert!(text.contains("lat_ms{quantile=\"0.95\"} 95\n"));
        assert!(text.contains("lat_ms{quantile=\"0.99\"} 99\n"));
        // NaN-laced and empty inputs stay panic-free.
        r.summary_of("nan_ms", "NaN.", &[f64::NAN, 3.0]);
        r.summary_of("empty_ms", "Empty.", &[]);
        let text = r.prometheus();
        assert!(text.contains("nan_ms{quantile=\"0.99\"} 3\n"));
        assert!(text.contains("# TYPE empty_ms summary\n"));
    }

    #[test]
    fn exposition_is_deterministic_and_ordered() {
        let build = || {
            let mut r = Registry::new();
            r.gauge_set("z", "Z.", 1.0);
            r.counter_add("a", "A.", 2.0);
            r.gauge_set("z", "Z.", 3.0);
            r.prometheus()
        };
        let a = build();
        assert_eq!(a, build());
        // Registration order, not alphabetical.
        assert!(a.find("# HELP z").unwrap() < a.find("# HELP a").unwrap());
    }
}
