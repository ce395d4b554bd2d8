//! The closed loop every workload runs through: the cold set-up round,
//! the warm-up, the timed loop, per-op checks, host-clock spans, and the
//! statistics the metrics are computed with.

use flat::telemetry::{Event, MemorySink, TraceSink};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Untimed ops between set-up and the timed loop: op 0, the cold one,
/// and four warm-up ops.
pub const WARMUP_OPS: usize = 5;
/// Fewest timed ops of an untraced run: [`TAIL`] needs 49 to hold ten
/// samples.
pub const MIN_TIMED_OPS: usize = 50;
/// The band of latency ranks, in percent, that the tail latency
/// averages: the slowest quarter without its slowest twentieth.
pub const TAIL: (usize, usize) = (75, 95);
/// Ops whose modeled outputs make up the `sim_digest`. Every loop runs at
/// least this many, starting from input 0.
pub const DIGEST_OPS: usize = 8;

/// Input sizes: the benchmark's own, or the shrunken ones its smoke test
/// runs in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny inputs that exercise every code path quickly.
    Smoke,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// What one op returns to its check.
    type Out;
    /// Workload name as `--workload` spells it.
    const NAME: &'static str;
    /// Ops the traced loop runs at full size (a fixed count, so that the
    /// per-layer counts repeat exactly for a seed).
    const TRACE_OPS: usize;
    /// Per-layer metrics this workload reports in a traced run, as
    /// (name, unit).
    fn layers() -> Vec<(&'static str, &'static str)>;

    /// Generates every input from `seed`.
    fn setup(seed: u64, size: Size) -> Self;
    /// Distinct inputs; op `i` runs input `i % inputs()`.
    fn inputs(&self) -> usize;
    /// The timed loop only stops after a multiple of this many ops, so
    /// every run sees the same mix of inputs.
    fn pass(&self) -> usize {
        1
    }
    /// One op: the public calls under measurement, each inside a span.
    fn run(&self, input: usize, tr: &mut Tracer) -> Result<Self::Out, String>;
    /// Checks one op's outputs (untimed), records its per-layer counts,
    /// and returns a hash of its modeled outputs.
    fn check(&self, input: usize, out: &Self::Out, tr: &mut Tracer) -> Result<u64, String>;
    /// Replays single layers on this run's inputs, after the traced loop.
    fn replay(&self, tr: &mut Tracer);
    /// The values of [`layers`](Self::layers), in order, from what the
    /// tracer accumulated.
    fn layer_values(&self, tr: &Tracer) -> Vec<f64>;
}

/// Host-clock spans and per-layer accumulators. When off, spans run
/// their closure and record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pid: u32,
    sink: MemorySink,
    /// name → (sum, samples, max).
    acc: BTreeMap<&'static str, (f64, u64, f64)>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            pid: 0,
            sink: MemorySink::new(),
            acc: BTreeMap::new(),
        }
    }

    /// A recording tracer whose spans land on process lane `pid`, stamped
    /// in microseconds since `epoch`.
    pub fn on(epoch: Instant, pid: u32, label: &str) -> Self {
        let mut sink = MemorySink::new();
        sink.record(Event::process_name(pid, label));
        Tracer {
            on: true,
            epoch,
            pid,
            sink,
            acc: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` and records its duration in
    /// milliseconds as one sample of `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let (out, ms) = self.time(name, f);
        self.add(name, ms);
        out
    }

    /// Runs `f` inside a span named `name` and returns its duration in
    /// milliseconds without recording a sample (0 when off).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        if !self.on {
            return (f(self), 0.0);
        }
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        let ts_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.sink.record(Event::complete(
            name,
            "host",
            ts_us,
            dur.as_secs_f64() * 1e6,
            self.pid,
            1,
        ));
        (out, dur.as_secs_f64() * 1e3)
    }

    /// Records one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            let e = self.acc.entry(name).or_insert((0.0, 0, f64::NEG_INFINITY));
            e.0 += value;
            e.1 += 1;
            e.2 = e.2.max(value);
        }
    }

    /// Mean of the samples of `name` (0 when none).
    pub fn mean(&self, name: &str) -> f64 {
        self.acc
            .get(name)
            .map_or(0.0, |&(sum, n, _)| sum / n.max(1) as f64)
    }

    /// Largest sample of `name` (0 when none).
    pub fn max(&self, name: &str) -> f64 {
        self.acc.get(name).map_or(0.0, |&(_, _, max)| max)
    }

    /// The recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.sink.events
    }
}

/// Ops attempted and failed across a whole run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// One op's outcome: its latency and the hash of its modeled outputs.
fn one_op<W: Workload>(
    w: &W,
    input: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> (f64, Result<u64, String>) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| tr.time("op", |tr| w.run(input, tr)).0));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let checked = match out {
        Ok(Ok(out)) => catch_unwind(AssertUnwindSafe(|| w.check(input, &out, tr)))
            .unwrap_or_else(|p| Err(panic_message(&p))),
        Ok(Err(e)) => Err(e),
        Err(p) => Err(panic_message(&p)),
    };
    tally.attempted += 1;
    if let Err(e) = &checked {
        tally.failed += 1;
        eprintln!("{} input {input}: {e}", W::NAME);
    }
    (ms, checked)
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    format!("panicked: {msg}")
}

/// One cold set-up round, meant to be the first thing a fresh process
/// does: generates every input and runs op 0 on them, so that first-call
/// costs (pool start-up, lazy initialisation, first-touch page faults)
/// land in it. Returns its time in seconds.
pub fn cold_setup<W: Workload>(seed: u64, size: Size, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let w = W::setup(seed, size);
    // A failure is counted in the tally; the round still has a time.
    let _ = one_op(&w, 0, &mut Tracer::off(), tally);
    start.elapsed().as_secs_f64()
}

/// Generates every input and runs the untimed [`WARMUP_OPS`] on them.
pub fn warm_up<W: Workload>(seed: u64, size: Size, tally: &mut Tally) -> W {
    let w = W::setup(seed, size);
    for i in 0..WARMUP_OPS {
        let _ = one_op(&w, i % w.inputs(), &mut Tracer::off(), tally);
    }
    w
}

/// What one closed loop measured.
#[derive(Debug)]
pub struct LoopStats {
    /// Latency of every op, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Wall time of the whole loop, checks included.
    pub wall_s: f64,
    /// Hash of the modeled outputs of the first [`DIGEST_OPS`] ops.
    pub digest: u64,
    /// Hash of op 0's modeled outputs (0 if it failed).
    pub op0: u64,
}

impl LoopStats {
    pub fn ops_per_s(&self) -> f64 {
        self.lat_ms.len() as f64 / self.wall_s
    }
}

/// The closed loop: one caller issues the next op when the previous one
/// has returned. Stops once `seconds` have passed, at least `min_ops`
/// ops have run, and the op count is a multiple of the workload's pass.
pub fn closed_loop<W: Workload>(
    w: &W,
    seconds: f64,
    min_ops: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> LoopStats {
    let min_ops = min_ops.max(DIGEST_OPS);
    let (n, pass) = (w.inputs(), w.pass());
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    let mut digest = Fnv::new();
    let mut op0 = 0;
    loop {
        let op = lat_ms.len();
        if op >= min_ops && op % pass == 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (ms, checked) = one_op(w, op % n, tr, tally);
        lat_ms.push(ms);
        let h = checked.unwrap_or(0);
        if op == 0 {
            op0 = h;
        }
        if op < DIGEST_OPS {
            digest.u64(h);
        }
    }
    LoopStats {
        lat_ms,
        wall_s: start.elapsed().as_secs_f64(),
        digest: digest.finish(),
        op0,
    }
}

/// Re-runs op 0 and reports whether its modeled outputs hash the same as
/// in `first`.
pub fn op0_repeats<W: Workload>(w: &W, first: &LoopStats, tally: &mut Tally) -> bool {
    let (_, again) = one_op(w, 0, &mut Tracer::off(), tally);
    again.is_ok_and(|h| h == first.op0)
}

/// Mean of the samples ranked from percent `from` to percent `to` in
/// ascending order (ranks `n·from/100 .. n·to/100`), refused (`None`)
/// unless that band holds at least ten samples.
///
/// A mean over a band, not a percentile: on a host whose speed switches
/// between states for seconds at a time, a percentile jumps from one
/// state's latency to the other's as the share of a run spent in each
/// crosses it, while a mean moves with that share. Leaving out the top of
/// the tail keeps a few ops stalled by the host from moving it.
pub fn band_mean(samples: &[f64], (from, to): (usize, usize)) -> Option<f64> {
    let n = samples.len();
    let (lo, hi) = (n * from / 100, n * to / 100);
    if hi < lo + 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64)
}

/// Median of a non-empty sample (the mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// FNV-1a, 64 bit: the hash behind every digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of a value's `Debug` form, which prints every float exactly.
pub fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{value:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_needs_ten_samples() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 75..95 of 1..=100 hold 76..=95.
        assert_eq!(band_mean(&hundred, TAIL), Some(85.5));
        // Ranks 37..47 of 1..=50 hold 38..=47.
        assert_eq!(band_mean(&hundred[..50], TAIL), Some(42.5));
        assert!(band_mean(&hundred[..MIN_TIMED_OPS], TAIL).is_some());
        assert_eq!(band_mean(&hundred[..48], TAIL), None);
        assert_eq!(band_mean(&[], TAIL), None);
        assert_eq!(band_mean(&hundred[..10], (0, 100)), Some(5.5));
    }

    #[test]
    fn band_ignores_input_order_and_the_slowest_outliers() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let t = band_mean(&v, TAIL);
        v.sort_by(f64::total_cmp);
        assert_eq!(t, band_mean(&v, TAIL));
        // Ranks 150..190 of 0..200 hold 150..=189.
        assert_eq!(t, Some(169.5));
        v[199] = 1e9;
        assert_eq!(band_mean(&v, TAIL), t);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
