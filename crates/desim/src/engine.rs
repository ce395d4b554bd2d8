//! The discrete-event runtime: a virtual-time event queue running one
//! [`Script`] per hardware lane over bounded channels with blocking
//! send/recv backpressure.
//!
//! # Execution model
//!
//! Every lane of the FLAT executor runs a fixed per-iteration sequence
//! of channel operations and busy intervals (a DMA lane: take a credit,
//! occupy the link, hand the tile on). When the engine pops a lane's
//! event it first retires the lane's finished busy interval, recording
//! its trace slice, then interprets ops until one of three things:
//!
//! * [`Op::Busy`] with a positive duration — the lane occupies itself
//!   and its next event is at `now + d`;
//! * a [`Op::Recv`] on an empty channel or a [`Op::Send`] on a full one
//!   — the lane parks on that channel's wait list. Whenever the channel
//!   changes, every parked lane is woken at the current time and
//!   re-attempts the same op; another lane may have won the race, in
//!   which case it parks again;
//! * the end of its script — the lane retires.
//!
//! A lane has at most one pending event, and a parked lane has none, so
//! it sits on at most one wait list, once, and a retired lane is never
//! woken.
//!
//! # Determinism
//!
//! Virtual time is `f64` cycles ordered by `total_cmp`. Events at equal
//! timestamps pop in insertion order (a monotone sequence number breaks
//! ties), so a run is a pure function of the wiring — there is no
//! hash-ordered container or host-time dependence anywhere. Two runs of
//! the same program produce byte-identical traces; the agreement suite
//! pins this.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Handle to a bounded channel created by [`Engine::channel`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelId(usize);

/// One scripted operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Take one item (blocks while empty).
    Recv(ChannelId),
    /// Put one item (blocks while full — backpressure).
    Send(ChannelId),
    /// Occupy the lane for the given cycles, traced under the label.
    /// Durations that are not positive are skipped.
    Busy(f64, &'static str),
}

/// A three-segment program: `prelude`, `body` repeated `body_repeats`
/// times, then `epilogue`.
#[derive(Debug, Default)]
pub(crate) struct Script {
    /// Ops run once at the start (cold-start warmup, first iteration).
    pub prelude: Vec<Op>,
    /// Ops run `body_repeats` times (the steady-state iteration).
    pub body: Vec<Op>,
    /// Number of body iterations.
    pub body_repeats: u64,
    /// Ops run once at the end (pipeline drain).
    pub epilogue: Vec<Op>,
}

impl Script {
    /// `body` repeated `n` times, with no prelude or epilogue.
    pub fn repeat(body: Vec<Op>, n: u64) -> Self {
        Script {
            body,
            body_repeats: n,
            ..Script::default()
        }
    }
}

/// One recorded lane slice (for Chrome-trace export).
#[derive(Debug, PartialEq)]
pub(crate) struct TraceSlice {
    /// Spawn index of the lane that was busy.
    pub ctx: usize,
    /// Slice label (`"fetch"`, `"logit"`, `"softmax"`, …).
    pub label: &'static str,
    /// Start time in cycles.
    pub start: f64,
    /// Duration in cycles.
    pub dur: f64,
}

/// Channel occupancy statistics over a run.
#[derive(Debug)]
pub(crate) struct ChannelStats {
    /// Channel name given at creation.
    pub name: String,
    /// Bound on queued items.
    pub capacity: usize,
    /// Time-weighted mean queue length.
    pub mean_occupancy: f64,
    /// Smallest queue length observed.
    pub min_occupancy: usize,
    /// `(time, length)` samples at every state change, recorded only
    /// when the engine traces (for counter-track export).
    pub samples: Vec<(f64, usize)>,
}

/// Per-lane statistics over a run.
#[derive(Debug)]
pub(crate) struct ContextStats {
    /// Lane name given at spawn.
    pub name: String,
    /// Total cycles spent in [`Op::Busy`] — the lane's link-busy time.
    pub busy_cycles: f64,
}

/// The result of [`Engine::run`].
#[derive(Debug)]
pub(crate) struct RunStats {
    /// Virtual time when the last lane retired (the makespan).
    pub end_time: f64,
    /// Per-lane busy time, in spawn order.
    pub contexts: Vec<ContextStats>,
    /// Per-channel occupancy, in creation order.
    pub channels: Vec<ChannelStats>,
    /// Recorded lane slices (empty unless tracing).
    pub trace: Vec<TraceSlice>,
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The event budget was exhausted — a lane is livelocked.
    Livelock {
        /// Events processed before giving up.
        events: u64,
    },
    /// The event queue drained with lanes still parked.
    Deadlock {
        /// Names of the lanes that never retired.
        blocked: Vec<String>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Livelock { events } => {
                write!(f, "livelock: event budget exhausted after {events} events")
            }
            EngineError::Deadlock { blocked } => {
                write!(
                    f,
                    "deadlock: contexts never retired: {}",
                    blocked.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A bounded channel: a count of queued items, its waiters, and the
/// occupancy integral.
struct Channel {
    name: String,
    capacity: usize,
    len: usize,
    wait_send: Vec<usize>,
    wait_recv: Vec<usize>,
    occupancy_integral: f64,
    last_change: f64,
    min_len: usize,
    samples: Vec<(f64, usize)>,
}

impl Channel {
    /// Closes the occupancy integral up to `now` at the old length, then
    /// moves to `len`.
    fn set_len(&mut self, len: usize, now: f64, sample: bool) {
        self.occupancy_integral += self.len as f64 * (now - self.last_change).max(0.0);
        self.last_change = now;
        self.len = len;
        self.min_len = self.min_len.min(len);
        if sample {
            self.samples.push((now, len));
        }
    }
}

/// Which segment of its script a lane is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Prelude,
    Body,
    Epilogue,
    Finished,
}

/// A lane: its script and the cursor into it.
struct Lane {
    name: String,
    script: Script,
    segment: Segment,
    pc: usize,
    iter: u64,
    /// The busy interval in progress, `(cycles, label)`.
    busy: Option<(f64, &'static str)>,
    busy_cycles: f64,
}

impl Lane {
    fn current(&self) -> Option<Op> {
        match self.segment {
            Segment::Prelude => self.script.prelude.get(self.pc).copied(),
            Segment::Body => self.script.body.get(self.pc).copied(),
            Segment::Epilogue => self.script.epilogue.get(self.pc).copied(),
            Segment::Finished => None,
        }
    }

    fn advance(&mut self) {
        self.pc += 1;
        self.normalize();
    }

    /// Moves past exhausted segments so [`current`](Self::current) is
    /// either a real op or `None` (finished).
    fn normalize(&mut self) {
        loop {
            match self.segment {
                Segment::Prelude => {
                    if self.pc < self.script.prelude.len() {
                        return;
                    }
                    self.segment = Segment::Body;
                    self.pc = 0;
                    self.iter = 0;
                }
                Segment::Body => {
                    if self.script.body.is_empty() || self.iter >= self.script.body_repeats {
                        self.segment = Segment::Epilogue;
                        self.pc = 0;
                        continue;
                    }
                    if self.pc < self.script.body.len() {
                        return;
                    }
                    self.pc = 0;
                    self.iter += 1;
                }
                Segment::Epilogue => {
                    if self.pc < self.script.epilogue.len() {
                        return;
                    }
                    self.segment = Segment::Finished;
                }
                Segment::Finished => return,
            }
        }
    }
}

/// Event-queue key: `(time, seq)` with `total_cmp` time ordering — ties
/// on equal timestamps resolve deterministically in insertion order.
struct Event {
    time: f64,
    seq: u64,
    lane: usize,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The pending events, numbered in insertion order.
struct Queue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, time: f64, lane: usize) {
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            lane,
        }));
        self.seq += 1;
    }
}

/// The simulation engine: owns lanes, channels, and the event queue.
pub(crate) struct Engine {
    lanes: Vec<Lane>,
    channels: Vec<Channel>,
    record_trace: bool,
}

impl Engine {
    /// A new engine. `record_trace` enables lane slices and channel
    /// occupancy samples (off for long extrapolation runs).
    pub fn new(record_trace: bool) -> Self {
        Engine {
            lanes: Vec::new(),
            channels: Vec::new(),
            record_trace,
        }
    }

    /// Creates a bounded channel pre-filled with `prefill` items
    /// (credit-based flow control starts from a full credit pool).
    /// `prefill` is clamped to `capacity`.
    pub fn channel(&mut self, name: &str, capacity: usize, prefill: usize) -> ChannelId {
        let len = prefill.min(capacity);
        self.channels.push(Channel {
            name: name.to_owned(),
            capacity: capacity.max(1),
            len,
            wait_send: Vec::new(),
            wait_recv: Vec::new(),
            occupancy_integral: 0.0,
            last_change: 0.0,
            min_len: len,
            samples: if self.record_trace {
                vec![(0.0, len)]
            } else {
                Vec::new()
            },
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Spawns a lane running `script`. Spawn order is the tie-break
    /// order for simultaneous initial events.
    pub fn spawn(&mut self, name: &str, script: Script) {
        let mut lane = Lane {
            name: name.to_owned(),
            script,
            segment: Segment::Prelude,
            pc: 0,
            iter: 0,
            busy: None,
            busy_cycles: 0.0,
        };
        lane.normalize();
        self.lanes.push(lane);
    }

    /// Runs until every lane retires, or fails. `max_events` bounds the
    /// events processed against livelock.
    pub fn run(mut self, max_events: u64) -> Result<RunStats, EngineError> {
        let n = self.lanes.len();
        let mut queue = Queue {
            heap: BinaryHeap::with_capacity(n * 2),
            seq: 0,
        };
        for id in 0..n {
            queue.push(0.0, id);
        }
        let sample = self.record_trace;
        let mut end_time = 0.0f64;
        let mut events: u64 = 0;
        let mut trace: Vec<TraceSlice> = Vec::new();

        while let Some(Reverse(Event {
            time: now,
            lane: id,
            ..
        })) = queue.heap.pop()
        {
            events += 1;
            if events > max_events {
                return Err(EngineError::Livelock { events });
            }
            let lane = &mut self.lanes[id];
            if let Some((dur, label)) = lane.busy.take() {
                if sample {
                    trace.push(TraceSlice {
                        ctx: id,
                        label,
                        start: now - dur,
                        dur,
                    });
                }
                lane.advance();
            }
            // Run ops until the lane occupies itself, parks, or retires;
            // a completed channel op wakes the other side's waiters.
            while let Some(op) = lane.current() {
                match op {
                    Op::Busy(dur, label) => {
                        if dur > 0.0 {
                            lane.busy = Some((dur, label));
                            lane.busy_cycles += dur;
                            end_time = end_time.max(now + dur);
                            queue.push(now + dur, id);
                            break;
                        }
                    }
                    Op::Recv(ch) => {
                        let c = &mut self.channels[ch.0];
                        if c.len == 0 {
                            c.wait_recv.push(id);
                            break;
                        }
                        c.set_len(c.len - 1, now, sample);
                        for w in c.wait_send.drain(..) {
                            queue.push(now, w);
                        }
                    }
                    Op::Send(ch) => {
                        let c = &mut self.channels[ch.0];
                        if c.len >= c.capacity {
                            c.wait_send.push(id);
                            break;
                        }
                        c.set_len(c.len + 1, now, sample);
                        for w in c.wait_recv.drain(..) {
                            queue.push(now, w);
                        }
                    }
                }
                lane.advance();
            }
            if lane.segment == Segment::Finished {
                end_time = end_time.max(now);
            }
        }

        let blocked: Vec<String> = self
            .lanes
            .iter()
            .filter(|l| l.segment != Segment::Finished)
            .map(|l| l.name.clone())
            .collect();
        if !blocked.is_empty() {
            return Err(EngineError::Deadlock { blocked });
        }

        let contexts = self
            .lanes
            .into_iter()
            .map(|l| ContextStats {
                name: l.name,
                busy_cycles: l.busy_cycles,
            })
            .collect();
        let channels = self
            .channels
            .into_iter()
            .map(|mut c| {
                c.set_len(c.len, end_time, false);
                ChannelStats {
                    mean_occupancy: if end_time > 0.0 {
                        c.occupancy_integral / end_time
                    } else {
                        c.len as f64
                    },
                    name: c.name,
                    capacity: c.capacity,
                    min_occupancy: c.min_len,
                    samples: c.samples,
                }
            })
            .collect();
        Ok(RunStats {
            end_time,
            contexts,
            channels,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn producer(n: u64, dur: f64, out: ChannelId) -> Script {
        Script::repeat(vec![Op::Busy(dur, "produce"), Op::Send(out)], n)
    }

    fn consumer(n: u64, dur: f64, input: ChannelId) -> Script {
        Script::repeat(vec![Op::Recv(input), Op::Busy(dur, "consume")], n)
    }

    /// Pipeline throughput is set by the slowest stage.
    #[test]
    fn bottleneck_sets_throughput() {
        let mut eng = Engine::new(false);
        let ch = eng.channel("q", 4, 0);
        eng.spawn("prod", producer(100, 1.0, ch));
        eng.spawn("cons", consumer(100, 3.0, ch));
        let stats = eng.run(100_000).expect("runs");
        // 100 items at 3 cycles each, plus the first item's fill.
        assert!((stats.end_time - 301.0).abs() < 1e-9, "{}", stats.end_time);
    }

    /// A capacity-1 channel backpressures the producer to lock-step.
    #[test]
    fn bounded_channel_backpressures() {
        let mut eng = Engine::new(true);
        let ch = eng.channel("q", 1, 0);
        eng.spawn("prod", producer(10, 2.0, ch));
        eng.spawn("cons", consumer(10, 2.0, ch));
        let stats = eng.run(100_000).expect("runs");
        assert!((stats.end_time - 22.0).abs() < 1e-9, "{}", stats.end_time);
        // Capacity 4 would let the producer run ahead; the occupancy
        // samples prove the bound held.
        let occ = &stats.channels[0];
        assert_eq!(occ.samples.iter().map(|&(_, len)| len).max(), Some(1));
    }

    /// Same program, two runs: identical times and traces — the
    /// determinism contract.
    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut eng = Engine::new(true);
            let a = eng.channel("a", 2, 0);
            let b = eng.channel("b", 2, 0);
            eng.spawn("prod", producer(20, 1.0, a));
            eng.spawn(
                "fwd",
                Script::repeat(vec![Op::Recv(a), Op::Busy(1.5, "fwd"), Op::Send(b)], 20),
            );
            eng.spawn("cons", consumer(20, 2.5, b));
            eng
        };
        let s1 = build().run(100_000).expect("runs");
        let s2 = build().run(100_000).expect("runs");
        assert_eq!(s1.end_time.to_bits(), s2.end_time.to_bits());
        assert_eq!(s1.trace, s2.trace);
    }

    /// Two senders racing at the same timestamps resolve in spawn order
    /// — the deterministic tie-break. Each follows its send with a busy
    /// slice named after it; both slices end at t=1, so the trace order
    /// is the order their events were queued.
    #[test]
    fn equal_timestamps_resolve_in_spawn_order() {
        let order = |names: [&'static str; 2]| {
            let mut eng = Engine::new(true);
            let ch = eng.channel("q", 2, 0);
            for name in names {
                let script = Script {
                    prelude: vec![Op::Send(ch), Op::Busy(1.0, name)],
                    ..Script::default()
                };
                eng.spawn(name, script);
            }
            eng.spawn("collector", Script::repeat(vec![Op::Recv(ch)], 2));
            let stats = eng.run(1000).expect("runs");
            stats.trace.iter().map(|s| s.label).collect::<Vec<_>>()
        };
        assert_eq!(order(["first", "second"]), vec!["first", "second"]);
        assert_eq!(order(["second", "first"]), vec!["second", "first"]);
    }

    /// Unfinishable wiring is reported as a deadlock, not a hang.
    #[test]
    fn deadlock_is_detected() {
        let mut eng = Engine::new(false);
        let ch = eng.channel("never", 1, 0);
        eng.spawn("cons", consumer(1, 1.0, ch));
        let err = eng.run(1000).expect_err("deadlocks");
        match err {
            EngineError::Deadlock { blocked } => assert_eq!(blocked, vec!["cons".to_owned()]),
            other => panic!("wrong error: {other:?}"),
        }
    }

    /// The livelock guard trips instead of spinning forever.
    #[test]
    fn event_budget_bounds_runaway() {
        let mut eng = Engine::new(false);
        let ch = eng.channel("q", 1, 0);
        eng.spawn("prod", producer(1_000_000, 0.5, ch));
        eng.spawn("cons", consumer(1_000_000, 0.5, ch));
        let err = eng.run(100).expect_err("budget");
        assert!(matches!(err, EngineError::Livelock { .. }));
    }

    /// Zero-duration busy ops are skipped without scheduling churn: one
    /// event starts the busy interval, one retires it and the lane.
    #[test]
    fn zero_busy_is_free() {
        let lane = || {
            let mut eng = Engine::new(false);
            let script = Script {
                prelude: vec![Op::Busy(0.0, "skip"), Op::Busy(5.0, "work")],
                epilogue: vec![Op::Busy(0.0, "skip")],
                ..Script::default()
            };
            eng.spawn("lane", script);
            eng
        };
        let stats = lane().run(2).expect("two events suffice");
        assert!((stats.end_time - 5.0).abs() < 1e-12);
        let err = lane().run(1).expect_err("one event does not");
        assert_eq!(err, EngineError::Livelock { events: 2 });
    }

    /// Prelude, body xN, epilogue execute in order with correct counts.
    #[test]
    fn segments_execute_in_order() {
        let mut eng = Engine::new(true);
        eng.spawn(
            "lane",
            Script {
                prelude: vec![Op::Busy(1.0, "warmup")],
                body: vec![Op::Busy(2.0, "iter")],
                body_repeats: 3,
                epilogue: vec![Op::Busy(4.0, "drain")],
            },
        );
        let stats = eng.run(100).expect("runs");
        assert!((stats.end_time - 11.0).abs() < 1e-12);
        let labels: Vec<&str> = stats.trace.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["warmup", "iter", "iter", "iter", "drain"]);
    }

    /// An empty script retires immediately.
    #[test]
    fn empty_script_is_done() {
        let mut eng = Engine::new(false);
        eng.spawn("lane", Script::default());
        let stats = eng.run(10).expect("runs");
        assert_eq!(stats.end_time, 0.0);
    }
}
