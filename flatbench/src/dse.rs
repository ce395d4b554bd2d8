//! `dse-sweep`: the dataflow search, the closed-form cost model and the
//! event simulator, over a grid of platforms × models × sequence lengths.
//! No kernel or serving code runs.

use crate::harness::{debug_hash, Size, Tracer, Workload};
use flat::arch::Accelerator;
use flat::core::{CostModel, CostReport, LaExecution};
use flat::desim::{simulate_la_event, EventOptions, EventReport};
use flat::dse::{la_points, DesignPoint, Dse, Objective, SpaceKind};
use flat::workloads::{AttentionBlock, Model};
use std::hint::black_box;

const BATCH: u64 = 64;
/// Largest relative gap between the closed form and the event simulator
/// allowed on a winner (uncontended, two staging buffers).
const MAX_DIVERGENCE: f64 = 0.05;

/// One grid point.
struct Point {
    label: String,
    accel: Accelerator,
    block: AttentionBlock,
}

/// The grid: one op searches one point; a pass visits every point once.
/// The grid is fixed, so the seed does not change this workload's inputs.
pub struct DseSweep {
    points: Vec<Point>,
}

/// What one op computed: the search winner, the closed form and the
/// event simulator on it.
pub struct DseOut {
    best: DesignPoint,
    closed: CostReport,
    event: EventReport,
}

impl Workload for DseSweep {
    type Out = DseOut;
    const NAME: &'static str = "dse-sweep";
    const TRACE_OPS: usize = 500;

    fn layers() -> Vec<(&'static str, &'static str)> {
        vec![
            ("dse.best_la_ms", "ms"),
            ("dse.candidates", "count"),
            ("dse.candidates_per_s", "1/s"),
            ("core.la_cost_us", "us"),
            ("dse.parallel_speedup", "x"),
            ("desim.simulate_ms", "ms"),
            ("desim.simulated_iterations", "count"),
            ("desim.ns_per_iteration", "ns"),
            ("desim.max_abs_divergence", "ratio"),
            ("dse.sim.best_util_mean", "ratio"),
        ]
    }

    fn setup(_seed: u64, size: Size) -> Self {
        let (models, seqs): (&[&str], &[u64]) = match size {
            Size::Full => (
                &["bert", "trxl", "flaubert", "t5", "xlm"],
                &[512, 2048, 8192, 16384, 65536],
            ),
            Size::Smoke => (&["bert"], &[64]),
        };
        let mut points = Vec::new();
        for (platform, accel) in [
            ("edge", Accelerator::edge()),
            ("cloud", Accelerator::cloud()),
        ] {
            for &name in models {
                let model = Model::by_name(name).expect("a zoo model");
                for &seq in seqs {
                    points.push(Point {
                        label: format!("{platform}/{name}/{seq}"),
                        accel: accel.clone(),
                        block: model.block(BATCH, seq),
                    });
                }
            }
        }
        DseSweep { points }
    }

    fn inputs(&self) -> usize {
        self.points.len()
    }

    fn pass(&self) -> usize {
        self.points.len()
    }

    fn run(&self, input: usize, tr: &mut Tracer) -> Result<DseOut, String> {
        let p = &self.points[input];
        let best = tr.span("dse.best_la_ms", |_| {
            Dse::new(&p.accel, &p.block).best_la(SpaceKind::Full, Objective::MaxUtil)
        });
        let closed = tr.span("core.la_cost", |_| {
            CostModel::new(&p.accel).la_cost(&p.block, &best.la)
        });
        let opts = EventOptions {
            buffers: 2,
            ..EventOptions::default()
        };
        let event = tr
            .span("desim.simulate_ms", |_| {
                simulate_la_event(&p.accel, &p.block, &best.la, opts)
            })
            .map_err(|e| format!("{}: {e:?}", p.label))?;
        Ok(DseOut {
            best,
            closed,
            event,
        })
    }

    fn check(&self, input: usize, out: &DseOut, tr: &mut Tracer) -> Result<u64, String> {
        let p = &self.points[input];
        if out.closed != out.best.report {
            return Err(format!(
                "{}: la_cost disagrees with the search on its own winner",
                p.label
            ));
        }
        let divergence = (out.event.cycles - out.closed.cycles) / out.closed.cycles;
        if divergence.is_nan() || divergence.abs() > MAX_DIVERGENCE {
            return Err(format!(
                "{}: event simulator diverges {:+.2}% from the closed form",
                p.label,
                divergence * 100.0
            ));
        }
        let candidates = la_points(SpaceKind::Full, p.block.config().seq_q).len();
        tr.add("dse.candidates", candidates as f64);
        tr.add(
            "desim.simulated_iterations",
            out.event.simulated_iterations as f64,
        );
        tr.add("desim.divergence", divergence.abs());
        tr.add("dse.sim.best_util", out.best.report.util());
        Ok(debug_hash(&(&out.best, &out.event)))
    }

    /// Serial replays of `la_cost` over every candidate of every point,
    /// the baseline the parallel search is compared against.
    fn replay(&self, tr: &mut Tracer) {
        for p in &self.points {
            let candidates: Vec<LaExecution> = la_points(SpaceKind::Full, p.block.config().seq_q);
            let cm = CostModel::new(&p.accel);
            let ((), ms) = tr.time("core.la_cost_serial", |_| {
                for la in &candidates {
                    black_box(cm.la_cost(&p.block, la));
                }
            });
            tr.add("core.la_cost_serial_ms", ms);
            tr.add("core.la_cost_us", ms * 1e3 / candidates.len() as f64);
        }
    }

    fn layer_values(&self, tr: &Tracer) -> Vec<f64> {
        let best_ms = tr.mean("dse.best_la_ms");
        let sim_ms = tr.mean("desim.simulate_ms");
        vec![
            best_ms,
            tr.mean("dse.candidates"),
            tr.mean("dse.candidates") / (best_ms / 1e3),
            tr.mean("core.la_cost_us"),
            tr.mean("core.la_cost_serial_ms") / best_ms,
            sim_ms,
            tr.mean("desim.simulated_iterations"),
            sim_ms * 1e6 / tr.mean("desim.simulated_iterations"),
            tr.max("desim.divergence"),
            tr.mean("dse.sim.best_util"),
        ]
    }
}
