//! The analytical/event agreement harness.
//!
//! [`agreement`] runs the closed-form pricing and an event simulation of
//! one configuration and reports their relative divergence
//! ([`agreement_with_report`] also returns the event run);
//! [`agreement_sweep`] does so across the seq-len × dataflow grid the
//! validation suite and `flat sim --engine both --sweep` report.

use crate::{simulate_la_event, EngineError, EventOptions, EventReport};
use flat_arch::Accelerator;
use flat_core::{
    CostModel, FusedDataflow, Granularity, LaExecution, OperatorDataflow, Stationarity,
};
use flat_workloads::{AttentionBlock, Model};

/// One analytical-vs-event comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    /// Cycles priced by the closed-form model.
    pub analytical_cycles: f64,
    /// Cycles measured by the event simulation.
    pub event_cycles: f64,
    /// Signed relative divergence
    /// `(event - analytical) / analytical`: positive means the event
    /// backend found the machine slower than the model's fold assumes.
    pub divergence: f64,
}

impl Agreement {
    /// Whether the two backends agree to within `tolerance` (relative,
    /// two-sided).
    #[must_use]
    pub fn within(&self, tolerance: f64) -> bool {
        self.divergence.abs() <= tolerance
    }
}

/// Runs both backends on one L-A configuration.
///
/// # Errors
///
/// Returns [`EngineError`] if the event executor's wiring livelocks or
/// deadlocks (an executor bug — never a property of valid inputs).
pub fn agreement(
    accel: &Accelerator,
    block: &AttentionBlock,
    la: &LaExecution,
    opts: EventOptions,
) -> Result<Agreement, EngineError> {
    agreement_with_report(accel, block, la, opts).map(|(agreement, _)| agreement)
}

/// [`agreement`], also handing back the event run it compared, so a
/// caller that wants that run's trace simulates once.
///
/// # Errors
///
/// As [`agreement`].
pub fn agreement_with_report(
    accel: &Accelerator,
    block: &AttentionBlock,
    la: &LaExecution,
    opts: EventOptions,
) -> Result<(Agreement, EventReport), EngineError> {
    let analytical = CostModel::with_options(accel, opts.model)
        .la_cost(block, la)
        .cycles;
    let report = simulate_la_event(accel, block, la, opts)?;
    let event = report.cycles;
    let agreement = Agreement {
        analytical_cycles: analytical,
        event_cycles: event,
        divergence: (event - analytical) / analytical,
    };
    Ok((agreement, report))
}

/// One row of an [`agreement_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementRow {
    /// Dataflow label (`"flat-r64"`, `"base"`, …).
    pub dataflow: String,
    /// Sequence length of the configuration.
    pub seq_len: u64,
    /// The comparison.
    pub agreement: Agreement,
}

/// The seq-len × dataflow grid of the validation sweep: FLAT at row,
/// coarse-row, and head granularity plus the sequential baseline, each
/// at every `seq_lens` entry, on a BERT-Base block.
///
/// # Errors
///
/// Propagates the first [`EngineError`] (executor bug), never a
/// data-dependent failure.
pub fn agreement_sweep(
    accel: &Accelerator,
    seq_lens: &[u64],
    opts: EventOptions,
) -> Result<Vec<AgreementRow>, EngineError> {
    let base_op = OperatorDataflow::baseline(Stationarity::Weight);
    let configs: [(&str, LaExecution); 4] = [
        (
            "flat-r64",
            LaExecution::Fused(FusedDataflow::new(Granularity::Row(64))),
        ),
        (
            "flat-r256",
            LaExecution::Fused(FusedDataflow::new(Granularity::Row(256))),
        ),
        (
            "flat-head",
            LaExecution::Fused(FusedDataflow::new(Granularity::Head)),
        ),
        (
            "base",
            LaExecution::Sequential {
                logit: base_op,
                attend: base_op,
            },
        ),
    ];
    let mut rows = Vec::with_capacity(seq_lens.len() * configs.len());
    for &seq in seq_lens {
        let block = Model::bert().block(64, seq);
        for (label, la) in &configs {
            rows.push(AgreementRow {
                dataflow: (*label).to_owned(),
                seq_len: seq,
                agreement: agreement(accel, &block, la, opts)?,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_reports_signed_divergence() {
        let a = Agreement {
            analytical_cycles: 100.0,
            event_cycles: 104.0,
            divergence: 0.04,
        };
        assert!(a.within(0.05));
        assert!(!a.within(0.03));
    }

    #[test]
    fn sweep_covers_the_grid() {
        let accel = Accelerator::edge();
        let rows = agreement_sweep(&accel, &[512, 1024], EventOptions::default()).expect("runs");
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|r| r.dataflow == "base"));
        assert!(rows.iter().all(|r| r.agreement.analytical_cycles > 0.0));
    }
}
