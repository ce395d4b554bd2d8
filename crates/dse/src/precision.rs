//! Joint precision × softmax-family exploration: answers "is bf16 +
//! FLASH-D worth it over f32 + exact softmax?" with costs, not vibes.
//!
//! Each [`PrecisionChoice`] pairs a storage element width with a softmax
//! algorithm. For every choice the block is re-typed to that width and the
//! cost model re-optioned to that softmax kind, then the *dataflow* search
//! runs inside it — so each precision competes with its own best dataflow,
//! not with a dataflow tuned for another width. The result set feeds a
//! cycles-vs-energy Pareto frontier ([`precision_pareto`]).

use crate::search::best_priced;
use crate::{la_points, Dse, Objective, SpaceKind};
use flat_core::{CostModel, CostReport, LaExecution, ModelOptions};
use flat_tensor::{DataType, SoftmaxKind};
use flat_workloads::AttentionBlock;
use serde::{Deserialize, Serialize};

/// One point in the precision plane: a storage width and a softmax kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrecisionChoice {
    /// Element width Q/K/V/logits are stored at.
    pub dtype: DataType,
    /// Softmax family member the SFU runs.
    pub softmax: SoftmaxKind,
}

impl PrecisionChoice {
    /// The full cross product, reference (`fp32` × `exact`) first.
    #[must_use]
    pub fn all() -> Vec<PrecisionChoice> {
        let mut out = vec![PrecisionChoice {
            dtype: DataType::Fp32,
            softmax: SoftmaxKind::Exact,
        }];
        for &dtype in DataType::all() {
            for &softmax in SoftmaxKind::all() {
                let c = PrecisionChoice { dtype, softmax };
                if c != out[0] {
                    out.push(c);
                }
            }
        }
        out
    }

    /// `"bf16+flash-d"`-style label for tables and JSON keys.
    #[must_use]
    pub fn label(&self) -> String {
        let kind = match self.softmax {
            SoftmaxKind::Exact => "exact",
            SoftmaxKind::FlashD => "flash-d",
            SoftmaxKind::LogLut => "log-lut",
        };
        format!("{}+{kind}", self.dtype)
    }
}

/// A precision choice with the best dataflow found inside it and that
/// dataflow's cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionPoint {
    /// The storage width / softmax pairing.
    pub choice: PrecisionChoice,
    /// Best L-A execution for this pairing.
    pub la: LaExecution,
    /// Its cost, priced at the pairing's width and softmax kind.
    pub report: CostReport,
}

impl Dse<'_> {
    /// Searches the dataflow space once per [`PrecisionChoice`] and
    /// returns every (choice, best dataflow) pair.
    ///
    /// # Example
    ///
    /// ```
    /// use flat_arch::Accelerator;
    /// use flat_dse::{Dse, Objective, SpaceKind};
    /// use flat_workloads::Model;
    ///
    /// let accel = Accelerator::edge();
    /// let block = Model::bert().block(64, 512);
    /// let points = Dse::new(&accel, &block)
    ///     .explore_precision(SpaceKind::Full, Objective::MinEnergy);
    /// assert_eq!(points.len(), flat_dse::PrecisionChoice::all().len());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the dataflow space is empty (it never is for the
    /// provided [`SpaceKind`]s).
    #[must_use]
    pub fn explore_precision(&self, space: SpaceKind, objective: Objective) -> Vec<PrecisionPoint> {
        let cfg = *self.block.config();
        let points = la_points(space, cfg.seq_q);
        PrecisionChoice::all()
            .into_iter()
            .map(|choice| {
                let block = AttentionBlock::new(cfg.with_dtype(choice.dtype));
                let cm = CostModel::with_options(
                    self.accel,
                    ModelOptions {
                        softmax: choice.softmax,
                        ..Default::default()
                    },
                );
                let best = best_priced(&cm, &block, &points, objective);
                PrecisionPoint {
                    choice,
                    la: best.la,
                    report: best.report,
                }
            })
            .collect()
    }
}

/// Cycles-vs-energy Pareto frontier of precision points: keeps points no
/// other point beats on *both* runtime and energy. Returned sorted by
/// cycles ascending (so energy descends along the frontier).
#[must_use]
pub fn precision_pareto(points: &[PrecisionPoint]) -> Vec<PrecisionPoint> {
    let mut sorted: Vec<PrecisionPoint> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.report
            .cycles
            .partial_cmp(&b.report.cycles)
            .expect("finite")
            .then(
                a.report
                    .energy
                    .total_pj()
                    .partial_cmp(&b.report.energy.total_pj())
                    .expect("finite"),
            )
    });
    let mut frontier: Vec<PrecisionPoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in sorted {
        if p.report.energy.total_pj() < best_energy {
            best_energy = p.report.energy.total_pj();
            frontier.push(p);
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_arch::Accelerator;
    use flat_workloads::Model;

    fn points() -> Vec<PrecisionPoint> {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        Dse::new(&accel, &block).explore_precision(SpaceKind::Full, Objective::MinEnergy)
    }

    #[test]
    fn choice_set_is_the_full_cross_product_reference_first() {
        let all = PrecisionChoice::all();
        assert_eq!(all.len(), DataType::all().len() * SoftmaxKind::all().len());
        assert_eq!(
            all[0],
            PrecisionChoice {
                dtype: DataType::Fp32,
                softmax: SoftmaxKind::Exact
            }
        );
        // No duplicates.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn bf16_flash_d_prices_cheaper_in_energy_than_f32_exact() {
        let pts = points();
        let find = |dtype, softmax| {
            pts.iter()
                .find(|p| p.choice == PrecisionChoice { dtype, softmax })
                .expect("choice present")
        };
        let f32_exact = find(DataType::Fp32, SoftmaxKind::Exact);
        let bf16_flashd = find(DataType::Bf16, SoftmaxKind::FlashD);
        assert!(
            bf16_flashd.report.energy.total_pj() < f32_exact.report.energy.total_pj(),
            "bf16+flash-d {} pJ vs f32+exact {} pJ",
            bf16_flashd.report.energy.total_pj(),
            f32_exact.report.energy.total_pj()
        );
        assert!(bf16_flashd.report.cycles <= f32_exact.report.cycles * (1.0 + 1e-9));
    }

    #[test]
    fn pareto_front_contains_a_sub_f32_width_and_is_monotone() {
        let front = precision_pareto(&points());
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].report.cycles <= w[1].report.cycles);
            assert!(w[0].report.energy.total_pj() > w[1].report.energy.total_pj());
        }
        // The frontier must exploit reduced width somewhere: some member
        // is cheaper in energy than the f32+exact reference.
        let all = points();
        let reference = all
            .iter()
            .find(|p| {
                p.choice
                    == PrecisionChoice {
                        dtype: DataType::Fp32,
                        softmax: SoftmaxKind::Exact,
                    }
            })
            .unwrap();
        assert!(front.iter().any(|p| p.report.energy.total_pj()
            < reference.report.energy.total_pj()
            && p.choice.dtype.size_bits() < 32));
    }

    #[test]
    fn labels_are_unique_and_parseable_shape() {
        let all = PrecisionChoice::all();
        let labels: std::collections::HashSet<_> = all.iter().map(PrecisionChoice::label).collect();
        assert_eq!(labels.len(), all.len());
        assert!(labels.contains("bf16+flash-d"));
        assert!(labels.contains("fp32+exact"));
    }
}
