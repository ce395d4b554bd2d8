//! Off-chip bandwidth requirement search (Figure 12(b), `flat bw`): the
//! smallest DRAM bandwidth at which a design space's best L-A dataflow
//! sustains a target utilization.

use crate::{Dse, Objective, SpaceKind};
use flat_arch::Accelerator;
use flat_workloads::AttentionBlock;

/// Bounds of the bandwidth bisection, bytes/s.
const BW_LO: f64 = 1.0e8; // 100 MB/s
const BW_HI: f64 = 1.0e14; // 100 TB/s

/// The bisection stops once the bracket's upper end is within this
/// factor of its lower end.
const BW_RATIO: f64 = 1.05;

/// The smallest off-chip bandwidth (bytes/s) at which the best L-A
/// dataflow of `space` on `accel` reaches `target_util`, re-optimizing
/// the dataflow at every bandwidth tried. `None` when even the 100 TB/s
/// ceiling cannot reach it (the space is compute- or NoC-limited below
/// it).
///
/// Bisects 100 MB/s – 100 TB/s at the geometric midpoint until the
/// bracket is within 5%, and returns its upper end. More bandwidth never
/// slows the modeled accelerator, so the best utilization is monotone
/// non-decreasing in it and the bracket always holds the answer.
///
/// # Example
///
/// ```
/// use flat_arch::Accelerator;
/// use flat_dse::{required_offchip_bw, SpaceKind};
/// use flat_workloads::Model;
///
/// let accel = Accelerator::cloud();
/// let block = Model::xlm().block(64, 4096);
/// let flat = required_offchip_bw(&accel, &block, SpaceKind::Full, 0.9);
/// assert!(flat.is_some_and(|bw| bw < 1.0e14));
/// ```
#[must_use]
pub fn required_offchip_bw(
    accel: &Accelerator,
    block: &AttentionBlock,
    space: SpaceKind,
    target_util: f64,
) -> Option<f64> {
    let util_at = |bw: f64| {
        Dse::new(&accel.with_offchip_bw(bw), block)
            .best_la(space, Objective::MaxUtil)
            .report
            .util()
    };
    if util_at(BW_HI) < target_util {
        return None;
    }
    let (mut lo, mut hi) = (BW_LO, BW_HI);
    while hi / lo > BW_RATIO {
        let mid = (lo * hi).sqrt();
        if util_at(mid) >= target_util {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_workloads::Model;

    /// Figure 12(b)'s core claim: FLAT needs far less off-chip bandwidth
    /// than the best sequential baseline to sustain high utilization.
    #[test]
    fn flat_needs_less_bandwidth_than_base() {
        let accel = Accelerator::cloud();
        let block = Model::xlm().block(64, 8192);
        let need = |space| required_offchip_bw(&accel, &block, space, 0.9);
        let flat = need(SpaceKind::Full).expect("FLAT-opt reaches 0.9");
        let base = need(SpaceKind::Sequential).expect("Base-opt reaches 0.9");
        assert!(flat < base * 0.5, "flat {flat} vs base {base}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        let accel = Accelerator::edge();
        let block = Model::bert().block(64, 512);
        // Util 1.0 exactly is unreachable: NoC overhead always exists.
        assert!(required_offchip_bw(&accel, &block, SpaceKind::BaseOnly, 1.0).is_none());
    }
}
