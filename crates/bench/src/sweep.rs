//! The Figure 8/9 sweep engine: utilization and energy of every dataflow
//! in the comparison menu, across on-chip buffer sizes and sequence
//! lengths, at all three analysis scopes.

use flat_arch::Accelerator;
use flat_core::{BlockDataflow, CostModel, Granularity};
use flat_dse::{Dse, Objective, SpaceKind};
use flat_tensor::Bytes;
use flat_workloads::{Model, Scope};
use serde::{Deserialize, Serialize};

/// One point of a Figure 8/9 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Analysis level (L-A / Block / Model).
    pub scope: String,
    /// Sequence length.
    pub seq: u64,
    /// On-chip buffer capacity swept to.
    pub sg: Bytes,
    /// Dataflow label (`Base`, `Base-M`, `FLAT-R64`, `FLAT-opt`, …).
    pub dataflow: String,
    /// Compute-resource utilization (§6.1).
    pub util: f64,
    /// Energy in picojoules at this scope.
    pub energy_pj: f64,
    /// Live memory footprint the dataflow wanted.
    pub footprint: Bytes,
}

/// A menu entry: either a fixed dataflow or a DSE-optimized one.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Fixed(BlockDataflow),
    Opt(SpaceKind),
}

/// The comparison menu of Figure 8: Base, Base-X, Base-opt, FLAT-X,
/// FLAT-Rx, FLAT-opt. Row counts follow the paper's note that the cloud
/// platform uses larger Rx (its array is 64× bigger).
fn menu(platform: &Accelerator) -> Vec<(String, Entry)> {
    let rxs: [u64; 2] = if platform.pe.count() >= 65536 {
        [256, 1024]
    } else {
        [32, 128]
    };
    let mut m: Vec<(String, Entry)> = vec![
        ("Base".into(), Entry::Fixed(BlockDataflow::base())),
        (
            "Base-M".into(),
            Entry::Fixed(BlockDataflow::base_staged(Granularity::BatchMultiHead)),
        ),
        (
            "Base-B".into(),
            Entry::Fixed(BlockDataflow::base_staged(Granularity::Batch)),
        ),
        (
            "Base-H".into(),
            Entry::Fixed(BlockDataflow::base_staged(Granularity::Head)),
        ),
        ("Base-opt".into(), Entry::Opt(SpaceKind::Sequential)),
        (
            "FLAT-M".into(),
            Entry::Fixed(BlockDataflow::flat(Granularity::BatchMultiHead)),
        ),
        (
            "FLAT-B".into(),
            Entry::Fixed(BlockDataflow::flat(Granularity::Batch)),
        ),
        (
            "FLAT-H".into(),
            Entry::Fixed(BlockDataflow::flat(Granularity::Head)),
        ),
    ];
    for r in rxs {
        m.push((
            format!("FLAT-R{r}"),
            Entry::Fixed(BlockDataflow::flat(Granularity::Row(r))),
        ));
    }
    m.push(("FLAT-opt".into(), Entry::Opt(SpaceKind::Full)));
    m
}

/// Runs the full sweep for one platform and model.
///
/// For every `(sequence, buffer)` grid point and menu entry, prices the
/// L-A pair and the whole block, then emits one record per analysis scope
/// (Model scope scales energy by the block count; utilization is
/// invariant under block repetition). `-opt` entries take their dataflow
/// from the DSE, whose search already fans out over the shared pool.
#[must_use]
pub fn buffer_sweep(
    platform: &Accelerator,
    model: &Model,
    seqs: &[u64],
    sgs: &[Bytes],
) -> Vec<SweepRecord> {
    let menu = menu(platform);
    let blocks = model.blocks() as f64;
    let mut records = Vec::new();
    for &seq in seqs {
        let block = model.block(crate::BATCH, seq);
        for &sg in sgs {
            let accel = platform.with_sg(sg);
            let cm = CostModel::new(&accel);
            let dse = Dse::new(&accel, &block);
            for (label, entry) in &menu {
                let df = match *entry {
                    Entry::Fixed(df) => df,
                    Entry::Opt(space) => {
                        let la = dse.best_la(space, Objective::MaxUtil);
                        let (others, _) = dse.best_others(Objective::MaxUtil);
                        BlockDataflow { la: la.la, others }
                    }
                };
                let la = cm.la_cost(&block, &df.la);
                let blk = cm.block_cost(&block, &df).total();
                for (scope, report, energy_scale) in [
                    (Scope::LogitAttend, la, 1.0),
                    (Scope::Block, blk, 1.0),
                    (Scope::Model, blk, blocks),
                ] {
                    records.push(SweepRecord {
                        scope: scope.to_string(),
                        seq,
                        sg,
                        dataflow: label.clone(),
                        util: report.util(),
                        energy_pj: report.energy.total_pj() * energy_scale,
                        footprint: report.footprint,
                    });
                }
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_emits_all_scopes_and_entries() {
        let accel = Accelerator::edge();
        let recs = buffer_sweep(
            &accel,
            &Model::bert(),
            &[512],
            &[Bytes::from_kib(512), Bytes::from_mib(64)],
        );
        // 11 menu entries x 2 buffers x 3 scopes.
        assert_eq!(recs.len(), 11 * 2 * 3);
        assert!(recs.iter().any(|r| r.dataflow == "FLAT-opt"));
        assert!(recs.iter().all(|r| r.util > 0.0 && r.util <= 1.0));
    }

    /// The Figure 8 headline at one grid point: with the real edge buffer,
    /// FLAT-opt's L-A utilization beats Base-opt's.
    #[test]
    fn flat_opt_beats_base_opt_at_edge_512() {
        let accel = Accelerator::edge();
        let recs = buffer_sweep(&accel, &Model::bert(), &[512], &[Bytes::from_kib(512)]);
        let get = |name: &str| {
            recs.iter()
                .find(|r| r.dataflow == name && r.scope == "L-A")
                .map(|r| r.util)
                .unwrap()
        };
        assert!(get("FLAT-opt") > get("Base-opt"));
        assert!(get("FLAT-opt") > 0.7, "FLAT-opt = {}", get("FLAT-opt"));
    }
}
