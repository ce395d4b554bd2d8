//! L2 tiling: how much of each operand the global scratchpad stages per
//! pass, and the DRAM refetch multipliers that follow.
//!
//! The SG is the only defense against DRAM refetches for a *streamed*
//! (non-L3-staged) tensor: each L2 tile is fetched from DRAM once per pass
//! that needs it, so the loop structure over L2 tiles fixes the off-chip
//! traffic. We model the three canonical one-level tiled-GEMM loop orders,
//! keyed to the same [`Stationarity`] knob as the array mapping:
//!
//! * **Output-reuse** (`Output`): psum block resident, contraction
//!   innermost — `A: m·k·⌈n/tn⌉`, `B: k·n·⌈m/tm⌉`, `C: m·n` (write once).
//! * **B-reuse** (`Weight`): weight block resident —
//!   `A: m·k·⌈n/tn⌉`, `B: k·n` (once), `C: m·n·(2·⌈k/tk⌉−1)` (psum spill).
//! * **A-reuse** (`Input`): `A: m·k` (once), `B: k·n·⌈m/tm⌉`,
//!   `C: m·n·(2·⌈k/tk⌉−1)`.
//!
//! [`choose_l2_tiling`] picks `(tm, tk, tn)` to minimize total DRAM traffic
//! subject to the SG working-set budget — this is why the paper's `Base`
//! curve climbs with buffer size even without any L3 tier.

use crate::Stationarity;
use flat_tensor::{ceil_div, Gemm};

/// A chosen L2 tiling with its SG working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Tiling {
    /// Tile extent along `m`.
    pub tm: u64,
    /// Tile extent along `k`.
    pub tk: u64,
    /// Tile extent along `n`.
    pub tn: u64,
    /// SG elements the tiling needs resident (double-buffered operand
    /// tiles plus a psum/output block).
    pub working_set_elems: u64,
}

/// DRAM traffic (elements) for one GEMM's three tensors when *streamed*
/// through the SG at a given L2 tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramTraffic {
    /// `A`-operand elements crossing the off-chip link.
    pub a: u64,
    /// `B`-operand elements.
    pub b: u64,
    /// Output (and spilled partial-sum) elements.
    pub c: u64,
}

impl DramTraffic {
    /// Total off-chip elements.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.a + self.b + self.c
    }
}

/// SG working set of a tiling, in elements: double-buffered `A` and `B`
/// tiles plus a psum/output block (psums held at accumulator precision
/// when the contraction is tiled).
#[must_use]
pub fn working_set_elems(gemm: &Gemm, tm: u64, tk: u64, tn: u64) -> u64 {
    let (fixed, per_tn) = working_set_terms(tm, tk, ceil_div(gemm.k, tk));
    fixed + tn * per_tn
}

/// [`working_set_elems`] as `fixed + tn · per_tn`, from `ik = ⌈k/tk⌉`.
fn working_set_terms(tm: u64, tk: u64, ik: u64) -> (u64, u64) {
    let psum_factor = if ik > 1 { 4 } else { 2 };
    (2 * tm * tk, 2 * tk + psum_factor * tm)
}

/// DRAM traffic of a streamed GEMM at tiling `(tm, tk, tn)` under `stat`.
#[must_use]
pub fn dram_traffic(gemm: &Gemm, stat: Stationarity, tm: u64, tk: u64, tn: u64) -> DramTraffic {
    let (im, gim) = (ceil_div(gemm.m, tm), ceil_div(gemm.batch * gemm.m, tm));
    let (ik, in_) = (ceil_div(gemm.k, tk), ceil_div(gemm.n, tn));
    traffic(gemm, stat, im, gim, ik, in_)
}

/// [`dram_traffic`] from the tile counts `im = ⌈m/tm⌉`, `gim = ⌈g·m/tm⌉`,
/// `ik = ⌈k/tk⌉` and `in_ = ⌈n/tn⌉`.
fn traffic(gemm: &Gemm, stat: Stationarity, im: u64, gim: u64, ik: u64, in_: u64) -> DramTraffic {
    let g = gemm.batch;
    let (m, k, n) = (gemm.m, gemm.k, gemm.n);
    // A weight shared across the batch behaves like a single GEMM with
    // m_total = G·m rows for the purpose of B refetches.
    let b_refetch = || -> u64 {
        if gemm.weight_shared {
            k * n * gim.min(g * im)
        } else {
            g * k * n * im
        }
    };
    match stat {
        Stationarity::Output => DramTraffic {
            a: g * m * k * in_,
            b: b_refetch(),
            c: g * m * n,
        },
        Stationarity::Weight => DramTraffic {
            a: g * m * k * in_,
            b: if gemm.weight_shared { k * n } else { g * k * n },
            c: g * m * n * (2 * ik - 1),
        },
        Stationarity::Input => DramTraffic {
            a: g * m * k,
            b: b_refetch(),
            c: g * m * n * (2 * ik - 1),
        },
    }
}

/// Tile extents tried along a dimension: powers of two below `dim`, then
/// `dim` itself.
fn tile_candidates(dim: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(1), move |&t| (t < dim).then(|| (2 * t).min(dim)))
}

/// Picks the L2 tiling that minimizes streamed DRAM traffic within an SG
/// budget of `budget_elems`.
///
/// Candidates are powers of two below each dimension plus the dimension
/// itself — up to 17 per dimension at 64K, so 4,913 `(tm, tk, tn)` points.
/// Only the `(tm, tk)` rows are walked; each row's `tn` is closed form.
/// The working set grows strictly with `tn`, so the tiles that fit are a
/// prefix of the row, and traffic either ignores `tn` (`Input`) or falls
/// strictly with `⌈n/tn⌉` (`Output`, `Weight`). A row's winner is thus
/// its smallest `tn` (`Input`) or its largest fitting one. The result is
/// the exhaustive search's: least traffic, then least working set, then
/// the first tile in `(tm, tk, tn)` order, with `(1, 1, 1)` always allowed.
#[must_use]
pub fn choose_l2_tiling(gemm: &Gemm, stat: Stationarity, budget_elems: u64) -> L2Tiling {
    let tks: Vec<(u64, u64)> = tile_candidates(gemm.k)
        .map(|tk| (tk, ceil_div(gemm.k, tk)))
        .collect();
    let tns: Vec<(u64, u64)> = tile_candidates(gemm.n)
        .map(|tn| (tn, ceil_div(gemm.n, tn)))
        .collect();
    let mut best: Option<(u64, L2Tiling)> = None;
    for tm in tile_candidates(gemm.m) {
        let (im, gim) = (ceil_div(gemm.m, tm), ceil_div(gemm.batch * gemm.m, tm));
        for &(tk, ik) in &tks {
            let (fixed, per_tn) = working_set_terms(tm, tk, ik);
            let fit = budget_elems
                .checked_sub(fixed)
                .map_or(0, |room| room / per_tn);
            // tns[e] is 2^e below n, and the last entry is n itself.
            let largest = if fit >= gemm.n {
                tns.len() - 1
            } else if fit > 0 {
                fit.ilog2() as usize
            } else if (tm, tk) == (1, 1) {
                0
            } else {
                continue;
            };
            // Input traffic does not depend on tn, so the least working
            // set, tn = 1, wins the row.
            let e = if stat == Stationarity::Input {
                0
            } else {
                largest
            };
            let (tn, in_) = tns[e];
            let ws = working_set_elems(gemm, tm, tk, tn);
            let traffic = traffic(gemm, stat, im, gim, ik, in_).total();
            // Ties break toward the smaller working set: equal DRAM
            // traffic at less SG leaves more room for L3/FLAT staging.
            let better = match &best {
                None => true,
                Some((t, cur)) => traffic < *t || (traffic == *t && ws < cur.working_set_elems),
            };
            if better {
                best = Some((
                    traffic,
                    L2Tiling {
                        tm,
                        tk,
                        tn,
                        working_set_elems: ws,
                    },
                ));
            }
        }
    }
    best.expect("the (1, 1, 1) tile is always a candidate").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exhaustive `(tm, tk, tn)` search [`choose_l2_tiling`] must
    /// reproduce bit for bit.
    fn reference_choose_l2_tiling(gemm: &Gemm, stat: Stationarity, budget_elems: u64) -> L2Tiling {
        let cands = |dim: u64| -> Vec<u64> {
            let mut v = Vec::new();
            let mut t = 1u64;
            while t < dim {
                v.push(t);
                t *= 2;
            }
            v.push(dim);
            v
        };
        let mut best: Option<(u64, L2Tiling)> = None;
        for &tm in &cands(gemm.m) {
            for &tk in &cands(gemm.k) {
                for &tn in &cands(gemm.n) {
                    let ws = working_set_elems(gemm, tm, tk, tn);
                    if ws > budget_elems && (tm, tk, tn) != (1, 1, 1) {
                        continue;
                    }
                    let traffic = dram_traffic(gemm, stat, tm, tk, tn).total();
                    let better = match &best {
                        None => true,
                        Some((t, cur)) => {
                            traffic < *t || (traffic == *t && ws < cur.working_set_elems)
                        }
                    };
                    if better {
                        best = Some((
                            traffic,
                            L2Tiling {
                                tm,
                                tk,
                                tn,
                                working_set_elems: ws,
                            },
                        ));
                    }
                }
            }
        }
        best.expect("candidate set is never empty").1
    }

    /// GEMM extents up to 70,000: odd (never a candidate below the
    /// extent itself), powers of two, and small.
    fn dims() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..35_000).prop_map(|x| 2 * x + 1),
            (0u32..17).prop_map(|e| 1u64 << e),
            1u64..17,
        ]
    }

    /// SG budgets: none, tiny, mid-size and unbounded.
    fn budgets() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1u64..64, 64u64..4_000_000, Just(u64::MAX)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn closed_form_matches_exhaustive_search(
            batch in 1u64..2048,
            m in dims(),
            k in dims(),
            n in dims(),
            shared in any::<bool>(),
            stat in prop::sample::select(Stationarity::all().to_vec()),
            budget in budgets(),
        ) {
            let gemm = if shared {
                Gemm::with_shared_weight(batch, m, k, n)
            } else {
                Gemm::new(batch, m, k, n)
            };
            prop_assert_eq!(
                choose_l2_tiling(&gemm, stat, budget),
                reference_choose_l2_tiling(&gemm, stat, budget),
                "{:?} {:?} budget {}", gemm, stat, budget
            );
        }
    }

    #[test]
    fn big_budget_reaches_compulsory_traffic() {
        // With the whole problem fitting, every tensor moves once.
        let gemm = Gemm::new(1, 256, 64, 256);
        let t = choose_l2_tiling(&gemm, Stationarity::Output, u64::MAX);
        let d = dram_traffic(&gemm, Stationarity::Output, t.tm, t.tk, t.tn);
        assert_eq!(d.a, gemm.a_elements());
        assert_eq!(d.b, gemm.b_elements());
        assert_eq!(d.c, gemm.c_elements());
    }

    #[test]
    fn traffic_monotone_in_budget() {
        let gemm = Gemm::new(8, 2048, 64, 2048);
        let mut last = u64::MAX;
        for budget in [512, 4096, 32_768, 262_144, 4_194_304] {
            for stat in Stationarity::all() {
                let t = choose_l2_tiling(&gemm, stat, budget);
                assert!(t.working_set_elems <= budget.max(8));
                let _ = t;
            }
            let t = choose_l2_tiling(&gemm, Stationarity::Weight, budget);
            let total = dram_traffic(&gemm, Stationarity::Weight, t.tm, t.tk, t.tn).total();
            assert!(total <= last, "budget {budget}: {total} > {last}");
            last = total;
        }
    }

    #[test]
    fn weight_stationary_fetches_weight_once() {
        let gemm = Gemm::new(4, 512, 64, 512);
        let d = dram_traffic(&gemm, Stationarity::Weight, 32, 32, 32);
        assert_eq!(d.b, 4 * 64 * 512);
    }

    #[test]
    fn shared_weight_fetched_once_total_under_ws() {
        let gemm = Gemm::with_shared_weight(64, 512, 768, 768);
        let d = dram_traffic(&gemm, Stationarity::Weight, 64, 64, 64);
        assert_eq!(d.b, 768 * 768);
    }

    #[test]
    fn untiled_contraction_avoids_psum_spill() {
        let gemm = Gemm::new(1, 512, 64, 512);
        // tk = k: single contraction pass, outputs written once.
        let d = dram_traffic(&gemm, Stationarity::Weight, 64, 64, 512);
        assert_eq!(d.c, 512 * 512);
        // tk < k: psums spill (2 passes -> 3x output traffic).
        let d = dram_traffic(&gemm, Stationarity::Weight, 64, 32, 512);
        assert_eq!(d.c, 512 * 512 * 3);
    }

    #[test]
    fn working_set_counts_double_buffers_and_psums() {
        let gemm = Gemm::new(1, 128, 128, 128);
        // Full-k tile: fp16 output block.
        assert_eq!(
            working_set_elems(&gemm, 16, 128, 16),
            2 * (16 * 128 + 128 * 16) + 2 * 256
        );
        // Tiled k: fp32 psum block.
        assert_eq!(
            working_set_elems(&gemm, 16, 32, 16),
            2 * (16 * 32 + 32 * 16) + 4 * 256
        );
    }

    #[test]
    fn chooser_respects_budget() {
        let gemm = Gemm::new(2, 4096, 512, 4096);
        let t = choose_l2_tiling(&gemm, Stationarity::Output, 10_000);
        assert!(t.working_set_elems <= 10_000);
    }

    #[test]
    fn tiny_budget_still_returns_a_tiling() {
        let gemm = Gemm::new(1, 64, 64, 64);
        let t = choose_l2_tiling(&gemm, Stationarity::Input, 0);
        assert_eq!((t.tm, t.tk, t.tn), (1, 1, 1));
    }
}
