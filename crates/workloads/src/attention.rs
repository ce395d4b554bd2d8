//! Attention layer configuration.

use flat_tensor::{Bytes, DataType};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of one multi-head attention layer plus its surrounding
/// feed-forward block, following the notation of Figure 1:
///
/// * `B` — batch size,
/// * `H` — number of heads,
/// * `N` — sequence length (`seq_q` for the query side, `seq_kv` for the
///   key/value side; they differ only in cross-attention),
/// * `D` — hidden (embedding) dimension, with `dk = D / H` per head,
/// * `ffn` — the inner dimension of the two FC layers (typically `4·D`).
///
/// # Example
///
/// ```
/// use flat_workloads::AttentionConfig;
///
/// let cfg = AttentionConfig::self_attention(64, 16, 512, 1024, 4096);
/// assert_eq!(cfg.dk(), 64);
/// assert_eq!(cfg.logit_elements(), 64 * 16 * 512 * 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttentionConfig {
    /// Batch size `B`.
    pub batch: u64,
    /// Number of attention heads `H`.
    pub heads: u64,
    /// Query-side sequence length.
    pub seq_q: u64,
    /// Key/value-side sequence length (equals `seq_q` for self-attention).
    pub seq_kv: u64,
    /// Hidden dimension `D`.
    pub hidden: u64,
    /// Feed-forward inner dimension.
    pub ffn_hidden: u64,
    /// Element precision (the paper evaluates at 16-bit).
    pub dtype: DataType,
}

impl AttentionConfig {
    /// Creates a self-attention configuration (`seq_q == seq_kv`).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `hidden` is not divisible by
    /// `heads`.
    #[must_use]
    pub fn self_attention(batch: u64, heads: u64, seq: u64, hidden: u64, ffn_hidden: u64) -> Self {
        Self::cross_attention(batch, heads, seq, seq, hidden, ffn_hidden)
    }

    /// Creates a cross-attention configuration with distinct query and
    /// key/value sequence lengths (Figure 1 footnote).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `hidden` is not divisible by
    /// `heads`.
    #[must_use]
    pub fn cross_attention(
        batch: u64,
        heads: u64,
        seq_q: u64,
        seq_kv: u64,
        hidden: u64,
        ffn_hidden: u64,
    ) -> Self {
        assert!(
            batch > 0 && heads > 0 && seq_q > 0 && seq_kv > 0 && hidden > 0 && ffn_hidden > 0,
            "attention dimensions must be positive"
        );
        assert!(
            hidden.is_multiple_of(heads),
            "hidden dimension {hidden} must divide evenly across {heads} heads"
        );
        AttentionConfig {
            batch,
            heads,
            seq_q,
            seq_kv,
            hidden,
            ffn_hidden,
            dtype: DataType::default(),
        }
    }

    /// Per-head dimension `dk = D / H`.
    #[must_use]
    pub fn dk(&self) -> u64 {
        self.hidden / self.heads
    }

    /// True when query and key/value sides share a sequence length.
    #[must_use]
    pub fn is_self_attention(&self) -> bool {
        self.seq_q == self.seq_kv
    }

    /// Returns a copy with both sequence lengths set to `seq` (the knob the
    /// Figure 8–12 sweeps turn).
    #[must_use]
    pub fn with_seq(&self, seq: u64) -> Self {
        let mut c = *self;
        c.seq_q = seq;
        c.seq_kv = seq;
        c
    }

    /// Returns a copy with a different element precision.
    #[must_use]
    pub fn with_dtype(&self, dtype: DataType) -> Self {
        let mut c = *self;
        c.dtype = dtype;
        c
    }

    /// Elements of the intermediate (logit) tensor: `B · H · Nq · Nkv`.
    ///
    /// This is the `O(N²)` quantity the whole paper is about.
    #[must_use]
    pub fn logit_elements(&self) -> u64 {
        self.batch * self.heads * self.seq_q * self.seq_kv
    }

    /// Bytes of the intermediate (logit) tensor at the configured precision.
    #[must_use]
    pub fn logit_size(&self) -> Bytes {
        Bytes::new(self.logit_elements() * self.dtype.size_bytes())
    }

    /// On-chip buffer needed to stage one Q/K/V/O projection operator fully
    /// on-chip: weight `D²` plus input and output activations `2·N·D`
    /// (Table 1, "K/Q/V/O" row; per input sample, i.e. batch 1).
    #[must_use]
    pub fn qkvo_staging_size(&self) -> Bytes {
        let elems = self.hidden * self.hidden + 2 * self.seq_q * self.hidden;
        Bytes::new(elems * self.dtype.size_bytes())
    }

    /// On-chip buffer needed to stage the fused L/A pair fully on-chip:
    /// Q and K activations `2·N·D` plus the multi-head logit tensor `H·N²`
    /// (Table 1, "L/A" row; per input sample).
    #[must_use]
    pub fn la_staging_size(&self) -> Bytes {
        let elems = self.seq_q * self.hidden
            + self.seq_kv * self.hidden
            + self.heads * self.seq_q * self.seq_kv;
        Bytes::new(elems * self.dtype.size_bytes())
    }
}

impl fmt::Display for AttentionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_self_attention() {
            write!(
                f,
                "B={} H={} N={} D={} ffn={} ({})",
                self.batch, self.heads, self.seq_q, self.hidden, self.ffn_hidden, self.dtype
            )
        } else {
            write!(
                f,
                "B={} H={} Nq={} Nkv={} D={} ffn={} ({})",
                self.batch,
                self.heads,
                self.seq_q,
                self.seq_kv,
                self.hidden,
                self.ffn_hidden,
                self.dtype
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1, H=1, N=512, D=1024, 16-bit: K/Q/V/O ≈ 4 MB, L/A ≈ 2.5 MB
    /// (the paper uses decimal megabytes).
    #[test]
    fn table1_h1_n512() {
        let cfg = AttentionConfig::self_attention(1, 1, 512, 1024, 4096);
        let qkvo_mb = cfg.qkvo_staging_size().as_u64() as f64 / 1e6;
        let la_mb = cfg.la_staging_size().as_u64() as f64 / 1e6;
        assert!((qkvo_mb - 4.2).abs() < 0.1, "qkvo = {qkvo_mb} MB");
        assert!((la_mb - 2.6).abs() < 0.2, "la = {la_mb} MB");
    }

    /// Table 1, H=16, N=14K: L/A ≈ 6.6 GB — the headline blow-up.
    #[test]
    fn table1_h16_n14k_explodes() {
        let cfg = AttentionConfig::self_attention(1, 16, 14 * 1024, 1024, 4096);
        let la_gb = cfg.la_staging_size().as_u64() as f64 / 1e9;
        assert!((la_gb - 6.6).abs() < 0.3, "la = {la_gb} GB");
        // While the projection side stays flat at ~62 MB.
        let qkvo_mb = cfg.qkvo_staging_size().as_u64() as f64 / 1e6;
        assert!((qkvo_mb - 61.0).abs() < 3.0, "qkvo = {qkvo_mb} MB");
    }

    #[test]
    fn dk_divides_hidden() {
        let cfg = AttentionConfig::self_attention(64, 16, 512, 1024, 4096);
        assert_eq!(cfg.dk() * cfg.heads, cfg.hidden);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_heads_rejected() {
        let _ = AttentionConfig::self_attention(1, 3, 512, 1024, 4096);
    }

    #[test]
    fn with_seq_updates_both_sides() {
        let cfg = AttentionConfig::cross_attention(1, 8, 128, 256, 512, 2048).with_seq(1024);
        assert!(cfg.is_self_attention());
        assert_eq!(cfg.seq_q, 1024);
    }

    #[test]
    fn logit_tensor_is_quadratic_in_seq() {
        let cfg = AttentionConfig::self_attention(2, 4, 100, 512, 2048);
        let doubled = cfg.with_seq(200);
        assert_eq!(doubled.logit_elements(), 4 * cfg.logit_elements());
    }
}
