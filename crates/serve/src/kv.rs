//! The paged KV-cache: fixed-size token blocks, a free list, and
//! per-request block tables.
//!
//! Serving keeps one K and one V row per *token* per request alive for the
//! whole lifetime of the request — the dominant memory consumer of an
//! inference engine. Paging (vLLM-style) allocates that storage in
//! fixed-size blocks of `block_tokens` rows so that requests grow without
//! reserving their worst case up front and freed memory never fragments:
//! any free block serves any request.
//!
//! Two layers live here:
//!
//! * [`KvLayout`] — *accounting*: how many modeled bytes one token of KV
//!   state costs for a given [`Model`] (all layers, all heads, 16-bit
//!   elements), and how many blocks a budget drawn from the accelerator's
//!   modeled off-chip memory affords.
//! * [`KvPool`] / [`BlockTable`] — *storage*: the actual f32 rows the
//!   decode kernel reads, held at the engine's reduced execution width
//!   (one representative head), plus alloc/free bookkeeping.

use std::collections::HashMap;

use flat_tensor::Bytes;
use flat_workloads::Model;

/// Chain seed of an empty prefix.
const CHAIN_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// The multipliers of xxHash64's lane round and final avalanche.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane step: `word` is multiplied in, rotated and multiplied again,
/// so every input bit reaches every state bit within a few steps.
#[inline]
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Extends a block chain hash over one block's K and V rows. Chaining
/// from the previous block's hash makes the digest positional: two blocks
/// share a hash only if their *entire prefix history* matches, not just
/// their own tokens.
///
/// The hash is an index key and nothing more: [`KvPool::seal_last_block`]
/// compares block content word for word on every match, so a collision
/// costs a missed share, never wrong rows, and the value itself is never
/// observable — `BlockTable::chain`, `seal_hash` and `prefix_index` are
/// private, and no output reads them.
///
/// The rows' f32 bits are taken eight words at a time into four
/// independent 64-bit lanes (xxHash64's round), so the per-word multiply
/// chains overlap instead of running one byte at a time; a trailing
/// `len % 8` words go through a fifth lane, then the lanes are merged and
/// avalanched.
fn chain_hash(seed: u64, k: &[f32], v: &[f32]) -> u64 {
    let mut lanes = [
        seed.wrapping_add(P1).wrapping_add(P2),
        seed.wrapping_add(P2),
        seed,
        seed.wrapping_sub(P1),
    ];
    let mut tail = seed ^ (k.len() as u64).wrapping_mul(P3);
    for rows in [k, v] {
        let words = rows.chunks_exact(8);
        for x in words.remainder() {
            tail = lane_round(tail, u64::from(x.to_bits()));
        }
        for chunk in words {
            for (lane, pair) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
                let word = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
                *lane = lane_round(*lane, word);
            }
        }
    }
    let mut h = lanes[0].rotate_left(1)
        ^ lanes[1].rotate_left(7)
        ^ lanes[2].rotate_left(12)
        ^ lanes[3].rotate_left(18);
    h = lane_round(h, tail);
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Modeled KV-cache cost of one token, and the paging geometry.
///
/// # Example
///
/// ```
/// use flat_serve::KvLayout;
/// use flat_workloads::Model;
///
/// let layout = KvLayout::for_model(&Model::by_name("bert").unwrap(), 16);
/// // 2 tensors × hidden × 2 bytes × layers.
/// assert_eq!(layout.bytes_per_token.as_u64(), 2 * 768 * 2 * 12);
/// assert_eq!(layout.blocks_for(17), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLayout {
    /// Tokens per cache block.
    pub block_tokens: usize,
    /// Modeled bytes of KV state per token: K and V, every layer, the
    /// full hidden width, 16-bit elements.
    pub bytes_per_token: Bytes,
}

impl KvLayout {
    /// Element width of the modeled cache (fp16/bf16 serving default).
    pub const ELEM_BYTES: u64 = 2;

    /// The layout for a model: `2 × hidden × 2 B × layers` per token.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    #[must_use]
    pub fn for_model(model: &Model, block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        let per_token = 2 * model.hidden() * Self::ELEM_BYTES * model.blocks();
        KvLayout {
            block_tokens,
            bytes_per_token: Bytes::new(per_token),
        }
    }

    /// Blocks needed to hold `tokens` rows (ceiling division).
    #[must_use]
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Modeled bytes of one block, saturating at `u64::MAX` for a block
    /// too large to count.
    #[must_use]
    pub fn block_bytes(&self) -> Bytes {
        Bytes::new(
            self.bytes_per_token
                .as_u64()
                .saturating_mul(self.block_tokens as u64),
        )
    }

    /// How many whole blocks a memory budget affords (at least one). A
    /// zero-byte block, which only a hand-built layout can have, affords
    /// that one.
    #[must_use]
    pub fn blocks_in_budget(&self, budget: Bytes) -> usize {
        budget
            .as_u64()
            .checked_div(self.block_bytes().as_u64())
            .map_or(1, |n| usize::try_from(n).unwrap_or(usize::MAX).max(1))
    }
}

/// A request's view into the pool: the ordered list of block ids holding
/// its tokens, plus how many token rows are live.
#[derive(Debug, Clone)]
pub struct BlockTable {
    blocks: Vec<usize>,
    tokens: usize,
    /// Leading blocks attached via the prefix index (refcount-shared).
    sealed: usize,
    /// Running chain hash over the sealed prefix (`CHAIN_SEED` when none).
    chain: u64,
}

impl Default for BlockTable {
    fn default() -> Self {
        BlockTable {
            blocks: Vec::new(),
            tokens: 0,
            sealed: 0,
            chain: CHAIN_SEED,
        }
    }
}

impl BlockTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        BlockTable::default()
    }

    /// Live token rows.
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Blocks currently held.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// One physical cache block: `block_tokens` K rows and V rows at the
/// execution width.
#[derive(Debug, Clone)]
struct Block {
    k: Vec<f32>,
    v: Vec<f32>,
}

/// The physical pool: the initial blocks pre-allocated, recycled through a
/// free list. Blocks are handed to requests via their [`BlockTable`]s and
/// returned wholesale on release or preemption. Blocks [`grow`](Self::grow)
/// adds are allocated only when a request first takes one.
///
/// # Example
///
/// ```
/// use flat_serve::{BlockTable, KvPool};
///
/// let mut pool = KvPool::new(2, 4, 2);
/// let mut table = BlockTable::new();
/// for t in 0..8 {
///     assert!(pool.try_append(&mut table, &[t as f32; 2], &[0.5; 2]));
/// }
/// // Both blocks in use: a ninth token needs a third block and fails.
/// assert!(!pool.try_append(&mut table, &[9.0; 2], &[0.5; 2]));
/// assert_eq!(pool.free_blocks(), 0);
/// pool.release(&mut table);
/// assert_eq!(pool.free_blocks(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct KvPool {
    block_tokens: usize,
    dk: usize,
    /// Allocated blocks, one per id handed out so far.
    blocks: Vec<Block>,
    /// Released allocated blocks, popped most recently released first.
    free: Vec<usize>,
    /// Blocks no request has taken yet: ids from `blocks.len()` up, free
    /// and unallocated. A block is allocated when first taken, so a pool
    /// costs nothing up front.
    fresh: usize,
    /// Blocks confiscated by the fault injector: permanently removed from
    /// circulation (ids stay valid so live tables are unaffected).
    quarantined: usize,
    peak_used: usize,
    /// Per-block reference count: 0 = free, 1 = private, >1 = shared
    /// through the prefix index (copy-on-write).
    refs: Vec<u32>,
    /// Chain hash under which a block is published in `prefix_index`
    /// (`None` for private/free blocks) — kept so release can unpublish.
    seal_hash: Vec<Option<u64>>,
    /// Content-addressed directory of sealed full prefix blocks:
    /// chain hash → block id.
    prefix_index: HashMap<u64, usize>,
    /// Seal calls that attached to an already-resident shared block.
    dedup_hits: u64,
    /// Blocks mapped by live tables counting shared blocks once *per
    /// sharer* — what a dedup-off pool would have to hold physically.
    logical_used: usize,
    peak_logical: usize,
}

impl KvPool {
    /// A pool of `total_blocks` blocks of `block_tokens` rows at
    /// execution width `dk`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(total_blocks: usize, block_tokens: usize, dk: usize) -> Self {
        assert!(
            total_blocks > 0 && block_tokens > 0 && dk > 0,
            "pool dimensions must be positive"
        );
        let mut pool = KvPool {
            block_tokens,
            dk,
            blocks: Vec::new(),
            free: Vec::new(),
            fresh: 0,
            quarantined: 0,
            peak_used: 0,
            refs: Vec::new(),
            seal_hash: Vec::new(),
            prefix_index: HashMap::new(),
            dedup_hits: 0,
            logical_used: 0,
            peak_logical: 0,
        };
        pool.grow(total_blocks);
        pool
    }

    /// Total blocks in the pool (quarantined blocks excluded).
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.blocks.len() + self.fresh - self.quarantined
    }

    /// Blocks free to take.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len() + self.fresh
    }

    /// Blocks currently held by block tables.
    #[must_use]
    pub fn used_blocks(&self) -> usize {
        self.blocks.len() - self.quarantined - self.free.len()
    }

    /// Permanently removes up to `n` *free* blocks from circulation — the
    /// fault injector's mid-run capacity loss. Blocks held by live tables
    /// are never touched, and at least one block always survives so a
    /// pool keeps existing. Returns how many blocks were taken.
    pub fn confiscate(&mut self, n: usize) -> usize {
        // Never-taken blocks go first: they hold no storage.
        let mut taken = n.min(self.fresh).min(self.total_blocks().saturating_sub(1));
        self.fresh -= taken;
        while taken < n && self.total_blocks() > 1 && !self.free.is_empty() {
            self.free.pop();
            self.quarantined += 1;
            taken += 1;
        }
        taken
    }

    /// High-water mark of [`used_blocks`](Self::used_blocks).
    #[must_use]
    pub fn peak_used(&self) -> usize {
        self.peak_used
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Appends one token's K/V rows to `table`, allocating a fresh block
    /// when the last one is full. Returns `false` — leaving the pool and
    /// table untouched — if the pool is exhausted; the scheduler then
    /// preempts to make room.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not `dk` long.
    #[must_use]
    pub fn try_append(&mut self, table: &mut BlockTable, k: &[f32], v: &[f32]) -> bool {
        assert_eq!(k.len(), self.dk, "key row width must match the pool");
        assert_eq!(v.len(), self.dk, "value row width must match the pool");
        let slot = table.tokens % self.block_tokens;
        if slot == 0 {
            let id = match self.free.pop() {
                Some(id) => id,
                None if self.fresh > 0 => {
                    self.fresh -= 1;
                    self.blocks.push(Block {
                        k: vec![0.0; self.block_tokens * self.dk],
                        v: vec![0.0; self.block_tokens * self.dk],
                    });
                    self.refs.push(0);
                    self.seal_hash.push(None);
                    self.blocks.len() - 1
                }
                None => return false,
            };
            self.refs[id] = 1;
            table.blocks.push(id);
            self.peak_used = self.peak_used.max(self.used_blocks());
            self.logical_used += 1;
            self.peak_logical = self.peak_logical.max(self.logical_used);
        }
        // Non-empty by construction: slot 0 just allocated, later slots
        // inherit the block; guarded rather than unwrapped so a corrupted
        // table degrades into backpressure instead of a panic.
        let Some(&id) = table.blocks.last() else {
            return false;
        };
        // Sealed blocks are full, so `slot == 0` always allocates a fresh
        // private block before any row is written: copy-on-write forking
        // never mutates shared storage.
        debug_assert_eq!(self.refs[id], 1, "writes only land in private blocks");
        let at = slot * self.dk;
        self.blocks[id].k[at..at + self.dk].copy_from_slice(k);
        self.blocks[id].v[at..at + self.dk].copy_from_slice(v);
        table.tokens += 1;
        true
    }

    /// Drops `table`'s reference on every block it maps and empties it.
    /// A block returns to the free list only when its refcount reaches
    /// zero, so releasing (or preempting) one sharer of a prefix block
    /// never frees storage another request still maps.
    pub fn release(&mut self, table: &mut BlockTable) {
        self.logical_used -= table.blocks.len();
        for id in table.blocks.drain(..) {
            debug_assert!(self.refs[id] > 0, "release of an unowned block");
            self.refs[id] -= 1;
            if self.refs[id] == 0 {
                if let Some(h) = self.seal_hash[id].take() {
                    // Unpublish only our own entry: a hash slot is owned by
                    // exactly one block id at a time.
                    if self.prefix_index.get(&h) == Some(&id) {
                        self.prefix_index.remove(&h);
                    }
                }
                self.free.push(id);
            }
        }
        table.tokens = 0;
        table.sealed = 0;
        table.chain = CHAIN_SEED;
    }

    /// Seals `table`'s last block into the prefix index. Call only when
    /// that block has just been filled with tokens that are part of a
    /// shared prompt prefix.
    ///
    /// Extends the table's chain hash over the block's content, then
    /// either (a) swaps the freshly written private block for an
    /// already-published identical block — incrementing that block's
    /// refcount and freeing the private copy (a *dedup hit*) — or
    /// (b) publishes this block under the chain hash so later requests
    /// can share it. Content is compared word-for-word on a hash match,
    /// so a (vanishingly unlikely) collision degrades to "no sharing",
    /// never to wrong rows. Returns `true` on a dedup hit.
    pub fn seal_last_block(&mut self, table: &mut BlockTable) -> bool {
        let Some(&id) = table.blocks.last() else {
            return false;
        };
        if !table.tokens.is_multiple_of(self.block_tokens) || table.sealed + 1 != table.blocks.len()
        {
            // Only full blocks immediately following the sealed prefix are
            // shareable; anything else would let appends land in shared
            // storage.
            return false;
        }
        let h = chain_hash(table.chain, &self.blocks[id].k, &self.blocks[id].v);
        table.chain = h;
        if let Some(&shared) = self.prefix_index.get(&h) {
            if shared != id
                && self.blocks[shared].k == self.blocks[id].k
                && self.blocks[shared].v == self.blocks[id].v
            {
                self.refs[shared] += 1;
                self.refs[id] = 0;
                self.free.push(id);
                if let Some(last) = table.blocks.last_mut() {
                    *last = shared;
                }
                table.sealed += 1;
                self.dedup_hits += 1;
                return true;
            }
            // Collision or self-hit: leave the block private and unlisted.
            table.sealed += 1;
            return false;
        }
        self.prefix_index.insert(h, id);
        self.seal_hash[id] = Some(h);
        table.sealed += 1;
        false
    }

    /// Adds `n` free blocks to the pool — how a pool starts, and the
    /// elastic scale-up path. New ids extend the id space; existing tables
    /// are unaffected. A block is allocated when a request first takes
    /// it, so growing to a huge cluster costs nothing up front.
    pub fn grow(&mut self, n: usize) {
        self.fresh += n;
    }

    /// Seal operations that attached to an already-resident shared block.
    #[must_use]
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Blocks live tables map, counting shared blocks once per sharer —
    /// the physical footprint a dedup-off pool would need right now.
    #[must_use]
    pub fn logical_used_blocks(&self) -> usize {
        self.logical_used
    }

    /// High-water mark of [`logical_used_blocks`](Self::logical_used_blocks).
    #[must_use]
    pub fn peak_logical(&self) -> usize {
        self.peak_logical
    }

    /// Current refcount of a block (0 = free). Test/diagnostic hook.
    #[must_use]
    pub fn refcount(&self, id: usize) -> u32 {
        self.refs.get(id).copied().unwrap_or(0)
    }

    /// Each mapped block's filled rows of a request, in token order: one
    /// `(K rows, V rows)` pair of contiguous row-major slices per block,
    /// `dk` floats a row, only the last block partial — the row groups
    /// [`flat_kernels::decode_attention_with`] consumes a block at a time.
    pub fn blocks<'a>(
        &'a self,
        table: &'a BlockTable,
    ) -> impl Iterator<Item = (&'a [f32], &'a [f32])> {
        let (bt, dk) = (self.block_tokens, self.dk);
        let starts = (0..table.tokens).step_by(bt);
        table.blocks.iter().zip(starts).map(move |(&id, t)| {
            let filled = (table.tokens - t).min(bt) * dk;
            (&self.blocks[id].k[..filled], &self.blocks[id].v[..filled])
        })
    }

    /// The `(key, value)` rows of a request in token order, one `dk`-wide
    /// row each: [`blocks`](Self::blocks) split into rows.
    pub fn rows<'a>(
        &'a self,
        table: &'a BlockTable,
    ) -> impl Iterator<Item = (&'a [f32], &'a [f32])> {
        let dk = self.dk;
        self.blocks(table)
            .flat_map(move |(k, v)| k.chunks_exact(dk).zip(v.chunks_exact(dk)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_accounts_all_layers() {
        let m = Model::by_name("xlm").unwrap();
        let l = KvLayout::for_model(&m, 16);
        assert_eq!(l.bytes_per_token.as_u64(), 2 * m.hidden() * 2 * m.blocks());
        assert_eq!(l.blocks_for(0), 0);
        assert_eq!(l.blocks_for(16), 1);
        assert_eq!(l.blocks_for(33), 3);
    }

    #[test]
    fn budget_yields_whole_blocks() {
        let l = KvLayout {
            block_tokens: 4,
            bytes_per_token: Bytes::new(1024),
        };
        assert_eq!(l.blocks_in_budget(Bytes::new(4096 * 3 + 100)), 3);
        // Degenerate budgets still admit one block so a pool can exist.
        assert_eq!(l.blocks_in_budget(Bytes::new(10)), 1);
    }

    /// A block whose modeled size passes `u64` saturates instead of
    /// wrapping to 0 (which divided by zero in `blocks_in_budget`), and
    /// a zero-byte block yields the one-block floor.
    #[test]
    fn oversized_and_empty_blocks_are_total() {
        let huge = Model::custom(1 << 57, 1, 1, 1);
        let l = KvLayout::for_model(&huge, 32);
        assert_eq!(l.bytes_per_token.as_u64(), 1 << 59);
        assert_eq!(l.block_bytes(), Bytes::new(u64::MAX));
        assert_eq!(l.blocks_in_budget(Bytes::new(u64::MAX)), 1);
        assert_eq!(l.blocks_in_budget(Bytes::from_mib(8)), 1);
        let empty = KvLayout {
            block_tokens: 0,
            bytes_per_token: Bytes::new(1024),
        };
        assert_eq!(empty.block_bytes(), Bytes::new(0));
        assert_eq!(empty.blocks_in_budget(Bytes::from_mib(8)), 1);
    }

    #[test]
    fn append_crosses_block_boundaries() {
        let mut pool = KvPool::new(3, 2, 4);
        let mut t = BlockTable::new();
        for i in 0..5 {
            assert!(pool.try_append(&mut t, &[i as f32; 4], &[-(i as f32); 4]));
        }
        assert_eq!(t.block_count(), 3);
        assert_eq!(pool.free_blocks(), 0);
        let rows: Vec<_> = pool.rows(&t).collect();
        assert_eq!(rows.len(), 5);
        for (i, (k, v)) in rows.iter().enumerate() {
            assert_eq!(k[0], i as f32);
            assert_eq!(v[0], -(i as f32));
        }
    }

    #[test]
    fn exhaustion_leaves_state_unchanged() {
        let mut pool = KvPool::new(1, 2, 1);
        let mut a = BlockTable::new();
        assert!(pool.try_append(&mut a, &[1.0], &[1.0]));
        assert!(pool.try_append(&mut a, &[2.0], &[2.0]));
        let mut b = BlockTable::new();
        assert!(!pool.try_append(&mut b, &[3.0], &[3.0]));
        assert_eq!(b.tokens(), 0);
        assert_eq!(b.block_count(), 0);
        assert_eq!(pool.rows(&a).count(), 2);
    }

    #[test]
    fn release_recycles_blocks_for_new_tables() {
        let mut pool = KvPool::new(2, 2, 1);
        let mut a = BlockTable::new();
        for _ in 0..4 {
            assert!(pool.try_append(&mut a, &[0.0], &[0.0]));
        }
        assert_eq!(pool.peak_used(), 2);
        pool.release(&mut a);
        assert_eq!(a.tokens(), 0);
        assert_eq!(pool.free_blocks(), 2);
        let mut b = BlockTable::new();
        for _ in 0..4 {
            assert!(pool.try_append(&mut b, &[1.0], &[1.0]));
        }
        assert_eq!(pool.peak_used(), 2);
    }

    #[test]
    fn confiscation_shrinks_capacity_but_spares_live_tables() {
        let mut pool = KvPool::new(4, 2, 1);
        let mut a = BlockTable::new();
        for _ in 0..4 {
            assert!(pool.try_append(&mut a, &[1.0], &[1.0]));
        }
        // 2 blocks live, 2 free: confiscation can only take the free ones,
        // and must leave at least one block of total capacity.
        assert_eq!(pool.confiscate(10), 2);
        assert_eq!(pool.total_blocks(), 2);
        assert_eq!(pool.free_blocks(), 0);
        assert_eq!(pool.used_blocks(), 2);
        // The live table still reads back intact.
        assert_eq!(pool.rows(&a).count(), 4);
        // Released blocks recirculate, but capacity stays shrunk — except
        // the floor: the last block can never be confiscated.
        pool.release(&mut a);
        assert_eq!(pool.confiscate(10), 1);
        assert_eq!(pool.total_blocks(), 1);
        assert_eq!(pool.free_blocks(), 1);
    }

    /// Appends `n` tokens whose rows are a deterministic function of the
    /// token position (identical across tables — a shared prefix).
    fn append_prefix(pool: &mut KvPool, t: &mut BlockTable, n: usize, dk: usize) {
        for i in 0..n {
            let row = vec![i as f32 + 0.25; dk];
            if !pool.try_append(t, &row, &row) {
                return; // Backpressure: the churn proptest exhausts the pool.
            }
            if t.tokens().is_multiple_of(pool.block_tokens()) {
                pool.seal_last_block(t);
            }
        }
    }

    #[test]
    fn identical_prefixes_share_physical_blocks() {
        let mut pool = KvPool::new(8, 2, 3);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        append_prefix(&mut pool, &mut a, 4, 3);
        assert_eq!(pool.dedup_hits(), 0);
        append_prefix(&mut pool, &mut b, 4, 3);
        // b's two blocks dedup onto a's: 2 physical, 4 logical.
        assert_eq!(pool.dedup_hits(), 2);
        assert_eq!(pool.used_blocks(), 2);
        assert_eq!(pool.logical_used_blocks(), 4);
        assert_eq!(a.sealed, 2);
        assert_eq!(b.sealed, 2);
        // Both tables read identical rows.
        let ra: Vec<_> = pool.rows(&a).map(|(k, _)| k[0]).collect();
        let rb: Vec<_> = pool.rows(&b).map(|(k, _)| k[0]).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn divergent_tokens_fork_into_private_blocks() {
        let mut pool = KvPool::new(8, 2, 1);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        append_prefix(&mut pool, &mut a, 2, 1);
        append_prefix(&mut pool, &mut b, 2, 1);
        assert_eq!(pool.used_blocks(), 1);
        // Divergence: each request appends its own token past the prefix.
        assert!(pool.try_append(&mut a, &[7.0], &[7.0]));
        assert!(pool.try_append(&mut b, &[9.0], &[9.0]));
        assert_eq!(pool.used_blocks(), 3, "forks are private");
        let ka: Vec<_> = pool.rows(&a).map(|(k, _)| k[0]).collect();
        let kb: Vec<_> = pool.rows(&b).map(|(k, _)| k[0]).collect();
        assert_eq!(ka, vec![0.25, 1.25, 7.0]);
        assert_eq!(kb, vec![0.25, 1.25, 9.0]);
    }

    #[test]
    fn releasing_one_sharer_keeps_blocks_mapped_by_the_other() {
        let mut pool = KvPool::new(4, 2, 1);
        let mut a = BlockTable::new();
        let mut b = BlockTable::new();
        append_prefix(&mut pool, &mut a, 4, 1);
        append_prefix(&mut pool, &mut b, 4, 1);
        assert_eq!(pool.used_blocks(), 2);
        pool.release(&mut a);
        // b still maps both blocks; nothing returned to the free list.
        assert_eq!(pool.used_blocks(), 2);
        let kb: Vec<_> = pool.rows(&b).map(|(k, _)| k[0]).collect();
        assert_eq!(kb, vec![0.25, 1.25, 2.25, 3.25]);
        // A third request can still attach to the published prefix.
        let mut c = BlockTable::new();
        append_prefix(&mut pool, &mut c, 4, 1);
        assert_eq!(pool.used_blocks(), 2);
        pool.release(&mut b);
        pool.release(&mut c);
        assert_eq!(pool.used_blocks(), 0);
        assert_eq!(pool.free_blocks(), 4);
    }

    #[test]
    fn refzero_unpublishes_and_recycles_shared_blocks() {
        let mut pool = KvPool::new(2, 2, 1);
        let mut a = BlockTable::new();
        append_prefix(&mut pool, &mut a, 2, 1);
        pool.release(&mut a);
        assert_eq!(pool.free_blocks(), 2);
        // The prefix is gone from the index: a new identical prefix
        // re-publishes (no stale hit onto freed storage).
        let mut b = BlockTable::new();
        append_prefix(&mut pool, &mut b, 2, 1);
        assert_eq!(pool.dedup_hits(), 0);
        assert_eq!(pool.rows(&b).count(), 2);
    }

    #[test]
    fn equal_blocks_behind_different_prefixes_stay_private() {
        // The chain is positional: block 1 holds the same rows in every
        // table, but only the table whose block 0 matches shares it.
        let (bt, dk) = (2, 3);
        let mut pool = KvPool::new(8, bt, dk);
        let fill = |pool: &mut KvPool, t: &mut BlockTable, first: f32| {
            for x in [first, first, 5.0, 6.0] {
                assert!(pool.try_append(t, &[x; 3], &[-x; 3]));
                if t.tokens().is_multiple_of(bt) {
                    pool.seal_last_block(t);
                }
            }
        };
        let (mut a, mut b, mut c) = (BlockTable::new(), BlockTable::new(), BlockTable::new());
        fill(&mut pool, &mut a, 1.0);
        fill(&mut pool, &mut b, 2.0);
        assert_eq!(pool.dedup_hits(), 0);
        assert_eq!(pool.used_blocks(), 4);
        fill(&mut pool, &mut c, 1.0);
        assert_eq!(pool.dedup_hits(), 2);
        assert_eq!(pool.used_blocks(), 4);
    }

    /// The rows a table should read back, in token order.
    type Want = Vec<(Vec<f32>, Vec<f32>)>;

    /// `blocks` yields whole blocks but a partial last one, never an empty
    /// one, and flattened they equal `rows`: both read back exactly what
    /// the table appended.
    fn assert_reads_back(pool: &KvPool, t: &BlockTable, want: &Want) {
        let (bt, dk) = (pool.block_tokens(), 2);
        let blocks: Vec<_> = pool.blocks(t).collect();
        assert_eq!(blocks.len(), t.block_count());
        for (i, (k, v)) in blocks.iter().enumerate() {
            let filled = (t.tokens() - i * bt).min(bt);
            assert!(filled > 0);
            assert_eq!((k.len(), v.len()), (filled * dk, filled * dk));
        }
        let flat: Want = blocks
            .iter()
            .flat_map(|(k, v)| k.chunks_exact(dk).zip(v.chunks_exact(dk)))
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let rows: Want = pool
            .rows(t)
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(&flat, want);
        assert_eq!(&rows, want);
    }

    #[test]
    fn blocks_flatten_to_rows_through_sharing_reuse_and_confiscation() {
        let dk = 2;
        let mut pool = KvPool::new(8, 3, dk);
        let append = |pool: &mut KvPool, t: &mut BlockTable, want: &mut Want, x: f32| {
            let (k, v) = (vec![x, x + 0.5], vec![-x, x * 2.0]);
            assert!(pool.try_append(t, &k, &v));
            want.push((k, v));
        };
        // Appends across several blocks, the last one partial.
        let (mut a, mut want_a) = (BlockTable::new(), Want::new());
        for i in 0..7 {
            append(&mut pool, &mut a, &mut want_a, i as f32);
        }
        assert_eq!(a.block_count(), 3);
        assert_reads_back(&pool, &a, &want_a);
        // A shared prefix sealed twice: `c` maps `b`'s blocks (a dedup hit),
        // then forks into a private partial block.
        let prefix: Want = (0..6)
            .map(|i| (vec![i as f32 + 0.25; dk], vec![i as f32 + 0.25; dk]))
            .collect();
        let (mut b, mut c) = (BlockTable::new(), BlockTable::new());
        append_prefix(&mut pool, &mut b, 6, dk);
        append_prefix(&mut pool, &mut c, 6, dk);
        assert_eq!(pool.dedup_hits(), 2);
        let mut want_c = prefix.clone();
        append(&mut pool, &mut c, &mut want_c, 40.0);
        assert_reads_back(&pool, &b, &prefix);
        assert_reads_back(&pool, &c, &want_c);
        // A release, then a new table on the freed blocks.
        pool.release(&mut a);
        let (mut d, mut want_d) = (BlockTable::new(), Want::new());
        for i in 0..5 {
            append(&mut pool, &mut d, &mut want_d, 100.0 + i as f32);
        }
        // `b`'s two blocks, `c`'s private one and `d`'s two.
        assert_eq!(pool.used_blocks(), 2 + 1 + 2);
        assert_reads_back(&pool, &d, &want_d);
        // Confiscation takes only free blocks: every live table reads back.
        assert!(pool.confiscate(10) > 0);
        for (t, want) in [(&b, &prefix), (&c, &want_c), (&d, &want_d)] {
            assert_reads_back(&pool, t, want);
        }
    }

    #[test]
    fn grow_extends_capacity_without_touching_live_tables() {
        let mut pool = KvPool::new(1, 2, 1);
        let mut a = BlockTable::new();
        assert!(pool.try_append(&mut a, &[1.0], &[1.0]));
        let mut b = BlockTable::new();
        assert!(!pool.try_append(&mut b, &[2.0], &[2.0]));
        pool.grow(2);
        assert_eq!(pool.total_blocks(), 3);
        assert_eq!(pool.free_blocks(), 2);
        assert!(pool.try_append(&mut b, &[2.0], &[2.0]));
        assert_eq!(pool.rows(&a).next().map(|(k, _)| k[0]), Some(1.0));
        assert_eq!(pool.rows(&b).next().map(|(k, _)| k[0]), Some(2.0));
        assert_eq!((pool.used_blocks(), pool.free_blocks()), (2, 1));
    }

    use proptest::prelude::*;

    proptest! {
        /// Free-list hardening (the invariant COW refcounting depends on):
        /// any interleaving of appends, prefix seals, releases (preempt-by-
        /// recompute uses this exact path), confiscations and grows keeps the
        /// accounting exact — no double-free, no leaked blocks, and the
        /// occupancy gauge returns to baseline once every table releases.
        #[test]
        fn pool_conserves_blocks_under_churn(
            ops in proptest::collection::vec((0u8..5, 0usize..6, 0usize..40), 1..120),
        ) {
            let (blocks, bt, dk) = (12, 2, 2);
            let mut pool = KvPool::new(blocks, bt, dk);
            let mut tables: Vec<BlockTable> = (0..6).map(|_| BlockTable::new()).collect();
            let (mut confiscated, mut grown) = (0, 0);
            for (op, who, n) in ops {
                let t = &mut tables[who];
                match op {
                    // Shared-prefix appends (deduplicable across tables).
                    0 => append_prefix(&mut pool, t, n % 9, dk),
                    // Private appends: rows keyed by table id diverge.
                    1 => for i in 0..n % 9 {
                        let row = vec![(who * 100 + i) as f32; dk];
                        let _ = pool.try_append(t, &row, &row);
                    },
                    // Preempt-by-recompute: release, then later re-append.
                    2 => pool.release(t),
                    3 => confiscated += pool.confiscate(n % 3),
                    _ => {
                        pool.grow(n % 3);
                        grown += n % 3;
                    }
                }
                // Conservation at every step: free + used + quarantined
                // covers the id space exactly.
                prop_assert_eq!(
                    pool.free_blocks() + pool.used_blocks(),
                    blocks + grown - confiscated
                );
                // Logical never undercounts physical.
                prop_assert!(pool.logical_used_blocks() >= pool.used_blocks());
                let mapped: usize = tables.iter().map(BlockTable::block_count).sum();
                prop_assert_eq!(pool.logical_used_blocks(), mapped);
            }
            // Occupancy returns to baseline: releasing every table leaves
            // zero used blocks and a full free list.
            for t in &mut tables {
                pool.release(t);
            }
            prop_assert_eq!(pool.used_blocks(), 0);
            prop_assert_eq!(pool.logical_used_blocks(), 0);
            prop_assert_eq!(pool.free_blocks(), blocks + grown - confiscated);
        }

        /// A sealed block is shared exactly when some earlier table's
        /// whole prefix up to and including that block is equal — checked
        /// against a reference that compares the prefixes row for row.
        /// Blocks are drawn from three contents, so equal blocks behind
        /// different prefixes are common; `block_tokens · dk` is mostly
        /// not a multiple of 8, so the hash's remainder lane runs.
        #[test]
        fn a_block_is_shared_exactly_when_its_whole_prefix_is_equal(
            bt in 1usize..5,
            dk in 1usize..12,
            tables in proptest::collection::vec(
                proptest::collection::vec(0usize..3, 0..5),
                2..5,
            ),
        ) {
            let mut pool = KvPool::new(32, bt, dk);
            let row = |sym: usize, j: usize| -> Vec<f32> {
                (0..dk).map(|l| (sym * 1000 + j * 10 + l) as f32).collect()
            };
            let mut seen: Vec<Vec<Vec<f32>>> = Vec::new();
            for syms in &tables {
                let mut t = BlockTable::new();
                let mut rows: Vec<Vec<f32>> = Vec::new();
                for (b, &sym) in syms.iter().enumerate() {
                    for j in 0..bt {
                        let r = row(sym, j);
                        prop_assert!(pool.try_append(&mut t, &r, &r));
                        rows.push(r);
                    }
                    let prefix = &rows[..(b + 1) * bt];
                    let want = seen
                        .iter()
                        .any(|earlier| earlier.len() >= prefix.len() && &earlier[..prefix.len()] == prefix);
                    let got = pool.seal_last_block(&mut t);
                    prop_assert_eq!(got, want, "block {}: shared {}, reference {}", b, got, want);
                }
                seen.push(rows);
            }
        }

        /// Every table always reads back exactly the rows it appended,
        /// regardless of how prefixes dedup across tables — token-identity
        /// of the COW path at the storage layer.
        #[test]
        fn shared_and_private_rows_never_cross(
            shared in 0usize..10,
            div in proptest::collection::vec(0usize..7, 2..5),
        ) {
            let dk = 2;
            let mut pool = KvPool::new(64, 2, dk);
            let mut tables: Vec<BlockTable> = div.iter().map(|_| BlockTable::new()).collect();
            for (who, (t, &extra)) in tables.iter_mut().zip(div.iter()).enumerate() {
                append_prefix(&mut pool, t, shared, dk);
                for i in 0..extra {
                    let row = vec![(1000 + who * 10 + i) as f32; dk];
                    prop_assert!(pool.try_append(t, &row, &row));
                }
            }
            for (who, (t, &extra)) in tables.iter().zip(div.iter()).enumerate() {
                let got: Vec<f32> = pool.rows(t).map(|(k, _)| k[0]).collect();
                prop_assert_eq!(got.len(), shared + extra);
                for (i, &x) in got.iter().enumerate() {
                    let want = if i < shared {
                        i as f32 + 0.25
                    } else {
                        (1000 + who * 10 + (i - shared)) as f32
                    };
                    prop_assert_eq!(x, want);
                }
            }
        }
    }
}
