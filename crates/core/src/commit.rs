//! Commit-path configuration and counters: the [`FinalityWatermark`]
//! storage policy and the [`PipelineStats`] snapshot.
//!
//! Every commit of a `ConcurrentBlockTree` runs one two-stage path (see
//! `ConcurrentBlockTree::append`):
//!
//! 1. **Mint** (parallel, no locks): the appender mints its candidate
//!    against the published tip and pre-validates it.
//! 2. **Stage 1** (selection lock, blocking): the mint is resolved
//!    against the authoritative tip — re-minted under it if its parent
//!    went stale — inserted into the membership, folded into the
//!    selection with one incremental `on_insert`, and a publication
//!    record is *staged*. This is the linearization point.
//! 3. **Stage 2** (publication lock, taken after the selection lock is
//!    released): whoever holds the lock pops *every* staged record and
//!    publishes them as one — WAL append + fsync, chain splice, length
//!    store. Records staged while a publisher was fsyncing ride its
//!    successor's single publication, so one `fdatasync` covers them
//!    all: group commit falls out of popper-takes-all.
//!
//! A commit returns only after the publication covering it:
//! publish-before-respond, strengthened on a durable tree (see
//! [`crate::wal`] and `ConcurrentBlockTree::open_durable`) to
//! persist-then-ack. The recorded-history checkers (Wing–Gong, windowed,
//! LMR, commit-log replay) judge the path from the outside.

use crate::ids::BlockId;

/// Commit-pipeline counters (reported by `experiments bench-concurrent`
/// and the `perfbench` per-layer readings).
///
/// Only `inline_appends` has a producer: every commit runs one path and
/// nothing on it reads a clock. The other six fields read 0 — they are
/// kept so existing readers of the struct still build, until one
/// metrics surface replaces it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Always 0 (no batch drains exist).
    pub batches: u64,
    /// Always 0 (no commit queue exists).
    pub batched_appends: u64,
    /// Always 0 (no batch drains exist).
    pub max_batch: u64,
    /// Appends that reached stage 1 — every append except a definitive
    /// rejection under a still-published tip, which returns before
    /// taking any lock.
    pub inline_appends: u64,
    /// Always 0 (stage 1 is unclocked).
    pub score_ns: u64,
    /// Always 0 (stage 2 is unclocked).
    pub publish_ns: u64,
    /// Always 0 (stage 1 is unclocked).
    pub drain_lock_ns: u64,
}

/// The finality watermark: how deep below the published tip a block must
/// sit before the storage layer may treat it as final and flatten it into
/// the immutable slab tier (see `ShardedStore::flatten_some`).
///
/// This is a *storage* policy, not a semantic one — a reorg past the
/// watermark stays correct (flattened reads are bit-identical and frozen
/// child lists keep absorbing late children), it just means the flattened
/// prefix briefly contains blocks the selection abandoned. The depth
/// trades resident spine memory against that risk window; `depth == 0`
/// disables flattening entirely.
///
/// Each publication maps the fresh chain to an **id-space bound** via
/// [`target_for`](Self::target_for): ids are minted parent-first, so every
/// id at or below the id of the block `depth` links behind the tip is an
/// ancestor-or-orphan of the finalized prefix. The bound is advanced with
/// a `fetch_max`, so the watermark is monotone even across reorgs that
/// shorten the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinalityWatermark {
    depth: u32,
}

impl FinalityWatermark {
    /// A watermark `depth` links below the published tip.
    pub const fn new(depth: u32) -> Self {
        FinalityWatermark { depth }
    }

    /// Flattening disabled: no target is ever produced.
    pub const fn disabled() -> Self {
        FinalityWatermark { depth: 0 }
    }

    /// Whether this watermark ever produces a flatten target.
    pub const fn is_enabled(&self) -> bool {
        self.depth > 0
    }

    /// The configured depth (0 = disabled).
    pub const fn depth(&self) -> u32 {
        self.depth
    }

    /// The exclusive id bound of the finalized prefix for a just-published
    /// chain (`ids` = genesis..tip), or `None` while the chain is shorter
    /// than the depth (or flattening is disabled).
    pub fn target_for(&self, ids: &[BlockId]) -> Option<u32> {
        if self.depth == 0 || ids.len() <= self.depth as usize {
            return None;
        }
        Some(ids[ids.len() - 1 - self.depth as usize].0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_target_is_depth_behind_the_tip() {
        let ids: Vec<BlockId> = (0..10).map(BlockId).collect();
        let w = FinalityWatermark::new(3);
        // Tip is ids[9]; three links back is ids[6]; bound is exclusive.
        assert_eq!(w.target_for(&ids), Some(7));
        // Exactly depth+1 blocks: only the root is final.
        assert_eq!(w.target_for(&ids[..4]), Some(1));
        // Chains not longer than the depth produce no target.
        assert_eq!(w.target_for(&ids[..3]), None);
        assert_eq!(w.target_for(&ids[..1]), None);
        assert_eq!(FinalityWatermark::new(1).target_for(&ids), Some(9));
    }

    #[test]
    fn disabled_watermark_never_targets() {
        let ids: Vec<BlockId> = (0..100).map(BlockId).collect();
        let w = FinalityWatermark::disabled();
        assert!(!w.is_enabled());
        assert_eq!(w.depth(), 0);
        assert_eq!(w.target_for(&ids), None);
    }
}
