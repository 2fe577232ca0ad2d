//! Selection functions `f ∈ F : BT → BC` (§3.1).
//!
//! A selection function picks one blockchain out of a BlockTree; the paper
//! leaves `f` generic "to suit the different blockchain implementations" and
//! names the longest-chain rule (Bitcoin), the heaviest-chain rule, GHOST
//! (Ethereum, §5.2), and the trivial projection of single-chain trees
//! (Red Belly, §5.6). All four are implemented here.
//!
//! Determinism matters: `f` is "encoded in the state and do[es] not change
//! over the computation", and ties must break identically at every replica
//! (Fig. 2 breaks length ties by "the largest based on the lexicographical
//! order"). We compare candidate chains by their digest sequences, which is
//! a total, replica-independent order.
//!
//! # Incremental contract
//!
//! `select_tip` re-evaluates `f` from scratch — the literal Def. 3.1
//! semantics, kept as the specification oracle. The hot path uses
//! [`SelectionFn::on_insert`] instead: given the tip selected *before* a
//! block joined the tree, it answers how the selection changes, in O(log n)
//! for the chain rules and — for GHOST — O(log n) plus one hop per block
//! between the insert and the selected chain (a reorg adds
//! O(|changed suffix| · log n)). Callers
//! (see [`crate::tipcache::ChainCache`]) own a [`SelectionAux`] scratch
//! holding whatever per-tree state a rule maintains (GHOST: subtree
//! weights kept relative to the selected chain), which keeps this trait
//! object-safe and the selection values themselves stateless and
//! shareable, as the paper requires.
//!
//! `on_insert` may assume:
//!
//! * `new_block` is a member of `tree` and was inserted *after* the call
//!   that reported `current_tip` (exactly one membership insert per call,
//!   in insertion order);
//! * `current_tip` was the rule's selected tip for the tree without
//!   `new_block` (the caller maintains this inductively, seeding it with a
//!   full `select_tip` scan);
//! * the same `aux` is threaded through every call for a given tree.

use crate::ids::BlockId;
use crate::store::{BlockView, TreeMembership};
use std::cmp::Ordering;

/// How the selected tip changed when one block joined the tree — the
/// result of the incremental path of a [`SelectionFn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TipUpdate {
    /// The previously selected chain is still selected.
    Unchanged,
    /// The new tip is a child of the previous tip: the selected chain grew
    /// by exactly one block (`{b0}⌢f(bt)⌢{b}`, the common case).
    Extended(BlockId),
    /// The selection moved to a different branch (a reorg); the new tip is
    /// not a child of the previous one.
    Switched(BlockId),
}

/// Per-tree scratch state for incremental selection, owned by the caller
/// and threaded through [`SelectionFn::on_insert`]. Chain rules keep only
/// a memoized tip score here; GHOST keeps its subtree weights *relative to
/// the selected chain* `c_0 … c_T`:
///
/// * `chain[h] = c_h`, the selected chain by height;
/// * a Fenwick tree over `own(c_h) + side[h]`, where `side[h]` sums the
///   subtree weights of the member children of `c_h` that are *not* on
///   the chain — so a chain block weighs the suffix sum
///   `weight(c_k) = Σ_{j≥k} (own(c_j) + side[j])`, one O(log n) query;
/// * an explicit subtree weight for every member *off* the chain.
///
/// An insert then touches only the explicit weights between it and the
/// chain plus one Fenwick entry, instead of every ancestor up to genesis.
#[derive(Clone, Debug, Default)]
pub struct SelectionAux {
    /// GHOST: subtree weight of each member block off the selected chain
    /// (indexed by arena slot; non-members weigh 0). Entries of chain
    /// blocks go stale while they are on the chain and are rewritten when
    /// a reorg moves them off it.
    subtree_weight: Vec<u64>,
    /// GHOST: the selected chain by height (`chain[0]` is genesis).
    chain: Vec<BlockId>,
    /// GHOST: `own(chain[h]) + side[h]` for every chain height.
    spine: Fenwick,
    /// Whether the GHOST state reflects the current tree (rules
    /// initialize lazily on first use).
    ready: bool,
    /// Chain rules: the current tip's memoized score. A block's score
    /// (height, cumulative work) is immutable, so a matching entry is
    /// never stale — this takes the per-insert tip re-scoring (a shard
    /// lock on the concurrent store) off the commit hot path.
    tip_score: Option<(BlockId, u64)>,
}

impl SelectionAux {
    /// Fresh, uninitialized scratch (rules rebuild it on first use).
    pub fn new() -> Self {
        SelectionAux::default()
    }

    /// Drops any maintained state, forcing re-initialization on next use.
    pub fn reset(&mut self) {
        self.subtree_weight.clear();
        self.chain.clear();
        self.spine.truncate(0);
        self.ready = false;
        self.tip_score = None;
    }

    /// Whether the weight state reflects a tree (false until the first
    /// GHOST scoring pass, and again after [`reset`](Self::reset)). A cold
    /// aux rebuilds from the *current* membership on first use, so
    /// incremental folds are only meaningful once this is true.
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// GHOST's subtree weight of the member `id` as the maintained state
    /// derives it: a suffix query for a chain block, the explicit entry
    /// otherwise. Exposed for the representation-invariant tests, which
    /// compare it against a full recompute; not part of the selection
    /// contract.
    #[doc(hidden)]
    pub fn derived_ghost_weight(&self, store: &dyn BlockView, id: BlockId) -> u64 {
        let h = store.height(id) as usize;
        if self.chain.get(h) == Some(&id) {
            self.chain_weight(h)
        } else {
            self.weight(id)
        }
    }

    /// GHOST's selected tip as the maintained chain records it.
    #[inline]
    fn chain_tip(&self) -> Option<BlockId> {
        self.chain.last().copied()
    }

    /// Subtree weight of the chain block at height `h`: the suffix sum of
    /// the spine from `h`.
    #[inline]
    fn chain_weight(&self, h: usize) -> u64 {
        self.spine.suffix(h)
    }

    #[inline]
    fn weight(&self, id: BlockId) -> u64 {
        self.subtree_weight.get(id.index()).copied().unwrap_or(0)
    }

    #[inline]
    fn slot(&mut self, id: BlockId) -> &mut u64 {
        if self.subtree_weight.len() <= id.index() {
            self.subtree_weight.resize(id.index() + 1, 0);
        }
        &mut self.subtree_weight[id.index()]
    }
}

/// A Fenwick (binary indexed) tree over a growable array of weights:
/// O(log n) point update, prefix sum and push, O(1) truncate. Sums wrap,
/// so a point update may carry a negative delta as its two's complement;
/// every sum the rule reads is a true (non-negative) subtree weight.
#[derive(Clone, Debug, Default)]
struct Fenwick {
    /// `tree[i]` holds the sum of entries `i + 1 - lowbit(i + 1) ..= i`.
    tree: Vec<u64>,
}

impl Fenwick {
    /// Appends `v`. The new node covers `lowbit(n)` entries ending at it:
    /// `v` plus the nodes at `n - 1, n - 2, n - 4, …` (1-based), which
    /// tile the rest of that range exactly.
    fn push(&mut self, v: u64) {
        let n = self.tree.len() + 1;
        let low = n & n.wrapping_neg();
        let mut sum = v;
        let mut k = 1;
        while k < low {
            sum = sum.wrapping_add(self.tree[n - k - 1]);
            k <<= 1;
        }
        self.tree.push(sum);
    }

    /// Keeps the first `len` entries. Every surviving node covers a range
    /// inside them, so nothing needs recomputing.
    fn truncate(&mut self, len: usize) {
        self.tree.truncate(len);
    }

    /// Adds `delta` (wrapping) to entry `i`.
    fn add(&mut self, i: usize, delta: u64) {
        let mut n = i + 1;
        while n <= self.tree.len() {
            self.tree[n - 1] = self.tree[n - 1].wrapping_add(delta);
            n += n & n.wrapping_neg();
        }
    }

    /// Sum of the first `len` entries.
    fn prefix(&self, len: usize) -> u64 {
        let mut n = len;
        let mut sum = 0u64;
        while n > 0 {
            sum = sum.wrapping_add(self.tree[n - 1]);
            n &= n - 1;
        }
        sum
    }

    /// Sum of the entries from `i` to the end.
    fn suffix(&self, i: usize) -> u64 {
        self.prefix(self.tree.len()).wrapping_sub(self.prefix(i))
    }
}

/// A rule's score contribution from one shard of a batch of inserts — the
/// unit the two-stage drain farms out per subtree and folds back together
/// with [`AuxPartial::merge`] before touching the shared [`SelectionAux`].
///
/// The representation is rule-agnostic so the merge is too:
///
/// * `weights` — GHOST-style own-weights of the inserted blocks, sorted by
///   id (duplicates summed on merge). Chain rules leave this empty.
/// * `best` — the shard's best `(score, block)` under a chain rule's total
///   order (score, then path-lexicographic). GHOST leaves this `None`.
///
/// `merge` is associative and commutative — summing multisets and taking
/// the max of a total order both are — so shards can be folded in any
/// grouping and any order and produce the same value. That is the contract
/// the drain relies on and the proptests pin down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuxPartial {
    weights: Vec<(BlockId, u64)>,
    best: Option<(u64, BlockId)>,
}

impl AuxPartial {
    /// The empty contribution (identity of `merge`).
    pub fn empty() -> Self {
        AuxPartial::default()
    }

    /// A GHOST-style contribution: one own-weight per inserted block.
    /// Ids are sorted and deduplicated (duplicate weights summed).
    pub fn from_weights(mut weights: Vec<(BlockId, u64)>) -> Self {
        weights.sort_unstable_by_key(|&(id, _)| id);
        weights.dedup_by(|next, keep| {
            if next.0 == keep.0 {
                keep.1 += next.1;
                true
            } else {
                false
            }
        });
        AuxPartial {
            weights,
            best: None,
        }
    }

    /// A chain-rule contribution: the shard's best-scored block.
    pub fn from_best(score: u64, id: BlockId) -> Self {
        AuxPartial {
            weights: Vec::new(),
            best: Some((score, id)),
        }
    }

    /// Whether this partial carries no contribution at all.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty() && self.best.is_none()
    }

    /// The inserted-block weights, sorted by id.
    pub fn weights(&self) -> &[(BlockId, u64)] {
        &self.weights
    }

    /// The chain-rule best entry, if any, as `(score, block)`.
    pub fn best(&self) -> Option<(u64, BlockId)> {
        self.best
    }

    /// Folds `other` into `self`. Associative and commutative: `weights`
    /// merge as a sorted multiset sum, `best` as the max under the rule's
    /// total order — score first, then the deterministic path-lexicographic
    /// tie-break every rule already uses, so equal-score shards resolve
    /// identically regardless of merge order.
    pub fn merge(mut self, store: &dyn BlockView, other: AuxPartial) -> AuxPartial {
        if !other.weights.is_empty() {
            if self.weights.is_empty() {
                self.weights = other.weights;
            } else {
                let a = std::mem::take(&mut self.weights);
                let mut merged = Vec::with_capacity(a.len() + other.weights.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < other.weights.len() {
                    match a[i].0.cmp(&other.weights[j].0) {
                        Ordering::Less => {
                            merged.push(a[i]);
                            i += 1;
                        }
                        Ordering::Greater => {
                            merged.push(other.weights[j]);
                            j += 1;
                        }
                        Ordering::Equal => {
                            merged.push((a[i].0, a[i].1 + other.weights[j].1));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&a[i..]);
                merged.extend_from_slice(&other.weights[j..]);
                self.weights = merged;
            }
        }
        self.best = match (self.best, other.best) {
            (a, None) => a,
            (None, b) => b,
            (Some((sa, ia)), Some((sb, ib))) => {
                let other_wins = sb
                    .cmp(&sa)
                    .then_with(|| cmp_paths_lexicographic(store, ib, ia))
                    == Ordering::Greater;
                Some(if other_wins { (sb, ib) } else { (sa, ia) })
            }
        };
        self
    }
}

/// Partitions a batch of inserted blocks by the genesis-child subtree each
/// falls under (its ancestor at height 1) — the sharding key the two-stage
/// drain uses to farm score updates before the associative merge. Shards
/// appear in first-encounter order; within a shard the batch order is kept.
pub fn partition_by_subtree(store: &dyn BlockView, inserts: &[BlockId]) -> Vec<Vec<BlockId>> {
    let mut shards: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    for &id in inserts {
        let key = if store.height(id) == 0 {
            id
        } else {
            store.ancestor_at(id, 1)
        };
        match shards.iter_mut().find(|(k, _)| *k == key) {
            Some((_, shard)) => shard.push(id),
            None => shards.push((key, vec![id])),
        }
    }
    shards.into_iter().map(|(_, shard)| shard).collect()
}

/// Two-stage batch scoring: partition `inserts` by subtree, score each
/// shard to an [`AuxPartial`], fold the partials with the associative
/// [`AuxPartial::merge`], and apply the result to `aux`. Returns the new
/// selected tip.
///
/// `inserts` must be members of `tree`, parent-closed, and all inserted
/// after the call that reported `current_tip`; the result equals folding
/// [`SelectionFn::on_insert`] over them serially (differential-tested, and
/// cross-checked against the full-scan `select_tip` oracle in debug
/// builds by the concurrent drain).
pub fn batch_score(
    rule: &dyn SelectionFn,
    store: &dyn BlockView,
    tree: &TreeMembership,
    aux: &mut SelectionAux,
    inserts: &[BlockId],
    current_tip: BlockId,
) -> BlockId {
    if inserts.is_empty() {
        return current_tip;
    }
    let merged = partition_by_subtree(store, inserts)
        .into_iter()
        .map(|shard| rule.score_inserts(store, &shard))
        .fold(AuxPartial::empty(), |acc, p| acc.merge(store, p));
    rule.apply_partial(store, tree, aux, &merged, current_tip)
}

/// A deterministic selection function `f : BT → BC`, given by the tip of the
/// selected chain (the chain itself is the genesis→tip path).
pub trait SelectionFn: Sync {
    /// Tip of `f(bt)` for the tree `(store, tree)`. Returns the genesis id
    /// iff the tree contains only `b0` (Def. 3.1: `f(b0) = b0`).
    ///
    /// This is the full re-evaluation: O(tree). It stays the semantic
    /// oracle that the incremental path is differential-tested against.
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId;

    /// Incremental re-selection after `new_block` joined `tree` (see the
    /// module docs for what may be assumed). The default falls back to a
    /// full `select_tip` scan, so custom rules are correct before they are
    /// fast.
    fn on_insert(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        _aux: &mut SelectionAux,
        _new_block: BlockId,
        current_tip: BlockId,
    ) -> TipUpdate {
        let tip = self.select_tip(store, tree);
        if tip == current_tip {
            TipUpdate::Unchanged
        } else if store.parent(tip) == Some(current_tip) {
            TipUpdate::Extended(tip)
        } else {
            TipUpdate::Switched(tip)
        }
    }

    /// Scores one shard of a batch of inserts into an [`AuxPartial`]
    /// (see [`batch_score`]). Only immutable per-block metadata may be
    /// read — shard scoring runs before any shared selection state is
    /// touched, so it must not depend on `aux` or on membership order.
    ///
    /// The default carries the shard as unit weights, which the default
    /// `apply_partial` folds serially — correct before fast.
    fn score_inserts(&self, _store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        AuxPartial::from_weights(inserts.iter().map(|&id| (id, 1)).collect())
    }

    /// Applies a merged batch contribution to `aux`, returning the new
    /// selected tip. `partial` is the [`AuxPartial::merge`]-fold of
    /// `score_inserts` over a partition of blocks that are already members
    /// of `tree` and were all inserted after the call that reported
    /// `current_tip`.
    ///
    /// The default replays the per-insert path in ascending id order (ids
    /// are minted parent-first, so that order is parent-closed). Rules
    /// whose `on_insert` reads membership state beyond the new block's
    /// own path should override with a true batch step — the serial
    /// replay sees the *final* membership at every step.
    fn apply_partial(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        let mut tip = current_tip;
        for &(id, _) in partial.weights() {
            match self.on_insert(store, tree, aux, id, tip) {
                TipUpdate::Unchanged => {}
                TipUpdate::Extended(t) | TipUpdate::Switched(t) => tip = t,
            }
        }
        tip
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Lexicographic comparison of the genesis→tip digest sequences of two
/// chains. Total order on distinct chains (digest sequences differ as soon
/// as the paths diverge, since digests commit to ancestry).
///
/// O(log n): the chains agree up to their deepest common ancestor and the
/// comparison is decided by the first divergent blocks — both reachable
/// through the store's jump pointers — rather than by materializing and
/// zipping the two full paths. If one chain prefixes the other, length
/// decides.
fn cmp_paths_lexicographic(store: &dyn BlockView, a: BlockId, b: BlockId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let lca = store.common_ancestor(a, b);
    if lca == a {
        return Ordering::Less; // a is a proper prefix of b
    }
    if lca == b {
        return Ordering::Greater;
    }
    let fork_height = store.height(lca) + 1;
    let mut x = store.ancestor_at(a, fork_height);
    let mut y = store.ancestor_at(b, fork_height);
    loop {
        // First divergent position: digests commit to ancestry, so this
        // decides the order for any non-colliding digest function. The
        // walk below only continues on a 64-bit digest collision.
        let ord = store.digest_of(x).cmp(&store.digest_of(y));
        if ord != Ordering::Equal {
            return ord;
        }
        let h = store.height(x) + 1;
        let (ha, hb) = (store.height(a), store.height(b));
        match (h > ha, h > hb) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {
                x = store.ancestor_at(a, h);
                y = store.ancestor_at(b, h);
            }
        }
    }
}

/// Shared incremental step for the two chain-scoring rules (longest,
/// heaviest): the tip is the arg-max over leaves of a score that is
/// memoized per block, so one insert only ever pits the new leaf against
/// the incumbent.
fn chain_rule_on_insert(
    store: &dyn BlockView,
    aux: &mut SelectionAux,
    new_block: BlockId,
    current_tip: BlockId,
    score: impl Fn(&crate::store::BlockMeta) -> u64,
) -> TipUpdate {
    // One meta read covers the new block's score *and* its parent link;
    // the incumbent's score comes from the aux memo (a block's score is
    // immutable, so a matching memo is never stale) — on the concurrent
    // store this turns three shard-lock crossings per insert into one.
    let new_meta = store.meta(new_block);
    let new_score = score(&new_meta);
    let tip_score = match aux.tip_score {
        Some((tip, s)) if tip == current_tip => s,
        _ => score(&store.meta(current_tip)),
    };
    match new_score
        .cmp(&tip_score)
        .then_with(|| cmp_paths_lexicographic(store, new_block, current_tip))
    {
        Ordering::Greater => {
            aux.tip_score = Some((new_block, new_score));
            if new_meta.parent == Some(current_tip) {
                TipUpdate::Extended(new_block)
            } else {
                TipUpdate::Switched(new_block)
            }
        }
        // The incumbent keeps winning; the only leaf the insert removed is
        // the new block's parent, which the incumbent already beat (or is).
        Ordering::Less | Ordering::Equal => {
            aux.tip_score = Some((current_tip, tip_score));
            TipUpdate::Unchanged
        }
    }
}

/// Shard scoring for the chain rules: a shard's contribution is just its
/// best `(score, block)` — scores are immutable per block, so this reads
/// one meta per insert and no shared state.
fn chain_rule_score_inserts(
    store: &dyn BlockView,
    inserts: &[BlockId],
    score: impl Fn(&crate::store::BlockMeta) -> u64,
) -> AuxPartial {
    let mut best: Option<(u64, BlockId)> = None;
    for &id in inserts {
        let s = score(&store.meta(id));
        best = Some(match best {
            None => (s, id),
            Some((bs, bid)) => {
                if s.cmp(&bs)
                    .then_with(|| cmp_paths_lexicographic(store, id, bid))
                    == Ordering::Greater
                {
                    (s, id)
                } else {
                    (bs, bid)
                }
            }
        });
    }
    match best {
        Some((s, id)) => AuxPartial::from_best(s, id),
        None => AuxPartial::empty(),
    }
}

/// Batch apply for the chain rules: the tip after a batch is the arg-max
/// over {incumbent} ∪ batch, and the merged partial already holds the
/// batch's arg-max, so this is one comparison against the memoized tip
/// score — the batched counterpart of [`chain_rule_on_insert`].
fn chain_rule_apply_partial(
    store: &dyn BlockView,
    aux: &mut SelectionAux,
    partial: &AuxPartial,
    current_tip: BlockId,
    score: impl Fn(&crate::store::BlockMeta) -> u64,
) -> BlockId {
    let Some((new_score, new_block)) = partial.best() else {
        return current_tip;
    };
    let tip_score = match aux.tip_score {
        Some((tip, s)) if tip == current_tip => s,
        _ => score(&store.meta(current_tip)),
    };
    if new_score
        .cmp(&tip_score)
        .then_with(|| cmp_paths_lexicographic(store, new_block, current_tip))
        == Ordering::Greater
    {
        aux.tip_score = Some((new_block, new_score));
        new_block
    } else {
        aux.tip_score = Some((current_tip, tip_score));
        current_tip
    }
}

/// The longest-chain rule with lexicographic tie-break (largest wins), as in
/// the paper's running examples (Figs. 2–4) and Bitcoin's original rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct LongestChain;

impl SelectionFn for LongestChain {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let mut best: Option<BlockId> = None;
        for leaf in tree.leaves(store) {
            best = Some(match best {
                None => leaf,
                Some(cur) => {
                    let (hl, hc) = (store.height(leaf), store.height(cur));
                    match hl.cmp(&hc) {
                        Ordering::Greater => leaf,
                        Ordering::Less => cur,
                        Ordering::Equal => {
                            if cmp_paths_lexicographic(store, leaf, cur) == Ordering::Greater {
                                leaf
                            } else {
                                cur
                            }
                        }
                    }
                }
            });
        }
        best.expect("tree always contains genesis")
    }

    fn on_insert(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        aux: &mut SelectionAux,
        new_block: BlockId,
        current_tip: BlockId,
    ) -> TipUpdate {
        chain_rule_on_insert(store, aux, new_block, current_tip, |m| m.height as u64)
    }

    fn score_inserts(&self, store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        chain_rule_score_inserts(store, inserts, |m| m.height as u64)
    }

    fn apply_partial(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        chain_rule_apply_partial(store, aux, partial, current_tip, |m| m.height as u64)
    }

    fn name(&self) -> &'static str {
        "longest-chain"
    }
}

/// The heaviest-work rule: maximize cumulative work along the path
/// ("the blockchain which has required the most computational work", §5.1),
/// lexicographic tie-break.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeaviestWork;

impl SelectionFn for HeaviestWork {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let mut best: Option<BlockId> = None;
        for leaf in tree.leaves(store) {
            best = Some(match best {
                None => leaf,
                Some(cur) => {
                    let (wl, wc) = (store.cumulative_work(leaf), store.cumulative_work(cur));
                    match wl.cmp(&wc) {
                        Ordering::Greater => leaf,
                        Ordering::Less => cur,
                        Ordering::Equal => {
                            if cmp_paths_lexicographic(store, leaf, cur) == Ordering::Greater {
                                leaf
                            } else {
                                cur
                            }
                        }
                    }
                }
            });
        }
        best.expect("tree always contains genesis")
    }

    fn on_insert(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        aux: &mut SelectionAux,
        new_block: BlockId,
        current_tip: BlockId,
    ) -> TipUpdate {
        chain_rule_on_insert(store, aux, new_block, current_tip, |m| m.cum_work)
    }

    fn score_inserts(&self, store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        chain_rule_score_inserts(store, inserts, |m| m.cum_work)
    }

    fn apply_partial(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        chain_rule_apply_partial(store, aux, partial, current_tip, |m| m.cum_work)
    }

    fn name(&self) -> &'static str {
        "heaviest-work"
    }
}

/// What GHOST weighs when descending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhostWeight {
    /// Number of member blocks in the subtree (classic GHOST).
    BlockCount,
    /// Total work of member blocks in the subtree.
    Work,
}

/// The Greedy Heaviest-Observed SubTree rule (Sompolinsky & Zohar [30]),
/// used by Ethereum (§5.2): descend from the root, at each step entering the
/// child whose *subtree* is heaviest, until reaching a leaf.
#[derive(Clone, Copy, Debug)]
pub struct Ghost {
    pub weight: GhostWeight,
}

impl Default for Ghost {
    fn default() -> Self {
        Ghost {
            weight: GhostWeight::BlockCount,
        }
    }
}

impl Ghost {
    /// The standalone weight of one member block under this rule.
    #[inline]
    fn own_weight(&self, meta: &crate::store::BlockMeta) -> u64 {
        match self.weight {
            GhostWeight::BlockCount => 1,
            GhostWeight::Work => meta.work.max(1),
        }
    }

    /// Rebuilds `aux` from scratch: every subtree weight in one reverse
    /// pass, then the chain by greedy descent from genesis. Runs on the
    /// first incremental call and after a reset.
    fn init_aux(&self, store: &dyn BlockView, tree: &TreeMembership, aux: &mut SelectionAux) {
        aux.subtree_weight = self.subtree_weights(store, tree);
        aux.chain.clear();
        aux.spine.truncate(0);
        aux.ready = true;
        self.descend(store, tree, aux, BlockId::GENESIS, None);
    }

    /// The heaviest member child of the off-chain block `cur` under the
    /// explicit weights (`None` if `cur` is a member leaf). Tie-break:
    /// larger digest, same as the full scan.
    fn heaviest_child(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &SelectionAux,
        cur: BlockId,
    ) -> Option<BlockId> {
        let mut best: Option<BlockId> = None;
        store.for_each_child(cur, &mut |c| {
            if !tree.contains(c) {
                return;
            }
            best = Some(match best {
                Some(b) if !heavier(store, (aux.weight(c), c), (aux.weight(b), b)) => b,
                _ => c,
            });
        });
        best
    }

    /// Greedy descent from `from` — genesis on a rebuild, otherwise a
    /// member whose whole subtree is off the chain, so its weights are
    /// explicit — appending each step to the chain with its spine entry
    /// `weight(c) − weight(next)`, i.e. `own(c) + side(c)`. `leaf` names a
    /// block known to have no member children (a fresh single insert),
    /// which spares its child scan.
    fn descend(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        mut from: BlockId,
        leaf: Option<BlockId>,
    ) {
        loop {
            let next = if leaf == Some(from) {
                None
            } else {
                self.heaviest_child(store, tree, aux, from)
            };
            let below = next.map_or(0, |n| aux.weight(n));
            aux.chain.push(from);
            aux.spine.push(aux.weight(from) - below);
            match next {
                Some(n) => from = n,
                None => return,
            }
        }
    }

    /// Adds `w` to the explicit weight of the off-chain member `id` (whose
    /// parent `parent` sits at height `h`) and of each off-chain ancestor,
    /// until the walk reaches the chain; there `w` lands in the chain
    /// block's spine entry. Returns the fork: the chain height reached and
    /// the off-chain child of the chain on the walked path.
    fn fold(
        store: &dyn BlockView,
        aux: &mut SelectionAux,
        mut id: BlockId,
        mut parent: BlockId,
        mut h: usize,
        w: u64,
    ) -> (usize, BlockId) {
        loop {
            *aux.slot(id) += w;
            if aux.chain.get(h) == Some(&parent) {
                aux.spine.add(h, w);
                return (h, id);
            }
            id = parent;
            parent = store.parent(id).expect("genesis is on every chain");
            h -= 1;
        }
    }

    /// Re-selects after new weight reached the chain at the forks
    /// `touches` (sorted `(height, off-chain child)` pairs). Forks are
    /// visited root-most first; at each, the chain child keeps its place
    /// unless a touched sibling now outweighs it — the untouched siblings
    /// lost to it before, and it only gained. The first flip rebases the
    /// chain, and nothing below it needs a look. Returns the flip height.
    fn settle(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        touches: &[(usize, BlockId)],
        leaf: Option<BlockId>,
    ) -> Option<usize> {
        for fork in touches.chunk_by(|a, b| a.0 == b.0) {
            let h = fork[0].0;
            let incumbent = aux.chain.get(h + 1).copied();
            let mut best = incumbent.map(|c| (aux.chain_weight(h + 1), c));
            for &(_, x) in fork {
                let candidate = (aux.weight(x), x);
                if best.is_none_or(|b| heavier(store, candidate, b)) {
                    best = Some(candidate);
                }
            }
            let (_, winner) = best.expect("a touched fork has a member child");
            if Some(winner) != incumbent {
                self.rebase(store, tree, aux, h, winner, leaf);
                return Some(h);
            }
        }
        None
    }

    /// Moves the chain below height `h` onto `winner`, an off-chain member
    /// child of `chain[h]`: the old suffix's weights become explicit (one
    /// suffix query each), `chain[h]`'s side trades the winner for the old
    /// chain child, and the descent from the winner becomes the new
    /// suffix. O(|changed suffix| · log n), plus the descent's child scans.
    fn rebase(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        h: usize,
        winner: BlockId,
        leaf: Option<BlockId>,
    ) {
        for k in h + 1..aux.chain.len() {
            let (id, w) = (aux.chain[k], aux.chain_weight(k));
            *aux.slot(id) = w;
        }
        let old_child = aux.chain.get(h + 1).map_or(0, |&c| aux.weight(c));
        aux.chain.truncate(h + 1);
        aux.spine.truncate(h + 1);
        aux.spine.add(h, old_child.wrapping_sub(aux.weight(winner)));
        self.descend(store, tree, aux, winner, leaf);
    }

    /// Subtree weights for every member block, computed in one reverse pass
    /// (children have larger arena indices than parents, so a single
    /// back-to-front scan accumulates bottom-up).
    fn subtree_weights(&self, store: &dyn BlockView, tree: &TreeMembership) -> Vec<u64> {
        let n = store.block_count();
        let mut w = vec![0u64; n];
        for idx in (0..n).rev() {
            let id = BlockId(idx as u32);
            if !tree.contains(id) {
                continue;
            }
            let meta = store.meta(id);
            w[idx] += self.own_weight(&meta);
            if let Some(p) = meta.parent {
                w[p.index()] += w[idx];
            }
        }
        w
    }
}

/// GHOST's child order: heavier subtree first, larger digest on a tie.
fn heavier(store: &dyn BlockView, (wa, a): (u64, BlockId), (wb, b): (u64, BlockId)) -> bool {
    match wa.cmp(&wb) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => store.digest_of(a) > store.digest_of(b),
    }
}

impl SelectionFn for Ghost {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let weights = self.subtree_weights(store, tree);
        let mut cur = BlockId::GENESIS;
        loop {
            let mut next: Option<BlockId> = None;
            store.for_each_child(cur, &mut |c| {
                if !tree.contains(c) {
                    return;
                }
                next = Some(match next {
                    None => c,
                    Some(b) => match weights[c.index()].cmp(&weights[b.index()]) {
                        Ordering::Greater => c,
                        Ordering::Less => b,
                        // Deterministic tie-break: larger digest wins.
                        Ordering::Equal => {
                            if store.digest_of(c) > store.digest_of(b) {
                                c
                            } else {
                                b
                            }
                        }
                    },
                });
            });
            match next {
                Some(n) => cur = n,
                None => return cur,
            }
        }
    }

    /// Incremental GHOST over the chain-relative weights (see
    /// [`SelectionAux`]): the insert's own weight goes to the explicit
    /// weights between it and the selected chain — none for a tip
    /// extension or a graft onto the chain — and to one Fenwick entry at
    /// the chain block it hangs under. The greedy descent can only change
    /// at that fork: above it the chain children just gained weight, below
    /// it nothing moved. So re-selection is one O(log n) suffix query and
    /// one comparison, plus a rebase onto the new branch when the fork
    /// flips (O(|changed suffix| · log n), the order of the chain splice
    /// the caller does anyway). A child of the tip always wins its empty
    /// fork: that is the extension.
    fn on_insert(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        new_block: BlockId,
        current_tip: BlockId,
    ) -> TipUpdate {
        if !aux.ready {
            // Cold aux: the rebuild counts `new_block` already.
            self.init_aux(store, tree, aux);
            let tip = aux.chain_tip().expect("the chain holds genesis");
            return if tip == current_tip {
                TipUpdate::Unchanged
            } else if store.parent(tip) == Some(current_tip) {
                TipUpdate::Extended(tip)
            } else {
                TipUpdate::Switched(tip)
            };
        }
        debug_assert_eq!(
            aux.chain_tip(),
            Some(current_tip),
            "aux tracks the caller's tip"
        );
        let meta = store.meta(new_block);
        let parent = meta.parent.expect("genesis is never inserted");
        let tip_height = aux.chain.len() - 1;
        let fork = Self::fold(
            store,
            aux,
            new_block,
            parent,
            meta.height as usize - 1,
            self.own_weight(&meta),
        );
        match self.settle(store, tree, aux, &[fork], Some(new_block)) {
            None => TipUpdate::Unchanged,
            Some(h) if h == tip_height => {
                // The old tip was a member leaf: its only member child is
                // the new block itself.
                debug_assert_eq!(fork.1, new_block);
                TipUpdate::Extended(new_block)
            }
            Some(_) => TipUpdate::Switched(aux.chain_tip().expect("the chain holds genesis")),
        }
    }

    fn score_inserts(&self, store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        AuxPartial::from_weights(
            inserts
                .iter()
                .map(|&id| (id, self.own_weight(&store.meta(id))))
                .collect(),
        )
    }

    /// Batched GHOST over the same representation: one reverse id-order
    /// pass (ids are minted parent-first, so every child comes before its
    /// parent) sums the batch's weights child-to-parent inside the batch,
    /// writing each inserted block once; only the batch's roots walk on
    /// towards the chain. Re-selection then settles every fork the batch
    /// touched, root-most first — the first flip rebases the chain, and a
    /// flip above every touched fork is impossible (no child there gained
    /// weight off the chain).
    fn apply_partial(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        let weights = partial.weights();
        if weights.is_empty() {
            return current_tip;
        }
        if !aux.ready {
            // Cold aux: the rebuild sees the inserts' weights already.
            self.init_aux(store, tree, aux);
        } else {
            debug_assert_eq!(
                aux.chain_tip(),
                Some(current_tip),
                "aux tracks the caller's tip"
            );
            let mut acc: Vec<u64> = weights.iter().map(|&(_, w)| w).collect();
            let mut touches = Vec::new();
            for i in (0..weights.len()).rev() {
                let id = weights[i].0;
                let meta = store.meta(id);
                let parent = meta.parent.expect("genesis is never inserted");
                match weights[..i].binary_search_by_key(&parent, |&(b, _)| b) {
                    Ok(j) => {
                        *aux.slot(id) += acc[i];
                        acc[j] += acc[i];
                    }
                    Err(_) => touches.push(Self::fold(
                        store,
                        aux,
                        id,
                        parent,
                        meta.height as usize - 1,
                        acc[i],
                    )),
                }
            }
            touches.sort_unstable();
            touches.dedup();
            self.settle(store, tree, aux, &touches, None);
        }
        aux.chain_tip().expect("the chain holds genesis")
    }

    fn name(&self) -> &'static str {
        "ghost"
    }
}

/// The trivial projection `BT ↦ BC` of Red Belly (§5.6): the tree *is* a
/// single chain by construction (consensus decides a unique block), so `f`
/// just returns it.
///
/// Panics if the tree has a fork — that would mean the protocol driving it
/// broke its k = 1 guarantee, which is a bug worth failing loudly on.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialProjection;

impl SelectionFn for TrivialProjection {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let leaves = tree.leaves(store);
        assert!(
            leaves.len() == 1,
            "TrivialProjection requires a forkless tree, found {} leaves",
            leaves.len()
        );
        leaves[0]
    }

    fn on_insert(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        _aux: &mut SelectionAux,
        new_block: BlockId,
        current_tip: BlockId,
    ) -> TipUpdate {
        assert!(
            store.parent(new_block) == Some(current_tip),
            "TrivialProjection requires a forkless tree, {new_block} does not extend {current_tip}"
        );
        TipUpdate::Extended(new_block)
    }

    fn name(&self) -> &'static str {
        "trivial-projection"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Payload;
    use crate::ids::ProcessId;
    use crate::store::BlockStore;

    /// b0 ── a ─┬─ b1 ── c1
    ///           └─ b2
    fn forked() -> (BlockStore, BlockId, BlockId, BlockId, BlockId) {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 10, Payload::Empty);
        let b1 = s.mint(a, ProcessId(0), 0, 1, 11, Payload::Empty);
        let b2 = s.mint(a, ProcessId(1), 1, 5, 12, Payload::Empty);
        let c1 = s.mint(b1, ProcessId(0), 0, 1, 13, Payload::Empty);
        (s, a, b1, b2, c1)
    }

    #[test]
    fn longest_picks_deepest() {
        let (s, _, _, _, c1) = forked();
        let t = TreeMembership::full(&s);
        assert_eq!(LongestChain.select_tip(&s, &t), c1);
    }

    #[test]
    fn longest_on_genesis_only() {
        let s = BlockStore::new();
        let t = TreeMembership::full(&s);
        assert_eq!(LongestChain.select_tip(&s, &t), BlockId::GENESIS);
    }

    #[test]
    fn longest_tie_break_is_deterministic() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(BlockId::GENESIS, ProcessId(1), 1, 1, 1, Payload::Empty);
        let t = TreeMembership::full(&s);
        let pick = LongestChain.select_tip(&s, &t);
        // Largest digest path wins.
        let expect = if s.get(a).digest > s.get(b).digest {
            a
        } else {
            b
        };
        assert_eq!(pick, expect);
        // Stable across repeated calls.
        assert_eq!(LongestChain.select_tip(&s, &t), pick);
    }

    #[test]
    fn heaviest_prefers_work_over_length() {
        let (s, _, _, b2, c1) = forked();
        let t = TreeMembership::full(&s);
        // Path to c1 has work 3; path to b2 has work 6.
        assert_eq!(s.cumulative_work(c1), 3);
        assert_eq!(s.cumulative_work(b2), 6);
        assert_eq!(HeaviestWork.select_tip(&s, &t), b2);
    }

    #[test]
    fn ghost_follows_heavier_subtree() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(BlockId::GENESIS, ProcessId(1), 1, 1, 1, Payload::Empty);
        // Two children under `a`, one under `b`: GHOST must enter `a`'s
        // subtree (weight 3 > 2) even though both leaves have equal height.
        let a1 = s.mint(a, ProcessId(0), 0, 1, 2, Payload::Empty);
        let _a2 = s.mint(a, ProcessId(2), 2, 1, 3, Payload::Empty);
        let _b1 = s.mint(b, ProcessId(1), 1, 1, 4, Payload::Empty);
        let t = TreeMembership::full(&s);
        let tip = Ghost::default().select_tip(&s, &t);
        assert!(
            tip == a1 || s.parent(tip) == Some(a),
            "GHOST must land in a's subtree, got {tip}"
        );
        assert!(s.is_ancestor(a, tip));
    }

    #[test]
    fn ghost_work_weighting() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 10, 0, Payload::Empty);
        let b = s.mint(BlockId::GENESIS, ProcessId(1), 1, 1, 1, Payload::Empty);
        let _b1 = s.mint(b, ProcessId(1), 1, 1, 2, Payload::Empty);
        let _b2 = s.mint(b, ProcessId(1), 1, 1, 3, Payload::Empty);
        let t = TreeMembership::full(&s);
        // By count, b's subtree (3) beats a's (1); by work, a (10) beats b (3).
        let by_count = Ghost {
            weight: GhostWeight::BlockCount,
        }
        .select_tip(&s, &t);
        let by_work = Ghost {
            weight: GhostWeight::Work,
        }
        .select_tip(&s, &t);
        assert!(s.is_ancestor(b, by_count));
        assert_eq!(by_work, a);
    }

    #[test]
    fn ghost_respects_membership() {
        let (s, a, b1, b2, c1) = forked();
        let mut t = TreeMembership::genesis_only();
        t.insert(&s, a);
        t.insert(&s, b2);
        // b1/c1 exist globally but are not in this replica's view.
        let tip = Ghost::default().select_tip(&s, &t);
        assert_eq!(tip, b2);
        let _ = (b1, c1);
    }

    #[test]
    fn trivial_projection_on_chain() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let t = TreeMembership::full(&s);
        assert_eq!(TrivialProjection.select_tip(&s, &t), b);
    }

    #[test]
    #[should_panic(expected = "forkless")]
    fn trivial_projection_rejects_forks() {
        let (s, ..) = forked();
        let t = TreeMembership::full(&s);
        TrivialProjection.select_tip(&s, &t);
    }

    #[test]
    fn fenwick_matches_naive_sums_through_push_truncate_and_add() {
        let mut fen = Fenwick::default();
        let mut naive: Vec<u64> = Vec::new();
        for step in 0..2000u64 {
            let r = crate::ids::splitmix64_at(0xF3E, step);
            match r % 5 {
                0 if !naive.is_empty() => {
                    let len = (r >> 8) as usize % naive.len();
                    fen.truncate(len);
                    naive.truncate(len);
                }
                1 if !naive.is_empty() => {
                    let i = (r >> 8) as usize % naive.len();
                    // A negative delta, as a rebase applies, kept ≥ 0 overall.
                    let delta = ((r >> 32) % (naive[i] + 1)).wrapping_neg();
                    fen.add(i, delta);
                    naive[i] = naive[i].wrapping_add(delta);
                }
                _ => {
                    let v = (r >> 16) % 100;
                    fen.push(v);
                    naive.push(v);
                }
            }
            for i in 0..=naive.len() {
                assert_eq!(fen.suffix(i), naive[i..].iter().sum::<u64>(), "step {step}");
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(LongestChain.name(), "longest-chain");
        assert_eq!(HeaviestWork.name(), "heaviest-work");
        assert_eq!(Ghost::default().name(), "ghost");
        assert_eq!(TrivialProjection.name(), "trivial-projection");
    }
}
