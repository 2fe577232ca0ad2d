//! Blockchains: root-to-leaf paths of the BlockTree.
//!
//! §3.1: "a blockchain is a path from a leaf of `bt` to `b0`". A `read()`
//! returns `{b0}⌢f(bt)` — the concatenation of the genesis block with the
//! selected chain. We materialize returned chains genesis-first, which makes
//! the prefix relation `⊑` a plain slice-prefix test and keeps recorded
//! histories self-contained (checkable without the originating store).
//!
//! # Representation
//!
//! A chain is a *prefix view* `(buffer, len)` over a shared, grow-only
//! id buffer ([`ChainBuf`]). Committed prefixes are immutable — a chain
//! only ever grows at the tip or is replaced at a reorg — so many
//! snapshots of a growing chain share one allocation: cloning is an `Arc`
//! bump, `prefix` and `common_prefix` are O(1) views, and the incremental
//! read path (`crate::tipcache`) extends its chain in place (amortized
//! O(1) per block) while outstanding snapshots stay valid.
//!
//! The buffer appends through an *initialization frontier* (`init`): a
//! cell is written exactly once, by the writer that claims its index with
//! a compare-exchange on the frontier, and is immutable from then on.
//! Extension therefore needs no copy-on-write even while snapshots (or a
//! published concurrent-reader view, see `crate::concurrent`) share the
//! buffer; a copy happens only when capacity runs out (amortized O(1) by
//! doubling), when two diverging owners race for the same frontier slot,
//! or on a reorg splice under sharing.

use crate::ids::BlockId;
use crate::score::ScoreFn;
use crate::store::BlockView;
use crate::sync::atomic::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::Arc;

/// Grow-only shared id buffer backing [`Blockchain`] prefix views.
///
/// # Safety protocol
///
/// * Cells `[0, init)` are initialized and never written again while the
///   buffer is shared; they may be read freely (`slice`).
/// * A writer appends by claiming index `i = init` with a CAS
///   `init: i → i + 1` and then writing cell `i`. Only the claiming
///   writer ever touches that cell, and no `Blockchain` view with
///   `len > i` exists until that writer publishes one *after* the write,
///   so readers never observe the cell mid-write. Cross-thread visibility
///   of the cell contents is provided by whatever release/acquire edge
///   hands the longer length to the reader (an `Arc` clone handed across
///   a channel, a thread join, …). In `crate::concurrent` that edge is
///   the published length: an extension's cells are written before its
///   `Release` store of the new length, and a reader builds its view
///   ([`Blockchain::alias`]) from an `Acquire` load of it.
/// * A sole owner (`Arc::get_mut` succeeds) may rewrite cells arbitrarily
///   (reorg splices reuse capacity this way). A published buffer is never
///   solely owned: the publication itself holds a reference.
struct ChainBuf {
    cells: Box<[UnsafeCell<BlockId>]>,
    /// Initialization frontier: number of immutably written cells.
    init: AtomicUsize,
}

// SAFETY: see the protocol above — cells below the frontier are
// immutable, the frontier cell is written by exactly one claiming writer
// before any view covering it exists.
unsafe impl Send for ChainBuf {}
// SAFETY: same protocol as Send above — shared references only ever read
// the immutable below-frontier prefix.
unsafe impl Sync for ChainBuf {}

impl ChainBuf {
    fn with_capacity(cap: usize) -> ChainBuf {
        ChainBuf {
            cells: (0..cap)
                .map(|_| UnsafeCell::new(BlockId::GENESIS))
                .collect(),
            init: AtomicUsize::new(0),
        }
    }

    /// A buffer holding `ids`, with at least `cap` capacity. Sole owner
    /// during construction, so plain writes are fine.
    fn from_slice(ids: &[BlockId], cap: usize) -> ChainBuf {
        let buf = ChainBuf::with_capacity(cap.max(ids.len()));
        for (i, &id) in ids.iter().enumerate() {
            // SAFETY: `buf` is freshly constructed and not yet shared, so
            // these are exclusive writes to unaliased cells.
            unsafe { *buf.cells[i].get() = id };
        }
        buf.init.store(ids.len(), Ordering::Release);
        buf
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The first `len` cells.
    ///
    /// # Safety
    ///
    /// Caller must guarantee `len` cells were initialized before this view
    /// existed (the `Blockchain` invariant), which also makes them
    /// immutable for the lifetime of the returned slice.
    #[inline]
    unsafe fn slice(&self, len: usize) -> &[BlockId] {
        std::slice::from_raw_parts(self.cells.as_ptr() as *const BlockId, len)
    }
}

/// A materialized blockchain `{b0}⌢…`, genesis first.
///
/// Cheap to clone (`Arc`-backed prefix view): histories record many reads
/// of slowly growing chains, all sharing the same buffer.
///
/// Invariant: `len` cells of `buf` were initialized before this view was
/// constructed, so `ids()` is always a fully initialized, immutable
/// prefix.
#[derive(Clone)]
pub struct Blockchain {
    buf: Arc<ChainBuf>,
    len: usize,
}

impl PartialEq for Blockchain {
    fn eq(&self, other: &Self) -> bool {
        // Content equality on the viewed prefix (buffer identity is an
        // implementation detail). Fast path: same buffer, same length.
        (Arc::ptr_eq(&self.buf, &other.buf) && self.len == other.len) || self.ids() == other.ids()
    }
}

impl Eq for Blockchain {}

impl std::hash::Hash for Blockchain {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ids().hash(state);
    }
}

impl Blockchain {
    /// The chain containing only the genesis block (`read` on the initial
    /// state returns `b0`, Def. 3.1).
    pub fn genesis() -> Self {
        Blockchain {
            buf: Arc::new(ChainBuf::from_slice(&[BlockId::GENESIS], 1)),
            len: 1,
        }
    }

    /// Builds a chain from a genesis-first id sequence.
    ///
    /// Panics if the sequence is empty or does not start at `b0`: every
    /// blockchain of the model contains the genesis block.
    pub fn from_ids(ids: Vec<BlockId>) -> Self {
        assert!(
            ids.first() == Some(&BlockId::GENESIS),
            "blockchain must start at the genesis block"
        );
        let len = ids.len();
        Blockchain {
            buf: Arc::new(ChainBuf::from_slice(&ids, len)),
            len,
        }
    }

    /// Materializes the genesis→`tip` path of `store`.
    pub fn from_tip(store: &dyn BlockView, tip: BlockId) -> Self {
        Blockchain::from_ids(store.path_from_genesis(tip))
    }

    /// Blocks, genesis first.
    #[inline]
    pub fn ids(&self) -> &[BlockId] {
        // SAFETY: the type invariant — `len` cells were initialized before
        // this view existed and are immutable while shared.
        unsafe { self.buf.slice(self.len) }
    }

    /// The leaf (deepest block) of the chain; genesis if the chain is `{b0}`.
    #[inline]
    pub fn tip(&self) -> BlockId {
        self.ids()[self.len - 1]
    }

    /// Number of blocks including genesis.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends `b` in place. Amortized O(1) even while snapshots share the
    /// buffer: if this view ends at the initialization frontier, the next
    /// cell is claimed (CAS) and written — snapshots only ever cover
    /// shorter, already-immutable prefixes. A copy happens only when
    /// capacity runs out (doubling) or when a diverged owner already took
    /// the frontier slot. Used by the incremental chain cache.
    pub(crate) fn push_in_place(&mut self, b: BlockId) {
        if let Some(buf) = Arc::get_mut(&mut self.buf) {
            // Sole owner: write directly, no frontier coordination needed.
            if self.len < buf.capacity() {
                // SAFETY: `Arc::get_mut` proved exclusive ownership of the
                // buffer, so no other view can observe this cell.
                unsafe { *buf.cells[self.len].get() = b };
                *buf.init.get_mut() = self.len + 1;
                self.len += 1;
                return;
            }
        } else if self.len < self.buf.capacity()
            && self
                .buf
                .init
                // relaxed: failure ordering — on a lost race we fall through
                // to the copy path and never touch the contested cell.
                .compare_exchange(self.len, self.len + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            // SAFETY: shared buffer, and this view ends exactly at the
            // frontier: the CAS claimed cell `len` exclusively. Views
            // covering the cell are only created from `self` afterwards.
            unsafe { *self.buf.cells[self.len].get() = b };
            self.len += 1;
            return;
        }
        // Out of capacity, or a diverged owner claimed the slot first:
        // copy this view into a doubled buffer.
        let buf = ChainBuf::from_slice(self.ids(), (self.len + 1).next_power_of_two());
        // SAFETY: `buf` is freshly allocated and still exclusively owned.
        unsafe { *buf.cells[self.len].get() = b };
        buf.init.store(self.len + 1, Ordering::Release);
        self.buf = Arc::new(buf);
        self.len += 1;
    }

    /// Reorg splice: keeps the first `keep` blocks and appends `suffix`.
    /// A pure extension (`keep == len`) pushes in place, so it copies
    /// only where [`push_in_place`](Self::push_in_place) would. Otherwise
    /// O(|suffix|) when sole owner, O(keep + |suffix|) under sharing
    /// (rewriting initialized cells is only allowed with exclusive
    /// ownership, so a shared splice copies).
    pub(crate) fn splice_in_place(&mut self, keep: usize, suffix: &[BlockId]) {
        assert!(keep >= 1 && keep <= self.len, "splice keep out of range");
        if keep == self.len {
            for &id in suffix {
                self.push_in_place(id);
            }
            return;
        }
        let new_len = keep + suffix.len();
        match Arc::get_mut(&mut self.buf) {
            Some(buf) if new_len <= buf.capacity() => {
                for (i, &id) in suffix.iter().enumerate() {
                    // SAFETY: `Arc::get_mut` proved exclusive ownership, so
                    // rewriting initialized cells cannot race a reader.
                    unsafe { *buf.cells[keep + i].get() = id };
                }
                *buf.init.get_mut() = new_len;
            }
            _ => {
                let buf = ChainBuf::from_slice(&self.ids()[..keep], new_len.next_power_of_two());
                for (i, &id) in suffix.iter().enumerate() {
                    // SAFETY: fresh, exclusively owned buffer.
                    unsafe { *buf.cells[keep + i].get() = id };
                }
                buf.init.store(new_len, Ordering::Release);
                self.buf = Arc::new(buf);
            }
        }
        self.len = new_len;
    }

    /// Whether both views share one buffer: `self` can become `other`'s
    /// length without any cell of the shorter prefix changing.
    #[inline]
    pub(crate) fn same_buffer(&self, other: &Blockchain) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// A non-owning view of this chain's buffer, `len` cells long: the
    /// buffer handle is copied bit for bit, with no refcount bump, and
    /// never dropped. Cloning the alias takes a real reference, so its
    /// clones are ordinary owned chains.
    ///
    /// # Safety
    ///
    /// The caller must keep `self`'s buffer alive for as long as the
    /// alias is used (the concurrent tree does so with an epoch pin over
    /// the publication that owns `self`), and cells `[0, len)` must be
    /// initialized and made visible to this thread by a release/acquire
    /// edge (see the [`ChainBuf`] protocol). `len` may exceed
    /// `self.len()` but not the buffer's capacity.
    #[inline]
    pub(crate) unsafe fn alias(&self, len: usize) -> ManuallyDrop<Blockchain> {
        debug_assert!(len >= 1 && len <= self.buf.capacity());
        // SAFETY: a bitwise copy of the `Arc` handle; `ManuallyDrop`
        // guarantees the copy never releases the reference it did not
        // take, and the caller keeps the original alive meanwhile.
        let mut view = ManuallyDrop::new(unsafe { std::ptr::read(self) });
        view.len = len;
        view
    }

    /// Chains always contain at least `b0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Heap bytes attributable to this view alone: its own footprint,
    /// plus the shared cell buffer only when this view holds the last
    /// reference to it (a superseded [`ChainBuf`] — left behind by a
    /// capacity doubling or a reorg splice — is freed by whichever view
    /// drops last, and the epoch reclamation stats want to see that
    /// moment coming). An estimate for accounting, not an allocator
    /// truth.
    pub fn approx_heap_bytes(&self) -> usize {
        let own = std::mem::size_of::<Blockchain>();
        if Arc::strong_count(&self.buf) == 1 {
            own + std::mem::size_of::<ChainBuf>()
                + self.buf.capacity() * std::mem::size_of::<BlockId>()
        } else {
            own
        }
    }

    /// The prefix relation `bc ⊑ bc'` (§3.1.2): `self` is a prefix of
    /// `other`. Reflexive. O(1) when both are views of one shared buffer.
    #[inline]
    pub fn is_prefix_of(&self, other: &Blockchain) -> bool {
        if Arc::ptr_eq(&self.buf, &other.buf) {
            return self.len <= other.len;
        }
        other.ids().starts_with(self.ids())
    }

    /// True iff one of the two chains prefixes the other — the comparability
    /// test used by the Strong Prefix property (Def. 3.2).
    #[inline]
    pub fn comparable(&self, other: &Blockchain) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// Length (in blocks) of the maximal common prefix. O(1) when both
    /// are views of one shared buffer.
    pub fn common_prefix_len(&self, other: &Blockchain) -> usize {
        if Arc::ptr_eq(&self.buf, &other.buf) {
            return self.len.min(other.len);
        }
        self.ids()
            .iter()
            .zip(other.ids().iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The maximal common prefix as a chain (always contains `b0`).
    /// O(1) beyond the prefix-length computation: the result shares this
    /// chain's buffer.
    pub fn common_prefix(&self, other: &Blockchain) -> Blockchain {
        let n = self.common_prefix_len(other);
        Blockchain {
            buf: Arc::clone(&self.buf),
            len: n,
        }
    }

    /// `mcps(bc, bc')` (§3.1.2): the *score* of the maximal common prefix of
    /// two blockchains, under a given score function.
    pub fn mcps(&self, other: &Blockchain, score: &dyn ScoreFn) -> u64 {
        score.score_prefix(self, self.common_prefix_len(other))
    }

    /// The chain truncated to its first `n` blocks (`n ≥ 1`). O(1): the
    /// result is a shorter view of the same buffer.
    pub fn prefix(&self, n: usize) -> Blockchain {
        assert!(n >= 1 && n <= self.len(), "prefix length out of range");
        Blockchain {
            buf: Arc::clone(&self.buf),
            len: n,
        }
    }

    /// `{b0}⌢f(bt)⌢{b}` notation support: this chain extended by one block
    /// (a fresh allocation; the in-place variant lives on the cache).
    pub fn extended(&self, b: BlockId) -> Blockchain {
        let mut v = Vec::with_capacity(self.len() + 1);
        v.extend_from_slice(self.ids());
        v.push(b);
        Blockchain::from_ids(v)
    }
}

impl fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for id in self.ids().iter() {
            if !first {
                write!(f, "⌢")?;
            }
            write!(f, "{id}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Display for Blockchain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Payload;
    use crate::ids::ProcessId;
    use crate::score::LengthScore;
    use crate::store::BlockStore;

    fn chain(ids: &[u32]) -> Blockchain {
        Blockchain::from_ids(ids.iter().map(|&i| BlockId(i)).collect())
    }

    #[test]
    fn genesis_chain() {
        let g = Blockchain::genesis();
        assert_eq!(g.len(), 1);
        assert_eq!(g.tip(), BlockId::GENESIS);
        assert_eq!(format!("{g}"), "b0");
    }

    #[test]
    #[should_panic(expected = "must start at the genesis")]
    fn rejects_rootless_chain() {
        Blockchain::from_ids(vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn prefix_relation() {
        let a = chain(&[0, 1, 2]);
        let b = chain(&[0, 1, 2, 3]);
        let c = chain(&[0, 1, 4]);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a), "⊑ is reflexive");
        assert!(a.comparable(&b));
        assert!(!a.comparable(&c) || a.is_prefix_of(&c));
        assert!(!b.comparable(&c));
    }

    #[test]
    fn common_prefix() {
        let a = chain(&[0, 1, 2, 3]);
        let b = chain(&[0, 1, 4, 5]);
        assert_eq!(a.common_prefix_len(&b), 2);
        assert_eq!(a.common_prefix(&b), chain(&[0, 1]));
        let g = Blockchain::genesis();
        assert_eq!(a.common_prefix(&g), g);
    }

    #[test]
    fn mcps_with_length_score() {
        let a = chain(&[0, 1, 2, 3]);
        let b = chain(&[0, 1, 4, 5]);
        // common prefix b0⌢b1 has length-score 1 (genesis scores s0 = 0).
        assert_eq!(a.mcps(&b, &LengthScore), 1);
        assert_eq!(a.mcps(&a, &LengthScore), 3);
    }

    #[test]
    fn extended_and_prefix() {
        let a = chain(&[0, 1]);
        let b = a.extended(BlockId(9));
        assert_eq!(b, chain(&[0, 1, 9]));
        assert!(a.is_prefix_of(&b));
        assert_eq!(b.prefix(2), a);
        assert_eq!(b.prefix(1), Blockchain::genesis());
    }

    #[test]
    fn alias_views_exactly_len_cells_without_a_reference() {
        let mut src = chain(&[0, 1, 2]);
        src.push_in_place(BlockId(3));
        let before = Arc::strong_count(&src.buf);
        let owned = {
            // SAFETY: `src` outlives the alias, and all four cells were
            // written on this thread.
            let alias = unsafe { src.alias(3) };
            assert_eq!(alias.ids(), &[BlockId(0), BlockId(1), BlockId(2)]);
            assert_eq!(alias.tip(), BlockId(2));
            assert_eq!(Arc::strong_count(&src.buf), before, "no refcount taken");
            let owned = (*alias).clone();
            assert_eq!(Arc::strong_count(&src.buf), before + 1);
            owned
        }; // the alias goes out of scope here
        assert_eq!(
            Arc::strong_count(&src.buf),
            before + 1,
            "dropping the alias releases nothing"
        );
        drop(src);
        assert_eq!(
            Arc::strong_count(&owned.buf),
            1,
            "the clone owns the buffer"
        );
        assert_eq!(owned, chain(&[0, 1, 2]), "and outlives its source");
    }

    #[test]
    fn extension_splice_under_sharing_keeps_the_buffer() {
        let mut c = chain(&[0, 1]);
        c.push_in_place(BlockId(2)); // capacity 4
        let snap = c.clone();
        c.splice_in_place(3, &[BlockId(3)]);
        assert!(c.same_buffer(&snap), "a pure extension claims the frontier");
        assert_eq!(snap.len(), 3);
        c.splice_in_place(2, &[BlockId(9)]);
        assert!(!c.same_buffer(&snap), "a shared reorg splice copies");
        assert_eq!(c.ids(), &[BlockId(0), BlockId(1), BlockId(9)]);
        assert_eq!(snap.ids(), &[BlockId(0), BlockId(1), BlockId(2)]);
    }

    #[test]
    fn from_tip_matches_store_path() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let c = Blockchain::from_tip(&s, b);
        assert_eq!(c.ids(), &[BlockId::GENESIS, a, b]);
        assert_eq!(c.tip(), b);
    }
}
