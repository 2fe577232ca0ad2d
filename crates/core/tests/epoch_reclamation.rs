//! Reclamation churn stress: appenders publishing the chain (by length
//! on an extension, by a swap that retires the old publication through
//! the epoch domain on a buffer change) while readers pin and unpin
//! around them.
//!
//! What these tests establish, from the outside:
//!
//! * **No use-after-free**: every borrowed `ChainView` taken mid-churn is
//!   internally consistent (genesis-rooted, id-monotone, tip/len
//!   coherent) and byte-identical to its owned upgrade — a freed buffer
//!   would tear these invariants long before a crash.
//! * **Bounded retirement**: extensions retire nothing, so over n
//!   appends at most the buffer doublings (⌈log₂ n⌉ + 1) retire a
//!   publication; the retired-bag population returns to zero at every
//!   quiescent point after the grace period is driven.
//! * **Reorgs retire under pinned readers**: on `HeaviestWork`, grafts
//!   flip the tip, every flip swaps in a new publication, and readers
//!   racing the flips still see whole, parent-linked chains.
//!
//! The CI `soak` job runs this suite in release mode at
//! `RUST_TEST_THREADS=1` and `4` — serial for maximum intra-test
//! contention, parallel for scheduler noise on top.

use btadt_core::blocktree::CandidateBlock;
use btadt_core::chain::Blockchain;
use btadt_core::concurrent::ConcurrentBlockTree;
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::{HeaviestWork, LongestChain};
use btadt_core::store::BlockView;
use btadt_core::validity::AcceptAll;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

/// `⌈log₂ n⌉ + 1`: the buffer doublings `n` extension appends can cross
/// from the one-cell genesis buffer — the most publications they retire.
fn doublings(n: usize) -> u64 {
    n.next_power_of_two().ilog2() as u64 + 1
}

/// Drains every ripe bag at a quiescent point.
fn reclaim_fully<F, P>(tree: &ConcurrentBlockTree<F, P>)
where
    F: btadt_core::selection::SelectionFn,
    P: btadt_core::validity::ValidityPredicate,
{
    tree.epochs().reclaim_quiescent();
}

/// Workload shape of one churn round.
#[derive(Clone, Copy)]
struct Churn {
    appenders: usize,
    readers: usize,
    appends_each: usize,
    reads_each: usize,
}

/// One churn round: appenders and readers race, then everyone quiesces at
/// the barrier and the main thread checks the reclamation ledger.
fn churn_round(
    tree: &ConcurrentBlockTree<LongestChain, AcceptAll>,
    seed: u64,
    round: u64,
    churn: Churn,
    max_pending_seen: &AtomicUsize,
) {
    let Churn {
        appenders,
        readers,
        appends_each,
        reads_each,
    } = churn;
    let barrier = Barrier::new(appenders + readers);
    std::thread::scope(|s| {
        for a in 0..appenders {
            let (tree, barrier) = (tree, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..appends_each {
                    let nonce = (round << 40) | ((a as u64) << 20) | i as u64;
                    tree.append(CandidateBlock::simple(ProcessId(a as u32), nonce))
                        .expect("AcceptAll");
                }
            });
        }
        for _ in 0..readers {
            let (tree, barrier, max_pending_seen) = (tree, &barrier, max_pending_seen);
            s.spawn(move || {
                barrier.wait();
                let mut last: Option<Blockchain> = None;
                for i in 0..reads_each {
                    let view = tree.read();
                    // Integrity of the borrowed view: a reclaimed-under-us
                    // buffer would tear these invariants.
                    let ids = view.ids();
                    assert_eq!(ids[0], BlockId::GENESIS, "views are genesis-rooted");
                    assert_eq!(view.tip(), *ids.last().unwrap());
                    assert_eq!(view.len(), ids.len());
                    assert!(
                        ids.windows(2).all(|w| w[0] < w[1]),
                        "longest-chain append-only commits are id-monotone"
                    );
                    // The owned upgrade must be bit-identical.
                    let owned = view.to_owned();
                    assert_eq!(owned.ids(), ids);
                    drop(view);
                    if let Some(prev) = &last {
                        assert!(
                            prev.is_prefix_of(&owned),
                            "reader-local monotonicity under churn"
                        );
                    }
                    last = Some(owned);
                    max_pending_seen.fetch_max(tree.epochs().pending_items(), Ordering::Relaxed);
                    if splitmix64_at(seed ^ 0xC0_11EC, (round << 16) | i as u64).is_multiple_of(5) {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

#[test]
fn churn_stress_bounds_retired_bags_across_20_seeds() {
    for seed in 0..20u64 {
        let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let max_pending = AtomicUsize::new(0);
        let churn = Churn {
            appenders: 2,
            readers: 2,
            appends_each: 60,
            reads_each: 120,
        };
        let rounds = 3u64;
        for round in 0..rounds {
            churn_round(&tree, seed, round, churn, &max_pending);
            // Quiescent point: no pins are live, so driving the grace
            // period must empty the bags completely.
            reclaim_fully(&tree);
            assert_eq!(
                tree.epochs().pending_items(),
                0,
                "seed {seed} round {round}: quiescent reclaim leaves residue"
            );
        }
        let total_appends = rounds as usize * churn.appenders * churn.appends_each;
        assert_eq!(tree.len(), total_appends + 1, "seed {seed}: all committed");
        // Boundedness: at no sampled instant did the bags approach the
        // one-retiree-per-commit volume that retire-until-drop accrues.
        let peak = max_pending.load(Ordering::Relaxed);
        assert!(
            peak < total_appends,
            "seed {seed}: pending garbage ({peak}) reached commit volume ({total_appends})"
        );
        // The ledger balances: everything retired was eventually freed.
        assert_eq!(tree.epochs().retired_bytes(), 0, "seed {seed}");
        assert!(tree.epochs().retired_bytes_peak() > 0, "seed {seed}");
        // Extensions publish by length: only buffer doublings retired a
        // publication (pending is zero, so reclaimed == retired).
        assert!(
            tree.epochs().reclaimed_items() <= doublings(total_appends),
            "seed {seed}: {} publications retired over {total_appends} extensions",
            tree.epochs().reclaimed_items()
        );
    }
}

/// Retirement lands in per-thread bag slots (no global garbage mutex).
/// From the outside that must look like: (a) the pending peak of an
/// uncontended (inline-path, one publication per append) run stays
/// small — extensions retire nothing; (b) at quiescence, every slot
/// drains to zero — no bag is stranded in a slot whose retiring thread
/// has exited.
#[test]
fn per_thread_bags_bound_the_peak_and_drain_at_quiescence() {
    let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
    let max_pending = AtomicUsize::new(0);
    // Phase 1: a long uncontended run — every append publishes
    // individually.
    for i in 0..2_000u64 {
        tree.append(CandidateBlock::simple(ProcessId(0), i))
            .expect("AcceptAll");
        max_pending.fetch_max(tree.epochs().pending_items(), Ordering::Relaxed);
    }
    assert!(
        max_pending.load(Ordering::Relaxed) <= 2 * 256,
        "inline-path pending peak {} exceeded twice the threshold cap",
        max_pending.load(Ordering::Relaxed)
    );
    // Phase 2: retiring threads come and go — bags must outlive their
    // retirers (slots belong to the domain, not to thread-local storage).
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..200u64 {
                    tree.append(CandidateBlock::simple(
                        ProcessId(t),
                        (1 << 52) | ((t as u64) << 24) | i,
                    ))
                    .expect("AcceptAll");
                }
            });
        }
    });
    // Quiescent: every slot must hand over everything it parked.
    reclaim_fully(&tree);
    assert_eq!(tree.epochs().pending_items(), 0, "all bag slots drained");
    assert_eq!(tree.epochs().retired_bytes(), 0, "byte ledger balances");
    assert_eq!(tree.len(), 2_801);
}

/// A reader parked on a view is the worst case for reclamation: nothing
/// it can see may be freed, everything after it must still be freed once
/// it lets go — and the view itself must stay valid throughout.
#[test]
fn parked_reader_delays_but_never_loses_reclamation() {
    let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
    for i in 0..10u64 {
        tree.append(CandidateBlock::simple(ProcessId(0), i))
            .unwrap();
    }
    let parked = tree.read();
    let before = parked.to_owned();
    // Churn past the parked reader.
    std::thread::scope(|s| {
        for t in 0..3u32 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..100u64 {
                    tree.append(CandidateBlock::simple(
                        ProcessId(t),
                        (1 << 50) | ((t as u64) << 20) | i,
                    ))
                    .unwrap();
                }
            });
        }
    });
    reclaim_fully(&tree);
    let pending_while_parked = tree.epochs().pending_items();
    assert!(
        pending_while_parked > 0,
        "a parked pin must hold back at least the grace window"
    );
    // The parked view is still exactly what it was.
    assert_eq!(parked, before);
    assert!(parked.is_prefix_of(&tree.read_owned()));
    drop(parked);
    reclaim_fully(&tree);
    assert_eq!(
        tree.epochs().pending_items(),
        0,
        "after the reader unpins the backlog drains fully"
    );
    assert_eq!(tree.len(), 311);
}

/// Regression: the tree struct is movable safe Rust, and moving it must
/// not disturb publications still waiting in the epoch domain. (Deferred
/// items once kept the *address* of a spare-box bin embedded in the
/// tree, and a move left them dangling into the dead frame — found by
/// the deep-tree bench, whose grow closure returns its tree.) Building a
/// tree in one stack frame, crossing a buffer doubling (which retires
/// the old publication), and returning the tree by value must leave the
/// pending retirement valid through the move and the drop.
#[test]
fn tree_survives_a_move_with_pending_recycled_chains() {
    fn build() -> ConcurrentBlockTree<LongestChain, AcceptAll> {
        let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        // 500 appends cross the 257-block doubling; nothing sweeps the
        // publication it retired until the next swap.
        for i in 0..500u64 {
            tree.append(CandidateBlock::simple(ProcessId(0), i))
                .expect("AcceptAll");
        }
        assert!(tree.epochs().pending_items() > 0, "a retirement is pending");
        tree // moved to the caller with the retirement still pending
    }
    let tree = build();
    // A second move, through the heap and back.
    let tree = *Box::new(tree);
    assert!(
        tree.epochs().pending_items() > 0,
        "the move carries pending retirements"
    );
    for i in 0..100u64 {
        tree.append(CandidateBlock::simple(ProcessId(1), (1 << 40) | i))
            .expect("AcceptAll");
    }
    assert_eq!(tree.len(), 601);
    reclaim_fully(&tree);
    assert_eq!(tree.epochs().pending_items(), 0);
    drop(tree); // must terminate and balance the byte ledger
}

/// Interleaved graft reorgs + readers: reclamation under chains that
/// shrink as well as grow (every shared reorg splice retires a buffer).
#[test]
fn reorg_churn_reclaims_superseded_buffers() {
    for seed in 0..6u64 {
        let tree = ConcurrentBlockTree::new(btadt_core::selection::HeaviestWork, AcceptAll);
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let tree = &tree;
                s.spawn(move || {
                    for i in 0..40u64 {
                        let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                        let view = tree.read();
                        let ids = view.ids();
                        let parent = ids[(r as usize >> 4) % ids.len()];
                        drop(view);
                        tree.graft(
                            parent,
                            CandidateBlock::simple(ProcessId(t), (t as u64) << 32 | i)
                                .with_work(1 + r % 4),
                        )
                        .expect("AcceptAll");
                    }
                });
            }
            let tree = &tree;
            s.spawn(move || {
                for _ in 0..200 {
                    let view = tree.read();
                    assert_eq!(view.ids()[0], BlockId::GENESIS);
                    assert_eq!(view.to_owned().ids(), view.ids());
                }
            });
        });
        assert_eq!(tree.selected_tip(), tree.selected_tip_full_scan());
        reclaim_fully(&tree);
        assert_eq!(tree.epochs().pending_items(), 0, "seed {seed}");
        assert_eq!(tree.epochs().retired_bytes(), 0, "seed {seed}");
    }
}

/// The reorg-heavy churn: 2 appenders extend the `HeaviestWork` tip, 1
/// grafter keeps flipping it with heavy blocks grafted 1–4 links below,
/// and 2 readers race both. Every flip is a shared reorg splice, so its
/// publication really swaps in and the old one retires under pinned
/// readers. Readers check each view against its owned upgrade and
/// against the arena's parent links, and check prefix-monotonicity of
/// their snapshots whenever no graft ran between two reads (appends
/// alone only extend the heaviest chain).
#[test]
fn reorg_heavy_churn_retires_publications_under_pinned_readers() {
    const APPENDS_EACH: u64 = 150;
    const GRAFTS: u64 = 60;
    const READS_EACH: u64 = 300;
    for seed in 0..8u64 {
        let tree = ConcurrentBlockTree::new(HeaviestWork, AcceptAll);
        // Grafts begun / finished: a reader that sees `finished` before
        // one read equal `started` after the next knows no graft ran in
        // between.
        let started = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let flips = AtomicU64::new(0);
        let barrier = Barrier::new(5);
        std::thread::scope(|s| {
            for a in 0..2u32 {
                let (tree, barrier) = (&tree, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..APPENDS_EACH {
                        let nonce = (seed << 40) | ((a as u64) << 20) | i;
                        tree.append(CandidateBlock::simple(ProcessId(a), nonce))
                            .expect("AcceptAll");
                        if splitmix64_at(seed ^ 0xA11, (a as u64) << 20 | i).is_multiple_of(3) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            {
                let (tree, barrier) = (&tree, &barrier);
                let (started, finished, flips) = (&started, &finished, &flips);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..GRAFTS {
                        let r = splitmix64_at(seed ^ 0x6EAF, i);
                        let before = tree.read_owned();
                        let ids = before.ids();
                        let depth = 1 + (r as usize % 4);
                        let parent = ids[ids.len().saturating_sub(1 + depth)];
                        started.fetch_add(1, Ordering::SeqCst);
                        tree.graft(
                            parent,
                            CandidateBlock::simple(ProcessId(9), (seed << 40) | (1 << 30) | i)
                                .with_work(8 + r % 4),
                        )
                        .expect("AcceptAll")
                        .expect("AcceptAll");
                        finished.fetch_add(1, Ordering::SeqCst);
                        if !before.is_prefix_of(&tree.read_owned()) {
                            flips.fetch_add(1, Ordering::Relaxed);
                        }
                        std::thread::yield_now();
                    }
                });
            }
            for r in 0..2u64 {
                let (tree, barrier) = (&tree, &barrier);
                let (started, finished) = (&started, &finished);
                s.spawn(move || {
                    barrier.wait();
                    let mut last: Option<(Blockchain, u64)> = None;
                    for i in 0..READS_EACH {
                        let done = finished.load(Ordering::SeqCst);
                        let view = tree.read();
                        let ids = view.ids();
                        assert_eq!(ids[0], BlockId::GENESIS, "views are genesis-rooted");
                        assert_eq!(view.tip(), *ids.last().unwrap());
                        for w in ids.windows(2) {
                            assert_eq!(
                                tree.store().parent(w[1]),
                                Some(w[0]),
                                "a view is a parent-linked path"
                            );
                        }
                        let owned = view.to_owned();
                        assert_eq!(owned.ids(), ids, "owned upgrade is bit-identical");
                        drop(view);
                        if let Some((prev, prev_done)) = &last {
                            if started.load(Ordering::SeqCst) == *prev_done {
                                assert!(
                                    prev.is_prefix_of(&owned),
                                    "seed {seed}: appends alone only extend the chain"
                                );
                            }
                        }
                        last = Some((owned, done));
                        if splitmix64_at(seed ^ 0x4EAD ^ r, i).is_multiple_of(4) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(tree.selected_tip(), tree.selected_tip_full_scan());
        assert_eq!(
            tree.len() as u64,
            1 + 2 * APPENDS_EACH + GRAFTS,
            "seed {seed}: all committed"
        );
        let flips = flips.load(Ordering::Relaxed);
        assert!(flips > 0, "seed {seed}: the grafter flipped the tip");
        reclaim_fully(&tree);
        assert_eq!(tree.epochs().pending_items(), 0, "seed {seed}");
        assert_eq!(tree.epochs().retired_bytes(), 0, "seed {seed}");
        // Each flip the grafter saw is its own shared reorg splice, and
        // each of those swapped and retired exactly one publication.
        assert!(
            tree.epochs().reclaimed_items() >= flips,
            "seed {seed}: {} retirements for {flips} flips",
            tree.epochs().reclaimed_items()
        );
    }
}
