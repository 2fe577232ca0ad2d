//! Differential tests: the incremental selection path (`on_insert` +
//! `ChainCache`) must agree bit-for-bit with the full-scan `select_tip`
//! oracle of Def. 3.1 — on every insert of randomized fork-heavy
//! workloads, for every shipped selection rule. This is what preserves
//! the paper's hierarchy/criteria results across the performance
//! refactor: every consistency checker consumes chains produced by
//! `read()`, and `read()` now comes off the cache.
//!
//! Two workload shapes:
//!
//! * **mint-order**: blocks join the membership the moment they are
//!   minted, with parents biased toward recent blocks (long competing
//!   branches) but free to hit any block (wide shallow forks);
//! * **shuffled delivery**: the tree is minted first, then membership
//!   inserts replay in a random parent-closed order — the shape replicas
//!   see under out-of-order networks, where consecutive inserts land in
//!   unrelated subtrees.
//!
//! Combined, the two scenarios exceed 1000 distinct random sequences.

use btadt_core::block::Payload;
use btadt_core::chain::Blockchain;
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::{
    batch_score, Ghost, GhostWeight, HeaviestWork, LongestChain, SelectionAux, SelectionFn,
    TipUpdate,
};
use btadt_core::store::{BlockMeta, BlockStore, BlockView, TreeMembership};
use btadt_core::tipcache::ChainCache;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

fn rules() -> Vec<(&'static str, Box<dyn SelectionFn>)> {
    vec![
        ("longest", Box::new(LongestChain)),
        ("heaviest", Box::new(HeaviestWork)),
        (
            "ghost-count",
            Box::new(Ghost {
                weight: GhostWeight::BlockCount,
            }),
        ),
        (
            "ghost-work",
            Box::new(Ghost {
                weight: GhostWeight::Work,
            }),
        ),
    ]
}

/// Draw the parent for the next mint: half the time a recent block (deep
/// competing branches), otherwise any block (wide forks near the root).
fn pick_parent(seed: u64, step: u64, minted: &[BlockId]) -> BlockId {
    let r = splitmix64_at(seed ^ 0x9A_2E17, step);
    let idx = if r & 1 == 0 {
        let window = minted.len().min(5);
        minted.len() - 1 - (r as usize >> 1) % window
    } else {
        (r as usize >> 1) % minted.len()
    };
    minted[idx]
}

/// One mint-order sequence: returns how many inserts were checked.
fn run_mint_order_sequence(seed: u64) -> usize {
    let n_blocks = 24 + (splitmix64_at(seed, 0) % 40) as usize;
    let mut store = BlockStore::new();
    let mut tree = TreeMembership::genesis_only();
    let rules = rules();
    let mut caches: Vec<ChainCache> = rules.iter().map(|_| ChainCache::new()).collect();
    let mut minted = vec![BlockId::GENESIS];

    for step in 0..n_blocks as u64 {
        let parent = pick_parent(seed, step, &minted);
        let work = 1 + splitmix64_at(seed ^ 0x3052, step) % 4;
        let b = store.mint(
            parent,
            ProcessId((step % 4) as u32),
            (step % 4) as u32,
            work,
            step,
            Payload::Empty,
        );
        minted.push(b);
        tree.insert(&store, b);
        for ((name, rule), cache) in rules.iter().zip(caches.iter_mut()) {
            cache.on_insert(rule.as_ref(), &store, &tree, b);
            let oracle_tip = rule.select_tip(&store, &tree);
            assert_eq!(
                cache.tip(),
                oracle_tip,
                "seed {seed} step {step}: incremental {name} diverged from full scan"
            );
            assert_eq!(
                cache.chain(),
                Blockchain::from_tip(&store, oracle_tip),
                "seed {seed} step {step}: cached {name} chain diverged"
            );
        }
    }
    n_blocks
}

/// One shuffled-delivery sequence: mint the whole tree, then insert the
/// membership in a random parent-closed order.
fn run_shuffled_sequence(seed: u64) -> usize {
    let n_blocks = 20 + (splitmix64_at(seed, 1) % 30) as usize;
    let mut store = BlockStore::new();
    let mut minted = vec![BlockId::GENESIS];
    for step in 0..n_blocks as u64 {
        let parent = pick_parent(seed, step, &minted);
        let work = 1 + splitmix64_at(seed ^ 0x3053, step) % 4;
        minted.push(store.mint(
            parent,
            ProcessId((step % 3) as u32),
            (step % 3) as u32,
            work,
            step,
            Payload::Empty,
        ));
    }

    let mut tree = TreeMembership::genesis_only();
    let rules = rules();
    let mut caches: Vec<ChainCache> = rules.iter().map(|_| ChainCache::new()).collect();
    // Ready set: minted blocks whose parent is already a member.
    let mut pending: Vec<BlockId> = minted[1..].to_vec();
    let mut step = 0u64;
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| {
                store
                    .parent(pending[i])
                    .map(|p| tree.contains(p))
                    .unwrap_or(true)
            })
            .collect();
        let pick = ready[(splitmix64_at(seed ^ 0x5417, step) as usize) % ready.len()];
        let b = pending.swap_remove(pick);
        tree.insert(&store, b);
        for ((name, rule), cache) in rules.iter().zip(caches.iter_mut()) {
            cache.on_insert(rule.as_ref(), &store, &tree, b);
            let oracle_tip = rule.select_tip(&store, &tree);
            assert_eq!(
                cache.tip(),
                oracle_tip,
                "seed {seed} delivery {step}: incremental {name} diverged from full scan"
            );
        }
        step += 1;
    }
    n_blocks
}

#[test]
fn incremental_matches_full_scan_on_mint_order_workloads() {
    let mut inserts = 0;
    for seed in 0..800u64 {
        inserts += run_mint_order_sequence(seed);
    }
    assert!(
        inserts > 10_000,
        "workload should be substantial: {inserts}"
    );
}

#[test]
fn incremental_matches_full_scan_on_shuffled_delivery() {
    let mut inserts = 0;
    for seed in 0..300u64 {
        inserts += run_shuffled_sequence(0xD15_7269 ^ seed);
    }
    assert!(inserts > 5_000, "workload should be substantial: {inserts}");
}

/// The same agreement through the public `BlockTree` API, mixing tip
/// appends with explicit forks via `graft`, and checking the `read()`
/// output (the externally observable surface of Def. 3.1).
#[test]
fn blocktree_reads_match_full_scan_under_grafted_forks() {
    use btadt_core::blocktree::{BlockTree, CandidateBlock};
    use btadt_core::validity::AcceptAll;

    for seed in 0..120u64 {
        let mut bt = BlockTree::new(LongestChain, AcceptAll);
        let mut ids = vec![BlockId::GENESIS];
        for step in 0..60u64 {
            let r = splitmix64_at(seed ^ 0xB10C7, step);
            let id = if r.is_multiple_of(3) {
                // Fork: graft under an arbitrary known block.
                let parent = ids[(r as usize >> 8) % ids.len()];
                bt.graft(parent, CandidateBlock::simple(ProcessId(0), step))
            } else {
                let before = bt.store().len();
                bt.append(CandidateBlock::simple(ProcessId(1), step));
                Some(BlockId(before as u32))
            };
            if let Some(id) = id {
                ids.push(id);
            }
            assert_eq!(
                bt.selected_tip(),
                bt.selected_tip_full_scan(),
                "seed {seed} step {step}: BlockTree cache diverged"
            );
            assert_eq!(
                bt.read(),
                Blockchain::from_tip(bt.store(), bt.selected_tip_full_scan()),
                "seed {seed} step {step}: read() diverged from Def. 3.1"
            );
        }
    }
}

/// The concurrent↔sequential differential: race threads on a
/// `ConcurrentBlockTree`, then replay the run's committed insert order
/// into the sequential machinery (snapshot arena + `TreeMembership` +
/// `ChainCache`) and demand the identical final tip and chain — per rule,
/// with the full-scan `select_tip` as the ultimate oracle at every step.
fn concurrent_replay_matches_sequential<F: btadt_core::selection::SelectionFn + Clone>(
    rule: F,
    seed: u64,
) {
    use btadt_core::blocktree::CandidateBlock;
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::validity::AcceptAll;

    let cbt = ConcurrentBlockTree::new(rule.clone(), AcceptAll);
    std::thread::scope(|s| {
        // Two appenders extending the selected tip…
        for t in 0..2u32 {
            let cbt = &cbt;
            s.spawn(move || {
                for i in 0..25u64 {
                    let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                    let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                        .with_work(1 + r % 4);
                    cbt.append(cand).expect("AcceptAll");
                }
            });
        }
        // …and two fork builders grafting at random depths of the
        // published chain (real reorg pressure for heaviest/GHOST).
        for t in 2..4u32 {
            let cbt = &cbt;
            s.spawn(move || {
                for i in 0..25u64 {
                    let chain = cbt.read();
                    let ids = chain.ids();
                    let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                    let parent = ids[(r as usize >> 3) % ids.len()];
                    let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                        .with_work(1 + r % 4);
                    cbt.graft(parent, cand).expect("AcceptAll");
                }
            });
        }
    });

    let store = cbt.snapshot_store();
    let log = cbt.commit_log();
    assert_eq!(log.len(), 100, "every commit recorded");

    let mut tree = TreeMembership::genesis_only();
    let mut cache = ChainCache::new();
    for (step, &id) in log.iter().enumerate() {
        tree.insert(&store, id);
        cache.on_insert(&rule, &store, &tree, id);
        assert_eq!(
            cache.tip(),
            rule.select_tip(&store, &tree),
            "seed {seed} step {step}: replay diverged from full scan"
        );
    }
    assert_eq!(
        cache.tip(),
        cbt.selected_tip(),
        "seed {seed}: sequential replay tip ≠ concurrent tip"
    );
    assert_eq!(
        cache.chain(),
        cbt.read_owned(),
        "seed {seed}: sequential replay chain ≠ concurrent published chain"
    );
    assert_eq!(cbt.selected_tip(), cbt.selected_tip_full_scan());
}

#[test]
fn concurrent_runs_replay_to_identical_selection_longest() {
    for seed in 0..8u64 {
        concurrent_replay_matches_sequential(LongestChain, seed);
    }
}

#[test]
fn concurrent_runs_replay_to_identical_selection_heaviest() {
    for seed in 0..8u64 {
        concurrent_replay_matches_sequential(HeaviestWork, 0xC0FFEE ^ seed);
    }
}

#[test]
fn concurrent_runs_replay_to_identical_selection_ghost() {
    for seed in 0..8u64 {
        concurrent_replay_matches_sequential(
            Ghost {
                weight: GhostWeight::BlockCount,
            },
            0x6057 ^ seed,
        );
        concurrent_replay_matches_sequential(
            Ghost {
                weight: GhostWeight::Work,
            },
            0x6058 ^ seed,
        );
    }
}

/// Solo and contended commits replay identically: a solo phase (one
/// appender, every publication its own) followed by a contended phase
/// (appends race on the selection lock, and a publisher may pop several
/// staged commits at once), then the whole commit log replays through
/// the sequential machinery to the identical chain. The pipeline counter
/// proves every append issued reached stage 1; the replay proves the
/// phases are observationally one.
#[test]
fn mixed_inline_and_staged_commits_replay_identically() {
    use btadt_core::blocktree::CandidateBlock;
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::validity::AcceptAll;

    for seed in 0..6u64 {
        let cbt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        // Solo phase: 30 appends from one thread.
        for i in 0..30u64 {
            cbt.append(CandidateBlock::simple(ProcessId(0), i).with_work(1 + (seed + i) % 3))
                .expect("AcceptAll");
        }
        let solo = cbt.pipeline_stats();
        assert_eq!(solo.inline_appends, 30, "seed {seed}: solo phase counted");
        assert_eq!(
            solo.batched_appends, 0,
            "seed {seed}: the retired queue counter reads 0"
        );
        // Contended phase: 4 racing appenders.
        std::thread::scope(|s| {
            for t in 1..5u32 {
                let cbt = &cbt;
                s.spawn(move || {
                    for i in 0..20u64 {
                        let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                        let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                            .with_work(1 + r % 4);
                        cbt.append(cand).expect("AcceptAll");
                    }
                });
            }
        });
        let stats = cbt.pipeline_stats();
        assert_eq!(
            stats.inline_appends, 110,
            "seed {seed}: every append issued reached stage 1"
        );
        // Replay the commit log sequentially: both phases linearized into
        // one insert order that reproduces the published chain.
        let store = cbt.snapshot_store();
        let log = cbt.commit_log();
        assert_eq!(log.len(), 110, "seed {seed}");
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        for &id in &log {
            tree.insert(&store, id);
            cache.on_insert(&LongestChain, &store, &tree, id);
        }
        assert_eq!(
            cache.chain(),
            cbt.read_owned(),
            "seed {seed}: mixed-path replay diverged from the published chain"
        );
        assert_eq!(
            cbt.selected_tip(),
            cbt.selected_tip_full_scan(),
            "seed {seed}"
        );
    }
}

/// The two-stage drain's sharded scoring: partition each drained batch by
/// subtree, score the shards independently, fold them with the
/// associative `merge`, apply once — and land exactly where the serial
/// per-insert `on_insert` fold lands, which is itself held to the
/// full-scan `select_tip` oracle. 20 seeds of fork-heavy random batches,
/// for longest, heaviest, and both GHOST weightings, through the
/// `check_partition_merge` checker (which also replays the shard fold in
/// reverse order to catch merge-order sensitivity).
#[test]
fn sharded_batch_scoring_matches_serial_fold() {
    use btadt_core::criteria::score_partition::check_partition_merge;
    use btadt_core::selection::{batch_score, SelectionAux, TipUpdate};

    for seed in 0..20u64 {
        // Mint a fork-heavy tree; mint order is parent-closed, so any
        // consecutive slice of it is a valid drained batch.
        let n_blocks = 40 + (splitmix64_at(seed, 7) % 50) as usize;
        let mut store = BlockStore::new();
        let mut minted = vec![BlockId::GENESIS];
        for step in 0..n_blocks as u64 {
            let parent = pick_parent(seed ^ 0x7EA2, step, &minted);
            let work = 1 + splitmix64_at(seed ^ 0x3054, step) % 4;
            minted.push(store.mint(
                parent,
                ProcessId((step % 4) as u32),
                (step % 4) as u32,
                work,
                step,
                Payload::Empty,
            ));
        }

        for (name, rule) in rules() {
            // Batched pipeline state vs the serial commit-log fold. The
            // serial side keeps its own membership and inserts one block
            // at a time, exactly as the pre-pipeline drain did — so its
            // incremental state is warmed against the tree-so-far, never
            // against a tree that already holds the rest of the batch.
            let mut tree = TreeMembership::genesis_only();
            let mut aux = SelectionAux::new();
            let mut tip = BlockId::GENESIS;
            let mut serial_tree = TreeMembership::genesis_only();
            let mut serial_aux = SelectionAux::new();
            let mut serial_tip = BlockId::GENESIS;
            let mut commit_log: Vec<BlockId> = Vec::new();
            let mut serial_log: Vec<BlockId> = Vec::new();

            let mut next = 1usize;
            let mut batch_no = 0u64;
            while next <= n_blocks {
                // Drained batches of 1..=6 commits, like a contended drain.
                let want = 1 + (splitmix64_at(seed ^ 0xBA7C, batch_no) % 6) as usize;
                let batch: Vec<BlockId> = minted[next..(next + want).min(n_blocks + 1)].to_vec();
                next += batch.len();
                batch_no += 1;

                for &id in &batch {
                    tree.insert(&store, id);
                }
                let violations =
                    check_partition_merge(rule.as_ref(), &store, &tree, &aux, &batch, tip);
                assert!(
                    violations.is_empty(),
                    "seed {seed} batch {batch_no} rule {name}: {violations:?}"
                );
                tip = batch_score(rule.as_ref(), &store, &tree, &mut aux, &batch, tip);
                commit_log.extend_from_slice(&batch);

                // Serial fold over the identical commits, one at a time.
                for &id in &batch {
                    serial_tree.insert(&store, id);
                    match rule.on_insert(&store, &serial_tree, &mut serial_aux, id, serial_tip) {
                        TipUpdate::Unchanged => {}
                        TipUpdate::Extended(t) | TipUpdate::Switched(t) => serial_tip = t,
                    }
                    serial_log.push(id);
                }
                assert_eq!(
                    tip, serial_tip,
                    "seed {seed} batch {batch_no} rule {name}: batched tip diverged"
                );
            }
            assert_eq!(commit_log, serial_log, "seed {seed} rule {name}");
            assert_eq!(
                tip,
                rule.select_tip(&store, &tree),
                "seed {seed} rule {name}: final tip vs oracle"
            );
            assert_eq!(
                Blockchain::from_tip(&store, tip),
                Blockchain::from_tip(&store, serial_tip),
                "seed {seed} rule {name}: chains diverged"
            );
        }
    }
}

/// Repeated reads of an unchanged tip must share one snapshot allocation —
/// the zero-rewalk guarantee (`path_from_genesis` is off the read path).
#[test]
fn unchanged_tip_reads_share_the_snapshot() {
    use btadt_core::blocktree::{BlockTree, CandidateBlock};
    use btadt_core::validity::AcceptAll;

    let mut bt = BlockTree::new(LongestChain, AcceptAll);
    for i in 0..50 {
        bt.append(CandidateBlock::simple(ProcessId(0), i));
    }
    let a = bt.read();
    let b = bt.read();
    assert_eq!(a, b);
    assert_eq!(
        a.ids().as_ptr(),
        b.ids().as_ptr(),
        "reads of an unchanged tip must be Arc clones, not fresh walks"
    );
    bt.append(CandidateBlock::simple(ProcessId(0), 99));
    let c = bt.read();
    // Frontier appends extend the shared buffer in place: the held
    // snapshot keeps its shorter view, no copy-on-write happens.
    assert_eq!(c.len(), a.len() + 1);
    assert_eq!(a, b, "held snapshot is unmoved by the append");
    assert!(a.is_prefix_of(&c));
}

// ── GHOST's chain-relative representation ───────────────────────────────
//
// GHOST keeps subtree weights relative to the selected chain: a Fenwick
// tree over the chain's `own + side` weights, explicit weights off it.
// The tests below hold that representation to a full recompute — the
// incremental tip must equal the full-scan `select_tip`, and the weight
// the aux derives for *every* member must equal the member's subtree
// weight counted from scratch — across random parent-closed sequences,
// deep grafts, overtaking branches, resets and batches. The last test
// pins the cost: store accesses per insert are counted, not timed.

fn ghosts() -> [Ghost; 2] {
    [
        Ghost {
            weight: GhostWeight::BlockCount,
        },
        Ghost {
            weight: GhostWeight::Work,
        },
    ]
}

/// Every member's subtree weight, counted from scratch (children have
/// larger ids than their parents, so one reverse pass accumulates).
fn recomputed_weights(rule: &Ghost, store: &dyn BlockView, tree: &TreeMembership) -> Vec<u64> {
    let mut w = vec![0u64; store.block_count()];
    for idx in (0..w.len()).rev() {
        let id = BlockId(idx as u32);
        if !tree.contains(id) {
            continue;
        }
        w[idx] += match rule.weight {
            GhostWeight::BlockCount => 1,
            GhostWeight::Work => store.work_of(id).max(1),
        };
        if let Some(p) = store.parent(id) {
            w[p.index()] += w[idx];
        }
    }
    w
}

/// The maintained tip is the oracle's, and the aux derives every member's
/// recomputed subtree weight.
fn assert_ghost_state(
    rule: &Ghost,
    store: &dyn BlockView,
    tree: &TreeMembership,
    aux: &SelectionAux,
    tip: BlockId,
    ctx: &str,
) {
    assert_eq!(tip, rule.select_tip(store, tree), "{ctx}: tip vs full scan");
    for (idx, &want) in recomputed_weights(rule, store, tree).iter().enumerate() {
        let id = BlockId(idx as u32);
        if tree.contains(id) {
            assert_eq!(
                aux.derived_ghost_weight(store, id),
                want,
                "{ctx}: derived weight of {id}"
            );
        }
    }
}

fn fold_insert(
    rule: &Ghost,
    store: &dyn BlockView,
    tree: &TreeMembership,
    aux: &mut SelectionAux,
    id: BlockId,
    tip: BlockId,
) -> BlockId {
    match rule.on_insert(store, tree, aux, id, tip) {
        TipUpdate::Unchanged => tip,
        TipUpdate::Extended(t) | TipUpdate::Switched(t) => t,
    }
}

/// A random parent-closed delivery order of every non-genesis block.
fn parent_closed_shuffle(store: &BlockStore, seed: u64) -> Vec<BlockId> {
    let mut delivered = TreeMembership::genesis_only();
    let mut pending: Vec<BlockId> = store.ids().skip(1).collect();
    let mut order = Vec::with_capacity(pending.len());
    let mut step = 0u64;
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| delivered.contains(store.parent(pending[i]).expect("non-genesis")))
            .collect();
        let pick = ready[(splitmix64_at(seed, step) as usize) % ready.len()];
        let b = pending.swap_remove(pick);
        delivered.insert(store, b);
        order.push(b);
        step += 1;
    }
    order
}

fn fork_heavy_store(seed: u64, n_blocks: usize) -> BlockStore {
    let mut store = BlockStore::new();
    let mut minted = vec![BlockId::GENESIS];
    for step in 0..n_blocks as u64 {
        let parent = pick_parent(seed, step, &minted);
        let work = 1 + splitmix64_at(seed ^ 0x3055, step) % 4;
        minted.push(store.mint(
            parent,
            ProcessId((step % 4) as u32),
            (step % 4) as u32,
            work,
            step,
            Payload::Empty,
        ));
    }
    store
}

/// Mint order and shuffled delivery, one insert at a time, with the aux
/// reset at random points (the rebuild must rejoin the same state) and a
/// `ChainCache` rebuilt alongside.
#[test]
fn ghost_weights_match_recompute_on_random_sequences() {
    for seed in 0..120u64 {
        let store = fork_heavy_store(seed, 20 + (splitmix64_at(seed, 2) % 40) as usize);
        let mint_order: Vec<BlockId> = store.ids().skip(1).collect();
        let shuffled = parent_closed_shuffle(&store, seed ^ 0x5418);
        for (shape, order) in [("mint-order", &mint_order), ("shuffled", &shuffled)] {
            for rule in ghosts() {
                let mut tree = TreeMembership::genesis_only();
                let mut aux = SelectionAux::new();
                let mut cache = ChainCache::new();
                let mut tip = BlockId::GENESIS;
                for (step, &id) in order.iter().enumerate() {
                    tree.insert(&store, id);
                    let r = splitmix64_at(seed ^ 0x2E5E7, step as u64);
                    if r.is_multiple_of(16) {
                        aux.reset();
                    }
                    tip = fold_insert(&rule, &store, &tree, &mut aux, id, tip);
                    if r % 16 == 1 {
                        cache.rebuild(&rule, &store, &tree);
                    } else {
                        cache.on_insert(&rule, &store, &tree, id);
                    }
                    let ctx = format!("seed {seed} {shape} {:?} step {step}", rule.weight);
                    assert_ghost_state(&rule, &store, &tree, &aux, tip, &ctx);
                    assert_eq!(cache.tip(), tip, "{ctx}: cache tip");
                }
            }
        }
    }
}

/// A long chain grown at its tip while forks graft onto uniformly random
/// heights of the selected chain, some growing short side branches (so
/// later inserts walk explicit off-chain weights before reaching the
/// chain).
#[test]
fn ghost_weights_match_recompute_under_deep_grafts() {
    for seed in 0..4u64 {
        for rule in ghosts() {
            let mut store = BlockStore::new();
            let mut tree = TreeMembership::genesis_only();
            let mut aux = SelectionAux::new();
            let mut tip = BlockId::GENESIS;
            let mut side_tips: Vec<BlockId> = Vec::new();
            for step in 0..600u64 {
                let r = splitmix64_at(seed ^ 0x6EAF7, step);
                let parent = match r % 6 {
                    0 => {
                        // Graft at a uniform height of the selected chain.
                        let h = (r >> 8) % (store.height(tip) as u64 + 1);
                        store.ancestor_at(tip, h as u32)
                    }
                    1 if !side_tips.is_empty() => {
                        side_tips.swap_remove((r >> 8) as usize % side_tips.len())
                    }
                    _ => tip,
                };
                let work = 1 + (r >> 16) % 4;
                let id = store.mint(parent, ProcessId(0), 0, work, step, Payload::Empty);
                tree.insert(&store, id);
                if parent != tip {
                    side_tips.push(id);
                }
                tip = fold_insert(&rule, &store, &tree, &mut aux, id, tip);
                let ctx = format!("seed {seed} {:?} step {step}", rule.weight);
                assert_ghost_state(&rule, &store, &tree, &aux, tip, &ctx);
            }
            assert!(store.height(tip) > 200, "the chain grew deep");
        }
    }
}

/// A competing branch off genesis overtakes a long chain — a reorg of the
/// whole chain — and the first branch then wins back, both times reported
/// as a `Switched` update that lands on the oracle's tip.
#[test]
fn ghost_deep_reorg_when_a_competing_branch_overtakes() {
    for rule in ghosts() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut aux = SelectionAux::new();
        let mut tip = BlockId::GENESIS;
        let mut nonce = 0u64;
        let mut grow = |store: &mut BlockStore,
                        tree: &mut TreeMembership,
                        aux: &mut SelectionAux,
                        tip: &mut BlockId,
                        parent: BlockId|
         -> (BlockId, TipUpdate) {
            nonce += 1;
            let id = store.mint(
                parent,
                ProcessId(0),
                0,
                1 + nonce % 3,
                nonce,
                Payload::Empty,
            );
            tree.insert(store, id);
            let update = rule.on_insert(store, tree, aux, id, *tip);
            if let TipUpdate::Extended(t) | TipUpdate::Switched(t) = update {
                *tip = t;
            }
            (id, update)
        };
        // Chain A: 150 blocks at the tip.
        let mut a_tip = BlockId::GENESIS;
        for _ in 0..150 {
            let (id, _) = grow(&mut store, &mut tree, &mut aux, &mut tip, a_tip);
            a_tip = id;
        }
        assert_eq!(tip, a_tip);
        // Branch B off genesis until it takes over.
        let mut b_tip = BlockId::GENESIS;
        let mut switched = None;
        for step in 0..1000 {
            let (id, update) = grow(&mut store, &mut tree, &mut aux, &mut tip, b_tip);
            b_tip = id;
            let ctx = format!("{:?} branch B step {step}", rule.weight);
            assert_ghost_state(&rule, &store, &tree, &aux, tip, &ctx);
            if let TipUpdate::Switched(t) = update {
                switched = Some(t);
                break;
            }
        }
        assert_eq!(switched, Some(b_tip), "{:?}: B overtook A", rule.weight);
        // And A wins back.
        let mut back = None;
        for step in 0..1000 {
            let (id, update) = grow(&mut store, &mut tree, &mut aux, &mut tip, a_tip);
            a_tip = id;
            let ctx = format!("{:?} branch A step {step}", rule.weight);
            assert_ghost_state(&rule, &store, &tree, &aux, tip, &ctx);
            if let TipUpdate::Switched(t) = update {
                back = Some(t);
                break;
            }
        }
        assert_eq!(back, Some(a_tip), "{:?}: A overtook B again", rule.weight);
    }
}

/// Random-size batches (1..=16 inserts of a parent-closed delivery order)
/// through `batch_score`, with random resets between batches.
#[test]
fn ghost_weights_match_recompute_through_random_batches() {
    for seed in 0..120u64 {
        let store = fork_heavy_store(seed ^ 0xBA7, 30 + (splitmix64_at(seed, 3) % 60) as usize);
        let order = parent_closed_shuffle(&store, seed ^ 0x5419);
        for rule in ghosts() {
            let mut tree = TreeMembership::genesis_only();
            let mut aux = SelectionAux::new();
            let mut tip = BlockId::GENESIS;
            let mut next = 0usize;
            let mut batch_no = 0u64;
            while next < order.len() {
                let r = splitmix64_at(seed ^ 0xBA7D, batch_no);
                let want = 1 + (r % 16) as usize;
                let batch = &order[next..(next + want).min(order.len())];
                next += batch.len();
                for &id in batch {
                    tree.insert(&store, id);
                }
                if (r >> 8).is_multiple_of(12) {
                    aux.reset();
                }
                tip = batch_score(&rule, &store, &tree, &mut aux, batch, tip);
                let ctx = format!("seed {seed} {:?} batch {batch_no}", rule.weight);
                assert_ghost_state(&rule, &store, &tree, &aux, tip, &ctx);
                batch_no += 1;
            }
        }
    }
}

/// A `BlockStore` view that counts every access the selection makes:
/// `meta` and its derived reads, `parent`, `height`, `for_each_child`.
struct CountingView<'a> {
    inner: &'a BlockStore,
    calls: AtomicU64,
}

impl CountingView<'_> {
    fn count(&self) {
        // Single-threaded test view: the count is the only shared state.
        self.calls.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn calls(&self) -> u64 {
        self.calls.load(AtomicOrdering::Relaxed)
    }
}

impl BlockView for CountingView<'_> {
    fn block_count(&self) -> usize {
        self.inner.block_count()
    }
    fn has_block(&self, id: BlockId) -> bool {
        self.inner.has_block(id)
    }
    fn meta(&self, id: BlockId) -> BlockMeta {
        self.count();
        BlockView::meta(self.inner, id)
    }
    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&btadt_core::block::Block)) {
        self.count();
        self.inner.with_block(id, f)
    }
    fn for_each_child(&self, id: BlockId, f: &mut dyn FnMut(BlockId)) {
        self.count();
        self.inner.for_each_child(id, f)
    }
    fn parent(&self, id: BlockId) -> Option<BlockId> {
        self.count();
        BlockView::parent(self.inner, id)
    }
    fn height(&self, id: BlockId) -> u32 {
        self.count();
        BlockView::height(self.inner, id)
    }
}

/// The sublinearity pin: on a 50k-block GHOST chain, every tip extension
/// costs at most a few store accesses, and the whole run — grafts at
/// uniform heights included — stays under n·log₂n accesses. A leaf→root
/// walk per insert would cost ~n²/2 here.
#[test]
fn ghost_store_hops_stay_constant_per_extension() {
    const N: u64 = 50_000;
    const EXTENSION_HOPS: u64 = 4;
    for rule in ghosts() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut aux = SelectionAux::new();
        let mut tip = BlockId::GENESIS;
        let mut inserts = 0u64;
        let mut total = 0u64;
        let mut worst_extension = 0u64;
        for step in 0..N {
            let r = splitmix64_at(0x5B11_0617, step);
            let parent = if r.is_multiple_of(8) {
                let h = (r >> 8) % (store.height(tip) as u64 + 1);
                store.ancestor_at(tip, h as u32)
            } else {
                tip
            };
            let id = store.mint(
                parent,
                ProcessId(0),
                0,
                1 + (r >> 16) % 4,
                step,
                Payload::Empty,
            );
            tree.insert(&store, id);
            let view = CountingView {
                inner: &store,
                calls: AtomicU64::new(0),
            };
            let extends = parent == tip;
            tip = fold_insert(&rule, &view, &tree, &mut aux, id, tip);
            inserts += 1;
            total += view.calls();
            // The first insert builds the aux from scratch.
            if extends && step > 0 {
                assert_eq!(tip, id, "{:?}: a child of the tip is selected", rule.weight);
                worst_extension = worst_extension.max(view.calls());
            }
        }
        eprintln!(
            "{:?}: {total} store accesses over {inserts} inserts, worst extension {worst_extension}",
            rule.weight
        );
        let n = inserts as f64;
        let bound = (n * n.log2()) as u64;
        assert!(
            worst_extension <= EXTENSION_HOPS,
            "{:?}: a tip extension cost {worst_extension} store accesses",
            rule.weight
        );
        assert!(
            total <= bound,
            "{:?}: {total} store accesses over {inserts} inserts exceed n·log2(n) = {bound}",
            rule.weight
        );
        assert!(store.height(tip) > 10_000, "the chain grew deep");
        assert_eq!(tip, rule.select_tip(&store, &tree), "{:?}", rule.weight);
    }
}
