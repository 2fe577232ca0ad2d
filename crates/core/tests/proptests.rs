//! Property-based tests for the core data structures and criteria:
//! prefix-order laws, store/tree invariants, sequential-specification
//! soundness, score monotonicity, and metamorphic properties of the
//! consistency checkers.

use btadt_core::adt::{check_sequential_history, AbstractDataType, Operation};
use btadt_core::block::Payload;
use btadt_core::blocktree::{BlockTreeAdt, BtInput, BtOutput, CandidateBlock};
use btadt_core::chain::Blockchain;
use btadt_core::criteria::{strong_prefix, LivenessMode};
use btadt_core::history::{History, Invocation, Response};
use btadt_core::ids::{BlockId, ProcessId, Time};
use btadt_core::linearizability::{check_linearizable, Linearizability};
use btadt_core::score::{LengthScore, ScoreFn, WorkScore};
use btadt_core::selection::{Ghost, HeaviestWork, LongestChain, SelectionFn};
use btadt_core::store::{BlockStore, TreeMembership};
use btadt_core::validity::AcceptAll;
use proptest::prelude::*;

/// A random tree of `n` blocks: parent of block i+1 is uniform among the
/// already-minted blocks (including genesis).
fn arb_store(max: usize) -> impl Strategy<Value = BlockStore> {
    prop::collection::vec((0usize..1_000, 1u64..5), 1..max).prop_map(|specs| {
        let mut store = BlockStore::new();
        for (i, (pick, work)) in specs.into_iter().enumerate() {
            let parent = BlockId((pick % store.len()) as u32);
            store.mint(
                parent,
                ProcessId((i % 4) as u32),
                (i % 4) as u32,
                work,
                i as u64,
                Payload::Empty,
            );
        }
        store
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ── Store invariants ────────────────────────────────────────────────

    #[test]
    fn heights_are_parent_plus_one(store in arb_store(40)) {
        for id in store.ids().skip(1) {
            let parent = store.parent(id).unwrap();
            prop_assert_eq!(store.height(id), store.height(parent) + 1);
        }
    }

    #[test]
    fn cumulative_work_is_sum_along_path(store in arb_store(40)) {
        for id in store.ids() {
            let sum: u64 = store.ancestors(id).map(|b| store.get(b).work).sum();
            prop_assert_eq!(store.cumulative_work(id), sum);
        }
    }

    #[test]
    fn common_ancestor_is_deepest_shared(store in arb_store(30)) {
        let ids: Vec<BlockId> = store.ids().collect();
        for &a in ids.iter().take(8) {
            for &b in ids.iter().rev().take(8) {
                let ca = store.common_ancestor(a, b);
                prop_assert!(store.is_ancestor(ca, a));
                prop_assert!(store.is_ancestor(ca, b));
                // No child of ca is an ancestor of both.
                for &c in store.children(ca) {
                    prop_assert!(!(store.is_ancestor(c, a) && store.is_ancestor(c, b)));
                }
            }
        }
    }

    #[test]
    fn path_from_genesis_is_coherent(store in arb_store(30)) {
        for id in store.ids() {
            let path = store.path_from_genesis(id);
            prop_assert_eq!(path[0], BlockId::GENESIS);
            prop_assert_eq!(*path.last().unwrap(), id);
            for w in path.windows(2) {
                prop_assert_eq!(store.parent(w[1]), Some(w[0]));
            }
        }
    }

    // ── Jump-pointer ancestry vs the naive parent walk ──────────────────
    //
    // `ancestor_at` and `common_ancestor` answer in O(log n) through the
    // store's skew-binary jump pointers; the reference implementations
    // below walk parent edges one at a time. They must agree on every
    // block pair of random trees.

    #[test]
    fn ancestor_at_matches_naive_walk(store in arb_store(60)) {
        for id in store.ids() {
            let h = store.height(id);
            for target in 0..=h {
                let mut naive = id;
                for _ in 0..(h - target) {
                    naive = store.parent(naive).unwrap();
                }
                prop_assert_eq!(
                    store.ancestor_at(id, target),
                    naive,
                    "jump-pointer ancestor_at({:?}, {}) diverged", id, target
                );
            }
        }
    }

    #[test]
    fn common_ancestor_matches_naive_two_pointer(store in arb_store(60)) {
        let naive_lca = |mut a: BlockId, mut b: BlockId| {
            while store.height(a) > store.height(b) {
                a = store.parent(a).unwrap();
            }
            while store.height(b) > store.height(a) {
                b = store.parent(b).unwrap();
            }
            while a != b {
                a = store.parent(a).unwrap();
                b = store.parent(b).unwrap();
            }
            a
        };
        let ids: Vec<BlockId> = store.ids().collect();
        for &a in ids.iter().take(12) {
            for &b in ids.iter().rev().take(12) {
                prop_assert_eq!(store.common_ancestor(a, b), naive_lca(a, b));
            }
        }
    }

    // ── Prefix-order laws ───────────────────────────────────────────────

    #[test]
    fn prefix_laws(store in arb_store(30)) {
        let ids: Vec<BlockId> = store.ids().collect();
        let chains: Vec<Blockchain> = ids
            .iter()
            .take(10)
            .map(|&id| Blockchain::from_tip(&store, id))
            .collect();
        for a in &chains {
            prop_assert!(a.is_prefix_of(a), "reflexive");
            for b in &chains {
                if a.is_prefix_of(b) && b.is_prefix_of(a) {
                    prop_assert_eq!(a, b, "antisymmetric");
                }
                prop_assert_eq!(
                    a.common_prefix_len(b),
                    b.common_prefix_len(a),
                    "common prefix symmetric"
                );
                for c in &chains {
                    if a.is_prefix_of(b) && b.is_prefix_of(c) {
                        prop_assert!(a.is_prefix_of(c), "transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn chain_prefix_matches_ancestry(store in arb_store(30)) {
        let ids: Vec<BlockId> = store.ids().collect();
        for &a in ids.iter().take(10) {
            for &b in ids.iter().take(10) {
                let ca = Blockchain::from_tip(&store, a);
                let cb = Blockchain::from_tip(&store, b);
                prop_assert_eq!(ca.is_prefix_of(&cb), store.is_ancestor(a, b));
            }
        }
    }

    #[test]
    fn mcps_is_common_ancestor_score(store in arb_store(30)) {
        let ids: Vec<BlockId> = store.ids().collect();
        for &a in ids.iter().take(8) {
            for &b in ids.iter().take(8) {
                let ca = Blockchain::from_tip(&store, a);
                let cb = Blockchain::from_tip(&store, b);
                let anc = store.common_ancestor(a, b);
                prop_assert_eq!(
                    ca.mcps(&cb, &LengthScore),
                    store.height(anc) as u64
                );
            }
        }
    }

    // ── Score monotonicity (the §3.1.2 requirement) ─────────────────────

    #[test]
    fn scores_strictly_increase_along_chains(store in arb_store(40)) {
        let ws = WorkScore::new(&store);
        for id in store.ids().skip(1) {
            let chain = Blockchain::from_tip(&store, id);
            for n in 2..=chain.len() {
                prop_assert!(
                    LengthScore.score_prefix(&chain, n)
                        > LengthScore.score_prefix(&chain, n - 1)
                );
                prop_assert!(ws.score_prefix(&chain, n) > ws.score_prefix(&chain, n - 1));
            }
        }
    }

    // ── Selection-function laws ─────────────────────────────────────────

    #[test]
    fn selections_return_members_and_are_stable(store in arb_store(40)) {
        let members = TreeMembership::full(&store);
        let fns: Vec<Box<dyn SelectionFn>> = vec![
            Box::new(LongestChain),
            Box::new(HeaviestWork),
            Box::new(Ghost::default()),
        ];
        for f in &fns {
            let tip = f.select_tip(&store, &members);
            prop_assert!(members.contains(tip));
            prop_assert_eq!(f.select_tip(&store, &members), tip, "deterministic");
            // Selected tips are leaves.
            prop_assert!(
                store.children(tip).iter().all(|c| !members.contains(*c)),
                "tip must be a leaf"
            );
        }
    }

    #[test]
    fn longest_chain_maximizes_height(store in arb_store(40)) {
        let members = TreeMembership::full(&store);
        let tip = LongestChain.select_tip(&store, &members);
        let max_height = store.ids().map(|b| store.height(b)).max().unwrap();
        prop_assert_eq!(store.height(tip), max_height);
    }

    // ── Sequential specification ────────────────────────────────────────

    #[test]
    fn executed_words_are_in_the_language(ops in prop::collection::vec(0u8..3, 1..12)) {
        let adt = BlockTreeAdt::new(LongestChain, AcceptAll);
        let mut state = adt.initial_state();
        let mut word = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let input = if op == 0 {
                BtInput::Read
            } else {
                BtInput::Append(CandidateBlock::simple(ProcessId(op as u32), i as u64))
            };
            let output = adt.output(&state, &input);
            state = adt.transition(&state, &input);
            word.push(Operation::with_output(input, output));
        }
        prop_assert!(check_sequential_history(&adt, &word).is_ok());
    }

    #[test]
    fn corrupted_read_outputs_are_rejected(appends in 1u64..6) {
        let adt = BlockTreeAdt::new(LongestChain, AcceptAll);
        let mut word = Vec::new();
        for i in 0..appends {
            word.push(Operation::with_output(
                BtInput::Append(CandidateBlock::simple(ProcessId(0), i)),
                BtOutput::Appended(true),
            ));
        }
        // Claim a read of the genesis-only chain after appends: wrong.
        word.push(Operation::with_output(
            BtInput::Read,
            BtOutput::Chain(Blockchain::genesis()),
        ));
        let err = check_sequential_history(&adt, &word).unwrap_err();
        prop_assert_eq!(err.index as u64, appends);
    }

    // ── Criteria metamorphic properties ─────────────────────────────────

    #[test]
    fn comparable_read_sets_satisfy_strong_prefix(lens in prop::collection::vec(0u32..20, 1..20)) {
        // All reads along ONE chain: SP must hold whatever the lengths.
        let mut h = History::new();
        for (i, &len) in lens.iter().enumerate() {
            let chain = Blockchain::from_ids((0..=len).map(BlockId).collect());
            h.push_complete(
                ProcessId((i % 3) as u32),
                Invocation::Read,
                Time(i as u64 * 10),
                Response::Chain(chain),
                Time(i as u64 * 10 + 1),
            );
        }
        prop_assert!(strong_prefix::check(&h).holds);
        prop_assert!(strong_prefix::check_naive(&h).holds);
    }

    #[test]
    fn one_divergent_read_breaks_strong_prefix(lens in prop::collection::vec(1u32..20, 2..15)) {
        let mut h = History::new();
        for (i, &len) in lens.iter().enumerate() {
            let chain = Blockchain::from_ids((0..=len).map(BlockId).collect());
            h.push_complete(
                ProcessId(0),
                Invocation::Read,
                Time(i as u64 * 10),
                Response::Chain(chain),
                Time(i as u64 * 10 + 1),
            );
        }
        // A chain that shares only genesis, with a distinct second block id
        // outside the 0..20 range used above.
        let rogue = Blockchain::from_ids(vec![BlockId::GENESIS, BlockId(999)]);
        h.push_complete(
            ProcessId(1),
            Invocation::Read,
            Time(1_000),
            Response::Chain(rogue),
            Time(1_001),
        );
        prop_assert!(!strong_prefix::check(&h).holds);
        prop_assert!(!strong_prefix::check_naive(&h).holds);
        prop_assert_eq!(
            strong_prefix::check(&h).holds,
            strong_prefix::check_naive(&h).holds
        );
    }

    #[test]
    fn liveness_vacuous_mode_never_fails(lens in prop::collection::vec(0u32..10, 0..10)) {
        use btadt_core::criteria::{eventual_prefix, ever_growing_tree};
        let mut h = History::new();
        for (i, &len) in lens.iter().enumerate() {
            let chain = Blockchain::from_ids((0..=len).map(BlockId).collect());
            h.push_complete(
                ProcessId(0),
                Invocation::Read,
                Time(i as u64 * 2),
                Response::Chain(chain),
                Time(i as u64 * 2 + 1),
            );
        }
        prop_assert!(ever_growing_tree::check(&h, &LengthScore, LivenessMode::Vacuous).holds);
        prop_assert!(eventual_prefix::check(&h, &LengthScore, LivenessMode::Vacuous).holds);
    }

    // ── Linearizability of sequential executions ────────────────────────

    #[test]
    fn sequential_executions_always_linearize(ops in prop::collection::vec(0u8..2, 1..10)) {
        // Execute on one BlockTree sequentially, recording true times.
        let mut bt = btadt_core::blocktree::BlockTree::new(LongestChain, AcceptAll);
        let mut h = History::new();
        let mut t = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            t += 2;
            if op == 0 {
                let chain = bt.read();
                h.push_complete(
                    ProcessId(0),
                    Invocation::Read,
                    Time(t - 1),
                    Response::Chain(chain),
                    Time(t),
                );
            } else {
                let parent = bt.selected_tip();
                let id = bt.graft(parent, CandidateBlock::simple(ProcessId(0), i as u64));
                h.push_complete(
                    ProcessId(0),
                    Invocation::Append { block: id.unwrap() },
                    Time(t - 1),
                    Response::Appended(true),
                    Time(t),
                );
            }
        }
        let r = check_linearizable(&h, bt.store(), &LongestChain);
        prop_assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "sequential execution must linearize: {:?}", r
        );
    }

    // ── Sharded-selection merge laws (the two-stage drain contract) ─────

    /// `AuxPartial::merge` must be associative and order-insensitive, and
    /// the merged partial must not depend on how the batch was sharded at
    /// all: the subtree partition the drain uses, random chunkings, and
    /// per-insert singletons all fold to the same value. This is what lets
    /// stage 1 score shards independently and apply once.
    #[test]
    fn aux_partial_merge_is_associative_and_partition_insensitive(
        store in arb_store(50),
        chunk_seed in any::<u64>(),
    ) {
        use btadt_core::selection::{partition_by_subtree, AuxPartial, GhostWeight};

        // `arb_store` always mints at least one block past genesis.
        let inserts: Vec<BlockId> = store.ids().skip(1).collect();
        prop_assert!(!inserts.is_empty());
        let rules: Vec<Box<dyn SelectionFn>> = vec![
            Box::new(LongestChain),
            Box::new(HeaviestWork),
            Box::new(Ghost { weight: GhostWeight::BlockCount }),
            Box::new(Ghost { weight: GhostWeight::Work }),
        ];
        for rule in &rules {
            let fold = |shards: &[Vec<BlockId>]| -> AuxPartial {
                shards
                    .iter()
                    .map(|s| rule.score_inserts(&store, s))
                    .fold(AuxPartial::empty(), |acc, p| acc.merge(&store, p))
            };

            // The drain's subtree partition, folded forward.
            let subtree = partition_by_subtree(&store, &inserts);
            let baseline = fold(&subtree);

            // Order-insensitivity: reversed shard order.
            let reversed: Vec<Vec<BlockId>> =
                subtree.iter().rev().cloned().collect();
            prop_assert_eq!(&fold(&reversed), &baseline, "rule {}", rule.name());

            // Associativity: right fold over the same shards.
            let right = subtree
                .iter()
                .rev()
                .map(|s| rule.score_inserts(&store, s))
                .fold(AuxPartial::empty(), |acc, p| p.merge(&store, acc));
            prop_assert_eq!(&right, &baseline, "rule {} right fold", rule.name());

            // Partition-insensitivity: random chunking of the raw batch
            // (cuts derived from chunk_seed) and per-insert singletons.
            let mut chunks: Vec<Vec<BlockId>> = Vec::new();
            let mut i = 0usize;
            let mut step = 0u64;
            while i < inserts.len() {
                let w = 1 + (btadt_core::ids::splitmix64_at(chunk_seed, step) % 5) as usize;
                chunks.push(inserts[i..(i + w).min(inserts.len())].to_vec());
                i += w;
                step += 1;
            }
            prop_assert_eq!(&fold(&chunks), &baseline, "rule {} chunked", rule.name());

            let singletons: Vec<Vec<BlockId>> =
                inserts.iter().map(|&id| vec![id]).collect();
            prop_assert_eq!(
                &fold(&singletons), &baseline,
                "rule {} singletons", rule.name()
            );
        }
    }

    // ── GHOST's chain-relative weights ───────────────────────────────────

    /// Whatever mix of single inserts, batches and resets delivers a
    /// random tree in a random parent-closed order, the GHOST aux lands
    /// on the oracle's tip and derives every member's subtree weight as
    /// a full recompute counts it — for both weightings.
    #[test]
    fn ghost_chain_relative_weights_match_recompute(
        store in arb_store(60),
        order_seed in any::<u64>(),
    ) {
        use btadt_core::ids::splitmix64_at;
        use btadt_core::selection::{batch_score, GhostWeight, SelectionAux, TipUpdate};

        // A random parent-closed delivery order.
        let mut delivered = TreeMembership::genesis_only();
        let mut pending: Vec<BlockId> = store.ids().skip(1).collect();
        let mut order = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let ready: Vec<usize> = (0..pending.len())
                .filter(|&i| delivered.contains(store.parent(pending[i]).unwrap()))
                .collect();
            let r = splitmix64_at(order_seed, order.len() as u64);
            let b = pending.swap_remove(ready[r as usize % ready.len()]);
            delivered.insert(&store, b);
            order.push(b);
        }

        for weight in [GhostWeight::BlockCount, GhostWeight::Work] {
            let rule = Ghost { weight };
            let mut tree = TreeMembership::genesis_only();
            let mut aux = SelectionAux::new();
            let mut tip = BlockId::GENESIS;
            let mut next = 0usize;
            let mut step = 0u64;
            while next < order.len() {
                let r = splitmix64_at(order_seed ^ 0x6057, step);
                if r.is_multiple_of(10) {
                    aux.reset();
                }
                if (r >> 4).is_multiple_of(2) {
                    let id = order[next];
                    next += 1;
                    tree.insert(&store, id);
                    match rule.on_insert(&store, &tree, &mut aux, id, tip) {
                        TipUpdate::Unchanged => {}
                        TipUpdate::Extended(t) | TipUpdate::Switched(t) => tip = t,
                    }
                } else {
                    let want = 1 + ((r >> 8) % 8) as usize;
                    let batch = &order[next..(next + want).min(order.len())];
                    next += batch.len();
                    for &id in batch {
                        tree.insert(&store, id);
                    }
                    tip = batch_score(&rule, &store, &tree, &mut aux, batch, tip);
                }
                step += 1;

                prop_assert_eq!(tip, rule.select_tip(&store, &tree), "{:?} step {}", weight, step);
                let mut want = vec![0u64; store.len()];
                for idx in (0..store.len()).rev() {
                    let id = BlockId(idx as u32);
                    if !tree.contains(id) {
                        continue;
                    }
                    want[id.index()] += match weight {
                        GhostWeight::BlockCount => 1,
                        GhostWeight::Work => store.get(id).work.max(1),
                    };
                    if let Some(p) = store.parent(id) {
                        want[p.index()] += want[id.index()];
                    }
                }
                for id in store.ids().filter(|&id| tree.contains(id)) {
                    prop_assert_eq!(
                        aux.derived_ghost_weight(&store, id),
                        want[id.index()],
                        "{:?} step {} block {}", weight, step, id
                    );
                }
            }
        }
    }
}

// ── Ancestry edge cases (deterministic, no strategies needed) ───────────

#[test]
fn ancestry_edge_case_genesis() {
    let store = BlockStore::new();
    let g = BlockId::GENESIS;
    assert_eq!(store.ancestor_at(g, 0), g);
    assert_eq!(store.common_ancestor(g, g), g);
    assert!(store.is_ancestor(g, g));
    assert!(!store.is_empty());
}

#[test]
fn ancestry_edge_case_single_chain() {
    let mut store = BlockStore::new();
    let mut ids = vec![BlockId::GENESIS];
    for i in 0..200u64 {
        let prev = *ids.last().unwrap();
        ids.push(store.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty));
    }
    // Every (descendant, height) pair lands exactly on the chain.
    for h in [0u32, 1, 2, 63, 64, 65, 127, 128, 199, 200] {
        assert_eq!(store.ancestor_at(ids[200], h), ids[h as usize]);
    }
    // LCA on one chain is always the shallower block.
    assert_eq!(store.common_ancestor(ids[200], ids[37]), ids[37]);
    assert_eq!(store.common_ancestor(ids[3], ids[150]), ids[3]);
    assert!(store.is_ancestor(ids[1], ids[200]));
    assert!(!store.is_ancestor(ids[200], ids[1]));
}

#[test]
fn ancestry_edge_case_wide_fork() {
    // A star: 64 children directly under genesis, each with one child.
    let mut store = BlockStore::new();
    let mut leaves = Vec::new();
    for i in 0..64u64 {
        let mid = store.mint(BlockId::GENESIS, ProcessId(0), 0, 1, i * 2, Payload::Empty);
        leaves.push(store.mint(mid, ProcessId(1), 1, 1, i * 2 + 1, Payload::Empty));
    }
    for (i, &a) in leaves.iter().enumerate() {
        for &b in leaves.iter().skip(i + 1) {
            assert_eq!(store.common_ancestor(a, b), BlockId::GENESIS);
            assert!(!store.is_ancestor(a, b));
        }
        assert_eq!(store.ancestor_at(a, 0), BlockId::GENESIS);
        assert_eq!(store.common_ancestor(a, a), a);
    }
}
