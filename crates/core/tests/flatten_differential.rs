//! Differential and churn coverage for the two-tier (flattened) arena.
//!
//! Flattening is a *storage* transform: moving the finalized prefix into
//! the slab tier must never change a single answer any `BlockView` read
//! gives. The suite checks that from the outside three ways:
//!
//! 1. mirror a fork-heavy workload into a flatten-capable store (with a
//!    ragged flatten cadence mid-run) and a plain store, then demand
//!    bit-identical `meta`/`block`/children/ancestry answers across 20
//!    seeds;
//! 2. churn: concurrent deep-walking readers — plus one reader that parks
//!    an epoch pin — while a writer grows the chain and the flattener
//!    retires spine chunks under them (the epoch-safety contract);
//! 3. a deep tree driven through the full `ConcurrentBlockTree` commit
//!    pipeline with a small watermark, checked for end-to-end consistency;
//! 4. chunk-retirement accounting: after every flatten call, exactly the
//!    spine chunks lying wholly below the frontier have been retired —
//!    each once — across shard counts 1, 2 and 16.

use btadt_core::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Deterministic split-mix style generator (no external dependency).
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn children_of(store: &dyn BlockView, id: BlockId) -> Vec<BlockId> {
    let mut kids = Vec::new();
    store.for_each_child(id, &mut |c| kids.push(c));
    kids
}

#[test]
fn flattened_reads_match_plain_store_across_seeds() {
    for seed0 in 0..20u64 {
        let mut seed = seed0.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
        let flat = ShardedStore::with_flattening(4);
        let plain = ShardedStore::with_shards(4);
        let mut ids = vec![BlockId::GENESIS];
        for i in 0..300u64 {
            let r = lcg(&mut seed);
            // Fork-heavy: a quarter of mints branch off a random block.
            let parent = if r.is_multiple_of(4) {
                ids[(lcg(&mut seed) as usize) % ids.len()]
            } else {
                *ids.last().unwrap()
            };
            let payload = match r % 3 {
                0 => Payload::Empty,
                1 => Payload::Opaque(r),
                _ => Payload::Transactions(vec![Tx::new(
                    r,
                    (r % 7) as u32,
                    (r % 11) as u32,
                    r % 1000,
                )]),
            };
            let producer = ProcessId((r % 5) as u32);
            let work = 1 + r % 5;
            let a = flat.mint(parent, producer, (r % 4) as u32, work, i, payload.clone());
            let b = plain.mint(parent, producer, (r % 4) as u32, work, i, payload);
            assert_eq!(a, b, "mirrored mints agree on ids");
            ids.push(a);
            // Ragged flatten cadence: raise the bound and spend partial
            // budgets mid-run, so reads cross every possible frontier.
            if i % 37 == 0 {
                flat.raise_flatten_target((flat.block_count() as u32).saturating_sub(10));
            }
            if i % 11 == 0 {
                flat.flatten_some((lcg(&mut seed) % 40) as usize);
            }
        }
        flat.raise_flatten_target(flat.block_count() as u32 - 3);
        while flat.flatten_some(64) > 0 {}
        assert!(
            flat.flattened_count() >= flat.block_count() as u32 - 13,
            "most of the arena is flat"
        );

        for &id in &ids {
            assert_eq!(flat.meta(id), plain.meta(id), "meta of {id}");
            assert_eq!(flat.block(id), plain.block(id), "block of {id}");
            assert_eq!(
                children_of(&flat, id),
                children_of(&plain, id),
                "children of {id}"
            );
        }
        let n = ids.len();
        for _ in 0..200 {
            let a = ids[(lcg(&mut seed) as usize) % n];
            let b = ids[(lcg(&mut seed) as usize) % n];
            assert_eq!(flat.is_ancestor(a, b), plain.is_ancestor(a, b));
            assert_eq!(flat.common_ancestor(a, b), plain.common_ancestor(a, b));
            let cut = (lcg(&mut seed) % (flat.height(a) as u64 + 1)) as u32;
            assert_eq!(flat.ancestor_at(a, cut), plain.ancestor_at(a, cut));
            assert_eq!(flat.path_from_genesis(a), plain.path_from_genesis(a));
        }

        // Flatten *everything*, then keep minting: children of flattened
        // parents land in the late-kids table and must stay invisible to
        // the differential.
        flat.raise_flatten_target(flat.block_count() as u32);
        while flat.flatten_some(64) > 0 {}
        assert_eq!(flat.flattened_count(), flat.block_count() as u32);
        for j in 0..20u64 {
            let parent = ids[(lcg(&mut seed) as usize) % n];
            let a = flat.mint(parent, ProcessId(9), 0, 2, 1000 + j, Payload::Empty);
            let b = plain.mint(parent, ProcessId(9), 0, 2, 1000 + j, Payload::Empty);
            assert_eq!(a, b);
            assert_eq!(
                children_of(&flat, parent),
                children_of(&plain, parent),
                "late children preserve minting order under {parent}"
            );
            assert_eq!(flat.meta(a), plain.meta(a));
        }
    }
}

#[test]
fn readers_pinned_across_chunk_retirement_stay_safe() {
    const BLOCKS: u64 = 30_000;
    let store = ShardedStore::with_flattening(2);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let store_ref = &store;
        let stop_ref = &stop;
        // Writer + flattener: grow a deep chain, trailing the watermark
        // behind the tip so chunk retirement happens throughout the run.
        s.spawn(move || {
            let mut prev = BlockId::GENESIS;
            for i in 0..BLOCKS {
                prev = store_ref.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
                if i % 64 == 0 {
                    store_ref.raise_flatten_target((i as u32).saturating_sub(100));
                    store_ref.flatten_some(128);
                }
            }
            store_ref.raise_flatten_target(store_ref.block_count() as u32 - 1);
            while store_ref.flatten_some(256) > 0 {}
            stop_ref.store(true, Ordering::Release);
        });
        // Deep-walking readers race the flattener across the tier
        // boundary the whole run.
        for t in 0..3u64 {
            s.spawn(move || {
                let mut seed = 0xBEEF + t;
                while !stop_ref.load(Ordering::Acquire) {
                    let n = store_ref.block_count() as u64;
                    let a = BlockId((lcg(&mut seed) % n) as u32);
                    if !store_ref.has_block(a) {
                        continue;
                    }
                    let h = store_ref.height(a);
                    let anc = store_ref.ancestor_at(a, h / 2);
                    assert_eq!(store_ref.height(anc), h / 2);
                    assert!(store_ref.is_ancestor(anc, a));
                }
            });
        }
        // One reader parks a pin across many retirements: chunks retired
        // while it is pinned must not be freed under it (the walks above
        // would fault), only deferred.
        s.spawn(move || {
            while !stop_ref.load(Ordering::Acquire) {
                let _guard = store_ref.reclaim_domain().pin();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });
    // Quiescent: every retired chunk drains once the pins are gone.
    let dom = store.reclaim_domain();
    dom.reclaim_quiescent();
    assert_eq!(
        dom.pending_items(),
        0,
        "no chunk garbage survives quiescence"
    );
    assert_eq!(dom.retired_bytes(), 0);
    assert!(dom.reclaimed_items() > 0, "chunks were retired and freed");
    // And the arena still answers exactly.
    let tip = BlockId(store.block_count() as u32 - 1);
    assert_eq!(store.height(tip), BLOCKS as u32);
    assert_eq!(store.ancestor_at(tip, 0), BlockId::GENESIS);
    assert_eq!(store.flattened_count(), store.block_count() as u32 - 1);
}

/// Regression stress for the tier-check-vs-retirement race: a reader
/// that loads a stale `flat.count` (id looks unflattened) and then hits
/// a spine chunk the flattener just retired must re-route to the slab,
/// not panic "half-minted" or report an existing block absent. Readers
/// and a forking minter hammer ids *at the flatten frontier* — exactly
/// where chunks retire — while the flattener advances in tiny steps to
/// maximize frontier crossings; `mint_checked`'s parent read takes the
/// same fallback when its parent flattens mid-mint.
#[test]
fn frontier_reads_race_chunk_retirement() {
    const BLOCKS: u64 = 20_000;
    let store = ShardedStore::with_flattening(2);
    let stop = AtomicBool::new(false);
    let tip = std::thread::scope(|s| {
        let store_ref = &store;
        let stop_ref = &stop;
        // Writer + flattener: the target trails the tip by a hair and
        // the budget is tiny, so the frontier (and chunk retirement)
        // moves constantly instead of in rare big hops.
        let writer = s.spawn(move || {
            let mut prev = BlockId::GENESIS;
            for i in 0..BLOCKS {
                prev = store_ref.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
                store_ref.raise_flatten_target((i as u32).saturating_sub(8));
                store_ref.flatten_some(16);
            }
            stop_ref.store(true, Ordering::Release);
            prev
        });
        // Frontier readers: probe ids right at the flattened count,
        // where the is_flat/spine-read window races retirement.
        for t in 0..2u64 {
            s.spawn(move || {
                let mut seed = 0xF00D + t;
                while !stop_ref.load(Ordering::Acquire) {
                    let fc = store_ref.flattened_count() as u64;
                    let n = store_ref.block_count() as u64;
                    let id = BlockId((fc + lcg(&mut seed) % 8).min(n - 1) as u32);
                    if !store_ref.has_block(id) {
                        continue;
                    }
                    // Ids below the frontier we synchronized with must
                    // never look absent, whatever tier they sit in.
                    if (id.0 as u64) < fc {
                        assert!(store_ref.has_block(id), "flat id reported missing");
                    }
                    let m = store_ref.meta(id);
                    store_ref.with_block(id, &mut |b| {
                        assert_eq!(b.id, id);
                        assert_eq!(b.height, m.height);
                    });
                    let h = store_ref.height(id);
                    if h > 0 {
                        let anc = store_ref.ancestor_at(id, h - 1);
                        assert_eq!(store_ref.height(anc), h - 1);
                        assert!(store_ref.is_ancestor(anc, id));
                    }
                }
            });
        }
        // Forking minter under frontier parents: the parent's spine
        // entry may retire between the mint's tier check and read,
        // forcing the slab fallback; the children also land in frozen
        // lists via the late-kids table.
        s.spawn(move || {
            let mut seed = 0xFEED;
            let mut nonce = 1_000_000u64;
            while !stop_ref.load(Ordering::Acquire) {
                let fc = store_ref.flattened_count() as u64;
                if fc < 2 {
                    std::thread::yield_now();
                    continue;
                }
                let parent = BlockId((fc - 1 + lcg(&mut seed) % 4) as u32);
                if !store_ref.has_block(parent) {
                    continue;
                }
                nonce += 1;
                let kid = store_ref.mint(parent, ProcessId(9), 0, 1, nonce, Payload::Empty);
                assert_eq!(store_ref.parent(kid), Some(parent));
                assert_eq!(store_ref.height(kid), store_ref.height(parent) + 1);
            }
        });
        writer.join().unwrap()
    });
    // Quiescent end-to-end check: the main chain is intact and every
    // child list is in ascending-id order across both tiers.
    assert_eq!(store.height(tip), BLOCKS as u32);
    assert_eq!(store.ancestor_at(tip, 0), BlockId::GENESIS);
    let snap = store.snapshot();
    assert_eq!(snap.len(), store.block_count());
    for raw in 0..store.block_count() as u32 {
        let kids = children_of(&store, BlockId(raw));
        assert!(kids.windows(2).all(|w| w[0] < w[1]), "sorted children");
    }
}

/// Spine chunks lying wholly below `frontier` in a store of `shards`
/// shards: chunk `k` of shard `s` covers slots `2^k − 1 ..= 2^(k+1) − 2`,
/// so its last id is `((2^(k+1) − 2) << log2(shards)) | s`.
fn chunks_below(shards: usize, frontier: u32) -> u64 {
    let shift = shards.trailing_zeros();
    let mut n = 0;
    for k in 0..32u32 {
        for s in 0..shards as u64 {
            let last = (((1u64 << (k + 1)) - 2) << shift) | s;
            if last < frontier as u64 {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn chunks_retire_exactly_once_below_the_frontier() {
    for shards in [1usize, 2, 16] {
        for seed0 in 0..4u64 {
            let mut seed = (seed0 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shards as u64;
            let flat = ShardedStore::with_flattening(shards);
            let plain = ShardedStore::with_shards(shards);
            let dom = flat.reclaim_domain();
            // Every retired chunk is either still pending in the reclaim
            // domain or already freed; a chunk retired twice (or one left
            // behind the frontier) breaks the equality.
            let check = |flat: &ShardedStore| {
                let retired = dom.reclaimed_items() + dom.pending_items() as u64;
                assert_eq!(
                    retired,
                    chunks_below(shards, flat.flattened_count()),
                    "{shards} shards, seed {seed0}, frontier {}",
                    flat.flattened_count()
                );
            };
            let mut ids = vec![BlockId::GENESIS];
            for i in 0..3_000u64 {
                let r = lcg(&mut seed);
                let parent = if r.is_multiple_of(5) {
                    ids[(lcg(&mut seed) as usize) % ids.len()]
                } else {
                    *ids.last().unwrap()
                };
                let txs = (0..1 + r % 3)
                    .map(|t| Tx::new(r ^ t, (r % 7) as u32, (t % 11) as u32, r % 1000))
                    .collect();
                let payload = Payload::Transactions(txs);
                let producer = ProcessId((r % 5) as u32);
                let a = flat.mint(parent, producer, 0, 1 + r % 3, i, payload.clone());
                let b = plain.mint(parent, producer, 0, 1 + r % 3, i, payload);
                assert_eq!(a, b, "mirrored mints agree on ids");
                ids.push(a);
                // Per-mint cadence trailing the tip, as the commit path
                // does, with a lag that wobbles so the frontier sometimes
                // stalls and sometimes jumps.
                let lag = 16 + (lcg(&mut seed) % 200) as u32;
                flat.raise_flatten_target((flat.block_count() as u32).saturating_sub(lag));
                flat.flatten_some(1 + (lcg(&mut seed) % 4) as usize);
                check(&flat);
                // Ragged bulk flattens now and then.
                if i % 97 == 0 {
                    flat.flatten_some((lcg(&mut seed) % 500) as usize);
                    check(&flat);
                }
            }
            flat.raise_flatten_target(flat.block_count() as u32);
            while flat.flatten_some(64) > 0 {
                check(&flat);
            }
            assert_eq!(flat.flattened_count(), flat.block_count() as u32);
            dom.reclaim_quiescent();
            assert_eq!(dom.pending_items(), 0, "every retired chunk drains");
            check(&flat);

            for &id in &ids {
                assert_eq!(flat.meta(id), plain.meta(id), "meta of {id}");
                assert_eq!(flat.block(id), plain.block(id), "block of {id}");
                assert_eq!(
                    children_of(&flat, id),
                    children_of(&plain, id),
                    "children of {id}"
                );
            }
            let n = ids.len();
            for _ in 0..300 {
                let a = ids[(lcg(&mut seed) as usize) % n];
                let b = ids[(lcg(&mut seed) as usize) % n];
                assert_eq!(flat.is_ancestor(a, b), plain.is_ancestor(a, b));
                assert_eq!(flat.common_ancestor(a, b), plain.common_ancestor(a, b));
                let cut = (lcg(&mut seed) % (flat.height(a) as u64 + 1)) as u32;
                assert_eq!(flat.ancestor_at(a, cut), plain.ancestor_at(a, cut));
            }
        }
    }
}

#[test]
fn deep_tree_with_small_watermark_stays_consistent() {
    let bt =
        ConcurrentBlockTree::with_config(4, FinalityWatermark::new(8), LongestChain, AcceptAll);
    for i in 0..2000u64 {
        bt.append(CandidateBlock::simple(ProcessId((i % 3) as u32), i))
            .unwrap();
    }
    let chain = bt.read_owned();
    assert_eq!(chain.len(), 2001);
    assert!(bt.store().flattened_count() > 0, "the flattener ran");
    let ids = chain.ids();
    let tip = *ids.last().unwrap();
    for (h, &id) in ids.iter().enumerate().step_by(97) {
        assert_eq!(bt.store().height(id), h as u32);
        assert_eq!(bt.store().ancestor_at(tip, h as u32), id);
    }
    let snap = bt.snapshot_store();
    assert_eq!(snap.block_count(), bt.store().block_count());
    assert_eq!(bt.selected_tip(), bt.selected_tip_full_scan());
}
