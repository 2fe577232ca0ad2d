//! The traced run's layer replays. After a traced trial, the benchmark
//! re-issues the trial's own work to each layer's public functions from
//! outside the tree — one span per call (or per batch of 64 calls for
//! the sub-100 ns ones) — so each layer's cost is read off its spans:
//!
//! * `sharded_store`: `mint_checked` of the commit log into a fresh
//!   flatten-capable store, with `raise_flatten_target` + `flatten_some`
//!   at the commit path's depth and budget after each mint; then
//!   `ancestor_at` at seeded heights below the tree's tip;
//! * `tipcache`: `ChainCache::on_insert` with the workload's rule over
//!   the commit-log order;
//! * `epoch`: pin/drop on the tree's epoch domain;
//! * `wal`: `Wal::append_batch` of the commit log in the run's batch
//!   size, once with fsync and once with `no_fsync()`, then `Wal::open`
//!   of the latter;
//! * `oracle`: `getToken` on a fresh Θ_F,k=1 oracle.

use crate::measure::{Rng, Tracer};
use crate::workloads::{Acc, Env, TempDir, Tree, FLATTEN_BUDGET, ORACLE_RATE};
use btadt_core::concurrent::{ShardedStore, DEFAULT_FINALITY_DEPTH, DEFAULT_SHARDS};
use btadt_core::ids::BlockId;
use btadt_core::selection::SelectionFn;
use btadt_core::store::{BlockView, TreeMembership};
use btadt_core::tipcache::ChainCache;
use btadt_core::wal::{CommitRecord, RecordRef, Wal, WalConfig};
use btadt_oracle::{Merits, SharedOracle, ThetaOracle};
use std::hint::black_box;
use std::time::Instant;

/// Calls per span for the sub-100 ns replays.
const BATCH: u32 = 64;
/// Batched spans per sub-100 ns replay.
const BATCHES: usize = 256;

/// Runs every replay against `tree`, recording spans under one `replay`
/// parent span.
pub fn run<F: SelectionFn>(
    tree: &Tree<F>,
    selection: &dyn SelectionFn,
    rng: &mut Rng,
    acc: &mut Acc,
    env: &Env<'_>,
    t: &mut Tracer,
) {
    let root = t.open();
    let start = Instant::now();
    let log = tree.commit_log();
    let log = &log[..log.len().min(env.sizes.replay_blocks)];
    store_replay(tree, log, root, rng, t);
    tipcache_replay(tree, selection, log, root, acc, t);
    epoch_replay(tree, root, t);
    if let Err(e) = wal_replay(tree, log, root, acc, env, t) {
        acc.fail_all("wal replay", vec![e.to_string()]);
    }
    oracle_replay(tree, root, rng, t);
    t.close(
        root,
        "replay",
        0,
        acc.trials as u64,
        start,
        Instant::now(),
        1,
    );
}

fn store_replay<F: SelectionFn>(
    tree: &Tree<F>,
    log: &[BlockId],
    root: u64,
    rng: &mut Rng,
    t: &mut Tracer,
) {
    let store = tree.store();
    let fresh = ShardedStore::with_flattening(DEFAULT_SHARDS);
    let mut map = vec![BlockId::GENESIS; store.block_count()];
    let depth = DEFAULT_FINALITY_DEPTH as usize;
    for (i, &id) in log.iter().enumerate() {
        let b = store.block(id);
        let parent = map[b.parent.expect("logged blocks are not genesis").0 as usize];
        let t0 = Instant::now();
        let (new, _) = fresh.mint_checked(
            parent,
            b.producer,
            b.merit_index,
            b.work,
            b.digest,
            b.payload,
            |_| true,
        );
        let t1 = Instant::now();
        t.record("sharded_store.mint_checked", root, i as u64, t0, t1, 1);
        map[id.0 as usize] = new;
        if i >= depth {
            let bound = map[log[i - depth].0 as usize].0 + 1;
            let t0 = Instant::now();
            fresh.raise_flatten_target(bound);
            let flattened = fresh.flatten_some(FLATTEN_BUDGET);
            let t1 = Instant::now();
            t.record(
                "sharded_store.flatten_some",
                root,
                i as u64,
                t0,
                t1,
                flattened as u32,
            );
        }
    }
    let tip = tree.read().tip();
    let height = store.height(tip) as u64;
    for b in 0..BATCHES {
        let heights: Vec<u32> = (0..BATCH).map(|_| rng.below(height + 1) as u32).collect();
        let t0 = Instant::now();
        for &h in &heights {
            black_box(store.ancestor_at(tip, h));
        }
        let t1 = Instant::now();
        t.record("sharded_store.ancestor_at", root, b as u64, t0, t1, BATCH);
    }
}

fn tipcache_replay<F: SelectionFn>(
    tree: &Tree<F>,
    selection: &dyn SelectionFn,
    log: &[BlockId],
    root: u64,
    acc: &mut Acc,
    t: &mut Tracer,
) {
    let store: &dyn BlockView = tree.store();
    let mut members = TreeMembership::genesis_only();
    let mut cache = ChainCache::new();
    let mut switches = 0u64;
    for (i, &id) in log.iter().enumerate() {
        members.insert_with_parent(store.parent(id), id);
        let before = cache.tip();
        let t0 = Instant::now();
        cache.on_insert(selection, store, &members, id);
        let t1 = Instant::now();
        t.record("tipcache.on_insert", root, i as u64, t0, t1, 1);
        let after = cache.tip();
        switches += u64::from(after != before && store.parent(after) != Some(before));
    }
    if !log.is_empty() {
        acc.layer("tipcache.switch_share", switches as f64 / log.len() as f64);
    }
}

fn epoch_replay<F: SelectionFn>(tree: &Tree<F>, root: u64, t: &mut Tracer) {
    let epochs = tree.epochs();
    for b in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(epochs.pin());
        }
        let t1 = Instant::now();
        t.record("epoch.pin", root, b as u64, t0, t1, BATCH);
    }
}

fn wal_replay<F: SelectionFn>(
    tree: &Tree<F>,
    log: &[BlockId],
    root: u64,
    acc: &mut Acc,
    env: &Env<'_>,
    t: &mut Tracer,
) -> std::io::Result<()> {
    let store = tree.store();
    let records: Vec<CommitRecord> = log
        .iter()
        .map(|&id| {
            let b = store.block(id);
            CommitRecord {
                id,
                parent: b.parent.expect("logged blocks are not genesis"),
                producer: b.producer,
                merit_index: b.merit_index,
                work: b.work,
                digest: b.digest,
                payload: b.payload,
            }
        })
        .collect();
    // The run's publication size: records per publication of its loop.
    let per_pub = acc
        .layer
        .get("concurrent.publications_per_append")
        .and_then(|v| v.last())
        .copied()
        .unwrap_or(1.0);
    let batch = if per_pub > 0.0 {
        (1.0 / per_pub).round().max(1.0) as usize
    } else {
        1
    };
    let append = |wal: &mut Wal, chunk: &[CommitRecord]| {
        wal.append_batch(|f| {
            for r in chunk {
                f.record(RecordRef {
                    id: r.id,
                    parent: r.parent,
                    producer: r.producer,
                    merit_index: r.merit_index,
                    work: r.work,
                    digest: r.digest,
                    payload: &r.payload,
                });
            }
        })
    };

    let synced = TempDir::create(env.tmp.join("replay-fsync"))?;
    let (mut wal, _) = Wal::open(WalConfig::new(synced.path()))?;
    for (i, chunk) in records
        .chunks(batch)
        .take(env.sizes.wal_batches)
        .enumerate()
    {
        let t0 = Instant::now();
        append(&mut wal, chunk)?;
        let t1 = Instant::now();
        acc.wal_batch.record_since(t0, t1);
        t.record("wal.append_batch", root, i as u64, t0, t1, 1);
    }
    drop(wal);

    let unsynced = TempDir::create(env.tmp.join("replay-nofsync"))?;
    let config = WalConfig::new(unsynced.path()).no_fsync();
    let (mut wal, _) = Wal::open(config.clone())?;
    for (i, chunk) in records.chunks(batch).enumerate() {
        let t0 = Instant::now();
        append(&mut wal, chunk)?;
        let t1 = Instant::now();
        t.record("wal.append_batch_nofsync", root, i as u64, t0, t1, 1);
    }
    drop(wal);
    let t0 = Instant::now();
    let (_, recovered) = Wal::open(config)?;
    let t1 = Instant::now();
    t.record("wal.open", root, 0, t0, t1, recovered.len() as u32);
    if recovered.len() != records.len() {
        acc.fail_all(
            "wal replay",
            vec![format!(
                "recovered {} of {} records",
                recovered.len(),
                records.len()
            )],
        );
    }
    if !tree.is_durable() {
        acc.layer(
            "wal.recover_records_per_s",
            recovered.len() as f64 / (t1 - t0).as_secs_f64(),
        );
    }
    Ok(())
}

fn oracle_replay<F: SelectionFn>(tree: &Tree<F>, root: u64, rng: &mut Rng, t: &mut Tracer) {
    let oracle = SharedOracle::new(ThetaOracle::frugal(
        1,
        Merits::uniform(2),
        ORACLE_RATE,
        rng.next_u64(),
    ));
    let anchor = tree.read().tip();
    for b in 0..BATCHES {
        let t0 = Instant::now();
        for j in 0..BATCH {
            black_box(oracle.get_token((j & 1) as usize, anchor));
        }
        let t1 = Instant::now();
        t.record("oracle.get_token", root, b as u64, t0, t1, BATCH);
    }
}
