//! The metric catalog: every metric the benchmark emits, with its unit,
//! the direction that is better, and — for per-layer metrics — which
//! end-to-end metric it should move, on which workload. `BENCHMARK.json`
//! lists the same names and units; the self-test keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// How it is measured (end-to-end) or what it should move (per-layer).
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

/// Emitted with `--trace 0`, on every workload.
pub const END_TO_END: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "lower",
        "per-trial set-up: tree + base chain; WAL recovery of the base log on durable_ledger",
    ),
    m(
        "append_per_s",
        "1/s",
        "higher",
        "per-trial appends / loop wall (append probe on consensus)",
    ),
    m(
        "append_p50_us",
        "us",
        "lower",
        "append() latency, pooled over trials",
    ),
    m(
        "append_p99_us",
        "us",
        "lower",
        "append() latency, pooled over trials",
    ),
    m(
        "read_p50_ns",
        "ns",
        "lower",
        "read() latency incl. one clock read (concurrent reader on ledger, probe elsewhere)",
    ),
    m(
        "graft_p50_us",
        "us",
        "lower",
        "graft() latency (forker on ghost_fork, probe elsewhere)",
    ),
    m(
        "decide_per_s",
        "1/s",
        "higher",
        "Protocol A rounds / wall per 100-round window (decide probe off consensus)",
    ),
    m(
        "decide_p50_us",
        "us",
        "lower",
        "round start (barrier release) to each propose() return",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "VmHWM of the process at the end of the run",
    ),
];

/// Emitted with `--trace 1`, on every workload. (c) = counter read from
/// the program's public stats over the untraced trials; (t) = from the
/// traced trials' spans; (e) = an end-to-end tail taken from the
/// untraced trials, too unsteady between runs to carry a bound.
pub const PER_LAYER: &[Metric] = &[
    m("concurrent.read_p99_ns", "ns", "lower", "(e) read() p99 as read_p50_ns measures it; a per-layer reading because its run-to-run spread (0.21 on ledger) leaves no room for a bound -> read_p50_ns on ledger"),
    m("concurrent.append_self_ns", "ns", "lower", "(t) append span - replayed mint, on_insert, flatten, WAL -> append_p50_us on ledger"),
    m("concurrent.publications_per_append", "ratio", "lower", "(c) commit_generation delta / commits -> append_per_s on durable_ledger"),
    m("sharded_store.mint_ns", "ns", "lower", "(t) mint_checked replay -> append_p50_us on ledger"),
    m("sharded_store.flatten_ns_per_block", "ns", "lower", "(t) raise_flatten_target + flatten_some replay -> append_per_s on ledger; no move on consensus"),
    m("sharded_store.flattened_blocks", "count", "higher", "(c) flattened_count at loop end -> peak_rss_mb on ledger"),
    m("sharded_store.heap_bytes_per_block", "B", "lower", "(c) approx_heap_bytes / block_count -> peak_rss_mb on ledger"),
    m("sharded_store.ancestor_at_ns", "ns", "lower", "(t) ancestor_at below the tip -> append_p50_us on ghost_fork"),
    m("tipcache.on_insert_ns", "ns", "lower", "(t) ChainCache::on_insert replay -> append_per_s on ghost_fork, small on ledger"),
    m("tipcache.switch_share", "ratio", "lower", "(t) inserts that moved the tip off its chain -> graft_p50_us on ghost_fork"),
    m("commit.inline_share", "ratio", "higher", "(c) inline commits / commits -> append_per_s on durable_ledger"),
    m("commit.mean_batch", "count", "higher", "(c) commits per batch -> append_per_s on durable_ledger"),
    m("commit.max_batch", "count", "higher", "(c) largest batch -> append_per_s on durable_ledger"),
    m("commit.drain_lock_share", "ratio", "lower", "(c) drain_lock_ns / loop wall (0 = all commits inline, unclocked) -> append_per_s on ghost_fork"),
    m("commit.publish_share", "ratio", "lower", "(c) publish_ns / loop wall (0 = all commits inline, unclocked) -> append_per_s on ghost_fork"),
    m("commit.score_share", "ratio", "lower", "(c) score_ns / drain_lock_ns -> append_per_s and graft_p50_us on ghost_fork"),
    m("epoch.pin_ns", "ns", "lower", "(t) pin/drop on tree.epochs() -> read_p50_ns on ledger"),
    m("epoch.retired_bytes_peak", "B", "lower", "(c) retired_bytes_peak -> peak_rss_mb on ledger"),
    m("epoch.reclaimed_items_per_append", "ratio", "higher", "(c) reclaimed items / commits -> peak_rss_mb on ledger"),
    m("epoch.pending_items_end", "count", "lower", "(c) pending items at loop end -> peak_rss_mb on ledger"),
    m("wal.records_per_fsync", "ratio", "higher", "(c) -> append_per_s on durable_ledger (0 = no WAL)"),
    m("wal.fsyncs_per_append", "ratio", "lower", "(c) -> append_per_s on durable_ledger (0 = no WAL)"),
    m("wal.bytes_per_record", "B", "lower", "(c) -> append_per_s on durable_ledger (0 = no WAL)"),
    m("wal.append_batch_ns", "ns", "lower", "(t) fsync'd append_batch replay of the run's publications -> append_p50_us on durable_ledger"),
    m("wal.append_batch_nofsync_ns", "ns", "lower", "(t) no_fsync append_batch replay -> append_p50_us on durable_ledger"),
    m("wal.fsync_ns", "ns", "lower", "(t) append_batch_ns - append_batch_nofsync_ns -> append_p50_us on durable_ledger"),
    m("wal.append_p99_us", "us", "lower", "(t) p99 of the fsync'd append_batch replay -> append_p99_us on durable_ledger"),
    m("wal.retries", "count", "lower", "(c) EINTR + rotation retries -> failed share"),
    m("wal.failures", "count", "lower", "(c) checkpoint + unlink + rotation failures -> failed share"),
    m("wal.recover_records_per_s", "1/s", "higher", "base records / setup_s on durable_ledger, replay-log Wal::open elsewhere -> setup_s on durable_ledger"),
    m("oracle.get_token_ns", "ns", "lower", "(t) getToken replay -> decide_p50_us on consensus"),
    m("oracle.grants_per_decision", "ratio", "lower", "(c) tokens granted / decisions (1 = no wasted grant) -> decide_p50_us on consensus"),
    m("tree_consensus.winner_us", "us", "lower", "(t) p50 propose span of the caller whose mint won -> decide_per_s on consensus, via tree_consensus.decide_p99_us"),
    m("tree_consensus.loser_wait_us", "us", "lower", "(t) p50 propose span of the other caller -> decide_per_s on consensus, via tree_consensus.decide_p99_us"),
    m("tree_consensus.decide_p99_us", "us", "lower", "(e) propose() p99 as decide_p50_us measures it; a per-layer reading because its run-to-run spread (0.37 on ghost_fork) leaves no room for a bound -> decide_per_s on consensus"),
    m("tree_consensus.short_circuit_share", "ratio", "higher", "(c) proposes returning minted == None -> decide_per_s on consensus, via tree_consensus.decide_p99_us"),
    m("tree_consensus.anchor_lags", "count", "lower", "(c) decisions readable before is_committed reported them, summed over the untraced trials (a program race; see workloads::await_committed_anchor)"),
    m("trace.overhead_ratio", "ratio", "lower", "traced / untraced p50 of the workload's own op (append; decide on consensus)"),
    m("trace.spans", "count", "lower", "spans recorded in the traced trials"),
];
