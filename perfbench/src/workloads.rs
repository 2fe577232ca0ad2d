//! The four workloads. A run repeats *trials* until its time is up: each
//! trial builds the workload's starting state (the timed set-up), runs
//! its fixed-size closed loop, checks the outputs, runs the probes, and
//! drops the tree. Fixed-size trials keep the tree depth, arena size and
//! peak memory the same from run to run; a faster program fits more
//! trials into a run, never a different trial.
//!
//! Every workload reports every end-to-end metric. Operations outside a
//! workload's own loop are measured by short single-caller *probes* on
//! the trial's final tree (reads on all but `ledger`, grafts on all but
//! `ghost_fork`, one-proposer Protocol A rounds on all but `consensus`,
//! appends on `consensus`), so each figure describes that workload's
//! tree.

use crate::checks::{self, ConsensusEvidence, DurableEvidence, ForkEvidence, LedgerEvidence};
use crate::measure::{pin_thread, Hist, Rng, Tracer};
use crate::replay;
use btadt_core::block::{Payload, Tx};
use btadt_core::blocktree::CandidateBlock;
use btadt_core::commit::{FinalityWatermark, PipelineStats};
use btadt_core::concurrent::{ConcurrentBlockTree, DEFAULT_FINALITY_DEPTH, DEFAULT_SHARDS};
use btadt_core::ids::{BlockId, ProcessId};
use btadt_core::selection::{Ghost, LongestChain, SelectionFn};
use btadt_core::store::BlockView;
use btadt_core::validity::AcceptAll;
use btadt_core::wal::{WalConfig, WalStats};
use btadt_oracle::{Merits, SharedOracle, ThetaOracle};
use btadt_registers::{ProposeOutcome, TreeConsensus, TreeConsensusReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

pub type Tree<F> = ConcurrentBlockTree<F, AcceptAll>;

/// Θ_F,k=1 global rate: with two uniform-merit proposers every
/// `getToken` succeeds with probability 0.8.
pub const ORACLE_RATE: f64 = 1.6;
/// Flattening work per commit-path visit in the program (its private
/// `FLATTEN_BUDGET`); the flatten replay runs at the same budget.
pub const FLATTEN_BUDGET: usize = 64;
/// Rounds per decide-throughput window. Throughput is reported per window
/// rather than per trial so that the interquartile mean drops the windows
/// a millisecond stall landed in (stalls show in the decide p99) instead
/// of letting the stall rate of a shared host set the figure.
const DECIDE_WINDOW: usize = 100;
/// Spans each thread keeps in memory during a traced trial.
const SPAN_CAP: usize = 50_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ledger,
    DurableLedger,
    GhostFork,
    Consensus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ledger,
        Workload::DurableLedger,
        Workload::GhostFork,
        Workload::Consensus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ledger => "ledger",
            Workload::DurableLedger => "durable_ledger",
            Workload::GhostFork => "ghost_fork",
            Workload::Consensus => "consensus",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The closed loop's callers.
    pub fn clients(self) -> &'static str {
        match self {
            Workload::Ledger => "1 appender + 1 reader",
            Workload::DurableLedger => "2 appenders",
            Workload::GhostFork => "1 appender + 1 forker",
            Workload::Consensus => "2 proposers",
        }
    }
}

/// Per-trial input sizes. `full` is what the benchmark measures;
/// `smoke` is the self-test's.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Blocks (or, for `durable_ledger`, base-log records) before the loop.
    pub base: usize,
    /// Appends in the loop, over all appenders.
    pub appends: usize,
    /// `ghost_fork` grafts in the loop.
    pub grafts: usize,
    /// `consensus` rounds in the loop.
    pub rounds: usize,
    pub probe_reads: usize,
    pub probe_grafts: usize,
    pub probe_rounds: usize,
    pub probe_appends: usize,
    /// Commit-log prefix the traced replays cover.
    pub replay_blocks: usize,
    /// fsync'd WAL batches the traced replay writes.
    pub wal_batches: usize,
}

impl Sizes {
    pub fn full(w: Workload) -> Sizes {
        let probes = Sizes {
            base: 0,
            appends: 0,
            grafts: 0,
            rounds: 0,
            probe_reads: 20_000,
            probe_grafts: 2_000,
            probe_rounds: 2_000,
            probe_appends: 5_000,
            replay_blocks: 20_000,
            wal_batches: 200,
        };
        match w {
            Workload::Ledger => Sizes {
                base: 8_192,
                appends: 100_000,
                ..probes
            },
            Workload::DurableLedger => Sizes {
                base: 50_000,
                appends: 1_000,
                probe_grafts: 200,
                probe_rounds: 200,
                ..probes
            },
            Workload::GhostFork => Sizes {
                base: 512,
                appends: 3_000,
                grafts: 750,
                probe_rounds: 1_000,
                ..probes
            },
            Workload::Consensus => Sizes {
                base: 1_024,
                rounds: 10_000,
                ..probes
            },
        }
    }

    pub fn smoke(w: Workload) -> Sizes {
        Sizes {
            base: 300,
            appends: if w == Workload::Consensus { 0 } else { 400 },
            grafts: if w == Workload::GhostFork { 100 } else { 0 },
            rounds: if w == Workload::Consensus { 100 } else { 0 },
            probe_reads: 500,
            probe_grafts: 50,
            probe_rounds: 30,
            probe_appends: 100,
            replay_blocks: 500,
            wal_batches: 10,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"base\": {}, \"appends\": {}, \"grafts\": {}, \"rounds\": {}, \
             \"probe_reads\": {}, \"probe_grafts\": {}, \"probe_rounds\": {}, \
             \"probe_appends\": {}, \"replay_blocks\": {}, \"wal_batches\": {}}}",
            self.base,
            self.appends,
            self.grafts,
            self.rounds,
            self.probe_reads,
            self.probe_grafts,
            self.probe_rounds,
            self.probe_appends,
            self.replay_blocks,
            self.wal_batches
        )
    }
}

/// Everything a run accumulates over its trials.
#[derive(Default)]
pub struct Acc {
    pub trials: u32,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Appends per second, one entry per trial.
    pub append_rate: Vec<f64>,
    /// Decisions per second, one entry per decide window.
    pub decide_rate: Vec<f64>,
    pub append: Lat,
    pub read: Lat,
    pub graft: Lat,
    pub decide: Lat,
    /// `propose` latency of the caller whose mint won / lost.
    pub winner: Hist,
    pub loser: Hist,
    /// fsync'd `append_batch` latency of the traced WAL replay.
    pub wal_batch: Hist,
    /// Per-layer readings, one entry per trial.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
}

/// One operation's latencies: the current trial's histogram, its
/// per-trial quantiles, and every sample pooled.
#[derive(Default)]
pub struct Lat {
    pub now: Hist,
    pub pooled: Hist,
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
}

impl Lat {
    fn close_trial(&mut self) {
        if self.now.count() > 0 {
            self.p50.push(self.now.quantile(0.5));
            self.p99.push(self.now.quantile(0.99));
            self.pooled.merge(&self.now);
            self.now = Hist::default();
        }
    }
}

impl Acc {
    /// Counts `bad` (violated properties) as failed operations.
    pub fn fail_all(&mut self, context: &str, bad: Vec<String>) {
        for b in bad {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(format!("{context}: {b}"));
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_default().push(v);
    }
}

/// A directory removed when dropped — on success and while unwinding
/// from a panic alike.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(path: PathBuf) -> std::io::Result<TempDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `durable_ledger` base log: written once per run, untimed, through
/// a `no_fsync()` tree, and recovered by every trial's set-up.
pub struct DurableBase {
    pub dir: TempDir,
    /// `(id, digest)` of every record as written.
    pub log: Vec<(BlockId, u64)>,
}

/// What a trial needs besides its seed.
pub struct Env<'a> {
    pub sizes: &'a Sizes,
    /// Per-run scratch directory (WAL directories live here).
    pub tmp: &'a Path,
    pub base: Option<&'a DurableBase>,
    /// Whether to record spans and run the layer replays.
    pub traced: bool,
    pub origin: Instant,
    /// The current trial's span-id lane; its helper threads use the
    /// next ones, so ids stay unique across threads and trials.
    pub lane: u64,
}

impl Env<'_> {
    /// The span recorder of helper thread `thread` (1-3), when traced.
    fn tracer(&self, thread: u64) -> Option<Tracer> {
        self.traced
            .then(|| Tracer::new(self.origin, self.lane + thread, SPAN_CAP))
    }
}

/// Times one call into the program: a latency sample, plus a span when
/// traced.
#[inline]
fn timed<T>(
    hist: &mut Hist,
    tr: &mut Option<Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    hist.record_since(t0, t1);
    if let Some(t) = tr {
        t.record(name, 0, op, t0, t1, 1);
    }
    out
}

fn absorb(into: &mut Option<Tracer>, from: Option<Tracer>) {
    if let (Some(a), Some(b)) = (into.as_mut(), from) {
        a.absorb(b);
    }
}

/// Seeded transaction batches of 1–8 transfers each.
fn tx_payloads(rng: &mut Rng, n: usize, first_tx: u64) -> Vec<Payload> {
    let mut next = first_tx;
    (0..n)
        .map(|_| {
            let k = 1 + rng.below(8);
            let txs = (0..k)
                .map(|_| {
                    next += 1;
                    let from = rng.below(1 << 16) as u32;
                    let to = rng.below(1 << 16) as u32;
                    Tx::new(next, from, to, 1 + rng.below(1_000))
                })
                .collect();
            Payload::Transactions(txs)
        })
        .collect()
}

fn candidate(producer: u32, nonce: u64, payload: Payload) -> CandidateBlock {
    CandidateBlock::simple(ProcessId(producer), nonce).with_payload(payload)
}

/// Where a graft attaches, drawn from the seed and resolved against the
/// published chain at call time: half land one to four links below the
/// tip (siblings that can win the selection), half at a uniform height.
#[derive(Clone, Copy, Debug)]
pub enum GraftAt {
    Depth(u32),
    Fraction(f64),
}

fn graft_inputs(rng: &mut Rng, n: usize) -> Vec<GraftAt> {
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                GraftAt::Depth(1 + rng.below(4) as u32)
            } else {
                GraftAt::Fraction(rng.unit())
            }
        })
        .collect()
}

fn graft_parent<F: SelectionFn>(tree: &Tree<F>, at: GraftAt) -> BlockId {
    let view = tree.read();
    let ids = view.ids();
    match at {
        GraftAt::Depth(d) => ids[ids.len().saturating_sub(1 + d as usize)],
        GraftAt::Fraction(u) => ids[((u * ids.len() as f64) as usize).min(ids.len() - 1)],
    }
}

/// Appends `payloads` to the tip from the calling thread, one at a time.
/// Returns the acked ids and the number of calls that did not ack.
fn append_loop<F: SelectionFn>(
    tree: &Tree<F>,
    producer: u32,
    payloads: Vec<Payload>,
    hist: &mut Hist,
    tr: &mut Option<Tracer>,
) -> (Vec<BlockId>, u64) {
    let mut acks = Vec::with_capacity(payloads.len());
    let mut errors = 0;
    let lane = (producer as u64) << 40;
    for (i, p) in payloads.into_iter().enumerate() {
        let op = lane | i as u64;
        match timed(hist, tr, "append", op, || {
            tree.append(candidate(producer, op, p))
        }) {
            Ok(Some(id)) => acks.push(id),
            _ => errors += 1,
        }
    }
    (acks, errors)
}

/// Grafts one block per input under its resolved parent.
fn graft_loop<F: SelectionFn>(
    tree: &Tree<F>,
    inputs: &[GraftAt],
    rng: &mut Rng,
    hist: &mut Hist,
    tr: &mut Option<Tracer>,
) -> (Vec<BlockId>, u64) {
    let mut acks = Vec::with_capacity(inputs.len());
    let mut errors = 0;
    for (i, &at) in inputs.iter().enumerate() {
        let parent = graft_parent(tree, at);
        let op = (9u64 << 40) | i as u64;
        let cand = candidate(9, op, Payload::Opaque(rng.next_u64()));
        match timed(hist, tr, "graft", op, || tree.graft(parent, cand)) {
            Ok(Some(id)) => acks.push(id),
            _ => errors += 1,
        }
    }
    (acks, errors)
}

/// Back-to-back `read()` calls from the calling thread while `more(i)`
/// holds for the `i`-th. Returns how often the chain got shorter.
fn read_loop<F: SelectionFn>(
    tree: &Tree<F>,
    more: impl Fn(u64) -> bool,
    hist: &mut Hist,
    tr: &mut Option<Tracer>,
) -> u64 {
    let (mut last, mut regressions, mut i) = (0, 0, 0);
    while more(i) {
        let len = timed(hist, tr, "read", i, || tree.read().len());
        regressions += u64::from(len < last);
        last = len;
        i += 1;
    }
    regressions
}

/// Barrier of the proposer threads that spins briefly, then yields: a round
/// is a few microseconds, far below a futex wake-up. A party that
/// unwinds abandons the barrier, and waiters then panic instead of
/// spinning forever.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    abandoned: AtomicBool,
    parties: usize,
}

/// Marks the barrier abandoned if its owner unwinds.
struct AbandonOnPanic<'a>(&'a SpinBarrier);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abandoned.store(true, Ordering::Release);
        }
    }
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
            parties,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Every other party is spinning on `generation`, so none can
            // arrive again before the reset is published by the bump.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            assert!(
                !self.abandoned.load(Ordering::Acquire),
                "the other proposer panicked"
            );
            if spins < 256 {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// What a chain of Protocol A rounds produced.
pub struct DecideRun {
    pub wall: Duration,
    /// Decisions per second of each [`DECIDE_WINDOW`]-round window.
    pub window_rates: Vec<f64>,
    pub evidence: ConsensusEvidence,
    pub grants: u64,
    pub proposes: u64,
    pub short_circuits: u64,
    /// Rounds whose decision `is_committed` did not yet report committed
    /// when `propose` returned it (see [`await_committed_anchor`]).
    pub anchor_lags: u64,
}

/// Waits until `is_committed(anchor)` agrees with the decision `propose`
/// just returned, and says whether it had to wait. `propose` returns
/// once the decided block is readable through `read()`, but the tree
/// stores the `is_committed` cursor after the pointer swap, so for a few
/// instructions a decision can be readable yet not `is_committed` — and
/// `TreeConsensus::new` asserts the latter for its anchor. The benchmark
/// counts these windows (`tree_consensus.anchor_lags`) instead of
/// tripping the assertion; a lag that outlasts a second is a failure.
fn await_committed_anchor<F: SelectionFn>(tree: &Tree<F>, anchor: BlockId) -> Result<bool, ()> {
    if tree.is_committed(anchor) {
        return Ok(false);
    }
    let deadline = Instant::now() + Duration::from_secs(1);
    while !tree.is_committed(anchor) {
        if Instant::now() >= deadline {
            return Err(());
        }
        std::thread::yield_now();
    }
    Ok(true)
}

/// `rounds` chained Protocol A instances with one or two proposer
/// threads (the caller is proposer 0). Round `r + 1` is anchored at round
/// `r`'s decision; each proposer times from its release at the round
/// barrier to its `propose` return.
#[allow(clippy::too_many_arguments)]
fn run_decides<F: SelectionFn>(
    tree: &Tree<F>,
    anchor: BlockId,
    rounds: usize,
    proposers: usize,
    rng: &mut Rng,
    acc: &mut Acc,
    env: &Env<'_>,
    tr: &mut Option<Tracer>,
) -> DecideRun {
    let oracle = SharedOracle::new(ThetaOracle::frugal(
        1,
        Merits::uniform(2),
        ORACLE_RATE,
        rng.next_u64(),
    ));
    let cands = |p: u32, rng: &mut Rng| -> Vec<CandidateBlock> {
        (0..rounds)
            .map(|r| {
                CandidateBlock::simple(ProcessId(p), ((p as u64) << 40) | r as u64)
                    .with_work(1 + rng.below(4))
                    .with_payload(Payload::Opaque(rng.next_u64()))
            })
            .collect()
    };
    let c0 = cands(0, rng);
    let c1 = (proposers == 2).then(|| cands(1, rng));
    let log_before = tree.commit_log().len();
    let slots: Vec<OnceLock<TreeConsensus<'_, F, AcceptAll>>> =
        (0..rounds).map(|_| OnceLock::new()).collect();
    let barrier = SpinBarrier::new(proposers);

    struct Side {
        outcomes: Vec<Option<ProposeOutcome>>,
        starts: Vec<Instant>,
        anchor_lags: u64,
        anchor_stuck: bool,
        decide: Hist,
        winner: Hist,
        loser: Hist,
        tr: Option<Tracer>,
    }
    let propose_all = |p: usize, cands: Vec<CandidateBlock>, mut tr: Option<Tracer>| {
        let _abandon = AbandonOnPanic(&barrier);
        let mut side = Side {
            outcomes: Vec::with_capacity(rounds),
            starts: Vec::with_capacity(rounds),
            anchor_lags: 0,
            anchor_stuck: false,
            decide: Hist::default(),
            winner: Hist::default(),
            loser: Hist::default(),
            tr: None,
        };
        let mut anchor = anchor;
        for (r, cand) in cands.into_iter().enumerate() {
            if p == 0 {
                match await_committed_anchor(tree, anchor) {
                    Ok(lagged) => side.anchor_lags += u64::from(lagged),
                    Err(()) => side.anchor_stuck = true,
                }
                let _ = slots[r].set(TreeConsensus::new(tree, &oracle, anchor));
            }
            barrier.wait();
            let cons = slots[r]
                .get()
                .expect("proposer 0 installs each round first");
            let t0 = Instant::now();
            side.starts.push(t0);
            let out = cons.propose(p, cand).ok();
            let t1 = Instant::now();
            side.decide.record_since(t0, t1);
            match out {
                Some(o) if o.grafted => side.winner.record_since(t0, t1),
                _ => side.loser.record_since(t0, t1),
            }
            if let Some(t) = tr.as_mut() {
                t.record("propose", 0, r as u64, t0, t1, 1);
            }
            if let Some(o) = out {
                anchor = o.decided;
            }
            side.outcomes.push(out);
        }
        side.tr = tr;
        side
    };
    let start = Instant::now();
    let (mut s0, mut s1) = std::thread::scope(|s| {
        let h = c1.map(|c1| {
            s.spawn(|| {
                pin_thread(1);
                propose_all(1, c1, env.tracer(2))
            })
        });
        let s0 = propose_all(0, c0, tr.take());
        (s0, h.map(|h| h.join().expect("proposer 1 does not panic")))
    });
    let end = Instant::now();
    let wall = end - start;
    // Decisions per second over windows of consecutive rounds, timed
    // from proposer 0's round starts (a round starts once both
    // proposers finished the previous one).
    let windows = (rounds / DECIDE_WINDOW).max(1);
    let per = rounds / windows;
    let window_rates = (0..windows)
        .map(|k| {
            let from = s0.starts[k * per];
            let to = s0.starts.get((k + 1) * per).copied().unwrap_or(end);
            per as f64 / (to - from).as_secs_f64()
        })
        .collect();
    *tr = s0.tr.take();
    if let Some(s1) = s1.as_mut() {
        absorb(tr, s1.tr.take());
    }
    for side in std::iter::once(&s0).chain(s1.as_ref()) {
        acc.decide.now.merge(&side.decide);
        acc.winner.merge(&side.winner);
        acc.loser.merge(&side.loser);
    }
    let proposes = (proposers * rounds) as u64;
    acc.attempted += proposes;

    let mut errors = 0;
    let mut short_circuits = 0;
    let mut reports = Vec::with_capacity(rounds);
    let mut round_anchor = anchor;
    for r in 0..rounds {
        let round: Option<Vec<ProposeOutcome>> = std::iter::once(&s0)
            .chain(s1.as_ref())
            .map(|side| side.outcomes[r])
            .collect();
        let Some(round) = round else {
            errors += 1;
            continue;
        };
        short_circuits += round.iter().filter(|o| o.minted.is_none()).count() as u64;
        let report = TreeConsensusReport::from_outcomes(round_anchor, &round);
        round_anchor = report.decided().unwrap_or(round_anchor);
        reports.push(report);
    }
    if s0.anchor_stuck {
        acc.fail_all(
            "consensus",
            vec!["a decided anchor never became is_committed".into()],
        );
    }
    let log = tree.commit_log();
    DecideRun {
        window_rates,
        anchor_lags: s0.anchor_lags,
        wall,
        evidence: ConsensusEvidence {
            reports,
            commit_log_tail: log[log_before.min(log.len())..].to_vec(),
            errors,
            fork_coherent: oracle.fork_coherent(),
        },
        grants: oracle.tokens_granted(),
        proposes,
        short_circuits,
    }
}

/// Counter snapshot bracketing a timed phase.
struct Snap {
    pipe: PipelineStats,
    gen: u64,
    reclaimed: u64,
    wal: WalStats,
}

fn snap<F: SelectionFn>(tree: &Tree<F>) -> Snap {
    Snap {
        pipe: tree.pipeline_stats(),
        gen: tree.commit_generation(),
        reclaimed: tree.epochs().reclaimed_items(),
        wal: tree.wal_stats().unwrap_or_default(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Records the counter-based (c) per-layer readings for a timed phase
/// that committed `commits` blocks in `wall`.
fn record_counters<F: SelectionFn>(
    acc: &mut Acc,
    tree: &Tree<F>,
    before: &Snap,
    commits: u64,
    wall: Duration,
) {
    let after = snap(tree);
    let n = commits as f64;
    let wall_ns = wall.as_nanos() as f64;
    let (p0, p1) = (&before.pipe, &after.pipe);
    let inline = (p1.inline_appends - p0.inline_appends) as f64;
    let batched = (p1.batched_appends - p0.batched_appends) as f64;
    let batches = (p1.batches - p0.batches) as f64;
    let drain = (p1.drain_lock_ns - p0.drain_lock_ns) as f64;
    acc.layer(
        "concurrent.publications_per_append",
        ratio((after.gen - before.gen) as f64, n),
    );
    let store = tree.store();
    acc.layer(
        "sharded_store.flattened_blocks",
        store.flattened_count() as f64,
    );
    acc.layer(
        "sharded_store.heap_bytes_per_block",
        ratio(store.approx_heap_bytes() as f64, store.block_count() as f64),
    );
    acc.layer("commit.inline_share", ratio(inline, inline + batched));
    acc.layer(
        "commit.mean_batch",
        ratio(inline + batched, inline + batches),
    );
    acc.layer("commit.max_batch", p1.max_batch as f64);
    // Lock-held time as a share of the loop's wall time. The program
    // clocks only its queued commit path, so a loop whose commits all
    // took the inline path reads 0.
    acc.layer("commit.drain_lock_share", ratio(drain, wall_ns));
    acc.layer(
        "commit.publish_share",
        ratio((p1.publish_ns - p0.publish_ns) as f64, wall_ns),
    );
    acc.layer(
        "commit.score_share",
        ratio((p1.score_ns - p0.score_ns) as f64, drain),
    );
    let epochs = tree.epochs();
    acc.layer(
        "epoch.retired_bytes_peak",
        epochs.retired_bytes_peak() as f64,
    );
    acc.layer(
        "epoch.reclaimed_items_per_append",
        ratio((epochs.reclaimed_items() - before.reclaimed) as f64, n),
    );
    acc.layer("epoch.pending_items_end", epochs.pending_items() as f64);
    let (w0, w1) = (&before.wal, &after.wal);
    let records = (w1.records - w0.records) as f64;
    let fsyncs = (w1.fsyncs - w0.fsyncs) as f64;
    acc.layer("wal.records_per_fsync", ratio(records, fsyncs));
    acc.layer("wal.fsyncs_per_append", ratio(fsyncs, n));
    acc.layer(
        "wal.bytes_per_record",
        ratio((w1.bytes - w0.bytes) as f64, records),
    );
    acc.layer(
        "wal.retries",
        (w1.eintr_retries + w1.rotation_retries) as f64,
    );
    acc.layer("wal.failures", wal_failures(w1) as f64);
}

fn wal_failures(s: &WalStats) -> u64 {
    s.checkpoint_failures + s.segment_unlink_failures + s.rotation_failures
}

fn record_decide_counters(acc: &mut Acc, run: &DecideRun) {
    let decisions = run.evidence.reports.len() as f64;
    acc.layer(
        "oracle.grants_per_decision",
        ratio(run.grants as f64, decisions),
    );
    acc.layer(
        "tree_consensus.short_circuit_share",
        ratio(run.short_circuits as f64, run.proposes as f64),
    );
    acc.layer("tree_consensus.anchor_lags", run.anchor_lags as f64);
}

/// Appends a seeded base chain: part of every volatile workload's set-up.
fn append_base<F: SelectionFn>(tree: &Tree<F>, payloads: Vec<Payload>, acc: &mut Acc) {
    let n = payloads.len();
    let (acks, errors) = append_loop(tree, 7, payloads, &mut Hist::default(), &mut None);
    acc.attempted += n as u64;
    if errors != 0 || acks.len() != n {
        acc.fail_all("set-up", vec![format!("{errors} base appends failed")]);
    }
}

/// Runs the probes a workload's loop does not cover, then (traced) the
/// layer replays, on the trial's final tree. Returns the acked ids of
/// the graft probe and the decisions of the decide probe, in order.
#[allow(clippy::too_many_arguments)]
fn probes<F: SelectionFn>(
    w: Workload,
    tree: &Tree<F>,
    selection: &dyn SelectionFn,
    rng: &mut Rng,
    acc: &mut Acc,
    env: &Env<'_>,
    tr: &mut Option<Tracer>,
) -> Vec<Vec<BlockId>> {
    let s = env.sizes;
    let mut acked = Vec::new();
    if w == Workload::Consensus {
        let len_before = tree.read().len();
        let payloads = tx_payloads(rng, s.probe_appends, 1 << 40);
        let start = Instant::now();
        let (acks, _) = append_loop(tree, 5, payloads, &mut acc.append.now, tr);
        acc.append_rate
            .push(s.probe_appends as f64 / start.elapsed().as_secs_f64());
        acc.attempted += s.probe_appends as u64;
        let tip = tree.read().tip();
        let e = LedgerEvidence {
            appends: s.probe_appends,
            acked: acks.len(),
            final_len: tree.read().len(),
            len_before,
            tip,
            full_scan_tip: tree.selected_tip_full_scan(),
            reader_regressions: 0,
        };
        acc.fail_all("append probe", checks::check_ledger(&e));
    }
    if w != Workload::Ledger {
        let n = s.probe_reads as u64;
        let regressions = read_loop(tree, |i| i < n, &mut acc.read.now, tr);
        acc.attempted += s.probe_reads as u64;
        if regressions != 0 {
            acc.fail_all(
                "read probe",
                vec![format!("chain shrank {regressions} times")],
            );
        }
    }
    if w != Workload::GhostFork {
        let inputs = graft_inputs(rng, s.probe_grafts);
        let (acks, errors) = graft_loop(tree, &inputs, rng, &mut acc.graft.now, tr);
        acc.attempted += inputs.len() as u64;
        if errors != 0 {
            acc.fail_all("graft probe", vec![format!("{errors} grafts did not ack")]);
        }
        acked.push(acks);
    }
    let decisions = |run: &DecideRun| -> Vec<BlockId> {
        run.evidence
            .reports
            .iter()
            .filter_map(|r| r.decided())
            .collect()
    };
    if w != Workload::Consensus {
        let anchor = tree.read().tip();
        let run = run_decides(tree, anchor, s.probe_rounds, 1, rng, acc, env, tr);
        acc.decide_rate.extend(&run.window_rates);
        acc.fail_all("decide probe", checks::check_consensus(&run.evidence));
        record_decide_counters(acc, &run);
        acked.push(decisions(&run));
    }
    if w != Workload::Consensus && tr.is_some() {
        // The winner/loser readings need two racing proposers; the probe
        // above has one. Only the traced run pays for this.
        let mut race = Acc::default();
        let anchor = tree.read().tip();
        let rounds = (s.probe_rounds / 4).max(1);
        let run = run_decides(tree, anchor, rounds, 2, rng, &mut race, env, tr);
        acc.winner.merge(&race.winner);
        acc.loser.merge(&race.loser);
        acc.attempted += race.attempted;
        acc.fail_all("decide race", checks::check_consensus(&run.evidence));
        acked.push(decisions(&run));
    }
    if let Some(t) = tr.as_mut() {
        replay::run(tree, selection, rng, acc, env, t);
    }
    acked
}

/// Runs one trial of `w` with inputs drawn from `seed`.
pub fn run_trial(w: Workload, env: &Env<'_>, seed: u64, acc: &mut Acc, tr: &mut Option<Tracer>) {
    match w {
        Workload::Ledger => ledger_trial(env, seed, acc, tr),
        Workload::DurableLedger => durable_trial(env, seed, acc, tr),
        Workload::GhostFork => fork_trial(env, seed, acc, tr),
        Workload::Consensus => consensus_trial(env, seed, acc, tr),
    }
    for lat in [
        &mut acc.append,
        &mut acc.read,
        &mut acc.graft,
        &mut acc.decide,
    ] {
        lat.close_trial();
    }
    acc.trials += 1;
}

fn ledger_trial(env: &Env<'_>, seed: u64, acc: &mut Acc, tr: &mut Option<Tracer>) {
    let s = env.sizes;
    let mut rng = Rng::lane(seed, 1);
    let base = tx_payloads(&mut rng, s.base, 0);
    let work = tx_payloads(&mut rng, s.appends, 1 << 32);

    let t0 = Instant::now();
    let tree = Tree::new(LongestChain, AcceptAll);
    append_base(&tree, base, acc);
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    let before = snap(&tree);
    let len_before = tree.read().len();
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let ((acks, errors, wall), (reads, regressions, mut read_tr)) = std::thread::scope(|sc| {
        let reader = sc.spawn(|| {
            pin_thread(1);
            let mut tr = env.tracer(1);
            let mut hist = Hist::default();
            barrier.wait();
            let more = |_| !done.load(Ordering::Acquire);
            let regressions = read_loop(&tree, more, &mut hist, &mut tr);
            (hist, regressions, tr)
        });
        barrier.wait();
        let start = Instant::now();
        let (acks, errors) = append_loop(&tree, 0, work, &mut acc.append.now, tr);
        let wall = start.elapsed();
        done.store(true, Ordering::Release);
        let r = reader.join().expect("reader does not panic");
        ((acks, errors, wall), r)
    });
    absorb(tr, read_tr.take());
    acc.read.now.merge(&reads);
    acc.attempted += (s.appends as u64) + reads.count();
    acc.append_rate.push(s.appends as f64 / wall.as_secs_f64());
    let e = LedgerEvidence {
        appends: s.appends,
        acked: acks.len(),
        final_len: tree.read().len(),
        len_before,
        tip: tree.read().tip(),
        full_scan_tip: tree.selected_tip_full_scan(),
        reader_regressions: regressions,
    };
    if errors != 0 {
        acc.fail_all("ledger", vec![format!("{errors} appends did not ack")]);
    }
    acc.fail_all("ledger", checks::check_ledger(&e));
    record_counters(acc, &tree, &before, s.appends as u64, wall);
    probes(
        Workload::Ledger,
        &tree,
        &LongestChain,
        &mut rng,
        acc,
        env,
        tr,
    );
}

fn fork_trial(env: &Env<'_>, seed: u64, acc: &mut Acc, tr: &mut Option<Tracer>) {
    let s = env.sizes;
    let mut rng = Rng::lane(seed, 3);
    let base = tx_payloads(&mut rng, s.base, 0);
    let work = tx_payloads(&mut rng, s.appends, 1 << 32);
    let grafts = graft_inputs(&mut rng, s.grafts);
    let mut graft_rng = Rng::lane(seed, 4);
    let selection = Ghost::default();

    let t0 = Instant::now();
    let tree = Tree::new(selection, AcceptAll);
    append_base(&tree, base, acc);
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    let before = snap(&tree);
    let barrier = Barrier::new(2);
    let ((acks, errors, wall), (graft_hist, graft_acks, graft_errors, mut fork_tr)) =
        std::thread::scope(|sc| {
            let forker = sc.spawn(|| {
                pin_thread(1);
                let mut tr = env.tracer(1);
                let mut hist = Hist::default();
                barrier.wait();
                let (acks, errors) = graft_loop(&tree, &grafts, &mut graft_rng, &mut hist, &mut tr);
                (hist, acks, errors, tr)
            });
            barrier.wait();
            let start = Instant::now();
            let (acks, errors) = append_loop(&tree, 0, work, &mut acc.append.now, tr);
            let wall = start.elapsed();
            let f = forker.join().expect("forker does not panic");
            ((acks, errors, wall), f)
        });
    absorb(tr, fork_tr.take());
    acc.graft.now.merge(&graft_hist);
    acc.attempted += (s.appends + s.grafts) as u64;
    acc.append_rate.push(s.appends as f64 / wall.as_secs_f64());
    let e = ForkEvidence {
        base: s.base,
        appends: acks.len(),
        grafts: graft_acks.len(),
        errors: errors + graft_errors,
        commit_log_len: tree.commit_log().len(),
        tip: tree.selected_tip(),
        full_scan_tip: tree.selected_tip_full_scan(),
    };
    acc.fail_all("ghost_fork", checks::check_fork(&e));
    record_counters(acc, &tree, &before, (s.appends + s.grafts) as u64, wall);
    probes(
        Workload::GhostFork,
        &tree,
        &selection,
        &mut rng,
        acc,
        env,
        tr,
    );
}

fn consensus_trial(env: &Env<'_>, seed: u64, acc: &mut Acc, tr: &mut Option<Tracer>) {
    let s = env.sizes;
    let mut rng = Rng::lane(seed, 4);
    let base = tx_payloads(&mut rng, s.base, 0);

    let t0 = Instant::now();
    let tree = Tree::new(LongestChain, AcceptAll);
    append_base(&tree, base, acc);
    acc.setup_s.push(t0.elapsed().as_secs_f64());

    let before = snap(&tree);
    let anchor = tree.read().tip();
    let run = run_decides(&tree, anchor, s.rounds, 2, &mut rng, acc, env, tr);
    acc.decide_rate.extend(&run.window_rates);
    acc.fail_all("consensus", checks::check_consensus(&run.evidence));
    record_counters(acc, &tree, &before, s.rounds as u64, run.wall);
    record_decide_counters(acc, &run);
    probes(
        Workload::Consensus,
        &tree,
        &LongestChain,
        &mut rng,
        acc,
        env,
        tr,
    );
}

/// Writes the `durable_ledger` base log (untimed, once per run).
pub fn write_durable_base(tmp: &Path, seed: u64, records: usize) -> std::io::Result<DurableBase> {
    let dir = TempDir::create(tmp.join("base"))?;
    let mut rng = Rng::lane(seed, 2);
    let tree = ConcurrentBlockTree::open_durable(
        DEFAULT_SHARDS,
        FinalityWatermark::new(DEFAULT_FINALITY_DEPTH),
        LongestChain,
        AcceptAll,
        WalConfig::new(dir.path()).no_fsync(),
    )?;
    for (i, p) in tx_payloads(&mut rng, records, 0).into_iter().enumerate() {
        tree.append(candidate(7, i as u64, p))
            .ok()
            .flatten()
            .expect("base-log appends to a healthy volatile-fsync tree ack");
    }
    let log = tree
        .commit_log()
        .into_iter()
        .map(|id| (id, tree.store().digest_of(id)))
        .collect();
    Ok(DurableBase { dir, log })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    for e in std::fs::read_dir(from)? {
        let e = e?;
        std::fs::copy(e.path(), to.join(e.file_name()))?;
    }
    Ok(())
}

fn durable_trial(env: &Env<'_>, seed: u64, acc: &mut Acc, tr: &mut Option<Tracer>) {
    let s = env.sizes;
    let base = env.base.expect("durable_ledger runs with a base log");
    let mut rng = Rng::lane(seed, 2);
    let half = s.appends / 2;
    let work0 = tx_payloads(&mut rng, half, 1 << 32);
    let work1 = tx_payloads(&mut rng, s.appends - half, 1 << 33);
    let dir = TempDir::create(env.tmp.join(format!("trial-{seed:016x}")))
        .expect("trial WAL directory can be created");
    copy_dir(base.dir.path(), dir.path()).expect("base log copies");
    let config = WalConfig::new(dir.path());
    let open = || {
        ConcurrentBlockTree::open_durable(
            DEFAULT_SHARDS,
            FinalityWatermark::new(DEFAULT_FINALITY_DEPTH),
            LongestChain,
            AcceptAll,
            config.clone(),
        )
        .expect("trial WAL recovers")
    };

    let t0 = Instant::now();
    let tree = open();
    let setup = t0.elapsed().as_secs_f64();
    acc.setup_s.push(setup);
    acc.layer("wal.recover_records_per_s", base.log.len() as f64 / setup);
    let base_recovered: Vec<(BlockId, u64)> = tree
        .commit_log()
        .into_iter()
        .map(|id| (id, tree.store().digest_of(id)))
        .collect();

    let before = snap(&tree);
    let barrier = Barrier::new(2);
    let run_side = |producer: u32, work: Vec<Payload>, mut tr: Option<Tracer>| {
        let mut hist = Hist::default();
        barrier.wait();
        let start = Instant::now();
        let (acks, errors) = append_loop(&tree, producer, work, &mut hist, &mut tr);
        (acks, errors, start.elapsed(), hist, tr)
    };
    let (a0, a1) = std::thread::scope(|sc| {
        let h = sc.spawn(|| {
            pin_thread(1);
            run_side(1, work1, env.tracer(1))
        });
        let a0 = run_side(0, work0, tr.take());
        (a0, h.join().expect("appender 1 does not panic"))
    });
    *tr = a0.4;
    absorb(tr, a1.4);
    acc.append.now.merge(&a0.3);
    acc.append.now.merge(&a1.3);
    acc.attempted += s.appends as u64;
    acc.append_rate
        .push(s.appends as f64 / a0.2.max(a1.2).as_secs_f64());
    let stats = tree.wal_stats().unwrap_or_default();
    let wal_records = stats.records - before.wal.records;
    record_counters(acc, &tree, &before, s.appends as u64, a0.2.max(a1.2));

    let mut acks = vec![a0.0, a1.0];
    acks.extend(probes(
        Workload::DurableLedger,
        &tree,
        &LongestChain,
        &mut rng,
        acc,
        env,
        tr,
    ));
    drop(tree);
    let reopened_log = open().commit_log();
    let e = DurableEvidence {
        base_written: base.log.clone(),
        base_recovered,
        acks,
        errors: a0.1 + a1.1,
        appends: s.appends as u64,
        wal_records,
        wal_failures: wal_failures(&stats),
        reopened_log,
    };
    acc.fail_all("durable_ledger", checks::check_durable(&e));
}
