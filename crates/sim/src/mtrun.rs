//! Multi-threaded workload runner: real OS threads racing on a
//! [`ConcurrentBlockTree`], recording a timestamped [`History`].
//!
//! The discrete-event simulator (`crate::world`) *schedules* concurrency;
//! this module *executes* it — N appender threads and M reader threads
//! hammer one shared tree, and every operation is recorded with
//! invocation/response stamps drawn from a shared atomic counter. That
//! counter realizes the paper's *fictional global clock* (§4.2): each
//! `fetch_add` is a point in the clock's modification order, the response
//! stamp is taken after the operation's effect and the invocation stamp
//! before it, so whenever operation A's response *really* precedes
//! operation B's invocation, `stamp(A.resp) < stamp(B.inv)` — the recorded
//! returns-before order `≺` is a sound sub-order of real time. (The
//! `AcqRel` ordering on the counter also makes each stamp a
//! synchronization edge, so the recorded values themselves are coherent.)
//!
//! The recorded history is then *checked from the outside*: fed to
//! `check_linearizable` / `check_linearizable_windowed`, to the
//! consistency criteria (Local Monotonic Read et al.), or replayed
//! differentially — the checker is the oracle, not an assertion of intent
//! inside the implementation. The same suites ran unchanged across the
//! commit-pipeline rewrites: how commits reach publication is invisible
//! to the recorded evidence, which is the point.
//!
//! Workloads run in `rounds` separated by a barrier: within a round all
//! threads race freely; between rounds the system is quiescent. That gives
//! long runs guaranteed quiescent points, which is exactly the structure
//! `History::split_at_quiescence` and the windowed checker exploit.
//!
//! # Mining gates
//!
//! Optionally each append first consults a shared Θ-oracle (§4.1):
//!
//! * **Prodigal** (`mine: true`): every append wins a Θ_P token for the
//!   tip it is about to mine on — pure validation, no fork control.
//! * **Frugal** (`frugal_k: Some(k)`): the Protocol-A shape. The appender
//!   `getToken`s for its intended parent, mints the block into the arena
//!   (not yet a member), and `consumeToken`s it. If the oracle admitted
//!   the block into `K[parent]`, the mint is committed via
//!   `graft_minted`; if `K[parent]` was already full, the returned set
//!   *feeds back*: the appender adopts one of the winners as its next
//!   graft parent and retries — k-fork coherence enforced by the oracle,
//!   convergence driven by the feedback.

use btadt_core::blocktree::CandidateBlock;
use btadt_core::chain::Blockchain;
use btadt_core::commit::{FinalityWatermark, PipelineStats};
use btadt_core::concurrent::ConcurrentBlockTree;
use btadt_core::history::{History, Invocation, Response};
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId, Time};
use btadt_core::selection::SelectionFn;
use btadt_core::store::BlockStore;
use btadt_core::validity::AcceptAll;
use btadt_core::vfs::{FaultConfig, FaultVfs};
use btadt_core::wal::{DurabilityError, WalConfig, WalStats};
use btadt_oracle::{Merits, SharedOracle, ThetaOracle};
use btadt_registers::{TreeConsensus, TreeConsensusReport};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Shape of a multi-threaded recorded run.
#[derive(Clone, Debug)]
pub struct MtConfig {
    /// Seeds work weights, nonces, and reader pacing (the *workload* is
    /// deterministic; the interleaving is whatever the scheduler does).
    pub seed: u64,
    /// Appender threads (processes `p0 .. p(appenders-1)`).
    pub appenders: usize,
    /// Reader threads (processes `p(appenders) ..`).
    pub readers: usize,
    /// Appends per appender per round.
    pub appends_per_round: usize,
    /// Reads per reader per round.
    pub reads_per_round: usize,
    /// Barrier-separated rounds; the inter-round instants are quiescent.
    pub rounds: usize,
    /// When true, every append first obtains a token from a shared
    /// prodigal Θ-oracle for the tip it is about to mine on.
    pub mine: bool,
    /// When `Some(k)`, appends gate through a shared *frugal* Θ_F,k
    /// oracle with consumeToken feedback into graft parents (see the
    /// module docs). Takes precedence over `mine`.
    pub frugal_k: Option<u32>,
}

impl Default for MtConfig {
    fn default() -> Self {
        MtConfig {
            seed: 0,
            appenders: 2,
            readers: 2,
            appends_per_round: 3,
            reads_per_round: 4,
            rounds: 1,
            mine: false,
            frugal_k: None,
        }
    }
}

/// Everything a checker needs from one recorded run.
pub struct MtRun {
    /// The recorded concurrent history (append + read operations).
    pub history: History,
    /// Sequential snapshot of the arena (identical ids/digests), taken
    /// after all threads joined.
    pub store: BlockStore,
    /// Membership commit order of the run.
    pub commit_log: Vec<BlockId>,
    /// The tree's final published chain.
    pub final_chain: Blockchain,
    /// Successful appends across all threads.
    pub appended: usize,
    /// Thm. 3.2 k-fork coherence of the shared oracle, when one gated the
    /// run (`None` for un-mined workloads).
    pub fork_coherent: Option<bool>,
    /// Commit-pipeline counters at the end of the run. Only
    /// `inline_appends` (appends that reached stage 1 — every append
    /// except a definitive rejection under a still-published tip) has a
    /// producer; the other fields read 0, since every commit runs one
    /// unclocked path.
    pub pipeline: PipelineStats,
}

/// One thread's private log entry, merged into the [`History`] after join.
type LoggedOp = (ProcessId, Invocation, Time, Response, Time);

/// A sense-reversing barrier tuned for time-sliced cores: arrivals spin
/// with `yield_now` for a bounded number of slices before parking on a
/// condvar. `std::sync::Barrier` parks (futex) on every arrival, which
/// costs a park+wake context-switch pair per thread per round — at 10
/// threads that alone capped the consensus workload near 75k rounds/s on
/// a one-core container, dwarfing the decide path under measurement.
/// Yield-first arrival turns most of those into cheap voluntary switches
/// (the last arriver flips the generation; spinners notice on their next
/// slice), while the condvar fallback keeps long waits off the CPU.
struct YieldBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    n: usize,
    lock: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl YieldBarrier {
    fn new(n: usize) -> Self {
        YieldBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            n: n.max(1),
            lock: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset the count *before* flipping the generation: the next
            // round's arrivals increment only after observing the new
            // generation (Release/Acquire on `generation`), so they see
            // the reset.
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            // Lock-then-notify pairs with the recheck-under-lock below.
            drop(self.lock.lock().expect("barrier lock"));
            self.cv.notify_all();
            return;
        }
        let mut spins = 0u32;
        loop {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            spins += 1;
            if spins < 1024 {
                std::thread::yield_now();
            } else {
                let mut guard = self.lock.lock().expect("barrier lock");
                loop {
                    if self.generation.load(Ordering::Acquire) != gen {
                        return;
                    }
                    // The timeout is a belt-and-braces net against a
                    // notify racing the lock acquisition; correctness
                    // only needs the generation recheck.
                    let (g, _) = self
                        .cv
                        .wait_timeout(guard, std::time::Duration::from_millis(1))
                        .expect("barrier lock");
                    guard = g;
                }
            }
        }
    }
}

/// A wedged frugal run (merit tape never granting, or an admitted
/// winner's committer dying before its graft) fails loudly after this
/// long instead of spinning silently until the CI timeout kills it.
const FRUGAL_STALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(20);

/// One frugal (Θ_F,k) append: getToken for the intended parent, mint into
/// the arena, consumeToken; commit the mint if admitted, otherwise adopt
/// a winner from the returned `K[parent]` as the next parent and retry.
/// Returns the committed id.
///
/// # Panics
///
/// When the run wedges past [`FRUGAL_STALL_LIMIT`]: either the oracle
/// stops granting tokens (the retry loop would otherwise spin forever),
/// or an admitted winner's parent never commits — e.g. the thread that
/// owned the winning mint panicked before grafting it, orphaning everyone
/// who adopted it through feedback.
fn frugal_append<F: SelectionFn>(
    tree: &ConcurrentBlockTree<F, AcceptAll>,
    oracle: &SharedOracle,
    merit_index: usize,
    work: u64,
    nonce: u64,
    seed: u64,
    step: u64,
) -> BlockId {
    let me = ProcessId(merit_index as u32);
    let deadline = std::time::Instant::now() + FRUGAL_STALL_LIMIT;
    // Backoff ladder for token-less retries: yield for the first few
    // denials (a solo appender's tape is its only wake source), then
    // park on the tree's commit generation — a commit means the tip
    // moved, which is exactly when re-aiming is worth another tape cell
    // — with a timeout so a round where *every* tape said ⊥ still makes
    // progress.
    const TOKEN_YIELDS: u64 = 4;
    const TOKEN_BACKOFF: std::time::Duration = std::time::Duration::from_micros(200);
    let mut parent = tree.selected_tip();
    let mut attempt = 0u64;
    let mut denied = 0u64;
    loop {
        let Some(grant) = oracle.get_token(merit_index, parent) else {
            // The merit tape said no this round: re-aim at the (possibly
            // moved) published tip and try again.
            assert!(
                std::time::Instant::now() < deadline,
                "frugal_append wedged: p{merit_index} got no token for \
                 {parent} after {attempt} attempts ({FRUGAL_STALL_LIMIT:?})"
            );
            denied += 1;
            let gen = tree.commit_generation();
            let next = tree.selected_tip();
            if next != parent || denied <= TOKEN_YIELDS {
                std::thread::yield_now();
            } else {
                // Tip unchanged and the tape keeps saying no: park until
                // a commit lands (or the backoff elapses) instead of
                // burning the committer's time slice in a spin.
                tree.wait_commit_past(gen, std::time::Instant::now() + TOKEN_BACKOFF);
            }
            parent = tree.selected_tip();
            attempt += 1;
            continue;
        };
        // Mint under the granted parent — into the arena only; membership
        // is the oracle's call.
        let id = tree.store().mint(
            parent,
            me,
            merit_index as u32,
            work,
            nonce ^ (attempt << 44),
            btadt_core::block::Payload::Empty,
        );
        let admitted = oracle.consume_token(&grant, id);
        if admitted.contains(&id) {
            // Our mint joined K[parent]. Its parent may have been a
            // feedback winner whose own committer has not grafted yet —
            // wait for parent-closure, then commit.
            assert!(
                tree.wait_committed(parent, deadline),
                "frugal_append wedged: p{merit_index}'s admitted mint \
                 {id} waited {FRUGAL_STALL_LIMIT:?} for parent {parent} \
                 to commit — its owner likely died before grafting"
            );
            return tree
                .graft_minted(id)
                .expect("volatile trees cannot poison")
                .expect("AcceptAll admits every oracle-approved block");
        }
        // K[parent] is full: the feedback step. Adopt one of the winners
        // as the next graft parent (the mint stays an arena orphan).
        assert!(
            std::time::Instant::now() < deadline,
            "frugal_append wedged: p{merit_index} lost the K-slot race \
             {attempt} times without admission ({FRUGAL_STALL_LIMIT:?})"
        );
        let r = splitmix64_at(seed ^ 0xF2C6_A1D3, (step << 8) | (attempt & 0xFF));
        parent = admitted[(r as usize) % admitted.len()];
        attempt += 1;
    }
}

/// Drives `cfg` against a fresh `ConcurrentBlockTree<F, AcceptAll>` and
/// records the history. The run is linearizable by construction of the
/// tree — the point is that the *recorded evidence* is checked by the
/// Wing–Gong search, not assumed.
pub fn run_concurrent_workload<F: SelectionFn>(selection: F, cfg: &MtConfig) -> MtRun {
    let tree = ConcurrentBlockTree::new(selection, AcceptAll);
    let clock = AtomicU64::new(0);
    let barrier = Barrier::new(cfg.appenders + cfg.readers);
    let oracle = if let Some(k) = cfg.frugal_k {
        let merits = Merits::uniform(cfg.appenders.max(1));
        Some(SharedOracle::new(ThetaOracle::frugal(
            k,
            merits,
            cfg.appenders.max(1) as f64,
            cfg.seed,
        )))
    } else if cfg.mine {
        let merits = Merits::uniform(cfg.appenders.max(1));
        Some(SharedOracle::new(ThetaOracle::prodigal(
            merits,
            cfg.appenders.max(1) as f64,
            cfg.seed,
        )))
    } else {
        None
    };

    let tick = |clock: &AtomicU64| Time(clock.fetch_add(1, Ordering::AcqRel) + 1);

    let mut logs: Vec<Vec<LoggedOp>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for a in 0..cfg.appenders {
            let (tree, clock, barrier, oracle) = (&tree, &clock, &barrier, &oracle);
            let cfg = cfg.clone();
            handles.push(s.spawn(move || {
                let me = ProcessId(a as u32);
                let mut log: Vec<LoggedOp> = Vec::new();
                for round in 0..cfg.rounds {
                    barrier.wait();
                    for i in 0..cfg.appends_per_round {
                        let step = (round * cfg.appends_per_round + i) as u64;
                        let nonce = ((a as u64) << 40) | step;
                        let work = 1 + splitmix64_at(cfg.seed ^ ((a as u64) << 16), step) % 4;
                        let (t0, id, t1) = if cfg.frugal_k.is_some() {
                            // Θ_F gate: the whole getToken*→consumeToken→
                            // graft sequence is the refined append
                            // (Def. 3.7) — one recorded operation.
                            let oracle = oracle.as_ref().expect("frugal_k implies an oracle");
                            let t0 = tick(clock);
                            let id = frugal_append(tree, oracle, a, work, nonce, cfg.seed, step);
                            (t0, id, tick(clock))
                        } else {
                            if let Some(oracle) = oracle {
                                // Protocol-A flavour: win a token for the tip
                                // you are about to mine on (Θ_P always grants).
                                let grant = loop {
                                    let tip = tree.selected_tip();
                                    if let Some(g) = oracle.get_token(a, tip) {
                                        break g;
                                    }
                                };
                                let _ = grant;
                            }
                            let cand = CandidateBlock::simple(me, nonce).with_work(work);
                            let t0 = tick(clock);
                            let id = tree.append(cand).expect("volatile trees cannot poison");
                            let t1 = tick(clock);
                            (t0, id.expect("AcceptAll appends always succeed"), t1)
                        };
                        log.push((
                            me,
                            Invocation::Append { block: id },
                            t0,
                            Response::Appended(true),
                            t1,
                        ));
                    }
                    barrier.wait();
                }
                log
            }));
        }
        for r in 0..cfg.readers {
            let (tree, clock, barrier) = (&tree, &clock, &barrier);
            let cfg = cfg.clone();
            handles.push(s.spawn(move || {
                let me = ProcessId((cfg.appenders + r) as u32);
                let mut log: Vec<LoggedOp> = Vec::new();
                for round in 0..cfg.rounds {
                    barrier.wait();
                    for i in 0..cfg.reads_per_round {
                        let step = (round * cfg.reads_per_round + i) as u64;
                        // Seeded pacing: sometimes yield so reads land in
                        // different phases of the appenders' work.
                        if splitmix64_at(cfg.seed ^ 0x5EAD, ((r as u64) << 24) | step)
                            .is_multiple_of(3)
                        {
                            std::thread::yield_now();
                        }
                        let t0 = tick(clock);
                        let chain = tree.read_owned();
                        let t1 = tick(clock);
                        log.push((me, Invocation::Read, t0, Response::Chain(chain), t1));
                    }
                    barrier.wait();
                }
                log
            }));
        }
        for h in handles {
            logs.push(h.join().expect("workload threads do not panic"));
        }
    });

    let mut merged: Vec<LoggedOp> = logs.into_iter().flatten().collect();
    // Deterministic recording order (the history's semantics only depend
    // on timestamps, but stable op ids make failures reproducible to read).
    merged.sort_by_key(|(_, _, t0, _, _)| *t0);
    let mut history = History::new();
    let mut appended = 0;
    for (p, inv, t0, resp, t1) in merged {
        if matches!(resp, Response::Appended(true)) {
            appended += 1;
        }
        history.push_complete(p, inv, t0, resp, t1);
    }

    MtRun {
        store: tree.snapshot_store(),
        commit_log: tree.commit_log(),
        final_chain: tree.read_owned(),
        history,
        appended,
        fork_coherent: oracle.as_ref().map(|o| o.fork_coherent()),
        pipeline: tree.pipeline_stats(),
    }
}

/// Everything a checker needs from one fault-injected durable run (see
/// [`run_durable_fault_workload`]).
pub struct FaultRun {
    /// Ids whose append returned `Ok(Some(_))`, across all threads. Each
    /// is provably covered by a pre-poisoning publication
    /// (persist-then-ack), so after any crash + recovery every one of
    /// them must be in the recovered commit log.
    pub acked: Vec<BlockId>,
    /// Appends attempted across all threads.
    pub attempts: usize,
    /// The first [`DurabilityError`] any thread observed, if the fault
    /// schedule fired.
    pub error: Option<DurabilityError>,
    /// Whether the tree ended the run poisoned (degraded read-only).
    pub poisoned: bool,
    /// WAL counters at the end of the run (retries, failures,
    /// `last_error`) — the observability satellite's surface.
    pub stats: WalStats,
}

/// Geometry shared by the fault workload and [`recover_durable`]: small
/// segments and a short checkpoint interval keep rotation and
/// compaction inside the fault schedule's reach.
fn fault_wal_config(wal_dir: &str, vfs: &FaultVfs) -> WalConfig {
    WalConfig::new(wal_dir)
        .segment_bytes(2048)
        .checkpoint_interval(8)
        .vfs(vfs.as_dyn())
}

/// Drives `cfg`'s appender/reader threads against a **durable** tree
/// whose storage is a [`FaultVfs`] running `fault` — the multithreaded
/// degraded-mode check. Appends tolerate [`DurabilityError`]; each
/// thread asserts the poisoning discipline locally (once it has seen an
/// error, no later append of its own may ack — the poison flag is
/// latched before any `Err` returns). The tree is dropped before
/// returning; the caller owns the `FaultVfs` and typically follows with
/// [`FaultVfs::power_loss`] + [`recover_durable`] to check
/// `acked ⊆ recovered`.
pub fn run_durable_fault_workload<F: SelectionFn>(
    selection: F,
    cfg: &MtConfig,
    wal_dir: &str,
    fault: FaultConfig,
) -> (FaultRun, FaultVfs) {
    let vfs = FaultVfs::new(fault);
    let tree = ConcurrentBlockTree::open_durable(
        4,
        FinalityWatermark::new(2),
        selection,
        AcceptAll,
        fault_wal_config(wal_dir, &vfs),
    )
    .expect("fault schedules target the workload, not the fresh open");
    let barrier = Barrier::new(cfg.appenders + cfg.readers);

    type Lane = (Vec<BlockId>, usize, Option<DurabilityError>);
    let mut lanes: Vec<Lane> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for a in 0..cfg.appenders {
            let (tree, barrier) = (&tree, &barrier);
            let cfg = cfg.clone();
            handles.push(s.spawn(move || {
                let me = ProcessId(a as u32);
                let mut acked = Vec::new();
                let mut attempts = 0usize;
                let mut first_err: Option<DurabilityError> = None;
                for round in 0..cfg.rounds {
                    barrier.wait();
                    for i in 0..cfg.appends_per_round {
                        let step = (round * cfg.appends_per_round + i) as u64;
                        let nonce = ((a as u64) << 40) | step;
                        let work = 1 + splitmix64_at(cfg.seed ^ ((a as u64) << 16), step) % 4;
                        let cand = CandidateBlock::simple(me, nonce).with_work(work);
                        attempts += 1;
                        match tree.append(cand) {
                            Ok(Some(id)) => {
                                assert!(
                                    first_err.is_none(),
                                    "p{a} acked {id} after durability error {first_err:?}"
                                );
                                acked.push(id);
                            }
                            Ok(None) => panic!("AcceptAll rejects nothing"),
                            Err(e) => {
                                assert!(
                                    tree.is_poisoned(),
                                    "p{a} got {e:?} from an unpoisoned tree"
                                );
                                first_err.get_or_insert(e);
                            }
                        }
                    }
                }
                (acked, attempts, first_err)
            }));
        }
        for _r in 0..cfg.readers {
            let (tree, barrier) = (&tree, &barrier);
            let cfg = cfg.clone();
            handles.push(s.spawn(move || {
                // Readers race the degrading tree: `read()` stays valid
                // (the published chain is always fsync-covered) before,
                // during, and after poisoning — and selection score is
                // monotone across publications, so with `LongestChain`
                // the observed length never shrinks.
                let mut last_len = 0usize;
                for _ in 0..cfg.rounds {
                    barrier.wait();
                    for _ in 0..cfg.reads_per_round {
                        let chain = tree.read_owned();
                        assert!(
                            chain.len() >= last_len,
                            "published chain regressed under faults"
                        );
                        last_len = chain.len();
                    }
                }
                (Vec::new(), 0, None)
            }));
        }
        for h in handles {
            lanes.push(h.join().expect("fault-workload threads do not panic"));
        }
    });

    let poisoned = tree.is_poisoned();
    let tree_err = tree.durability_error();
    let stats = tree.wal_stats().expect("durable tree has stats");
    drop(tree);
    let mut acked = Vec::new();
    let mut attempts = 0;
    let mut error = None;
    for (ids, n, err) in lanes {
        acked.extend(ids);
        attempts += n;
        if error.is_none() {
            error = err;
        }
    }
    // Any thread-observed error implies (and matches) the latched one.
    if let Some(e) = error {
        assert_eq!(tree_err, Some(e), "latched error diverged from observed");
    }
    (
        FaultRun {
            acked,
            attempts,
            error,
            poisoned,
            stats,
        },
        vfs,
    )
}

/// Re-opens the durable tree a [`run_durable_fault_workload`] left
/// behind (typically after [`FaultVfs::power_loss`]), with the same WAL
/// geometry.
pub fn recover_durable<F: SelectionFn>(
    selection: F,
    wal_dir: &str,
    vfs: &FaultVfs,
) -> std::io::Result<ConcurrentBlockTree<F, AcceptAll>> {
    ConcurrentBlockTree::open_durable(
        4,
        FinalityWatermark::new(2),
        selection,
        AcceptAll,
        fault_wal_config(wal_dir, vfs),
    )
}

/// Shape of a multi-threaded *consensus* run: `rounds` chained Protocol-A
/// instances (`TreeConsensus`) over one shared
/// `ConcurrentBlockTree` + Θ_F,k=1 pair, with reader threads racing
/// `read()` against the decide path.
///
/// Round `r + 1` is anchored at round `r`'s decision as proposer 0 — the
/// thread that installs each round's instance — observed it. Agreement
/// makes that choice identical to what every other proposer decided; the
/// per-round Def. 4.1 reports and the e2e suite's anchor-chaining
/// assertions are what verify that, from the recorded evidence.
#[derive(Clone, Debug)]
pub struct ConsensusConfig {
    /// Seeds the oracle tapes, work weights, and reader pacing.
    pub seed: u64,
    /// Proposer threads (merit indices `0 .. proposers`).
    pub proposers: usize,
    /// Reader threads.
    pub readers: usize,
    /// Consensus instances, chained anchor-to-decision.
    pub rounds: usize,
    /// Reads per reader per round.
    pub reads_per_round: usize,
    /// Token rate across the uniform merit vector; `None` = 0.8 per
    /// proposer per attempt (the `btadt-registers` test default).
    pub rate: Option<f64>,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            seed: 0,
            proposers: 3,
            readers: 2,
            rounds: 2,
            reads_per_round: 4,
            rate: None,
        }
    }
}

/// Everything a checker needs from one recorded consensus run.
pub struct ConsensusRun {
    /// The recorded history: one `Propose`/`Decided` operation per
    /// proposer per round, plus the readers' `Read`/`Chain` operations.
    pub history: History,
    /// Sequential snapshot of the arena (winners and orphaned loser
    /// mints alike), taken after all threads joined.
    pub store: BlockStore,
    /// Membership commit order — one graft per round.
    pub commit_log: Vec<BlockId>,
    /// The tree's final published chain.
    pub final_chain: Blockchain,
    /// Per-round Def. 4.1 evidence, in round order.
    pub reports: Vec<TreeConsensusReport>,
    /// The decisions in round order (the decided path `b0⌢d1⌢d2⌢…`).
    pub decisions: Vec<BlockId>,
    /// Thm. 3.2 k-fork coherence of the shared oracle after the run.
    pub fork_coherent: bool,
    /// Wall clock of the threaded phase only (spawn → join): the decide
    /// path plus reads, *excluding* post-join evidence assembly (arena
    /// snapshot, log merge, history construction) — what a throughput
    /// number should divide by.
    pub threads_wall: std::time::Duration,
    /// Commit-pipeline counters at the end of the run (only
    /// `inline_appends` has a producer; see [`MtRun::pipeline`]).
    pub pipeline: PipelineStats,
}

/// Drives `cfg` against a fresh `ConcurrentBlockTree<F, AcceptAll>` +
/// Θ_F,k=1 pair: every round, proposer 0 installs a fresh
/// [`TreeConsensus`] anchored at the previous decision (the slot's write
/// lock waits out stragglers; the round's single barrier — which the
/// installer reaches only after the install — keeps the slot unread
/// until then, so the install is race-free and the inter-round instants
/// stay quiescent), then all proposers race `propose` while the readers
/// hammer `read()`. Both the decide events and the reads are stamped on
/// the shared global clock and folded into one [`History`] — the
/// evidence the Wing–Gong/windowed checkers judge.
pub fn run_consensus_workload<F: SelectionFn>(selection: F, cfg: &ConsensusConfig) -> ConsensusRun {
    assert!(cfg.proposers >= 1, "consensus needs at least one proposer");
    let tree = ConcurrentBlockTree::new(selection, AcceptAll);
    // An explicit zero/negative rate is honored, not clamped: it drives
    // the decide path's wedge diagnostic (propose panics after its stall
    // limit), which is exactly what such a config is for.
    let rate = cfg.rate.unwrap_or(0.8 * cfg.proposers as f64);
    let oracle = SharedOracle::new(ThetaOracle::frugal(
        1,
        Merits::uniform(cfg.proposers),
        rate,
        cfg.seed,
    ));
    let clock = AtomicU64::new(0);
    let barrier = YieldBarrier::new(cfg.proposers + cfg.readers);
    // The per-round instances, append-only and indexed by round number.
    // Proposer 0 pushes round r's instance *before* arriving at round
    // r's barrier, so by the time the barrier releases anyone into round
    // r the slot exists — and because installs never overwrite an
    // earlier slot, a straggler released from the barrier late (not yet
    // holding its read guard) still indexes its own round's instance,
    // never a newer one. One barrier per round, not two: with 10 threads
    // on a time-sliced core a second barrier's context-switch volley was
    // a large fixed tax on every decision. The inter-round instants stay
    // quiescent — every thread must arrive (finish its round) before any
    // next-round operation is invoked.
    let instances: std::sync::RwLock<Vec<TreeConsensus<'_, F, AcceptAll>>> =
        std::sync::RwLock::new(Vec::with_capacity(cfg.rounds));

    let tick = |clock: &AtomicU64| Time(clock.fetch_add(1, Ordering::AcqRel) + 1);

    type ProposerLog = (Vec<LoggedOp>, Vec<btadt_registers::ProposeOutcome>);
    let mut proposer_logs: Vec<ProposerLog> = Vec::new();
    let mut reader_logs: Vec<Vec<LoggedOp>> = Vec::new();
    let threads_started = std::time::Instant::now();
    std::thread::scope(|s| {
        let mut proposers = Vec::new();
        let mut readers = Vec::new();
        for p in 0..cfg.proposers {
            let (tree, oracle, clock, barrier, instances) =
                (&tree, &oracle, &clock, &barrier, &instances);
            let cfg = cfg.clone();
            proposers.push(s.spawn(move || {
                let me = ProcessId(p as u32);
                let mut log: Vec<LoggedOp> = Vec::new();
                let mut outcomes = Vec::new();
                let mut anchor = BlockId::GENESIS;
                for round in 0..cfg.rounds {
                    if p == 0 {
                        // The push waits out any straggler still holding
                        // a read guard on an earlier round's propose.
                        instances
                            .write()
                            .expect("slot lock")
                            .push(TreeConsensus::new(tree, oracle, anchor));
                    }
                    barrier.wait();
                    let nonce = ((p as u64) << 40) | round as u64;
                    let work = 1 + splitmix64_at(cfg.seed ^ ((p as u64) << 16), round as u64) % 4;
                    let cand = CandidateBlock::simple(me, nonce).with_work(work);
                    let guard = instances.read().expect("slot lock");
                    let cons = &guard[round];
                    let t0 = tick(clock);
                    let out = cons.propose(p, cand).expect("volatile trees cannot poison");
                    let t1 = tick(clock);
                    drop(guard);
                    log.push((
                        me,
                        Invocation::Propose { nonce },
                        t0,
                        Response::Decided {
                            block: out.decided,
                            grafted: out.grafted,
                        },
                        t1,
                    ));
                    outcomes.push(out);
                    if p == 0 {
                        // Only the installer's local decision picks the
                        // next anchor; Agreement (checked by the reports)
                        // makes it everyone's decision.
                        anchor = out.decided;
                    }
                }
                (log, outcomes)
            }));
        }
        for r in 0..cfg.readers {
            let (tree, clock, barrier) = (&tree, &clock, &barrier);
            let cfg = cfg.clone();
            readers.push(s.spawn(move || {
                let me = ProcessId((cfg.proposers + r) as u32);
                let mut log: Vec<LoggedOp> = Vec::new();
                for round in 0..cfg.rounds {
                    barrier.wait();
                    for i in 0..cfg.reads_per_round {
                        let step = (round * cfg.reads_per_round + i) as u64;
                        // Seeded pacing: occasionally yield so reads land
                        // in different phases of the decide path. ~1/8 of
                        // reads (not 1/3 as in the append workload): the
                        // consensus rounds are short, and every reader
                        // yield costs a full rotation through the barrier
                        // spinners on a time-sliced core — at 1/3 the
                        // pacing tax, not the decide path, dominated the
                        // contended bench rows.
                        if splitmix64_at(cfg.seed ^ 0xC05EAD, ((r as u64) << 24) | step)
                            .is_multiple_of(8)
                        {
                            std::thread::yield_now();
                        }
                        let t0 = tick(clock);
                        let chain = tree.read_owned();
                        let t1 = tick(clock);
                        log.push((me, Invocation::Read, t0, Response::Chain(chain), t1));
                    }
                }
                log
            }));
        }
        for h in proposers {
            proposer_logs.push(h.join().expect("proposer threads do not panic"));
        }
        for h in readers {
            reader_logs.push(h.join().expect("reader threads do not panic"));
        }
    });
    let threads_wall = threads_started.elapsed();

    // Per-round Def. 4.1 reports, proposer order inside each round.
    let mut reports = Vec::with_capacity(cfg.rounds);
    let mut decisions = Vec::with_capacity(cfg.rounds);
    let mut anchor = BlockId::GENESIS;
    for round in 0..cfg.rounds {
        let outcomes: Vec<_> = proposer_logs.iter().map(|(_, o)| o[round]).collect();
        let report = TreeConsensusReport::from_outcomes(anchor, &outcomes);
        if let Some(d) = report.decided() {
            anchor = d;
            decisions.push(d);
        }
        reports.push(report);
    }

    let mut merged: Vec<LoggedOp> = proposer_logs
        .into_iter()
        .flat_map(|(log, _)| log)
        .chain(reader_logs.into_iter().flatten())
        .collect();
    merged.sort_by_key(|(_, _, t0, _, _)| *t0);
    let mut history = History::new();
    for (p, inv, t0, resp, t1) in merged {
        history.push_complete(p, inv, t0, resp, t1);
    }

    ConsensusRun {
        store: tree.snapshot_store(),
        commit_log: tree.commit_log(),
        final_chain: tree.read_owned(),
        history,
        reports,
        decisions,
        fork_coherent: oracle.fork_coherent(),
        threads_wall,
        pipeline: tree.pipeline_stats(),
    }
}
