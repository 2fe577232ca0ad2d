//! Concurrency stress tests for the §4.1 objects: high-thread contention,
//! repeated trials, and cross-object consistency under load.

use btadt_core::ids::BlockId;
use btadt_oracle::{Merits, SharedOracle, ThetaOracle};
use btadt_registers::{
    run_trial, AtomicSnapshot, CasFromCt, CasRegister, Consensus, ConsumeTokenCell,
    OracleConsensus, ProdigalCtCell, EMPTY,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn ct_cell_many_threads_many_trials() {
    for trial in 0..40u64 {
        let cell = Arc::new(ConsumeTokenCell::new());
        let decisions: Vec<u64> = std::thread::scope(|s| {
            (1..=16u64)
                .map(|v| {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || cell.consume_token(v + trial * 100))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let winner = cell.get();
        assert!(decisions.iter().all(|&d| d == winner), "trial {trial}");
    }
}

#[test]
fn cas_from_ct_composes_into_long_chains_of_agreement() {
    // An array of one-shot cells decided in sequence by racing threads:
    // every cell must end agreed, and all threads must observe identical
    // arrays (a mini ledger built from Fig. 10 objects).
    const CELLS: usize = 32;
    let cells: Arc<Vec<CasFromCt>> = Arc::new((0..CELLS).map(|_| CasFromCt::new()).collect());
    let views: Vec<Vec<u64>> = std::thread::scope(|s| {
        (1..=8u64)
            .map(|me| {
                let cells = Arc::clone(&cells);
                s.spawn(move || {
                    let mut view = Vec::with_capacity(CELLS);
                    for (i, cell) in cells.iter().enumerate() {
                        let propose = me * 1_000 + i as u64 + 1;
                        let prev = cell.compare_and_swap_from_empty(propose);
                        view.push(if prev == EMPTY { propose } else { prev });
                    }
                    view
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for w in views.windows(2) {
        assert_eq!(w[0], w[1], "all threads agree on the whole ledger");
    }
}

#[test]
fn protocol_a_hammered_with_many_seeds() {
    for seed in 0..25u64 {
        let n = 8;
        let oracle = ThetaOracle::frugal(1, Merits::uniform(n), n as f64 * 0.7, seed);
        let consensus = OracleConsensus::new(SharedOracle::new(oracle));
        let report = run_trial(&consensus, n);
        assert!(report.agreement(), "seed {seed}: {:?}", report.decisions);
        assert!(report.validity(), "seed {seed}");
    }
}

#[test]
fn consensus_objects_are_single_use_and_sticky() {
    // Late proposers arriving long after the decision still adopt it, and
    // repeated proposals by the same process are idempotent in outcome.
    let c = OracleConsensus::new(SharedOracle::new(ThetaOracle::frugal(
        1,
        Merits::uniform(4),
        3.0,
        77,
    )));
    let first = c.propose(0, 5);
    for round in 0..10 {
        let again = c.propose((round % 4) as usize, 90 + round);
        assert_eq!(again, first, "decision is permanent");
    }
}

#[test]
fn snapshot_heavy_mixed_load_stays_linearizable() {
    let n = 6;
    let snap = Arc::new(AtomicSnapshot::new(n, 0u64));
    let torn = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..n {
            let snap = Arc::clone(&snap);
            s.spawn(move || {
                for i in 1..=300u64 {
                    snap.update(w, i * (w as u64 + 1));
                }
            });
        }
        for _ in 0..3 {
            let snap = Arc::clone(&snap);
            let torn = Arc::clone(&torn);
            s.spawn(move || {
                let mut last: Option<Vec<u64>> = None;
                for _ in 0..300 {
                    let (_, seqs) = snap.scan_with_seqs();
                    if let Some(prev) = &last {
                        // Per-scanner monotonicity: seqs never regress.
                        if prev.iter().zip(&seqs).any(|(a, b)| a > b) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    last = Some(seqs);
                }
            });
        }
    });
    assert_eq!(torn.load(Ordering::Relaxed), 0, "no regressing scans");
}

#[test]
fn prodigal_cell_under_full_contention_loses_nothing() {
    for trial in 0..10u64 {
        let n = 12;
        let cell = Arc::new(ProdigalCtCell::new(n));
        std::thread::scope(|s| {
            for m in 0..n {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    cell.consume_token(m, (m as u64 + 1) * 7 + trial);
                });
            }
        });
        assert_eq!(cell.get().len(), n, "trial {trial}: every token lands");
    }
}

#[test]
fn cas_register_general_cas_chain() {
    // Threads cooperatively increment through CAS retry loops: the final
    // value equals the number of increments (atomicity under contention).
    let cell = Arc::new(CasRegister::new(1));
    let per_thread = 200u64;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            s.spawn(move || {
                for _ in 0..per_thread {
                    loop {
                        let cur = cell.read();
                        if cell.compare_and_swap(cur, cur + 1) == cur {
                            break;
                        }
                    }
                }
            });
        }
    });
    assert_eq!(cell.read(), 1 + 4 * per_thread);
}

#[test]
fn mixed_oracle_and_cells_share_one_truth() {
    // The shared oracle's K[b0] and a mirror CT cell decided by the same
    // winners agree across a contended run.
    let oracle = Arc::new(SharedOracle::new(ThetaOracle::frugal(
        1,
        Merits::uniform(6),
        5.0,
        123,
    )));
    let mirror = Arc::new(ConsumeTokenCell::new());
    std::thread::scope(|s| {
        for who in 0..6usize {
            let oracle = Arc::clone(&oracle);
            let mirror = Arc::clone(&mirror);
            s.spawn(move || {
                for _ in 0..10_000 {
                    if let Some(g) = oracle.get_token(who, BlockId::GENESIS) {
                        let block = BlockId(who as u32 + 1);
                        let set = oracle.consume_token(&g, block);
                        // Mirror the oracle's winner into the plain cell.
                        mirror.consume_token(set[0].0 as u64);
                        return;
                    }
                }
            });
        }
    });
    let k = oracle.consumed_for(BlockId::GENESIS);
    assert_eq!(k.len(), 1);
    assert_eq!(mirror.get(), k[0].0 as u64, "cell mirrors the oracle");
}

/// A two-party round barrier that fails instead of hanging when the
/// other party panicked (a plain `Barrier` would wedge the survivor).
struct RoundBarrier {
    arrived: AtomicU64,
    round: AtomicU64,
    abandoned: std::sync::atomic::AtomicBool,
}

/// Marks the barrier abandoned if its thread unwinds.
struct AbandonOnPanic<'a>(&'a RoundBarrier);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abandoned.store(true, Ordering::SeqCst);
        }
    }
}

impl RoundBarrier {
    fn new() -> Self {
        RoundBarrier {
            arrived: AtomicU64::new(0),
            round: AtomicU64::new(0),
            abandoned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let round = self.round.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) == 1 {
            self.arrived.store(0, Ordering::SeqCst);
            self.round.fetch_add(1, Ordering::SeqCst);
            return;
        }
        while self.round.load(Ordering::SeqCst) == round {
            assert!(
                !self.abandoned.load(Ordering::SeqCst),
                "the other proposer panicked"
            );
            std::thread::yield_now();
        }
    }
}

/// Chained Protocol A rounds anchored straight at the previous decision:
/// as soon as `propose` returns, proposer 0 builds the next round's
/// `TreeConsensus::new` on the decided block — no waiting in between —
/// and proposer 1 checks `is_committed` on it. A losing proposer returns
/// once `read()` shows the decision, so `is_committed` must say yes from
/// that moment on, not only once the publication cursor behind the
/// pointer swap has moved (the window is a few instructions wide, hence
/// the long run in release builds).
#[test]
fn chained_rounds_anchor_on_the_previous_decision_without_waiting() {
    use btadt_core::blocktree::CandidateBlock;
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::ids::ProcessId;
    use btadt_core::selection::LongestChain;
    use btadt_core::validity::AcceptAll;
    use btadt_registers::TreeConsensus;
    use std::sync::OnceLock;

    // Debug builds cross-check every commit against a full scan, so they
    // run a shorter chain.
    let rounds: usize = if cfg!(debug_assertions) {
        2_000
    } else {
        50_000
    };
    let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
    let oracle = SharedOracle::new(ThetaOracle::frugal(1, Merits::uniform(2), 1.6, 0xA9C4));
    let slots: Vec<OnceLock<TreeConsensus<'_, _, _>>> =
        (0..rounds).map(|_| OnceLock::new()).collect();
    let _ = slots[0].set(TreeConsensus::new(&tree, &oracle, BlockId::GENESIS));
    let barrier = RoundBarrier::new();
    let decisions: Vec<Vec<BlockId>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|p| {
                let (tree, oracle, slots, barrier) = (&tree, &oracle, &slots, &barrier);
                s.spawn(move || {
                    let _abandon = AbandonOnPanic(barrier);
                    let mut decided = Vec::with_capacity(rounds);
                    for r in 0..rounds {
                        barrier.wait();
                        let cand = CandidateBlock::simple(ProcessId(p as u32), r as u64);
                        let out = slots[r]
                            .get()
                            .expect("installed before the barrier")
                            .propose(p, cand)
                            .expect("volatile trees cannot poison");
                        if p == 0 && r + 1 < rounds {
                            let _ = slots[r + 1].set(TreeConsensus::new(tree, oracle, out.decided));
                        } else {
                            assert!(
                                tree.is_committed(out.decided),
                                "round {r}: decided ∈ membership"
                            );
                        }
                        decided.push(out.decided);
                        barrier.wait();
                    }
                    decided
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(decisions[0], decisions[1], "agreement in every round");
    assert_eq!(
        tree.commit_log(),
        decisions[0],
        "membership is the decided path"
    );
}
