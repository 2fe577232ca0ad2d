//! Recorded-history checking of real concurrent executions.
//!
//! `run_concurrent_workload` races OS threads on a `ConcurrentBlockTree`
//! and records a timestamped `History`; these tests hand that record to
//! the *external* checkers — the Wing–Gong linearizability search, the
//! windowed variant, and the Local Monotonic Read criterion — so the
//! implementation is judged by its evidence, never by its own assertions.
//!
//! Thread interleavings vary run to run; the seeds fix the workload
//! shape, and the asserted properties must hold for *every* interleaving,
//! which is what makes these tests deterministic in outcome.

use btadt_core::criteria::local_monotonic_read;
use btadt_core::history::Response;
use btadt_core::linearizability::{
    check_linearizable, check_linearizable_windowed, Linearizability, DEFAULT_OP_LIMIT,
};
use btadt_core::score::{LengthScore, WorkScore};
use btadt_core::selection::{HeaviestWork, LongestChain};
use btadt_sim::mtrun::{run_concurrent_workload, MtConfig};

/// ≤ DEFAULT_OP_LIMIT operations: 2 appenders × 3 + 2 readers × 4 = 14.
fn small_cfg(seed: u64) -> MtConfig {
    MtConfig {
        seed,
        appenders: 2,
        readers: 2,
        appends_per_round: 3,
        reads_per_round: 4,
        rounds: 1,
        mine: false,
        frugal_k: None,
    }
}

#[test]
fn recorded_histories_linearize_across_20_seeds_longest_chain() {
    for seed in 0..20u64 {
        let run = run_concurrent_workload(LongestChain, &small_cfg(seed));
        assert!(
            run.history.validate().is_empty(),
            "seed {seed}: recorded history is well-formed"
        );
        assert!(run.history.len() <= DEFAULT_OP_LIMIT);
        let r = check_linearizable(&run.history, &run.store, &LongestChain);
        assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "seed {seed}: {r:?}"
        );
    }
}

/// The uncontended commit path (one appender: every publication its
/// own) must be indistinguishable from the contended one in the recorded
/// evidence — same checker, same verdict, across seeds and with readers
/// racing the publications.
#[test]
fn inline_fast_path_histories_linearize_across_seeds() {
    for seed in 600..612u64 {
        let cfg = MtConfig {
            seed,
            appenders: 1,
            readers: 3,
            appends_per_round: 4,
            reads_per_round: 3,
            rounds: 1,
            mine: false,
            frugal_k: None,
        };
        let run = run_concurrent_workload(LongestChain, &cfg);
        assert_eq!(run.appended, 4, "seed {seed}");
        let r = check_linearizable(&run.history, &run.store, &LongestChain);
        assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "seed {seed}: {r:?}"
        );
    }
}

#[test]
fn recorded_histories_linearize_under_heaviest_work() {
    for seed in 100..106u64 {
        let run = run_concurrent_workload(HeaviestWork, &small_cfg(seed));
        let r = check_linearizable(&run.history, &run.store, &HeaviestWork);
        assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "seed {seed}: {r:?}"
        );
    }
}

#[test]
fn recorded_histories_linearize_with_oracle_mining() {
    for seed in 200..205u64 {
        let mut cfg = small_cfg(seed);
        cfg.mine = true;
        let run = run_concurrent_workload(LongestChain, &cfg);
        let r = check_linearizable(&run.history, &run.store, &LongestChain);
        assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "seed {seed}: {r:?}"
        );
    }
}

/// A multi-round run is far past the exhaustive cap, but the barrier
/// between rounds guarantees quiescent points: the windowed checker (and
/// the `split_at_quiescence` helper it mirrors) handles the whole record.
#[test]
fn long_runs_check_via_quiescent_windows() {
    for seed in 300..305u64 {
        let cfg = MtConfig {
            seed,
            appenders: 2,
            readers: 2,
            appends_per_round: 3,
            reads_per_round: 4,
            rounds: 6,
            mine: false,
            frugal_k: None,
        };
        let run = run_concurrent_workload(LongestChain, &cfg);
        assert_eq!(run.history.len(), 6 * 14);
        match check_linearizable(&run.history, &run.store, &LongestChain) {
            Linearizability::TooLarge { ops: 84, .. } => {}
            other => panic!("seed {seed}: expected TooLarge, got {other:?}"),
        }
        let r =
            check_linearizable_windowed(&run.history, &run.store, &LongestChain, DEFAULT_OP_LIMIT);
        assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "seed {seed}: {r:?}"
        );
        // The splitting helper finds the same structure: every window fits
        // the cap, nothing is lost. (Quiescent points also occur inside
        // rounds, so the greedy merge may pack across round boundaries —
        // only the lower bound from the cap is guaranteed.)
        let windows = run.history.split_at_quiescence(DEFAULT_OP_LIMIT);
        assert!(windows.len() >= run.history.len().div_ceil(DEFAULT_OP_LIMIT));
        assert_eq!(
            windows.iter().map(|w| w.len()).sum::<usize>(),
            run.history.len()
        );
        assert!(windows.iter().all(|w| w.len() <= DEFAULT_OP_LIMIT));
    }
}

/// Seeded reader-thread stress: every per-thread read sequence must
/// satisfy Local Monotonic Read (Def. 3.2, second clause) under the score
/// matching the selection rule — lengths never shrink under longest-chain,
/// cumulative work never shrinks under heaviest-work.
#[test]
fn reader_stress_satisfies_local_monotonic_read() {
    for seed in 400..408u64 {
        let cfg = MtConfig {
            seed,
            appenders: 3,
            readers: 4,
            appends_per_round: 40,
            reads_per_round: 60,
            rounds: 2,
            mine: false,
            frugal_k: None,
        };
        let run = run_concurrent_workload(LongestChain, &cfg);
        let verdict = local_monotonic_read::check(&run.history, &LengthScore);
        assert!(
            verdict.holds,
            "seed {seed}: LMR violated under longest-chain: {:?}",
            verdict.violations
        );

        let run = run_concurrent_workload(HeaviestWork, &cfg);
        let verdict = local_monotonic_read::check(&run.history, &WorkScore::new(&run.store));
        assert!(
            verdict.holds,
            "seed {seed}: LMR violated under heaviest-work: {:?}",
            verdict.violations
        );
    }
}

/// Cross-checks the run artifacts themselves: every successful append in
/// the history is committed exactly once, and the final published chain
/// contains exactly the longest-chain commits.
#[test]
fn run_artifacts_are_coherent() {
    let cfg = MtConfig {
        seed: 7,
        appenders: 4,
        readers: 2,
        appends_per_round: 25,
        reads_per_round: 10,
        rounds: 1,
        mine: false,
        frugal_k: None,
    };
    let run = run_concurrent_workload(LongestChain, &cfg);
    assert_eq!(run.appended, 100);
    assert_eq!(run.commit_log.len(), 100);
    assert_eq!(run.fork_coherent, None, "no oracle gated this run");
    // Longest-chain `append` always extends the tip: the final chain holds
    // every committed block.
    assert_eq!(run.final_chain.len(), 101);
    // Every append the history reports successful is in the commit log.
    let committed: std::collections::HashSet<_> = run.commit_log.iter().copied().collect();
    for op in run.history.appends() {
        if matches!(op.response, Some(Response::Appended(true))) {
            if let btadt_core::history::Invocation::Append { block } = op.invocation {
                assert!(committed.contains(&block));
            }
        }
    }
}

/// The frugal Θ_F,k=1 gate (Protocol-A shape): tokens bound to parents,
/// consumeToken feedback steering losing appenders onto the winners. With
/// k = 1 every committed parent admits exactly one committed child, so
/// the membership must be a single path — and the recorded history must
/// still linearize against the BT-ADT spec.
#[test]
fn frugal_token_gate_smoke() {
    for seed in 500..505u64 {
        let cfg = MtConfig {
            seed,
            frugal_k: Some(1),
            ..small_cfg(seed)
        };
        let run = run_concurrent_workload(LongestChain, &cfg);
        assert_eq!(run.appended, 6, "seed {seed}: every frugal append lands");
        assert_eq!(
            run.fork_coherent,
            Some(true),
            "seed {seed}: Thm 3.2 k-fork coherence holds on the shared oracle"
        );
        // k = 1 ⇒ the committed membership is a path: the final chain
        // carries every commit.
        assert_eq!(run.final_chain.len(), run.commit_log.len() + 1);
        let committed: std::collections::HashSet<_> = run.commit_log.iter().copied().collect();
        for &id in &run.commit_log {
            let parent = run.store.parent(id).expect("committed blocks chain to b0");
            let member_children = run
                .store
                .children(parent)
                .iter()
                .filter(|c| committed.contains(c))
                .count();
            assert!(
                member_children <= 1,
                "seed {seed}: K-bound violated at {parent}"
            );
        }
        let r = check_linearizable(&run.history, &run.store, &LongestChain);
        assert!(
            matches!(r, Linearizability::Linearizable(_)),
            "seed {seed}: {r:?}"
        );
    }
}

/// Fork-heavy GHOST stress for the two-stage commit pipeline: 4 appenders
/// extending the selected tip race 2 forkers grafting at random depths of
/// the published chain, so commits regularly land off the selected chain
/// and GHOST's incremental `on_insert` carries real reorg pressure. The oracle is the replay: the commit log
/// folded serially through the sequential machinery must land on the
/// published chain bit-for-bit, and the published tip must equal the
/// full-scan selection.
#[test]
fn fork_heavy_ghost_four_appender_stress() {
    use btadt_core::blocktree::CandidateBlock;
    use btadt_core::chain::Blockchain;
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::ids::{splitmix64_at, ProcessId};
    use btadt_core::selection::{Ghost, GhostWeight, SelectionFn};
    use btadt_core::store::TreeMembership;
    use btadt_core::tipcache::ChainCache;
    use btadt_core::validity::AcceptAll;

    let appenders = 4u32;
    let appends_each = 50u64;
    let forkers = 2u32;
    let grafts_each = 30u64;
    for seed in 0..6u64 {
        let rule = Ghost {
            weight: GhostWeight::BlockCount,
        };
        let cbt = ConcurrentBlockTree::new(rule, AcceptAll);
        std::thread::scope(|s| {
            for t in 0..appenders {
                let cbt = &cbt;
                s.spawn(move || {
                    for i in 0..appends_each {
                        let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                        let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                            .with_work(1 + r % 4);
                        cbt.append(cand).expect("AcceptAll");
                    }
                });
            }
            for t in appenders..appenders + forkers {
                let cbt = &cbt;
                s.spawn(move || {
                    for i in 0..grafts_each {
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

        let total = (appenders as u64 * appends_each + forkers as u64 * grafts_each) as usize;
        let store = cbt.snapshot_store();
        let log = cbt.commit_log();
        assert_eq!(log.len(), total, "seed {seed}: every commit recorded");
        assert_eq!(
            cbt.selected_tip(),
            cbt.selected_tip_full_scan(),
            "seed {seed}: published tip vs full-scan oracle"
        );

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
            cache.chain(),
            Blockchain::from_tip(&store, cbt.selected_tip()),
            "seed {seed}: sequential replay chain ≠ published chain"
        );
    }
}
