//! Experiment drivers regenerating every figure and table of
//! *Blockchain Abstract Data Type* as text output (see EXPERIMENTS.md for
//! the recorded results). Each `fig*`/`table*` function prints one
//! artifact; the `experiments` binary dispatches on names.

use btadt_core::adt::{check_sequential_history, AbstractDataType, Operation};
use btadt_core::blocktree::{BlockTreeAdt, BtInput, BtOutput, CandidateBlock};
use btadt_core::chain::Blockchain;
use btadt_core::criteria::{
    check_eventual_consistency, check_strong_consistency, ConsistencyParams, LivenessMode,
};
use btadt_core::hierarchy::{figure8_edges, figure_nodes};
use btadt_core::history::{History, Invocation, Response};
use btadt_core::ids::{BlockId, ProcessId, Time};
use btadt_core::score::LengthScore;
use btadt_core::selection::LongestChain;
use btadt_core::store::BlockStore;
use btadt_core::validity::{AcceptAll, DigestPrefix};
use btadt_oracle::{
    run_workload, KBound, Merits, RefinedBlockTree, SharedOracle, ThetaOracle, WorkloadConfig,
};
use btadt_registers::adversary::{divergent_schedule, PickRule};
use btadt_registers::{
    run_trial, CasFromCt, CasRegister, ConsumeTokenCell, OracleConsensus, ProdigalCtCell, EMPTY,
};
use btadt_sim::{
    check_lrc, check_update_agreement, lemma_4_4, lemma_4_5, theorem_4_8, update_agreement_positive,
};
use std::time::Instant;

const SEED: u64 = 0xB10C;

fn hr(title: &str) {
    println!("\n──────────────────────────────────────────────────────────────");
    println!("{title}");
    println!("──────────────────────────────────────────────────────────────");
}

/// Fig. 1 — a path of the BT-ADT transition system.
pub fn fig1() {
    hr("Figure 1 — BT-ADT transition system path (Def. 3.1)");
    let adt = BlockTreeAdt::new(LongestChain, DigestPrefix { zero_bits: 1 });
    // Digests commit to ancestry, so candidate validity depends on the
    // state a block is appended in: probe each step against the *current*
    // state while building the path.
    let probe = |state: &<BlockTreeAdt<LongestChain, DigestPrefix> as AbstractDataType>::State,
                 want: bool| {
        (0..256u64)
            .find(|&nonce| {
                let cand = CandidateBlock::simple(ProcessId(0), nonce);
                adt.output(state, &BtInput::Append(cand)) == BtOutput::Appended(want)
            })
            .expect("a 1-bit digest condition flips within 256 nonces")
    };
    let s0 = adt.initial_state();
    let b1 = probe(&s0, true);
    let s1 = adt.transition(
        &s0,
        &BtInput::Append(CandidateBlock::simple(ProcessId(0), b1)),
    );
    // Both the failing and the second successful append execute in ξ1.
    let b3 = probe(&s1, false);
    let b2 = probe(&s1, true);
    let word = vec![
        Operation::with_output(
            BtInput::Append(CandidateBlock::simple(ProcessId(0), b1)),
            BtOutput::Appended(true),
        ),
        Operation::with_output(
            BtInput::Append(CandidateBlock::simple(ProcessId(0), b3)),
            BtOutput::Appended(false),
        ),
        Operation::input_only(BtInput::Read),
        Operation::with_output(
            BtInput::Append(CandidateBlock::simple(ProcessId(0), b2)),
            BtOutput::Appended(true),
        ),
        Operation::input_only(BtInput::Read),
    ];
    let states = check_sequential_history(&adt, &word).expect("path is in L(T)");
    let labels = [
        format!("append(b1)/true   (nonce {b1}, b1 ∈ B')"),
        format!("append(b3)/false  (nonce {b3}, b3 ∉ B')"),
        "read()/b0⌢b1".to_string(),
        format!("append(b2)/true   (nonce {b2}, b2 ∈ B')"),
        "read()/b0⌢b1⌢b2".to_string(),
    ];
    for (i, label) in labels.iter().enumerate() {
        println!(
            "ξ{i} (|bt| = {}) ── {label} ──▶ ξ{} (|bt| = {})",
            states[i].tree().len(),
            i + 1,
            states[i + 1].tree().len()
        );
    }
    println!("\nword ∈ L(BT-ADT): ✓  (replayed by check_sequential_history)");
}

fn render_reads(history: &History, cut: Time) {
    println!(
        "{:<6} {:<5} {:>10} {:>7}  chain",
        "op", "proc", "responded", "score"
    );
    for v in history.read_views(&LengthScore) {
        let marker = if v.responded_at <= cut { " " } else { "*" };
        let chain = format!("{}", v.chain);
        let chain: String = if chain.chars().count() > 42 {
            let tail: String = chain
                .chars()
                .rev()
                .take(41)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            format!("…{tail}")
        } else {
            chain
        };
        println!(
            "{:<6} {:<5} {:>10} {:>7}{marker} {chain}",
            format!("{:?}", v.op),
            format!("{}", v.process),
            format!("{}", v.responded_at),
            v.score
        );
    }
    println!("(* = after the convergence cut {cut})");
}

/// Fig. 2 — a concurrent history satisfying BT Strong Consistency.
pub fn fig2() {
    hr("Figure 2 — SC-admissible history (Θ_F,k=1 workload)");
    let oracle = ThetaOracle::frugal(1, Merits::uniform(2), 2.0, SEED);
    let out = run_workload(
        oracle,
        &WorkloadConfig {
            processes: 2,
            steps: 60,
            append_prob: 0.4,
            read_prob: 0.3,
            max_latency: 4,
            seed: SEED,
        },
    );
    render_reads(&out.history, out.suggested_cut);
    let params = ConsistencyParams {
        store: &out.store,
        predicate: &AcceptAll,
        score: &LengthScore,
        liveness: LivenessMode::ConvergenceCut(out.suggested_cut),
    };
    println!("\n{}", check_strong_consistency(&out.history, &params));
}

/// The paper's literal Fig. 3 / Fig. 4 histories.
fn paper_history(converging: bool) -> (BlockStore, History) {
    use btadt_core::block::Payload;
    let mut store = BlockStore::new();
    // odd branch 1-3-5, even branch 2-4-6 (the paper's vertex labels).
    let mut odd = vec![BlockId::GENESIS];
    let mut even = vec![BlockId::GENESIS];
    for i in 0..3 {
        odd.push(store.mint(
            *odd.last().unwrap(),
            ProcessId(1),
            1,
            1,
            100 + i,
            Payload::Empty,
        ));
        even.push(store.mint(
            *even.last().unwrap(),
            ProcessId(0),
            0,
            1,
            200 + i,
            Payload::Empty,
        ));
    }
    let mut h = History::new();
    let mut t = 0u64;
    for i in 1..=3 {
        for &b in &[odd[i], even[i]] {
            t += 2;
            h.push_complete(
                ProcessId(9),
                Invocation::Append { block: b },
                Time(t - 1),
                Response::Appended(true),
                Time(t),
            );
        }
    }
    let read = |h: &mut History, p: u32, t0: u64, ids: &[BlockId], n: usize| {
        h.push_complete(
            ProcessId(p),
            Invocation::Read,
            Time(t0),
            Response::Chain(Blockchain::from_ids(ids[..n].to_vec())),
            Time(t0 + 1),
        );
    };
    // Early divergence (as drawn: i on the even branch, j on the odd).
    read(&mut h, 0, 20, &even, 3); // b0⌢2⌢4
    read(&mut h, 1, 22, &odd, 2); // b0⌢1
    read(&mut h, 1, 24, &odd, 3); // b0⌢1⌢3
    if converging {
        // Fig. 3: everybody adopts the odd branch.
        read(&mut h, 0, 40, &odd, 4);
        read(&mut h, 1, 42, &odd, 4);
    } else {
        // Fig. 4: the branches never merge.
        read(&mut h, 0, 40, &even, 4);
        read(&mut h, 1, 42, &odd, 4);
    }
    (store, h)
}

/// Fig. 3 — the paper's EC-but-not-SC history.
pub fn fig3() {
    hr("Figure 3 — Eventual-but-not-Strong history (paper's drawing)");
    let (store, h) = paper_history(true);
    let cut = Time(30);
    render_reads(&h, cut);
    let params = ConsistencyParams {
        store: &store,
        predicate: &AcceptAll,
        score: &LengthScore,
        liveness: LivenessMode::ConvergenceCut(cut),
    };
    println!("\n{}", check_strong_consistency(&h, &params));
    println!("{}", check_eventual_consistency(&h, &params));
}

/// Fig. 4 — the paper's history violating both criteria.
pub fn fig4() {
    hr("Figure 4 — history violating every BT consistency criterion");
    let (store, h) = paper_history(false);
    let cut = Time(30);
    render_reads(&h, cut);
    let params = ConsistencyParams {
        store: &store,
        predicate: &AcceptAll,
        score: &LengthScore,
        liveness: LivenessMode::ConvergenceCut(cut),
    };
    println!("\n{}", check_strong_consistency(&h, &params));
    println!("{}", check_eventual_consistency(&h, &params));
}

/// Fig. 5 — the Θ_F abstract state.
pub fn fig5() {
    hr("Figure 5 — Θ_F abstract state (tapes + K array)");
    let merits = Merits::from_weights(vec![3.0, 1.0]);
    let mut oracle = ThetaOracle::frugal(2, merits, 1.2, SEED);
    let mut grants = Vec::new();
    for attempt in 0..8 {
        let who = attempt % 2;
        if let Some(g) = oracle.get_token(who, BlockId::GENESIS) {
            grants.push(g);
        }
    }
    for (i, g) in grants.iter().take(3).enumerate() {
        oracle.consume_token(g, BlockId(i as u32 + 1));
    }
    println!("merits: α_0 = 0.75 (p = 0.90), α_1 = 0.25 (p = 0.30), k = 2\n");
    for i in 0..2usize {
        let tape = btadt_oracle::Tape::new(
            btadt_core::ids::mix2(SEED, i as u64),
            oracle.merits().token_probability(i, oracle.rate()),
        );
        let cells: String = (0..16)
            .map(|j| {
                if tape.cell_at(j).is_token() {
                    "tkn "
                } else {
                    " ⊥  "
                }
            })
            .collect();
        println!(
            "tape_α{i} (consumed {:>2} cells): {cells}…",
            oracle.attempts(i)
        );
    }
    println!("\nK array:");
    let mut degrees: Vec<_> = oracle.fork_degrees().collect();
    degrees.sort();
    for (parent, deg) in degrees {
        println!(
            "  K[{parent}] = {:?} (|K| = {deg} ≤ k = 2)",
            oracle.consumed_for(parent)
        );
    }
    println!("\nk-fork coherent (Thm 3.2): {}", oracle.fork_coherent());
}

/// Fig. 6 — a path of the Θ transition system.
pub fn fig6() {
    hr("Figure 6 — Θ_F/Θ_P transition path (getToken / consumeToken)");
    let mut oracle = ThetaOracle::frugal(1, Merits::uniform(1), 1.0, 7);
    println!("ξ0: K[b0] = {{}}, tape head = tkn (p = 1)");
    let g = oracle.get_token(0, BlockId::GENESIS).expect("p = 1");
    println!(
        "ξ0 ── getToken(b0, b_k)/b_k^tkn (serial {}) ──▶ ξ1 (tape popped)",
        g.serial
    );
    let set = oracle.consume_token(&g, BlockId(1));
    println!(
        "ξ1 ── consumeToken(b_k^tkn)/{{{}}} ──▶ ξ2 (K[b0] = {set:?})",
        set[0]
    );
    let g2 = oracle.get_token(0, BlockId::GENESIS).expect("p = 1");
    let set2 = oracle.consume_token(&g2, BlockId(2));
    println!("ξ2 ── consumeToken(second token)/{set2:?} ──▶ ξ2 (|K[b0]| = k = 1: unchanged)");
}

/// Fig. 7 — the refined append path.
pub fn fig7() {
    hr("Figure 7 — refinement of append() (Def. 3.7)");
    let oracle = ThetaOracle::frugal(1, Merits::uniform(1), 0.4, 3);
    let mut tree = RefinedBlockTree::new(LongestChain, AcceptAll, oracle);
    println!("state: bt = {{b0}}, K[b0] = {{}}");
    let out = tree.append(ProcessId(0), btadt_core::block::Payload::Empty);
    println!(
        "append(b): getToken* looped {} tape cells, then consumeToken — {out:?}",
        tree.oracle().attempts(0)
    );
    println!("read() = {}", tree.read(ProcessId(0)));
    println!(
        "K[b0]  = {:?}",
        tree.oracle().consumed_for(BlockId::GENESIS)
    );
}

/// Fig. 8 — the hierarchy with empirical inclusion sampling.
pub fn fig8() {
    hr("Figure 8 — hierarchy of refinements R(BT-ADT, Θ)");
    for node in figure_nodes(2) {
        println!("  {}", node.label());
    }
    println!("\nedges:");
    for e in figure8_edges(2) {
        println!("  {} ⊆ {}   [{}]", e.from, e.to, e.justification);
    }
    println!("\nempirical sampling (12 seeds × 3 oracles, 4-process workloads):");
    println!("{:<10} {:>8} {:>8}", "oracle", "SC runs", "EC runs");
    for (label, k) in [("Θ_F,k=1", Some(1u32)), ("Θ_F,k=2", Some(2)), ("Θ_P", None)] {
        let (mut sc, mut ec) = (0, 0);
        for seed in 0..12u64 {
            let merits = Merits::uniform(4);
            let oracle = match k {
                Some(k) => ThetaOracle::frugal(k, merits, 2.0, seed),
                None => ThetaOracle::prodigal(merits, 2.0, seed),
            };
            let out = run_workload(
                oracle,
                &WorkloadConfig {
                    seed,
                    ..Default::default()
                },
            );
            let params = ConsistencyParams {
                store: &out.store,
                predicate: &AcceptAll,
                score: &LengthScore,
                liveness: LivenessMode::ConvergenceCut(out.suggested_cut),
            };
            sc += check_strong_consistency(&out.history, &params).holds() as u32;
            ec += check_eventual_consistency(&out.history, &params).holds() as u32;
        }
        println!("{label:<10} {sc:>7}/12 {ec:>7}/12");
    }
}

/// Fig. 9 — CAS and consumeToken objects under contention.
pub fn fig9() {
    hr("Figure 9 — Compare&Swap and consumeToken (k = 1) objects");
    let cas = CasRegister::new(EMPTY);
    println!(
        "cas(EMPTY→7)  returned {:>2} (success: old value)",
        cas.compare_and_swap(EMPTY, 7)
    );
    println!(
        "cas(EMPTY→9)  returned {:>2} (failure: incumbent)",
        cas.compare_and_swap(EMPTY, 9)
    );
    let ct = ConsumeTokenCell::new();
    println!(
        "consume(3)    returned {:>2} (installed)",
        ct.consume_token(3)
    );
    println!(
        "consume(5)    returned {:>2} (k = 1: incumbent)",
        ct.consume_token(5)
    );

    let winners: usize = {
        let c = std::sync::Arc::new(ConsumeTokenCell::new());
        std::thread::scope(|s| {
            (1..=8u64)
                .map(|v| {
                    let c = std::sync::Arc::clone(&c);
                    s.spawn(move || (c.consume_token(v) == v) as usize)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        })
    };
    println!("\n8 threads racing consumeToken: {winners} winner (expected 1)");
}

/// Fig. 10 — CAS from CT (Thm. 4.1).
pub fn fig10() {
    hr("Figure 10 — wait-free CAS from consumeToken (Thm 4.1)");
    let reduced = CasFromCt::new();
    let native = CasRegister::new(EMPTY);
    println!("{:<14} {:>10} {:>10}", "operation", "reduced", "native");
    for v in [5u64, 9, 13] {
        println!(
            "cas({{}}, {v:<2})    {:>10} {:>10}",
            reduced.compare_and_swap_from_empty(v),
            native.compare_and_swap(EMPTY, v)
        );
    }
    println!(
        "final values:  {:>10} {:>10}",
        reduced.read(),
        native.read()
    );
}

/// Fig. 11 — Protocol A (consensus from Θ_F,k=1, Thm. 4.2).
pub fn fig11() {
    hr("Figure 11 — Protocol A: consensus from Θ_F,k=1 (Thm 4.2)");
    println!(
        "{:>8} {:>10} {:>11} {:>9} {:>9} {:>12}",
        "threads", "decided", "agreement", "validity", "term.", "wall time"
    );
    for &n in &[2usize, 4, 8, 16] {
        let oracle = ThetaOracle::frugal(1, Merits::uniform(n), n as f64 * 0.8, n as u64);
        let consensus = OracleConsensus::new(SharedOracle::new(oracle));
        let start = Instant::now();
        let report = run_trial(&consensus, n);
        let dt = start.elapsed();
        println!(
            "{n:>8} {:>10} {:>11} {:>9} {:>9} {:>12}",
            report
                .decided()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "—".into()),
            tick(report.agreement()),
            tick(report.validity()),
            tick(report.termination()),
            format!("{dt:.1?}")
        );
    }
}

fn tick(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}

/// Fig. 12 — prodigal CT from Atomic Snapshot (Thm. 4.3).
pub fn fig12() {
    hr("Figure 12 — consumeToken from Atomic Snapshot (Θ_P, Thm 4.3)");
    let cell = ProdigalCtCell::new(4);
    for m in 0..4usize {
        let view = cell.consume_token(m, (m as u64 + 1) * 10);
        println!(
            "consumeToken(slot {m}, token {:>2}) -> K = {view:?}",
            (m + 1) * 10
        );
    }
    println!("\nall four consumes succeeded: Θ_P exercises no synchronization power.");
    let (a, b) = divergent_schedule(PickRule::MinSlot);
    println!("naive consensus over it admits divergence: A decided {a}, B decided {b}");
}

/// Fig. 13 — Update Agreement.
pub fn fig13() {
    hr("Figure 13 — Update Agreement (R1/R2/R3, Def. 4.3)");
    let out = update_agreement_positive(SEED);
    let ua = check_update_agreement(&out.trace, &out.store, &out.correct);
    let lrc = check_lrc(&out.trace, &out.correct);
    println!(
        "gossip-echo run: {} sends, {} receives, {} updates\n",
        out.trace.sends().count(),
        out.trace.receives().count(),
        out.trace.updates().count()
    );
    println!("{ua}");
    println!("{lrc}");
    let (_, ec) = out.consistency();
    println!(
        "Eventual Consistency: {}",
        if ec.holds() { "SATISFIED" } else { "VIOLATED" }
    );
}

/// Fig. 14 — the hierarchy after the impossibility results.
pub fn fig14() {
    hr("Figure 14 — message-passing frontier (Thm 4.8, Lemmas 4.4/4.5, Thm 4.7)");
    println!("Thm 4.8 schedules (2 procs, synchronous, simultaneous PoW wins):");
    for (label, k) in [
        ("Θ_F,k=1", KBound::Finite(1)),
        ("Θ_F,k=2", KBound::Finite(2)),
        ("Θ_P    ", KBound::Infinite),
    ] {
        let out = theorem_4_8(k, 42);
        let (sc, ec) = out.consistency();
        println!(
            "  {label}: Strong Prefix {}  Eventual Consistency {}",
            if sc.strong_prefix.as_ref().map(|v| v.holds).unwrap_or(true) {
                "preserved"
            } else {
                "VIOLATED "
            },
            tick(ec.holds())
        );
    }
    println!("\nnecessity chain:");
    let out = lemma_4_4(SEED);
    let ua = check_update_agreement(&out.trace, &out.store, &out.correct);
    let (_, ec) = out.consistency();
    println!(
        "  Lemma 4.4 (silent miner):  R1 {}  ⇒ EC {}",
        tick(ua.r1),
        tick(ec.holds())
    );
    let out = lemma_4_5(SEED);
    let ua = check_update_agreement(&out.trace, &out.store, &out.correct);
    let lrc = check_lrc(&out.trace, &out.correct);
    let (_, ec) = out.consistency();
    println!(
        "  Lemma 4.5 (dropped link):  LRC-Agreement {}  R3 {}  ⇒ EC {}",
        tick(lrc.agreement),
        tick(ua.r3),
        tick(ec.holds())
    );
    println!("\nsurviving message-passing classes:");
    for node in figure_nodes(2) {
        if node.message_passing_implementable() {
            println!("  {}", node.label());
        } else {
            println!("  {}   [impossible: Thm 4.8]", node.label());
        }
    }
}

/// Table 1 — the system mapping.
pub fn table1_exp() {
    hr("Table 1 — mapping of existing systems");
    println!(
        "{:<12} {:<28} {:<8} {:<9} {:<11} match",
        "system", "paper mapping", "observed", "max-fork", "blocks"
    );
    for row in btadt_protocols::table1(SEED) {
        println!("{row}");
    }
}

/// Ablation A1 — fork rate vs k and operation latency.
pub fn ablate_k() {
    hr("Ablation A1 — fork pressure vs oracle bound k and latency");
    println!(
        "{:<8} {:>10} {:>12} {:>14} {:>10}",
        "k", "latency", "fork points", "max degree", "SC?"
    );
    for &k in &[Some(1u32), Some(2), Some(4), None] {
        for &lat in &[2u64, 6, 12] {
            let (mut forks, mut deg, mut sc_runs) = (0usize, 0usize, 0u32);
            let runs = 6u64;
            for seed in 0..runs {
                let merits = Merits::uniform(4);
                let oracle = match k {
                    Some(k) => ThetaOracle::frugal(k, merits, 2.0, seed),
                    None => ThetaOracle::prodigal(merits, 2.0, seed),
                };
                let out = run_workload(
                    oracle,
                    &WorkloadConfig {
                        max_latency: lat,
                        seed,
                        ..Default::default()
                    },
                );
                forks += out.fork_points;
                deg = deg.max(out.max_fork_degree);
                let params = ConsistencyParams {
                    store: &out.store,
                    predicate: &AcceptAll,
                    score: &LengthScore,
                    liveness: LivenessMode::ConvergenceCut(out.suggested_cut),
                };
                sc_runs += check_strong_consistency(&out.history, &params).holds() as u32;
            }
            let klabel = k
                .map(|k| format!("k={k}"))
                .unwrap_or_else(|| "∞".to_string());
            println!(
                "{:<8} {:>10} {:>12.1} {:>14} {:>9}/6",
                klabel,
                lat,
                forks as f64 / runs as f64,
                deg,
                sc_runs
            );
        }
    }
}

/// Ablation A2 — longest-chain vs GHOST under fork pressure.
pub fn ablate_selection() {
    hr("Ablation A2 — longest-chain vs GHOST (Ethereum §5.2) under forks");
    use btadt_protocols::{bitcoin, ethereum};
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>10}",
        "selection", "blocks", "chain len", "orphan rate", "class"
    );
    for rate in [0.6f64, 1.2] {
        let b = bitcoin::run(&bitcoin::BitcoinConfig {
            rate,
            seed: SEED,
            ..Default::default()
        });
        let e = ethereum::run(&ethereum::EthereumConfig {
            rate,
            seed: SEED,
            ..Default::default()
        });
        for (name, run) in [
            (format!("longest r={rate}"), b),
            (format!("ghost   r={rate}"), e),
        ] {
            let chain_len = run.final_chains[0].len() - 1;
            let orphans = run.blocks_minted.saturating_sub(chain_len);
            println!(
                "{:<16} {:>8} {:>12} {:>11.1}% {:>10}",
                name,
                run.blocks_minted,
                chain_len,
                100.0 * orphans as f64 / run.blocks_minted.max(1) as f64,
                format!("{}", run.consistency_class())
            );
        }
    }
}

/// Ablation A4 — PeerCensus secure-state probability vs adversary power.
pub fn peercensus_security() {
    hr("Ablation A4 — PeerCensus secure state vs adversarial power (§5.5)");
    use btadt_protocols::peercensus::secure_state_probability;
    println!("{:>8} {:>22}", "α_A", "P[10 secure quorums]");
    for a in [0.05f64, 0.10, 0.15, 0.20, 0.25, 0.30, 0.33] {
        let p = secure_state_probability(a, 30, 10, 2_000, SEED);
        let bar = "█".repeat((p * 40.0) as usize);
        println!("{a:>8.2} {p:>10.3}  {bar}");
    }
    println!("\n(committee size 30, 10 successive quorums, 2000 Monte-Carlo trials)");
}

/// Ablation A5 — oracle & reward fairness (the paper's §6 future-work
/// thread plus the FruitChain §5.1 comparison).
pub fn fairness() {
    hr("Ablation A5 — merit fairness: token grants & FruitChain rewards");
    use btadt_oracle::token_fairness;
    use btadt_protocols::fruitchain::{run as run_fruit, FruitChainConfig};

    println!("token-grant fairness (Θ_P, 4000 attempts per process):");
    for (label, weights) in [
        ("uniform", vec![1.0, 1.0, 1.0, 1.0]),
        ("3:1:1:1", vec![3.0, 1.0, 1.0, 1.0]),
        ("8:4:2:1", vec![8.0, 4.0, 2.0, 1.0]),
    ] {
        let rep = token_fairness(Merits::from_weights(weights), 1.0, SEED, 4_000);
        println!(
            "  {label:<8} max deviation {:.4} over {} grants",
            rep.max_deviation, rep.total
        );
    }

    println!("\nreward fairness, skewed power 4:1:1:1 (FruitChain [27] vs Bitcoin):");
    println!(
        "{:>6} {:>18} {:>18}",
        "seed", "fruit max-dev", "block max-dev"
    );
    let merits = Merits::from_weights(vec![4.0, 1.0, 1.0, 1.0]);
    for seed in [1u64, 2, 3, 4] {
        let out = run_fruit(&FruitChainConfig {
            n: 4,
            hash_power: Some(vec![4.0, 1.0, 1.0, 1.0]),
            seed,
            ..Default::default()
        });
        println!(
            "{seed:>6} {:>18.4} {:>18.4}",
            out.fruit_fairness(&merits).max_deviation,
            out.block_fairness(&merits).max_deviation
        );
    }
    println!("\n(per-fruit rewards track merit more tightly: the FruitChain claim)");
}

/// The canonical append+read client loop on the incremental path
/// (`append` + cached `read`). Returns a fold of the observed chain
/// lengths so callers can cross-check both paths saw identical chains.
/// Shared by `bench_selection` and the `blocktree_ops` criterion bench
/// so both always measure the same workload.
pub fn append_read_incremental(n: u64) -> usize {
    use btadt_core::validity::AcceptAll;
    let mut bt = btadt_core::blocktree::BlockTree::new(LongestChain, AcceptAll);
    let mut acc = 0usize;
    for i in 0..n {
        bt.append(CandidateBlock::simple(ProcessId(0), i));
        acc += bt.read().len();
    }
    acc
}

/// The same client loop forced through the full Def. 3.1 rescan
/// (`selected_tip_full_scan` for the append parent and again for the
/// read, plus a `path_from_genesis` walk) — the seed's original cost
/// model, kept as the benchmark baseline.
pub fn append_read_full_scan(n: u64) -> usize {
    use btadt_core::validity::AcceptAll;
    let mut bt = btadt_core::blocktree::BlockTree::new(LongestChain, AcceptAll);
    let mut acc = 0usize;
    for i in 0..n {
        let parent = bt.selected_tip_full_scan();
        bt.graft(parent, CandidateBlock::simple(ProcessId(0), i));
        let chain = Blockchain::from_tip(bt.store(), bt.selected_tip_full_scan());
        acc += chain.len();
    }
    acc
}

/// Bench S — incremental selection & zero-copy reads vs the full Def. 3.1
/// rescan, on the canonical append+read client loop. Prints a table and
/// emits `BENCH_selection.json` for trend tracking. Run under `--release`;
/// the full-scan baseline at 100k blocks is O(n²) by construction (that
/// is the point).
pub fn bench_selection() {
    hr("Bench S — incremental vs full-scan selection (append+read loop)");

    fn incremental_loop(n: u64) -> (std::time::Duration, usize) {
        let start = Instant::now();
        let acc = append_read_incremental(n);
        (start.elapsed(), acc)
    }

    fn full_scan_loop(n: u64) -> (std::time::Duration, usize) {
        let start = Instant::now();
        let acc = append_read_full_scan(n);
        (start.elapsed(), acc)
    }

    if cfg!(debug_assertions) {
        println!("note: unoptimized build — run with --release for honest numbers");
    }
    println!(
        "{:>9} {:>18} {:>18} {:>9}",
        "blocks", "incremental", "full-scan", "speedup"
    );
    let mut rows = Vec::new();
    for &n in &[10_000u64, 100_000] {
        let (t_inc, a1) = incremental_loop(n);
        let (t_full, a2) = full_scan_loop(n);
        assert_eq!(a1, a2, "both paths must observe identical chains");
        let ops = 2 * n; // one append + one read per block
        let inc_rate = ops as f64 / t_inc.as_secs_f64();
        let full_rate = ops as f64 / t_full.as_secs_f64();
        let speedup = inc_rate / full_rate;
        println!(
            "{n:>9} {:>13.0} op/s {:>13.0} op/s {speedup:>8.1}x",
            inc_rate, full_rate
        );
        rows.push(format!(
            "    {{\"blocks\": {n}, \"ops\": {ops}, \
             \"incremental_ops_per_sec\": {inc_rate:.1}, \
             \"full_scan_ops_per_sec\": {full_rate:.1}, \
             \"speedup\": {speedup:.2}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"selection_append_read\",\n  \
         \"selection\": \"longest-chain\",\n  \
         \"optimized\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        !cfg!(debug_assertions),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_selection.json", &json) {
        Ok(()) => println!("\nwrote BENCH_selection.json"),
        Err(e) => println!("\ncould not write BENCH_selection.json: {e}"),
    }
}

/// Sizing override for the bench drivers (the CI bench-smoke step runs
/// them at tiny sizes so the binaries cannot bit-rot between manual
/// runs): a positive integer in the named env var wins over `default`.
fn env_size(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Bench C — the concurrent BT-ADT under 1/2/4/8 appender+reader thread
/// pairs, against the sequential incremental `BlockTree` on the same
/// total operation budget, plus a forced-overlap **contended** row.
/// Prints a table and emits `BENCH_concurrent.json`. Run under
/// `--release` (debug builds also carry the per-insert full-scan
/// cross-check, which is the bulk of the cost there). Sizes honor
/// `BTADT_BENCH_APPENDS` / `BTADT_BENCH_TRIALS` /
/// `BTADT_BENCH_DURABLE` for the CI smoke run.
///
/// The `durable` rows rerun the append workload on an
/// [`open_durable`](btadt_core::concurrent::ConcurrentBlockTree::open_durable)
/// tree (WAL + fsync before ack) and report the group-commit evidence:
/// appends/s with durability on, plus records-per-fsync from
/// `wal_stats`.
///
/// Appends and reads are reported as **separate series** per thread
/// count: PR 2's combined ops/sec number hid append serialization behind
/// the read volume. Every append commits on one path — stage 1 under the
/// selection lock, stage 2 (whoever holds the publication lock publishes
/// everything staged) after it — and reads are epoch-pinned borrows with
/// no shared refcount line. Each row also reports the epoch domain's
/// `retired_bytes_peak` — the reclamation high-water mark over the run.
///
/// The `solo_append` row times one appender with no reader at the
/// default finality watermark and with flattening disabled, so the
/// flattener's share of the uncontended append is a committed number.
///
/// The plain thread rows rarely overlap on a single-core container
/// (appends serialize by time slice); the `contended` row forces overlap
/// from a start barrier with a metadata scanner thread holding the
/// selection lock in bursts (`commit_log()` clones under it), so
/// appenders pile up on the selection lock even time-sliced.
pub fn bench_concurrent() {
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::validity::AcceptAll;
    use std::sync::Barrier;

    hr("Bench C — concurrent BT-ADT: thread scaling vs sequential baseline");
    if cfg!(debug_assertions) {
        println!("note: unoptimized build — run with --release for honest numbers");
    }
    let total_appends: u64 = env_size(
        "BTADT_BENCH_APPENDS",
        if cfg!(debug_assertions) {
            2_000
        } else {
            100_000
        },
    );
    let total_reads: u64 = 4 * total_appends;

    // Sequential baselines: the same budgets on the single-threaded
    // incremental path, appends and reads timed separately.
    let (base_append_rate, base_read_rate) = {
        let mut bt = btadt_core::blocktree::BlockTree::new(LongestChain, AcceptAll);
        let start = Instant::now();
        for i in 0..total_appends {
            bt.append(CandidateBlock::simple(ProcessId(0), i));
        }
        let append_rate = total_appends as f64 / start.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..total_reads {
            acc += bt.read().len();
        }
        std::hint::black_box(acc);
        let read_rate = total_reads as f64 / start.elapsed().as_secs_f64();
        (append_rate, read_rate)
    };
    println!(
        "{:>22} {:>10} {:>13} {:>10} {:>13} {:>12} {:>7}",
        "configuration", "appends", "appends/s", "reads", "reads/s", "retired peak", "rec/fs"
    );
    println!(
        "{:>22} {total_appends:>10} {base_append_rate:>13.0} {total_reads:>10} \
         {base_read_rate:>13.0} {:>12} {:>7}",
        "sequential (1 thread)", "-", "-"
    );

    let mut rows = vec![format!(
        "    {{\"threads\": 0, \"label\": \"sequential\", \"appends\": {total_appends}, \
         \"appends_per_sec\": {base_append_rate:.1}, \"reads\": {total_reads}, \
         \"reads_per_sec\": {base_read_rate:.1}}}"
    )];
    // Scheduler noise dwarfs the effect under test on small machines
    // (this container has one core), so each configuration reports the
    // per-series best over the trials (each series' max taken
    // independently — the conventional throughput-bench answer to "how
    // fast can this configuration go"; retired_bytes_peak takes its max
    // as the worst case observed). Trials are interleaved round-robin
    // across the configurations so frequency/thermal drift over the
    // bench's runtime does not systematically penalize the later, larger
    // thread counts.
    let trials = env_size("BTADT_BENCH_TRIALS", 5) as usize;
    let configs = [1usize, 2, 4, 8];
    let mut best = [(0f64, 0f64, 0usize, 0u64, 0usize); 4];
    let mut tip_series = [(0u64, 0f64); 4];
    for trial in 0..trials {
        for (ci, &threads) in configs.iter().enumerate() {
            let appends_each = total_appends / threads as u64;
            let reads_each = total_reads / threads as u64;
            let done_appends = appends_each * threads as u64;
            let done_reads = reads_each * threads as u64;
            let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
            // Each thread group is timed to its own last finisher: the
            // appends/s and reads/s series measure the phases that
            // actually ran, not whichever group straggled.
            let barrier = Barrier::new(2 * threads);
            let (append_wall, read_wall) = std::thread::scope(|s| {
                let mut appenders = Vec::new();
                let mut readers = Vec::new();
                for t in 0..threads as u32 {
                    let (tree, barrier) = (&tree, &barrier);
                    appenders.push(s.spawn(move || {
                        barrier.wait();
                        let start = Instant::now();
                        for i in 0..appends_each {
                            let nonce = ((t as u64) << 40) | i;
                            let _ = tree.append(CandidateBlock::simple(ProcessId(t), nonce));
                        }
                        start.elapsed().as_secs_f64()
                    }));
                    readers.push(s.spawn(move || {
                        barrier.wait();
                        let start = Instant::now();
                        let mut acc = 0usize;
                        for _ in 0..reads_each {
                            acc += tree.read().len();
                        }
                        std::hint::black_box(acc);
                        start.elapsed().as_secs_f64()
                    }));
                }
                let a = appenders
                    .into_iter()
                    .map(|h| h.join().expect("appender"))
                    .fold(0f64, f64::max);
                let r = readers
                    .into_iter()
                    .map(|h| h.join().expect("reader"))
                    .fold(0f64, f64::max);
                (a, r)
            });
            assert_eq!(
                tree.read().len() as u64,
                done_appends + 1,
                "every append must have committed"
            );
            best[ci].0 = best[ci].0.max(done_appends as f64 / append_wall);
            best[ci].1 = best[ci].1.max(done_reads as f64 / read_wall);
            best[ci].2 = best[ci].2.max(tree.epochs().retired_bytes_peak());
            best[ci].3 = best[ci].3.max(tree.pipeline_stats().inline_appends);
            best[ci].4 = best[ci].4.max(tree.store().approx_heap_bytes());
            if trial == trials - 1 {
                // Tip-read scaling on the now-populated tree:
                // `selected_tip` is the refcount-free half of the read
                // path (one atomic load), so it shows the parallelism
                // headroom without the shared-`Arc` cache-line traffic
                // that bounds full-chain reads. Measured here, on the
                // configuration's final trial, so the ~100k-block tree
                // drops at the end of this iteration — keeping all four
                // populated trees alive until after the trial loop
                // inflated the bench footprint (and cache pressure on
                // this one-core container) for no measurement benefit.
                let tip_reads_each = 4 * total_reads / threads as u64;
                let start = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        let tree = &tree;
                        s.spawn(move || {
                            let mut acc = 0u64;
                            for _ in 0..tip_reads_each {
                                acc ^= tree.selected_tip().0 as u64;
                            }
                            std::hint::black_box(acc);
                        });
                    }
                });
                let tip_total = tip_reads_each * threads as u64;
                tip_series[ci] = (tip_total, tip_total as f64 / start.elapsed().as_secs_f64());
            }
        }
    }
    for (ci, &threads) in configs.iter().enumerate() {
        let appends_each = total_appends / threads as u64;
        let reads_each = total_reads / threads as u64;
        let done_appends = appends_each * threads as u64;
        let done_reads = reads_each * threads as u64;
        let (append_rate, read_rate, retired_peak, inline, arena) = best[ci];
        println!(
            "{:>18} +{threads}r {done_appends:>10} {append_rate:>13.0} {done_reads:>10} \
             {read_rate:>13.0} {retired_peak:>10} B {:>7}",
            format!("concurrent {threads}a"),
            "-"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"label\": \"concurrent\", \"appends\": {done_appends}, \
             \"appends_per_sec\": {append_rate:.1}, \"reads\": {done_reads}, \
             \"reads_per_sec\": {read_rate:.1}, \"retired_bytes_peak\": {retired_peak}, \
             \"inline_appends\": {inline}, \"arena_bytes\": {arena}}}"
        ));
        let (tip_total, tip_rate) = tip_series[ci];
        println!(
            "{:>22} {:>10} {:>13} {tip_total:>10} {tip_rate:>13.0} {:>12} {:>7}",
            format!("tip reads ({threads} thr)"),
            "-",
            "-",
            "-",
            "-"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"label\": \"tip_reads\", \"appends\": 0, \
             \"reads\": {tip_total}, \"reads_per_sec\": {tip_rate:.1}}}"
        ));
    }

    // Solo append loop at the default watermark and with flattening
    // disabled (a plain store): the gap is the whole cost the flattener
    // adds to the uncontended append. Trials alternate between the two
    // configs so drift over the run favours neither.
    {
        use btadt_core::commit::FinalityWatermark;
        use btadt_core::concurrent::{DEFAULT_FINALITY_DEPTH, DEFAULT_SHARDS};

        let (mut best_default, mut best_disabled) = (0f64, 0f64);
        let mut flattened = 0u32;
        for _ in 0..trials {
            for watermark in [
                FinalityWatermark::new(DEFAULT_FINALITY_DEPTH),
                FinalityWatermark::disabled(),
            ] {
                let enabled = watermark.is_enabled();
                let tree = ConcurrentBlockTree::with_config(
                    DEFAULT_SHARDS,
                    watermark,
                    LongestChain,
                    AcceptAll,
                );
                let start = Instant::now();
                for i in 0..total_appends {
                    let _ = tree.append(CandidateBlock::simple(ProcessId(0), (1u64 << 48) | i));
                }
                let rate = total_appends as f64 / start.elapsed().as_secs_f64();
                assert_eq!(tree.read().len() as u64, total_appends + 1);
                if enabled {
                    best_default = best_default.max(rate);
                    flattened = tree.store().flattened_count();
                } else {
                    best_disabled = best_disabled.max(rate);
                    assert_eq!(tree.store().flattened_count(), 0);
                }
            }
        }
        for (label, rate) in [
            (
                format!("solo 1a (d={DEFAULT_FINALITY_DEPTH})"),
                best_default,
            ),
            ("solo 1a (no flatten)".to_string(), best_disabled),
        ] {
            println!(
                "{label:>22} {total_appends:>10} {rate:>13.0} {:>10} {:>13} {:>12} {:>7}",
                "-", "-", "-", "-"
            );
        }
        let ratio = best_default / best_disabled;
        rows.push(format!(
            "    {{\"threads\": 1, \"label\": \"solo_append\", \"appends\": {total_appends}, \
             \"finality_depth\": {DEFAULT_FINALITY_DEPTH}, \
             \"appends_per_sec_default\": {best_default:.1}, \
             \"appends_per_sec_disabled\": {best_disabled:.1}, \
             \"default_over_disabled\": {ratio:.3}, \"flattened_blocks\": {flattened}}}"
        ));
    }

    // Forced-overlap contended configuration: 4 appenders released from
    // one start barrier race a metadata scanner that repeatedly clones
    // the commit log *under the selection lock*, so appenders pile up on
    // that lock even on a single-core container (the plain rows above
    // only overlap when the scheduler happens to preempt a lock holder).
    {
        use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
        let threads = 4usize;
        let appends_each = total_appends / (2 * threads as u64);
        let done_appends = appends_each * threads as u64;
        let (mut best_rate, mut inline) = (0f64, 0u64);
        for _ in 0..trials {
            let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
            let done = AtomicBool::new(false);
            // Appenders + scanner + the timing (main) thread.
            let barrier = Barrier::new(threads + 2);
            // Whole-phase wall clock (barrier release → last appender
            // joined), not per-thread spans: this row exists to measure
            // forced overlap, and per-thread spans overstate a run whose
            // threads happened to time-slice sequentially.
            let wall = std::thread::scope(|s| {
                let mut appenders = Vec::new();
                for t in 0..threads as u32 {
                    let (tree, barrier) = (&tree, &barrier);
                    appenders.push(s.spawn(move || {
                        barrier.wait();
                        for i in 0..appends_each {
                            let nonce = (1u64 << 50) | ((t as u64) << 40) | i;
                            let _ = tree.append(CandidateBlock::simple(ProcessId(t), nonce));
                        }
                    }));
                }
                let (tree, barrier, done) = (&tree, &barrier, &done);
                let scanner = s.spawn(move || {
                    barrier.wait();
                    let mut acc = 0usize;
                    while !done.load(AtomicOrdering::Relaxed) {
                        acc += tree.commit_log().len();
                    }
                    std::hint::black_box(acc);
                });
                barrier.wait();
                let start = Instant::now();
                for h in appenders {
                    h.join().expect("appender");
                }
                let wall = start.elapsed().as_secs_f64();
                done.store(true, AtomicOrdering::Relaxed);
                scanner.join().expect("scanner");
                wall
            });
            assert_eq!(tree.read().len() as u64, done_appends + 1);
            best_rate = best_rate.max(done_appends as f64 / wall);
            inline = inline.max(tree.pipeline_stats().inline_appends);
        }
        println!(
            "{:>22} {done_appends:>10} {best_rate:>13.0} {:>10} {:>13} {:>12} {:>7}",
            format!("contended {threads}a+scan"),
            "-",
            "-",
            "-",
            "-"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"label\": \"contended\", \"appends\": {done_appends}, \
             \"appends_per_sec\": {best_rate:.1}, \"inline_appends\": {inline}}}"
        ));
    }

    // Fork-heavy GHOST contended configuration: the same forced-overlap
    // recipe, but under the rule whose scoring actually walks the tree —
    // 4 appenders extending the GHOST tip race a forker grafting at
    // random depths of the published chain (real reorg pressure, so
    // `on_insert` exercises GHOST's weight bookkeeping off the chain, not
    // just the chain-rule max).
    {
        use btadt_core::selection::Ghost;
        use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
        let threads = 4usize;
        let appends_each = total_appends / (2 * threads as u64);
        let grafts: u64 = appends_each / 4;
        let done_appends = appends_each * threads as u64;
        let (mut best_rate, mut inline) = (0f64, 0u64);
        for _ in 0..trials {
            let tree = ConcurrentBlockTree::new(Ghost::default(), AcceptAll);
            let done = AtomicBool::new(false);
            let barrier = Barrier::new(threads + 3);
            let wall = std::thread::scope(|s| {
                let mut appenders = Vec::new();
                for t in 0..threads as u32 {
                    let (tree, barrier) = (&tree, &barrier);
                    appenders.push(s.spawn(move || {
                        barrier.wait();
                        for i in 0..appends_each {
                            let nonce = (1u64 << 51) | ((t as u64) << 40) | i;
                            let _ = tree.append(CandidateBlock::simple(ProcessId(t), nonce));
                        }
                    }));
                }
                let (tree, barrier, done) = (&tree, &barrier, &done);
                let forker = s.spawn(move || {
                    barrier.wait();
                    let mut seed = 0xF0_4Cu64;
                    for i in 0..grafts {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let chain = tree.read();
                        let ids = chain.ids();
                        let parent = ids[(seed >> 33) as usize % ids.len()];
                        let nonce = (1u64 << 53) | i;
                        let _ = tree.graft(parent, CandidateBlock::simple(ProcessId(9), nonce));
                    }
                });
                let scanner = s.spawn(move || {
                    barrier.wait();
                    let mut acc = 0usize;
                    while !done.load(AtomicOrdering::Relaxed) {
                        acc += tree.commit_log().len();
                    }
                    std::hint::black_box(acc);
                });
                barrier.wait();
                let start = Instant::now();
                for h in appenders {
                    h.join().expect("appender");
                }
                let wall = start.elapsed().as_secs_f64();
                done.store(true, AtomicOrdering::Relaxed);
                forker.join().expect("forker");
                scanner.join().expect("scanner");
                wall
            });
            assert_eq!(
                tree.commit_log().len() as u64,
                done_appends + grafts,
                "every append and graft must have committed"
            );
            assert_eq!(tree.selected_tip(), tree.selected_tip_full_scan());
            best_rate = best_rate.max(done_appends as f64 / wall);
            inline = inline.max(tree.pipeline_stats().inline_appends);
        }
        println!(
            "{:>22} {done_appends:>10} {best_rate:>13.0} {:>10} {:>13} {:>12} {:>7}",
            format!("ghost-fork {threads}a+f+s"),
            "-",
            "-",
            "-",
            "-"
        );
        rows.push(format!(
            "    {{\"threads\": {threads}, \"label\": \"contended_ghost\", \
             \"appends\": {done_appends}, \"grafts\": {grafts}, \
             \"appends_per_sec\": {best_rate:.1}, \"inline_appends\": {inline}}}"
        ));
    }
    // Deep-tree configuration: the same chain grown to `BTADT_BENCH_DEEP`
    // blocks twice — once with flattening disabled (the PR-5 arena as it
    // was: every block a spine `Entry` plus a live child list forever),
    // once with the finality watermark trailing the tip by
    // `BTADT_BENCH_FINALITY` — and measured on the axes the tiered arena
    // exists for: ancestry-walk latency from the tip into the finalized
    // prefix, resident arena bytes, and append throughput with the
    // flattener running on the commit path. Exactly one populated deep
    // tree is alive at any moment (phase A drops before phase B builds);
    // at the release default of one million blocks, keeping both would
    // double the bench's resident footprint for no measurement benefit.
    {
        use btadt_core::commit::FinalityWatermark;
        use btadt_core::store::BlockView;

        let deep_blocks: u64 = env_size(
            "BTADT_BENCH_DEEP",
            if cfg!(debug_assertions) {
                4_000
            } else {
                1_000_000
            },
        );
        let finality_depth = env_size("BTADT_BENCH_FINALITY", 1_024) as u32;
        let walks: u64 = env_size(
            "BTADT_BENCH_WALKS",
            if cfg!(debug_assertions) {
                2_000
            } else {
                50_000
            },
        );

        let grow = |watermark: FinalityWatermark| {
            let tree = ConcurrentBlockTree::with_config(4, watermark, LongestChain, AcceptAll);
            let start = Instant::now();
            for i in 0..deep_blocks {
                let _ = tree.append(CandidateBlock::simple(ProcessId(0), (1u64 << 52) | i));
            }
            let rate = deep_blocks as f64 / start.elapsed().as_secs_f64();
            (tree, rate)
        };
        // Random-depth ancestry walks from the tip: the jump-pointer
        // descent crosses the whole finalized prefix, so this is the
        // cache-locality metric the slab tier targets.
        let walk_ns = |store: &btadt_core::concurrent::ShardedStore| {
            let tip = BlockId(store.block_count() as u32 - 1);
            let tip_h = store.height(tip) as u64;
            let mut seed = 0x5EED_D15Cu64;
            let mut acc = 0u64;
            let start = Instant::now();
            for _ in 0..walks {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let h = ((seed >> 33) % (tip_h + 1)) as u32;
                acc ^= store.ancestor_at(tip, h).0 as u64;
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64 / walks as f64
        };

        let (tree, append_unflat) = grow(FinalityWatermark::disabled());
        let walk_unflat = walk_ns(tree.store());
        let arena_peak = tree.store().approx_heap_bytes();
        drop(tree);

        let (tree, append_flat) = grow(FinalityWatermark::new(finality_depth));
        // Drain the flattener to its watermark, then drive the grace
        // period so every retired spine chunk is actually freed before
        // the resident-bytes reading.
        while tree.store().flatten_some(4096) > 0 {}
        tree.store().reclaim_domain().reclaim_quiescent();
        let walk_flat = walk_ns(tree.store());
        let arena_final = tree.store().approx_heap_bytes();
        let flattened = tree.store().flattened_count();
        let retired_peak = tree.store().reclaim_domain().retired_bytes_peak();

        println!(
            "{:>22} {deep_blocks:>10} {append_unflat:>13.0} {walks:>10} {:>10.0} ns/walk \
             {arena_peak:>10} B {:>7}",
            "deep tree (unflat)", walk_unflat, "-"
        );
        println!(
            "{:>22} {deep_blocks:>10} {append_flat:>13.0} {walks:>10} {:>10.0} ns/walk \
             {arena_final:>10} B {:>7}",
            format!("deep tree (d={finality_depth})"),
            walk_flat,
            "-"
        );
        rows.push(format!(
            "    {{\"threads\": 1, \"label\": \"deep_tree\", \"blocks\": {deep_blocks}, \
             \"finality_depth\": {finality_depth}, \
             \"append_per_sec_unflattened\": {append_unflat:.1}, \
             \"append_per_sec_flattening\": {append_flat:.1}, \
             \"walks\": {walks}, \"walk_ns_unflattened\": {walk_unflat:.1}, \
             \"walk_ns_flattened\": {walk_flat:.1}, \
             \"arena_bytes_peak\": {arena_peak}, \"arena_bytes_final\": {arena_final}, \
             \"flattened_blocks\": {flattened}, \"retired_bytes_peak\": {retired_peak}}}"
        ));
    }

    // Durable configuration: the same append workload with the WAL on —
    // every publication fsynced before its appends return
    // (persist-then-ack). The number to watch is records-per-fsync: the
    // publisher pops every staged record, so the fsync count tracks
    // publications, not appends. One appender is the worst case (every
    // append is its own publication); with four, records staged while a
    // publisher fsyncs can share its successor's fsync.
    {
        use btadt_core::commit::FinalityWatermark;
        use btadt_core::wal::WalConfig;

        let durable_appends: u64 = env_size(
            "BTADT_BENCH_DURABLE",
            if cfg!(debug_assertions) {
                2_000
            } else {
                50_000
            },
        );
        for &threads in &[1usize, 4] {
            let appends_each = durable_appends / threads as u64;
            let done_appends = appends_each * threads as u64;
            let mut best_rate = 0f64;
            let mut stats_at_best = None;
            for trial in 0..trials {
                let dir = std::env::temp_dir().join(format!(
                    "btadt-bench-wal-{}-{threads}-{trial}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let tree = ConcurrentBlockTree::open_durable(
                    4,
                    FinalityWatermark::disabled(),
                    LongestChain,
                    AcceptAll,
                    WalConfig::new(&dir),
                )
                .expect("bench WAL opens");
                let barrier = Barrier::new(threads);
                let wall = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads as u32)
                        .map(|t| {
                            let (tree, barrier) = (&tree, &barrier);
                            s.spawn(move || {
                                barrier.wait();
                                let start = Instant::now();
                                for i in 0..appends_each {
                                    let nonce = (1u64 << 54) | ((t as u64) << 40) | i;
                                    let _ =
                                        tree.append(CandidateBlock::simple(ProcessId(t), nonce));
                                }
                                start.elapsed().as_secs_f64()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("appender"))
                        .fold(0f64, f64::max)
                });
                assert_eq!(tree.read().len() as u64, done_appends + 1);
                let stats = tree.wal_stats().expect("durable tree reports stats");
                // Seam sanity: these rows run through the default StdVfs,
                // which must be a pure passthrough — every append logged
                // exactly once, no injected-failure machinery engaged. A
                // regression here (missing records, surprise retries or
                // failure counts on a healthy disk) means the VFS seam
                // changed the durable path, not just its timing.
                assert_eq!(
                    stats.records, done_appends,
                    "StdVfs seam must log exactly one record per append"
                );
                assert!(
                    stats.checkpoint_failures == 0
                        && stats.segment_unlink_failures == 0
                        && stats.rotation_failures == 0
                        && stats.last_error.is_none(),
                    "StdVfs seam recorded IO failures on a healthy disk: {stats:?}"
                );
                // Group commit's cadence check: stage 2 fsyncs once per
                // publication (a publication may cover several staged
                // batches, never the reverse), so the fsync count must
                // track publications — small slack for segment-rotation
                // fsyncs riding on top.
                let publications = tree.commit_generation();
                assert!(
                    stats.fsyncs <= publications + publications / 10 + 8
                        && publications <= stats.fsyncs + stats.fsyncs / 10 + 8,
                    "wal fsyncs ({}) should track publications ({})",
                    stats.fsyncs,
                    publications
                );
                let rate = done_appends as f64 / wall;
                if rate > best_rate {
                    best_rate = rate;
                    stats_at_best = Some((stats, publications));
                }
                drop(tree);
                let _ = std::fs::remove_dir_all(&dir);
            }
            let (stats, publications) = stats_at_best.expect("at least one trial ran");
            let per_fsync = stats.records as f64 / stats.fsyncs.max(1) as f64;
            println!(
                "{:>22} {done_appends:>10} {best_rate:>13.0} {:>10} {:>13} {:>12} {per_fsync:>7.2}",
                format!("durable {threads}a (fsync)"),
                format!("{} fs", stats.fsyncs),
                "-",
                "-"
            );
            rows.push(format!(
                "    {{\"threads\": {threads}, \"label\": \"durable\", \
                 \"appends\": {done_appends}, \"appends_per_sec\": {best_rate:.1}, \
                 \"wal_records\": {}, \"wal_fsyncs\": {}, \"publications\": {publications}, \
                 \"records_per_fsync\": {per_fsync:.2}, \"wal_bytes\": {}}}",
                stats.records, stats.fsyncs, stats.bytes
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"concurrent_append_read\",\n  \
         \"selection\": \"longest-chain\",\n  \
         \"optimized\": {},\n  \"cpus\": {},\n  \"trials_per_config\": {trials},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        !cfg!(debug_assertions),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_concurrent.json", &json) {
        Ok(()) => println!("\nwrote BENCH_concurrent.json"),
        Err(e) => println!("\ncould not write BENCH_concurrent.json: {e}"),
    }
}

/// Bench A — Protocol A end to end: decisions/sec through the
/// `ConcurrentBlockTree` + Θ_F,k=1 pair vs proposer-thread count, via
/// `run_consensus_workload` (real threads, chained instances, recorded
/// histories). Prints a table and emits `BENCH_consensus.json`. Each round
/// decides one block among N proposers, so decisions/sec is rounds over
/// the wall clock and proposes/sec is N× that; the readerless config
/// isolates the decide path, the `+2r` rows add read-side pressure.
pub fn bench_consensus() {
    use btadt_sim::mtrun::{run_consensus_workload, ConsensusConfig};

    hr("Bench A — tree-backed consensus (Protocol A): thread scaling");
    if cfg!(debug_assertions) {
        println!("note: unoptimized build — run with --release for honest numbers");
    }
    let rounds: usize = env_size(
        "BTADT_BENCH_ROUNDS",
        if cfg!(debug_assertions) { 50 } else { 2_000 },
    ) as usize;
    println!(
        "{:>16} {:>8} {:>14} {:>14} {:>10}",
        "configuration", "rounds", "decisions/s", "proposes/s", "coherent"
    );
    let mut rows = Vec::new();
    let trials = env_size("BTADT_BENCH_TRIALS", 3);
    for &(proposers, readers) in &[(1usize, 0usize), (2, 0), (4, 0), (4, 2), (8, 2)] {
        let cfg = ConsensusConfig {
            seed: SEED,
            proposers,
            readers,
            rounds,
            reads_per_round: if readers == 0 { 0 } else { 8 },
            rate: None,
        };
        // Best-of-trials, like bench-concurrent: scheduler noise dwarfs
        // the effect under test on small containers. `threads_wall` times
        // spawn→join only, so post-join evidence assembly (arena
        // snapshot, history merge) does not deflate the decide-path rate.
        let mut best_rate = 0f64;
        let mut coherent = true;
        for _ in 0..trials {
            let run = run_consensus_workload(LongestChain, &cfg);
            let wall = run.threads_wall.as_secs_f64();
            assert_eq!(run.decisions.len(), rounds, "every round decides");
            coherent &= run.fork_coherent;
            best_rate = best_rate.max(rounds as f64 / wall);
        }
        let propose_rate = best_rate * proposers as f64;
        println!(
            "{:>13}p +{readers}r {rounds:>8} {best_rate:>14.0} {propose_rate:>14.0} {coherent:>10}",
            proposers
        );
        rows.push(format!(
            "    {{\"proposers\": {proposers}, \"readers\": {readers}, \"rounds\": {rounds}, \
             \"decisions_per_sec\": {best_rate:.1}, \"proposes_per_sec\": {propose_rate:.1}, \
             \"fork_coherent\": {coherent}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"tree_consensus_decide_path\",\n  \
         \"selection\": \"longest-chain\",\n  \"k\": 1,\n  \
         \"optimized\": {},\n  \"cpus\": {},\n  \"trials_per_config\": {trials},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        !cfg!(debug_assertions),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows.join(",\n")
    );
    match std::fs::write("BENCH_consensus.json", &json) {
        Ok(()) => println!("\nwrote BENCH_consensus.json"),
        Err(e) => println!("\ncould not write BENCH_consensus.json: {e}"),
    }
}

/// Runs every experiment in paper order.
pub fn all() {
    fig1();
    fig2();
    fig3();
    fig4();
    fig5();
    fig6();
    fig7();
    fig8();
    fig9();
    fig10();
    fig11();
    fig12();
    fig13();
    fig14();
    table1_exp();
    ablate_k();
    ablate_selection();
    peercensus_security();
    fairness();
}

#[cfg(test)]
mod tests {
    // Smoke-test every experiment driver end to end (they assert
    // internally via expect/unwrap on the paper-predicted outcomes).
    #[test]
    fn figures_1_to_7_run() {
        super::fig1();
        super::fig2();
        super::fig3();
        super::fig4();
        super::fig5();
        super::fig6();
        super::fig7();
    }

    #[test]
    fn figures_8_to_14_run() {
        super::fig8();
        super::fig9();
        super::fig10();
        super::fig11();
        super::fig12();
        super::fig13();
        super::fig14();
    }

    #[test]
    fn tables_and_ablations_run() {
        super::table1_exp();
        super::ablate_selection();
    }
}
