//! Correctness checks. Each takes the evidence a workload collected and
//! returns the list of violated properties (empty = correct), so the
//! self-test can feed every check a corrupted result and watch it fail.

use btadt_core::ids::BlockId;
use btadt_registers::TreeConsensusReport;

/// `ledger` and the append probe: what a run of appends left behind.
#[derive(Clone, Debug)]
pub struct LedgerEvidence {
    /// Appends issued (base chain included).
    pub appends: usize,
    /// Appends that returned `Ok(Some(_))`.
    pub acked: usize,
    /// Length of the final `read()` (genesis included).
    pub final_len: usize,
    /// Blocks the chain held before these appends (genesis included).
    pub len_before: usize,
    pub tip: BlockId,
    pub full_scan_tip: BlockId,
    /// Times a reader saw its chain get shorter.
    pub reader_regressions: u64,
}

pub fn check_ledger(e: &LedgerEvidence) -> Vec<String> {
    let mut bad = Vec::new();
    if e.acked != e.appends {
        bad.push(format!(
            "{} of {} appends returned Ok(Some)",
            e.acked, e.appends
        ));
    }
    if e.final_len != e.len_before + e.appends {
        bad.push(format!(
            "final chain length {} != {} + {} appends",
            e.final_len, e.len_before, e.appends
        ));
    }
    if e.tip != e.full_scan_tip {
        bad.push(format!(
            "selected tip {} != full scan {}",
            e.tip, e.full_scan_tip
        ));
    }
    if e.reader_regressions != 0 {
        bad.push(format!(
            "reader chain length decreased {} times",
            e.reader_regressions
        ));
    }
    bad
}

/// `durable_ledger`: the base log, the acks, and what recovery returned.
#[derive(Clone, Debug)]
pub struct DurableEvidence {
    /// `(id, digest)` of every record of the base log as written.
    pub base_written: Vec<(BlockId, u64)>,
    /// The same, as the timed recovery rebuilt it.
    pub base_recovered: Vec<(BlockId, u64)>,
    /// Acked ids per caller, in each caller's ack order.
    pub acks: Vec<Vec<BlockId>>,
    /// Calls that returned anything but `Ok(Some(_))`.
    pub errors: u64,
    /// Appends of the timed phase.
    pub appends: u64,
    /// `wal_stats().records` gained over the timed phase.
    pub wal_records: u64,
    /// Checkpoint + unlink + rotation failures.
    pub wal_failures: u64,
    /// Commit log of the tree reopened after the run.
    pub reopened_log: Vec<BlockId>,
}

pub fn check_durable(e: &DurableEvidence) -> Vec<String> {
    let mut bad = Vec::new();
    if e.base_written != e.base_recovered {
        bad.push(format!(
            "recovered base log ({} records) differs from the one written ({})",
            e.base_recovered.len(),
            e.base_written.len()
        ));
    }
    if e.errors != 0 {
        bad.push(format!("{} durable calls failed", e.errors));
    }
    if e.wal_records != e.appends {
        bad.push(format!(
            "wal records {} != appends {}",
            e.wal_records, e.appends
        ));
    }
    if e.wal_failures != 0 {
        bad.push(format!("{} WAL failures", e.wal_failures));
    }
    let mut pos = vec![
        u32::MAX;
        e.reopened_log
            .iter()
            .map(|b| b.0 as usize + 1)
            .max()
            .unwrap_or(0)
    ];
    for (i, b) in e.reopened_log.iter().enumerate() {
        pos[b.0 as usize] = i as u32;
    }
    for (caller, acks) in e.acks.iter().enumerate() {
        let mut last = None;
        for b in acks {
            let p = pos.get(b.0 as usize).copied().unwrap_or(u32::MAX);
            if p == u32::MAX {
                bad.push(format!("caller {caller}: acked {b} missing after reopen"));
                break;
            }
            if last.is_some_and(|l| l >= p) {
                bad.push(format!(
                    "caller {caller}: acked {b} recovered out of ack order"
                ));
                break;
            }
            last = Some(p);
        }
    }
    bad
}

/// `ghost_fork`: membership and tip after the appender and forker.
#[derive(Clone, Debug)]
pub struct ForkEvidence {
    /// Blocks committed before the timed phase (genesis excluded).
    pub base: usize,
    pub appends: usize,
    pub grafts: usize,
    /// Calls that returned anything but `Ok(Some(_))`.
    pub errors: u64,
    pub commit_log_len: usize,
    pub tip: BlockId,
    pub full_scan_tip: BlockId,
}

pub fn check_fork(e: &ForkEvidence) -> Vec<String> {
    let mut bad = Vec::new();
    if e.errors != 0 {
        bad.push(format!(
            "{} appends/grafts did not return Ok(Some)",
            e.errors
        ));
    }
    if e.commit_log_len != e.base + e.appends + e.grafts {
        bad.push(format!(
            "commit log length {} != {} + {} appends + {} grafts",
            e.commit_log_len, e.base, e.appends, e.grafts
        ));
    }
    if e.tip != e.full_scan_tip {
        bad.push(format!(
            "selected tip {} != full scan {}",
            e.tip, e.full_scan_tip
        ));
    }
    bad
}

/// Chained Protocol A rounds.
#[derive(Clone, Debug)]
pub struct ConsensusEvidence {
    /// Per-round Def. 4.1 evidence, in round order.
    pub reports: Vec<TreeConsensusReport>,
    /// The commit-log entries the rounds added.
    pub commit_log_tail: Vec<BlockId>,
    /// Calls that returned `Err`.
    pub errors: u64,
    pub fork_coherent: bool,
}

pub fn check_consensus(e: &ConsensusEvidence) -> Vec<String> {
    let mut bad = Vec::new();
    if e.errors != 0 {
        bad.push(format!("{} proposes returned Err", e.errors));
    }
    let mut decisions = Vec::with_capacity(e.reports.len());
    let mut anchor = e.reports.first().map(|r| r.anchor);
    for (round, r) in e.reports.iter().enumerate() {
        let props = [
            ("agreement", r.agreement()),
            ("validity", r.validity()),
            ("integrity", r.integrity()),
            ("termination", r.termination()),
            ("chained anchor", Some(r.anchor) == anchor),
        ];
        if let Some((name, _)) = props.iter().find(|(_, ok)| !ok) {
            bad.push(format!("round {round}: {name} violated"));
            break;
        }
        anchor = r.decided();
        decisions.extend(r.decided());
    }
    if e.commit_log_tail != decisions {
        bad.push(format!(
            "commit log ({} new entries) != decisions ({})",
            e.commit_log_tail.len(),
            decisions.len()
        ));
    }
    if !e.fork_coherent {
        bad.push("oracle is not fork-coherent".into());
    }
    bad
}
