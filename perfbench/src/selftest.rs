//! Smoke-size self-test of the benchmark: every metric `BENCHMARK.json`
//! names is emitted with its unit on every workload, every workload
//! passes its checks, and every check fails on a corrupted result.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml`

use crate::checks::*;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Sizes, Workload};
use btadt_core::ids::BlockId;
use btadt_registers::TreeConsensusReport;
use std::path::{Path, PathBuf};

/// `(name, unit, better)` of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list is closed")];
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    body.split('{')
        .filter_map(|obj| {
            Some((
                field(obj, "name")?,
                field(obj, "unit")?,
                field(obj, "better")?,
            ))
        })
        .collect()
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".bench_out")
}

#[test]
fn catalog_matches_benchmark_json() {
    for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let mut want: Vec<(String, String, String)> = catalog
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        let mut got = declared(section);
        want.sort();
        got.sort();
        assert_eq!(got, want, "{section} in BENCHMARK.json vs the catalog");
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = crate::run(w, 7, 0, trace, &Sizes::smoke(w), &out_dir());
            assert!(
                report.correct,
                "{} (trace {trace}) failed its checks: {:?}",
                w.name(),
                report.failures
            );
            let mut got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|v| (v.name.to_string(), v.unit.to_string()))
                .collect();
            let mut want: Vec<(String, String)> = declared(section)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} (trace {trace})", w.name());
            let line = report.result_line();
            for (name, unit) in &want {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": "))
                        && line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} missing from {line}"
                );
            }
        }
    }
}

#[test]
fn per_layer_notes_name_the_end_to_end_metric_they_move() {
    for m in PER_LAYER {
        let Some((_, target)) = m.note.split_once("-> ") else {
            continue;
        };
        assert!(
            target.starts_with("failed share")
                || END_TO_END.iter().any(|e| target.starts_with(e.name)),
            "{}: {target}",
            m.name
        );
    }
}

fn b(i: u32) -> BlockId {
    BlockId(i)
}

#[test]
fn ledger_check_rejects_corruption() {
    let ok = LedgerEvidence {
        appends: 10,
        acked: 10,
        final_len: 15,
        len_before: 5,
        tip: b(14),
        full_scan_tip: b(14),
        reader_regressions: 0,
    };
    assert!(check_ledger(&ok).is_empty());
    let bad = [
        LedgerEvidence {
            acked: 9,
            ..ok.clone()
        },
        LedgerEvidence {
            final_len: 14,
            ..ok.clone()
        },
        LedgerEvidence {
            full_scan_tip: b(13),
            ..ok.clone()
        },
        LedgerEvidence {
            reader_regressions: 1,
            ..ok.clone()
        },
    ];
    for e in &bad {
        assert!(!check_ledger(e).is_empty(), "{e:?} passed");
    }
}

#[test]
fn durable_check_rejects_corruption() {
    let ok = DurableEvidence {
        base_written: vec![(b(1), 11), (b(2), 22)],
        base_recovered: vec![(b(1), 11), (b(2), 22)],
        acks: vec![vec![b(3), b(5)], vec![b(4)]],
        errors: 0,
        appends: 3,
        wal_records: 3,
        wal_failures: 0,
        reopened_log: vec![b(1), b(2), b(3), b(4), b(5)],
    };
    assert!(check_durable(&ok).is_empty());
    let bad = [
        DurableEvidence {
            base_recovered: vec![(b(1), 11), (b(2), 23)],
            ..ok.clone()
        },
        DurableEvidence {
            errors: 1,
            ..ok.clone()
        },
        DurableEvidence {
            wal_records: 2,
            ..ok.clone()
        },
        DurableEvidence {
            wal_failures: 1,
            ..ok.clone()
        },
        DurableEvidence {
            reopened_log: vec![b(1), b(2), b(3), b(4)],
            ..ok.clone()
        },
        DurableEvidence {
            reopened_log: vec![b(1), b(2), b(5), b(4), b(3)],
            ..ok.clone()
        },
    ];
    for e in &bad {
        assert!(!check_durable(e).is_empty(), "{e:?} passed");
    }
}

#[test]
fn fork_check_rejects_corruption() {
    let ok = ForkEvidence {
        base: 4,
        appends: 10,
        grafts: 3,
        errors: 0,
        commit_log_len: 17,
        tip: b(9),
        full_scan_tip: b(9),
    };
    assert!(check_fork(&ok).is_empty());
    let bad = [
        ForkEvidence {
            errors: 1,
            ..ok.clone()
        },
        ForkEvidence {
            commit_log_len: 16,
            ..ok.clone()
        },
        ForkEvidence {
            full_scan_tip: b(8),
            ..ok.clone()
        },
    ];
    for e in &bad {
        assert!(!check_fork(e).is_empty(), "{e:?} passed");
    }
}

#[test]
fn consensus_check_rejects_corruption() {
    let round = |anchor: u32, won: u32, lost: u32| TreeConsensusReport {
        anchor: b(anchor),
        decisions: vec![b(won), b(won)],
        minted: vec![Some(b(won)), Some(b(lost))],
        grafted: vec![true, false],
    };
    let ok = ConsensusEvidence {
        reports: vec![round(0, 1, 2), round(1, 3, 4)],
        commit_log_tail: vec![b(1), b(3)],
        errors: 0,
        fork_coherent: true,
    };
    assert!(check_consensus(&ok).is_empty());
    let mut disagree = ok.clone();
    disagree.reports[1].decisions[1] = b(4);
    let mut invalid = ok.clone();
    invalid.reports[0].decisions = vec![b(9), b(9)];
    let mut twice = ok.clone();
    twice.reports[1].grafted = vec![true, true];
    let mut missing = ok.clone();
    missing.reports[0].minted.pop();
    let mut unchained = ok.clone();
    unchained.reports[1].anchor = b(2);
    let bad = [
        disagree,
        invalid,
        twice,
        missing,
        unchained,
        ConsensusEvidence {
            commit_log_tail: vec![b(1), b(4)],
            ..ok.clone()
        },
        ConsensusEvidence {
            errors: 1,
            ..ok.clone()
        },
        ConsensusEvidence {
            fork_coherent: false,
            ..ok.clone()
        },
    ];
    for e in &bad {
        assert!(!check_consensus(e).is_empty(), "{e:?} passed");
    }
}
