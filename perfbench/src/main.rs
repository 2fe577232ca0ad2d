//! End-to-end and per-layer benchmark of the concurrent BT-ADT:
//! `ConcurrentBlockTree` append/read, the WAL under it, and Protocol A
//! (`TreeConsensus` over a Θ_F,k=1 `SharedOracle`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ledger|durable_ledger|ghost_fork|consensus> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload is a closed loop in one
//! process with at most two threads, pinned to CPUs 0 and 1 so the guest
//! scheduler does not move them. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` spends half the time untraced (counters, and the
//! base of the tracing overhead) and half traced (spans around every
//! call plus the layer replays of `replay.rs`), and reports the
//! per-layer metrics. Spans are written to
//! `.bench_out/trace-<workload>-<seed>.csv`; WAL directories live in
//! `.bench_out/run-<pid>/` and are removed when the run ends.
//!
//! Per-trial figures are combined with an interquartile mean (see
//! [`measure::iqm`]). `durable_ledger` runs here but is not listed in
//! `BENCHMARK.json`: its figures follow the shared disk's fsync latency,
//! whose run-to-run spread (0.37 on appends/s, up to 1.2 on p99s over
//! five seeds) exceeds any bound the benchmark may set.
//!
//! Standard output: a provenance line, a samples line, and last a result
//! line `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check makes `correct` false and the exit code 1.

mod checks;
mod measure;
mod metrics;
mod replay;
mod workloads;

#[cfg(test)]
mod selftest;

use measure::{iqm, median, peak_rss_mb, Hist, Tracer};
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Acc, Env, Sizes, TempDir, Workload};

/// Untraced trials every run makes at least, whatever `--seconds` says.
const MIN_TRIALS: u32 = 3;
/// Spans the traced run keeps in memory (the rest are counted).
const RUN_SPAN_CAP: usize = 100_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One measured value with its unit.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Value>,
    pub provenance: String,
    pub samples: String,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name, v.value, v.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn flush_policy(w: Workload) -> &'static str {
    match w {
        Workload::DurableLedger => {
            "StdVfs WAL, one fdatasync per publication (fsync on), 1 MiB segments, \
             checkpoint floor 8192 records; base log written untimed with no_fsync()"
        }
        _ => "volatile tree (no WAL); the traced WAL replay fsyncs each batch",
    }
}

fn provenance(
    w: Workload,
    args_seed: u64,
    seconds: u64,
    trace: bool,
    sizes: &Sizes,
    acc: (&Acc, &Acc),
    nproc: usize,
) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \
         \"loop\": \"closed\", \"clients\": \"{}\", \"threads\": 2, \"sizes\": {}, \
         \"trials\": {}, \"traced_trials\": {}, \"flush_policy\": \"{}\", \
         \"oracle\": \"Theta_F,k=1 frugal, uniform(2) merits, rate {}\"}}}}",
        w.name(),
        args_seed,
        seconds,
        u8::from(trace),
        measure::git_rev(),
        measure::source_digest(),
        nproc,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        w.clients(),
        sizes.json(),
        acc.0.trials,
        acc.1.trials,
        flush_policy(w),
        workloads::ORACLE_RATE,
    )
}

fn samples_line(acc: &Acc) -> String {
    let tail = |h: &Hist, scale: f64| {
        let (label, v) = h.tail();
        format!(
            "{{\"n\": {}, \"tail\": \"{label}\", \"tail_value\": {}}}",
            h.count(),
            v / scale
        )
    };
    let failures: Vec<String> = acc.failures.iter().map(|f| format!("{f:?}")).collect();
    format!(
        "{{\"samples\": {{\"trials\": {}, \"setup\": {}, \"append_us\": {}, \"read_ns\": {}, \
         \"graft_us\": {}, \"decide_us\": {}}}, \"failures\": [{}]}}",
        acc.trials,
        acc.setup_s.len(),
        tail(&acc.append.pooled, 1e3),
        tail(&acc.read.pooled, 1.0),
        tail(&acc.graft.pooled, 1e3),
        tail(&acc.decide.pooled, 1e3),
        failures.join(", ")
    )
}

fn end_to_end(acc: &Acc) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", iqm(&acc.setup_s)),
        ("append_per_s", iqm(&acc.append_rate)),
        ("append_p50_us", iqm(&acc.append.p50) / 1e3),
        ("append_p99_us", iqm(&acc.append.p99) / 1e3),
        ("read_p50_ns", iqm(&acc.read.p50)),
        ("graft_p50_us", iqm(&acc.graft.p50) / 1e3),
        ("decide_per_s", iqm(&acc.decide_rate)),
        ("decide_p50_us", iqm(&acc.decide.p50) / 1e3),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Decided anchors `is_committed` lagged behind, over all untraced trials.
fn anchor_lags(plain: &Acc) -> f64 {
    plain
        .layer
        .get("tree_consensus.anchor_lags")
        .map_or(0.0, |v| v.iter().sum())
}

fn per_layer(w: Workload, plain: &Acc, traced: &Acc, tr: &Tracer) -> Vec<(&'static str, f64)> {
    let counter = |name: &str| {
        plain
            .layer
            .get(name)
            .or_else(|| traced.layer.get(name))
            .map_or(0.0, |v| median(v))
    };
    let per_call = |name: &str| tr.totals(name).per_call();
    let mint = per_call("sharded_store.mint_checked");
    let on_insert = per_call("tipcache.on_insert");
    // Flattening work per replayed (appended) block, not per flattened one.
    let flatten_per_append = tr.totals("sharded_store.flatten_some").ns
        / tr.totals("sharded_store.mint_checked").calls.max(1) as f64;
    let wal_fsync = per_call("wal.append_batch");
    let wal_nofsync = per_call("wal.append_batch_nofsync");
    let wal_per_append = if w == Workload::DurableLedger {
        wal_fsync * counter("concurrent.publications_per_append")
    } else {
        0.0
    };
    let own = |a: &Acc| match w {
        Workload::Consensus => iqm(&a.decide.p50),
        _ => iqm(&a.append.p50),
    };
    let spans: u64 = tr.totals.values().map(|t| t.spans).sum();
    let mut out = vec![
        (
            "concurrent.append_self_ns",
            per_call("append") - mint - on_insert - flatten_per_append - wal_per_append,
        ),
        ("sharded_store.mint_ns", mint),
        (
            "sharded_store.flatten_ns_per_block",
            per_call("sharded_store.flatten_some"),
        ),
        (
            "sharded_store.ancestor_at_ns",
            per_call("sharded_store.ancestor_at"),
        ),
        ("tipcache.on_insert_ns", on_insert),
        ("epoch.pin_ns", per_call("epoch.pin")),
        ("wal.append_batch_ns", wal_fsync),
        ("wal.append_batch_nofsync_ns", wal_nofsync),
        ("wal.fsync_ns", wal_fsync - wal_nofsync),
        ("wal.append_p99_us", traced.wal_batch.quantile(0.99) / 1e3),
        ("oracle.get_token_ns", per_call("oracle.get_token")),
        (
            "tree_consensus.winner_us",
            traced.winner.quantile(0.5) / 1e3,
        ),
        (
            "tree_consensus.loser_wait_us",
            traced.loser.quantile(0.5) / 1e3,
        ),
        (
            "trace.overhead_ratio",
            own(traced) / own(plain).max(f64::MIN_POSITIVE),
        ),
        ("trace.spans", spans as f64),
        ("tree_consensus.anchor_lags", anchor_lags(plain)),
        ("concurrent.read_p99_ns", iqm(&plain.read.p99)),
        ("tree_consensus.decide_p99_us", iqm(&plain.decide.p99) / 1e3),
    ];
    for m in metrics::PER_LAYER {
        if !out.iter().any(|(n, _)| *n == m.name) {
            out.push((m.name, counter(m.name)));
        }
    }
    out
}

/// Runs `w` for `seconds` (at least [`MIN_TRIALS`] untraced trials) with
/// per-run scratch under `out_dir`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    sizes: &Sizes,
    out_dir: &Path,
) -> Report {
    // Counted before the pin below narrows this thread's CPU set.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    measure::pin_thread(0);
    let origin = Instant::now();
    std::fs::create_dir_all(out_dir).expect("output directory can be created");
    let tmp = TempDir::create(out_dir.join(format!("run-{}", std::process::id())))
        .expect("run scratch directory can be created");
    let base = (w == Workload::DurableLedger).then(|| {
        workloads::write_durable_base(tmp.path(), seed, sizes.base)
            .expect("base log can be written")
    });
    let mut env = Env {
        sizes,
        tmp: tmp.path(),
        base: base.as_ref(),
        traced: false,
        origin,
        lane: 0,
    };
    let budget = Duration::from_secs(seconds);
    let plain_until = Instant::now() + if trace { budget / 2 } else { budget };
    let mut plain = Acc::default();
    let mut trial = 0u64;
    while plain.trials < MIN_TRIALS || Instant::now() < plain_until {
        workloads::run_trial(
            w,
            &env,
            measure::Rng::lane(seed, trial).next_u64(),
            &mut plain,
            &mut None,
        );
        trial += 1;
    }
    let mut traced = Acc::default();
    let mut tracer = Tracer::new(origin, 0, RUN_SPAN_CAP);
    if trace {
        env.traced = true;
        let until = origin + budget;
        while traced.trials == 0 || Instant::now() < until {
            env.lane = 4 * (trial + 1);
            let mut tr = Some(Tracer::new(origin, env.lane, RUN_SPAN_CAP));
            workloads::run_trial(
                w,
                &env,
                measure::Rng::lane(seed, trial).next_u64(),
                &mut traced,
                &mut tr,
            );
            tracer.absorb(tr.expect("the trial hands its tracer back"));
            trial += 1;
        }
    }
    let provenance = provenance(w, seed, seconds, trace, sizes, (&plain, &traced), nproc);
    let values = if trace {
        let path = out_dir.join(format!("trace-{}-{seed}.csv", w.name()));
        let mut header = format!("# {provenance}\n");
        for m in metrics::PER_LAYER {
            header += &format!(
                "# metric {} [{}, {} is better]: {}\n",
                m.name, m.unit, m.better, m.note
            );
        }
        if let Err(e) = tracer.write_csv(&path, &header) {
            plain.fail_all("trace output", vec![e.to_string()]);
        }
        per_layer(w, &plain, &traced, &tracer)
    } else {
        end_to_end(&plain)
    };
    let catalog = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut metrics = Vec::new();
    for m in catalog {
        let value = values.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
        match value {
            Some(v) if v.is_finite() => metrics.push(Value {
                name: m.name,
                unit: m.unit,
                value: v,
            }),
            _ => plain.fail_all("metrics", vec![format!("{} not measured", m.name)]),
        }
    }
    let lags = anchor_lags(&plain);
    if lags > 0.0 {
        eprintln!(
            "note: {lags} decided anchors were readable before is_committed reported them \
             (tree_consensus.anchor_lags)"
        );
    }
    let samples = samples_line(&plain);
    let failed = plain.failed + traced.failed;
    let mut failures = plain.failures;
    failures.extend(traced.failures);
    Report {
        correct: failed == 0,
        attempted: (plain.attempted + traced.attempted).max(1),
        failed,
        failures,
        metrics,
        provenance,
        samples,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <ledger|durable_ledger|ghost_fork|consensus> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let sizes = Sizes::full(args.workload);
    let report = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &sizes,
        Path::new(".bench_out"),
    );
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", report.provenance);
    println!("{}", report.samples);
    println!("{}", report.result_line());
    std::process::exit(if report.correct { 0 } else { 1 });
}
