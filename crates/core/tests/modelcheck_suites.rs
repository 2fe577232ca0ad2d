//! Model-checked concurrency suites for the commit pipeline's core
//! protocols. Build-gated: these only compile (and only make sense)
//! when the whole dep graph is built with the model cfg, which routes
//! `btadt_core::sync` through the instrumented primitives:
//!
//! ```text
//! RUSTFLAGS="--cfg btadt_model" cargo test -p btadt-core --test modelcheck_suites --release
//! ```
//!
//! Each target explores *every* interleaving within a preemption bound
//! and asserts an exploration certificate: exhaustive (`complete`) and
//! at least [`MIN_SCHEDULES`] distinct schedules, replayable from the
//! printed seed. Alongside each protocol target sits a *mutation*
//! target: the same kernel with the protocol's load-bearing line broken
//! the way a plausible refactor would break it, asserting the explorer
//! finds the bug and that the failing schedule replays deterministically
//! — the smoke test that the tool bites.
//!
//! The kernels for suites 2–3 mirror `concurrent.rs` line-for-line in
//! miniature (same lock split, same counters, same orderings) rather
//! than driving the full `ConcurrentBlockTree`, whose arena and scoring
//! machinery would multiply schedule points without adding
//! interleavings of the protocol under test. Suite 2 is every commit's
//! path: stage under `sel` (`commit_locked` → `stage_publication`), drop
//! `sel`, then `publish_staged`. Suite 1 drives the real `EpochDomain`.

#![cfg(btadt_model)]

use btadt_core::epoch::{EpochDomain, GRACE_EPOCHS};
use btadt_core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use btadt_core::sync::{thread, Condvar, Mutex};
use btadt_modelcheck::{explore, replay, timeouts_fired, Config, FailureKind, Report};
use std::sync::Arc;

/// Floor on distinct schedules per certified target — the "this was a
/// real exploration, not three lucky runs" bar from the PR acceptance.
const MIN_SCHEDULES: usize = 10_000;

/// Asserts the positive-target certificate and prints it (the printed
/// seed is what a developer pins to reproduce the enumeration order).
fn certify(report: &Report) {
    println!("{report}");
    if let Some(f) = &report.failure {
        panic!("{}: counterexample found: {}", report.name, f);
    }
    assert!(
        report.complete,
        "{}: exploration hit its schedule budget before exhausting the \
         preemption bound — raise max_schedules or shrink the kernel",
        report.name
    );
    assert!(
        report.schedules >= MIN_SCHEDULES,
        "{}: only {} schedules explored (< {MIN_SCHEDULES}); the kernel \
         no longer exercises enough interleavings to certify anything",
        report.name,
        report.schedules
    );
}

/// Asserts a mutation target bit: the explorer found a failure of the
/// expected kind and the failing schedule replays deterministically.
fn certify_bite<F>(report: &Report, want: &FailureKind, body: F)
where
    F: Fn() + Send + Sync + 'static,
{
    println!("{report}");
    let failure = report.failure.as_ref().unwrap_or_else(|| {
        panic!(
            "{}: mutant survived {} schedules",
            report.name, report.schedules
        )
    });
    assert_eq!(
        std::mem::discriminant(&failure.kind),
        std::mem::discriminant(want),
        "{}: wrong failure kind: {failure}",
        report.name
    );
    let replayed = replay(&report.name, failure.schedule.clone(), body).unwrap_or_else(|| {
        panic!(
            "{}: failing schedule did not replay: {failure}",
            report.name
        )
    });
    assert_eq!(
        std::mem::discriminant(&replayed.kind),
        std::mem::discriminant(want),
        "{}: replay reproduced a different failure: {replayed}",
        report.name
    );
}

// =====================================================================
// Suite 1: epoch pin / advance / retire — the grace period is honored.
// =====================================================================

const LIVE: u64 = 0xA11FE;
const FREED: u64 = 0xF4EED;

/// Two readers and one retirer against the *real* `EpochDomain`: a cell
/// is unlinked, its "free" (a poison store) deferred, and the domain
/// swept a full grace period. A reader that pinned and still saw the
/// cell linked must never observe the poison — no bag may be freed with
/// fewer than [`GRACE_EPOCHS`] epochs of grace past a live pin. After
/// all threads quiesce, the deferred free must actually have run.
fn epoch_grace_body() {
    btadt_core::epoch::reset_slot_hint_seed();
    let dom = Arc::new(EpochDomain::with_config(2, 0));
    let cell = Arc::new(AtomicU64::new(LIVE));
    let linked = Arc::new(AtomicUsize::new(1));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (dom, cell, linked) = (dom.clone(), cell.clone(), linked.clone());
            thread::spawn(move || {
                let guard = dom.pin();
                if linked.load(Ordering::SeqCst) == 1 {
                    // relaxed-free window: the unlink is not yet visible,
                    // so the grace period must still cover this load.
                    assert_eq!(
                        cell.load(Ordering::SeqCst),
                        LIVE,
                        "cell freed under a pin that saw it linked"
                    );
                }
                drop(guard);
            })
        })
        .collect();

    let retirer = {
        let (dom, cell, linked) = (dom.clone(), cell.clone(), linked.clone());
        thread::spawn(move || {
            linked.store(0, Ordering::SeqCst);
            let poison = cell.clone();
            dom.defer(0, move || poison.store(FREED, Ordering::SeqCst));
            for _ in 0..=GRACE_EPOCHS {
                dom.try_reclaim();
            }
        })
    };

    for r in readers {
        r.join();
    }
    retirer.join();
    // Quiescent now: a full sweep must free the deferred item — the
    // liveness half (grace delays reclamation, never loses it).
    dom.reclaim_quiescent();
    assert_eq!(
        cell.load(Ordering::SeqCst),
        FREED,
        "deferred free lost after quiescence"
    );
}

#[test]
fn epoch_grace_protects_pinned_readers() {
    let report = explore(Config::new("epoch-grace").preemptions(2), epoch_grace_body);
    certify(&report);
}

/// Mutation: a miniature EBR whose reclaimer honors a configurable
/// grace. At the real grace (2) it is clean; with the grace window
/// removed the explorer must find a reader holding a pin across the
/// free — the freed-while-pinned read the window exists to prevent.
struct MiniEbr {
    global: AtomicU64,
    slot: AtomicU64,
    bag: Mutex<Vec<(u64, Arc<AtomicU64>)>>,
    grace: u64,
}

impl MiniEbr {
    fn new(grace: u64) -> Self {
        MiniEbr {
            global: AtomicU64::new(0),
            slot: AtomicU64::new(0),
            bag: Mutex::new(Vec::new()),
            grace,
        }
    }

    fn pin(&self) -> u64 {
        let mut e = self.global.load(Ordering::SeqCst);
        loop {
            self.slot.store((e << 1) | 1, Ordering::SeqCst);
            let g = self.global.load(Ordering::SeqCst);
            if g == e {
                return e;
            }
            e = g;
        }
    }

    fn unpin(&self) {
        self.slot.store(0, Ordering::SeqCst);
    }

    fn retire(&self, cell: Arc<AtomicU64>) {
        let e = self.global.load(Ordering::SeqCst);
        self.bag.lock().push((e, cell));
    }

    fn reclaim(&self) {
        let g = self.global.load(Ordering::SeqCst);
        let v = self.slot.load(Ordering::SeqCst);
        if v == 0 || (v >> 1) == g {
            let _ = self
                .global
                .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        let g = self.global.load(Ordering::SeqCst);
        let grace = self.grace;
        self.bag.lock().retain(|(e, cell)| {
            if g.wrapping_sub(*e) >= grace {
                cell.store(FREED, Ordering::SeqCst);
                false
            } else {
                true
            }
        });
    }
}

fn mini_ebr_body(grace: u64) {
    let ebr = Arc::new(MiniEbr::new(grace));
    let cell = Arc::new(AtomicU64::new(LIVE));
    let linked = Arc::new(AtomicUsize::new(1));

    let reader = {
        let (ebr, cell, linked) = (ebr.clone(), cell.clone(), linked.clone());
        thread::spawn(move || {
            ebr.pin();
            if linked.load(Ordering::SeqCst) == 1 {
                assert_eq!(cell.load(Ordering::SeqCst), LIVE, "freed while pinned");
            }
            ebr.unpin();
        })
    };
    let retirer = {
        let (ebr, cell, linked) = (ebr.clone(), cell.clone(), linked.clone());
        thread::spawn(move || {
            linked.store(0, Ordering::SeqCst);
            ebr.retire(cell);
            for _ in 0..3 {
                ebr.reclaim();
            }
        })
    };
    reader.join();
    retirer.join();
}

#[test]
fn epoch_grace_mutant_is_caught() {
    // Sanity: the kernel itself is clean at the real grace.
    let clean = explore(Config::new("epoch-grace-kernel").preemptions(3), || {
        mini_ebr_body(GRACE_EPOCHS)
    });
    println!("{clean}");
    assert!(clean.failure.is_none(), "{}", clean.failure.unwrap());
    assert!(clean.complete);

    // Mutant: no grace window — free the instant the bag is swept.
    let report = explore(Config::new("epoch-no-grace").preemptions(3), || {
        mini_ebr_body(0)
    });
    certify_bite(&report, &FailureKind::Panic(String::new()), || {
        mini_ebr_body(0)
    });
}

// =====================================================================
// Suite 2: staged-publication FIFO — return-implies-coverage and a
// monotone `published_upto`.
// =====================================================================

/// The two-stage pipeline in miniature: `sel` guards the commit log and
/// staging order, `publ` guards publication; whoever holds `publ` pops
/// *all* staged batches and publishes them in order. Mirrors the one
/// commit path in `concurrent.rs`: `commit_locked` + `stage_publication`
/// under `sel`, then `publish_staged` once `sel` is dropped.
struct Pipe {
    sel: Mutex<u64>,
    staged: Mutex<Vec<u64>>,
    publ: Mutex<Vec<u64>>,
    staged_upto: AtomicU64,
    published_upto: AtomicU64,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            sel: Mutex::new(0),
            staged: Mutex::new(Vec::new()),
            publ: Mutex::new(Vec::new()),
            staged_upto: AtomicU64::new(0),
            published_upto: AtomicU64::new(0),
        }
    }

    /// Stage 1: commit one entry and stage its covering batch, under
    /// `sel` (staging order is commit-log order), then drop `sel` — no
    /// `publ` acquisition of any kind inside the region.
    fn commit_one(&self) -> u64 {
        let mut log_len = self.sel.lock();
        *log_len += 1;
        let upto = *log_len;
        self.staged.lock().push(upto);
        self.staged_upto.store(upto, Ordering::SeqCst);
        drop(log_len);
        upto
    }

    /// Stage 2: drain every staged batch under `publ`. The caught-up
    /// fast path is the same two-counter probe the real code uses, and
    /// an empty pop means a predecessor already published our batch.
    fn publish_staged(&self) {
        if self.published_upto.load(Ordering::SeqCst) >= self.staged_upto.load(Ordering::SeqCst) {
            return;
        }
        let mut chain = self.publ.lock();
        let batches = std::mem::take(&mut *self.staged.lock());
        if batches.is_empty() {
            return;
        }
        self.publish_batches(&mut chain, &batches);
    }

    /// The publication critical section: strictly increasing batches,
    /// watermark advanced per batch. Callers must hold `publ`.
    fn publish_batches(&self, chain: &mut Vec<u64>, batches: &[u64]) {
        for &upto in batches {
            let last = self.published_upto.load(Ordering::SeqCst);
            assert!(upto > last, "publication not monotone: {upto} after {last}");
            chain.push(upto);
            self.published_upto.store(upto, Ordering::SeqCst);
        }
    }

    /// Mutant stage 2: drains the staged queue *without* taking the
    /// publication lock — the refactor that "just publishes directly".
    fn publish_staged_unlocked(&self) {
        if self.published_upto.load(Ordering::SeqCst) >= self.staged_upto.load(Ordering::SeqCst) {
            return;
        }
        let batches = std::mem::take(&mut *self.staged.lock());
        let mut chain = Vec::new();
        self.publish_batches(&mut chain, &batches);
    }
}

fn staged_fifo_body(broken: bool) {
    let pipe = Arc::new(Pipe::new());
    let committers: Vec<_> = (0..2)
        .map(|_| {
            let pipe = pipe.clone();
            thread::spawn(move || {
                let upto = pipe.commit_one();
                if broken {
                    pipe.publish_staged_unlocked();
                } else {
                    pipe.publish_staged();
                }
                // Return-implies-coverage: our batch is published — by
                // us or by whichever thread drained it with its run.
                assert!(
                    pipe.published_upto.load(Ordering::SeqCst) >= upto,
                    "returned with own batch unpublished"
                );
            })
        })
        .collect();
    for c in committers {
        c.join();
    }
    assert_eq!(pipe.published_upto.load(Ordering::SeqCst), 2);
    assert!(pipe.staged.lock().is_empty(), "staged batch stranded");
}

#[test]
fn staged_publication_is_fifo_and_covering() {
    let report = explore(Config::new("staged-fifo").preemptions(4), || {
        staged_fifo_body(false)
    });
    certify(&report);
}

#[test]
fn staged_publication_mutant_is_caught() {
    let report = explore(Config::new("staged-fifo-unlocked").preemptions(4), || {
        staged_fifo_body(true)
    });
    certify_bite(&report, &FailureKind::Panic(String::new()), || {
        staged_fifo_body(true)
    });
}

// =====================================================================
// Suite 3: `wait_commit_past` — the lock-bridge publication notify
// cannot miss a waiter.
// =====================================================================

/// The generation-wait protocol in miniature, mirroring
/// `wait_commit_past` and the notify tail of `publish_batches_locked`:
/// waiters register in `gen_waiters` *before* probing, publishers bump
/// the generation and then bridge through `gen_lock` before notifying,
/// which orders the notify after any in-flight check-then-park.
struct GenWait {
    commit_gen: AtomicU64,
    gen_waiters: AtomicUsize,
    gen_lock: Mutex<()>,
    gen_cv: Condvar,
}

impl GenWait {
    fn new() -> Self {
        GenWait {
            commit_gen: AtomicU64::new(0),
            gen_waiters: AtomicUsize::new(0),
            gen_lock: Mutex::new(()),
            gen_cv: Condvar::new(),
        }
    }

    fn wait_past(&self, seen: u64) {
        self.gen_waiters.fetch_add(1, Ordering::SeqCst);
        let mut lk = self.gen_lock.lock();
        while self.commit_gen.load(Ordering::SeqCst) <= seen {
            lk = self.gen_cv.wait(lk);
        }
        drop(lk);
        self.gen_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// As the real code: a *timed* wait, so a missed wakeup shows up as
    /// the deadline becoming load-bearing rather than a hang. The model
    /// only fires a deadline when the system would otherwise deadlock
    /// and counts it in `timeouts_fired`.
    fn wait_past_timed(&self, seen: u64) {
        self.gen_waiters.fetch_add(1, Ordering::SeqCst);
        let mut lk = self.gen_lock.lock();
        while self.commit_gen.load(Ordering::SeqCst) <= seen {
            let (relk, timed_out) = self
                .gen_cv
                .wait_timeout(lk, std::time::Duration::from_millis(50));
            lk = relk;
            if timed_out {
                break;
            }
        }
        drop(lk);
        self.gen_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    fn publish(&self, bridge: bool) {
        self.commit_gen.fetch_add(1, Ordering::SeqCst);
        if self.gen_waiters.load(Ordering::SeqCst) > 0 {
            if bridge {
                // The bridge: orders this notify after any waiter that
                // probed the old generation and is about to park.
                drop(self.gen_lock.lock());
            }
            self.gen_cv.notify_all();
        }
    }
}

fn gen_wait_body(bridge: bool) {
    let gw = Arc::new(GenWait::new());
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let gw = gw.clone();
            thread::spawn(move || gw.wait_past(0))
        })
        .collect();
    let publisher = {
        let gw = gw.clone();
        thread::spawn(move || gw.publish(bridge))
    };
    for w in waiters {
        w.join();
    }
    publisher.join();
    assert_eq!(gw.commit_gen.load(Ordering::SeqCst), 1);
    assert_eq!(gw.gen_waiters.load(Ordering::SeqCst), 0);
}

#[test]
fn wait_commit_past_never_misses_a_wakeup() {
    let report = explore(Config::new("gen-wait").preemptions(3), || {
        gen_wait_body(true)
    });
    certify(&report);
}

/// The timed variant must pass *without the deadline ever firing*: the
/// timeout is a belt, not the protocol.
#[test]
fn wait_commit_past_timeout_is_never_load_bearing() {
    let report = explore(Config::new("gen-wait-timed").preemptions(3), || {
        let gw = Arc::new(GenWait::new());
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let gw = gw.clone();
                thread::spawn(move || gw.wait_past_timed(0))
            })
            .collect();
        let publisher = {
            let gw = gw.clone();
            thread::spawn(move || gw.publish(true))
        };
        for w in waiters {
            w.join();
        }
        publisher.join();
        assert_eq!(gw.commit_gen.load(Ordering::SeqCst), 1);
        assert_eq!(timeouts_fired(), 0, "deadline was load-bearing");
    });
    certify(&report);
}

#[test]
fn wait_commit_past_bridgeless_mutant_misses_wakeups() {
    let report = explore(Config::new("gen-wait-no-bridge").preemptions(4), || {
        gen_wait_body(false)
    });
    certify_bite(&report, &FailureKind::Deadlock, || gen_wait_body(false));
}
