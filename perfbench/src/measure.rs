//! Measurement primitives: a log-linear latency histogram, the span
//! recorder behind the traced run, a seeded generator, and the process
//! probes (peak RSS, provenance) stamped into every output.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness. Every input a
/// workload hands the program is drawn from one of these, seeded from
/// `--seed`, so the same seed gives the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`.
    pub fn lane(seed: u64, lane: u64) -> Self {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-buckets per power of two above [`EXACT`]: relative bucket width
/// below 1/128.
const SUB_BITS: u32 = 7;
/// Values below this are counted exactly (1 ns buckets).
const EXACT: u64 = 256;
const BUCKETS: usize = EXACT as usize + (64 - 8) * (1 << SUB_BITS);

/// Log-linear latency histogram over nanoseconds: fixed memory however
/// many samples a closed loop produces, < 0.8% bucket width, quantiles
/// interpolated by rank inside the bucket.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= 8
        let mant = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        EXACT as usize + ((e - 8) as usize) * (1 << SUB_BITS) + mant as usize
    }

    /// `[lo, hi)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < EXACT as usize {
            return (i as f64, i as f64 + 1.0);
        }
        let k = i - EXACT as usize;
        let e = (k >> SUB_BITS) as u32 + 8;
        let mant = (k & ((1 << SUB_BITS) - 1)) as u64;
        let width = 1u64 << (e - SUB_BITS);
        let lo = ((1u64 << SUB_BITS) + mant) * width;
        (lo as f64, (lo + width) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn record_since(&mut self, t0: Instant, t1: Instant) {
        self.record((t1 - t0).as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in ns (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let (lo, hi) = Self::bounds(i);
                return lo + (hi - lo) * ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            }
            seen += c;
        }
        Self::bounds(BUCKETS - 1).1
    }

    /// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
    /// beyond it, as `(label, ns)`.
    pub fn tail(&self) -> (&'static str, f64) {
        for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
            if (self.n as f64) * (1.0 - q) >= 10.0 {
                return (label, self.quantile(q));
            }
        }
        ("p50", self.quantile(0.5))
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of a sample (all of
/// it below four values; 0 for an empty one). Trial values on a shared
/// machine are a mixture of fast and slow phases that last a few seconds;
/// unlike the median, this moves in proportion to the mixture instead of
/// jumping between the phases, and unlike the mean it ignores the odd
/// stalled trial.
pub fn iqm(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// One recorded span: a timed call made by the benchmark into a layer of
/// the program. `parent` is the enclosing span (0 = none); spans of one
/// operation share `op`. `calls` > 1 marks a span timing a batch of
/// identical sub-microsecond calls, reported per call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

/// Per-name running totals, kept for every span whether or not the span
/// itself fits in the buffer.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    pub spans: u64,
    pub calls: u64,
    pub ns: f64,
}

impl SpanTotals {
    /// Mean ns per call (0 if never called).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// In-memory span recorder. One per thread (no sharing on the hot path);
/// merged and written out when the run ends. Stores at most `cap` spans
/// and counts the rest, so a closed loop's span volume cannot grow
/// without bound; the per-name totals always cover every span.
pub struct Tracer {
    origin: Instant,
    id_base: u64,
    next: u64,
    cap: usize,
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    /// `lane` keeps span ids of different threads disjoint.
    pub fn new(origin: Instant, lane: u64, cap: usize) -> Self {
        Tracer {
            origin,
            id_base: lane << 40,
            next: 1,
            cap,
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        t0: Instant,
        t1: Instant,
        calls: u32,
    ) {
        let id = self.open();
        self.close(id, name, parent, op, t0, t1, calls);
    }

    /// Reserves an id for a span whose end is not known yet (a parent
    /// that must be referenced by its children); close it with
    /// [`close`](Self::close).
    pub fn open(&mut self) -> u64 {
        let id = self.id_base | self.next;
        self.next += 1;
        id
    }

    /// Records the span reserved by [`open`](Self::open).
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        op: u64,
        t0: Instant,
        t1: Instant,
        calls: u32,
    ) {
        let start_ns = (t0 - self.origin).as_nanos() as u64;
        let end_ns = (t1 - self.origin).as_nanos() as u64;
        let t = self.totals.entry(name).or_default();
        t.spans += 1;
        t.calls += calls as u64;
        t.ns += (end_ns - start_ns) as f64;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
                calls,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.spans += t.spans;
            mine.calls += t.calls;
            mine.ns += t.ns;
        }
        let room = self.cap.saturating_sub(self.spans.len());
        let keep = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - keep) as u64;
        self.spans.extend(other.spans.into_iter().take(keep));
    }

    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).cloned().unwrap_or_default()
    }

    /// Writes every kept span as CSV below `header` (`#` comment lines).
    pub fn write_csv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{header}")?;
        writeln!(out, "# dropped_spans={}", self.dropped)?;
        writeln!(out, "id,parent,op,name,start_ns,end_ns,calls")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to `cpu` (best effort: ignored where the CPU
/// is not available to this process).
pub fn pin_thread(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized CPU set for the duration
    // of the call, and pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kb / 1024.0
}

/// The commit the checkout was made from, read from `.git` in the
/// working directory without running git (and without looking above
/// it); `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's Rust sources (`crates/*/src`, sorted by
/// path): identifies the measured code where no git metadata exists.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for krate in ["core", "oracle", "registers"] {
        walk(&Path::new("crates").join(krate).join("src"), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q={q}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.tail().0, "p99.9");
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            123_456,
            u32::MAX as u64,
            u64::MAX / 3,
        ] {
            let (lo, hi) = Hist::bounds(Hist::index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v}: [{lo}, {hi})");
        }
    }

    #[test]
    fn iqm_ignores_the_outer_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn tracer_keeps_totals_past_its_cap() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1, 2);
        for _ in 0..5 {
            let now = Instant::now();
            t.record("x", 0, 0, now, now, 4);
        }
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.totals("x").calls, 20);
    }
}
