//! Metric names, the result line, and the small measurement helpers every
//! workload shares (medians, peak RSS, factor hashing and checks).

use std::collections::BTreeMap;

use ivmf_core::accuracy::reconstruction_accuracy;
use ivmf_core::IntervalSvd;
use ivmf_interval::IntervalMatrix;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("matrices_per_s", "1/s"),
    ("accuracy_hm", "ratio"),
    ("rows_per_s", "rows/s"),
    ("checkpoint_mib", "MiB"),
    ("restart_ms", "ms"),
];

/// Stage names as `ivmf_core::StageId::name` prints them, in pipeline
/// order; each becomes a `stage.<name>_s` per-layer metric.
pub const STAGES: &[&str] = &[
    "midpoint",
    "midpoint_svd",
    "bound_svd",
    "svd_align",
    "interval_gram",
    "bound_eigen_lo",
    "bound_eigen_hi",
    "left_recover",
    "gram_align",
    "aligned_solve",
    "right_tighten",
];

/// Per-layer metrics (besides the `stage.*` ones), printed by every traced
/// run. A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("env.nproc", "count"),
    ("env.threads", "count"),
    ("env.prefetch_depth", "count"),
    ("env.steal_share", "ratio"),
    ("data.decode_s", "s"),
    ("data.passes", "count"),
    ("data.shards", "count"),
    ("data.bytes_read", "bytes"),
    ("prefetch.wait_s", "s"),
    ("prefetch.wait_share", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.retained_mib", "MiB"),
    ("gram.fold_s", "s"),
    ("gram.nnz_per_s", "1/s"),
    ("par.fold_speedup", "ratio"),
    ("eigen.topk_s", "s"),
    ("eigen.dense_solves", "count"),
    ("eigen.basis_size", "count"),
    ("svd.truncated_s", "s"),
    ("align.ilsa_s", "s"),
    ("recover.matmul_s", "s"),
    ("pipeline.open_s", "s"),
    ("target.renorm_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("unattributed_share", "ratio"),
    ("append.fold_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.restored", "count"),
    ("snapshot.dropped", "count"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Rank of every decomposition (the paper's default).
pub const RANK: usize = 20;

/// What a workload run produced: op counts, end-to-end values and
/// per-layer samples.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside any single op (restarts, cross-checks) that failed.
    other_failures: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, Vec<f64>>,
}

impl Outcome {
    /// Records one op's check result; a failed check is a failed op.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems.into_iter().take(3) {
                eprintln!("check failed: {p}");
            }
        }
    }

    /// Records a failed check that is not part of an op.
    pub fn fail(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.other_failures += 1;
    }

    /// Adds one sample of a per-layer metric; the run reports the median.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.entry(name.into()).or_default().push(value);
    }

    /// The median of a per-layer metric's samples, 0 when never sampled.
    pub fn layer_median(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |v| median(v))
    }

    /// Records the op-level end-to-end metrics from every op's latency
    /// (seconds) and the input rows it took through. Throughputs are the
    /// work of all ops over their summed latency: where the host's speed
    /// switches between levels for seconds at a time, the median op jumps
    /// from one level to the other between runs while the sum moves with
    /// the share of time spent at each.
    pub fn record_ops(&mut self, latencies: &[f64], rows: &[usize]) {
        let ms: Vec<String> = latencies
            .iter()
            .take(12)
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        eprintln!(
            "{} ops; latencies (ms, first 12): {}",
            latencies.len(),
            ms.join(" ")
        );
        let busy: f64 = latencies.iter().sum();
        let rows: usize = rows.iter().sum();
        self.e2e.insert("op_p50_ms", median(latencies) * 1e3);
        self.e2e
            .insert("matrices_per_s", latencies.len() as f64 / busy);
        self.e2e.insert("rows_per_s", rows as f64 / busy);
    }

    /// Prints the result line: every end-to-end metric untraced, every
    /// per-layer metric traced. A missing end-to-end metric is a bug in the
    /// workload and fails the run.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        let mut metrics = Vec::new();
        if traced {
            let stage_names: Vec<String> = STAGES.iter().map(|s| format!("stage.{s}_s")).collect();
            let all = PER_LAYER
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .chain(stage_names.into_iter().map(|n| (n, "s")));
            for (name, unit) in all {
                metrics.push((name.clone(), self.layer_median(&name), unit));
            }
        } else {
            for &(name, unit) in END_TO_END {
                let value = *self
                    .e2e
                    .get(name)
                    .ok_or_else(|| format!("workload did not measure {name}"))?;
                metrics.push((name.to_string(), value, unit));
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        let correct = self.failed == 0 && self.other_failures == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        Ok(())
    }
}

/// A JSON number with every digit Rust's shortest round-trip format gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of a sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Times `f` `times` times and returns the median duration in seconds plus
/// the last result.
pub fn repeat_setup<T>(
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // Free the previous repetition's data first, so every repetition
        // starts from the same memory state.
        drop(last.take());
        let t = std::time::Instant::now();
        let value = f()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((median(&secs), last.expect("at least one setup repetition")))
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// timed phase's peak is not the set-up's. Returns false where the kernel
/// does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`; the
/// first eight fields (user … steal) make up the total.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time the hypervisor gave to other guests since
/// `before` (a [`cpu_ticks`] reading): how much the host slowed this run.
pub fn steal_share(before: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(before.1);
    now.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Bitwise identity of a factorization: FNV-1a over every factor word.
pub fn svd_hash(s: &IntervalSvd) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: f64| {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for m in [s.u.lo(), s.u.hi(), s.v.lo(), s.v.hi()] {
        m.as_slice().iter().copied().for_each(&mut fold);
    }
    for iv in &s.sigma {
        fold(iv.lo());
        fold(iv.hi());
    }
    h
}

/// The output check every decomposition must pass: finite factors and a
/// core diagonal with `0 <= lo <= hi`.
pub fn check_factors(label: &str, s: &IntervalSvd) -> Option<String> {
    if s.u.has_non_finite() || s.v.has_non_finite() {
        return Some(format!("{label}: non-finite factor entries"));
    }
    for (i, iv) in s.sigma.iter().enumerate() {
        if !(iv.lo() >= 0.0 && iv.lo() <= iv.hi() && iv.hi().is_finite()) {
            return Some(format!(
                "{label}: sigma[{i}] = [{}, {}] is not a non-negative interval",
                iv.lo(),
                iv.hi()
            ));
        }
    }
    None
}

/// Definition-5 harmonic-mean accuracy of `s` on the first `rows.rows()`
/// rows of its input: reconstructs only those rows (the left factor's
/// leading rows against the full core and right factor).
pub fn accuracy_on_leading_rows(s: &IntervalSvd, rows: &IntervalMatrix) -> Result<f64, String> {
    let n = rows.rows();
    let u = IntervalMatrix::from_bounds(s.u.lo().take_rows(n), s.u.hi().take_rows(n))
        .map_err(|e| e.to_string())?;
    let head = IntervalSvd {
        target: s.target,
        u,
        sigma: s.sigma.clone(),
        v: s.v.clone(),
    };
    let rec = head.reconstruct().map_err(|e| e.to_string())?;
    reconstruction_accuracy(rows, &rec)
        .map(|a| a.harmonic_mean)
        .map_err(|e| e.to_string())
}

/// Checks a Definition-5 accuracy lies in `(0, 1]`.
pub fn check_accuracy(label: &str, acc: f64) -> Option<String> {
    if acc.is_finite() && acc > 0.0 && acc <= 1.0 {
        None
    } else {
        Some(format!("{label}: accuracy {acc} outside (0, 1]"))
    }
}

/// Size of a file in MiB.
pub fn file_mib(path: &std::path::Path) -> Result<f64, String> {
    std::fs::metadata(path)
        .map(|m| m.len() as f64 / (1024.0 * 1024.0))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Cumulative buffer-pool counters: `(hits, misses)` over both element
/// types.
pub fn pool_counts() -> (u64, u64) {
    let s = ivmf_linalg::pool::stats();
    (s.f64_hits + s.usize_hits, s.f64_misses + s.usize_misses)
}

/// Records one op's buffer-pool hit ratio (from the counters at its start)
/// and the capacity the pool retains after it.
pub fn record_pool(out: &mut Outcome, before: (u64, u64)) {
    let s = ivmf_linalg::pool::stats();
    let (hits, misses) = pool_counts();
    let (dh, dm) = (hits - before.0, misses - before.1);
    out.layer("pool.hit_ratio", dh as f64 / (dh + dm).max(1) as f64);
    let retained = (s.f64_retained_elems + s.usize_retained_elems) as f64 * 8.0;
    out.layer("pool.retained_mib", retained / (1024.0 * 1024.0));
}
