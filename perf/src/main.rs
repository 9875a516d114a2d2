//! The repository benchmark.
//!
//! ```text
//! ivmf-perf --workload <paper_roster|ooc_csr|grow_checkpoint> --seed <n>
//!           --seconds <s> --trace <0|1> [--workdir <dir>]
//! ```
//!
//! Each workload is a closed loop with one caller: set-up (repeated, the
//! median reported as `setup_s`), then ops back to back for `--seconds`,
//! every op's output checked. The last stdout line is the JSON result:
//! end-to-end metrics untraced, per-layer metrics with `--trace 1`. The
//! traced run records spans around the library calls the benchmark makes
//! and writes them to `.bench_out/` when it ends. Files the run needs on
//! disk live in the per-process `--workdir`, removed on exit.

mod components;
mod grow;
mod ooc;
mod report;
mod roster;
mod source;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use ivmf_core::{IsvdAlgorithm, IsvdResult, Pipeline};

use components::Values;
use report::{svd_hash, Outcome, STAGES};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
    /// Set in a child process: which measurement to make.
    child: Option<String>,
    /// ISVD2 hash a `components` child cross-checks against.
    pub expect: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?.clone();
    if !["paper_roster", "ooc_csr", "grow_checkpoint"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = match flags.get("seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None => 10.0,
    };
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let workdir = flags.get("workdir").map_or_else(
        || PathBuf::from(".bench_tmp").join(std::process::id().to_string()),
        PathBuf::from,
    );
    let expect = match flags.get("expect") {
        Some(s) => Some(s.parse().map_err(|e| format!("--expect: {e}"))?),
        None => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        workdir,
        child: flags.get("child").cloned(),
        expect,
    })
}

/// Stage accounting of one op: what the pipeline reports per stage plus
/// the pieces the benchmark times itself inside the op.
#[derive(Default)]
pub struct StageTally {
    /// Constructor time, for ops that open a session.
    pub open_s: Option<f64>,
    stages: BTreeMap<&'static str, f64>,
    renorm_s: f64,
    hits: u64,
    misses: u64,
    /// Benchmark-timed work inside the op outside the pipeline (scoring).
    pub other_s: f64,
    pub append_s: f64,
    pub snapshot_s: f64,
}

impl StageTally {
    pub fn add(&mut self, r: &IsvdResult) {
        for ev in &r.stages {
            *self.stages.entry(ev.stage.name()).or_default() += ev.duration.as_secs_f64();
        }
        self.renorm_s += r.timings.renormalization.as_secs_f64();
        self.hits += u64::from(r.timings.cache_hits);
        self.misses += u64::from(r.timings.cache_misses);
    }

    /// Records the op's per-layer samples, including the share of its wall
    /// time no measurement accounts for.
    pub fn record(&self, out: &mut Outcome, wall: f64) {
        if let Some(open_s) = self.open_s {
            out.layer("pipeline.open_s", open_s);
        }
        for s in STAGES {
            out.layer(
                format!("stage.{s}_s"),
                self.stages.get(s).copied().unwrap_or(0.0),
            );
        }
        out.layer("target.renorm_s", self.renorm_s);
        out.layer("cache.hits", self.hits as f64);
        out.layer("cache.misses", self.misses as f64);
        let attributed = self.open_s.unwrap_or(0.0)
            + self.stages.values().sum::<f64>()
            + self.renorm_s
            + self.other_s
            + self.append_s
            + self.snapshot_s;
        out.layer("unattributed_share", 1.0 - attributed / wall);
    }
}

/// A restart: a fresh session from `open`, `restore_from(snap)`, then ISVD2
/// served from the restored cache. Checks the restore was clean, ISVD2
/// missed nothing, and its factors equal the live session's
/// (`expect_hash`). Returns the restart's wall time in seconds.
pub fn restart<'m>(
    out: &mut Outcome,
    expect_hash: u64,
    snap: &Path,
    open: impl FnOnce() -> Result<Pipeline<'m>, String>,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut p = {
        let _span = trace::span("pipeline.open");
        open()?
    };
    let t_restore = Instant::now();
    let report = {
        let _span = trace::span("snapshot.restore");
        p.restore_from(snap).map_err(|e| e.to_string())?
    };
    let restore_s = t_restore.elapsed().as_secs_f64();
    let result = {
        let _span = trace::span("pipeline.run");
        p.run(IsvdAlgorithm::Isvd2).map_err(|e| e.to_string())?
    };
    let secs = t.elapsed().as_secs_f64();
    out.layer("snapshot.restore_ms", restore_s * 1e3);
    out.layer("snapshot.restored", report.restored as f64);
    out.layer("snapshot.dropped", report.dropped as f64);
    if !report.checksum_ok || report.dropped != 0 {
        out.fail(format!("restart restore: {report:?}"));
    }
    if result.timings.cache_misses != 0 {
        out.fail(format!(
            "restart ISVD2 recomputed {} stages",
            result.timings.cache_misses
        ));
    }
    if svd_hash(&result.factors) != expect_hash {
        out.fail("restarted ISVD2 differs bitwise from the live session".into());
    }
    Ok(secs)
}

/// Runs this binary as a child process making one layer measurement
/// (`components` or `fold`) for the current workload, and returns the
/// values it reports. The child inherits the run's compute threads (one,
/// see [`pin_one_thread`]), or with `default_threads` runs with the
/// library's default count (the machine's available parallelism).
pub fn child(
    args: &Args,
    kind: &str,
    default_threads: bool,
    expect: Option<u64>,
) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--workdir")
        .arg(&args.workdir)
        .args(["--child", kind])
        .stdout(Stdio::piped());
    if let Some(h) = expect {
        cmd.args(["--expect", &h.to_string()]);
    }
    if default_threads {
        cmd.env_remove(ivmf_env::THREADS);
    }
    let output = cmd.output().map_err(|e| format!("child {kind}: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {kind} failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("child {kind} printed nothing"))?;
    components::from_json(line)
}

/// Folds a `components` child's values (measured with the run's one
/// compute thread) and the default-thread `fold` child's fold time into
/// the per-layer metrics.
pub fn merge_layers(out: &mut Outcome, layers: &Values, parallel: &Values) {
    for (k, v) in layers {
        if k != "crosscheck_ok" {
            out.layer(k.clone(), *v);
        }
    }
    if let (Some(one), Some(default)) = (layers.get("gram.fold_s"), parallel.get("gram.fold_s")) {
        out.layer("par.fold_speedup", one / default);
    }
}

/// Removes the per-process work directory when the run ends, however it
/// ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run_child(args: &Args, kind: &str) -> Result<(), String> {
    trace::set_enabled(args.trace);
    let values = match args.workload.as_str() {
        "ooc_csr" => ooc::child(args, kind)?,
        "grow_checkpoint" => grow::child(args, kind)?,
        w => return Err(format!("{w} has no child measurements")),
    };
    trace::set_enabled(false);
    if args.trace {
        write_trace(args, &format!("-{kind}"), &trace::take());
    }
    println!("{}", components::to_json(&values));
    Ok(())
}

fn write_trace(args: &Args, suffix: &str, spans: &[trace::Span]) {
    let path = Path::new(".bench_out").join(format!(
        "trace-{}-seed{}{suffix}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = trace::write_jsonl(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Prints the traced run's per-span table (count, total and self time per
/// op) ahead of the result line.
fn print_layer_table(spans: &[trace::Span], out: &Outcome) {
    let ops = spans.iter().filter(|s| s.name == "op").count().max(1) as f64;
    println!(
        "{:<22} {:>8} {:>12} {:>12}",
        "span", "count", "total_s/op", "self_s/op"
    );
    for (name, t) in trace::totals(spans) {
        println!(
            "{name:<22} {:>8} {:>12.6} {:>12.6}",
            t.count,
            t.total_s / ops,
            t.self_s / ops
        );
    }
    println!(
        "unattributed_share {:.4} (median over traced ops)",
        out.layer_median("unattributed_share")
    );
}

/// Runs the CSR workloads with one compute thread (`IVMF_THREADS=1`, also
/// inherited by their child processes); `paper_roster` keeps the library
/// default. Measured on a 2-vCPU shared VM, the two kinds of op react to
/// the host in opposite ways. The CSR ops' parallel folds wait at every
/// join while the host runs something else on one vCPU: with two threads
/// their median latencies spread 20-37% (interquartile range over median,
/// ten runs) and with one under 9%. The small `paper_roster` op takes the
/// speed of whichever vCPU it runs on, which switches for seconds at a
/// time: over eight interleaved pairs of runs its median moved between
/// 8.4 and 12.3 ms with one thread and between 11.8 and 12.8 ms with two.
/// `par.fold_speedup` still times the fold with the default count. Call
/// before any thread starts.
fn pin_one_thread(workload: &str) {
    if workload != "paper_roster" {
        std::env::set_var(ivmf_env::THREADS, "1");
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(kind) = args.child.clone() {
        return run_child(&args, &kind);
    }
    pin_one_thread(&args.workload);
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("{}: {e}", args.workdir.display()))?;
    let _cleanup = WorkDir(args.workdir.clone());

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ivmf_par::configured_threads();
    let prefetch = ivmf_env::prefetch();
    println!(
        "workload={} seed={} nproc={nproc} threads={threads} prefetch_depth={prefetch} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let ticks = report::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "paper_roster" => roster::run(&args)?,
        "ooc_csr" => ooc::run(&args)?,
        _ => grow::run(&args)?,
    };
    out.layer("env.nproc", nproc as f64);
    out.layer("env.threads", threads as f64);
    out.layer("env.prefetch_depth", prefetch as f64);
    let steal = report::steal_share(ticks);
    println!("host steal share over the run: {steal:.4}");
    out.layer("env.steal_share", steal);
    if args.trace {
        let spans = trace::take();
        out.layer("trace.spans", spans.len() as f64);
        print_layer_table(&spans, &out);
        write_trace(&args, "", &spans);
    }
    out.print(args.trace)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ivmf-perf: {e}");
        std::process::exit(1);
    }
}
