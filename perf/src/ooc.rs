//! `ooc_csr`: the out-of-core path. Set-up writes an 80k×512 power-law
//! ratings-like CSR matrix to disk once, as a binary shard container in
//! 4096-row shards. Each op opens a `CsrShardReader`, builds a prefetching
//! streaming session and runs ISVD2, ISVD3 and ISVD4: the fingerprint,
//! the Gram and the three streamed stages (left recovery, aligned solve,
//! right tightening) decode the whole container eight times per op, as
//! the traced run's `data.passes` counts.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ivmf_core::{IsvdAlgorithm, IsvdConfig, IsvdResult, Pipeline};
use ivmf_data::prefetch::PrefetchCsrSource;
use ivmf_data::stream::{load_csr_sharded, CsrShardReader, CsrShardWriter};
use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use ivmf_env::ShardFormat;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::components::{self, Values};
use crate::report::{self, check_factors, median, svd_hash, Outcome, RANK};
use crate::source::{SourceStats, TimedSource};
use crate::{trace, Args, StageTally};

const ROWS: usize = 80_000;
const COLS: usize = 512;
/// Rows per record of the on-disk container.
const CONTAINER_SHARD_ROWS: usize = 4096;
const SETUP_REPEATS: usize = 3;
/// Restarts from the warm-up op's snapshot after each timed op.
const RESTARTS_PER_OP: usize = 2;
const ALGORITHMS: [IsvdAlgorithm; 3] = [
    IsvdAlgorithm::Isvd2,
    IsvdAlgorithm::Isvd3,
    IsvdAlgorithm::Isvd4,
];

pub fn container_path(workdir: &Path) -> PathBuf {
    workdir.join("ooc.ivmfshards")
}

fn write_container(seed: u64, path: &Path) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let whole = generate_power_law(&PowerLawConfig::ratings_like(ROWS, COLS), &mut rng);
    let mut w = CsrShardWriter::create_with_format(path, ROWS, COLS, ShardFormat::Binary)
        .map_err(|e| e.to_string())?;
    let mut start = 0;
    while start < ROWS {
        let end = (start + CONTAINER_SHARD_ROWS).min(ROWS);
        let shard = whole.row_slice(start, end).map_err(|e| e.to_string())?;
        w.push_shard(&shard).map_err(|e| e.to_string())?;
        start = end;
    }
    w.finish().map_err(|e| e.to_string())
}

fn open_reader(path: &Path) -> Result<CsrShardReader, String> {
    CsrShardReader::open_env(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The timing adapters of a traced session: around the disk reader
/// (decode) and around the prefetching source (the pipeline's wait).
struct Probes {
    decode: Arc<SourceStats>,
    wait: Arc<SourceStats>,
    container_bytes: f64,
}

impl Probes {
    fn record(&self, out: &mut Outcome, wall: f64) {
        let passes = self.decode.resets() as f64;
        out.layer("data.decode_s", self.decode.seconds());
        out.layer("data.passes", passes);
        out.layer("data.shards", self.decode.shards() as f64);
        out.layer("data.bytes_read", passes * self.container_bytes);
        out.layer("prefetch.wait_s", self.wait.seconds());
        out.layer("prefetch.wait_share", self.wait.seconds() / wall);
    }
}

/// A streaming session built exactly as `Pipeline::new_streaming_csr_send`
/// builds it, plus the timing adapters when traced.
fn open_session(path: &Path, traced: bool) -> Result<(Pipeline<'static>, Option<Probes>), String> {
    let config = IsvdConfig::new(RANK);
    let reader = open_reader(path)?;
    if !traced {
        let p = Pipeline::new_streaming_csr_send(Box::new(reader), config);
        return Ok((p.map_err(|e| e.to_string())?, None));
    }
    let (inner, decode) = TimedSource::new(reader, "data.next_shard");
    let prefetch = PrefetchCsrSource::from_env(Box::new(inner));
    let (outer, wait) = TimedSource::new(prefetch, "prefetch.next_shard");
    let probes = Probes {
        decode,
        wait,
        container_bytes: std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64,
    };
    let p = Pipeline::new_streaming_csr(Box::new(outer), config).map_err(|e| e.to_string())?;
    Ok((p, Some(probes)))
}

/// One op: open the container, build the session, run ISVD2–4.
fn session(
    path: &Path,
    traced: bool,
    tally: &mut StageTally,
) -> Result<(Vec<IsvdResult>, Pipeline<'static>, Option<Probes>), String> {
    let t = Instant::now();
    let (mut pipeline, probes) = {
        let _span = trace::span("pipeline.open");
        open_session(path, traced)?
    };
    tally.open_s = Some(t.elapsed().as_secs_f64());
    let mut results = Vec::new();
    for algorithm in ALGORITHMS {
        let _span = trace::span("pipeline.run");
        let r = pipeline
            .run(algorithm)
            .map_err(|e| format!("{algorithm}: {e}"))?;
        tally.add(&r);
        results.push(r);
    }
    Ok((results, pipeline, probes))
}

/// Mean Definition-5 accuracy of the results on the container's first
/// 4096 rows.
fn leading_accuracy(path: &Path, results: &[IsvdResult]) -> Result<f64, String> {
    let mut reader = CsrShardReader::open(path, CONTAINER_SHARD_ROWS).map_err(|e| e.to_string())?;
    let head = reader
        .read_shard()
        .map_err(|e| e.to_string())?
        .ok_or("empty container")?
        .to_dense();
    let mut sum = 0.0;
    for r in results {
        sum += report::accuracy_on_leading_rows(&r.factors, &head)?;
    }
    Ok(sum / results.len() as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = container_path(&args.workdir);
    let (setup_s, ()) = report::repeat_setup(SETUP_REPEATS, || write_container(args.seed, &path))?;
    out.e2e.insert("setup_s", setup_s);

    let mut latencies = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut restarts = Vec::new();
    let snap = args.workdir.join("ooc.snap");
    let mut first: Option<Vec<u64>> = None;
    let mut start = Instant::now();
    // Op 0 is a checked warm-up, outside the timing and the peak-RSS mark:
    // the first session fills the buffer pool and the allocator's heap,
    // and its peak varies by tens of MiB from run to run. Its session is
    // the snapshot every restart restores.
    let mut i = 0usize;
    while i < if args.trace { 3 } else { 2 } || start.elapsed().as_secs_f64() < args.seconds {
        if i == 1 {
            report::reset_peak_rss();
            start = Instant::now();
        }
        let traced_op = args.trace && i % 2 == 0 && i > 0;
        trace::set_enabled(traced_op);
        let mut tally = StageTally::default();
        let pool_before = report::pool_counts();
        let t = Instant::now();
        let op = {
            let _span = trace::span("op");
            session(&path, traced_op, &mut tally)
        };
        let wall = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let mut problems = Vec::new();
        match op {
            Ok((results, pipeline, probes)) => {
                let hashes: Vec<u64> = results.iter().map(|r| svd_hash(&r.factors)).collect();
                for (a, r) in ALGORITHMS.iter().zip(&results) {
                    problems.extend(check_factors(a.name(), &r.factors));
                }
                match &first {
                    None => {
                        let acc = leading_accuracy(&path, &results)?;
                        problems.extend(report::check_accuracy("ooc_csr", acc));
                        out.e2e.insert("accuracy_hm", acc);
                        first = Some(hashes.clone());
                        let t = Instant::now();
                        pipeline.snapshot_to(&snap).map_err(|e| e.to_string())?;
                        out.layer("snapshot.write_ms", t.elapsed().as_secs_f64() * 1e3);
                        out.e2e.insert("checkpoint_mib", report::file_mib(&snap)?);
                    }
                    Some(h) if *h != hashes => {
                        problems.push("results differ bitwise from the run's first op".into())
                    }
                    Some(_) => {}
                }
                if traced_op {
                    tally.record(&mut out, wall);
                    if let Some(probes) = probes {
                        probes.record(&mut out, wall);
                    }
                    report::record_pool(&mut out, pool_before);
                }
            }
            Err(e) => problems.push(e),
        }
        if i > 0 {
            latencies.push(wall);
        }
        if args.trace && i > 0 {
            if traced_op {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(wall * 1e3);
        }
        out.op(problems);
        // Restarts run between the timed ops, so their median samples the
        // same stretch of the run as the ops' median.
        let Some(expect) = first.as_ref().map(|h| h[0]) else {
            return Err("the warm-up op failed; nothing to restart from".into());
        };
        if i > 0 {
            for _ in 0..RESTARTS_PER_OP {
                restarts.push(crate::restart(&mut out, expect, &snap, || {
                    open_session(&path, false).map(|(p, _)| p)
                })?);
            }
        }
        i += 1;
    }
    out.e2e.insert("peak_rss_mib", report::peak_rss_mib());
    std::fs::remove_file(&snap).ok();
    out.e2e.insert("restart_ms", median(&restarts) * 1e3);

    out.record_ops(&latencies, &vec![ROWS; latencies.len()]);

    if args.trace {
        out.layer("trace.overhead", median(&traced_ms) / median(&untraced_ms));
        let expect = first.as_ref().map(|h| h[0]);
        let layers = crate::child(args, "components", false, expect)?;
        let parallel = crate::child(args, "fold", true, None)?;
        if layers.get("crosscheck_ok") != Some(&1.0) {
            out.fail("ISVD2 differs bitwise from an in-memory new_sparse session".into());
        }
        crate::merge_layers(&mut out, &layers, &parallel);
    }
    Ok(out)
}

/// Child-process side: load the container into memory and measure the
/// CSR layers; with `expect`, also cross-check ISVD2 bitwise against an
/// in-memory sparse session over the same shards.
pub fn child(args: &Args, kind: &str) -> Result<Values, String> {
    let path = container_path(&args.workdir);
    let m = load_csr_sharded(&path, CONTAINER_SHARD_ROWS).map_err(|e| e.to_string())?;
    if kind == "fold" {
        let (fold_s, _) = components::gram_fold(&m)?;
        return Ok(Values::from([("gram.fold_s".to_string(), fold_s)]));
    }
    let mut values = components::csr_layers(&m)?;
    if let Some(expect) = args.expect {
        let mut p = Pipeline::new_sparse(&m, IsvdConfig::new(RANK)).map_err(|e| e.to_string())?;
        let r = p.run(IsvdAlgorithm::Isvd2).map_err(|e| e.to_string())?;
        let ok = svd_hash(&r.factors) == expect;
        values.insert("crosscheck_ok".into(), f64::from(u8::from(ok)));
    }
    Ok(values)
}
