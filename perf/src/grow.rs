//! `grow_checkpoint`: the write path. An in-memory CSR session over 40k×256
//! power-law rows (50 stored entries per row) with ISVD2 warmed in set-up.
//! One op appends a 512-row delta, refreshes ISVD2 and snapshots the
//! session to disk. Every 8th op is followed by a restart: a fresh session
//! over the same rows, `restore_from`, and ISVD2 served from the cache.
//!
//! Ops run in cycles of eight that each start from the set-up snapshot of
//! the base session, and the run only ends at a cycle boundary, so every
//! cycle does identical work and the last snapshot always covers the same
//! rows.

use std::time::Instant;

use ivmf_core::{IntervalSvd, IsvdAlgorithm, IsvdConfig, Pipeline};
use ivmf_data::synthetic::{generate_power_law, generate_power_law_sharded, PowerLawConfig};
use ivmf_interval::{configured_shard_rows, CsrIntervalShard, CsrShardedIntervalMatrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::components::{self, Values};
use crate::report::{self, check_factors, median, svd_hash, Outcome, RANK};
use crate::{trace, Args, StageTally};

const BASE_ROWS: usize = 40_000;
const COLS: usize = 256;
const NNZ_PER_ROW: usize = 50;
const DELTA_ROWS: usize = 512;
/// Ops per cycle; a restart follows the last op of every cycle.
const CYCLE: usize = 8;
const SETUP_REPEATS: usize = 3;

struct Data {
    base: CsrShardedIntervalMatrix,
    deltas: Vec<CsrIntervalShard>,
}

fn generate(seed: u64) -> Data {
    let mut rng = SmallRng::seed_from_u64(seed);
    let config = PowerLawConfig::ratings_like(BASE_ROWS, COLS).with_nnz_per_row(NNZ_PER_ROW);
    let base = generate_power_law_sharded(&config, configured_shard_rows(), &mut rng);
    let delta = PowerLawConfig::ratings_like(DELTA_ROWS, COLS).with_nnz_per_row(NNZ_PER_ROW);
    let deltas = (0..CYCLE)
        .map(|_| generate_power_law(&delta, &mut rng))
        .collect();
    Data { base, deltas }
}

/// Set-up: generate the rows, warm ISVD2 on the base session, and save the
/// base snapshot every cycle restarts from.
fn setup(args: &Args) -> Result<(Data, CsrShardedIntervalMatrix), String> {
    let data = generate(args.seed);
    let mut full = data.base.clone();
    for d in &data.deltas {
        full.append_rows(d.clone()).map_err(|e| e.to_string())?;
    }
    let mut base = Pipeline::from_csr_shards(data.base.clone(), IsvdConfig::new(RANK))
        .map_err(|e| e.to_string())?;
    base.run(IsvdAlgorithm::Isvd2).map_err(|e| e.to_string())?;
    base.snapshot_to(args.workdir.join("base.snap"))
        .map_err(|e| e.to_string())?;
    Ok((data, full))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, (data, full)) = report::repeat_setup(SETUP_REPEATS, || setup(args))?;
    out.e2e.insert("setup_s", setup_s);
    let base_snap = args.workdir.join("base.snap");
    let live_snap = args.workdir.join("live.snap");
    let config = IsvdConfig::new(RANK);
    report::reset_peak_rss();

    let mut latencies = Vec::new();
    let mut op_rows = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut restarts = Vec::new();
    let mut cycle_hash: Option<u64> = None;
    let mut op_index = 0usize;
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Back to the warmed base session (not timed as an op).
        let rows = data.base.clone();
        let t = Instant::now();
        let mut live = Pipeline::from_csr_shards(rows, config).map_err(|e| e.to_string())?;
        if args.trace {
            out.layer("pipeline.open_s", t.elapsed().as_secs_f64());
        }
        let report = live.restore_from(&base_snap).map_err(|e| e.to_string())?;
        if !report.checksum_ok || report.dropped != 0 || !report.gram_restored {
            out.fail(format!("base snapshot restore: {report:?}"));
        }
        let mut last_hash = None;
        for delta in &data.deltas {
            let delta = delta.clone();
            let traced_op = args.trace && op_index % 2 == 1;
            trace::set_enabled(traced_op);
            let mut tally = StageTally::default();
            let mut problems = Vec::new();
            let pool_before = report::pool_counts();
            let t = Instant::now();
            let op = {
                let _span = trace::span("op");
                one_op(&mut live, delta, &live_snap, &mut tally)
            };
            let wall = t.elapsed().as_secs_f64();
            trace::set_enabled(false);
            // Output checks stay outside the op's wall time.
            match op {
                Ok(factors) => match check_factors("ISVD2", &factors) {
                    Some(p) => problems.push(p),
                    None => last_hash = Some(svd_hash(&factors)),
                },
                Err(e) => problems.push(e),
            }
            if traced_op {
                tally.record(&mut out, wall);
                report::record_pool(&mut out, pool_before);
                out.layer("append.fold_ms", tally.append_s * 1e3);
                out.layer("snapshot.write_ms", tally.snapshot_s * 1e3);
                traced_ms.push(wall * 1e3);
            } else if args.trace {
                untraced_ms.push(wall * 1e3);
            }
            op_rows.push(live.shape().0);
            latencies.push(wall);
            out.op(problems);
            op_index += 1;
        }
        let Some(hash) = last_hash else { continue };
        match cycle_hash {
            None => {
                cycle_hash = Some(hash);
                let result = live.run(IsvdAlgorithm::Isvd2).map_err(|e| e.to_string())?;
                let head = data.base.shards()[0].to_dense();
                let acc = report::accuracy_on_leading_rows(&result.factors, &head)?;
                if let Some(p) = report::check_accuracy("grow_checkpoint", acc) {
                    out.fail(p);
                }
                out.e2e.insert("accuracy_hm", acc);
                out.e2e
                    .insert("checkpoint_mib", report::file_mib(&live_snap)?);
            }
            Some(h) if h != hash => {
                out.fail("a cycle's ISVD2 differs bitwise from the first cycle's".into())
            }
            Some(_) => {}
        }
        drop(live);
        let rows = full.clone();
        restarts.push(crate::restart(&mut out, hash, &live_snap, || {
            Pipeline::from_csr_shards(rows, config).map_err(|e| e.to_string())
        })?);
    }
    out.e2e.insert("peak_rss_mib", report::peak_rss_mib());

    out.record_ops(&latencies, &op_rows);
    out.e2e.insert("restart_ms", median(&restarts) * 1e3);

    if args.trace {
        out.layer("trace.overhead", median(&traced_ms) / median(&untraced_ms));
        let layers = crate::child(args, "components", false, None)?;
        let parallel = crate::child(args, "fold", true, None)?;
        crate::merge_layers(&mut out, &layers, &parallel);
    }
    Ok(out)
}

/// One op: append the delta (incremental Gram fold), refresh ISVD2, write
/// the snapshot. Returns the refreshed factors.
fn one_op(
    live: &mut Pipeline<'static>,
    delta: CsrIntervalShard,
    snap: &std::path::Path,
    tally: &mut StageTally,
) -> Result<IntervalSvd, String> {
    let t = Instant::now();
    {
        let _span = trace::span("append");
        live.append_rows_csr(delta).map_err(|e| e.to_string())?;
    }
    tally.append_s += t.elapsed().as_secs_f64();
    let result = {
        let _span = trace::span("pipeline.run");
        live.run(IsvdAlgorithm::Isvd2).map_err(|e| e.to_string())?
    };
    tally.add(&result);
    let t = Instant::now();
    {
        let _span = trace::span("snapshot.write");
        live.snapshot_to(snap).map_err(|e| e.to_string())?;
    }
    tally.snapshot_s += t.elapsed().as_secs_f64();
    Ok(result.factors)
}

/// Child-process side: regenerate the base rows and measure the CSR
/// layers on them.
pub fn child(args: &Args, kind: &str) -> Result<Values, String> {
    let data = generate(args.seed);
    if kind == "fold" {
        let (fold_s, _) = components::gram_fold(&data.base)?;
        return Ok(Values::from([("gram.fold_s".to_string(), fold_s)]));
    }
    components::csr_layers(&data.base)
}
