//! `paper_roster`: the paper's own experiment loop. Each op takes a fresh
//! 40×250 uniform interval matrix (the Table 1 defaults), builds one
//! pipeline session, runs ISVD0–4 for targets a/b/c (the 15 results of
//! Fig. 6) and scores every result with Definition 5.

use std::hint::black_box;
use std::time::Instant;

use ivmf_align::{ilsa, Matcher};
use ivmf_core::accuracy::reconstruction_accuracy;
use ivmf_core::{DecompositionTarget, IsvdAlgorithm, IsvdConfig, Pipeline};
use ivmf_data::synthetic::{generate_uniform, SyntheticConfig};
use ivmf_interval::IntervalMatrix;
use ivmf_linalg::svd::svd_truncated;
use ivmf_linalg::{sym_eigen_topk_report, TopkOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{self, check_accuracy, check_factors, median, svd_hash, Outcome, RANK};
use crate::{trace, Args, StageTally};

/// Distinct matrices generated in set-up; ops cycle through them.
const POOL: usize = 128;
/// Set-up repetitions behind the reported `setup_s` median.
const SETUP_REPEATS: usize = 5;
/// Sessions snapshotted before the timed loop; restarts cycle through
/// their snapshots.
const CHECKPOINTS: usize = 16;
/// Timed ops between two restarts. Spreading the restarts over the run
/// lets their median sample the same stretch of the host as the ops'.
const RESTART_EVERY: usize = 8;

const TARGETS: [DecompositionTarget; 3] = [
    DecompositionTarget::IntervalAll,
    DecompositionTarget::IntervalCore,
    DecompositionTarget::Scalar,
];

fn generate_pool(seed: u64) -> Vec<IntervalMatrix> {
    let config = SyntheticConfig::paper_default();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..POOL)
        .map(|_| generate_uniform(&config, &mut rng))
        .collect()
}

/// One op: a fresh session over `m`, the 15-result roster, and the
/// accuracy of each result. Returns the accuracies and the session.
fn roster<'m>(
    m: &'m IntervalMatrix,
    tally: &mut StageTally,
    problems: &mut Vec<String>,
) -> Result<(Vec<f64>, Pipeline<'m>), String> {
    let config = IsvdConfig::new(RANK);
    let t = Instant::now();
    let mut pipeline = {
        let _span = trace::span("pipeline.open");
        Pipeline::new(m, config).map_err(|e| e.to_string())?
    };
    tally.open_s = Some(t.elapsed().as_secs_f64());
    let mut accuracies = Vec::with_capacity(15);
    for algorithm in IsvdAlgorithm::all() {
        for target in TARGETS {
            let label = format!("{algorithm}/{target:?}");
            let result = {
                let _span = trace::span("pipeline.run");
                pipeline.run_with_target(algorithm, target)
            };
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            tally.add(&result);
            problems.extend(check_factors(&label, &result.factors));
            let t = Instant::now();
            let _span = trace::span("accuracy");
            let acc = result
                .factors
                .reconstruct()
                .map_err(|e| e.to_string())
                .and_then(|rec| reconstruction_accuracy(m, &rec).map_err(|e| e.to_string()));
            tally.other_s += t.elapsed().as_secs_f64();
            match acc {
                Ok(a) => {
                    problems.extend(check_accuracy(&label, a.harmonic_mean));
                    accuracies.push(a.harmonic_mean);
                }
                Err(e) => problems.push(format!("{label}: accuracy: {e}")),
            }
        }
    }
    Ok((accuracies, pipeline))
}

/// The layer calls ISVD0/1 and the Gram route make, timed directly on the
/// op's matrix: truncated SVDs of the midpoint and both bounds, ILSA on
/// the bound SVDs, and the top-k eigensolver on both Gram bounds.
fn component_layers(
    m: &IntervalMatrix,
    pipeline: &mut Pipeline<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = Instant::now();
    let svds = {
        let _span = trace::span("svd.truncated");
        let mid = svd_truncated(&m.mid(), RANK).map_err(|e| e.to_string())?;
        let lo = svd_truncated(m.lo(), RANK).map_err(|e| e.to_string())?;
        let hi = svd_truncated(m.hi(), RANK).map_err(|e| e.to_string())?;
        black_box(mid);
        (lo, hi)
    };
    out.layer("svd.truncated_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    {
        let _span = trace::span("align.ilsa");
        black_box(ilsa(&svds.0.v, &svds.1.v, Matcher::default()).map_err(|e| e.to_string())?);
    }
    out.layer("align.ilsa_s", t.elapsed().as_secs_f64());
    let gram = pipeline.interval_gram().map_err(|e| e.to_string())?;
    let (mut eigen_s, mut dense, mut basis) = (0.0, 0.0, 0.0);
    for bound in [gram.lo(), gram.hi()] {
        let _span = trace::span("eigen.topk");
        let t = Instant::now();
        let (eig, report) = sym_eigen_topk_report(bound, RANK, &TopkOptions::default())
            .map_err(|e| e.to_string())?;
        black_box(eig);
        eigen_s += t.elapsed().as_secs_f64();
        dense += f64::from(u8::from(report.used_dense || report.used_fallback));
        basis += report.basis_size as f64;
    }
    out.layer("eigen.topk_s", eigen_s);
    out.layer("eigen.dense_solves", dense);
    out.layer("eigen.basis_size", basis / 2.0);
    Ok(())
}

/// A snapshot of a session with every algorithm cached: its matrix, its
/// file, and the ISVD2 hash a restart from it must reproduce.
type Checkpoint<'a> = (&'a IntervalMatrix, std::path::PathBuf, u64);

/// Snapshots sessions over the first [`CHECKPOINTS`] matrices with every
/// algorithm's stages cached. Restarts cycle through these snapshots, so
/// no single file's or buffer's placement in memory sets their median.
/// Runs before the op loop.
fn checkpoints<'a>(
    args: &Args,
    pool: &'a [IntervalMatrix],
    out: &mut Outcome,
) -> Result<Vec<Checkpoint<'a>>, String> {
    let config = IsvdConfig::new(RANK);
    let mut snapshots = Vec::new();
    for (k, m) in pool.iter().take(CHECKPOINTS).enumerate() {
        let snap = args.workdir.join(format!("roster-{k}.snap"));
        let mut live = Pipeline::new(m, config).map_err(|e| e.to_string())?;
        live.run_all().map_err(|e| e.to_string())?;
        let isvd2 = live.run(IsvdAlgorithm::Isvd2).map_err(|e| e.to_string())?;
        let t = Instant::now();
        {
            let _span = trace::span("snapshot.write");
            live.snapshot_to(&snap).map_err(|e| e.to_string())?;
        }
        out.layer("snapshot.write_ms", t.elapsed().as_secs_f64() * 1e3);
        snapshots.push((m, snap, svd_hash(&isvd2.factors)));
    }
    out.e2e
        .insert("checkpoint_mib", report::file_mib(&snapshots[0].1)?);
    Ok(snapshots)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, pool) = report::repeat_setup(SETUP_REPEATS, || Ok(generate_pool(args.seed)))?;
    out.e2e.insert("setup_s", setup_s);
    let snapshots = checkpoints(args, &pool, &mut out)?;
    let config = IsvdConfig::new(RANK);
    report::reset_peak_rss();

    let mut latencies = Vec::new();
    let mut restarts = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut first_pass_acc = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < RESTART_EVERY || start.elapsed().as_secs_f64() < args.seconds {
        let m = &pool[i % POOL];
        // The traced run alternates untraced and traced ops, so the two
        // medians give the tracing overhead.
        let traced_op = args.trace && i % 2 == 1;
        trace::set_enabled(traced_op);
        let mut tally = StageTally::default();
        let mut problems = Vec::new();
        let pool_before = report::pool_counts();
        let t = Instant::now();
        let op = {
            let _span = trace::span("op");
            roster(m, &mut tally, &mut problems)
        };
        let wall = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        match op {
            Ok((accs, mut pipeline)) => {
                if accs.len() != 15 {
                    problems.push(format!("only {} of 15 results scored", accs.len()));
                }
                if i < POOL {
                    first_pass_acc.extend(accs);
                }
                if traced_op {
                    tally.record(&mut out, wall);
                    report::record_pool(&mut out, pool_before);
                    trace::set_enabled(true);
                    component_layers(m, &mut pipeline, &mut out)?;
                    trace::set_enabled(false);
                }
            }
            Err(e) => problems.push(e),
        }
        latencies.push(wall);
        if args.trace {
            if traced_op {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(wall * 1e3);
        }
        out.op(problems);
        i += 1;
        if i % RESTART_EVERY == 0 {
            let (m, snap, expect) = &snapshots[(i / RESTART_EVERY) % CHECKPOINTS];
            restarts.push(crate::restart(&mut out, *expect, snap, || {
                Pipeline::new(m, config).map_err(|e| e.to_string())
            })?);
        }
    }
    out.e2e.insert("peak_rss_mib", report::peak_rss_mib());
    out.e2e.insert("restart_ms", median(&restarts) * 1e3);

    out.record_ops(&latencies, &vec![pool[0].rows(); latencies.len()]);
    out.e2e.insert(
        "accuracy_hm",
        first_pass_acc.iter().sum::<f64>() / first_pass_acc.len().max(1) as f64,
    );
    if args.trace {
        out.layer("trace.overhead", median(&traced_ms) / median(&untraced_ms));
    }
    Ok(out)
}
