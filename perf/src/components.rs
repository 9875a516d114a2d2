//! Per-layer measurements made by calling a library crate's public
//! function directly on a workload's own data, outside the timed ops: the
//! sparse Gram fold, the top-k eigensolver, ILSA and the streamed CSR
//! products. The CSR workloads run them in a child process (see
//! `main.rs`), so their memory never counts towards the parent's peak RSS
//! and the default-thread fold behind `par.fold_speedup` runs the
//! identical code.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ivmf_align::{ilsa, Matcher};
use ivmf_interval::{CsrShardedIntervalMatrix, IntervalMatrix, SparseStreamingIntervalGram};
use ivmf_linalg::{
    matmul_left_streamed_csr, matmul_streamed_csr, sym_eigen_topk_report, Matrix, TopkOptions,
};

use crate::report::RANK;
use crate::trace;

/// Values a child process reports back, by per-layer metric name.
pub type Values = BTreeMap<String, f64>;

/// Folds every shard into the sparse streaming Gram accumulator and
/// finishes it; returns the fold time and the Gram.
pub fn gram_fold(m: &CsrShardedIntervalMatrix) -> Result<(f64, IntervalMatrix), String> {
    let _span = trace::span("gram.fold");
    let t = Instant::now();
    let mut acc = SparseStreamingIntervalGram::new(m.rows(), m.cols());
    for shard in m.shards() {
        acc.push_shard(shard).map_err(|e| e.to_string())?;
    }
    let gram = acc.finish().map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), gram))
}

/// The top-k eigensolver on both Gram bounds and ILSA between the two
/// eigenvector sets; fills `eigen.*` and `align.ilsa_s`.
pub fn eigen_and_align(gram: &IntervalMatrix, out: &mut Values) -> Result<(), String> {
    let opts = TopkOptions::default();
    let mut eigen_s = 0.0;
    let mut dense = 0.0;
    let mut basis = 0.0;
    let mut vectors = Vec::new();
    for bound in [gram.lo(), gram.hi()] {
        let _span = trace::span("eigen.topk");
        let t = Instant::now();
        let (eig, report) = sym_eigen_topk_report(bound, RANK, &opts).map_err(|e| e.to_string())?;
        eigen_s += t.elapsed().as_secs_f64();
        if report.used_dense || report.used_fallback {
            dense += 1.0;
        }
        basis += report.basis_size as f64;
        vectors.push(eig.eigenvectors);
    }
    let t = Instant::now();
    {
        let _span = trace::span("align.ilsa");
        black_box(ilsa(&vectors[0], &vectors[1], Matcher::default()).map_err(|e| e.to_string())?);
    }
    out.insert("align.ilsa_s".into(), t.elapsed().as_secs_f64());
    out.insert("eigen.topk_s".into(), eigen_s);
    out.insert("eigen.dense_solves".into(), dense);
    out.insert("eigen.basis_size".into(), basis / 2.0);
    Ok(())
}

/// The streamed CSR products with an `m × r` right-hand side and an
/// `r × n` left-hand side (the shapes of left-factor recovery and right
/// tightening); fills `recover.matmul_s`.
pub fn streamed_matmul(m: &CsrShardedIntervalMatrix, out: &mut Values) -> Result<(), String> {
    let rhs = probe_lhs(RANK, m.cols()).transpose();
    let lhs = probe_lhs(RANK, m.rows());
    let _span = trace::span("recover.matmul");
    let t = Instant::now();
    black_box(matmul_streamed_csr(&m.lo_blocks(), &rhs).map_err(|e| e.to_string())?);
    black_box(matmul_left_streamed_csr(&lhs, &m.lo_blocks()).map_err(|e| e.to_string())?);
    out.insert("recover.matmul_s".into(), t.elapsed().as_secs_f64());
    Ok(())
}

/// Every CSR-layer measurement on `m`: fold, eigen, ILSA, products.
pub fn csr_layers(m: &CsrShardedIntervalMatrix) -> Result<Values, String> {
    let mut out = Values::new();
    let (fold_s, gram) = gram_fold(m)?;
    out.insert("gram.fold_s".into(), fold_s);
    out.insert("gram.nnz_per_s".into(), m.nnz() as f64 / fold_s);
    eigen_and_align(&gram, &mut out)?;
    streamed_matmul(m, &mut out)?;
    Ok(out)
}

/// Formats values as one flat JSON object line.
pub fn to_json(values: &Values) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Parses the flat `{"name": number, ...}` line [`to_json`] writes.
pub fn from_json(line: &str) -> Result<Values, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut out = Values::new();
    for item in inner.split(',').filter(|s| !s.trim().is_empty()) {
        let (k, v) = item
            .split_once(':')
            .ok_or_else(|| format!("bad item {item:?}"))?;
        let key = k.trim().trim_matches('"').to_string();
        let value = v.trim().parse::<f64>().map_err(|e| format!("{key}: {e}"))?;
        out.insert(key, value);
    }
    Ok(out)
}

/// An `r × n` deterministic left-hand side for the streamed products
/// (values only need to be finite and non-trivial).
fn probe_lhs(r: usize, n: usize) -> Matrix {
    Matrix::from_fn(r, n, |i, j| (((i * 31 + j * 17) % 97) as f64 + 1.0) / 97.0)
}
