//! Oracle-equivalence and degenerate-spectrum acceptance suite for the
//! certified top-k eigensolver (`ivmf_linalg::sym_eigen_topk`):
//!
//! * property tests over random symmetric and Gram matrices across sizes
//!   and `k` values assert the top-k eigenvalues match the full
//!   `sym_eigen` spectrum within tolerance, the eigenvectors are
//!   orthonormal, and every returned pair meets the certified residual
//!   bound `‖A v − λ v‖ ≤ tol·‖A‖_F`,
//! * degenerate spectra — repeated and clustered eigenvalues, the zero
//!   matrix, rank-deficient Grams with `k` past the rank, `k = n`,
//!   `k = 1` — are exercised explicitly,
//! * the clustered top of a power-law ratings Gram, which the `4k + 32`
//!   checkpoint cannot certify, certifies inside the default basis budget,
//!   and wherever the checkpoint does certify the default budget returns
//!   the very same bits,
//! * the fallback-to-full path demonstrably triggers on a starved basis,
//!   and with fallback disabled the typed `NoConvergence` error stays
//!   reachable.
//!
//! Everything here drives the solver through explicit [`TopkOptions`]
//! (never the `IVMF_TOPK_EIGEN` environment knob), so the suite asserts
//! the same behaviour under every CI environment pass.

use ivmf_data::synthetic::{generate_power_law, PowerLawConfig};
use ivmf_interval::CsrShardedIntervalMatrix;
use ivmf_linalg::eigen_sym::{sym_eigen, SymEigen};
use ivmf_linalg::random::{symmetric_matrix, uniform_matrix};
use ivmf_linalg::{
    sym_eigen_topk_report, sym_eigen_topk_with, LinalgError, Matrix, TopkOptions, DEFAULT_TOPK_TOL,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn forced() -> TopkOptions {
    TopkOptions::default().with_force(true)
}

/// Per-pair residual certification, recomputed from scratch — the bound
/// the solver claims for every answer, whichever path produced it.
fn assert_certified(a: &Matrix, eig: &SymEigen, context: &str) {
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
    for i in 0..eig.eigenvalues.len() {
        let v = eig.eigenvectors.col(i);
        let av = a.matvec(&v).unwrap();
        let r: f64 = av
            .iter()
            .zip(v.iter())
            .map(|(&x, &y)| (x - eig.eigenvalues[i] * y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            r <= DEFAULT_TOPK_TOL * scale,
            "{context}: pair {i} residual {r} exceeds {DEFAULT_TOPK_TOL}·‖A‖_F"
        );
    }
}

fn assert_orthonormal(q: &Matrix, tol: f64, context: &str) {
    let qtq = q.gram();
    assert!(
        qtq.approx_eq(&Matrix::identity(q.cols()), tol),
        "{context}: eigenvector columns are not orthonormal"
    );
}

fn assert_matches_oracle(a: &Matrix, eig: &SymEigen, k: usize, context: &str) {
    let full = sym_eigen(a).unwrap();
    let scale = a.frobenius_norm().max(1.0);
    for i in 0..k {
        let diff = (eig.eigenvalues[i] - full.eigenvalues[i]).abs();
        assert!(
            diff <= 1e-6 * scale,
            "{context}: eigenvalue {i} off by {diff} ({} vs oracle {})",
            eig.eigenvalues[i],
            full.eigenvalues[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn topk_matches_full_spectrum_on_random_symmetric(
        seed in 0u64..10_000,
        n in 4usize..40,
        k_raw in 1usize..40,
    ) {
        let k = k_raw.min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = symmetric_matrix(&mut rng, n, -2.0, 2.0);
        let (eig, report) = sym_eigen_topk_report(&a, k, &forced()).unwrap();
        prop_assert_eq!(eig.eigenvalues.len(), k);
        assert_matches_oracle(&a, &eig, k, "symmetric");
        assert_orthonormal(&eig.eigenvectors, 1e-8, "symmetric");
        assert_certified(&a, &eig, "symmetric");
        if !report.used_dense {
            // The reported residuals are the certificate the solver
            // actually checked: present for every pair and within bound.
            prop_assert_eq!(report.residuals.len(), k);
            let scale = a.frobenius_norm();
            prop_assert!(report
                .residuals
                .iter()
                .all(|&r| r <= DEFAULT_TOPK_TOL * scale));
        }
    }

    #[test]
    fn topk_matches_full_spectrum_on_random_grams(
        seed in 0u64..10_000,
        rows in 2usize..24,
        n in 4usize..36,
        k_raw in 1usize..36,
    ) {
        // Gram matrices of (often wide, hence rank-deficient) factors:
        // positive semi-definite with trailing zero eigenvalues.
        let k = k_raw.min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = uniform_matrix(&mut rng, rows, n, -1.0, 1.0).gram();
        let (eig, _) = sym_eigen_topk_report(&g, k, &forced()).unwrap();
        assert_matches_oracle(&g, &eig, k, "gram");
        assert_orthonormal(&eig.eigenvectors, 1e-8, "gram");
        assert_certified(&g, &eig, "gram");
        // PSD input: clamped eigenvalues stay essentially non-negative.
        let scale = g.frobenius_norm().max(1.0);
        prop_assert!(eig.eigenvalues.iter().all(|&l| l >= -1e-7 * scale));
    }
}

#[test]
fn zero_matrix_yields_certified_null_spectrum() {
    let (eig, report) = sym_eigen_topk_report(&Matrix::zeros(12, 12), 5, &forced()).unwrap();
    assert_eq!(eig.eigenvalues, vec![0.0; 5]);
    assert!(report.residuals.iter().all(|&r| r == 0.0));
    assert_orthonormal(&eig.eigenvectors, 1e-14, "zero matrix");
}

#[test]
fn repeated_eigenvalues_are_recovered_copy_by_copy() {
    // c·I: one distinct eigenvalue, so the Krylov space breaks down after
    // a single step and every further copy comes from a deterministic
    // restart. All five returned eigenvalues must equal c.
    let a = Matrix::identity(50).scale(3.0);
    let (eig, report) = sym_eigen_topk_report(&a, 5, &forced()).unwrap();
    assert!(!report.used_dense, "forced path must iterate");
    for &l in &eig.eigenvalues {
        assert!((l - 3.0).abs() < 1e-10, "expected 3.0, got {l}");
    }
    assert_orthonormal(&eig.eigenvectors, 1e-10, "repeated");
    assert_certified(&a, &eig, "repeated");
}

#[test]
fn multiplicity_inside_a_small_distinct_spectrum_is_resolved() {
    // diag(5, 5, 5, 2, …, 2, 1): three distinct eigenvalues, so breakdown
    // and restart recover the multiplicities; top-4 must be [5, 5, 5, 2].
    let n = 100;
    let a = Matrix::from_diag(
        &(0..n)
            .map(|i| {
                if i < 3 {
                    5.0
                } else if i < n - 1 {
                    2.0
                } else {
                    1.0
                }
            })
            .collect::<Vec<_>>(),
    );
    let (eig, report) = sym_eigen_topk_report(&a, 4, &forced()).unwrap();
    assert!(!report.used_dense);
    assert_matches_oracle(&a, &eig, 4, "multiplicity");
    assert_certified(&a, &eig, "multiplicity");
}

#[test]
fn clustered_eigenvalues_converge_within_tolerance() {
    // A tight (1e-3-wide) cluster at the top of the spectrum.
    let n = 100;
    let a = Matrix::from_diag(
        &(0..n)
            .map(|i| match i {
                0 => 5.0,
                1 => 5.0 - 1e-3,
                2 => 5.0 - 2e-3,
                _ => 1.0 / (i as f64),
            })
            .collect::<Vec<_>>(),
    );
    let (eig, _) = sym_eigen_topk_report(&a, 3, &forced()).unwrap();
    assert_matches_oracle(&a, &eig, 3, "clustered");
    assert_orthonormal(&eig.eigenvectors, 1e-8, "clustered");
    assert_certified(&a, &eig, "clustered");
}

#[test]
fn rank_deficient_gram_with_k_past_rank_pads_with_null_pairs() {
    let mut rng = SmallRng::seed_from_u64(41);
    // 130-dim Gram of rank <= 4.
    let g = uniform_matrix(&mut rng, 4, 130, -1.0, 1.0).gram();
    let (eig, report) = sym_eigen_topk_report(&g, 10, &forced()).unwrap();
    assert!(!report.used_dense);
    assert_matches_oracle(&g, &eig, 10, "rank-deficient");
    assert_certified(&g, &eig, "rank-deficient");
    let scale = g.frobenius_norm();
    for i in 4..10 {
        assert!(
            eig.eigenvalues[i].abs() <= 1e-7 * scale,
            "pair {i} should be numerically null, got {}",
            eig.eigenvalues[i]
        );
    }
}

#[test]
fn k_equal_n_returns_the_full_oracle_spectrum() {
    let mut rng = SmallRng::seed_from_u64(42);
    let a = symmetric_matrix(&mut rng, 17, -2.0, 2.0);
    let (eig, report) = sym_eigen_topk_report(&a, 17, &forced()).unwrap();
    assert!(report.used_dense, "k == n has nothing to truncate");
    assert!(!report.used_fallback);
    assert_eq!(eig.eigenvalues, sym_eigen(&a).unwrap().eigenvalues);
}

#[test]
fn k_equal_one_finds_the_dominant_pair() {
    let mut rng = SmallRng::seed_from_u64(43);
    // A planted spike separates the dominant eigenvalue from the bulk, so
    // the k=1 iteration converges well inside its (small, 4k+32) basis
    // cap; without separation the call would still be correct but through
    // the fallback path, which is covered elsewhere.
    let mut a = symmetric_matrix(&mut rng, 120, -2.0, 2.0);
    a[(0, 0)] += 80.0;
    let (eig, report) = sym_eigen_topk_report(&a, 1, &forced()).unwrap();
    assert!(!report.used_dense);
    assert_eq!(eig.eigenvalues.len(), 1);
    assert_matches_oracle(&a, &eig, 1, "k=1");
    assert_certified(&a, &eig, "k=1");
}

#[test]
fn starved_basis_triggers_fallback_to_the_full_solver() {
    let mut rng = SmallRng::seed_from_u64(44);
    let a = symmetric_matrix(&mut rng, 48, -2.0, 2.0);
    // A basis cap equal to k cannot certify a random spectrum.
    let opts = forced().with_max_basis(12);
    let (eig, report) = sym_eigen_topk_report(&a, 12, &opts).unwrap();
    assert!(report.used_fallback, "fallback must trigger");
    assert!(report.used_dense);
    assert!(report.residuals.is_empty());
    // The fallback runs the very same dense solve, so its eigenvalues are
    // bitwise equal to the truncated oracle's.
    assert_eq!(eig.eigenvalues, sym_eigen(&a).unwrap().eigenvalues[..12]);
    assert_certified(&a, &eig, "fallback");
}

#[test]
fn no_convergence_stays_reachable_and_typed_without_fallback() {
    let mut rng = SmallRng::seed_from_u64(44);
    let a = symmetric_matrix(&mut rng, 48, -2.0, 2.0);
    let opts = forced().with_max_basis(12).with_fallback(false);
    match sym_eigen_topk_with(&a, 12, &opts) {
        Err(LinalgError::NoConvergence {
            algorithm,
            iterations,
        }) => {
            assert_eq!(algorithm, "lanczos_topk");
            assert!(iterations > 0);
        }
        other => panic!("expected typed NoConvergence, got {other:?}"),
    }
}

/// One bound of the interval Gram of a power-law ratings matrix: its top
/// eigenvalues sit inside a dense cluster, the hard case for Lanczos.
fn power_law_gram_bound(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let csr = generate_power_law(&PowerLawConfig::ratings_like(rows, cols), &mut rng);
    let gram = CsrShardedIntervalMatrix::from_csr(&csr, rows)
        .unwrap()
        .interval_gram_streamed()
        .unwrap();
    gram.hi().clone()
}

#[test]
fn clustered_power_law_gram_certifies_past_the_checkpoint() {
    let g = power_law_gram_bound(4000, 320, 5);
    let k = 20;
    let checkpoint = 4 * k + 32;
    // The case really is hard: the old `4k + 32` cap cannot certify it.
    let starved = TopkOptions::default()
        .with_max_basis(checkpoint)
        .with_fallback(false);
    assert!(matches!(
        sym_eigen_topk_with(&g, k, &starved),
        Err(LinalgError::NoConvergence {
            algorithm: "lanczos_topk",
            ..
        })
    ));
    let (eig, report) = sym_eigen_topk_report(&g, k, &TopkOptions::default()).unwrap();
    assert!(!report.used_dense && !report.used_fallback, "{report:?}");
    assert!(report.basis_size > checkpoint, "{report:?}");
    assert_eq!(report.attempted_basis, report.basis_size);
    assert_matches_oracle(&g, &eig, k, "power-law gram");
    assert_certified(&g, &eig, "power-law gram");
}

#[test]
fn default_budget_preserves_answers_certified_at_the_checkpoint() {
    // Wherever the old `4k + 32` cap certifies, the larger default budget
    // must return the very same bits: it checks at that size too. At
    // k = 5 and k = 7 the checkpoint falls between two regular checks.
    let mut certified = [0; 3];
    let mut at_checkpoint = Vec::new();
    for (case, (k, n)) in [(5, 120), (7, 128), (20, 240)].into_iter().enumerate() {
        let checkpoint = 4 * k + 32;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // A bare random symmetric spectrum rarely certifies inside the
            // checkpoint; planted leading eigenvalues make it a useful case.
            let mut spiked = symmetric_matrix(&mut rng, n, -1.0, 1.0);
            for i in 0..k {
                spiked[(i, i)] += 30.0 + 3.0 * i as f64;
            }
            let inputs = [
                spiked,
                uniform_matrix(&mut rng, n + 40, n, -1.0, 1.0).gram(),
                uniform_matrix(&mut rng, n / 2, n, 0.0, 1.0).gram(),
            ];
            for a in &inputs {
                let capped = TopkOptions::default()
                    .with_max_basis(checkpoint)
                    .with_fallback(false);
                let Ok((old, old_report)) = sym_eigen_topk_report(a, k, &capped) else {
                    continue;
                };
                let (new, new_report) =
                    sym_eigen_topk_report(a, k, &TopkOptions::default()).unwrap();
                assert_eq!(new_report, old_report, "k={k} seed={seed}");
                assert_eq!(new.eigenvalues, old.eigenvalues, "k={k} seed={seed}");
                assert_eq!(
                    new.eigenvectors.as_slice(),
                    old.eigenvectors.as_slice(),
                    "k={k} seed={seed}"
                );
                certified[case] += 1;
                if old_report.basis_size == checkpoint {
                    at_checkpoint.push(k);
                }
            }
        }
    }
    assert!(certified.iter().all(|&c| c > 0), "{certified:?}");
    // The off-stride checkpoints themselves were exercised.
    assert!(at_checkpoint.contains(&5) && at_checkpoint.contains(&7));
}

#[test]
fn invalid_requests_are_rejected_with_typed_errors() {
    assert!(matches!(
        sym_eigen_topk_with(&Matrix::zeros(0, 0), 1, &TopkOptions::default()),
        Err(LinalgError::Empty)
    ));
    assert!(matches!(
        sym_eigen_topk_with(&Matrix::zeros(3, 4), 1, &TopkOptions::default()),
        Err(LinalgError::NotSquare { .. })
    ));
    assert!(matches!(
        sym_eigen_topk_with(&Matrix::identity(4), 0, &TopkOptions::default()),
        Err(LinalgError::InvalidArgument(_))
    ));
}
