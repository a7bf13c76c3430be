//! Property-based tests over the kernel library's algebraic invariants.

use sysds_common::testing::{check, Gen};
use sysds_tensor::kernels::{aggregate, elementwise, gen, indexing, matmult, reorg, tsmm};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;

const CASES: u64 = 48;

/// A random matrix of bounded shape with the given sparsity.
fn mat(g: &mut Gen, max_dim: usize, sparsity: f64) -> Matrix {
    let (r, c, seed) = (g.usize(1..=max_dim), g.usize(1..=max_dim), g.u64());
    gen::rand_uniform(r, c, -2.0, 2.0, sparsity, seed).compact()
}

/// Compatible (A, B, C) for matrix multiplication, B and C of equal shape.
fn mat_pair(g: &mut Gen, max_dim: usize) -> (Matrix, Matrix, Matrix) {
    let (m, k, n) = (
        g.usize(1..=max_dim),
        g.usize(1..=max_dim),
        g.usize(1..=max_dim),
    );
    let (seed, sp) = (g.u64(), g.usize(0..3) as u8);
    let s = |x: u8| if x == 0 { 1.0 } else { 0.2 };
    (
        gen::rand_uniform(m, k, -1.0, 1.0, s(sp % 2), seed).compact(),
        gen::rand_uniform(k, n, -1.0, 1.0, s(sp / 2), seed ^ 0xABCD).compact(),
        gen::rand_uniform(k, n, -1.0, 1.0, 1.0, seed ^ 0x1234),
    )
}

#[test]
fn transpose_is_involution() {
    check("transpose_is_involution", CASES, |g| {
        let m = mat(g, 24, 1.0);
        let t2 = reorg::transpose(&reorg::transpose(&m, 2), 2);
        assert!(t2.approx_eq(&m, 0.0));
    });
}

#[test]
fn transpose_is_involution_sparse() {
    check("transpose_is_involution_sparse", CASES, |g| {
        let m = mat(g, 24, 0.15);
        let t2 = reorg::transpose(&reorg::transpose(&m, 1), 1);
        assert!(t2.approx_eq(&m, 0.0));
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check("matmul_distributes_over_addition", CASES, |g| {
        let (a, b, c) = mat_pair(g, 12);
        // A(B + C) == AB + AC
        let bc = elementwise::binary_mm(BinaryOp::Add, &b, &c, 1).unwrap();
        let lhs = matmult::matmul(&a, &bc, 2, false).unwrap();
        let ab = matmult::matmul(&a, &b, 2, true).unwrap();
        let ac = matmult::matmul(&a, &c, 2, false).unwrap();
        let rhs = elementwise::binary_mm(BinaryOp::Add, &ab, &ac, 1).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-8));
    });
}

#[test]
fn transpose_of_product_is_reversed_product() {
    check("transpose_of_product_is_reversed_product", CASES, |g| {
        let (a, b, _) = mat_pair(g, 10);
        // t(AB) == t(B) t(A)
        let lhs = reorg::transpose(&matmult::matmul(&a, &b, 1, false).unwrap(), 1);
        let rhs =
            matmult::matmul(&reorg::transpose(&b, 1), &reorg::transpose(&a, 1), 1, false).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-9));
    });
}

#[test]
fn tsmm_equals_explicit_product() {
    check("tsmm_equals_explicit_product", CASES, |g| {
        let m = mat(g, 20, 1.0);
        let fused = tsmm::tsmm(&m, 2, true);
        let explicit = matmult::matmul(&reorg::transpose(&m, 1), &m, 1, false).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-9));
    });
}

#[test]
fn tsmm_equals_explicit_product_sparse() {
    check("tsmm_equals_explicit_product_sparse", CASES, |g| {
        let m = mat(g, 24, 0.2);
        let fused = tsmm::tsmm(&m, 3, false);
        let explicit = matmult::matmul(&reorg::transpose(&m, 1), &m, 1, false).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-9));
    });
}

#[test]
fn sum_invariant_under_transpose_and_reshape() {
    check("sum_invariant_under_transpose_and_reshape", CASES, |g| {
        let m = mat(g, 20, 0.3);
        let s0 = aggregate::aggregate_full(AggFn::Sum, &m, 1).unwrap();
        let s1 = aggregate::aggregate_full(AggFn::Sum, &reorg::transpose(&m, 1), 1).unwrap();
        let s2 = aggregate::aggregate_full(
            AggFn::Sum,
            &reorg::reshape(&m, m.cols(), m.rows()).unwrap(),
            1,
        )
        .unwrap();
        assert!((s0 - s1).abs() < 1e-9);
        assert!((s0 - s2).abs() < 1e-9);
    });
}

#[test]
fn row_sums_sum_to_full_sum() {
    check("row_sums_sum_to_full_sum", CASES, |g| {
        let m = mat(g, 20, 1.0);
        let full = aggregate::aggregate_full(AggFn::Sum, &m, 1).unwrap();
        let rows = aggregate::aggregate_axis(AggFn::Sum, Direction::Row, &m, 1).unwrap();
        let total = aggregate::aggregate_full(AggFn::Sum, &rows, 1).unwrap();
        assert!((full - total).abs() < 1e-9);
    });
}

#[test]
fn cbind_slice_round_trip() {
    check("cbind_slice_round_trip", CASES, |g| {
        let a = mat(g, 15, 1.0);
        let seed = g.u64();
        let b = gen::rand_uniform(a.rows(), 3, -1.0, 1.0, 1.0, seed);
        let both = indexing::cbind(&a, &b).unwrap();
        let left = indexing::slice(&both, 0..a.rows(), 0..a.cols()).unwrap();
        let right = indexing::slice(&both, 0..a.rows(), a.cols()..a.cols() + 3).unwrap();
        assert!(left.approx_eq(&a, 0.0));
        assert!(right.approx_eq(&b, 0.0));
    });
}

#[test]
fn rbind_slice_round_trip() {
    check("rbind_slice_round_trip", CASES, |g| {
        let a = mat(g, 15, 0.3);
        let seed = g.u64();
        let b = gen::rand_uniform(4, a.cols(), -1.0, 1.0, 1.0, seed);
        let both = indexing::rbind(&a, &b).unwrap();
        let top = indexing::slice(&both, 0..a.rows(), 0..a.cols()).unwrap();
        let bottom = indexing::slice(&both, a.rows()..a.rows() + 4, 0..a.cols()).unwrap();
        assert!(top.approx_eq(&a, 0.0));
        assert!(bottom.approx_eq(&b, 0.0));
    });
}

#[test]
fn unary_neg_twice_is_identity() {
    check("unary_neg_twice_is_identity", CASES, |g| {
        let m = mat(g, 20, 0.3);
        let back = elementwise::unary(UnaryOp::Neg, &elementwise::unary(UnaryOp::Neg, &m, 1), 1);
        assert!(back.approx_eq(&m, 0.0));
    });
}

#[test]
fn scalar_ops_match_cellwise() {
    check("scalar_ops_match_cellwise", CASES, |g| {
        let m = mat(g, 12, 1.0);
        let s = g.f64(-3.0f64..3.0);
        let r = elementwise::binary_ms(BinaryOp::Add, &m, s, 1);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert!((r.get(i, j) - (m.get(i, j) + s)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn compact_preserves_values() {
    check("compact_preserves_values", CASES, |g| {
        let m = mat(g, 20, 0.25);
        let dense = Matrix::Dense(m.to_dense());
        let compacted = dense.clone().compact();
        assert!(compacted.approx_eq(&dense, 0.0));
    });
}

#[test]
fn solve_recovers_solution() {
    check("solve_recovers_solution", CASES, |g| {
        let n = g.usize(2usize..8);
        let seed = g.u64();
        // Build SPD system A = X'X + I and verify solve(A, A w) == w.
        let x = gen::rand_uniform(n * 3, n, -1.0, 1.0, 1.0, seed);
        let g = tsmm::tsmm(&x, 1, false);
        let a = elementwise::binary_mm(
            BinaryOp::Add,
            &g,
            &Matrix::Dense(Matrix::identity(n).to_dense()),
            1,
        )
        .unwrap();
        let w = gen::rand_uniform(n, 1, -1.0, 1.0, 1.0, seed ^ 99);
        let b = matmult::matmul(&a, &w, 1, false).unwrap();
        let got = sysds_tensor::kernels::solve::solve(&a, &b).unwrap();
        assert!(got.approx_eq(&w, 1e-6));
    });
}

#[test]
fn order_produces_sorted_column() {
    check("order_produces_sorted_column", CASES, |g| {
        let m = mat(g, 20, 1.0);
        let sorted = reorg::order(&m, 0, false, false).unwrap();
        for i in 1..sorted.rows() {
            assert!(sorted.get(i - 1, 0) <= sorted.get(i, 0));
        }
    });
}
