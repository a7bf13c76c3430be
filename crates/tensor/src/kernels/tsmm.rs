//! Fused transpose-self matrix multiply: `t(X) %*% X` and `t(X) %*% y`.
//!
//! These are the dominant operations of the paper's `lmDS` workload
//! (§4.2: "The main computation of lmDS is X>X and X>y"). The fusion
//! matters twice:
//!
//! * **dense**: `t(X) %*% X` is symmetric, so only the upper triangle is
//!   computed and mirrored — about half the FLOPs of a general matmul
//!   (this is the "fused API call" the authors had to hand-write for TF);
//! * **sparse**: the transpose is never materialized — each CSR row `x_i`
//!   contributes the outer product `x_i' x_i`, which is exactly why SysDS
//!   "largely outperforms Julia and TF on sparse data" in Figure 5(b).
//!
//! Dense input has two kernels. The naive row-at-a-time kernel stands in
//! for the paper's portable SysDS kernels and is built for the baseline
//! target only. The blocked kernel (`--blas`, SysDS-B) runs through
//! `kernels::simd` at the host's level (AVX2 or AVX-512F where present),
//! with the same per-cell summation order, so it returns the same bits at
//! every level.

use super::simd;
use crate::matrix::{DenseMatrix, Matrix};
use sysds_common::{par, Result, SysDsError};

/// `t(X) %*% X` (a `cols x cols` symmetric matrix).
pub fn tsmm(x: &Matrix, threads: usize, blas: bool) -> Matrix {
    match x {
        Matrix::Dense(d) => Matrix::Dense(tsmm_dense(d, threads, blas.then(simd::detected))),
        Matrix::Sparse(_) => tsmm_sparse(x, threads),
    }
}

/// Dense `t(X) %*% X` with the naive kernel (`None`) or the blocked one at
/// the given SIMD level.
fn tsmm_dense(x: &DenseMatrix, threads: usize, blocked: Option<simd::Level>) -> DenseMatrix {
    let (m, n) = (x.rows(), x.cols());
    // Partition input rows; each thread accumulates a private n x n buffer,
    // then buffers are reduced. For tall-skinny X (the lmDS shape) the
    // private buffers are tiny relative to X.
    let parts = DenseMatrix::row_partitions(m, threads);
    let mut out = sum_partials(
        par::map(parts, |(lo, hi)| {
            let mut acc = vec![0.0f64; n * n];
            match blocked {
                Some(level) => tsmm_rows_blocked(level, x, &mut acc, lo, hi),
                None => tsmm_rows_naive(x, &mut acc, lo, hi),
            }
            acc
        }),
        n * n,
    );
    // Mirror the upper triangle into the lower one.
    for i in 0..n {
        for j in (i + 1)..n {
            out[j * n + i] = out[i * n + j];
        }
    }
    DenseMatrix::from_vec(n, n, out)
}

/// Upper-triangle accumulation, row-at-a-time outer products.
fn tsmm_rows_naive(x: &DenseMatrix, acc: &mut [f64], lo: usize, hi: usize) {
    let n = x.cols();
    for r in lo..hi {
        let row = x.row(r);
        for i in 0..n {
            let vi = row[i];
            if vi == 0.0 {
                continue;
            }
            let dst = &mut acc[i * n..(i + 1) * n];
            for j in i..n {
                dst[j] += vi * row[j];
            }
        }
    }
}

simd::dispatch! {
    /// Blocked variant: processes 8 input rows per sweep to increase
    /// register reuse of the accumulator lines (the "native BLAS" flavor).
    /// Each accumulator cell adds the 8 products left to right, then adds
    /// that sum to the cell, at every `simd::Level`.
    fn tsmm_rows_blocked(x: &DenseMatrix, acc: &mut [f64], lo: usize, hi: usize) {
        let n = x.cols();
        let mut r = lo;
        while r + 8 <= hi {
            let (r0, r1, r2, r3) = (x.row(r), x.row(r + 1), x.row(r + 2), x.row(r + 3));
            let (r4, r5, r6, r7) = (x.row(r + 4), x.row(r + 5), x.row(r + 6), x.row(r + 7));
            for i in 0..n {
                let (v0, v1, v2, v3) = (r0[i], r1[i], r2[i], r3[i]);
                let (v4, v5, v6, v7) = (r4[i], r5[i], r6[i], r7[i]);
                if v0 == 0.0
                    && v1 == 0.0
                    && v2 == 0.0
                    && v3 == 0.0
                    && v4 == 0.0
                    && v5 == 0.0
                    && v6 == 0.0
                    && v7 == 0.0
                {
                    continue;
                }
                // Equal-length slices of columns i..n keep the inner loop
                // free of bounds checks.
                let len = n - i;
                let dst = &mut acc[i * n + i..][..len];
                let (a0, a1) = (&r0[i..][..len], &r1[i..][..len]);
                let (a2, a3) = (&r2[i..][..len], &r3[i..][..len]);
                let (a4, a5) = (&r4[i..][..len], &r5[i..][..len]);
                let (a6, a7) = (&r6[i..][..len], &r7[i..][..len]);
                for j in 0..len {
                    dst[j] += v0 * a0[j]
                        + v1 * a1[j]
                        + v2 * a2[j]
                        + v3 * a3[j]
                        + v4 * a4[j]
                        + v5 * a5[j]
                        + v6 * a6[j]
                        + v7 * a7[j];
                }
            }
            r += 8;
        }
        if r < hi {
            tsmm_rows_naive(x, acc, r, hi);
        }
    }
}

/// Sparse `t(X) %*% X` without materializing the transpose: sum of sparse
/// row outer products. Output is dense `n x n` (Gram matrices of sparse
/// data are usually dense).
fn tsmm_sparse(x: &Matrix, threads: usize) -> Matrix {
    let Matrix::Sparse(s) = x else {
        unreachable!("caller dispatched on sparse")
    };
    let n = s.cols();
    let parts = DenseMatrix::row_partitions(s.rows(), threads);
    let mut out = sum_partials(
        par::map(parts, |(lo, hi)| {
            let mut acc = vec![0.0f64; n * n];
            for r in lo..hi {
                let (cols, vals) = s.row(r);
                for (a, &ci) in cols.iter().enumerate() {
                    let vi = vals[a];
                    let dst = &mut acc[ci as usize * n..(ci as usize + 1) * n];
                    for (b, &cj) in cols.iter().enumerate().skip(a) {
                        dst[cj as usize] += vi * vals[b];
                    }
                }
            }
            acc
        }),
        n * n,
    );
    for i in 0..n {
        for j in (i + 1)..n {
            out[j * n + i] = out[i * n + j];
        }
    }
    Matrix::Dense(DenseMatrix::from_vec(n, n, out)).compact()
}

/// Reduce per-partition accumulators of length `len`: the last partition's
/// buffer is the base and the others are added in partition order.
fn sum_partials(mut partials: Vec<Vec<f64>>, len: usize) -> Vec<f64> {
    let mut out = partials.pop().unwrap_or_else(|| vec![0.0; len]);
    for p in &partials {
        for (o, v) in out.iter_mut().zip(p) {
            *o += *v;
        }
    }
    out
}

/// Fused `t(X) %*% y` for an `m x 1` vector `y`; never materializes `t(X)`.
#[allow(clippy::needless_range_loop)] // r indexes both X rows and y
pub fn tmv(x: &Matrix, y: &Matrix, threads: usize) -> Result<Matrix> {
    if y.cols() != 1 || x.rows() != y.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "t(X)%*%y",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    let n = x.cols();
    let yv = y.to_vec();
    let parts = DenseMatrix::row_partitions(x.rows(), threads);
    let out = sum_partials(
        par::map(parts, |(lo, hi)| {
            let mut acc = vec![0.0f64; n];
            match x {
                Matrix::Dense(d) => {
                    for r in lo..hi {
                        let yr = yv[r];
                        if yr == 0.0 {
                            continue;
                        }
                        for (j, &v) in d.row(r).iter().enumerate() {
                            acc[j] += v * yr;
                        }
                    }
                }
                Matrix::Sparse(s) => {
                    for r in lo..hi {
                        let yr = yv[r];
                        if yr == 0.0 {
                            continue;
                        }
                        let (cols, vals) = s.row(r);
                        for (&c, &v) in cols.iter().zip(vals) {
                            acc[c as usize] += v * yr;
                        }
                    }
                }
            }
            acc
        }),
        n,
    );
    Matrix::from_vec(n, 1, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gen, matmult, reorg};

    fn reference_tsmm(x: &Matrix) -> Matrix {
        let xt = reorg::transpose(x, 1);
        matmult::matmul(&xt, x, 1, false).unwrap()
    }

    #[test]
    fn dense_tsmm_matches_explicit() {
        let x = gen::rand_uniform(33, 9, -1.0, 1.0, 1.0, 11);
        for threads in [1usize, 4] {
            for blas in [false, true] {
                let got = tsmm(&x, threads, blas);
                assert!(
                    got.approx_eq(&reference_tsmm(&x), 1e-9),
                    "threads={threads} blas={blas}"
                );
            }
        }
    }

    #[test]
    fn dense_tsmm_row_count_not_multiple_of_eight() {
        let x = gen::rand_uniform(13, 5, -2.0, 2.0, 1.0, 12);
        let got = tsmm(&x, 2, true);
        assert!(got.approx_eq(&reference_tsmm(&x), 1e-9));
    }

    #[test]
    fn sparse_tsmm_matches_explicit() {
        let x = gen::rand_uniform(50, 12, -1.0, 1.0, 0.1, 13).compact();
        assert!(x.is_sparse());
        let got = tsmm(&x, 3, false);
        assert!(got.approx_eq(&reference_tsmm(&x), 1e-9));
    }

    #[test]
    fn tsmm_output_is_symmetric() {
        let x = gen::rand_uniform(40, 7, 0.0, 1.0, 1.0, 14);
        let g = tsmm(&x, 2, false);
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn tmv_matches_explicit_dense_and_sparse() {
        let y = gen::rand_uniform(30, 1, -1.0, 1.0, 1.0, 16);
        for sp in [1.0, 0.1] {
            let x = gen::rand_uniform(30, 8, -1.0, 1.0, sp, 15).compact();
            let got = tmv(&x, &y, 2).unwrap();
            let expect = matmult::matmul(&reorg::transpose(&x, 1), &y, 1, false).unwrap();
            assert!(got.approx_eq(&expect, 1e-9), "sparsity={sp}");
        }
    }

    #[test]
    fn tmv_shape_check() {
        let x = Matrix::zeros(5, 3);
        assert!(tmv(&x, &Matrix::zeros(4, 1), 1).is_err());
        assert!(tmv(&x, &Matrix::zeros(5, 2), 1).is_err());
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    /// Every supported level against the portable copy, at 1 and 4 threads.
    fn assert_levels_match_portable(x: &DenseMatrix, what: &str) {
        for threads in [1usize, 4] {
            let want = bits(&tsmm_dense(x, threads, Some(simd::Level::Portable)));
            for level in simd::supported() {
                let got = bits(&tsmm_dense(x, threads, Some(level)));
                assert!(got == want, "{what} threads={threads} {level:?}");
            }
        }
    }

    #[test]
    fn blocked_levels_bitwise_identical_to_portable() {
        for rows in [0usize, 1, 7, 8, 13, 600] {
            for cols in [1usize, 5, 8, 9, 200] {
                let seed = (rows * 1000 + cols) as u64;
                let x = gen::rand_uniform(rows, cols, -1.0, 1.0, 1.0, seed).to_dense();
                assert_levels_match_portable(&x, &format!("{rows}x{cols}"));
            }
        }
    }

    #[test]
    fn blocked_levels_bitwise_identical_with_zero_groups_and_non_finite() {
        let mut x = gen::rand_uniform(40, 9, -1.0, 1.0, 1.0, 17).to_dense();
        // Rows 8..16 are an all-zero group; column 3 of rows 0..8 and
        // column 0 of rows 16..24 take the skip branch on their own.
        for j in 0..9 {
            for r in 8..16 {
                x.set(r, j, 0.0);
            }
        }
        for r in 0..8 {
            x.set(r, 3, 0.0);
            x.set(r + 16, 0, 0.0);
        }
        assert_levels_match_portable(&x, "zero groups");
        x.set(2, 4, f64::NAN);
        x.set(19, 7, f64::INFINITY);
        x.set(33, 1, f64::NEG_INFINITY);
        assert_levels_match_portable(&x, "non-finite");
    }

    #[test]
    fn empty_input() {
        let x = Matrix::zeros(0, 4);
        let g = tsmm(&x, 2, false);
        assert_eq!(g.shape(), (4, 4));
        assert_eq!(g.nnz(), 0);
    }
}
