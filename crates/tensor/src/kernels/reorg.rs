//! Reorganization operations: transpose, diag, reshape, rev, order.
//!
//! Dense transpose is cache-blocked (paper: "blocks ... allow local
//! transformations for operations like transpose"); sparse transpose uses a
//! counting pass to build the transposed CSR directly.

use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::{par, Result, SysDsError};

/// Tile edge for the cache-blocked dense transpose.
const TILE: usize = 32;

/// `t(X)`.
pub fn transpose(m: &Matrix, threads: usize) -> Matrix {
    match m {
        Matrix::Dense(d) => Matrix::Dense(transpose_dense(d, threads)),
        Matrix::Sparse(s) => Matrix::Sparse(transpose_sparse(s)),
    }
}

#[allow(clippy::needless_range_loop)] // tiled gather indexes source by (i, j)
fn transpose_dense(d: &DenseMatrix, threads: usize) -> DenseMatrix {
    let (m, n) = (d.rows(), d.cols());
    let mut out = DenseMatrix::zeros(n, m);
    // Parallelize across output rows (input columns) in tile stripes.
    let parts = DenseMatrix::row_partitions(n, threads);
    par::map(
        par::row_chunks(out.values_mut(), &parts, m),
        |(lo, hi, chunk)| {
            for jb in (lo..hi).step_by(TILE) {
                let jmax = (jb + TILE).min(hi);
                for ib in (0..m).step_by(TILE) {
                    let imax = (ib + TILE).min(m);
                    for j in jb..jmax {
                        let dst = &mut chunk[(j - lo) * m..(j - lo) * m + m];
                        for i in ib..imax {
                            dst[i] = d.get(i, j);
                        }
                    }
                }
            }
        },
    );
    out
}

fn transpose_sparse(s: &SparseMatrix) -> SparseMatrix {
    let (m, n) = (s.rows(), s.cols());
    // Counting pass: nnz per output row (= input column).
    let mut counts = vec![0usize; n + 1];
    for (_, j, _) in s.iter_nonzeros() {
        counts[j + 1] += 1;
    }
    for k in 1..=n {
        counts[k] += counts[k - 1];
    }
    let row_ptr = counts.clone();
    let nnz = s.nnz();
    let mut col_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    let mut next = row_ptr.clone();
    for (i, j, v) in s.iter_nonzeros() {
        let pos = next[j];
        col_idx[pos] = i as u32;
        values[pos] = v;
        next[j] += 1;
    }
    SparseMatrix::from_csr(n, m, row_ptr, col_idx, values)
}

/// `diag(X)`: vector → diagonal matrix, or square matrix → diagonal vector.
pub fn diag(m: &Matrix) -> Result<Matrix> {
    if m.cols() == 1 {
        let n = m.rows();
        let triples = (0..n).map(|i| (i, i, m.get(i, 0))).collect();
        Ok(Matrix::Sparse(SparseMatrix::from_triples(n, n, triples)).compact())
    } else if m.rows() == m.cols() {
        let n = m.rows();
        let data = (0..n).map(|i| m.get(i, i)).collect();
        Matrix::from_vec(n, 1, data)
    } else {
        Err(SysDsError::runtime(format!(
            "diag on non-square {}x{} matrix",
            m.rows(),
            m.cols()
        )))
    }
}

/// Row-major `matrix(X, rows, cols)` reshape.
pub fn reshape(m: &Matrix, rows: usize, cols: usize) -> Result<Matrix> {
    if rows.checked_mul(cols) != Some(m.rows() * m.cols()) {
        return Err(SysDsError::runtime(format!(
            "reshape {}x{} -> {rows}x{cols} changes cell count",
            m.rows(),
            m.cols()
        )));
    }
    match m {
        Matrix::Dense(d) => Ok(Matrix::Dense(DenseMatrix::from_vec(
            rows,
            cols,
            d.values().to_vec(),
        ))),
        Matrix::Sparse(s) => {
            let old_cols = s.cols();
            let triples = s
                .iter_nonzeros()
                .map(|(i, j, v)| {
                    let lin = i * old_cols + j;
                    (lin / cols, lin % cols, v)
                })
                .collect();
            Ok(Matrix::Sparse(SparseMatrix::from_triples(
                rows, cols, triples,
            )))
        }
    }
}

/// `rev(X)`: reverse the row order.
pub fn rev(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    match m {
        Matrix::Dense(d) => {
            let mut out = DenseMatrix::zeros(rows, cols);
            for i in 0..rows {
                out.row_mut(i).copy_from_slice(d.row(rows - 1 - i));
            }
            Matrix::Dense(out)
        }
        Matrix::Sparse(s) => {
            let triples = s
                .iter_nonzeros()
                .map(|(i, j, v)| (rows - 1 - i, j, v))
                .collect();
            Matrix::Sparse(SparseMatrix::from_triples(rows, cols, triples))
        }
    }
}

/// `order(X, by, decreasing, index.return)`: sort rows of `X` by column
/// `by` (0-based here; the language layer translates from 1-based DML).
/// With `index_return`, yields the permutation as 1-based row indices.
pub fn order(m: &Matrix, by: usize, decreasing: bool, index_return: bool) -> Result<Matrix> {
    if by >= m.cols() {
        return Err(SysDsError::IndexOutOfBounds {
            msg: format!("order by column {} of {} columns", by + 1, m.cols()),
        });
    }
    let mut perm: Vec<usize> = (0..m.rows()).collect();
    // Stable sort keeps ties in original order, like R.
    perm.sort_by(|&a, &b| {
        let (va, vb) = (m.get(a, by), m.get(b, by));
        let ord = va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
        if decreasing {
            ord.reverse()
        } else {
            ord
        }
    });
    if index_return {
        let data = perm.iter().map(|&i| (i + 1) as f64).collect();
        return Matrix::from_vec(m.rows(), 1, data);
    }
    let (rows, cols) = m.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for (dst, &src) in perm.iter().enumerate() {
        for j in 0..cols {
            out.set(dst, j, m.get(src, j));
        }
    }
    Ok(Matrix::Dense(out).compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gen;

    #[test]
    fn transpose_dense_round_trip() {
        let m = gen::rand_uniform(37, 21, -1.0, 1.0, 1.0, 41);
        let t = transpose(&m, 3);
        assert_eq!(t.shape(), (21, 37));
        assert!(transpose(&t, 2).approx_eq(&m, 0.0));
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
        }
    }

    #[test]
    fn transpose_sparse_round_trip() {
        let m = gen::rand_uniform(40, 25, -1.0, 1.0, 0.1, 42).compact();
        assert!(m.is_sparse());
        let t = transpose(&m, 1);
        assert!(t.is_sparse());
        assert!(transpose(&t, 1).approx_eq(&m, 0.0));
        assert_eq!(t.nnz(), m.nnz());
    }

    #[test]
    fn diag_vector_to_matrix_and_back() {
        let v = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let d = diag(&v).unwrap();
        assert_eq!(d.shape(), (3, 3));
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        let back = diag(&d).unwrap();
        assert!(back.approx_eq(&v, 0.0));
        assert!(diag(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn reshape_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let r = reshape(&m, 3, 2).unwrap();
        assert!(r.approx_eq(
            &Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap(),
            0.0
        ));
        assert!(reshape(&m, 4, 2).is_err());
    }

    #[test]
    fn reshape_sparse_preserves_values() {
        let m = gen::rand_uniform(10, 6, -1.0, 1.0, 0.15, 43).compact();
        let r = reshape(&m, 6, 10).unwrap();
        let dense = reshape(&Matrix::Dense(m.to_dense()), 6, 10).unwrap();
        assert!(r.approx_eq(&dense, 0.0));
    }

    #[test]
    fn rev_reverses_rows() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        assert!(rev(&m).approx_eq(&Matrix::from_rows(&[&[3.0], &[2.0], &[1.0]]).unwrap(), 0.0));
    }

    #[test]
    fn order_sorts_rows_stably() {
        let m = Matrix::from_rows(&[&[2.0, 10.0], &[1.0, 20.0], &[2.0, 30.0]]).unwrap();
        let asc = order(&m, 0, false, false).unwrap();
        assert!(asc.approx_eq(
            &Matrix::from_rows(&[&[1.0, 20.0], &[2.0, 10.0], &[2.0, 30.0]]).unwrap(),
            0.0
        ));
        let idx = order(&m, 0, true, true).unwrap();
        assert_eq!(idx.to_vec(), vec![1.0, 3.0, 2.0]);
        assert!(order(&m, 5, false, false).is_err());
    }

    #[test]
    fn transpose_single_threaded_equals_parallel() {
        let m = gen::rand_uniform(65, 130, 0.0, 1.0, 1.0, 44);
        assert!(transpose(&m, 1).approx_eq(&transpose(&m, 8), 0.0));
    }
}
