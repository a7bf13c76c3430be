//! Full, row-wise, and column-wise aggregations, plus cumulative ops.
//!
//! Full-matrix sums use Kahan compensation like SystemML's `KahanPlus`
//! aggregation operator, so large reductions stay accurate.

use crate::matrix::{DenseMatrix, Matrix};
use sysds_common::{par, Result, SysDsError};

/// Aggregation functions of the DML language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    Sum,
    Mean,
    Min,
    Max,
    Var,
    Sd,
    /// Sum of squares (used by `lmCG` and norm computations).
    SumSq,
}

/// Aggregation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Collapse everything to a scalar.
    Full,
    /// One result per row (`m x 1`).
    Row,
    /// One result per column (`1 x n`).
    Col,
}

/// Kahan-compensated accumulator (shared with the fused kernel).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Kahan {
    pub(crate) sum: f64,
    pub(crate) corr: f64,
}

impl Kahan {
    #[inline]
    pub(crate) fn add(&mut self, v: f64) {
        let y = v - self.corr;
        let t = self.sum + y;
        self.corr = (t - self.sum) - y;
        self.sum = t;
    }

    /// Fold another partition's partial sum into this accumulator,
    /// preserving that partition's own compensation term.
    #[inline]
    pub(crate) fn merge(&mut self, other: Kahan) {
        self.add(other.sum);
        self.add(-other.corr);
    }
}

/// Full aggregation to a scalar on one thread; [`aggregate_full`] falls
/// back to it for sparse and single-partition inputs.
fn full_sequential(f: AggFn, m: &Matrix) -> Result<f64> {
    let cells = (m.rows() * m.cols()) as f64;
    if cells == 0.0 {
        return match f {
            AggFn::Sum | AggFn::SumSq => Ok(0.0),
            _ => Err(SysDsError::runtime("aggregation over empty matrix")),
        };
    }
    Ok(match f {
        AggFn::Sum => full_sum(m, false),
        AggFn::SumSq => full_sum(m, true),
        AggFn::Mean => full_sum(m, false) / cells,
        AggFn::Min => fold_all(m, f64::INFINITY, f64::min),
        AggFn::Max => fold_all(m, f64::NEG_INFINITY, f64::max),
        AggFn::Var => full_var(m),
        AggFn::Sd => full_var(m).sqrt(),
    })
}

/// Full aggregation to a scalar, row-partitioned over `threads` for dense
/// inputs. Per-partition Kahan compensation is preserved and merged, so the
/// result stays within a few ulps of the sequential kernel.
pub fn aggregate_full(f: AggFn, m: &Matrix, threads: usize) -> Result<f64> {
    let (rows, cols) = m.shape();
    let d = match m {
        Matrix::Dense(d) if rows * cols > 0 => d,
        _ => return full_sequential(f, m),
    };
    let parts = super::par_row_partitions(rows, cols, threads);
    if parts.len() <= 1 {
        return full_sequential(f, m);
    }
    let vals = d.values();
    let part_sum = |lo: usize, hi: usize, map: &(dyn Fn(f64) -> f64 + Sync)| {
        let mut acc = Kahan::default();
        for &v in &vals[lo * cols..hi * cols] {
            acc.add(map(v));
        }
        acc
    };
    let merged_sum = |map: &(dyn Fn(f64) -> f64 + Sync)| {
        let partials = par::map(parts.clone(), |(lo, hi)| part_sum(lo, hi, map));
        let mut acc = Kahan::default();
        for p in partials {
            acc.merge(p);
        }
        acc.sum
    };
    let cells = (rows * cols) as f64;
    Ok(match f {
        AggFn::Sum => merged_sum(&|v| v),
        AggFn::SumSq => merged_sum(&|v| v * v),
        AggFn::Mean => merged_sum(&|v| v) / cells,
        AggFn::Min | AggFn::Max => {
            let (init, pick): (f64, fn(f64, f64) -> f64) = if f == AggFn::Min {
                (f64::INFINITY, f64::min)
            } else {
                (f64::NEG_INFINITY, f64::max)
            };
            let partials = par::map(parts.clone(), |(lo, hi)| {
                vals[lo * cols..hi * cols]
                    .iter()
                    .fold(init, |a, &v| pick(a, v))
            });
            partials.into_iter().fold(init, pick)
        }
        AggFn::Var | AggFn::Sd => {
            // Parallel two-pass; unbiased (n-1) like the sequential kernel.
            let var = if cells < 2.0 {
                0.0
            } else {
                let mean = merged_sum(&|v| v) / cells;
                merged_sum(&|v| (v - mean) * (v - mean)) / (cells - 1.0)
            };
            if f == AggFn::Sd {
                var.sqrt()
            } else {
                var
            }
        }
    })
}

fn full_sum(m: &Matrix, squared: bool) -> f64 {
    let mut acc = Kahan::default();
    match m {
        Matrix::Dense(d) => {
            for &v in d.values() {
                acc.add(if squared { v * v } else { v });
            }
        }
        Matrix::Sparse(s) => {
            for (_, _, v) in s.iter_nonzeros() {
                acc.add(if squared { v * v } else { v });
            }
        }
    }
    acc.sum
}

/// Fold including structural zeros (min/max must see zeros of sparse
/// matrices).
fn fold_all(m: &Matrix, init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    match m {
        Matrix::Dense(d) => d.values().iter().fold(init, |a, &v| f(a, v)),
        Matrix::Sparse(s) => {
            let mut acc = init;
            for (_, _, v) in s.iter_nonzeros() {
                acc = f(acc, v);
            }
            if s.nnz() < s.rows() * s.cols() {
                acc = f(acc, 0.0);
            }
            acc
        }
    }
}

fn full_var(m: &Matrix) -> f64 {
    // Two-pass algorithm; unbiased (n-1) like R.
    let n = (m.rows() * m.cols()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = full_sum(m, false) / n;
    let mut acc = Kahan::default();
    match m {
        Matrix::Dense(d) => {
            for &v in d.values() {
                acc.add((v - mean) * (v - mean));
            }
        }
        Matrix::Sparse(s) => {
            for (_, _, v) in s.iter_nonzeros() {
                acc.add((v - mean) * (v - mean));
            }
            let zeros = s.rows() * s.cols() - s.nnz();
            acc.add(zeros as f64 * mean * mean);
        }
    }
    acc.sum / (n - 1.0)
}

/// Row- or column-wise aggregation, row-partitioned over `threads`. Row
/// results are computed on disjoint row ranges; column results merge
/// per-partition partial vectors.
pub fn aggregate_axis(f: AggFn, dir: Direction, m: &Matrix, threads: usize) -> Result<Matrix> {
    let (rows, cols) = m.shape();
    match dir {
        Direction::Full => {
            let v = aggregate_full(f, m, threads)?;
            Matrix::from_vec(1, 1, vec![v])
        }
        Direction::Row => {
            if cols == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
                return Err(SysDsError::runtime("row aggregation over zero columns"));
            }
            let parts = super::par_row_partitions(rows, cols, threads);
            if parts.len() <= 1 {
                return aggregate_rows(f, m);
            }
            let partials = par::map(parts.clone(), |(lo, hi)| {
                (lo..hi)
                    .map(|i| agg_slice(f, row_values(m, i), cols))
                    .collect::<Vec<f64>>()
            });
            Matrix::from_vec(rows, 1, partials.concat())
        }
        Direction::Col => {
            let d = match m {
                Matrix::Dense(d) if matches!(f, AggFn::Sum | AggFn::Mean | AggFn::SumSq) => d,
                _ => return aggregate_cols(f, m),
            };
            if rows == 0 {
                return aggregate_cols(f, m);
            }
            let parts = super::par_row_partitions(rows, cols, threads);
            if parts.len() <= 1 {
                return aggregate_cols(f, m);
            }
            let partials = par::map(parts.clone(), |(lo, hi)| {
                let mut sums = vec![0.0f64; cols];
                for i in lo..hi {
                    for (acc, &v) in sums.iter_mut().zip(d.row(i)) {
                        *acc += if f == AggFn::SumSq { v * v } else { v };
                    }
                }
                sums
            });
            let mut sums = vec![0.0f64; cols];
            for p in partials {
                for (acc, v) in sums.iter_mut().zip(p) {
                    *acc += v;
                }
            }
            if f == AggFn::Mean {
                for v in &mut sums {
                    *v /= rows as f64;
                }
            }
            Matrix::from_vec(1, cols, sums)
        }
    }
}

fn aggregate_rows(f: AggFn, m: &Matrix) -> Result<Matrix> {
    let (rows, cols) = m.shape();
    if cols == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
        return Err(SysDsError::runtime("row aggregation over zero columns"));
    }
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        out.push(agg_slice(f, row_values(m, i), cols));
    }
    Matrix::from_vec(rows, 1, out)
}

fn aggregate_cols(f: AggFn, m: &Matrix) -> Result<Matrix> {
    let (rows, cols) = m.shape();
    if rows == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
        return Err(SysDsError::runtime("column aggregation over zero rows"));
    }
    // Column-wise over CSR: accumulate per column in one sweep.
    match f {
        AggFn::Sum | AggFn::Mean | AggFn::SumSq => {
            let mut sums = vec![0.0f64; cols];
            match m {
                Matrix::Dense(d) => {
                    for i in 0..rows {
                        for (j, &v) in d.row(i).iter().enumerate() {
                            sums[j] += if f == AggFn::SumSq { v * v } else { v };
                        }
                    }
                }
                Matrix::Sparse(s) => {
                    for (_, j, v) in s.iter_nonzeros() {
                        sums[j] += if f == AggFn::SumSq { v * v } else { v };
                    }
                }
            }
            if f == AggFn::Mean {
                for v in &mut sums {
                    *v /= rows as f64;
                }
            }
            Matrix::from_vec(1, cols, sums)
        }
        _ => {
            let mut out = Vec::with_capacity(cols);
            for j in 0..cols {
                let col: Vec<f64> = (0..rows).map(|i| m.get(i, j)).collect();
                out.push(agg_slice(f, col, rows));
            }
            Matrix::from_vec(1, cols, out)
        }
    }
}

fn row_values(m: &Matrix, i: usize) -> Vec<f64> {
    match m {
        Matrix::Dense(d) => d.row(i).to_vec(),
        Matrix::Sparse(s) => {
            let mut row = vec![0.0; s.cols()];
            let (cols, vals) = s.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
            row
        }
    }
}

fn agg_slice(f: AggFn, values: Vec<f64>, n: usize) -> f64 {
    match f {
        AggFn::Sum => values.iter().sum(),
        AggFn::SumSq => values.iter().map(|v| v * v).sum(),
        AggFn::Mean => values.iter().sum::<f64>() / n as f64,
        AggFn::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        AggFn::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggFn::Var => slice_var(&values),
        AggFn::Sd => slice_var(&values).sqrt(),
    }
}

fn slice_var(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n;
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
}

/// Sum of the main diagonal.
pub fn trace(m: &Matrix) -> Result<f64> {
    if m.rows() != m.cols() {
        return Err(SysDsError::runtime("trace of a non-square matrix"));
    }
    Ok((0..m.rows()).map(|i| m.get(i, i)).sum())
}

/// Per-row index (1-based, like DML) of the maximum value.
pub fn row_index_max(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0usize;
        for j in 0..cols {
            let v = m.get(i, j);
            if v > best {
                best = v;
                arg = j;
            }
        }
        out.push((arg + 1) as f64);
    }
    Matrix::from_vec(rows, 1, out).expect("shape correct by construction")
}

/// Column-wise cumulative sum (`cumsum`), matching DML semantics.
pub fn cumsum(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        let mut acc = 0.0;
        for i in 0..rows {
            acc += m.get(i, j);
            out.set(i, j, acc);
        }
    }
    Matrix::Dense(out)
}

/// Column-wise cumulative product (`cumprod`).
pub fn cumprod(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        let mut acc = 1.0;
        for i in 0..rows {
            acc *= m.get(i, j);
            out.set(i, j, acc);
        }
    }
    Matrix::Dense(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gen;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn full_aggregations() {
        let m = sample();
        assert_eq!(aggregate_full(AggFn::Sum, &m, 1).unwrap(), 21.0);
        assert_eq!(aggregate_full(AggFn::Mean, &m, 1).unwrap(), 3.5);
        assert_eq!(aggregate_full(AggFn::Min, &m, 1).unwrap(), 1.0);
        assert_eq!(aggregate_full(AggFn::Max, &m, 1).unwrap(), 6.0);
        assert_eq!(aggregate_full(AggFn::SumSq, &m, 1).unwrap(), 91.0);
        assert!((aggregate_full(AggFn::Var, &m, 1).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_min_includes_structural_zeros() {
        let m = gen::rand_uniform(10, 10, 1.0, 2.0, 0.1, 31).compact();
        assert!(m.is_sparse());
        // all stored values >= 1.0, but min must be 0.
        assert_eq!(aggregate_full(AggFn::Min, &m, 1).unwrap(), 0.0);
        assert!(aggregate_full(AggFn::Max, &m, 1).unwrap() >= 1.0);
    }

    #[test]
    fn sparse_var_accounts_for_zeros() {
        let m = gen::rand_uniform(30, 30, 1.0, 2.0, 0.1, 32).compact();
        let dense = Matrix::Dense(m.to_dense());
        let sv = aggregate_full(AggFn::Var, &m, 1).unwrap();
        let dv = aggregate_full(AggFn::Var, &dense, 1).unwrap();
        assert!((sv - dv).abs() < 1e-9);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        let r = aggregate_axis(AggFn::Sum, Direction::Row, &m, 1).unwrap();
        assert!(r.approx_eq(&Matrix::from_vec(2, 1, vec![6.0, 15.0]).unwrap(), 1e-12));
        let c = aggregate_axis(AggFn::Sum, Direction::Col, &m, 1).unwrap();
        assert!(c.approx_eq(&Matrix::from_vec(1, 3, vec![5.0, 7.0, 9.0]).unwrap(), 1e-12));
    }

    #[test]
    fn col_means_on_sparse() {
        let m = gen::rand_uniform(50, 4, 0.0, 1.0, 0.2, 33).compact();
        let got = aggregate_axis(AggFn::Mean, Direction::Col, &m, 1).unwrap();
        let dense = Matrix::Dense(m.to_dense());
        let expect = aggregate_axis(AggFn::Mean, Direction::Col, &dense, 1).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn row_max_and_min() {
        let m = sample();
        let mx = aggregate_axis(AggFn::Max, Direction::Row, &m, 1).unwrap();
        assert!(mx.approx_eq(&Matrix::from_vec(2, 1, vec![3.0, 6.0]).unwrap(), 1e-12));
        let mn = aggregate_axis(AggFn::Min, Direction::Col, &m, 1).unwrap();
        assert!(mn.approx_eq(&Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap(), 1e-12));
    }

    #[test]
    fn full_direction_yields_one_by_one() {
        let m = sample();
        let s = aggregate_axis(AggFn::Sum, Direction::Full, &m, 1).unwrap();
        assert_eq!(s.shape(), (1, 1));
        assert_eq!(s.get(0, 0), 21.0);
    }

    #[test]
    fn trace_square_only() {
        let m = Matrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.0]]).unwrap();
        assert_eq!(trace(&m).unwrap(), 3.0);
        assert!(trace(&sample()).is_err());
    }

    #[test]
    fn row_index_max_is_one_based() {
        let m = Matrix::from_rows(&[&[1.0, 9.0, 3.0], &[7.0, 2.0, 1.0]]).unwrap();
        let idx = row_index_max(&m);
        assert_eq!(idx.to_vec(), vec![2.0, 1.0]);
    }

    #[test]
    fn cumsum_column_wise() {
        let m = sample();
        let c = cumsum(&m);
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[5.0, 7.0, 9.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn cumprod_column_wise() {
        let m = sample();
        let c = cumprod(&m);
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 10.0, 18.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1 + 1e-16 repeated: naive f64 sum loses the small terms entirely.
        let n = 10_000;
        let mut data = vec![1e-16; n];
        data[0] = 1.0;
        let m = Matrix::from_vec(n, 1, data).unwrap();
        let s = aggregate_full(AggFn::Sum, &m, 1).unwrap();
        let expect = 1.0 + (n as f64 - 1.0) * 1e-16;
        assert!((s - expect).abs() < 1e-18, "got {s}, want {expect}");
    }

    #[test]
    fn parallel_aggregates_match_sequential() {
        // Big enough (> PAR_MIN_CELLS) to take the multi-partition path.
        let m = gen::rand_uniform(400, 100, -3.0, 3.0, 1.0, 40);
        for f in [
            AggFn::Sum,
            AggFn::SumSq,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::Var,
            AggFn::Sd,
        ] {
            let seq = aggregate_full(f, &m, 1).unwrap();
            let par = aggregate_full(f, &m, 4).unwrap();
            assert!((seq - par).abs() < 1e-9, "{f:?}: {seq} vs {par}");
        }
        for dir in [Direction::Row, Direction::Col] {
            for f in [AggFn::Sum, AggFn::Mean, AggFn::SumSq, AggFn::Max] {
                let seq = aggregate_axis(f, dir, &m, 1).unwrap();
                let par = aggregate_axis(f, dir, &m, 4).unwrap();
                assert!(seq.approx_eq(&par, 1e-9), "{f:?} {dir:?}");
            }
        }
    }

    #[test]
    fn parallel_kahan_merge_stays_accurate() {
        let n = 70_000; // > PAR_MIN_CELLS, so the partitioned path engages
        let mut data = vec![1e-16; n];
        data[0] = 1.0;
        let m = Matrix::from_vec(n / 2, 2, data).unwrap();
        let s = aggregate_full(AggFn::Sum, &m, 4).unwrap();
        let expect = 1.0 + (n as f64 - 1.0) * 1e-16;
        assert!((s - expect).abs() < 1e-12, "got {s}, want {expect}");
    }

    #[test]
    fn empty_matrix_sum_is_zero() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(aggregate_full(AggFn::Sum, &m, 1).unwrap(), 0.0);
        assert!(aggregate_full(AggFn::Mean, &m, 1).is_err());
    }
}

/// `quantile(X, p)` over all cells via linear interpolation (R type 7).
pub fn quantile(m: &Matrix, p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(SysDsError::runtime("quantile p must be in [0, 1]"));
    }
    let mut v = m.to_dense().into_vec();
    if v.is_empty() {
        return Err(SysDsError::runtime("quantile of an empty matrix"));
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(if lo == hi {
        v[lo]
    } else {
        v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
    })
}

/// `median(X)` over all cells.
pub fn median(m: &Matrix) -> Result<f64> {
    quantile(m, 0.5)
}

#[cfg(test)]
mod quantile_tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let m = Matrix::from_vec(5, 1, vec![10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(quantile(&m, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&m, 1.0).unwrap(), 50.0);
        assert_eq!(quantile(&m, 0.5).unwrap(), 30.0);
        assert_eq!(quantile(&m, 0.25).unwrap(), 20.0);
        assert_eq!(quantile(&m, 0.1).unwrap(), 14.0);
    }

    #[test]
    fn median_even_count() {
        let m = Matrix::from_vec(4, 1, vec![1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(median(&m).unwrap(), 2.5);
    }

    #[test]
    fn quantile_validation() {
        let m = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        assert!(quantile(&m, -0.1).is_err());
        assert!(quantile(&m, 1.1).is_err());
        assert!(quantile(&Matrix::zeros(0, 0), 0.5).is_err());
    }
}
