//! Data preparation: scaling/normalization and train/test splitting.

use sysds_common::rng::XorShift64;
use sysds_common::{Result, SysDsError};
use sysds_tensor::{DenseMatrix, Matrix};

/// Fitted scaling parameters, exportable as two row vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRules {
    /// Per-column shift (mean, or min for min-max scaling).
    pub shift: Vec<f64>,
    /// Per-column divisor (std-dev, or range).
    pub scale: Vec<f64>,
}

/// `scale(X, center, scale)`: z-score standardization per column.
/// Columns with zero variance are centered but left unscaled (divisor 1).
pub fn scale_fit(m: &Matrix, center: bool, scale: bool) -> ScaleRules {
    let (rows, cols) = m.shape();
    let mut shift = vec![0.0; cols];
    let mut div = vec![1.0; cols];
    for j in 0..cols {
        let col: Vec<f64> = (0..rows).map(|i| m.get(i, j)).collect();
        let n = rows as f64;
        let mean = col.iter().sum::<f64>() / n;
        if center {
            shift[j] = mean;
        }
        if scale && rows > 1 {
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
            let sd = var.sqrt();
            if sd > 0.0 {
                div[j] = sd;
            }
        }
    }
    ScaleRules { shift, scale: div }
}

/// Apply scaling rules: `(X - shift) / scale` column-wise.
pub fn scale_apply(m: &Matrix, rules: &ScaleRules) -> Result<Matrix> {
    let (rows, cols) = m.shape();
    if rules.shift.len() != cols || rules.scale.len() != cols {
        return Err(SysDsError::runtime("scale rules column count mismatch"));
    }
    let mut out = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            out.set(i, j, (m.get(i, j) - rules.shift[j]) / rules.scale[j]);
        }
    }
    Ok(Matrix::Dense(out).compact())
}

/// Min-max normalization to `[0, 1]` per column; constant columns map to 0.
pub fn normalize(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        let col: Vec<f64> = (0..rows).map(|i| m.get(i, j)).collect();
        let min = col.iter().copied().fold(f64::INFINITY, f64::min);
        let max = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let range = max - min;
        for (i, &v) in col.iter().enumerate() {
            out.set(i, j, if range > 0.0 { (v - min) / range } else { 0.0 });
        }
    }
    Matrix::Dense(out).compact()
}

/// Shuffled train/test split of `(X, y)`; `train_fraction` in `(0, 1)`.
/// Deterministic under `seed` (recorded in lineage by callers).
pub fn train_test_split(
    x: &Matrix,
    y: &Matrix,
    train_fraction: f64,
    seed: u64,
) -> Result<(Matrix, Matrix, Matrix, Matrix)> {
    if x.rows() != y.rows() {
        return Err(SysDsError::DimensionMismatch {
            op: "split",
            lhs: x.shape(),
            rhs: y.shape(),
        });
    }
    if !(0.0..1.0).contains(&train_fraction) || train_fraction == 0.0 {
        return Err(SysDsError::runtime("train fraction must be in (0, 1)"));
    }
    let rows = x.rows();
    let mut perm: Vec<usize> = (0..rows).collect();
    let mut rng = XorShift64::new(seed);
    // Fisher–Yates.
    for i in (1..rows).rev() {
        let j = rng.next_below(i + 1);
        perm.swap(i, j);
    }
    let n_train = ((rows as f64) * train_fraction).round() as usize;
    let n_train = n_train.clamp(1, rows.saturating_sub(1).max(1));
    let pick = |idx: &[usize], m: &Matrix| -> Matrix {
        let mut out = DenseMatrix::zeros(idx.len(), m.cols());
        for (dst, &src) in idx.iter().enumerate() {
            for j in 0..m.cols() {
                out.set(dst, j, m.get(src, j));
            }
        }
        Matrix::Dense(out).compact()
    };
    let (train_idx, test_idx) = perm.split_at(n_train);
    Ok((
        pick(train_idx, x),
        pick(train_idx, y),
        pick(test_idx, x),
        pick(test_idx, y),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::{aggregate, gen};
    use sysds_tensor::kernels::{AggFn, Direction};

    #[test]
    fn scale_standardizes() {
        let m = gen::rand_uniform(200, 3, 5.0, 10.0, 1.0, 91);
        let rules = scale_fit(&m, true, true);
        let s = scale_apply(&m, &rules).unwrap();
        let means = aggregate::aggregate_axis(AggFn::Mean, Direction::Col, &s, 1).unwrap();
        let sds = aggregate::aggregate_axis(AggFn::Sd, Direction::Col, &s, 1).unwrap();
        for j in 0..3 {
            assert!(means.get(0, j).abs() < 1e-10);
            assert!((sds.get(0, j) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn scale_constant_column_safe() {
        let m = Matrix::filled(5, 1, 7.0);
        let rules = scale_fit(&m, true, true);
        let s = scale_apply(&m, &rules).unwrap();
        for i in 0..5 {
            assert_eq!(s.get(i, 0), 0.0);
        }
    }

    #[test]
    fn scale_rules_mismatch_rejected() {
        let m = Matrix::zeros(2, 2);
        let rules = ScaleRules {
            shift: vec![0.0],
            scale: vec![1.0],
        };
        assert!(scale_apply(&m, &rules).is_err());
    }

    #[test]
    fn normalize_to_unit_interval() {
        let m = Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]).unwrap();
        let n = normalize(&m);
        assert_eq!(n.to_vec(), vec![0.0, 0.5, 1.0]);
        // constant column maps to zero
        let c = normalize(&Matrix::filled(3, 1, 4.0));
        assert_eq!(c.to_vec(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn split_sizes_and_determinism() {
        let (x, y) = gen::synthetic_regression(100, 4, 1.0, 0.1, 92);
        let (xtr, ytr, xte, yte) = train_test_split(&x, &y, 0.7, 7).unwrap();
        assert_eq!(xtr.rows(), 70);
        assert_eq!(xte.rows(), 30);
        assert_eq!(ytr.rows(), 70);
        assert_eq!(yte.rows(), 30);
        let (xtr2, ..) = train_test_split(&x, &y, 0.7, 7).unwrap();
        assert!(xtr.approx_eq(&xtr2, 0.0));
        let (xtr3, ..) = train_test_split(&x, &y, 0.7, 8).unwrap();
        assert!(!xtr.approx_eq(&xtr3, 0.0));
    }

    #[test]
    fn split_preserves_row_pairing() {
        let x = Matrix::from_vec(10, 1, (0..10).map(|i| i as f64).collect()).unwrap();
        let y = Matrix::from_vec(10, 1, (0..10).map(|i| i as f64 * 10.0).collect()).unwrap();
        let (xtr, ytr, xte, yte) = train_test_split(&x, &y, 0.5, 3).unwrap();
        for i in 0..xtr.rows() {
            assert_eq!(ytr.get(i, 0), xtr.get(i, 0) * 10.0);
        }
        for i in 0..xte.rows() {
            assert_eq!(yte.get(i, 0), xte.get(i, 0) * 10.0);
        }
    }

    #[test]
    fn split_validates_inputs() {
        let x = Matrix::zeros(4, 2);
        let y = Matrix::zeros(3, 1);
        assert!(train_test_split(&x, &y, 0.5, 1).is_err());
        let y = Matrix::zeros(4, 1);
        assert!(train_test_split(&x, &y, 0.0, 1).is_err());
        assert!(train_test_split(&x, &y, 1.0, 1).is_err());
    }
}
