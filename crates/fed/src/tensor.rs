//! Federated tensors: metadata objects over row-partitioned remote data.
//!
//! "A federated tensor ... is a metadata object holding multiple references
//! to — potentially remote — in-memory or distributed tensors. Subtensors
//! cover disjoint index ranges of the tensor" (paper §2.4). We implement
//! the row-partitioned 2-D case, which is the one federated learning uses.

use crate::transport::Transport;
use crate::worker::FedRequest;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::elementwise::BinaryOp;
use sysds_tensor::kernels::indexing;
use sysds_tensor::Matrix;

static NEXT_VAR: AtomicU64 = AtomicU64::new(0);

fn fresh_var(prefix: &str) -> String {
    format!(
        "__fed_{prefix}_{}",
        NEXT_VAR.fetch_add(1, Ordering::Relaxed)
    )
}

/// One partition: rows `[row_lo, row_hi)` live at `worker` under `var`.
/// The worker is any [`Transport`] — an in-process thread or a TCP site.
#[derive(Debug, Clone)]
pub struct FedPartition {
    pub row_lo: usize,
    pub row_hi: usize,
    pub worker: Arc<dyn Transport>,
    pub var: String,
}

/// A row-partitioned federated matrix.
#[derive(Debug, Clone)]
pub struct FederatedMatrix {
    rows: usize,
    cols: usize,
    partitions: Vec<FedPartition>,
}

impl FederatedMatrix {
    /// Scatter a local matrix across `workers` in contiguous row ranges
    /// (test/bootstrap path; production data would already live at sites).
    pub fn scatter(m: &Matrix, workers: &[Arc<dyn Transport>]) -> Result<FederatedMatrix> {
        if workers.is_empty() {
            return Err(SysDsError::Federated(
                "scatter needs at least one worker".into(),
            ));
        }
        let rows = m.rows();
        let per = rows.div_ceil(workers.len()).max(1);
        let mut partitions = Vec::new();
        let mut lo = 0usize;
        for w in workers {
            if lo >= rows {
                break;
            }
            let hi = (lo + per).min(rows);
            let var = fresh_var("part");
            let slice = indexing::slice(m, lo..hi, 0..m.cols())?;
            w.request(FedRequest::Put {
                var: var.clone(),
                data: slice,
            })?;
            partitions.push(FedPartition {
                row_lo: lo,
                row_hi: hi,
                worker: Arc::clone(w),
                var,
            });
            lo = hi;
        }
        Ok(FederatedMatrix {
            rows,
            cols: m.cols(),
            partitions,
        })
    }

    /// Assemble from partitions that already live at sites. Ranges must be
    /// contiguous from zero and disjoint ("uncovered areas are zero" is
    /// not needed for the row-partitioned learning case).
    pub fn from_partitions(cols: usize, partitions: Vec<FedPartition>) -> Result<FederatedMatrix> {
        let mut expected = 0usize;
        for p in &partitions {
            if p.row_lo != expected || p.row_hi <= p.row_lo {
                return Err(SysDsError::Federated(
                    "federated ranges must be contiguous and non-empty".into(),
                ));
            }
            expected = p.row_hi;
        }
        Ok(FederatedMatrix {
            rows: expected,
            cols,
            partitions,
        })
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of federated sites backing this tensor.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Access partition metadata.
    pub fn partitions(&self) -> &[FedPartition] {
        &self.partitions
    }

    /// Federated `t(X) %*% X`: push fused tsmm to every site, add the
    /// aggregates at the master. Only `cols x cols` matrices travel.
    pub fn tsmm(&self) -> Result<Matrix> {
        let mut acc: Option<Matrix> = None;
        for p in &self.partitions {
            let part = p
                .worker
                .request_aggregate(FedRequest::Tsmm { var: p.var.clone() })?;
            acc = Some(match acc {
                None => part,
                Some(a) => elementwise_add(&a, &part)?,
            });
        }
        acc.ok_or_else(|| SysDsError::Federated("tsmm over empty federated matrix".into()))
    }

    /// Federated `t(X) %*% y` for an aligned federated `y`.
    pub fn tmv(&self, y: &FederatedMatrix) -> Result<Matrix> {
        self.check_aligned(y)?;
        let mut acc: Option<Matrix> = None;
        for (px, py) in self.partitions.iter().zip(&y.partitions) {
            let part = px.worker.request_aggregate(FedRequest::Tmv {
                x: px.var.clone(),
                y: py.var.clone(),
            })?;
            acc = Some(match acc {
                None => part,
                Some(a) => elementwise_add(&a, &part)?,
            });
        }
        acc.ok_or_else(|| SysDsError::Federated("tmv over empty federated matrix".into()))
    }

    /// Federated `X %*% v` with broadcast `v`; the row-partitioned result
    /// stays federated (a new federated matrix of the same ranges).
    pub fn mat_vec(&self, v: &Matrix) -> Result<FederatedMatrix> {
        if v.rows() != self.cols || v.cols() != 1 {
            return Err(SysDsError::DimensionMismatch {
                op: "fed %*%",
                lhs: (self.rows, self.cols),
                rhs: v.shape(),
            });
        }
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            let out = fresh_var("mv");
            p.worker.request(FedRequest::MatVecKeep {
                var: p.var.clone(),
                v: v.clone(),
                out: out.clone(),
            })?;
            partitions.push(FedPartition {
                row_lo: p.row_lo,
                row_hi: p.row_hi,
                worker: Arc::clone(&p.worker),
                var: out,
            });
        }
        FederatedMatrix::from_partitions(1, partitions)
    }

    /// Federated element-wise op with an aligned federated operand; the
    /// result stays federated.
    pub fn binary_op(&self, op: BinaryOp, other: &FederatedMatrix) -> Result<FederatedMatrix> {
        self.check_aligned(other)?;
        if self.cols != other.cols {
            return Err(SysDsError::Federated(
                "federated binary op: column mismatch".into(),
            ));
        }
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for (pa, pb) in self.partitions.iter().zip(&other.partitions) {
            let out = fresh_var("bin");
            pa.worker.request(FedRequest::BinaryOpKeep {
                lhs: pa.var.clone(),
                rhs: pb.var.clone(),
                op,
                out: out.clone(),
            })?;
            partitions.push(FedPartition {
                row_lo: pa.row_lo,
                row_hi: pa.row_hi,
                worker: Arc::clone(&pa.worker),
                var: out,
            });
        }
        FederatedMatrix::from_partitions(self.cols, partitions)
    }

    /// Federated element-wise op with a broadcast scalar; the result stays
    /// federated at the sites.
    pub fn scalar_op(&self, op: BinaryOp, scalar: f64) -> Result<FederatedMatrix> {
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            let out = fresh_var("sop");
            p.worker.request(FedRequest::ScalarOpKeep {
                var: p.var.clone(),
                op,
                scalar,
                out: out.clone(),
            })?;
            partitions.push(FedPartition {
                row_lo: p.row_lo,
                row_hi: p.row_hi,
                worker: Arc::clone(&p.worker),
                var: out,
            });
        }
        FederatedMatrix::from_partitions(self.cols, partitions)
    }

    /// Federated column sums (a `1 x cols` aggregate).
    pub fn col_sums(&self) -> Result<Matrix> {
        let mut acc: Option<Matrix> = None;
        for p in &self.partitions {
            let part = p
                .worker
                .request_aggregate(FedRequest::ColSums { var: p.var.clone() })?;
            acc = Some(match acc {
                None => part,
                Some(a) => elementwise_add(&a, &part)?,
            });
        }
        acc.ok_or_else(|| SysDsError::Federated("col_sums over empty federated matrix".into()))
    }

    /// Federated sum of squares (scalar aggregate; e.g. residual norms).
    pub fn sum_sq(&self) -> Result<f64> {
        let mut acc = 0.0;
        for p in &self.partitions {
            acc += p
                .worker
                .request_scalar(FedRequest::SumSq { var: p.var.clone() })?;
        }
        Ok(acc)
    }

    /// Free the site-side variables backing this federated matrix.
    pub fn free(self) -> Result<()> {
        for p in &self.partitions {
            p.worker
                .request(FedRequest::Remove { var: p.var.clone() })?;
        }
        Ok(())
    }

    fn check_aligned(&self, other: &FederatedMatrix) -> Result<()> {
        if self.partitions.len() != other.partitions.len()
            || self.partitions.iter().zip(&other.partitions).any(|(a, b)| {
                a.row_lo != b.row_lo
                    || a.row_hi != b.row_hi
                    || a.worker.endpoint() != b.worker.endpoint()
            })
        {
            return Err(SysDsError::Federated(
                "federated operands are not range-aligned".into(),
            ));
        }
        Ok(())
    }
}

fn elementwise_add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    sysds_tensor::kernels::elementwise::binary_mm(BinaryOp::Add, a, b, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerHandle;
    use sysds_tensor::kernels::{gen, matmult, reorg, tsmm as local_tsmm};

    fn workers(n: usize) -> Vec<Arc<dyn Transport>> {
        (0..n)
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect()
    }

    #[test]
    fn scatter_covers_all_rows() {
        let m = gen::rand_uniform(25, 4, -1.0, 1.0, 1.0, 141);
        let ws = workers(3);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        assert_eq!(f.rows(), 25);
        assert_eq!(f.cols(), 4);
        assert_eq!(f.num_partitions(), 3);
        let covered: usize = f.partitions().iter().map(|p| p.row_hi - p.row_lo).sum();
        assert_eq!(covered, 25);
    }

    #[test]
    fn federated_tsmm_matches_local() {
        let m = gen::rand_uniform(40, 5, -1.0, 1.0, 1.0, 142);
        let ws = workers(4);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let got = f.tsmm().unwrap();
        assert!(got.approx_eq(&local_tsmm::tsmm(&m, 1, false), 1e-9));
    }

    #[test]
    fn federated_tmv_matches_local() {
        let (x, y) = gen::synthetic_regression(30, 4, 1.0, 0.2, 143);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let got = fx.tmv(&fy).unwrap();
        let expect = matmult::matmul(&reorg::transpose(&x, 1), &y, 1, false).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn misaligned_operands_rejected() {
        let x = gen::rand_uniform(20, 3, -1.0, 1.0, 1.0, 144);
        let ws2 = workers(2);
        let ws3 = workers(3);
        let fa = FederatedMatrix::scatter(&x, &ws2).unwrap();
        let fb = FederatedMatrix::scatter(&x, &ws3).unwrap();
        assert!(fa.tmv(&fb).is_err());
    }

    #[test]
    fn mat_vec_stays_federated_and_aggregates_match() {
        let x = gen::rand_uniform(22, 4, -1.0, 1.0, 1.0, 145);
        let v = gen::rand_uniform(4, 1, -1.0, 1.0, 1.0, 146);
        let ws = workers(2);
        let f = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fp = f.mat_vec(&v).unwrap();
        assert_eq!(fp.rows(), 22);
        assert_eq!(fp.cols(), 1);
        let local = matmult::matmul(&x, &v, 1, false).unwrap();
        let local_ss = sysds_tensor::kernels::aggregate::aggregate_full(
            sysds_tensor::kernels::AggFn::SumSq,
            &local,
            1,
        )
        .unwrap();
        assert!((fp.sum_sq().unwrap() - local_ss).abs() < 1e-9);
        assert!(f.mat_vec(&Matrix::zeros(9, 1)).is_err());
    }

    #[test]
    fn binary_op_between_federated_results() {
        let (x, y) = gen::synthetic_regression(18, 3, 1.0, 0.0, 147);
        let w = gen::rand_uniform(3, 1, -1.0, 1.0, 1.0, 148);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let pred = fx.mat_vec(&w).unwrap();
        let resid = pred.binary_op(BinaryOp::Sub, &fy).unwrap();
        let local_pred = matmult::matmul(&x, &w, 1, false).unwrap();
        let local_resid =
            sysds_tensor::kernels::elementwise::binary_mm(BinaryOp::Sub, &local_pred, &y, 1)
                .unwrap();
        let local_ss = sysds_tensor::kernels::aggregate::aggregate_full(
            sysds_tensor::kernels::AggFn::SumSq,
            &local_resid,
            1,
        )
        .unwrap();
        assert!((resid.sum_sq().unwrap() - local_ss).abs() < 1e-9);
    }

    #[test]
    fn col_sums_match_local() {
        let m = gen::rand_uniform(31, 6, 0.0, 1.0, 1.0, 149);
        let ws = workers(4);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let got = f.col_sums().unwrap();
        let expect = sysds_tensor::kernels::aggregate::aggregate_axis(
            sysds_tensor::kernels::AggFn::Sum,
            sysds_tensor::kernels::Direction::Col,
            &m,
            1,
        )
        .unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn free_releases_site_variables() {
        let m = gen::rand_uniform(10, 2, 0.0, 1.0, 1.0, 150);
        let ws = workers(2);
        let f = FederatedMatrix::scatter(&m, &ws).unwrap();
        let vars: Vec<(Arc<dyn Transport>, String)> = f
            .partitions()
            .iter()
            .map(|p| (Arc::clone(&p.worker), p.var.clone()))
            .collect();
        f.free().unwrap();
        for (w, var) in vars {
            assert!(w.request(FedRequest::NumRows { var }).is_err());
        }
    }

    #[test]
    fn from_partitions_validates_ranges() {
        let ws = workers(1);
        let bad = vec![FedPartition {
            row_lo: 5,
            row_hi: 10,
            worker: Arc::clone(&ws[0]),
            var: "x".into(),
        }];
        assert!(FederatedMatrix::from_partitions(2, bad).is_err());
    }
}
