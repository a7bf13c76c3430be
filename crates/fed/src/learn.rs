//! Federated learning algorithms (paper §3.3).
//!
//! * [`federated_lm`] — ridge regression over federated data via the normal
//!   equations: sites compute `Xi'Xi` and `Xi'yi`, the master sums and
//!   solves. The model is *exactly* the centralized solution.
//! * [`FederatedParamServer`] — mini-batch-style federated SGD: the master
//!   broadcasts weights, each site returns its local gradient (a `cols x 1`
//!   aggregate), and the master applies synchronous (BSP) updates —
//!   "extend our existing parameter server for respecting the boundaries of
//!   federated tensors".

use crate::tensor::FederatedMatrix;
use crate::worker::FedRequest;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, solve};
use sysds_tensor::Matrix;

/// Federated ridge regression via normal equations.
/// Solves `(t(X)X + lambda I) w = t(X) y` without moving any rows.
pub fn federated_lm(x: &FederatedMatrix, y: &FederatedMatrix, lambda: f64) -> Result<Matrix> {
    if y.cols() != 1 {
        return Err(SysDsError::Federated(
            "federated lm expects a label vector".into(),
        ));
    }
    let mut gram = x.tsmm()?;
    if lambda != 0.0 {
        let n = gram.rows();
        let reg = elementwise::binary_ms(
            BinaryOp::Mul,
            &Matrix::Dense(Matrix::identity(n).to_dense()),
            lambda,
            1,
        );
        gram = elementwise::binary_mm(BinaryOp::Add, &gram, &reg, 1)?;
    }
    let xty = x.tmv(y)?;
    solve::solve(&gram, &xty)
}

/// Synchronous federated parameter server for linear regression SGD.
#[derive(Debug)]
pub struct FederatedParamServer {
    /// Current model weights (`cols x 1`).
    weights: Matrix,
    /// Step size.
    learning_rate: f64,
    /// L2 regularization strength.
    lambda: f64,
}

impl FederatedParamServer {
    /// Initialize with zero weights.
    pub fn new(num_features: usize, learning_rate: f64, lambda: f64) -> FederatedParamServer {
        FederatedParamServer {
            weights: Matrix::zeros(num_features, 1),
            learning_rate,
            lambda,
        }
    }

    /// Current weights.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// One BSP epoch: broadcast weights, gather per-site gradients of the
    /// squared loss, average, and step. Returns the gradient norm.
    pub fn step(&mut self, x: &FederatedMatrix, y: &FederatedMatrix) -> Result<f64> {
        if x.num_partitions() != y.num_partitions() {
            return Err(SysDsError::Federated("X and y partitioning differs".into()));
        }
        let mut grad: Option<Matrix> = None;
        for (px, py) in x.partitions().iter().zip(y.partitions()) {
            let g = px.worker.request_aggregate(FedRequest::LinRegGradient {
                x: px.var.clone(),
                y: py.var.clone(),
                w: self.weights.clone(),
            })?;
            grad = Some(match grad {
                None => g,
                Some(acc) => elementwise::binary_mm(BinaryOp::Add, &acc, &g, 1)?,
            });
        }
        let mut grad = grad.ok_or_else(|| SysDsError::Federated("no partitions".into()))?;
        // Average over the global row count and add the L2 term.
        grad = elementwise::binary_ms(BinaryOp::Div, &grad, x.rows() as f64, 1);
        if self.lambda != 0.0 {
            let reg = elementwise::binary_ms(BinaryOp::Mul, &self.weights, self.lambda, 1);
            grad = elementwise::binary_mm(BinaryOp::Add, &grad, &reg, 1)?;
        }
        let step = elementwise::binary_ms(BinaryOp::Mul, &grad, self.learning_rate, 1);
        self.weights = elementwise::binary_mm(BinaryOp::Sub, &self.weights, &step, 1)?;
        let norm = sysds_tensor::kernels::aggregate::aggregate_full(
            sysds_tensor::kernels::AggFn::SumSq,
            &grad,
            1,
        )?
        .sqrt();
        Ok(norm)
    }

    /// Run epochs until the gradient norm drops below `tol` or `max_epochs`
    /// is reached; returns the number of epochs run.
    pub fn train(
        &mut self,
        x: &FederatedMatrix,
        y: &FederatedMatrix,
        max_epochs: usize,
        tol: f64,
    ) -> Result<usize> {
        for epoch in 1..=max_epochs {
            let norm = self.step(x, y)?;
            if norm < tol {
                return Ok(epoch);
            }
        }
        Ok(max_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::worker::WorkerHandle;
    use std::sync::Arc;
    use sysds_tensor::kernels::{gen, tsmm};

    fn workers(n: usize) -> Vec<Arc<dyn Transport>> {
        (0..n)
            .map(|_| Arc::new(WorkerHandle::spawn(vec![], 1)) as Arc<dyn Transport>)
            .collect()
    }

    fn centralized_lm(x: &Matrix, y: &Matrix, lambda: f64) -> Matrix {
        let mut g = tsmm::tsmm(x, 1, false);
        if lambda != 0.0 {
            let reg = elementwise::binary_ms(
                BinaryOp::Mul,
                &Matrix::Dense(Matrix::identity(g.rows()).to_dense()),
                lambda,
                1,
            );
            g = elementwise::binary_mm(BinaryOp::Add, &g, &reg, 1).unwrap();
        }
        let b = tsmm::tmv(x, y, 1).unwrap();
        solve::solve(&g, &b).unwrap()
    }

    #[test]
    fn federated_lm_equals_centralized() {
        let (x, y) = gen::synthetic_regression(60, 5, 1.0, 0.1, 151);
        let ws = workers(3);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        for lambda in [0.0, 0.01, 1.0] {
            let fed = federated_lm(&fx, &fy, lambda).unwrap();
            let central = centralized_lm(&x, &y, lambda);
            assert!(fed.approx_eq(&central, 1e-7), "lambda={lambda}");
        }
    }

    #[test]
    fn federated_lm_single_site_degenerates_to_local() {
        let (x, y) = gen::synthetic_regression(30, 3, 1.0, 0.05, 152);
        let ws = workers(1);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let fed = federated_lm(&fx, &fy, 0.001).unwrap();
        assert!(fed.approx_eq(&centralized_lm(&x, &y, 0.001), 1e-8));
    }

    #[test]
    fn federated_lm_rejects_matrix_labels() {
        let x = gen::rand_uniform(10, 2, 0.0, 1.0, 1.0, 153);
        let ws = workers(2);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy2 = FederatedMatrix::scatter(&x, &ws).unwrap();
        assert!(federated_lm(&fx, &fy2, 0.0).is_err());
    }

    #[test]
    fn federated_sgd_converges_toward_true_weights() {
        let (x, y) = gen::synthetic_regression(200, 4, 1.0, 0.0, 154);
        let ws = workers(4);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let mut ps = FederatedParamServer::new(4, 0.5, 0.0);
        let epochs = ps.train(&fx, &fy, 500, 1e-8).unwrap();
        assert!(epochs <= 500);
        let exact = centralized_lm(&x, &y, 0.0);
        assert!(
            ps.weights().approx_eq(&exact, 1e-2),
            "sgd {:?} vs exact {:?}",
            ps.weights().to_vec(),
            exact.to_vec()
        );
    }

    #[test]
    fn sgd_gradient_norm_decreases() {
        let (x, y) = gen::synthetic_regression(100, 3, 1.0, 0.0, 155);
        let ws = workers(2);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let mut ps = FederatedParamServer::new(3, 0.5, 0.0);
        let first = ps.step(&fx, &fy).unwrap();
        let mut last = first;
        for _ in 0..50 {
            last = ps.step(&fx, &fy).unwrap();
        }
        assert!(
            last < first,
            "gradient norm should shrink: {first} -> {last}"
        );
    }

    #[test]
    fn sgd_with_regularization_shrinks_weights() {
        let (x, y) = gen::synthetic_regression(100, 3, 1.0, 0.0, 156);
        let ws = workers(2);
        let fx = FederatedMatrix::scatter(&x, &ws).unwrap();
        let fy = FederatedMatrix::scatter(&y, &ws).unwrap();
        let mut free = FederatedParamServer::new(3, 0.3, 0.0);
        let mut reg = FederatedParamServer::new(3, 0.3, 1.0);
        free.train(&fx, &fy, 200, 1e-10).unwrap();
        reg.train(&fx, &fy, 200, 1e-10).unwrap();
        let norm = |m: &Matrix| {
            sysds_tensor::kernels::aggregate::aggregate_full(
                sysds_tensor::kernels::AggFn::SumSq,
                m,
                1,
            )
            .unwrap()
        };
        assert!(norm(reg.weights()) < norm(free.weights()));
    }
}
