//! The matrix operation library of `systemds-rs`.
//!
//! [`Matrix`] (dense or sparse `f64`) is the one data representation of
//! the linear-algebra runtime; frames (`sysds-frame`) cover heterogeneous
//! columns. The paper's §2.4 tensor blocks and §3.4 compressed matrices
//! are not reproduced. Two layers live here:
//!
//! 1. [`matrix`] — [`Matrix`] with dense (row-major) and sparse (CSR)
//!    representations chosen automatically by sparsity.
//! 2. [`kernels`] — the operation library: matrix multiplication (portable
//!    naive and BLAS-like blocked multi-threaded kernels), the fused
//!    transpose-self product `tsmm` (`t(X) %*% X`), element-wise ops with
//!    broadcasting, aggregations, reorg ops, solvers, indexing, and
//!    generators. Each op has one entry point taking the thread count.

pub mod kernels;
pub mod matrix;

pub use matrix::{checked_cells, DenseMatrix, Matrix, SparseMatrix, SPARSE_THRESHOLD};
