//! The operation library over [`crate::Matrix`].
//!
//! Mirrors SystemDS's TensorBlock operation library (paper §2.4): every
//! kernel comes in a single-threaded portable form and, where it matters,
//! a multi-threaded and/or "native BLAS"-style optimized form. The runtime
//! selects kernels through [`sysds_common::EngineConfig`] (`num_threads`,
//! `native_blas`), which models the SysDS vs SysDS-B distinction in the
//! paper's §4.2. The blocked `tsmm` and the Cholesky factorization pick an
//! AVX2 or AVX-512F copy at run time through `simd`, with bit-identical
//! results.

pub mod aggregate;
pub mod elementwise;
pub mod fused;
pub mod gen;
pub mod indexing;
pub mod matmult;
pub mod reorg;
pub(crate) mod simd;
pub mod solve;
pub mod tsmm;

pub use aggregate::{AggFn, Direction};
pub use elementwise::{BinaryOp, UnaryOp};

use crate::matrix::DenseMatrix;

/// Cell count below which row-partitioned kernels stay sequential; thread
/// spawns cost more than the work they would split.
pub(crate) const PAR_MIN_CELLS: usize = 1 << 15;

/// Row partitions for a parallel kernel over an `rows x cols` operand:
/// collapses to a single partition when the input is too small to amortize
/// thread spawns.
pub(crate) fn par_row_partitions(rows: usize, cols: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = if rows.saturating_mul(cols) < PAR_MIN_CELLS {
        1
    } else {
        threads
    };
    DenseMatrix::row_partitions(rows, t)
}
