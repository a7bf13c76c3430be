//! Simulated distributed backend (paper §2.3 (4), §2.4).
//!
//! SystemDS executes distributed operations on Spark as RDDs of
//! `(TensorIndexes, TensorBlock)` pairs. This crate reproduces that
//! execution model on a single node for 2-D matrices:
//!
//! * [`collection`] — an RDD-like partitioned collection with
//!   `map`/`reduce_by_key`/`join` executed on a thread pool;
//! * [`blocked`] — blocked matrices (fixed-size square tiles, aligned
//!   joins) with distributed matmul, tsmm, element-wise ops, and
//!   aggregations.
//!
//! The paper's exponentially-decreasing n-dimensional blocking scheme is
//! not reproduced: every dataset here is a 2-D matrix.

pub mod blocked;
pub mod collection;

pub use blocked::BlockedMatrix;
pub use collection::DistCollection;
