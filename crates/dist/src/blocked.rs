//! Blocked matrix representation and distributed operations.
//!
//! A [`BlockedMatrix`] is the paper's `PairRDD<TensorIndexes, TensorBlock>`:
//! fixed-size square blocks keyed by `(block_row, block_col)`. "Squared
//! 1K×1K blocks ... simplify join processing because blocks are always
//! aligned" — element-wise ops join on identical keys, and matmul joins
//! A's column-block index with B's row-block index.

use crate::collection::DistCollection;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, indexing, matmult, tsmm};
use sysds_tensor::{DenseMatrix, Matrix};

/// Block index `(block_row, block_col)`.
pub type BlockIndex = (usize, usize);

/// A matrix partitioned into fixed-size square blocks.
#[derive(Debug, Clone)]
pub struct BlockedMatrix {
    rows: usize,
    cols: usize,
    block_size: usize,
    blocks: DistCollection<BlockIndex, Matrix>,
}

impl BlockedMatrix {
    /// Reblock a local matrix into `block_size` tiles over
    /// `num_partitions` partitions (the paper's `reblock` of CSV inputs).
    pub fn from_matrix(
        m: &Matrix,
        block_size: usize,
        num_partitions: usize,
    ) -> Result<BlockedMatrix> {
        let bs = block_size.max(1);
        let (rows, cols) = m.shape();
        let mut items = Vec::new();
        for br in 0..rows.div_ceil(bs) {
            for bc in 0..cols.div_ceil(bs) {
                let r0 = br * bs;
                let c0 = bc * bs;
                let block = indexing::slice(m, r0..(r0 + bs).min(rows), c0..(c0 + bs).min(cols))?;
                items.push(((br, bc), block));
            }
        }
        Ok(BlockedMatrix {
            rows,
            cols,
            block_size: bs,
            blocks: DistCollection::from_vec(items, num_partitions),
        })
    }

    /// Materialize back into one local matrix (Spark `collect` + stitch).
    pub fn to_matrix(&self) -> Matrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (&(br, bc), block) in self.blocks.clone().collect().iter().map(|(k, v)| (k, v)) {
            let (r0, c0) = (br * self.block_size, bc * self.block_size);
            for i in 0..block.rows() {
                for j in 0..block.cols() {
                    out.set(r0 + i, c0 + j, block.get(i, j));
                }
            }
        }
        Matrix::Dense(out).compact()
    }

    /// Logical shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Tile edge length.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.count()
    }

    /// Distributed element-wise op: join on aligned block indexes.
    pub fn elementwise(&self, op: BinaryOp, other: &BlockedMatrix) -> Result<BlockedMatrix> {
        if self.shape() != other.shape() || self.block_size != other.block_size {
            return Err(SysDsError::runtime(
                "blocked elementwise: misaligned blocking",
            ));
        }
        let joined = self.blocks.clone().join(other.blocks.clone());
        let blocks = joined.map_values(|_, (a, b)| {
            elementwise::binary_mm(op, &a, &b, 1).expect("aligned blocks share shapes")
        });
        Ok(BlockedMatrix {
            rows: self.rows,
            cols: self.cols,
            block_size: self.block_size,
            blocks,
        })
    }

    /// Distributed matrix multiply: replicate-free join on the contraction
    /// index followed by reduce-by-output-block (the classic RMM plan).
    pub fn matmul(&self, other: &BlockedMatrix, threads: usize) -> Result<BlockedMatrix> {
        if self.cols != other.rows || self.block_size != other.block_size {
            return Err(SysDsError::DimensionMismatch {
                op: "dist %*%",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let parts = self.blocks.num_partitions();
        // Key A blocks by contraction index k = bc, B blocks by k = br.
        let a_by_k = self
            .blocks
            .clone()
            .flat_map(parts, |(br, bc), block| vec![(bc, (br, block))]);
        let b_by_k = other
            .blocks
            .clone()
            .flat_map(parts, |(br, bc), block| vec![(br, (bc, block))]);
        let joined = a_by_k.join(b_by_k);
        let partials = joined.flat_map(parts, move |_k, ((br, ablock), (bc, bblock))| {
            let prod = matmult::matmul(&ablock, &bblock, threads, false)
                .expect("contraction dims align by construction");
            vec![((br, bc), prod)]
        });
        let blocks = partials.reduce_by_key(|a, b| {
            elementwise::binary_mm(BinaryOp::Add, &a, &b, 1).expect("partial products share shapes")
        });
        Ok(BlockedMatrix {
            rows: self.rows,
            cols: other.cols,
            block_size: self.block_size,
            blocks,
        })
    }

    /// Distributed `t(X) %*% X`: per-block fused tsmm partials reduced on
    /// the driver (the MapMM-style plan SystemML uses for tall-skinny X).
    pub fn tsmm(&self, threads: usize) -> Result<Matrix> {
        if self.cols > self.block_size {
            // General case: transpose-based plan.
            let t = self.transpose()?;
            return Ok(t.matmul(self, threads)?.to_matrix());
        }
        let partials = self
            .blocks
            .clone()
            .map_values(move |_, block| tsmm::tsmm(&block, threads, false));
        partials
            .reduce(|a, b| {
                elementwise::binary_mm(BinaryOp::Add, &a, &b, 1).expect("gram matrices share shape")
            })
            .map(Matrix::compact)
            .ok_or_else(|| SysDsError::runtime("tsmm over empty blocked matrix"))
    }

    /// Distributed transpose: remap block indexes and transpose each tile
    /// locally ("blocks ... allow local transformations like transpose").
    pub fn transpose(&self) -> Result<BlockedMatrix> {
        let parts = self.blocks.num_partitions();
        let blocks = self.blocks.clone().flat_map(parts, |(br, bc), block| {
            vec![((bc, br), sysds_tensor::kernels::reorg::transpose(&block, 1))]
        });
        Ok(BlockedMatrix {
            rows: self.cols,
            cols: self.rows,
            block_size: self.block_size,
            blocks,
        })
    }

    /// Distributed full-sum aggregate.
    pub fn sum(&self) -> f64 {
        self.blocks
            .clone()
            .map_values(|_, block| {
                sysds_tensor::kernels::aggregate::aggregate_full(
                    sysds_tensor::kernels::AggFn::Sum,
                    &block,
                    1,
                )
                .expect("sum of non-empty block")
            })
            .reduce(|a, b| a + b)
            .unwrap_or(0.0)
    }

    /// Scalar op applied block-wise.
    pub fn scalar_op(&self, op: BinaryOp, s: f64) -> BlockedMatrix {
        let blocks = self
            .blocks
            .clone()
            .map_values(move |_, block| elementwise::binary_ms(op, &block, s, 1));
        BlockedMatrix {
            rows: self.rows,
            cols: self.cols,
            block_size: self.block_size,
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    #[test]
    fn reblock_round_trip() {
        let m = gen::rand_uniform(37, 23, -1.0, 1.0, 1.0, 121);
        let b = BlockedMatrix::from_matrix(&m, 10, 4).unwrap();
        assert_eq!(b.num_blocks(), 4 * 3);
        assert!(b.to_matrix().approx_eq(&m, 0.0));
    }

    #[test]
    fn reblock_sparse_preserves_representation() {
        let m = gen::rand_uniform(50, 50, -1.0, 1.0, 0.05, 122).compact();
        let b = BlockedMatrix::from_matrix(&m, 16, 3).unwrap();
        assert!(b.to_matrix().approx_eq(&m, 0.0));
    }

    #[test]
    fn distributed_matmul_matches_local() {
        let a = gen::rand_uniform(33, 29, -1.0, 1.0, 1.0, 123);
        let b = gen::rand_uniform(29, 17, -1.0, 1.0, 1.0, 124);
        let expect = matmult::matmul(&a, &b, 1, false).unwrap();
        let da = BlockedMatrix::from_matrix(&a, 8, 4).unwrap();
        let db = BlockedMatrix::from_matrix(&b, 8, 4).unwrap();
        let got = da.matmul(&db, 1).unwrap().to_matrix();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn distributed_matmul_rejects_misaligned() {
        let a = BlockedMatrix::from_matrix(&Matrix::zeros(4, 4), 2, 1).unwrap();
        let b = BlockedMatrix::from_matrix(&Matrix::zeros(4, 4), 3, 1).unwrap();
        assert!(a.matmul(&b, 1).is_err());
        let c = BlockedMatrix::from_matrix(&Matrix::zeros(5, 4), 2, 1).unwrap();
        assert!(a.matmul(&c, 1).is_err());
    }

    #[test]
    fn distributed_elementwise_matches_local() {
        let a = gen::rand_uniform(20, 15, -1.0, 1.0, 1.0, 125);
        let b = gen::rand_uniform(20, 15, -1.0, 1.0, 1.0, 126);
        let expect = elementwise::binary_mm(BinaryOp::Mul, &a, &b, 1).unwrap();
        let da = BlockedMatrix::from_matrix(&a, 7, 3).unwrap();
        let db = BlockedMatrix::from_matrix(&b, 7, 3).unwrap();
        let got = da.elementwise(BinaryOp::Mul, &db).unwrap().to_matrix();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn distributed_tsmm_matches_local() {
        // tall-skinny: cols < block size, uses the fused per-block plan
        let x = gen::rand_uniform(64, 6, -1.0, 1.0, 1.0, 127);
        let d = BlockedMatrix::from_matrix(&x, 16, 4).unwrap();
        let got = d.tsmm(2).unwrap();
        let expect = tsmm::tsmm(&x, 1, false);
        assert!(got.approx_eq(&expect, 1e-9));
        // wide: cols > block size, falls back to transpose plan
        let w = gen::rand_uniform(30, 25, -1.0, 1.0, 1.0, 128);
        let dw = BlockedMatrix::from_matrix(&w, 8, 4).unwrap();
        assert!(dw
            .tsmm(1)
            .unwrap()
            .approx_eq(&tsmm::tsmm(&w, 1, false), 1e-9));
    }

    #[test]
    fn distributed_transpose_matches_local() {
        let m = gen::rand_uniform(21, 34, -1.0, 1.0, 1.0, 129);
        let d = BlockedMatrix::from_matrix(&m, 8, 4).unwrap();
        let got = d.transpose().unwrap().to_matrix();
        assert!(got.approx_eq(&sysds_tensor::kernels::reorg::transpose(&m, 1), 0.0));
    }

    #[test]
    fn distributed_sum_and_scalar_op() {
        let m = gen::rand_uniform(30, 30, 0.0, 1.0, 1.0, 130);
        let d = BlockedMatrix::from_matrix(&m, 9, 3).unwrap();
        let local = sysds_tensor::kernels::aggregate::aggregate_full(
            sysds_tensor::kernels::AggFn::Sum,
            &m,
            1,
        )
        .unwrap();
        assert!((d.sum() - local).abs() < 1e-9);
        let scaled = d.scalar_op(BinaryOp::Mul, 2.0);
        assert!((scaled.sum() - 2.0 * local).abs() < 1e-9);
    }
}
