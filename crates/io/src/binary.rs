//! Binary blocked matrix format.
//!
//! The on-disk layout mirrors the distributed representation (paper §2.4):
//! a header followed by fixed-size, independently-encoded blocks keyed by
//! block indices. The same encoding backs buffer-pool spill files.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "SDSB" | version u32 | rows u64 | cols u64 | block_size u64 | nblocks u64
//! per block: brow u64 | bcol u64 | kind u8 (0 dense, 1 sparse) | payload
//!   dense payload:  r u64 | c u64 | r*c f64 values (row-major)
//!   sparse payload: r u64 | c u64 | nnz u64 | nnz * (row u64, col u64, value f64)
//! ```

use std::fs;
use std::path::Path;
use sysds_common::{Result, SysDsError};
use sysds_tensor::kernels::indexing;
use sysds_tensor::{checked_cells, DenseMatrix, Matrix, SparseMatrix};

const MAGIC: &[u8; 4] = b"SDSB";
const VERSION: u32 = 1;

/// Checked little-endian reader over a byte slice, shared by this format
/// and the federated wire protocol. Every read fails with
/// [`SysDsError::Format`] instead of panicking when the input is short, so
/// untrusted bytes (spill files, network frames) can never crash a decoder.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Unread byte count.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(SysDsError::Format(format!(
                "truncated input: need {n} bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// The next `count` records of `width` bytes each, with the byte
    /// length overflow-checked.
    pub fn take_records(&mut self, count: usize, width: usize) -> Result<&'a [u8]> {
        let n = count.checked_mul(width).ok_or_else(|| {
            SysDsError::Format(format!("record count {count} overflows the input length"))
        })?;
        self.take(n)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u64` size or index field as `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SysDsError::Format(format!("size {v} exceeds usize")))
    }
}

fn put_u64(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u64).to_le_bytes());
}

/// `rows * cols`, rejected when the dense byte size would overflow.
fn cell_count(rows: usize, cols: usize) -> Result<usize> {
    checked_cells(rows, cols)
        .ok_or_else(|| SysDsError::Format(format!("matrix shape {rows}x{cols} overflows")))
}

/// Encode one matrix block (any shape) into a byte buffer.
pub fn encode_block(m: &Matrix, buf: &mut Vec<u8>) {
    match m {
        Matrix::Dense(d) => {
            buf.reserve(17 + d.values().len() * 8);
            buf.push(0);
            put_u64(buf, d.rows());
            put_u64(buf, d.cols());
            for &v in d.values() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Matrix::Sparse(s) => {
            buf.reserve(25 + s.nnz() * 24);
            buf.push(1);
            put_u64(buf, s.rows());
            put_u64(buf, s.cols());
            put_u64(buf, s.nnz());
            for (i, j, v) in s.iter_nonzeros() {
                put_u64(buf, i);
                put_u64(buf, j);
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Decode one matrix block, advancing the reader past it.
pub fn decode_block(r: &mut Reader) -> Result<Matrix> {
    let kind = r.u8()?;
    let rows = r.usize()?;
    let cols = r.usize()?;
    let cells = cell_count(rows, cols)?;
    match kind {
        0 => {
            let data = r
                .take_records(cells, 8)?
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
                .collect();
            Ok(Matrix::Dense(DenseMatrix::from_vec(rows, cols, data)))
        }
        1 => {
            let nnz = r.usize()?;
            let mut records = Reader::new(r.take_records(nnz, 24)?);
            let mut triples = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                let (i, j, v) = (records.usize()?, records.usize()?, records.f64()?);
                if i >= rows || j >= cols {
                    return Err(SysDsError::Format("sparse block index out of range".into()));
                }
                triples.push((i, j, v));
            }
            Ok(Matrix::Sparse(SparseMatrix::from_triples(
                rows, cols, triples,
            )))
        }
        other => Err(SysDsError::Format(format!("unknown block kind {other}"))),
    }
}

/// Write a matrix as a blocked binary file with `block_size` tiles.
pub fn write_matrix(path: impl AsRef<Path>, m: &Matrix, block_size: usize) -> Result<()> {
    let path = path.as_ref();
    let bs = block_size.max(1);
    let (rows, cols) = m.shape();
    let brows = rows.div_ceil(bs).max(1);
    let bcols = cols.div_ceil(bs).max(1);
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_u64(&mut buf, rows);
    put_u64(&mut buf, cols);
    put_u64(&mut buf, bs);
    let nblocks = if rows == 0 || cols == 0 {
        0
    } else {
        brows * bcols
    };
    put_u64(&mut buf, nblocks);
    if nblocks > 0 {
        for br in 0..brows {
            for bc in 0..bcols {
                let r0 = br * bs;
                let c0 = bc * bs;
                let block = indexing::slice(m, r0..(r0 + bs).min(rows), c0..(c0 + bs).min(cols))?;
                put_u64(&mut buf, br);
                put_u64(&mut buf, bc);
                encode_block(&block, &mut buf);
            }
        }
    }
    fs::write(path, &buf).map_err(|e| SysDsError::io(path.display().to_string(), e))
}

/// Read a blocked binary matrix file.
pub fn read_matrix(path: impl AsRef<Path>) -> Result<Matrix> {
    let path = path.as_ref();
    let data = fs::read(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    let mut r = Reader::new(&data);
    if r.take(4).ok() != Some(&MAGIC[..]) {
        return Err(SysDsError::Format(
            "not a SystemDS binary matrix file".into(),
        ));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SysDsError::Format(format!(
            "unsupported binary version {version}"
        )));
    }
    let rows = r.usize()?;
    let cols = r.usize()?;
    let bs = r.usize()?;
    let nblocks = r.usize()?;
    cell_count(rows, cols)?;
    let mut out = DenseMatrix::zeros(rows, cols);
    for _ in 0..nblocks {
        let br = r.usize()?;
        let bc = r.usize()?;
        let block = decode_block(&mut r)?;
        let (r0, c0) = (br.saturating_mul(bs), bc.saturating_mul(bs));
        if r0.saturating_add(block.rows()) > rows || c0.saturating_add(block.cols()) > cols {
            return Err(SysDsError::Format("block exceeds matrix bounds".into()));
        }
        for i in 0..block.rows() {
            for j in 0..block.cols() {
                out.set(r0 + i, c0 + j, block.get(i, j));
            }
        }
    }
    Ok(Matrix::Dense(out).compact())
}

/// Encode a whole matrix into one buffer (used by buffer-pool spilling).
pub fn encode_matrix(m: &Matrix) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_block(m, &mut buf);
    buf
}

/// Decode a whole matrix from one buffer.
pub fn decode_matrix(bytes: &[u8]) -> Result<Matrix> {
    decode_block(&mut Reader::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = sysds_common::testing::unique_temp_dir("sysds-io-binary-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn dense_round_trip() {
        let m = gen::rand_uniform(100, 37, -10.0, 10.0, 1.0, 111);
        let p = tmp("dense.bin");
        write_matrix(&p, &m, 32).unwrap();
        let back = read_matrix(&p).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn sparse_round_trip() {
        let m = gen::rand_uniform(80, 80, -1.0, 1.0, 0.05, 112).compact();
        assert!(m.is_sparse());
        let p = tmp("sparse.bin");
        write_matrix(&p, &m, 25).unwrap();
        let back = read_matrix(&p).unwrap();
        assert!(back.approx_eq(&m, 0.0));
        assert!(back.is_sparse());
    }

    #[test]
    fn block_size_larger_than_matrix() {
        let m = gen::rand_uniform(5, 5, 0.0, 1.0, 1.0, 113);
        let p = tmp("big-block.bin");
        write_matrix(&p, &m, 1024).unwrap();
        assert!(read_matrix(&p).unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m = Matrix::zeros(0, 0);
        let p = tmp("empty.bin");
        write_matrix(&p, &m, 16).unwrap();
        let back = read_matrix(&p).unwrap();
        assert_eq!(back.shape(), (0, 0));
    }

    #[test]
    fn corrupted_file_rejected() {
        let p = tmp("corrupt.bin");
        std::fs::write(&p, b"garbage data here").unwrap();
        assert!(read_matrix(&p).is_err());
        std::fs::write(&p, b"SD").unwrap();
        assert!(read_matrix(&p).is_err());
    }

    #[test]
    fn single_buffer_encode_decode() {
        let m = gen::rand_uniform(20, 20, -1.0, 1.0, 0.1, 114).compact();
        let bytes = encode_matrix(&m);
        let back = decode_matrix(&bytes).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn truncated_block_rejected() {
        let m = gen::rand_uniform(10, 10, 0.0, 1.0, 1.0, 115);
        let bytes = encode_matrix(&m);
        assert!(decode_matrix(&bytes[..bytes.len() / 2]).is_err());
        assert!(decode_matrix(&[]).is_err());
    }

    /// A block header whose byte length wraps `usize` arithmetic (dense
    /// `rows * cols * 8`, sparse `nnz * 24`) must be rejected as malformed,
    /// not turned into a huge allocation.
    #[test]
    fn overflowing_block_headers_rejected() {
        let huge = (1u64 << 62).to_le_bytes();
        let dense = [&[0u8][..], &huge, &2u64.to_le_bytes()].concat();
        let sparse = [&[1u8][..], &4u64.to_le_bytes(), &4u64.to_le_bytes(), &huge].concat();
        for bytes in [dense, sparse] {
            assert!(matches!(decode_matrix(&bytes), Err(SysDsError::Format(_))));
        }
    }
}
