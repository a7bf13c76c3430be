//! Element-wise binary and unary operations with R-style broadcasting.
//!
//! Binary operations support matrix-matrix (equal shapes), matrix-scalar,
//! and row-/column-vector broadcasting, matching DML semantics. Sparse
//! inputs stay sparse for zero-preserving operations (e.g. `sparse * dense`,
//! `sparse ^ 2`) and densify otherwise.

use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::{par, Result, SysDsError};

/// Binary element-wise operators of the DML language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Mod,
    IntDiv,
    Min,
    Max,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinaryOp {
    /// Apply to two scalars.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Mod => {
                // R-style modulus: result has the sign of the divisor.
                let r = a % b;
                if r != 0.0 && (r < 0.0) != (b < 0.0) {
                    r + b
                } else {
                    r
                }
            }
            BinaryOp::IntDiv => (a / b).floor(),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::Eq => f64::from(a == b),
            BinaryOp::Neq => f64::from(a != b),
            BinaryOp::Lt => f64::from(a < b),
            BinaryOp::Le => f64::from(a <= b),
            BinaryOp::Gt => f64::from(a > b),
            BinaryOp::Ge => f64::from(a >= b),
            BinaryOp::And => f64::from(a != 0.0 && b != 0.0),
            BinaryOp::Or => f64::from(a != 0.0 || b != 0.0),
        }
    }

    /// Whether `op(0, x) == 0` for all x — the left-sparse-safe property.
    pub fn zero_preserving_left(self) -> bool {
        matches!(self, BinaryOp::Mul | BinaryOp::And)
    }

    /// Whether `op(x, 0) == 0` for all x.
    pub fn zero_preserving_right(self) -> bool {
        matches!(self, BinaryOp::Mul | BinaryOp::And)
    }

    /// The DML opcode string (used for lineage and instruction names).
    pub fn opcode(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "^",
            BinaryOp::Mod => "%%",
            BinaryOp::IntDiv => "%/%",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
        }
    }
}

/// Unary element-wise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
    Abs,
    Exp,
    Log,
    Sqrt,
    Sin,
    Cos,
    Tan,
    Sign,
    Round,
    Floor,
    Ceil,
    Sigmoid,
}

impl UnaryOp {
    /// Apply to one scalar.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            UnaryOp::Neg => -v,
            UnaryOp::Not => f64::from(v == 0.0),
            UnaryOp::Abs => v.abs(),
            UnaryOp::Exp => v.exp(),
            UnaryOp::Log => v.ln(),
            UnaryOp::Sqrt => v.sqrt(),
            UnaryOp::Sin => v.sin(),
            UnaryOp::Cos => v.cos(),
            UnaryOp::Tan => v.tan(),
            UnaryOp::Sign => {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Round => v.round(),
            UnaryOp::Floor => v.floor(),
            UnaryOp::Ceil => v.ceil(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        }
    }

    /// Whether `op(0) == 0` (sparse inputs keep their representation).
    pub fn zero_preserving(self) -> bool {
        matches!(
            self,
            UnaryOp::Neg
                | UnaryOp::Abs
                | UnaryOp::Sqrt
                | UnaryOp::Sin
                | UnaryOp::Tan
                | UnaryOp::Sign
                | UnaryOp::Round
                | UnaryOp::Floor
                | UnaryOp::Ceil
        )
    }

    /// The DML opcode string.
    pub fn opcode(self) -> &'static str {
        match self {
            UnaryOp::Neg => "u-",
            UnaryOp::Not => "!",
            UnaryOp::Abs => "abs",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
            UnaryOp::Tan => "tan",
            UnaryOp::Sign => "sign",
            UnaryOp::Round => "round",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Sigmoid => "sigmoid",
        }
    }
}

/// How the right operand broadcasts onto the left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Broadcast {
    /// Shapes equal, cell-by-cell.
    None,
    /// Right is a column vector (`m x 1`) repeated across columns.
    ColVector,
    /// Right is a row vector (`1 x n`) repeated down rows.
    RowVector,
}

fn broadcast_mode(lhs: (usize, usize), rhs: (usize, usize)) -> Result<Broadcast> {
    if lhs == rhs {
        Ok(Broadcast::None)
    } else if rhs == (lhs.0, 1) {
        Ok(Broadcast::ColVector)
    } else if rhs == (1, lhs.1) {
        Ok(Broadcast::RowVector)
    } else {
        Err(SysDsError::DimensionMismatch {
            op: "elementwise",
            lhs,
            rhs,
        })
    }
}

/// Matrix ⊕ matrix with broadcasting, row-partitioned over `threads`.
pub fn binary_mm(op: BinaryOp, a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    let mode = broadcast_mode(a.shape(), b.shape())?;
    // Sparse fast path: zero-preserving ops on a sparse left operand touch
    // only stored entries.
    if let (Matrix::Sparse(sa), true) = (a, op.zero_preserving_left()) {
        return Ok(sparse_left_zero_preserving(op, sa, b, mode));
    }
    let (m, n) = a.shape();
    let mut out = DenseMatrix::zeros(m, n);
    let parts = super::par_row_partitions(m, n, threads);
    par::map(
        par::row_chunks(out.values_mut(), &parts, n),
        |(lo, hi, chunk)| {
            for i in lo..hi {
                let row = &mut chunk[(i - lo) * n..(i - lo + 1) * n];
                for (j, cell) in row.iter_mut().enumerate() {
                    let bv = match mode {
                        Broadcast::None => b.get(i, j),
                        Broadcast::ColVector => b.get(i, 0),
                        Broadcast::RowVector => b.get(0, j),
                    };
                    *cell = op.apply(a.get(i, j), bv);
                }
            }
        },
    );
    Ok(Matrix::Dense(out).compact())
}

fn sparse_left_zero_preserving(
    op: BinaryOp,
    a: &SparseMatrix,
    b: &Matrix,
    mode: Broadcast,
) -> Matrix {
    let mut triples = Vec::with_capacity(a.nnz());
    for (i, j, v) in a.iter_nonzeros() {
        let bv = match mode {
            Broadcast::None => b.get(i, j),
            Broadcast::ColVector => b.get(i, 0),
            Broadcast::RowVector => b.get(0, j),
        };
        let r = op.apply(v, bv);
        if r != 0.0 {
            triples.push((i, j, r));
        }
    }
    Matrix::Sparse(SparseMatrix::from_triples(a.rows(), a.cols(), triples))
}

/// Matrix ⊕ scalar, row-partitioned over `threads`.
pub fn binary_ms(op: BinaryOp, a: &Matrix, s: f64, threads: usize) -> Matrix {
    // Keep sparsity when op(0, s) == 0.
    if let Matrix::Sparse(sa) = a {
        if op.apply(0.0, s) == 0.0 {
            let triples = sa
                .iter_nonzeros()
                .map(|(i, j, v)| (i, j, op.apply(v, s)))
                .filter(|&(_, _, v)| v != 0.0)
                .collect();
            return Matrix::Sparse(SparseMatrix::from_triples(sa.rows(), sa.cols(), triples));
        }
    }
    map_dense(a, threads, |v| op.apply(v, s))
}

/// Scalar ⊕ matrix (non-commutative ops need this separate form),
/// row-partitioned over `threads`.
pub fn binary_sm(op: BinaryOp, s: f64, a: &Matrix, threads: usize) -> Matrix {
    if let Matrix::Sparse(sa) = a {
        if op.apply(s, 0.0) == 0.0 {
            let triples = sa
                .iter_nonzeros()
                .map(|(i, j, v)| (i, j, op.apply(s, v)))
                .filter(|&(_, _, v)| v != 0.0)
                .collect();
            return Matrix::Sparse(SparseMatrix::from_triples(sa.rows(), sa.cols(), triples));
        }
    }
    map_dense(a, threads, |v| op.apply(s, v))
}

/// Unary element-wise application, row-partitioned over `threads`.
pub fn unary(op: UnaryOp, a: &Matrix, threads: usize) -> Matrix {
    if let (Matrix::Sparse(sa), true) = (a, op.zero_preserving()) {
        let triples = sa
            .iter_nonzeros()
            .map(|(i, j, v)| (i, j, op.apply(v)))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        return Matrix::Sparse(SparseMatrix::from_triples(sa.rows(), sa.cols(), triples));
    }
    map_dense(a, threads, |v| op.apply(v))
}

/// Densify `a` and apply `f` cell-wise, splitting row partitions across
/// scoped threads when the input is large enough.
fn map_dense(a: &Matrix, threads: usize, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
    let d = a.to_dense();
    let (m, n) = (d.rows(), d.cols());
    let src = d.values();
    let mut out = DenseMatrix::zeros(m, n);
    let parts = super::par_row_partitions(m, n, threads);
    par::map(
        par::row_chunks(out.values_mut(), &parts, n),
        |(lo, hi, chunk)| {
            for (dst, &v) in chunk.iter_mut().zip(&src[lo * n..hi * n]) {
                *dst = f(v);
            }
        },
    );
    Matrix::Dense(out).compact()
}

/// `ifelse(cond, yes, no)` with scalar or matrix branches broadcast by cell.
pub fn ifelse(cond: &Matrix, yes: &Matrix, no: &Matrix) -> Result<Matrix> {
    if cond.shape() != yes.shape() || cond.shape() != no.shape() {
        return Err(SysDsError::runtime("ifelse operands must share shapes"));
    }
    let (m, n) = cond.shape();
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            out.set(
                i,
                j,
                if cond.get(i, j) != 0.0 {
                    yes.get(i, j)
                } else {
                    no.get(i, j)
                },
            );
        }
    }
    Ok(Matrix::Dense(out).compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gen;

    #[test]
    fn add_equal_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]).unwrap();
        let c = binary_mm(BinaryOp::Add, &a, &b, 1).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[11.0, 22.0], &[33.0, 44.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(binary_mm(BinaryOp::Add, &a, &b, 1).is_err());
    }

    #[test]
    fn column_vector_broadcast() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Matrix::from_vec(2, 1, vec![10.0, 100.0]).unwrap();
        let c = binary_mm(BinaryOp::Mul, &a, &v, 1).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[10.0, 20.0], &[300.0, 400.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn row_vector_broadcast() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Matrix::from_vec(1, 2, vec![-1.0, 1.0]).unwrap();
        let c = binary_mm(BinaryOp::Add, &a, &v, 1).unwrap();
        assert!(c.approx_eq(
            &Matrix::from_rows(&[&[0.0, 3.0], &[2.0, 5.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn sparse_multiply_stays_sparse() {
        let a = gen::rand_uniform(20, 20, 1.0, 2.0, 0.05, 21).compact();
        assert!(a.is_sparse());
        let b = Matrix::filled(20, 20, 2.0);
        let c = binary_mm(BinaryOp::Mul, &a, &b, 1).unwrap();
        assert!(c.is_sparse());
        for (i, j, v) in a.iter_nonzeros() {
            assert_eq!(c.get(i, j), 2.0 * v);
        }
    }

    #[test]
    fn sparse_scalar_multiply_keeps_sparsity() {
        let a = gen::rand_uniform(20, 20, 1.0, 2.0, 0.05, 22).compact();
        let c = binary_ms(BinaryOp::Mul, &a, 3.0, 1);
        assert!(c.is_sparse());
        assert_eq!(c.nnz(), a.nnz());
    }

    #[test]
    fn scalar_minus_matrix_is_not_commutative() {
        let a = Matrix::filled(1, 2, 3.0);
        let l = binary_sm(BinaryOp::Sub, 10.0, &a, 1);
        let r = binary_ms(BinaryOp::Sub, &a, 10.0, 1);
        assert_eq!(l.get(0, 0), 7.0);
        assert_eq!(r.get(0, 0), -7.0);
    }

    #[test]
    fn r_style_modulus() {
        assert_eq!(BinaryOp::Mod.apply(-7.0, 3.0), 2.0);
        assert_eq!(BinaryOp::Mod.apply(7.0, -3.0), -2.0);
        assert_eq!(BinaryOp::Mod.apply(7.0, 3.0), 1.0);
    }

    #[test]
    fn comparisons_yield_indicators() {
        let a = Matrix::from_rows(&[&[1.0, 5.0]]).unwrap();
        let c = binary_ms(BinaryOp::Gt, &a, 2.0, 1);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(0, 1), 1.0);
    }

    #[test]
    fn unary_ops_on_sparse() {
        let a = gen::rand_uniform(15, 15, -2.0, 2.0, 0.1, 23).compact();
        let c = unary(UnaryOp::Abs, &a, 1);
        assert!(c.is_sparse());
        for (i, j, v) in a.iter_nonzeros() {
            assert_eq!(c.get(i, j), v.abs());
        }
        // exp(0) = 1, so exp must densify.
        let e = unary(UnaryOp::Exp, &a, 1);
        assert!(!e.is_sparse());
        assert_eq!(e.get(0, 1).min(1.0), e.get(0, 1).min(1.0)); // well-defined
    }

    #[test]
    fn sigmoid_range() {
        let a = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]).unwrap();
        let s = unary(UnaryOp::Sigmoid, &a, 1);
        assert!(s.get(0, 0) < 1e-6);
        assert_eq!(s.get(0, 1), 0.5);
        assert!(s.get(0, 2) > 1.0 - 1e-6);
    }

    #[test]
    fn ifelse_selects_by_condition() {
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let y = Matrix::filled(1, 2, 7.0);
        let n = Matrix::filled(1, 2, -7.0);
        let r = ifelse(&c, &y, &n).unwrap();
        assert_eq!(r.get(0, 0), 7.0);
        assert_eq!(r.get(0, 1), -7.0);
        assert!(ifelse(&c, &Matrix::zeros(2, 2), &n).is_err());
    }

    #[test]
    fn parallel_variants_match_sequential() {
        // Big enough (> PAR_MIN_CELLS) to take the multi-partition path.
        let a = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 24);
        let b = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 25);
        let mm1 = binary_mm(BinaryOp::Mul, &a, &b, 1).unwrap();
        let mm4 = binary_mm(BinaryOp::Mul, &a, &b, 4).unwrap();
        assert!(mm1.approx_eq(&mm4, 1e-12));
        let ms4 = binary_ms(BinaryOp::Add, &a, 1.5, 4);
        assert!(binary_ms(BinaryOp::Add, &a, 1.5, 1).approx_eq(&ms4, 1e-12));
        let sm4 = binary_sm(BinaryOp::Div, 2.0, &a, 4);
        assert!(binary_sm(BinaryOp::Div, 2.0, &a, 1).approx_eq(&sm4, 1e-12));
        let u4 = unary(UnaryOp::Exp, &a, 4);
        assert!(unary(UnaryOp::Exp, &a, 1).approx_eq(&u4, 1e-12));
    }

    #[test]
    fn opcode_strings_unique() {
        use std::collections::HashSet;
        let ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Pow,
            BinaryOp::Mod,
            BinaryOp::IntDiv,
            BinaryOp::Min,
            BinaryOp::Max,
            BinaryOp::Eq,
            BinaryOp::Neq,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
            BinaryOp::And,
            BinaryOp::Or,
        ];
        let set: HashSet<_> = ops.iter().map(|o| o.opcode()).collect();
        assert_eq!(set.len(), ops.len());
    }
}
