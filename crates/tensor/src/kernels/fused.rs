//! One-pass execution of fused cell-wise operator pipelines (paper §4.2).
//!
//! The compiler collapses single-consumer chains of element-wise operators
//! (optionally topped by an aggregate) into a [`FusedTemplate`]: a tiny
//! postorder expression program over the chain's leaf inputs. This module
//! evaluates such templates in a single pass over the data — no per-operator
//! intermediate matrices — row-partition-parallel like
//! [`super::matmult`], with a sparse-exploiting path when the template maps
//! zero cells to zero under the actual scalar operands.

use super::aggregate::{AggFn, Direction, Kahan};
use super::elementwise::{BinaryOp, UnaryOp};
use crate::matrix::{DenseMatrix, Matrix, SparseMatrix};
use sysds_common::{par, Result, SysDsError};

/// One step of a fused expression program. Operand indices refer to earlier
/// nodes in [`FusedTemplate::nodes`] (strict postorder), `Input(k)` to the
/// k-th leaf operand of the fused instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemplateNode {
    /// The k-th leaf operand (matrix or scalar) of the fused instruction.
    Input(usize),
    /// A literal folded into the template at compile time.
    Const(f64),
    /// Unary element-wise operator over an earlier node.
    Unary(UnaryOp, usize),
    /// Binary element-wise operator over two earlier nodes.
    Binary(BinaryOp, usize, usize),
}

/// A fused cell-wise expression, optionally topped by an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedTemplate {
    /// Expression program in postorder; operands index earlier entries.
    pub nodes: Vec<TemplateNode>,
    /// Index of the node producing the cell-wise result.
    pub root: usize,
    /// Aggregate applied over the cell-wise result, if any.
    pub agg: Option<(AggFn, Direction)>,
    /// Number of leaf operands the fused instruction receives.
    pub num_inputs: usize,
    /// How many per-operator intermediate matrices fusion eliminated
    /// (drives the bytes-avoided statistic).
    pub saved_intermediates: usize,
}

impl FusedTemplate {
    /// Check structural invariants: postorder operand indices, in-range
    /// inputs and root. Cheap; run once per evaluation.
    pub fn validate(&self) -> Result<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            let ok = match node {
                TemplateNode::Input(k) => *k < self.num_inputs,
                TemplateNode::Const(_) => true,
                TemplateNode::Unary(_, a) => *a < i,
                TemplateNode::Binary(_, a, b) => *a < i && *b < i,
            };
            if !ok {
                return Err(SysDsError::runtime("fused: malformed template"));
            }
        }
        if self.root >= self.nodes.len() {
            return Err(SysDsError::runtime("fused: template root out of range"));
        }
        Ok(())
    }

    /// Deterministic human-readable form, e.g. `sum((X-Y)^2)`. Used as the
    /// instruction opcode so heavy-hitter stats, lineage, and the
    /// estimate-vs-actual audit attribute fused work per template.
    pub fn signature(&self) -> String {
        let body = self.render(self.root);
        match self.agg {
            None => body,
            Some((f, d)) => {
                let name = agg_name(f, d);
                if is_parenthesized(&body) {
                    format!("{name}{body}")
                } else {
                    format!("{name}({body})")
                }
            }
        }
    }

    fn render(&self, idx: usize) -> String {
        match &self.nodes[idx] {
            TemplateNode::Input(k) => input_name(*k),
            TemplateNode::Const(c) => {
                if *c < 0.0 {
                    format!("({c})")
                } else {
                    format!("{c}")
                }
            }
            TemplateNode::Unary(op, a) => {
                let inner = self.render(*a);
                match op {
                    UnaryOp::Neg => format!("(-{inner})"),
                    _ if is_parenthesized(&inner) => format!("{}{inner}", op.opcode()),
                    _ => format!("{}({inner})", op.opcode()),
                }
            }
            TemplateNode::Binary(op, a, b) => {
                let (l, r) = (self.render(*a), self.render(*b));
                let oc = op.opcode();
                if oc.chars().all(|c| c.is_ascii_alphanumeric()) {
                    // function-style operators: min, max
                    format!("{oc}({l},{r})")
                } else {
                    format!("({l}{oc}{r})")
                }
            }
        }
    }
}

fn input_name(k: usize) -> String {
    const NAMES: [&str; 6] = ["X", "Y", "Z", "W", "U", "V"];
    NAMES
        .get(k)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("in{k}"))
}

fn agg_name(f: AggFn, d: Direction) -> &'static str {
    match (d, f) {
        (Direction::Full, AggFn::Sum) => "sum",
        (Direction::Full, AggFn::SumSq) => "sumSq",
        (Direction::Full, AggFn::Mean) => "mean",
        (Direction::Full, AggFn::Min) => "min",
        (Direction::Full, AggFn::Max) => "max",
        (Direction::Full, AggFn::Var) => "var",
        (Direction::Full, AggFn::Sd) => "sd",
        (Direction::Row, AggFn::Sum) => "rowSums",
        (Direction::Row, AggFn::SumSq) => "rowSumSqs",
        (Direction::Row, AggFn::Mean) => "rowMeans",
        (Direction::Row, AggFn::Min) => "rowMins",
        (Direction::Row, AggFn::Max) => "rowMaxs",
        (Direction::Row, AggFn::Var) => "rowVars",
        (Direction::Row, AggFn::Sd) => "rowSds",
        (Direction::Col, AggFn::Sum) => "colSums",
        (Direction::Col, AggFn::SumSq) => "colSumSqs",
        (Direction::Col, AggFn::Mean) => "colMeans",
        (Direction::Col, AggFn::Min) => "colMins",
        (Direction::Col, AggFn::Max) => "colMaxs",
        (Direction::Col, AggFn::Var) => "colVars",
        (Direction::Col, AggFn::Sd) => "colSds",
    }
}

/// Whether `s` is wrapped in one outer pair of parentheses.
fn is_parenthesized(s: &str) -> bool {
    if !(s.starts_with('(') && s.ends_with(')')) {
        return false;
    }
    let mut depth = 0i64;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i == s.len() - 1;
                }
            }
            _ => {}
        }
    }
    false
}

/// A leaf operand at evaluation time.
#[derive(Debug, Clone, Copy)]
pub enum FusedInput<'a> {
    Scalar(f64),
    Matrix(&'a Matrix),
}

/// The result of a fused evaluation: scalar for full aggregates, matrix
/// otherwise.
#[derive(Debug)]
pub enum FusedOutput {
    Scalar(f64),
    Matrix(Matrix),
}

/// Evaluate `t` over `inputs` in one pass, splitting row partitions across
/// up to `threads` scoped threads. All matrix inputs must share one shape
/// (broadcasting is excluded at fusion time); at least one input must be a
/// matrix.
pub fn eval(t: &FusedTemplate, inputs: &[FusedInput], threads: usize) -> Result<FusedOutput> {
    t.validate()?;
    if inputs.len() != t.num_inputs {
        return Err(SysDsError::runtime(format!(
            "fused: template expects {} inputs, got {}",
            t.num_inputs,
            inputs.len()
        )));
    }
    let mut shape: Option<(usize, usize)> = None;
    for inp in inputs {
        if let FusedInput::Matrix(mat) = inp {
            match shape {
                None => shape = Some(mat.shape()),
                Some(s) if s == mat.shape() => {}
                Some(s) => {
                    return Err(SysDsError::DimensionMismatch {
                        op: "fused",
                        lhs: s,
                        rhs: mat.shape(),
                    });
                }
            }
        }
    }
    let Some((m, n)) = shape else {
        return Err(SysDsError::runtime("fused: template has no matrix input"));
    };
    if m == 0 || n == 0 {
        return eval_empty(t, m, n);
    }
    if let Some(out) = try_sparse(t, inputs, m, n)? {
        return Ok(out);
    }
    dense_eval(t, inputs, m, n, threads)
}

/// Empty-shape handling, mirroring the unfused kernels' semantics exactly.
fn eval_empty(t: &FusedTemplate, m: usize, n: usize) -> Result<FusedOutput> {
    match t.agg {
        None => Ok(FusedOutput::Matrix(Matrix::zeros(m, n))),
        Some((f, Direction::Full)) => match f {
            AggFn::Sum | AggFn::SumSq => Ok(FusedOutput::Scalar(0.0)),
            _ => Err(SysDsError::runtime("aggregation over empty matrix")),
        },
        Some((f, Direction::Row)) => {
            if n == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
                return Err(SysDsError::runtime("row aggregation over zero columns"));
            }
            Ok(FusedOutput::Matrix(Matrix::zeros(m, 1)))
        }
        Some((f, Direction::Col)) => {
            if m == 0 && !matches!(f, AggFn::Sum | AggFn::SumSq) {
                return Err(SysDsError::runtime("column aggregation over zero rows"));
            }
            Ok(FusedOutput::Matrix(Matrix::zeros(1, n)))
        }
    }
}

/// Evaluate the template at one cell: the matrix leaf takes value `v`,
/// scalar leaves their fixed values. `scratch` is reused across calls.
fn eval_cell(
    t: &FusedTemplate,
    scalars: &[f64],
    leaf: usize,
    v: f64,
    scratch: &mut Vec<f64>,
) -> f64 {
    scratch.clear();
    for node in &t.nodes {
        let val = match node {
            TemplateNode::Input(k) => {
                if *k == leaf {
                    v
                } else {
                    scalars[*k]
                }
            }
            TemplateNode::Const(c) => *c,
            TemplateNode::Unary(op, a) => op.apply(scratch[*a]),
            TemplateNode::Binary(op, a, b) => op.apply(scratch[*a], scratch[*b]),
        };
        scratch.push(val);
    }
    scratch[t.root]
}

/// Sparse-exploiting path: exactly one matrix input, stored sparse, and the
/// template maps zero cells to exactly `0.0` under the actual scalar
/// operands — the same runtime check `binary_ms`/`unary` perform. Touches
/// stored non-zeros only. Returns `None` when the computation does not
/// qualify; the dense path then handles it.
fn try_sparse(
    t: &FusedTemplate,
    inputs: &[FusedInput],
    m: usize,
    n: usize,
) -> Result<Option<FusedOutput>> {
    let mut only = None;
    for (k, inp) in inputs.iter().enumerate() {
        if let FusedInput::Matrix(mat) = inp {
            if only.is_some() {
                return Ok(None);
            }
            only = Some((k, *mat));
        }
    }
    let Some((leaf, Matrix::Sparse(s))) = only else {
        return Ok(None);
    };
    let scalars: Vec<f64> = inputs
        .iter()
        .map(|i| match i {
            FusedInput::Scalar(v) => *v,
            FusedInput::Matrix(_) => 0.0,
        })
        .collect();
    let mut scratch = Vec::with_capacity(t.nodes.len());
    if eval_cell(t, &scalars, leaf, 0.0, &mut scratch) != 0.0 {
        return Ok(None);
    }
    let cells = m * n;
    match t.agg {
        None => {
            let mut triples = Vec::with_capacity(s.nnz());
            for (i, j, v) in s.iter_nonzeros() {
                let r = eval_cell(t, &scalars, leaf, v, &mut scratch);
                if r != 0.0 {
                    triples.push((i, j, r));
                }
            }
            Ok(Some(FusedOutput::Matrix(Matrix::Sparse(
                SparseMatrix::from_triples(m, n, triples),
            ))))
        }
        Some((f @ (AggFn::Sum | AggFn::SumSq | AggFn::Mean), Direction::Full)) => {
            let mut acc = Kahan::default();
            for (_, _, v) in s.iter_nonzeros() {
                let r = eval_cell(t, &scalars, leaf, v, &mut scratch);
                acc.add(if f == AggFn::SumSq { r * r } else { r });
            }
            let out = if f == AggFn::Mean {
                acc.sum / cells as f64
            } else {
                acc.sum
            };
            Ok(Some(FusedOutput::Scalar(out)))
        }
        Some((f @ (AggFn::Min | AggFn::Max), Direction::Full)) => {
            let (init, pick) = min_max(f);
            let mut acc = init;
            for (_, _, v) in s.iter_nonzeros() {
                acc = pick(acc, eval_cell(t, &scalars, leaf, v, &mut scratch));
            }
            if s.nnz() < cells {
                // structural zeros map to 0.0 (checked above)
                acc = pick(acc, 0.0);
            }
            Ok(Some(FusedOutput::Scalar(acc)))
        }
        Some((f @ (AggFn::Sum | AggFn::SumSq | AggFn::Mean), Direction::Row)) => {
            let mut out = Vec::with_capacity(m);
            for i in 0..m {
                let (_, vals) = s.row(i);
                let mut sum = 0.0f64;
                for &v in vals {
                    let r = eval_cell(t, &scalars, leaf, v, &mut scratch);
                    sum += if f == AggFn::SumSq { r * r } else { r };
                }
                out.push(if f == AggFn::Mean {
                    sum / n as f64
                } else {
                    sum
                });
            }
            Ok(Some(FusedOutput::Matrix(Matrix::from_vec(m, 1, out)?)))
        }
        Some((f @ (AggFn::Sum | AggFn::SumSq | AggFn::Mean), Direction::Col)) => {
            let mut sums = vec![0.0f64; n];
            for (_, j, v) in s.iter_nonzeros() {
                let r = eval_cell(t, &scalars, leaf, v, &mut scratch);
                sums[j] += if f == AggFn::SumSq { r * r } else { r };
            }
            if f == AggFn::Mean {
                for v in &mut sums {
                    *v /= m as f64;
                }
            }
            Ok(Some(FusedOutput::Matrix(Matrix::from_vec(1, n, sums)?)))
        }
        // Row/col min/max must observe structural zeros; densify instead.
        Some(_) => Ok(None),
    }
}

fn min_max(f: AggFn) -> (f64, fn(f64, f64) -> f64) {
    if f == AggFn::Min {
        (f64::INFINITY, f64::min)
    } else {
        (f64::NEG_INFINITY, f64::max)
    }
}

/// A leaf as seen by the dense evaluator.
#[derive(Clone, Copy)]
enum Leaf<'a> {
    Scalar(f64),
    Dense(&'a [f64]),
}

/// How a template node resolves during block evaluation: a folded scalar, a
/// borrowed slice of an input, or a computed scratch buffer.
#[derive(Clone, Copy)]
enum Val {
    Scalar(f64),
    Leaf(usize),
    Node(usize),
}

enum Operand<'a> {
    Scalar(f64),
    Slice(&'a [f64]),
}

enum RangeVal<'a> {
    Scalar(f64),
    Slice(&'a [f64]),
}

fn leaf_slice<'a>(leaf: &Leaf<'a>, off: usize, len: usize) -> &'a [f64] {
    match *leaf {
        Leaf::Dense(s) => &s[off..off + len],
        Leaf::Scalar(_) => unreachable!("scalar leaves fold into Val::Scalar"),
    }
}

fn operand<'a>(
    kind: Val,
    done: &'a [Vec<f64>],
    leaves: &'a [Leaf<'a>],
    off: usize,
    len: usize,
) -> Operand<'a> {
    match kind {
        Val::Scalar(v) => Operand::Scalar(v),
        Val::Leaf(k) => Operand::Slice(leaf_slice(&leaves[k], off, len)),
        Val::Node(j) => Operand::Slice(&done[j][..len]),
    }
}

/// Block evaluator: walks the template once per cell block, keeping one
/// scratch buffer per computed node (block-sized, reused across blocks), so
/// peak extra memory is `O(nodes * block)` regardless of matrix size.
struct Evaluator<'a> {
    t: &'a FusedTemplate,
    leaves: &'a [Leaf<'a>],
    kinds: Vec<Val>,
    scratch: Vec<Vec<f64>>,
}

impl<'a> Evaluator<'a> {
    fn new(t: &'a FusedTemplate, leaves: &'a [Leaf<'a>]) -> Evaluator<'a> {
        // Fold scalar-only subtrees once: their value is block-independent.
        let mut kinds: Vec<Val> = Vec::with_capacity(t.nodes.len());
        for (i, node) in t.nodes.iter().enumerate() {
            let v = match node {
                TemplateNode::Input(k) => match leaves[*k] {
                    Leaf::Scalar(v) => Val::Scalar(v),
                    Leaf::Dense(_) => Val::Leaf(*k),
                },
                TemplateNode::Const(c) => Val::Scalar(*c),
                TemplateNode::Unary(op, a) => match kinds[*a] {
                    Val::Scalar(v) => Val::Scalar(op.apply(v)),
                    _ => Val::Node(i),
                },
                TemplateNode::Binary(op, a, b) => match (kinds[*a], kinds[*b]) {
                    (Val::Scalar(x), Val::Scalar(y)) => Val::Scalar(op.apply(x, y)),
                    _ => Val::Node(i),
                },
            };
            kinds.push(v);
        }
        let scratch = vec![Vec::new(); t.nodes.len()];
        Evaluator {
            t,
            leaves,
            kinds,
            scratch,
        }
    }

    /// Evaluate the template root over the flat row-major cell range
    /// `[off, off + len)` of the operands.
    fn eval_range(&mut self, off: usize, len: usize) -> RangeVal<'_> {
        for i in 0..self.t.nodes.len() {
            if !matches!(self.kinds[i], Val::Node(_)) {
                continue;
            }
            let (done, rest) = self.scratch.split_at_mut(i);
            let dst = &mut rest[0];
            dst.clear();
            dst.resize(len, 0.0);
            match &self.t.nodes[i] {
                TemplateNode::Unary(op, a) => {
                    match operand(self.kinds[*a], done, self.leaves, off, len) {
                        Operand::Scalar(x) => dst.fill(op.apply(x)),
                        Operand::Slice(s) => {
                            for (d, &x) in dst.iter_mut().zip(s) {
                                *d = op.apply(x);
                            }
                        }
                    }
                }
                TemplateNode::Binary(op, a, b) => {
                    let oa = operand(self.kinds[*a], done, self.leaves, off, len);
                    let ob = operand(self.kinds[*b], done, self.leaves, off, len);
                    match (oa, ob) {
                        (Operand::Scalar(x), Operand::Scalar(y)) => dst.fill(op.apply(x, y)),
                        (Operand::Scalar(x), Operand::Slice(sb)) => {
                            for (d, &y) in dst.iter_mut().zip(sb) {
                                *d = op.apply(x, y);
                            }
                        }
                        (Operand::Slice(sa), Operand::Scalar(y)) => {
                            for (d, &x) in dst.iter_mut().zip(sa) {
                                *d = op.apply(x, y);
                            }
                        }
                        (Operand::Slice(sa), Operand::Slice(sb)) => {
                            for ((d, &x), &y) in dst.iter_mut().zip(sa).zip(sb) {
                                *d = op.apply(x, y);
                            }
                        }
                    }
                }
                TemplateNode::Input(_) | TemplateNode::Const(_) => {
                    unreachable!("leaves never classify as Val::Node")
                }
            }
        }
        match self.kinds[self.t.root] {
            Val::Scalar(v) => RangeVal::Scalar(v),
            Val::Leaf(k) => RangeVal::Slice(leaf_slice(&self.leaves[k], off, len)),
            Val::Node(i) => RangeVal::Slice(&self.scratch[i][..len]),
        }
    }
}

/// Rows per evaluation block: caps scratch at ~8k cells per template node.
fn rows_per_block(n: usize) -> usize {
    const ROW_BLOCK_CELLS: usize = 8192;
    (ROW_BLOCK_CELLS / n.max(1)).max(1)
}

/// Flat `(offset, len)` cell blocks covering rows `lo..hi`.
fn blocks(lo: usize, hi: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
    let block = rows_per_block(n);
    let mut r = lo;
    std::iter::from_fn(move || {
        if r >= hi {
            return None;
        }
        let r2 = (r + block).min(hi);
        let item = (r * n, (r2 - r) * n);
        r = r2;
        Some(item)
    })
}

fn dense_eval(
    t: &FusedTemplate,
    inputs: &[FusedInput],
    m: usize,
    n: usize,
    threads: usize,
) -> Result<FusedOutput> {
    // Densify non-exploitable sparse leaves once up front — the unfused
    // pipeline would densify them at the first non-zero-preserving operator.
    let owned: Vec<Option<DenseMatrix>> = inputs
        .iter()
        .map(|i| match i {
            FusedInput::Matrix(Matrix::Sparse(s)) => Some(s.to_dense()),
            _ => None,
        })
        .collect();
    let leaves: Vec<Leaf> = inputs
        .iter()
        .zip(&owned)
        .map(|(i, o)| match (i, o) {
            (FusedInput::Scalar(v), _) => Leaf::Scalar(*v),
            (FusedInput::Matrix(Matrix::Dense(d)), _) => Leaf::Dense(d.values()),
            (FusedInput::Matrix(Matrix::Sparse(_)), Some(d)) => Leaf::Dense(d.values()),
            (FusedInput::Matrix(Matrix::Sparse(_)), None) => unreachable!("densified above"),
        })
        .collect();
    let leaves = &leaves[..];
    let parts = super::par_row_partitions(m, n, threads);

    match t.agg {
        None => {
            let mut out = DenseMatrix::zeros(m, n);
            par::map(
                par::row_chunks(out.values_mut(), &parts, n),
                |(lo, hi, chunk)| fill_chunk(t, leaves, lo, hi, n, chunk),
            );
            Ok(FusedOutput::Matrix(Matrix::Dense(out).compact_estimated()))
        }
        Some((f, Direction::Full)) => dense_full(t, leaves, &parts, m, n, f),
        Some((f, Direction::Row)) => dense_row(t, leaves, &parts, m, n, f),
        Some((f, Direction::Col)) => dense_col(t, leaves, &parts, m, n, f),
    }
}

fn fill_chunk(
    t: &FusedTemplate,
    leaves: &[Leaf],
    lo: usize,
    hi: usize,
    n: usize,
    chunk: &mut [f64],
) {
    let mut ev = Evaluator::new(t, leaves);
    for (off, len) in blocks(lo, hi, n) {
        let start = off - lo * n;
        let dst = &mut chunk[start..start + len];
        match ev.eval_range(off, len) {
            RangeVal::Scalar(v) => dst.fill(v),
            RangeVal::Slice(s) => dst.copy_from_slice(s),
        }
    }
}

fn unfusable(f: AggFn) -> SysDsError {
    SysDsError::runtime(format!("fused: aggregate {f:?} is not fusable"))
}

fn dense_full(
    t: &FusedTemplate,
    leaves: &[Leaf],
    parts: &[(usize, usize)],
    m: usize,
    n: usize,
    f: AggFn,
) -> Result<FusedOutput> {
    match f {
        AggFn::Sum | AggFn::SumSq | AggFn::Mean => {
            let squared = f == AggFn::SumSq;
            let partials = par::map(parts.to_vec(), |(lo, hi)| {
                let mut ev = Evaluator::new(t, leaves);
                let mut acc = Kahan::default();
                for (off, len) in blocks(lo, hi, n) {
                    match ev.eval_range(off, len) {
                        RangeVal::Scalar(v) => {
                            let v = if squared { v * v } else { v };
                            for _ in 0..len {
                                acc.add(v);
                            }
                        }
                        RangeVal::Slice(s) => {
                            for &v in s {
                                acc.add(if squared { v * v } else { v });
                            }
                        }
                    }
                }
                acc
            });
            let mut acc = Kahan::default();
            for p in partials {
                acc.merge(p);
            }
            let v = if f == AggFn::Mean {
                acc.sum / (m * n) as f64
            } else {
                acc.sum
            };
            Ok(FusedOutput::Scalar(v))
        }
        AggFn::Min | AggFn::Max => {
            let (init, pick) = min_max(f);
            let partials = par::map(parts.to_vec(), |(lo, hi)| {
                let mut ev = Evaluator::new(t, leaves);
                let mut acc = init;
                for (off, len) in blocks(lo, hi, n) {
                    match ev.eval_range(off, len) {
                        RangeVal::Scalar(v) => acc = pick(acc, v),
                        RangeVal::Slice(s) => {
                            for &v in s {
                                acc = pick(acc, v);
                            }
                        }
                    }
                }
                acc
            });
            Ok(FusedOutput::Scalar(partials.into_iter().fold(init, pick)))
        }
        AggFn::Var | AggFn::Sd => Err(unfusable(f)),
    }
}

fn row_agg(f: AggFn, row: &[f64]) -> f64 {
    match f {
        AggFn::Sum => row.iter().sum(),
        AggFn::SumSq => row.iter().map(|v| v * v).sum(),
        AggFn::Mean => row.iter().sum::<f64>() / row.len() as f64,
        AggFn::Min => row.iter().copied().fold(f64::INFINITY, f64::min),
        AggFn::Max => row.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggFn::Var | AggFn::Sd => unreachable!("rejected before dispatch"),
    }
}

fn const_row_agg(f: AggFn, v: f64, n: usize) -> f64 {
    match f {
        AggFn::Sum => v * n as f64,
        AggFn::SumSq => v * v * n as f64,
        AggFn::Mean => v,
        // Fold from the identity like the unfused kernels, so a NaN row
        // yields the identity (f64::min/max skip NaN), not NaN.
        AggFn::Min => f64::min(f64::INFINITY, v),
        AggFn::Max => f64::max(f64::NEG_INFINITY, v),
        AggFn::Var | AggFn::Sd => unreachable!("rejected before dispatch"),
    }
}

fn dense_row(
    t: &FusedTemplate,
    leaves: &[Leaf],
    parts: &[(usize, usize)],
    m: usize,
    n: usize,
    f: AggFn,
) -> Result<FusedOutput> {
    if matches!(f, AggFn::Var | AggFn::Sd) {
        return Err(unfusable(f));
    }
    let partials = par::map(parts.to_vec(), |(lo, hi)| {
        let mut ev = Evaluator::new(t, leaves);
        let mut out = Vec::with_capacity(hi - lo);
        for (off, len) in blocks(lo, hi, n) {
            match ev.eval_range(off, len) {
                RangeVal::Scalar(v) => {
                    for _ in 0..len / n {
                        out.push(const_row_agg(f, v, n));
                    }
                }
                RangeVal::Slice(s) => {
                    for row in s.chunks(n) {
                        out.push(row_agg(f, row));
                    }
                }
            }
        }
        out
    });
    Ok(FusedOutput::Matrix(Matrix::from_vec(
        m,
        1,
        partials.concat(),
    )?))
}

fn dense_col(
    t: &FusedTemplate,
    leaves: &[Leaf],
    parts: &[(usize, usize)],
    m: usize,
    n: usize,
    f: AggFn,
) -> Result<FusedOutput> {
    match f {
        AggFn::Sum | AggFn::SumSq | AggFn::Mean => {
            let squared = f == AggFn::SumSq;
            let partials = par::map(parts.to_vec(), |(lo, hi)| {
                let mut ev = Evaluator::new(t, leaves);
                let mut sums = vec![0.0f64; n];
                for (off, len) in blocks(lo, hi, n) {
                    match ev.eval_range(off, len) {
                        RangeVal::Scalar(v) => {
                            let v = if squared { v * v } else { v };
                            let rows = (len / n) as f64;
                            for s in sums.iter_mut() {
                                *s += v * rows;
                            }
                        }
                        RangeVal::Slice(s) => {
                            for row in s.chunks(n) {
                                for (acc, &v) in sums.iter_mut().zip(row) {
                                    *acc += if squared { v * v } else { v };
                                }
                            }
                        }
                    }
                }
                sums
            });
            let mut sums = vec![0.0f64; n];
            for p in partials {
                for (acc, v) in sums.iter_mut().zip(p) {
                    *acc += v;
                }
            }
            if f == AggFn::Mean {
                for v in &mut sums {
                    *v /= m as f64;
                }
            }
            Ok(FusedOutput::Matrix(Matrix::from_vec(1, n, sums)?))
        }
        AggFn::Min | AggFn::Max => {
            let (init, pick) = min_max(f);
            let partials = par::map(parts.to_vec(), |(lo, hi)| {
                let mut ev = Evaluator::new(t, leaves);
                let mut acc = vec![init; n];
                for (off, len) in blocks(lo, hi, n) {
                    match ev.eval_range(off, len) {
                        RangeVal::Scalar(v) => {
                            for a in acc.iter_mut() {
                                *a = pick(*a, v);
                            }
                        }
                        RangeVal::Slice(s) => {
                            for row in s.chunks(n) {
                                for (a, &v) in acc.iter_mut().zip(row) {
                                    *a = pick(*a, v);
                                }
                            }
                        }
                    }
                }
                acc
            });
            let mut acc = vec![init; n];
            for p in partials {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a = pick(*a, v);
                }
            }
            Ok(FusedOutput::Matrix(Matrix::from_vec(1, n, acc)?))
        }
        AggFn::Var | AggFn::Sd => Err(unfusable(f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{aggregate, elementwise, gen};

    /// sum((X - Y)^2)
    fn sub_sq_sum() -> FusedTemplate {
        FusedTemplate {
            nodes: vec![
                TemplateNode::Input(0),
                TemplateNode::Input(1),
                TemplateNode::Binary(BinaryOp::Sub, 0, 1),
                TemplateNode::Const(2.0),
                TemplateNode::Binary(BinaryOp::Pow, 2, 3),
            ],
            root: 4,
            agg: Some((AggFn::Sum, Direction::Full)),
            num_inputs: 2,
            saved_intermediates: 2,
        }
    }

    /// (X - Y)^2 without the aggregate.
    fn sub_sq() -> FusedTemplate {
        FusedTemplate {
            agg: None,
            saved_intermediates: 1,
            ..sub_sq_sum()
        }
    }

    /// X * s (scalar leaf) — zero-preserving for any finite s.
    fn mul_scalar() -> FusedTemplate {
        FusedTemplate {
            nodes: vec![
                TemplateNode::Input(0),
                TemplateNode::Input(1),
                TemplateNode::Binary(BinaryOp::Mul, 0, 1),
            ],
            root: 2,
            agg: None,
            num_inputs: 2,
            saved_intermediates: 0,
        }
    }

    fn unfused_sub_sq(x: &Matrix, y: &Matrix) -> Matrix {
        let d = elementwise::binary_mm(BinaryOp::Sub, x, y, 1).unwrap();
        elementwise::binary_ms(BinaryOp::Pow, &d, 2.0, 1)
    }

    #[test]
    fn signature_renders_infix() {
        assert_eq!(sub_sq_sum().signature(), "sum((X-Y)^2)");
        assert_eq!(sub_sq().signature(), "((X-Y)^2)");
        assert_eq!(mul_scalar().signature(), "(X*Y)");
    }

    #[test]
    fn validate_rejects_malformed() {
        let bad = FusedTemplate {
            nodes: vec![TemplateNode::Binary(BinaryOp::Add, 0, 1)],
            root: 0,
            agg: None,
            num_inputs: 0,
            saved_intermediates: 0,
        };
        assert!(bad.validate().is_err());
        let no_root = FusedTemplate {
            nodes: vec![],
            root: 0,
            agg: None,
            num_inputs: 0,
            saved_intermediates: 0,
        };
        assert!(no_root.validate().is_err());
    }

    #[test]
    fn dense_full_sum_matches_composition() {
        let x = gen::rand_uniform(40, 7, -1.0, 1.0, 1.0, 1);
        let y = gen::rand_uniform(40, 7, -1.0, 1.0, 1.0, 2);
        let t = sub_sq_sum();
        let got = match eval(&t, &[FusedInput::Matrix(&x), FusedInput::Matrix(&y)], 1).unwrap() {
            FusedOutput::Scalar(v) => v,
            other => panic!("expected scalar, got {other:?}"),
        };
        let want = aggregate::aggregate_full(AggFn::Sum, &unfused_sub_sq(&x, &y), 1).unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn parallel_matches_sequential() {
        // Big enough to take the multi-partition path.
        let x = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 3);
        let y = gen::rand_uniform(300, 120, -2.0, 2.0, 1.0, 4);
        let ins = [FusedInput::Matrix(&x), FusedInput::Matrix(&y)];
        for t in [sub_sq_sum(), sub_sq()] {
            let a = eval(&t, &ins, 1).unwrap();
            let b = eval(&t, &ins, 4).unwrap();
            match (a, b) {
                (FusedOutput::Scalar(u), FusedOutput::Scalar(v)) => {
                    assert!((u - v).abs() < 1e-9)
                }
                (FusedOutput::Matrix(u), FusedOutput::Matrix(v)) => {
                    assert!(u.approx_eq(&v, 1e-9))
                }
                _ => panic!("output kind mismatch"),
            }
        }
    }

    #[test]
    fn row_and_col_aggregates_match_composition() {
        let x = gen::rand_uniform(30, 11, -1.0, 1.0, 1.0, 5);
        let y = gen::rand_uniform(30, 11, -1.0, 1.0, 1.0, 6);
        let ins = [FusedInput::Matrix(&x), FusedInput::Matrix(&y)];
        let ref_mat = unfused_sub_sq(&x, &y);
        for (f, d) in [
            (AggFn::Sum, Direction::Row),
            (AggFn::Mean, Direction::Row),
            (AggFn::Max, Direction::Row),
            (AggFn::Sum, Direction::Col),
            (AggFn::Mean, Direction::Col),
            (AggFn::Min, Direction::Col),
        ] {
            let t = FusedTemplate {
                agg: Some((f, d)),
                ..sub_sq()
            };
            let got = match eval(&t, &ins, 1).unwrap() {
                FusedOutput::Matrix(mat) => mat,
                other => panic!("expected matrix, got {other:?}"),
            };
            let want = aggregate::aggregate_axis(f, d, &ref_mat, 1).unwrap();
            assert!(got.approx_eq(&want, 1e-9), "{f:?} {d:?}");
        }
    }

    #[test]
    fn sparse_path_stays_sparse() {
        let x = gen::rand_uniform(50, 50, 1.0, 2.0, 0.05, 7).compact();
        assert!(x.is_sparse());
        let t = mul_scalar();
        let ins = [FusedInput::Matrix(&x), FusedInput::Scalar(3.0)];
        let got = match eval(&t, &ins, 1).unwrap() {
            FusedOutput::Matrix(mat) => mat,
            other => panic!("expected matrix, got {other:?}"),
        };
        assert!(got.is_sparse());
        let want = elementwise::binary_ms(BinaryOp::Mul, &x, 3.0, 1);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn non_zero_preserving_template_densifies() {
        let x = gen::rand_uniform(50, 50, 1.0, 2.0, 0.05, 8).compact();
        // X + 1 maps zero cells to 1: the sparse path must be rejected.
        let t = FusedTemplate {
            nodes: vec![
                TemplateNode::Input(0),
                TemplateNode::Const(1.0),
                TemplateNode::Binary(BinaryOp::Add, 0, 1),
            ],
            root: 2,
            agg: None,
            num_inputs: 1,
            saved_intermediates: 0,
        };
        let got = match eval(&t, &[FusedInput::Matrix(&x)], 1).unwrap() {
            FusedOutput::Matrix(mat) => mat,
            other => panic!("expected matrix, got {other:?}"),
        };
        let want = elementwise::binary_ms(BinaryOp::Add, &x, 1.0, 1);
        assert!(got.approx_eq(&want, 1e-12));
        assert_eq!(got.get(1, 1), x.get(1, 1) + 1.0);
    }

    #[test]
    fn sparse_full_sum_matches_dense() {
        let x = gen::rand_uniform(60, 40, -1.0, 1.0, 0.1, 9).compact();
        assert!(x.is_sparse());
        let dense = Matrix::Dense(x.to_dense());
        let t = FusedTemplate {
            agg: Some((AggFn::Sum, Direction::Full)),
            ..mul_scalar()
        };
        let s = |m: &Matrix| match eval(&t, &[FusedInput::Matrix(m), FusedInput::Scalar(2.5)], 1)
            .unwrap()
        {
            FusedOutput::Scalar(v) => v,
            other => panic!("expected scalar, got {other:?}"),
        };
        assert!((s(&x) - s(&dense)).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_semantics_match_aggregate() {
        let x = Matrix::zeros(0, 3);
        let sum = FusedTemplate {
            agg: Some((AggFn::Sum, Direction::Full)),
            ..mul_scalar()
        };
        match eval(&sum, &[FusedInput::Matrix(&x), FusedInput::Scalar(1.0)], 1).unwrap() {
            FusedOutput::Scalar(v) => assert_eq!(v, 0.0),
            other => panic!("expected scalar, got {other:?}"),
        }
        let mean = FusedTemplate {
            agg: Some((AggFn::Mean, Direction::Full)),
            ..mul_scalar()
        };
        assert!(eval(&mean, &[FusedInput::Matrix(&x), FusedInput::Scalar(1.0)], 1).is_err());
    }

    #[test]
    fn input_errors_are_reported() {
        let t = mul_scalar();
        // wrong arity
        assert!(eval(&t, &[FusedInput::Scalar(1.0)], 1).is_err());
        // no matrix input
        assert!(eval(&t, &[FusedInput::Scalar(1.0), FusedInput::Scalar(2.0)], 1).is_err());
        // shape mismatch
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(eval(&t, &[FusedInput::Matrix(&a), FusedInput::Matrix(&b)], 1).is_err());
        // var is not fusable
        let var = FusedTemplate {
            agg: Some((AggFn::Var, Direction::Full)),
            ..mul_scalar()
        };
        let c = Matrix::filled(2, 2, 1.0);
        assert!(eval(&var, &[FusedInput::Matrix(&c), FusedInput::Scalar(1.0)], 1).is_err());
    }

    #[test]
    fn nan_and_inf_flow_through() {
        let x = Matrix::from_vec(1, 4, vec![f64::NAN, f64::INFINITY, -1.0, 2.0]).unwrap();
        let y = Matrix::from_vec(1, 4, vec![1.0, 1.0, f64::NAN, 2.0]).unwrap();
        let t = sub_sq();
        let got = match eval(&t, &[FusedInput::Matrix(&x), FusedInput::Matrix(&y)], 1).unwrap() {
            FusedOutput::Matrix(mat) => mat,
            other => panic!("expected matrix, got {other:?}"),
        };
        let want = unfused_sub_sq(&x, &y);
        assert!(got.approx_eq(&want, 1e-12));
        assert!(got.get(0, 0).is_nan());
        assert!(got.get(0, 1).is_infinite());
    }
}
