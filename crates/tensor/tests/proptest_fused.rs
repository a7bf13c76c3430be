//! Property-based equivalence: the fused one-pass evaluator must match the
//! composition of unfused elementwise/aggregate kernels within 1e-9 on
//! randomly generated templates and inputs — dense and sparse, with and
//! without a closing aggregate, including NaN/Inf cells and empty shapes.

use sysds_common::testing::{check, Gen};
use sysds_tensor::kernels::fused::{self, FusedInput, FusedOutput, FusedTemplate, TemplateNode};
use sysds_tensor::kernels::{aggregate, elementwise, gen};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;

const UNARY: [UnaryOp; 7] = [
    UnaryOp::Neg,
    UnaryOp::Abs,
    UnaryOp::Sqrt,
    UnaryOp::Exp,
    UnaryOp::Sigmoid,
    UnaryOp::Round,
    UnaryOp::Sign,
];
const BINARY: [BinaryOp; 7] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Pow,
];

/// Decode a raw step recipe into a template. Seeds the program with one
/// `Input` node per leaf, then appends one node per step: selector `< 7`
/// picks a unary op, `< 14` a binary op, otherwise a small literal; operand
/// bytes index (mod current length) into the nodes built so far.
fn build_template(
    num_inputs: usize,
    steps: &[(u8, u8, u8)],
    agg: Option<(AggFn, Direction)>,
) -> FusedTemplate {
    let mut nodes: Vec<TemplateNode> = (0..num_inputs).map(TemplateNode::Input).collect();
    for &(sel, a, b) in steps {
        let len = nodes.len();
        let node = match sel % 15 {
            s @ 0..=6 => TemplateNode::Unary(UNARY[s as usize], a as usize % len),
            s @ 7..=13 => {
                TemplateNode::Binary(BINARY[(s - 7) as usize], a as usize % len, b as usize % len)
            }
            _ => TemplateNode::Const((a as i8) as f64 / 4.0),
        };
        nodes.push(node);
    }
    let root = nodes.len() - 1;
    let saved_intermediates = steps.len();
    FusedTemplate {
        nodes,
        root,
        agg,
        num_inputs,
        saved_intermediates,
    }
}

/// Reference semantics: run the template node by node through the unfused
/// kernels, materializing every intermediate, then apply the aggregate.
fn reference(
    t: &FusedTemplate,
    inputs: &[FusedInput],
    m: usize,
    n: usize,
) -> sysds_common::Result<FusedOutput> {
    enum Val {
        M(Matrix),
        S(f64),
    }
    let mut vals: Vec<Val> = Vec::with_capacity(t.nodes.len());
    for node in &t.nodes {
        let v = match node {
            TemplateNode::Input(k) => match inputs[*k] {
                FusedInput::Matrix(mat) => Val::M(mat.clone()),
                FusedInput::Scalar(s) => Val::S(s),
            },
            TemplateNode::Const(c) => Val::S(*c),
            TemplateNode::Unary(op, a) => match &vals[*a] {
                Val::M(x) => Val::M(elementwise::unary(*op, x, 1)),
                Val::S(x) => Val::S(op.apply(*x)),
            },
            TemplateNode::Binary(op, a, b) => match (&vals[*a], &vals[*b]) {
                (Val::M(x), Val::M(y)) => Val::M(elementwise::binary_mm(*op, x, y, 1)?),
                (Val::M(x), Val::S(y)) => Val::M(elementwise::binary_ms(*op, x, *y, 1)),
                (Val::S(x), Val::M(y)) => Val::M(elementwise::binary_sm(*op, *x, y, 1)),
                (Val::S(x), Val::S(y)) => Val::S(op.apply(*x, *y)),
            },
        };
        vals.push(v);
    }
    // A scalar-only root broadcasts to the common input shape, exactly as
    // the fused dense path evaluates it per cell.
    let root = match &vals[t.root] {
        Val::M(x) => x.clone(),
        Val::S(s) => Matrix::from_vec(m, n, vec![*s; m * n])?,
    };
    match t.agg {
        None => Ok(FusedOutput::Matrix(root)),
        Some((f, Direction::Full)) => {
            Ok(FusedOutput::Scalar(aggregate::aggregate_full(f, &root, 1)?))
        }
        Some((f, d)) => Ok(FusedOutput::Matrix(aggregate::aggregate_axis(
            f, d, &root, 1,
        )?)),
    }
}

/// Scale-aware closeness: 1e-9 relative to the larger magnitude (floor 1.0),
/// with NaN matching NaN so divergent cells must diverge identically.
fn close(a: f64, b: f64) -> bool {
    a == b // covers equal infinities, where a - b would be NaN
        || (a.is_nan() && b.is_nan())
        || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn outputs_match(fused: &FusedOutput, expect: &FusedOutput) -> Result<(), String> {
    match (fused, expect) {
        (FusedOutput::Scalar(a), FusedOutput::Scalar(b)) => {
            if close(*a, *b) {
                Ok(())
            } else {
                Err(format!("scalar mismatch: fused {a} vs unfused {b}"))
            }
        }
        (FusedOutput::Matrix(a), FusedOutput::Matrix(b)) => {
            if a.shape() != b.shape() {
                return Err(format!(
                    "shape mismatch: {:?} vs {:?}",
                    a.shape(),
                    b.shape()
                ));
            }
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    if !close(a.get(i, j), b.get(i, j)) {
                        return Err(format!(
                            "cell ({i},{j}) mismatch: fused {} vs unfused {}",
                            a.get(i, j),
                            b.get(i, j)
                        ));
                    }
                }
            }
            Ok(())
        }
        _ => Err("output kind mismatch (scalar vs matrix)".into()),
    }
}

/// Run fused and unfused evaluations and compare. Errors must agree too:
/// e.g. min() over an empty matrix fails on both paths.
fn check_equivalence(
    t: &FusedTemplate,
    inputs: &[FusedInput],
    m: usize,
    n: usize,
    threads: usize,
) -> Result<(), String> {
    let fused = fused::eval(t, inputs, threads);
    let expect = reference(t, inputs, m, n);
    let r = match (fused, expect) {
        (Ok(f), Ok(e)) => outputs_match(&f, &e),
        (Err(_), Err(_)) => Ok(()),
        (Ok(_), Err(e)) => Err(format!("fused succeeded but unfused failed: {e}")),
        (Err(e), Ok(_)) => Err(format!("fused failed but unfused succeeded: {e}")),
    };
    r.map_err(|e| format!("{e} [template {}]", t.signature()))
}

fn steps(g: &mut Gen) -> Vec<(u8, u8, u8)> {
    g.vec(1..=5, |g| (g.u8(), g.u8(), g.u8()))
}

fn agg(g: &mut Gen) -> Option<(AggFn, Direction)> {
    let fns = [
        AggFn::Sum,
        AggFn::SumSq,
        AggFn::Mean,
        AggFn::Min,
        AggFn::Max,
    ];
    let dirs = [Direction::Full, Direction::Row, Direction::Col];
    if g.usize(0..2) == 0 {
        None
    } else {
        Some((g.pick(&fns), g.pick(&dirs)))
    }
}

const CASES: u64 = 64;

/// Dense: two same-shape matrices plus a scalar, arbitrary template.
#[test]
fn fused_matches_unfused_dense() {
    check("fused_matches_unfused_dense", CASES, |g| {
        let (r, c, seed) = (g.usize(1..=9), g.usize(1..=9), g.u64());
        let s = g.f64(-2.0..2.0);
        let (steps, agg, threads) = (steps(g), agg(g), g.usize(1..=3));
        let x = gen::rand_uniform(r, c, -2.0, 2.0, 1.0, seed);
        let y = gen::rand_uniform(r, c, -2.0, 2.0, 1.0, seed ^ 0xBEEF);
        let t = build_template(3, &steps, agg);
        let inputs = [
            FusedInput::Matrix(&x),
            FusedInput::Matrix(&y),
            FusedInput::Scalar(s),
        ];
        check_equivalence(&t, &inputs, r, c, threads).unwrap();
    });
}

/// Sparse: a single low-sparsity matrix plus a scalar, so zero-preserving
/// templates take the nonzero-only fast path.
#[test]
fn fused_matches_unfused_sparse() {
    check("fused_matches_unfused_sparse", CASES, |g| {
        let (r, c, seed) = (g.usize(1..=12), g.usize(1..=12), g.u64());
        let s = g.f64(-2.0..2.0);
        let (steps, agg, threads) = (steps(g), agg(g), g.usize(1..=3));
        let x = gen::rand_uniform(r, c, -2.0, 2.0, 0.2, seed).compact();
        let t = build_template(2, &steps, agg);
        let inputs = [FusedInput::Matrix(&x), FusedInput::Scalar(s)];
        check_equivalence(&t, &inputs, r, c, threads).unwrap();
    });
}

/// sum((X - Y)^2) with NaN, +Inf, and -Inf cells: divergence must propagate
/// identically through the fused single pass.
#[test]
fn nan_and_inf_cells_propagate_identically() {
    let mut xs = vec![1.0; 12];
    let mut ys = vec![0.5; 12];
    xs[1] = f64::NAN;
    xs[4] = f64::INFINITY;
    ys[4] = f64::INFINITY; // Inf - Inf = NaN
    xs[7] = f64::NEG_INFINITY;
    ys[10] = f64::NAN;
    let x = Matrix::from_vec(3, 4, xs).unwrap();
    let y = Matrix::from_vec(3, 4, ys).unwrap();
    let t = FusedTemplate {
        nodes: vec![
            TemplateNode::Input(0),
            TemplateNode::Input(1),
            TemplateNode::Binary(BinaryOp::Sub, 0, 1),
            TemplateNode::Const(2.0),
            TemplateNode::Binary(BinaryOp::Pow, 2, 3),
        ],
        root: 4,
        agg: None,
        num_inputs: 2,
        saved_intermediates: 2,
    };
    let inputs = [FusedInput::Matrix(&x), FusedInput::Matrix(&y)];
    for threads in [1, 2, 4] {
        check_equivalence(&t, &inputs, 3, 4, threads).unwrap();
    }
    // Full-sum over the same template: NaN poisons both reductions.
    let t_sum = FusedTemplate {
        agg: Some((AggFn::Sum, Direction::Full)),
        ..t.clone()
    };
    let FusedOutput::Scalar(v) = fused::eval(&t_sum, &inputs, 2).unwrap() else {
        panic!("full aggregate must yield a scalar");
    };
    assert!(v.is_nan());
}

/// Empty shapes mirror the unfused kernels: sums yield 0 / empty outputs,
/// min/max/mean over zero cells fail on both paths.
#[test]
fn empty_matrices_match_unfused_semantics() {
    let t = |agg| FusedTemplate {
        nodes: vec![
            TemplateNode::Input(0),
            TemplateNode::Const(1.5),
            TemplateNode::Binary(BinaryOp::Mul, 0, 1),
        ],
        root: 2,
        agg,
        num_inputs: 1,
        saved_intermediates: 1,
    };
    for (r, c) in [(0usize, 4usize), (3, 0), (0, 0)] {
        let x = Matrix::zeros(r, c);
        let inputs = [FusedInput::Matrix(&x)];
        for agg in [
            None,
            Some((AggFn::Sum, Direction::Full)),
            Some((AggFn::SumSq, Direction::Full)),
            Some((AggFn::Min, Direction::Full)),
            Some((AggFn::Mean, Direction::Full)),
            Some((AggFn::Sum, Direction::Row)),
            Some((AggFn::Max, Direction::Col)),
        ] {
            check_equivalence(&t(agg), &inputs, r, c, 2).unwrap();
        }
    }
}
