//! Fusion ablation: fused cell-wise pipelines vs the same expression run
//! through the unfused kernel sequence, at 1k x 1k and 4k x 1k. The fused
//! path should win >= 1.5x on the memory-bound chains by touching each
//! input once and materializing no intermediates.

use sysds_bench::bench;
use sysds_tensor::kernels::fused::{FusedInput, FusedTemplate, TemplateNode};
use sysds_tensor::kernels::{aggregate, elementwise, fused, gen};
use sysds_tensor::kernels::{AggFn, BinaryOp, Direction, UnaryOp};
use sysds_tensor::Matrix;

/// sum((X - Y)^2): three unfused passes (sub, pow, sum) vs one fused pass.
fn sum_sq_diff_template() -> FusedTemplate {
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

fn sum_sq_diff_unfused(x: &Matrix, y: &Matrix) -> f64 {
    let d = elementwise::binary_mm(BinaryOp::Sub, x, y, 1).unwrap();
    let sq = elementwise::binary_ms(BinaryOp::Pow, &d, 2.0, 1);
    aggregate::aggregate_full(AggFn::Sum, &sq, 1).unwrap()
}

/// sigmoid(X * W + b): a dense elementwise chain producing a matrix.
fn sigmoid_chain_template() -> FusedTemplate {
    FusedTemplate {
        nodes: vec![
            TemplateNode::Input(0),
            TemplateNode::Input(1),
            TemplateNode::Binary(BinaryOp::Mul, 0, 1),
            TemplateNode::Input(2),
            TemplateNode::Binary(BinaryOp::Add, 2, 3),
            TemplateNode::Unary(UnaryOp::Sigmoid, 4),
        ],
        root: 5,
        agg: None,
        num_inputs: 3,
        saved_intermediates: 2,
    }
}

fn sigmoid_chain_unfused(x: &Matrix, w: &Matrix, b: f64) -> Matrix {
    let xw = elementwise::binary_mm(BinaryOp::Mul, x, w, 1).unwrap();
    let shifted = elementwise::binary_ms(BinaryOp::Add, &xw, b, 1);
    elementwise::unary(UnaryOp::Sigmoid, &shifted, 1)
}

fn main() {
    println!("# fusion");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    for &(rows, cols) in &[(1000usize, 1000usize), (4000, 1000)] {
        let label = format!("{rows}x{cols}");
        let x = gen::rand_uniform(rows, cols, -1.0, 1.0, 1.0, 7001);
        let y = gen::rand_uniform(rows, cols, -1.0, 1.0, 1.0, 7002);

        let t = sum_sq_diff_template();
        let inputs = [FusedInput::Matrix(&x), FusedInput::Matrix(&y)];
        bench(&format!("sum_sq_diff_unfused/{label}"), || {
            sum_sq_diff_unfused(&x, &y)
        });
        bench(&format!("sum_sq_diff_fused/{label}"), || {
            fused::eval(&t, &inputs, threads).unwrap()
        });

        let t2 = sigmoid_chain_template();
        let inputs2 = [
            FusedInput::Matrix(&x),
            FusedInput::Matrix(&y),
            FusedInput::Scalar(0.25),
        ];
        bench(&format!("sigmoid_chain_unfused/{label}"), || {
            sigmoid_chain_unfused(&x, &y, 0.25)
        });
        bench(&format!("sigmoid_chain_fused/{label}"), || {
            fused::eval(&t2, &inputs2, threads).unwrap()
        });
    }

    // Sparse zero-preserving chain: rowSums((X * s)^2) over 5% nonzeros —
    // the fused sparse path touches stored values only.
    let xs: Matrix = gen::rand_uniform(4000, 1000, -1.0, 1.0, 0.05, 7003).compact();
    assert!(xs.is_sparse());
    let ts = FusedTemplate {
        nodes: vec![
            TemplateNode::Input(0),
            TemplateNode::Const(0.5),
            TemplateNode::Binary(BinaryOp::Mul, 0, 1),
            TemplateNode::Const(2.0),
            TemplateNode::Binary(BinaryOp::Pow, 2, 3),
        ],
        root: 4,
        agg: Some((AggFn::Sum, Direction::Row)),
        num_inputs: 1,
        saved_intermediates: 2,
    };
    let sparse_inputs = [FusedInput::Matrix(&xs)];
    bench("sparse_rowsums_unfused", || {
        let scaled = elementwise::binary_ms(BinaryOp::Mul, &xs, 0.5, 1);
        let sq = elementwise::binary_ms(BinaryOp::Pow, &scaled, 2.0, 1);
        aggregate::aggregate_axis(AggFn::Sum, Direction::Row, &sq, 1).unwrap()
    });
    bench("sparse_rowsums_fused", || {
        fused::eval(&ts, &sparse_inputs, threads).unwrap()
    });
}
