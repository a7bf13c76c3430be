//! Ablation 6 (§3.1, Example 1): partial reuse in `steplm` — the
//! compensation plan assembles `tsmm(cbind(Xg, xj))` from the cached
//! `tsmm(Xg)`, turning O(n·k²) what-if trainings into O(n·k) updates.

use sysds::api::SystemDS;
use sysds::Data;
use sysds_bench::bench;
use sysds_common::config::ReusePolicy;
use sysds_common::EngineConfig;
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, gen, indexing};
use sysds_tensor::Matrix;

fn dataset(rows: usize, cols: usize) -> (Matrix, Matrix) {
    let x = gen::rand_uniform(rows, cols, -1.0, 1.0, 1.0, 6401);
    // two informative features keep the selection loop short & stable
    let a = indexing::column(&x, 1).unwrap();
    let b = indexing::column(&x, cols - 2).unwrap();
    let y = elementwise::binary_mm(
        BinaryOp::Add,
        &elementwise::binary_ms(BinaryOp::Mul, &a, 3.0, 1),
        &elementwise::binary_ms(BinaryOp::Mul, &b, -2.0, 1),
        1,
    )
    .unwrap();
    (x, y)
}

fn run_steplm(x: &Matrix, y: &Matrix, policy: ReusePolicy) {
    let mut sds = SystemDS::with_config(EngineConfig::default().reuse_policy(policy)).unwrap();
    sds.execute(
        "[B, S] = steplm(X=X, y=y, reg=0.000001, max_feat=4)",
        &[
            ("X", Data::from_matrix(x.clone())),
            ("y", Data::from_matrix(y.clone())),
        ],
        &["B", "S"],
    )
    .unwrap();
}

fn main() {
    println!("# ablation_partial_reuse");

    for &(rows, cols) in &[(4_000usize, 20usize), (12_000, 30)] {
        let (x, y) = dataset(rows, cols);
        let id = format!("{rows}x{cols}");
        bench(&format!("steplm_no_reuse/{id}"), || {
            run_steplm(&x, &y, ReusePolicy::None)
        });
        bench(&format!("steplm_full_reuse/{id}"), || {
            run_steplm(&x, &y, ReusePolicy::Full)
        });
        bench(&format!("steplm_partial_reuse/{id}"), || {
            run_steplm(&x, &y, ReusePolicy::FullAndPartial)
        });
    }
}
