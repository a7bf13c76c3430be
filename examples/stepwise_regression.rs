//! The paper's Example 1: stepwise linear regression (`steplm`) — greedy
//! forward feature selection by AIC, with what-if model training in a
//! `parfor` and lineage-based partial reuse of `t(Xg)%*%Xg` across the
//! candidate evaluations.
//!
//! ```bash
//! cargo run --release --example stepwise_regression
//! ```

use std::time::Instant;
use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::config::ReusePolicy;
use sysds_common::EngineConfig;
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::kernels::{elementwise, gen, indexing};

fn main() -> sysds::Result<()> {
    // Build a dataset where only 3 of 25 features matter.
    let n = 2000;
    let m = 25;
    let x = gen::rand_uniform(n, m, -1.0, 1.0, 1.0, 7);
    let f3 = indexing::column(&x, 2)?;
    let f11 = indexing::column(&x, 10)?;
    let f19 = indexing::column(&x, 18)?;
    let mut y = elementwise::binary_ms(BinaryOp::Mul, &f3, 4.0, 1);
    y = elementwise::binary_mm(
        BinaryOp::Add,
        &y,
        &elementwise::binary_ms(BinaryOp::Mul, &f11, -3.0, 1),
        1,
    )?;
    y = elementwise::binary_mm(
        BinaryOp::Add,
        &y,
        &elementwise::binary_ms(BinaryOp::Mul, &f19, 2.0, 1),
        1,
    )?;

    let script = "[B, S] = steplm(X=X, y=y, reg=0.000001)";

    // Without reuse (stats on, to show the fused cell-wise pipelines).
    let mut plain = SystemDS::with_config(EngineConfig::default().stats(true))?;
    let t0 = Instant::now();
    let out = plain.execute(
        script,
        &[
            ("X", Data::from_matrix(x.clone())),
            ("y", Data::from_matrix(y.clone())),
        ],
        &["B", "S"],
    )?;
    let t_plain = t0.elapsed();

    // With lineage-based full + partial reuse (paper §3.1).
    let mut reuse =
        SystemDS::with_config(EngineConfig::default().reuse_policy(ReusePolicy::FullAndPartial))?;
    let t0 = Instant::now();
    let out_r = reuse.execute(
        script,
        &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
        &["B", "S"],
    )?;
    let t_reuse = t0.elapsed();

    let sel = out.matrix("S")?;
    let selected: Vec<usize> = (0..25)
        .filter(|&j| sel.get(0, j) != 0.0)
        .map(|j| j + 1)
        .collect();
    println!("selected features (1-based): {selected:?}");
    assert!(selected.contains(&3) && selected.contains(&11) && selected.contains(&19));

    // Both runs agree exactly.
    assert!(out.matrix("S")?.approx_eq(&*out_r.matrix("S")?, 0.0));
    let stats = reuse.cache_stats();
    println!(
        "steplm: {:>8.1?} without reuse, {:>8.1?} with reuse (hits={}, partial={})",
        t_plain, t_reuse, stats.hits, stats.partial_hits
    );

    // The residual chains (`sum(ri * ri)` over `ri = y - Xi %*% Bi`) compile
    // to fused templates; the counters prove the pipelines actually fired.
    let report = plain.run_report();
    println!(
        "fused cell-wise pipelines: {} hits, {} bytes of intermediates avoided",
        report.counters.fusion_hits, report.counters.fusion_bytes_saved
    );
    assert!(report.counters.fusion_hits > 0);
    Ok(())
}
