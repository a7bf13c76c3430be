#![allow(clippy::field_reassign_with_default)]

//! Lineage tracing and reuse of intermediates across lifecycle tasks —
//! the paper's §3.1 and the mechanism behind Figure 5(c)/(d).

use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::config::ReusePolicy;
use sysds_common::EngineConfig;
use sysds_tensor::kernels::gen;

fn session(reuse: ReusePolicy) -> SystemDS {
    let mut config = EngineConfig::default().reuse_policy(reuse);
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-reuse-tests");
    SystemDS::with_config(config).unwrap()
}

/// The Figure 5 workload as a DML script: k models over a λ sweep.
const HYPERPARAM: &str = r#"
    k = 8
    B = matrix(0, rows=ncol(X), cols=k)
    for (i in 1:k) {
        reg = 0.000001 * i
        Bi = lmDS(X=X, y=y, reg=reg)
        B[, i] = Bi
    }
"#;

#[test]
fn reuse_produces_identical_results() {
    let (x, y) = gen::synthetic_regression(400, 20, 1.0, 0.05, 701);
    let inputs = |s: &SystemDS| {
        vec![
            ("X", s.matrix(x.clone()).unwrap()),
            ("y", s.matrix(y.clone()).unwrap()),
        ]
    };
    let mut plain = session(ReusePolicy::None);
    let i1 = inputs(&plain);
    let out_plain = plain.execute(HYPERPARAM, &i1, &["B"]).unwrap();

    let mut reuse = session(ReusePolicy::FullAndPartial);
    let i2 = inputs(&reuse);
    let out_reuse = reuse.execute(HYPERPARAM, &i2, &["B"]).unwrap();

    assert!(out_plain
        .matrix("B")
        .unwrap()
        .approx_eq(&out_reuse.matrix("B").unwrap(), 1e-12));
    // Reuse must actually have happened: X'X and X'y hit for 7 of 8 models.
    let stats = reuse.cache_stats();
    assert!(stats.hits >= 7, "expected >= 7 hits, got {stats:?}");
    assert_eq!(plain.cache_stats().hits, 0);
}

#[test]
fn reuse_across_execute_calls_in_one_session() {
    // The session owns the cache, so a second script over the same input
    // reuses intermediates — "reuse across lifecycle tasks".
    let (x, y) = gen::synthetic_regression(300, 15, 1.0, 0.05, 702);
    let mut s = session(ReusePolicy::Full);
    let xin = s.matrix(x).unwrap();
    let yin = s.matrix(y).unwrap();
    s.execute(
        "B = lmDS(X=X, y=y, reg=0.001)",
        &[("X", xin.clone()), ("y", yin.clone())],
        &["B"],
    )
    .unwrap();
    let before = s.cache_stats();
    s.execute(
        "B2 = lmDS(X=X, y=y, reg=0.002)",
        &[("X", xin), ("y", yin)],
        &["B2"],
    )
    .unwrap();
    let after = s.cache_stats();
    assert!(
        after.hits > before.hits,
        "cross-script reuse: {before:?} -> {after:?}"
    );
}

#[test]
fn steplm_benefits_from_partial_reuse() {
    // steplm trains what-if models over cbind(Xg, X[,j]) — partial reuse
    // assembles tsmm(cbind(...)) from the cached tsmm(Xg).
    let n = 300;
    let x = gen::rand_uniform(n, 10, -1.0, 1.0, 1.0, 703);
    let c1 = sysds_tensor::kernels::indexing::column(&x, 0).unwrap();
    let c7 = sysds_tensor::kernels::indexing::column(&x, 6).unwrap();
    let y = sysds_tensor::kernels::elementwise::binary_mm(
        sysds_tensor::kernels::BinaryOp::Add,
        &sysds_tensor::kernels::elementwise::binary_ms(
            sysds_tensor::kernels::BinaryOp::Mul,
            &c1,
            2.0,
            1,
        ),
        &c7,
        1,
    )
    .unwrap();

    let mut plain = session(ReusePolicy::None);
    let out_plain = plain
        .execute(
            "[B, S] = steplm(X=X, y=y)",
            &[
                ("X", Data::from_matrix(x.clone())),
                ("y", Data::from_matrix(y.clone())),
            ],
            &["B", "S"],
        )
        .unwrap();

    let mut reuse = session(ReusePolicy::FullAndPartial);
    let out_reuse = reuse
        .execute(
            "[B, S] = steplm(X=X, y=y)",
            &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
            &["B", "S"],
        )
        .unwrap();

    // identical selections and models
    assert!(out_plain
        .matrix("S")
        .unwrap()
        .approx_eq(&out_reuse.matrix("S").unwrap(), 0.0));
    assert!(out_plain
        .matrix("B")
        .unwrap()
        .approx_eq(&out_reuse.matrix("B").unwrap(), 1e-9));
}

#[test]
fn full_reuse_policy_skips_partial() {
    let (x, y) = gen::synthetic_regression(200, 10, 1.0, 0.05, 704);
    let mut s = session(ReusePolicy::Full);
    s.execute(
        HYPERPARAM,
        &[("X", Data::from_matrix(x)), ("y", Data::from_matrix(y))],
        &["B"],
    )
    .unwrap();
    let stats = s.cache_stats();
    assert!(stats.hits > 0);
    assert_eq!(stats.partial_hits, 0);
}

#[test]
fn lineage_seeds_keep_rand_reusable_but_distinct() {
    let mut s = session(ReusePolicy::Full);
    let out = s
        .execute(
            r#"
            A = rand(rows=200, cols=40, seed=1)
            B = rand(rows=200, cols=40, seed=2)
            G1 = t(A) %*% A
            G2 = t(B) %*% B
            G1b = t(A) %*% A
            d_same = sum((G1 - G1b) * (G1 - G1b))
            d_diff = sum((G1 - G2) * (G1 - G2))
            "#,
            &[],
            &["d_same", "d_diff"],
        )
        .unwrap();
    assert_eq!(out.f64("d_same").unwrap(), 0.0);
    assert!(
        out.f64("d_diff").unwrap() > 0.0,
        "different seeds → different lineage"
    );
}

#[test]
fn cache_stats_reset_with_clear() {
    let (x, y) = gen::synthetic_regression(200, 10, 1.0, 0.05, 705);
    let mut s = session(ReusePolicy::Full);
    let xin = Data::from_matrix(x);
    let yin = Data::from_matrix(y);
    s.execute(
        HYPERPARAM,
        &[("X", xin.clone()), ("y", yin.clone())],
        &["B"],
    )
    .unwrap();
    assert!(s.cache_stats().hits > 0);
    s.clear_cache();
    // After clearing, the same work misses again (same session stats keep
    // accumulating, so compare the delta of misses).
    let misses_before = s.cache_stats().misses;
    s.execute(HYPERPARAM, &[("X", xin), ("y", yin)], &["B"])
        .unwrap();
    assert!(s.cache_stats().misses > misses_before);
}
