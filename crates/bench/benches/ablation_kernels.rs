//! Ablation 1 (§4.2 kernel gap): portable naive matmul vs the BLAS-like
//! blocked kernel vs the fused tsmm, single- and multi-threaded. This is
//! the micro-level mechanism behind the SysDS vs SysDS-B vs Julia gaps.

use sysds_bench::bench;
use sysds_tensor::kernels::{gen, matmult, reorg, solve, tsmm};
use sysds_tensor::Matrix;

fn main() {
    println!("# ablation_kernels");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    // Square matmul: portable vs blocked.
    let n = 256;
    let a = gen::rand_uniform(n, n, -1.0, 1.0, 1.0, 6001);
    let b = gen::rand_uniform(n, n, -1.0, 1.0, 1.0, 6002);
    bench(&format!("matmul_naive_1t/{n}"), || {
        matmult::matmul(&a, &b, 1, false).unwrap()
    });
    bench(&format!("matmul_blocked_1t/{n}"), || {
        matmult::matmul(&a, &b, 1, true).unwrap()
    });
    bench(&format!("matmul_naive_mt/{n}"), || {
        matmult::matmul(&a, &b, threads, false).unwrap()
    });
    bench(&format!("matmul_blocked_mt/{n}"), || {
        matmult::matmul(&a, &b, threads, true).unwrap()
    });

    // Tall-skinny Gram: explicit t(X)%*%X vs fused tsmm (dense + sparse).
    let x = gen::rand_uniform(20_000, 64, -1.0, 1.0, 1.0, 6003);
    bench("gram_explicit_dense", || {
        let xt = reorg::transpose(&x, threads);
        matmult::matmul(&xt, &x, threads, false).unwrap()
    });
    bench("gram_tsmm_dense", || tsmm::tsmm(&x, threads, false));
    bench("gram_tsmm_dense_blas", || tsmm::tsmm(&x, threads, true));

    let xs: Matrix = gen::rand_uniform(20_000, 64, -1.0, 1.0, 0.1, 6004).compact();
    assert!(xs.is_sparse());
    bench("gram_explicit_sparse", || {
        let xt = reorg::transpose(&xs, threads);
        matmult::matmul(&xt, &xs, threads, false).unwrap()
    });
    bench("gram_tsmm_sparse", || tsmm::tsmm(&xs, threads, false));

    // One lmDS model of the Figure-5(a) HPO bench at its perfbench size:
    // the blocked Gram of X 600x200 on one thread, then the 200x200
    // normal-equation solve (Cholesky plus substitution).
    let xh = gen::rand_uniform(600, 200, -1.0, 1.0, 1.0, 6005);
    bench("gram_tsmm_dense_blas_1t/600x200", || {
        tsmm::tsmm(&xh, 1, true)
    });
    let g = tsmm::tsmm(&xh, 1, true);
    let rhs = gen::rand_uniform(200, 1, -1.0, 1.0, 1.0, 6006);
    bench("solve_spd/200", || solve::solve(&g, &rhs).unwrap());
}
