//! Ablation 4 (§2.4 blocking, 2-D only): distributed blocked execution vs
//! local — reblock cost, blocked matmul and blocked tsmm.

use sysds_bench::bench;
use sysds_dist::BlockedMatrix;
use sysds_tensor::kernels::{gen, matmult, tsmm};

fn main() {
    println!("# ablation_dist");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let a = gen::rand_uniform(512, 512, -1.0, 1.0, 1.0, 6201);
    let b = gen::rand_uniform(512, 512, -1.0, 1.0, 1.0, 6202);

    bench("matmul_local", || {
        matmult::matmul(&a, &b, threads, false).unwrap()
    });
    for bs in [64usize, 128, 256] {
        bench(&format!("matmul_blocked/{bs}"), || {
            let da = BlockedMatrix::from_matrix(&a, bs, threads).unwrap();
            let db = BlockedMatrix::from_matrix(&b, bs, threads).unwrap();
            da.matmul(&db, 1).unwrap().to_matrix()
        });
    }

    // Tall-skinny tsmm: local fused vs distributed per-block plan.
    let x = gen::rand_uniform(40_000, 64, -1.0, 1.0, 1.0, 6203);
    bench("tsmm_local", || tsmm::tsmm(&x, threads, false));
    bench("tsmm_dist", || {
        let d = BlockedMatrix::from_matrix(&x, 1024, threads).unwrap();
        d.tsmm(1).unwrap()
    });

    // Pure reblock overhead (the CSV → binary blocks step of §2.3).
    bench("reblock_512x512_bs128", || {
        BlockedMatrix::from_matrix(&a, 128, threads).unwrap()
    });
}
