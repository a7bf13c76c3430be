#![allow(clippy::field_reassign_with_default)]

//! Coverage of every runtime builtin through DML scripts — each assertion
//! exercises the full parse → compile → execute path.

use sysds::api::SystemDS;
use sysds::Data;
use sysds_common::{EngineConfig, ScalarValue, SysDsError};
use sysds_tensor::Matrix;

fn run(script: &str, inputs: &[(&str, Data)], outputs: &[&str]) -> sysds::api::ScriptOutputs {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-builtin-tests");
    let mut s = SystemDS::with_config(config).unwrap();
    s.execute(script, inputs, outputs).unwrap()
}

fn m(rows: &[&[f64]]) -> Data {
    Data::from_matrix(Matrix::from_rows(rows).unwrap())
}

#[test]
fn shape_builtins() {
    let out = run(
        "r = nrow(X)\nc = ncol(X)\nl = length(X)\nz = nnz(X)",
        &[("X", m(&[&[1.0, 0.0, 3.0], &[0.0, 5.0, 6.0]]))],
        &["r", "c", "l", "z"],
    );
    assert_eq!(out.scalar("r").unwrap(), ScalarValue::I64(2));
    assert_eq!(out.scalar("c").unwrap(), ScalarValue::I64(3));
    assert_eq!(out.scalar("l").unwrap(), ScalarValue::I64(6));
    assert_eq!(out.scalar("z").unwrap(), ScalarValue::I64(4));
}

#[test]
fn aggregate_builtins() {
    let x = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
    let out = run(
        r#"
        s = sum(X); mn = mean(X); mi = min(X); ma = max(X)
        v = var(X); sd_ = sd(X)
        rs = rowSums(X); cs = colSums(X)
        rm = rowMeans(X); cm = colMeans(X)
        rmx = rowMaxs(X); cmn = colMins(X)
        "#,
        &[("X", x)],
        &[
            "s", "mn", "mi", "ma", "v", "sd_", "rs", "cs", "rm", "cm", "rmx", "cmn",
        ],
    );
    assert_eq!(out.f64("s").unwrap(), 10.0);
    assert_eq!(out.f64("mn").unwrap(), 2.5);
    assert_eq!(out.f64("mi").unwrap(), 1.0);
    assert_eq!(out.f64("ma").unwrap(), 4.0);
    assert!((out.f64("v").unwrap() - 5.0 / 3.0).abs() < 1e-12);
    assert!((out.f64("sd_").unwrap() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    assert_eq!(out.matrix("rs").unwrap().to_vec(), vec![3.0, 7.0]);
    assert_eq!(out.matrix("cs").unwrap().to_vec(), vec![4.0, 6.0]);
    assert_eq!(out.matrix("rm").unwrap().to_vec(), vec![1.5, 3.5]);
    assert_eq!(out.matrix("cm").unwrap().to_vec(), vec![2.0, 3.0]);
    assert_eq!(out.matrix("rmx").unwrap().to_vec(), vec![2.0, 4.0]);
    assert_eq!(out.matrix("cmn").unwrap().to_vec(), vec![1.0, 2.0]);
}

#[test]
fn reorg_builtins() {
    let out = run(
        r#"
        T = t(X)
        R = rev(X)
        D = diag(X)
        C = cumsum(X)
        P = cumprod(X)
        O = order(target=X, by=1, decreasing=TRUE)
        I = rowIndexMax(X)
        "#,
        &[("X", m(&[&[1.0, 4.0], &[3.0, 2.0]]))],
        &["T", "R", "D", "C", "P", "O", "I"],
    );
    assert_eq!(out.matrix("T").unwrap().to_vec(), vec![1.0, 3.0, 4.0, 2.0]);
    assert_eq!(out.matrix("R").unwrap().to_vec(), vec![3.0, 2.0, 1.0, 4.0]);
    assert_eq!(out.matrix("D").unwrap().to_vec(), vec![1.0, 2.0]);
    assert_eq!(out.matrix("C").unwrap().to_vec(), vec![1.0, 4.0, 4.0, 6.0]);
    assert_eq!(out.matrix("P").unwrap().to_vec(), vec![1.0, 4.0, 3.0, 8.0]);
    assert_eq!(out.matrix("O").unwrap().to_vec(), vec![3.0, 2.0, 1.0, 4.0]);
    assert_eq!(out.matrix("I").unwrap().to_vec(), vec![2.0, 1.0]);
}

#[test]
fn linear_algebra_builtins() {
    let out = run(
        r#"
        A = matrix(0, rows=2, cols=2)
        A[1, 1] = 4; A[1, 2] = 1; A[2, 1] = 1; A[2, 2] = 3
        b = matrix(1, rows=2, cols=1)
        x = solve(A, b)
        Ai = inv(A)
        d = det(A)
        tr = trace(A)
        L = cholesky(A)
        check = sum(abs(L %*% t(L) - A))
        "#,
        &[],
        &["x", "Ai", "d", "tr", "check"],
    );
    // A = [[4,1],[1,3]], det=11, trace=7
    assert!((out.f64("d").unwrap() - 11.0).abs() < 1e-9);
    assert_eq!(out.f64("tr").unwrap(), 7.0);
    assert!(out.f64("check").unwrap() < 1e-9);
    let x = out.matrix("x").unwrap();
    // solve([[4,1],[1,3]], [1,1]) = [2/11, 3/11]
    assert!((x.get(0, 0) - 2.0 / 11.0).abs() < 1e-9);
    assert!((x.get(1, 0) - 3.0 / 11.0).abs() < 1e-9);
}

#[test]
fn cholesky_builtin_reads_only_the_lower_triangle() {
    let x = sysds_tensor::kernels::gen::rand_uniform(40, 12, -1.0, 1.0, 1.0, 21);
    let a = sysds_tensor::kernels::tsmm::tsmm(&x, 1, false);
    let mut skewed = a.clone();
    for i in 0..12 {
        for j in (i + 1)..12 {
            skewed.set(i, j, a.get(i, j) * (1.0 + 1e-9));
        }
    }
    let out = run(
        "L = cholesky(A)\nLs = cholesky(S)\ncheck = sum(abs(L %*% t(L) - A))",
        &[
            ("A", Data::from_matrix(a)),
            ("S", Data::from_matrix(skewed)),
        ],
        &["L", "Ls", "check"],
    );
    let bits = |name: &str| -> Vec<u64> {
        let m = out.matrix(name).unwrap();
        m.to_vec().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits("L"), bits("Ls"));
    assert!(out.f64("check").unwrap() < 1e-9);
}

#[test]
fn eigen_of_non_finite_matrix_is_a_typed_error() {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-builtin-tests");
    let mut s = SystemDS::with_config(config).unwrap();
    let err = s
        .execute(
            "A = matrix(1, rows=3, cols=3)\nA[2,2] = 0/0\n[w, V] = eigen(A)",
            &[],
            &["w", "V"],
        )
        .unwrap_err();
    assert!(matches!(err, SysDsError::Numerical(_)), "{err}");
}

/// Run `script` and return its error; the script must fail.
fn run_err(script: &str, outputs: &[&str]) -> SysDsError {
    let mut config = EngineConfig::default();
    config.spill_dir = sysds_common::testing::unique_temp_dir("sysds-builtin-tests");
    let mut s = SystemDS::with_config(config).unwrap();
    s.execute(script, &[], outputs).unwrap_err()
}

/// Negative or overflowing `rand`/`matrix` dimensions once panicked the
/// allocator ("capacity overflow") or, for a reshape, wrapped into a
/// matrix with a negative `nrow`.
#[test]
fn bad_matrix_dimensions_are_typed_errors() {
    for script in [
        "X = matrix(0, rows=-1, cols=2)",
        "X = matrix(1, rows=1e10, cols=1e10)",
        "X = rand(rows=-1, cols=2)",
    ] {
        let err = run_err(script, &["X"]);
        assert!(matches!(err, SysDsError::Runtime(_)), "{script}: {err}");
    }
    let err = run_err(
        "X = rand(rows=3, cols=2, seed=1)\nZ = matrix(X, rows=-3, cols=-2)",
        &["Z"],
    );
    assert!(matches!(err, SysDsError::Runtime(_)), "{err}");
}

/// A `.mtd` sidecar whose `rows * cols` overflows is malformed input.
#[test]
fn overflowing_mtd_sidecar_is_a_typed_error() {
    let dir = sysds_common::testing::unique_temp_dir("sysds-builtin-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("huge-{}.csv", std::process::id()));
    std::fs::write(&p, "1,2\n3,4\n").unwrap();
    std::fs::write(
        sysds_io::Metadata::sidecar_path(&p),
        r#"{"rows": 4294967296, "cols": 4294967296, "nnz": 4, "format": "csv"}"#,
    )
    .unwrap();
    let err = run_err(
        &format!("X = read(\"{}\")\ns = sum(X)", p.display()),
        &["s"],
    );
    assert!(matches!(err, SysDsError::Format(_)), "{err}");
}

#[test]
fn elementwise_and_casting_builtins() {
    let out = run(
        r#"
        E = exp(X); L = log(E); Q = sqrt(X * X)
        S = sign(X); R = round(X + 0.4); F = floor(X + 0.9); C = ceil(X + 0.1)
        sg = sigmoid(0)
        i = as.integer(3.9)
        dd = as.double(7)
        bb = as.logical(1)
        sc = as.scalar(X[1, 1])
        M = as.matrix(5)
        "#,
        &[("X", m(&[&[1.0, -2.0]]))],
        &[
            "L", "Q", "S", "R", "F", "C", "sg", "i", "dd", "bb", "sc", "M",
        ],
    );
    assert!(out
        .matrix("L")
        .unwrap()
        .approx_eq(&Matrix::from_rows(&[&[1.0, -2.0]]).unwrap(), 1e-12));
    assert_eq!(out.matrix("Q").unwrap().to_vec(), vec![1.0, 2.0]);
    assert_eq!(out.matrix("S").unwrap().to_vec(), vec![1.0, -1.0]);
    assert_eq!(out.matrix("R").unwrap().to_vec(), vec![1.0, -2.0]);
    assert_eq!(out.matrix("F").unwrap().to_vec(), vec![1.0, -2.0]);
    assert_eq!(out.matrix("C").unwrap().to_vec(), vec![2.0, -1.0]);
    assert_eq!(out.f64("sg").unwrap(), 0.5);
    assert_eq!(out.scalar("i").unwrap(), ScalarValue::I64(3));
    assert_eq!(out.scalar("dd").unwrap(), ScalarValue::F64(7.0));
    assert_eq!(out.scalar("bb").unwrap(), ScalarValue::Bool(true));
    assert_eq!(out.f64("sc").unwrap(), 1.0);
    assert_eq!(out.matrix("M").unwrap().shape(), (1, 1));
}

#[test]
fn data_builtins() {
    let out = run(
        r#"
        Z = matrix(7, rows=2, cols=3)
        S = seq(2, 10, 2)
        U = rand(rows=4, cols=4, min=0, max=1, sparsity=0.5, seed=3)
        RE = removeEmpty(target=Z - 7, margin="rows")
        RP = replace(target=Z, pattern=7, replacement=9)
        "#,
        &[],
        &["Z", "S", "U", "RE", "RP"],
    );
    assert_eq!(out.matrix("Z").unwrap().to_vec(), vec![7.0; 6]);
    assert_eq!(
        out.matrix("S").unwrap().to_vec(),
        vec![2.0, 4.0, 6.0, 8.0, 10.0]
    );
    assert_eq!(out.matrix("U").unwrap().shape(), (4, 4));
    // all-zero input collapses to 1x1
    assert_eq!(out.matrix("RE").unwrap().shape(), (1, 1));
    assert_eq!(out.matrix("RP").unwrap().to_vec(), vec![9.0; 6]);
}

#[test]
fn string_builtins_and_print() {
    let out = run(
        r#"
        msg = "k=" + 3 + ", v=" + 2.5
        print(msg)
        print("two", "parts")
        t = toString(42)
        "#,
        &[],
        &["msg", "t"],
    );
    assert_eq!(out.scalar("msg").unwrap().to_display_string(), "k=3, v=2.5");
    assert_eq!(
        out.stdout,
        vec!["k=3, v=2.5".to_string(), "two parts".to_string()]
    );
    assert_eq!(out.scalar("t").unwrap().to_display_string(), "42");
}

#[test]
fn recursive_functions_work() {
    let out = run(
        r#"
        fact = function(int n) return (int f) {
            if (n <= 1) { f = 1 } else {
                r = fact(n - 1)
                f = n * r
            }
        }
        f10 = fact(10)
        "#,
        &[],
        &["f10"],
    );
    assert_eq!(out.scalar("f10").unwrap(), ScalarValue::I64(3_628_800));
}

#[test]
fn min_max_two_argument_forms() {
    let out = run(
        r#"
        a = min(3, 7)
        b = max(3, 7)
        M = min(X, 0)
        "#,
        &[("X", m(&[&[-1.0, 2.0]]))],
        &["a", "b", "M"],
    );
    assert_eq!(out.f64("a").unwrap(), 3.0);
    assert_eq!(out.f64("b").unwrap(), 7.0);
    assert_eq!(out.matrix("M").unwrap().to_vec(), vec![-1.0, 0.0]);
}

#[test]
fn matrix_market_read_via_script() {
    let dir = sysds_common::testing::unique_temp_dir("sysds-builtin-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("script-{}.mtx", std::process::id()));
    let x = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
    sysds_io::formats::write_matrix_market(&p, &x).unwrap();
    let out = run(
        &format!(
            r#"X = read("{}", format="mm")
                    total = sum(X)"#,
            p.display()
        ),
        &[],
        &["total"],
    );
    assert_eq!(out.f64("total").unwrap(), 5.0);
}

#[test]
fn statistics_builtins() {
    let out = run(
        r#"
        q1 = quantile(X, 0.25)
        md = median(X)
        "#,
        &[("X", m(&[&[10.0, 20.0], &[30.0, 40.0]]))],
        &["q1", "md"],
    );
    assert_eq!(out.f64("q1").unwrap(), 17.5);
    assert_eq!(out.f64("md").unwrap(), 25.0);
}

#[test]
fn table_and_outer_builtins() {
    let out = run(
        r#"
        v1 = matrix(seq(1, 3), rows=3, cols=1)
        v2 = matrix(1, rows=3, cols=1)
        T = table(v1, v2)
        O = outer(v1, t(v1), "*")
        Ocmp = outer(v1, t(v1), "<")
        "#,
        &[],
        &["T", "O", "Ocmp"],
    );
    let t = out.matrix("T").unwrap();
    assert_eq!(t.shape(), (3, 1));
    assert_eq!(t.to_vec(), vec![1.0, 1.0, 1.0]);
    let o = out.matrix("O").unwrap();
    assert_eq!(o.get(2, 2), 9.0);
    assert_eq!(o.get(0, 1), 2.0);
    let c = out.matrix("Ocmp").unwrap();
    assert_eq!(c.get(0, 2), 1.0);
    assert_eq!(c.get(2, 0), 0.0);
}

#[test]
fn eigen_builtin_end_to_end() {
    let out = run(
        r#"
        X = rand(rows=30, cols=4, seed=9)
        A = t(X) %*% X
        [w, V] = eigen(A)
        # reconstruction error must vanish
        R = V %*% diag(w) %*% t(V)
        err = sum(abs(R - A))
        # vectors orthonormal
        ortho = sum(abs(t(V) %*% V - diag(matrix(1, rows=4, cols=1))))
        "#,
        &[],
        &["w", "err", "ortho"],
    );
    assert_eq!(out.matrix("w").unwrap().shape(), (4, 1));
    assert!(
        out.f64("err").unwrap() < 1e-7,
        "reconstruction {}",
        out.f64("err").unwrap()
    );
    assert!(out.f64("ortho").unwrap() < 1e-7);
}
