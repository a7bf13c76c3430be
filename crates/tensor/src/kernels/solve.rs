//! Direct linear system solvers: Cholesky, LU with partial pivoting,
//! triangular solves, and matrix inversion.
//!
//! `lmDS` (paper Figure 2) solves the normal equations
//! `(t(X)%*%X + diag(lambda)) beta = t(X)%*%y`; the system matrix is
//! symmetric positive definite, so [`solve`] tries Cholesky first and falls
//! back to pivoted LU for general systems.
//!
//! The Cholesky factorization is right-looking on the upper factor
//! `U = L'`, so its `O(n^3)` update walks contiguous rows and runs through
//! `kernels::simd` at the host's level. It performs the same operations per
//! entry, in the same order, as the textbook left-looking recurrence, and
//! the substitutions in [`solve`] walk rows of `U` in the same order as
//! column-wise substitution with `L`: results are bit-identical to those
//! forms at every SIMD level.

use super::simd;
use crate::matrix::{DenseMatrix, Matrix};
use sysds_common::{Result, SysDsError};

/// Cholesky factorization `A = L L'` of a symmetric positive-definite
/// matrix; returns the lower-triangular factor. Only the lower triangle of
/// `A` is read.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    square_dim(a, "cholesky")?;
    let u = cholesky_upper(simd::detected(), &a.to_dense())?;
    let n = u.rows();
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            l[i * n + j] = u.get(j, i);
        }
    }
    Ok(Matrix::Dense(DenseMatrix::from_vec(n, n, l)))
}

/// The upper factor `U = L'` of a square `a`, read from its lower triangle
/// and factored at SIMD `level`.
fn cholesky_upper(level: simd::Level, a: &DenseMatrix) -> Result<DenseMatrix> {
    let n = a.rows();
    let mut u = vec![0.0f64; n * n];
    for c in 0..n {
        for r in 0..=c {
            u[r * n + c] = a.get(c, r);
        }
    }
    if let Err((k, pivot)) = factor_upper(level, &mut u, n) {
        return Err(SysDsError::Numerical(format!(
            "cholesky: matrix not positive definite (pivot {pivot:.3e} at {k})"
        )));
    }
    Ok(DenseMatrix::from_vec(n, n, u))
}

simd::dispatch! {
    /// Right-looking Cholesky on the row-major upper triangle of `u`
    /// (`n x n`, holding `A`'s lower triangle transposed): for each `k`,
    /// take the pivot's square root, scale row `k`, then subtract
    /// `U[k][i] * U[k][j]` from every `U[i][j]` with `k < i <= j`. Each
    /// entry receives the same subtractions, in the same `k` order, as in
    /// the left-looking `s -= L[i][k] * L[j][k]` recurrence, so the factor
    /// is bit-identical to it; only the trailing update is contiguous and
    /// vectorizes. Rows are factored in panels of four, and each trailing
    /// row then takes the panel's four subtractions in one sweep, in `k`
    /// order. Returns the first non-positive pivot and its index.
    fn factor_upper(u: &mut [f64], n: usize) -> std::result::Result<(), (usize, f64)> {
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + 4).min(n);
            for k in k0..k1 {
                let (head, tail) = u.split_at_mut((k + 1) * n);
                let uk = &mut head[k * n..];
                let pivot = uk[k];
                if pivot <= 0.0 {
                    return Err((k, pivot));
                }
                let d = pivot.sqrt();
                uk[k] = d;
                for v in &mut uk[k + 1..] {
                    *v /= d;
                }
                for (i, row) in (k + 1..k1).zip(tail.chunks_exact_mut(n)) {
                    let f = uk[i];
                    for (dst, &src) in row[i..].iter_mut().zip(&uk[i..]) {
                        *dst -= src * f;
                    }
                }
            }
            if k1 == n {
                break;
            }
            // A short panel is the last one, so this panel has four rows.
            let (head, tail) = u.split_at_mut(k1 * n);
            let (p0, rest) = head[k0 * n..].split_at(n);
            let (p1, rest) = rest.split_at(n);
            let (p2, p3) = rest.split_at(n);
            for (i, row) in (k1..n).zip(tail.chunks_exact_mut(n)) {
                let (f0, f1, f2, f3) = (p0[i], p1[i], p2[i], p3[i]);
                let len = n - i;
                let dst = &mut row[i..][..len];
                let (s0, s1) = (&p0[i..][..len], &p1[i..][..len]);
                let (s2, s3) = (&p2[i..][..len], &p3[i..][..len]);
                for j in 0..len {
                    dst[j] = dst[j] - s0[j] * f0 - s1[j] * f1 - s2[j] * f2 - s3[j] * f3;
                }
            }
            k0 = k1;
        }
        Ok(())
    }
}

/// LU factorization with partial pivoting. Returns `(lu, perm)` where `lu`
/// packs `L` (unit diagonal, below) and `U` (on/above the diagonal), and
/// `perm[i]` is the source row of output row `i`.
pub fn lu(a: &Matrix) -> Result<(DenseMatrix, Vec<usize>)> {
    square_dim(a, "lu")?;
    lu_dense(a.to_dense())
}

fn lu_dense(mut m: DenseMatrix) -> Result<(DenseMatrix, Vec<usize>)> {
    let n = m.rows();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot: largest |value| in column k at/below the diagonal.
        let mut p = k;
        let mut best = m.get(k, k).abs();
        for i in (k + 1)..n {
            let v = m.get(i, k).abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(SysDsError::Numerical(format!(
                "lu: singular matrix (column {k})"
            )));
        }
        if p != k {
            perm.swap(p, k);
            for j in 0..n {
                let (a, b) = (m.get(k, j), m.get(p, j));
                m.set(k, j, b);
                m.set(p, j, a);
            }
        }
        let pivot = m.get(k, k);
        for i in (k + 1)..n {
            let factor = m.get(i, k) / pivot;
            m.set(i, k, factor);
            if factor != 0.0 {
                for j in (k + 1)..n {
                    let v = m.get(i, j) - factor * m.get(k, j);
                    m.set(i, j, v);
                }
            }
        }
    }
    Ok((m, perm))
}

#[allow(clippy::needless_range_loop)] // permutation application is clearer indexed
/// Solve `A X = B` for possibly multiple right-hand sides. Tries Cholesky
/// when `A` is symmetric, falling back to pivoted LU.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let n = square_dim(a, "solve")?;
    if b.rows() != n {
        return Err(SysDsError::DimensionMismatch {
            op: "solve",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let ad = a.to_dense();
    if is_symmetric(&ad) {
        if let Ok(u) = cholesky_upper(simd::detected(), &ad) {
            return Ok(solve_cholesky(&u, b));
        }
    }
    let (lum, perm) = lu_dense(ad)?;
    solve_lu(&lum, &perm, b)
}

/// Solve `U' U X = B` for the upper Cholesky factor `u`, walking rows of
/// `U` and of `X` only. Every entry of `X` receives the same subtractions
/// in the same order as column-wise substitution with `L = U'`.
fn solve_cholesky(u: &DenseMatrix, b: &Matrix) -> Matrix {
    let n = u.rows();
    let k = b.cols();
    let mut x = b.to_dense();
    let xs = x.values_mut();
    // Forward substitution U' y = b: once y[j] is final, subtract its
    // multiples from the rows below.
    for j in 0..n {
        let urow = u.row(j);
        let (head, tail) = xs.split_at_mut((j + 1) * k);
        let xj = &mut head[j * k..];
        for v in xj.iter_mut() {
            *v /= urow[j];
        }
        for (&f, xi) in urow[j + 1..].iter().zip(tail.chunks_exact_mut(k.max(1))) {
            for (dst, &src) in xi.iter_mut().zip(xj.iter()) {
                *dst -= f * src;
            }
        }
    }
    // Backward substitution U x = y.
    for i in (0..n).rev() {
        let urow = u.row(i);
        let (head, tail) = xs.split_at_mut((i + 1) * k);
        let xi = &mut head[i * k..];
        for (&f, xj) in urow[i + 1..].iter().zip(tail.chunks_exact(k.max(1))) {
            for (dst, &src) in xi.iter_mut().zip(xj) {
                *dst -= f * src;
            }
        }
        for v in xi.iter_mut() {
            *v /= urow[i];
        }
    }
    Matrix::Dense(x)
}

#[allow(clippy::needless_range_loop)] // i indexes perm and the triangular sweep
fn solve_lu(lum: &DenseMatrix, perm: &[usize], b: &Matrix) -> Result<Matrix> {
    let n = lum.rows();
    let k = b.cols();
    let mut x = DenseMatrix::zeros(n, k);
    for col in 0..k {
        // Apply permutation, then forward substitution (unit L).
        for i in 0..n {
            let mut s = b.get(perm[i], col);
            for j in 0..i {
                s -= lum.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s);
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut s = x.get(i, col);
            for j in (i + 1)..n {
                s -= lum.get(i, j) * x.get(j, col);
            }
            x.set(i, col, s / lum.get(i, i));
        }
    }
    Ok(Matrix::Dense(x))
}

/// Matrix inverse via LU solve against the identity.
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    let n = square_dim(a, "inv")?;
    solve(a, &Matrix::Dense(Matrix::identity(n).to_dense()))
}

/// Determinant via LU (product of U's diagonal, sign from the permutation).
pub fn det(a: &Matrix) -> Result<f64> {
    let n = square_dim(a, "det")?;
    let (lum, perm) = match lu(a) {
        Ok(x) => x,
        Err(SysDsError::Numerical(_)) => return Ok(0.0),
        Err(e) => return Err(e),
    };
    let mut d = 1.0;
    for i in 0..n {
        d *= lum.get(i, i);
    }
    // Permutation sign: count cycles.
    let mut seen = vec![false; n];
    let mut swaps = 0usize;
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        swaps += len - 1;
    }
    Ok(if swaps.is_multiple_of(2) { d } else { -d })
}

fn square_dim(a: &Matrix, op: &'static str) -> Result<usize> {
    if a.rows() != a.cols() {
        Err(SysDsError::runtime(format!(
            "{op} requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )))
    } else {
        Ok(a.rows())
    }
}

fn is_symmetric(a: &DenseMatrix) -> bool {
    let (n, v) = (a.rows(), a.values());
    for i in 0..n {
        for j in (i + 1)..n {
            let (aij, aji) = (v[i * n + j], v[j * n + i]);
            if (aij - aji).abs() > 1e-12 * (1.0 + aij.abs()) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gen, matmult, reorg, tsmm};

    fn spd(n: usize, seed: u64) -> Matrix {
        // X'X + I is symmetric positive definite.
        let x = gen::rand_uniform(n * 3, n, -1.0, 1.0, 1.0, seed);
        let g = tsmm::tsmm(&x, 1, false);
        crate::kernels::elementwise::binary_mm(
            crate::kernels::elementwise::BinaryOp::Add,
            &g,
            &Matrix::Dense(Matrix::identity(n).to_dense()),
        )
        .unwrap()
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(8, 51);
        let l = cholesky(&a).unwrap();
        let lt = reorg::transpose(&l, 1);
        let back = matmult::matmul(&l, &lt, 1, false).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(cholesky(&a).is_err());
    }

    #[test]
    fn solve_spd_system() {
        let a = spd(10, 52);
        let x_true = gen::rand_uniform(10, 1, -1.0, 1.0, 1.0, 53);
        let b = matmult::matmul(&a, &x_true, 1, false).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-7));
    }

    #[test]
    fn solve_general_system_with_pivoting() {
        // Requires pivoting: zero on the first diagonal entry.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]).unwrap();
        let x_true = Matrix::from_vec(3, 1, vec![1.0, -2.0, 3.0]).unwrap();
        let b = matmult::matmul(&a, &x_true, 1, false).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn solve_multiple_rhs() {
        let a = spd(6, 54);
        let xs = gen::rand_uniform(6, 3, -1.0, 1.0, 1.0, 55);
        let b = matmult::matmul(&a, &xs, 1, false).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&xs, 1e-7));
    }

    #[test]
    fn singular_matrix_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let b = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        assert!(matches!(solve(&a, &b), Err(SysDsError::Numerical(_))));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd(7, 56);
        let inv = inverse(&a).unwrap();
        let prod = matmult::matmul(&a, &inv, 1, false).unwrap();
        assert!(prod.approx_eq(&Matrix::Dense(Matrix::identity(7).to_dense()), 1e-7));
    }

    #[test]
    fn determinant_values() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0]]).unwrap();
        assert!((det(&a).unwrap() - 6.0).abs() < 1e-12);
        // Pivoted case with a sign flip.
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((det(&b).unwrap() + 1.0).abs() < 1e-12);
        // Singular.
        let c = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(det(&c).unwrap(), 0.0);
    }

    /// The left-looking factorization `cholesky` computed before the
    /// right-looking one; kept as the bitwise reference.
    fn cholesky_left_looking(a: &Matrix) -> Result<Matrix> {
        let n = square_dim(a, "cholesky")?;
        let mut l = vec![0.0f64; n * n];
        let ad = a.to_dense();
        for i in 0..n {
            for j in 0..=i {
                let mut s = ad.get(i, j);
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(SysDsError::Numerical(format!(
                            "cholesky: matrix not positive definite (pivot {s:.3e} at {i})"
                        )));
                    }
                    l[i * n + j] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Ok(Matrix::Dense(DenseMatrix::from_vec(n, n, l)))
    }

    /// Column-wise substitution with the lower factor, the reference for
    /// `solve_cholesky`.
    fn solve_lower_columns(l: &Matrix, b: &Matrix) -> Matrix {
        let (n, k) = (l.rows(), b.cols());
        let mut x = b.to_dense();
        for col in 0..k {
            for i in 0..n {
                let mut s = x.get(i, col);
                for j in 0..i {
                    s -= l.get(i, j) * x.get(j, col);
                }
                x.set(i, col, s / l.get(i, i));
            }
            for i in (0..n).rev() {
                let mut s = x.get(i, col);
                for j in (i + 1)..n {
                    s -= l.get(j, i) * x.get(j, col);
                }
                x.set(i, col, s / l.get(i, i));
            }
        }
        Matrix::Dense(x)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// `U'` of `a` factored at `level`, or the error text.
    fn lower_at(level: simd::Level, a: &Matrix) -> std::result::Result<Matrix, String> {
        let u = cholesky_upper(level, &a.to_dense()).map_err(|e| e.to_string())?;
        Ok(reorg::transpose(&Matrix::Dense(u), 1))
    }

    #[test]
    fn cholesky_bitwise_identical_to_left_looking_at_every_level() {
        for n in [1usize, 2, 8, 57, 200] {
            let a = spd(n, 60 + n as u64);
            let want = bits(&cholesky_left_looking(&a).unwrap());
            assert_eq!(bits(&cholesky(&a).unwrap()), want, "n={n}");
            for level in simd::supported() {
                assert_eq!(bits(&lower_at(level, &a).unwrap()), want, "n={n} {level:?}");
            }
        }
    }

    #[test]
    fn cholesky_reads_only_the_lower_triangle() {
        // Perturb the strict upper triangle: the factor must not change.
        let mut a = spd(57, 61);
        for i in 0..57 {
            for j in (i + 1)..57 {
                let v = a.get(i, j);
                a.set(i, j, v * (1.0 + 1e-9 * (i + j) as f64));
            }
        }
        let want = bits(&cholesky_left_looking(&a).unwrap());
        assert_eq!(want, bits(&cholesky_left_looking(&spd(57, 61)).unwrap()));
        for level in simd::supported() {
            assert_eq!(bits(&lower_at(level, &a).unwrap()), want, "{level:?}");
        }
    }

    #[test]
    fn cholesky_not_positive_definite_error_unchanged() {
        let mut big = spd(57, 62);
        big.set(30, 30, -5.0);
        let small = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        for a in [small, big] {
            let want = cholesky_left_looking(&a).unwrap_err().to_string();
            assert!(want.contains("not positive definite"), "{want}");
            assert_eq!(cholesky(&a).unwrap_err().to_string(), want);
            for level in simd::supported() {
                assert_eq!(lower_at(level, &a).unwrap_err(), want, "{level:?}");
            }
        }
    }

    #[test]
    fn solve_bitwise_identical_to_column_substitution() {
        for n in [1usize, 8, 57, 200] {
            let a = spd(n, 63 + n as u64);
            let l = cholesky_left_looking(&a).unwrap();
            for k in [1usize, 3] {
                let b = gen::rand_uniform(n, k, -1.0, 1.0, 1.0, 64 + k as u64);
                let want = bits(&solve_lower_columns(&l, &b));
                assert_eq!(bits(&solve(&a, &b).unwrap()), want, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn shape_checks() {
        let rect = Matrix::zeros(2, 3);
        assert!(cholesky(&rect).is_err());
        assert!(solve(&rect, &Matrix::zeros(2, 1)).is_err());
        let a = spd(3, 57);
        assert!(solve(&a, &Matrix::zeros(4, 1)).is_err());
    }
}

/// Symmetric eigendecomposition via the cyclic Jacobi method. Returns
/// `(values, vectors)` with eigenvalues ascending and eigenvectors in the
/// corresponding columns (`A = V diag(w) t(V)`).
pub fn eigen_symmetric(a: &Matrix) -> Result<(Matrix, Matrix)> {
    let n = square_dim(a, "eigen")?;
    let mut m = a.to_dense();
    if m.values().iter().any(|v| !v.is_finite()) {
        return Err(SysDsError::Numerical(
            "eigen: matrix contains NaN or infinite values".into(),
        ));
    }
    if !is_symmetric(&m) {
        return Err(SysDsError::Numerical(
            "eigen requires a symmetric matrix".into(),
        ));
    }
    let mut v = Matrix::identity(n).to_dense();
    let max_sweeps = 64;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += 2.0 * m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Stable rotation angle.
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation to rows/columns p and q.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    // Finite input can still overflow in the rotations.
    if (0..n).any(|i| !m.get(i, i).is_finite()) {
        return Err(SysDsError::Numerical(
            "eigen: eigenvalues are not finite (overflow)".into(),
        ));
    }
    // Sort eigenpairs ascending by eigenvalue; all are finite, so every
    // pair compares.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m.get(i, i)
            .partial_cmp(&m.get(j, j))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut values = DenseMatrix::zeros(n, 1);
    let mut vectors = DenseMatrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        values.set(dst, 0, m.get(src, src));
        for k in 0..n {
            vectors.set(k, dst, v.get(k, src));
        }
    }
    Ok((Matrix::Dense(values), Matrix::Dense(vectors)))
}

#[cfg(test)]
mod eigen_tests {
    use super::*;
    use crate::kernels::BinaryOp;
    use crate::kernels::{elementwise, gen, matmult, reorg, tsmm};

    #[test]
    fn eigen_reconstructs_symmetric_matrix() {
        let x = gen::rand_uniform(20, 6, -1.0, 1.0, 1.0, 71);
        let a = tsmm::tsmm(&x, 1, false); // symmetric PSD
        let (w, v) = eigen_symmetric(&a).unwrap();
        // A ≈ V diag(w) V'
        let d = reorg::diag(&w).unwrap();
        let vd = matmult::matmul(&v, &d, 1, false).unwrap();
        let back = matmult::matmul(&vd, &reorg::transpose(&v, 1), 1, false).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn eigenvalues_sorted_and_orthonormal_vectors() {
        let x = gen::rand_uniform(30, 5, -1.0, 1.0, 1.0, 72);
        let a = tsmm::tsmm(&x, 1, false);
        let (w, v) = eigen_symmetric(&a).unwrap();
        for i in 1..5 {
            assert!(w.get(i - 1, 0) <= w.get(i, 0) + 1e-12, "ascending");
        }
        let vtv = matmult::matmul(&reorg::transpose(&v, 1), &v, 1, false).unwrap();
        assert!(vtv.approx_eq(&Matrix::Dense(Matrix::identity(5).to_dense()), 1e-8));
    }

    #[test]
    fn eigen_known_values() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let (w, _) = eigen_symmetric(&a).unwrap();
        assert!((w.get(0, 0) - 1.0).abs() < 1e-10);
        assert!((w.get(1, 0) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_rejects_nonsymmetric_and_rectangular() {
        assert!(eigen_symmetric(&Matrix::zeros(2, 3)).is_err());
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(eigen_symmetric(&ns).is_err());
    }

    #[test]
    fn eigen_rejects_non_finite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::filled(3, 3, 1.0);
            a.set(1, 1, bad);
            let err = eigen_symmetric(&a).unwrap_err();
            assert!(matches!(err, SysDsError::Numerical(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn eigen_rejects_overflowing_eigenvalues() {
        let a = Matrix::from_rows(&[&[f64::MAX, f64::MAX], &[f64::MAX, f64::MAX]]).unwrap();
        assert!(matches!(eigen_symmetric(&a), Err(SysDsError::Numerical(_))));
    }

    #[test]
    fn eigen_agrees_with_trace_and_det() {
        let x = gen::rand_uniform(12, 4, -1.0, 1.0, 1.0, 73);
        let g = tsmm::tsmm(&x, 1, false);
        let a = elementwise::binary_mm(
            BinaryOp::Add,
            &g,
            &Matrix::Dense(Matrix::identity(4).to_dense()),
        )
        .unwrap();
        let (w, _) = eigen_symmetric(&a).unwrap();
        let sum_w: f64 = w.to_vec().iter().sum();
        let prod_w: f64 = w.to_vec().iter().product();
        assert!((sum_w - crate::kernels::aggregate::trace(&a).unwrap()).abs() < 1e-8);
        assert!((prod_w - det(&a).unwrap()).abs() < 1e-6 * prod_w.abs());
    }
}
