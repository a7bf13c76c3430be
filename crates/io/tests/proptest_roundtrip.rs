//! Property tests: every matrix survives CSV and binary round trips, for
//! arbitrary shapes, sparsity, and parser thread counts.

use sysds_common::testing::check;
use sysds_io::FormatDescriptor;
use sysds_tensor::kernels::gen;

const CASES: u64 = 24;

fn tmpfile(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = sysds_common::testing::unique_temp_dir("sysds-io-props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{case}", std::process::id()))
}

#[test]
fn csv_round_trip() {
    check("csv_round_trip", CASES, |g| {
        let rows = g.usize(1..60);
        let cols = g.usize(1..20);
        let sparsity = g.pick(&[1.0f64, 0.3, 0.05]);
        let threads = g.usize(1..8);
        let seed = g.u64();
        let m = gen::rand_uniform(rows, cols, -1e6, 1e6, sparsity, seed).compact();
        let p = tmpfile("csv", seed);
        let desc = FormatDescriptor::csv();
        sysds_io::csv::write_matrix(&p, &m, &desc).unwrap();
        let back = sysds_io::csv::read_matrix(&p, &desc, threads).unwrap();
        std::fs::remove_file(&p).ok();
        assert!(back.approx_eq(&m, 1e-9));
    });
}

#[test]
fn binary_round_trip() {
    check("binary_round_trip", CASES, |g| {
        let rows = g.usize(1..80);
        let cols = g.usize(1..30);
        let block = g.usize(1..40);
        let sparsity = g.pick(&[1.0f64, 0.1]);
        let seed = g.u64();
        let m = gen::rand_uniform(rows, cols, -1.0, 1.0, sparsity, seed).compact();
        let p = tmpfile("bin", seed);
        sysds_io::binary::write_matrix(&p, &m, block).unwrap();
        let back = sysds_io::binary::read_matrix(&p).unwrap();
        std::fs::remove_file(&p).ok();
        // binary is exact
        assert!(back.approx_eq(&m, 0.0));
    });
}

#[test]
fn block_encode_decode_exact() {
    check("block_encode_decode_exact", CASES, |g| {
        let rows = g.usize(1..50);
        let cols = g.usize(1..50);
        let sparsity = g.pick(&[1.0f64, 0.08]);
        let seed = g.u64();
        let m = gen::rand_uniform(rows, cols, -1.0, 1.0, sparsity, seed).compact();
        let bytes = sysds_io::binary::encode_matrix(&m);
        let back = sysds_io::binary::decode_matrix(&bytes).unwrap();
        assert!(back.approx_eq(&m, 0.0));
        assert_eq!(back.is_sparse(), m.is_sparse());
    });
}

#[test]
fn metadata_round_trip() {
    check("metadata_round_trip", CASES, |g| {
        let (rows, cols, nnz) = (
            g.usize(0..1_000_000),
            g.usize(0..10_000),
            g.usize(0..100_000),
        );
        let m = sysds_io::Metadata::matrix(rows, cols, nnz, "csv");
        let back = sysds_io::Metadata::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    });
}

fn frame_csv_round_trip(cells: Vec<String>, cols: usize) {
    // pad to a rectangle
    let rows = cells.len().div_ceil(cols);
    let mut padded = cells.clone();
    padded.resize(rows * cols, String::new());
    let mut frame = sysds_frame::Frame::new();
    for j in 0..cols {
        let col: Vec<String> = (0..rows).map(|i| padded[i * cols + j].clone()).collect();
        frame
            .push_column(format!("c{j}"), sysds_frame::FrameColumn::Str(col))
            .unwrap();
    }
    let p = tmpfile("frame", cells.len() as u64 * 31 + cols as u64);
    let desc = FormatDescriptor::csv().with_header(true);
    sysds_io::csv::write_frame(&p, &frame, &desc).unwrap();
    let back = sysds_io::csv::read_frame(&p, &desc).unwrap();
    std::fs::remove_file(&p).ok();
    assert_eq!(back.rows(), frame.rows());
    assert_eq!(back.cols(), frame.cols());
    for i in 0..rows {
        for j in 0..cols {
            assert_eq!(
                back.get(i, j).unwrap().to_display_string(),
                frame.get(i, j).unwrap().to_display_string()
            );
        }
    }
}

#[test]
fn frame_csv_round_trip_strings() {
    check("frame_csv_round_trip_strings", CASES, |g| {
        let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
        let cells = g.vec(1..40, |g| g.string(alphabet, 0..=12));
        frame_csv_round_trip(cells, g.usize(1..4));
    });
}

/// A single empty cell in a one-column frame once failed the round trip.
#[test]
fn frame_csv_round_trip_single_empty_cell() {
    frame_csv_round_trip(vec![String::new()], 1);
}
