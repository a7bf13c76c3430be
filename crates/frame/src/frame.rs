//! The `Frame` container: a 2-D table with a per-column schema.

use sysds_common::{Result, ScalarValue, SysDsError, ValueType};
use sysds_tensor::Matrix;

/// One typed column of a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameColumn {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    Str(Vec<String>),
}

impl FrameColumn {
    /// The column's value type.
    pub fn value_type(&self) -> ValueType {
        match self {
            FrameColumn::F64(_) => ValueType::Fp64,
            FrameColumn::I64(_) => ValueType::Int64,
            FrameColumn::Bool(_) => ValueType::Boolean,
            FrameColumn::Str(_) => ValueType::String,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            FrameColumn::F64(v) => v.len(),
            FrameColumn::I64(v) => v.len(),
            FrameColumn::Bool(v) => v.len(),
            FrameColumn::Str(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell read as a scalar value.
    pub fn get(&self, i: usize) -> ScalarValue {
        match self {
            FrameColumn::F64(v) => ScalarValue::F64(v[i]),
            FrameColumn::I64(v) => ScalarValue::I64(v[i]),
            FrameColumn::Bool(v) => ScalarValue::Bool(v[i]),
            FrameColumn::Str(v) => ScalarValue::Str(v[i].clone()),
        }
    }

    /// Numeric view of the column; strings must parse (empty string and
    /// "NA" map to NaN, the frame-level missing-value marker).
    pub fn as_f64(&self) -> Result<Vec<f64>> {
        Ok(match self {
            FrameColumn::F64(v) => v.clone(),
            FrameColumn::I64(v) => v.iter().map(|&x| x as f64).collect(),
            FrameColumn::Bool(v) => v.iter().map(|&b| f64::from(b)).collect(),
            FrameColumn::Str(v) => {
                let mut out = Vec::with_capacity(v.len());
                for s in v {
                    let t = s.trim();
                    if t.is_empty() || t == "NA" || t == "NaN" {
                        out.push(f64::NAN);
                    } else {
                        out.push(t.parse::<f64>().map_err(|_| {
                            SysDsError::TypeError(format!("cannot convert '{s}' to fp64"))
                        })?);
                    }
                }
                out
            }
        })
    }

    /// String view of the column (always succeeds).
    pub fn as_strings(&self) -> Vec<String> {
        match self {
            FrameColumn::Str(v) => v.clone(),
            FrameColumn::F64(v) => v
                .iter()
                .map(|x| sysds_common::value::format_f64(*x))
                .collect(),
            FrameColumn::I64(v) => v.iter().map(|x| x.to_string()).collect(),
            FrameColumn::Bool(v) => v
                .iter()
                .map(|&b| if b { "TRUE" } else { "FALSE" }.to_string())
                .collect(),
        }
    }
}

/// A 2-D table with named, typed columns (SystemDS `Frame`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<FrameColumn>,
}

impl Frame {
    /// Empty frame.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Build from `(name, column)` pairs; all columns must share length.
    pub fn from_columns(cols: Vec<(String, FrameColumn)>) -> Result<Frame> {
        let mut f = Frame::new();
        for (name, col) in cols {
            f.push_column(name, col)?;
        }
        Ok(f)
    }

    /// Append a column; length must match existing columns.
    pub fn push_column(&mut self, name: impl Into<String>, col: FrameColumn) -> Result<()> {
        if let Some(first) = self.columns.first() {
            if first.len() != col.len() {
                return Err(SysDsError::runtime(format!(
                    "frame column length mismatch: {} vs {}",
                    first.len(),
                    col.len()
                )));
            }
        }
        self.names.push(name.into());
        self.columns.push(col);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, FrameColumn::len)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Per-column schema.
    pub fn schema(&self) -> Vec<ValueType> {
        self.columns.iter().map(FrameColumn::value_type).collect()
    }

    /// Borrow a column by position.
    pub fn column(&self, j: usize) -> Result<&FrameColumn> {
        self.columns
            .get(j)
            .ok_or_else(|| SysDsError::IndexOutOfBounds {
                msg: format!("frame column {j} of {}", self.cols()),
            })
    }

    /// Find a column index by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SysDsError::runtime(format!("unknown frame column '{name}'")))
    }

    /// Borrow a column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&FrameColumn> {
        self.column(self.column_index(name)?)
    }

    /// Cell read.
    pub fn get(&self, i: usize, j: usize) -> Result<ScalarValue> {
        if i >= self.rows() {
            return Err(SysDsError::IndexOutOfBounds {
                msg: format!("frame row {i}"),
            });
        }
        Ok(self.column(j)?.get(i))
    }

    /// Select a subset of rows (by index) into a new frame.
    pub fn select_rows(&self, idx: &[usize]) -> Result<Frame> {
        for &i in idx {
            if i >= self.rows() {
                return Err(SysDsError::IndexOutOfBounds {
                    msg: format!("frame row {i}"),
                });
            }
        }
        let mut out = Frame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            let picked = match col {
                FrameColumn::F64(v) => FrameColumn::F64(idx.iter().map(|&i| v[i]).collect()),
                FrameColumn::I64(v) => FrameColumn::I64(idx.iter().map(|&i| v[i]).collect()),
                FrameColumn::Bool(v) => FrameColumn::Bool(idx.iter().map(|&i| v[i]).collect()),
                FrameColumn::Str(v) => {
                    FrameColumn::Str(idx.iter().map(|&i| v[i].clone()).collect())
                }
            };
            out.push_column(name.clone(), picked)?;
        }
        Ok(out)
    }

    /// Convert every column to numbers, producing a dense [`Matrix`]
    /// (strings must parse; missing values become NaN).
    pub fn to_matrix(&self) -> Result<Matrix> {
        let (rows, cols) = (self.rows(), self.cols());
        let mut data = vec![0.0f64; rows * cols];
        for (j, col) in self.columns.iter().enumerate() {
            let vals = col.as_f64()?;
            for (i, v) in vals.into_iter().enumerate() {
                data[i * cols + j] = v;
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Build a single-schema frame from a matrix (all FP64 columns).
    pub fn from_matrix(m: &Matrix, names: Option<Vec<String>>) -> Result<Frame> {
        let (rows, cols) = m.shape();
        let names = match names {
            Some(n) if n.len() != cols => {
                return Err(SysDsError::runtime("frame name count mismatch"))
            }
            Some(n) => n,
            None => (1..=cols).map(|j| format!("C{j}")).collect(),
        };
        let mut f = Frame::new();
        for (j, name) in names.into_iter().enumerate() {
            let col = (0..rows).map(|i| m.get(i, j)).collect();
            f.push_column(name, FrameColumn::F64(col))?;
        }
        Ok(f)
    }

    /// Detect the tightest value type for each string column and convert
    /// (paper §3.2 "schema alignment"): boolean ⊂ int64 ⊂ fp64 ⊂ string.
    pub fn detect_schema(&self) -> Frame {
        let mut out = Frame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            let converted = match col {
                FrameColumn::Str(v) => detect_column(v),
                other => other.clone(),
            };
            out.push_column(name.clone(), converted)
                .expect("lengths preserved");
        }
        out
    }
}

fn detect_column(v: &[String]) -> FrameColumn {
    let mut all_bool = true;
    let mut all_int = true;
    let mut all_f64 = true;
    for s in v {
        let t = s.trim();
        if t.is_empty() || t == "NA" {
            // Missing values do not constrain the type but rule out
            // bool/int (which have no NaN representation).
            all_bool = false;
            all_int = false;
            continue;
        }
        if !matches!(t, "TRUE" | "FALSE" | "true" | "false") {
            all_bool = false;
        }
        if t.parse::<i64>().is_err() {
            all_int = false;
        }
        if t.parse::<f64>().is_err() {
            all_f64 = false;
        }
    }
    if all_bool {
        FrameColumn::Bool(
            v.iter()
                .map(|s| matches!(s.trim(), "TRUE" | "true"))
                .collect(),
        )
    } else if all_int {
        FrameColumn::I64(v.iter().map(|s| s.trim().parse().unwrap()).collect())
    } else if all_f64 {
        FrameColumn::F64(
            v.iter()
                .map(|s| {
                    let t = s.trim();
                    if t.is_empty() || t == "NA" {
                        f64::NAN
                    } else {
                        t.parse().unwrap()
                    }
                })
                .collect(),
        )
    } else {
        FrameColumn::Str(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::from_columns(vec![
            ("age".into(), FrameColumn::I64(vec![30, 40, 50])),
            ("score".into(), FrameColumn::F64(vec![1.5, 2.5, 3.5])),
            (
                "city".into(),
                FrameColumn::Str(vec!["graz".into(), "wien".into(), "graz".into()]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let f = sample();
        assert_eq!(f.rows(), 3);
        assert_eq!(f.cols(), 3);
        assert_eq!(
            f.schema(),
            vec![ValueType::Int64, ValueType::Fp64, ValueType::String]
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut f = sample();
        assert!(f.push_column("bad", FrameColumn::F64(vec![1.0])).is_err());
    }

    #[test]
    fn column_lookup_by_name() {
        let f = sample();
        assert_eq!(f.column_index("score").unwrap(), 1);
        assert!(f.column_index("missing").is_err());
        assert_eq!(f.column_by_name("age").unwrap().len(), 3);
    }

    #[test]
    fn cell_access() {
        let f = sample();
        assert_eq!(f.get(1, 0).unwrap(), ScalarValue::I64(40));
        assert_eq!(f.get(2, 2).unwrap(), ScalarValue::Str("graz".into()));
        assert!(f.get(3, 0).is_err());
        assert!(f.get(0, 9).is_err());
    }

    #[test]
    fn select_rows_subset() {
        let f = sample();
        let s = f.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 0).unwrap(), ScalarValue::I64(50));
        assert_eq!(s.get(1, 0).unwrap(), ScalarValue::I64(30));
        assert!(f.select_rows(&[5]).is_err());
    }

    #[test]
    fn to_matrix_numeric_columns() {
        let f = Frame::from_columns(vec![
            ("a".into(), FrameColumn::I64(vec![1, 2])),
            ("b".into(), FrameColumn::F64(vec![0.5, 1.5])),
        ])
        .unwrap();
        let m = f.to_matrix().unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.5);
        // string column that is not numeric fails
        assert!(sample().to_matrix().is_err());
    }

    #[test]
    fn matrix_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let f = Frame::from_matrix(&m, None).unwrap();
        assert_eq!(f.names(), &["C1".to_string(), "C2".to_string()]);
        assert!(f.to_matrix().unwrap().approx_eq(&m, 0.0));
        assert!(Frame::from_matrix(&m, Some(vec!["only-one".into()])).is_err());
    }

    #[test]
    fn schema_detection() {
        let f = Frame::from_columns(vec![
            ("i".into(), FrameColumn::Str(vec!["1".into(), "2".into()])),
            ("d".into(), FrameColumn::Str(vec!["1.5".into(), "2".into()])),
            (
                "b".into(),
                FrameColumn::Str(vec!["TRUE".into(), "false".into()]),
            ),
            ("s".into(), FrameColumn::Str(vec!["x".into(), "2".into()])),
            (
                "m".into(),
                FrameColumn::Str(vec!["1.0".into(), "NA".into()]),
            ),
        ])
        .unwrap()
        .detect_schema();
        assert_eq!(
            f.schema(),
            vec![
                ValueType::Int64,
                ValueType::Fp64,
                ValueType::Boolean,
                ValueType::String,
                ValueType::Fp64
            ]
        );
        // missing value became NaN
        let vals = f.column(4).unwrap().as_f64().unwrap();
        assert!(vals[1].is_nan());
    }

    #[test]
    fn missing_string_values_to_nan() {
        let c = FrameColumn::Str(vec!["1.0".into(), "".into(), "NA".into()]);
        let v = c.as_f64().unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan() && v[2].is_nan());
    }
}
