//! `.mtd` metadata files.
//!
//! SystemDS stores dimensions, sparsity, and format next to each persisted
//! dataset so the compiler can propagate sizes without reading the data
//! (paper §2.3: size propagation needs dims and sparsity up front). We write
//! a minimal JSON object with a hand-rolled serializer/parser (flat schema,
//! no nesting — no serde needed).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use sysds_common::{Result, SysDsError};

/// Dataset metadata persisted beside the data file.
#[derive(Debug, Clone, PartialEq)]
pub struct Metadata {
    pub rows: usize,
    pub cols: usize,
    pub nnz: Option<usize>,
    /// `"csv"`, `"binary"`, or `"frame-csv"`.
    pub format: String,
    pub header: bool,
}

impl Metadata {
    /// Metadata for a matrix.
    pub fn matrix(rows: usize, cols: usize, nnz: usize, format: &str) -> Metadata {
        Metadata {
            rows,
            cols,
            nnz: Some(nnz),
            format: format.into(),
            header: false,
        }
    }

    /// The sparsity implied by `nnz` (1.0 if unknown).
    pub fn sparsity(&self) -> f64 {
        match self.nnz {
            Some(nnz) if self.rows * self.cols > 0 => nnz as f64 / (self.rows * self.cols) as f64,
            _ => 1.0,
        }
    }

    /// The conventional sidecar path: `<data>.mtd`.
    pub fn sidecar_path(data_path: impl AsRef<Path>) -> PathBuf {
        let mut p = data_path.as_ref().as_os_str().to_owned();
        p.push(".mtd");
        PathBuf::from(p)
    }

    /// Serialize as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        write!(s, "\"rows\": {}, \"cols\": {}", self.rows, self.cols).unwrap();
        if let Some(nnz) = self.nnz {
            write!(s, ", \"nnz\": {nnz}").unwrap();
        }
        write!(
            s,
            ", \"format\": \"{}\", \"header\": {}",
            self.format, self.header
        )
        .unwrap();
        s.push('}');
        s
    }

    /// Parse the JSON produced by [`Metadata::to_json`] (tolerant of key
    /// order and whitespace; flat string/number/bool values only).
    pub fn from_json(text: &str) -> Result<Metadata> {
        let inner = text
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| SysDsError::Format("mtd: expected a JSON object".into()))?;
        let mut rows = None;
        let mut cols = None;
        let mut nnz = None;
        let mut format = None;
        let mut header = false;
        for pair in split_top_level(inner) {
            let (k, v) = pair
                .split_once(':')
                .ok_or_else(|| SysDsError::Format(format!("mtd: malformed pair '{pair}'")))?;
            let key = k.trim().trim_matches('"');
            let value = v.trim();
            match key {
                "rows" => rows = Some(parse_usize(value)?),
                "cols" => cols = Some(parse_usize(value)?),
                "nnz" => nnz = Some(parse_usize(value)?),
                "format" => format = Some(value.trim_matches('"').to_string()),
                "header" => header = value == "true",
                _ => {} // forward compatible: ignore unknown keys
            }
        }
        let rows = rows.ok_or_else(|| SysDsError::Format("mtd: missing rows".into()))?;
        let cols = cols.ok_or_else(|| SysDsError::Format("mtd: missing cols".into()))?;
        if sysds_tensor::checked_cells(rows, cols).is_none() {
            return Err(SysDsError::Format(format!(
                "mtd: matrix shape {rows}x{cols} overflows"
            )));
        }
        Ok(Metadata {
            rows,
            cols,
            nnz,
            format: format.unwrap_or_else(|| "csv".into()),
            header,
        })
    }

    /// Write the sidecar file for `data_path`.
    pub fn save(&self, data_path: impl AsRef<Path>) -> Result<()> {
        let p = Self::sidecar_path(data_path);
        fs::write(&p, self.to_json()).map_err(|e| SysDsError::io(p.display().to_string(), e))
    }

    /// Load the sidecar file for `data_path`, or `None` if absent.
    pub fn load(data_path: impl AsRef<Path>) -> Result<Option<Metadata>> {
        let p = Self::sidecar_path(data_path);
        match fs::read_to_string(&p) {
            Ok(text) => Ok(Some(Metadata::from_json(&text)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SysDsError::io(p.display().to_string(), e)),
        }
    }
}

fn parse_usize(v: &str) -> Result<usize> {
    v.parse()
        .map_err(|_| SysDsError::Format(format!("mtd: expected integer, got '{v}'")))
}

/// Split `a: 1, b: "x,y"` at top-level commas (commas inside quotes kept).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth_quote = false;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '"' => depth_quote = !depth_quote,
            ',' if !depth_quote => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let m = Metadata::matrix(100, 10, 250, "csv");
        let back = Metadata::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn sparsity_from_nnz() {
        let m = Metadata::matrix(10, 10, 25, "csv");
        assert!((m.sparsity() - 0.25).abs() < 1e-12);
        let unknown = Metadata { nnz: None, ..m };
        assert_eq!(unknown.sparsity(), 1.0);
    }

    #[test]
    fn parses_reordered_keys_and_unknowns() {
        let m = Metadata::from_json(
            r#"{ "format": "binary", "cols": 3, "rows": 2, "future_key": 7, "header": true }"#,
        )
        .unwrap();
        assert_eq!(m.rows, 2);
        assert_eq!(m.cols, 3);
        assert_eq!(m.format, "binary");
        assert!(m.header);
        assert_eq!(m.nnz, None);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Metadata::from_json("not json").is_err());
        assert!(Metadata::from_json(r#"{"rows": 2}"#).is_err());
        assert!(Metadata::from_json(r#"{"rows": "x", "cols": 1}"#).is_err());
    }

    /// A sidecar whose `rows * cols` wraps `usize` once panicked size
    /// propagation (`Metadata::sparsity`); it is malformed input.
    #[test]
    fn overflowing_dimensions_rejected() {
        let text = r#"{"rows": 4294967296, "cols": 4294967296, "nnz": 4, "format": "csv"}"#;
        assert!(matches!(
            Metadata::from_json(text),
            Err(SysDsError::Format(_))
        ));
    }

    #[test]
    fn sidecar_save_load() {
        let dir = sysds_common::testing::unique_temp_dir("sysds-io-mtd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join(format!("data-{}.csv", std::process::id()));
        std::fs::write(&data, "1,2\n").unwrap();
        let m = Metadata::matrix(1, 2, 2, "csv");
        m.save(&data).unwrap();
        assert_eq!(Metadata::load(&data).unwrap(), Some(m));
        let missing = dir.join("nonexistent.csv");
        assert_eq!(Metadata::load(missing).unwrap(), None);
    }
}
