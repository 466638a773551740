//! CSV loading for users running the harnesses on the real UCI datasets.
//!
//! The `repro` harness accepts `--data <path>` to replace the synthetic
//! surrogates with the actual PAMAP / YearPredictionMSD files. The parser
//! is deliberately small: numeric CSV with a configurable delimiter,
//! optional header, rows with missing values (empty fields or `NaN`)
//! skipped — mirroring the paper's preprocessing, which dropped columns
//! containing missing values.

use cma_linalg::Matrix;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

/// Errors from CSV loading.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A data row had a different number of fields than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Fields found on this line.
        found: usize,
        /// Fields expected (from the first data row).
        expected: usize,
    },
    /// A field failed to parse as `f64`.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
    },
    /// The file contained no data rows.
    Empty,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::RaggedRow {
                line,
                found,
                expected,
            } => {
                write!(f, "line {line}: {found} fields, expected {expected}")
            }
            LoadError::BadNumber { line, column } => {
                write!(f, "line {line}, column {column}: not a number")
            }
            LoadError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Options for [`load_csv_matrix`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (`','` for MSD, `' '` for raw PAMAP exports).
    pub delimiter: char,
    /// Number of leading lines to skip (headers).
    pub skip_lines: usize,
    /// Drop rows containing unparsable or empty fields instead of
    /// erroring (the paper's missing-value handling).
    pub skip_invalid_rows: bool,
    /// Keep only these 0-based columns (empty = all). The paper drops
    /// PAMAP's timestamp/label columns this way.
    pub keep_columns: Vec<usize>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            skip_lines: 0,
            skip_invalid_rows: true,
            keep_columns: Vec::new(),
        }
    }
}

/// Loads a numeric CSV file into a row-major [`Matrix`].
///
/// # Errors
/// See [`LoadError`]. With `skip_invalid_rows` set (the default), rows
/// with unparsable fields are silently dropped; ragged rows still error
/// because they indicate a wrong delimiter rather than missing data.
pub fn load_csv_matrix<P: AsRef<Path>>(path: P, opts: &CsvOptions) -> Result<Matrix, LoadError> {
    let file = File::open(path)?;
    load_csv_reader(BufReader::new(file), opts)
}

/// [`load_csv_matrix`] over any reader (unit-testable without files).
///
/// # Errors
/// See [`LoadError`].
pub fn load_csv_reader<R: Read>(reader: R, opts: &CsvOptions) -> Result<Matrix, LoadError> {
    let buf = BufReader::new(reader);
    let mut matrix: Option<Matrix> = None;
    let mut width = 0usize;

    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        if idx < opts.skip_lines || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(opts.delimiter).collect();
        let selected: Vec<&str> = if opts.keep_columns.is_empty() {
            fields.clone()
        } else {
            let mut out = Vec::with_capacity(opts.keep_columns.len());
            for &c in &opts.keep_columns {
                out.push(*fields.get(c).unwrap_or(&""));
            }
            out
        };

        let mut row = Vec::with_capacity(selected.len());
        let mut bad: Option<usize> = None;
        for (col, f) in selected.iter().enumerate() {
            match f.trim().parse::<f64>() {
                Ok(v) if v.is_finite() => row.push(v),
                _ => {
                    bad = Some(col + 1);
                    break;
                }
            }
        }
        if let Some(column) = bad {
            if opts.skip_invalid_rows {
                continue;
            }
            return Err(LoadError::BadNumber {
                line: lineno,
                column,
            });
        }

        match &mut matrix {
            None => {
                width = row.len();
                let mut m = Matrix::with_cols(width);
                m.push_row(&row);
                matrix = Some(m);
            }
            Some(m) => {
                if row.len() != width {
                    return Err(LoadError::RaggedRow {
                        line: lineno,
                        found: row.len(),
                        expected: width,
                    });
                }
                m.push_row(&row);
            }
        }
    }
    matrix.ok_or(LoadError::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv() {
        let data = "1.0,2.0\n3.5,-4.25\n";
        let m = load_csv_reader(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m[(1, 1)], -4.25);
    }

    #[test]
    fn skips_header_lines() {
        let data = "colA,colB\n1,2\n3,4\n";
        let opts = CsvOptions {
            skip_lines: 1,
            ..Default::default()
        };
        let m = load_csv_reader(data.as_bytes(), &opts).unwrap();
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn header_without_skip_is_dropped_as_invalid() {
        // With skip_invalid_rows, a textual header simply fails to parse
        // and is skipped.
        let data = "colA,colB\n1,2\n";
        let m = load_csv_reader(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(m.rows(), 1);
    }

    #[test]
    fn skips_rows_with_missing_values() {
        let data = "1,2\n3,\n5,6\nnan,7\n";
        let m = load_csv_reader(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m[(1, 0)], 5.0);
    }

    #[test]
    fn strict_mode_reports_position() {
        let data = "1,2\n3,x\n";
        let opts = CsvOptions {
            skip_invalid_rows: false,
            ..Default::default()
        };
        match load_csv_reader(data.as_bytes(), &opts) {
            Err(LoadError::BadNumber { line: 2, column: 2 }) => {}
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn ragged_rows_error() {
        let data = "1,2\n3,4,5\n";
        match load_csv_reader(data.as_bytes(), &CsvOptions::default()) {
            Err(LoadError::RaggedRow {
                line: 2,
                found: 3,
                expected: 2,
            }) => {}
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn column_selection() {
        let data = "9,1,2\n9,3,4\n";
        let opts = CsvOptions {
            keep_columns: vec![1, 2],
            ..Default::default()
        };
        let m = load_csv_reader(data.as_bytes(), &opts).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    fn custom_delimiter() {
        let data = "1 2\n3 4\n";
        let opts = CsvOptions {
            delimiter: ' ',
            ..Default::default()
        };
        let m = load_csv_reader(data.as_bytes(), &opts).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn empty_input_errors() {
        match load_csv_reader("".as_bytes(), &CsvOptions::default()) {
            Err(LoadError::Empty) => {}
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn blank_lines_ignored() {
        let data = "1,2\n\n3,4\n\n";
        let m = load_csv_reader(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(m.rows(), 2);
    }
}
