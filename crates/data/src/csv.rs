//! Minimal CSV I/O for datasets.
//!
//! Real marketplaces ingest seller tables from files; this module reads and
//! writes the simple numeric-CSV dialect the examples use (comma-separated,
//! optional header, last column is the target). It deliberately does not try
//! to be a general CSV parser — quoting and escaping are out of scope for
//! numeric tables.

use crate::Dataset;
use mbp_linalg::{Matrix, Vector};
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A cell failed to parse as `f64`.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending cell text.
        cell: String,
    },
    /// A row had a different number of columns than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Expected column count.
        expected: usize,
        /// Observed column count.
        got: usize,
    },
    /// The input contained no data rows.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv io error: {e}"),
            CsvError::BadNumber { line, cell } => {
                write!(f, "line {line}: cannot parse {cell:?} as a number")
            }
            CsvError::RaggedRow {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} columns, got {got}")
            }
            CsvError::Empty => write!(f, "csv contained no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Reads a dataset from CSV text: each row is `x₁,…,x_d,y`.
///
/// A first line that fails numeric parsing is treated as a header and
/// skipped; any later non-numeric cell is an error. Blank lines are
/// skipped but still count in error line numbers. The input is read and
/// checked as UTF-8 once (invalid UTF-8 is an `InvalidData` I/O error),
/// and every cell is parsed straight into the feature or target buffer.
pub fn read_dataset<R: Read>(mut reader: R) -> Result<Dataset, CsvError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut data = Vec::new();
    let mut y = Vec::new();
    let mut width: Option<usize> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let got = match parse_row(line, &mut data, &mut y) {
            Ok(got) => got,
            Err(_) if i == 0 => {
                // Header row: a failed row pushed no target, and this is
                // the first row, so the features hold only its cells.
                data.clear();
                continue;
            }
            Err(cell) => {
                return Err(CsvError::BadNumber {
                    line: i + 1,
                    cell: cell.to_string(),
                })
            }
        };
        match width {
            Some(w) if got != w => {
                return Err(CsvError::RaggedRow {
                    line: i + 1,
                    expected: w,
                    got,
                })
            }
            Some(_) => {}
            None => width = Some(got),
        }
    }
    let width = width.ok_or(CsvError::Empty)?;
    if width < 2 {
        return Err(CsvError::RaggedRow {
            line: 1,
            expected: 2,
            got: width,
        });
    }
    let n = y.len();
    Ok(Dataset::new(
        Matrix::from_vec(n, width - 1, data).expect("sized exactly"),
        Vector::from_vec(y),
    ))
}

/// Parses one row's cells onto the ends of `x` (all but the last) and `y`
/// (the last) and returns how many there were, or the first cell that is
/// not a number. A row that fails has pushed nothing onto `y`.
fn parse_row<'a>(line: &'a str, x: &mut Vec<f64>, y: &mut Vec<f64>) -> Result<usize, &'a str> {
    let mut cells = line.split(',').map(str::trim).peekable();
    let mut count = 0;
    while let Some(cell) = cells.next() {
        let v = cell.parse::<f64>().map_err(|_| cell)?;
        if cells.peek().is_some() {
            x.push(v);
        } else {
            y.push(v);
        }
        count += 1;
    }
    Ok(count)
}

/// Reads a dataset from a CSV file on disk.
pub fn read_dataset_path(path: &Path) -> Result<Dataset, CsvError> {
    read_dataset(std::fs::File::open(path)?)
}

/// Writes a dataset as CSV (`x₁,…,x_d,y` per row, header `f0..f{d-1},target`).
pub fn write_dataset<W: Write>(ds: &Dataset, mut writer: W) -> Result<(), CsvError> {
    let header: Vec<String> = (0..ds.d())
        .map(|j| format!("f{j}"))
        .chain(std::iter::once("target".to_string()))
        .collect();
    writeln!(writer, "{}", header.join(","))?;
    for i in 0..ds.n() {
        let (x, y) = ds.example(i);
        let mut line = String::with_capacity(16 * (ds.d() + 1));
        for v in x {
            line.push_str(&format!("{v}"));
            line.push(',');
        }
        line.push_str(&format!("{y}"));
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let ds = Dataset::new(
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            Vector::from_vec(vec![0.5, -0.5]),
        );
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back.x, ds.x);
        assert_eq!(back.y, ds.y);
    }

    #[test]
    fn header_is_skipped() {
        let text = "a,b,y\n1,2,3\n4,5,6\n";
        let ds = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(ds.n(), 2);
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.y.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn bad_number_mid_file_errors() {
        let text = "1,2,3\n4,oops,6\n";
        match read_dataset(text.as_bytes()) {
            Err(CsvError::BadNumber { line: 2, cell }) => assert_eq!(cell, "oops"),
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn ragged_row_errors() {
        let text = "1,2,3\n4,5\n";
        assert!(matches!(
            read_dataset(text.as_bytes()),
            Err(CsvError::RaggedRow {
                line: 2,
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn empty_input_errors() {
        assert!(matches!(read_dataset("".as_bytes()), Err(CsvError::Empty)));
        assert!(matches!(
            read_dataset("just,a,header\n".as_bytes()),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn single_column_rejected() {
        assert!(read_dataset("1\n2\n".as_bytes()).is_err());
    }

    #[test]
    fn crlf_line_endings_parse() {
        let text = "a,b,y\r\n1,2,3\r\n\r\n4,5,6\r\n";
        let ds = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(ds.x.as_slice(), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(ds.y.as_slice(), &[3.0, 6.0]);
        match read_dataset("1,2,3\r\n\r\n4,x,6\r\n".as_bytes()) {
            Err(CsvError::BadNumber { line: 3, cell }) => assert_eq!(cell, "x"),
            other => panic!("expected BadNumber on line 3, got {other:?}"),
        }
    }

    #[test]
    fn last_line_without_newline_parses() {
        let ds = read_dataset("1,2,3\n4,5,6".as_bytes()).unwrap();
        assert_eq!(ds.n(), 2);
        assert_eq!(ds.y.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn invalid_utf8_is_an_invalid_data_io_error() {
        match read_dataset(&b"1,2,3\n4,\xff,6\n"[..]) {
            Err(CsvError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected an InvalidData io error, got {other:?}"),
        }
    }

    #[test]
    fn errors_keep_their_lines_and_cells() {
        // Blank lines count; a header is only ever the first line.
        match read_dataset("\na,b,y\n1,2,3\n".as_bytes()) {
            Err(CsvError::BadNumber { line: 2, cell }) => assert_eq!(cell, "a"),
            other => panic!("expected BadNumber on line 2, got {other:?}"),
        }
        // An empty cell is a bad number; a bad cell outranks a ragged row.
        match read_dataset("1,2,3\n\n4,,6,7\n".as_bytes()) {
            Err(CsvError::BadNumber { line: 3, cell }) => assert_eq!(cell, ""),
            other => panic!("expected BadNumber on line 3, got {other:?}"),
        }
        assert!(matches!(
            read_dataset("x,y\n1,2\n\n3,4,5\n".as_bytes()),
            Err(CsvError::RaggedRow {
                line: 4,
                expected: 2,
                got: 3
            })
        ));
        // A ragged row is reported before a width-1 table is rejected.
        assert!(matches!(
            read_dataset("1\n2,3\n".as_bytes()),
            Err(CsvError::RaggedRow {
                line: 2,
                expected: 1,
                got: 2
            })
        ));
        assert!(matches!(
            read_dataset("1\n2\n".as_bytes()),
            Err(CsvError::RaggedRow {
                line: 1,
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn simulated_roundtrip_is_bit_identical() {
        let mut rng = mbp_randx::seeded_rng(7);
        let ds = crate::synth::simulated1(2000, 90, 0.5, &mut rng);
        let mut buf = Vec::new();
        write_dataset(&ds, &mut buf).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!((back.n(), back.d()), (2000, 90));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.x.as_slice()), bits(ds.x.as_slice()));
        assert_eq!(bits(back.y.as_slice()), bits(ds.y.as_slice()));
    }

    #[test]
    fn blank_lines_ignored() {
        let text = "\n1,2,3\n\n4,5,6\n\n";
        let ds = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(ds.n(), 2);
    }
}
