//! Minimal CSV I/O for datasets.
//!
//! Real marketplaces ingest seller tables from files; this module reads and
//! writes the simple numeric-CSV dialect the examples use (comma-separated,
//! optional header, last column is the target). It deliberately does not try
//! to be a general CSV parser — quoting and escaping are out of scope for
//! numeric tables.
//!
//! # Reading
//!
//! [`read_dataset`] streams its input once through one reusable buffer of
//! 256 KiB, which grows only when a single line does not fit. Each
//! read is cut at its last `\n`, the complete lines before the cut are
//! checked as UTF-8 once, and every cell is parsed in place straight into
//! the feature or target buffer.
//!
//! A row whose cells all match `-?[0-9]+(\.[0-9]+)?` — at most 19
//! significant digits and at most 27 fraction digits, each cell ending at
//! `,` or at the end of the line (`\n`, `\r\n`, or the end of the input) —
//! takes the fast path: digits are gathered eight at a time inside one
//! `u64`, and the decimal `w·10^-k` is rounded to the nearest `f64` with
//! the Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
//! Second", 2021). Any other row (exponents, `+`, spaces, more digits,
//! `inf`/`NaN`, empty cells, a header) is parsed again from its start by
//! the general path: the line is trimmed and every trimmed cell goes to
//! `f64::from_str`. Both paths give the same bits, so a value, an error,
//! its line number and its cell text never depend on which path ran.
//!
//! Errors keep one precedence however the input is split into reads: an
//! I/O error from the reader beats invalid UTF-8 anywhere in the input,
//! which beats the first bad cell or ragged row. So after a parse error
//! the reader still reads and checks the rest of the input before it
//! returns.

use crate::Dataset;
use mbp_linalg::{Matrix, Vector};
use std::fmt::{self, Write as _};
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

/// Bytes asked of the reader per call, and the buffer's starting size.
const CHUNK: usize = 256 * 1024;

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
/// skipped but still count in error line numbers. Lines end at `\n`, and
/// a line and each of its cells are trimmed of surrounding whitespace.
///
/// The input is streamed once (see the [module docs](self)): the reader
/// is asked for 256 KiB at a time, and the whole input is never held
/// in memory. Invalid UTF-8 is an `InvalidData` I/O error. It outranks a
/// bad cell or a ragged row even when it comes later in the input; an
/// I/O error from the reader outranks both. With observability on, each
/// call records an `mbp.data.csv.read` span.
pub fn read_dataset<R: Read>(reader: R) -> Result<Dataset, CsvError> {
    let _span = mbp_obs::span("mbp.data.csv.read");
    read_chunked(reader, CHUNK)
}

/// [`read_dataset`] with a starting buffer of `chunk` bytes.
fn read_chunked<R: Read>(mut reader: R, chunk: usize) -> Result<Dataset, CsvError> {
    let mut buf = vec![0u8; chunk];
    // Bytes held in `buf`: never a complete line once a read is handled.
    let mut filled = 0;
    // Input offset of `buf[0]`, for UTF-8 error positions.
    let mut offset = 0;
    let mut rows = Rows::default();
    // The error to return once the input is exhausted: a bad row, or
    // invalid UTF-8 (after which nothing more is checked or parsed).
    let mut pending: Option<CsvError> = None;
    loop {
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let n = match reader.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let fresh = filled;
        filled += n;
        let discard = matches!(pending, Some(CsvError::Io(_)));
        let end = if n == 0 || discard {
            filled
        } else {
            match buf[fresh..filled].iter().rposition(|&b| b == b'\n') {
                Some(i) => fresh + i + 1,
                None => continue,
            }
        };
        if !discard {
            match std::str::from_utf8(&buf[..end]) {
                Err(e) => pending = Some(invalid_utf8(&e, offset)),
                Ok(text) if pending.is_none() => pending = rows.push_lines(text).err(),
                Ok(_) => {}
            }
        }
        buf.copy_within(end..filled, 0);
        filled -= end;
        offset += end;
        if n == 0 {
            return match pending {
                Some(e) => Err(e),
                None => rows.finish(),
            };
        }
    }
}

/// The `InvalidData` error for invalid UTF-8 found `offset` bytes into
/// the input, worded as `str::from_utf8` words it for the whole input.
fn invalid_utf8(e: &std::str::Utf8Error, offset: usize) -> CsvError {
    let at = offset + e.valid_up_to();
    let msg = match e.error_len() {
        Some(len) => format!("invalid utf-8 sequence of {len} bytes from index {at}"),
        None => format!("incomplete utf-8 byte sequence from index {at}"),
    };
    CsvError::Io(std::io::Error::new(ErrorKind::InvalidData, msg))
}

/// The rows parsed so far.
#[derive(Default)]
struct Rows {
    /// Feature cells, row-major.
    x: Vec<f64>,
    /// Target cells.
    y: Vec<f64>,
    /// The first data row's column count.
    width: Option<usize>,
    /// Lines seen so far, blank ones included.
    line: usize,
}

impl Rows {
    /// Parses `text`, whole lines each ending at `\n` (the last one may
    /// also end at the end of the input), and stops at the first bad row.
    fn push_lines(&mut self, text: &str) -> Result<(), CsvError> {
        let bytes = text.as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            self.line += 1;
            let mark = self.x.len();
            let (got, next) = match fast_row(bytes, at, &mut self.x, &mut self.y) {
                Some(row) => row,
                None => {
                    self.x.truncate(mark);
                    let end = text[at..].find('\n').map_or(text.len(), |i| at + i);
                    let line = text[at..end].trim();
                    let next = end + 1;
                    if line.is_empty() {
                        at = next;
                        continue;
                    }
                    match parse_row(line, &mut self.x, &mut self.y) {
                        Ok(got) => (got, next),
                        Err(_) if self.line == 1 => {
                            // Header row: a failed row pushed no target, and
                            // this is the first row, so the features hold
                            // only its cells.
                            self.x.clear();
                            at = next;
                            continue;
                        }
                        Err(cell) => {
                            return Err(CsvError::BadNumber {
                                line: self.line,
                                cell: cell.to_string(),
                            })
                        }
                    }
                }
            };
            match self.width {
                Some(w) if got != w => {
                    return Err(CsvError::RaggedRow {
                        line: self.line,
                        expected: w,
                        got,
                    })
                }
                Some(_) => {}
                None => self.width = Some(got),
            }
            at = next;
        }
        Ok(())
    }

    /// The dataset of every row read, once the input is exhausted.
    fn finish(self) -> Result<Dataset, CsvError> {
        let width = self.width.ok_or(CsvError::Empty)?;
        if width < 2 {
            return Err(CsvError::RaggedRow {
                line: 1,
                expected: 2,
                got: width,
            });
        }
        let n = self.y.len();
        Ok(Dataset::new(
            Matrix::from_vec(n, width - 1, self.x).expect("sized exactly"),
            Vector::from_vec(self.y),
        ))
    }
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

/// [`parse_row`] for the line starting at `s[at]` when every cell is in
/// the fast grammar: returns the cell count and the index just past the
/// line's end. `None` when some cell is not; the row's features may then
/// be partly pushed onto `x`, but nothing is pushed onto `y`.
fn fast_row(s: &[u8], mut at: usize, x: &mut Vec<f64>, y: &mut Vec<f64>) -> Option<(usize, usize)> {
    let mut count = 0;
    loop {
        let (v, end) = fast_cell(s, at)?;
        count += 1;
        let next = match s.get(end) {
            Some(b',') => {
                x.push(v);
                at = end + 1;
                continue;
            }
            None => end,
            Some(b'\n') => end + 1,
            Some(b'\r') if matches!(s.get(end + 1), None | Some(b'\n')) => end + 2,
            Some(_) => return None,
        };
        y.push(v);
        return Some((count, next));
    }
}

/// The number `-?[0-9]+(\.[0-9]+)?` starting at `s[at]` and the index
/// just past it, when it has at most 19 significant digits and at most
/// 27 fraction digits (leading zeros count only toward the latter). The
/// value is bit-identical to `f64::from_str` on the same text.
fn fast_cell(s: &[u8], at: usize) -> Option<(f64, usize)> {
    let neg = s.get(at) == Some(&b'-');
    let start = at + usize::from(neg);
    let (w, int_end) = digits(s, start, 0);
    if int_end == start {
        return None;
    }
    let (w, end) = match s.get(int_end) {
        Some(b'.') => {
            let (w, end) = digits(s, int_end + 1, w);
            if end == int_end + 1 {
                return None;
            }
            (w, end)
        }
        _ => (w, int_end),
    };
    let frac = end.saturating_sub(int_end + 1);
    // Past 19 digits `w` has wrapped, unless the extra ones are leading
    // zeros, which added nothing to it.
    let count = end - start - usize::from(end != int_end);
    if count > 19 {
        let lead = s[start..end]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if count - lead > 19 {
            return None;
        }
    }
    let v = eisel_lemire(w, frac)?;
    Some((if neg { -v } else { v }, end))
}

/// `10^n` for the digits in a partial block.
const POW10: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Gathers the decimal digits starting at `s[at]` onto `w` (wrapping) and
/// returns it with the index of the first non-digit. Eight bytes are
/// loaded at a time: a block of eight digits is added whole, and a block
/// that ends the run adds its leading digits in one step; only the last
/// seven bytes of `s` go one at a time.
fn digits(s: &[u8], mut at: usize, mut w: u64) -> (u64, usize) {
    while let Some(eight) = s.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        let v = u64::from_le_bytes(*eight);
        // Digits become 0..=9; the lowest byte that is not a digit is the
        // lowest byte left with its high bit set (a carry only runs up
        // from a byte that is not a digit).
        let t = v ^ 0x3030_3030_3030_3030;
        let stop = (t.wrapping_add(0x7676_7676_7676_7676) | t) & 0x8080_8080_8080_8080;
        if stop == 0 {
            w = w.wrapping_mul(100_000_000).wrapping_add(eight_digits(v));
            at += 8;
            continue;
        }
        // The first `n` digits, shifted up so that zeros lead them.
        let n = (stop.trailing_zeros() / 8) as usize;
        let head = (t << 8) << (56 - 8 * n);
        w = w
            .wrapping_mul(POW10[n])
            .wrapping_add(eight_digits(head | 0x3030_3030_3030_3030));
        return (w, at + n);
    }
    while let Some(d) = s.get(at).map(|b| b.wrapping_sub(b'0')).filter(|d| *d < 10) {
        w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        at += 1;
    }
    (w, at)
}

/// The value of eight ASCII digits loaded little-endian (first digit in
/// the low byte): adjacent digits, then pairs, then quads are combined
/// by multiply-and-shift inside the one word.
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = v - 0x3030_3030_3030_3030;
    let v = v.wrapping_mul(10) + (v >> 8);
    ((v & MASK)
        .wrapping_mul(MUL1)
        .wrapping_add(((v >> 16) & MASK).wrapping_mul(MUL2)))
        >> 32
}

/// `5^-k` for `k` in `0..=27`, as the high and low words of the 128-bit
/// value `⌊2^b / 5^k⌋ + 1` with `b` chosen to set bit 127 (exactly
/// `2^127` for `k = 0`). Inside this range one 128-bit product decides
/// every rounding (Lemire 2021, §7), so no slower fallback is needed.
const POW5_NEG: [(u64, u64); 28] = [
    (0x8000_0000_0000_0000, 0x0000_0000_0000_0000),
    (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd),
    (0xa3d7_0a3d_70a3_d70a, 0x3d70_a3d7_0a3d_70a4),
    (0x8312_6e97_8d4f_df3b, 0x645a_1cac_0831_26ea),
    (0xd1b7_1758_e219_652b, 0xd3c3_6113_404e_a4a9),
    (0xa7c5_ac47_1b47_8423, 0x0fcf_80dc_3372_1d54),
    (0x8637_bd05_af6c_69b5, 0xa63f_9a49_c2c1_b110),
    (0xd6bf_94d5_e57a_42bc, 0x3d32_9076_0469_1b4d),
    (0xabcc_7711_8461_cefc, 0xfdc2_0d2b_36ba_7c3e),
    (0x8970_5f41_36b4_a597, 0x3168_0a88_f895_3031),
    (0xdbe6_fece_bded_d5be, 0xb573_440e_5a88_4d1c),
    (0xafeb_ff0b_cb24_aafe, 0xf78f_69a5_1539_d749),
    (0x8cbc_cc09_6f50_88cb, 0xf93f_87b7_442e_45d4),
    (0xe12e_1342_4bb4_0e13, 0x2865_a5f2_06b0_6fba),
    (0xb424_dc35_095c_d80f, 0x5384_84c1_9ef3_8c95),
    (0x901d_7cf7_3ab0_acd9, 0x0f9d_3701_4bf6_0a11),
    (0xe695_94be_c44d_e15b, 0x4c2e_be68_7989_a9b4),
    (0xb877_aa32_36a4_b449, 0x09be_feb9_fad4_87c3),
    (0x9392_ee8e_921d_5d07, 0x3aff_322e_6243_9fd0),
    (0xec1e_4a7d_b695_61a5, 0x2b31_e9e3_d06c_32e6),
    (0xbce5_0864_9211_1aea, 0x88f4_bb1c_a6bc_f585),
    (0x971d_a050_74da_7bee, 0xd3f6_fc16_ebca_5e04),
    (0xf1c9_0080_baf7_2cb1, 0x5324_c68b_12dd_6339),
    (0xc16d_9a00_9592_8a27, 0x75b7_053c_0f17_8294),
    (0x9abe_14cd_4475_3b52, 0xc492_6a96_7279_3543),
    (0xf796_87ae_d3ee_c551, 0x3a83_ddbd_83f5_2205),
    (0xc612_0625_7658_9dda, 0x9536_4afe_032a_819e),
    (0x9e74_d1b7_91e0_7e48, 0x775e_a264_cf55_347e),
];

/// The `f64` nearest `w · 10^-k` (ties to even), for `k` in the range of
/// [`POW5_NEG`]; `None` for larger `k`. Nonzero such values lie in
/// `[1e-27, 1e20)`, far from subnormals and infinity.
fn eisel_lemire(w: u64, k: usize) -> Option<f64> {
    let &(hi5, lo5) = POW5_NEG.get(k)?;
    if w == 0 {
        return Some(0.0);
    }
    let q = -(k as i64);
    let lz = w.leading_zeros();
    let w = w << lz;
    // The top 64 bits of `w · 5^q` (with `5^q` scaled to 128 bits); the
    // low word of the 5-power only matters when the 9 bits below the 55
    // the rounding needs are all ones.
    let first = u128::from(w) * u128::from(hi5);
    let (mut hi, mut lo) = ((first >> 64) as u64, first as u64);
    if hi & 0x1FF == 0x1FF {
        let second = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second);
        if second > lo {
            hi += 1;
        }
    }
    let upper = hi >> 63;
    let shift = upper + 9;
    let mut mantissa = hi >> shift;
    // ⌊log2(10^q)⌋ + 63, then the binary exponent biased by 1023.
    let mut exp = (((152_170 + 65_536) * q) >> 16) + 63 + 1023 + upper as i64 - i64::from(lz);
    // Exactly halfway between two floats (possible only for q ≥ -4):
    // round down to the even one instead of up.
    if lo <= 1 && q >= -4 && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exp += 1;
    }
    let exp = u64::try_from(exp).ok()?;
    Some(f64::from_bits((mantissa & !(1 << 52)) | exp << 52))
}

/// Reads a dataset from a CSV file on disk.
pub fn read_dataset_path(path: &Path) -> Result<Dataset, CsvError> {
    read_dataset(std::fs::File::open(path)?)
}

/// Writes a dataset as CSV (`x₁,…,x_d,y` per row, header `f0..f{d-1},target`).
/// Each row is formatted into one reused line buffer and written whole.
pub fn write_dataset<W: Write>(ds: &Dataset, mut writer: W) -> Result<(), CsvError> {
    let header: Vec<String> = (0..ds.d())
        .map(|j| format!("f{j}"))
        .chain(std::iter::once("target".to_string()))
        .collect();
    writeln!(writer, "{}", header.join(","))?;
    let mut line = String::with_capacity(16 * (ds.d() + 1));
    for i in 0..ds.n() {
        let (x, y) = ds.example(i);
        line.clear();
        for v in x {
            let _ = write!(line, "{v},");
        }
        let _ = writeln!(line, "{y}");
        writer.write_all(line.as_bytes())?;
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

    /// The reader before streaming, kept as the oracle: whole input, one
    /// UTF-8 check, `lines()`, `trim`, `parse_row`.
    fn oracle(bytes: &[u8]) -> Result<Dataset, CsvError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        let mut rows = Rows::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let got = match parse_row(line, &mut rows.x, &mut rows.y) {
                Ok(got) => got,
                Err(_) if i == 0 => {
                    rows.x.clear();
                    continue;
                }
                Err(cell) => {
                    return Err(CsvError::BadNumber {
                        line: i + 1,
                        cell: cell.to_string(),
                    })
                }
            };
            match rows.width {
                Some(w) if got != w => {
                    return Err(CsvError::RaggedRow {
                        line: i + 1,
                        expected: w,
                        got,
                    })
                }
                Some(_) => {}
                None => rows.width = Some(got),
            }
        }
        rows.finish()
    }

    /// A read's outcome as comparable text: shape and bits, or the error.
    fn outcome(r: Result<Dataset, CsvError>) -> String {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match r {
            Ok(ds) => format!(
                "{}x{} {:?} {:?}",
                ds.n(),
                ds.d(),
                bits(ds.x.as_slice()),
                bits(ds.y.as_slice())
            ),
            Err(CsvError::Io(e)) => format!("io {:?}: {e}", e.kind()),
            Err(e) => format!("{e:?}"),
        }
    }

    /// Hands out its bytes 1–7 at a time in a seeded pattern, and fails
    /// some calls with `Interrupted` first.
    struct Trickle<'a> {
        rest: &'a [u8],
        state: u64,
    }

    impl<'a> Trickle<'a> {
        fn new(rest: &'a [u8], seed: u64) -> Self {
            Trickle { rest, state: seed }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if self.state >> 60 == 0 {
                return Err(ErrorKind::Interrupted.into());
            }
            let n = (1 + (self.state >> 33) as usize % 7)
                .min(out.len())
                .min(self.rest.len());
            out[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// A reader that always fails.
    struct Broken;

    impl Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    /// Asserts that `input` reads like the oracle in one shot and when
    /// trickled through buffers of several sizes, and returns the outcome.
    fn same_every_way(input: &[u8]) -> String {
        let want = outcome(oracle(input));
        assert_eq!(outcome(read_dataset(input)), want, "one shot: {input:?}");
        for (seed, chunk) in [1, 2, 3, 7, 16, 64, CHUNK].into_iter().enumerate() {
            let got = outcome(read_chunked(Trickle::new(input, seed as u64), chunk));
            assert_eq!(got, want, "chunk {chunk}: {input:?}");
        }
        want
    }

    #[test]
    fn streaming_matches_one_shot_and_the_old_reader() {
        let cases: &[&[u8]] = &[
            b"a,b,y\n1,2,3\n4,5,6\n",
            b"\n\n1,2,3\n\n4,5,6\n\n",
            b"a,b,y\r\n1,2,3\r\n\r\n4,5,6\r\n",
            b"1,2,3\r\n4,x,6\r\n",
            b"1,2,3\r\n\r\n4,5\r\n",
            b"1,2,3\n4,5,6,7\n8,9\n",
            b"",
            b"\n\n",
            b"just,a,header\n",
            b" \t \r\n\t\n",
            b"1\n2\n",
            b"1\n2,3\n",
            b"1,2,3\n4,5,6",
            b"1,2,3\r",
            b"1,2,3\n4,5,6\r\r\n",
            b" 1 , 2 ,3 \n4,5,6\t\n",
            b"1e3,+2,inf\nNaN,-0,.5\n-.25,1.,-inf\n",
            b"0.1,-0.000,00012.5000\n-0,0,9007199254740993\n",
            b"1,2,\n",
            b"1,,3\n",
            "1,2,3\n\u{a0}4,5,6\u{2003}\n".as_bytes(),
            "x,y\n1,\u{e9}\n".as_bytes(),
            b"1,2,3\n4,\xff,6\n",
            b"1,2,3\n4,5,\xe2\x82",
            b"1,2,3\n4,x,6\n7,8,9\n\xc3(\n",
            b"\xef\xbb\xbf1,2\n",
        ];
        for case in cases {
            same_every_way(case);
        }
        assert_eq!(
            same_every_way(b"a,b,y\r\n1,2,3\r\n\r\n4,5,6\r\n"),
            same_every_way(b"1,2,3\n4,5,6")
        );
    }

    #[test]
    fn a_row_longer_than_the_buffer_is_read_whole() {
        let cells = CHUNK / 4;
        let row = vec!["0.125"; cells].join(",");
        let text = format!("{row}\n{row}\n");
        assert!(row.len() > CHUNK);
        let ds = read_dataset(text.as_bytes()).unwrap();
        assert_eq!((ds.n(), ds.d()), (2, cells - 1));
        assert!(ds
            .x
            .as_slice()
            .iter()
            .all(|&v| v.to_bits() == 0.125f64.to_bits()));
        same_every_way(text.as_bytes());
    }

    #[test]
    fn later_invalid_utf8_and_io_errors_outrank_an_earlier_bad_row() {
        // Past the first full-size read, so the invalid byte arrives in a
        // later chunk than the bad row.
        let good = "1.5,-2.25,3\n".repeat(CHUNK / 12);
        let input = |head: &str, tail: &[u8]| {
            let mut v = format!("{head}{good}{good}").into_bytes();
            v.extend_from_slice(tail);
            v
        };
        for head in ["1,2,3\n4,x,6\n", "1,2,3\n4,5\n"] {
            let bad = same_every_way(&input(head, b"7,\xff,9\n1,2,3\n"));
            assert!(bad.starts_with("io InvalidData: invalid utf-8"), "{bad}");
            // Without the invalid byte, the bad row is what is reported.
            let row = same_every_way(&input(head, b""));
            assert_eq!(row, outcome(oracle(head.as_bytes())));
        }
        // A failing reader outranks both, as a whole-input read would.
        for input in [&b"1,2,3\n4,x,6\n"[..], b"1,2,3\n\xff\n", b"1,2,3\n"] {
            for chunk in [4, CHUNK] {
                match read_chunked(Trickle::new(input, 9).chain(Broken), chunk) {
                    Err(CsvError::Io(e)) => assert_eq!(e.kind(), ErrorKind::Other),
                    other => panic!("expected the reader's error, got {other:?}"),
                }
            }
        }
    }

    /// `fast_cell` on a whole string: the value when the fast path takes
    /// it and the string holds nothing else.
    fn fast_number(s: &str) -> Option<f64> {
        fast_cell(s.as_bytes(), 0)
            .filter(|&(_, end)| end == s.len())
            .map(|(v, _)| v)
    }

    /// The fast grammar, checked without the parser's code.
    fn in_fast_grammar(s: &str) -> bool {
        let body = s.strip_prefix('-').unwrap_or(s);
        let all_digits = |t: &str| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit());
        let (int, frac) = match body.split_once('.') {
            Some((int, frac)) if all_digits(frac) => (int, frac),
            Some(_) => return false,
            None => (body, ""),
        };
        let significant = format!("{int}{frac}").trim_start_matches('0').len();
        all_digits(int) && significant <= 19 && frac.len() <= 27
    }

    /// One random decimal digit string of `len` digits, no leading zero.
    fn digit_string(rng: &mut mbp_randx::MbpRng, len: usize) -> String {
        use rand::Rng;
        (0..len)
            .map(|i| char::from(b'0' + rng.gen_range(u8::from(i == 0)..10)))
            .collect()
    }

    #[test]
    fn fast_number_path_matches_std_bit_for_bit() {
        use rand::Rng;
        let mut rng = mbp_randx::seeded_rng(11408);
        let mut seen = 0usize;
        // Checks one string; returns whether the fast path took it.
        let mut check = |s: &str| {
            seen += 1;
            let fast = fast_number(s);
            assert_eq!(fast.is_some(), in_fast_grammar(s), "grammar of {s:?}");
            if let Some(v) = fast {
                let want = s
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("std rejects {s:?}"));
                assert_eq!(v.to_bits(), want.to_bits(), "{s:?}");
            }
            fast.is_some()
        };
        let mut taken = [0usize; 7];
        for _ in 0..200_000 {
            // Shortest forms: random bit patterns, uniform [-2, 2), and
            // uniform values scaled by 1e-12.
            let bits = f64::from_bits(rng.gen::<u64>());
            let uniform = rng.gen::<f64>() * 4.0 - 2.0;
            let tiny = uniform * 1e-12;
            let forms = [format!("{bits}"), format!("{uniform}"), format!("{tiny}")];
            for (k, s) in forms.iter().enumerate() {
                taken[k] += usize::from(check(s));
            }
            // Digit-truncated prefixes of those.
            let s = &forms[rng.gen_range(0..3)];
            let cut = rng.gen_range(1..s.len() + 1);
            taken[3] += usize::from(check(&s[..cut]));
            // 19- and 20-digit mantissas with the point anywhere.
            let len = rng.gen_range(19..21);
            let mut s = digit_string(&mut rng, len);
            let point = rng.gen_range(0..len + 1);
            if point < len {
                s.insert(point.max(1), '.');
            }
            if rng.gen::<bool>() {
                s.insert(0, '-');
            }
            taken[4] += usize::from(check(&s));
        }
        for _ in 0..100_000 {
            // Leading zeros before and after the point.
            let zeros = "0".repeat(rng.gen_range(1..12));
            let len = rng.gen_range(1..19);
            let digits = digit_string(&mut rng, len);
            let s = if rng.gen::<bool>() {
                format!("{zeros}{digits}")
            } else {
                format!("0.{zeros}{digits}")
            };
            taken[5] += usize::from(check(&s));
            // Halfway between two floats: m + j/2^k with j odd, k ≤ 4.
            // In [2^(53-k), 2^(54-k)) floats are 2^(1-k) apart, so an odd
            // multiple of 2^-k is a tie.
            let k = rng.gen_range(0..5u32);
            let m = rng.gen_range(1u64 << (53 - k)..1 << (54 - k));
            let s = if k == 0 {
                format!("{}", m | 1)
            } else {
                let j = 2 * rng.gen_range(0..1u32 << (k - 1)) + 1;
                let frac = format!("{}", f64::from(j) / f64::from(1u32 << k));
                format!("{m}{}", &frac[1..])
            };
            taken[6] += usize::from(check(&s));
        }
        let fixed = [
            "0",
            "-0",
            "0.0",
            "-0.000",
            "000",
            "9007199254740993",
            "9007199254740995",
            "4503599627370496.5",
            "4503599627370497.5",
            "9999999999999999999",
            "0.000000000000000000000000001",
            "0.0000000000000000000000000001",
            "1.7976931348623157",
            "2.2250738585072014",
            "0.30000000000000004",
        ];
        for s in fixed {
            check(s);
        }
        assert!(seen >= 1_000_000, "{seen} strings");
        // The fast path must carry what it is for, not fall back quietly.
        assert!(taken[1] > 199_000 && taken[6] > 80_000, "{taken:?}");
        assert!(taken.iter().all(|&t| t > 0), "{taken:?}");
    }

    #[test]
    fn pow5_table_matches_long_division() {
        for (k, &(hi, lo)) in POW5_NEG.iter().enumerate() {
            let d = 5u64.pow(u32::try_from(k).unwrap());
            let want = if k == 0 {
                1u128 << 127
            } else {
                // ⌊2^b / 5^k⌋ + 1, b = 127 + the bit length of 5^k, one
                // quotient bit at a time.
                let b = 127 + (64 - d.leading_zeros());
                let (mut quotient, mut rem) = (0u128, 0u128);
                for bit in (0..=b).rev() {
                    rem = 2 * rem + u128::from(bit == b);
                    quotient <<= 1;
                    if rem >= u128::from(d) {
                        rem -= u128::from(d);
                        quotient |= 1;
                    }
                }
                quotient + 1
            };
            assert_eq!((hi, lo), ((want >> 64) as u64, want as u64), "5^-{k}");
            assert!(hi >> 63 == 1, "5^-{k} is normalized");
        }
    }

    #[test]
    fn random_tables_read_like_the_old_reader() {
        use rand::Rng;
        let mut rng = mbp_randx::seeded_rng(19);
        let odd = [
            "1e-3",
            "+4",
            " 2.5",
            "-.5",
            "7.",
            "inf",
            "NaN",
            "1E400",
            "12345678901234567890",
            "0.0000000000000000000000000000001",
        ];
        for _ in 0..40 {
            let width = rng.gen_range(2..6);
            let mut text = String::new();
            for _ in 0..rng.gen_range(1..40) {
                let cells: Vec<String> = (0..width)
                    .map(|_| match rng.gen_range(0..20) {
                        0 => odd[rng.gen_range(0..odd.len())].to_string(),
                        1 => format!("{}", f64::from_bits(rng.gen::<u64>())),
                        _ => format!("{}", rng.gen::<f64>() * 200.0 - 100.0),
                    })
                    .collect();
                text.push_str(&cells.join(","));
                text.push_str(if rng.gen::<bool>() { "\n" } else { "\r\n" });
            }
            same_every_way(text.as_bytes());
        }
    }
}
