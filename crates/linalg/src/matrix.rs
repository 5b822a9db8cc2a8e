use crate::{LinalgError, Result, Vector};

/// A dense row-major `f64` matrix.
///
/// Rows are the natural unit in this workspace (a row of the design matrix is
/// one labeled example), so storage is row-major and [`Matrix::row`] is a
/// cheap slice borrow. Shapes are validated on every binary operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major `data`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-producing closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Stacks `rows` (each of equal length) into a matrix.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    left: (i, c),
                    right: (i, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows` (callers iterate `0..rows`).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)` to `v`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Column `j` copied into a new [`Vector`].
    pub fn col(&self, j: usize) -> Result<Vector> {
        if j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: j,
                len: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, j)).collect())
    }

    /// Matrix–vector product `A x`.
    ///
    /// Each row's dot product runs on the four fixed accumulator lanes of
    /// `dot4`; the reduction order is part of the numeric contract (see
    /// `dot4`'s docs), fixed and input-independent, so results are
    /// bit-identical across runs, thread counts, and chunkings.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        Ok((0..self.rows).map(|i| dot4(self.row(i), xs)).collect())
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    pub fn matvec_t(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_t",
                left: (self.cols, self.rows),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            // LINT-ALLOW(float): exact-zero skip exploits input sparsity.
            if xi == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        Ok(Vector::from_vec(out))
    }

    /// Rows per band in [`Matrix::matmul`].
    const MATMUL_ROW_BAND: usize = 64;
    /// Cache block over the shared dimension in [`Matrix::matmul`]: a block
    /// of `B` rows stays hot while every row of the band reuses it.
    const MATMUL_K_BLOCK: usize = 128;

    /// Matrix product `A B`.
    ///
    /// Output rows are computed in fixed bands, each band walking the
    /// shared dimension in cache blocks. Each row's accumulation still
    /// walks `k` in ascending order, so the banding and blocking leave its
    /// bits those of the plain triple loop.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let ocols = other.cols;
        let mut out = Matrix::zeros(self.rows, ocols);
        let band_len = Self::MATMUL_ROW_BAND * ocols.max(1);
        for (ci, band) in out.data.chunks_mut(band_len).enumerate() {
            let band_start = ci * Self::MATMUL_ROW_BAND;
            for kb in (0..self.cols).step_by(Self::MATMUL_K_BLOCK) {
                let kend = (kb + Self::MATMUL_K_BLOCK).min(self.cols);
                // i-k-j order within the block keeps the inner accesses
                // sequential for row-major storage on both operands.
                for (bi, orow) in band.chunks_mut(ocols).enumerate() {
                    let arow = self.row(band_start + bi);
                    for (k, &aik) in arow[..kend].iter().enumerate().skip(kb) {
                        // LINT-ALLOW(float): exact-zero skip exploits input sparsity.
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = other.row(k);
                        for (o, b) in orow.iter_mut().zip(brow) {
                            *o += aik * b;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Rows per band in [`Matrix::gram`]'s banded reduction.
    const GRAM_ROW_BAND: usize = 256;

    /// Minimum per-band work (upper-triangle multiply-adds,
    /// `GRAM_ROW_BAND · d·(d+1)/2`) for [`Matrix::gram`] to sum per band:
    /// with the current band height this requires `d ≥ 139`.
    const GRAM_BAND_GRAIN: usize = 2_500_000;

    /// The Gram matrix `AᵀA` (symmetric positive semidefinite), computed
    /// without materializing `Aᵀ`.
    ///
    /// Wide, tall inputs (at least two row bands, `d ≥ 139`) accumulate one
    /// upper-triangle partial per fixed row band and add the partials into
    /// the result in band order; all others accumulate row by row. The
    /// choice depends only on the shape, so each shape has one summation
    /// order; the banded sum differs from the row-by-row one only by the
    /// band-wise reassociation (bounded by normal f64 summation error).
    /// Inside a band, or over all rows, `gram_add_rows` adds each
    /// entry's row products in ascending row order.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let mut out = Matrix::zeros(d, d);
        if self.gram_is_banded() {
            let mut partial = vec![0.0f64; d * d];
            for start in (0..self.rows).step_by(Self::GRAM_ROW_BAND) {
                partial.fill(0.0);
                self.gram_add_rows(
                    &mut partial,
                    start..(start + Self::GRAM_ROW_BAND).min(self.rows),
                );
                for (o, a) in out.data.iter_mut().zip(&partial) {
                    *o += a;
                }
            }
        } else {
            self.gram_add_rows(&mut out.data, 0..self.rows);
        }
        for j in 0..d {
            for k in (j + 1)..d {
                out.data[k * d + j] = out.data[j * d + k];
            }
        }
        out
    }

    /// Adds `Σ rᵢⱼ·rᵢₖ` over the rows `i` in `rows` into the upper triangle
    /// of `acc` (`d × d`, row-major), skipping every term whose `rᵢⱼ` is an
    /// exact zero.
    ///
    /// Rows go four at a time: each `acc[j·d+j..j·d+d]` slice is loaded once
    /// and gets the four rows' axpys as one left-to-right sum, which is the
    /// same additions in the same ascending-row order as four separate
    /// passes, so the same bits. A column `j` where one of the four `rᵢⱼ`
    /// is zero takes the four per-row axpys instead, each skipping its zero,
    /// as do the last `len % 4` rows.
    fn gram_add_rows(&self, acc: &mut [f64], rows: std::ops::Range<usize>) {
        let d = self.cols;
        let row_axpy = |acc: &mut [f64], row: &[f64], j: usize| {
            let rj = row[j];
            if !is_exact_zero(rj) {
                let base = j * d;
                for (o, &a) in acc[base + j..base + d].iter_mut().zip(&row[j..]) {
                    *o += rj * a;
                }
            }
        };
        let mut i = rows.start;
        while i + 4 <= rows.end {
            let r = [
                self.row(i),
                self.row(i + 1),
                self.row(i + 2),
                self.row(i + 3),
            ];
            for j in 0..d {
                let c = [r[0][j], r[1][j], r[2][j], r[3][j]];
                if c.into_iter().any(is_exact_zero) {
                    for row in r {
                        row_axpy(acc, row, j);
                    }
                    continue;
                }
                let base = j * d;
                let upper = &mut acc[base + j..base + d];
                let (a0, a1, a2, a3) = (&r[0][j..], &r[1][j..], &r[2][j..], &r[3][j..]);
                for ((((o, &x0), &x1), &x2), &x3) in
                    upper.iter_mut().zip(a0).zip(a1).zip(a2).zip(a3)
                {
                    *o = *o + c[0] * x0 + c[1] * x1 + c[2] * x2 + c[3] * x3;
                }
            }
            i += 4;
        }
        for i in i..rows.end {
            let row = self.row(i);
            for j in 0..d {
                row_axpy(acc, row, j);
            }
        }
    }

    /// Whether [`Matrix::gram`] takes the banded path: at least two row
    /// bands, each meeting the per-band work grain. Depends on the shape
    /// only.
    fn gram_is_banded(&self) -> bool {
        let d = self.cols;
        self.rows > Self::GRAM_ROW_BAND
            && Self::GRAM_ROW_BAND * (d * (d + 1)) / 2 >= Self::GRAM_BAND_GRAIN
    }

    /// `tr(AᵀA)` in O(n·d) time and O(d) memory, bit-identical to
    /// `self.gram().trace()` for every shape: each diagonal entry is summed
    /// the way [`Matrix::gram`] sums it (row by row, or per band with the
    /// band partials merged in band order), and the diagonal is then summed
    /// in index order as [`Matrix::trace`] does. `gram` skips exact-zero
    /// entries; adding their `+0.0` square instead leaves every partial
    /// unchanged, because a sum of squares started at `+0.0` is never `-0.0`.
    pub fn gram_trace(&self) -> f64 {
        let d = self.cols;
        let mut diag = vec![0.0f64; d];
        let band = if self.gram_is_banded() {
            Self::GRAM_ROW_BAND
        } else {
            self.rows.max(1)
        };
        let mut partial = vec![0.0f64; d];
        for start in (0..self.rows).step_by(band) {
            partial.fill(0.0);
            for i in start..(start + band).min(self.rows) {
                for (p, &rj) in partial.iter_mut().zip(self.row(i)) {
                    *p += rj * rj;
                }
            }
            for (o, p) in diag.iter_mut().zip(&partial) {
                *o += p;
            }
        }
        diag.into_iter().sum()
    }

    /// Adds `c` to every diagonal entry in place (ridge term `A + c·I`).
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn add_diagonal(&mut self, c: f64) -> Result<()> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        for i in 0..self.rows {
            self.data[i * self.cols + i] += c;
        }
        Ok(())
    }

    /// Sum of the diagonal entries.
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn trace(&self) -> Result<f64> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).sum())
    }

    /// Frobenius norm `√Σ aᵢⱼ²`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `true` when `|aᵢⱼ − aⱼᵢ| ≤ tol` for all entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Immutable view of the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major backing storage, without a copy.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

/// Whether `v` is `+0.0` or `-0.0`: the Gram's sparsity skip.
#[inline]
fn is_exact_zero(v: f64) -> bool {
    // LINT-ALLOW(float): exact-zero skip exploits input sparsity.
    v == 0.0
}

/// Dot product on four fixed accumulator lanes.
///
/// **Reduction-order contract** (part of the numeric API: pinned by
/// `dot4_reduction_order_is_the_documented_tree`): element `t` accumulates
/// into lane `t mod 4` in ascending `t`, the `len % 4` tail elements fold
/// into lanes `0..` in the same rule, and the lanes reduce as
/// `(l0 + l1) + (l2 + l3)`. The order never depends on the data, only on
/// `len`, so every stream is bit-identical across runs, thread counts, and
/// call sites — while the four independent chains let the compiler keep
/// the loop in SIMD lanes instead of one serial add chain.
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    for ((l, &x), &y) in lanes.iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *l += x * y;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = sample();
        let x = Vector::from_vec(vec![1.0, 0.0, -1.0]);
        assert_eq!(a.matvec(&x).unwrap().as_slice(), &[-2.0, -2.0]);
    }

    /// The documented lane tree of [`dot4`], computed by hand with
    /// non-associative probe values: any future reassociation (which would
    /// silently change every matvec stream) flips bits here.
    #[test]
    fn dot4_reduction_order_is_the_documented_tree() {
        let a: Vec<f64> = (0..11)
            .map(|i| 1e16 / (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let b: Vec<f64> = (0..11).map(|i| 1.0 + (i as f64) * 1e-3).collect();
        for len in 0..=a.len() {
            let mut lanes = [0.0f64; 4];
            for (t, (&x, &y)) in a[..len].iter().zip(&b[..len]).enumerate() {
                lanes[t % 4] += x * y;
            }
            let want = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            assert_eq!(
                dot4(&a[..len], &b[..len]).to_bits(),
                want.to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let a = sample();
        let x = Vector::from_vec(vec![1.0, 2.0]);
        let direct = a.matvec_t(&x).unwrap();
        let via_transpose = a.transpose().matvec(&x).unwrap();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matmul_hand_checked() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let a = sample();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, explicit);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn add_diagonal_ridge() {
        let mut g = Matrix::identity(2);
        g.add_diagonal(0.5).unwrap();
        assert_eq!(g.as_slice(), &[1.5, 0.0, 0.0, 1.5]);
        let mut rect = Matrix::zeros(2, 3);
        assert!(matches!(
            rect.add_diagonal(1.0),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn trace_and_frobenius() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.trace().unwrap(), 5.0);
        assert!((a.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn col_extraction() {
        let a = sample();
        assert_eq!(a.col(1).unwrap().as_slice(), &[2.0, 5.0]);
        assert!(a.col(3).is_err());
    }

    #[test]
    fn from_rows_checks_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
    }

    /// A tall matrix with enough rows to trigger the banded parallel paths.
    fn tall(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.37).sin() * 3.0 + 0.1 * j as f64
        })
    }

    /// `gram_trace` must reproduce `gram().trace()` bit for bit on both
    /// sides of the band threshold (300×4 stays row-by-row, 700×160 and
    /// 513×160 are banded, the latter with a one-row last band), with
    /// exact zeros of both signs in the input.
    #[test]
    fn gram_trace_is_bit_identical_to_the_gram_trace() {
        let with_zeros = |rows, cols| {
            let mut m = tall(rows, cols);
            for (k, x) in m.data.iter_mut().enumerate() {
                match k % 7 {
                    0 => *x = 0.0,
                    3 => *x = -0.0,
                    _ => {}
                }
            }
            m
        };
        let shapes = [
            (0, 0),
            (0, 3),
            (3, 0),
            (1, 1),
            (300, 4),
            (700, 160),
            (513, 160),
        ];
        for (rows, cols) in shapes {
            for m in [
                tall(rows, cols),
                with_zeros(rows, cols),
                Matrix::zeros(rows, cols),
            ] {
                let want = m.gram().trace().unwrap();
                assert_eq!(
                    m.gram_trace().to_bits(),
                    want.to_bits(),
                    "{rows}x{cols}: {} vs {want}",
                    m.gram_trace()
                );
            }
        }
        assert!(tall(700, 160).gram_is_banded());
        assert!(!tall(300, 4).gram_is_banded());
    }

    /// The banded Gram (700×160 clears the `d ≥ 139` grain) is exactly
    /// symmetric and differs from the row-by-row product only by the
    /// band-wise reassociation.
    #[test]
    fn banded_gram_is_symmetric_and_close_to_the_plain_product() {
        let a = tall(700, 160);
        assert!(a.gram_is_banded());
        let g = a.gram();
        assert!(g.is_symmetric(0.0));
        let plain = a.transpose().matmul(&a).unwrap();
        for (p, b) in plain.as_slice().iter().zip(g.as_slice()) {
            assert!((p - b).abs() <= 1e-9 * p.abs().max(1.0), "{p} vs {b}");
        }
    }

    /// Below the band grain the Gram sums row by row: the same products in
    /// the same ascending-row order as `Aᵀ·A`, so the same bits.
    #[test]
    fn row_by_row_gram_is_the_plain_product_bit_for_bit() {
        for a in [tall(700, 12), tall(300, 40)] {
            assert!(!a.gram_is_banded());
            let plain = a.transpose().matmul(&a).unwrap();
            assert_eq!(a.gram().as_slice(), plain.as_slice());
        }
    }

    /// The Gram before rows went four at a time, kept as the oracle: one
    /// row-by-row axpy pass over the upper triangle, per band on the
    /// banded path.
    fn row_by_row_gram(m: &Matrix) -> Matrix {
        let d = m.cols;
        let add_rows = |acc: &mut [f64], rows: std::ops::Range<usize>| {
            for i in rows {
                let row = m.row(i);
                for (j, &rj) in row.iter().enumerate() {
                    if is_exact_zero(rj) {
                        continue;
                    }
                    let base = j * d;
                    for (o, &a) in acc[base + j..base + d].iter_mut().zip(&row[j..]) {
                        *o += rj * a;
                    }
                }
            }
        };
        let mut out = Matrix::zeros(d, d);
        if m.gram_is_banded() {
            let mut partial = vec![0.0f64; d * d];
            for start in (0..m.rows).step_by(Matrix::GRAM_ROW_BAND) {
                partial.fill(0.0);
                add_rows(
                    &mut partial,
                    start..(start + Matrix::GRAM_ROW_BAND).min(m.rows),
                );
                for (o, a) in out.data.iter_mut().zip(&partial) {
                    *o += a;
                }
            }
        } else {
            add_rows(&mut out.data, 0..m.rows);
        }
        for j in 0..d {
            for k in (j + 1)..d {
                out.data[k * d + j] = out.data[j * d + k];
            }
        }
        out
    }

    /// `tall` with `0.0`, `-0.0`, `±inf` and NaN planted at seeded spots,
    /// sparse enough that most four-row groups hold one special cell in a
    /// column and some hold several.
    fn planted(rows: usize, cols: usize) -> Matrix {
        let mut m = tall(rows, cols);
        let mut state = (rows * 1_000 + cols) as u64;
        for x in m.data.iter_mut() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *x = match state >> 58 {
                0..=5 => 0.0,
                6..=9 => -0.0,
                10 => f64::INFINITY,
                11 => f64::NEG_INFINITY,
                12 => f64::NAN,
                _ => *x,
            };
        }
        m
    }

    /// Four rows per pass leave every entry's bits those of the row-by-row
    /// loop: every `n mod 4`, widths on both sides of the band threshold
    /// (150 is banded), dense, planted and all-zero inputs. The trace
    /// shortcut still matches the Gram's trace. Rust leaves the sign and
    /// payload of a NaN result unspecified, so a NaN matches any NaN.
    #[test]
    fn four_row_gram_is_the_row_by_row_gram_bit_for_bit() {
        let key = |x: f64| if x.is_nan() { None } else { Some(x.to_bits()) };
        let bits = |m: &Matrix| m.data.iter().map(|&x| key(x)).collect::<Vec<_>>();
        for cols in [1, 7, 90, 150] {
            let base = if cols == 150 { 600 } else { 40 };
            for rows in base..base + 4 {
                for m in [
                    tall(rows, cols),
                    planted(rows, cols),
                    Matrix::zeros(rows, cols),
                ] {
                    assert_eq!(m.gram_is_banded(), cols == 150);
                    let g = m.gram();
                    assert_eq!(bits(&g), bits(&row_by_row_gram(&m)), "{rows}x{cols}");
                    let trace = g.trace().unwrap();
                    assert_eq!(key(m.gram_trace()), key(trace), "{rows}x{cols}");
                }
            }
        }
        // The planted input reaches the skip's edge cases: a zero beside an
        // infinity, whose product the skip never forms.
        let m = planted(43, 7);
        assert!(m.data.iter().any(|x| x.is_nan()));
        assert!(m.data.iter().any(|x| x.is_infinite()));
        assert!(m.gram().data.iter().any(|x| x.is_infinite()));
    }

    /// Row bands and `k` blocks leave each row's ascending-`k` sum intact:
    /// a product spanning several of each equals the textbook triple loop.
    #[test]
    fn blocked_matmul_is_the_triple_loop_bit_for_bit() {
        let (a, b) = (tall(150, 300), tall(300, 25));
        let mut want = vec![0.0; 150 * 25];
        for i in 0..150 {
            for k in 0..300 {
                for j in 0..25 {
                    want[i * 25 + j] += a.get(i, k) * b.get(k, j);
                }
            }
        }
        assert_eq!(a.matmul(&b).unwrap().as_slice(), &want[..]);
    }
}
