use crate::{LinalgError, Result};
use std::ops::{Index, IndexMut};

/// An owned dense `f64` vector.
///
/// `Vector` is the common currency between the data, ML, and pricing layers:
/// feature rows, model instances (hypotheses `h ∈ R^d`), gradients, and noise
/// draws are all `Vector`s. Operations that combine two vectors check
/// dimensions and return [`LinalgError::ShapeMismatch`] on disagreement.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector taking ownership of `data`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// The entries, without a copy.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Checked element access.
    pub fn get(&self, i: usize) -> Result<f64> {
        self.data
            .get(i)
            .copied()
            .ok_or(LinalgError::IndexOutOfBounds {
                index: i,
                len: self.data.len(),
            })
    }

    /// Dot product `self · other`.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        self.check_same_len("dot", other)?;
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Squared Euclidean norm, `‖self‖²` — the paper's model-space square
    /// loss is `ε_s(h) = ‖h − h*‖²`, computed through this kernel.
    pub fn norm2_squared(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>()
    }

    /// L1 norm.
    pub fn norm1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum::<f64>()
    }

    /// Maximum absolute entry (L∞ norm); `0.0` for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Elementwise sum, returning a new vector.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len("add", other)?;
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        ))
    }

    /// Elementwise difference `self − other`, returning a new vector.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        self.check_same_len("sub", other)?;
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        ))
    }

    /// Scales every entry by `c`, returning a new vector.
    pub fn scale(&self, c: f64) -> Vector {
        Vector::from_vec(self.data.iter().map(|x| c * x).collect())
    }

    /// In-place `self += alpha * x` (BLAS `axpy`).
    pub fn axpy(&mut self, alpha: f64, x: &Vector) -> Result<()> {
        self.check_same_len("axpy", x)?;
        for (a, b) in self.data.iter_mut().zip(&x.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place scaling `self *= c`.
    pub fn scale_in_place(&mut self, c: f64) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// Applies `f` to every entry, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector::from_vec(self.data.iter().map(|&x| f(x)).collect())
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean; `0.0` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// `true` when every entry is finite (no NaN / ±inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn check_same_len(&self, op: &'static str, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op,
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::from_vec(v)
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn dot_shape_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::ShapeMismatch { op: "dot", .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0, -4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm2_squared(), 25.0);
        assert_eq!(v.norm1(), 7.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = Vector::from_vec(vec![1.0, 1.0]);
        let x = Vector::from_vec(vec![2.0, 3.0]);
        y.axpy(0.5, &x).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Vector::zeros(0).mean(), 0.0);
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn map_and_sum() {
        let v = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.map(|x| x * x).sum(), 14.0);
    }

    #[test]
    fn get_checked() {
        let v = Vector::from_vec(vec![7.0]);
        assert_eq!(v.get(0).unwrap(), 7.0);
        assert!(matches!(
            v.get(1),
            Err(LinalgError::IndexOutOfBounds { index: 1, len: 1 })
        ));
    }

    #[test]
    fn is_finite_detects_nan() {
        let v = Vector::from_vec(vec![1.0, f64::NAN]);
        assert!(!v.is_finite());
        assert!(Vector::zeros(3).is_finite());
    }
}
