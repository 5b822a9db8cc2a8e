//! What the broker keeps of its sales: per model kind, a count and an
//! exact revenue sum. A sale's full record goes only to the durability
//! sink (the write-ahead log, or a [`SaleLog`] a test attaches), so the
//! broker's memory does not grow with its sales; and an exact sum does not
//! depend on the order of its terms, so merging the totals of every
//! `SharedBroker` handle, or replaying the log, gives the live totals to
//! the bit.
//!
//! [`SaleLog`]: crate::market::durability::SaleLog

use mbp_ml::ModelKind;

/// 64-bit words of an [`ExactSum`]: a finite non-negative `f64` is an
/// integer multiple of 2⁻¹⁰⁷⁴ below 2¹⁰²⁴ (2098 bits), and the other 78
/// bits absorb 2⁶⁴ additions of the largest one.
const WORDS: usize = 34;

/// The exact sum of finite non-negative `f64`s, without allocation: one
/// fixed-width integer in units of 2⁻¹⁰⁷⁴, the smallest subnormal. Adding
/// is integer addition, so any order and any split into partial sums give
/// the same sum, and [`ExactSum::rounded`] rounds it once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSum {
    words: [u64; WORDS],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum { words: [0; WORDS] }
    }
}

impl ExactSum {
    /// Adds `x`. Prices are finite and non-negative; for other inputs the
    /// sign is ignored and a NaN or infinity adds an unspecified finite
    /// amount (recovery rejects such records before they get here).
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let biased = (bits >> 52) & 0x7ff;
        let frac = bits & ((1 << 52) - 1);
        // A subnormal is frac · 2⁻¹⁰⁷⁴; a normal is
        // (2⁵² + frac) · 2^(biased − 1075), i.e. shifted by biased − 1.
        let (mantissa, shift) = match biased {
            0 => (frac, 0),
            _ => (frac | (1 << 52), biased - 1),
        };
        let wide = u128::from(mantissa) << (shift % 64);
        // `shift / 64` is at most 31, so both words exist.
        let Some([low, high, rest @ ..]) = self.words.get_mut((shift / 64) as usize..) else {
            return;
        };
        let (sum, c0) = low.overflowing_add(wide as u64);
        *low = sum;
        let (sum, c1) = high.overflowing_add((wide >> 64) as u64 + u64::from(c0));
        *high = sum;
        let mut carry = c1;
        for word in rest {
            if !carry {
                break;
            }
            (*word, carry) = word.overflowing_add(1);
        }
    }

    /// Adds every term of `other`.
    pub fn merge(&mut self, other: &ExactSum) {
        let mut carry = 0;
        for (word, &add) in self.words.iter_mut().zip(&other.words) {
            let sum = u128::from(*word) + u128::from(add) + carry;
            *word = sum as u64;
            carry = sum >> 64;
        }
    }

    /// The sum rounded to the nearest `f64`, ties to even; `+∞` when it
    /// exceeds the largest finite `f64`. The empty sum is `+0.0`.
    pub fn rounded(&self) -> f64 {
        // The top two words (at least words 1 and 0), with any lower bit
        // folded into the last as a sticky bit 64 places below the leading
        // one: the `u128` conversion rounds once, correctly, and the
        // result is normal or exact, so scaling by 2^exp is exact.
        let top = self.words.iter().rposition(|&w| w != 0).unwrap_or(0).max(1);
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        let sticky = self.words.iter().take(top - 1).any(|&w| w != 0);
        let high = (u128::from(word(top)) << 64) | u128::from(word(top - 1)) | u128::from(sticky);
        let exp = 64 * (top as i64 - 1) - 1074;
        let scale = f64::from_bits(match exp {
            -1074 => 1,
            _ => ((exp + 1023) as u64) << 52,
        });
        high as f64 * scale
    }
}

/// Per-kind sale totals — a count and the exact sum of the prices — what
/// a broker, a `SharedBroker` handle or a recovered log keeps of its
/// sales.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalesTotals {
    kinds: [(u64, ExactSum); 3],
}

/// The entry of a per-kind triple that belongs to `kind`.
fn pick<T>([linreg, logreg, svm]: [T; 3], kind: ModelKind) -> T {
    match kind {
        ModelKind::LinearRegression => linreg,
        ModelKind::LogisticRegression => logreg,
        ModelKind::LinearSvm => svm,
    }
}

impl SalesTotals {
    /// Counts one sale of `kind` at `price`.
    pub fn add_sale(&mut self, kind: ModelKind, price: f64) {
        let (count, revenue) = pick(self.kinds.each_mut(), kind);
        *count += 1;
        revenue.add(price);
    }

    /// Adds every sale `other` counts.
    pub fn merge(&mut self, other: &SalesTotals) {
        for ((count, revenue), (n, sum)) in self.kinds.iter_mut().zip(&other.kinds) {
            *count += n;
            revenue.merge(sum);
        }
    }

    /// Sales of `kind`: how many, and their revenue (rounded once).
    pub fn of_kind(&self, kind: ModelKind) -> (u64, f64) {
        let (count, revenue) = pick(self.kinds.each_ref(), kind);
        (*count, revenue.rounded())
    }

    /// Sales of every kind.
    pub fn count(&self) -> u64 {
        self.kinds.iter().map(|(count, _)| count).sum()
    }

    /// Revenue of every kind: the exact sum, rounded once.
    pub fn revenue(&self) -> f64 {
        let mut all = ExactSum::default();
        for (_, revenue) in &self.kinds {
            all.merge(revenue);
        }
        all.rounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(terms: &[f64]) -> ExactSum {
        let mut s = ExactSum::default();
        for &t in terms {
            s.add(t);
        }
        s
    }

    fn sum(terms: &[f64]) -> f64 {
        exact(terms).rounded()
    }

    #[test]
    fn rounds_once_to_nearest_even() {
        let two53 = 9_007_199_254_740_992.0;
        // A naive left fold loses the 1s one at a time; the exact sum
        // rounds 2⁵³ + 2 once.
        assert_eq!(sum(&[two53, 1.0, 1.0]), two53 + 2.0);
        // A tie rounds to even, and a sticky bit below it breaks the tie.
        assert_eq!(sum(&[two53, 1.0]), two53);
        assert_eq!(sum(&[two53, 1.0, 2f64.powi(-60)]), two53 + 2.0);
        assert_eq!(sum(&[0.1, 0.2, 0.3]), 0.6);
        assert_eq!(sum(&[1e308, 1e308]), f64::INFINITY);
        assert_eq!(sum(&[f64::MAX, f64::MAX * 2f64.powi(-54)]), f64::MAX);
    }

    #[test]
    fn carries_ripple_across_words() {
        // 2¹⁹² − 1 units (words 0–2 all ones) in four 53-bit pieces, then
        // one unit more: the carry runs from word 0 into word 3.
        let pow2 = |e: i32| match e {
            ..=-1023 => f64::from_bits(1 << (e + 1074)),
            _ => f64::from_bits(((e + 1023) as u64) << 52),
        };
        let unit = |mantissa: u64, shift: i32| mantissa as f64 * pow2(shift - 1074);
        let pieces = [
            unit((1 << 53) - 1, 0),
            unit((1 << 53) - 1, 53),
            unit((1 << 53) - 1, 106),
            unit((1 << 33) - 1, 159),
        ];
        let last = exact(&[pieces.as_slice(), &[unit(1, 0)]].concat());
        assert_eq!(last, exact(&[&[unit(1, 0)], pieces.as_slice()].concat()));
        assert_eq!(last.rounded(), pow2(192 - 1074));
    }

    #[test]
    fn subnormals_and_zero_are_exact() {
        let tiny = f64::from_bits(1);
        assert_eq!(sum(&[tiny, tiny, tiny]), f64::from_bits(3));
        assert_eq!(sum(&[f64::MIN_POSITIVE, -0.0]), f64::MIN_POSITIVE);
        assert_eq!(sum(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn totals_count_per_kind() {
        let mut a = SalesTotals::default();
        a.add_sale(ModelKind::LinearRegression, 2.5);
        a.add_sale(ModelKind::LinearSvm, 1.0);
        let mut b = SalesTotals::default();
        b.add_sale(ModelKind::LinearRegression, 0.5);
        b.merge(&a);
        assert_eq!(b.count(), 3);
        assert_eq!(b.of_kind(ModelKind::LinearRegression), (2, 3.0));
        assert_eq!(b.of_kind(ModelKind::LogisticRegression), (0, 0.0));
        assert_eq!(b.revenue(), 4.0);
    }
}
