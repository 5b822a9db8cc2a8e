//! Every input of a run, generated from the workload seed: the Simulated1
//! CSV the daemon trains on, the daemon's split seed, each connection's
//! `Hello` seed and request stream, and the seller's valuations.
//!
//! The daemon receives only these files and frames. The same seed always
//! gives the same inputs, so the in-process reference replays in
//! `check.rs` regenerate exactly what was sent.

use std::path::Path;

use mbp_core::market::PurchaseRequest;
use mbp_core::pricing::PricingFunction;
use mbp_core::revenue::BuyerPoint;
use mbp_randx::{Distribution, Normal};

/// Feature width of the generated dataset: YearMSD's width in the
/// paper's Table 3, so noise generation works at a realistic `d`.
pub const DIM: usize = 90;
/// Knots of the daemon's default grid (`--grid 1,129,512`), which the
/// seller's buyer points reuse so every published curve has 512 knots.
pub const GRID_N: usize = 512;
const GRID_LO: f64 = 1.0;
const GRID_HI: f64 = 129.0;

/// SplitMix64: the stream generator for requests and valuations.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed by `(seed, a, b)`.
fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(a.wrapping_mul(0x1000_0001) ^ splitmix64(b)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Writes the seeded Simulated1 dataset (`rows` × [`DIM`] plus target).
pub fn write_csv(path: &Path, seed: u64, rows: usize) -> std::io::Result<()> {
    let mut rng = mbp_randx::seeded_rng(splitmix64(seed ^ 0xC5F));
    let ds = mbp_data::synth::simulated1(rows, DIM, 0.5, &mut rng);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    mbp_data::csv::write_dataset(&ds, &mut file)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    // Write the pages back now, so their writeback does not land inside a
    // timed window.
    file.into_inner()?.sync_all()
}

/// The daemon's `--seed` (its train/test split seed).
pub fn split_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0x5EED) >> 16
}

/// `Hello` seed of connection `conn`.
pub fn hello_seed(seed: u64, conn: usize) -> u64 {
    splitmix64(seed ^ 0x4E11 ^ ((conn as u64) << 32))
}

/// Request `i` of connection `conn`'s stream. Requests cycle through the
/// three purchase modes, each with a value every published curve can
/// satisfy: an NCP inside the grid, a positive error budget (square loss
/// inverts any positive error) and a positive price budget (every curve
/// sells some precision for any positive budget).
pub fn request(seed: u64, conn: usize, i: u64) -> PurchaseRequest {
    let u = unit(seed, conn as u64 + 1, i);
    let x = GRID_LO + (GRID_HI - GRID_LO) * u;
    match i % 3 {
        0 => PurchaseRequest::AtNcp(1.0 / x),
        1 => PurchaseRequest::ErrorBudget(1.0 / x),
        _ => PurchaseRequest::PriceBudget(10.0 * x.sqrt()),
    }
}

/// The daemon's grid: `n` knots evenly spaced over `[1, 129]`, computed
/// exactly as `mbp-market`'s `--grid` parser does.
pub fn grid() -> Vec<f64> {
    (0..GRID_N)
        .map(|i| GRID_LO + (GRID_HI - GRID_LO) * i as f64 / (GRID_N - 1) as f64)
        .collect()
}

/// The curve the daemon publishes at start-up: `10·√x` over [`grid`].
pub fn initial_curve() -> PricingFunction {
    let g = grid();
    let prices = g.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(g, prices).expect("the sqrt curve is valid")
}

/// Buyer points for reprice `k`: valuations `10·√a`, each scaled by
/// `1 + jitter·z` with a seeded standard normal `z` (the relative jitter of
/// the repo's adaptive repricing market, `EpochConfig::valuation_jitter`),
/// then made non-decreasing as the Theorem 10 DP needs.
pub fn buyer_points(seed: u64, k: u64, jitter: f64) -> Vec<BuyerPoint> {
    let mut rng = mbp_randx::seeded_rng(splitmix64(seed ^ 0x7A1 ^ splitmix64(k)));
    let z = Normal::new(0.0, 1.0);
    let mut floor = 0.0f64;
    grid()
        .into_iter()
        .map(|a| {
            let v = 10.0 * a.sqrt() * (1.0 + jitter * z.sample(&mut rng));
            floor = floor.max(v);
            BuyerPoint::new(a, floor, 1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<_> = (0..64).map(|i| request(7, 0, i)).collect();
        let b: Vec<_> = (0..64).map(|i| request(7, 0, i)).collect();
        let c: Vec<_> = (0..64).map(|i| request(8, 0, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(hello_seed(7, 0), hello_seed(7, 1));
    }

    #[test]
    fn buyer_points_are_valid_dp_input() {
        for k in 0..8 {
            let pts = buyer_points(3, k, 0.05);
            assert_eq!(pts.len(), GRID_N);
            assert!(pts.windows(2).all(|w| w[0].valuation <= w[1].valuation));
            let sol = mbp_core::revenue::solve_bv_dp(&pts);
            assert_eq!(sol.pricing.grid(), grid().as_slice());
        }
    }
}
