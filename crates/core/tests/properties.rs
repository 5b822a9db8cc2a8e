//! Property-based tests for the pricing core: Proposition 1 evaluation,
//! budget inversion, DP feasibility/optimality structure, and baseline
//! well-behavedness on random instances.

use mbp_core::arbitrage::audit;
use mbp_core::error::{DeltaMethodTransform, ErrorTransform, SquareLossTransform};
use mbp_core::market::ExactSum;
use mbp_core::pricing::{PhiMemo, PricingFunction};
use mbp_core::revenue::{affordability, revenue, solve_bv_dp, Baseline, BuyerPoint};
use mbp_core::SegmentIndex;
use mbp_optim::isotonic::is_relaxed_feasible;
use proptest::prelude::*;

/// Random ascending positive grid + arbitrary non-negative prices.
fn grid_and_prices() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    prop::collection::vec((0.3..3.0f64, 0.0..50.0f64), 1..12).prop_map(|raw| {
        let mut a = 0.0;
        let mut grid = Vec::with_capacity(raw.len());
        let mut prices = Vec::with_capacity(raw.len());
        for (gap, p) in raw {
            a += gap;
            grid.push(a);
            prices.push(p);
        }
        (grid, prices)
    })
}

/// Adversarial strictly-ascending key sets for the segment index: exact
/// uniform lattices (compiled to the grid layout), uniform lattices with
/// sub- and super-tolerance jitter (straddling the grid-eligibility
/// boundary), and irregular gaps spanning six orders of magnitude
/// (answered by `partition_point`).
fn adversarial_keys() -> impl Strategy<Value = Vec<f64>> {
    (
        0u32..3,
        prop::collection::vec((0u32..7, 1.0..10.0f64), 1..48),
        (1.0..100.0f64, 0.01..10.0f64),
        -12i32..-6,
    )
        .prop_map(|(mode, raw, (x0, h), mag)| match mode {
            // Irregular gaps spanning six orders of magnitude → partition_point.
            0 => {
                let mut a = 0.0;
                raw.iter()
                    .map(|&(g, m)| {
                        a += m * 10f64.powi(g as i32 - 3);
                        a
                    })
                    .collect()
            }
            // Exact uniform lattice → grid layout.
            1 => (0..raw.len()).map(|i| x0 + i as f64 * h).collect(),
            // Uniform lattice with alternating jitter around the
            // grid-eligibility tolerance (1e-9·h): sub-tolerance stays on
            // the grid, super-tolerance falls back to partition_point.
            _ => {
                let eps = h * 10f64.powi(mag);
                (0..raw.len())
                    .map(|i| x0 + i as f64 * h + if i % 2 == 0 { eps } else { -eps })
                    .collect()
            }
        })
}

/// Random monotone-valuation buyer instance.
fn buyer_instance() -> impl Strategy<Value = Vec<BuyerPoint>> {
    prop::collection::vec((0.5..4.0f64, 0.0..25.0f64, 0.05..2.0f64), 1..10).prop_map(|raw| {
        let mut a = 0.0;
        let mut v = 0.0;
        raw.into_iter()
            .map(|(gap, dv, b)| {
                a += gap;
                v += dv;
                BuyerPoint::new(a, v, b)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 1 evaluation: the curve interpolates its grid points
    /// exactly, is continuous at the knots, rides the origin ray below the
    /// grid, and saturates above it.
    #[test]
    fn pricing_evaluation_interpolates((grid, prices) in grid_and_prices()) {
        let pf = PricingFunction::from_points(grid.clone(), prices.clone()).unwrap();
        for (x, p) in grid.iter().zip(&prices) {
            prop_assert!((pf.price_at(*x) - p).abs() < 1e-9);
            // Knot continuity from both sides.
            prop_assert!((pf.price_at(x * (1.0 + 1e-9)) - p).abs() < 1e-5);
            prop_assert!((pf.price_at(x * (1.0 - 1e-9)) - p).abs() < 1e-5);
        }
        prop_assert_eq!(pf.price_at(0.0), 0.0);
        let tail = grid.last().unwrap() * 10.0;
        prop_assert!((pf.price_at(tail) - prices.last().unwrap()).abs() < 1e-12);
        // Origin ray is proportional (only meaningful with >1 knot; the
        // single-knot constant curve is flat by construction).
        if grid.len() > 1 {
            let x0 = grid[0] * 0.5;
            prop_assert!((pf.price_at(x0) - prices[0] * 0.5).abs() < 1e-9);
        }
    }

    /// The compiled segment index is an exact drop-in for the branchy
    /// binary search: on every key layout — grid-eligible lattices,
    /// boundary-jittered lattices, and wildly irregular gaps — both
    /// `upper_bound` and `lower_bound` return bit-for-bit the same index
    /// as `slice::partition_point`, including on knot hits, one-ULP
    /// neighbors of knots, out-of-range probes, infinities, and NaN.
    #[test]
    fn segment_index_matches_partition_point(
        keys in adversarial_keys(),
        probes in prop::collection::vec(0.0..1.0f64, 0..24),
    ) {
        let idx = SegmentIndex::new(&keys);
        let lo = keys[0];
        let hi = *keys.last().unwrap();
        let span = (hi - lo).max(1.0);
        let mut xs = vec![
            lo - 0.5 * span,
            hi + 0.5 * span,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            0.0,
        ];
        for &k in &keys {
            xs.extend([k, k.next_down(), k.next_up()]);
        }
        for t in probes {
            xs.push(lo - 0.1 * span + 1.2 * span * t);
        }
        for x in xs {
            prop_assert_eq!(
                idx.upper_bound(&keys, x),
                keys.partition_point(|&k| k <= x),
                "upper_bound diverged at x={} (grid: {})", x, idx.is_grid()
            );
            prop_assert_eq!(
                idx.lower_bound(&keys, x),
                keys.partition_point(|&k| k < x),
                "lower_bound diverged at x={} (grid: {})", x, idx.is_grid()
            );
        }
    }

    /// Budget inversion round-trips on monotone curves: buying at the
    /// returned precision costs at most the budget, and any meaningfully
    /// higher precision costs strictly more.
    #[test]
    fn budget_inversion_is_tight((grid, mut prices) in grid_and_prices(), budget in 0.5..60.0f64) {
        // Make the curve strictly increasing so inversion is unambiguous.
        prices.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, p) in prices.iter_mut().enumerate() {
            *p += 0.25 * (i as f64 + 1.0);
        }
        let pf = PricingFunction::from_points(grid.clone(), prices).unwrap();
        match pf.max_precision_for_budget(budget) {
            None => prop_assert!(budget < pf.price_at(grid[0] * 1e-6) + 1e-9 || pf.prices()[0] > budget),
            Some(x) if x.is_infinite() => prop_assert!(budget >= pf.max_price() - 1e-9),
            Some(x) => {
                prop_assert!(pf.price_at(x) <= budget + 1e-6);
                let probe = (x * 1.01).min(grid.last().unwrap() * 2.0);
                if probe > x && probe <= *grid.last().unwrap() {
                    prop_assert!(pf.price_at(probe) >= budget - 1e-6);
                }
            }
        }
    }

    /// The DP always emits relaxed-feasible (hence arbitrage-free) prices
    /// that never exceed valuations at served points, and its revenue
    /// evaluation is consistent.
    #[test]
    fn dp_output_always_well_behaved(points in buyer_instance()) {
        let sol = solve_bv_dp(&points);
        let grid: Vec<f64> = points.iter().map(|p| p.a).collect();
        prop_assert!(is_relaxed_feasible(sol.pricing.prices(), &grid, 1e-7));
        prop_assert!((sol.objective - revenue(&sol.pricing, &points)).abs() < 1e-9);
        prop_assert!(sol.objective >= -1e-12);
        // Revenue never exceeds total surplus.
        let surplus: f64 = points.iter().map(|p| p.demand * p.valuation).sum();
        prop_assert!(sol.objective <= surplus + 1e-9);
        // Audit it on the instance grid.
        let report = audit(&sol.pricing, &grid, 4, 1e-5);
        prop_assert!(report.is_clean(), "{:?}", report);
    }

    /// The compiled table answers every evaluation form within 1e-12
    /// relative of the piecewise-linear scan on random (not necessarily
    /// monotone) curves: interior points, knots, the origin ray, the
    /// saturated tail, clamped non-positive inputs, NCP pricing, and
    /// budget inversion.
    #[test]
    fn compiled_table_agrees_with_scan(
        (grid, prices) in grid_and_prices(),
        budget in 0.0..80.0f64,
        delta in 0.01..20.0f64,
    ) {
        let pf = PricingFunction::from_points(grid.clone(), prices).unwrap();
        let table = pf.compile();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
        let x_last = *grid.last().unwrap();
        let mut queries = vec![0.0, -1.0, f64::NAN, grid[0] * 0.5, x_last * 4.0];
        for w in grid.windows(2) {
            queries.push(0.5 * (w[0] + w[1]));
        }
        queries.extend(grid.iter().copied());
        for x in queries {
            prop_assert!(
                close(table.price_at(x), pf.price_at(x)),
                "price_at({x}): {} vs {}", table.price_at(x), pf.price_at(x)
            );
        }
        prop_assert!(close(table.price_for_ncp(delta), pf.price_for_ncp(delta)));
        match (table.max_precision_for_budget(budget), pf.max_precision_for_budget(budget)) {
            (None, None) => {}
            (Some(a), Some(d)) => prop_assert!(
                a == d || close(a, d),
                "budget inversion at {budget}: {a} vs {d}"
            ),
            (a, d) => prop_assert!(false, "budget inversion shape differs: {a:?} vs {d:?}"),
        }
    }

    /// The memoized φ inverse round-trips the error transform, for both the
    /// affine fast path and the virtual-call fallback.
    #[test]
    fn phi_memo_matches_direct_inversion(
        base in 0.0..5.0f64,
        trace in 0.1..10.0f64,
        delta in 0.0..8.0f64,
    ) {
        let affine = DeltaMethodTransform::new(base, trace, 3);
        let identity = SquareLossTransform;
        let transforms: [&dyn ErrorTransform; 2] = [&affine, &identity];
        for t in transforms {
            let memo = PhiMemo::new(t);
            // φ round-trip: inverting the forward map recovers δ.
            if let Some(d) = memo.ncp_for_error(t, t.expected_error(delta)) {
                prop_assert!((d - delta).abs() <= 1e-9 * delta.max(1.0));
            }
        }
    }

    /// Every baseline yields a well-behaved (monotone + subadditive on the
    /// grid) pricing function with affordability in [0, 1].
    #[test]
    fn baselines_always_well_behaved(points in buyer_instance()) {
        let grid: Vec<f64> = points.iter().map(|p| p.a).collect();
        for b in Baseline::ALL {
            let pf = b.pricing(&points);
            let report = audit(&pf, &grid, 4, 1e-5);
            prop_assert!(report.is_clean(), "{}: {:?}", b.name(), report);
            let a = affordability(&pf, &points);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact revenue sum is the same, to the bit, in any order and
    /// under any split into stripes merged in any order: every finite
    /// non-negative `f64` bit pattern is a possible term, subnormals and
    /// overflowing sums included.
    #[test]
    fn exact_sum_ignores_order_and_striping(
        terms in prop::collection::vec((0u64..0x7ff0_0000_0000_0000, 0usize..8), 0..64),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        use rand::seq::SliceRandom;
        let values: Vec<f64> = terms.iter().map(|&(bits, _)| f64::from_bits(bits)).collect();
        let mut in_order = ExactSum::default();
        for &v in &values {
            in_order.add(v);
        }
        let mut shuffled = values.clone();
        shuffled.shuffle(&mut mbp_randx::seeded_rng(shuffle_seed));
        let mut permuted = ExactSum::default();
        for &v in &shuffled {
            permuted.add(v);
        }
        let mut stripes = vec![ExactSum::default(); 8];
        for (&v, &(_, stripe)) in values.iter().zip(&terms) {
            stripes[stripe].add(v);
        }
        let mut merged = ExactSum::default();
        for stripe in stripes.iter().rev() {
            merged.merge(stripe);
        }
        prop_assert_eq!(&permuted, &in_order);
        prop_assert_eq!(&merged, &in_order);
        prop_assert_eq!(permuted.rounded().to_bits(), in_order.rounded().to_bits());
        prop_assert_eq!(merged.rounded().to_bits(), in_order.rounded().to_bits());
    }

    /// On integer terms, scaled by one power of two, the sum is the
    /// correctly rounded exact sum: the `u128` total converted to `f64`
    /// (round to nearest, ties to even), scaled back exactly.
    #[test]
    fn exact_sum_is_correctly_rounded_on_integers(
        terms in prop::collection::vec((0u64..1 << 53, 0u32..12), 1..200),
        scale_exp in -1000i64..900,
    ) {
        let scale = f64::from_bits(((scale_exp + 1023) as u64) << 52);
        let mut sum = ExactSum::default();
        let mut reference = 0u128;
        for &(n, shift) in &terms {
            sum.add((n << shift) as f64 * scale);
            reference += u128::from(n) << shift;
        }
        prop_assert_eq!(sum.rounded().to_bits(), (reference as f64 * scale).to_bits());
    }
}
