//! The exact arbitrage check against the attack engine, on seeded curves.
//!
//! `arbitrage::check` evaluates the gap `g(x, y) = p̄(x) + p̄(y) − p̄(x + y)`
//! only at the vertices of the arrangement on which `g` is linear. This
//! suite is the evidence that those vertices suffice: every curve the check
//! accepts survives the randomized attack engine, which samples precisions
//! anywhere on the axis (multisets of up to five parts included), and every
//! witness it reports is a priced counterexample beyond the tolerance.
//!
//! The families cover both verdicts and both accepting passes: concave
//! shapes and `solve_bv_dp` outputs (Lemma 8), ramps-and-flats staircases
//! whose knot ratios rise (the vertex scan), and planted defects — convex
//! segments, a falling knot, a first segment steeper than the origin ray,
//! and the two-knot `(2, 2), (3, 3.5)` shape whose only cheap pair takes
//! one part off the ray.

use mbp::core::arbitrage::{check, exceeds, Arbitrage, TOL};
use mbp::core::market::concurrent::SharedBroker;
use mbp::prelude::*;
use mbp::randx::{seeded_rng, MbpRng};
use mbp_serve::wire::{ErrorCode, Request, Response};
use mbp_serve::{Client, ServerConfig};
use mbp_testkit::{attack_curve, AttackConfig};
use rand::Rng;

/// A random ascending grid of `n` knots starting near `lo`.
fn random_grid(rng: &mut MbpRng, n: usize, lo: f64) -> Vec<f64> {
    let mut x = lo * rng.gen_range(0.5..1.5);
    (0..n)
        .map(|_| {
            let k = x;
            x += lo * rng.gen_range(0.05..2.0);
            k
        })
        .collect()
}

fn curve(grid: &[f64], price: impl Fn(f64) -> f64) -> PricingFunction {
    let prices = grid.iter().map(|&x| price(x)).collect();
    PricingFunction::from_points(grid.to_vec(), prices).expect("valid points")
}

/// A ramps-and-flats staircase: `steps` flats at prices `c, 2c, …`, each
/// `s` wide, reached by ramps. The origin ray reaches `c` at `w`; every
/// later ramp rises `c` over `w / steep`. With `steep = 1` this is
/// `c·(⌊x/s⌋ + min(1, (x mod s)/w))`, subadditive with zero slack at many
/// vertices while its knot ratios rise after every ramp (Lemma 8 fails).
/// With `steep > 1` the ramps outrun the ray.
fn staircase(c: f64, s: f64, w: f64, steps: usize, steep: f64) -> PricingFunction {
    let mut grid = Vec::new();
    let mut prices = Vec::new();
    for m in 0..steps {
        let ramp = if m == 0 { w } else { w / steep };
        grid.extend([m as f64 * s + ramp, (m + 1) as f64 * s]);
        let top = c * (m + 1) as f64;
        prices.extend([top, top]);
    }
    PricingFunction::from_points(grid, prices).expect("valid points")
}

/// Seeded `T_bv` instances, valuations non-decreasing.
fn dp_curve(rng: &mut MbpRng) -> PricingFunction {
    let n = rng.gen_range(2..24usize);
    let lo = rng.gen_range(0.1..5.0);
    let grid = random_grid(rng, n, lo);
    let mut v: f64 = 0.0;
    let points: Vec<BuyerPoint> = grid
        .iter()
        .map(|&a| {
            v += rng.gen_range(0.0..20.0);
            BuyerPoint::new(a, v, rng.gen_range(0.05..2.0))
        })
        .collect();
    solve_bv_dp(&points).pricing
}

/// Curves that are arbitrage-free as sold.
fn sound_curves(rng: &mut MbpRng) -> Vec<PricingFunction> {
    let mut out = Vec::new();
    for _ in 0..30 {
        let n = rng.gen_range(1..24usize);
        let lo = rng.gen_range(0.01..10.0);
        let grid = random_grid(rng, n, lo);
        let (c, alpha) = (rng.gen_range(0.1..100.0), rng.gen_range(0.1..1.0));
        out.push(curve(&grid, |x| c * x.powf(alpha)));
    }
    for _ in 0..15 {
        // Affine with an intercept, capped: concave, not through the origin.
        let lo = rng.gen_range(0.1..4.0);
        let n = rng.gen_range(2..16usize);
        let grid = random_grid(rng, n, lo);
        let (b, s) = (rng.gen_range(0.0..50.0), rng.gen_range(0.0..10.0));
        let cap = b + s * grid[grid.len() / 2];
        out.push(curve(&grid, |x| (b + s * x).min(cap)));
    }
    for i in 1..=10 {
        // Additive on paper; the knot ratios drift by ulps on decimal grids.
        let g: Vec<f64> = (1..=8 * i).map(|j| 0.1 * j as f64).collect();
        out.push(curve(&g, |x| 3.0 * x));
    }
    for _ in 0..40 {
        out.push(dp_curve(rng));
    }
    for _ in 0..20 {
        let s = rng.gen_range(1.0..8.0);
        let w = s * rng.gen_range(0.05..0.5);
        out.push(staircase(
            rng.gen_range(0.5..50.0),
            s,
            w,
            rng.gen_range(2..8),
            1.0,
        ));
    }
    out
}

/// Curves with a planted defect.
fn broken_curves(rng: &mut MbpRng) -> Vec<PricingFunction> {
    let mut out = Vec::new();
    for _ in 0..20 {
        // Convex segments: a superlinear power.
        let lo = rng.gen_range(0.5..5.0);
        let n = rng.gen_range(2..16usize);
        let grid = random_grid(rng, n, lo);
        let (c, beta) = (rng.gen_range(0.5..20.0), rng.gen_range(1.3..3.0));
        out.push(curve(&grid, |x| c * x.powf(beta)));
    }
    for _ in 0..15 {
        // Convex segments: staircase ramps steeper than the ray.
        let s = rng.gen_range(1.0..8.0);
        let w = s * rng.gen_range(0.05..0.5);
        let steep = rng.gen_range(1.2..3.0);
        out.push(staircase(
            rng.gen_range(0.5..50.0),
            s,
            w,
            rng.gen_range(2..6),
            steep,
        ));
    }
    for _ in 0..25 {
        // A falling knot on a concave curve.
        let n = rng.gen_range(3..16usize);
        let lo = rng.gen_range(0.5..5.0);
        let grid = random_grid(rng, n, lo);
        let mut prices: Vec<f64> = grid.iter().map(|&x| 10.0 * x.sqrt()).collect();
        let j = rng.gen_range(1..n);
        prices[j] = prices[j - 1] * rng.gen_range(0.3..0.98);
        out.push(PricingFunction::from_points(grid, prices).expect("valid points"));
    }
    for _ in 0..25 {
        // The first segment is steeper than the origin ray: p̄ is convex at
        // the first knot. (Below `√(k₁/k₂)` times 10·√k₁, p₁/k₁ < p₂/k₂.)
        let n = rng.gen_range(2..12usize);
        let lo = rng.gen_range(0.5..5.0);
        let grid = random_grid(rng, n, lo);
        let mut prices: Vec<f64> = grid.iter().map(|&x| 10.0 * x.sqrt()).collect();
        prices[0] *= (grid[0] / grid[1]).sqrt() * rng.gen_range(0.2..0.8);
        out.push(PricingFunction::from_points(grid, prices).expect("valid points"));
    }
    for _ in 0..25 {
        // The (2, 2), (3, 3.5) shape, scaled: two knots k₁ < k₂ ≤ 2k₁ with
        // p₂ ≤ 2p₁, so no knot pair is superadditive, but the segment
        // outruns the ray and p̄(k₁) + p̄(k₂ − k₁) < p̄(k₂).
        let k1 = rng.gen_range(0.5..10.0);
        let k2 = k1 * rng.gen_range(1.1..2.0);
        let p1 = rng.gen_range(0.5..50.0);
        let ray_price = p1 * k2 / k1;
        let p2 = ray_price + (2.0 * p1 - ray_price) * rng.gen_range(0.2..1.0);
        out.push(PricingFunction::from_points(vec![k1, k2], vec![p1, p2]).expect("valid points"));
    }
    out
}

/// A witness is a priced counterexample beyond the tolerance.
fn assert_reproduces(f: &PricingFunction, w: &Arbitrage) {
    match *w {
        Arbitrage::Falling { lo, hi, .. } => {
            assert!(lo < hi, "{w}");
            assert!(exceeds(f.price_at(lo), f.price_at(hi), TOL), "{w}");
        }
        Arbitrage::Superadditive { x, y, .. } => {
            let parts = f.price_at(x) + f.price_at(y);
            assert!(exceeds(f.price_at(x + y), parts, TOL), "{w}");
        }
    }
    assert!(w.margin() > 0.0, "{w}");
}

#[test]
fn accepted_curves_survive_the_attack_and_witnesses_reproduce() {
    let mut rng = seeded_rng(0xa4b1_7ea9);
    let (mut accepted, mut rejected) = (0, 0);
    let mut judge = |f: &PricingFunction, expect_sound: bool, seed: u64| match check(f) {
        Ok(()) => {
            assert!(expect_sound, "planted defect accepted: {f:?}");
            let report = attack_curve(f, &AttackConfig::quick(seed));
            assert!(report.is_clean(), "{f:?}: {:?}", report.violations);
            accepted += 1;
        }
        Err(w) => {
            assert!(!expect_sound, "sound curve rejected by {w}: {f:?}");
            assert_reproduces(f, &w);
            rejected += 1;
        }
    };
    for (i, f) in sound_curves(&mut rng).iter().enumerate() {
        judge(f, true, i as u64);
    }
    for (i, f) in broken_curves(&mut rng).iter().enumerate() {
        judge(f, false, i as u64);
    }
    assert!(
        accepted >= 100 && rejected >= 100,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// A random non-decreasing curve, neither built sound nor broken: its
/// slopes run up to 1.2 times the origin ray's, so some segments outrun it.
fn random_monotone(rng: &mut MbpRng) -> PricingFunction {
    let n = rng.gen_range(2..10usize);
    let grid = random_grid(rng, n, 1.0);
    let mut prices = vec![rng.gen_range(0.5..5.0)];
    let ray = prices[0] / grid[0];
    for w in grid.windows(2) {
        let last = prices[prices.len() - 1];
        prices.push(last + (w[1] - w[0]) * ray * rng.gen_range(0.0..1.2));
    }
    PricingFunction::from_points(grid, prices).expect("valid points")
}

/// Random monotone curves: whatever the check decides, the attack engine
/// and the witness agree with it.
#[test]
fn random_monotone_curves_get_a_verdict_the_attack_confirms() {
    let mut rng = seeded_rng(0x5eed_c4ec);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..120u64 {
        let f = random_monotone(&mut rng);
        match check(&f) {
            Ok(()) => {
                let report = attack_curve(&f, &AttackConfig::quick(i));
                assert!(report.is_clean(), "{f:?}: {:?}", report.violations);
                accepted += 1;
            }
            Err(w) => {
                assert_reproduces(&f, &w);
                rejected += 1;
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// The same verdicts over the wire: 64 seeded curves published to a
/// daemon on loopback, a third each from the sound and broken families
/// and the rest random monotone. Every curve the daemon lists survives the
/// attack engine; every curve it refuses with `BadRequest` fails the check,
/// and the witness reproduces as a priced counterexample.
#[test]
fn curves_published_over_loopback_get_the_checks_verdict() {
    const KIND: ModelKind = ModelKind::LinearRegression;
    let mut rng = seeded_rng(0x10_0b_ac);
    let mut curves: Vec<PricingFunction> = sound_curves(&mut rng)
        .into_iter()
        .step_by(6)
        .take(21)
        .collect();
    curves.extend(broken_curves(&mut rng).into_iter().step_by(5).take(21));
    while curves.len() < 64 {
        curves.push(random_monotone(&mut rng));
    }

    let shared = SharedBroker::new(mbp_bench::listed_broker(5));
    let handle = mbp_serve::start(shared, ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.hello(7).expect("hello"), Response::HelloOk);
    let (mut accepted, mut rejected) = (0, 0);
    for (i, f) in curves.iter().enumerate() {
        let points = f
            .grid()
            .iter()
            .copied()
            .zip(f.prices().iter().copied())
            .collect();
        let (_, verdict) = client
            .call(&Request::Publish { kind: KIND, points })
            .expect("publish");
        match verdict {
            Response::PublishOk => {
                assert!(check(f).is_ok(), "listed a curve the check refuses: {f:?}");
                let report = attack_curve(f, &AttackConfig::quick(i as u64));
                assert!(report.is_clean(), "{f:?}: {:?}", report.violations);
                accepted += 1;
            }
            Response::Error {
                code: ErrorCode::BadRequest,
                msg,
            } => {
                let w = check(f).expect_err(&msg);
                assert_reproduces(f, &w);
                rejected += 1;
            }
            other => panic!("expected PublishOk or BadRequest, got {other:?}"),
        }
    }
    handle.shutdown();
    handle.wait();
    assert!(
        accepted >= 16 && rejected >= 16,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// `solve_bv_exact` optimizes problem (2) over grid covers; its sold
/// interpolant can be arbitraged where the DP's cannot.
#[test]
fn the_exact_solvers_curve_is_arbitrageable_as_sold_and_the_dps_is_not() {
    let buyers = [
        BuyerPoint::new(2.0, 2.0, 1.0),
        BuyerPoint::new(3.0, 3.5, 1.0),
    ];
    let exact = solve_bv_exact(&buyers, 1.0);
    assert_eq!(exact.pricing.prices(), &[2.0, 3.5]);
    assert_eq!(
        check(&exact.pricing),
        Err(Arbitrage::Superadditive {
            x: 1.0,
            y: 2.0,
            parts_price: 3.0,
            whole_price: 3.5
        })
    );
    let dp = solve_bv_dp(&buyers);
    assert_eq!(dp.pricing.prices(), &[2.0, 3.0]);
    assert_eq!(check(&dp.pricing), Ok(()));
}
