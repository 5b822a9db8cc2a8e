//! Monte-Carlo market simulation: a stream of buyers drawn from the
//! seller's research curves purchases (or declines) against the broker's
//! published listing, validating that the revenue the optimizer *predicts*
//! is the revenue the market *realizes*.
//!
//! Each simulated buyer samples an accuracy preference from the demand
//! curve, a valuation from the value curve (optionally jittered to model
//! research error), and buys the model at their preferred precision iff
//! the listed price is within their valuation — exactly the buyer model of
//! Section 5's `T_bv` objective. Purchases run through the listed-purchase
//! kernel ([`Broker::quote_batch_into`]), like every other sale.

use crate::market::agents::{Broker, MarketError, PurchaseRequest, SaleArena, Seller};
use crate::revenue;
use mbp_ml::ModelKind;
use mbp_randx::{seeded_rng, Categorical, Distribution, Normal, SeedStream};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    /// Number of buyer arrivals to simulate.
    pub n_buyers: usize,
    /// Relative valuation jitter: each buyer's valuation is
    /// `v·(1 + jitter·N(0,1))`, clamped at 0. Zero reproduces the research
    /// curves exactly.
    pub valuation_jitter: f64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            n_buyers: 1000,
            valuation_jitter: 0.0,
        }
    }
}

/// Result of a simulated selling season.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Expected revenue per buyer predicted from the research curves
    /// (`Σ b_j·p(a_j)·1[p ≤ v_j]` with demand normalized to mass 1).
    pub predicted_revenue_per_buyer: f64,
    /// Average realized revenue per simulated buyer.
    pub realized_revenue_per_buyer: f64,
    /// Buyers who purchased.
    pub served: usize,
    /// Buyers who declined (price above their valuation).
    pub declined: usize,
    /// Affordability predicted from the curves.
    pub predicted_affordability: f64,
}

impl SimulationOutcome {
    /// Realized affordability ratio.
    pub fn realized_affordability(&self) -> f64 {
        let total = self.served + self.declined;
        if total == 0 {
            0.0
        } else {
            self.served as f64 / total as f64
        }
    }
}

/// Buyers per shard in [`simulate_market`]. The shard layout is a pure
/// function of `n_buyers`.
pub const SHARD_BUYERS: usize = 512;

/// Runs a selling season for `kind` against the broker's published listing.
///
/// The buyer stream is split into [`SHARD_BUYERS`]-sized shards, run one
/// after another on the calling thread. Shard `i` seeds one RNG with the
/// `i`-th seed of a [`SeedStream`] rooted at `master_seed`, draws every
/// buyer's arrival and valuation from it, and sends the buyers who accept
/// the listed price through one [`Broker::quote_batch_into`] call, which
/// draws the release noise from the same RNG. Once every shard has bought,
/// the shards settle in shard order, each sale to the broker's durability
/// sink and then into its totals. The outcome — counts, realized revenue,
/// the recorded sale sequence and the released noise — therefore depends
/// only on `(cfg, master_seed)`. Predicted revenue and affordability are
/// computed from the listed pricing.
///
/// # Errors
/// [`MarketError::UnsupportedModel`] when `kind` has no listing. A
/// rejected purchase fails the whole season, and nothing is settled.
///
/// # Panics
/// Panics when `cfg.n_buyers == 0` or the jitter is negative.
pub fn simulate_market(
    broker: &mut Broker,
    seller: &Seller,
    kind: ModelKind,
    cfg: SimulationConfig,
    master_seed: u64,
) -> Result<SimulationOutcome, MarketError> {
    assert!(cfg.n_buyers > 0, "need at least one buyer");
    assert!(
        cfg.valuation_jitter >= 0.0 && cfg.valuation_jitter.is_finite(),
        "jitter must be >= 0"
    );
    let pricing = broker
        .listed_pricing(kind)
        .ok_or(MarketError::UnsupportedModel(kind))?;
    let population = seller.buyer_population();
    let predicted_revenue_per_buyer = revenue::revenue(pricing, &population);
    let predicted_affordability = revenue::affordability(pricing, &population);
    let demands: Vec<f64> = population.iter().map(|p| p.demand).collect();
    let arrivals = Categorical::new(&demands);
    let jitter = Normal::new(0.0, 1.0);

    let _span = mbp_obs::span("mbp.core.simulate");
    let n_shards = cfg.n_buyers.div_ceil(SHARD_BUYERS);
    mbp_obs::counter_add("mbp.core.simulate.shards", n_shards as u64);
    let mut seeds = SeedStream::new(master_seed);
    let shard_seeds: Vec<u64> = (0..n_shards).map(|_| seeds.next_seed()).collect();

    let shards = {
        let broker = &*broker;
        shard_seeds.iter().enumerate().map(|(i, &seed)| {
            let mut rng = seeded_rng(seed);
            let n = SHARD_BUYERS.min(cfg.n_buyers - i * SHARD_BUYERS);
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let point = &population[arrivals.sample(&mut rng)];
                let valuation = if cfg.valuation_jitter > 0.0 {
                    (point.valuation * (1.0 + cfg.valuation_jitter * jitter.sample(&mut rng)))
                        .max(0.0)
                } else {
                    point.valuation
                };
                if pricing.price_at(point.a) <= valuation + 1e-12 {
                    requests.push(PurchaseRequest::AtNcp(1.0 / point.a));
                }
            }
            let declined = n - requests.len();
            let mut arena = SaleArena::new();
            // The kernel rejects an empty batch as a caller error, so a
            // shard in which every buyer declined buys nothing.
            if !requests.is_empty() {
                // A slow batch replays by re-running its shard from `seed`.
                mbp_obs::set_request_seed(seed);
                broker.quote_batch_into(kind, &requests, &mut rng, &mut arena)?;
                if let Some(e) = arena.results().find_map(Result::err) {
                    return Err(e.clone());
                }
            }
            Ok((declined, arena))
        })
    };

    // Shards settle in shard-index order, and only once every shard has
    // bought: a rejected purchase settles nothing.
    let shards = shards.collect::<Result<Vec<_>, _>>()?;
    let mut served = 0usize;
    let mut declined = 0usize;
    let mut realized = 0.0f64;
    for (shard_declined, arena) in &shards {
        declined += shard_declined;
        for sale in arena.results().flatten() {
            served += 1;
            realized += sale.price;
        }
        broker.settle_arena(kind, arena);
    }
    mbp_obs::counter_add("mbp.core.simulate.served", served as u64);
    mbp_obs::counter_add("mbp.core.simulate.declined", declined as u64);
    mbp_obs::event(
        mbp_obs::Verbosity::Info,
        "mbp.core.simulate",
        "season complete",
        &[
            ("buyers", cfg.n_buyers.to_string()),
            ("shards", n_shards.to_string()),
            ("served", served.to_string()),
            ("declined", declined.to_string()),
            (
                "realized_per_buyer",
                format!("{:.6}", realized / cfg.n_buyers as f64),
            ),
        ],
    );
    Ok(SimulationOutcome {
        predicted_revenue_per_buyer,
        realized_revenue_per_buyer: realized / cfg.n_buyers as f64,
        served,
        declined,
        predicted_affordability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SquareLossTransform;
    use crate::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
    use crate::market::{SaleLog, SalesTotals};
    use crate::pricing::PricingFunction;
    use mbp_data::synth;
    use std::sync::Arc;

    const KIND: ModelKind = ModelKind::LinearRegression;

    /// A seller and a broker with linear regression listed at the
    /// research-derived DP pricing.
    fn setup(seed: u64) -> (Seller, Broker) {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(800, 4, 0.5, &mut rng).split(0.75, &mut rng);
        let seller = Seller::new(
            data.clone(),
            grid(10.0, 100.0, 10),
            ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0),
            DemandCurve::new(DemandShape::Uniform),
        );
        let mut broker = Broker::new(data);
        broker.support(KIND, 1e-6).expect("train");
        let pricing = broker.price_from_research(&seller).pricing;
        list(&mut broker, pricing);
        (seller, broker)
    }

    fn list(broker: &mut Broker, pricing: PricingFunction) {
        broker
            .publish(KIND, pricing, Box::new(SquareLossTransform))
            .unwrap();
    }

    fn config(n_buyers: usize, valuation_jitter: f64) -> SimulationConfig {
        SimulationConfig {
            n_buyers,
            valuation_jitter,
        }
    }

    #[test]
    fn realized_revenue_matches_prediction_without_jitter() {
        let (seller, mut broker) = setup(71);
        let out = simulate_market(&mut broker, &seller, KIND, config(4000, 0.0), 72).unwrap();
        let rel = (out.realized_revenue_per_buyer - out.predicted_revenue_per_buyer).abs()
            / out.predicted_revenue_per_buyer;
        assert!(
            rel < 0.05,
            "realized {} vs predicted {}",
            out.realized_revenue_per_buyer,
            out.predicted_revenue_per_buyer
        );
        let aff_gap = (out.realized_affordability() - out.predicted_affordability).abs();
        assert!(aff_gap < 0.03, "affordability gap {aff_gap}");
        assert_eq!(out.served + out.declined, 4000);
        assert_eq!(broker.sales_count(), out.served as u64);
        let broker_revenue = broker.total_revenue() / 4000.0;
        assert!((broker_revenue - out.realized_revenue_per_buyer).abs() < 1e-9);
    }

    #[test]
    fn jitter_serves_some_marginal_buyers_both_ways() {
        let (seller, mut broker) = setup(73);
        let out = simulate_market(&mut broker, &seller, KIND, config(2000, 0.3), 74).unwrap();
        // With jitter the outcome still lands in a sane band around the
        // prediction (prices sit at valuations, so jitter pushes marginal
        // buyers out roughly half the time).
        assert!(out.served > 0 && out.declined > 0);
        assert!(out.realized_revenue_per_buyer > 0.2 * out.predicted_revenue_per_buyer);
        assert!(out.realized_revenue_per_buyer < 1.5 * out.predicted_revenue_per_buyer);
    }

    #[test]
    fn higher_prices_reduce_realized_affordability() {
        let (seller, mut broker) = setup(75);
        let dp = broker.listed_pricing(KIND).unwrap().clone();
        let cheap_out =
            simulate_market(&mut broker, &seller, KIND, SimulationConfig::default(), 76).unwrap();
        let expensive = PricingFunction::from_points(
            dp.grid().to_vec(),
            dp.prices().iter().map(|p| p * 3.0).collect(),
        )
        .unwrap();
        list(&mut broker, expensive);
        // The same seed replays the same buyers against the dearer listing.
        let costly_out =
            simulate_market(&mut broker, &seller, KIND, SimulationConfig::default(), 76).unwrap();
        assert!(costly_out.realized_affordability() < cheap_out.realized_affordability());
    }

    /// Several shards, one of them partial: counts, revenue, the totals
    /// and the exact bits of the recorded sale sequence are a function of
    /// the master seed alone.
    #[test]
    fn season_is_a_pure_function_of_the_seed() {
        let run = |master_seed: u64| {
            let (seller, mut broker) = setup(81);
            let log = Arc::new(SaleLog::default());
            broker.set_durability(log.clone());
            let out = simulate_market(&mut broker, &seller, KIND, config(3000, 0.1), master_seed)
                .unwrap();
            let sales: Vec<(u64, u64)> = log
                .lock()
                .iter()
                .map(|t| (t.ncp.to_bits(), t.price.to_bits()))
                .collect();
            (
                out.served,
                out.declined,
                out.realized_revenue_per_buyer.to_bits(),
                broker.totals().clone(),
                sales,
            )
        };
        let one = run(4242);
        assert_eq!(one, run(4242));
        assert_ne!(one.4, run(4243).4, "another seed draws another season");
        assert!(one.0 > 0, "some buyers must be served");
        assert_eq!(one.0 + one.1, 3000);
        assert_eq!(one.4.len(), one.0, "one recorded sale per served buyer");
    }

    /// Every simulated sale reaches the durability sink, and the broker's
    /// totals count exactly the recorded sales.
    #[test]
    fn season_records_every_sale_to_the_durability_sink() {
        let (seller, mut broker) = setup(79);
        let log = Arc::new(SaleLog::default());
        broker.set_durability(log.clone());
        let out = simulate_market(&mut broker, &seller, KIND, config(1200, 0.1), 80).unwrap();
        assert!(out.served > 0);
        let recorded = log.lock().clone();
        assert_eq!(recorded.len(), out.served);
        let mut counted = SalesTotals::default();
        for tx in &recorded {
            counted.add_sale(tx.kind, tx.price);
        }
        assert_eq!(&counted, broker.totals());
    }

    #[test]
    fn simulation_requires_a_listing() {
        let (seller, _) = setup(86);
        let mut unlisted = Broker::new(seller.data.clone());
        unlisted.support(KIND, 1e-6).unwrap();
        let err = simulate_market(&mut unlisted, &seller, KIND, SimulationConfig::default(), 1)
            .unwrap_err();
        assert!(matches!(err, MarketError::UnsupportedModel(_)));
    }

    #[test]
    #[should_panic(expected = "at least one buyer")]
    fn zero_buyers_panics() {
        let (seller, mut broker) = setup(77);
        let _ = simulate_market(&mut broker, &seller, KIND, config(0, 0.0), 78);
    }
}
