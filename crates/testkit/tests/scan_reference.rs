//! The broker's listed kernel against the scan reference: every request
//! kind, accepted or rejected, must come back bit-identical to
//! [`mbp_testkit::reference::scan_purchase`] fed the same RNG stream.

use mbp_core::error::{ErrorTransform, LinRegSquareTransform, SquareLossTransform};
use mbp_core::market::{Broker, MarketError, PurchaseRequest, Sale};
use mbp_core::mechanism::{GaussianMechanism, LaplaceMechanism, NoiseMechanism};
use mbp_core::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;
use mbp_testkit::reference::scan_purchase;
use rand::Rng;
use std::mem::discriminant;

const KIND: ModelKind = ModelKind::LinearRegression;

/// Knots 1..=10 priced `10·√x`: first price 10, saturation `10·√10`.
fn pricing() -> PricingFunction {
    let g: Vec<f64> = (1..=10).map(|i| i as f64).collect();
    let p: Vec<f64> = g.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(g, p).unwrap()
}

fn broker(mechanism: Box<dyn NoiseMechanism>) -> Broker {
    let mut rng = seeded_rng(30);
    let data = mbp_data::synth::simulated1(600, 5, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::with_mechanism(data, mechanism);
    broker.support(KIND, 0.0).unwrap();
    broker
}

/// Requests covering every resolution branch and every rejection, given
/// the transform's noiseless error floor.
fn requests(floor: f64) -> Vec<PurchaseRequest> {
    let saturation = pricing().max_price();
    vec![
        PurchaseRequest::AtNcp(0.5),
        PurchaseRequest::AtNcp(0.0),
        PurchaseRequest::AtNcp(f64::NAN),
        PurchaseRequest::AtNcp(-1.0),
        PurchaseRequest::AtNcp(f64::INFINITY),
        PurchaseRequest::ErrorBudget(floor + 2.0),
        PurchaseRequest::ErrorBudget(floor),
        PurchaseRequest::ErrorBudget(floor * 0.5 - 1.0),
        PurchaseRequest::ErrorBudget(f64::NAN),
        PurchaseRequest::PriceBudget(20.0),
        PurchaseRequest::PriceBudget(5.0),
        PurchaseRequest::PriceBudget(0.0),
        PurchaseRequest::PriceBudget(-1.0),
        PurchaseRequest::PriceBudget(f64::NAN),
        PurchaseRequest::PriceBudget(saturation),
        PurchaseRequest::PriceBudget(1e6),
    ]
}

fn assert_same(
    request: PurchaseRequest,
    listed: &Result<Sale, MarketError>,
    scan: &Result<Sale, MarketError>,
) {
    match (listed, scan) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.price.to_bits(), b.price.to_bits(), "{request:?}: price");
            assert_eq!(a.ncp.to_bits(), b.ncp.to_bits(), "{request:?}: ncp");
            assert_eq!(
                a.expected_error.to_bits(),
                b.expected_error.to_bits(),
                "{request:?}: expected error"
            );
            let bits = |s: &Sale| -> Vec<u64> {
                s.model
                    .weights()
                    .as_slice()
                    .iter()
                    .map(|w| w.to_bits())
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "{request:?}: weights");
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                discriminant(a),
                discriminant(b),
                "{request:?}: {a:?} vs {b:?}"
            );
        }
        _ => panic!("{request:?}: listed {listed:?} vs scan {scan:?}"),
    }
}

/// The compiled-table listing answers every request with the same price,
/// NCP, expected error, weights or rejection variant as the scan
/// reference, and leaves the RNG at the same position, under both the
/// identity transform and an affine (memoized-φ) regression transform and
/// under two mechanisms.
#[test]
fn listed_table_path_is_bit_identical_to_scan_path() {
    type Transform = Box<dyn ErrorTransform + Send + Sync>;
    let mechanisms: [fn() -> Box<dyn NoiseMechanism>; 2] = [
        || Box::new(GaussianMechanism),
        || Box::new(LaplaceMechanism),
    ];
    for make_mechanism in mechanisms {
        let mechanism = make_mechanism();
        let probe = broker(make_mechanism());
        let h_star = probe.optimal_model(KIND).unwrap().clone();
        let regression = LinRegSquareTransform::new(&probe.data().test, h_star.weights());
        let transforms: [(Transform, Transform); 2] = [
            (Box::new(SquareLossTransform), Box::new(SquareLossTransform)),
            (Box::new(regression.clone()), Box::new(regression)),
        ];
        let mut served = 0;
        for (listed_transform, scan_transform) in transforms {
            let floor = scan_transform.expected_error(0.0);
            let mut listed = broker(make_mechanism());
            listed.publish(KIND, pricing(), listed_transform).unwrap();
            let mut rng_listed = seeded_rng(31);
            let mut rng_scan = seeded_rng(31);
            for request in requests(floor) {
                let a = listed.buy_listed(KIND, request, &mut rng_listed);
                let b = scan_purchase(
                    &pricing(),
                    scan_transform.as_ref(),
                    &h_star,
                    mechanism.as_ref(),
                    request,
                    &mut rng_scan,
                );
                assert_same(request, &a, &b);
                served += usize::from(b.is_ok());
                assert_eq!(
                    rng_listed.gen::<u64>(),
                    rng_scan.gen::<u64>(),
                    "{request:?}: next RNG draw"
                );
            }
        }
        // Both accepted and rejected requests were exercised.
        assert!(served >= 10 && served < 2 * requests(0.0).len(), "{served}");
    }
}
