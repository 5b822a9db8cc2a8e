//! Output checks: every response is compared with an in-process
//! reference built from the same CSV, seeds and streams.
//!
//! * WAL-off workloads: each connection's rolling response digest must
//!   equal the digest of the frames an in-process `Broker` replay of the
//!   same `Hello` seed and stream encodes, at every burst boundary.
//! * The workload with a seller: every `BuyOk` must carry the NCP and
//!   price the core's own `price_batch` gives its request on a curve that
//!   was live while the request was in flight, and the released weights
//!   must equal a replay of the connection's noise stream. After the
//!   drain the WAL must recover exactly the acknowledged sales and
//!   publishes.

use std::path::Path;
use std::time::Instant;

use mbp_core::error::{ErrorTransform, SquareLossTransform};
use mbp_core::market::{Broker, PurchaseRequest, SaleArena, MAX_BATCH};
use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
use mbp_core::pricing::PricingFunction;
use mbp_linalg::Vector;
use mbp_serve::wire::{
    digest_bytes, encode_buy_ok, encode_error, encode_quote_ok, encode_response, market_error_code,
    Response, DIGEST_SEED,
};
use mbp_wal::WalEvent;

use crate::drive::{BuyerLog, Pattern, BURST, KIND};
use crate::inputs;

/// The daemon's market, rebuilt in-process: same CSV, split seed, ridge
/// and start-up curve as `mbp-market serve`.
pub fn reference(csv: &Path, split_seed: u64) -> Result<(Broker, f64), String> {
    let t = Instant::now();
    let ds = mbp_data::csv::read_dataset_path(csv).map_err(|e| format!("reading csv: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let mut rng = mbp_randx::seeded_rng(split_seed);
    let mut broker = Broker::new(ds.split(0.75, &mut rng));
    broker
        .support(KIND, 1e-6)
        .map_err(|e| format!("reference support: {e}"))?;
    broker
        .publish(KIND, inputs::initial_curve(), Box::new(SquareLossTransform))
        .map_err(|e| format!("reference publish: {e}"))?;
    Ok((broker, load_s))
}

/// Folds frames into a rolling digest and compares it with the client's
/// at each snapshot, counting the requests of mismatching bursts.
struct DigestWalk<'a> {
    digest: u64,
    frame: Vec<u8>,
    snapshots: std::slice::Iter<'a, (u64, u64)>,
    next: Option<&'a (u64, u64)>,
    last: u64,
    failed: u64,
}

impl<'a> DigestWalk<'a> {
    fn new(snapshots: &'a [(u64, u64)]) -> DigestWalk<'a> {
        let mut walk = DigestWalk {
            digest: DIGEST_SEED,
            frame: Vec::new(),
            snapshots: snapshots.iter(),
            next: None,
            last: 0,
            failed: 0,
        };
        walk.next = walk.snapshots.next();
        // The handshake is request id 1.
        encode_response(&mut walk.frame, 1, &Response::HelloOk);
        walk.fold();
        walk
    }

    fn fold(&mut self) {
        self.digest = digest_bytes(self.digest, &self.frame);
        self.frame.clear();
    }

    /// Called after the frame of stream request `done - 1` was folded.
    fn after(&mut self, done: u64) {
        if let Some(&(at, client)) = self.next {
            if at == done {
                if client != self.digest {
                    self.failed += done - self.last;
                }
                self.last = done;
                self.next = self.snapshots.next();
            }
        }
    }
}

/// Stream request `j` travels with request id `j + 2` (the hello is 1).
fn wire_id(j: u64) -> u32 {
    (j + 2) as u32
}

/// Replays one connection that traded against the start-up curve and
/// returns the number of its requests
/// whose burst digest did not match.
pub fn replay_connection(broker: &Broker, seed: u64, log: &BuyerLog, pattern: Pattern) -> u64 {
    let mut walk = DigestWalk::new(&log.snapshots);
    let mut rng = mbp_randx::seeded_rng(inputs::hello_seed(seed, log.conn));
    let mut arena = SaleArena::new();
    let mut buys: Vec<(u64, PurchaseRequest)> = Vec::with_capacity(BURST);
    let mut quotes: Vec<(u64, PurchaseRequest)> = Vec::with_capacity(BURST);
    let mut j = 0u64;
    while j < log.sent {
        let end = (j + BURST as u64).min(log.sent);
        buys.clear();
        quotes.clear();
        for k in j..end {
            let r = inputs::request(seed, log.conn, k);
            if pattern.is_quote(k) {
                quotes.push((k, r));
            } else {
                buys.push((k, r));
            }
        }
        let reqs: Vec<PurchaseRequest> = buys.iter().map(|b| b.1).collect();
        let bought = broker.quote_batch_into(KIND, &reqs, &mut rng, &mut arena);
        let qreqs: Vec<PurchaseRequest> = quotes.iter().map(|q| q.1).collect();
        let quoted = if qreqs.is_empty() {
            Ok(Vec::new())
        } else {
            broker.price_batch(KIND, &qreqs)
        };
        let (Ok(()), Ok(quoted)) = (bought, quoted) else {
            return log.sent;
        };
        let mut sales = arena.results();
        let mut quoted = quoted.into_iter();
        for k in j..end {
            let frame = &mut walk.frame;
            if pattern.is_quote(k) {
                match quoted.next() {
                    Some(Ok(q)) => {
                        encode_quote_ok(frame, wire_id(k), q.ncp, q.price, q.expected_error)
                    }
                    Some(Err(e)) => {
                        encode_error(frame, wire_id(k), market_error_code(&e), &e.to_string())
                    }
                    None => return log.sent,
                }
            } else {
                match sales.next() {
                    Some(Ok(s)) => encode_buy_ok(
                        frame,
                        wire_id(k),
                        s.ncp,
                        s.price,
                        s.expected_error,
                        s.model.weights().as_slice(),
                    ),
                    Some(Err(e)) => {
                        encode_error(frame, wire_id(k), market_error_code(e), &e.to_string())
                    }
                    None => return log.sent,
                }
            }
            walk.fold();
            walk.after(k + 1);
        }
        j = end;
    }
    walk.failed
}

/// Checks how each `BuyOk` of a repriced buyer was resolved and priced:
/// the core's own `price_batch`, run on `broker` with one of the curves
/// live during the request's step published, must give the response's
/// `(ncp, price)` bit for bit. So an `AtNcp` must keep its NCP, an
/// `ErrorBudget` must get the square-loss inversion of its budget, and a
/// `PriceBudget` must get the precision its budget buys on that curve.
/// Returns one flag per response; non-`BuyOk` responses are `false`.
pub fn resolved_on_live_curves(
    broker: &mut Broker,
    seed: u64,
    log: &BuyerLog,
    curves: &[PricingFunction],
) -> Vec<bool> {
    let n = log.sales.len();
    let mut ok = vec![false; n];
    // Per curve, the steps it was live for.
    let mut steps_of: Vec<Vec<usize>> = vec![Vec::new(); curves.len()];
    for (step, &(lo, hi)) in log.curve_range.iter().enumerate() {
        for steps in steps_of.iter_mut().take(hi + 1).skip(lo) {
            steps.push(step);
        }
    }
    let (mut ids, mut reqs) = (Vec::new(), Vec::new());
    for (curve, steps) in curves.iter().zip(&steps_of) {
        ids.clear();
        reqs.clear();
        for &step in steps {
            let from = (step * BURST).min(n);
            let to = (from + BURST).min(n);
            for (j, (done, sale)) in (from..to).zip(ok[from..to].iter().zip(&log.sales[from..to])) {
                if !done && !sale.0.is_nan() {
                    ids.push(j);
                    reqs.push(inputs::request(seed, log.conn, j as u64));
                }
            }
        }
        if ids.is_empty() {
            continue;
        }
        if broker
            .publish(KIND, curve.clone(), Box::new(SquareLossTransform))
            .is_err()
        {
            return ok;
        }
        for (ids, reqs) in ids.chunks(MAX_BATCH).zip(reqs.chunks(MAX_BATCH)) {
            let Ok(quotes) = broker.price_batch(KIND, reqs) else {
                continue;
            };
            for (&j, q) in ids.iter().zip(quotes) {
                let (ncp, price) = log.sales[j];
                ok[j] = q.is_ok_and(|q| {
                    q.ncp.to_bits() == ncp.to_bits() && q.price.to_bits() == price.to_bits()
                });
            }
        }
    }
    ok
}

/// Checks a repriced buyer's responses: each resolution and price against
/// the curves live during its step ([`resolved_on_live_curves`]), and the
/// whole response stream against a replay of the connection's noise
/// draws. Leaves the last checked curve published on `broker`. Returns the
/// failed request count.
pub fn replay_repriced(
    broker: &mut Broker,
    seed: u64,
    log: &BuyerLog,
    curves: &[PricingFunction],
) -> u64 {
    let Some(h_star) = broker.optimal_model(KIND).map(|m| m.weights().clone()) else {
        return log.sent;
    };
    let resolved = resolved_on_live_curves(broker, seed, log, curves);
    let mech = GaussianMechanism;
    let mut rng = mbp_randx::seeded_rng(inputs::hello_seed(seed, log.conn));
    let mut out = Vector::zeros(h_star.len());
    let mut walk = DigestWalk::new(&log.snapshots);
    let mut bad_price = 0u64;
    for (j, (&(ncp, price), &ok)) in log.sales.iter().zip(&resolved).enumerate() {
        let j = j as u64;
        if !ok {
            bad_price += 1;
            walk.after(j + 1);
            continue;
        }
        mech.perturb_into(&h_star, ncp, &mut rng, &mut out);
        let expected = SquareLossTransform.expected_error(ncp);
        encode_buy_ok(
            &mut walk.frame,
            wire_id(j),
            ncp,
            price,
            expected,
            out.as_slice(),
        );
        walk.fold();
        walk.after(j + 1);
    }
    bad_price.max(walk.failed)
}

/// After the drain: the WAL in `dir` must hold exactly the acknowledged
/// sales (as a multiset of `(ncp, price)` bits) and exactly the start-up
/// publish followed by the acknowledged publishes. Returns the number of
/// sales and publishes that differ.
pub fn recover_wal(dir: &Path, acked_sales: &[(f64, f64)], published: &[PricingFunction]) -> u64 {
    let recovered = match mbp_wal::recover_dir(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("marketbench: recovering the WAL failed: {e}");
            return (acked_sales.len() + published.len()).max(1) as u64;
        }
    };
    let mut wal_sales = Vec::new();
    let mut wal_publishes = Vec::new();
    for event in &recovered.events {
        match event {
            WalEvent::Sale { ncp, price, .. } => wal_sales.push((ncp.to_bits(), price.to_bits())),
            WalEvent::Publish { grid, prices, .. } => wal_publishes.push((grid, prices)),
            _ => {}
        }
    }
    let mut acked: Vec<(u64, u64)> = acked_sales
        .iter()
        .map(|(n, p)| (n.to_bits(), p.to_bits()))
        .collect();
    acked.sort_unstable();
    wal_sales.sort_unstable();
    let mut failed = multiset_difference(&acked, &wal_sales);
    let initial = inputs::initial_curve();
    let expected: Vec<&PricingFunction> = std::iter::once(&initial).chain(published).collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let same = |(g, p): &(&Vec<f64>, &Vec<f64>), c: &&PricingFunction| {
        bits(g) == bits(c.grid()) && bits(p) == bits(c.prices())
    };
    let matching = wal_publishes
        .iter()
        .zip(expected.iter())
        .filter(|(w, c)| same(w, c))
        .count();
    failed += (wal_publishes.len().max(expected.len()) - matching) as u64;
    if recovered.records_skipped > 0 || recovered.truncated_segments > 0 {
        failed += 1;
    }
    failed
}

/// Size of the symmetric difference of two sorted multisets.
fn multiset_difference(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i + b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_difference_counts_both_sides() {
        assert_eq!(multiset_difference(&[(1, 1), (2, 2)], &[(1, 1), (2, 2)]), 0);
        assert_eq!(multiset_difference(&[(1, 1), (1, 1)], &[(1, 1)]), 1);
        assert_eq!(multiset_difference(&[(1, 1)], &[(2, 2), (3, 3)]), 3);
    }
}
