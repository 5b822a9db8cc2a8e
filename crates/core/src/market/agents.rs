//! The seller, broker, and buyer agents and the purchase protocol.

use crate::arbitrage::{self, Arbitrage};
use crate::error::ErrorTransform;
use crate::market::curves::{buyer_points, DemandCurve, ValueCurve};
use crate::market::durability::DurabilitySink;
use crate::market::totals::SalesTotals;
use crate::mechanism::{GaussianMechanism, NoiseMechanism};
use crate::pricing::PricingFunction;
use crate::revenue::{solve_bv_dp, BuyerPoint, RevenueSolution};
use mbp_data::TrainTest;
use mbp_ml::metrics::model_space_square_loss;
use mbp_ml::train::{gradient_descent, newton_logistic, RidgeSolver, TrainConfig};
use mbp_ml::{LinearModel, LogisticLoss, ModelKind, SmoothedHingeLoss};
use mbp_randx::MbpRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Static trace label for a model kind: the `listing` label of its trace
/// roots (no per-quote allocation).
pub(crate) fn kind_label(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::LinearRegression => "linear_regression",
        ModelKind::LogisticRegression => "logistic_regression",
        ModelKind::LinearSvm => "linear_svm",
    }
}

/// The `mbp.core.buy` trace root of one purchase call against `kind`'s
/// listing, carrying this thread's pending request seed. Ledger work done
/// inside it is its self time.
pub(crate) fn buy_root(kind: ModelKind, mechanism: &'static str) -> mbp_obs::Span {
    mbp_obs::trace_root("mbp.core.buy", kind_label(kind), mechanism)
}

/// Errors raised by market interactions.
#[derive(Debug, Clone)]
pub enum MarketError {
    /// The requested model type is not on the broker's menu.
    UnsupportedModel(ModelKind),
    /// Training the optimal instance failed (e.g. singular Gram matrix).
    TrainingFailed(mbp_linalg::LinalgError),
    /// The requested expected error is unachievable (below the noiseless
    /// floor or outside the transform's range).
    UnachievableError(f64),
    /// The buyer's budget does not afford any positive-precision instance.
    InsufficientBudget(f64),
    /// Malformed request (e.g. non-positive NCP).
    BadRequest(String),
    /// A published curve is not arbitrage-free as sold; carries the
    /// witness [`arbitrage::check`] found.
    NotArbitrageFree(Arbitrage),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::UnsupportedModel(kind) => {
                write!(f, "model {:?} is not on the broker's menu", kind)
            }
            MarketError::TrainingFailed(e) => write!(f, "training the optimal model failed: {e}"),
            MarketError::UnachievableError(e) => {
                write!(
                    f,
                    "expected error {e} is unachievable for this model/dataset"
                )
            }
            MarketError::InsufficientBudget(b) => {
                write!(f, "budget {b} cannot afford any model instance")
            }
            MarketError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            MarketError::NotArbitrageFree(w) => {
                write!(f, "pricing is not arbitrage-free: {w}")
            }
        }
    }
}

impl std::error::Error for MarketError {}

impl From<mbp_linalg::LinalgError> for MarketError {
    fn from(e: mbp_linalg::LinalgError) -> Self {
        MarketError::TrainingFailed(e)
    }
}

/// The seller: owns the dataset for sale and the market-research curves
/// (Figure 1(A), Figure 2(a)).
#[derive(Debug)]
pub struct Seller {
    /// The dataset `D = (D_train, D_test)` offered for sale.
    pub data: TrainTest,
    /// Inverse-NCP grid over which the market operates.
    pub grid: Vec<f64>,
    /// Market-research value curve.
    pub value_curve: ValueCurve,
    /// Market-research demand curve.
    pub demand_curve: DemandCurve,
}

impl Seller {
    /// Creates a seller listing.
    ///
    /// # Panics
    /// Panics when `grid` is empty or not strictly ascending — a listing
    /// with no sampleable market grid is a programming error, caught at
    /// construction rather than deep inside curve sampling.
    // LINT-SCOPE(reach-panic): sellers are built at simulation setup,
    // never on the serve path; the call-graph pass proves it.
    pub fn new(
        data: TrainTest,
        grid: Vec<f64>,
        value_curve: ValueCurve,
        demand_curve: DemandCurve,
    ) -> Self {
        if let Err(e) = super::curves::validate_grid(&grid) {
            panic!("invalid seller grid: {e}");
        }
        Seller {
            data,
            grid,
            value_curve,
            demand_curve,
        }
    }

    /// The buyer population implied by the research curves.
    // LINT-SCOPE(reach-panic): simulation-side population synthesis; the
    // grid was validated in `Seller::new` and no serve root reaches it.
    pub fn buyer_population(&self) -> Vec<BuyerPoint> {
        buyer_points(&self.grid, &self.value_curve, &self.demand_curve)
            .expect("seller grid validated at construction")
    }
}

/// A buyer with a budget (used by the examples; the protocol itself is
/// stateless and lives in [`Broker::buy_listed`]).
#[derive(Debug, Clone)]
pub struct Buyer {
    /// Display name.
    pub name: String,
    /// Price budget.
    pub budget: f64,
}

impl Buyer {
    /// Creates a buyer.
    pub fn new(name: impl Into<String>, budget: f64) -> Self {
        assert!(budget >= 0.0 && budget.is_finite(), "budget must be >= 0");
        Buyer {
            name: name.into(),
            budget,
        }
    }
}

/// The buyer's three purchase options (Section 3.2, broker–buyer step 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PurchaseRequest {
    /// Pick a specific point on the price–error curve by its NCP.
    AtNcp(f64),
    /// "Cheapest instance with expected error ≤ ε̂."
    ErrorBudget(f64),
    /// "Most accurate instance with price ≤ p̂."
    PriceBudget(f64),
}

/// One fulfilled purchase.
#[derive(Debug, Clone)]
pub struct Sale {
    /// The released noisy model instance.
    pub model: LinearModel,
    /// Price charged.
    pub price: f64,
    /// NCP of the released instance.
    pub ncp: f64,
    /// Expected buyer-facing error at that NCP.
    pub expected_error: f64,
}

/// Reusable buffers for the listed-purchase kernel
/// ([`Broker::quote_batch_into`] and [`Broker::buy_batch_into`]).
///
/// The arena owns one [`Sale`] slot per request position plus the
/// resolve and price buffers. Slots are grown (and their model
/// buffers cloned) only when a batch is larger than any seen before;
/// after one warm-up batch at the steady-state size, repeat batches
/// perform no heap allocation.
#[derive(Debug, Default)]
pub struct SaleArena {
    sales: Vec<Sale>,
    outcomes: Vec<Result<f64, MarketError>>,
    xs: Vec<f64>,
    prices: Vec<f64>,
}

impl SaleArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        SaleArena::default()
    }

    /// Number of requests in the most recent batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` when no batch has been run (or the last batch was empty).
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Per-request outcomes of the most recent batch, in request order:
    /// `Ok` borrows the arena-resident [`Sale`], `Err` the rejection.
    pub fn results(&self) -> impl Iterator<Item = Result<&Sale, &MarketError>> {
        self.outcomes
            .iter()
            .zip(self.sales.iter())
            .map(|(outcome, sale)| match outcome {
                Ok(_) => Ok(sale),
                Err(e) => Err(e),
            })
    }

    /// Moves the most recent batch's outcomes out of a scratch arena.
    pub(crate) fn into_results(self) -> Vec<Result<Sale, MarketError>> {
        self.outcomes
            .into_iter()
            .zip(self.sales)
            .map(|(outcome, sale)| outcome.map(|_| sale))
            .collect()
    }

    /// Settles the most recent batch's sales in request order: each
    /// transaction goes to `sink` (if any), then into `totals`.
    pub(crate) fn settle(
        &self,
        kind: ModelKind,
        sink: Option<&Arc<dyn DurabilitySink>>,
        totals: &mut SalesTotals,
    ) {
        for sale in self.results().flatten() {
            if let Some(sink) = sink {
                sink.record_sale(&Transaction {
                    kind,
                    ncp: sale.ncp,
                    price: sale.price,
                });
            }
            totals.add_sale(kind, sale.price);
        }
    }
}

/// The durable record of one sale: what a [`DurabilitySink`] receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Model type sold.
    pub kind: ModelKind,
    /// NCP of the sold instance.
    pub ncp: f64,
    /// Price paid.
    pub price: f64,
}

/// The buyer-facing price–error curve (Figure 1(C), step 2): quotes of
/// the published listing at chosen NCPs.
#[derive(Debug, Clone)]
pub struct PriceErrorCurve {
    /// Samples in ascending-NCP order.
    pub points: Vec<PriceQuote>,
}

impl PriceErrorCurve {
    /// `true` when price is non-increasing and error non-decreasing along
    /// the curve — the shape the buyer should always see in a well-behaved
    /// market.
    pub fn is_well_formed(&self) -> bool {
        self.points
            .iter()
            .zip(self.points.iter().skip(1))
            .all(|(a, b)| {
                a.ncp <= b.ncp
                    && a.price >= b.price - 1e-9
                    && a.expected_error <= b.expected_error + 1e-9
            })
    }
}

/// Maximum number of requests accepted by one batch call.
///
/// Every batch entry point ([`Broker::buy_batch`],
/// [`Broker::buy_batch_into`], [`Broker::quote_batch_into`],
/// [`Broker::price_batch`] and the `SharedBroker` wrappers) rejects empty
/// batches and batches larger than this cap with
/// [`MarketError::BadRequest`] before resolving the listing. The cap bounds
/// how much work a single caller can queue behind one shared read guard
/// (and, through `mbp-serve`, behind one connection's dispatch turn); the
/// empty-batch rejection turns a front-end bookkeeping bug into a typed
/// error instead of a silent no-op that still pays the listing lookup.
pub const MAX_BATCH: usize = 4096;

/// Shared admission check for all batch entry points: empty and oversized
/// batches are a caller error, reported before any listing state is read.
fn check_batch(requests: &[PurchaseRequest]) -> Result<(), MarketError> {
    if requests.is_empty() {
        return Err(empty_batch());
    }
    if requests.len() > MAX_BATCH {
        return Err(MarketError::BadRequest(format!(
            "batch of {} requests exceeds the MAX_BATCH cap of {MAX_BATCH}",
            requests.len()
        )));
    }
    Ok(())
}

fn empty_batch() -> MarketError {
    MarketError::BadRequest(
        "empty batch: batch entry points require at least one request".to_string(),
    )
}

/// A priced-but-not-purchased resolution of one [`PurchaseRequest`]: the
/// quote path of the network protocol. No model is released, no noise is
/// drawn, and the totals are untouched, so producing one consumes no RNG.
#[derive(Debug, Clone, Copy)]
pub struct PriceQuote {
    /// Resolved noise control parameter.
    pub ncp: f64,
    /// Price at that NCP under the published listing.
    pub price: f64,
    /// Expected buyer-facing error at that NCP.
    pub expected_error: f64,
}

struct MenuEntry {
    model: LinearModel,
    /// Ridge coefficient the instance was trained with. Re-supporting
    /// linear regression at a different ridge re-solves from the cached
    /// Gram factorization instead of being silently ignored.
    ridge: f64,
}

/// A published offer: the pricing function and error transform under which
/// a model type is currently for sale. Re-publishing replaces the whole
/// listing.
struct Listing {
    pricing: PricingFunction,
    transform: Box<dyn ErrorTransform + Send + Sync>,
}

impl Listing {
    /// Resolve pass: every request to its NCP (consumes no RNG), with
    /// precision `1/δ` (NaN for a rejection) recorded for the price pass.
    fn resolve_into(&self, requests: &[PurchaseRequest], arena: &mut SaleArena) {
        arena.outcomes.clear();
        arena.xs.clear();
        for &request in requests {
            let r = resolve_ncp(&self.pricing, self.transform.as_ref(), request);
            arena.xs.push(r.as_ref().map_or(f64::NAN, |&d| 1.0 / d));
            arena.outcomes.push(r);
        }
    }

    /// Price pass: every resolved precision through the listed curve.
    fn price_into(&self, arena: &mut SaleArena) {
        self.pricing.price_at_batch(&arena.xs, &mut arena.prices);
    }

    /// Quotes one request: [`resolve_ncp`], then the price pass's
    /// arithmetic on its precision.
    fn quote(&self, request: PurchaseRequest) -> Result<PriceQuote, MarketError> {
        resolve_ncp(&self.pricing, self.transform.as_ref(), request).map(|ncp| PriceQuote {
            ncp,
            price: self.pricing.price_at(1.0 / ncp),
            expected_error: self.transform.expected_error(ncp),
        })
    }
}

/// The broker: trains optimal instances (one-time cost), derives pricing,
/// and fulfills purchases by injecting fresh noise per sale.
pub struct Broker {
    data: TrainTest,
    mechanism: Box<dyn NoiseMechanism>,
    menu: HashMap<ModelKind, MenuEntry>,
    listings: HashMap<ModelKind, Listing>,
    /// Per-kind sale counts and exact revenue.
    totals: SalesTotals,
    /// Lazily-built ridge solver: the train-split Gram matrix is formed
    /// once, and Cholesky factors are cached per ridge value.
    ridge_solver: Option<RidgeSolver>,
    /// Optional write-ahead observer; see [`crate::market::durability`].
    /// Sale hooks fire at origination sites only, never in
    /// [`Broker::merge_totals`] (the owner drain would double-record).
    durability: Option<Arc<dyn DurabilitySink>>,
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("mechanism", &self.mechanism.name())
            .field("menu_size", &self.menu.len())
            .field("sales", &self.totals.count())
            .finish()
    }
}

impl Broker {
    /// Creates a broker for `data` using the paper's Gaussian mechanism.
    pub fn new(data: TrainTest) -> Self {
        Broker::with_mechanism(data, Box::new(GaussianMechanism))
    }

    /// Creates a broker with a custom (unbiased, calibrated) mechanism.
    pub fn with_mechanism(data: TrainTest, mechanism: Box<dyn NoiseMechanism>) -> Self {
        Broker {
            data,
            mechanism,
            menu: HashMap::new(),
            listings: HashMap::new(),
            totals: SalesTotals::default(),
            ridge_solver: None,
            durability: None,
        }
    }

    /// Attaches a durability sink: every later support, publish, and
    /// completed sale is forwarded to `sink` at its origination site.
    ///
    /// Attach *after* replaying a recovered log into this broker, so the
    /// recovery replay itself is not appended back to the log it came
    /// from.
    pub fn set_durability(&mut self, sink: Arc<dyn DurabilitySink>) {
        self.durability = Some(sink);
    }

    /// Detaches the durability sink, returning it if one was attached.
    pub fn take_durability(&mut self) -> Option<Arc<dyn DurabilitySink>> {
        self.durability.take()
    }

    /// Publishes a standing offer for `kind`: later purchases can go
    /// through [`Broker::buy_listed`] without re-supplying the pricing and
    /// transform on every call. The model must already be on the menu, and
    /// `pricing` must pass [`arbitrage::check`]: a rejected curve is neither
    /// listed nor recorded, and the previous listing keeps serving.
    pub fn publish(
        &mut self,
        kind: ModelKind,
        pricing: PricingFunction,
        transform: Box<dyn ErrorTransform + Send + Sync>,
    ) -> Result<(), MarketError> {
        let _root =
            mbp_obs::trace_root("mbp.core.publish", kind_label(kind), self.mechanism.name());
        if !self.menu.contains_key(&kind) {
            mbp_obs::inc("mbp.core.publish.rejected");
            return Err(MarketError::UnsupportedModel(kind));
        }
        if let Err(witness) = arbitrage::check(&pricing) {
            mbp_obs::inc("mbp.core.publish.rejected");
            return Err(MarketError::NotArbitrageFree(witness));
        }
        if let Some(sink) = &self.durability {
            sink.record_publish(kind, pricing.grid(), pricing.prices());
        }
        self.listings.insert(kind, Listing { pricing, transform });
        mbp_obs::inc("mbp.core.publish.count");
        mbp_obs::event(
            mbp_obs::Verbosity::Info,
            "mbp.core.broker",
            "listing published",
            &[("kind", format!("{kind:?}"))],
        );
        Ok(())
    }

    /// Fulfills one purchase against the *published* listing for `kind`:
    /// [`Broker::buy_batch`] on a batch of one.
    pub fn buy_listed(
        &mut self,
        kind: ModelKind,
        request: PurchaseRequest,
        rng: &mut MbpRng,
    ) -> Result<Sale, MarketError> {
        // A batch of one always yields exactly one outcome.
        self.buy_batch(kind, &[request], rng)?
            .pop()
            .unwrap_or_else(|| Err(empty_batch()))
    }

    /// Batch purchase against the published listing:
    /// [`Broker::buy_batch_into`] on a scratch arena, with the releases
    /// moved out. Returns one result per request, in order; the outer
    /// error fires only when the batch is empty or oversized or `kind` has
    /// no listing.
    pub fn buy_batch(
        &mut self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
    ) -> Result<Vec<Result<Sale, MarketError>>, MarketError> {
        let mut arena = SaleArena::new();
        self.buy_batch_into(kind, requests, rng, &mut arena)?;
        Ok(arena.into_results())
    }

    /// Batch purchase into `arena`: the [`Broker::quote_batch_into`]
    /// kernel, then the successful sales settle in request order — each
    /// transaction to the durability sink, then into the totals. Read
    /// per-request outcomes with [`SaleArena::results`].
    ///
    /// After one warm-up batch at the steady-state batch size, repeat
    /// batches perform no heap allocation.
    pub fn buy_batch_into(
        &mut self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        let _root = buy_root(kind, self.mechanism.name());
        self.listed_kernel(kind, requests, rng, arena)?;
        self.settle_arena(kind, arena);
        Ok(())
    }

    /// Settles `arena`'s most recent kernel batch onto this broker: each
    /// sale goes to the durability sink, then into the totals, in request
    /// order.
    pub(crate) fn settle_arena(&mut self, kind: ModelKind, arena: &SaleArena) {
        arena.settle(kind, self.durability.as_ref(), &mut self.totals);
    }

    /// The listed-purchase kernel: every listed buy runs through it. The
    /// listing and menu entry are resolved once per batch, then three
    /// passes write into `arena`: resolve every request to its NCP (no
    /// RNG), price all precisions in one
    /// [`PricingFunction::price_at_batch`] call, and draw noise strictly in
    /// request order (rejected requests draw nothing). The totals are
    /// untouched — [`Broker::buy_batch_into`], the `SharedBroker` wrapper
    /// and the market simulation settle the arena afterwards.
    ///
    /// Because noise is drawn in request order, splitting a stream into
    /// batches of any size consumes the RNG identically, so result digests
    /// do not depend on how requests were batched. The call opens one
    /// `mbp.core.buy` trace root carrying this thread's pending request
    /// seed, so a traced batch is replayed from that seed.
    pub fn quote_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        let _root = buy_root(kind, self.mechanism.name());
        self.listed_kernel(kind, requests, rng, arena)
    }

    /// The name of the broker's noise mechanism, the `mechanism` label of
    /// its trace roots.
    pub(crate) fn mechanism_name(&self) -> &'static str {
        self.mechanism.name()
    }

    /// Body of [`Broker::quote_batch_into`], run under a caller-owned
    /// `mbp.core.buy` root so that settling callers time their settle
    /// work inside it. Its `mbp.core.buy_batch` span covers the lookup and
    /// the three passes; `.resolve` is the φ-inversion, and the noise pass
    /// is the span's self time.
    pub(crate) fn listed_kernel(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        check_batch(requests)?;
        let _span = mbp_obs::span("mbp.core.buy_batch");
        let listing = self
            .listings
            .get(&kind)
            .ok_or(MarketError::UnsupportedModel(kind))?;
        let entry = self
            .menu
            .get(&kind)
            .ok_or(MarketError::UnsupportedModel(kind))?;
        mbp_obs::counter_add("mbp.core.pricing.table_hit", requests.len() as u64);
        {
            let _resolve = mbp_obs::span("mbp.core.buy_batch.resolve");
            listing.resolve_into(requests, arena);
        }
        {
            let _price = mbp_obs::span("mbp.core.buy_batch.price");
            listing.price_into(arena);
        }
        // Grow the Sale pool to the batch size (warm-up cost only).
        while arena.sales.len() < requests.len() {
            arena.sales.push(Sale {
                model: entry.model.clone(),
                price: 0.0,
                ncp: 0.0,
                expected_error: 0.0,
            });
        }
        let mut served = 0u64;
        let mut revenue = 0.0;
        for ((outcome, sale), &price) in arena
            .outcomes
            .iter()
            .zip(arena.sales.iter_mut())
            .zip(&arena.prices)
        {
            let Ok(&ncp) = outcome.as_ref() else { continue };
            if sale.model.kind() != kind || sale.model.dim() != entry.model.dim() {
                sale.model = entry.model.clone();
            }
            self.mechanism
                .perturb_into(entry.model.weights(), ncp, rng, sale.model.weights_mut());
            if mbp_obs::is_enabled() && ncp > 0.0 {
                // The live Lemma 3 audit: E[‖ĥ − h*‖²] = δ, so the running
                // mean of this ratio on `/metrics` should read 1.
                let err = model_space_square_loss(sale.model.weights(), entry.model.weights());
                mbp_obs::observe("mbp.core.mechanism.lemma3_ratio", err / ncp);
            }
            sale.price = price;
            sale.ncp = ncp;
            sale.expected_error = listing.transform.expected_error(ncp);
            served += 1;
            revenue += price;
        }
        mbp_obs::counter_add("mbp.core.buy.count", served);
        mbp_obs::counter_add("mbp.core.buy.rejected", requests.len() as u64 - served);
        mbp_obs::gauge_add("mbp.core.revenue.total", revenue);
        Ok(())
    }

    /// Prices a batch of requests without purchasing:
    /// [`Broker::price_batch_into`] on a scratch arena and a fresh result
    /// vector.
    pub fn price_batch(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
    ) -> Result<Vec<Result<PriceQuote, MarketError>>, MarketError> {
        let mut quotes = Vec::new();
        self.price_batch_into(kind, requests, &mut SaleArena::new(), &mut quotes)?;
        Ok(quotes)
    }

    /// Prices a batch of requests without purchasing: the network quote
    /// path. Runs the kernel's resolve and price passes only into `arena`
    /// — no model is released, no RNG is consumed, and the totals are
    /// untouched — so a quote storm cannot perturb the noise stream of
    /// interleaved buys. `quotes` is cleared, then holds one result per
    /// request, in order; the outer error fires only when the batch is
    /// empty or oversized or `kind` has no listing.
    ///
    /// After one warm-up batch at the steady-state batch size, repeat
    /// batches whose requests all succeed perform no heap allocation.
    pub fn price_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        arena: &mut SaleArena,
        quotes: &mut Vec<Result<PriceQuote, MarketError>>,
    ) -> Result<(), MarketError> {
        check_batch(requests)?;
        let _span = mbp_obs::span("mbp.core.price_batch");
        let listing = self
            .listings
            .get(&kind)
            .ok_or(MarketError::UnsupportedModel(kind))?;
        mbp_obs::counter_add("mbp.core.pricing.table_hit", requests.len() as u64);
        listing.resolve_into(requests, arena);
        listing.price_into(arena);
        quotes.clear();
        quotes.extend(arena.outcomes.iter().zip(&arena.prices).map(|(r, &price)| {
            r.clone().map(|ncp| PriceQuote {
                ncp,
                price,
                expected_error: listing.transform.expected_error(ncp),
            })
        }));
        Ok(())
    }

    /// The published pricing for `kind`, if any.
    pub fn listed_pricing(&self, kind: ModelKind) -> Option<&PricingFunction> {
        self.listings.get(&kind).map(|l| &l.pricing)
    }

    /// The dataset backing the market.
    pub fn data(&self) -> &TrainTest {
        &self.data
    }

    /// Adds `kind` to the menu, training the optimal instance `h*_λ(D)` on
    /// the train split (the broker's one-time cost).
    ///
    /// Iteratively-trained kinds (logistic, SVM) are idempotent per kind:
    /// repeat calls return the cached instance regardless of `ridge`.
    /// Linear regression instead caches at the factorization level: the
    /// Gram matrix `XᵀX/n` is formed once per broker, Cholesky factors are
    /// cached per ridge value, and re-supporting at a *different* ridge
    /// re-solves from the cached Gram (counted by
    /// `mbp.core.broker.factor_cache_hit`/`miss`) instead of being
    /// silently ignored.
    pub fn support(&mut self, kind: ModelKind, ridge: f64) -> Result<&LinearModel, MarketError> {
        let _span = mbp_obs::span("mbp.core.support");
        mbp_obs::inc("mbp.core.support.count");
        let cached_ridge = self.menu.get(&kind).map(|e| e.ridge);
        let needs_training = match (kind, cached_ridge) {
            (_, None) => true,
            (ModelKind::LinearRegression, Some(prev)) => prev.to_bits() != ridge.to_bits(),
            (_, Some(_)) => false,
        };
        if needs_training {
            mbp_obs::inc("mbp.core.support.trained");
            mbp_obs::event(
                mbp_obs::Verbosity::Info,
                "mbp.core.broker",
                "training optimal instance",
                &[("kind", format!("{kind:?}")), ("ridge", format!("{ridge}"))],
            );
            let weights = match kind {
                ModelKind::LinearRegression => {
                    // take/insert instead of is_none/as_mut so the solver is
                    // reachable without an `expect` between the two steps.
                    let solver = match self.ridge_solver.take() {
                        Some(s) => self.ridge_solver.insert(s),
                        None => self
                            .ridge_solver
                            .insert(RidgeSolver::new(&self.data.train)?),
                    };
                    if solver.has_factor(ridge) {
                        mbp_obs::inc("mbp.core.broker.factor_cache_hit");
                    } else {
                        mbp_obs::inc("mbp.core.broker.factor_cache_miss");
                    }
                    solver.solve(ridge)?
                }
                ModelKind::LogisticRegression => {
                    newton_logistic(
                        &LogisticLoss::ridge(ridge),
                        &self.data.train,
                        TrainConfig::default(),
                    )
                    .weights
                }
                ModelKind::LinearSvm => {
                    let mu = if ridge > 0.0 { ridge } else { 1e-3 };
                    gradient_descent(
                        &SmoothedHingeLoss::new(mu, 0.5),
                        &self.data.train,
                        TrainConfig::default(),
                    )
                    .weights
                }
            };
            self.menu.insert(
                kind,
                MenuEntry {
                    model: LinearModel::new(kind, weights),
                    ridge,
                },
            );
            // Only actual (re)training is durable: replaying the same
            // support sequence re-derives identical weights, and repeat
            // same-ridge calls add nothing to recovery.
            if let Some(sink) = &self.durability {
                sink.record_support(kind, ridge);
            }
        } else if kind == ModelKind::LinearRegression {
            // Same (kind, ridge) already on the menu: a pure cache hit.
            mbp_obs::inc("mbp.core.broker.factor_cache_hit");
        }
        self.menu
            .get(&kind)
            .map(|entry| &entry.model)
            .ok_or(MarketError::UnsupportedModel(kind))
    }

    /// Number of distinct ridge factorizations cached for linear
    /// regression (0 before the first [`Broker::support`] call).
    pub fn factor_cache_size(&self) -> usize {
        self.ridge_solver
            .as_ref()
            .map_or(0, RidgeSolver::factor_count)
    }

    /// The cached optimal instance for `kind`, if supported.
    pub fn optimal_model(&self, kind: ModelKind) -> Option<&LinearModel> {
        self.menu.get(&kind).map(|e| &e.model)
    }

    /// Derives the revenue-maximizing arbitrage-free pricing from a
    /// seller's market research (Figure 2(b)→(c): the Theorem 10 DP on the
    /// buyer population).
    pub fn price_from_research(&self, seller: &Seller) -> RevenueSolution {
        solve_bv_dp(&seller.buyer_population())
    }

    /// Samples the published listing for `kind` at `ncps` (step 2 of the
    /// broker–buyer interaction): each point is the quote of an
    /// [`PurchaseRequest::AtNcp`] request, resolved and priced as a sale
    /// is, in ascending-NCP order.
    ///
    /// # Errors
    /// [`MarketError::UnsupportedModel`] when `kind` has no listing;
    /// [`MarketError::BadRequest`] when an NCP is not positive and finite.
    pub fn price_error_curve(
        &self,
        kind: ModelKind,
        ncps: &[f64],
    ) -> Result<PriceErrorCurve, MarketError> {
        let listing = self
            .listings
            .get(&kind)
            .ok_or(MarketError::UnsupportedModel(kind))?;
        let mut points = ncps
            .iter()
            .map(|&ncp| listing.quote(PurchaseRequest::AtNcp(ncp)))
            .collect::<Result<Vec<_>, _>>()?;
        points.sort_by(|a, b| a.ncp.total_cmp(&b.ncp));
        Ok(PriceErrorCurve { points })
    }

    /// Adds sales counted elsewhere to this broker's totals without
    /// forwarding them to the durability sink: the merge step for sales
    /// that are already durable (WAL recovery, and
    /// [`SharedBroker::with_broker`] draining its owners). New sales
    /// settle through the purchase entry points, which do record them.
    ///
    /// [`SharedBroker::with_broker`]: crate::market::concurrent::SharedBroker::with_broker
    pub fn merge_totals(&mut self, totals: &SalesTotals) {
        self.totals.merge(totals);
    }

    /// Per-kind sale counts and exact revenue.
    pub fn totals(&self) -> &SalesTotals {
        &self.totals
    }

    /// Number of completed sales.
    pub fn sales_count(&self) -> u64 {
        self.totals.count()
    }

    /// Total revenue collected so far: the exact sum of every sale's
    /// price, rounded once.
    pub fn total_revenue(&self) -> f64 {
        self.totals.revenue()
    }
}

/// Resolves a purchase request to the NCP of the instance to release,
/// against a listing's pricing curve and error transform: the one
/// request→NCP rule of the market. The broker's kernel resolves every
/// sale and quote through it, and a request is then priced `p̄(1/δ)` by
/// [`PricingFunction::price_at`].
///
/// # Errors
/// [`MarketError::BadRequest`] for a non-positive or non-finite NCP or a
/// negative or non-finite budget; [`MarketError::UnachievableError`] when
/// φ has no positive inverse at the error budget (an error at or below the
/// noiseless floor would need δ ≤ 0);
/// [`MarketError::InsufficientBudget`] when the budget buys no positive
/// precision. Budgets at or above the saturation price buy the grid's
/// most precise point.
pub fn resolve_ncp(
    pricing: &PricingFunction,
    transform: &dyn ErrorTransform,
    request: PurchaseRequest,
) -> Result<f64, MarketError> {
    match request {
        PurchaseRequest::AtNcp(d) => {
            if !(d > 0.0 && d.is_finite()) {
                return Err(MarketError::BadRequest(format!(
                    "NCP must be positive and finite, got {d}"
                )));
            }
            Ok(d)
        }
        PurchaseRequest::ErrorBudget(eps) => transform
            .ncp_for_error(eps)
            .filter(|&d| d > 0.0)
            .ok_or(MarketError::UnachievableError(eps)),
        PurchaseRequest::PriceBudget(budget) => {
            if !(budget >= 0.0 && budget.is_finite()) {
                return Err(MarketError::BadRequest(format!(
                    "budget must be non-negative, got {budget}"
                )));
            }
            let x = pricing
                .max_precision_for_budget(budget)
                .ok_or(MarketError::InsufficientBudget(budget))?;
            // Budgets at/above the saturation price buy the most precise
            // version on the menu grid (never the noiseless model: the
            // grid caps precision). The curve validates a non-empty grid;
            // an empty one degrades to 0.0, which is InsufficientBudget.
            let x = x.min(pricing.grid().last().copied().unwrap_or(0.0));
            if x <= 0.0 {
                return Err(MarketError::InsufficientBudget(budget));
            }
            Ok(1.0 / x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{LinRegSquareTransform, SquareLossTransform};
    use crate::market::curves::{grid, DemandShape, ValueShape};
    use mbp_data::synth;
    use mbp_randx::seeded_rng;

    fn market_data(seed: u64) -> TrainTest {
        let mut rng = seeded_rng(seed);
        let ds = synth::simulated1(600, 5, 0.5, &mut rng);
        ds.split(0.75, &mut rng)
    }

    fn simple_pricing() -> PricingFunction {
        let g: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p: Vec<f64> = g.iter().map(|x| 10.0 * x.sqrt()).collect();
        PricingFunction::from_points(g, p).unwrap()
    }

    /// A broker with linear regression on the menu, listed at
    /// [`simple_pricing`] under the identity transform.
    fn listed_broker(seed: u64) -> Broker {
        let mut broker = Broker::new(market_data(seed));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        broker
            .publish(
                ModelKind::LinearRegression,
                simple_pricing(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        broker
    }

    #[test]
    fn support_is_idempotent_one_time_cost() {
        let mut broker = Broker::new(market_data(1));
        let w1 = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        let w2 = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(w1, w2);
        assert!(broker.optimal_model(ModelKind::LinearRegression).is_some());
        assert!(broker.optimal_model(ModelKind::LinearSvm).is_none());
    }

    #[test]
    fn buy_at_ncp_charges_curve_price() {
        let mut broker = listed_broker(2);
        let pricing = simple_pricing();
        let mut rng = seeded_rng(7);
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert!((sale.price - pricing.price_for_ncp(0.5)).abs() < 1e-12);
        assert_eq!(sale.ncp, 0.5);
        assert_eq!(broker.sales_count(), 1);
        assert_eq!(broker.total_revenue(), sale.price);
    }

    #[test]
    fn error_budget_buys_cheapest_adequate_model() {
        let mut broker = listed_broker(3);
        let mut rng = seeded_rng(8);
        // With the identity transform, error budget 2.0 ⇒ δ = 2.0.
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::ErrorBudget(2.0),
                &mut rng,
            )
            .unwrap();
        assert!((sale.ncp - 2.0).abs() < 1e-12);
        assert!(sale.expected_error <= 2.0 + 1e-12);
    }

    #[test]
    fn price_budget_buys_most_accurate_affordable() {
        let mut broker = listed_broker(4);
        let mut rng = seeded_rng(9);
        let budget = 20.0; // p̄(x) = 10√x = 20 ⇒ x = 4 ⇒ δ = 0.25
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::PriceBudget(budget),
                &mut rng,
            )
            .unwrap();
        assert!(sale.price <= budget + 1e-9);
        assert!((sale.ncp - 0.25).abs() < 1e-9, "ncp {}", sale.ncp);
        // A huge budget buys the top-of-grid precision (x = 10).
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::PriceBudget(1e6),
                &mut rng,
            )
            .unwrap();
        assert!((sale.ncp - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unsupported_model_is_rejected() {
        let mut broker = Broker::new(market_data(5));
        let mut rng = seeded_rng(10);
        let err = broker
            .buy_listed(ModelKind::LinearSvm, PurchaseRequest::AtNcp(1.0), &mut rng)
            .unwrap_err();
        assert!(matches!(err, MarketError::UnsupportedModel(_)));
    }

    #[test]
    fn unachievable_error_budget_is_rejected() {
        let data = market_data(6);
        let mut broker = Broker::new(data);
        let h = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        let transform = LinRegSquareTransform::new(&broker.data().test.clone(), &h);
        let floor = transform.base();
        broker
            .publish(
                ModelKind::LinearRegression,
                simple_pricing(),
                Box::new(transform),
            )
            .unwrap();
        let mut rng = seeded_rng(11);
        // Ask for error below the noiseless floor.
        let err = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::ErrorBudget(floor * 0.5),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, MarketError::UnachievableError(_)));
    }

    /// Theorem 6's error-unit price `p̄∘φ` is the sale rule: an error
    /// budget resolves through [`resolve_ncp`], then prices `p̄(1/δ)`. An
    /// error that needs δ ≤ 0, a noiseless release, is unachievable.
    #[test]
    fn error_budget_prices_by_the_sale_rule() {
        let p = simple_pricing();
        let price = |err| {
            resolve_ncp(&p, &SquareLossTransform, PurchaseRequest::ErrorBudget(err))
                .map(|d| p.price_at(1.0 / d))
        };
        // With ε_s, error IS the NCP: error 2.0 ⇒ δ = 2 ⇒ x = 0.5 ⇒ price 5.
        assert!((price(2.0).unwrap() - 5.0).abs() < 1e-12);
        // Lower error costs more.
        assert!(price(0.5).unwrap() > price(2.0).unwrap());
        for err in [-1.0, 0.0] {
            assert!(
                matches!(price(err), Err(MarketError::UnachievableError(e)) if e == err),
                "error {err}"
            );
        }
    }

    #[test]
    fn price_error_curve_is_well_formed() {
        let broker = listed_broker(12);
        let ncps: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        let curve = broker
            .price_error_curve(ModelKind::LinearRegression, &ncps)
            .unwrap();
        assert_eq!(curve.points.len(), 20);
        assert!(curve.is_well_formed());
        // The curve samples the listing: an unlisted kind has none.
        assert!(matches!(
            broker.price_error_curve(ModelKind::LinearSvm, &ncps),
            Err(MarketError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn seller_research_to_pricing_pipeline() {
        let data = market_data(13);
        let seller = Seller::new(
            data,
            grid(20.0, 100.0, 9),
            ValueCurve::new(ValueShape::Concave { power: 2.0 }, 0.0, 100.0),
            DemandCurve::new(DemandShape::Uniform),
        );
        let broker = Broker::new(market_data(14));
        let sol = broker.price_from_research(&seller);
        // Resulting prices live on the seller's grid and are feasible.
        assert_eq!(sol.pricing.grid().len(), 9);
        assert!(sol.objective > 0.0);
    }

    #[test]
    fn published_listing_sells_without_resupplying_pricing() {
        let mut broker = Broker::new(market_data(21));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let pricing = simple_pricing();
        broker
            .publish(
                ModelKind::LinearRegression,
                pricing.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        assert_eq!(
            broker.listed_pricing(ModelKind::LinearRegression).unwrap(),
            &pricing
        );
        let mut rng = seeded_rng(22);
        let sale = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert!((sale.price - pricing.price_for_ncp(0.5)).abs() < 1e-12);
        assert_eq!(broker.sales_count(), 1);
        // Unlisted model types are rejected.
        assert!(matches!(
            broker.buy_listed(ModelKind::LinearSvm, PurchaseRequest::AtNcp(1.0), &mut rng),
            Err(MarketError::UnsupportedModel(_))
        ));
        // Publishing an unsupported model is rejected.
        assert!(matches!(
            broker.publish(ModelKind::LinearSvm, pricing, Box::new(SquareLossTransform)),
            Err(MarketError::UnsupportedModel(_))
        ));
    }

    /// Every listed entry point serves one mixed stream identically: the
    /// same per-request outcomes and sale bits, the same totals and
    /// durability records, and the same RNG position afterwards. The
    /// affine φ inverse is exercised through a real regression transform.
    #[test]
    fn listed_entry_points_serve_one_stream_identically() {
        use crate::market::concurrent::SharedBroker;
        use crate::market::durability::SaleLog;
        use rand::Rng;

        const KIND: ModelKind = ModelKind::LinearRegression;
        type Outcome = Result<(u64, u64, u64, Vec<u64>), String>;
        type EntryPoint = fn(
            Broker,
            Arc<SaleLog>,
            &[PurchaseRequest],
            &mut MbpRng,
        ) -> (Vec<Outcome>, SalesTotals);

        fn outcome(r: Result<&Sale, &MarketError>) -> Outcome {
            r.map(|s| {
                let w = s.model.weights().as_slice().iter().map(|w| w.to_bits());
                let bits = |x: f64| x.to_bits();
                (
                    bits(s.price),
                    bits(s.ncp),
                    bits(s.expected_error),
                    w.collect(),
                )
            })
            .map_err(|e| format!("{e:?}"))
        }
        let listed = || {
            let mut broker = Broker::new(market_data(32));
            let h = broker.support(KIND, 0.0).unwrap().weights().clone();
            let transform = LinRegSquareTransform::new(&broker.data().test.clone(), &h);
            let floor = transform.base();
            broker
                .publish(KIND, simple_pricing(), Box::new(transform))
                .unwrap();
            (broker, floor)
        };
        let floor = listed().1;
        let stream = [
            PurchaseRequest::AtNcp(1.0),
            PurchaseRequest::ErrorBudget(floor + 0.7),
            PurchaseRequest::AtNcp(-1.0), // BadRequest
            PurchaseRequest::PriceBudget(25.0),
            PurchaseRequest::ErrorBudget(floor * 0.5), // UnachievableError
            PurchaseRequest::AtNcp(0.25),
            PurchaseRequest::PriceBudget(0.0), // InsufficientBudget
            PurchaseRequest::PriceBudget(1e6),
        ];

        let entry_points: [(&str, EntryPoint); 6] = [
            ("buy_listed", |mut b, log, reqs, rng| {
                b.set_durability(log);
                let outcomes = reqs
                    .iter()
                    .map(|&r| outcome(b.buy_listed(KIND, r, rng).as_ref()))
                    .collect();
                (outcomes, b.totals().clone())
            }),
            ("buy_batch", |mut b, log, reqs, rng| {
                b.set_durability(log);
                let sales = b.buy_batch(KIND, reqs, rng).unwrap();
                let outcomes = sales.iter().map(|r| outcome(r.as_ref())).collect();
                (outcomes, b.totals().clone())
            }),
            ("buy_batch_into", |mut b, log, reqs, rng| {
                b.set_durability(log);
                let mut arena = SaleArena::new();
                let mut outcomes = Vec::new();
                // A smaller second batch reuses warmed Sale slots.
                for chunk in [&reqs[..5], &reqs[5..]] {
                    b.buy_batch_into(KIND, chunk, rng, &mut arena).unwrap();
                    outcomes.extend(arena.results().map(outcome));
                }
                (outcomes, b.totals().clone())
            }),
            ("quote_batch_into", |b, log, reqs, rng| {
                let mut arena = SaleArena::new();
                b.quote_batch_into(KIND, reqs, rng, &mut arena).unwrap();
                assert_eq!(b.sales_count(), 0, "the kernel must not settle");
                let mut totals = SalesTotals::default();
                let sink: Arc<dyn DurabilitySink> = log;
                arena.settle(KIND, Some(&sink), &mut totals);
                (arena.results().map(outcome).collect(), totals)
            }),
            ("SharedBroker::buy_batch_into", |b, log, reqs, rng| {
                let shared = SharedBroker::with_durability(b, log);
                let mut arena = SaleArena::new();
                shared.buy_batch_into(KIND, reqs, rng, &mut arena).unwrap();
                let outcomes = arena.results().map(outcome).collect();
                (outcomes, shared.with_broker(|b| b.totals().clone()))
            }),
            ("SharedBroker::buy_batch", |b, log, reqs, rng| {
                let shared = SharedBroker::with_durability(b, log);
                let sales = shared.buy_batch(KIND, reqs, rng).unwrap();
                let outcomes = sales.iter().map(|r| outcome(r.as_ref())).collect();
                (outcomes, shared.with_broker(|b| b.totals().clone()))
            }),
        ];

        let mut runs = entry_points.iter().map(|&(name, serve)| {
            let log = Arc::new(SaleLog::default());
            let mut rng = seeded_rng(33);
            let (outcomes, totals) = serve(listed().0, Arc::clone(&log), &stream, &mut rng);
            let recorded = log.lock().clone();
            (name, outcomes, totals, recorded, rng.gen::<u64>())
        });
        let (_, outcomes, totals, recorded, next_draw) = runs.next().unwrap();
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 3);
        assert_eq!(recorded.len(), stream.len() - 3);
        let mut counted = SalesTotals::default();
        for tx in &recorded {
            counted.add_sale(tx.kind, tx.price);
        }
        assert_eq!(totals, counted);
        for (name, o, t, r, d) in runs {
            assert_eq!(o, outcomes, "{name}: outcomes");
            assert_eq!(t, totals, "{name}: totals");
            assert_eq!(r, recorded, "{name}: durability records");
            assert_eq!(d, next_draw, "{name}: RNG position");
        }

        // Unknown kinds fail at the batch level, not per request.
        let (mut broker, _) = listed();
        let mut arena = SaleArena::new();
        assert!(matches!(
            broker.buy_batch_into(
                ModelKind::LinearSvm,
                &stream,
                &mut seeded_rng(33),
                &mut arena
            ),
            Err(MarketError::UnsupportedModel(_))
        ));
    }

    /// A batch deliberately shuffled across every evaluation class (ray,
    /// interior segments, saturation, rejections) returns exactly what a
    /// sequential loop returns, position by position, bit for bit.
    #[test]
    fn batch_kernel_preserves_request_order_across_segments() {
        let mut seq = Broker::new(market_data(40));
        let mut bat = Broker::new(market_data(40));
        for broker in [&mut seq, &mut bat] {
            broker.support(ModelKind::LinearRegression, 0.0).unwrap();
            broker
                .publish(
                    ModelKind::LinearRegression,
                    simple_pricing(),
                    Box::new(SquareLossTransform),
                )
                .unwrap();
        }
        // simple_pricing has knots 1..=10: NCP 1/x walks every segment.
        // Shuffled so neighbouring requests land in different bins.
        let requests: Vec<PurchaseRequest> = [
            0.05,
            9.5,
            2.3,
            0.11,
            7.7,
            -3.0,
            1.0,
            4.2,
            0.5,
            12.0,
            3.9,
            0.09,
            6.1,
            5.5,
            8.8,
            2.0,
            1.4,
            0.25,
            f64::NAN,
            10.0,
        ]
        .into_iter()
        .map(PurchaseRequest::AtNcp)
        .collect();
        let mut rng_seq = seeded_rng(41);
        let mut rng_bat = seeded_rng(41);
        let sequential: Vec<Result<Sale, MarketError>> = requests
            .iter()
            .map(|&r| seq.buy_listed(ModelKind::LinearRegression, r, &mut rng_seq))
            .collect();
        let batched = bat
            .buy_batch(ModelKind::LinearRegression, &requests, &mut rng_bat)
            .unwrap();
        // Digest both sides in request order: any scatter misordering or
        // arithmetic drift changes the fold.
        let digest = |sales: &[Result<Sale, MarketError>]| -> u64 {
            sales.iter().enumerate().fold(0u64, |h, (i, r)| {
                let word = match r {
                    Ok(s) => s
                        .model
                        .weights()
                        .as_slice()
                        .iter()
                        .fold(s.price.to_bits() ^ s.ncp.to_bits(), |a, w| {
                            a.rotate_left(7) ^ w.to_bits()
                        }),
                    Err(_) => 0xDEAD,
                };
                h.rotate_left(11) ^ word ^ i as u64
            })
        };
        let seq_results: Vec<Result<Sale, MarketError>> = sequential;
        assert_eq!(seq_results.len(), batched.len());
        for (i, (s, b)) in seq_results.iter().zip(&batched).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => {
                    assert_eq!(s.price.to_bits(), b.price.to_bits(), "request {i}");
                    assert_eq!(s.ncp.to_bits(), b.ncp.to_bits(), "request {i}");
                    assert_eq!(s.model.weights(), b.model.weights(), "request {i}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("request {i}: outcome mismatch"),
            }
        }
        assert_eq!(digest(&seq_results), digest(&batched));
    }

    /// Linear regression re-supports at new ridges from the cached Gram
    /// factorization; returning to an earlier ridge reuses its factor and
    /// reproduces the exact same weights.
    #[test]
    fn support_caches_factorizations_across_ridges() {
        let mut broker = Broker::new(market_data(36));
        assert_eq!(broker.factor_cache_size(), 0);
        let w0 = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(broker.factor_cache_size(), 1);
        let w1 = broker
            .support(ModelKind::LinearRegression, 0.5)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(broker.factor_cache_size(), 2);
        assert_ne!(w0, w1, "different ridges must give different instances");
        // Round-trip back to the first ridge: solved from the cached
        // factor, bit-identical to the first training.
        let w0_again = broker
            .support(ModelKind::LinearRegression, 0.0)
            .unwrap()
            .weights()
            .clone();
        assert_eq!(w0, w0_again);
        assert_eq!(broker.factor_cache_size(), 2);
    }

    /// Re-publishing swaps in the new curve: quotes served after the swap
    /// follow the new pricing, never the old one.
    #[test]
    fn republish_replaces_the_listed_curve() {
        let mut broker = Broker::new(market_data(37));
        broker.support(ModelKind::LinearRegression, 0.0).unwrap();
        let cheap = simple_pricing();
        broker
            .publish(
                ModelKind::LinearRegression,
                cheap.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        let mut rng = seeded_rng(38);
        let before = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert_eq!(before.price, cheap.price_for_ncp(0.5));
        let pricey = PricingFunction::from_points(
            cheap.grid().to_vec(),
            cheap.prices().iter().map(|p| p * 3.0).collect(),
        )
        .unwrap();
        broker
            .publish(
                ModelKind::LinearRegression,
                pricey.clone(),
                Box::new(SquareLossTransform),
            )
            .unwrap();
        let after = broker
            .buy_listed(
                ModelKind::LinearRegression,
                PurchaseRequest::AtNcp(0.5),
                &mut rng,
            )
            .unwrap();
        assert_eq!(after.price, pricey.price_for_ncp(0.5));
        assert_eq!(
            broker.listed_pricing(ModelKind::LinearRegression),
            Some(&pricey)
        );
    }

    #[test]
    fn sales_are_noisy_but_unbiased_around_h_star() {
        let mut broker = listed_broker(15);
        let h_star = broker
            .optimal_model(ModelKind::LinearRegression)
            .unwrap()
            .weights()
            .clone();
        let mut rng = seeded_rng(16);
        let mut mean = mbp_linalg::Vector::zeros(h_star.len());
        let reps = 3000;
        for _ in 0..reps {
            let sale = broker
                .buy_listed(
                    ModelKind::LinearRegression,
                    PurchaseRequest::AtNcp(1.0),
                    &mut rng,
                )
                .unwrap();
            mean.axpy(1.0 / reps as f64, sale.model.weights()).unwrap();
        }
        let bias = mean.sub(&h_star).unwrap().norm2();
        assert!(bias < 0.05, "bias {bias}");
        assert_eq!(broker.sales_count(), reps as u64);
    }
}
