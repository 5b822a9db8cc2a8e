//! A thread-safe broker front-end with per-handle sale totals.
//!
//! A real marketplace serves many buyers concurrently. The expensive part of
//! a purchase — training the noisy instance and pricing it — only *reads*
//! broker state (menu, curve, data), so concurrent buys quote under a shared
//! `RwLock` read guard and never exclude each other. The only mutation a buy
//! performs is counting its sales into [`SalesTotals`], and each
//! [`SharedBroker`] handle counts into its own: a `clone()` is a new owner
//! with its own mutex, so buyers that each hold a handle (the daemon gives
//! every IO worker one) settle without excluding each other, and only
//! readers ever touch an owner's lock from another thread. Readers
//! ([`SharedBroker::totals`], [`SharedBroker::with_broker`]) visit the owners
//! one at a time through a registry; maintenance merges them into the core
//! broker's totals under the write lock. Revenue is an exact sum, so where a
//! sale is counted and the merge order cannot change a bit: the reconciled
//! totals equal those of one broker that made the same sales in any order,
//! and a WAL replay reproduces them.
//!
//! The lock hierarchy is `registry → owner` for readers and `owner → sink`
//! for a settling buy. No path holds two owners' locks, and none holds an
//! owner's lock and the core lock at once.
//!
//! Contention (a buy arriving while maintenance holds the core lock, or
//! while a reader visits its owner) is counted both in the process-global
//! `mbp.core.sharedbroker.contention` counter and in a broker-wide counter
//! ([`SharedBroker::contention_count`]) that tests can read race-free.
//! One global mutex would serialize every buy; the stress test below shows
//! the per-handle path records strictly less contention on the same
//! workload.

use crate::error::ErrorTransform;
use crate::market::agents::{
    buy_root, Broker, MarketError, PriceQuote, PurchaseRequest, Sale, SaleArena,
};
use crate::market::durability::DurabilitySink;
use crate::market::totals::SalesTotals;
use crate::pricing::PricingFunction;
use mbp_ml::ModelKind;
use mbp_randx::MbpRng;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One handle's unreconciled sale totals.
type Owner = Arc<Mutex<SalesTotals>>;

struct SharedState {
    /// Menu, pricing curve, training data, and the *reconciled* totals.
    core: RwLock<Broker>,
    /// The owner of every live handle, one entry each. Readers hold this
    /// lock while they visit the owners, so a handle that joins or leaves
    /// never hides a sale from them.
    owners: Mutex<Vec<Owner>>,
    /// Broker-wide mirror of `mbp.core.sharedbroker.contention`.
    contention: AtomicU64,
    /// Optional write-ahead observer for the buy paths. Sale records are
    /// emitted *while the owner's lock is held*, so the lock hierarchy
    /// stays `owner → sink` (the sink never takes broker locks; see
    /// [`DurabilitySink`]).
    durability: Option<Arc<dyn DurabilitySink>>,
    /// The broker's mechanism name, read once so that a buy opens its
    /// trace root before it waits for the core lock.
    mechanism: &'static str,
}

/// A cloneable, thread-safe handle to a broker. Each handle counts its
/// own sales; `clone()` makes a new, empty owner, and dropping a handle
/// folds its totals into another live one.
pub struct SharedBroker {
    inner: Arc<SharedState>,
    owner: Owner,
}

impl Clone for SharedBroker {
    fn clone(&self) -> Self {
        Self::join(Arc::clone(&self.inner))
    }
}

impl Drop for SharedBroker {
    /// Leaves the registry and hands this handle's totals to the first
    /// remaining owner, under the registry lock, so no reader sees the
    /// sales twice or not at all. The last handle takes its totals with
    /// the broker.
    fn drop(&mut self) {
        let mut owners = self.inner.owners.lock();
        owners.retain(|o| !Arc::ptr_eq(o, &self.owner));
        // Out of the registry, this handle holds the only reference.
        if let (Some(heir), Some(mine)) = (owners.first(), Arc::get_mut(&mut self.owner)) {
            heir.lock().merge(mine.get_mut());
        }
    }
}

impl SharedBroker {
    /// Wraps a broker (train the menu with [`Broker::support`] first, or
    /// through [`SharedBroker::support`]).
    pub fn new(broker: Broker) -> Self {
        Self::wrap(broker, None)
    }

    fn wrap(broker: Broker, durability: Option<Arc<dyn DurabilitySink>>) -> Self {
        Self::join(Arc::new(SharedState {
            mechanism: broker.mechanism_name(),
            core: RwLock::new(broker),
            owners: Mutex::new(Vec::new()),
            contention: AtomicU64::new(0),
            durability,
        }))
    }

    /// A new handle on `inner` with an empty, registered owner.
    fn join(inner: Arc<SharedState>) -> Self {
        let owner = Owner::default();
        inner.owners.lock().push(Arc::clone(&owner));
        SharedBroker { inner, owner }
    }

    /// Wraps a broker with a durability sink attached: the buy paths
    /// forward every settled transaction to `sink` under the owner's
    /// lock, and maintenance mutations (support/publish through the core
    /// write lock) are forwarded by the inner [`Broker`] itself.
    ///
    /// Call this *after* recovery has replayed an existing log into
    /// `broker`, so the replay is not re-recorded.
    pub fn with_durability(mut broker: Broker, sink: Arc<dyn DurabilitySink>) -> Self {
        broker.set_durability(Arc::clone(&sink));
        Self::wrap(broker, Some(sink))
    }

    fn note_contention(&self) {
        self.inner.contention.fetch_add(1, Ordering::Relaxed);
        mbp_obs::inc("mbp.core.sharedbroker.contention");
    }

    /// Locks this handle's owner, counting a contended acquisition when
    /// the uncontended `try_lock` fails (a reader is visiting it). The
    /// blocking wait is an `mbp.core.lock_wait` span.
    fn lock_owner(&self) -> MutexGuard<'_, SalesTotals> {
        match self.owner.try_lock() {
            Some(g) => g,
            None => {
                self.note_contention();
                let _wait = mbp_obs::span("mbp.core.lock_wait");
                self.owner.lock()
            }
        }
    }

    /// Takes the shared core read guard, counting a contended acquisition
    /// when the uncontended `try_read` fails (maintenance holds the write
    /// lock). The blocking wait is an `mbp.core.lock_wait` span.
    fn read_core(&self) -> RwLockReadGuard<'_, Broker> {
        match self.inner.core.try_read() {
            Some(g) => g,
            None => {
                self.note_contention();
                let _wait = mbp_obs::span("mbp.core.lock_wait");
                self.inner.core.read()
            }
        }
    }

    /// Adds a model to the menu (delegates to [`Broker::support`]).
    pub fn support(&self, kind: ModelKind, ridge: f64) -> Result<(), MarketError> {
        self.inner.core.write().support(kind, ridge).map(|_| ())
    }

    /// Publishes a standing offer (delegates to [`Broker::publish`], which
    /// compiles the serving-side pricing table under the write lock).
    pub fn publish(
        &self,
        kind: ModelKind,
        pricing: PricingFunction,
        transform: Box<dyn ErrorTransform + Send + Sync>,
    ) -> Result<(), MarketError> {
        self.inner.core.write().publish(kind, pricing, transform)
    }

    /// Thread-safe batch purchase against the published listing for `kind`:
    /// [`SharedBroker::buy_batch_into`] on a scratch arena, with the
    /// releases moved out. Per-request failures are returned inline; the
    /// outer error fires only when the batch is empty or oversized or
    /// `kind` has no listing.
    pub fn buy_batch(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
    ) -> Result<Vec<Result<Sale, MarketError>>, MarketError> {
        let mut arena = SaleArena::new();
        self.buy_batch_into(kind, requests, rng, &mut arena)?;
        Ok(arena.into_results())
    }

    /// Zero-allocation thread-safe batch purchase: the network serving
    /// path. The [`Broker::quote_batch_into`] kernel runs into `arena`
    /// under one shared read guard (no totals mutation), then the
    /// successful sales settle into this handle's owner under one lock
    /// acquisition, so lock traffic is amortized across the batch. Prices,
    /// noise draws, and RNG consumption are bit-identical to
    /// [`Broker::buy_batch_into`] on an unshared broker; only where the
    /// sales are counted differs (the handle's owner instead of the core
    /// totals), and [`SharedBroker::with_broker`] reconciles that. The
    /// `mbp.core.buy` root opens before either lock, so a contended wait
    /// is a span of the buy's own trace. After one warm-up batch at the
    /// steady-state size, repeat calls perform no heap allocation.
    pub fn buy_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        rng: &mut MbpRng,
        arena: &mut SaleArena,
    ) -> Result<(), MarketError> {
        let _root = buy_root(kind, self.inner.mechanism);
        self.read_core().listed_kernel(kind, requests, rng, arena)?;
        let mut guard = self.lock_owner();
        arena.settle(kind, self.inner.durability.as_ref(), &mut guard);
        Ok(())
    }

    /// Thread-safe batched quote-only path (no purchase, no RNG, no
    /// settlement): [`SharedBroker::price_batch_into`] on a scratch arena and
    /// a fresh result vector.
    pub fn price_batch(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
    ) -> Result<Vec<Result<PriceQuote, MarketError>>, MarketError> {
        let mut quotes = Vec::new();
        self.price_batch_into(kind, requests, &mut SaleArena::new(), &mut quotes)?;
        Ok(quotes)
    }

    /// Zero-allocation thread-safe quote path: resolves and prices every
    /// request into `arena` and `quotes` under a shared read guard via
    /// [`Broker::price_batch_into`].
    pub fn price_batch_into(
        &self,
        kind: ModelKind,
        requests: &[PurchaseRequest],
        arena: &mut SaleArena,
        quotes: &mut Vec<Result<PriceQuote, MarketError>>,
    ) -> Result<(), MarketError> {
        self.read_core()
            .price_batch_into(kind, requests, arena, quotes)
    }

    /// Sale totals so far: the reconciled totals plus every owner's.
    pub fn totals(&self) -> SalesTotals {
        let mut totals = self.inner.core.read().totals().clone();
        for owner in self.inner.owners.lock().iter() {
            totals.merge(&owner.lock());
        }
        totals
    }

    /// Total revenue collected so far (reconciled plus unreconciled).
    pub fn total_revenue(&self) -> f64 {
        self.totals().revenue()
    }

    /// Number of completed sales (reconciled plus unreconciled).
    pub fn sales_count(&self) -> u64 {
        self.totals().count()
    }

    /// Number of contended lock acquisitions observed by this broker's
    /// handles (mirrors the `mbp.core.sharedbroker.contention` obs counter
    /// but is scoped to this broker, so tests can compare workloads
    /// race-free).
    pub fn contention_count(&self) -> u64 {
        self.inner.contention.load(Ordering::Relaxed)
    }

    /// Runs `f` with exclusive access to the underlying broker (for
    /// maintenance operations that need more than one call atomically).
    ///
    /// Every owner's totals are merged into the core broker's before `f`
    /// runs, so `f` sees a fully reconciled broker. The sums are exact, so
    /// the merge gives the same bits whatever order the sales settled in.
    ///
    /// The drain completes *before* the write guard is taken, so no path
    /// holds an owner's lock and the core lock at once. A buy whose quote
    /// finishes between the drain and the write acquisition counts its
    /// sales in its owner until the next drain — the same visibility a buy
    /// landing right after `f` returns always had.
    pub fn with_broker<T>(&self, f: impl FnOnce(&mut Broker) -> T) -> T {
        let mut drained = SalesTotals::default();
        for owner in self.inner.owners.lock().iter() {
            drained.merge(&std::mem::take(&mut *owner.lock()));
        }
        let mut core = self.inner.core.write();
        core.merge_totals(&drained);
        f(&mut core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SquareLossTransform;
    use crate::market::totals::ExactSum;
    use mbp_data::synth;
    use mbp_randx::{seeded_rng, SeedStream};
    use std::sync::Barrier;
    use std::thread;

    /// A shared broker with linear regression listed at [`pricing`].
    fn shared_broker(seed: u64) -> SharedBroker {
        SharedBroker::new(plain_broker(seed))
    }

    /// An unshared broker with linear regression listed at [`pricing`].
    fn plain_broker(seed: u64) -> Broker {
        let mut rng = seeded_rng(seed);
        let data = synth::simulated1(600, 4, 0.5, &mut rng).split(0.75, &mut rng);
        let mut b = Broker::new(data);
        b.support(ModelKind::LinearRegression, 1e-6).unwrap();
        b.publish(
            ModelKind::LinearRegression,
            pricing(),
            Box::new(SquareLossTransform),
        )
        .unwrap();
        b
    }

    /// One listed purchase at `ncp` through the shared broker.
    fn buy_one(sb: &SharedBroker, ncp: f64, rng: &mut MbpRng) -> Sale {
        let mut sales = sb
            .buy_batch(
                ModelKind::LinearRegression,
                &[PurchaseRequest::AtNcp(ncp)],
                rng,
            )
            .expect("listing exists");
        sales.pop().expect("one outcome").expect("purchase failed")
    }

    fn pricing() -> PricingFunction {
        let g: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let p: Vec<f64> = g.iter().map(|x| 4.0 * x.sqrt()).collect();
        PricingFunction::from_points(g, p).unwrap()
    }

    #[test]
    fn concurrent_purchases_are_all_counted() {
        let sb = shared_broker(81);
        let mut seeds = SeedStream::new(82);
        let threads = 8;
        let per_thread = 50;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut paid = ExactSum::default();
                    for _ in 0..per_thread {
                        paid.add(buy_one(&sb, 0.5, &mut rng).price);
                    }
                    paid
                })
            })
            .collect();
        let mut total_paid = ExactSum::default();
        for h in handles {
            total_paid.merge(&h.join().unwrap());
        }
        assert_eq!(sb.sales_count(), (threads * per_thread) as u64);
        assert_eq!(sb.total_revenue(), total_paid.rounded());
    }

    #[test]
    fn concurrent_sales_have_distinct_noise() {
        let sb = shared_broker(83);
        let mut seeds = SeedStream::new(84);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sb = sb.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    buy_one(&sb, 1.0, &mut rng).model.weights().clone()
                })
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                assert_ne!(models[i], models[j], "two sales shared a noise draw");
            }
        }
    }

    /// Satellite coverage: ≥4 threads buying concurrently; every served
    /// purchase is counted and revenue equals the exact sum of the
    /// per-thread receipts. With observability enabled, the buy counter
    /// and contention counter reflect the traffic (asserted with `>=`
    /// because the obs registry is process-global and other tests in this
    /// binary may record concurrently).
    #[test]
    fn four_thread_buys_reconcile_totals_and_metrics() {
        mbp_obs::enable();
        let sb = shared_broker(91);
        let mut seeds = SeedStream::new(92);
        let threads = 4;
        let per_thread = 100;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut receipts = Vec::with_capacity(per_thread);
                    for _ in 0..per_thread {
                        let sale = buy_one(&sb, 0.5, &mut rng);
                        receipts.push(sale.price);
                    }
                    receipts
                })
            })
            .collect();
        let receipts: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(sb.sales_count(), (threads * per_thread) as u64);
        assert_eq!(receipts.len(), threads * per_thread);
        let mut total_paid = ExactSum::default();
        for &price in &receipts {
            total_paid.add(price);
        }
        assert_eq!(sb.total_revenue(), total_paid.rounded());

        let snap = mbp_obs::snapshot();
        let bought = snap.counter("mbp.core.buy.count").unwrap_or(0);
        assert!(
            bought >= (threads * per_thread) as u64,
            "buy counter {bought} < {}",
            threads * per_thread
        );
        let buy_hist = snap
            .histogram("mbp.core.buy_batch.seconds")
            .expect("buy kernel span");
        assert!(buy_hist.count >= (threads * per_thread) as u64);
        // Contention is scheduling-dependent; the counter only needs to
        // exist and be readable (zero is legitimate on an unloaded box).
        // obs stays enabled: a sibling test may be recording concurrently.
        let _ = snap.counter("mbp.core.sharedbroker.contention");
    }

    #[test]
    fn contended_mutex_increments_contention_counter() {
        mbp_obs::enable();
        let sb = shared_broker(93);
        let before = mbp_obs::snapshot()
            .counter("mbp.core.sharedbroker.contention")
            .unwrap_or(0);
        // Hold the core write lock on this thread (maintenance), then issue
        // a buy from another: the try_read fast path must miss and count it.
        let buyer = {
            let sb2 = sb.clone();
            sb.with_broker(|_broker| {
                let t = thread::spawn(move || {
                    let mut rng = seeded_rng(94);
                    buy_one(&sb2, 1.0, &mut rng);
                });
                // Give the buyer thread time to hit the held lock.
                thread::sleep(std::time::Duration::from_millis(50));
                t
            })
        };
        buyer.join().unwrap();
        let after = mbp_obs::snapshot()
            .counter("mbp.core.sharedbroker.contention")
            .unwrap_or(0);
        assert!(after > before, "contention counter did not move");
        assert!(
            sb.contention_count() > 0,
            "handle-local counter did not move"
        );
        assert_eq!(sb.sales_count(), 1);
    }

    /// Concurrent batches count every sale, match per-call revenue
    /// accounting, and take one owner lock per batch (contention stays
    /// bounded by batch count, not purchase count).
    #[test]
    fn concurrent_buy_batches_are_all_counted() {
        let sb = shared_broker(97);
        let mut seeds = SeedStream::new(98);
        let threads = 4;
        let batches_per_thread = 10;
        let batch: Vec<PurchaseRequest> = (1..=20)
            .map(|i| PurchaseRequest::AtNcp(i as f64 * 0.1))
            .collect();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let batch = batch.clone();
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut paid = ExactSum::default();
                    for _ in 0..batches_per_thread {
                        for sale in sb
                            .buy_batch(ModelKind::LinearRegression, &batch, &mut rng)
                            .expect("listing exists")
                        {
                            paid.add(sale.expect("all requests valid").price);
                        }
                    }
                    paid
                })
            })
            .collect();
        let mut total_paid = ExactSum::default();
        for h in handles {
            total_paid.merge(&h.join().unwrap());
        }
        assert_eq!(
            sb.sales_count(),
            (threads * batches_per_thread * batch.len()) as u64
        );
        assert_eq!(sb.total_revenue(), total_paid.rounded());
        // Unpublished kinds fail at the batch level.
        let mut rng = seeded_rng(99);
        assert!(matches!(
            sb.buy_batch(ModelKind::LinearSvm, &batch, &mut rng),
            Err(MarketError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn with_broker_gives_atomic_access() {
        let sb = shared_broker(85);
        let (count, revenue) = sb.with_broker(|b| (b.sales_count(), b.total_revenue()));
        assert_eq!(count, 0);
        assert_eq!(revenue, 0.0);
    }

    /// Reconciling moves every handle's totals into the core broker
    /// without changing a bit: the reconciled totals equal those of one
    /// unshared broker that made the same sales, whichever handles made
    /// them and whether those handles are still alive.
    #[test]
    fn with_broker_reconciles_per_handle_totals() {
        let sb = shared_broker(87);
        let mut plain = plain_broker(87);
        let mut rng = seeded_rng(88);
        let mut plain_rng = seeded_rng(88);
        let kept = sb.clone();
        let buys = 19;
        for i in 0..buys {
            match i % 3 {
                0 => buy_one(&sb, 0.5, &mut rng),
                1 => buy_one(&kept, 0.5, &mut rng),
                // A handle that buys once and is dropped at once.
                _ => buy_one(&sb.clone(), 0.5, &mut rng),
            };
            plain
                .buy_listed(
                    ModelKind::LinearRegression,
                    PurchaseRequest::AtNcp(0.5),
                    &mut plain_rng,
                )
                .expect("purchase failed");
        }
        // Before reconciliation the totals already include every owner's.
        assert_eq!(&sb.totals(), plain.totals());
        let reconciled = kept.with_broker(|b| b.totals().clone());
        assert_eq!(&reconciled, plain.totals());
        assert_eq!(sb.totals(), reconciled);
        drop(kept);
        assert_eq!(sb.totals(), reconciled);
        assert_eq!(sb.sales_count(), buys);
    }

    /// 10k clone → buy → drop cycles across 4 threads lose no sale, and
    /// the owner registry never holds more entries than there are live
    /// handles.
    #[test]
    fn dropped_handles_fold_their_totals_and_leave_the_registry() {
        let sb = shared_broker(101);
        // Handles that exist or may exist: raised before a clone, lowered
        // after its drop, so it never undercounts the registry.
        let live = Arc::new(AtomicU64::new(1));
        let mut seeds = SeedStream::new(102);
        let threads = 4;
        let per_thread = 2500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                live.fetch_add(1, Ordering::SeqCst);
                let sb = sb.clone();
                let live = Arc::clone(&live);
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    let mut paid = ExactSum::default();
                    for _ in 0..per_thread {
                        live.fetch_add(1, Ordering::SeqCst);
                        let handle = sb.clone();
                        paid.add(buy_one(&handle, 0.5, &mut rng).price);
                        drop(handle);
                        live.fetch_sub(1, Ordering::SeqCst);
                        // Clones and drops wait for the registry lock, so
                        // the entry count and the bound are read together.
                        let owners = sb.inner.owners.lock();
                        assert!(owners.len() as u64 <= live.load(Ordering::SeqCst));
                    }
                    drop(sb);
                    live.fetch_sub(1, Ordering::SeqCst);
                    paid
                })
            })
            .collect();
        let mut total_paid = ExactSum::default();
        for h in handles {
            total_paid.merge(&h.join().unwrap());
        }
        assert_eq!(sb.inner.owners.lock().len(), 1);
        assert_eq!(sb.sales_count(), (threads * per_thread) as u64);
        assert_eq!(sb.total_revenue(), total_paid.rounded());
        let reconciled = sb.with_broker(|b| b.totals().clone());
        assert_eq!(reconciled.revenue(), total_paid.rounded());
    }

    /// N threads × M buys reconcile to an exact revenue total, and
    /// per-handle totals record strictly less contention than one global
    /// mutex around the broker on the same workload.
    ///
    /// Both runs overlap the buys with a "maintenance" phase that holds the
    /// broker before the buyers start: under one global mutex every buyer's
    /// first attempt is a guaranteed miss (the reference run counts at least
    /// one miss per thread by construction), while with per-handle totals
    /// the equivalent snapshot reads share the read lock with the quoting
    /// buyers and lock each owner only for its merge.
    #[test]
    fn per_handle_broker_contends_less_than_single_mutex() {
        let threads = 8usize;
        let per_thread = 24usize;

        // --- Reference: one global Mutex<Broker>. ---
        let mutex_contention = {
            let broker = Arc::new(Mutex::new(plain_broker(95)));
            let misses = Arc::new(AtomicU64::new(0));
            let start = Arc::new(Barrier::new(threads + 1));
            // Maintenance holds the only lock until every buyer thread has
            // recorded a miss, so the reference contention is >= threads.
            let guard = broker.lock();
            let mut seeds = SeedStream::new(96);
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let broker = Arc::clone(&broker);
                    let misses = Arc::clone(&misses);
                    let start = Arc::clone(&start);
                    let seed = seeds.next_seed();
                    thread::spawn(move || {
                        let mut rng = seeded_rng(seed);
                        start.wait();
                        for _ in 0..per_thread {
                            let mut g = match broker.try_lock() {
                                Some(g) => g,
                                None => {
                                    misses.fetch_add(1, Ordering::Relaxed);
                                    broker.lock()
                                }
                            };
                            g.buy_listed(
                                ModelKind::LinearRegression,
                                PurchaseRequest::AtNcp(0.5),
                                &mut rng,
                            )
                            .expect("purchase failed");
                        }
                    })
                })
                .collect();
            start.wait();
            while misses.load(Ordering::Relaxed) < threads as u64 {
                thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(guard);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(broker.lock().sales_count(), (threads * per_thread) as u64);
            misses.load(Ordering::Relaxed)
        };

        // --- Per-handle: same workload, maintenance is snapshot reads. ---
        let sb = shared_broker(95);
        let start = Arc::new(Barrier::new(threads + 1));
        let mut seeds = SeedStream::new(96);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let sb = sb.clone();
                let start = Arc::clone(&start);
                let seed = seeds.next_seed();
                thread::spawn(move || {
                    let mut rng = seeded_rng(seed);
                    start.wait();
                    let mut paid = ExactSum::default();
                    for _ in 0..per_thread {
                        paid.add(buy_one(&sb, 0.5, &mut rng).price);
                    }
                    paid
                })
            })
            .collect();
        start.wait();
        // Equivalent maintenance: revenue snapshots while the buys run.
        // These take the shared read lock, so they cannot stall a quote,
        // and hold each buyer's owner only while merging it.
        for _ in 0..threads {
            let _ = sb.total_revenue();
            thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut total_paid = ExactSum::default();
        for h in handles {
            total_paid.merge(&h.join().unwrap());
        }
        assert_eq!(sb.sales_count(), (threads * per_thread) as u64);
        assert_eq!(sb.total_revenue(), total_paid.rounded());
        let per_handle_contention = sb.contention_count();

        assert!(
            mutex_contention >= threads as u64,
            "reference run should contend at least once per thread, got {mutex_contention}"
        );
        assert!(
            per_handle_contention < mutex_contention,
            "per-handle contention {per_handle_contention} >= single-mutex contention {mutex_contention}"
        );
    }
}
