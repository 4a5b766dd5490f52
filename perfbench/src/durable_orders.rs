//! `durable_orders`: the durable order-path write workload.
//!
//! One thread calls order-path writes directly on four apps in
//! `Mode::Confluent` — scm transfers, spree stock decrements and
//! payments, saleor allocations, broadleaf checkouts, drawn with the
//! weights of adhoc-service's traffic model — over databases
//! that log every commit to a WAL with group commit. Keys are uniform
//! over the seeded rows, which together are several times the per-core
//! L2. After the last operation the WAL's durable bytes are replayed into
//! fresh databases with `restart_from` and each app's `recover_on_boot`
//! runs on them. A model computed from the operation list alone must hold
//! before the crash and again after recovery, so every acknowledged
//! operation survives.

use crate::trace::{Layer, Span, Tracer, NO_SPAN};
use crate::{text, EndpointMix, Pass, Round, Size, Workload};
use adhoc_apps::{broadleaf, saleor, scm_suite, spree, Mode};
use adhoc_core::locks::MemLock;
use adhoc_service::Endpoint;
use adhoc_storage::{restart_from, Database, DbConfig, EngineProfile, WalStats};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per app and operations per round.
pub fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            rows: 64,
            ops: 1_500,
            round_seconds: 2.0,
        }
    } else {
        Size {
            rows: 4_096,
            ops: 200_000,
            round_seconds: 2.0,
        }
    }
}

/// Opening balance and stock of every seeded row: no call is refused.
const SEED_STOCK: i64 = 1_000_000_000;
/// Spree categories the seeded products spread over.
const CATEGORIES: i64 = 64;

/// One order-path call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `scm.transfer(from, to, amount)`.
    Transfer { from: i64, to: i64, amount: i64 },
    /// `spree.decrement_stock(order, sku, 1)`.
    Decrement { order: i64, sku: i64 },
    /// `spree.add_payment(order)`.
    Pay { order: i64 },
    /// `saleor.allocate(item)`.
    Allocate { item: i64 },
    /// `broadleaf.check_out(sku, 1)`.
    Checkout { sku: i64 },
}

impl Op {
    fn endpoint(self) -> Endpoint {
        match self {
            Op::Transfer { .. } => Endpoint::ScmTransfer,
            Op::Decrement { .. } => Endpoint::SpreeDecrementStock,
            Op::Pay { .. } => Endpoint::SpreeAddPayment,
            Op::Allocate { .. } => Endpoint::SaleorAllocate,
            Op::Checkout { .. } => Endpoint::BroadleafCheckout,
        }
    }

    fn words(self) -> [u64; 4] {
        match self {
            Op::Transfer { from, to, amount } => [0, from as u64, to as u64, amount as u64],
            Op::Decrement { order, sku } => [1, order as u64, sku as u64, 0],
            Op::Pay { order } => [2, order as u64, 0, 0],
            Op::Allocate { item } => [3, item as u64, 0, 0],
            Op::Checkout { sku } => [4, sku as u64, 0, 0],
        }
    }
}

/// The order-path endpoints, drawn with the weights adhoc-service's
/// traffic model gives them (`Endpoint::weight`): stock decrements 7,
/// checkouts 5, allocations 5, transfers 4, payments 2, of 23.
pub const ENDPOINTS: [Endpoint; 5] = [
    Endpoint::SpreeDecrementStock,
    Endpoint::BroadleafCheckout,
    Endpoint::SaleorAllocate,
    Endpoint::ScmTransfer,
    Endpoint::SpreeAddPayment,
];

/// `n` operations with endpoints drawn from `mix` and keys uniform over
/// `keys` (a transfer credits another key of the same range).
pub fn generate(
    rng: &mut impl Rng,
    mix: &EndpointMix,
    keys: RangeInclusive<i64>,
    n: usize,
) -> Vec<Op> {
    let (lo, len) = (*keys.start(), keys.end() - keys.start() + 1);
    (0..n)
        .map(|_| {
            let key = rng.gen_range(keys.clone());
            match mix.draw(rng) {
                Endpoint::ScmTransfer => Op::Transfer {
                    from: key,
                    to: lo + (key - lo + rng.gen_range(1..len)) % len,
                    amount: rng.gen_range(1..=100),
                },
                Endpoint::SpreeDecrementStock => Op::Decrement {
                    order: key,
                    sku: rng.gen_range(keys.clone()),
                },
                Endpoint::SpreeAddPayment => Op::Pay { order: key },
                Endpoint::SaleorAllocate => Op::Allocate { item: key },
                Endpoint::BroadleafCheckout => Op::Checkout { sku: key },
                other => unreachable!("{} is not an order-path endpoint", other.label()),
            }
        })
        .collect()
}

/// The workload: the seeded operation list.
pub struct DurableOrders {
    size: Size,
    rows: i64,
    ops: Vec<Op>,
}

impl DurableOrders {
    /// Generate the operation list for `seed`: [`ENDPOINTS`] by weight,
    /// keys uniform over the rows.
    pub fn new(seed: u64, size: Size) -> Self {
        let rows = size.rows as i64;
        let mut rng = adhoc_sim::rng::seeded(seed);
        let ops = generate(&mut rng, &EndpointMix::new(&ENDPOINTS), 1..=rows, size.ops);
        Self { size, rows, ops }
    }
}

/// The four apps over their WAL-logged databases.
struct Apps {
    dbs: [Database; 4],
    scm: scm_suite::ScmSuite,
    spree: spree::Spree,
    saleor: saleor::Saleor,
    broadleaf: broadleaf::Broadleaf,
}

impl Apps {
    /// Create the schemas; seed `rows` rows per app when asked (a
    /// database about to receive a WAL replay gets the schema only).
    /// The workload runs `Mode::Confluent` with a group-commit WAL.
    fn build(rows: Option<i64>, mode: Mode, wal: bool) -> Self {
        let db = |p| {
            let config = DbConfig::in_memory(p);
            Database::new(if wal {
                config.with_wal_group_commit()
            } else {
                config
            })
        };
        let dbs = [
            db(EngineProfile::MySqlLike),
            db(EngineProfile::MySqlLike),
            db(EngineProfile::PostgresLike),
            db(EngineProfile::MySqlLike),
        ];
        let mem = || Arc::new(MemLock::new());
        let scm = scm_suite::ScmSuite::new(scm_suite::setup(&dbs[0]).unwrap(), mem(), mode);
        let spree = spree::Spree::new(spree::setup(&dbs[1]).unwrap(), mem(), mode);
        let saleor = saleor::Saleor::new(saleor::setup(&dbs[2]).unwrap(), mem(), mode);
        let broadleaf = broadleaf::Broadleaf::new(broadleaf::setup(&dbs[3]).unwrap(), mem(), mode);
        for id in 1..=rows.unwrap_or(0) {
            scm.seed_account(id, SEED_STOCK).unwrap();
            spree
                .seed_catalog(id, id, &[1 + (id - 1) % CATEGORIES], SEED_STOCK)
                .unwrap();
            spree.seed_order(id).unwrap();
            saleor.seed_stock(id, SEED_STOCK).unwrap();
            saleor.seed_allocation(id, id, 1).unwrap();
            broadleaf.seed_sku(id, SEED_STOCK).unwrap();
        }
        Self {
            dbs,
            scm,
            spree,
            saleor,
            broadleaf,
        }
    }

    fn apply(&self, op: Op) -> adhoc_apps::Result<bool> {
        match op {
            Op::Transfer { from, to, amount } => self.scm.transfer(from, to, amount),
            Op::Decrement { order, sku } => self.spree.decrement_stock(order, sku, 1),
            Op::Pay { order } => self.spree.add_payment(order),
            Op::Allocate { item } => self.saleor.allocate(item),
            Op::Checkout { sku } => self.broadleaf.check_out(sku, 1),
        }
    }

    fn wal_stats(&self) -> Vec<WalStats> {
        self.dbs
            .iter()
            .map(|d| d.wal().expect("built with a WAL").stats())
            .collect()
    }
}

/// What the acknowledged operations must return and leave behind.
#[derive(Debug, Default)]
pub struct Model {
    rows: i64,
    /// The return value each operation must give, in order.
    expected: Vec<bool>,
    balance: BTreeMap<i64, i64>,
    spree_taken: BTreeMap<i64, i64>,
    confirmed: BTreeSet<i64>,
    paid: BTreeSet<i64>,
    allocated: BTreeSet<i64>,
    sold: BTreeMap<i64, i64>,
}

impl Model {
    /// Fold acknowledged operations, in order, into the model.
    pub fn from_ops<'a>(rows: i64, ops: impl IntoIterator<Item = &'a Op>) -> Self {
        let mut m = Self {
            rows,
            ..Self::default()
        };
        for op in ops {
            let ok = match *op {
                Op::Transfer { from, to, amount } => {
                    let have = SEED_STOCK + m.balance.get(&from).copied().unwrap_or(0);
                    let ok = have >= amount;
                    if ok {
                        *m.balance.entry(from).or_default() -= amount;
                        *m.balance.entry(to).or_default() += amount;
                    }
                    ok
                }
                Op::Decrement { order, sku } => {
                    let taken = m.spree_taken.entry(sku).or_default();
                    let ok = SEED_STOCK - *taken >= 1;
                    if ok {
                        *taken += 1;
                        m.confirmed.insert(order);
                    }
                    ok
                }
                Op::Pay { order } => m.paid.insert(order),
                Op::Allocate { item } => m.allocated.insert(item),
                Op::Checkout { sku } => {
                    let sold = m.sold.entry(sku).or_default();
                    let ok = SEED_STOCK - *sold >= 1;
                    if ok {
                        *sold += 1;
                    }
                    ok
                }
            };
            m.expected.push(ok);
        }
        m
    }

    /// Compare every row of the four apps with the model.
    fn check(&self, apps: &Apps, when: &str) -> Result<(), String> {
        let mismatch = |what: &str, id: i64, got: i64, want: i64| {
            Err(format!(
                "{when}: {what} of row {id} is {got}, the model says {want}"
            ))
        };
        let count_by =
            |db: &Database, table: &str, column: &str| -> Result<BTreeMap<i64, i64>, String> {
                let schema = db.schema(table).map_err(text)?;
                let mut out = BTreeMap::new();
                for (_, row) in db.dump_table(table).map_err(text)? {
                    *out.entry(row.get_int(&schema, column).map_err(text)?)
                        .or_default() += 1;
                }
                Ok(out)
            };
        let payments = count_by(&apps.dbs[1], "payments", "order_id")?;
        let alloc_schema = apps.dbs[2].schema("allocations").map_err(text)?;
        let mut alloc_qty = BTreeMap::new();
        for (_, row) in apps.dbs[2].dump_table("allocations").map_err(text)? {
            let item = row.get_int(&alloc_schema, "item_id").map_err(text)?;
            alloc_qty.insert(item, row.get_int(&alloc_schema, "qty").map_err(text)?);
        }
        let mut total = 0;
        for id in 1..=self.rows {
            let balance = apps.scm.balance(id).map_err(text)?;
            let want = SEED_STOCK + self.balance.get(&id).copied().unwrap_or(0);
            if balance != want {
                return mismatch("scm balance", id, balance, want);
            }
            total += balance;
            let qty = apps.spree.sku_quantity(id).map_err(text)?;
            let want = SEED_STOCK - self.spree_taken.get(&id).copied().unwrap_or(0);
            if qty != want {
                return mismatch("spree sku quantity", id, qty, want);
            }
            let state = apps
                .spree
                .orm()
                .find_required("orders", id)
                .and_then(|o| o.get_str("state"))
                .map_err(text)?;
            let want = if self.confirmed.contains(&id) {
                "confirmed"
            } else {
                "cart"
            };
            if state != want {
                return Err(format!(
                    "{when}: spree order {id} is {state}, the model says {want}"
                ));
            }
            let paid = payments.get(&id).copied().unwrap_or(0);
            let want = i64::from(self.paid.contains(&id));
            if paid != want {
                return mismatch("spree payments", id, paid, want);
            }
            let allocated = i64::from(self.allocated.contains(&id));
            let qty = apps.saleor.stock_qty(id).map_err(text)?;
            if qty != SEED_STOCK - allocated {
                return mismatch("saleor stock qty", id, qty, SEED_STOCK - allocated);
            }
            let left = alloc_qty.get(&id).copied().unwrap_or(-1);
            if left != 1 - allocated {
                return mismatch("saleor allocation qty", id, left, 1 - allocated);
            }
            let sku = apps
                .broadleaf
                .orm()
                .find_required("skus", id)
                .map_err(text)?;
            let sold = self.sold.get(&id).copied().unwrap_or(0);
            let (quantity, got_sold) = (
                sku.get_int("quantity").map_err(text)?,
                sku.get_int("sold").map_err(text)?,
            );
            if (quantity, got_sold) != (SEED_STOCK - sold, sold) {
                return mismatch("broadleaf sku sold", id, got_sold, sold);
            }
        }
        if total != SEED_STOCK * self.rows {
            return Err(format!(
                "{when}: scm balances sum to {total}; money was not conserved"
            ));
        }
        Ok(())
    }
}

/// Recover every database of `crashed` into fresh ones and boot the
/// apps: returns the recovered apps, the records replayed, and the spans
/// (always recorded: recovery is timed on every pass).
fn recover(crashed: Apps, origin: Instant) -> Result<(Apps, u64, Vec<Span>), String> {
    let mut tracer = Tracer::on(origin, 8);
    let reborn = Apps::build(None, Mode::Confluent, true);
    let mut records = 0;
    for (old, new) in crashed.dbs.iter().zip(&reborn.dbs) {
        let report = tracer
            .span(Layer::RestartFrom, 0, NO_SPAN, || restart_from(old, new))
            .map_err(text)?;
        if !report.clean() {
            return Err(format!("WAL replay ended on a torn tail: {report:?}"));
        }
        records += report.records_applied;
    }
    drop(crashed);
    let reports = [
        tracer.span(Layer::RecoverOnBoot, 0, NO_SPAN, || {
            reborn.scm.recover_on_boot()
        }),
        tracer.span(Layer::RecoverOnBoot, 0, NO_SPAN, || {
            reborn.spree.recover_on_boot()
        }),
        tracer.span(Layer::RecoverOnBoot, 0, NO_SPAN, || {
            reborn.saleor.recover_on_boot()
        }),
        tracer.span(Layer::RecoverOnBoot, 0, NO_SPAN, || {
            reborn.broadleaf.recover_on_boot()
        }),
    ];
    for r in &reports {
        if !r.is_clean() || r.fixed != 0 {
            return Err(format!("boot fsck had to repair state: {r:?}"));
        }
    }
    Ok((reborn, records, tracer.take()))
}

impl Workload for DurableOrders {
    fn fingerprint(&self) -> u64 {
        crate::fnv1a(self.ops.iter().flat_map(|op| op.words()))
    }

    fn size(&self) -> Size {
        self.size
    }

    fn layers(&self) -> Vec<String> {
        let mut v = crate::app_layer_names(&ENDPOINTS);
        v.extend(crate::STORAGE_COUNTS.map(String::from));
        v.extend(
            [
                "apps.boot_fsck_ns",
                "storage.commit_ns_1t",
                "storage.commit_ns_2t",
                "storage.wal.bytes_per_op",
                "storage.wal.records_per_op",
                "storage.wal.syncs_per_op",
                "storage.recovery.replay_ns_per_record",
                "recovery_s",
                "trace.overhead",
            ]
            .map(String::from),
        );
        v
    }

    fn round(&self, pass: Pass) -> Round {
        let n = self.ops.len();
        let heap_empty = crate::alloc::live_bytes();
        let t = Instant::now();
        let apps = Apps::build(Some(self.rows), Mode::Confluent, true);
        let setup = t.elapsed();
        let seeded_bytes = crate::alloc::live_bytes() - heap_empty;
        let rows_read = Arc::new(crate::RowsRead::default());
        if pass == Pass::Counting {
            for db in &apps.dbs {
                db.attach_observer(rows_read.clone());
            }
        }
        let origin = Instant::now();
        let mut tracer = if pass == Pass::Traced {
            Tracer::on(origin, n)
        } else {
            Tracer::off()
        };
        let mut latencies_ns = Vec::with_capacity(n);
        let mut results: Vec<Option<bool>> = Vec::with_capacity(n);
        let mut first_error: Option<String> = None;
        let db_before: Vec<_> = apps.dbs.iter().map(|d| d.stats()).collect();
        let wal_before = apps.wal_stats();
        let heap_before = crate::alloc::live_bytes();
        let start = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            let t0 = Instant::now();
            let r = tracer.span(Layer::App(op.endpoint()), i as u64, NO_SPAN, || {
                apps.apply(*op)
            });
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
            results.push(match r {
                Ok(ok) => Some(ok),
                Err(e) => {
                    first_error.get_or_insert_with(|| format!("op {i} {op:?}: {e}"));
                    None
                }
            });
        }
        let elapsed = start.elapsed();
        let retained_bytes = crate::alloc::live_bytes() - heap_before;
        let failed = results.iter().filter(|r| r.is_none()).count() as u64;
        if let Some(e) = &first_error {
            eprintln!("durable_orders: failed operation: {e}");
        }

        let mut layers = BTreeMap::new();
        if pass == Pass::Counting {
            let db_after: Vec<_> = apps.dbs.iter().map(|d| d.stats()).collect();
            crate::storage_counts(
                &db_before,
                &db_after,
                rows_read.get(),
                n as u64,
                &mut layers,
            );
            let wal_after = apps.wal_stats();
            let delta = |f: fn(&WalStats) -> u64| -> f64 {
                let a: u64 = wal_after.iter().map(f).sum();
                let b: u64 = wal_before.iter().map(f).sum();
                (a - b) as f64 / n as f64
            };
            layers.insert("storage.wal.bytes_per_op".into(), delta(|s| s.len as u64));
            layers.insert("storage.wal.records_per_op".into(), delta(|s| s.records));
            layers.insert("storage.wal.syncs_per_op".into(), delta(|s| s.syncs));
        }

        let acked: Vec<(usize, &Op)> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| results[*i].is_some())
            .collect();
        let model = Model::from_ops(self.rows, acked.iter().map(|(_, op)| *op));
        let mut error = acked
            .iter()
            .zip(&model.expected)
            .find(|((i, _), want)| results[*i] != Some(**want))
            .map(|((i, op), want)| {
                format!(
                    "op {i} {op:?} returned {:?}, the model says {want}",
                    results[*i]
                )
            });
        if error.is_none() {
            error = model.check(&apps, "before the crash").err();
        }
        let mut spans = Vec::new();
        match recover(apps, origin) {
            Err(e) => {
                error.get_or_insert(e);
            }
            Ok((reborn, records, recovery_spans)) => {
                if error.is_none() {
                    error = model.check(&reborn, "after recovery").err();
                }
                if pass == Pass::Traced {
                    let times = crate::trace::layer_times(&recovery_spans);
                    let replay = times.get(&Layer::RestartFrom).copied().unwrap_or_default();
                    let boot = times
                        .get(&Layer::RecoverOnBoot)
                        .copied()
                        .unwrap_or_default();
                    layers.insert(
                        "storage.recovery.replay_ns_per_record".into(),
                        replay.total_ns as f64 / records.max(1) as f64,
                    );
                    layers.insert("apps.boot_fsck_ns".into(), boot.total_ns as f64);
                    layers.insert(
                        "recovery_s".into(),
                        Duration::from_nanos(replay.total_ns + boot.total_ns).as_secs_f64(),
                    );
                    let op_spans = tracer.take();
                    crate::app_layer_metrics(&op_spans, &mut layers);
                    spans = vec![op_spans, recovery_spans];
                    spans.extend(crate::spine::metrics(origin, &mut layers));
                }
            }
        }
        Round {
            ops: n as u64,
            failed,
            elapsed,
            latencies_ns,
            setup,
            seeded_bytes,
            retained_bytes,
            layers,
            spans,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_an_acknowledged_op_from_the_model_fails_the_check() {
        let w = DurableOrders::new(5, size(true));
        let apps = Apps::build(Some(w.rows), Mode::Confluent, true);
        for op in &w.ops {
            apps.apply(*op).unwrap();
        }
        Model::from_ops(w.rows, &w.ops)
            .check(&apps, "test")
            .unwrap();
        for kind in 0..5u64 {
            // Payments and allocations are idempotent per key: drop every
            // one of that kind on the first chosen key.
            let first = w.ops.iter().find(|op| op.words()[0] == kind).unwrap();
            let [_, key, ..] = first.words();
            let dropped = |op: &Op| {
                let [k, x, ..] = op.words();
                k == kind && x == key && ((2..=3).contains(&k) || op == first)
            };
            let partial = w.ops.iter().filter(|op| !dropped(op));
            assert!(
                Model::from_ops(w.rows, partial)
                    .check(&apps, "test")
                    .is_err(),
                "model without {first:?} still passed",
            );
        }
    }

    #[test]
    fn recovery_restores_every_acknowledged_op() {
        let w = DurableOrders::new(6, size(true));
        let apps = Apps::build(Some(w.rows), Mode::Confluent, true);
        for op in &w.ops {
            apps.apply(*op).unwrap();
        }
        let (reborn, records, _) = recover(apps, Instant::now()).unwrap();
        assert!(records > w.ops.len() as u64);
        Model::from_ops(w.rows, &w.ops)
            .check(&reborn, "test")
            .unwrap();
    }

    /// Two threads of `Mode::DatabaseTxn` order writes on disjoint key
    /// ranges over shared databases without a WAL: every call succeeds,
    /// both ranges end as the model says, and no transaction aborts or
    /// waits on a lock. Timed, this workload cannot be held steady on a
    /// 2-vCPU box (see the README); the commit spine's scaling is timed
    /// by `spine` instead.
    #[test]
    fn disjoint_database_txn_writers_neither_abort_nor_wait() {
        const ROWS: i64 = 64;
        let threads = crate::spine::THREADS as i64;
        let apps = Apps::build(Some(ROWS * threads), Mode::DatabaseTxn, false);
        let mix = EndpointMix::new(&[
            Endpoint::BroadleafCheckout,
            Endpoint::SaleorAllocate,
            Endpoint::ScmTransfer,
        ]);
        let lists: Vec<Vec<Op>> = (0..threads)
            .map(|t| {
                let mut rng = adhoc_sim::rng::for_worker(7, t as u64);
                generate(&mut rng, &mix, t * ROWS + 1..=(t + 1) * ROWS, 4_000)
            })
            .collect();
        let before: Vec<_> = apps.dbs.iter().map(|d| d.stats()).collect();
        std::thread::scope(|s| {
            for list in &lists {
                let apps = &apps;
                s.spawn(move || {
                    for op in list {
                        assert!(apps.apply(*op).unwrap(), "{op:?} was refused");
                    }
                });
            }
        });
        for (a, b) in apps.dbs.iter().map(|d| d.stats()).zip(&before) {
            assert_eq!(a.aborts - b.aborts, 0, "aborts on disjoint keys");
            assert_eq!(
                a.lock_stats.waits - b.lock_stats.waits,
                0,
                "lock waits on disjoint keys"
            );
        }
        Model::from_ops(ROWS * threads, lists.iter().flatten())
            .check(&apps, "disjoint")
            .unwrap();
        let mut short = lists[1].clone();
        let i = short.iter().position(|op| op.words()[0] == 0).unwrap();
        short.remove(i);
        assert!(
            Model::from_ops(ROWS * threads, lists[0].iter().chain(&short))
                .check(&apps, "disjoint")
                .is_err()
        );
    }
}
