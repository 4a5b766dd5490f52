//! `web_mix`: one closed-loop client drives the service front door.
//!
//! The request stream is adhoc-traffic's `MixedWorkload` (the weighted
//! twelve-endpoint mix, zipfian keys, zipfian clients over a million
//! users), generated from the seed before timing. The client sends each
//! request with `Service::offer`, serves it with `Service::run_tick` on
//! the real clock, and only then sends the next. The service runs
//! `StackConfig::full()` with a per-client rate so high that the token
//! bucket runs on every request and never refuses.
//!
//! `Service` does not expose its applications, so the benchmark replays
//! every acknowledged request directly against applications it builds
//! and seeds the way `Service::new` does: after the timed phase, or on a
//! traced round right after the service answers each request (outside
//! the request's timing). The replay's end state is checked against a
//! model computed from the stream alone, and its handler times give the
//! service's own share of each request (`service.self_ns`).

use crate::trace::{Layer, Tracer, NO_SPAN};
use crate::{Pass, Round, Size, Workload};
use adhoc_apps::Mode;
use adhoc_apps::{broadleaf, discourse, jumpserver, mastodon, redmine, saleor, scm_suite, spree};
use adhoc_core::locks::{KvSetNxLock, MemLock};
use adhoc_kv::{Client, Store};
use adhoc_service::{Endpoint, Request, Service, StackConfig};
use adhoc_sim::{LatencyModel, RealClock, SharedClock};
use adhoc_storage::{Database, EngineProfile};
use adhoc_traffic::{MixedWorkload, CLIENT_POPULATION};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per app and requests per round.
pub fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            rows: 64,
            ops: 2_000,
            round_seconds: 0.5,
        }
    } else {
        Size {
            rows: 1_024,
            ops: 40_000,
            round_seconds: 0.5,
        }
    }
}

/// Stock and balance every seeded row starts with (the value
/// `Service::new` seeds; large enough that no call is refused).
const SEED_STOCK: i64 = 1_000_000_000;
/// Price and quantity of every `broadleaf.add_to_cart` the service sends.
const CART_PRICE: i64 = 100;

/// The workload: the seeded request stream.
pub struct WebMix {
    size: Size,
    objects: u64,
    stream: Vec<Request>,
}

impl WebMix {
    /// Generate the stream for `seed`.
    pub fn new(seed: u64, size: Size) -> Self {
        let mut gen = MixedWorkload::new(seed, CLIENT_POPULATION, size.rows);
        let stream = (0..size.ops)
            .map(|_| gen.next_request(Duration::ZERO))
            .collect();
        Self {
            size,
            objects: size.rows,
            stream,
        }
    }

    fn config() -> StackConfig {
        StackConfig {
            // High enough that the token bucket, which still runs on every
            // request, never refuses even the hottest client.
            client_rate_per_sec: 1_000_000_000,
            ..StackConfig::full()
        }
    }
}

/// What happened to one request in the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    /// Refused at the edge or answered with an error: a failed operation.
    Failed,
    /// Not completed exactly once: a broken service contract.
    Lost,
}

impl Workload for WebMix {
    fn fingerprint(&self) -> u64 {
        crate::fnv1a(self.stream.iter().flat_map(|r| {
            let e = Endpoint::ALL.iter().position(|x| *x == r.endpoint).unwrap() as u64;
            [r.id, r.client, r.key, e]
        }))
    }

    fn size(&self) -> Size {
        self.size
    }

    fn layers(&self) -> Vec<String> {
        let mut v = crate::app_layer_names(&Endpoint::ALL);
        v.extend(crate::STORAGE_COUNTS.map(String::from));
        v.extend(
            [
                "service.offer_ns",
                "service.run_tick_ns",
                "service.self_ns",
                "service.round_trips_per_op",
                "kv.commands_per_op",
                "trace.overhead",
                "trace.unaccounted_share",
            ]
            .map(String::from),
        );
        v
    }

    fn round(&self, pass: Pass) -> Round {
        let n = self.stream.len();
        let clock: SharedClock = RealClock::shared();
        let heap_empty = crate::alloc::live_bytes();
        let t = Instant::now();
        let service = Service::new(clock.clone(), Self::config(), self.objects);
        let setup = t.elapsed();
        let seeded_bytes = crate::alloc::live_bytes() - heap_empty;

        // The traced pass replays each served request right after the
        // service answers it, outside the request's own timing, so that
        // run_tick and the replayed handler run under the same conditions.
        // The other passes replay after the timed phase.
        let traced = pass == Pass::Traced;
        let rows_read = Arc::new(crate::RowsRead::default());
        let mut apps = traced.then(|| ReplayApps::build(self.objects, None));
        let mut latencies_ns = Vec::with_capacity(n);
        let mut status = Vec::with_capacity(n);
        let origin = Instant::now();
        let (mut tracer, mut replay_tracer) = if traced {
            (Tracer::on(origin, 3 * n), Tracer::on(origin, n))
        } else {
            (Tracer::off(), Tracer::off())
        };
        let mut replay_error = None;
        let mut replayed = Duration::ZERO;
        let heap_before = crate::alloc::live_bytes();
        let start = Instant::now();
        for req in &self.stream {
            let t0 = Instant::now();
            let root = tracer.enter(Layer::Request, req.id, NO_SPAN);
            let mut sent = *req;
            sent.arrived = clock.now();
            let offered = tracer.span(Layer::Offer, req.id, root, || service.offer(sent));
            let completions = tracer.span(Layer::RunTick, req.id, root, || {
                service.run_tick(clock.now(), req.endpoint.cost())
            });
            tracer.exit(root);
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
            let s = match (&offered, completions.as_slice()) {
                (Err(_), []) => Status::Failed,
                (Ok(()), [c]) if c.request.id == req.id => {
                    if c.outcome.is_ok() {
                        Status::Ok
                    } else {
                        Status::Failed
                    }
                }
                _ => Status::Lost,
            };
            status.push(s);
            if let (Some(apps), Status::Ok) = (&apps, s) {
                let t1 = Instant::now();
                replay(apps, &mut replay_tracer, req, &mut replay_error);
                replayed += t1.elapsed();
            }
        }
        let elapsed = start.elapsed() - replayed;
        let retained_bytes = crate::alloc::live_bytes() - heap_before;

        let ok = status.iter().filter(|s| **s == Status::Ok).count() as u64;
        let failed = n as u64 - ok;
        let mut error = status.iter().position(|s| *s == Status::Lost).map(|i| {
            format!(
                "request {} did not complete exactly once",
                self.stream[i].id
            )
        });
        if error.is_none() {
            error = check_service_counters(&service, n as u64, ok).err();
        }
        let mut layers = BTreeMap::new();
        if pass == Pass::Counting {
            layers.insert(
                "service.round_trips_per_op".into(),
                service.pool().round_trips() as f64 / n as f64,
            );
        }
        drop(service);

        let acked: Vec<&Request> = self
            .stream
            .iter()
            .zip(&status)
            .filter(|(_, s)| **s == Status::Ok)
            .map(|(r, _)| r)
            .collect();
        let apps = match apps.take() {
            Some(apps) => apps,
            None => {
                let counting = pass == Pass::Counting;
                let apps = ReplayApps::build(self.objects, counting.then(|| rows_read.clone()));
                let db_before: Vec<_> = apps.dbs.iter().map(|d| d.stats()).collect();
                let kv_before = apps.store.stats().commands;
                let rows_before = rows_read.get();
                for req in &acked {
                    replay(&apps, &mut replay_tracer, req, &mut replay_error);
                }
                if counting {
                    let db_after: Vec<_> = apps.dbs.iter().map(|d| d.stats()).collect();
                    let ops = acked.len() as u64;
                    crate::storage_counts(
                        &db_before,
                        &db_after,
                        rows_read.get() - rows_before,
                        ops,
                        &mut layers,
                    );
                    layers.insert(
                        "kv.commands_per_op".into(),
                        (apps.store.stats().commands - kv_before) as f64 / ops.max(1) as f64,
                    );
                }
                apps
            }
        };
        if let Some(e) = replay_error {
            error.get_or_insert(e);
        }
        if error.is_none() {
            error = WebModel::from_requests(self.objects, acked.iter().copied())
                .check(&apps)
                .err();
        }

        let mut spans = Vec::new();
        if pass == Pass::Traced {
            let service_spans = tracer.take();
            let replay_spans = replay_tracer.take();
            service_layer_metrics(&service_spans, &replay_spans, &mut layers);
            crate::app_layer_metrics(&replay_spans, &mut layers);
            spans = vec![service_spans, replay_spans];
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

/// Run one served request's handler directly on the replay apps, in an
/// `apps.<endpoint>` span; keep the first failure.
fn replay(apps: &ReplayApps, tracer: &mut Tracer, req: &Request, error: &mut Option<String>) {
    let r = tracer.span(Layer::App(req.endpoint), req.id, NO_SPAN, || {
        apps.dispatch(req)
    });
    if let Err(e) = r {
        error.get_or_insert(format!(
            "replayed {} (request {}) failed: {e}",
            req.endpoint.label(),
            req.id
        ));
    }
}

/// `ServiceStats` and the session pool must agree with the request count.
fn check_service_counters(service: &Service, sent: u64, ok: u64) -> Result<(), String> {
    let s = service.stats();
    let refused = s.rate_limited + s.queue_full + s.read_only_refused;
    if s.accepted + refused != sent {
        return Err(format!(
            "accepted {} + refused {refused} != sent {sent}",
            s.accepted
        ));
    }
    if s.served != ok || s.served + s.failed + s.shed != s.accepted {
        return Err(format!(
            "service stats {s:?} disagree with {ok} ok of {sent}"
        ));
    }
    let pool = service.pool();
    let trips = pool.round_trips();
    if trips < s.served
        || trips > s.served + s.failed
        || pool.in_use() != 0
        || pool.exhausted() != 0
    {
        return Err(format!(
            "pool: {trips} round trips, {} in use, {} exhausted, for {} served",
            pool.in_use(),
            pool.exhausted(),
            s.served
        ));
    }
    Ok(())
}

/// `service.offer_ns`, `service.run_tick_ns`, `service.self_ns` and
/// `trace.unaccounted_share`. `service.self_ns` is run_tick minus the
/// same request's replayed handler time, so offer + self + handler =
/// offer + run_tick; `trace.unaccounted_share` is the request span's self
/// time (what neither offer nor run_tick covers) over its duration.
fn service_layer_metrics(
    service: &[crate::trace::Span],
    replay: &[crate::trace::Span],
    out: &mut BTreeMap<String, f64>,
) {
    let times = crate::trace::layer_times(service);
    let time = |l: Layer| times.get(&l).copied().unwrap_or_default();
    out.insert("service.offer_ns".into(), time(Layer::Offer).mean_ns());
    out.insert("service.run_tick_ns".into(), time(Layer::RunTick).mean_ns());
    let request = time(Layer::Request);
    out.insert(
        "trace.unaccounted_share".into(),
        request.self_ns as f64 / request.total_ns.max(1) as f64,
    );
    let handler_ns: std::collections::HashMap<u64, u64> = replay
        .iter()
        .map(|s| (s.request, s.duration_ns()))
        .collect();
    let service_self: Vec<i64> = service
        .iter()
        .filter(|s| s.layer == Layer::RunTick)
        .filter_map(|s| Some(s.duration_ns() as i64 - *handler_ns.get(&s.request)? as i64))
        .collect();
    out.insert(
        "service.self_ns".into(),
        service_self.iter().sum::<i64>() as f64 / service_self.len().max(1) as f64,
    );
}

/// The eight applications, built and seeded exactly as `Service::new`
/// builds its own, with their databases and KV store kept for checks.
pub struct ReplayApps {
    objects: u64,
    dbs: Vec<Database>,
    store: Store,
    broadleaf: broadleaf::Broadleaf,
    discourse: discourse::Discourse,
    jumpserver: jumpserver::JumpServer,
    mastodon: mastodon::Mastodon,
    redmine: redmine::Redmine,
    saleor: saleor::Saleor,
    scm: scm_suite::ScmSuite,
    spree: spree::Spree,
    discourse_posts: Vec<i64>,
}

impl ReplayApps {
    /// Build and seed `objects` rows per app; `observer` (if any) counts
    /// rows read on every database.
    pub fn build(objects: u64, observer: Option<Arc<crate::RowsRead>>) -> Self {
        let clock = RealClock::shared();
        let store = Store::new();
        let kv = Client::new(store.clone(), clock, LatencyModel::zero());
        let db = |p| {
            let d = Database::in_memory(p);
            if let Some(o) = &observer {
                d.attach_observer(o.clone());
            }
            d
        };
        let dbs = vec![
            db(EngineProfile::MySqlLike),
            db(EngineProfile::PostgresLike),
            db(EngineProfile::PostgresLike),
            db(EngineProfile::PostgresLike),
            db(EngineProfile::PostgresLike),
            db(EngineProfile::PostgresLike),
            db(EngineProfile::MySqlLike),
            db(EngineProfile::MySqlLike),
        ];
        let mem = || Arc::new(MemLock::new());
        let broadleaf =
            broadleaf::Broadleaf::new(broadleaf::setup(&dbs[0]).unwrap(), mem(), Mode::AdHoc);
        let discourse =
            discourse::Discourse::new(discourse::setup(&dbs[1]).unwrap(), mem(), Mode::AdHoc);
        let jumpserver = jumpserver::JumpServer::new(
            jumpserver::setup(&dbs[2]).unwrap(),
            Arc::new(KvSetNxLock::new(kv.clone())),
            Mode::AdHoc,
        );
        let mastodon = mastodon::Mastodon::new(
            mastodon::setup(&dbs[3]).unwrap(),
            kv.clone(),
            Arc::new(KvSetNxLock::new(kv.clone())),
            Mode::AdHoc,
        );
        let redmine = redmine::Redmine::new(redmine::setup(&dbs[4]).unwrap(), Mode::AdHoc);
        let saleor = saleor::Saleor::new(saleor::setup(&dbs[5]).unwrap(), mem(), Mode::AdHoc);
        let scm = scm_suite::ScmSuite::new(scm_suite::setup(&dbs[6]).unwrap(), mem(), Mode::AdHoc);
        let spree = spree::Spree::new(spree::setup(&dbs[7]).unwrap(), mem(), Mode::AdHoc);
        discourse.seed_image(1, 1000).unwrap();
        let mut discourse_posts = Vec::with_capacity(objects as usize);
        for id in 1..=objects as i64 {
            broadleaf.seed_cart(id).unwrap();
            broadleaf.seed_sku(id, SEED_STOCK).unwrap();
            discourse.seed_topic(id).unwrap();
            discourse_posts.push(discourse.seed_post(id, "seed", 1).unwrap());
            jumpserver.seed_asset(id).unwrap();
            mastodon.seed_poll(id).unwrap();
            redmine.seed_issue(id, "traffic").unwrap();
            saleor.seed_stock(id, SEED_STOCK).unwrap();
            saleor.seed_allocation(id, id, 1).unwrap();
            scm.seed_account(id, SEED_STOCK).unwrap();
            spree.seed_catalog(id, id, &[1], SEED_STOCK).unwrap();
            spree.seed_order(id).unwrap();
        }
        Self {
            objects,
            dbs,
            store,
            broadleaf,
            discourse,
            jumpserver,
            mastodon,
            redmine,
            saleor,
            scm,
            spree,
            discourse_posts,
        }
    }

    /// Run one request's handler with the arguments the service derives
    /// from it. Calls that report a business refusal (`false`) fail here:
    /// with the seeded stock and balances none should be refused.
    pub fn dispatch(&self, req: &Request) -> Result<(), String> {
        let id = row_id(req, self.objects);
        let refused = |ok: bool| {
            if ok {
                Ok(())
            } else {
                Err("refused".to_string())
            }
        };
        let r: adhoc_apps::Result<Result<(), String>> = match req.endpoint {
            Endpoint::BroadleafAddToCart => self.broadleaf.add_to_cart(id, CART_PRICE, 1).map(Ok),
            Endpoint::BroadleafCheckout => self.broadleaf.check_out(id, 1).map(refused),
            Endpoint::DiscourseCreatePost => self
                .discourse
                .create_post(id, "traffic post")
                .map(|_| Ok(())),
            Endpoint::DiscourseLikePost => {
                let post = self.discourse_posts[(req.key % self.objects) as usize];
                self.discourse.like_post(post).map(Ok)
            }
            Endpoint::JumpserverGrant => {
                let user = (req.client % 997) as i64 + 1;
                self.jumpserver
                    .grant(user, id, (req.id % 3) as i64 + 1)
                    .map(Ok)
            }
            Endpoint::MastodonVote => self.mastodon.vote(id, choice(req)).map(Ok),
            Endpoint::MastodonTimeline => self.mastodon.timeline(id).map(|_| Ok(())),
            Endpoint::RedmineAdvanceIssue => self
                .redmine
                .advance_issue(id, (req.client % 50) as i64, 1)
                .map(Ok),
            // A second allocation of the same item finds qty 0 and moves
            // nothing; it still reports success.
            Endpoint::SaleorAllocate => self.saleor.allocate(id).map(refused),
            Endpoint::ScmTransfer => match transfer_target(req, self.objects) {
                Some(to) => self.scm.transfer(id, to, 1).map(refused),
                None => Ok(Ok(())),
            },
            Endpoint::SpreeDecrementStock => self.spree.decrement_stock(id, id, 1).map(refused),
            // A repeated payment is refused by design, not by the model.
            Endpoint::SpreeAddPayment => self.spree.add_payment(id).map(|_| Ok(())),
        };
        r.map_err(crate::text)?
    }
}

fn row_id(req: &Request, objects: u64) -> i64 {
    (req.key % objects) as i64 + 1
}

fn choice(req: &Request) -> mastodon::Choice {
    if req.id.is_multiple_of(2) {
        mastodon::Choice::A
    } else {
        mastodon::Choice::B
    }
}

/// The account an `scm.transfer` credits: the next one, wrapping; `None`
/// when that is the debited account itself (a single-account table).
fn transfer_target(req: &Request, objects: u64) -> Option<i64> {
    let to = ((req.key + 1) % objects + 1) as i64;
    (to != row_id(req, objects)).then_some(to)
}

/// The end state the acknowledged requests must leave, computed from the
/// stream alone.
#[derive(Debug, Default)]
pub struct WebModel {
    objects: u64,
    votes: BTreeMap<i64, (i64, i64)>,
    likes: BTreeMap<usize, i64>,
    posts_created: BTreeMap<i64, i64>,
    cart_items: BTreeMap<i64, i64>,
    broadleaf_sold: BTreeMap<i64, i64>,
    spree_taken: BTreeMap<i64, i64>,
    paid: std::collections::BTreeSet<i64>,
    allocated: std::collections::BTreeSet<i64>,
    balance_delta: BTreeMap<i64, i64>,
}

impl WebModel {
    /// Fold acknowledged requests into the model.
    pub fn from_requests<'a>(objects: u64, reqs: impl IntoIterator<Item = &'a Request>) -> Self {
        let mut m = Self {
            objects,
            ..Self::default()
        };
        for req in reqs {
            let id = row_id(req, objects);
            match req.endpoint {
                Endpoint::MastodonVote => {
                    let v = m.votes.entry(id).or_default();
                    match choice(req) {
                        mastodon::Choice::A => v.0 += 1,
                        mastodon::Choice::B => v.1 += 1,
                    }
                }
                Endpoint::DiscourseLikePost => {
                    *m.likes.entry((req.key % objects) as usize).or_default() += 1
                }
                Endpoint::DiscourseCreatePost => *m.posts_created.entry(id).or_default() += 1,
                Endpoint::BroadleafAddToCart => *m.cart_items.entry(id).or_default() += 1,
                Endpoint::BroadleafCheckout => *m.broadleaf_sold.entry(id).or_default() += 1,
                Endpoint::SpreeDecrementStock => *m.spree_taken.entry(id).or_default() += 1,
                Endpoint::SpreeAddPayment => {
                    m.paid.insert(id);
                }
                Endpoint::SaleorAllocate => {
                    m.allocated.insert(id);
                }
                Endpoint::ScmTransfer => {
                    if let Some(to) = transfer_target(req, objects) {
                        *m.balance_delta.entry(id).or_default() -= 1;
                        *m.balance_delta.entry(to).or_default() += 1;
                    }
                }
                Endpoint::JumpserverGrant
                | Endpoint::MastodonTimeline
                | Endpoint::RedmineAdvanceIssue => {}
            }
        }
        m
    }

    /// Compare the replayed applications' state with the model, row by row.
    pub fn check(&self, apps: &ReplayApps) -> Result<(), String> {
        let e = |what: &str, id: i64, got: i64, want: i64| {
            Err(format!(
                "{what} of row {id} is {got}, the model says {want}"
            ))
        };
        let posts_schema = apps
            .discourse
            .orm()
            .db()
            .schema("posts")
            .map_err(crate::text)?;
        let mut payments: BTreeMap<i64, i64> = BTreeMap::new();
        let pay_schema = apps
            .spree
            .orm()
            .db()
            .schema("payments")
            .map_err(crate::text)?;
        for (_, row) in apps
            .spree
            .orm()
            .db()
            .dump_table("payments")
            .map_err(crate::text)?
        {
            let order = row.get_int(&pay_schema, "order_id").map_err(crate::text)?;
            *payments.entry(order).or_default() += 1;
        }
        let mut balance_total = 0;
        for id in 1..=self.objects as i64 {
            let idx = (id - 1) as usize;
            let (a, b) = apps.mastodon.poll_totals(id).map_err(crate::text)?;
            let want = self.votes.get(&id).copied().unwrap_or_default();
            if (a, b) != want {
                return Err(format!(
                    "poll {id} tallies {:?}, the model says {want:?}",
                    (a, b)
                ));
            }
            let likes = self.likes.get(&idx).copied().unwrap_or(0);
            let post = apps
                .discourse
                .orm()
                .db()
                .latest_committed("posts", apps.discourse_posts[idx])
                .map_err(crate::text)?
                .ok_or("seeded post missing")?
                .get_int(&posts_schema, "like_cnt")
                .map_err(crate::text)?;
            if post != likes {
                return e("post like_cnt", id, post, likes);
            }
            let topic = apps
                .discourse
                .orm()
                .find_required("topics", id)
                .map_err(crate::text)?;
            let total_likes = topic.get_int("total_likes").map_err(crate::text)?;
            if total_likes != likes {
                return e("topic total_likes", id, total_likes, likes);
            }
            let max_post = topic.get_int("max_post").map_err(crate::text)?;
            let posts = 1 + self.posts_created.get(&id).copied().unwrap_or(0);
            if max_post != posts {
                return e("topic max_post", id, max_post, posts);
            }
            if !apps
                .discourse
                .topic_posts_consistent(id)
                .map_err(crate::text)?
            {
                return Err(format!("topic {id}: topic_posts_consistent fails"));
            }
            let cart = apps
                .broadleaf
                .orm()
                .find_required("carts", id)
                .map_err(crate::text)?;
            let total = cart.get_int("total").map_err(crate::text)?;
            let want_total = CART_PRICE * self.cart_items.get(&id).copied().unwrap_or(0);
            if total != want_total {
                return e("cart total", id, total, want_total);
            }
            if !apps
                .broadleaf
                .cart_total_consistent(id)
                .map_err(crate::text)?
            {
                return Err(format!("cart {id}: cart_total_consistent fails"));
            }
            let sku = apps
                .broadleaf
                .orm()
                .find_required("skus", id)
                .map_err(crate::text)?;
            let qty = sku.get_int("quantity").map_err(crate::text)?;
            let want = SEED_STOCK - self.broadleaf_sold.get(&id).copied().unwrap_or(0);
            if qty != want {
                return e("broadleaf sku quantity", id, qty, want);
            }
            let qty = apps.spree.sku_quantity(id).map_err(crate::text)?;
            let want = SEED_STOCK - self.spree_taken.get(&id).copied().unwrap_or(0);
            if qty != want {
                return e("spree sku quantity", id, qty, want);
            }
            let paid = payments.get(&id).copied().unwrap_or(0);
            let want = i64::from(self.paid.contains(&id));
            if paid != want {
                return e("spree payments", id, paid, want);
            }
            let qty = apps.saleor.stock_qty(id).map_err(crate::text)?;
            let want = SEED_STOCK - i64::from(self.allocated.contains(&id));
            if qty != want {
                return e("saleor stock qty", id, qty, want);
            }
            let balance = apps.scm.balance(id).map_err(crate::text)?;
            let want = SEED_STOCK + self.balance_delta.get(&id).copied().unwrap_or(0);
            if balance != want {
                return e("scm balance", id, balance, want);
            }
            balance_total += balance;
        }
        if balance_total != SEED_STOCK * self.objects as i64 {
            return Err(format!(
                "scm balances sum to {balance_total}: money was not conserved"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_an_acknowledged_request_from_the_model_fails_the_check() {
        let w = WebMix::new(3, size(true));
        let apps = ReplayApps::build(w.objects, None);
        for req in &w.stream {
            apps.dispatch(req).unwrap();
        }
        WebModel::from_requests(w.objects, &w.stream)
            .check(&apps)
            .unwrap();
        for e in [
            Endpoint::MastodonVote,
            Endpoint::ScmTransfer,
            Endpoint::BroadleafAddToCart,
        ] {
            let skip = w.stream.iter().position(|r| r.endpoint == e).unwrap();
            let partial = w
                .stream
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, r)| r);
            assert!(
                WebModel::from_requests(w.objects, partial)
                    .check(&apps)
                    .is_err(),
                "model without one {} still passed",
                e.label()
            );
        }
    }
}
