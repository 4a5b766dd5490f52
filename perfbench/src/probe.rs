//! Reproducers for the faults the workloads are shaped around
//! (`perfbench --probe <name>`). They measure and print; they check
//! nothing and are not part of any benchmark run.

use adhoc_apps::{broadleaf, mastodon, Mode};
use adhoc_core::locks::{KvSetNxLock, MemLock};
use adhoc_kv::{Client, Store};
use adhoc_sim::{LatencyModel, RealClock};
use adhoc_storage::{Column, ColumnType, Database, EngineProfile, IsolationLevel, Schema};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The probe names `--probe` accepts.
pub const PROBES: [&str; 3] = ["pk-neighbors", "cart-rescan", "hot-row-stall"];

/// Run one probe; `Err` for an unknown name or a stalled probe.
pub fn run(name: &str) -> Result<(), String> {
    match name {
        "pk-neighbors" => pk_neighbors(),
        "cart-rescan" => cart_rescan(),
        "hot-row-stall" => hot_row_stall(),
        other => Err(format!("unknown probe {other} (one of {PROBES:?})")),
    }
}

/// `mastodon.vote` in ad hoc mode updates through `update_where`, whose
/// gap bookkeeping walks the table's whole key set: the cost per vote
/// grows with the number of polls, not with the work one vote does.
fn pk_neighbors() -> Result<(), String> {
    for polls in [1_024i64, 4_096, 16_384] {
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let app = mastodon::Mastodon::new(
            mastodon::setup(&db).map_err(crate::text)?,
            kv.clone(),
            Arc::new(KvSetNxLock::new(kv)),
            Mode::AdHoc,
        );
        for id in 1..=polls {
            app.seed_poll(id).map_err(crate::text)?;
        }
        let mut rng = adhoc_sim::rng::seeded(1);
        let votes = 2_000;
        let t = Instant::now();
        for _ in 0..votes {
            app.vote(rng.gen_range(1..=polls), mastodon::Choice::A)
                .map_err(crate::text)?;
        }
        let per = t.elapsed().as_secs_f64() * 1e6 / f64::from(votes);
        println!("mastodon.vote over {polls:>6} polls: {per:>9.1} us per vote");
    }
    Ok(())
}

/// `broadleaf.add_to_cart` recomputes the cart total by scanning every
/// item of the cart, so each add costs more than the last.
fn cart_rescan() -> Result<(), String> {
    let db = Database::in_memory(EngineProfile::MySqlLike);
    let app = broadleaf::Broadleaf::new(
        broadleaf::setup(&db).map_err(crate::text)?,
        Arc::new(MemLock::new()),
        Mode::AdHoc,
    );
    app.seed_cart(1).map_err(crate::text)?;
    let bucket = 500;
    for b in 0..4 {
        let t = Instant::now();
        for _ in 0..bucket {
            app.add_to_cart(1, 100, 1).map_err(crate::text)?;
        }
        let per = t.elapsed().as_secs_f64() * 1e6 / f64::from(bucket);
        println!(
            "add_to_cart with {:>4}..{:>4} items in the cart: {per:>9.1} us per add",
            b * bucket,
            (b + 1) * bucket
        );
    }
    Ok(())
}

/// Two threads of single-row Read Committed updates over 8 rows on the
/// MySQL-like engine. A healthy run finishes in seconds; the fault shows
/// as one writer holding its record lock for seconds while the other's
/// lock waits time out. The probe gives up after two minutes.
fn hot_row_stall() -> Result<(), String> {
    const ROWS: i64 = 8;
    const UPDATES: i64 = 200_000;
    let db = Database::in_memory(EngineProfile::MySqlLike);
    db.create_table(
        Schema::new(
            "hot",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("val", ColumnType::Int),
            ],
            "id",
        )
        .map_err(crate::text)?,
    )
    .map_err(crate::text)?;
    db.run(IsolationLevel::ReadCommitted, |t| {
        for id in 1..=ROWS {
            t.insert("hot", &[("id", id.into()), ("val", 0.into())])?;
        }
        Ok(())
    })
    .map_err(crate::text)?;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let progress: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let start = Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let (db, done, progress) = (db.clone(), done_tx.clone(), progress.clone());
            std::thread::spawn(move || {
                let (mut worst, mut errors) = (Duration::ZERO, 0u64);
                for i in 0..UPDATES {
                    let t = Instant::now();
                    let r = db.run(IsolationLevel::ReadCommitted, |tx| {
                        tx.update("hot", (i + w) % ROWS + 1, &[("val", i.into())])
                    });
                    errors += u64::from(r.is_err());
                    worst = worst.max(t.elapsed());
                    progress[w as usize].fetch_add(1, Ordering::Relaxed);
                }
                let _ = done.send((w, worst, errors));
            })
        })
        .collect();
    drop(done_tx);
    for _ in 0..workers.len() {
        match done_rx.recv_timeout(Duration::from_secs(120).saturating_sub(start.elapsed())) {
            Ok((w, worst, errors)) => println!(
                "writer {w}: {UPDATES} updates, slowest {:.1} ms, {errors} failed (lock wait timeouts)",
                worst.as_secs_f64() * 1e3
            ),
            Err(_) => {
                let done = [0, 1].map(|w| progress[w].load(Ordering::Relaxed));
                return Err(format!(
                    "stalled: after 120 s the writers had done {done:?} of {UPDATES} updates each"
                ));
            }
        }
    }
    for w in workers {
        w.join().map_err(|_| "a writer panicked".to_string())?;
    }
    println!(
        "both writers done in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}
