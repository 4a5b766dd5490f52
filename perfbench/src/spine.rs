//! Does the commit spine scale to two threads?
//!
//! Times single-row update commits through `Database::run` on disjoint
//! keys at one and at two threads (`storage.commit_ns_1t` / `_2t`). The
//! threads share no row, so whatever slows the second thread down is the
//! engine's shared machinery (lock manager, epoch watermark, shard locks,
//! counters), not contention the benchmark asked for. Set against the
//! app-level figures, this separates an engine-level scaling loss from
//! one above it.

use crate::trace::{Layer, Span, Tracer, NO_SPAN};
use adhoc_storage::{Column, ColumnType, Database, EngineProfile, IsolationLevel, Schema};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// Most worker threads the benchmark runs (the reference box has 2 vCPUs).
pub const THREADS: usize = 2;
/// Commits per thread.
const COMMITS: usize = 20_000;
/// Rows per thread.
const ROWS: i64 = 256;

/// `storage.commit_ns_1t` and `storage.commit_ns_2t`: mean ns per
/// single-row update commit on disjoint keys, at one and at two threads.
/// Returns the `storage.run` spans, one list per thread.
pub fn metrics(origin: Instant, out: &mut BTreeMap<String, f64>) -> Vec<Vec<Span>> {
    let (one, mut spans) = commit_ns(1, origin);
    let (two, two_spans) = commit_ns(THREADS, origin);
    out.insert("storage.commit_ns_1t".into(), one);
    out.insert("storage.commit_ns_2t".into(), two);
    spans.extend(two_spans);
    spans
}

fn commit_ns(threads: usize, origin: Instant) -> (f64, Vec<Vec<Span>>) {
    let db = Database::in_memory(EngineProfile::MySqlLike);
    db.create_table(
        Schema::new(
            "spine",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("val", ColumnType::Int),
            ],
            "id",
        )
        .expect("spine schema"),
    )
    .expect("spine table");
    db.run(IsolationLevel::ReadCommitted, |t| {
        for id in 1..=ROWS * threads as i64 {
            t.insert("spine", &[("id", id.into()), ("val", 0.into())])?;
        }
        Ok(())
    })
    .expect("seed spine rows");
    let barrier = Barrier::new(threads);
    let spans: Vec<Vec<Span>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as i64)
            .map(|t| {
                let (db, barrier) = (&db, &barrier);
                s.spawn(move || {
                    let mut tracer = Tracer::on(origin, COMMITS);
                    barrier.wait();
                    for i in 0..COMMITS as i64 {
                        let id = t * ROWS + i % ROWS + 1;
                        tracer
                            .span(Layer::StorageRun, i as u64, NO_SPAN, || {
                                db.run(IsolationLevel::ReadCommitted, |tx| {
                                    tx.update("spine", id, &[("val", i.into())])
                                })
                            })
                            .expect("disjoint single-row update commits");
                    }
                    tracer.take()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spine worker"))
            .collect()
    });
    let all: Vec<&Span> = spans.iter().flatten().collect();
    let total: u64 = all.iter().map(|s| s.duration_ns()).sum();
    (total as f64 / all.len() as f64, spans)
}
