//! The repository's wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <web_mix|durable_orders> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --stability <runs> [--workload <name>] [--seconds <s>]
//! perfbench --smoke
//! perfbench --probe <pk-neighbors|cart-rescan|hot-row-stall>
//! ```
//!
//! A run generates its inputs from the seed before any timing, then runs
//! whole rounds of that fixed input. Each round builds and seeds the
//! program afresh (timed as set-up), runs every operation of the input
//! once (the timed phase), and checks the program's outputs against a
//! model the benchmark computes on its own. The number of rounds follows
//! from `--seconds` alone, never from how fast the rounds go, so every
//! run of one workload does the same operations.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` it runs untraced rounds, then traced rounds that record a
//! span around every call into a layer, then one counting round with the
//! statement observer attached, and prints the per-layer metrics. The
//! last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod durable_orders;
mod probe;
mod spine;
mod stats;
mod trace;
mod web_mix;

use adhoc_service::Endpoint;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// What a round records besides the end-to-end timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// No spans, no observer: the end-to-end measurement.
    Plain,
    /// Spans around every layer call.
    Traced,
    /// A statement observer and the layers' counters.
    Counting,
}

/// One round of a workload: set-up, the timed operations, the checks.
#[derive(Debug)]
pub struct Round {
    /// Operations attempted in the timed phase.
    pub ops: u64,
    /// Operations that did not complete successfully.
    pub failed: u64,
    /// Wall time of the timed phase.
    pub elapsed: Duration,
    /// Time per operation, from call to return, in ns.
    pub latencies_ns: Vec<u64>,
    /// Wall time of building and seeding the program.
    pub setup: Duration,
    /// Live heap the seeded program holds (the working set's size).
    pub seeded_bytes: i64,
    /// Live heap after the timed phase minus live heap after set-up.
    pub retained_bytes: i64,
    /// Per-layer metrics this round measured (by the pass it ran).
    pub layers: BTreeMap<String, f64>,
    /// Spans of a traced round, one list per recording thread.
    pub spans: Vec<Vec<trace::Span>>,
    /// The first failed check, if any.
    pub error: Option<String>,
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Seeded rows per table the operations address.
    pub rows: u64,
    /// Operations per round.
    pub ops: usize,
    /// Nominal wall time of one round's timed phase on the reference
    /// box: `--seconds` buys `seconds / round_seconds` rounds (at least
    /// [`MIN_ROUNDS`]).
    pub round_seconds: f64,
}

/// A workload: seeded inputs plus the way to run one round of them.
pub trait Workload {
    /// A hash of the generated input, printed so that a change to the
    /// generator reads as a different workload, not as a speed change.
    fn fingerprint(&self) -> u64;
    /// Run one round.
    fn round(&self, pass: Pass) -> Round;
    /// The per-layer metrics this workload measures. A traced run fails
    /// if one of them is missing or not finite; every other per-layer
    /// metric belongs to a layer the workload does not call and reads 0.
    fn layers(&self) -> Vec<String>;
    /// The input's size.
    fn size(&self) -> Size;
}

/// The workloads this binary runs, in `BENCHMARK.json`'s order.
pub const WORKLOADS: [&str; 2] = ["web_mix", "durable_orders"];

/// Fewest rounds in a run: set-up time is a median over rounds.
const MIN_ROUNDS: usize = 3;

fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "web_mix" => Box::new(web_mix::WebMix::new(seed, web_mix::size(smoke))),
        "durable_orders" => Box::new(durable_orders::DurableOrders::new(
            seed,
            durable_orders::size(smoke),
        )),
        _ => return None,
    })
}

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("retained_b_per_op", "B"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit. Every traced run prints all of them;
/// a layer the workload does not call (not in [`Workload::layers`]) reads 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("service.offer_ns".into(), "ns"),
        ("service.run_tick_ns".into(), "ns"),
        ("service.self_ns".into(), "ns"),
        ("service.round_trips_per_op".into(), "count"),
    ];
    for e in Endpoint::ALL {
        v.push((format!("apps.{}.mean_ns", e.label()), "ns"));
        v.push((format!("apps.{}.time_share", e.label()), "ratio"));
    }
    for (name, unit) in [
        ("apps.boot_fsck_ns", "ns"),
        ("storage.statements_per_op", "count"),
        ("storage.commits_per_op", "count"),
        ("storage.rows_read_per_op", "count"),
        ("storage.aborts_per_op", "count"),
        ("storage.lock_waits_per_op", "count"),
        ("storage.commit_ns_1t", "ns"),
        ("storage.commit_ns_2t", "ns"),
        ("storage.wal.bytes_per_op", "B"),
        ("storage.wal.records_per_op", "count"),
        ("storage.wal.syncs_per_op", "count"),
        ("storage.recovery.replay_ns_per_record", "ns"),
        ("recovery_s", "s"),
        ("kv.commands_per_op", "count"),
        ("trace.overhead", "ratio"),
        ("trace.unaccounted_share", "ratio"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

/// `apps.<endpoint>.mean_ns` and `.time_share` for each of `endpoints`.
pub fn app_layer_names(endpoints: &[Endpoint]) -> Vec<String> {
    endpoints
        .iter()
        .flat_map(|e| {
            [
                format!("apps.{}.mean_ns", e.label()),
                format!("apps.{}.time_share", e.label()),
            ]
        })
        .collect()
}

/// The metrics [`storage_counts`] produces.
pub const STORAGE_COUNTS: [&str; 5] = [
    "storage.statements_per_op",
    "storage.commits_per_op",
    "storage.aborts_per_op",
    "storage.lock_waits_per_op",
    "storage.rows_read_per_op",
];

/// Draws endpoints from a subset of adhoc-service's traffic model with
/// the weights [`Endpoint::weight`] gives them: the mix adhoc-traffic's
/// `MixedWorkload` draws from, restricted to `endpoints`.
pub struct EndpointMix {
    cumulative: Vec<(u32, Endpoint)>,
}

impl EndpointMix {
    /// The mix over `endpoints` (at least one).
    pub fn new(endpoints: &[Endpoint]) -> Self {
        let mut running = 0;
        let cumulative = endpoints
            .iter()
            .map(|e| {
                running += e.weight();
                (running, *e)
            })
            .collect();
        Self { cumulative }
    }

    /// Draw one endpoint.
    pub fn draw(&self, rng: &mut impl rand::Rng) -> Endpoint {
        let total = self.cumulative.last().expect("at least one endpoint").0;
        let draw = rng.gen_range(0..total);
        self.cumulative
            .iter()
            .find(|(edge, _)| draw < *edge)
            .expect("draw below total weight")
            .1
    }
}

/// Per-layer `apps.<endpoint>.mean_ns` and `.time_share` from one
/// thread's (or one phase's) spans.
pub fn app_layer_metrics(spans: &[trace::Span], out: &mut BTreeMap<String, f64>) {
    let times = trace::layer_times(spans);
    let total: u64 = times
        .iter()
        .filter(|(l, _)| matches!(l, trace::Layer::App(_)))
        .map(|(_, t)| t.total_ns)
        .sum();
    for e in Endpoint::ALL {
        if let Some(t) = times.get(&trace::Layer::App(e)) {
            out.insert(format!("apps.{}.mean_ns", e.label()), t.mean_ns());
            out.insert(
                format!("apps.{}.time_share", e.label()),
                t.total_ns as f64 / total.max(1) as f64,
            );
        }
    }
}

/// Per-op storage counters from `DbStats` deltas over a phase.
pub fn storage_counts(
    before: &[adhoc_storage::db::DbStats],
    after: &[adhoc_storage::db::DbStats],
    rows_read: u64,
    ops: u64,
    out: &mut BTreeMap<String, f64>,
) {
    let sum = |f: fn(&adhoc_storage::db::DbStats) -> u64| -> f64 {
        let a: u64 = after.iter().map(f).sum();
        let b: u64 = before.iter().map(f).sum();
        (a - b) as f64 / ops.max(1) as f64
    };
    out.insert("storage.statements_per_op".into(), sum(|s| s.statements));
    out.insert("storage.commits_per_op".into(), sum(|s| s.commits));
    out.insert("storage.aborts_per_op".into(), sum(|s| s.aborts));
    out.insert(
        "storage.lock_waits_per_op".into(),
        sum(|s| s.lock_stats.waits),
    );
    out.insert(
        "storage.rows_read_per_op".into(),
        rows_read as f64 / ops.max(1) as f64,
    );
}

/// Counts rows returned by reads, for `storage.rows_read_per_op`.
#[derive(Default)]
pub struct RowsRead(std::sync::atomic::AtomicU64);

impl RowsRead {
    /// Rows counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl adhoc_storage::StatementObserver for RowsRead {
    fn on_event(&self, event: &adhoc_storage::AccessEvent) {
        if matches!(event, adhoc_storage::AccessEvent::Read { .. }) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// An error as text (checks report the first failure as a string).
pub fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// FNV-1a over a sequence of words (input fingerprints).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Everything one run produced, before printing.
struct Outcome {
    attempted: u64,
    failed: u64,
    error: Option<String>,
    metrics: Vec<(String, &'static str, f64)>,
}

fn rounds_for(seconds: u64, size: Size) -> usize {
    ((seconds as f64 / size.round_seconds).round() as usize).max(MIN_ROUNDS)
}

fn throughput(rounds: &[Round]) -> f64 {
    let ops: u64 = rounds.iter().map(|r| r.ops - r.failed).sum();
    let secs: f64 = rounds.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    ops as f64 / secs
}

fn end_to_end(rounds: &mut [Round]) -> Vec<(String, &'static str, f64)> {
    let mut lat: Vec<u64> = rounds
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.latencies_ns))
        .collect();
    let p50 = stats::percentile(&mut lat, 50.0) as f64 / 1e3;
    let p99 = stats::percentile(&mut lat, 99.0) as f64 / 1e3;
    let retained: Vec<f64> = rounds
        .iter()
        .map(|r| r.retained_bytes as f64 / r.ops.max(1) as f64)
        .collect();
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let values = [
        throughput(rounds),
        p50,
        p99,
        stats::median(&retained),
        stats::median(&setup),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (n.to_string(), *u, v))
        .collect()
}

/// The per-layer metrics: medians over the traced rounds and the
/// counting round. Fails if a metric the workload measures (`expected`)
/// is missing or not finite, or if one it does not measure turns up.
fn per_layer(
    expected: &[String],
    plain: &[Round],
    traced: &[Round],
    counting: &Round,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in traced.iter().chain(std::iter::once(counting)) {
        for (k, v) in &r.layers {
            values.entry(k.clone()).or_default().push(*v);
        }
    }
    let mut merged: BTreeMap<String, f64> = values
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect();
    merged.insert(
        "trace.overhead".into(),
        1.0 - throughput(traced) / throughput(plain),
    );
    per_layer_catalogue()
        .into_iter()
        .map(|(n, u)| match (expected.contains(&n), merged.get(&n)) {
            (true, Some(v)) if v.is_finite() => Ok((n, u, *v)),
            (true, Some(v)) => Err(format!("per-layer metric {n} came out {v}")),
            (true, None) => Err(format!("per-layer metric {n} was not measured")),
            (false, None) => Ok((n, u, 0.0)),
            (false, Some(_)) => Err(format!(
                "per-layer metric {n} was measured but the workload does not list it"
            )),
        })
        .collect()
}

fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    dir.join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.tsv"))
}

fn run(workload: &dyn Workload, name: &str, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let n = rounds_for(seconds, workload.size());
    let mut plain: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut counting = None;
    if traced {
        let k = n.div_ceil(2).max(2);
        for _ in 0..k {
            plain.push(workload.round(Pass::Plain));
        }
        for _ in 0..k {
            traced_rounds.push(workload.round(Pass::Traced));
        }
        counting = Some(workload.round(Pass::Counting));
    } else {
        for _ in 0..n {
            plain.push(workload.round(Pass::Plain));
        }
    }
    let all: Vec<&Round> = plain
        .iter()
        .chain(&traced_rounds)
        .chain(counting.as_ref())
        .collect();
    let seeded: Vec<f64> = plain.iter().map(|r| r.seeded_bytes as f64).collect();
    println!(
        "rounds {}, seeded state {:.1} MiB (L2 per core on the reference box: 2 MiB)",
        all.len(),
        stats::median(&seeded) / (1 << 20) as f64
    );
    let attempted = all.iter().map(|r| r.ops).sum();
    let failed = all.iter().map(|r| r.failed).sum();
    let mut error = all.iter().find_map(|r| r.error.clone());
    let metrics = if let Some(counting) = &counting {
        let m =
            per_layer(&workload.layers(), &plain, &traced_rounds, counting).unwrap_or_else(|e| {
                error.get_or_insert(e);
                Vec::new()
            });
        if let Some(last) = traced_rounds.last() {
            let path = trace_path(name, seed);
            match trace::write_spans(&path, &last.spans) {
                Ok(()) => println!("spans of the last traced round: {}", path.display()),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
        }
        m
    } else {
        end_to_end(&mut plain)
    };
    if let Some((n, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        error.get_or_insert(format!("metric {n} came out {v}"));
    }
    Outcome {
        attempted,
        failed,
        error,
        metrics,
    }
}

/// A metric value as JSON. A value that is not finite fails the run
/// before it is printed; it prints as `null`, never as a number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_outcome(o: &Outcome) {
    for (name, unit, value) in &o.metrics {
        println!("{name:<44} {value:>18.4} {unit}");
    }
    if let Some(e) = &o.error {
        println!("CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.error.is_none(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    stability: Option<usize>,
    smoke: bool,
    probe: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        stability: None,
        smoke: false,
        probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--stability" => {
                a.stability = Some(
                    value("--stability")?
                        .parse()
                        .map_err(|e| format!("--stability: {e}"))?,
                )
            }
            "--smoke" => a.smoke = true,
            "--probe" => a.probe = Some(value("--probe")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// Stability mode: run each workload `runs` times (seeds 1..=runs), each
/// in a fresh process, and print each end-to-end metric's median,
/// quartiles and quartile spread as a share of the median.
fn stability(runs: usize, workloads: &[String], seconds: u64) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut ok = true;
    for w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in 1..=runs as u64 {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .expect("spawn a benchmark run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() || !last.contains("\"correct\": true") {
                println!("{w} seed {seed}: run failed: {last}");
                ok = false;
                continue;
            }
            for (name, _) in END_TO_END {
                if let Some(v) = json_metric(last, name) {
                    values.entry(name.to_string()).or_default().push(v);
                }
            }
        }
        println!("{w}: {runs} runs, seeds 1..={runs}, {seconds} s each");
        for (name, v) in &values {
            if v.len() < 2 {
                continue;
            }
            let m = stats::median(v);
            let (q1, q3) = stats::quartiles(v);
            println!(
                "  {name:<20} median {m:>14.4}  q1 {q1:>14.4}  q3 {q3:>14.4}  spread {:.2}%",
                100.0 * (q3 - q1) / m
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value of metric `name` in a result line this binary printed.
fn json_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Smoke mode: every workload at a small size, every pass, two seeds;
/// fails on any failed check or failed operation, or if the traced pass
/// does not yield every per-layer metric the workload lists.
fn smoke() -> Result<(), String> {
    for name in WORKLOADS {
        for seed in [1, 2] {
            let w = build(name, seed, true).expect("known workload");
            let mut rounds = Vec::new();
            for pass in [Pass::Plain, Pass::Traced, Pass::Counting] {
                let r = w.round(pass);
                if let Some(e) = &r.error {
                    return Err(format!("{name} seed {seed} {pass:?}: {e}"));
                }
                if r.failed != 0 || r.ops == 0 {
                    return Err(format!(
                        "{name} seed {seed} {pass:?}: {} of {} ops failed",
                        r.failed, r.ops
                    ));
                }
                rounds.push(r);
            }
            per_layer(&w.layers(), &rounds[..1], &rounds[1..2], &rounds[2])
                .map_err(|e| format!("{name} seed {seed}: {e}"))?;
            println!("{name} seed {seed}: checks pass");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.probe {
        return match probe::run(name) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.smoke {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(runs) = args.stability {
        let workloads: Vec<String> = match &args.workload {
            Some(w) => vec![w.clone()],
            None => WORKLOADS.iter().map(|w| w.to_string()).collect(),
        };
        return stability(runs.max(2), &workloads, args.seconds);
    }
    let Some(name) = args.workload else {
        eprintln!("perfbench: --workload is required (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let Some(workload) = build(&name, args.seed, false) else {
        eprintln!("perfbench: unknown workload {name} (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    println!(
        "workload {name} seed {} input fingerprint {:016x} threads available {}",
        args.seed,
        workload.fingerprint(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = run(
        workload.as_ref(),
        &name,
        args.seed,
        args.seconds,
        args.trace,
    );
    print_outcome(&outcome);
    if outcome.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_and_pass_on_two_seeds() {
        smoke().unwrap();
    }

    /// `BENCHMARK.json` names exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer_catalogue().into_iter().map(|(n, _)| n));
        assert_eq!(names, expected);
    }

    #[test]
    fn a_missing_or_non_finite_layer_fails_the_run() {
        let round = |layers: &[(&str, f64)]| Round {
            ops: 1,
            failed: 0,
            elapsed: Duration::from_millis(1),
            latencies_ns: vec![1],
            setup: Duration::ZERO,
            seeded_bytes: 0,
            retained_bytes: 0,
            layers: layers.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            spans: Vec::new(),
            error: None,
        };
        let expected = ["storage.commits_per_op", "trace.overhead"].map(String::from);
        let plain = [round(&[])];
        let with = |v: f64| [round(&[("storage.commits_per_op", v)])];
        let m = per_layer(&expected, &plain, &with(1.5), &round(&[])).unwrap();
        assert!(m.contains(&("storage.commits_per_op".into(), "count", 1.5)));
        assert!(m.contains(&("service.self_ns".into(), "ns", 0.0)));
        assert!(per_layer(&expected, &plain, &[round(&[])], &round(&[])).is_err());
        assert!(per_layer(&expected, &plain, &with(f64::NAN), &round(&[])).is_err());
        assert!(per_layer(&expected[1..], &plain, &with(1.5), &round(&[])).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_stability_parser() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            error: None,
            metrics: vec![("throughput_rps".into(), "1/s", 123.5)],
        };
        let line = format!(
            "{{\"metrics\": {{\"throughput_rps\": {{\"value\": {}, \"unit\": \"1/s\"}}}}}}",
            json_number(o.metrics[0].2)
        );
        assert_eq!(json_metric(&line, "throughput_rps"), Some(123.5));
    }
}
