//! The `fig4_ingest_serve` workload: continuous ingest on the Figure 4
//! warehouse while a query server answers one open-loop reader.
//!
//! Each repetition replays the seeded event timeline through the adaptive
//! scheduler (MinWork per window, carry on, per-window WAL, ledger on) on a
//! fresh clone of the warehouse, publishing every install to an MVCC
//! catalog that a one-worker server reads from. A window's wall time is the interval between consecutive
//! scheduler observer callbacks: cutting, planning, the sharing plan,
//! execution, WAL, ledger and publishing all fall inside it. An untraced
//! repetition runs the reference kernel between windows, outside the
//! intervals, and pairs each window with the runs around it.

use crate::layers::{self, Layers};
use crate::{peak_rss_mb, repeat_setup, Args, Report, Tally};
use perfbench::reference::{Bracket, Kernel};
use perfbench::stats::{
    due_sample, due_us, median, per_reference, samples_for_tail, sum_per_reference, summarize,
    tail_percentile, DueSample,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uww::scenario::TpcdScenario;
use uww_core::{
    min_work, plan_strategy_sharing_carried, ExecOptions, FsyncPolicy, InstallPublisher,
    SizeCatalog, Warehouse, WindowCarry,
};
use uww_relational::VersionedCatalog;
use uww_sched::{
    IngestScheduler, Policy, SchedConfig, SeededSource, SeededSourceConfig, SlaConfig,
    WindowPlanner, WindowReport,
};
use uww_serve::{Client, Server, ServerConfig};
use uww_vdag::{check_vdag_strategy, UpdateExpr};

/// TPC-D scale factor of the ingest warehouse.
const SCALE: f64 = 0.002;
/// Mean arrival rate, milli-events per tick.
const RATE_MILLI: u64 = 2000;
/// Last tick events are generated for: about 60 windows per repetition, so
/// one run averages over many distinct batch compositions of its seed.
const HORIZON: u64 = 1920;
/// The adaptive policy's staleness target, in ticks.
const TARGET_STALENESS: f64 = 24.0;
/// Linear-work rows the engine is modelled to retire per tick.
const SERVICE_RATE: f64 = 20_000.0;
/// Open-loop reader period: 100 queries per second.
const READ_PERIOD_US: u64 = 10_000;
/// `window_ms_p90` needs this many samples beyond it.
const TAIL_BEYOND: usize = 10;
/// A run stops adding repetitions for the tail after this multiple of
/// `--seconds`, and reports the percentile it has.
const TAIL_GRACE: u32 = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn source_config(seed: u64) -> SeededSourceConfig {
    SeededSourceConfig {
        seed,
        rate_milli: RATE_MILLI,
        horizon: HORIZON,
        ..SeededSourceConfig::default()
    }
}

fn sched_config(dir: &Path) -> SchedConfig {
    SchedConfig {
        policy: Policy::Adaptive,
        sla: SlaConfig {
            target_staleness: TARGET_STALENESS,
            service_rate: SERVICE_RATE,
            ..SlaConfig::default()
        },
        horizon: HORIZON,
        carry: true,
        planner: WindowPlanner::MinWork,
        wal_root: Some(dir.join("wal")),
        // The WAL and ledger are written in full but not synced: with
        // `Always`, the ~20 fsyncs per window made window times depend on
        // the host's I/O and vCPU wake-up latency more than on the program.
        fsync: FsyncPolicy::Never,
        ledger: Some(dir.join("ledger.jsonl")),
        ..SchedConfig::default()
    }
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    window_ms: Vec<f64>,
    /// Mean of the reference runs around each window (untraced repetitions
    /// only).
    reference_ms: Vec<f64>,
    events: u64,
    staleness: f64,
    linear_work: u64,
    queries: Vec<DueSample>,
    /// Per-layer values (traced repetitions only, per-window means).
    layers: Layers,
}

/// The open-loop reader: request `i` is due at `i · period`, round-robin
/// over `targets`, on one connection. Returns its samples and the replies
/// that failed or named the wrong view.
fn read_open_loop(
    addr: std::net::SocketAddr,
    targets: &[String],
    stop: &AtomicBool,
) -> (Vec<DueSample>, Vec<String>) {
    let mut failures = Vec::new();
    let mut samples = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return (samples, vec![format!("reader connect: {e}")]),
    };
    let start = Instant::now();
    for i in 0u64.. {
        let due = Duration::from_micros(due_us(i, READ_PERIOD_US));
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let view = &targets[i as usize % targets.len()];
        let sent = start.elapsed().as_micros() as u64;
        let reply = client.query(view);
        let done = start.elapsed().as_micros() as u64;
        match reply {
            Ok(r) if r.view == *view => {
                samples.push(due_sample(i, READ_PERIOD_US, sent, done));
            }
            Ok(r) => failures.push(format!("asked for {view}, reply named {}", r.view)),
            Err(e) => {
                failures.push(format!("query {view}: {e}"));
                break;
            }
        }
    }
    if let Err(e) = client.quit() {
        failures.push(format!("reader quit: {e}"));
    }
    (samples, failures)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                Ok(_) => e.metadata().map_or(0, |m| m.len()),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Standalone per-window layer calls on a shadow warehouse that replays
/// each window's batch: sizes, MinWork, C1–C8 and the sharing plan (seeded
/// with an empty carry, since the scheduler keeps its carry private).
/// Returns (estimate µs, min_work µs, check µs, share plan ms).
fn shadow_window(shadow: &mut Warehouse, wr: &WindowReport) -> Result<[f64; 4], String> {
    let _quiet = uww_obs::suppress();
    shadow.load_changes(wr.batch.clone()).map_err(err)?;
    let t = Instant::now();
    let sizes = SizeCatalog::estimate(shadow).map_err(err)?;
    let estimate = t.elapsed();
    let t = Instant::now();
    min_work(shadow.vdag(), &sizes).map_err(err)?;
    let plan = t.elapsed();
    let t = Instant::now();
    check_vdag_strategy(shadow.vdag(), &wr.strategy).map_err(err)?;
    let check = t.elapsed();
    let t = Instant::now();
    plan_strategy_sharing_carried(shadow, &wr.strategy, &WindowCarry::empty()).map_err(err)?;
    let share = t.elapsed();
    let opts = ExecOptions {
        validate: false,
        ..ExecOptions::default()
    };
    shadow.execute_with(&wr.strategy, opts).map_err(err)?;
    Ok([
        estimate.as_secs_f64() * 1e6,
        plan.as_secs_f64() * 1e6,
        check.as_secs_f64() * 1e6,
        share.as_secs_f64() * 1e3,
    ])
}

/// Runs one repetition in `dir` (removed afterwards).
fn rep(
    pristine: &Warehouse,
    seed: u64,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
    kernel: &mut Kernel,
) -> Result<Rep, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let mut w = pristine.clone();
    let versioned = Arc::new(VersionedCatalog::from_catalog(w.state()));
    w.attach_publisher(InstallPublisher::new(Arc::clone(&versioned), false));
    let server = Server::start(
        Arc::clone(&versioned),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let g = w.vdag();
    let targets: Vec<String> = g
        .derived_views()
        .into_iter()
        .map(|v| g.name(v).to_string())
        .collect();
    let source = SeededSource::new(&w, source_config(seed));
    let mut sched = IngestScheduler::new(sched_config(dir), source);
    let mut shadow = traced.then(|| pristine.clone());

    let stop = AtomicBool::new(false);
    let mut out = Rep::default();
    let mut sums = [0.0f64; 7]; // estimate, min_work, check, share, comp, inst, window
    let mut shadow_err = None;
    let (outcome, (queries, read_failures), spans) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_open_loop(server.local_addr(), &targets, &stop));
        let buf = traced.then(layers::start_trace);
        let mut bracket = (!traced).then(|| Bracket::start(kernel));
        let mut mark = Instant::now();
        let outcome = sched.run_with_observer(&mut w, &mut |wr| {
            let wall = mark.elapsed().as_secs_f64() * 1e3;
            out.window_ms.push(wall);
            if let Some(b) = bracket.as_mut() {
                out.reference_ms.push(b.close());
            }
            if let Some(sh) = shadow.as_mut() {
                match shadow_window(sh, wr) {
                    Ok(t) => {
                        for (acc, v) in sums.iter_mut().zip(t) {
                            *acc += v;
                        }
                    }
                    Err(e) => shadow_err = Some(e),
                }
                for e in &wr.report.per_expr {
                    let ms = e.wall.as_secs_f64() * 1e3;
                    match e.expr {
                        UpdateExpr::Comp { .. } => sums[4] += ms,
                        UpdateExpr::Inst(_) => sums[5] += ms,
                    }
                }
                sums[6] += wall;
            }
            mark = Instant::now();
        });
        let spans = buf.map(|b| layers::finish_trace(&b));
        stop.store(true, Ordering::SeqCst);
        let read = reader.join().expect("reader thread panicked");
        (outcome, read, spans)
    });
    let server_metrics = server.shutdown();
    let outcome = outcome.map_err(err)?;
    if let Some(e) = shadow_err {
        return Err(format!("shadow replay: {e}"));
    }

    // Checks: windows conform, the ledger validates, every reply named its
    // view, and the published snapshot equals the engine's state.
    for wr in &outcome.windows {
        tally.check(wr.conformance.exact(), || {
            format!("window {} sharing counters differ from its plan", wr.index)
        });
    }
    let ledger_path = dir.join("ledger.jsonl");
    let ledger = std::fs::read_to_string(&ledger_path).unwrap_or_default();
    let summary = uww_obs::ledger::validate_ledger(&ledger);
    tally.check(
        matches!(&summary, Ok(s) if s.records == outcome.windows.len() && s.events == outcome.events()),
        || format!("ledger does not match the run: {:?}", summary.as_ref().err()),
    );
    tally.bulk(queries.len() as u64, &read_failures);
    let snap = versioned.snapshot();
    let published = w
        .state()
        .iter()
        .all(|t| snap.get(t.name()).is_ok_and(|p| p.same_contents(t)));
    tally.check(published, || {
        "published snapshot differs from the engine's state".into()
    });
    if let Some(sh) = &shadow {
        let same = w
            .state()
            .iter()
            .all(|t| sh.table(t.name()).is_ok_and(|s| s.same_contents(t)));
        tally.check(same, || "shadow replay diverged from the engine".into());
    }

    out.events = outcome.events();
    out.staleness = outcome.mean_staleness();
    out.linear_work = outcome.windows.iter().map(|w| w.measured_work).sum();
    out.queries = queries;
    if let Some(spans) = spans {
        let spans = spans?;
        let n = outcome.windows.len().max(1) as f64;
        let mut l = layers::span_layers(&spans);
        for v in l.values_mut() {
            *v /= n;
        }
        let mut meter = uww_relational::WorkMeter::new();
        for wr in &outcome.windows {
            meter.absorb(&wr.report.total_work());
        }
        for (k, v) in layers::meter_layers(&meter) {
            // Counts are per window; ratios stay ratios.
            let per_window = k.starts_with("engine.") && !k.ends_with("per_linear");
            l.insert(k, if per_window { v / n } else { v });
        }
        let [est, plan, check, share, comp, inst, window] = sums.map(|x| x / n);
        let predicted: f64 = outcome.windows.iter().map(|w| w.predicted_work).sum();
        let attributed = (est + plan + check) / 1e3 + share + comp + inst;
        let late_max = out.queries.iter().map(|q| q.late_us).max().unwrap_or(0);
        l.extend([
            ("core.sizes.estimate_us", est),
            ("core.planner.min_work_us", plan),
            ("vdag.check_us", check),
            ("core.engine.share.plan_ms", share),
            ("core.engine.exec_ms", comp + inst),
            ("core.engine.comp_ms", comp),
            ("core.engine.inst_ms", inst),
            (
                "window.unattributed_pct",
                layers::unattributed_pct(window, attributed),
            ),
            (
                "wal.bytes_per_window",
                dir_bytes(&dir.join("wal")) as f64 / n,
            ),
            ("obs.ledger_bytes", ledger.len() as f64),
            ("sched.windows", outcome.windows.len() as f64),
            ("sched.events_per_window", out.events as f64 / n),
            (
                "sched.predicted_over_measured",
                layers::ratio(predicted, out.linear_work as f64),
            ),
            ("relational.versioned.epochs", versioned.epoch() as f64),
            ("serve.server_query_us_p50", server_metrics.p50_us as f64),
            ("serve.lock_wait_us", server_metrics.lock_wait_us as f64),
            ("serve.generator_late_us_max", late_max as f64),
        ]);
        out.layers = l;
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(out)
}

/// Runs the ingest workload.
pub fn run(args: &Args, kernel: &mut Kernel) -> Result<Report, String> {
    let (pristine, setup) = repeat_setup(kernel, || {
        let t = Instant::now();
        let sc = TpcdScenario::builder()
            .scale(SCALE)
            .seed(args.seed)
            .views(uww_tpcd::all_query_defs())
            .build()
            .map_err(err)?;
        let built = t.elapsed();
        // The scheduler consumes its source, so each repetition generates
        // the timeline again; here it is generated to be timed.
        let t = Instant::now();
        drop(SeededSource::new(&sc.warehouse, source_config(args.seed)));
        Ok((sc.warehouse, built, t.elapsed()))
    })?;

    let root: PathBuf = args.tmp.join(format!("ingest-{}", std::process::id()));
    let mut tally = Tally::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let tail_n = samples_for_tail(0.9, TAIL_BEYOND);
    let start = Instant::now();
    loop {
        let pooled: usize = reps.iter().map(|r| r.window_ms.len()).sum();
        let elapsed = start.elapsed();
        let done = if args.trace {
            !traced.is_empty() && elapsed >= args.seconds
        } else {
            !reps.is_empty()
                && elapsed >= args.seconds
                && (pooled >= tail_n || elapsed >= args.seconds * TAIL_GRACE)
        };
        if done {
            break;
        }
        let k = reps.len() + traced.len();
        reps.push(rep(
            &pristine,
            args.seed,
            &root.join(format!("rep{k}")),
            false,
            &mut tally,
            kernel,
        )?);
        if args.trace {
            let k = k + 1;
            traced.push(rep(
                &pristine,
                args.seed,
                &root.join(format!("rep{k}")),
                true,
                &mut tally,
                kernel,
            )?);
        }
    }
    let _ = std::fs::remove_dir(&root);

    // Events and staleness are deterministic: every repetition must agree.
    let first = &reps[0];
    for r in reps.iter().chain(&traced) {
        tally.check(
            r.events == first.events && r.staleness == first.staleness,
            || {
                format!(
                    "repetitions disagree: {} events / {} ticks vs {} / {}",
                    r.events, r.staleness, first.events, first.staleness
                )
            },
        );
    }

    let window_ms: Vec<f64> = reps.iter().flat_map(|r| r.window_ms.clone()).collect();
    let refs: Vec<f64> = reps.iter().flat_map(|r| r.reference_ms.clone()).collect();
    let rel = per_reference(&window_ms, &refs);
    let rel_p90 = tail_percentile(&rel, 0.9, TAIL_BEYOND);
    let window_ref = sum_per_reference(&window_ms, &refs);
    let query_us: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.queries.iter().map(|q| q.latency_us as f64))
        .collect();
    let s = summarize(&window_ms);
    let p90 = tail_percentile(&window_ms, 0.9, TAIL_BEYOND);
    let q = summarize(&query_us);
    let p99 = tail_percentile(&query_us, 0.99, 0).unwrap_or(0.0);
    println!(
        "window_ms n={} reps={} q1={:.3} median={:.3} q3={:.3} p90={:?}",
        s.n,
        reps.len(),
        s.q1,
        s.median,
        s.q3,
        p90
    );
    println!(
        "window_ref n={} mean={window_ref:.4} p90={rel_p90:?} reference_ms median={:.3}",
        rel.len(),
        median(&refs)
    );
    println!(
        "query_us n={} q1={:.1} median={:.1} q3={:.1} p99={:.1}",
        q.n, q.q1, q.median, q.q3, p99
    );
    let wall_s: f64 = window_ms.iter().sum::<f64>() / 1e3;
    let events: u64 = reps.iter().map(|r| r.events).sum();
    let work: u64 = reps.iter().map(|r| r.linear_work).sum();

    let mut values: Layers = setup.metrics().into_iter().collect();
    values.extend([
        ("window_ref", window_ref),
        (
            "window_ref_p90",
            rel_p90.or(tail_percentile(&rel, 0.9, 0)).unwrap_or(0.0),
        ),
        ("window_ms", s.median),
        (
            "window_ms_p90",
            p90.or(tail_percentile(&window_ms, 0.9, 0)).unwrap_or(0.0),
        ),
        ("ns_per_work_row", wall_s * 1e9 / work as f64),
        ("events_per_s", events as f64 / wall_s),
        ("reference_ms", median(&refs)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    if args.trace {
        let layer_reps: Vec<Layers> = traced.iter().map(|r| r.layers.clone()).collect();
        values.extend(layers::median_layers(&layer_reps));
        let traced_ms: Vec<f64> = traced.iter().flat_map(|r| r.window_ms.clone()).collect();
        values.extend([
            ("staleness_ticks", first.staleness),
            ("query_us_p50", q.median),
            ("query_us_p99", p99),
            (
                "obs.trace_overhead_pct",
                layers::ratio(median(&traced_ms) - s.median, s.median) * 100.0,
            ),
        ]);
    }
    Ok(Report { values, tally })
}
