//! The batch workloads `fig4_minwork` and `fig4_strategy_shared`: the
//! paper's Figure 4 warehouse (six TPC-D bases plus Q3/Q5/Q10) with the
//! default 10% deletion batch, one closed-loop update window per
//! repetition, each on a fresh clone of the loaded warehouse.

use crate::layers::{self, Layers};
use crate::{peak_rss_mb, repeat_setup, Args, Report, Tally};
use perfbench::reference::{Bracket, Kernel};
use perfbench::stats::{median, per_reference, sum_per_reference, summarize, tail_percentile};
use std::time::Instant;
use uww::scenario::TpcdScenario;
use uww_core::{
    min_work, plan_strategy_sharing, ExecOptions, ExecutionReport, SharingScope, SizeCatalog,
    StrategySharingPlan, Warehouse,
};
use uww_obs::SpanKind;
use uww_relational::Catalog;
use uww_vdag::{check_vdag_strategy, Strategy};

/// TPC-D scale factor of the batch warehouse.
const SCALE: f64 = 0.01;
/// The paper's default deletion fraction.
const DELETE_FRAC: f64 = 0.10;
/// Fewest measured windows per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The loaded warehouse and everything the checks compare against.
struct Fixture {
    pristine: Warehouse,
    expected: Catalog,
    strategy: Strategy,
    prediction: Option<StrategySharingPlan>,
    opts: ExecOptions,
    /// Base-view change rows in the batch.
    events: u64,
}

/// One measured window.
struct Window {
    wall_ms: f64,
    estimate_us: f64,
    min_work_us: f64,
    exec_ms: f64,
    strategy: Strategy,
    report: ExecutionReport,
    after: Warehouse,
}

/// Plans and executes one window on a clone of `pristine`, timing each call
/// from outside. Bench spans wrap the planner calls so a traced window's
/// span tree has the same shape as its timings.
fn window(fx: &Fixture) -> Result<Window, String> {
    let mut w = fx.pristine.clone();
    let opts = fx.opts.clone();
    let root = uww_obs::span(SpanKind::Run, "bench.window");
    let t0 = Instant::now();
    let sizes = {
        let _s = uww_obs::span(SpanKind::Run, "core.sizes.estimate");
        SizeCatalog::estimate(&w).map_err(err)?
    };
    let t1 = Instant::now();
    let plan = {
        let _s = uww_obs::span(SpanKind::Run, "core.planner.min_work");
        min_work(w.vdag(), &sizes).map_err(err)?
    };
    let t2 = Instant::now();
    let report = w.execute_with(&plan.strategy, opts).map_err(err)?;
    let t3 = Instant::now();
    drop(root);
    Ok(Window {
        wall_ms: (t3 - t0).as_secs_f64() * 1e3,
        estimate_us: (t1 - t0).as_secs_f64() * 1e6,
        min_work_us: (t2 - t1).as_secs_f64() * 1e6,
        exec_ms: (t3 - t2).as_secs_f64() * 1e3,
        strategy: plan.strategy,
        report,
        after: w,
    })
}

/// Checks one window's output: the planner's strategy, the final state, the
/// linear work the seed fixes, and (strategy sharing) every sharing counter
/// of every expression against the static plan.
fn check(fx: &Fixture, win: &Window, reference_work: u64, tally: &mut Tally) {
    tally.check(win.strategy == fx.strategy, || {
        "planner picked a different strategy than at set-up".into()
    });
    let diffs = win.after.diff_state(&fx.expected);
    tally.check(diffs.is_empty(), || {
        format!("final state differs from the recomputation for {diffs:?}")
    });
    let work = win.report.linear_work();
    tally.check(work == reference_work, || {
        format!("linear work {work} != {reference_work} fixed by the seed")
    });
    if let Some(plan) = &fx.prediction {
        let exact = plan.exprs.len() == win.report.per_expr.len()
            && plan.exprs.iter().zip(&win.report.per_expr).all(|(p, e)| {
                p.plan.predicted_builds == e.work.hash_tables_built
                    && p.plan.predicted_reuses == e.work.hash_tables_reused
                    && p.plan.cross_reuses == e.work.hash_tables_cross_reused
                    && p.plan.cached_reads == e.work.operand_reads_cached
            });
        tally.check(exact, || {
            "measured sharing counters differ from the static plan".into()
        });
    }
}

/// Comp and Inst wall time of one report, in ms.
fn comp_inst_ms(report: &ExecutionReport) -> (f64, f64) {
    let (mut comp, mut inst) = (0.0, 0.0);
    for e in &report.per_expr {
        let ms = e.wall.as_secs_f64() * 1e3;
        match e.expr {
            uww_vdag::UpdateExpr::Comp { .. } => comp += ms,
            uww_vdag::UpdateExpr::Inst(_) => inst += ms,
        }
    }
    (comp, inst)
}

/// One traced window: the standalone layer calls first, on an identical
/// clone and outside the window, then the window itself under a span
/// buffer.
fn traced_window(fx: &Fixture) -> Result<(Window, Layers), String> {
    let probe = fx.pristine.clone();
    let t = Instant::now();
    check_vdag_strategy(probe.vdag(), &fx.strategy).map_err(err)?;
    let check_us = t.elapsed().as_secs_f64() * 1e6;
    // The sharing plan runs inside `execute_with` before its own spans
    // open; timing the same call on the same state attributes it.
    let share_ms = if fx.opts.strategy_sharing {
        let t = Instant::now();
        plan_strategy_sharing(&probe, &fx.strategy, SharingScope::Strategy).map_err(err)?;
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    drop(probe);

    let buf = layers::start_trace();
    let win = window(fx);
    let spans = layers::finish_trace(&buf)?;
    let win = win?;
    let (comp, inst) = comp_inst_ms(&win.report);
    let mut l = layers::span_layers(&spans);
    l.extend(layers::meter_layers(&win.report.total_work()));
    let attributed = (win.estimate_us + win.min_work_us + check_us) / 1e3 + share_ms + comp + inst;
    l.extend([
        ("core.sizes.estimate_us", win.estimate_us),
        ("core.planner.min_work_us", win.min_work_us),
        ("vdag.check_us", check_us),
        ("core.engine.share.plan_ms", share_ms),
        ("core.engine.exec_ms", win.exec_ms),
        ("core.engine.comp_ms", comp),
        ("core.engine.inst_ms", inst),
        (
            "window.unattributed_pct",
            layers::unattributed_pct(win.wall_ms, attributed),
        ),
    ]);
    Ok((win, l))
}

/// Runs a batch workload; `shared` turns strategy-scope sharing on.
pub fn run(args: &Args, shared: bool, kernel: &mut Kernel) -> Result<Report, String> {
    let (pristine, setup) = repeat_setup(kernel, || {
        let t = Instant::now();
        let mut sc = TpcdScenario::builder()
            .scale(SCALE)
            .seed(args.seed)
            .views(uww_tpcd::all_query_defs())
            .build()
            .map_err(err)?;
        let built = t.elapsed();
        let t = Instant::now();
        sc.load_paper_changes(DELETE_FRAC).map_err(err)?;
        Ok((sc.warehouse, built, t.elapsed()))
    })?;

    let expected = pristine.expected_final_state().map_err(err)?;
    let sizes = SizeCatalog::estimate(&pristine).map_err(err)?;
    let strategy = min_work(pristine.vdag(), &sizes).map_err(err)?.strategy;
    let prediction = if shared {
        Some(plan_strategy_sharing(&pristine, &strategy, SharingScope::Strategy).map_err(err)?)
    } else {
        None
    };
    let g = pristine.vdag();
    let mut events = 0;
    for v in g.base_views() {
        events += pristine.pending_len(g.name(v)).map_err(err)?;
    }
    let fx = Fixture {
        pristine,
        expected,
        strategy,
        prediction,
        opts: ExecOptions {
            strategy_sharing: shared,
            ..ExecOptions::default()
        },
        events,
    };

    let mut tally = Tally::default();
    // Warm-up window: fixes the linear work and is itself checked against
    // the recomputed state, but not timed.
    let warm = window(&fx)?;
    let fixed_work = warm.report.linear_work();
    check(&fx, &warm, fixed_work, &mut tally);
    drop(warm);

    let mut bracket = Bracket::start(kernel);
    let mut untraced = Vec::new();
    let mut refs = Vec::new();
    let mut traced = Vec::new();
    let mut reps: Vec<Layers> = Vec::new();
    let min_reps = if args.trace { 1 } else { MIN_REPS };
    let start = Instant::now();
    while start.elapsed() < args.seconds || untraced.len() < min_reps {
        let win = window(&fx)?;
        refs.push(bracket.close());
        check(&fx, &win, fixed_work, &mut tally);
        untraced.push(win.wall_ms);
        drop(win);
        if args.trace {
            let (win, l) = traced_window(&fx)?;
            check(&fx, &win, fixed_work, &mut tally);
            traced.push(win.wall_ms);
            reps.push(l);
        }
    }

    let s = summarize(&untraced);
    let p90 = tail_percentile(&untraced, 0.9, 0).unwrap_or(s.median);
    let rel = per_reference(&untraced, &refs);
    let rel_p90 = tail_percentile(&rel, 0.9, 0).unwrap_or(0.0);
    let window_ref = sum_per_reference(&untraced, &refs);
    println!(
        "window_ms n={} q1={:.3} median={:.3} q3={:.3} p90={:.3}",
        s.n, s.q1, s.median, s.q3, p90
    );
    println!(
        "window_ref n={} mean={window_ref:.4} p90={rel_p90:.4} reference_ms median={:.3}",
        rel.len(),
        median(&refs)
    );
    let mut values: Layers = setup.metrics().into_iter().collect();
    values.extend([
        ("window_ref", window_ref),
        ("window_ref_p90", rel_p90),
        ("window_ms", s.median),
        ("window_ms_p90", p90),
        ("ns_per_work_row", s.median * 1e6 / fixed_work as f64),
        ("events_per_s", fx.events as f64 / (s.median / 1e3)),
        ("reference_ms", median(&refs)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    if args.trace {
        values.extend(layers::median_layers(&reps));
        values.insert(
            "obs.trace_overhead_pct",
            layers::ratio(median(&traced) - s.median, s.median) * 100.0,
        );
    }
    Ok(Report { values, tally })
}
