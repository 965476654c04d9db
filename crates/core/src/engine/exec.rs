//! Strategy execution.

use crate::engine::eval;
use crate::engine::pool;
use crate::engine::share::{self, TermOptions};
use crate::engine::warehouse::{scan_operand, PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use crate::parallel::{canonical_stage_order, ParallelStrategy};
use crate::wal::{encode_pending, Manifest, ManifestExpr, RecordBody, WalConfig, WalWriter};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use uww_obs as obs;
use uww_relational::ops;
use uww_relational::{
    catalog_to_string, deltas_to_string, digest64, table_digest, ViewOutput, WorkMeter,
};
use uww_vdag::{check_vdag_strategy, Strategy, UpdateExpr, Vdag, ViewId};

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Check conditions C1–C8 before executing (default: on).
    pub validate: bool,
    /// Run the static strategy analyzer first and refuse any strategy it
    /// flags, reporting *all* defects with `UWW###` rule ids instead of the
    /// dynamic checker's first violation (default: off).
    pub analyze_first: bool,
    /// Journal execution to an install WAL so a crashed run can be resumed
    /// by [`crate::recovery::recover`] (default: off).
    pub wal: Option<WalConfig>,
    /// Evaluate each `Comp`'s terms through a shared operand cache
    /// (default: on). The logical work metric and every computed delta are
    /// byte-identical either way; only physical rows touched and hash-table
    /// builds shrink. Off restores the historical per-term scans.
    pub term_sharing: bool,
    /// Worker threads for term evaluation within one `Comp` (default: 0 =
    /// inline). Effective only with `term_sharing`; terms are read-only and
    /// independent, so results are deterministic regardless.
    pub term_threads: usize,
    /// Share operand materializations and hash-join build tables *across*
    /// expressions through a strategy-scope cache (default: off). Requires
    /// `term_sharing` and a sequential run — otherwise the run is refused
    /// with [`CoreError::IncompatibleOptions`]. The cache decides each
    /// `Comp`'s consume/publish directives as the strategy executes, and
    /// invalidation follows the `UWW012` liveness predicate, so deltas, WAL
    /// bytes, and the logical meter are byte-identical to per-`Comp` caching
    /// — only `physical_rows_touched`, `hash_tables_built`/`_reused`,
    /// `hash_tables_cross_reused`, and `operand_reads_cached` move.
    pub strategy_sharing: bool,
    /// Planner-predicted linear work per expression, in execution (manifest)
    /// order — attached to expression spans when tracing is enabled so
    /// traces and the timeline report show predicted vs measured work
    /// side by side (default: none). Never affects execution.
    pub predicted_work: Option<Vec<f64>>,
    /// Partition-parallel execution within each term: hash-partitioned
    /// build/probe and chunked aggregation on a work-stealing pool
    /// (default: one partition — the sequential engine). Final states, WAL
    /// bytes, and the full meter are byte-identical at any partition count;
    /// only wall-clock (and per-partition trace spans) change.
    pub partition: crate::engine::pool::PartitionOptions,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            validate: true,
            analyze_first: false,
            wal: None,
            term_sharing: true,
            term_threads: 0,
            strategy_sharing: false,
            predicted_work: None,
            partition: crate::engine::pool::PartitionOptions::default(),
        }
    }
}

impl ExecOptions {
    /// The term-engine slice of these options.
    pub(crate) fn term_options(&self) -> TermOptions {
        TermOptions {
            share: self.term_sharing,
            threads: self.term_threads,
            partition: self.partition,
        }
    }
}

/// Measurements for one executed expression.
#[derive(Clone, Debug)]
pub struct ExprReport {
    /// The expression.
    pub expr: UpdateExpr,
    /// Work done by this expression alone.
    pub work: WorkMeter,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// True when recovery replayed this expression from the WAL instead of
    /// executing it fresh (`Comp`s merge their journaled ΔV fragment with no
    /// scan work; `Inst`s are redone against the restored snapshot).
    pub replayed: bool,
}

/// Measurements for a whole strategy execution: the update window.
#[derive(Clone, Debug, Default)]
pub struct ExecutionReport {
    /// Per-expression breakdown, in execution order.
    pub per_expr: Vec<ExprReport>,
}

impl ExecutionReport {
    /// Total work across all expressions.
    pub fn total_work(&self) -> WorkMeter {
        let mut total = WorkMeter::new();
        for e in &self.per_expr {
            total.absorb(&e.work);
        }
        total
    }

    /// Total wall-clock time: the measured update window.
    pub fn wall(&self) -> Duration {
        self.per_expr.iter().map(|e| e.wall).sum()
    }

    /// The paper's measured linear work (scanned + installed rows).
    pub fn linear_work(&self) -> u64 {
        self.total_work().linear_work()
    }

    /// Renders the report as a JSON object (no external dependencies),
    /// resolving view ids against `g`. This is the one schema every consumer
    /// (`uww run --json`, the serve/bench tooling) reads, so it carries the
    /// full meter — including `rows_emitted` — and each expression's
    /// `replayed` flag.
    pub fn to_json(&self, g: &uww_vdag::Vdag) -> String {
        fn meter_json(m: &WorkMeter) -> String {
            format!(
                "{{\"operand_rows_scanned\":{},\"rows_installed\":{},\"rows_emitted\":{},\
                 \"terms_evaluated\":{},\"comp_expressions\":{},\"inst_expressions\":{},\
                 \"physical_rows_touched\":{},\"hash_tables_built\":{},\
                 \"hash_tables_reused\":{},\"hash_tables_cross_reused\":{},\
                 \"operand_reads_cached\":{}}}",
                m.operand_rows_scanned,
                m.rows_installed,
                m.rows_emitted,
                m.terms_evaluated,
                m.comp_expressions,
                m.inst_expressions,
                m.physical_rows_touched,
                m.hash_tables_built,
                m.hash_tables_reused,
                m.hash_tables_cross_reused,
                m.operand_reads_cached
            )
        }
        fn json_str(s: &str) -> String {
            format!("\"{}\"", obs::json::escape(s))
        }

        let mut out = String::from("{\"per_expr\":[");
        for (n, e) in self.per_expr.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let (kind, view, over): (&str, ViewId, Vec<ViewId>) = match &e.expr {
                UpdateExpr::Comp { view, over } => ("comp", *view, over.iter().copied().collect()),
                UpdateExpr::Inst(view) => ("inst", *view, Vec::new()),
            };
            out.push_str(&format!(
                "{{\"expr\":{},\"kind\":\"{kind}\",\"view\":{},\"over\":[",
                json_str(&e.expr.display(g).to_string()),
                json_str(g.name(view)),
            ));
            for (m, v) in over.iter().enumerate() {
                if m > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(g.name(*v)));
            }
            out.push_str(&format!(
                "],\"elapsed_us\":{},\"replayed\":{},\"work\":{}}}",
                e.wall.as_micros(),
                e.replayed,
                meter_json(&e.work)
            ));
        }
        out.push_str(&format!(
            "],\"total\":{},\"elapsed_us\":{},\"linear_work\":{},\"replayed_exprs\":{}}}",
            meter_json(&self.total_work()),
            self.wall().as_micros(),
            self.linear_work(),
            self.per_expr.iter().filter(|e| e.replayed).count()
        ));
        out
    }
}

/// Predicted-vs-measured sharing counters for one carried window.
///
/// Each predicted quantity is the sum of the per-`Comp` plans the strategy
/// cache's seeded liveness walk fixes before that `Comp`'s terms run; the
/// measured ones come from the meter and from the carried entries that
/// actually served a use. [`exact`](CarryConformance::exact) holding is
/// therefore a *proof obligation* on the executor, not a tuning metric —
/// continuous-mode tests assert it for every window of every seeded stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarryConformance {
    /// Cross-expression hash-table reuses the seeded plan predicted.
    pub predicted_cross_reuses: u64,
    /// Cross-expression hash-table reuses the meter measured.
    pub measured_cross_reuses: u64,
    /// Strategy-cache-served raw operand reads the seeded plan predicted.
    pub predicted_cached_reads: u64,
    /// Strategy-cache-served raw operand reads the meter measured.
    pub measured_cached_reads: u64,
    /// Hash-table uses predicted to be served by the *previous window's*
    /// carried tables (subset of `predicted_cross_reuses`).
    pub predicted_carried_table_hits: u64,
    /// Hash-table uses actually served by carried tables.
    pub measured_carried_table_hits: u64,
    /// Raw operand reads predicted to be served by carried materializations
    /// (subset of `predicted_cached_reads`).
    pub predicted_carried_raw_hits: u64,
    /// Raw operand reads actually served by carried materializations.
    pub measured_carried_raw_hits: u64,
}

impl CarryConformance {
    /// True when every measured counter equals its static prediction.
    pub fn exact(&self) -> bool {
        self.predicted_cross_reuses == self.measured_cross_reuses
            && self.predicted_cached_reads == self.measured_cached_reads
            && self.predicted_carried_table_hits == self.measured_carried_table_hits
            && self.predicted_carried_raw_hits == self.measured_carried_raw_hits
    }
}

/// Result of one carried window: the execution report, the cache entries
/// that survived into the next window, and the conformance ledger.
#[derive(Debug)]
pub struct WindowOutcome {
    /// Per-expression measurements, exactly as [`Warehouse::execute_with`]
    /// would report them.
    pub report: ExecutionReport,
    /// Build tables and raw materializations that outlived this window —
    /// pass to the next window's [`Warehouse::execute_carried`] call (or
    /// drop to run it cold, e.g. after crash recovery).
    pub carry: share::WindowCarry,
    /// Predicted-vs-measured sharing counters for this window.
    pub conformance: CarryConformance,
}

/// One step of the run loop: expressions that all see the warehouse state
/// at batch entry. The batch's `Comp`s are computed against that state — on
/// the task pool when there are several — and merged in order; then its
/// `Inst`s apply one at a time.
pub(crate) struct Batch {
    /// The WAL stage label (0 throughout a sequential run).
    pub(crate) stage: usize,
    /// `(manifest index, expression)` pairs, `Comp`s before `Inst`s.
    pub(crate) exprs: Vec<(usize, UpdateExpr)>,
}

impl Batch {
    /// One batch per expression, all in stage 0: a sequential strategy.
    fn sequential(s: &Strategy) -> Vec<Batch> {
        s.exprs
            .iter()
            .enumerate()
            .map(|(idx, e)| Batch {
                stage: 0,
                exprs: vec![(idx, e.clone())],
            })
            .collect()
    }

    /// One batch per stage, indexed in [`canonical_stage_order`].
    fn staged(p: &ParallelStrategy) -> Vec<Batch> {
        let mut batches: Vec<Batch> = (0..p.stages.len())
            .map(|stage| Batch {
                stage,
                exprs: Vec::new(),
            })
            .collect();
        for (idx, (stage, e)) in canonical_stage_order(p).into_iter().enumerate() {
            batches[stage].exprs.push((idx, e));
        }
        batches
    }
}

/// How a run groups its expressions, as its entry point received them.
enum Schedule<'a> {
    Sequential(&'a Strategy),
    Staged(&'a ParallelStrategy),
}

impl Warehouse {
    /// Executes a VDAG strategy with default options.
    pub fn execute(&mut self, strategy: &Strategy) -> CoreResult<ExecutionReport> {
        self.execute_with(strategy, ExecOptions::default())
    }

    /// Executes a VDAG strategy.
    pub fn execute_with(
        &mut self,
        strategy: &Strategy,
        opts: ExecOptions,
    ) -> CoreResult<ExecutionReport> {
        Ok(self
            .run(Schedule::Sequential(strategy), &opts, None)?
            .report)
    }

    /// Executes one continuous-mode window: like [`Warehouse::execute_with`]
    /// with `strategy_sharing` forced on, but the strategy-scope cache is
    /// seeded with `carry` — the entries that survived the previous window —
    /// and harvested afterwards for the next one. Deltas, WAL bytes, and the
    /// logical meter are byte-identical to an unseeded run; only the physical
    /// sharing counters move, and those conform exactly to the seeded plan.
    pub fn execute_carried(
        &mut self,
        strategy: &Strategy,
        opts: ExecOptions,
        carry: share::WindowCarry,
    ) -> CoreResult<WindowOutcome> {
        self.run(Schedule::Sequential(strategy), &opts, Some(carry))
    }

    /// Executes a parallel strategy (Section 9) stage by stage: within each
    /// stage every `Comp` is computed concurrently against the stage-entry
    /// state, the fragments merge in stage order, and the stage's `Inst`s
    /// apply serially at the stage boundary. The analyzer always runs first
    /// and refuses stage races (`UWW001`) that the linearized checks cannot
    /// see.
    ///
    /// With a WAL attached, each stage journals `STG`, then `CS` for every
    /// `Comp`, then `CD` for every `Comp`, then `IS`/`ID` for each `Inst`,
    /// indexed in [`canonical_stage_order`] — so a crash at any record
    /// boundary resumes sequentially from the expression it interrupted.
    /// The report lists expressions in that order; per-expression walls of
    /// one stage overlap, so time the call itself for the makespan.
    pub fn execute_staged(
        &mut self,
        p: &ParallelStrategy,
        opts: ExecOptions,
    ) -> CoreResult<ExecutionReport> {
        Ok(self.run(Schedule::Staged(p), &opts, None)?.report)
    }

    /// The prologue and epilogue every entry point shares around
    /// [`Warehouse::run_batches`]: option checks, analysis and validation,
    /// the WAL manifest, the strategy cache (seeded with `carry` when
    /// given); then the commit record, the conformance counters and, for a
    /// carried window, the harvest. Nothing executes the strategy ahead of
    /// the run: the cache decides each `Comp`'s directives as it runs.
    fn run(
        &mut self,
        schedule: Schedule<'_>,
        opts: &ExecOptions,
        carry: Option<share::WindowCarry>,
    ) -> CoreResult<WindowOutcome> {
        let staged = matches!(schedule, Schedule::Staged(_));
        let carried = carry.is_some();
        let strategy_sharing = opts.strategy_sharing || carried;
        if strategy_sharing && !opts.term_sharing {
            return Err(CoreError::IncompatibleOptions(
                "strategy sharing requires term sharing (the strategy cache rides on it)".into(),
            ));
        }
        if strategy_sharing && staged {
            return Err(CoreError::IncompatibleOptions(
                "strategy sharing cannot run staged: its consume/publish directives are \
                 decided one expression at a time"
                    .into(),
            ));
        }
        let (linear, batches, analysis) = match schedule {
            Schedule::Sequential(s) => (
                Cow::Borrowed(s),
                Batch::sequential(s),
                opts.analyze_first
                    .then(|| uww_analysis::analyze(self.vdag(), s)),
            ),
            // The linearized checks cannot see stage races: a same-stage
            // pair like `Comp(V5, {V4}); Comp(V4, ..)` linearizes to a
            // C8-legal order yet computes against the stage-entry state,
            // silently dropping ΔV4's contribution. The analyzer (UWW001)
            // can — and it underwrites the manifest's canonical order — so
            // it always runs on a staged schedule.
            Schedule::Staged(p) => (
                Cow::Owned(p.linearize()),
                Batch::staged(p),
                Some(uww_analysis::analyze_parallel(self.vdag(), &p.stages)),
            ),
        };
        if let Some(report) = analysis {
            if report.has_errors() {
                return Err(CoreError::Analysis(Box::new(report)));
            }
        }
        if opts.validate {
            check_vdag_strategy(self.vdag(), &linear)?;
        }
        let mut wal = match &opts.wal {
            Some(cfg) => Some(self.wal_begin(cfg, &batches)?),
            None => None,
        };
        let scache = if strategy_sharing {
            // A carry built at a different partition count cannot seed this
            // window: its tables are split differently than this run's
            // probes, so serving one would be a cross-partition stale hit.
            let carry = carry
                .filter(|c| c.partitions() == opts.partition.partitions)
                .unwrap_or_default();
            Some(share::StrategyCache::new(self, &linear, carry)?)
        } else {
            None
        };
        let mut run_span = obs::span(
            obs::SpanKind::Run,
            if staged { "execute_staged" } else { "execute" },
        );
        run_span.attr_u64("expressions", linear.exprs.len() as u64);
        if staged {
            run_span.attr_u64("stages", batches.len() as u64);
        }
        let start_meter = *self.meter();
        let report = self.run_batches(
            &batches,
            None,
            &mut wal,
            opts.term_options(),
            scache.as_ref(),
            opts.predicted_work.as_deref(),
        )?;
        if let Some(w) = &mut wal {
            w.append(&RecordBody::Commit)?;
        }
        let mut next = share::WindowCarry::empty();
        let mut conformance = CarryConformance::default();
        if let Some(scache) = scache {
            conformance = scache.conformance(&self.meter().since(&start_meter));
            if carried {
                next = scache.harvest(opts.partition.partitions);
            }
        }
        Ok(WindowOutcome {
            report,
            carry: next,
            conformance,
        })
    }

    /// The run loop — the only code that executes expressions. Emits a
    /// stage record whenever a batch's stage differs from `last_stage`
    /// (recovery passes the stage of the last completed prefix expression),
    /// then runs each batch: `CS` for every `Comp`, the `Comp`s computed
    /// against the batch-entry state on the task pool, `CD` and the merge
    /// for each in order, then `IS`, the install and `ID` for each `Inst`.
    /// A `CD` therefore lands before its fragment merges (log-ahead), and
    /// the `ID` carries the installed row count and a digest of the view's
    /// new extent, which recovery verifies after redoing the install.
    pub(crate) fn run_batches(
        &mut self,
        batches: &[Batch],
        mut last_stage: Option<usize>,
        wal: &mut Option<WalWriter>,
        topts: TermOptions,
        scache: Option<&share::StrategyCache>,
        predicted: Option<&[f64]>,
    ) -> CoreResult<ExecutionReport> {
        let mut report = ExecutionReport::default();
        for batch in batches {
            if last_stage != Some(batch.stage) {
                if let Some(w) = wal {
                    w.append(&RecordBody::Stage(batch.stage))?;
                }
                last_stage = Some(batch.stage);
            }
            let _stage_span = (batch.exprs.len() > 1).then(|| {
                let mut span =
                    obs::span_dyn(obs::SpanKind::Stage, || format!("stage {}", batch.stage));
                span.attr_u64(obs::keys::STAGE, batch.stage as u64);
                span
            });
            let mut comps = Vec::new();
            let mut insts = Vec::new();
            for (idx, e) in &batch.exprs {
                match e {
                    UpdateExpr::Comp { view, over } => comps.push((*idx, e, *view, over)),
                    UpdateExpr::Inst(view) => insts.push((*idx, e, *view)),
                }
            }

            // Log-ahead intent for every Comp before any of them runs.
            let mut walls = Vec::with_capacity(comps.len());
            for &(idx, ..) in &comps {
                let t0 = Instant::now();
                if let Some(w) = wal {
                    w.append(&RecordBody::CompStart(idx))?;
                }
                walls.push(t0.elapsed());
            }
            let this: &Warehouse = self;
            let parent = obs::current_span_id();
            let computed = pool::run_tasks(comps.len(), pool::cores(), true, |i| {
                let (idx, expr, view, over) = comps[i];
                let mut span = expr_span(this.vdag(), parent, idx, expr, predicted);
                let t0 = Instant::now();
                let out = comp_fragment(this, view, over, topts, scache.map(|c| (c, idx)))?;
                meter_attrs(&mut span, &out.2);
                Ok::<_, CoreError>((out, t0.elapsed()))
            });
            for ((&(idx, expr, ..), start_wall), result) in comps.iter().zip(walls).zip(computed) {
                let ((name, fragment, meter), compute_wall) = result?;
                let t0 = Instant::now();
                if let Some(w) = wal {
                    let payload = encode_pending(&fragment);
                    w.append(&RecordBody::CompDone {
                        idx,
                        digest: digest64(&payload),
                        payload,
                    })?;
                }
                let before = *self.meter();
                self.merge_fragment(&name, fragment)?;
                let total = self.meter_mut();
                total.comp_expressions += 1;
                share::fold_term_meter(total, &meter);
                if let Some(c) = scache {
                    c.advance(self.vdag(), expr, false);
                }
                report.per_expr.push(ExprReport {
                    expr: expr.clone(),
                    work: self.meter().since(&before),
                    wall: start_wall + compute_wall + t0.elapsed(),
                    replayed: false,
                });
            }

            for &(idx, expr, view) in &insts {
                let mut span = expr_span(self.vdag(), obs::current_span_id(), idx, expr, predicted);
                let before = *self.meter();
                let t0 = Instant::now();
                if let Some(w) = wal {
                    w.append(&RecordBody::InstStart(idx))?;
                }
                let installed = self.exec_inst(view)?;
                if let Some(w) = wal {
                    let post_digest = table_digest(self.table(self.vdag().name(view))?);
                    w.append(&RecordBody::InstDone {
                        idx,
                        delta_len: installed,
                        post_digest,
                    })?;
                }
                if let Some(c) = scache {
                    c.advance(self.vdag(), expr, installed == 0);
                }
                let work = self.meter().since(&before);
                meter_attrs(&mut span, &work);
                drop(span);
                report.per_expr.push(ExprReport {
                    expr: expr.clone(),
                    work,
                    wall: t0.elapsed(),
                    replayed: false,
                });
            }
        }
        Ok(report)
    }

    /// Snapshots the warehouse into a fresh WAL directory and writes the
    /// manifest for `batches` (manifest index order).
    ///
    /// Fails if any derived view already has an in-flight delta: the WAL
    /// journals a whole update window, so it must start from a clean batch
    /// of base-view changes.
    fn wal_begin(&self, cfg: &WalConfig, batches: &[Batch]) -> CoreResult<WalWriter> {
        let mut changes = BTreeMap::new();
        for (name, p) in self.pending_map() {
            let id = self.vdag().id_of(name)?;
            match p {
                PendingDelta::Rows(d) if self.vdag().is_base(id) => {
                    changes.insert(name.clone(), d.clone());
                }
                _ => {
                    return Err(CoreError::Wal(format!(
                        "cannot begin a WAL mid-window: {name} has an in-flight derived delta"
                    )))
                }
            }
        }
        let state_text = catalog_to_string(self.state());
        let changes_text = deltas_to_string(&changes);
        let manifest = Manifest {
            vdag_fingerprint: self.vdag().fingerprint(),
            state_digest: digest64(&state_text),
            changes_digest: digest64(&changes_text),
            fsync: cfg.fsync,
            ctx: cfg.ctx.clone(),
            exprs: batches
                .iter()
                .flat_map(|b| {
                    b.exprs
                        .iter()
                        .map(|(_, e)| ManifestExpr::from_expr(self.vdag(), b.stage, e))
                })
                .collect(),
        };
        WalWriter::create(cfg, &manifest, &state_text, &changes_text)
    }

    /// Folds a computed fragment into `view`'s pending accumulator.
    pub(crate) fn merge_fragment(&mut self, view: &str, fragment: PendingDelta) -> CoreResult<()> {
        if !self.pending_map().contains_key(view) {
            let empty = self.empty_pending_for(view)?;
            self.pending_map_mut().insert(view.to_string(), empty);
        }
        match (self.pending_map_mut().get_mut(view), fragment) {
            (Some(PendingDelta::Rows(acc)), PendingDelta::Rows(d)) => acc.merge(&d),
            (Some(PendingDelta::Summary(acc)), PendingDelta::Summary(s)) => acc.merge(&s),
            _ => {
                return Err(CoreError::Warehouse(format!(
                    "fragment shape mismatch for {view}"
                )))
            }
        }
        Ok(())
    }

    /// Executes `Inst(view)`: installs the pending delta (a no-op when no
    /// delta is pending, e.g. an unchanged base view). Returns the number of
    /// delta rows installed.
    ///
    /// This is the single funnel through which *every* install goes (the
    /// run loop and recovery replay both reach it), so an attached [`InstallPublisher`](crate::engine::publish::InstallPublisher)
    /// sees every install and publishes the new extent to online readers.
    pub(crate) fn exec_inst(&mut self, view: ViewId) -> CoreResult<u64> {
        let name = self.vdag().name(view).to_string();
        self.meter_mut().inst_expressions += 1;
        let publisher = self.publisher().cloned();
        let Some(pending) = self.pending_map_mut().remove(&name) else {
            return Ok(0);
        };
        let delta = match pending {
            PendingDelta::Rows(d) => d,
            PendingDelta::Summary(s) => s.to_delta(self.table(&name)?).map_err(CoreError::Rel)?,
        };
        let len = delta.len();
        match &publisher {
            Some(p) => {
                p.install_and_publish(&name, &delta, self.state_mut())?;
            }
            None => {
                self.state_mut()
                    .get_mut(&name)?
                    .install(&delta)
                    .map_err(CoreError::Rel)?;
            }
        }
        self.meter_mut().install(len);
        Ok(len)
    }
}

/// Attaches the static expression attributes (kind, target view) to a span.
pub(crate) fn expr_attrs(span: &mut obs::Span, g: &uww_vdag::Vdag, expr: &UpdateExpr) {
    if !span.is_recording() {
        return;
    }
    let (kind, view) = match expr {
        UpdateExpr::Comp { view, .. } => ("comp", *view),
        UpdateExpr::Inst(view) => ("inst", *view),
    };
    span.attr_str(obs::keys::EXPR_KIND, kind);
    span.attr_str(obs::keys::VIEW, g.name(view));
}

/// Opens the span of expression `idx` under `parent` (worker threads do not
/// inherit the spawner's span stack), with its static attributes and the
/// planner's predicted work when known.
fn expr_span(
    g: &Vdag,
    parent: u64,
    idx: usize,
    expr: &UpdateExpr,
    predicted: Option<&[f64]>,
) -> obs::Span {
    let mut span = obs::span_under_dyn(obs::SpanKind::Expression, parent, || {
        expr.display(g).to_string()
    });
    if span.is_recording() {
        expr_attrs(&mut span, g, expr);
        if let Some(p) = predicted.and_then(|p| p.get(idx)) {
            span.attr_f64(obs::keys::PREDICTED_WORK, *p);
        }
    }
    span
}

/// Attaches a `WorkMeter` delta to a span as the standard measured-work
/// attributes (the full logical/physical split plus the paper's linear
/// metric under [`obs::keys::MEASURED_WORK`]).
pub(crate) fn meter_attrs(span: &mut obs::Span, work: &WorkMeter) {
    if !span.is_recording() {
        return;
    }
    span.attr_u64(obs::keys::MEASURED_WORK, work.linear_work());
    span.attr_u64(obs::keys::ROWS_SCANNED, work.operand_rows_scanned);
    span.attr_u64(obs::keys::ROWS_INSTALLED, work.rows_installed);
    span.attr_u64(obs::keys::ROWS_EMITTED, work.rows_emitted);
    span.attr_u64(obs::keys::TERMS, work.terms_evaluated);
    span.attr_u64(obs::keys::PHYSICAL_ROWS, work.physical_rows_touched);
    span.attr_u64(obs::keys::HASH_BUILDS, work.hash_tables_built);
    span.attr_u64(obs::keys::HASH_REUSES, work.hash_tables_reused);
    span.attr_u64(obs::keys::HASH_CROSS_REUSES, work.hash_tables_cross_reused);
    span.attr_u64(obs::keys::CACHED_READS, work.operand_reads_cached);
}

/// Display label for a maintenance term: the delta subset it scans.
pub(crate) fn term_label(subset: &BTreeSet<String>) -> String {
    let mut out = String::from("d{");
    for (i, v) in subset.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Computes the delta fragment a `Comp(view, over)` expression contributes,
/// **without mutating the warehouse**: all `2^|over| − 1` maintenance terms
/// evaluated against the current state and pending deltas, accumulated into
/// a fresh [`PendingDelta`]. Terms whose delta subset includes a view with
/// an empty pending delta are skipped (footnote 5 of the paper), costing
/// nothing — for *every* strategy alike.
///
/// Pure over `&Warehouse`, so the `Comp`s of one batch — a parallel stage
/// (Section 9) — can run on separate threads.
///
/// With `topts.share` the surviving terms evaluate through a per-`Comp`
/// [`share::OperandCache`] (optionally across `topts.threads` workers);
/// otherwise each term re-scans its operands, the historical baseline. Both
/// paths produce byte-identical fragments and identical logical meters —
/// only the physical counters differ.
/// `scache` attaches the strategy-scope cache together with this
/// expression's strategy position (which its publish lookahead starts
/// from); only the shared path consults it — the per-term baseline, staged
/// runs, and recovery all run without one.
pub(crate) fn comp_fragment(
    w: &Warehouse,
    view: ViewId,
    over: &BTreeSet<ViewId>,
    topts: TermOptions,
    scache: Option<(&share::StrategyCache, usize)>,
) -> CoreResult<(String, PendingDelta, WorkMeter)> {
    let name = w.vdag().name(view).to_string();
    let def = w
        .def(&name)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {name}")))?
        .clone();
    let over_names: BTreeSet<String> = over.iter().map(|v| w.vdag().name(*v).to_string()).collect();

    // Terms whose delta subset includes an empty pending delta are skipped
    // up front (footnote 5) — in particular a change-free `Comp` builds no
    // operand cache and costs nothing, for every strategy alike. The same
    // filter backs the static sharing prediction, so plans and execution
    // always agree on the term set.
    let terms = share::surviving_terms(w, &over_names);

    let mut fragment = w.empty_pending_for(&name)?;
    if topts.share {
        let (outs, total) = share::eval_terms_shared(w, &def, &terms, topts, scache)?;
        for out in outs {
            match (out, &mut fragment) {
                (share::TermOut::Rows(rows), PendingDelta::Rows(acc)) => {
                    for (t, m) in rows {
                        acc.add(t, m);
                    }
                }
                (share::TermOut::Groups(groups), PendingDelta::Summary(acc)) => {
                    acc.merge_groups(groups);
                }
                _ => unreachable!("empty_pending_for matches the output shape"),
            }
        }
        return Ok((name, fragment, total));
    }

    let mut total = WorkMeter::new();
    for subset in &terms {
        let mut term_span = obs::span_dyn(obs::SpanKind::Term, || term_label(subset));
        let mut scan_meter = WorkMeter::new();
        let mut meter = WorkMeter::new();
        let (schema, rows) = {
            let state = w.state();
            let pending = w.pending_map();
            eval::eval_term(
                &def,
                |v| state.get(v).map(|t| t.schema().clone()),
                |v| scan_operand(state, pending, v, subset.contains(v), &mut scan_meter),
                &mut meter,
            )
            .map_err(CoreError::Rel)?
        };
        match (&def.output, &mut fragment) {
            (ViewOutput::Project(_), PendingDelta::Rows(acc)) => {
                let out = eval::project_output(&def, &schema, &rows, &mut meter)
                    .map_err(CoreError::Rel)?;
                for (t, m) in ops::consolidate(out) {
                    acc.add(t, m);
                }
            }
            (ViewOutput::Aggregate { .. }, PendingDelta::Summary(acc)) => {
                let groups = eval::group_output(&def, &schema, &rows).map_err(CoreError::Rel)?;
                acc.merge_groups(groups);
            }
            _ => unreachable!("empty_pending_for matches the output shape"),
        }
        if term_span.is_recording() {
            let mut combined = scan_meter;
            combined.absorb(&meter);
            meter_attrs(&mut term_span, &combined);
        }
        share::fold_term_meter(&mut total, &scan_meter);
        share::fold_term_meter(&mut total, &meter);
    }
    Ok((name, fragment, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::warehouse::Warehouse;
    use std::collections::BTreeMap;
    use uww_relational::{
        tup, AggFunc, AggregateColumn, DeltaRelation, EquiJoin, OutputColumn, ScalarExpr, Schema,
        Table, Value, ValueType, ViewDef, ViewSource,
    };

    fn base_r() -> Table {
        let mut t = Table::new(
            "R",
            Schema::of(&[("rk", ValueType::Int), ("rv", ValueType::Decimal)]),
        );
        for i in 0..6 {
            t.insert(tup![Value::Int(i), Value::Decimal(100 * (i + 1))])
                .unwrap();
        }
        t
    }

    fn base_s() -> Table {
        let mut t = Table::new(
            "S",
            Schema::of(&[("sk", ValueType::Int), ("grp", ValueType::Int)]),
        );
        for i in 0..6 {
            t.insert(tup![Value::Int(i), Value::Int(i % 2)]).unwrap();
        }
        t
    }

    fn agg_def() -> ViewDef {
        ViewDef {
            name: "V".into(),
            sources: vec![ViewSource::named("R"), ViewSource::named("S")],
            joins: vec![EquiJoin::new("R.rk", "S.sk")],
            filters: vec![],
            output: ViewOutput::Aggregate {
                group_by: vec![OutputColumn::col("grp", "S.grp")],
                aggregates: vec![AggregateColumn {
                    name: "total".into(),
                    func: AggFunc::Sum,
                    input: ScalarExpr::col("R.rv"),
                }],
            },
        }
    }

    fn warehouse_with_changes() -> Warehouse {
        let mut w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .build()
            .unwrap();
        // Delete R row 0 (group 0) and S row 1 (group 1, joins R row 1).
        let mut dr = DeltaRelation::new(w.table("R").unwrap().schema().clone());
        dr.add(tup![Value::Int(0), Value::Decimal(100)], -1);
        let mut ds = DeltaRelation::new(w.table("S").unwrap().schema().clone());
        ds.add(tup![Value::Int(1), Value::Int(1)], -1);
        let mut m = BTreeMap::new();
        m.insert("R".to_string(), dr);
        m.insert("S".to_string(), ds);
        w.load_changes(m).unwrap();
        w
    }

    fn strategy_1way_rs(w: &Warehouse) -> Strategy {
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ])
    }

    fn strategy_dual_stage(w: &Warehouse) -> Strategy {
        uww_vdag::dual_stage_strategy(w.vdag())
    }

    #[test]
    fn one_way_strategy_reaches_expected_state() {
        let mut w = warehouse_with_changes();
        let expected = w.expected_final_state().unwrap();
        let strategy = strategy_1way_rs(&w);
        let report = w.execute(&strategy).unwrap();
        assert!(w.diff_state(&expected).is_empty(), "state mismatch");
        assert!(report.linear_work() > 0);
        assert_eq!(report.per_expr.len(), 5);
    }

    #[test]
    fn dual_stage_strategy_reaches_same_state() {
        let mut w1 = warehouse_with_changes();
        let mut w2 = warehouse_with_changes();
        let expected = w1.expected_final_state().unwrap();
        w1.execute(&strategy_1way_rs(&w1)).unwrap();
        w2.execute(&strategy_dual_stage(&w2)).unwrap();
        assert!(w1.diff_state(&expected).is_empty());
        assert!(w2.diff_state(&expected).is_empty());
        assert!(w1.table("V").unwrap().same_contents(w2.table("V").unwrap()));
    }

    #[test]
    fn reverse_one_way_order_also_correct() {
        let mut w = warehouse_with_changes();
        let expected = w.expected_final_state().unwrap();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        let strategy = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::inst(v),
        ]);
        w.execute(&strategy).unwrap();
        assert!(w.diff_state(&expected).is_empty());
    }

    #[test]
    fn incorrect_strategy_rejected_by_validation() {
        let mut w = warehouse_with_changes();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        // Installs R before propagating it.
        let bad = Strategy::from_exprs(vec![
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        assert!(w.execute(&bad).is_err());
        // Without validation the engine executes it and produces the WRONG
        // state — the reason the correctness conditions exist.
        let mut w2 = warehouse_with_changes();
        let expected = w2.expected_final_state().unwrap();
        w2.execute_with(
            &bad,
            ExecOptions {
                validate: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert!(!w2.diff_state(&expected).is_empty());
    }

    #[test]
    fn analyze_first_refuses_flagged_strategies_with_rule_ids() {
        let mut w = warehouse_with_changes();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        let s = w.view_id("S").unwrap();
        let bad = Strategy::from_exprs(vec![
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        let opts = ExecOptions {
            validate: false,
            analyze_first: true,
            ..ExecOptions::default()
        };
        let err = w.execute_with(&bad, opts.clone()).unwrap_err();
        match err {
            CoreError::Analysis(report) => {
                assert!(report.has_errors());
                assert!(report.diagnostics.iter().any(|d| d.rule.id() == "UWW006"));
            }
            other => panic!("expected analysis rejection, got {other:?}"),
        }
        // A correct strategy still passes with the analyzer on.
        let good = strategy_1way_rs(&w);
        w.execute_with(&good, opts).unwrap();
    }

    #[test]
    fn strategy_sharing_without_term_sharing_is_refused() {
        let mut w = warehouse_with_changes();
        let strategy = strategy_1way_rs(&w);
        let opts = ExecOptions {
            term_sharing: false,
            strategy_sharing: true,
            ..ExecOptions::default()
        };
        let err = w.execute_with(&strategy, opts).unwrap_err();
        assert!(matches!(err, CoreError::IncompatibleOptions(_)), "{err}");
        // A carried window forces strategy sharing on, so it is refused the
        // same way.
        let opts = ExecOptions {
            term_sharing: false,
            ..ExecOptions::default()
        };
        let err = w
            .execute_carried(&strategy, opts, share::WindowCarry::empty())
            .unwrap_err();
        assert!(matches!(err, CoreError::IncompatibleOptions(_)), "{err}");
        // Nothing ran.
        assert_eq!(w.meter().comp_expressions, 0);
        assert_eq!(w.meter().rows_installed, 0);
    }

    #[test]
    fn staged_strategy_sharing_is_refused() {
        let mut w = warehouse_with_changes();
        let expected = w.expected_final_state().unwrap();
        let p = crate::parallel::parallelize(w.vdag(), &strategy_dual_stage(&w));
        let opts = ExecOptions {
            strategy_sharing: true,
            ..ExecOptions::default()
        };
        let err = w.execute_staged(&p, opts).unwrap_err();
        assert!(matches!(err, CoreError::IncompatibleOptions(_)), "{err}");
        assert_eq!(w.meter().comp_expressions, 0);
        // Without strategy sharing the same schedule runs.
        w.execute_staged(&p, ExecOptions::default()).unwrap();
        assert!(w.diff_state(&expected).is_empty());
    }

    #[test]
    fn strategy_sharing_plans_each_comp_once() {
        // The strategy cache decides directives as the run goes: one
        // `OperandCache::build` per `Comp`, and no replay of the strategy
        // ahead of the run (which would build every `Comp` again).
        let mut w = warehouse_with_changes();
        let expected = w.expected_final_state().unwrap();
        let strategy = strategy_1way_rs(&w);
        let comps = strategy
            .exprs
            .iter()
            .filter(|e| matches!(e, UpdateExpr::Comp { .. }))
            .count();
        let builds = || share::BUILD_CALLS.with(|c| c.get());
        let before = builds();
        let opts = ExecOptions {
            strategy_sharing: true,
            ..ExecOptions::default()
        };
        w.execute_with(&strategy, opts).unwrap();
        assert_eq!(builds() - before, comps);
        assert!(w.diff_state(&expected).is_empty());

        let mut w = warehouse_with_changes();
        let before = builds();
        let out = w
            .execute_carried(
                &strategy,
                ExecOptions::default(),
                share::WindowCarry::empty(),
            )
            .unwrap();
        assert_eq!(builds() - before, comps);
        assert!(out.conformance.exact(), "{:?}", out.conformance);
    }

    #[test]
    fn empty_delta_comp_is_free() {
        let mut w = Warehouse::builder()
            .base_table(base_r())
            .base_table(base_s())
            .view(agg_def())
            .build()
            .unwrap();
        // No changes loaded at all.
        let strategy = strategy_1way_rs(&w);
        let report = w.execute(&strategy).unwrap();
        assert_eq!(report.total_work().operand_rows_scanned, 0);
        assert_eq!(report.total_work().rows_installed, 0);
    }

    #[test]
    fn dual_stage_scans_more_than_one_way() {
        // The core effect of the paper: with shrinking views, the dual-stage
        // strategy's multi-delta terms scan more operand rows.
        let mut w1 = warehouse_with_changes();
        let mut w2 = warehouse_with_changes();
        let r1 = w1.execute(&strategy_1way_rs(&w1)).unwrap();
        let r2 = w2.execute(&strategy_dual_stage(&w2)).unwrap();
        assert!(
            r2.total_work().operand_rows_scanned > r1.total_work().operand_rows_scanned,
            "dual-stage {} <= one-way {}",
            r2.total_work().operand_rows_scanned,
            r1.total_work().operand_rows_scanned
        );
    }

    #[test]
    fn foreign_and_malformed_expressions_rejected() {
        let mut w = warehouse_with_changes();
        let v = w.view_id("V").unwrap();
        let r = w.view_id("R").unwrap();
        // Comp on a base view.
        let bad = Strategy::from_exprs(vec![UpdateExpr::comp1(r, v)]);
        assert!(w.execute(&bad).is_err());
        // Expression over an out-of-range view id.
        let bad = Strategy::from_exprs(vec![UpdateExpr::inst(ViewId(99))]);
        assert!(w.execute(&bad).is_err());
        // Duplicate expression (C6).
        let s = w.view_id("S").unwrap();
        let bad = Strategy::from_exprs(vec![
            UpdateExpr::comp1(v, r),
            UpdateExpr::comp1(v, r),
            UpdateExpr::inst(r),
            UpdateExpr::comp1(v, s),
            UpdateExpr::inst(s),
            UpdateExpr::inst(v),
        ]);
        assert!(w.execute(&bad).is_err());
        // Nothing was applied by the failed attempts.
        assert_eq!(w.meter().rows_installed, 0);
    }

    #[test]
    fn second_execution_is_a_noop() {
        let mut w = warehouse_with_changes();
        let strategy = strategy_1way_rs(&w);
        let first = w.execute(&strategy).unwrap();
        assert!(first.linear_work() > 0);
        let snapshot = w.table("V").unwrap().clone();
        // Pendings were consumed; running again changes nothing and costs
        // nothing.
        let second = w.execute(&strategy).unwrap();
        assert_eq!(second.linear_work(), 0);
        assert!(w.table("V").unwrap().same_contents(&snapshot));
    }

    #[test]
    fn report_json_carries_full_meter_and_replay_flags() {
        let mut w = warehouse_with_changes();
        let report = w.execute(&strategy_1way_rs(&w)).unwrap();
        let json = report.to_json(w.vdag());
        // One schema for all consumers: rows_emitted and replayed included.
        assert!(json.contains("\"rows_emitted\":"));
        assert!(json.contains("\"replayed\":false"));
        assert!(json.contains("\"replayed_exprs\":0"));
        assert!(json.contains("\"kind\":\"comp\""));
        assert!(json.contains("\"kind\":\"inst\""));
        assert!(json.contains("\"view\":\"V\""));
        assert!(json.contains(&format!("\"linear_work\":{}", report.linear_work())));
        // Emitted rows actually flow through to the total.
        let emitted = report.total_work().rows_emitted;
        assert!(json.contains(&format!("\"rows_emitted\":{emitted}")));
    }

    #[test]
    fn report_aggregates_match_sum_of_parts() {
        let mut w = warehouse_with_changes();
        let report = w.execute(&strategy_1way_rs(&w)).unwrap();
        let total = report.total_work();
        let sum_scanned: u64 = report
            .per_expr
            .iter()
            .map(|e| e.work.operand_rows_scanned)
            .sum();
        assert_eq!(total.operand_rows_scanned, sum_scanned);
        assert_eq!(total.comp_expressions, 2);
        assert_eq!(total.inst_expressions, 3);
    }
}
