//! Shared-operand term evaluation and its static sharing plan.
//!
//! Within one `Comp(W, Y)` no `Inst` intervenes, so the stored extents and
//! pending deltas every maintenance term scans are *identical* across the
//! `2^|Y| − 1` terms. The paper's model (and [`super::eval::eval_term`])
//! nevertheless charges — and the naive executor performs — a full operand
//! scan and a fresh hash-table build per term. This module is the executor's
//! answer: an [`OperandCache`] materializes each `(source, role)` operand
//! once (single-source filters pushed down and applied once) and interns
//! hash-join build tables keyed by `(source, role, key columns)`, then
//! every term evaluates against the cache — sequentially or across a
//! `std::thread` scope, since terms are read-only and independent.
//!
//! **The intern decision is static.** Because the greedy join order sizes
//! operands by their *cached* (filtered) lengths — never by the accumulated
//! intermediate — every term's join sequence is fully determined before any
//! term runs. [`OperandCache::build`] simulates those sequences and marks a
//! build key **shared** when it occurs in two or more join steps across the
//! `Comp`'s terms; [`join_term`] then interns exactly the shared keys and
//! builds every unshared step fresh. The resulting
//! `hash_tables_built`/`hash_tables_reused` counters equal the plan's
//! [`CompSharingPlan::predicted_builds`]/[`CompSharingPlan::predicted_reuses`]
//! *exactly*, independent of data and of `threads` — the conformance oracle
//! `uww analyze --sharing --verify-against` replays traces against.
//!
//! Three invariants make the cache safe to enable by default:
//!
//! * **output identity** — the cached evaluator replays `eval_term`'s exact
//!   greedy join order and residual filters, and join output is an
//!   orientation-independent multiset, so every term's consolidated
//!   fragment, the merged `ΔW`, the final state, and the WAL `CD` payload
//!   (canonically sorted) are byte-identical to the per-term path;
//! * **logical-meter identity** — each term still charges
//!   [`WorkMeter::scan_logical`] for the full raw operand it *would* have
//!   scanned, so `operand_rows_scanned` (the planner's linear metric) and
//!   `rows_emitted` are unchanged; only `physical_rows_touched` and the
//!   hash-table counters reveal the savings;
//! * **static conformance** — unlike the per-term path, the shared path
//!   performs every planned join step even when an intermediate empties
//!   (joining an empty side costs nothing and emits nothing), so the
//!   hash-table counters never drift below the static prediction.
//!
//! **Strategy scope.** A [`StrategyCache`] lifts both reuse axes across
//! `Comp` boundaries: raw `(view, role)` materializations and hash-join
//! build tables keyed by [`SharedIdentity`] survive from one expression to
//! the next until an expression *modifies* the underlying operand —
//! decided by `uww_analysis::modifies_operand`, the same liveness predicate
//! the `UWW012` analyzer rule prices. The cache decides each `Comp`'s
//! directives as the strategy executes, inside [`OperandCache::build`] and
//! against that `Comp`'s exact plan: a key whose identity a strict liveness
//! walk holds live is *consumed*, a raw read it holds live is served from
//! the cache, and any other key a later `Comp` could consume — judged from
//! the later `Comp`s' view definitions alone — is *published*. Publishing
//! that superset moves no counter, so the cross-expression counters equal
//! [`plan_strategy_sharing`] (a replay oracle running the same walk), and
//! the executed bytes never depend on cache state: equal identity over an
//! unmodified operand means element-identical filtered rows, hence an
//! interchangeable build table.

use crate::engine::eval;
use crate::engine::exec::{meter_attrs, term_label, CarryConformance};
use crate::engine::pool::{self, PartitionOptions};
use crate::engine::warehouse::{scan_operand, PendingDelta, Warehouse};
use crate::error::{CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};
use uww_obs as obs;
use uww_relational::ops::{self, GroupAcc, PartitionedTable, Partitioner, SignedRows};
use uww_relational::{
    BoundPredicate, Catalog, RelResult, Schema, Tuple, ViewDef, ViewOutput, WorkMeter,
};
use uww_vdag::{Strategy, UpdateExpr, Vdag, ViewId};

/// How a `Comp`'s term set is evaluated.
#[derive(Clone, Copy, Debug)]
pub struct TermOptions {
    /// Evaluate terms through a shared [`OperandCache`] (default). Off
    /// reproduces the historical per-term scans — useful for A/B metering.
    pub share: bool,
    /// Worker threads for term evaluation; `0` or `1` evaluates inline.
    /// Only meaningful with `share` (the per-term path is the baseline).
    pub threads: usize,
    /// Intra-term partition parallelism: hash-partitioned joins and chunked
    /// aggregation on a work-stealing pool. `PartitionOptions::default()`
    /// (one partition) is the sequential engine.
    pub partition: PartitionOptions,
}

impl Default for TermOptions {
    fn default() -> Self {
        TermOptions {
            share: true,
            threads: 0,
            partition: PartitionOptions::default(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// [`OperandCache::build`] calls made on this thread, so unit tests can
    /// pin how often a run plans its `Comp`s.
    pub(crate) static BUILD_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One materialized operand: the filtered rows every term sees, plus the
/// raw (pre-filter) extent size the logical metric charges per term.
struct CachedOperand {
    rows: Arc<SignedRows>,
    raw_len: u64,
}

/// Intern key for a build table: `(source index, as_delta, key columns)`.
type TableKey = (usize, bool, Vec<usize>);

/// One distinct keyed build inside a `Comp`'s term set — a node of the
/// sharing-opportunity graph. Two uses share a hash table exactly when
/// their whole `(source position, role, key columns)` key matches; the
/// analyzer's `UWW013` flags uses equal modulo the source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OperandUse {
    /// Source view name.
    pub source: String,
    /// Source alias (distinct for self-join aliases).
    pub alias: String,
    /// Source position in the view definition — the cache-key component
    /// that distinguishes aliases of one view.
    pub source_idx: usize,
    /// True when the operand is the delta form of the source.
    pub as_delta: bool,
    /// Build-key column names, in key order.
    pub key_cols: Vec<String>,
    /// Rendered pushed-down filters applied to this operand.
    pub filters: Vec<String>,
    /// Filtered operand cardinality (rows one build scans).
    pub rows: u64,
    /// Keyed join steps using this exact key across the `Comp`'s terms.
    pub occurrences: u64,
}

/// The strategy-scope sharing identity of a keyed build: everything the
/// table's contents depend on — source view, role, key column names (alias
/// qualified), and the rendered pushed-down filters — but *not* the source
/// position, so identical uses from different view definitions match. Two
/// uses with equal identity over an operand no expression modified in
/// between materialize element-identical filtered rows and therefore build
/// interchangeable hash tables.
pub type SharedIdentity = (String, bool, Vec<String>, Vec<String>);

impl OperandUse {
    /// This use's strategy-scope sharing identity.
    pub fn identity(&self) -> SharedIdentity {
        (
            self.source.clone(),
            self.as_delta,
            self.key_cols.clone(),
            self.filters.clone(),
        )
    }
}

/// The static sharing plan of one `Comp`: the exact hash-table counters the
/// shared engine will produce, plus every distinct keyed operand use.
#[derive(Clone, Debug, Default)]
pub struct CompSharingPlan {
    /// Surviving terms the plan covers (footnote-5 filter applied).
    pub terms: usize,
    /// Hash tables the shared engine will build — one per distinct key.
    pub predicted_builds: u64,
    /// Reuses the shared engine will record — extra uses of shared keys.
    pub predicted_reuses: u64,
    /// Of `predicted_reuses`, join steps served from a hash table built by
    /// an *earlier expression* (strategy scope only; zero otherwise).
    pub cross_reuses: u64,
    /// Raw operand reads served from the strategy-scope cache instead of
    /// re-scanning the stored/delta extent (strategy scope only).
    pub cached_reads: u64,
    /// Filtered rows of the consumed keys — the hash builds this `Comp`
    /// avoids by probing earlier expressions' tables, which is what
    /// [`CostModel::cross_share_saving`](crate::cost::CostModel::cross_share_saving)
    /// prices (strategy scope only).
    pub cross_saved_rows: u64,
    /// Distinct raw `(view, as-delta)` reads the materialization performs,
    /// sorted — the strategy cache's unit of materialization reuse.
    pub reads: Vec<(String, bool)>,
    /// One entry per distinct keyed build, sorted by key.
    pub operands: Vec<OperandUse>,
}

/// A raw operand read: `(view, as-delta)` — the strategy cache's unit of
/// materialization reuse.
type RawKey = (String, bool);

/// Runtime raw materializations by read, with the raw extent length the
/// logical metric charges per term and a flag marking entries carried in
/// from a previous update window.
type RawCache = HashMap<RawKey, (Arc<SignedRows>, u64, bool)>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Build tables and raw operand materializations that outlived one update
/// window: every entry's operand provably went unmodified by the window
/// that built it (the `UWW012` liveness predicate dropped everything else,
/// and delta-role entries never cross a window boundary — the next batch
/// replaces every pending delta). Feed it to
/// [`Warehouse::execute_carried`](crate::engine::Warehouse::execute_carried)
/// to seed the next window's strategy cache, or drop it (always do so after
/// crash recovery — a recovered window rebuilds from the WAL snapshot and
/// carries nothing).
#[derive(Default)]
pub struct WindowCarry {
    tables: HashMap<SharedIdentity, Arc<PartitionedTable>>,
    raws: HashMap<RawKey, (Arc<SignedRows>, u64)>,
    /// The partition count the carried tables were built at. A carry only
    /// seeds a window run at the *same* partitioning — the executor drops a
    /// mismatched carry before the window starts, so a table split `P` ways
    /// can never serve a probe split `Q` ways (a cross-partition stale hit).
    partitions: usize,
}

impl std::fmt::Debug for WindowCarry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowCarry")
            .field("tables", &self.tables.len())
            .field("raws", &self.raws.len())
            .field("partitions", &self.partitions)
            .finish()
    }
}

impl WindowCarry {
    /// A carry with no surviving entries (what the first window starts from).
    pub fn empty() -> WindowCarry {
        WindowCarry::default()
    }

    /// True when nothing survived the previous window.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.raws.is_empty()
    }

    /// The partition count the carried build tables were split at.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of carried hash-join build tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of carried raw operand materializations.
    pub fn raws(&self) -> usize {
        self.raws.len()
    }
}

/// The strict liveness walk over a strategy: the build identities and raw
/// reads an earlier expression (or the previous window) left valid, plus
/// the carried-in subsets of each. Advanced after *every* expression, a
/// zero-install `Inst` included, through `uww_analysis::modifies_operand`.
/// The executor's [`StrategyCache`] and the [`plan_strategy_sharing`] oracle
/// run this one walk, so their directives cannot drift apart.
#[derive(Debug, Default)]
struct Liveness {
    tables: HashSet<SharedIdentity>,
    raws: HashSet<RawKey>,
    carried_tables: HashSet<SharedIdentity>,
    carried_raws: HashSet<RawKey>,
}

/// One `Comp`'s cache directives, decided by [`Liveness::decide`].
#[derive(Debug, Default)]
struct Directives {
    /// Identities served from a table built by an earlier expression.
    consume: HashSet<SharedIdentity>,
    /// Identities to intern locally and publish for later expressions.
    publish: HashSet<SharedIdentity>,
    /// Of the consumed uses, those served by a carried-in table.
    carried_table_hits: u64,
    /// Of the raw reads served from the cache, those served by a carried-in
    /// materialization.
    carried_raw_hits: u64,
}

impl Liveness {
    /// The walk's start: the previous window's survivors are live (and
    /// carried); without a carry nothing is.
    fn seeded(carry: Option<&WindowCarry>) -> Liveness {
        let Some(carry) = carry else {
            return Liveness::default();
        };
        let tables: HashSet<SharedIdentity> = carry.tables.keys().cloned().collect();
        let raws: HashSet<RawKey> = carry.raws.keys().cloned().collect();
        Liveness {
            carried_tables: tables.clone(),
            carried_raws: raws.clone(),
            tables,
            raws,
        }
    }

    /// Decides one `Comp`'s directives from its per-`Comp` plan and turns
    /// the plan's counters into what the strategy-scope executor measures:
    /// a live identity is consumed (its key builds nothing and every use is
    /// a cross-reuse), any other use a later `Comp` could consume
    /// (`wanted_later`) is published, and every live raw read is served
    /// from the cache. The `Comp`'s reads and publications then become live.
    fn decide(
        &mut self,
        plan: &mut CompSharingPlan,
        wanted_later: impl Fn(&SharedIdentity) -> bool,
    ) -> Directives {
        let mut d = Directives::default();
        let mut consumed_keys = 0u64;
        for o in &plan.operands {
            let id = o.identity();
            if self.tables.contains(&id) {
                plan.cross_reuses += o.occurrences;
                plan.cross_saved_rows += o.rows;
                consumed_keys += 1;
                if self.carried_tables.contains(&id) {
                    d.carried_table_hits += o.occurrences;
                }
                d.consume.insert(id);
            } else if wanted_later(&id) {
                d.publish.insert(id);
            }
        }
        let keyed_steps = plan.predicted_builds + plan.predicted_reuses;
        plan.predicted_builds -= consumed_keys;
        plan.predicted_reuses = keyed_steps - plan.predicted_builds;
        for r in &plan.reads {
            if self.raws.contains(r) {
                plan.cached_reads += 1;
                if self.carried_raws.contains(r) {
                    d.carried_raw_hits += 1;
                }
            }
        }
        // Publications land during execution and the expression's own
        // modifications apply after (in `advance`) — the executor's order.
        // A `Comp` never modifies its own sources' operands.
        self.raws.extend(plan.reads.iter().cloned());
        self.tables.extend(d.publish.iter().cloned());
        d
    }

    /// Drops every identity and read expression `e` modified.
    fn advance(&mut self, g: &Vdag, e: &UpdateExpr) {
        let unmodified = |(view, as_delta): (&String, bool)| {
            !uww_analysis::modifies_operand(g, e, view, as_delta)
        };
        self.tables.retain(|id| unmodified((&id.0, id.1)));
        self.carried_tables.retain(|id| unmodified((&id.0, id.1)));
        self.raws.retain(|r| unmodified((&r.0, r.1)));
        self.carried_raws.retain(|r| unmodified((&r.0, r.1)));
    }
}

/// The publish side of the strategy cache's directives, fixed from view
/// definitions alone before anything runs: for every strategy position,
/// each [`SharedIdentity`] that position's `Comp` *could* key a hash-join
/// build on. `Comp(V, Y)` can key source `s` of `V`'s definition on `s`'s
/// view, in a role some term over `Y` gives it, with `s`'s rendered
/// pushed-down filters, on the key columns [`eval::join_keys`] takes from
/// any non-empty set of the sources `s` is equi-joined with. A term
/// through a view whose delta is empty at window start and that no `Comp`
/// fills is skipped (footnote 5), so such views give no role.
///
/// The runtime uses are a subset: operand sizes decide which sources
/// precede `s` in a term's greedy order (and so its key columns), and
/// whether `s` is the term's start operand, which is never a build.
/// Publishing the superset moves no counter — a consumer finds an identity
/// live exactly when an earlier use of it went unmodified since, which is
/// exactly when an exact lookahead would have published it — so the only
/// cost of an unconsumed publication is the interned build it forces.
struct Lookahead {
    exprs: Vec<UpdateExpr>,
    could_use: Vec<HashSet<SharedIdentity>>,
}

impl Lookahead {
    fn new(w: &Warehouse, strategy: &Strategy) -> CoreResult<Lookahead> {
        let g = w.vdag();
        let filled: HashSet<ViewId> = strategy
            .exprs
            .iter()
            .filter_map(|e| match e {
                UpdateExpr::Comp { view, .. } => Some(*view),
                UpdateExpr::Inst(_) => None,
            })
            .collect();
        let could_change =
            |v: ViewId| filled.contains(&v) || w.pending(g.name(v)).is_some_and(|d| !d.is_empty());
        let mut could_use = Vec::with_capacity(strategy.exprs.len());
        for e in &strategy.exprs {
            could_use.push(match e {
                UpdateExpr::Comp { view, over } => {
                    let over: BTreeSet<&str> = over
                        .iter()
                        .filter(|v| could_change(**v))
                        .map(|v| g.name(*v))
                        .collect();
                    build_identities(w, g.name(*view), &over)?
                }
                UpdateExpr::Inst(_) => HashSet::new(),
            });
        }
        Ok(Lookahead {
            exprs: strategy.exprs.clone(),
            could_use,
        })
    }

    /// Could a `Comp` after position `j` consume `id` before an expression
    /// modifies its operand? Reads happen before an expression's own
    /// writes, so a use at `p` is checked before `p`'s modification.
    fn wanted_after(&self, g: &Vdag, j: usize, id: &SharedIdentity) -> bool {
        for (p, e) in self.exprs.iter().enumerate().skip(j + 1) {
            if self.could_use[p].contains(id) {
                return true;
            }
            if uww_analysis::modifies_operand(g, e, &id.0, id.1) {
                return false;
            }
        }
        false
    }
}

/// Every build identity `Comp(view, ..)` could key when its terms range
/// over the non-empty subsets of `over`.
fn build_identities(
    w: &Warehouse,
    view: &str,
    over: &BTreeSet<&str>,
) -> CoreResult<HashSet<SharedIdentity>> {
    let def = w
        .def(view)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {view}")))?;
    let mut out = HashSet::new();
    for (i, s) in def.sources.iter().enumerate() {
        // A term through `s.view` reads its delta; one avoiding it, the
        // stored extent.
        let roles = [
            (false, over.iter().any(|v| *v != s.view)),
            (true, over.contains(s.view.as_str())),
        ];
        if roles.iter().all(|&(_, used)| !used) {
            continue;
        }
        let qschema = w
            .state()
            .get(&s.view)
            .map_err(CoreError::Rel)?
            .schema()
            .qualified(&s.alias);
        let filters: Vec<String> = def
            .filters
            .iter()
            .filter(|f| eval::single_source_of(def, f) == Some(i))
            .map(|f| format!("{f:?}"))
            .collect();
        // `s`'s equi-join columns in join order, each with the source on
        // the other side — what `eval::join_keys` draws a build key from.
        let mut edges: Vec<(usize, String)> = Vec::new();
        for j in &def.joins {
            let (other, col) = match (
                def.source_of_column(&j.left),
                def.source_of_column(&j.right),
            ) {
                (Some(a), Some(b)) if a == i && b != i => (b, &j.left),
                (Some(a), Some(b)) if b == i && a != i => (a, &j.right),
                _ => continue,
            };
            let c = qschema.index_of(col).map_err(CoreError::Rel)?;
            edges.push((other, qschema.column(c).name.clone()));
        }
        let mut neighbors: Vec<usize> = edges.iter().map(|&(o, _)| o).collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        // One key per non-empty set of neighbors joined before `s`.
        for mask in 1u64..(1 << neighbors.len()) {
            let joined = |o: &usize| neighbors.binary_search(o).is_ok_and(|k| mask >> k & 1 == 1);
            let keys: Vec<String> = edges
                .iter()
                .filter(|(o, _)| joined(o))
                .map(|(_, c)| c.clone())
                .collect();
            for &(as_delta, used) in &roles {
                if used {
                    out.insert((s.view.clone(), as_delta, keys.clone(), filters.clone()));
                }
            }
        }
    }
    Ok(out)
}

/// Strategy-scope operand cache: raw materializations and build tables
/// that survive across `Comp` boundaries until the operand is modified.
///
/// The cache decides each `Comp`'s directives as the strategy runs:
/// [`OperandCache::build`] hands it the `Comp`'s exact per-`Comp` plan, and
/// the strict [`Liveness`] walk plus the static [`Lookahead`] say which
/// keys consume an earlier table, which publish their own, and which raw
/// reads are served from the cache. After every executed expression the
/// owner must call [`StrategyCache::advance`], which applies the same
/// `uww_analysis::modifies_operand` predicate the `UWW012` analyzer rule
/// prices — an operand an `Inst` (or delta-extending `Comp`) touched can
/// never serve a stale copy.
///
/// Consumption follows the strict walk only. The runtime stores retain
/// more: an `Inst` that installed nothing leaves every operand
/// bit-identical, so they keep their entries across it. That looser
/// retention only decides what the harvest hands to the next window, which
/// gets the carried-in tables and every published table a later expression
/// consumed — what an exact lookahead would have published.
pub(crate) struct StrategyCache {
    lookahead: Lookahead,
    live: Mutex<Liveness>,
    /// Tables published by this window that no expression consumed yet,
    /// dropped when their operand is modified.
    fresh: Mutex<HashMap<SharedIdentity, Arc<PartitionedTable>>>,
    /// Carried-in tables and consumed publications, loosely retained; the
    /// flag marks carried-in entries.
    tables: Mutex<HashMap<SharedIdentity, (Arc<PartitionedTable>, bool)>>,
    raws: Mutex<RawCache>,
    /// The summed per-`Comp` predictions, and the uses actually served by
    /// carried-in entries (counted per use, like the meter).
    conformance: Mutex<CarryConformance>,
}

impl StrategyCache {
    /// A cache for `strategy` on `w` as the window starts, seeded with the
    /// previous window's surviving entries (flagged so carried hits are
    /// counted separately).
    pub(crate) fn new(
        w: &Warehouse,
        strategy: &Strategy,
        carry: WindowCarry,
    ) -> CoreResult<StrategyCache> {
        Ok(StrategyCache {
            lookahead: Lookahead::new(w, strategy)?,
            live: Mutex::new(Liveness::seeded(Some(&carry))),
            fresh: Mutex::new(HashMap::new()),
            tables: Mutex::new(
                carry
                    .tables
                    .into_iter()
                    .map(|(id, t)| (id, (t, true)))
                    .collect(),
            ),
            raws: Mutex::new(
                carry
                    .raws
                    .into_iter()
                    .map(|(k, (rows, len))| (k, (rows, len, true)))
                    .collect(),
            ),
            conformance: Mutex::new(CarryConformance::default()),
        })
    }

    /// Decides the directives of the `Comp` at strategy position `idx`
    /// from its per-`Comp` `plan`, adjusting the plan to the counters this
    /// run will measure and adding them to the window's prediction.
    fn decide(&self, g: &Vdag, idx: usize, plan: &mut CompSharingPlan) -> Directives {
        let d = lock(&self.live).decide(plan, |id| self.lookahead.wanted_after(g, idx, id));
        let mut c = lock(&self.conformance);
        c.predicted_cross_reuses += plan.cross_reuses;
        c.predicted_cached_reads += plan.cached_reads;
        c.predicted_carried_table_hits += d.carried_table_hits;
        c.predicted_carried_raw_hits += d.carried_raw_hits;
        d
    }

    /// The cached raw read for `key` when the strict walk holds it live
    /// (the runtime store retains at least that much).
    fn raw_get(&self, key: &RawKey) -> Option<(Arc<SignedRows>, u64)> {
        if !lock(&self.live).raws.contains(key) {
            return None;
        }
        let map = lock(&self.raws);
        let entry = map.get(key);
        debug_assert!(entry.is_some(), "live raw read missing from strategy cache");
        let (rows, len, carried) = entry?;
        if *carried {
            lock(&self.conformance).measured_carried_raw_hits += 1;
        }
        Some((Arc::clone(rows), *len))
    }

    fn raw_put(&self, key: RawKey, entry: (Arc<SignedRows>, u64)) {
        lock(&self.raws).insert(key, (entry.0, entry.1, false));
    }

    /// The table for a consumed identity. A publication's first consumer
    /// moves it into the harvestable store.
    fn table_get(&self, id: &SharedIdentity) -> Option<Arc<PartitionedTable>> {
        let mut fresh = lock(&self.fresh);
        let mut tables = lock(&self.tables);
        if let Some(t) = fresh.remove(id) {
            tables.insert(id.clone(), (Arc::clone(&t), false));
            return Some(t);
        }
        let (t, carried) = tables.get(id)?;
        if *carried {
            lock(&self.conformance).measured_carried_table_hits += 1;
        }
        Some(Arc::clone(t))
    }

    fn table_put(&self, id: SharedIdentity, t: Arc<PartitionedTable>) {
        lock(&self.fresh).insert(id, t);
    }

    /// Advances the cache past expression `e`: the strict walk and the
    /// unconsumed publications drop everything `e` modified; the runtime
    /// stores do too unless `e` is an `Inst` that installed nothing.
    pub(crate) fn advance(&self, g: &Vdag, e: &UpdateExpr, installed_nothing: bool) {
        let modified =
            |view: &str, as_delta: bool| uww_analysis::modifies_operand(g, e, view, as_delta);
        lock(&self.live).advance(g, e);
        lock(&self.fresh).retain(|id, _| !modified(&id.0, id.1));
        if !installed_nothing {
            lock(&self.tables).retain(|id, _| !modified(&id.0, id.1));
            lock(&self.raws).retain(|key, _| !modified(&key.0, key.1));
        }
    }

    /// The window's predicted-vs-measured sharing counters, given the
    /// meter delta the window measured.
    pub(crate) fn conformance(&self, measured: &WorkMeter) -> CarryConformance {
        let mut c = *lock(&self.conformance);
        c.measured_cross_reuses = measured.hash_tables_cross_reused;
        c.measured_cached_reads = measured.operand_reads_cached;
        c
    }

    /// Consumes the cache into the entries that may cross into the next
    /// window: everything still in the runtime stores, minus every
    /// delta-role entry (the next batch replaces all pending deltas, so a
    /// carried delta read would be stale by construction). The carry is
    /// stamped with the partition count this window ran at — a future
    /// window at a different partitioning must drop it rather than probe
    /// mis-split tables.
    pub(crate) fn harvest(self, partitions: usize) -> WindowCarry {
        WindowCarry {
            partitions,
            tables: self
                .tables
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_iter()
                .filter(|(id, _)| !id.1)
                .map(|(id, (t, _))| (id, t))
                .collect(),
            raws: self
                .raws
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_iter()
                .filter(|(key, _)| !key.1)
                .map(|(key, (rows, len, _))| (key, (rows, len)))
                .collect(),
        }
    }
}

/// Per-`Comp` cache of materialized operands and interned build tables.
///
/// Built once per `Comp` from the terms that will actually run, so a
/// `Comp` whose every term is skipped (empty deltas, footnote 5) still
/// costs nothing. Shared by reference across term-evaluation threads.
/// When a [`StrategyCache`] is attached, raw reads are served from (and
/// published to) it, and the directives it decides for this `Comp` route
/// keyed builds through the strategy-scope table store.
pub(crate) struct OperandCache<'a> {
    /// Qualified schema per source, as `eval_term` computes it.
    qschemas: Vec<Schema>,
    /// Indices into `def.filters` that span multiple sources — applied
    /// per term after the joins, exactly like the per-term path.
    residual: Vec<usize>,
    /// `[stored, delta]` slot per source index; `None` when no surviving
    /// term uses that role.
    slots: Vec<[Option<CachedOperand>; 2]>,
    /// Build keys the static plan marked shared (≥ 2 uses across terms, or
    /// published for later expressions); only these route through the
    /// intern table.
    shared: HashSet<TableKey>,
    /// Keys served from the strategy cache: every use is a cross-reuse and
    /// no local build happens.
    consume: HashMap<TableKey, SharedIdentity>,
    /// Keys whose first (local, interned) build is also published to the
    /// strategy cache for later expressions.
    publish: HashMap<TableKey, SharedIdentity>,
    /// The attached strategy-scope cache, when strategy sharing is on.
    strategy: Option<&'a StrategyCache>,
    /// Partition-parallel configuration every interned build is split at.
    partition: PartitionOptions,
    /// The static plan itself, for prediction consumers.
    plan: CompSharingPlan,
    /// Interned build tables: `(source, as_delta, key columns)` → table.
    /// The lock is held across the build so `hash_tables_built` counts
    /// each distinct key exactly once even under threads.
    tables: Mutex<HashMap<TableKey, Arc<PartitionedTable>>>,
}

impl<'a> OperandCache<'a> {
    /// Materializes every operand role the surviving `terms` need and
    /// simulates every term's join sequence to fix the shared-key set. The
    /// returned meter carries the *physical* cost of materialization; the
    /// logical scans are charged per term during evaluation. Operands are
    /// read once per distinct `(view, role)` — aliased self-join sources
    /// share the raw read and diverge only in their pushed-down filters.
    ///
    /// With `strategy = Some((cache, idx))`, raw reads consult and feed the
    /// strategy cache, and the cache decides from this `Comp`'s plan — the
    /// one computed here, against the live warehouse — which keyed builds
    /// consume an earlier table or publish their own.
    pub(crate) fn build(
        w: &Warehouse,
        def: &ViewDef,
        terms: &[BTreeSet<String>],
        strategy: Option<(&'a StrategyCache, usize)>,
        partition: PartitionOptions,
    ) -> CoreResult<(OperandCache<'a>, WorkMeter)> {
        #[cfg(test)]
        BUILD_CALLS.with(|c| c.set(c.get() + 1));
        let n = def.sources.len();
        let state = w.state();
        let pending = w.pending_map();

        let mut qschemas = Vec::with_capacity(n);
        for s in &def.sources {
            qschemas.push(
                state
                    .get(&s.view)
                    .map(|t| t.schema().clone())
                    .map_err(CoreError::Rel)?
                    .qualified(&s.alias),
            );
        }

        let mut local: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut residual = Vec::new();
        for (fi, f) in def.filters.iter().enumerate() {
            match eval::single_source_of(def, f) {
                Some(i) => local[i].push(fi),
                None => residual.push(fi),
            }
        }

        let mut need = vec![[false, false]; n];
        for t in terms {
            for (i, s) in def.sources.iter().enumerate() {
                need[i][usize::from(t.contains(&s.view))] = true;
            }
        }

        let mut meter = WorkMeter::new();
        // Raw reads deduplicated by (view, role).
        let mut raw: HashMap<(String, bool), (Arc<SignedRows>, u64)> = HashMap::new();
        let mut slots: Vec<[Option<CachedOperand>; 2]> = Vec::with_capacity(n);
        for (i, s) in def.sources.iter().enumerate() {
            let mut pair: [Option<CachedOperand>; 2] = [None, None];
            for (role, slot) in pair.iter_mut().enumerate() {
                if !need[i][role] {
                    continue;
                }
                let as_delta = role == 1;
                let key = (s.view.clone(), as_delta);
                let (rows, raw_len) = match raw.get(&key) {
                    Some(hit) => hit.clone(),
                    None => {
                        // A live strategy-cache entry is the same raw read an
                        // earlier expression performed (nothing modified the
                        // operand since, or it would have been invalidated).
                        let entry = match strategy.and_then(|(sc, _)| sc.raw_get(&key)) {
                            Some(hit) => {
                                meter.cached_read();
                                hit
                            }
                            None => {
                                // The probe meter captures the raw extent
                                // size; only its physical side is real — the
                                // logical charge is made per term to keep the
                                // paper's metric intact.
                                let mut probe = WorkMeter::new();
                                let rows = scan_operand_pooled(
                                    partition, state, pending, &s.view, as_delta, &mut probe,
                                )
                                .map_err(CoreError::Rel)?;
                                meter.physical_rows_touched += probe.physical_rows_touched;
                                let entry = (Arc::new(rows), probe.operand_rows_scanned);
                                if let Some((sc, _)) = strategy {
                                    sc.raw_put(key.clone(), entry.clone());
                                }
                                entry
                            }
                        };
                        raw.insert(key.clone(), entry.clone());
                        entry
                    }
                };
                let rows = if local[i].is_empty() {
                    rows
                } else {
                    let mut bounds = Vec::with_capacity(local[i].len());
                    for &fi in &local[i] {
                        bounds.push(def.filters[fi].bind(&qschemas[i]).map_err(CoreError::Rel)?);
                    }
                    Arc::new(filter_pooled(partition, &rows, &bounds).map_err(CoreError::Rel)?)
                };
                *slot = Some(CachedOperand { rows, raw_len });
            }
            slots.push(pair);
        }

        // Static join-plan simulation: the greedy order sizes operands by
        // their cached lengths only, so every term's keyed steps are known
        // here, before any term runs.
        let size_of = |i: usize, as_delta: bool| -> usize {
            slots[i][usize::from(as_delta)]
                .as_ref()
                .map_or(usize::MAX, |op| op.rows.len())
        };
        let mut uses: BTreeMap<TableKey, u64> = BTreeMap::new();
        let mut keyed_steps = 0u64;
        for t in terms {
            for key in plan_term_steps(def, &qschemas, &size_of, t)
                .map_err(CoreError::Rel)?
                .into_iter()
                .flatten()
            {
                *uses.entry(key).or_insert(0) += 1;
                keyed_steps += 1;
            }
        }
        let operands: Vec<OperandUse> = uses
            .iter()
            .map(|(key, &occurrences)| {
                let (i, as_delta, cols) = key;
                let s = &def.sources[*i];
                OperandUse {
                    source: s.view.clone(),
                    alias: s.alias.clone(),
                    source_idx: *i,
                    as_delta: *as_delta,
                    key_cols: cols
                        .iter()
                        .map(|&c| qschemas[*i].column(c).name.clone())
                        .collect(),
                    filters: local[*i]
                        .iter()
                        .map(|&fi| format!("{:?}", def.filters[fi]))
                        .collect(),
                    rows: size_of(*i, *as_delta) as u64,
                    occurrences,
                }
            })
            .collect();

        let mut reads: Vec<RawKey> = raw.keys().cloned().collect();
        reads.sort();
        let mut plan = CompSharingPlan {
            terms: terms.len(),
            predicted_builds: uses.len() as u64,
            predicted_reuses: keyed_steps - uses.len() as u64,
            reads,
            operands,
            ..CompSharingPlan::default()
        };

        // Strategy scope: the cache turns the plan into this Comp's
        // directives. A consumed key never builds locally (every use is a
        // cross-reuse); a published key is interned even at one local
        // occurrence so its first build can be shared.
        let mut consume: HashMap<TableKey, SharedIdentity> = HashMap::new();
        let mut publish: HashMap<TableKey, SharedIdentity> = HashMap::new();
        if let Some((sc, idx)) = strategy {
            let d = sc.decide(w.vdag(), idx, &mut plan);
            debug_assert_eq!(plan.cached_reads, meter.operand_reads_cached);
            for (use_, key) in plan.operands.iter().zip(uses.keys()) {
                let id = use_.identity();
                if d.consume.contains(&id) {
                    consume.insert(key.clone(), id);
                } else if d.publish.contains(&id) {
                    publish.insert(key.clone(), id);
                }
            }
        }
        let shared: HashSet<TableKey> = uses
            .iter()
            .filter(|(key, &count)| count >= 2 || publish.contains_key(*key))
            .filter(|(key, _)| !consume.contains_key(*key))
            // Defense in depth for the empty-key degenerate: a keyless build
            // is a disguised cross join whose "table" is one giant bucket —
            // never worth interning or publishing. `plan_term_steps` already
            // yields `None` for those steps, so nothing here should match.
            .filter(|(key, _)| !key.2.is_empty())
            .map(|(k, _)| k.clone())
            .collect();

        Ok((
            OperandCache {
                qschemas,
                residual,
                slots,
                shared,
                consume,
                publish,
                strategy: strategy.map(|(sc, _)| sc),
                partition,
                plan,
                tables: Mutex::new(HashMap::new()),
            },
            meter,
        ))
    }

    fn operand(&self, i: usize, as_delta: bool) -> &CachedOperand {
        self.slots[i][usize::from(as_delta)]
            .as_ref()
            .expect("operand role materialized for every surviving term")
    }

    /// The interned build table for operand `i` in role `as_delta` over
    /// `keys`: built (and charged) once, reused (and counted) thereafter.
    /// A key the plan marked for publication pushes its first build into
    /// the strategy cache for later expressions.
    fn table(
        &self,
        i: usize,
        as_delta: bool,
        keys: &[usize],
        meter: &mut WorkMeter,
    ) -> Arc<PartitionedTable> {
        let mut map = self.tables.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&(i, as_delta, keys.to_vec())) {
            Some(t) => {
                meter.hash_reuse();
                Arc::clone(t)
            }
            None => {
                let t = Arc::new(build_pooled(
                    self.partition,
                    &self.operand(i, as_delta).rows,
                    keys,
                    meter,
                ));
                map.insert((i, as_delta, keys.to_vec()), Arc::clone(&t));
                if let (Some(sc), Some(id)) = (
                    self.strategy,
                    self.publish.get(&(i, as_delta, keys.to_vec())),
                ) {
                    sc.table_put(id.clone(), Arc::clone(&t));
                }
                t
            }
        }
    }

    /// The strategy-cache table for a consumed key, counting the hit as a
    /// cross-expression reuse. `None` when the key is not consumed. A
    /// live-but-missing table falls back to the local intern path (and the
    /// conformance check will surface the divergence).
    fn cross_table(&self, key: &TableKey, meter: &mut WorkMeter) -> Option<Arc<PartitionedTable>> {
        let id = self.consume.get(key)?;
        let sc = self.strategy?;
        match sc.table_get(id) {
            Some(t) => {
                // Partition counts are run-constant and mismatched carries
                // are dropped before planning, so a cached table always
                // matches this run's split.
                debug_assert_eq!(t.parts(), self.partition.partitions.max(1));
                meter.hash_cross_reuse();
                Some(t)
            }
            None => {
                debug_assert!(false, "live cross-reuse missing from strategy cache");
                None
            }
        }
    }
}

/// Fans `n` partition tasks out over the work-stealing pool, concatenating
/// the per-partition row outputs **in partition order** and folding each
/// worker's local meter into `meter`. Every task gets its own `Operator`
/// span (parented explicitly — workers don't inherit the spawner's span
/// stack) tagged with its partition index, so traces expose per-partition
/// skew and the bench can reconstruct the critical path on any machine.
fn pooled_rows<F>(
    popt: PartitionOptions,
    parent: u64,
    label: &'static str,
    n: usize,
    f: F,
    meter: &mut WorkMeter,
) -> SignedRows
where
    F: Fn(usize, &mut WorkMeter) -> SignedRows + Sync,
{
    let results = pool::run_tasks(n, popt.workers(n), popt.steal, |i| {
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("{label}[p{i}]"));
        let mut m = WorkMeter::new();
        let out = f(i, &mut m);
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, out.len() as u64);
        (out, m)
    });
    let mut rows = Vec::with_capacity(results.iter().map(|(r, _)| r.len()).sum());
    for (out, m) in results {
        rows.extend(out);
        meter.absorb(&m);
    }
    rows
}

/// Probes a partitioned table with `probe` rows, co-partitioning them onto
/// the table's chunks and probing every chunk through the pool. At one
/// partition this is byte-identical (order included) to the sequential
/// [`ops::probe_table`]; at `P` partitions the concatenated output is the
/// same multiset and the meter is byte-identical (each chunk charges its
/// own emit; the emits sum to the sequential total).
fn probe_pooled(
    popt: PartitionOptions,
    table: &PartitionedTable,
    probe: &SignedRows,
    probe_keys: &[usize],
    build_is_left: bool,
    meter: &mut WorkMeter,
) -> SignedRows {
    let mut sp = obs::span(obs::SpanKind::Operator, "hash_probe");
    let out = if table.parts() > 1 {
        sp.attr_u64(obs::keys::PARTITIONS, table.parts() as u64);
        let chunks = split_pooled(popt, table.parts(), probe, probe_keys);
        let parent = obs::current_span_id();
        pooled_rows(
            popt,
            parent,
            "hash_probe",
            table.parts(),
            |i, m| table.probe_chunk(i, &chunks[i], probe_keys, build_is_left, m),
            meter,
        )
    } else {
        table.probe_chunk(0, probe, probe_keys, build_is_left, meter)
    };
    sp.attr_u64(obs::keys::ROWS, out.len() as u64);
    out
}

/// [`scan_operand`], chunk-parallel over the pool for base-extent reads.
/// Cloning each stored tuple is row-independent, so contiguous ranges of
/// the extent clone concurrently and concatenate back in iteration order —
/// the output bytes and the meter charge (one `scan` of the full extent)
/// are identical to the sequential scan. Delta reads stay sequential: they
/// are a window's worth of rows, far below the extent sizes that make the
/// fan-out pay.
fn scan_operand_pooled(
    popt: PartitionOptions,
    state: &Catalog,
    pending: &BTreeMap<String, PendingDelta>,
    view: &str,
    as_delta: bool,
    meter: &mut WorkMeter,
) -> RelResult<SignedRows> {
    if as_delta || !popt.parallel() {
        return scan_operand(state, pending, view, as_delta, meter);
    }
    let table = state.get(view)?;
    let entries: Vec<(&Tuple, u64)> = table.iter().collect();
    if entries.len() < 2 {
        return scan_operand(state, pending, view, as_delta, meter);
    }
    meter.scan(table.len());
    let parent = obs::current_span_id();
    let parts = popt.partitions;
    let chunk = entries.len().div_ceil(parts);
    let cloned = pool::run_tasks(parts, popt.workers(parts), popt.steal, |i| {
        let lo = (i * chunk).min(entries.len());
        let hi = (lo + chunk).min(entries.len());
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("scan[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, (hi - lo) as u64);
        entries[lo..hi]
            .iter()
            .map(|&(t, m)| (t.clone(), m as i64))
            .collect::<SignedRows>()
    });
    Ok(cloned.concat())
}

/// Materializes a filtered operand from `rows`, chunk-parallel: each worker
/// clones only the rows of its contiguous range that pass every pushed-down
/// filter, and ranges concatenate back in input order — byte-identical to
/// cloning the raw extent and filtering it, without ever materializing the
/// unfiltered clone.
fn filter_pooled(
    popt: PartitionOptions,
    rows: &SignedRows,
    bounds: &[BoundPredicate],
) -> RelResult<SignedRows> {
    let keep = |(t, m): &(Tuple, i64)| -> RelResult<Option<(Tuple, i64)>> {
        for b in bounds {
            if !b.eval(t)? {
                return Ok(None);
            }
        }
        Ok(Some((t.clone(), *m)))
    };
    if !popt.parallel() || rows.len() < 2 {
        let mut out = Vec::new();
        for r in rows {
            if let Some(x) = keep(r)? {
                out.push(x);
            }
        }
        return Ok(out);
    }
    let parent = obs::current_span_id();
    let parts = popt.partitions;
    let chunk = rows.len().div_ceil(parts);
    let chunks = pool::run_tasks(parts, popt.workers(parts), popt.steal, |i| {
        let lo = (i * chunk).min(rows.len());
        let hi = (lo + chunk).min(rows.len());
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("filter[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, (hi - lo) as u64);
        let mut out = Vec::new();
        for r in &rows[lo..hi] {
            if let Some(x) = keep(r)? {
                out.push(x);
            }
        }
        Ok(out)
    });
    let mut out = Vec::new();
    for c in chunks {
        out.extend(c?);
    }
    Ok(out)
}

/// [`Partitioner::split`], chunk-parallel: each worker buckets one
/// contiguous range of `rows` by key hash, and per-partition buckets
/// concatenate in range order — the same stable row order the sequential
/// split produces. The per-row cost (key serialization, FNV, tuple clone)
/// is what makes large splits expensive, and all of it runs inside the
/// fan-out.
fn split_pooled(
    popt: PartitionOptions,
    parts: usize,
    rows: &SignedRows,
    keys: &[usize],
) -> Vec<SignedRows> {
    if !popt.parallel() || keys.is_empty() || rows.len() < 2 {
        return Partitioner::new(parts).split(rows, keys);
    }
    let parent = obs::current_span_id();
    let chunk = rows.len().div_ceil(parts);
    let bucketed = pool::run_tasks(parts, popt.workers(parts), popt.steal, |i| {
        let lo = (i * chunk).min(rows.len());
        let hi = (lo + chunk).min(rows.len());
        let mut span =
            obs::span_under_dyn(obs::SpanKind::Operator, parent, || format!("split[p{i}]"));
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, (hi - lo) as u64);
        let mut buckets: Vec<SignedRows> = vec![Vec::new(); parts];
        for (t, m) in &rows[lo..hi] {
            buckets[ops::part_of(t, keys, parts)].push((t.clone(), *m));
        }
        buckets
    });
    let mut out: Vec<SignedRows> = vec![Vec::new(); parts];
    for buckets in bucketed {
        for (j, b) in buckets.into_iter().enumerate() {
            out[j].extend(b);
        }
    }
    out
}

/// Builds a partitioned table over `rows`, splitting by key hash and
/// indexing the chunks through the pool. Charges exactly one
/// [`WorkMeter::hash_build`] over the total input, so the meter equals the
/// sequential build's at any partition count.
fn build_pooled(
    popt: PartitionOptions,
    rows: &SignedRows,
    keys: &[usize],
    meter: &mut WorkMeter,
) -> PartitionedTable {
    if !popt.parallel() || keys.is_empty() {
        return ops::build_partitioned(rows, keys, 1, meter);
    }
    let parent = obs::current_span_id();
    let chunks = split_pooled(popt, popt.partitions, rows, keys);
    let indexed = pool::run_tasks(chunks.len(), popt.workers(chunks.len()), popt.steal, |i| {
        let mut span = obs::span_under_dyn(obs::SpanKind::Operator, parent, || {
            format!("hash_build[p{i}]")
        });
        span.attr_u64(obs::keys::PARTITION, i as u64);
        span.attr_u64(obs::keys::ROWS, chunks[i].len() as u64);
        ops::BuiltTable::index(&chunks[i], keys)
    });
    meter.hash_build(rows.len() as u64);
    PartitionedTable::from_indexed(keys.to_vec(), chunks.into_iter().zip(indexed).collect())
}

/// Simulates one term's greedy join sequence against the cached operand
/// sizes, returning the build key of every step — `None` for cross joins.
/// Mirrors [`join_term`] exactly: start from the smallest operand, then
/// repeatedly join the smallest connected one, sizing joined operands as
/// `usize::MAX`; the intermediate's size never participates.
fn plan_term_steps(
    def: &ViewDef,
    qschemas: &[Schema],
    size_of: &dyn Fn(usize, bool) -> usize,
    subset: &BTreeSet<String>,
) -> RelResult<Vec<Option<TableKey>>> {
    let n = def.sources.len();
    let role: Vec<bool> = def
        .sources
        .iter()
        .map(|s| subset.contains(&s.view))
        .collect();
    let mut in_set = vec![false; n];
    let size = |in_set: &[bool], i: usize| {
        if in_set[i] {
            usize::MAX
        } else {
            size_of(i, role[i])
        }
    };
    let start = (0..n)
        .min_by_key(|&i| size(&in_set, i))
        .expect("at least one source");
    let mut joined_schema = qschemas[start].clone();
    in_set[start] = true;
    let mut steps = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let next = eval::pick_next(def, &in_set, |i| size(&in_set, i));
        let (lk, rk) = eval::join_keys(def, &in_set, next, &joined_schema, &qschemas[next])?;
        steps.push(if lk.is_empty() {
            None
        } else {
            Some((next, role[next], rk))
        });
        joined_schema = joined_schema.concat(&qschemas[next])?;
        in_set[next] = true;
    }
    Ok(steps)
}

/// A term's projected (or grouped) output, ready to fold into the `Comp`'s
/// pending fragment in term order.
pub(crate) enum TermOut {
    /// Consolidated projection delta (non-aggregate views).
    Rows(SignedRows),
    /// Per-group accumulator deltas (aggregate views).
    Groups(HashMap<Tuple, GroupAcc>),
}

/// Evaluates one maintenance term against the cache — the output-identical
/// mirror of [`eval::eval_term`] plus the downstream projection/grouping.
pub(crate) fn eval_term_cached(
    def: &ViewDef,
    cache: &OperandCache,
    subset: &BTreeSet<String>,
    meter: &mut WorkMeter,
) -> CoreResult<TermOut> {
    let (schema, rows) = join_term(def, cache, subset, meter).map_err(CoreError::Rel)?;
    match &def.output {
        ViewOutput::Project(_) => {
            let out = eval::project_output(def, &schema, &rows, meter).map_err(CoreError::Rel)?;
            Ok(TermOut::Rows(ops::consolidate(out)))
        }
        ViewOutput::Aggregate { .. } => {
            let popt = cache.partition;
            if popt.parallel() && rows.len() > 1 {
                // Grouping is commutative and associative: group contiguous
                // chunks through the pool and merge — identical accumulator
                // map to the sequential pass (merge order cannot matter).
                let spec = eval::agg_spec(def, &schema).map_err(CoreError::Rel)?;
                let mut sp = obs::span(obs::SpanKind::Operator, "group_merge");
                sp.attr_u64(obs::keys::PARTITIONS, popt.partitions as u64);
                let chunks = Partitioner::new(popt.partitions).split_contiguous(&rows);
                let parent = obs::current_span_id();
                let parts =
                    pool::run_tasks(chunks.len(), popt.workers(chunks.len()), popt.steal, |i| {
                        let mut span = obs::span_under_dyn(obs::SpanKind::Operator, parent, || {
                            format!("group[p{i}]")
                        });
                        span.attr_u64(obs::keys::PARTITION, i as u64);
                        span.attr_u64(obs::keys::ROWS, chunks[i].len() as u64);
                        ops::group_rows(&chunks[i], &spec)
                    });
                let mut maps = Vec::with_capacity(parts.len());
                for p in parts {
                    maps.push(p.map_err(CoreError::Rel)?);
                }
                let groups = ops::merge_groups(maps);
                sp.attr_u64(obs::keys::ROWS, groups.len() as u64);
                Ok(TermOut::Groups(groups))
            } else {
                let groups = eval::group_output(def, &schema, &rows).map_err(CoreError::Rel)?;
                Ok(TermOut::Groups(groups))
            }
        }
    }
}

fn join_term(
    def: &ViewDef,
    cache: &OperandCache,
    subset: &BTreeSet<String>,
    meter: &mut WorkMeter,
) -> RelResult<(Schema, SignedRows)> {
    meter.term();
    let n = def.sources.len();

    // Charge the logical scans the per-term path performs when it loads
    // each operand, and pin the role each source plays in this term.
    let mut role = Vec::with_capacity(n);
    let mut avail: Vec<Option<&CachedOperand>> = Vec::with_capacity(n);
    for s in &def.sources {
        let as_delta = subset.contains(&s.view);
        let op = cache.operand(role.len(), as_delta);
        meter.scan_logical(op.raw_len);
        role.push(as_delta);
        avail.push(Some(op));
    }

    let size = |avail: &[Option<&CachedOperand>], i: usize| {
        avail[i].map_or(usize::MAX, |op| op.rows.len())
    };
    let start = (0..n)
        .min_by_key(|&i| size(&avail, i))
        .expect("at least one source");
    let mut joined_schema = cache.qschemas[start].clone();
    let mut joined_rows: SignedRows = (*avail[start].take().expect("start operand").rows).clone();
    let mut in_set = vec![false; n];
    in_set[start] = true;

    for _ in 1..n {
        let next = eval::pick_next(def, &in_set, |i| size(&avail, i));
        let (lk, rk) = eval::join_keys(def, &in_set, next, &joined_schema, &cache.qschemas[next])?;
        let popt = cache.partition;
        let right = avail[next].take().expect("operand joined twice");
        joined_rows = if lk.is_empty() {
            // Cross join: no key to co-partition on, so fan out over
            // contiguous chunks of the intermediate — chunk order
            // concatenates back to the sequential output byte-for-byte.
            let mut sp = obs::span(obs::SpanKind::Operator, "cross_join");
            let out = if popt.parallel() && joined_rows.len() > 1 {
                sp.attr_u64(obs::keys::PARTITIONS, popt.partitions as u64);
                let chunks = Partitioner::new(popt.partitions).split_contiguous(&joined_rows);
                let parent = obs::current_span_id();
                pooled_rows(
                    popt,
                    parent,
                    "cross_join",
                    chunks.len(),
                    |i, m| ops::cross_join(&chunks[i], &right.rows, m),
                    meter,
                )
            } else {
                ops::cross_join(&joined_rows, &right.rows, meter)
            };
            sp.attr_u64(obs::keys::ROWS, out.len() as u64);
            out
        } else if let Some(table) = cache.cross_table(&(next, role[next], rk.clone()), meter) {
            // The strategy cache marked this key consumed: the table was
            // built by an earlier expression over identity-equal rows and
            // nothing modified the operand since — probe it directly, no
            // local build at all.
            {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_table_cross");
                sp.attr_u64(obs::keys::ROWS, right.rows.len() as u64);
            }
            probe_pooled(popt, &table, &joined_rows, &lk, false, meter)
        } else if cache.shared.contains(&(next, role[next], rk.clone())) {
            // The static plan marked this (source, role, keys) as repeating
            // across the Comp's terms: intern the pure-operand table — the
            // first use builds, every other use reuses, regardless of how
            // large the accumulated intermediate happens to be.
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_table_intern");
                sp.attr_u64(obs::keys::ROWS, right.rows.len() as u64);
                cache.table(next, role[next], &rk, meter)
            };
            probe_pooled(popt, &table, &joined_rows, &lk, false, meter)
        } else if joined_rows.len() <= right.rows.len() {
            // Unshared step, intermediate smaller: build fresh exactly as
            // hash_join would — one build, no reuse, either orientation.
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_build");
                sp.attr_u64(obs::keys::ROWS, joined_rows.len() as u64);
                build_pooled(popt, &joined_rows, &lk, meter)
            };
            probe_pooled(popt, &table, &right.rows, &rk, true, meter)
        } else {
            // Unshared step, operand smaller: build fresh over the operand
            // without interning — the key occurs once, so a cache entry
            // would never be reused.
            let table = {
                let mut sp = obs::span(obs::SpanKind::Operator, "hash_build");
                sp.attr_u64(obs::keys::ROWS, right.rows.len() as u64);
                build_pooled(popt, &right.rows, &rk, meter)
            };
            probe_pooled(popt, &table, &joined_rows, &lk, false, meter)
        };
        joined_schema = joined_schema.concat(&cache.qschemas[next])?;
        in_set[next] = true;
        // Deliberately no empty-intermediate short circuit here (the
        // per-term baseline keeps it): the static plan prices every step,
        // and joining an empty intermediate emits nothing and touches only
        // the planned build — so the hash-table counters match the
        // prediction exactly while the output bytes are unaffected.
    }

    if !cache.residual.is_empty() {
        let mut sp = obs::span(obs::SpanKind::Operator, "filter");
        for &fi in &cache.residual {
            let bound = def.filters[fi].bind(&joined_schema)?;
            joined_rows = ops::filter(joined_rows, &bound)?;
        }
        sp.attr_u64(obs::keys::ROWS, joined_rows.len() as u64);
    }
    Ok((joined_schema, joined_rows))
}

/// Evaluates `terms` through a fresh cache, inline or across `threads`
/// workers, returning per-term outputs **in term order** together with the
/// folded meter (cache materialization + every term). `strategy` attaches
/// the strategy-scope cache (and this expression's position in it).
pub(crate) fn eval_terms_shared(
    w: &Warehouse,
    def: &ViewDef,
    terms: &[BTreeSet<String>],
    topts: TermOptions,
    strategy: Option<(&StrategyCache, usize)>,
) -> CoreResult<(Vec<TermOut>, WorkMeter)> {
    let (cache, mut total) = {
        let mut sp = obs::span(obs::SpanKind::Operator, "materialize_operands");
        let (cache, meter) = OperandCache::build(w, def, terms, strategy, topts.partition)?;
        sp.attr_u64(obs::keys::PHYSICAL_ROWS, meter.physical_rows_touched);
        sp.attr_u64(
            obs::keys::PREDICTED_HASH_BUILDS,
            cache.plan.predicted_builds,
        );
        sp.attr_u64(
            obs::keys::PREDICTED_HASH_REUSES,
            cache.plan.predicted_reuses,
        );
        sp.attr_u64(
            obs::keys::PREDICTED_HASH_CROSS_REUSES,
            cache.plan.cross_reuses,
        );
        sp.attr_u64(obs::keys::PREDICTED_CACHED_READS, cache.plan.cached_reads);
        sp.attr_u64(obs::keys::CONSUMED_KEYS, cache.consume.len() as u64);
        sp.attr_u64(obs::keys::PUBLISHED_KEYS, cache.publish.len() as u64);
        (cache, meter)
    };
    // Worker threads do not inherit the spawner's span stack; parent every
    // term span to the enclosing expression span explicitly.
    let parent = obs::current_span_id();
    // Without stealing, worker k takes terms k, k+W, k+2W, … and results
    // come back in term order, so the merged fragment and meter are
    // independent of scheduling.
    let results = pool::run_tasks(terms.len(), topts.threads, false, |i| {
        let subset = &terms[i];
        let mut span = obs::span_under_dyn(obs::SpanKind::Term, parent, || term_label(subset));
        let mut meter = WorkMeter::new();
        let out = eval_term_cached(def, &cache, subset, &mut meter);
        meter_attrs(&mut span, &meter);
        out.map(|out| (meter, out))
    });

    let mut outs = Vec::with_capacity(results.len());
    for r in results {
        let (meter, out) = r?;
        fold_term_meter(&mut total, &meter);
        outs.push(out);
    }
    Ok((outs, total))
}

/// Folds the counters a `Comp` contributes to the warehouse meter —
/// deliberately not `rows_installed` or the expression counts, which the
/// install funnel and the run loop own.
pub(crate) fn fold_term_meter(total: &mut WorkMeter, m: &WorkMeter) {
    total.operand_rows_scanned += m.operand_rows_scanned;
    total.rows_emitted += m.rows_emitted;
    total.terms_evaluated += m.terms_evaluated;
    total.physical_rows_touched += m.physical_rows_touched;
    total.hash_tables_built += m.hash_tables_built;
    total.hash_tables_reused += m.hash_tables_reused;
    total.hash_tables_cross_reused += m.hash_tables_cross_reused;
    total.operand_reads_cached += m.operand_reads_cached;
}

/// The surviving terms of a `Comp` over `over_names` under the footnote-5
/// empty-delta filter — exactly the term set the executor evaluates, and
/// therefore the term set every static prediction must cover.
pub fn surviving_terms(w: &Warehouse, over_names: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
    eval::nonempty_subsets(over_names)
        .into_iter()
        .filter(|subset| {
            subset
                .iter()
                .all(|v| w.pending(v).is_some_and(|d| !d.is_empty()))
        })
        .collect()
}

/// Statically predicts the shared engine's hash-table counters and operand
/// uses for one `Comp(view, over)` against the warehouse's **current**
/// state and pending deltas. The prediction is exact: executing that
/// `Comp` next (with term sharing on, any thread count) produces precisely
/// `predicted_builds`/`predicted_reuses`.
pub fn predict_comp_sharing(
    w: &Warehouse,
    view: &str,
    over_names: &BTreeSet<String>,
) -> CoreResult<CompSharingPlan> {
    let def = w
        .def(view)
        .ok_or_else(|| CoreError::Warehouse(format!("no definition for {view}")))?
        .clone();
    let terms = surviving_terms(w, over_names);
    // Predictions are partition-independent: the partitioned engine's
    // logical and hash-table meters are byte-identical to sequential.
    let (cache, _) = OperandCache::build(w, &def, &terms, None, PartitionOptions::default())?;
    Ok(cache.plan)
}

/// The static sharing prediction for one strategy expression.
#[derive(Clone, Debug)]
pub struct ExprSharingPrediction {
    /// Target view name.
    pub view: String,
    /// `"comp"` or `"inst"` — matches the `expr_kind` span attribute.
    pub kind: &'static str,
    /// The `Comp`'s plan; zeroed for `Inst` (installs build no tables).
    pub plan: CompSharingPlan,
}

/// Predicts the shared engine's per-expression hash-table counters for a
/// whole strategy by replaying it on a scratch clone: each `Comp` is
/// planned against the state the preceding expressions produce (derived
/// deltas — and hence operand sizes and join orders — depend on it), then
/// the expression executes to advance the clone. Validation is skipped on
/// the single-expression steps; the strategy itself is not judged here.
pub fn predict_strategy_sharing(
    w: &Warehouse,
    strategy: &Strategy,
) -> CoreResult<Vec<ExprSharingPrediction>> {
    Ok(plan_strategy_sharing(w, strategy, SharingScope::Comp)?.exprs)
}

/// Which cache scope a sharing plan targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingScope {
    /// Per-`Comp` caching only — PR 4/6 behavior, the default.
    Comp,
    /// Strategy-wide caching: materializations and build tables survive
    /// across expressions until the operand is modified.
    Strategy,
}

/// The strategy-scope sharing plan: exact per-expression predictions of the
/// counters the executor will measure.
pub struct StrategySharingPlan {
    /// Per-expression predictions, in strategy order. Under
    /// [`SharingScope::Strategy`] the build/reuse counters are adjusted
    /// for cross-expression service and `cross_reuses`/`cached_reads`
    /// are populated.
    pub exprs: Vec<ExprSharingPrediction>,
    /// Predicted hash-table uses served from a *previous window's* carried
    /// table (zero unless the plan was seeded with a [`WindowCarry`]).
    /// Subset of the total predicted cross-reuses.
    pub carried_table_hits: u64,
    /// Predicted raw operand reads served from a previous window's carried
    /// materialization. Subset of the total predicted cached reads.
    pub carried_raw_hits: u64,
}

impl StrategySharingPlan {
    /// Total predicted cross-expression hash-table reuses.
    pub fn cross_reuses(&self) -> u64 {
        self.exprs.iter().map(|e| e.plan.cross_reuses).sum()
    }

    /// Total predicted strategy-cache-served raw operand reads.
    pub fn cached_reads(&self) -> u64 {
        self.exprs.iter().map(|e| e.plan.cached_reads).sum()
    }

    /// Total filtered rows of consumed keys across the strategy — the
    /// build-avoidance quantity the shared planner objective prices.
    pub fn cross_saved_rows(&self) -> u64 {
        self.exprs.iter().map(|e| e.plan.cross_saved_rows).sum()
    }
}

/// Plans a whole strategy's sharing at the requested scope — the
/// prediction oracle behind `uww analyze --sharing`, the shared planner
/// objective and the conformance tests. The executor never calls it.
///
/// The strategy is replayed on a scratch clone: each `Comp` is planned
/// against the state the preceding expressions produce (derived deltas —
/// and hence operand sizes and join orders — depend on it), then the
/// expression executes to advance the clone. Under
/// [`SharingScope::Strategy`] each per-`Comp` plan goes through the same
/// liveness walk and publish lookahead the executor's strategy cache runs,
/// so the predicted counters are the ones a strategy-shared run measures.
pub fn plan_strategy_sharing(
    w: &Warehouse,
    strategy: &Strategy,
    scope: SharingScope,
) -> CoreResult<StrategySharingPlan> {
    plan_strategy_sharing_seeded(w, strategy, scope, None)
}

/// [`plan_strategy_sharing`] at strategy scope, seeded with the previous
/// window's [`WindowCarry`]: the liveness walk starts with the carried
/// identities live, so expressions at the *front* of the strategy can
/// consume tables (and raw materializations) built by the previous window.
/// The plan's `carried_table_hits`/`carried_raw_hits` predict exactly how
/// many uses the carried entries will serve — the quantities
/// [`Warehouse::execute_carried`](crate::engine::Warehouse::execute_carried)
/// reports as measured in its conformance counters.
pub fn plan_strategy_sharing_carried(
    w: &Warehouse,
    strategy: &Strategy,
    carry: &WindowCarry,
) -> CoreResult<StrategySharingPlan> {
    plan_strategy_sharing_seeded(w, strategy, SharingScope::Strategy, Some(carry))
}

fn plan_strategy_sharing_seeded(
    w: &Warehouse,
    strategy: &Strategy,
    scope: SharingScope,
    carry: Option<&WindowCarry>,
) -> CoreResult<StrategySharingPlan> {
    let lookahead = match scope {
        SharingScope::Strategy => Some(Lookahead::new(w, strategy)?),
        SharingScope::Comp => None,
    };
    let mut live = Liveness::seeded(carry);
    let mut scratch = w.clone();
    // The replay is a prediction, not part of the run: keep its spans out of
    // any installed trace.
    let _quiet = obs::suppress();
    let mut plan = StrategySharingPlan {
        exprs: Vec::with_capacity(strategy.exprs.len()),
        carried_table_hits: 0,
        carried_raw_hits: 0,
    };
    for (j, expr) in strategy.exprs.iter().enumerate() {
        let pred = match expr {
            UpdateExpr::Comp { view, over } => {
                let name = scratch.vdag().name(*view).to_string();
                let over_names: BTreeSet<String> = over
                    .iter()
                    .map(|v| scratch.vdag().name(*v).to_string())
                    .collect();
                let mut comp = predict_comp_sharing(&scratch, &name, &over_names)?;
                if let Some(la) = &lookahead {
                    let d = live.decide(&mut comp, |id| la.wanted_after(w.vdag(), j, id));
                    plan.carried_table_hits += d.carried_table_hits;
                    plan.carried_raw_hits += d.carried_raw_hits;
                }
                ExprSharingPrediction {
                    view: name,
                    kind: "comp",
                    plan: comp,
                }
            }
            UpdateExpr::Inst(v) => ExprSharingPrediction {
                view: scratch.vdag().name(*v).to_string(),
                kind: "inst",
                plan: CompSharingPlan::default(),
            },
        };
        plan.exprs.push(pred);
        live.advance(w.vdag(), expr);
        scratch.execute_with(
            &Strategy::from_exprs(vec![expr.clone()]),
            crate::engine::exec::ExecOptions {
                validate: false,
                ..Default::default()
            },
        )?;
    }
    Ok(plan)
}
