//! Liveness-adversarial tests for the strategy-scope operand cache: a
//! strategy that `Inst`s a base view *between* two `Comp`s reading it is
//! the worst case for cross-expression caching — the first reader builds a
//! hash table over the pre-install extent, and serving that table to the
//! post-install reader would silently corrupt the view. The cache must
//! never serve it, under any interleaving: sequential, term-threaded, and
//! resumed from a crash at **every** WAL record boundary.
//!
//! The fixture makes staleness maximally visible: the invalidated operand
//! (`B`) is the hash-*build* side of both readers (it is the smallest
//! operand), its delta both deletes existing join keys and inserts new
//! ones, and the final states are compared byte-for-byte against the
//! uncached engine.
//!
//! A second fixture attacks the publish side, which the cache decides from
//! view definitions alone: keys a later `Comp` could consume but never
//! does (its greedy order keys the source on other columns), and a
//! zero-install `Inst` that ends an identity's liveness while the runtime
//! store keeps its table. Every counter must still equal the
//! `plan_strategy_sharing` oracle, and state, WAL bytes and the logical
//! meter the per-`Comp` run's.
//!
//! Seeded: set `UWW_SHARE_SEED` to shift the delta batches.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use uww::core::{
    plan_strategy_sharing, CoreError, ExecOptions, FaultPlan, FsyncPolicy, SharingScope, WalConfig,
    WalLog, Warehouse, WindowCarry,
};
use uww::obs::{AttrValue, SpanKind, SpanRecord, TraceBuffer};
use uww::relational::{
    catalog_to_string, DeltaRelation, EquiJoin, OutputColumn, Schema, Table, Tuple, Value,
    ValueType, ViewDef, ViewOutput, ViewSource,
};
use uww::vdag::{check_vdag_strategy, SplitMix64, Strategy, UpdateExpr};

fn seed_base() -> u64 {
    std::env::var("UWW_SHARE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uww-live-{tag}-{}-{}",
        std::process::id(),
        seed_base()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const COLS: &[(&str, ValueType)] = &[
    ("k", ValueType::Int),
    ("v", ValueType::Int),
    ("g", ValueType::Int),
];

fn base(name: &str, rows: i64) -> Table {
    let schema = Schema::of(COLS);
    let mut t = Table::new(name, schema);
    for k in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(k % 20),
            Value::Int(k),
            Value::Int(k % 3),
        ]))
        .unwrap();
    }
    t
}

fn join2(name: &str, (src_a, alias_a): (&str, &str), (src_b, alias_b): (&str, &str)) -> ViewDef {
    ViewDef {
        name: name.into(),
        sources: vec![
            ViewSource {
                view: src_a.into(),
                alias: alias_a.into(),
            },
            ViewSource {
                view: src_b.into(),
                alias: alias_b.into(),
            },
        ],
        joins: vec![EquiJoin::new(
            format!("{alias_a}.k"),
            format!("{alias_b}.k"),
        )],
        filters: vec![],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", format!("{alias_a}.k")),
            OutputColumn::col("v", format!("{alias_a}.v")),
            OutputColumn::col("g", format!("{alias_b}.v")),
        ]),
    }
}

/// `V1 = A ⋈ B`, `V2 = B ⋈ C`, with `B` (20 rows) the smallest — and hence
/// hash-build — operand of both views. Seeded deltas: every base gets
/// inserts on random join keys; `B` additionally gets deletions of random
/// existing rows, so its pre- and post-install extents disagree on *both*
/// sides (a stale cached table yields phantom and missing join matches).
fn fixture(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x11FE));
    let schema = Schema::of(COLS);
    let w = Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 50))
        .view(join2("V1", ("A", "A"), ("B", "B")))
        .view(join2("V2", ("B", "B"), ("C", "C")))
        .build()
        .unwrap();

    let mut changes: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for (name, inserts) in [("A", 8), ("B", 6), ("C", 7)] {
        let mut delta = DeltaRelation::new(schema.clone());
        if name == "B" {
            for (tup, cnt) in w.table("B").unwrap().iter() {
                if rng.below(3) == 0 {
                    delta.add(tup.clone(), -(cnt as i64));
                }
            }
        }
        for i in 0..inserts {
            delta.add(
                Tuple::new(vec![
                    Value::Int(rng.below(20) as i64),
                    Value::Int(2000 + 100 * i + rng.below(50) as i64),
                    Value::Int(rng.below(3) as i64),
                ]),
                1,
            );
        }
        changes.insert(name.to_string(), delta);
    }
    (w, changes)
}

/// The adversarial strategy: `Inst(B)` lands between the two stored-`B`
/// readers. Both readers hash-build over the *same* `SharedIdentity`
/// (`B`, stored, key `B.k` — `B` is the larger side of both joins, so it
/// is the keyed build in each), and only the liveness predicate stands
/// between the second reader and the first reader's pre-install table.
/// Returns the strategy and the index of the post-invalidation reader,
/// `Comp(V2,{C})`.
fn adversarial_strategy(w: &Warehouse) -> (Strategy, usize) {
    let g = w.vdag();
    let a = g.id_of("A").unwrap();
    let b = g.id_of("B").unwrap();
    let c = g.id_of("C").unwrap();
    let v1 = g.id_of("V1").unwrap();
    let v2 = g.id_of("V2").unwrap();
    let strategy = Strategy::from_exprs(vec![
        UpdateExpr::comp1(v1, a), // reads stored B (pre-install): builds its table
        UpdateExpr::inst(a),
        UpdateExpr::comp1(v1, b),
        UpdateExpr::comp1(v2, b),
        UpdateExpr::inst(b),      // kills every cached B extent
        UpdateExpr::comp1(v2, c), // reads stored B (post-install): must rebuild
        UpdateExpr::inst(c),
        UpdateExpr::inst(v1),
        UpdateExpr::inst(v2),
    ]);
    check_vdag_strategy(g, &strategy).unwrap();
    (strategy, 5)
}

/// The control: same expressions, but `Inst(B)` comes *before* both
/// stored-`B` readers, so the identical `SharedIdentity` is live between
/// them and the share is legitimately taken. Returns the strategy and the
/// index of the consuming reader, `Comp(V2,{C})`.
fn control_strategy(w: &Warehouse) -> (Strategy, usize) {
    let g = w.vdag();
    let a = g.id_of("A").unwrap();
    let b = g.id_of("B").unwrap();
    let c = g.id_of("C").unwrap();
    let v1 = g.id_of("V1").unwrap();
    let v2 = g.id_of("V2").unwrap();
    let strategy = Strategy::from_exprs(vec![
        UpdateExpr::comp1(v1, b),
        UpdateExpr::comp1(v2, b),
        UpdateExpr::inst(b),
        UpdateExpr::comp1(v1, a), // reads stored B': builds and publishes
        UpdateExpr::inst(a),
        UpdateExpr::comp1(v2, c), // reads stored B': consumes the live table
        UpdateExpr::inst(c),
        UpdateExpr::inst(v1),
        UpdateExpr::inst(v2),
    ]);
    check_vdag_strategy(g, &strategy).unwrap();
    (strategy, 5)
}

fn opts(dir: &PathBuf, strategy_cache: bool, threads: usize, faults: FaultPlan) -> ExecOptions {
    ExecOptions {
        wal: Some(
            WalConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_faults(faults),
        ),
        term_sharing: strategy_cache,
        strategy_sharing: strategy_cache,
        term_threads: threads,
        ..ExecOptions::default()
    }
}

fn run(
    w: &Warehouse,
    changes: &BTreeMap<String, DeltaRelation>,
    strategy: &Strategy,
    dir: &PathBuf,
    strategy_cache: bool,
    threads: usize,
    faults: FaultPlan,
) -> Result<String, CoreError> {
    let mut clone = w.clone();
    clone.load_changes(changes.clone()).unwrap();
    clone.execute_with(strategy, opts(dir, strategy_cache, threads, faults))?;
    Ok(catalog_to_string(clone.state()))
}

/// An `Inst` invalidating a cached operand mid-strategy never serves stale
/// reuse: the cached engines (sequential and threaded) are byte-identical
/// to the uncached engine, and the static plan refuses to consume across
/// the invalidation while still consuming where liveness holds.
#[test]
fn invalidated_operand_is_never_served_stale() {
    for round in 0..4u64 {
        let seed = seed_base().wrapping_mul(67).wrapping_add(round);
        let (w, changes) = fixture(seed);
        let (strategy, post_inval) = adversarial_strategy(&w);

        let dir = wal_dir(&format!("ref-{round}"));
        let expected = run(&w, &changes, &strategy, &dir, false, 0, FaultPlan::none()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        for threads in [0usize, 3] {
            let dir = wal_dir(&format!("cached-{round}-{threads}"));
            let got = run(
                &w,
                &changes,
                &strategy,
                &dir,
                true,
                threads,
                FaultPlan::none(),
            )
            .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                got, expected,
                "seed {seed} threads {threads}: strategy cache served stale data"
            );
        }

        // The plan itself: the post-Inst(B) reader rebuilds from scratch —
        // no cross-reuse, no cached read.
        let mut loaded = w.clone();
        loaded.load_changes(changes.clone()).unwrap();
        let plan = plan_strategy_sharing(&loaded, &strategy, SharingScope::Strategy).unwrap();
        let post = &plan.exprs[post_inval].plan;
        assert_eq!(
            post.cross_reuses, 0,
            "seed {seed}: Comp(V2,{{C}}) must not probe a table Inst(B) invalidated"
        );
        assert_eq!(
            post.cached_reads, 0,
            "seed {seed}: Comp(V2,{{C}}) must not read a materialization Inst(B) invalidated"
        );

        // Non-vacuity control: reorder so Inst(B) precedes both readers
        // and the *same* identity IS consumed — the adversarial zero above
        // is the liveness predicate at work, not a missing opportunity.
        let (control, consumer) = control_strategy(&w);
        let cplan = plan_strategy_sharing(&loaded, &control, SharingScope::Strategy).unwrap();
        assert!(
            cplan.exprs[consumer].plan.cross_reuses > 0,
            "seed {seed}: the control ordering must consume the live stored-B table"
        );
        let dir = wal_dir(&format!("control-ref-{round}"));
        let cexpected = run(&w, &changes, &control, &dir, false, 0, FaultPlan::none()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        for threads in [0usize, 3] {
            let dir = wal_dir(&format!("control-{round}-{threads}"));
            let got = run(
                &w,
                &changes,
                &control,
                &dir,
                true,
                threads,
                FaultPlan::none(),
            )
            .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                got, cexpected,
                "seed {seed} threads {threads}: legitimate consume diverged from uncached"
            );
        }
    }
}

/// The crash matrix over the adversarial strategy: crashing the cached run
/// (sequential and threaded) before **every** WAL record and recovering
/// lands on a catalog byte-identical to the uncached reference — a resumed
/// suffix never observes a stale cache either (recovery rebuilds with no
/// strategy cache by construction).
#[test]
fn every_crash_point_of_the_cached_run_recovers_to_the_uncached_catalog() {
    let seed = seed_base().wrapping_mul(67).wrapping_add(11);
    let (w, changes) = fixture(seed);
    let (strategy, _) = adversarial_strategy(&w);

    let dir = wal_dir("crash-ref");
    let expected = run(&w, &changes, &strategy, &dir, false, 0, FaultPlan::none()).unwrap();
    let total = WalLog::open(&dir).unwrap().records.len() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(total >= 3, "BEGIN + at least one record + COMMIT");

    let mut loaded = w.clone();
    loaded.load_changes(changes.clone()).unwrap();

    for threads in [0usize, 3] {
        for k in 0..total {
            let dir = wal_dir(&format!("crash-{threads}-k{k}"));
            let err = run(
                &w,
                &changes,
                &strategy,
                &dir,
                true,
                threads,
                FaultPlan::crash_before(k),
            )
            .expect_err("injected crash must abort the cached run");
            assert!(
                matches!(err, CoreError::InjectedCrash { record } if record == k),
                "crash point {k}: unexpected {err}"
            );

            let mut recovered = loaded.clone();
            uww::core::recover(&mut recovered, &dir)
                .unwrap_or_else(|e| panic!("recover threads={threads} crash point {k}: {e}"));
            assert_eq!(
                catalog_to_string(recovered.state()),
                expected,
                "threads {threads} crash point {k}: recovered catalog diverges from uncached"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Publish candidates the run never consumes
// ---------------------------------------------------------------------------

/// `A ⋈ B ⋈ C` on `A.k = B.k` and `A.g = C.g`.
fn join_abc() -> ViewDef {
    let src = |v: &str| ViewSource {
        view: v.into(),
        alias: v.into(),
    };
    ViewDef {
        name: "ABC".into(),
        sources: vec![src("A"), src("B"), src("C")],
        joins: vec![EquiJoin::new("A.k", "B.k"), EquiJoin::new("A.g", "C.g")],
        filters: vec![],
        output: ViewOutput::Project(vec![
            OutputColumn::col("k", "A.k"),
            OutputColumn::col("v", "B.v"),
            OutputColumn::col("g", "C.v"),
        ]),
    }
}

/// Bases `A` (50 rows), `B` (20), `C` (2), `D` (40) and `E` (30); seeded
/// deltas on `A`, `B` and `E` only, so `Inst(C)` and `Inst(D)` install
/// nothing. Views `AB`, `ABC`, `AD`, `BD`, `ED`. In `ABC` the two-row `C`
/// starts every term's greedy order, so `A` is always keyed on `A.g` —
/// although `A.k` (its key in `AB`) is one `ABC` could take, statically.
fn candidate_fixture(seed: u64) -> (Warehouse, BTreeMap<String, DeltaRelation>) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xCA0D));
    let schema = Schema::of(COLS);
    let w = Warehouse::builder()
        .base_table(base("A", 50))
        .base_table(base("B", 20))
        .base_table(base("C", 2))
        .base_table(base("D", 40))
        .base_table(base("E", 30))
        .view(join2("AB", ("A", "A"), ("B", "B")))
        .view(join_abc())
        .view(join2("AD", ("A", "A"), ("D", "D")))
        .view(join2("BD", ("B", "B"), ("D", "D")))
        .view(join2("ED", ("E", "E"), ("D", "D")))
        .build()
        .unwrap();
    let mut changes: BTreeMap<String, DeltaRelation> = BTreeMap::new();
    for (name, inserts) in [("A", 8), ("B", 6), ("E", 5)] {
        let mut delta = DeltaRelation::new(schema.clone());
        if name == "B" {
            for (tup, cnt) in w.table("B").unwrap().iter() {
                if rng.below(3) == 0 {
                    delta.add(tup.clone(), -(cnt as i64));
                }
            }
        }
        for i in 0..inserts {
            delta.add(
                Tuple::new(vec![
                    Value::Int(rng.below(20) as i64),
                    Value::Int(3000 + 100 * i + rng.below(50) as i64),
                    Value::Int(rng.below(3) as i64),
                ]),
                1,
            );
        }
        changes.insert(name.to_string(), delta);
    }
    (w, changes)
}

/// Strategy positions the assertions below name.
const AB: usize = 0;
const ABC: usize = 1;
const ED_OVER_E: usize = 4;
const BD_OVER_B: usize = 10;

/// `Comp(AB)` publishes `(A, stored, A.k)` because `Comp(ABC)` could key
/// `A` on it, but `ABC`'s greedy order keys `A` on `A.g`, and `Inst(A)`
/// then kills the identity unconsumed. `Comp(AD,{A})` publishes
/// `(D, stored, D.k)`, `Comp(ED,{E})` consumes it, and the zero-install
/// `Inst(D)` ends its strict liveness before `Comp(BD,{B})` would use it
/// again, even though the runtime store keeps the table across the no-op.
fn candidate_strategy(w: &Warehouse) -> Strategy {
    let g = w.vdag();
    let id = |n: &str| g.id_of(n).unwrap();
    let (a, b, c, d, e) = (id("A"), id("B"), id("C"), id("D"), id("E"));
    let (ab, abc, ad, bd, ed) = (id("AB"), id("ABC"), id("AD"), id("BD"), id("ED"));
    let strategy = Strategy::from_exprs(vec![
        UpdateExpr::comp(ab, [a, b]),
        UpdateExpr::comp(abc, [a, b, c]),
        UpdateExpr::comp1(ad, a),
        UpdateExpr::inst(a),
        UpdateExpr::comp1(ed, e),
        UpdateExpr::inst(e),
        UpdateExpr::comp1(ad, d),
        UpdateExpr::comp1(ed, d),
        UpdateExpr::comp1(bd, d),
        UpdateExpr::inst(d),
        UpdateExpr::comp1(bd, b),
        UpdateExpr::inst(b),
        UpdateExpr::inst(c),
        UpdateExpr::inst(ab),
        UpdateExpr::inst(abc),
        UpdateExpr::inst(ad),
        UpdateExpr::inst(bd),
        UpdateExpr::inst(ed),
    ]);
    check_vdag_strategy(g, &strategy).unwrap();
    strategy
}

/// The spans the traced shared run recorded for its own expressions, in
/// strategy order: `(expression span, its materialize_operands span)`.
fn comp_spans(records: &[SpanRecord]) -> Vec<(&SpanRecord, Option<&SpanRecord>)> {
    let is_view = |r: &SpanRecord, v: &str| matches!(r.attr(uww::obs::keys::VIEW), Some(AttrValue::Str(s)) if s == v);
    let run = records
        .iter()
        .find(|r| r.kind == SpanKind::Expression && is_view(r, "ABC"))
        .expect("the traced run recorded Comp(ABC)")
        .parent;
    let mut exprs: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.kind == SpanKind::Expression && r.parent == run)
        .collect();
    exprs.sort_by_key(|r| r.start_us);
    exprs
        .into_iter()
        .map(|e| {
            let mat = records
                .iter()
                .find(|r| r.parent == e.id && r.name == "materialize_operands");
            (e, mat)
        })
        .collect()
}

/// Publish candidates that are never consumed, and a zero-install `Inst`
/// between a publisher and a would-be consumer, leave every counter where
/// the oracle puts it: per-expression counters equal `plan_strategy_sharing`,
/// the carried-window conformance is exact, and state, WAL bytes and the
/// logical meter equal the per-`Comp` run's.
#[test]
fn unconsumed_publications_move_no_counter() {
    for round in 0..3u64 {
        let seed = seed_base().wrapping_mul(71).wrapping_add(round);
        let (w, changes) = candidate_fixture(seed);
        let strategy = candidate_strategy(&w);
        let mut loaded = w.clone();
        loaded.load_changes(changes.clone()).unwrap();
        let plan = plan_strategy_sharing(&loaded, &strategy, SharingScope::Strategy).unwrap();

        // The scenario as designed: `(A, stored, A.k)` is keyed by `AB` and
        // by no later `Comp` before `Inst(A)`; `ED` consumes `D.k`, `BD`
        // after the no-op `Inst(D)` does not.
        let a_k = |p: &uww::core::CompSharingPlan| {
            p.operands
                .iter()
                .any(|o| o.source == "A" && !o.as_delta && o.key_cols == ["A.k"])
        };
        assert!(
            a_k(&plan.exprs[AB].plan),
            "seed {seed}: AB keys stored A on A.k"
        );
        assert!(
            !plan.exprs[ABC..3].iter().any(|e| a_k(&e.plan)),
            "seed {seed}: no Comp before Inst(A) consumes A.k"
        );
        assert!(plan.exprs[ABC].plan.cross_reuses > 0, "seed {seed}");
        assert!(plan.exprs[ED_OVER_E].plan.cross_reuses > 0, "seed {seed}");
        assert_eq!(plan.exprs[BD_OVER_B].plan.cross_reuses, 0, "seed {seed}");
        assert!(
            plan.exprs[BD_OVER_B].plan.predicted_builds > 0,
            "seed {seed}"
        );

        let reference_dir = wal_dir(&format!("cand-ref-{round}"));
        let mut reference = loaded.clone();
        let per_comp = reference
            .execute_with(
                &strategy,
                ExecOptions {
                    term_sharing: true,
                    ..opts(&reference_dir, false, 0, FaultPlan::none())
                },
            )
            .unwrap();
        for threads in [0usize, 3] {
            let dir = wal_dir(&format!("cand-{round}-{threads}"));
            let mut shared = loaded.clone();
            // The trace subscriber is process-global; this is the only test
            // in the binary that installs one.
            let traced = threads == 0;
            let buf = Arc::new(TraceBuffer::new(1 << 16));
            if traced {
                uww::obs::install(Arc::clone(&buf));
            }
            let out = shared.execute_carried(
                &strategy,
                opts(&dir, true, threads, FaultPlan::none()),
                WindowCarry::empty(),
            );
            if traced {
                uww::obs::uninstall();
            }
            let out = out.unwrap();
            let tag = format!("seed {seed} threads {threads}");
            assert!(out.conformance.exact(), "{tag}: {:?}", out.conformance);
            for (i, (p, e)) in plan.exprs.iter().zip(&out.report.per_expr).enumerate() {
                assert_eq!(
                    (
                        p.plan.predicted_builds,
                        p.plan.predicted_reuses,
                        p.plan.cross_reuses,
                        p.plan.cached_reads
                    ),
                    (
                        e.work.hash_tables_built,
                        e.work.hash_tables_reused,
                        e.work.hash_tables_cross_reused,
                        e.work.operand_reads_cached
                    ),
                    "{tag}: expression {i} diverged from the oracle"
                );
                assert_eq!(
                    e.work.logical(),
                    per_comp.per_expr[i].work.logical(),
                    "{tag}: logical meter of expression {i}"
                );
            }
            assert_eq!(
                catalog_to_string(shared.state()),
                catalog_to_string(reference.state()),
                "{tag}: state"
            );
            assert_eq!(
                std::fs::read(dir.join("wal.log")).unwrap(),
                std::fs::read(reference_dir.join("wal.log")).unwrap(),
                "{tag}: WAL bytes"
            );
            let _ = std::fs::remove_dir_all(&dir);

            // The trace shows the unconsumed publication: AB publishes every
            // key it builds, A.k among them.
            if traced {
                let records = buf.take_records();
                let spans = comp_spans(&records);
                assert_eq!(spans.len(), strategy.len(), "{tag}");
                let published = |i: usize| {
                    spans[i]
                        .1
                        .and_then(|m| m.attr_u64(uww::obs::keys::PUBLISHED_KEYS))
                };
                assert_eq!(
                    published(AB),
                    Some(plan.exprs[AB].plan.operands.len() as u64),
                    "{tag}: AB publishes each of its keys"
                );
                assert_eq!(published(BD_OVER_B), Some(0), "{tag}");
            }
        }
        let _ = std::fs::remove_dir_all(&reference_dir);
    }
}
