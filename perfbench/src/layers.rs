//! Per-layer attribution shared by the workloads: span self time by layer,
//! meter counters, and the per-key median across traced repetitions.

use perfbench::stats::{median, self_times, Interval};
use std::collections::BTreeMap;
use std::sync::Arc;
use uww_obs::{SpanKind, SpanRecord, TraceBuffer};
use uww_relational::WorkMeter;

/// One traced repetition's per-layer values, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Engine operator spans → the metric their summed self time feeds.
const OPERATORS: &[(&str, &str)] = &[
    ("materialize_operands", "engine.op.materialize_operands_ms"),
    ("hash_probe", "engine.op.hash_probe_ms"),
    ("hash_build", "engine.op.hash_build_ms"),
    ("hash_table_intern", "engine.op.hash_table_intern_ms"),
    ("group_merge", "engine.op.group_merge_ms"),
    ("filter", "engine.op.filter_ms"),
];

/// Ring capacity for one traced repetition; a repetition that overflows it
/// is reported as a failed check rather than silently under-attributed.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Installs a fresh span buffer for one traced repetition.
pub fn start_trace() -> Arc<TraceBuffer> {
    let buf = Arc::new(TraceBuffer::new(TRACE_CAPACITY));
    uww_obs::install(Arc::clone(&buf));
    buf
}

/// Uninstalls the span buffer and returns its spans, or an error when the
/// ring dropped any.
pub fn finish_trace(buf: &TraceBuffer) -> Result<Vec<SpanRecord>, String> {
    uww_obs::uninstall();
    if buf.dropped() > 0 {
        return Err(format!("span ring dropped {} spans", buf.dropped()));
    }
    Ok(buf.take_records())
}

/// Summed self time (ms) of the engine operators and WAL records in `spans`.
/// Partitioned operator spans (`hash_probe[p0]`) count toward their
/// operator.
pub fn span_layers(spans: &[SpanRecord]) -> Layers {
    let intervals: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            id: s.id,
            parent: s.parent,
            start_us: s.start_us,
            end_us: s.end_us,
        })
        .collect();
    let own = self_times(&intervals);
    let mut out: Layers = OPERATORS.iter().map(|&(_, m)| (m, 0.0)).collect();
    out.insert("wal.record_ms", 0.0);
    for s in spans {
        let metric = match s.kind {
            SpanKind::Operator => {
                let base = s.name.split('[').next().unwrap_or(&s.name);
                OPERATORS
                    .iter()
                    .find(|(op, _)| *op == base)
                    .map(|&(_, m)| m)
            }
            SpanKind::WalRecord => Some("wal.record_ms"),
            _ => None,
        };
        if let Some(m) = metric {
            *out.entry(m).or_default() += own[&s.id] as f64 / 1e3;
        }
    }
    out
}

/// The engine counters of one window's meter.
pub fn meter_layers(m: &WorkMeter) -> Layers {
    let linear = m.linear_work() as f64;
    let uses = (m.hash_tables_built + m.hash_tables_reused) as f64;
    Layers::from([
        ("engine.linear_work_rows", linear),
        ("engine.physical_rows", m.physical_rows_touched as f64),
        (
            "engine.physical_per_linear",
            ratio(m.physical_rows_touched as f64, linear),
        ),
        ("engine.hash_tables_built", m.hash_tables_built as f64),
        ("engine.hash_tables_reused", m.hash_tables_reused as f64),
        (
            "engine.hash_tables_cross_reused",
            m.hash_tables_cross_reused as f64,
        ),
        ("engine.operand_reads_cached", m.operand_reads_cached as f64),
        (
            "share.reuse_ratio",
            ratio(m.hash_tables_reused as f64, uses),
        ),
    ])
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Share of `window` not covered by `attributed`, in percent.
pub fn unattributed_pct(window: f64, attributed: f64) -> f64 {
    ratio(window - attributed, window) * 100.0
}

/// Per-key median across repetitions.
pub fn median_layers(reps: &[Layers]) -> Layers {
    let mut keys: Vec<&'static str> = reps.iter().flat_map(|r| r.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let xs: Vec<f64> = reps.iter().filter_map(|r| r.get(k).copied()).collect();
            (k, median(&xs))
        })
        .collect()
}
