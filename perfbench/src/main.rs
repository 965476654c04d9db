//! The update-window benchmark.
//!
//! ```text
//! perfbench --workload <fig4_minwork|fig4_strategy_shared|fig4_ingest_serve>
//!           --seed <n> --seconds <s> --trace <0|1> [--tmp <dir>]
//! ```
//!
//! Each invocation runs one workload in this process, checks every
//! repetition's output, and prints the metrics as its last stdout line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! metrics, from a run that alternates untraced and traced repetitions.
//! See `perfbench/README.md` for the layer → metric → workload map.

mod batch;
mod ingest;
mod layers;

use perfbench::reference::{Bracket, Kernel};
use perfbench::stats::{median, per_reference};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Least total set-up time per run, so a set-up of a few milliseconds is
/// still timed over enough repetitions to have a steady median.
const SETUP_MIN: Duration = Duration::from_secs(1);
/// The reference kernel's wall time on a quiet host of the kind the
/// benchmark was tuned on (a 2-vCPU Xeon VM), in seconds. `setup_s` is the
/// set-up time in reference units scaled by it: seconds at that host speed.
const REFERENCE_NOMINAL_S: f64 = 0.050;

/// End-to-end metrics, reported by `--trace 0` on every workload. Window
/// times are in reference units (see `perfbench::reference`), which keep
/// the program's speed and drop most of the host's.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("window_ref", "ref"),
    ("window_ref_p90", "ref"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by `--trace 1` on every workload. A layer a
/// workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("window_ms", "ms"),
    ("window_ms_p90", "ms"),
    ("ns_per_work_row", "ns"),
    ("events_per_s", "1/s"),
    ("reference_ms", "ms"),
    ("setup_wall_s", "s"),
    ("tpcd.build_ms", "ms"),
    ("tpcd.changes_ms", "ms"),
    ("core.sizes.estimate_us", "us"),
    ("core.planner.min_work_us", "us"),
    ("vdag.check_us", "us"),
    ("core.engine.share.plan_ms", "ms"),
    ("core.engine.exec_ms", "ms"),
    ("core.engine.comp_ms", "ms"),
    ("core.engine.inst_ms", "ms"),
    ("engine.op.materialize_operands_ms", "ms"),
    ("engine.op.hash_probe_ms", "ms"),
    ("engine.op.hash_build_ms", "ms"),
    ("engine.op.hash_table_intern_ms", "ms"),
    ("engine.op.group_merge_ms", "ms"),
    ("engine.op.filter_ms", "ms"),
    ("engine.linear_work_rows", "count"),
    ("engine.physical_rows", "count"),
    ("engine.physical_per_linear", "ratio"),
    ("engine.hash_tables_built", "count"),
    ("engine.hash_tables_reused", "count"),
    ("engine.hash_tables_cross_reused", "count"),
    ("engine.operand_reads_cached", "count"),
    ("share.reuse_ratio", "ratio"),
    ("wal.bytes_per_window", "B"),
    ("wal.record_ms", "ms"),
    ("obs.ledger_bytes", "B"),
    ("sched.windows", "count"),
    ("sched.events_per_window", "count"),
    ("sched.predicted_over_measured", "ratio"),
    ("relational.versioned.epochs", "count"),
    ("serve.server_query_us_p50", "us"),
    ("serve.lock_wait_us", "us"),
    ("serve.generator_late_us_max", "us"),
    ("staleness_ticks", "ticks"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("window.unattributed_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Directory for the ingest workload's WAL and ledger files.
    pub tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tmp = PathBuf::from(".bench_build/perfbench-tmp");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--tmp" => tmp = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tmp,
    })
}

/// Correctness bookkeeping: every checked operation counts as attempted,
/// every failed one also as failed (with its reason, printed to stderr).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `passed` operations that passed and one failed operation per
    /// entry of `failed`.
    pub fn bulk(&mut self, passed: u64, failed: &[String]) {
        self.attempted += passed + failed.len() as u64;
        self.failures.extend(failed.iter().cloned());
    }
}

/// What a workload hands back: named metric values plus its tally.
pub struct Report {
    pub values: layers::Layers,
    pub tally: Tally,
}

/// Timings of every set-up repetition of one run, in ms.
#[derive(Default)]
pub struct SetupTimes {
    build_ms: Vec<f64>,
    changes_ms: Vec<f64>,
    /// Mean of the reference runs around each set-up.
    reference_ms: Vec<f64>,
}

impl SetupTimes {
    /// `setup_s` (in reference units, scaled to seconds at the nominal host
    /// speed), `setup_wall_s`, `tpcd.build_ms` and `tpcd.changes_ms`:
    /// medians over the repetitions.
    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        let total_ms: Vec<f64> = self
            .build_ms
            .iter()
            .zip(&self.changes_ms)
            .map(|(b, c)| b + c)
            .collect();
        let rel = per_reference(&total_ms, &self.reference_ms);
        [
            ("setup_s", median(&rel) * REFERENCE_NOMINAL_S),
            ("setup_wall_s", median(&total_ms) / 1e3),
            ("tpcd.build_ms", median(&self.build_ms)),
            ("tpcd.changes_ms", median(&self.changes_ms)),
        ]
    }
}

/// Runs `setup` at least `SETUP_REPS` times and for at least `SETUP_MIN`,
/// between reference runs, dropping each result before the next set-up
/// and keeping the last one. `setup` returns its result and the time of its
/// two phases: data generation with view materialization, and change
/// generation.
pub fn repeat_setup<T>(
    kernel: &mut Kernel,
    mut setup: impl FnMut() -> Result<(T, Duration, Duration), String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut kept = None;
    let start = Instant::now();
    let mut bracket = Bracket::start(kernel);
    while times.build_ms.len() < SETUP_REPS || start.elapsed() < SETUP_MIN {
        drop(kept.take());
        let (value, build, changes) = setup()?;
        times.reference_ms.push(bracket.close());
        times.build_ms.push(build.as_secs_f64() * 1e3);
        times.changes_ms.push(changes.as_secs_f64() * 1e3);
        kept = Some(value);
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Peak resident set size of this process, from `VmHWM`, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut kernel = Kernel::new();
    let result = match args.workload.as_str() {
        "fig4_minwork" => batch::run(&args, false, &mut kernel),
        "fig4_strategy_shared" => batch::run(&args, true, &mut kernel),
        "fig4_ingest_serve" => ingest::run(&args, &mut kernel),
        other => Err(format!(
            "unknown workload {other} (fig4_minwork|fig4_strategy_shared|fig4_ingest_serve)"
        )),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let tally = &report.tally;
    for f in &tally.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let failed = tally.failures.len() as u64;
    let attempted = tally.attempted.max(1);
    report
        .values
        .insert("failed_frac", failed as f64 / attempted as f64);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = report.values.get(name).copied();
        if value.is_none() && !args.trace {
            eprintln!("perfbench: end-to-end metric {name} was not measured");
            std::process::exit(1);
        }
        let value = value.unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a finite number");
            std::process::exit(1);
        }
        println!("{name:<36} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
