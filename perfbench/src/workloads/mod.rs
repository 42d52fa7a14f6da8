//! The four workloads and what they share: run configuration, the
//! outcome every workload fills in, repeated set-up, and result checks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use voodoo_backend::CacheStats;

use crate::stage::{layer_metrics, Tracer};
use crate::trace::{self, Span};

pub mod ingest_mix;
pub mod serve_small;
pub mod shard_scatter;
pub mod tpch_olap;

/// How often set-up runs per process; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Workload names, as given to `--workload`.
pub const NAMES: [&str; 4] = ["tpch-olap", "serve-small", "ingest-mix", "shard-scatter"];

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Config {
    /// The measurement window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured. Latencies are in milliseconds.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations started.
    pub attempted: u64,
    /// Of those, operations that returned an error or were shed.
    pub failed: u64,
    /// Results (timed or set-up) that differed from the oracle.
    pub wrong: u64,
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed loop, seconds.
    pub wall_s: f64,
    /// Operations completed in the timed loop.
    pub completed: u64,
    /// Read-statement latencies.
    pub reads: Vec<f64>,
    /// The same latencies by statement name.
    pub reads_by_stmt: BTreeMap<String, Vec<f64>>,
    /// Append latencies.
    pub writes: Vec<f64>,
    /// View-read latencies.
    pub views: Vec<f64>,
    /// Reads correct and within the latency limit (open loop only).
    pub slo_met: Option<u64>,
    /// Generator lag behind each due time (open loop only).
    pub gen_lag: Vec<f64>,
    /// Per-layer figures of the traced run.
    pub layer: BTreeMap<String, f64>,
    /// Descriptions of the first mismatches and failed self-checks.
    pub problems: Vec<String>,
    /// Reasons the run's figures are not valid measurements.
    pub invalid: Vec<String>,
    /// Failed trace self-checks (spans not adding up to their root).
    pub trace_violations: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Count a mismatch unless `ok`, keeping the first few descriptions.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            self.problem(what());
        }
    }

    /// Count a failed operation.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        self.problem(format!("failed: {what}"));
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

impl Outcome {
    /// Record a completed read of statement `name`.
    pub fn read(&mut self, name: &str, ms: f64) {
        self.completed += 1;
        self.reads.push(ms);
        self.reads_by_stmt
            .entry(name.to_string())
            .or_default()
            .push(ms);
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping each state before building
/// the next, and keep the last state and every duration.
pub fn repeat_setup<S, E>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<S, E>,
) -> Result<S, E> {
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(state.expect("at least one set-up"))
}

/// Plan-cache figures over a timed loop, from the engine's counters.
pub fn note_cache(out: &mut Outcome, before: CacheStats, after: CacheStats) {
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    out.layer.insert(
        "backend.cache_hit_ratio".into(),
        hits as f64 / lookups.max(1) as f64,
    );
    out.layer.insert(
        "backend.evictions".into(),
        (after.evictions - before.evictions) as f64,
    );
}

/// Close a traced loop: collect the spans and derive the per-layer
/// figures every statement workload shares.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer) {
    out.spans = trace::take();
    let (layer, violations) = layer_metrics(&out.spans, &tracer.ops);
    out.layer.extend(layer);
    out.trace_violations = violations;
}

/// A closed loop in seeded rounds: every round runs each of the `n`
/// statements once, in a fresh order drawn from `rng`, and the loop ends
/// at the first round boundary past the window — so every run measures
/// whole rounds and the same statement mix. `op(id, i)` runs statement
/// `i` as op `id`. Returns the loop's wall time in seconds.
pub fn run_rounds(
    cfg: &Config,
    n: usize,
    rng: &mut crate::rng::Rng,
    mut op: impl FnMut(u32, usize),
) -> f64 {
    let start = Instant::now();
    let mut order: Vec<usize> = (0..n).collect();
    let mut id = 0u32;
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            op(id, i);
            id += 1;
        }
        if start.elapsed() >= cfg.window() {
            return start.elapsed().as_secs_f64();
        }
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
