//! The benchmark's metric catalog: every name, unit and direction the
//! command can print, mirrored by `BENCHMARK.json` at the repo root.

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit ratio, bandwidth).
    Higher,
    /// Smaller is better (latency, memory, counts of bad events).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed beside each value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// For end-to-end metrics: the share by which the parent's median
    /// may worsen before a change is rejected.
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Statements of `tpch-olap` (and the TPC-H statements `shard-scatter`
/// draws from), by report name.
pub const TPCH_STMTS: [&str; 15] = [
    "q1",
    "q4",
    "q5",
    "q6",
    "q7",
    "q8",
    "q9",
    "q10",
    "q11",
    "q12",
    "q14",
    "q15",
    "q19",
    "q20",
    "sql_groupby",
];
/// Statement classes of `serve-small`: one per small table.
pub const SERVE_STMTS: [&str; 3] = ["small64", "small512", "small4096"];
/// The SQL read of `ingest-mix`.
pub const INGEST_STMTS: [&str; 1] = ["ingest_read"];
/// Statements of `shard-scatter`: three routed to one shard, four that
/// scatter across both.
pub const SHARD_STMTS: [&str; 7] = ["q1", "q6", "sql_groupby", "q10", "q14", "q15", "q19"];

/// Metrics of the untraced run: what a user of the engine sees.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    let mut v = vec![
        m("setup_s", "s", Lower),
        m("throughput_ops", "ops/s", Higher),
        m("read_p50_ms", "ms", Lower),
        m("read_tail_ms", "ms", Lower),
        m("peak_rss_mb", "MiB", Lower),
    ];
    for (metric, bound) in v.iter_mut().zip([0.25, 0.25, 0.25, 0.25, 0.1]) {
        metric.bound = Some(bound);
    }
    v
}

/// Every statement name that gets per-statement metrics, in order.
pub fn all_stmts() -> Vec<&'static str> {
    let mut v: Vec<&str> = TPCH_STMTS.to_vec();
    v.extend(SERVE_STMTS);
    v.extend(INGEST_STMTS);
    v
}

/// Metrics of the traced run: one layer (crate) at a time. A stage that
/// does not run in a workload reports 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut v = vec![
        m("sql.parse_us", "us", Lower),
        m("sql.lower_us", "us", Lower),
        m("sql.extract_us", "us", Lower),
        m("queries.plan_us", "us", Lower),
        m("relational.glue_us", "us", Lower),
        m("verify.analyze_us", "us", Lower),
        m("backend.plankey_us", "us", Lower),
        m("backend.cache_hit_us", "us", Lower),
        m("backend.prepare_us", "us", Lower),
        m("backend.cache_hit_ratio", "fraction", Higher),
        m("backend.evictions", "count", Lower),
    ];
    for s in all_stmts() {
        v.push(m(format!("compile.execute_ms.{s}"), "ms", Lower));
    }
    v.extend([
        m("compile.ns_per_row", "ns/row", Lower),
        m("compile.gbps", "GB/s", Higher),
        m("compile.bw_frac", "fraction", Higher),
        m("compile.parallel_speedup", "x", Higher),
        m("compile.pool_tasks_per_stmt", "count", Lower),
        m("compile.steals_per_stmt", "count", Lower),
        m("compile.partitions_per_stmt", "count", Higher),
    ]);
    for s in all_stmts() {
        v.push(m(format!("interp.execute_ms.{s}"), "ms", Lower));
    }
    v.extend([
        m("compile.vs_interp", "x", Lower),
        m("storage.load_vector_ms", "ms", Lower),
        m("storage.segments", "count", Lower),
        m("storage.compactions", "count", Lower),
        m("storage.append_p50_ms", "ms", Lower),
        m("storage.append_tail_ms", "ms", Lower),
        m("ivm.refresh_ms", "ms", Lower),
        m("ivm.refresh_tail_ms", "ms", Lower),
        m("ivm.rows_delta_per_refresh", "rows", Lower),
        m("ivm.full_recomputes", "count", Lower),
        m("serve.sojourn_p50_ms", "ms", Lower),
        m("serve.exec_p50_ms", "ms", Lower),
        m("serve.wait_p50_ms", "ms", Lower),
        m("serve.queue_depth_max", "count", Lower),
        m("serve.shed", "count", Lower),
        m("serve.deadline_drops", "count", Lower),
        m("serve.slo_met_frac", "fraction", Higher),
    ]);
    for s in SHARD_STMTS {
        v.push(m(format!("shard.overhead_ms.{s}"), "ms", Lower));
    }
    v.extend([
        m("shard.probes_per_stmt", "count", Lower),
        m("shard.coordinator_exec_p50_ms", "ms", Lower),
        m("shard.coordinator_share", "fraction", Lower),
        m("host.stream_gbps", "GB/s", Higher),
        m("harness.gen_lag_tail_ms", "ms", Lower),
        m("harness.error_rate", "fraction", Lower),
        m("trace.unattributed_frac", "fraction", Lower),
        m("trace.overhead_frac", "fraction", Lower),
    ]);
    v
}

/// The catalog rendered as `BENCHMARK.json`'s `end_to_end` and
/// `per_layer` arrays (one entry per line).
pub fn catalog_json() -> String {
    let render = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "\"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]",
        render(&end_to_end()),
        render(&per_layer())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<Metric> = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(end_to_end().iter().all(|m| m.bound.unwrap() <= 0.25));
        let setup = &end_to_end()[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        let largest = end_to_end()
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn benchmark_json_lists_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            file.contains(&catalog_json()),
            "BENCHMARK.json is out of date; regenerate it with `--metric-catalog`"
        );
    }
}
