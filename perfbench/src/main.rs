//! The repo benchmark: runs one workload against the engine as shipped,
//! checks every output against an oracle, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch-olap|serve-small|ingest-mix|shard-scatter> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `metrics.rs`; `--metric-catalog` prints both lists in the
//! `BENCHMARK.json` layout). The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is a detail record with provenance and the figures that sit
//! beside the metrics (tail percentiles, sample counts, set-up
//! repetitions). Both are also written to `.bench_out/` in the working
//! directory, with the traced run's spans as JSON lines. The exit code is
//! 1 when any output differed from its oracle or a trace self-check
//! failed, 2 on bad arguments or a workload that could not run.
//!
//! `BENCHMARK.json` gates `tpch-olap` and `ingest-mix`; `serve-small` and
//! `shard-scatter` run by name (their module docs say why they are not
//! gated).

mod host;
mod metrics;
mod rng;
mod stage;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use workloads::{Config, Outcome};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --metric-catalog",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--metric-catalog") {
        println!("{}", metrics::catalog_json());
        return ExitCode::SUCCESS;
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload").copied(),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        opts.get("trace").and_then(|s| match *s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    let cfg = Config {
        seed,
        seconds,
        trace,
    };
    let result = match workload {
        "tpch-olap" => workloads::tpch_olap::run(&cfg),
        "serve-small" => workloads::serve_small::run(&cfg),
        "ingest-mix" => workloads::ingest_mix::run(&cfg),
        "shard-scatter" => workloads::shard_scatter::run(&cfg),
        _ => return usage(),
    };
    let out = match result {
        Ok(out) if out.attempted > 0 => out,
        Ok(_) => {
            eprintln!("{workload}: no operation ran");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::from(2);
        }
    };
    report(workload, &cfg, out)
}

/// Derive the metrics, print the detail record and the result line, and
/// pick the exit code.
fn report(workload: &str, cfg: &Config, mut out: Outcome) -> ExitCode {
    let (reads, read_slices) = stats::sliced_tail(&out.reads);
    let (writes, _) = stats::sliced_tail(&out.writes);
    let (views, _) = stats::sliced_tail(&out.views);
    let (lag, _) = stats::sliced_tail(&out.gen_lag);
    let attempted = out.attempted as f64;
    let error_rate = (out.failed + out.wrong) as f64 / attempted;
    let slo_met_frac = out.slo_met.map(|n| n as f64 / attempted);

    let (catalog, mut values) = if cfg.trace {
        let stream = host::stream_gbps();
        let mut v = std::mem::take(&mut out.layer);
        let gbps = v.get("compile.gbps").copied().unwrap_or(0.0);
        v.insert("host.stream_gbps".into(), stream);
        v.insert("compile.bw_frac".into(), gbps / stream);
        v.insert("storage.append_p50_ms".into(), stats::median(&out.writes));
        v.insert("storage.append_tail_ms".into(), writes.value);
        v.insert("ivm.refresh_ms".into(), stats::median(&out.views));
        v.insert("ivm.refresh_tail_ms".into(), views.value);
        v.insert("serve.slo_met_frac".into(), slo_met_frac.unwrap_or(0.0));
        v.insert("harness.gen_lag_tail_ms".into(), lag.value);
        v.insert("harness.error_rate".into(), error_rate);
        (metrics::per_layer(), v)
    } else {
        let mut v = BTreeMap::new();
        v.insert("setup_s".into(), stats::median(&out.setup_s));
        v.insert("throughput_ops".into(), out.completed as f64 / out.wall_s);
        v.insert("read_p50_ms".into(), stats::median(&out.reads));
        v.insert("read_tail_ms".into(), reads.value);
        v.insert("peak_rss_mb".into(), host::peak_rss_mib());
        (metrics::end_to_end(), v)
    };

    let metric_json: Vec<String> = catalog
        .iter()
        .map(|m| {
            let value = values.remove(&m.name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                js(&m.name),
                num(value),
                js(m.unit)
            )
        })
        .collect();
    let correct = out.wrong == 0 && out.trace_violations.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metric_json.join(", ")
    );

    let tail_json = |t: &stats::Tail| {
        format!(
            "{{\"value\": {}, \"percentile\": {}, \"samples\": {}}}",
            num(t.value),
            num(t.percentile),
            t.samples
        )
    };
    let list = |xs: &[String]| {
        format!(
            "[{}]",
            xs.iter().map(|s| js(s)).collect::<Vec<_>>().join(", ")
        )
    };
    let fields = vec![
        ("workload".to_string(), js(workload)),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), num(cfg.seconds)),
        ("trace".into(), cfg.trace.to_string()),
        ("commit".into(), js(&host::commit())),
        (
            "source_fingerprint".into(),
            js(&host::source_fingerprint(Path::new("."))),
        ),
        ("nproc".into(), host::nproc().to_string()),
        ("rustc".into(), js(env!("PERFBENCH_RUSTC"))),
        ("valid".into(), out.invalid.is_empty().to_string()),
        ("invalid_reasons".into(), list(&out.invalid)),
        (
            "setup_s_reps".into(),
            format!(
                "[{}]",
                out.setup_s
                    .iter()
                    .map(|&s| num(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("wall_s".into(), num(out.wall_s)),
        ("completed".into(), out.completed.to_string()),
        ("wrong".into(), out.wrong.to_string()),
        ("error_rate".into(), num(error_rate)),
        ("read_p50_ms".into(), num(stats::median(&out.reads))),
        ("read_tail".into(), tail_json(&reads)),
        ("read_tail_slices".into(), read_slices.to_string()),
        (
            "read_quartiles_ms".into(),
            stats::quartiles(&out.reads).map_or("null".into(), |q| {
                format!("[{}, {}, {}]", num(q[0]), num(q[1]), num(q[2]))
            }),
        ),
        ("write_p50_ms".into(), num(stats::median(&out.writes))),
        ("write_tail".into(), tail_json(&writes)),
        ("view_p50_ms".into(), num(stats::median(&out.views))),
        ("view_tail".into(), tail_json(&views)),
        ("gen_lag_tail".into(), tail_json(&lag)),
        (
            "slo_met_frac".into(),
            slo_met_frac.map_or("null".into(), num),
        ),
        ("problems".into(), list(&out.problems)),
        ("trace_violations".into(), list(&out.trace_violations)),
        (
            "read_p50_ms_by_stmt".into(),
            format!(
                "{{{}}}",
                out.reads_by_stmt
                    .iter()
                    .map(|(k, v)| format!("{}: {}", js(k), num(stats::median(v))))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    let detail = format!(
        "{{\"detail\": {{{}}}}}",
        fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", js(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let dir = Path::new(".bench_out");
    let stem = format!(
        "{workload}-seed{}-trace{}",
        cfg.seed,
        if cfg.trace { 1 } else { 0 }
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.json")),
                format!("{detail}\n{result}\n"),
            )
        })
        .and_then(|()| {
            if cfg.trace {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    trace::to_jsonl(&out.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.display());
    }
    for p in out.problems.iter().chain(&out.trace_violations) {
        eprintln!("{workload}: {p}");
    }
    for r in &out.invalid {
        eprintln!("{workload}: run not valid: {r}");
    }
    println!("{detail}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A JSON number (non-finite values, which JSON lacks, print as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn js(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}
