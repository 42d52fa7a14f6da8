//! `shard-scatter`: a closed loop over a two-shard TPC-H topology with
//! the hash router, in seeded rounds. Half the statements live on one
//! shard and route straight through its serve queue; the other half
//! span both shards and run by scatter/gather through the coordinator.
//! Every result is checked against one engine over the same catalog.
//!
//! Not one of the gated workloads in `BENCHMARK.json`: each shard's serve
//! workers run a statement serially on one core, and on a shared virtual
//! machine that core's speed varied enough that the run-to-run spread of
//! the median latency (interquartile range over median) was 0.12–0.16
//! over five runs of one seed. The gated `tpch-olap` traced run
//! measures the shard layer with [`probe_layers`] instead.

use std::sync::Arc;
use std::time::Instant;

use voodoo_relational::{queries, Engine, Router, ShardedEngine, ShardedMetrics};
use voodoo_tpch::queries::{Query, QueryResult};

use super::tpch_olap::{tpch_catalog, SQL_GROUPBY};
use super::{finish_trace, ms_since, note_cache, repeat_setup, run_rounds, Config, Outcome};
use crate::metrics::SHARD_STMTS;
use crate::rng::Rng;
use crate::stage::{query_name, OpInfo, Stmt, Tracer};
use crate::{stats, trace};

/// Shards in the topology.
pub const SHARDS: usize = 2;
/// Statements routed to a single shard.
const SINGLE: [Query; 2] = [Query::Q1, Query::Q6];
/// Statements whose tables the hash router spreads over both shards.
/// With the single-shard ones the mix has seven statements: an odd count
/// puts the median latency inside one statement's cluster instead of in
/// the gap between two.
const CROSS: [Query; 4] = [Query::Q10, Query::Q14, Query::Q15, Query::Q19];

/// The mix with report names, and whether each statement scatters.
fn statements() -> Vec<(String, Stmt, bool)> {
    let mut v: Vec<(String, Stmt, bool)> = SINGLE
        .iter()
        .map(|&q| (query_name(q), Stmt::Tpch(q), false))
        .collect();
    v.push(("sql_groupby".into(), Stmt::Sql(SQL_GROUPBY.into()), false));
    v.extend(CROSS.iter().map(|&q| (query_name(q), Stmt::Tpch(q), true)));
    debug_assert!(v.iter().map(|s| s.0.as_str()).eq(SHARD_STMTS));
    v
}

/// Whether query `q` reads tables on more than one shard.
fn spans_shards(sharded: &ShardedEngine, q: Query) -> bool {
    let mut owners: Vec<usize> = queries::query_tables(q)
        .iter()
        .map(|t| sharded.table_shard(t))
        .collect();
    owners.sort_unstable();
    owners.dedup();
    owners.len() > 1
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let stmts = statements();
    let (sharded, catalog, cold) = repeat_setup(&mut out, || {
        let catalog = tpch_catalog(cfg.seed);
        let sharded = ShardedEngine::new(catalog.clone(), SHARDS, Router::Hash);
        let mut cold = Vec::new();
        for (name, stmt, _) in &stmts {
            let r = sharded
                .run(stmt.spec())
                .map_err(|e| format!("{name} (cold pass): {e}"))?;
            cold.push(r.into_rows());
        }
        Ok::<_, String>((sharded, catalog, cold))
    })?;

    for (name, stmt, cross) in &stmts {
        if let Stmt::Tpch(q) = stmt {
            if spans_shards(&sharded, *q) != *cross {
                return Err(format!("{name}: routing differs from the workload's mix"));
            }
        }
    }

    // The oracle: one engine over the same catalog.
    let single = Arc::new(Engine::new(catalog));
    let oracle: Vec<QueryResult> = stmts
        .iter()
        .map(|(name, s, _)| s.run(&single).map_err(|e| format!("{name} (oracle): {e}")))
        .collect::<Result<_, _>>()?;
    for ((name, ..), (got, want)) in stmts.iter().zip(cold.iter().zip(&oracle)) {
        out.check(got == want, || format!("{name} (cold pass) differs"));
    }

    let mut tracer = cfg.trace.then(|| Tracer::new(&single));
    if let Some(tr) = &tracer {
        for (name, s, _) in &stmts {
            tr.warm(s).map_err(|e| format!("{name}: {e}"))?;
        }
        trace::enable(1 << 16);
    }
    let before = sharded.metrics();
    let cache_before = single.cache_stats();
    let mut sharded_ms: Vec<Vec<f64>> = vec![Vec::new(); stmts.len()];
    let mut depth_max = 0;
    let mut rng = Rng::new(cfg.seed, 6);
    out.wall_s = run_rounds(cfg, stmts.len(), &mut rng, |id, i| {
        let (name, stmt, _) = &stmts[i];
        out.attempted += 1;
        if let Some(tr) = &mut tracer {
            // The same statement on one engine, stage by stage, first.
            match tr.run(id, name, stmt) {
                Ok((rows, agree)) => out.check(agree && rows == oracle[i], || {
                    format!("{name} differs on one engine (staged)")
                }),
                Err(e) => out.fail(format!("{name} (staged): {e}")),
            }
        }
        let t = Instant::now();
        let result = sharded.run(stmt.spec());
        let ms = ms_since(t);
        if tracer.is_some() {
            depth_max = depth_max.max(sharded.metrics().aggregate.queue_depth);
        }
        match result {
            Ok(o) => {
                out.read(name, ms);
                sharded_ms[i].push(ms);
                out.check(o.rows() == &oracle[i], || {
                    format!("{name}: sharded result differs from one engine")
                });
            }
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    });

    if let Some(tr) = &tracer {
        let samples = ShardSamples {
            before,
            sharded_ms,
            depth_max,
        };
        layer_figures(&mut out, &sharded, &stmts, samples, &tr.ops);
        note_cache(&mut out, cache_before, single.cache_stats());
        finish_trace(&mut out, tr);
    }
    sharded.shutdown();
    Ok(out)
}

/// What a traced loop over a sharded topology collected.
pub struct ShardSamples {
    /// Topology counters before the loop.
    pub before: ShardedMetrics,
    /// Sharded latencies (ms), per statement of the mix.
    pub sharded_ms: Vec<Vec<f64>>,
    /// Largest queue depth sampled.
    pub depth_max: u64,
}

/// The shard and serve layers' figures: sharded latency over one
/// engine's `Statement::run_on` (from `one_engine`'s traced ops of the
/// same statements), probes per scattered statement, the coordinator's
/// share, and the serve front doors' sojourn split (every shard and the
/// coordinator serve through `ServeConfig::default()`).
pub fn layer_figures(
    out: &mut Outcome,
    sharded: &ShardedEngine,
    stmts: &[(String, Stmt, bool)],
    samples: ShardSamples,
    one_engine: &[OpInfo],
) {
    let ShardSamples {
        before,
        sharded_ms,
        depth_max,
    } = samples;
    let after = sharded.metrics();
    let served = |m: &ShardedMetrics| m.per_shard.iter().map(|s| s.queries_served).sum::<u64>();
    let (mut singles, mut crosses) = (0u64, 0u64);
    let mut cross_ms = Vec::new();
    for ((name, _, cross), ms) in stmts.iter().zip(&sharded_ms) {
        if *cross {
            crosses += ms.len() as u64;
            cross_ms.extend(ms);
        } else {
            singles += ms.len() as u64;
        }
        let single: Vec<f64> = one_engine
            .iter()
            .filter(|o| &o.stmt == name)
            .map(|o| o.run_on_ns as f64 / 1e6)
            .collect();
        out.layer.insert(
            format!("shard.overhead_ms.{name}"),
            stats::median(ms) - stats::median(&single),
        );
    }
    let probes = (served(&after) - served(&before)).saturating_sub(singles);
    let agg = &after.aggregate;
    let sojourn = agg.sojourn_p50_seconds.unwrap_or(0.0) * 1e3;
    let exec = agg.p50_seconds.unwrap_or(0.0) * 1e3;
    let coord_p50 = after.coordinator.p50_seconds.unwrap_or(0.0) * 1e3;
    for (k, v) in [
        (
            "shard.probes_per_stmt",
            probes as f64 / crosses.max(1) as f64,
        ),
        ("shard.coordinator_exec_p50_ms", coord_p50),
        (
            "shard.coordinator_share",
            coord_p50 / stats::median(&cross_ms).max(f64::MIN_POSITIVE),
        ),
        ("serve.sojourn_p50_ms", sojourn),
        ("serve.exec_p50_ms", exec),
        ("serve.wait_p50_ms", (sojourn - exec).max(0.0)),
        ("serve.queue_depth_max", depth_max as f64),
        ("serve.shed", (agg.sheds - before.aggregate.sheds) as f64),
        (
            "serve.deadline_drops",
            (agg.deadline_drops - before.aggregate.deadline_drops) as f64,
        ),
    ] {
        out.layer.insert(k.into(), v);
    }
}

/// The shard and serve layers measured beside another workload's
/// traced run: a two-shard topology over `catalog` runs the mix for
/// `rounds` rounds in a fixed order, every result checked against
/// `oracle` (by statement name).
pub fn probe_layers(
    out: &mut Outcome,
    catalog: voodoo_storage::Catalog,
    oracle: &dyn Fn(&str) -> Option<QueryResult>,
    one_engine: &[OpInfo],
    rounds: usize,
) -> Result<(), String> {
    let stmts = statements();
    let sharded = ShardedEngine::new(catalog, SHARDS, Router::Hash);
    let mut sharded_ms: Vec<Vec<f64>> = vec![Vec::new(); stmts.len()];
    let mut depth_max = 0;
    let mut before = sharded.metrics();
    // Round 0 is the topology's cold pass: checked, not timed.
    for round in 0..=rounds {
        for ((name, stmt, _), ms) in stmts.iter().zip(&mut sharded_ms) {
            let t = Instant::now();
            let result = sharded.run(stmt.spec());
            let took = ms_since(t);
            let rows = result.map_err(|e| format!("{name} (sharded): {e}"))?;
            out.check(Some(rows.rows().clone()) == oracle(name), || {
                format!("{name}: sharded result differs")
            });
            if round > 0 {
                ms.push(took);
                depth_max = depth_max.max(sharded.metrics().aggregate.queue_depth);
            }
        }
        if round == 0 {
            before = sharded.metrics();
        }
    }
    let samples = ShardSamples {
        before,
        sharded_ms,
        depth_max,
    };
    layer_figures(out, &sharded, &stmts, samples, one_engine);
    sharded.shutdown();
    Ok(())
}
