//! `tpch-olap`: a closed loop of the 14 CPU-figure TPC-H queries plus
//! one SQL group-by, in seeded rounds, on the `cpu` backend over static
//! SF 0.05 data. Kernels and the morsel pool do nearly all the work.

use std::sync::Arc;
use std::time::Instant;

use voodoo_relational::Engine;
use voodoo_storage::Catalog;
use voodoo_tpch::queries::{QueryResult, CPU_QUERIES};
use voodoo_tpch::{generate_into, TpchParams};

use super::{
    finish_trace, ms_since, note_cache, repeat_setup, run_rounds, shard_scatter, Config, Outcome,
};
use crate::rng::Rng;
use crate::stage::{query_name, Stmt, Tracer};
use crate::trace;

/// TPC-H scale factor (about 300k lineitem rows).
pub const SF: f64 = 0.05;

/// Rounds of the shard-layer probe in the traced run.
const SHARD_ROUNDS: usize = 3;

/// The SQL statement of the mix.
pub const SQL_GROUPBY: &str =
    "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag";

/// TPC-H data at [`SF`] generated from `seed`.
pub fn tpch_catalog(seed: u64) -> Catalog {
    let mut cat = Catalog::in_memory();
    generate_into(&mut cat, TpchParams { scale: SF, seed });
    cat
}

/// The workload's statements with their report names.
pub fn statements() -> Vec<(String, Stmt)> {
    let mut v: Vec<(String, Stmt)> = CPU_QUERIES
        .iter()
        .map(|&q| (query_name(q), Stmt::Tpch(q)))
        .collect();
    v.push(("sql_groupby".into(), Stmt::Sql(SQL_GROUPBY.into())));
    v
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let stmts = statements();
    let (engine, cold) = repeat_setup(&mut out, || {
        let engine = Arc::new(Engine::new(tpch_catalog(cfg.seed)));
        let cold: Vec<_> = stmts.iter().map(|(_, s)| s.run(&engine)).collect();
        Ok::<_, String>((engine, cold))
    })?;

    // The oracle: the reference interpreter over the same snapshot.
    let oracle: Vec<QueryResult> = stmts
        .iter()
        .map(|(name, s)| {
            s.run_on(&engine, "interp")
                .map_err(|e| format!("{name} on interp: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for ((name, _), (got, want)) in stmts.iter().zip(cold.iter().zip(&oracle)) {
        match got {
            Ok(rows) => out.check(rows == want, || format!("{name} (cold pass) differs")),
            Err(e) => out.fail(format!("{name} (cold pass): {e}")),
        }
    }

    let mut tracer = cfg.trace.then(|| Tracer::new(&engine));
    if let Some(tr) = &tracer {
        for (name, s) in &stmts {
            tr.warm(s).map_err(|e| format!("{name}: {e}"))?;
        }
        trace::enable(1 << 16);
    }
    let cache_before = engine.cache_stats();
    let mut rng = Rng::new(cfg.seed, 1);
    out.wall_s = run_rounds(cfg, stmts.len(), &mut rng, |id, i| {
        let (name, stmt) = &stmts[i];
        out.attempted += 1;
        let result = match &mut tracer {
            None => {
                let t = Instant::now();
                stmt.run(&engine).map(|rows| (rows, true, ms_since(t)))
            }
            Some(tr) => tr.run(id, name, stmt).map(|(rows, agree)| {
                let ms = tr.ops.last().map_or(0.0, |o| o.run_on_ns as f64 / 1e6);
                (rows, agree, ms)
            }),
        };
        match result {
            Ok((rows, agree, ms)) => {
                out.read(name, ms);
                out.check(agree && rows == oracle[i], || {
                    format!("{name}: result differs from the interpreter")
                });
            }
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    });
    if let Some(tr) = &tracer {
        note_cache(&mut out, cache_before, engine.cache_stats());
        finish_trace(&mut out, tr);
        // The shard and serve layers, on a two-shard topology over the
        // same data.
        let by_name = |name: &str| {
            stmts
                .iter()
                .position(|(n, _)| n == name)
                .map(|i| oracle[i].clone())
        };
        shard_scatter::probe_layers(
            &mut out,
            tpch_catalog(cfg.seed),
            &by_name,
            &tr.ops,
            SHARD_ROUNDS,
        )?;
    }
    Ok(out)
}
