//! `ingest-mix`: a closed loop of writes beside reads over a 1M-row
//! `(k, v)` fact table with a maintained group-by view on `k`. Every
//! iteration appends a seeded batch of 1–64 rows, runs a SQL filtered
//! aggregate, and reads the view. It exercises storage segments and
//! their materialization, plan re-preparation after every version bump,
//! and the view's delta refresh.

use std::sync::Arc;
use std::time::Instant;

use voodoo_core::Buffer;
use voodoo_relational::{Engine, Session};
use voodoo_storage::{Catalog, Table, TableColumn};
use voodoo_tpch::queries::QueryResult;

use super::{finish_trace, ms_since, note_cache, repeat_setup, Config, Outcome};
use crate::rng::Rng;
use crate::stage::{Stmt, Tracer};
use crate::trace;

/// Rows of the fact table before the first append.
pub const ROWS: usize = 1_000_000;
/// Distinct group keys `k`.
pub const GROUPS: i64 = 1000;
/// Values `v` are drawn from `0..VALUES`.
pub const VALUES: i64 = 1000;
/// Largest append batch.
pub const MAX_BATCH: i64 = 64;
const TABLE: &str = "fact";
const VIEW: &str = "fact_by_k";
const VIEW_SQL: &str = "SELECT k, SUM(v), COUNT(*) FROM fact GROUP BY k";

/// The benchmark's own running per-group count and sum.
struct Oracle {
    count: Vec<i64>,
    sum: Vec<i64>,
}

impl Oracle {
    fn add(&mut self, rows: &[Vec<i64>]) {
        for r in rows {
            self.count[r[0] as usize] += 1;
            self.sum[r[0] as usize] += r[1];
        }
    }

    /// `SELECT COUNT(*), SUM(v) FROM fact WHERE k < x`.
    fn read(&self, x: i64) -> QueryResult {
        let x = x as usize;
        let count = self.count[..x].iter().sum();
        let sum = self.sum[..x].iter().sum();
        QueryResult::new(vec![vec![count, sum]])
    }

    /// The view: one `[k, SUM(v), COUNT(*)]` row per non-empty group.
    fn view(&self) -> QueryResult {
        QueryResult::new(
            (0..GROUPS as usize)
                .filter(|&k| self.count[k] > 0)
                .map(|k| vec![k as i64, self.sum[k], self.count[k]])
                .collect(),
        )
    }
}

/// The fact table's initial `k` and `v` columns.
fn base_columns(seed: u64) -> (Vec<i64>, Vec<i64>) {
    let mut rng = Rng::new(seed, 4);
    (0..ROWS)
        .map(|_| (rng.range(0, GROUPS), rng.range(0, VALUES)))
        .unzip()
}

fn random_rows(rng: &mut Rng, n: usize) -> Vec<Vec<i64>> {
    (0..n)
        .map(|_| vec![rng.range(0, GROUPS), rng.range(0, VALUES)])
        .collect()
}

fn read_stmt(x: i64) -> Stmt {
    Stmt::Sql(format!("SELECT COUNT(*), SUM(v) FROM fact WHERE k < {x}"))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (session, cold_read, cold_view) = repeat_setup(&mut out, || {
        let (k, v) = base_columns(cfg.seed);
        let mut t = Table::new(TABLE);
        t.add_column(TableColumn::from_buffer("k", Buffer::I64(k)));
        t.add_column(TableColumn::from_buffer("v", Buffer::I64(v)));
        let mut cat = Catalog::in_memory();
        cat.insert_table(t);
        let session = Session::new(cat);
        session
            .create_view(VIEW, VIEW_SQL)
            .map_err(|e| format!("create view: {e}"))?;
        let cold_read = read_stmt(GROUPS / 2).run(session.engine());
        let cold_view = session.read_view(VIEW);
        Ok::<_, String>((session, cold_read, cold_view))
    })?;

    // Replayed from the seed: the oracle never reads the engine.
    let mut oracle = Oracle {
        count: vec![0; GROUPS as usize],
        sum: vec![0; GROUPS as usize],
    };
    let (k, v) = base_columns(cfg.seed);
    for (k, v) in k.into_iter().zip(v) {
        oracle.count[k as usize] += 1;
        oracle.sum[k as usize] += v;
    }
    match cold_read {
        Ok(rows) => out.check(rows == oracle.read(GROUPS / 2), || {
            "cold read differs".into()
        }),
        Err(e) => out.fail(format!("cold read: {e}")),
    }
    match cold_view {
        Ok(rows) => out.check(QueryResult::new(rows) == oracle.view(), || {
            "cold view read differs".into()
        }),
        Err(e) => out.fail(format!("cold view read: {e}")),
    }
    let engine: &Arc<Engine> = session.engine();

    let mut tracer = cfg.trace.then(|| {
        let mut t = Tracer::new(engine);
        t.cold_table = Some(TABLE.to_string());
        t
    });
    if tracer.is_some() {
        trace::enable(1 << 16);
    }
    let mut rng = Rng::new(cfg.seed, 5);
    let cache_before = engine.cache_stats();
    let metrics_before = engine.metrics();
    let segments = |s: &Session| s.catalog().table(TABLE).map_or(0, |t| t.segments().len());
    let mut last_segments = segments(&session);
    let mut compactions = 0u64;
    let start = Instant::now();
    let mut id = 0u32;
    while start.elapsed() < cfg.window() {
        // Write.
        let n = rng.range(1, MAX_BATCH + 1) as usize;
        let batch = random_rows(&mut rng, n);
        out.attempted += 1;
        let t = Instant::now();
        let appended = session.append_rows(TABLE, &batch);
        let ms = ms_since(t);
        if appended {
            out.completed += 1;
            out.writes.push(ms);
            oracle.add(&batch);
        } else {
            out.fail("append refused");
        }
        let now_segments = segments(&session);
        if now_segments < last_segments {
            compactions += 1;
        }
        last_segments = now_segments;

        // Read.
        let x = rng.range(1, GROUPS + 1);
        let stmt = read_stmt(x);
        out.attempted += 1;
        let result = match &mut tracer {
            None => {
                let t = Instant::now();
                stmt.run(engine).map(|rows| (rows, true, ms_since(t)))
            }
            Some(tr) => tr.run(id, "ingest_read", &stmt).map(|(rows, agree)| {
                let ms = tr.ops.last().map_or(0.0, |o| o.run_on_ns as f64 / 1e6);
                (rows, agree, ms)
            }),
        };
        id += 1;
        match result {
            Ok((rows, agree, ms)) => {
                out.read("ingest_read", ms);
                out.check(agree && rows == oracle.read(x), || {
                    format!("{} differs from the running count/sum", stmt.text())
                });
            }
            Err(e) => out.fail(e),
        }

        // View read, including its delta refresh.
        out.attempted += 1;
        let t = Instant::now();
        let view = session.read_view(VIEW);
        let ms = ms_since(t);
        match view {
            Ok(rows) => {
                out.completed += 1;
                out.views.push(ms);
                out.check(QueryResult::new(rows) == oracle.view(), || {
                    "view differs from the running count/sum".into()
                });
            }
            Err(e) => out.fail(e),
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();

    if let Some(tr) = &tracer {
        let m = engine.metrics();
        let refreshes = m.delta_refreshes - metrics_before.delta_refreshes;
        out.layer.insert(
            "ivm.rows_delta_per_refresh".into(),
            (m.rows_delta - metrics_before.rows_delta) as f64 / refreshes.max(1) as f64,
        );
        out.layer.insert(
            "ivm.full_recomputes".into(),
            (m.full_recomputes - metrics_before.full_recomputes) as f64,
        );
        out.layer
            .insert("storage.segments".into(), last_segments as f64);
        out.layer
            .insert("storage.compactions".into(), compactions as f64);
        note_cache(&mut out, cache_before, engine.cache_stats());
        finish_trace(&mut out, tr);
    }
    Ok(out)
}
