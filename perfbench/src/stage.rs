//! The traced statement path: the benchmark drives each statement
//! through the engine's public stages itself — SQL parse/lower or the
//! TPC-H planner, plan-cache lookup (and `Backend::prepare` on a miss),
//! `PreparedPlan::execute`, row extraction — with one span per stage,
//! then runs side probes (plan key, analyzer, serial and interpreter
//! executions) outside the statement's span tree.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use voodoo_backend::{Backend, CpuBackend, Parallelism, PlanKey, PreparedPlan, ShardedPlanCache};
use voodoo_core::{Op, Program, Result};
use voodoo_relational::{queries, sql, Engine};
use voodoo_storage::Catalog;
use voodoo_tpch::queries::{Query, QueryResult};

use crate::stats::median;
use crate::trace::{self, Span, NO_PARENT};

/// Largest share of a statement's root span its child spans may leave
/// unattributed (checked on each statement's median).
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// A workload statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// A TPC-H query through the planner frontend.
    Tpch(Query),
    /// SQL text through the parser frontend.
    Sql(String),
}

impl Stmt {
    /// Run through the engine's own entry point (`Statement::run_on`
    /// on the default backend), as the untraced workloads do.
    pub fn run(&self, engine: &Arc<Engine>) -> Result<QueryResult> {
        self.run_on(engine, &engine.default_backend())
    }

    /// [`Stmt::run`] on a named backend.
    pub fn run_on(&self, engine: &Arc<Engine>, backend: &str) -> Result<QueryResult> {
        match self {
            Stmt::Tpch(q) => engine.query(*q).run_on(backend),
            Stmt::Sql(text) => engine.sql(text)?.run_on(backend),
        }
        .map(|out| out.into_rows())
    }

    /// The statement as text, for messages.
    pub fn text(&self) -> String {
        match self {
            Stmt::Tpch(q) => q.name(),
            Stmt::Sql(text) => text.clone(),
        }
    }

    /// The relational statement spec for serving front doors.
    pub fn spec(&self) -> voodoo_relational::StatementSpec {
        match self {
            Stmt::Tpch(q) => voodoo_relational::StatementSpec::tpch(*q),
            Stmt::Sql(text) => voodoo_relational::StatementSpec::sql(text.clone()),
        }
    }
}

/// Report name of a TPC-H query (`q1`, `q14`, …).
pub fn query_name(q: Query) -> String {
    format!("q{}", q.number())
}

/// Times `Backend::prepare` of the wrapped backend as a span; everything
/// else passes straight through, so cache keys are unchanged.
struct TimedBackend(Arc<dyn Backend>);

impl Backend for TimedBackend {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn cache_params(&self) -> String {
        self.0.cache_params()
    }

    fn prepare(&self, program: &Program, catalog: &Catalog) -> Result<Arc<dyn PreparedPlan>> {
        trace::timed("backend.prepare", || self.0.prepare(program, catalog))
    }
}

/// What one traced op measured besides its spans.
#[derive(Debug, Clone, Default)]
pub struct OpInfo {
    /// The workload op this was.
    pub op: u32,
    /// Statement report name.
    pub stmt: String,
    /// `Statement::run_on` wall time of the same statement, ns.
    pub run_on_ns: u64,
    /// Bytes of the columns the statement's programs reference.
    pub bytes: f64,
    /// Rows of the tables those programs reference.
    pub rows: f64,
    /// Serial (`Parallelism::Off`) execution of the same programs, ns.
    pub off_ns: u64,
    /// Interpreter execution of the same programs, ns.
    pub interp_ns: u64,
    /// Morsel pool counters of the traced execution.
    pub partitions: u64,
    /// Pool tasks submitted.
    pub pool_tasks: u64,
    /// Pool tasks stolen.
    pub steals: u64,
}

/// Drives statements through their stages on one engine.
pub struct Tracer {
    engine: Arc<Engine>,
    cache: ShardedPlanCache,
    cpu: TimedBackend,
    off: Arc<dyn Backend>,
    interp: Arc<dyn Backend>,
    side_cache: ShardedPlanCache,
    /// A table each statement is the first reader of after a write:
    /// both paths read it cold, and its merge is probed on its own.
    pub cold_table: Option<String>,
    /// One entry per traced op, in op order.
    pub ops: Vec<OpInfo>,
}

impl Tracer {
    /// A tracer over `engine`'s default backend, with a plan cache of
    /// the engine's default capacity.
    pub fn new(engine: &Arc<Engine>) -> Tracer {
        let cpu = engine
            .backend(&engine.default_backend())
            .expect("default backend registered");
        Tracer {
            engine: Arc::clone(engine),
            cache: ShardedPlanCache::new(),
            cpu: TimedBackend(cpu),
            off: Arc::new(CpuBackend::parallel(Parallelism::Off).with_optimize(true)),
            interp: engine.backend("interp").expect("interp backend registered"),
            side_cache: ShardedPlanCache::new(),
            cold_table: None,
            ops: Vec::new(),
        }
    }

    fn plan(&self, program: &Program, cat: &Catalog) -> Result<Arc<dyn PreparedPlan>> {
        trace::timed("backend.get_or_prepare", || {
            self.cache
                .get_or_prepare_named("cpu", &self.cpu, program, cat)
        })
    }

    /// One traced op: the staged execution under a `stmt` root span,
    /// then `Statement::run_on` of the same statement, then the side
    /// probes. Returns the staged result (the caller checks it) and
    /// whether the `run_on` result agreed with it.
    pub fn run(&mut self, op: u32, name: &str, stmt: &Stmt) -> Result<(QueryResult, bool)> {
        trace::set_op(op);
        let snap = self.engine.snapshot();
        let (fresh, probe) = match &self.cold_table {
            Some(table) => (
                Some(fresh_copy(&snap, table)),
                Some(fresh_copy(&snap, table)),
            ),
            None => (None, None),
        };
        let cat: &Catalog = fresh.as_ref().unwrap_or(&snap);
        // Alternate which path runs first, so neither always finds the
        // other's data already in the CPU caches.
        let shipped_first = op % 2 == 1;
        let mut shipped = None;
        let mut run_on_ns = 0;
        let mut shipped_run = || -> Result<()> {
            let t = Instant::now();
            shipped = Some(trace::timed("relational.run_on", || {
                stmt.run(&self.engine)
            })?);
            run_on_ns = t.elapsed().as_nanos() as u64;
            Ok(())
        };
        if shipped_first {
            shipped_run()?;
        }
        let (rows, programs, pool) = self.staged(stmt, cat)?;
        if !shipped_first {
            shipped_run()?;
        }

        let mut info = OpInfo {
            op,
            stmt: name.to_string(),
            run_on_ns,
            partitions: pool.partitions,
            pool_tasks: pool.pool_tasks,
            steals: pool.steals,
            ..OpInfo::default()
        };
        if let (Some(table), Some(probe)) = (&self.cold_table, &probe) {
            // The merge of base and append segments that the first read
            // of a version pays inside `compile.execute`, on a copy taken
            // before either path ran, so neither left it done.
            trace::timed("storage.load_vector", || probe.load_vector(table));
        }
        let _pool = voodoo_compile::pool::enter(self.engine.morsel_pool());
        for (program, cat) in &programs {
            let (bytes, rows) = footprint(program, cat);
            info.bytes += bytes;
            info.rows += rows;
            trace::timed("backend.plankey", || {
                PlanKey::named("cpu", &self.cpu, cat, program)
            });
            trace::timed("verify.analyze", || voodoo_verify::analyze(program, cat))?;
            info.off_ns += self.side_exec(&self.off, "probe.off_execute", program, cat)?;
            info.interp_ns += self.side_exec(&self.interp, "interp.execute", program, cat)?;
        }
        self.ops.push(info);
        Ok((rows.clone(), shipped.as_ref() == Some(&rows)))
    }

    /// Prepare `stmt`'s plans in the tracer's cache without recording
    /// anything, as the workload's cold pass does for the engine's.
    pub fn warm(&self, stmt: &Stmt) -> Result<()> {
        self.staged(stmt, &self.engine.snapshot()).map(|_| ())
    }

    fn side_exec(
        &self,
        backend: &Arc<dyn Backend>,
        span: &'static str,
        program: &Program,
        cat: &Catalog,
    ) -> Result<u64> {
        let plan =
            self.side_cache
                .get_or_prepare_named(backend.name(), &**backend, program, cat)?;
        let t = Instant::now();
        trace::timed(span, || plan.execute(cat))?;
        Ok(t.elapsed().as_nanos() as u64)
    }

    #[allow(clippy::type_complexity)]
    fn staged(
        &self,
        stmt: &Stmt,
        snap: &Catalog,
    ) -> Result<(
        QueryResult,
        Vec<(Program, Catalog)>,
        voodoo_compile::exec::StatementTrace,
    )> {
        let mut programs: Vec<(Program, Catalog)> = Vec::new();
        let _root = trace::span("stmt");
        let _pool = voodoo_compile::pool::enter(self.engine.morsel_pool());
        voodoo_compile::exec::statement_trace_begin();
        let result = match stmt {
            Stmt::Sql(text) => (|| {
                let parsed = trace::timed("sql.parse", || sql::parse(text))?;
                let lowered = trace::timed("sql.lower", || sql::lower(snap, &parsed))?;
                let plan = self.plan(&lowered.program, snap)?;
                let out = trace::timed("compile.execute", || plan.execute(snap))?;
                let rows = trace::timed("sql.extract", || sql::extract_rows(&lowered, &out));
                programs.push((lowered.program, snap.clone()));
                Ok(QueryResult::new(rows))
            })(),
            Stmt::Tpch(q) => trace::timed("queries.run_query", || {
                queries::run_query(snap, *q, &mut |p: &Program, c: &Catalog| {
                    let plan = self.plan(p, c)?;
                    let out = trace::timed("compile.execute", || plan.execute(c));
                    programs.push((p.clone(), c.clone()));
                    out
                })
            }),
        };
        let pool = voodoo_compile::exec::statement_trace_end();
        result.map(|rows| (rows, programs, pool))
    }
}

/// `snap` with table `name` replaced by a copy at the same version.
/// Taken before any read of the version, the copy carries no merged view
/// of it yet, so whoever reads the copy pays the merge as the first
/// reader — as `Statement::run_on` does on the engine's own snapshot.
fn fresh_copy(snap: &Catalog, name: &str) -> Catalog {
    let mut cat = snap.clone();
    if let Some(table) = snap.table(name) {
        let version = table.version;
        cat.insert_table_pinned(table.clone(), version);
    }
    cat
}

/// Bytes and rows a program's referenced columns span: for every table
/// column the program projects, compares, folds or gathers by, `rows ×
/// width`. An upper bound on what a kernel must stream (a gather reads
/// only the selected rows).
pub fn footprint(program: &Program, cat: &Catalog) -> (f64, f64) {
    let stmts = program.stmts();
    let mut origin: Vec<Option<&str>> = Vec::with_capacity(stmts.len());
    let mut cols: BTreeSet<(&str, String)> = BTreeSet::new();
    let mut tables: BTreeSet<&str> = BTreeSet::new();
    for st in stmts {
        let o = |v: &voodoo_core::VRef| origin.get(v.index()).copied().flatten();
        let mut uses: Vec<(Option<&str>, &voodoo_core::KeyPath)> = Vec::new();
        let own = match &st.op {
            Op::Load { name } => Some(name.as_str()),
            Op::Gather {
                source,
                positions,
                pos_kp,
            } => {
                uses.push((o(positions), pos_kp));
                o(source)
            }
            Op::Materialize { v, .. } | Op::Break { v, .. } => o(v),
            Op::Upsert { v, src, kp, .. } => {
                uses.push((o(src), kp));
                o(v)
            }
            Op::Project { v, kp, .. } => {
                uses.push((o(v), kp));
                None
            }
            Op::Binary {
                lhs,
                lhs_kp,
                rhs,
                rhs_kp,
                ..
            } => {
                uses.push((o(lhs), lhs_kp));
                uses.push((o(rhs), rhs_kp));
                None
            }
            Op::Zip {
                v1, kp1, v2, kp2, ..
            } => {
                uses.push((o(v1), kp1));
                uses.push((o(v2), kp2));
                None
            }
            Op::FoldSelect {
                v, fold_kp, sel_kp, ..
            } => {
                uses.push((o(v), sel_kp));
                uses.extend(fold_kp.iter().map(|k| (o(v), k)));
                None
            }
            Op::FoldAgg {
                v, fold_kp, val_kp, ..
            }
            | Op::FoldScan {
                v, fold_kp, val_kp, ..
            } => {
                uses.push((o(v), val_kp));
                uses.extend(fold_kp.iter().map(|k| (o(v), k)));
                None
            }
            Op::Partition { v, kp, .. } => {
                uses.push((o(v), kp));
                None
            }
            Op::Scatter {
                positions, pos_kp, ..
            } => {
                uses.push((o(positions), pos_kp));
                None
            }
            _ => None,
        };
        for (table, kp) in uses {
            if let (Some(t), Some(col)) = (table, kp.components().next()) {
                cols.insert((t, col.to_string()));
            }
        }
        if let Some(t) = own {
            tables.insert(t);
        }
        origin.push(own);
    }
    let mut bytes = 0.0;
    for (t, c) in &cols {
        if let Some(col) = cat.table(t).and_then(|tb| tb.column(c)) {
            bytes += (cat.table(t).map_or(0, |tb| tb.len) * col.ty().byte_width()) as f64;
        }
    }
    let rows = tables
        .iter()
        .filter_map(|t| cat.table(t).map(|tb| tb.len as f64))
        .sum();
    (bytes, rows)
}

/// The per-layer figures every traced workload reports, computed from
/// the recorded spans and the tracer's per-op info.
pub fn layer_metrics(spans: &[Span], ops: &[OpInfo]) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let selfs = trace::self_times(spans);
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;

    let by_name = trace::durations_by_name(spans);
    let med_us = |name: &str| {
        by_name.get(name).map_or(0.0, |d| {
            median(&d.iter().map(|&n| us(n)).collect::<Vec<_>>())
        })
    };
    out.insert(
        "storage.load_vector_ms".into(),
        med_us("storage.load_vector") / 1e3,
    );
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.lower_us", "sql.lower"),
        ("sql.extract_us", "sql.extract"),
        ("verify.analyze_us", "verify.analyze"),
        ("backend.plankey_us", "backend.plankey"),
        ("backend.prepare_us", "backend.prepare"),
    ] {
        out.insert(metric.into(), med_us(span));
    }

    // Children of each span; lookups with a prepare child were misses.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push(i);
        }
    }
    let hits: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.name == "backend.get_or_prepare"
                && !children[*i]
                    .iter()
                    .any(|&c| spans[c].name == "backend.prepare")
        })
        .map(|(_, s)| us(s.dur_ns()))
        .collect();
    out.insert("backend.cache_hit_us".into(), median(&hits));
    let plan_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "queries.run_query")
        .map(|(_, &n)| us(n))
        .collect();
    out.insert("queries.plan_us".into(), median(&plan_self));

    // Per op: root duration, its attributed children, kernel time.
    let mut root_ns: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut exec_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "stmt" && s.parent == NO_PARENT {
            root_ns.insert(s.op, (s.dur_ns(), s.dur_ns() - selfs[i]));
        }
        if s.name == "compile.execute" {
            *exec_ns.entry(s.op).or_default() += s.dur_ns();
        }
    }
    let mut glue = Vec::new();
    let mut unattributed = Vec::new();
    let mut overhead = Vec::new();
    let mut per_stmt_unattr: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut per_stmt_exec: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut per_stmt_interp: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut sum_exec, mut sum_off, mut sum_interp, mut sum_bytes, mut sum_rows) =
        (0u64, 0u64, 0u64, 0.0, 0.0);
    for info in ops {
        let op = info.op;
        let Some(&(root, attributed)) = root_ns.get(&op) else {
            continue;
        };
        let exec = exec_ns.get(&op).copied().unwrap_or(0);
        glue.push(us(info.run_on_ns) - us(attributed));
        let frac = (root - attributed) as f64 / root.max(1) as f64;
        unattributed.push(frac);
        per_stmt_unattr.entry(&info.stmt).or_default().push(frac);
        overhead.push((root as f64 - info.run_on_ns as f64) / info.run_on_ns.max(1) as f64);
        per_stmt_exec.entry(&info.stmt).or_default().push(ms(exec));
        per_stmt_interp
            .entry(&info.stmt)
            .or_default()
            .push(ms(info.interp_ns));
        sum_exec += exec;
        sum_off += info.off_ns;
        sum_interp += info.interp_ns;
        sum_bytes += info.bytes;
        sum_rows += info.rows;
    }
    out.insert("relational.glue_us".into(), median(&glue));
    out.insert("trace.unattributed_frac".into(), median(&unattributed));
    out.insert("trace.overhead_frac".into(), median(&overhead));
    for (stmt, xs) in &per_stmt_exec {
        out.insert(format!("compile.execute_ms.{stmt}"), median(xs));
    }
    for (stmt, xs) in &per_stmt_interp {
        out.insert(format!("interp.execute_ms.{stmt}"), median(xs));
    }
    let sum_exec_f = sum_exec.max(1) as f64;
    out.insert(
        "compile.ns_per_row".into(),
        sum_exec as f64 / sum_rows.max(1.0),
    );
    out.insert("compile.gbps".into(), sum_bytes / sum_exec_f);
    out.insert(
        "compile.parallel_speedup".into(),
        sum_off as f64 / sum_exec_f,
    );
    out.insert(
        "compile.vs_interp".into(),
        sum_exec as f64 / sum_interp.max(1) as f64,
    );
    let n = ops.len().max(1) as f64;
    let per_op = |f: fn(&OpInfo) -> u64| ops.iter().map(f).sum::<u64>() as f64 / n;
    out.insert(
        "compile.pool_tasks_per_stmt".into(),
        per_op(|o| o.pool_tasks),
    );
    out.insert("compile.steals_per_stmt".into(), per_op(|o| o.steals));
    out.insert(
        "compile.partitions_per_stmt".into(),
        per_op(|o| o.partitions),
    );

    // The trace self-check: each statement's spans must account for its
    // root within the tolerance (judged on the statement's median, so
    // one preempted execution cannot fail a run).
    let violations = per_stmt_unattr
        .iter()
        .filter_map(|(stmt, xs)| {
            let m = median(xs);
            (m > UNATTRIBUTED_TOLERANCE).then(|| {
                format!(
                    "{stmt}: spans leave {:.1}% of the root unattributed",
                    m * 100.0
                )
            })
        })
        .collect();
    (out, violations)
}
