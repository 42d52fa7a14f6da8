//! Execution of compiled plans on the CPU.
//!
//! Fragments run their work items data-parallel (each morsel producing
//! its own output segments — no synchronization inside a kernel,
//! mirroring the ε padding argument of §2.2). Bulk units implement
//! `Scatter`, `Partition` and the two fused patterns (virtual-scatter
//! group aggregation, vectorized selection).
//!
//! **One morsel driver.** Every hot kernel — fragments (selection
//! emission, folds, elementwise maps, per-run folds), vectorized
//! selection, the fused grouped aggregation and the expression side of
//! scatters (the build side of joins) — has exactly one per-range
//! function and one merge. A single layout decision
//! (`Executor::layout`) cuts the kernel's domain into
//! [`voodoo_storage::Partitioning`] morsels: over-decomposed by
//! [`voodoo_storage::DEFAULT_STEAL_GRAIN`] for the **persistent
//! work-stealing pool** ([`crate::pool`] — no per-unit thread spawns
//! anywhere in this module) when [`ExecOptions::parallelism`] resolves
//! to more than one thread, the domain is large enough and the
//! analyzer's verdict allows it; one morsel otherwise. Serial execution
//! *is* the one-morsel case, run inline on the calling thread. The
//! driver returns partials **in morsel order** and each merge folds
//! them left to right, so results are bit-identical for any morsel
//! count (the interpreter remains the independent oracle) no matter
//! which worker ran which morsel. Floating-point `Sum` folds and prefix
//! scans stay at one morsel: float addition is not associative, and
//! bit-identity outranks speedup here.
//!
//! The executor exposes the paper's physical tuning flags (§4): predicated
//! vs. branching position emission, and event counting for the GPU model.
//! Serving layers bound intra-statement fan-out with a per-thread
//! [`set_parallelism_budget`] — the *lease* a serve worker takes on the
//! shared pool — so statement morsels and an admission worker pool
//! compose to the machine instead of oversubscribing it.

use std::cell::Cell;
use std::sync::Arc;

use voodoo_core::{
    AggKind, BinOp, Column, KeyPath, Op, Result, ScalarType, ScalarValue, StructuredVector, VRef,
    VoodooError,
};
use voodoo_interp::ExecOutput;
use voodoo_storage::{Catalog, Morsel, Partitioning, DEFAULT_STEAL_GRAIN};

use crate::expr::{Env, Expr};
use crate::plan::{
    Action, Bulk, CompiledProgram, Fragment, GroupFold, Layout, RunStructure, Unit, VsFold,
};
use crate::profile::EventProfile;
use crate::repr::MatVec;

/// One morsel's partial grouped aggregation: bucket counts, the single
/// key seen per bucket, per-fold accumulators.
struct GroupPartial {
    counts: Vec<usize>,
    first_key: Vec<Option<Option<i64>>>,
    accs: Vec<Vec<Option<ScalarValue>>>,
    mismatch: bool,
}

/// Upper bound on what [`Parallelism::Auto`] resolves to: past this,
/// morsel merge overhead beats marginal cores for these kernel sizes.
pub const MAX_AUTO_THREADS: usize = 8;

/// Domains below this many elements run as one morsel by default: a
/// pool hand-off costs more than the scan. Override with
/// [`ExecOptions::min_parallel_domain`] (tests pin it to 1 to exercise
/// partition boundaries on tiny inputs).
pub const DEFAULT_MIN_PARALLEL_DOMAIN: usize = 4096;

thread_local! {
    /// Per-thread cap on intra-statement worker fan-out (serving layers
    /// divide the machine between admission workers and morsel workers).
    static PAR_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// Scheduling accounting for the statement executing on this
    /// thread. `None` outside a trace.
    static STATEMENT_TRACE: Cell<Option<StatementTrace>> = const { Cell::new(None) };
}

/// Cap intra-statement parallelism for work executed on this thread
/// (`None` lifts the cap). Returns the previous budget so callers can
/// scope and restore. A serving worker pool of `W` workers on `C` cores
/// typically sets `C / W` so statement fan-out and the pool compose to
/// the machine, not to `W × C`.
pub fn set_parallelism_budget(budget: Option<usize>) -> Option<usize> {
    PAR_BUDGET.with(|b| b.replace(budget))
}

/// The current thread's intra-statement parallelism cap, if any.
pub fn parallelism_budget() -> Option<usize> {
    PAR_BUDGET.with(|b| b.get())
}

/// Per-statement scheduling accounting, recorded between
/// [`statement_trace_begin`] and [`statement_trace_end`] on the thread
/// driving the statement (engines bracket every execution with the pair
/// to feed their serving metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementTrace {
    /// Maximum morsel fan-out any execution unit used (1 = fully
    /// serial).
    pub partitions: u64,
    /// Morsel tasks this statement submitted to the persistent pool.
    pub pool_tasks: u64,
    /// Of those, tasks executed by a pool worker other than their home
    /// worker — the work-stealing rebalances this statement benefited
    /// from.
    pub steals: u64,
}

impl Default for StatementTrace {
    fn default() -> Self {
        StatementTrace {
            partitions: 1,
            pool_tasks: 0,
            steals: 0,
        }
    }
}

/// Start recording morsel fan-out, pool tasks and steals on this thread.
pub fn statement_trace_begin() {
    STATEMENT_TRACE.with(|t| t.set(Some(StatementTrace::default())));
}

/// Stop recording and return what the statement used since
/// [`statement_trace_begin`] (the all-serial default is also returned
/// when no trace was open).
pub fn statement_trace_end() -> StatementTrace {
    STATEMENT_TRACE.with(|t| t.take()).unwrap_or_default()
}

fn note_partitions(n: usize) {
    STATEMENT_TRACE.with(|t| {
        if let Some(mut cur) = t.get() {
            cur.partitions = cur.partitions.max(n as u64);
            t.set(Some(cur));
        }
    });
}

/// Credit one pool batch (its task count and how many of them were
/// stolen) to the statement tracing on this thread. Called by
/// [`crate::pool::MorselPool::run`] after its batch latch clears.
pub(crate) fn note_pool_batch(tasks: u64, steals: u64) {
    STATEMENT_TRACE.with(|t| {
        if let Some(mut cur) = t.get() {
            cur.pool_tasks += tasks;
            cur.steals += steals;
            t.set(Some(cur));
        }
    });
}

/// How a statement distributes across cores — the engine-facing knob.
///
/// The same prepared plan serves all three settings: parallelism is
/// resolved at execution time (per the paper's thesis that parallelism is
/// layout-controlled, not program-controlled), capped by the executing
/// thread's [`set_parallelism_budget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Strictly serial execution (the default; also the test oracle
    /// configuration for the compiled backend).
    #[default]
    Off,
    /// Exactly `n` morsel workers (clamped to ≥ 1, then by the budget).
    Fixed(usize),
    /// One worker per available core, capped at [`MAX_AUTO_THREADS`] and
    /// by the budget.
    Auto,
}

impl Parallelism {
    /// The worker count this setting resolves to on this thread, after
    /// applying the machine size and the thread's parallelism budget.
    pub fn effective(self) -> usize {
        let base = match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS),
        };
        match parallelism_budget() {
            Some(budget) => base.min(budget.max(1)),
            None => base,
        }
    }
}

/// Physical execution options (the paper's §4 "optimization flags").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Emit selection positions branch-free (cursor arithmetic) instead of
    /// with an `if` — the predication flag.
    pub predicated_select: bool,
    /// Count architectural events (for the GPU cost model / ablations).
    pub count_events: bool,
    /// Intra-statement morsel parallelism for fragment and bulk kernels.
    pub parallelism: Parallelism,
    /// Smallest domain worth fanning out
    /// ([`DEFAULT_MIN_PARALLEL_DOMAIN`]); smaller domains run as one
    /// morsel.
    pub min_parallel_domain: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            predicated_select: false,
            count_events: false,
            parallelism: Parallelism::Off,
            min_parallel_domain: DEFAULT_MIN_PARALLEL_DOMAIN,
        }
    }
}

impl ExecOptions {
    /// The morsel worker count in effect on this thread (resolves
    /// [`Parallelism`] against the machine and the thread budget).
    pub fn effective_threads(&self) -> usize {
        self.parallelism.effective()
    }
}

/// Executes compiled programs.
pub struct Executor {
    /// Execution options.
    pub opts: ExecOptions,
}

impl Executor {
    /// Executor with explicit options.
    pub fn new(opts: ExecOptions) -> Executor {
        Executor { opts }
    }

    /// Single-threaded executor with default flags.
    pub fn single_threaded() -> Executor {
        Executor::new(ExecOptions::default())
    }

    /// Multithreaded executor (a fixed morsel-worker count).
    pub fn with_threads(threads: usize) -> Executor {
        Executor::new(ExecOptions {
            parallelism: Parallelism::Fixed(threads.max(1)),
            ..ExecOptions::default()
        })
    }

    /// Run a compiled program against a catalog.
    pub fn run(
        &self,
        cp: &CompiledProgram,
        catalog: &Catalog,
    ) -> Result<(ExecOutput, EventProfile)> {
        let (out, profile, _) = self.run_with_unit_profiles(cp, catalog)?;
        Ok((out, profile))
    }

    /// Run and additionally report one event profile per execution unit
    /// (the input to cost models, which price units by their individual
    /// extents).
    pub fn run_with_unit_profiles(
        &self,
        cp: &CompiledProgram,
        catalog: &Catalog,
    ) -> Result<(ExecOutput, EventProfile, Vec<EventProfile>)> {
        let n = cp.program.len();
        let mut values: Vec<Option<Arc<MatVec>>> = vec![None; n];
        // Materialize sources.
        for (i, stmt) in cp.program.stmts().iter().enumerate() {
            if let Op::Load { name } = &stmt.op {
                let v = catalog
                    .load_vector(name)
                    .ok_or_else(|| VoodooError::UnknownTable(name.clone()))?;
                values[i] = Some(Arc::new(MatVec::Full(v)));
            }
        }
        let mut profile = EventProfile::default();
        let mut unit_profiles = Vec::with_capacity(cp.units.len());
        for unit in &cp.units {
            let mut up = EventProfile::default();
            match unit {
                Unit::Fragment(f) => self.exec_fragment(cp, f, &mut values, &mut up)?,
                Unit::Bulk(b) => self.exec_bulk(cp, b, &mut values, &mut up)?,
            }
            up.barriers += 1;
            profile.merge(&up);
            unit_profiles.push(up);
        }
        // Collect returns and persists through alias resolution.
        let mut returns = Vec::new();
        for r in cp.program.returns() {
            returns.push(self.expanded(cp, &values, *r)?);
        }
        let mut persisted = Vec::new();
        for stmt in cp.program.stmts() {
            if let Op::Persist { name, v } = &stmt.op {
                persisted.push((name.clone(), self.expanded(cp, &values, *v)?));
            }
        }
        Ok((ExecOutput { returns, persisted }, profile, unit_profiles))
    }

    fn expanded(
        &self,
        cp: &CompiledProgram,
        values: &[Option<Arc<MatVec>>],
        v: VRef,
    ) -> Result<StructuredVector> {
        let r = cp.resolve[v.index()];
        values[r.index()]
            .as_ref()
            .map(|m| m.expand())
            .ok_or_else(|| VoodooError::Backend(format!("result {r} was never materialized")))
    }

    // ------------------------------------------------------------------
    // The morsel driver
    // ------------------------------------------------------------------

    /// The single layout decision of every morsel-driven kernel: cut
    /// `units` (elements, runs or chunks — whatever the kernel never
    /// splits) into stealing-grain morsels when more than one thread is
    /// in effect, the kernel's `elements` reach
    /// [`ExecOptions::min_parallel_domain`], and the analyzer's verdict
    /// (`parallel_ok`) lets the partials merge bit-identically; into one
    /// morsel otherwise (zero for an empty domain).
    fn layout(&self, units: usize, elements: usize, parallel_ok: bool) -> Partitioning {
        let threads = self.opts.effective_threads();
        if threads > 1 && parallel_ok && elements >= self.opts.min_parallel_domain.max(2) {
            Partitioning::for_stealing(units, threads, DEFAULT_STEAL_GRAIN)
        } else {
            Partitioning::for_len(units, 1)
        }
    }

    /// A fresh expression environment under these options.
    fn env<'a>(&self, cp: &CompiledProgram, sources: &'a [Option<Arc<MatVec>>]) -> Env<'a> {
        Env::new(
            sources,
            self.opts.count_events,
            cp.branch_sites,
            cp.gather_sites,
        )
        .with_predication(self.opts.predicated_select)
    }

    /// The morsel driver: run `body` once per morsel of `parts`, each
    /// with its own environment, and return the partials in morsel
    /// order, merging each morsel's event profile into `profile`. A
    /// single morsel runs inline on the calling thread; more go to the
    /// current thread's persistent pool ([`crate::pool::current`]).
    fn drive<T, F>(
        &self,
        cp: &CompiledProgram,
        sources: &[Option<Arc<MatVec>>],
        parts: &Partitioning,
        profile: &mut EventProfile,
        body: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Morsel, &mut Env<'_>) -> T + Sync,
    {
        let task = |m: Morsel| {
            let mut env = self.env(cp, sources);
            let out = body(m, &mut env);
            (out, env.profile)
        };
        let results: Vec<(T, EventProfile)> = if parts.count() <= 1 {
            parts.morsels().iter().map(|&m| task(m)).collect()
        } else {
            note_partitions(parts.count());
            let task = &task;
            crate::pool::current().run(parts.morsels().iter().map(|&m| move || task(m)).collect())
        };
        results
            .into_iter()
            .map(|(out, p)| {
                profile.merge(&p);
                out
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Fragments
    // ------------------------------------------------------------------

    /// Execute a fragment as morsels of whole units and merge them in
    /// morsel order. Merge rules per output:
    /// * a global-run `FoldAggAct` — combine the per-morsel accumulators
    ///   left to right (only folds the analyzer proved associative ever
    ///   see more than one morsel, so the regrouping is exact);
    /// * a global-run `SelectEmit` — concatenate each morsel's compacted
    ///   position prefix (positions are emitted in ascending order within
    ///   a morsel, so the concatenation is exactly the serial ordering),
    ///   ε-padding the tail — the §2.2 padding argument is what makes
    ///   the morsels independent;
    /// * everything else — stitch the morsel segments by offset.
    fn exec_fragment(
        &self,
        cp: &CompiledProgram,
        frag: &Fragment,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        profile.work_items += frag.extent as u64;
        profile.elements += frag.domain as u64;
        // Parallelism a device can actually exploit: prefix scans are
        // order-dependent across the whole run (parallel only across
        // runs); pure folds tree-reduce with 1024-element leaves; dynamic
        // runs are sequential. Cursor-based position emission parallelizes
        // across work-group chunks even within a single run — the Figure 9
        // execution: each group keeps a local cursor and writes its padded
        // output region, "without the need for a global barrier" (§3.1.1
        // case c; the ε padding is what buys the independence).
        let has_scan = frag
            .actions
            .iter()
            .any(|a| matches!(a, Action::FoldScanAct { .. }));
        profile.max_par = match &frag.run {
            RunStructure::Dynamic(_) => 1,
            _ if has_scan => frag.extent as u64,
            RunStructure::Map | RunStructure::Uniform(_) => frag.extent as u64,
            RunStructure::Single => (frag.domain as u64 / 1024).max(1),
        };
        let domain = frag.domain;
        let single = matches!(frag.run, RunStructure::Single);
        // The morsel unit: whole runs of a Map/Uniform structure (never
        // split, so every action is safe to cut between runs), elements
        // of the global run (safe when every fused action merges across
        // morsels — a verified program property: the analyzer classified
        // each statement at prepare), and the whole domain of a dynamic
        // run.
        let (unit_len, parallel_ok) = match &frag.run {
            RunStructure::Map => (1, true),
            RunStructure::Uniform(l) => (*l, true),
            RunStructure::Single => (
                1,
                frag.actions
                    .iter()
                    .all(|a| cp.action_verdict(frag, a).morsel_mergeable()),
            ),
            RunStructure::Dynamic(_) => (domain.max(1), false),
        };
        let parts = self.layout(domain.div_ceil(unit_len), domain, parallel_ok);
        let partials = self.drive(cp, values, &parts, profile, |m, env| {
            let range = (m.start * unit_len, (m.end * unit_len).min(domain));
            self.run_fragment_range(frag, range, env)
        });

        let run_len = match frag.run {
            RunStructure::Uniform(l) => l,
            RunStructure::Map => 1,
            _ => domain.max(1),
        };
        for (oi, spec) in frag.outputs.iter().enumerate() {
            let full_len = full_len_of(spec.layout, domain, run_len);
            let mut col = Column::empties(spec.ty, full_len);
            let fold_action = frag.actions.iter().enumerate().find_map(|(ai, a)| match a {
                Action::FoldAggAct { out, agg, .. } if single && *out == oi => Some((ai, *agg)),
                _ => None,
            });
            let is_select = single
                && frag
                    .actions
                    .iter()
                    .any(|a| matches!(a, Action::SelectEmit { out, .. } if *out == oi));
            if let Some((ai, agg)) = fold_action {
                let mut acc: Option<ScalarValue> = None;
                for (_, accs) in &partials {
                    if let Some(v) = accs[ai] {
                        acc = Some(match acc {
                            None => v,
                            Some(a) => combine(agg, a, v),
                        });
                    }
                }
                if let Some(v) = acc {
                    col.set(0, v);
                }
            } else if is_select {
                let mut off = 0usize;
                for (segs, _) in &partials {
                    let seg = &segs[oi];
                    for i in 0..seg.len() {
                        match seg.get(i) {
                            Some(v) => {
                                col.set(off, v);
                                off += 1;
                            }
                            // Positions are emitted as a compact prefix;
                            // the first ε ends this morsel's output.
                            None => break,
                        }
                    }
                }
            } else {
                let mut off = 0usize;
                for (segs, _) in &partials {
                    let seg = &segs[oi];
                    for i in 0..seg.len() {
                        match seg.get(i) {
                            Some(v) => col.set(off + i, v),
                            None => col.clear(off + i),
                        }
                    }
                    off += seg.len();
                }
            }
            if self.opts.count_events {
                profile.write_bytes += (full_len * spec.ty.byte_width()) as u64;
            }
            // Attach the column to (or create) its statement's vector,
            // recording the morsel fence posts (in elements) a Full
            // output was produced across — the §2.3 layout metadata.
            let existing = values[spec.stmt.index()].take();
            let mut sv = match existing {
                Some(m) => m.storage().clone(),
                None => StructuredVector::with_len(full_len),
            };
            sv.insert(spec.kp.clone(), col);
            if parts.count() > 1 && matches!(spec.layout, Layout::Full) {
                let bounds = parts.boundaries().into_iter();
                sv.set_partition_bounds(bounds.map(|b| (b * unit_len).min(domain)).collect());
            }
            let wrapped = match spec.layout {
                Layout::Full => MatVec::Full(sv),
                Layout::Dense => MatVec::FoldDense {
                    values: sv,
                    run_len,
                    orig_len: domain,
                },
            };
            values[spec.stmt.index()] = Some(Arc::new(wrapped));
        }
        Ok(())
    }

    /// Execute one morsel `[s, e)` of a fragment (whole units, in
    /// elements), producing its output segments: a `Full` segment per
    /// element, a `Dense` slot per complete run. A global run is cut at
    /// the morsel itself, and its fold partials come back as the
    /// accumulators for the caller's merge.
    fn run_fragment_range(
        &self,
        frag: &Fragment,
        (s, e): (usize, usize),
        env: &mut Env<'_>,
    ) -> (Vec<Column>, Vec<Option<ScalarValue>>) {
        let run_len = match frag.run {
            RunStructure::Uniform(l) => l,
            RunStructure::Map => 1,
            _ => e - s,
        };
        let single = matches!(frag.run, RunStructure::Single);
        let mut segs: Vec<Column> = frag
            .outputs
            .iter()
            .map(|spec| match spec.layout {
                Layout::Full => Column::empties(spec.ty, e - s),
                // Global-run fold results travel in the accumulators.
                Layout::Dense if single => Column::empties(spec.ty, 0),
                Layout::Dense => Column::empties(spec.ty, (e - s).div_ceil(run_len)),
            })
            .collect();
        let mut accs: Vec<Option<ScalarValue>> = vec![None; frag.actions.len()];
        let mut cursors: Vec<usize> = vec![s; frag.actions.len()];

        if let RunStructure::Dynamic(ctrl) = &frag.run {
            let mut run_start = s;
            let mut current: Option<ScalarValue> = None;
            let flush = |segs: &mut Vec<Column>,
                         accs: &mut Vec<Option<ScalarValue>>,
                         run_start: usize,
                         actions: &[Action]| {
                for (ai, action) in actions.iter().enumerate() {
                    if let Action::FoldAggAct { out, .. } = action {
                        if let Some(v) = accs[ai] {
                            segs[*out].set(run_start - s, v);
                        }
                        accs[ai] = None;
                    }
                }
            };
            for i in s..e {
                let cv = ctrl.eval(i, env);
                if i == s {
                    current = cv;
                } else if cv != current {
                    flush(&mut segs, &mut accs, run_start, &frag.actions);
                    run_start = i;
                    current = cv;
                    cursors.fill(i);
                }
                self.step(frag, i, s, &mut segs, &mut accs, &mut cursors, env);
            }
            if e > s {
                flush(&mut segs, &mut accs, run_start, &frag.actions);
            }
            return (segs, accs);
        }

        for (slot, rs) in (s..e).step_by(run_len.max(1)).enumerate() {
            let re = (rs + run_len).min(e);
            accs.fill(None);
            cursors.fill(rs);
            for i in rs..re {
                self.step(frag, i, s, &mut segs, &mut accs, &mut cursors, env);
            }
            // Flush per-run folds at their run slot, fix predicated tails.
            for (ai, action) in frag.actions.iter().enumerate() {
                match action {
                    Action::FoldAggAct { out, .. } if !single => {
                        if let Some(v) = accs[ai] {
                            segs[*out].set(slot, v);
                        }
                    }
                    Action::SelectEmit { out, .. }
                        if self.opts.predicated_select && cursors[ai] < re =>
                    {
                        segs[*out].clear(cursors[ai] - s);
                    }
                    _ => {}
                }
            }
        }
        (segs, accs)
    }

    /// Process one element against every action of the fragment.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        frag: &Fragment,
        i: usize,
        elem_base: usize,
        segs: &mut [Column],
        accs: &mut [Option<ScalarValue>],
        cursors: &mut [usize],
        env: &mut Env<'_>,
    ) {
        for (ai, action) in frag.actions.iter().enumerate() {
            match action {
                Action::Write { out, expr } => {
                    if let Some(v) = expr.eval(i, env) {
                        segs[*out].set(i - elem_base, v);
                    }
                }
                Action::FoldAggAct {
                    agg, expr, out_ty, ..
                } => {
                    if let Some(v) = expr.eval(i, env) {
                        let v = v.cast(*out_ty);
                        accs[ai] = Some(match accs[ai] {
                            None => v,
                            Some(a) => combine(*agg, a, v),
                        });
                        count_acc(env, *out_ty);
                    }
                }
                Action::FoldScanAct { out, expr, out_ty } => {
                    if let Some(v) = expr.eval(i, env) {
                        let v = v.cast(*out_ty);
                        let next = match accs[ai] {
                            None => v,
                            Some(a) => combine(AggKind::Sum, a, v),
                        };
                        accs[ai] = Some(next);
                        segs[*out].set(i - elem_base, next);
                        count_acc(env, *out_ty);
                    }
                }
                Action::SelectEmit { out, sel, site } => {
                    let taken = sel.eval(i, env).map(|v| v.is_truthy()).unwrap_or(false);
                    if self.opts.predicated_select {
                        // Branch-free cursor arithmetic (Ross-style [28]):
                        // unconditional write, cursor advances by the
                        // predicate outcome.
                        segs[*out].set(cursors[ai] - elem_base, ScalarValue::I64(i as i64));
                        cursors[ai] += taken as usize;
                        if env.counting {
                            env.profile.int_ops += 1;
                            env.profile.write_bytes += 8;
                        }
                    } else {
                        env.count_branch(*site, taken);
                        if taken {
                            segs[*out].set(cursors[ai] - elem_base, ScalarValue::I64(i as i64));
                            cursors[ai] += 1;
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk units
    // ------------------------------------------------------------------

    fn exec_bulk(
        &self,
        cp: &CompiledProgram,
        bulk: &Bulk,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        match bulk {
            Bulk::ScatterOp {
                stmt,
                domain,
                out_len,
                cols,
                pos,
            } => {
                // The analyzer classified scatters as SerialApply: the
                // position and value expressions (the gather-heavy build
                // side of joins) evaluate per morsel, and the writes land
                // in morsel order — the serial last-write-wins semantics
                // bit for bit.
                let parallel_ok = cp.verdict(*stmt).eval_parallel_apply_serial();
                let parts = self.layout(*domain, *domain, parallel_ok);
                let partials = self.drive(cp, values, &parts, profile, |m, env| {
                    scatter_eval_range(cols, pos, *out_len, m, env)
                });
                let mut out_cols: Vec<Column> = cols
                    .iter()
                    .map(|(_, ty, _)| Column::empties(*ty, *out_len))
                    .collect();
                for (hits, vals) in &partials {
                    for (k, &p) in hits.iter().enumerate() {
                        for (ci, vcol) in vals.iter().enumerate() {
                            match vcol.get(k) {
                                Some(v) => out_cols[ci].set(p, v),
                                None => out_cols[ci].clear(p),
                            }
                        }
                    }
                }
                profile.work_items += *domain as u64;
                profile.elements += *domain as u64;
                profile.max_par = (*domain as u64 / 1024).max(1);
                let mut sv = StructuredVector::with_len(*out_len);
                for ((kp, _, _), col) in cols.iter().zip(out_cols) {
                    sv.insert(kp.clone(), col);
                }
                values[stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
                Ok(())
            }
            Bulk::PartitionOp {
                stmt,
                domain,
                out_kp,
                key,
                pivot,
                pivot_len,
            } => {
                let mut env = self.env(cp, values);
                let piv = eval_pivots(pivot, *pivot_len, &mut env);
                let keys: Vec<Option<i64>> = (0..*domain)
                    .map(|i| key.eval(i, &mut env).map(to_key))
                    .collect();
                let positions = counting_sort_positions(&keys, &piv);
                profile.merge(&env.profile);
                profile.work_items += 1;
                profile.elements += *domain as u64;
                profile.max_par = (*domain as u64 / 1024).max(1);
                let mut col = Column::empties(ScalarType::I64, *domain);
                for (i, p) in positions.iter().enumerate() {
                    col.set(i, ScalarValue::I64(*p as i64));
                }
                let mut sv = StructuredVector::with_len(*domain);
                sv.insert(out_kp.clone(), col);
                values[stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
                Ok(())
            }
            Bulk::GroupAgg { .. } => self.exec_group_agg(cp, bulk, values, profile),
            Bulk::VecSelect {
                select: _,
                domain,
                chunk,
                sel,
                site,
                folds,
            } => {
                let n_chunks = domain.div_ceil(*chunk);
                // Chunks are already independent (each fills its own
                // cache-resident position buffer), so the morsel unit is
                // a run of whole chunks — provided every absorbed fold's
                // partials combine associatively per the analyzer's
                // verdict (float sums do not and stay at one morsel).
                let parallel_ok = folds
                    .iter()
                    .all(|f| cp.verdict(f.stmt).combines_associatively());
                let parts = self.layout(n_chunks, *domain, parallel_ok);
                let partials = self.drive(cp, values, &parts, profile, |m, env| {
                    self.vec_select_chunks(*domain, *chunk, sel, *site, folds, m, env)
                });
                let mut accs: Vec<Option<ScalarValue>> = vec![None; folds.len()];
                for partial in partials {
                    for (fi, v) in partial.into_iter().enumerate() {
                        if let Some(v) = v {
                            accs[fi] = Some(match accs[fi] {
                                None => v,
                                Some(a) => combine(folds[fi].agg, a, v),
                            });
                        }
                    }
                }
                profile.work_items += n_chunks as u64;
                profile.elements += *domain as u64;
                // Chunk-local buffers fill sequentially: parallelism is
                // capped at the number of chunks (paper §5.3).
                profile.max_par = n_chunks as u64;
                for (fi, f) in folds.iter().enumerate() {
                    let mut col = Column::empties(f.out_ty, 1);
                    if let Some(v) = accs[fi] {
                        col.set(0, v);
                    }
                    let mut sv = StructuredVector::with_len(1);
                    sv.insert(f.out_kp.clone(), col);
                    values[f.stmt.index()] = Some(Arc::new(MatVec::FoldDense {
                        values: sv,
                        run_len: (*domain).max(1),
                        orig_len: *domain,
                    }));
                }
                Ok(())
            }
        }
    }

    /// One morsel of whole chunks of a vectorized selection: loop 1 emits
    /// qualifying positions into the chunk-local buffer, loop 2 resolves
    /// them and accumulates.
    #[allow(clippy::too_many_arguments)]
    fn vec_select_chunks(
        &self,
        domain: usize,
        chunk: usize,
        sel: &Expr,
        site: usize,
        folds: &[VsFold],
        chunks: Morsel,
        env: &mut Env<'_>,
    ) -> Vec<Option<ScalarValue>> {
        let srcs: Vec<Arc<MatVec>> = folds
            .iter()
            .map(|f| env.sources[f.src.index()].clone().expect("vs source"))
            .collect();
        let mut accs: Vec<Option<ScalarValue>> = vec![None; folds.len()];
        let mut last_pos: Vec<i64> = vec![i64::MIN / 2; folds.len()];
        let mut posbuf: Vec<usize> = vec![0; chunk];
        for ci in chunks.start..chunks.end {
            let c0 = ci * chunk;
            let c1 = (c0 + chunk).min(domain);
            // Loop 1: emit qualifying positions into the chunk-local
            // buffer (cache resident).
            let mut count = 0usize;
            if self.opts.predicated_select {
                for i in c0..c1 {
                    let t = sel.eval(i, env).map(|v| v.is_truthy()).unwrap_or(false);
                    posbuf[count] = i;
                    count += t as usize;
                    if env.counting {
                        env.profile.int_ops += 1;
                        env.profile.write_bytes += 8;
                    }
                }
            } else {
                for i in c0..c1 {
                    let t = sel.eval(i, env).map(|v| v.is_truthy()).unwrap_or(false);
                    env.count_branch(site, t);
                    if t {
                        posbuf[count] = i;
                        count += 1;
                        if env.counting {
                            env.profile.write_bytes += 8;
                        }
                    }
                }
            }
            // Loop 2: resolve positions and accumulate.
            for &p in &posbuf[..count] {
                for (fi, f) in folds.iter().enumerate() {
                    if let Some(v) = srcs[fi].get(f.src_col, p) {
                        let v = v.cast(f.out_ty);
                        accs[fi] = Some(match accs[fi] {
                            None => v,
                            Some(a) => combine(f.agg, a, v),
                        });
                        if env.counting {
                            // Monotone positions: near-previous is a
                            // cache hit, jumps are random accesses.
                            let lastp = last_pos[fi];
                            last_pos[fi] = p as i64;
                            if (p as i64 - lastp).unsigned_abs() <= 8 {
                                env.profile.seq_read_bytes += 8;
                            } else {
                                env.profile.rand_reads += 1;
                            }
                        }
                        count_acc(env, f.out_ty);
                    }
                }
            }
        }
        accs
    }

    /// Virtual scatter (§3.1.3): one accumulation pass over dense buckets,
    /// with a runtime guard that each bucket holds a single key run (else
    /// it falls back to the generic scatter + dynamic fold). The pass runs
    /// as per-morsel partial aggregations (partial per-partition tables)
    /// merged in morsel order; a bucket whose key disagrees *across*
    /// morsels is a mismatch too.
    fn exec_group_agg(
        &self,
        cp: &CompiledProgram,
        bulk: &Bulk,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        let Bulk::GroupAgg {
            domain,
            out_len,
            key,
            pivot,
            pivot_len,
            folds,
            ..
        } = bulk
        else {
            unreachable!()
        };
        let piv = {
            let mut env = self.env(cp, values);
            let piv = eval_pivots(pivot, *pivot_len, &mut env);
            profile.merge(&env.profile);
            piv
        };
        let nb = piv.len().max(1);
        let mut counts = vec![0usize; nb];
        let mut first_key: Vec<Option<Option<i64>>> = vec![None; nb];
        let mut accs: Vec<Vec<Option<ScalarValue>>> =
            folds.iter().map(|_| vec![None; nb]).collect();
        let mut mismatch = *out_len != *domain;
        if !mismatch {
            // Cross-morsel combination of per-bucket accumulators is only
            // bit-identical when the analyzer proved every fold
            // associative (integer Sum/Min/Max; float folds stay at one
            // morsel).
            let parallel_ok = folds
                .iter()
                .all(|f| cp.verdict(f.stmt).combines_associatively());
            let parts = self.layout(*domain, *domain, parallel_ok);
            let partials = self.drive(cp, values, &parts, profile, |m, env| {
                group_agg_range(key, folds, &piv, nb, m, env)
            });
            for p in partials {
                mismatch |= p.mismatch;
                if mismatch {
                    break;
                }
                for b in 0..nb {
                    if let Some(kv) = p.first_key[b] {
                        match &first_key[b] {
                            None => first_key[b] = Some(kv),
                            Some(prev) if *prev != kv => mismatch = true,
                            _ => {}
                        }
                    }
                    counts[b] += p.counts[b];
                }
                for (fi, partial_accs) in p.accs.into_iter().enumerate() {
                    for (b, v) in partial_accs.into_iter().enumerate() {
                        if let Some(v) = v {
                            accs[fi][b] = Some(match accs[fi][b] {
                                None => v,
                                Some(a) => combine(folds[fi].agg, a, v),
                            });
                        }
                    }
                }
                if mismatch {
                    break;
                }
            }
        }
        profile.work_items += *domain as u64;
        profile.elements += *domain as u64;
        profile.max_par = (*domain as u64 / 1024).max(1);
        if mismatch {
            return self.exec_group_agg_generic(cp, bulk, values, profile);
        }
        // Group starts = exclusive prefix sums of counts.
        let mut starts = vec![0usize; nb];
        let mut acc = 0usize;
        for (b, c) in counts.iter().enumerate() {
            starts[b] = acc;
            acc += c;
        }
        for (fi, f) in folds.iter().enumerate() {
            let mut col = Column::empties(f.out_ty, nb);
            for (b, v) in accs[fi].iter().enumerate() {
                if let Some(v) = v {
                    col.set(b, *v);
                }
            }
            let mut sv = StructuredVector::with_len(nb);
            sv.insert(f.out_kp.clone(), col);
            values[f.stmt.index()] = Some(Arc::new(MatVec::GroupDense {
                values: sv,
                starts: starts.clone(),
                orig_len: *out_len,
            }));
        }
        Ok(())
    }

    /// Generic fallback for group aggregation: materialize the scatter and
    /// run a dynamic-run fold — always correct, never fused.
    fn exec_group_agg_generic(
        &self,
        cp: &CompiledProgram,
        bulk: &Bulk,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        let Bulk::GroupAgg {
            domain,
            out_len,
            key,
            pivot,
            pivot_len,
            folds,
            scatter_cols,
            key_col,
            ..
        } = bulk
        else {
            unreachable!()
        };
        let mut env = self.env(cp, values);
        let piv = eval_pivots(pivot, *pivot_len, &mut env);
        let keys: Vec<Option<i64>> = (0..*domain)
            .map(|i| key.eval(i, &mut env).map(to_key))
            .collect();
        let positions = counting_sort_positions(&keys, &piv);
        // Materialize the scattered vector.
        let mut out_cols: Vec<Column> = scatter_cols
            .iter()
            .map(|(_, ty, _)| Column::empties(*ty, *out_len))
            .collect();
        for (i, &p) in positions.iter().enumerate() {
            if p >= *out_len {
                continue;
            }
            for (ci, (_, _, expr)) in scatter_cols.iter().enumerate() {
                match expr.eval(i, &mut env) {
                    Some(v) => out_cols[ci].set(p, v),
                    None => out_cols[ci].clear(p),
                }
            }
            if env.counting {
                env.profile.rand_writes += scatter_cols.len() as u64;
            }
        }
        // End the read borrow of `values` before writing fold outputs.
        let env_profile = env.profile;
        drop(env);
        // Dynamic-run folds over the scattered key column.
        let key_vals = &out_cols[*key_col];
        for f in folds {
            let mut out = Column::empties(f.out_ty, *out_len);
            let mut acc: Option<ScalarValue> = None;
            let mut run_start = 0usize;
            let mut current: Option<ScalarValue> = None;
            for i in 0..*out_len {
                let cv = key_vals.get(i);
                if i == 0 {
                    current = cv;
                } else if cv != current {
                    if let Some(a) = acc.take() {
                        out.set(run_start, a);
                    }
                    run_start = i;
                    current = cv;
                }
                if let Some(v) = out_cols[f.val_col].get(i) {
                    let v = v.cast(f.out_ty);
                    acc = Some(match acc {
                        None => v,
                        Some(a) => combine(f.agg, a, v),
                    });
                }
            }
            if *out_len > 0 {
                if let Some(a) = acc.take() {
                    out.set(run_start, a);
                }
            }
            let mut sv = StructuredVector::with_len(*out_len);
            sv.insert(f.out_kp.clone(), out);
            values[f.stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
        }
        profile.merge(&env_profile);
        Ok(())
    }
}

/// Evaluate a scatter's position and value expressions over one
/// morsel, compacting the qualifying rows. The caller applies the
/// writes in morsel order (input order), so conflicting positions
/// resolve exactly as a serial loop would.
fn scatter_eval_range(
    cols: &[(KeyPath, ScalarType, Arc<Expr>)],
    pos: &Expr,
    out_len: usize,
    m: Morsel,
    env: &mut Env<'_>,
) -> (Vec<usize>, Vec<Column>) {
    let mut hits: Vec<usize> = Vec::new();
    let mut vals: Vec<Column> = cols
        .iter()
        .map(|(_, ty, _)| Column::empties(*ty, 0))
        .collect();
    for i in m.start..m.end {
        let Some(p) = pos.eval(i, env) else {
            continue;
        };
        let p = p.as_i64();
        if p < 0 || p as usize >= out_len {
            continue;
        }
        hits.push(p as usize);
        for (ci, (_, _, expr)) in cols.iter().enumerate() {
            vals[ci].push(expr.eval(i, env));
        }
        if env.counting {
            env.profile.rand_writes += cols.len() as u64;
        }
    }
    (hits, vals)
}

/// Partial grouped aggregation over one morsel: per-bucket counts, the
/// bucket's (single) key, and per-fold accumulators; `mismatch` reports
/// a bucket holding more than one key run, which sends the whole unit
/// to the generic fallback.
fn group_agg_range(
    key: &Expr,
    folds: &[GroupFold],
    piv: &[i64],
    nb: usize,
    m: Morsel,
    env: &mut Env<'_>,
) -> GroupPartial {
    let mut counts = vec![0usize; nb];
    let mut first_key: Vec<Option<Option<i64>>> = vec![None; nb];
    let mut accs: Vec<Vec<Option<ScalarValue>>> = folds.iter().map(|_| vec![None; nb]).collect();
    let mut mismatch = false;
    for i in m.start..m.end {
        let kv = key.eval(i, env).map(to_key);
        let b = bucket_of(piv, kv);
        match &first_key[b] {
            None => first_key[b] = Some(kv),
            Some(prev) if *prev != kv => {
                mismatch = true;
                break;
            }
            _ => {}
        }
        counts[b] += 1;
        for (fi, f) in folds.iter().enumerate() {
            if let Some(v) = f.val.eval(i, env) {
                let v = v.cast(f.out_ty);
                accs[fi][b] = Some(match accs[fi][b] {
                    None => v,
                    Some(a) => combine(f.agg, a, v),
                });
                count_acc(env, f.out_ty);
            }
        }
        if env.counting {
            env.profile.int_ops += 1; // bucket computation
        }
    }
    GroupPartial {
        counts,
        first_key,
        accs,
        mismatch,
    }
}

/// Slots an output column occupies: the whole domain for `Full` layout,
/// one slot per run for `Dense` (fold results).
fn full_len_of(layout: Layout, domain: usize, run_len: usize) -> usize {
    match layout {
        Layout::Full => domain,
        Layout::Dense => {
            if domain == 0 {
                0
            } else {
                domain.div_ceil(run_len)
            }
        }
    }
}

fn combine(agg: AggKind, a: ScalarValue, b: ScalarValue) -> ScalarValue {
    match agg {
        AggKind::Sum => BinOp::Add.eval(a, b),
        AggKind::Min => {
            if BinOp::LessEquals.eval(a, b).is_truthy() {
                a
            } else {
                b
            }
        }
        AggKind::Max => {
            if BinOp::GreaterEquals.eval(a, b).is_truthy() {
                a
            } else {
                b
            }
        }
    }
}

fn count_acc(env: &mut Env<'_>, ty: ScalarType) {
    if env.counting {
        if ty.is_float() {
            env.profile.float_ops += 1;
        } else {
            env.profile.int_ops += 1;
        }
    }
}

fn to_key(v: ScalarValue) -> i64 {
    match v {
        ScalarValue::F32(f) => f.floor() as i64,
        ScalarValue::F64(f) => f.floor() as i64,
        other => other.as_i64(),
    }
}

fn eval_pivots(pivot: &Expr, pivot_len: usize, env: &mut Env<'_>) -> Vec<i64> {
    let mut piv: Vec<i64> = (0..pivot_len)
        .filter_map(|j| pivot.eval(j, env).map(to_key))
        .collect();
    piv.sort_unstable();
    piv
}

/// Bucket of a key given sorted pivots — identical to the interpreter's
/// `partition_positions` bucketing so the backends agree exactly.
fn bucket_of(piv: &[i64], key: Option<i64>) -> usize {
    match key {
        None => 0,
        Some(x) => piv.partition_point(|&p| p <= x).saturating_sub(1),
    }
}

/// Stable counting-sort positions (shared by Partition and the group-agg
/// fallback).
fn counting_sort_positions(keys: &[Option<i64>], piv: &[i64]) -> Vec<usize> {
    let nb = piv.len().max(1);
    let mut counts = vec![0usize; nb];
    for k in keys {
        counts[bucket_of(piv, *k)] += 1;
    }
    let mut cursors = vec![0usize; nb];
    let mut acc = 0usize;
    for (b, c) in counts.iter().enumerate() {
        cursors[b] = acc;
        acc += c;
    }
    keys.iter()
        .map(|k| {
            let b = bucket_of(piv, *k);
            let p = cursors[b];
            cursors[b] += 1;
            p
        })
        .collect()
}
