//! Execution of compiled plans on the CPU.
//!
//! Fragments run their work items data-parallel (each morsel producing
//! its own output segments — no synchronization inside a kernel,
//! mirroring the ε padding argument of §2.2). Bulk units implement
//! `Scatter`, `Partition` and the two fused patterns (virtual-scatter
//! group aggregation, vectorized selection).
//!
//! **Column at a time.** Every kernel evaluates its fused expressions
//! through one chunked evaluator ([`crate::expr::Chunks`]): a morsel is
//! processed in chunks of [`crate::expr::CHUNK`] rows, each expression
//! node is computed once per chunk into a typed register (allocated once
//! per morsel), and the kernel's actions then consume whole registers —
//! writes store register slices, folds reduce them, selections and
//! scatters compact them, grouped aggregation folds them into typed
//! per-bucket accumulators. Only order-dependent steps (position
//! emission, prefix scans, float sums, run boundaries) walk a register's
//! lanes one by one, always in row order.
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
    AggKind, BinOp, Buffer, Column, KeyPath, Op, Result, ScalarType, ScalarValue, StructuredVector,
    VRef, VoodooError,
};
use voodoo_interp::ExecOutput;
use voodoo_storage::{Catalog, Morsel, Partitioning, DEFAULT_STEAL_GRAIN};

use crate::expr::{
    cast_lanes, store_lanes, total_key, Active, Chunks, Dag, Env, Expr, Lanes, SourceCol, View,
    CHUNK,
};
use crate::plan::{
    Action, Bulk, CompiledProgram, Fragment, GroupFold, Layout, RunStructure, Unit, VsFold,
};
use crate::profile::EventProfile;
use crate::repr::MatVec;

/// One morsel's partial grouped aggregation: bucket counts, the single
/// key seen per bucket, per-fold accumulators.
struct GroupPartial {
    counts: Vec<usize>,
    keys: BucketKeys,
    accs: Vec<BucketAcc>,
    mismatch: bool,
}

/// The one key each bucket has held so far.
struct BucketKeys {
    /// Per bucket: 0 = no row yet, 1 = an ε key, 2 = the key in `key`.
    seen: Vec<u8>,
    key: Vec<i64>,
}

impl BucketKeys {
    fn new(nb: usize) -> BucketKeys {
        BucketKeys {
            seen: vec![0; nb],
            key: vec![0; nb],
        }
    }

    /// Record key `kv` in bucket `b`; `false` if the bucket already
    /// holds a different key (a second key run).
    #[inline]
    fn admit(&mut self, b: usize, kv: Option<i64>) -> bool {
        let (tag, k) = match kv {
            None => (1, 0),
            Some(k) => (2, k),
        };
        match self.seen[b] {
            0 => {
                self.seen[b] = tag;
                self.key[b] = k;
                true
            }
            t => t == tag && self.key[b] == k,
        }
    }

    /// Fold a later morsel's keys in; `false` on a cross-morsel
    /// disagreement.
    fn merge(&mut self, other: &BucketKeys) -> bool {
        (0..self.seen.len()).all(|b| match other.seen[b] {
            0 => true,
            t => self.admit(b, (t == 2).then_some(other.key[b])),
        })
    }
}

/// Fewest rows per partial table of a parallel grouped aggregation, per
/// bucket (see `Executor::exec_group_agg`).
const ROWS_PER_BUCKET: usize = 4;

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

    /// Fresh event counters under these options.
    fn env(&self, cp: &CompiledProgram) -> Env {
        Env::new(self.opts.count_events, cp.branch_sites, cp.gather_sites)
            .with_predication(self.opts.predicated_select)
    }

    /// The morsel driver: run `body` once per morsel of `parts`, each
    /// with its own event counters, and return the partials in morsel
    /// order, merging each morsel's event profile into `profile`. A
    /// single morsel runs inline on the calling thread; more go to the
    /// current thread's persistent pool ([`crate::pool::current`]).
    fn drive<T, F>(
        &self,
        cp: &CompiledProgram,
        parts: &Partitioning,
        profile: &mut EventProfile,
        body: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Morsel, &mut Env) -> T + Sync,
    {
        let task = |m: Morsel| {
            let mut env = self.env(cp);
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
    /// * everything else — concatenate the morsel segments.
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
        let mut partials = {
            let sources: &[Option<Arc<MatVec>>] = values;
            self.drive(cp, &parts, profile, |m, env| {
                let range = (m.start * unit_len, (m.end * unit_len).min(domain));
                self.run_fragment_range(frag, sources, range, env)
            })
        };

        let run_len = match frag.run {
            RunStructure::Uniform(l) => l,
            RunStructure::Map => 1,
            _ => domain.max(1),
        };
        for (oi, spec) in frag.outputs.iter().enumerate() {
            let full_len = full_len_of(spec.layout, domain, run_len);
            let fold_action = frag.actions.iter().enumerate().find_map(|(ai, a)| match a {
                Action::FoldAggAct { out, agg, .. } if single && *out == oi => Some((ai, *agg)),
                _ => None,
            });
            let is_select = single
                && frag
                    .actions
                    .iter()
                    .any(|a| matches!(a, Action::SelectEmit { out, .. } if *out == oi));
            let col = if let Some((ai, agg)) = fold_action {
                let mut col = Column::empties(spec.ty, full_len);
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
                col
            } else if is_select {
                // Positions are emitted as a compact prefix per morsel;
                // the first ε ends that morsel's output.
                let mut out = OutBuf::new(spec.ty, full_len);
                let mut off = 0usize;
                for (segs, _) in &partials {
                    let seg = &segs[oi];
                    let n = seg
                        .empty_mask()
                        .iter()
                        .position(|&e| e)
                        .unwrap_or(seg.len());
                    out.copy_prefix(off, seg, n);
                    off += n;
                }
                out.into_column()
            } else {
                let mut segs = partials
                    .iter_mut()
                    .map(|(segs, _)| std::mem::replace(&mut segs[oi], Column::empties(spec.ty, 0)));
                let mut col = segs.next().unwrap_or_else(|| Column::empties(spec.ty, 0));
                for seg in segs {
                    col.extend_from(&seg);
                }
                debug_assert_eq!(col.len(), full_len);
                col
            };
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
    ///
    /// The morsel is evaluated chunk by chunk; each action then consumes
    /// whole registers, split only at run boundaries.
    fn run_fragment_range(
        &self,
        frag: &Fragment,
        sources: &[Option<Arc<MatVec>>],
        (s, e): (usize, usize),
        env: &mut Env,
    ) -> (Vec<Column>, Vec<Option<ScalarValue>>) {
        let dynamic = matches!(frag.run, RunStructure::Dynamic(_));
        let single = matches!(frag.run, RunStructure::Single);
        let run_len = match frag.run {
            RunStructure::Uniform(l) => l,
            RunStructure::Map => 1,
            _ => (e - s).max(1),
        };
        let mut segs: Vec<OutBuf> = frag
            .outputs
            .iter()
            .map(|spec| match spec.layout {
                Layout::Full => OutBuf::new(spec.ty, e - s),
                // Global-run fold results travel in the accumulators.
                Layout::Dense if single => OutBuf::new(spec.ty, 0),
                Layout::Dense => OutBuf::new(spec.ty, (e - s).div_ceil(run_len)),
            })
            .collect();
        let mut run = RunState {
            accs: vec![None; frag.actions.len()],
            cursors: vec![s; frag.actions.len()],
            start: s,
        };
        // Root `k + first` is action `k`'s expression.
        let first = dynamic as usize;
        let has_runs = frag
            .actions
            .iter()
            .any(|a| !matches!(a, Action::Write { .. }));
        let mut current: Option<ScalarValue> = None;
        let mut ch = Chunks::new(&frag.dag, sources, env.counting);
        let active = vec![Active::All; frag.dag.roots.len()];
        let mut c0 = s;
        while c0 < e {
            let len = CHUNK.min(e - c0);
            ch.compute(c0, len);
            ch.count(&active, env);
            for (ai, action) in frag.actions.iter().enumerate() {
                if let Action::Write { out, .. } = action {
                    segs[*out].store(c0 - s, &ch.root(first + ai), 0, len);
                }
            }
            let mut a = 0;
            while has_runs && a < len {
                let i = c0 + a;
                // The segment [a, b) of this chunk lies in one run.
                let b = if dynamic {
                    let ctrl = ch.root(0);
                    let cv = ctrl.get(a);
                    if i == s {
                        current = cv;
                    } else if cv != current {
                        self.flush_dynamic_run(frag, &mut run, &mut segs, i, s);
                        current = cv;
                    }
                    (a + 1..len)
                        .find(|&k| ctrl.get(k) != current)
                        .unwrap_or(len)
                } else {
                    if (i - s) % run_len == 0 {
                        if i > s {
                            self.flush_run(frag, &run, &mut segs, s, run_len);
                        }
                        run.accs.fill(None);
                        run.cursors.fill(i);
                        run.start = i;
                    }
                    (run_len - (i - s) % run_len).min(len - a) + a
                };
                for (ai, action) in frag.actions.iter().enumerate() {
                    let v = ch.root(first + ai);
                    self.apply(action, ai, &v, c0, a, b, s, &mut run, &mut segs, env);
                }
                a = b;
            }
            c0 += len;
        }
        if has_runs && e > s {
            if dynamic {
                self.flush_dynamic_run(frag, &mut run, &mut segs, e, s);
            } else if !single {
                self.flush_run(frag, &run, &mut segs, s, run_len);
            }
        }
        (
            segs.into_iter().map(OutBuf::into_column).collect(),
            run.accs,
        )
    }

    /// Apply one non-`Write` action to lanes `[a, b)` of the chunk at
    /// `c0` (all in the current run).
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        action: &Action,
        ai: usize,
        v: &View<'_>,
        c0: usize,
        a: usize,
        b: usize,
        s: usize,
        run: &mut RunState,
        segs: &mut [OutBuf],
        env: &mut Env,
    ) {
        match action {
            Action::Write { .. } => {}
            Action::FoldAggAct { agg, out_ty, .. } => {
                let n = fold_lanes(*agg, *out_ty, v, a, b, &mut run.accs[ai]);
                count_accs(env, *out_ty, n);
            }
            Action::FoldScanAct { out, out_ty, .. } => {
                for k in a..b {
                    if let Some(x) = v.get(k) {
                        let x = x.cast(*out_ty);
                        let next = match run.accs[ai] {
                            None => x,
                            Some(acc) => combine(AggKind::Sum, acc, x),
                        };
                        run.accs[ai] = Some(next);
                        segs[*out].set(c0 + k - s, next);
                        count_accs(env, *out_ty, 1);
                    }
                }
            }
            Action::SelectEmit { out, site, .. } => {
                let seg = &mut segs[*out];
                for k in a..b {
                    let taken = v.truthy(k);
                    if self.opts.predicated_select {
                        // Branch-free cursor arithmetic (Ross-style [28]):
                        // an unconditional write, the cursor advancing by
                        // the predicate outcome.
                        if env.counting {
                            env.profile.int_ops += 1;
                            env.profile.write_bytes += 8;
                        }
                    } else {
                        env.count_branch(*site, taken);
                    }
                    if taken {
                        seg.set(run.cursors[ai] - s, ScalarValue::I64((c0 + k) as i64));
                        run.cursors[ai] += 1;
                    }
                }
            }
        }
    }

    /// End of a Map/Uniform run: store per-run folds at their run slot.
    /// (A predicated emission's overwritten tail slot stays ε, exactly
    /// as the branching emission leaves it.)
    fn flush_run(
        &self,
        frag: &Fragment,
        run: &RunState,
        segs: &mut [OutBuf],
        s: usize,
        run_len: usize,
    ) {
        let slot = (run.start - s) / run_len;
        for (ai, action) in frag.actions.iter().enumerate() {
            if let (Action::FoldAggAct { out, .. }, Some(v)) = (action, run.accs[ai]) {
                segs[*out].set(slot, v);
            }
        }
    }

    /// End of a dynamic run at `end`: store folds at the run's first
    /// slot and restart every accumulator and cursor for the next run.
    fn flush_dynamic_run(
        &self,
        frag: &Fragment,
        run: &mut RunState,
        segs: &mut [OutBuf],
        end: usize,
        s: usize,
    ) {
        for (ai, action) in frag.actions.iter().enumerate() {
            if let (Action::FoldAggAct { out, .. }, Some(v)) = (action, run.accs[ai]) {
                segs[*out].set(run.start - s, v);
            }
        }
        run.accs.fill(None);
        run.cursors.fill(end);
        run.start = end;
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
                dag,
                ..
            } => {
                // The analyzer classified scatters as SerialApply: the
                // position and value expressions (the gather-heavy build
                // side of joins) evaluate per morsel, and the writes land
                // in morsel order — the serial last-write-wins semantics
                // bit for bit.
                let parallel_ok = cp.verdict(*stmt).eval_parallel_apply_serial();
                let parts = self.layout(*domain, *domain, parallel_ok);
                let sources: &[Option<Arc<MatVec>>] = values;
                let partials = self.drive(cp, &parts, profile, |m, env| {
                    scatter_eval_range(dag, sources, cols, *out_len, m, env)
                });
                let mut out_cols: Vec<OutBuf> = cols
                    .iter()
                    .map(|(_, ty, _)| OutBuf::new(*ty, *out_len))
                    .collect();
                for (hits, vals) in &partials {
                    for (dst, src) in out_cols.iter_mut().zip(vals) {
                        dst.scatter(hits, src);
                    }
                }
                profile.work_items += *domain as u64;
                profile.elements += *domain as u64;
                profile.max_par = (*domain as u64 / 1024).max(1);
                let mut sv = StructuredVector::with_len(*out_len);
                for ((kp, _, _), col) in cols.iter().zip(out_cols) {
                    sv.insert(kp.clone(), col.into_column());
                }
                values[stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
                Ok(())
            }
            Bulk::PartitionOp {
                stmt,
                domain,
                out_kp,
                pivot_len,
                key_dag,
                pivot_dag,
                ..
            } => {
                let mut env = self.env(cp);
                let piv = eval_pivots(pivot_dag, *pivot_len, values, &mut env);
                let keys = eval_keys(key_dag, *domain, values, &mut env);
                let positions = counting_sort_positions(&keys, &piv);
                profile.merge(&env.profile);
                profile.work_items += 1;
                profile.elements += *domain as u64;
                profile.max_par = (*domain as u64 / 1024).max(1);
                let col =
                    Column::from_buffer(Buffer::I64(positions.iter().map(|&p| p as i64).collect()));
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
                site,
                folds,
                dag,
                ..
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
                let sources: &[Option<Arc<MatVec>>] = values;
                let partials = self.drive(cp, &parts, profile, |m, env| {
                    self.vec_select_chunks(dag, sources, *domain, *chunk, *site, folds, m, env)
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
        dag: &Dag,
        sources: &[Option<Arc<MatVec>>],
        domain: usize,
        chunk: usize,
        site: usize,
        folds: &[VsFold],
        chunks: Morsel,
        env: &mut Env,
    ) -> Vec<Option<ScalarValue>> {
        let srcs: Vec<SourceCol<'_>> = folds
            .iter()
            .map(|f| SourceCol::resolve(sources, f.src.0, f.src_col as u16))
            .collect();
        let mut accs: Vec<Option<ScalarValue>> = vec![None; folds.len()];
        let mut last_pos: Vec<i64> = vec![i64::MIN / 2; folds.len()];
        let mut posbuf: Vec<usize> = vec![0; chunk];
        let mut ch = Chunks::new(dag, sources, env.counting);
        for ci in chunks.start..chunks.end {
            let c0 = ci * chunk;
            let c1 = (c0 + chunk).min(domain);
            // Loop 1: emit qualifying positions into the chunk-local
            // buffer (cache resident).
            let mut count = 0usize;
            let mut p0 = c0;
            while p0 < c1 {
                let len = CHUNK.min(c1 - p0);
                ch.compute(p0, len);
                ch.count(&[Active::All], env);
                let sel = ch.root(0);
                for k in 0..len {
                    let t = sel.truthy(k);
                    if self.opts.predicated_select {
                        posbuf[count] = p0 + k;
                        count += t as usize;
                        if env.counting {
                            env.profile.int_ops += 1;
                            env.profile.write_bytes += 8;
                        }
                    } else {
                        env.count_branch(site, t);
                        if t {
                            posbuf[count] = p0 + k;
                            count += 1;
                            if env.counting {
                                env.profile.write_bytes += 8;
                            }
                        }
                    }
                }
                p0 += len;
            }
            // Loop 2: resolve positions and accumulate.
            for &p in &posbuf[..count] {
                for (fi, f) in folds.iter().enumerate() {
                    if let Some(v) = srcs[fi].get(p) {
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
                        count_accs(env, f.out_ty, 1);
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
            pivot_len,
            folds,
            agg_dag,
            pivot_dag,
            ..
        } = bulk
        else {
            unreachable!()
        };
        let piv = {
            let mut env = self.env(cp);
            let piv = eval_pivots(pivot_dag, *pivot_len, values, &mut env);
            profile.merge(&env.profile);
            piv
        };
        let nb = piv.buckets();
        let mut merged: Option<GroupPartial> = None;
        let mut mismatch = *out_len != *domain;
        if !mismatch {
            // Cross-morsel combination of per-bucket accumulators is only
            // bit-identical when the analyzer proved every fold
            // associative (integer Sum/Min/Max; float folds stay at one
            // morsel).
            let parallel_ok = folds
                .iter()
                .all(|f| cp.verdict(f.stmt).combines_associatively());
            // Every morsel allocates, fills and merges a partial table of
            // `nb` buckets: cut morsels of at least `ROWS_PER_BUCKET × nb`
            // rows so that cost stays small next to the rows aggregated.
            let unit = (ROWS_PER_BUCKET * nb).max(1);
            let parts = self.layout(domain.div_ceil(unit), *domain, parallel_ok);
            let sources: &[Option<Arc<MatVec>>] = values;
            let partials = self.drive(cp, &parts, profile, |m, env| {
                let rows = Morsel {
                    start: m.start * unit,
                    end: (m.end * unit).min(*domain),
                };
                group_agg_range(agg_dag, sources, folds, &piv, nb, rows, env)
            });
            for p in partials {
                mismatch |= p.mismatch;
                if mismatch {
                    break;
                }
                match &mut merged {
                    None => merged = Some(p),
                    Some(acc) => {
                        if !acc.keys.merge(&p.keys) {
                            mismatch = true;
                            break;
                        }
                        for (c, n) in acc.counts.iter_mut().zip(&p.counts) {
                            *c += n;
                        }
                        for (a, b) in acc.accs.iter_mut().zip(&p.accs) {
                            a.merge(b);
                        }
                    }
                }
            }
        }
        profile.work_items += *domain as u64;
        profile.elements += *domain as u64;
        profile.max_par = (*domain as u64 / 1024).max(1);
        if mismatch {
            return self.exec_group_agg_generic(cp, bulk, values, profile);
        }
        let (counts, accs) = match merged {
            Some(p) => (p.counts, p.accs),
            None => (
                vec![0; nb],
                folds
                    .iter()
                    .map(|f| BucketAcc::new(f.agg, f.out_ty, nb))
                    .collect(),
            ),
        };
        // Group starts = exclusive prefix sums of counts.
        let mut starts = vec![0usize; nb];
        let mut acc = 0usize;
        for (b, c) in counts.iter().enumerate() {
            starts[b] = acc;
            acc += c;
        }
        for (f, a) in folds.iter().zip(accs) {
            let mut sv = StructuredVector::with_len(nb);
            sv.insert(f.out_kp.clone(), a.into_column());
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
            pivot_len,
            folds,
            scatter_cols,
            key_col,
            pivot_dag,
            key_dag,
            cols_dag,
            ..
        } = bulk
        else {
            unreachable!()
        };
        let mut env = self.env(cp);
        let piv = eval_pivots(pivot_dag, *pivot_len, values, &mut env);
        let keys = eval_keys(key_dag, *domain, values, &mut env);
        let positions = counting_sort_positions(&keys, &piv);
        // Materialize the scattered vector.
        let mut out_cols: Vec<OutBuf> = scatter_cols
            .iter()
            .map(|(_, ty, _)| OutBuf::new(*ty, *out_len))
            .collect();
        {
            let mut ch = Chunks::new(cols_dag, values, env.counting);
            let mut ok = vec![false; CHUNK];
            let mut c0 = 0;
            while c0 < *domain {
                let len = CHUNK.min(*domain - c0);
                ch.compute(c0, len);
                for (k, o) in ok[..len].iter_mut().enumerate() {
                    *o = positions[c0 + k] < *out_len;
                }
                let active = vec![Active::Lanes(&ok[..len]); scatter_cols.len()];
                ch.count(&active, &mut env);
                for k in (0..len).filter(|&k| ok[k]) {
                    let p = positions[c0 + k];
                    for (ci, col) in out_cols.iter_mut().enumerate() {
                        match ch.root(ci).get(k) {
                            Some(v) => col.set(p, v),
                            None => col.clear(p),
                        }
                    }
                    if env.counting {
                        env.profile.rand_writes += scatter_cols.len() as u64;
                    }
                }
                c0 += len;
            }
        }
        let out_cols: Vec<Column> = out_cols.into_iter().map(OutBuf::into_column).collect();
        // Dynamic-run folds over the scattered key column.
        let key_vals = &out_cols[*key_col];
        for f in folds {
            let mut out = OutBuf::new(f.out_ty, *out_len);
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
            sv.insert(f.out_kp.clone(), out.into_column());
            values[f.stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
        }
        profile.merge(&env.profile);
        Ok(())
    }
}

/// Per-morsel run state of a fragment: fold accumulators, emission
/// cursors, and where the current run began.
struct RunState {
    accs: Vec<Option<ScalarValue>>,
    cursors: Vec<usize>,
    start: usize,
}

/// An output column under construction: typed values plus ε mask,
/// turned into a [`Column`] once complete.
struct OutBuf {
    data: Buffer,
    empty: Vec<bool>,
}

impl OutBuf {
    /// `len` ε slots.
    fn new(ty: ScalarType, len: usize) -> OutBuf {
        OutBuf {
            data: Buffer::with_len(ty, len),
            empty: vec![true; len],
        }
    }

    fn set(&mut self, i: usize, v: ScalarValue) {
        self.data.set(i, v);
        self.empty[i] = false;
    }

    /// Mark slot `i` ε (its stale value stays, as `Column::clear` leaves
    /// it).
    fn clear(&mut self, i: usize) {
        self.empty[i] = true;
    }

    fn push(&mut self, v: Option<ScalarValue>) {
        match v {
            Some(v) => {
                self.data.push(v);
                self.empty.push(false);
            }
            None => {
                self.data.push(ScalarValue::I64(0));
                self.empty.push(true);
            }
        }
    }

    /// Store lanes `[a, b)` of a register at slots `off..`.
    fn store(&mut self, off: usize, v: &View<'_>, a: usize, b: usize) {
        store_lanes(v, a, b, &mut self.data, &mut self.empty, off);
    }

    /// Copy the first `n` slots of `src` (same type) to `off..`.
    fn copy_prefix(&mut self, off: usize, src: &Column, n: usize) {
        macro_rules! cp {
            ($d:expr, $s:expr) => {
                $d[off..off + n].copy_from_slice(&$s[..n])
            };
        }
        match (&mut self.data, src.buffer()) {
            (Buffer::Bool(d), Buffer::Bool(s)) => cp!(d, s),
            (Buffer::I32(d), Buffer::I32(s)) => cp!(d, s),
            (Buffer::I64(d), Buffer::I64(s)) => cp!(d, s),
            (Buffer::F32(d), Buffer::F32(s)) => cp!(d, s),
            (Buffer::F64(d), Buffer::F64(s)) => cp!(d, s),
            _ => unreachable!("output segments share their column type"),
        }
        self.empty[off..off + n].copy_from_slice(&src.empty_mask()[..n]);
    }

    /// Apply compacted scatter writes in input order: slot `hits[k]`
    /// takes `src[k]` (last write wins; an ε write clears the slot).
    fn scatter(&mut self, hits: &[usize], src: &OutBuf) {
        macro_rules! sc {
            ($d:expr, $s:expr) => {
                for (k, &p) in hits.iter().enumerate() {
                    if src.empty[k] {
                        self.empty[p] = true;
                    } else {
                        $d[p] = $s[k];
                        self.empty[p] = false;
                    }
                }
            };
        }
        match (&mut self.data, &src.data) {
            (Buffer::Bool(d), Buffer::Bool(s)) => sc!(d, s),
            (Buffer::I32(d), Buffer::I32(s)) => sc!(d, s),
            (Buffer::I64(d), Buffer::I64(s)) => sc!(d, s),
            (Buffer::F32(d), Buffer::F32(s)) => sc!(d, s),
            (Buffer::F64(d), Buffer::F64(s)) => sc!(d, s),
            _ => unreachable!("scatter values share their column type"),
        }
    }

    fn into_column(self) -> Column {
        Column::from_parts(self.data, self.empty)
    }
}

/// Evaluate a scatter's position and value expressions over one
/// morsel, compacting the qualifying rows. The caller applies the
/// writes in morsel order (input order), so conflicting positions
/// resolve exactly as a serial loop would. Values are evaluated (and
/// counted) only at rows whose position lands in the output.
fn scatter_eval_range(
    dag: &Dag,
    sources: &[Option<Arc<MatVec>>],
    cols: &[(KeyPath, ScalarType, Arc<Expr>)],
    out_len: usize,
    m: Morsel,
    env: &mut Env,
) -> (Vec<usize>, Vec<OutBuf>) {
    let mut hits: Vec<usize> = Vec::new();
    let mut vals: Vec<OutBuf> = cols.iter().map(|(_, ty, _)| OutBuf::new(*ty, 0)).collect();
    let mut ch = Chunks::new(dag, sources, env.counting);
    let mut ok = vec![false; CHUNK];
    let mut c0 = m.start;
    while c0 < m.end {
        let len = CHUNK.min(m.end - c0);
        ch.compute(c0, len);
        let pos = ch.root(0);
        let mut n_ok = 0u64;
        for (k, o) in ok[..len].iter_mut().enumerate() {
            *o = false;
            if let Some(p) = pos.as_i64(k).filter(|&p| p >= 0 && (p as usize) < out_len) {
                hits.push(p as usize);
                *o = true;
                n_ok += 1;
            }
        }
        if env.counting {
            let mut active = vec![Active::Lanes(&ok[..len]); dag.roots.len()];
            active[0] = Active::All;
            ch.count(&active, env);
            env.profile.rand_writes += cols.len() as u64 * n_ok;
        }
        for (ci, buf) in vals.iter_mut().enumerate() {
            let v = ch.root(1 + ci);
            for k in (0..len).filter(|&k| ok[k]) {
                buf.push(v.get(k));
            }
        }
        c0 += len;
    }
    (hits, vals)
}

/// Partial grouped aggregation over one morsel: per-bucket counts, the
/// bucket's (single) key, and per-fold accumulators; `mismatch` reports
/// a bucket holding more than one key run, which sends the whole unit
/// to the generic fallback. Each fold consumes whole registers into
/// typed per-bucket accumulators.
fn group_agg_range(
    dag: &Dag,
    sources: &[Option<Arc<MatVec>>],
    folds: &[GroupFold],
    piv: &Pivots,
    nb: usize,
    m: Morsel,
    env: &mut Env,
) -> GroupPartial {
    let mut counts = vec![0usize; nb];
    let mut keys = BucketKeys::new(nb);
    let mut accs: Vec<BucketAcc> = folds
        .iter()
        .map(|f| BucketAcc::new(f.agg, f.out_ty, nb))
        .collect();
    let mut mismatch = false;
    let mut ch = Chunks::new(dag, sources, env.counting);
    let mut buckets = vec![0usize; CHUNK];
    let mut c0 = m.start;
    while c0 < m.end && !mismatch {
        let len = CHUNK.min(m.end - c0);
        ch.compute(c0, len);
        // Rows before `stop` are aggregated; a mismatch row evaluates
        // only its key.
        let key = ch.root(0);
        let mut stop = len;
        for (k, slot) in buckets[..len].iter_mut().enumerate() {
            let kv = key.key(k);
            let b = piv.of(kv);
            if !keys.admit(b, kv) {
                mismatch = true;
                stop = k;
                break;
            }
            counts[b] += 1;
            *slot = b;
        }
        if env.counting {
            let key_rows = if mismatch { stop + 1 } else { len };
            let mut active = vec![Active::Prefix(stop); dag.roots.len()];
            active[0] = Active::Prefix(key_rows);
            ch.count(&active, env);
            env.profile.int_ops += stop as u64; // bucket computation
        }
        for (fi, acc) in accs.iter_mut().enumerate() {
            let n = acc.add(&ch.root(1 + fi), &buckets[..stop]);
            count_accs(env, folds[fi].out_ty, n);
        }
        c0 += len;
    }
    GroupPartial {
        counts,
        keys,
        accs,
        mismatch,
    }
}

/// Typed per-bucket accumulators of one grouped fold, with
/// [`combine`]'s semantics.
struct BucketAcc {
    agg: AggKind,
    ty: ScalarType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    has: Vec<bool>,
}

impl BucketAcc {
    fn new(agg: AggKind, ty: ScalarType, nb: usize) -> BucketAcc {
        let (ni, nf) = if ty.is_float() { (0, nb) } else { (nb, 0) };
        BucketAcc {
            agg,
            ty,
            ints: vec![0; ni],
            floats: vec![0.0; nf],
            has: vec![false; nb],
        }
    }

    /// Fold row `k` of `v` into bucket `buckets[k]` for every listed row;
    /// returns the number of (non-ε) values folded.
    fn add(&mut self, v: &View<'_>, buckets: &[usize]) -> u64 {
        let mut n = 0u64;
        let (mut ints, mut floats) = (Vec::new(), Vec::new());
        match cast_lanes(v, self.ty, &mut ints, &mut floats) {
            Lanes::Int(x) => {
                for (k, &b) in buckets.iter().enumerate() {
                    if !v.valid(k) {
                        continue;
                    }
                    n += 1;
                    let (a, had) = (&mut self.ints[b], self.has[b]);
                    *a = match self.agg {
                        AggKind::Sum => a.wrapping_add(x[k]),
                        AggKind::Min if had => (*a).min(x[k]),
                        AggKind::Max if had => (*a).max(x[k]),
                        _ => x[k],
                    };
                    self.has[b] = true;
                }
            }
            Lanes::Float(x) => {
                let f32_sum = self.ty == ScalarType::F32;
                for (k, &b) in buckets.iter().enumerate() {
                    if !v.valid(k) {
                        continue;
                    }
                    n += 1;
                    let (a, had) = (&mut self.floats[b], self.has[b]);
                    *a = match self.agg {
                        _ if !had => x[k],
                        AggKind::Sum if f32_sum => (*a + x[k]) as f32 as f64,
                        AggKind::Sum => *a + x[k],
                        AggKind::Min if total_key(x[k]) < total_key(*a) => x[k],
                        AggKind::Max if total_key(x[k]) > total_key(*a) => x[k],
                        _ => *a,
                    };
                    self.has[b] = true;
                }
            }
        }
        n
    }

    /// Fold a later morsel's accumulators in, bucket by bucket, with
    /// [`combine`]'s semantics.
    fn merge(&mut self, other: &BucketAcc) {
        let f32_sum = self.ty == ScalarType::F32;
        for b in (0..self.has.len()).filter(|&b| other.has[b]) {
            if !self.has[b] {
                self.has[b] = true;
                if self.ty.is_float() {
                    self.floats[b] = other.floats[b];
                } else {
                    self.ints[b] = other.ints[b];
                }
                continue;
            }
            if self.ty.is_float() {
                let (a, x) = (&mut self.floats[b], other.floats[b]);
                *a = match self.agg {
                    AggKind::Sum if f32_sum => (*a + x) as f32 as f64,
                    AggKind::Sum => *a + x,
                    AggKind::Min if total_key(x) < total_key(*a) => x,
                    AggKind::Max if total_key(x) > total_key(*a) => x,
                    _ => *a,
                };
            } else {
                let (a, x) = (&mut self.ints[b], other.ints[b]);
                *a = match self.agg {
                    AggKind::Sum => a.wrapping_add(x),
                    AggKind::Min => (*a).min(x),
                    AggKind::Max => (*a).max(x),
                };
            }
        }
    }

    /// One slot per bucket, ε where the bucket folded nothing.
    fn into_column(self) -> Column {
        let empty: Vec<bool> = self.has.iter().map(|h| !h).collect();
        let data = match self.ty {
            ScalarType::Bool => Buffer::Bool(self.ints.iter().map(|&x| x != 0).collect()),
            ScalarType::I32 => Buffer::I32(self.ints.iter().map(|&x| x as i32).collect()),
            ScalarType::I64 => Buffer::I64(self.ints),
            ScalarType::F32 => Buffer::F32(self.floats.iter().map(|&x| x as f32).collect()),
            ScalarType::F64 => Buffer::F64(self.floats),
        };
        Column::from_parts(data, empty)
    }
}

/// Fold the non-ε lanes `[a, b)` of `v`, cast to `ty`, into `acc` in
/// row order with [`combine`]'s semantics; returns how many were folded.
/// Integer folds reduce the range first (wrapping sums and min/max are
/// exact in any grouping); float folds run strictly left to right.
fn fold_lanes(
    agg: AggKind,
    ty: ScalarType,
    v: &View<'_>,
    a: usize,
    b: usize,
    acc: &mut Option<ScalarValue>,
) -> u64 {
    let (mut ints, mut floats) = (Vec::new(), Vec::new());
    let valid = |k: usize| v.valid(k);
    match cast_lanes(v, ty, &mut ints, &mut floats) {
        Lanes::Int(x) => {
            let (mut r, mut n) = match agg {
                AggKind::Sum => (0i64, 0u64),
                AggKind::Min => (i64::MAX, 0),
                AggKind::Max => (i64::MIN, 0),
            };
            match (v.empty, agg) {
                (None, AggKind::Sum) => {
                    r = x[a..b].iter().fold(0i64, |s, &y| s.wrapping_add(y));
                    n = (b - a) as u64;
                }
                (None, AggKind::Min) => {
                    r = x[a..b].iter().copied().fold(r, i64::min);
                    n = (b - a) as u64;
                }
                (None, AggKind::Max) => {
                    r = x[a..b].iter().copied().fold(r, i64::max);
                    n = (b - a) as u64;
                }
                (Some(m), _) => {
                    for (&y, &e) in x[a..b].iter().zip(&m[a..b]) {
                        if !e {
                            r = match agg {
                                AggKind::Sum => r.wrapping_add(y),
                                AggKind::Min => r.min(y),
                                AggKind::Max => r.max(y),
                            };
                            n += 1;
                        }
                    }
                }
            }
            if n > 0 {
                let part = ScalarValue::I64(r).cast(ty);
                *acc = Some(match *acc {
                    None => part,
                    Some(p) => combine(agg, p, part),
                });
            }
            n
        }
        Lanes::Float(x) => {
            let f32_sum = ty == ScalarType::F32;
            let mut cur = acc.map(|s| s.as_f64());
            let mut n = 0u64;
            for (k, &y) in x.iter().enumerate().take(b).skip(a) {
                if !valid(k) {
                    continue;
                }
                n += 1;
                cur = Some(match cur {
                    None => y,
                    Some(c) => match agg {
                        AggKind::Sum if f32_sum => (c + y) as f32 as f64,
                        AggKind::Sum => c + y,
                        AggKind::Min if total_key(c) <= total_key(y) => c,
                        AggKind::Max if total_key(c) >= total_key(y) => c,
                        _ => y,
                    },
                });
            }
            *acc = cur.map(|c| ScalarValue::F64(c).cast(ty));
            n
        }
    }
}

/// Count `n` accumulations into a `ty` accumulator.
fn count_accs(env: &mut Env, ty: ScalarType, n: u64) {
    if env.counting {
        if ty.is_float() {
            env.profile.float_ops += n;
        } else {
            env.profile.int_ops += n;
        }
    }
}

/// A key DAG's root at rows `[0, len)` as partition keys.
fn eval_keys(
    dag: &Dag,
    len: usize,
    sources: &[Option<Arc<MatVec>>],
    env: &mut Env,
) -> Vec<Option<i64>> {
    let mut keys = Vec::with_capacity(len);
    let mut ch = Chunks::new(dag, sources, env.counting);
    let mut c0 = 0;
    while c0 < len {
        let n = CHUNK.min(len - c0);
        ch.compute(c0, n);
        ch.count(&[Active::All], env);
        let v = ch.root(0);
        keys.extend((0..n).map(|k| v.key(k)));
        c0 += n;
    }
    keys
}

/// The sorted non-ε pivot keys.
fn eval_pivots(
    dag: &Dag,
    pivot_len: usize,
    sources: &[Option<Arc<MatVec>>],
    env: &mut Env,
) -> Pivots {
    let mut piv: Vec<i64> = eval_keys(dag, pivot_len, sources, env)
        .into_iter()
        .flatten()
        .collect();
    piv.sort_unstable();
    Pivots::new(piv)
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

/// Sorted partition pivots and the bucket lookup over them.
struct Pivots {
    piv: Vec<i64>,
    /// `piv[0]` when the pivots are consecutive integers (the usual
    /// group-key domain): lookups are then arithmetic, not a search.
    dense_from: Option<i64>,
}

impl Pivots {
    fn new(piv: Vec<i64>) -> Pivots {
        let dense_from = piv.first().copied().filter(|&p0| {
            piv.iter()
                .enumerate()
                .all(|(i, &p)| Some(p) == p0.checked_add(i as i64))
        });
        Pivots { piv, dense_from }
    }

    /// Number of buckets (at least one).
    fn buckets(&self) -> usize {
        self.piv.len().max(1)
    }

    /// Bucket of a key — identical to the interpreter's
    /// `partition_positions` bucketing so the backends agree exactly: the
    /// last pivot `<=` the key, bucket 0 for smaller keys and ε.
    #[inline]
    fn of(&self, key: Option<i64>) -> usize {
        match (key, self.dense_from) {
            (None, _) => 0,
            (Some(x), Some(p0)) => {
                if x <= p0 {
                    0
                } else {
                    (x.abs_diff(p0) as u128).min(self.piv.len() as u128 - 1) as usize
                }
            }
            (Some(x), None) => self.piv.partition_point(|&p| p <= x).saturating_sub(1),
        }
    }
}

/// Stable counting-sort positions (shared by Partition and the group-agg
/// fallback).
fn counting_sort_positions(keys: &[Option<i64>], piv: &Pivots) -> Vec<usize> {
    let nb = piv.buckets();
    let mut counts = vec![0usize; nb];
    for k in keys {
        counts[piv.of(*k)] += 1;
    }
    let mut cursors = vec![0usize; nb];
    let mut acc = 0usize;
    for (b, c) in counts.iter().enumerate() {
        cursors[b] = acc;
        acc += c;
    }
    keys.iter()
        .map(|k| {
            let b = piv.of(*k);
            let p = cursors[b];
            cursors[b] += 1;
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arithmetic lookup over consecutive pivots agrees with the
    /// binary search, including keys far outside the pivot range.
    #[test]
    fn dense_pivot_lookup_matches_search() {
        for piv in [
            vec![5],
            vec![-3, -2, -1, 0, 1],
            (100..140).collect::<Vec<i64>>(),
        ] {
            let dense = Pivots::new(piv.clone());
            assert!(dense.dense_from.is_some());
            let search = Pivots {
                piv,
                dense_from: None,
            };
            for x in [
                i64::MIN,
                -1000,
                -4,
                -3,
                -2,
                0,
                1,
                4,
                5,
                6,
                99,
                100,
                120,
                139,
                140,
                i64::MAX,
            ] {
                assert_eq!(dense.of(Some(x)), search.of(Some(x)), "key {x}");
            }
            assert_eq!(dense.of(None), 0);
        }
        assert!(Pivots::new(vec![1, 2, 4]).dense_from.is_none());
        assert!(Pivots::new(vec![1, 1, 2]).dense_from.is_none());
    }
}
