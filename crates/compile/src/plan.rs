//! The Voodoo → fragment compiler (paper §3.1.1).
//!
//! Compilation walks the SSA program in dependency (= program) order and
//! produces a sequence of execution [`Unit`]s:
//!
//! * [`Fragment`]s — fused loops with an **extent** (parallel work items)
//!   and **intent** (sequential iterations per work item). Elementwise
//!   operators never occupy a fragment by themselves: they become pure
//!   [`Expr`] trees inlined into the actions (writes, folds, position
//!   emissions) that consume them — the "aggressively inlines operators
//!   between the red pipeline-breaking operations" rule of the paper.
//! * [`Bulk`] operations — `Scatter`/`Partition` (which need a consistent
//!   global view) and the two fused patterns: **virtual scatter** group-bys
//!   (§3.1.3) and **vectorized selection** (§5.3).
//!
//! Only unit outputs are materialized; everything else is recomputed from
//! its closed form or fused expression, exactly like the generated OpenCL
//! kernels in the paper materialize only at fragment seams.
//!
//! Compilation ends by flattening each unit's expressions into the kernel
//! DAGs the executor evaluates chunk by chunk ([`crate::expr::Dag`]):
//! dense node ids, one per distinct node, one DAG per evaluation pass.

use std::sync::Arc;

use voodoo_core::typecheck::{self, FoldRuns, Shapes};
use voodoo_core::{AggKind, KeyPath, Op, Program, Result, ScalarType, VRef, VoodooError};
use voodoo_storage::Catalog;
use voodoo_verify::ParallelSafety;

use crate::expr::{Dag, Expr};

/// How each statement is realized by the backend.
#[derive(Debug, Clone, PartialEq)]
pub enum Handling {
    /// A `Load`: materialized from the catalog before execution.
    Source,
    /// Never materialized; evaluated from a closed form or fused expression.
    Inline,
    /// A controlled fold realized as a fragment action.
    Fold,
    /// A bulk operation (`Scatter`/`Partition`).
    BulkOut,
    /// Value aliases another statement (`Materialize`/`Break`/`Persist`).
    Alias(VRef),
    /// A `FoldSelect` fused away as a filter stream (branching selection).
    FusedFilter,
    /// Absorbed into a virtual-scatter group aggregation.
    GroupMember,
    /// Absorbed into a vectorized-selection unit.
    VecSelectMember,
}

/// Parallel structure of a fragment.
#[derive(Debug, Clone)]
pub enum RunStructure {
    /// Fully data-parallel (extent = n, intent = 1).
    Map,
    /// Uniform runs of the given length (extent = n/L, intent = L).
    Uniform(usize),
    /// One global run (extent = 1, intent = n).
    Single,
    /// Run boundaries detected at runtime from a control expression.
    Dynamic(Arc<Expr>),
}

impl RunStructure {
    fn compatible(&self, other: &RunStructure) -> bool {
        match (self, other) {
            (RunStructure::Map, _) | (_, RunStructure::Map) => true,
            (RunStructure::Uniform(a), RunStructure::Uniform(b)) => a == b,
            (RunStructure::Single, RunStructure::Single) => true,
            (RunStructure::Dynamic(a), RunStructure::Dynamic(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn merge(&mut self, other: RunStructure) {
        if matches!(self, RunStructure::Map) {
            *self = other;
        }
    }
}

/// Storage layout of a fragment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Padded layout (one slot per element).
    Full,
    /// Suppressed layout (one slot per run) — paper §3.1.2.
    Dense,
}

/// One materialized output column of a fragment.
#[derive(Debug, Clone)]
pub struct OutSpec {
    /// Producing statement.
    pub stmt: VRef,
    /// Keypath of the column in the statement's schema.
    pub kp: KeyPath,
    /// Value type.
    pub ty: ScalarType,
    /// Storage layout.
    pub layout: Layout,
}

/// One fused action inside a fragment's loop.
#[derive(Debug, Clone)]
pub enum Action {
    /// Evaluate and store per element (padded layout).
    Write {
        /// Output slot index.
        out: usize,
        /// The value expression.
        expr: Arc<Expr>,
    },
    /// Controlled aggregate: accumulate per run, store at the run slot.
    FoldAggAct {
        /// Output slot index (dense or full, per the fragment's structure).
        out: usize,
        /// Aggregation kind.
        agg: AggKind,
        /// The folded value expression.
        expr: Arc<Expr>,
        /// Accumulator/result type.
        out_ty: ScalarType,
    },
    /// Per-run inclusive prefix sum, stored per element.
    FoldScanAct {
        /// Output slot index (always full layout).
        out: usize,
        /// The scanned value expression.
        expr: Arc<Expr>,
        /// Accumulator/result type.
        out_ty: ScalarType,
    },
    /// `FoldSelect` materialization: emit qualifying indices at a per-run
    /// cursor. Branching or predicated per [`crate::ExecOptions`].
    SelectEmit {
        /// Output slot index (always full layout).
        out: usize,
        /// The selector expression.
        sel: Arc<Expr>,
        /// Branch site id.
        site: usize,
    },
}

/// A fused loop over one iteration domain.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Fragment id (kernel number).
    pub id: usize,
    /// Iteration domain (elements).
    pub domain: usize,
    /// Parallel structure.
    pub run: RunStructure,
    /// Parallel work items.
    pub extent: usize,
    /// Sequential iterations per work item.
    pub intent: usize,
    /// The fused actions.
    pub actions: Vec<Action>,
    /// Materialized outputs.
    pub outputs: Vec<OutSpec>,
    /// The fused expressions, flattened: roots are the dynamic run
    /// control (if any), then each action's expression in action order.
    pub dag: Dag,
}

/// Kind summary for reporting / tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentKind {
    /// Fully data-parallel.
    Map,
    /// Run-controlled fold.
    Fold,
    /// Fully sequential.
    Sequential,
}

impl Fragment {
    /// Summarize the fragment's parallel class.
    pub fn kind(&self) -> FragmentKind {
        match self.run {
            RunStructure::Map => FragmentKind::Map,
            RunStructure::Uniform(1) => FragmentKind::Map,
            RunStructure::Uniform(_) => FragmentKind::Fold,
            RunStructure::Single | RunStructure::Dynamic(_) => FragmentKind::Sequential,
        }
    }
}

/// One grouped-fold member of a virtual-scatter unit.
#[derive(Debug, Clone)]
pub struct GroupFold {
    /// The absorbed fold statement.
    pub stmt: VRef,
    /// Aggregation kind.
    pub agg: AggKind,
    /// Value expression over the pre-scatter domain.
    pub val: Arc<Expr>,
    /// Index of the value column within the scattered schema (fallback path).
    pub val_col: usize,
    /// Result type.
    pub out_ty: ScalarType,
    /// Output keypath.
    pub out_kp: KeyPath,
}

/// One fold member of a vectorized-selection unit.
#[derive(Debug, Clone)]
pub struct VsFold {
    /// The absorbed fold statement.
    pub stmt: VRef,
    /// Aggregation kind.
    pub agg: AggKind,
    /// Gather source statement (materialized).
    pub src: VRef,
    /// Column index within the source.
    pub src_col: usize,
    /// Result type.
    pub out_ty: ScalarType,
    /// Output keypath.
    pub out_kp: KeyPath,
}

/// A non-fragment execution unit.
#[derive(Debug, Clone)]
pub enum Bulk {
    /// A materialized `Scatter`.
    ScatterOp {
        /// The scatter statement.
        stmt: VRef,
        /// Iterated elements (min of values/positions lengths).
        domain: usize,
        /// Output length.
        out_len: usize,
        /// Value expressions per output column.
        cols: Vec<(KeyPath, ScalarType, Arc<Expr>)>,
        /// Position expression.
        pos: Arc<Expr>,
        /// Roots: the position, then each value column.
        dag: Dag,
    },
    /// A materialized `Partition` (stable counting sort positions).
    PartitionOp {
        /// The partition statement.
        stmt: VRef,
        /// Input length.
        domain: usize,
        /// Output keypath.
        out_kp: KeyPath,
        /// Key expression.
        key: Arc<Expr>,
        /// Pivot value expression.
        pivot: Arc<Expr>,
        /// Number of pivots.
        pivot_len: usize,
        /// Root: the key.
        key_dag: Dag,
        /// Root: the pivot value.
        pivot_dag: Dag,
    },
    /// Virtual scatter (§3.1.3): `Partition` → `Scatter` → folds fused into
    /// one accumulation pass over dense buckets.
    GroupAgg {
        /// The absorbed partition statement.
        partition: VRef,
        /// The absorbed scatter statement.
        scatter: VRef,
        /// Pre-scatter domain length.
        domain: usize,
        /// Padded output length (the scatter's size).
        out_len: usize,
        /// Grouping key expression over the pre-scatter domain.
        key: Arc<Expr>,
        /// Pivot value expression.
        pivot: Arc<Expr>,
        /// Number of pivots.
        pivot_len: usize,
        /// The fused folds.
        folds: Vec<GroupFold>,
        /// Scatter columns for the generic fallback path.
        scatter_cols: Vec<(KeyPath, ScalarType, Arc<Expr>)>,
        /// Index of the key column within `scatter_cols`.
        key_col: usize,
        /// Roots: the key, then each fold's value (the fused pass).
        agg_dag: Dag,
        /// Root: the pivot value.
        pivot_dag: Dag,
        /// Root: the key (the fallback's partition pass).
        key_dag: Dag,
        /// Roots: the scatter columns (the fallback's scatter pass).
        cols_dag: Dag,
    },
    /// Vectorized selection (§5.3): chunk-local position buffer + gathers.
    VecSelect {
        /// The absorbed `FoldSelect`.
        select: VRef,
        /// Input domain length.
        domain: usize,
        /// Chunk (intent) size.
        chunk: usize,
        /// Selector expression.
        sel: Arc<Expr>,
        /// Branch site for the emit loop.
        site: usize,
        /// The fused gather+fold pipelines.
        folds: Vec<VsFold>,
        /// Root: the selector.
        dag: Dag,
    },
}

/// One execution unit.
// A plan holds a handful of units; boxing the larger variant would
// save nothing measurable.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Unit {
    /// A fused loop.
    Fragment(Fragment),
    /// A bulk operation.
    Bulk(Bulk),
}

/// A compiled Voodoo program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The source program.
    pub program: Program,
    /// Inferred shapes.
    pub shapes: Shapes,
    /// Execution units in order.
    pub units: Vec<Unit>,
    /// Per-statement realization.
    pub handling: Vec<Handling>,
    /// Number of branch sites allocated.
    pub branch_sites: usize,
    /// Number of gather sites allocated.
    pub gather_sites: usize,
    /// Alias-resolved statement per statement.
    pub resolve: Vec<VRef>,
    /// Per-statement parallel-safety verdicts from the static analyzer
    /// (`voodoo-verify` pass 4). The executor *consults* these instead of
    /// re-deriving per-kernel safety rules at run time.
    pub safety: Vec<ParallelSafety>,
}

impl CompiledProgram {
    /// Number of fragments (≙ kernels) in the plan.
    pub fn fragment_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u, Unit::Fragment(_)))
            .count()
    }

    /// The fragments, in execution order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.units.iter().filter_map(|u| match u {
            Unit::Fragment(f) => Some(f),
            Unit::Bulk(_) => None,
        })
    }

    /// The analyzer's parallel-safety verdict for one statement.
    pub fn verdict(&self, v: VRef) -> ParallelSafety {
        self.safety[v.index()]
    }

    /// The analyzer's verdict for the statement a fragment action
    /// produces (actions address outputs by slot; the output spec names
    /// the producing statement).
    pub fn action_verdict(&self, frag: &Fragment, action: &Action) -> ParallelSafety {
        let out = match action {
            Action::Write { out, .. }
            | Action::FoldAggAct { out, .. }
            | Action::FoldScanAct { out, .. }
            | Action::SelectEmit { out, .. } => *out,
        };
        self.safety[frag.outputs[out].stmt.index()]
    }
}

/// The compiler: needs the catalog for shapes and sizes (paper footnote 1).
pub struct Compiler<'a> {
    catalog: &'a Catalog,
}

impl<'a> Compiler<'a> {
    /// Create a compiler over a catalog.
    pub fn new(catalog: &'a Catalog) -> Compiler<'a> {
        Compiler { catalog }
    }

    /// Compile a program into execution units.
    ///
    /// Runs the full `voodoo-verify` analyzer first — structure, shapes,
    /// sentinel domains, effects, parallel safety — so no program is ever
    /// planned unverified, and the compiled plan carries the analyzer's
    /// per-statement safety verdicts for the executor to consult.
    pub fn compile(&self, program: &Program) -> Result<CompiledProgram> {
        let analysis = voodoo_verify::analyze(program, self.catalog)?;
        Build::new(program, analysis.shapes, analysis.safety).run()
    }
}

// ---------------------------------------------------------------------
// Kernel DAGs
// ---------------------------------------------------------------------

/// Every root expression field of a unit, in declaration order.
fn unit_roots(unit: &Unit) -> Vec<&Arc<Expr>> {
    match unit {
        Unit::Fragment(f) => fragment_roots(f),
        Unit::Bulk(Bulk::ScatterOp { pos, cols, .. }) => std::iter::once(pos)
            .chain(cols.iter().map(|c| &c.2))
            .collect(),
        Unit::Bulk(Bulk::PartitionOp { key, pivot, .. }) => vec![key, pivot],
        Unit::Bulk(Bulk::GroupAgg {
            key,
            pivot,
            folds,
            scatter_cols,
            ..
        }) => [key, pivot]
            .into_iter()
            .chain(folds.iter().map(|f| &f.val))
            .chain(scatter_cols.iter().map(|c| &c.2))
            .collect(),
        Unit::Bulk(Bulk::VecSelect { sel, .. }) => vec![sel],
    }
}

/// A fragment's roots in evaluation order: the dynamic run control, then
/// each action's expression.
fn fragment_roots(f: &Fragment) -> Vec<&Arc<Expr>> {
    let ctrl = match &f.run {
        RunStructure::Dynamic(c) => Some(c),
        _ => None,
    };
    ctrl.into_iter()
        .chain(f.actions.iter().map(|a| match a {
            Action::Write { expr, .. }
            | Action::FoldAggAct { expr, .. }
            | Action::FoldScanAct { expr, .. } => expr,
            Action::SelectEmit { sel, .. } => sel,
        }))
        .collect()
}

/// Count the plan's references to every expression node (by address):
/// one per root field and one per operand edge.
fn count_refs(e: &Arc<Expr>, refs: &mut std::collections::HashMap<usize, usize>) {
    let n = refs.entry(Arc::as_ptr(e) as usize).or_insert(0);
    *n += 1;
    if *n == 1 {
        for c in e.children() {
            count_refs(c, refs);
        }
    }
}

/// Flatten every unit's expressions into its kernel DAGs, one per
/// evaluation pass, with dense node ids. A node is *shared* when the plan
/// references it more than once.
fn attach_dags(units: &mut [Unit]) {
    let mut refs = std::collections::HashMap::new();
    for unit in units.iter() {
        for r in unit_roots(unit) {
            count_refs(r, &mut refs);
        }
    }
    let shared = |e: &Arc<Expr>| refs[&(Arc::as_ptr(e) as usize)] > 1;
    for unit in units.iter_mut() {
        match unit {
            Unit::Fragment(f) => f.dag = Dag::flatten(&fragment_roots(f), &shared),
            Unit::Bulk(Bulk::ScatterOp { pos, cols, dag, .. }) => {
                let roots: Vec<_> = std::iter::once(&*pos)
                    .chain(cols.iter().map(|c| &c.2))
                    .collect();
                *dag = Dag::flatten(&roots, &shared);
            }
            Unit::Bulk(Bulk::PartitionOp {
                key,
                pivot,
                key_dag,
                pivot_dag,
                ..
            }) => {
                *key_dag = Dag::flatten(&[key], &shared);
                *pivot_dag = Dag::flatten(&[pivot], &shared);
            }
            Unit::Bulk(Bulk::GroupAgg {
                key,
                pivot,
                folds,
                scatter_cols,
                agg_dag,
                pivot_dag,
                key_dag,
                cols_dag,
                ..
            }) => {
                let agg: Vec<_> = std::iter::once(&*key)
                    .chain(folds.iter().map(|f| &f.val))
                    .collect();
                *agg_dag = Dag::flatten(&agg, &shared);
                *pivot_dag = Dag::flatten(&[pivot], &shared);
                *key_dag = Dag::flatten(&[key], &shared);
                let cols: Vec<_> = scatter_cols.iter().map(|c| &c.2).collect();
                *cols_dag = Dag::flatten(&cols, &shared);
            }
            Unit::Bulk(Bulk::VecSelect { sel, dag, .. }) => *dag = Dag::flatten(&[sel], &shared),
        }
    }
}

// ---------------------------------------------------------------------
// Compilation state machine
// ---------------------------------------------------------------------

struct FragBuild {
    domain: usize,
    run: RunStructure,
    actions: Vec<Action>,
    outputs: Vec<OutSpec>,
    /// Statements whose outputs this (still open) fragment produces.
    produces: Vec<VRef>,
}

struct Build<'p> {
    program: &'p Program,
    shapes: Shapes,
    safety: Vec<ParallelSafety>,
    consumers: Vec<Vec<VRef>>,
    needs_mat: Vec<bool>,
    handling: Vec<Handling>,
    resolve: Vec<VRef>,
    /// Per-statement, per-column fused expressions (for Inline and virtual
    /// statements; also filter streams).
    exprs: Vec<Option<Vec<Arc<Expr>>>>,
    units: Vec<Unit>,
    open: Option<FragBuild>,
    branch_sites: usize,
    gather_sites: usize,
    next_frag_id: usize,
}

impl<'p> Build<'p> {
    fn new(program: &'p Program, shapes: Shapes, safety: Vec<ParallelSafety>) -> Build<'p> {
        let n = program.len();
        let mut consumers: Vec<Vec<VRef>> = vec![Vec::new(); n];
        for (i, stmt) in program.stmts().iter().enumerate() {
            for input in stmt.op.inputs() {
                consumers[input.index()].push(VRef(i as u32));
            }
        }
        Build {
            program,
            shapes,
            safety,
            consumers,
            needs_mat: vec![false; n],
            handling: vec![Handling::Inline; n],
            resolve: (0..n).map(|i| VRef(i as u32)).collect(),
            exprs: vec![None; n],
            units: Vec::new(),
            open: None,
            branch_sites: 0,
            gather_sites: 0,
            next_frag_id: 0,
        }
    }

    fn run(mut self) -> Result<CompiledProgram> {
        self.classify();
        self.compute_needs_mat();
        for i in 0..self.program.len() {
            self.visit(VRef(i as u32))?;
        }
        self.close_open();
        attach_dags(&mut self.units);
        Ok(CompiledProgram {
            program: self.program.clone(),
            shapes: self.shapes,
            units: self.units,
            handling: self.handling,
            branch_sites: self.branch_sites,
            gather_sites: self.gather_sites,
            resolve: self.resolve,
            safety: self.safety,
        })
    }

    fn is_returned_or_persisted(&self, v: VRef) -> bool {
        self.program.returns().contains(&v)
            || self.consumers[v.index()]
                .iter()
                .any(|c| matches!(self.program.stmt(*c).op, Op::Persist { .. }))
    }

    /// Phase 1: assign handlings, detect the fused patterns.
    fn classify(&mut self) {
        let n = self.program.len();
        // Base classification.
        for i in 0..n {
            let v = VRef(i as u32);
            self.handling[i] = match &self.program.stmt(v).op {
                Op::Load { .. } => Handling::Source,
                Op::Persist { v: src, .. } => Handling::Alias(*src),
                Op::Materialize { v: src, .. } | Op::Break { v: src, .. } => Handling::Alias(*src),
                Op::Scatter { .. } | Op::Partition { .. } => Handling::BulkOut,
                op if op.is_fold() => Handling::Fold,
                _ => Handling::Inline,
            };
        }
        // Resolve alias chains.
        for i in 0..n {
            let mut t = VRef(i as u32);
            while let Handling::Alias(src) = self.handling[t.index()] {
                t = self.resolve[src.index()];
            }
            self.resolve[i] = t;
        }
        self.detect_group_agg();
        self.detect_vec_select_and_filters();
    }

    /// Consumers of `v` after alias resolution (consumers of any alias of v).
    fn real_consumers(&self, v: VRef) -> Vec<VRef> {
        let mut out = Vec::new();
        for (i, _) in self.program.stmts().iter().enumerate() {
            let c = VRef(i as u32);
            for input in self.program.stmt(c).op.inputs() {
                if self.resolve[input.index()] == self.resolve[v.index()]
                    && !matches!(self.handling[c.index()], Handling::Alias(_))
                {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Detect `Partition → Scatter → FoldAgg*` virtual-scatter patterns.
    fn detect_group_agg(&mut self) {
        for i in 0..self.program.len() {
            let p = VRef(i as u32);
            let Op::Partition { v: pv, kp: pkp, .. } = &self.program.stmt(p).op else {
                continue;
            };
            if self.is_returned_or_persisted(p) {
                continue;
            }
            let p_consumers = self.real_consumers(p);
            let [s] = p_consumers.as_slice() else {
                continue;
            };
            let s = *s;
            let Op::Scatter {
                values, positions, ..
            } = &self.program.stmt(s).op
            else {
                continue;
            };
            if self.resolve[positions.index()] != self.resolve[p.index()] {
                continue;
            }
            // The scattered values must be the partitioned vector so the
            // fold key column is the partition key.
            if self.resolve[values.index()] != self.resolve[pv.index()] {
                continue;
            }
            if self.is_returned_or_persisted(s) {
                continue;
            }
            let folds = self.real_consumers(s);
            if folds.is_empty() {
                continue;
            }
            let all_ok = folds.iter().all(|f| match &self.program.stmt(*f).op {
                Op::FoldAgg {
                    fold_kp: Some(fkp), ..
                } => fkp == pkp,
                _ => false,
            });
            if !all_ok {
                continue;
            }
            self.handling[p.index()] = Handling::GroupMember;
            self.handling[s.index()] = Handling::GroupMember;
            for f in folds {
                self.handling[f.index()] = Handling::GroupMember;
            }
        }
    }

    /// Detect fused filters (branching selection) and vectorized selection.
    fn detect_vec_select_and_filters(&mut self) {
        for i in 0..self.program.len() {
            let fs = VRef(i as u32);
            if self.handling[fs.index()] != Handling::Fold {
                continue;
            }
            let Op::FoldSelect { .. } = &self.program.stmt(fs).op else {
                continue;
            };
            if self.is_returned_or_persisted(fs) {
                continue;
            }
            let gathers = self.real_consumers(fs);
            if gathers.is_empty() {
                continue;
            }
            // All consumers must be gathers using fs as positions, with
            // materialized (non-open) sources, whose own consumers are all
            // global folds.
            let mut ok = true;
            let mut fold_members = Vec::new();
            for g in &gathers {
                match &self.program.stmt(*g).op {
                    Op::Gather {
                        source, positions, ..
                    } if self.resolve[positions.index()] == self.resolve[fs.index()]
                        && self.resolve[source.index()] != self.resolve[fs.index()] =>
                    {
                        if self.is_returned_or_persisted(*g) {
                            ok = false;
                            break;
                        }
                        let fcs = self.real_consumers(*g);
                        if fcs.is_empty() {
                            ok = false;
                            break;
                        }
                        for f in fcs {
                            match &self.program.stmt(f).op {
                                Op::FoldAgg { fold_kp: None, .. } => fold_members.push(f),
                                _ => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    break;
                }
            }
            if !ok {
                continue;
            }
            match self.shapes.fold_runs(self.program, fs) {
                FoldRuns::SingleRun => {
                    // Branching selection: fuse as filter stream.
                    self.handling[fs.index()] = Handling::FusedFilter;
                }
                FoldRuns::Uniform(l) if l > 1 && l < self.shapes.of(fs).len => {
                    // Vectorized selection: chunk-local position buffers.
                    self.handling[fs.index()] = Handling::VecSelectMember;
                    for g in &gathers {
                        self.handling[g.index()] = Handling::VecSelectMember;
                    }
                    for f in fold_members {
                        self.handling[f.index()] = Handling::VecSelectMember;
                    }
                }
                _ => {}
            }
        }
    }

    /// Phase 2: which statements must be materialized.
    fn compute_needs_mat(&mut self) {
        for i in 0..self.program.len() {
            let v = VRef(i as u32);
            let rv = self.resolve[v.index()];
            if self.program.returns().contains(&v) {
                self.needs_mat[rv.index()] = true;
            }
            match &self.program.stmt(v).op {
                Op::Persist { v: src, .. } => {
                    self.needs_mat[self.resolve[src.index()].index()] = true;
                }
                Op::Materialize { v: src, .. } | Op::Break { v: src, .. } => {
                    self.needs_mat[self.resolve[src.index()].index()] = true;
                }
                Op::Gather { source, .. } => {
                    // Positional reads require a materialized source —
                    // unless the gather was absorbed into a VecSelect (the
                    // source still needs mat there) — mark either way.
                    self.needs_mat[self.resolve[source.index()].index()] = true;
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Expression construction
    // ------------------------------------------------------------------

    /// The fused expression of `(stmt, kp)` — inline producers yield their
    /// expression tree, materialized producers a `Col` read.
    fn operand(&mut self, v: VRef, kp: &KeyPath) -> Result<Arc<Expr>> {
        let v = self.resolve[v.index()];
        let shape = self.shapes.of(v).clone();
        let col = shape
            .schema
            .index_of(kp)
            .ok_or_else(|| VoodooError::UnknownKeyPath {
                keypath: kp.clone(),
                context: format!("operand of {v}"),
            })?;
        let handled = self.handling[v.index()].clone();
        let inline_available = matches!(handled, Handling::Inline | Handling::FusedFilter)
            && !self.needs_mat_blocks_inline(v);
        if inline_available {
            self.build_exprs(v)?;
            return Ok(self.exprs[v.index()].as_ref().expect("built")[col].clone());
        }
        // Materialized producer (source, fold, bulk, group member, or an
        // inline statement that is also materialized: prefer re-computation
        // only for pure inline statements — materialized ones read back).
        let ty = shape
            .schema
            .iter()
            .nth(col)
            .map(|(_, t)| *t)
            .expect("col exists");
        Ok(Arc::new(Expr::Col {
            src: v.0,
            col: col as u16,
            width: ty.byte_width() as u8,
            broadcast: shape.len == 1,
        }))
    }

    /// Inline statements that are *also* materialized are still consumed as
    /// expressions (recompute) — cheaper than a load for short chains and
    /// always correct. Only genuinely non-inline handlings block.
    fn needs_mat_blocks_inline(&self, _v: VRef) -> bool {
        false
    }

    /// Build (and cache) the fused expressions of an inline statement.
    fn build_exprs(&mut self, v: VRef) -> Result<()> {
        if self.exprs[v.index()].is_some() {
            return Ok(());
        }
        let shape = self.shapes.of(v).clone();
        let op = self.program.stmt(v).op.clone();
        let exprs: Vec<Arc<Expr>> = match &op {
            Op::Constant { value, .. } => vec![Arc::new(Expr::Const(*value))],
            Op::Range { out, .. } => {
                let m = *shape.meta_of(out).expect("range always has metadata");
                vec![Arc::new(Expr::Form(m))]
            }
            Op::Cross { out1, out2, .. } => {
                let m1 = shape.meta_of(out1).copied();
                let m2 = shape.meta_of(out2).copied();
                match (m1, m2) {
                    (Some(m1), Some(m2)) => {
                        vec![Arc::new(Expr::Form(m1)), Arc::new(Expr::Form(m2))]
                    }
                    _ => {
                        return Err(VoodooError::Backend(
                            "cross over empty vectors cannot be inlined".to_string(),
                        ))
                    }
                }
            }
            Op::Binary {
                op: bop,
                lhs,
                lhs_kp,
                rhs,
                rhs_kp,
                ..
            } => {
                let l = self.operand_broadcast(*lhs, lhs_kp)?;
                let r = self.operand_broadcast(*rhs, rhs_kp)?;
                let lt = self.col_type(*lhs, lhs_kp)?;
                let rt = self.col_type(*rhs, rhs_kp)?;
                let ty = bop.result_type(lt, rt)?;
                let float = lt.is_float() || rt.is_float();
                vec![Arc::new(Expr::Bin {
                    op: *bop,
                    ty,
                    float,
                    l,
                    r,
                })]
            }
            Op::Zip {
                v1, kp1, v2, kp2, ..
            } => {
                let mut out = Vec::new();
                for (rel, _) in self
                    .shapes
                    .of(self.resolve[v1.index()])
                    .schema
                    .resolve(kp1, "zip")?
                {
                    let full = kp1.child(&rel.to_string());
                    out.push(self.operand_broadcast(*v1, &full)?);
                }
                for (rel, _) in self
                    .shapes
                    .of(self.resolve[v2.index()])
                    .schema
                    .resolve(kp2, "zip")?
                {
                    let full = kp2.child(&rel.to_string());
                    out.push(self.operand_broadcast(*v2, &full)?);
                }
                // Zip output schema merges; duplicates replace — rebuild in
                // schema order instead of concatenation when lengths differ.
                if out.len() != shape.schema.len() {
                    return Err(VoodooError::Backend(
                        "zip with overlapping output attributes cannot be inlined".to_string(),
                    ));
                }
                out
            }
            Op::Project { v: src, kp, .. } => {
                let mut out = Vec::new();
                for (rel, _) in self
                    .shapes
                    .of(self.resolve[src.index()])
                    .schema
                    .resolve(kp, "project")?
                {
                    let full = kp.child(&rel.to_string());
                    out.push(self.operand_broadcast(*src, &full)?);
                }
                out
            }
            Op::Upsert {
                v: base,
                out,
                src,
                kp,
            } => {
                let mut exprs = Vec::new();
                for (bkp, _) in self
                    .shapes
                    .of(self.resolve[base.index()])
                    .schema
                    .clone()
                    .iter()
                {
                    if bkp == out {
                        exprs.push(self.operand_broadcast(*src, kp)?);
                    } else {
                        exprs.push(self.operand_broadcast(*base, bkp)?);
                    }
                }
                // If `out` is a new attribute it goes last (schema order).
                if exprs.len() != shape.schema.len() {
                    exprs.push(self.operand_broadcast(*src, kp)?);
                }
                exprs
            }
            Op::Gather {
                source,
                positions,
                pos_kp,
            } => {
                let pos = self.operand_broadcast(*positions, pos_kp)?;
                let src = self.resolve[source.index()];
                let src_shape = self.shapes.of(src).clone();
                let sequential = pos.is_sequential_positions();
                // A source that was materialized *by the plan itself* (an
                // inline statement behind a Materialize) is a just-in-time
                // layout transform: its fields live in one fresh tuple
                // block, so all columns of this gather share one locality
                // site (one cache line per tuple — the Figure 14 "Layout
                // Transform" effect). Base-table columns are separate
                // allocations: one site per column.
                let transformed = matches!(self.handling[src.index()], Handling::Inline)
                    && self.needs_mat[src.index()];
                let shared_site = if transformed {
                    let s = self.gather_sites;
                    self.gather_sites += 1;
                    Some(s)
                } else {
                    None
                };
                src_shape
                    .schema
                    .iter()
                    .enumerate()
                    .map(|(ci, (_, ty))| {
                        let site = shared_site.unwrap_or_else(|| {
                            let s = self.gather_sites;
                            self.gather_sites += 1;
                            s
                        });
                        Arc::new(Expr::ColAt {
                            src: src.0,
                            col: ci as u16,
                            width: ty.byte_width() as u8,
                            pos: pos.clone(),
                            sequential,
                            src_len: src_shape.len,
                            site,
                        })
                    })
                    .collect()
            }
            Op::FoldSelect {
                v: input, sel_kp, ..
            } => {
                // Only reached for FusedFilter handling.
                let sel = self.operand_broadcast(*input, sel_kp)?;
                let site = self.branch_sites;
                self.branch_sites += 1;
                vec![Arc::new(Expr::FilterIndex { sel, site })]
            }
            other => {
                return Err(VoodooError::Backend(format!(
                    "operator {} is not inline-able",
                    other.name()
                )))
            }
        };
        self.exprs[v.index()] = Some(exprs);
        Ok(())
    }

    /// Operand with length-1 broadcast normalization.
    fn operand_broadcast(&mut self, v: VRef, kp: &KeyPath) -> Result<Arc<Expr>> {
        let e = self.operand(v, kp)?;
        let len = self.shapes.of(self.resolve[v.index()]).len;
        if len == 1 {
            // Pin virtual forms to slot 0 so they broadcast correctly.
            if let Expr::Form(m) = &*e {
                return Ok(Arc::new(Expr::Const(m.scalar_at(0))));
            }
        }
        Ok(e)
    }

    fn col_type(&self, v: VRef, kp: &KeyPath) -> Result<ScalarType> {
        let v = self.resolve[v.index()];
        self.shapes
            .of(v)
            .schema
            .field_type(kp)
            .ok_or_else(|| VoodooError::UnknownKeyPath {
                keypath: kp.clone(),
                context: format!("type of {v}"),
            })
    }

    // ------------------------------------------------------------------
    // Fragment management
    // ------------------------------------------------------------------

    fn close_open(&mut self) {
        if let Some(f) = self.open.take() {
            if !f.actions.is_empty() {
                let (extent, intent) = match &f.run {
                    RunStructure::Map => (f.domain, 1),
                    RunStructure::Uniform(l) => (f.domain.div_ceil(*l), *l),
                    RunStructure::Single | RunStructure::Dynamic(_) => (1, f.domain.max(1)),
                };
                self.units.push(Unit::Fragment(Fragment {
                    id: self.next_frag_id,
                    domain: f.domain,
                    run: f.run,
                    extent,
                    intent,
                    actions: f.actions,
                    outputs: f.outputs,
                    dag: Dag::default(),
                }));
                self.next_frag_id += 1;
            }
        }
    }

    /// Get an open fragment compatible with `(domain, run)`, closing the
    /// current one if it conflicts or if the new action reads a statement
    /// the open fragment itself produces.
    fn ensure_fragment(
        &mut self,
        domain: usize,
        run: RunStructure,
        reads: &[VRef],
    ) -> &mut FragBuild {
        let conflict = match &self.open {
            None => false,
            Some(f) => {
                f.domain != domain
                    || !f.run.compatible(&run)
                    || reads
                        .iter()
                        .any(|r| f.produces.contains(&self.resolve[r.index()]))
            }
        };
        if conflict {
            self.close_open();
        }
        if self.open.is_none() {
            self.open = Some(FragBuild {
                domain,
                run: run.clone(),
                actions: Vec::new(),
                outputs: Vec::new(),
                produces: Vec::new(),
            });
        }
        let f = self.open.as_mut().expect("just ensured");
        f.run.merge(run);
        f
    }

    /// Materialized statements an expression DAG reads.
    ///
    /// Fused expressions share subtrees (`Arc`); walking them as a tree
    /// is exponential in program length for DAG-heavy programs (bounded
    /// hash probing re-uses the cursor expression every round), so the
    /// walk memoizes visited nodes by address.
    fn expr_reads(expr: &Expr, out: &mut Vec<VRef>) {
        let mut visited = std::collections::HashSet::new();
        Self::expr_reads_inner(expr, out, &mut visited);
    }

    fn expr_reads_inner(
        expr: &Expr,
        out: &mut Vec<VRef>,
        visited: &mut std::collections::HashSet<usize>,
    ) {
        match expr {
            Expr::Col { src, .. } => out.push(VRef(*src)),
            Expr::ColAt { src, pos, .. } => {
                out.push(VRef(*src));
                if visited.insert(Arc::as_ptr(pos) as usize) {
                    Self::expr_reads_inner(pos, out, visited);
                }
            }
            Expr::Bin { l, r, .. } => {
                if visited.insert(Arc::as_ptr(l) as usize) {
                    Self::expr_reads_inner(l, out, visited);
                }
                if visited.insert(Arc::as_ptr(r) as usize) {
                    Self::expr_reads_inner(r, out, visited);
                }
            }
            Expr::FilterIndex { sel, .. } => {
                if visited.insert(Arc::as_ptr(sel) as usize) {
                    Self::expr_reads_inner(sel, out, visited);
                }
            }
            Expr::Const(_) | Expr::Form(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Statement visitation
    // ------------------------------------------------------------------

    fn visit(&mut self, v: VRef) -> Result<()> {
        match self.handling[v.index()].clone() {
            Handling::Alias(_) => {
                // Materialize and Break are pipeline breakers (§2.3, Table
                // 2): they end the open fragment. Their input, if inline,
                // must also be written out.
                if matches!(
                    self.program.stmt(v).op,
                    Op::Materialize { .. } | Op::Break { .. }
                ) {
                    let target = self.resolve[v.index()];
                    if matches!(self.handling[target.index()], Handling::Inline)
                        && self.needs_mat[target.index()]
                        && self.exprs[target.index()].is_none()
                    {
                        self.emit_write(target)?;
                    }
                    self.close_open();
                }
                Ok(())
            }
            Handling::Source | Handling::FusedFilter => Ok(()),
            Handling::Inline => {
                if self.needs_mat[v.index()] {
                    self.emit_write(v)?;
                }
                Ok(())
            }
            Handling::Fold => self.emit_fold(v),
            Handling::BulkOut => self.emit_bulk(v),
            Handling::GroupMember => {
                // Anchor the unit at the scatter statement.
                if matches!(self.program.stmt(v).op, Op::Scatter { .. }) {
                    self.emit_group_agg(v)?;
                }
                Ok(())
            }
            Handling::VecSelectMember => {
                if matches!(self.program.stmt(v).op, Op::FoldSelect { .. }) {
                    self.emit_vec_select(v)?;
                }
                Ok(())
            }
        }
    }

    fn emit_write(&mut self, v: VRef) -> Result<()> {
        self.build_exprs(v)?;
        let shape = self.shapes.of(v).clone();
        let exprs = self.exprs[v.index()].clone().expect("built");
        let mut reads = Vec::new();
        for e in &exprs {
            Self::expr_reads(e, &mut reads);
        }
        let schema: Vec<(KeyPath, ScalarType)> = shape.schema.iter().cloned().collect();
        let frag = self.ensure_fragment(shape.len, RunStructure::Map, &reads);
        for ((kp, ty), expr) in schema.into_iter().zip(exprs) {
            let out = frag.outputs.len();
            frag.outputs.push(OutSpec {
                stmt: v,
                kp,
                ty,
                layout: Layout::Full,
            });
            frag.actions.push(Action::Write { out, expr });
        }
        frag.produces.push(v);
        Ok(())
    }

    /// The run structure (and optional dynamic control expr) of a fold.
    fn fold_structure(&mut self, v: VRef) -> Result<RunStructure> {
        let (input, fold_kp) = match &self.program.stmt(v).op {
            Op::FoldSelect { v, fold_kp, .. }
            | Op::FoldAgg { v, fold_kp, .. }
            | Op::FoldScan { v, fold_kp, .. } => (*v, fold_kp.clone()),
            _ => unreachable!("fold_structure on non-fold"),
        };
        Ok(match self.shapes.fold_runs(self.program, v) {
            FoldRuns::SingleRun => RunStructure::Single,
            FoldRuns::Uniform(1) => RunStructure::Uniform(1),
            FoldRuns::Uniform(l) => RunStructure::Uniform(l),
            FoldRuns::Dynamic => {
                let kp = fold_kp.expect("dynamic implies a fold attribute");
                RunStructure::Dynamic(self.operand_broadcast(input, &kp)?)
            }
        })
    }

    fn emit_fold(&mut self, v: VRef) -> Result<()> {
        let run = self.fold_structure(v)?;
        let op = self.program.stmt(v).op.clone();
        match op {
            Op::FoldAgg {
                agg,
                out,
                v: input,
                val_kp,
                ..
            } => {
                let expr = self.operand_broadcast(input, &val_kp)?;
                let in_ty = self.col_type(input, &val_kp)?;
                let out_ty = typecheck::fold_output_type(agg, in_ty);
                let layout = match run {
                    RunStructure::Dynamic(_) => Layout::Full,
                    _ => Layout::Dense,
                };
                let mut reads = Vec::new();
                Self::expr_reads(&expr, &mut reads);
                let domain = self.shapes.of(self.resolve[input.index()]).len;
                let frag = self.ensure_fragment(domain, run, &reads);
                let slot = frag.outputs.len();
                frag.outputs.push(OutSpec {
                    stmt: v,
                    kp: out,
                    ty: out_ty,
                    layout,
                });
                frag.actions.push(Action::FoldAggAct {
                    out: slot,
                    agg,
                    expr,
                    out_ty,
                });
                frag.produces.push(v);
            }
            Op::FoldScan {
                out,
                v: input,
                val_kp,
                ..
            } => {
                let expr = self.operand_broadcast(input, &val_kp)?;
                let in_ty = self.col_type(input, &val_kp)?;
                let out_ty = typecheck::fold_output_type(AggKind::Sum, in_ty);
                let mut reads = Vec::new();
                Self::expr_reads(&expr, &mut reads);
                let domain = self.shapes.of(self.resolve[input.index()]).len;
                let frag = self.ensure_fragment(domain, run, &reads);
                let slot = frag.outputs.len();
                frag.outputs.push(OutSpec {
                    stmt: v,
                    kp: out,
                    ty: out_ty,
                    layout: Layout::Full,
                });
                frag.actions.push(Action::FoldScanAct {
                    out: slot,
                    expr,
                    out_ty,
                });
                frag.produces.push(v);
            }
            Op::FoldSelect {
                out,
                v: input,
                sel_kp,
                ..
            } => {
                let sel = self.operand_broadcast(input, &sel_kp)?;
                let mut reads = Vec::new();
                Self::expr_reads(&sel, &mut reads);
                let domain = self.shapes.of(self.resolve[input.index()]).len;
                let site = self.branch_sites;
                self.branch_sites += 1;
                let frag = self.ensure_fragment(domain, run, &reads);
                let slot = frag.outputs.len();
                frag.outputs.push(OutSpec {
                    stmt: v,
                    kp: out,
                    ty: ScalarType::I64,
                    layout: Layout::Full,
                });
                frag.actions.push(Action::SelectEmit {
                    out: slot,
                    sel,
                    site,
                });
                frag.produces.push(v);
            }
            _ => unreachable!("emit_fold on non-fold"),
        }
        Ok(())
    }

    fn emit_bulk(&mut self, v: VRef) -> Result<()> {
        self.close_open();
        let op = self.program.stmt(v).op.clone();
        match op {
            Op::Scatter {
                values,
                size_like,
                positions,
                pos_kp,
                ..
            } => {
                let vshape = self.shapes.of(self.resolve[values.index()]).clone();
                let pos = self.operand_broadcast(positions, &pos_kp)?;
                let mut cols = Vec::new();
                let schema: Vec<(KeyPath, ScalarType)> = vshape.schema.iter().cloned().collect();
                for (kp, ty) in schema {
                    let e = self.operand_broadcast(values, &kp)?;
                    cols.push((kp, ty, e));
                }
                let pos_len = self.shapes.of(self.resolve[positions.index()]).len;
                self.units.push(Unit::Bulk(Bulk::ScatterOp {
                    stmt: v,
                    domain: vshape.len.min(pos_len),
                    out_len: self.shapes.of(self.resolve[size_like.index()]).len,
                    cols,
                    pos,
                    dag: Dag::default(),
                }));
            }
            Op::Partition {
                out,
                v: input,
                kp,
                pivots,
                pivot_kp,
            } => {
                let key = self.operand_broadcast(input, &kp)?;
                let pivot = self.operand_broadcast(pivots, &pivot_kp)?;
                self.units.push(Unit::Bulk(Bulk::PartitionOp {
                    stmt: v,
                    domain: self.shapes.of(self.resolve[input.index()]).len,
                    out_kp: out,
                    key,
                    pivot,
                    pivot_len: self.shapes.of(self.resolve[pivots.index()]).len,
                    key_dag: Dag::default(),
                    pivot_dag: Dag::default(),
                }));
            }
            _ => unreachable!("emit_bulk on non-bulk"),
        }
        Ok(())
    }

    fn emit_group_agg(&mut self, scatter: VRef) -> Result<()> {
        self.close_open();
        let Op::Scatter {
            values,
            size_like,
            positions,
            ..
        } = self.program.stmt(scatter).op.clone()
        else {
            unreachable!("group agg anchored at scatter")
        };
        let partition = self.resolve[positions.index()];
        let Op::Partition {
            v: pv,
            kp: pkp,
            pivots,
            pivot_kp,
            ..
        } = self.program.stmt(partition).op.clone()
        else {
            unreachable!("pattern guaranteed a partition")
        };
        let key = self.operand_broadcast(pv, &pkp)?;
        let pivot = self.operand_broadcast(pivots, &pivot_kp)?;
        let domain = self.shapes.of(self.resolve[pv.index()]).len;
        let out_len = self.shapes.of(self.resolve[size_like.index()]).len;
        let vshape = self.shapes.of(self.resolve[values.index()]).clone();
        let mut scatter_cols = Vec::new();
        let schema: Vec<(KeyPath, ScalarType)> = vshape.schema.iter().cloned().collect();
        for (kp, ty) in &schema {
            let e = self.operand_broadcast(values, kp)?;
            scatter_cols.push((kp.clone(), *ty, e));
        }
        let key_col = vshape
            .schema
            .index_of(&pkp)
            .ok_or_else(|| VoodooError::UnknownKeyPath {
                keypath: pkp.clone(),
                context: "group-agg key".to_string(),
            })?;
        let mut folds = Vec::new();
        for f in self.real_consumers(scatter) {
            let Op::FoldAgg {
                agg, out, val_kp, ..
            } = self.program.stmt(f).op.clone()
            else {
                continue;
            };
            // The fold's value expression, over the *pre-scatter* domain:
            // aggregation is order-insensitive, so folding unscattered
            // values per bucket yields the same result (§3.1.3).
            let val = self.operand_broadcast(values, &val_kp)?;
            let in_ty = self.col_type(values, &val_kp)?;
            let val_col =
                vshape
                    .schema
                    .index_of(&val_kp)
                    .ok_or_else(|| VoodooError::UnknownKeyPath {
                        keypath: val_kp.clone(),
                        context: "group-agg value".to_string(),
                    })?;
            folds.push(GroupFold {
                stmt: f,
                agg,
                val,
                val_col,
                out_ty: typecheck::fold_output_type(agg, in_ty),
                out_kp: out,
            });
        }
        let pivot_len = self.shapes.of(self.resolve[pivots.index()]).len;
        self.units.push(Unit::Bulk(Bulk::GroupAgg {
            partition,
            scatter,
            domain,
            out_len,
            key,
            pivot,
            pivot_len,
            folds,
            scatter_cols,
            key_col,
            agg_dag: Dag::default(),
            pivot_dag: Dag::default(),
            key_dag: Dag::default(),
            cols_dag: Dag::default(),
        }));
        Ok(())
    }

    fn emit_vec_select(&mut self, fs: VRef) -> Result<()> {
        self.close_open();
        let Op::FoldSelect {
            v: input, sel_kp, ..
        } = self.program.stmt(fs).op.clone()
        else {
            unreachable!("vec select anchored at fold select")
        };
        let sel = self.operand_broadcast(input, &sel_kp)?;
        let domain = self.shapes.of(self.resolve[input.index()]).len;
        let FoldRuns::Uniform(chunk) = self.shapes.fold_runs(self.program, fs) else {
            unreachable!("pattern guaranteed uniform runs")
        };
        let site = self.branch_sites;
        self.branch_sites += 1;
        let mut folds = Vec::new();
        for g in self.real_consumers(fs) {
            let Op::Gather { source, .. } = self.program.stmt(g).op.clone() else {
                continue;
            };
            let src = self.resolve[source.index()];
            for f in self.real_consumers(g) {
                let Op::FoldAgg {
                    agg, out, val_kp, ..
                } = self.program.stmt(f).op.clone()
                else {
                    continue;
                };
                let src_shape = self.shapes.of(src).clone();
                let src_col = src_shape.schema.index_of(&val_kp).ok_or_else(|| {
                    VoodooError::UnknownKeyPath {
                        keypath: val_kp.clone(),
                        context: "vectorized-select value".to_string(),
                    }
                })?;
                let in_ty = src_shape.schema.field_type(&val_kp).expect("checked");
                folds.push(VsFold {
                    stmt: f,
                    agg,
                    src,
                    src_col,
                    out_ty: typecheck::fold_output_type(agg, in_ty),
                    out_kp: out,
                });
            }
        }
        self.units.push(Unit::Bulk(Bulk::VecSelect {
            select: fs,
            domain,
            chunk,
            sel,
            site,
            folds,
            dag: Dag::default(),
        }));
        Ok(())
    }
}
