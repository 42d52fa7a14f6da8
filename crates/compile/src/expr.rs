//! Fused expressions and their chunked, typed evaluator.
//!
//! Within a fragment, every non-materialized operator is an [`Expr`] node
//! inlined into the action that consumes it — the compiled analog of the
//! paper's fully inlined, function-call-free kernels. At prepare, the
//! compiler flattens each kernel's expressions into a [`Dag`]: dense node
//! ids in dependency order, one id per distinct node no matter how many
//! paths reach it (the hash-table cookbook reuses its probe cursor
//! dozens of times).
//!
//! [`Chunks`] evaluates a DAG **column at a time**: the kernel's domain
//! is processed in chunks of [`CHUNK`] rows, and every node is computed
//! once per chunk into a typed register — `i64` lanes for
//! `Bool`/`I32`/`I64`, `f64` lanes for `F32`/`F64`, plus an ε mask. A
//! column read borrows the source buffer's slice when its lanes already
//! have register width; every binary operator is one tight loop per
//! (operator, lane type) over whole registers. Lanes reproduce
//! [`BinOp::eval`] followed by [`ScalarValue::cast`] bit for bit.
//!
//! Evaluation optionally counts architectural events for the GPU cost
//! model. Counts are *derived* from the registers' masks: each chunk adds
//! exactly what a per-element walk of the same DAG would add, node by
//! node, only where that walk would reach the node.

use std::sync::Arc;

use voodoo_core::{BinOp, Buffer, RunMeta, ScalarType, ScalarValue};

use crate::profile::EventProfile;
use crate::repr::MatVec;

/// Rows per evaluation chunk: registers hold this many lanes, so a
/// kernel's working set stays cache resident whatever its domain.
pub const CHUNK: usize = 1024;

/// Event counters for one kernel invocation (one morsel).
pub struct Env {
    /// Whether to count events.
    pub counting: bool,
    /// Event counters (merged by the executor).
    pub profile: EventProfile,
    /// Last outcome per branch site (for the misprediction proxy).
    branch_last: Vec<i8>,
    /// Last position per gather site (for the locality proxy).
    gather_last: Vec<i64>,
    /// Whether selection sites use branch-free (predicated) emission.
    predicated: bool,
}

impl Env {
    /// Fresh counters for `branch_sites` branch and `gather_sites`
    /// gather sites.
    pub fn new(counting: bool, branch_sites: usize, gather_sites: usize) -> Env {
        Env {
            counting,
            profile: EventProfile::default(),
            branch_last: vec![-1; branch_sites],
            gather_last: vec![i64::MIN / 2; gather_sites],
            predicated: false,
        }
    }

    /// Use branch-free (cursor-arithmetic) accounting for selection
    /// sites: instead of a data-dependent branch, a predicated emission
    /// costs two extra integer ops and never flips (Ross-style
    /// predication, the paper's Figure 1 alternative).
    pub fn with_predication(mut self, predicated: bool) -> Env {
        self.predicated = predicated;
        self
    }

    /// Record a positional read at `site`: accesses within a cache line of
    /// the previous one count as sequential traffic, jumps count as random
    /// accesses into a working set of `set_bytes`.
    #[inline]
    pub fn count_gather(&mut self, site: usize, pos: i64, bytes: usize, set_bytes: u64) {
        if self.counting {
            let last = self.gather_last[site];
            self.gather_last[site] = pos;
            if (pos - last).unsigned_abs() <= 8 {
                self.profile.seq_read_bytes += bytes as u64;
            } else {
                self.profile.rand_reads += 1;
                self.profile.rand_working_set = self.profile.rand_working_set.max(set_bytes);
            }
        }
    }

    /// Record a data-dependent branch outcome at `site` — or, under
    /// predicated emission, the cursor arithmetic that replaces it.
    #[inline]
    pub fn count_branch(&mut self, site: usize, taken: bool) {
        if self.counting {
            if self.predicated {
                self.profile.int_ops += 2;
                return;
            }
            self.profile.branches += 1;
            let t = taken as i8;
            if self.branch_last[site] != t {
                self.profile.branch_flips += 1;
                self.branch_last[site] = t;
            }
        }
    }
}

/// A fused expression, as the compiler builds it (shared subtrees are
/// shared `Arc`s). Executed only through its flattened [`Dag`].
#[derive(Debug, Clone)]
pub enum Expr {
    /// A compile-time constant.
    Const(ScalarValue),
    /// A virtual control vector evaluated from its closed form (never
    /// materialized — the "purple" operators of Figure 8).
    Form(RunMeta),
    /// Sequential read of a materialized column at the loop index.
    Col {
        /// Producing statement.
        src: u32,
        /// Leaf column index within the producer's schema.
        col: u16,
        /// Element byte width (for traffic counting).
        width: u8,
        /// Whether the producer is a length-1 broadcast.
        broadcast: bool,
    },
    /// Positional read (gather) of a materialized column.
    ColAt {
        /// Producing statement.
        src: u32,
        /// Leaf column index.
        col: u16,
        /// Element byte width.
        width: u8,
        /// The position expression.
        pos: Arc<Expr>,
        /// Whether the access pattern is provably sequential.
        sequential: bool,
        /// Length of the source (for bounds checking).
        src_len: usize,
        /// Gather site id (for the locality proxy).
        site: usize,
    },
    /// Binary elementwise operator.
    Bin {
        /// The operator.
        op: BinOp,
        /// Result type.
        ty: ScalarType,
        /// Whether operands are floating point (for event classes).
        float: bool,
        /// Left operand.
        l: Arc<Expr>,
        /// Right operand.
        r: Arc<Expr>,
    },
    /// A fused `FoldSelect`: yields the row index where the selector is
    /// truthy, ε elsewhere — the stream form of a position list (paper
    /// Figure 8's pipelined selection). Evaluating it is a
    /// *data-dependent branch*.
    FilterIndex {
        /// The selector expression.
        sel: Arc<Expr>,
        /// Branch site id (for misprediction tracking).
        site: usize,
    },
}

impl Expr {
    /// The result type, when derivable without evaluation.
    pub fn static_type(&self) -> Option<ScalarType> {
        match self {
            Expr::Const(v) => Some(v.ty()),
            Expr::Form(_) => Some(ScalarType::I64),
            Expr::Bin { ty, .. } => Some(*ty),
            Expr::FilterIndex { .. } => Some(ScalarType::I64),
            _ => None,
        }
    }

    /// Whether this expression reads like a sequential position stream
    /// (used to classify gathers as coalesced vs random).
    pub fn is_sequential_positions(&self) -> bool {
        match self {
            Expr::Form(m) => m.cap.is_none() && m.step_num >= 0 && m.step_num <= m.step_den,
            Expr::FilterIndex { .. } => true, // monotone increasing indices
            _ => false,
        }
    }

    /// Whether the subtree contains a data-dependent filter.
    pub fn has_filter(&self) -> bool {
        match self {
            Expr::FilterIndex { .. } => true,
            Expr::Bin { l, r, .. } => l.has_filter() || r.has_filter(),
            Expr::ColAt { pos, .. } => pos.has_filter(),
            _ => false,
        }
    }

    /// Child expressions, left to right.
    pub fn children(&self) -> Vec<&Arc<Expr>> {
        match self {
            Expr::ColAt { pos, .. } => vec![pos],
            Expr::Bin { l, r, .. } => vec![l, r],
            Expr::FilterIndex { sel, .. } => vec![sel],
            Expr::Const(_) | Expr::Form(_) | Expr::Col { .. } => vec![],
        }
    }
}

/// Dense id of a node within one [`Dag`].
pub type NodeId = u32;

/// One node of a flattened expression DAG; operands are earlier ids.
#[derive(Debug, Clone)]
pub enum Node {
    /// See [`Expr::Const`].
    Const(ScalarValue),
    /// See [`Expr::Form`].
    Form(RunMeta),
    /// See [`Expr::Col`].
    Col {
        /// Producing statement.
        src: u32,
        /// Leaf column index.
        col: u16,
        /// Element byte width.
        width: u8,
        /// Whether the producer is a length-1 broadcast.
        broadcast: bool,
    },
    /// See [`Expr::ColAt`].
    ColAt {
        /// Producing statement.
        src: u32,
        /// Leaf column index.
        col: u16,
        /// Element byte width.
        width: u8,
        /// The position operand.
        pos: NodeId,
        /// Whether the access pattern is provably sequential.
        sequential: bool,
        /// Length of the source.
        src_len: usize,
        /// Gather site id.
        site: usize,
    },
    /// See [`Expr::Bin`].
    Bin {
        /// The operator.
        op: BinOp,
        /// Result type.
        ty: ScalarType,
        /// Whether operands are floating point (for event classes).
        float: bool,
        /// Left operand.
        l: NodeId,
        /// Right operand.
        r: NodeId,
    },
    /// See [`Expr::FilterIndex`].
    FilterIndex {
        /// The selector operand.
        sel: NodeId,
        /// Branch site id.
        site: usize,
    },
}

/// The expressions one kernel evaluates per row, flattened: `nodes` in
/// dependency order (operands first), `roots` the ids the kernel reads,
/// in the order the kernel evaluates them.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    /// Nodes, operands before their users.
    pub nodes: Vec<Node>,
    /// Per node: whether the plan references it more than once. A
    /// per-element walk evaluates a shared node once per row however
    /// many paths reach it, and an unshared node once per path; event
    /// counting reproduces exactly that.
    pub shared: Vec<bool>,
    /// The kernel's root expressions (may repeat an id).
    pub roots: Vec<NodeId>,
}

impl Dag {
    /// Flatten `roots` (in kernel evaluation order). `shared` reports
    /// whether a node is referenced more than once in the whole plan.
    /// Ids follow the post-order of a left-to-right walk from the roots,
    /// which is also the order a per-element walk first evaluates them.
    pub fn flatten(roots: &[&Arc<Expr>], shared: &dyn Fn(&Arc<Expr>) -> bool) -> Dag {
        let mut dag = Dag::default();
        let mut ids = std::collections::HashMap::new();
        for r in roots {
            let id = dag.intern(r, shared, &mut ids);
            dag.roots.push(id);
        }
        dag
    }

    fn intern(
        &mut self,
        e: &Arc<Expr>,
        shared: &dyn Fn(&Arc<Expr>) -> bool,
        ids: &mut std::collections::HashMap<usize, NodeId>,
    ) -> NodeId {
        let key = Arc::as_ptr(e) as usize;
        if let Some(&id) = ids.get(&key) {
            return id;
        }
        let node = match &**e {
            Expr::Const(v) => Node::Const(*v),
            Expr::Form(m) => Node::Form(*m),
            Expr::Col {
                src,
                col,
                width,
                broadcast,
            } => Node::Col {
                src: *src,
                col: *col,
                width: *width,
                broadcast: *broadcast,
            },
            Expr::ColAt {
                src,
                col,
                width,
                pos,
                sequential,
                src_len,
                site,
            } => Node::ColAt {
                src: *src,
                col: *col,
                width: *width,
                pos: self.intern(pos, shared, ids),
                sequential: *sequential,
                src_len: *src_len,
                site: *site,
            },
            Expr::Bin {
                op,
                ty,
                float,
                l,
                r,
            } => {
                let l = self.intern(l, shared, ids);
                let r = self.intern(r, shared, ids);
                Node::Bin {
                    op: *op,
                    ty: *ty,
                    float: *float,
                    l,
                    r,
                }
            }
            Expr::FilterIndex { sel, site } => Node::FilterIndex {
                sel: self.intern(sel, shared, ids),
                site: *site,
            },
        };
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        self.shared.push(shared(e));
        ids.insert(key, id);
        id
    }
}

// ---------------------------------------------------------------------
// Lanes and registers
// ---------------------------------------------------------------------

/// A register's lanes: `i64` for integer-class types, `f64` for floats.
#[derive(Debug, Clone, Copy)]
pub enum Lanes<'r> {
    /// `Bool` (0/1), `I32` (sign-extended) or `I64` values.
    Int(&'r [i64]),
    /// `F32` (exactly widened) or `F64` values.
    Float(&'r [f64]),
}

/// A read-only view of one register over the current chunk.
#[derive(Debug, Clone, Copy)]
pub struct View<'r> {
    /// Value type of the lanes.
    pub ty: ScalarType,
    /// The lanes.
    pub lanes: Lanes<'r>,
    /// ε mask (true = ε); `None` when no lane is ε.
    pub empty: Option<&'r [bool]>,
}

impl View<'_> {
    /// Lane `i` as a scalar of the view's type; `None` for ε.
    pub fn get(&self, i: usize) -> Option<ScalarValue> {
        if self.empty.is_some_and(|m| m[i]) {
            return None;
        }
        Some(match self.lanes {
            Lanes::Int(v) => int_scalar(self.ty, v[i]),
            Lanes::Float(v) => float_scalar(self.ty, v[i]),
        })
    }

    /// Whether lane `i` holds a value.
    #[inline]
    pub fn valid(&self, i: usize) -> bool {
        self.empty.is_none_or(|m| !m[i])
    }

    /// Truthiness of lane `i` (ε is false).
    #[inline]
    pub fn truthy(&self, i: usize) -> bool {
        self.valid(i)
            && match self.lanes {
                Lanes::Int(v) => v[i] != 0,
                Lanes::Float(v) => v[i] != 0.0,
            }
    }

    /// Lane `i` as an integer position (floats truncated, like
    /// [`ScalarValue::as_i64`]); `None` for ε.
    #[inline]
    pub fn as_i64(&self, i: usize) -> Option<i64> {
        if !self.valid(i) {
            return None;
        }
        Some(match self.lanes {
            Lanes::Int(v) => v[i],
            Lanes::Float(v) => v[i] as i64,
        })
    }

    /// Lane `i` as an integer key (floats floored) — the bucketing
    /// domain of `Partition`; `None` for ε.
    #[inline]
    pub fn key(&self, i: usize) -> Option<i64> {
        if !self.valid(i) {
            return None;
        }
        Some(match self.lanes {
            Lanes::Int(v) => v[i],
            Lanes::Float(v) => v[i].floor() as i64,
        })
    }
}

fn int_scalar(ty: ScalarType, v: i64) -> ScalarValue {
    match ty {
        ScalarType::Bool => ScalarValue::Bool(v != 0),
        ScalarType::I32 => ScalarValue::I32(v as i32),
        _ => ScalarValue::I64(v),
    }
}

fn float_scalar(ty: ScalarType, v: f64) -> ScalarValue {
    match ty {
        ScalarType::F32 => ScalarValue::F32(v as f32),
        _ => ScalarValue::F64(v),
    }
}

/// A scalar's lane bits: `(int lane, float lane)` — only the one of its
/// type's class is meaningful.
fn scalar_lane(v: ScalarValue) -> (i64, f64) {
    match v {
        ScalarValue::F32(f) => (0, f as f64),
        ScalarValue::F64(f) => (0, f),
        other => (other.as_i64(), 0.0),
    }
}

/// How a register's lanes are held.
enum Held<'a> {
    /// Computed into the register's own buffers.
    Owned,
    /// Borrowed from a source column of register width.
    IntRef(&'a [i64]),
    /// Borrowed from a source column of register width.
    FloatRef(&'a [f64]),
}

/// How a register's ε mask is held.
enum MaskHeld<'a> {
    /// No lane is ε.
    Dense,
    /// The register's own `empty` buffer.
    Owned,
    /// A slice of the source column's mask.
    Borrowed(&'a [bool]),
}

/// One node's values over the current chunk.
struct Reg<'a> {
    ty: ScalarType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    empty: Vec<bool>,
    held: Held<'a>,
    mask: MaskHeld<'a>,
    /// Lanes do not depend on the chunk (constants, broadcasts) and are
    /// filled once.
    fixed: bool,
}

impl<'a> Reg<'a> {
    fn new(ty: ScalarType) -> Reg<'a> {
        Reg {
            ty,
            ints: Vec::new(),
            floats: Vec::new(),
            empty: Vec::new(),
            held: Held::Owned,
            mask: MaskHeld::Dense,
            fixed: false,
        }
    }

    fn view(&self, len: usize) -> View<'_> {
        let lanes = match self.held {
            Held::IntRef(s) => Lanes::Int(s),
            Held::FloatRef(s) => Lanes::Float(s),
            Held::Owned if self.ty.is_float() => Lanes::Float(&self.floats[..len]),
            Held::Owned => Lanes::Int(&self.ints[..len]),
        };
        let empty = match self.mask {
            MaskHeld::Dense => None,
            MaskHeld::Owned => Some(&self.empty[..len]),
            MaskHeld::Borrowed(m) => Some(m),
        };
        View {
            ty: self.ty,
            lanes,
            empty,
        }
    }

    /// Own-buffer lanes of the register's class, sized for a chunk.
    fn own_ints(&mut self) -> &mut [i64] {
        self.held = Held::Owned;
        if self.ints.len() < CHUNK {
            self.ints.resize(CHUNK, 0);
        }
        &mut self.ints
    }

    fn own_floats(&mut self) -> &mut [f64] {
        self.held = Held::Owned;
        if self.floats.len() < CHUNK {
            self.floats.resize(CHUNK, 0.0);
        }
        &mut self.floats
    }

    fn own_empty(&mut self) -> &mut [bool] {
        self.mask = MaskHeld::Owned;
        if self.empty.len() < CHUNK {
            self.empty.resize(CHUNK, false);
        }
        &mut self.empty
    }

    /// Fill every lane with one (possibly ε) value.
    fn fill(&mut self, v: Option<ScalarValue>) {
        match v {
            None => {
                self.own_ints().fill(0);
                self.own_floats().fill(0.0);
                self.own_empty().fill(true);
            }
            Some(v) => {
                let (i, f) = scalar_lane(v.cast(self.ty));
                if self.ty.is_float() {
                    self.own_floats().fill(f);
                } else {
                    self.own_ints().fill(i);
                }
                self.mask = MaskHeld::Dense;
            }
        }
        self.fixed = true;
    }
}

/// A materialized source column resolved for typed access.
pub(crate) enum SourceCol<'a> {
    /// A padded column: direct buffer access.
    Full(&'a Buffer, &'a [bool]),
    /// A suppressed layout: slot lookups through [`MatVec::get`].
    Suppressed(&'a MatVec, usize),
}

impl<'a> SourceCol<'a> {
    /// Resolve column `col` of statement `src`'s materialized value.
    pub(crate) fn resolve(sources: &'a [Option<Arc<MatVec>>], src: u32, col: u16) -> SourceCol<'a> {
        let mv = sources[src as usize]
            .as_deref()
            .expect("kernel source materialized before use");
        match mv {
            MatVec::Full(sv) => {
                let (_, c) = sv
                    .fields()
                    .nth(col as usize)
                    .expect("kernel column within the source schema");
                SourceCol::Full(c.buffer(), c.empty_mask())
            }
            other => SourceCol::Suppressed(other, col as usize),
        }
    }

    fn ty(&self) -> ScalarType {
        match self {
            SourceCol::Full(b, _) => b.ty(),
            SourceCol::Suppressed(mv, col) => mv
                .storage()
                .fields()
                .nth(*col)
                .map(|(_, c)| c.ty())
                .expect("kernel column within the source schema"),
        }
    }

    /// Slot `i`; `None` for ε.
    pub(crate) fn get(&self, i: usize) -> Option<ScalarValue> {
        match self {
            SourceCol::Full(b, e) => (!e[i]).then(|| b.get(i)),
            SourceCol::Suppressed(mv, col) => mv.get(*col, i),
        }
    }
}

/// Copy `idx(k)` of a source into lane `k` for `k < len`; `idx` returns
/// `None` for lanes that must be ε.
fn gather_lanes(
    src: &SourceCol<'_>,
    len: usize,
    idx: impl Fn(usize) -> Option<usize>,
    ints: &mut [i64],
    floats: &mut [f64],
    empty: &mut [bool],
) {
    macro_rules! typed {
        ($data:expr, $mask:expr, $out:expr, $conv:expr) => {
            for k in 0..len {
                match idx(k) {
                    Some(p) => {
                        $out[k] = $conv($data[p]);
                        empty[k] = $mask[p];
                    }
                    None => {
                        $out[k] = Default::default();
                        empty[k] = true;
                    }
                }
            }
        };
    }
    match src {
        SourceCol::Full(Buffer::I64(d), m) => typed!(d, m, ints, |v: i64| v),
        SourceCol::Full(Buffer::I32(d), m) => typed!(d, m, ints, |v: i32| v as i64),
        SourceCol::Full(Buffer::Bool(d), m) => typed!(d, m, ints, |v: bool| v as i64),
        SourceCol::Full(Buffer::F64(d), m) => typed!(d, m, floats, |v: f64| v),
        SourceCol::Full(Buffer::F32(d), m) => typed!(d, m, floats, |v: f32| v as f64),
        SourceCol::Suppressed(..) => {
            for k in 0..len {
                match idx(k).and_then(|p| src.get(p)) {
                    Some(v) => {
                        let (i, f) = scalar_lane(v);
                        ints[k] = i;
                        floats[k] = f;
                        empty[k] = false;
                    }
                    None => {
                        ints[k] = 0;
                        floats[k] = 0.0;
                        empty[k] = true;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lane kernels
// ---------------------------------------------------------------------

/// Scratch conversions of operand lanes to another lane class.
#[derive(Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
    ia: Vec<i64>,
    ib: Vec<i64>,
}

fn as_f64_lanes<'s>(v: &View<'s>, buf: &'s mut Vec<f64>) -> &'s [f64] {
    match v.lanes {
        Lanes::Float(f) => f,
        Lanes::Int(i) => {
            buf.clear();
            buf.extend(i.iter().map(|&x| x as f64));
            buf
        }
    }
}

fn as_i64_lanes<'s>(v: &View<'s>, buf: &'s mut Vec<i64>) -> &'s [i64] {
    match v.lanes {
        Lanes::Int(i) => i,
        Lanes::Float(f) => {
            buf.clear();
            buf.extend(f.iter().map(|&x| x as i64));
            buf
        }
    }
}

/// `f64::total_cmp` as an integer key: comparing keys orders floats
/// exactly like `total_cmp` (−0.0 < +0.0, NaNs at the ends), in a form
/// the compiler vectorizes.
#[inline(always)]
pub(crate) fn total_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ ((((b >> 63) as u64) >> 1) as i64)
}

#[inline(always)]
fn zip_map<A: Copy, B: Copy, O>(a: &[A], b: &[B], out: &mut [O], f: impl Fn(A, B) -> O) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// The type `BinOp::eval` produces for operands of these types, before
/// the cast to the node's result type.
fn natural_type(op: BinOp, lt: ScalarType, rt: ScalarType) -> ScalarType {
    if op.is_comparison() || op.is_logical() {
        ScalarType::Bool
    } else if op == BinOp::BitShift {
        ScalarType::I64
    } else {
        BinOp::promote(lt, rt)
    }
}

/// `out = cast(l op r)` over `len` lanes, into `out`'s own buffers
/// (lanes of `out.ty`'s class). ε is handled by the caller.
fn bin_lanes(
    op: BinOp,
    l: &View<'_>,
    r: &View<'_>,
    len: usize,
    out: &mut Reg<'_>,
    s: &mut Scratch,
) {
    use BinOp::*;
    let nt = natural_type(op, l.ty, r.ty);
    let float_operands = l.ty.is_float() || r.ty.is_float();
    if op.is_comparison() {
        let o = &mut out.own_ints()[..len];
        if float_operands {
            let a = as_f64_lanes(l, &mut s.a);
            let b = as_f64_lanes(r, &mut s.b);
            let cmp = |f: fn(i64, i64) -> bool| {
                move |x: f64, y: f64| f(total_key(x), total_key(y)) as i64
            };
            match op {
                Greater => zip_map(a, b, o, cmp(|x, y| x > y)),
                GreaterEquals => zip_map(a, b, o, cmp(|x, y| x >= y)),
                Less => zip_map(a, b, o, cmp(|x, y| x < y)),
                LessEquals => zip_map(a, b, o, cmp(|x, y| x <= y)),
                Equals => zip_map(a, b, o, cmp(|x, y| x == y)),
                _ => zip_map(a, b, o, cmp(|x, y| x != y)),
            }
        } else {
            let (Lanes::Int(a), Lanes::Int(b)) = (l.lanes, r.lanes) else {
                unreachable!("integer-class operands hold i64 lanes")
            };
            match op {
                Greater => zip_map(a, b, o, |x, y| (x > y) as i64),
                GreaterEquals => zip_map(a, b, o, |x, y| (x >= y) as i64),
                Less => zip_map(a, b, o, |x, y| (x < y) as i64),
                LessEquals => zip_map(a, b, o, |x, y| (x <= y) as i64),
                Equals => zip_map(a, b, o, |x, y| (x == y) as i64),
                _ => zip_map(a, b, o, |x, y| (x != y) as i64),
            }
        }
    } else if op.is_logical() {
        let truth = |v: &View<'_>, buf: &mut Vec<i64>| {
            buf.clear();
            match v.lanes {
                Lanes::Int(i) => buf.extend(i.iter().map(|&x| (x != 0) as i64)),
                Lanes::Float(f) => buf.extend(f.iter().map(|&x| (x != 0.0) as i64)),
            }
        };
        truth(l, &mut s.ia);
        truth(r, &mut s.ib);
        let o = &mut out.own_ints()[..len];
        if op == LogicalAnd {
            zip_map(&s.ia, &s.ib, o, |x, y| x & y);
        } else {
            zip_map(&s.ia, &s.ib, o, |x, y| x | y);
        }
    } else if op == BitShift {
        let a = as_i64_lanes(l, &mut s.ia);
        let b = as_i64_lanes(r, &mut s.ib);
        zip_map(a, b, &mut out.own_ints()[..len], |x, y| x << (y & 63));
    } else if nt.is_float() {
        let a = as_f64_lanes(l, &mut s.a);
        let b = as_f64_lanes(r, &mut s.b);
        let o = &mut out.own_floats()[..len];
        match op {
            Add => zip_map(a, b, o, |x, y| x + y),
            Subtract => zip_map(a, b, o, |x, y| x - y),
            Multiply => zip_map(a, b, o, |x, y| x * y),
            Divide => zip_map(a, b, o, |x, y| x / y),
            _ => zip_map(a, b, o, |x, y| x % y),
        }
        if nt == ScalarType::F32 {
            o.iter_mut().for_each(|x| *x = *x as f32 as f64);
        }
    } else {
        let (Lanes::Int(a), Lanes::Int(b)) = (l.lanes, r.lanes) else {
            unreachable!("integer promotion implies integer operands")
        };
        let o = &mut out.own_ints()[..len];
        match op {
            Add => zip_map(a, b, o, i64::wrapping_add),
            Subtract => zip_map(a, b, o, i64::wrapping_sub),
            Multiply => zip_map(a, b, o, i64::wrapping_mul),
            Divide => zip_map(a, b, o, |x, y| if y == 0 { 0 } else { x.wrapping_div(y) }),
            _ => zip_map(a, b, o, |x, y| if y == 0 { 0 } else { x.wrapping_rem(y) }),
        }
        if nt == ScalarType::I32 {
            o.iter_mut().for_each(|x| *x = *x as i32 as i64);
        }
    }
    cast_in_place(out, nt, len);
}

/// Whether lanes holding `from` values already hold the same values
/// cast to `to` (exact widenings).
fn lanes_hold(from: ScalarType, to: ScalarType) -> bool {
    use ScalarType::*;
    from == to || matches!((from, to), (Bool | I32, I64) | (Bool, I32) | (F32, F64))
}

/// `v`'s lanes cast to `ty` with [`ScalarValue::cast`]'s semantics:
/// borrowed when they already hold `ty` values, else converted into one
/// of the two buffers.
pub(crate) fn cast_lanes<'r>(
    v: &View<'r>,
    ty: ScalarType,
    ints: &'r mut Vec<i64>,
    floats: &'r mut Vec<f64>,
) -> Lanes<'r> {
    use ScalarType::*;
    if lanes_hold(v.ty, ty) {
        return v.lanes;
    }
    fn conv<S: Copy, T>(src: &[S], dst: &mut Vec<T>, f: impl Fn(S) -> T) {
        dst.clear();
        dst.extend(src.iter().map(|&x| f(x)));
    }
    match (v.lanes, ty) {
        (Lanes::Int(x), Bool) => conv(x, ints, |x| (x != 0) as i64),
        (Lanes::Int(x), I32) => conv(x, ints, |x| x as i32 as i64),
        (Lanes::Int(x), I64) => conv(x, ints, |x| x),
        (Lanes::Int(x), F32) => conv(x, floats, |x| x as f64 as f32 as f64),
        (Lanes::Int(x), F64) => conv(x, floats, |x| x as f64),
        (Lanes::Float(x), Bool) => conv(x, ints, |x| (x != 0.0) as i64),
        (Lanes::Float(x), I32) => conv(x, ints, |x| x as i64 as i32 as i64),
        (Lanes::Float(x), I64) => conv(x, ints, |x| x as i64),
        (Lanes::Float(x), F32) => conv(x, floats, |x| x as f32 as f64),
        (Lanes::Float(x), F64) => conv(x, floats, |x| x),
    }
    if ty.is_float() {
        Lanes::Float(floats)
    } else {
        Lanes::Int(ints)
    }
}

/// Re-type `out`'s lanes, currently holding values of type `from`, to
/// `out.ty`.
fn cast_in_place(out: &mut Reg<'_>, from: ScalarType, len: usize) {
    if lanes_hold(from, out.ty) {
        return;
    }
    let (ni, nf) = (
        std::mem::take(&mut out.ints),
        std::mem::take(&mut out.floats),
    );
    let natural = View {
        ty: from,
        lanes: if from.is_float() {
            Lanes::Float(&nf[..len])
        } else {
            Lanes::Int(&ni[..len])
        },
        empty: None,
    };
    // Not an exact widening, so the cast lands in `ints` or `floats`.
    let (mut ints, mut floats) = (Vec::new(), Vec::new());
    cast_lanes(&natural, out.ty, &mut ints, &mut floats);
    (out.ints, out.floats) = (ni, nf);
    if out.ty.is_float() {
        out.own_floats()[..len].copy_from_slice(&floats);
    } else {
        out.own_ints()[..len].copy_from_slice(&ints);
    }
}

/// Write lanes `[a, b)` of `v`, cast to the buffer's type, to
/// `dst[off..]`; ε lanes keep the destination's ε and zero value.
pub(crate) fn store_lanes(
    v: &View<'_>,
    a: usize,
    b: usize,
    dst: &mut Buffer,
    dst_empty: &mut [bool],
    off: usize,
) {
    macro_rules! st {
        ($d:expr, $src:expr, $conv:expr) => {{
            let d = &mut $d[off..off + (b - a)];
            let e = &mut dst_empty[off..off + (b - a)];
            match v.empty {
                None => {
                    for (o, &x) in d.iter_mut().zip(&$src[a..b]) {
                        *o = $conv(x);
                    }
                    e.fill(false);
                }
                Some(m) => {
                    for k in 0..(b - a) {
                        if !m[a + k] {
                            d[k] = $conv($src[a + k]);
                            e[k] = false;
                        }
                    }
                }
            }
        }};
    }
    match (dst, v.lanes) {
        (Buffer::I64(d), Lanes::Int(s)) => st!(d, s, |x: i64| x),
        (Buffer::I32(d), Lanes::Int(s)) => st!(d, s, |x: i64| x as i32),
        (Buffer::Bool(d), Lanes::Int(s)) => st!(d, s, |x: i64| x != 0),
        (Buffer::F64(d), Lanes::Int(s)) => st!(d, s, |x: i64| x as f64),
        (Buffer::F32(d), Lanes::Int(s)) => st!(d, s, |x: i64| x as f64 as f32),
        (Buffer::I64(d), Lanes::Float(s)) => st!(d, s, |x: f64| x as i64),
        (Buffer::I32(d), Lanes::Float(s)) => st!(d, s, |x: f64| x as i64 as i32),
        (Buffer::Bool(d), Lanes::Float(s)) => st!(d, s, |x: f64| x != 0.0),
        (Buffer::F64(d), Lanes::Float(s)) => st!(d, s, |x: f64| x),
        (Buffer::F32(d), Lanes::Float(s)) => st!(d, s, |x: f64| x as f32),
    }
}

// ---------------------------------------------------------------------
// The chunked evaluator
// ---------------------------------------------------------------------

/// Which rows of the current chunk a kernel evaluates a root at.
#[derive(Debug, Clone, Copy)]
pub enum Active<'m> {
    /// Every row.
    All,
    /// Rows `[0, n)` of the chunk.
    Prefix(usize),
    /// Rows whose flag is set.
    Lanes(&'m [bool]),
}

impl Active<'_> {
    #[inline]
    fn at(&self, i: usize) -> u32 {
        match self {
            Active::All => 1,
            Active::Prefix(n) => (i < *n) as u32,
            Active::Lanes(m) => m[i] as u32,
        }
    }
}

/// Evaluates one [`Dag`] chunk by chunk over a kernel's rows. Registers
/// are allocated once (chunk-sized) and reused for every chunk.
pub struct Chunks<'a> {
    dag: &'a Dag,
    regs: Vec<Reg<'a>>,
    srcs: Vec<Option<SourceCol<'a>>>,
    scratch: Scratch,
    len: usize,
    /// Per node × lane evaluation counts (counting mode only).
    evals: Vec<u32>,
    calls: Vec<u32>,
    /// Random-access gathers grouped by locality site (one site's
    /// gathers share their position operand), each in id order.
    gather_groups: Vec<Vec<usize>>,
}

impl<'a> Chunks<'a> {
    /// An evaluator of `dag` over the materialized `sources`.
    pub fn new(dag: &'a Dag, sources: &'a [Option<Arc<MatVec>>], counting: bool) -> Chunks<'a> {
        let mut srcs = Vec::with_capacity(dag.nodes.len());
        let mut regs = Vec::with_capacity(dag.nodes.len());
        for node in &dag.nodes {
            let (src, ty) = match node {
                Node::Const(v) => (None, v.ty()),
                Node::Form(_) | Node::FilterIndex { .. } => (None, ScalarType::I64),
                Node::Col { src, col, .. } | Node::ColAt { src, col, .. } => {
                    let s = SourceCol::resolve(sources, *src, *col);
                    let ty = s.ty();
                    (Some(s), ty)
                }
                Node::Bin { ty, .. } => (None, *ty),
            };
            srcs.push(src);
            regs.push(Reg::new(ty));
        }
        let n = if counting { dag.nodes.len() * CHUNK } else { 0 };
        let mut gather_groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (m, node) in dag.nodes.iter().enumerate() {
            if let Node::ColAt {
                site,
                sequential: false,
                ..
            } = node
            {
                match gather_groups.iter_mut().find(|(s, _)| s == site) {
                    Some((_, g)) => g.push(m),
                    None => gather_groups.push((*site, vec![m])),
                }
            }
        }
        Chunks {
            dag,
            regs,
            srcs,
            scratch: Scratch::default(),
            len: 0,
            evals: vec![0; n],
            calls: vec![0; n],
            gather_groups: gather_groups.into_iter().map(|(_, g)| g).collect(),
        }
    }

    /// The current chunk's values of root `k`.
    pub fn root(&self, k: usize) -> View<'_> {
        self.regs[self.dag.roots[k] as usize].view(self.len)
    }

    /// Compute every node over rows `[start, start + len)`, `len ≤ CHUNK`.
    pub fn compute(&mut self, start: usize, len: usize) {
        debug_assert!(len <= CHUNK);
        self.len = len;
        for n in 0..self.dag.nodes.len() {
            let (lo, hi) = self.regs.split_at_mut(n);
            let out = &mut hi[0];
            match &self.dag.nodes[n] {
                Node::Const(v) => {
                    if !out.fixed {
                        out.fill(Some(*v));
                    }
                }
                Node::Form(m) => {
                    let o = &mut out.own_ints()[..len];
                    if m.step_den == 1 && m.cap.is_none() {
                        for (k, x) in o.iter_mut().enumerate() {
                            *x = m
                                .from
                                .wrapping_add(((start + k) as i64).wrapping_mul(m.step_num));
                        }
                    } else {
                        for (k, x) in o.iter_mut().enumerate() {
                            *x = m.value_at(start + k);
                        }
                    }
                    out.mask = MaskHeld::Dense;
                }
                Node::Col { broadcast, .. } => {
                    let src = self.srcs[n].as_ref().expect("column source");
                    if *broadcast {
                        if !out.fixed {
                            out.fill(src.get(0));
                        }
                        continue;
                    }
                    col_lanes(src, start, len, out);
                }
                Node::ColAt { pos, src_len, .. } => {
                    let src = self.srcs[n].as_ref().expect("column source");
                    let pv = lo[*pos as usize].view(len);
                    let idx = |k: usize| in_bounds(&pv, k, *src_len).map(|p| p as usize);
                    out.own_ints();
                    out.own_floats();
                    out.own_empty();
                    gather_lanes(
                        src,
                        len,
                        idx,
                        &mut out.ints,
                        &mut out.floats,
                        &mut out.empty,
                    );
                    if !out.empty[..len].contains(&true) {
                        out.mask = MaskHeld::Dense;
                    }
                }
                Node::Bin { op, l, r, .. } => {
                    let lv = lo[*l as usize].view(len);
                    let rv = lo[*r as usize].view(len);
                    bin_lanes(*op, &lv, &rv, len, out, &mut self.scratch);
                    match (lv.empty, rv.empty) {
                        (None, None) => out.mask = MaskHeld::Dense,
                        (Some(a), None) | (None, Some(a)) => {
                            out.own_empty()[..len].copy_from_slice(a)
                        }
                        (Some(a), Some(b)) => {
                            zip_map(a, b, &mut out.own_empty()[..len], |x, y| x | y)
                        }
                    }
                }
                Node::FilterIndex { sel, .. } => {
                    let sv = lo[*sel as usize].view(len);
                    let o = &mut out.own_ints()[..len];
                    for (k, x) in o.iter_mut().enumerate() {
                        *x = (start + k) as i64;
                    }
                    let e = &mut out.own_empty()[..len];
                    for (k, x) in e.iter_mut().enumerate() {
                        *x = !sv.truthy(k);
                    }
                }
            }
        }
    }

    /// Add the current chunk's events to `env`: exactly what a
    /// per-element walk of the DAG adds when it evaluates root `k` at the
    /// rows `active[k]` selects. A shared node is evaluated once per row
    /// however many paths reach it, an unshared one once per path; the
    /// right operand of a `Bin` is reached only where the left is valid,
    /// and a gather reads only where its position is valid and in bounds.
    pub fn count(&mut self, active: &[Active<'_>], env: &mut Env) {
        if !env.counting {
            return;
        }
        let len = self.len;
        let nodes = &self.dag.nodes;
        for n in 0..nodes.len() {
            self.calls[n * CHUNK..n * CHUNK + len].fill(0);
            self.evals[n * CHUNK..n * CHUNK + len].fill(0);
        }
        for (k, &root) in self.dag.roots.iter().enumerate() {
            let ev = &mut self.evals[root as usize * CHUNK..][..len];
            for (i, e) in ev.iter_mut().enumerate() {
                *e += active[k].at(i);
            }
        }
        // Operands have smaller ids: walk users before their operands.
        for n in (0..nodes.len()).rev() {
            let (evals, calls) = (&mut self.evals, &self.calls);
            let shared = self.dag.shared[n];
            for i in 0..len {
                let c = calls[n * CHUNK + i];
                evals[n * CHUNK + i] += if shared { c.min(1) } else { c };
            }
            let ev = &self.evals[n * CHUNK..][..len];
            let mut add = |child: NodeId, only: Option<View<'_>>| {
                let calls = &mut self.calls[child as usize * CHUNK..][..len];
                for i in 0..len {
                    if only.is_none_or(|v| v.valid(i)) {
                        calls[i] += ev[i];
                    }
                }
            };
            match &nodes[n] {
                Node::ColAt { pos, .. } => add(*pos, None),
                Node::FilterIndex { sel, .. } => add(*sel, None),
                Node::Bin { l, r, .. } => {
                    add(*l, None);
                    add(*r, Some(self.regs[*l as usize].view(len)));
                }
                _ => {}
            }
        }
        for (n, node) in nodes.iter().enumerate() {
            let ev = &self.evals[n * CHUNK..][..len];
            let p = &mut env.profile;
            match node {
                Node::Col { width, .. } => {
                    let total: u64 = ev.iter().map(|&e| e as u64).sum();
                    p.seq_read_bytes += total * *width as u64;
                }
                Node::Bin {
                    op, float, l, r, ..
                } => {
                    let (lv, rv) = (
                        self.regs[*l as usize].view(len),
                        self.regs[*r as usize].view(len),
                    );
                    let total: u64 = (0..len)
                        .filter(|&i| lv.valid(i) && rv.valid(i))
                        .map(|i| ev[i] as u64)
                        .sum();
                    if op.is_comparison() || op.is_logical() {
                        p.cmp_ops += total;
                    } else if *float {
                        p.float_ops += total;
                    } else {
                        p.int_ops += total;
                    }
                }
                _ => {}
            }
        }
        self.count_sites(env);
    }

    /// The order-dependent counters: per gather site and branch site, the
    /// rows in order and, within a row, the site's nodes in evaluation
    /// order (ids follow it), carrying each site's state across chunks.
    fn count_sites(&mut self, env: &mut Env) {
        let len = self.len;
        let nodes = &self.dag.nodes;
        for group in &self.gather_groups {
            for i in 0..len {
                for &m in group {
                    let Node::ColAt {
                        width,
                        pos,
                        src_len,
                        site,
                        ..
                    } = &nodes[m]
                    else {
                        unreachable!("gather groups hold gathers")
                    };
                    let pv = self.regs[*pos as usize].view(len);
                    let Some(p) = in_bounds(&pv, i, *src_len) else {
                        continue;
                    };
                    let set = (*src_len as u64) * (*width as u64);
                    for _ in 0..self.evals[m * CHUNK + i] {
                        env.count_gather(*site, p, *width as usize, set);
                    }
                }
            }
        }
        for (n, node) in nodes.iter().enumerate() {
            let ev = &self.evals[n * CHUNK..][..len];
            match node {
                Node::ColAt {
                    width,
                    pos,
                    sequential: true,
                    src_len,
                    ..
                } => {
                    let pv = self.regs[*pos as usize].view(len);
                    let total: u64 = (0..len)
                        .filter(|&i| in_bounds(&pv, i, *src_len).is_some())
                        .map(|i| ev[i] as u64)
                        .sum();
                    env.profile.seq_read_bytes += total * *width as u64;
                }
                Node::FilterIndex { sel, site } => {
                    let sv = self.regs[*sel as usize].view(len);
                    for (i, &e) in ev.iter().enumerate() {
                        let taken = sv.truthy(i);
                        for _ in 0..e {
                            env.count_branch(*site, taken);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Lane `i` of a position register when it addresses a slot of a
/// `src_len`-slot source.
#[inline]
fn in_bounds(pv: &View<'_>, i: usize, src_len: usize) -> Option<i64> {
    if !pv.valid(i) {
        return None;
    }
    let p = match pv.lanes {
        Lanes::Int(v) => v[i],
        Lanes::Float(v) => v[i] as i64,
    };
    (p >= 0 && (p as usize) < src_len).then_some(p)
}

/// Sequential column read of rows `[start, start + len)`: borrowed when
/// the source already holds register-width lanes.
fn col_lanes<'a>(src: &SourceCol<'a>, start: usize, len: usize, out: &mut Reg<'a>) {
    match src {
        SourceCol::Full(buf, mask) => {
            let m = &mask[start..start + len];
            out.mask = if m.contains(&true) {
                MaskHeld::Borrowed(m)
            } else {
                MaskHeld::Dense
            };
            match buf {
                Buffer::I64(d) => out.held = Held::IntRef(&d[start..start + len]),
                Buffer::F64(d) => out.held = Held::FloatRef(&d[start..start + len]),
                Buffer::I32(d) => {
                    let o = out.own_ints();
                    for (o, &x) in o.iter_mut().zip(&d[start..start + len]) {
                        *o = x as i64;
                    }
                }
                Buffer::Bool(d) => {
                    let o = out.own_ints();
                    for (o, &x) in o.iter_mut().zip(&d[start..start + len]) {
                        *o = x as i64;
                    }
                }
                Buffer::F32(d) => {
                    let o = out.own_floats();
                    for (o, &x) in o.iter_mut().zip(&d[start..start + len]) {
                        *o = x as f64;
                    }
                }
            }
        }
        SourceCol::Suppressed(..) => {
            out.own_ints();
            out.own_floats();
            out.own_empty();
            gather_lanes(
                src,
                len,
                |k| Some(start + k),
                &mut out.ints,
                &mut out.floats,
                &mut out.empty,
            );
            if !out.empty[..len].contains(&true) {
                out.mask = MaskHeld::Dense;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_core::{Column, StructuredVector};

    fn src_of(vals: Vec<i64>) -> Vec<Option<Arc<MatVec>>> {
        vec![Some(Arc::new(MatVec::Full(StructuredVector::from_buffer(
            ".val",
            Buffer::I64(vals),
        ))))]
    }

    fn col0() -> Arc<Expr> {
        Arc::new(Expr::Col {
            src: 0,
            col: 0,
            width: 8,
            broadcast: false,
        })
    }

    fn dag_of(e: Expr) -> Dag {
        Dag::flatten(&[&Arc::new(e)], &|_| false)
    }

    fn eval_all(
        dag: &Dag,
        sources: &[Option<Arc<MatVec>>],
        n: usize,
        env: &mut Env,
    ) -> Vec<Option<ScalarValue>> {
        let mut ch = Chunks::new(dag, sources, env.counting);
        let mut out = Vec::new();
        let mut s = 0;
        while s < n {
            let len = CHUNK.min(n - s);
            ch.compute(s, len);
            ch.count(&[Active::All], env);
            out.extend((0..len).map(|i| ch.root(0).get(i)));
            s += len;
        }
        out
    }

    #[test]
    fn col_and_bin() {
        let sources = src_of(vec![10, 20, 30]);
        let mut env = Env::new(false, 0, 4);
        let dag = dag_of(Expr::Bin {
            op: BinOp::Add,
            ty: ScalarType::I64,
            float: false,
            l: col0(),
            r: Arc::new(Expr::Const(ScalarValue::I64(5))),
        });
        assert_eq!(
            eval_all(&dag, &sources, 3, &mut env)[1],
            Some(ScalarValue::I64(25))
        );
    }

    #[test]
    fn form_is_virtual() {
        let sources: Vec<Option<Arc<MatVec>>> = vec![];
        let mut env = Env::new(true, 0, 4);
        let dag = dag_of(Expr::Form(RunMeta::range(3, 2)));
        assert_eq!(
            eval_all(&dag, &sources, 5, &mut env)[4],
            Some(ScalarValue::I64(11))
        );
        // No reads counted — the control vector is never materialized.
        assert_eq!(env.profile.seq_read_bytes, 0);
    }

    #[test]
    fn filter_counts_branches_and_flips() {
        let sources = src_of(vec![1, 0, 0, 1]);
        let mut env = Env::new(true, 1, 4);
        let dag = dag_of(Expr::FilterIndex {
            sel: col0(),
            site: 0,
        });
        let out = eval_all(&dag, &sources, 4, &mut env);
        assert_eq!(
            out,
            vec![
                Some(ScalarValue::I64(0)),
                None,
                None,
                Some(ScalarValue::I64(3))
            ]
        );
        assert_eq!(env.profile.branches, 4);
        // Outcomes: T,F,F,T → 3 flips (initial counts as one).
        assert_eq!(env.profile.branch_flips, 3);
    }

    #[test]
    fn gather_bounds_to_epsilon() {
        let sources = src_of(vec![10, 20]);
        let mut env = Env::new(true, 0, 4);
        let dag = dag_of(Expr::ColAt {
            src: 0,
            col: 0,
            width: 8,
            pos: Arc::new(Expr::Const(ScalarValue::I64(7))),
            sequential: false,
            src_len: 2,
            site: 0,
        });
        assert_eq!(eval_all(&dag, &sources, 1, &mut env)[0], None);
        // Out-of-bounds short-circuits before any read is counted.
        assert_eq!(env.profile.rand_reads, 0);
    }

    #[test]
    fn random_gather_counted() {
        let sources = src_of(vec![10, 20]);
        let mut env = Env::new(true, 0, 4);
        let dag = dag_of(Expr::ColAt {
            src: 0,
            col: 0,
            width: 8,
            pos: Arc::new(Expr::Const(ScalarValue::I64(1))),
            sequential: false,
            src_len: 2,
            site: 0,
        });
        assert_eq!(
            eval_all(&dag, &sources, 1, &mut env)[0],
            Some(ScalarValue::I64(20))
        );
        assert_eq!(env.profile.rand_reads, 1);
    }

    #[test]
    fn broadcast_reads_slot_zero() {
        let sources = src_of(vec![42]);
        let mut env = Env::new(false, 0, 4);
        let dag = dag_of(Expr::Col {
            src: 0,
            col: 0,
            width: 8,
            broadcast: true,
        });
        assert_eq!(
            eval_all(&dag, &sources, 101, &mut env)[100],
            Some(ScalarValue::I64(42))
        );
    }

    #[test]
    fn epsilon_short_circuits_bin() {
        let mut sv = StructuredVector::with_len(1);
        let mut c = Column::empties(ScalarType::I64, 1);
        c.clear(0);
        sv.insert(".val", c);
        let sources = vec![Some(Arc::new(MatVec::Full(sv)))];
        let mut env = Env::new(true, 0, 4);
        let dag = dag_of(Expr::Bin {
            op: BinOp::Add,
            ty: ScalarType::I64,
            float: false,
            l: col0(),
            r: Arc::new(Expr::Col {
                src: 0,
                col: 0,
                width: 8,
                broadcast: false,
            }),
        });
        assert_eq!(eval_all(&dag, &sources, 1, &mut env)[0], None);
        // The right operand is never reached behind an ε left operand.
        assert_eq!(env.profile.seq_read_bytes, 8);
        assert_eq!(env.profile.int_ops, 0);
    }

    #[test]
    fn shared_nodes_count_once_per_row_unshared_once_per_path() {
        let sources = src_of(vec![1, 2, 3]);
        let leaf = col0();
        let e = |l: &Arc<Expr>| Expr::Bin {
            op: BinOp::Add,
            ty: ScalarType::I64,
            float: false,
            l: l.clone(),
            r: l.clone(),
        };
        for (shared, reads) in [(true, 3 * 8), (false, 2 * 3 * 8)] {
            let dag = Dag::flatten(&[&Arc::new(e(&leaf))], &|_| shared);
            let mut env = Env::new(true, 0, 0);
            let out = eval_all(&dag, &sources, 3, &mut env);
            assert_eq!(out[2], Some(ScalarValue::I64(6)));
            assert_eq!(env.profile.seq_read_bytes, reads);
            assert_eq!(env.profile.int_ops, 3);
        }
    }

    /// Edge values of every type, as scalars of that type.
    fn edge_values(ty: ScalarType) -> Vec<ScalarValue> {
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            -65,
            -64,
            -1,
            0,
            1,
            2,
            31,
            32,
            63,
            64,
            65,
            127,
            i32::MAX as i64,
            i32::MAX as i64 + 1,
            i32::MIN as i64,
            i32::MIN as i64 - 1,
            1 << 53,
            (1 << 53) + 1,
            i64::MAX - 1,
            i64::MAX,
        ];
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.5,
            1.0e-40,
            3.4028235e38,
            1.0e39,
            -1.0e300,
            f64::MIN_POSITIVE,
            16777217.0,
            9007199254740993.0,
            1.0e19,
            -1.0e19,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.1,
        ];
        match ty {
            ScalarType::Bool => vec![ScalarValue::Bool(false), ScalarValue::Bool(true)],
            ScalarType::I32 | ScalarType::I64 => {
                ints.iter().map(|&v| ScalarValue::I64(v).cast(ty)).collect()
            }
            ScalarType::F32 | ScalarType::F64 => floats
                .iter()
                .map(|&v| ScalarValue::F64(v).cast(ty))
                .collect(),
        }
    }

    fn same_bits(a: Option<ScalarValue>, b: Option<ScalarValue>) -> bool {
        match (a, b) {
            (Some(ScalarValue::F32(x)), Some(ScalarValue::F32(y))) => x.to_bits() == y.to_bits(),
            (Some(ScalarValue::F64(x)), Some(ScalarValue::F64(y))) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// Every operator × operand types × result type: the lane kernels
    /// agree bit for bit with `BinOp::eval(..).cast(ty)` on edge values,
    /// with ε in either operand.
    #[test]
    fn lane_kernels_match_scalar_reference() {
        use ScalarType::*;
        let types = [Bool, I32, I64, F32, F64];
        let ops = [
            BinOp::Add,
            BinOp::Subtract,
            BinOp::Multiply,
            BinOp::Divide,
            BinOp::Modulo,
            BinOp::BitShift,
            BinOp::LogicalAnd,
            BinOp::LogicalOr,
            BinOp::Greater,
            BinOp::GreaterEquals,
            BinOp::Less,
            BinOp::LessEquals,
            BinOp::Equals,
            BinOp::NotEquals,
        ];
        for lt in types {
            for rt in types {
                // Every pair of edge values, plus an ε slot on each side.
                let (lv, rv) = (edge_values(lt), edge_values(rt));
                let mut pairs: Vec<(Option<ScalarValue>, Option<ScalarValue>)> = Vec::new();
                for a in &lv {
                    for b in &rv {
                        pairs.push((Some(*a), Some(*b)));
                    }
                    pairs.push((Some(*a), None));
                }
                for b in &rv {
                    pairs.push((None, Some(*b)));
                }
                pairs.push((None, None));
                let column = |ty: ScalarType, vals: Vec<Option<ScalarValue>>| {
                    let mut c = Column::empties(ty, 0);
                    for v in vals {
                        c.push(v);
                    }
                    c
                };
                let mut sv = StructuredVector::with_len(pairs.len());
                sv.insert(".l", column(lt, pairs.iter().map(|p| p.0).collect()));
                sv.insert(".r", column(rt, pairs.iter().map(|p| p.1).collect()));
                let sources = vec![Some(Arc::new(MatVec::Full(sv)))];
                let leaf = |col: u16, ty: ScalarType| {
                    Arc::new(Expr::Col {
                        src: 0,
                        col,
                        width: ty.byte_width() as u8,
                        broadcast: false,
                    })
                };
                for op in ops {
                    for ty in types {
                        let dag = dag_of(Expr::Bin {
                            op,
                            ty,
                            float: lt.is_float() || rt.is_float(),
                            l: leaf(0, lt),
                            r: leaf(1, rt),
                        });
                        let mut env = Env::new(false, 0, 0);
                        let got = eval_all(&dag, &sources, pairs.len(), &mut env);
                        for (i, (a, b)) in pairs.iter().enumerate() {
                            let want = match (a, b) {
                                (Some(a), Some(b)) => Some(op.eval(*a, *b).cast(ty)),
                                _ => None,
                            };
                            assert!(
                                same_bits(got[i], want),
                                "{op:?} {lt:?}×{rt:?}→{ty:?} on {a:?}, {b:?}: {:?} vs {want:?}",
                                got[i]
                            );
                        }
                    }
                }
            }
        }
    }

    /// Stored lanes follow `Buffer::set`'s cast for every source and
    /// destination type.
    #[test]
    fn store_lanes_matches_buffer_set() {
        use ScalarType::*;
        for from in [Bool, I32, I64, F32, F64] {
            let vals = edge_values(from);
            let sv = StructuredVector::from_buffer(".v", {
                let mut b = Buffer::new(from);
                for v in &vals {
                    b.push(*v);
                }
                b
            });
            let sources = vec![Some(Arc::new(MatVec::Full(sv)))];
            let dag = dag_of(Expr::Col {
                src: 0,
                col: 0,
                width: 8,
                broadcast: false,
            });
            let mut ch = Chunks::new(&dag, &sources, false);
            ch.compute(0, vals.len());
            for to in [Bool, I32, I64, F32, F64] {
                let mut got = Buffer::with_len(to, vals.len());
                let mut empty = vec![true; vals.len()];
                store_lanes(&ch.root(0), 0, vals.len(), &mut got, &mut empty, 0);
                let mut want = Buffer::with_len(to, vals.len());
                for (i, v) in vals.iter().enumerate() {
                    want.set(i, *v);
                }
                for (i, v) in vals.iter().enumerate() {
                    assert!(
                        same_bits(Some(got.get(i)), Some(want.get(i))),
                        "{from:?}→{to:?} {v:?}"
                    );
                }
                assert!(empty.iter().all(|e| !e));
            }
        }
    }
}
