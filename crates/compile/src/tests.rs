//! Compiled-backend tests: fragment structure, suppression, and — most
//! importantly — differential equivalence against the reference
//! interpreter on hand-written and randomized programs.

use voodoo_core::{AggKind, BinOp, Buffer, KeyPath, Program, ScalarValue, StructuredVector};
use voodoo_storage::{Catalog, Table, TableColumn};

use crate::exec::{ExecOptions, Executor};
use crate::plan::{Bulk, Compiler, FragmentKind, Handling, Unit};
use crate::repr::MatVec;

fn kp(s: &str) -> KeyPath {
    KeyPath::new(s)
}

/// Run both backends and assert every return value matches exactly.
fn assert_equivalent(cat: &Catalog, p: &Program) {
    let interp = voodoo_interp::Interpreter::new(cat)
        .run_program(p)
        .expect("interp");
    let cp = Compiler::new(cat).compile(p).expect("compile");
    // Serial and morsel-parallel, branching and predicated: no setting
    // may change results.
    for predicated in [false, true] {
        for threads in [1usize, 3] {
            let exec = Executor::new(ExecOptions {
                parallelism: crate::exec::Parallelism::Fixed(threads),
                predicated_select: predicated,
                // Tiny fixture domains must still exercise the morsel path.
                min_parallel_domain: 1,
                ..Default::default()
            });
            let mode = format!("{threads} threads, predicated={predicated}");
            let (compiled, _) = exec.run(&cp, cat).expect("exec");
            assert_eq!(
                interp.returns.len(),
                compiled.returns.len(),
                "return count ({mode})"
            );
            for (i, (a, b)) in interp.returns.iter().zip(&compiled.returns).enumerate() {
                assert_vec_eq(a, b, &format!("return {i} ({mode})\nprogram:\n{p}"));
            }
            for ((na, va), (nb, vb)) in interp.persisted.iter().zip(&compiled.persisted) {
                assert_eq!(na, nb);
                assert_vec_eq(va, vb, &format!("persist {na} ({mode})"));
            }
        }
    }
}

fn assert_vec_eq(a: &StructuredVector, b: &StructuredVector, what: &str) {
    assert_eq!(a.len(), b.len(), "length of {what}");
    assert_eq!(a.schema(), b.schema(), "schema of {what}");
    for (akp, acol) in a.fields() {
        let bcol = b.column(akp).expect("schema matched");
        for i in 0..a.len() {
            let (x, y) = (acol.get(i), bcol.get(i));
            let equal = match (x, y) {
                (None, None) => true,
                (Some(x), Some(y)) => match (x, y) {
                    (ScalarValue::F32(a), ScalarValue::F32(b)) => {
                        (a - b).abs() <= f32::EPSILON * 8.0 * a.abs().max(1.0)
                    }
                    (ScalarValue::F64(a), ScalarValue::F64(b)) => {
                        (a - b).abs() <= f64::EPSILON * 64.0 * a.abs().max(1.0)
                    }
                    _ => x == y,
                },
                _ => false,
            };
            assert!(equal, "slot {i} of {akp} in {what}: {x:?} vs {y:?}");
        }
    }
}

fn numbers_catalog() -> Catalog {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("nums", &[5, 12, 3, 20, 8, 15, 1, 9, 30, 2]);
    cat.put_f32_column("floats", &[1.5, -2.0, 3.25, 0.0, 9.5, -1.0]);
    let mut t = Table::new("pairs");
    t.add_column(TableColumn::from_buffer(
        "a",
        Buffer::I64(vec![1, 2, 3, 4, 5, 6]),
    ));
    t.add_column(TableColumn::from_buffer(
        "b",
        Buffer::I64(vec![10, 20, 30, 40, 50, 60]),
    ));
    cat.insert_table(t);
    cat
}

// ---------------------------------------------------------------------
// Structural tests
// ---------------------------------------------------------------------

/// Figure 3 compiles to a fold fragment with extent n/L, intent L, plus a
/// sequential global fold — and the partial sums are stored suppressed.
#[test]
fn figure3_fragments_and_suppression() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("input", &(0..1024i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let input = p.load("input");
    let ids = p.range_like(0, input, 1);
    let part = p.div_const(ids, 256);
    let psum = p.fold_sum(part, input);
    let total = p.fold_sum_global(psum);
    p.ret(total);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    let frags: Vec<_> = cp.fragments().collect();
    assert_eq!(frags.len(), 2, "partial fold + global fold");
    assert_eq!(frags[0].kind(), FragmentKind::Fold);
    assert_eq!(frags[0].extent, 4);
    assert_eq!(frags[0].intent, 256);
    assert_eq!(frags[1].kind(), FragmentKind::Sequential);

    // The range/divide never materialize (virtual control vectors).
    assert!(matches!(cp.handling[ids.index()], Handling::Inline));
    assert!(matches!(cp.handling[part.index()], Handling::Inline));

    let (out, _) = Executor::single_threaded().run(&cp, &cat).unwrap();
    assert_eq!(
        out.returns[0].value_at(0, &kp(".val")),
        Some(ScalarValue::I64(523776))
    );
}

/// Empty-slot suppression allocates #runs slots, not n.
#[test]
fn suppression_allocates_dense() {
    let values = StructuredVector::from_buffer(".val", Buffer::I64(vec![1, 2]));
    let dense = MatVec::FoldDense {
        values,
        run_len: 512,
        orig_len: 1024,
    };
    assert!(dense.allocated_bytes() < 100);
    assert_eq!(dense.expand().len(), 1024);
}

/// A Q6-style select+sum fuses completely: one sequential fragment, no
/// intermediate materialization.
#[test]
fn q6_style_fuses_to_single_fragment() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..100i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 50i64);
    let sel = p.fold_select_global(pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    assert!(matches!(cp.handling[sel.index()], Handling::FusedFilter));
    assert_eq!(cp.fragment_count(), 1, "everything fused into one kernel");
    let (out, _) = Executor::single_threaded().run(&cp, &cat).unwrap();
    assert_eq!(
        out.returns[0].value_at(0, &kp(".val")),
        Some(ScalarValue::I64((51..100).sum::<i64>()))
    );
}

/// The group-by pattern becomes a virtual-scatter unit (Figure 11).
#[test]
fn group_by_becomes_virtual_scatter() {
    let mut cat = Catalog::in_memory();
    let mut t = Table::new("t");
    t.add_column(TableColumn::from_buffer(
        "grp",
        Buffer::I64(vec![0, 1, 0, 2, 2, 1, 2, 0, 3, 1]),
    ));
    t.add_column(TableColumn::from_buffer(
        "v",
        Buffer::I64(vec![2, 0, 1, 4, 6, 2, 0, 9, 2, 7]),
    ));
    cat.insert_table(t);

    let mut p = Program::new();
    let input = p.load("t");
    let pivots = p.range(0, 4, 1);
    let pos = p.partition(input, kp(".grp"), pivots, kp(".val"));
    let scattered = p.scatter(input, input, pos);
    let sums = p.fold_agg_kp(
        AggKind::Sum,
        scattered,
        Some(kp(".grp")),
        kp(".v"),
        kp(".sum"),
    );
    p.ret(sums);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    assert!(cp
        .units
        .iter()
        .any(|u| matches!(u, Unit::Bulk(Bulk::GroupAgg { .. }))));
    assert!(matches!(
        cp.handling[scattered.index()],
        Handling::GroupMember
    ));
    assert_equivalent(&cat, &p);
}

/// A chunk-controlled selection becomes a vectorized-selection unit.
#[test]
fn chunked_select_becomes_vectorized() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).rev().collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 500i64);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 128);
    let sel = p.fold_select(chunk_ids, pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    assert!(
        cp.units
            .iter()
            .any(|u| matches!(u, Unit::Bulk(Bulk::VecSelect { chunk: 128, .. }))),
        "vectorized pattern detected"
    );
    assert_equivalent(&cat, &p);
}

// ---------------------------------------------------------------------
// Differential tests (compiled ≡ interpreter)
// ---------------------------------------------------------------------

fn prog_elementwise_chain() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let a = p.mul_const(t, 3i64);
    let b = p.add_const(a, 7i64);
    let c = p.binary(BinOp::Subtract, b, t);
    p.ret(c);
    (cat, p)
}

#[test]
fn diff_elementwise_chain() {
    let (cat, p) = prog_elementwise_chain();
    assert_equivalent(&cat, &p);
}

fn prog_comparisons_and_logic() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let g = p.greater_const(t, 8i64);
    let l = p.binary_const(BinOp::Less, t, kp(".val"), 20i64, kp(".val"));
    let both = p.binary(BinOp::LogicalAnd, g, l);
    p.ret(both);
    (cat, p)
}

#[test]
fn diff_comparisons_and_logic() {
    let (cat, p) = prog_comparisons_and_logic();
    assert_equivalent(&cat, &p);
}

fn prog_float_arithmetic() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("floats");
    let x = p.mul(t, t);
    let s = p.fold_sum_global(x);
    p.ret(s);
    (cat, p)
}

#[test]
fn diff_float_arithmetic() {
    let (cat, p) = prog_float_arithmetic();
    assert_equivalent(&cat, &p);
}

fn prog_fold_variants() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let ids = p.range_like(0, t, 1);
    let part = p.div_const(ids, 3);
    let s = p.fold_sum(part, t);
    let mn = p.fold_min_global(t);
    let mx = p.fold_max_global(t);
    let scan = p.fold_scan_global(t);
    p.ret(s);
    p.ret(mn);
    p.ret(mx);
    p.ret(scan);
    (cat, p)
}

#[test]
fn diff_fold_variants() {
    let (cat, p) = prog_fold_variants();
    assert_equivalent(&cat, &p);
}

fn prog_fold_select_materialized() -> (Catalog, Program) {
    // Returned positions force the non-fused SelectEmit path.
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let pred = p.greater_const(t, 8i64);
    let sel = p.fold_select_global(pred);
    p.ret(sel);
    (cat, p)
}

#[test]
fn diff_fold_select_materialized() {
    let (cat, p) = prog_fold_select_materialized();
    assert_equivalent(&cat, &p);
}

fn prog_fold_select_chunked_materialized() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let pred = p.greater_const(t, 8i64);
    let ids = p.range_like(0, t, 1);
    let chunks = p.div_const(ids, 4);
    let sel = p.fold_select(chunks, pred);
    p.ret(sel);
    (cat, p)
}

#[test]
fn diff_fold_select_chunked_materialized() {
    let (cat, p) = prog_fold_select_chunked_materialized();
    assert_equivalent(&cat, &p);
}

fn prog_gather_and_scatter() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let idx = p.range(0, 5, 2);
    let g = p.gather(t, idx);
    p.ret(g);

    let pos = p.range(9, 10, -1);
    let sc = p.scatter(t, t, pos);
    p.ret(sc);
    (cat, p)
}

#[test]
fn diff_gather_and_scatter() {
    let (cat, p) = prog_gather_and_scatter();
    assert_equivalent(&cat, &p);
}

fn prog_partition_and_grouped_scatter() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let pivots = p.range(0, 3, 1);
    let keys = p.binary_const(BinOp::Modulo, t, kp(".a"), 3i64, kp(".val"));
    let with_key = p.zip_kp(kp(".k"), keys, kp(".val"), kp(".b"), t, kp(".b"));
    let pos = p.partition(with_key, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(with_key, with_key, pos);
    p.ret(pos);
    p.ret(scattered);
    (cat, p)
}

#[test]
fn diff_partition_and_grouped_scatter() {
    let (cat, p) = prog_partition_and_grouped_scatter();
    assert_equivalent(&cat, &p);
}

fn prog_virtual_scatter_group_agg() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let keys = p.binary_const(BinOp::Modulo, t, kp(".a"), 2i64, kp(".k"));
    let with_key = p.zip_kp(kp(".k"), keys, kp(".k"), kp(".b"), t, kp(".b"));
    let pivots = p.range(0, 2, 1);
    let pos = p.partition(with_key, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(with_key, with_key, pos);
    let sums = p.fold_agg_kp(
        AggKind::Sum,
        scattered,
        Some(kp(".k")),
        kp(".b"),
        kp(".sum"),
    );
    let maxs = p.fold_agg_kp(
        AggKind::Max,
        scattered,
        Some(kp(".k")),
        kp(".b"),
        kp(".max"),
    );
    p.ret(sums);
    p.ret(maxs);
    (cat, p)
}

#[test]
fn diff_virtual_scatter_group_agg() {
    let (cat, p) = prog_virtual_scatter_group_agg();
    assert_equivalent(&cat, &p);
}

fn prog_group_agg_fallback_on_range_pivots() -> (Catalog, Program) {
    // Pivots [0, 5): keys 0..6 with bucket collisions (key 5 → bucket 4 …)
    // multiple distinct keys per bucket trigger the generic fallback.
    let mut cat = Catalog::in_memory();
    let mut t = Table::new("t");
    t.add_column(TableColumn::from_buffer(
        "k",
        Buffer::I64(vec![0, 7, 1, 9, 7, 0, 3, 9]),
    ));
    t.add_column(TableColumn::from_buffer(
        "v",
        Buffer::I64(vec![1, 2, 3, 4, 5, 6, 7, 8]),
    ));
    cat.insert_table(t);
    let mut p = Program::new();
    let input = p.load("t");
    let pivots = p.range(0, 4, 1); // buckets 0..3, keys up to 9 collide
    let pos = p.partition(input, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(input, input, pos);
    let sums = p.fold_agg_kp(
        AggKind::Sum,
        scattered,
        Some(kp(".k")),
        kp(".v"),
        kp(".sum"),
    );
    p.ret(sums);
    (cat, p)
}

#[test]
fn diff_group_agg_fallback_on_range_pivots() {
    let (cat, p) = prog_group_agg_fallback_on_range_pivots();
    assert_equivalent(&cat, &p);
}

fn prog_cross_product() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let a = p.range(0, 3, 1);
    let b = p.range(0, 4, 1);
    let x = p.cross(a, b);
    p.ret(x);
    (cat, p)
}

#[test]
fn diff_cross_product() {
    let (cat, p) = prog_cross_product();
    assert_equivalent(&cat, &p);
}

fn prog_zip_project_upsert() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let proj = p.project(t, kp(".a"), kp(".x"));
    let z = p.zip_kp(kp(".l"), t, kp(".a"), kp(".r"), proj, kp(".x"));
    let dbl = p.binary_const(BinOp::Multiply, t, kp(".b"), 2i64, kp(".val"));
    let ups = p.upsert(t, kp(".b"), dbl, kp(".val"));
    p.ret(z);
    p.ret(ups);
    (cat, p)
}

#[test]
fn diff_zip_project_upsert() {
    let (cat, p) = prog_zip_project_upsert();
    assert_equivalent(&cat, &p);
}

fn prog_materialize_break_persist() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let a = p.mul_const(t, 2i64);
    let m = p.materialize(a);
    let b = p.break_at(m);
    let s = p.fold_sum_global(b);
    p.persist("twice_sum", s);
    p.ret(s);
    (cat, p)
}

#[test]
fn diff_materialize_break_persist() {
    let (cat, p) = prog_materialize_break_persist();
    assert_equivalent(&cat, &p);
}

fn prog_predicated_fk_join() -> (Catalog, Program) {
    // Figure 16's predicated-lookup program shape.
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("fact_fk", &[0, 3, 1, 2, 3, 0, 1, 2]);
    cat.put_i64_column("fact_v", &[5, 1, 9, 2, 8, 3, 7, 4]);
    cat.put_i64_column("target", &[100, 200, 300, 400]);
    let mut p = Program::new();
    let fk = p.load("fact_fk");
    let v = p.load("fact_v");
    let target = p.load("target");
    let pred = p.greater_const(v, 4i64);
    let masked_pos = p.mul(fk, pred); // predicated lookups: pos * pred
    let looked = p.gather(target, masked_pos);
    let masked_val = p.mul(looked, pred);
    let sum = p.fold_sum_global(masked_val);
    p.ret(sum);
    (cat, p)
}

#[test]
fn diff_predicated_fk_join() {
    let (cat, p) = prog_predicated_fk_join();
    assert_equivalent(&cat, &p);
}

fn prog_empty_inputs() -> (Catalog, Program) {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("empty", &[]);
    let mut p = Program::new();
    let t = p.load("empty");
    let a = p.mul_const(t, 2i64);
    let s = p.fold_sum_global(a);
    p.ret(a);
    p.ret(s);
    (cat, p)
}

#[test]
fn diff_empty_inputs() {
    let (cat, p) = prog_empty_inputs();
    assert_equivalent(&cat, &p);
}

#[test]
fn profile_counts_events() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..100i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 50i64);
    let sel = p.fold_select_global(pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);
    let cp = Compiler::new(&cat).compile(&p).unwrap();
    let exec = Executor::new(ExecOptions {
        count_events: true,
        ..Default::default()
    });
    let (_, prof) = exec.run(&cp, &cat).unwrap();
    assert_eq!(prof.branches, 100, "one filter branch per element");
    assert!(prof.cmp_ops >= 100);
    assert!(prof.seq_read_bytes > 0);
    assert_eq!(prof.barriers, 1, "single fused kernel");
}

#[test]
fn profile_predicated_trades_branches_for_ops() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 500i64);
    let sel = p.fold_select_global(pred);
    p.ret(sel);
    let cp = Compiler::new(&cat).compile(&p).unwrap();

    let branching = Executor::new(ExecOptions {
        count_events: true,
        ..Default::default()
    });
    let (_, bp) = branching.run(&cp, &cat).unwrap();
    let predicated = Executor::new(ExecOptions {
        count_events: true,
        predicated_select: true,
        ..Default::default()
    });
    let (_, pp) = predicated.run(&cp, &cat).unwrap();

    assert!(
        bp.branches > 0 && pp.branches == 0,
        "predication removes branches"
    );
    assert!(
        pp.write_bytes > bp.write_bytes,
        "predication adds memory traffic"
    );
}

/// A `Bin` whose left operand is ε on some lanes (unset scatter slots)
/// and one whose right operand is: the right side of a `Bin` is only
/// evaluated where the left is valid.
fn prog_epsilon_operands() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let pos = p.range(0, 10, 2);
    let sc = p.scatter(t, t, pos);
    let left_eps = p.binary(BinOp::Add, sc, t);
    let right_eps = p.binary(BinOp::Subtract, t, sc);
    let s = p.fold_sum_global(left_eps);
    p.ret(left_eps);
    p.ret(right_eps);
    p.ret(s);
    (cat, p)
}

#[test]
fn diff_epsilon_operands() {
    let (cat, p) = prog_epsilon_operands();
    assert_equivalent(&cat, &p);
}

/// Gathers at negative and past-the-end positions yield ε and count no
/// read.
fn prog_out_of_range_gather() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let idx = p.range(-2, 8, 3);
    let g = p.gather(t, idx);
    let y = p.mul_const(g, 2i64);
    let s = p.fold_sum_global(y);
    p.ret(g);
    p.ret(s);
    (cat, p)
}

#[test]
fn diff_out_of_range_gather() {
    let (cat, p) = prog_out_of_range_gather();
    assert_equivalent(&cat, &p);
}

/// One inline expression consumed by a write and two folds, and reused
/// inside a DAG (`(a + a) * a`).
fn prog_shared_subexpressions() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let a = p.mul_const(t, 3i64);
    let b = p.binary(BinOp::Add, a, a);
    let c = p.binary(BinOp::Multiply, b, a);
    let s = p.fold_sum_global(a);
    let mx = p.fold_max_global(a);
    let sc = p.fold_sum_global(c);
    p.ret(a);
    p.ret(s);
    p.ret(mx);
    p.ret(sc);
    (cat, p)
}

#[test]
fn diff_shared_subexpressions() {
    let (cat, p) = prog_shared_subexpressions();
    assert_equivalent(&cat, &p);
}

/// A fused filter feeding two gathered columns of one table, and a
/// gather from a just-in-time materialized (layout-transformed) source
/// whose columns share one locality site.
fn prog_filtered_and_transformed_gathers() -> (Catalog, Program) {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let pred = p.binary_const(BinOp::Greater, t, kp(".a"), 2i64, kp(".val"));
    let sel = p.fold_select_global(pred);
    let g = p.gather(t, sel);
    let sa = p.fold_agg_kp(AggKind::Sum, g, None, kp(".a"), kp(".sa"));
    let mb = p.fold_agg_kp(AggKind::Max, g, None, kp(".b"), kp(".mb"));
    p.ret(sa);
    p.ret(mb);
    let z = p.zip_kp(kp(".l"), t, kp(".a"), kp(".r"), t, kp(".b"));
    let m = p.materialize(z);
    let idx = p.range(5, 6, -1);
    let tg = p.gather(m, idx);
    p.ret(tg);
    (cat, p)
}

#[test]
fn diff_filtered_and_transformed_gathers() {
    let (cat, p) = prog_filtered_and_transformed_gathers();
    assert_equivalent(&cat, &p);
}

/// A float sum and prefix scan (one morsel, serial order) next to a
/// chunk-controlled vectorized selection.
fn prog_float_scan_and_vectorized_select() -> (Catalog, Program) {
    let mut cat = numbers_catalog();
    cat.put_i64_column(
        "big",
        &(0..1000i64).map(|i| (i * 37) % 101).collect::<Vec<_>>(),
    );
    let mut p = Program::new();
    let f = p.load("floats");
    let sq = p.mul(f, f);
    let fs = p.fold_sum_global(sq);
    let scan = p.fold_scan_global(sq);
    p.ret(fs);
    p.ret(scan);
    let t = p.load("big");
    let pred = p.greater_const(t, 50i64);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 128);
    let sel = p.fold_select(chunk_ids, pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);
    (cat, p)
}

#[test]
fn diff_float_scan_and_vectorized_select() {
    let (cat, p) = prog_float_scan_and_vectorized_select();
    assert_equivalent(&cat, &p);
}

/// Folds, a prefix scan and a position emission whose runs come from a
/// loaded key column: run boundaries are detected at run time (the
/// dynamic run structure), including runs that straddle chunks. Scans
/// restart at every run and a predicated emission leaves no stray slot.
fn prog_dynamic_runs() -> (Catalog, Program) {
    let mut cat = Catalog::in_memory();
    let n = 3000i64;
    let mut t = Table::new("runs");
    t.add_column(TableColumn::from_buffer(
        "k",
        Buffer::I64((0..n).map(|i| i / 7 + i / 1500).collect()),
    ));
    t.add_column(TableColumn::from_buffer(
        "v",
        Buffer::I64((0..n).map(|i| (i * 37) % 11 - 5).collect()),
    ));
    cat.insert_table(t);
    let mut p = Program::new();
    let t = p.load("runs");
    let k = Some(kp(".k"));
    let sums = p.fold_agg_kp(AggKind::Sum, t, k.clone(), kp(".v"), kp(".sum"));
    let mins = p.fold_agg_kp(AggKind::Min, t, k.clone(), kp(".v"), kp(".min"));
    let scan = p.fold_scan_kp(t, k.clone(), kp(".v"), kp(".scan"));
    let positive = p.binary_const(BinOp::Greater, t, kp(".v"), 0i64, kp(".s"));
    let keyed = p.zip_kp(kp(".k"), t, kp(".k"), kp(".s"), positive, kp(".s"));
    let pos = p.fold_select_kp(keyed, k, kp(".s"), kp(".pos"));
    p.ret(sums);
    p.ret(mins);
    p.ret(scan);
    p.ret(pos);
    (cat, p)
}

#[test]
fn diff_dynamic_runs() {
    let (cat, p) = prog_dynamic_runs();
    assert_equivalent(&cat, &p);
}

// ---------------------------------------------------------------------
// Event-count golden
// ---------------------------------------------------------------------

/// Builds one differential program and its catalog.
type ProgramFixture = fn() -> (Catalog, Program);

/// Every differential program above, by name.
fn golden_programs() -> Vec<(&'static str, ProgramFixture)> {
    vec![
        ("elementwise_chain", prog_elementwise_chain),
        ("comparisons_and_logic", prog_comparisons_and_logic),
        ("float_arithmetic", prog_float_arithmetic),
        ("fold_variants", prog_fold_variants),
        ("fold_select_materialized", prog_fold_select_materialized),
        (
            "fold_select_chunked_materialized",
            prog_fold_select_chunked_materialized,
        ),
        ("gather_and_scatter", prog_gather_and_scatter),
        (
            "partition_and_grouped_scatter",
            prog_partition_and_grouped_scatter,
        ),
        ("virtual_scatter_group_agg", prog_virtual_scatter_group_agg),
        (
            "group_agg_fallback_on_range_pivots",
            prog_group_agg_fallback_on_range_pivots,
        ),
        ("cross_product", prog_cross_product),
        ("zip_project_upsert", prog_zip_project_upsert),
        ("materialize_break_persist", prog_materialize_break_persist),
        ("predicated_fk_join", prog_predicated_fk_join),
        ("empty_inputs", prog_empty_inputs),
        ("epsilon_operands", prog_epsilon_operands),
        ("out_of_range_gather", prog_out_of_range_gather),
        ("shared_subexpressions", prog_shared_subexpressions),
        (
            "filtered_and_transformed_gathers",
            prog_filtered_and_transformed_gathers,
        ),
        (
            "float_scan_and_vectorized_select",
            prog_float_scan_and_vectorized_select,
        ),
        ("dynamic_runs", prog_dynamic_runs),
    ]
}

/// The per-unit event profiles of every differential program at
/// `Parallelism::Off`, in branching and predicated mode, are pinned
/// exactly: the GPU cost model and the paper-figure harness price plans
/// from these counts, so a kernel rewrite must reproduce them event for
/// event. On a mismatch the actual rendering is written next to the
/// test binary's temp dir for review.
#[test]
fn event_profiles_match_golden() {
    let mut actual = String::new();
    for (name, build) in golden_programs() {
        let (cat, p) = build();
        let cp = Compiler::new(&cat).compile(&p).expect("compile");
        for predicated in [false, true] {
            let exec = Executor::new(ExecOptions {
                count_events: true,
                predicated_select: predicated,
                ..Default::default()
            });
            let (_, total, units) = exec.run_with_unit_profiles(&cp, &cat).expect("exec");
            actual.push_str(&format!("{name} predicated={predicated}\n"));
            for (ui, up) in units.iter().enumerate() {
                actual.push_str(&format!("  unit {ui}: {up:?}\n"));
            }
            actual.push_str(&format!("  total: {total:?}\n"));
        }
    }
    let golden = include_str!("golden_events.txt");
    if actual != golden {
        let path = std::env::temp_dir().join("voodoo_compile_golden_events.actual.txt");
        let _ = std::fs::write(&path, &actual);
        let first = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("actual: {a}\ngolden: {g}"))
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "event profiles diverge from golden_events.txt ({} written):\n{first}",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------
// Property-based differential testing
// ---------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A tiny random well-typed program generator: a chain of elementwise
    /// ops over one loaded i64 column, optionally folded at the end.
    fn arb_program() -> impl Strategy<Value = (Vec<i64>, Vec<(u8, i64)>, u8, u8)> {
        (
            collection::vec(-50i64..50, 0..40),
            collection::vec((0u8..6, -10i64..10), 0..6),
            0u8..5,
            1u8..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn compiled_matches_interpreter((data, ops, tail, runlen) in arb_program()) {
            let mut cat = Catalog::in_memory();
            cat.put_i64_column("t", &data);
            let mut p = Program::new();
            let t = p.load("t");
            let mut cur = t;
            for (op, c) in &ops {
                let c = *c;
                cur = match op {
                    0 => p.add_const(cur, c),
                    1 => p.sub_const(cur, c),
                    2 => p.mul_const(cur, c),
                    3 => p.div_const(cur, if c == 0 { 1 } else { c }),
                    4 => p.greater_const(cur, c),
                    _ => p.binary(BinOp::Equals, cur, t),
                };
            }
            let out = match tail {
                0 => p.fold_sum_global(cur),
                1 => p.fold_min_global(cur),
                2 => p.fold_max_global(cur),
                3 => {
                    let ids = p.range_like(0, cur, 1);
                    let part = p.div_const(ids, runlen as i64);
                    p.fold_sum(part, cur)
                }
                _ => cur,
            };
            p.ret(out);
            assert_equivalent(&cat, &p);
        }

        #[test]
        fn gather_scatter_roundtrip(data in collection::vec(-100i64..100, 1..50)) {
            let mut cat = Catalog::in_memory();
            cat.put_i64_column("t", &data);
            let n = data.len();
            let mut p = Program::new();
            let t = p.load("t");
            // Reverse permutation: scatter to reversed slots, gather back.
            let rev = p.range(n as i64 - 1, n, -1);
            let scattered = p.scatter(t, t, rev);
            let back = p.gather(scattered, rev);
            p.ret(back);
            let interp = voodoo_interp::Interpreter::new(&cat).run(&p).unwrap();
            // Round trip is the identity.
            for (i, &d) in data.iter().enumerate() {
                prop_assert_eq!(interp.value_at(i, &kp(".val")), Some(ScalarValue::I64(d)));
            }
            assert_equivalent(&cat, &p);
        }
    }
}
