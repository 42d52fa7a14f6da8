//! Morsel-driven partitioned execution: correctness pins.
//!
//! The contract under test: for ANY partition count `P`, the compiled
//! CPU backend's partition-parallel execution is **bit-identical** to
//! the serial paths — the interpreter (the reference oracle) and the
//! `Parallelism::Off` compiled configuration — for every TPC-H query
//! and the SQL aggregate set, plus the partition-boundary edge cases
//! (empty inputs, `P > rows`, all-sentinel groups).
//!
//! Since the persistent pool landed, partition-parallel kernels execute
//! on long-lived work-stealing workers ([`voodoo::compile::pool`])
//! instead of scoped per-unit spawns; the same bit-identity contract
//! holds no matter which worker ran which morsel, and this suite
//! additionally pins the pool's scheduling behavior (skew rebalanced by
//! stealing, clean shutdown/restart, engine pool lifecycle).
//!
//! CI runs this suite in release mode with `VOODOO_SCALE_THREADS=2` and
//! `=8`, which widens the exercised `P` set.

use std::sync::Arc;

use voodoo::backend::{CpuBackend, Parallelism};
use voodoo::compile::exec::{statement_trace_begin, statement_trace_end, ExecOptions, Executor};
use voodoo::compile::pool::MorselPool;
use voodoo::compile::Compiler;
use voodoo::core::{KeyPath, Program};
use voodoo::relational::{Session, StatementSpec};
use voodoo::storage::Catalog;
use voodoo::tpch::queries::CPU_QUERIES;

const SQL_QUERIES: [&str; 6] = [
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
     WHERE l_shipdate >= 700 AND l_shipdate < 1100 AND l_quantity < 24",
    "SELECT COUNT(*) FROM lineitem",
    "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag",
    "SELECT l_linestatus, MIN(l_extendedprice), MAX(l_extendedprice) \
     FROM lineitem WHERE l_discount BETWEEN 2 AND 8 GROUP BY l_linestatus",
    "SELECT AVG(l_quantity), MIN(l_shipdate), MAX(l_shipdate) FROM lineitem \
     WHERE l_quantity >= 10",
    "SELECT MIN(l_quantity), MAX(l_quantity) FROM lineitem WHERE l_quantity < 0",
];

/// A partition-eager CPU backend: fixed P, no minimum-domain gate, so
/// even tiny inputs take the morsel path.
fn cpu_p(p: usize) -> CpuBackend {
    CpuBackend::new(ExecOptions {
        parallelism: Parallelism::Fixed(p),
        min_parallel_domain: 1,
        ..ExecOptions::default()
    })
}

/// The partition counts under test: a few fixed fan-outs plus the CI
/// matrix override (`VOODOO_SCALE_THREADS`).
fn partition_counts() -> Vec<usize> {
    let mut counts = vec![2, 3, 5, 8];
    if let Ok(v) = std::env::var("VOODOO_SCALE_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

#[test]
fn tpch_and_sql_bit_identical_across_partition_counts() {
    let session = Session::tpch(0.01);
    for p in partition_counts() {
        let name = format!("cpu-p{p}");
        session.register(&name, Arc::new(cpu_p(p)));
        for q in CPU_QUERIES {
            let stmt = session.query(q);
            let oracle = stmt.run_on("interp").expect("interp oracle");
            let serial = stmt.run_on("cpu").expect("cpu");
            let parallel = stmt.run_on(&name).expect("partitioned cpu");
            assert_eq!(oracle.rows(), serial.rows(), "{} serial", q.name());
            assert_eq!(
                serial.rows(),
                parallel.rows(),
                "{} must be bit-identical at P={p}",
                q.name()
            );
        }
        for sql in SQL_QUERIES {
            let stmt = session.sql(sql).expect("parse");
            let oracle = stmt.run_on("interp").expect("interp oracle");
            let parallel = stmt.run_on(&name).expect("partitioned cpu");
            assert_eq!(oracle.rows(), parallel.rows(), "{sql:?} at P={p}");
        }
    }
}

/// Proptest-style sweep: every P in 1..=17 (beyond any morsel-count the
/// fixed set covers, including P ≫ natural chunk counts) over raw
/// algebra programs that hit each partition-parallel kernel — global
/// fold, selection emission, vectorized-selection, grouped aggregation,
/// per-run folds and the scatter build side — plus a float SUM and a
/// prefix scan, which must stay at one morsel.
#[test]
fn any_partition_count_matches_serial_on_kernel_programs() {
    let mut cat = Catalog::in_memory();
    // Data with duplicates, negatives, and a non-multiple-of-P length.
    let vals: Vec<i64> = (0..10_007).map(|i| (i * 37 + 11) % 1000 - 500).collect();
    cat.put_i64_column("t", &vals);
    // A 512-slot scatter target, and floats whose sum depends on the
    // order of accumulation.
    cat.put_i64_column("slots", &[0; 512]);
    let floats: Vec<f32> = vals.iter().map(|&v| v as f32 * 0.37 + 1.0e4).collect();
    cat.put_f32_column("f", &floats);
    let session = Session::new(cat.clone());

    let mut programs: Vec<(&str, Program)> = Vec::new();
    // Global fold (Single-run fragment).
    let mut p = Program::new();
    let t = p.load("t");
    let s = p.fold_sum_global(t);
    p.ret(s);
    programs.push(("fold_sum", p));
    // Selection position emission + gather + fold.
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 0);
    let sel = p.fold_select_global(pred);
    let picked = p.gather(t, sel);
    let sum = p.fold_sum_global(picked);
    p.ret(sel);
    p.ret(sum);
    programs.push(("select_gather_sum", p));
    // Grouped aggregation (Partition → Scatter → Fold; the fused
    // virtual-scatter kernel with per-partition partial tables).
    programs.push((
        "grouped_sum_count",
        voodoo::algos::aggregate::grouped_sum_count("t", "val", "val", 1000),
    ));
    // Hierarchical sum (Uniform runs — chunked fan-out).
    programs.push((
        "hierarchical_sum",
        voodoo::algos::aggregate::hierarchical_sum(
            "t",
            voodoo::algos::FoldStrategy::Partitions { size: 64 },
        ),
    ));

    // Scatter (the build side of joins) whose positions collide and fall
    // out of range on both ends: writes apply in input order, so the
    // last row index per slot wins.
    let mut p = Program::new();
    let t = p.load("t");
    let slots = p.load("slots");
    let pos = p.add_const(t, 100);
    let rows = p.range_like(0, t, 1);
    let scattered = p.scatter(rows, slots, pos);
    p.ret(scattered);
    programs.push(("scatter_collide_out_of_range", p));
    // A float SUM and a prefix scan: neither merges across morsels, so
    // their verdicts keep them at one morsel at every P.
    let mut float_and_scan = Program::new();
    let f = float_and_scan.load("f");
    let fsum = float_and_scan.fold_sum_global(f);
    let t = float_and_scan.load("t");
    let scan = float_and_scan.fold_scan_global(t);
    float_and_scan.ret(fsum);
    float_and_scan.ret(scan);
    programs.push(("float_sum_and_prefix_scan", float_and_scan.clone()));

    for (label, program) in &programs {
        let serial = session
            .program(program.clone())
            .run_on("interp")
            .expect("oracle");
        for p in 1..=17usize {
            let name = format!("cpu-sweep-{p}");
            session.register(&name, Arc::new(cpu_p(p)));
            let parallel = session
                .program(program.clone())
                .run_on(&name)
                .expect("partitioned");
            assert_eq!(
                serial.raw().returns,
                parallel.raw().returns,
                "{label} must be bit-identical at P={p}"
            );
        }
    }

    let cp = Compiler::new(&cat)
        .compile(&float_and_scan)
        .expect("compile");
    for p in 1..=17usize {
        let exec = Executor::new(ExecOptions {
            parallelism: Parallelism::Fixed(p),
            min_parallel_domain: 1,
            ..ExecOptions::default()
        });
        statement_trace_begin();
        exec.run(&cp, &cat).expect("run");
        assert_eq!(
            statement_trace_end().partitions,
            1,
            "float SUM and prefix scan stay at one morsel at P={p}"
        );
    }
}

#[test]
fn empty_inputs_and_p_beyond_rows_are_safe() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("empty", &[]);
    cat.put_i64_column("tiny", &[7, -3, 12]);
    let session = Session::new(cat);
    session.register("cpu-p8", Arc::new(cpu_p(8)));

    for table in ["empty", "tiny"] {
        let mut p = Program::new();
        let t = p.load(table);
        let pred = p.greater_const(t, 0);
        let sel = p.fold_select_global(pred);
        let sum = p.fold_sum_global(t);
        p.ret(sel);
        p.ret(sum);
        let stmt = session.program(p);
        let oracle = stmt.run_on("interp").expect("interp");
        let parallel = stmt.run_on("cpu-p8").expect("P > rows");
        assert_eq!(oracle.raw().returns, parallel.raw().returns, "{table}");
    }
}

#[test]
fn all_sentinel_partitions_match_serial() {
    // Sentinel-heavy aggregates: columns whose SQL-lowered folds see
    // i64::MIN/MAX sentinels in every partition, and a selection that
    // rejects every row (so each morsel emits an empty prefix).
    let mut cat = Catalog::in_memory();
    let n = 9_001usize;
    cat.put_i64_column("s", &vec![i64::MIN; n]);
    cat.put_i64_column("mixed", &(0..n as i64).collect::<Vec<_>>());
    let session = Session::new(cat);
    session.register("cpu-p5", Arc::new(cpu_p(5)));

    // Min/max over the all-sentinel column.
    let mut p = Program::new();
    let s = p.load("s");
    let mn = p.fold_min_global(s);
    let mx = p.fold_max_global(s);
    p.ret(mn);
    p.ret(mx);
    let stmt = session.program(p);
    assert_eq!(
        stmt.run_on("interp").unwrap().raw().returns,
        stmt.run_on("cpu-p5").unwrap().raw().returns,
        "all-sentinel fold"
    );

    // A selection that selects nothing: every morsel's compact prefix is
    // empty, and the merged position list must be all-ε like the serial
    // one.
    let mut p = Program::new();
    let v = p.load("mixed");
    let pred = p.greater_const(v, i64::MAX - 1);
    let sel = p.fold_select_global(pred);
    let picked = p.gather(v, sel);
    let cnt = p.fold_sum_global(pred);
    p.ret(sel);
    p.ret(picked);
    p.ret(cnt);
    let stmt = session.program(p);
    assert_eq!(
        stmt.run_on("interp").unwrap().raw().returns,
        stmt.run_on("cpu-p5").unwrap().raw().returns,
        "empty selection"
    );
}

#[test]
fn partitioned_outputs_carry_partition_metadata() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..50_000).collect::<Vec<_>>());
    let session = Session::new(cat);
    session.register("cpu-p4", Arc::new(cpu_p(4)));
    // An elementwise map keeps Full layout, so the returned vector
    // carries the morsel fence posts it was produced across.
    let mut p = Program::new();
    let t = p.load("t");
    let doubled = p.add(t, t);
    p.ret(doubled);
    let out = session.program(p).run_on("cpu-p4").unwrap();
    let v = &out.raw().returns[0];
    let bounds = v
        .partition_bounds()
        .expect("partition-parallel output records its morsels");
    assert_eq!(bounds.first(), Some(&0));
    assert_eq!(bounds.last(), Some(&50_000));
    assert_eq!(v.partition_count(), bounds.len() - 1);
    assert!(v.partition_count() > 1);
    assert_eq!(
        v.value_at(49_999, &KeyPath::val()).map(|x| x.as_i64()),
        Some(99_998)
    );
}

/// A deliberately skewed pool workload: one heavy morsel task pins its
/// home worker while many light ones wait behind it on the same deque —
/// the batch only finishes promptly because idle workers steal. Pins
/// result order (the executor's bit-identity merge contract) and that
/// at ≥ 4 workers the scheduler actually rebalanced (`steals > 0`).
#[test]
fn skewed_pool_batches_rebalance_by_stealing() {
    let pool = MorselPool::new(4);
    let out = pool.run(
        (0..16usize)
            .map(|i| {
                move || {
                    // Task 0 is ~20× heavier than the rest; all 16 are
                    // homed on one worker's deque, so lights MUST be
                    // stolen while the heavy one runs (a sleeping home
                    // worker yields its core, so this holds even on a
                    // single hardware thread).
                    let ms = if i == 0 { 40 } else { 2 };
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    i * i
                }
            })
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        out,
        (0..16).map(|i| i * i).collect::<Vec<_>>(),
        "results merge in morsel order regardless of who ran what"
    );
    let stats = pool.stats();
    assert!(
        stats.steals > 0,
        "skew must rebalance by stealing: {stats:?}"
    );
    assert_eq!(stats.tasks, 16);
    pool.shutdown();
}

/// The same skew assertion end to end through a statement: a
/// partition-eager backend on an engine that owns a private 4-worker
/// pool. Bit-identity to the interpreter oracle is unconditional; the
/// steal observation is retried (scheduling is real concurrency) but
/// must happen within a few rounds on any machine — every round's
/// morsels land on one home deque while three workers sit idle.
#[test]
fn skewed_statements_steal_and_stay_bit_identical() {
    let mut cat = Catalog::in_memory();
    let vals: Vec<i64> = (0..400_000).map(|i| (i * 31 + 7) % 2000 - 1000).collect();
    cat.put_i64_column("t", &vals);
    let session = Session::new(cat);
    let pool = MorselPool::new(4);
    session.engine().set_morsel_pool(pool.clone());
    session.register("cpu-p8", Arc::new(cpu_p(8)));

    let program = voodoo::algos::aggregate::grouped_sum_count("t", "val", "val", 4000);
    let oracle = session
        .program(program.clone())
        .run_on("interp")
        .expect("oracle");
    let mut stole = false;
    for round in 0..20 {
        let parallel = session
            .program(program.clone())
            .run_on("cpu-p8")
            .expect("pooled");
        assert_eq!(
            oracle.raw().returns,
            parallel.raw().returns,
            "bit-identical on the stealing pool (round {round})"
        );
        let m = session.metrics();
        assert!(m.pool_tasks > 0, "statements must route through the pool");
        if m.steals > 0 {
            stole = true;
            break;
        }
    }
    assert!(
        stole,
        "P=8 morsels over a 4-worker pool must observe ≥ 1 steal: {:?} / {:?}",
        session.metrics(),
        pool.stats()
    );
    pool.shutdown();
}

/// Pool lifecycle through the engine: shutdown degrades to inline (still
/// bit-identical), and installing a fresh pool "restarts" pooled
/// execution.
#[test]
fn engine_pool_shutdown_and_restart_keep_serving() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..50_000).collect::<Vec<_>>());
    let session = Session::new(cat);
    session.register("cpu-p4", Arc::new(cpu_p(4)));
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 100);
    let sel = p.fold_select_global(pred);
    let sum = p.fold_sum_global(t);
    p.ret(sel);
    p.ret(sum);
    let oracle = session.program(p.clone()).run_on("interp").unwrap();

    let pool = MorselPool::new(2);
    session.engine().set_morsel_pool(pool.clone());
    let pooled = session.program(p.clone()).run_on("cpu-p4").unwrap();
    assert_eq!(oracle.raw().returns, pooled.raw().returns);
    let tasks_before = pool.stats().tasks;
    assert!(tasks_before > 0, "pooled execution queued tasks");

    // Shut the pool down mid-service: statements fall back to inline
    // execution on the submitting thread — correct, just serial.
    pool.shutdown();
    assert!(pool.is_shut_down());
    let inline = session.program(p.clone()).run_on("cpu-p4").unwrap();
    assert_eq!(oracle.raw().returns, inline.raw().returns);
    assert_eq!(
        pool.stats().tasks,
        tasks_before,
        "a shut-down pool queues nothing new"
    );

    // Restart = hand the engine a fresh pool.
    let fresh = MorselPool::new(2);
    session.engine().set_morsel_pool(fresh.clone());
    let restarted = session.program(p).run_on("cpu-p4").unwrap();
    assert_eq!(oracle.raw().returns, restarted.raw().returns);
    assert!(fresh.stats().tasks > 0, "fresh pool serves the morsels");
    fresh.shutdown();
}

#[test]
fn batched_statements_share_partitioned_results_with_serial() {
    // End-to-end through the admission queue: a mixed batch on the
    // default (Auto-parallel) cpu backend agrees with the interpreter.
    let session = Session::tpch(0.01);
    let specs: Vec<StatementSpec> = CPU_QUERIES
        .iter()
        .take(4)
        .map(|q| StatementSpec::tpch(*q))
        .collect();
    let batch = session.run_batch(&specs);
    for (spec_result, q) in batch.iter().zip(CPU_QUERIES.iter()) {
        let rows = spec_result.as_ref().expect("batch slot").rows();
        let oracle = session.query(*q).run_on("interp").unwrap();
        assert_eq!(oracle.rows(), rows, "{}", q.name());
    }
}
