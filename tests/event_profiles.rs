//! Event-count golden for the compiled CPU backend on real plans.
//!
//! The simulated GPU (`voodoo-gpusim`, `SimGpuBackend::profile`) and the
//! paper-figure harness price plans from the architectural events the
//! compiled backend counts while it executes. This test pins those
//! counts exactly — per execution unit, at `Parallelism::Off`, in
//! branching and predicated mode — for TPC-H Q1/Q6/Q12/Q19 at SF 0.002
//! and for the DAG-heavy hash-table cookbook programs, whose probe
//! cursors are shared by dozens of expression nodes. Any kernel rewrite
//! must reproduce them event for event.
//!
//! On a mismatch the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/event_profiles.actual.txt` for review.

use voodoo::algos::hashtable::{build_linear_probe, hash_join_rowids, probe_linear};
use voodoo::compile::exec::{ExecOptions, Executor};
use voodoo::compile::Compiler;
use voodoo::core::Program;
use voodoo::relational::queries::run_query;
use voodoo::relational::Session;
use voodoo::storage::Catalog;
use voodoo::tpch::queries::Query;

/// Render every unit profile of `p` over `cat` in both selection modes.
fn render(out: &mut String, name: &str, p: &Program, cat: &Catalog) {
    let cp = Compiler::new(cat).compile(p).expect("compile");
    for predicated in [false, true] {
        let exec = Executor::new(ExecOptions {
            count_events: true,
            predicated_select: predicated,
            ..Default::default()
        });
        let (_, total, units) = exec.run_with_unit_profiles(&cp, cat).expect("exec");
        out.push_str(&format!("{name} predicated={predicated}\n"));
        for (ui, up) in units.iter().enumerate() {
            out.push_str(&format!("  unit {ui}: {up:?}\n"));
        }
        out.push_str(&format!("  total: {total:?}\n"));
    }
}

#[test]
fn tpch_and_hashtable_event_profiles_match_golden() {
    let mut actual = String::new();

    let session = Session::tpch(0.002);
    let cat = session.catalog();
    for q in [Query::Q1, Query::Q6, Query::Q12, Query::Q19] {
        let mut k = 0;
        run_query(&cat, q, &mut |p, c| {
            render(&mut actual, &format!("{} program {k}", q.name()), p, c);
            k += 1;
            let exec = Executor::single_threaded();
            let cp = Compiler::new(c).compile(p)?;
            Ok(exec.run(&cp, c)?.0)
        })
        .expect("query");
    }

    let mut cat = Catalog::in_memory();
    let keys: Vec<i64> = (0..200).map(|i| (i * 7919) % 1000).collect();
    let probes: Vec<i64> = (0..300).map(|i| (i * 613) % 1200).collect();
    cat.put_i64_column("keys", &keys);
    cat.put_i64_column("probes", &probes);
    let build = build_linear_probe("keys", 256, 4, "ht");
    render(&mut actual, "build_linear_probe", &build, &cat);
    let exec = Executor::single_threaded();
    let (out, _) = exec
        .run(&Compiler::new(&cat).compile(&build).expect("compile"), &cat)
        .expect("build");
    for (name, v) in out.persisted {
        cat.persist_vector(&name, &v);
    }
    render(
        &mut actual,
        "probe_linear",
        &probe_linear("ht", "probes", 256, 4),
        &cat,
    );
    render(
        &mut actual,
        "hash_join_rowids",
        &hash_join_rowids("keys", "probes", 256, 3),
        &cat,
    );

    let golden = include_str!("golden/event_profiles.txt");
    if actual != golden {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("event_profiles.actual.txt");
        let _ = std::fs::write(&path, &actual);
        let first = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("actual: {a}\ngolden: {g}"))
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "event profiles diverge from tests/golden/event_profiles.txt ({} written):\n{first}",
            path.display()
        );
    }
}
