//! The ISSUE-8 acceptance tests: the segmented append path publishes
//! snapshots in O(batch), and everything downstream of a write stays
//! exact — column stats track the *stored* (cast) values, the change
//! floor refuses stale readers with no off-by-one, append deltas are
//! served from segments even past the bounded change log, and writers
//! racing readers (with mid-read compaction) never tear a snapshot:
//! every observed state is bit-identical to a serial prefix.

use std::sync::atomic::{AtomicBool, Ordering};

use voodoo::core::Buffer;
use voodoo::relational::{Session, StatementSpec};
use voodoo::storage::{Catalog, RowDelta, Table, TableColumn, MAX_CHANGE_LOG};

const BACKENDS: [&str; 3] = ["interp", "cpu", "gpu"];

fn kv_table(name: &str, n: usize) -> Table {
    let mut t = Table::new(name);
    t.add_column(TableColumn::from_buffer(
        "k",
        Buffer::I64((0..n as i64).map(|i| i % 64).collect()),
    ));
    t.add_column(TableColumn::from_buffer(
        "v",
        Buffer::I64((0..n as i64).collect()),
    ));
    t
}

/// Satellite (a): `Table::append_rows` must cast each value to the
/// column's storage type *before* widening stats, so stats always bound
/// the data actually stored. An out-of-range i64 appended into an I32
/// column wraps; if stats tracked the raw value, the verifier's
/// stats-derived domains would cover values the column cannot hold.
#[test]
fn stats_bound_stored_values_and_verify_verdict_is_stable() {
    let raw = i32::MAX as i64 + 2;
    let stored = raw as i32 as i64; // wraps to i32::MIN + 1

    let mut t = Table::new("m");
    t.add_column(TableColumn::from_buffer("v", Buffer::I32(vec![5, 6, 7])));
    let mut cat = Catalog::in_memory();
    cat.insert_table(t);
    let session = Session::new(cat);

    let spec = StatementSpec::sql("SELECT MIN(v), MAX(v) FROM m");
    assert_eq!(session.verify(&spec), vec![], "clean before the append");

    assert!(session.append_rows("m", &[vec![raw]]));

    // Stats must match the stored data exactly — queried and merged.
    assert_eq!(
        session.run_sql("SELECT MIN(v), MAX(v) FROM m").unwrap(),
        vec![vec![stored, 7]],
    );
    let snapshot = session.catalog();
    let table = snapshot.table("m").unwrap();
    let stats = table
        .column("v")
        .unwrap()
        .stats
        .expect("integer column keeps stats");
    let merged = table.merged_column("v").unwrap();
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for i in 0..merged.len() {
        let x = match merged.get(i) {
            Some(voodoo::core::ScalarValue::I32(x)) => x as i64,
            other => panic!("I32 column yielded {other:?}"),
        };
        lo = lo.min(x);
        hi = hi.max(x);
    }
    assert_eq!((stats.min, stats.max), (lo, hi), "stats must bound storage");
    assert!(stats.min >= i32::MIN as i64 && stats.max <= i32::MAX as i64);

    assert_eq!(session.verify(&spec), vec![], "verdict unchanged after");
}

/// Satellite (c): the change-floor boundary, pinned exactly. In-place
/// updates (which the segment fast path can never serve) push the log
/// past capacity; `changes_since(floor)` must refuse, and
/// `changes_since(floor + 1)` must serve the exact retained delta.
#[test]
fn change_floor_boundary_is_exact() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..8).collect::<Vec<i64>>());

    // Shadow oracle: the table's current values, plus every update's
    // (version, -old/+new) pair as the log captures it.
    let mut shadow: Vec<i64> = (0..8).collect();
    let mut captured: Vec<(u64, RowDelta)> = Vec::new();
    for i in 0..MAX_CHANGE_LOG + 8 {
        let (row, val) = (i % 8, 1000 + i as i64);
        let mut d = RowDelta::default();
        d.push(vec![shadow[row]], -1);
        d.push(vec![val], 1);
        shadow[row] = val;
        assert!(cat.update_rows("t", &[(row, vec![val])]));
        captured.push((cat.version(), d));
    }

    let floor = cat.change_floor();
    assert!(floor > 0, "the log must have trimmed");
    assert_eq!(
        cat.changes_since("t", floor),
        None,
        "at the floor the delta may be incomplete: refuse, never approximate"
    );
    let mut expected = RowDelta::default();
    for (v, d) in &captured {
        if *v > floor + 1 {
            expected.merge(d);
        }
    }
    assert_eq!(
        cat.changes_since("t", floor + 1),
        Some(expected),
        "one past the floor serves the exact retained delta"
    );
}

/// Satellite (b), release path: appends to a non-capturable (float)
/// table still publish in O(batch) but are logged as a coarse rewrite —
/// `changes_since` refuses rather than fabricating row images.
#[test]
fn non_capturable_appends_are_coarse_rewrites() {
    let mut t = Table::new("f");
    t.add_column(TableColumn::from_buffer("x", Buffer::F64(vec![1.5, 2.5])));
    let mut cat = Catalog::in_memory();
    cat.insert_table(t);
    let session = Session::new(cat);

    let before = session.catalog().version();
    assert!(session.append_rows("f", &[vec![9]]));
    let snapshot = session.catalog();
    assert_eq!(snapshot.table("f").unwrap().len, 3, "the append landed");
    assert_eq!(
        snapshot.changes_since("f", before),
        None,
        "float rows have no exact i64 image: readers must recompute"
    );
}

/// Append deltas are served from the table's resident segments, so a
/// maintained view refreshes incrementally even when the number of
/// appends since its last read exceeds the bounded change log.
#[test]
fn appends_beyond_log_window_still_delta_refresh_views() {
    let mut cat = Catalog::in_memory();
    // Base large enough that the appended tail never trips compaction.
    cat.insert_table(kv_table("t", 8192));
    let session = Session::new(cat);
    session
        .create_view("agg", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
        .expect("create view");
    session.read_view("agg").expect("initial read");
    let synced_at = session.catalog().version();
    let m0 = session.metrics();

    for i in 0..MAX_CHANGE_LOG + 16 {
        let v = 8192 + i as i64;
        assert!(session.append_rows("t", &[vec![v % 64, v]]));
    }
    assert!(
        session.catalog().change_floor() > synced_at,
        "the view's sync point must have fallen off the log"
    );

    let got = session.read_view("agg").expect("refresh");
    assert_eq!(
        got,
        session
            .run_sql("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
            .unwrap(),
        "refreshed view matches a fresh evaluation"
    );
    let m1 = session.metrics();
    assert_eq!(
        m1.delta_refreshes,
        m0.delta_refreshes + 1,
        "served from segments, in O(delta)"
    );
    assert_eq!(
        m1.full_recomputes, m0.full_recomputes,
        "never fell back to a rescan"
    );
}

/// Satellite (d): writers appending (and occasionally compacting) while
/// three backends and a maintained view read concurrently. Every
/// observed state must be bit-identical to a serial prefix of the
/// ingest stream — a compaction mid-read must never tear a snapshot —
/// and the quiesced table must match a serially built oracle.
#[test]
fn ingest_under_concurrent_reads_never_tears_a_snapshot() {
    const BASE: usize = 8192;
    const BATCHES: usize = 200;
    const BATCH_ROWS: usize = 16;

    let batch = |b: usize| -> Vec<Vec<i64>> {
        (0..BATCH_ROWS as i64)
            .map(|j| {
                let v = (BASE + b * BATCH_ROWS) as i64 + j;
                vec![v % 64, v]
            })
            .collect()
    };
    // With v = 0..count, any consistent prefix satisfies
    // SUM(v) == count * (count - 1) / 2.
    let check_prefix = |count: i64, sum: i64, who: &str| {
        assert!(count >= BASE as i64, "{who}: count {count} below base");
        assert_eq!(
            (count - BASE as i64) % BATCH_ROWS as i64,
            0,
            "{who}: count {count} is not a whole number of batches — torn"
        );
        assert_eq!(
            sum,
            count * (count - 1) / 2,
            "{who}: sum does not match a serial prefix of {count} rows"
        );
    };

    let mut cat = Catalog::in_memory();
    cat.insert_table(kv_table("t", BASE));
    let session = Session::new(cat);
    session
        .create_view("agg", "SELECT SUM(v), COUNT(*) FROM t")
        .expect("create view");
    session.read_view("agg").expect("initial read");

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer_session = session.clone();
        let done_ref = &done;
        scope.spawn(move || {
            for b in 0..BATCHES {
                assert!(writer_session.append_rows("t", &batch(b)));
                if b % 32 == 31 {
                    // Physical-only fold: logically invisible to readers.
                    writer_session.mutate_catalog(|c| c.compact_table("t"));
                }
            }
            done_ref.store(true, Ordering::Release);
        });
        for backend in BACKENDS {
            let reader = session.clone();
            scope.spawn(move || {
                while !done_ref.load(Ordering::Acquire) {
                    let rows = reader
                        .sql("SELECT COUNT(*), SUM(v) FROM t")
                        .expect("parse")
                        .run_on(backend)
                        .unwrap_or_else(|e| panic!("{backend}: {e}"))
                        .into_rows()
                        .rows;
                    check_prefix(rows[0][0], rows[0][1], backend);
                }
            });
        }
        let view_reader = session.clone();
        scope.spawn(move || {
            while !done_ref.load(Ordering::Acquire) {
                let rows = view_reader.read_view("agg").expect("view refresh");
                check_prefix(rows[0][1], rows[0][0], "view");
            }
        });
    });

    // Quiesced: one more batch published by segment; the new snapshot
    // must share the base storage of the previous one (O(batch) proof).
    let before = session.catalog();
    assert!(session.append_rows("t", &batch(BATCHES)));
    let after = session.catalog();
    let (b, a) = (before.table("t").unwrap(), after.table("t").unwrap());
    assert!(
        b.columns[0].data.shares_storage_with(&a.columns[0].data),
        "publication must share the base buffers, not copy them"
    );

    // Bit-identity with a serially built oracle, on every backend.
    let mut oracle_cat = Catalog::in_memory();
    oracle_cat.insert_table(kv_table("t", BASE));
    for b in 0..=BATCHES {
        assert!(oracle_cat.append_rows("t", &batch(b)));
    }
    let oracle = Session::new(oracle_cat);
    for q in [
        "SELECT COUNT(*), SUM(v) FROM t",
        "SELECT k, SUM(v), COUNT(*), MIN(v), MAX(v) FROM t GROUP BY k",
    ] {
        let want = oracle.run_sql(q).expect(q);
        for backend in BACKENDS {
            let got = session
                .sql(q)
                .expect("parse")
                .run_on(backend)
                .unwrap_or_else(|e| panic!("{backend}: {e}"))
                .into_rows()
                .rows;
            assert_eq!(got, want, "{backend}: {q} differs from the serial oracle");
        }
    }
    assert_eq!(
        session.read_view("agg").expect("final view"),
        oracle.run_sql("SELECT SUM(v), COUNT(*) FROM t").unwrap(),
        "maintained view differs from the serial oracle"
    );
}

/// The acceptance figure, pinned in release builds: appending a batch
/// into a 1M-row table must be at least 10x cheaper than the seed's
/// copy-out publication (in practice it is orders of magnitude).
#[test]
fn segmented_append_beats_copyout_by_10x_at_1m_rows() {
    if cfg!(debug_assertions) {
        return; // unoptimized copies skew both sides; release-only
    }
    let rows = voodoo_bench::figures::ingest(1 << 20, 3);
    let speedup = rows
        .iter()
        .rfind(|r| r.series == "ingest-speedup (x)")
        .and_then(|r| r.seconds)
        .expect("speedup series present");
    assert!(
        speedup >= 10.0,
        "segmented append only {speedup:.1}x over copy-out at 1M rows"
    );
}

/// What an append may change, per table: the catalog version, the
/// table's version, length and segment count, and its change log.
fn append_state(cat: &Catalog, table: &str) -> (u64, u64, usize, usize, Option<RowDelta>) {
    let t = cat.table(table).expect("table exists");
    (
        cat.version(),
        t.version,
        t.len,
        t.segments().len(),
        cat.changes_since(table, 0),
    )
}

/// A malformed batch (a row with too few or too many values, or an
/// empty row) is refused with `false` at every front door — `Catalog`,
/// `Engine`, `Session` and a 2-shard `ShardedEngine` — instead of
/// panicking, and leaves the snapshot exactly as it was: no version
/// bump, no segment, no change-log entry. A well-formed batch still
/// appends afterwards.
#[test]
fn wrong_arity_appends_are_refused_without_side_effects() {
    use voodoo::relational::{Engine, Router, ShardedEngine};

    let bad: [Vec<Vec<i64>>; 4] = [
        vec![vec![]],
        vec![vec![1]],
        vec![vec![1, 2, 3]],
        vec![vec![1, 2], vec![3]],
    ];
    let base = || {
        let mut cat = Catalog::in_memory();
        cat.insert_table(kv_table("kv", 100));
        cat.insert_table(kv_table("other", 10));
        cat
    };

    let mut cat = base();
    let before = append_state(&cat, "kv");
    for rows in &bad {
        assert!(!cat.append_rows("kv", rows), "catalog accepted {rows:?}");
        assert_eq!(
            append_state(&cat, "kv"),
            before,
            "catalog changed on {rows:?}"
        );
    }

    let engine = Engine::new(base());
    let session = Session::new(base());
    let before = append_state(&engine.snapshot(), "kv");
    for rows in &bad {
        assert!(!engine.append_rows("kv", rows), "engine accepted {rows:?}");
        assert!(
            !session.append_rows("kv", rows),
            "session accepted {rows:?}"
        );
        assert_eq!(append_state(&engine.snapshot(), "kv"), before);
        assert_eq!(append_state(&session.catalog(), "kv"), before);
    }
    assert!(engine.append_rows("kv", &[vec![1, 2]]));
    assert_eq!(engine.snapshot().table("kv").unwrap().len, 101);

    let sharded = ShardedEngine::new(base(), 2, Router::Hash);
    let owner = sharded.table_shard("kv");
    let shard_state = |i: usize| {
        let snap = sharded.shard_engine(i).snapshot();
        (
            snap.version(),
            snap.table("kv").map(|_| append_state(&snap, "kv")),
        )
    };
    let before: Vec<_> = (0..2).map(shard_state).collect();
    for rows in &bad {
        assert!(
            !sharded.append_rows("kv", rows),
            "sharded accepted {rows:?}"
        );
        let after: Vec<_> = (0..2).map(shard_state).collect();
        assert_eq!(after, before, "a shard changed on {rows:?}");
    }
    assert!(sharded.append_rows("kv", &[vec![1, 2]]));
    let grown = sharded.shard_engine(owner).snapshot();
    assert_eq!(grown.table("kv").unwrap().len, 101);
    sharded.shutdown();
}
