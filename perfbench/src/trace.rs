//! In-memory span recording for the traced run.
//!
//! A span is a named interval on the client thread with a parent and the
//! id of the workload op it belongs to. Spans are opened and closed by a
//! guard, kept in a thread-local buffer reserved up front, and written
//! out only when the run ends, so recording costs two clock reads and a
//! push.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a span opened outside any other span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage name, e.g. `sql.parse`.
    pub name: &'static str,
    /// The workload op this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    enabled: bool,
    op: u32,
    open: u32,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        enabled: false,
        op: 0,
        open: NO_PARENT,
        spans: Vec::new(),
    });
}

/// Start recording on this thread, reserving room for `capacity` spans.
pub fn enable(capacity: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.spans.reserve(capacity);
    });
}

/// Attribute the spans opened from now on to workload op `op`.
pub fn set_op(op: u32) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Stop recording and hand back every span recorded on this thread.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        r.open = NO_PARENT;
        std::mem::take(&mut r.spans)
    })
}

/// Closes its span when dropped.
pub struct Guard {
    idx: u32,
}

/// Open a span named `name` under the innermost open span. A no-op
/// while recording is disabled.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard { idx: NO_PARENT };
        }
        let idx = r.spans.len() as u32;
        let span = Span {
            name,
            op: r.op,
            parent: r.open,
            start_ns: r.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        r.spans.push(span);
        r.open = idx;
        Guard { idx }
    })
}

/// Run `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.idx == NO_PARENT {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            let s = &mut r.spans[self.idx as usize];
            s.end_ns = now;
            r.open = s.parent;
        });
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Per span name, the durations of the spans with that name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.dur_ns());
    }
    out
}

/// Render spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::with_capacity(spans.len() * 96);
    for (i, sp) in spans.iter().enumerate() {
        let parent = if sp.parent == NO_PARENT {
            "null".to_string()
        } else {
            sp.parent.to_string()
        };
        s.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            sp.name, sp.op, sp.start_ns, sp.end_ns
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        let spans = [
            sp("root", NO_PARENT, 0, 100),
            sp("a", 0, 10, 40),
            sp("a1", 1, 15, 25),
            sp("b", 0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_attributes_ops() {
        let _ = take();
        enable(16);
        set_op(7);
        {
            let _root = span("root");
            timed("child", || std::hint::black_box(1 + 1));
            {
                let _c2 = span("child2");
                timed("grandchild", || ());
            }
        }
        set_op(8);
        timed("next", || ());
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["root", "child", "child2", "grandchild", "next"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 0, 2, NO_PARENT]);
        assert_eq!(spans[3].op, 7);
        assert_eq!(spans[4].op, 8);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns, "{s:?} closed");
        }
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1] + selfs[2] + selfs[3], spans[0].dur_ns());
        // Disabled again: spans are not recorded.
        timed("ignored", || ());
        assert!(take().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = [sp("root", NO_PARENT, 0, 9), sp("a", 0, 1, 2)];
        let out = to_jsonl(&spans);
        assert_eq!(out.lines().count(), 2);
        assert!(out.starts_with("{\"id\":0,\"name\":\"root\",\"op\":0,\"parent\":null"));
        assert!(out.contains("\"parent\":0,"));
    }
}
