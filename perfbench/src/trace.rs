//! The traced run's span recorder.
//!
//! Spans are opened only from this benchmark's own code, around each call
//! it makes into a layer's public functions (and around the callbacks a
//! layer makes back into it). Each span carries a name, wall start and
//! end on one process-wide timeline, its parent (the innermost span open
//! on the same OS thread) and the op it belongs to. A span around a call
//! that may park its strand also carries the calling thread's CPU time
//! over the span: a parked strand accrues none, so `busy` is the thread's
//! own work and `wall - busy` is the time it waited. Spans stay in memory
//! and are written out once, after the run.

use crate::host::thread_cpu_ns;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The op id of a span that belongs to no single op.
pub const NO_OP: u64 = u64::MAX;
/// The parent id of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Pops this thread's innermost open span, even when the traced call
/// unwinds (a contained handler panic must not corrupt later parents).
struct Opened;

impl Drop for Opened {
    fn drop(&mut self) {
        OPEN.with(|s| s.borrow_mut().pop());
    }
}

/// A span recorder, or nothing: with tracing off a span is a direct call.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Recorder>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Recorder {
            t0: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f`, which never parks its strand, inside a span named `name`
    /// for op `op`. Its busy time is its wall time.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.record(name, op, false, f)
    }

    /// Runs `f`, which may park its strand, inside a span: its busy time
    /// is the thread's CPU time over the span, the rest is waiting. Reading
    /// the thread's CPU clock is a system call, which is why spans that
    /// cannot park skip it.
    pub fn parking<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.record(name, op, true, f)
    }

    fn record<R>(&self, name: &'static str, op: u64, parks: bool, f: impl FnOnce() -> R) -> R {
        let Some(rec) = &self.0 else {
            return f();
        };
        let id = rec.next.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — a unique id; nothing is published through it.
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(ROOT);
            s.push(id);
            parent
        });
        let opened = Opened;
        let busy0 = if parks { thread_cpu_ns() } else { 0 };
        let start_ns = rec.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = rec.t0.elapsed().as_nanos() as u64;
        let busy_ns = if parks {
            thread_cpu_ns().saturating_sub(busy0)
        } else {
            end_ns - start_ns
        };
        drop(opened);
        rec.spans.lock().push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
            busy_ns,
        });
        out
    }

    /// Every span recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = self
            .0
            .as_ref()
            .map_or_else(Vec::new, |r| std::mem::take(&mut *r.spans.lock()));
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its direct children's intervals (children
/// clipped to the parent, overlaps counted once). Returned by span index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            s.wall_ns() - covered
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub wall_ns: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.wall_ns += s.wall_ns();
        t.busy_ns += s.busy_ns;
        t.self_ns += self_ns;
    }
    out
}

/// CPU time the root spans account for. At one worker, strands and the
/// coordinator take turns, so root spans' busy times never overlap and
/// their sum is the part of the run's wall time some span covers.
pub fn root_busy_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == ROOT)
        .map(|s| s.busy_ns)
        .sum()
}

/// Share of `run_ns` of wall time that no span covers.
pub fn unattributed_share(root_busy_ns: u64, run_ns: u64) -> f64 {
    if run_ns == 0 {
        return 0.0;
    }
    (1.0 - root_busy_ns as f64 / run_ns as f64).clamp(0.0, 1.0)
}

/// Writes the spans as tab-separated rows under a `#`-prefixed header.
pub fn write_tsv(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {header}")?;
    writeln!(w, "id\tparent\tname\top\tstart_ns\tend_ns\tbusy_ns")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let op = if s.op == NO_OP {
            "-".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            w,
            "{}\t{parent}\t{}\t{op}\t{}\t{}\t{}",
            s.id, s.name, s.start_ns, s.end_ns, s.busy_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64, busy_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == ROOT { "outer" } else { "inner" },
            op: 0,
            start_ns,
            end_ns,
            busy_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(0, ROOT, 0, 100, 100),
            span(1, 0, 10, 20, 10),
            span(2, 0, 30, 50, 20),
            // A grandchild is its parent's business, not the root's.
            span(3, 2, 35, 45, 10),
        ];
        assert_eq!(self_times(&spans), vec![70, 10, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span(0, ROOT, 100, 200, 0),
            span(1, 0, 110, 140, 0),
            span(2, 0, 130, 160, 0),
            // Sticks out past the parent's end: only 190..200 counts.
            span(3, 0, 190, 230, 0),
            // Entirely inside an earlier child.
            span(4, 0, 115, 125, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (160 - 110) - (200 - 190));
    }

    #[test]
    fn totals_sum_by_name() {
        let spans = [
            span(0, ROOT, 0, 100, 60),
            span(1, 0, 10, 30, 5),
            span(2, ROOT, 200, 250, 50),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["outer"],
            Totals {
                count: 2,
                wall_ns: 150,
                busy_ns: 110,
                self_ns: 130
            }
        );
        assert_eq!(t["inner"].self_ns, 20);
        assert_eq!(root_busy_ns(&spans), 110);
    }

    #[test]
    fn unattributed_share_is_the_uncovered_part_of_the_run() {
        assert_eq!(unattributed_share(250, 1000), 0.75);
        assert_eq!(unattributed_share(1500, 1000), 0.0);
        assert_eq!(unattributed_share(0, 0), 0.0);
    }

    #[test]
    fn recorder_links_parents_per_thread_and_splits_busy() {
        let tr = Tracer::on();
        tr.parking("outer", 7, || {
            tr.span("inner", 7, || std::hint::black_box(1 + 1));
            // A sleeping thread accrues wall time but no CPU time.
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        let other = tr.clone();
        std::thread::spawn(move || other.span("elsewhere", NO_OP, || ()))
            .join()
            .expect("tracing thread");
        let spans = tr.take();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span");
        assert_eq!(by("inner").parent, by("outer").id);
        assert_eq!(by("outer").parent, ROOT);
        assert_eq!(by("elsewhere").parent, ROOT);
        assert_eq!(by("outer").op, 7);
        let outer = by("outer");
        assert!(outer.wall_ns() >= 20_000_000);
        assert!(outer.busy_ns < outer.wall_ns() / 2, "sleep is not busy");
        assert_eq!(by("inner").busy_ns, by("inner").wall_ns());
    }

    #[test]
    fn tracing_off_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("x", 0, || 5), 5);
        assert!(tr.take().is_empty());
        assert!(!tr.is_on());
    }
}
