//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the measured crates is instrumented: a span is two
//! clock reads taken here, on either side of a public call. Spans stay in
//! memory until the workload ends; [`Tracer::write`] then stores them
//! with their per-name totals. A disabled tracer reads no clock, so the
//! untraced pass pays one branch per call site.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// At most this many spans of one name go into the trace file; the
/// per-name totals always cover every span recorded.
const WRITTEN_PER_NAME: usize = 5_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one began.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of all spans sharing a name (`self_ns` is
/// filled by [`totals`] only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer for another thread, on the same clock origin; hand it back
    /// with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { epoch: self.epoch, enabled: self.enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`]. Spans close in the
    /// reverse order they opened.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let id = self.spans.len() as u32;
            let parent = self.open.last().copied();
            let start_ns = self.now_ns();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
            self.open.push(id);
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            let end_ns = self.now_ns();
            let id = self.open.pop().expect("exit without a matching enter");
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Closes the open span and opens the next one of the same name on a
    /// single clock read: back-to-back spans over a tight loop cost one
    /// read per iteration instead of two.
    #[inline]
    pub fn lap(&mut self) {
        if self.enabled {
            let now_ns = self.now_ns();
            let last = *self.open.last().expect("lap without an open span");
            let Span { name, parent, .. } = self.spans[last as usize];
            self.spans[last as usize].end_ns = now_ns;
            *self.open.last_mut().expect("checked above") = self.spans.len() as u32;
            self.spans.push(Span { name, start_ns: now_ns, end_ns: now_ns, parent });
        }
    }

    /// Runs `f` inside a span; `f` gets the tracer back to open children.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Takes over the spans another thread recorded on a [`Tracer::fork`];
    /// its outermost spans become children of this tracer's open span.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert!(other.open.is_empty(), "absorbed tracer still has open spans");
        let shift = self.spans.len() as u32;
        let adopt = self.open.last().copied();
        self.spans.extend(
            other
                .spans
                .into_iter()
                .map(|s| Span { parent: s.parent.map(|p| p + shift).or(adopt), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Count and total time of the spans named `name`, in one scan (the
    /// self times in [`Tracer::totals`] need a pass over every span).
    pub fn total(&self, name: &str) -> NameTotals {
        let mut sum = NameTotals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            sum.count += 1;
            sum.total_ns += s.duration_ns();
        }
        sum
    }

    /// Writes the trace: per-name totals over all spans, then the spans
    /// themselves (the first [`WRITTEN_PER_NAME`] of each name).
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let by_name = self.totals().into_iter().map(|(name, t)| {
            let totals = vec![
                ("count", Value::UInt(t.count)),
                ("total_ns", Value::UInt(t.total_ns)),
                ("self_ns", Value::UInt(t.self_ns)),
            ];
            (name, Value::Obj(totals))
        });
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        let mut spans = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            let seen = written.entry(s.name).or_default();
            *seen += 1;
            if *seen <= WRITTEN_PER_NAME {
                spans.push(Value::Obj(vec![
                    ("id", Value::UInt(id as u64)),
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p)))),
                    ("workload", Value::str(workload)),
                ]));
            }
        }
        Value::Obj(vec![
            ("workload", Value::str(workload)),
            ("spans_recorded", Value::UInt(self.spans.len() as u64)),
            ("spans_written_per_name", Value::UInt(WRITTEN_PER_NAME as u64)),
            ("by_name", Value::Obj(by_name.collect())),
            ("spans", Value::Arr(spans)),
        ])
        .write_file(path)
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Children recorded on the parent's own thread never overlap (a thread
/// closes spans in reverse order), so the cover is the sum of child
/// durations; children absorbed from other threads can overlap, so the
/// cover is capped at the parent's own duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // run [0,100) ── step [10,40) ── inner [20,30)
        //             └─ step [50,70)
        let spans = [
            span("run", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("step", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let totals = totals(&spans);
        assert_eq!(totals["run"], NameTotals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(totals["step"], NameTotals { count: 2, total_ns: 50, self_ns: 40 });
        // Self times partition the root: nothing is counted twice.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn children_on_other_threads_cannot_drive_self_time_negative() {
        // Two client threads each busy for the whole parent interval.
        let spans =
            [span("window", 0, 100, None), span("a", 0, 100, Some(0)), span("b", 0, 100, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_records_nesting_and_adopts_forks() {
        let mut t = Tracer::new(true);
        let forked = t.span("outer", |t| {
            t.span("inner", |_| ());
            let mut f = t.fork();
            f.span("client", |f| f.span("call", |_| ()));
            t.absorb(f);
            t.spans().len()
        });
        assert_eq!(forked, 4);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["outer", "inner", "client", "call"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.total("inner").count, 1);
    }

    #[test]
    fn laps_share_their_boundaries() {
        let mut t = Tracer::new(true);
        t.enter("loop");
        t.enter("step");
        t.lap();
        t.lap();
        t.exit();
        t.exit();
        let s = t.spans();
        assert_eq!(s.iter().map(|s| s.name).collect::<Vec<_>>(), ["loop", "step", "step", "step"]);
        assert!(s[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!((s[1].end_ns, s[2].end_ns), (s[2].start_ns, s[3].start_ns));
        assert_eq!(self_times_ns(s)[0], s[0].duration_ns() - (s[3].end_ns - s[1].start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.total("x"), NameTotals::default());
        assert!(t.totals().is_empty());
    }
}
