//! Spans recorded by the benchmark's own code around each call into a
//! layer: kept in memory during the run, written as JSONL at the end.
//!
//! A span belongs to one operation (`op`), names the public call it wraps
//! and points at the span that caused it. Spans marked `redundant` repeat
//! work a sibling stage already did (a finer-grained call timed on its
//! own); they are reported but never counted towards a parent's children
//! or a stage sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    /// Operation the span belongs to; spans of one request share it.
    pub op: u64,
    /// Index into the workload's operation classes.
    pub class: u32,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub redundant: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every tracer of a run, so spans recorded on
    /// different threads land on one time axis.
    pub fn new(workload: &'static str, origin: Instant) -> Self {
        Tracer {
            workload,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        op: u64,
        class: u32,
        name: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.record(op, class, name, parent, start_ns, start_ns, false)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        class: u32,
        name: &'static str,
        parent: Option<SpanId>,
        redundant: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(op, class, name, parent, start_ns, end_ns, redundant);
        out
    }

    /// Records a span whose interval is already known, e.g. a duration
    /// the daemon reported for a job.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        op: u64,
        class: u32,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        redundant: bool,
    ) -> SpanId {
        self.spans.push(Span {
            op,
            class,
            name,
            parent,
            start_ns,
            end_ns,
            redundant,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its non-redundant child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.redundant) {
                let parent = &self.spans[p as usize];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Microseconds of every span named `name`, redundant or not.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span name within the operations `keep` selects:
    /// `(durations_us, self_times_us, redundant)`, in first-seen order of
    /// the names.
    pub fn by_name(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> Vec<(&'static str, Vec<f64>, Vec<f64>, bool)> {
        let self_ns = self.self_ns();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut rows: Vec<(&'static str, Vec<f64>, Vec<f64>, bool)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            if !keep(s) {
                continue;
            }
            let k = *index.entry(s.name).or_insert_with(|| {
                rows.push((s.name, Vec::new(), Vec::new(), s.redundant));
                rows.len() - 1
            });
            rows[k].1.push(s.dur_ns() as f64 / 1e3);
            rows[k].2.push(own as f64 / 1e3);
        }
        rows
    }

    /// One JSON object per line:
    /// `{workload, op_id, class, name, parent, start_ns, end_ns, redundant}`;
    /// `parent` is the line number (from 0) of the parent span or null.
    pub fn write_jsonl(&self, path: &Path, classes: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\": \"{}\", \"op_id\": {}, \"class\": \"{}\", \"name\": \"{}\", \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"redundant\": {}}}",
                self.workload,
                s.op,
                classes[s.class as usize],
                s.name,
                s.start_ns,
                s.end_ns,
                s.redundant
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new("test", Instant::now())
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = tracer();
        let root = t.record(1, 0, "op", None, 0, 100, false);
        let a = t.record(1, 0, "a", Some(root), 10, 50, false);
        t.record(1, 0, "a.inner", Some(a), 20, 30, false);
        // overlaps `a` by 10 ns and sticks out of the parent by 20 ns
        t.record(1, 0, "b", Some(root), 40, 120, false);
        let own = t.self_ns();
        // children cover [10, 100) of the root
        assert_eq!(own[root as usize], 10);
        assert_eq!(own[a as usize], 30);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 80);
    }

    #[test]
    fn redundant_spans_never_count_as_children() {
        let mut t = tracer();
        let root = t.record(1, 0, "op", None, 0, 100, false);
        t.record(1, 0, "stage", Some(root), 0, 60, false);
        t.record(1, 0, "finer", Some(root), 0, 40, true);
        assert_eq!(t.self_ns()[root as usize], 40);
        let rows = t.by_name(|_| true);
        let names: Vec<_> = rows.iter().map(|r| (r.0, r.3)).collect();
        assert_eq!(names, [("op", false), ("stage", false), ("finer", true)]);
    }
}
