//! What the five workloads share: their names and reasons, the run
//! context, the samples an untraced run yields and the per-layer metric
//! map a traced run fills.

use crate::stats::{geomean, median, percentile, segment_of, sorted, tail_percentile, SEGMENTS};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `(name, why)`, in the order a full run executes them. The `why` lines
/// are the ones `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "synth_cold",
        "source text to plan with no cache: the paper's Table 2 quantity, where the solver does about 85% of the work",
    ),
    (
        "synth_hit",
        "the same requests through a populated disk-backed cache: the solver does nothing, so lowering, fingerprint, cache reads and codegen own the time",
    ),
    (
        "exec_sim",
        "executing synthesized plans, dry-run at paper scale and with real numbers at test scale: the only workload exec, ga and disksim dominate",
    ),
    (
        "serve_warm",
        "journaled one-worker daemon, two closed-loop clients, 90% repeats of warm specs and 10% cold: the read path, with queueing behind the colds in the tail",
    ),
    (
        "serve_cold",
        "the same daemon with every job unique: each job solves, stores a record through fsync and rename, and journals, so the write path and the solver matter",
    ),
];

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// This process's own directory for caches and journals; removed on exit.
    pub scratch: PathBuf,
}

/// One finished operation of an untraced run.
#[derive(Clone, Copy)]
pub struct Op {
    pub class: usize,
    /// Completion time, seconds since the loop began.
    pub done_s: f64,
    pub latency_s: f64,
}

/// What one untraced, closed-loop run observed.
pub struct Samples {
    pub classes: Vec<String>,
    pub ops: Vec<Op>,
    pub window_s: f64,
    pub failed: u64,
}

/// The timed end-to-end metrics of a run's own loop, wall-clock.
pub struct Timed {
    pub op_geomean_ms: f64,
    pub op_tail_ms: f64,
    /// The percentile `op_tail_ms` is, chosen from this run's own count.
    pub tail_percentile: f64,
    /// That percentile over all operations of the window at once.
    pub whole_window_tail_ms: f64,
    pub ops_per_s: f64,
}

impl Samples {
    pub fn new(ctx: &Ctx, classes: Vec<String>) -> Self {
        Samples {
            classes,
            ops: Vec::new(),
            window_s: ctx.seconds,
            failed: 0,
        }
    }

    /// Records one operation of a loop that began at `origin`; returns
    /// whether the window is still open.
    pub fn push_timed(
        &mut self,
        class: usize,
        origin: Instant,
        began: Instant,
        done: Instant,
        ok: bool,
    ) -> bool {
        let done_s = (done - origin).as_secs_f64();
        self.ops.push(Op {
            class,
            done_s,
            latency_s: (done - began).as_secs_f64(),
        });
        self.failed += u64::from(!ok);
        done_s < self.window_s
    }

    /// [`Samples::push_timed`] for an operation that ends now.
    pub fn push(&mut self, class: usize, origin: Instant, began: Instant, ok: bool) -> bool {
        self.push_timed(class, origin, began, Instant::now(), ok)
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Latencies in seconds by class.
    fn by_class(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.classes.len()];
        for op in &self.ops {
            out[op.class].push(op.latency_s);
        }
        out
    }

    /// Latencies in seconds by the segment the operation completed in;
    /// what completed after the window closed is in none.
    fn by_segment(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SEGMENTS];
        for op in &self.ops {
            if let Some(k) = segment_of(op.done_s, self.window_s) {
                out[k].push(op.latency_s);
            }
        }
        out
    }

    /// The timed metrics, all wall-clock.
    ///
    /// `op_geomean_ms` is the geometric mean over the classes that ran of
    /// the class's median latency. The tail's percentile p is the highest
    /// with at least ten samples beyond it among the operations of the
    /// window, and `ops_per_s` their count over the window. The window
    /// is cut into [`SEGMENTS`] equal segments and `op_tail_ms` is the
    /// median of their p-th percentile latencies, which a stall confined
    /// to a few segments does not move; the p-th percentile over the
    /// whole window, which it does, is kept beside it.
    pub fn timed(&self) -> Timed {
        let medians: Vec<f64> = self
            .by_class()
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(l) * 1e3)
            .collect();
        let segments = self.by_segment();
        let in_window = sorted(segments.concat());
        let p = tail_percentile(in_window.len());
        let tails: Vec<f64> = segments
            .iter()
            .filter(|ops| !ops.is_empty())
            .map(|ops| percentile(&sorted(ops.clone()), p) * 1e3)
            .collect();
        Timed {
            op_geomean_ms: geomean(&medians),
            op_tail_ms: median(&tails),
            tail_percentile: p,
            whole_window_tail_ms: percentile(&in_window, p) * 1e3,
            ops_per_s: in_window.len() as f64 / self.window_s,
        }
    }

    /// `(class, samples, median ms)` rows, one per class that ran.
    pub fn class_rows(&self) -> Vec<(String, usize, f64)> {
        self.classes
            .iter()
            .zip(self.by_class())
            .filter(|(_, l)| !l.is_empty())
            .map(|(c, l)| (c.clone(), l.len(), median(&l) * 1e3))
            .collect()
    }
}

/// Per-layer metrics of a traced run, by `layer.metric` name. A metric a
/// workload never sets reads 0: that layer is not on the workload's path.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a traced run hands back.
pub struct Traced {
    pub tracer: Tracer,
    pub classes: Vec<String>,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable per-layer tables.
    pub tables: String,
}

/// Median of the spans named `name`, in microseconds (0 when none ran).
pub fn p50_us(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_us(name))
}

/// One table of spans: count, median, median self time and the median's
/// share of `whole_us`.
pub fn span_table(
    title: &str,
    rows: &[(&'static str, Vec<f64>, Vec<f64>, bool)],
    whole_us: f64,
) -> String {
    let mut out = format!(
        "  {title}\n    {:<26} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "n", "p50_us", "self_p50_us", "share"
    );
    for (name, durs, own, redundant) in rows {
        let p50 = median(durs);
        out.push_str(&format!(
            "    {:<26} {:>7} {:>12.1} {:>12.1} {:>6.1}%{}\n",
            name,
            durs.len(),
            p50,
            median(own),
            100.0 * p50 / whole_us.max(1e-9),
            if *redundant { "  (redundant)" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 s window, one segment a second: `per_segment[k]` operations of
    /// class `k % 2` complete in segment `k`, class 0 taking 1 ms and
    /// class 1 taking 4 ms, the last one of each segment 10 ms.
    fn samples(per_segment: [usize; SEGMENTS]) -> Samples {
        let mut s = Samples {
            classes: vec!["fast".to_string(), "slow".to_string(), "idle".to_string()],
            ops: Vec::new(),
            window_s: 10.0,
            failed: 0,
        };
        for (k, &n) in per_segment.iter().enumerate() {
            for i in 0..n {
                s.ops.push(Op {
                    class: k % 2,
                    done_s: k as f64 + (i as f64 + 0.5) / n as f64,
                    latency_s: match (i + 1 == n, k % 2) {
                        (true, _) => 0.010,
                        (false, 0) => 0.001,
                        (false, _) => 0.004,
                    },
                });
            }
        }
        // one more completes after the window has closed: it counts as
        // attempted and towards its class, and towards no segment
        s.ops.push(Op {
            class: 0,
            done_s: 10.2,
            latency_s: 0.001,
        });
        s
    }

    #[test]
    fn rate_counts_what_completed_inside_the_window() {
        let s = samples([40, 40, 40, 40, 40, 44, 44, 44, 44, 400]);
        // 776 operations in a 10 s window; the one after it is attempted
        // and not counted towards the rate
        assert_eq!(s.timed().ops_per_s, 77.6);
        assert_eq!(s.attempted(), 777);
    }

    #[test]
    fn latency_is_the_geomean_of_the_class_medians_that_ran() {
        let t = samples([40; SEGMENTS]).timed();
        // medians 1 ms and 4 ms; the class that never ran is left out
        assert!((t.op_geomean_ms - 2.0).abs() < 1e-9, "{}", t.op_geomean_ms);
    }

    #[test]
    fn tail_percentile_follows_the_count_in_the_window() {
        // 400 in the window: p95 is the highest percentile with ten
        // beyond it; the one after the window does not count
        let t = samples([40; SEGMENTS]).timed();
        assert_eq!(t.tail_percentile, 95.0);
        // a segment's p95 is its 38th of 40: segments alternate between
        // 1 ms and 4 ms operations
        assert!((t.op_tail_ms - 2.5).abs() < 1e-9, "{}", t.op_tail_ms);
        // over the whole window the p95 is the 380th of 400, a 4 ms one
        assert!((t.whole_window_tail_ms - 4.0).abs() < 1e-9);
        assert_eq!(samples([99; SEGMENTS]).timed().tail_percentile, 95.0);
        assert_eq!(samples([100; SEGMENTS]).timed().tail_percentile, 99.0);
    }

    #[test]
    fn a_stall_in_a_few_segments_shows_in_the_whole_window_tail() {
        let mut s = samples([100; SEGMENTS]);
        // every operation of three segments stalls for 50 ms
        for op in s.ops.iter_mut().filter(|op| op.done_s < 3.0) {
            op.latency_s = 0.050;
        }
        let t = s.timed();
        assert_eq!(t.tail_percentile, 99.0);
        // the median segment is an undisturbed one of 4 ms operations
        assert!((t.op_tail_ms - 4.0).abs() < 1e-9, "{}", t.op_tail_ms);
        assert!((t.whole_window_tail_ms - 50.0).abs() < 1e-9);
    }
}
