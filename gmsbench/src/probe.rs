//! The traced run's recorder: per-call latency histograms, per-launch
//! scheduler readings and round → manager → launch spans, all recorded
//! from the benchmark's own calls into each layer's public functions.
//! Spans stay in memory and are written out when the run ends.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::SchedStats;

use crate::hist::Hist;

/// Per-call latency histograms of one manager.
#[derive(Default)]
pub struct OpHists {
    /// `malloc` (or `malloc_warp`) call latency.
    pub malloc: Hist,
    /// `free` (or `free_warp`) call latency.
    pub free: Hist,
}

/// One timed span. Every span of a round carries the round's number as
/// its trace id; `parent` is 0 for the round span itself.
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub manager: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Scheduler readings of one launch.
struct LaunchRecord {
    dispatch: Duration,
    /// `launch_*_with_stats` wall time minus the parallel section.
    overhead: Duration,
    elapsed: Duration,
    steals: u64,
    /// Busiest worker's warps ÷ mean warps per worker − 1.
    imbalance: f64,
}

/// Everything the traced run records.
pub struct Probe {
    epoch: Instant,
    /// Indexed like the run's manager list; shared with kernel closures.
    pub hists: Arc<[OpHists]>,
    launches: Vec<LaunchRecord>,
    spans: Vec<Span>,
    trace: u64,
}

impl Probe {
    /// A recorder for `managers` managers.
    pub fn new(managers: usize) -> Self {
        Probe {
            epoch: Instant::now(),
            hists: (0..managers).map(|_| OpHists::default()).collect(),
            launches: Vec::new(),
            spans: Vec::new(),
            trace: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; returns its id. Opening a span with
    /// `parent` 0 starts a new trace.
    pub fn open(&mut self, parent: u64, name: &'static str, manager: &'static str) -> u64 {
        if parent == 0 {
            self.trace += 1;
        }
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { trace: self.trace, id, parent, name, manager, start_ns, end_ns: 0 });
        id
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u64) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Records a launch that started at `start`, took `wall` end to end and
    /// reported `elapsed` and `sched`, as a child span of `parent`.
    pub fn launch(
        &mut self,
        parent: u64,
        name: &'static str,
        manager: &'static str,
        start: Instant,
        wall: Duration,
        (elapsed, sched): &(Duration, SchedStats),
    ) {
        let warps: u32 = sched.warps_per_worker.iter().sum();
        let busiest = sched.warps_per_worker.iter().copied().max().unwrap_or(0);
        let mean = f64::from(warps) / sched.warps_per_worker.len().max(1) as f64;
        self.launches.push(LaunchRecord {
            dispatch: sched.dispatch,
            overhead: wall.saturating_sub(*elapsed),
            elapsed: *elapsed,
            steals: sched.steals,
            imbalance: if mean > 0.0 { f64::from(busiest) / mean - 1.0 } else { 0.0 },
        });
        let start_ns = self.ns(start);
        self.spans.push(Span {
            trace: self.trace,
            id: self.spans.len() as u64 + 1,
            parent,
            name,
            manager,
            start_ns,
            end_ns: start_ns + wall.as_nanos() as u64,
        });
    }

    /// Median dispatch time per launch, in µs.
    pub fn dispatch_us_p50(&self) -> f64 {
        crate::stats::median(&self.collect(|l| l.dispatch.as_secs_f64() * 1e6))
    }

    /// Median launch overhead (call wall time minus parallel section), µs.
    pub fn launch_overhead_us_p50(&self) -> f64 {
        crate::stats::median(&self.collect(|l| l.overhead.as_secs_f64() * 1e6))
    }

    /// Mean work-steal trips per launch.
    pub fn steals_per_launch(&self) -> f64 {
        let steals: u64 = self.launches.iter().map(|l| l.steals).sum();
        crate::stats::ratio(steals as f64, self.launches.len() as f64)
    }

    /// Mean worker imbalance per launch.
    pub fn worker_imbalance(&self) -> f64 {
        let sum: f64 = self.collect(|l| l.imbalance).iter().sum();
        crate::stats::ratio(sum, self.launches.len() as f64)
    }

    /// Summed parallel-section time of every launch.
    pub fn kernel_time(&self) -> Duration {
        self.launches.iter().map(|l| l.elapsed).sum()
    }

    fn collect(&self, f: impl Fn(&LaunchRecord) -> f64) -> Vec<f64> {
        self.launches.iter().map(f).collect()
    }

    /// The spans as a JSON document, with `header` (a JSON object body)
    /// spliced in first.
    pub fn spans_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"manager\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.trace, s.id, s.parent, s.name, s.manager, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}
