//! Per-layer metrics of the traced run, named after the crate or module
//! whose public functions the benchmark timed or whose counters it read.

use gpumem_core::{Counter, CounterSnapshot, DeviceAllocator};

use crate::probe::Probe;
use crate::report::Metric;
use crate::run::Summary;
use crate::stats::ratio;
use crate::workload::{family, Bench, Round, SetupTimes};

/// Family crates in report order, with the contention counters each one's
/// algorithm retries or walks.
const FAMILIES: [(&str, &[Counter]); 6] = [
    ("alloc-ouroboros", &[Counter::CasRetries, Counter::QueueSpins, Counter::OomFallbacks]),
    ("alloc-scatter", &[Counter::CasRetries, Counter::ProbeSteps]),
    ("alloc-halloc", &[Counter::CasRetries, Counter::ProbeSteps]),
    ("alloc-cuda", &[Counter::ListHops, Counter::ProbeSteps]),
    ("alloc-xmalloc", &[Counter::ListHops, Counter::QueueSpins]),
    ("alloc-regeff", &[Counter::CasRetries, Counter::ListHops]),
];

/// Families whose warp-aggregated fast path is counted.
const COALESCING: [&str; 2] = ["alloc-halloc", "alloc-xmalloc"];

/// Counter and trace-ring readings of every manager at one instant.
pub struct Readings {
    counters: Vec<CounterSnapshot>,
    /// `(recorded, dropped)` of each manager's trace recorder.
    trace: Vec<(u64, u64)>,
}

/// Reads every manager's counters and trace ring.
pub fn read(bench: &Bench) -> Readings {
    let metrics: Vec<_> = bench.managers.iter().map(|m| m.alloc.metrics()).collect();
    Readings {
        counters: metrics.iter().map(|m| m.snapshot()).collect(),
        trace: metrics
            .iter()
            .map(|m| m.tracer().map_or((0, 0), |r| (r.recorded(), r.dropped())))
            .collect(),
    }
}

/// Everything the traced run measured.
pub struct TracedRun<'a> {
    pub bench: &'a Bench,
    pub setup: &'a SetupTimes,
    pub probe: &'a Probe,
    pub rounds: &'a [Round],
    pub before: &'a Readings,
    pub after: &'a Readings,
    /// Median round time of the untraced rounds of the same run, ms.
    pub untraced_round_ms: f64,
}

impl TracedRun<'_> {
    /// Operations the benchmark issued to manager `m` over the rounds.
    fn ops(&self, m: usize) -> u64 {
        self.rounds.iter().map(|r| r.managers[m].attempted).sum()
    }

    /// Counter deltas and op count summed over managers where `pick` holds.
    fn delta(&self, pick: impl Fn(usize) -> bool) -> (CounterSnapshot, u64) {
        let mut sum = CounterSnapshot::default();
        let mut ops = 0;
        for m in (0..self.bench.managers.len()).filter(|&m| pick(m)) {
            sum = sum.merge(&self.after.counters[m].delta_since(&self.before.counters[m]));
            ops += self.ops(m);
        }
        (sum, ops)
    }

    /// Every per-layer metric, in report order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let p = self.probe;
        let summary: Summary = crate::run::summarize(self.rounds);
        let wall: f64 = self.rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
        out.push(Metric::new("gpu-sim.dispatch_us_p50", p.dispatch_us_p50(), "us"));
        out.push(Metric::new("gpu-sim.launch_overhead_us_p50", p.launch_overhead_us_p50(), "us"));
        out.push(Metric::new(
            "gpu-sim.kernel_frac",
            ratio(p.kernel_time().as_secs_f64(), wall),
            "ratio",
        ));
        out.push(Metric::new("gpu-sim.steals_per_launch", p.steals_per_launch(), "1/launch"));
        out.push(Metric::new("gpu-sim.worker_imbalance", p.worker_imbalance(), "ratio"));

        out.push(Metric::new("core.heap.build_ms", self.setup.heap.as_secs_f64() * 1e3, "ms"));
        for (fam, _) in FAMILIES {
            let ms = self.setup.init.get(fam).map_or(0.0, |d| d.as_secs_f64() * 1e3);
            out.push(Metric::new(format!("{fam}.init_ms"), ms, "ms"));
        }

        for (m, mgr) in self.bench.managers.iter().enumerate() {
            let prefix = format!("{}.{}", family(mgr.kind), mgr.kind.label());
            let h = &p.hists[m];
            out.push(Metric::new(format!("{prefix}.malloc_ns_p50"), h.malloc.quantile(0.50), "ns"));
            out.push(Metric::new(format!("{prefix}.malloc_ns_p99"), h.malloc.quantile(0.99), "ns"));
            out.push(Metric::new(format!("{prefix}.free_ns_p50"), h.free.quantile(0.50), "ns"));
            out.push(Metric::new(format!("{prefix}.free_ns_p99"), h.free.quantile(0.99), "ns"));
        }

        for (fam, counters) in FAMILIES {
            let (d, ops) = self.delta(|m| family(self.bench.managers[m].kind) == fam);
            for &c in counters {
                let name = format!("{fam}.{}_per_op", c.name());
                out.push(Metric::new(name, ratio(d.get(c) as f64, ops as f64), "1/op"));
            }
            if COALESCING.contains(&fam) {
                let frac = ratio(d.warp_coalesced() as f64, d.malloc_calls() as f64);
                out.push(Metric::new(format!("{fam}.warp_coalesced_frac"), frac, "ratio"));
            }
        }

        let (d, ops) = self.delta(|_| true);
        let (hits, misses) = (d.magazine_hits() as f64, d.magazine_misses() as f64);
        out.push(Metric::new("core.cache.hit_ratio", ratio(hits, hits + misses), "ratio"));
        let flushes = d.magazine_flushes() as f64;
        out.push(Metric::new(
            "core.cache.flushes_per_kop",
            ratio(flushes * 1e3, ops as f64),
            "1/kop",
        ));

        let sum = |r: &Readings| -> (u64, u64) {
            r.trace.iter().fold((0, 0), |(a, b), &(rec, drop)| (a + rec, b + drop))
        };
        let ((rec0, drop0), (rec1, drop1)) = (sum(self.before), sum(self.after));
        let events = (rec1 + drop1 - rec0 - drop0) as f64;
        out.push(Metric::new("core.trace.events_per_op", ratio(events, ops as f64), "1/op"));
        out.push(Metric::new("core.trace.dropped_frac", ratio(drop1 as f64, rec1 as f64), "ratio"));

        let overhead = ratio(summary.round_ms_p50, self.untraced_round_ms) - 1.0;
        out.push(Metric::new("harness.trace_overhead_frac", overhead, "ratio"));
        out
    }
}
