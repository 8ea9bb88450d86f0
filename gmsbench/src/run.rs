//! The measurement loop and the end-to-end metrics it yields.

use std::time::{Duration, Instant};

use crate::check::Violation;
use crate::probe::Probe;
use crate::report::Metric;
use crate::stats::{gmean, median, ratio, tail};
use crate::workload::{Bench, ManagerRound, Round, Workload};

/// Round index of the untimed warm-up pass; distinct from every measured
/// round, so the warm-up draws other sizes.
const WARMUP_ROUND: u64 = u64::MAX;

/// Runs the workload's untimed warm-up, if it has one: `mixed_cached`
/// fills its magazines first so rounds measure the steady state.
pub fn warm_up(bench: &Bench) -> Result<(), Violation> {
    if bench.workload == Workload::MixedCached {
        bench.round(WARMUP_ROUND, None)?;
    }
    Ok(())
}

/// Runs rounds until `seconds` have passed (at least one round).
pub fn measure(
    bench: &Bench,
    seconds: f64,
    mut probe: Option<&mut Probe>,
) -> Result<Vec<Round>, Violation> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(bench.round(rounds.len() as u64, probe.as_deref_mut())?);
    }
    Ok(rounds)
}

/// The end-to-end metrics of one run. Throughputs divide the run's
/// operations by its kernel time; round readings are reduced by their
/// median over the run.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub rounds: usize,
    /// Successful mallocs ÷ summed malloc-kernel time over all managers,
    /// Mops/s.
    pub malloc_mops: f64,
    pub free_mops: f64,
    /// Geometric mean over managers of each one's malloc throughput.
    pub malloc_mops_gmean: f64,
    pub free_mops_gmean: f64,
    pub round_ms_p50: f64,
    /// Round time at [`Summary::tail_pct`], the highest percentile with ten
    /// rounds beyond it.
    pub round_ms_tail: f64,
    pub tail_pct: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Geometric mean over managers of each alloc launch's address range ÷
    /// bytes requested.
    pub addr_expansion: f64,
    /// Per manager: malloc and free Mops/s, and failed ops.
    pub per_manager: Vec<(f64, f64, u64)>,
}

impl Summary {
    /// Failed operations ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The end-to-end metrics, given the run's median set-up time and its
    /// peak resident set.
    pub fn end_to_end(&self, setup_s: f64, rss_peak_mib: f64) -> Vec<Metric> {
        vec![
            Metric::new("malloc_mops", self.malloc_mops, "Mops/s"),
            Metric::new("free_mops", self.free_mops, "Mops/s"),
            Metric::new("malloc_mops_gmean", self.malloc_mops_gmean, "Mops/s"),
            Metric::new("free_mops_gmean", self.free_mops_gmean, "Mops/s"),
            Metric::new("round_ms_p50", self.round_ms_p50, "ms"),
            Metric::new("round_ms_tail", self.round_ms_tail, "ms"),
            Metric::new("addr_expansion", self.addr_expansion, "ratio"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("rss_peak_mib", rss_peak_mib, "MiB"),
        ]
    }
}

/// Ops per µs of kernel time = Mops/s.
fn mops(ops: u64, time: Duration) -> f64 {
    ratio(ops as f64, time.as_secs_f64() * 1e6)
}

/// Adds `x`'s counts and times (not its expansion readings) to `t`.
fn add(mut t: ManagerRound, x: &ManagerRound) -> ManagerRound {
    t.malloc_ok += x.malloc_ok;
    t.malloc_time += x.malloc_time;
    t.free_ok += x.free_ok;
    t.free_time += x.free_time;
    t.attempted += x.attempted;
    t.failed += x.failed;
    t
}

/// Reduces a run's rounds to its end-to-end metrics.
pub fn summarize(rounds: &[Round]) -> Summary {
    let managers = rounds.first().map_or(0, |r| r.managers.len());
    let totals: Vec<ManagerRound> = (0..managers)
        .map(|m| rounds.iter().map(|r| &r.managers[m]).fold(ManagerRound::default(), add))
        .collect();
    let all = totals.iter().fold(ManagerRound::default(), add);
    let malloc: Vec<f64> = totals.iter().map(|t| mops(t.malloc_ok, t.malloc_time)).collect();
    let free: Vec<f64> = totals.iter().map(|t| mops(t.free_ok, t.free_time)).collect();
    let wall_ms: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let (round_ms_tail, tail_pct) = tail(&wall_ms);
    let expansion: Vec<f64> = rounds
        .iter()
        .map(|r| gmean(&r.managers.iter().map(|m| gmean(&m.expansion)).collect::<Vec<_>>()))
        .collect();
    Summary {
        rounds: rounds.len(),
        malloc_mops: mops(all.malloc_ok, all.malloc_time),
        free_mops: mops(all.free_ok, all.free_time),
        malloc_mops_gmean: gmean(&malloc),
        free_mops_gmean: gmean(&free),
        round_ms_p50: median(&wall_ms),
        round_ms_tail,
        tail_pct,
        attempted: all.attempted,
        failed: all.failed,
        addr_expansion: median(&expansion),
        per_manager: (0..managers).map(|m| (malloc[m], free[m], totals[m].failed)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(ok: u64, micros: u64) -> ManagerRound {
        ManagerRound {
            malloc_ok: ok,
            malloc_time: Duration::from_micros(micros),
            free_ok: ok,
            free_time: Duration::from_micros(micros),
            attempted: 2 * ok,
            expansion: vec![2.0],
            ..ManagerRound::default()
        }
    }

    #[test]
    fn throughputs_are_whole_run_ratios() {
        // Manager 0 runs at 1 op/µs, manager 1 at 4 op/µs, in both rounds.
        let round = |ms| Round {
            wall: Duration::from_millis(ms),
            managers: vec![visit(100, 100), visit(400, 100)],
        };
        let s = summarize(&[round(10), round(30)]);
        assert_eq!(s.malloc_mops, 1000.0 / 400.0, "time-weighted");
        assert_eq!(s.malloc_mops_gmean, 2.0, "each manager weighs the same");
        assert_eq!((s.round_ms_p50, s.attempted, s.failed), (20.0, 2000, 0));
        assert_eq!(s.addr_expansion, 2.0);
        assert_eq!(s.per_manager[1], (4.0, 4.0, 0));
    }
}
