//! Sensitivity self-test: slowing the six Ouroboros managers' malloc 2×
//! must move `fixed_thread`'s `malloc_mops_gmean` by more than the bound
//! `BENCHMARK.json` fixes for it (expected ≈ 1 − 2^(−6/14) ≈ 26%), while a
//! rerun without the slowdown stays inside the bound.
//!
//! The three arms (plain, slowed, plain again) share one device and one set
//! of heaps and take turns on every manager visit, so host-load drift hits
//! them alike. Run it optimised: `cargo test --release`.

mod common;

use std::sync::Arc;
use std::time::Instant;

use gmsbench::run::summarize;
use gmsbench::workload::{family, Bench, Manager, Round, Workload};
use gpumem_core::{
    AllocError, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics, RegisterFootprint,
    ThreadCtx,
};

/// Rounds to run, a multiple of the three arms; each round visits every
/// manager once per arm.
const ROUNDS: u64 = 6;

/// Spins after every `malloc` for as long as the call took, so each call
/// costs at least twice its own time (the clock reads that time it are
/// doubled too).
struct Slowed(Arc<dyn DeviceAllocator>);

impl DeviceAllocator for Slowed {
    fn info(&self) -> ManagerInfo {
        self.0.info()
    }
    fn heap(&self) -> &DeviceHeap {
        self.0.heap()
    }
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let start = Instant::now();
        let r = self.0.malloc(ctx, size);
        let end = Instant::now();
        while Instant::now() < end + (end - start) {
            std::hint::spin_loop();
        }
        r
    }
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        self.0.free(ctx, ptr)
    }
    fn register_footprint(&self) -> RegisterFootprint {
        self.0.register_footprint()
    }
    fn metrics(&self) -> Metrics {
        self.0.metrics()
    }
    fn drain(&self) -> u64 {
        self.0.drain()
    }
}

/// The `bound` `BENCHMARK.json` fixes for end-to-end metric `name`.
fn bound(name: &str) -> f64 {
    common::metrics("end_to_end")
        .into_iter()
        .find_map(|(n, _, bound)| (n == name).then_some(bound).flatten())
        .expect("metric listed with a bound")
}

#[test]
fn ouroboros_malloc_slowdown_moves_the_gmean_beyond_its_bound() {
    let bound = bound("malloc_mops_gmean");
    let (mut bench, _) = Bench::setup(Workload::FixedThread, 0x5eed, false).expect("set-up");
    let plain = bench.managers.clone();
    let slowed = plain
        .iter()
        .map(|m| match family(m.kind) {
            "alloc-ouroboros" => Manager { kind: m.kind, alloc: Arc::new(Slowed(m.alloc.clone())) },
            _ => m.clone(),
        })
        .collect();
    let arms = [plain.clone(), slowed, plain.clone()];
    let mut per_arm: [Vec<Round>; 3] = Default::default();
    let n = plain.len();
    for i in 0..ROUNDS as usize {
        // Every manager is visited once per arm back to back, in an order
        // rotated by manager and round: the three visits run under the same
        // host load, and each arm takes the first (coldest) visit equally
        // often.
        let arm_of = |m: usize, k: usize| (m + k + i) % 3;
        bench.managers = (0..n * 3).map(|v| arms[arm_of(v / 3, v % 3)][v / 3].clone()).collect();
        let round = bench.round(i as u64, None).expect("output check passes");
        let mut split: [Vec<_>; 3] = Default::default();
        for (v, visit) in round.managers.into_iter().enumerate() {
            split[arm_of(v / 3, v % 3)].push(visit);
        }
        for (rounds, managers) in per_arm.iter_mut().zip(split) {
            rounds.push(Round { wall: round.wall, managers });
        }
    }
    let [base, slow, rerun] = per_arm.map(|rounds| summarize(&rounds).malloc_mops_gmean);
    let (drop, drift) = (1.0 - slow / base, (rerun / base - 1.0).abs());
    eprintln!(
        "gmean base {base:.3}, slowed {slow:.3} (-{drop:.3}), rerun {rerun:.3} (±{drift:.3})"
    );
    assert!(drop > bound, "2x Ouroboros malloc moved the gmean by {drop:.3}, bound {bound}");
    assert!(drift < bound, "an unchanged rerun moved the gmean by {drift:.3}, bound {bound}");
}
