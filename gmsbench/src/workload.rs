//! The workloads, the managers they run over, and one round of each.
//!
//! A *round* is one pass of the workload's op pattern over every manager.
//! Managers are built once per run and visited in the same order inside
//! every round, so host-load drift hits them all alike.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceSpec, PerThread, SchedStats};
use gpu_workloads::sizes;
use gpumem_bench::registry::{ManagerBuilder, ManagerKind, DEFAULT_KINDS};
use gpumem_core::util::mix64;
use gpumem_core::{DeviceAllocator, DeviceHeap, DevicePtr, HeapError, HeapSpec, WARP_SIZE};

use crate::check::{self, Violation};
use crate::hist::Hist;
use crate::probe::{OpHists, Probe};

/// Request sizes of one `fixed_thread` round (Fig. 9a–f): the small
/// class, a mid class and the large / first-fit path.
pub const FIXED_SIZES: [u64; 3] = [16, 512, 4096];
/// Threads per `fixed_thread` launch.
pub const FIXED_THREADS: u32 = 4096;
/// Threads per `mixed_cached` launch.
pub const MIXED_THREADS: u32 = 8192;
/// Alloc/free launch pairs per manager per `mixed_cached` round, each
/// over freshly drawn sizes. Long rounds keep a host stall from setting
/// the tail.
pub const MIXED_PASSES: u64 = 16;
/// Per-thread size range of `mixed_cached` (Fig. 9h).
pub const MIXED_RANGE: (u64, u64) = (4, 4096);
/// Warps per `warp_small_traced` launch.
pub const WARP_LAUNCH_WARPS: u32 = 8;
/// Alloc launches (and as many free launches) per manager per
/// `warp_small_traced` pass.
pub const WARP_LAUNCHES: u32 = 32;
/// Passes per manager per `warp_small_traced` round, each over freshly
/// drawn sizes. Long rounds keep a host stall from setting the tail.
pub const WARP_PASSES: u64 = 4;
/// Per-lane size range of `warp_small_traced`.
pub const WARP_RANGE: (u64, u64) = (16, 512);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fixed per-thread sizes on bare managers.
    FixedThread,
    /// Mixed sizes through the `Cached` magazines.
    MixedCached,
    /// Warp-collective small allocations on traced managers.
    WarpSmallTraced,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::FixedThread, Workload::MixedCached, Workload::WarpSmallTraced];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FixedThread => "fixed_thread",
            Workload::MixedCached => "mixed_cached",
            Workload::WarpSmallTraced => "warp_small_traced",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Each manager's heap, sized so that no operation fails. Halloc sets
    /// the floor: it relays requests above 3 KiB to a CUDA-model section of
    /// a quarter of its heap, which must hold a whole 4 KiB launch, and it
    /// failed requests on `warp_small_traced` at 32 MiB.
    pub fn heap_spec(self) -> HeapSpec {
        let mib = match self {
            Workload::FixedThread | Workload::MixedCached => 96,
            Workload::WarpSmallTraced => 64,
        };
        HeapSpec::ram(mib << 20)
    }

    /// The manager stack this workload runs. `metrics` attaches the
    /// contention counters the traced run reads.
    fn builder(self, kind: ManagerKind, heap: Arc<DeviceHeap>, metrics: bool) -> ManagerBuilder {
        let b = kind.builder().heap_shared(heap).sms(DeviceSpec::titan_v().num_sms);
        match self {
            Workload::FixedThread => b.metrics(metrics),
            Workload::MixedCached => b.cached(true).metrics(metrics),
            Workload::WarpSmallTraced => b.trace(true),
        }
    }
}

/// The managers every workload runs: the free-capable default kinds. The
/// Atomic baseline cannot free and would exhaust its heap over a long run.
pub fn kinds() -> Vec<ManagerKind> {
    DEFAULT_KINDS.into_iter().filter(|&k| k != ManagerKind::Atomic).collect()
}

/// The crate implementing `kind`, used as its layer name.
pub fn family(kind: ManagerKind) -> &'static str {
    use ManagerKind::*;
    match kind {
        OuroSP | OuroSC | OuroVAP | OuroVAC | OuroVLP | OuroVLC => "alloc-ouroboros",
        ScatterAlloc => "alloc-scatter",
        Halloc => "alloc-halloc",
        CudaAllocator => "alloc-cuda",
        XMalloc => "alloc-xmalloc",
        RegEffC | RegEffCF | RegEffCM | RegEffCFM => "alloc-regeff",
        FDGMalloc => "alloc-fdg",
        Atomic => "alloc-atomic",
    }
}

/// One manager under test.
#[derive(Clone)]
pub struct Manager {
    pub kind: ManagerKind,
    pub alloc: Arc<dyn DeviceAllocator>,
}

/// Where set-up time went.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// Device creation plus every heap and manager.
    pub total: Duration,
    /// `DeviceHeap::try_new`, summed over managers.
    pub heap: Duration,
    /// `ManagerBuilder::build` over an existing heap, summed per family.
    pub init: BTreeMap<&'static str, Duration>,
}

/// The worker count the device runs: one per host CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(Device::MAX_WORKERS)
}

/// A device and its managers, ready to run rounds of one workload.
pub struct Bench {
    pub workload: Workload,
    pub device: Device,
    pub managers: Vec<Manager>,
    seed: u64,
}

/// One manager's share of a round.
#[derive(Clone, Debug, Default)]
pub struct ManagerRound {
    pub malloc_ok: u64,
    pub malloc_time: Duration,
    pub free_ok: u64,
    pub free_time: Duration,
    /// Malloc requests plus frees of granted blocks.
    pub attempted: u64,
    /// Null grants, `Err` mallocs and `Err` frees.
    pub failed: u64,
    /// Address expansion of each alloc launch.
    pub expansion: Vec<f64>,
}

/// One round's readings.
#[derive(Clone, Debug)]
pub struct Round {
    /// Wall time of the round, the output check excluded.
    pub wall: Duration,
    /// Indexed like [`Bench::managers`].
    pub managers: Vec<ManagerRound>,
}

/// Calls `op`, recording its latency in `hist` when there is one.
#[inline]
fn timed<T>(hist: Option<&Hist>, op: impl FnOnce() -> T) -> T {
    match hist {
        None => op(),
        Some(h) => {
            let t = Instant::now();
            let r = op();
            h.record(t.elapsed().as_nanos() as u64);
            r
        }
    }
}

/// Runs one launch, recording it under `parent` when probed; returns the
/// parallel-section time.
fn launch(
    probe: Option<&mut Probe>,
    parent: u64,
    name: &'static str,
    manager: &'static str,
    run: impl FnOnce() -> (Duration, SchedStats),
) -> Duration {
    let start = Instant::now();
    let out = run();
    if let Some(p) = probe {
        p.launch(parent, name, manager, start, start.elapsed(), &out);
    }
    out.0
}

impl Bench {
    /// Creates the device and builds every manager of `workload`, timing
    /// each layer. `metrics` attaches contention counters (traced run).
    pub fn setup(
        workload: Workload,
        seed: u64,
        metrics: bool,
    ) -> Result<(Bench, SetupTimes), HeapError> {
        let t0 = Instant::now();
        let device = Device::with_workers(DeviceSpec::titan_v(), workers());
        let mut times = SetupTimes::default();
        let mut managers = Vec::new();
        for kind in kinds() {
            let t = Instant::now();
            let heap = Arc::new(DeviceHeap::try_new(workload.heap_spec())?);
            let built = Instant::now();
            let alloc = workload.builder(kind, heap, metrics).try_build()?;
            times.heap += built - t;
            *times.init.entry(family(kind)).or_default() += built.elapsed();
            managers.push(Manager { kind, alloc });
        }
        times.total = t0.elapsed();
        Ok((Bench { workload, device, managers, seed }, times))
    }

    /// Runs round `index`. Inputs are generated from the seed and the
    /// round number before the round's clock starts.
    pub fn round(&self, index: u64, mut probe: Option<&mut Probe>) -> Result<Round, Violation> {
        let round_seed = mix64(self.seed ^ mix64(index));
        let inputs: Vec<Vec<u64>> = match self.workload {
            Workload::FixedThread => {
                FIXED_SIZES.iter().map(|&s| vec![s; FIXED_THREADS as usize]).collect()
            }
            Workload::MixedCached => {
                let (lo, hi) = MIXED_RANGE;
                (0..MIXED_PASSES)
                    .map(|pass| sizes::size_vector(mix64(round_seed ^ pass), MIXED_THREADS, lo, hi))
                    .collect()
            }
            Workload::WarpSmallTraced => {
                let (lo, hi) = WARP_RANGE;
                let n = WARP_LAUNCHES * WARP_LAUNCH_WARPS * WARP_SIZE;
                (0..WARP_PASSES)
                    .map(|pass| sizes::size_vector(mix64(round_seed ^ pass), n, lo, hi))
                    .collect()
            }
        };
        let mut out = vec![ManagerRound::default(); self.managers.len()];
        let mut check_time = Duration::ZERO;
        let start = Instant::now();
        let round_span = probe.as_deref_mut().map_or(0, |p| p.open(0, "round", ""));
        let hists = probe.as_deref().map(|p| Arc::clone(&p.hists));
        for sizes in &inputs {
            for (m, mgr) in self.managers.iter().enumerate() {
                let label = mgr.kind.label();
                let span = probe.as_deref_mut().map_or(0, |p| p.open(round_span, "manager", label));
                let ctx = Pass {
                    alloc: &*mgr.alloc,
                    device: &self.device,
                    hists: hists.as_deref().map(|h| &h[m]),
                    label,
                    span,
                    stats: &mut out[m],
                };
                check_time += match self.workload {
                    Workload::WarpSmallTraced => ctx.warps(sizes, probe.as_deref_mut())?,
                    _ => ctx.threads(sizes, probe.as_deref_mut())?,
                };
                if let Some(p) = probe.as_deref_mut() {
                    p.close(span);
                }
            }
        }
        if let Some(p) = probe {
            p.close(round_span);
        }
        Ok(Round { wall: start.elapsed().saturating_sub(check_time), managers: out })
    }
}

/// One manager's visit within a round.
struct Pass<'a> {
    alloc: &'a dyn DeviceAllocator,
    device: &'a Device,
    /// The manager's latency histograms, in the traced run.
    hists: Option<&'a OpHists>,
    label: &'static str,
    /// The manager span launches are recorded under.
    span: u64,
    stats: &'a mut ManagerRound,
}

impl Pass<'_> {
    /// Checks one alloc launch's grants into `live` and counts them;
    /// returns how long the check took.
    fn check(
        &mut self,
        live: &mut Vec<(u64, u64)>,
        ptrs: &[DevicePtr],
        sizes: &[u64],
    ) -> Result<Duration, Violation> {
        let t = Instant::now();
        let heap_len = self.alloc.heap().len();
        let g = check::add_launch(self.label, heap_len, live, ptrs, sizes)?;
        self.stats.malloc_ok += g.granted;
        // Every granted block is freed once later in the pass.
        self.stats.attempted += g.granted * 2 + g.nulls;
        self.stats.failed += g.nulls;
        if g.granted > 0 {
            self.stats.expansion.push(g.expansion);
        }
        Ok(t.elapsed())
    }

    /// Thread-level pass: one launch where thread `i` mallocs `sizes[i]`,
    /// then one launch that frees every granted block.
    fn threads(
        mut self,
        sizes: &[u64],
        mut probe: Option<&mut Probe>,
    ) -> Result<Duration, Violation> {
        let (alloc, device, hists, n) = (self.alloc, self.device, self.hists, sizes.len() as u32);
        let slots = PerThread::<DevicePtr>::new(sizes.len());
        let run = || {
            device.launch_with_stats(n, |ctx| {
                let tid = ctx.thread_id as usize;
                let r = timed(hists.map(|h| &h.malloc), || alloc.malloc(ctx, sizes[tid]));
                slots.set(tid, r.unwrap_or(DevicePtr::NULL));
            })
        };
        let t = launch(probe.as_deref_mut(), self.span, "malloc", self.label, run);
        self.stats.malloc_time += t;
        let ptrs = slots.into_vec();
        let check_time = self.check(&mut Vec::with_capacity(ptrs.len()), &ptrs, sizes)?;

        let failed = AtomicU64::new(0);
        let run = || {
            device.launch_with_stats(n, |ctx| {
                let p = ptrs[ctx.thread_id as usize];
                if !p.is_null() && timed(hists.map(|h| &h.free), || alloc.free(ctx, p)).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        self.stats.free_time += launch(probe, self.span, "free", self.label, run);
        self.count_frees(&ptrs, failed.into_inner());
        Ok(check_time)
    }

    /// Warp-level pass: [`WARP_LAUNCHES`] launches of warp-collective
    /// `malloc_warp` over all 32 lanes, then as many `free_warp` launches.
    fn warps(
        mut self,
        sizes: &[u64],
        mut probe: Option<&mut Probe>,
    ) -> Result<Duration, Violation> {
        let (alloc, device, hists) = (self.alloc, self.device, self.hists);
        let per_launch = (WARP_LAUNCH_WARPS * WARP_SIZE) as usize;
        let lanes = WARP_SIZE as usize;
        let mut live = Vec::with_capacity(sizes.len());
        let mut held = Vec::with_capacity(WARP_LAUNCHES as usize);
        let mut check_time = Duration::ZERO;
        for chunk in sizes.chunks(per_launch) {
            let slots = PerThread::<DevicePtr>::new(per_launch);
            let run = || {
                device.launch_warps_with_stats(WARP_LAUNCH_WARPS, |w| {
                    let base = w.warp as usize * lanes;
                    let mut out = [DevicePtr::NULL; WARP_SIZE as usize];
                    let want = &chunk[base..base + lanes];
                    // A failed warp call leaves every lane null.
                    let _ =
                        timed(hists.map(|h| &h.malloc), || alloc.malloc_warp(w, want, &mut out));
                    for (lane, p) in out.into_iter().enumerate() {
                        slots.set(base + lane, p);
                    }
                })
            };
            self.stats.malloc_time +=
                launch(probe.as_deref_mut(), self.span, "malloc", self.label, run);
            let ptrs = slots.into_vec();
            check_time += self.check(&mut live, &ptrs, chunk)?;
            held.push(ptrs);
        }
        for ptrs in &held {
            let failed = AtomicU64::new(0);
            let run = || {
                device.launch_warps_with_stats(WARP_LAUNCH_WARPS, |w| {
                    let mine = &ptrs[w.warp as usize * lanes..][..lanes];
                    if timed(hists.map(|h| &h.free), || alloc.free_warp(w, mine)).is_err() {
                        let granted = mine.iter().filter(|p| !p.is_null()).count();
                        failed.fetch_add(granted as u64, Ordering::Relaxed);
                    }
                })
            };
            self.stats.free_time +=
                launch(probe.as_deref_mut(), self.span, "free", self.label, run);
            self.count_frees(ptrs, failed.into_inner());
        }
        Ok(check_time)
    }

    fn count_frees(&mut self, ptrs: &[DevicePtr], failed: u64) {
        let granted = ptrs.iter().filter(|p| !p.is_null()).count() as u64;
        self.stats.free_ok += granted - failed;
        self.stats.failed += failed;
    }
}
