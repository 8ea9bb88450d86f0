//! The memory-access performance test case (§4.4.2, Figure 11e).
//!
//! "On the GPU, not only allocation speed but also memory access speed is
//! crucial. To evaluate whether a memory allocator considers alignment, we
//! test the uniform and mixed case with 2¹⁷ allocations between
//! 16 B–128 B. Each thread reads and writes to its assigned memory."
//!
//! After allocating through the manager under test, every warp's write
//! sweep is priced with the `gpu-sim` coalescing model and compared against
//! the fully-coalesced packed baseline.

use gpu_sim::access::AccessStats;
use gpu_sim::Device;
use gpumem_core::{DeviceAllocator, DevicePtr, ThreadCtx, WARP_SIZE};

use crate::sizes::thread_size;

/// Which size pattern the threads request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePattern {
    /// All threads allocate exactly `bytes`.
    Uniform { bytes: u64 },
    /// Sizes drawn from `[lo, hi]` per thread (the paper's mixed case).
    Mixed { lo: u64, hi: u64 },
}

impl WritePattern {
    fn size_for(&self, seed: u64, thread: u32) -> u64 {
        match *self {
            WritePattern::Uniform { bytes } => bytes,
            WritePattern::Mixed { lo, hi } => thread_size(seed, thread, lo, hi),
        }
    }
}

/// Result of the write-performance test.
pub struct WriteTestResult {
    /// Transaction statistics across all warps.
    pub stats: AccessStats,
    /// Allocation failures (excluded from the statistics).
    pub failures: u64,
}

/// Allocates `n_threads` blocks through `alloc` and prices each warp's
/// write sweep against the coalesced baseline.
///
/// Threads allocate one at a time in thread-id order, on the `device`'s
/// thread layout. A GPU warp issues its 32 `malloc` calls in lockstep, so
/// no other warp's request lands between two of its lanes'. Simulated lanes
/// run one after another on a pool worker instead, and two workers running
/// at once interleave their warps lane by lane — two warps taking
/// alternate pages of one Ouroboros queue run, a layout no lockstep warp
/// produces, whose cost hinges on whether the OS ran the workers side by
/// side. Allocating in order gives every warp its lockstep run and the same
/// layout on every run; the test prices layout, not speed.
pub fn run(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n_threads: u32,
    seed: u64,
    pattern: WritePattern,
) -> WriteTestResult {
    let spec = device.spec();
    let ptrs: Vec<DevicePtr> = (0..n_threads)
        .map(|tid| {
            let ctx = ThreadCtx::from_linear(tid, spec.default_block_size, spec.num_sms);
            alloc.malloc(&ctx, pattern.size_for(seed, tid)).unwrap_or(DevicePtr::NULL)
        })
        .collect();
    let failures = ptrs.iter().filter(|p| p.is_null()).count() as u64;

    let mut stats = AccessStats::default();
    for (w, warp_ptrs) in ptrs.chunks(WARP_SIZE as usize).enumerate() {
        // Price the warp write at the maximum lane size: the sweep is
        // lock-step, inactive lanes drop out once their block is done, which
        // the per-step distinct-segment count already models via NULLs.
        let max_size = warp_ptrs
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_null())
            .map(|(lane, _)| pattern.size_for(seed, (w * WARP_SIZE as usize + lane) as u32))
            .max()
            .unwrap_or(0);
        stats.add_warp(warp_ptrs, max_size);
    }
    WriteTestResult { stats, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use gpumem_core::sync::{AtomicU64, Ordering};
    use gpumem_core::util::align_up;
    use gpumem_core::{AllocError, DeviceHeap, ManagerInfo, RegisterFootprint, ThreadCtx};
    use std::sync::Arc;

    /// Bump allocator with configurable stride padding, to fabricate
    /// poorly-coalesced layouts.
    struct PaddedBump {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
        pad: u64,
    }

    impl PaddedBump {
        fn new(len: u64, pad: u64) -> Self {
            PaddedBump { heap: Arc::new(DeviceHeap::new(len)), top: AtomicU64::new(0), pad }
        }
    }

    impl DeviceAllocator for PaddedBump {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("PaddedBump").supports_free(false).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            let sz = align_up(size, 16) + self.pad;
            let off = self.top.fetch_add(sz, Ordering::Relaxed);
            if off + sz > self.heap.len() {
                return Err(AllocError::OutOfMemory(size));
            }
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _: &ThreadCtx, _: DevicePtr) -> Result<(), AllocError> {
            Err(AllocError::Unsupported("no"))
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 4, free: 0 }
        }
    }

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 2)
    }

    #[test]
    fn packed_layout_matches_baseline() {
        // Warps allocate in lockstep, so a packed bump hands every warp one
        // contiguous run whatever the device's worker count.
        for workers in [1, 4] {
            let a = PaddedBump::new(8 << 20, 0);
            let device = Device::with_workers(DeviceSpec::titan_v(), workers);
            let r = run(&a, &device, 4096, 3, WritePattern::Uniform { bytes: 16 });
            assert_eq!(r.failures, 0);
            assert_eq!(r.stats.relative_cost(), 1.0, "{workers} workers");
        }
    }

    #[test]
    fn padded_layout_costs_more() {
        let packed = run(
            &PaddedBump::new(16 << 20, 0),
            &device(),
            4096,
            3,
            WritePattern::Uniform { bytes: 16 },
        );
        let padded = run(
            &PaddedBump::new(64 << 20, 112), // 16 B payload at 128 B stride
            &device(),
            4096,
            3,
            WritePattern::Uniform { bytes: 16 },
        );
        assert!(
            padded.stats.relative_cost() > packed.stats.relative_cost() * 2.0,
            "padding must hurt coalescing: {} vs {}",
            padded.stats.relative_cost(),
            packed.stats.relative_cost()
        );
    }

    #[test]
    fn mixed_pattern_is_deterministic() {
        // One worker: with two workers the bump allocations land in
        // scheduling order, so the layout (and transaction count) varies
        // between runs — determinism only holds for a serial device.
        let device = Device::with_workers(DeviceSpec::titan_v(), 1);
        let a = PaddedBump::new(16 << 20, 0);
        let r1 = run(&a, &device, 2048, 5, WritePattern::Mixed { lo: 16, hi: 128 });
        let a2 = PaddedBump::new(16 << 20, 0);
        let r2 = run(&a2, &device, 2048, 5, WritePattern::Mixed { lo: 16, hi: 128 });
        assert_eq!(r1.stats.transactions, r2.stats.transactions);
        assert_eq!(r1.stats.baseline, r2.stats.baseline);
    }

    #[test]
    fn failures_are_counted_not_priced() {
        let a = PaddedBump::new(4096, 0); // tiny: most allocations fail
        let r = run(&a, &device(), 1024, 1, WritePattern::Uniform { bytes: 64 });
        assert!(r.failures > 900);
    }
}
