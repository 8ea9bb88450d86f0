//! # alloc-regeff — the Register-Efficient allocator of Vinkler & Havran
//!
//! Paper §2.5: a dynamic memory allocator "based on a circular memory pool,
//! organized as a single-linked list". Every chunk carries an in-heap header
//! (allocation flag + offset of the next chunk); the pool is pre-split into
//! a binary-heap-like pattern of chunk sizes so early allocations do not
//! serialise on one giant block. Allocation walks the list from a shared
//! roving offset, claims a free chunk with CAS, and splits it when it is too
//! big; deallocation clears the flag and opportunistically merges with the
//! physically-next chunk (locking it first so no other thread can take it).
//!
//! Four variants, as in the original:
//!
//! | Variant | Header | Offsets |
//! |---|---|---|
//! | `Reg-Eff-C`   (CircularMalloc)            | two words | one shared |
//! | `Reg-Eff-CF`  (Circular Fused Malloc)     | one word  | one shared |
//! | `Reg-Eff-CM`  (Circular Multi Malloc)     | two words | one per SM |
//! | `Reg-Eff-CFM` (Circular Fused Multi)      | one word  | one per SM |
//!
//! The multi variants "trade fragmentation for speed by introducing an array
//! of offsets (one for each SM) instead of just one shared memory offset"
//! and pre-split each SM's sub-heap separately; all sub-heaps remain linked
//! into one circular list.
//!
//! As the paper notes (§5), Reg-Eff does **not** return 16-byte-aligned
//! memory: payloads start right after the 8- or 4-byte header. The
//! `ManagerInfo` of each variant declares the true alignment.
//!
//! The survey also disabled Reg-Eff's warp-coalescing ("this did not work
//! for any of the testcases"); accordingly the port keeps the default
//! per-lane warp path.

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::{AtomicU64, Ordering};
use std::marker::PhantomData;
use std::sync::Arc;

use gpumem_core::util::align_down;
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx,
};

pub mod bitmap;
pub mod header;

use bitmap::ChunkStarts;
use header::{ChunkHeader, Fused, HeaderCodec, TwoWord};

/// Minimum pre-split chunk size; halving stops below this.
pub const MIN_PRESPLIT: u64 = 4096;
/// A claimed chunk is split when the leftover would be at least this big
/// (the original's "maximum fragmentation constant").
pub const SPLIT_MIN: u64 = 64;
/// Walk gives up (contention error) after this many validation resets.
const MAX_STRIKES: u32 = 8;

/// The circular-list allocator, generic over header codec and offset policy.
pub struct RegEff<H: HeaderCodec, const MULTI: bool> {
    heap: Arc<DeviceHeap>,
    region_len: u64,
    starts: ChunkStarts,
    /// Roving start offsets: one entry (single) or one per SM (multi).
    offsets: Box<[AtomicU64]>,
    metrics: Metrics,
    _codec: PhantomData<H>,
}

/// CircularMalloc — two-word headers, one shared offset.
pub type RegEffC = RegEff<TwoWord, false>;
/// Circular Fused Malloc — fused header, one shared offset.
pub type RegEffCF = RegEff<Fused, false>;
/// Circular Multi Malloc — two-word headers, per-SM offsets.
pub type RegEffCM = RegEff<TwoWord, true>;
/// Circular Fused Multi Malloc — fused header, per-SM offsets.
pub type RegEffCFM = RegEff<Fused, true>;

/// Locals live in `malloc` (register proxy — the headline claim of the
/// original paper is how few of these there are).
#[repr(C)]
struct MallocFrame {
    cur: u64,
    next: u64,
    traversed: u64,
    need: u32,
    strikes: u32,
    extent: u64,
    header_word: u32,
    slot: u32,
    start: u64,
}

/// Locals live in `free`.
#[repr(C)]
struct FreeFrame {
    chunk: u64,
    next: u64,
    newnext: u64,
    header_word: u32,
    merged: u32,
}

impl<H: HeaderCodec, const MULTI: bool> RegEff<H, MULTI> {
    /// Creates the allocator over the whole `heap`, with `num_sms` roving
    /// offsets for the multi variants (ignored by the single variants).
    pub fn new(heap: Arc<DeviceHeap>, num_sms: u32) -> Self {
        let region_len = heap.len();
        assert!(region_len.is_multiple_of(8));
        assert!(
            region_len / 8 < (1 << 31),
            "Reg-Eff headers encode next-offsets in 31 bits of 8-byte units"
        );
        let slots = if MULTI { num_sms.max(1) as usize } else { 1 };
        assert!(
            region_len / slots as u64 >= 2 * MIN_PRESPLIT,
            "heap too small for {slots} Reg-Eff sub-heaps"
        );
        let starts = ChunkStarts::new(region_len);

        // Pre-split each sub-heap into the halving pattern of Figure 4.
        let sub = align_down(region_len / slots as u64, 8);
        let mut boundaries: Vec<u64> = Vec::new();
        let mut offsets = Vec::with_capacity(slots);
        for s in 0..slots {
            let base = s as u64 * sub;
            let len = if s + 1 == slots { region_len - base } else { sub };
            offsets.push(AtomicU64::new(base));
            Self::presplit(base, len, &mut boundaries);
        }
        // Link the chunks circularly (last chunk's next = 0 = first chunk).
        for (i, &b) in boundaries.iter().enumerate() {
            let next = boundaries.get(i + 1).copied().unwrap_or(0);
            H::write(&heap, b, ChunkHeader { allocated: false, next });
        }
        // Publish chunk starts only after all headers exist.
        for &b in &boundaries {
            starts.set(b);
        }

        RegEff {
            heap,
            region_len,
            starts,
            offsets: offsets.into_boxed_slice(),
            metrics: Metrics::disabled(),
            _codec: PhantomData,
        }
    }

    /// Convenience constructor owning its heap.
    pub fn with_capacity(len: u64, num_sms: u32) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)), num_sms)
    }

    /// Attaches a contention-observability handle (builder style).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Publishes one walk's contention tally: list hops, lost claims and the
    /// retry histogram sample.
    fn flush_walk(&self, sm: u32, hops: u64, lost: u64) {
        self.metrics.add(sm, Counter::ListHops, hops);
        self.metrics.add(sm, Counter::CasRetries, lost);
        self.metrics.record_retries(sm, lost);
    }

    fn presplit(base: u64, len: u64, out: &mut Vec<u64>) {
        let mut start = base;
        let mut remaining = len;
        while remaining / 2 >= MIN_PRESPLIT {
            let c = align_down(remaining / 2, 8);
            out.push(start);
            start += c;
            remaining -= c;
        }
        out.push(start);
    }

    /// Physical extent of the chunk at `cur` whose header names `next`.
    #[inline]
    fn extent(&self, cur: u64, next: u64) -> u64 {
        if next > cur {
            next - cur
        } else {
            // Only the physically-last chunk wraps (next == 0).
            self.region_len - cur
        }
    }

    /// Live-chunk count (diagnostics/tests).
    pub fn chunk_count(&self) -> u64 {
        self.starts.count()
    }

    fn variant_name() -> &'static str {
        match (H::FUSED, MULTI) {
            (false, false) => "C",
            (true, false) => "CF",
            (false, true) => "CM",
            (true, true) => "CFM",
        }
    }
}

impl<H: HeaderCodec, const MULTI: bool> DeviceAllocator for RegEff<H, MULTI> {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Reg-Eff")
            .variant(Self::variant_name())
            .alignment(if H::FUSED { 4 } else { 8 })
            .instrumented(true)
            .build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        self.metrics.tick(ctx.sm, Counter::MallocCalls);
        if size == 0 {
            self.metrics.tick(ctx.sm, Counter::MallocFailures);
            return Err(AllocError::UnsupportedSize(0));
        }
        // Checked inflation: `size + H::SIZE` (then rounding) must not wrap
        // for near-`u64::MAX` requests and masquerade as a small chunk.
        let Some(need) = size.checked_add(H::SIZE).and_then(|n| n.checked_next_multiple_of(8))
        else {
            self.metrics.tick(ctx.sm, Counter::MallocFailures);
            return Err(AllocError::UnsupportedSize(size));
        };
        if need > self.region_len {
            self.metrics.tick(ctx.sm, Counter::MallocFailures);
            return Err(AllocError::UnsupportedSize(size));
        }
        let slot = if MULTI { (ctx.sm as usize) % self.offsets.len() } else { 0 };

        let mut cur = self.offsets[slot].load(Ordering::Relaxed);
        if !self.starts.check(cur) {
            cur = 0;
        }
        let mut traversed = 0u64;
        let mut strikes = 0u32;
        // Contention tally of this one walk: every chunk header inspected is
        // a list hop; validation resets and lost claims are CAS losses.
        let mut hops = 0u64;
        let mut lost = 0u64;
        loop {
            if traversed >= 2 * self.region_len {
                self.flush_walk(ctx.sm, hops, lost);
                self.metrics.tick(ctx.sm, Counter::MallocFailures);
                return Err(AllocError::OutOfMemory(size));
            }
            hops += 1;
            let hdr = H::read(&self.heap, cur);
            // Validate the link before trusting anything else in the header:
            // a merge may have recycled `cur` under us.
            if !(hdr.next == 0 || self.starts.check(hdr.next)) || hdr.next == cur {
                strikes += 1;
                lost += 1;
                if strikes > MAX_STRIKES {
                    self.flush_walk(ctx.sm, hops, lost);
                    self.metrics.tick(ctx.sm, Counter::MallocFailures);
                    return Err(AllocError::Contention("Reg-Eff list walk"));
                }
                cur = 0;
                continue;
            }
            let extent = self.extent(cur, hdr.next);
            if !hdr.allocated && extent >= need {
                if H::try_claim(&self.heap, cur) {
                    // Post-claim validation: `cur` must still be a live chunk
                    // (the claim could have landed on recycled payload bytes).
                    if !self.starts.check(cur) {
                        H::release(&self.heap, cur);
                        strikes += 1;
                        lost += 1;
                        if strikes > MAX_STRIKES {
                            self.flush_walk(ctx.sm, hops, lost);
                            self.metrics.tick(ctx.sm, Counter::MallocFailures);
                            return Err(AllocError::Contention("Reg-Eff claim validation"));
                        }
                        cur = 0;
                        continue;
                    }
                    // Re-read under ownership: the chunk may have shrunk
                    // since the optimistic read.
                    let owned = H::read(&self.heap, cur);
                    let extent = self.extent(cur, owned.next);
                    if extent < need {
                        H::release(&self.heap, cur);
                        traversed += extent;
                        cur = if owned.next == 0 { 0 } else { owned.next };
                        continue;
                    }
                    // Split when the leftover is worth keeping.
                    if extent - need >= SPLIT_MIN {
                        let leftover = cur + need;
                        H::write(
                            &self.heap,
                            leftover,
                            ChunkHeader { allocated: false, next: owned.next },
                        );
                        self.starts.set(leftover);
                        H::set_next(&self.heap, cur, leftover);
                        self.offsets[slot].store(leftover, Ordering::Relaxed);
                    } else {
                        self.offsets[slot]
                            .store(if owned.next == 0 { 0 } else { owned.next }, Ordering::Relaxed);
                    }
                    self.flush_walk(ctx.sm, hops, lost);
                    return Ok(DevicePtr::new(cur + H::SIZE));
                }
                // A free-looking chunk another thread claimed first.
                lost += 1;
            }
            traversed += extent;
            cur = if hdr.next == 0 { 0 } else { hdr.next };
        }
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        self.metrics.tick(ctx.sm, Counter::FreeCalls);
        let fail = |e: AllocError| {
            self.metrics.tick(ctx.sm, Counter::FreeFailures);
            Err(e)
        };
        if ptr.is_null() || ptr.offset() < H::SIZE {
            return fail(AllocError::InvalidPointer);
        }
        let chunk = ptr.offset() - H::SIZE;
        if !self.starts.check(chunk) {
            return fail(AllocError::InvalidPointer);
        }
        let hdr = H::read(&self.heap, chunk);
        if !hdr.allocated {
            return fail(AllocError::InvalidPointer);
        }
        // Try to merge with the physically-next chunk: lock it so no other
        // thread can use it (paper: "This entails trying to allocate the
        // next chunk such that it cannot be used by another thread").
        let next = hdr.next;
        if next > chunk && self.starts.check(next) && H::try_claim(&self.heap, next) {
            if self.starts.check(next) {
                // Unlink before unpublishing: a live chunk's link must never
                // name a cleared start. Cleared first, every walker passing
                // `chunk` until the relink would see a dangling link, count
                // a strike and restart — and a preempted merger keeps that
                // window open long enough to exhaust MAX_STRIKES.
                let absorbed = H::read(&self.heap, next);
                H::set_next(&self.heap, chunk, absorbed.next);
                self.starts.clear(next);
            } else {
                // The claim landed on bytes a concurrent merge recycled —
                // undo it.
                H::release(&self.heap, next);
            }
        }
        H::release(&self.heap, chunk);
        Ok(())
    }

    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint::from_frames(
            std::mem::size_of::<MallocFrame>(),
            std::mem::size_of::<FreeFrame>(),
        )
    }

    fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_core::traits::DeviceAllocatorExt;

    const HEAP: u64 = 1 << 20; // 1 MiB

    fn ctx() -> ThreadCtx {
        ThreadCtx::host()
    }

    fn each_variant(f: impl Fn(&dyn DeviceAllocator, &str)) {
        f(&RegEffC::with_capacity(HEAP, 80), "C");
        f(&RegEffCF::with_capacity(HEAP, 80), "CF");
        f(&RegEffCM::with_capacity(HEAP, 80), "CM");
        f(&RegEffCFM::with_capacity(HEAP, 80), "CFM");
    }

    #[test]
    fn presplit_produces_halving_chunks() {
        let a = RegEffC::with_capacity(HEAP, 80);
        // 1 MiB: 512K, 256K, 128K, 64K, 32K, 16K, 8K, 4K, 4K(remainder)
        assert_eq!(a.chunk_count(), 9);
    }

    #[test]
    fn multi_presplits_per_sm() {
        let a = RegEffCM::with_capacity(HEAP, 8);
        // 8 sub-heaps of 128 KiB: 64K,32K,16K,8K,4K,4K = 6 chunks each.
        assert_eq!(a.chunk_count(), 48);
        assert_eq!(a.offsets.len(), 8);
    }

    #[test]
    fn variant_labels() {
        each_variant(|a, v| {
            assert_eq!(a.info().family, "Reg-Eff");
            assert_eq!(a.info().variant, v);
        });
    }

    #[test]
    fn alignment_is_header_sized_not_16() {
        // The paper's §5 point: Reg-Eff memory is not 16-byte aligned.
        assert_eq!(RegEffC::with_capacity(HEAP, 80).info().alignment, 8);
        assert_eq!(RegEffCF::with_capacity(HEAP, 80).info().alignment, 4);
    }

    #[test]
    fn malloc_free_roundtrip_all_variants() {
        each_variant(|a, v| {
            let p = a.checked_malloc(&ctx(), 100).unwrap_or_else(|e| panic!("{v}: {e}"));
            a.heap().fill(p, 100, 0xcd);
            a.free(&ctx(), p).unwrap_or_else(|e| panic!("{v}: {e}"));
        });
    }

    #[test]
    fn split_keeps_leftover_allocatable() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        // Second allocation lands right after the first's split remainder.
        assert_ne!(p1, p2);
        assert!(p2.offset() > p1.offset());
        assert_eq!(p2.offset() - p1.offset(), gpumem_core::util::align_up(64 + 8, 8));
    }

    #[test]
    fn free_merges_with_next_chunk() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let before = a.chunk_count();
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(a.chunk_count(), before + 2);
        // Free in reverse order: p2 merges with the free tail, then p1
        // merges with the merged block.
        a.free(&ctx(), p2).unwrap();
        assert_eq!(a.chunk_count(), before + 1);
        a.free(&ctx(), p1).unwrap();
        assert_eq!(a.chunk_count(), before);
    }

    #[test]
    fn double_free_detected() {
        let a = RegEffCF::with_capacity(HEAP, 80);
        let p = a.malloc(&ctx(), 32).unwrap();
        a.free(&ctx(), p).unwrap();
        assert_eq!(a.free(&ctx(), p), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn bogus_pointer_rejected() {
        let a = RegEffC::with_capacity(HEAP, 80);
        assert_eq!(a.free(&ctx(), DevicePtr::new(12345)), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx(), DevicePtr::NULL), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn oversize_rejected() {
        let a = RegEffC::with_capacity(HEAP, 80);
        assert!(matches!(a.malloc(&ctx(), HEAP * 2), Err(AllocError::UnsupportedSize(_))));
    }

    #[test]
    fn exhaustion_reports_oom_and_recovers() {
        let a = RegEffCF::with_capacity(1 << 16, 80);
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx(), 1024) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(ptrs.len() >= 50, "should fit ~60 KiB of 1 KiB blocks: {}", ptrs.len());
        for p in ptrs.drain(..) {
            a.free(&ctx(), p).unwrap();
        }
        assert!(a.malloc(&ctx(), 1024).is_ok(), "memory must be reusable after frees");
    }

    #[test]
    fn allocations_do_not_overlap() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let mut spans = Vec::new();
        for i in 0..200u64 {
            let size = 16 + (i % 64) * 8;
            let p = a.malloc(&ctx(), size).unwrap();
            spans.push((p.offset(), size));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn multi_variant_scatters_by_sm() {
        let a = RegEffCM::with_capacity(HEAP, 8);
        let mut ptrs = Vec::new();
        for sm in 0..8u32 {
            let c = ThreadCtx { thread_id: sm, lane: 0, warp: 0, block: sm, sm };
            ptrs.push(a.malloc(&c, 64).unwrap().offset());
        }
        // Each SM starts in its own sub-heap → 8 distinct 128 KiB regions.
        let mut regions: Vec<u64> = ptrs.iter().map(|p| p / (HEAP / 8)).collect();
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 8, "SMs should allocate from distinct sub-heaps");
    }

    #[test]
    fn concurrent_stress_no_overlap() {
        let a = Arc::new(RegEffCFM::with_capacity(1 << 22, 8));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut live: Vec<(u64, u64)> = Vec::new();
                let mut out = Vec::new();
                for i in 0..2000u32 {
                    let c = ThreadCtx::from_linear(t * 2000 + i, 256, 8);
                    let size = 16 + ((t as u64 * 7 + i as u64) % 96) * 8;
                    match a.malloc(&c, size) {
                        Ok(p) => {
                            a.heap().fill(p, size, 0xee);
                            live.push((p.offset(), size));
                        }
                        Err(AllocError::OutOfMemory(_)) | Err(AllocError::Contention(_)) => {}
                        Err(e) => panic!("{e}"),
                    }
                    if i % 3 == 0 {
                        if let Some((off, _)) = live.pop() {
                            a.free(&c, DevicePtr::new(off)).unwrap();
                        }
                    }
                }
                out.extend(live);
                out
            }));
        }
        let mut all: Vec<(u64, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "concurrent overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn register_footprint_is_smallest_in_survey() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let fp = a.register_footprint();
        assert!(fp.malloc <= 16, "Reg-Eff must be register-frugal: {fp}");
        assert!(fp.free <= 12, "{fp}");
    }

    #[test]
    fn near_max_request_fails_instead_of_wrapping() {
        // Regression (memlint unchecked-offset-arithmetic): the header
        // inflation `align_up(size + H::SIZE, 8)` used to wrap for
        // near-u64::MAX requests and pass the region-length guard.
        each_variant(|a, tag| {
            for size in [u64::MAX, u64::MAX - 8, u64::MAX - 16] {
                assert!(
                    matches!(a.malloc(&ctx(), size), Err(AllocError::UnsupportedSize(_))),
                    "{tag}: size {size:#x} must be rejected, not wrapped"
                );
            }
        });
    }
}

/// Model-checked interleaving suite (built with `RUSTFLAGS="--cfg loom"`).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use gpumem_core::sync::{model, thread};

    /// A free that merges its physical successor never leaves the freed
    /// chunk's link naming a cleared chunk start: an observer that finds
    /// the link's target unpublished must also find the link already moved
    /// past it. (The link changes once here, so an unchanged re-read means
    /// the link still named the target when its start bit read clear.)
    #[test]
    fn merge_never_exposes_a_dangling_link() {
        model(|| {
            // Chunks [0, 4096); a 16 B malloc splits chunk 0 at 24.
            let a = Arc::new(RegEffC::with_capacity(8192, 1));
            let p = a.malloc(&ThreadCtx::host(), 16).unwrap();
            assert_eq!(TwoWord::read(&a.heap, 0).next, 24);
            let freer = {
                let a = Arc::clone(&a);
                thread::spawn(move || a.free(&ThreadCtx::host(), p).unwrap())
            };
            let link = TwoWord::read(&a.heap, 0).next;
            if link != 0 && !a.starts.check(link) {
                assert_ne!(TwoWord::read(&a.heap, 0).next, link, "dangling link to {link}");
            }
            freer.join().unwrap();
            assert_eq!(TwoWord::read(&a.heap, 0).next, 4096, "free merged the split leftover");
        });
    }
}
