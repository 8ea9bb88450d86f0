//! `Cached<A>` — per-SM size-class magazines over any [`DeviceAllocator`].
//!
//! The survey's central finding is that allocator hot paths live or die on
//! contention over *shared* metadata: hash-probe chains, queue dequeues and
//! free-list walks all serialize concurrent requests (§4.2, Fig. 9h). This
//! decorator attacks exactly that. Recently freed blocks are parked in small
//! per-SM, per-size-class **magazines** (bounded lock-free LIFO stacks), so
//! a repeat allocation of the same class is served by one CAS on SM-local
//! state instead of a trip through the family's shared structures. Frees
//! issued warp-collectively are additionally **batched**: the lanes a warp
//! could not park are published to the inner allocator in one leader-driven
//! `free_warp` call rather than 32 individual ones.
//!
//! Size classes generalize Halloc's table (§2.7): the powers of two and the
//! `3·2^k` midpoints between [`MIN_CLASS`] and [`MAX_CLASS`]. A request is
//! rounded up to its class before it reaches the inner allocator, so any
//! same-class request can safely reuse a parked block.
//!
//! ## Ownership protocol
//!
//! A block enters a magazine only by moving *out* of the caller's hands
//! (`free`), and leaves it only by a successful atomic pop (`malloc`), so a
//! parked block is never double-granted. From the inner allocator's view a
//! parked block is still allocated — the inner `free` happens later, when
//! the magazine overflows ([`Counter::MagazineFlushes`]) or the decorator
//! drains ([`Cached::flush_all`], also invoked on drop). This is what keeps
//! `Sanitized<Cached<A>>` sound: the sanitizer wraps *outside*, observes
//! every caller-visible free (parking reports `Ok` precisely because the
//! block really is reusable), and every parked block is eventually returned
//! to the inner allocator by a real `free` call.
//!
//! Caching engages only for inner allocators with general free support
//! (`supports_free && !warp_level_only`): without an inner `free`, evicted
//! blocks could not be returned, and warp-level-only managers (FDGMalloc)
//! release allocations wholesale in a way no pointer-keyed cache can track.
//! For those families the decorator is a transparent pass-through.

use crate::error::AllocError;
use crate::heap::DeviceHeap;
use crate::info::ManagerInfo;
use crate::metrics::{Counter, Metrics};
use crate::ptr::DevicePtr;
use crate::regs::RegisterFootprint;
use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use crate::trace::EventKind;
use crate::traits::DeviceAllocator;
use crate::{ThreadCtx, WarpCtx, WARP_SIZE};

/// Smallest cached size class, matching Halloc's 16 B minimum block.
pub const MIN_CLASS: u64 = 16;

/// Largest cached size class; larger requests pass straight through.
pub const MAX_CLASS: u64 = 4096;

/// Number of size classes between [`MIN_CLASS`] and [`MAX_CLASS`].
pub const NUM_CLASSES: usize = 17;

/// The class table: powers of two and `3·2^k` values, ascending.
pub const CLASS_SIZES: [u64; NUM_CLASSES] =
    [16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096];

/// Index of the smallest class that fits `size`, or `None` above
/// [`MAX_CLASS`]. Requests of 0 bytes round up to [`MIN_CLASS`] like every
/// surveyed manager's minimum block.
#[inline]
pub fn class_of(size: u64) -> Option<usize> {
    if size > MAX_CLASS {
        return None;
    }
    // 17 entries; the scan exits on the first fit (≤ 4 steps for the small
    // sizes that dominate the workloads).
    CLASS_SIZES.iter().position(|&c| c >= size)
}

/// Tuning knobs for [`Cached`]. The defaults hold a smoke-tier working set
/// (2048 blocks over 8 active SMs) entirely in magazines.
#[derive(Clone, Copy, Debug)]
pub struct CachedConfig {
    /// Slots per (SM, class) magazine.
    pub magazine_cap: usize,
    /// Entries in the pointer→class tag table (rounded up to a power of
    /// two). When the table fills, further blocks are simply not cached.
    pub tag_capacity: usize,
    /// Largest request size served from magazines (clamped to
    /// [`MAX_CLASS`]).
    pub max_cached_size: u64,
}

impl Default for CachedConfig {
    fn default() -> Self {
        CachedConfig { magazine_cap: 256, tag_capacity: 1 << 15, max_cached_size: MAX_CLASS }
    }
}

/// A bounded lock-free LIFO of parked block offsets.
///
/// `top` hands out slot indices; each slot then completes a two-phase
/// handoff on its own atomic (0 = empty, otherwise `offset + 1`). A pusher
/// that claimed index `t` publishes with `CAS(slot[t], 0 → offset+1)`,
/// retrying only while an in-flight pop of the slot's previous occupant has
/// not yet cleared it; a popper that claimed index `t-1` takes with
/// `swap(slot[t-1], 0)`, retrying only while the pusher's store is still in
/// flight. Each retry loop waits on exactly one other thread's single store
/// between its claim and its publish, so the protocol is obstruction-free
/// with a bounded wait; the loom model below exhausts its interleavings.
pub(crate) struct Magazine {
    top: AtomicUsize,
    slots: Box<[AtomicU64]>,
}

/// Spin-wait hint: under loom a yield, so the model switches to the peer
/// whose store the loop awaits.
#[inline]
fn backoff() {
    #[cfg(loom)]
    crate::sync::thread::yield_now();
    #[cfg(not(loom))]
    crate::sync::hint::spin_loop();
}

impl Magazine {
    pub(crate) fn new(cap: usize) -> Self {
        Magazine {
            top: AtomicUsize::new(0),
            slots: (0..cap.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Parks `offset`; `Err(())` when the magazine is full (the caller
    /// flushes the block to the inner allocator instead).
    pub(crate) fn push(&self, offset: u64) -> Result<(), ()> {
        let cap = self.slots.len();
        // Acquire on the claim pairs with the Release decrement of pops, so
        // this pusher's slot access is ordered after the pop that vacated
        // the index it claims.
        let mut t = self.top.load(Ordering::Acquire);
        loop {
            if t >= cap {
                return Err(());
            }
            match self.top.compare_exchange_weak(t, t + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(cur) => t = cur,
            }
        }
        // memlint: allow(unchecked-offset-arithmetic) — +1 sentinel encoding distinguishes offset 0 from EMPTY; heap offsets are far below u64::MAX, so the increment cannot wrap
        let enc = offset + 1;
        // Release publishes the parked block's handoff: a popper that
        // acquires this value may hand the block to a new owner whose
        // accesses must be ordered after the old owner's.
        while self.slots[t].compare_exchange(0, enc, Ordering::Release, Ordering::Relaxed).is_err()
        {
            // An in-flight pop claimed this index before we re-used it and
            // has not yet swapped the old value out; its single swap is the
            // only store we wait for.
            backoff();
        }
        Ok(())
    }

    /// Takes the most recently parked offset, or `None` when empty.
    pub(crate) fn pop(&self) -> Option<u64> {
        let mut t = self.top.load(Ordering::Acquire);
        loop {
            if t == 0 {
                return None;
            }
            match self.top.compare_exchange_weak(t, t - 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(cur) => t = cur,
            }
        }
        loop {
            // AcqRel: Acquire pairs with the pusher's Release publish (the
            // popped block's prior writes happen-before the new owner's);
            // Release orders the clear before a later pusher's re-claim.
            let v = self.slots[t - 1].swap(0, Ordering::AcqRel);
            if v != 0 {
                return Some(v - 1);
            }
            // The pusher that claimed this index has not stored yet; its
            // single CAS is the only store we wait for.
            backoff();
        }
    }

    /// Approximate occupancy (exact at quiescence).
    pub(crate) fn len(&self) -> usize {
        self.top.load(Ordering::Acquire).min(self.slots.len())
    }
}

/// Sentinel entry for a deleted tag slot. Linear probing cannot simply
/// reset a slot to empty (that would sever probe chains through it), so
/// removal leaves a tombstone that inserts may re-use.
const TAG_TOMBSTONE: u64 = 1;

/// How far an insert/lookup probes before giving up. A bounded probe keeps
/// the free path O(1); a block that fails to register is simply not cached.
const TAG_PROBE_LIMIT: usize = 32;

/// Lock-free open-addressed map from block offset to size class, recording
/// which class a cached-path grant belongs to so its eventual `free` can be
/// parked in the right magazine. Entry encoding: `0` empty,
/// [`TAG_TOMBSTONE`] deleted, otherwise `((offset + 1) << 8) | class`.
struct TagTable {
    slots: Box<[AtomicU64]>,
    mask: u64,
}

impl TagTable {
    fn new(capacity: usize) -> Self {
        let n = capacity.max(64).next_power_of_two();
        TagTable { slots: (0..n).map(|_| AtomicU64::new(0)).collect(), mask: n as u64 - 1 }
    }

    #[inline]
    fn key(offset: u64) -> u64 {
        // memlint: allow(unchecked-offset-arithmetic) — key encoding: offsets are < 2^55 (heap lengths), so +1 then << 8 cannot wrap the tag out of the word
        (offset + 1) << 8
    }

    #[inline]
    fn start(&self, offset: u64) -> u64 {
        crate::util::mix64(offset) & self.mask
    }

    /// Registers `offset → class`; `false` when the probe window is full
    /// (the block stays untracked and its free passes through).
    fn insert(&self, offset: u64, class: usize) -> bool {
        debug_assert!(class < NUM_CLASSES);
        let entry = Self::key(offset) | class as u64;
        let mut i = self.start(offset);
        for _ in 0..TAG_PROBE_LIMIT {
            let slot = &self.slots[i as usize];
            let mut e = slot.load(Ordering::Acquire);
            loop {
                if e != 0 && e != TAG_TOMBSTONE && (e >> 8) != (entry >> 8) {
                    break; // occupied by another offset: next probe slot
                }
                // Empty, tombstone, or a stale entry for the same offset:
                // claim it. AcqRel: the stored class is consumed by the
                // remove() on another thread's free path.
                match slot.compare_exchange_weak(e, entry, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return true,
                    Err(cur) => e = cur,
                }
            }
            i = (i + 1) & self.mask;
        }
        false
    }

    /// Unregisters `offset`, returning its class. Exactly one of several
    /// racing removers wins (the CAS to tombstone), so a double free cannot
    /// park one block twice.
    fn remove(&self, offset: u64) -> Option<usize> {
        let key = Self::key(offset);
        let mut i = self.start(offset);
        for _ in 0..TAG_PROBE_LIMIT {
            let slot = &self.slots[i as usize];
            let mut e = slot.load(Ordering::Acquire);
            loop {
                if e == 0 {
                    return None; // probe chain ends: never registered
                }
                if e == TAG_TOMBSTONE || (e >> 8) != (key >> 8) {
                    break; // not ours: next probe slot
                }
                match slot.compare_exchange_weak(
                    e,
                    TAG_TOMBSTONE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some((e & 0xff) as usize),
                    Err(cur) => e = cur,
                }
            }
            i = (i + 1) & self.mask;
        }
        None
    }
}

/// One SM's magazines, padded so neighbouring SMs do not false-share.
#[repr(align(128))]
struct SmShard {
    mags: [Magazine; NUM_CLASSES],
}

/// The caching decorator. See the module docs for the protocol; see
/// [`CachedConfig`] for sizing.
pub struct Cached<A: DeviceAllocator> {
    inner: A,
    shards: Box<[SmShard]>,
    tags: TagTable,
    /// Relay of the inner metrics handle: magazine counters land in the
    /// same block, call accounting stays the inner allocator's own view.
    metrics: Metrics,
    /// Whether magazines engage (inner has general free support).
    enabled: bool,
    max_cached: u64,
}

impl<A: DeviceAllocator> Cached<A> {
    /// Wraps `inner` with default magazine sizing, one shard per SM.
    pub fn new(inner: A, num_sms: u32) -> Self {
        Cached::with_config(inner, num_sms, CachedConfig::default())
    }

    /// Wraps `inner` with explicit sizing.
    pub fn with_config(inner: A, num_sms: u32, cfg: CachedConfig) -> Self {
        let info = inner.info();
        let enabled = info.supports_free && !info.warp_level_only;
        let n = (num_sms.max(1) as usize).next_power_of_two();
        let shards = (0..n)
            .map(|_| SmShard { mags: std::array::from_fn(|_| Magazine::new(cfg.magazine_cap)) })
            .collect();
        let metrics = inner.metrics().relay();
        Cached {
            inner,
            shards,
            tags: TagTable::new(cfg.tag_capacity),
            metrics,
            enabled,
            max_cached: cfg.max_cached_size.min(MAX_CLASS),
        }
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Whether magazines are engaged (false = transparent pass-through).
    pub fn is_caching(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn shard(&self, sm: u32) -> &SmShard {
        &self.shards[sm as usize & (self.shards.len() - 1)]
    }

    #[inline]
    fn class_for(&self, size: u64) -> Option<usize> {
        if !self.enabled || size > self.max_cached {
            return None;
        }
        class_of(size)
    }

    /// Blocks currently parked across all magazines (exact at quiescence).
    pub fn cached_blocks(&self) -> u64 {
        self.shards.iter().flat_map(|s| s.mags.iter()).map(|m| m.len() as u64).sum()
    }

    /// Drains every magazine, returning each parked block to the inner
    /// allocator with a real `free`. Returns the number of blocks flushed.
    /// Called on drop, so no block the caller freed is ever stranded.
    pub fn flush_all(&self) -> u64 {
        let mut flushed = 0u64;
        for (sm, shard) in self.shards.iter().enumerate() {
            let ctx = ThreadCtx { thread_id: 0, lane: 0, warp: 0, block: sm as u32, sm: sm as u32 };
            for mag in &shard.mags {
                while let Some(off) = mag.pop() {
                    let _ = self.inner.free(&ctx, DevicePtr::new(off));
                    flushed += 1;
                }
            }
        }
        if flushed > 0 {
            self.metrics.add(0, Counter::MagazineFlushes, flushed);
            if let Some(rec) = self.metrics.tracer() {
                rec.emit(0, EventKind::CacheFlush, [flushed, 0, 0, 0]);
            }
        }
        flushed
    }

    /// Parks `ptr` (already unregistered as `class`); on overflow, evicts
    /// it to the inner allocator. Returns `Ok` in both cases — either way
    /// the caller's free succeeded.
    fn park_or_evict(
        &self,
        ctx: &ThreadCtx,
        ptr: DevicePtr,
        class: usize,
    ) -> Result<(), AllocError> {
        if self.shard(ctx.sm).mags[class].push(ptr.raw()).is_ok() {
            return Ok(());
        }
        self.metrics.tick(ctx.sm, Counter::MagazineFlushes);
        if let Some(rec) = self.metrics.tracer() {
            rec.emit(ctx.sm, EventKind::CacheFlush, [1, CLASS_SIZES[class], 0, 0]);
        }
        self.inner.free(ctx, ptr)
    }
}

impl<A: DeviceAllocator> DeviceAllocator for Cached<A> {
    fn info(&self) -> ManagerInfo {
        self.inner.info()
    }

    fn heap(&self) -> &DeviceHeap {
        self.inner.heap()
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let Some(class) = self.class_for(size) else {
            return self.inner.malloc(ctx, size);
        };
        if let Some(off) = self.shard(ctx.sm).mags[class].pop() {
            self.metrics.tick(ctx.sm, Counter::MagazineHits);
            if let Some(rec) = self.metrics.tracer() {
                rec.emit(ctx.sm, EventKind::CacheHit, [off, CLASS_SIZES[class], 0, 0]);
            }
            // A failed tag insert (table full) only means the block is
            // untracked: its eventual free passes through to the inner
            // allocator, which still considers it allocated. Correct either
            // way, so the grant is unconditional.
            let _ = self.tags.insert(off, class);
            return Ok(DevicePtr::new(off));
        }
        self.metrics.tick(ctx.sm, Counter::MagazineMisses);
        // Round up to the class so any same-class request can reuse the
        // block later.
        let ptr = self.inner.malloc(ctx, CLASS_SIZES[class])?;
        let _ = self.tags.insert(ptr.raw(), class);
        Ok(ptr)
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if !self.enabled || ptr.is_null() {
            return self.inner.free(ctx, ptr);
        }
        match self.tags.remove(ptr.raw()) {
            Some(class) => self.park_or_evict(ctx, ptr, class),
            // Untracked (oversize, tag table overflow, or a pointer that
            // never passed through this layer): the inner allocator owns it.
            None => self.inner.free(ctx, ptr),
        }
    }

    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        debug_assert_eq!(sizes.len(), out.len());
        if !self.enabled {
            return self.inner.malloc_warp(warp, sizes, out);
        }
        // Serve the whole warp from magazines when possible; otherwise roll
        // the pops back and delegate the intact warp to the inner
        // allocator, preserving its coalesced fast path and all-or-nothing
        // failure semantics.
        let shard = self.shard(warp.sm);
        let mut popped: Vec<(usize, u64)> = Vec::with_capacity(sizes.len());
        let mut complete = true;
        for &size in sizes {
            let Some(class) = self.class_for(size) else {
                complete = false;
                break;
            };
            match shard.mags[class].pop() {
                Some(off) => popped.push((class, off)),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            self.metrics.add(warp.sm, Counter::MagazineHits, popped.len() as u64);
            if let Some(rec) = self.metrics.tracer() {
                rec.emit(warp.sm, EventKind::CacheHit, [popped.len() as u64, 0, 0, 1]);
            }
            for (lane, &(class, off)) in popped.iter().enumerate() {
                let _ = self.tags.insert(off, class);
                out[lane] = DevicePtr::new(off);
            }
            return Ok(());
        }
        for &(class, off) in &popped {
            if shard.mags[class].push(off).is_err() {
                // Raced full between pop and push-back: evict for real.
                let ctx = warp.leader();
                self.metrics.tick(warp.sm, Counter::MagazineFlushes);
                let _ = self.inner.free(&ctx, DevicePtr::new(off));
            }
        }
        self.metrics.add(warp.sm, Counter::MagazineMisses, sizes.len() as u64);
        let rounded: Vec<u64> = sizes
            .iter()
            .map(|&s| match self.class_for(s) {
                Some(c) => CLASS_SIZES[c],
                None => s,
            })
            .collect();
        self.inner.malloc_warp(warp, &rounded, out)?;
        for (&p, &s) in out.iter().zip(rounded.iter()) {
            if !p.is_null() {
                if let Some(c) = self.class_for(s) {
                    let _ = self.tags.insert(p.raw(), c);
                }
            }
        }
        Ok(())
    }

    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        if !self.enabled {
            return self.inner.free_warp(warp, ptrs);
        }
        debug_assert!(ptrs.len() <= WARP_SIZE as usize);
        let shard = self.shard(warp.sm);
        // Park what fits; batch the rest into ONE leader-driven publication
        // to the inner allocator (lane positions preserved, parked lanes
        // nulled out) instead of one inner call per lane.
        let mut remaining = [DevicePtr::NULL; WARP_SIZE as usize];
        let mut parked = 0u64;
        let mut evicted = 0u64;
        let mut any_remaining = false;
        for (lane, &p) in ptrs.iter().enumerate() {
            if p.is_null() {
                continue;
            }
            match self.tags.remove(p.raw()) {
                Some(class) if shard.mags[class].push(p.raw()).is_ok() => parked += 1,
                Some(_) => {
                    evicted += 1;
                    remaining[lane] = p;
                    any_remaining = true;
                }
                None => {
                    remaining[lane] = p;
                    any_remaining = true;
                }
            }
        }
        self.metrics.add(warp.sm, Counter::MagazineHits, parked);
        self.metrics.add(warp.sm, Counter::MagazineFlushes, evicted);
        if !any_remaining {
            return Ok(());
        }
        if let Some(rec) = self.metrics.tracer() {
            rec.emit(warp.sm, EventKind::CacheFlush, [evicted, 0, 0, 1]);
        }
        self.inner.free_warp(warp, &remaining[..ptrs.len()])
    }

    fn free_warp_all(&self, warp: &WarpCtx) -> Result<(), AllocError> {
        // Only warp-level-only families implement this; for them caching is
        // disabled and the magazines are empty by construction.
        self.inner.free_warp_all(warp)
    }

    fn register_footprint(&self) -> RegisterFootprint {
        self.inner.register_footprint()
    }

    fn grow(&self, additional: u64) -> Result<(), AllocError> {
        self.inner.grow(additional)
    }

    fn metrics(&self) -> Metrics {
        self.inner.metrics()
    }

    fn drain(&self) -> u64 {
        // Published magazine contents first, then whatever the inner
        // manager itself might be holding back (a nested decorator).
        self.flush_all() + self.inner.drain()
    }
}

impl<A: DeviceAllocator> Drop for Cached<A> {
    fn drop(&mut self) {
        let _ = self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Ordering as O;
    use std::sync::Arc;

    /// Free-capable bump allocator counting its calls, for decorator tests.
    struct CountingInner {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
        mallocs: AtomicU64,
        frees: AtomicU64,
    }

    impl CountingInner {
        fn new(len: u64) -> Self {
            CountingInner {
                heap: Arc::new(DeviceHeap::new(len)),
                top: AtomicU64::new(0),
                mallocs: AtomicU64::new(0),
                frees: AtomicU64::new(0),
            }
        }
    }

    impl DeviceAllocator for CountingInner {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("CountingInner").supports_free(true).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            self.mallocs.fetch_add(1, O::Relaxed);
            let sz = crate::util::align_up(size.max(1), 16);
            let off = self.top.fetch_add(sz, O::Relaxed);
            if off + sz > self.heap.len() {
                return Err(AllocError::OutOfMemory(size));
            }
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            self.frees.fetch_add(1, O::Relaxed);
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 4, free: 2 }
        }
    }

    #[test]
    fn class_table_is_sorted_pow2_and_3x2k() {
        assert_eq!(CLASS_SIZES.len(), NUM_CLASSES);
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &CLASS_SIZES {
            let pow2 = c.is_power_of_two();
            let three_2k = c % 3 == 0 && (c / 3).is_power_of_two();
            assert!(pow2 || three_2k, "{c} is neither 2^k nor 3*2^k");
            assert!(c % MIN_CLASS == 0 || c == 24, "{c} breaks 16 B alignment steps");
        }
        assert_eq!(CLASS_SIZES[0], MIN_CLASS);
        assert_eq!(CLASS_SIZES[NUM_CLASSES - 1], MAX_CLASS);
    }

    #[test]
    fn class_of_picks_smallest_fit() {
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(24), Some(1));
        assert_eq!(class_of(25), Some(2));
        assert_eq!(class_of(4096), Some(NUM_CLASSES - 1));
        assert_eq!(class_of(4097), None);
        for s in 1..=MAX_CLASS {
            let c = class_of(s).unwrap();
            assert!(CLASS_SIZES[c] >= s);
            if c > 0 {
                assert!(CLASS_SIZES[c - 1] < s, "class for {s} not minimal");
            }
        }
    }

    #[test]
    fn magazine_lifo_push_pop() {
        let m = Magazine::new(4);
        assert_eq!(m.pop(), None);
        m.push(10).unwrap();
        m.push(20).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop(), Some(20));
        assert_eq!(m.pop(), Some(10));
        assert_eq!(m.pop(), None);
    }

    #[test]
    fn magazine_rejects_past_capacity() {
        let m = Magazine::new(2);
        m.push(1).unwrap();
        m.push(2).unwrap();
        assert_eq!(m.push(3), Err(()));
        assert_eq!(m.pop(), Some(2));
        m.push(3).unwrap();
    }

    #[test]
    fn magazine_handles_offset_zero() {
        let m = Magazine::new(2);
        m.push(0).unwrap();
        assert_eq!(m.pop(), Some(0));
    }

    #[test]
    fn tag_table_insert_remove_roundtrip() {
        let t = TagTable::new(64);
        assert!(t.insert(0, 3));
        assert!(t.insert(4096, 7));
        assert_eq!(t.remove(4096), Some(7));
        assert_eq!(t.remove(4096), None, "second remove must miss");
        assert_eq!(t.remove(0), Some(3));
        assert_eq!(t.remove(12345), None);
        // Tombstones are re-usable.
        for i in 0..200u64 {
            assert!(t.insert(i * 16, (i % NUM_CLASSES as u64) as usize));
            assert_eq!(t.remove(i * 16), Some((i % NUM_CLASSES as u64) as usize));
        }
    }

    #[test]
    fn malloc_free_malloc_hits_magazine() {
        let c = Cached::new(CountingInner::new(1 << 20), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 100).unwrap();
        assert_eq!(c.inner().mallocs.load(O::Relaxed), 1);
        c.free(&ctx, p).unwrap();
        // Parked, not freed through the inner allocator.
        assert_eq!(c.inner().frees.load(O::Relaxed), 0);
        assert_eq!(c.cached_blocks(), 1);
        // Same class (128 B) from the same SM: served from the magazine.
        let q = c.malloc(&ctx, 128).unwrap();
        assert_eq!(q, p, "repeat allocation must reuse the parked block");
        assert_eq!(c.inner().mallocs.load(O::Relaxed), 1, "no inner trip on a hit");
    }

    #[test]
    fn different_class_misses() {
        let c = Cached::new(CountingInner::new(1 << 20), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 64).unwrap();
        c.free(&ctx, p).unwrap();
        let q = c.malloc(&ctx, 1024).unwrap();
        assert_ne!(q, p);
        assert_eq!(c.inner().mallocs.load(O::Relaxed), 2);
    }

    #[test]
    fn oversize_passes_through_unrounded() {
        let c = Cached::new(CountingInner::new(1 << 20), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, MAX_CLASS + 1).unwrap();
        c.free(&ctx, p).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 1, "oversize free reaches inner");
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn magazine_overflow_evicts_to_inner() {
        let cfg = CachedConfig { magazine_cap: 2, ..CachedConfig::default() };
        let c = Cached::with_config(CountingInner::new(1 << 20), 1, cfg);
        let ctx = ThreadCtx::host();
        let ptrs: Vec<_> = (0..3).map(|_| c.malloc(&ctx, 32).unwrap()).collect();
        for p in ptrs {
            c.free(&ctx, p).unwrap();
        }
        assert_eq!(c.cached_blocks(), 2);
        assert_eq!(c.inner().frees.load(O::Relaxed), 1, "third free overflowed to inner");
        assert_eq!(c.metrics().snapshot().magazine_flushes(), 0, "relay: disabled handle");
    }

    #[test]
    fn flush_all_returns_parked_blocks_to_inner() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let ctx = ThreadCtx::host();
        let ptrs: Vec<_> = (0..5).map(|_| c.malloc(&ctx, 64).unwrap()).collect();
        for p in ptrs {
            c.free(&ctx, p).unwrap();
        }
        assert_eq!(c.cached_blocks(), 5);
        assert_eq!(c.flush_all(), 5);
        assert_eq!(c.cached_blocks(), 0);
        assert_eq!(c.inner().frees.load(O::Relaxed), 5, "every parked block reaches inner free");
    }

    #[test]
    fn drop_drains_magazines() {
        let inner = Arc::new(CountingInner::new(1 << 20));
        {
            let c = Cached::new(Arc::clone(&inner), 2);
            let ctx = ThreadCtx::host();
            let p = c.malloc(&ctx, 256).unwrap();
            c.free(&ctx, p).unwrap();
            assert_eq!(inner.frees.load(O::Relaxed), 0);
        }
        assert_eq!(inner.frees.load(O::Relaxed), 1, "drop must flush parked blocks");
    }

    #[test]
    fn warp_free_batches_unknown_pointers_to_inner() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        // Pointers that never passed through the cache: one batched inner
        // publication, not a park.
        let ptrs = [DevicePtr::new(0), DevicePtr::new(64), DevicePtr::NULL];
        c.free_warp(&warp, &ptrs).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 2);
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn warp_free_parks_known_pointers() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let ctx = warp.leader();
        let a = c.malloc(&ctx, 48).unwrap();
        let b = c.malloc(&ctx, 48).unwrap();
        c.free_warp(&warp, &[a, b]).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 0, "both parked, no inner call");
        assert_eq!(c.cached_blocks(), 2);
    }

    #[test]
    fn warp_malloc_serves_full_warp_from_magazines() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let ctx = warp.leader();
        let a = c.malloc(&ctx, 32).unwrap();
        let b = c.malloc(&ctx, 32).unwrap();
        c.free_warp(&warp, &[a, b]).unwrap();
        let mallocs_before = c.inner().mallocs.load(O::Relaxed);
        let mut out = [DevicePtr::NULL; 2];
        c.malloc_warp(&warp, &[32, 32], &mut out).unwrap();
        assert!(!out[0].is_null() && !out[1].is_null());
        assert_eq!(c.inner().mallocs.load(O::Relaxed), mallocs_before, "all-hit warp");
    }

    #[test]
    fn warp_malloc_partial_rolls_back_and_delegates() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let ctx = warp.leader();
        let a = c.malloc(&ctx, 32).unwrap();
        c.free(&ctx, a).unwrap();
        assert_eq!(c.cached_blocks(), 1);
        let mut out = [DevicePtr::NULL; 2];
        // Two lanes, one parked block: the warp must delegate whole.
        c.malloc_warp(&warp, &[32, 32], &mut out).unwrap();
        assert!(!out[0].is_null() && !out[1].is_null());
        assert_eq!(c.cached_blocks(), 1, "popped block rolled back on partial hit");
    }

    #[test]
    fn no_free_inner_disables_caching() {
        struct NoFree(CountingInner);
        impl DeviceAllocator for NoFree {
            fn info(&self) -> ManagerInfo {
                ManagerInfo::builder("NoFree").supports_free(false).build()
            }
            fn heap(&self) -> &DeviceHeap {
                self.0.heap()
            }
            fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
                self.0.malloc(ctx, size)
            }
            fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
                Err(AllocError::Unsupported("free"))
            }
            fn register_footprint(&self) -> RegisterFootprint {
                RegisterFootprint { malloc: 4, free: 0 }
            }
        }
        let c = Cached::new(NoFree(CountingInner::new(1 << 20)), 2);
        assert!(!c.is_caching());
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 64).unwrap();
        assert_eq!(c.free(&ctx, p), Err(AllocError::Unsupported("free")));
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn magazine_counters_flow_into_shared_metrics() {
        struct Metered {
            inner: CountingInner,
            m: Metrics,
        }
        impl DeviceAllocator for Metered {
            fn info(&self) -> ManagerInfo {
                ManagerInfo::builder("Metered").supports_free(true).build()
            }
            fn heap(&self) -> &DeviceHeap {
                self.inner.heap()
            }
            fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
                self.m.tick(ctx.sm, Counter::MallocCalls);
                self.inner.malloc(ctx, size)
            }
            fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
                self.m.tick(ctx.sm, Counter::FreeCalls);
                self.inner.free(ctx, ptr)
            }
            fn register_footprint(&self) -> RegisterFootprint {
                RegisterFootprint { malloc: 4, free: 2 }
            }
            fn metrics(&self) -> Metrics {
                self.m.clone()
            }
        }
        let m = Metrics::enabled(4);
        let c = Cached::new(Metered { inner: CountingInner::new(1 << 20), m: m.clone() }, 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 64).unwrap(); // miss
        c.free(&ctx, p).unwrap(); // park (no inner free call)
        let _ = c.malloc(&ctx, 64).unwrap(); // hit
        let s = m.snapshot();
        assert_eq!(s.magazine_misses(), 1);
        assert_eq!(s.magazine_hits(), 1);
        assert_eq!(s.magazine_flushes(), 0);
        assert_eq!(s.malloc_calls(), 1, "hit bypasses inner call accounting");
        assert_eq!(s.free_calls(), 0, "parked free never reached inner");
        // Inner view of the identity stays consistent: 1 call, 1 live.
        assert_eq!(s.live(), 1);
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::Magazine;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Concurrent pushes into one magazine: every accepted offset is
    /// popped exactly once afterwards, none lost, none duplicated.
    #[test]
    fn loom_magazine_concurrent_push_conserves_blocks() {
        crate::sync::model(|| {
            let m = Arc::new(Magazine::new(2));
            let handles: Vec<_> = [10u64, 20]
                .into_iter()
                .map(|v| {
                    let m = Arc::clone(&m);
                    crate::sync::thread::spawn(move || m.push(v).is_ok())
                })
                .collect();
            let accepted: usize = handles.into_iter().map(|h| h.join().unwrap() as usize).sum();
            let mut seen = HashSet::new();
            while let Some(v) = m.pop() {
                assert!(seen.insert(v), "duplicated block {v}");
                assert!(v == 10 || v == 20, "invented block {v}");
            }
            assert_eq!(seen.len(), accepted, "accepted pushes must all drain");
        });
    }

    /// A push racing a pop on a nearly-full magazine: the handoff spin
    /// never loses the in-flight block.
    #[test]
    fn loom_magazine_push_pop_handoff() {
        crate::sync::model(|| {
            let m = Arc::new(Magazine::new(1));
            m.push(7).unwrap();
            let pusher = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.push(9).is_ok())
            };
            let popper = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.pop())
            };
            let pushed = pusher.join().unwrap();
            let popped = popper.join().unwrap();
            let mut drained = Vec::new();
            while let Some(v) = m.pop() {
                drained.push(v);
            }
            let mut all: Vec<u64> = popped.into_iter().chain(drained).collect();
            all.sort_unstable();
            let mut expect = vec![7u64];
            if pushed {
                expect.push(9);
            }
            expect.sort_unstable();
            assert_eq!(all, expect, "multiset in == multiset out");
        });
    }

    /// A concurrent flush (pop-until-empty) against a pusher: conservation
    /// holds and the flusher never observes a phantom value.
    #[test]
    fn loom_magazine_flush_vs_push() {
        crate::sync::model(|| {
            let m = Arc::new(Magazine::new(2));
            m.push(1).unwrap();
            let pusher = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.push(2).is_ok())
            };
            let flusher = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = m.pop() {
                        got.push(v);
                    }
                    got
                })
            };
            let pushed = pusher.join().unwrap();
            let mut all = flusher.join().unwrap();
            while let Some(v) = m.pop() {
                all.push(v);
            }
            all.sort_unstable();
            let mut expect = vec![1u64];
            if pushed {
                expect.push(2);
            }
            assert_eq!(all, expect);
        });
    }
}
