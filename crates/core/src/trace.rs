//! Event-tracing layer: per-SM ring-buffer trace recorder and its consumers.
//!
//! The [`Metrics`](crate::Metrics) counters (DESIGN.md §6) answer *how much*
//! contention a run saw; this module answers *when* and *where*. A
//! [`TraceRecorder`] collects a bounded stream of timestamped events —
//! allocation begin/end pairs with latency and CAS-retry payloads, frees,
//! OOM fallbacks, sanitizer violations, and warp/launch lifecycle markers
//! emitted by the executor — into fixed-capacity per-SM ring buffers. Three
//! consumers are derived from one recorded [`Trace`]:
//!
//! 1. [`OpLatencies`]: per-operation log2-bucketed latency histograms with
//!    p50/p95/p99 extraction ([`LatencyHistogram`]),
//! 2. [`occupancy_timeline`]: a heap-occupancy/fragmentation timeline that
//!    replays alloc/free events into live-byte counts and
//!    [`AddressRange`](crate::AddressRange) deltas over time,
//! 3. [`chrome_trace_json`]: a Chrome trace-event JSON exporter that loads
//!    directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`, with
//!    one track per SM, async spans for allocation lifetimes, and counter
//!    tracks for heap occupancy and CAS-retry rate.
//!
//! # Recording discipline
//!
//! The recorder follows the same zero-cost-when-disabled discipline as
//! `Metrics`: tracing is enabled by *attaching* a recorder to a `Metrics`
//! handle ([`Metrics::with_tracer`](crate::Metrics::with_tracer)) and
//! wrapping the allocator in [`Traced`]; an unattached handle costs the one
//! `Option` branch the counters already pay, and a default-built manager
//! records zero events.
//!
//! Each shard is a fixed-capacity array of 6-word slots. A writer claims a
//! run of `n` contiguous slots with one `fetch_add(n)` on the shard's
//! `claimed` cursor — `n` is 1 for a single event and the lane count for a
//! warp-collective operation's per-lane events. Claims past capacity write
//! nothing and need no counter of their own: the drop count is the cursor's
//! excess over capacity, so memory stays bounded and loss is observable
//! (drop-newest). Slot payload words are plain atomics written `Relaxed`,
//! and each slot is published by a `Release` store of its tag word; the
//! writer then adds the slots it wrote to `committed` with one `Release`
//! `fetch_add`. Because read-modify-writes continue each other's release
//! sequences, a reader's `Acquire` load of the final `committed` value
//! synchronises with *every* writer, making all committed slot payloads
//! visible. [`TraceRecorder::snapshot`] is intended for quiescent points
//! (after a launch returns); it tolerates a mid-flight writer by bounded
//! spinning and skipping slots whose tag word is still zero.

use crate::ctx::{ThreadCtx, WarpCtx};
use crate::error::AllocError;
use crate::frag::AddressRange;
use crate::heap::DeviceHeap;
use crate::info::ManagerInfo;
use crate::metrics::Metrics;
use crate::ptr::DevicePtr;
use crate::regs::RegisterFootprint;
use crate::sync::{AtomicU64, Ordering};
use crate::traits::DeviceAllocator;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Default ring capacity per SM shard, in events.
///
/// At 48 bytes per slot this bounds an 80-SM recorder to ~31 MiB. A
/// contention run of 10 000 threads emits 4 events per thread (two
/// begin/end pairs) spread over the SMs the threads land on, so the default
/// holds a full default-scale run without drops.
pub const DEFAULT_EVENTS_PER_SM: usize = 8192;

/// Number of log2 latency buckets — covers 1 ns ..= `u64::MAX` ns.
pub const LATENCY_BUCKETS: usize = 64;

/// What happened, encoded in the slot tag word. Payload word semantics are
/// listed per variant; unused words are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum EventKind {
    /// An allocation request entered the manager.
    /// `args = [requested_bytes, thread_id, 0, 0]` (warp-collective calls
    /// report the leader's thread id and the warp's total bytes).
    MallocBegin = 0,
    /// An allocation request returned.
    /// `args = [ptr_raw (u64::MAX on failure), size_bytes, latency_ns,
    /// cas_retries]`. Warp-collective calls emit one `MallocEnd` per lane,
    /// each carrying the collective latency; retries are attributed to the
    /// first lane only so sums stay correct.
    MallocEnd = 1,
    /// A free request entered the manager.
    /// `args = [ptr_raw (u64::MAX for collective frees), thread_id,
    /// lane_count, 0]`.
    FreeBegin = 2,
    /// A free request returned.
    /// `args = [ptr_raw, latency_ns, cas_retries, ok (1 = freed)]`.
    /// `ptr_raw == u64::MAX` marks a warp-collective bulk free
    /// (`free_warp_all`) whose individual pointers the manager never
    /// exposes.
    FreeEnd = 3,
    /// The manager fell back past its own heap (e.g. Halloc's CUDA
    /// fallback). `args = [count, 0, 0, 0]`.
    OomFallback = 4,
    /// The shadow-heap sanitizer recorded a violation.
    /// `args = [violation_kind, offset, size, 0]`.
    SanitizerViolation = 5,
    /// The executor handed a warp to a worker. `args = [warp_id, launch_id,
    /// 0, 0]`.
    WarpDispatched = 6,
    /// A warp finished its body. `args = [warp_id, launch_id, 0, 0]`.
    WarpRetired = 7,
    /// An observed launch started. `args = [launch_id, n_threads, n_warps,
    /// 0]`; recorded on shard 0.
    LaunchBegin = 8,
    /// An observed launch completed. `args = [launch_id, elapsed_ns, 0,
    /// 0]`; recorded on shard 0.
    LaunchEnd = 9,
    /// A [`Cached`](crate::cache::Cached) magazine served an allocation
    /// without touching the inner allocator.
    /// `args = [ptr_raw_or_lane_count, class_size, 0, warp (1 = collective)]`.
    CacheHit = 10,
    /// A `Cached` magazine evicted or drained parked blocks back to the
    /// inner allocator. `args = [count, class_size, 0, warp]`.
    CacheFlush = 11,
}

/// Number of event kinds.
pub const EVENT_KINDS: usize = 12;

/// All event kinds, in tag order.
pub const ALL_EVENT_KINDS: [EventKind; EVENT_KINDS] = [
    EventKind::MallocBegin,
    EventKind::MallocEnd,
    EventKind::FreeBegin,
    EventKind::FreeEnd,
    EventKind::OomFallback,
    EventKind::SanitizerViolation,
    EventKind::WarpDispatched,
    EventKind::WarpRetired,
    EventKind::LaunchBegin,
    EventKind::LaunchEnd,
    EventKind::CacheHit,
    EventKind::CacheFlush,
];

impl EventKind {
    /// Stable snake_case name (used in exports and reports).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::MallocBegin => "malloc_begin",
            EventKind::MallocEnd => "malloc_end",
            EventKind::FreeBegin => "free_begin",
            EventKind::FreeEnd => "free_end",
            EventKind::OomFallback => "oom_fallback",
            EventKind::SanitizerViolation => "sanitizer_violation",
            EventKind::WarpDispatched => "warp_dispatched",
            EventKind::WarpRetired => "warp_retired",
            EventKind::LaunchBegin => "launch_begin",
            EventKind::LaunchEnd => "launch_end",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheFlush => "cache_flush",
        }
    }

    fn from_tag(tag: u32) -> Option<EventKind> {
        // Tag 0 is reserved for "slot not yet written" so a torn snapshot
        // can never mistake an unpublished slot for a real event; on-wire
        // tags are therefore discriminant + 1.
        match tag {
            1 => Some(EventKind::MallocBegin),
            2 => Some(EventKind::MallocEnd),
            3 => Some(EventKind::FreeBegin),
            4 => Some(EventKind::FreeEnd),
            5 => Some(EventKind::OomFallback),
            6 => Some(EventKind::SanitizerViolation),
            7 => Some(EventKind::WarpDispatched),
            8 => Some(EventKind::WarpRetired),
            9 => Some(EventKind::LaunchBegin),
            10 => Some(EventKind::LaunchEnd),
            11 => Some(EventKind::CacheHit),
            12 => Some(EventKind::CacheFlush),
            _ => None,
        }
    }

    const fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (its construction time).
    pub ts_ns: u64,
    /// Event kind; see [`EventKind`] for payload semantics.
    pub kind: EventKind,
    /// SM shard the event was recorded on.
    pub sm: u32,
    /// Kind-specific payload words.
    pub args: [u64; 4],
}

const SLOT_WORDS: usize = 6;

/// One fixed slot: `[ts, tag<<32|sm, a0, a1, a2, a3]`.
struct Slot {
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Self {
        Slot { words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn decode(&self) -> Option<TraceEvent> {
        // The meta word is the publication point: the writer stores it last
        // with Release, so once a valid tag is visible here, this Acquire
        // load synchronizes-with that store and every other word of the
        // slot is visible. An unpublished slot shows the reserved zero tag.
        let meta = self.words[1].load(Ordering::Acquire);
        let kind = EventKind::from_tag((meta >> 32) as u32)?;
        let ts = self.words[0].load(Ordering::Relaxed);
        Some(TraceEvent {
            ts_ns: ts,
            kind,
            sm: meta as u32,
            args: [
                self.words[2].load(Ordering::Relaxed),
                self.words[3].load(Ordering::Relaxed),
                self.words[4].load(Ordering::Relaxed),
                self.words[5].load(Ordering::Relaxed),
            ],
        })
    }
}

/// One per-SM ring shard. The cursors live on their own cache line so two
/// SMs' claim traffic does not false-share (same layout rationale as the
/// counter shards in `metrics`).
#[repr(align(128))]
struct TraceShard {
    /// Slots ever claimed on this shard (monotonic; may exceed capacity).
    /// Claims past capacity are the shard's dropped events (drop-newest).
    claimed: AtomicU64,
    /// Slots fully written and published.
    committed: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceShard {
    fn new(capacity: usize) -> Self {
        TraceShard {
            claimed: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }
}

/// Lock-free, fixed-capacity, per-SM trace recorder.
///
/// Writers on any thread call [`TraceRecorder::emit`]; [`Traced`] records
/// a warp-collective op's per-lane events as one batch. A batch of `n`
/// events costs one claim `fetch_add`, five `Relaxed` stores and one
/// `Release` tag store per written slot, and one commit `fetch_add` — two
/// read-modify-writes for a whole warp's per-lane events. When a shard
/// fills, further events on it are counted in [`TraceRecorder::dropped`]
/// and discarded at the cost of the claim alone — memory stays bounded at
/// `shards × events_per_sm × 48` bytes no matter how long the run.
pub struct TraceRecorder {
    shards: Box<[TraceShard]>,
    /// Per-shard slot capacity.
    capacity: usize,
    epoch: Instant,
    next_launch: AtomicU64,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("shards", &self.shards.len())
            .field("events_per_sm", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceRecorder {
    /// A recorder with one ring of `events_per_sm` slots per SM shard.
    /// The shard count is rounded up to a power of two (minimum 1) so SM ids
    /// beyond the configured count fold in with a mask, mirroring
    /// `AllocCounters`.
    pub fn new(num_sms: u32, events_per_sm: usize) -> Self {
        let shards = (num_sms.max(1) as usize).next_power_of_two();
        let capacity = events_per_sm.max(1);
        TraceRecorder {
            shards: (0..shards).map(|_| TraceShard::new(capacity)).collect(),
            capacity,
            epoch: Instant::now(),
            next_launch: AtomicU64::new(0),
        }
    }

    /// A recorder with [`DEFAULT_EVENTS_PER_SM`] slots per shard.
    pub fn with_default_capacity(num_sms: u32) -> Self {
        TraceRecorder::new(num_sms, DEFAULT_EVENTS_PER_SM)
    }

    /// Per-shard slot capacity.
    pub fn events_per_sm(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds elapsed since this recorder was constructed. All event
    /// timestamps share this epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Hands out monotonically increasing launch ids for
    /// [`EventKind::LaunchBegin`]/[`EventKind::LaunchEnd`] pairs.
    pub fn next_launch_id(&self) -> u64 {
        self.next_launch.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an event timestamped now.
    #[inline]
    pub fn emit(&self, sm: u32, kind: EventKind, args: [u64; 4]) {
        self.emit_at(self.now_ns(), sm, kind, args);
    }

    /// Records an event with an explicit timestamp (callers that time an
    /// operation themselves pass the operation's start or end instant).
    /// The one-event case of the batch write path.
    pub fn emit_at(&self, ts_ns: u64, sm: u32, kind: EventKind, args: [u64; 4]) {
        self.emit_batch_at(ts_ns, sm, kind, 1, [args]);
    }

    /// Records `n` events of one kind and timestamp on `sm`'s shard, taking
    /// their payloads from `args` in order, into contiguous slots.
    ///
    /// The batch costs one claim `fetch_add` and one commit `fetch_add`
    /// whatever `n` is; each written slot is still published by its own
    /// `Release` store of the tag word. Slots past the ring's capacity are
    /// dropped (drop-newest) and counted by the claim cursor itself, so a
    /// full ring costs the claim alone. `args` must yield at least `n`
    /// payloads; extra ones are ignored.
    pub(crate) fn emit_batch_at(
        &self,
        ts_ns: u64,
        sm: u32,
        kind: EventKind,
        n: usize,
        args: impl IntoIterator<Item = [u64; 4]>,
    ) {
        if n == 0 {
            return;
        }
        let shard = &self.shards[sm as usize & (self.shards.len() - 1)];
        let first = shard.claimed.fetch_add(n as u64, Ordering::Relaxed) as usize;
        let end = first.saturating_add(n).min(self.capacity);
        if first >= end {
            return;
        }
        // The claim above made these slots exclusively ours, so the Relaxed
        // stores race with nothing. Each slot's meta word (nonzero tag) is
        // stored last with Release: it is the slot's own publication point,
        // so a reader that sees the tag sees the whole slot. Commits on
        // neighboring slots can land in any order, which is why publication
        // must be per-slot, not via the `committed` counter (that counter
        // only sizes `recorded()` and bounds the snapshot's completeness
        // spin).
        let meta = (kind.tag() << 32) | sm as u64;
        let mut written = 0u64;
        for (slot, a) in shard.slots[first..end].iter().zip(args) {
            slot.words[0].store(ts_ns, Ordering::Relaxed);
            slot.words[2].store(a[0], Ordering::Relaxed);
            slot.words[3].store(a[1], Ordering::Relaxed);
            slot.words[4].store(a[2], Ordering::Relaxed);
            slot.words[5].store(a[3], Ordering::Relaxed);
            slot.words[1].store(meta, Ordering::Release);
            written += 1;
        }
        debug_assert_eq!(written, (end - first) as u64, "emit_batch_at: fewer than n payloads");
        shard.committed.fetch_add(written, Ordering::Release);
    }

    /// Total events recorded (committed) across all shards.
    pub fn recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.committed.load(Ordering::Acquire)).sum()
    }

    /// Total events discarded because their shard was full: the claims
    /// each shard's cursor handed out past its capacity.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| self.overflow(s.claimed.load(Ordering::Relaxed))).sum()
    }

    /// Claims past capacity out of `claimed` claims on one shard.
    fn overflow(&self, claimed: u64) -> u64 {
        claimed.saturating_sub(self.capacity as u64)
    }

    /// Decodes every committed event into a time-sorted [`Trace`].
    ///
    /// Meant for quiescent points (after the traced launches return). If a
    /// writer is caught between claim and commit the snapshot spins briefly,
    /// then reads what is published; a still-unwritten slot decodes to the
    /// reserved zero tag and is skipped rather than misread.
    pub fn snapshot(&self) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for shard in self.shards.iter() {
            let claimed = shard.claimed.load(Ordering::Acquire);
            let claims = claimed.min(self.capacity as u64);
            // Loom explores each spin iteration as a branch; keep the bound
            // tight there and generous on real hardware.
            let spin_bound: u32 = if cfg!(loom) { 100 } else { 1_000_000 };
            let mut spins = 0u32;
            while shard.committed.load(Ordering::Acquire) < claims {
                crate::sync::hint::spin_loop();
                spins += 1;
                if spins > spin_bound {
                    break;
                }
            }
            // Walk the claimed prefix, not the committed count: commits can
            // land out of claim order (slot 1's writer may finish before
            // slot 0's), so the count says how many slots are published but
            // not which. Each slot carries its own publication tag; a
            // still-unwritten one decodes to the reserved zero tag and is
            // skipped rather than misread.
            for slot in shard.slots[..claims as usize].iter() {
                if let Some(ev) = slot.decode() {
                    events.push(ev);
                }
            }
            dropped += self.overflow(claimed);
        }
        events.sort_by_key(|e| (e.ts_ns, e.sm));
        Trace { events, dropped, events_per_sm: self.capacity }
    }

    /// Incrementally decodes events committed since the last call with the
    /// same cursor vector, returning each event exactly once across calls.
    ///
    /// The rings are drop-newest — a claimed slot is never recycled — so a
    /// per-shard index over the published prefix is an exact cursor, not a
    /// heuristic. Each call consumes the *contiguous* published prefix: a
    /// slot still between claim and commit stops this shard's walk (after
    /// the same bounded spin [`TraceRecorder::snapshot`] uses) and is
    /// picked up by the next call instead of being skipped or re-read.
    ///
    /// This is the telemetry sampler's drain path: at kHz cadences a full
    /// [`TraceRecorder::snapshot`] per window re-decodes the entire ring
    /// (`capacity × num_sms` slots) every time, which is what dominated
    /// the sampler's measured overhead before this path existed.
    pub fn snapshot_since(&self, cursors: &mut Vec<u64>) -> Trace {
        cursors.resize(self.shards.len(), 0);
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for (shard, cursor) in self.shards.iter().zip(cursors.iter_mut()) {
            let claimed = shard.claimed.load(Ordering::Acquire);
            let claims = claimed.min(self.capacity as u64);
            let spin_bound: u32 = if cfg!(loom) { 100 } else { 1_000_000 };
            let mut spins = 0u32;
            while shard.committed.load(Ordering::Acquire) < claims {
                crate::sync::hint::spin_loop();
                spins += 1;
                if spins > spin_bound {
                    break;
                }
            }
            let start = (*cursor).min(claims) as usize;
            let mut consumed = claims as usize;
            for i in start..claims as usize {
                match shard.slots[i].decode() {
                    Some(ev) => events.push(ev),
                    None => {
                        consumed = i;
                        break;
                    }
                }
            }
            *cursor = consumed as u64;
            dropped += self.overflow(claimed);
        }
        events.sort_by_key(|e| (e.ts_ns, e.sm));
        Trace { events, dropped, events_per_sm: self.capacity }
    }
}

// Per-thread scope stack bridging `Metrics::record_retries` (called from
// inside the managers, which know nothing about tracing) to the `Traced`
// wrapper timing the enclosing operation on the same thread. Kernel bodies
// run entirely on one worker thread, so begin/accumulate/drain never cross
// threads.
//
// A *stack* (not a single cell) because decorators nest: in
// `Traced<Cached<Traced<A>>>` the outer wrapper's operation encloses the
// inner wrapper's. Each `Traced` entry point pushes a fresh frame before
// calling inward and pops it when the call returns, so retries noted by a
// layer land in the innermost open frame — the operation of the layer that
// caused them — and are neither double-counted by the outer record nor
// stolen from it when an inner wrapper begins.
thread_local! {
    static OP_RETRIES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Adds `n` CAS retries to the innermost in-flight traced operation on this
/// thread. Called by `Metrics::record_retries` when a tracer is attached;
/// a no-op when no traced operation is open (nothing to attribute to).
#[inline]
pub(crate) fn note_op_retries(n: u64) {
    OP_RETRIES.with(|c| {
        if let Some(top) = c.borrow_mut().last_mut() {
            *top = top.saturating_add(n);
        }
    });
}

/// Opens a retry-attribution frame for one traced operation.
fn begin_op_scope() {
    OP_RETRIES.with(|c| c.borrow_mut().push(0));
}

/// Closes the innermost frame, returning the retries noted while it was
/// open (excluding those captured by deeper frames).
fn end_op_scope() -> u64 {
    OP_RETRIES.with(|c| c.borrow_mut().pop().unwrap_or(0))
}

/// [`DeviceAllocator`] wrapper that records `MallocBegin/End` and
/// `FreeBegin/End` events (with latency and CAS-retry payloads) around every
/// entry point of the wrapped manager.
///
/// Mirrors the `Sanitized` wrapper: apply it at construction time (the
/// builder's `.trace(true)` does this) and every manager gets tracing
/// without per-crate changes. The wrapped manager's `Metrics` handle must
/// carry the same recorder (`Metrics::with_tracer`) for retry payloads and
/// `OomFallback` events to land in the same trace.
pub struct Traced<A> {
    inner: A,
    rec: Arc<TraceRecorder>,
}

impl<A: DeviceAllocator> Traced<A> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: A, rec: Arc<TraceRecorder>) -> Self {
        Traced { inner, rec }
    }

    /// The recorder events land in.
    pub fn recorder(&self) -> &Arc<TraceRecorder> {
        &self.rec
    }

    /// Unwraps the inner manager.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: DeviceAllocator> DeviceAllocator for Traced<A> {
    fn info(&self) -> ManagerInfo {
        self.inner.info()
    }

    fn heap(&self) -> &DeviceHeap {
        self.inner.heap()
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let t0 = self.rec.now_ns();
        self.rec.emit_at(t0, ctx.sm, EventKind::MallocBegin, [size, ctx.thread_id as u64, 0, 0]);
        begin_op_scope();
        let r = self.inner.malloc(ctx, size);
        let retries = end_op_scope();
        let t1 = self.rec.now_ns();
        let ptr = match &r {
            Ok(p) => p.raw(),
            Err(_) => u64::MAX,
        };
        // Clamp to 1 ns: the operation took nonzero time even when the
        // clock's granularity says otherwise.
        self.rec.emit_at(t1, ctx.sm, EventKind::MallocEnd, [ptr, size, (t1 - t0).max(1), retries]);
        r
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        let t0 = self.rec.now_ns();
        self.rec.emit_at(t0, ctx.sm, EventKind::FreeBegin, [ptr.raw(), ctx.thread_id as u64, 1, 0]);
        begin_op_scope();
        let r = self.inner.free(ctx, ptr);
        let retries = end_op_scope();
        let t1 = self.rec.now_ns();
        self.rec.emit_at(
            t1,
            ctx.sm,
            EventKind::FreeEnd,
            [ptr.raw(), (t1 - t0).max(1), retries, r.is_ok() as u64],
        );
        r
    }

    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        let total: u64 = sizes.iter().sum();
        let leader = warp.leader();
        let t0 = self.rec.now_ns();
        self.rec.emit_at(
            t0,
            warp.sm,
            EventKind::MallocBegin,
            [total, leader.thread_id as u64, 0, 0],
        );
        begin_op_scope();
        let r = self.inner.malloc_warp(warp, sizes, out);
        let retries = end_op_scope();
        let t1 = self.rec.now_ns();
        let latency = (t1 - t0).max(1);
        match &r {
            // One ring claim for the whole warp: lanes land in contiguous
            // slots, retries on the first lane only so sums stay correct.
            Ok(()) => self.rec.emit_batch_at(
                t1,
                warp.sm,
                EventKind::MallocEnd,
                sizes.len().min(out.len()),
                sizes.iter().zip(out.iter()).enumerate().map(|(i, (&size, ptr))| {
                    [ptr.raw(), size, latency, if i == 0 { retries } else { 0 }]
                }),
            ),
            Err(_) => {
                self.rec.emit_at(
                    t1,
                    warp.sm,
                    EventKind::MallocEnd,
                    [u64::MAX, total, latency, retries],
                );
            }
        }
        r
    }

    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        let live = ptrs.iter().filter(|p| !p.is_null()).count() as u64;
        let leader = warp.leader();
        let t0 = self.rec.now_ns();
        self.rec.emit_at(
            t0,
            warp.sm,
            EventKind::FreeBegin,
            [u64::MAX, leader.thread_id as u64, live, 0],
        );
        begin_op_scope();
        let r = self.inner.free_warp(warp, ptrs);
        let retries = end_op_scope();
        let t1 = self.rec.now_ns();
        let latency = (t1 - t0).max(1);
        // `ok` reflects the collective result: `free_warp` reports only the
        // first error, so on Err the occupancy replay conservatively keeps
        // all lanes live.
        let ok = r.is_ok() as u64;
        self.rec.emit_batch_at(
            t1,
            warp.sm,
            EventKind::FreeEnd,
            live as usize,
            ptrs.iter()
                .filter(|p| !p.is_null())
                .enumerate()
                .map(|(i, ptr)| [ptr.raw(), latency, if i == 0 { retries } else { 0 }, ok]),
        );
        r
    }

    fn free_warp_all(&self, warp: &WarpCtx) -> Result<(), AllocError> {
        let leader = warp.leader();
        let t0 = self.rec.now_ns();
        self.rec.emit_at(
            t0,
            warp.sm,
            EventKind::FreeBegin,
            [u64::MAX, leader.thread_id as u64, 0, 0],
        );
        begin_op_scope();
        let r = self.inner.free_warp_all(warp);
        let retries = end_op_scope();
        let t1 = self.rec.now_ns();
        // Bulk free: the individual pointers are the manager's private
        // state, so the event carries the null sentinel and the occupancy
        // replay leaves these allocations in place (documented limitation
        // for FDGMalloc-style tidy-up).
        self.rec.emit_at(
            t1,
            warp.sm,
            EventKind::FreeEnd,
            [u64::MAX, (t1 - t0).max(1), retries, r.is_ok() as u64],
        );
        r
    }

    fn register_footprint(&self) -> RegisterFootprint {
        self.inner.register_footprint()
    }

    fn grow(&self, bytes: u64) -> Result<(), AllocError> {
        self.inner.grow(bytes)
    }

    fn metrics(&self) -> Metrics {
        self.inner.metrics()
    }

    fn drain(&self) -> u64 {
        // Forwarded without events of its own: the inner drain's frees run
        // through the inner allocator directly (they are magazine
        // publications, not caller-visible free calls), so there is no
        // begin/end pair to record at this layer.
        self.inner.drain()
    }
}

/// A decoded, time-sorted snapshot of a recorder's contents.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Committed events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events discarded because a shard was full.
    pub dropped: u64,
    /// The recorder's per-shard capacity (for drop-rate context).
    pub events_per_sm: usize,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Wall-clock span covered, first event to last, in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.ts_ns - a.ts_ns,
            _ => 0,
        }
    }
}

/// Log2-bucketed latency histogram with percentile extraction.
///
/// Bucket `k` holds samples whose nanosecond latency has its highest set
/// bit at position `k`, i.e. the range `[2^k, 2^(k+1))` (bucket 0 also
/// holds 0 ns, which the recording path clamps away). Percentiles report
/// the *upper bound* of the bucket the requested rank falls in, capped at
/// the exact observed maximum — pessimistic by at most 2×, never zero for a
/// non-empty histogram.
#[derive(Clone, Copy)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("p50_ns", &self.p50())
            .field("p95_ns", &self.p95())
            .field("p99_ns", &self.p99())
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = if ns == 0 { 0 } else { 63 - ns.leading_zeros() as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Latency at percentile `p` (0 < p <= 100), as the upper bound of the
    /// bucket containing that rank, capped at the observed maximum. Returns
    /// 0 only for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let upper = if k >= 63 { u64::MAX } else { (1u64 << (k + 1)) - 1 };
                return upper.min(self.max_ns).max(1);
            }
        }
        self.max_ns.max(1)
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile latency (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Per-operation latency histograms extracted from a trace.
#[derive(Clone, Debug, Default)]
pub struct OpLatencies {
    /// Latency of `malloc`/`malloc_warp` operations (per lane for
    /// collective calls).
    pub malloc: LatencyHistogram,
    /// Latency of `free`/`free_warp`/`free_warp_all` operations.
    pub free: LatencyHistogram,
}

impl OpLatencies {
    /// Builds the histograms from every `MallocEnd`/`FreeEnd` event in the
    /// trace (failed mallocs included — a refusal takes time too).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut out = OpLatencies::default();
        for e in &trace.events {
            match e.kind {
                EventKind::MallocEnd => out.malloc.record(e.args[2]),
                EventKind::FreeEnd => out.free.record(e.args[1]),
                _ => {}
            }
        }
        out
    }
}

/// One point of the heap-occupancy timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySample {
    /// Timestamp of the alloc/free event that produced this sample.
    pub ts_ns: u64,
    /// Bytes live (allocated, not yet freed) at this instant.
    pub live_bytes: u64,
    /// Allocations live at this instant.
    pub live_allocs: u64,
    /// Span of the cumulative touched address range, in bytes
    /// ([`AddressRange::range`]): how far apart the manager has scattered
    /// its placements so far.
    pub range_span: u64,
}

/// The heap-occupancy/fragmentation timeline replayed from a trace.
#[derive(Clone, Debug, Default)]
pub struct OccupancyTimeline {
    /// Samples in time order, decimated to the requested maximum.
    pub samples: Vec<OccupancySample>,
    /// Peak live bytes over the run.
    pub peak_live_bytes: u64,
    /// Peak live allocation count over the run.
    pub peak_live_allocs: u64,
    /// Cumulative address range touched by all successful allocations.
    pub address_range: AddressRange,
    /// `FreeEnd` events whose pointer the replay never saw allocated
    /// (collective bulk frees, or `MallocEnd` events lost to ring drops).
    pub unmatched_frees: u64,
}

/// Replays the trace's alloc/free events into a heap-occupancy timeline:
/// live bytes, live allocation count and the cumulative
/// [`AddressRange`](crate::AddressRange) after every event, decimated to at
/// most `max_samples` points (the final state is always kept).
pub fn occupancy_timeline(trace: &Trace, max_samples: usize) -> OccupancyTimeline {
    let mut live: HashMap<u64, u64> = HashMap::new();
    let mut range = AddressRange::new();
    let mut out = OccupancyTimeline::default();
    let mut live_bytes = 0u64;
    let mut raw: Vec<OccupancySample> = Vec::new();
    for e in &trace.events {
        match e.kind {
            EventKind::MallocEnd if e.args[0] != u64::MAX => {
                let (ptr, size) = (e.args[0], e.args[1]);
                if live.insert(ptr, size).is_none() {
                    live_bytes += size;
                }
                range.record(DevicePtr::new(ptr), size);
            }
            EventKind::FreeEnd if e.args[0] != u64::MAX && e.args[3] == 1 => {
                match live.remove(&e.args[0]) {
                    Some(size) => live_bytes -= size,
                    None => out.unmatched_frees += 1,
                }
            }
            _ => continue,
        }
        let sample = OccupancySample {
            ts_ns: e.ts_ns,
            live_bytes,
            live_allocs: live.len() as u64,
            range_span: range.range(),
        };
        out.peak_live_bytes = out.peak_live_bytes.max(live_bytes);
        out.peak_live_allocs = out.peak_live_allocs.max(live.len() as u64);
        raw.push(sample);
    }
    out.address_range = range;
    out.samples = decimate(raw, max_samples);
    out
}

/// Keeps at most `max` evenly strided samples, always including the last.
fn decimate(raw: Vec<OccupancySample>, max: usize) -> Vec<OccupancySample> {
    let max = max.max(2);
    if raw.len() <= max {
        return raw;
    }
    let stride = raw.len().div_ceil(max);
    let last = *raw.last().expect("non-empty: len > max >= 2");
    let mut out: Vec<OccupancySample> = raw.into_iter().step_by(stride).collect();
    if out.last() != Some(&last) {
        out.push(last);
    }
    out
}

/// Maximum number of counter samples [`chrome_trace_json`] emits per
/// counter track, to keep exported files tractable.
const EXPORT_COUNTER_SAMPLES: usize = 1024;

/// Number of bins for the exported CAS-retry-rate counter track.
const EXPORT_RETRY_BINS: usize = 256;

/// Synthetic Chrome-trace thread id for the launch-lifecycle track (real SM
/// tracks use the SM id, which is far below this).
const LAUNCH_TRACK_TID: u32 = 1_000_000;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with sub-µs precision, the unit Chrome trace `ts`/`dur`
/// fields use.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Exports the trace as Chrome trace-event JSON (the "JSON array format"),
/// loadable in Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
///
/// Layout: one thread track per SM carrying complete (`"X"`) slices for
/// malloc/free operations and warp residency, a separate track for launch
/// spans, async (`"b"`/`"e"`) spans tying each successful allocation to its
/// free, and counter (`"C"`) tracks for live heap bytes, live allocation
/// count and CAS-retry rate. Instant (`"i"`) events mark OOM fallbacks and
/// sanitizer violations. Every event carries `ph`/`ts`/`pid`/`tid`.
pub fn chrome_trace_json(trace: &Trace, label: &str) -> String {
    let mut out = String::with_capacity(trace.events.len() * 128 + 1024);
    out.push_str("[\n");
    let mut first = true;
    let mut push = |line: String| {
        // Delimiting here keeps every emitter below a plain `push`.
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
        out.push(' ');
        out.push_str(&line);
    };

    push(format!(
        "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"gpumemsurvey trace: {}\"}}}}",
        json_escape(label)
    ));

    let mut sms: Vec<u32> = trace.events.iter().map(|e| e.sm).collect();
    sms.sort_unstable();
    sms.dedup();
    for &sm in &sms {
        push(format!(
            "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{sm},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"SM {sm}\"}}}}"
        ));
        push(format!(
            "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{sm},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{sm}}}}}"
        ));
    }
    push(format!(
        "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{LAUNCH_TRACK_TID},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"launches\"}}}}"
    ));

    // Open warp-dispatch and launch-begin events waiting for their close.
    let mut open_warps: HashMap<(u64, u64), u64> = HashMap::new();
    let mut open_launches: HashMap<u64, u64> = HashMap::new();
    // Successful allocations still live, for async alloc-lifetime spans:
    // ptr -> begin ts.
    let mut open_allocs: HashMap<u64, u64> = HashMap::new();

    for e in &trace.events {
        let sm = e.sm;
        match e.kind {
            EventKind::MallocEnd => {
                let latency = e.args[2];
                let start = e.ts_ns.saturating_sub(latency);
                let ok = e.args[0] != u64::MAX;
                push(format!(
                    "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{sm},\
                     \"cat\":\"malloc\",\"name\":\"{}\",\"args\":{{\"size\":{},\
                     \"retries\":{},\"ptr\":{}}}}}",
                    us(start),
                    us(latency),
                    if ok { "malloc" } else { "malloc (failed)" },
                    e.args[1],
                    e.args[3],
                    e.args[0]
                ));
                if ok && !open_allocs.contains_key(&e.args[0]) {
                    open_allocs.insert(e.args[0], e.ts_ns);
                    push(format!(
                        "{{\"ph\":\"b\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"cat\":\"alloc\",\
                         \"name\":\"allocation\",\"id\":\"{:#x}\",\
                         \"args\":{{\"size\":{}}}}}",
                        us(e.ts_ns),
                        e.args[0],
                        e.args[1]
                    ));
                }
            }
            EventKind::FreeEnd => {
                let latency = e.args[1];
                let start = e.ts_ns.saturating_sub(latency);
                push(format!(
                    "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{sm},\
                     \"cat\":\"free\",\"name\":\"free\",\"args\":{{\"ptr\":{},\
                     \"retries\":{},\"ok\":{}}}}}",
                    us(start),
                    us(latency),
                    e.args[0],
                    e.args[2],
                    e.args[3]
                ));
                if e.args[0] != u64::MAX
                    && e.args[3] == 1
                    && open_allocs.remove(&e.args[0]).is_some()
                {
                    push(format!(
                        "{{\"ph\":\"e\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"cat\":\"alloc\",\
                         \"name\":\"allocation\",\"id\":\"{:#x}\"}}",
                        us(e.ts_ns),
                        e.args[0]
                    ));
                }
            }
            EventKind::WarpDispatched => {
                open_warps.insert((e.args[1], e.args[0]), e.ts_ns);
            }
            EventKind::WarpRetired => {
                if let Some(t0) = open_warps.remove(&(e.args[1], e.args[0])) {
                    push(format!(
                        "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{sm},\
                         \"cat\":\"warp\",\"name\":\"warp {}\",\
                         \"args\":{{\"launch\":{}}}}}",
                        us(t0),
                        us(e.ts_ns.saturating_sub(t0)),
                        e.args[0],
                        e.args[1]
                    ));
                }
            }
            EventKind::LaunchBegin => {
                open_launches.insert(e.args[0], e.ts_ns);
            }
            EventKind::LaunchEnd => {
                if let Some(t0) = open_launches.remove(&e.args[0]) {
                    push(format!(
                        "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\
                         \"tid\":{LAUNCH_TRACK_TID},\"cat\":\"launch\",\
                         \"name\":\"launch {}\",\"args\":{{\"elapsed_ns\":{}}}}}",
                        us(t0),
                        us(e.ts_ns.saturating_sub(t0)),
                        e.args[0],
                        e.args[1]
                    ));
                }
            }
            EventKind::OomFallback => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"oom\",\"name\":\"oom_fallback\",\"args\":{{\"count\":{}}}}}",
                    us(e.ts_ns),
                    e.args[0]
                ));
            }
            EventKind::SanitizerViolation => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"sanitizer\",\"name\":\"violation\",\
                     \"args\":{{\"kind\":{},\"offset\":{},\"size\":{}}}}}",
                    us(e.ts_ns),
                    e.args[0],
                    e.args[1],
                    e.args[2]
                ));
            }
            EventKind::CacheHit => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"cache\",\"name\":\"cache_hit\",\
                     \"args\":{{\"class_size\":{},\"warp\":{}}}}}",
                    us(e.ts_ns),
                    e.args[1],
                    e.args[3]
                ));
            }
            EventKind::CacheFlush => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"cache\",\"name\":\"cache_flush\",\
                     \"args\":{{\"count\":{},\"class_size\":{}}}}}",
                    us(e.ts_ns),
                    e.args[0],
                    e.args[1]
                ));
            }
            EventKind::MallocBegin | EventKind::FreeBegin => {}
        }
    }

    // Counter track 1+2: heap occupancy replay.
    let occ = occupancy_timeline(trace, EXPORT_COUNTER_SAMPLES);
    for s in &occ.samples {
        push(format!(
            "{{\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"name\":\"heap occupancy\",\
             \"args\":{{\"live_bytes\":{},\"live_allocs\":{}}}}}",
            us(s.ts_ns),
            s.live_bytes,
            s.live_allocs
        ));
    }

    // Counter track 3: CAS-retry rate, binned over the trace span.
    if trace.span_ns() > 0 {
        let t0 = trace.events.first().expect("span > 0 implies events").ts_ns;
        let bin_ns = (trace.span_ns() / EXPORT_RETRY_BINS as u64).max(1);
        let mut bins = [0u64; EXPORT_RETRY_BINS];
        for e in &trace.events {
            let retries = match e.kind {
                EventKind::MallocEnd => e.args[3],
                EventKind::FreeEnd => e.args[2],
                _ => 0,
            };
            if retries > 0 {
                let bin = (((e.ts_ns - t0) / bin_ns) as usize).min(EXPORT_RETRY_BINS - 1);
                bins[bin] += retries;
            }
        }
        for (i, &n) in bins.iter().enumerate() {
            // Only emit non-empty bins and their edges to keep files small;
            // Perfetto draws steps between samples.
            let prev = i.checked_sub(1).map(|p| bins[p]).unwrap_or(0);
            if n != 0 || prev != 0 {
                push(format!(
                    "{{\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\
                     \"name\":\"cas retries\",\"args\":{{\"retries\":{n}}}}}",
                    us(t0 + i as u64 * bin_ns)
                ));
            }
        }
    }

    out.push_str("\n]\n");
    out
}

/// Validates `s` as Chrome trace-event JSON in the array format: a single
/// JSON array whose elements are objects each carrying `ph`, `ts`, `pid`
/// and `tid` keys. Returns the number of events.
///
/// This is a purpose-built structural checker (the workspace carries no
/// JSON dependency): it fully tokenizes the input, so malformed JSON —
/// not just missing keys — is rejected.
pub fn validate_chrome_json(s: &str) -> Result<usize, String> {
    let mut p = JsonParser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'[')?;
    let mut events = 0usize;
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let keys = p.object_keys()?;
            for required in ["ph", "ts", "pid", "tid"] {
                if !keys.iter().any(|k| k == required) {
                    return Err(format!("event {events} is missing required key \"{required}\""));
                }
            }
            events += 1;
            p.skip_ws();
            match p.next_byte()? {
                b',' => continue,
                b']' => break,
                c => return Err(format!("expected ',' or ']' after event, got '{}'", c as char)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing data after the top-level array".into());
    }
    Ok(events)
}

/// Minimal JSON tokenizer backing [`validate_chrome_json`].
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next_byte()? {
            b if b == want => Ok(()),
            b => Err(format!("expected '{}', got '{}'", want as char, b as char)),
        }
    }

    /// Parses an object, returning its top-level key names.
    fn object_keys(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.next_byte()? {
                b',' => continue,
                b'}' => return Ok(keys),
                c => return Err(format!("expected ',' or '}}' in object, got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.next_byte()? {
                b'\\' => {
                    self.next_byte()?;
                }
                b'"' => {
                    return String::from_utf8(self.bytes[start..self.pos - 1].to_vec())
                        .map_err(|_| "invalid UTF-8 in string".to_string());
                }
                _ => {}
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| "unexpected end of input".to_string())? {
            b'"' => self.string().map(|_| ()),
            b'{' => self.object_keys().map(|_| ()),
            b'[' => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    self.skip_ws();
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => return Ok(()),
                        c => {
                            return Err(format!(
                                "expected ',' or ']' in array, got '{}'",
                                c as char
                            ))
                        }
                    }
                }
            }
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => {
                while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
                    self.pos += 1;
                }
                Ok(())
            }
            c => Err(format!("unexpected character '{}'", c as char)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal, expected '{lit}'"))
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind, sm: u32, args: [u64; 4]) -> TraceEvent {
        TraceEvent { ts_ns: ts, kind, sm, args }
    }

    #[test]
    fn emit_and_snapshot_roundtrip() {
        let rec = TraceRecorder::new(4, 16);
        rec.emit_at(10, 1, EventKind::MallocBegin, [64, 7, 0, 0]);
        rec.emit_at(20, 1, EventKind::MallocEnd, [0x100, 64, 10, 3]);
        rec.emit_at(5, 2, EventKind::FreeBegin, [0x100, 7, 1, 0]);
        let t = rec.snapshot();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped, 0);
        // Sorted by timestamp.
        assert_eq!(t.events[0].kind, EventKind::FreeBegin);
        assert_eq!(t.events[0].sm, 2);
        assert_eq!(t.events[1], ev(10, EventKind::MallocBegin, 1, [64, 7, 0, 0]));
        assert_eq!(t.events[2].args, [0x100, 64, 10, 3]);
        assert_eq!(rec.recorded(), 3);
    }

    #[test]
    fn snapshot_since_returns_each_event_exactly_once() {
        let rec = TraceRecorder::new(4, 8);
        let mut cursors = Vec::new();

        rec.emit_at(10, 0, EventKind::MallocEnd, [0x100, 64, 5, 0]);
        rec.emit_at(20, 3, EventKind::MallocEnd, [0x200, 64, 5, 0]);
        let t1 = rec.snapshot_since(&mut cursors);
        assert_eq!(t1.len(), 2, "first drain sees everything committed so far");

        let t2 = rec.snapshot_since(&mut cursors);
        assert!(t2.events.is_empty(), "nothing new, nothing returned");

        rec.emit_at(30, 0, EventKind::FreeEnd, [0x100, 5, 0, 1]);
        let t3 = rec.snapshot_since(&mut cursors);
        assert_eq!(t3.len(), 1, "incremental drain sees only the new event");
        assert_eq!(t3.events[0].kind, EventKind::FreeEnd);

        // The incremental drains and a full snapshot agree on the stream.
        assert_eq!(rec.snapshot().len(), t1.len() + t3.len());

        // Cursors survive shard overflow: drop-newest never recycles slots,
        // so a full shard simply stops yielding.
        for i in 0..20 {
            rec.emit_at(40 + i, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        }
        let t4 = rec.snapshot_since(&mut cursors);
        assert_eq!(t4.len() as u64, rec.recorded() - 3, "drains exactly the committed tail");
        assert!(rec.snapshot_since(&mut cursors).events.is_empty());
        assert!(rec.dropped() > 0, "overflow counted, not replayed");
    }

    #[test]
    fn full_shard_drops_and_counts() {
        let rec = TraceRecorder::new(1, 4);
        for i in 0..10 {
            rec.emit_at(i, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        }
        assert_eq!(rec.recorded(), 4);
        assert_eq!(rec.dropped(), 6);
        let t = rec.snapshot();
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped, 6);
        // Drop-newest: the first four events survive.
        assert_eq!(t.events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    /// Test manager whose lane `i` gets offset `(i + 1) * 64`; every
    /// per-lane call notes `retries` CAS retries through the metrics bridge.
    struct LaneBump {
        heap: Arc<DeviceHeap>,
        m: Metrics,
        retries: u64,
    }

    impl DeviceAllocator for LaneBump {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("LaneBump").supports_free(true).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
            self.m.record_retries(ctx.sm, self.retries);
            Ok(DevicePtr::new((u64::from(ctx.lane) + 1) * 64))
        }
        fn free(&self, ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            self.m.record_retries(ctx.sm, self.retries);
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 1, free: 1 }
        }
        fn metrics(&self) -> Metrics {
            self.m.clone()
        }
    }

    fn lane_bump(rec: &Arc<TraceRecorder>, retries: u64) -> Traced<LaneBump> {
        let m = Metrics::enabled(1).with_tracer(Arc::clone(rec));
        let heap = Arc::new(DeviceHeap::new(4096));
        Traced::new(LaneBump { heap, m, retries }, Arc::clone(rec))
    }

    const WARP0: WarpCtx = WarpCtx { warp: 0, block: 0, sm: 0 };

    fn of_kind(t: &Trace, kind: EventKind) -> Vec<TraceEvent> {
        t.events.iter().filter(|e| e.kind == kind).copied().collect()
    }

    #[test]
    fn warp_malloc_batch_keeps_the_lowest_lanes_when_the_ring_fills() {
        // The MallocBegin takes slot 0 of 11, so the 32-lane batch of
        // MallocEnds finds exactly 10 free slots.
        let rec = Arc::new(TraceRecorder::new(1, 11));
        let traced = lane_bump(&rec, 2);
        let mut out = [DevicePtr::NULL; 32];
        traced.malloc_warp(&WARP0, &[16; 32], &mut out).unwrap();

        let t = rec.snapshot();
        let ends = of_kind(&t, EventKind::MallocEnd);
        assert_eq!(ends.len(), 10, "only the free slots are written");
        for (lane, e) in ends.iter().enumerate() {
            let retries = if lane == 0 { 2 * 32 } else { 0 };
            assert_eq!(e.args, [out[lane].raw(), 16, ends[0].args[2], retries], "lane {lane}");
        }
        assert_eq!(rec.dropped(), 22, "the 22 higher lanes are counted, not written");
        assert_eq!((t.dropped, rec.recorded()), (22, 11));
    }

    #[test]
    fn warp_free_batch_covers_live_lanes_only() {
        let rec = Arc::new(TraceRecorder::new(1, 64));
        let traced = lane_bump(&rec, 3);
        let live = [1usize, 4, 5, 31];
        let mut ptrs = [DevicePtr::NULL; 32];
        for lane in live {
            ptrs[lane] = DevicePtr::new((lane as u64 + 1) * 64);
        }
        traced.free_warp(&WARP0, &ptrs).unwrap();

        let t = rec.snapshot();
        assert_eq!(of_kind(&t, EventKind::FreeBegin)[0].args[2], 4, "live lane count");
        let ends = of_kind(&t, EventKind::FreeEnd);
        let got: Vec<u64> = ends.iter().map(|e| e.args[0]).collect();
        assert_eq!(got, live.map(|lane| ptrs[lane].raw()), "one FreeEnd per live lane, in order");
        let retries: Vec<u64> = ends.iter().map(|e| e.args[2]).collect();
        assert_eq!(retries, [4 * 3, 0, 0, 0], "retries ride the first live lane only");
        assert!(ends.iter().all(|e| e.args[3] == 1 && e.args[1] == ends[0].args[1]));
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn one_event_batch_writes_the_same_slot_as_emit_at() {
        let raw = |r: &TraceRecorder| -> Vec<u64> {
            r.shards
                .iter()
                .flat_map(|s| {
                    let cursors = [&s.claimed, &s.committed].map(|c| c.load(Ordering::Relaxed));
                    let words = s.slots.iter().flat_map(|slot| &slot.words);
                    cursors.into_iter().chain(words.map(|w| w.load(Ordering::Relaxed)))
                })
                .collect()
        };
        let (single, batch) = (TraceRecorder::new(2, 4), TraceRecorder::new(2, 4));
        single.emit_at(77, 3, EventKind::CacheFlush, [1, 2, 3, 4]);
        batch.emit_batch_at(77, 3, EventKind::CacheFlush, 1, [[1, 2, 3, 4]]);
        assert_eq!(raw(&single), raw(&batch));
        assert!(raw(&batch).contains(&((EventKind::CacheFlush.tag() << 32) | 3)));
    }

    #[test]
    fn sm_ids_fold_into_shards() {
        let rec = TraceRecorder::new(4, 8);
        // SM 5 folds into shard 1 (mask 3) but the event keeps its real id.
        rec.emit_at(1, 5, EventKind::WarpDispatched, [9, 0, 0, 0]);
        let t = rec.snapshot();
        assert_eq!(t.events[0].sm, 5);
    }

    #[test]
    fn concurrent_emitters_lose_nothing_within_capacity() {
        let rec = Arc::new(TraceRecorder::new(8, 4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        rec.emit(t as u32, EventKind::MallocEnd, [i, t, 1, 0]);
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let t = rec.snapshot();
        assert_eq!(t.len(), 4000);
        assert_eq!(t.dropped, 0);
        for sm in 0..4u64 {
            let seen: Vec<u64> =
                t.events.iter().filter(|e| e.args[1] == sm).map(|e| e.args[0]).collect();
            assert_eq!(seen.len(), 1000, "sm {sm} lost events");
        }
    }

    #[test]
    fn launch_ids_are_unique() {
        let rec = TraceRecorder::new(1, 4);
        assert_eq!(rec.next_launch_id(), 0);
        assert_eq!(rec.next_launch_id(), 1);
        assert_eq!(rec.next_launch_id(), 2);
    }

    #[test]
    fn event_kind_tags_roundtrip() {
        for kind in ALL_EVENT_KINDS {
            assert_eq!(EventKind::from_tag(kind.tag() as u32), Some(kind), "{}", kind.name());
        }
        assert_eq!(EventKind::from_tag(0), None, "tag 0 is reserved for unwritten slots");
        assert_eq!(EventKind::from_tag(EVENT_KINDS as u32 + 1), None);
    }

    #[test]
    fn histogram_percentiles_hand_computed() {
        let mut h = LatencyHistogram::new();
        // 90 samples in [16,32), 9 in [1024,2048), 1 at 1 << 20.
        for _ in 0..90 {
            h.record(20);
        }
        for _ in 0..9 {
            h.record(1500);
        }
        h.record(1 << 20);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 31); // upper bound of [16,32)
        assert_eq!(h.p95(), 2047); // rank 95 falls in [1024,2048)
        assert_eq!(h.p99(), 2047);
        assert_eq!(h.percentile(100.0), 1 << 20); // capped at observed max
        assert_eq!(h.max_ns(), 1 << 20);
        assert_eq!(h.mean_ns(), (90 * 20 + 9 * 1500 + (1 << 20)) / 100);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let mut h = LatencyHistogram::new();
        h.record(1);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 1);
        // Non-empty histograms never report 0, even for clamped samples.
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.p50(), 1);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 1..=100u64 {
            if i % 2 == 0 {
                a.record(i * 10)
            } else {
                b.record(i * 10)
            }
            both.record(i * 10);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.p50(), both.p50());
        assert_eq!(a.p99(), both.p99());
        assert_eq!(a.max_ns(), both.max_ns());
    }

    #[test]
    fn op_latencies_split_malloc_and_free() {
        let t = Trace {
            events: vec![
                ev(10, EventKind::MallocEnd, 0, [0x40, 64, 100, 0]),
                ev(20, EventKind::MallocEnd, 0, [u64::MAX, 64, 900, 2]),
                ev(30, EventKind::FreeEnd, 0, [0x40, 50, 0, 1]),
                ev(40, EventKind::WarpRetired, 0, [0, 0, 0, 0]),
            ],
            dropped: 0,
            events_per_sm: 16,
        };
        let lat = OpLatencies::from_trace(&t);
        assert_eq!(lat.malloc.count(), 2);
        assert_eq!(lat.free.count(), 1);
        assert_eq!(lat.malloc.max_ns(), 900);
        assert_eq!(lat.free.max_ns(), 50);
    }

    #[test]
    fn occupancy_replay_tracks_live_bytes_and_range() {
        let t = Trace {
            events: vec![
                ev(10, EventKind::MallocEnd, 0, [0, 100, 5, 0]),
                ev(20, EventKind::MallocEnd, 0, [100, 50, 5, 0]),
                ev(30, EventKind::FreeEnd, 0, [0, 5, 0, 1]),
                // Failed free: stays live.
                ev(40, EventKind::FreeEnd, 0, [100, 5, 0, 0]),
                // Unknown pointer.
                ev(50, EventKind::FreeEnd, 0, [9999, 5, 0, 1]),
                // Failed malloc: ignored.
                ev(60, EventKind::MallocEnd, 0, [u64::MAX, 64, 5, 0]),
            ],
            dropped: 0,
            events_per_sm: 64,
        };
        let occ = occupancy_timeline(&t, 1000);
        assert_eq!(occ.peak_live_bytes, 150);
        assert_eq!(occ.peak_live_allocs, 2);
        assert_eq!(occ.unmatched_frees, 1);
        let last = occ.samples.last().unwrap();
        assert_eq!(last.live_bytes, 50);
        assert_eq!(last.live_allocs, 1);
        // Allocations covered [0,100) and [100,150) -> span 150.
        assert_eq!(occ.address_range.range(), 150);
        assert_eq!(occ.address_range.count(), 2);
    }

    #[test]
    fn occupancy_decimation_keeps_last_sample() {
        let events: Vec<TraceEvent> =
            (0..100).map(|i| ev(i, EventKind::MallocEnd, 0, [i * 64, 64, 5, 0])).collect();
        let t = Trace { events, dropped: 0, events_per_sm: 256 };
        let occ = occupancy_timeline(&t, 10);
        assert!(occ.samples.len() <= 11, "got {}", occ.samples.len());
        assert_eq!(occ.samples.last().unwrap().live_allocs, 100);
        assert_eq!(occ.peak_live_bytes, 6400);
    }

    #[test]
    fn chrome_export_validates_and_carries_tracks() {
        let t = Trace {
            events: vec![
                ev(1000, EventKind::LaunchBegin, 0, [0, 64, 2, 0]),
                ev(1100, EventKind::WarpDispatched, 1, [0, 0, 0, 0]),
                ev(1200, EventKind::MallocEnd, 1, [0x80, 64, 100, 7]),
                ev(1300, EventKind::FreeEnd, 1, [0x80, 50, 1, 1]),
                ev(1400, EventKind::WarpRetired, 1, [0, 0, 0, 0]),
                ev(1500, EventKind::OomFallback, 1, [1, 0, 0, 0]),
                ev(1600, EventKind::SanitizerViolation, 2, [3, 64, 16, 0]),
                ev(1700, EventKind::LaunchEnd, 0, [0, 700, 0, 0]),
            ],
            dropped: 0,
            events_per_sm: 64,
        };
        let json = chrome_trace_json(&t, "test \"quoted\" label");
        let n = validate_chrome_json(&json).expect("export must be valid");
        assert!(n >= 8, "expected metadata + events, got {n}");
        for needle in [
            "\"ph\":\"X\"",
            "\"ph\":\"M\"",
            "\"ph\":\"C\"",
            "\"ph\":\"b\"",
            "\"ph\":\"e\"",
            "\"ph\":\"i\"",
            "thread_name",
            "heap occupancy",
            "cas retries",
            "launches",
            "test \\\"quoted\\\" label",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn chrome_export_of_empty_trace_is_valid() {
        let json = chrome_trace_json(&Trace::default(), "empty");
        let n = validate_chrome_json(&json).expect("valid");
        assert!(n >= 1, "metadata events expected");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("{}").is_err(), "top level must be an array");
        assert!(validate_chrome_json("[{\"ph\":\"X\"}]").is_err(), "missing ts/pid/tid");
        assert!(
            validate_chrome_json("[{\"ph\":\"X\",\"ts\":1,\"pid\":0,\"tid\":0}").is_err(),
            "unterminated array"
        );
        assert!(
            validate_chrome_json("[{\"ph\":\"X\",\"ts\":1,\"pid\":0,\"tid\":0}]x").is_err(),
            "trailing garbage"
        );
        assert_eq!(
            validate_chrome_json(
                "[{\"ph\":\"X\",\"ts\":1.5,\"pid\":0,\"tid\":0,\"args\":{\"a\":[1,null,true]}}]"
            ),
            Ok(1)
        );
        assert_eq!(validate_chrome_json("[]"), Ok(0));
    }

    #[test]
    fn retry_accumulator_is_per_thread() {
        begin_op_scope();
        note_op_retries(5);
        note_op_retries(2);
        let h = std::thread::spawn(|| {
            begin_op_scope();
            note_op_retries(100);
            end_op_scope()
        });
        assert_eq!(h.join().unwrap(), 100);
        assert_eq!(end_op_scope(), 7);
        assert_eq!(end_op_scope(), 0, "empty stack drains to zero");
    }

    #[test]
    fn retries_outside_any_scope_are_dropped() {
        note_op_retries(9);
        begin_op_scope();
        assert_eq!(end_op_scope(), 0, "orphan retries must not leak into the next op");
    }

    #[test]
    fn nested_scopes_attribute_retries_per_layer() {
        begin_op_scope(); // outer wrapper's operation
        note_op_retries(2); // middle layer's own retries
        begin_op_scope(); // inner wrapper's operation
        note_op_retries(3); // innermost manager's retries
        assert_eq!(end_op_scope(), 3, "inner op sees only its own retries");
        assert_eq!(end_op_scope(), 2, "outer op keeps the middle layer's retries");
    }

    /// Regression test for the nested-decorator retry bridge: in
    /// `Traced<Middle<Traced<Inner>>>` the outer `MallocEnd` must carry
    /// only the middle layer's retries (2) and the inner `MallocEnd` only
    /// the innermost manager's (3) — with a single shared accumulator the
    /// inner wrapper's clear-on-begin destroyed the middle layer's count
    /// and its drain misattributed the total.
    #[test]
    fn nested_traced_wrappers_scope_retries_per_layer() {
        struct Inner {
            heap: Arc<DeviceHeap>,
            m: Metrics,
        }
        impl DeviceAllocator for Inner {
            fn info(&self) -> ManagerInfo {
                ManagerInfo::builder("Inner").supports_free(true).build()
            }
            fn heap(&self) -> &DeviceHeap {
                &self.heap
            }
            fn malloc(&self, ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
                self.m.record_retries(ctx.sm, 3);
                Ok(DevicePtr::new(0))
            }
            fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
                Ok(())
            }
            fn register_footprint(&self) -> RegisterFootprint {
                RegisterFootprint { malloc: 1, free: 1 }
            }
            fn metrics(&self) -> Metrics {
                self.m.clone()
            }
        }

        struct Middle<A> {
            inner: A,
            m: Metrics,
        }
        impl<A: DeviceAllocator> DeviceAllocator for Middle<A> {
            fn info(&self) -> ManagerInfo {
                self.inner.info()
            }
            fn heap(&self) -> &DeviceHeap {
                self.inner.heap()
            }
            fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
                // The middle layer burns retries of its own (e.g. magazine
                // CAS contention) before delegating.
                self.m.record_retries(ctx.sm, 2);
                self.inner.malloc(ctx, size)
            }
            fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
                self.inner.free(ctx, ptr)
            }
            fn register_footprint(&self) -> RegisterFootprint {
                self.inner.register_footprint()
            }
            fn metrics(&self) -> Metrics {
                self.inner.metrics()
            }
        }

        let rec = Arc::new(TraceRecorder::new(1, 16));
        let m = Metrics::enabled(1).with_tracer(Arc::clone(&rec));
        let inner = Inner { heap: Arc::new(DeviceHeap::new(4096)), m: m.clone() };
        let stack = Traced::new(
            Middle { inner: Traced::new(inner, Arc::clone(&rec)), m: m.relay() },
            Arc::clone(&rec),
        );

        let ctx = ThreadCtx::host();
        stack.malloc(&ctx, 64).unwrap();

        let trace = rec.snapshot();
        let retries: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::MallocEnd)
            .map(|e| e.args[3])
            .collect();
        // Events sort by timestamp: the inner wrapper's end precedes the
        // outer's.
        assert_eq!(retries, vec![3, 2], "inner op keeps 3, outer op keeps 2");
        let total: u64 = retries.iter().sum();
        assert_eq!(total, 5, "no retry double-counted or lost across layers");
    }
}

// Loom model of the claim/commit publication protocol: a batch claim that
// straddles the ring's capacity races a single `emit_at` and a reader.
// Every slot the reader observes must decode to a fully written event
// (never the reserved zero tag, never a half-written payload), the
// incremental drain must never hand out a slot twice, and once the writers
// are done every emitted event is either recorded or counted as dropped.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    /// Checks `ev` is one of the model's events, written whole: the batch
    /// writes `MallocEnd`s at ts 1 with payloads `[10 + i; 4]`, the single
    /// writer a `FreeEnd` at ts 2 with payload `[20; 4]`.
    fn assert_whole(ev: &TraceEvent) {
        assert_eq!(ev.args, [ev.args[0]; 4], "torn payload {ev:?}");
        match ev.kind {
            EventKind::MallocEnd => assert!(ev.ts_ns == 1 && (10..13).contains(&ev.args[0])),
            EventKind::FreeEnd => assert!(ev.ts_ns == 2 && ev.args[0] == 20),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn loom_claim_commit_publishes_whole_slots() {
        crate::sync::model(|| {
            // Two slots for four events: the three-event batch overflows
            // whichever writer claims first.
            let rec = Arc::new(TraceRecorder::new(1, 2));
            let batch = {
                let rec = Arc::clone(&rec);
                crate::sync::thread::spawn(move || {
                    let args = (10..13u64).map(|v| [v; 4]);
                    rec.emit_batch_at(1, 0, EventKind::MallocEnd, 3, args);
                })
            };
            let single = {
                let rec = Arc::clone(&rec);
                crate::sync::thread::spawn(move || {
                    rec.emit_at(2, 0, EventKind::FreeEnd, [20; 4]);
                })
            };
            // Drain while the writers may still be mid-protocol: whatever
            // is visible must decode whole (the reserved zero tag shields
            // unpublished slots), and the cursor must resume after it.
            let mut cursors = Vec::new();
            let mut seen = rec.snapshot_since(&mut cursors).events;
            for w in [batch, single] {
                w.join().unwrap();
                seen.extend(rec.snapshot_since(&mut cursors).events);
            }
            for ev in &seen {
                assert_whole(ev);
            }
            let mut ids: Vec<u64> = seen.iter().map(|e| e.args[0]).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), seen.len(), "a slot was drained twice: {seen:?}");
            assert_eq!(seen.len(), 2, "the drains together cover the whole ring");
            assert_eq!(rec.recorded() + rec.dropped(), 4, "every emitted event is accounted for");
            let done = rec.snapshot();
            assert_eq!((done.len(), done.dropped), (2, 2));
            done.events.iter().for_each(assert_whole);
        });
    }
}
