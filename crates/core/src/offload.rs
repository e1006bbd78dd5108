//! The infinity offload engine: placement-aware offloaded buffers.
//!
//! A [`PlacedBuf`] is one tensor's worth of bytes — a parameter shard, a
//! gradient, an optimizer-state shard or an activation checkpoint — kept
//! as one or more segments, each resident on one memory tier. GPU and CPU
//! segments hold their bytes in process memory and charge the
//! corresponding capacity pool; NVMe segments own an extent of the backing
//! device and move bytes through the asynchronous [`zi_nvme::NvmeEngine`].
//! Every NVMe transfer checks a staging buffer out of the pinned pool while
//! it is submitted, bounding staging memory the way the paper's
//! pinned-memory management layer does (Sec. 6.3).

use std::collections::{BTreeMap, VecDeque};
use zi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zi_sync::Arc;

use zi_sync::Mutex;
use zi_comm::{CommConfig, CommGroup};
use zi_memory::{
    Block, MemoryHierarchy, NodeMemorySpec, PathKind, PinnedBufferPool, PlacementPolicy,
};
use zi_nvme::{checksum::crc32, MemBackend, NvmeEngine, RetryPolicy, StorageBackend, Ticket};
use zi_tensor::FlatBuffer;
use zi_trace::{Category, Counter, Tracer};
use zi_types::{DType, Device, DeviceKind, Error, Result, WorldSize};

/// Re-reads attempted when a checksum mismatch is detected before the
/// corruption is surfaced as [`Error::Corruption`].
const CORRUPTION_REREADS: u32 = 3;

/// Node-shared resilience state: the shard-checksum registry and the
/// NVMe→CPU degradation latch. Shared by every [`OffloadManager`] clone
/// on the node (they share the device, so they must share its health).
#[derive(Default)]
struct ResilienceState {
    /// CRC32 per written NVMe extent, keyed by device offset. Extents
    /// never overlap (each records the latest write covering exactly
    /// that range; overlapping older extents are invalidated).
    checksums: Mutex<BTreeMap<u64, (u64, u32)>>,
    /// Once set, new NVMe stores are transparently placed on CPU.
    degraded: AtomicBool,
    /// Stores redirected NVMe→CPU.
    failovers: AtomicU64,
    /// Checksum mismatches that a re-read repaired.
    corruptions_recovered: AtomicU64,
    /// Checksum mismatches that re-reads could not repair.
    corruptions_unrecovered: AtomicU64,
}

impl ResilienceState {
    /// Record the checksum of a just-written extent, invalidating any
    /// previously recorded extent it overlaps.
    fn record(&self, offset: u64, data: &[u8]) {
        let mut map = self.checksums.lock();
        Self::invalidate_locked(&mut map, offset, data.len() as u64);
        map.insert(offset, (data.len() as u64, crc32(data)));
    }

    /// Forget checksums overlapping `[offset, offset + len)`.
    fn invalidate(&self, offset: u64, len: u64) {
        Self::invalidate_locked(&mut self.checksums.lock(), offset, len);
    }

    fn invalidate_locked(map: &mut BTreeMap<u64, (u64, u32)>, offset: u64, len: u64) {
        let end = offset + len;
        // One extent may start before `offset` and reach into the range;
        // stored extents are disjoint, so it is the only such candidate.
        let before = map
            .range(..offset)
            .next_back()
            .filter(|(start, (elen, _))| *start + elen > offset)
            .map(|(start, _)| *start);
        if let Some(start) = before {
            map.remove(&start);
        }
        let inside: Vec<u64> = map.range(offset..end).map(|(start, _)| *start).collect();
        for start in inside {
            map.remove(&start);
        }
    }

    /// Latch the degradation flag, counting the first transition.
    fn latch_degraded(&self, tracer: &Tracer) {
        if !self.degraded.swap(true, Ordering::Release) {
            tracer.count(Counter::DegradedTransitions, 1);
        }
    }

    /// Checksum recorded for exactly the extent `[offset, offset+len)`,
    /// if any. Reads of sub-ranges are not verified (no recorded CRC
    /// covers them exactly).
    fn lookup(&self, offset: u64, len: u64) -> Option<u32> {
        self.checksums
            .lock()
            .get(&offset)
            .filter(|(elen, _)| *elen == len)
            .map(|(_, crc)| *crc)
    }
}

/// Health snapshot of a node's offload path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadHealth {
    /// True once NVMe stores are being redirected to CPU memory.
    pub degraded: bool,
    /// Number of stores redirected NVMe→CPU.
    pub failovers: u64,
    /// Checksum mismatches repaired by re-reading the device.
    pub corruptions_recovered: u64,
    /// Checksum mismatches that survived every re-read.
    pub corruptions_unrecovered: u64,
    /// NVMe engine counters, including per-request `retries` and
    /// `gave_up` from the retry layer.
    pub io: zi_nvme::IoStats,
}

/// Shared per-node resources: memory pools, the NVMe engine, the pinned
/// staging pool, and the communicator group.
pub struct NodeResources {
    /// Capacity pools for every device tier.
    pub hierarchy: Arc<MemoryHierarchy>,
    /// Asynchronous NVMe engine (shared by all ranks on the node).
    pub nvme: Arc<NvmeEngine>,
    /// Pinned staging buffers for NVMe transfers.
    pub pinned: PinnedBufferPool,
    /// Data-parallel communicator group.
    pub group: CommGroup,
    /// Shared checksum registry and degradation latch.
    resilience: Arc<ResilienceState>,
    /// Node-wide tracer; the NVMe engine, pinned pool, comm group and
    /// every [`OffloadManager`] clone record into the same stream.
    tracer: Tracer,
}

/// Default pinned staging buffer size (bytes).
const PINNED_BUF_BYTES: usize = 1 << 20;
/// Default number of pinned staging buffers.
const PINNED_BUF_COUNT: usize = 8;
/// Default NVMe worker threads.
const NVME_WORKERS: usize = 4;

impl NodeResources {
    /// Node with an in-memory NVMe device (deterministic tests).
    pub fn in_memory(spec: &NodeMemorySpec, world: WorldSize) -> Self {
        let backend = Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>;
        Self::with_backend(spec, world, backend)
    }

    /// Node over an explicit storage backend, with the default NVMe
    /// retry policy and communicator configuration and its own tracer.
    pub fn with_backend(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
    ) -> Self {
        Self::with_backend_policy_comm_tracer(
            spec,
            world,
            backend,
            RetryPolicy::default(),
            CommConfig::default(),
            Tracer::new(),
        )
    }

    /// Node over an explicit storage backend, NVMe retry policy (chaos
    /// tests shorten the backoffs) and communicator configuration
    /// (collective deadline, comm fault plan, elastic membership),
    /// recording every subsystem's spans and counters into an externally
    /// owned tracer — the trainer passes one tracer here so a whole node
    /// (engine workers, pinned pool, collectives, all ranks) shares a
    /// single event stream.
    pub fn with_backend_policy_comm_tracer(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
        tracer: Tracer,
    ) -> Self {
        NodeResources {
            hierarchy: Arc::new(MemoryHierarchy::new(spec)),
            nvme: Arc::new(NvmeEngine::with_policy_tracer(
                backend,
                NVME_WORKERS,
                policy,
                tracer.clone(),
            )),
            pinned: PinnedBufferPool::with_tracer(
                PINNED_BUF_COUNT,
                PINNED_BUF_BYTES,
                tracer.clone(),
            ),
            group: CommGroup::with_config_tracer(world, comm, tracer.clone()),
            resilience: Arc::new(ResilienceState::default()),
            tracer,
        }
    }

    /// The node-wide tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Start (or force) this node into degraded mode: every NVMe store
    /// is placed on CPU instead. Used when restarting after a device
    /// death — the replacement run must not trust the dead device.
    /// Engines collapse their split optimizer shards to CPU at their next
    /// step.
    pub fn degrade(&self) {
        self.resilience.latch_degraded(&self.tracer);
    }

    /// A per-rank offload manager handle.
    pub fn offload_manager(&self) -> OffloadManager {
        OffloadManager {
            hierarchy: Arc::clone(&self.hierarchy),
            nvme: Arc::clone(&self.nvme),
            pinned: self.pinned.clone(),
            resilience: Arc::clone(&self.resilience),
            tracer: self.tracer.clone(),
        }
    }
}

/// One contiguous piece of a [`PlacedBuf`], resident on one device.
#[derive(Debug)]
struct Segment {
    /// First buffer element this segment covers.
    start: usize,
    /// Elements in this segment.
    len: usize,
    device: Device,
    block: Block,
    /// The bytes of a GPU/CPU segment; `None` when they live on the NVMe
    /// device.
    ram: Option<FlatBuffer>,
}

impl Segment {
    /// One past the last buffer element this segment covers.
    fn end(&self) -> usize {
        self.start + self.len
    }

    /// The path the segment currently resolves through. A segment
    /// *planned* for NVMe reports [`PathKind::Cpu`] after a failover
    /// moved its bytes to DRAM — readers care where the bytes are, not
    /// where the plan wanted them.
    fn path(&self) -> PathKind {
        match self.ram {
            Some(_) => PathKind::Cpu,
            None => PathKind::Nvme,
        }
    }
}

/// One logical tensor stored under a placement plan: an ordered,
/// disjoint, exhaustive list of segments, each resident on one tier.
///
/// A single-tier store is the one-segment case. An NVMe-tier store under
/// a split [`PlacementPolicy`] places part of the buffer in CPU DRAM (the
/// cp path) and the rest on NVMe (the nc path), interleaved at the
/// policy's stripe, and every ranged operation fans out across the
/// segments it touches — so a streamed pass drives both paths
/// concurrently.
#[derive(Debug)]
pub struct PlacedBuf {
    dtype: DType,
    numel: usize,
    /// The policy the buffer was stored under; `None` for single-tier
    /// stores (parameters, gradients, activations).
    policy: Option<PlacementPolicy>,
    segments: Vec<Segment>,
}

impl PlacedBuf {
    /// Number of elements across all segments.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// The placement policy the buffer was last stored under, if any.
    /// Only policy-placed buffers (optimizer state) account their DRAM
    /// traffic on the cp hop.
    pub fn policy(&self) -> Option<PlacementPolicy> {
        self.policy
    }

    /// Elements currently resolving through `path`.
    pub fn elems_on(&self, path: PathKind) -> usize {
        self.segments.iter().filter(|s| s.path() == path).map(|s| s.len).sum()
    }

    /// True when the buffer is split across both paths.
    pub fn is_split(&self) -> bool {
        self.elems_on(PathKind::Nvme) > 0 && self.elems_on(PathKind::Cpu) > 0
    }

    /// True when any part of the buffer lives on the NVMe device (loading
    /// it costs an nc-transfer).
    pub fn is_offloaded(&self) -> bool {
        self.segments.iter().any(|s| s.ram.is_none())
    }

    /// Reject `[start, start + len)` unless it lies inside the buffer.
    fn check_range(&self, op: &str, start: usize, len: usize) -> Result<usize> {
        match start.checked_add(len) {
            Some(end) if end <= self.numel => Ok(end),
            _ => Err(Error::shape(format!(
                "{op} [{start}, +{len}) out of buffer of {} elements",
                self.numel
            ))),
        }
    }

    /// Indices of the segments overlapping elements `[start, end)`.
    fn overlapping(&self, start: usize, end: usize) -> std::ops::Range<usize> {
        let first = self.segments.partition_point(|s| s.end() <= start);
        let last = self.segments.partition_point(|s| s.start < end);
        first..last.max(first)
    }
}

/// One segment's share of a [`PendingRead`].
enum Part {
    /// Bytes already in hand (a GPU/CPU segment).
    Ready(FlatBuffer),
    /// An NVMe read in flight and the device extent it covers (for
    /// verification).
    Nvme(Ticket, u64, usize),
}

impl Part {
    /// Block until the bytes are available. NVMe reads are verified
    /// against the checksum recorded at store time; a mismatch triggers
    /// synchronous re-reads before surfacing [`Error::Corruption`], so a
    /// prefetched buffer is never silently poisoned.
    fn wait(self, mgr: &OffloadManager, dtype: DType) -> Result<FlatBuffer> {
        match self {
            Part::Ready(buf) => Ok(buf),
            Part::Nvme(ticket, offset, len) => {
                let bytes = mgr
                    .nvme
                    .wait(ticket)?
                    .ok_or_else(|| Error::Internal("read ticket returned no data".into()))?;
                FlatBuffer::from_bytes(dtype, mgr.verify_or_reread(offset, len, bytes)?)
            }
        }
    }
}

/// A ranged load in flight: one part per touched segment, in range order.
/// DRAM parts resolve immediately; NVMe parts stay queued on the device —
/// so waiting overlaps exactly the nc share of the range.
///
/// The pinned staging buffer is held only while each request is being
/// submitted, never across the life of the pending load — holding it
/// longer can deadlock ranks that block inside collectives while a
/// sibling rank waits for staging (the pinned pool is a node-shared
/// resource).
pub struct PendingRead {
    dtype: DType,
    len: usize,
    /// `(offset within the requested range, part)`, in range order.
    parts: Vec<(usize, Part)>,
}

impl PendingRead {
    /// Block until every part landed and assemble the range. Every part
    /// is waited even after one fails, so no outcome is left behind in
    /// the NVMe completion map; the first error wins.
    pub fn wait(mut self, mgr: &OffloadManager) -> Result<FlatBuffer> {
        if self.parts.len() == 1 {
            let Some((_, part)) = self.parts.pop() else {
                return Err(Error::Internal("one-part read lost its part".into()));
            };
            return part.wait(mgr, self.dtype);
        }
        let mut bytes = vec![0u8; self.dtype.bytes_for(self.len)];
        let mut first_err = None;
        for (off, part) in self.parts {
            match part.wait(mgr, self.dtype) {
                Ok(fb) => {
                    let lo = self.dtype.bytes_for(off);
                    bytes[lo..lo + fb.size_in_bytes()].copy_from_slice(fb.as_bytes());
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => FlatBuffer::from_bytes(self.dtype, bytes),
        }
    }

    /// True if any part still has an outstanding NVMe request.
    pub fn is_async(&self) -> bool {
        self.parts.iter().any(|(_, p)| matches!(p, Part::Nvme(..)))
    }

    /// True once every part is available without blocking: each NVMe
    /// read completed (successfully or not). The prefetcher uses this to
    /// tell a timely hit from a late one.
    pub fn ready(&self, mgr: &OffloadManager) -> bool {
        self.parts.iter().all(|(_, p)| match p {
            Part::Ready(_) => true,
            Part::Nvme(ticket, ..) => mgr.nvme.is_ready(*ticket),
        })
    }
}

/// Handle for storing/loading tensors on any tier.
#[derive(Clone)]
pub struct OffloadManager {
    hierarchy: Arc<MemoryHierarchy>,
    nvme: Arc<NvmeEngine>,
    pinned: PinnedBufferPool,
    resilience: Arc<ResilienceState>,
    tracer: Tracer,
}

impl OffloadManager {
    /// Capacity pools (for stats and fragmentation experiments).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// The NVMe engine (for stats).
    pub fn nvme(&self) -> &NvmeEngine {
        &self.nvme
    }

    /// The pinned staging pool.
    pub fn pinned(&self) -> &PinnedBufferPool {
        &self.pinned
    }

    /// The node-wide tracer this manager records into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True once NVMe stores are redirected to CPU — either because a
    /// request exhausted its retry budget (the engine latched device
    /// death) or because the node was explicitly degraded.
    pub fn is_degraded(&self) -> bool {
        self.resilience.degraded.load(Ordering::Acquire) || self.nvme.device_failed()
    }

    /// Health snapshot: degradation state, failover and corruption
    /// counters.
    pub fn health(&self) -> OffloadHealth {
        OffloadHealth {
            degraded: self.is_degraded(),
            failovers: self.resilience.failovers.load(Ordering::Relaxed),
            corruptions_recovered: self.resilience.corruptions_recovered.load(Ordering::Relaxed),
            corruptions_unrecovered: self
                .resilience
                .corruptions_unrecovered
                .load(Ordering::Relaxed),
            io: self.nvme.stats(),
        }
    }

    /// Count one NVMe→CPU failover, latching the node degraded.
    fn fail_over(&self) {
        self.resilience.latch_degraded(&self.tracer);
        self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Open a cp-hop span over `bytes` of DRAM traffic starting at buffer
    /// element `id`, and count them under `counter` — but only for a DRAM
    /// segment of a policy-placed buffer. Only optimizer state is
    /// policy-placed, so parameter, gradient and activation traffic stays
    /// off the cp hop whose bytes feed the adaptive bandwidth hint.
    fn cp_hop(
        &self,
        placed: bool,
        path: PathKind,
        name: &'static str,
        counter: Counter,
        bytes: usize,
        id: usize,
    ) -> Option<zi_trace::Span<'_>> {
        if !placed || path != PathKind::Cpu {
            return None;
        }
        self.tracer.count(counter, bytes as u64);
        let mut span = self.tracer.span(Category::CpTransfer, name);
        span.set_bytes(bytes as u64);
        span.set_id(id as u64);
        Some(span)
    }

    /// Store `data` on `device`, under `policy` when given.
    ///
    /// Only NVMe-tier stores split: the policy decides what fraction of
    /// the buffer stays in CPU DRAM (interleaved at the policy's stripe),
    /// and the rest goes to the device; without a policy the whole buffer
    /// goes to the device. GPU/CPU-tier stores are always one segment.
    ///
    /// NVMe stores degrade gracefully. A degraded node collapses the plan
    /// to one CPU segment up front, counting one failover if the plan had
    /// NVMe elements; an NVMe segment whose write dies mid-store fails
    /// over *alone*, counting one, while the other segments keep their
    /// placement. Training slows down (the paper's NVMe capacity win is
    /// lost) but does not abort.
    pub fn store(
        &self,
        device: Device,
        policy: Option<PlacementPolicy>,
        data: FlatBuffer,
    ) -> Result<PlacedBuf> {
        let (dtype, numel) = (data.dtype(), data.numel());
        // `vec![seg]` allocates exactly one slot: every parameter,
        // gradient and activation buffer keeps its segment list for life.
        let single = |seg| PlacedBuf { dtype, numel, policy, segments: vec![seg] };
        if device.kind != DeviceKind::Nvme {
            return Ok(single(self.store_segment(device, 0, data)?));
        }
        let mut plan = policy.unwrap_or_else(PlacementPolicy::all_nvme).plan(numel);
        if self.is_degraded() {
            if plan.elems_on(PathKind::Nvme) > 0 {
                self.fail_over();
            }
            plan = PlacementPolicy::all_cpu().plan(numel);
        }
        let target = |path| match path {
            PathKind::Cpu => Device::cpu(),
            PathKind::Nvme => Device::nvme(),
        };
        let placed = policy.is_some();
        if let [only] = plan.segments() {
            // One segment: the whole buffer moves in, uncopied.
            let bytes = data.size_in_bytes();
            let _hop = self.cp_hop(placed, only.path, "cp.store", Counter::CpWriteBytes, bytes, 0);
            return Ok(single(self.store_segment(target(only.path), 0, data)?));
        }
        let segments = Vec::with_capacity(plan.segments().len());
        let mut buf = PlacedBuf { dtype, numel, policy, segments };
        for seg in plan.segments() {
            let part = data.slice(seg.start, seg.len)?;
            let bytes = part.size_in_bytes();
            let _hop =
                self.cp_hop(placed, seg.path, "cp.store", Counter::CpWriteBytes, bytes, seg.start);
            match self.store_segment(target(seg.path), seg.start, part) {
                Ok(stored) => buf.segments.push(stored),
                Err(e) => {
                    self.free(buf);
                    return Err(e);
                }
            }
        }
        Ok(buf)
    }

    /// Allocate one segment on `device` and store `data` there. NVMe
    /// writes are durable before this returns; a device death under the
    /// write (or a node already degraded) moves this segment alone to
    /// CPU, bytes in hand.
    fn store_segment(&self, device: Device, start: usize, data: FlatBuffer) -> Result<Segment> {
        if device.kind == DeviceKind::Nvme && self.is_degraded() {
            self.fail_over();
            return self.store_segment(Device::cpu(), start, data);
        }
        let len = data.numel();
        let block = self.hierarchy.alloc(device, data.size_in_bytes() as u64)?;
        if device.kind != DeviceKind::Nvme {
            return Ok(Segment { start, len, device, block, ram: Some(data) });
        }
        // Stage through a pinned buffer for the duration of the write.
        let staging = self.pinned.acquire();
        let ticket = self.nvme.submit_write(block.offset, data.as_bytes().to_vec());
        let written = self.nvme.wait(ticket);
        drop(staging);
        match written {
            Ok(_) => {
                self.resilience.record(block.offset, data.as_bytes());
                Ok(Segment { start, len, device, block, ram: None })
            }
            Err(e) => {
                self.hierarchy.free(device, block);
                if !e.is_device_failure() {
                    return Err(e);
                }
                self.fail_over();
                self.store_segment(Device::cpu(), start, data)
            }
        }
    }

    /// One synchronous device read of `[offset, offset+len)`.
    fn read_once(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let _staging = self.pinned.acquire();
        let ticket = self.nvme.submit_read(offset, len);
        self.nvme
            .wait(ticket)?
            .ok_or_else(|| Error::Internal("read returned no data".into()))
    }

    /// Verify `bytes` against the checksum recorded for the extent, if
    /// any. On mismatch, re-read the device up to [`CORRUPTION_REREADS`]
    /// times (silent transfer corruption is transient — the device still
    /// holds clean data); persistent mismatch surfaces as
    /// [`Error::Corruption`].
    fn verify_or_reread(&self, offset: u64, len: usize, bytes: Vec<u8>) -> Result<Vec<u8>> {
        let expected = match self.resilience.lookup(offset, len as u64) {
            Some(crc) => crc,
            None => return Ok(bytes),
        };
        let mut actual = crc32(&bytes);
        if actual == expected {
            return Ok(bytes);
        }
        for _ in 0..CORRUPTION_REREADS {
            let again = self.read_once(offset, len)?;
            actual = crc32(&again);
            if actual == expected {
                self.resilience.corruptions_recovered.fetch_add(1, Ordering::Relaxed);
                return Ok(again);
            }
        }
        self.resilience.corruptions_unrecovered.fetch_add(1, Ordering::Relaxed);
        Err(Error::Corruption {
            context: format!("NVMe extent [{offset:#x}, +{len} B) after {CORRUPTION_REREADS} re-reads"),
            expected,
            actual,
        })
    }

    /// Start reading elements `[lo, lo + len)` of one segment: DRAM bytes
    /// are copied out now, NVMe reads are issued to the device. Reads
    /// verify against any checksum recorded for exactly this extent, so
    /// a chunk stream is verified once each chunk was written back.
    fn begin_part(&self, dtype: DType, seg: &Segment, lo: usize, len: usize) -> Result<Part> {
        match &seg.ram {
            Some(ram) => Ok(Part::Ready(ram.slice(lo, len)?)),
            None => {
                // Staging is charged transiently for the submission only
                // (see `PendingRead` for why holding it would deadlock).
                let _staging = self.pinned.acquire();
                let offset = seg.block.offset + dtype.bytes_for(lo) as u64;
                let nbytes = dtype.bytes_for(len);
                Ok(Part::Nvme(self.nvme.submit_read(offset, nbytes), offset, nbytes))
            }
        }
    }

    /// Load the entire buffer, reassembling split segments.
    pub fn load(&self, buf: &PlacedBuf) -> Result<FlatBuffer> {
        let parts = buf
            .segments
            .iter()
            .map(|seg| Ok((seg.start, self.begin_part(buf.dtype, seg, 0, seg.len)?)))
            .collect::<Result<_>>()?;
        PendingRead { dtype: buf.dtype, len: buf.numel, parts }.wait(self)
    }

    /// Begin an asynchronous load of elements `[start, start+len)`. NVMe
    /// parts are issued to the device immediately; DRAM parts are
    /// materialized here (under a cp-hop span for optimizer state) — so a
    /// pipelined caller streams both paths concurrently. This is the
    /// `nc-transfer` stage the prefetcher and the pipelined optimizer
    /// step overlap with compute (Sec. 5.2.2 + 6.2).
    pub fn begin_load(&self, buf: &PlacedBuf, start: usize, len: usize) -> Result<PendingRead> {
        let end = buf.check_range("begin_load", start, len)?;
        let placed = buf.policy.is_some();
        let touched = &buf.segments[buf.overlapping(start, end)];
        let mut parts = Vec::with_capacity(touched.len());
        for seg in touched {
            let (lo, hi) = (seg.start.max(start), seg.end().min(end));
            let bytes = buf.dtype.bytes_for(hi - lo);
            let _hop = self.cp_hop(placed, seg.path(), "cp.read", Counter::CpReadBytes, bytes, lo);
            parts.push((lo - start, self.begin_part(buf.dtype, seg, lo - seg.start, hi - lo)?));
        }
        Ok(PendingRead { dtype: buf.dtype, len, parts })
    }

    /// Accumulate `delta` into the buffer in place, returning whether any
    /// accumulated element is non-finite.
    ///
    /// This fuses the overflow scan into gradient accumulation: a
    /// non-finite term makes every later running sum non-finite (inf/NaN
    /// propagate through addition), so OR-ing the per-call flags is
    /// exactly equivalent to scanning the fully accumulated gradient
    /// once at step time — without the extra full-gradient pass.
    pub fn accumulate_f32(&self, buf: &mut PlacedBuf, delta: &[f32]) -> Result<bool> {
        if buf.dtype != DType::F32 || delta.len() != buf.numel {
            return Err(Error::shape("accumulate_f32 size/dtype mismatch"));
        }
        // One pinned buffer held across every chunk bounds the transfer
        // memory of the whole read-modify-write pass (Sec. 6.3); its size
        // sets the chunk granularity.
        let staging = buf.is_offloaded().then(|| self.pinned.acquire());
        let chunk = staging.as_ref().map_or(1, |s| (s.capacity() / 4).max(1));
        let mut nonfinite = false;
        for seg in &mut buf.segments {
            let delta = &delta[seg.start..seg.end()];
            if let Some(ram) = &mut seg.ram {
                nonfinite |= ram.accumulate_f32(delta)?;
                continue;
            }
            for (k, delta) in delta.chunks(chunk).enumerate() {
                let off = seg.block.offset + (k * chunk * 4) as u64;
                let nbytes = delta.len() * 4;
                let ticket = self.nvme.submit_read(off, nbytes);
                let bytes = self
                    .nvme
                    .wait(ticket)?
                    .ok_or_else(|| Error::Internal("read returned no data".into()))?;
                let mut bytes = self.verify_or_reread(off, nbytes, bytes)?;
                for (c, d) in bytes.chunks_exact_mut(4).zip(delta) {
                    let sum = f32::from_le_bytes([c[0], c[1], c[2], c[3]]) + d;
                    nonfinite |= !sum.is_finite();
                    c.copy_from_slice(&sum.to_le_bytes());
                }
                self.resilience.record(off, &bytes);
                let ticket = self.nvme.submit_write(off, bytes);
                self.nvme.wait(ticket)?;
            }
        }
        drop(staging);
        Ok(nonfinite)
    }

    /// Replace the buffer's entire contents, each segment over its own
    /// path; NVMe writes are durable before this returns.
    pub fn overwrite(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite size/dtype mismatch"));
        }
        let _staging = buf.is_offloaded().then(|| self.pinned.acquire());
        let mut wb = WriteBehind::new(buf.segments.len());
        let written = wb.submit(self, buf, 0, data);
        written.and(wb.drain(self))
    }

    /// Drain all outstanding NVMe requests.
    ///
    /// A device failure here degrades the node instead of erroring: new
    /// stores already avoid the device, and durability of a dead device
    /// is moot, so training continues.
    pub fn flush(&self) -> Result<()> {
        match self.nvme.flush() {
            Err(e) if e.is_device_failure() => {
                self.resilience.latch_degraded(&self.tracer);
                Ok(())
            }
            r => r,
        }
    }

    /// Re-publish every NVMe-resident segment to CPU DRAM, leaving
    /// DRAM-resident segments untouched, then release the NVMe extents;
    /// each moved segment counts one failover. This is the graceful
    /// degradation path: when the node degrades while the device still
    /// answers reads (explicit degrade, health-driven collapse), the
    /// NVMe-resident *half* of a split shard is preserved rather than
    /// dropped with the store. Reads are checksum-verified; a dead device
    /// surfaces its typed error so the caller falls back to checkpoint
    /// recovery.
    pub fn collapse(&self, buf: &mut PlacedBuf) -> Result<()> {
        for seg in &mut buf.segments {
            if seg.ram.is_some() {
                continue;
            }
            let data = self.begin_part(buf.dtype, seg, 0, seg.len)?.wait(self, buf.dtype)?;
            let cpu = self.store_segment(Device::cpu(), seg.start, data)?;
            self.fail_over();
            self.free_segment(std::mem::replace(seg, cpu));
        }
        buf.policy = buf.policy.map(|_| PlacementPolicy::all_cpu());
        Ok(())
    }

    /// Move a buffer to a new placement: load it whole, store it under
    /// `policy`, free the old segments. The re-tier knob's mechanism —
    /// bit-preserving by construction (load/store round trip), so
    /// placement moves are numerically invisible.
    pub fn retier(&self, buf: &mut PlacedBuf, device: Device, policy: PlacementPolicy) -> Result<()> {
        let fresh = self.store(device, Some(policy), self.load(buf)?)?;
        self.free(std::mem::replace(buf, fresh));
        Ok(())
    }

    /// Release every segment's device memory.
    pub fn free(&self, buf: PlacedBuf) {
        for seg in buf.segments {
            self.free_segment(seg);
        }
    }

    fn free_segment(&self, seg: Segment) {
        if seg.device.kind == DeviceKind::Nvme {
            // Drop stale checksums so a future tenant of this extent is
            // not verified against our data.
            self.resilience.invalidate(seg.block.offset, seg.block.len);
        }
        self.hierarchy.free(seg.device, seg.block);
    }
}

/// Bounded asynchronous write-behind for chunk-streamed updates.
///
/// The pipelined optimizer step hands each updated chunk to the NVMe
/// engine as a *ticketed* write and keeps going; at most `window` writes
/// are in flight at once, and submitting into a full window first waits
/// out the oldest one (back-pressure), so a slow device throttles the
/// pipeline instead of ballooning queued memory.
///
/// Every write-behind ticket is waited in [`WriteBehind::drain`] (or
/// during back-pressure), so write failures surface as typed errors on
/// the step path itself: transient faults are retried inside the engine,
/// and a device-death error reaches the trainer's recovery loop rather
/// than being discovered at end-of-iteration.
///
/// The device's workers may complete requests out of order, so a write
/// overlapping one still in flight first waits that one out: the later
/// write always lands last.
pub struct WriteBehind {
    window: usize,
    /// `(ticket, device byte range)` per write, oldest first.
    inflight: VecDeque<(Ticket, std::ops::Range<u64>)>,
}

impl WriteBehind {
    /// Write-behind with at most `window` NVMe writes in flight
    /// (clamped to ≥ 1).
    pub fn new(window: usize) -> WriteBehind {
        WriteBehind { window: window.max(1), inflight: VecDeque::new() }
    }

    /// NVMe writes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Queue an overwrite of `buf[start .. start + data.numel())`: NVMe
    /// parts enter the bounded async window, DRAM parts land
    /// synchronously (under a cp-hop span for optimizer state) — the
    /// write half of the two-path stream. A range inside one segment
    /// passes `data` through uncopied.
    pub fn submit(
        &mut self,
        mgr: &OffloadManager,
        buf: &mut PlacedBuf,
        start: usize,
        data: &FlatBuffer,
    ) -> Result<()> {
        if data.dtype() != buf.dtype {
            return Err(Error::shape("write-behind dtype mismatch"));
        }
        let end = buf.check_range("write-behind", start, data.numel())?;
        let (dtype, placed) = (buf.dtype, buf.policy.is_some());
        let touched = buf.overlapping(start, end);
        for seg in &mut buf.segments[touched] {
            let (lo, hi) = (seg.start.max(start), seg.end().min(end));
            let sliced;
            let part = if lo == start && hi == end {
                data
            } else {
                sliced = data.slice(lo - start, hi - lo)?;
                &sliced
            };
            let bytes = part.size_in_bytes();
            let _hop = mgr.cp_hop(placed, seg.path(), "cp.write", Counter::CpWriteBytes, bytes, lo);
            match &mut seg.ram {
                Some(ram) => ram.write_slice(lo - seg.start, part)?,
                None => {
                    let offset = seg.block.offset + dtype.bytes_for(lo - seg.start) as u64;
                    self.submit_nvme(mgr, offset, part)?;
                }
            }
        }
        Ok(())
    }

    /// Queue one NVMe write of `data` at device `offset` into the window.
    fn submit_nvme(&mut self, mgr: &OffloadManager, offset: u64, data: &FlatBuffer) -> Result<()> {
        // Harvest writes that already completed before deciding to block:
        // FIFO service completes the oldest tickets first, so reaping from
        // the front retires everything the device has finished. This
        // keeps the window bound meaningful (in-flight requests, not
        // unclaimed completions) and makes the stall counter a true
        // back-pressure signal — it fires only when the device is
        // genuinely behind.
        while self.inflight.front().is_some_and(|(oldest, _)| mgr.nvme.is_ready(*oldest)) {
            if let Some((done, _)) = self.inflight.pop_front() {
                mgr.nvme.wait(done)?;
            }
        }
        if self.inflight.len() >= self.window {
            // Back-pressure: the device is behind the pipeline.
            mgr.tracer.count(Counter::WbStalls, 1);
            let Some((oldest, _)) = self.inflight.pop_front() else {
                return Err(Error::Internal("full write-behind window held no ticket".into()));
            };
            mgr.nvme.wait(oldest)?;
        }
        let range = offset..offset + data.size_in_bytes() as u64;
        while let Some(i) =
            self.inflight.iter().position(|(_, r)| r.start < range.end && range.start < r.end)
        {
            let Some((overlapped, _)) = self.inflight.remove(i) else { break };
            mgr.nvme.wait(overlapped)?;
        }
        // CRC recorded at submission: the ticketed write either lands
        // these exact bytes or a wait surfaces the failure.
        mgr.resilience.record(offset, data.as_bytes());
        self.inflight.push_back((mgr.nvme.submit_write(offset, data.as_bytes().to_vec()), range));
        Ok(())
    }

    /// Wait out every queued write, surfacing the first failure as a
    /// typed error. All tickets are waited regardless of earlier
    /// failures, so no request leaks into the engine's flush barrier.
    pub fn drain(&mut self, mgr: &OffloadManager) -> Result<()> {
        let mut first_err = None;
        while let Some((ticket, _)) = self.inflight.pop_front() {
            if let Err(e) = mgr.nvme.wait(ticket) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        debug_assert!(
            self.inflight.is_empty(),
            "WriteBehind dropped with {} writes un-drained",
            self.inflight.len()
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn node() -> NodeResources {
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        NodeResources::in_memory(&spec, 2)
    }

    fn buf_f32(vals: &[f32]) -> FlatBuffer {
        FlatBuffer::from_f32(DType::F32, vals)
    }

    /// The device a single-tier buffer's bytes live on.
    fn device_of(buf: &PlacedBuf) -> Device {
        assert_eq!(buf.segments.len(), 1, "single-tier buffers have one segment");
        buf.segments[0].device
    }

    #[test]
    fn store_load_round_trip_every_tier() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            let data = buf_f32(&[1.0, -2.0, 3.5]);
            let buf = mgr.store(device, None, data.clone()).unwrap();
            assert_eq!(device_of(&buf), device);
            assert_eq!(buf.numel(), 3);
            let back = mgr.load(&buf).unwrap();
            assert_eq!(back.to_f32_vec(), data.to_f32_vec(), "tier {device}");
            mgr.free(buf);
            assert_eq!(mgr.hierarchy().stats(device).in_use, 0);
        }
    }

    #[test]
    fn partial_load_and_overwrite() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::cpu(), Device::nvme()] {
            let mut buf = mgr.store(device, None, buf_f32(&[0.0, 1.0, 2.0, 3.0, 4.0])).unwrap();
            let mid = mgr.begin_load(&buf, 1, 3).unwrap().wait(&mgr).unwrap();
            assert_eq!(mid.to_f32_vec(), vec![1.0, 2.0, 3.0]);
            let mut wb = WriteBehind::new(1);
            wb.submit(&mgr, &mut buf, 2, &buf_f32(&[9.0, 8.0])).unwrap();
            wb.drain(&mgr).unwrap();
            assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![0.0, 1.0, 9.0, 8.0, 4.0]);
            mgr.free(buf);
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let spec = NodeMemorySpec::test_spec(1, 16, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        // 5 f32 = 20 bytes > 16-byte GPU pool.
        let err = mgr.store(Device::gpu(0), None, buf_f32(&[0.0; 5])).unwrap_err();
        assert!(err.is_oom());
        // Same data fits on CPU.
        let buf = mgr.store(Device::cpu(), None, buf_f32(&[0.0; 5])).unwrap();
        mgr.free(buf);
    }

    #[test]
    fn async_load_overlaps() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[7.0; 64])).unwrap();
        let pending = mgr.begin_load(&buf, 0, 64).unwrap();
        assert!(pending.is_async());
        // ... compute would happen here ...
        let data = pending.wait(&mgr).unwrap();
        assert_eq!(data.to_f32_vec(), vec![7.0; 64]);
        mgr.free(buf);
    }

    #[test]
    fn cpu_loads_resolve_immediately() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::cpu(), None, buf_f32(&[1.0, 2.0])).unwrap();
        let pending = mgr.begin_load(&buf, 0, 2).unwrap();
        assert!(!pending.is_async());
        assert_eq!(pending.wait(&mgr).unwrap().to_f32_vec(), vec![1.0, 2.0]);
        mgr.free(buf);
    }

    pub(crate) fn faulty_node() -> (zi_nvme::FaultPlan, NodeResources) {
        use std::time::Duration;
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        let plan = zi_nvme::FaultPlan::new();
        let backend = Arc::new(zi_nvme::FaultyBackend::new(MemBackend::new(), plan.clone()));
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            deadline: Duration::from_secs(5),
            jitter_seed: 5,
        };
        let (comm, tracer) = (CommConfig::default(), Tracer::new());
        let node = NodeResources::with_backend_policy_comm_tracer(&spec, 1, backend, policy, comm, tracer);
        (plan, node)
    }

    #[test]
    fn silent_corruption_is_detected_and_repaired_by_reread() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[3.25; 128])).unwrap();
        plan.bitflip_next_reads(1); // first read returns a poisoned buffer
        let data = mgr.load(&buf).unwrap();
        assert_eq!(data.to_f32_vec(), vec![3.25; 128]);
        let health = mgr.health();
        assert_eq!(health.corruptions_recovered, 1);
        assert_eq!(health.corruptions_unrecovered, 0);
        assert!(!health.degraded);
        mgr.free(buf);
    }

    #[test]
    fn persistent_corruption_surfaces_typed_error() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[1.0; 64])).unwrap();
        // Poison the initial read and every re-read.
        plan.bitflip_next_reads(1 + super::CORRUPTION_REREADS);
        let err = mgr.load(&buf).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        assert_eq!(mgr.health().corruptions_unrecovered, 1);
        mgr.free(buf);
    }

    #[test]
    fn prefetched_load_verifies_too() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[9.0; 32])).unwrap();
        plan.bitflip_next_reads(1);
        let pending = mgr.begin_load(&buf, 0, 32).unwrap();
        let data = pending.wait(&mgr).unwrap();
        assert_eq!(data.to_f32_vec(), vec![9.0; 32]);
        assert_eq!(mgr.health().corruptions_recovered, 1);
        mgr.free(buf);
    }

    #[test]
    fn dead_device_fails_stores_over_to_cpu() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        // A store that dies mid-write falls back to CPU with the data.
        plan.kill();
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[2.5; 16])).unwrap();
        assert_eq!(device_of(&buf), Device::cpu());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![2.5; 16]);
        let health = mgr.health();
        assert!(health.degraded);
        assert_eq!(health.failovers, 1);
        // Later stores skip the dead device entirely.
        let buf2 = mgr.store(Device::nvme(), None, buf_f32(&[4.0; 8])).unwrap();
        assert_eq!(device_of(&buf2), Device::cpu());
        assert_eq!(mgr.health().failovers, 2);
        // NVMe capacity was returned when the first store failed over.
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
        mgr.free(buf);
        mgr.free(buf2);
    }

    #[test]
    fn explicit_degrade_redirects_before_any_failure() {
        let (_plan, node) = faulty_node();
        node.degrade();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[1.5; 4])).unwrap();
        assert_eq!(device_of(&buf), Device::cpu());
        assert!(mgr.health().degraded);
        mgr.free(buf);
    }

    #[test]
    fn transient_store_faults_recover_without_failover() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.fail_next_writes(2); // < max_attempts
        let buf = mgr.store(Device::nvme(), None, buf_f32(&[8.0; 8])).unwrap();
        assert_eq!(device_of(&buf), Device::nvme());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![8.0; 8]);
        let health = mgr.health();
        assert!(!health.degraded);
        assert_eq!(health.failovers, 0);
        assert!(mgr.nvme().stats().retries >= 2);
        mgr.free(buf);
    }

    #[test]
    fn bounds_checked() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::cpu(), None, buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.overwrite(&mut buf, &buf_f32(&[0.0; 5])).is_err());
        assert!(mgr.begin_load(&buf, 3, 2).is_err());
        assert!(mgr.begin_load(&buf, usize::MAX, 2).is_err());
        let mut wb = WriteBehind::new(2);
        assert!(wb.submit(&mgr, &mut buf, 3, &buf_f32(&[0.0; 2])).is_err());
        mgr.free(buf);
    }

    #[test]
    fn partial_async_load_matches_sync() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        for device in [Device::cpu(), Device::nvme()] {
            let buf = mgr.store(device, None, buf_f32(&vals)).unwrap();
            let pending = mgr.begin_load(&buf, 10, 20).unwrap();
            assert_eq!(pending.is_async(), device.kind == DeviceKind::Nvme);
            assert_eq!(pending.wait(&mgr).unwrap().to_f32_vec(), &vals[10..30]);
            mgr.free(buf);
        }
    }

    #[test]
    fn steady_state_chunk_reads_are_checksum_verified() {
        // Once a chunk has been written back (recording a sub-extent
        // CRC), a later chunk read of that exact extent is verified —
        // and repaired on a transient bitflip.
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), None, buf_f32(&[0.0; 32])).unwrap();
        let mut wb = WriteBehind::new(1);
        wb.submit(&mgr, &mut buf, 8, &buf_f32(&[4.0; 8])).unwrap();
        wb.drain(&mgr).unwrap();
        plan.bitflip_next_reads(1);
        let data = mgr.begin_load(&buf, 8, 8).unwrap().wait(&mgr).unwrap();
        assert_eq!(data.to_f32_vec(), vec![4.0; 8]);
        assert_eq!(mgr.health().corruptions_recovered, 1);
        mgr.free(buf);
    }

    #[test]
    fn write_behind_bounds_inflight_and_lands_every_chunk() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), None, buf_f32(&[0.0; 64])).unwrap();
        let mut wb = WriteBehind::new(2);
        for k in 0..8 {
            wb.submit(&mgr, &mut buf, k * 8, &buf_f32(&[k as f32; 8])).unwrap();
            assert!(wb.in_flight() <= 2, "window respected");
        }
        wb.drain(&mgr).unwrap();
        assert_eq!(wb.in_flight(), 0);
        let back = mgr.load(&buf).unwrap().to_f32_vec();
        for k in 0..8 {
            assert_eq!(&back[k * 8..(k + 1) * 8], &[k as f32; 8][..], "chunk {k}");
        }
        // RAM-resident buffers write synchronously through the same API.
        let mut cbuf = mgr.store(Device::cpu(), None, buf_f32(&[0.0; 8])).unwrap();
        wb.submit(&mgr, &mut cbuf, 2, &buf_f32(&[7.0; 4])).unwrap();
        assert_eq!(wb.in_flight(), 0);
        assert_eq!(mgr.load(&cbuf).unwrap().to_f32_vec(), vec![0.0, 0.0, 7.0, 7.0, 7.0, 7.0, 0.0, 0.0]);
        mgr.free(buf);
        mgr.free(cbuf);
    }

    #[test]
    fn overlapping_write_behind_lands_in_submission_order() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), None, buf_f32(&[0.0; 64])).unwrap();
        // The first write stalls on its worker; the second, overlapping
        // it and submitted once the first is stalled, must still land
        // last.
        plan.delay_next_ops(1, std::time::Duration::from_millis(100));
        let mut wb = WriteBehind::new(4);
        wb.submit(&mgr, &mut buf, 0, &buf_f32(&[1.0; 32])).unwrap();
        zi_sync::thread::sleep(std::time::Duration::from_millis(20));
        wb.submit(&mgr, &mut buf, 16, &buf_f32(&[2.0; 32])).unwrap();
        wb.drain(&mgr).unwrap();
        let mut want = vec![1.0; 16];
        want.extend([2.0; 32]);
        want.extend([0.0; 16]);
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), want);
        assert_eq!(plan.injected().latency_spikes, 1);
        mgr.free(buf);
    }

    #[test]
    fn write_behind_surfaces_device_death_as_typed_error() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), None, buf_f32(&[0.0; 16])).unwrap();
        let mut wb = WriteBehind::new(4);
        plan.kill();
        // Submission harvests already-completed tickets before queuing,
        // so the death can surface at the second submit (when the worker
        // retired the first failed write in between) or at drain — the
        // same typed error either way.
        let early = wb
            .submit(&mgr, &mut buf, 0, &buf_f32(&[1.0; 8]))
            .and_then(|()| wb.submit(&mgr, &mut buf, 8, &buf_f32(&[2.0; 8])));
        let err = match early {
            Ok(()) => wb.drain(&mgr).unwrap_err(),
            Err(e) => {
                let _ = wb.drain(&mgr);
                e
            }
        };
        assert!(err.is_device_failure(), "got {err}");
        assert_eq!(wb.in_flight(), 0, "drain consumes every ticket even on failure");
        mgr.free(buf);
    }

    #[test]
    fn write_behind_transient_faults_retry_invisibly() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), None, buf_f32(&[0.0; 16])).unwrap();
        let mut wb = WriteBehind::new(2);
        plan.fail_next_writes(2); // < max_attempts
        wb.submit(&mgr, &mut buf, 0, &buf_f32(&[3.0; 16])).unwrap();
        wb.drain(&mgr).unwrap();
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![3.0; 16]);
        assert!(mgr.nvme().stats().retries >= 2);
        mgr.free(buf);
    }

    #[test]
    fn accumulate_in_place_fuses_overflow_scan() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::cpu(), Device::nvme()] {
            let mut buf = mgr.store(device, None, buf_f32(&[1.0; 40])).unwrap();
            assert!(!mgr.accumulate_f32(&mut buf, &[0.5; 40]).unwrap(), "tier {device}");
            assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![1.5; 40]);
            let mut delta = vec![0.0f32; 40];
            delta[17] = f32::INFINITY;
            assert!(mgr.accumulate_f32(&mut buf, &delta).unwrap(), "tier {device}");
            mgr.free(buf);
        }
        // Shape/dtype errors are typed, not silent.
        let mut small = mgr.store(Device::cpu(), None, buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.accumulate_f32(&mut small, &[0.0; 5]).is_err());
        mgr.free(small);
    }

    #[test]
    fn nvme_accumulate_chunks_through_small_staging() {
        // A tiny pinned pool forces the NVMe accumulate path to stream
        // in multiple chunks through a single held staging buffer.
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources {
            hierarchy: Arc::new(MemoryHierarchy::new(&spec)),
            nvme: Arc::new(NvmeEngine::with_policy(
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
                2,
                RetryPolicy::default(),
            )),
            pinned: PinnedBufferPool::new(2, 64), // 16 f32 per chunk
            group: CommGroup::new(1),
            resilience: Arc::new(ResilienceState::default()),
            tracer: Tracer::new(),
        };
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let delta: Vec<f32> = (0..100).map(|i| 0.25 * i as f32).collect();
        let want: Vec<f32> = vals.iter().zip(&delta).map(|(a, b)| a + b).collect();
        let mut buf = mgr.store(Device::nvme(), None, buf_f32(&vals)).unwrap();
        assert!(!mgr.accumulate_f32(&mut buf, &delta).unwrap());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), want);
        mgr.free(buf);
        // A split buffer accumulates segment by segment on both paths.
        let split = Some(PlacementPolicy::split(500, 24));
        let mut buf = mgr.store(Device::nvme(), split, buf_f32(&vals)).unwrap();
        assert!(buf.is_split());
        assert!(!mgr.accumulate_f32(&mut buf, &delta).unwrap());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), want);
        mgr.free(buf);
    }

    #[test]
    fn placed_split_round_trips_and_interleaves() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let policy = PlacementPolicy::split(500, 16);
        let buf = mgr.store(Device::nvme(), Some(policy), buf_f32(&vals)).unwrap();
        assert!(buf.is_split());
        assert!(buf.segments.len() >= 4, "stripes should interleave, not partition");
        let cpu = buf.elems_on(PathKind::Cpu);
        assert!((112..=144).contains(&cpu), "cpu share {cpu} far from 50%");
        assert_eq!(buf.elems_on(PathKind::Cpu) + buf.elems_on(PathKind::Nvme), 256);
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vals);
        mgr.free(buf);
        assert_eq!(mgr.hierarchy().stats(Device::cpu()).in_use, 0);
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
    }

    #[test]
    fn placed_single_path_policies_behave_like_plain_stores() {
        let node = node();
        let mgr = node.offload_manager();
        let vals = vec![1.5f32; 32];
        let nv = mgr.store(Device::nvme(), Some(PlacementPolicy::all_nvme()), buf_f32(&vals)).unwrap();
        assert_eq!(nv.segments.len(), 1);
        assert!(nv.is_offloaded());
        let cp = mgr.store(Device::nvme(), Some(PlacementPolicy::all_cpu()), buf_f32(&vals)).unwrap();
        assert_eq!(cp.segments.len(), 1);
        assert!(!cp.is_offloaded());
        // A non-NVMe target ignores the policy entirely.
        let gpu =
            mgr.store(Device::gpu(0), Some(PlacementPolicy::split(500, 4)), buf_f32(&vals)).unwrap();
        assert_eq!(device_of(&gpu), Device::gpu(0));
        for b in [nv, cp, gpu] {
            mgr.free(b);
        }
    }

    #[test]
    fn placed_ranged_load_spans_both_paths() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| (i as f32) * 0.25).collect();
        let buf = mgr
            .store(Device::nvme(), Some(PlacementPolicy::split(500, 16)), buf_f32(&vals))
            .unwrap();
        let pending = mgr.begin_load(&buf, 5, 100).unwrap();
        assert!(pending.is_async(), "NVMe part of the range should be queued on the device");
        let got = pending.wait(&mgr).unwrap();
        assert_eq!(got.to_f32_vec(), vals[5..105].to_vec());
        let snap = mgr.tracer.snapshot();
        assert!(snap.cp_read_bytes > 0, "cp hop should account the DRAM share");
        assert!(mgr.begin_load(&buf, 200, 100).is_err(), "bounds enforced");
        mgr.free(buf);
    }

    #[test]
    fn single_tier_buffers_stay_off_the_cp_hop() {
        // Parameters, gradients and activations are stored without a
        // policy: their DRAM traffic is not optimizer-state traffic, so
        // it must not inflate the cp hop's byte counters.
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::cpu(), None, buf_f32(&[1.0; 16])).unwrap();
        mgr.begin_load(&buf, 0, 16).unwrap().wait(&mgr).unwrap();
        mgr.overwrite(&mut buf, &buf_f32(&[2.0; 16])).unwrap();
        let mut wb = WriteBehind::new(1);
        wb.submit(&mgr, &mut buf, 4, &buf_f32(&[3.0; 4])).unwrap();
        let snap = mgr.tracer.snapshot();
        assert_eq!((snap.cp_read_bytes, snap.cp_write_bytes), (0, 0));
        mgr.free(buf);
    }

    #[test]
    fn placed_write_behind_lands_every_chunk_on_both_paths() {
        let node = node();
        let mgr = node.offload_manager();
        let n = 128;
        let mut buf = mgr
            .store(Device::nvme(), Some(PlacementPolicy::split(500, 8)), buf_f32(&vec![0.0; n]))
            .unwrap();
        let want: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5 - 7.0).collect();
        let mut wb = WriteBehind::new(2);
        for start in (0..n).step_by(10) {
            let hi = (start + 10).min(n);
            wb.submit(&mgr, &mut buf, start, &buf_f32(&want[start..hi])).unwrap();
        }
        wb.drain(&mgr).unwrap();
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), want);
        assert!(mgr.tracer.snapshot().cp_write_bytes > 0);
        mgr.free(buf);
    }

    #[test]
    fn explicit_degrade_collapses_split_shard_preserving_nvme_half() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let mut buf = mgr
            .store(Device::nvme(), Some(PlacementPolicy::split(250, 8)), buf_f32(&vals))
            .unwrap();
        assert!(buf.elems_on(PathKind::Nvme) > 0);
        node.degrade();
        // Degradation only latches the signal: the buffer keeps its NVMe
        // half until the owner collapses it.
        assert!(mgr.is_degraded());
        assert!(buf.elems_on(PathKind::Nvme) > 0);
        mgr.collapse(&mut buf).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert!(!buf.is_offloaded());
        assert_eq!(buf.policy(), Some(PlacementPolicy::all_cpu()));
        // The NVMe-resident half came across bit-identical; the CPU half
        // was never touched.
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vals);
        assert!(mgr.health().failovers > 0);
        mgr.free(buf);
    }

    #[test]
    fn dead_device_fails_split_store_over_per_segment() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.kill();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let policy = PlacementPolicy::split(500, 8);
        let split = Some(policy);
        let nvme_segments =
            policy.plan(64).segments().iter().filter(|s| s.path == PathKind::Nvme).count();
        // Each planned-NVMe segment fails over alone, bytes in hand, and
        // counts one failover; the DRAM segments never saw the device.
        let buf = mgr.store(Device::nvme(), split, buf_f32(&vals)).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert_eq!(mgr.health().failovers, nvme_segments as u64);
        assert!(mgr.is_degraded());
        assert_eq!(buf.elems_on(PathKind::Cpu), 64);
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vals);
        mgr.free(buf);
        // Once degraded, later stores collapse their plan to one CPU
        // segment up front, counting one failover when the plan had NVMe
        // elements and none when it was already all-CPU.
        let after = mgr.store(Device::nvme(), split, buf_f32(&vals)).unwrap();
        assert_eq!(after.segments.len(), 1);
        assert!(!after.is_offloaded());
        assert_eq!(mgr.health().failovers, nvme_segments as u64 + 1);
        let all_cpu = mgr.store(Device::nvme(), Some(PlacementPolicy::all_cpu()), buf_f32(&vals));
        assert_eq!(mgr.health().failovers, nvme_segments as u64 + 1);
        mgr.free(after);
        mgr.free(all_cpu.unwrap());
    }

    #[test]
    fn failed_split_read_waits_every_part() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let buf = mgr
            .store(Device::nvme(), Some(PlacementPolicy::split(500, 8)), buf_f32(&vals))
            .unwrap();
        plan.kill();
        let pending = mgr.begin_load(&buf, 0, 64).unwrap();
        let tickets: Vec<Ticket> = pending
            .parts
            .iter()
            .filter_map(|(_, p)| match p {
                Part::Nvme(ticket, ..) => Some(*ticket),
                Part::Ready(_) => None,
            })
            .collect();
        assert!(tickets.len() >= 2, "the range must span two NVMe segments");
        let err = pending.wait(&mgr).unwrap_err();
        assert!(err.is_device_failure(), "got {err}");
        // A waited ticket's outcome lands a moment before its worker
        // retires it from the in-flight count; allow that moment only.
        let deadline = zi_sync::time::Instant::now() + std::time::Duration::from_secs(1);
        while mgr.nvme().in_flight() > 0 && zi_sync::time::Instant::now() < deadline {
            zi_sync::thread::yield_now();
        }
        assert_eq!(mgr.nvme().in_flight(), 0);
        for ticket in tickets {
            assert!(!mgr.nvme().is_ready(ticket), "part {ticket:?} was never waited");
        }
        mgr.free(buf);
    }

    #[test]
    fn retier_moves_placement_without_changing_bits() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..300).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let mut buf = mgr
            .store(Device::nvme(), Some(PlacementPolicy::all_nvme()), buf_f32(&vals))
            .unwrap();
        assert_eq!(buf.elems_on(PathKind::Cpu), 0);
        mgr.retier(&mut buf, Device::nvme(), PlacementPolicy::split(500, 16)).unwrap();
        assert!(buf.is_split());
        assert_eq!(buf.policy(), Some(PlacementPolicy::split(500, 16)));
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vals);
        mgr.retier(&mut buf, Device::nvme(), PlacementPolicy::all_cpu()).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vals);
        mgr.free(buf);
        assert_eq!(mgr.hierarchy().stats(Device::cpu()).in_use, 0);
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
    }
}
