//! The infinity offload engine: placement-aware device buffers.
//!
//! A [`DeviceBuf`] is one tensor's worth of bytes resident on a specific
//! memory tier. GPU and CPU buffers hold their bytes in process memory and
//! charge the corresponding capacity pool; NVMe buffers own an extent of
//! the backing device and move bytes through the asynchronous
//! [`zi_nvme::NvmeEngine`]. Every NVMe transfer checks a staging buffer out
//! of the pinned pool for its duration, bounding staging memory the way
//! the paper's pinned-memory management layer does (Sec. 6.3).

use std::collections::{BTreeMap, VecDeque};
use zi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zi_sync::Arc;

use zi_sync::Mutex;
use zi_comm::{CommConfig, CommGroup, Membership};
use zi_memory::{
    Block, MemoryHierarchy, NodeMemorySpec, PathKind, PinnedBufferPool, PlacementPolicy, PlanCell,
};
use zi_nvme::{checksum::crc32, FileBackend, MemBackend, NvmeEngine, RetryPolicy, StorageBackend, Ticket};
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
    /// Node-wide placement-policy cell: degradation (and re-tiering)
    /// publish whole policies here so readers never see a torn one.
    placement: Arc<PlanCell>,
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

    /// Node whose NVMe device is a real file at `path` (benchmarks).
    pub fn with_file_nvme(
        spec: &NodeMemorySpec,
        world: WorldSize,
        path: &std::path::Path,
    ) -> Result<Self> {
        let backend = Arc::new(FileBackend::create(path)?) as Arc<dyn StorageBackend>;
        Ok(Self::with_backend(spec, world, backend))
    }

    /// Node over an explicit storage backend.
    pub fn with_backend(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
    ) -> Self {
        Self::with_backend_policy(spec, world, backend, RetryPolicy::default())
    }

    /// Node over an explicit storage backend and NVMe retry policy
    /// (chaos tests shorten the backoffs; production uses the default).
    pub fn with_backend_policy(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
    ) -> Self {
        Self::with_backend_policy_comm(spec, world, backend, policy, CommConfig::default())
    }

    /// [`Self::with_backend_policy`] with an explicit communicator
    /// configuration (collective deadline + comm fault plan) — the
    /// elastic trainer and comm-chaos tests build groups through this.
    pub fn with_backend_policy_comm(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
    ) -> Self {
        Self::with_backend_policy_comm_tracer(spec, world, backend, policy, comm, Tracer::new())
    }

    /// [`Self::with_backend_policy_comm`] recording every subsystem's
    /// spans and counters into an externally owned tracer — the trainer
    /// passes one tracer here so a whole node (engine workers, pinned
    /// pool, collectives, all ranks) shares a single event stream.
    pub fn with_backend_policy_comm_tracer(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
        tracer: Tracer,
    ) -> Self {
        let group = CommGroup::with_config_tracer(world, comm, tracer.clone());
        Self::assemble(spec, backend, policy, group, tracer)
    }

    /// [`Self::with_backend_policy_comm_tracer`] whose comm group is
    /// registered with a [`Membership`]: ranks queued to join latch a
    /// resize on this node's group, retiring it with
    /// `Error::MembershipChange` so the elastic trainer can rebuild at
    /// the grown world.
    pub fn with_membership(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
        tracer: Tracer,
        membership: &Membership,
    ) -> Self {
        let group = CommGroup::with_membership_tracer(world, comm, tracer.clone(), membership);
        Self::assemble(spec, backend, policy, group, tracer)
    }

    fn assemble(
        spec: &NodeMemorySpec,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        group: CommGroup,
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
            group,
            resilience: Arc::new(ResilienceState::default()),
            placement: Arc::new(PlanCell::new(PlacementPolicy::all_nvme())),
            tracer,
        }
    }

    /// The node-wide tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The node's placement-policy cell (see [`PlanCell`]): degradation
    /// publishes the all-CPU collapse here, and engines poll it at step
    /// boundaries to re-tier split shards.
    pub fn placement_cell(&self) -> &Arc<PlanCell> {
        &self.placement
    }

    /// Start (or force) this node into degraded mode: every NVMe store
    /// is placed on CPU instead. Used when restarting after a device
    /// death — the replacement run must not trust the dead device.
    /// Publishes the all-CPU policy so split shards collapse too.
    pub fn degrade(&self) {
        if !self.resilience.degraded.swap(true, Ordering::Release) {
            self.tracer.count(Counter::DegradedTransitions, 1);
            self.placement.publish(PlacementPolicy::all_cpu());
        }
    }

    /// A per-rank offload manager handle.
    pub fn offload_manager(&self) -> OffloadManager {
        OffloadManager {
            hierarchy: Arc::clone(&self.hierarchy),
            nvme: Arc::clone(&self.nvme),
            pinned: self.pinned.clone(),
            resilience: Arc::clone(&self.resilience),
            placement: Arc::clone(&self.placement),
            tracer: self.tracer.clone(),
        }
    }
}

/// One tensor's bytes, resident on a device tier.
#[derive(Debug)]
pub struct DeviceBuf {
    device: Device,
    dtype: DType,
    numel: usize,
    block: Block,
    /// Present for GPU/CPU placements; NVMe bytes live on the device.
    ram: Option<FlatBuffer>,
}

impl DeviceBuf {
    /// Device this buffer lives on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// Size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.dtype.bytes_for(self.numel)
    }

    /// True when the bytes live on the NVMe device (loading them costs an
    /// nc-transfer); GPU/CPU buffers resolve from process memory.
    pub fn is_offloaded(&self) -> bool {
        self.ram.is_none()
    }

    /// The placement path this buffer resolves through: NVMe extents go
    /// over the nc path, everything RAM-resident over the cp path.
    pub fn path(&self) -> PathKind {
        if self.is_offloaded() {
            PathKind::Nvme
        } else {
            PathKind::Cpu
        }
    }
}

/// An NVMe load in flight; resolves to the bytes when waited.
///
/// The pinned staging buffer is held only while the request is being
/// submitted, never across the life of the pending load — holding it
/// longer can deadlock ranks that block inside collectives while a
/// sibling rank waits for staging (the pinned pool is a node-shared
/// resource).
pub struct PendingLoad {
    dtype: DType,
    /// Outstanding NVMe read and its device extent (for verification).
    ticket: Option<(Ticket, u64, usize)>,
    /// Immediate result for GPU/CPU sources.
    immediate: Option<FlatBuffer>,
}

impl PendingLoad {
    /// Block until the data is available. NVMe loads are verified
    /// against the checksum recorded at store time; a mismatch triggers
    /// synchronous re-reads before surfacing [`Error::Corruption`], so a
    /// prefetched buffer is never silently poisoned.
    pub fn wait(self, mgr: &OffloadManager) -> Result<FlatBuffer> {
        match (self.ticket, self.immediate) {
            (Some((ticket, offset, len)), _) => {
                let bytes = mgr
                    .nvme
                    .wait(ticket)?
                    .ok_or_else(|| Error::Internal("read ticket returned no data".into()))?;
                let bytes = mgr.verify_or_reread(offset, len, bytes)?;
                FlatBuffer::from_bytes(self.dtype, bytes)
            }
            (None, Some(buf)) => Ok(buf),
            (None, None) => Err(Error::Internal("empty PendingLoad".into())),
        }
    }

    /// True if this load still has an outstanding NVMe request.
    pub fn is_async(&self) -> bool {
        self.ticket.is_some()
    }

    /// True once the data is available without blocking: the NVMe read
    /// completed (successfully or not), or the load was immediate. The
    /// prefetcher uses this to tell a timely hit from a late one.
    pub fn ready(&self, mgr: &OffloadManager) -> bool {
        match &self.ticket {
            Some((ticket, _, _)) => mgr.nvme.is_ready(*ticket),
            None => true,
        }
    }
}

/// Handle for storing/loading tensors on any tier.
#[derive(Clone)]
pub struct OffloadManager {
    hierarchy: Arc<MemoryHierarchy>,
    nvme: Arc<NvmeEngine>,
    pinned: PinnedBufferPool,
    resilience: Arc<ResilienceState>,
    placement: Arc<PlanCell>,
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

    /// The node's placement-policy cell (shared with [`NodeResources`]).
    pub fn placement_cell(&self) -> &Arc<PlanCell> {
        &self.placement
    }

    /// Latch the degradation flag, counting the first transition and
    /// publishing the all-CPU collapse policy so plan readers re-tier.
    fn latch_degraded(&self) {
        if !self.resilience.degraded.swap(true, Ordering::Release) {
            self.tracer.count(Counter::DegradedTransitions, 1);
            self.placement.publish(PlacementPolicy::all_cpu());
        }
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

    /// Redirect an NVMe store to CPU, counting the failover.
    fn store_failover(&self, data: FlatBuffer) -> Result<DeviceBuf> {
        self.latch_degraded();
        self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
        self.store(Device::cpu(), data)
    }

    /// Allocate on `device` and store `data` there.
    ///
    /// NVMe stores degrade gracefully: once the device is declared dead
    /// (or the node was degraded explicitly), the shard is placed in CPU
    /// memory instead and the failover is counted in [`Self::health`].
    /// Training slows down (the paper's NVMe capacity win is lost) but
    /// does not abort.
    pub fn store(&self, device: Device, data: FlatBuffer) -> Result<DeviceBuf> {
        if device.kind == DeviceKind::Nvme && self.is_degraded() {
            return self.store_failover(data);
        }
        let bytes = data.size_in_bytes() as u64;
        let block = self.hierarchy.alloc(device, bytes)?;
        let numel = data.numel();
        let dtype = data.dtype();
        let ram = match device.kind {
            DeviceKind::Gpu | DeviceKind::Cpu => Some(data),
            DeviceKind::Nvme => {
                // Stage through a pinned buffer for the duration of the
                // write, then hand the bytes to the async engine and wait:
                // stores must be durable before the shard is dropped.
                let _staging = self.pinned.acquire();
                let ticket = self.nvme.submit_write(block.offset, data.as_bytes().to_vec());
                match self.nvme.wait(ticket) {
                    Ok(_) => {
                        self.resilience.record(block.offset, data.as_bytes());
                        None
                    }
                    Err(e) if e.is_device_failure() => {
                        // The device died under this store; the data is
                        // still in hand — fail over to CPU.
                        self.hierarchy.free(device, block);
                        return self.store_failover(data);
                    }
                    Err(e) => {
                        self.hierarchy.free(device, block);
                        return Err(e);
                    }
                }
            }
        };
        Ok(DeviceBuf { device, dtype, numel, block, ram })
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

    /// Checksum-verified synchronous read.
    fn read_verified(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bytes = self.read_once(offset, len)?;
        self.verify_or_reread(offset, len, bytes)
    }

    /// Load the entire buffer.
    pub fn load(&self, buf: &DeviceBuf) -> Result<FlatBuffer> {
        match &buf.ram {
            Some(data) => Ok(data.clone()),
            None => {
                let bytes = self.read_verified(buf.block.offset, buf.size_in_bytes())?;
                FlatBuffer::from_bytes(buf.dtype, bytes)
            }
        }
    }

    /// Load elements `[start, start+len)`.
    pub fn load_elems(&self, buf: &DeviceBuf, start: usize, len: usize) -> Result<FlatBuffer> {
        if start + len > buf.numel {
            return Err(Error::shape(format!(
                "load_elems [{start}, {}) out of buffer of {} elements",
                start + len,
                buf.numel
            )));
        }
        match &buf.ram {
            Some(data) => data.slice(start, len),
            None => {
                let es = buf.dtype.size_in_bytes() as u64;
                // Sub-range reads verify only when they cover a recorded
                // extent exactly (start == 0 and len == numel); partial
                // extents have no recorded CRC and pass through.
                let bytes = self.read_verified(
                    buf.block.offset + start as u64 * es,
                    buf.dtype.bytes_for(len),
                )?;
                FlatBuffer::from_bytes(buf.dtype, bytes)
            }
        }
    }

    /// Begin an asynchronous load of the whole buffer. NVMe sources issue
    /// the read immediately and return; GPU/CPU sources resolve instantly.
    /// This is the `nc-transfer` stage the prefetcher overlaps with
    /// compute (Sec. 6.2).
    pub fn begin_load(&self, buf: &DeviceBuf) -> Result<PendingLoad> {
        match &buf.ram {
            Some(data) => {
                Ok(PendingLoad { dtype: buf.dtype, ticket: None, immediate: Some(data.clone()) })
            }
            None => {
                // Staging is charged transiently for the submission only.
                let _staging = self.pinned.acquire();
                let len = buf.size_in_bytes();
                let ticket = self.nvme.submit_read(buf.block.offset, len);
                Ok(PendingLoad {
                    dtype: buf.dtype,
                    ticket: Some((ticket, buf.block.offset, len)),
                    immediate: None,
                })
            }
        }
    }

    /// Begin an asynchronous load of elements `[start, start+len)` — the
    /// partial-range sibling of [`Self::begin_load`]. The pipelined
    /// optimizer step uses this to keep the next chunks' reads in flight
    /// while the current chunk updates (Sec. 5.2.2 + 6.2); resolved
    /// loads verify against any checksum recorded for exactly this
    /// extent, so steady-state chunk streams keep PR 1's integrity
    /// guarantees once each chunk has been written back at least once.
    pub fn begin_load_elems(
        &self,
        buf: &DeviceBuf,
        start: usize,
        len: usize,
    ) -> Result<PendingLoad> {
        if start + len > buf.numel {
            return Err(Error::shape(format!(
                "begin_load_elems [{start}, {}) out of buffer of {} elements",
                start + len,
                buf.numel
            )));
        }
        match &buf.ram {
            Some(data) => Ok(PendingLoad {
                dtype: buf.dtype,
                ticket: None,
                immediate: Some(data.slice(start, len)?),
            }),
            None => {
                // Staging is charged transiently for the submission only
                // (see `PendingLoad` for why holding it would deadlock).
                let _staging = self.pinned.acquire();
                let es = buf.dtype.size_in_bytes() as u64;
                let off = buf.block.offset + start as u64 * es;
                let nbytes = buf.dtype.bytes_for(len);
                let ticket = self.nvme.submit_read(off, nbytes);
                Ok(PendingLoad {
                    dtype: buf.dtype,
                    ticket: Some((ticket, off, nbytes)),
                    immediate: None,
                })
            }
        }
    }

    /// Accumulate `delta` into the buffer in place, returning whether any
    /// accumulated element is non-finite.
    ///
    /// This fuses the overflow scan into gradient accumulation: a
    /// non-finite term makes every later running sum non-finite (inf/NaN
    /// propagate through addition), so OR-ing the per-call flags is
    /// exactly equivalent to scanning the fully accumulated gradient
    /// once at step time — without the extra full-gradient pass.
    pub fn accumulate_f32(&self, buf: &mut DeviceBuf, delta: &[f32]) -> Result<bool> {
        if buf.dtype != DType::F32 || delta.len() != buf.numel {
            return Err(Error::shape("accumulate_f32 size/dtype mismatch"));
        }
        match &mut buf.ram {
            Some(ram) => ram.accumulate_f32(delta),
            None => {
                // One pinned buffer held across every chunk bounds the
                // transfer memory of the whole read-modify-write pass
                // (Sec. 6.3); its size sets the chunk granularity.
                let staging = self.pinned.acquire();
                let chunk = (staging.capacity() / DType::F32.size_in_bytes()).max(1);
                let es = DType::F32.size_in_bytes() as u64;
                let mut nonfinite = false;
                let mut start = 0usize;
                while start < buf.numel {
                    let len = chunk.min(buf.numel - start);
                    let off = buf.block.offset + start as u64 * es;
                    let nbytes = DType::F32.bytes_for(len);
                    let ticket = self.nvme.submit_read(off, nbytes);
                    let bytes = self
                        .nvme
                        .wait(ticket)?
                        .ok_or_else(|| Error::Internal("read returned no data".into()))?;
                    let mut bytes = self.verify_or_reread(off, nbytes, bytes)?;
                    for (c, d) in bytes.chunks_exact_mut(4).zip(&delta[start..start + len]) {
                        let sum = f32::from_le_bytes([c[0], c[1], c[2], c[3]]) + d;
                        nonfinite |= !sum.is_finite();
                        c.copy_from_slice(&sum.to_le_bytes());
                    }
                    self.resilience.record(off, &bytes);
                    let ticket = self.nvme.submit_write(off, bytes);
                    self.nvme.wait(ticket)?;
                    start += len;
                }
                drop(staging);
                Ok(nonfinite)
            }
        }
    }

    /// Replace the buffer's entire contents.
    pub fn overwrite(&self, buf: &mut DeviceBuf, data: &FlatBuffer) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite size/dtype mismatch"));
        }
        match &mut buf.ram {
            Some(ram) => {
                *ram = data.clone();
                Ok(())
            }
            None => {
                let _staging = self.pinned.acquire();
                let ticket = self.nvme.submit_write(buf.block.offset, data.as_bytes().to_vec());
                self.nvme.wait(ticket)?;
                self.resilience.record(buf.block.offset, data.as_bytes());
                Ok(())
            }
        }
    }

    /// Overwrite elements starting at `start` with `data`.
    pub fn overwrite_elems(
        &self,
        buf: &mut DeviceBuf,
        start: usize,
        data: &FlatBuffer,
    ) -> Result<()> {
        if data.dtype() != buf.dtype || start + data.numel() > buf.numel {
            return Err(Error::shape("overwrite_elems size/dtype mismatch"));
        }
        match &mut buf.ram {
            Some(ram) => ram.write_slice(start, data),
            None => {
                let es = buf.dtype.size_in_bytes() as u64;
                let off = buf.block.offset + start as u64 * es;
                let _staging = self.pinned.acquire();
                let ticket = self.nvme.submit_write(off, data.as_bytes().to_vec());
                self.nvme.wait(ticket)?;
                // A partial overwrite invalidates the whole-buffer CRC
                // and records one for the sub-extent it wrote.
                self.resilience.record(off, data.as_bytes());
                Ok(())
            }
        }
    }

    /// Asynchronously overwrite the buffer (gradient offload overlap,
    /// Sec. 6.2); completion is guaranteed only after [`Self::flush`].
    pub fn overwrite_async(&self, buf: &mut DeviceBuf, data: &FlatBuffer) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite_async size/dtype mismatch"));
        }
        match &mut buf.ram {
            Some(ram) => {
                *ram = data.clone();
                Ok(())
            }
            None => {
                // Record the CRC at submission: the detached write either
                // lands these exact bytes or reports failure at `flush`.
                self.resilience.record(buf.block.offset, data.as_bytes());
                self.nvme.submit_write_detached(buf.block.offset, data.as_bytes().to_vec());
                Ok(())
            }
        }
    }

    /// Drain all outstanding NVMe requests.
    ///
    /// A device failure here degrades the node instead of erroring: new
    /// stores already avoid the device, and lost detached writes are
    /// caught by the checksum registry when (if ever) the extent is read.
    /// Durability of a dead device is moot, so training continues.
    pub fn flush(&self) -> Result<()> {
        match self.nvme.flush() {
            Err(e) if e.is_device_failure() => {
                self.latch_degraded();
                Ok(())
            }
            r => r,
        }
    }

    /// Release the buffer's device memory.
    pub fn free(&self, buf: DeviceBuf) {
        if buf.device.kind == DeviceKind::Nvme {
            // Drop stale checksums so a future tenant of this extent is
            // not verified against our data.
            self.resilience.invalidate(buf.block.offset, buf.block.len);
        }
        self.hierarchy.free(buf.device, buf.block);
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
/// Unlike [`OffloadManager::overwrite_async`]'s detached writes — whose
/// failures are deferred to the `flush` barrier — every write-behind
/// ticket is waited in [`WriteBehind::drain`] (or during back-pressure),
/// so write failures surface as typed errors on the step path itself:
/// transient faults are retried inside the engine exactly as before, and
/// a device-death error reaches the trainer's recovery loop rather than
/// being discovered at end-of-iteration.
pub struct WriteBehind {
    window: usize,
    inflight: VecDeque<Ticket>,
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

    /// Queue an overwrite of `buf[start .. start + data.numel())`.
    ///
    /// RAM-resident buffers are written synchronously (there is nothing
    /// to overlap); NVMe buffers go through the bounded async window.
    pub fn submit_elems(
        &mut self,
        mgr: &OffloadManager,
        buf: &mut DeviceBuf,
        start: usize,
        data: &FlatBuffer,
    ) -> Result<()> {
        if data.dtype() != buf.dtype || start + data.numel() > buf.numel {
            return Err(Error::shape("write-behind size/dtype mismatch"));
        }
        match &mut buf.ram {
            Some(ram) => ram.write_slice(start, data),
            None => {
                // Harvest writes that already completed before deciding to
                // block: FIFO service completes the oldest tickets first,
                // so reaping from the front retires everything the device
                // has finished. This keeps the window bound meaningful
                // (in-flight requests, not unclaimed completions) and
                // makes the stall counter a true back-pressure signal —
                // it fires only when the device is genuinely behind.
                while let Some(&oldest) = self.inflight.front() {
                    if !mgr.nvme.is_ready(oldest) {
                        break;
                    }
                    self.inflight.pop_front();
                    mgr.nvme.wait(oldest)?;
                }
                if self.inflight.len() >= self.window {
                    // Back-pressure: the device is behind the pipeline.
                    mgr.tracer.count(Counter::WbStalls, 1);
                    let oldest = self.inflight.pop_front().expect("window non-empty");
                    mgr.nvme.wait(oldest)?;
                }
                let es = buf.dtype.size_in_bytes() as u64;
                let off = buf.block.offset + start as u64 * es;
                // CRC recorded at submission: the ticketed write either
                // lands these exact bytes or a wait surfaces the failure.
                mgr.resilience.record(off, data.as_bytes());
                self.inflight.push_back(mgr.nvme.submit_write(off, data.as_bytes().to_vec()));
                Ok(())
            }
        }
    }

    /// Wait out every queued write, surfacing the first failure as a
    /// typed error. All tickets are waited regardless of earlier
    /// failures, so no request leaks into the engine's flush barrier.
    pub fn drain(&mut self, mgr: &OffloadManager) -> Result<()> {
        let mut first_err = None;
        while let Some(ticket) = self.inflight.pop_front() {
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

/// One contiguous piece of a placed shard: a [`DeviceBuf`] plus its
/// element offset within the logical shard.
#[derive(Debug)]
pub struct PlacedSegment {
    start: usize,
    buf: DeviceBuf,
}

impl PlacedSegment {
    /// First shard element this segment covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Elements in this segment.
    pub fn len(&self) -> usize {
        self.buf.numel()
    }

    /// True when the segment holds no elements (never constructed).
    pub fn is_empty(&self) -> bool {
        self.buf.numel() == 0
    }

    /// One past the last shard element this segment covers.
    pub fn end(&self) -> usize {
        self.start + self.buf.numel()
    }

    /// The path the segment currently resolves through. A segment
    /// *planned* for NVMe reports [`PathKind::Cpu`] after a failover
    /// moved its bytes to DRAM — readers care where the bytes are, not
    /// where the plan wanted them.
    pub fn path(&self) -> PathKind {
        self.buf.path()
    }

    /// The backing buffer.
    pub fn buf(&self) -> &DeviceBuf {
        &self.buf
    }
}

/// One logical shard stored under a placement plan: an ordered,
/// disjoint, exhaustive list of per-path [`DeviceBuf`] segments.
///
/// This is the "placement plan per shard" generalization of the old
/// one-backing-store model: a [`PlacementPolicy`] split places part of
/// the shard in CPU DRAM (the cp path) and the rest on NVMe (the nc
/// path), and every ranged operation fans out across the segments it
/// touches — so a streamed pass drives both paths concurrently.
#[derive(Debug)]
pub struct PlacedBuf {
    dtype: DType,
    numel: usize,
    segments: Vec<PlacedSegment>,
}

impl PlacedBuf {
    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements across all segments.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// Size in bytes across all segments.
    pub fn size_in_bytes(&self) -> usize {
        self.dtype.bytes_for(self.numel)
    }

    /// The segments, ordered by `start`, disjoint and exhaustive.
    pub fn segments(&self) -> &[PlacedSegment] {
        &self.segments
    }

    /// Elements currently resolving through `path`.
    pub fn elems_on(&self, path: PathKind) -> usize {
        self.segments.iter().filter(|s| s.path() == path).map(|s| s.len()).sum()
    }

    /// True when the shard is split across both paths.
    pub fn is_split(&self) -> bool {
        self.elems_on(PathKind::Nvme) > 0 && self.elems_on(PathKind::Cpu) > 0
    }

    /// True when any part of the shard still lives on the NVMe device.
    pub fn is_offloaded(&self) -> bool {
        self.segments.iter().any(|s| s.buf.is_offloaded())
    }
}

/// A placed load in flight: one [`PendingLoad`] per touched segment.
/// CPU-path parts resolve immediately; NVMe parts stay queued on the
/// device — so waiting a placed pending overlaps exactly the nc share
/// of the range.
pub struct PlacedPending {
    dtype: DType,
    len: usize,
    /// `(offset within the requested range, part)`, in range order.
    parts: Vec<(usize, PendingLoad)>,
}

impl PlacedPending {
    /// Block until every part landed and assemble the range.
    pub fn wait(mut self, mgr: &OffloadManager) -> Result<FlatBuffer> {
        if self.parts.len() == 1 {
            let (off, part) = self.parts.pop().expect("checked above");
            debug_assert_eq!(off, 0);
            return part.wait(mgr);
        }
        let mut bytes = vec![0u8; self.dtype.bytes_for(self.len)];
        for (off, part) in self.parts {
            let fb = part.wait(mgr)?;
            let lo = self.dtype.bytes_for(off);
            bytes[lo..lo + fb.size_in_bytes()].copy_from_slice(fb.as_bytes());
        }
        FlatBuffer::from_bytes(self.dtype, bytes)
    }

    /// True if any part still has an outstanding NVMe request.
    pub fn is_async(&self) -> bool {
        self.parts.iter().any(|(_, p)| p.is_async())
    }

    /// True once every part is available without blocking.
    pub fn ready(&self, mgr: &OffloadManager) -> bool {
        self.parts.iter().all(|(_, p)| p.ready(mgr))
    }
}

impl OffloadManager {
    /// The device a placement path maps to.
    fn path_device(path: PathKind) -> Device {
        match path {
            PathKind::Cpu => Device::cpu(),
            PathKind::Nvme => Device::nvme(),
        }
    }

    /// Store `data` on `device` under `policy`.
    ///
    /// Only NVMe-tier stores split: `policy` decides what fraction of
    /// the shard stays in CPU DRAM (interleaved at the policy's stripe),
    /// and the rest goes to the device. GPU/CPU-tier stores ignore the
    /// policy (one RAM segment). A degraded node collapses the plan to
    /// all-CPU up front, and an NVMe segment whose write dies mid-store
    /// fails over *alone* — the other segments keep their placement
    /// (this is the placement-aware fix for the old whole-shard
    /// failover assumption).
    pub fn store_placed(
        &self,
        device: Device,
        policy: &PlacementPolicy,
        data: FlatBuffer,
    ) -> Result<PlacedBuf> {
        let dtype = data.dtype();
        let numel = data.numel();
        if device.kind != DeviceKind::Nvme {
            let buf = self.store(device, data)?;
            return Ok(PlacedBuf { dtype, numel, segments: vec![PlacedSegment { start: 0, buf }] });
        }
        let policy = if self.is_degraded() { PlacementPolicy::all_cpu() } else { *policy };
        let plan = policy.plan(numel);
        let mut segments: Vec<PlacedSegment> = Vec::with_capacity(plan.segments().len());
        for seg in plan.segments() {
            let part = if plan.is_single_path() && seg.len == numel {
                data.clone()
            } else {
                data.slice(seg.start, seg.len)?
            };
            let target = Self::path_device(seg.path);
            if seg.path == PathKind::Cpu {
                let mut span = self.tracer.span(Category::CpTransfer, "cp.store");
                span.set_bytes(part.size_in_bytes() as u64);
                self.tracer.count(Counter::CpWriteBytes, part.size_in_bytes() as u64);
            }
            // `store` handles the per-segment failover: a device death
            // mid-write moves only this segment's bytes to CPU.
            match self.store(target, part) {
                Ok(buf) => segments.push(PlacedSegment { start: seg.start, buf }),
                Err(e) => {
                    for stored in segments {
                        self.free(stored.buf);
                    }
                    return Err(e);
                }
            }
        }
        Ok(PlacedBuf { dtype, numel, segments })
    }

    /// Load the entire placed shard, reassembling split segments.
    pub fn load_placed(&self, buf: &PlacedBuf) -> Result<FlatBuffer> {
        if buf.segments.len() == 1 {
            return self.load(&buf.segments[0].buf);
        }
        let mut bytes = vec![0u8; buf.size_in_bytes()];
        for seg in &buf.segments {
            let fb = self.load(&seg.buf)?;
            let lo = buf.dtype.bytes_for(seg.start);
            bytes[lo..lo + fb.size_in_bytes()].copy_from_slice(fb.as_bytes());
        }
        FlatBuffer::from_bytes(buf.dtype, bytes)
    }

    /// Begin an asynchronous load of elements `[start, start+len)` of a
    /// placed shard. NVMe parts are issued to the device immediately;
    /// CPU-DRAM parts are materialized here under a cp-hop span — so a
    /// pipelined caller streams both paths concurrently.
    pub fn begin_load_elems_placed(
        &self,
        buf: &PlacedBuf,
        start: usize,
        len: usize,
    ) -> Result<PlacedPending> {
        if start + len > buf.numel {
            return Err(Error::shape(format!(
                "begin_load_elems_placed [{start}, {}) out of shard of {} elements",
                start + len,
                buf.numel
            )));
        }
        let end = start + len;
        let mut parts = Vec::new();
        for seg in &buf.segments {
            if seg.end() <= start {
                continue;
            }
            if seg.start() >= end {
                break;
            }
            let lo = seg.start().max(start);
            let hi = seg.end().min(end);
            let part = if seg.path() == PathKind::Cpu {
                let nbytes = buf.dtype.bytes_for(hi - lo) as u64;
                let mut span = self.tracer.span(Category::CpTransfer, "cp.read");
                span.set_bytes(nbytes);
                span.set_id(lo as u64);
                let p = self.begin_load_elems(&seg.buf, lo - seg.start(), hi - lo)?;
                self.tracer.count(Counter::CpReadBytes, nbytes);
                p
            } else {
                self.begin_load_elems(&seg.buf, lo - seg.start(), hi - lo)?
            };
            parts.push((lo - start, part));
        }
        Ok(PlacedPending { dtype: buf.dtype, len, parts })
    }

    /// Replace the placed shard's entire contents, each segment over its
    /// own path.
    pub fn overwrite_placed(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite_placed size/dtype mismatch"));
        }
        let single = buf.segments.len() == 1;
        for seg in &mut buf.segments {
            let part = if single { data.clone() } else { data.slice(seg.start, seg.buf.numel())? };
            if seg.path() == PathKind::Cpu {
                let mut span = self.tracer.span(Category::CpTransfer, "cp.write");
                span.set_bytes(part.size_in_bytes() as u64);
                self.tracer.count(Counter::CpWriteBytes, part.size_in_bytes() as u64);
            }
            self.overwrite(&mut seg.buf, &part)?;
        }
        Ok(())
    }

    /// Asynchronously overwrite the placed shard: NVMe segments go out
    /// as detached writes (completion at [`Self::flush`]), CPU segments
    /// land synchronously under a cp-hop span.
    pub fn overwrite_async_placed(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite_async_placed size/dtype mismatch"));
        }
        let single = buf.segments.len() == 1;
        for seg in &mut buf.segments {
            let part = if single { data.clone() } else { data.slice(seg.start, seg.buf.numel())? };
            if seg.path() == PathKind::Cpu {
                let mut span = self.tracer.span(Category::CpTransfer, "cp.write");
                span.set_bytes(part.size_in_bytes() as u64);
                self.tracer.count(Counter::CpWriteBytes, part.size_in_bytes() as u64);
            }
            self.overwrite_async(&mut seg.buf, &part)?;
        }
        Ok(())
    }

    /// Re-publish every NVMe-resident segment of a split shard to CPU
    /// DRAM, leaving DRAM-resident segments untouched, then release the
    /// NVMe extents. This is the graceful degradation path: when the
    /// node degrades while the device still answers reads (explicit
    /// degrade, health-driven collapse), the NVMe-resident *half* of a
    /// split shard is preserved rather than dropped with the store.
    /// Reads are checksum-verified; a dead device surfaces its typed
    /// error so the caller falls back to checkpoint recovery.
    pub fn collapse_placed(&self, buf: &mut PlacedBuf) -> Result<()> {
        for seg in &mut buf.segments {
            if !seg.buf.is_offloaded() {
                continue;
            }
            let data = self.load(&seg.buf)?;
            let cpu = self.store(Device::cpu(), data)?;
            self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
            let old = std::mem::replace(&mut seg.buf, cpu);
            self.free(old);
        }
        Ok(())
    }

    /// Move a placed shard to a new placement: load it whole, store it
    /// under `policy`, free the old segments. The re-tier knob's
    /// mechanism — bit-preserving by construction (load/store round
    /// trip), so placement moves are numerically invisible.
    pub fn retier_placed(
        &self,
        buf: &mut PlacedBuf,
        device: Device,
        policy: &PlacementPolicy,
    ) -> Result<()> {
        let data = self.load_placed(buf)?;
        let fresh = self.store_placed(device, policy, data)?;
        let old = std::mem::replace(buf, fresh);
        self.free_placed(old);
        Ok(())
    }

    /// Release every segment of a placed shard.
    pub fn free_placed(&self, buf: PlacedBuf) {
        for seg in buf.segments {
            self.free(seg.buf);
        }
    }
}

impl WriteBehind {
    /// Queue an overwrite of `buf[start .. start + data.numel())` of a
    /// placed shard: NVMe parts enter the bounded async window, CPU
    /// parts land synchronously under a cp-hop span — the write half of
    /// the two-path stream.
    pub fn submit_elems_placed(
        &mut self,
        mgr: &OffloadManager,
        buf: &mut PlacedBuf,
        start: usize,
        data: &FlatBuffer,
    ) -> Result<()> {
        if data.dtype() != buf.dtype || start + data.numel() > buf.numel {
            return Err(Error::shape("write-behind size/dtype mismatch"));
        }
        let end = start + data.numel();
        let single = buf.segments.len() == 1;
        for seg in &mut buf.segments {
            if seg.end() <= start {
                continue;
            }
            if seg.start() >= end {
                break;
            }
            let lo = seg.start().max(start);
            let hi = seg.end().min(end);
            let part = if single && lo == start && hi == end {
                data.clone()
            } else {
                data.slice(lo - start, hi - lo)?
            };
            if seg.path() == PathKind::Cpu {
                let mut span = mgr.tracer.span(Category::CpTransfer, "cp.write");
                span.set_bytes(part.size_in_bytes() as u64);
                span.set_id(lo as u64);
                mgr.tracer.count(Counter::CpWriteBytes, part.size_in_bytes() as u64);
                self.submit_elems(mgr, &mut seg.buf, lo - seg.start, &part)?;
            } else {
                self.submit_elems(mgr, &mut seg.buf, lo - seg.start, &part)?;
            }
        }
        Ok(())
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

    #[test]
    fn store_load_round_trip_every_tier() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            let data = buf_f32(&[1.0, -2.0, 3.5]);
            let buf = mgr.store(device, data.clone()).unwrap();
            assert_eq!(buf.device(), device);
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
            let mut buf = mgr.store(device, buf_f32(&[0.0, 1.0, 2.0, 3.0, 4.0])).unwrap();
            let mid = mgr.load_elems(&buf, 1, 3).unwrap();
            assert_eq!(mid.to_f32_vec(), vec![1.0, 2.0, 3.0]);
            mgr.overwrite_elems(&mut buf, 2, &buf_f32(&[9.0, 8.0])).unwrap();
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
        let err = mgr.store(Device::gpu(0), buf_f32(&[0.0; 5])).unwrap_err();
        assert!(err.is_oom());
        // Same data fits on CPU.
        let buf = mgr.store(Device::cpu(), buf_f32(&[0.0; 5])).unwrap();
        mgr.free(buf);
    }

    #[test]
    fn async_load_overlaps() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[7.0; 64])).unwrap();
        let pending = mgr.begin_load(&buf).unwrap();
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
        let buf = mgr.store(Device::cpu(), buf_f32(&[1.0, 2.0])).unwrap();
        let pending = mgr.begin_load(&buf).unwrap();
        assert!(!pending.is_async());
        assert_eq!(pending.wait(&mgr).unwrap().to_f32_vec(), vec![1.0, 2.0]);
        mgr.free(buf);
    }

    #[test]
    fn async_overwrite_visible_after_flush() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), buf_f32(&[0.0; 8])).unwrap();
        mgr.overwrite_async(&mut buf, &buf_f32(&[5.0; 8])).unwrap();
        mgr.flush().unwrap();
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![5.0; 8]);
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
        (plan, NodeResources::with_backend_policy(&spec, 1, backend, policy))
    }

    #[test]
    fn silent_corruption_is_detected_and_repaired_by_reread() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[3.25; 128])).unwrap();
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
        let buf = mgr.store(Device::nvme(), buf_f32(&[1.0; 64])).unwrap();
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
        let buf = mgr.store(Device::nvme(), buf_f32(&[9.0; 32])).unwrap();
        plan.bitflip_next_reads(1);
        let pending = mgr.begin_load(&buf).unwrap();
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
        let buf = mgr.store(Device::nvme(), buf_f32(&[2.5; 16])).unwrap();
        assert_eq!(buf.device(), Device::cpu());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![2.5; 16]);
        let health = mgr.health();
        assert!(health.degraded);
        assert_eq!(health.failovers, 1);
        // Later stores skip the dead device entirely.
        let buf2 = mgr.store(Device::nvme(), buf_f32(&[4.0; 8])).unwrap();
        assert_eq!(buf2.device(), Device::cpu());
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
        let buf = mgr.store(Device::nvme(), buf_f32(&[1.5; 4])).unwrap();
        assert_eq!(buf.device(), Device::cpu());
        assert!(mgr.health().degraded);
        mgr.free(buf);
    }

    #[test]
    fn transient_store_faults_recover_without_failover() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.fail_next_writes(2); // < max_attempts
        let buf = mgr.store(Device::nvme(), buf_f32(&[8.0; 8])).unwrap();
        assert_eq!(buf.device(), Device::nvme());
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
        let mut buf = mgr.store(Device::cpu(), buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.load_elems(&buf, 3, 2).is_err());
        assert!(mgr.overwrite_elems(&mut buf, 3, &buf_f32(&[0.0; 2])).is_err());
        assert!(mgr.overwrite(&mut buf, &buf_f32(&[0.0; 5])).is_err());
        assert!(mgr.begin_load_elems(&buf, 3, 2).is_err());
        let mut wb = WriteBehind::new(2);
        assert!(wb.submit_elems(&mgr, &mut buf, 3, &buf_f32(&[0.0; 2])).is_err());
        mgr.free(buf);
    }

    #[test]
    fn partial_async_load_matches_sync() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        for device in [Device::cpu(), Device::nvme()] {
            let buf = mgr.store(device, buf_f32(&vals)).unwrap();
            let pending = mgr.begin_load_elems(&buf, 10, 20).unwrap();
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
        let mut buf = mgr.store(Device::nvme(), buf_f32(&[0.0; 32])).unwrap();
        mgr.overwrite_elems(&mut buf, 8, &buf_f32(&[4.0; 8])).unwrap();
        plan.bitflip_next_reads(1);
        let data = mgr.begin_load_elems(&buf, 8, 8).unwrap().wait(&mgr).unwrap();
        assert_eq!(data.to_f32_vec(), vec![4.0; 8]);
        assert_eq!(mgr.health().corruptions_recovered, 1);
        mgr.free(buf);
    }

    #[test]
    fn write_behind_bounds_inflight_and_lands_every_chunk() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), buf_f32(&[0.0; 64])).unwrap();
        let mut wb = WriteBehind::new(2);
        for k in 0..8 {
            wb.submit_elems(&mgr, &mut buf, k * 8, &buf_f32(&[k as f32; 8])).unwrap();
            assert!(wb.in_flight() <= 2, "window respected");
        }
        wb.drain(&mgr).unwrap();
        assert_eq!(wb.in_flight(), 0);
        let back = mgr.load(&buf).unwrap().to_f32_vec();
        for k in 0..8 {
            assert_eq!(&back[k * 8..(k + 1) * 8], &[k as f32; 8][..], "chunk {k}");
        }
        // RAM-resident buffers write synchronously through the same API.
        let mut cbuf = mgr.store(Device::cpu(), buf_f32(&[0.0; 8])).unwrap();
        wb.submit_elems(&mgr, &mut cbuf, 2, &buf_f32(&[7.0; 4])).unwrap();
        assert_eq!(wb.in_flight(), 0);
        assert_eq!(mgr.load(&cbuf).unwrap().to_f32_vec(), vec![0.0, 0.0, 7.0, 7.0, 7.0, 7.0, 0.0, 0.0]);
        mgr.free(buf);
        mgr.free(cbuf);
    }

    #[test]
    fn write_behind_surfaces_device_death_as_typed_error() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), buf_f32(&[0.0; 16])).unwrap();
        let mut wb = WriteBehind::new(4);
        plan.kill();
        // Submission harvests already-completed tickets before queuing,
        // so the death can surface at the second submit (when the worker
        // retired the first failed write in between) or at drain — the
        // same typed error either way.
        let early = wb
            .submit_elems(&mgr, &mut buf, 0, &buf_f32(&[1.0; 8]))
            .and_then(|()| wb.submit_elems(&mgr, &mut buf, 8, &buf_f32(&[2.0; 8])));
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
        let mut buf = mgr.store(Device::nvme(), buf_f32(&[0.0; 16])).unwrap();
        let mut wb = WriteBehind::new(2);
        plan.fail_next_writes(2); // < max_attempts
        wb.submit_elems(&mgr, &mut buf, 0, &buf_f32(&[3.0; 16])).unwrap();
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
            let mut buf = mgr.store(device, buf_f32(&[1.0; 40])).unwrap();
            assert!(!mgr.accumulate_f32(&mut buf, &[0.5; 40]).unwrap(), "tier {device}");
            assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![1.5; 40]);
            let mut delta = vec![0.0f32; 40];
            delta[17] = f32::INFINITY;
            assert!(mgr.accumulate_f32(&mut buf, &delta).unwrap(), "tier {device}");
            mgr.free(buf);
        }
        // Shape/dtype errors are typed, not silent.
        let mut small = mgr.store(Device::cpu(), buf_f32(&[0.0; 4])).unwrap();
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
            placement: Arc::new(PlanCell::new(PlacementPolicy::all_nvme())),
            tracer: Tracer::new(),
        };
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let delta: Vec<f32> = (0..100).map(|i| 0.25 * i as f32).collect();
        let mut buf = mgr.store(Device::nvme(), buf_f32(&vals)).unwrap();
        assert!(!mgr.accumulate_f32(&mut buf, &delta).unwrap());
        let want: Vec<f32> = vals.iter().zip(&delta).map(|(a, b)| a + b).collect();
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), want);
        mgr.free(buf);
    }

    #[test]
    fn placed_split_round_trips_and_interleaves() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let policy = PlacementPolicy::split(500, 16);
        let buf = mgr.store_placed(Device::nvme(), &policy, buf_f32(&vals)).unwrap();
        assert!(buf.is_split());
        assert!(buf.segments().len() >= 4, "stripes should interleave, not partition");
        let cpu = buf.elems_on(PathKind::Cpu);
        assert!((112..=144).contains(&cpu), "cpu share {cpu} far from 50%");
        assert_eq!(buf.elems_on(PathKind::Cpu) + buf.elems_on(PathKind::Nvme), 256);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        assert_eq!(mgr.hierarchy().stats(Device::cpu()).in_use, 0);
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
    }

    #[test]
    fn placed_single_path_policies_behave_like_plain_stores() {
        let node = node();
        let mgr = node.offload_manager();
        let vals = vec![1.5f32; 32];
        let nv = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::all_nvme(), buf_f32(&vals))
            .unwrap();
        assert_eq!(nv.segments().len(), 1);
        assert!(nv.is_offloaded());
        let cp =
            mgr.store_placed(Device::nvme(), &PlacementPolicy::all_cpu(), buf_f32(&vals)).unwrap();
        assert_eq!(cp.segments().len(), 1);
        assert!(!cp.is_offloaded());
        // A non-NVMe target ignores the policy entirely.
        let gpu =
            mgr.store_placed(Device::gpu(0), &PlacementPolicy::split(500, 4), buf_f32(&vals)).unwrap();
        assert_eq!(gpu.segments().len(), 1);
        assert_eq!(gpu.segments()[0].buf().device(), Device::gpu(0));
        for b in [nv, cp, gpu] {
            mgr.free_placed(b);
        }
    }

    #[test]
    fn placed_ranged_load_spans_both_paths() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| (i as f32) * 0.25).collect();
        let buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(500, 16), buf_f32(&vals))
            .unwrap();
        let pending = mgr.begin_load_elems_placed(&buf, 5, 100).unwrap();
        assert!(pending.is_async(), "NVMe part of the range should be queued on the device");
        let got = pending.wait(&mgr).unwrap();
        assert_eq!(got.to_f32_vec(), vals[5..105].to_vec());
        let snap = mgr.tracer.snapshot();
        assert!(snap.cp_read_bytes > 0, "cp hop should account the DRAM share");
        assert!(mgr.begin_load_elems_placed(&buf, 200, 100).is_err(), "bounds enforced");
        mgr.free_placed(buf);
    }

    #[test]
    fn placed_write_behind_lands_every_chunk_on_both_paths() {
        let node = node();
        let mgr = node.offload_manager();
        let n = 128;
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(500, 8), buf_f32(&vec![0.0; n]))
            .unwrap();
        let want: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5 - 7.0).collect();
        let mut wb = WriteBehind::new(2);
        for start in (0..n).step_by(10) {
            let hi = (start + 10).min(n);
            wb.submit_elems_placed(&mgr, &mut buf, start, &buf_f32(&want[start..hi])).unwrap();
        }
        wb.drain(&mgr).unwrap();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), want);
        assert!(mgr.tracer.snapshot().cp_write_bytes > 0);
        mgr.free_placed(buf);
    }

    #[test]
    fn placed_async_overwrite_visible_after_flush() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(250, 4), buf_f32(&[0.0; 64]))
            .unwrap();
        mgr.overwrite_async_placed(&mut buf, &buf_f32(&[4.5; 64])).unwrap();
        mgr.flush().unwrap();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![4.5; 64]);
        mgr.free_placed(buf);
    }

    #[test]
    fn explicit_degrade_collapses_split_shard_preserving_nvme_half() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(250, 8), buf_f32(&vals))
            .unwrap();
        assert!(buf.elems_on(PathKind::Nvme) > 0);
        node.degrade();
        // Degradation publishes the collapse policy through the plan cell
        // so every reader sees a whole (never torn) all-CPU policy.
        let (version, policy) = mgr.placement_cell().read();
        assert!(version >= 1);
        assert_eq!(policy, PlacementPolicy::all_cpu());
        mgr.collapse_placed(&mut buf).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert!(!buf.is_offloaded());
        // The NVMe-resident half came across bit-identical; the CPU half
        // was never touched.
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        assert!(mgr.health().failovers > 0);
        mgr.free_placed(buf);
    }

    #[test]
    fn dead_device_fails_split_store_over_per_segment() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.kill();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        // Each planned-NVMe segment fails over alone, bytes in hand; the
        // DRAM segments never saw the device at all.
        let buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(500, 8), buf_f32(&vals))
            .unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert!(mgr.is_degraded());
        assert_eq!(mgr.placement_cell().read().1, PlacementPolicy::all_cpu());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        // Once degraded, later placed stores collapse their plan up front.
        let after = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(500, 8), buf_f32(&vals))
            .unwrap();
        assert_eq!(after.segments().len(), 1);
        assert!(!after.is_offloaded());
        mgr.free_placed(after);
    }

    #[test]
    fn retier_moves_placement_without_changing_bits() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..300).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::all_nvme(), buf_f32(&vals))
            .unwrap();
        assert_eq!(buf.elems_on(PathKind::Cpu), 0);
        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::split(500, 16)).unwrap();
        assert!(buf.is_split());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::all_cpu()).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        assert_eq!(mgr.hierarchy().stats(Device::cpu()).in_use, 0);
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
    }
}
