//! The per-rank ZeRO engine: a [`ParamStore`] with partitioning, offload,
//! gather-on-demand, gradient reduce-scatter and an offloaded optimizer.
//!
//! ## Lifecycle of a parameter (ZeRO-3 / ZeRO-Infinity path)
//!
//! 1. **Init** — each rank materializes the deterministic initial values
//!    one parameter at a time, keeps only its own padded shard (cast to
//!    the storage dtype) and places it on the configured device. The full
//!    model is never resident on any rank (Sec. 7.2).
//! 2. **Fetch** (`get`) — the shard is read from its tier (prefetched
//!    NVMe reads are consumed here), all shards are allgathered
//!    (bandwidth-centric partitioning, Sec. 6.1: every rank's PCIe/NVMe
//!    link carries 1/dp of the parameter), the padding is stripped and
//!    the f32 compute tensor is charged against GPU working memory.
//! 3. **Release** — the gathered tensor is dropped and its GPU working
//!    memory freed; only the shard remains.
//! 4. **Gradient** (`add_grad`) — the full local gradient is
//!    reduce-scattered; each rank accumulates its own shard on the
//!    gradient tier.
//! 5. **Step** — each rank streams every optimizer-state shard through
//!    one step-wide pipeline of bounded chunks (NVMe→CPU→update→NVMe,
//!    Sec. 5.2.2) whose reads and write-behind run across parameter
//!    boundaries, updates the fp32 master, and writes the fresh fp16
//!    shard back to the parameter tier through the same write-behind.
//!    Replicated-parameter strategies (ZeRO-1/2/Offload) instead allgather
//!    the updated slices back into every replica.

use std::collections::{HashMap, VecDeque};

use zi_comm::{Communicator, Partitioner};
use zi_memory::{Block, ScratchPool};
use zi_model::{ParamId, ParamRegistry, ParamStore};
use zi_optim::{adam_update_chunk_publish, AdamConfig, LossScaler};
use zi_tensor::{FlatBuffer, Tensor};
use zi_trace::{Category, Counter};
use zi_types::{DType, Device, DeviceKind, Error, Result};

use crate::config::Strategy;
use crate::offload::{OffloadManager, PendingRead, PlacedBuf, WriteBehind};
use crate::prefetch::{PrefetchStats, Prefetcher, TraceMap};

/// How parameters are stored between uses.
enum ParamStorage {
    /// Every rank holds only its padded shard.
    Partitioned(PlacedBuf),
    /// Every rank holds the full tensor.
    Replicated(PlacedBuf),
}

/// Accumulated gradient for one parameter (f32).
enum GradStorage {
    /// This rank's reduce-scattered shard (padded length / world).
    Partitioned(PlacedBuf),
    /// Fully reduced gradient replicated on every rank.
    Replicated(PlacedBuf),
}

/// Optimizer state (fp32 master/momentum/variance) for this rank's
/// update range. Each of the three lives under a placement plan: for
/// NVMe-tier optimizer state the shard may be split between CPU DRAM
/// and the device, and the streamed step drives both paths at once. The
/// policy the three were last (re)stored under, compared against the
/// strategy's current one to detect re-tier drift, is `master.policy()`.
struct OptimStorage {
    master: PlacedBuf,
    m: PlacedBuf,
    v: PlacedBuf,
    step: u64,
}

/// Everything the engine tracks for one parameter.
struct ShardState {
    shape: Vec<usize>,
    numel: usize,
    shard_len: usize,
    param: ParamStorage,
    grad: Option<GradStorage>,
    /// Set when any accumulated gradient element went non-finite; the
    /// overflow scan is fused into accumulation (a non-finite term keeps
    /// every later running sum non-finite, so OR-ing per-deposit flags
    /// equals scanning the final gradient) — `step` reads the flags
    /// instead of re-loading every gradient buffer.
    grad_nonfinite: bool,
    optim: OptimStorage,
}

/// A gathered parameter currently resident in GPU working memory.
struct Resident {
    tensor: Tensor,
    refcount: usize,
    gpu_block: Block,
}

/// Counters describing the engine's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Parameter allgathers performed.
    pub allgathers: u64,
    /// Elements moved by parameter allgathers (full, padded).
    pub gathered_elems: u64,
    /// Gradient reduce-scatters (or allreduces) performed.
    pub grad_reductions: u64,
    /// `get` calls satisfied from the resident cache.
    pub cache_hits: u64,
    /// Optimizer chunks streamed through CPU memory.
    pub optimizer_chunks: u64,
    /// Steps skipped because of non-finite gradients.
    pub skipped_steps: u64,
    /// Optimizer steps applied.
    pub steps: u64,
    /// Optimizer chunks whose update began while device I/O (later
    /// chunks' reads or earlier chunks' write-behind) was still in
    /// flight — the pipelined step's achieved read/update/write overlap.
    pub step_io_overlap: u64,
    /// Prefetcher effectiveness.
    pub prefetch: PrefetchStats,
}

/// Per-rank ZeRO / ZeRO-Infinity engine.
pub struct ZeroEngine {
    strategy: Strategy,
    mgr: OffloadManager,
    comm: Communicator,
    gpu_index: usize,
    part: Partitioner,
    adam: AdamConfig,
    scaler: LossScaler,
    shards: Vec<ShardState>,
    /// Extra gradient divisor for multi-micro-batch accumulation.
    grad_accum_steps: f32,
    resident: HashMap<ParamId, Resident>,
    prefetcher: Prefetcher,
    trace: TraceMap,
    /// Recycled f32 chunk buffers for the streaming optimizer step.
    scratch: ScratchPool,
    stats: EngineStats,
}

impl ZeroEngine {
    /// Build the engine for one rank, initializing and immediately
    /// partitioning/offloading every parameter of `registry`.
    pub fn new(
        registry: &ParamRegistry,
        strategy: Strategy,
        mgr: OffloadManager,
        comm: Communicator,
        adam: AdamConfig,
    ) -> Result<Self> {
        let gpu_index = comm.rank();
        Self::new_with_gpu(registry, strategy, mgr, comm, adam, gpu_index)
    }

    /// Like [`ZeroEngine::new`] but with an explicit GPU pool index,
    /// needed when tensor parallelism gives several engines the same
    /// data-parallel rank on one node (gpu = dp_rank * mp + mp_rank).
    pub fn new_with_gpu(
        registry: &ParamRegistry,
        strategy: Strategy,
        mgr: OffloadManager,
        comm: Communicator,
        adam: AdamConfig,
        gpu_index: usize,
    ) -> Result<Self> {
        // ZeRO stages nest: params ⊆ grads ⊆ optimizer partitioning.
        if strategy.partition_params && !strategy.partition_grads
            || strategy.partition_grads && !strategy.partition_optimizer
        {
            return Err(Error::InvalidArgument(
                "invalid stage combination: ZeRO partitioning must nest \
                 (optimizer ⊇ grads ⊇ params)"
                    .into(),
            ));
        }
        if strategy.optimizer_chunk == 0 {
            return Err(Error::InvalidArgument("optimizer_chunk must be nonzero".into()));
        }
        if strategy.step_pipeline_depth == 0 {
            return Err(Error::InvalidArgument(
                "step_pipeline_depth must be at least 1 (1 = sequential)".into(),
            ));
        }
        let rank = comm.rank();
        let world = comm.world_size();
        let part = Partitioner::new(world);
        let _ = rank;
        let mut shards = Vec::with_capacity(registry.len());
        for meta in registry.iter() {
            // One parameter at a time: peak init memory is a single
            // parameter, never the whole model (Sec. 7.2).
            let full = meta.init_tensor();
            let numel = full.numel();
            let shard_len = part.shard_len(numel);

            let param_device = device_for(strategy.placement.params, gpu_index);
            let param = if strategy.partition_params {
                let mut padded = full.data().to_vec();
                padded.resize(part.padded_len(numel), 0.0);
                let range = part.shard_range(numel, rank);
                let shard =
                    FlatBuffer::from_f32(strategy.param_dtype, &padded[range]);
                ParamStorage::Partitioned(mgr.store(param_device, None, shard)?)
            } else {
                let buf = FlatBuffer::from_f32(strategy.param_dtype, full.data());
                ParamStorage::Replicated(mgr.store(param_device, None, buf)?)
            };

            // Optimizer master state initialized from the same values so
            // fp32 masters agree with (or refine) the stored params.
            let optim_device = device_for(strategy.placement.optimizer, gpu_index);
            let master_vals: Vec<f32> = if strategy.partition_optimizer {
                let mut padded = full.data().to_vec();
                padded.resize(part.padded_len(numel), 0.0);
                padded[part.shard_range(numel, rank)].to_vec()
            } else {
                full.data().to_vec()
            };
            let opt_len = master_vals.len();
            let policy = Some(strategy.optimizer_policy());
            let optim = OptimStorage {
                master: mgr.store(
                    optim_device,
                    policy,
                    FlatBuffer::from_f32(DType::F32, &master_vals),
                )?,
                m: mgr.store(optim_device, policy, FlatBuffer::zeros(DType::F32, opt_len))?,
                v: mgr.store(optim_device, policy, FlatBuffer::zeros(DType::F32, opt_len))?,
                step: 0,
            };

            shards.push(ShardState {
                shape: meta.shape.clone(),
                numel,
                shard_len,
                param,
                grad: None,
                grad_nonfinite: false,
                optim,
            });
        }
        Ok(ZeroEngine {
            strategy,
            mgr,
            comm,
            gpu_index,
            part,
            adam,
            scaler: LossScaler::default(),
            shards,
            grad_accum_steps: 1.0,
            resident: HashMap::new(),
            prefetcher: Prefetcher::new(),
            trace: TraceMap::new(),
            scratch: ScratchPool::new(),
            stats: EngineStats::default(),
        })
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Data-parallel world size of this engine's communicator group.
    pub fn world_size(&self) -> usize {
        self.comm.world_size()
    }

    /// Activity counters (prefetch stats folded in).
    pub fn stats(&self) -> EngineStats {
        EngineStats { prefetch: self.prefetcher.stats(), ..self.stats }
    }

    /// Strategy in force.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The offload manager (for pool statistics in tests/benches).
    pub fn offload_manager(&self) -> &OffloadManager {
        &self.mgr
    }

    fn gpu_device(&self) -> Device {
        Device::gpu(self.gpu_index)
    }

    /// Fetch the full f32 values of a parameter from wherever they live.
    fn gather_values(&mut self, id: ParamId) -> Result<Vec<f32>> {
        let st = &self.shards[id.0];
        match &st.param {
            ParamStorage::Replicated(buf) => Ok(self.mgr.load(buf)?.to_f32_vec()),
            ParamStorage::Partitioned(buf) => {
                let shard = if self.strategy.prefetch {
                    self.prefetcher.fetch(&self.mgr, id, buf)?
                } else {
                    self.mgr.load(buf)?
                };
                let gathered = self.comm.allgather_bytes(shard.as_bytes())?;
                self.stats.allgathers += 1;
                self.stats.gathered_elems += (st.shard_len * self.part.world) as u64;
                let fb = FlatBuffer::from_bytes(self.strategy.param_dtype, gathered)?;
                let mut vals = fb.to_f32_vec();
                vals.truncate(st.numel);
                Ok(vals)
            }
        }
    }

    /// Issue trace-predicted prefetches for the next parameters.
    fn prefetch_ahead(&mut self) {
        if !self.strategy.prefetch || !self.trace.has_history() {
            return;
        }
        for nid in self.trace.predict_next(self.strategy.prefetch_window) {
            if self.resident.contains_key(&nid) || self.prefetcher.is_pending(nid) {
                continue;
            }
            if let ParamStorage::Partitioned(buf) = &self.shards[nid.0].param {
                // Prefetch failures are not fatal: the demand path retries.
                let _ = self.prefetcher.prefetch(&self.mgr, nid, buf);
            }
        }
    }

    /// Accumulate `delta` into the gradient storage for `id`.
    fn accumulate_grad(&mut self, id: ParamId, delta: &[f32], partitioned: bool) -> Result<()> {
        let grad_device = device_for(self.strategy.placement.grads, self.gpu_index);
        let st = &mut self.shards[id.0];
        match &mut st.grad {
            Some(gs) => {
                let buf = match gs {
                    GradStorage::Partitioned(b) | GradStorage::Replicated(b) => b,
                };
                if buf.numel() != delta.len() {
                    return Err(Error::Internal("gradient accumulation length drift".into()));
                }
                // In place on the gradient tier: no load→add→overwrite
                // round trip, and the overflow scan rides the same pass.
                st.grad_nonfinite |= self.mgr.accumulate_f32(buf, delta)?;
            }
            slot @ None => {
                let buf =
                    self.mgr.store(grad_device, None, FlatBuffer::from_f32(DType::F32, delta))?;
                *slot = Some(if partitioned {
                    GradStorage::Partitioned(buf)
                } else {
                    GradStorage::Replicated(buf)
                });
                st.grad_nonfinite = LossScaler::has_overflow(delta);
            }
        }
        Ok(())
    }

    /// Drop all accumulated gradients (used when a step is skipped).
    pub fn clear_grads(&mut self) {
        for st in &mut self.shards {
            st.grad_nonfinite = false;
            if let Some(gs) = st.grad.take() {
                let buf = match gs {
                    GradStorage::Partitioned(b) | GradStorage::Replicated(b) => b,
                };
                self.mgr.free(buf);
            }
        }
    }

    /// Apply one optimizer step. Returns `false` if the step was skipped
    /// because some rank saw non-finite gradients (dynamic loss scaling
    /// backoff), `true` if parameters were updated.
    pub fn step(&mut self) -> Result<bool> {
        let step_tracer = self.mgr.tracer().clone();
        let _span = step_tracer.span(Category::OptimStep, "optim.step");
        self.sync_optimizer_placement()?;
        // Global overflow check: any non-finite gradient anywhere skips
        // the step on every rank. The scan itself happened during
        // accumulation (see `ShardState::grad_nonfinite`), so this costs
        // one flag sweep and one collective — no gradient re-load.
        let local_overflow =
            if self.shards.iter().any(|st| st.grad_nonfinite) { 1.0f32 } else { 0.0 };
        let any_overflow = self.comm.sum_scalar(local_overflow)? > 0.0;
        if any_overflow {
            self.clear_grads();
            self.scaler.update(true);
            self.stats.skipped_steps += 1;
            self.end_iteration()?;
            return Ok(false);
        }
        self.scaler.update(false);

        let mut wb = WriteBehind::new(self.strategy.write_behind_bound());
        let mut reads = VecDeque::new();
        let streamed = self.stream_step(&mut wb, &mut reads);
        // Reconcile every ticket on every path — reads still queued after
        // an error, then the write-behind — so no request leaks into the
        // flush barrier; the first error wins.
        for read in reads {
            for load in read.loads {
                let _ = load.wait(&self.mgr);
            }
        }
        streamed.and(wb.drain(&self.mgr))?;
        self.stats.steps += 1;
        self.end_iteration()?;
        Ok(true)
    }

    /// The optimizer step as one stream over every shard's chunks, in
    /// parameter order (Sec. 5.2.2 + overlap-centric design, Sec. 6.2).
    ///
    /// While chunk k runs `adam_update_chunk_publish`, the master/m/v
    /// reads of chunks k+1..k+depth are already in flight — across
    /// parameter boundaries, so many small parameters still keep the
    /// device busy — and every earlier write-back drains through the
    /// step-wide window `wb` under back-pressure. A shard publishes its
    /// fp16 values as soon as its last chunk is updated: partitioned
    /// parameters through `wb` as well, replicated ones through their
    /// allgather (a collective, so in shard order on every rank).
    /// `depth == 1` degenerates to the sequential read→update→write loop:
    /// the window is drained after every chunk.
    ///
    /// Chunks never straddle a shard and Adam is elementwise, so the
    /// result is bit-identical at every depth. Reads left in `reads` by
    /// an error and the writes in `wb` are the caller's to reconcile.
    fn stream_step(
        &mut self,
        wb: &mut WriteBehind,
        reads: &mut VecDeque<ChunkRead>,
    ) -> Result<()> {
        let depth = self.strategy.step_pipeline_depth.max(1);
        let chunk = self.strategy.optimizer_chunk;
        // Shards with chunks still to update, in parameter order; the
        // back one is the shard whose reads are being issued.
        let mut open: VecDeque<OpenShard> = VecDeque::new();
        let mut next_shard = 0;
        loop {
            // Keep `depth` chunks' reads in flight ahead of the update.
            // A split shard fans each chunk out over both placement
            // paths: the NVMe parts queue on the device while the
            // CPU-DRAM parts land immediately — concurrent nc + cp
            // traffic within one pipelined step.
            while reads.len() < depth {
                if open.back().is_none_or(|shard| shard.issued.is_none()) {
                    match self.open_shard(&mut next_shard)? {
                        Some(shard) => open.push_back(shard),
                        None => break,
                    }
                }
                let Some(shard) = open.back_mut() else { break };
                let Some(start) = shard.issued else { break };
                let total = shard.grad.len();
                let len = chunk.min(total - start);
                let optim = &self.shards[shard.idx].optim;
                let loads = [
                    self.mgr.begin_load(&optim.master, start, len)?,
                    self.mgr.begin_load(&optim.m, start, len)?,
                    self.mgr.begin_load(&optim.v, start, len)?,
                ];
                let last = start + len == total;
                reads.push_back(ChunkRead { start, len, last, loads });
                shard.issued = (!last).then_some(start + len);
            }
            // Chunks complete in issue order, so the oldest read belongs
            // to the oldest open shard.
            let (Some(read), Some(shard)) = (reads.pop_front(), open.front_mut()) else {
                return Ok(());
            };
            let ChunkRead { start, len, last, loads } = read;
            let mut mchunk = self.scratch.acquire(len);
            let mut m1 = self.scratch.acquire(len);
            let mut m2 = self.scratch.acquire(len);
            let [pm, p1, p2] = loads.map(|load| load.wait(&self.mgr));
            pm?.decode_f32_into(&mut mchunk);
            p1?.decode_f32_into(&mut m1);
            p2?.decode_f32_into(&mut m2);
            // Measured after the waits: anything still in flight now is
            // genuine overlap (later chunks' reads, earlier writes).
            if self.mgr.nvme().in_flight() > 0 {
                self.stats.step_io_overlap += 1;
            }
            let optim = &mut self.shards[shard.idx].optim;
            {
                // The compute half of the streamed step: I/O hidden
                // behind these spans is the pipeline's overlap win.
                let mut span = self.mgr.tracer().span(Category::Compute, "adam_chunk");
                span.set_bytes((len * 4) as u64);
                // ~15 scalar flops per element in the Adam recurrence
                // (moment updates, bias correction, sqrt, update).
                span.set_flops(15 * len as u64);
                span.set_id(start as u64);
                adam_update_chunk_publish(
                    &self.adam,
                    optim.step,
                    &mut mchunk,
                    &mut m1,
                    &mut m2,
                    &shard.grad[start..start + len],
                    &mut shard.new_master[start..start + len],
                );
            }
            let mgr = &self.mgr;
            let f32_buf = |vals: &[f32]| FlatBuffer::from_f32(DType::F32, vals);
            wb.submit(mgr, &mut optim.master, start, &f32_buf(&mchunk))?;
            wb.submit(mgr, &mut optim.m, start, &f32_buf(&m1))?;
            wb.submit(mgr, &mut optim.v, start, &f32_buf(&m2))?;
            self.stats.optimizer_chunks += 1;
            if last {
                if let Some(done) = open.pop_front() {
                    self.publish_master(done.idx, &done.new_master, wb)?;
                }
            }
            if depth == 1 {
                // Sequential semantics: this chunk (and a shard's publish)
                // is durable before the next chunk's reads are issued.
                wb.drain(&self.mgr)?;
            }
        }
    }

    /// Open the next shard at or after `*next` that holds a gradient:
    /// take the gradient off its tier, average it over ranks, cut it to
    /// this rank's update range and advance the shard's Adam step.
    /// `None` once every shard has been considered.
    fn open_shard(&mut self, next: &mut usize) -> Result<Option<OpenShard>> {
        let world = self.comm.world_size() as f32 * self.grad_accum_steps;
        let rank = self.comm.rank();
        while *next < self.shards.len() {
            let idx = *next;
            *next += 1;
            let Some(gs) = self.shards[idx].grad.take() else { continue };
            self.shards[idx].grad_nonfinite = false;
            let numel = self.shards[idx].numel;
            let shard_len = self.shards[idx].shard_len;
            // A replicated gradient under a partitioned optimizer (ZeRO-1)
            // is cut to this rank's update range.
            let (buf, cut) = match gs {
                GradStorage::Partitioned(buf) => (buf, false),
                GradStorage::Replicated(buf) => (buf, self.strategy.partition_optimizer),
            };
            let full = self.mgr.load(&buf)?.to_f32_vec();
            self.mgr.free(buf);
            let mut grad = if cut {
                let range = self.part.shard_range(numel, rank);
                let mut slice = vec![0f32; shard_len];
                let end = range.end.min(numel);
                if range.start < end {
                    slice[..end - range.start].copy_from_slice(&full[range.start..end]);
                }
                slice
            } else {
                full
            };
            for g in &mut grad {
                *g /= world;
            }
            self.shards[idx].optim.step += 1;
            let new_master = vec![0f32; grad.len()];
            return Ok(Some(OpenShard { idx, grad, new_master, issued: Some(0) }));
        }
        Ok(None)
    }

    /// Write the fp32 master values covering this rank's update range back
    /// into parameter storage (casting to the storage dtype). Partitioned
    /// parameters write through `wb`, which the caller drains. For
    /// replicated parameters with a partitioned optimizer (ZeRO-1/2) this
    /// performs an allgather and is therefore a collective.
    fn publish_master(
        &mut self,
        idx: usize,
        new_master: &[f32],
        wb: &mut WriteBehind,
    ) -> Result<()> {
        let dtype = self.strategy.param_dtype;
        let numel = self.shards[idx].numel;
        match &mut self.shards[idx].param {
            ParamStorage::Partitioned(buf) => {
                // new_master covers exactly this rank's padded shard.
                wb.submit(&self.mgr, buf, 0, &FlatBuffer::from_f32(dtype, new_master))
            }
            ParamStorage::Replicated(buf) => {
                if self.strategy.partition_optimizer {
                    // ZeRO-1/2: gather every rank's updated slice back
                    // into the full replica.
                    let mine = FlatBuffer::from_f32(dtype, new_master);
                    let gathered = self.comm.allgather_bytes(mine.as_bytes())?;
                    let fb = FlatBuffer::from_bytes(dtype, gathered)?;
                    let mut vals = fb.to_f32_vec();
                    vals.truncate(numel);
                    self.mgr.overwrite(buf, &FlatBuffer::from_f32(dtype, &vals))
                } else {
                    self.mgr.overwrite(buf, &FlatBuffer::from_f32(dtype, new_master))
                }
            }
        }
    }

    /// Bring every optimizer shard's placement in line with the current
    /// policy before the step touches it.
    ///
    /// A degraded node collapses every shard to CPU DRAM: split shards
    /// re-publish their NVMe-resident half instead of dropping it with
    /// the store. `collapse` skips DRAM segments, so once a shard is off
    /// the device every later step's call moves nothing. Otherwise a
    /// shard whose stored policy drifts from the strategy's (the re-tier
    /// knob) moves by a load/store round trip, numerically invisible.
    fn sync_optimizer_placement(&mut self) -> Result<()> {
        let mgr = &self.mgr;
        if mgr.is_degraded() {
            for st in &mut self.shards {
                mgr.collapse(&mut st.optim.master)?;
                mgr.collapse(&mut st.optim.m)?;
                mgr.collapse(&mut st.optim.v)?;
            }
            return Ok(());
        }
        let target = self.strategy.optimizer_policy();
        let optim_device = device_for(self.strategy.placement.optimizer, self.gpu_index);
        for st in &mut self.shards {
            if st.optim.master.policy() == Some(target) {
                continue;
            }
            mgr.retier(&mut st.optim.master, optim_device, target)?;
            mgr.retier(&mut st.optim.m, optim_device, target)?;
            mgr.retier(&mut st.optim.v, optim_device, target)?;
        }
        Ok(())
    }

    fn end_iteration(&mut self) -> Result<()> {
        self.trace.end_iteration();
        self.prefetcher.clear(&self.mgr)?;
        self.mgr.flush()
    }

    /// Gather the full f32 value of a parameter (collective: every rank
    /// must call this in the same order).
    pub fn export_param(&mut self, id: ParamId) -> Result<Tensor> {
        let vals = self.gather_values(id)?;
        let shape = self.shards[id.0].shape.clone();
        Tensor::from_vec(&shape, vals)
    }

    /// Current loss scale (for observability).
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Number of parameters managed by this engine.
    pub fn param_count(&self) -> usize {
        self.shards.len()
    }

    /// Update the learning rate (for schedules; takes effect at the next
    /// optimizer step).
    pub fn set_lr(&mut self, lr: f32) {
        self.adam.lr = lr;
    }

    /// Declare how many micro-batches are accumulated per optimizer step;
    /// deposited gradients are averaged over `world * steps`.
    pub fn set_grad_accumulation(&mut self, steps: usize) {
        assert!(steps > 0, "accumulation steps must be positive");
        self.grad_accum_steps = steps as f32;
    }

    /// Apply live overlap knobs from the adaptive controller. Takes
    /// effect at the next step/forward — the engine reads its strategy
    /// afresh each optimizer step (pipeline depth, write-behind bound)
    /// and each prefetch decision (look-ahead window), and `&mut self`
    /// guarantees no step is in flight while the fields change. Knob
    /// changes are numerically invisible by construction: the pipelined
    /// step is bit-identical to the sequential one at every depth, and
    /// the prefetcher only warms caches.
    pub fn apply_knobs(&mut self, knobs: zi_adapt::Knobs) {
        self.strategy.step_pipeline_depth = knobs.step_pipeline_depth.max(1);
        self.strategy.prefetch_window = knobs.prefetch_window;
        self.strategy.write_behind = knobs.write_behind.max(1);
        // The re-tier knob: shards whose stored placement drifts from
        // the new policy are moved at the start of the next step
        // (load/store round trip — bit-preserving, like the others).
        self.strategy.optimizer_cpu_permille = knobs.optimizer_cpu_permille.min(1000);
    }

    /// The overlap knobs currently in force (inverse of
    /// [`ZeroEngine::apply_knobs`]).
    pub fn knobs(&self) -> zi_adapt::Knobs {
        self.strategy.knobs()
    }

    /// Read every parameter's optimizer shard out of its tier
    /// (checkpoint save path).
    pub(crate) fn export_optimizer_records(
        &self,
    ) -> Result<Vec<crate::checkpoint::ParamRecord>> {
        let mut out = Vec::with_capacity(self.shards.len());
        for st in &self.shards {
            out.push(crate::checkpoint::ParamRecord {
                step: st.optim.step,
                numel: st.numel as u64,
                master: self.mgr.load(&st.optim.master)?.to_f32_vec(),
                m: self.mgr.load(&st.optim.m)?.to_f32_vec(),
                v: self.mgr.load(&st.optim.v)?.to_f32_vec(),
            });
        }
        Ok(out)
    }

    /// Overwrite optimizer state from checkpoint records and republish
    /// the parameter tensors from the restored masters (checkpoint load
    /// path; collective for replicated-parameter strategies).
    pub(crate) fn import_optimizer_records(
        &mut self,
        records: Vec<crate::checkpoint::ParamRecord>,
    ) -> Result<()> {
        if records.len() != self.shards.len() {
            return Err(Error::InvalidArgument("record count mismatch".into()));
        }
        for (idx, rec) in records.iter().enumerate() {
            let st = &self.shards[idx];
            if rec.master.len() != st.optim.master.numel() {
                return Err(Error::InvalidArgument(format!(
                    "param {idx}: checkpoint shard of {} elements, engine expects {}",
                    rec.master.len(),
                    st.optim.master.numel()
                )));
            }
            if rec.numel != st.numel as u64 {
                return Err(Error::InvalidArgument(format!(
                    "param {idx}: checkpoint numel {}, engine expects {}",
                    rec.numel, st.numel
                )));
            }
        }
        let mut wb = WriteBehind::new(self.strategy.write_behind_bound());
        let restored = records.into_iter().enumerate().try_for_each(|(idx, rec)| {
            let st = &mut self.shards[idx];
            st.optim.step = rec.step;
            let f32_buf = |vals: &[f32]| FlatBuffer::from_f32(DType::F32, vals);
            self.mgr.overwrite(&mut st.optim.master, &f32_buf(&rec.master))?;
            self.mgr.overwrite(&mut st.optim.m, &f32_buf(&rec.m))?;
            self.mgr.overwrite(&mut st.optim.v, &f32_buf(&rec.v))?;
            self.publish_master(idx, &rec.master, &mut wb)
        });
        restored.and(wb.drain(&self.mgr))
    }

    /// Free every device allocation held by this engine. The engine is
    /// consumed; pools return to their empty state.
    pub fn dispose(mut self) -> Result<()> {
        let _ = self.prefetcher.clear(&self.mgr);
        self.clear_grads();
        for st in self.shards.drain(..) {
            let pbuf = match st.param {
                ParamStorage::Partitioned(b) | ParamStorage::Replicated(b) => b,
            };
            self.mgr.free(pbuf);
            self.mgr.free(st.optim.master);
            self.mgr.free(st.optim.m);
            self.mgr.free(st.optim.v);
        }
        let gpu = self.gpu_device();
        for (_, r) in self.resident.drain() {
            self.mgr.hierarchy().free(gpu, r.gpu_block);
        }
        Ok(())
    }
}

impl ParamStore for ZeroEngine {
    fn get(&mut self, id: ParamId) -> Result<Tensor> {
        self.trace.record(id);
        if let Some(r) = self.resident.get_mut(&id) {
            r.refcount += 1;
            self.stats.cache_hits += 1;
            return Ok(r.tensor.clone());
        }
        let vals = self.gather_values(id)?;
        let st = &self.shards[id.0];
        // Charge the gathered compute tensor against GPU working memory;
        // failure here is the OOM that memory-centric tiling exists to
        // avoid (Sec. 5.1.3).
        let bytes = (st.numel * 4) as u64;
        // The cg hop: the gathered f32 values land in GPU working memory.
        let mut span = self.mgr.tracer().span(Category::CgTransfer, "cg.upload");
        span.set_bytes(bytes);
        span.set_id(id.0 as u64);
        let gpu_block = self.mgr.hierarchy().alloc(self.gpu_device(), bytes)?;
        let tensor = Tensor::from_vec(&st.shape, vals)?;
        drop(span);
        self.mgr.tracer().count(Counter::CgBytes, bytes);
        self.resident.insert(id, Resident { tensor: tensor.clone(), refcount: 1, gpu_block });
        self.prefetch_ahead();
        Ok(tensor)
    }

    fn release(&mut self, id: ParamId) -> Result<()> {
        let Some(r) = self.resident.get_mut(&id) else {
            return Err(Error::Internal(format!("release of non-resident param {id:?}")));
        };
        r.refcount -= 1;
        if r.refcount == 0 {
            let r = self.resident.remove(&id).expect("checked above");
            self.mgr.hierarchy().free(self.gpu_device(), r.gpu_block);
        }
        Ok(())
    }

    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
        let st = &self.shards[id.0];
        if grad.numel() != st.numel {
            return Err(Error::shape(format!(
                "add_grad: {} elements for param of {}",
                grad.numel(),
                st.numel
            )));
        }
        self.stats.grad_reductions += 1;
        if self.strategy.partition_grads {
            let mut padded = grad.data().to_vec();
            padded.resize(self.part.padded_len(st.numel), 0.0);
            let shard = self.comm.reduce_scatter_sum(&padded)?;
            self.accumulate_grad(id, &shard, true)
        } else {
            let mut full = grad.data().to_vec();
            self.comm.allreduce_sum(&mut full)?;
            self.accumulate_grad(id, &full, false)
        }
    }

    fn tracer(&self) -> Option<&zi_trace::Tracer> {
        Some(self.mgr.tracer())
    }

    fn hint_upcoming(&mut self, ids: &[ParamId]) {
        if !self.strategy.prefetch {
            return;
        }
        for &id in ids {
            if self.resident.contains_key(&id) || self.prefetcher.is_pending(id) {
                continue;
            }
            if let ParamStorage::Partitioned(buf) = &self.shards[id.0].param {
                let _ = self.prefetcher.prefetch(&self.mgr, id, buf);
            }
        }
    }
}

fn device_for(kind: DeviceKind, rank: usize) -> Device {
    match kind {
        DeviceKind::Gpu => Device::gpu(rank),
        DeviceKind::Cpu => Device::cpu(),
        DeviceKind::Nvme => Device::nvme(),
    }
}

/// A shard opened by the streamed step: its gradient slice (averaged
/// over ranks) and the fp32 masters assembled chunk by chunk until the
/// shard publishes.
struct OpenShard {
    idx: usize,
    grad: Vec<f32>,
    new_master: Vec<f32>,
    /// Start of the next chunk to read, `None` once the last chunk's
    /// reads are in flight.
    issued: Option<usize>,
}

/// One chunk of an open shard whose master/m/v reads are in flight.
struct ChunkRead {
    start: usize,
    len: usize,
    /// The shard's final chunk: once it is updated, the shard publishes.
    last: bool,
    loads: [PendingRead; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::NodeResources;
    use zi_memory::{NodeMemorySpec, PathKind};
    use zi_model::ParamRegistry;

    fn tiny_registry() -> ParamRegistry {
        let mut reg = ParamRegistry::new();
        reg.register("w", &[3, 4], 5, 0.2, 0.0);
        reg.register("b", &[5], 6, 0.0, 1.0);
        reg
    }

    fn single_rank(strategy: Strategy) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let engine = ZeroEngine::new(
            &reg,
            strategy,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        (node, engine, reg)
    }

    #[test]
    fn init_matches_registry_on_every_strategy() {
        for strategy in Strategy::table2() {
            let (_node, mut eng, reg) = single_rank(strategy.with_f32_params());
            for meta in reg.iter() {
                let got = eng.get(meta.id).unwrap();
                let expect = meta.init_tensor();
                assert_eq!(got.shape(), expect.shape(), "{}: {}", strategy.name, meta.name);
                for (a, b) in got.data().iter().zip(expect.data()) {
                    assert!((a - b).abs() < 1e-6, "{}: {}", strategy.name, meta.name);
                }
                eng.release(meta.id).unwrap();
            }
            eng.dispose().unwrap();
        }
    }

    #[test]
    fn fp16_storage_quantizes_but_preserves_magnitude() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_nvme());
        let id = reg.find("w").unwrap();
        let got = eng.get(id).unwrap();
        let expect = reg.meta(id).init_tensor();
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-3 + b.abs() * 1e-3);
        }
        eng.release(id).unwrap();
        eng.dispose().unwrap();
    }

    #[test]
    fn refcounted_residency() {
        let (node, mut eng, reg) = single_rank(Strategy::infinity_cpu().with_f32_params());
        let id = reg.find("w").unwrap();
        let gpu_used_before = node.hierarchy.stats(Device::gpu(0)).in_use;
        let _a = eng.get(id).unwrap();
        let _b = eng.get(id).unwrap();
        assert_eq!(eng.stats().cache_hits, 1);
        let during = node.hierarchy.stats(Device::gpu(0)).in_use;
        assert!(during > gpu_used_before, "working memory must be charged");
        eng.release(id).unwrap();
        // Still resident (refcount 1): memory held.
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, during);
        eng.release(id).unwrap();
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, gpu_used_before);
        eng.dispose().unwrap();
    }

    #[test]
    fn release_without_get_errors() {
        let (_node, mut eng, reg) = single_rank(Strategy::zero_3());
        assert!(eng.release(reg.find("w").unwrap()).is_err());
        eng.dispose().unwrap();
    }

    #[test]
    fn adam_step_moves_params_single_rank() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_nvme().with_f32_params());
        let id = reg.find("w").unwrap();
        let before = eng.export_param(id).unwrap();
        let grad = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(eng.step().unwrap());
        let after = eng.export_param(id).unwrap();
        // Adam's first step moves each coordinate by ~lr against the grad.
        for (b, a) in before.data().iter().zip(after.data()) {
            assert!((b - a - 1e-3).abs() < 1e-4, "expected ~lr decrease: {b} -> {a}");
        }
        assert_eq!(eng.stats().steps, 1);
        eng.dispose().unwrap();
    }

    #[test]
    fn chunked_step_equals_monolithic_step() {
        let run = |chunk: usize| {
            let (_node, mut eng, reg) =
                single_rank(Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(chunk));
            let id = reg.find("w").unwrap();
            for s in 0..3 {
                let grad =
                    Tensor::from_vec(&[3, 4], (0..12).map(|i| (i + s) as f32 * 0.1).collect())
                        .unwrap();
                eng.add_grad(id, &grad).unwrap();
                eng.step().unwrap();
            }
            let out = eng.export_param(id).unwrap();
            eng.dispose().unwrap();
            out
        };
        let mono = run(usize::MAX);
        let chunked = run(5);
        assert_eq!(mono.data(), chunked.data(), "chunk streaming must be exact");
    }

    #[test]
    fn overflow_skips_step_and_backs_off_scale() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_cpu().with_f32_params());
        let id = reg.find("w").unwrap();
        let before = eng.export_param(id).unwrap();
        let scale_before = eng.loss_scale();
        let grad = Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(!eng.step().unwrap(), "overflow must skip the step");
        let after = eng.export_param(id).unwrap();
        assert_eq!(before.data(), after.data());
        assert!(eng.loss_scale() < scale_before);
        assert_eq!(eng.stats().skipped_steps, 1);
        // A healthy step afterwards applies normally.
        let grad = Tensor::from_vec(&[3, 4], vec![0.5; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(eng.step().unwrap());
        eng.dispose().unwrap();
    }

    #[test]
    fn grad_accumulation_across_micro_batches() {
        let (_node, mut eng, reg) = single_rank(Strategy::zero_3().with_f32_params());
        let id = reg.find("b").unwrap();
        let g1 = Tensor::from_vec(&[5], vec![1.0; 5]).unwrap();
        eng.add_grad(id, &g1).unwrap();
        eng.add_grad(id, &g1).unwrap();
        // Step with accumulated grad = 2.0 everywhere must equal a single
        // deposit of 2.0.
        eng.step().unwrap();
        let a = eng.export_param(id).unwrap();

        let (_node2, mut eng2, reg2) = single_rank(Strategy::zero_3().with_f32_params());
        let id2 = reg2.find("b").unwrap();
        let g2 = Tensor::from_vec(&[5], vec![2.0; 5]).unwrap();
        eng2.add_grad(id2, &g2).unwrap();
        eng2.step().unwrap();
        let b = eng2.export_param(id2).unwrap();
        assert_eq!(a.data(), b.data());
        eng.dispose().unwrap();
        eng2.dispose().unwrap();
    }

    #[test]
    fn dispose_returns_all_memory() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme(),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let id = reg.find("w").unwrap();
        let g = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        eng.add_grad(id, &g).unwrap();
        let _p = eng.get(id).unwrap();
        eng.dispose().unwrap();
        for dev in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            assert_eq!(node.hierarchy.stats(dev).in_use, 0, "leak on {dev}");
        }
    }

    #[test]
    fn pipelined_step_is_bit_identical_to_sequential() {
        // Gradients on both parameters, so the stream crosses a shard
        // boundary; chunk 5 splits `w` across chunks, usize::MAX makes
        // every shard a single chunk.
        let run = |chunk: usize, depth: usize| {
            let (_node, mut eng, reg) = single_rank(
                Strategy::infinity_nvme()
                    .with_f32_params()
                    .with_optimizer_chunk(chunk)
                    .with_step_pipeline_depth(depth),
            );
            for s in 0..3 {
                for meta in reg.iter() {
                    let grad: Vec<f32> =
                        (0..meta.numel()).map(|i| (i + s) as f32 * 0.1 - 0.3).collect();
                    eng.add_grad(meta.id, &Tensor::from_vec(&meta.shape, grad).unwrap()).unwrap();
                }
                eng.step().unwrap();
            }
            let bits: Vec<Vec<u32>> = reg
                .iter()
                .map(|meta| {
                    let t = eng.export_param(meta.id).unwrap();
                    t.data().iter().map(|x| x.to_bits()).collect()
                })
                .collect();
            eng.dispose().unwrap();
            bits
        };
        for chunk in [5, usize::MAX] {
            let sequential = run(chunk, 1);
            for depth in [2, 3, 4, 8] {
                assert_eq!(
                    sequential,
                    run(chunk, depth),
                    "chunk {chunk}: pipeline depth {depth} must be invisible to the math"
                );
            }
        }
    }

    #[test]
    fn degrade_between_steps_collapses_split_optimizer_state() {
        // Chunk 4 sets a 2-element stripe, so `w`'s optimizer state is
        // split across both paths at 250‰ CPU.
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_optimizer_cpu_permille(250)
            .with_optimizer_chunk(4);
        let run = |degrade: bool| {
            let (node, mut eng, reg) = single_rank(strategy);
            let policy = strategy.optimizer_policy();
            let nvme_segments: usize = eng
                .shards
                .iter()
                .map(|st| {
                    let plan = policy.plan(st.optim.master.numel());
                    3 * plan.segments().iter().filter(|s| s.path == PathKind::Nvme).count()
                })
                .sum();
            assert!(eng.shards.iter().any(|st| st.optim.master.is_split()), "split fixture");
            let failovers = |eng: &ZeroEngine| eng.mgr.health().failovers;
            for s in 0..3 {
                if degrade && s == 1 {
                    node.degrade();
                }
                let before = failovers(&eng);
                for meta in reg.iter() {
                    let grad: Vec<f32> =
                        (0..meta.numel()).map(|i| (i + s) as f32 * 0.1 - 0.3).collect();
                    eng.add_grad(meta.id, &Tensor::from_vec(&meta.shape, grad).unwrap()).unwrap();
                }
                assert!(eng.step().unwrap());
                let added = failovers(&eng) - before;
                match (degrade, s) {
                    (true, 1) => {
                        for st in &eng.shards {
                            for buf in [&st.optim.master, &st.optim.m, &st.optim.v] {
                                assert_eq!(buf.elems_on(PathKind::Nvme), 0);
                            }
                        }
                        assert_eq!(added, nvme_segments as u64, "one failover per moved segment");
                    }
                    _ => assert_eq!(added, 0, "step {s} (degraded run: {degrade})"),
                }
            }
            let bits: Vec<Vec<u32>> = reg
                .iter()
                .map(|meta| {
                    let t = eng.export_param(meta.id).unwrap();
                    t.data().iter().map(|x| x.to_bits()).collect()
                })
                .collect();
            eng.dispose().unwrap();
            bits
        };
        assert_eq!(run(true), run(false), "collapse must be invisible to the math");
    }

    /// `n` parameters of `len` elements each.
    fn small_params_registry(n: usize, len: usize) -> ParamRegistry {
        let mut reg = ParamRegistry::new();
        for i in 0..n {
            reg.register(format!("p{i}"), &[len], 10 + i as u64, 0.2, 0.0);
        }
        reg
    }

    fn deposit_unit_grads(eng: &mut ZeroEngine, reg: &ParamRegistry) {
        for meta in reg.iter() {
            let grad = Tensor::from_vec(&meta.shape, vec![1.0; meta.numel()]).unwrap();
            eng.add_grad(meta.id, &grad).unwrap();
        }
    }

    #[test]
    fn pipelined_step_overlaps_io_across_shard_boundaries() {
        use std::time::Duration;
        use zi_nvme::{MemBackend, ThrottledBackend};
        // Every shard is far smaller than `optimizer_chunk`, so each is a
        // single chunk: any overlap must come from reads of the next
        // parameters running under the current one's update.
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let backend = zi_sync::Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            2e9,
            Duration::from_millis(2),
        ));
        let node = NodeResources::with_backend(&spec, 1, backend);
        let reg = small_params_registry(6, 4);
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme()
                .with_f32_params()
                .with_prefetch(false)
                .with_step_pipeline_depth(3),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        deposit_unit_grads(&mut eng, &reg);
        assert!(eng.step().unwrap());
        let stats = eng.stats();
        assert_eq!(stats.optimizer_chunks, 6, "one chunk per shard: {stats:?}");
        assert!(
            stats.step_io_overlap > 0,
            "one-chunk shards must overlap the next shards' reads: {stats:?}"
        );
        let peak = node.nvme.stats().in_flight_peak;
        assert!(peak >= 6, "depth 3 must keep several shards' reads in flight, peak was {peak}");
        eng.dispose().unwrap();
    }

    #[test]
    fn device_death_mid_step_is_typed_and_reconciles_every_ticket() {
        use crate::offload::tests::faulty_node;
        // fp16 parameters on NVMe: every shard's publish rides the
        // step's write-behind window next to the optimizer write-backs.
        let strategy =
            Strategy::infinity_nvme().with_prefetch(false).with_step_pipeline_depth(3);
        let reg = small_params_registry(8, 6);
        let setup = || {
            let (plan, node) = faulty_node();
            let mut eng = ZeroEngine::new(
                &reg,
                strategy,
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .unwrap();
            deposit_unit_grads(&mut eng, &reg);
            (plan, node, eng)
        };
        // Calibrate: how many device operations one step performs.
        let (plan, _node, mut eng) = setup();
        let before = plan.ops_seen();
        assert!(eng.step().unwrap());
        let step_ops = plan.ops_seen() - before;
        eng.dispose().unwrap();

        let (plan, node, mut eng) = setup();
        plan.kill_after_ops(step_ops / 2);
        let err = eng.step().unwrap_err();
        assert!(err.is_device_failure(), "got {err}");
        // A waited ticket's outcome lands a moment before its worker
        // retires it from the in-flight count; allow that moment only.
        let mgr = node.offload_manager();
        let deadline = zi_sync::time::Instant::now() + std::time::Duration::from_secs(1);
        while mgr.nvme().in_flight() > 0 && zi_sync::time::Instant::now() < deadline {
            zi_sync::thread::yield_now();
        }
        assert_eq!(mgr.nvme().in_flight(), 0, "a ticket leaked past the failed step");
        eng.dispose().unwrap();
    }

    #[test]
    fn pipelined_step_keeps_multiple_requests_in_flight() {
        use std::time::Duration;
        use zi_nvme::{MemBackend, ThrottledBackend};
        // Slow the device enough that reads genuinely linger in the
        // queue; prefetch off so every in-flight request belongs to the
        // optimizer-step pipeline.
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let backend = zi_sync::Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            2e9,
            Duration::from_millis(2),
        ));
        let node = NodeResources::with_backend(&spec, 1, backend);
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme()
                .with_f32_params()
                .with_prefetch(false)
                .with_optimizer_chunk(3)
                .with_step_pipeline_depth(3),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let id = reg.find("w").unwrap();
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        let peak_before = node.nvme.stats().in_flight_peak;
        assert!(eng.step().unwrap());
        let stats = eng.stats();
        assert!(
            stats.step_io_overlap > 0,
            "depth-3 pipeline over a slow device must overlap update with I/O: {stats:?}"
        );
        let peak = node.nvme.stats().in_flight_peak;
        assert!(peak >= 2, "expected ≥ 2 concurrent requests, peak was {peak} (before: {peak_before})");
        eng.dispose().unwrap();
    }

    #[test]
    fn cp_hop_counts_only_optimizer_state_traffic() {
        // Two params of 63 and 5 elements: one step streams 68 f32 of
        // master, m and v each through the optimizer, i.e. 12 × 68 bytes
        // read and written. GPU/CPU-tier optimizer state resolves over
        // the cp hop; all-NVMe state never touches it. Parameter and
        // gradient traffic stays off the hop on every strategy.
        let mut reg = ParamRegistry::new();
        reg.register("a", &[63], 3, 0.2, 0.0);
        reg.register("b", &[5], 4, 0.2, 0.0);
        for strategy in Strategy::table2() {
            let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
            let node = NodeResources::in_memory(&spec, 1);
            let mut eng = ZeroEngine::new(
                &reg,
                strategy,
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .unwrap();
            deposit_unit_grads(&mut eng, &reg);
            let before = node.tracer().snapshot();
            assert!(eng.step().unwrap());
            let after = node.tracer().snapshot();
            let want = if strategy.placement.optimizer == DeviceKind::Nvme { 0 } else { 12 * 68 };
            let read = after.cp_read_bytes - before.cp_read_bytes;
            let written = after.cp_write_bytes - before.cp_write_bytes;
            assert_eq!((read, written), (want, want), "{}", strategy.name);
            eng.dispose().unwrap();
        }
    }

    #[test]
    fn zero_pipeline_depth_rejected() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        assert!(ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme().with_step_pipeline_depth(0),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn overflow_flag_clears_after_skipped_and_applied_steps() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_nvme().with_f32_params());
        let id = reg.find("w").unwrap();
        // Overflow arrives via accumulation (second deposit).
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![f32::MAX; 12]).unwrap()).unwrap();
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![f32::MAX; 12]).unwrap()).unwrap();
        assert!(!eng.step().unwrap(), "fused flag must catch accumulation overflow");
        // The flag must not poison the next, healthy step.
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![0.1; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(eng.stats().skipped_steps, 1);
        assert_eq!(eng.stats().steps, 1);
        eng.dispose().unwrap();
    }

    #[test]
    fn step_scratch_buffers_are_recycled() {
        let (_node, mut eng, reg) = single_rank(
            Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(4),
        );
        let id = reg.find("w").unwrap();
        for _ in 0..3 {
            eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![0.5; 12]).unwrap()).unwrap();
            eng.step().unwrap();
        }
        let st = eng.scratch.stats();
        assert!(
            st.reused > st.allocated,
            "steady-state steps must recycle chunk buffers: {st:?}"
        );
        eng.dispose().unwrap();
    }

    #[test]
    fn invalid_stage_combinations_rejected() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let bad = Strategy {
            partition_params: true,
            partition_grads: false,
            ..Strategy::data_parallel()
        };
        assert!(ZeroEngine::new(
            &reg,
            bad,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn gpu_oom_on_gather_surfaces() {
        // GPU pool too small to hold the gathered w (12 f32 = 48 bytes).
        let spec = NodeMemorySpec::test_spec(1, 40, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_cpu(),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let err = eng.get(reg.find("w").unwrap()).unwrap_err();
        assert!(err.is_oom());
        // The small bias still fits.
        assert!(eng.get(reg.find("b").unwrap()).is_ok());
        eng.release(reg.find("b").unwrap()).unwrap();
        eng.dispose().unwrap();
    }
}
