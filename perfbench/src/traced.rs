//! The traced run: the benchmark's own per-rank training loop over the
//! public API, timed from outside at every layer boundary.
//!
//! Each rank builds its engine exactly as the trainer does and steps it
//! through `GptModel::train_step_full`, `ZeroEngine::step` and the loss
//! `sum_scalar`. Engine calls go through [`TimedStore`], a `ParamStore`
//! wrapper that times `get`, `release`, `add_grad` and `hint_upcoming`;
//! [`PhaseMarks`] splits model time into forward and backward at the
//! first backward module event. The program's own zi-trace hop spans and
//! counters are read as they stand, through a tracer whose rings are
//! sized so that nothing is dropped.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zero_infinity::trainer::synthetic_batch;
use zero_infinity::{EngineStats, NodeResources, ZeroEngine};
use zi_comm::CommConfig;
use zi_model::GptModel;
use zi_model::{InMemoryActStore, ParamId, ParamStore, Phase, RunObserver, RunOptions};
use zi_nvme::{IoStats, RetryPolicy, StorageBackend};
use zi_tensor::Tensor;
use zi_trace::report::OverlapReport;
use zi_trace::{Category, CounterSnapshot, Event, Tracer, STEP_SPAN};
use zi_types::{Device, Error, Result};

use crate::workload::{Workload, WORLD};

/// Per-thread trace ring capacity. Rank 0 drains every ring once per
/// step, so this bounds the events one thread may record in one step.
pub const RING_CAPACITY: usize = 1 << 16;

/// Name of the zero-length marker rank 0 records once, so its trace
/// thread id can be told apart from rank 1's.
const RANK0_MARK: &str = "perfbench.rank0";

/// Nanoseconds spent inside each `ParamStore` entry point.
#[derive(Default)]
pub struct StoreTimes {
    get_ns: Cell<u64>,
    get_calls: Cell<u64>,
    release_ns: Cell<u64>,
    add_grad_ns: Cell<u64>,
    hint_ns: Cell<u64>,
}

impl StoreTimes {
    fn inside_ns(&self) -> u64 {
        self.get_ns.get() + self.release_ns.get() + self.add_grad_ns.get() + self.hint_ns.get()
    }
}

fn add(cell: &Cell<u64>, since: Instant) {
    cell.set(cell.get() + since.elapsed().as_nanos() as u64);
}

/// Times every call into the wrapped engine's `ParamStore` surface.
pub struct TimedStore<'a> {
    inner: &'a mut ZeroEngine,
    times: &'a StoreTimes,
}

impl ParamStore for TimedStore<'_> {
    fn get(&mut self, id: ParamId) -> Result<Tensor> {
        let t0 = Instant::now();
        let r = self.inner.get(id);
        add(&self.times.get_ns, t0);
        self.times.get_calls.set(self.times.get_calls.get() + 1);
        r
    }

    fn release(&mut self, id: ParamId) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.release(id);
        add(&self.times.release_ns, t0);
        r
    }

    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.add_grad(id, grad);
        add(&self.times.add_grad_ns, t0);
        r
    }

    fn hint_upcoming(&mut self, ids: &[ParamId]) {
        let t0 = Instant::now();
        self.inner.hint_upcoming(ids);
        add(&self.times.hint_ns, t0);
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer()
    }
}

/// Marks the forward→backward boundary: the time of the first
/// `PreBackward` event and how much store time had elapsed by then.
struct PhaseMarks<'a> {
    times: &'a StoreTimes,
    backward_from: Option<(Instant, u64)>,
}

impl RunObserver for PhaseMarks<'_> {
    fn module_event(&mut self, phase: Phase, _module: &str) {
        if phase == Phase::PreBackward && self.backward_from.is_none() {
            self.backward_from = Some((Instant::now(), self.times.inside_ns()));
        }
    }
}

/// Rank 0's record of one step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepRec {
    pub wall_ns: u64,
    pub flush_ns: u64,
    pub fwd_ns: u64,
    pub bwd_ns: u64,
    pub get_ns: u64,
    pub get_calls: u64,
    pub release_ns: u64,
    pub add_grad_ns: u64,
    pub hint_ns: u64,
    pub step_ns: u64,
    pub loss_wait_ns: u64,
    pub engine: EngineStats,
    pub io: IoStats,
    pub counters: CounterSnapshot,
}

impl StepRec {
    /// Sum of the attributed parts, to reconcile against `wall_ns`.
    pub fn parts_ns(&self) -> u64 {
        self.fwd_ns
            + self.bwd_ns
            + self.get_ns
            + self.release_ns
            + self.add_grad_ns
            + self.hint_ns
            + self.step_ns
            + self.loss_wait_ns
    }
}

/// What the traced loop hands back.
pub struct TracedRun {
    pub losses: Vec<f32>,
    pub steps: Vec<StepRec>,
    pub events: Vec<Event>,
    pub counters: CounterSnapshot,
    pub io: IoStats,
    pub rank0_tid: Option<u64>,
    pub gpu_peak_bytes: u64,
    pub cpu_peak_bytes: u64,
}

/// Run the traced loop until `budget` has elapsed on rank 0 (and at
/// least `min_steps` steps), over `backend`.
pub fn run(
    w: &Workload,
    seed: u64,
    backend: Arc<dyn StorageBackend>,
    budget: Duration,
    min_steps: usize,
) -> Result<TracedRun> {
    let tracer = Tracer::with_capacity(RING_CAPACITY);
    let node = Arc::new(NodeResources::with_backend_policy_comm_tracer(
        &w.node(),
        WORLD,
        backend,
        RetryPolicy::default(),
        CommConfig::default(),
        tracer.clone(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let node = Arc::clone(&node);
            let stop = Arc::clone(&stop);
            let w = *w;
            std::thread::Builder::new()
                .name(format!("perfbench-rank-{rank}"))
                .spawn(move || {
                    let res = rank_loop(rank, &w, seed, &node, &stop, budget, min_steps);
                    if res.is_err() {
                        // Wake the sibling out of any collective it waits in.
                        node.group.abort_rank(rank);
                    }
                    res
                })
                .map_err(|e| Error::Internal(format!("spawn rank {rank}: {e}")))
        })
        .collect::<Result<_>>()?;
    let mut rank0 = None;
    let mut first_err = None;
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(r)) => {
                if rank == 0 {
                    rank0 = r;
                }
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(Error::Internal(format!("rank {rank} panicked"))))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let (losses, steps, gpu_peak_bytes, cpu_peak_bytes) =
        rank0.ok_or_else(|| Error::Internal("rank 0 returned no record".into()))?;
    let events = tracer.take_events();
    let rank0_tid = events.iter().find(|e| e.name == RANK0_MARK).map(|e| e.tid);
    Ok(TracedRun {
        losses,
        steps,
        events,
        counters: tracer.snapshot(),
        io: node.nvme.stats(),
        rank0_tid,
        gpu_peak_bytes,
        cpu_peak_bytes,
    })
}

type Rank0Record = (Vec<f32>, Vec<StepRec>, u64, u64);

fn rank_loop(
    rank: usize,
    w: &Workload,
    seed: u64,
    node: &NodeResources,
    stop: &AtomicBool,
    budget: Duration,
    min_steps: usize,
) -> Result<Option<Rank0Record>> {
    // Built exactly as the trainer builds each rank.
    let spec = w.spec(seed, 0);
    let model = GptModel::new(spec.model);
    let mut engine = ZeroEngine::new(
        model.registry(),
        spec.strategy.with_prefetch_window(spec.prefetch_window),
        node.offload_manager(),
        node.group.communicator(rank),
        spec.adam,
    )?;
    engine.set_grad_accumulation(spec.grad_accumulation);
    let opts = RunOptions {
        batch: spec.micro_batch,
        activation_checkpointing: spec.activation_checkpointing,
        prefetch_window: spec.prefetch_window,
    };
    let comm = node.group.communicator(rank);
    let tracer = node.tracer().clone();
    let mgr = node.offload_manager();
    let rows = spec.micro_batch * spec.model.seq;
    let mut acts = InMemoryActStore::new();
    let mut losses = Vec::new();
    let mut recs = Vec::new();
    if rank == 0 {
        tracer.instant(Category::Compute, RANK0_MARK, 0, 0);
    }
    let t_start = Instant::now();
    let mut step = 0usize;
    loop {
        let engine_before = engine.stats();
        let io_before = mgr.nvme().stats();
        let counters_before = tracer.snapshot();
        let t_step = Instant::now();
        let mut envelope = tracer.span(Category::Compute, STEP_SPAN);
        envelope.set_id(step as u64);
        let (tokens, targets) = synthetic_batch(&spec.model, WORLD * spec.micro_batch, step);
        let (lo, hi) = (rank * rows, (rank + 1) * rows);
        let times = StoreTimes::default();
        let mut marks = PhaseMarks {
            times: &times,
            backward_from: None,
        };
        let t_call = Instant::now();
        let loss = {
            let mut fwdbwd = tracer.span(Category::Compute, "fwdbwd");
            fwdbwd.set_id(step as u64);
            let mut store = TimedStore {
                inner: &mut engine,
                times: &times,
            };
            model.train_step_full(
                &mut store,
                &mut acts,
                &tokens[lo..hi],
                &targets[lo..hi],
                &opts,
                &mut marks,
            )?
        };
        let call_ns = t_call.elapsed().as_nanos() as u64;
        let t_opt = Instant::now();
        engine.step()?;
        let step_ns = t_opt.elapsed().as_nanos() as u64;
        step += 1;
        // Rank 0 decides before entering the loss collective whether this
        // was the last step; the collective orders that decision before
        // rank 1 reads it, so both ranks stop after the same step.
        if rank == 0 && step >= min_steps && t_start.elapsed() >= budget {
            stop.store(true, Ordering::Release);
        }
        let t_loss = Instant::now();
        let mean = comm.sum_scalar(loss)? / WORLD as f32;
        let loss_wait_ns = t_loss.elapsed().as_nanos() as u64;
        drop(envelope);
        let wall_ns = t_step.elapsed().as_nanos() as u64;
        losses.push(mean);
        if rank == 0 {
            let t_flush = Instant::now();
            tracer.flush();
            let flush_ns = t_flush.elapsed().as_nanos() as u64;
            let inside = times.inside_ns();
            let (bwd_at, inside_at_bwd) = marks.backward_from.unwrap_or((Instant::now(), inside));
            let fwd_span = bwd_at.duration_since(t_call).as_nanos() as u64;
            recs.push(StepRec {
                wall_ns,
                flush_ns,
                fwd_ns: fwd_span.saturating_sub(inside_at_bwd),
                bwd_ns: call_ns
                    .saturating_sub(fwd_span)
                    .saturating_sub(inside - inside_at_bwd),
                get_ns: times.get_ns.get(),
                get_calls: times.get_calls.get(),
                release_ns: times.release_ns.get(),
                add_grad_ns: times.add_grad_ns.get(),
                hint_ns: times.hint_ns.get(),
                step_ns,
                loss_wait_ns,
                engine: engine_delta(&engine.stats(), &engine_before),
                io: io_delta(&mgr.nvme().stats(), &io_before),
                counters: counter_delta(&tracer.snapshot(), &counters_before),
            });
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
    let peaks = (
        mgr.hierarchy().stats(Device::gpu(rank)).peak_in_use,
        mgr.hierarchy().stats(Device::cpu()).peak_in_use,
    );
    engine.dispose()?;
    Ok((rank == 0).then_some((losses, recs, peaks.0, peaks.1)))
}

fn engine_delta(a: &EngineStats, b: &EngineStats) -> EngineStats {
    let mut d = EngineStats {
        allgathers: a.allgathers - b.allgathers,
        gathered_elems: a.gathered_elems - b.gathered_elems,
        grad_reductions: a.grad_reductions - b.grad_reductions,
        cache_hits: a.cache_hits - b.cache_hits,
        optimizer_chunks: a.optimizer_chunks - b.optimizer_chunks,
        skipped_steps: a.skipped_steps - b.skipped_steps,
        steps: a.steps - b.steps,
        step_io_overlap: a.step_io_overlap - b.step_io_overlap,
        prefetch: a.prefetch,
    };
    d.prefetch.issued -= b.prefetch.issued;
    d.prefetch.hits -= b.prefetch.hits;
    d.prefetch.misses -= b.prefetch.misses;
    d.prefetch.late -= b.prefetch.late;
    d.prefetch.coalesced -= b.prefetch.coalesced;
    d
}

fn io_delta(a: &IoStats, b: &IoStats) -> IoStats {
    IoStats {
        reads: a.reads - b.reads,
        writes: a.writes - b.writes,
        bytes_read: a.bytes_read - b.bytes_read,
        bytes_written: a.bytes_written - b.bytes_written,
        errors: a.errors - b.errors,
        retries: a.retries - b.retries,
        gave_up: a.gave_up - b.gave_up,
        in_flight_peak: a.in_flight_peak,
    }
}

fn counter_delta(a: &CounterSnapshot, b: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        wb_stalls: a.wb_stalls - b.wb_stalls,
        pinned_waits: a.pinned_waits - b.pinned_waits,
        ..CounterSnapshot::default()
    }
}

/// Per-step hop figures, from the program's own spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopStep {
    pub nc_busy_ns: u64,
    pub nc_hidden_ns: u64,
    pub nc_efficiency: f64,
    pub cg_bytes: u64,
    pub cp_busy_ns: u64,
    pub gg_busy_ns: u64,
    pub gg_calls: u64,
    pub rs_busy_ns: u64,
    pub adam_ns: u64,
}

/// Fold the event stream into per-step hop figures, keyed by step id.
///
/// `OverlapReport` groups allgathers and reduce-scatters into one `gg`
/// hop; running it once without each category separates the two.
pub fn hop_steps(events: &[Event], rank0_tid: Option<u64>) -> Vec<(u64, HopStep)> {
    let all = OverlapReport::from_events(events);
    let without = |cat: Category| -> OverlapReport {
        let kept: Vec<Event> = events.iter().filter(|e| e.cat != cat).copied().collect();
        OverlapReport::from_events(&kept)
    };
    let gather_only = without(Category::ReduceScatter);
    let reduce_only = without(Category::Allgather);
    all.steps
        .iter()
        .zip(&gather_only.steps)
        .zip(&reduce_only.steps)
        .map(|((s, g), r)| {
            let in_window = |e: &&Event| e.start_ns >= s.start_ns && e.start_ns < s.end_ns;
            let gg_calls = events
                .iter()
                .filter(in_window)
                .filter(|e| e.cat == Category::Allgather && e.dur_ns > 0)
                .count() as u64;
            let adam_ns = events
                .iter()
                .filter(in_window)
                .filter(|e| e.name == "adam_chunk" && Some(e.tid) == rank0_tid)
                .map(|e| e.dur_ns)
                .sum();
            let [nc, cg, _, cp] = s.hops;
            (
                s.step,
                HopStep {
                    nc_busy_ns: nc.busy_ns,
                    nc_hidden_ns: nc.hidden_ns,
                    nc_efficiency: nc.efficiency(),
                    cg_bytes: cg.bytes,
                    cp_busy_ns: cp.busy_ns,
                    gg_busy_ns: g.hops[2].busy_ns,
                    gg_calls,
                    rs_busy_ns: r.hops[2].busy_ns,
                    adam_ns,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::{bit_equal, untraced_session, Ops};
    use crate::workload::Devices;
    use crate::Checks;
    use zi_nvme::MemBackend;

    #[test]
    fn traced_loop_matches_the_trainer_and_reconciles() {
        let w = crate::e2e::tests::TINY;
        let run = run(&w, 7, Arc::new(MemBackend::new()), Duration::ZERO, 3).unwrap();
        assert_eq!(run.losses.len(), 3);
        assert_eq!(run.counters.events_dropped, 0);
        assert!(run.rank0_tid.is_some());
        for s in &run.steps {
            assert!(s.parts_ns() <= s.wall_ns);
            assert!(s.get_calls > 0 && s.engine.allgathers > 0);
        }
        assert_eq!(hop_steps(&run.events, run.rank0_tid).len(), 3);

        let mut devices =
            Devices::new(&std::env::temp_dir().join("perfbench-test-traced")).unwrap();
        let (mut ops, mut checks) = (Ops::default(), Checks::default());
        let reference = untraced_session(&w, 7, 3, &mut devices, &mut ops, &mut checks).unwrap();
        assert!(bit_equal(&run.losses, &reference.outcome.losses));
    }
}
