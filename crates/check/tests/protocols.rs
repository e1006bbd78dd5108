//! Model-check harnesses for the workspace's real concurrency
//! protocols: the generation barrier under scripted rank death and the
//! membership join handshake racing that death
//! (`zi-comm`), the write-behind engine's `flush` durability barrier and
//! the checkpoint store's `save_async`/crash/`open` recovery
//! (`zi-nvme`), and the buffer pools (`zi-memory`).
//!
//! Under `RUSTFLAGS="--cfg zi_check"` each body is explored across
//! thousands of distinct interleavings with deadlock, lost-wakeup, and
//! data-race detection; failures print a replayable seed/trace. In a
//! passthrough build the same bodies run once on real primitives, so
//! this file doubles as a plain concurrency smoke test.

use zi_sync::Arc;

use zi_adapt::{KnobCell, Knobs};
use zi_check::{Checker, Report};
use zi_comm::{CommConfig, CommFaultPlan, CommGroup, Membership};
use zi_memory::{PinnedBufferPool, ScratchPool};
use zi_nvme::{CheckpointStore, FaultPlan, FaultyBackend, MemBackend, NvmeEngine, StorageBackend};
use zi_sync::thread;
use zi_trace::{Category, Event, Ring};
use zi_types::Error;

/// Distinct-schedule floor each harness must reach (or exhaust the
/// bounded space) in model-checking builds.
const DISTINCT_TARGET: usize = 1000;

fn drive(name: &str, checker: Checker, body: impl Fn() + Send + Sync + 'static) -> Report {
    let report = checker.check(name, body);
    eprintln!(
        "harness `{name}`: {} distinct / {} schedules, {} steps, exhausted={}",
        report.distinct, report.schedules, report.steps, report.exhausted
    );
    if let Some(f) = &report.failure {
        panic!("harness `{name}` failed after {} schedules\n{f}", report.schedules);
    }
    if zi_check::enabled() {
        assert!(
            report.covered(DISTINCT_TARGET),
            "harness `{name}` explored only {} distinct schedules \
             (target {DISTINCT_TARGET}, exhausted={})",
            report.distinct,
            report.exhausted,
        );
    }
    report
}

/// Random sampling for protocols whose interleaving space dwarfs the
/// distinct-schedule target.
fn run(name: &str, body: impl Fn() + Send + Sync + 'static) -> Report {
    drive(name, Checker { schedules: 2500, ..Checker::default() }, body)
}

/// Exhaustive (unbounded-preemption) DFS for protocols whose full space
/// is smaller than the sampling target — complete enumeration is the
/// stronger guarantee there.
fn run_exhaustive(name: &str, body: impl Fn() + Send + Sync + 'static) -> Report {
    let checker = Checker {
        mode: zi_check::Mode::Dfs,
        schedules: 200_000,
        preemptions: usize::MAX,
        ..Checker::default()
    };
    drive(name, checker, body)
}

// ---------------------------------------------------------------------------
// Protocol 1: generation barrier under scripted rank death.
//
// Invariant: a rank dying mid-sequence never hangs the group — every
// rank (victim and survivor) gets a typed `RankFailed{victim}` promptly,
// and the group latches exactly one failed rank, forever.

fn barrier_rank_death_body() {
    let plan = CommFaultPlan::new();
    plan.kill_rank_after_ops(1, 1); // dies entering its 2nd collective
    let group = CommGroup::with_config(
        2,
        CommConfig { faults: plan, ..CommConfig::default() },
    );
    let handles: Vec<_> = group
        .communicators()
        .into_iter()
        .map(|comm| {
            thread::spawn(move || {
                for i in 0..4u32 {
                    if let Err(e) = comm.barrier() {
                        return (i, e);
                    }
                }
                panic!("rank {} survived a broken group", comm.rank());
            })
        })
        .collect();
    let results: Vec<(u32, Error)> =
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    for (rank, (i, e)) in results.iter().enumerate() {
        assert!(
            matches!(e, Error::RankFailed { rank: 1, .. }),
            "rank {rank} got {e} instead of RankFailed{{1}}"
        );
        assert!(*i >= 1, "the first barrier precedes the kill, so it must succeed");
    }
    assert_eq!(results[1].0, 1, "victim dies entering its 2nd collective");
    assert_eq!(group.failed_rank(), Some(1), "exactly one failure generation latched");
}

#[test]
fn barrier_survives_scripted_rank_death() {
    run("barrier-rank-death", barrier_rank_death_body);
}

// ---------------------------------------------------------------------------
// Protocol 2: write-behind engine — `flush` is a true durability
// barrier.
//
// Invariant: after `flush` returns, every previously submitted write
// (ticketed and detached) has reached the backend and nothing is in
// flight — in every interleaving of submitter, worker, and flusher.

fn engine_flush_body() {
    let backend = Arc::new(MemBackend::new());
    let eng = NvmeEngine::new(Arc::clone(&backend) as Arc<dyn StorageBackend>, 1);
    eng.submit_write_detached(0, vec![1u8; 8]);
    let ticket = eng.submit_write(64, vec![2u8; 8]);
    eng.flush().expect("flush cannot fail on a healthy backend");
    assert_eq!(eng.in_flight(), 0, "flush left requests in flight");
    assert_eq!(backend.bytes_written(), 16, "flush returned before writes were durable");
    assert!(eng.wait(ticket).expect("ticketed write").is_none());
    drop(eng); // must join the worker without hanging in any schedule
}

#[test]
fn engine_flush_is_a_durability_barrier() {
    run("engine-flush-drain", engine_flush_body);
}

// ---------------------------------------------------------------------------
// Protocol 3: checkpoint store — concurrent `save_async` + torn-write
// crash + reopen recovery.
//
// Invariant: whatever interleaving of the queuing thread, the
// background writer, and the draining thread plays out, reopening the
// device never offers the torn version: recovery always lands on the
// last durable checkpoint with an intact payload.

fn store_crash_recovery_body() {
    let plan = FaultPlan::new();
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    {
        let store =
            CheckpointStore::new(Arc::clone(&backend), 1, 2).expect("create store");
        store.save(0, 1, b"version-one").expect("sync save v1");
        // The very next write — v2's slot invalidation — tears partway
        // through, so v2 can never be published.
        plan.torn_next_writes(1);
        let queued = store.clone();
        let t = thread::spawn(move || {
            let _ = queued.save_async(0, 2, b"version-two".to_vec());
        });
        // Race the durability barrier against the queue and the writer:
        // depending on the schedule it observes the failure or returns
        // before the save is even queued. Either is legal; recovery
        // below must not depend on it.
        let _ = store.drain();
        t.join().expect("queuing thread");
        let _ = store.drain();
    } // drop joins the background writer
    let store = CheckpointStore::open(Arc::clone(&backend)).expect("reopen device");
    assert_eq!(
        store.latest_complete(1).expect("scan"),
        Some(1),
        "torn v2 must never be offered for recovery"
    );
    assert_eq!(store.load(0, 1).expect("latest durable payload"), b"version-one".to_vec());
}

#[test]
fn store_recovery_never_sees_torn_manifests() {
    run("store-crash-recovery", store_crash_recovery_body);
}

// ---------------------------------------------------------------------------
// Protocol 4: buffer pools — checkout/return under contention.
//
// Invariant: a single-buffer pinned pool hands its buffer to both
// threads (one blocks on the condvar until the other returns it),
// bookkeeping balances, and the scratch pool recycles without losing
// vectors — no deadlock, no lost wakeup, no race on the counters.

fn pool_checkout_body() {
    let pool = PinnedBufferPool::new(1, 4);
    let scratch = ScratchPool::new();
    let (p2, s2) = (pool.clone(), scratch.clone());
    let t = thread::spawn(move || {
        let mut b = p2.acquire();
        b.as_mut_slice()[0] ^= 0xff;
        let mut v = s2.acquire(4);
        v.push(1.0);
    });
    {
        let mut b = pool.acquire();
        b.as_mut_slice()[0] ^= 0xff;
        let mut v = scratch.acquire(4);
        v.push(2.0);
    }
    t.join().expect("contending thread");
    assert_eq!(pool.outstanding(), 0, "a checkout was never returned");
    assert_eq!(pool.total_acquires(), 2);
    assert_eq!(pool.acquire().as_slice()[0], 0, "both threads saw the same buffer");
    let st = scratch.stats();
    assert_eq!(st.allocated + st.reused, 2);
    assert_eq!(scratch.idle(), st.allocated as usize, "every scratch vector came home");
}

#[test]
fn pools_checkout_return_race_free() {
    run_exhaustive("pool-checkout-return", pool_checkout_body);
}

// ---------------------------------------------------------------------------
// Protocol 5: tracer event ring — the SPSC push/drain hand-off.
//
// The ring's slots are deliberately unordered `RaceCell`s; only the
// release-store of `head` (producer) and `tail` (consumer) make slot
// access safe, so the race detector verifies exactly that protocol.
//
// Invariant: with a consumer draining *while* the producer pushes into a
// deliberately tiny ring, every event is either drained intact or
// counted as dropped — accepted + dropped == produced, nothing is lost,
// and no drained slot is torn (every field still matches what the
// producer derived from the event id).

fn trace_ring_drain_body() {
    const EVENTS: u64 = 4;
    const TID: u64 = 7;
    let ring = Arc::new(Ring::new(TID, 2)); // capacity 2 forces the full-ring drop path
    let producer_ring = Arc::clone(&ring);
    let producer = thread::spawn(move || {
        let mut accepted = 0u64;
        for i in 0..EVENTS {
            let ev = Event {
                cat: Category::NcTransfer,
                name: "nc.read",
                start_ns: i,
                dur_ns: i * 3,
                bytes: i * 5 + 1,
                flops: 0,
                id: i,
                tid: 0, // push stamps the ring's tid
            };
            if producer_ring.push(ev) {
                accepted += 1;
            }
        }
        accepted
    });
    let mut drained = Vec::new();
    ring.drain_into(&mut drained); // races the producer
    let accepted = producer.join().expect("producer thread");
    ring.drain_into(&mut drained); // post-join: collect whatever is left
    assert!(ring.is_empty(), "a final drain must empty the ring");
    assert_eq!(drained.len() as u64, accepted, "an accepted event was lost");
    assert_eq!(accepted + ring.dropped(), EVENTS, "accept/drop bookkeeping leaks events");
    assert!(accepted >= 2, "a capacity-2 ring accepts at least the first two events");
    let mut last_id = None;
    for ev in &drained {
        let i = ev.id;
        assert!(last_id.is_none_or(|l| l < i), "events must drain in push order");
        last_id = Some(i);
        assert_eq!(
            (ev.start_ns, ev.dur_ns, ev.bytes, ev.tid),
            (i, i * 3, i * 5 + 1, TID),
            "drained slot torn: fields disagree with event id {i}"
        );
    }
}

#[test]
fn trace_ring_drain_race_free() {
    run_exhaustive("trace-ring-drain", trace_ring_drain_body);
}

// ---------------------------------------------------------------------------
// Protocol 6: adaptive knob hand-off — controller publish vs. engine
// poll/wait on the versioned knob cell.
//
// Invariant: a reader never observes a torn knob set (all three fields
// of a publish become visible together), versions are strictly monotone
// per reader even when intermediate publishes are skipped, and a
// blocked `wait_past` never misses the wakeup for a publish that races
// it — the exact hand-off `run_rank` performs between optimizer steps.

fn knob_cell_handoff_body() {
    // Fields derived from one generator so a torn read (fields from two
    // different publishes) is detectable by arithmetic alone.
    fn knobs(v: usize) -> Knobs {
        Knobs {
            step_pipeline_depth: v,
            prefetch_window: 2 * v,
            write_behind: 3 * v,
            optimizer_cpu_permille: 125 * v,
        }
    }
    fn check(version: u64, k: Knobs) {
        let v = k.step_pipeline_depth;
        assert!((1..=3).contains(&v), "version {version}: impossible depth {v}");
        assert_eq!(
            (k.prefetch_window, k.write_behind, k.optimizer_cpu_permille),
            (2 * v, 3 * v, 125 * v),
            "torn read at version {version}: {k}"
        );
    }
    let cell = Arc::new(KnobCell::new(knobs(1))); // version 1

    // The controller: two back-to-back retunes.
    let publisher = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            assert_eq!(cell.publish(knobs(2)), 2, "versions count publishes");
            assert_eq!(cell.publish(knobs(3)), 3);
        })
    };
    // A polling rank: the non-blocking per-step `read_if_newer` loop,
    // then a blocking tail so the schedule always ends having seen the
    // final publish (progress guarantee).
    let poller = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            let (mut seen, first) = cell.read();
            check(seen, first);
            for _ in 0..3 {
                if let Some((v, k)) = cell.read_if_newer(seen) {
                    assert!(v > seen, "read_if_newer returned a stale version");
                    check(v, k);
                    seen = v;
                }
            }
            while seen < 3 {
                let (v, k) = cell.wait_past(seen);
                assert!(v > seen, "wait_past returned a stale version");
                check(v, k);
                seen = v;
            }
        })
    };
    // A purely blocking rank: `wait_past` chained to the end — the
    // deadlock detector turns any lost wakeup into a failure.
    let waiter = {
        let cell = Arc::clone(&cell);
        thread::spawn(move || {
            let mut seen = 1u64;
            while seen < 3 {
                let (v, k) = cell.wait_past(seen);
                assert!(v > seen);
                check(v, k);
                seen = v;
            }
        })
    };
    publisher.join().expect("publisher");
    poller.join().expect("poller");
    waiter.join().expect("waiter");
    let (v, k) = cell.read();
    assert_eq!((v, k), (3, knobs(3)), "the last publish must win");
}

#[test]
fn knob_cell_handoff_is_race_free() {
    run("knob-cell-handoff", knob_cell_handoff_body);
}

// ---------------------------------------------------------------------------
// Protocol 7: kernel worker pool — job submission, index claiming and
// the per-job completion barrier.
//
// Invariants: every index of every job runs exactly once (no lost or
// double-claimed tiles); `run` does not return before all of its
// indices completed (the completion mutex provides the happens-before
// edge, so the submitter's reads of task output are race-free); a
// panicking task still releases the submitter; and pool shutdown never
// deadlocks against in-flight jobs.

fn kernel_pool_tiling_body() {
    use zi_tensor::pool::KernelPool;

    let pool = KernelPool::new(2);
    // Two jobs back-to-back from the same submitter, writing disjoint
    // slots. Plain (non-atomic) writes: if two tasks ever claimed the
    // same index, or `run` returned early, the race detector and the
    // assertions below would fire.
    let mut out = vec![0u32; 5];
    {
        let base = zi_tensor::pool::SendPtr::new(out.as_mut_ptr());
        pool.run(5, &move |i| {
            // SAFETY: each index is claimed exactly once, so writes are
            // disjoint; `run` returns only after all of them finish.
            unsafe { *base.get().add(i) = i as u32 + 1 };
        });
    }
    assert_eq!(out, vec![1, 2, 3, 4, 5], "job 1: every tile exactly once");
    {
        let base = zi_tensor::pool::SendPtr::new(out.as_mut_ptr());
        pool.run(3, &move |i| {
            // SAFETY: same disjoint-index argument as job 1.
            unsafe { *base.get().add(i) += 10 };
        });
    }
    assert_eq!(out, vec![11, 12, 13, 4, 5], "job 2: reuses the same pool");
    drop(pool); // shutdown must join both workers without deadlock
}

#[test]
fn kernel_pool_tiling_is_race_free() {
    run("kernel-pool-tiling", kernel_pool_tiling_body);
}

// ---------------------------------------------------------------------------
// Protocol 8: membership join handshake racing a scripted rank death.
//
// A joiner requests admission while a 2-rank group runs collectives and
// a comm fault plan scripts rank 1's death entering its 3rd barrier.
// Whichever latches first wins, and the precedence rule keeps the
// outcome coherent:
//
//   * resize first — rank 1's fatal admit is preempted by the retirement
//     check, the kill never fires, and every rank gets a voluntary
//     `MembershipChange`; the group latches no failure.
//   * failure first — `mark_resize` is a no-op on a failed group, so
//     the resize never latches and the victim gets `RankFailed{1}`; the
//     join request itself survives in the ledger for the next
//     generation.
//
// The two planes are *not* one atomic step: a survivor can be retired
// by the resize in the same instant the victim's scripted kill fires,
// so a survivor's classification may race (`MembershipChange` vs
// `RankFailed`). What must hold in every interleaving: no rank ever
// hangs; every halt is one of the two typed errors; the victim of a
// fired kill always reports its own death; the latched group state
// agrees with the strongest class any rank observed (failure outranks
// resize); and folding the next generation accounts for the join
// exactly once (`pending_joins` drains to zero, world = base + 1).

fn join_handshake_vs_rank_death_body() {
    let plan = CommFaultPlan::new();
    plan.kill_rank_after_ops(1, 2); // dies entering its 3rd collective
    let membership = Membership::new(2);
    let group = CommGroup::with_config(
        2,
        CommConfig { faults: plan, membership: Some(membership.clone()), ..CommConfig::default() },
    );
    let joiner = {
        let membership = membership.clone();
        thread::spawn(move || membership.request_join())
    };
    let handles: Vec<_> = group
        .communicators()
        .into_iter()
        .map(|comm| {
            thread::spawn(move || {
                for i in 0..6u32 {
                    if let Err(e) = comm.barrier() {
                        return (i, e);
                    }
                }
                panic!("rank {} outlived both the kill and the retirement", comm.rank());
            })
        })
        .collect();
    let results: Vec<(u32, Error)> =
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    joiner.join().expect("joiner thread");

    let mut saw_failure = false;
    for (rank, (i, e)) in results.iter().enumerate() {
        match e {
            Error::MembershipChange { joining: 1, .. } => {}
            Error::RankFailed { rank: 1, .. } => saw_failure = true,
            other => panic!("rank {rank} got untyped halt {other}"),
        }
        assert!(*i <= 2, "rank {rank} survived past the kill threshold ({i})");
    }
    if saw_failure {
        // Only the victim's scripted admit can latch the failure, so it
        // must have reported its own death even when the survivor's
        // classification raced the resize.
        assert!(
            matches!(results[1].1, Error::RankFailed { rank: 1, .. }),
            "failure latched but the victim reported {:?}",
            results[1].1
        );
        assert_eq!(group.failed_rank(), Some(1), "observed failure never latched");
        assert_eq!(group.pending_resize(), None, "failure must outrank the resize latch");
    } else {
        assert_eq!(group.failed_rank(), None, "voluntary retirement latched a failure");
        assert_eq!(group.pending_resize(), Some(1), "retirement without a latched resize");
    }
    // The generation fold: survivors (1 after a death, both otherwise)
    // plus the one join, with the ledger drained.
    assert_eq!(membership.pending_joins(), 1, "join request lost before the fold");
    let base = if saw_failure { 1 } else { 2 };
    assert_eq!(membership.next_generation(base), (1, base + 1));
    assert_eq!(membership.pending_joins(), 0, "fold must drain the join ledger");
}

#[test]
fn join_handshake_survives_racing_rank_death() {
    run("join-handshake-vs-rank-death", join_handshake_vs_rank_death_body);
}

fn kernel_pool_panic_release_body() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use zi_tensor::pool::KernelPool;

    let pool = KernelPool::new(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run(2, &|i| {
            if i == 1 {
                panic!("tile panic");
            }
        });
    }));
    assert!(result.is_err(), "task panic must propagate to the submitter");
    // The pool must remain serviceable after a panicked job.
    let counter = zi_sync::atomic::AtomicU32::new(0);
    pool.run(3, &|_| {
        counter.fetch_add(1, zi_sync::atomic::Ordering::SeqCst);
    });
    assert_eq!(counter.load(zi_sync::atomic::Ordering::SeqCst), 3, "pool usable after panic");
}

#[test]
fn kernel_pool_panic_releases_submitter() {
    run("kernel-pool-panic-release", kernel_pool_panic_release_body);
}
