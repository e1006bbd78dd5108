//! End-to-end measurement with tracing off.
//!
//! * `setup_s` — node and engine construction (partitioning and
//!   offloading every parameter), repeated and reported as a median.
//! * `tokens_per_s` — alternating short and long `train_gpt_env` runs;
//!   the step rate is the difference between the two, so set-up, the
//!   final parameter export and teardown cancel out. Rounds slowed by
//!   bursts of host CPU steal are left out (see [`run`]).
//! * `loss_final` — the long run's last mean loss; deterministic for a
//!   given seed, so every long run must reproduce it bit for bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zero_infinity::{train_gpt_env, NodeResources, TrainEnv, TrainOutcome, ZeroEngine};
use zi_comm::CommConfig;
use zi_model::GptModel;
use zi_nvme::RetryPolicy;
use zi_trace::{CounterSnapshot, Tracer};
use zi_types::{Error, Result};

use crate::stats::{median, peak_rss_mib, CpuTimes};
use crate::workload::{Devices, Workload, WORLD};
use crate::Checks;

/// Set-ups timed in each measurement round.
const SETUPS_PER_ROUND: usize = 3;

/// Fewest measurement rounds a run makes, however long they take.
const MIN_ROUNDS: usize = 3;

/// Rounds whose host CPU steal share exceeds the quietest round's by
/// more than this are left out of the medians when enough others remain.
const STEAL_SLACK: f64 = 0.02;

/// One measurement round: set-ups, then a short and a long session.
struct Round {
    /// Share of the machine's CPU time stolen by the host meanwhile.
    steal: f64,
    setups: Vec<f64>,
    /// Long-session minus short-session wall time, s.
    diff: f64,
}

/// One untraced `train_gpt_env` session.
pub struct Session {
    pub wall: Duration,
    pub outcome: TrainOutcome,
}

/// Operation accounting for `ops_failed_ratio`: optimizer steps plus
/// NVMe requests attempted, and those that did not complete.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run `train_gpt_env` for `steps` steps on a fresh device with a noop
/// tracer, and check the tracer really recorded nothing.
pub fn untraced_session(
    w: &Workload,
    seed: u64,
    steps: usize,
    devices: &mut Devices,
    ops: &mut Ops,
    checks: &mut Checks,
) -> Result<Session> {
    let tracer = Tracer::noop();
    let env = TrainEnv {
        tracer: Some(tracer.clone()),
        ..TrainEnv::new(devices.fresh(w)?)
    };
    ops.attempted += steps as u64;
    let t0 = Instant::now();
    let res = train_gpt_env(&w.spec(seed, steps), env);
    let wall = t0.elapsed();
    devices.clear();
    let outcome = match res {
        Ok(o) => o,
        Err(e) => {
            ops.failed += steps as u64;
            return Err(e);
        }
    };
    let io = outcome.health.io;
    ops.attempted += io.reads + io.writes;
    ops.failed += io.errors + io.gave_up;
    ops.failed += steps.saturating_sub(outcome.losses.len()) as u64;
    checks.check(
        "untraced run records no events and no counters",
        tracer.take_events().is_empty() && tracer.snapshot() == CounterSnapshot::default(),
    );
    checks.check(
        "untraced run needed no recovery",
        !outcome.degraded && outcome.recoveries == 0 && outcome.elastic.is_empty(),
    );
    Ok(Session { wall, outcome })
}

/// Wall time to build a node over a fresh device and one engine per
/// rank — every parameter initialized, partitioned and offloaded.
pub fn setup_once(w: &Workload, seed: u64, devices: &mut Devices) -> Result<Duration> {
    let backend = devices.fresh(w)?;
    let t0 = Instant::now();
    let node = Arc::new(NodeResources::with_backend_policy_comm_tracer(
        &w.node(),
        WORLD,
        backend,
        RetryPolicy::default(),
        CommConfig::default(),
        Tracer::noop(),
    ));
    let handles: Vec<_> = (0..WORLD)
        .map(|rank| {
            let node = Arc::clone(&node);
            let w = *w;
            std::thread::spawn(move || -> Result<ZeroEngine> {
                let model = GptModel::new(w.model(seed));
                let spec = w.spec(seed, 0);
                ZeroEngine::new(
                    model.registry(),
                    spec.strategy.with_prefetch_window(spec.prefetch_window),
                    node.offload_manager(),
                    node.group.communicator(rank),
                    spec.adam,
                )
            })
        })
        .collect();
    let mut engines = Vec::with_capacity(WORLD);
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(e)) => engines.push(e),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(Error::Internal("setup thread panicked".into())))
            }
        }
    }
    let wall = t0.elapsed();
    for e in engines {
        e.dispose()?;
    }
    drop(node);
    devices.clear();
    match first_err {
        Some(e) => Err(e),
        None => Ok(wall),
    }
}

/// Everything the untraced run reports.
pub struct EndToEnd {
    pub tokens_per_s: f64,
    pub setup_s: f64,
    pub loss_final: f64,
    pub peak_rss_mib: f64,
    pub rounds: usize,
    pub rounds_used: usize,
    pub max_steal_used: f64,
}

pub fn run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    devices: &mut Devices,
    ops: &mut Ops,
    checks: &mut Checks,
) -> Result<EndToEnd> {
    let start = Instant::now();
    // The first session runs in a cold process: it warms the page cache
    // and the kernel pool, fixes the reference losses, and is the one
    // whose peak resident memory is reported. Later sessions spawn fresh
    // rank threads whose allocator arenas only ever add to the
    // high-water mark, so reading it later would make the figure depend
    // on how many sessions the time budget allowed.
    let first = untraced_session(w, seed, w.long_steps, devices, ops, checks)?;
    let peak_rss_mib = peak_rss_mib();
    let reference = first.outcome.losses;
    check_losses(&reference, w.long_steps, checks);

    // Alternate set-ups, short and long sessions until the budget is
    // spent, so drift on the machine hits every figure alike. Host CPU
    // steal comes in bursts of a few seconds that slow whatever runs
    // through them, so both the set-up median and the step rate (the
    // median long-minus-short difference) are taken over the rounds
    // whose steal is within STEAL_SLACK of the quietest round's, or the
    // quieter half of the rounds if fewer qualify.
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let round_start = Instant::now();
        let cpu_before = CpuTimes::now();
        let mut setups = Vec::with_capacity(SETUPS_PER_ROUND);
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(setup_once(w, seed, devices)?.as_secs_f64());
        }
        let short = untraced_session(w, seed, w.short_steps, devices, ops, checks)?;
        let long = untraced_session(w, seed, w.long_steps, devices, ops, checks)?;
        rounds.push(Round {
            steal: cpu_before
                .and_then(|c| c.steal_share_since())
                .unwrap_or(0.0),
            setups,
            diff: long.wall.as_secs_f64() - short.wall.as_secs_f64(),
        });
        checks.check(
            "short runs reproduce the long run's first losses bit for bit",
            reference
                .get(..w.short_steps)
                .is_some_and(|r| bit_equal(&short.outcome.losses, r)),
        );
        checks.check(
            "every long run reproduces the same losses bit for bit",
            bit_equal(&long.outcome.losses, &reference),
        );
        if rounds.len() >= MIN_ROUNDS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    rounds.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let floor = rounds.first().map_or(0.0, |r| r.steal);
    let near_floor = rounds
        .iter()
        .filter(|r| r.steal <= floor + STEAL_SLACK)
        .count();
    let quiet = &rounds[..near_floor.max(rounds.len().div_ceil(2))];
    let diff = median(&quiet.iter().map(|r| r.diff).collect::<Vec<_>>());
    let setups: Vec<f64> = quiet
        .iter()
        .flat_map(|r| r.setups.iter().copied())
        .collect();
    checks.check("long runs take longer than short runs", diff > 0.0);
    Ok(EndToEnd {
        tokens_per_s: ((w.long_steps - w.short_steps) * w.tokens_per_step()) as f64 / diff,
        setup_s: median(&setups),
        loss_final: reference.last().copied().unwrap_or(f32::NAN) as f64,
        peak_rss_mib,
        rounds: rounds.len(),
        rounds_used: quiet.len(),
        max_steal_used: quiet.last().map_or(0.0, |r| r.steal),
    })
}

pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every loss finite, the expected count, and training made progress.
pub fn check_losses(losses: &[f32], steps: usize, checks: &mut Checks) {
    checks.check("one loss per step", losses.len() == steps);
    checks.check("every loss is finite", losses.iter().all(|l| l.is_finite()));
    checks.check(
        "final loss is below the step-0 loss",
        matches!((losses.first(), losses.last()), (Some(a), Some(b)) if b < a),
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::Device;
    use zero_infinity::TrainSpec;
    use zi_nvme::MemBackend;

    /// A sub-second workload: the tiny GPT over process memory.
    pub const TINY: Workload = Workload {
        name: "tiny",
        vocab: 16,
        hidden: 8,
        layers: 2,
        heads: 2,
        seq: 4,
        micro_batch: 2,
        nvme: true,
        lr: 1e-3,
        device: Device::Mem,
        short_steps: 1,
        long_steps: 3,
        warmup_steps: 1,
    };

    fn session_with(spec: &TrainSpec, tracer: &Tracer) -> TrainOutcome {
        let env = TrainEnv {
            tracer: Some(tracer.clone()),
            ..TrainEnv::new(Arc::new(MemBackend::new()))
        };
        train_gpt_env(spec, env).unwrap()
    }

    #[test]
    fn noop_tracer_records_no_events_and_no_counters() {
        let spec = TINY.spec(7, 2);
        // An active tracer sees the session, so the noop result is not vacuous.
        let active = Tracer::new();
        session_with(&spec, &active);
        assert!(!active.take_events().is_empty());
        assert_ne!(active.snapshot(), CounterSnapshot::default());

        let noop = Tracer::noop();
        session_with(&spec, &noop);
        assert!(noop.take_events().is_empty());
        assert_eq!(noop.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn untraced_session_passes_its_checks() {
        let mut devices = Devices::new(&std::env::temp_dir().join("perfbench-test")).unwrap();
        let (mut ops, mut checks) = (Ops::default(), Checks::default());
        let s = untraced_session(&TINY, 7, 3, &mut devices, &mut ops, &mut checks).unwrap();
        assert_eq!(s.outcome.losses.len(), 3);
        assert!(checks.all_passed());
        assert_eq!(ops.failed, 0);
        assert!(ops.attempted >= 3);
    }
}
