//! The repo's canonical training benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nvme-wide --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `nvme-wide` (few large NVMe requests, bandwidth-bound),
//! `nvme-deep` (many tiny NVMe requests, per-request-cost-bound) and
//! `cpu-compute` (CPU offload, compute-bound control); see
//! [`workload::WORKLOADS`] and `BENCHMARK.json`.
//!
//! `--trace 0` trains through `zero_infinity::train_gpt_env` with a noop
//! tracer and reports the end-to-end metrics (`tokens_per_s`, `setup_s`,
//! `peak_rss_mib`, `loss_final`). `--trace 1` runs the benchmark's own
//! traced per-rank loop and reports the per-layer breakdown. Both print
//! a machine fingerprint, every correctness check, every metric with its
//! unit, and as the last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `attempted`/`failed` count optimizer steps plus NVMe requests, so
//! `failed / attempted` is the run's `ops_failed_ratio`.
//!
//! Device files are written under `.bench_work/` in the working
//! directory and removed on exit.

mod e2e;
mod stats;
mod traced;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use zero_infinity::trainer::train_dense_baseline;
use zi_types::Result;

use crate::e2e::{bit_equal, check_losses, Ops};
use crate::stats::{median, CpuTimes};
use crate::workload::{Devices, Workload, WORKLOADS, WORLD};

/// Named pass/fail correctness checks; a check recorded several times
/// passes only if every recording passed.
#[derive(Default)]
pub struct Checks {
    list: Vec<(String, bool)>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.list.iter_mut().find(|(n, _)| n == name) {
            Some((_, all)) => *all &= ok,
            None => self.list.push((name.to_string(), ok)),
        }
    }

    pub fn all_passed(&self) -> bool {
        self.list.iter().all(|(_, ok)| *ok)
    }
}

/// Metrics in report order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git revision; `unknown` when the working directory is
/// not itself a git checkout (git would otherwise report an enclosing
/// repository's revision).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn print_fingerprint(a: &Args) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "fingerprint: nproc={nproc} simd={:?} kernel_pool_workers={} profile={profile} git={} \
         workload={} seed={} world={WORLD} rank_threads={WORLD} trace={}",
        zi_tensor::simd::backend(),
        zi_tensor::pool::global().workers(),
        git_rev(),
        a.workload.name,
        a.seed,
        a.trace as u8,
    );
    if nproc != WORLD {
        println!("note: {nproc} cores for {WORLD} rank threads; figures are not comparable across core counts");
    }
}

fn end_to_end(
    a: &Args,
    devices: &mut Devices,
    ops: &mut Ops,
    checks: &mut Checks,
) -> Result<Metrics> {
    let w = &a.workload;
    let r = e2e::run(
        w,
        a.seed,
        Duration::from_secs(a.seconds),
        devices,
        ops,
        checks,
    )?;
    println!(
        "set-up and throughput from the {} of {} rounds ({} vs {} steps, {} tokens/step) \
         with the least host cpu steal (at most {:.1}%)",
        r.rounds_used,
        r.rounds,
        w.short_steps,
        w.long_steps,
        w.tokens_per_step(),
        r.max_steal_used * 100.0
    );
    let mut m = Metrics::default();
    m.put("tokens_per_s", r.tokens_per_s, "tokens/s");
    m.put("setup_s", r.setup_s, "s");
    m.put("peak_rss_mib", r.peak_rss_mib, "MiB");
    m.put("loss_final", r.loss_final, "nats");
    Ok(m)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn per_layer(
    a: &Args,
    devices: &mut Devices,
    ops: &mut Ops,
    checks: &mut Checks,
) -> Result<Metrics> {
    let w = &a.workload;
    let budget = Duration::from_secs(a.seconds) / 2;
    let run = traced::run(w, a.seed, devices.fresh(w)?, budget, w.warmup_steps + 3)?;
    devices.clear();
    let k = run.losses.len();
    ops.attempted += k as u64 + run.io.reads + run.io.writes;
    ops.failed += run.io.errors + run.io.gave_up;

    // Untraced references: the same session through train_gpt_env (its
    // losses must match bit for bit) and a short one to difference
    // against for the untraced step rate.
    let long = e2e::untraced_session(w, a.seed, k, devices, ops, checks)?;
    let short = e2e::untraced_session(w, a.seed, w.short_steps, devices, ops, checks)?;
    checks.check(
        "traced loop losses equal train_gpt_env losses bit for bit",
        bit_equal(&run.losses, &long.outcome.losses),
    );
    check_losses(&run.losses, k, checks);
    let untraced_tps = ((k - w.short_steps) * w.tokens_per_step()) as f64
        / (long.wall.as_secs_f64() - short.wall.as_secs_f64());

    // Single-worker floor: the dense baseline on the same global batch.
    let dense = |steps: usize| -> Result<f64> {
        let t0 = Instant::now();
        train_dense_baseline(
            &w.model(a.seed),
            WORLD * w.micro_batch,
            steps,
            w.adam(),
            false,
        )?;
        Ok(t0.elapsed().as_secs_f64())
    };
    let dense_one = dense(1)?;
    let dense_step_ns = (dense(2)? - dense_one) * 1e9;

    checks.check("trace dropped no events", run.counters.events_dropped == 0);
    checks.check("rank 0 trace marker found", run.rank0_tid.is_some());
    let measured: Vec<traced::StepRec> = run.steps[w.warmup_steps..].to_vec();
    let mut worst_gap = 0.0f64;
    for s in &measured {
        let gap = (s.parts_ns() as f64 - s.wall_ns as f64).abs() / s.wall_ns as f64;
        worst_gap = worst_gap.max(gap);
    }
    checks.check(
        "per-step parts reconcile with step wall time within 5%",
        worst_gap <= 0.05,
    );

    let hops: Vec<traced::HopStep> = traced::hop_steps(&run.events, run.rank0_tid)
        .into_iter()
        .filter(|(step, _)| *step as usize >= w.warmup_steps)
        .map(|(_, h)| h)
        .collect();
    checks.check(
        "one hop record per measured step",
        hops.len() == measured.len(),
    );

    let med = |f: &dyn Fn(&traced::StepRec) -> f64| -> f64 {
        median(&measured.iter().map(f).collect::<Vec<_>>())
    };
    let hmed = |f: &dyn Fn(&traced::HopStep) -> f64| -> f64 {
        median(&hops.iter().map(f).collect::<Vec<_>>())
    };
    let sum = |f: &dyn Fn(&traced::StepRec) -> u64| -> u64 { measured.iter().map(f).sum() };

    let traced_ns: u64 = sum(&|s| s.wall_ns + s.flush_ns);
    let traced_tps = (measured.len() * w.tokens_per_step()) as f64 / (traced_ns as f64 / 1e9);
    let hits = sum(&|s| s.engine.prefetch.hits);
    let misses = sum(&|s| s.engine.prefetch.misses);
    let late = sum(&|s| s.engine.prefetch.late);
    let requests = sum(&|s| s.io.reads + s.io.writes);
    let req_bytes = sum(&|s| s.io.bytes_read + s.io.bytes_written);
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;

    let mut m = Metrics::default();
    m.put("step.wall_ms", med(&|s| ms(s.wall_ns as f64)), "ms");
    m.put("step.reconcile_gap", worst_gap, "ratio");
    m.put("model.fwd_ms", med(&|s| ms(s.fwd_ns as f64)), "ms");
    m.put("model.bwd_ms", med(&|s| ms(s.bwd_ns as f64)), "ms");
    m.put("model.dense_step_ms", ms(dense_step_ns), "ms");
    m.put("engine.get_ms", med(&|s| ms(s.get_ns as f64)), "ms");
    m.put("engine.get_calls", med(&|s| s.get_calls as f64), "count");
    m.put("engine.release_ms", med(&|s| ms(s.release_ns as f64)), "ms");
    m.put(
        "engine.add_grad_ms",
        med(&|s| ms(s.add_grad_ns as f64)),
        "ms",
    );
    m.put("engine.hint_ms", med(&|s| ms(s.hint_ns as f64)), "ms");
    m.put("engine.step_ms", med(&|s| ms(s.step_ns as f64)), "ms");
    m.put(
        "engine.optimizer_chunks",
        med(&|s| s.engine.optimizer_chunks as f64),
        "count",
    );
    m.put(
        "engine.step_io_overlap",
        med(&|s| s.engine.step_io_overlap as f64),
        "count",
    );
    m.put(
        "engine.allgathers",
        med(&|s| s.engine.allgathers as f64),
        "count",
    );
    m.put(
        "engine.grad_reductions",
        med(&|s| s.engine.grad_reductions as f64),
        "count",
    );
    m.put("prefetch.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.put("prefetch.late_ratio", ratio(late, hits), "ratio");
    m.put("nvme.reads", med(&|s| s.io.reads as f64), "count");
    m.put("nvme.writes", med(&|s| s.io.writes as f64), "count");
    m.put("nvme.bytes_per_request", ratio(req_bytes, requests), "B");
    m.put("nvme.read_bytes", med(&|s| s.io.bytes_read as f64), "B");
    m.put("nvme.write_bytes", med(&|s| s.io.bytes_written as f64), "B");
    m.put("nvme.in_flight_peak", run.io.in_flight_peak as f64, "count");
    m.put("nvme.retries", run.io.retries as f64, "count");
    m.put("hop.nc.busy_ms", hmed(&|h| ms(h.nc_busy_ns as f64)), "ms");
    m.put(
        "hop.nc.hidden_ms",
        hmed(&|h| ms(h.nc_hidden_ns as f64)),
        "ms",
    );
    m.put("hop.nc.efficiency", hmed(&|h| h.nc_efficiency), "ratio");
    m.put("hop.gg.calls", hmed(&|h| h.gg_calls as f64), "count");
    m.put("hop.gg.busy_ms", hmed(&|h| ms(h.gg_busy_ns as f64)), "ms");
    m.put("hop.rs.busy_ms", hmed(&|h| ms(h.rs_busy_ns as f64)), "ms");
    m.put("hop.cp.busy_ms", hmed(&|h| ms(h.cp_busy_ns as f64)), "ms");
    m.put("hop.cg.bytes", hmed(&|h| h.cg_bytes as f64), "B");
    m.put("optim.adam_ms", hmed(&|h| ms(h.adam_ns as f64)), "ms");
    m.put("mem.gpu_peak_mib", mib(run.gpu_peak_bytes), "MiB");
    m.put("mem.cpu_peak_mib", mib(run.cpu_peak_bytes), "MiB");
    m.put(
        "mem.wb_stalls",
        med(&|s| s.counters.wb_stalls as f64),
        "count",
    );
    m.put(
        "mem.pinned_waits",
        med(&|s| s.counters.pinned_waits as f64),
        "count",
    );
    m.put(
        "comm.loss_wait_ms",
        med(&|s| ms(s.loss_wait_ns as f64)),
        "ms",
    );
    m.put(
        "trace.events_dropped",
        run.counters.events_dropped as f64,
        "count",
    );
    m.put("trace.overhead_ratio", untraced_tps / traced_tps, "ratio");
    println!(
        "traced {k} steps ({} measured after {} warm-up)",
        measured.len(),
        w.warmup_steps
    );
    print_properties(w, &m);
    Ok(m)
}

/// The property each workload exists to show, read off its per-layer
/// record. Informational: these are performance facts, not correctness.
fn print_properties(w: &Workload, m: &Metrics) {
    let get = |name: &str| {
        m.0.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |e| e.1)
    };
    let (label, holds) = match w.name {
        "nvme-wide" => {
            let nc = get("hop.nc.busy_ms");
            let others = ["hop.gg.busy_ms", "hop.rs.busy_ms", "hop.cp.busy_ms"];
            (
                "hop.nc.busy_ms is the largest hop",
                others.iter().all(|o| get(o) < nc),
            )
        }
        "nvme-deep" => (
            "nvme.bytes_per_request < 4096",
            get("nvme.bytes_per_request") < 4096.0,
        ),
        _ => (
            "model.fwd_ms + model.bwd_ms >= 90% of step.wall_ms and nvme.read_bytes == 0",
            get("model.fwd_ms") + get("model.bwd_ms") >= 0.9 * get("step.wall_ms")
                && get("nvme.read_bytes") == 0.0,
        ),
    };
    println!(
        "property {}: {label}",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
}

fn json_result(correct: bool, ops: &Ops, m: &Metrics) -> String {
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN or infinity; such a metric already failed
                // the finiteness check.
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    print_fingerprint(&args);
    let cpu_at_start = CpuTimes::now();
    let mut devices = match Devices::new(Path::new(".bench_work")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the device directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ops = Ops::default();
    let mut checks = Checks::default();
    let result = if args.trace {
        per_layer(&args, &mut devices, &mut ops, &mut checks)
    } else {
        end_to_end(&args, &mut devices, &mut ops, &mut checks)
    };
    drop(devices);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    checks.check(
        "no operation failed (ops_failed_ratio == 0)",
        ops.failed == 0,
    );
    checks.check(
        "every metric is finite",
        metrics.0.iter().all(|(_, v, _)| v.is_finite()),
    );
    for (name, ok) in &checks.list {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "ops_failed_ratio: {} ({} of {} attempted)",
        ops.ratio(),
        ops.failed,
        ops.attempted
    );
    if let Some(steal) = cpu_at_start.and_then(|c| c.steal_share_since()) {
        println!("host cpu steal during the run: {:.1}%", steal * 100.0);
    }
    for (name, v, unit) in &metrics.0 {
        println!("{name:<26} {v:>16.6} {unit}");
    }
    println!("{}", json_result(checks.all_passed(), &ops, &metrics));
    ExitCode::SUCCESS
}
