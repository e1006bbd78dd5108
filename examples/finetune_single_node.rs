//! "Democratizing large model training" (paper Sec. 8.4, Fig. 5c).
//!
//! A model whose 20-bytes-per-parameter state cannot fit the node's GPU
//! pools is fine-tuned anyway by moving model states to CPU and NVMe with
//! ZeRO-Infinity — no model parallelism, no code refactoring. The example
//! prints where the bytes actually live, trains a few steps against a
//! real file-backed NVMe device, and reports throughput counters.
//!
//! Run with: `cargo run --release --example finetune_single_node`

use zero_infinity_suite::model::{GptConfig, GptModel, RunOptions};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::{NodeResources, Strategy, ZeroEngine};
use zi_memory::NodeMemorySpec;
use zi_types::Device;

fn main() {
    // A model that is deliberately too big for the toy GPUs below:
    // ~400k parameters -> ~8 MB of model states at 20 B/param, against
    // GPU pools of 1 MB each.
    let cfg = GptConfig { vocab: 64, hidden: 64, layers: 6, heads: 4, seq: 16, seed: 11 };
    let model = GptModel::new(cfg);
    let total = model.registry().total_numel();
    println!("model: {} parameters, ~{} KB of model states (20 B/param)", total, total * 20 / 1024);

    let world = 2;
    let spec = NodeMemorySpec::test_spec(world, 1 << 20, 1 << 26, 1 << 28);
    println!(
        "node: {} GPUs x {} KB HBM, {} MB CPU, {} MB NVMe (file-backed)",
        world,
        (1 << 20) / 1024,
        (1 << 26) / (1 << 20),
        (1 << 28) / (1 << 20)
    );

    let dir = std::env::temp_dir().join(format!("zi_finetune_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let device = zi_nvme::FileBackend::create(&dir.join("nvme.dev")).expect("file-backed NVMe");
    let node = NodeResources::with_backend(&spec, world, zi_sync::Arc::new(device));

    // Train on rank threads manually (the long-hand version of
    // `train_gpt`, to show the per-rank API).
    let node = zi_sync::Arc::new(node);
    let mut handles = Vec::new();
    for rank in 0..world {
        let node = zi_sync::Arc::clone(&node);
        handles.push(zi_sync::thread::spawn(move || {
            let model = GptModel::new(cfg);
            let mut engine = ZeroEngine::new(
                model.registry(),
                Strategy::infinity_nvme(),
                node.offload_manager(),
                node.group.communicator(rank),
                AdamConfig { lr: 0.005, ..Default::default() },
            )
            .expect("engine");
            let opts = RunOptions {
                batch: 2,
                activation_checkpointing: true,
                prefetch_window: 2,
            };
            let rows = 2 * cfg.seq;
            let mut losses = Vec::new();
            for step in 0..8usize {
                let (tokens, targets) =
                    zero_infinity_suite::zero::trainer::synthetic_batch(&cfg, 2 * world, step);
                let lo = rank * rows;
                let loss = model
                    .train_step(&mut engine, &tokens[lo..lo + rows], &targets[lo..lo + rows], &opts)
                    .expect("train step");
                engine.step().expect("optimizer step");
                losses.push(node.group.communicator(rank).sum_scalar(loss).unwrap() / world as f32);
            }
            (rank, losses, engine.stats())
        }));
    }
    for h in handles {
        let (rank, losses, stats) = h.join().expect("rank thread");
        if rank == 0 {
            println!();
            for (s, l) in losses.iter().enumerate() {
                println!("step {s}: loss {l:.4}");
            }
            println!();
            println!(
                "rank 0 engine: {} allgathers ({} elements), {} optimizer chunks streamed, \
                 prefetch hits {}",
                stats.allgathers, stats.gathered_elems, stats.optimizer_chunks,
                stats.prefetch.hits
            );
        }
    }
    for dev in [Device::gpu(0), Device::cpu(), Device::nvme()] {
        let s = node.hierarchy.stats(dev);
        println!(
            "{dev}: peak {} KB used of {} KB",
            s.peak_in_use / 1024,
            s.capacity / 1024
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    println!();
    println!("A model ~8x larger than aggregate GPU memory fine-tuned on one node.");
}
