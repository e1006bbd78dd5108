//! The three benchmark workloads and the environment each one trains in.
//!
//! All three run world 2 (two rank threads in one process) as a closed
//! loop of lockstep optimizer steps. The `--seed` argument becomes
//! `GptConfig::seed`, so it drives every parameter's initial value; the
//! token stream is the trainer's own deterministic synthetic batch
//! sequence (`zero_infinity::trainer::synthetic_batch`), which takes no
//! seed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use zero_infinity::{Strategy, TrainSpec};
use zi_memory::NodeMemorySpec;
use zi_model::GptConfig;
use zi_nvme::{FileBackend, MemBackend, StorageBackend, ThrottledBackend};
use zi_optim::AdamConfig;

/// Data-parallel degree of every workload.
pub const WORLD: usize = 2;

/// The offload device a workload's NVMe tier lives on.
#[derive(Debug, Clone, Copy)]
pub enum Device {
    /// A page-cache file throttled to `bytes_per_sec` plus `latency`
    /// per request.
    ThrottledFile {
        bytes_per_sec: f64,
        latency: Duration,
    },
    /// A page-cache file, unthrottled.
    File,
    /// Process memory (no NVMe traffic is expected at all).
    Mem,
}

/// A real file driven through `pread`/`pwrite`, whose `sync` is not
/// forwarded to the disk.
///
/// The engine syncs its device at the end of every optimizer step. On a
/// shared virtual disk an `fdatasync` waits on everyone else's I/O, so
/// forwarding it would make the benchmark measure the host rather than
/// the offload path. Reads and writes still pay the real per-request
/// system-call and page-cache cost.
pub struct PageCacheFile(FileBackend);

impl StorageBackend for PageCacheFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> zi_types::Result<()> {
        self.0.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> zi_types::Result<()> {
        self.0.write_at(offset, data)
    }

    fn sync(&self) -> zi_types::Result<()> {
        Ok(())
    }

    fn len(&self) -> zi_types::Result<u64> {
        self.0.len()
    }
}

/// One named workload: what it trains, on which device, and how many
/// steps each measurement phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub vocab: usize,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub seq: usize,
    pub micro_batch: usize,
    pub nvme: bool,
    pub lr: f32,
    pub device: Device,
    /// Steps of the short run the throughput difference is taken against.
    pub short_steps: usize,
    /// Steps of the long run; `loss_final` is its last step's loss.
    pub long_steps: usize,
    /// Leading traced steps excluded from the per-layer medians (the
    /// prefetcher learns its trace during step 0).
    pub warmup_steps: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "nvme-wide",
        vocab: 256,
        hidden: 256,
        layers: 4,
        heads: 4,
        seq: 32,
        micro_batch: 2,
        nvme: true,
        lr: 1e-3,
        device: Device::ThrottledFile {
            bytes_per_sec: 1e9,
            latency: Duration::from_micros(100),
        },
        short_steps: 1,
        long_steps: 8,
        warmup_steps: 2,
    },
    Workload {
        name: "nvme-deep",
        vocab: 64,
        hidden: 32,
        layers: 24,
        heads: 4,
        seq: 16,
        micro_batch: 2,
        nvme: true,
        lr: 1e-3,
        device: Device::File,
        short_steps: 2,
        long_steps: 20,
        warmup_steps: 2,
    },
    Workload {
        name: "cpu-compute",
        vocab: 256,
        hidden: 128,
        layers: 4,
        heads: 4,
        seq: 128,
        micro_batch: 4,
        nvme: false,
        lr: 1e-3,
        device: Device::Mem,
        short_steps: 1,
        long_steps: 3,
        warmup_steps: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn model(&self, seed: u64) -> GptConfig {
        GptConfig {
            vocab: self.vocab,
            hidden: self.hidden,
            layers: self.layers,
            heads: self.heads,
            seq: self.seq,
            seed,
        }
    }

    pub fn strategy(&self) -> Strategy {
        if self.nvme {
            Strategy::infinity_nvme()
        } else {
            Strategy::infinity_cpu()
        }
    }

    pub fn adam(&self) -> AdamConfig {
        AdamConfig {
            lr: self.lr,
            ..AdamConfig::default()
        }
    }

    /// Node pools large enough that no workload is capacity-bound: the
    /// benchmark measures speed, not the OOM path.
    pub fn node(&self) -> NodeMemorySpec {
        NodeMemorySpec::test_spec(WORLD, 1 << 28, 1 << 31, 1 << 32)
    }

    /// Global tokens one optimizer step consumes.
    pub fn tokens_per_step(&self) -> usize {
        WORLD * self.micro_batch * self.seq
    }

    pub fn spec(&self, seed: u64, steps: usize) -> TrainSpec {
        TrainSpec {
            micro_batch: self.micro_batch,
            steps,
            adam: self.adam(),
            node: self.node(),
            ..TrainSpec::test_default(self.model(seed), self.strategy(), WORLD)
        }
    }
}

/// Fresh offload devices, each on its own file under one work directory
/// that is removed when this value drops.
pub struct Devices {
    dir: PathBuf,
    next: usize,
}

impl Devices {
    pub fn new(root: &Path) -> std::io::Result<Devices> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Devices { dir, next: 0 })
    }

    /// A new, empty device of the workload's kind.
    pub fn fresh(&mut self, w: &Workload) -> zi_types::Result<Arc<dyn StorageBackend>> {
        let path = self.dir.join(format!("dev{}.bin", self.next));
        self.next += 1;
        let file = || FileBackend::create(&path).map(PageCacheFile);
        Ok(match w.device {
            Device::ThrottledFile {
                bytes_per_sec,
                latency,
            } => Arc::new(ThrottledBackend::new(file()?, bytes_per_sec, latency)),
            Device::File => Arc::new(file()?),
            Device::Mem => Arc::new(MemBackend::new()),
        })
    }

    /// Drop every device file written so far (the devices themselves may
    /// still be referenced; their files are simply unlinked).
    pub fn clear(&mut self) {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

impl Drop for Devices {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too once no other run is using it.
        if let Some(root) = self.dir.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}
