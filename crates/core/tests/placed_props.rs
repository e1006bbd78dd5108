//! Differential property test of the offload layer: a [`PlacedBuf`] under
//! random tiers, placement policies and lengths must behave exactly like a
//! flat `Vec<f32>` through every data-path operation.

use proptest::prelude::*;
use zero_infinity::{NodeResources, OffloadManager, PlacedBuf, WriteBehind};
use zi_memory::{NodeMemorySpec, PlacementPolicy};
use zi_tensor::FlatBuffer;
use zi_types::{DType, Device};

/// SplitMix64: expands one drawn word into as many values as an
/// operation needs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A finite value with a varied exponent and mantissa.
    fn value(&mut self) -> f32 {
        (self.below(20_001) as f32 - 10_000.0) * 0.013
    }

    fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.value()).collect()
    }

    /// A window `[start, start + len)` with `len >= 1` inside `total`.
    fn window(&mut self, total: usize) -> (usize, usize) {
        let start = self.below(total);
        (start, 1 + self.below(total - start))
    }

    fn device(&mut self) -> Device {
        [Device::gpu(0), Device::cpu(), Device::nvme()][self.below(3)]
    }

    fn policy(&mut self) -> PlacementPolicy {
        match self.below(3) {
            0 => PlacementPolicy::all_nvme(),
            1 => PlacementPolicy::all_cpu(),
            _ => PlacementPolicy::split(1 + self.below(999) as u32, 1 + self.below(48)),
        }
    }
}

fn f32_buf(vals: &[f32]) -> FlatBuffer {
    FlatBuffer::from_f32(DType::F32, vals)
}

fn bits(vals: &[f32]) -> Vec<u32> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn assert_matches(mgr: &OffloadManager, buf: &PlacedBuf, reference: &[f32], after: &str) {
    let got = mgr.load(buf).unwrap().to_f32_vec();
    assert_eq!(bits(&got), bits(reference), "after {after}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn placed_buffer_matches_flat_reference(
        seed in any::<u64>(),
        len in 1usize..400,
        ops in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        let mut rng = Mix(seed);
        let mut reference = rng.values(len);
        let (device, policy) = (rng.device(), rng.policy());
        let mut buf = mgr.store(device, Some(policy), f32_buf(&reference)).unwrap();
        assert_matches(&mgr, &buf, &reference, "store");

        for op in ops {
            let mut rng = Mix(op);
            let what = match rng.below(5) {
                0 => {
                    // Several ranged loads in flight at once, waited in
                    // reverse issue order.
                    let windows: Vec<_> = (0..1 + rng.below(3)).map(|_| rng.window(len)).collect();
                    let pending: Vec<_> = windows
                        .iter()
                        .map(|&(start, n)| mgr.begin_load(&buf, start, n).unwrap())
                        .collect();
                    for (p, &(start, n)) in pending.into_iter().zip(&windows).rev() {
                        let got = p.wait(&mgr).unwrap().to_f32_vec();
                        prop_assert_eq!(bits(&got), bits(&reference[start..start + n]));
                    }
                    "begin_load"
                }
                1 => {
                    let mut wb = WriteBehind::new(1 + rng.below(4));
                    for _ in 0..1 + rng.below(6) {
                        let (start, n) = rng.window(len);
                        let vals = rng.values(n);
                        wb.submit(&mgr, &mut buf, start, &f32_buf(&vals)).unwrap();
                        reference[start..start + n].copy_from_slice(&vals);
                    }
                    wb.drain(&mgr).unwrap();
                    "write-behind"
                }
                2 => {
                    reference = rng.values(len);
                    mgr.overwrite(&mut buf, &f32_buf(&reference)).unwrap();
                    "overwrite"
                }
                3 => {
                    let delta = rng.values(len);
                    prop_assert!(!mgr.accumulate_f32(&mut buf, &delta).unwrap());
                    for (r, d) in reference.iter_mut().zip(&delta) {
                        *r += d;
                    }
                    "accumulate_f32"
                }
                _ => {
                    let (device, policy) = (rng.device(), rng.policy());
                    mgr.retier(&mut buf, device, policy).unwrap();
                    "retier"
                }
            };
            assert_matches(&mgr, &buf, &reference, what);
        }

        mgr.free(buf);
        for dev in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            prop_assert_eq!(node.hierarchy.stats(dev).in_use, 0, "leak on {}", dev);
        }
    }
}
