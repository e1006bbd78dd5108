//! Tier-placement plans: how one logical shard splits across backing
//! paths.
//!
//! ZeRO-Infinity's offload chain treats CPU DRAM and NVMe as one serial
//! hierarchy; MLP-Offload-style multi-path tiering instead *splits* each
//! optimizer shard across both and drives the two paths concurrently, so
//! the aggregate optimizer-step bandwidth approaches the sum of the
//! tiers rather than the best single one. This module is the policy and
//! plan layer for that split:
//!
//! * [`PathKind`] — the backing path of one plan segment (CPU DRAM or
//!   NVMe).
//! * [`PlacementPolicy`] — the knob-level description: what fraction of
//!   each shard is DRAM-resident (integer permille, so policies stay
//!   `Eq`/hashable) and the stripe width the two paths interleave at.
//! * [`PlacementPlan`] — a policy resolved against a concrete shard
//!   length: a sorted, disjoint, exhaustive list of [`PlanSegment`]s.
//!
//! Policies change only at optimizer-step boundaries, where the engine
//! compares each shard's stored policy against the current one: the
//! `zi-adapt` placement knob re-tiers drifted shards, and a degraded
//! node collapses every shard to CPU DRAM.

/// Permille denominator: a [`PlacementPolicy`] expresses the
/// DRAM-resident fraction in thousandths.
pub const PERMILLE: u32 = 1000;

/// Which backing path a plan segment lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// CPU DRAM (the cp path): synchronous, low latency.
    Cpu,
    /// NVMe (the nc path): asynchronous, queue-depth driven.
    Nvme,
}

impl PathKind {
    /// Stable short label (`"cpu"` / `"nvme"`), used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::Cpu => "cpu",
            PathKind::Nvme => "nvme",
        }
    }
}

/// How shards should split across the CPU and NVMe paths.
///
/// `cpu_permille` is clamped to `0..=1000` at plan time; `stripe` is the
/// interleave width in elements. Stripes are dealt to the CPU path at
/// rate `cpu_permille/1000` by Bresenham-style accumulation, so the two
/// paths alternate throughout the shard instead of splitting it into one
/// CPU prefix and one NVMe suffix — a streamed pass over the shard keeps
/// *both* paths busy the whole time, which is what makes the concurrent
/// aggregate bandwidth real.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacementPolicy {
    /// Thousandths of each shard resident in CPU DRAM (0 = all NVMe,
    /// 1000 = all DRAM).
    pub cpu_permille: u32,
    /// Interleave stripe width, in elements (0 is treated as 1).
    pub stripe: usize,
}

impl PlacementPolicy {
    /// Everything on NVMe — the classic single-backing-store layout.
    pub fn all_nvme() -> Self {
        PlacementPolicy { cpu_permille: 0, stripe: usize::MAX }
    }

    /// Everything in CPU DRAM.
    pub fn all_cpu() -> Self {
        PlacementPolicy { cpu_permille: PERMILLE, stripe: usize::MAX }
    }

    /// A two-path split placing `cpu_permille`/1000 of each shard in
    /// DRAM, interleaved at `stripe` elements.
    pub fn split(cpu_permille: u32, stripe: usize) -> Self {
        PlacementPolicy { cpu_permille: cpu_permille.min(PERMILLE), stripe: stripe.max(1) }
    }

    /// True when every element lands on one path (no split).
    pub fn is_single_path(&self) -> bool {
        self.cpu_permille == 0 || self.cpu_permille >= PERMILLE
    }

    /// Resolve the policy against a shard of `total` elements.
    pub fn plan(&self, total: usize) -> PlacementPlan {
        let p = self.cpu_permille.min(PERMILLE) as u64;
        if total == 0 || p == 0 || p == PERMILLE as u64 {
            let path = if p >= PERMILLE as u64 { PathKind::Cpu } else { PathKind::Nvme };
            let segments = if total == 0 {
                Vec::new()
            } else {
                vec![PlanSegment { path, start: 0, len: total }]
            };
            return PlacementPlan { total, segments };
        }
        let stripe = self.stripe.max(1);
        let mut segments: Vec<PlanSegment> = Vec::new();
        let mut start = 0usize;
        let mut window = 0u64;
        while start < total {
            let len = stripe.min(total - start);
            // Bresenham deal: window w goes to the CPU path exactly when
            // the cumulative CPU quota crosses an integer boundary, so
            // CPU windows appear evenly at rate p/1000.
            let path = if (window + 1) * p / PERMILLE as u64 > window * p / PERMILLE as u64 {
                PathKind::Cpu
            } else {
                PathKind::Nvme
            };
            match segments.last_mut() {
                Some(seg) if seg.path == path => seg.len += len,
                _ => segments.push(PlanSegment { path, start, len }),
            }
            start += len;
            window += 1;
        }
        PlacementPlan { total, segments }
    }
}

/// One contiguous element range of a plan, on one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSegment {
    /// Backing path for this range.
    pub path: PathKind,
    /// First element (inclusive) of the range within the shard.
    pub start: usize,
    /// Range length in elements.
    pub len: usize,
}

impl PlanSegment {
    /// One past the last element of the range.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A slice of one plan segment, produced by
/// [`PlacementPlan::parts_for_range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePart {
    /// Index of the segment in [`PlacementPlan::segments`].
    pub segment: usize,
    /// Backing path of that segment.
    pub path: PathKind,
    /// First covered element, relative to the shard.
    pub start: usize,
    /// First covered element, relative to the segment's own start.
    pub start_in_segment: usize,
    /// Covered length in elements.
    pub len: usize,
}

/// A policy resolved against a concrete shard: sorted, disjoint
/// segments covering exactly `0..total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    total: usize,
    segments: Vec<PlanSegment>,
}

impl PlacementPlan {
    /// Shard length the plan covers, in elements.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The segments, sorted by `start`, disjoint and exhaustive.
    pub fn segments(&self) -> &[PlanSegment] {
        &self.segments
    }

    /// Elements placed on `path`.
    pub fn elems_on(&self, path: PathKind) -> usize {
        self.segments.iter().filter(|s| s.path == path).map(|s| s.len).sum()
    }

    /// True when every element lives on one path.
    pub fn is_single_path(&self) -> bool {
        self.segments.len() <= 1
    }

    /// Split `[start, start+len)` into per-segment parts, in shard
    /// order. Panics if the range exceeds the plan (caller bug: ranges
    /// come from the same shard length the plan was built for).
    pub fn parts_for_range(&self, start: usize, len: usize) -> Vec<RangePart> {
        assert!(
            start + len <= self.total,
            "range {}..{} exceeds plan of {} elements",
            start,
            start + len,
            self.total
        );
        let end = start + len;
        let mut out = Vec::new();
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.end() <= start {
                continue;
            }
            if seg.start >= end {
                break;
            }
            let lo = seg.start.max(start);
            let hi = seg.end().min(end);
            out.push(RangePart {
                segment: i,
                path: seg.path,
                start: lo,
                start_in_segment: lo - seg.start,
                len: hi - lo,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_policies_produce_one_segment() {
        let nvme = PlacementPolicy::all_nvme().plan(100);
        assert_eq!(nvme.segments(), &[PlanSegment { path: PathKind::Nvme, start: 0, len: 100 }]);
        let cpu = PlacementPolicy::all_cpu().plan(100);
        assert_eq!(cpu.segments(), &[PlanSegment { path: PathKind::Cpu, start: 0, len: 100 }]);
        assert!(nvme.is_single_path() && cpu.is_single_path());
        assert!(PlacementPolicy::all_cpu().plan(0).segments().is_empty());
    }

    #[test]
    fn split_plans_cover_exactly_and_hit_the_ratio() {
        for permille in [1u32, 125, 250, 333, 500, 750, 999] {
            for total in [1usize, 7, 64, 1000, 4097] {
                let plan = PlacementPolicy::split(permille, 8).plan(total);
                // Exhaustive and disjoint in order.
                let mut cursor = 0usize;
                for seg in plan.segments() {
                    assert_eq!(seg.start, cursor, "p={permille} n={total}");
                    cursor = seg.end();
                }
                assert_eq!(cursor, total);
                // CPU share within one stripe of the requested ratio.
                let want = (total as u64 * permille as u64 / 1000) as isize;
                let got = plan.elems_on(PathKind::Cpu) as isize;
                assert!(
                    (got - want).abs() <= 8,
                    "p={permille} n={total}: cpu elems {got}, want ~{want}"
                );
            }
        }
    }

    #[test]
    fn split_interleaves_rather_than_partitions() {
        // A 50% split over many stripes must alternate paths, not put
        // one contiguous half on each.
        let plan = PlacementPolicy::split(500, 4).plan(64);
        assert!(plan.segments().len() >= 8, "expected interleave: {:?}", plan.segments());
        assert_eq!(plan.elems_on(PathKind::Cpu), 32);
        assert_eq!(plan.elems_on(PathKind::Nvme), 32);
    }

    #[test]
    fn parts_for_range_split_along_segment_boundaries() {
        let plan = PlacementPolicy::split(500, 4).plan(16);
        // Whole-shard parts reassemble the plan.
        let all = plan.parts_for_range(0, 16);
        assert_eq!(all.iter().map(|p| p.len).sum::<usize>(), 16);
        let mut cursor = 0;
        for part in &all {
            assert_eq!(part.start, cursor);
            cursor += part.len;
        }
        // A range straddling a boundary yields one part per side.
        let parts = plan.parts_for_range(2, 4);
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[0].start, parts[0].len), (2, 2));
        assert_eq!((parts[1].start, parts[1].len), (4, 2));
        assert_ne!(parts[0].path, parts[1].path);
        assert_eq!(parts[0].start_in_segment, 2);
        assert_eq!(parts[1].start_in_segment, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds plan")]
    fn out_of_range_parts_panic() {
        PlacementPolicy::all_nvme().plan(8).parts_for_range(4, 8);
    }
}
