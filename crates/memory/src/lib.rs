#![warn(missing_docs)]

//! Heterogeneous memory substrate.
//!
//! Models the three memory tiers of a DGX-2-class node (GPU HBM, CPU DRAM,
//! NVMe) as capacity-limited pools with a *contiguous* first-fit allocator,
//! so that out-of-memory and fragmentation behave like the real systems the
//! paper measures (Sec. 3 "Model State Working Memory", Fig. 6a/6b).
//!
//! Also provides the pinned-buffer management layer of the infinity offload
//! engine (Sec. 6.3): a small, fixed set of reusable transfer buffers that
//! bounds pinned-memory usage and prevents fragmentation.

pub mod hierarchy;
pub mod pinned;
pub mod placement;
pub mod pool;
pub mod scratch;

pub use hierarchy::{MemoryHierarchy, NodeMemorySpec};
pub use pinned::{PinnedBuffer, PinnedBufferPool};
pub use placement::{PathKind, PlacementPlan, PlacementPolicy, PlanSegment, RangePart};
pub use pool::{Block, MemoryPool, PoolStats};
pub use scratch::{ScratchPool, ScratchStats, ScratchVec};
