#![warn(missing_docs)]

//! # s3-dfs — simulated HDFS-style block store
//!
//! Files are split into fixed-size blocks; blocks are replicated and placed
//! on cluster nodes by a rack-aware policy. How a scan cuts a file's blocks
//! into segments is not stored here: the circular scan's segment arithmetic
//! lives in `s3_obs::revolution`, shared by the simulator and the engine.
//!
//! Nothing here does real I/O; the store tracks metadata only, exactly like
//! the HDFS NameNode view a scheduler sees.

pub mod block;
pub mod file;
pub mod placement;

pub use block::{BlockId, BlockMeta};
pub use file::{Dfs, DfsError, FileId, FileMeta};
pub use placement::{PlacementPolicy, RackAwarePlacement, RoundRobinPlacement};

/// Megabytes as used throughout the workspace (2^20 bytes).
pub const MB: u64 = 1 << 20;
