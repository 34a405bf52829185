//! Property-based tests for the block store.

use proptest::prelude::*;
use s3_cluster::{ClusterBuilder, ClusterTopology};
use s3_dfs::{Dfs, RoundRobinPlacement};

fn small_cluster() -> ClusterTopology {
    ClusterBuilder::new().rack(4).rack(4).rack(2).build()
}

proptest! {
    /// Files: block sizes sum to the file size, all blocks but the last
    /// are full, replicas are distinct nodes.
    #[test]
    fn file_blocks_are_consistent(size_mb in 1u64..4000, block_mb in 1u64..256, replication in 1u32..3) {
        let cluster = small_cluster();
        let mut dfs = Dfs::new();
        let mb = s3_dfs::MB;
        let id = dfs.create_file(
            &cluster, "f", size_mb * mb, block_mb * mb, replication,
            &mut RoundRobinPlacement::default(),
        ).unwrap();
        let file = dfs.file(id);
        let blocks: Vec<_> = dfs.blocks_of(id).collect();
        prop_assert_eq!(blocks.len() as u32, file.num_blocks());
        let total: u64 = blocks.iter().map(|b| b.size_bytes).sum();
        prop_assert_eq!(total, size_mb * mb);
        for (i, b) in blocks.iter().enumerate() {
            if i + 1 < blocks.len() {
                prop_assert_eq!(b.size_bytes, block_mb * mb);
            }
            prop_assert_eq!(b.replicas.len() as u32, replication);
            let mut reps = b.replicas.clone();
            reps.sort_unstable();
            reps.dedup();
            prop_assert_eq!(reps.len() as u32, replication, "replicas must be distinct");
        }
    }

    /// Round-robin placement balances primaries within one block of even.
    #[test]
    fn round_robin_is_balanced(num_blocks in 1u64..2000) {
        let cluster = small_cluster();
        let mut dfs = Dfs::new();
        let mb = s3_dfs::MB;
        let id = dfs.create_file(
            &cluster, "f", num_blocks * mb, mb, 1,
            &mut RoundRobinPlacement::default(),
        ).unwrap();
        let mut counts = vec![0u64; cluster.num_nodes()];
        for b in dfs.blocks_of(id) {
            counts[b.replicas[0].0 as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "imbalance: {counts:?}");
    }
}
