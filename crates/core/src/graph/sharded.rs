//! Sharded CSR: an owner map and per-shard vertex lists over one [`Csr`].
//!
//! A [`ShardedCsr`] assigns every dense vertex of a built CSR to one of
//! `N` shards according to an externally supplied owner map (the
//! `cluster` crate's edge-cut strategies produce one). A shard is the
//! ascending list of the vertices it owns; adjacency is read from the
//! parent CSR by global dense index, so inter-shard edges are exactly
//! the row entries whose target is owned elsewhere, and walking a shard
//! in list order visits its rows in global iteration order for every
//! owner map.

use std::sync::Arc;

use super::Csr;
use crate::error::{Error, Result};

/// A CSR with its vertices split into `N` shards by an owner map.
#[derive(Debug, Clone)]
pub struct ShardedCsr {
    csr: Arc<Csr>,
    owner: Box<[u32]>,
    shards: Box<[Box<[u32]>]>,
}

impl ShardedCsr {
    /// Splits `csr`'s vertices into `parts` shards according to `owner`
    /// (one entry per dense vertex, values in `0..parts`).
    pub fn partition(csr: Arc<Csr>, owner: &[u32], parts: u32) -> Result<ShardedCsr> {
        let n = csr.num_vertices();
        if parts == 0 {
            return Err(Error::InvalidParameters("shard count must be >= 1".into()));
        }
        if owner.len() != n {
            return Err(Error::InvalidParameters(format!(
                "owner map covers {} vertices, graph has {n}",
                owner.len()
            )));
        }
        if let Some(&bad) = owner.iter().find(|&&s| s >= parts) {
            return Err(Error::InvalidParameters(format!(
                "owner {bad} out of range for {parts} shards"
            )));
        }

        // Ascending within each shard by construction.
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); parts as usize];
        for (v, &s) in owner.iter().enumerate() {
            shards[s as usize].push(v as u32);
        }

        Ok(ShardedCsr {
            csr,
            owner: owner.into(),
            shards: shards.into_iter().map(Vec::into_boxed_slice).collect(),
        })
    }

    /// The parent CSR.
    #[inline]
    pub fn csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    /// Owner map: `owner()[v]` is the shard owning dense vertex `v`.
    #[inline]
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Dense vertices owned by shard `s`, ascending.
    #[inline]
    pub fn shard(&self, s: usize) -> &[u32] {
        &self.shards[s]
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Estimated resident bytes of the owner map and the shard lists
    /// (excluding the parent CSR, which the caller keeps anyway).
    pub fn resident_bytes(&self) -> u64 {
        8 * self.owner.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn ring(n: u64, directed: bool) -> Csr {
        let mut b = GraphBuilder::new(directed);
        b.add_vertex_range(n);
        for v in 0..n {
            let w = (v + 1) % n;
            if directed {
                b.add_edge(v, w);
            } else {
                b.add_edge(v.min(w), v.max(w));
            }
        }
        b.build().unwrap().to_csr()
    }

    #[test]
    fn shards_partition_the_vertices_ascending_by_owner() {
        let csr = Arc::new(ring(37, true));
        let owner: Vec<u32> = (0..37u32).map(|v| v % 4).collect();
        let sharded = ShardedCsr::partition(csr.clone(), &owner, 4).unwrap();
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.owner(), owner.as_slice());
        let mut seen = 0usize;
        for s in 0..4usize {
            let shard = sharded.shard(s);
            seen += shard.len();
            assert!(shard.windows(2).all(|w| w[0] < w[1]), "shard {s} ascends");
            assert!(
                shard.iter().all(|&v| owner[v as usize] == s as u32),
                "shard {s} owns its list"
            );
        }
        assert_eq!(seen, csr.num_vertices(), "shards partition the vertex set");
        assert_eq!(sharded.resident_bytes(), 8 * 37);
    }

    #[test]
    fn invalid_owner_maps_are_rejected() {
        let csr = Arc::new(ring(10, true));
        let short = vec![0u32; 5];
        assert!(ShardedCsr::partition(csr.clone(), &short, 2).is_err());
        let out_of_range = vec![5u32; 10];
        assert!(ShardedCsr::partition(csr.clone(), &out_of_range, 2).is_err());
        let ok = vec![0u32; 10];
        assert!(ShardedCsr::partition(csr.clone(), &ok, 0).is_err());
        assert!(ShardedCsr::partition(csr, &ok, 1).is_ok());
    }

    #[test]
    fn single_shard_owns_everything() {
        let csr = Arc::new(ring(16, false));
        let owner = vec![0u32; 16];
        let sharded = ShardedCsr::partition(csr, &owner, 1).unwrap();
        assert_eq!(sharded.shard(0), (0..16).collect::<Vec<u32>>().as_slice());
    }
}
