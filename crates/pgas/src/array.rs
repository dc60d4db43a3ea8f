//! Global arrays: the PGAS container underneath the sort's
//! `std::sort`-like interface.
//!
//! A [`GlobalArray`] is created collectively; every rank holds a handle
//! onto the same shared storage. Local access follows the
//! *owner-computes* model and is free; one-sided `get`/`put` to remote
//! partitions is charged at the link class between the two ranks — the
//! intra-node fast path of the paper's §VI-A1 falls out of the cost
//! model ("if a pair of processors resides on the same node we do not
//! need to initiate any MPI calls but use fast memcpy semantics").

use std::sync::Arc;

use parking_lot::RwLock;

use dhs_runtime::Comm;

use crate::pattern::BlockPattern;

struct Storage<T> {
    pattern: BlockPattern,
    partitions: Vec<RwLock<Vec<T>>>,
}

/// One rank's handle on a distributed array.
pub struct GlobalArray<T> {
    storage: Arc<Storage<T>>,
    rank: usize,
}

impl<T: Copy + Send + Sync + 'static> GlobalArray<T> {
    /// Collectively build a global array from each rank's local block.
    /// Must be called by every rank of `comm`.
    pub fn from_local(comm: &Comm, local: Vec<T>) -> Self {
        let rank = comm.rank();
        // Rendezvous: rank rank deposits its block; the last arriver
        // assembles the shared storage.
        let storage = comm_build(comm, local);
        Self { storage, rank }
    }

    /// The distribution pattern.
    pub fn pattern(&self) -> &BlockPattern {
        &self.storage.pattern
    }

    /// Total number of elements across all ranks.
    pub fn global_len(&self) -> usize {
        self.storage.pattern.total()
    }

    /// Length of this rank's local block.
    pub fn local_len(&self) -> usize {
        self.storage.pattern.size_of(self.rank)
    }

    /// Read this rank's local block (owner computes, no charge).
    pub fn with_local<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.storage.partitions[self.rank].read())
    }

    /// Mutate this rank's local block (owner computes, no charge).
    pub fn with_local_mut<R>(&self, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        f(&mut self.storage.partitions[self.rank].write())
    }

    /// Copy out this rank's local block.
    pub fn local_to_vec(&self) -> Vec<T> {
        self.with_local(|l| l.to_vec())
    }

    /// One-sided read of the element at `global` index. Remote reads
    /// are charged as one small message at the owner's link class.
    pub fn get(&self, comm: &Comm, global: usize) -> T {
        let (owner, local) = self.storage.pattern.locate(global);
        let value = self.storage.partitions[owner].read()[local];
        self.charge_onesided(comm, owner, std::mem::size_of::<T>() as u64);
        value
    }

    /// One-sided read of `global` range `[start, end)`, split across
    /// owners as needed.
    pub fn get_range(&self, comm: &Comm, start: usize, end: usize) -> Vec<T> {
        assert!(start <= end && end <= self.global_len());
        let mut out = Vec::with_capacity(end - start);
        let mut g = start;
        while g < end {
            let (owner, local) = self.storage.pattern.locate(g);
            let avail = self.storage.pattern.size_of(owner) - local;
            let take = avail.min(end - g);
            {
                let block = self.storage.partitions[owner].read();
                out.extend_from_slice(&block[local..local + take]);
            }
            self.charge_onesided(comm, owner, (take * std::mem::size_of::<T>()) as u64);
            g += take;
        }
        out
    }

    /// One-sided write of the element at `global` index.
    pub fn put(&self, comm: &Comm, global: usize, value: T) {
        let (owner, local) = self.storage.pattern.locate(global);
        self.storage.partitions[owner].write()[local] = value;
        self.charge_onesided(comm, owner, std::mem::size_of::<T>() as u64);
    }

    /// One-sided write of a range starting at `global`.
    pub fn put_range(&self, comm: &Comm, start: usize, values: &[T]) {
        assert!(start + values.len() <= self.global_len());
        let mut g = start;
        let mut src = 0;
        while src < values.len() {
            let (owner, local) = self.storage.pattern.locate(g);
            let avail = self.storage.pattern.size_of(owner) - local;
            let take = avail.min(values.len() - src);
            {
                let mut block = self.storage.partitions[owner].write();
                block[local..local + take].copy_from_slice(&values[src..src + take]);
            }
            self.charge_onesided(comm, owner, (take * std::mem::size_of::<T>()) as u64);
            g += take;
            src += take;
        }
    }

    /// Memory fence: all outstanding one-sided operations of every rank
    /// are ordered before any following access (a barrier in this
    /// simulator, like `MPI_Win_fence`).
    pub fn fence(&self, comm: &Comm) {
        comm.barrier();
    }

    /// Replace this rank's local block (e.g. after a sort epoch). The
    /// new block must keep the same length — the pattern is immutable.
    pub fn replace_local(&self, data: Vec<T>) {
        assert_eq!(
            data.len(),
            self.local_len(),
            "replace_local must preserve the block length (pattern is immutable)"
        );
        *self.storage.partitions[self.rank].write() = data;
    }

    fn charge_onesided(&self, comm: &Comm, owner: usize, bytes: u64) {
        comm.charge_onesided(owner, bytes);
    }
}

/// Collectively assemble shared storage from per-rank blocks.
fn comm_build<T: Copy + Send + Sync + 'static>(comm: &Comm, local: Vec<T>) -> Arc<Storage<T>> {
    // Gather blocks; the combiner builds the storage once, all ranks
    // share the same Arc. Construction is a synchronizing collective
    // like DASH's dash::Array allocation.
    let blocks = comm.allgatherv(local);
    let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
    let storage = Storage {
        pattern: BlockPattern::new(sizes),
        partitions: blocks.iter().map(|b| RwLock::new(b.clone())).collect(),
    };
    // Every rank builds the same storage value; dedupe to one shared
    // instance through a broadcast of rank 0's Arc.
    let arc = Arc::new(storage);
    comm.broadcast(0, WrappedArc(arc)).0
}

/// Arc wrapper so the broadcast payload is `Clone + Send + Sync`.
struct WrappedArc<T>(Arc<Storage<T>>);

impl<T> Clone for WrappedArc<T> {
    fn clone(&self) -> Self {
        WrappedArc(self.0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_runtime::{run, ClusterConfig};

    #[test]
    fn local_blocks_roundtrip() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let arr = GlobalArray::from_local(comm, vec![comm.rank() as u64; 3]);
            (arr.global_len(), arr.local_to_vec())
        });
        for (rank, ((total, local), _)) in out.into_iter().enumerate() {
            assert_eq!(total, 12);
            assert_eq!(local, vec![rank as u64; 3]);
        }
    }

    #[test]
    fn one_sided_get_sees_remote_data() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let arr = GlobalArray::from_local(comm, vec![(comm.rank() * 10) as u64]);
            arr.fence(comm);
            // Everyone reads rank 3's element.
            arr.get(comm, 3)
        });
        assert!(out.iter().all(|(v, _)| *v == 30));
    }

    #[test]
    fn get_range_spans_partitions() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let base = comm.rank() as u64 * 2;
            let arr = GlobalArray::from_local(comm, vec![base, base + 1]);
            arr.fence(comm);
            arr.get_range(comm, 1, 5)
        });
        for (v, _) in out {
            assert_eq!(v, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn put_is_visible_after_fence() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let arr = GlobalArray::from_local(comm, vec![0u64; 2]);
            arr.fence(comm);
            if comm.rank() == 0 {
                arr.put(comm, 7, 99); // last element, owned by rank 3
            }
            arr.fence(comm);
            arr.with_local(|l| l.to_vec())
        });
        assert_eq!(out[3].0, vec![0, 99]);
        assert_eq!(out[0].0, vec![0, 0]);
    }

    #[test]
    fn put_range_across_owners() {
        let out = run(&ClusterConfig::small_cluster(3), |comm| {
            let arr = GlobalArray::from_local(comm, vec![0u64; 2]);
            arr.fence(comm);
            if comm.rank() == 1 {
                arr.put_range(comm, 1, &[10, 11, 12, 13]);
            }
            arr.fence(comm);
            arr.local_to_vec()
        });
        assert_eq!(out[0].0, vec![0, 10]);
        assert_eq!(out[1].0, vec![11, 12]);
        assert_eq!(out[2].0, vec![13, 0]);
    }

    #[test]
    fn sparse_blocks_supported() {
        let out = run(&ClusterConfig::small_cluster(4), |comm| {
            let local = if comm.rank() == 2 {
                vec![1u64, 2, 3]
            } else {
                Vec::new()
            };
            let arr = GlobalArray::from_local(comm, local);
            arr.fence(comm);
            arr.get_range(comm, 0, arr.global_len())
        });
        for (v, _) in out {
            assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    fn remote_access_costs_more_than_local() {
        let out = run(&ClusterConfig::supermuc_phase2(32), |comm| {
            let arr = GlobalArray::from_local(comm, vec![comm.rank() as u64; 1024]);
            arr.fence(comm);
            let t0 = comm.now_ns();
            let me = arr.pattern().offset_of(comm.rank());
            let _ = arr.get_range(comm, me, me + 1024); // local
            let t1 = comm.now_ns();
            // Rank on another node (ranks/node = 16).
            let other = (comm.rank() + 16) % 32;
            let off = arr.pattern().offset_of(other);
            let _ = arr.get_range(comm, off, off + 1024); // inter-node
            let t2 = comm.now_ns();
            (t1 - t0, t2 - t1)
        });
        for ((local_ns, remote_ns), _) in out {
            assert!(
                remote_ns > local_ns,
                "remote {remote_ns} <= local {local_ns}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "preserve the block length")]
    fn replace_local_enforces_length() {
        let _ = run(&ClusterConfig::small_cluster(1), |comm| {
            let arr = GlobalArray::from_local(comm, vec![1u64, 2]);
            arr.replace_local(vec![1]);
        });
    }
}
