//! Replica checkpoint storage.
//!
//! Replicas periodically checkpoint their service state and write it
//! synchronously to disk, identified by the checkpoint tuple `k_p`
//! (paper §5.2, Predicate 1). A recovering replica reads its latest
//! durable checkpoint, or installs a newer one fetched from a partition
//! peer.
//!
//! [`CheckpointStore`] is the simulator's model (virtual disk timing,
//! crash semantics). It is generic over what it retains, so a host can
//! keep a checkpoint in whatever form is cheapest to hold and charge the
//! disk with the length it would have in bytes. A host saves here only
//! checkpoints that can outlive a crash: with in-memory storage a
//! checkpoint is its tuple, and nothing is saved.

use common::msg::CheckpointTuple;
use common::time::SimTime;

use crate::profile::{DiskTimeline, StorageMode, WriteReceipt};

#[derive(Clone, Debug)]
struct Entry<S> {
    tuple: CheckpointTuple,
    state: S,
    durable_at: SimTime,
}

/// Durable checkpoint store for one replica.
///
/// Keeps the two most recent checkpoints saved (older ones are garbage
/// collected like the paper's log files): the newest may still be in
/// flight to the disk when a crash comes, and the one before it is then
/// what survives.
#[derive(Debug)]
pub struct CheckpointStore<S> {
    disk: DiskTimeline,
    entries: Vec<Entry<S>>,
    retain: usize,
}

impl<S> CheckpointStore<S> {
    /// An empty store writing with `mode`, retaining the last two
    /// checkpoints saved.
    pub fn new(mode: StorageMode) -> Self {
        CheckpointStore {
            disk: DiskTimeline::new(mode),
            entries: Vec::new(),
            retain: 2,
        }
    }

    /// Saves checkpoint `tuple` with `state`, `len` bytes serialized, at
    /// `now`.
    ///
    /// Returns the write receipt; the checkpoint only counts as taken (for
    /// trim votes) once `receipt.ack_at` passes — checkpoints are written
    /// synchronously in the paper's services.
    pub fn save(
        &mut self,
        tuple: CheckpointTuple,
        state: S,
        len: usize,
        now: SimTime,
    ) -> WriteReceipt {
        let receipt = self.disk.write(len + 32, now);
        self.entries.push(Entry {
            tuple,
            state,
            durable_at: receipt.durable_at,
        });
        if self.entries.len() > self.retain {
            let excess = self.entries.len() - self.retain;
            self.entries.drain(..excess);
        }
        receipt
    }

    /// The most recent checkpoint durable at `now` — what survives a crash.
    pub fn latest_durable(&self, now: SimTime) -> Option<(&CheckpointTuple, &S)> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.durable_at <= now)
            .map(|e| (&e.tuple, &e.state))
    }

    /// The state stored for exactly `tuple`, if still retained.
    pub fn get(&self, tuple: &CheckpointTuple) -> Option<&S> {
        self.entries
            .iter()
            .rev()
            .find(|e| &e.tuple == tuple)
            .map(|e| &e.state)
    }

    /// Simulates a crash at `now`: non-durable checkpoints disappear.
    /// In-memory stores lose everything.
    pub fn crash(&mut self, now: SimTime) {
        self.entries.retain(|e| e.durable_at <= now);
    }

    /// Every retained checkpoint, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&CheckpointTuple, &S)> {
        self.entries.iter().map(|e| (&e.tuple, &e.state))
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DiskProfile;
    use bytes::Bytes;
    use common::ids::{InstanceId, RingId};

    fn tuple(i: u64) -> CheckpointTuple {
        CheckpointTuple::new(vec![(RingId::new(0), InstanceId::new(i))])
    }

    #[test]
    fn save_and_fetch_latest() {
        let mut s = CheckpointStore::new(StorageMode::InMemory);
        s.save(tuple(5), Bytes::from_static(b"five"), 4, SimTime::ZERO);
        s.save(tuple(9), Bytes::from_static(b"nine"), 4, SimTime::ZERO);
        let (t, state) = s.iter().last().unwrap();
        assert_eq!(t, &tuple(9));
        assert_eq!(state, &Bytes::from_static(b"nine"));
        assert_eq!(s.get(&tuple(5)).unwrap(), &Bytes::from_static(b"five"));
    }

    #[test]
    fn retains_bounded_history() {
        let mut s = CheckpointStore::new(StorageMode::InMemory);
        for i in 0..5 {
            s.save(tuple(i), Bytes::new(), 0, SimTime::ZERO);
        }
        assert_eq!(s.len(), 2);
        assert!(s.get(&tuple(0)).is_none());
        assert!(s.get(&tuple(4)).is_some());
    }

    #[test]
    fn durable_checkpoint_survives_crash() {
        let mut s = CheckpointStore::new(StorageMode::Sync(DiskProfile::ssd()));
        let r = s.save(tuple(1), Bytes::from_static(b"one"), 3, SimTime::ZERO);
        // Crash before the write completes: gone.
        let mut early = CheckpointStore::new(StorageMode::Sync(DiskProfile::ssd()));
        early.save(tuple(1), Bytes::from_static(b"one"), 3, SimTime::ZERO);
        early.crash(SimTime::ZERO);
        assert!(early.is_empty());
        // Crash after: survives.
        s.crash(r.durable_at);
        assert_eq!(s.latest_durable(r.durable_at).unwrap().0, &tuple(1));
    }

    #[test]
    fn latest_durable_skips_in_flight_writes() {
        let mut s = CheckpointStore::new(StorageMode::Sync(DiskProfile::hdd()));
        let r1 = s.save(tuple(1), Bytes::from_static(b"a"), 1, SimTime::ZERO);
        let r2 = s.save(tuple(2), Bytes::from_static(b"b"), 1, r1.ack_at);
        // Between the two flushes, only the first is durable.
        let mid = r1.durable_at;
        assert_eq!(s.latest_durable(mid).unwrap().0, &tuple(1));
        assert_eq!(s.latest_durable(r2.durable_at).unwrap().0, &tuple(2));
    }
}
