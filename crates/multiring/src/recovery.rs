//! Trim-protocol and recovery bookkeeping (paper §5.2).
//!
//! **Trimming.** Periodically, the coordinator of group `x` asks the
//! replicas subscribed to `x` for the highest consensus instance their
//! durable checkpoints cover. It waits for a quorum `Q_T` — here, a
//! majority of *every partition* subscribing to `x`, which guarantees
//! `Q_T` intersects any partition's recovery quorum `Q_R` — computes
//! `K_T = min` over the answers (Predicate 2) and orders the acceptors to
//! trim up to `K_T`.
//!
//! **Recovery.** A restarting replica queries its partition peers for
//! checkpoint metadata, waits for a majority `Q_R` (counting itself),
//! installs the most recent checkpoint (Predicate 3) and replays missing
//! instances from the acceptors — which cannot have trimmed them, by
//! Predicates 4–5 (`K_T ≤ K_R`).

use common::ids::{InstanceId, NodeId, RingId};
use common::msg::CheckpointTuple;
use common::time::SimTime;
use std::collections::HashMap;

/// One ring-coordinator's trim round state.
#[derive(Debug)]
pub struct TrimRound {
    ring: RingId,
    seq: u64,
    /// The ring's previous round, whose late replies this one counts.
    prev: Option<u64>,
    replies: HashMap<NodeId, InstanceId>,
    /// Set once the round ordered its trim: it counts no more replies.
    closed: bool,
}

impl TrimRound {
    /// Starts round `seq` for `ring`.
    pub fn new(ring: RingId, seq: u64) -> Self {
        TrimRound {
            ring,
            seq,
            prev: None,
            replies: HashMap::new(),
            closed: false,
        }
    }

    /// Starts round `seq` of the same ring after this one; it also counts
    /// the replies to this round that arrive late.
    pub fn next(&self, seq: u64) -> Self {
        TrimRound {
            prev: Some(self.seq),
            ..TrimRound::new(self.ring, seq)
        }
    }

    /// Whether a reply to round `seq` counts here: one to this round or
    /// to the ring's previous round, until this round has trimmed.
    pub fn accepts(&self, seq: u64) -> bool {
        !self.closed && (seq == self.seq || Some(seq) == self.prev)
    }

    /// Records a reply. `safe` is the highest instance (inclusive) covered
    /// by the replica's durable checkpoint; of two replies from one
    /// replica (a late one and a current one) the higher is kept.
    pub fn record(&mut self, replica: NodeId, safe: InstanceId) {
        let kept = self.replies.entry(replica).or_insert(safe);
        *kept = (*kept).max(safe);
    }

    /// Marks the round as done: it has ordered its trim.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Checks whether a majority of every subscribing partition answered;
    /// if so returns `K_T = min` over the replies (`None` while the quorum
    /// is incomplete or no partition subscribes).
    ///
    /// `partitions` lists, per subscribing partition, its full replica
    /// set. Subscribers outside any partition (plain observers) do not
    /// gate trimming.
    pub fn quorum_min(&self, partitions: &[Vec<NodeId>]) -> Option<InstanceId> {
        if partitions.is_empty() || self.replies.is_empty() {
            return None;
        }
        for replicas in partitions {
            let quorum = replicas.len() / 2 + 1;
            let got = replicas
                .iter()
                .filter(|r| self.replies.contains_key(r))
                .count();
            if got < quorum {
                return None;
            }
        }
        self.replies.values().min().copied()
    }
}

/// A restarting replica's progress through recovery.
#[derive(Debug)]
pub enum RecoveryPhase {
    /// Normal operation.
    Idle,
    /// Waiting for checkpoint metadata from partition peers.
    QueryCheckpoints {
        /// Correlates replies.
        seq: u64,
        /// Distinct peers that answered.
        replied: Vec<NodeId>,
        /// Best (most recent) remote checkpoint seen so far.
        best: Option<(NodeId, CheckpointTuple)>,
        /// Replies needed (quorum minus self).
        need: usize,
    },
    /// Fetching the chosen remote checkpoint.
    Fetching {
        /// Which checkpoint; any that dominates it will do.
        tuple: CheckpointTuple,
        /// When it was asked for.
        asked: SimTime,
    },
    /// Replaying trailing instances from the acceptors until all gaps
    /// close.
    CatchUp,
}

impl RecoveryPhase {
    /// True while recovery is in progress.
    pub fn is_recovering(&self) -> bool {
        !matches!(self, RecoveryPhase::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: u32) -> NodeId {
        NodeId::new(x)
    }

    fn i(x: u64) -> InstanceId {
        InstanceId::new(x)
    }

    #[test]
    fn trim_needs_majority_of_each_partition() {
        let p1 = vec![n(1), n(2), n(3)];
        let p2 = vec![n(4), n(5), n(6)];
        let mut round = TrimRound::new(RingId::new(0), 1);
        let parts = [p1, p2];

        round.record(n(1), i(10));
        round.record(n(2), i(12));
        // Partition 2 has no replies yet.
        assert_eq!(round.quorum_min(&parts), None);

        round.record(n(4), i(8));
        // Still only 1 of 3 in partition 2.
        assert_eq!(round.quorum_min(&parts), None);

        round.record(n(5), i(9));
        // Majorities everywhere: K_T = min(10, 12, 8, 9) = 8.
        assert_eq!(round.quorum_min(&parts), Some(i(8)));
    }

    #[test]
    fn trim_min_covers_all_replies_not_just_quorum() {
        // Predicate 2 requires K_T <= every quorum member's k; taking the
        // min over *all* replies is strictly more conservative.
        let parts = [vec![n(1), n(2), n(3)]];
        let mut round = TrimRound::new(RingId::new(0), 1);
        round.record(n(1), i(100));
        round.record(n(2), i(5));
        round.record(n(3), i(50));
        assert_eq!(round.quorum_min(&parts), Some(i(5)));
    }

    #[test]
    fn coordinator_reply_completes_a_two_replica_quorum() {
        // A 2-replica partition's majority is both replicas, so the
        // coordinator's own reply (recorded first, inline, when it
        // answers its own query) is needed: the peer alone is not enough.
        let parts = [vec![n(0), n(1)]];
        let mut round = TrimRound::new(RingId::new(0), 1);
        round.record(n(1), i(40));
        assert_eq!(round.quorum_min(&parts), None);

        let mut round = TrimRound::new(RingId::new(0), 2);
        round.record(n(0), i(30));
        assert_eq!(round.quorum_min(&parts), None);
        round.record(n(1), i(40));
        assert_eq!(round.quorum_min(&parts), Some(i(30)));
    }

    #[test]
    fn no_partitions_means_no_trim() {
        let mut round = TrimRound::new(RingId::new(0), 1);
        round.record(n(1), i(10));
        assert_eq!(round.quorum_min(&[]), None);
    }

    #[test]
    fn recovery_phase_flags() {
        assert!(!RecoveryPhase::Idle.is_recovering());
        assert!(RecoveryPhase::CatchUp.is_recovering());
    }
}
