//! Ring-level timers and their packing into the payload words of a
//! [`common::process::Timer`], so hosts multiplexing many rings can
//! dispatch without allocating.

use common::ids::InstanceId;

/// Timers a [`crate::RingNode`] schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingTimer {
    /// An acceptor's stable-storage write for `inst` completed; forward
    /// the pending vote/decision.
    WriteDone(InstanceId),
    /// The coordinator's Phase 1 promise write completed (`generation`
    /// guards against stale fires after a ballot change).
    PromiseDone(u32),
    /// Flush the outgoing packet batch.
    BatchFlush,
    /// Send a heartbeat to the successor and check the predecessor.
    Liveness,
    /// Re-send proposals that have not been decided in time.
    ProposalRetry,
}

const TAG_WRITE_DONE: u64 = 1;
const TAG_PROMISE_DONE: u64 = 2;
const TAG_BATCH_FLUSH: u64 = 3;
const TAG_LIVENESS: u64 = 5;
const TAG_PROPOSAL_RETRY: u64 = 6;

impl RingTimer {
    /// Packs into `(tag, payload)` words for embedding in a host timer.
    pub fn to_words(self) -> (u64, u64) {
        match self {
            RingTimer::WriteDone(inst) => (TAG_WRITE_DONE, inst.raw()),
            RingTimer::PromiseDone(generation) => (TAG_PROMISE_DONE, u64::from(generation)),
            RingTimer::BatchFlush => (TAG_BATCH_FLUSH, 0),
            RingTimer::Liveness => (TAG_LIVENESS, 0),
            RingTimer::ProposalRetry => (TAG_PROPOSAL_RETRY, 0),
        }
    }

    /// Reverses [`RingTimer::to_words`]. Returns `None` for unknown tags.
    pub fn from_words(tag: u64, payload: u64) -> Option<Self> {
        match tag {
            TAG_WRITE_DONE => Some(RingTimer::WriteDone(InstanceId::new(payload))),
            TAG_PROMISE_DONE => Some(RingTimer::PromiseDone(payload as u32)),
            TAG_BATCH_FLUSH => Some(RingTimer::BatchFlush),
            TAG_LIVENESS => Some(RingTimer::Liveness),
            TAG_PROPOSAL_RETRY => Some(RingTimer::ProposalRetry),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        for t in [
            RingTimer::WriteDone(InstanceId::new(12345)),
            RingTimer::PromiseDone(7),
            RingTimer::BatchFlush,
            RingTimer::Liveness,
            RingTimer::ProposalRetry,
        ] {
            let (tag, payload) = t.to_words();
            assert_eq!(RingTimer::from_words(tag, payload), Some(t));
        }
        assert_eq!(RingTimer::from_words(99, 0), None);
    }
}
