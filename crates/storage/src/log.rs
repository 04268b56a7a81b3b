//! The acceptor's vote log with trimming.
//!
//! Before responding to a coordinator with a Phase 1B or Phase 2B message,
//! an acceptor must log its response onto stable storage (paper §5.1). The
//! log also remembers which instances were decided so it can serve
//! retransmission requests from recovering replicas, and it supports
//! *trimming*: deleting everything up to the instance `K_T` computed by the
//! trim protocol (§5.2).

use common::ids::{Ballot, InstanceId};
use common::msg::AcceptedEntry;
use common::time::SimTime;
use common::value::Value;
use common::wire::Wire;
use std::collections::BTreeMap;

use crate::profile::{DiskTimeline, StorageMode, WriteReceipt};

#[derive(Clone, Debug)]
struct Slot {
    vballot: Ballot,
    value: Value,
    decided: bool,
    durable_at: SimTime,
}

/// One ring's persistent acceptor state: promised ballot, accepted values,
/// decided flags and the trim floor.
#[derive(Debug)]
pub struct AcceptorLog {
    disk: DiskTimeline,
    promised: Ballot,
    promised_durable_at: SimTime,
    slots: BTreeMap<InstanceId, Slot>,
    /// First instance still present; everything below was trimmed.
    trim_floor: InstanceId,
}

impl AcceptorLog {
    /// An empty log backed by storage `mode`.
    pub fn new(mode: StorageMode) -> Self {
        AcceptorLog {
            disk: DiskTimeline::new(mode),
            promised: Ballot::ZERO,
            promised_durable_at: SimTime::ZERO,
            slots: BTreeMap::new(),
            trim_floor: InstanceId::ZERO,
        }
    }

    /// The storage mode this log writes with.
    pub fn mode(&self) -> StorageMode {
        self.disk.mode()
    }

    /// The highest ballot promised so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Records a promise not to accept ballots below `ballot`. Returns the
    /// receipt for the stable-storage write. A promise never goes down: a
    /// lower `ballot` (a caller bug, asserted in debug builds) leaves the
    /// higher promise in place.
    pub fn promise(&mut self, ballot: Ballot, now: SimTime) -> WriteReceipt {
        debug_assert!(ballot >= self.promised, "promise below promise");
        self.promised = self.promised.max(ballot);
        let receipt = self.disk.write(16, now);
        self.promised_durable_at = receipt.durable_at;
        receipt
    }

    /// Accepts `value` for `inst` at `ballot`, logging the vote. Returns
    /// the write receipt; the caller must not forward its Phase 2B vote
    /// before `receipt.ack_at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ballot` is below the current promise.
    pub fn accept(
        &mut self,
        inst: InstanceId,
        ballot: Ballot,
        value: Value,
        now: SimTime,
    ) -> WriteReceipt {
        debug_assert!(ballot >= self.promised, "accept below promise");
        let receipt = self.disk.write(16 + value.encoded_len(), now);
        // Re-accepting an instance (higher ballot after failover) appends
        // to the on-disk log; the slot stays durable from its *first*
        // durable write — a crash between the two flushes must not erase
        // the acceptor's vote entirely.
        let prior_durable = self.slots.get(&inst).map(|s| s.durable_at);
        let durable_at = match prior_durable {
            Some(d) => d.min(receipt.durable_at),
            None => receipt.durable_at,
        };
        self.slots.insert(
            inst,
            Slot {
                vballot: ballot,
                value,
                decided: false,
                durable_at,
            },
        );
        receipt
    }

    /// Marks `inst` as decided with `value` (observed from a circulating
    /// decision). Also used when learning a decision during recovery.
    ///
    /// Decision markers are metadata only — they do not touch the disk.
    /// Durability of the *vote* is what Paxos safety needs; a decided flag
    /// lost in a crash merely makes this acceptor useless for
    /// retransmission until it re-observes decisions (requesters rotate
    /// over acceptors).
    pub fn mark_decided(&mut self, inst: InstanceId, value: Value, now: SimTime) {
        if inst < self.trim_floor {
            return;
        }
        let slot = self.slots.entry(inst).or_insert_with(|| Slot {
            vballot: Ballot::ZERO,
            value: value.clone(),
            decided: false,
            durable_at: now,
        });
        slot.value = value;
        slot.decided = true;
    }

    /// The value accepted for `inst`, if any.
    pub fn accepted(&self, inst: InstanceId) -> Option<(Ballot, &Value)> {
        self.slots.get(&inst).map(|s| (s.vballot, &s.value))
    }

    /// Whether `inst` is known to be decided.
    pub fn is_decided(&self, inst: InstanceId) -> bool {
        self.slots.get(&inst).map(|s| s.decided).unwrap_or(false)
    }

    /// Accepted-but-undecided entries in `[from, to)`, for Phase 1
    /// re-proposals after a coordinator change.
    pub fn accepted_in_range(&self, from: InstanceId, to: InstanceId) -> Vec<AcceptedEntry> {
        if from >= to {
            return Vec::new();
        }
        self.slots
            .range(from..to)
            .filter(|(_, s)| !s.decided)
            .map(|(inst, s)| AcceptedEntry {
                inst: *inst,
                vballot: s.vballot,
                value: s.value.clone(),
            })
            .collect()
    }

    /// Every retained entry in `[from, to)`, decided or not — what an
    /// acceptor reports in its Phase 1B after a coordinator change. The
    /// new coordinator re-proposes the highest-ballot value per instance;
    /// Paxos safety guarantees re-proposing an already decided instance
    /// re-decides the same value.
    pub fn entries_in_range(&self, from: InstanceId, to: InstanceId) -> Vec<AcceptedEntry> {
        let from = from.max(self.trim_floor);
        if from >= to {
            return Vec::new();
        }
        self.slots
            .range(from..to)
            .map(|(inst, s)| AcceptedEntry {
                inst: *inst,
                vballot: s.vballot,
                value: s.value.clone(),
            })
            .collect()
    }

    /// Decided entries in `[from, to)`, for retransmission to recovering
    /// replicas.
    pub fn decided_in_range(&self, from: InstanceId, to: InstanceId) -> Vec<AcceptedEntry> {
        // A recovering replica may legitimately ask for a range that the
        // trim floor has passed entirely; serve it as empty (the reply's
        // `log_start` tells the requester to fetch a newer checkpoint).
        let from = from.max(self.trim_floor);
        if from >= to {
            return Vec::new();
        }
        self.slots
            .range(from..to)
            .filter(|(_, s)| s.decided)
            .map(|(inst, s)| AcceptedEntry {
                inst: *inst,
                vballot: s.vballot,
                value: s.value.clone(),
            })
            .collect()
    }

    /// First instance still retained. Requests below this must recover
    /// from a checkpoint instead (the paper's `Trimmed` condition).
    pub fn trim_floor(&self) -> InstanceId {
        self.trim_floor
    }

    /// Deletes every entry with instance `<= upto` (the coordinator's
    /// `Trim` order). Trimming never un-trims: stale orders are ignored.
    pub fn trim(&mut self, upto: InstanceId) {
        let new_floor = upto.next();
        if new_floor <= self.trim_floor {
            return;
        }
        self.slots = self.slots.split_off(&new_floor);
        self.trim_floor = new_floor;
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Payload bytes of the retained entries' values: what the log keeps
    /// alive in memory. Walks every entry, so it is for the stats plane.
    pub fn payload_bytes(&self) -> usize {
        let payloads = self.slots.values().filter_map(|s| s.value.payload());
        payloads.map(|b| b.len()).sum()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Simulates a crash at `now`: all entries not yet durable are lost,
    /// as is an unflushed promise. In-memory logs lose everything.
    pub fn crash(&mut self, now: SimTime) {
        if matches!(self.disk.mode(), StorageMode::InMemory) {
            self.slots.clear();
            self.promised = Ballot::ZERO;
            self.trim_floor = InstanceId::ZERO;
            return;
        }
        self.slots.retain(|_, s| s.durable_at <= now);
        if self.promised_durable_at > now {
            self.promised = Ballot::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DiskProfile;
    use common::ids::NodeId;
    use common::value::Value;

    fn val(seq: u64) -> Value {
        Value::app(NodeId::new(1), seq, bytes::Bytes::from_static(b"v"))
    }

    fn b(round: u32) -> Ballot {
        Ballot::new(round, NodeId::new(1))
    }

    #[test]
    fn accept_then_read_back() {
        let mut log = AcceptorLog::new(StorageMode::InMemory);
        log.promise(b(1), SimTime::ZERO);
        log.accept(InstanceId::new(0), b(1), val(0), SimTime::ZERO);
        let (ballot, value) = log.accepted(InstanceId::new(0)).unwrap();
        assert_eq!(ballot, b(1));
        assert_eq!(value, &val(0));
        assert!(!log.is_decided(InstanceId::new(0)));
        log.mark_decided(InstanceId::new(0), val(0), SimTime::ZERO);
        assert!(log.is_decided(InstanceId::new(0)));
    }

    #[test]
    fn sync_mode_delays_ack() {
        let mut log = AcceptorLog::new(StorageMode::Sync(DiskProfile::hdd()));
        let r = log.accept(InstanceId::new(0), b(1), val(0), SimTime::ZERO);
        assert!(r.ack_at.since(SimTime::ZERO) >= std::time::Duration::from_millis(8));
    }

    #[test]
    fn trim_removes_prefix_and_is_monotone() {
        let mut log = AcceptorLog::new(StorageMode::InMemory);
        for i in 0..10 {
            log.accept(InstanceId::new(i), b(1), val(i), SimTime::ZERO);
            log.mark_decided(InstanceId::new(i), val(i), SimTime::ZERO);
        }
        log.trim(InstanceId::new(4));
        assert_eq!(log.trim_floor(), InstanceId::new(5));
        assert_eq!(log.len(), 5);
        assert!(log.accepted(InstanceId::new(4)).is_none());
        assert!(log.accepted(InstanceId::new(5)).is_some());

        // Stale trim order is a no-op.
        log.trim(InstanceId::new(2));
        assert_eq!(log.trim_floor(), InstanceId::new(5));

        let replay = log.decided_in_range(InstanceId::ZERO, InstanceId::new(100));
        assert_eq!(replay.len(), 5);
        assert_eq!(replay[0].inst, InstanceId::new(5));
    }

    #[test]
    fn accepted_in_range_excludes_decided() {
        let mut log = AcceptorLog::new(StorageMode::InMemory);
        log.accept(InstanceId::new(0), b(1), val(0), SimTime::ZERO);
        log.accept(InstanceId::new(1), b(1), val(1), SimTime::ZERO);
        log.mark_decided(InstanceId::new(0), val(0), SimTime::ZERO);
        let open = log.accepted_in_range(InstanceId::ZERO, InstanceId::new(10));
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].inst, InstanceId::new(1));
    }

    #[test]
    fn crash_loses_non_durable_entries() {
        // Async mode: durability lags the ack.
        let profile = DiskProfile {
            flush_latency: std::time::Duration::from_millis(1),
            bandwidth: 1e6, // 1 MB/s: 1 KB takes 1 ms to become durable
            max_backlog_bytes: 1 << 30,
        };
        let mut log = AcceptorLog::new(StorageMode::Async(profile));
        let now = SimTime::ZERO;
        let r = log.accept(InstanceId::new(0), b(1), val(0), now);
        assert_eq!(r.ack_at, now);
        assert!(r.durable_at > now);

        // Crash before the flush completes: the entry is gone.
        log.crash(now);
        assert!(log.accepted(InstanceId::new(0)).is_none());

        // Write again; crash after durability: the entry survives.
        let r = log.accept(InstanceId::new(1), b(1), val(1), now);
        log.crash(r.durable_at);
        assert!(log.accepted(InstanceId::new(1)).is_some());
    }

    #[test]
    fn in_memory_crash_loses_everything() {
        let mut log = AcceptorLog::new(StorageMode::InMemory);
        log.promise(b(3), SimTime::ZERO);
        log.accept(InstanceId::new(0), b(3), val(0), SimTime::ZERO);
        log.crash(SimTime::from_secs(100));
        assert!(log.is_empty());
        assert_eq!(log.promised(), Ballot::ZERO);
    }

    #[test]
    fn decided_below_trim_floor_is_ignored() {
        let mut log = AcceptorLog::new(StorageMode::InMemory);
        log.accept(InstanceId::new(0), b(1), val(0), SimTime::ZERO);
        log.trim(InstanceId::new(5));
        log.mark_decided(InstanceId::new(3), val(3), SimTime::ZERO);
        assert!(log.is_empty());
    }
}
