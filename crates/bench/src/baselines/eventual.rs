//! A Cassandra-like eventually consistent replicated store.
//!
//! The paper compares MRP-Store against Cassandra configured with three
//! partitions and replication factor three (§8.3.2). What matters for the
//! comparison is Cassandra's *consistency level ONE* fast path: a
//! coordinator replica applies a write locally, acknowledges immediately,
//! and propagates to the other replicas in the background; reads are
//! answered from the local copy. No ordering protocol runs, so requests
//! cost one client round-trip plus background gossip — the throughput
//! ceiling the paper's Figure 4 shows Cassandra enjoying.

use std::collections::BTreeMap;

use bytes::Bytes;
use common::ids::NodeId;
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::time::SimTime;
use common::wire::Wire;
use common::wire_frame;
use std::time::Duration;
use storage::{DiskTimeline, StorageMode};

/// `Msg::Custom` tag for the eventual-store protocol.
pub const TAG_EVENTUAL: u16 = 100;

wire_frame! {
    "eventual msg";
    /// Client/replica messages of the eventual store.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum EvMsg {
        /// Client write.
        0 => Put {
            /// Request id for matching the ack.
            req: u64,
            /// Key.
            key: String,
            /// Value.
            value: Bytes,
            /// Timestamp for last-writer-wins.
            ts: u64,
        },
        /// Client read.
        1 => Get {
            /// Request id.
            req: u64,
            /// Key.
            key: String,
        },
        /// Client range scan: `n` records from `key`. The reply's payload size
        /// models the transferred data volume.
        4 => Scan {
            /// Request id.
            req: u64,
            /// Start key.
            key: String,
            /// Records wanted.
            n: u64,
        },
        /// Replica acknowledgement to the client.
        2 => Ack {
            /// Echoed request id.
            req: u64,
            /// Value for reads.
            value: Option<Bytes>,
        },
        /// Background replication of a write.
        3 => Gossip {
            /// Key.
            key: String,
            /// Value.
            value: Bytes,
            /// Last-writer-wins timestamp.
            ts: u64,
        },
    }
}

/// Wraps an [`EvMsg`] into the simulator envelope.
pub fn wrap(m: &EvMsg) -> Msg {
    Msg::Custom(TAG_EVENTUAL, m.to_bytes())
}

/// Unwraps an [`EvMsg`].
pub fn unwrap(msg: &Msg) -> Option<EvMsg> {
    match msg {
        Msg::Custom(TAG_EVENTUAL, raw) => EvMsg::decode(&mut raw.clone()).ok(),
        _ => None,
    }
}

const TIMER_SCAN_REPLY: u32 = 60;
/// Modeled per-row cost of a Cassandra-1.x style range scan (SSTable
/// seeks, tombstone checks): the paper's workload-E collapse comes from
/// this overhead, which its random partitioner cannot amortize.
const SCAN_ROW_COST: Duration = Duration::from_micros(5);

/// One replica of the eventual store.
pub struct EventualReplica {
    peers: Vec<NodeId>,
    data: BTreeMap<String, (u64, Bytes)>,
    disk: DiskTimeline,
    /// Scans serialize on the replica (range reads are not index hits).
    scan_busy: SimTime,
    pending_scans: Vec<(SimTime, NodeId, u64, usize)>,
}

impl EventualReplica {
    /// A replica gossiping writes to `peers`.
    pub fn new(peers: Vec<NodeId>, storage: StorageMode) -> Self {
        EventualReplica {
            peers,
            data: BTreeMap::new(),
            disk: DiskTimeline::new(storage),
            scan_busy: SimTime::ZERO,
            pending_scans: Vec::new(),
        }
    }

    /// Pre-loads an entry (database initialization before the run).
    pub fn preload(&mut self, key: String, value: Bytes) {
        self.data.insert(key, (0, value));
    }

    /// Entries currently stored (diagnostics).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn lww_apply(&mut self, key: String, value: Bytes, ts: u64, now: SimTime) {
        self.disk.write(value.len() + 24, now);
        let slot = self.data.entry(key).or_insert((0, Bytes::new()));
        if ts >= slot.0 {
            *slot = (ts, value);
        }
    }
}

impl Process for EventualReplica {
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let Some(m) = unwrap(&msg) else { return };
        match m {
            EvMsg::Put {
                req,
                key,
                value,
                ts,
            } => {
                let now = ctx.now();
                self.lww_apply(key.clone(), value.clone(), ts, now);
                // Ack immediately (consistency level ONE)...
                ctx.send(from, wrap(&EvMsg::Ack { req, value: None }));
                // ...and replicate in the background.
                for peer in self.peers.clone() {
                    if peer != ctx.me() {
                        ctx.send(
                            peer,
                            wrap(&EvMsg::Gossip {
                                key: key.clone(),
                                value: value.clone(),
                                ts,
                            }),
                        );
                    }
                }
            }
            EvMsg::Get { req, key } => {
                let value = self.data.get(&key).map(|(_, v)| v.clone());
                ctx.send(from, wrap(&EvMsg::Ack { req, value }));
            }
            EvMsg::Gossip { key, value, ts } => {
                let now = ctx.now();
                self.lww_apply(key, value, ts, now);
            }
            EvMsg::Scan { req, key, n } => {
                // Serve the range. Rows cost SCAN_ROW_COST each and scans
                // serialize on the replica — range scans are Cassandra
                // 1.x's weak spot (paper §8.3.2, workload E).
                let total: usize = self
                    .data
                    .range(key..)
                    .take(n as usize)
                    .map(|(_, (_, v))| v.len())
                    .sum();
                let now = ctx.now();
                let serve_at = self.scan_busy.max(now) + SCAN_ROW_COST * (n as u32);
                self.scan_busy = serve_at;
                self.pending_scans
                    .push((serve_at, from, req, total.min(1 << 20)));
                ctx.schedule_at(serve_at, Timer::of_kind(TIMER_SCAN_REPLY));
            }
            EvMsg::Ack { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.kind != TIMER_SCAN_REPLY {
            return;
        }
        let now = ctx.now();
        let mut due = Vec::new();
        self.pending_scans.retain(|(at, from, req, bytes)| {
            if *at <= now {
                due.push((*from, *req, *bytes));
                false
            } else {
                true
            }
        });
        for (from, req, bytes) in due {
            ctx.send(
                from,
                wrap(&EvMsg::Ack {
                    req,
                    value: Some(Bytes::from(vec![0u8; bytes])),
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgs_round_trip() {
        for m in [
            EvMsg::Put {
                req: 1,
                key: "k".into(),
                value: Bytes::from_static(b"v"),
                ts: 9,
            },
            EvMsg::Get {
                req: 2,
                key: "k".into(),
            },
            EvMsg::Ack {
                req: 1,
                value: Some(Bytes::from_static(b"v")),
            },
            EvMsg::Gossip {
                key: "k".into(),
                value: Bytes::new(),
                ts: 3,
            },
        ] {
            let msg = wrap(&m);
            assert_eq!(unwrap(&msg).unwrap(), m);
        }
    }

    #[test]
    fn last_writer_wins() {
        let mut r = EventualReplica::new(vec![], StorageMode::InMemory);
        r.lww_apply("k".into(), Bytes::from_static(b"old"), 5, SimTime::ZERO);
        r.lww_apply("k".into(), Bytes::from_static(b"stale"), 3, SimTime::ZERO);
        assert_eq!(r.data["k"].1, Bytes::from_static(b"old"));
        r.lww_apply("k".into(), Bytes::from_static(b"new"), 7, SimTime::ZERO);
        assert_eq!(r.data["k"].1, Bytes::from_static(b"new"));
    }
}
