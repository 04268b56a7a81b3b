//! Protocol messages.
//!
//! Everything that travels between processes — Ring Paxos phases, client
//! traffic, recovery/trimming and baseline-specific payloads — is a [`Msg`].
//! Client traffic is the live client protocol's own frames
//! ([`crate::wire::client`]), so a simulated client speaks protocol v2
//! exactly as a live one does.
//! Having a single concrete message type keeps the simulator and the live
//! transport free of generics while still letting services define their own
//! command encodings inside [`bytes::Bytes`] payloads.
//!
//! ## Ring circulation and TTLs
//!
//! Ring Paxos messages travel along a unidirectional ring. A message created
//! by some process carries a `ttl` initialized to *ring size − 1*; each hop
//! decrements it and forwards while positive, so values "stop circulating
//! when all processes have received them" (paper §4) without any process
//! needing to know the originator's position. Messages that carry no
//! payload and have known addressees — id-only decisions, value pulls —
//! do not circulate: they are sent point-to-point with `ttl` 0.

use bytes::{Bytes, BytesMut};
use std::cmp::Ordering;
use std::fmt;

use crate::error::WireError;
use crate::ids::{Ballot, InstanceId, NodeId, PartitionId, RingId};
use crate::value::{Value, ValueId};
use crate::wire::client::{ClientMsg, ClientReply};
use crate::wire::{get_vec, put_vec, Wire};
use crate::wire_frame;

wire_frame! {
    "msg";
    /// Top-level message envelope.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Msg {
        /// A Ring Paxos protocol message for one ring.
        0 => Ring(RingId, RingMsg),
        /// A client's protocol-v2 frame to a serving node.
        1 => Client(ClientMsg),
        /// A serving node's protocol-v2 frame to a client.
        4 => Reply(ClientReply),
        /// Recovery, checkpointing and log-trimming traffic.
        2 => Recovery(RecoveryMsg),
        /// Free-form payload used by baseline systems and tests; the `u16` tags
        /// the sub-protocol.
        3 => Custom(u16, Bytes),
    }
}

impl Msg {
    /// On-wire size in bytes, used by the simulator's bandwidth and CPU
    /// cost models. Computed without serializing; exact for ring and
    /// client traffic, the fixed estimates of [`RecoveryMsg::wire_size`]
    /// for recovery messages, and a 3-byte header for custom payloads.
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::Ring(..) | Msg::Client(_) | Msg::Reply(_) => self.encoded_len(),
            Msg::Recovery(m) => 1 + m.wire_size(),
            Msg::Custom(_, b) => 3 + b.len(),
        }
    }
}

wire_frame! {
    /// An accepted value reported in Phase 1: instance, the ballot it was
    /// accepted at, and the value itself.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct AcceptedEntry {
        /// The consensus instance.
        pub inst: InstanceId,
        /// Ballot at which `value` was accepted.
        pub vballot: Ballot,
        /// The accepted value.
        pub value: Value,
    }
}

wire_frame! {
    "ring msg";
    /// Ring Paxos messages (paper §4, Figure 2).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum RingMsg {
        /// A proposed value circulating towards the coordinator.
        0 => Proposal {
            /// The value to order.
            value: Value,
            /// Remaining hops.
            ttl: u16,
        },
        /// Combined Phase 1A/1B circulating the ring: the coordinator opens a
        /// window of instances at `ballot`; acceptors add their promise count
        /// and report values they accepted in the window under lower ballots.
        1 => Phase1 {
            /// The coordinator's ballot.
            ballot: Ballot,
            /// First instance of the window (inclusive).
            from: InstanceId,
            /// Last instance of the window (exclusive).
            to: InstanceId,
            /// Number of acceptors that promised so far.
            promises: u16,
            /// Previously accepted values that must be re-proposed.
            accepted: Vec<AcceptedEntry>,
            /// Remaining hops.
            ttl: u16,
        },
        /// Combined Phase 2A/2B circulating the ring: proposal by the
        /// coordinator plus the votes accumulated so far.
        2 => Phase2 {
            /// The consensus instance being decided.
            inst: InstanceId,
            /// The coordinator's ballot.
            ballot: Ballot,
            /// The proposed value.
            value: Value,
            /// Number of acceptor votes accumulated.
            votes: u16,
            /// Remaining hops.
            ttl: u16,
        },
        /// The outcome of an instance, sent point-to-point by the acceptor
        /// whose vote completed the majority to each member the Phase 2
        /// message had already passed (never forwarded; `ttl` is 0).
        ///
        /// Metadata only: the payload circulated the ring once inside
        /// [`RingMsg::Phase2`]; the decision names the winning value by id and
        /// receivers resolve it against what they learned in Phase 2 (or pull
        /// it with [`RingMsg::ValueRequest`] if they missed it).
        3 => Decision {
            /// The decided instance.
            inst: InstanceId,
            /// The ballot the value was decided at.
            ballot: Ballot,
            /// The decided value's id.
            id: ValueId,
            /// Remaining hops.
            ttl: u16,
        },
        /// Slow-path pull: the sender observed an id-only decision for a value
        /// it never learned (dropped frame, late join, post-reconfiguration
        /// hole) and asks an acceptor to resend it. Point-to-point, never
        /// forwarded.
        6 => ValueRequest {
            /// The decided instance whose value is missing.
            inst: InstanceId,
            /// The decided value's id.
            id: ValueId,
        },
        /// Answer to [`RingMsg::ValueRequest`]: the full value. Point-to-point.
        7 => ValueResend {
            /// The decided instance.
            inst: InstanceId,
            /// The ballot the value was accepted at by the resender.
            ballot: Ballot,
            /// The decided value.
            value: Value,
        },
        /// Several ring messages packed into one network packet (paper §4:
        /// "different types of messages for several consensus instances are
        /// often grouped into bigger packets").
        4 => Batch(Vec<RingMsg>),
        /// A liveness beacon sent point-to-point to the successor; consumed by
        /// the receiver (never forwarded). Silence from the predecessor is how
        /// ring members detect failures and trigger reconfiguration.
        5 => Heartbeat {
            /// The sender's view of the configuration epoch.
            epoch: u64,
        },
        /// Eager dissemination of a large value, sent point-to-point by the
        /// proposer to every other ring member *concurrently with* ordering
        /// (never forwarded). By the time the id-only [`RingMsg::Decision`]
        /// arrives, the value is usually already resident in the receiver's
        /// learned cache, so [`RingMsg::ValueRequest`] stays the slow path.
        /// Purely an optimization: dropping every `ValuePush` only costs the
        /// pull round-trip, never correctness.
        8 => ValuePush {
            /// The value being disseminated ahead of its decision.
            value: Value,
        },
    }
}

impl RingMsg {
    /// The remaining hop count, if this message circulates.
    pub fn ttl(&self) -> Option<u16> {
        match self {
            RingMsg::Proposal { ttl, .. }
            | RingMsg::Phase1 { ttl, .. }
            | RingMsg::Phase2 { ttl, .. }
            | RingMsg::Decision { ttl, .. } => Some(*ttl),
            RingMsg::Batch(_)
            | RingMsg::Heartbeat { .. }
            | RingMsg::ValueRequest { .. }
            | RingMsg::ValueResend { .. }
            | RingMsg::ValuePush { .. } => None,
        }
    }

    /// Tallies this message's hot-path wire footprint into `stats`,
    /// recursing into [`RingMsg::Batch`] packets. Called by the live
    /// transports at their encode points, where the sending *node* is
    /// known — the per-node replacement for the old process-global wire
    /// counters. Sizes come from [`Wire::encoded_len`], which is exact.
    pub fn tally_wire(&self, stats: &mut WireStats) {
        match self {
            RingMsg::Phase2 { value, .. } => {
                stats.phase2_msgs += 1;
                stats.phase2_wire_bytes += self.encoded_len() as u64;
                stats.phase2_payload_bytes += value.payload().map(|b| b.len()).unwrap_or(0) as u64;
            }
            RingMsg::Decision { .. } => {
                stats.decision_msgs += 1;
                stats.decision_wire_bytes += self.encoded_len() as u64;
                // Id-only by construction: a decision cannot carry payload
                // bytes; the (always-zero) counter records that fact.
            }
            RingMsg::ValueRequest { .. } => stats.value_requests += 1,
            RingMsg::ValuePush { value } => {
                stats.value_push_msgs += 1;
                stats.value_push_bytes += value.payload().map(|b| b.len()).unwrap_or(0) as u64;
            }
            RingMsg::Batch(msgs) => {
                for m in msgs {
                    m.tally_wire(stats);
                }
            }
            RingMsg::Proposal { .. }
            | RingMsg::Phase1 { .. }
            | RingMsg::ValueResend { .. }
            | RingMsg::Heartbeat { .. } => {}
        }
    }
}

/// Wire-footprint tally of the ordering hot path, accumulated via
/// [`RingMsg::tally_wire`]. The benchmarks and the CI smoke test ask one
/// specific question of it: *how many payload bytes does the decision
/// path still carry?* With id-only decisions the answer must be zero —
/// the value circulates the ring once inside Phase 2 and every later
/// ordering message is metadata.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Decision messages sent.
    pub decision_msgs: u64,
    /// Total encoded bytes of those decisions.
    pub decision_wire_bytes: u64,
    /// Application payload bytes carried inside decisions (zero with
    /// id-only decisions).
    pub decision_payload_bytes: u64,
    /// Phase 2 messages sent.
    pub phase2_msgs: u64,
    /// Total encoded bytes of those Phase 2 messages.
    pub phase2_wire_bytes: u64,
    /// Application payload bytes carried inside Phase 2 messages (the
    /// one legitimate payload circulation).
    pub phase2_payload_bytes: u64,
    /// Slow-path value pulls sent (misses of the id→value resolution).
    pub value_requests: u64,
    /// Eager [`RingMsg::ValuePush`] disseminations sent (large values
    /// pushed to members concurrently with ordering).
    pub value_push_msgs: u64,
    /// Application payload bytes carried inside those pushes.
    pub value_push_bytes: u64,
}

impl WireStats {
    /// Tallies one outgoing message.
    pub fn tally(&mut self, msg: &RingMsg) {
        msg.tally_wire(self);
    }
}

/// A checkpoint identifier: one consensus instance per subscribed ring,
/// ordered by ring id (paper §5.2, the tuple `k_p`).
///
/// Within a partition, checkpoints taken at deterministic-merge boundaries
/// are totally ordered (Predicate 1); across partitions only a partial order
/// exists, which is why remote checkpoints may only be installed from the
/// same partition.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CheckpointTuple(Vec<(RingId, InstanceId)>);

impl CheckpointTuple {
    /// Builds a tuple from `(ring, next undelivered instance)` pairs; the
    /// entries are sorted by ring id.
    pub fn new(mut entries: Vec<(RingId, InstanceId)>) -> Self {
        entries.sort_by_key(|(r, _)| *r);
        entries.dedup_by_key(|(r, _)| *r);
        CheckpointTuple(entries)
    }

    /// The instance recorded for `ring`, if the partition subscribes to it.
    pub fn get(&self, ring: RingId) -> Option<InstanceId> {
        self.0
            .iter()
            .find(|(r, _)| *r == ring)
            .map(|(_, inst)| *inst)
    }

    /// Iterates over `(ring, instance)` entries in ring-id order.
    pub fn entries(&self) -> impl Iterator<Item = (RingId, InstanceId)> + '_ {
        self.0.iter().copied()
    }

    /// The rings covered by this tuple.
    pub fn rings(&self) -> impl Iterator<Item = RingId> + '_ {
        self.0.iter().map(|(r, _)| *r)
    }

    /// Number of rings in the tuple.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the tuple covers no rings.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Componentwise comparison: `Some(Less/Equal/Greater)` when every entry
    /// agrees (tuples over the same rings), `None` when incomparable.
    ///
    /// Same-partition checkpoints are always comparable (Predicate 1).
    pub fn partial_cmp_tuple(&self, other: &CheckpointTuple) -> Option<Ordering> {
        if self.0.len() != other.0.len() {
            return None;
        }
        let mut ord = Ordering::Equal;
        for ((ra, ia), (rb, ib)) in self.0.iter().zip(other.0.iter()) {
            if ra != rb {
                return None;
            }
            match (ord, ia.cmp(ib)) {
                (_, Ordering::Equal) => {}
                (Ordering::Equal, o) => ord = o,
                (o1, o2) if o1 == o2 => {}
                _ => return None,
            }
        }
        Some(ord)
    }

    /// True if `self` is componentwise `>=` `other`.
    pub fn dominates(&self, other: &CheckpointTuple) -> bool {
        matches!(
            self.partial_cmp_tuple(other),
            Some(Ordering::Greater | Ordering::Equal)
        )
    }
}

impl fmt::Display for CheckpointTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k[")?;
        for (i, (r, inst)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}:{inst}")?;
        }
        write!(f, "]")
    }
}

impl Wire for CheckpointTuple {
    fn encode(&self, buf: &mut BytesMut) {
        put_vec(buf, &self.0);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(CheckpointTuple::new(get_vec(buf)?))
    }
}

wire_frame! {
    "recovery msg";
    /// Recovery, checkpoint-coordination and log-trimming messages (paper §5).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum RecoveryMsg {
        /// Coordinator of `ring` asks replicas for their highest safe instance.
        0 => TrimQuery {
            /// The ring whose log may be trimmed.
            ring: RingId,
            /// Correlates replies with queries.
            seq: u64,
        },
        /// A replica's answer: it has checkpointed state covering instances up
        /// to `safe` on `ring`.
        1 => TrimReply {
            /// The ring in question.
            ring: RingId,
            /// Echoed query sequence number.
            seq: u64,
            /// Highest instance included in the replica's checkpoint.
            safe: InstanceId,
            /// The answering replica.
            replica: NodeId,
        },
        /// Coordinator's order to acceptors: trim everything `<= upto`.
        2 => Trim {
            /// The ring whose acceptors should trim.
            ring: RingId,
            /// Last trimmed instance (the paper's `K[x]_T`).
            upto: InstanceId,
        },
        /// A recovering replica asks partition peers for checkpoint metadata.
        3 => CheckpointQuery {
            /// The recovering replica's partition.
            partition: PartitionId,
            /// Correlates replies.
            seq: u64,
        },
        /// A peer advertises its most recent checkpoint.
        4 => CheckpointInfo {
            /// Echoed query sequence number.
            seq: u64,
            /// The advertising replica.
            replica: NodeId,
            /// Identifier of its latest durable checkpoint.
            tuple: CheckpointTuple,
        },
        /// Ask `replica` for the full state of checkpoint `tuple`.
        5 => CheckpointFetch {
            /// Which checkpoint to ship.
            tuple: CheckpointTuple,
        },
        /// The checkpoint state transfer.
        6 => CheckpointData {
            /// Which checkpoint this is.
            tuple: CheckpointTuple,
            /// Serialized service state.
            state: Bytes,
        },
        /// Ask an acceptor to retransmit decisions in `[from, to)` of `ring`.
        7 => Retransmit {
            /// The ring to replay.
            ring: RingId,
            /// First wanted instance.
            from: InstanceId,
            /// One past the last wanted instance.
            to: InstanceId,
        },
        /// Retransmitted decisions. `log_start` tells the requester which
        /// prefix is gone forever (it must then fetch a newer checkpoint).
        8 => RetransmitReply {
            /// The ring replayed.
            ring: RingId,
            /// Decisions, in instance order.
            decisions: Vec<AcceptedEntry>,
            /// The acceptor's first retained instance; instances strictly
            /// below were trimmed and cannot be replayed.
            log_start: InstanceId,
        },
    }
}

impl RecoveryMsg {
    /// Approximate on-wire size without serializing.
    pub fn wire_size(&self) -> usize {
        match self {
            RecoveryMsg::TrimQuery { .. } => 12,
            RecoveryMsg::TrimReply { .. } => 20,
            RecoveryMsg::Trim { .. } => 12,
            RecoveryMsg::CheckpointQuery { .. } => 12,
            RecoveryMsg::CheckpointInfo { tuple, .. } => 16 + tuple.len() * 10,
            RecoveryMsg::CheckpointFetch { tuple } => 4 + tuple.len() * 10,
            RecoveryMsg::CheckpointData { tuple, state } => 4 + tuple.len() * 10 + state.len(),
            RecoveryMsg::Retransmit { .. } => 20,
            RecoveryMsg::RetransmitReply { decisions, .. } => {
                12 + decisions
                    .iter()
                    .map(|d| 12 + d.value.encoded_len())
                    .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, RequestId};
    use crate::wire::put_varint;
    use bytes::Buf;

    fn rt(msg: Msg) {
        let mut b = msg.to_bytes();
        assert_eq!(Msg::decode(&mut b).unwrap(), msg);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn ring_messages_round_trip() {
        let v = Value::app(NodeId::new(1), 3, Bytes::from_static(b"xyz"));
        rt(Msg::Ring(
            RingId::new(0),
            RingMsg::Proposal {
                value: v.clone(),
                ttl: 2,
            },
        ));
        rt(Msg::Ring(
            RingId::new(1),
            RingMsg::Phase1 {
                ballot: Ballot::new(2, NodeId::new(1)),
                from: InstanceId::new(0),
                to: InstanceId::new(32768),
                promises: 2,
                accepted: vec![AcceptedEntry {
                    inst: InstanceId::new(7),
                    vballot: Ballot::new(1, NodeId::new(2)),
                    value: v.clone(),
                }],
                ttl: 2,
            },
        ));
        rt(Msg::Ring(
            RingId::new(2),
            RingMsg::Phase2 {
                inst: InstanceId::new(10),
                ballot: Ballot::new(1, NodeId::new(1)),
                value: v.clone(),
                votes: 2,
                ttl: 1,
            },
        ));
        rt(Msg::Ring(
            RingId::new(3),
            RingMsg::Decision {
                inst: InstanceId::new(10),
                ballot: Ballot::new(1, NodeId::new(1)),
                id: v.id,
                ttl: 2,
            },
        ));
        rt(Msg::Ring(
            RingId::new(4),
            RingMsg::ValueRequest {
                inst: InstanceId::new(11),
                id: v.id,
            },
        ));
        rt(Msg::Ring(
            RingId::new(4),
            RingMsg::ValueResend {
                inst: InstanceId::new(11),
                ballot: Ballot::new(2, NodeId::new(2)),
                value: v.clone(),
            },
        ));
        rt(Msg::Ring(
            RingId::new(4),
            RingMsg::ValuePush { value: v.clone() },
        ));
        rt(Msg::Ring(
            RingId::new(3),
            RingMsg::Batch(vec![
                RingMsg::Decision {
                    inst: InstanceId::new(10),
                    ballot: Ballot::new(1, NodeId::new(1)),
                    id: v.id,
                    ttl: 2,
                },
                RingMsg::Proposal { value: v, ttl: 1 },
            ]),
        ));
    }

    /// The simulator charges bandwidth via `wire_size()`; it must agree
    /// with the real encoder for every ring message variant.
    #[test]
    fn ring_wire_size_is_exact_for_every_variant() {
        let v = Value::app(NodeId::new(3), 200, Bytes::from(vec![7u8; 300]));
        let entry = AcceptedEntry {
            inst: InstanceId::new(1 << 20),
            vballot: Ballot::new(300, NodeId::new(2)),
            value: v.clone(),
        };
        let variants = vec![
            RingMsg::Proposal {
                value: v.clone(),
                ttl: 300,
            },
            RingMsg::Phase1 {
                ballot: Ballot::new(2, NodeId::new(1)),
                from: InstanceId::new(0),
                to: InstanceId::new(u64::MAX),
                promises: 2,
                accepted: vec![entry.clone(), entry],
                ttl: 2,
            },
            RingMsg::Phase2 {
                inst: InstanceId::new(1 << 30),
                ballot: Ballot::new(1, NodeId::new(1)),
                value: v.clone(),
                votes: 200,
                ttl: 1,
            },
            RingMsg::Decision {
                inst: InstanceId::new(10),
                ballot: Ballot::new(1, NodeId::new(1)),
                id: v.id,
                ttl: 2,
            },
            RingMsg::ValueRequest {
                inst: InstanceId::new(10),
                id: v.id,
            },
            RingMsg::ValueResend {
                inst: InstanceId::new(10),
                ballot: Ballot::ZERO,
                value: Value::skip(NodeId::new(1), 5, 1000),
            },
            RingMsg::Heartbeat { epoch: 1 << 40 },
            RingMsg::ValuePush { value: v.clone() },
        ];
        let batch = RingMsg::Batch(variants.clone());
        for m in variants.into_iter().chain([batch]) {
            assert_eq!(m.encoded_len(), m.to_bytes().len(), "variant {m:?}");
            // And through the Msg envelope.
            let msg = Msg::Ring(RingId::new(9), m);
            assert_eq!(msg.wire_size(), msg.to_bytes().len(), "msg {msg:?}");
        }
    }

    #[test]
    fn client_and_recovery_round_trip() {
        rt(Msg::Client(ClientMsg::RequestV2 {
            session: 3,
            seq: RequestId::new(77),
            ack: 76,
            group: RingId::new(2),
            cmd: Bytes::from_static(b"get k"),
        }));
        rt(Msg::Reply(ClientReply::ResponseV2 {
            session: 3,
            seq: RequestId::new(77),
            from_replica: NodeId::new(9),
            payload: Bytes::from_static(b"=v"),
        }));
        let tuple = CheckpointTuple::new(vec![
            (RingId::new(1), InstanceId::new(100)),
            (RingId::new(0), InstanceId::new(120)),
        ]);
        rt(Msg::Recovery(RecoveryMsg::CheckpointInfo {
            seq: 1,
            replica: NodeId::new(2),
            tuple: tuple.clone(),
        }));
        rt(Msg::Recovery(RecoveryMsg::CheckpointData {
            tuple,
            state: Bytes::from_static(b"statestate"),
        }));
        rt(Msg::Recovery(RecoveryMsg::RetransmitReply {
            ring: RingId::new(0),
            decisions: vec![AcceptedEntry {
                inst: InstanceId::new(1),
                vballot: Ballot::new(1, NodeId::new(1)),
                value: Value::noop(NodeId::new(1), 2),
            }],
            log_start: InstanceId::new(0),
        }));
        rt(Msg::Custom(42, Bytes::from_static(b"baseline")));
    }

    /// A ring id or a ttl of 65 536 is out of range for its `u16`: it
    /// decodes to an error, not to ring 0 (`COORD_RING`) or ttl 0.
    #[test]
    fn narrow_fields_reject_wide_varints() {
        let mut ring = BytesMut::from(&[0u8][..]);
        put_varint(&mut ring, 65_536);
        RingMsg::Heartbeat { epoch: 1 }.encode(&mut ring);
        assert_eq!(
            Msg::decode(&mut ring.freeze()),
            Err(WireError::VarintOverflow)
        );

        let proposal = |ttl: u64| {
            let mut buf = BytesMut::from(&[0u8][..]);
            Value::noop(NodeId::new(1), 1).encode(&mut buf);
            put_varint(&mut buf, ttl);
            RingMsg::decode(&mut buf.freeze())
        };
        assert_eq!(proposal(65_536), Err(WireError::VarintOverflow));
        assert_eq!(
            proposal(65_535),
            Ok(RingMsg::Proposal {
                value: Value::noop(NodeId::new(1), 1),
                ttl: u16::MAX,
            })
        );
    }

    #[test]
    fn tuple_entries_sorted_by_ring() {
        let t = CheckpointTuple::new(vec![
            (RingId::new(3), InstanceId::new(5)),
            (RingId::new(1), InstanceId::new(9)),
        ]);
        let rings: Vec<_> = t.rings().collect();
        assert_eq!(rings, vec![RingId::new(1), RingId::new(3)]);
        assert_eq!(t.get(RingId::new(3)), Some(InstanceId::new(5)));
        assert_eq!(t.get(RingId::new(2)), None);
    }

    #[test]
    fn tuple_partial_order() {
        let a = CheckpointTuple::new(vec![
            (RingId::new(0), InstanceId::new(10)),
            (RingId::new(1), InstanceId::new(5)),
        ]);
        let b = CheckpointTuple::new(vec![
            (RingId::new(0), InstanceId::new(12)),
            (RingId::new(1), InstanceId::new(7)),
        ]);
        assert_eq!(a.partial_cmp_tuple(&b), Some(Ordering::Less));
        assert!(b.dominates(&a));
        assert!(a.dominates(&a));

        // mixed direction => incomparable
        let c = CheckpointTuple::new(vec![
            (RingId::new(0), InstanceId::new(12)),
            (RingId::new(1), InstanceId::new(3)),
        ]);
        assert_eq!(a.partial_cmp_tuple(&c), None);
        assert!(!c.dominates(&a));

        // different ring sets => incomparable
        let d = CheckpointTuple::new(vec![(RingId::new(0), InstanceId::new(12))]);
        assert_eq!(a.partial_cmp_tuple(&d), None);
    }

    #[test]
    fn wire_size_is_close_to_encoded_len() {
        let v = Value::app(NodeId::new(1), 3, Bytes::from(vec![7u8; 1024]));
        let m = Msg::Ring(
            RingId::new(0),
            RingMsg::Phase2 {
                inst: InstanceId::new(10),
                ballot: Ballot::new(1, NodeId::new(1)),
                value: v,
                votes: 2,
                ttl: 1,
            },
        );
        let actual = m.to_bytes().len();
        let approx = m.wire_size();
        assert!(
            (approx as i64 - actual as i64).unsigned_abs() <= 16,
            "approx {approx} too far from actual {actual}"
        );
    }
}
