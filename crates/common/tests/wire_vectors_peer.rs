//! Golden wire vectors for the peer and log frames.
//!
//! `ci/wire_vectors_peer.txt` pins the exact bytes of every frame that
//! replicas exchange ([`Msg`] with every [`RingMsg`] and [`RecoveryMsg`]
//! shape, [`PeerFrame`]) and of the values acceptors log before they
//! answer ([`Value`] of each kind, [`Envelope`], [`Payload`],
//! [`AcceptedEntry`], [`CheckpointTuple`]). A changed byte is a break
//! between replicas of different builds and of logs written by an older
//! build, so both directions are asserted. If a change is intentional,
//! regenerate with
//!
//! ```text
//! REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors_peer
//! ```
//!
//! and review the diff like any other interface change.

mod golden;

use bytes::Bytes;
use common::ids::{Ballot, ClientId, InstanceId, NodeId, PartitionId, RequestId, RingId};
use common::msg::{AcceptedEntry, CheckpointTuple, Msg, RecoveryMsg, RingMsg};
use common::transport::PeerFrame;
use common::value::{Envelope, Payload, Value, SESSION_CTL};
use common::wire::client::{ClientMsg, ClientReply};
use golden::{vector, Vector};

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/wire_vectors_peer.txt"
);

fn app() -> Value {
    Value::app(NodeId::new(200), 70_000, Bytes::from_static(b"cmd"))
}

fn entry() -> AcceptedEntry {
    AcceptedEntry {
        inst: InstanceId::new(1 << 20),
        vballot: Ballot::new(300, NodeId::new(2)),
        value: app(),
    }
}

fn tuple() -> CheckpointTuple {
    CheckpointTuple::new(vec![
        (RingId::new(300), InstanceId::new(9)),
        (RingId::new(1), InstanceId::new(1 << 30)),
    ])
}

fn envelope() -> Envelope {
    Envelope {
        client: ClientId::new(77),
        req: RequestId::new(130),
        reply_to: NodeId::new(3),
        session: 9,
        ack: 127,
        trace: 1_700_000_000_000_000_000,
        cmd: Bytes::from_static(b"add k 1"),
    }
}

fn ring(name: &'static str, m: RingMsg) -> Vector {
    vector(name, Msg::Ring(RingId::new(300), m))
}

fn recovery(name: &'static str, m: RecoveryMsg) -> Vector {
    vector(name, Msg::Recovery(m))
}

/// Every frame shape; names are stable keys in the corpus, add new
/// shapes at the end.
fn vectors() -> Vec<Vector> {
    let decision = RingMsg::Decision {
        inst: InstanceId::new(10),
        ballot: Ballot::new(1, NodeId::new(1)),
        id: app().id,
        ttl: 2,
    };
    vec![
        // ---- Ring Paxos (Msg tag 0) ----
        ring(
            "ring_proposal",
            RingMsg::Proposal {
                value: app(),
                ttl: 300,
            },
        ),
        ring(
            "ring_phase1",
            RingMsg::Phase1 {
                ballot: Ballot::new(2, NodeId::new(1)),
                from: InstanceId::new(0),
                to: InstanceId::new(32_768),
                promises: 2,
                accepted: vec![entry()],
                ttl: 2,
            },
        ),
        ring(
            "ring_phase2",
            RingMsg::Phase2 {
                inst: InstanceId::new(1 << 30),
                ballot: Ballot::new(1, NodeId::new(1)),
                value: app(),
                votes: 200,
                ttl: 1,
            },
        ),
        ring("ring_decision", decision.clone()),
        ring(
            "ring_batch",
            RingMsg::Batch(vec![
                decision,
                RingMsg::Proposal {
                    value: Value::noop(NodeId::new(1), 2),
                    ttl: 1,
                },
            ]),
        ),
        ring("ring_heartbeat", RingMsg::Heartbeat { epoch: 1 << 40 }),
        ring(
            "ring_value_request",
            RingMsg::ValueRequest {
                inst: InstanceId::new(11),
                id: app().id,
            },
        ),
        ring(
            "ring_value_resend",
            RingMsg::ValueResend {
                inst: InstanceId::new(11),
                ballot: Ballot::ZERO,
                value: Value::skip(NodeId::new(1), 5, 1000),
            },
        ),
        ring("ring_value_push", RingMsg::ValuePush { value: app() }),
        // ---- client traffic (Msg tags 1 and 4) ----
        vector(
            "msg_client",
            Msg::Client(ClientMsg::RequestV2 {
                session: 3,
                seq: RequestId::new(77),
                ack: 76,
                group: RingId::new(2),
                cmd: Bytes::from_static(b"get k"),
            }),
        ),
        vector(
            "msg_reply",
            Msg::Reply(ClientReply::ResponseV2 {
                session: 3,
                seq: RequestId::new(77),
                from_replica: NodeId::new(9),
                payload: Bytes::from_static(b"\x00=v"),
            }),
        ),
        // ---- recovery (Msg tag 2) ----
        recovery(
            "recovery_trim_query",
            RecoveryMsg::TrimQuery {
                ring: RingId::new(300),
                seq: 5,
            },
        ),
        recovery(
            "recovery_trim_reply",
            RecoveryMsg::TrimReply {
                ring: RingId::new(1),
                seq: 5,
                safe: InstanceId::new(4096),
                replica: NodeId::new(2),
            },
        ),
        recovery(
            "recovery_trim",
            RecoveryMsg::Trim {
                ring: RingId::new(1),
                upto: InstanceId::new(4000),
            },
        ),
        recovery(
            "recovery_checkpoint_query",
            RecoveryMsg::CheckpointQuery {
                partition: PartitionId::new(300),
                seq: 6,
            },
        ),
        recovery(
            "recovery_checkpoint_info",
            RecoveryMsg::CheckpointInfo {
                seq: 6,
                replica: NodeId::new(4),
                tuple: tuple(),
            },
        ),
        recovery(
            "recovery_checkpoint_fetch",
            RecoveryMsg::CheckpointFetch { tuple: tuple() },
        ),
        recovery(
            "recovery_checkpoint_data",
            RecoveryMsg::CheckpointData {
                tuple: tuple(),
                state: Bytes::from_static(b"state"),
            },
        ),
        recovery(
            "recovery_retransmit",
            RecoveryMsg::Retransmit {
                ring: RingId::new(1),
                from: InstanceId::new(100),
                to: InstanceId::new(228),
            },
        ),
        recovery(
            "recovery_retransmit_reply",
            RecoveryMsg::RetransmitReply {
                ring: RingId::new(1),
                decisions: vec![entry()],
                log_start: InstanceId::new(64),
            },
        ),
        // ---- baseline payloads (Msg tag 3) ----
        vector(
            "msg_custom",
            Msg::Custom(300, Bytes::from_static(b"baseline")),
        ),
        // ---- the peer connection's frame ----
        vector(
            "peer_frame",
            PeerFrame {
                from: NodeId::new(5),
                msg: Msg::Ring(RingId::new(0), RingMsg::Heartbeat { epoch: 3 }),
            },
        ),
        // ---- logged values ----
        vector("accepted_entry", entry()),
        vector("checkpoint_tuple", tuple()),
        vector("checkpoint_tuple_empty", CheckpointTuple::default()),
        vector("value_app", app()),
        vector("value_noop", Value::noop(NodeId::new(2), 9)),
        vector("value_skip", Value::skip(NodeId::new(3), 11, u32::MAX)),
        vector("envelope", envelope()),
        vector(
            "envelope_v1",
            Envelope::v1(
                ClientId::new(1),
                RequestId::new(2),
                NodeId::new(3),
                Bytes::from_static(b"put k v"),
            ),
        ),
        vector(
            "envelope_session_ctl",
            Envelope {
                session: SESSION_CTL,
                ..envelope()
            },
        ),
        vector("payload_one", Payload::One(envelope())),
        vector(
            "payload_batch",
            Payload::Batch(vec![envelope(), envelope()]),
        ),
    ]
}

#[test]
fn peer_frames_match_golden_vectors() {
    golden::check(
        CORPUS,
        "# Golden wire vectors: peer frames and logged values, hex-encoded.\n\
         # Checked by crates/common/tests/wire_vectors_peer.rs; regenerate with\n\
         #   REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors_peer\n\
         # A changed line breaks replicas and logs of older builds.\n",
        vectors(),
    );
}
