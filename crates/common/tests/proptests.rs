//! Property tests for the wire codec and checkpoint-tuple order.

use bytes::{Buf, Bytes};
use common::ids::{Ballot, ClientId, InstanceId, NodeId, PartitionId, RequestId, RingId};
use common::msg::{AcceptedEntry, CheckpointTuple, Msg, RecoveryMsg, RingMsg};
use common::value::{Envelope, Payload, Value, ValueId, ValueKind};
use common::wire::client::{ClientMsg, ClientReply};
use common::wire::coord::{decode_reply, CoordOp};
use common::wire::{self as wire, frame, get_varint, put_varint, varint_len, Wire};
use proptest::prelude::*;

/// Whether `encoded_len` agrees with the bytes `encode` writes.
fn len_exact<T: Wire>(v: &T) -> bool {
    v.encoded_len() == v.to_bytes().len()
}

fn arb_value() -> impl Strategy<Value = Value> {
    (
        any::<u32>(),
        any::<u64>(),
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..512).prop_map(|v| ValueKind::App(v.into())),
            Just(ValueKind::Noop),
            any::<u32>().prop_map(ValueKind::Skip),
        ],
    )
        .prop_map(|(node, seq, kind)| Value {
            id: ValueId::new(NodeId::new(node), seq),
            kind,
        })
}

fn arb_ballot() -> impl Strategy<Value = Ballot> {
    prop_oneof![
        Just(Ballot::ZERO),
        (1u32..1_000_000, any::<u32>()).prop_map(|(r, n)| Ballot::new(r, NodeId::new(n))),
    ]
}

fn arb_accepted() -> impl Strategy<Value = AcceptedEntry> {
    (any::<u64>(), arb_ballot(), arb_value()).prop_map(|(inst, vballot, value)| AcceptedEntry {
        inst: InstanceId::new(inst),
        vballot,
        value,
    })
}

fn arb_ring_msg() -> impl Strategy<Value = RingMsg> {
    let leaf = prop_oneof![
        (arb_value(), any::<u16>()).prop_map(|(value, ttl)| RingMsg::Proposal { value, ttl }),
        (
            arb_ballot(),
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            proptest::collection::vec(arb_accepted(), 0..4),
            any::<u16>()
        )
            .prop_map(|(ballot, from, to, promises, accepted, ttl)| {
                RingMsg::Phase1 {
                    ballot,
                    from: InstanceId::new(from),
                    to: InstanceId::new(to),
                    promises,
                    accepted,
                    ttl,
                }
            }),
        (
            any::<u64>(),
            arb_ballot(),
            arb_value(),
            any::<u16>(),
            any::<u16>()
        )
            .prop_map(|(inst, ballot, value, votes, ttl)| RingMsg::Phase2 {
                inst: InstanceId::new(inst),
                ballot,
                value,
                votes,
                ttl,
            }),
        (
            any::<u64>(),
            arb_ballot(),
            any::<u32>(),
            any::<u64>(),
            any::<u16>()
        )
            .prop_map(|(inst, ballot, node, seq, ttl)| RingMsg::Decision {
                inst: InstanceId::new(inst),
                ballot,
                id: ValueId::new(NodeId::new(node), seq),
                ttl,
            }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(inst, node, seq)| {
            RingMsg::ValueRequest {
                inst: InstanceId::new(inst),
                id: ValueId::new(NodeId::new(node), seq),
            }
        }),
        (any::<u64>(), arb_ballot(), arb_value()).prop_map(|(inst, ballot, value)| {
            RingMsg::ValueResend {
                inst: InstanceId::new(inst),
                ballot,
                value,
            }
        }),
    ];
    prop_oneof![
        leaf.clone(),
        proptest::collection::vec(leaf, 0..5).prop_map(RingMsg::Batch),
    ]
}

fn arb_tuple() -> impl Strategy<Value = CheckpointTuple> {
    proptest::collection::vec((any::<u16>(), any::<u64>()), 0..6).prop_map(|entries| {
        CheckpointTuple::new(
            entries
                .into_iter()
                .map(|(r, i)| (RingId::new(r), InstanceId::new(i)))
                .collect(),
        )
    })
}

fn arb_recovery() -> impl Strategy<Value = RecoveryMsg> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(r, s)| RecoveryMsg::TrimQuery {
            ring: RingId::new(r),
            seq: s
        }),
        (any::<u16>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(r, s, i, n)| {
            RecoveryMsg::TrimReply {
                ring: RingId::new(r),
                seq: s,
                safe: InstanceId::new(i),
                replica: NodeId::new(n),
            }
        }),
        (any::<u16>(), any::<u64>()).prop_map(|(r, i)| RecoveryMsg::Trim {
            ring: RingId::new(r),
            upto: InstanceId::new(i)
        }),
        (any::<u16>(), any::<u64>()).prop_map(|(p, s)| RecoveryMsg::CheckpointQuery {
            partition: PartitionId::new(p),
            seq: s
        }),
        (any::<u64>(), any::<u32>(), arb_tuple()).prop_map(|(seq, n, tuple)| {
            RecoveryMsg::CheckpointInfo {
                seq,
                replica: NodeId::new(n),
                tuple,
            }
        }),
        arb_tuple().prop_map(|tuple| RecoveryMsg::CheckpointFetch { tuple }),
        (arb_tuple(), proptest::collection::vec(any::<u8>(), 0..256)).prop_map(|(tuple, state)| {
            RecoveryMsg::CheckpointData {
                tuple,
                state: state.into(),
            }
        }),
        (any::<u16>(), any::<u64>(), any::<u64>()).prop_map(|(r, a, b)| RecoveryMsg::Retransmit {
            ring: RingId::new(r),
            from: InstanceId::new(a),
            to: InstanceId::new(b),
        }),
        (
            any::<u16>(),
            proptest::collection::vec(arb_accepted(), 0..4),
            any::<u64>()
        )
            .prop_map(|(r, decisions, t)| RecoveryMsg::RetransmitReply {
                ring: RingId::new(r),
                decisions,
                log_start: InstanceId::new(t),
            }),
    ]
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u16>(), arb_ring_msg()).prop_map(|(r, m)| Msg::Ring(RingId::new(r), m)),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(s, q, a, g, cmd)| Msg::Client(ClientMsg::RequestV2 {
                session: s,
                seq: RequestId::new(q),
                ack: a,
                group: RingId::new(g),
                cmd: cmd.into(),
            })),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(s, q, n, p)| Msg::Reply(ClientReply::ResponseV2 {
                session: s,
                seq: RequestId::new(q),
                from_replica: NodeId::new(n),
                payload: p.into(),
            })),
        arb_recovery().prop_map(Msg::Recovery),
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..128))
            .prop_map(|(t, b)| Msg::Custom(t, b.into())),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(c, q, n, session, ack, trace, cmd)| Envelope {
            client: ClientId::new(c),
            req: RequestId::new(q),
            reply_to: NodeId::new(n),
            session,
            ack,
            trace,
            cmd: cmd.into(),
        })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        arb_envelope().prop_map(Payload::One),
        proptest::collection::vec(arb_envelope(), 0..8).prop_map(Payload::Batch),
    ]
}

fn arb_client_wire_msg() -> impl Strategy<Value = wire::client::ClientMsg> {
    prop_oneof![
        any::<u64>().prop_map(|token| wire::client::ClientMsg::Ping { token }),
        (any::<u32>(), any::<u64>()).prop_map(|(c, f)| wire::client::ClientMsg::HelloV2 {
            client: ClientId::new(c),
            features: f,
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(
                |(session, seq, ack, g, cmd)| wire::client::ClientMsg::RequestV2 {
                    session,
                    seq: RequestId::new(seq),
                    ack,
                    group: RingId::new(g),
                    cmd: cmd.into(),
                }
            ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(
                |(session, seq, ack, g, cmd)| wire::client::ClientMsg::RequestHere {
                    session,
                    seq: RequestId::new(seq),
                    ack,
                    group: RingId::new(g),
                    cmd: cmd.into(),
                }
            ),
    ]
}

fn arb_client_wire_reply() -> impl Strategy<Value = wire::client::ClientReply> {
    prop_oneof![
        any::<u64>().prop_map(|token| wire::client::ClientReply::Pong { token }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(n, f, w)| {
            wire::client::ClientReply::WelcomeV2 {
                node: NodeId::new(n),
                features: f,
                window: w,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(
                |(session, seq, n, payload)| wire::client::ClientReply::ResponseV2 {
                    session,
                    seq: RequestId::new(seq),
                    from_replica: NodeId::new(n),
                    payload: payload.into(),
                }
            ),
        (any::<u64>(), any::<u16>(), any::<u32>()).prop_map(|(seq, g, n)| {
            wire::client::ClientReply::Redirect {
                seq: RequestId::new(seq),
                group: RingId::new(g),
                to: NodeId::new(n),
            }
        }),
        any::<u32>().prop_map(|w| wire::client::ClientReply::CreditGrant { window: w }),
    ]
}

proptest! {
    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = bytes::BytesMut::new();
        put_varint(&mut buf, v);
        prop_assert_eq!(buf.len(), varint_len(v));
        let mut bytes = buf.freeze();
        prop_assert_eq!(get_varint(&mut bytes).unwrap(), v);
        prop_assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn msg_round_trips(msg in arb_msg()) {
        let mut bytes = msg.to_bytes();
        let back = Msg::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn value_encoded_len_exact(v in arb_value()) {
        prop_assert_eq!(v.encoded_len(), v.to_bytes().len());
    }

    #[test]
    fn ring_wire_size_exact(
        m in arb_ring_msg(),
        msg in arb_msg(),
        ballot in arb_ballot(),
        entry in arb_accepted(),
        tuple in arb_tuple(),
        recovery in arb_recovery(),
        payload in arb_payload(),
        client in arb_client_wire_msg(),
        reply in arb_client_wire_reply(),
    ) {
        // Every length computation (the simulator's bandwidth model, the
        // transports' wire tallies) must agree with the encoder.
        prop_assert!(len_exact(&m));
        prop_assert!(len_exact(&msg));
        prop_assert!(len_exact(&ballot));
        prop_assert!(len_exact(&entry));
        prop_assert!(len_exact(&tuple));
        prop_assert!(len_exact(&recovery));
        prop_assert!(len_exact(&payload));
        prop_assert!(len_exact(&client));
        prop_assert!(len_exact(&reply));
        if matches!(msg, Msg::Ring(..) | Msg::Client(_) | Msg::Reply(_)) {
            prop_assert_eq!(msg.wire_size(), msg.encoded_len());
        }
    }

    #[test]
    fn envelope_round_trips(
        c in any::<u32>(), q in any::<u64>(), n in any::<u32>(),
        session in any::<u64>(), ack in any::<u64>(), trace in any::<u64>(),
        cmd in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let e = Envelope {
            client: ClientId::new(c),
            req: RequestId::new(q),
            reply_to: NodeId::new(n),
            session,
            ack,
            trace,
            cmd: cmd.into(),
        };
        let mut b = e.to_bytes();
        prop_assert_eq!(Envelope::decode(&mut b).unwrap(), e);
    }

    #[test]
    fn decoder_never_panics_on_garbage(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Decoding arbitrary bytes must fail gracefully, never panic.
        let garbage = Bytes::from(garbage);
        let _ = Msg::decode(&mut garbage.clone());
        let _ = CoordOp::decode(&mut garbage.clone());
        let _ = decode_reply(&garbage);
    }

    #[test]
    fn frames_survive_arbitrary_split(
        msgs in proptest::collection::vec(arb_msg(), 1..5),
        split in any::<u16>(),
    ) {
        let mut wire = bytes::BytesMut::new();
        for m in &msgs {
            frame::write(&mut wire, m);
        }
        let wire = wire.freeze();
        let cut = (split as usize) % (wire.len() + 1);

        let mut rx = bytes::BytesMut::new();
        let mut got = Vec::new();
        for chunk in [&wire[..cut], &wire[cut..]] {
            rx.extend_from_slice(chunk);
            while let Some(m) = frame::try_read::<Msg>(&mut rx).unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn tuple_partial_order_is_antisymmetric(a in arb_tuple(), b in arb_tuple()) {
        use std::cmp::Ordering;
        match (a.partial_cmp_tuple(&b), b.partial_cmp_tuple(&a)) {
            (Some(Ordering::Less), x) => prop_assert_eq!(x, Some(Ordering::Greater)),
            (Some(Ordering::Greater), x) => prop_assert_eq!(x, Some(Ordering::Less)),
            (Some(Ordering::Equal), x) => prop_assert_eq!(x, Some(Ordering::Equal)),
            (None, x) => prop_assert_eq!(x, None),
        }
    }

    #[test]
    fn tuple_dominates_is_reflexive_and_consistent(a in arb_tuple()) {
        prop_assert!(a.dominates(&a));
    }

    #[test]
    fn client_wire_msg_round_trips(msg in arb_client_wire_msg()) {
        let mut bytes = msg.to_bytes();
        let back = wire::client::ClientMsg::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn client_wire_reply_round_trips(reply in arb_client_wire_reply()) {
        let mut bytes = reply.to_bytes();
        let back = wire::client::ClientReply::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, reply);
        prop_assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn payload_round_trips(p in arb_payload()) {
        let mut bytes = p.to_bytes();
        let back = Payload::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, p);
        prop_assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn client_wire_decoder_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut a = Bytes::from(garbage.clone());
        let _ = wire::client::ClientMsg::decode(&mut a);
        let mut b = Bytes::from(garbage);
        let _ = wire::client::ClientReply::decode(&mut b);
    }
}
