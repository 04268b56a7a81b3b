//! Property tests for the coordination state machine's snapshot codec:
//! a `CoordState` grown by an arbitrary operation sequence must round-trip
//! through `snapshot`/`decode_snapshot` bit-exactly — the invariant
//! `amcoordd` restart-in-place recovery (checkpoints + peer catch-up)
//! stands on.

use bytes::Bytes;
use common::ids::{Epoch, NodeId, PartitionId, RingId, SessionId};
use common::wire::coord::{CoordOp, PartitionWire, RingConfigWire};
use coord::CoordState;
use proptest::prelude::*;

/// A generator-friendly subset of [`CoordOp`] (reads are stateless, so
/// only mutators matter for growing interesting states).
#[derive(Clone, Debug)]
enum GenOp {
    /// A session's removal (not a `CoordOp`: the session table above the
    /// state calls `drop_session`).
    DropSession {
        session: u64,
    },
    EnsureRing {
        ring: u16,
        members: u8,
    },
    ElectCoordinator {
        ring: u16,
        candidate: u32,
        epoch: u64,
    },
    ReportFailure {
        ring: u16,
        failed: u32,
        epoch: u64,
    },
    Rejoin {
        ring: u16,
        node: u32,
    },
    EnsurePartition {
        partition: u16,
        ring: u16,
        replicas: u8,
    },
    SetMeta {
        key: u8,
        value: u8,
        cas: Option<u64>,
    },
    RegisterEphemeral {
        session: u64,
        key: u8,
        value: u8,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<GenOp>> {
    proptest::collection::vec(
        prop_oneof![
            1 => (0u64..8).prop_map(|session| GenOp::DropSession { session }),
            3 => (0u16..4, 1u8..5).prop_map(|(ring, members)| GenOp::EnsureRing { ring, members }),
            2 => (0u16..4, 0u32..5, 1u64..4)
                .prop_map(|(ring, candidate, epoch)| GenOp::ElectCoordinator { ring, candidate, epoch }),
            1 => (0u16..4, 0u32..5, 1u64..4)
                .prop_map(|(ring, failed, epoch)| GenOp::ReportFailure { ring, failed, epoch }),
            1 => (0u16..4, 0u32..6).prop_map(|(ring, node)| GenOp::Rejoin { ring, node }),
            2 => (0u16..3, 0u16..4, 1u8..4)
                .prop_map(|(partition, ring, replicas)| GenOp::EnsurePartition { partition, ring, replicas }),
            3 => (0u8..6, any::<u8>(), 0u64..4)
                .prop_map(|(key, value, cas)| GenOp::SetMeta {
                    key,
                    value,
                    cas: cas.checked_sub(1), // 0 → unconditional write
                }),
            2 => (0u64..8, 0u8..6, any::<u8>())
                .prop_map(|(session, key, value)| GenOp::RegisterEphemeral { session, key, value }),
        ],
        0..80,
    )
}

fn ring_wire(ring: u16, members: u8) -> RingConfigWire {
    let members: Vec<NodeId> = (0..u32::from(members)).map(NodeId::new).collect();
    RingConfigWire {
        ring: RingId::new(ring),
        members: members.clone(),
        acceptors: members,
        coordinator: NodeId::new(0),
        epoch: Epoch::new(1),
    }
}

/// Applies `ops` to a fresh state (refusals included).
fn grow(ops: &[GenOp]) -> CoordState {
    let mut state = CoordState::new();
    for op in ops {
        match *op {
            GenOp::DropSession { session } => state.drop_session(SessionId::new(session)),
            _ => drop(state.apply(&to_op(op))),
        }
    }
    state
}

fn to_op(op: &GenOp) -> CoordOp {
    match *op {
        GenOp::DropSession { .. } => unreachable!("not an operation"),
        GenOp::EnsureRing { ring, members } => CoordOp::EnsureRing {
            cfg: ring_wire(ring, members),
        },
        GenOp::ElectCoordinator {
            ring,
            candidate,
            epoch,
        } => CoordOp::ElectCoordinator {
            ring: RingId::new(ring),
            candidate: NodeId::new(candidate),
            seen_epoch: Epoch::new(epoch),
        },
        GenOp::ReportFailure {
            ring,
            failed,
            epoch,
        } => CoordOp::ReportFailure {
            ring: RingId::new(ring),
            failed: NodeId::new(failed),
            seen_epoch: Epoch::new(epoch),
        },
        GenOp::Rejoin { ring, node } => CoordOp::Rejoin {
            ring: RingId::new(ring),
            node: NodeId::new(node),
            as_acceptor: node % 2 == 0,
        },
        GenOp::EnsurePartition {
            partition,
            ring,
            replicas,
        } => CoordOp::EnsurePartition {
            part: PartitionWire {
                partition: PartitionId::new(partition),
                rings: vec![RingId::new(ring)],
                // Offset per partition so replica sets never overlap (a
                // replica in two partitions is refused anyway).
                replicas: (0..u32::from(replicas))
                    .map(|i| NodeId::new(100 + u32::from(partition) * 10 + i))
                    .collect(),
            },
        },
        GenOp::SetMeta { key, value, cas } => CoordOp::SetMeta {
            key: format!("meta/{key}"),
            value: Bytes::from(vec![value; usize::from(value % 17)]),
            expected_version: cas,
        },
        GenOp::RegisterEphemeral {
            session,
            key,
            value,
        } => CoordOp::RegisterEphemeral {
            session: SessionId::new(session),
            key: format!("nodes/{key}"),
            value: Bytes::from(vec![value; 4]),
        },
    }
}

proptest! {
    /// Grow a state from an arbitrary op sequence (refusals included —
    /// they exercise the CAS/validation paths without mutating), then
    /// require decode(encode(state)) == state and a *byte-identical*
    /// re-encoding (determinism: equal states must snapshot equally on
    /// every replica).
    #[test]
    fn snapshot_round_trips(ops in arb_ops()) {
        let state = grow(&ops);
        let encoded = state.snapshot();
        let restored = CoordState::decode_snapshot(&mut encoded.clone())
            .expect("snapshot decodes");
        prop_assert_eq!(&restored, &state, "decoded state diverges");
        prop_assert_eq!(restored.snapshot(), encoded, "re-encoding not canonical");
    }

    /// A truncated snapshot must fail to decode (never silently yield a
    /// partial state).
    #[test]
    fn truncated_snapshot_is_rejected(ops in arb_ops(), cut in 0.0f64..1.0) {
        let state = grow(&ops);
        let encoded = state.snapshot();
        let keep = ((encoded.len() as f64) * cut) as usize;
        if keep < encoded.len() {
            let mut short = encoded.slice(..keep);
            if let Ok(partial) = CoordState::decode_snapshot(&mut short) {
                // The only prefix allowed to decode is one that encodes
                // the identical state (trailing empty containers).
                prop_assert_eq!(partial, state);
            }
        }
    }
}
