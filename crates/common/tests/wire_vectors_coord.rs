//! Golden wire vectors for the coordination-service payloads.
//!
//! `ci/wire_vectors_coord.txt` pins the exact byte encoding of every
//! coordination payload shape — bare [`CoordOp`]s (the `cmd` of a
//! protocol-v2 request), [`CoordOk`] results, [`CoordEvent`]s, and whole
//! reply payloads (result, then events). The amcoordd ensemble **persists
//! operations in its WAL**, so this corpus also guards an on-disk format:
//! a changed byte breaks WAL replay across versions.
//!
//! Both directions are asserted, like the client corpus: encoding each
//! payload must produce exactly the recorded bytes, and the recorded
//! bytes must decode back to the payload. If a wire change is
//! *intentional*, regenerate with
//!
//! ```text
//! REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors_coord
//! ```
//!
//! and review the diff like any other interface change. Payloads a
//! released replica can have persisted must never change bytes.

use bytes::Bytes;
use common::ids::{Epoch, NodeId, PartitionId, RingId, SessionId};
use common::wire::coord::{
    decode_reply, encode_reply, CoordEvent, CoordOk, CoordOp, CoordResult, ElectOutcome,
    EphemeralEntry, PartitionWire, RingConfigWire,
};
use common::wire::Wire;

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/wire_vectors_coord.txt"
);

enum Frame {
    Op(CoordOp),
    Ok(CoordOk),
    Event(CoordEvent),
    Reply(CoordResult, Vec<CoordEvent>),
}

impl Frame {
    fn to_bytes(&self) -> Bytes {
        match self {
            Frame::Op(op) => op.to_bytes(),
            Frame::Ok(ok) => ok.to_bytes(),
            Frame::Event(e) => e.to_bytes(),
            Frame::Reply(result, events) => encode_reply(result, events),
        }
    }

    fn decode_and_compare(&self, mut raw: Bytes) -> bool {
        match self {
            Frame::Op(op) => CoordOp::decode(&mut raw).as_ref() == Ok(op) && raw.is_empty(),
            Frame::Ok(ok) => CoordOk::decode(&mut raw).as_ref() == Ok(ok) && raw.is_empty(),
            Frame::Event(e) => CoordEvent::decode(&mut raw).as_ref() == Ok(e) && raw.is_empty(),
            Frame::Reply(result, events) => {
                decode_reply(&raw) == Ok((result.clone(), events.clone()))
            }
        }
    }
}

fn ring_cfg() -> RingConfigWire {
    RingConfigWire {
        ring: RingId::new(2),
        members: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
        acceptors: vec![NodeId::new(1), NodeId::new(2)],
        coordinator: NodeId::new(1),
        epoch: Epoch::new(7),
    }
}

fn partition() -> PartitionWire {
    PartitionWire {
        partition: PartitionId::new(1),
        rings: vec![RingId::new(2), RingId::new(3)],
        replicas: vec![NodeId::new(4), NodeId::new(5)],
    }
}

/// Every frame shape of the protocol. Names are stable keys in the
/// corpus file; add new shapes at the end.
fn vectors() -> Vec<(&'static str, Frame)> {
    vec![
        // ---- requests: one per CoordOp tag, ascending ----
        (
            "op_register_ring",
            Frame::Op(CoordOp::RegisterRing { cfg: ring_cfg() }),
        ),
        (
            "op_ensure_ring",
            Frame::Op(CoordOp::EnsureRing { cfg: ring_cfg() }),
        ),
        (
            "op_get_ring",
            Frame::Op(CoordOp::GetRing {
                ring: RingId::new(2),
            }),
        ),
        ("op_ring_ids", Frame::Op(CoordOp::RingIds)),
        (
            "op_elect_coordinator",
            Frame::Op(CoordOp::ElectCoordinator {
                ring: RingId::new(2),
                candidate: NodeId::new(3),
                seen_epoch: Epoch::new(7),
            }),
        ),
        (
            "op_report_failure",
            Frame::Op(CoordOp::ReportFailure {
                ring: RingId::new(2),
                failed: NodeId::new(1),
                seen_epoch: Epoch::new(7),
            }),
        ),
        (
            "op_rejoin",
            Frame::Op(CoordOp::Rejoin {
                ring: RingId::new(2),
                node: NodeId::new(1),
                as_acceptor: true,
            }),
        ),
        (
            "op_install_config",
            Frame::Op(CoordOp::InstallConfig { cfg: ring_cfg() }),
        ),
        (
            "op_subscribe",
            Frame::Op(CoordOp::Subscribe {
                ring: RingId::new(2),
                node: NodeId::new(4),
            }),
        ),
        (
            "op_subscribers",
            Frame::Op(CoordOp::Subscribers {
                ring: RingId::new(2),
            }),
        ),
        (
            "op_register_partition",
            Frame::Op(CoordOp::RegisterPartition { part: partition() }),
        ),
        (
            "op_ensure_partition",
            Frame::Op(CoordOp::EnsurePartition { part: partition() }),
        ),
        (
            "op_partition_of",
            Frame::Op(CoordOp::PartitionOf {
                replica: NodeId::new(4),
            }),
        ),
        (
            "op_get_partition",
            Frame::Op(CoordOp::GetPartition {
                partition: PartitionId::new(1),
            }),
        ),
        ("op_partitions", Frame::Op(CoordOp::Partitions)),
        (
            "op_set_meta",
            Frame::Op(CoordOp::SetMeta {
                key: "cfg/checkpoint".to_string(),
                value: Bytes::from_static(b"500"),
                expected_version: Some(3),
            }),
        ),
        (
            "op_set_meta_unconditional",
            Frame::Op(CoordOp::SetMeta {
                key: "cfg/checkpoint".to_string(),
                value: Bytes::from_static(b"500"),
                expected_version: None,
            }),
        ),
        (
            "op_get_meta",
            Frame::Op(CoordOp::GetMeta {
                key: "cfg/checkpoint".to_string(),
            }),
        ),
        (
            "op_register_ephemeral",
            Frame::Op(CoordOp::RegisterEphemeral {
                session: SessionId::new(9),
                key: "nodes/3".to_string(),
                value: Bytes::from_static(b"127.0.0.1:7003"),
            }),
        ),
        (
            "op_ephemerals",
            Frame::Op(CoordOp::Ephemerals {
                prefix: "nodes/".to_string(),
            }),
        ),
        ("op_watch_all", Frame::Op(CoordOp::WatchAll)),
        // ---- results: one per CoordOk tag ----
        ("ok_unit", Frame::Ok(CoordOk::Unit)),
        ("ok_ring", Frame::Ok(CoordOk::Ring(Some(ring_cfg())))),
        ("ok_ring_absent", Frame::Ok(CoordOk::Ring(None))),
        (
            "ok_ring_ids",
            Frame::Ok(CoordOk::RingIds(vec![RingId::new(2), RingId::new(3)])),
        ),
        (
            "ok_election_won",
            Frame::Ok(CoordOk::Election(ElectOutcome::Won(Epoch::new(8)))),
        ),
        (
            "ok_election_lost",
            Frame::Ok(CoordOk::Election(ElectOutcome::Lost(ring_cfg()))),
        ),
        ("ok_config", Frame::Ok(CoordOk::Config(ring_cfg()))),
        (
            "ok_nodes",
            Frame::Ok(CoordOk::Nodes(vec![NodeId::new(4), NodeId::new(5)])),
        ),
        (
            "ok_partition_of",
            Frame::Ok(CoordOk::PartitionOf(Some(PartitionId::new(1)))),
        ),
        (
            "ok_partition",
            Frame::Ok(CoordOk::Partition(Some(partition()))),
        ),
        (
            "ok_partitions",
            Frame::Ok(CoordOk::Partitions(vec![partition()])),
        ),
        (
            "ok_meta",
            Frame::Ok(CoordOk::Meta(Some((3, Bytes::from_static(b"500"))))),
        ),
        ("ok_meta_absent", Frame::Ok(CoordOk::Meta(None))),
        ("ok_version", Frame::Ok(CoordOk::Version(4))),
        (
            "ok_ephemerals",
            Frame::Ok(CoordOk::Ephemerals(vec![EphemeralEntry {
                key: "nodes/3".to_string(),
                session: SessionId::new(9),
                value: Bytes::from_static(b"127.0.0.1:7003"),
            }])),
        ),
        (
            "reply_err",
            Frame::Reply(Err("ring 2 already registered".to_string()), Vec::new()),
        ),
        (
            "event_ring_changed",
            Frame::Event(CoordEvent::RingChanged { cfg: ring_cfg() }),
        ),
        (
            "event_subscribers_changed",
            Frame::Event(CoordEvent::SubscribersChanged {
                ring: RingId::new(2),
                subscribers: vec![NodeId::new(4)],
            }),
        ),
        (
            "event_partitions_changed",
            Frame::Event(CoordEvent::PartitionsChanged),
        ),
        (
            "event_meta_changed",
            Frame::Event(CoordEvent::MetaChanged {
                key: "cfg/checkpoint".to_string(),
                version: 4,
            }),
        ),
        (
            "reply_ok_with_events",
            Frame::Reply(
                Ok(CoordOk::Version(4)),
                vec![CoordEvent::MetaChanged {
                    key: "cfg/checkpoint".to_string(),
                    version: 4,
                }],
            ),
        ),
    ]
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[test]
fn coord_frames_match_golden_vectors() {
    let vectors = vectors();
    if std::env::var_os("REGEN_WIRE_VECTORS").is_some() {
        let mut out = String::from(
            "# Golden wire vectors: coordination-service payloads, hex-encoded.\n\
             # Checked by crates/common/tests/wire_vectors_coord.rs; regenerate with\n\
             #   REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors_coord\n",
        );
        for (name, frame) in &vectors {
            out.push_str(&format!("{name} {}\n", hex(&frame.to_bytes())));
        }
        std::fs::write(CORPUS, out).expect("write corpus");
        return;
    }

    let corpus = std::fs::read_to_string(CORPUS)
        .expect("ci/wire_vectors_coord.txt present (run with REGEN_WIRE_VECTORS=1 to create)");
    let mut recorded = std::collections::BTreeMap::new();
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').expect("corpus line: <name> <hex>");
        recorded.insert(name.to_string(), hex.trim().to_string());
    }

    for (name, frame) in &vectors {
        let golden = recorded
            .remove(*name)
            .unwrap_or_else(|| panic!("corpus is missing vector {name}; regenerate"));
        let bytes = frame.to_bytes();
        assert_eq!(
            hex(&bytes),
            golden,
            "frame {name} no longer encodes to its golden bytes — \
             this is a wire compatibility break"
        );
        let raw = Bytes::from(unhex(&golden).expect("corpus hex decodes"));
        assert!(
            frame.decode_and_compare(raw),
            "golden bytes for {name} no longer decode to the same frame"
        );
    }
    assert!(
        recorded.is_empty(),
        "corpus has vectors with no matching frame (renamed or deleted?): {:?}",
        recorded.keys().collect::<Vec<_>>()
    );
}
