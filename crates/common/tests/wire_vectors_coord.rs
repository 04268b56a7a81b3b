//! Golden wire vectors for the coordination-service protocol.
//!
//! `ci/wire_vectors_coord.txt` pins the exact byte encoding of every
//! coord-protocol frame shape — [`CoordMsg`] requests and [`CoordReply`]
//! responses/events. The amcoordd ensemble **persists operations in its
//! WAL**, so this corpus also guards an on-disk format: a changed byte
//! breaks WAL replay across versions.
//!
//! Both directions are asserted, like the client corpus: encoding each
//! frame must produce exactly the recorded bytes, and the recorded bytes
//! must decode back to the frame. If a wire change is *intentional*,
//! regenerate with
//!
//! ```text
//! REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors_coord
//! ```
//!
//! and review the diff like any other interface change. Frames a
//! released replica can have persisted must never change bytes.

use bytes::Bytes;
use common::ids::{Epoch, NodeId, PartitionId, RingId, SessionId};
use common::wire::coord::{
    CoordEvent, CoordMsg, CoordOk, CoordOp, CoordReply, ElectOutcome, EphemeralEntry,
    PartitionWire, RingConfigWire,
};
use common::wire::Wire;

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/wire_vectors_coord.txt"
);

enum Frame {
    Msg(CoordMsg),
    Reply(CoordReply),
}

impl Frame {
    fn to_bytes(&self) -> Bytes {
        match self {
            Frame::Msg(m) => m.to_bytes(),
            Frame::Reply(r) => r.to_bytes(),
        }
    }

    fn decode_and_compare(&self, mut raw: Bytes) -> bool {
        match self {
            Frame::Msg(m) => CoordMsg::decode(&mut raw).as_ref() == Ok(m) && raw.is_empty(),
            Frame::Reply(r) => CoordReply::decode(&mut raw).as_ref() == Ok(r) && raw.is_empty(),
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
    use Frame::{Msg, Reply};
    let msg = |req, op| Msg(CoordMsg { req, op });
    vec![
        // ---- requests: one per CoordOp tag, ascending ----
        (
            "op_open_session",
            msg(1, CoordOp::OpenSession { ttl_ms: 3000 }),
        ),
        (
            "op_keep_alive",
            msg(
                2,
                CoordOp::KeepAlive {
                    session: SessionId::new(9),
                },
            ),
        ),
        (
            "op_close_session",
            msg(
                3,
                CoordOp::CloseSession {
                    session: SessionId::new(9),
                },
            ),
        ),
        (
            "op_expire_session",
            msg(
                4,
                CoordOp::ExpireSession {
                    session: SessionId::new(9),
                    seen_refresh: 130,
                },
            ),
        ),
        (
            "op_register_ring",
            msg(5, CoordOp::RegisterRing { cfg: ring_cfg() }),
        ),
        (
            "op_ensure_ring",
            msg(6, CoordOp::EnsureRing { cfg: ring_cfg() }),
        ),
        (
            "op_get_ring",
            msg(
                7,
                CoordOp::GetRing {
                    ring: RingId::new(2),
                },
            ),
        ),
        ("op_ring_ids", msg(8, CoordOp::RingIds)),
        (
            "op_elect_coordinator",
            msg(
                9,
                CoordOp::ElectCoordinator {
                    ring: RingId::new(2),
                    candidate: NodeId::new(3),
                    seen_epoch: Epoch::new(7),
                },
            ),
        ),
        (
            "op_report_failure",
            msg(
                10,
                CoordOp::ReportFailure {
                    ring: RingId::new(2),
                    failed: NodeId::new(1),
                    seen_epoch: Epoch::new(7),
                },
            ),
        ),
        (
            "op_rejoin",
            msg(
                11,
                CoordOp::Rejoin {
                    ring: RingId::new(2),
                    node: NodeId::new(1),
                    as_acceptor: true,
                },
            ),
        ),
        (
            "op_install_config",
            msg(12, CoordOp::InstallConfig { cfg: ring_cfg() }),
        ),
        (
            "op_subscribe",
            msg(
                13,
                CoordOp::Subscribe {
                    ring: RingId::new(2),
                    node: NodeId::new(4),
                },
            ),
        ),
        (
            "op_subscribers",
            msg(
                14,
                CoordOp::Subscribers {
                    ring: RingId::new(2),
                },
            ),
        ),
        (
            "op_register_partition",
            msg(15, CoordOp::RegisterPartition { part: partition() }),
        ),
        (
            "op_ensure_partition",
            msg(16, CoordOp::EnsurePartition { part: partition() }),
        ),
        (
            "op_partition_of",
            msg(
                17,
                CoordOp::PartitionOf {
                    replica: NodeId::new(4),
                },
            ),
        ),
        (
            "op_get_partition",
            msg(
                18,
                CoordOp::GetPartition {
                    partition: PartitionId::new(1),
                },
            ),
        ),
        ("op_partitions", msg(19, CoordOp::Partitions)),
        (
            "op_set_meta",
            msg(
                20,
                CoordOp::SetMeta {
                    key: "cfg/checkpoint".to_string(),
                    value: Bytes::from_static(b"500"),
                    expected_version: Some(3),
                },
            ),
        ),
        (
            "op_set_meta_unconditional",
            msg(
                21,
                CoordOp::SetMeta {
                    key: "cfg/checkpoint".to_string(),
                    value: Bytes::from_static(b"500"),
                    expected_version: None,
                },
            ),
        ),
        (
            "op_get_meta",
            msg(
                22,
                CoordOp::GetMeta {
                    key: "cfg/checkpoint".to_string(),
                },
            ),
        ),
        (
            "op_register_ephemeral",
            msg(
                23,
                CoordOp::RegisterEphemeral {
                    session: SessionId::new(9),
                    key: "nodes/3".to_string(),
                    value: Bytes::from_static(b"127.0.0.1:7003"),
                },
            ),
        ),
        (
            "op_ephemerals",
            msg(
                24,
                CoordOp::Ephemerals {
                    prefix: "nodes/".to_string(),
                },
            ),
        ),
        ("op_watch_all", msg(25, CoordOp::WatchAll)),
        ("op_stats", msg(27, CoordOp::Stats)),
        // ---- replies: one per CoordOk tag, plus Err and events ----
        (
            "ok_unit",
            Reply(CoordReply::Ok {
                req: 1,
                body: CoordOk::Unit,
            }),
        ),
        (
            "ok_session",
            Reply(CoordReply::Ok {
                req: 1,
                body: CoordOk::Session(SessionId::new(9)),
            }),
        ),
        (
            "ok_ring",
            Reply(CoordReply::Ok {
                req: 7,
                body: CoordOk::Ring(Some(ring_cfg())),
            }),
        ),
        (
            "ok_ring_absent",
            Reply(CoordReply::Ok {
                req: 7,
                body: CoordOk::Ring(None),
            }),
        ),
        (
            "ok_ring_ids",
            Reply(CoordReply::Ok {
                req: 8,
                body: CoordOk::RingIds(vec![RingId::new(2), RingId::new(3)]),
            }),
        ),
        (
            "ok_election_won",
            Reply(CoordReply::Ok {
                req: 9,
                body: CoordOk::Election(ElectOutcome::Won(Epoch::new(8))),
            }),
        ),
        (
            "ok_election_lost",
            Reply(CoordReply::Ok {
                req: 9,
                body: CoordOk::Election(ElectOutcome::Lost(ring_cfg())),
            }),
        ),
        (
            "ok_config",
            Reply(CoordReply::Ok {
                req: 10,
                body: CoordOk::Config(ring_cfg()),
            }),
        ),
        (
            "ok_nodes",
            Reply(CoordReply::Ok {
                req: 14,
                body: CoordOk::Nodes(vec![NodeId::new(4), NodeId::new(5)]),
            }),
        ),
        (
            "ok_partition_of",
            Reply(CoordReply::Ok {
                req: 17,
                body: CoordOk::PartitionOf(Some(PartitionId::new(1))),
            }),
        ),
        (
            "ok_partition",
            Reply(CoordReply::Ok {
                req: 18,
                body: CoordOk::Partition(Some(partition())),
            }),
        ),
        (
            "ok_partitions",
            Reply(CoordReply::Ok {
                req: 19,
                body: CoordOk::Partitions(vec![partition()]),
            }),
        ),
        (
            "ok_meta",
            Reply(CoordReply::Ok {
                req: 22,
                body: CoordOk::Meta(Some((3, Bytes::from_static(b"500")))),
            }),
        ),
        (
            "ok_meta_absent",
            Reply(CoordReply::Ok {
                req: 22,
                body: CoordOk::Meta(None),
            }),
        ),
        (
            "ok_version",
            Reply(CoordReply::Ok {
                req: 20,
                body: CoordOk::Version(4),
            }),
        ),
        (
            "ok_ephemerals",
            Reply(CoordReply::Ok {
                req: 24,
                body: CoordOk::Ephemerals(vec![EphemeralEntry {
                    key: "nodes/3".to_string(),
                    session: SessionId::new(9),
                    value: Bytes::from_static(b"127.0.0.1:7003"),
                }]),
            }),
        ),
        (
            "err",
            Reply(CoordReply::Err {
                req: 5,
                reason: "ring 2 already registered".to_string(),
            }),
        ),
        (
            "event_ring_changed",
            Reply(CoordReply::Event(CoordEvent::RingChanged {
                cfg: ring_cfg(),
            })),
        ),
        (
            "event_subscribers_changed",
            Reply(CoordReply::Event(CoordEvent::SubscribersChanged {
                ring: RingId::new(2),
                subscribers: vec![NodeId::new(4)],
            })),
        ),
        (
            "event_partitions_changed",
            Reply(CoordReply::Event(CoordEvent::PartitionsChanged)),
        ),
        (
            "event_meta_changed",
            Reply(CoordReply::Event(CoordEvent::MetaChanged {
                key: "cfg/checkpoint".to_string(),
                version: 4,
            })),
        ),
        (
            "event_ephemeral_changed",
            Reply(CoordReply::Event(CoordEvent::EphemeralChanged {
                key: "nodes/3".to_string(),
                alive: false,
            })),
        ),
        (
            "event_session_expired",
            Reply(CoordReply::Event(CoordEvent::SessionExpired {
                session: SessionId::new(9),
            })),
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
            "# Golden wire vectors: coordination-service frames, hex-encoded.\n\
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
