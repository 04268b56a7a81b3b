//! Golden wire vectors for the client protocol.
//!
//! `ci/wire_vectors_client.txt` pins the exact byte encoding of every
//! client-protocol frame shape. This test asserts both directions
//! against the checked-in corpus:
//!
//! * encoding each frame produces exactly the recorded bytes
//!   (byte-stability: a new field, a reordered tag, or a changed varint
//!   cannot slip in silently), and
//! * decoding the recorded bytes reproduces the frame (old captures
//!   stay readable).
//!
//! If a wire change is *intentional*, regenerate the corpus with
//!
//! ```text
//! REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors
//! ```
//!
//! and review the diff like any other interface change. A line that
//! stays must never change.

use bytes::Bytes;
use common::ids::{ClientId, NodeId, RequestId, RingId};
use common::obs::{HistSummary, ObsSnapshot};
use common::wire::client::{
    ClientMsg, ClientReply, ErrorCode, FEAT_ALL, FEAT_EXACTLY_ONCE, FEAT_PIPELINE,
};
use common::wire::Wire;

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/wire_vectors_client.txt"
);

enum Frame {
    Msg(ClientMsg),
    Reply(ClientReply),
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
            Frame::Msg(m) => ClientMsg::decode(&mut raw).as_ref() == Ok(m) && raw.is_empty(),
            Frame::Reply(r) => ClientReply::decode(&mut raw).as_ref() == Ok(r) && raw.is_empty(),
        }
    }
}

/// Every frame shape of the protocol, v1 first. Names are stable keys in
/// the corpus file; add new shapes at the end.
fn vectors() -> Vec<(&'static str, Frame)> {
    use Frame::{Msg, Reply};
    vec![
        // ---- protocol v1: only its ping survives (byte-stable forever) ----
        ("v1_ping", Msg(ClientMsg::Ping { token: 0x0123_4567 })),
        ("v1_pong", Reply(ClientReply::Pong { token: 0x0123_4567 })),
        // ---- protocol v2 ----
        (
            "v2_hello",
            Msg(ClientMsg::HelloV2 {
                client: ClientId::new(77),
                features: FEAT_ALL,
            }),
        ),
        (
            "v2_request",
            Msg(ClientMsg::RequestV2 {
                session: 9,
                seq: RequestId::new(130),
                ack: 127,
                group: RingId::new(2),
                cmd: Bytes::from_static(b"add k 1"),
            }),
        ),
        (
            "v2_request_ctl",
            Msg(ClientMsg::RequestV2 {
                session: u64::MAX,
                seq: RequestId::new(1),
                ack: 0,
                group: RingId::new(4),
                cmd: Bytes::from_static(b"\x00\x01\xb8\x17"),
            }),
        ),
        (
            "v2_welcome",
            Reply(ClientReply::WelcomeV2 {
                node: NodeId::new(3),
                features: FEAT_PIPELINE | FEAT_EXACTLY_ONCE,
                window: 64,
            }),
        ),
        (
            "v2_response",
            Reply(ClientReply::ResponseV2 {
                session: 9,
                seq: RequestId::new(130),
                from_replica: NodeId::new(4),
                payload: Bytes::from_static(b"\x00ok"),
            }),
        ),
        (
            "v2_error_hello_required",
            Reply(ClientReply::ErrorV2 {
                seq: RequestId::new(131),
                code: ErrorCode::HelloRequired,
                detail: "hello first".to_string(),
            }),
        ),
        (
            "v2_error_unknown_group",
            Reply(ClientReply::ErrorV2 {
                seq: RequestId::new(131),
                code: ErrorCode::UnknownGroup,
                detail: "no group 9".to_string(),
            }),
        ),
        (
            "v2_redirect",
            Reply(ClientReply::Redirect {
                seq: RequestId::new(132),
                group: RingId::new(2),
                to: NodeId::new(1),
            }),
        ),
        (
            "v2_credit_grant",
            Reply(ClientReply::CreditGrant { window: 128 }),
        ),
        (
            "v2_stats_request",
            Msg(ClientMsg::StatsRequest { token: 0x0123_4567 }),
        ),
        (
            "v2_stats_response",
            Reply(ClientReply::Stats {
                token: 0x0123_4567,
                snapshot: ObsSnapshot {
                    node: 2,
                    counters: vec![
                        ("proposed_cmds".to_string(), 1000),
                        ("executed_cmds".to_string(), 998),
                    ],
                    gauges: vec![
                        ("batcher_depth".to_string(), 4),
                        ("merge_lag".to_string(), -1),
                    ],
                    hists: vec![(
                        "stage_decide_nanos".to_string(),
                        HistSummary {
                            count: 998,
                            sum: 1_000_000,
                            min: 120,
                            max: 9_000,
                            p50: 900,
                            p95: 4_000,
                            p99: 8_000,
                        },
                    )],
                },
            }),
        ),
        (
            "v2_request_here",
            Msg(ClientMsg::RequestHere {
                session: 9,
                seq: RequestId::new(133),
                ack: 127,
                group: RingId::new(2),
                cmd: Bytes::from_static(b"scan a z"),
            }),
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
fn client_frames_match_golden_vectors() {
    let vectors = vectors();
    if std::env::var_os("REGEN_WIRE_VECTORS").is_some() {
        let mut out = String::from(
            "# Golden wire vectors: client protocol v1+v2 frames, hex-encoded.\n\
             # Checked by crates/common/tests/wire_vectors.rs; regenerate with\n\
             #   REGEN_WIRE_VECTORS=1 cargo test -p common --test wire_vectors\n\
             # v1 lines must never change (old clients must stay decodable).\n",
        );
        for (name, frame) in &vectors {
            out.push_str(&format!("{name} {}\n", hex(&frame.to_bytes())));
        }
        std::fs::write(CORPUS, out).expect("write corpus");
        return;
    }

    let corpus = std::fs::read_to_string(CORPUS)
        .expect("ci/wire_vectors_client.txt present (run with REGEN_WIRE_VECTORS=1 to create)");
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
