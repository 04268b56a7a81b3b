//! Golden wire vectors for the WAL record and the services' frames.
//!
//! `ci/wire_vectors_service.txt` pins the exact bytes of a delivered-
//! command WAL record ([`WalRecord`]), of every MRP-Store command and
//! response ([`KvCommand`], [`KvResponse`]) and partitioning scheme
//! ([`Partitioning`], stored in the coordination service), and of every
//! dLog command and response ([`LogCommand`], [`LogResponse`]). Commands
//! travel inside logged envelopes and WALs, so a changed byte breaks
//! replay of logs written by an older build. If a change is intentional,
//! regenerate with
//!
//! ```text
//! REGEN_WIRE_VECTORS=1 cargo test -p liverun --test wire_vectors_service
//! ```
//!
//! and review the diff like any other interface change. The same frames
//! must decode garbage to an error, never a panic.

#[path = "../../common/tests/golden/mod.rs"]
mod golden;

use bytes::Bytes;
use common::ids::{ClientId, NodeId, RequestId, RingId};
use common::value::Envelope;
use common::wire::Wire;
use dlog::{LogCommand, LogResponse};
use golden::{vector, Vector};
use liverun::durable::WalRecord;
use mrpstore::{KvCommand, KvResponse, Partitioning};
use proptest::prelude::*;

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../ci/wire_vectors_service.txt"
);

fn entries() -> Vec<(String, Bytes)> {
    vec![
        ("a".to_string(), Bytes::from_static(b"1")),
        ("b".to_string(), Bytes::new()),
    ]
}

/// Every frame shape; names are stable keys in the corpus, add new
/// shapes at the end.
fn vectors() -> Vec<Vector> {
    let key = || "user:1".to_string();
    vec![
        // ---- the delivered-command WAL ----
        vector(
            "wal_record",
            WalRecord {
                ring: RingId::new(300),
                env: Envelope {
                    client: ClientId::new(77),
                    req: RequestId::new(130),
                    reply_to: NodeId::new(3),
                    session: 9,
                    ack: 127,
                    trace: 0,
                    cmd: KvCommand::Add {
                        key: key(),
                        delta: 5,
                    }
                    .to_bytes(),
                },
            },
        ),
        // ---- MRP-Store ----
        vector("kv_read", KvCommand::Read { key: key() }),
        vector(
            "kv_scan",
            KvCommand::Scan {
                from: "a".to_string(),
                to: String::new(),
            },
        ),
        vector(
            "kv_update",
            KvCommand::Update {
                key: key(),
                value: Bytes::from_static(b"alice"),
            },
        ),
        vector(
            "kv_insert",
            KvCommand::Insert {
                key: key(),
                value: Bytes::from(vec![7u8; 200]),
            },
        ),
        vector("kv_delete", KvCommand::Delete { key: key() }),
        vector(
            "kv_add",
            KvCommand::Add {
                key: "hits".to_string(),
                delta: u64::MAX,
            },
        ),
        vector(
            "kv_freeze",
            KvCommand::Freeze {
                from: "m".to_string(),
                to: "t".to_string(),
                target: 300,
                version: 2,
            },
        ),
        vector(
            "kv_install",
            KvCommand::Install {
                from: "m".to_string(),
                to: "t".to_string(),
                target: 1,
                version: 2,
                entries: entries(),
                last: true,
            },
        ),
        vector(
            "kv_install_chunk",
            KvCommand::Install {
                from: "m".to_string(),
                to: String::new(),
                target: 1,
                version: 2,
                entries: Vec::new(),
                last: false,
            },
        ),
        vector("kv_get_map", KvCommand::GetMap),
        vector(
            "kv_resp_value",
            KvResponse::Value(Some(Bytes::from_static(b"alice"))),
        ),
        vector("kv_resp_value_none", KvResponse::Value(None)),
        vector("kv_resp_entries", KvResponse::Entries(entries())),
        vector("kv_resp_ok", KvResponse::Ok),
        vector("kv_resp_not_found", KvResponse::NotFound),
        vector("kv_resp_counter", KvResponse::Counter(300)),
        vector(
            "kv_resp_moved",
            KvResponse::Moved {
                partition: 300,
                version: 4,
            },
        ),
        vector(
            "kv_resp_map",
            KvResponse::Map {
                version: 4,
                scheme: Partitioning::Hash { partitions: 3 }.to_bytes(),
            },
        ),
        vector("kv_resp_busy", KvResponse::Busy),
        vector("partitioning_hash", Partitioning::Hash { partitions: 300 }),
        vector(
            "partitioning_range",
            Partitioning::Range {
                bounds: vec!["g".to_string(), "p".to_string()],
            },
        ),
        vector(
            "partitioning_table",
            Partitioning::Table {
                entries: vec![
                    (String::new(), 0),
                    ("m".to_string(), 300),
                    ("t".to_string(), 0),
                ],
            },
        ),
        // ---- dLog ----
        vector(
            "log_append",
            LogCommand::Append {
                log: 300,
                value: Bytes::from_static(b"entry"),
            },
        ),
        vector(
            "log_multi_append",
            LogCommand::MultiAppend {
                logs: vec![0, 2, 300],
                value: Bytes::from_static(b"atomic"),
            },
        ),
        vector(
            "log_read",
            LogCommand::Read {
                log: 3,
                pos: 1 << 20,
            },
        ),
        vector("log_trim", LogCommand::Trim { log: 0, pos: 100 }),
        vector(
            "log_resp_appended",
            LogResponse::Appended(vec![(0, 7), (300, 1 << 20)]),
        ),
        vector(
            "log_resp_value",
            LogResponse::Value(Some(Bytes::from_static(b"x"))),
        ),
        vector("log_resp_value_none", LogResponse::Value(None)),
        vector("log_resp_ok", LogResponse::Ok),
    ]
}

#[test]
fn service_frames_match_golden_vectors() {
    golden::check(
        CORPUS,
        "# Golden wire vectors: WAL records and service frames, hex-encoded.\n\
         # Checked by crates/liverun/tests/wire_vectors_service.rs; regenerate with\n\
         #   REGEN_WIRE_VECTORS=1 cargo test -p liverun --test wire_vectors_service\n\
         # A changed line breaks replay of logs written by older builds.\n",
        vectors(),
    );
}

proptest! {
    /// The frames that arrive from disk or from another process decode
    /// arbitrary bytes to an error, never a panic (the peer frames' twin
    /// is `decoder_never_panics_on_garbage` in `common`).
    #[test]
    fn service_decoders_never_panic_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let garbage = Bytes::from(garbage);
        let _ = WalRecord::decode(&mut garbage.clone());
        let _ = KvCommand::decode(&mut garbage.clone());
        let _ = KvResponse::decode(&mut garbage.clone());
        let _ = Partitioning::decode(&mut garbage.clone());
        let _ = LogCommand::decode(&mut garbage.clone());
        let _ = LogResponse::decode(&mut garbage.clone());
    }
}
