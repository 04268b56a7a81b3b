//! The MRP-Store command set (paper Table 1) and its wire encoding.

use bytes::Bytes;
use common::wire_frame;

wire_frame! {
    "kv command";
    /// A key-value store operation.
    ///
    /// Keys are strings, values are byte arrays of arbitrary size (paper
    /// §6.1).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum KvCommand {
        /// `read(k)`: the value of entry `k`, if existent.
        0 => Read {
            /// The key.
            key: String,
        },
        /// `scan(k, k')`: all entries within range `k..k'`.
        1 => Scan {
            /// Range start (inclusive).
            from: String,
            /// Range end (exclusive).
            to: String,
        },
        /// `update(k, v)`: update entry `k` with value `v`, if existent.
        2 => Update {
            /// The key.
            key: String,
            /// The new value.
            value: Bytes,
        },
        /// `insert(k, v)`: insert tuple `(k, v)` in the database.
        3 => Insert {
            /// The key.
            key: String,
            /// The value.
            value: Bytes,
        },
        /// `delete(k)`: delete entry `k` from the database.
        4 => Delete {
            /// The key.
            key: String,
        },
        /// `add(k, d)`: increment the counter at `k` by `d`, creating it at
        /// zero if absent; returns the new value. Deliberately
        /// **non-idempotent** — the protocol-v2 exactly-once sessions are
        /// what make it safe to expose over a retrying client.
        5 => Add {
            /// The key.
            key: String,
            /// The increment.
            delta: u64,
        },
        /// Migration step 1: freeze writes to `from..to` everywhere and
        /// stamp the migration version. While a range is frozen, writes to
        /// it answer [`KvResponse::Busy`] (reads are still served); the
        /// snapshot the orchestrator ships is therefore stable. Fanned out
        /// to every partition so source, target, and bystanders all learn
        /// the in-flight migration at a delivered cut.
        6 => Freeze {
            /// Range start (inclusive).
            from: String,
            /// Range end (exclusive; empty = +∞).
            to: String,
            /// The partition the range is moving to.
            target: u16,
            /// The partition-map version this migration produces.
            version: u64,
        },
        /// Migration steps 2–3: install a chunk of the frozen range at the
        /// target. The final chunk (`last`) is the **cutover**: every
        /// partition atomically adopts the new key-range table (source drops
        /// the range, target takes ownership, clients re-route on
        /// [`KvResponse::Moved`]). Chunked so a large range streams through
        /// ordinary commands instead of one giant value.
        7 => Install {
            /// Range start (must match the frozen range).
            from: String,
            /// Range end (must match the frozen range).
            to: String,
            /// The partition taking ownership.
            target: u16,
            /// The partition-map version this migration produces.
            version: u64,
            /// Entries of this chunk.
            entries: Vec<(String, Bytes)>,
            /// True on the final chunk: adopt the new map and unfreeze.
            last: bool,
        },
        /// Reads the replica's current partition map (scheme + version) —
        /// how a client that received [`KvResponse::Moved`] refreshes its
        /// routing without a coordination-service round trip.
        8 => GetMap,
    }
}

impl KvCommand {
    /// The key (or range start) the command addresses.
    pub fn key(&self) -> &str {
        match self {
            KvCommand::Read { key }
            | KvCommand::Update { key, .. }
            | KvCommand::Insert { key, .. }
            | KvCommand::Delete { key }
            | KvCommand::Add { key, .. } => key,
            KvCommand::Scan { from, .. } => from,
            KvCommand::Freeze { from, .. } | KvCommand::Install { from, .. } => from,
            KvCommand::GetMap => "",
        }
    }

    /// True for commands addressing a single key (routable to one
    /// partition); scans and migration control span several.
    pub fn is_single_key(&self) -> bool {
        !matches!(
            self,
            KvCommand::Scan { .. }
                | KvCommand::Freeze { .. }
                | KvCommand::Install { .. }
                | KvCommand::GetMap
        )
    }
}

wire_frame! {
    "kv response";
    /// A replica's answer to a [`KvCommand`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum KvResponse {
        /// The value for a read (`None` if absent).
        0 => Value(Option<Bytes>),
        /// Matching entries for a scan (only keys owned by the answering
        /// partition; the client merges across partitions).
        1 => Entries(Vec<(String, Bytes)>),
        /// Write applied.
        2 => Ok,
        /// Update/delete on a missing key.
        3 => NotFound,
        /// The counter's new value after an [`KvCommand::Add`].
        4 => Counter(u64),
        /// The key is owned by another partition under the replica's current
        /// (version-stamped) map. Not executed; the client refreshes its map
        /// (at least to `version`) and re-routes. Replaces silent misses
        /// after a range migration moved the key.
        5 => Moved {
            /// The partition that owns the key now.
            partition: u16,
            /// The replica's partition-map version.
            version: u64,
        },
        /// The replica's partition map ([`KvCommand::GetMap`]).
        6 => Map {
            /// Monotone map version (bumped by each migration cutover).
            version: u64,
            /// The partitioning scheme, wire-encoded
            /// ([`crate::Partitioning`]).
            scheme: Bytes,
        },
        /// The key's range is frozen by an in-flight migration; the write
        /// was not executed. The client retries after a short backoff (with
        /// a fresh sequence number — `Busy` is a deterministic refusal, so
        /// the retry is still exactly-once).
        7 => Busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::wire::Wire;

    #[test]
    fn install_last_is_a_strict_bool() {
        let install = |last| KvCommand::Install {
            from: "a".into(),
            to: "b".into(),
            target: 1,
            version: 2,
            entries: Vec::new(),
            last,
        };
        let mut raw = install(true).to_bytes().to_vec();
        *raw.last_mut().unwrap() = 2;
        assert!(matches!(
            KvCommand::decode(&mut Bytes::from(raw)),
            Err(common::error::WireError::BadTag { tag: 2, .. })
        ));
        rt(install(false));
    }

    fn rt(cmd: KvCommand) {
        let mut b = cmd.to_bytes();
        assert_eq!(KvCommand::decode(&mut b).unwrap(), cmd);
    }

    #[test]
    fn commands_round_trip() {
        rt(KvCommand::Read { key: "k1".into() });
        rt(KvCommand::Scan {
            from: "a".into(),
            to: "z".into(),
        });
        rt(KvCommand::Update {
            key: "k".into(),
            value: Bytes::from_static(b"v"),
        });
        rt(KvCommand::Insert {
            key: String::new(),
            value: Bytes::new(),
        });
        rt(KvCommand::Delete { key: "gone".into() });
        rt(KvCommand::Add {
            key: "hits".into(),
            delta: 3,
        });
        rt(KvCommand::Freeze {
            from: "f".into(),
            to: "h".into(),
            target: 1,
            version: 2,
        });
        rt(KvCommand::Install {
            from: "f".into(),
            to: "h".into(),
            target: 1,
            version: 2,
            entries: vec![("f1".to_string(), Bytes::from_static(b"v"))],
            last: true,
        });
        rt(KvCommand::GetMap);
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            KvResponse::Value(Some(Bytes::from_static(b"x"))),
            KvResponse::Value(None),
            KvResponse::Entries(vec![("k".to_string(), Bytes::from_static(b"v"))]),
            KvResponse::Ok,
            KvResponse::NotFound,
            KvResponse::Counter(u64::MAX),
            KvResponse::Moved {
                partition: 3,
                version: 9,
            },
            KvResponse::Map {
                version: 9,
                scheme: Bytes::from_static(b"\x00\x02"),
            },
            KvResponse::Busy,
        ] {
            let mut b = r.to_bytes();
            assert_eq!(KvResponse::decode(&mut b).unwrap(), r);
        }
    }

    #[test]
    fn key_accessor() {
        assert_eq!(KvCommand::Read { key: "a".into() }.key(), "a");
        assert!(KvCommand::Read { key: "a".into() }.is_single_key());
        assert!(!KvCommand::Scan {
            from: "a".into(),
            to: "b".into()
        }
        .is_single_key());
    }
}
