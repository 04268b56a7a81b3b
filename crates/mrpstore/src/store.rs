//! The replicated key-value state machine.
//!
//! One [`KvApp`] per replica: an in-memory ordered tree (the paper stores
//! entries "in an in-memory tree at every replica", §7.2) holding the keys
//! of the replica's partition. Single-key commands arrive via the
//! partition's own ring; scans arrive via the global ring and each
//! partition answers with its local matches.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use common::ids::{PartitionId, RingId};
use common::value::Envelope;
use common::wire::{get_varint, get_varint_as, put_varint, varint_len, Wire};
use multiring::{ServiceApp, SnapshotCut};

use crate::command::{KvCommand, KvResponse};
use crate::partitioning::Partitioning;

/// An in-flight range migration observed at this replica: writes to
/// `from..to` answer [`KvResponse::Busy`] until the cutover
/// ([`KvCommand::Install`] with `last`) adopts the new map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FrozenRange {
    pub(crate) from: String,
    pub(crate) to: String,
    pub(crate) target: u16,
    pub(crate) version: u64,
}

impl FrozenRange {
    fn contains(&self, key: &str) -> bool {
        key >= self.from.as_str() && (self.to.is_empty() || key < self.to.as_str())
    }
}

/// The MRP-Store replica state machine.
#[derive(Debug)]
pub struct KvApp {
    partition: PartitionId,
    /// The partition map. Mutable: a migration cutover replaces it with
    /// the next version on every replica at the same delivered cut.
    scheme: Partitioning,
    /// Monotone map version; bumped by each cutover. Stamped into
    /// [`KvResponse::Moved`] so clients know how fresh a redirect is.
    scheme_version: u64,
    frozen: Option<FrozenRange>,
    /// This instance's executor sub-shard `(index, count)` — `(0, 1)`
    /// when unsharded. Migration installs are fanned to every sub-shard
    /// of the target partition; each inserts only its own hash class,
    /// keeping shard contents disjoint.
    shard: (usize, usize),
    data: BTreeMap<String, Bytes>,
}

impl KvApp {
    /// A replica of `partition` under `scheme`.
    pub fn new(partition: PartitionId, scheme: Partitioning) -> Self {
        KvApp {
            partition,
            scheme,
            scheme_version: 0,
            frozen: None,
            shard: (0, 1),
            data: BTreeMap::new(),
        }
    }

    /// Marks this instance as executor sub-shard `index` of `count`
    /// (must match the deployment's `KvShardPlan`).
    pub fn with_shard(mut self, index: usize, count: usize) -> Self {
        self.shard = (index, count.max(1));
        self
    }

    /// The current partition-map version (diagnostics/tests).
    pub fn scheme_version(&self) -> u64 {
        self.scheme_version
    }

    /// The current partitioning scheme (diagnostics/tests).
    pub fn scheme(&self) -> &Partitioning {
        &self.scheme
    }

    /// Pre-loads an entry (database initialization before the run, like
    /// YCSB's load phase).
    pub fn preload(&mut self, key: String, value: Bytes) {
        if self.owns(&key) {
            self.data.insert(key, value);
        }
    }

    /// Number of entries stored on this replica.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when this replica stores nothing.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Direct read access (tests).
    pub fn get(&self, key: &str) -> Option<&Bytes> {
        self.data.get(key)
    }

    fn owns(&self, key: &str) -> bool {
        self.scheme.partition_of(key) == self.partition
    }

    /// This sub-shard's slice of a key set (everything, when unsharded).
    fn in_shard(&self, key: &str) -> bool {
        crate::sharding::shard_of_key(key, self.shard.1) == self.shard.0
    }

    /// The redirect for a key this partition does not own under the
    /// current map.
    fn moved(&self, key: &str) -> KvResponse {
        KvResponse::Moved {
            partition: self.scheme.partition_of(key).raw(),
            version: self.scheme_version,
        }
    }

    /// `Busy` if `key` sits in a frozen (mid-migration) range.
    fn frozen_check(&self, key: &str) -> Option<KvResponse> {
        match &self.frozen {
            Some(f) if f.contains(key) => Some(KvResponse::Busy),
            _ => None,
        }
    }

    fn apply(&mut self, cmd: &KvCommand) -> KvResponse {
        match cmd {
            KvCommand::Read { key } => {
                if !self.owns(key) {
                    // A stale-routed read after a migration must redirect,
                    // not answer a confident "absent".
                    return self.moved(key);
                }
                KvResponse::Value(self.data.get(key).cloned())
            }
            KvCommand::Scan { from, to } => {
                // Answer with this partition's slice; the client merges
                // one response per partition (paper §7.2).
                let entries = self
                    .data
                    .range::<str, _>((
                        std::ops::Bound::Included(from.as_str()),
                        if to.is_empty() {
                            std::ops::Bound::Unbounded
                        } else {
                            std::ops::Bound::Excluded(to.as_str())
                        },
                    ))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                KvResponse::Entries(entries)
            }
            KvCommand::Update { key, value } => {
                if !self.owns(key) {
                    return self.moved(key);
                }
                if let Some(busy) = self.frozen_check(key) {
                    return busy;
                }
                match self.data.get_mut(key) {
                    Some(slot) => {
                        // Copy out of the decoded command: a zero-copy
                        // `value` is a view of a whole socket-read segment,
                        // and the store retains values indefinitely —
                        // holding the view would pin the segment forever.
                        *slot = Bytes::copy_from_slice(value);
                        KvResponse::Ok
                    }
                    None => KvResponse::NotFound,
                }
            }
            KvCommand::Insert { key, value } => {
                if !self.owns(key) {
                    return self.moved(key);
                }
                if let Some(busy) = self.frozen_check(key) {
                    return busy;
                }
                // See Update: unpin the socket-read segment before
                // retaining the value indefinitely.
                self.data.insert(key.clone(), Bytes::copy_from_slice(value));
                KvResponse::Ok
            }
            KvCommand::Delete { key } => {
                if !self.owns(key) {
                    return self.moved(key);
                }
                if let Some(busy) = self.frozen_check(key) {
                    return busy;
                }
                if self.data.remove(key).is_some() {
                    KvResponse::Ok
                } else {
                    KvResponse::NotFound
                }
            }
            KvCommand::Add { key, delta } => {
                if !self.owns(key) {
                    return self.moved(key);
                }
                if let Some(busy) = self.frozen_check(key) {
                    return busy;
                }
                // Counters are stored as 8-byte little-endian values; an
                // absent (or foreign-shaped) entry counts from zero.
                let current = self
                    .data
                    .get(key)
                    .and_then(|v| v.get(..8))
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
                    .unwrap_or(0);
                let next = current.wrapping_add(*delta);
                self.data
                    .insert(key.clone(), Bytes::copy_from_slice(&next.to_le_bytes()));
                KvResponse::Counter(next)
            }
            KvCommand::Freeze {
                from,
                to,
                target,
                version,
            } => {
                if self.scheme.to_table().is_none() {
                    // Hash partitioning has no key ranges to migrate.
                    return KvResponse::NotFound;
                }
                if *version <= self.scheme_version {
                    return KvResponse::Ok; // duplicate of an applied migration
                }
                if self.frozen.is_some() {
                    return KvResponse::Busy; // one migration at a time
                }
                self.frozen = Some(FrozenRange {
                    from: from.clone(),
                    to: to.clone(),
                    target: *target,
                    version: *version,
                });
                KvResponse::Ok
            }
            KvCommand::Install {
                from,
                to,
                target,
                version,
                entries,
                last,
            } => {
                if *version <= self.scheme_version {
                    return KvResponse::Ok; // duplicate of an applied migration
                }
                let matches = self.frozen.as_ref().is_some_and(|f| {
                    f.version == *version && f.from == *from && f.to == *to && f.target == *target
                });
                if !matches {
                    return KvResponse::Busy; // install without (or against) a freeze
                }
                if self.partition.raw() == *target {
                    for (k, v) in entries {
                        if self.in_shard(k) {
                            self.data.insert(k.clone(), Bytes::copy_from_slice(v));
                        }
                    }
                }
                if *last {
                    // Cutover: everyone adopts the new map at this
                    // delivered cut; the old owner drops its copy.
                    if let Some(new) = self.scheme.with_range_moved(from, to, *target) {
                        self.scheme = new;
                    }
                    self.scheme_version = *version;
                    self.frozen = None;
                    if self.partition.raw() != *target {
                        let doomed: Vec<String> = self
                            .data
                            .range::<str, _>((
                                std::ops::Bound::Included(from.as_str()),
                                if to.is_empty() {
                                    std::ops::Bound::Unbounded
                                } else {
                                    std::ops::Bound::Excluded(to.as_str())
                                },
                            ))
                            .map(|(k, _)| k.clone())
                            .collect();
                        for k in doomed {
                            self.data.remove(&k);
                        }
                    }
                }
                KvResponse::Ok
            }
            KvCommand::GetMap => KvResponse::Map {
                version: self.scheme_version,
                scheme: self.scheme.to_bytes(),
            },
        }
    }
}

/// The migration-relevant scheme state a snapshot carries after its
/// entry list.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SchemeTrailer {
    pub(crate) version: u64,
    pub(crate) scheme: Partitioning,
    pub(crate) frozen: Option<FrozenRange>,
}

impl SchemeTrailer {
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.version);
        self.scheme.encode(buf);
        match &self.frozen {
            None => put_varint(buf, 0),
            Some(f) => {
                put_varint(buf, 1);
                f.from.encode(buf);
                f.to.encode(buf);
                put_varint(buf, u64::from(f.target));
                put_varint(buf, f.version);
            }
        }
    }

    /// Decodes the trailer, or `None` for a pre-migration snapshot with
    /// nothing after its entries (the restore keeps its configured
    /// scheme in that case).
    pub(crate) fn decode(raw: &mut Bytes) -> Option<SchemeTrailer> {
        if raw.is_empty() {
            return None;
        }
        let version = get_varint(raw).ok()?;
        let scheme = Partitioning::decode(raw).ok()?;
        let frozen = match get_varint(raw).ok()? {
            0 => None,
            _ => Some(FrozenRange {
                from: String::decode(raw).ok()?,
                to: String::decode(raw).ok()?,
                target: get_varint_as(raw).ok()?,
                version: get_varint(raw).ok()?,
            }),
        };
        Some(SchemeTrailer {
            version,
            scheme,
            frozen,
        })
    }
}

impl KvApp {
    fn trailer(&self) -> SchemeTrailer {
        SchemeTrailer {
            version: self.scheme_version,
            scheme: self.scheme.clone(),
            frozen: self.frozen.clone(),
        }
    }
}

impl ServiceApp for KvApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        let mut raw = env.cmd.clone();
        match KvCommand::decode(&mut raw) {
            Ok(cmd) => self.apply(&cmd).to_bytes(),
            Err(_) => KvResponse::NotFound.to_bytes(),
        }
    }

    fn snapshot_cut(&self) -> Box<dyn SnapshotCut> {
        // O(entries), not O(bytes): keys are small strings and values are
        // refcounted, so cloning the tree is cheap. The bytes are written
        // only when the checkpoint is fetched or installed.
        let mut trailer = BytesMut::new();
        self.trailer().encode(&mut trailer);
        Box::new(KvCut {
            data: self.data.clone(),
            trailer: trailer.freeze(),
        })
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        let Ok(n) = get_varint(&mut raw) else { return };
        let mut data = BTreeMap::new();
        for _ in 0..n {
            let Ok(k) = String::decode(&mut raw) else {
                return;
            };
            let Ok(v) = Bytes::decode(&mut raw) else {
                return;
            };
            data.insert(k, v);
        }
        self.data = data;
        if let Some(t) = SchemeTrailer::decode(&mut raw) {
            self.scheme_version = t.version;
            self.scheme = t.scheme;
            self.frozen = t.frozen;
        }
    }

    fn reset(&mut self) {
        self.data.clear();
        self.scheme_version = 0;
        self.frozen = None;
    }
}

/// A [`SnapshotCut`] over a cloned entry tree: the count prefix, the
/// sorted `key ++ value` pairs, then the scheme trailer.
struct KvCut {
    data: BTreeMap<String, Bytes>,
    /// Scheme trailer emitted after the last entry (captured at the cut).
    trailer: Bytes,
}

impl SnapshotCut for KvCut {
    fn encoded_len(&self) -> usize {
        let entries: usize = (self.data.iter())
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum();
        varint_len(self.data.len() as u64) + entries + self.trailer.len()
    }

    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.data.len() as u64);
        for (k, v) in &self.data {
            k.encode(buf);
            v.encode(buf);
        }
        buf.extend_from_slice(&self.trailer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::{ClientId, NodeId, RequestId};

    fn env(cmd: &KvCommand) -> Envelope {
        Envelope::v1(
            ClientId::new(1),
            RequestId::new(1),
            NodeId::new(0),
            cmd.to_bytes(),
        )
    }

    fn single_partition_app() -> KvApp {
        KvApp::new(PartitionId::new(0), Partitioning::Hash { partitions: 1 })
    }

    fn exec(app: &mut KvApp, cmd: KvCommand) -> KvResponse {
        let mut raw = app.execute(RingId::new(0), &env(&cmd));
        KvResponse::decode(&mut raw).unwrap()
    }

    #[test]
    fn crud_semantics() {
        let mut app = single_partition_app();
        assert_eq!(
            exec(&mut app, KvCommand::Read { key: "a".into() }),
            KvResponse::Value(None)
        );
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Update {
                    key: "a".into(),
                    value: Bytes::from_static(b"x")
                }
            ),
            KvResponse::NotFound,
            "update requires existence (Table 1)"
        );
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Insert {
                    key: "a".into(),
                    value: Bytes::from_static(b"1")
                }
            ),
            KvResponse::Ok
        );
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Update {
                    key: "a".into(),
                    value: Bytes::from_static(b"2")
                }
            ),
            KvResponse::Ok
        );
        assert_eq!(
            exec(&mut app, KvCommand::Read { key: "a".into() }),
            KvResponse::Value(Some(Bytes::from_static(b"2")))
        );
        assert_eq!(
            exec(&mut app, KvCommand::Delete { key: "a".into() }),
            KvResponse::Ok
        );
        assert_eq!(
            exec(&mut app, KvCommand::Delete { key: "a".into() }),
            KvResponse::NotFound
        );
    }

    #[test]
    fn add_counts_from_zero_and_is_not_idempotent() {
        let mut app = single_partition_app();
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Add {
                    key: "hits".into(),
                    delta: 2
                }
            ),
            KvResponse::Counter(2)
        );
        // Re-execution moves the counter again — exactly why the session
        // layer must deduplicate retries of this command.
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Add {
                    key: "hits".into(),
                    delta: 2
                }
            ),
            KvResponse::Counter(4)
        );
        assert_eq!(
            exec(&mut app, KvCommand::Read { key: "hits".into() }),
            KvResponse::Value(Some(Bytes::copy_from_slice(&4u64.to_le_bytes())))
        );
    }

    #[test]
    fn scan_returns_range() {
        let mut app = single_partition_app();
        for k in ["a", "b", "c", "d"] {
            exec(
                &mut app,
                KvCommand::Insert {
                    key: k.into(),
                    value: Bytes::from_static(b"v"),
                },
            );
        }
        let r = exec(
            &mut app,
            KvCommand::Scan {
                from: "b".into(),
                to: "d".into(),
            },
        );
        match r {
            KvResponse::Entries(e) => {
                let keys: Vec<_> = e.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["b", "c"]);
            }
            other => panic!("expected entries, got {other:?}"),
        }
        // Open-ended scan.
        let r = exec(
            &mut app,
            KvCommand::Scan {
                from: "c".into(),
                to: String::new(),
            },
        );
        match r {
            KvResponse::Entries(e) => assert_eq!(e.len(), 2),
            other => panic!("expected entries, got {other:?}"),
        }
    }

    #[test]
    fn replica_ignores_foreign_keys() {
        // Partition 1 of 2; only stores keys hashing to partition 1.
        let scheme = Partitioning::Hash { partitions: 2 };
        let mut app = KvApp::new(PartitionId::new(1), scheme.clone());
        let (mine, theirs): (Vec<String>, Vec<String>) = (0..50)
            .map(|i| format!("key{i}"))
            .partition(|k| scheme.partition_of(k) == PartitionId::new(1));
        for k in &mine {
            assert_eq!(
                exec(
                    &mut app,
                    KvCommand::Insert {
                        key: k.clone(),
                        value: Bytes::from_static(b"v")
                    }
                ),
                KvResponse::Ok
            );
        }
        for k in &theirs {
            assert_eq!(
                exec(
                    &mut app,
                    KvCommand::Insert {
                        key: k.clone(),
                        value: Bytes::from_static(b"v")
                    }
                ),
                KvResponse::Moved {
                    partition: 0,
                    version: 0
                }
            );
        }
        assert_eq!(app.len(), mine.len());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut app = single_partition_app();
        for i in 0..100 {
            exec(
                &mut app,
                KvCommand::Insert {
                    key: format!("k{i:03}"),
                    value: Bytes::from(vec![i as u8; 16]),
                },
            );
        }
        let snap = app.snapshot();
        let mut other = single_partition_app();
        other.restore(&snap);
        assert_eq!(other.len(), 100);
        assert_eq!(other.get("k050"), app.get("k050"));

        app.reset();
        assert!(app.is_empty());
    }

    fn table_app(partition: u16) -> KvApp {
        // Two partitions: p0 owns [-inf, "m"), p1 owns ["m", +inf).
        let scheme = Partitioning::Table {
            entries: vec![(String::new(), 0), ("m".into(), 1)],
        };
        KvApp::new(PartitionId::new(partition), scheme)
    }

    #[test]
    fn freeze_install_cutover_moves_the_range() {
        let mut source = table_app(0);
        let mut target = table_app(1);
        for k in ["a", "f", "g", "k"] {
            exec(
                &mut source,
                KvCommand::Insert {
                    key: k.into(),
                    value: Bytes::from_static(b"v"),
                },
            );
        }

        // Freeze ["f", "m") for migration to partition 1.
        let freeze = KvCommand::Freeze {
            from: "f".into(),
            to: "m".into(),
            target: 1,
            version: 1,
        };
        assert_eq!(exec(&mut source, freeze.clone()), KvResponse::Ok);
        assert_eq!(exec(&mut target, freeze), KvResponse::Ok);

        // Frozen range: writes refused, reads still served, writes
        // outside the range unaffected.
        assert_eq!(
            exec(
                &mut source,
                KvCommand::Update {
                    key: "g".into(),
                    value: Bytes::from_static(b"w")
                }
            ),
            KvResponse::Busy
        );
        assert_eq!(
            exec(&mut source, KvCommand::Read { key: "g".into() }),
            KvResponse::Value(Some(Bytes::from_static(b"v")))
        );
        assert_eq!(
            exec(
                &mut source,
                KvCommand::Update {
                    key: "a".into(),
                    value: Bytes::from_static(b"w")
                }
            ),
            KvResponse::Ok
        );

        // Ship the frozen entries, then cut over on the last chunk.
        let chunk = KvCommand::Install {
            from: "f".into(),
            to: "m".into(),
            target: 1,
            version: 1,
            entries: vec![
                ("f".to_string(), Bytes::from_static(b"v")),
                ("g".to_string(), Bytes::from_static(b"v")),
            ],
            last: false,
        };
        assert_eq!(exec(&mut source, chunk.clone()), KvResponse::Ok);
        assert_eq!(exec(&mut target, chunk), KvResponse::Ok);
        let cutover = KvCommand::Install {
            from: "f".into(),
            to: "m".into(),
            target: 1,
            version: 1,
            entries: vec![("k".to_string(), Bytes::from_static(b"v"))],
            last: true,
        };
        assert_eq!(exec(&mut source, cutover.clone()), KvResponse::Ok);
        assert_eq!(exec(&mut target, cutover), KvResponse::Ok);

        // Source dropped the range and redirects; target owns it.
        assert_eq!(source.scheme_version(), 1);
        assert_eq!(target.scheme_version(), 1);
        assert!(source.get("g").is_none());
        assert_eq!(
            exec(&mut source, KvCommand::Read { key: "g".into() }),
            KvResponse::Moved {
                partition: 1,
                version: 1
            }
        );
        assert_eq!(
            exec(&mut target, KvCommand::Read { key: "g".into() }),
            KvResponse::Value(Some(Bytes::from_static(b"v")))
        );
        assert_eq!(
            exec(
                &mut target,
                KvCommand::Update {
                    key: "g".into(),
                    value: Bytes::from_static(b"w")
                }
            ),
            KvResponse::Ok,
            "migrated range is writable at the new owner after cutover"
        );
        assert_eq!(exec(&mut source, KvCommand::Read { key: "a".into() }), {
            KvResponse::Value(Some(Bytes::from_static(b"w")))
        });

        // Duplicate (retried) migration commands are no-ops.
        assert_eq!(
            exec(
                &mut source,
                KvCommand::Freeze {
                    from: "f".into(),
                    to: "m".into(),
                    target: 1,
                    version: 1,
                }
            ),
            KvResponse::Ok
        );
        assert_eq!(source.scheme_version(), 1);
    }

    #[test]
    fn install_without_matching_freeze_is_refused() {
        let mut app = table_app(0);
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Install {
                    from: "f".into(),
                    to: "m".into(),
                    target: 1,
                    version: 1,
                    entries: vec![],
                    last: true,
                }
            ),
            KvResponse::Busy
        );
        assert_eq!(app.scheme_version(), 0);
    }

    #[test]
    fn hash_partitioning_refuses_migration() {
        let mut app = single_partition_app();
        assert_eq!(
            exec(
                &mut app,
                KvCommand::Freeze {
                    from: "a".into(),
                    to: "b".into(),
                    target: 0,
                    version: 1,
                }
            ),
            KvResponse::NotFound
        );
    }

    #[test]
    fn snapshot_carries_scheme_version_and_freeze() {
        let mut app = table_app(0);
        exec(
            &mut app,
            KvCommand::Insert {
                key: "a".into(),
                value: Bytes::from_static(b"v"),
            },
        );
        exec(
            &mut app,
            KvCommand::Freeze {
                from: "f".into(),
                to: "m".into(),
                target: 1,
                version: 3,
            },
        );

        // A replica restored from the snapshot refuses frozen-range
        // writes exactly like the original.
        let snap = app.snapshot();
        let mut other = table_app(0);
        other.restore(&snap);
        assert_eq!(
            exec(
                &mut other,
                KvCommand::Insert {
                    key: "g".into(),
                    value: Bytes::from_static(b"v")
                }
            ),
            KvResponse::Busy
        );
        assert_eq!(other.get("a"), app.get("a"));

        // The cut restores the same store, trailer included.
        let cut = app.snapshot_cut();
        let mut buf = BytesMut::new();
        cut.encode(&mut buf);
        let mut back = table_app(0);
        back.restore(&buf.freeze());
        assert_eq!(back.snapshot(), snap);
        assert_eq!(back.scheme_version(), app.scheme_version());
        assert_eq!(back.get("a"), app.get("a"));

        // A legacy snapshot (entries only, no trailer) keeps the
        // configured scheme on restore.
        let mut legacy = BytesMut::new();
        put_varint(&mut legacy, 1);
        "a".to_string().encode(&mut legacy);
        Bytes::from_static(b"v").encode(&mut legacy);
        let mut fresh = table_app(0);
        fresh.restore(&legacy.freeze());
        assert_eq!(fresh.scheme_version(), 0);
        assert_eq!(fresh.len(), 1);
    }

    /// Takes a cut of `app`, then inserts, overwrites and deletes: the
    /// cut still encodes to exactly the bytes `snapshot()` returned at
    /// the cut, and `encoded_len()` is their length.
    fn assert_cut_is_frozen(app: &mut dyn ServiceApp) {
        let mut run = |cmd: KvCommand| app.execute(RingId::new(0), &env(&cmd));
        for (key, value) in [("a", "1"), ("b", "22"), ("c", "333")] {
            run(KvCommand::Insert {
                key: key.into(),
                value: Bytes::from(value),
            });
        }
        let at_cut = app.snapshot();
        let cut = app.snapshot_cut();
        let mut run = |cmd: KvCommand| app.execute(RingId::new(0), &env(&cmd));
        run(KvCommand::Insert {
            key: "d".into(),
            value: Bytes::from_static(b"4444"),
        });
        run(KvCommand::Update {
            key: "a".into(),
            value: Bytes::from(vec![7; 300]),
        });
        run(KvCommand::Delete { key: "b".into() });
        assert_ne!(app.snapshot(), at_cut, "the store moved on");
        for _ in 0..2 {
            let mut buf = BytesMut::new();
            cut.encode(&mut buf);
            assert_eq!(buf.freeze(), at_cut);
            assert_eq!(cut.encoded_len(), at_cut.len());
        }
    }

    #[test]
    fn a_cut_keeps_the_store_as_it_was_at_the_cut() {
        assert_cut_is_frozen(&mut table_app(0));
        let mut session = multiring::SessionApp::new(Box::new(table_app(0)));
        assert_cut_is_frozen(&mut session);
    }
}
