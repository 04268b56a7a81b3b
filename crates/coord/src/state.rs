//! The deterministic coordination state machine.
//!
//! Every piece of configuration the service holds — rings, subscriptions,
//! partitions, versioned metadata and ephemeral entries — lives in one
//! [`CoordState`] mutated exclusively through [`CoordState::apply`]
//! (and [`CoordState::drop_session`]). Determinism is the point: the in-process
//! [`LocalCoord`](crate::local::LocalCoord) applies operations directly
//! under a lock, while `amcoordd` replicas apply the *same* operations in
//! the order their Ring Paxos log decides them — one state machine, two
//! drivers, identical behavior.
//!
//! `apply` returns the operation's result plus the [`CoordEvent`]s it
//! produced; the server sends the events to its watchers.
//!
//! **Sessions are not kept here.** An ephemeral entry names its owning
//! session, and the entry lives until [`CoordState::drop_session`] is
//! called for that session: an `amcoordd` replica's sessions are its
//! protocol-v2 exactly-once sessions, whose table (`multiring`'s
//! `SessionApp`) calls it when it expires or evicts one. The in-process
//! backend registers ephemerals under owner 0, which nothing ever drops.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use common::error::{Error, Result};
use common::ids::{NodeId, PartitionId, RingId, SessionId};
use common::wire::coord::{
    CoordEvent, CoordOk, CoordOp, CoordResult, ElectOutcome, EphemeralEntry, PartitionWire,
};
use common::wire::{get_tag, get_varint, get_vec, put_varint, put_vec, Wire};

use crate::registry::PartitionInfo;
use crate::ring_config::RingConfig;

/// The replicated coordination state.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CoordState {
    rings: BTreeMap<RingId, RingConfig>,
    subscribers: BTreeMap<RingId, Vec<NodeId>>,
    partitions: BTreeMap<PartitionId, PartitionInfo>,
    replica_partition: BTreeMap<NodeId, PartitionId>,
    /// Versioned metadata blobs (znodes): `key -> (version, value)`.
    meta: BTreeMap<String, (u64, Bytes)>,
    /// Ephemeral entries: `key -> (owning session, value)`.
    ephemerals: BTreeMap<String, (SessionId, Bytes)>,
}

impl CoordState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one operation, returning its result and the state-change
    /// events it produced. Read operations never produce events.
    /// [`CoordOp::WatchAll`] is connection-level and a no-op here.
    pub fn apply(&mut self, op: &CoordOp) -> (CoordResult, Vec<CoordEvent>) {
        let mut events = Vec::new();
        let result = self.apply_inner(op, &mut events);
        (result, events)
    }

    fn apply_inner(&mut self, op: &CoordOp, events: &mut Vec<CoordEvent>) -> CoordResult {
        match op {
            CoordOp::RegisterRing { cfg } => {
                if self.rings.contains_key(&cfg.ring) {
                    return Err(format!("ring {} already registered", cfg.ring));
                }
                let cfg = RingConfig::new(cfg.ring, cfg.members.clone(), cfg.acceptors.clone())
                    .map_err(|e| e.to_string())?;
                events.push(CoordEvent::RingChanged { cfg: cfg.to_wire() });
                self.rings.insert(cfg.ring(), cfg);
                Ok(CoordOk::Unit)
            }
            CoordOp::EnsureRing { cfg } => {
                if let Some(existing) = self.rings.get(&cfg.ring) {
                    // Already seeded (possibly reconfigured since): the
                    // caller adopts whatever the service holds now.
                    return Ok(CoordOk::Config(existing.to_wire()));
                }
                let cfg = RingConfig::new(cfg.ring, cfg.members.clone(), cfg.acceptors.clone())
                    .map_err(|e| e.to_string())?;
                let wire = cfg.to_wire();
                events.push(CoordEvent::RingChanged { cfg: wire.clone() });
                self.rings.insert(cfg.ring(), cfg);
                Ok(CoordOk::Config(wire))
            }
            CoordOp::GetRing { ring } => {
                Ok(CoordOk::Ring(self.rings.get(ring).map(RingConfig::to_wire)))
            }
            CoordOp::RingIds => Ok(CoordOk::RingIds(self.rings.keys().copied().collect())),
            CoordOp::ElectCoordinator {
                ring,
                candidate,
                seen_epoch,
            } => {
                let cfg = self
                    .rings
                    .get_mut(ring)
                    .ok_or_else(|| format!("unknown ring {ring}"))?;
                if cfg.epoch() != *seen_epoch {
                    return Ok(CoordOk::Election(ElectOutcome::Lost(cfg.to_wire())));
                }
                let epoch = cfg.set_coordinator(*candidate).map_err(|e| e.to_string())?;
                events.push(CoordEvent::RingChanged { cfg: cfg.to_wire() });
                Ok(CoordOk::Election(ElectOutcome::Won(epoch)))
            }
            CoordOp::ReportFailure {
                ring,
                failed,
                seen_epoch,
            } => {
                let cfg = self
                    .rings
                    .get_mut(ring)
                    .ok_or_else(|| format!("unknown ring {ring}"))?;
                if cfg.epoch() != *seen_epoch || !cfg.contains(*failed) {
                    // Raced: the caller installs the current config.
                    return Ok(CoordOk::Config(cfg.to_wire()));
                }
                cfg.remove_member(*failed).map_err(|e| e.to_string())?;
                let wire = cfg.to_wire();
                events.push(CoordEvent::RingChanged { cfg: wire.clone() });
                Ok(CoordOk::Config(wire))
            }
            CoordOp::Rejoin {
                ring,
                node,
                as_acceptor,
            } => {
                let cfg = self
                    .rings
                    .get_mut(ring)
                    .ok_or_else(|| format!("unknown ring {ring}"))?;
                if !cfg.contains(*node) {
                    cfg.add_member(*node, *as_acceptor)
                        .map_err(|e| e.to_string())?;
                    events.push(CoordEvent::RingChanged { cfg: cfg.to_wire() });
                }
                Ok(CoordOk::Config(cfg.to_wire()))
            }
            CoordOp::InstallConfig { cfg: wire } => {
                let newer = self
                    .rings
                    .get(&wire.ring)
                    .is_none_or(|cur| wire.epoch > cur.epoch());
                if newer {
                    let cfg = RingConfig::from_wire(wire).map_err(|e| e.to_string())?;
                    events.push(CoordEvent::RingChanged { cfg: wire.clone() });
                    self.rings.insert(wire.ring, cfg);
                }
                Ok(CoordOk::Unit)
            }
            CoordOp::Subscribe { ring, node } => {
                let list = self.subscribers.entry(*ring).or_default();
                if !list.contains(node) {
                    list.push(*node);
                    events.push(CoordEvent::SubscribersChanged {
                        ring: *ring,
                        subscribers: list.clone(),
                    });
                }
                Ok(CoordOk::Unit)
            }
            CoordOp::Subscribers { ring } => Ok(CoordOk::Nodes(
                self.subscribers.get(ring).cloned().unwrap_or_default(),
            )),
            CoordOp::RegisterPartition { part } => {
                if self.partitions.contains_key(&part.partition) {
                    return Err(format!("partition {} already registered", part.partition));
                }
                self.admit_partition(part, events)
            }
            CoordOp::EnsurePartition { part } => {
                if self.partitions.contains_key(&part.partition) {
                    return Ok(CoordOk::Unit);
                }
                self.admit_partition(part, events)
            }
            CoordOp::PartitionOf { replica } => Ok(CoordOk::PartitionOf(
                self.replica_partition.get(replica).copied(),
            )),
            CoordOp::GetPartition { partition } => Ok(CoordOk::Partition(
                self.partitions.get(partition).map(|info| PartitionWire {
                    partition: *partition,
                    rings: info.rings.clone(),
                    replicas: info.replicas.clone(),
                }),
            )),
            CoordOp::Partitions => Ok(CoordOk::Partitions(
                self.partitions
                    .iter()
                    .map(|(id, info)| PartitionWire {
                        partition: *id,
                        rings: info.rings.clone(),
                        replicas: info.replicas.clone(),
                    })
                    .collect(),
            )),
            CoordOp::SetMeta {
                key,
                value,
                expected_version,
            } => {
                let current = self.meta.get(key).map(|(v, _)| *v);
                if let Some(expected) = expected_version {
                    if current != Some(*expected) && !(current.is_none() && *expected == 0) {
                        return Err(format!(
                            "stale write to {key:?}: expected version {expected}, have {}",
                            current.map_or("none".to_string(), |v| v.to_string())
                        ));
                    }
                }
                let version = current.unwrap_or(0) + 1;
                self.meta.insert(key.clone(), (version, value.clone()));
                events.push(CoordEvent::MetaChanged {
                    key: key.clone(),
                    version,
                });
                Ok(CoordOk::Version(version))
            }
            CoordOp::GetMeta { key } => Ok(CoordOk::Meta(self.meta.get(key).cloned())),
            CoordOp::RegisterEphemeral {
                session,
                key,
                value,
            } => {
                self.ephemerals
                    .insert(key.clone(), (*session, value.clone()));
                Ok(CoordOk::Unit)
            }
            CoordOp::Ephemerals { prefix } => Ok(CoordOk::Ephemerals(
                self.ephemerals
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix.as_str()))
                    .map(|(k, (session, value))| EphemeralEntry {
                        key: k.clone(),
                        session: *session,
                        value: value.clone(),
                    })
                    .collect(),
            )),
            CoordOp::WatchAll => Ok(CoordOk::Unit),
        }
    }

    /// Drops the ephemeral entries `session` owns: its session is gone.
    pub fn drop_session(&mut self, session: SessionId) {
        self.ephemerals.retain(|_, (owner, _)| *owner != session);
    }

    /// The current snapshot format version (first byte of the encoding).
    const SNAPSHOT_VERSION: u8 = 2;

    /// A deterministic, wire-encodable snapshot of the whole state. Two
    /// replicas holding equal state produce byte-identical snapshots (all
    /// maps iterate in key order), so the encoding doubles as a cheap
    /// state-divergence check.
    pub fn snapshot(&self) -> Bytes {
        let mut out = BytesMut::new();
        let buf = &mut out;
        buf.extend_from_slice(&[Self::SNAPSHOT_VERSION]);
        let rings: Vec<_> = self.rings.values().map(RingConfig::to_wire).collect();
        put_vec(buf, &rings);
        put_varint(buf, self.subscribers.len() as u64);
        for (ring, subs) in &self.subscribers {
            ring.encode(buf);
            subs.encode(buf);
        }
        let partitions: Vec<PartitionWire> = self
            .partitions
            .iter()
            .map(|(id, info)| PartitionWire {
                partition: *id,
                rings: info.rings.clone(),
                replicas: info.replicas.clone(),
            })
            .collect();
        put_vec(buf, &partitions);
        put_varint(buf, self.meta.len() as u64);
        for (key, (version, value)) in &self.meta {
            key.encode(buf);
            put_varint(buf, *version);
            value.encode(buf);
        }
        let ephemerals: Vec<EphemeralEntry> = self
            .ephemerals
            .iter()
            .map(|(k, (session, value))| EphemeralEntry {
                key: k.clone(),
                session: *session,
                value: value.clone(),
            })
            .collect();
        put_vec(buf, &ephemerals);
        out.freeze()
    }

    /// Reconstructs a state from an encoded snapshot.
    ///
    /// # Errors
    ///
    /// Fails on a truncated/corrupt encoding, an unknown snapshot
    /// version, or a structurally invalid ring configuration.
    pub fn decode_snapshot(buf: &mut Bytes) -> Result<Self> {
        let version = get_tag(buf, "coord snapshot")?;
        if version != Self::SNAPSHOT_VERSION {
            return Err(Error::Config(format!(
                "unknown coord snapshot version {version}"
            )));
        }
        let mut state = CoordState::new();
        for wire in get_vec::<common::wire::coord::RingConfigWire>(buf)? {
            state.rings.insert(wire.ring, RingConfig::from_wire(&wire)?);
        }
        let n_subs = get_varint(buf)?;
        for _ in 0..n_subs {
            let ring = RingId::decode(buf)?;
            let subs = Vec::<NodeId>::decode(buf)?;
            state.subscribers.insert(ring, subs);
        }
        for part in get_vec::<PartitionWire>(buf)? {
            for r in &part.replicas {
                state.replica_partition.insert(*r, part.partition);
            }
            state.partitions.insert(
                part.partition,
                PartitionInfo {
                    rings: part.rings,
                    replicas: part.replicas,
                },
            );
        }
        let n_meta = get_varint(buf)?;
        for _ in 0..n_meta {
            let key = String::decode(buf)?;
            let version = get_varint(buf)?;
            let value = Bytes::decode(buf)?;
            state.meta.insert(key, (version, value));
        }
        for e in get_vec::<EphemeralEntry>(buf)? {
            state.ephemerals.insert(e.key, (e.session, e.value));
        }
        Ok(state)
    }

    fn admit_partition(
        &mut self,
        part: &PartitionWire,
        events: &mut Vec<CoordEvent>,
    ) -> CoordResult {
        for r in &part.replicas {
            if self.replica_partition.contains_key(r) {
                return Err(format!("replica {r} already belongs to a partition"));
            }
        }
        for r in &part.replicas {
            self.replica_partition.insert(*r, part.partition);
            for ring in &part.rings {
                let list = self.subscribers.entry(*ring).or_default();
                if !list.contains(r) {
                    list.push(*r);
                    events.push(CoordEvent::SubscribersChanged {
                        ring: *ring,
                        subscribers: list.clone(),
                    });
                }
            }
        }
        self.partitions.insert(
            part.partition,
            PartitionInfo {
                rings: part.rings.clone(),
                replicas: part.replicas.clone(),
            },
        );
        events.push(CoordEvent::PartitionsChanged);
        Ok(CoordOk::Unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::Epoch;
    use common::wire::coord::RingConfigWire;

    fn ring_wire(ring: u16, members: &[u32]) -> RingConfigWire {
        let members: Vec<NodeId> = members.iter().map(|i| NodeId::new(*i)).collect();
        RingConfigWire {
            ring: RingId::new(ring),
            members: members.clone(),
            acceptors: members,
            coordinator: NodeId::new(0),
            epoch: Epoch::new(1),
        }
    }

    fn ok(state: &mut CoordState, op: CoordOp) -> (CoordOk, Vec<CoordEvent>) {
        let (result, events) = state.apply(&op);
        (result.expect("op succeeds"), events)
    }

    #[test]
    fn session_expiry_removes_ephemerals() {
        let mut state = CoordState::new();
        let (a, b) = (SessionId::new(1), SessionId::new(2));
        for (session, key) in [(a, "nodes/0"), (b, "nodes/1"), (a, "nodes/2")] {
            let (_, events) = ok(
                &mut state,
                CoordOp::RegisterEphemeral {
                    session,
                    key: key.into(),
                    value: Bytes::from_static(b"addr"),
                },
            );
            assert!(events.is_empty());
        }
        // Dropping a session takes exactly the entries it owns.
        state.drop_session(a);
        let (body, _) = ok(
            &mut state,
            CoordOp::Ephemerals {
                prefix: String::new(),
            },
        );
        let CoordOk::Ephemerals(left) = body else {
            panic!("expected ephemerals")
        };
        let keys: Vec<&str> = left.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["nodes/1"]);
        assert_eq!(left[0].session, b);
        let snap = state.snapshot();
        assert_eq!(
            CoordState::decode_snapshot(&mut snap.clone()).unwrap(),
            state
        );
    }

    #[test]
    fn versioned_meta_rejects_stale_writers() {
        let mut state = CoordState::new();
        // First write: version 0 expectation admits creation.
        let (body, _) = ok(
            &mut state,
            CoordOp::SetMeta {
                key: "scheme".into(),
                value: Bytes::from_static(b"a"),
                expected_version: Some(0),
            },
        );
        assert_eq!(body, CoordOk::Version(1));

        // A stale writer (still expecting version 0) is rejected.
        let (result, events) = state.apply(&CoordOp::SetMeta {
            key: "scheme".into(),
            value: Bytes::from_static(b"b"),
            expected_version: Some(0),
        });
        assert!(result.is_err());
        assert!(events.is_empty());

        // The current version wins the CAS.
        let (body, _) = ok(
            &mut state,
            CoordOp::SetMeta {
                key: "scheme".into(),
                value: Bytes::from_static(b"b"),
                expected_version: Some(1),
            },
        );
        assert_eq!(body, CoordOk::Version(2));
        let (body, _) = ok(
            &mut state,
            CoordOp::GetMeta {
                key: "scheme".into(),
            },
        );
        assert_eq!(body, CoordOk::Meta(Some((2, Bytes::from_static(b"b")))));
    }

    #[test]
    fn ring_changes_emit_exactly_one_event_per_epoch_bump() {
        let mut state = CoordState::new();
        let (_, events) = ok(
            &mut state,
            CoordOp::RegisterRing {
                cfg: ring_wire(0, &[0, 1, 2]),
            },
        );
        assert_eq!(events.len(), 1);

        // A won election bumps the epoch: one event.
        let (body, events) = ok(
            &mut state,
            CoordOp::ElectCoordinator {
                ring: RingId::new(0),
                candidate: NodeId::new(1),
                seen_epoch: Epoch::new(1),
            },
        );
        assert_eq!(body, CoordOk::Election(ElectOutcome::Won(Epoch::new(2))));
        assert_eq!(events.len(), 1);

        // A lost election changes nothing: zero events.
        let (body, events) = ok(
            &mut state,
            CoordOp::ElectCoordinator {
                ring: RingId::new(0),
                candidate: NodeId::new(2),
                seen_epoch: Epoch::new(1),
            },
        );
        assert!(matches!(body, CoordOk::Election(ElectOutcome::Lost(_))));
        assert!(events.is_empty());

        // An idempotent rejoin of a present member: zero events.
        let (_, events) = ok(
            &mut state,
            CoordOp::Rejoin {
                ring: RingId::new(0),
                node: NodeId::new(2),
                as_acceptor: true,
            },
        );
        assert!(events.is_empty());
    }

    #[test]
    fn ensure_ring_is_idempotent_and_adopts_current() {
        let mut state = CoordState::new();
        ok(
            &mut state,
            CoordOp::EnsureRing {
                cfg: ring_wire(0, &[0, 1, 2]),
            },
        );
        ok(
            &mut state,
            CoordOp::ReportFailure {
                ring: RingId::new(0),
                failed: NodeId::new(0),
                seen_epoch: Epoch::new(1),
            },
        );
        // Re-seeding after a reconfiguration adopts the live config, it
        // does not reset it.
        let (body, events) = ok(
            &mut state,
            CoordOp::EnsureRing {
                cfg: ring_wire(0, &[0, 1, 2]),
            },
        );
        assert!(events.is_empty());
        let CoordOk::Config(cfg) = body else {
            panic!("expected config")
        };
        assert_eq!(cfg.epoch, Epoch::new(2));
        assert_eq!(cfg.members, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn install_config_takes_only_newer_epochs() {
        let mut state = CoordState::new();
        let mut wire = ring_wire(0, &[0, 1]);
        wire.epoch = Epoch::new(5);
        let (_, events) = ok(&mut state, CoordOp::InstallConfig { cfg: wire.clone() });
        assert_eq!(events.len(), 1);

        // Same epoch again: ignored.
        let (_, events) = ok(&mut state, CoordOp::InstallConfig { cfg: wire.clone() });
        assert!(events.is_empty());

        // Older epoch: ignored.
        wire.epoch = Epoch::new(2);
        let (_, events) = ok(&mut state, CoordOp::InstallConfig { cfg: wire });
        assert!(events.is_empty());
    }
}
