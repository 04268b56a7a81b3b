//! The deterministic coordination state machine.
//!
//! Every piece of configuration the service holds — rings, subscriptions,
//! partitions, versioned metadata, sessions and their ephemeral entries —
//! lives in one [`CoordState`] mutated exclusively through
//! [`CoordState::apply`]. Determinism is the point: the in-process
//! [`LocalCoord`](crate::local::LocalCoord) applies operations directly
//! under a lock, while `amcoordd` replicas apply the *same* operations in
//! the order their Ring Paxos log decides them — one state machine, two
//! drivers, identical behavior.
//!
//! `apply` returns the operation's result plus the [`CoordEvent`]s it
//! produced; the driver is responsible for delivering events to watchers
//! (synchronously for the local backend, as pushed frames for the server).

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use common::error::{Error, Result};
use common::ids::{NodeId, PartitionId, RingId, SessionId};
use common::wire::coord::{
    CoordEvent, CoordOk, CoordOp, ElectOutcome, EphemeralEntry, PartitionWire,
};
use common::wire::{get_tag, get_varint, get_vec, put_varint, put_vec, Wire};

use crate::registry::PartitionInfo;
use crate::ring_config::RingConfig;

/// One live session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Session {
    /// The session's time-to-live in milliseconds; drivers expire the
    /// session when this lapses without a keep-alive.
    pub ttl_ms: u64,
    /// Monotonic keep-alive counter; [`CoordOp::ExpireSession`] is a CAS
    /// against it so a refreshed session survives a stale expiry proposal.
    pub refresh_seq: u64,
}

/// Result of one operation: the reply body or a human-readable refusal.
pub type ApplyResult = std::result::Result<CoordOk, String>;

/// The replicated coordination state.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CoordState {
    rings: BTreeMap<RingId, RingConfig>,
    subscribers: BTreeMap<RingId, Vec<NodeId>>,
    partitions: BTreeMap<PartitionId, PartitionInfo>,
    replica_partition: BTreeMap<NodeId, PartitionId>,
    /// Versioned metadata blobs (znodes): `key -> (version, value)`.
    meta: BTreeMap<String, (u64, Bytes)>,
    sessions: BTreeMap<SessionId, Session>,
    /// Ephemeral entries: `key -> (owning session, value)`.
    ephemerals: BTreeMap<String, (SessionId, Bytes)>,
    next_session: u64,
}

impl CoordState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one operation, returning its result and the state-change
    /// events it produced. Read operations never produce events.
    /// [`CoordOp::WatchAll`] is connection-level and a no-op here.
    pub fn apply(&mut self, op: &CoordOp) -> (ApplyResult, Vec<CoordEvent>) {
        let mut events = Vec::new();
        let result = self.apply_inner(op, &mut events);
        (result, events)
    }

    fn apply_inner(&mut self, op: &CoordOp, events: &mut Vec<CoordEvent>) -> ApplyResult {
        match op {
            CoordOp::OpenSession { ttl_ms } => {
                let id = SessionId::new(self.next_session);
                self.next_session += 1;
                self.sessions.insert(
                    id,
                    Session {
                        ttl_ms: *ttl_ms,
                        refresh_seq: 0,
                    },
                );
                Ok(CoordOk::Session(id))
            }
            CoordOp::KeepAlive { session } => match self.sessions.get_mut(session) {
                Some(s) => {
                    s.refresh_seq += 1;
                    Ok(CoordOk::Unit)
                }
                None => Err(format!("unknown session {session}")),
            },
            CoordOp::CloseSession { session } => {
                self.drop_session(*session, events);
                Ok(CoordOk::Unit)
            }
            CoordOp::ExpireSession {
                session,
                seen_refresh,
            } => {
                // CAS shape: a keep-alive applied after the proposer's
                // observation outruns the expiry.
                if let Some(s) = self.sessions.get(session) {
                    if s.refresh_seq <= *seen_refresh {
                        self.drop_session(*session, events);
                    }
                }
                Ok(CoordOk::Unit)
            }
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
                if !self.sessions.contains_key(session) {
                    return Err(format!("unknown session {session}"));
                }
                self.ephemerals
                    .insert(key.clone(), (*session, value.clone()));
                events.push(CoordEvent::EphemeralChanged {
                    key: key.clone(),
                    alive: true,
                });
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
            CoordOp::Stats => {
                // Per-node metrics live with the driver (the server
                // process), not in the replicated state machine; the
                // replicated server answers from its own registry before
                // this default is seen. The local backend has no metrics
                // of its own, so an empty snapshot is exact there.
                Ok(CoordOk::Stats(Default::default()))
            }
        }
    }

    /// The current snapshot format version (first byte of the encoding).
    const SNAPSHOT_VERSION: u8 = 1;

    /// Appends a deterministic, wire-encodable snapshot of the whole
    /// state to `buf`. Two replicas holding equal state produce
    /// byte-identical snapshots (all maps iterate in key order), so the
    /// encoding doubles as a cheap state-divergence check.
    pub fn encode_snapshot(&self, buf: &mut BytesMut) {
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
        put_varint(buf, self.sessions.len() as u64);
        for (id, s) in &self.sessions {
            id.encode(buf);
            put_varint(buf, s.ttl_ms);
            put_varint(buf, s.refresh_seq);
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
        put_varint(buf, self.next_session);
    }

    /// The snapshot as a fresh buffer (see [`CoordState::encode_snapshot`]).
    pub fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_snapshot(&mut buf);
        buf.freeze()
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
        let n_sessions = get_varint(buf)?;
        for _ in 0..n_sessions {
            let id = SessionId::decode(buf)?;
            let ttl_ms = get_varint(buf)?;
            let refresh_seq = get_varint(buf)?;
            state.sessions.insert(
                id,
                Session {
                    ttl_ms,
                    refresh_seq,
                },
            );
        }
        for e in get_vec::<EphemeralEntry>(buf)? {
            state.ephemerals.insert(e.key, (e.session, e.value));
        }
        state.next_session = get_varint(buf)?;
        Ok(state)
    }

    fn admit_partition(
        &mut self,
        part: &PartitionWire,
        events: &mut Vec<CoordEvent>,
    ) -> ApplyResult {
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

    fn drop_session(&mut self, session: SessionId, events: &mut Vec<CoordEvent>) {
        if self.sessions.remove(&session).is_none() {
            return;
        }
        let dead: Vec<String> = self
            .ephemerals
            .iter()
            .filter(|(_, (owner, _))| *owner == session)
            .map(|(k, _)| k.clone())
            .collect();
        for key in dead {
            self.ephemerals.remove(&key);
            events.push(CoordEvent::EphemeralChanged { key, alive: false });
        }
        events.push(CoordEvent::SessionExpired { session });
    }

    /// The live sessions, ascending by id.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, &Session)> {
        self.sessions.iter().map(|(id, s)| (*id, s))
    }

    /// One session, if live.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id)
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
        let (body, _) = ok(&mut state, CoordOp::OpenSession { ttl_ms: 100 });
        let CoordOk::Session(session) = body else {
            panic!("expected session")
        };
        ok(
            &mut state,
            CoordOp::RegisterEphemeral {
                session,
                key: "nodes/0".into(),
                value: Bytes::from_static(b"addr"),
            },
        );

        // A keep-alive applied after the observation defeats the expiry.
        ok(&mut state, CoordOp::KeepAlive { session });
        let (_, events) = ok(
            &mut state,
            CoordOp::ExpireSession {
                session,
                seen_refresh: 0,
            },
        );
        assert!(events.is_empty(), "refreshed session must survive");
        assert!(state.session(session).is_some());

        // An expiry with the current refresh takes the session and its
        // ephemerals down, emitting both events.
        let (_, events) = ok(
            &mut state,
            CoordOp::ExpireSession {
                session,
                seen_refresh: 1,
            },
        );
        assert_eq!(
            events,
            vec![
                CoordEvent::EphemeralChanged {
                    key: "nodes/0".into(),
                    alive: false
                },
                CoordEvent::SessionExpired { session },
            ]
        );
        let (body, _) = ok(
            &mut state,
            CoordOp::Ephemerals {
                prefix: String::new(),
            },
        );
        assert_eq!(body, CoordOk::Ephemerals(vec![]));
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
