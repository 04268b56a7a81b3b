//! The shared configuration registry facade.
//!
//! [`Registry`] is the handle that seeds and inspects coordination from
//! outside the protocol's event loops: deployments register rings and
//! partitions through it, ring nodes and hosts read their initial
//! configuration from it when they are built, services publish metadata,
//! tools and tests read state. It delegates to a [`Coord`] backend:
//!
//! * [`LocalCoord`](crate::local::LocalCoord) — the in-process state
//!   machine (simulator, unit tests, single-process deployments);
//! * `liverun`'s coordination link — a client of an `amcoordd` ensemble,
//!   with a watch-updated configuration cache, driven by its caller's
//!   thread.
//!
//! Once built, ring nodes and hosts no longer call it: they ask
//! coordination by message (a failure report, a config read, a rejoin)
//! and their driver routes the ask — the simulator to a coordination
//! process, the live node loop to its registry or its link — and the
//! registry answers it with [`Registry::answer`].
//!
//! Like Zookeeper in the paper (§7.1), coordination sits *off* the
//! critical message path: processes consult it at configuration time and
//! during failover, never per-request.

use std::any::Any;
use std::sync::Arc;

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{Epoch, NodeId, PartitionId, RingId, SessionId};
use common::msg::Msg;
use common::wire::coord::{
    answer, asked, CoordOk, CoordOp, ElectOutcome, EphemeralEntry, PartitionWire, RingConfigWire,
};

use crate::ring_config::RingConfig;

/// A coordination backend: somewhere [`CoordOp`]s can be applied.
/// (`Any`, so a driver can find its own backend behind a [`Registry`].)
pub trait Coord: Any + Send + Sync + std::fmt::Debug {
    /// Applies one operation and returns its result.
    ///
    /// # Errors
    ///
    /// Fails if the operation is refused by the state machine or (for
    /// remote backends) the service does not answer in time.
    fn call(&self, op: CoordOp) -> Result<CoordOk>;

    /// The backend's own session with the service, if it maintains one
    /// (remote backends keep a TTL session alive; the local backend has
    /// no liveness to prove).
    fn session(&self) -> Option<SessionId>;
}

/// A service partition: the set of replicas that subscribe to the same set
/// of multicast groups (paper §5.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Rings every replica of this partition subscribes to, ascending.
    pub rings: Vec<RingId>,
    /// The replicas of the partition.
    pub replicas: Vec<NodeId>,
}

impl PartitionInfo {
    /// Majority quorum size over the partition's replicas — used for both
    /// the trim quorum `Q_T` and the recovery quorum `Q_R`, guaranteeing
    /// `Q_T ∩ Q_R ≠ ∅` (Predicates 2–5).
    pub fn quorum(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    fn to_wire(&self, partition: PartitionId) -> PartitionWire {
        PartitionWire {
            partition,
            rings: self.rings.clone(),
            replicas: self.replicas.clone(),
        }
    }

    /// A partition from its wire form.
    pub fn from_wire(wire: &PartitionWire) -> Self {
        PartitionInfo {
            rings: wire.rings.clone(),
            replicas: wire.replicas.clone(),
        }
    }
}

/// Cheaply clonable handle to the shared registry.
///
/// All methods take `&self`; clones share the backend, mirroring how every
/// process talks to the same coordination ensemble.
#[derive(Clone, Debug)]
pub struct Registry {
    backend: Arc<dyn Coord>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty in-process registry.
    pub fn new() -> Self {
        Registry::from_backend(Arc::new(crate::local::LocalCoord::new()))
    }

    /// A registry over an explicit backend (a shared
    /// [`LocalCoord`](crate::local::LocalCoord), a link to an `amcoordd`
    /// ensemble, a test double).
    pub fn from_backend(backend: Arc<dyn Coord>) -> Self {
        Registry { backend }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &Arc<dyn Coord> {
        &self.backend
    }

    /// Applies one operation.
    ///
    /// # Errors
    ///
    /// Fails if the backend refuses the operation.
    pub fn call(&self, op: CoordOp) -> Result<CoordOk> {
        self.backend.call(op)
    }

    /// Answers a coordination ask that arrived as a message
    /// ([`common::wire::coord::ask`]) from node `me`: how every driver
    /// that holds the registry itself applies an ask. `None` for any
    /// other message.
    pub fn answer(&self, msg: &Msg, me: NodeId) -> Option<Msg> {
        let (seq, op) = asked(msg)?;
        Some(answer(seq, me, self.call(op)))
    }

    /// Registers a ring configuration.
    ///
    /// # Errors
    ///
    /// Fails if the ring id is already registered.
    pub fn register_ring(&self, cfg: RingConfig) -> Result<()> {
        self.backend
            .call(CoordOp::RegisterRing { cfg: cfg.to_wire() })
            .map(|_| ())
    }

    /// Idempotent ring bootstrap: registers `cfg`, or adopts whatever
    /// configuration the service already holds for the ring (one-
    /// process-per-node deployments seed concurrently; first writer wins,
    /// the rest adopt). Returns the live configuration.
    ///
    /// # Errors
    ///
    /// Fails if `cfg` is structurally invalid or the service is
    /// unreachable.
    pub fn ensure_ring(&self, cfg: RingConfig) -> Result<RingConfig> {
        match self
            .backend
            .call(CoordOp::EnsureRing { cfg: cfg.to_wire() })?
        {
            CoordOk::Config(wire) => RingConfig::from_wire(&wire),
            other => Err(unexpected("EnsureRing", &other)),
        }
    }

    /// A snapshot of the configuration of `ring`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::UnknownRing`] if never registered.
    pub fn ring(&self, ring: RingId) -> Result<RingConfig> {
        match self.backend.call(CoordOp::GetRing { ring })? {
            CoordOk::Ring(Some(wire)) => RingConfig::from_wire(&wire),
            CoordOk::Ring(None) => Err(Error::UnknownRing(ring)),
            other => Err(unexpected("GetRing", &other)),
        }
    }

    /// All registered ring ids, ascending.
    pub fn ring_ids(&self) -> Vec<RingId> {
        match self.backend.call(CoordOp::RingIds) {
            Ok(CoordOk::RingIds(ids)) => ids,
            _ => Vec::new(),
        }
    }

    /// Elects `candidate` coordinator of `ring` *if* the caller's view is
    /// current (`seen_epoch` matches). Returns the new epoch on success,
    /// or the current config when someone else won the race — exactly the
    /// compare-and-swap shape a ZK znode election gives.
    ///
    /// # Errors
    ///
    /// Fails if the ring is unknown or `candidate` is not an acceptor.
    pub fn elect_coordinator(
        &self,
        ring: RingId,
        candidate: NodeId,
        seen_epoch: Epoch,
    ) -> Result<std::result::Result<Epoch, RingConfig>> {
        match self.backend.call(CoordOp::ElectCoordinator {
            ring,
            candidate,
            seen_epoch,
        })? {
            CoordOk::Election(ElectOutcome::Won(epoch)) => Ok(Ok(epoch)),
            CoordOk::Election(ElectOutcome::Lost(wire)) => Ok(Err(RingConfig::from_wire(&wire)?)),
            other => Err(unexpected("ElectCoordinator", &other)),
        }
    }

    /// Re-admits a recovered `node` into `ring` (idempotent). Returns the
    /// resulting config.
    ///
    /// # Errors
    ///
    /// Fails if the ring is unknown.
    pub fn rejoin(&self, ring: RingId, node: NodeId, as_acceptor: bool) -> Result<RingConfig> {
        match self.backend.call(CoordOp::Rejoin {
            ring,
            node,
            as_acceptor,
        })? {
            CoordOk::Config(wire) => RingConfig::from_wire(&wire),
            other => Err(unexpected("Rejoin", &other)),
        }
    }

    /// Installs `cfg` if it is newer than the stored configuration —
    /// the gossip path the `amcoordd` ensemble uses for its own ring.
    ///
    /// # Errors
    ///
    /// Fails if `cfg` is structurally invalid.
    pub fn install_config(&self, cfg: RingConfigWire) -> Result<()> {
        self.backend
            .call(CoordOp::InstallConfig { cfg })
            .map(|_| ())
    }

    /// Records that `node` subscribes to (delivers from) `ring`.
    pub fn subscribe(&self, ring: RingId, node: NodeId) {
        let _ = self.backend.call(CoordOp::Subscribe { ring, node });
    }

    /// The learners subscribed to `ring` — the electorate of the trim
    /// protocol for that ring.
    pub fn subscribers(&self, ring: RingId) -> Vec<NodeId> {
        match self.backend.call(CoordOp::Subscribers { ring }) {
            Ok(CoordOk::Nodes(nodes)) => nodes,
            _ => Vec::new(),
        }
    }

    /// Registers a service partition and its replica set, and records each
    /// replica's subscriptions.
    ///
    /// # Errors
    ///
    /// Fails if the partition id is taken or a replica already belongs to
    /// another partition.
    pub fn register_partition(&self, partition: PartitionId, info: PartitionInfo) -> Result<()> {
        self.backend
            .call(CoordOp::RegisterPartition {
                part: info.to_wire(partition),
            })
            .map(|_| ())
    }

    /// Idempotent partition bootstrap (see [`Registry::ensure_ring`]).
    ///
    /// # Errors
    ///
    /// Fails if the definition is invalid or the service unreachable.
    pub fn ensure_partition(&self, partition: PartitionId, info: PartitionInfo) -> Result<()> {
        self.backend
            .call(CoordOp::EnsurePartition {
                part: info.to_wire(partition),
            })
            .map(|_| ())
    }

    /// The partition `replica` belongs to, if any.
    pub fn partition_of(&self, replica: NodeId) -> Option<PartitionId> {
        match self.backend.call(CoordOp::PartitionOf { replica }) {
            Ok(CoordOk::PartitionOf(p)) => p,
            _ => None,
        }
    }

    /// All partitions, ascending by id.
    pub fn partitions(&self) -> Vec<(PartitionId, PartitionInfo)> {
        match self.backend.call(CoordOp::Partitions) {
            Ok(CoordOk::Partitions(ps)) => ps
                .iter()
                .map(|p| (p.partition, PartitionInfo::from_wire(p)))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Stores a metadata blob under `key` (like writing a znode),
    /// unconditionally.
    pub fn set_meta(&self, key: impl Into<String>, value: Bytes) {
        let _ = self.backend.call(CoordOp::SetMeta {
            key: key.into(),
            value,
            expected_version: None,
        });
    }

    /// Versioned metadata write: succeeds only if the key's current
    /// version equals `expected` (0 for "must not exist yet"). Returns the
    /// new version.
    ///
    /// # Errors
    ///
    /// Fails if the writer's view is stale.
    pub fn set_meta_cas(&self, key: impl Into<String>, value: Bytes, expected: u64) -> Result<u64> {
        match self.backend.call(CoordOp::SetMeta {
            key: key.into(),
            value,
            expected_version: Some(expected),
        })? {
            CoordOk::Version(v) => Ok(v),
            other => Err(unexpected("SetMeta", &other)),
        }
    }

    /// Reads the metadata blob at `key`.
    pub fn meta(&self, key: &str) -> Option<Bytes> {
        self.meta_versioned(key).map(|(_, value)| value)
    }

    /// Reads the metadata blob at `key` with its version.
    pub fn meta_versioned(&self, key: &str) -> Option<(u64, Bytes)> {
        match self.backend.call(CoordOp::GetMeta { key: key.into() }) {
            Ok(CoordOk::Meta(m)) => m,
            _ => None,
        }
    }

    /// Registers an ephemeral entry under the backend's own session (the
    /// "I am alive, here is how to reach me" advertisement every live node
    /// publishes). A backend without a session of its own — the in-process
    /// one — registers it under session 0, which never expires. Returns
    /// the owning session.
    ///
    /// # Errors
    ///
    /// Fails if the service is unreachable.
    pub fn announce(&self, key: impl Into<String>, value: Bytes) -> Result<SessionId> {
        let session = self.backend.session().unwrap_or(SessionId::new(0));
        (self.backend).call(CoordOp::RegisterEphemeral {
            session,
            key: key.into(),
            value,
        })?;
        Ok(session)
    }

    /// Lists ephemeral entries whose key starts with `prefix`.
    pub fn ephemerals(&self, prefix: &str) -> Vec<EphemeralEntry> {
        match self.backend.call(CoordOp::Ephemerals {
            prefix: prefix.into(),
        }) {
            Ok(CoordOk::Ephemerals(es)) => es,
            _ => Vec::new(),
        }
    }
}

fn unexpected(op: &str, body: &CoordOk) -> Error {
    Error::Config(format!("{op}: unexpected reply shape {body:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|i| NodeId::new(*i)).collect()
    }

    fn ring0() -> RingConfig {
        RingConfig::new(RingId::new(0), nodes(&[1, 2, 3]), nodes(&[1, 2, 3])).unwrap()
    }

    #[test]
    fn register_and_fetch_ring() {
        let reg = Registry::new();
        reg.register_ring(ring0()).unwrap();
        let cfg = reg.ring(RingId::new(0)).unwrap();
        assert_eq!(cfg.coordinator(), NodeId::new(1));
        assert!(matches!(
            reg.ring(RingId::new(9)),
            Err(Error::UnknownRing(_))
        ));
        assert!(reg.register_ring(ring0()).is_err());
        assert_eq!(reg.ring_ids(), vec![RingId::new(0)]);
    }

    #[test]
    fn election_is_compare_and_swap() {
        let reg = Registry::new();
        reg.register_ring(ring0()).unwrap();
        let e0 = reg.ring(RingId::new(0)).unwrap().epoch();

        // First candidate wins.
        let won = reg
            .elect_coordinator(RingId::new(0), NodeId::new(2), e0)
            .unwrap();
        let new_epoch = won.expect("first election succeeds");
        assert!(new_epoch > e0);

        // A racer with the stale epoch loses and learns the new config.
        let lost = reg
            .elect_coordinator(RingId::new(0), NodeId::new(3), e0)
            .unwrap();
        let cfg = lost.expect_err("stale epoch must lose");
        assert_eq!(cfg.coordinator(), NodeId::new(2));
        assert_eq!(cfg.epoch(), new_epoch);
    }

    #[test]
    fn subscriptions_deduplicate() {
        let reg = Registry::new();
        reg.subscribe(RingId::new(1), NodeId::new(5));
        reg.subscribe(RingId::new(1), NodeId::new(5));
        reg.subscribe(RingId::new(1), NodeId::new(6));
        assert_eq!(reg.subscribers(RingId::new(1)), nodes(&[5, 6]));
        assert!(reg.subscribers(RingId::new(2)).is_empty());
    }

    #[test]
    fn partitions_register_subscriptions() {
        let reg = Registry::new();
        let info = PartitionInfo {
            rings: vec![RingId::new(0), RingId::new(9)],
            replicas: nodes(&[10, 11, 12]),
        };
        reg.register_partition(PartitionId::new(0), info.clone())
            .unwrap();
        assert_eq!(reg.partition_of(NodeId::new(11)), Some(PartitionId::new(0)));
        assert_eq!(reg.partitions(), [(PartitionId::new(0), info.clone())]);
        assert_eq!(reg.subscribers(RingId::new(9)), nodes(&[10, 11, 12]));
        assert_eq!(info.quorum(), 2);

        // A replica cannot be in two partitions.
        let bad = PartitionInfo {
            rings: vec![RingId::new(1)],
            replicas: nodes(&[11]),
        };
        assert!(reg.register_partition(PartitionId::new(1), bad).is_err());

        // Idempotent bootstrap tolerates the re-registration race.
        reg.ensure_partition(PartitionId::new(0), info).unwrap();
    }

    #[test]
    fn meta_blobs() {
        let reg = Registry::new();
        reg.set_meta("partitioning", Bytes::from_static(b"hash:3"));
        assert_eq!(
            reg.meta("partitioning").unwrap(),
            Bytes::from_static(b"hash:3")
        );
        assert!(reg.meta("absent").is_none());
    }

    #[test]
    fn versioned_meta_cas() {
        let reg = Registry::new();
        let v1 = reg
            .set_meta_cas("scheme", Bytes::from_static(b"a"), 0)
            .unwrap();
        assert_eq!(v1, 1);
        assert!(reg
            .set_meta_cas("scheme", Bytes::from_static(b"b"), 0)
            .is_err());
        let v2 = reg
            .set_meta_cas("scheme", Bytes::from_static(b"b"), v1)
            .unwrap();
        assert_eq!(v2, 2);
        assert_eq!(
            reg.meta_versioned("scheme"),
            Some((2, Bytes::from_static(b"b")))
        );
    }

    #[test]
    fn registry_clones_share_state() {
        let a = Registry::new();
        let b = a.clone();
        a.register_ring(ring0()).unwrap();
        assert!(b.ring(RingId::new(0)).is_ok());
    }

    #[test]
    fn elections_bump_the_epoch_exactly_once() {
        let reg = Registry::new();
        reg.register_ring(ring0()).unwrap();
        let e0 = reg.ring(RingId::new(0)).unwrap().epoch();
        reg.elect_coordinator(RingId::new(0), NodeId::new(2), e0)
            .unwrap()
            .expect("wins");
        // The losing CAS changes nothing.
        reg.elect_coordinator(RingId::new(0), NodeId::new(3), e0)
            .unwrap()
            .expect_err("stale epoch loses");
        let cfg = reg.ring(RingId::new(0)).unwrap();
        assert_eq!(cfg.coordinator(), NodeId::new(2));
        assert_eq!(cfg.epoch(), Epoch::new(2), "exactly one bump");
    }

    #[test]
    fn announce_registers_an_ephemeral_owned_by_session_zero() {
        let reg = Registry::new();
        let session = reg
            .announce("nodes/7", Bytes::from_static(b"127.0.0.1:7400"))
            .unwrap();
        assert_eq!(session, SessionId::new(0));
        let entries = reg.ephemerals("nodes/");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, "nodes/7");
        assert_eq!(entries[0].session, session);
    }
}
