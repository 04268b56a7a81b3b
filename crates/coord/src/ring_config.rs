//! Static description of one Ring Paxos ring.

use common::error::{Error, Result};
use common::ids::{Epoch, NodeId, RingId};
use common::wire::coord::{CoordOk, RingConfigWire};

/// Membership and roles of one ring.
///
/// `members` fixes the ring order (each process forwards to its successor);
/// `acceptors` is the subset voting in consensus; the `coordinator` is one
/// of the acceptors. The ring is "oblivious to the relative position of
/// processes" (§4) — any order works, but all members must agree on it,
/// which is why it lives in the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingConfig {
    ring: RingId,
    members: Vec<NodeId>,
    acceptors: Vec<NodeId>,
    coordinator: NodeId,
    epoch: Epoch,
}

impl RingConfig {
    /// Creates a ring over `members` (in ring order) where `acceptors`
    /// vote. The first acceptor starts as coordinator.
    ///
    /// # Errors
    ///
    /// Fails if `members` is empty, `acceptors` is empty, an acceptor is
    /// not a member, or `members` contains duplicates.
    pub fn new(ring: RingId, members: Vec<NodeId>, acceptors: Vec<NodeId>) -> Result<Self> {
        if members.is_empty() {
            return Err(Error::Config(format!("ring {ring} has no members")));
        }
        if acceptors.is_empty() {
            return Err(Error::Config(format!("ring {ring} has no acceptors")));
        }
        let mut seen = std::collections::HashSet::new();
        for m in &members {
            if !seen.insert(*m) {
                return Err(Error::Config(format!("ring {ring}: duplicate member {m}")));
            }
        }
        for a in &acceptors {
            if !members.contains(a) {
                return Err(Error::Config(format!(
                    "ring {ring}: acceptor {a} is not a member"
                )));
            }
        }
        let coordinator = acceptors[0];
        Ok(RingConfig {
            ring,
            members,
            acceptors,
            coordinator,
            epoch: Epoch::new(1),
        })
    }

    /// Reconstructs a configuration from its wire form, trusting every
    /// field (the coordination service is the authority on epochs and
    /// elected coordinators; [`RingConfig::new`] would reset both).
    ///
    /// # Errors
    ///
    /// Fails on structurally invalid configurations (empty membership,
    /// acceptors outside the membership, duplicates).
    pub fn from_wire(wire: &RingConfigWire) -> Result<Self> {
        let mut cfg = RingConfig::new(wire.ring, wire.members.clone(), wire.acceptors.clone())?;
        if !cfg.is_acceptor(wire.coordinator) {
            return Err(Error::Config(format!(
                "ring {}: wire coordinator {} is not an acceptor",
                wire.ring, wire.coordinator
            )));
        }
        cfg.coordinator = wire.coordinator;
        cfg.epoch = wire.epoch;
        Ok(cfg)
    }

    /// The configuration a coordination answer carries (a failure
    /// report's, a rejoin's or a read's); `None` for any other answer.
    pub fn from_answer(body: &CoordOk) -> Option<Self> {
        match body {
            CoordOk::Config(wire) | CoordOk::Ring(Some(wire)) => RingConfig::from_wire(wire).ok(),
            _ => None,
        }
    }

    /// This configuration's wire form.
    pub fn to_wire(&self) -> RingConfigWire {
        RingConfigWire {
            ring: self.ring,
            members: self.members.clone(),
            acceptors: self.acceptors.clone(),
            coordinator: self.coordinator,
            epoch: self.epoch,
        }
    }

    /// The ring id (= multicast group id).
    pub fn ring(&self) -> RingId {
        self.ring
    }

    /// Members in ring order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The voting acceptors.
    pub fn acceptors(&self) -> &[NodeId] {
        &self.acceptors
    }

    /// The current coordinator.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// The current configuration epoch (bumped on every coordinator
    /// change; used as the ballot round base after failover).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// True if `node` participates in this ring.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// True if `node` votes.
    pub fn is_acceptor(&self, node: NodeId) -> bool {
        self.acceptors.contains(&node)
    }

    /// The process after `node` in ring order (wrapping).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member.
    pub fn successor(&self, node: NodeId) -> NodeId {
        let pos = self
            .members
            .iter()
            .position(|m| *m == node)
            .expect("successor of non-member");
        self.members[(pos + 1) % self.members.len()]
    }

    /// Number of votes required to decide (majority of acceptors).
    pub fn majority(&self) -> u16 {
        (self.acceptors.len() / 2 + 1) as u16
    }

    /// Initial TTL for circulating messages: every other member sees the
    /// message exactly once.
    pub fn initial_ttl(&self) -> u16 {
        (self.members.len() - 1) as u16
    }

    /// Installs a new coordinator, bumping the epoch. Returns the new
    /// epoch.
    ///
    /// # Errors
    ///
    /// Fails if `node` is not an acceptor of this ring.
    pub fn set_coordinator(&mut self, node: NodeId) -> Result<Epoch> {
        if !self.is_acceptor(node) {
            return Err(Error::Config(format!(
                "coordinator {node} must be an acceptor of ring {}",
                self.ring
            )));
        }
        self.coordinator = node;
        self.epoch = Epoch::new(self.epoch.raw() + 1);
        Ok(self.epoch)
    }

    /// The acceptor after `failed` in acceptor order (wrapping) — the
    /// default failover choice.
    pub fn next_acceptor_after(&self, failed: NodeId) -> NodeId {
        match self.acceptors.iter().position(|a| *a == failed) {
            Some(pos) => self.acceptors[(pos + 1) % self.acceptors.len()],
            None => self.acceptors[0],
        }
    }

    /// Removes a failed member from the ring, bumping the epoch. If the
    /// member was the coordinator, the next acceptor takes over.
    ///
    /// # Errors
    ///
    /// Fails if `node` is not a member, or removing it would leave the
    /// ring without members or acceptors.
    pub fn remove_member(&mut self, node: NodeId) -> Result<Epoch> {
        if !self.contains(node) {
            return Err(Error::Config(format!(
                "cannot remove non-member {node} from ring {}",
                self.ring
            )));
        }
        if self.members.len() == 1 {
            return Err(Error::Config(format!(
                "cannot remove the last member of ring {}",
                self.ring
            )));
        }
        if self.acceptors == [node] {
            return Err(Error::Config(format!(
                "cannot remove the last acceptor of ring {}",
                self.ring
            )));
        }
        let new_coordinator = if self.coordinator == node {
            Some(self.next_acceptor_after(node))
        } else {
            None
        };
        self.members.retain(|m| *m != node);
        self.acceptors.retain(|a| *a != node);
        if let Some(c) = new_coordinator {
            self.coordinator = c;
        }
        self.epoch = Epoch::new(self.epoch.raw() + 1);
        Ok(self.epoch)
    }

    /// Re-adds a recovered member at the end of the ring order, bumping
    /// the epoch. `as_acceptor` restores its voting role.
    ///
    /// # Errors
    ///
    /// Fails if `node` is already a member.
    pub fn add_member(&mut self, node: NodeId, as_acceptor: bool) -> Result<Epoch> {
        if self.contains(node) {
            return Err(Error::Config(format!(
                "{node} is already a member of ring {}",
                self.ring
            )));
        }
        self.members.push(node);
        if as_acceptor {
            self.acceptors.push(node);
        }
        self.epoch = Epoch::new(self.epoch.raw() + 1);
        Ok(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|i| NodeId::new(*i)).collect()
    }

    #[test]
    fn basic_ring_roles() {
        let cfg = RingConfig::new(RingId::new(0), nodes(&[1, 2, 3, 4]), nodes(&[1, 2, 3])).unwrap();
        assert_eq!(cfg.coordinator(), NodeId::new(1));
        assert_eq!(cfg.majority(), 2);
        assert_eq!(cfg.initial_ttl(), 3);
        assert!(cfg.is_acceptor(NodeId::new(2)));
        assert!(!cfg.is_acceptor(NodeId::new(4)));
        assert!(cfg.contains(NodeId::new(4)));
    }

    #[test]
    fn successor_wraps() {
        let cfg = RingConfig::new(RingId::new(0), nodes(&[5, 7, 9]), nodes(&[5])).unwrap();
        assert_eq!(cfg.successor(NodeId::new(5)), NodeId::new(7));
        assert_eq!(cfg.successor(NodeId::new(9)), NodeId::new(5));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(RingConfig::new(RingId::new(0), vec![], vec![]).is_err());
        assert!(RingConfig::new(RingId::new(0), nodes(&[1]), vec![]).is_err());
        assert!(RingConfig::new(RingId::new(0), nodes(&[1]), nodes(&[2])).is_err());
        assert!(RingConfig::new(RingId::new(0), nodes(&[1, 1]), nodes(&[1])).is_err());
    }

    #[test]
    fn coordinator_change_bumps_epoch() {
        let mut cfg = RingConfig::new(RingId::new(0), nodes(&[1, 2, 3]), nodes(&[1, 2])).unwrap();
        let e0 = cfg.epoch();
        let e1 = cfg.set_coordinator(NodeId::new(2)).unwrap();
        assert!(e1 > e0);
        assert_eq!(cfg.coordinator(), NodeId::new(2));
        assert!(cfg.set_coordinator(NodeId::new(3)).is_err()); // not an acceptor
    }

    #[test]
    fn wire_form_round_trips_epoch_and_coordinator() {
        let mut cfg = RingConfig::new(RingId::new(3), nodes(&[1, 2, 3]), nodes(&[1, 2])).unwrap();
        cfg.set_coordinator(NodeId::new(2)).unwrap();
        let back = RingConfig::from_wire(&cfg.to_wire()).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.epoch(), Epoch::new(2));
        assert_eq!(back.coordinator(), NodeId::new(2));

        // A wire config whose coordinator is not an acceptor is rejected.
        let mut bad = cfg.to_wire();
        bad.coordinator = NodeId::new(3);
        assert!(RingConfig::from_wire(&bad).is_err());
    }

    #[test]
    fn failover_picks_next_acceptor() {
        let cfg = RingConfig::new(RingId::new(0), nodes(&[1, 2, 3]), nodes(&[1, 2, 3])).unwrap();
        assert_eq!(cfg.next_acceptor_after(NodeId::new(1)), NodeId::new(2));
        assert_eq!(cfg.next_acceptor_after(NodeId::new(3)), NodeId::new(1));
        assert_eq!(cfg.next_acceptor_after(NodeId::new(99)), NodeId::new(1));
    }
}
