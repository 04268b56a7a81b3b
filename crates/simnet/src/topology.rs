//! Network topologies: sites, and the link policy between each pair.
//!
//! A [`Topology`] places nodes at *sites* (datacenters) and keeps one
//! [`LinkPolicy`] per ordered site pair — the same policy type the live
//! netem layer shapes real sockets with. [`crate::Sim`] times every hop
//! through a [`common::transport::LinkShaper`] per directed node pair:
//! `serialization at the link's bandwidth + delay + jitter`, FIFO.
//!
//! Two ready-made profiles mirror the paper's testbeds:
//!
//! * [`Topology::lan`] — the local cluster: 0.1 ms RTT, 10 Gbps.
//! * [`Topology::ec2`] — four Amazon EC2 regions with 2014-era inter-region
//!   round-trip times.

use common::ids::NodeId;
use common::transport::LinkPolicy;
use std::time::Duration;

/// The shared world definition, re-exported so existing `simnet`
/// callers keep compiling; the canonical home is [`common::geo`], which
/// `liverun::netem` builds the identical live world from.
pub use common::geo::{Region, WanProfile, EC2_RTT_MS};

/// Index of a site (datacenter) in a topology.
pub type SiteId = usize;

/// Placement and link policies for a set of nodes.
///
/// Simulated links are reliable: a policy's `loss_pct` and `blocked` are
/// not applied (partitions are [`crate::Sim::partition`]'s business).
#[derive(Clone, Debug)]
pub struct Topology {
    site_of: Vec<SiteId>,
    /// `links[a][b]`: the directed link from site `a` to site `b`.
    links: Vec<Vec<LinkPolicy>>,
    /// A node's sends to itself: 5 µs at memcpy speed.
    loopback: LinkPolicy,
}

impl Topology {
    /// A single-site topology for `sites` = 1: `rtt` round-trip between any
    /// two distinct nodes, `gbps` link bandwidth, 2% jitter.
    pub fn single_site(rtt: Duration, gbps: f64) -> Self {
        let link = LinkPolicy {
            delay: rtt / 2,
            bytes_per_sec: (gbps * 1e9 / 8.0) as u64,
            ..LinkPolicy::unshaped()
        };
        Self::with_links(vec![vec![link]], 2)
    }

    /// The paper's local cluster: 0.1 ms RTT, 10 Gbps, one site.
    pub fn lan() -> Self {
        Self::single_site(Duration::from_micros(100), 10.0)
    }

    /// The paper's global deployment: four EC2 regions, WAN RTTs from 2014,
    /// 1 Gbps inter-region bandwidth and 10 Gbps intra-region. Derived
    /// from [`WanProfile::ec2_2014`] — the same profile the live netem
    /// layer shapes real sockets with.
    pub fn ec2() -> Self {
        Self::from_profile(&WanProfile::ec2_2014())
    }

    /// Builds a topology with one site per [`Region`] from a shared
    /// [`WanProfile`]: the link between two sites is
    /// [`WanProfile::policy`], as a live geo deployment's is.
    pub fn from_profile(profile: &WanProfile) -> Self {
        let mut links = vec![vec![LinkPolicy::unshaped(); Region::ALL.len()]; Region::ALL.len()];
        for a in Region::ALL {
            for b in Region::ALL {
                links[a.index()][b.index()] = profile.policy(a, b);
            }
        }
        Self::with_links(links, profile.jitter_pct)
    }

    fn with_links(links: Vec<Vec<LinkPolicy>>, jitter_pct: u32) -> Self {
        let mut topology = Topology {
            site_of: Vec::new(),
            links,
            loopback: LinkPolicy {
                delay: Duration::from_micros(5),
                bytes_per_sec: 40_000_000_000 / 8,
                ..LinkPolicy::unshaped()
            },
        };
        topology.set_jitter_pct(jitter_pct);
        topology
    }

    /// Number of sites in this topology.
    pub fn sites(&self) -> usize {
        self.links.len()
    }

    /// The site index for `region` in the [`Topology::ec2`] profile.
    pub fn site_of_region(region: Region) -> SiteId {
        region.index()
    }

    /// Records that `node` lives at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` does not exist or nodes are registered out of
    /// order (node ids must be dense and ascending).
    pub fn place(&mut self, node: NodeId, site: SiteId) {
        assert!(site < self.sites(), "site {site} out of range");
        assert_eq!(
            node.raw() as usize,
            self.site_of.len(),
            "nodes must be placed in id order"
        );
        self.site_of.push(site);
    }

    /// The site a node lives at.
    ///
    /// # Panics
    ///
    /// Panics if the node was never placed.
    pub fn site(&self, node: NodeId) -> SiteId {
        self.site_of[node.raw() as usize]
    }

    /// The policy of the directed link from site `a` to site `b`.
    pub fn link(&self, a: SiteId, b: SiteId) -> &LinkPolicy {
        &self.links[a][b]
    }

    /// The policy a hop from `from` to `to` travels under: the link
    /// between their sites, or loopback for a self-send.
    pub fn policy(&self, from: NodeId, to: NodeId) -> &LinkPolicy {
        if from == to {
            return &self.loopback;
        }
        self.link(self.site(from), self.site(to))
    }

    /// Sets the proportional jitter of every link, in percent of its
    /// delay.
    pub fn set_jitter_pct(&mut self, pct: u32) {
        for link in self.links.iter_mut().flatten() {
            link.jitter_pct = pct;
        }
        self.loopback.jitter_pct = pct;
    }
}

impl Default for Topology {
    /// The LAN profile.
    fn default() -> Self {
        Self::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_has_100us_rtt() {
        let mut t = Topology::lan();
        t.place(NodeId::new(0), 0);
        t.place(NodeId::new(1), 0);
        let one_way = t.policy(NodeId::new(0), NodeId::new(1)).delay;
        assert_eq!(one_way, Duration::from_micros(50));
    }

    #[test]
    fn ec2_matrix_is_symmetric_and_plausible() {
        for (a, row) in EC2_RTT_MS.iter().enumerate() {
            for (b, rtt) in row.iter().enumerate() {
                assert_eq!(*rtt, EC2_RTT_MS[b][a]);
                if a != b {
                    assert!((20..=200).contains(rtt));
                }
            }
        }
    }

    #[test]
    fn ec2_regions_place_and_measure() {
        let mut t = Topology::ec2();
        t.place(NodeId::new(0), Topology::site_of_region(Region::EuWest1));
        t.place(NodeId::new(1), Topology::site_of_region(Region::UsEast1));
        let one_way = t.policy(NodeId::new(0), NodeId::new(1)).delay;
        assert_eq!(one_way, Duration::from_millis(40)); // 80 ms RTT
        assert!(
            t.policy(NodeId::new(0), NodeId::new(1)).bytes_per_sec
                < t.policy(NodeId::new(0), NodeId::new(0)).bytes_per_sec
        );
        // One spec for both drivers: every simulated link is the policy a
        // live geo deployment gives the same region pair.
        let profile = WanProfile::ec2_2014();
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(
                    *t.link(Topology::site_of_region(a), Topology::site_of_region(b)),
                    profile.policy(a, b),
                    "{} -> {}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn loopback_is_fast() {
        let mut t = Topology::lan();
        t.place(NodeId::new(0), 0);
        assert!(t.policy(NodeId::new(0), NodeId::new(0)).delay < Duration::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "nodes must be placed in id order")]
    fn out_of_order_placement_panics() {
        let mut t = Topology::lan();
        t.place(NodeId::new(1), 0);
    }
}
