//! Network topologies: sites, latency matrices and bandwidth.
//!
//! A [`Topology`] places nodes at *sites* (datacenters). Message timing is
//! `propagation(site_a, site_b) + size / bandwidth + jitter`, with the
//! sender's NIC serializing transmissions (modelled in [`crate::Sim`]).
//!
//! Two ready-made profiles mirror the paper's testbeds:
//!
//! * [`Topology::lan`] — the local cluster: 0.1 ms RTT, 10 Gbps.
//! * [`Topology::ec2`] — four Amazon EC2 regions with 2014-era inter-region
//!   round-trip times.

use common::ids::NodeId;
use std::time::Duration;

/// The shared world definition, re-exported so existing `simnet`
/// callers keep compiling; the canonical home is [`common::geo`], which
/// `liverun::netem` builds the identical live world from.
pub use common::geo::{Region, WanProfile, EC2_RTT_MS};

/// Index of a site (datacenter) in a topology.
pub type SiteId = usize;

/// Placement and link characteristics for a set of nodes.
#[derive(Clone, Debug)]
pub struct Topology {
    site_of: Vec<SiteId>,
    /// One-way propagation delay between sites, nanoseconds.
    latency_ns: Vec<Vec<u64>>,
    /// Link bandwidth between sites, bytes per second.
    bandwidth: Vec<Vec<f64>>,
    /// Proportional jitter applied to propagation (0.02 = ±2%).
    jitter_frac: f64,
    /// Loopback latency for self-sends.
    loopback: Duration,
    /// Probability a message is silently dropped (default 0; TCP links).
    loss_prob: f64,
}

impl Topology {
    /// A single-site topology for `sites` = 1: `rtt` round-trip between any
    /// two distinct nodes, `gbps` link bandwidth.
    pub fn single_site(rtt: Duration, gbps: f64) -> Self {
        Topology {
            site_of: Vec::new(),
            latency_ns: vec![vec![(rtt.as_nanos() / 2) as u64]],
            bandwidth: vec![vec![gbps * 1e9 / 8.0]],
            jitter_frac: 0.02,
            loopback: Duration::from_micros(5),
            loss_prob: 0.0,
        }
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
    /// [`WanProfile`] (one-way latency = RTT/2, the profile's bandwidth
    /// classes and proportional jitter).
    pub fn from_profile(profile: &WanProfile) -> Self {
        let n = Region::ALL.len();
        let mut latency_ns = vec![vec![0u64; n]; n];
        let mut bandwidth = vec![vec![0f64; n]; n];
        for a in Region::ALL {
            for b in Region::ALL {
                let (i, j) = (a.index(), b.index());
                latency_ns[i][j] = (profile.rtt(a, b).as_nanos() / 2) as u64;
                bandwidth[i][j] = if i == j {
                    profile.intra_bytes_per_sec as f64
                } else {
                    profile.inter_bytes_per_sec as f64
                };
            }
        }
        Topology {
            site_of: Vec::new(),
            latency_ns,
            bandwidth,
            jitter_frac: profile.jitter_pct as f64 / 100.0,
            loopback: Duration::from_micros(5),
            loss_prob: 0.0,
        }
    }

    /// Number of sites in this topology.
    pub fn sites(&self) -> usize {
        self.latency_ns.len()
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

    /// One-way propagation delay between two nodes (loopback for self).
    pub fn propagation(&self, from: NodeId, to: NodeId) -> Duration {
        if from == to {
            return self.loopback;
        }
        let (a, b) = (self.site(from), self.site(to));
        Duration::from_nanos(self.latency_ns[a][b])
    }

    /// Link bandwidth between two nodes in bytes/second.
    pub fn bandwidth(&self, from: NodeId, to: NodeId) -> f64 {
        if from == to {
            return 40e9 / 8.0; // loopback: effectively memcpy speed
        }
        let (a, b) = (self.site(from), self.site(to));
        self.bandwidth[a][b]
    }

    /// Proportional jitter (fraction of propagation delay).
    pub fn jitter_frac(&self) -> f64 {
        self.jitter_frac
    }

    /// Sets the proportional jitter.
    pub fn set_jitter_frac(&mut self, f: f64) {
        self.jitter_frac = f.max(0.0);
    }

    /// Message loss probability (0 for reliable TCP-like links).
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
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
        let one_way = t.propagation(NodeId::new(0), NodeId::new(1));
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
        let one_way = t.propagation(NodeId::new(0), NodeId::new(1));
        assert_eq!(one_way, Duration::from_millis(40)); // 80 ms RTT
        assert!(
            t.bandwidth(NodeId::new(0), NodeId::new(1))
                < t.bandwidth(NodeId::new(0), NodeId::new(0))
        );
    }

    #[test]
    fn loopback_is_fast() {
        let mut t = Topology::lan();
        t.place(NodeId::new(0), 0);
        assert!(t.propagation(NodeId::new(0), NodeId::new(0)) < Duration::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "nodes must be placed in id order")]
    fn out_of_order_placement_panics() {
        let mut t = Topology::lan();
        t.place(NodeId::new(1), 0);
    }
}
