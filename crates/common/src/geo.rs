//! The shared definition of "the world": EC2 regions and WAN profiles.
//!
//! Both runtimes build their geography from this one module so the
//! numbers cannot drift: [`WanProfile::policy`] turns a profile into the
//! [`LinkPolicy`] of each directed region pair. The discrete-event
//! simulator (`simnet::Topology::ec2`) keeps one per site pair of
//! [`WanProfile::ec2_2014`], and a live geo `[deployment]` config names
//! these regions and resolves its inter-region links through the same
//! function, which the netem layer (`liverun::netem`) applies to real TCP
//! streams.

use std::time::Duration;

use crate::transport::LinkPolicy;

/// The four EC2 regions used in the paper's global experiments (§8.4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Ireland.
    EuWest1,
    /// Northern Virginia.
    UsEast1,
    /// Northern California.
    UsWest1,
    /// Oregon.
    UsWest2,
}

impl Region {
    /// All four regions, in the paper's deployment order.
    pub const ALL: [Region; 4] = [
        Region::EuWest1,
        Region::UsWest1,
        Region::UsEast1,
        Region::UsWest2,
    ];

    /// The three regions the paper's scalability evaluation spans and the
    /// live scenario harness mirrors: Ireland, Virginia, Oregon.
    pub const PAPER_THREE: [Region; 3] = [Region::EuWest1, Region::UsEast1, Region::UsWest2];

    /// Region name as used by AWS.
    pub fn name(self) -> &'static str {
        match self {
            Region::EuWest1 => "eu-west-1",
            Region::UsEast1 => "us-east-1",
            Region::UsWest1 => "us-west-1",
            Region::UsWest2 => "us-west-2",
        }
    }

    /// The region with the given AWS name, if it is one of the four.
    pub fn from_name(name: &str) -> Option<Region> {
        Region::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Row/column index of this region in [`EC2_RTT_MS`].
    pub fn index(self) -> usize {
        match self {
            Region::EuWest1 => 0,
            Region::UsEast1 => 1,
            Region::UsWest1 => 2,
            Region::UsWest2 => 3,
        }
    }
}

/// 2014-era round-trip times between EC2 regions, in milliseconds.
/// Indexed by [`Region::index`]. Sources: contemporaneous inter-region
/// measurements; exact values are not load-bearing for the reproduced
/// shapes, only their relative magnitudes are.
pub const EC2_RTT_MS: [[u64; 4]; 4] = [
    //            eu-w1  us-e1  us-w1  us-w2
    /* eu-w1 */ [0, 80, 170, 140],
    /* us-e1 */ [80, 0, 85, 75],
    /* us-w1 */ [170, 85, 0, 22],
    /* us-w2 */ [140, 75, 22, 0],
];

/// A named WAN profile: RTT matrix plus bandwidth, jitter and loss
/// defaults, from which per-link policies are derived.
#[derive(Clone, Debug)]
pub struct WanProfile {
    /// Round-trip times between distinct regions, milliseconds, indexed
    /// by [`Region::index`].
    pub rtt_ms: [[u64; 4]; 4],
    /// Round-trip time between two nodes in the same region.
    pub intra_rtt: Duration,
    /// Link bandwidth between distinct regions, bytes per second.
    pub inter_bytes_per_sec: u64,
    /// Link bandwidth within one region, bytes per second.
    pub intra_bytes_per_sec: u64,
    /// Proportional jitter in percent of the one-way delay.
    pub jitter_pct: u32,
    /// Percent chunk-loss probability on inter-region links.
    pub loss_pct: u32,
}

impl WanProfile {
    /// The paper's global deployment: four EC2 regions, WAN RTTs from
    /// 2014, 1 Gbps inter-region and 10 Gbps intra-region bandwidth,
    /// 5% proportional jitter, no loss.
    pub fn ec2_2014() -> Self {
        WanProfile {
            rtt_ms: EC2_RTT_MS,
            intra_rtt: Duration::from_micros(500),
            inter_bytes_per_sec: 1_000_000_000 / 8,
            intra_bytes_per_sec: 10_000_000_000 / 8,
            jitter_pct: 5,
            loss_pct: 0,
        }
    }

    /// Looks up a profile by its config name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "ec2-2014" => Some(Self::ec2_2014()),
            _ => None,
        }
    }

    /// Round-trip time between two regions (intra when equal).
    pub fn rtt(&self, a: Region, b: Region) -> Duration {
        if a == b {
            self.intra_rtt
        } else {
            Duration::from_millis(self.rtt_ms[a.index()][b.index()])
        }
    }

    /// The policy for the directed link from `a` to `b`: half the RTT as
    /// one-way delay, the pair's bandwidth class, the profile's jitter,
    /// and loss only on inter-region links.
    pub fn policy(&self, a: Region, b: Region) -> LinkPolicy {
        let intra = a == b;
        LinkPolicy {
            delay: self.rtt(a, b) / 2,
            jitter_pct: self.jitter_pct,
            bytes_per_sec: if intra {
                self.intra_bytes_per_sec
            } else {
                self.inter_bytes_per_sec
            },
            loss_pct: if intra { 0 } else { self.loss_pct },
            blocked: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_matrix_is_symmetric_and_plausible() {
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
    fn region_names_round_trip() {
        for r in Region::ALL {
            assert_eq!(Region::from_name(r.name()), Some(r));
        }
        assert_eq!(Region::from_name("mars-north-1"), None);
    }

    #[test]
    fn ec2_policy_splits_rtt_and_classes_bandwidth() {
        let p = WanProfile::ec2_2014();
        let link = p.policy(Region::EuWest1, Region::UsEast1);
        assert_eq!(link.delay, Duration::from_millis(40));
        assert_eq!(link.bytes_per_sec, 1_000_000_000 / 8);
        let local = p.policy(Region::UsWest2, Region::UsWest2);
        assert_eq!(local.delay, Duration::from_micros(250));
        assert_eq!(local.bytes_per_sec, 10_000_000_000 / 8);
        assert_eq!(local.loss_pct, 0);
    }
}
