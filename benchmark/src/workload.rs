//! The six named workloads: three the acceptance driver runs, three it
//! does not.

use std::time::Duration;

/// How a load thread picks the next key of its table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// YCSB's scrambled zipfian (θ = 0.99).
    ScrambledZipfian,
    Uniform,
}

/// What one load-generator thread does for the whole run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Role {
    /// Single-partition commands, closed loop: `window` in flight, the
    /// next one sent when a reply frees a slot.
    Closed { window: usize },
    /// Single-partition commands, open loop: a seeded Poisson schedule
    /// at `rate` per second, latency counted from the due time.
    Open { rate: f64 },
    /// Multi-partition commands only, closed loop window 1: an
    /// empty-range `Scan` fanned out over the global ring, complete when
    /// every partition answered, the next one sent at once.
    Multi,
    /// The same multi-partition command, one every `every`: the probe
    /// that gives workloads whose load is single-partition a
    /// multi-partition latency without adding load worth mentioning.
    MultiProbe { every: Duration },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    pub partitions: u16,
    pub replicas: u16,
    pub value_bytes: usize,
    /// Share of single-partition commands that are `Read`; the rest are
    /// `Update` (plus one `Add` in every [`ADD_EVERY`]).
    pub read_pct: u32,
    pub dist: KeyDist,
    /// Preloaded keys per single-partition thread.
    pub keys_per_thread: u64,
    /// Per-node segmented WAL, `SyncPolicy::EveryWrite`.
    pub durable: bool,
    /// One partition per paper region behind `liverun::netem`; clients
    /// sit in [`CLIENT_REGION`] and single-partition keys are pinned to
    /// that region's partition.
    pub geo: bool,
    pub roles: Vec<Role>,
    /// Listed in `BENCHMARK.json`, so the acceptance driver runs it and
    /// holds its end-to-end metrics to their bounds. The others run with
    /// `--all` and by name only: their numbers follow the machine more
    /// than the program (see the README).
    pub gated: bool,
}

/// Every this-many single-partition commands one is an `Add` on the
/// thread's counter: the exactly-once check.
pub const ADD_EVERY: u64 = 64;

/// Regions of the `geo_wan` deployment, partition `i` in `GEO_REGIONS[i]`.
pub const GEO_REGIONS: [&str; 3] = ["eu-west-1", "us-east-1", "us-west-2"];
/// Where `geo_wan`'s clients connect from.
pub const CLIENT_REGION: &str = "us-east-1";

const PROBE: Role = Role::MultiProbe {
    every: Duration::from_millis(20),
};

pub fn all() -> Vec<Workload> {
    let base = Workload {
        name: "",
        why: "",
        partitions: 2,
        replicas: 3,
        value_bytes: 1024,
        read_pct: 0,
        dist: KeyDist::Uniform,
        keys_per_thread: 2_000,
        durable: false,
        geo: false,
        roles: vec![
            Role::Open { rate: 1000.0 },
            Role::Open { rate: 1000.0 },
            PROBE,
        ],
        gated: true,
    };
    vec![
        Workload {
            name: "kv_small",
            why: "64 B values, half reads, closed loop of 2 x 32 in flight: per-command cost (framing, batch seal, session table, execute, reply) dominates, bytes are negligible; the one workload that measures capacity",
            value_bytes: 64,
            read_pct: 50,
            dist: KeyDist::ScrambledZipfian,
            keys_per_thread: 10_000,
            roles: vec![
                Role::Closed { window: 32 },
                Role::Closed { window: 32 },
                PROBE,
            ],
            gated: false,
            ..base.clone()
        },
        Workload {
            name: "kv_large",
            why: "8 KiB updates, open loop at 500 ops/s over 500 keys a thread: the large-value path (byte-bounded seal, 8 KiB round a ring of 3) at a rate and footprint the deployment holds without outgrowing memory",
            value_bytes: 8 * 1024,
            keys_per_thread: 500,
            roles: vec![Role::Open { rate: 250.0 }, Role::Open { rate: 250.0 }, PROBE],
            gated: false,
            ..base.clone()
        },
        Workload {
            name: "kv_paced",
            why: "open loop at 2000 ops/s, about 6 % of saturation: the latency floor (batch delay + ring traversal + reply) that users see at normal load",
            ..base.clone()
        },
        Workload {
            name: "kv_durable",
            why: "1 KiB updates, open loop at 1500 ops/s, with storage::wal on the path (fdatasync per delivered batch): durability work must land its cost here and nowhere else",
            durable: true,
            roles: vec![Role::Open { rate: 750.0 }, Role::Open { rate: 750.0 }, PROBE],
            gated: false,
            ..base.clone()
        },
        Workload {
            name: "kv_multi4",
            why: "4 partitions x 2 replicas, single-partition updates in an open loop at 3000 ops/s beside a thread of back-to-back multi-partition commands: merge, skips, global ring, 8 nodes on 2 cores",
            partitions: 4,
            replicas: 2,
            roles: vec![Role::Open { rate: 3000.0 }, Role::Multi],
            ..base.clone()
        },
        Workload {
            name: "geo_wan",
            why: "one partition per paper region behind injected EC2 delays: region-local updates at 1000 ops/s stay local, back-to-back multi-partition commands pay the WAN; CPU is idle, so only hop counts move it",
            partitions: 3,
            replicas: 2,
            geo: true,
            roles: vec![Role::Open { rate: 1000.0 }, Role::Multi],
            ..base
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_workload_measures_both_kinds() {
        let all = all();
        assert_eq!(all.len(), 6);
        for (i, w) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200, "{}: why fits the contract", w.name);
            let multi = |r: &Role| matches!(r, Role::Multi | Role::MultiProbe { .. });
            assert!(w.roles.iter().any(multi), "{}", w.name);
            assert!(w.roles.iter().any(|r| !multi(r)), "{}", w.name);
        }
        assert_eq!(
            by_name("kv_paced").unwrap().roles[0],
            Role::Open { rate: 1000.0 }
        );
        assert!(by_name("nope").is_none());
    }
}
