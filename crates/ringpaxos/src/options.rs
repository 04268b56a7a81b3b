//! Tunables for a ring deployment.

use std::time::Duration;

use common::obs::Obs;
use storage::StorageMode;

/// Packet batching of ring messages (paper §4: message types for several
/// consensus instances are grouped into bigger packets).
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Flush the batch once it holds this many payload bytes (the paper
    /// uses 32 KB packets).
    pub max_bytes: usize,
    /// Flush a non-empty batch after this long regardless of size.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_bytes: 32 * 1024,
            max_delay: Duration::from_millis(5),
        }
    }
}

/// Multi-Ring Paxos rate leveling (paper §4): every `delta`, the
/// coordinator compares the number of proposals in the interval with
/// `lambda × delta` and proposes one skip token making up the difference.
#[derive(Clone, Copy, Debug)]
pub struct RateLeveling {
    /// The comparison interval Δ.
    pub delta: Duration,
    /// Maximum expected rate λ, in messages per second.
    pub lambda: u64,
}

impl RateLeveling {
    /// The paper's intra-datacenter configuration: Δ = 5 ms, λ = 9000.
    pub fn datacenter() -> Self {
        RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 9000,
        }
    }

    /// The paper's cross-datacenter configuration: Δ = 20 ms, λ = 2000.
    pub fn wan() -> Self {
        RateLeveling {
            delta: Duration::from_millis(20),
            lambda: 2000,
        }
    }

    /// Expected number of instances per Δ interval.
    pub fn expected_per_delta(&self) -> u64 {
        ((self.lambda as f64) * self.delta.as_secs_f64())
            .round()
            .max(1.0) as u64
    }
}

/// Per-node options for one ring.
#[derive(Clone, Debug)]
pub struct RingOptions {
    /// Acceptor stable-storage mode.
    pub storage: StorageMode,
    /// Outgoing packet batching; `None` disables batching (as in the
    /// paper's Figure 3 baseline).
    pub batching: Option<BatchPolicy>,
    /// Rate leveling; `None` for plain atomic broadcast.
    pub rate_leveling: Option<RateLeveling>,
    /// Number of instances reserved per pre-executed Phase 1 window.
    pub phase1_window: u64,
    /// Interval between heartbeats to the ring successor.
    pub heartbeat_interval: Duration,
    /// Predecessor silence after which a member reports it failed; 0
    /// disables failure detection (protocol tests).
    pub failure_timeout: Duration,
    /// How long a proposer waits for a decision before re-sending a value.
    pub proposal_retry: Duration,
    /// Maximum `ValueRequest` pulls (re-)issued per liveness tick. Large
    /// frames decide slowly; without a cap, every tick re-pulled *every*
    /// outstanding miss from a rotating acceptor while the previous
    /// resends were still in flight, multiplying the very backlog that
    /// made the pulls slow (the 8 KiB recovery-storm tail). Delivery is
    /// blocked on the lowest missing instance, so pulling the first few
    /// is all that helps anyway.
    pub value_pull_budget: usize,
    /// Payload size (bytes) at or above which a non-coordinating proposer
    /// disseminates the value to every other ring member with
    /// [`common::msg::RingMsg::ValuePush`] *instead of* circulating a
    /// payload-carrying `Proposal` toward the coordinator. The pushes fan
    /// out point-to-point concurrently with ordering, so by decision time
    /// the value is already resident everywhere and the `ValueRequest`
    /// pull stays the slow path. `0` disables eager dissemination.
    pub value_push_bytes: usize,
    /// The node's observability registry. Rings and the hosts built on
    /// them record into it; the default is a fresh private registry, so
    /// nothing is shared until a deployment installs the per-node one.
    pub obs: Obs,
}

impl Default for RingOptions {
    fn default() -> Self {
        RingOptions {
            storage: StorageMode::InMemory,
            batching: None,
            rate_leveling: None,
            phase1_window: 32 * 1024,
            heartbeat_interval: Duration::from_millis(50),
            failure_timeout: Duration::from_millis(500),
            proposal_retry: Duration::from_millis(1000),
            value_pull_budget: 8,
            value_push_bytes: 16 * 1024,
            obs: Obs::default(),
        }
    }
}

impl RingOptions {
    /// Options without failure detection or retries — for deterministic
    /// protocol tests.
    pub fn crash_free() -> Self {
        RingOptions {
            failure_timeout: Duration::ZERO,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_leveling_expected_counts() {
        let dc = RateLeveling::datacenter();
        assert_eq!(dc.expected_per_delta(), 45); // 9000/s × 5 ms
        let wan = RateLeveling::wan();
        assert_eq!(wan.expected_per_delta(), 40); // 2000/s × 20 ms
        let tiny = RateLeveling {
            delta: Duration::from_micros(10),
            lambda: 1,
        };
        assert_eq!(tiny.expected_per_delta(), 1, "clamped to at least one");
    }

    #[test]
    fn defaults_match_paper() {
        let b = BatchPolicy::default();
        assert_eq!(b.max_bytes, 32 * 1024);
        let o = RingOptions::default();
        assert!(o.batching.is_none());
        assert_eq!(o.phase1_window, 32 * 1024);
        assert!(RingOptions::crash_free().failure_timeout.is_zero());
    }
}
