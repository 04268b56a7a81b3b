//! Key partitioning schemes (paper §6.1).
//!
//! "Applications can decide whether the data is hash- or range-partitioned,
//! and clients must know the partitioning scheme." The scheme is stored in
//! the coordination service ([`coord::Registry::set_meta`]) so every client
//! and replica routes identically.

use common::ids::PartitionId;
use common::wire::Wire;
use common::wire_frame;

use crate::command::KvCommand;

wire_frame! {
    "partitioning";
    /// How keys map to partitions.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Partitioning {
        /// `partition = hash(key) mod n`.
        0 => Hash {
            /// Number of partitions.
            partitions: u16,
        },
        /// Ordered ranges: partition `i` owns keys in
        /// `bounds[i-1] .. bounds[i]` (with open ends). `bounds` has
        /// `partitions − 1` entries, sorted ascending.
        1 => Range {
            /// Upper (exclusive) bounds of each partition except the last.
            bounds: Vec<String>,
        },
        /// A general key-range table: entry `(start, partition)` owns keys in
        /// `start ..` up to the next entry's start. Entries are sorted by
        /// `start` ascending and the first entry's start is the empty string
        /// (−∞). Unlike [`Partitioning::Range`], partitions may own multiple
        /// non-contiguous ranges — the shape live range migration produces
        /// when a slice of a hot partition moves elsewhere.
        2 => Table {
            /// `(range start, owning partition)`, sorted by start.
            entries: Vec<(String, u16)>,
        },
    }
}

impl Partitioning {
    /// Registry metadata key the scheme is stored under.
    pub const META_KEY: &'static str = "mrpstore/partitioning";

    /// Number of partitions.
    pub fn partitions(&self) -> u16 {
        match self {
            Partitioning::Hash { partitions } => *partitions,
            Partitioning::Range { bounds } => (bounds.len() + 1) as u16,
            Partitioning::Table { entries } => entries
                .iter()
                .map(|&(_, p)| p)
                .max()
                .map(|p| p + 1)
                .unwrap_or(0),
        }
    }

    /// The partition owning `key`.
    pub fn partition_of(&self, key: &str) -> PartitionId {
        match self {
            Partitioning::Hash { partitions } => {
                PartitionId::new((fnv1a_str(key) % u64::from(*partitions)) as u16)
            }
            Partitioning::Range { bounds } => {
                let idx = bounds.partition_point(|b| b.as_str() <= key);
                PartitionId::new(idx as u16)
            }
            Partitioning::Table { entries } => {
                let idx = entries.partition_point(|(s, _)| s.as_str() <= key);
                PartitionId::new(entries[idx.saturating_sub(1)].1)
            }
        }
    }

    /// The [`Partitioning::Table`] equivalent of this scheme: identity
    /// for tables, the explicit range list for [`Partitioning::Range`].
    /// `None` for hash partitioning, whose ownership is not expressible
    /// as key ranges — range migration requires a range-based scheme.
    pub fn to_table(&self) -> Option<Vec<(String, u16)>> {
        match self {
            Partitioning::Hash { .. } => None,
            Partitioning::Range { bounds } => {
                let mut entries = vec![(String::new(), 0u16)];
                for (i, b) in bounds.iter().enumerate() {
                    entries.push((b.clone(), (i + 1) as u16));
                }
                Some(entries)
            }
            Partitioning::Table { entries } => Some(entries.clone()),
        }
    }

    /// The table scheme after reassigning `from .. to` (half-open; an
    /// empty `to` means +∞) to `target`. Adjacent same-owner entries are
    /// coalesced. `None` for hash partitioning.
    pub fn with_range_moved(&self, from: &str, to: &str, target: u16) -> Option<Partitioning> {
        let old = self.to_table()?;
        let mut entries: Vec<(String, u16)> = Vec::with_capacity(old.len() + 2);
        // Owner of the key space just past the moved range (the old
        // owner resumes there).
        let resume = self.partition_of(to).raw();
        for (start, owner) in &old {
            if start.as_str() < from {
                entries.push((start.clone(), *owner));
            }
        }
        entries.push((from.to_string(), target));
        if !to.is_empty() {
            entries.push((to.to_string(), resume));
            for (start, owner) in &old {
                if start.as_str() >= to {
                    entries.push((start.clone(), *owner));
                }
            }
        }
        // Drop duplicate starts (keep the last-pushed authority for the
        // moved boundary) and coalesce same-owner neighbours.
        entries.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 = b.1;
                true
            } else {
                false
            }
        });
        entries.dedup_by(|b, a| a.1 == b.1);
        Some(Partitioning::Table { entries })
    }

    /// Partitions that may hold entries for `cmd`: the owning partition
    /// for single-key commands; for scans, the covering ranges
    /// (range-partitioned) or all partitions (hash-partitioned) — paper
    /// §6.1.
    pub fn partitions_for(&self, cmd: &KvCommand) -> Vec<PartitionId> {
        match cmd {
            KvCommand::Scan { from, to } => match self {
                Partitioning::Hash { partitions } => {
                    (0..*partitions).map(PartitionId::new).collect()
                }
                Partitioning::Range { .. } => {
                    let first = self.partition_of(from).raw();
                    let last = if to.is_empty() {
                        self.partitions() - 1
                    } else {
                        self.partition_of(to).raw()
                    };
                    (first..=last.max(first)).map(PartitionId::new).collect()
                }
                Partitioning::Table { entries } => {
                    // Owners of every range overlapping [from, to): the
                    // range containing `from`, plus every range starting
                    // inside the scan. Ownership may be non-contiguous,
                    // so this is a set, not a span.
                    let mut parts = vec![self.partition_of(from)];
                    for (start, owner) in entries {
                        if start.as_str() > from.as_str()
                            && (to.is_empty() || start.as_str() < to.as_str())
                        {
                            parts.push(PartitionId::new(*owner));
                        }
                    }
                    parts.sort();
                    parts.dedup();
                    parts
                }
            },
            single => vec![self.partition_of(single.key())],
        }
    }

    /// Stores the scheme in the registry.
    pub fn publish(&self, registry: &coord::Registry) {
        registry.set_meta(Self::META_KEY, self.to_bytes());
    }

    /// Loads the scheme from the registry.
    pub fn load(registry: &coord::Registry) -> Option<Self> {
        let mut raw = registry.meta(Self::META_KEY)?;
        Self::decode(&mut raw).ok()
    }
}

/// FNV-1a over the key bytes (stable across processes).
pub(crate) fn fnv1a_str(s: &str) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioning_is_stable_and_bounded() {
        let p = Partitioning::Hash { partitions: 3 };
        assert_eq!(p.partitions(), 3);
        for key in ["a", "user42", "", "漢字"] {
            let x = p.partition_of(key);
            assert_eq!(x, p.partition_of(key), "deterministic");
            assert!(x.raw() < 3);
        }
    }

    #[test]
    fn range_partitioning_routes_by_bounds() {
        let p = Partitioning::Range {
            bounds: vec!["g".to_string(), "p".to_string()],
        };
        assert_eq!(p.partitions(), 3);
        assert_eq!(p.partition_of("a"), PartitionId::new(0));
        assert_eq!(p.partition_of("g"), PartitionId::new(1)); // bound itself goes right
        assert_eq!(p.partition_of("m"), PartitionId::new(1));
        assert_eq!(p.partition_of("z"), PartitionId::new(2));
    }

    #[test]
    fn scan_fans_out_correctly() {
        let hash = Partitioning::Hash { partitions: 3 };
        let scan = KvCommand::Scan {
            from: "b".into(),
            to: "c".into(),
        };
        assert_eq!(hash.partitions_for(&scan).len(), 3, "hash scans hit all");

        let range = Partitioning::Range {
            bounds: vec!["g".to_string(), "p".to_string()],
        };
        let scan = KvCommand::Scan {
            from: "a".into(),
            to: "h".into(),
        };
        assert_eq!(
            range.partitions_for(&scan),
            vec![PartitionId::new(0), PartitionId::new(1)]
        );
        let single = KvCommand::Read { key: "m".into() };
        assert_eq!(range.partitions_for(&single), vec![PartitionId::new(1)]);
    }

    #[test]
    fn table_partitioning_routes_and_round_trips() {
        let p = Partitioning::Table {
            entries: vec![
                (String::new(), 0),
                ("g".to_string(), 1),
                ("m".to_string(), 0), // non-contiguous: p0 owns two ranges
                ("p".to_string(), 2),
            ],
        };
        assert_eq!(p.partitions(), 3);
        assert_eq!(p.partition_of("a"), PartitionId::new(0));
        assert_eq!(p.partition_of("g"), PartitionId::new(1));
        assert_eq!(p.partition_of("k"), PartitionId::new(1));
        assert_eq!(p.partition_of("m"), PartitionId::new(0));
        assert_eq!(p.partition_of("z"), PartitionId::new(2));
        let mut raw = p.to_bytes();
        assert_eq!(Partitioning::decode(&mut raw).unwrap(), p);

        // A scan over [f, n) touches the ranges of p0 and p1 only.
        let scan = KvCommand::Scan {
            from: "f".into(),
            to: "n".into(),
        };
        assert_eq!(
            p.partitions_for(&scan),
            vec![PartitionId::new(0), PartitionId::new(1)]
        );
    }

    #[test]
    fn range_migration_rewrites_the_table() {
        let range = Partitioning::Range {
            bounds: vec!["m".to_string()],
        };
        // Move [f, h) from partition 0 to partition 1.
        let moved = range.with_range_moved("f", "h", 1).unwrap();
        assert_eq!(moved.partition_of("e"), PartitionId::new(0));
        assert_eq!(moved.partition_of("f"), PartitionId::new(1));
        assert_eq!(moved.partition_of("g"), PartitionId::new(1));
        assert_eq!(moved.partition_of("h"), PartitionId::new(0));
        assert_eq!(moved.partition_of("z"), PartitionId::new(1));
        // Moving an open-ended tail works and coalesces.
        let tail = moved.with_range_moved("m", "", 0).unwrap();
        assert_eq!(tail.partition_of("z"), PartitionId::new(0));
        // Hash schemes cannot express ranges.
        assert!(Partitioning::Hash { partitions: 2 }
            .with_range_moved("a", "b", 1)
            .is_none());
    }

    #[test]
    fn scheme_round_trips_via_registry() {
        let reg = coord::Registry::new();
        let p = Partitioning::Range {
            bounds: vec!["k".to_string()],
        };
        p.publish(&reg);
        assert_eq!(Partitioning::load(&reg).unwrap(), p);
        assert!(Partitioning::load(&coord::Registry::new()).is_none());
    }
}
