//! The six core YCSB workloads (Cooper et al., SoCC'10), as used in the
//! paper's Figure 4.
//!
//! | Workload | Mix | Distribution |
//! |----------|-----|--------------|
//! | A | 50% read / 50% update | zipfian |
//! | B | 95% read / 5% update | zipfian |
//! | C | 100% read | zipfian |
//! | D | 95% read / 5% insert | latest |
//! | E | 95% scan / 5% insert | zipfian, scan length uniform 1–100 |
//! | F | 50% read / 50% read-modify-write | zipfian |
//!
//! Records are 1 KB (ten 100-byte fields), the YCSB default.

use rand::rngs::StdRng;
use rand::RngExt;

use crate::keys::{KeyChooser, Latest, ScrambledZipfian, Uniform};

/// YCSB record size in bytes (10 fields × 100 bytes).
pub const RECORD_SIZE: usize = 1000;

/// Maximum scan length in workload E.
pub const MAX_SCAN_LEN: u64 = 100;

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read record `key`.
    Read {
        /// Record index.
        key: u64,
    },
    /// Overwrite one field of record `key`.
    Update {
        /// Record index.
        key: u64,
    },
    /// Insert a new record.
    Insert {
        /// Record index (fresh).
        key: u64,
    },
    /// Scan `len` records starting at `key`.
    Scan {
        /// Start record index.
        key: u64,
        /// Number of records.
        len: u64,
    },
    /// Read then update record `key`.
    ReadModifyWrite {
        /// Record index.
        key: u64,
    },
}

impl Op {
    /// The record index the operation starts at.
    pub fn key(&self) -> u64 {
        match self {
            Op::Read { key }
            | Op::Update { key }
            | Op::Insert { key }
            | Op::Scan { key, .. }
            | Op::ReadModifyWrite { key } => *key,
        }
    }
}

/// Which of the six workloads to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// 50/50 read/update, zipfian.
    A,
    /// 95/5 read/update, zipfian.
    B,
    /// Read only, zipfian.
    C,
    /// 95/5 read/insert, latest.
    D,
    /// 95/5 scan/insert, zipfian.
    E,
    /// 50/50 read/read-modify-write, zipfian.
    F,
}

impl WorkloadSpec {
    /// All six, in paper order.
    pub const ALL: [WorkloadSpec; 6] = [
        WorkloadSpec::A,
        WorkloadSpec::B,
        WorkloadSpec::C,
        WorkloadSpec::D,
        WorkloadSpec::E,
        WorkloadSpec::F,
    ];

    /// Single-letter label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadSpec::A => "A",
            WorkloadSpec::B => "B",
            WorkloadSpec::C => "C",
            WorkloadSpec::D => "D",
            WorkloadSpec::E => "E",
            WorkloadSpec::F => "F",
        }
    }
}

enum Chooser {
    Zipf(ScrambledZipfian),
    Latest(Latest),
}

/// A YCSB operation stream.
pub struct Workload {
    spec: WorkloadSpec,
    chooser: Chooser,
    scan_len: Uniform,
    record_count: u64,
    next_insert: u64,
}

impl Workload {
    /// A workload over an initial table of `record_count` records.
    pub fn new(spec: WorkloadSpec, record_count: u64) -> Self {
        let chooser = match spec {
            WorkloadSpec::D => Chooser::Latest(Latest::new(record_count)),
            _ => Chooser::Zipf(ScrambledZipfian::new(record_count)),
        };
        Workload {
            spec,
            chooser,
            scan_len: Uniform::new(MAX_SCAN_LEN),
            record_count,
            next_insert: record_count,
        }
    }

    /// The workload letter.
    pub fn spec(&self) -> WorkloadSpec {
        self.spec
    }

    /// Number of records at generation start.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    fn choose(&mut self, rng: &mut StdRng) -> u64 {
        match &mut self.chooser {
            Chooser::Zipf(z) => z.next_key(rng),
            Chooser::Latest(l) => l.next_key(rng),
        }
    }

    fn insert(&mut self) -> u64 {
        let key = self.next_insert;
        self.next_insert += 1;
        if let Chooser::Latest(l) = &mut self.chooser {
            l.grow();
        }
        key
    }

    /// Draws the next operation.
    pub fn next_op(&mut self, rng: &mut StdRng) -> Op {
        let p: f64 = rng.random();
        match self.spec {
            WorkloadSpec::A => {
                let key = self.choose(rng);
                if p < 0.5 {
                    Op::Read { key }
                } else {
                    Op::Update { key }
                }
            }
            WorkloadSpec::B => {
                let key = self.choose(rng);
                if p < 0.95 {
                    Op::Read { key }
                } else {
                    Op::Update { key }
                }
            }
            WorkloadSpec::C => Op::Read {
                key: self.choose(rng),
            },
            WorkloadSpec::D => {
                if p < 0.95 {
                    Op::Read {
                        key: self.choose(rng),
                    }
                } else {
                    Op::Insert { key: self.insert() }
                }
            }
            WorkloadSpec::E => {
                if p < 0.95 {
                    Op::Scan {
                        key: self.choose(rng),
                        len: self.scan_len.next_key(rng) + 1,
                    }
                } else {
                    Op::Insert { key: self.insert() }
                }
            }
            WorkloadSpec::F => {
                let key = self.choose(rng);
                if p < 0.5 {
                    Op::Read { key }
                } else {
                    Op::ReadModifyWrite { key }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mix(spec: WorkloadSpec, n: usize) -> Vec<Op> {
        let mut w = Workload::new(spec, 10_000);
        let mut rng = StdRng::seed_from_u64(11);
        (0..n).map(|_| w.next_op(&mut rng)).collect()
    }

    fn frac(ops: &[Op], f: impl Fn(&Op) -> bool) -> f64 {
        ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
    }

    #[test]
    fn workload_a_is_half_updates() {
        let ops = mix(WorkloadSpec::A, 20_000);
        let updates = frac(&ops, |o| matches!(o, Op::Update { .. }));
        assert!((updates - 0.5).abs() < 0.02, "update fraction {updates}");
    }

    #[test]
    fn workload_b_is_mostly_reads() {
        let ops = mix(WorkloadSpec::B, 20_000);
        let reads = frac(&ops, |o| matches!(o, Op::Read { .. }));
        assert!((reads - 0.95).abs() < 0.01, "read fraction {reads}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let ops = mix(WorkloadSpec::C, 5_000);
        assert!(ops.iter().all(|o| matches!(o, Op::Read { .. })));
    }

    #[test]
    fn workload_d_inserts_fresh_keys() {
        let ops = mix(WorkloadSpec::D, 20_000);
        let inserts: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Insert { key } => Some(*key),
                _ => None,
            })
            .collect();
        assert!(!inserts.is_empty());
        // Fresh, dense, ascending keys starting at the table size.
        for (i, k) in inserts.iter().enumerate() {
            assert_eq!(*k, 10_000 + i as u64);
        }
    }

    #[test]
    fn workload_e_scans_with_bounded_length() {
        let ops = mix(WorkloadSpec::E, 20_000);
        let scans = frac(&ops, |o| matches!(o, Op::Scan { .. }));
        assert!((scans - 0.95).abs() < 0.01, "scan fraction {scans}");
        for op in &ops {
            if let Op::Scan { len, .. } = op {
                assert!(*len >= 1 && *len <= MAX_SCAN_LEN);
            }
        }
    }

    #[test]
    fn workload_f_mixes_rmw() {
        let ops = mix(WorkloadSpec::F, 20_000);
        let rmw = frac(&ops, |o| matches!(o, Op::ReadModifyWrite { .. }));
        assert!((rmw - 0.5).abs() < 0.02, "rmw fraction {rmw}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = mix(WorkloadSpec::A, 100);
        let b = mix(WorkloadSpec::A, 100);
        assert_eq!(a, b);
    }
}
