//! Seeded input generation: key tables, command streams and open-loop
//! schedules. The same `(seed, thread)` always yields the same inputs;
//! the program under test sees nothing but the generated commands.

use bytes::Bytes;
use mrpstore::{KvCommand, Partitioning};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::keys::{KeyChooser, ScrambledZipfian, Uniform};

use crate::workload::{KeyDist, Workload, ADD_EVERY};

/// The rng of `thread` under `seed`; `stream` separates the uses (keys,
/// schedule) so adding one never shifts another.
fn rng(seed: u64, thread: usize, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((thread as u64) << 8 | stream),
    )
}

/// The `count` keys thread `thread` owns: the disjoint prefix `t<thread>/`
/// keeps threads apart, so each knows the last value it wrote per key.
/// With `pin`, only keys the scheme places on that partition are taken.
pub fn key_table(
    thread: usize,
    count: u64,
    scheme: &Partitioning,
    pin: Option<u16>,
) -> Vec<String> {
    (0u64..)
        .map(|i| format!("t{thread}/{i:07}"))
        .filter(|k| pin.is_none_or(|p| scheme.partition_of(k).raw() == p))
        .take(count as usize)
        .collect()
}

/// The key of thread `thread`'s exactly-once counter.
pub fn counter_key(thread: usize, scheme: &Partitioning, pin: Option<u16>) -> String {
    (0u64..)
        .map(|i| format!("t{thread}/ctr{i}"))
        .find(|k| pin.is_none_or(|p| scheme.partition_of(k).raw() == p))
        .expect("some key hashes to every partition")
}

/// The value written to key `idx` at `version`: both are readable back
/// from the first 16 bytes, the rest is filler derived from them.
pub fn value_bytes(idx: u64, version: u64, size: usize) -> Bytes {
    let mut v = vec![(idx ^ version) as u8; size.max(16)];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v[8..16].copy_from_slice(&idx.to_le_bytes());
    Bytes::from(v)
}

/// `(version, idx)` of a value made by [`value_bytes`].
pub fn parse_value(v: &[u8]) -> Option<(u64, u64)> {
    let word = |at: usize| Some(u64::from_le_bytes(v.get(at..at + 8)?.try_into().ok()?));
    Some((word(0)?, word(8)?))
}

/// One generated single-partition command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Read {
        idx: u64,
    },
    /// Writes [`value_bytes`]`(idx, version, ..)`.
    Update {
        idx: u64,
        version: u64,
    },
    /// Increments the thread's counter by one.
    Add,
}

/// The command stream of one single-partition thread.
pub struct CmdGen {
    rng: StdRng,
    chooser: Box<dyn KeyChooser + Send>,
    read_pct: u32,
    issued: u64,
    /// Version last written per key (0 = the preloaded value).
    pub versions: Vec<u64>,
}

impl CmdGen {
    pub fn new(seed: u64, thread: usize, w: &Workload) -> Self {
        let chooser: Box<dyn KeyChooser + Send> = match w.dist {
            KeyDist::ScrambledZipfian => Box::new(ScrambledZipfian::new(w.keys_per_thread)),
            KeyDist::Uniform => Box::new(Uniform::new(w.keys_per_thread)),
        };
        CmdGen {
            rng: rng(seed, thread, 0),
            chooser,
            read_pct: w.read_pct,
            issued: 0,
            versions: vec![0; w.keys_per_thread as usize],
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.issued.is_multiple_of(ADD_EVERY) {
            return Op::Add;
        }
        let idx = self.chooser.next_key(&mut self.rng);
        if self.rng.random_range(0..100u32) < self.read_pct {
            Op::Read { idx }
        } else {
            let version = &mut self.versions[idx as usize];
            *version += 1;
            Op::Update {
                idx,
                version: *version,
            }
        }
    }
}

/// Encodes `op` against the thread's key table.
pub fn command(op: Op, keys: &[String], counter: &str, value_size: usize) -> KvCommand {
    match op {
        Op::Read { idx } => KvCommand::Read {
            key: keys[idx as usize].clone(),
        },
        Op::Update { idx, version } => KvCommand::Update {
            key: keys[idx as usize].clone(),
            value: value_bytes(idx, version, value_size),
        },
        Op::Add => KvCommand::Add {
            key: counter.to_string(),
            delta: 1,
        },
    }
}

/// The multi-partition command: a scan of a range no key falls in, so
/// ordering, merge and fan-out are measured and execution is not.
pub fn multi_command() -> KvCommand {
    KvCommand::Scan {
        from: "zz".to_string(),
        to: "zz~".to_string(),
    }
}

/// Due times (nanoseconds from the start) of a Poisson arrival process
/// at `rate` per second, up to `horizon_ns`.
pub fn poisson_schedule(seed: u64, thread: usize, rate: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = rng(seed, thread, 1);
    let mut due = Vec::with_capacity((rate * horizon_ns as f64 / 1e9 * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps the argument off 0.
        let u: f64 = rng.random_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn ops(seed: u64, thread: usize, n: usize) -> Vec<Op> {
        let w = workload::by_name("kv_small").unwrap();
        let mut g = CmdGen::new(seed, thread, &w);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn commands_repeat_for_a_seed_and_differ_across_seeds_and_threads() {
        assert_eq!(ops(1, 0, 500), ops(1, 0, 500));
        assert_ne!(ops(1, 0, 500), ops(2, 0, 500));
        assert_ne!(ops(1, 0, 500), ops(1, 1, 500));
    }

    #[test]
    fn stream_holds_the_mix_and_versions_count_up() {
        let w = workload::by_name("kv_small").unwrap();
        let mut g = CmdGen::new(7, 0, &w);
        let all: Vec<Op> = (0..6400).map(|_| g.next_op()).collect();
        let adds = all.iter().filter(|o| **o == Op::Add).count();
        let reads = all.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(adds, 100);
        assert!((2800..3500).contains(&reads), "about half read: {reads}");
        let mut last = std::collections::HashMap::new();
        for op in &all {
            if let Op::Update { idx, version } = op {
                let prev = last.insert(*idx, *version).unwrap_or(0);
                assert_eq!(*version, prev + 1);
            }
        }
        for (idx, version) in last {
            assert_eq!(g.versions[idx as usize], version);
        }
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_holds_the_rate() {
        let a = poisson_schedule(3, 0, 1000.0, 2_000_000_000);
        assert_eq!(a, poisson_schedule(3, 0, 1000.0, 2_000_000_000));
        assert_ne!(a, poisson_schedule(4, 0, 1000.0, 2_000_000_000));
        assert_ne!(a, poisson_schedule(3, 1, 1000.0, 2_000_000_000));
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn key_tables_are_disjoint_and_pinned() {
        let scheme = Partitioning::Hash { partitions: 3 };
        let a = key_table(0, 50, &scheme, None);
        let b = key_table(1, 50, &scheme, None);
        assert!(a.iter().all(|k| !b.contains(k)));
        let pinned = key_table(0, 50, &scheme, Some(1));
        assert_eq!(pinned.len(), 50);
        assert!(pinned.iter().all(|k| scheme.partition_of(k).raw() == 1));
        assert_eq!(
            scheme.partition_of(&counter_key(0, &scheme, Some(2))).raw(),
            2
        );
    }

    #[test]
    fn values_carry_their_version_and_key() {
        let v = value_bytes(42, 7, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(parse_value(&v), Some((7, 42)));
        assert_eq!(parse_value(&v[..10]), None);
    }
}
