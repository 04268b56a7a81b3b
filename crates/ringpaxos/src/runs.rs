//! Exact duplicate suppression. Every member draws its value ids from one
//! counter per ring — client batches, skips and no-op fillers alike — and
//! the learner records every id it delivers, so a proposer's delivered
//! ids form one run, split only by holes: ids allocated and never decided
//! (a skip lost to a leadership change) or a jump of the counter after a
//! restart. The set is O(proposers + holes) and never forgets an id.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use common::error::WireError;
use common::ids::NodeId;
use common::value::ValueId;
use common::wire::{get_varint, put_varint, Wire, MAX_LEN};

/// The value ids a ring learner delivered: per proposer, its sequence
/// numbers as disjoint, non-adjacent runs, `(proposer, start)` → `last`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveredIds(BTreeMap<(NodeId, u64), u64>);

impl DeliveredIds {
    /// In-memory size of one run.
    pub const RUN_BYTES: usize = std::mem::size_of::<((NodeId, u64), u64)>();

    /// The run of `id`'s proposer that starts last at or below `id`.
    fn run_below(&self, &ValueId { node, seq }: &ValueId) -> Option<(u64, u64)> {
        let (&(n, start), &last) = self.0.range(..=(node, seq)).next_back()?;
        (n == node).then_some((start, last))
    }

    /// The run holding `id`.
    fn run_of(&self, id: &ValueId) -> Option<(u64, u64)> {
        self.run_below(id).filter(|&(_, last)| id.seq <= last)
    }

    /// True if `id` is in the set.
    pub fn contains(&self, id: &ValueId) -> bool {
        self.run_of(id).is_some()
    }

    /// Adds `id`, joining the runs it touches. Returns `false` if present.
    pub fn insert(&mut self, id: ValueId) -> bool {
        let (node, seq) = (id.node, id.seq);
        let start = match self.run_below(&id) {
            Some((_, last)) if seq <= last => return false,
            Some((start, last)) if last + 1 == seq => start,
            _ => seq,
        };
        let after = seq
            .checked_add(1)
            .and_then(|next| self.0.remove(&(node, next)));
        self.0.insert((node, start), after.unwrap_or(seq));
        true
    }

    /// Takes `id` out, splitting its run. Returns `false` if absent.
    pub fn remove(&mut self, id: &ValueId) -> bool {
        let Some((start, last)) = self.run_of(id) else {
            return false;
        };
        let (node, seq) = (id.node, id.seq);
        self.0.remove(&(node, start));
        if start < seq {
            self.0.insert((node, start), seq - 1);
        }
        if seq < last {
            self.0.insert((node, seq + 1), last);
        }
        true
    }

    /// The number of runs held.
    pub fn ranges(&self) -> usize {
        self.0.len()
    }

    /// The lowest start a new highest run of `node` may have: two past
    /// the last value of its highest run (runs stay non-adjacent), or 0.
    fn floor(&self, node: NodeId) -> Option<u64> {
        let highest = self.0.range((node, 0)..=(node, u64::MAX)).next_back();
        highest.map_or(Some(0), |(_, last)| last.checked_add(2))
    }
}

/// The number of runs, then per run in ascending order its proposer, its
/// distance from the lowest start it may have (0 for a proposer's first
/// run, two past the end of the one before after that) and its length
/// minus one. Any input decodes to disjoint, non-adjacent runs or fails.
impl Wire for DeliveredIds {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.0.len() as u64);
        let mut prev = None;
        for (&(node, start), &last) in &self.0 {
            node.encode(buf);
            let floor = prev.filter(|(n, _)| *n == node).map_or(0, |(_, l)| l + 2);
            put_varint(buf, start - floor);
            put_varint(buf, last - start);
            prev = Some((node, last));
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = get_varint(buf)?;
        if n > MAX_LEN {
            return Err(WireError::LengthTooLarge { len: n });
        }
        let mut ids = DeliveredIds::default();
        for _ in 0..n {
            let node = NodeId::decode(buf)?;
            let (gap, len) = (get_varint(buf)?, get_varint(buf)?);
            let start = ids.floor(node).and_then(|floor| floor.checked_add(gap));
            let run = start.and_then(|start| Some((start, start.checked_add(len)?)));
            let (start, last) = run.ok_or(WireError::VarintOverflow)?;
            ids.0.insert((node, start), last);
        }
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn id(seq: u64) -> ValueId {
        ValueId::new(NodeId::new(1), seq)
    }

    /// The maximal runs of consecutive values in `model`.
    fn maximal_runs(model: &HashSet<u64>) -> usize {
        (model.iter())
            .filter(|&&x| x == 0 || !model.contains(&(x - 1)))
            .count()
    }

    #[test]
    fn a_stream_with_holes_is_one_run_per_hole_plus_one() {
        let mut ids = DeliveredIds::default();
        for seq in (1..=100).filter(|x| x % 40 != 0) {
            assert!(ids.insert(id(seq)));
        }
        let runs = |ids: &DeliveredIds| -> Vec<(u64, u64)> {
            ids.0.iter().map(|(&(_, s), &l)| (s, l)).collect()
        };
        assert_eq!(runs(&ids), [(1, 39), (41, 79), (81, 100)]);
        assert!(!ids.insert(id(50)), "already present");
        assert!(ids.insert(id(40)));
        assert_eq!(ids.ranges(), 2);
        assert!(ids.remove(&id(1)) && ids.remove(&id(60)) && !ids.remove(&id(60)));
        assert_eq!(runs(&ids), [(2, 59), (61, 79), (81, 100)]);
        assert!(ids.insert(id(u64::MAX)) && ids.contains(&id(u64::MAX)));
        assert!(
            !ids.contains(&ValueId::new(NodeId::new(2), 50)),
            "per proposer"
        );
    }

    #[test]
    fn delivered_ids_round_trip_on_the_wire() {
        let mut ids = DeliveredIds::default();
        for (node, seq) in [(1, 1), (1, 2), (1, 7), (2, 3 << 32), (2, u64::MAX), (3, 0)] {
            ids.insert(ValueId::new(NodeId::new(node), seq));
        }
        assert_eq!(ids.ranges(), 5);
        let bytes = ids.to_bytes();
        assert_eq!(DeliveredIds::decode(&mut bytes.clone()).unwrap(), ids);
        assert!(DeliveredIds::decode(&mut bytes.slice(..bytes.len() - 1)).is_err());
    }

    /// One operation on the set: insert or remove a sequence number.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64),
        Remove(u64),
    }

    /// Sequence numbers from a few epochs (`epoch << 32`, where a
    /// restarted member's ids start), dense enough that runs form, touch
    /// and split. Inserts skip every third number: holes never filled.
    fn op() -> impl Strategy<Value = Op> {
        let epoch = |e: u64| e << 32;
        prop_oneof![
            6 => (0u64..3, 0u64..16, 0u64..2)
                .prop_map(move |(e, k, o)| Op::Insert(epoch(e) + 3 * k + o)),
            1 => (0u64..3, 0u64..48).prop_map(move |(e, seq)| Op::Remove(epoch(e) + seq)),
        ]
    }

    proptest! {
        #[test]
        fn runs_agree_with_a_hash_set(ops in proptest::collection::vec(op(), 0..400)) {
            let (mut ids, mut model) = (DeliveredIds::default(), HashSet::new());
            for op in ops {
                match op {
                    Op::Insert(x) => prop_assert_eq!(ids.insert(id(x)), model.insert(x)),
                    Op::Remove(x) => prop_assert_eq!(ids.remove(&id(x)), model.remove(&x)),
                }
                prop_assert_eq!(ids.ranges(), maximal_runs(&model));
            }
            for x in (0..3u64).flat_map(|e| (e << 32)..(e << 32) + 50) {
                prop_assert_eq!(ids.contains(&id(x)), model.contains(&x), "value {}", x);
            }
            prop_assert_eq!(DeliveredIds::decode(&mut ids.to_bytes()).unwrap(), ids);
        }
    }
}
