//! Proposer-side request batching.
//!
//! Every client command costs one consensus instance unless the proposer
//! groups commands — the paper leans on exactly this ("different types of
//! messages for several consensus instances are often grouped into bigger
//! packets", §4). Batching is there for throughput, not to hold a command
//! back on a quiet ring, so the [`Batcher`] holds incoming envelopes per
//! ring and releases a batch on the first of four conditions:
//!
//! 1. **the ring is idle** — the node loop sees that this node has no
//!    proposal of its own in flight on the ring and takes whatever is
//!    pending ([`Batcher::take_idle`]). While a proposal *is* in flight,
//!    its round trip is the batching window (group commit): commands
//!    that arrive meanwhile ride the next value together, so batch size
//!    follows load by itself;
//! 2. it reaches `max_envelopes`;
//! 3. it reaches `max_bytes` of command payload;
//! 4. its oldest envelope has waited `max_delay` — the ceiling: a slow or
//!    lost proposal never holds the commands behind it longer than this.
//!
//! One released batch becomes **one** proposed value
//! ([`common::value::Payload::Batch`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use common::ids::RingId;
use common::value::Envelope;

/// Batching limits.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Flush after this many envelopes.
    pub max_envelopes: usize,
    /// Flush once the batch holds this many payload bytes.
    pub max_bytes: usize,
    /// Flush a non-empty batch after this long regardless of size or of
    /// what is in flight (the ceiling; an idle ring seals at once).
    pub max_delay: Duration,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            max_envelopes: 64,
            max_bytes: 32 * 1024,
            max_delay: Duration::from_millis(2),
        }
    }
}

impl BatchOptions {
    /// Batching disabled: every envelope flushes immediately.
    pub fn disabled() -> Self {
        BatchOptions {
            max_envelopes: 1,
            max_bytes: 0,
            max_delay: Duration::ZERO,
        }
    }
}

struct Pending {
    envelopes: Vec<Envelope>,
    bytes: usize,
    opened_at: Instant,
}

/// Per-ring envelope accumulator.
pub struct Batcher {
    opts: BatchOptions,
    pending: BTreeMap<RingId, Pending>,
}

impl Batcher {
    /// A batcher with `opts` limits.
    pub fn new(opts: BatchOptions) -> Self {
        Batcher {
            opts,
            pending: BTreeMap::new(),
        }
    }

    /// Adds an envelope bound for `ring`. Returns a completed batch if
    /// this push sealed one.
    ///
    /// Batch sizing adapts to payload size rather than envelope count
    /// alone: an envelope that would carry the open batch past
    /// `max_bytes` seals that batch *first* and starts the next one, so
    /// every proposed value stays under `max_bytes` — a multi-KiB
    /// command never glues onto an almost-full batch to produce an
    /// oversized consensus value. An envelope that alone reaches
    /// `max_bytes` proposes as a batch of one.
    pub fn push(&mut self, ring: RingId, env: Envelope, now: Instant) -> Option<Vec<Envelope>> {
        let entry = self.pending.entry(ring).or_insert_with(|| Pending {
            envelopes: Vec::new(),
            bytes: 0,
            opened_at: now,
        });
        if entry.envelopes.is_empty() {
            entry.opened_at = now;
        }
        let bytes = env.cmd.len();
        if !entry.envelopes.is_empty() && entry.bytes + bytes > self.opts.max_bytes {
            let done = std::mem::take(&mut entry.envelopes);
            entry.bytes = bytes;
            entry.opened_at = now;
            entry.envelopes.push(env);
            return Some(done);
        }
        entry.bytes += bytes;
        entry.envelopes.push(env);
        if entry.envelopes.len() >= self.opts.max_envelopes || entry.bytes >= self.opts.max_bytes {
            let done = self.pending.remove(&ring).expect("just inserted");
            return Some(done.envelopes);
        }
        None
    }

    /// Removes and returns every batch whose age reached `max_delay`.
    pub fn take_due(&mut self, now: Instant) -> Vec<(RingId, Vec<Envelope>)> {
        let max_delay = self.opts.max_delay;
        self.take_if(|_, p| now.duration_since(p.opened_at) >= max_delay)
    }

    /// Removes and returns the pending batch of every ring `idle` says
    /// yes to, whatever its age or size. The caller asks whoever owns the
    /// ring state whether this node still has a proposal of its own in
    /// flight there; the batcher itself knows nothing about rings beyond
    /// their ids.
    pub fn take_idle(
        &mut self,
        mut idle: impl FnMut(RingId) -> bool,
    ) -> Vec<(RingId, Vec<Envelope>)> {
        self.take_if(|ring, _| idle(ring))
    }

    fn take_if(
        &mut self,
        mut take: impl FnMut(RingId, &Pending) -> bool,
    ) -> Vec<(RingId, Vec<Envelope>)> {
        let taken: Vec<RingId> = self
            .pending
            .iter()
            .filter(|(r, p)| !p.envelopes.is_empty() && take(**r, p))
            .map(|(r, _)| *r)
            .collect();
        taken
            .into_iter()
            .map(|r| {
                let p = self.pending.remove(&r).expect("listed");
                (r, p.envelopes)
            })
            .collect()
    }

    /// Removes and returns every pending batch regardless of age.
    pub fn take_all(&mut self) -> Vec<(RingId, Vec<Envelope>)> {
        std::mem::take(&mut self.pending)
            .into_iter()
            .filter(|(_, p)| !p.envelopes.is_empty())
            .map(|(r, p)| (r, p.envelopes))
            .collect()
    }

    /// When the earliest pending batch becomes due, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending
            .values()
            .filter(|p| !p.envelopes.is_empty())
            .map(|p| p.opened_at + self.opts.max_delay)
            .min()
    }

    /// Number of envelopes currently pending across all rings.
    pub fn pending_len(&self) -> usize {
        self.pending.values().map(|p| p.envelopes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use common::ids::{ClientId, NodeId, RequestId};

    fn env(req: u64, size: usize) -> Envelope {
        Envelope::v1(
            ClientId::new(1),
            RequestId::new(req),
            NodeId::new(9),
            Bytes::from(vec![0u8; size]),
        )
    }

    #[test]
    fn flushes_on_count() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 3,
            max_bytes: usize::MAX,
            max_delay: Duration::from_secs(10),
        });
        let now = Instant::now();
        let r = RingId::new(0);
        assert!(b.push(r, env(1, 10), now).is_none());
        assert!(b.push(r, env(2, 10), now).is_none());
        let batch = b.push(r, env(3, 10), now).expect("third fills the batch");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].req.raw(), 1, "arrival order preserved");
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn flushes_on_bytes() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 1000,
            max_bytes: 100,
            max_delay: Duration::from_secs(10),
        });
        let now = Instant::now();
        let r = RingId::new(1);
        assert!(b.push(r, env(1, 60), now).is_none());
        let sealed = b.push(r, env(2, 60), now).expect("second push overflows");
        // The overflowing envelope seals the open batch and starts the
        // next one — each proposed value stays under max_bytes.
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].req.raw(), 1);
        assert_eq!(b.pending_len(), 1, "overflowing envelope still pending");
    }

    #[test]
    fn oversized_command_proposes_alone() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 1000,
            max_bytes: 100,
            max_delay: Duration::from_secs(10),
        });
        let now = Instant::now();
        let r = RingId::new(1);
        let batch = b.push(r, env(1, 250), now).expect("immediate flush");
        assert_eq!(batch.len(), 1);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn large_command_never_glues_onto_a_full_batch() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 1000,
            max_bytes: 100,
            max_delay: Duration::from_secs(10),
        });
        let now = Instant::now();
        let r = RingId::new(2);
        assert!(b.push(r, env(1, 30), now).is_none());
        assert!(b.push(r, env(2, 30), now).is_none());
        // 95 would push the open batch to 155 bytes: it seals the open
        // batch instead and immediately fills the next one by itself.
        let sealed = b.push(r, env(3, 95), now).expect("open batch sealed");
        assert_eq!(sealed.len(), 2);
        let solo = b.push(r, env(4, 10), now);
        assert!(solo.is_some(), "95-byte batch sealed by the next push");
        assert_eq!(solo.unwrap().len(), 1);
    }

    #[test]
    fn flushes_on_age() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 1000,
            max_bytes: usize::MAX,
            max_delay: Duration::from_millis(5),
        });
        let t0 = Instant::now();
        let r0 = RingId::new(0);
        let r1 = RingId::new(1);
        b.push(r0, env(1, 1), t0);
        b.push(r1, env(2, 1), t0 + Duration::from_millis(3));
        assert!(b.take_due(t0 + Duration::from_millis(1)).is_empty());
        let due = b.take_due(t0 + Duration::from_millis(6));
        assert_eq!(due.len(), 1, "only ring 0 aged out");
        assert_eq!(due[0].0, r0);
        assert_eq!(b.pending_len(), 1);
        assert!(b.next_deadline().is_some());
        assert_eq!(b.take_all().len(), 1);
        assert!(b.next_deadline().is_none());
    }

    /// Limits that only the idle pass or `max_delay` can seal under.
    fn ceilings_out_of_reach(max_delay: Duration) -> Batcher {
        Batcher::new(BatchOptions {
            max_envelopes: 1000,
            max_bytes: usize::MAX,
            max_delay,
        })
    }

    #[test]
    fn lone_envelope_on_an_idle_ring_is_taken_at_once() {
        let mut b = ceilings_out_of_reach(Duration::from_secs(10));
        let r = RingId::new(0);
        assert!(b.push(r, env(1, 1), Instant::now()).is_none());
        let taken = b.take_idle(|_| true);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].0, r);
        assert_eq!(taken[0].1.len(), 1);
        assert_eq!(b.pending_len(), 0);
        assert!(b.next_deadline().is_none());
        assert!(b.take_idle(|_| true).is_empty(), "nothing left to take");
    }

    #[test]
    fn busy_ring_waits_for_its_proposal_but_never_past_max_delay() {
        let mut b = ceilings_out_of_reach(Duration::from_millis(5));
        let t0 = Instant::now();
        let r = RingId::new(0);
        b.push(r, env(1, 1), t0);
        b.push(r, env(2, 1), t0 + Duration::from_millis(1));
        // A proposal is in flight: the idle pass leaves the batch to fill.
        assert!(b.take_idle(|_| false).is_empty());
        assert_eq!(b.pending_len(), 2);
        assert!(b.take_due(t0 + Duration::from_millis(4)).is_empty());
        // The proposal is stuck (or lost): the ceiling still releases the
        // batch, measured from its first envelope.
        let due = b.take_due(t0 + Duration::from_millis(5));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].1.len(), 2, "arrivals during the wait ride along");
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn idle_pass_judges_rings_independently() {
        let mut b = ceilings_out_of_reach(Duration::from_secs(10));
        let now = Instant::now();
        let (busy, idle) = (RingId::new(0), RingId::new(1));
        b.push(busy, env(1, 1), now);
        b.push(idle, env(2, 1), now);
        let mut asked = Vec::new();
        let taken = b.take_idle(|r| {
            asked.push(r);
            r == idle
        });
        assert_eq!(asked, vec![busy, idle], "only rings with a batch are asked");
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].0, idle);
        assert_eq!(b.pending_len(), 1, "the busy ring keeps filling");
        // Its decision arrives: next pass takes it.
        assert_eq!(b.take_idle(|_| true)[0].0, busy);
    }

    #[test]
    fn count_and_byte_seals_do_not_wait_for_the_idle_pass() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 2,
            max_bytes: 100,
            max_delay: Duration::from_secs(10),
        });
        let now = Instant::now();
        let r = RingId::new(0);
        // The ring is busy throughout (the idle pass is never offered a
        // yes), yet a full batch seals on the push that fills it.
        assert!(b.push(r, env(1, 1), now).is_none());
        assert!(b.take_idle(|_| false).is_empty());
        assert_eq!(b.push(r, env(2, 1), now).expect("count seal").len(), 2);
        assert!(b.push(r, env(3, 60), now).is_none());
        assert_eq!(b.push(r, env(4, 60), now).expect("byte seal").len(), 1);
    }

    #[test]
    fn disabled_batching_flushes_every_push() {
        let mut b = Batcher::new(BatchOptions::disabled());
        let batch = b
            .push(RingId::new(0), env(1, 0), Instant::now())
            .expect("immediate flush");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn rings_batch_independently() {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: 2,
            max_bytes: usize::MAX,
            max_delay: Duration::from_secs(1),
        });
        let now = Instant::now();
        assert!(b.push(RingId::new(0), env(1, 1), now).is_none());
        assert!(b.push(RingId::new(1), env(2, 1), now).is_none());
        assert!(b.push(RingId::new(0), env(3, 1), now).is_some());
        assert_eq!(b.pending_len(), 1, "ring 1 still open");
    }
}
