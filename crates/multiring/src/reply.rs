//! Which replica answers a delivered command.
//!
//! Every replica of a partition executes every command it delivers, but
//! a client needs one answer per partition: the first reply for a
//! single-partition command, one from each addressed partition for a
//! multi-partition scan (§7.2). So the first execution of a command is
//! answered by one replica per partition, its **designated replier**
//! ([`designated_replier`]): the replica whose vote completes the
//! majority on the narrowest ring the partition reads. That replica
//! decides first there, and since a narrower ring follows a wider one
//! through the merge, it delivers first too.
//!
//! Everything a silent designated replier would leave unanswered is
//! answered by every replica ([`ReplyRule::answers`]), so a crashed or
//! unreachable designated replier costs the client one re-send, not a
//! hang:
//!
//! * a **re-sent command** — a `(session, seq)` this replica executed
//!   before, which the session table answers from its reply cache. A
//!   client re-sends only what went unanswered;
//! * **session control** (open, keep-alive, expiry);
//! * anything on a replica that cannot name its designated replier (no
//!   partition, or a partition coordination does not describe).
//!
//! A node also answers what it admitted as a
//! [`ClientMsg::RequestHere`](common::wire::client::ClientMsg::RequestHere)
//! — the frame a client sends to the one replica whose answer it needs —
//! and what its driver marks with
//! [`MultiRingHost::answer_here`](crate::MultiRingHost::answer_here).

use std::collections::{BTreeSet, HashMap, VecDeque};

use common::ids::{NodeId, RequestId};
use common::value::{Envelope, NO_SESSION, SESSION_CTL};
use coord::RingConfig;

/// Requests this node answers whatever the rule says, remembered until
/// they execute (the oldest of more is forgotten).
const HERE_REMEMBERED: usize = 1024;

/// The replica of `replicas` that answers the first execution of a
/// command on a partition whose narrowest ring is `cfg`: walking the
/// ring from its coordinator, the first replica at or after the acceptor
/// whose vote completes the majority. `None` if no replica is a member.
pub(crate) fn designated_replier(cfg: &RingConfig, replicas: &[NodeId]) -> Option<NodeId> {
    let members = cfg.members();
    let start = members.iter().position(|m| *m == cfg.coordinator())?;
    let majority = usize::from(cfg.majority());
    let mut votes = 0;
    (members.iter().cycle().skip(start).take(members.len()))
        .find(|m| {
            votes += usize::from(cfg.is_acceptor(**m));
            votes >= majority && replicas.contains(m)
        })
        .copied()
}

/// What one session has executed here, as far as this replica can tell.
struct SessionSeqs {
    /// The highest ack the session's commands carried: every seq at or
    /// below it was answered.
    ack: u64,
    /// The first seq seen since this replica started keeping the
    /// session's seqs; one below it may have executed before.
    floor: u64,
    /// Seqs above `ack` executed here.
    seqs: BTreeSet<u64>,
}

/// The replica-local half of the reply rule: which delivered commands
/// are re-sends, and which this node was asked to answer. See the
/// module docs.
#[derive(Default)]
pub(crate) struct ReplyRule {
    /// Per session, the seqs executed here.
    sessions: HashMap<u64, SessionSeqs>,
    /// `(session, seq)` of requests this node answers whatever the rule
    /// says and that have not executed yet, oldest first.
    here: VecDeque<(u64, RequestId)>,
}

impl ReplyRule {
    /// Remembers that this node answers the first execution of `seq`
    /// under `session` whatever the rule says.
    pub(crate) fn answer_here(&mut self, session: u64, seq: RequestId) {
        if self.here.len() == HERE_REMEMBERED {
            self.here.pop_front();
        }
        self.here.push_back((session, seq));
    }

    /// Records the execution of `env` and says whether this replica
    /// answers it. `designated` says whether this replica is its
    /// partition's designated replier, `None` when it cannot tell.
    pub(crate) fn answers(&mut self, env: &Envelope, designated: Option<bool>) -> bool {
        if env.session == SESSION_CTL {
            return true;
        }
        let resent = env.session != NO_SESSION && self.resent(env);
        let here = !self.here.is_empty() && self.take_here(env);
        resent || here || designated != Some(false)
    }

    /// Whether `env` repeats a command executed here — or may: a session
    /// seen for the first time, and a seq below the first one seen,
    /// count as repeats, since this replica may have executed them
    /// before it installed a checkpoint.
    fn resent(&mut self, env: &Envelope) -> bool {
        let seq = env.req.raw();
        let Some(s) = self.sessions.get_mut(&env.session) else {
            let seqs = SessionSeqs {
                ack: env.ack,
                floor: seq,
                seqs: BTreeSet::from([seq]),
            };
            self.sessions.insert(env.session, seqs);
            return true;
        };
        if env.ack > s.ack {
            s.ack = env.ack;
            while s.seqs.first().is_some_and(|first| *first <= s.ack) {
                s.seqs.pop_first();
            }
        }
        seq <= s.ack || seq < s.floor || !s.seqs.insert(seq)
    }

    fn take_here(&mut self, env: &Envelope) -> bool {
        let key = (env.session, env.req);
        let at = self.here.iter().position(|k| *k == key);
        at.and_then(|at| self.here.remove(at)).is_some()
    }

    /// Forgets every session but `live` (ascending): the session table
    /// removed them.
    pub(crate) fn retain(&mut self, live: &[u64]) {
        (self.sessions).retain(|id, _| live.binary_search(id).is_ok());
    }

    /// Forgets what executed here: the replica's state was replaced (a
    /// checkpoint installed) or lost (a crash).
    pub(crate) fn forget_executed(&mut self) {
        self.sessions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use common::ids::{ClientId, RingId};

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId::new).collect()
    }

    fn env(session: u64, seq: u64, ack: u64) -> Envelope {
        Envelope {
            client: ClientId::new(1),
            req: RequestId::new(seq),
            reply_to: NodeId::new(99),
            session,
            ack,
            trace: 0,
            cmd: Bytes::new(),
        }
    }

    /// The acceptor completing the majority, counted from the
    /// coordinator in ring order; a member that is no replica of the
    /// partition passes the turn to the next one that is.
    #[test]
    fn the_designated_replier_completes_the_majority() {
        let ring = RingId::new(0);
        let three = RingConfig::new(ring, nodes(&[0, 1, 2]), nodes(&[0, 1, 2])).unwrap();
        assert_eq!(
            designated_replier(&three, &nodes(&[0, 1, 2])),
            Some(NodeId::new(1))
        );
        let two = RingConfig::new(ring, nodes(&[4, 5]), nodes(&[4, 5])).unwrap();
        assert_eq!(
            designated_replier(&two, &nodes(&[4, 5])),
            Some(NodeId::new(5))
        );
        let one = RingConfig::new(ring, nodes(&[7]), nodes(&[7])).unwrap();
        assert_eq!(designated_replier(&one, &nodes(&[7])), Some(NodeId::new(7)));

        let mut moved = three.clone();
        moved.set_coordinator(NodeId::new(2)).unwrap();
        assert_eq!(
            designated_replier(&moved, &nodes(&[0, 1, 2])),
            Some(NodeId::new(0))
        );
        // Node 1 only learns: acceptors 0 and 2 decide.
        let learner = RingConfig::new(ring, nodes(&[0, 1, 2]), nodes(&[0, 2])).unwrap();
        assert_eq!(
            designated_replier(&learner, &nodes(&[0, 1, 2])),
            Some(NodeId::new(2))
        );
        assert_eq!(
            designated_replier(&three, &nodes(&[0, 2])),
            Some(NodeId::new(2))
        );
        assert_eq!(designated_replier(&three, &nodes(&[9])), None);
    }

    /// A designated replier answers a first execution, another replica
    /// does not; both answer a repeat, session control and what they
    /// cannot place.
    #[test]
    fn a_repeat_is_answered_by_every_replica() {
        let mut rule = ReplyRule::default();
        assert!(
            rule.answers(&env(5, 1, 0), Some(false)),
            "an unseen session"
        );
        assert!(!rule.answers(&env(5, 2, 0), Some(false)));
        assert!(rule.answers(&env(5, 3, 0), Some(true)));
        assert!(rule.answers(&env(5, 2, 0), Some(false)), "a re-send");
        assert!(
            rule.answers(&env(5, 1, 1), Some(false)),
            "at or below the ack"
        );
        assert!(!rule.answers(&env(5, 4, 1), Some(false)));
        assert!(rule.answers(&env(SESSION_CTL, 9, 0), Some(false)));
        assert!(rule.answers(&env(5, 5, 1), None));

        let mut restored = ReplyRule::default();
        restored.answers(&env(5, 10, 0), Some(false));
        assert!(
            restored.answers(&env(5, 8, 0), Some(false)),
            "below the floor"
        );
        rule.forget_executed();
        assert!(rule.answers(&env(5, 6, 1), Some(false)), "forgotten");
    }

    /// A request admitted here is answered here once.
    #[test]
    fn a_request_admitted_here_is_answered_here_once() {
        let mut rule = ReplyRule::default();
        rule.answers(&env(5, 1, 0), Some(false));
        rule.answer_here(5, RequestId::new(2));
        assert!(rule.answers(&env(5, 2, 1), Some(false)));
        assert!(!rule.answers(&env(5, 3, 1), Some(false)));
        assert!(rule.here.is_empty());
    }
}
