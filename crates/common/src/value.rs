//! The unit of agreement.
//!
//! A [`Value`] is what a ring decides in one consensus instance. Besides
//! application payloads there are two protocol-internal kinds:
//!
//! * [`ValueKind::Noop`] — proposed by a new coordinator to fill gaps left
//!   by a failed predecessor;
//! * [`ValueKind::Skip`] — Multi-Ring Paxos *rate leveling*: a single
//!   decision that stands for `n` skipped instances, letting slow rings keep
//!   up with the deterministic merge without shipping `n` empty messages.

use bytes::Bytes;
use std::fmt;

use crate::error::WireError;
use crate::ids::{ClientId, NodeId, RequestId};
use crate::wire::{get_tag, get_varint, Wire};
use crate::wire_frame;

wire_frame! {
    /// Globally unique value identifier: proposing node plus a per-node sequence
    /// number.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ValueId {
        /// The node that created the value.
        pub node: NodeId,
        /// The creating node's sequence number.
        pub seq: u64,
    }
}

impl ValueId {
    /// Creates a value id.
    pub const fn new(node: NodeId, seq: u64) -> Self {
        ValueId { node, seq }
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}.{}", self.node.raw(), self.seq)
    }
}

wire_frame! {
    "value kind";
    /// What a consensus instance carries.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ValueKind {
        /// An application payload (an encoded [`Envelope`] for the services in
        /// this workspace, but rings are payload-agnostic).
        0 => App(Bytes),
        /// A gap filler proposed during coordinator failover; delivered to no
        /// one.
        1 => Noop,
        /// Stands for `n` skipped instances (rate leveling). The deterministic
        /// merge counts it as `n` instances of its ring and delivers nothing.
        2 => Skip(u32),
    }
}

wire_frame! {
    /// A value proposed to (and eventually decided by) a ring.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Value {
        /// Unique id used for duplicate suppression and re-proposal tracking.
        pub id: ValueId,
        /// Payload or protocol-internal marker.
        pub kind: ValueKind,
    }
}

impl Value {
    /// An application value with payload `bytes`.
    pub fn app(node: NodeId, seq: u64, bytes: Bytes) -> Self {
        Value {
            id: ValueId::new(node, seq),
            kind: ValueKind::App(bytes),
        }
    }

    /// A no-op gap filler owned by `node`.
    pub fn noop(node: NodeId, seq: u64) -> Self {
        Value {
            id: ValueId::new(node, seq),
            kind: ValueKind::Noop,
        }
    }

    /// A skip token standing for `n` instances.
    pub fn skip(node: NodeId, seq: u64, n: u32) -> Self {
        Value {
            id: ValueId::new(node, seq),
            kind: ValueKind::Skip(n),
        }
    }

    /// The application payload, if this is an app value.
    pub fn payload(&self) -> Option<&Bytes> {
        match &self.kind {
            ValueKind::App(b) => Some(b),
            _ => None,
        }
    }

    /// Number of consensus instances this value stands for (1, or `n` for a
    /// skip).
    pub fn instance_span(&self) -> u64 {
        match self.kind {
            ValueKind::Skip(n) => u64::from(n.max(1)),
            _ => 1,
        }
    }

    /// True if learners should hand this value to the application.
    pub fn is_deliverable(&self) -> bool {
        matches!(self.kind, ValueKind::App(_))
    }
}

/// `Envelope::session` value meaning "no session": the v1 at-least-once
/// client model (commands execute on every delivery).
pub const NO_SESSION: u64 = 0;

/// `Envelope::session` value marking a session-*control* command (open /
/// keep-alive / expire); the command encoding lives in
/// `multiring::session`.
pub const SESSION_CTL: u64 = u64::MAX;

wire_frame! {
    /// The service-level request envelope carried inside [`ValueKind::App`].
    ///
    /// Replicas decode the envelope on delivery to know which client to answer
    /// and where to send the response.
    ///
    /// The `session`/`ack` pair is the protocol-v2 exactly-once identity: it
    /// is replicated *inside* the ordered command stream, so every replica
    /// makes the same executed-before decision for a retried `(session, req)`
    /// and prunes its reply cache at the same point. Session-less commands
    /// (a replica's own gossip, the coordination watch) leave both at zero.
    ///
    /// Adding these fields changed the envelope's *storage* encoding (it is
    /// embedded in acceptor logs and delivered-command WALs): logs written
    /// by pre-v2 builds do not replay on this one. Deployments recover
    /// state from partition peers, so a rolling upgrade recovers rather
    /// than replays; the external client protocol is unaffected (v1 frames
    /// are pinned byte-stable by `ci/wire_vectors_client.txt`).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Envelope {
        /// The client issuing the command.
        pub client: ClientId,
        /// The client's request sequence number (per-session under v2).
        pub req: RequestId,
        /// The node the response should be sent to.
        pub reply_to: NodeId,
        /// The exactly-once session this command executes under
        /// ([`NO_SESSION`] for v1 traffic, [`SESSION_CTL`] for session
        /// control commands).
        pub session: u64,
        /// Highest per-session seq the client has acknowledged receiving
        /// replies for (contiguously); replicas prune cached replies up to
        /// here.
        pub ack: u64,
        /// Stage-trace origin stamp: wall-clock nanoseconds at which the
        /// serving node admitted the command, or 0 for the (vast) unsampled
        /// majority. Carried through ordering so every process touching the
        /// command records its stage latency against the same origin — the
        /// deterministic sample bit that lines spans up across nodes. Like
        /// `session`/`ack` above, adding this field changed the envelope's
        /// storage encoding; pre-change logs recover from peers rather than
        /// replay.
        pub trace: u64,
        /// The service-specific command encoding.
        pub cmd: Bytes,
    }
}

impl Envelope {
    /// A v1 (sessionless, at-least-once) envelope — the simulator's and
    /// the v1 wire protocol's shape.
    pub fn v1(client: ClientId, req: RequestId, reply_to: NodeId, cmd: Bytes) -> Self {
        Envelope {
            client,
            req,
            reply_to,
            session: NO_SESSION,
            ack: 0,
            trace: 0,
            cmd,
        }
    }
}

wire_frame! {
    "payload";
    /// What an [`ValueKind::App`] payload decodes to: one client command, or a
    /// proposer-side batch of commands sharing a single consensus instance.
    ///
    /// Batching many client requests into one proposal is how the live
    /// runtime keeps per-command consensus overhead low (the paper groups
    /// messages into 32 KB packets for the same reason); replicas execute the
    /// envelopes of a batch in order, so determinism is preserved.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Payload {
        /// A single client command.
        0 => One(Envelope),
        /// Several client commands ordered as one value.
        1 => Batch(Vec<Envelope>),
    }
}

impl Payload {
    /// Number of client commands carried.
    pub fn len(&self) -> usize {
        match self {
            Payload::One(_) => 1,
            Payload::Batch(envs) => envs.len(),
        }
    }

    /// True when no commands are carried (only possible for an empty
    /// batch, which proposers never emit).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the payload, yielding its envelopes in execution order.
    pub fn into_envelopes(self) -> Vec<Envelope> {
        match self {
            Payload::One(env) => vec![env],
            Payload::Batch(envs) => envs,
        }
    }

    /// Reads the first envelope's trace stamp out of an *encoded* payload
    /// without decoding commands: a few varints off the front of the
    /// buffer. The mid-pipeline stages (Phase 2 send, decision) see only
    /// encoded value bytes; this lets them record stage latency for
    /// sampled batches without paying a full decode on the hot path.
    /// Returns 0 (unsampled) for anything that does not parse — a
    /// non-payload value or a foreign encoding.
    pub fn peek_trace(encoded: &Bytes) -> u64 {
        fn inner(buf: &mut Bytes) -> Result<u64, WireError> {
            let tag = get_tag(buf, "payload")?;
            if tag == 1 {
                let n = get_varint(buf)?; // batch length
                if n == 0 {
                    return Ok(0);
                }
            } else if tag != 0 {
                return Ok(0);
            }
            ClientId::decode(buf)?;
            RequestId::decode(buf)?;
            NodeId::decode(buf)?;
            get_varint(buf)?; // session
            get_varint(buf)?; // ack
            get_varint(buf)
        }
        let mut buf = encoded.clone();
        inner(&mut buf).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_kinds_round_trip() {
        for v in [
            Value::app(NodeId::new(1), 1, Bytes::from_static(b"abc")),
            Value::noop(NodeId::new(2), 9),
            Value::skip(NodeId::new(3), 11, 5000),
        ] {
            let mut b = v.to_bytes();
            assert_eq!(Value::decode(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn encoded_len_matches_actual() {
        for v in [
            Value::app(NodeId::new(1), 1, Bytes::from(vec![0u8; 300])),
            Value::noop(NodeId::new(200), u64::MAX),
            Value::skip(NodeId::new(3), 0, u32::MAX),
        ] {
            assert_eq!(v.encoded_len(), v.to_bytes().len());
        }
    }

    #[test]
    fn instance_span_counts_skips() {
        assert_eq!(
            Value::app(NodeId::new(1), 1, Bytes::new()).instance_span(),
            1
        );
        assert_eq!(Value::skip(NodeId::new(1), 1, 100).instance_span(), 100);
        // degenerate skip still advances at least one instance
        assert_eq!(Value::skip(NodeId::new(1), 1, 0).instance_span(), 1);
    }

    #[test]
    fn deliverability() {
        assert!(Value::app(NodeId::new(1), 1, Bytes::new()).is_deliverable());
        assert!(!Value::noop(NodeId::new(1), 2).is_deliverable());
        assert!(!Value::skip(NodeId::new(1), 3, 4).is_deliverable());
    }

    #[test]
    fn envelope_round_trips() {
        let e = Envelope::v1(
            ClientId::new(8),
            RequestId::new(99),
            NodeId::new(3),
            Bytes::from_static(b"set k v"),
        );
        let mut b = e.to_bytes();
        assert_eq!(Envelope::decode(&mut b).unwrap(), e);

        // A sessioned (v2) envelope carries its exactly-once identity.
        let e = Envelope {
            session: 17,
            ack: 12,
            ..Envelope::v1(
                ClientId::new(8),
                RequestId::new(13),
                NodeId::new(3),
                Bytes::from_static(b"add k 1"),
            )
        };
        let mut b = e.to_bytes();
        assert_eq!(Envelope::decode(&mut b).unwrap(), e);
    }

    #[test]
    fn payload_round_trips_and_orders_envelopes() {
        let env = |req: u64| {
            Envelope::v1(
                ClientId::new(1),
                RequestId::new(req),
                NodeId::new(2),
                Bytes::from_static(b"cmd"),
            )
        };
        for p in [
            Payload::One(env(1)),
            Payload::Batch(vec![env(1), env(2), env(3)]),
            Payload::Batch(Vec::new()),
        ] {
            let mut b = p.to_bytes();
            assert_eq!(Payload::decode(&mut b).unwrap(), p);
        }
        let batch = Payload::Batch(vec![env(5), env(6)]);
        assert_eq!(batch.len(), 2);
        let reqs: Vec<u64> = batch.into_envelopes().iter().map(|e| e.req.raw()).collect();
        assert_eq!(reqs, vec![5, 6], "execution order preserved");
    }

    #[test]
    fn peek_trace_reads_the_first_envelope_without_decoding() {
        let stamped = Envelope {
            trace: 123_456_789,
            ..Envelope::v1(
                ClientId::new(1),
                RequestId::new(2),
                NodeId::new(3),
                Bytes::from(vec![0u8; 4096]),
            )
        };
        let plain = Envelope::v1(
            ClientId::new(4),
            RequestId::new(5),
            NodeId::new(6),
            Bytes::from_static(b"x"),
        );
        assert_eq!(
            Payload::peek_trace(&Payload::One(stamped.clone()).to_bytes()),
            123_456_789
        );
        assert_eq!(
            Payload::peek_trace(&Payload::Batch(vec![stamped, plain.clone()]).to_bytes()),
            123_456_789,
            "a batch reports its first envelope's stamp"
        );
        assert_eq!(Payload::peek_trace(&Payload::One(plain).to_bytes()), 0);
        assert_eq!(
            Payload::peek_trace(&Payload::Batch(Vec::new()).to_bytes()),
            0
        );
        assert_eq!(
            Payload::peek_trace(&Bytes::from_static(b"\xff junk")),
            0,
            "foreign bytes are unsampled, not an error"
        );
    }
}
