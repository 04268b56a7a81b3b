//! The replicated service interface.
//!
//! A [`ServiceApp`] is the state machine replicated by atomic multicast:
//! every replica of a partition executes the same command stream (the
//! deterministic merge of its subscribed groups) and therefore evolves
//! through the same states (§5.2). MRP-Store and dLog implement this
//! trait; [`EchoApp`] is the paper's "dummy service" used for the
//! Figure 3 baseline.

use bytes::{Bytes, BytesMut};
use common::ids::RingId;
use common::value::Envelope;

/// A deterministic state machine executed by every replica of a
/// partition.
///
/// `Send` because the live runtime drives replicas on OS threads; the
/// simulator does not need it but every real service is trivially `Send`.
pub trait ServiceApp: Send + 'static {
    /// Executes one delivered command and returns the reply payload sent
    /// back to the client. Must be deterministic: identical command
    /// streams must produce identical states and replies.
    fn execute(&mut self, group: RingId, env: &Envelope) -> Bytes;

    /// Batch boundary: called by the host after it finishes draining a
    /// burst of deliveries into [`ServiceApp::execute`]. Durability
    /// decorators use it for group commit — one write + one sync per
    /// delivered batch instead of per command. Default: no-op.
    fn flush(&mut self) {}

    /// Serializes the full service state for a checkpoint. The default
    /// encodes [`ServiceApp::snapshot_cut`], so a service that overrides
    /// the cut writes its layout once. Implement at least one of the two.
    fn snapshot(&self) -> Bytes {
        let cut = self.snapshot_cut();
        let mut buf = BytesMut::with_capacity(cut.encoded_len());
        cut.encode(&mut buf);
        buf.freeze()
    }

    /// Takes a checkpoint at the current state: an owned, immutable cut
    /// that encodes to exactly the bytes [`ServiceApp::snapshot`] returns
    /// at this instant, however the state changes afterwards. The host
    /// cuts when a recovering peer fetches a checkpoint, and encodes that
    /// cut at once; with durable checkpoint storage it also cuts at each
    /// checkpoint and keeps the cut until a restart installs it.
    ///
    /// The default encodes eagerly (fine for small states). Services
    /// with large state override it with a structural clone: refcounted
    /// values make cloning a map O(entries), not O(bytes).
    fn snapshot_cut(&self) -> Box<dyn SnapshotCut> {
        Box::new(EagerCut::new(self.snapshot()))
    }

    /// Replaces the service state with a checkpoint produced by
    /// [`ServiceApp::snapshot`].
    fn restore(&mut self, state: &Bytes);

    /// Drops all volatile state (crash). The default resets via
    /// `restore(&empty snapshot)` semantics and should be overridden when
    /// that is not the right behaviour.
    fn reset(&mut self);

    /// A checkpoint covering this app's state is now durable (saved and
    /// advertised). It covers at least everything executed before the
    /// previous call. Durability decorators use it to prune their logs;
    /// plain services ignore it. Default: no-op.
    fn checkpoint_durable(&mut self) {}

    /// The `(refresh, ttl_ms)` liveness reading of an exactly-once client
    /// session, if this app (or a decorator) tracks it — consulted by
    /// serving nodes to propose session expiry. Default: no sessions.
    fn session_probe(&self, _session: u64) -> Option<(u64, u64)> {
        None
    }

    /// Ids of every live exactly-once session. Default: none.
    fn session_ids(&self) -> Vec<u64> {
        Vec::new()
    }

    /// The exactly-once session table removed `session` — its expiry
    /// CAS held, or the table evicted it — at this point of the delivered
    /// stream, identically on every replica. A service that keeps state
    /// per session drops it here. Default: no-op.
    fn session_removed(&mut self, _session: u64) {}

    /// Replies cached for retry deduplication across all sessions, if
    /// this app (or a decorator) keeps any — the `session_cached_replies`
    /// gauge. Default: none.
    fn cached_reply_count(&self) -> usize {
        0
    }
}

/// An owned, immutable cut of a service's state. It can be encoded any
/// number of times, always to the same bytes: the serialized state at
/// the cut.
pub trait SnapshotCut: Send {
    /// The length of what [`SnapshotCut::encode`] appends, computed
    /// without encoding.
    fn encoded_len(&self) -> usize;

    /// Appends the serialized state at the cut to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// A [`SnapshotCut`] over state already serialized: the default for
/// services with small state, and a checkpoint fetched from a peer.
pub struct EagerCut(Bytes);

impl EagerCut {
    /// A cut over an already-serialized state.
    pub fn new(state: Bytes) -> Self {
        EagerCut(state)
    }
}

impl SnapshotCut for EagerCut {
    fn encoded_len(&self) -> usize {
        self.0.len()
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.extend_from_slice(&self.0);
    }
}

/// A [`SnapshotCut`] that prefixes an inner cut with an eagerly
/// serialized header. Decorators ([`crate::SessionApp`], WAL wrappers)
/// own small state of their own; the bulk is the wrapped service's cut.
pub struct ChainCut {
    head: Bytes,
    inner: Box<dyn SnapshotCut>,
}

impl ChainCut {
    /// `head` first, then `inner`.
    pub fn new(head: Bytes, inner: Box<dyn SnapshotCut>) -> Self {
        ChainCut { head, inner }
    }
}

impl SnapshotCut for ChainCut {
    fn encoded_len(&self) -> usize {
        self.head.len() + self.inner.encoded_len()
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.extend_from_slice(&self.head);
        self.inner.encode(buf);
    }
}

/// The paper's dummy service: commands execute no operation; the reply
/// echoes a fixed acknowledgement. Used to measure raw ordering-protocol
/// performance (§8.3.1).
#[derive(Debug, Default)]
pub struct EchoApp {
    executed: u64,
}

impl EchoApp {
    /// A fresh echo service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of commands executed (diagnostics).
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl ServiceApp for EchoApp {
    fn execute(&mut self, _group: RingId, _env: &Envelope) -> Bytes {
        self.executed += 1;
        Bytes::from_static(b"ok")
    }

    fn snapshot(&self) -> Bytes {
        Bytes::copy_from_slice(&self.executed.to_le_bytes())
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = [0u8; 8];
        let n = state.len().min(8);
        raw[..n].copy_from_slice(&state[..n]);
        self.executed = u64::from_le_bytes(raw);
    }

    fn reset(&mut self) {
        self.executed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::{ClientId, NodeId, RequestId};

    #[test]
    fn echo_app_counts_and_snapshots() {
        let env = Envelope::v1(
            ClientId::new(1),
            RequestId::new(1),
            NodeId::new(0),
            Bytes::from_static(b"anything"),
        );
        let mut app = EchoApp::new();
        assert_eq!(app.execute(RingId::new(0), &env), Bytes::from_static(b"ok"));
        app.execute(RingId::new(0), &env);
        assert_eq!(app.executed(), 2);

        let snap = app.snapshot();
        let mut other = EchoApp::new();
        other.restore(&snap);
        assert_eq!(other.executed(), 2);

        app.reset();
        assert_eq!(app.executed(), 0);
    }

    #[test]
    fn the_default_eager_cut_keeps_the_state_at_the_cut() {
        let env = Envelope::v1(
            ClientId::new(1),
            RequestId::new(1),
            NodeId::new(0),
            Bytes::from_static(b"anything"),
        );
        let mut app = EchoApp::new();
        app.execute(RingId::new(0), &env);
        let at_cut = app.snapshot();
        let cut = app.snapshot_cut();
        app.execute(RingId::new(0), &env);
        app.reset();
        app.execute(RingId::new(0), &env);
        app.execute(RingId::new(0), &env);
        for _ in 0..2 {
            let mut buf = BytesMut::new();
            cut.encode(&mut buf);
            assert_eq!(buf.freeze(), at_cut);
            assert_eq!(cut.encoded_len(), at_cut.len());
        }
    }
}
