//! Exactly-once client sessions: the replicated session table.
//!
//! [`SessionApp`] decorates any [`ServiceApp`] with protocol-v2 session
//! semantics. It runs *inside* the merge-delivered command stream — the
//! only place where every replica of a partition sees the same commands
//! in the same order — so all replicas make identical decisions about
//! which `(session, seq)` pairs already executed. A retried request is
//! answered from the per-session reply cache, never executed a second
//! time; that is what makes non-idempotent commands (counters, CAS,
//! queue pops) safe under the client's aggressive failover re-send.
//!
//! The table is part of [`ServiceApp::snapshot`], so checkpoints (and
//! restart-in-place recovery) carry the dedup state: a replica restored
//! from a checkpoint cut at instance *k* replays exactly the commands
//! after *k* against a table that is also cut at *k*.
//!
//! ## One table, two execution engines
//!
//! The session bookkeeping itself is factored into `SessionTable`: a
//! pure, ordered admission core that decides — in delivery order — what
//! each envelope *is* (fresh execution, cached retry, stale, refused)
//! without executing anything. [`SessionApp`] drives it inline (the
//! classic single-threaded stack); the sharded executor
//! ([`crate::exec::ShardedExec`]) drives the same table from the merge
//! thread and hands the actual execution to per-partition shards. Cached
//! replies are held as [`ReplySlot`]s — single-assignment cells that the
//! executing side fills — so an admission decision never has to wait for
//! the execution it admitted.
//!
//! ## Session identity: ring-homed ids
//!
//! Sessions are opened through the ordered stream itself: a control
//! command ([`SessionCtl::Open`]) delivered on a ring allocates the next
//! id from that ring's replicated counter and **homes the session on
//! that ring** — the id carries the home ring in its top 16 bits
//! ([`session_home_ring`]), and the session's reply cache and dedup
//! state live only at the replicas that subscribe to the home ring.
//! Single-partition traffic opens a session on the partition's own ring
//! (no other partition stores anything for it); cross-partition traffic
//! opens one on the shared fanout ring, where every partition delivers
//! the same opens in the same order and therefore allocates the *same*
//! id — so a fanned-out command's session stamp resolves at every
//! addressed partition. Allocation is deterministic, collision-free by
//! construction (counters are per ring, the ring tag disambiguates),
//! with no wall-clock or randomness anywhere (protocol v1 needed a
//! wall-clock `seq_base` precisely because it lacked this).
//!
//! ## Liveness and expiry
//!
//! A session's `refresh` counter is bumped **only** by control commands
//! ordered on its home ring ([`SessionCtl::KeepAlive`]), never by
//! per-partition executions — so the counter is identical on every
//! replica holding the session, and one
//! [`SessionCtl::Expire`]`{session, seen_refresh}` CAS removes the
//! session everywhere or nowhere. Serving nodes propose the expiry on
//! the session's home ring when its refresh counter stops moving for its
//! TTL; a keep-alive racing through the log wins the CAS and the session
//! survives. Whenever the table removes a session — that CAS, or the
//! eviction below — [`SessionApp`] tells the service through
//! [`ServiceApp::session_removed`], in delivery order, so state a
//! service keeps per session (the coordination service's ephemeral
//! entries) goes on every replica at the same point of the stream.
//!
//! ## Bounded memory
//!
//! Cached replies are pruned by the client's replicated `ack` (highest
//! contiguously-received seq), the per-session cache is capped by the
//! credit window the server grants, and the table itself is capped with
//! deterministic least-recently-used eviction.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

use bytes::{BufMut, Bytes, BytesMut};
use common::error::WireError;
use common::ids::RingId;
use common::value::{Envelope, NO_SESSION, SESSION_CTL};
use common::wire::{get_bytes, get_varint, put_bytes, put_varint, Wire};

use crate::app::{ChainCut, ServiceApp, SnapshotCut};

pub use common::wire::client::{
    frame_ok, parse_open_reply, parse_reply, SessionCtl, ST_OK, ST_STALE, ST_UNKNOWN_SESSION,
    ST_WINDOW_EXCEEDED,
};

/// Bits below the home-ring tag in a session id.
const RING_TAG_SHIFT: u32 = 48;

/// Composes a ring-homed session id: the home ring (plus one, so the
/// zero tag stays reserved for the v1/no-session namespace) in the top
/// 16 bits, a per-ring replicated counter below. Ids from different
/// rings can never collide, and any holder of an id can recover the ring
/// that owns the session's reply cache.
fn compose_session_id(ring: RingId, counter: u64) -> u64 {
    debug_assert!(
        ring.raw() < u16::MAX,
        "ring id {ring} too large to home sessions"
    );
    debug_assert!(counter < 1 << RING_TAG_SHIFT, "session counter overflow");
    ((u64::from(ring.raw()) + 1) << RING_TAG_SHIFT) | counter
}

/// The ring a session id homes on (where its reply cache and dedup state
/// live, and where keep-alives/expiries must be ordered). `None` for the
/// reserved sentinels and untagged (pre-homing) ids.
pub fn session_home_ring(session: u64) -> Option<RingId> {
    if session == NO_SESSION || session == SESSION_CTL {
        return None;
    }
    let tag = session >> RING_TAG_SHIFT;
    if tag == 0 || tag > u64::from(u16::MAX) {
        return None;
    }
    Some(RingId::new((tag - 1) as u16))
}

/// A one-byte status payload.
fn status(st: u8) -> Bytes {
    Bytes::copy_from_slice(&[st])
}

/// The successful reply to [`SessionCtl::Open`]: status byte + the
/// allocated session id.
fn open_reply(session: u64) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(ST_OK);
    put_varint(&mut buf, session);
    buf.freeze()
}

/// Size caps for the replicated session table.
#[derive(Clone, Copy, Debug)]
pub struct SessionLimits {
    /// Maximum live sessions; beyond it the deterministically
    /// least-recently-used session is evicted.
    pub max_sessions: usize,
    /// Maximum cached replies per session — the server-side ceiling on
    /// the credit window (a seq further than this beyond the client's
    /// ack is refused, not executed).
    pub max_cached: usize,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            max_sessions: 4096,
            max_cached: 256,
        }
    }
}

/// A single-assignment reply cell shared between the session table (the
/// admission side) and whoever executes the admitted command.
///
/// Inline execution fills the slot synchronously, so readers never wait.
/// Under the sharded executor a slot may be observed *before* its
/// execution finished — a retried request racing its original down a
/// different shard queue — and [`ReplySlot::wait`] blocks until the
/// executing shard fills it. Filling is idempotent in effect (a slot is
/// only ever filled once, by the single executor that owns the command).
#[derive(Clone, Debug, Default)]
pub struct ReplySlot(Arc<SlotCell>);

#[derive(Debug, Default)]
struct SlotCell {
    reply: Mutex<Option<Bytes>>,
    ready: Condvar,
}

impl ReplySlot {
    /// An empty slot awaiting its reply.
    pub fn new() -> Self {
        Self::default()
    }

    /// A slot born filled (snapshot restore, inline execution).
    pub fn filled(reply: Bytes) -> Self {
        ReplySlot(Arc::new(SlotCell {
            reply: Mutex::new(Some(reply)),
            ready: Condvar::new(),
        }))
    }

    /// Fills the slot and wakes every waiter.
    pub fn fill(&self, reply: Bytes) {
        let mut guard = self.0.reply.lock().expect("reply slot lock");
        *guard = Some(reply);
        self.0.ready.notify_all();
    }

    /// Blocks until the slot is filled and returns the reply.
    pub fn wait(&self) -> Bytes {
        let mut guard = self.0.reply.lock().expect("reply slot lock");
        while guard.is_none() {
            guard = self.0.ready.wait(guard).expect("reply slot lock");
        }
        guard.clone().expect("slot filled")
    }

    /// The reply, if already filled.
    pub fn try_get(&self) -> Option<Bytes> {
        self.0.reply.lock().expect("reply slot lock").clone()
    }
}

#[derive(Clone, Debug, Default)]
struct SessionState {
    /// Highest seq the client confirmed receiving replies for.
    ack: u64,
    /// Replicated liveness counter (global-ring keep-alives only).
    refresh: u64,
    /// Deterministic LRU stamp (the app's execute tick).
    last_tick: u64,
    /// TTL the session was opened with.
    ttl_ms: u64,
    /// Cached (or in-flight, under the sharded executor) replies for
    /// executed seqs above `ack`.
    executed: BTreeMap<u64, ReplySlot>,
}

/// What the ordered admission core decided about one sessioned envelope.
pub(crate) enum Admission {
    /// Answer with this payload immediately; nothing executes (unknown
    /// session, stale seq, window refusal).
    Reply(Bytes),
    /// A retry of an already-admitted seq: answer from this cached slot
    /// (which may still be in flight under the sharded executor).
    Cached(ReplySlot),
    /// A fresh seq: execute the command and fill this slot (already
    /// inserted into the reply cache) with the framed reply.
    Execute(ReplySlot),
}

/// The ordered admission core of the exactly-once table: every decision
/// that must be made in delivery order — id allocation, ack pruning,
/// dedup lookups, window checks, liveness control, LRU eviction — with
/// execution itself left to the caller. Both the inline [`SessionApp`]
/// and the sharded executor are thin drivers around this.
pub(crate) struct SessionTable {
    limits: SessionLimits,
    /// Next session counter per home ring (counters start at 1; the full
    /// id is [`compose_session_id`]`(ring, counter)`). Per-ring counters
    /// make allocation deterministic *per ordered stream*: every replica
    /// subscribed to a ring delivers that ring's opens in the same order,
    /// so a shared ring (the fanout/global ring) allocates the same id
    /// at every partition.
    next_ids: BTreeMap<RingId, u64>,
    /// Deterministic logical clock: bumped once per executed envelope.
    tick: u64,
    sessions: BTreeMap<u64, SessionState>,
}

/// Decoded snapshot fields of a [`SessionTable`] (limits are config, not
/// state, and are never serialized).
pub(crate) struct TableImage {
    next_ids: BTreeMap<RingId, u64>,
    tick: u64,
    sessions: BTreeMap<u64, SessionState>,
}

impl SessionTable {
    pub(crate) fn new(limits: SessionLimits) -> Self {
        SessionTable {
            limits,
            next_ids: BTreeMap::new(),
            tick: 0,
            sessions: BTreeMap::new(),
        }
    }

    /// Advances the deterministic logical clock; call once per delivered
    /// envelope, before admission.
    pub(crate) fn tick(&mut self) {
        self.tick += 1;
    }

    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    fn evict_if_full(&mut self, removed: &mut impl FnMut(u64)) {
        while self.sessions.len() >= self.limits.max_sessions.max(1) {
            // Deterministic LRU: smallest (last_tick, id). Ticks advance
            // identically on every replica of the partition, so eviction
            // does too.
            let victim = self
                .sessions
                .iter()
                .min_by_key(|(id, s)| (s.last_tick, **id))
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    self.sessions.remove(&id);
                    removed(id);
                }
                None => return,
            }
        }
    }

    /// Applies one session-control command; `removed` hears every
    /// session it removes.
    pub(crate) fn control(
        &mut self,
        group: RingId,
        env: &Envelope,
        mut removed: impl FnMut(u64),
    ) -> Bytes {
        let Ok(ctl) = SessionCtl::decode(&mut env.cmd.clone()) else {
            return status(ST_STALE); // foreign/corrupt control payload
        };
        match ctl {
            SessionCtl::Open { token: _, ttl_ms } => {
                self.evict_if_full(&mut removed);
                let counter = self.next_ids.entry(group).or_insert(1);
                let id = compose_session_id(group, *counter);
                *counter += 1;
                self.sessions.insert(
                    id,
                    SessionState {
                        ack: 0,
                        refresh: 0,
                        last_tick: self.tick,
                        ttl_ms,
                        executed: BTreeMap::new(),
                    },
                );
                open_reply(id)
            }
            SessionCtl::KeepAlive { session } => match self.sessions.get_mut(&session) {
                Some(s) => {
                    s.refresh += 1;
                    s.last_tick = self.tick;
                    status(ST_OK)
                }
                None => status(ST_UNKNOWN_SESSION),
            },
            SessionCtl::Expire {
                session,
                seen_refresh,
            } => {
                if self
                    .sessions
                    .get(&session)
                    .is_some_and(|s| s.refresh == seen_refresh)
                {
                    // The CAS held: no keep-alive slipped in between the
                    // proposer's observation and this delivery.
                    self.sessions.remove(&session);
                    removed(session);
                }
                status(ST_OK)
            }
        }
    }

    /// The ordered admission decision for one sessioned envelope. On
    /// [`Admission::Execute`] the returned slot is already inserted into
    /// the reply cache, so a later duplicate — admitted after this call
    /// but possibly *answered* before the execution finishes — observes
    /// the same slot.
    pub(crate) fn admit(&mut self, session: u64, env: &Envelope) -> Admission {
        let seq = env.req.raw();
        let tick = self.tick;
        let max_cached = self.limits.max_cached as u64;
        let Some(s) = self.sessions.get_mut(&session) else {
            return Admission::Reply(status(ST_UNKNOWN_SESSION));
        };
        s.last_tick = tick;
        if env.ack > s.ack {
            // The client confirmed receipt up to env.ack: replies at
            // or below it can never be re-requested. Pruned
            // incrementally — on the hot path the ack advances with
            // nearly every request, and a tree rebuild per command
            // is measurable at six-figure op rates.
            s.ack = env.ack;
            while let Some((&k, _)) = s.executed.first_key_value() {
                if k > s.ack {
                    break;
                }
                s.executed.pop_first();
            }
        }
        if seq <= s.ack {
            return Admission::Reply(status(ST_STALE));
        }
        if let Some(slot) = s.executed.get(&seq) {
            return Admission::Cached(slot.clone()); // retry: no re-execution
        }
        if seq > s.ack + max_cached.max(1) {
            return Admission::Reply(status(ST_WINDOW_EXCEEDED));
        }
        let slot = ReplySlot::new();
        s.executed.insert(seq, slot.clone());
        Admission::Execute(slot)
    }

    /// Serializes the table (without any inner-service state). Callers
    /// must have rendezvoused with outstanding executions first: an
    /// unfilled slot snapshots as an empty reply.
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.next_ids.len() as u64);
        for (ring, counter) in &self.next_ids {
            put_varint(buf, u64::from(ring.raw()));
            put_varint(buf, *counter);
        }
        put_varint(buf, self.tick);
        put_varint(buf, self.sessions.len() as u64);
        for (id, s) in &self.sessions {
            put_varint(buf, *id);
            put_varint(buf, s.ack);
            put_varint(buf, s.refresh);
            put_varint(buf, s.last_tick);
            put_varint(buf, s.ttl_ms);
            put_varint(buf, s.executed.len() as u64);
            for (seq, slot) in &s.executed {
                put_varint(buf, *seq);
                put_bytes(buf, &slot.try_get().unwrap_or_default());
            }
        }
    }

    /// Decodes the table fields written by [`SessionTable::encode`],
    /// leaving `raw` positioned after them.
    pub(crate) fn decode_image(raw: &mut Bytes) -> Result<TableImage, WireError> {
        let rings = get_varint(raw)?;
        let mut next_ids = BTreeMap::new();
        for _ in 0..rings {
            let ring = RingId::decode(raw)?;
            next_ids.insert(ring, get_varint(raw)?);
        }
        let tick = get_varint(raw)?;
        let n = get_varint(raw)?;
        let mut sessions = BTreeMap::new();
        for _ in 0..n {
            let id = get_varint(raw)?;
            let ack = get_varint(raw)?;
            let refresh = get_varint(raw)?;
            let last_tick = get_varint(raw)?;
            let ttl_ms = get_varint(raw)?;
            let m = get_varint(raw)?;
            let mut executed = BTreeMap::new();
            for _ in 0..m {
                let seq = get_varint(raw)?;
                executed.insert(seq, ReplySlot::filled(get_bytes(raw)?));
            }
            sessions.insert(
                id,
                SessionState {
                    ack,
                    refresh,
                    last_tick,
                    ttl_ms,
                    executed,
                },
            );
        }
        Ok(TableImage {
            next_ids,
            tick,
            sessions,
        })
    }

    /// Installs decoded snapshot fields, keeping the configured limits.
    pub(crate) fn install(&mut self, image: TableImage) {
        self.next_ids = image.next_ids;
        self.tick = image.tick;
        self.sessions = image.sessions;
    }

    pub(crate) fn reset(&mut self) {
        self.next_ids.clear();
        self.tick = 0;
        self.sessions.clear();
    }

    pub(crate) fn session_probe(&self, session: u64) -> Option<(u64, u64)> {
        self.sessions.get(&session).map(|s| (s.refresh, s.ttl_ms))
    }

    pub(crate) fn session_ids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    pub(crate) fn cached_reply_count(&self) -> usize {
        self.sessions.values().map(|s| s.executed.len()).sum()
    }
}

/// The exactly-once decorator. See the module docs.
pub struct SessionApp {
    inner: Box<dyn ServiceApp>,
    table: SessionTable,
}

impl SessionApp {
    /// Decorates `inner` with the default limits.
    pub fn new(inner: Box<dyn ServiceApp>) -> Self {
        Self::with_limits(inner, SessionLimits::default())
    }

    /// Decorates `inner` with explicit limits.
    pub fn with_limits(inner: Box<dyn ServiceApp>, limits: SessionLimits) -> Self {
        SessionApp {
            inner,
            table: SessionTable::new(limits),
        }
    }

    /// Live sessions (diagnostics/tests).
    pub fn session_count(&self) -> usize {
        self.table.session_count()
    }

    /// The inner service (tests).
    pub fn inner(&self) -> &dyn ServiceApp {
        &*self.inner
    }
}

impl ServiceApp for SessionApp {
    fn execute(&mut self, group: RingId, env: &Envelope) -> Bytes {
        self.table.tick();
        match env.session {
            NO_SESSION => self.inner.execute(group, env),
            SESSION_CTL => {
                let inner = &mut self.inner;
                self.table
                    .control(group, env, |session| inner.session_removed(session))
            }
            session => match self.table.admit(session, env) {
                Admission::Reply(payload) => payload,
                Admission::Cached(slot) => {
                    slot.try_get().expect("inline replies fill synchronously")
                }
                Admission::Execute(slot) => {
                    let reply = frame_ok(&self.inner.execute(group, env));
                    slot.fill(reply.clone());
                    reply
                }
            },
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn snapshot_cut(&self) -> Box<dyn SnapshotCut> {
        // Layout: session-table image, then the inner service state as
        // the trailing rest of the buffer — no length prefix.
        // ShardedExec mirrors this layout byte for byte. The table image
        // is small and serialized at the cut; the bulk is the inner
        // service's own cut.
        let mut head = BytesMut::new();
        self.table.encode(&mut head);
        Box::new(ChainCut::new(head.freeze(), self.inner.snapshot_cut()))
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        // All-or-nothing on the table image: a corrupt snapshot keeps
        // the current state (the caller retries with a different
        // checkpoint). The remainder is the inner service state.
        let Ok(image) = SessionTable::decode_image(&mut raw) else {
            return;
        };
        self.table.install(image);
        self.inner.restore(&raw);
    }

    fn reset(&mut self) {
        self.table.reset();
        self.inner.reset();
    }

    fn checkpoint_durable(&mut self) {
        self.inner.checkpoint_durable();
    }

    fn session_probe(&self, session: u64) -> Option<(u64, u64)> {
        self.table.session_probe(session)
    }

    fn session_ids(&self) -> Vec<u64> {
        self.table.session_ids()
    }

    fn cached_reply_count(&self) -> usize {
        self.table.cached_reply_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use common::ids::{ClientId, NodeId, RequestId};

    /// A deliberately non-idempotent service: every execution increments
    /// a counter and echoes it.
    #[derive(Default)]
    struct CountApp {
        executed: u64,
    }

    impl ServiceApp for CountApp {
        fn execute(&mut self, _group: RingId, _env: &Envelope) -> Bytes {
            self.executed += 1;
            Bytes::copy_from_slice(&self.executed.to_le_bytes())
        }

        fn snapshot(&self) -> Bytes {
            Bytes::copy_from_slice(&self.executed.to_le_bytes())
        }

        fn restore(&mut self, state: &Bytes) {
            let mut raw = [0u8; 8];
            raw[..state.len().min(8)].copy_from_slice(&state[..state.len().min(8)]);
            self.executed = u64::from_le_bytes(raw);
        }

        fn reset(&mut self) {
            self.executed = 0;
        }
    }

    fn ctl(client: u32, token: u64, ctl: SessionCtl) -> Envelope {
        Envelope {
            client: ClientId::new(client),
            req: RequestId::new(token),
            reply_to: NodeId::new(0),
            session: SESSION_CTL,
            ack: 0,
            trace: 0,
            cmd: ctl.to_bytes(),
        }
    }

    fn req(client: u32, session: u64, seq: u64, ack: u64) -> Envelope {
        Envelope {
            client: ClientId::new(client),
            req: RequestId::new(seq),
            reply_to: NodeId::new(0),
            session,
            ack,
            trace: 0,
            cmd: Bytes::from_static(b"bump"),
        }
    }

    fn open(app: &mut SessionApp, client: u32, token: u64) -> u64 {
        let reply = app.execute(
            RingId::new(9),
            &ctl(
                client,
                token,
                SessionCtl::Open {
                    token,
                    ttl_ms: 30_000,
                },
            ),
        );
        parse_open_reply(&reply).expect("open reply")
    }

    fn new_app() -> SessionApp {
        SessionApp::new(Box::new(CountApp::default()))
    }

    #[test]
    fn retried_requests_execute_exactly_once() {
        let mut app = new_app();
        let s = open(&mut app, 1, 100);
        let g = RingId::new(0);
        let first = app.execute(g, &req(1, s, 1, 0));
        assert_eq!(parse_reply(&first).unwrap().0, ST_OK);
        // The retry returns the *cached* reply; the counter does not move.
        let retry = app.execute(g, &req(1, s, 1, 0));
        assert_eq!(retry, first);
        let second = app.execute(g, &req(1, s, 2, 0));
        assert_ne!(second, first);
        let (st, counter) = parse_reply(&second).unwrap();
        assert_eq!(st, ST_OK);
        assert_eq!(u64::from_le_bytes(counter[..8].try_into().unwrap()), 2);
    }

    #[test]
    fn ack_prunes_cache_and_stale_seqs_do_not_execute() {
        let mut app = new_app();
        let s = open(&mut app, 1, 100);
        let g = RingId::new(0);
        for seq in 1..=4 {
            app.execute(g, &req(1, s, seq, 0));
        }
        // Ack 3: replies 1..=3 pruned; a duplicate of seq 2 is stale.
        let stale = app.execute(g, &req(1, s, 2, 3));
        assert_eq!(parse_reply(&stale).unwrap().0, ST_STALE);
        // Seq 4 is still cached (above the ack floor).
        let cached = app.execute(g, &req(1, s, 4, 3));
        assert_eq!(parse_reply(&cached).unwrap().0, ST_OK);
        // Counter never moved past 4 executions.
        let fresh = app.execute(g, &req(1, s, 5, 3));
        let (_, counter) = parse_reply(&fresh).unwrap();
        assert_eq!(u64::from_le_bytes(counter[..8].try_into().unwrap()), 5);
    }

    #[test]
    fn unknown_session_and_window_are_refused_without_executing() {
        let mut app = SessionApp::with_limits(
            Box::new(CountApp::default()),
            SessionLimits {
                max_sessions: 8,
                max_cached: 4,
            },
        );
        let g = RingId::new(0);
        let r = app.execute(g, &req(1, 77, 1, 0));
        assert_eq!(parse_reply(&r).unwrap().0, ST_UNKNOWN_SESSION);
        let s = open(&mut app, 1, 100);
        let r = app.execute(g, &req(1, s, 9, 0)); // far beyond ack+cap
        assert_eq!(parse_reply(&r).unwrap().0, ST_WINDOW_EXCEEDED);
        // Nothing executed so far.
        let ok = app.execute(g, &req(1, s, 1, 0));
        let (_, counter) = parse_reply(&ok).unwrap();
        assert_eq!(u64::from_le_bytes(counter[..8].try_into().unwrap()), 1);
    }

    #[test]
    fn every_open_allocates_a_fresh_id() {
        // Fresh ids even for a repeated (client, token) pair: reusing the
        // old session would hand a new client incarnation the dead
        // incarnation's ack floor and reply cache.
        let mut app = new_app();
        let a = open(&mut app, 1, 100);
        let b = open(&mut app, 1, 100);
        let c = open(&mut app, 2, 100);
        assert!(a < b && b < c, "ids are unique and monotone: {a} {b} {c}");
    }

    #[test]
    fn expire_cas_loses_to_keepalive() {
        let mut app = new_app();
        let s = open(&mut app, 1, 100);
        let g = RingId::new(9);
        app.execute(g, &ctl(1, 1, SessionCtl::KeepAlive { session: s }));
        // A node that observed refresh 0 proposes expiry: CAS fails.
        app.execute(
            g,
            &ctl(
                0,
                2,
                SessionCtl::Expire {
                    session: s,
                    seen_refresh: 0,
                },
            ),
        );
        assert_eq!(app.session_probe(s).map(|(r, _)| r), Some(1));
        // With the current refresh, the expiry lands.
        app.execute(
            g,
            &ctl(
                0,
                3,
                SessionCtl::Expire {
                    session: s,
                    seen_refresh: 1,
                },
            ),
        );
        assert!(app.session_probe(s).is_none());
    }

    #[test]
    fn snapshot_restore_keeps_dedup_across_restart() {
        let mut app = new_app();
        let s = open(&mut app, 1, 100);
        let g = RingId::new(0);
        let first = app.execute(g, &req(1, s, 1, 0));
        let snap = app.snapshot();

        let mut restored = new_app();
        restored.restore(&snap);
        assert_eq!(restored.session_count(), 1);
        // The retry against the restored replica is still deduplicated.
        let retry = restored.execute(g, &req(1, s, 1, 0));
        assert_eq!(retry, first);
        // And fresh commands continue the counter where it left off.
        let next = restored.execute(g, &req(1, s, 2, 0));
        let (_, counter) = parse_reply(&next).unwrap();
        assert_eq!(u64::from_le_bytes(counter[..8].try_into().unwrap()), 2);
    }

    #[test]
    fn table_cap_evicts_least_recently_used() {
        let mut app = SessionApp::with_limits(
            Box::new(EchoApp::new()),
            SessionLimits {
                max_sessions: 2,
                max_cached: 16,
            },
        );
        let a = open(&mut app, 1, 1);
        let b = open(&mut app, 2, 1);
        // Touch `a` so `b` is the LRU when the cap forces an eviction.
        app.execute(RingId::new(0), &req(1, a, 1, 0));
        let c = open(&mut app, 3, 1);
        assert_eq!(app.session_count(), 2);
        assert!(app.session_probe(a).is_some());
        assert!(app.session_probe(b).is_none(), "LRU session evicted");
        assert!(app.session_probe(c).is_some());
    }

    /// Records every session the table reports removed.
    struct Removals(Arc<Mutex<Vec<u64>>>);

    impl ServiceApp for Removals {
        fn execute(&mut self, _group: RingId, _env: &Envelope) -> Bytes {
            Bytes::new()
        }

        fn snapshot(&self) -> Bytes {
            Bytes::new()
        }

        fn restore(&mut self, _state: &Bytes) {}

        fn reset(&mut self) {}

        fn session_removed(&mut self, session: u64) {
            self.0.lock().unwrap().push(session);
        }
    }

    #[test]
    fn expiry_and_eviction_tell_the_service_once_per_removed_session() {
        let removed = Arc::new(Mutex::new(Vec::new()));
        let mut app = SessionApp::with_limits(
            Box::new(Removals(Arc::clone(&removed))),
            SessionLimits {
                max_sessions: 2,
                max_cached: 4,
            },
        );
        let a = open(&mut app, 1, 1);
        let b = open(&mut app, 2, 1);
        let g = RingId::new(9);
        let expire = |session, seen_refresh| SessionCtl::Expire {
            session,
            seen_refresh,
        };
        // An expiry that loses its CAS removes nothing.
        app.execute(g, &ctl(1, 1, SessionCtl::KeepAlive { session: a }));
        app.execute(g, &ctl(0, 2, expire(a, 0)));
        assert!(removed.lock().unwrap().is_empty());
        // One that wins removes `a`, once; a repeat finds nothing.
        app.execute(g, &ctl(0, 3, expire(a, 1)));
        app.execute(g, &ctl(0, 4, expire(a, 1)));
        assert_eq!(*removed.lock().unwrap(), [a]);
        // A full table evicts its least recently used session, `b`.
        open(&mut app, 3, 1);
        open(&mut app, 4, 1);
        assert_eq!(*removed.lock().unwrap(), [a, b]);
        assert_eq!(app.session_count(), 2);
    }

    #[test]
    fn v1_traffic_passes_through_untouched() {
        let mut app = new_app();
        let env = Envelope::v1(
            ClientId::new(1),
            RequestId::new(7),
            NodeId::new(0),
            Bytes::from_static(b"x"),
        );
        let r1 = app.execute(RingId::new(0), &env);
        let r2 = app.execute(RingId::new(0), &env);
        // v1 semantics: re-delivery re-executes (at-least-once).
        assert_eq!(u64::from_le_bytes(r1[..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(r2[..8].try_into().unwrap()), 2);
    }

    #[test]
    fn session_ctl_round_trips() {
        for c in [
            SessionCtl::Open {
                token: 9,
                ttl_ms: 30_000,
            },
            SessionCtl::KeepAlive { session: 3 },
            SessionCtl::Expire {
                session: 3,
                seen_refresh: 17,
            },
        ] {
            let mut b = c.to_bytes();
            assert_eq!(SessionCtl::decode(&mut b).unwrap(), c);
        }
    }

    #[test]
    fn reply_slot_blocks_until_filled() {
        let slot = ReplySlot::new();
        assert!(slot.try_get().is_none());
        let waiter = slot.clone();
        let handle = std::thread::spawn(move || waiter.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        slot.fill(Bytes::from_static(b"done"));
        assert_eq!(handle.join().unwrap(), Bytes::from_static(b"done"));
        assert_eq!(slot.try_get(), Some(Bytes::from_static(b"done")));
    }
}
