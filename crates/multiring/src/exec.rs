//! The sharded executor: parallel execution behind the deterministic
//! merge.
//!
//! The merge/delivery stage of a node is inherently single-threaded —
//! the deterministic round-robin over subscribed rings *is* the total
//! order — but nothing in the paper requires the commands themselves to
//! be executed on that thread. [`ShardedExec`] splits a partition's
//! service state into `N` disjoint sub-shards, each owned by one worker
//! thread with a bounded SPSC queue, and turns the merge thread into a
//! thin dispatcher: per delivered envelope it performs only the ordered
//! session-table admission (see `crate::session::SessionTable`) and a
//! routing decision, then hands the execution — service state
//! transition, reply framing, reply-slot fill, WAL staging — to the
//! owning shard.
//!
//! ## Determinism
//!
//! Every state transition that must be identical across replicas either
//! (a) happens on the merge thread in delivery order (session table:
//! ticks, admission, ack pruning, id allocation, eviction), or (b) is
//! confined to a single shard, which receives its commands in delivery
//! order through a FIFO queue. Replies can leave the node out of
//! delivery order — clients match replies by seq — but state is
//! byte-identical to the single-threaded stack by construction. The
//! `sharded_determinism` property test in `crates/multiring/tests/`
//! checks exactly this against arbitrary command streams.
//!
//! ## Cross-shard commands
//!
//! A command addressing several sub-shards (e.g. an MRP-Store scan, or
//! dLog's multi-log append) becomes a *sequence barrier*: an
//! `AllJoin` op is enqueued to every shard in the same dispatch step,
//! so each shard executes it after exactly the commands delivered
//! before it and before any delivered after — the white-box "join only
//! the addressed groups" discipline, applied inside the node. The last
//! shard to arrive combines the partial replies via
//! [`ShardPlan::combine`].
//!
//! ## Flush and rendezvous
//!
//! Batch boundaries forward [`ServiceApp::flush`] as a queued token to
//! every shard the batch touched — shards group-commit their WALs
//! concurrently, and the merge thread does not wait. A full rendezvous
//! happens only where semantics demand one: [`ShardedExec::snapshot`]
//! drains every queue (FIFO order guarantees the cut includes exactly
//! the commands dispatched before it), as do restore and reset.
//!
//! ## Status
//!
//! No live runtime runs this executor: the node loop executes delivered
//! commands inline through [`crate::MultiRingHost`]. It stays for the
//! determinism property test and the benchmark's layer replay.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use common::ids::RingId;
use common::obs::{now_nanos, Counter, Hist, Obs};
use common::value::{Envelope, NO_SESSION, SESSION_CTL};

use crate::app::ServiceApp;
use crate::session::{frame_ok, Admission, ReplySlot, SessionLimits, SessionTable};

/// Which sub-shards one command addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard (index is taken modulo the shard count).
    One(usize),
    /// Every shard: a sequence barrier with combined replies.
    All,
}

/// How a service's state splits across executor shards: routing,
/// cross-shard reply combination, and snapshot split/merge. The plan
/// must agree with how the sub-shard states were constructed (shard `i`
/// owns exactly the keys the plan routes to `i`).
pub trait ShardPlan: Send + Sync + 'static {
    /// Number of shards this plan splits the state into.
    fn shards(&self) -> usize;

    /// The shard(s) a command addresses.
    fn route(&self, group: RingId, env: &Envelope) -> Route;

    /// Combines per-shard partial replies of a [`Route::All`] command
    /// (in shard order) into the single client reply. Must reproduce
    /// the unsharded service's reply bytes.
    fn combine(&self, group: RingId, env: &Envelope, partials: Vec<Bytes>) -> Bytes;

    /// Merges per-shard snapshots (in shard order) into the snapshot an
    /// unsharded instance of the service would produce.
    fn merge_snapshots(&self, parts: Vec<Bytes>) -> Bytes;

    /// Splits an unsharded service snapshot into per-shard snapshots
    /// (in shard order). Inverse of [`ShardPlan::merge_snapshots`].
    fn split_snapshot(&self, state: &Bytes) -> Vec<Bytes>;
}

/// Where executed replies go, called from the executing shard's thread
/// so reply encoding stays off the merge thread.
pub trait ReplySink: Send + Sync + 'static {
    /// Delivers the reply payload for one executed (or cache-answered)
    /// envelope.
    fn reply(&self, ring: RingId, env: &Envelope, payload: Bytes);
}

/// Join state of one in-flight [`Route::All`] barrier.
struct AllJoin {
    state: Mutex<JoinState>,
}

struct JoinState {
    remaining: usize,
    partials: Vec<Option<Bytes>>,
}

impl AllJoin {
    fn new(shards: usize) -> Self {
        AllJoin {
            state: Mutex::new(JoinState {
                remaining: shards,
                partials: vec![None; shards],
            }),
        }
    }

    /// Records shard `idx`'s partial; the last shard to arrive gets all
    /// partials back (in shard order) and owns the combine step.
    fn complete(&self, idx: usize, partial: Bytes) -> Option<Vec<Bytes>> {
        let mut s = self.state.lock().expect("join lock");
        s.partials[idx] = Some(partial);
        s.remaining -= 1;
        if s.remaining > 0 {
            return None;
        }
        Some(
            s.partials
                .iter_mut()
                .map(|p| p.take().expect("all partials recorded"))
                .collect(),
        )
    }
}

/// One queued instruction for a shard worker.
enum Op {
    /// Execute on this shard alone; fill `slot` (sessioned) and reply.
    Exec {
        ring: RingId,
        env: Envelope,
        slot: Option<ReplySlot>,
    },
    /// Barrier leg: execute on this shard's sub-state, join, and — on
    /// the last shard — combine and reply.
    All {
        ring: RingId,
        env: Envelope,
        slot: Option<ReplySlot>,
        join: Arc<AllJoin>,
    },
    /// A retry admitted from the reply cache: wait for the original
    /// execution (same queue or an earlier dispatch) to fill the slot,
    /// then reply. Never re-executes.
    SendCached {
        ring: RingId,
        env: Envelope,
        slot: ReplySlot,
    },
    /// Batch boundary: group-commit this shard's durability decorator.
    Flush,
    /// Rendezvous: serialize this shard's state at the current cut.
    Snapshot(mpsc::Sender<Bytes>),
    /// Rendezvous: replace this shard's state.
    Restore(Bytes, mpsc::Sender<()>),
    /// Rendezvous: crash-reset this shard's state.
    Reset(mpsc::Sender<()>),
    /// A checkpoint became durable: let the shard prune its WAL.
    CheckpointDurable,
}

/// Per-worker context: the shard's state plus shared plumbing.
struct WorkerCtx {
    idx: usize,
    state: Box<dyn ServiceApp>,
    plan: Arc<dyn ShardPlan>,
    sink: Arc<dyn ReplySink>,
    depth: Arc<AtomicUsize>,
    execute: Hist,
    stage_execute: Hist,
    stage_reply: Hist,
    barriers: Counter,
}

impl WorkerCtx {
    fn execute_timed(&mut self, ring: RingId, env: &Envelope) -> Bytes {
        let t0 = now_nanos();
        let raw = self.state.execute(ring, env);
        let t1 = now_nanos();
        self.execute.record(t1.saturating_sub(t0));
        if env.trace != 0 {
            self.stage_execute.record_since(env.trace);
        }
        raw
    }

    fn reply(&self, ring: RingId, env: &Envelope, payload: Bytes) {
        self.sink.reply(ring, env, payload);
        if env.trace != 0 {
            self.stage_reply.record_since(env.trace);
        }
    }

    fn run(mut self, rx: mpsc::Receiver<Op>) {
        while let Ok(op) = rx.recv() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            match op {
                Op::Exec { ring, env, slot } => {
                    let raw = self.execute_timed(ring, &env);
                    let payload = match &slot {
                        Some(slot) => {
                            let framed = frame_ok(&raw);
                            slot.fill(framed.clone());
                            framed
                        }
                        None => raw,
                    };
                    self.reply(ring, &env, payload);
                }
                Op::All {
                    ring,
                    env,
                    slot,
                    join,
                } => {
                    let partial = self.execute_timed(ring, &env);
                    if let Some(partials) = join.complete(self.idx, partial) {
                        let combined = self.plan.combine(ring, &env, partials);
                        let payload = match &slot {
                            Some(slot) => {
                                let framed = frame_ok(&combined);
                                slot.fill(framed.clone());
                                framed
                            }
                            None => combined,
                        };
                        self.barriers.inc();
                        self.reply(ring, &env, payload);
                    }
                }
                Op::SendCached { ring, env, slot } => {
                    // Safe to block: the filling op was dispatched for a
                    // strictly earlier envelope (dispatch is atomic per
                    // envelope on the merge thread), and fills never wait
                    // on later ops — so no cycle.
                    let payload = slot.wait();
                    self.reply(ring, &env, payload);
                }
                Op::Flush => self.state.flush(),
                Op::Snapshot(tx) => {
                    let _ = tx.send(self.state.snapshot());
                }
                Op::Restore(state, tx) => {
                    self.state.restore(&state);
                    let _ = tx.send(());
                }
                Op::Reset(tx) => {
                    self.state.reset();
                    let _ = tx.send(());
                }
                Op::CheckpointDurable => self.state.checkpoint_durable(),
            }
        }
    }
}

struct Shard {
    tx: mpsc::SyncSender<Op>,
    depth: Arc<AtomicUsize>,
    join: Option<JoinHandle<()>>,
}

/// A partition's service state split across worker threads, driven from
/// the merge thread. See the module docs for the determinism argument.
pub struct ShardedExec {
    plan: Arc<dyn ShardPlan>,
    table: SessionTable,
    shards: Vec<Shard>,
    /// Which shards the current delivered batch touched (flush targets).
    dirty: Vec<bool>,
}

impl ShardedExec {
    /// Spawns one worker per sub-state. `states[i]` must own exactly the
    /// slice of service state `plan` routes to shard `i` (including its
    /// own durability decorator, if any). `queue_cap` bounds each SPSC
    /// hand-off queue; a full queue backpressures the merge thread.
    pub fn new(
        states: Vec<Box<dyn ServiceApp>>,
        plan: Arc<dyn ShardPlan>,
        limits: SessionLimits,
        sink: Arc<dyn ReplySink>,
        obs: &Obs,
        queue_cap: usize,
    ) -> Self {
        assert_eq!(
            states.len(),
            plan.shards(),
            "one sub-state per planned shard"
        );
        assert!(!states.is_empty(), "at least one shard");
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(idx, state)| {
                let (tx, rx) = mpsc::sync_channel(queue_cap.max(1));
                let depth = Arc::new(AtomicUsize::new(0));
                let ctx = WorkerCtx {
                    idx,
                    state,
                    plan: Arc::clone(&plan),
                    sink: Arc::clone(&sink),
                    depth: Arc::clone(&depth),
                    execute: obs.hist(&format!("shard{idx}_execute_nanos")),
                    stage_execute: obs.hist("stage_execute_nanos"),
                    stage_reply: obs.hist("stage_reply_nanos"),
                    barriers: obs.counter("shard_barriers"),
                };
                let join = std::thread::Builder::new()
                    .name(format!("amcast-shard-{idx}"))
                    .spawn(move || ctx.run(rx))
                    .expect("spawn executor shard");
                Shard {
                    tx,
                    depth,
                    join: Some(join),
                }
            })
            .collect();
        let dirty = vec![false; plan.shards()];
        ShardedExec {
            plan,
            table: SessionTable::new(limits),
            shards,
            dirty,
        }
    }

    fn send(&mut self, idx: usize, op: Op) {
        self.shards[idx].depth.fetch_add(1, Ordering::Relaxed);
        self.shards[idx].tx.send(op).expect("executor shard alive");
    }

    fn dispatch(&mut self, ring: RingId, env: &Envelope, slot: Option<ReplySlot>) {
        match self.plan.route(ring, env) {
            Route::One(i) => {
                let i = i % self.shards.len();
                self.dirty[i] = true;
                self.send(
                    i,
                    Op::Exec {
                        ring,
                        env: env.clone(),
                        slot,
                    },
                );
            }
            Route::All => {
                let join = Arc::new(AllJoin::new(self.shards.len()));
                for i in 0..self.shards.len() {
                    self.dirty[i] = true;
                    self.send(
                        i,
                        Op::All {
                            ring,
                            env: env.clone(),
                            slot: slot.clone(),
                            join: Arc::clone(&join),
                        },
                    );
                }
            }
        }
    }

    /// Admits and dispatches one delivered envelope. Returns the reply
    /// payload when the merge thread must answer it directly (session
    /// control and refusals — pure table decisions with nothing to
    /// execute); `None` when a shard will produce the reply through the
    /// sink.
    pub fn deliver(&mut self, ring: RingId, env: &Envelope) -> Option<Bytes> {
        self.table.tick();
        match env.session {
            NO_SESSION => {
                self.dispatch(ring, env, None);
                None
            }
            // Removed sessions need no word to the shards: no sharded
            // service keeps state per session.
            SESSION_CTL => Some(self.table.control(ring, env, |_| {})),
            session => match self.table.admit(session, env) {
                Admission::Reply(payload) => Some(payload),
                Admission::Cached(slot) => {
                    // Route the wait to the shard that owns (or owned)
                    // the execution so no other shard's queue stalls
                    // behind it.
                    let i = match self.plan.route(ring, env) {
                        Route::One(i) => i % self.shards.len(),
                        Route::All => 0,
                    };
                    self.send(
                        i,
                        Op::SendCached {
                            ring,
                            env: env.clone(),
                            slot,
                        },
                    );
                    None
                }
                Admission::Execute(slot) => {
                    self.dispatch(ring, env, Some(slot));
                    None
                }
            },
        }
    }

    /// Batch boundary: forwards a flush token to every shard the batch
    /// touched. Non-blocking — shards group-commit concurrently.
    pub fn flush_batch(&mut self) {
        let dirty = std::mem::replace(&mut self.dirty, vec![false; self.shards.len()]);
        for (i, was_dirty) in dirty.into_iter().enumerate() {
            if was_dirty {
                self.send(i, Op::Flush);
            }
        }
    }

    /// Rendezvous snapshot at the current cut: every shard serializes
    /// after draining exactly the ops dispatched before this call (FIFO
    /// queues), then the parts merge into the bytes the single-threaded
    /// stack would produce. By the same FIFO argument, every reply slot
    /// admitted before the cut is filled when this returns. Layout
    /// matches the unsharded [`crate::SessionApp`] byte for byte:
    /// session-table image, then the merged service state as the
    /// trailing rest of the buffer (no length prefix).
    pub fn snapshot(&mut self) -> Bytes {
        let mut rxs = VecDeque::new();
        for i in 0..self.shards.len() {
            let (tx, rx) = mpsc::channel();
            self.send(i, Op::Snapshot(tx));
            rxs.push_back(rx);
        }
        let parts: Vec<Bytes> = rxs
            .into_iter()
            .map(|rx| rx.recv().expect("executor shard alive"))
            .collect();
        let merged = self.plan.merge_snapshots(parts);
        let mut buf = BytesMut::new();
        self.table.encode(&mut buf);
        buf.extend_from_slice(&merged);
        buf.freeze()
    }

    /// Rendezvous restore from a [`ShardedExec::snapshot`] (or an
    /// unsharded [`crate::SessionApp`] snapshot — same bytes). Corrupt
    /// input keeps the current state, like the inline stack.
    pub fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        let Ok(image) = SessionTable::decode_image(&mut raw) else {
            return;
        };
        // The remainder of the blob is the merged service state.
        let parts = self.plan.split_snapshot(&raw);
        assert_eq!(parts.len(), self.shards.len(), "plan split arity");
        let mut acks = VecDeque::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            self.send(i, Op::Restore(part, tx));
            acks.push_back(rx);
        }
        for rx in acks {
            rx.recv().expect("executor shard alive");
        }
        self.table.install(image);
        self.dirty = vec![false; self.shards.len()];
    }

    /// Rendezvous crash-reset of every shard and the session table.
    pub fn reset(&mut self) {
        let mut acks = VecDeque::new();
        for i in 0..self.shards.len() {
            let (tx, rx) = mpsc::channel();
            self.send(i, Op::Reset(tx));
            acks.push_back(rx);
        }
        for rx in acks {
            rx.recv().expect("executor shard alive");
        }
        self.table.reset();
        self.dirty = vec![false; self.shards.len()];
    }

    /// Tells every shard the latest checkpoint is durable (WAL pruning
    /// may proceed past the cut). Asynchronous.
    pub fn checkpoint_durable(&mut self) {
        for i in 0..self.shards.len() {
            self.send(i, Op::CheckpointDurable);
        }
    }

    /// See [`ServiceApp::session_probe`].
    pub fn session_probe(&self, session: u64) -> Option<(u64, u64)> {
        self.table.session_probe(session)
    }

    /// See [`ServiceApp::session_ids`].
    pub fn session_ids(&self) -> Vec<u64> {
        self.table.session_ids()
    }

    /// See [`ServiceApp::cached_reply_count`].
    pub fn cached_reply_count(&self) -> usize {
        self.table.cached_reply_count()
    }

    /// Live exactly-once sessions.
    pub fn session_count(&self) -> usize {
        self.table.session_count()
    }

    /// Number of executor shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

impl Drop for ShardedExec {
    fn drop(&mut self) {
        // Close every queue first, then join: workers drain their
        // remaining ops and exit on disconnect, releasing WAL locks
        // deterministically before drop returns (kill/restart relies on
        // this ordering).
        let shards = std::mem::take(&mut self.shards);
        let mut joins = Vec::new();
        for mut shard in shards {
            drop(shard.tx);
            if let Some(join) = shard.join.take() {
                joins.push(join);
            }
        }
        for join in joins {
            let _ = join.join();
        }
    }
}

/// A [`ShardPlan`] for [`crate::EchoApp`] sub-shards: commands hash to a
/// shard by their bytes; snapshots are the summed per-shard counters.
/// Used by tests and the Echo service kind.
pub struct EchoShardPlan {
    shards: usize,
}

impl EchoShardPlan {
    /// A plan over `shards` echo sub-states.
    pub fn new(shards: usize) -> Self {
        EchoShardPlan {
            shards: shards.max(1),
        }
    }
}

fn fnv1a_bytes(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

impl ShardPlan for EchoShardPlan {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, _group: RingId, env: &Envelope) -> Route {
        let h = fnv1a_bytes(u64::from(env.client.raw()) ^ env.req.raw(), &env.cmd);
        Route::One((h % self.shards as u64) as usize)
    }

    fn combine(&self, _group: RingId, _env: &Envelope, partials: Vec<Bytes>) -> Bytes {
        partials.into_iter().next().unwrap_or_default()
    }

    fn merge_snapshots(&self, parts: Vec<Bytes>) -> Bytes {
        let total: u64 = parts
            .iter()
            .map(|p| {
                let mut raw = [0u8; 8];
                let n = p.len().min(8);
                raw[..n].copy_from_slice(&p[..n]);
                u64::from_le_bytes(raw)
            })
            .sum();
        Bytes::copy_from_slice(&total.to_le_bytes())
    }

    fn split_snapshot(&self, state: &Bytes) -> Vec<Bytes> {
        // The echo counter is not key-addressed; park the whole count on
        // shard 0. Execution counts diverge from a run that never
        // snapshotted, but the *merged* total — the only observable — is
        // preserved.
        let mut parts = vec![Bytes::copy_from_slice(&0u64.to_le_bytes()); self.shards];
        parts[0] = state.clone();
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EchoApp;
    use crate::session::{parse_open_reply, SessionApp, SessionCtl};
    use common::ids::{ClientId, NodeId, RequestId};
    use common::wire::Wire;

    /// Collects replies keyed by (client, seq) for comparison.
    #[derive(Default)]
    struct CollectSink {
        replies: Mutex<Vec<(u32, u64, Bytes)>>,
    }

    impl ReplySink for CollectSink {
        fn reply(&self, _ring: RingId, env: &Envelope, payload: Bytes) {
            self.replies
                .lock()
                .unwrap()
                .push((env.client.raw(), env.req.raw(), payload));
        }
    }

    fn sessioned(client: u32, session: u64, seq: u64, ack: u64, cmd: &'static [u8]) -> Envelope {
        Envelope {
            client: ClientId::new(client),
            req: RequestId::new(seq),
            reply_to: NodeId::new(0),
            session,
            ack,
            trace: 0,
            cmd: Bytes::from_static(cmd),
        }
    }

    fn open_env(client: u32, token: u64) -> Envelope {
        Envelope {
            client: ClientId::new(client),
            req: RequestId::new(token),
            reply_to: NodeId::new(0),
            session: common::value::SESSION_CTL,
            ack: 0,
            trace: 0,
            cmd: SessionCtl::Open {
                token,
                ttl_ms: 30_000,
            }
            .to_bytes(),
        }
    }

    fn new_exec(shards: usize, sink: Arc<CollectSink>) -> ShardedExec {
        let states: Vec<Box<dyn ServiceApp>> = (0..shards)
            .map(|_| Box::new(EchoApp::new()) as Box<dyn ServiceApp>)
            .collect();
        ShardedExec::new(
            states,
            Arc::new(EchoShardPlan::new(shards)),
            SessionLimits::default(),
            sink,
            &Obs::for_node(0),
            64,
        )
    }

    #[test]
    fn sharded_echo_matches_inline_session_app() {
        let ring = RingId::new(0);
        let sink = Arc::new(CollectSink::default());
        let mut exec = new_exec(3, Arc::clone(&sink));
        let mut inline = SessionApp::new(Box::new(EchoApp::new()));

        // Open a session on both engines (control replies come from the
        // merge side in the sharded engine).
        let open = open_env(1, 7);
        let inline_open = inline.execute(ring, &open);
        let sharded_open = exec.deliver(ring, &open).expect("ctl answered inline");
        assert_eq!(inline_open, sharded_open);
        let session = parse_open_reply(&sharded_open).unwrap();

        // A mixed stream: fresh seqs, a retry, a v1 command.
        let mut inline_replies = Vec::new();
        let envs = [
            sessioned(1, session, 1, 0, b"a"),
            sessioned(1, session, 2, 0, b"b"),
            sessioned(1, session, 1, 0, b"a"), // retry
            Envelope::v1(
                ClientId::new(2),
                RequestId::new(9),
                NodeId::new(0),
                Bytes::from_static(b"v1"),
            ),
            sessioned(1, session, 3, 2, b"c"),
        ];
        for env in &envs {
            inline_replies.push((env.client.raw(), env.req.raw(), inline.execute(ring, env)));
            if let Some(payload) = exec.deliver(ring, env) {
                sink.reply(ring, env, payload);
            }
        }
        exec.flush_batch();

        // Snapshot is a rendezvous: after it, every reply has been sunk.
        let sharded_snap = exec.snapshot();
        assert_eq!(inline.snapshot(), sharded_snap);

        let mut got = sink.replies.lock().unwrap().clone();
        got.sort_by_key(|(c, s, _)| (*c, *s));
        let mut want = inline_replies;
        want.sort_by_key(|(c, s, _)| (*c, *s));
        // The retry and the original produce identical replies, so the
        // multiset comparison below is well-defined.
        assert_eq!(got.len(), want.len());
        got.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        want.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        assert_eq!(got, want);

        // Session accessors mirror the inline stack.
        assert_eq!(exec.session_count(), inline.session_count());
        assert_eq!(exec.cached_reply_count(), inline.cached_reply_count());
    }

    #[test]
    fn snapshot_restore_round_trips_across_shard_counts() {
        let ring = RingId::new(0);
        let sink = Arc::new(CollectSink::default());
        let mut exec = new_exec(2, Arc::clone(&sink));
        let open = open_env(1, 1);
        let session = parse_open_reply(&exec.deliver(ring, &open).unwrap()).unwrap();
        for seq in 1..=5 {
            exec.deliver(ring, &sessioned(1, session, seq, 0, b"x"));
        }
        let snap = exec.snapshot();

        // Restore into a *different* shard count: snapshots are engine-
        // independent.
        let sink2 = Arc::new(CollectSink::default());
        let mut exec2 = new_exec(4, Arc::clone(&sink2));
        exec2.restore(&snap);
        assert_eq!(exec2.session_count(), 1);
        assert_eq!(exec2.snapshot(), snap);

        // A retry against the restored engine is answered from cache.
        exec2.deliver(ring, &sessioned(1, session, 5, 0, b"x"));
        exec2.snapshot(); // rendezvous so the reply is sunk
        let replies = sink2.replies.lock().unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].2.first(), Some(&crate::session::ST_OK));
    }

    #[test]
    fn reset_clears_shards_and_table() {
        let ring = RingId::new(0);
        let sink = Arc::new(CollectSink::default());
        let mut exec = new_exec(2, Arc::clone(&sink));
        let open = open_env(1, 1);
        let session = parse_open_reply(&exec.deliver(ring, &open).unwrap()).unwrap();
        exec.deliver(ring, &sessioned(1, session, 1, 0, b"x"));
        exec.reset();
        assert_eq!(exec.session_count(), 0);
        let empty = {
            let mut inline = SessionApp::new(Box::new(EchoApp::new()));
            inline.reset();
            inline.snapshot()
        };
        assert_eq!(exec.snapshot(), empty);
    }
}
