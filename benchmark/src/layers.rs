//! Layer replay: the first commands of a workload fed through each
//! layer's public entry point in isolation, single-threaded, with a span
//! around every call.
//!
//! Every call into the system's crates that the replay makes lives in
//! this file, one function per layer. When a layer's API changes, the
//! fix is that one function.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::ids::{ClientId, InstanceId, NodeId, PartitionId, RequestId, RingId};
use common::msg::{Msg, RingMsg};
use common::obs::Obs;
use common::transport::{encode_frame, FrameBuf};
use common::value::{Envelope, Payload, SESSION_CTL};
use common::wire::client::ClientMsg;
use common::wire::Wire;
use common::{SimTime, Value, ValueKind};
use coord::{Registry, RingConfig};
use liverun::{BatchOptions, Batcher, DeploymentConfig, WalRecord};
use mrpstore::{KvApp, KvShardPlan, Partitioning};
use multiring::session::parse_open_reply;
use multiring::{
    EchoApp, MergeLearner, ReplySink, ServiceApp, SessionApp, SessionCtl, SessionLimits,
    ShardedExec,
};
use ringpaxos::{Output, RingNode, RingOptions, RingTimer};
use storage::wal::{DecidedLog, SegmentedWal, SyncPolicy};

use crate::gen;
use crate::workload::{Role, Workload};

/// Commands replayed per workload.
pub const REPLAY_COMMANDS: usize = 20_000;

/// One recorded call. `parent` indexes the enclosing span, if any.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cmd_id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the replay ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// What an empty span measures: two clock reads. Taken off every
    /// span's self time.
    overhead_ns: f64,
}

impl Tracer {
    pub fn new() -> Self {
        let mut t = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            overhead_ns: 0.0,
        };
        for i in 0..2_000 {
            t.span("calibrate", i, |_| {});
        }
        let mut empty: Vec<f64> = t
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        t.overhead_ns = crate::stats::quantile(&mut empty, 0.5).unwrap_or(0.0);
        t.spans.clear();
        t
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for command (or batch, or
    /// instance) `cmd_id`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cmd_id: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            cmd_id,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let r = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        r
    }

    /// Total self time (duration minus child spans minus the clock
    /// overhead, floored at 0 per span) of the spans named `name`, and
    /// how many there were.
    pub fn self_time(&self, name: &str) -> (f64, u64) {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .fold((0.0, 0), |(total, n), (s, child)| {
                let own = (s.end_ns - s.start_ns - child) as f64 - self.overhead_ns;
                (total + own.max(0.0), n + 1)
            })
    }

    /// One JSON object per span, one per line.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use crate::json::{obj, Json};
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            obj([
                ("name", Json::from(s.name)),
                ("cmd_id", Json::from(s.cmd_id)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ])
            .write(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// What the layers replay: the workload's first commands as thread 0
/// generates them, wrapped the way the live path wraps them.
pub struct Replay<'a> {
    pub w: &'a Workload,
    config: &'a DeploymentConfig,
    /// The ring the replayed replica orders single-partition commands on.
    ring: RingId,
    /// Encoded `KvCommand`s.
    cmds: Vec<Bytes>,
    /// The commands as the batcher sealed them (filled by [`batch`]).
    batches: Vec<Vec<Envelope>>,
}

impl<'a> Replay<'a> {
    pub fn new(w: &'a Workload, config: &'a DeploymentConfig, seed: u64) -> Self {
        // One partition's view: the replayed replica owns every key.
        let scheme = Partitioning::Hash { partitions: 1 };
        let keys = gen::key_table(0, w.keys_per_thread, &scheme, None);
        let counter = gen::counter_key(0, &scheme, None);
        let mut g = gen::CmdGen::new(seed, 0, w);
        let cmds = (0..REPLAY_COMMANDS)
            .map(|_| gen::command(g.next_op(), &keys, &counter, w.value_bytes).to_bytes())
            .collect();
        Replay {
            w,
            config,
            ring: RingId::new(0),
            cmds,
            batches: Vec::new(),
        }
    }

    fn envelope(&self, i: usize, session: u64) -> Envelope {
        Envelope {
            client: ClientId::new(10),
            req: RequestId::new(i as u64 + 1),
            reply_to: NodeId::new(0),
            session,
            // The ack trails a full credit window behind, as a client
            // with 64 in flight reports it.
            ack: (i as u64).saturating_sub(63),
            trace: 0,
            cmd: self.cmds[i].clone(),
        }
    }

    fn per_op(&self, t: &Tracer, name: &str) -> f64 {
        t.self_time(name).0 / self.cmds.len() as f64
    }
}

fn app_value(node: NodeId, seq: u64, envs: &[Envelope]) -> Value {
    Value::app(node, seq, Payload::Batch(envs.to_vec()).to_bytes())
}

/// `common::wire`: the client request as the client encodes and the
/// node decodes it, and the Phase 2 message carrying each sealed batch
/// as every ring hop encodes and decodes it.
pub fn wire(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    let mut bytes = 0u64;
    for i in 0..r.cmds.len() {
        let msg = ClientMsg::RequestV2 {
            session: 1 << 48,
            seq: RequestId::new(i as u64 + 1),
            ack: (i as u64).saturating_sub(63),
            group: r.ring,
            cmd: r.cmds[i].clone(),
        };
        let mut encoded = t.span("common.wire.encode", i as u64, |_| msg.to_bytes());
        bytes += encoded.len() as u64;
        let decoded = t.span("common.wire.decode", i as u64, |_| {
            ClientMsg::decode(&mut encoded)
        });
        assert_eq!(decoded.as_ref(), Ok(&msg), "client message round-trips");
    }
    for (b, envs) in r.batches.iter().enumerate() {
        let msg = Msg::Ring(
            r.ring,
            RingMsg::Phase2 {
                inst: InstanceId::new(b as u64),
                ballot: common::ids::Ballot::new(1, NodeId::new(0)),
                value: app_value(NodeId::new(0), b as u64 + 1, envs),
                votes: 1,
                ttl: 2,
            },
        );
        let mut encoded = t.span("common.wire.encode", b as u64, |_| msg.to_bytes());
        bytes += encoded.len() as u64;
        let decoded = t.span("common.wire.decode", b as u64, |_| {
            Msg::decode(&mut encoded)
        });
        assert!(decoded.is_ok(), "phase 2 round-trips");
    }
    vec![
        (
            "common.wire.encode_ns_op",
            r.per_op(t, "common.wire.encode"),
        ),
        (
            "common.wire.decode_ns_op",
            r.per_op(t, "common.wire.decode"),
        ),
        ("common.wire.bytes_op", bytes as f64 / r.cmds.len() as f64),
    ]
}

/// `common::transport`: length-delimited framing of the already encoded
/// client request (`encode_frame`), and reassembly from socket-sized
/// chunks (`FrameBuf`), so the message codec stays out of the number.
pub fn transport(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    const CHUNK: usize = 64 * 1024;
    let mut buf = FrameBuf::new();
    let mut chunk: Vec<u8> = Vec::with_capacity(2 * CHUNK);
    let mut framed = 0usize;
    let mut reassembled = 0usize;
    for (i, cmd) in r.cmds.iter().enumerate() {
        let frame = t.span("common.transport.frame", i as u64, |_| encode_frame(cmd));
        chunk.extend_from_slice(&frame);
        framed += 1;
        if chunk.len() >= CHUNK || i + 1 == r.cmds.len() {
            t.span("common.transport.frame", i as u64, |_| {
                buf.extend(&chunk);
                while let Some(body) = buf.try_next::<Bytes>().expect("well-formed frames") {
                    std::hint::black_box(body);
                    reassembled += 1;
                }
            });
            chunk.clear();
        }
    }
    assert_eq!(framed, reassembled, "every frame comes back out");
    vec![(
        "common.transport.frame_ns_op",
        r.per_op(t, "common.transport.frame"),
    )]
}

/// `liverun::batch`: every command pushed into the proposer-side
/// batcher under the deployment's limits, on a synthetic clock: the
/// closed loop delivers commands back to back, an open loop at its rate.
/// The sealed batches feed the layers below.
pub fn batch(t: &mut Tracer, r: &mut Replay) -> Vec<(&'static str, f64)> {
    let opts = BatchOptions {
        max_envelopes: r.config.batch_max.max(1),
        max_bytes: r.config.batch_max_bytes.max(1),
        max_delay: r.config.batch_delay,
    };
    let rate: f64 =
        r.w.roles
            .iter()
            .map(|role| match role {
                Role::Open { rate } => *rate,
                _ => 0.0,
            })
            .sum();
    let gap = if rate > 0.0 {
        Duration::from_secs_f64(1.0 / rate)
    } else {
        Duration::ZERO
    };
    let mut batcher = Batcher::new(opts);
    let start = Instant::now();
    let mut sealed = Vec::new();
    for i in 0..r.cmds.len() {
        let env = r.envelope(i, 1 << 48);
        let now = start + gap * i as u32;
        t.span("liverun.batch.push", i as u64, |_| {
            sealed.extend(batcher.take_due(now).into_iter().map(|(_, envs)| envs));
            sealed.extend(batcher.push(r.ring, env, now));
        });
    }
    sealed.extend(batcher.take_all().into_iter().map(|(_, envs)| envs));
    assert_eq!(
        sealed.iter().map(Vec::len).sum::<usize>(),
        r.cmds.len(),
        "the batcher hands back every command"
    );
    r.batches = sealed;
    vec![(
        "liverun.batch.push_ns_op",
        r.per_op(t, "liverun.batch.push"),
    )]
}

/// `ringpaxos::node`: one consensus instance per sealed batch on an
/// in-memory ring sized like the workload's partition ring, messages
/// relayed synchronously: from the coordinator's propose until every
/// member has decided.
pub fn ring(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    let members: Vec<NodeId> = (0..u32::from(r.w.replicas)).map(NodeId::new).collect();
    let registry = Registry::new();
    registry
        .register_ring(
            RingConfig::new(r.ring, members.clone(), members.clone()).expect("ring config"),
        )
        .expect("fresh registry");
    let opts = RingOptions {
        value_push_bytes: r.config.value_push_bytes,
        ..RingOptions::crash_free()
    };
    let mut nodes: Vec<RingNode> = members
        .iter()
        .map(|m| RingNode::new(*m, r.ring, registry.clone(), opts.clone()).expect("member"))
        .collect();
    let now = SimTime::ZERO;
    let mut decided = vec![0usize; nodes.len()];
    // Relays sends until the ring is quiet; storage and batch timers fire
    // at once, periodic ones (rate leveling, liveness, retry) never.
    let mut relay = |nodes: &mut Vec<RingNode>, origin: usize, out: &mut Output| {
        let mut queue: VecDeque<(usize, NodeId, RingMsg)> = VecDeque::new();
        let mut timers: VecDeque<(usize, RingTimer)> = VecDeque::new();
        let mut drain = |at: usize,
                         out: &mut Output,
                         queue: &mut VecDeque<(usize, NodeId, RingMsg)>,
                         timers: &mut VecDeque<(usize, RingTimer)>| {
            let from = NodeId::new(at as u32);
            queue.extend(
                out.sends
                    .drain(..)
                    .map(|(to, msg)| (to.raw() as usize, from, msg)),
            );
            decided[at] += out
                .decided
                .drain(..)
                .filter(|(_, v)| v.is_deliverable())
                .count();
            timers.extend(out.timers.drain(..).map(|(_, timer)| (at, timer)));
        };
        drain(origin, out, &mut queue, &mut timers);
        loop {
            let mut o = Output::new();
            if let Some((to, from, msg)) = queue.pop_front() {
                nodes[to].on_msg(from, msg, now, &mut o);
                drain(to, &mut o, &mut queue, &mut timers);
            } else if let Some((at, timer)) = timers.pop_front() {
                if matches!(
                    timer,
                    RingTimer::WriteDone(_) | RingTimer::PromiseDone(_) | RingTimer::BatchFlush
                ) {
                    nodes[at].on_timer(timer, now, &mut o);
                    drain(at, &mut o, &mut queue, &mut timers);
                }
            } else {
                break;
            }
        }
    };
    for i in 0..nodes.len() {
        let mut out = Output::new();
        nodes[i].start(now, &mut out);
        relay(&mut nodes, i, &mut out);
    }
    let coordinator = nodes
        .iter()
        .position(RingNode::is_coordinator)
        .expect("a coordinator");
    for (b, envs) in r.batches.iter().enumerate() {
        let id = nodes[coordinator].next_value_id();
        let value = Value {
            id,
            kind: ValueKind::App(Payload::Batch(envs.clone()).to_bytes()),
        };
        t.span("ringpaxos.node.round", b as u64, |_| {
            let mut out = Output::new();
            nodes[coordinator].propose(value, now, &mut out);
            relay(&mut nodes, coordinator, &mut out);
        });
    }
    assert!(
        decided.iter().all(|d| *d == r.batches.len()),
        "every member decided every instance: {decided:?}"
    );
    let (total, rounds) = t.self_time("ringpaxos.node.round");
    vec![("ringpaxos.node.round_ns_inst", total / rounds.max(1) as f64)]
}

/// `multiring::merge`: a replica's deterministic merge over its ring
/// set (its partition's ring and the global ring): each decided batch
/// pushed on the partition ring, a skip on the idle global ring, then
/// popped in merge order.
pub fn merge(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    let global = r.config.global_ring();
    let mut learner = MergeLearner::new(&[r.ring, global], 1);
    let mut delivered = 0usize;
    for (b, envs) in r.batches.iter().enumerate() {
        let inst = InstanceId::new(b as u64);
        let value = app_value(NodeId::new(0), b as u64 + 1, envs);
        let skip = Value::skip(NodeId::new(1), b as u64 + 1, 1);
        t.span("multiring.merge.push_pop", b as u64, |_| {
            learner.push(r.ring, inst, value);
            learner.push(global, inst, skip);
            while let Some(d) = learner.pop() {
                std::hint::black_box(d);
                delivered += 1;
            }
        });
    }
    assert_eq!(delivered, r.batches.len(), "the merge delivers every batch");
    let (total, n) = t.self_time("multiring.merge.push_pop");
    vec![("multiring.merge.push_pop_ns_inst", total / n.max(1) as f64)]
}

fn open_session(reply: impl FnOnce(&Envelope) -> Bytes) -> u64 {
    let open = Envelope {
        session: SESSION_CTL,
        cmd: SessionCtl::Open {
            token: 1,
            ttl_ms: 30_000,
        }
        .to_bytes(),
        ..Envelope::v1(
            ClientId::new(10),
            RequestId::new(1),
            NodeId::new(0),
            Bytes::new(),
        )
    };
    parse_open_reply(&reply(&open)).expect("session opens")
}

fn session_limits(config: &DeploymentConfig) -> SessionLimits {
    SessionLimits {
        max_cached: (config.client_window as usize * 2).max(256),
        ..SessionLimits::default()
    }
}

/// `multiring::session`: the exactly-once session table over an echo
/// service, so admission, reply caching and ack pruning are all that is
/// timed.
pub fn session(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    let mut app = SessionApp::with_limits(Box::new(EchoApp::new()), session_limits(r.config));
    let session = open_session(|env| app.execute(r.ring, env));
    for i in 0..r.cmds.len() {
        let env = r.envelope(i, session);
        let reply = t.span("multiring.session.execute", i as u64, |_| {
            app.execute(r.ring, &env)
        });
        std::hint::black_box(reply);
    }
    vec![(
        "multiring.session.execute_ns_op",
        r.per_op(t, "multiring.session.execute"),
    )]
}

struct DropReplies;
impl ReplySink for DropReplies {
    fn reply(&self, _ring: RingId, _env: &Envelope, _payload: Bytes) {}
}

/// `multiring::exec`: the merge thread's side of the sharded executor
/// (admission, routing, hand-off to two shard threads, flush tokens at
/// batch boundaries). Not on the live path while `executor_shards = 1`,
/// the generated default.
pub fn exec(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    const SHARDS: usize = 2;
    let scheme = Partitioning::Hash { partitions: 1 };
    let states = (0..SHARDS)
        .map(|k| {
            Box::new(KvApp::new(PartitionId::new(0), scheme.clone()).with_shard(k, SHARDS))
                as Box<dyn ServiceApp>
        })
        .collect();
    let mut exec = ShardedExec::new(
        states,
        Arc::new(KvShardPlan::new(SHARDS)),
        session_limits(r.config),
        Arc::new(DropReplies),
        &Obs::default(),
        1024,
    );
    let session = open_session(|env| exec.deliver(r.ring, env).expect("table answers opens"));
    let mut i = 0;
    for envs in &r.batches {
        for _ in envs {
            let env = r.envelope(i, session);
            t.span("multiring.exec.deliver", i as u64, |_| {
                exec.deliver(r.ring, &env)
            });
            i += 1;
        }
        t.span("multiring.exec.deliver", i as u64, |_| exec.flush_batch());
    }
    vec![(
        "multiring.exec.deliver_ns_op",
        r.per_op(t, "multiring.exec.deliver"),
    )]
}

/// `mrpstore::store`: the workload's command mix executed on a store
/// preloaded like the live one.
pub fn store(t: &mut Tracer, r: &Replay) -> Vec<(&'static str, f64)> {
    let scheme = Partitioning::Hash { partitions: 1 };
    let mut app = KvApp::new(PartitionId::new(0), scheme.clone());
    for (idx, key) in gen::key_table(0, r.w.keys_per_thread, &scheme, None)
        .into_iter()
        .enumerate()
    {
        app.preload(key, gen::value_bytes(idx as u64, 0, r.w.value_bytes));
    }
    for i in 0..r.cmds.len() {
        let env = Envelope::v1(
            ClientId::new(10),
            RequestId::new(i as u64 + 1),
            NodeId::new(0),
            r.cmds[i].clone(),
        );
        let reply = t.span("mrpstore.store.execute", i as u64, |_| {
            app.execute(r.ring, &env)
        });
        std::hint::black_box(reply);
    }
    vec![(
        "mrpstore.store.execute_ns_op",
        r.per_op(t, "mrpstore.store.execute"),
    )]
}

/// `storage::wal`: each delivered batch staged and group-committed to a
/// segmented WAL (`SyncPolicy::EveryWrite`: one write, one fdatasync)
/// in `dir`. Zero when the workload runs without a WAL.
pub fn wal(t: &mut Tracer, r: &Replay, dir: &Path) -> Vec<(&'static str, f64)> {
    const NAME: &str = "storage.wal.commit_ns_batch";
    if !r.w.durable {
        return vec![(NAME, 0.0)];
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut log = SegmentedWal::open(dir, SyncPolicy::EveryWrite, r.config.wal_roll_every)
        .expect("wal directory opens");
    let mut pos = 0u64;
    for (b, envs) in r.batches.iter().enumerate() {
        t.span("storage.wal.commit", b as u64, |_| {
            for env in envs {
                log.stage(pos, &mut |buf| {
                    WalRecord {
                        ring: r.ring,
                        env: env.clone(),
                    }
                    .encode(buf)
                });
                pos += 1;
            }
            log.commit().expect("wal commits");
        });
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    let (total, n) = t.self_time("storage.wal.commit");
    vec![(NAME, total / n.max(1) as f64)]
}

/// Replays every layer and returns the replay-sourced metrics; the
/// spans stay in `t`.
pub fn replay_all(
    t: &mut Tracer,
    w: &Workload,
    config: &DeploymentConfig,
    seed: u64,
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let mut r = Replay::new(w, config, seed);
    // The batcher runs first: the layers below it work on sealed batches.
    let batch_metrics = batch(t, &mut r);
    let mut out = wire(t, &r);
    out.extend(transport(t, &r));
    out.extend(batch_metrics);
    out.extend(ring(t, &r));
    out.extend(merge(t, &r));
    out.extend(session(t, &r));
    out.extend(exec(t, &r));
    out.extend(store(t, &r));
    out.extend(wal(
        t,
        &r,
        &scratch.join(format!("replay-wal-{}", std::process::id())),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_takes_children_and_clock_overhead_off() {
        let mut t = Tracer::new();
        t.overhead_ns = 0.0;
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let (outer, n_outer) = t.self_time("outer");
        let (inner, n_inner) = t.self_time("inner");
        assert_eq!((n_outer, n_inner), (1, 1));
        assert!(inner >= 2e6, "inner holds the sleep: {inner}");
        assert!(outer < 1e6, "outer's self time excludes its child: {outer}");
        assert_eq!(t.spans[1].parent, Some(0));
        t.overhead_ns = 1e12;
        assert_eq!(t.self_time("inner").0, 0.0, "floored at zero");
    }

    #[test]
    fn every_layer_replays_a_durable_workload() {
        let mut w = crate::workload::by_name("kv_durable").unwrap();
        w.keys_per_thread = 200;
        let config = crate::live::deployment_config(&w, true, None).unwrap();
        let mut t = Tracer::new();
        let dir = std::env::temp_dir().join(format!("amcast-bench-test-{}", std::process::id()));
        let metrics = replay_all(&mut t, &w, &config, 1, &dir);
        let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 11);
        for (name, v) in &metrics {
            assert!(*v > 0.0, "{name} measured something");
        }
        let path = dir.join("trace.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), t.spans.len());
        let first = crate::json::Json::parse(text.lines().next().unwrap()).unwrap();
        assert!(first.get("name").is_some() && first.get("end_ns").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
