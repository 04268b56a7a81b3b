//! The live node: one [`MultiRingHost`] driven by an OS-thread event loop
//! over real TCP.
//!
//! A node is **one thread**, the node loop. It owns the host state
//! machine and every socket of the node through the crate-private `net`
//! module's readiness loop: each turn it waits in `epoll_pwait2` with a deadline
//! derived from the timer heap and the batcher, accepts, reads every
//! ready connection — [`PeerFrame`]s from peers, the
//! [`common::wire::client`] protocol from clients and, on the node's
//! coordination link, from the coordination service — feeds what arrived
//! into the host through a [`Ctx`](common::process::Ctx) lent out of the
//! loop's one [`Effects`] buffer, fires due timers, seals batches, and
//! routes the emitted sends onto peer links and client connections, which
//! the next wait writes out. A frame is received, ordered, executed and
//! answered without leaving the thread: delivered commands execute inline, in
//! merge order, through the node's one [`ServiceApp`] stack. Only the
//! short-lived dial helper runs beside the loop, and the loop's one mail
//! is `Shutdown`.
//!
//! The host asks coordination by message (a request to [`COORD_NODE`]),
//! and the loop routes the ask like any other send: to the in-process
//! registry, whose answer is the next turn's message, or to the node's
//! [`crate::link::CoordLink`] to an `amcoordd` ensemble, driven on the
//! loop's own sockets. Nothing on the loop waits for coordination.
//!
//! The loop keeps the hello, credit grants and the stats plane; requests
//! go through the host's admission ([`MultiRingHost::admit`]) into the
//! batcher. The host answers `Envelope::reply_to` — for live clients a
//! synthetic node id above [`CLIENT_NODE_BASE`] — with [`ClientReply`]
//! frames, which the loop queues on the client's connection (counted by
//! `client_replies`). A command's first execution is answered by one
//! replica per partition; a client that is not connected to it hears
//! from every replica when it re-sends.
//!
//! An `amcoordd` replica is the same loop over a one-ring host, serving
//! the same client protocol: coordination operations are ordinary v2
//! requests, and a `CoordFront` (see [`crate::coord_node`]) answers the
//! few that are not ordered — the watch and its own ring's gossip. A
//! coordination client talks to one replica, so that replica answers
//! every request it admits ([`MultiRingHost::answer_here`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::error::Result;
use common::ids::{ClientId, NodeId, RingId};
use common::msg::Msg;
use common::obs::{Counter, Hist, Obs, WireCounters};
use common::process::{Effects, Process, Timer, TimerHeap};
use common::transport::{PeerFrame, WallClock};
use common::value::Envelope;
use common::wire::client::{ClientMsg, ClientReply, ErrorCode, FEAT_ALL};
use common::wire::coord::{answer, asked, COORD_NODE};
use coord::Registry;
use multiring::{HostOptions, MultiRingHost, ServiceApp};

use crate::batch::{BatchOptions, Batcher};
use crate::coord_node::CoordFront;
use crate::link::{flush, CoordLink, LinkCoord};
use crate::net::{spawn_loop, ConnId, Event, Mailer, Net, Reader};
use crate::netem::NetemControl;

/// Client connections are addressed as synthetic nodes at and above this
/// id; deployment nodes must stay below it.
pub const CLIENT_NODE_BASE: u32 = 1 << 20;

/// The synthetic node id replies to `client` are routed by.
pub fn client_node_id(client: ClientId) -> NodeId {
    NodeId::new(CLIENT_NODE_BASE + client.raw())
}

/// Inverse of [`client_node_id`].
pub fn client_of_node(node: NodeId) -> Option<ClientId> {
    node.raw().checked_sub(CLIENT_NODE_BASE).map(ClientId::new)
}

/// What arrives on a node's sockets.
enum Inbound {
    /// A protocol message from a peer.
    Peer(PeerFrame),
    /// A client-protocol frame.
    Client(ClientMsg),
    /// The coordination service's answer on the node's own link.
    Reply(ClientReply),
}

/// What reaches a node loop from other threads.
enum Mail {
    /// Stop the loop.
    Shutdown,
}

/// The sockets of one node.
type NodeNet = Net<Inbound, Mail>;

/// Outgoing peer traffic: the peer address book plus the wire
/// accounting for everything that leaves through it.
struct PeerTransport {
    me: NodeId,
    addrs: HashMap<NodeId, SocketAddr>,
    /// Per-node wire accounting for everything this node sends.
    wire: WireCounters,
    /// The same accounting broken down by ring (`ring{r}_*` counters) —
    /// the observable the genuineness guard checks: a ring this node
    /// never ordered anything on must show zero here.
    wire_by_ring: HashMap<RingId, WireCounters>,
    /// Metrics registry the per-ring counter families register in.
    obs: Obs,
}

impl PeerTransport {
    fn send(&mut self, net: &mut NodeNet, to: NodeId, msg: Msg) {
        if let Msg::Ring(ring, rm) = &msg {
            self.wire.note(rm);
            self.wire_by_ring
                .entry(*ring)
                .or_insert_with(|| {
                    WireCounters::with_prefix(&self.obs, &format!("ring{}_", ring.raw()))
                })
                .note(rm);
        }
        if let Some(addr) = self.addrs.get(&to) {
            net.send_to(*addr, &PeerFrame { from: self.me, msg });
        }
    }
}

/// The clients that said hello on this node, by id and by connection.
#[derive(Default)]
struct Clients {
    conn_of: HashMap<ClientId, ConnId>,
    client_on: HashMap<ConnId, ClientId>,
    /// `client_replies`: the host's reply frames queued on a client
    /// connection.
    replies: Counter,
}

impl Clients {
    fn hello(&mut self, client: ClientId, conn: ConnId) {
        self.conn_of.insert(client, conn);
        self.client_on.insert(conn, client);
    }

    /// `conn` closed; its client is gone unless it said hello again on a
    /// newer connection.
    fn gone(&mut self, conn: ConnId) {
        if let Some(client) = self.client_on.remove(&conn) {
            if self.conn_of.get(&client) == Some(&conn) {
                self.conn_of.remove(&client);
            }
        }
    }

    /// Queues `reply` on the client's connection. Client not connected
    /// here (or gone), or its buffer full: the reply is dropped, exactly
    /// like the paper's UDP responses; the client retries (safely —
    /// retries are deduplicated).
    fn reply(&self, net: &mut NodeNet, client: ClientId, reply: &ClientReply) {
        if let Some(conn) = self.conn_of.get(&client) {
            self.replies.inc();
            net.send(*conn, reply);
        }
    }

    /// Replies queued across every client connection.
    fn backlog(&self, net: &NodeNet) -> i64 {
        self.client_on
            .keys()
            .map(|conn| net.queued(*conn) as i64)
            .sum()
    }
}

/// Where a node's coordination asks go: to its link to an `amcoordd`
/// ensemble, or to the in-process registry.
struct Coordination {
    me: NodeId,
    registry: Registry,
    link: Option<CoordLink>,
    netem: Option<NetemControl>,
}

impl Coordination {
    /// Routes one of the host's asks (a message to [`COORD_NODE`]). The
    /// registry answers on the host's next turn; across a cut WAN the ask
    /// is lost like any other frame.
    fn ask(&mut self, msg: &Msg, local: &mut Vec<Msg>) {
        if (self.netem.as_ref()).is_some_and(|netem| !netem.reaches_coordination(self.me)) {
            return;
        }
        match &mut self.link {
            Some(link) => {
                if let Some((seq, op)) = asked(msg) {
                    link.ask(seq, op, Instant::now());
                }
            }
            None => local.extend(self.registry.answer(msg, self.me)),
        }
    }

    /// Hands what the link answered to the host's next turn.
    fn collect(&mut self, local: &mut Vec<Msg>) {
        if let Some(link) = &mut self.link {
            for (seq, result) in link.take_answers() {
                local.push(answer(seq, self.me, result));
            }
        }
    }
}

/// Everything needed to (re)build one node's host.
pub(crate) struct NodeSetup {
    /// This node's id.
    pub me: NodeId,
    /// Rings the node participates in.
    pub member_of: Vec<RingId>,
    /// Rings the node's replica delivers from.
    pub subscribe_to: Vec<RingId>,
    /// The replica's partition.
    pub partition: Option<common::ids::PartitionId>,
    /// Shared configuration registry.
    pub registry: Registry,
    /// The registry's link to an `amcoordd` ensemble, which the loop
    /// takes over once the host is built; `None` for an in-process
    /// registry.
    pub coord_link: Option<Arc<LinkCoord>>,
    /// The geo policy table: the node shapes its peer links and its
    /// per-region client listeners through it, and coordination answers
    /// only while it connects the node's region to `coord_region`.
    pub netem: Option<NetemControl>,
    /// Host tuning.
    pub host_opts: HostOptions,
    /// Batching limits for client proposals.
    pub batch_opts: BatchOptions,
    /// Peer address book.
    pub peer_addrs: HashMap<NodeId, SocketAddr>,
    /// This node's peer listener address.
    pub peer_addr: SocketAddr,
    /// This node's client listener address.
    pub client_addr: SocketAddr,
    /// Shared deployment clock.
    pub clock: WallClock,
    /// Credit window granted to v2 clients at the handshake.
    pub client_window: u32,
    /// Floor the credit controller never shrinks the window below.
    pub credit_min_window: u32,
    /// Proposal backlog (batcher, in envelopes) above which
    /// credit halves; `0` derives a default from the batch size.
    pub credit_backlog_high: u32,
    /// This node's metrics registry. The same registry rides
    /// `host_opts.ring.obs` into the host and rings, so every layer of
    /// this node reports into one place.
    pub obs: Obs,
    /// Thread-name prefix: `amcast` for data nodes, `amcoord` for
    /// coordination replicas.
    pub kind: &'static str,
    /// Set on a coordination replica: what it answers without ordering.
    pub coord: Option<CoordFront>,
}

/// How often the node re-computes per-session credit from its backlog
/// gauges. Fast enough that overload clamps within a client RTT or two;
/// slow enough that the gauge reads (a lock and two histogram snapshots)
/// cost nothing.
const CREDIT_TICK: Duration = Duration::from_millis(100);

/// Reply-writer backlog (frames across all connections) above which the
/// node is considered overloaded on the egress side.
const CREDIT_REPLY_HIGH: i64 = 1024;

/// WAL group-commit mean (over one credit tick) above which the node is
/// considered overloaded on the durability side.
const CREDIT_WAL_HIGH: Duration = Duration::from_millis(25);

/// Admission control: turns the node's own backlog gauges into the credit
/// window granted to protocol-v2 sessions (AIMD — halve under pressure,
/// climb back additively once every signal clears).
///
/// Inputs are the signals the stats plane already exports: the proposal
/// backlog (`batcher_depth`), the reply
/// backlog (`reply_queue_depth`), and the `wal_commit_nanos` delta-mean
/// since the previous tick. Overload therefore degrades into *queueing at
/// the client* (shrunken pipelines) instead of dropped frames and
/// recovery storms.
struct CreditController {
    max: u32,
    min: u32,
    backlog_high: i64,
    window: u32,
    wal_count: u64,
    wal_sum: u64,
}

impl CreditController {
    fn new(max: u32, min: u32, backlog_high: i64) -> Self {
        let min = min.clamp(1, max);
        CreditController {
            max,
            min,
            backlog_high: backlog_high.max(1),
            window: max,
            wal_count: 0,
            wal_sum: 0,
        }
    }

    /// One controller step. `wal` is the cumulative commit histogram; the
    /// controller keeps the previous totals so it reacts to the *recent*
    /// mean, not the lifetime average.
    fn tick(&mut self, backlog: i64, reply_backlog: i64, wal: &common::hist::Histogram) -> u32 {
        let (count, sum) = (wal.count(), wal.sum_saturating());
        let delta_n = count.saturating_sub(self.wal_count);
        let wal_mean_nanos = sum
            .saturating_sub(self.wal_sum)
            .checked_div(delta_n)
            .unwrap_or(0);
        self.wal_count = count;
        self.wal_sum = sum;
        let wal_slow = wal_mean_nanos > CREDIT_WAL_HIGH.as_nanos() as u64;
        if backlog > self.backlog_high || reply_backlog > CREDIT_REPLY_HIGH || wal_slow {
            self.window = (self.window / 2).max(self.min);
        } else if backlog <= self.backlog_high / 4
            && reply_backlog <= CREDIT_REPLY_HIGH / 4
            && self.window < self.max
        {
            self.window = self
                .window
                .saturating_add((self.max / 8).max(1))
                .min(self.max);
        }
        self.window
    }
}

/// Handle to one running live node.
pub struct NodeHandle {
    id: NodeId,
    mailer: Mailer<Mail>,
    join: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Stops the node: stops the loop and joins it. The loop owns every
    /// socket of the node, so when this returns both ports are released
    /// and every peer and client connection is closed.
    pub fn shutdown(mut self) {
        self.mailer.post(Mail::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Starts one node: binds its two ports (and on a geo deployment one
/// client port per region), spawns the loop.
///
/// With `restart: true` the host comes up through the crash/recovery path
/// (rejoin rings, install the freshest checkpoint, catch up from the
/// acceptors — paper §5.2) instead of the cold-start path.
pub(crate) fn spawn_node(
    setup: NodeSetup,
    app: Box<dyn ServiceApp>,
    restart: bool,
) -> Result<NodeHandle> {
    let (me, kind) = (setup.me, setup.kind);
    let mut net = Net::new(
        format!("{kind}-dial-{}", me.raw()),
        setup.obs.counter("writer_vectored_frames"),
    )?;
    let clients: Reader<Inbound> = |buf| Ok(buf.try_next()?.map(Inbound::Client));
    net.listen(setup.peer_addr, |buf| {
        Ok(buf.try_next()?.map(Inbound::Peer))
    })?;
    net.listen(setup.client_addr, clients)?;
    // On a geo deployment the node shapes what it sends to each peer, and
    // listens for clients once per region: those connections it shapes
    // both ways.
    let mut client_regions = HashMap::new();
    if let Some(netem) = &setup.netem {
        for (&peer, &addr) in setup.peer_addrs.iter().filter(|(peer, _)| **peer != me) {
            if let Some(pipe) = netem.peer_pipe(me, peer, &setup.obs) {
                net.shape_link(addr, pipe);
            }
        }
        let ip = setup.client_addr.ip();
        client_regions = netem.bind_client_listeners(me, ip, |addr| net.listen(addr, clients))?;
    }
    let mailer = net.mailer();
    let join = spawn_loop(format!("{kind}-node-{}", me.raw()), move || {
        node_loop(net, setup, app, restart, client_regions)
    })?;
    Ok(NodeHandle {
        id: me,
        mailer,
        join: Some(join),
    })
}

/// The node loop. `client_regions` names the region each per-region
/// client listener serves.
fn node_loop(
    mut net: NodeNet,
    mut setup: NodeSetup,
    app: Box<dyn ServiceApp>,
    restart: bool,
    client_regions: HashMap<SocketAddr, usize>,
) {
    let me = setup.me;
    let clock = setup.clock;
    let mut coord_front = setup.coord.take();
    let coord_replies: Reader<Inbound> = |buf| Ok(buf.try_next()?.map(Inbound::Reply));
    let obs = setup.obs.clone();
    let mut host = MultiRingHost::new(
        me,
        setup.registry.clone(),
        &setup.member_of,
        &setup.subscribe_to,
        setup.partition,
        app,
        setup.host_opts,
    );
    // Built: from here on the host only asks, and the loop routes.
    let mut coord = Coordination {
        me,
        registry: setup.registry.clone(),
        link: setup.coord_link.take().and_then(|link| link.hand_over()),
        netem: setup.netem.take(),
    };
    let mut transport = PeerTransport {
        me,
        addrs: setup.peer_addrs,
        wire: WireCounters::new(&obs),
        wire_by_ring: HashMap::new(),
        obs: obs.clone(),
    };
    let mut clients = Clients {
        replies: obs.counter("client_replies"),
        ..Clients::default()
    };
    // Messages this node sends itself, handled at the next turn.
    let mut local: Vec<Msg> = Vec::new();
    let mut events = Vec::new();
    let stage_seal = obs.hist("stage_seal_nanos");
    let batcher_depth = obs.gauge("batcher_depth");
    let reply_queue_depth = obs.gauge("reply_queue_depth");
    let mut batcher = Batcher::new(setup.batch_opts);
    // Credit controller: backlog threshold defaults to four full batches
    // of headroom when the config leaves it at 0.
    let credit_window = obs.gauge("credit_window");
    let wal_commit = obs.hist("wal_commit_nanos");
    let backlog_high = if setup.credit_backlog_high > 0 {
        setup.credit_backlog_high as i64
    } else {
        (setup.batch_opts.max_envelopes as i64).saturating_mul(4)
    };
    let mut credit = CreditController::new(
        setup.client_window.max(1),
        setup.credit_min_window,
        backlog_high,
    );
    credit_window.set(credit.window as i64);
    let mut next_credit_tick = Instant::now() + CREDIT_TICK;
    let mut timers: TimerHeap<Instant, Timer> = TimerHeap::new();
    let mut fx = Effects::new(u64::from(me.raw()) ^ 0xa3c59ac2f1f0b7d1);

    macro_rules! route {
        () => {{
            if let Some(front) = &mut coord_front {
                front.fan_out(&mut net);
            }
            route_effects(
                &mut fx,
                &mut transport,
                &mut net,
                &clients,
                &mut local,
                &mut timers,
                &clock,
                &mut coord,
            );
            if let Some(link) = &mut coord.link {
                flush(link, &mut net, coord_replies);
            }
        }};
    }

    if restart {
        // A restarted process lost its volatile state; run the host's
        // crash path so it rebuilds from stable storage + partition peers.
        host.on_crash(clock.now());
        // It cannot know which value ids its earlier incarnations
        // proposed; wall-clock microseconds outrun every one of them.
        let micros = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        host.reserve_value_ids(micros);
        host.on_restart(&mut fx.ctx(clock.now(), me));
    } else {
        host.on_start(&mut fx.ctx(clock.now(), me));
    }
    route!();

    loop {
        let mut sleep = if local.is_empty() {
            timers.sleep_for(Duration::from_millis(50))
        } else {
            Duration::ZERO
        };
        if let Some(batch_deadline) = batcher.next_deadline() {
            sleep = sleep.min(batch_deadline.saturating_duration_since(Instant::now()));
        }
        // Everything every ready socket holds, in one pass: effects
        // coalesce (one routing pass, and proposer batches actually fill)
        // instead of paying the full turn per message.
        net.wait(sleep, &mut events);
        for msg in local.drain(..) {
            host.on_message(me, msg, &mut fx.ctx(clock.now(), me));
        }
        for event in events.drain(..) {
            let (conn, msg) = match event {
                Event::Frame(conn, Inbound::Client(msg)) => (conn, msg),
                Event::Frame(_, Inbound::Peer(f)) => {
                    host.on_message(f.from, f.msg, &mut fx.ctx(clock.now(), me));
                    continue;
                }
                Event::Frame(_, Inbound::Reply(reply)) => {
                    if let Some(link) = &mut coord.link {
                        link.on_reply(reply, Instant::now());
                    }
                    continue;
                }
                Event::LinkDown(replica) => {
                    if let Some(link) = &mut coord.link {
                        link.on_closed(replica, Instant::now());
                    }
                    continue;
                }
                Event::Closed(conn) => {
                    clients.gone(conn);
                    if let Some(front) = &mut coord_front {
                        front.closed(conn);
                    }
                    continue;
                }
                Event::Accepted(conn, at) => {
                    let region = client_regions.get(&at);
                    let pipes = (region.zip(coord.netem.as_ref()))
                        .and_then(|(&region, netem)| netem.client_pipes(region, me, &obs, conn));
                    if let Some((requests, replies)) = pipes {
                        net.shape(conn, requests, replies);
                    }
                    continue;
                }
                Event::Mail(Mail::Shutdown) => return,
            };
            match msg {
                ClientMsg::HelloV2 { client, features } => {
                    clients.hello(client, conn);
                    // The live window: a client arriving mid-overload is
                    // admitted at the clamped window, not the configured
                    // maximum.
                    let window = credit.window;
                    net.send(
                        conn,
                        &ClientReply::WelcomeV2 {
                            node: me,
                            features: features & FEAT_ALL,
                            window,
                        },
                    );
                    // Grants are decoupled from the hello: the server may
                    // resize the window any time. Exercise that path from
                    // day one so clients must handle it.
                    net.send(conn, &ClientReply::CreditGrant { window });
                }
                ClientMsg::RequestV2 { seq, .. } | ClientMsg::RequestHere { seq, .. }
                    if !clients.client_on.contains_key(&conn) =>
                {
                    net.send(
                        conn,
                        &ClientReply::ErrorV2 {
                            seq,
                            code: ErrorCode::HelloRequired,
                            detail: "hello required before requests".into(),
                        },
                    );
                }
                request @ (ClientMsg::RequestV2 { .. } | ClientMsg::RequestHere { .. }) => {
                    let client = clients.client_on[&conn];
                    let node = client_node_id(client);
                    let ctx = &mut fx.ctx(clock.now(), me);
                    let Some((group, env)) = host.admit(client, node, request, ctx) else {
                        continue;
                    };
                    if let Some(front) = coord_front.as_mut() {
                        if front.answer_local(&mut net, conn, &env) {
                            continue;
                        }
                        // A coordination client talks to this replica
                        // alone, so this replica answers what it admits.
                        host.answer_here(&env);
                    }
                    if let Some(batch) = batcher.push(group, env, Instant::now()) {
                        note_seal(&stage_seal, &batch);
                        host.propose_envelopes(group, batch, &mut fx.ctx(clock.now(), me));
                    }
                }
                ClientMsg::Ping { token } => {
                    net.send(conn, &ClientReply::Pong { token });
                }
                // Stats are a read-only plane: no hello needed.
                ClientMsg::StatsRequest { token } => {
                    if let Some(front) = &coord_front {
                        front.seed_applied(&host);
                    }
                    refresh_stats(&host, &obs);
                    net.send(
                        conn,
                        &ClientReply::Stats {
                            token,
                            snapshot: obs.snapshot(),
                        },
                    );
                }
            }
        }
        // Fire due protocol timers.
        while let Some(t) = timers.pop_due(Instant::now()) {
            host.on_timer(t, &mut fx.ctx(clock.now(), me));
        }
        for (ring, batch) in take_sealed(&mut batcher, &host, Instant::now()) {
            note_seal(&stage_seal, &batch);
            host.propose_envelopes(ring, batch, &mut fx.ctx(clock.now(), me));
        }
        // Credit tick: re-derive the per-session window from this node's
        // own backlog and broadcast the change to every v2 connection.
        if Instant::now() >= next_credit_tick {
            next_credit_tick = Instant::now() + CREDIT_TICK;
            let backlog = batcher.pending_len() as i64;
            batcher_depth.set(backlog);
            let reply_backlog = clients.backlog(&net);
            reply_queue_depth.set(reply_backlog);
            let before = credit.window;
            let w = credit.tick(backlog, reply_backlog, &wal_commit.snapshot());
            if w != before {
                credit_window.set(w as i64);
                for conn in clients.client_on.keys() {
                    net.send(*conn, &ClientReply::CreditGrant { window: w });
                }
            }
        }
        if let Some(front) = &mut coord_front {
            front.tick(&mut net, host.is_recovering());
        }
        if let Some(link) = &mut coord.link {
            link.tick(Instant::now());
        }
        route!();
    }
}

/// The batches to propose after a read pass (the four seal
/// conditions are in [`crate::batch`]): every ring this node has no
/// proposal of its own in flight on gives up its pending batch now, and a
/// batch still waiting behind a slow or lost proposal goes out once it
/// has aged `batch_delay_ms`.
fn take_sealed(
    batcher: &mut Batcher,
    host: &MultiRingHost,
    now: Instant,
) -> Vec<(RingId, Vec<Envelope>)> {
    let mut sealed = batcher.take_idle(|ring| host.proposals_in_flight(ring) == 0);
    sealed.extend(batcher.take_due(now));
    sealed
}

/// Brings the gauges a stats reply carries up to date: what the host
/// retains ([`MultiRingHost::refresh_gauges`]) and the process's resident
/// set, `vm_rss_bytes` — one figure shared by every node an in-process
/// deployment hosts.
fn refresh_stats(host: &MultiRingHost, obs: &Obs) {
    host.refresh_gauges();
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let rss_kib = (status.lines())
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<i64>().ok());
    if let Some(kib) = rss_kib {
        obs.gauge("vm_rss_bytes").set(kib * 1024);
    }
}

/// Records the batch-seal stage for every sampled envelope in a batch
/// about to be proposed: cumulative nanoseconds from the envelope's
/// origin stamp to the moment its batch sealed.
fn note_seal(seal: &Hist, batch: &[Envelope]) {
    for env in batch {
        if env.trace != 0 {
            seal.record_since(env.trace);
        }
    }
}

/// Drains one round of host effects: sends onto peer links, reply
/// frames onto client connections as the host made them, coordination
/// asks to `coord`, or into `local` (self-sends and coordination's
/// answers); timer requests onto the wall-clock heap. Nothing is written
/// here: the loop's next wait writes out what this queued.
#[allow(clippy::too_many_arguments)]
fn route_effects(
    fx: &mut Effects,
    transport: &mut PeerTransport,
    net: &mut NodeNet,
    clients: &Clients,
    local: &mut Vec<Msg>,
    timers: &mut TimerHeap<Instant, Timer>,
    clock: &WallClock,
    coord: &mut Coordination,
) {
    for (to, msg) in fx.drain_sends() {
        if to == COORD_NODE {
            coord.ask(&msg, local);
        } else if let Some(client) = client_of_node(to) {
            if let Msg::Reply(reply) = msg {
                clients.reply(net, client, &reply);
            }
        } else if to == transport.me {
            local.push(msg);
        } else {
            transport.send(net, to, msg);
        }
    }
    for (at, timer) in fx.drain_timers() {
        timers.push_at(clock.instant_of(at), timer);
    }
    coord.collect(local);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use common::hist::Histogram;
    use common::ids::RequestId;
    use common::SimTime;

    /// Node 0 of two two-member rings whose other member never answers:
    /// whatever it proposes stays in flight.
    fn lonely_host() -> (MultiRingHost, [RingId; 2]) {
        let rings = [RingId::new(0), RingId::new(1)];
        let members = vec![NodeId::new(0), NodeId::new(1)];
        let registry = Registry::new();
        for ring in rings {
            let cfg = coord::RingConfig::new(ring, members.clone(), members.clone()).unwrap();
            registry.register_ring(cfg).unwrap();
        }
        let host = MultiRingHost::new(
            NodeId::new(0),
            registry,
            &rings,
            &rings,
            None,
            Box::new(multiring::EchoApp::new()),
            HostOptions::default(),
        );
        (host, rings)
    }

    fn env(req: u64) -> Envelope {
        Envelope::v1(
            ClientId::new(1),
            RequestId::new(req),
            client_node_id(ClientId::new(1)),
            Bytes::from_static(b"cmd"),
        )
    }

    #[test]
    fn take_sealed_is_immediate_on_an_idle_ring_and_capped_behind_a_stuck_proposal() {
        let (mut host, [r0, r1]) = lonely_host();
        let mut batcher = Batcher::new(BatchOptions {
            max_envelopes: 1000,
            max_bytes: usize::MAX,
            max_delay: Duration::from_millis(200),
        });
        let mut fx = Effects::new(1);
        let mut ctx = fx.ctx(SimTime::ZERO, NodeId::new(0));
        host.on_start(&mut ctx);
        let t0 = Instant::now();
        assert_eq!(host.proposals_in_flight(r0), 0);
        assert_eq!(host.proposals_in_flight(RingId::new(9)), 0, "not a member");

        // Idle ring: the lone envelope leaves on the next pass, 200 ms
        // ceiling or not.
        batcher.push(r0, env(1), t0);
        let sealed = take_sealed(&mut batcher, &host, t0);
        assert_eq!(sealed.len(), 1);
        let (ring, batch) = sealed.into_iter().next().unwrap();
        assert_eq!((ring, batch.len()), (r0, 1));
        host.propose_envelopes(ring, batch, &mut ctx);
        assert_eq!(host.proposals_in_flight(r0), 1);
        assert_eq!(host.proposals_in_flight(r1), 0);

        // Ring 0 now has a proposal in flight (it will never be decided):
        // its next envelopes wait. Ring 1 is judged on its own.
        batcher.push(r0, env(2), t0);
        batcher.push(r0, env(3), t0 + Duration::from_millis(50));
        batcher.push(r1, env(4), t0 + Duration::from_millis(50));
        let sealed = take_sealed(&mut batcher, &host, t0 + Duration::from_millis(50));
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].0, r1);
        assert_eq!(batcher.pending_len(), 2);
        assert!(take_sealed(&mut batcher, &host, t0 + Duration::from_millis(199)).is_empty());
        // The ceiling still holds with the proposal stuck.
        let sealed = take_sealed(&mut batcher, &host, t0 + Duration::from_millis(200));
        assert_eq!(sealed.len(), 1);
        assert_eq!((sealed[0].0, sealed[0].1.len()), (r0, 2));
    }

    #[test]
    fn credit_controller_halves_on_each_signal_and_climbs_only_when_all_clear() {
        let calm = Histogram::new();
        let backlog_high = 40;
        let fresh = || CreditController::new(64, 4, backlog_high);

        // Each of the three signals halves on its own.
        assert_eq!(fresh().tick(backlog_high + 1, 0, &calm), 32);
        assert_eq!(fresh().tick(0, CREDIT_REPLY_HIGH + 1, &calm), 32);
        let mut slow_wal = Histogram::new();
        slow_wal.record_duration(CREDIT_WAL_HIGH * 2);
        assert_eq!(fresh().tick(0, 0, &slow_wal), 32);
        // At the thresholds themselves nothing is overloaded yet.
        assert_eq!(fresh().tick(backlog_high, CREDIT_REPLY_HIGH, &calm), 64);

        // Sustained pressure floors at `credit_min_window`.
        let mut c = fresh();
        let windows: Vec<u32> = (0..6).map(|_| c.tick(1000, 0, &calm)).collect();
        assert_eq!(windows, vec![32, 16, 8, 4, 4, 4]);

        // Below the halving threshold but not yet clear on every signal:
        // the window holds.
        assert_eq!(c.tick(backlog_high / 4 + 1, 0, &calm), 4);
        assert_eq!(c.tick(0, CREDIT_REPLY_HIGH / 4 + 1, &calm), 4);
        // All clear: additive climb of max/8 per tick, capped at max.
        let windows: Vec<u32> = (0..9)
            .map(|_| c.tick(backlog_high / 4, CREDIT_REPLY_HIGH / 4, &calm))
            .collect();
        assert_eq!(windows, vec![12, 20, 28, 36, 44, 52, 60, 64, 64]);
    }

    #[test]
    fn credit_controller_reacts_to_the_wal_delta_mean_not_the_lifetime_mean() {
        let mut c = CreditController::new(64, 1, 40);
        // A long calm history: 1000 commits at 1 ms.
        let mut wal = Histogram::new();
        for _ in 0..1000 {
            wal.record_duration(Duration::from_millis(1));
        }
        assert_eq!(c.tick(0, 0, &wal), 64);
        // Four slow commits since the last tick: the lifetime mean is
        // still ~1.2 ms, the recent mean is 50 ms.
        for _ in 0..4 {
            wal.record_duration(CREDIT_WAL_HIGH * 2);
        }
        assert!(Duration::from_nanos(wal.mean() as u64) < CREDIT_WAL_HIGH);
        assert_eq!(c.tick(0, 0, &wal), 32, "recent commits were slow");
        // No commit at all since: nothing recent to be slow, and the slow
        // ones are not counted twice.
        assert_eq!(c.tick(0, 0, &wal), 40);
        // Fast commits again while the lifetime mean is still elevated.
        for _ in 0..4 {
            wal.record_duration(Duration::from_millis(1));
        }
        assert_eq!(c.tick(0, 0, &wal), 48);
    }

    /// Coordination rides the geo fabric: while a node's region is cut
    /// off from `coord_region` its asks go unanswered, a node on the
    /// coordination side keeps getting answers, and after the heal both
    /// do.
    #[test]
    fn a_region_cut_from_coordination_asks_in_vain_until_the_heal() {
        use crate::config::{free_port_block, generate_localhost_mrpstore, with_geo};
        use crate::DeploymentConfig;
        use common::wire::coord::{answered, ask, CoordOp};

        let base = generate_localhost_mrpstore(1, 2, free_port_block(4).unwrap(), None);
        let doc = with_geo(&base, &[("left", &[0]), ("right", &[1])], 100);
        let config = DeploymentConfig::parse(&doc).unwrap();
        // coord_region defaults to the first declared region ("left").
        assert_eq!(config.geo.as_ref().unwrap().coord_region, "left");
        let control = NetemControl::new(&config).unwrap();
        let registry = config.build_registry().unwrap();
        let coord = |node: u32| Coordination {
            me: NodeId::new(node),
            registry: registry.clone(),
            link: None,
            netem: Some(control.clone()),
        };
        let (mut left, mut right) = (coord(0), coord(1));
        let answers = |coord: &mut Coordination| {
            let mut local = Vec::new();
            let op = CoordOp::GetRing {
                ring: RingId::new(0),
            };
            coord.ask(&ask(1, &op), &mut local);
            coord.collect(&mut local);
            matches!(&local[..], [Msg::Reply(reply)]
                if answered(reply).is_some_and(|(seq, result)| seq == 1 && result.is_ok()))
        };
        assert!(answers(&mut left) && answers(&mut right));

        control.partition("right");
        assert!(!answers(&mut right), "the cut-off region got an answer");
        assert!(answers(&mut left), "the coordination side lost its answers");

        control.heal("right");
        assert!(answers(&mut left) && answers(&mut right));
    }

    #[test]
    fn client_node_ids_round_trip() {
        let c = ClientId::new(42);
        let n = client_node_id(c);
        assert_eq!(client_of_node(n), Some(c));
        assert_eq!(client_of_node(NodeId::new(3)), None);
        assert_eq!(client_of_node(NodeId::new(CLIENT_NODE_BASE - 1)), None);
        assert_eq!(
            client_of_node(NodeId::new(CLIENT_NODE_BASE)),
            Some(ClientId::new(0))
        );
    }
}
