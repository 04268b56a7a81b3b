//! The live run: launches an in-process `liverun::Deployment` on
//! ephemeral ports, drives it from the load-generator threads, measures,
//! then checks that what the replicas hold is what the clients were told.

use std::collections::{BTreeSet, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::obs::ObsSnapshot;
use common::wire::Wire;
use liverun::config::{generate_localhost_mrpstore, with_geo};
use liverun::{fetch_stats, ClientOptions, Deployment, DeploymentConfig, StoreClient};
use mrpstore::{KvCommand, KvResponse, Partitioning};

use crate::gen::{self, CmdGen, Op};
use crate::proc;
use crate::stats::{self, Sample, Summary};
use crate::workload::{Role, Workload, CLIENT_REGION, GEO_REGIONS};

/// Read-back scans are cut so that one answer carries about this much.
const READ_BACK_BYTES: usize = 256 * 1024;

/// Stage tracing rate of the traced pass (the repo's documented default
/// for `--stages`).
pub const TRACE_SAMPLE: u64 = 32;

#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Discarded lead-in before the first window.
    pub warmup: Duration,
    pub windows: usize,
    pub window: Duration,
    /// Stage tracing on (1 in [`TRACE_SAMPLE`]) and stats scraped.
    pub trace: bool,
    /// Scratch space for WAL directories.
    pub scratch: PathBuf,
}

/// Everything the live run observed.
#[derive(Debug, Default)]
pub struct LiveResult {
    pub problems: Vec<String>,
    /// What went wrong without making the run invalid: replicas that did
    /// not answer the read-back.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub single: Summary,
    pub multi: Summary,
    /// `Deployment::launch` → clients connected, sessions open, keys
    /// preloaded and acknowledged.
    pub setup_s: f64,
    /// CPU the process's threads ran over the measured interval, seconds
    /// (scheduler accounting).
    pub cpu_s: f64,
    /// The same interval's tick-sampled user and system CPU: good for
    /// their ratio only.
    pub user_cpu_s: f64,
    pub sys_cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Open loop only: how late sends ran against their due times.
    pub gen_late_p99_ms: Option<f64>,
    pub submit_ns_op: f64,
    pub window_mean: f64,
    /// Single-partition commands submitted over the measured interval.
    pub submitted: u64,
    pub threads: u64,
    pub ctx_switches: u64,
    /// Per node: stats-plane snapshots at the start and the end of the
    /// measured interval (traced pass only).
    pub stats: Vec<(ObsSnapshot, ObsSnapshot)>,
    /// `(from, to, one-way ms)` per directed inter-region link.
    pub injected_delays: Vec<(String, String, f64)>,
}

impl LiveResult {
    pub fn valid(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// First port the reservation below may hand out.
const FIRST_PORT: u32 = 10_240;

/// Reserves `n` free loopback addresses *below* the kernel's ephemeral
/// port range. Binding port 0 was the first design, and it raced: the
/// deployment's own port-0 binds (one netem relay per directed link) and
/// outgoing connections draw from the same range between the moment the
/// reservations are released and the moment the nodes bind, and 2 of 8
/// `geo_wan` launches died with `AddrInUse`. Nothing allocates below the
/// range on its own, so a port found free here stays free. Candidates
/// start at a pid-derived offset and every one is test-bound; all
/// listeners are held until the last address is known.
fn reserve_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let ephemeral_low = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|r| r.split_whitespace().next()?.parse::<u32>().ok())
        .unwrap_or(32_768);
    let span = ephemeral_low.saturating_sub(FIRST_PORT).max(1);
    let start = std::process::id().wrapping_mul(61) % span;
    let mut listeners = Vec::with_capacity(n);
    for i in 0..span {
        if listeners.len() == n {
            break;
        }
        let port = (FIRST_PORT + (start + i) % span) as u16;
        if let Ok(l) = TcpListener::bind(("127.0.0.1", port)) {
            listeners.push(l);
        }
    }
    if listeners.len() < n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "no free ports below the ephemeral range",
        ));
    }
    listeners.iter().map(TcpListener::local_addr).collect()
}

/// The deployment document of `w`, parsed, on freshly reserved ports.
pub fn deployment_config(
    w: &Workload,
    trace: bool,
    wal_dir: Option<&Path>,
) -> Result<DeploymentConfig, String> {
    let mut doc = generate_localhost_mrpstore(
        w.partitions,
        w.replicas,
        1024, // placeholder ports, replaced below
        wal_dir.map(|d| d.to_str().expect("utf-8 scratch path")),
    );
    if w.geo {
        let nodes: Vec<Vec<u32>> = (0..u32::from(w.partitions))
            .map(|p| {
                let r = u32::from(w.replicas);
                (p * r..(p + 1) * r).collect()
            })
            .collect();
        let regions: Vec<(&str, &[u32])> = GEO_REGIONS
            .iter()
            .zip(&nodes)
            .map(|(name, ids)| (*name, ids.as_slice()))
            .collect();
        doc = with_geo(&doc, &regions, 100);
    }
    let mut config = DeploymentConfig::parse(&doc).map_err(|e| e.to_string())?;
    let addrs = reserve_addrs(config.nodes.len() * 2).map_err(|e| e.to_string())?;
    for (node, pair) in config.nodes.iter_mut().zip(addrs.chunks(2)) {
        node.peer_addr = pair[0];
        node.client_addr = pair[1];
    }
    config.trace_sample = if trace { TRACE_SAMPLE } else { 0 };
    Ok(config)
}

/// The partition single-partition keys are pinned to: the one in the
/// clients' region when the deployment has a geography, none otherwise.
fn pinned_partition(w: &Workload) -> Option<u16> {
    w.geo.then(|| {
        GEO_REGIONS
            .iter()
            .position(|r| *r == CLIENT_REGION)
            .expect("client region is a deployment region") as u16
    })
}

/// What a load thread shares with the run.
struct Shared<'a> {
    w: &'a Workload,
    opts: &'a RunOpts,
    /// The configuration as the clients see it (behind the WAN relays of
    /// their region when the deployment has a geography).
    client_config: &'a DeploymentConfig,
    scheme: Partitioning,
    /// Partition single-partition keys are pinned to, if any.
    pin: Option<u16>,
    epoch: Instant,
    /// Threads arrive when connected and preloaded; the run's thread
    /// arrives to take the set-up time and again to start the load.
    ready: Barrier,
    go: Barrier,
    stop: AtomicBool,
    /// False for a set-up that is only timed, not run.
    run_load: bool,
}

impl Shared<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[derive(Default)]
struct ThreadOutcome {
    multi: bool,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    late_us: Vec<f64>,
    /// `(start_ns, nanoseconds inside submit)` per submit.
    submits: Vec<(u64, u32)>,
    window_sum: u64,
    window_obs: u64,
}

impl ThreadOutcome {
    fn problem(&mut self, what: String) {
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

/// Every client asks for the default credit window (64, what the nodes
/// grant); a closed loop keeps fewer in flight by not submitting more.
fn connect(shared: &Shared, thread: usize) -> Result<StoreClient, String> {
    StoreClient::connect(
        shared.client_config,
        ClientId::new(10 + thread as u32),
        ClientOptions::default(),
    )
    .map_err(|e| format!("thread {thread}: connect: {e}"))
}

/// A thread of single-partition commands.
struct SingleThread<'a> {
    shared: &'a Shared<'a>,
    thread: usize,
    store: StoreClient,
    keys: Vec<String>,
    rings: Vec<RingId>,
    counter: String,
    counter_ring: RingId,
    gen: CmdGen,
    adds_acked: u64,
    outstanding: HashMap<u64, (u64, Op)>,
    out: ThreadOutcome,
}

impl<'a> SingleThread<'a> {
    fn new(shared: &'a Shared<'a>, thread: usize) -> Result<Self, String> {
        let w = shared.w;
        let keys = gen::key_table(thread, w.keys_per_thread, &shared.scheme, shared.pin);
        let ring_of = |k: &str| RingId::new(shared.scheme.partition_of(k).raw());
        let counter = gen::counter_key(thread, &shared.scheme, shared.pin);
        Ok(SingleThread {
            shared,
            thread,
            store: connect(shared, thread)?,
            rings: keys.iter().map(|k| ring_of(k)).collect(),
            counter_ring: ring_of(&counter),
            counter,
            keys,
            gen: CmdGen::new(shared.opts.seed, thread, w),
            adds_acked: 0,
            outstanding: HashMap::new(),
            out: ThreadOutcome::default(),
        })
    }

    /// Inserts every key at version 0, pipelined; returns once all are
    /// acknowledged.
    fn preload(&mut self) -> Result<(), String> {
        let size = self.shared.w.value_bytes;
        let raw = self.store.raw();
        let mut pending = 0usize;
        let mut next = 0usize;
        while next < self.keys.len() || pending > 0 {
            while next < self.keys.len() && pending < raw.current_window() {
                let cmd = KvCommand::Insert {
                    key: self.keys[next].clone(),
                    value: gen::value_bytes(next as u64, 0, size),
                };
                raw.submit(self.rings[next], cmd.to_bytes())
                    .map_err(|e| format!("preload submit: {e}"))?;
                next += 1;
                pending += 1;
            }
            match raw.poll_reply(Duration::from_secs(10)) {
                Some((_, _, payload)) => {
                    if KvResponse::decode(&mut payload.clone()) != Ok(KvResponse::Ok) {
                        return Err("preload insert refused".into());
                    }
                    pending -= 1;
                }
                None => return Err("preload stalled".into()),
            }
        }
        Ok(())
    }

    fn submit_next(&mut self, start_ns: u64) {
        let op = self.gen.next_op();
        let cmd = gen::command(op, &self.keys, &self.counter, self.shared.w.value_bytes);
        let ring = match op {
            Op::Read { idx } | Op::Update { idx, .. } => self.rings[idx as usize],
            Op::Add => self.counter_ring,
        };
        self.out.attempted += 1;
        let before = self.shared.now_ns();
        match self.store.raw().submit(ring, cmd.to_bytes()) {
            Ok(seq) => {
                let spent = self.shared.now_ns() - before;
                self.out.submits.push((before, spent as u32));
                self.outstanding.insert(seq.raw(), (start_ns, op));
            }
            Err(e) => {
                self.out.failed += 1;
                self.out
                    .problem(format!("thread {}: submit: {e}", self.thread));
            }
        }
    }

    /// Waits up to `wait` for one reply and accounts for it.
    fn poll(&mut self, wait: Duration) {
        let raw = self.store.raw();
        self.out.window_sum += raw.current_window() as u64;
        self.out.window_obs += 1;
        let Some((seq, _, payload)) = raw.poll_reply(wait) else {
            return;
        };
        let Some((start_ns, op)) = self.outstanding.remove(&seq.raw()) else {
            return;
        };
        let done_ns = self.shared.now_ns();
        let reply = KvResponse::decode(&mut payload.clone());
        let right = match (op, &reply) {
            (Op::Read { idx }, Ok(KvResponse::Value(Some(v)))) => {
                // Reads race the thread's own in-flight updates, so the
                // version is only bounded: never one not yet written.
                gen::parse_value(v).is_some_and(|(version, key)| {
                    key == idx && version <= self.gen.versions[idx as usize]
                })
            }
            (Op::Update { .. }, Ok(KvResponse::Ok)) => true,
            (Op::Add, Ok(KvResponse::Counter(v))) => {
                self.adds_acked += 1;
                // One connection, one ring: adds are acknowledged in
                // order, each exactly once.
                *v == self.adds_acked
            }
            _ => false,
        };
        if right {
            self.out.samples.push(Sample {
                done_ns,
                latency_us: (done_ns - start_ns) as f64 / 1e3,
            });
        } else {
            self.out.failed += 1;
            self.out
                .problem(format!("thread {}: {op:?} answered {reply:?}", self.thread));
        }
    }

    fn closed_loop(&mut self, window: usize) {
        while !self.shared.stop.load(Ordering::Relaxed) {
            while self.outstanding.len() < window {
                self.submit_next(self.shared.now_ns());
            }
            self.poll(Duration::from_millis(50));
        }
    }

    fn open_loop(&mut self, rate: f64) {
        let opts = self.shared.opts;
        let horizon = opts.warmup + opts.window * opts.windows as u32 + Duration::from_secs(1);
        let schedule =
            gen::poisson_schedule(opts.seed, self.thread, rate, horizon.as_nanos() as u64);
        let start = self.shared.now_ns();
        let mut due = schedule.into_iter().map(|d| start + d).peekable();
        while !self.shared.stop.load(Ordering::Relaxed) {
            let now = self.shared.now_ns();
            match due.peek() {
                Some(&at) if at <= now => {
                    due.next();
                    self.out.late_us.push((now - at) as f64 / 1e3);
                    self.submit_next(at);
                }
                Some(&at) => self.poll(Duration::from_nanos(at - now)),
                None => self.poll(Duration::from_millis(50)),
            }
        }
    }

    /// Waits for what is still in flight; what stays unanswered failed.
    fn drain(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.outstanding.is_empty() && Instant::now() < deadline {
            self.poll(Duration::from_millis(50));
        }
        if !self.outstanding.is_empty() {
            self.out.failed += self.outstanding.len() as u64;
            self.out.problem(format!(
                "thread {}: {} commands unanswered at drain",
                self.thread,
                self.outstanding.len()
            ));
        }
    }

    /// Reads the thread's whole key range back from every replica of
    /// every partition holding part of it and compares each entry with
    /// the last acknowledged write, and the counter with the number of
    /// acknowledged increments. The range is scanned in slices of about
    /// [`READ_BACK_BYTES`]: every replica of the ring executes every
    /// scan and answers it, and one 8 MB answer per replica stalled node
    /// loops long enough for their ring neighbours to evict them.
    ///
    /// A replica that does not answer is noted, not a failed check: the
    /// rings evict a member whose loop stalled past the failure timeout,
    /// a hiccup of the machine is enough for that, and an evicted replica
    /// never answers again while the service goes on without it. Every
    /// replica that does answer must hold exactly what was acknowledged,
    /// and at least one per partition must answer.
    fn verify(&mut self) {
        let prefix = format!("t{}/", self.thread);
        let per_scan = (READ_BACK_BYTES / self.shared.w.value_bytes.max(1)).max(1);
        // Keys are zero-padded, so table order is key order; the last
        // slice runs to the end of the prefix and takes the counter in.
        let mut bounds = vec![prefix.clone()];
        bounds.extend(self.keys.iter().step_by(per_scan).skip(1).cloned());
        bounds.push(format!("{prefix}~"));
        let index: HashMap<&str, usize> = self
            .keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i))
            .collect();
        let mut problems = Vec::new();
        for part in &self.shared.client_config.partitions {
            if self.shared.pin.is_some_and(|p| p != part.id.raw()) {
                continue;
            }
            let ring = RingId::new(part.id.raw());
            let owned = |k: &str| self.shared.scheme.partition_of(k) == part.id;
            let expected =
                self.keys.iter().filter(|k| owned(k)).count() + usize::from(owned(&self.counter));
            let mut answered = 0;
            for &replica in &part.replicas {
                let mut entries = Vec::new();
                let mut unreachable = None;
                for range in bounds.windows(2) {
                    let scan = KvCommand::Scan {
                        from: range[0].clone(),
                        to: range[1].clone(),
                    };
                    match self
                        .store
                        .raw()
                        .request_from(ring, scan.to_bytes(), replica)
                        .map(|raw| KvResponse::decode(&mut raw.clone()))
                    {
                        Ok(Ok(KvResponse::Entries(slice))) => entries.extend(slice),
                        Err(e) => {
                            unreachable = Some(e);
                            break;
                        }
                        other => {
                            problems.push(format!("read-back from {replica}: {other:?}"));
                            break;
                        }
                    }
                }
                if let Some(e) = unreachable {
                    self.out.notes.push(format!(
                        "thread {}: replica {replica} did not answer the read-back: {e}",
                        self.thread
                    ));
                    continue;
                }
                answered += 1;
                if entries.len() != expected {
                    problems.push(format!(
                        "replica {replica} holds {} entries under {prefix}, expected {expected}",
                        entries.len()
                    ));
                }
                for (key, value) in &entries {
                    if *key == self.counter {
                        // Counters are 8 little-endian bytes.
                        if value[..] != self.adds_acked.to_le_bytes() {
                            problems.push(format!(
                                "replica {replica}: counter {key} reads {value:?} after {} acknowledged adds",
                                self.adds_acked
                            ));
                        }
                        continue;
                    }
                    let got = gen::parse_value(value);
                    let want = index
                        .get(key.as_str())
                        .map(|&i| (self.gen.versions[i], i as u64));
                    if got != want || want.is_none() {
                        problems.push(format!(
                            "replica {replica}: {key} holds (version, key) {got:?}, last acknowledged {want:?}"
                        ));
                    }
                }
            }
            if answered == 0 {
                problems.push(format!("no replica of {} answered the read-back", part.id));
            }
        }
        for p in problems {
            self.out.problem(format!("thread {}: {p}", self.thread));
        }
    }
}

/// A thread of multi-partition commands: back to back, or paced.
fn multi_thread(
    shared: &Shared,
    thread: usize,
    every: Option<Duration>,
) -> Result<ThreadOutcome, String> {
    let mut store = connect(shared, thread)?;
    let global = shared.client_config.global_ring();
    let all: Vec<PartitionId> = shared
        .client_config
        .partitions
        .iter()
        .map(|p| p.id)
        .collect();
    let partition_of: HashMap<NodeId, PartitionId> = shared
        .client_config
        .nodes
        .iter()
        .filter_map(|n| n.partition.map(|p| (n.id, p)))
        .collect();
    let cmd = gen::multi_command().to_bytes();
    let mut out = ThreadOutcome {
        multi: true,
        ..ThreadOutcome::default()
    };
    let mut fan_out = |out: &mut ThreadOutcome, measured: bool| {
        let start_ns = shared.now_ns();
        let replies = store.raw().request_fanout(global, cmd.clone(), &all);
        let done_ns = shared.now_ns();
        if measured {
            out.attempted += 1;
        }
        let answered: Result<BTreeSet<PartitionId>, String> =
            replies.map_err(|e| e.to_string()).and_then(|replies| {
                replies
                    .iter()
                    .map(|(node, raw)| match KvResponse::decode(&mut raw.clone()) {
                        Ok(KvResponse::Entries(e)) if e.is_empty() => partition_of
                            .get(node)
                            .copied()
                            .ok_or_else(|| format!("reply from unknown node {node}")),
                        other => Err(format!("fan-out answered {other:?}")),
                    })
                    .collect()
            });
        match answered {
            Ok(set) if set.len() == all.len() => out.samples.push(Sample {
                done_ns,
                latency_us: (done_ns - start_ns) as f64 / 1e3,
            }),
            other => {
                out.failed += u64::from(measured);
                out.problem(format!("thread {thread}: fan-out incomplete: {other:?}"));
            }
        }
    };
    // Set-up ends with the session on the global ring open.
    fan_out(&mut out, false);
    out.samples.clear();
    if !out.problems.is_empty() {
        return Err(out.problems.remove(0));
    }
    shared.ready.wait();
    if !shared.run_load {
        return Ok(out);
    }
    shared.go.wait();
    let mut next = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        fan_out(&mut out, true);
        if let Some(every) = every {
            next = (next + every).max(Instant::now());
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
        }
    }
    Ok(out)
}

fn single_thread(shared: &Shared, thread: usize, role: Role) -> Result<ThreadOutcome, String> {
    let mut t = SingleThread::new(shared, thread)?;
    t.preload()?;
    shared.ready.wait();
    if !shared.run_load {
        return Ok(t.out);
    }
    shared.go.wait();
    match role {
        Role::Closed { window } => t.closed_loop(window),
        Role::Open { rate } => t.open_loop(rate),
        Role::Multi | Role::MultiProbe { .. } => unreachable!("multi roles run multi_thread"),
    }
    t.drain();
    t.verify();
    Ok(t.out)
}

fn scrape(config: &DeploymentConfig) -> Result<Vec<ObsSnapshot>, String> {
    config
        .nodes
        .iter()
        .map(|n| {
            fetch_stats(n.client_addr, Duration::from_secs(5))
                .map_err(|e| format!("stats from node {}: {e}", n.id))
        })
        .collect()
}

/// Sets `w` up and, with `run_load`, runs the load on it. One
/// deployment per process: a shut-down deployment leaves threads behind
/// (about 50 of a 2 × 3 deployment's, 77 of `geo_wan`'s) that would
/// burn CPU under the next one.
///
/// # Errors
///
/// Fails when the deployment cannot launch, a client cannot connect or
/// preload, or a node's stats cannot be read — the run never started,
/// as opposed to a run that finished with failed operations, which is
/// reported in the result.
pub fn run(w: &Workload, opts: &RunOpts, run_load: bool) -> Result<LiveResult, String> {
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let mut observed = LiveResult::default();
    let result = &mut observed;
    let wal_dir = w
        .durable
        .then(|| opts.scratch.join(format!("wal-{}", std::process::id())));
    if let Some(dir) = &wal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let config = deployment_config(w, opts.trace, wal_dir.as_deref())?;
    let launched = Instant::now();
    let deployment = Deployment::launch(config.clone()).map_err(|e| format!("launch: {e}"))?;
    let outcome = (|| {
        let client_config = if w.geo {
            deployment
                .config_from(CLIENT_REGION)
                .map_err(|e| e.to_string())?
        } else {
            config.clone()
        };
        if let Some(geo) = &config.geo {
            result.injected_delays = geo
                .links()
                .filter(|(from, to, _)| from != to)
                .map(|(from, to, p)| (from.into(), to.into(), p.delay.as_secs_f64() * 1e3))
                .collect();
        }
        let shared = Shared {
            w,
            opts,
            client_config: &client_config,
            scheme: config.initial_scheme().expect("mrpstore deployment"),
            pin: pinned_partition(w),
            epoch: launched,
            ready: Barrier::new(w.roles.len() + 1),
            go: Barrier::new(w.roles.len() + 1),
            stop: AtomicBool::new(false),
            run_load,
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = w
                .roles
                .iter()
                .enumerate()
                .map(|(thread, &role)| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let out = match role {
                            Role::Multi => multi_thread(shared, thread, None),
                            Role::MultiProbe { every } => multi_thread(shared, thread, Some(every)),
                            _ => single_thread(shared, thread, role),
                        };
                        if out.is_err() {
                            // Release the barriers so nobody waits for a
                            // thread that will not arrive.
                            shared.stop.store(true, Ordering::Relaxed);
                            shared.ready.wait();
                            if shared.run_load {
                                shared.go.wait();
                            }
                        }
                        out
                    })
                })
                .collect();
            shared.ready.wait();
            result.setup_s = launched.elapsed().as_secs_f64();
            let measured = if run_load {
                Some(measure(&shared, &config, result))
            } else {
                None
            };
            let outcomes: Result<Vec<ThreadOutcome>, String> = handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
                .collect();
            if let Some(start_ns) = measured {
                account(&outcomes?, start_ns?, opts, result);
            } else {
                outcomes?;
            }
            Ok(())
        })
    })();
    deployment.shutdown();
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome.map(|()| observed)
}

/// Starts the load, sits out warm-up and the measured windows, stops
/// the load; what the process used over the measured interval goes
/// into `result`. Returns when the measured interval began.
fn measure(
    shared: &Shared,
    config: &DeploymentConfig,
    result: &mut LiveResult,
) -> Result<u64, String> {
    let opts = shared.opts;
    shared.go.wait();
    let run = (|| {
        if shared.stop.load(Ordering::Relaxed) {
            return Err("a load thread failed to set up".to_string());
        }
        std::thread::sleep(opts.warmup);
        let first = if opts.trace {
            scrape(config)?
        } else {
            Vec::new()
        };
        let (_, switches_before) = proc::threads_and_ctx_switches();
        let (user_before, sys_before) = proc::cpu_seconds();
        let scheduled_before = proc::cpu_seconds_scheduled();
        let start_ns = shared.now_ns();
        std::thread::sleep(opts.window * opts.windows as u32);
        result.cpu_s = proc::cpu_seconds_scheduled() - scheduled_before;
        let (user, sys) = proc::cpu_seconds();
        result.user_cpu_s = user - user_before;
        result.sys_cpu_s = sys - sys_before;
        let (threads, switches) = proc::threads_and_ctx_switches();
        result.threads = threads;
        result.ctx_switches = switches.saturating_sub(switches_before);
        result.peak_rss_mb = proc::peak_rss_mb();
        if opts.trace {
            result.stats = first.into_iter().zip(scrape(config)?).collect();
        }
        Ok(start_ns)
    })();
    shared.stop.store(true, Ordering::Relaxed);
    run
}

fn account(outcomes: &[ThreadOutcome], start_ns: u64, opts: &RunOpts, result: &mut LiveResult) {
    let window_ns = opts.window.as_nanos() as u64;
    let end_ns = start_ns + window_ns * opts.windows as u64;
    let summarize = |multi: bool| {
        let samples: Vec<Sample> = outcomes
            .iter()
            .filter(|o| o.multi == multi)
            .flat_map(|o| o.samples.iter().copied())
            .collect();
        stats::summarize(
            &stats::cut_windows(&samples, start_ns, window_ns, opts.windows),
            window_ns,
        )
    };
    result.single = summarize(false);
    result.multi = summarize(true);
    for o in outcomes {
        result.attempted += o.attempted;
        result.failed += o.failed;
        result.problems.extend(o.problems.iter().cloned());
        result.notes.extend(o.notes.iter().cloned());
    }
    let mut late: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.late_us.iter().copied())
        .collect();
    result.gen_late_p99_ms = stats::quantile(&mut late, 0.99).map(|us| us / 1e3);
    let measured_submits = || {
        outcomes
            .iter()
            .flat_map(|o| &o.submits)
            .filter(move |(at, _)| (start_ns..end_ns).contains(at))
    };
    result.submitted = measured_submits().count() as u64;
    result.submit_ns_op = measured_submits()
        .map(|(_, ns)| f64::from(*ns))
        .sum::<f64>()
        / (result.submitted.max(1)) as f64;
    let (sum, obs) = outcomes
        .iter()
        .fold((0, 0), |(s, n), o| (s + o.window_sum, n + o.window_obs));
    result.window_mean = sum as f64 / obs.max(1) as f64;
}
