//! Whole-deployment orchestration.
//!
//! [`Deployment::launch`] brings up every node of a
//! [`DeploymentConfig`] in this process — each with its own event-loop
//! thread, peer listener and client listener, all talking real TCP — and
//! supports killing and restarting individual nodes. Each node executes
//! one service stack, `DurableApp(SessionApp(KvApp | DlogApp |
//! EchoApp))`, on its loop, with one WAL. Tests, examples and
//! the loopback benchmark use it; `amcastd` uses [`start_node`] to run a
//! single node of the same configuration in its own process.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::NodeId;
use common::obs::Obs;
use common::transport::WallClock;
use coord::Registry;
use multiring::{HostOptions, ServiceApp, SessionApp, SessionLimits};
use storage::wal::{SegmentedWal, SyncPolicy};

use crate::batch::BatchOptions;
use crate::config::{DeploymentConfig, NodeSpec, ServiceKind};
use crate::durable::DurableApp;
use crate::link::{connect_coord, LinkCoord};
use crate::netem::NetemControl;
use crate::node::{spawn_node, NodeHandle, NodeSetup};

/// A segment directory of `node`'s delivered-command WAL:
/// `<wal_dir>/node-<id>/shard-<k>/`. A node writes one WAL, in
/// shard 0's directory.
pub fn shard_wal_dir(wal_dir: &Path, node: NodeId, shard: usize) -> PathBuf {
    wal_dir
        .join(format!("node-{}", node.raw()))
        .join(format!("shard-{shard}"))
}

/// Wraps a node's service stack in its rotated, group-committed WAL
/// under `wal_dir` (none: no WAL), rolling segments every `roll_every`
/// records. The WAL counts its appends and commit latency into the
/// node's `obs` (the credit controller reads the latter).
pub(crate) fn durable(
    wal_dir: Option<&Path>,
    roll_every: u64,
    node: NodeId,
    inner: Box<dyn ServiceApp>,
    obs: &Obs,
) -> Result<Box<dyn ServiceApp>> {
    let Some(wal_dir) = wal_dir else {
        return Ok(inner);
    };
    let seg_dir = shard_wal_dir(wal_dir, node, 0);
    // Resume the position counter past everything ever written, so
    // pruning cutoffs and segment names stay monotone across a
    // restart-in-place.
    let start = SegmentedWal::end_pos(&seg_dir)?;
    // Group commit (one fdatasync per delivered batch) makes the
    // paper's synchronous mode affordable on the delivery path;
    // rotation plus checkpoint-cadence pruning bounds the directory.
    let mut wal = SegmentedWal::open(&seg_dir, SyncPolicy::EveryWrite, roll_every)?;
    wal.instrument(obs);
    Ok(Box::new(DurableApp::with_log(inner, Box::new(wal), start)))
}

/// Waits until `node`'s WAL lock under `wal_dir` is gone, so a
/// restart-in-place never races the stopped node for its log directory.
/// A lock that outlives two seconds is an error: a bug this exists to
/// surface.
pub(crate) fn wait_wal_released(wal_dir: &Path, node: NodeId) -> Result<()> {
    let lock = SegmentedWal::dir_lock_path(shard_wal_dir(wal_dir, node, 0));
    let deadline = Instant::now() + Duration::from_secs(2);
    while lock.exists() {
        if Instant::now() >= deadline {
            return Err(Error::Storage(format!(
                "node {node} wal lock {} survived shutdown",
                lock.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// Builds the service stack one node of `config` executes on its loop:
/// `DurableApp(SessionApp(service))`. The session table decorates the
/// service (protocol v2; v1 traffic passes through untouched), and the
/// WAL logs the full delivered stream outside it.
fn build_stack(config: &DeploymentConfig, node: NodeId, obs: &Obs) -> Result<Box<dyn ServiceApp>> {
    let spec = config
        .node(node)
        .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))?;
    let service: Box<dyn ServiceApp> = match &config.service {
        ServiceKind::MrpStore { .. } => {
            let partition = spec
                .partition
                .ok_or_else(|| Error::Config(format!("mrpstore node {node} needs a partition")))?;
            let scheme = config.initial_scheme().expect("mrpstore deployment");
            Box::new(mrpstore::KvApp::new(partition, scheme))
        }
        ServiceKind::Dlog { logs } => {
            Box::new(dlog::DlogApp::new(&(0..*logs).collect::<Vec<u16>>()))
        }
        ServiceKind::Echo => Box::new(multiring::EchoApp::new()),
    };
    // The reply-cache cap tracks the credit window so a full window
    // always fits.
    let limits = SessionLimits {
        max_cached: (config.client_window as usize * 2).max(256),
        ..SessionLimits::default()
    };
    let sessions = Box::new(SessionApp::with_limits(service, limits));
    durable(
        config.wal_dir.as_deref(),
        config.wal_roll_every,
        node,
        sessions,
        obs,
    )
}

/// Host tuning for live deployments: failure detection on (a dead ring
/// member must be cut out for circulation to resume), rate leveling on
/// (the deterministic merge needs idle rings to emit skips, §4),
/// checkpoints per the config and §5.2 log trimming at the same cadence
/// (a trim round has nothing new to cut until a checkpoint lands, so
/// `checkpoint_ms = 0` turns both off), recovery retries snappy enough
/// for tests.
fn host_options(config: &DeploymentConfig) -> HostOptions {
    use std::time::Duration;
    let mut opts = HostOptions {
        ring: ringpaxos::options::RingOptions {
            heartbeat_interval: Duration::from_millis(25),
            failure_timeout: Duration::from_millis(400),
            proposal_retry: Duration::from_millis(500),
            // Tighter than the paper's 5 ms datacenter Δ: on loopback the
            // merge cadence is the latency floor, and skips are cheap.
            rate_leveling: Some(ringpaxos::options::RateLeveling {
                delta: Duration::from_millis(1),
                lambda: 9000,
            }),
            value_push_bytes: config.value_push_bytes,
            ..ringpaxos::options::RingOptions::default()
        },
        checkpoint_interval: config.checkpoint_interval,
        trim_interval: config.checkpoint_interval,
        recovery_retry: Duration::from_millis(100),
        ..HostOptions::default()
    };
    if let Some(geo) = &config.geo {
        // On a shaped WAN the loopback-tuned retries would re-propose
        // and re-fetch while the first attempt is still in flight:
        // give every retry timer room for a few shaped round trips.
        let one_way = geo.max_one_way();
        opts.ring.proposal_retry = opts
            .ring
            .proposal_retry
            .max(one_way * 4 + Duration::from_millis(200));
        opts.ring.failure_timeout = opts
            .ring
            .failure_timeout
            .max(one_way * 2 + Duration::from_millis(300));
        opts.recovery_retry = opts
            .recovery_retry
            .max(one_way * 2 + Duration::from_millis(100));
    }
    opts
}

/// Builds the registry a node of `config` should consult: a connection
/// to the configured `amcoordd` ensemble (seeding it idempotently) with a
/// session of its own, or a freshly built in-process registry when the
/// deployment names no coordination service.
///
/// # Errors
///
/// Fails if no `amcoordd` replica is reachable or seeding is rejected.
pub fn connect_registry(config: &DeploymentConfig) -> Result<Registry> {
    if config.coord_addrs.is_empty() {
        return config.build_registry();
    }
    let registry = connect_coord(&config.coord_addrs, config.session_ttl)?;
    config.seed_registry(&registry)?;
    Ok(registry)
}

/// Starts one node of `config` against `registry` (cold start or
/// recovery restart), shaping its peer links and per-region client
/// listeners through `netem`'s policy table when given (the in-process
/// geo-deployment path). `amcastd` calls this once per process, unshaped.
/// The in-process [`Deployment`] calls it per node with a shared registry.
/// A registry connected to an ensemble belongs to the node from then on:
/// its loop drives the connection.
///
/// # Errors
///
/// Fails if the node is unknown, an address cannot bind, or the WAL
/// cannot open.
pub fn start_node(
    config: &DeploymentConfig,
    registry: Registry,
    clock: WallClock,
    node: NodeId,
    restart: bool,
    netem: Option<&NetemControl>,
) -> Result<NodeHandle> {
    let spec = config
        .node(node)
        .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))?;
    let batch_opts = BatchOptions {
        max_envelopes: config.batch_max.max(1),
        max_bytes: config.batch_max_bytes.max(1),
        max_delay: config.batch_delay,
    };
    let peer_addrs: HashMap<NodeId, SocketAddr> =
        config.nodes.iter().map(|n| (n.id, n.peer_addr)).collect();
    let coord_link = boot_registry(config, spec, &registry, restart);
    // One registry per node, shared by every layer of its stack: the
    // same instance rides `host_opts.ring.obs` into the host and rings.
    let obs = Obs::for_node(node.raw());
    obs.set_trace_every(config.trace_sample);
    let mut host_opts = host_options(config);
    host_opts.ring.obs = obs.clone();
    let app = build_stack(config, node, &obs)?;
    let setup = NodeSetup {
        me: node,
        member_of: config.member_of(node),
        subscribe_to: config.subscribe_to(node),
        partition: spec.partition,
        registry,
        coord_link,
        // Coordination rides the same WAN (see
        // `NetemControl::reaches_coordination`).
        netem: netem.cloned(),
        host_opts,
        batch_opts,
        peer_addrs,
        peer_addr: spec.peer_addr,
        client_addr: spec.client_addr,
        clock,
        client_window: config.client_window,
        credit_min_window: config.credit_min_window,
        credit_backlog_high: config.credit_backlog_high,
        obs,
        kind: "amcast",
        coord: None,
    };
    spawn_node(setup, app, restart)
}

/// Readies `registry` for `spec`'s node loop, on the calling thread.
/// After a restart it rejoins the node's rings first: failure detection
/// removed the node while it was down, and a ring node is built only for
/// a member. It advertises the node, and returns the registry's link to
/// an ensemble, if it has one, which the loop takes over once its host is
/// built.
fn boot_registry(
    config: &DeploymentConfig,
    spec: &NodeSpec,
    registry: &Registry,
    restart: bool,
) -> Option<Arc<LinkCoord>> {
    let node = spec.id;
    let rings = config.rings.iter().filter(|r| r.members.contains(&node));
    if restart {
        for r in rings.clone() {
            let _ = registry.rejoin(r.id, node, r.acceptors.contains(&node));
        }
    }
    // Advertise liveness: an ephemeral entry on the node's coordination
    // session. Against amcoord the entry lives exactly as long as the
    // session's TTL is kept alive — a killed process disappears from
    // `nodes/` without anyone reporting it.
    let addr = Bytes::from(spec.peer_addr.to_string());
    let _ = registry.announce(format!("nodes/{}", node.raw()), addr);
    LinkCoord::of(registry)
}

/// A whole deployment running in this process over localhost TCP.
pub struct Deployment {
    config: DeploymentConfig,
    registry: Registry,
    clock: WallClock,
    nodes: Vec<Option<NodeHandle>>,
    /// The link policy table, when the configuration carries a geography.
    netem: Option<NetemControl>,
}

impl Deployment {
    /// Starts every node of `config`.
    ///
    /// Without a `coord` section every node shares one in-process
    /// registry. With one, each node gets its *own* connection (and TTL
    /// session) to the `amcoordd` ensemble — in-process only in the sense
    /// that the nodes share a pid; their coordination traffic, sessions
    /// and failover flows are exactly the one-process-per-node paths.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is inconsistent or an address cannot
    /// bind.
    pub fn launch(config: DeploymentConfig) -> Result<Self> {
        let registry = connect_registry(&config)?;
        let clock = WallClock::start();
        let netem = match &config.geo {
            Some(_) => Some(NetemControl::new(&config)?),
            None => None,
        };
        let mut nodes = Vec::new();
        for spec in &config.nodes {
            let node_registry = if config.coord_addrs.is_empty() {
                registry.clone()
            } else {
                connect_registry(&config)?
            };
            nodes.push(Some(start_node(
                &config,
                node_registry,
                clock,
                spec.id,
                false,
                netem.as_ref(),
            )?));
        }
        Ok(Deployment {
            config,
            registry,
            clock,
            nodes,
            netem,
        })
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The shared registry (the deployment's "Zookeeper").
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// `(node, client address)` pairs clients connect to.
    pub fn client_addrs(&self) -> Vec<(NodeId, SocketAddr)> {
        self.config
            .nodes
            .iter()
            .map(|n| (n.id, n.client_addr))
            .collect()
    }

    fn index_of(&self, node: NodeId) -> Result<usize> {
        self.config
            .nodes
            .iter()
            .position(|n| n.id == node)
            .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))
    }

    /// Kills `node`: its threads stop, its sockets close, its volatile
    /// state is gone. Peers detect the silence and reconfigure the rings
    /// around it (paper §5.1). Returns once the node's WAL lock is
    /// released.
    ///
    /// # Errors
    ///
    /// Fails if the node is unknown, already dead, or a WAL lock
    /// outlives the shutdown (a bug this method exists to surface).
    pub fn kill(&mut self, node: NodeId) -> Result<()> {
        let i = self.index_of(node)?;
        let handle = self.nodes[i]
            .take()
            .ok_or_else(|| Error::Config(format!("node {node} is not running")))?;
        handle.shutdown();
        match &self.config.wal_dir {
            Some(dir) => wait_wal_released(dir, node),
            None => Ok(()),
        }
    }

    /// Restarts a killed `node` through the recovery path: it rejoins its
    /// rings, installs the freshest reachable checkpoint and catches up
    /// from the acceptors (paper §5.2). Against an `amcoordd` ensemble
    /// the node comes back with a fresh connection and session (the old
    /// one died with the node, exactly like a restarted process).
    ///
    /// # Errors
    ///
    /// Fails if the node is unknown or still running.
    pub fn restart(&mut self, node: NodeId) -> Result<()> {
        let i = self.index_of(node)?;
        if self.nodes[i].is_some() {
            return Err(Error::Config(format!("node {node} is still running")));
        }
        let registry = if self.config.coord_addrs.is_empty() {
            self.registry.clone()
        } else {
            connect_registry(&self.config)?
        };
        self.nodes[i] = Some(start_node(
            &self.config,
            registry,
            self.clock,
            node,
            true,
            self.netem.as_ref(),
        )?);
        Ok(())
    }

    /// Runtime control over the deployment's link shaping, when it has a
    /// geography: scenarios partition, degrade and heal regions mid-run
    /// through this handle.
    pub fn netem(&self) -> Option<NetemControl> {
        self.netem.clone()
    }

    /// The address a client *in* `region` should use to reach `node`:
    /// the node's listener for that region when the deployment has a
    /// geography and declares `region`, the plain client address
    /// (unshaped) otherwise.
    ///
    /// # Errors
    ///
    /// Fails for unknown nodes.
    pub fn client_addr_from(&self, region: &str, node: NodeId) -> Result<SocketAddr> {
        let spec = self
            .config
            .node(node)
            .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))?;
        let shaped = self
            .netem
            .as_ref()
            .and_then(|nt| nt.client_addr(region, node));
        Ok(shaped.unwrap_or(spec.client_addr))
    }

    /// A copy of the configuration as seen by a client *in* `region`:
    /// every client address rewritten to the node's listener for that
    /// region, whose connections the node shapes both ways. Hand it to
    /// [`crate::LiveClient::connect`] (or the service facades) to put
    /// the client behind the region's WAN links.
    ///
    /// # Errors
    ///
    /// Fails for a node missing from the configuration.
    pub fn config_from(&self, region: &str) -> Result<DeploymentConfig> {
        let mut config = self.config.clone();
        for spec in &mut config.nodes {
            spec.client_addr = self.client_addr_from(region, spec.id)?;
        }
        Ok(config)
    }

    /// True when `node` is currently running.
    pub fn is_running(&self, node: NodeId) -> bool {
        self.index_of(node)
            .map(|i| self.nodes[i].is_some())
            .unwrap_or(false)
    }

    /// Stops every running node.
    pub fn shutdown(mut self) {
        for handle in self.nodes.iter_mut().filter_map(Option::take) {
            handle.shutdown();
        }
    }
}
