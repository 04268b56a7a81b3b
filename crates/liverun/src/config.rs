//! Deployment configuration: what `amcastd` reads off disk.
//!
//! A deployment file is a TOML-subset document (hand-parsed, so the
//! offline build needs no external parser) describing the whole cluster:
//! every node with its peer/client addresses, every ring with members and
//! acceptors, every service partition, and the service to replicate. Each
//! `amcastd` process loads the same file and starts the one node named on
//! its command line — mirroring how the paper keeps the configuration in
//! Zookeeper, equally visible to every process.
//!
//! ```toml
//! [deployment]
//! service = "mrpstore"
//! partitions = 2
//! batch_max = 64
//! batch_delay_ms = 2
//!
//! [[node]]
//! id = 0
//! peer_addr = "127.0.0.1:7400"
//! client_addr = "127.0.0.1:7500"
//! partition = 0
//!
//! [[ring]]
//! id = 0
//! members = [0, 1]
//! acceptors = [0, 1]
//!
//! [[partition]]
//! id = 0
//! rings = [0, 2]
//! replicas = [0, 1]
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use common::error::{Error, Result};
use common::geo::{Region, WanProfile};
use common::ids::{NodeId, PartitionId, RingId};
use common::transport::LinkPolicy;
use coord::{PartitionInfo, Registry, RingConfig};
use mrpstore::Partitioning;

pub use crate::net::free_port_block;

/// Which replicated service the deployment runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceKind {
    /// MRP-Store with `partitions` hash partitions (rings `0..partitions`
    /// carry single-partition commands; ring `partitions` is the global
    /// ring for scans).
    MrpStore {
        /// Number of hash partitions.
        partitions: u16,
    },
    /// dLog with `logs` shared logs (ring per log plus one multi-append
    /// ring, same layout convention).
    Dlog {
        /// Number of logs.
        logs: u16,
    },
    /// The paper's dummy service (raw ordering performance).
    Echo,
}

/// One node of the deployment.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// The node's id.
    pub id: NodeId,
    /// Address peers connect to (ring + recovery traffic).
    pub peer_addr: SocketAddr,
    /// Address clients connect to.
    pub client_addr: SocketAddr,
    /// The service partition this node's replica belongs to, if any.
    pub partition: Option<PartitionId>,
}

/// One ring definition.
#[derive(Clone, Debug)]
pub struct RingSpec {
    /// The ring's id (also its multicast group id).
    pub id: RingId,
    /// Members in ring order.
    pub members: Vec<NodeId>,
    /// The subset acting as acceptors.
    pub acceptors: Vec<NodeId>,
}

/// One service partition definition.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// The partition's id.
    pub id: PartitionId,
    /// Rings every replica of the partition subscribes to.
    pub rings: Vec<RingId>,
    /// The replicas.
    pub replicas: Vec<NodeId>,
}

/// One named region of a geo deployment and the nodes placed in it.
#[derive(Clone, Debug)]
pub struct RegionSpec {
    /// The region's name (an AWS name resolves its links through the
    /// deployment's WAN profile; any other name needs `[[link]]` entries).
    pub name: String,
    /// The nodes living in this region.
    pub nodes: Vec<NodeId>,
}

/// The geography of a deployment: named regions, resolved per-link
/// policies and the profile they came from. Present when the document
/// declares `[[region]]` sections; [`crate::Deployment`] then shapes
/// every inter-node TCP link through `liverun::netem`.
#[derive(Clone, Debug)]
pub struct GeoSpec {
    /// The WAN profile links resolve through (`wan_profile`).
    pub profile: String,
    /// Percent applied to every link's one-way delay
    /// (`wan_delay_scale_pct`, default 100): CI smoke runs keep the WAN's
    /// *shape* at a fraction of its wall-clock cost.
    pub delay_scale_pct: u64,
    /// The declared regions.
    pub regions: Vec<RegionSpec>,
    /// The region hosting the coordination service (`coord_region`,
    /// default: the first declared region). Nodes partitioned from it
    /// lose coordination access — the paper's ZooKeeper becomes
    /// unreachable with the WAN, so a minority-partitioned replica
    /// cannot keep evicting healthy members.
    pub coord_region: String,
    /// Resolved directed-link policies, delay scaling applied.
    links: BTreeMap<(String, String), LinkPolicy>,
}

impl GeoSpec {
    /// The region `node` was placed in.
    pub fn region_of(&self, node: NodeId) -> Option<&str> {
        self.regions
            .iter()
            .find(|r| r.nodes.contains(&node))
            .map(|r| r.name.as_str())
    }

    /// The resolved policy for the directed link `from` → `to`
    /// (unshaped for pairs outside the declared world).
    pub fn policy(&self, from: &str, to: &str) -> LinkPolicy {
        self.links
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or_else(LinkPolicy::unshaped)
    }

    /// All resolved directed links.
    pub fn links(&self) -> impl Iterator<Item = (&str, &str, LinkPolicy)> {
        self.links
            .iter()
            .map(|((a, b), p)| (a.as_str(), b.as_str(), *p))
    }

    /// The largest one-way delay of any link — what proposal/retry
    /// timers must out-wait on this geography.
    pub fn max_one_way(&self) -> Duration {
        self.links
            .values()
            .map(|p| p.delay)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// A full deployment description.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// The replicated service.
    pub service: ServiceKind,
    /// Maximum client commands batched into one consensus value.
    pub batch_max: usize,
    /// Maximum command-payload bytes per consensus value
    /// (`batch_max_bytes`): a batch seals before an envelope would carry
    /// it past this size, so batch sizing adapts to payload size rather
    /// than count alone.
    pub batch_max_bytes: usize,
    /// Maximum time a non-empty batch waits before proposing
    /// (`batch_delay_ms`) — the ceiling; a batch on a ring with nothing
    /// of this node's in flight proposes at once.
    pub batch_delay: Duration,
    /// Credit window granted to protocol-v2 clients at the handshake
    /// (`client_window`, requests in flight per client). Also the ceiling
    /// the credit controller expands back to after overload clears.
    pub client_window: u32,
    /// Floor the credit controller never shrinks a session window below
    /// (`credit_min_window`).
    pub credit_min_window: u32,
    /// Proposal backlog (envelopes queued in the batcher) above which
    /// credit halves (`credit_backlog_high`); 0 lets
    /// the node derive a default from `batch_max`.
    pub credit_backlog_high: u32,
    /// Payload size at or above which a non-coordinating proposer eagerly
    /// pushes a value to every ring member concurrently with ordering
    /// (`value_push_bytes`); 0 disables eager dissemination.
    pub value_push_bytes: usize,
    /// Replica checkpoint cadence (`None` disables checkpointing).
    pub checkpoint_interval: Option<Duration>,
    /// Directory for per-node write-ahead logs (`None` disables WALs).
    pub wal_dir: Option<PathBuf>,
    /// The `amcoordd` ensemble serving this deployment's configuration
    /// (`coord = "addr,addr,..."`). Empty means in-process registry: every
    /// node must then share one address space (`--all` / [`crate::Deployment`]).
    pub coord_addrs: Vec<SocketAddr>,
    /// TTL for each node's coordination session (`session_ttl_ms`).
    pub session_ttl: Duration,
    /// Stage-latency trace sampling: stamp one in `trace_sample`
    /// submitted commands with an origin timestamp (`trace_sample`,
    /// 0 disables tracing entirely).
    pub trace_sample: u64,
    /// MRP-Store key placement (`partitioning`): `"hash"` (default) or
    /// `"range"`, which seeds an evenly split key-range table — the
    /// scheme live range migration requires.
    pub range_partitioned: bool,
    /// Records per delivered-command WAL segment before it rolls
    /// (`wal_roll_every`); checkpoint-cadence pruning reclaims whole
    /// segments below the durable cut.
    pub wal_roll_every: u64,
    /// The deployment's geography, when `[[region]]` sections are
    /// present: in-process deployments then shape every peer link.
    pub geo: Option<GeoSpec>,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
    /// The rings.
    pub rings: Vec<RingSpec>,
    /// The service partitions.
    pub partitions: Vec<PartitionSpec>,
}

impl DeploymentConfig {
    /// Parses a deployment document.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Config`] on syntax or consistency problems.
    pub fn parse(text: &str) -> Result<Self> {
        let doc = Document::parse(text)?;
        let deployment = doc
            .singleton("deployment")
            .ok_or_else(|| Error::Config("missing [deployment] section".into()))?;

        let service = match deployment.str_or("service", "echo").as_str() {
            "mrpstore" => ServiceKind::MrpStore {
                partitions: deployment.int_or("partitions", 1)? as u16,
            },
            "dlog" => ServiceKind::Dlog {
                // `logs = N` is the documented key; fall back to
                // `partitions` which older configs (mis)used.
                logs: deployment.int_or("logs", deployment.int_or("partitions", 1)?)? as u16,
            },
            "echo" => ServiceKind::Echo,
            other => {
                return Err(Error::Config(format!("unknown service {other:?}")));
            }
        };

        let mut nodes = Vec::new();
        for t in doc.list("node") {
            nodes.push(NodeSpec {
                id: NodeId::new(t.int("id")? as u32),
                peer_addr: t.addr("peer_addr")?,
                client_addr: t.addr("client_addr")?,
                partition: match t.get("partition") {
                    Some(_) => Some(PartitionId::new(t.int("partition")? as u16)),
                    None => None,
                },
            });
        }
        let mut rings = Vec::new();
        for t in doc.list("ring") {
            rings.push(RingSpec {
                id: RingId::new(t.int("id")? as u16),
                members: t.ids("members")?,
                acceptors: t.ids("acceptors")?,
            });
        }
        let mut partitions = Vec::new();
        for t in doc.list("partition") {
            partitions.push(PartitionSpec {
                id: PartitionId::new(t.int("id")? as u16),
                rings: t
                    .ints("rings")?
                    .into_iter()
                    .map(|v| RingId::new(v as u16))
                    .collect(),
                replicas: t.ids("replicas")?,
            });
        }

        let mut regions = Vec::new();
        for t in doc.list("region") {
            regions.push(RegionSpec {
                name: t.str_req("name")?,
                nodes: t.ids("nodes")?,
            });
        }
        let geo = if regions.is_empty() {
            None
        } else {
            let profile_name = deployment.str_or("wan_profile", "ec2-2014");
            let profile = WanProfile::by_name(&profile_name)
                .ok_or_else(|| Error::Config(format!("unknown wan_profile {profile_name:?}")))?;
            let delay_scale_pct = deployment.int_or("wan_delay_scale_pct", 100)?;
            let mut links = BTreeMap::new();
            for a in &regions {
                for b in &regions {
                    let base = match (Region::from_name(&a.name), Region::from_name(&b.name)) {
                        (Some(ra), Some(rb)) => profile.policy(ra, rb),
                        _ if a.name == b.name => LinkPolicy {
                            delay: profile.intra_rtt / 2,
                            jitter_pct: profile.jitter_pct,
                            bytes_per_sec: profile.intra_bytes_per_sec,
                            loss_pct: 0,
                            blocked: false,
                        },
                        // Non-AWS region names get their inter-region
                        // links from [[link]] overrides below.
                        _ => LinkPolicy::unshaped(),
                    };
                    links.insert((a.name.clone(), b.name.clone()), base);
                }
            }
            for t in doc.list("link") {
                let from = t.str_req("from")?;
                let to = t.str_req("to")?;
                for name in [&from, &to] {
                    if !regions.iter().any(|r| &r.name == name) {
                        return Err(Error::Config(format!(
                            "[[link]] references undeclared region {name:?}"
                        )));
                    }
                }
                let policy = LinkPolicy {
                    delay: Duration::from_millis(t.int("rtt_ms")?) / 2,
                    jitter_pct: t.int_or("jitter_pct", profile.jitter_pct as u64)? as u32,
                    bytes_per_sec: t.int_or("mbps", 0)? * 1_000_000 / 8,
                    loss_pct: t.int_or("loss_pct", 0)? as u32,
                    blocked: false,
                };
                // An RTT is a property of the pair: override both
                // directed links.
                links.insert((from.clone(), to.clone()), policy);
                links.insert((to, from), policy);
            }
            for p in links.values_mut() {
                *p = p.scale_delay(delay_scale_pct);
            }
            let coord_region = deployment.str_or("coord_region", &regions[0].name);
            if !regions.iter().any(|r| r.name == coord_region) {
                return Err(Error::Config(format!(
                    "coord_region {coord_region:?} is not a declared region"
                )));
            }
            Some(GeoSpec {
                profile: profile_name,
                delay_scale_pct,
                regions,
                coord_region,
                links,
            })
        };

        let coord_addrs = match deployment.get("coord") {
            None => Vec::new(),
            Some(v) => {
                let raw = v.as_str();
                let mut addrs = Vec::new();
                for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
                    addrs.push(
                        part.trim()
                            .parse()
                            .map_err(|_| Error::Config(format!("bad coord address {part:?}")))?,
                    );
                }
                addrs
            }
        };
        let config = DeploymentConfig {
            service,
            batch_max: deployment.int_or("batch_max", 64)? as usize,
            batch_max_bytes: (deployment.int_or("batch_max_bytes", 32 * 1024)? as usize).max(1),
            batch_delay: Duration::from_millis(deployment.int_or("batch_delay_ms", 2)?),
            client_window: deployment.int_or("client_window", 64)? as u32,
            credit_min_window: (deployment.int_or("credit_min_window", 1)? as u32).max(1),
            credit_backlog_high: deployment.int_or("credit_backlog_high", 0)? as u32,
            value_push_bytes: deployment.int_or("value_push_bytes", 16 * 1024)? as usize,
            checkpoint_interval: {
                let ms = deployment.int_or("checkpoint_ms", 0)?;
                (ms > 0).then(|| Duration::from_millis(ms))
            },
            wal_dir: deployment.get("wal_dir").map(|v| PathBuf::from(v.as_str())),
            coord_addrs,
            session_ttl: Duration::from_millis(deployment.int_or("session_ttl_ms", 3000)?),
            trace_sample: deployment.int_or("trace_sample", 0)?,
            range_partitioned: match deployment.str_or("partitioning", "hash").as_str() {
                "hash" => false,
                "range" => true,
                other => {
                    return Err(Error::Config(format!("unknown partitioning {other:?}")));
                }
            },
            wal_roll_every: (deployment.int_or("wal_roll_every", 4096)?).max(1),
            geo,
            nodes,
            rings,
            partitions,
        };
        doc.reject_unread()?;
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(Error::Config("no [[node]] sections".into()));
        }
        if self.rings.is_empty() {
            return Err(Error::Config("no [[ring]] sections".into()));
        }
        // A duplicate id would silently partition the deployment: each
        // node binds the first spec, peers dial the last, and a seeded
        // ensemble adopts the first ring and drops the second.
        let ids = (self.nodes.iter().map(|n| ("node", u64::from(n.id.raw()))))
            .chain(self.rings.iter().map(|r| ("ring", u64::from(r.id.raw()))))
            .chain((self.partitions.iter()).map(|p| ("partition", u64::from(p.id.raw()))));
        let mut seen = BTreeSet::new();
        for (kind, id) in ids {
            if !seen.insert((kind, id)) {
                return Err(Error::Config(format!("duplicate {kind} id {id}")));
            }
        }
        let known = |n: &NodeId| self.nodes.iter().any(|s| s.id == *n);
        for r in &self.rings {
            for m in r.members.iter().chain(&r.acceptors) {
                if !known(m) {
                    return Err(Error::Config(format!(
                        "ring {} references unknown node {m}",
                        r.id
                    )));
                }
            }
        }
        for p in &self.partitions {
            for m in &p.replicas {
                if !known(m) {
                    return Err(Error::Config(format!(
                        "partition {} references unknown node {m}",
                        p.id
                    )));
                }
            }
        }
        if let Some(geo) = &self.geo {
            let mut placed = BTreeSet::new();
            for r in &geo.regions {
                for n in &r.nodes {
                    if !known(n) {
                        return Err(Error::Config(format!(
                            "region {:?} references unknown node {n}",
                            r.name
                        )));
                    }
                    if !placed.insert(*n) {
                        return Err(Error::Config(format!(
                            "node {n} placed in more than one region"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// The spec of node `id`.
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Builds the shared configuration registry every node consults —
    /// rings, partitions and (for MRP-Store) the partitioning scheme.
    ///
    /// # Errors
    ///
    /// Fails if a ring or partition definition is rejected.
    pub fn build_registry(&self) -> Result<Registry> {
        let registry = Registry::new();
        self.seed_registry(&registry)?;
        Ok(registry)
    }

    /// Idempotently seeds `registry` with this deployment's rings,
    /// partitions and partitioning scheme. One-process-per-node
    /// deployments race every node through this at startup: the first
    /// writer registers, the rest adopt whatever the coordination service
    /// already holds (including post-failover configurations — seeding
    /// never resets a live ring).
    ///
    /// # Errors
    ///
    /// Fails if a definition is structurally invalid or the service is
    /// unreachable.
    pub fn seed_registry(&self, registry: &Registry) -> Result<()> {
        for r in &self.rings {
            registry.ensure_ring(RingConfig::new(
                r.id,
                r.members.clone(),
                r.acceptors.clone(),
            )?)?;
        }
        for p in &self.partitions {
            registry.ensure_partition(
                p.id,
                PartitionInfo {
                    rings: p.rings.clone(),
                    replicas: p.replicas.clone(),
                },
            )?;
        }
        if let Some(scheme) = self.initial_scheme() {
            if Partitioning::load(registry).is_none() {
                scheme.publish(registry);
            }
        }
        Ok(())
    }

    /// Rings `node` is a member of, ascending.
    pub fn member_of(&self, node: NodeId) -> Vec<RingId> {
        self.rings
            .iter()
            .filter(|r| r.members.contains(&node))
            .map(|r| r.id)
            .collect()
    }

    /// Rings `node` subscribes to: its partition's rings.
    pub fn subscribe_to(&self, node: NodeId) -> Vec<RingId> {
        let Some(spec) = self.node(node) else {
            return Vec::new();
        };
        let Some(partition) = spec.partition else {
            return Vec::new();
        };
        self.partitions
            .iter()
            .find(|p| p.id == partition)
            .map(|p| p.rings.clone())
            .unwrap_or_default()
    }

    /// The partitioning scheme an MRP-Store deployment boots with
    /// (`None` for other services): hash by default, or — with
    /// `partitioning = "range"` — a key-range split at evenly spaced
    /// single-letter bounds, the shape live range migration can
    /// rewrite.
    pub fn initial_scheme(&self) -> Option<Partitioning> {
        let ServiceKind::MrpStore { partitions } = self.service else {
            return None;
        };
        Some(if self.range_partitioned {
            let n = u32::from(partitions.max(1));
            let bounds = (1..n)
                .map(|i| char::from(b'a' + (i * 26 / n) as u8).to_string())
                .collect();
            Partitioning::Range { bounds }
        } else {
            Partitioning::Hash { partitions }
        })
    }

    /// For MRP-Store layouts: the global ring scans are multicast to
    /// (convention: the highest ring id).
    pub fn global_ring(&self) -> RingId {
        self.rings
            .iter()
            .map(|r| r.id)
            .max()
            .unwrap_or(RingId::new(0))
    }
}

// ---------------------------------------------------------------------
// the TOML-subset document model
// ---------------------------------------------------------------------

/// A parsed `key = value` table.
#[derive(Clone, Debug, Default)]
struct Table {
    values: BTreeMap<String, Value>,
    /// Every key a parser asked for, present or not: the rest are
    /// unknown ([`Document::reject_unread`]).
    read: RefCell<BTreeSet<String>>,
}

#[derive(Clone, Debug)]
enum Value {
    Str(String),
    Int(u64),
    List(Vec<u64>),
}

impl Value {
    fn as_str(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::List(_) => String::new(),
        }
    }
}

impl Table {
    fn get(&self, key: &str) -> Option<&Value> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key)
    }

    fn int(&self, key: &str) -> Result<u64> {
        match self.get(key) {
            Some(Value::Int(v)) => Ok(*v),
            _ => Err(Error::Config(format!("missing integer key {key:?}"))),
        }
    }

    fn int_or(&self, key: &str, default: u64) -> Result<u64> {
        match self.get(key) {
            None => Ok(default),
            Some(Value::Int(v)) => Ok(*v),
            Some(_) => Err(Error::Config(format!("key {key:?} must be an integer"))),
        }
    }

    fn str_or(&self, key: &str, default: &str) -> String {
        match self.get(key) {
            Some(v) => v.as_str(),
            None => default.to_string(),
        }
    }

    fn str_req(&self, key: &str) -> Result<String> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(Error::Config(format!("missing string key {key:?}"))),
        }
    }

    fn addr(&self, key: &str) -> Result<SocketAddr> {
        let raw = match self.get(key) {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(Error::Config(format!("missing address key {key:?}"))),
        };
        raw.parse()
            .map_err(|_| Error::Config(format!("bad socket address {raw:?} for {key:?}")))
    }

    fn ints(&self, key: &str) -> Result<Vec<u64>> {
        match self.get(key) {
            Some(Value::List(v)) => Ok(v.clone()),
            _ => Err(Error::Config(format!("missing list key {key:?}"))),
        }
    }

    fn ids(&self, key: &str) -> Result<Vec<NodeId>> {
        Ok(self
            .ints(key)?
            .into_iter()
            .map(|v| NodeId::new(v as u32))
            .collect())
    }
}

#[derive(Debug, Default)]
struct Document {
    singletons: BTreeMap<String, Table>,
    lists: BTreeMap<String, Vec<Table>>,
}

impl Document {
    fn singleton(&self, name: &str) -> Option<&Table> {
        self.singletons.get(name)
    }

    fn list(&self, name: &str) -> impl Iterator<Item = &Table> {
        self.lists.get(name).into_iter().flatten()
    }

    /// Fails on the first key no parser read: a misspelt or retired key
    /// must not leave the deployment on defaults without a word.
    fn reject_unread(&self) -> Result<()> {
        let singletons = self.singletons.iter().map(|(n, t)| (format!("[{n}]"), t));
        let lists =
            (self.lists.iter()).flat_map(|(n, ts)| ts.iter().map(move |t| (format!("[[{n}]]"), t)));
        for (section, table) in singletons.chain(lists) {
            let read = table.read.borrow();
            if let Some(key) = table.values.keys().find(|k| !read.contains(*k)) {
                return Err(Error::Config(format!("unknown key {key:?} in {section}")));
            }
        }
        Ok(())
    }

    fn parse(text: &str) -> Result<Document> {
        let mut doc = Document::default();
        // Where keys of the current section go.
        enum Target {
            None,
            Singleton(String),
            ListEntry(String),
        }
        let mut target = Target::None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err =
                |what: &str| Error::Config(format!("config line {}: {what}: {raw:?}", lineno + 1));
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                let name = name.trim().to_string();
                doc.lists
                    .entry(name.clone())
                    .or_default()
                    .push(Table::default());
                target = Target::ListEntry(name);
            } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().to_string();
                doc.singletons.entry(name.clone()).or_default();
                target = Target::Singleton(name);
            } else if let Some((key, value)) = line.split_once('=') {
                let key = key.trim().to_string();
                let value = parse_value(value.trim()).ok_or_else(|| err("bad value"))?;
                let table = match &target {
                    Target::None => return Err(err("key before any section")),
                    Target::Singleton(name) => doc.singletons.get_mut(name).expect("created"),
                    Target::ListEntry(name) => doc
                        .lists
                        .get_mut(name)
                        .and_then(|l| l.last_mut())
                        .expect("created"),
                };
                table.values.insert(key, value);
            } else {
                return Err(err("expected section header or key = value"));
            }
        }
        Ok(doc)
    }
}

fn parse_value(raw: &str) -> Option<Value> {
    if let Some(s) = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Some(Value::Str(s.to_string()));
    }
    if let Some(inner) = raw.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Some(Value::List(Vec::new()));
        }
        let mut items = Vec::new();
        for part in inner.split(',') {
            items.push(part.trim().parse().ok()?);
        }
        return Some(Value::List(items));
    }
    raw.parse().ok().map(Value::Int)
}

/// Generates a localhost MRP-Store deployment document: `partitions`
/// partition rings of `replicas_per_partition` replicas each, a global
/// ring over all nodes, sequential ports from `base_port`. The document
/// round-trips through [`DeploymentConfig::parse`], so tests, examples
/// and `amcastd --generate` all exercise the real parser.
pub fn generate_localhost_mrpstore(
    partitions: u16,
    replicas_per_partition: u16,
    base_port: u16,
    wal_dir: Option<&str>,
) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    out.push_str("[deployment]\nservice = \"mrpstore\"\n");
    let _ = writeln!(out, "partitions = {partitions}");
    out.push_str("batch_max = 64\nbatch_delay_ms = 2\ncheckpoint_ms = 500\n");
    if let Some(dir) = wal_dir {
        let _ = writeln!(out, "wal_dir = \"{dir}\"");
    }
    let n = partitions * replicas_per_partition;
    let mut port = base_port;
    for id in 0..n {
        let _ = writeln!(out, "\n[[node]]\nid = {id}");
        let _ = writeln!(out, "peer_addr = \"127.0.0.1:{port}\"");
        let _ = writeln!(out, "client_addr = \"127.0.0.1:{}\"", port + 1);
        let _ = writeln!(out, "partition = {}", id / replicas_per_partition);
        port += 2;
    }
    let ids =
        |range: std::ops::Range<u16>| range.map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
    for p in 0..partitions {
        let members = ids(p * replicas_per_partition..(p + 1) * replicas_per_partition);
        let _ = writeln!(
            out,
            "\n[[ring]]\nid = {p}\nmembers = [{members}]\nacceptors = [{members}]"
        );
    }
    let all = ids(0..n);
    let _ = writeln!(
        out,
        "\n[[ring]]\nid = {partitions}\nmembers = [{all}]\nacceptors = [{all}]"
    );
    for p in 0..partitions {
        let replicas = ids(p * replicas_per_partition..(p + 1) * replicas_per_partition);
        let _ = writeln!(
            out,
            "\n[[partition]]\nid = {p}\nrings = [{p}, {partitions}]\nreplicas = [{replicas}]"
        );
    }
    out
}

/// Points a deployment document at an `amcoordd` ensemble: inserts
/// `coord = "a,b,c"` (and the session TTL) into its `[deployment]`
/// section. Used by tests and tools that generate a localhost document
/// first and decide on coordination separately.
pub fn with_coord(doc: &str, addrs: &[SocketAddr], session_ttl: Duration) -> String {
    let list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    doc.replacen(
        "[deployment]\n",
        &format!(
            "[deployment]\ncoord = \"{list}\"\nsession_ttl_ms = {}\n",
            session_ttl.as_millis()
        ),
        1,
    )
}

/// Switches a deployment document to range partitioning (`partitioning
/// = "range"`) — the scheme live key-range migration requires.
pub fn with_range_partitioning(doc: &str) -> String {
    doc.replacen(
        "[deployment]\n",
        "[deployment]\npartitioning = \"range\"\n",
        1,
    )
}

/// Gives a deployment document a geography: appends one `[[region]]`
/// section per `(name, nodes)` pair and sets the WAN keys in
/// `[deployment]`. In-process deployments of the resulting document
/// shape every peer link through `liverun::netem`.
pub fn with_geo(doc: &str, regions: &[(&str, &[u32])], delay_scale_pct: u64) -> String {
    use std::fmt::Write as _;

    let mut out = doc.replacen(
        "[deployment]\n",
        &format!(
            "[deployment]\nwan_profile = \"ec2-2014\"\nwan_delay_scale_pct = {delay_scale_pct}\n"
        ),
        1,
    );
    for (name, nodes) in regions {
        let ids = nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(out, "\n[[region]]\nname = \"{name}\"\nnodes = [{ids}]\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# A two-partition MRP-Store on localhost.
[deployment]
service = "mrpstore"
partitions = 2
batch_max = 32
batch_delay_ms = 3
checkpoint_ms = 500
wal_dir = "/tmp/amcast-test"

[[node]]
id = 0
peer_addr = "127.0.0.1:7400"
client_addr = "127.0.0.1:7401"
partition = 0

[[node]]
id = 1
peer_addr = "127.0.0.1:7402"
client_addr = "127.0.0.1:7403"
partition = 1

[[ring]]
id = 0
members = [0, 1]
acceptors = [0, 1]

[[ring]]
id = 2
members = [0, 1]
acceptors = [0]

[[partition]]
id = 0
rings = [0, 2]
replicas = [0]

[[partition]]
id = 1
rings = [2]
replicas = [1]
"#;

    #[test]
    fn parses_full_document() {
        let cfg = DeploymentConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.service, ServiceKind::MrpStore { partitions: 2 });
        assert_eq!(cfg.batch_max, 32);
        assert_eq!(cfg.batch_delay, Duration::from_millis(3));
        assert_eq!(cfg.checkpoint_interval, Some(Duration::from_millis(500)));
        assert_eq!(
            cfg.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/amcast-test"))
        );
        assert_eq!(cfg.nodes.len(), 2);
        assert_eq!(cfg.nodes[1].partition, Some(PartitionId::new(1)));
        assert_eq!(cfg.rings.len(), 2);
        assert_eq!(cfg.rings[1].acceptors, vec![NodeId::new(0)]);
        assert_eq!(cfg.partitions.len(), 2);
        assert_eq!(cfg.global_ring(), RingId::new(2));
        assert_eq!(
            cfg.member_of(NodeId::new(0)),
            vec![RingId::new(0), RingId::new(2)]
        );
        assert_eq!(cfg.subscribe_to(NodeId::new(1)), vec![RingId::new(2)]);
    }

    #[test]
    fn registry_mirrors_document() {
        let cfg = DeploymentConfig::parse(SAMPLE).unwrap();
        let registry = cfg.build_registry().unwrap();
        assert_eq!(registry.ring_ids(), vec![RingId::new(0), RingId::new(2)]);
        assert_eq!(
            registry.partition_of(NodeId::new(1)),
            Some(PartitionId::new(1))
        );
        assert!(mrpstore::Partitioning::load(&registry).is_some());
    }

    #[test]
    fn rejects_inconsistent_documents() {
        assert!(DeploymentConfig::parse("").is_err(), "empty");
        let unknown_member = r#"
[deployment]
service = "echo"
[[node]]
id = 0
peer_addr = "127.0.0.1:1"
client_addr = "127.0.0.1:2"
[[ring]]
id = 0
members = [0, 9]
acceptors = [0]
"#;
        assert!(DeploymentConfig::parse(unknown_member).is_err());
        assert!(DeploymentConfig::parse("junk line\n").is_err());
        // A duplicate id would silently partition the deployment.
        let base = generate_localhost_mrpstore(2, 1, 7400, None);
        for kind in ["node", "ring", "partition"] {
            let [from, to] = [1, 0].map(|id| format!("[[{kind}]]\nid = {id}\n"));
            let doc = base.replacen(&from, &to, 1);
            assert_ne!(doc, base);
            let err = DeploymentConfig::parse(&doc).unwrap_err().to_string();
            assert!(err.contains(&format!("duplicate {kind} id 0")), "{err}");
        }
    }

    #[test]
    fn unknown_keys_are_errors_naming_key_and_section() {
        let base = generate_localhost_mrpstore(1, 1, 7400, None);
        // The retired executor-shard count and a misspelt
        // `batch_delay_ms`: neither may run on defaults.
        for key in [["executor", "shards"].join("_"), "batch_delay".into()] {
            let doc = base.replacen("[deployment]\n", &format!("[deployment]\n{key} = 4\n"), 1);
            let err = DeploymentConfig::parse(&doc).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown key {key:?} in [deployment]")),
                "{err}"
            );
        }
        let doc = base.replacen("[[node]]\nid = 0\n", "[[node]]\nid = 0\nregion = 1\n", 1);
        let err = DeploymentConfig::parse(&doc).unwrap_err().to_string();
        assert!(err.contains("unknown key \"region\" in [[node]]"), "{err}");
        // `[[link]]` means something only beside `[[region]]`s.
        let doc = format!("{base}\n[[link]]\nfrom = \"a\"\nto = \"b\"\nrtt_ms = 10\n");
        assert!(DeploymentConfig::parse(&doc).is_err());
    }

    #[test]
    fn every_generated_document_parses() {
        let addrs = ["127.0.0.1:7710".parse().unwrap()];
        for base in [
            generate_localhost_mrpstore(1, 1, 7400, None),
            generate_localhost_mrpstore(3, 2, 7400, Some("/tmp/w")),
        ] {
            for doc in [
                with_coord(&base, &addrs, Duration::from_millis(900)),
                with_range_partitioning(&base),
                with_geo(&base, &[("eu-west-1", &[0])], 10),
                base,
            ] {
                DeploymentConfig::parse(&doc).unwrap_or_else(|e| panic!("{e}:\n{doc}"));
            }
        }
    }

    #[test]
    fn coord_section_round_trips() {
        let plain = DeploymentConfig::parse(SAMPLE).unwrap();
        assert!(plain.coord_addrs.is_empty());
        assert_eq!(plain.session_ttl, Duration::from_millis(3000));

        let addrs: Vec<std::net::SocketAddr> = vec![
            "127.0.0.1:7710".parse().unwrap(),
            "127.0.0.1:7711".parse().unwrap(),
        ];
        let doc = with_coord(SAMPLE, &addrs, Duration::from_millis(1500));
        let cfg = DeploymentConfig::parse(&doc).unwrap();
        assert_eq!(cfg.coord_addrs, addrs);
        assert_eq!(cfg.session_ttl, Duration::from_millis(1500));

        assert!(DeploymentConfig::parse(&SAMPLE.replacen(
            "[deployment]\n",
            "[deployment]\ncoord = \"junk\"\n",
            1
        ))
        .is_err());
    }

    #[test]
    fn seeding_is_idempotent() {
        let cfg = DeploymentConfig::parse(SAMPLE).unwrap();
        let registry = Registry::new();
        cfg.seed_registry(&registry).unwrap();
        cfg.seed_registry(&registry).unwrap(); // concurrent-bootstrap shape
        assert_eq!(registry.ring_ids(), vec![RingId::new(0), RingId::new(2)]);
        assert!(mrpstore::Partitioning::load(&registry).is_some());
    }

    #[test]
    fn geo_sections_resolve_profile_links() {
        let base = generate_localhost_mrpstore(3, 2, 7500, None);
        let doc = with_geo(
            &base,
            &[
                ("eu-west-1", &[0, 1]),
                ("us-east-1", &[2, 3]),
                ("us-west-2", &[4, 5]),
            ],
            100,
        );
        let cfg = DeploymentConfig::parse(&doc).unwrap();
        let geo = cfg.geo.as_ref().unwrap();
        assert_eq!(geo.profile, "ec2-2014");
        assert_eq!(geo.region_of(NodeId::new(2)), Some("us-east-1"));
        assert_eq!(geo.region_of(NodeId::new(7)), None);
        // eu-west-1 → us-east-1 is the paper's 80 ms RTT, split one way.
        let link = geo.policy("eu-west-1", "us-east-1");
        assert_eq!(link.delay, Duration::from_millis(40));
        assert!(link.bytes_per_sec > 0);
        // Intra-region stays sub-millisecond.
        let local = geo.policy("us-west-2", "us-west-2");
        assert!(local.delay < Duration::from_millis(1));
        // Widest declared pair: eu-west-1 ↔ us-west-2 at 140 ms RTT.
        assert_eq!(geo.max_one_way(), Duration::from_millis(70));
    }

    #[test]
    fn geo_delay_scale_and_link_overrides_apply() {
        let base = generate_localhost_mrpstore(1, 2, 7500, None);
        let mut doc = with_geo(&base, &[("eu-west-1", &[0]), ("us-east-1", &[1])], 50);
        doc.push_str("\n[[link]]\nfrom = \"eu-west-1\"\nto = \"us-east-1\"\nrtt_ms = 200\nmbps = 100\nloss_pct = 3\n");
        let cfg = DeploymentConfig::parse(&doc).unwrap();
        let geo = cfg.geo.as_ref().unwrap();
        // Override RTT 200 ms → 100 ms one-way, then scaled to 50%.
        let link = geo.policy("eu-west-1", "us-east-1");
        assert_eq!(link.delay, Duration::from_millis(50));
        assert_eq!(link.bytes_per_sec, 100_000_000 / 8);
        assert_eq!(link.loss_pct, 3);
        // Symmetric: the reverse direction got the same override.
        assert_eq!(geo.policy("us-east-1", "eu-west-1"), link);
    }

    #[test]
    fn geo_rejects_bad_documents() {
        let base = generate_localhost_mrpstore(1, 2, 7500, None);
        // Unknown node in a region.
        let doc = with_geo(&base, &[("eu-west-1", &[0, 9])], 100);
        assert!(DeploymentConfig::parse(&doc).is_err());
        // Node in two regions.
        let doc = with_geo(&base, &[("eu-west-1", &[0]), ("us-east-1", &[0])], 100);
        assert!(DeploymentConfig::parse(&doc).is_err());
        // Unknown profile.
        let doc = with_geo(&base, &[("eu-west-1", &[0])], 100).replacen(
            "wan_profile = \"ec2-2014\"",
            "wan_profile = \"atlantis-1\"",
            1,
        );
        assert!(DeploymentConfig::parse(&doc).is_err());
        // Link referencing an undeclared region.
        let mut doc = with_geo(&base, &[("eu-west-1", &[0])], 100);
        doc.push_str("\n[[link]]\nfrom = \"eu-west-1\"\nto = \"nowhere\"\nrtt_ms = 10\n");
        assert!(DeploymentConfig::parse(&doc).is_err());
    }

    #[test]
    fn generated_document_parses_and_is_consistent() {
        let text = generate_localhost_mrpstore(2, 2, 7400, Some("/tmp/w"));
        let cfg = DeploymentConfig::parse(&text).unwrap();
        assert_eq!(cfg.nodes.len(), 4);
        assert_eq!(cfg.rings.len(), 3);
        assert_eq!(cfg.partitions.len(), 2);
        assert_eq!(cfg.global_ring(), RingId::new(2));
        // Every node subscribes to its partition ring plus the global ring.
        for node in &cfg.nodes {
            let subs = cfg.subscribe_to(node.id);
            assert_eq!(subs.len(), 2);
            assert!(subs.contains(&cfg.global_ring()));
        }
        cfg.build_registry().unwrap();
    }
}
