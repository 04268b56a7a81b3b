//! Userspace per-link network shaping for live deployments.
//!
//! A geo deployment (one with `[[region]]` sections, see
//! [`crate::config::GeoSpec`]) does not let its nodes talk to each other
//! directly: [`crate::Deployment`] interposes one tiny TCP relay on every
//! *directed* peer link (and, on demand, on client links), so a 6-node
//! loopback process experiences the paper's WAN — per-link one-way
//! delay, proportional jitter, bandwidth caps, probabilistic
//! connection-killing loss and directional region partitions — while
//! the nodes themselves keep speaking plain TCP to what they believe
//! are their peers.
//!
//! The mechanics per relayed connection: a reader thread pulls chunks
//! off the inbound socket, consults the *current* link policy (policies
//! are shared state, mutable at runtime through [`NetemControl`]), asks
//! the sans-IO [`LinkShaper`] for a release time, and queues the chunk;
//! a writer thread sleeps until each chunk's release and forwards it.
//! Release times are monotone per link, so TCP byte order survives
//! shaping. Loss and partitions surface exactly the way a WAN surfaces
//! them: the connection dies and the sender's link re-dials —
//! against a blocked link the reconnect is cut at accept time.
//!
//! Shaping is observable from the outside (and asserted on in tests):
//! each relayed direction counts into the *sending* node's stats
//! registry — `netem_delay_ms` (cumulative injected delay),
//! `netem_dropped` (loss kills and partition cuts) and
//! `netem_throttled_bytes` (bytes that queued behind the bandwidth
//! cap), plus `netem_to_<region>_*` per-destination variants — all
//! visible via `amcast-cli stats`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::error::{Error, Result};
use common::ids::{NodeId, SessionId};
use common::obs::{Counter, Obs};
use common::transport::{LinkPolicy, LinkShaper, ShapeDecision};
use common::wire::coord::{CoordEvent, CoordOk, CoordOp};
use coord::{Coord, Registry};
use crossbeam::channel::Receiver;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::config::DeploymentConfig;
use crate::net::Listener;

/// Chunk granularity of the relays: also the quantum the bandwidth
/// serialization clock advances by (16 KiB at 1 Gbps ≈ 128 µs).
const CHUNK: usize = 16 * 1024;

/// Shared mutable world state: placements, live policies, stats sinks.
struct Shared {
    region_of: HashMap<NodeId, String>,
    /// Where the coordination service lives (`coord_region`).
    coord_region: String,
    policies: Mutex<HashMap<(String, String), LinkPolicy>>,
    obs: Mutex<HashMap<NodeId, Obs>>,
    seed: AtomicU64,
}

impl Shared {
    fn policy(&self, from: &str, to: &str) -> LinkPolicy {
        self.policies
            .lock()
            .expect("netem lock")
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or_else(LinkPolicy::unshaped)
    }

    fn region(&self, node: NodeId) -> String {
        self.region_of.get(&node).cloned().unwrap_or_default()
    }

    fn obs_of(&self, node: NodeId) -> Obs {
        self.obs
            .lock()
            .expect("netem lock")
            .get(&node)
            .cloned()
            .unwrap_or_else(|| Obs::for_node(node.raw()))
    }

    fn next_seed(&self) -> u64 {
        self.seed.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed)
    }
}

/// Runtime control over a deployment's link policies — how scenarios
/// degrade and heal the WAN mid-run. Cheap to clone; all clones steer
/// the same deployment.
#[derive(Clone)]
pub struct NetemControl {
    shared: Arc<Shared>,
}

impl NetemControl {
    /// The current policy of the directed link `from` → `to`.
    pub fn policy(&self, from: &str, to: &str) -> LinkPolicy {
        self.shared.policy(from, to)
    }

    /// Replaces the policy of the directed link `from` → `to`. Existing
    /// connections pick the change up on their next chunk.
    pub fn set_link(&self, from: &str, to: &str, policy: LinkPolicy) {
        self.shared
            .policies
            .lock()
            .expect("netem lock")
            .insert((from.to_string(), to.to_string()), policy);
    }

    /// Blocks or unblocks the directed link `from` → `to` (asymmetric
    /// partitions: a region that can send but not hear, or vice versa).
    pub fn set_blocked(&self, from: &str, to: &str, blocked: bool) {
        let mut map = self.shared.policies.lock().expect("netem lock");
        let entry = map
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(LinkPolicy::unshaped);
        entry.blocked = blocked;
    }

    /// Partitions `region` off: both directions of every link between it
    /// and any *other* region block. Intra-region traffic keeps flowing.
    pub fn partition(&self, region: &str) {
        self.set_region_blocked(region, true);
    }

    /// Heals a [`NetemControl::partition`]: unblocks both directions of
    /// every link between `region` and the rest of the world.
    pub fn heal(&self, region: &str) {
        self.set_region_blocked(region, false);
    }

    fn set_region_blocked(&self, region: &str, blocked: bool) {
        let mut map = self.shared.policies.lock().expect("netem lock");
        for ((from, to), policy) in map.iter_mut() {
            if (from == region) != (to == region) {
                policy.blocked = blocked;
            }
        }
    }

    /// The region `node` was placed in ("" when unplaced).
    pub fn region_of(&self, node: NodeId) -> String {
        self.shared.region(node)
    }
}

/// The coordination service as seen from one region of the shaped WAN.
///
/// The paper's deployments reach their ZooKeeper ensemble over the same
/// wide-area network the rings use — a region cut off from the ensemble
/// loses failure reporting, configuration reads and session keep-alives
/// along with everything else. An in-process [`coord::Registry`] would
/// quietly bypass the fabric, letting a minority-partitioned replica
/// keep evicting healthy majority members via `report_failure` until the
/// rings wedge (both sides of a partition accusing each other is exactly
/// the split-brain the ensemble placement is meant to arbitrate). This
/// wrapper closes that hole: every call checks the current link state
/// between the caller's region and [`GeoSpec::coord_region`]
/// (`crate::config::GeoSpec`) and fails while either direction is
/// blocked. Watch events stay connected — they model the client library
/// draining its backlog after the partition heals, and a stale config
/// delivered late is harmless (epochs fence it).
struct ShapedCoord {
    inner: Arc<dyn Coord>,
    shared: Arc<Shared>,
    region: String,
}

impl std::fmt::Debug for ShapedCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapedCoord")
            .field("region", &self.region)
            .field("coord_region", &self.shared.coord_region)
            .finish_non_exhaustive()
    }
}

impl Coord for ShapedCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        let coord = &self.shared.coord_region;
        if self.shared.policy(&self.region, coord).blocked
            || self.shared.policy(coord, &self.region).blocked
        {
            // What a real ensemble looks like across a cut WAN: the
            // request never completes.
            return Err(Error::Timeout("coordination service (region partitioned)"));
        }
        self.inner.call(op)
    }

    fn watch(&self) -> Receiver<CoordEvent> {
        self.inner.watch()
    }

    fn session(&self) -> Option<SessionId> {
        self.inner.session()
    }
}

/// Where a relayed connection originates: a deployment node, or a
/// client observing the deployment from inside some region.
enum LinkEnd {
    Node(NodeId),
    Client(String),
}

/// The live shaping fabric of one deployment: one relay listener per
/// directed peer link plus lazily created client-side relays.
pub struct Netem {
    shared: Arc<Shared>,
    peer_proxies: HashMap<(NodeId, NodeId), SocketAddr>,
    client_proxies: Mutex<HashMap<(String, NodeId), SocketAddr>>,
    client_targets: HashMap<NodeId, SocketAddr>,
    listeners: Mutex<Vec<Listener>>,
}

impl Netem {
    /// Builds the fabric for `config` (which must carry a geography):
    /// binds one ephemeral relay listener per directed pair of placed
    /// nodes. Nodes outside every region keep their direct links.
    ///
    /// # Errors
    ///
    /// Fails when `config` has no `[[region]]` sections or a relay
    /// listener cannot bind.
    pub fn start(config: &DeploymentConfig) -> Result<Netem> {
        let geo = config
            .geo
            .as_ref()
            .ok_or_else(|| Error::Config("netem needs [[region]] sections".into()))?;
        let region_of: HashMap<NodeId, String> = config
            .nodes
            .iter()
            .filter_map(|n| geo.region_of(n.id).map(|r| (n.id, r.to_string())))
            .collect();
        let policies = geo
            .links()
            .map(|(a, b, p)| ((a.to_string(), b.to_string()), p))
            .collect();
        let shared = Arc::new(Shared {
            region_of,
            coord_region: geo.coord_region.clone(),
            policies: Mutex::new(policies),
            obs: Mutex::new(HashMap::new()),
            seed: AtomicU64::new(0x5eed_ca57),
        });
        let mut peer_proxies = HashMap::new();
        let mut listeners = Vec::new();
        for from in &config.nodes {
            for to in &config.nodes {
                if from.id == to.id
                    || !shared.region_of.contains_key(&from.id)
                    || !shared.region_of.contains_key(&to.id)
                {
                    continue;
                }
                let addr = Self::spawn_proxy(
                    &shared,
                    &mut listeners,
                    LinkEnd::Node(from.id),
                    to.id,
                    to.peer_addr,
                )?;
                peer_proxies.insert((from.id, to.id), addr);
            }
        }
        Ok(Netem {
            shared,
            peer_proxies,
            client_proxies: Mutex::new(HashMap::new()),
            client_targets: config.nodes.iter().map(|n| (n.id, n.client_addr)).collect(),
            listeners: Mutex::new(listeners),
        })
    }

    fn spawn_proxy(
        shared: &Arc<Shared>,
        listeners: &mut Vec<Listener>,
        src: LinkEnd,
        dst: NodeId,
        target: SocketAddr,
    ) -> Result<SocketAddr> {
        let name = match &src {
            LinkEnd::Node(id) => format!("netem-{}-{}", id.raw(), dst.raw()),
            LinkEnd::Client(region) => format!("netem-client-{region}-{}", dst.raw()),
        };
        // The sender's first-ever connect is special: before the link has
        // ever worked the relay dials the real target with patient
        // retries (deployment still launching), after that a dead target
        // cuts the connection immediately — mirroring the sender's own
        // hold-then-drop reconnect semantics of `net::Net::send_to`.
        let ever = Arc::new(AtomicBool::new(false));
        let src = Arc::new(src);
        let shared2 = Arc::clone(shared);
        let any_port = SocketAddr::from(([127, 0, 0, 1], 0));
        let handle = Listener::bind(any_port, name, move |conn| {
            let shared = Arc::clone(&shared2);
            let ever = Arc::clone(&ever);
            let src = Arc::clone(&src);
            std::thread::Builder::new()
                .name("netem-relay".into())
                .spawn(move || relay(conn, target, shared, &src, dst, &ever))
                .expect("spawn netem relay");
        })
        .map_err(|e| Error::Config(format!("netem relay bind: {e}")))?;
        let addr = handle.addr();
        listeners.push(handle);
        Ok(addr)
    }

    /// A runtime control handle for this fabric.
    pub fn control(&self) -> NetemControl {
        NetemControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Registers `node`'s stats registry: its relayed links count into
    /// these counters. Called by the deployment as it starts each node.
    pub fn attach_obs(&self, node: NodeId, obs: Obs) {
        self.shared
            .obs
            .lock()
            .expect("netem lock")
            .insert(node, obs);
    }

    /// The relay address node `from` should dial instead of `to`'s real
    /// peer address (`None` when the pair is unshaped).
    pub fn peer_addr(&self, from: NodeId, to: NodeId) -> Option<SocketAddr> {
        self.peer_proxies.get(&(from, to)).copied()
    }

    /// The relay address a client *in* `from_region` should use to reach
    /// `node`'s client listener; created on first use. Both directions
    /// of the client link are shaped and counted against `node`.
    ///
    /// # Errors
    ///
    /// Fails for unknown nodes or when the relay cannot bind.
    pub fn client_addr(&self, from_region: &str, node: NodeId) -> Result<SocketAddr> {
        let key = (from_region.to_string(), node);
        if let Some(addr) = self.client_proxies.lock().expect("netem lock").get(&key) {
            return Ok(*addr);
        }
        let target = *self
            .client_targets
            .get(&node)
            .ok_or_else(|| Error::Config(format!("netem: unknown node {node}")))?;
        let mut listeners = self.listeners.lock().expect("netem lock");
        let addr = Self::spawn_proxy(
            &self.shared,
            &mut listeners,
            LinkEnd::Client(from_region.to_string()),
            node,
            target,
        )?;
        self.client_proxies
            .lock()
            .expect("netem lock")
            .insert(key, addr);
        Ok(addr)
    }

    /// Wraps `registry` so that `node` reaches the coordination service
    /// through the shaped WAN: calls fail while the node's region is
    /// partitioned from `coord_region` (see `ShapedCoord`). Unplaced
    /// nodes keep the registry as-is.
    pub fn shaped_registry(&self, node: NodeId, registry: &Registry) -> Registry {
        let region = self.shared.region(node);
        if region.is_empty() {
            return registry.clone();
        }
        Registry::from_backend(Arc::new(ShapedCoord {
            inner: Arc::clone(registry.backend()),
            shared: Arc::clone(&self.shared),
            region,
        }))
    }

    /// Stops every relay listener. In-flight relay threads die with
    /// their connections.
    pub fn stop(&self) {
        for handle in self.listeners.lock().expect("netem lock").drain(..) {
            handle.stop();
        }
    }
}

/// Per-direction stats sinks: the aggregate triple plus the
/// per-destination-region variants, all in the sending side's registry.
#[derive(Clone)]
struct PipeCounters {
    delay_ms: Counter,
    dropped: Counter,
    throttled: Counter,
    to_delay_ms: Counter,
    to_dropped: Counter,
    to_throttled: Counter,
}

impl PipeCounters {
    fn new(obs: &Obs, to_region: &str) -> PipeCounters {
        let slug = to_region.replace('-', "_");
        PipeCounters {
            delay_ms: obs.counter("netem_delay_ms"),
            dropped: obs.counter("netem_dropped"),
            throttled: obs.counter("netem_throttled_bytes"),
            to_delay_ms: obs.counter(&format!("netem_to_{slug}_delay_ms")),
            to_dropped: obs.counter(&format!("netem_to_{slug}_dropped")),
            to_throttled: obs.counter(&format!("netem_to_{slug}_throttled_bytes")),
        }
    }

    fn note(&self, d: &ShapeDecision, bytes: usize) {
        let ms = d.delay.as_millis() as u64;
        self.delay_ms.add(ms);
        self.to_delay_ms.add(ms);
        if d.throttled {
            self.throttled.add(bytes as u64);
            self.to_throttled.add(bytes as u64);
        }
    }

    fn drop_one(&self) {
        self.dropped.inc();
        self.to_dropped.inc();
    }
}

/// Serves one accepted connection of the `src` → `dst` link: dials the
/// real target, then shapes both directions until either side closes.
fn relay(
    inbound: TcpStream,
    target: SocketAddr,
    shared: Arc<Shared>,
    src: &LinkEnd,
    dst: NodeId,
    ever: &AtomicBool,
) {
    let dst_region = shared.region(dst);
    let (src_region, fwd_obs) = match src {
        LinkEnd::Node(id) => (shared.region(*id), shared.obs_of(*id)),
        // Client links have no registry of their own; both directions
        // count against the server node they shape.
        LinkEnd::Client(region) => (region.clone(), shared.obs_of(dst)),
    };
    let fwd = PipeCounters::new(&fwd_obs, &dst_region);
    let outbound = loop {
        if shared.policy(&src_region, &dst_region).blocked {
            // Partitioned: cut the reconnect attempt at the door.
            fwd.drop_one();
            let _ = inbound.shutdown(Shutdown::Both);
            return;
        }
        match TcpStream::connect_timeout(&target, Duration::from_millis(250)) {
            Ok(s) => break s,
            Err(_) if !ever.load(Ordering::SeqCst) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                // The link worked before, so the target is down (killed
                // node): fail fast and let the sender back off.
                let _ = inbound.shutdown(Shutdown::Both);
                return;
            }
        }
    };
    ever.store(true, Ordering::SeqCst);
    let _ = inbound.set_nodelay(true);
    let _ = outbound.set_nodelay(true);
    let rev = PipeCounters::new(&shared.obs_of(dst), &src_region);
    let (Ok(in_rd), Ok(out_rd)) = (inbound.try_clone(), outbound.try_clone()) else {
        return;
    };
    shape_pipe(
        in_rd,
        outbound,
        Arc::clone(&shared),
        src_region.clone(),
        dst_region.clone(),
        fwd,
        shared.next_seed(),
    );
    shape_pipe(
        out_rd,
        inbound,
        Arc::clone(&shared),
        dst_region,
        src_region,
        rev,
        shared.next_seed(),
    );
}

/// Shapes one direction of a relayed connection: a reader thread stamps
/// each chunk with its release time, a writer thread forwards it then.
/// Loss and partition cuts close the sockets; the peer direction's
/// threads notice through the resulting EOF/write failures.
fn shape_pipe(
    mut rd: TcpStream,
    mut wr: TcpStream,
    shared: Arc<Shared>,
    from: String,
    to: String,
    counters: PipeCounters,
    seed: u64,
) {
    let (tx, rx) = crossbeam::channel::bounded::<(bytes::Bytes, Instant)>(1024);
    std::thread::Builder::new()
        .name("netem-shape-rd".into())
        .spawn(move || {
            let mut shaper = LinkShaper::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut chunk = vec![0u8; CHUNK];
            loop {
                let n = match rd.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                let policy = shared.policy(&from, &to);
                if policy.blocked
                    || (policy.loss_pct > 0 && rng.random_range(0u32..100) < policy.loss_pct)
                {
                    // Kill the connection the way a WAN would: the
                    // sender sees a reset and reconnects (into a closed
                    // door while the link stays blocked).
                    counters.drop_one();
                    break;
                }
                let d = shaper.shape(Instant::now(), n, &policy, rng.random::<f64>());
                counters.note(&d, n);
                if tx
                    .send((bytes::Bytes::copy_from_slice(&chunk[..n]), d.release))
                    .is_err()
                {
                    break;
                }
            }
            let _ = rd.shutdown(Shutdown::Both);
            // Dropping tx lets the writer drain what was already "on the
            // wire", then close.
        })
        .expect("spawn netem reader");
    std::thread::Builder::new()
        .name("netem-shape-wr".into())
        .spawn(move || {
            while let Ok((buf, release)) = rx.recv() {
                let now = Instant::now();
                if release > now {
                    std::thread::sleep(release - now);
                }
                if wr.write_all(&buf).is_err() {
                    break;
                }
            }
            let _ = wr.shutdown(Shutdown::Both);
        })
        .expect("spawn netem writer");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{generate_localhost_mrpstore, with_geo};
    use std::net::TcpListener;

    /// A two-node world with custom region names 40 ms apart; node 1's
    /// peer listener is played by the test itself.
    fn test_netem() -> (Netem, DeploymentConfig) {
        let base_port = crate::config::free_port_block(4).unwrap();
        let base = generate_localhost_mrpstore(1, 2, base_port, None);
        let mut doc = with_geo(&base, &[("left", &[0]), ("right", &[1])], 100);
        doc.push_str("\n[[link]]\nfrom = \"left\"\nto = \"right\"\nrtt_ms = 40\n");
        let config = DeploymentConfig::parse(&doc).unwrap();
        let netem = Netem::start(&config).unwrap();
        (netem, config)
    }

    #[test]
    fn relays_shape_and_count_delay() {
        let (netem, config) = test_netem();
        let obs = Obs::for_node(0);
        netem.attach_obs(NodeId::new(0), obs.clone());
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        let proxy = netem.peer_addr(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_ne!(proxy, config.nodes[1].peer_addr);

        let mut sender = TcpStream::connect(proxy).unwrap();
        let started = Instant::now();
        sender.write_all(b"ping").unwrap();
        let (mut accepted, _) = target.accept().unwrap();
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(&buf, b"ping");
        // One-way delay of the 40 ms RTT link, modulo jitter.
        assert!(
            elapsed >= Duration::from_millis(20),
            "arrived in {elapsed:?}"
        );
        let snap = obs.snapshot();
        assert!(snap.counter("netem_delay_ms").unwrap_or(0) >= 20);
        assert!(snap.counter("netem_to_right_delay_ms").unwrap_or(0) >= 20);

        // The reverse direction counts against node 1 (attached late —
        // relays resolve the registry per connection).
        netem.stop();
    }

    #[test]
    fn partition_cuts_and_heal_restores() {
        let (netem, config) = test_netem();
        let obs = Obs::for_node(0);
        netem.attach_obs(NodeId::new(0), obs.clone());
        let target = TcpListener::bind(config.nodes[1].peer_addr).unwrap();
        let proxy = netem.peer_addr(NodeId::new(0), NodeId::new(1)).unwrap();
        let control = netem.control();

        // Establish the link once so the relay enters fail-fast mode.
        let mut sender = TcpStream::connect(proxy).unwrap();
        sender.write_all(b"hi").unwrap();
        let (mut accepted, _) = target.accept().unwrap();
        let mut buf = [0u8; 2];
        accepted.read_exact(&mut buf).unwrap();

        control.partition("right");
        assert!(control.policy("left", "right").blocked);
        assert!(control.policy("right", "left").blocked);
        // The live connection is cut on the next chunk...
        let _ = sender.write_all(b"xx");
        let mut probe = [0u8; 1];
        assert_eq!(accepted.read(&mut probe).unwrap_or(0), 0, "cut to EOF");
        // ...and reconnects die at the door.
        let mut again = TcpStream::connect(proxy).unwrap();
        let _ = again.write_all(b"yy");
        assert_eq!(again.read(&mut probe).unwrap_or(0), 0);

        control.heal("right");
        assert!(!control.policy("left", "right").blocked);
        let mut sender = TcpStream::connect(proxy).unwrap();
        sender.write_all(b"ok").unwrap();
        let (mut accepted, _) = target.accept().unwrap();
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");

        let snap = obs.snapshot();
        assert!(snap.counter("netem_dropped").unwrap_or(0) >= 1);
        netem.stop();
    }

    /// A partitioned region loses the coordination service along with
    /// its peer links — otherwise a minority replica keeps evicting
    /// healthy members via an out-of-band `report_failure` and the
    /// mutual-accusation race can hand a ring to the partitioned side
    /// (both sides accusing each other until one ends up sole member).
    #[test]
    fn partition_cuts_coordination_access() {
        let (netem, config) = test_netem();
        let control = netem.control();
        let registry = Registry::new();
        let members = vec![NodeId::new(0), NodeId::new(1)];
        let cfg =
            coord::RingConfig::new(common::ids::RingId::new(0), members.clone(), members).unwrap();
        registry.register_ring(cfg).unwrap();

        // coord_region defaults to the first declared region ("left").
        assert_eq!(config.geo.as_ref().unwrap().coord_region, "left");
        let left = netem.shaped_registry(NodeId::new(0), &registry);
        let right = netem.shaped_registry(NodeId::new(1), &registry);
        assert!(left.ring(common::ids::RingId::new(0)).is_ok());
        assert!(right.ring(common::ids::RingId::new(0)).is_ok());

        control.partition("right");
        // The cut-off region can neither read config nor evict anyone;
        // the coordination-side region keeps full access.
        assert!(right.ring(common::ids::RingId::new(0)).is_err());
        assert!(right
            .report_failure(
                common::ids::RingId::new(0),
                NodeId::new(0),
                common::ids::Epoch::new(1),
            )
            .is_err());
        assert!(left.ring(common::ids::RingId::new(0)).is_ok());

        control.heal("right");
        assert!(right.ring(common::ids::RingId::new(0)).is_ok());
        netem.stop();
    }
}
