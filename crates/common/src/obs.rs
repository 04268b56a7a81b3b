//! Per-node observability: a metrics registry and the stats-plane
//! snapshot it exports.
//!
//! Every live node (an `amcastd` replica or an `amcoordd` coordination
//! replica) owns one [`Obs`] registry. Handles ([`Counter`], [`Gauge`],
//! [`Hist`]) are cheap `Arc`s over relaxed atomics: hot paths grab them
//! once at setup and record without any map lookup or lock. This fixes
//! the attribution problem of the old process-global wire counters —
//! in-process deployments host several nodes per process, and a global
//! counter could not say *which* node moved.
//!
//! Histograms reuse the log-bucketed [`Histogram`] layout behind sharded
//! relaxed-atomic bucket arrays, so concurrent recorders (the node loop,
//! executor shards, the stats plane's readers) never contend on a lock.
//!
//! [`ObsSnapshot`] is the wire-encodable point-in-time copy the stats
//! plane ships to `amcast-cli stats`; it renders to a Prometheus-style
//! text exposition via [`ObsSnapshot::to_prometheus`].
//!
//! # Stage tracing
//!
//! The registry also owns the trace-sampling knob: 1-in-N client
//! commands get stamped with a wall-clock origin ([`now_nanos`]) carried
//! in [`crate::value::Envelope::trace`]. Each pipeline stage records
//! `now - origin` into a per-stage histogram, so the quantiles read as
//! *cumulative latency since the command entered the node*. Wall-clock
//! (not a process-local epoch) keeps the stamps comparable across
//! processes of one deployment. With sampling off ([`Obs::trace_stamp`]
//! returning 0 for every command), the hot path pays one relaxed load.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use bytes::{Bytes, BytesMut};

use crate::error::WireError;
use crate::hist::Histogram;
use crate::wire::{get_varint, get_varint_as, put_varint, Wire};
use crate::wire_frame;

/// Wall-clock nanoseconds since the UNIX epoch.
///
/// Trace stamps must be comparable *across processes* of one deployment,
/// so the per-process monotonic epoch used elsewhere in the live runtime
/// will not do. Clock skew between machines shows up as stage-latency
/// error — acceptable for a breakdown view, as in the paper's own
/// cross-host latency decomposition.
pub fn now_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// A monotonically increasing event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Sets the absolute value — for seeding a counter from a recovered
    /// cursor after restart-in-place, so monotonic totals survive the
    /// process.
    pub fn seed(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous level (queue depth, window occupancy). A restart
/// starts from zero: a restarted node builds a fresh registry
/// ([`Obs::for_node`]), so no level recorded before the crash survives.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Adjusts the level by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Shards per concurrent histogram. Recording threads spread across
/// shards by a thread-local index; snapshots sum all shards. A handful
/// suffices — per node, only a few threads record concurrently.
const HIST_SHARDS: usize = 4;

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Relaxed) % HIST_SHARDS;
    }
    SHARD.with(|s| *s)
}

struct HistShard {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            counts: (0..Histogram::BUCKET_COUNT)
                .map(|_| AtomicU64::new(0))
                .collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

struct HistInner {
    shards: [HistShard; HIST_SHARDS],
    min: AtomicU64,
    max: AtomicU64,
}

/// A concurrent log-bucketed histogram (same buckets as [`Histogram`])
/// recorded with relaxed atomics across `HIST_SHARDS` shards.
#[derive(Clone)]
pub struct Hist(Arc<HistInner>);

impl Default for Hist {
    fn default() -> Self {
        Hist(Arc::new(HistInner {
            shards: std::array::from_fn(|_| HistShard::new()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Hist {
    /// Records one sample (by convention: nanoseconds).
    pub fn record(&self, v: u64) {
        let shard = &self.0.shards[shard_index()];
        shard.counts[Histogram::bucket_of(v)].fetch_add(1, Relaxed);
        shard.total.fetch_add(1, Relaxed);
        shard.sum.fetch_add(v, Relaxed);
        self.0.min.fetch_min(v, Relaxed);
        self.0.max.fetch_max(v, Relaxed);
    }

    /// Records `now - origin` for a trace-stamped command; a zero stamp
    /// (unsampled) records nothing. This is the per-stage hot-path call.
    pub fn record_since(&self, origin_nanos: u64) {
        if origin_nanos != 0 {
            self.record(now_nanos().saturating_sub(origin_nanos));
        }
    }

    /// Sums the shards into a point-in-time [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut counts = vec![0u64; Histogram::BUCKET_COUNT];
        let mut sum = 0u128;
        for shard in &self.0.shards {
            for (into, c) in counts.iter_mut().zip(shard.counts.iter()) {
                *into += c.load(Relaxed);
            }
            sum += u128::from(shard.sum.load(Relaxed));
        }
        Histogram::from_raw(
            &counts,
            sum,
            self.0.min.load(Relaxed),
            self.0.max.load(Relaxed),
        )
    }
}

impl fmt::Debug for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

#[derive(Default)]
struct ObsInner {
    node: AtomicU64,
    trace_every: AtomicU64,
    trace_seq: AtomicU64,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Hist>>,
}

/// One node's metrics registry. Cloning shares the registry (`Arc`), so
/// the node loop, its transports and its client readers all record into
/// the same set; distinct nodes get distinct registries.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Obs {
    /// A registry attributed to node `node`.
    pub fn for_node(node: u32) -> Obs {
        let obs = Obs::default();
        obs.inner.node.store(u64::from(node), Relaxed);
        obs
    }

    /// The owning node's id.
    pub fn node(&self) -> u32 {
        self.inner.node.load(Relaxed) as u32
    }

    /// The counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("obs lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("obs lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, creating it empty on first use.
    pub fn hist(&self, name: &str) -> Hist {
        let mut map = self.inner.hists.lock().expect("obs lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Sets the stage-trace sampling rate: stamp one in `n` commands
    /// (`0` disables tracing entirely).
    pub fn set_trace_every(&self, n: u64) {
        self.inner.trace_every.store(n, Relaxed);
    }

    /// True when stage tracing is on — stages may then pay the (small)
    /// cost of looking for trace stamps in decided payloads.
    pub fn tracing(&self) -> bool {
        self.inner.trace_every.load(Relaxed) != 0
    }

    /// Origin stamp for the next command: wall-clock nanos for one in N
    /// commands, 0 (unsampled) otherwise. Deterministic round-robin, so
    /// a steady workload samples at a steady rate.
    pub fn trace_stamp(&self) -> u64 {
        let every = self.inner.trace_every.load(Relaxed);
        if every == 0 {
            return 0;
        }
        let seq = self.inner.trace_seq.fetch_add(1, Relaxed);
        if seq.is_multiple_of(every) {
            now_nanos()
        } else {
            0
        }
    }

    /// A point-in-time copy of every metric, for the stats plane.
    pub fn snapshot(&self) -> ObsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let hists = self
            .inner
            .hists
            .lock()
            .expect("obs lock")
            .iter()
            .map(|(name, h)| (name.clone(), HistSummary::of(&h.snapshot())))
            .collect();
        ObsSnapshot {
            node: self.node(),
            counters,
            gauges,
            hists,
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs").field("node", &self.node()).finish()
    }
}

wire_frame! {
    /// Quantile summary of one histogram, as shipped by the stats plane.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HistSummary {
        /// Number of samples.
        pub count: u64,
        /// Sum of samples (saturating).
        pub sum: u64,
        /// Smallest sample (0 when empty).
        pub min: u64,
        /// Largest sample.
        pub max: u64,
        /// Median.
        pub p50: u64,
        /// 95th percentile.
        pub p95: u64,
        /// 99th percentile.
        pub p99: u64,
    }
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            sum: h.sum_saturating(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }

    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One node's metrics at one instant — the `StatsResponse` body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// The reporting node.
    pub node: u32,
    /// `(name, value)` counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauges, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` histograms, name-ordered.
    pub hists: Vec<(String, HistSummary)>,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl ObsSnapshot {
    /// The counter named `name`, if reported.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge named `name`, if reported.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram summary named `name`, if reported.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Appends a Prometheus-style text exposition of this snapshot:
    /// counters as `amcast_<name>_total`, gauges as `amcast_<name>`,
    /// histograms as quantile samples plus `_count`/`_sum`, all labeled
    /// with the reporting node.
    pub fn to_prometheus(&self, out: &mut String) {
        let node = self.node;
        for (name, v) in &self.counters {
            let _ = writeln!(out, "amcast_{name}_total{{node=\"{node}\"}} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "amcast_{name}{{node=\"{node}\"}} {v}");
        }
        for (name, h) in &self.hists {
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(out, "amcast_{name}{{node=\"{node}\",quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "amcast_{name}_count{{node=\"{node}\"}} {}", h.count);
            let _ = writeln!(out, "amcast_{name}_sum{{node=\"{node}\"}} {}", h.sum);
        }
    }
}

impl Wire for ObsSnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(self.node));
        put_varint(buf, self.counters.len() as u64);
        for (name, v) in &self.counters {
            name.encode(buf);
            put_varint(buf, *v);
        }
        put_varint(buf, self.gauges.len() as u64);
        for (name, v) in &self.gauges {
            name.encode(buf);
            put_varint(buf, zigzag(*v));
        }
        put_varint(buf, self.hists.len() as u64);
        for (name, h) in &self.hists {
            name.encode(buf);
            h.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let node = get_varint_as(buf)?;
        let check = |n: u64| {
            if n > crate::wire::MAX_LEN {
                Err(WireError::LengthTooLarge { len: n })
            } else {
                Ok(n as usize)
            }
        };
        let n = check(get_varint(buf)?)?;
        let mut counters = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            counters.push((String::decode(buf)?, get_varint(buf)?));
        }
        let n = check(get_varint(buf)?)?;
        let mut gauges = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            gauges.push((String::decode(buf)?, unzigzag(get_varint(buf)?)));
        }
        let n = check(get_varint(buf)?)?;
        let mut hists = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            hists.push((String::decode(buf)?, HistSummary::decode(buf)?));
        }
        Ok(ObsSnapshot {
            node,
            counters,
            gauges,
            hists,
        })
    }
}

/// Cached counter handles for per-node wire accounting, fed from
/// [`crate::msg::WireStats`] tallies taken at a transport's send path.
/// Both the in-process ring transport and the deployment's peer
/// transport use this, so every node attributes its own traffic.
#[derive(Clone, Debug)]
pub struct WireCounters {
    decision_msgs: Counter,
    decision_wire_bytes: Counter,
    decision_payload_bytes: Counter,
    phase2_msgs: Counter,
    phase2_wire_bytes: Counter,
    phase2_payload_bytes: Counter,
    value_requests: Counter,
    value_push_msgs: Counter,
    value_push_bytes: Counter,
}

impl WireCounters {
    /// Handles into `obs` for the wire counters.
    pub fn new(obs: &Obs) -> WireCounters {
        Self::with_prefix(obs, "")
    }

    /// Handles with every counter name prefixed — per-ring wire
    /// accounting registers one family per ring (`ring3_decision_msgs`,
    /// ...), alongside the unprefixed node totals.
    pub fn with_prefix(obs: &Obs, prefix: &str) -> WireCounters {
        let named = |name: &str| obs.counter(&format!("{prefix}{name}"));
        WireCounters {
            decision_msgs: named("decision_msgs"),
            decision_wire_bytes: named("decision_wire_bytes"),
            decision_payload_bytes: named("decision_payload_bytes"),
            phase2_msgs: named("phase2_msgs"),
            phase2_wire_bytes: named("phase2_wire_bytes"),
            phase2_payload_bytes: named("phase2_payload_bytes"),
            value_requests: named("value_requests"),
            value_push_msgs: named("value_push_msgs"),
            value_push_bytes: named("value_push_bytes"),
        }
    }

    /// Tallies one outgoing ring message.
    pub fn note(&self, msg: &crate::msg::RingMsg) {
        let mut s = crate::msg::WireStats::default();
        s.tally(msg);
        self.add(&s);
    }

    /// Adds an already-computed tally.
    pub fn add(&self, s: &crate::msg::WireStats) {
        self.decision_msgs.add(s.decision_msgs);
        self.decision_wire_bytes.add(s.decision_wire_bytes);
        self.decision_payload_bytes.add(s.decision_payload_bytes);
        self.phase2_msgs.add(s.phase2_msgs);
        self.phase2_wire_bytes.add(s.phase2_wire_bytes);
        self.phase2_payload_bytes.add(s.phase2_payload_bytes);
        self.value_requests.add(s.value_requests);
        self.value_push_msgs.add(s.value_push_msgs);
        self.value_push_bytes.add(s.value_push_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_registry() {
        let obs = Obs::for_node(3);
        let c = obs.counter("proposed_cmds");
        c.add(5);
        obs.counter("proposed_cmds").inc();
        assert_eq!(obs.counter("proposed_cmds").get(), 6);
        let g = obs.gauge("batcher_depth");
        g.set(4);
        g.add(-1);
        assert_eq!(obs.gauge("batcher_depth").get(), 3);
        assert_eq!(obs.node(), 3);
        // Cloned registries are the same registry.
        let clone = obs.clone();
        clone.counter("proposed_cmds").inc();
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn hist_records_across_threads_and_snapshots() {
        let obs = Obs::for_node(0);
        let h = obs.hist("stage_propose_nanos");
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1000 + i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 3999);
        assert!(snap.quantile(0.5) > 1000 && snap.quantile(0.5) < 3000);
    }

    #[test]
    fn trace_stamp_samples_one_in_n() {
        let obs = Obs::for_node(0);
        assert_eq!(obs.trace_stamp(), 0, "tracing defaults to off");
        assert!(!obs.tracing());
        obs.set_trace_every(4);
        assert!(obs.tracing());
        let stamped = (0..100).filter(|_| obs.trace_stamp() != 0).count();
        assert_eq!(stamped, 25);
    }

    #[test]
    fn snapshot_round_trips_on_the_wire() {
        let obs = Obs::for_node(2);
        obs.counter("executed_cmds").add(42);
        obs.gauge("merge_lag").set(-3);
        let h = obs.hist("stage_reply_nanos");
        for v in [10u64, 1000, 100_000] {
            h.record(v);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("executed_cmds"), Some(42));
        assert_eq!(snap.gauge("merge_lag"), Some(-3));
        assert_eq!(snap.hist("stage_reply_nanos").unwrap().count, 3);
        assert_eq!(snap.counter("missing"), None);

        let mut raw = snap.to_bytes();
        let back = ObsSnapshot::decode(&mut raw).unwrap();
        assert!(raw.is_empty());
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_rendering_is_line_per_sample() {
        let obs = Obs::for_node(9);
        obs.counter("decision_payload_bytes").add(0);
        obs.gauge("session_count").set(2);
        obs.hist("stage_decide_nanos").record(5000);
        let mut out = String::new();
        obs.snapshot().to_prometheus(&mut out);
        assert!(out.contains("amcast_decision_payload_bytes_total{node=\"9\"} 0"));
        assert!(out.contains("amcast_session_count{node=\"9\"} 2"));
        assert!(out.contains("amcast_stage_decide_nanos{node=\"9\",quantile=\"0.99\"}"));
        assert!(out.contains("amcast_stage_decide_nanos_count{node=\"9\"} 1"));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn record_since_skips_unsampled() {
        let h = Hist::default();
        h.record_since(0);
        assert!(h.snapshot().is_empty());
        h.record_since(now_nanos().saturating_sub(1000));
        assert_eq!(h.snapshot().count(), 1);
        assert!(h.snapshot().min() >= 1000);
    }
}
