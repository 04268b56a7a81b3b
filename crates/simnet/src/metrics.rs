//! Shared metrics for simulations and benches.
//!
//! Processes and harnesses share a [`SharedMetrics`] handle (`Rc<RefCell>`;
//! simulations are single-threaded). Counters, latency histograms and time
//! series cover everything the paper's figures report: throughput,
//! latencies and their CDFs, and per-node CPU utilization.

use common::hist::Histogram;
use common::ids::NodeId;
use common::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// A cheaply clonable handle to a [`Metrics`] sink.
pub type SharedMetrics = Rc<RefCell<Metrics>>;

/// Creates a fresh shared metrics sink.
pub fn shared() -> SharedMetrics {
    Rc::new(RefCell::new(Metrics::default()))
}

/// Counters, histograms and time series, keyed by static names.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    series: BTreeMap<&'static str, Vec<(SimTime, f64)>>,
    /// Cumulative CPU busy time per node (nanoseconds).
    cpu_busy_ns: BTreeMap<NodeId, u64>,
}

impl Metrics {
    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads counter `name` (0 when absent).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a latency sample into histogram `name`.
    pub fn record(&mut self, name: &'static str, d: Duration) {
        self.hists.entry(name).or_default().record_duration(d);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn hist(&self, name: &'static str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Appends a `(time, value)` point to series `name`.
    pub fn push_series(&mut self, name: &'static str, at: SimTime, value: f64) {
        self.series.entry(name).or_default().push((at, value));
    }

    /// The series `name` (empty when absent).
    pub fn series(&self, name: &'static str) -> &[(SimTime, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Accrues CPU busy time for `node` (called by the simulator).
    pub fn add_cpu_busy(&mut self, node: NodeId, busy: Duration) {
        *self.cpu_busy_ns.entry(node).or_insert(0) += busy.as_nanos() as u64;
    }

    /// Cumulative CPU busy time of `node`.
    pub fn cpu_busy(&self, node: NodeId) -> Duration {
        Duration::from_nanos(self.cpu_busy_ns.get(&node).copied().unwrap_or(0))
    }

    /// CPU utilization of `node` over a window of `wall` virtual time
    /// (1.0 = one core fully busy).
    pub fn cpu_utilization(&self, node: NodeId, wall: Duration) -> f64 {
        if wall.is_zero() {
            return 0.0;
        }
        self.cpu_busy(node).as_secs_f64() / wall.as_secs_f64()
    }

    /// All counter names and values (for debugging).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Clears everything (between benchmark phases).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.hists.clear();
        self.series.clear();
        self.cpu_busy_ns.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = shared();
        m.borrow_mut().incr("x");
        m.borrow_mut().add("x", 4);
        assert_eq!(m.borrow().counter("x"), 5);
        assert_eq!(m.borrow().counter("absent"), 0);
    }

    #[test]
    fn histograms_record() {
        let mut m = Metrics::default();
        m.record("lat", Duration::from_millis(3));
        m.record("lat", Duration::from_millis(5));
        let h = m.hist("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert!(m.hist("other").is_none());
    }

    #[test]
    fn cpu_utilization_math() {
        let mut m = Metrics::default();
        let n = NodeId::new(1);
        m.add_cpu_busy(n, Duration::from_millis(250));
        let u = m.cpu_utilization(n, Duration::from_secs(1));
        assert!((u - 0.25).abs() < 1e-9);
        assert_eq!(m.cpu_utilization(n, Duration::ZERO), 0.0);
    }

    #[test]
    fn series_are_ordered_by_insertion() {
        let mut m = Metrics::default();
        m.push_series("tput", SimTime::from_secs(1), 10.0);
        m.push_series("tput", SimTime::from_secs(2), 20.0);
        assert_eq!(m.series("tput").len(), 2);
        assert_eq!(m.series("tput")[1].1, 20.0);
    }

    #[test]
    fn reset_clears_all() {
        let mut m = Metrics::default();
        m.incr("a");
        m.record("h", Duration::from_micros(1));
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert!(m.hist("h").is_none());
    }
}
