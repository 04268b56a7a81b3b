//! From observations to named metrics: the end-to-end list out of an
//! untraced live run, the per-layer ledger out of a traced run's client
//! side (C), its stats-plane scrapes (S), `/proc` (P) and the layer
//! replay (R).

use common::obs::ObsSnapshot;

use crate::json::{obj, Json};
use crate::live::LiveResult;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;

/// `(metric name, value)` in table order.
pub type Values = Vec<(&'static str, f64)>;

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
/// `setups` holds every set-up time measured for it, its own included.
pub fn end_to_end(r: &LiveResult, setups: &[f64]) -> Values {
    let ms = |us: Option<f64>| us.unwrap_or(0.0) / 1e3;
    let value = |name: &str| match name {
        "ops_s" => r.single.rate,
        "p50_ms" => ms(r.single.p50_us),
        "multi_p50_ms" => ms(r.multi.p50_us),
        "peak_rss_mb" => r.peak_rss_mb,
        "setup_s" => stats::median(setups).unwrap_or(0.0),
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    END_TO_END.iter().map(|m| (m.name, value(m.name))).collect()
}

/// Stats-plane arithmetic over every node's `(start, end)` scrapes.
struct Scrapes<'a>(&'a [(ObsSnapshot, ObsSnapshot)]);

impl Scrapes<'_> {
    /// Growth of counter `name` over the measured interval, all nodes.
    fn delta(&self, name: &str) -> f64 {
        self.0
            .iter()
            .map(|(a, b)| {
                b.counter(name)
                    .unwrap_or(0)
                    .saturating_sub(a.counter(name).unwrap_or(0))
            })
            .sum::<u64>() as f64
    }

    /// Samples histogram `name` gained over the measured interval.
    fn hist_count_delta(&self, name: &str) -> f64 {
        self.0
            .iter()
            .map(|(a, b)| {
                let count = |s: &ObsSnapshot| s.hist(name).map_or(0, |h| h.count);
                count(b).saturating_sub(count(a))
            })
            .sum::<u64>() as f64
    }

    /// Highest level of gauge `name` on any node at either scrape.
    fn gauge_max(&self, name: &str) -> f64 {
        self.0
            .iter()
            .flat_map(|(a, b)| [a.gauge(name), b.gauge(name)])
            .flatten()
            .max()
            .unwrap_or(0) as f64
    }

    /// Gauge `name` summed over nodes at the end of the interval.
    fn gauge_sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter_map(|(_, b)| b.gauge(name))
            .sum::<i64>() as f64
    }

    /// p50 (µs) of histogram `name`: the nodes' p50s weighted by their
    /// sample counts. The stats plane ships summaries, not buckets, and
    /// they cover the node's whole life (preload and warm-up included).
    fn p50_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .0
            .iter()
            .filter_map(|(_, b)| b.hist(name))
            .fold((0.0, 0.0), |(s, n), h| {
                (s + h.p50 as f64 * h.count as f64, n + h.count as f64)
            });
        if n > 0.0 {
            sum / n / 1e3
        } else {
            0.0
        }
    }
}

/// The hot-path stages, in order; their histograms are cumulative since
/// the serving node admitted the command.
const STAGES: [&str; 7] = [
    "seal", "propose", "p2send", "decide", "deliver", "execute", "reply",
];

/// The per-layer ledger of a traced run, in [`PER_LAYER`] order.
/// `untraced_p50_ms` is the same workload's `p50_ms` with tracing off.
pub fn per_layer(traced: &LiveResult, replay: &Values, untraced_p50_ms: f64) -> Values {
    let s = Scrapes(&traced.stats);
    let ops = (traced.single.completed + traced.multi.completed).max(1) as f64;
    let cumulative: Vec<f64> = STAGES
        .iter()
        .map(|stage| s.p50_us(&format!("stage_{stage}_nanos")))
        .collect();
    let stage = stats::cumulative_to_deltas(&cumulative);
    let cpu = traced.user_cpu_s + traced.sys_cpu_s;
    let mean_delay_ms = if traced.injected_delays.is_empty() {
        0.0
    } else {
        traced
            .injected_delays
            .iter()
            .map(|(_, _, ms)| ms)
            .sum::<f64>()
            / traced.injected_delays.len() as f64
    };
    let multi_p50_ms = traced.multi.p50_us.unwrap_or(0.0) / 1e3;
    let app_instances = (s.delta("instances_decided") - s.delta("merge_skips")).max(1.0);
    let value = |name: &str| -> f64 {
        if let Some((_, v)) = replay.iter().find(|(n, _)| *n == name) {
            return *v;
        }
        match name {
            "liverun.client.submit_ns_op" => traced.submit_ns_op,
            // What the nodes proposed beyond what the clients submitted
            // once: client re-sends, plus session keep-alives.
            "liverun.client.retries_op" => {
                (s.delta("proposed_cmds") - (traced.submitted + traced.multi.completed) as f64)
                    .max(0.0)
                    / ops
            }
            "liverun.client.window_mean" => traced.window_mean,
            // Learner side of "commands per non-skip instance".
            "liverun.batch.cmds_per_batch" => s.delta("executed_cmds") / app_instances,
            "liverun.batch.seal_wait_p50_us" => stage[0],
            "ringpaxos.node.phase2_msgs_op" => s.delta("phase2_msgs") / ops,
            "ringpaxos.node.phase2_bytes_op" => s.delta("phase2_wire_bytes") / ops,
            "ringpaxos.node.decision_msgs_op" => s.delta("decision_msgs") / ops,
            "ringpaxos.node.decision_bytes_op" => s.delta("decision_wire_bytes") / ops,
            "ringpaxos.node.value_push_msgs_op" => s.delta("value_push_msgs") / ops,
            "ringpaxos.node.value_pull_misses_op" => s.delta("value_pull_misses") / ops,
            "ringpaxos.node.liveness_fires" => s.delta("liveness_fires"),
            // decide − propose.
            "ringpaxos.node.order_p50_us" => stage[2] + stage[3],
            "multiring.merge.skips_op" => s.delta("merge_skips") / ops,
            "multiring.merge.lag_max" => s.gauge_max("merge_lag"),
            "multiring.merge.wait_p50_us" => stage[4],
            "multiring.merge.msg_delays_multi" if mean_delay_ms > 0.0 => {
                multi_p50_ms / mean_delay_ms
            }
            "multiring.merge.msg_delays_multi" => 0.0,
            "multiring.session.cached_replies" => s.gauge_sum("session_cached_replies"),
            "multiring.exec.barriers_op" => s.delta("shard_barriers") / ops,
            "multiring.exec.queue_depth_max" => s.gauge_max("shard_queue_depth"),
            "mrpstore.store.execute_p50_us" => stage[5],
            "storage.wal.appends_op" => s.delta("wal_appends") / ops,
            "storage.wal.commits_op" => s.hist_count_delta("wal_commit_nanos") / ops,
            "storage.wal.commit_p50_us" => s.p50_us("wal_commit_nanos"),
            "liverun.node.reply_p50_us" => stage[6],
            "liverun.node.writer_frames_op" => s.delta("writer_vectored_frames") / ops,
            "liverun.node.threads" => traced.threads as f64,
            "liverun.node.ctx_switches_op" => traced.ctx_switches as f64 / ops,
            "liverun.node.sys_cpu_frac" if cpu > 0.0 => traced.sys_cpu_s / cpu,
            "liverun.node.sys_cpu_frac" => 0.0,
            "liverun.netem.delay_ms_op" => s.delta("netem_delay_ms") / ops,
            "bench.stall_windows" => stats::stall_windows(&traced.single.window_rates) as f64,
            "bench.gen_late_p99_ms" => traced.gen_late_p99_ms.unwrap_or(0.0),
            "bench.trace_overhead_frac" if untraced_p50_ms > 0.0 => {
                traced.single.p50_us.unwrap_or(0.0) / 1e3 / untraced_p50_ms - 1.0
            }
            "bench.trace_overhead_frac" => 0.0,
            "p95_ms" => traced.single.p95_us.unwrap_or(0.0) / 1e3,
            "p99_ms" => traced.single.p99_us.unwrap_or(0.0) / 1e3,
            // Reported only with a thousand samples behind it.
            "multi_p99_ms" if traced.multi.completed >= stats::MIN_P99_SAMPLES as u64 => {
                traced.multi.p99_us.unwrap_or(0.0) / 1e3
            }
            "multi_p99_ms" => 0.0,
            // Nodes and load generator together, scheduler accounting.
            "cpu_us_op" => traced.cpu_s * 1e6 / ops,
            other => unreachable!("per-layer metric {other} has no source"),
        }
    };
    PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect()
}

/// `{"name": {"value": v, "unit": u}, ...}` for either table.
pub fn metrics_json(values: &Values) -> Json {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    obj(values.iter().map(|(name, v)| {
        (
            *name,
            obj([("value", Json::from(*v)), ("unit", Json::from(unit(name)))]),
        )
    }))
}

/// One `workload metric value unit` line per metric of a table built
/// by [`metrics_json`].
pub fn print_lines(workload: &str, table: &Json) {
    for (name, m) in table.as_obj().unwrap_or(&[]) {
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload} {name} {v} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::obs::HistSummary;

    fn snapshot(proposed: u64, decide_p50: u64, decide_count: u64) -> ObsSnapshot {
        ObsSnapshot {
            node: 0,
            counters: vec![("proposed_cmds".into(), proposed)],
            gauges: vec![("merge_lag".into(), proposed as i64 / 10)],
            hists: vec![(
                "stage_decide_nanos".into(),
                HistSummary {
                    count: decide_count,
                    p50: decide_p50,
                    ..HistSummary::default()
                },
            )],
        }
    }

    #[test]
    fn scrapes_take_deltas_maxima_and_weighted_p50s() {
        let pairs = vec![
            (snapshot(100, 0, 0), snapshot(160, 3_000_000, 30)),
            (snapshot(10, 0, 0), snapshot(50, 1_000_000, 10)),
        ];
        let s = Scrapes(&pairs);
        assert_eq!(s.delta("proposed_cmds"), 100.0);
        assert_eq!(s.delta("absent"), 0.0);
        assert_eq!(s.gauge_max("merge_lag"), 16.0);
        assert_eq!(s.gauge_sum("merge_lag"), 21.0);
        assert_eq!(s.hist_count_delta("stage_decide_nanos"), 40.0);
        assert_eq!(s.p50_us("stage_decide_nanos"), 2500.0);
        assert_eq!(s.p50_us("absent"), 0.0);
    }

    #[test]
    fn both_tables_are_fully_sourced() {
        let r = LiveResult::default();
        let e2e = end_to_end(&r, &[]);
        assert_eq!(e2e.len(), END_TO_END.len());
        let replay: Values = PER_LAYER
            .iter()
            .filter(|m| m.name.ends_with("_ns_op") && !m.name.starts_with("liverun.client"))
            .chain(PER_LAYER.iter().filter(|m| {
                m.name.ends_with("_ns_inst")
                    || m.name.ends_with("_ns_batch")
                    || m.name == "common.wire.bytes_op"
            }))
            .map(|m| (m.name, 1.0))
            .collect();
        let layers = per_layer(&r, &replay, 0.0);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|(_, v)| v.is_finite()));
    }
}
