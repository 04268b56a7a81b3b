//! The metric tables: what the benchmark reports, in which unit, which
//! direction is better, and (end to end) by how much a metric may worsen
//! before it counts as a regression. `BENCHMARK.json` repeats these
//! tables; a unit test holds the two together.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "multi_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Per-layer metrics have no bound; the direction is what
    /// `BENCHMARK.json` declares, and the test below compares the two.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single layers (layer = module), plus the harness's self-checks and
/// the three end-to-end metrics that cannot hold a bound on every workload.
pub const PER_LAYER: &[PerLayer] = &[
    lower("common.wire.encode_ns_op", "ns"),
    lower("common.wire.decode_ns_op", "ns"),
    lower("common.wire.bytes_op", "bytes"),
    lower("common.transport.frame_ns_op", "ns"),
    lower("liverun.client.submit_ns_op", "ns"),
    lower("liverun.client.retries_op", "count"),
    higher("liverun.client.window_mean", "count"),
    lower("liverun.batch.push_ns_op", "ns"),
    higher("liverun.batch.cmds_per_batch", "count"),
    lower("liverun.batch.seal_wait_p50_us", "us"),
    lower("ringpaxos.node.round_ns_inst", "ns"),
    lower("ringpaxos.node.phase2_msgs_op", "count"),
    lower("ringpaxos.node.phase2_bytes_op", "bytes"),
    lower("ringpaxos.node.decision_msgs_op", "count"),
    lower("ringpaxos.node.decision_bytes_op", "bytes"),
    lower("ringpaxos.node.value_push_msgs_op", "count"),
    lower("ringpaxos.node.value_pull_misses_op", "count"),
    lower("ringpaxos.node.liveness_fires", "count"),
    lower("ringpaxos.node.order_p50_us", "us"),
    lower("multiring.merge.push_pop_ns_inst", "ns"),
    lower("multiring.merge.skips_op", "count"),
    lower("multiring.merge.lag_max", "count"),
    lower("multiring.merge.wait_p50_us", "us"),
    lower("multiring.merge.msg_delays_multi", "count"),
    lower("multiring.session.execute_ns_op", "ns"),
    lower("multiring.session.cached_replies", "count"),
    lower("multiring.exec.deliver_ns_op", "ns"),
    lower("multiring.exec.barriers_op", "count"),
    lower("multiring.exec.queue_depth_max", "count"),
    lower("mrpstore.store.execute_ns_op", "ns"),
    lower("mrpstore.store.execute_p50_us", "us"),
    lower("storage.wal.commit_ns_batch", "ns"),
    lower("storage.wal.appends_op", "count"),
    lower("storage.wal.commits_op", "count"),
    lower("storage.wal.commit_p50_us", "us"),
    lower("liverun.node.reply_p50_us", "us"),
    lower("liverun.node.writer_frames_op", "count"),
    lower("liverun.node.threads", "count"),
    lower("liverun.node.ctx_switches_op", "count"),
    lower("liverun.node.sys_cpu_frac", "frac"),
    lower("liverun.netem.delay_ms_op", "ms"),
    lower("bench.stall_windows", "count"),
    lower("bench.gen_late_p99_ms", "ms"),
    lower("bench.trace_overhead_frac", "frac"),
    lower("p95_ms", "ms"),
    lower("p99_ms", "ms"),
    lower("multi_p99_ms", "ms"),
    lower("cpu_us_op", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repo root must say what the code reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            assert_eq!(field(m, "better"), def.better.as_str());
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit);
            assert_eq!(field(m, "better"), def.better.as_str());
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let ours: Vec<_> = crate::workload::all()
            .into_iter()
            .filter(|w| w.gated)
            .collect();
        assert_eq!(workloads.len(), ours.len());
        for (m, w) in workloads.iter().zip(&ours) {
            assert_eq!(field(m, "name"), w.name);
            assert_eq!(field(m, "why"), w.why);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} used twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
