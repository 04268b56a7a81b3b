//! `amcast-cli` — command-line client for a live deployment.
//!
//! ```text
//! amcast-cli --config amcast.toml put user:1 alice
//! amcast-cli --config amcast.toml get user:1
//! amcast-cli --config amcast.toml scan user: user;      # range [from, to)
//! amcast-cli --config amcast.toml del user:1
//! amcast-cli --config amcast.toml append 0 "log entry"  # dlog deployments
//! amcast-cli --config amcast.toml read 0 7
//! amcast-cli --config amcast.toml multi-append 0,1 "both logs"
//! ```
//!
//! The client loads the same deployment document the daemons use, routes
//! single-key commands to the owning partition's ring per the published
//! hash scheme, and multicasts scans / multi-appends on the global ring,
//! merging one answer per partition (paper §6.1, §7.2).

use std::fmt;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use bytes::Bytes;
use common::ids::ClientId;
use common::obs::ObsSnapshot;
use liverun::{ClientOptions, DeploymentConfig, LogClient, StoreClient};

fn usage() -> &'static str {
    "usage: amcast-cli --config FILE [--client ID] COMMAND
commands (mrpstore):
  put KEY VALUE | update KEY VALUE | get KEY | del KEY | scan FROM [TO]
  add KEY [DELTA]   # exactly-once counter increment (protocol v2 sessions)
commands (dlog):
  append LOG VALUE | multi-append LOG,LOG,... VALUE | read LOG POS
commands (any deployment):
  stats [--watch] [--json | --prometheus]   # per-node and per-coordination-replica metrics"
}

/// Whose metrics a `stats` entry shows: a data node, or a replica of the
/// `[deployment] coord` ensemble (scraped at its serve address).
#[derive(Clone, Copy, Debug)]
enum Source {
    Node(u32),
    Coord(SocketAddr),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Node(id) => write!(f, "node {id}"),
            Source::Coord(addr) => write!(f, "coordination replica {addr}"),
        }
    }
}

/// One `stats` entry: a snapshot, or why it could not be fetched.
type Entry = (Source, Result<ObsSnapshot, String>);

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("amcast-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<String, String> {
    let mut config_path = None;
    // Default to a per-process id so concurrent/successive CLI
    // invocations get distinct reply-routing identities.
    let mut client_id = std::process::id();
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => config_path = it.next(),
            "--client" => {
                client_id = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage().to_string())?;
            }
            _ => rest.push(arg),
        }
    }
    let config_path = config_path.ok_or_else(|| usage().to_string())?;
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {config_path}: {e}"))?;
    let config = DeploymentConfig::parse(&text).map_err(|e| e.to_string())?;
    // Aggressive retries are safe under protocol v2: the replicated
    // session table deduplicates re-sent commands.
    let opts = ClientOptions {
        timeout: Duration::from_secs(10),
        retry_every: Duration::from_secs(2),
        ..ClientOptions::default()
    };
    let id = ClientId::new(client_id);

    let cmd = rest.first().cloned().ok_or_else(|| usage().to_string())?;
    let arg = |i: usize| -> Result<&str, String> {
        rest.get(i)
            .map(String::as_str)
            .ok_or_else(|| usage().to_string())
    };
    match cmd.as_str() {
        "put" | "update" | "get" | "del" | "scan" | "add" => {
            let mut store = StoreClient::connect(&config, id, opts).map_err(|e| e.to_string())?;
            match cmd.as_str() {
                "put" => {
                    let r = store
                        .insert(arg(1)?, Bytes::from(arg(2)?.as_bytes().to_vec()))
                        .map_err(|e| e.to_string())?;
                    Ok(format!("{r:?}"))
                }
                "update" => {
                    let r = store
                        .update(arg(1)?, Bytes::from(arg(2)?.as_bytes().to_vec()))
                        .map_err(|e| e.to_string())?;
                    Ok(format!("{r:?}"))
                }
                "get" => match store.read(arg(1)?).map_err(|e| e.to_string())? {
                    Some(v) => Ok(String::from_utf8_lossy(&v).into_owned()),
                    None => Ok("(nil)".to_string()),
                },
                "del" => {
                    let r = store.delete(arg(1)?).map_err(|e| e.to_string())?;
                    Ok(format!("{r:?}"))
                }
                "add" => {
                    // Non-idempotent on purpose: the session layer's
                    // exactly-once dedup is what makes it safe to retry.
                    let delta: u64 = match rest.get(2) {
                        Some(v) => v.parse().map_err(|_| usage().to_string())?,
                        None => 1,
                    };
                    let v = store.add(arg(1)?, delta).map_err(|e| e.to_string())?;
                    Ok(v.to_string())
                }
                _ => {
                    let to = rest.get(2).map(String::as_str).unwrap_or("");
                    let entries = store.scan(arg(1)?, to).map_err(|e| e.to_string())?;
                    let mut out = String::new();
                    for (k, v) in &entries {
                        out.push_str(&format!("{k} = {}\n", String::from_utf8_lossy(v)));
                    }
                    out.push_str(&format!("({} entries)", entries.len()));
                    Ok(out)
                }
            }
        }
        "append" | "multi-append" | "read" => {
            let mut log = LogClient::connect(&config, id, opts).map_err(|e| e.to_string())?;
            match cmd.as_str() {
                "append" => {
                    let l: u16 = arg(1)?.parse().map_err(|_| usage().to_string())?;
                    let pos = log
                        .append(l, Bytes::from(arg(2)?.as_bytes().to_vec()))
                        .map_err(|e| e.to_string())?;
                    Ok(format!("appended at position {pos}"))
                }
                "multi-append" => {
                    let logs: Vec<u16> = arg(1)?
                        .split(',')
                        .map(|s| s.trim().parse().map_err(|_| usage().to_string()))
                        .collect::<Result<_, _>>()?;
                    let positions = log
                        .multi_append(logs, Bytes::from(arg(2)?.as_bytes().to_vec()))
                        .map_err(|e| e.to_string())?;
                    Ok(positions
                        .iter()
                        .map(|(l, p)| format!("log {l} @ {p}"))
                        .collect::<Vec<_>>()
                        .join(", "))
                }
                _ => {
                    let l: u16 = arg(1)?.parse().map_err(|_| usage().to_string())?;
                    let pos: u64 = arg(2)?.parse().map_err(|_| usage().to_string())?;
                    match log.read(l, pos).map_err(|e| e.to_string())? {
                        Some(v) => Ok(String::from_utf8_lossy(&v).into_owned()),
                        None => Ok("(nil)".to_string()),
                    }
                }
            }
        }
        "stats" => {
            let json = rest.iter().any(|a| a == "--json");
            let prom = rest.iter().any(|a| a == "--prometheus");
            let watch = rest.iter().any(|a| a == "--watch");
            let fetch = |addr: SocketAddr| {
                let snap = liverun::fetch_stats(addr, Duration::from_secs(5));
                snap.map_err(|e| format!("{addr} unreachable: {e}"))
            };
            loop {
                let nodes =
                    (config.nodes.iter()).map(|n| (Source::Node(n.id.raw()), n.client_addr));
                let coords = (config.coord_addrs.iter()).map(|&addr| (Source::Coord(addr), addr));
                let snaps: Vec<Entry> = (nodes.chain(coords))
                    .map(|(source, addr)| (source, fetch(addr)))
                    .collect();
                let mut out = String::new();
                if json {
                    format_stats_json(&mut out, &snaps);
                } else {
                    for entry in &snaps {
                        format_entry(&mut out, entry, prom);
                    }
                }
                if !watch {
                    return Ok(out.trim_end().to_string());
                }
                println!("--- {}\n{out}", config_path);
                std::thread::sleep(Duration::from_secs(2));
            }
        }
        _ => Err(usage().to_string()),
    }
}

/// The pipeline stages in hot-path order. Each histogram records
/// *cumulative* nanoseconds since the command's origin stamp, so the
/// difference between adjacent rows reads as that stage's cost.
const STAGES: &[&str] = &[
    "seal", "propose", "p2send", "decide", "deliver", "execute", "reply",
];

/// Splits a `ring{N}_`-prefixed metric name into `(ring, rest)`.
fn ring_metric(name: &str) -> Option<(u16, &str)> {
    let rest = name.strip_prefix("ring")?;
    let (id, rest) = rest.split_once('_')?;
    Some((id.parse().ok()?, rest))
}

fn format_stats_text(out: &mut String, snap: &ObsSnapshot) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "node {}", snap.node);
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (name, v) in &snap.counters {
            if ring_metric(name).is_none() {
                let _ = writeln!(out, "    {name:<28} {v}");
            }
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "  gauges:");
        for (name, v) in &snap.gauges {
            if ring_metric(name).is_none() {
                let _ = writeln!(out, "    {name:<28} {v}");
            }
        }
    }
    // The per-ring breakdown: merge cost and wire traffic attributed to
    // each ring this node touched, and the size of its acceptor log there.
    // A genuinely-routed deployment shows zeros on rings the node's
    // partition is not addressed by.
    let mut rings: std::collections::BTreeMap<u16, std::collections::BTreeMap<&str, i64>> =
        std::collections::BTreeMap::new();
    for (name, v) in &snap.counters {
        if let Some((ring, rest)) = ring_metric(name) {
            rings.entry(ring).or_default().insert(rest, *v as i64);
        }
    }
    for (name, v) in &snap.gauges {
        if let Some((ring, rest)) = ring_metric(name) {
            rings.entry(ring).or_default().insert(rest, *v);
        }
    }
    if !rings.is_empty() {
        let _ = writeln!(
            out,
            "  per-ring:\n    {:<6} {:>12} {:>10} {:>10} {:>14} {:>16} {:>12} {:>10} {:>12} {:>12}",
            "ring",
            "delivered",
            "skips",
            "lag",
            "decision_msgs",
            "decision_payload",
            "trim_floor",
            "log_slots",
            "log_bytes",
            "cache_bytes"
        );
        for (ring, m) in &rings {
            let g = |k: &str| m.get(k).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "    {ring:<6} {:>12} {:>10} {:>10} {:>14} {:>16} {:>12} {:>10} {:>12} {:>12}",
                g("delivered_cmds"),
                g("merge_skips"),
                g("merge_lag"),
                g("decision_msgs"),
                g("decision_payload_bytes"),
                g("trim_floor"),
                g("log_slots"),
                g("log_bytes"),
                g("cache_bytes"),
            );
        }
    }
    let staged: Vec<_> = STAGES
        .iter()
        .filter_map(|s| snap.hist(&format!("stage_{s}_nanos")).map(|h| (*s, h)))
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !staged.is_empty() {
        let _ = writeln!(
            out,
            "  stages (cumulative µs since submit):\n    {:<10} {:>8} {:>10} {:>10} {:>10}",
            "stage", "count", "p50", "p95", "p99"
        );
        for (stage, h) in staged {
            let _ = writeln!(
                out,
                "    {stage:<10} {:>8} {:>10.1} {:>10.1} {:>10.1}",
                h.count,
                h.p50 as f64 / 1e3,
                h.p95 as f64 / 1e3,
                h.p99 as f64 / 1e3,
            );
        }
    }
    let other: Vec<_> = snap
        .hists
        .iter()
        .filter(|(name, h)| !name.starts_with("stage_") && h.count > 0)
        .collect();
    if !other.is_empty() {
        let _ = writeln!(
            out,
            "  histograms (µs):\n    {:<28} {:>8} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p95", "p99"
        );
        for (name, h) in other {
            let _ = writeln!(
                out,
                "    {name:<28} {:>8} {:>10.1} {:>10.1} {:>10.1}",
                h.count,
                h.p50 as f64 / 1e3,
                h.p95 as f64 / 1e3,
                h.p99 as f64 / 1e3,
            );
        }
    }
}

/// One text block (or Prometheus lines) for `entry`.
fn format_entry(out: &mut String, (source, snap): &Entry, prom: bool) {
    use std::fmt::Write as _;
    match (source, snap) {
        (Source::Node(_), Ok(snap)) if prom => snap.to_prometheus(out),
        (Source::Coord(addr), Ok(snap)) if prom => {
            // A replica's node id is its place in the ensemble, which
            // data node ids reuse: its series are labelled by address.
            let mut lines = String::new();
            snap.to_prometheus(&mut lines);
            let node = format!("node=\"{}\"", snap.node);
            out.push_str(&lines.replace(&node, &format!("coord=\"{addr}\"")));
        }
        (Source::Node(_), Ok(snap)) => format_stats_text(out, snap),
        (Source::Coord(_), Ok(snap)) => {
            let _ = writeln!(out, "{source}");
            format_stats_text(out, snap);
        }
        (_, Err(e)) => {
            let _ = writeln!(out, "{source}: {e}");
        }
    }
}

/// One JSON array over every entry: a node's snapshot object, or
/// `{"node": N, "error": "..."}` when it could not be reached; a
/// coordination replica's the same with `"coord": "ADDR"` first.
fn format_stats_json(out: &mut String, entries: &[Entry]) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, (source, snap)) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "{" } else { ",\n{" });
        if let Source::Coord(addr) = source {
            let _ = write!(out, "\"coord\": \"{addr}\", ");
        }
        match (source, snap) {
            (_, Ok(snap)) => format_snapshot_json(out, snap),
            (_, Err(e)) => {
                if let Source::Node(node) = source {
                    let _ = write!(out, "\"node\": {node}, ");
                }
                let e: String = e.chars().filter(|c| !c.is_control()).collect();
                let e = e.replace('\\', "\\\\").replace('"', "\\\"");
                let _ = write!(out, "\"error\": \"{e}\"}}");
            }
        }
    }
    out.push(']');
}

/// A snapshot's JSON object, past its opening brace.
fn format_snapshot_json(out: &mut String, snap: &ObsSnapshot) {
    use std::fmt::Write as _;
    let _ = write!(out, "\"node\": {}, \"counters\": {{", snap.node);
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let sep = if i + 1 < snap.counters.len() {
            ", "
        } else {
            ""
        };
        let _ = write!(out, "\"{name}\": {v}{sep}");
    }
    let _ = write!(out, "}}, \"gauges\": {{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        let sep = if i + 1 < snap.gauges.len() { ", " } else { "" };
        let _ = write!(out, "\"{name}\": {v}{sep}");
    }
    let _ = write!(out, "}}, \"histograms\": {{");
    for (i, (name, h)) in snap.hists.iter().enumerate() {
        let sep = if i + 1 < snap.hists.len() { ", " } else { "" };
        let _ = write!(
            out,
            "\"{name}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{sep}",
            h.count, h.min, h.max, h.p50, h.p95, h.p99
        );
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::obs::Obs;

    #[test]
    fn stats_json_is_one_array_with_an_object_per_node() {
        let snap = |id| {
            let obs = Obs::for_node(id);
            obs.counter("executed_cmds").add(3);
            obs.gauge("merge_lag").set(1);
            obs.hist("stage_seal_nanos").record(5);
            obs.snapshot()
        };
        // The unreachable node last: a trailing separator would show there.
        let nodes = vec![
            (Source::Node(0), Ok(snap(0))),
            (Source::Node(1), Ok(snap(1))),
            (
                Source::Node(2),
                Err("127.0.0.1:9 unreachable: \"refused\"".to_string()),
            ),
        ];
        let mut out = String::new();
        format_stats_json(&mut out, &nodes);
        assert!(out.starts_with('[') && out.ends_with(']'), "{out}");
        // Walk the structure outside strings: count the array's objects
        // and the separators between them, and reject a comma that
        // closes a container.
        let (mut depth, mut objects, mut commas) = (0, 0, 0);
        let (mut in_str, mut escaped, mut prev) = (false, false, ' ');
        for c in out.chars() {
            if in_str {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => {
                    objects += usize::from(c == '{' && depth == 1);
                    depth += 1;
                }
                '}' | ']' => {
                    assert_ne!(prev, ',', "trailing comma in {out}");
                    depth -= 1;
                }
                ',' if depth == 1 => commas += 1,
                _ => {}
            }
            if !c.is_whitespace() {
                prev = c;
            }
        }
        assert_eq!((depth, objects, commas), (0, 3, 2), "{out}");
        assert!(
            out.contains(r#"{"node": 2, "error": "127.0.0.1:9 unreachable: \"refused\""}"#),
            "{out}"
        );
    }

    #[test]
    fn stats_show_the_acceptor_log_and_trim_rounds() {
        let obs = Obs::for_node(0);
        obs.counter("trim_rounds").add(7);
        obs.counter("ring3_delivered_cmds").add(5);
        obs.gauge("ring3_trim_floor").set(4097);
        obs.gauge("ring3_log_slots").set(311);
        let snap = obs.snapshot();

        let mut text = String::new();
        format_stats_text(&mut text, &snap);
        assert!(text.contains("trim_rounds"), "{text}");
        assert_eq!(ring_column(&text, 3, "log_slots"), "311", "{text}");
        assert_eq!(ring_column(&text, 3, "trim_floor"), "4097", "{text}");

        let mut json = String::new();
        format_stats_json(&mut json, &[(Source::Node(0), Ok(snap))]);
        for field in [
            "\"trim_rounds\": 7",
            "\"ring3_trim_floor\": 4097",
            "\"ring3_log_slots\": 311",
        ] {
            assert!(json.contains(field), "{json}");
        }
    }

    /// The cell of ring `ring`'s row under `column` in the per-ring table.
    fn ring_column<'a>(text: &'a str, ring: u16, column: &str) -> &'a str {
        let header = text.lines().find(|l| l.contains("trim_floor")).unwrap();
        let at = header.split_whitespace().position(|c| c == column).unwrap();
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{ring} ")))
            .unwrap();
        row.split_whitespace().nth(at).unwrap()
    }

    #[test]
    fn stats_show_what_each_ring_retains_in_bytes() {
        let obs = Obs::for_node(0);
        obs.gauge("ring2_log_bytes").set(65536);
        obs.gauge("ring2_cache_bytes").set(8192);
        obs.gauge("mem_accounted_bytes").set(73728);
        let snap = obs.snapshot();

        let mut text = String::new();
        format_stats_text(&mut text, &snap);
        assert_eq!(ring_column(&text, 2, "log_bytes"), "65536", "{text}");
        assert_eq!(ring_column(&text, 2, "cache_bytes"), "8192", "{text}");
        assert!(text.contains("mem_accounted_bytes"), "{text}");
    }

    /// `[deployment] coord` replicas are scraped beside the nodes: a
    /// reachable one shows its snapshot under its address, an unreachable
    /// one the error, in text, JSON and Prometheus form.
    #[test]
    fn stats_show_coordination_replicas_reachable_or_not() {
        let obs = Obs::for_node(0);
        obs.counter("coord_applied").add(3);
        let up: SocketAddr = ([127, 0, 0, 1], 7710).into();
        let down: SocketAddr = ([127, 0, 0, 1], 7711).into();
        let entries = vec![
            (Source::Coord(up), Ok(obs.snapshot())),
            (
                Source::Coord(down),
                Err(format!("{down} unreachable: refused")),
            ),
        ];
        let mut text = String::new();
        for entry in &entries {
            format_entry(&mut text, entry, false);
        }
        assert!(
            text.starts_with("coordination replica 127.0.0.1:7710\nnode 0\n"),
            "{text}"
        );
        assert!(text.contains("coord_applied"), "{text}");
        assert!(
            text.ends_with(
                "coordination replica 127.0.0.1:7711: 127.0.0.1:7711 unreachable: refused\n"
            ),
            "{text}"
        );

        let mut json = String::new();
        format_stats_json(&mut json, &entries);
        assert!(
            json.starts_with(
                r#"[{"coord": "127.0.0.1:7710", "node": 0, "counters": {"coord_applied": 3}"#
            ),
            "{json}"
        );
        assert!(
            json.ends_with(
                r#",
{"coord": "127.0.0.1:7711", "error": "127.0.0.1:7711 unreachable: refused"}]"#
            ),
            "{json}"
        );

        let mut prom = String::new();
        format_entry(&mut prom, &entries[0], true);
        assert!(
            prom.contains(r#"amcast_coord_applied_total{coord="127.0.0.1:7710"} 3"#),
            "{prom}"
        );
        assert!(!prom.contains("node="), "{prom}");
    }
}
