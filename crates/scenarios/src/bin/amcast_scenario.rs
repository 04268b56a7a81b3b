//! `amcast-scenario` — runs the WAN scenario zoo against shaped live
//! deployments.
//!
//! ```text
//! amcast-scenario [--smoke] [--only NAME] [--out PATH] [--base-port N] [--scale PCT]
//! ```
//!
//! * `--smoke` — the CI form: WAN delays scaled to 40%, seconds per
//!   scenario, same topologies, same fault schedules, same invariants.
//! * `--only NAME` — run one scenario (`placement`, `bank`, `consumers`).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_scenarios.json`).
//! * `--base-port N` — first port of the harness's port blocks (uses
//!   up to ~300 ports above it; default: a probed free block).
//! * `--scale PCT` — override the WAN delay scale.
//!
//! Exit status is non-zero if any scenario's invariants failed.

use std::time::Duration;

use scenarios::bank::{self, BankParams};
use scenarios::consumers::{self, ConsumerParams};
use scenarios::placement::{self, PlacementParams};
use scenarios::report::{report_json, Outcome};

struct Args {
    smoke: bool,
    only: Option<String>,
    out: String,
    base_port: u16,
    scale: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        only: None,
        out: "BENCH_scenarios.json".into(),
        base_port: 0, // not given: probe for a free block below
        scale: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--only" => args.only = Some(value("--only")?),
            "--out" => args.out = value("--out")?,
            "--base-port" => {
                args.base_port = value("--base-port")?
                    .parse()
                    .map_err(|e| format!("--base-port: {e}"))?
            }
            "--scale" => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.base_port == 0 {
        // The last block (consumers) starts 300 above the base and
        // holds three nodes' two ports each.
        args.base_port = liverun::config::free_port_block(306)
            .map_err(|e| format!("no free port block: {e}"))?;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amcast-scenario: {e}");
            std::process::exit(2);
        }
    };
    let mode = if args.smoke { "smoke" } else { "full" };
    // Smoke scales the WAN to 40% — still tens of milliseconds between
    // regions, so placement effects stay measurable, but fault phases
    // and timeouts fit a CI budget.
    let scale = args.scale.unwrap_or(if args.smoke { 40 } else { 100 });
    let wants = |name: &str| args.only.as_deref().is_none_or(|only| only == name);

    println!("amcast-scenario: mode={mode} wan_delay_scale_pct={scale}");
    let mut outcomes: Vec<Outcome> = Vec::new();
    if wants("placement") {
        let params = PlacementParams {
            base_port: args.base_port,
            scale_pct: scale,
            duration: if args.smoke {
                Duration::from_millis(2500)
            } else {
                Duration::from_secs(8)
            },
        };
        outcomes.push(placement::run(&params));
        report_progress(outcomes.last().expect("just pushed"));
    }
    if wants("bank") {
        let params = BankParams {
            base_port: args.base_port + 200,
            scale_pct: scale,
            phase: if args.smoke {
                Duration::from_millis(1000)
            } else {
                Duration::from_millis(2000)
            },
        };
        outcomes.push(bank::run(&params));
        report_progress(outcomes.last().expect("just pushed"));
    }
    if wants("consumers") {
        let params = ConsumerParams {
            base_port: args.base_port + 300,
            scale_pct: scale,
            per_producer: if args.smoke { 45 } else { 120 },
            phase: if args.smoke {
                Duration::from_millis(900)
            } else {
                Duration::from_millis(2000)
            },
        };
        outcomes.push(consumers::run(&params));
        report_progress(outcomes.last().expect("just pushed"));
    }
    if outcomes.is_empty() {
        eprintln!("amcast-scenario: nothing selected (--only placement|bank|consumers)");
        std::process::exit(2);
    }

    let doc = report_json(mode, scale, &outcomes);
    if let Err(e) = std::fs::write(&args.out, &doc) {
        eprintln!("amcast-scenario: writing {}: {e}", args.out);
        std::process::exit(2);
    }
    println!("report written to {}", args.out);
    if outcomes.iter().any(|o| !o.passed) {
        std::process::exit(1);
    }
}

fn report_progress(o: &Outcome) {
    println!(
        "  {} {}: {}",
        if o.passed { "PASS" } else { "FAIL" },
        o.name,
        o.detail
    );
}
