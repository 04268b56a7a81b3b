//! `amcast_bench`: the repo's benchmark.
//!
//! Launches in-process `liverun` deployments, drives them from a few
//! load-generator threads, and reports end-to-end metrics (tracing off)
//! or a per-layer ledger (traced run + layer replay). See
//! `benchmark/README.md` for the workloads, the metrics and the method.
//!
//! ```text
//! amcast_bench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! amcast_bench --all [--only NAME] [--seed N] [--quick] [--out FILE]
//! amcast_bench --compare A.json[,A2.json...] B.json[,B2.json...]
//! amcast_bench --calibrate R1.json,R2.json,...                     run-to-run table
//! ```

mod compare;
mod gen;
mod json;
mod layers;
mod live;
mod metrics;
mod proc;
mod report;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::{obj, Json};
use live::{LiveResult, RunOpts};
use report::Values;
use workload::Workload;

/// Discarded lead-in of every live run.
const WARMUP: Duration = Duration::from_secs(2);
/// Windows are one second: long enough to hold two of the deployment's
/// 500 ms checkpoints and a thousand samples at the slowest workload's
/// rate, short enough that ten fit a run.
const WINDOW: Duration = Duration::from_secs(1);
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1..i + 1 + n)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values(name, 1).map(|v| v[0].as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
        }
    }
}

fn opts(seed: u64, windows: usize, trace: bool, out_dir: &Path) -> RunOpts {
    RunOpts {
        seed,
        warmup: WARMUP,
        windows,
        window: WINDOW,
        trace,
        scratch: out_dir.join("tmp"),
    }
}

/// What one workload produced: either table may be empty when its pass
/// was not asked for.
struct WorkloadReport {
    w: Workload,
    valid: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Replicas that did not answer the read-back.
    notes: Vec<String>,
    end_to_end: Values,
    per_layer: Values,
    /// Per-window series of the untraced pass.
    windows: Vec<(&'static str, Vec<f64>)>,
    injected_delays: Vec<(String, String, f64)>,
}

impl WorkloadReport {
    fn new(w: &Workload) -> Self {
        WorkloadReport {
            w: w.clone(),
            valid: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            windows: Vec::new(),
            injected_delays: Vec::new(),
        }
    }

    fn absorb(&mut self, r: &LiveResult) {
        self.valid &= r.valid();
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.problems.extend(r.problems.iter().cloned());
        self.notes.extend(r.notes.iter().cloned());
        if !r.injected_delays.is_empty() {
            self.injected_delays = r.injected_delays.clone();
        }
    }

    fn to_json(&self) -> Json {
        obj([
            ("name", Json::from(self.w.name)),
            ("why", Json::from(self.w.why)),
            ("gated", Json::from(self.w.gated)),
            ("valid", Json::from(self.valid)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "failed_frac",
                Json::from(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("problems", Json::from(self.problems.clone())),
            ("notes", Json::from(self.notes.clone())),
            ("end_to_end", report::metrics_json(&self.end_to_end)),
            ("per_layer", report::metrics_json(&self.per_layer)),
            (
                "windows",
                obj(self
                    .windows
                    .iter()
                    .map(|(k, v)| (*k, Json::from(v.clone())))),
            ),
            (
                "injected_one_way_ms",
                Json::Arr(
                    self.injected_delays
                        .iter()
                        .map(|(from, to, ms)| {
                            obj([
                                ("from", Json::from(from.as_str())),
                                ("to", Json::from(to.as_str())),
                                ("ms", Json::from(*ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs this executable again with `args` and returns its standard
/// output. A live deployment gets a process to itself: a deployment that
/// was shut down leaves threads behind which burn CPU under the next.
fn child(args: &[String]) -> Result<(String, Option<i32>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    Ok((stdout, out.status.code()))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// The untraced pass: every end-to-end metric. Set-up is timed
/// `setups` times, all but the last in processes of their own.
fn untraced(
    w: &Workload,
    seed: u64,
    windows: usize,
    setups: usize,
    out_dir: &Path,
    rep: &mut WorkloadReport,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    for _ in 1..setups {
        let (out, code) = child(&strings(&[
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--out-dir",
            &out_dir.display().to_string(),
            "--setup-only",
        ]))?;
        let secs = out.trim().parse::<f64>();
        match (code, secs) {
            (Some(0), Ok(secs)) => setup_s.push(secs),
            _ => return Err(format!("a set-up run failed (exit {code:?})")),
        }
    }
    let r = live::run(w, &opts(seed, windows, false, out_dir), true)?;
    setup_s.push(r.setup_s);
    rep.absorb(&r);
    rep.end_to_end = report::end_to_end(&r, &setup_s);
    if r.single.completed == 0 || r.multi.completed == 0 {
        rep.valid = false;
        rep.problems
            .push("a sample stream is empty: nothing completed in the measured windows".into());
    }
    let ms = |us: &[f64]| us.iter().map(|v| v / 1e3).collect::<Vec<_>>();
    rep.windows = vec![
        ("ops_s", r.single.window_rates.clone()),
        ("p95_ms", ms(&r.single.window_p95_us)),
        ("multi_ops_s", r.multi.window_rates.clone()),
        ("setup_s", setup_s),
    ];
    Ok(())
}

/// The traced pass: stage tracing on, stats scraped, then the layer
/// replay; every per-layer metric. `untraced_p50_ms` is the workload's
/// latency with tracing off, the base of the tracing overhead.
fn traced(
    w: &Workload,
    seed: u64,
    windows: usize,
    untraced_p50_ms: f64,
    out_dir: &Path,
    rep: &mut WorkloadReport,
) -> Result<(), String> {
    let o = opts(seed, windows, true, out_dir);
    let r = live::run(w, &o, true)?;
    rep.absorb(&r);
    let mut tracer = layers::Tracer::new();
    let config = live::deployment_config(w, true, None)?;
    let replay = layers::replay_all(&mut tracer, w, &config, seed, &o.scratch);
    let path = out_dir.join(format!("trace_{}.jsonl", w.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    rep.per_layer = report::per_layer(&r, &replay, untraced_p50_ms);
    Ok(())
}

/// With `--trace 1` and no untraced run to compare with, the first third
/// of the time measures untraced latency in a process of its own.
/// Returns `(p50_ms, seconds spent)`.
fn reference_pass(
    w: &Workload,
    seed: u64,
    seconds: usize,
    out_dir: &Path,
    rep: &mut WorkloadReport,
) -> Result<(f64, usize), String> {
    let reference = (seconds / 3).max(2);
    let (out, code) = child(&strings(&[
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &reference.to_string(),
        "--trace",
        "0",
        "--setups",
        "1",
        "--out-dir",
        &out_dir.display().to_string(),
    ]))?;
    let line = out.lines().last().unwrap_or_default();
    let doc =
        Json::parse(line).map_err(|e| format!("untraced reference run (exit {code:?}): {e}"))?;
    let number = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    rep.valid &= doc.get("correct") == Some(&Json::Bool(true));
    rep.attempted += number(&["attempted"]) as u64;
    rep.failed += number(&["failed"]) as u64;
    Ok((number(&["metrics", "p50_ms", "value"]), reference))
}

/// One run, one deployment, as the acceptance driver asks for it:
/// prints the metric lines, then one JSON object as the last line.
fn one_run(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let name = args.value("--workload").expect("checked by the caller");
    let w = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = args.number("--seed", 1)?;
    if args.flag("--setup-only") {
        let r = live::run(&w, &opts(seed, 0, false, out_dir), false)?;
        println!("{}", r.setup_s);
        return Ok(true);
    }
    let seconds = args.number("--seconds", 10)?.clamp(2, 60) as usize;
    let mut rep = WorkloadReport::new(&w);
    let values = match args.value("--trace") {
        None | Some("0") => {
            let setups = args.number("--setups", SETUPS as u64)?.max(1) as usize;
            untraced(&w, seed, seconds, setups, out_dir, &mut rep)?;
            rep.end_to_end.clone()
        }
        Some("1") => {
            let (p50_ms, spent) = match args.value("--untraced-p50-ms") {
                Some(v) => (
                    v.parse().map_err(|_| "--untraced-p50-ms takes a number")?,
                    0,
                ),
                None => reference_pass(&w, seed, seconds, out_dir, &mut rep)?,
            };
            traced(
                &w,
                seed,
                (seconds - spent).max(2),
                p50_ms,
                out_dir,
                &mut rep,
            )?;
            rep.per_layer.clone()
        }
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    report::print_lines(w.name, &report::metrics_json(&values));
    for p in rep.problems.iter().chain(&rep.notes) {
        eprintln!("{}: {p}", w.name);
    }
    if let Some(path) = args.value("--report") {
        let mut text = String::new();
        rep.to_json().write(&mut text);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut line = String::new();
    obj([
        ("correct", Json::from(rep.valid)),
        ("attempted", Json::from(rep.attempted.max(1))),
        ("failed", Json::from(rep.failed)),
        ("metrics", report::metrics_json(&values)),
    ])
    .write(&mut line);
    println!("{line}");
    Ok(rep.valid)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn environment(seed: u64, windows: usize) -> Json {
    obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "kernel",
            Json::from(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed)),
        ("warmup_s", Json::from(WARMUP.as_secs_f64())),
        ("window_s", Json::from(WINDOW.as_secs_f64())),
        ("windows", Json::from(windows as u64)),
        ("trace_sample", Json::from(live::TRACE_SAMPLE)),
        (
            "replay_commands",
            Json::from(layers::REPLAY_COMMANDS as u64),
        ),
    ])
}

/// Runs one pass of `w` in a process of its own and reads its report.
fn pass(w: &Workload, extra: &[String], report_path: &Path) -> Result<Json, String> {
    let mut args = strings(&[
        "--workload",
        w.name,
        "--report",
        &report_path.display().to_string(),
    ]);
    args.extend_from_slice(extra);
    let (_, code) = child(&args)?;
    if !matches!(code, Some(0 | 1)) {
        return Err(format!("{}: run failed (exit {code:?})", w.name));
    }
    let text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    let _ = std::fs::remove_file(report_path);
    Json::parse(&text)
}

/// The untraced pass's report with the traced pass folded in: its
/// per-layer table, its attempts and failures, its problems and notes.
fn merge(untraced: Json, traced: &Json) -> Json {
    let number = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let attempted = number(&untraced, "attempted") + number(traced, "attempted");
    let failed = number(&untraced, "failed") + number(traced, "failed");
    let valid = [&untraced, traced]
        .iter()
        .all(|j| j.get("valid") == Some(&Json::Bool(true)));
    let both = |key: &str| -> Vec<Json> {
        [&untraced, traced]
            .iter()
            .flat_map(|j| j.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec())
            .collect()
    };
    let (problems, notes) = (both("problems"), both("notes"));
    let Json::Obj(pairs) = untraced else {
        return untraced;
    };
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| {
                let v = match k.as_str() {
                    "valid" => Json::from(valid),
                    "attempted" => Json::from(attempted),
                    "failed" => Json::from(failed),
                    "failed_frac" => Json::from(failed / attempted.max(1.0)),
                    "problems" => Json::Arr(problems.clone()),
                    "notes" => Json::Arr(notes.clone()),
                    "per_layer" => traced.get("per_layer").cloned().unwrap_or(v),
                    _ => v,
                };
                (k, v)
            })
            .collect(),
    )
}

/// Every workload (or `--only` one): untraced pass, traced pass, layer
/// replay, each live run in a process of its own; metric lines on
/// stdout and the full record in `--out`.
fn full_run(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let seed = args.number("--seed", 1)?;
    let quick = args.flag("--quick");
    let seconds = if quick { 2 } else { 10 };
    let only = args.value("--only");
    let workloads: Vec<Workload> = workload::all()
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {:?}", only.unwrap_or_default()));
    }
    let common = strings(&[
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--out-dir",
        &out_dir.display().to_string(),
    ]);
    let report_path = out_dir.join(format!("report-{}.json", std::process::id()));
    let mut reports = Vec::new();
    for w in &workloads {
        let mut extra = common.clone();
        extra.extend(strings(&[
            "--trace",
            "0",
            "--setups",
            if quick { "1" } else { "3" },
        ]));
        let untraced = pass(w, &extra, &report_path)?;
        let p50_ms = ["end_to_end", "p50_ms", "value"]
            .iter()
            .try_fold(&untraced, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let mut extra = common.clone();
        extra.extend(strings(&[
            "--trace",
            "1",
            "--untraced-p50-ms",
            &p50_ms.to_string(),
        ]));
        let traced = pass(w, &extra, &report_path)?;
        let rep = merge(untraced, &traced);
        for table in ["end_to_end", "per_layer"] {
            report::print_lines(w.name, rep.get(table).unwrap_or(&Json::Null));
        }
        let field = |k: &str| rep.get(k).cloned().unwrap_or(Json::Null);
        println!(
            "{} failed_frac {} frac",
            w.name,
            field("failed_frac").as_f64().unwrap_or(1.0)
        );
        println!("{} valid {}", w.name, field("valid") == Json::Bool(true));
        for link in field("injected_one_way_ms").as_arr().unwrap_or(&[]) {
            let s = |k: &str| link.get(k).and_then(Json::as_str).unwrap_or("?");
            let ms = link.get("ms").and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "{} injected_one_way_ms {}->{} {ms} ms",
                w.name,
                s("from"),
                s("to")
            );
        }
        reports.push(rep);
    }
    let valid = reports
        .iter()
        .all(|r| r.get("valid") == Some(&Json::Bool(true)));
    let doc = obj([
        ("valid", Json::from(valid)),
        ("env", environment(seed, seconds)),
        ("workloads", Json::Arr(reports)),
    ]);
    let out = args
        .value("--out")
        .map_or_else(|| out_dir.join("latest.json"), PathBuf::from);
    let mut text = String::new();
    doc.write_pretty(&mut text, 4);
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(valid)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(files) = args.values("--compare", 2) {
        return compare::compare(&files[0], &files[1]);
    }
    if let Some(list) = args.value("--calibrate") {
        return compare::calibrate(list).map(|()| true);
    }
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let result = if args.value("--workload").is_some() {
        one_run(args, &out_dir)
    } else if args.flag("--all") || args.value("--only").is_some() {
        full_run(args, &out_dir)
    } else {
        Err(
            "give --workload NAME, --all, --only NAME, --compare A B or --calibrate LIST"
                .to_string(),
        )
    };
    // Each run removes its own scratch directories; this takes the
    // parent away once the last one has.
    let _ = std::fs::remove_dir(out_dir.join("tmp"));
    result
}

fn main() -> ExitCode {
    match run(&Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("amcast_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the benchmark writes, `--compare` reads back unchanged.
    #[test]
    fn result_files_round_trip_through_the_compare_reader() {
        let w = workload::by_name("kv_small").unwrap();
        let mut rep = WorkloadReport::new(&w);
        rep.attempted = 1000;
        rep.end_to_end = metrics::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64 / 3.0))
            .collect();
        rep.windows = vec![("ops_s", vec![1.0, 2.0])];
        let doc = obj([("workloads", Json::Arr(vec![rep.to_json()]))]);
        let mut text = String::new();
        doc.write_pretty(&mut text, 4);
        let path =
            std::env::temp_dir().join(format!("amcast-bench-rt-{}.json", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let path = path.to_str().unwrap();
        // Identical sides: every metric found, every change zero.
        assert_eq!(compare::compare(path, path), Ok(true));
        // A side twice as slow regresses past every bound.
        let worse = text.replace("\"value\": ", "\"value\": 1");
        let worse_path = format!("{path}.worse");
        std::fs::write(&worse_path, worse).unwrap();
        assert_eq!(compare::compare(path, &worse_path), Ok(false));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(worse_path);
    }
}
