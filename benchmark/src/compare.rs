//! `--compare A B`: do two sets of result files agree?
//!
//! Each side is one result file or a comma-separated list of them (runs
//! of one commit). A metric's value is the median over the side's runs;
//! its spread is the distance between the first and third quartile of
//! those runs as a share of their median (one run shows no spread).

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats;

/// `failed_frac` may grow by this much, absolute.
const FAILED_FRAC_SLACK: f64 = 0.001;

/// One workload over the runs of a side.
struct WorkloadRuns {
    name: String,
    /// Valid in every run.
    valid: bool,
    /// Worst `failed_frac` of any run.
    failed_frac: f64,
    /// Per end-to-end metric, a value per run.
    metrics: Vec<(String, Vec<f64>)>,
}

impl WorkloadRuns {
    fn values(&self, metric: &str) -> Option<&[f64]> {
        self.metrics
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| v.as_slice())
    }
}

/// Reads a comma-separated list of result files into one side.
fn load(list: &str) -> Result<Vec<WorkloadRuns>, String> {
    let mut side: Vec<WorkloadRuns> = Vec::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no workloads"))?;
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: workload without a name"))?;
            let at = match side.iter().position(|r| r.name == name) {
                Some(i) => i,
                None => {
                    side.push(WorkloadRuns {
                        name: name.to_string(),
                        valid: true,
                        failed_frac: 0.0,
                        metrics: Vec::new(),
                    });
                    side.len() - 1
                }
            };
            let runs = &mut side[at];
            runs.valid &= w.get("valid") == Some(&Json::Bool(true));
            runs.failed_frac = runs
                .failed_frac
                .max(w.get("failed_frac").and_then(Json::as_f64).unwrap_or(1.0));
            for (metric, m) in w.get("end_to_end").and_then(Json::as_obj).unwrap_or(&[]) {
                let Some(v) = m.get("value").and_then(Json::as_f64) else {
                    continue;
                };
                match runs.metrics.iter_mut().find(|(n, _)| n == metric) {
                    Some((_, vals)) => vals.push(v),
                    None => runs.metrics.push((metric.clone(), vec![v])),
                }
            }
        }
    }
    Ok(side)
}

/// Interquartile distance as a share of the median; `None` for one run.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = stats::quartiles(values)?;
    let m = stats::median(values)?;
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints one line per workload × end-to-end metric and returns whether
/// `b` holds every bound against `a`.
///
/// # Errors
///
/// Fails when a file cannot be read or parsed.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = true;
    for ra in &a {
        let name = &ra.name;
        let Some(rb) = b.iter().find(|r| r.name == *name) else {
            println!("{name} missing from the second set");
            ok = false;
            continue;
        };
        if !ra.valid || !rb.valid {
            println!("{name} valid {} {} INVALID", ra.valid, rb.valid);
            ok = false;
        }
        if rb.failed_frac > ra.failed_frac + FAILED_FRAC_SLACK {
            println!(
                "{name} failed_frac {} {} REGRESSION",
                ra.failed_frac, rb.failed_frac
            );
            ok = false;
        }
        for def in END_TO_END {
            let (Some(av), Some(bv)) = (ra.values(def.name), rb.values(def.name)) else {
                println!("{name} {} missing", def.name);
                ok = false;
                continue;
            };
            let (ma, mb) = (
                stats::median(av).unwrap_or(0.0),
                stats::median(bv).unwrap_or(0.0),
            );
            let worse = worsening(ma, mb, def.better);
            let widest = spread(av).into_iter().chain(spread(bv)).fold(0.0, f64::max);
            let verdict = if widest > def.bound {
                "unresolved"
            } else if worse > def.bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{name} {} {ma} {mb} {} change {:+.1}% bound {:.0}% spread {:.1}% {verdict}",
                def.name,
                def.unit,
                worse * 100.0,
                def.bound * 100.0,
                widest * 100.0,
            );
        }
    }
    Ok(ok)
}

/// `--calibrate LIST`: the run-to-run table of one set of result files,
/// as markdown rows: median, quartiles, spread and the largest deviation
/// from the median, per workload and end-to-end metric.
///
/// # Errors
///
/// Fails when a file cannot be read or parsed.
pub fn calibrate(list: &str) -> Result<(), String> {
    println!(
        "| workload | metric | unit | runs | median | q1 | q3 | spread | max deviation | bound |"
    );
    println!("|---|---|---|---:|---:|---:|---:|---:|---:|---:|");
    for runs in &load(list)? {
        let name = &runs.name;
        for def in END_TO_END {
            let Some(v) = runs.values(def.name) else {
                continue;
            };
            let m = stats::median(v).unwrap_or(0.0);
            let (q1, q3) = stats::quartiles(v).unwrap_or((m, m));
            let max_dev = v.iter().map(|x| (x - m).abs()).fold(0.0, f64::max) / m.abs();
            println!(
                "| {name} | {} | {} | {} | {m:.4} | {q1:.4} | {q3:.4} | {:.1} % | {:.1} % | {:.0} % |",
                def.name,
                def.unit,
                v.len(),
                spread(v).unwrap_or(0.0) * 100.0,
                max_dev * 100.0,
                def.bound * 100.0,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worsening(100.0, 80.0, Better::Higher), 0.2);
    }

    #[test]
    fn spread_is_the_interquartile_share() {
        assert_eq!(spread(&[5.0]), None);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0)); // (8.25 − 2.75) / 5.5
    }
}
