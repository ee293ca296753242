//! Running several workloads: each in a child process of this same
//! binary, exactly as `BENCHMARK.json`'s command runs one, so that peak
//! RSS and set-up time mean the same in a suite as in a single run.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::{Args, Metrics};
use bench::perf::{parse, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    units: &BTreeMap<&str, &str>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always reads as a JSON number.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            units[name]
        );
    }
    out.push_str("}}");
    out
}

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// What a child run reported.
struct ChildRun {
    stdout: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and parses its result line.
fn child(args: &Args, workload: &str, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))
        .and_then(|line| parse(line).map_err(|e| format!("{workload} result line: {e}")));
    let result = match parsed {
        Ok(result) => result,
        Err(e) => {
            let stderr = String::from_utf8_lossy(&output.stderr);
            return Err(format!("{e} ({})\n{stdout}{stderr}", output.status));
        }
    };
    let correct = matches!(field(&result, "correct"), Some(Value::Bool(true)));
    let mut metrics = BTreeMap::new();
    if let Some(Value::Object(entries)) = field(&result, "metrics") {
        for (name, entry) in entries {
            let value = field(entry, "value")
                .and_then(number)
                .ok_or_else(|| format!("{workload} metric {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
    }
    Ok(ChildRun {
        correct: correct && output.status.success(),
        stdout,
        metrics,
    })
}

/// The suite: every workload once, output passed through. True when
/// every run was correct.
pub fn all_workloads(args: &Args) -> bool {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        match child(args, name, args.seed) {
            Ok(run) => {
                print!("{}", run.stdout);
                ok &= run.correct;
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    ok
}

/// The workloads a suite runs: the one `--workload` names, else all.
fn chosen(args: &Args) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
    WORKLOADS
        .into_iter()
        .enumerate()
        .filter(|(i, _)| args.workload.is_none_or(|w| w == *i))
        .map(|(_, w)| w)
}

/// `bound` of every end-to-end metric, from `BENCHMARK.json` at the
/// root of the checkout.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let root = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(entries)) = field(&root, "end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    let mut bounds = BTreeMap::new();
    for entry in entries {
        if let (Some(Value::Str(name)), Some(bound)) =
            (field(entry, "name"), field(entry, "bound").and_then(number))
        {
            bounds.insert(name.clone(), bound);
        }
    }
    Ok(bounds)
}

/// How much worse `b` is than `a`, as a share of `a`, for a metric
/// where lower (or higher) is better.
fn worsening(name: &str, a: f64, b: f64) -> f64 {
    let lower_is_better = !matches!(name, "lines_per_s" | "f1");
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// The A/A check: two sets of `runs` untraced suites on this build
/// (of `--workload` alone when one is named), run `i` of each set with
/// seed `args.seed + i`. Prints, per workload
/// and end-to-end metric, both medians, quartiles and the spread
/// (interquartile range ÷ median) against the metric's bound. False
/// when a spread (except `setup_s`'s) or the second median's
/// worsening exceeds its bound, or a run was incorrect.
pub fn aa(args: &Args, runs: usize) -> bool {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let args = Args {
        trace: false,
        ..args.clone()
    };
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<&str, [Vec<f64>; 2]>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..2 {
        for i in 0..runs {
            for (workload, _) in chosen(&args) {
                let seed = args.seed + i as u64;
                eprintln!("aa: set {set} run {i} {workload} seed {seed}");
                let run = match child(&args, workload, seed) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("{e}");
                        return false;
                    }
                };
                ok &= run.correct;
                // Every run made is reported, not only the summary.
                eprintln!("aa:   correct {} {:?}", run.correct, run.metrics);
                for (metric, _) in END_TO_END {
                    let Some(&value) = run.metrics.get(metric) else {
                        eprintln!("{workload} did not report {metric}");
                        return false;
                    };
                    values
                        .entry(workload)
                        .or_default()
                        .entry(metric)
                        .or_default()[set]
                        .push(value);
                }
            }
        }
    }
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>12} {:>8} | {:>12} {:>8} | {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "q1 A",
        "q3 A",
        "spread",
        "median B",
        "spread",
        "B vs A",
        "bound"
    );
    for (workload, metrics) in &values {
        for (metric, _) in END_TO_END {
            let [a, b] = &metrics[metric];
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let spread = |v: &[f64]| {
                if v.len() < 2 {
                    return (v[0], v[0], 0.0);
                }
                let (q1, q3) = quartiles(v);
                (q1, q3, (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE))
            };
            let (q1, q3, spread_a) = spread(a);
            let (_, _, spread_b) = spread(b);
            let drift = worsening(metric, median(a), median(b));
            let spread_ok = metric == "setup_s" || spread_a.max(spread_b) <= bound;
            let verdict = if spread_ok && drift <= bound {
                "ok"
            } else {
                ok = false;
                "EXCEEDS BOUND"
            };
            println!(
                "{workload:<14} {metric:<12} {:>12.4} {q1:>12.4} {q3:>12.4} {spread_a:>8.4} | {:>12.4} {spread_b:>8.4} | {drift:>8.4} {bound:>6.2}  {verdict}",
                median(a),
                median(b),
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back_with_exactly_the_contract_keys() {
        let metrics: Metrics = [("setup_s", 1.25), ("f1", 0.5)].into_iter().collect();
        let units: BTreeMap<&str, &str> = [("setup_s", "s"), ("f1", "ratio")].into_iter().collect();
        let line = result_line(true, 10, 0, &metrics, &units);
        assert!(!line.contains('\n'));
        let Value::Object(entries) = parse(&line).expect("valid JSON") else {
            panic!("not an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let root = Value::Object(entries);
        let f1 = field(field(&root, "metrics").unwrap(), "f1").unwrap();
        assert_eq!(field(f1, "value").and_then(number), Some(0.5));
        assert!(matches!(field(f1, "unit"), Some(Value::Str(u)) if u == "ratio"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!(worsening("p50_us", 100.0, 110.0) > 0.09);
        assert!(worsening("p50_us", 100.0, 90.0) < 0.0);
        assert!(worsening("lines_per_s", 100.0, 90.0) > 0.09);
        assert!(worsening("f1", 0.9, 0.95) < 0.0);
    }
}
