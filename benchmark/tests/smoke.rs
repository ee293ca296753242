//! Drives the real binary in `--smoke` mode (tiny inputs, the same
//! code) and checks what it prints against `BENCHMARK.json`.

use bench::perf::{parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

fn loadbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_loadbench"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("loadbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "loadbench {args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    let Value::Object(entries) = value else {
        panic!("{key}: not inside an object");
    };
    let (_, v) = entries
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key}"));
    v
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `name → unit` of one of `BENCHMARK.json`'s metric lists.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let root = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let Value::Array(entries) = field(&root, list) else {
        panic!("{list} is not a list");
    };
    entries
        .iter()
        .map(|e| {
            let unit = if list == "workloads" { "why" } else { "unit" };
            (
                text(field(e, "name")).to_string(),
                text(field(e, unit)).to_string(),
            )
        })
        .collect()
}

/// One workload's share of the output.
struct Block {
    workload: String,
    checksum: String,
    /// `metric <workload> <name> <value> <unit>` lines, in print order.
    metric_lines: Vec<(String, String)>,
    result: Value,
}

fn blocks(stdout: &str) -> Vec<Block> {
    let mut out: Vec<Block> = Vec::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["workload", name, ..] => out.push(Block {
                workload: name.trim_end_matches(':').to_string(),
                checksum: String::new(),
                metric_lines: Vec::new(),
                result: Value::object(),
            }),
            ["verdict_checksum", _, sum] => {
                out.last_mut().expect("inside a block").checksum = sum.to_string()
            }
            ["metric", _, name, _value, unit] => out
                .last_mut()
                .expect("inside a block")
                .metric_lines
                .push((name.to_string(), unit.to_string())),
            _ if line.starts_with('{') => {
                out.last_mut().expect("inside a block").result =
                    parse(line).expect("the result line is JSON")
            }
            _ => {}
        }
    }
    out
}

/// Checks one block against the metric list it must print.
fn check_block(block: &Block, list: &str) {
    let want = declared(list);
    assert_eq!(
        keys(&block.result),
        ["correct", "attempted", "failed", "metrics"],
        "{}: result keys",
        block.workload
    );
    assert!(
        matches!(field(&block.result, "correct"), Value::Bool(true)),
        "{}: not correct",
        block.workload
    );
    assert!(matches!(field(&block.result, "failed"), Value::Int(0)));
    assert!(matches!(field(&block.result, "attempted"), Value::Int(n) if *n >= 1));

    let metrics = field(&block.result, "metrics");
    let got: BTreeMap<String, String> = keys(metrics)
        .into_iter()
        .map(|name| {
            let entry = field(metrics, name);
            assert_eq!(keys(entry), ["value", "unit"], "{name}");
            let finite = match field(entry, "value") {
                Value::Int(_) => true,
                Value::Float(f) => f.is_finite(),
                _ => false,
            };
            assert!(finite, "{name}: value is not a finite number");
            (name.to_string(), text(field(entry, "unit")).to_string())
        })
        .collect();
    assert_eq!(got, want, "{}: metrics against {list}", block.workload);

    // Printed by name exactly once, each a well-formed name.
    let printed: BTreeMap<String, String> = block.metric_lines.iter().cloned().collect();
    assert_eq!(
        printed.len(),
        block.metric_lines.len(),
        "a metric printed twice"
    );
    assert_eq!(printed, want, "{}: metric lines", block.workload);
    for name in want.keys() {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
}

#[test]
fn untraced_suite_matches_benchmark_json_and_checksums_follow_the_seed() {
    let first = blocks(&loadbench(&["--seed", "11"]));
    let workloads: Vec<String> = declared("workloads").into_keys().collect();
    let ran: BTreeSet<&str> = first.iter().map(|b| b.workload.as_str()).collect();
    assert_eq!(first.len(), workloads.len(), "each workload runs once");
    assert_eq!(ran, workloads.iter().map(String::as_str).collect());
    for block in &first {
        check_block(block, "end_to_end");
        assert!(block.checksum.starts_with("0x"), "{}", block.workload);
    }

    let again = blocks(&loadbench(&["--seed", "11"]));
    let other = blocks(&loadbench(&["--seed", "12"]));
    for ((a, b), c) in first.iter().zip(&again).zip(&other) {
        assert_eq!(a.checksum, b.checksum, "{}: same seed", a.workload);
        assert_ne!(a.checksum, c.checksum, "{}: another seed", a.workload);
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_leave_a_span_tree() {
    for workload in declared("workloads").keys() {
        let out = loadbench(&["--seed", "11", "--workload", workload, "--trace", "1"]);
        let run = blocks(&out);
        assert_eq!(run.len(), 1);
        check_block(&run[0], "per_layer");

        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/trace.json");
        let trace = parse(&std::fs::read_to_string(path).expect("trace.json is written"))
            .expect("trace.json parses");
        let Value::Array(spans) = trace else {
            panic!("trace.json is not a list");
        };
        assert!(!spans.is_empty(), "{workload}: no spans");
        let int = |span: &Value, key: &str| match field(span, key) {
            Value::Int(i) => *i,
            other => panic!("{key}: {other:?}"),
        };
        // id → request, for every span; ids are unique.
        let request_of: BTreeMap<i64, i64> = spans
            .iter()
            .map(|s| (int(s, "id"), int(s, "request")))
            .collect();
        assert_eq!(
            request_of.len(),
            spans.len(),
            "{workload}: duplicate span id"
        );
        let mut roots = BTreeSet::new();
        for span in &spans {
            assert!(int(span, "end_ns") >= int(span, "start_ns"));
            match field(span, "parent") {
                // A root: one per request.
                Value::Float(f) if f.is_nan() => {
                    assert!(
                        roots.insert(int(span, "request")),
                        "two roots for a request"
                    )
                }
                // A child: its parent exists, is a root of the same
                // request — so parents form a forest of depth one.
                Value::Int(parent) => {
                    assert_eq!(
                        request_of.get(parent),
                        Some(&int(span, "request")),
                        "{workload}: span {} has a parent outside its request",
                        int(span, "id")
                    );
                }
                other => panic!("parent: {other:?}"),
            }
        }
        let requests: BTreeSet<i64> = request_of.values().copied().collect();
        assert_eq!(
            roots, requests,
            "{workload}: every traced request has a root"
        );
    }
}
