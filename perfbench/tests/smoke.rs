//! Tiny-scale smoke run of every workload, untraced and traced: every
//! metric BENCHMARK.json names is printed with its unit, and no check
//! fails.

use serde::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["bulk-s1", "live-s2", "windowed-restart"];

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => {
            &entries
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        _ => panic!("not an object looking up {key}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        _ => panic!("not a list: {v:?}"),
    }
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    list(field(&doc, section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_owned(),
                text(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: u8) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string(), "--scale", "0.01"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    let result: Value = serde_json::from_str(last).unwrap();
    assert!(
        matches!(field(&result, "correct"), Value::Bool(true)),
        "{workload}: {last}"
    );
    assert!(
        matches!(field(&result, "failed"), Value::U64(0)),
        "{workload}: {last}"
    );
    assert!(
        !matches!(field(&result, "attempted"), Value::U64(0)),
        "{workload}: {last}"
    );
    let metrics = field(&result, "metrics");
    let section = if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = declared(section);
    assert!(!names.is_empty());
    for (name, unit) in &names {
        let m = field(metrics, name);
        assert_eq!(text(field(m, "unit")), unit, "{workload}: unit of {name}");
        assert!(
            matches!(
                field(m, "value"),
                Value::F64(_) | Value::U64(_) | Value::I64(_)
            ),
            "{workload}: {name} is not a number"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} "))
                    && l.ends_with(&format!(" {unit}"))),
            "{workload}: {name} not printed with its unit"
        );
    }
    match metrics {
        Value::Map(entries) => assert_eq!(entries.len(), names.len(), "{workload}: extra metrics"),
        _ => unreachable!(),
    }
}

#[test]
fn every_workload_untraced() {
    for w in WORKLOADS {
        smoke(w, 0);
    }
}

#[test]
fn every_workload_traced() {
    for w in WORKLOADS {
        smoke(w, 1);
    }
}
