//! Runs the benchmark binary on a tiny configuration of every workload, the
//! way an automated harness would, and checks its output against
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Value::as_seq)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn temp_dir_for(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fnpr_bench_cli_{label}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fnpr-benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let manifest = manifest();
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads.len(), 4);
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&manifest, list);
        for workload in &workloads {
            let dir = temp_dir_for(&format!("{workload}_{trace}"));
            let out = run(
                &dir,
                &[
                    "--workload",
                    workload,
                    "--seed",
                    "5",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--size",
                    "tiny",
                ],
            );
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_map()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
            let metrics = result.get("metrics").and_then(Value::as_map).unwrap();
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            let record = stdout.lines().rev().nth(1).expect("a record line");
            assert!(record.starts_with("{\"record\": "), "{record}");
            assert!(
                !dir.join(".bench_work").exists(),
                "temporary state left behind"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = temp_dir_for("bad_args");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "acceptance", "--seed", "1"][..],
    ] {
        let out = run(&dir, args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
