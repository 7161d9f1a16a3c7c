//! `--smoke` through the built binary: every workload at test scale,
//! untraced and traced, through the same code paths as a full run (child
//! processes per workload and per set-up repetition included), with no
//! failed check and exactly the metrics BENCHMARK.json declares.

use spt::Json;
use std::process::Command;

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {list}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn smoke_runs_every_workload_with_the_declared_metrics() {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let workloads = names(&spec, "workloads");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args([
                "--workload",
                "all",
                "--seed",
                "1",
                "--smoke",
                "--trace",
                trace,
            ])
            .output()
            .expect("the benchmark binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--trace {trace}: {stderr}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(
            line.get("failed").and_then(Json::as_u64),
            Some(0),
            "--trace {trace}: {stderr}"
        );
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() > 0);

        let Some(Json::Object(metrics)) = line.get("metrics") else {
            panic!("--trace {trace}: no metrics object");
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<String> = workloads
            .iter()
            .flat_map(|w| {
                names(&spec, list)
                    .into_iter()
                    .map(move |m| format!("{w}/{m}"))
            })
            .collect();
        assert_eq!(printed, declared, "--trace {trace}");
        if trace == "0" {
            for (k, v) in metrics {
                let x = v.get("value").and_then(Json::as_f64).unwrap();
                assert!(x.is_finite() && x != 0.0, "{k} = {x}");
            }
        }
    }
}
