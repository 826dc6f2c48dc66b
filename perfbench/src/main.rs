//! The LEIME benchmark: one command per workload pass set, timed end to
//! end with tracing off, or traced layer by layer from outside.
//!
//! ```text
//! leime-perfbench --workload <edge_hetero|fleet_failover|serving_flash>
//!     --seed <n> --seconds <s> --trace <0|1> [--rustc <v>] [--git-rev <r>]
//! leime-perfbench --digest --workload <name> --seed <n>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Traced runs also
//! write their spans and per-layer metrics to
//! `.bench_build/perfbench/trace-<workload>-<seed>.json`.

mod checks;
mod common;
mod edge;
mod fleet;
mod host;
mod inputs;
mod layers;
mod serving;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use common::{Opts, Outcome};
use host::{median, HostFacts};
use trace::Spans;

/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_build/perfbench";

pub const WORKLOADS: [&str; 3] = ["edge_hetero", "fleet_failover", "serving_flash"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
    rustc: String,
    git_rev: String,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        digest: false,
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            args.digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--rustc" => args.rustc = value,
            "--git-rev" => args.git_rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn run_workload(name: &str, opts: &Opts, spans: &mut Spans) -> leime::Result<Outcome> {
    match name {
        "edge_hetero" => edge::run(opts, spans),
        "fleet_failover" => fleet::run(opts, spans),
        _ => serving::run(opts, spans),
    }
}

/// `{name: {value, unit}}` in the given order.
fn metric_map(rows: &[(&str, f64, &str)]) -> serde_json::Value {
    let mut map = serde_json::Map::new();
    for &(name, value, unit) in rows {
        map.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
    serde_json::Value::Object(map)
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `{value, unit}` pair.
fn result_line(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let metrics = metric_map(metrics);
    serde_json::json!({
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    })
    .to_string()
}

fn write_trace(
    args: &Args,
    host: &HostFacts,
    spans: &Spans,
    rows: &[(&str, f64, &str)],
) -> Result<String, String> {
    let path = Path::new(TRACE_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
    let layers = metric_map(rows);
    let doc = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "host": host.to_json(),
        "per_layer": layers,
        "spans": spans.to_json(),
    });
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn digest_mode(args: &Args) -> leime::Result<()> {
    let parts = match args.workload.as_str() {
        "edge_hetero" => edge::digest(args.seed)?,
        "fleet_failover" => fleet::digest(args.seed)?,
        _ => serving::digest(args.seed)?,
    };
    for (what, hex) in parts {
        println!("digest {} seed {} {what} {hex}", args.workload, args.seed);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leime-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::detect(&args.rustc, &args.git_rev);
    println!("host {}", host.to_json());
    if args.digest {
        return match digest_mode(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("leime-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut spans = Spans::new(args.trace);
    let out = match run_workload(&args.workload, &opts, &mut spans) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("leime-perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}: {} passes, {} device-slots attempted, {} failed",
        args.workload,
        args.seed,
        out.run_walls.len(),
        out.attempted,
        out.failed
    );
    for (name, result) in &out.checks {
        match result {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => println!("check {name}: FAILED: {e}"),
        }
    }
    let rows: Vec<(&str, f64, &str)> = if args.trace {
        out.layers.rows()
    } else {
        vec![
            ("setup_s", out.setup_s, "s"),
            ("device_slots_per_s", median(&out.rates), "1/s"),
            ("peak_rss_mb", out.peak_rss_mib.unwrap_or(f64::NAN), "MiB"),
        ]
    };
    for (name, value, unit) in &rows {
        println!("metric {name} {value} {unit}");
    }
    if args.trace {
        match write_trace(&args, &host, &spans, &rows) {
            Ok(path) => println!("trace {path}"),
            Err(e) => eprintln!("leime-perfbench: cannot write trace: {e}"),
        }
    }
    println!("{}", result_line(&out, &rows));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(argv(
            "--workload fleet_failover --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "fleet_failover");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--workload edge_hetero --trace 2")).is_err());
        assert!(parse_args(argv("--workload edge_hetero --seconds 0")).is_err());
    }

    #[test]
    fn result_line_parses_with_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 12,
            failed: 0,
            ..Outcome::default()
        };
        let line = result_line(
            &out,
            &[("setup_s", 0.25, "s"), ("device_slots_per_s", 1.5e6, "1/s")],
        );
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let obj = v.as_object().unwrap();
        let mut keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["attempted"].as_u64(), Some(12));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(
            v["metrics"]["device_slots_per_s"]["unit"].as_str(),
            Some("1/s")
        );
    }

    /// Every metric this binary prints is declared in `BENCHMARK.json`,
    /// with the same unit, and vice versa.
    #[test]
    fn printed_metrics_match_the_benchmark_declaration() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            let mut v: Vec<(String, String)> = doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        let mut layers: Vec<(String, String)> = trace::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        layers.sort();
        assert_eq!(declared("per_layer"), layers);
        let mut e2e = vec![
            ("device_slots_per_s".to_string(), "1/s".to_string()),
            ("peak_rss_mb".to_string(), "MiB".to_string()),
            ("setup_s".to_string(), "s".to_string()),
        ];
        e2e.sort();
        assert_eq!(declared("end_to_end"), e2e);
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
