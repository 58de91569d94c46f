//! The benchmark's own checks: every workload emits every metric with
//! its unit, a broken restore cannot pass silently, the load generator
//! stays within `nproc`, and the exact-count fingerprint repeats.

#![forbid(unsafe_code)]

use elide_perfbench::report::{lower_is_better, per_layer, Report, END_TO_END};
use elide_perfbench::{cold, run, Config, WORKLOADS};

fn short(seed: u64, trace: bool) -> Config {
    Config { seed, seconds: 0.2, trace }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\"");
        let higher =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"higher\"");
        assert!(
            json.contains(&entry) || json.contains(&higher),
            "BENCHMARK.json lacks {name} ({unit})"
        );
    }
    let catalog = per_layer();
    for (name, unit) in &catalog {
        let better = if lower_is_better(name) { "lower" } else { "higher" };
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"better\"").count(),
        END_TO_END.len() + catalog.len(),
        "extra metrics"
    );
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
}

fn assert_emits_catalog(workload: &str, rep: &Report, traced: bool) {
    let result = rep.result_json(traced).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let names: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    for (name, unit) in names {
        let prefix = format!("\"{name}\": {{\"value\": ");
        let at = result.find(&prefix).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &result[at + prefix.len()..];
        assert!(
            rest.contains(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
        if !traced {
            let value: f64 = rest[..rest.find(',').expect("value ends")].parse().expect("number");
            assert!(value > 0.0, "{workload}: end-to-end metric {name} is {value}");
        }
    }
    assert!(result.starts_with("{\"correct\": true,"), "{workload}: {:?}", rep.errors);
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let rep = run(workload, &short(7, traced)).expect("run");
            assert_eq!(rep.failed, 0, "{workload}: {:?}", rep.errors);
            assert_emits_catalog(workload, &rep, traced);
        }
    }
}

#[test]
fn restore_against_a_server_pinned_to_the_wrong_mrenclave_is_counted() {
    let mut fx = cold::Fixture::new().expect("fixture");
    // Each app now talks to the server of another app: attestation shows
    // the wrong MRENCLAVE, so every elided launch must fail its restore.
    fx.servers.rotate_left(1);
    let mut rep = Report::default();
    cold::run(&fx, &short(3, false), &mut rep);
    let elided = rep.attempted / 2;
    assert!(rep.failed >= elided, "{} of {} attempts failed", rep.failed, rep.attempted);
    assert!(rep.failed < rep.attempted, "plain launches still succeed");
    rep.set("setup_s", 1.0); // set-up is not timed when the fixture is built by hand
    let result = rep.result_json(false).expect("metrics measured");
    assert!(result.starts_with("{\"correct\": false,"), "{result}");
}

#[test]
fn load_generator_stays_within_nproc_threads_and_connections() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let rep = run("provision_mix", &short(5, false)).expect("run");
    assert_eq!(rep.failed, 0, "{:?}", rep.errors);
    let threads = rep.values["gen.threads"];
    let peak = rep.values["gen.peak_connections"];
    assert!(threads >= 1.0 && threads <= nproc, "{threads} client threads on {nproc} cpus");
    assert!(peak >= 1.0 && peak <= nproc, "{peak} connections open at once on {nproc} cpus");
}

#[test]
fn fingerprint_repeats_for_a_seed() {
    for workload in ["cold_launch", "warm_exec", "pool_churn"] {
        let a = run(workload, &short(11, false)).expect("run");
        let b = run(workload, &short(11, false)).expect("run");
        assert!(!a.fingerprint.is_empty(), "{workload}: empty fingerprint");
        assert_eq!(a.fingerprint, b.fingerprint, "{workload}: counts differ for one seed");
    }
}
