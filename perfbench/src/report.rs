//! The metric catalog and the result a run prints.
//!
//! The catalog here and `BENCHMARK.json` must list the same names and
//! units; the package tests check that they do, and a run refuses to
//! print a result that leaves a catalog metric out.

use crate::trace::LAYERS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with tracing off. What
/// the primary and secondary operation are depends on the workload; see
/// `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("primary_ms.p50", "ms"), ("secondary_ms.p50", "ms"), ("ops_per_s", "1/s")];

/// The instruction-bound apps `warm_exec` runs, with their per-app metrics.
pub const EXEC_APPS: [&str; 6] = ["AES", "DES", "Sha1", "XTEA", "JSON", "Merkle"];

/// Per-layer metrics, printed by every workload in the traced run. A
/// layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for name in ["sgx.load_ms.elide.p50", "sgx.load_ms.plain.p50"] {
        add(name, "ms");
    }
    for name in [
        "sgx.epc_pages.elide",
        "sgx.epc_pages.plain",
        "epc.evictions",
        "epc.reloads",
        "epc.clean_drops",
    ] {
        add(name, "count");
    }
    for name in ["enclave.plan_ms.p50", "restore.ms.p50", "restore.ms.p99", "restore.self_ms.p50"] {
        add(name, "ms");
    }
    add("restore.instructions.cold", "count");
    add("restore.instructions.warm", "count");
    for name in ["server.handshake_ms.p50", "server.meta_ms.p50", "server.data_ms.p50"] {
        add(name, "ms");
    }
    add("server.handshakes", "count");
    add("server.resumptions", "count");
    for name in [
        "service.connect_ms.p50",
        "service.handshake_rtt_ms.p50",
        "service.handshake_rtt_ms.p99",
        "service.data_rtt_ms.p50",
        "service.ticket_rtt_ms.p50",
        "service.resume_rtt_ms.p50",
        "service.resume_rtt_ms.p99",
        "client.quote_ms.p50",
        "client.handshake_self_ms.p50",
        "gen.lag_ms.p99",
        "gen.lag_ms.max",
    ] {
        add(name, "ms");
    }
    for app in EXEC_APPS {
        add(&format!("vm.mips.{app}.elide"), "Minstr/s");
        add(&format!("vm.mips.{app}.plain"), "Minstr/s");
        add(&format!("vm.elide_over_plain.{app}"), "ratio");
        add(&format!("vm.retired.{app}"), "count");
    }
    for build in ["elide", "plain"] {
        add(&format!("vm.blocks_translated.{build}"), "count");
        add(&format!("vm.blocks_entered.{build}"), "count");
        add(&format!("vm.trans_share.{build}"), "ratio");
    }
    for name in [
        "pool.hits",
        "pool.warm_starts",
        "pool.enclave_evictions",
        "pool.delegated_provisions",
        "pool.cold_provisions",
    ] {
        add(name, "count");
    }
    add("pool.hit_ratio", "ratio");
    add("pool.hit_ms.p50", "ms");
    add("delegation.served", "count");
    add("delegation.origin_handshakes", "count");
    add("trace.overhead_pct", "%");
    add("trace.wall_ms", "ms");
    add("trace.unattributed_ms", "ms");
    for layer in LAYERS {
        add(&format!("trace.self_ms.{layer}"), "ms");
    }
    add("error_rate", "failed/attempted");
    add("fingerprint.mismatch", "count");
    m
}

/// Whether a lower value of a per-layer metric is the better one.
pub fn lower_is_better(name: &str) -> bool {
    let higher = [
        "vm.mips.",
        "vm.trans_share.",
        "pool.hits",
        "pool.hit_ratio",
        "pool.delegated_provisions",
        "delegation.served",
        "server.resumptions",
    ];
    !higher.iter().any(|p| name.starts_with(p))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (checks included).
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<String, usize>,
    /// Counts that must repeat exactly for a seed.
    pub fingerprint: BTreeMap<String, u64>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records the sample count behind metric `name`.
    pub fn samples(&mut self, name: impl Into<String>, n: usize) {
        self.samples.insert(name.into(), n);
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// A human-readable line for the run's log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The contract's result object: every end-to-end metric (tracing
    /// off) or every per-layer metric (tracing on), by name and unit.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the run did not measure.
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let catalog: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn missing_end_to_end_metric_is_refused() {
        let mut r = Report { attempted: 1, ..Report::default() };
        assert!(r.result_json(false).is_err());
        for (n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        let json = r.result_json(false).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(r
            .result_json(true)
            .unwrap()
            .contains("\"pool.hits\": {\"value\": 0, \"unit\": \"count\"}"));
    }
}
