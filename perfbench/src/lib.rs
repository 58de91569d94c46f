//! # elide-perfbench
//!
//! The repository benchmark: four seeded workloads driven through the
//! workspace's public API, each checking every output it gets back.
//! `perfbench/README.md` lists the metrics, why each workload exists and
//! which end-to-end number each per-layer number should move.

#![forbid(unsafe_code)]

pub mod cold;
pub mod fixtures;
pub mod pool;
pub mod provenance;
pub mod provision;
pub mod report;
pub mod stats;
pub mod trace;
pub mod warm;

use report::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cold_launch", "warm_exec", "provision_mix", "pool_churn"];

/// Set-ups timed before the measured loop, and again after it; the run
/// reports their median as `setup_s`.
pub const SETUP_REPS: usize = 6;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of the workload's input stream.
    pub seed: u64,
    /// Measured duration, seconds. Every run also completes its
    /// fingerprint prefix, however short this is.
    pub seconds: f64,
    /// Traced run: record layer spans on alternate rounds.
    pub trace: bool,
}

/// Sets up and runs `workload`, returning what it measured.
///
/// # Errors
///
/// An unknown workload name or a set-up failure.
pub fn run(workload: &str, cfg: &Config) -> Result<Report, String> {
    let mut rep = Report::default();
    match workload {
        "cold_launch" => {
            measure(workload, cfg, &mut rep, cold::Fixture::new, |f, c, r| cold::run(f, c, r))?
        }
        "warm_exec" => measure(workload, cfg, &mut rep, warm::Fixture::new, warm::run)?,
        "provision_mix" => measure(workload, cfg, &mut rep, provision::Fixture::new, |f, c, r| {
            provision::run(f, c, r)
        })?,
        "pool_churn" => {
            measure(workload, cfg, &mut rep, pool::Fixture::new, |f, c, r| pool::run(f, c, r))?
        }
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
    rep.set("error_rate", rep.failed as f64 / rep.attempted.max(1) as f64);
    if cfg.trace {
        report_trace(&mut rep, trace::take());
    }
    Ok(rep)
}

/// Sets `workload` up [`SETUP_REPS`] times, runs it on the last fixture,
/// then times [`SETUP_REPS`] more set-ups, so that the set-ups see the host
/// in the states the run saw.
fn measure<T, E: std::fmt::Display>(
    workload: &str,
    cfg: &Config,
    rep: &mut Report,
    mut setup: impl FnMut() -> Result<T, E>,
    run: impl FnOnce(&mut T, &Config, &mut Report),
) -> Result<(), String> {
    let mut times = Vec::with_capacity(2 * SETUP_REPS);
    let mut timed = || {
        let t0 = std::time::Instant::now();
        let fx = setup().map_err(|e| format!("{workload} set-up: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        Ok::<T, String>(fx)
    };
    for _ in 1..SETUP_REPS {
        drop(timed()?);
    }
    let mut fx = timed()?;
    run(&mut fx, cfg, rep);
    drop(fx);
    for _ in 0..SETUP_REPS {
        drop(timed()?);
    }
    rep.set("setup_s", stats::median(&times));
    Ok(())
}

/// Per-operation accounting of the traced run: each layer's self time,
/// the root spans' self time (no layer), and their sum, the wall time.
fn report_trace(rep: &mut Report, t: trace::Trace) {
    let n = t.armed_ops().max(1) as f64;
    rep.set("trace.overhead_pct", t.overhead_pct());
    rep.set("trace.wall_ms", t.wall_s / n * 1e3);
    rep.set("trace.unattributed_ms", t.unattributed_s / n * 1e3);
    for layer in trace::LAYERS {
        rep.set(
            format!("trace.self_ms.{layer}"),
            t.self_s.get(layer).copied().unwrap_or(0.0) / n * 1e3,
        );
    }
    rep.samples("trace.wall_ms", t.armed_ops());
    let p50 = |name: &str| stats::ms(&t.durations(name), 0.5);
    let p99 = |name: &str| stats::ms(&t.durations(name), 0.99);
    for (metric, span) in [
        ("sgx.load_ms.elide.p50", "sgx.load.elide"),
        ("sgx.load_ms.plain.p50", "sgx.load.plain"),
        ("enclave.plan_ms.p50", "enclave.plan"),
        ("restore.ms.p50", "restore"),
        ("server.handshake_ms.p50", "server.handshake"),
        ("server.meta_ms.p50", "server.meta"),
        ("server.data_ms.p50", "server.data"),
        ("service.connect_ms.p50", "service.connect"),
        ("service.handshake_rtt_ms.p50", "service.handshake"),
        ("service.data_rtt_ms.p50", "service.data"),
        ("service.ticket_rtt_ms.p50", "service.ticket"),
        ("service.resume_rtt_ms.p50", "service.resume"),
        ("client.quote_ms.p50", "client.quote"),
    ] {
        rep.set(metric, p50(span));
        rep.samples(metric, t.durations(span).len());
    }
    for (metric, span) in [
        ("restore.ms.p99", "restore"),
        ("service.handshake_rtt_ms.p99", "service.handshake"),
        ("service.resume_rtt_ms.p99", "service.resume"),
    ] {
        rep.set(metric, p99(span));
    }
    rep.set("restore.self_ms.p50", stats::ms(&t.self_times("restore"), 0.5));
    rep.set("client.handshake_self_ms.p50", stats::ms(&t.self_times("client.full_handshake"), 0.5));
}
