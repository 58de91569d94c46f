//! End-to-end enclave launch latency: the full ECREATE→EADD/EEXTEND→EINIT
//! cycle for the plain build, and ECREATE→…→EINIT→provision (attest + DH +
//! GCM transfer)→restore for the SgxElide build. Image build, signing, and
//! server standup happen once, untimed — matching the paper's `time ./app`
//! methodology on pre-built binaries. Every elided run uses a fresh sealed
//! store, so each one pays the full first-launch provisioning handshake.
//!
//! This is the number the crypto-kernel work moves: EEXTEND measurement is
//! SHA-256-bound, EINIT is RSA-bound, provisioning is DH + AES-GCM-bound.
//!
//! Emits `BENCH_launch_latency.json` at the workspace root.
//! `ELIDE_BENCH_REPS` overrides the per-app run count (CI smoke uses 2).
//!
//! Plain-main harness (`cargo bench --bench launch_latency`).

use elide_bench::{
    env_or, prepare_elide, prepare_plain, print_row, stats, time_runs, write_rows, Row,
};
use elide_core::sanitizer::DataPlacement;

fn main() {
    let runs: usize = env_or("ELIDE_BENCH_REPS", 20);

    let apps = {
        use elide_apps::*;
        vec![aes_app::app(), sha1_app::app(), crackme::app()]
    };

    let mut rows = Vec::new();
    println!("launch_latency (runs={runs})");
    let mut push = |app: &str, build: &str, samples: Vec<f64>| {
        let s = stats(&samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        let row = Row::new()
            .str("app", app)
            .str("build", build)
            .int("runs", samples.len() as u64)
            .num("mean_ms", s.mean_ms, 3)
            .num("std_ms", s.std_ms, 3)
            .num("min_ms", min * 1e3, 3)
            .num("max_ms", max * 1e3, 3);
        print_row(&row, rows.is_empty());
        rows.push(row);
    };
    for app in &apps {
        // Plain: load + EEXTEND measurement + EINIT, zero workload reps.
        let plain = prepare_plain(app);
        plain.run_seconds(900, 0); // warmup
        let mut seed = 1000u64;
        let samples = time_runs(runs, || {
            std::hint::black_box(plain.run_seconds(seed, 0));
            seed += 1;
        });
        push(app.name, "plain", samples);

        // Elide: load + EINIT + full provisioning handshake + restore.
        let elide = prepare_elide(app, DataPlacement::Remote);
        elide.run_seconds(900, 0); // warmup
        let mut seed = 2000u64;
        let samples = time_runs(runs, || {
            std::hint::black_box(elide.run_seconds(seed, 0));
            seed += 1;
        });
        push(app.name, "elide", samples);
    }

    let params = Row::new().int("runs", runs as u64);
    let path = write_rows("launch_latency", "ms", params, &rows).expect("write json");
    println!("\nwrote {}", path.display());
}
