//! CI-friendly wrapper around the delegation bench: one peer count, few
//! reps, gating on the structural invariants rather than absolute rates —
//! suitable for smoke jobs on noisy shared runners:
//!
//! * delegated mode must consume exactly **one** origin handshake per
//!   repetition; central mode exactly one per peer — the whole point of
//!   the delegation tier, and a correctness property, not a speed one;
//! * delegated throughput must not fall below [`FLOOR`] × central
//!   throughput: the local path may never cost more than twice the origin
//!   path even with the delegate's stand-up amortised over a small host.
//!
//! Does NOT write `BENCH_delegation.json` — committed numbers come from
//! the full bench (`cargo bench --bench delegation`).

use elide_bench::{delegation_provisioning, env_or, print_row};

/// Floor on delegated over central throughput.
const FLOOR: f64 = 0.5;

fn main() {
    let reps: usize = env_or("ELIDE_BENCH_REPS", 3);
    let peers = 4usize;

    let rows = delegation_provisioning(peers, reps);
    let mut failures = Vec::new();
    let mut central_per_s = 0.0;
    let mut delegated_per_s = 0.0;

    for (i, r) in rows.iter().enumerate() {
        print_row(r, i == 0);
        let handshakes = r.number("origin_handshakes").expect("origin_handshakes");
        let per_s = r.number("provisions_per_s").expect("provisions_per_s");
        if r.text("mode") == Some("central") {
            central_per_s = per_s;
            if handshakes != peers as f64 {
                failures
                    .push(format!("central: {handshakes} origin handshakes/rep, expected {peers}"));
            }
        } else {
            delegated_per_s = per_s;
            if handshakes != 1.0 {
                failures.push(format!(
                    "delegated: {handshakes} origin handshakes/rep, expected exactly 1"
                ));
            }
        }
    }

    let ratio = if central_per_s > 0.0 { delegated_per_s / central_per_s } else { 0.0 };
    println!("delegated/central throughput ratio: {ratio:.2}x (floor {FLOOR}x)");
    if ratio < FLOOR {
        failures.push(format!("delegated throughput ratio {ratio:.2}x < floor {FLOOR}x"));
    }

    if failures.is_empty() {
        println!("delegation gate OK ({peers} peers, {reps} reps, floor {FLOOR}x)");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
