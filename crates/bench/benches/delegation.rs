//! Delegated vs central provisioning fan-out: `peers` enclaves on one host,
//! provisioned either each against the origin AuthServer ("central") or
//! through one local delegate that amortises a single origin handshake
//! across the whole host ("delegated" — the delegate's own stand-up is
//! inside the timed region, so the comparison is honest end to end).
//!
//! The structural claim is asserted here, not just measured: delegated mode
//! must consume exactly **one** origin handshake per repetition regardless
//! of the peer count, while central consumes one per peer.
//!
//! Emits `BENCH_delegation.json` at the workspace root.
//! `ELIDE_BENCH_REPS` overrides the repetition count.
//!
//! Plain-main harness (`cargo bench --bench delegation`).

use elide_bench::{delegation_provisioning, env_or, print_row, write_rows, Row};

fn main() {
    let reps: usize = env_or("ELIDE_BENCH_REPS", 20);

    println!("delegation (reps={reps})");
    let mut rows = Vec::new();
    for peers in [2usize, 4, 8] {
        for row in delegation_provisioning(peers, reps) {
            print_row(&row, rows.is_empty());
            let handshakes = row.number("origin_handshakes").expect("origin_handshakes");
            if row.text("mode") == Some("delegated") {
                assert_eq!(
                    handshakes, 1.0,
                    "{peers} peers: delegated mode must cost exactly one origin handshake"
                );
            } else {
                assert_eq!(
                    handshakes, peers as f64,
                    "{peers} peers: central mode must cost one origin handshake per peer"
                );
            }
            rows.push(row);
        }
    }

    let params = Row::new().int("reps", reps as u64);
    let path =
        write_rows("delegation", "provisions_per_second", params, &rows).expect("write json");
    println!("\nwrote {}", path.display());
}
