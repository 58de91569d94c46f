//! CI-friendly wrapper around the EPC-pressure sweep: runs a reduced
//! single-app version of `benches/epc_pressure.rs` (Sha1 only, few reps)
//! and gates on the structural invariants rather than absolute rates —
//! suitable for smoke jobs on noisy shared runners:
//!
//! * the warm sealed-restore path must beat the cold full-handshake launch
//!   at every oversubscription factor by [`MIN_SPEEDUP`] (the
//!   committed-number bench asserts 5x at 4x);
//! * eviction/reload counters must be zero at 1x and nonzero at 16x (the
//!   budget is actually exercising the EWB/ELDU cycle);
//! * throughput must stay finite and nonzero under thrash.
//!
//! Does NOT write `BENCH_epc_pressure.json` — committed numbers come from
//! the full bench (`cargo bench --bench epc_pressure`).

use elide_bench::{env_or, epc_pressure_elide, print_row};

/// Floor on the warm-over-cold relaunch speedup at every factor.
const MIN_SPEEDUP: f64 = 2.0;

fn main() {
    let reps: usize = env_or("ELIDE_BENCH_REPS", 5);

    let app = elide_apps::sha1_app::app();
    let rows = epc_pressure_elide(&app, reps);
    let mut failures = Vec::new();

    for (i, r) in rows.iter().enumerate() {
        print_row(r, i == 0);
        let [factor, speedup, mips, evictions, reloads] =
            ["factor", "speedup", "mips", "evictions", "reloads"].map(|k| r.number(k).expect(k));
        let app = r.text("app").expect("app");
        if speedup < MIN_SPEEDUP {
            failures.push(format!("{app} @{factor}x: warm speedup {speedup:.2}x < {MIN_SPEEDUP}x"));
        }
        if !(mips.is_finite() && mips > 0.0) {
            failures.push(format!("{app} @{factor}x: bogus mips {mips}"));
        }
        if factor == 1.0 && (evictions != 0.0 || reloads != 0.0) {
            failures.push(format!(
                "{app} @1x: unexpected paging (evictions={evictions} reloads={reloads})"
            ));
        }
        if factor == 16.0 && reloads == 0.0 {
            failures.push(format!("{app} @16x: budget never paged"));
        }
    }

    if failures.is_empty() {
        println!("epc_pressure gate OK ({} configs, floor {MIN_SPEEDUP}x)", rows.len());
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
