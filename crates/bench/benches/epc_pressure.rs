//! EPC pressure: enclave relaunch rates and execution throughput under a
//! bounded resident-page budget, at 1x/4x/16x oversubscription (page cap =
//! total REG pages / factor), for both builds:
//!
//! * `plain` — cold = ELF parse + load per cycle; warm = pre-parsed
//!   [`elide_enclave::loader::ImagePlan`] reload. No restore step.
//! * `elide` — cold = planned load + full DH/attestation handshake + GCM
//!   transfer (fresh sealed store per cycle); warm = planned load + sealed
//!   fast-path restore (`EGETKEY` + in-place decrypt, zero server contact).
//!
//! The throughput region runs the workload with the budget armed, so at 4x
//! and 16x the EWB/ELDU paging cost (and the translation-cache
//! invalidations it forces) lands inside the timed region — that MIPS
//! degradation is the cost curve this bench exists to track.
//!
//! Emits `BENCH_epc_pressure.json` at the workspace root.
//! `ELIDE_BENCH_REPS` overrides the per-config repetition count.
//!
//! Plain-main harness (`cargo bench --bench epc_pressure`).

use elide_bench::{env_or, epc_pressure_elide, epc_pressure_plain, print_row, write_rows, Row};

fn main() {
    let reps: usize = env_or("ELIDE_BENCH_REPS", 30);

    let apps = {
        use elide_apps::*;
        vec![aes_app::app(), sha1_app::app()]
    };

    println!("epc_pressure (reps={reps})");
    let mut rows = Vec::new();
    for app in &apps {
        for row in epc_pressure_plain(app, reps).into_iter().chain(epc_pressure_elide(app, reps)) {
            print_row(&row, rows.is_empty());
            rows.push(row);
        }
    }

    // The headline claim: at 4x oversubscription a warm start (sealed
    // fast-path) must beat the cold full-handshake launch by >= 5x.
    for r in
        rows.iter().filter(|r| r.text("build") == Some("elide") && r.number("factor") == Some(4.0))
    {
        let s = r.number("speedup").expect("speedup");
        let app = r.text("app").expect("app");
        assert!(s >= 5.0, "{app}: warm-start speedup {s:.2}x < 5x at 4x oversubscription");
    }

    let params = Row::new().int("reps", reps as u64);
    let path =
        write_rows("epc_pressure", "relaunches_per_second", params, &rows).expect("write json");
    println!("\nwrote {}", path.display());
}
