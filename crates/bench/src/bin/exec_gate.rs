//! CI regression gate for execution throughput: re-measures the
//! interp/superblock engines on the crypto workloads and fails (exit 1) if
//! the superblock speedup has regressed by more than the tolerance against
//! the tracked `BENCH_exec_throughput.json` at the workspace root.
//!
//! Absolute MIPS are machine-dependent — CI runners and dev boxes differ
//! by integer factors — so the gate compares the **plain/interp ratio**
//! (translator speedup over the interpreter on the same machine, same
//! binary, same run), which is stable across hosts. A translator change
//! that loses >20% of its speedup fails the gate even on a faster machine.
//!
//! Each app also gets an oversubscribed row: the same workload re-runs
//! under a 4x page deficit (`EpcBudget` at resident/4). That row gates
//! behaviour, not speed — the run must still pass the workload's
//! differential checks, must actually page (evictions > 0, no reload
//! failures), and must not collapse past a generous slowdown ceiling
//! (an eviction ping-pong or paging livelock blows through it long
//! before correctness breaks).
//!
//! Two further row families gate the PR-9 fast path:
//!
//! * an **elide/plain** ratio row for XTEA (the former fixed-gap
//!   offender): the protected build's MIPS relative to the plain build,
//!   compared against the tracked ratio with the same tolerance.
//! * **intrinsic on/off** rows for the bulk-intrinsic apps (JSON,
//!   Merkle): the wall-clock speedup of the intrinsic build over the
//!   soft build must stay above an absolute floor — the sealed
//!   intrinsics must keep paying for themselves on the same machine,
//!   same binary, same run.
//!
//! `ELIDE_BENCH_REPS` sets the per-app repetitions (default 5 here;
//! best-of). The thresholds are the constants below.

use elide_apps::harness::{launch_plain, launch_protected, App};
use elide_bench::{best_of, env_or, read_rows, workspace_root, EXEC_GATED};
use elide_core::sanitizer::DataPlacement;
use elide_crypto::rng::SeededRandom;
use elide_vm::interp::Engine;
use sgx_sim::budget::EpcBudget;
use std::collections::HashMap;
use std::process::ExitCode;

/// Allowed fractional loss of a tracked ratio.
const TOLERANCE: f64 = 0.20;
/// Ceiling on the 4x-oversubscribed slowdown vs the unbudgeted superblock
/// run.
const EPC_MAX_SLOWDOWN: f64 = 50.0;
/// Minimum intrinsic-on wall-clock speedup over the soft build.
const INTRIN_FLOOR: f64 = 1.15;

fn main() -> ExitCode {
    let reps: usize = env_or("ELIDE_BENCH_REPS", 5);

    // `(app, build) -> mips` from the tracked file; every row the gate
    // compares against must be there before anything is measured.
    let tracked_path = workspace_root().join("BENCH_exec_throughput.json");
    let tracked: HashMap<(&str, &str), f64> = match read_rows(&tracked_path) {
        Ok((_, rows)) => EXEC_GATED
            .into_iter()
            .filter_map(|(app, build)| {
                let row = rows
                    .iter()
                    .find(|r| r.text("app") == Some(app) && r.text("build") == Some(build))?;
                Some(((app, build), row.number("mips")?))
            })
            .collect(),
        Err(e) => {
            eprintln!("exec_gate: cannot read {}: {e}", tracked_path.display());
            return ExitCode::FAILURE;
        }
    };
    let missing: Vec<_> = EXEC_GATED.iter().filter(|k| !tracked.contains_key(k)).collect();
    if !missing.is_empty() {
        eprintln!("exec_gate: {missing:?} missing from the tracked JSON — re-run the bench");
        return ExitCode::FAILURE;
    }

    let apps = {
        use elide_apps::*;
        vec![
            aes_app::app(),
            des_app::app(),
            sha1_app::app(),
            xtea::app(),
            json_app::app(),
            merkle_app::app(),
        ]
    };

    println!("exec_gate (reps={reps}, tolerance={:.0}%)", TOLERANCE * 100.0);
    println!("{:<14} {:>14} {:>14} {:>10}", "app", "tracked-ratio", "fresh-ratio", "verdict");

    let mut failed = false;
    for app in &apps {
        let tracked_ratio = tracked[&(app.name, "plain")] / tracked[&(app.name, "interp")];

        let mut p = launch_plain(app, 42).expect("launch");
        p.runtime.set_engine(Engine::Interp);
        let (interp_s, _) = best_of(app.name, &mut p.runtime, &p.indices, reps);
        p.runtime.set_engine(Engine::Superblock);
        let (plain_s, _) = best_of(app.name, &mut p.runtime, &p.indices, reps);
        let fresh_ratio = interp_s / plain_s; // same instruction count cancels

        let ok = fresh_ratio >= tracked_ratio * (1.0 - TOLERANCE);
        println!(
            "{:<14} {:>13.2}x {:>13.2}x {:>10}",
            app.name,
            tracked_ratio,
            fresh_ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;

        // Oversubscribed row: same workload, 4x page deficit. The
        // workload's own differential checks panic on any wrong output;
        // the gate adds the paging invariants and the slowdown ceiling.
        let total = p.runtime.enclave().resident_reg_pages();
        let mut budget_rng = SeededRandom::new(0xE9C);
        p.runtime
            .set_epc_budget(EpcBudget::new((total / 4).max(1), &mut budget_rng))
            .expect("arm 4x budget");
        let (budget_s, _) = best_of(app.name, &mut p.runtime, &p.indices, reps);
        let stats = p.runtime.epc_budget().expect("armed").stats();
        let slowdown = budget_s / plain_s;
        let ok_epc =
            stats.evictions > 0 && stats.reload_failures == 0 && slowdown <= EPC_MAX_SLOWDOWN;
        println!(
            "{:<14} {:>14} {:>13.2}x {:>10}",
            "  @4x-EPC",
            format!("{} evictions", stats.evictions),
            slowdown,
            if ok_epc { "ok" } else { "FAILED" }
        );
        failed |= !ok_epc;
    }

    // Elide/plain ratio row for XTEA: the protected build must hold its
    // tracked fraction of plain throughput (instruction counts differ
    // between builds, so this compares MIPS, not wall seconds).
    {
        let app = elide_apps::xtea::app();
        let tracked_ratio = tracked[&("XTEA", "elide")] / tracked[&("XTEA", "plain")];
        let mut plain = launch_plain(&app, 42).expect("launch");
        let (plain_s, plain_i) = best_of(app.name, &mut plain.runtime, &plain.indices, reps);
        let mut prot = launch_protected(&app, DataPlacement::Remote, 42).expect("launch protected");
        prot.restore().expect("restore");
        let (elide_s, elide_i) = best_of(app.name, &mut prot.app.runtime, &prot.indices, reps);
        let fresh_ratio = (elide_i as f64 / elide_s) / (plain_i as f64 / plain_s);
        let ok = fresh_ratio >= tracked_ratio * (1.0 - TOLERANCE);
        println!(
            "{:<14} {:>13.2}x {:>13.2}x {:>10}",
            "XTEA elide",
            tracked_ratio,
            fresh_ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;
    }

    // Intrinsic on/off rows: the sealed bulk intrinsics must keep
    // delivering at least `INTRIN_FLOOR` wall-clock speedup over the soft
    // builds (same workload, identical outputs, same machine and run).
    {
        use elide_apps::{json_app, merkle_app};
        type Variant = (fn(bool) -> App, &'static str);
        let variants: [Variant; 2] =
            [(json_app::app_with, "JSON"), (merkle_app::app_with, "Merkle")];
        for (build, name) in variants {
            let mut on = launch_plain(&build(true), 42).expect("launch");
            let (on_s, _) = best_of(name, &mut on.runtime, &on.indices, reps);
            let mut off = launch_plain(&build(false), 42).expect("launch");
            let (off_s, _) = best_of(name, &mut off.runtime, &off.indices, reps);
            let speedup = off_s / on_s;
            let ok = speedup >= INTRIN_FLOOR;
            println!(
                "{:<14} {:>13.2}x {:>13.2}x {:>10}",
                format!("{name} intrin"),
                INTRIN_FLOOR,
                speedup,
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
    }

    if failed {
        eprintln!("exec_gate: superblock speedup regressed >{:.0}%", TOLERANCE * 100.0);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
