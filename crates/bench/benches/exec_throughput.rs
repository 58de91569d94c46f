//! Raw execution-engine throughput (instructions per second) on the
//! instruction-bound paper workloads. Three rows per app:
//!
//! * `interp`  — plain build, per-instruction interpreter loop
//! * `plain`   — plain build, superblock translation (the default engine)
//! * `elide`   — SgxElide-protected build after restore, superblocks
//!
//! Launch and restore are *excluded* from the timed region: this isolates
//! the execution engine itself, and the `plain`/`interp` ratio is the
//! speedup the superblock translator buys over the decode-cache
//! interpreter.
//!
//! Each repetition is timed separately and the **minimum** per-rep time is
//! reported: on shared machines the distribution is one-sided (interference
//! only ever adds time), so the minimum is the most stable estimate of the
//! engine's actual speed.
//!
//! Emits `BENCH_exec_throughput.json` at the workspace root for CI
//! artifact upload. `ELIDE_BENCH_REPS` overrides the per-app repetition
//! count (CI smoke runs use a tiny value).
//!
//! Plain-main harness (`cargo bench --bench exec_throughput`).

use elide_apps::harness::{launch_plain, launch_protected};
use elide_bench::{best_of, env_or, print_row, write_rows, Row};
use elide_core::sanitizer::DataPlacement;
use elide_enclave::EnclaveRuntime;
use elide_vm::interp::Engine;
use std::collections::HashMap;

/// Times `reps` workload repetitions and returns the row built from the
/// fastest one.
fn exec_row(
    name: &str,
    build: &str,
    rt: &mut EnclaveRuntime,
    indices: &HashMap<String, u64>,
    reps: usize,
) -> Row {
    let (seconds, instructions) = best_of(name, rt, indices, reps);
    Row::new()
        .str("app", name)
        .str("build", build)
        .int("instructions", instructions)
        .num("seconds", seconds, 6)
        .num("mips", instructions as f64 / seconds / 1e6, 3)
}

fn main() {
    let reps: usize = env_or("ELIDE_BENCH_REPS", 30);

    // The crypto kernels: tight arithmetic loops over enclave data, where
    // fetch/decode/dispatch dominates an interpreter's runtime — plus the
    // memory-bound apps (JSON scan, Merkle build) whose hot loops are bulk
    // copies/compares the sealed intrinsics accelerate.
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

    let mut rows = Vec::new();
    println!("exec_throughput (reps={reps}, best-of-rep)");
    let mut record = |row: Row| {
        print_row(&row, rows.is_empty());
        rows.push(row);
    };

    for app in &apps {
        // Plain build, interpreter engine: the pre-translation baseline.
        let mut p = launch_plain(app, 42).expect("launch");
        p.runtime.set_engine(Engine::Interp);
        record(exec_row(app.name, "interp", &mut p.runtime, &p.indices, reps));

        // Same build and enclave, superblock engine.
        p.runtime.set_engine(Engine::Superblock);
        record(exec_row(app.name, "plain", &mut p.runtime, &p.indices, reps));

        // SgxElide build: launch + restore untimed, same timed region.
        let mut p = launch_protected(app, DataPlacement::Remote, 42).expect("launch");
        p.restore().expect("restore");
        record(exec_row(app.name, "elide", &mut p.app.runtime, &p.indices, reps));
    }

    // Intrinsic-off ("soft") rows for the bulk-intrinsic apps: same
    // workload, same outputs, but every MEMCPY/MEMCMP/SHA256_COMPRESS is
    // an Elc loop. The plain/soft gap is what the sealed intrinsics buy.
    {
        use elide_apps::harness::App;
        use elide_apps::{json_app, merkle_app};
        type Variant = (fn(bool) -> App, &'static str);
        let variants: [Variant; 2] =
            [(json_app::app_with, "JSON"), (merkle_app::app_with, "Merkle")];
        for (build, name) in variants {
            let soft = build(false);
            let mut p = launch_plain(&soft, 42).expect("launch");
            record(exec_row(name, "soft", &mut p.runtime, &p.indices, reps));
        }
    }

    let params = Row::new().int("reps", reps as u64);
    let path = write_rows("exec_throughput", "instructions_per_second", params, &rows)
        .expect("write json");
    println!("\nwrote {}", path.display());
}
