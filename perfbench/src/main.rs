//! Runs one workload of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_launch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result object; the lines above it are the run's log, its provenance
//! header and its exact-count fingerprint. The full result is also written
//! to `<target dir>/perfbench/results/`.

#![forbid(unsafe_code)]

use elide_perfbench::provenance::Provenance;
use elide_perfbench::report::{json_str, Report};
use elide_perfbench::{run, Config};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    cfg: Config,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    })
}

fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) => root.join(d),
        None => root.join("perfbench/target"),
    }
}

fn counts_json(m: &BTreeMap<String, u64>) -> String {
    let items: Vec<String> = m.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", items.join(", "))
}

/// Compares this run's fingerprint with the last run of the same source,
/// workload and seed, and records it for the next. Returns whether the
/// counts differ.
fn check_fingerprint(dir: &Path, key: &str, rep: &Report) -> bool {
    let path = dir.join(format!("{key}.json"));
    let now = counts_json(&rep.fingerprint);
    let differs = std::fs::read_to_string(&path).is_ok_and(|before| before.trim() != now);
    if std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &now)).is_err() {
        eprintln!("warning: could not record the fingerprint at {}", path.display());
    }
    differs
}

/// Set in the environment of a run whose address-space layout is fixed.
const ASLR_OFF: &str = "PERFBENCH_ASLR_OFF";

/// Re-runs this process under `setarch -R`, which turns address-space
/// layout randomization off, when the host allows it. Where the binary and
/// its heap land moves the EV64 interpreter's speed by up to ±20% from one
/// process to the next; a fixed layout makes runs comparable. Returns the
/// child's exit code, or `None` to run in this process instead.
fn rerun_without_aslr() -> Option<ExitCode> {
    if std::env::var_os(ASLR_OFF).is_some() {
        return None;
    }
    let allowed =
        Command::new("setarch").args(["-R", "true"]).output().is_ok_and(|o| o.status.success());
    if !allowed {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("setarch")
        .arg("-R")
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(ASLR_OFF, "1")
        .status();
    let code = status.ok()?.code().and_then(|c| u8::try_from(c).ok()).unwrap_or(1);
    Some(ExitCode::from(code))
}

fn main() -> ExitCode {
    if let Some(code) = rerun_without_aslr() {
        return code;
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut rep = match run(&args.workload, &args.cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let prov = Provenance::collect(&root);
    let key = format!("{}-seed{}-{}", args.workload, args.cfg.seed, &prov.source_sha256[..16]);
    let mismatch = check_fingerprint(&target_dir(&root).join("perfbench/fingerprints"), &key, &rep);
    rep.set("fingerprint.mismatch", f64::from(u8::from(mismatch)));

    for line in &rep.notes {
        println!("{}: {line}", args.workload);
    }
    for e in &rep.errors {
        println!("{}: error: {e}", args.workload);
    }
    if mismatch {
        println!(
            "{}: FINGERPRINT MISMATCH: counts differ from the last run of this source and seed",
            args.workload
        );
    }
    let samples: BTreeMap<String, u64> =
        rep.samples.iter().map(|(k, v)| (k.clone(), *v as u64)).collect();
    let detail = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"aslr\": {}, {}, \"samples\": {}, \"fingerprint\": {}}}",
        json_str(&args.workload),
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.trace),
        json_str(if std::env::var_os(ASLR_OFF).is_some() { "off" } else { "on" }),
        prov.json_members(),
        counts_json(&samples),
        counts_json(&rep.fingerprint)
    );
    println!("{detail}");
    let result = match rep.result_json(args.cfg.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let results = target_dir(&root).join("perfbench/results");
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.trace)
    ));
    if std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(&file, format!("{detail}\n{result}\n")))
        .is_err()
    {
        eprintln!("warning: could not write {}", file.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
