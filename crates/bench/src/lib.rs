//! # elide-bench
//!
//! Measurement helpers shared by the paper-table binaries (`table1`,
//! `table2`, `figures`), the plain-main benches and the CI gates. Each
//! table/figure of the SgxElide paper maps to one entry point here; see
//! `EXPERIMENTS.md` at the repository root for the index.
//!
//! Every tracked `BENCH_*.json` is one [`Row`] schema: [`write_rows`]
//! writes a provenance header and the result rows, [`read_rows`] reads
//! them back.

#![forbid(unsafe_code)]
use elide_apps::harness::{launch_protected, App};
use elide_apps::run_workload;
use elide_core::sanitizer::{sanitize, DataPlacement};
use elide_core::whitelist::Whitelist;
use elide_crypto::rng::SeededRandom;
use elide_elf::ElfFile;
use elide_enclave::runtime::EnclaveRuntime;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Mean and standard deviation of a sample, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample mean (ms).
    pub mean_ms: f64,
    /// Sample standard deviation (ms).
    pub std_ms: f64,
}

/// Computes mean/stddev over raw samples in seconds.
pub fn stats(samples: &[f64]) -> Stats {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    Stats { mean_ms: mean * 1e3, std_ms: var.sqrt() * 1e3 }
}

/// Times `f` over `runs` executions, returning per-run seconds.
pub fn time_runs<F: FnMut()>(runs: usize, mut f: F) -> Vec<f64> {
    let mut out = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// One row of Table 1 (static size characteristics).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Guest assembly lines (the "TC LOC" analog).
    pub asm_loc: usize,
    /// Function symbols in the trusted component.
    pub tc_functions: usize,
    /// Text-section bytes.
    pub tc_bytes: u64,
    /// Functions the sanitizer redacted.
    pub sanitized_functions: usize,
    /// Bytes the sanitizer redacted.
    pub sanitized_bytes: u64,
}

/// Computes a Table 1 row for one benchmark.
///
/// # Panics
///
/// Panics if the build or sanitization pipeline fails (benchmark harness
/// context).
pub fn table1_row(app: &App, whitelist: &Whitelist) -> Table1Row {
    let image = app.build_elide_image().expect("build");
    let elf = ElfFile::parse(image.clone()).expect("parse");
    let tc_functions = elf.function_symbols().count();
    let tc_bytes = elf.section_by_name(".text").expect(".text").sh_size;
    let mut rng = SeededRandom::new(0xBE7C);
    let out = sanitize(&image, whitelist, DataPlacement::Remote, &mut rng).expect("sanitize");
    Table1Row {
        name: app.name,
        asm_loc: app.asm.lines().filter(|l| !l.trim().is_empty()).count(),
        tc_functions,
        tc_bytes,
        sanitized_functions: out.sanitized_functions.len(),
        sanitized_bytes: out.sanitized_functions.iter().map(|(_, s)| s).sum(),
    }
}

/// Measures sanitize time over `runs` (Table 2, "Sanitize Time").
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn sanitize_times(app: &App, placement: DataPlacement, runs: usize) -> Stats {
    let image = app.build_elide_image().expect("build");
    let whitelist = Whitelist::from_dummy_enclave().expect("whitelist");
    let mut rng = SeededRandom::new(7);
    let samples = time_runs(runs, || {
        let out = sanitize(&image, &whitelist, placement, &mut rng).expect("sanitize");
        std::hint::black_box(out.image.len());
    });
    stats(&samples)
}

/// Measures restore time over `runs` fresh launches (Table 2, "Restore
/// Time"). Each run launches a new sanitized enclave (fresh sealed store)
/// and times only the `elide_restore` call.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn restore_times(app: &App, placement: DataPlacement, runs: usize) -> Stats {
    let mut samples = Vec::with_capacity(runs);
    for run in 0..runs {
        let mut p = launch_protected(app, placement, 1000 + run as u64).expect("launch");
        let t0 = Instant::now();
        p.restore().expect("restore");
        samples.push(t0.elapsed().as_secs_f64());
    }
    stats(&samples)
}

/// A plain build prepared offline (image built and signed once); only the
/// runtime — load, `EINIT`, workload — is timed, matching the paper's
/// methodology (`time ./app` on a pre-built binary).
pub struct PreparedPlain {
    app: App,
    image: Vec<u8>,
    sigstruct: sgx_sim::sigstruct::SigStruct,
    cpu: sgx_sim::SgxCpu,
    indices: HashMap<String, u64>,
}

/// Builds and signs the plain configuration once.
///
/// # Panics
///
/// Panics if the build pipeline fails.
pub fn prepare_plain(app: &App) -> PreparedPlain {
    use elide_crypto::rsa::RsaKeyPair;
    let image = app.build_plain_image().expect("build");
    let mut rng = SeededRandom::new(0xF1);
    let cpu = sgx_sim::SgxCpu::new(&mut rng);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let sigstruct = elide_enclave::loader::sign_enclave(&image, &vendor, 1, 1).expect("sign");
    PreparedPlain { app: app.clone(), image, sigstruct, cpu, indices: app.plain_indices() }
}

impl PreparedPlain {
    /// One timed run: enclave creation + `reps` workload iterations.
    ///
    /// # Panics
    ///
    /// Panics if the run fails.
    pub fn run_seconds(&self, seed: u64, reps: usize) -> f64 {
        let t0 = Instant::now();
        let loaded = elide_enclave::loader::load_enclave(&self.cpu, &self.image, &self.sigstruct)
            .expect("load");
        let mut rt = EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(seed)));
        for _ in 0..reps {
            std::hint::black_box(run_workload(self.app.name, &mut rt, &self.indices));
        }
        t0.elapsed().as_secs_f64()
    }
}

/// A protected build prepared offline: sanitized + signed package, platform
/// and server stood up once. Timed runs cover load, `elide_restore`, and
/// the workload.
pub struct PreparedElide {
    app: App,
    package: elide_core::api::ProtectedPackage,
    platform: elide_core::api::Platform,
    server: std::sync::Arc<elide_core::server::AuthServer>,
    indices: HashMap<String, u64>,
}

/// Builds, protects, and stands up the server once.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn prepare_elide(app: &App, placement: DataPlacement) -> PreparedElide {
    use elide_core::api::{protect, Mode, Platform};
    use elide_crypto::rsa::RsaKeyPair;
    use sgx_sim::quote::AttestationService;
    let image = app.build_elide_image().expect("build");
    let mut rng = SeededRandom::new(0xF2);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, placement, &mut rng).expect("protect");
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = std::sync::Arc::new(package.make_server(ias));
    PreparedElide { app: app.clone(), package, platform, server, indices: app.protected_indices() }
}

impl PreparedElide {
    /// One timed run: enclave creation + restore + `reps` workload
    /// iterations, with a fresh sealed store (first-launch behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the run fails.
    pub fn run_seconds(&self, seed: u64, reps: usize) -> f64 {
        use elide_core::protocol::InProcessTransport;
        use elide_core::restore::new_sealed_store;
        let t0 = Instant::now();
        let transport = std::sync::Arc::new(std::sync::Mutex::new(InProcessTransport::new(
            std::sync::Arc::clone(&self.server),
        )));
        let mut launched = self
            .package
            .launch(&self.platform, transport, new_sealed_store(), seed)
            .expect("launch");
        launched.restore(self.indices["elide_restore"]).expect("restore");
        for _ in 0..reps {
            std::hint::black_box(run_workload(self.app.name, &mut launched.runtime, &self.indices));
        }
        t0.elapsed().as_secs_f64()
    }
}

/// The five non-game benchmarks measured in Figures 3 and 4 (the games
/// "run forever" in the paper and are excluded there too).
pub fn figure_apps() -> Vec<App> {
    use elide_apps::*;
    vec![aes_app::app(), des_app::app(), sha1_app::app(), shas_app::app(), crackme::app()]
}

/// The `(app, build)` rows of `BENCH_exec_throughput.json` that
/// `exec_gate` compares against: interp/plain for every app, the XTEA
/// elide/plain ratio and the two intrinsic-off builds.
pub const EXEC_GATED: [(&str, &str); 15] = [
    ("AES", "interp"),
    ("AES", "plain"),
    ("DES", "interp"),
    ("DES", "plain"),
    ("Sha1", "interp"),
    ("Sha1", "plain"),
    ("XTEA", "interp"),
    ("XTEA", "plain"),
    ("JSON", "interp"),
    ("JSON", "plain"),
    ("Merkle", "interp"),
    ("Merkle", "plain"),
    ("XTEA", "elide"),
    ("JSON", "soft"),
    ("Merkle", "soft"),
];

/// The positive value of environment variable `name`, or `default` when it
/// is unset, unparsable or not positive.
pub fn env_or<T: std::str::FromStr + PartialOrd + Default>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > T::default())
        .unwrap_or(default)
}

/// Runs `name`'s workload once untimed, then `reps` timed times; returns
/// the fastest rep's seconds and the guest instructions one rep retires
/// (the same every rep, by construction).
pub fn best_of(
    name: &str,
    rt: &mut EnclaveRuntime,
    indices: &HashMap<String, u64>,
    reps: usize,
) -> (f64, u64) {
    run_workload(name, rt, indices); // warmup (and first-touch reloads)
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let base = rt.retired_total();
        let t0 = Instant::now();
        run_workload(name, rt, indices);
        best = best.min(t0.elapsed().as_secs_f64());
        instructions = rt.retired_total() - base;
    }
    (best, instructions)
}

/// One value of a [`Row`].
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// Text.
    Str(String),
    /// A whole number.
    Int(u64),
    /// A decimal and the number of places it is written with.
    Num(f64, usize),
}

impl Value {
    /// The value as a number (`None` for text).
    fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Str(_) => None,
            Value::Int(n) => Some(n as f64),
            Value::Num(x, _) => Some(x),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(n) => write!(f, "{n}"),
            Value::Num(x, places) => write!(f, "{x:.places$}"),
        }
    }
}

/// One bench result, or a file's header: keys in the order they are
/// written. Derived columns are computed once, when the row is built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a text column.
    pub fn str(mut self, key: &str, value: impl Into<String>) -> Self {
        self.0.push((key.into(), Value::Str(value.into())));
        self
    }

    /// Appends a whole-number column.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.0.push((key.into(), Value::Int(value)));
        self
    }

    /// Appends a decimal column written with `places` decimal places.
    pub fn num(mut self, key: &str, value: f64, places: usize) -> Self {
        self.0.push((key.into(), Value::Num(value, places)));
        self
    }

    /// The value under `key`.
    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The text under `key`.
    pub fn text(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number under `key`.
    pub fn number(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }
}

/// Prints `row` as one table line, under a line of its keys when
/// `heading`.
pub fn print_row(row: &Row, heading: bool) {
    let line = |cell: &dyn Fn(&str, &Value) -> String| {
        row.0
            .iter()
            .map(|(k, v)| format!("{:>w$}", cell(k, v), w = k.len().max(9)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    if heading {
        println!("{}", line(&|k, _| k.to_string()));
    }
    println!("{}", line(&|_, v| v.to_string()));
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_object(row: &Row) -> String {
    let members: Vec<String> = row
        .0
        .iter()
        .map(|(k, v)| match v {
            Value::Str(s) => format!("\"{}\": \"{}\"", json_escape(k), json_escape(s)),
            v => format!("\"{}\": {v}", json_escape(k)),
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Renders a bench file: name, unit, header object, then one result object
/// per line (hand-rolled: the workspace has no third-party dependencies).
fn render_rows(bench: &str, unit: &str, header: &Row, rows: &[Row]) -> String {
    let results: Vec<String> = rows.iter().map(|r| format!("    {}", json_object(r))).collect();
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"unit\": \"{}\",\n  \"header\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_escape(bench),
        json_escape(unit),
        json_object(header),
        results.join(",\n")
    )
}

/// Where a result came from: commit, compiler, host, profile and UTC date.
/// [`write_rows`] puts these first in every header.
fn provenance() -> Row {
    let run = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let root = workspace_root().to_string_lossy().into_owned();
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        let line = info.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    });
    Row::new()
        .str("commit", run("git", &["-C", &root, "rev-parse", "HEAD"]))
        .str("rustc", env!("ELIDE_BENCH_RUSTC"))
        .str("cpu", cpu.unwrap_or_else(|| "unknown".into()))
        .int("nproc", std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
        .str("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .str("date", run("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]))
}

/// The workspace root, resolved at compile time. Bench binaries run with
/// the package directory (`crates/bench`) as their working directory, which
/// is gitignored; persisted `BENCH_*.json` files belong at the repo root so
/// the perf trajectory stays tracked across PRs.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Writes `BENCH_<bench>.json` at the workspace root and returns its path.
/// The header is [`provenance`] followed by `params`, the bench's size
/// parameters as they ran.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_rows(bench: &str, unit: &str, params: Row, rows: &[Row]) -> std::io::Result<PathBuf> {
    let mut header = provenance();
    header.0.extend(params.0);
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, render_rows(bench, unit, &header, rows))?;
    Ok(path)
}

/// Reads a file [`write_rows`] wrote: its header and its result rows.
///
/// # Errors
///
/// The read error, or `InvalidData` when the file has no header or a line
/// is not a flat object of strings and numbers.
pub fn read_rows(path: &Path) -> std::io::Result<(Row, Vec<Row>)> {
    let text = std::fs::read_to_string(path)?;
    parse_rows(&text).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a bench file with a header", path.display()),
        )
    })
}

fn parse_rows(text: &str) -> Option<(Row, Vec<Row>)> {
    let mut header = None;
    let mut rows = Vec::new();
    for line in text.lines().map(|l| l.trim().trim_end_matches(',')) {
        if let Some(object) = line.strip_prefix("\"header\": ") {
            header = Some(parse_object(object)?);
        } else if line.starts_with('{') && line.ends_with('}') {
            rows.push(parse_object(line)?);
        }
    }
    Some((header?, rows))
}

/// Parses one flat `{"key": value, ...}` object of strings and numbers.
fn parse_object(s: &str) -> Option<Row> {
    let mut rest = s.strip_prefix('{')?.trim_start();
    let mut row = Row::new();
    while let Some(r) = rest.strip_prefix('"') {
        let (key, r) = parse_string(r)?;
        let r = r.trim_start().strip_prefix(':')?.trim_start();
        let (value, r) = match r.strip_prefix('"') {
            Some(r) => parse_string(r).map(|(s, r)| (Value::Str(s), r))?,
            None => {
                let end = r.find([',', '}'])?;
                let t = r[..end].trim();
                let value = match t.split_once('.') {
                    None => Value::Int(t.parse().ok()?),
                    Some((_, frac)) => Value::Num(t.parse().ok()?, frac.len()),
                };
                (value, &r[end..])
            }
        };
        row.0.push((key, value));
        rest = r.trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    (rest == "}").then_some(row)
}

/// Parses a string body up to its closing quote; returns it and the rest.
fn parse_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => out.push(match chars.next()?.1 {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                c => c,
            }),
            c => out.push(c),
        }
    }
    None
}

/// The oversubscription factors the EPC-pressure bench sweeps.
pub const PRESSURE_FACTORS: [usize; 3] = [1, 4, 16];

/// The rows of one build under EPC pressure. Per factor, `reps` warm
/// starts under the derived page cap (`warm(page_cap, i)` returns the armed
/// runtime), then the throughput region (best-of-`reps`) on the last one,
/// with the evictions and reloads accumulated over the whole region.
fn pressure_rows(
    app: &App,
    build: &str,
    total_pages: usize,
    cold_per_s: f64,
    indices: &HashMap<String, u64>,
    reps: usize,
    mut warm: impl FnMut(usize, usize) -> EnclaveRuntime,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for factor in PRESSURE_FACTORS {
        let page_cap = (total_pages / factor).max(1);
        let t0 = Instant::now();
        let mut rt = (0..reps).map(|i| warm(page_cap, i)).last().expect("reps > 0");
        let warm_per_s = reps as f64 / t0.elapsed().as_secs_f64();
        let (seconds, instructions) = best_of(app.name, &mut rt, indices, reps);
        let stats = rt.epc_budget().map(|b| b.stats());
        rows.push(
            Row::new()
                .str("app", app.name)
                .str("build", build)
                .int("factor", factor as u64)
                .int("page_cap", page_cap as u64)
                .int("total_pages", total_pages as u64)
                .num("warm_per_s", warm_per_s, 1)
                .num("cold_per_s", cold_per_s, 1)
                .num("speedup", if cold_per_s > 0.0 { warm_per_s / cold_per_s } else { 0.0 }, 2)
                .num("mips", instructions as f64 / seconds / 1e6, 3)
                .int("evictions", stats.map_or(0, |s| s.evictions))
                .int("reloads", stats.map_or(0, |s| s.reloads)),
        );
    }
    rows
}

/// Measures the **elide** build of `app` under EPC pressure: cold
/// full-handshake launch rate once, then per factor the warm sealed-restore
/// rate and execution throughput under the derived page cap.
///
/// # Panics
///
/// Panics if any pipeline stage fails (benchmark harness context).
pub fn epc_pressure_elide(app: &App, reps: usize) -> Vec<Row> {
    use elide_core::api::{protect, Mode, Platform};
    use elide_core::protocol::{InProcessTransport, OfflineTransport};
    use elide_core::restore::new_sealed_store;
    use elide_crypto::rsa::RsaKeyPair;
    use sgx_sim::budget::EpcBudget;
    use sgx_sim::quote::AttestationService;
    use std::sync::{Arc, Mutex};

    let image = app.build_elide_image().expect("build");
    let mut rng = SeededRandom::new(0xE9C);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
        .expect("protect");
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let plan = package.image_plan().expect("plan");
    let indices = app.protected_indices();
    let restore_idx = indices["elide_restore"];

    // Provision once: the sealed blob every warm start below reuses.
    let sealed = new_sealed_store();
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut launched = package
        .launch_planned(&plan, &platform, transport, Arc::clone(&sealed), 0xC01D)
        .expect("launch");
    launched.restore(restore_idx).expect("restore");
    let total_pages = launched.runtime.enclave().resident_reg_pages();
    drop(launched);

    // Cold rate: every cycle pays ELF-planned load + DH + attestation +
    // GCM transfer (fresh sealed store each time).
    let t0 = Instant::now();
    for i in 0..reps {
        let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
        let mut l = package
            .launch_planned(&plan, &platform, transport, new_sealed_store(), 0xC01D + i as u64)
            .expect("launch");
        l.restore(restore_idx).expect("restore");
    }
    let cold_per_s = reps as f64 / t0.elapsed().as_secs_f64();

    // Warm rate under each cap: load from the plan, arm the budget, sealed
    // fast-path restore — zero server contact.
    pressure_rows(app, "elide", total_pages, cold_per_s, &indices, reps, |page_cap, i| {
        let offline = Arc::new(Mutex::new(OfflineTransport));
        let mut l = package
            .launch_planned(&plan, &platform, offline, Arc::clone(&sealed), 0x3A91 + i as u64)
            .expect("warm start");
        let mut brng = SeededRandom::new(0xB0D6 + i as u64);
        l.runtime.set_epc_budget(EpcBudget::new(page_cap, &mut brng)).expect("budget");
        l.restore(restore_idx).expect("warm restore");
        l.runtime
    })
}

/// Measures the **plain** build of `app` under EPC pressure. "Cold" pays
/// the ELF parse + load every cycle; "warm" reloads from a pre-parsed
/// [`elide_enclave::loader::ImagePlan`]. There is no restore step.
///
/// # Panics
///
/// Panics if any pipeline stage fails.
pub fn epc_pressure_plain(app: &App, reps: usize) -> Vec<Row> {
    use elide_crypto::rsa::RsaKeyPair;
    use elide_enclave::loader::{sign_enclave, ImagePlan};
    use sgx_sim::budget::EpcBudget;

    let image = app.build_plain_image().expect("build");
    let mut rng = SeededRandom::new(0xB1A);
    let cpu = sgx_sim::SgxCpu::new(&mut rng);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let sigstruct = sign_enclave(&image, &vendor, 1, 1).expect("sign");
    let plan = ImagePlan::new(&image).expect("plan");
    let indices = app.plain_indices();

    let probe = plan.load(&cpu, &sigstruct).expect("load");
    let total_pages = probe.enclave.resident_reg_pages();
    drop(probe);

    let t0 = Instant::now();
    for _ in 0..reps {
        let p = ImagePlan::new(&image).expect("plan");
        std::hint::black_box(p.load(&cpu, &sigstruct).expect("load"));
    }
    let cold_per_s = reps as f64 / t0.elapsed().as_secs_f64();

    pressure_rows(app, "plain", total_pages, cold_per_s, &indices, reps, |page_cap, i| {
        let loaded = plan.load(&cpu, &sigstruct).expect("load");
        let mut rt = EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(0x11 + i as u64)));
        let mut brng = SeededRandom::new(0xB0D6 + i as u64);
        rt.set_epc_budget(EpcBudget::new(page_cap, &mut brng)).expect("budget");
        rt
    })
}

/// A percentile of a **sorted** sample (nearest-rank), in the sample's
/// own unit. Returns 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Measures host-level provisioning fan-out: `peers` enclaves per rep,
/// central (every peer pays the full origin handshake) vs delegated (one
/// delegate stands up against the origin, every peer restores from it over
/// local attestation). Returns one record per mode.
///
/// # Panics
///
/// Panics if any pipeline stage fails (benchmark harness context).
pub fn delegation_provisioning(peers: usize, reps: usize) -> Vec<Row> {
    use elide_core::api::{protect, Mode, Platform};
    use elide_core::client::ProvisionClient;
    use elide_core::delegation::{DelegateServer, EcallReportVerifier};
    use elide_core::elide_asm::ELIDE_ASM;
    use elide_core::protocol::{InProcessTransport, Transport};
    use elide_core::restore::new_sealed_store;
    use elide_core::ticket::now_ms;
    use elide_core::ElideError;
    use elide_crypto::rsa::RsaKeyPair;
    use sgx_sim::quote::{AttestationService, QE_MEASUREMENT};
    use sgx_sim::report::{ereport, TargetInfo};
    use std::sync::{Arc, Mutex};

    const RESTORE_IDX: u64 = 1;
    const VERIFY_IDX: u64 = 2;

    let mut rng = SeededRandom::new(0xDE1E);
    let mut b = elide_enclave::image::EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(
            ".section text\n.global get_answer\n.func get_answer\n    movi r0, 42\n    ret\n.endfunc\n",
        )
        .ecall("get_answer")
        .ecall("elide_restore")
        .ecall("elide_verify_report");
    let image = b.build().expect("assemble delegation guest");
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
        .expect("protect");

    let mut scratch = AttestationService::new();
    let platform = Arc::new(Platform::provision(&mut rng, &mut scratch));
    let mut ias = AttestationService::new();
    ias.register_device(platform.qe.device_public_key().clone());
    let mrenclave = package.mrenclave;
    let mrsigner = package.sigstruct.mrsigner().expect("mrsigner");
    let server = Arc::new(package.make_server(ias));
    server.authorize_delegate(mrenclave, &[(mrenclave, mrsigner)]);
    let plan = package.image_plan().expect("plan");

    let origin =
        |server: &Arc<elide_core::server::AuthServer>| -> Arc<Mutex<dyn Transport + Send>> {
            Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(server))))
        };

    // Central: every peer runs the full DH + quote + GCM handshake.
    let before = server.handshakes();
    let t0 = Instant::now();
    for rep in 0..reps {
        for i in 0..peers {
            let seed = 0xC000 + (rep * peers + i) as u64;
            let mut l = package
                .launch_planned(&plan, &platform, origin(&server), new_sealed_store(), seed)
                .expect("launch");
            l.restore(RESTORE_IDX).expect("central restore");
        }
    }
    let central_s = t0.elapsed().as_secs_f64();
    let central_handshakes = (server.handshakes() - before) / reps as u64;

    // Delegated: one stand-up handshake per rep, then every peer restores
    // from the local delegate over a targeted report.
    let before = server.handshakes();
    let t0 = Instant::now();
    for rep in 0..reps {
        let host_seed = 0xD000 + rep as u64;
        let anchor = package
            .launch_planned(&plan, &platform, origin(&server), new_sealed_store(), host_seed)
            .expect("anchor launch");
        let anchor = Arc::new(Mutex::new(anchor));
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(host_seed)));
        let mut transport = InProcessTransport::new(Arc::clone(&server));
        let a = Arc::clone(&anchor);
        let qe = Arc::clone(&platform.qe);
        let mut quote_fn = move |report_data: [u8; 64]| {
            let app = a.lock().unwrap();
            let target = TargetInfo { mrenclave: QE_MEASUREMENT };
            let report = ereport(app.runtime.enclave(), &target, report_data)
                .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
            let quote =
                qe.quote(&report).map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
            Ok(quote.to_bytes())
        };
        client.full_handshake(&mut transport, &mut quote_fn).expect("delegate handshake");
        let origin_key = server.delegation_public_key().expect("delegation key");
        let bundle = client.fetch_delegation(&mut transport, &origin_key).expect("bundle");
        let verifier = EcallReportVerifier::new(anchor, VERIFY_IDX, mrenclave);
        let delegate = DelegateServer::new(
            bundle,
            &origin_key,
            Box::new(verifier),
            Box::new(SeededRandom::new(host_seed ^ 0xD11)),
            now_ms(),
        )
        .expect("delegate stands up");
        let target = delegate.policy().delegate_mrenclave;
        for i in 0..peers {
            let seed = 0xE000 + (rep * peers + i) as u64;
            let mut l = package
                .launch_planned(&plan, &platform, origin(&server), new_sealed_store(), seed)
                .expect("peer launch");
            l.restore_delegated(RESTORE_IDX, Box::new(delegate.connect()), &target)
                .expect("delegated restore");
        }
    }
    let delegated_s = t0.elapsed().as_secs_f64();
    let delegated_handshakes = (server.handshakes() - before) / reps as u64;

    let total = (peers * reps) as f64;
    [("central", central_handshakes, central_s), ("delegated", delegated_handshakes, delegated_s)]
        .map(|(mode, handshakes, seconds)| {
            let per_s = total / seconds;
            Row::new()
                .str("mode", mode)
                .int("peers", peers as u64)
                .int("reps", reps as u64)
                .int("origin_handshakes", handshakes)
                .num("provisions_per_s", per_s, 1)
                .num("ms_per_peer", if per_s > 0.0 { 1e3 / per_s } else { 0.0 }, 3)
        })
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_sample() {
        let s = stats(&[0.002, 0.002, 0.002]);
        assert!((s.mean_ms - 2.0).abs() < 1e-9);
        assert!(s.std_ms.abs() < 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 0.999), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn rows_round_trip_through_the_writer_and_reader() {
        // (row, how one of its columns must be written)
        let cases = [
            (
                Row::new()
                    .str("app", "a\"b\\c\u{1}\n")
                    .str("build", "elide")
                    .int("instructions", 2000),
                r#""app": "a\"b\\c\u0001\u000a""#,
            ),
            (
                Row::new().str("app", "AES").int("instructions", 1000).num("mips", 0.002, 3),
                r#""mips": 0.002"#,
            ),
            (Row::new().str("mode", "full").num("p50_ms", 2.0, 3), r#""p50_ms": 2.000"#),
            (Row::new().num("rate_per_s", 50.0, 1).int("errors", 0), r#""rate_per_s": 50.0"#),
            (Row::new().num("seconds", 0.0004, 6).num("speedup", 11.333, 2), r#""speedup": 11.33"#),
            (Row::new(), "{}"),
        ];
        let mut header = provenance();
        header.0.extend(Row::new().int("reps", 5).str("rates", "25,50").0);
        let rows: Vec<Row> = cases.iter().map(|(r, _)| r.clone()).collect();
        let text = render_rows("schema", "ms", &header, &rows);
        for (_, written) in &cases {
            assert!(text.contains(written), "missing {written} in {text}");
        }

        let (read_header, read) = parse_rows(&text).expect("reads back");
        for key in ["commit", "rustc", "cpu", "nproc", "profile", "date", "reps", "rates"] {
            assert!(read_header.get(key).is_some(), "header lacks {key}");
        }
        assert_eq!(read_header, header);
        assert_eq!(read.len(), rows.len());
        for (got, want) in read.iter().zip(&rows) {
            assert_eq!(render_rows("", "", got, &[]), render_rows("", "", want, &[]));
        }
        assert_eq!(read[0].text("app"), Some("a\"b\\c\u{1}\n"));
        assert_eq!(read[1].number("mips"), Some(0.002));
        assert!(parse_rows("{\n  \"results\": []\n}\n").is_none(), "no header, no file");
    }

    #[test]
    fn tracked_bench_files_carry_a_header_and_the_gated_rows() {
        let mut files = 0;
        for entry in std::fs::read_dir(workspace_root()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let (header, rows) = read_rows(&path).unwrap_or_else(|e| panic!("{e}"));
            for key in ["commit", "rustc", "cpu", "nproc", "profile", "date"] {
                assert!(header.get(key).is_some(), "{name}: header lacks {key}");
            }
            assert!(!rows.is_empty(), "{name}: no rows");
            files += 1;
        }
        assert!(files >= 6, "expected the six tracked bench files, found {files}");

        let (_, rows) = read_rows(&workspace_root().join("BENCH_exec_throughput.json")).unwrap();
        for (app, build) in EXEC_GATED {
            assert!(
                rows.iter().any(|r| r.text("app") == Some(app)
                    && r.text("build") == Some(build)
                    && r.number("mips").is_some()),
                "BENCH_exec_throughput.json lacks the {app}/{build} row exec_gate compares against"
            );
        }
    }

    #[test]
    fn workspace_root_is_a_workspace() {
        assert!(workspace_root().join("Cargo.toml").is_file());
        assert!(workspace_root().join("crates/bench").is_dir());
    }

    #[test]
    fn table1_row_smoke() {
        let app = elide_apps::crackme::app();
        let wl = Whitelist::from_dummy_enclave().unwrap();
        let row = table1_row(&app, &wl);
        assert!(row.tc_functions > row.sanitized_functions);
        assert!(row.sanitized_bytes > 0);
        assert!(row.tc_bytes > row.sanitized_bytes);
    }
}
