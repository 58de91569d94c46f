//! # elide-bench
//!
//! Measurement helpers shared by the paper-table binaries (`table1`,
//! `table2`, `figures`) and the Criterion benches. Each table/figure of the
//! SgxElide paper maps to one entry point here; see `EXPERIMENTS.md` at the
//! repository root for the index.

#![forbid(unsafe_code)]
use elide_apps::harness::{launch_protected, App};
use elide_apps::run_workload;
use elide_core::sanitizer::{sanitize, DataPlacement};
use elide_core::whitelist::Whitelist;
use elide_crypto::rng::SeededRandom;
use elide_elf::ElfFile;
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
    indices: std::collections::HashMap<String, u64>,
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
        let mut rt = elide_enclave::runtime::EnclaveRuntime::with_rng(
            loaded,
            Box::new(SeededRandom::new(seed)),
        );
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
    indices: std::collections::HashMap<String, u64>,
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

/// One measured configuration of a throughput bench: how many guest
/// instructions retired in how many seconds.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark app name.
    pub name: String,
    /// Build configuration (`"plain"` / `"elide"`).
    pub build: &'static str,
    /// Guest instructions retired over the timed region.
    pub instructions: u64,
    /// Wall-clock seconds of the timed region.
    pub seconds: f64,
}

impl BenchRecord {
    /// Millions of guest instructions per second.
    pub fn mips(&self) -> f64 {
        self.instructions as f64 / self.seconds / 1e6
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders bench records as a machine-readable JSON document (hand-rolled:
/// the workspace deliberately has no third-party dependencies).
pub fn bench_records_json(bench: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"unit\": \"instructions_per_second\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"build\": \"{}\", \"instructions\": {}, \"seconds\": {:.6}, \"mips\": {:.3}}}{}\n",
            json_escape(&r.name),
            json_escape(r.build),
            r.instructions,
            r.seconds,
            r.mips(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The workspace root, resolved at compile time. Bench binaries run with
/// the package directory (`crates/bench`) as their working directory, which
/// is gitignored; persisted `BENCH_*.json` files belong at the repo root so
/// the perf trajectory stays tracked across PRs.
pub fn workspace_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Writes `BENCH_<bench>.json` at the workspace root and returns its path,
/// for git tracking and CI artifact upload.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_bench_json(
    bench: &str,
    records: &[BenchRecord],
) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, bench_records_json(bench, records))?;
    Ok(path)
}

/// One measured crypto kernel: `bytes` processed per iteration, `iters`
/// iterations over `seconds` of wall clock.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel name (e.g. `"aes_gcm_seal"`).
    pub name: String,
    /// Bytes processed per iteration (0 for pure op-rate kernels).
    pub bytes: u64,
    /// Iterations in the timed region.
    pub iters: u64,
    /// Wall-clock seconds of the timed region.
    pub seconds: f64,
}

impl KernelRecord {
    /// Megabytes per second (0 when the kernel is op-rate only).
    pub fn mb_per_s(&self) -> f64 {
        (self.bytes * self.iters) as f64 / self.seconds / 1e6
    }

    /// Iterations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.iters as f64 / self.seconds
    }
}

/// Renders kernel throughput records as JSON.
pub fn kernel_records_json(bench: &str, records: &[KernelRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"unit\": \"mb_per_s\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"bytes\": {}, \"iters\": {}, \"seconds\": {:.6}, \
             \"mb_per_s\": {:.3}, \"ops_per_s\": {:.3}}}{}\n",
            json_escape(&r.name),
            r.bytes,
            r.iters,
            r.seconds,
            r.mb_per_s(),
            r.ops_per_s(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_<bench>.json` (kernel schema) at the workspace root.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_kernel_json(
    bench: &str,
    records: &[KernelRecord],
) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, kernel_records_json(bench, records))?;
    Ok(path)
}

/// One measured launch configuration: wall-clock latency of the full
/// ECREATE→EADD/EEXTEND→EINIT(→provision→restore) cycle.
#[derive(Debug, Clone)]
pub struct LatencyRecord {
    /// Benchmark app name.
    pub name: String,
    /// Build configuration (`"plain"` / `"elide"`).
    pub build: &'static str,
    /// Number of timed launches.
    pub runs: usize,
    /// Per-run latencies in seconds.
    pub samples: Vec<f64>,
}

impl LatencyRecord {
    /// Mean/stddev of the samples.
    pub fn stats(&self) -> Stats {
        stats(&self.samples)
    }

    /// Fastest sample, in milliseconds.
    pub fn min_ms(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min) * 1e3
    }

    /// Slowest sample, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max) * 1e3
    }
}

/// Renders launch-latency records as JSON.
pub fn latency_records_json(bench: &str, records: &[LatencyRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"unit\": \"ms\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let s = r.stats();
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"build\": \"{}\", \"runs\": {}, \"mean_ms\": {:.3}, \
             \"std_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}{}\n",
            json_escape(&r.name),
            json_escape(r.build),
            r.runs,
            s.mean_ms,
            s.std_ms,
            r.min_ms(),
            r.max_ms(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_<bench>.json` (latency schema) at the workspace root.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_latency_json(
    bench: &str,
    records: &[LatencyRecord],
) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, latency_records_json(bench, records))?;
    Ok(path)
}

/// One measured EPC-pressure configuration: enclave relaunch rates and
/// execution throughput at a given oversubscription factor (resident page
/// cap = total REG pages / factor).
#[derive(Debug, Clone)]
pub struct PressureRecord {
    /// Benchmark app name.
    pub app: String,
    /// Build configuration (`"plain"` / `"elide"`).
    pub build: &'static str,
    /// EPC oversubscription factor (1 = whole working set resident).
    pub factor: usize,
    /// Resident REG-page cap derived from the factor.
    pub page_cap: usize,
    /// Total REG pages the enclave holds when unconstrained.
    pub total_pages: usize,
    /// Warm relaunches per second (sealed fast-path restore for the elide
    /// build; pre-parsed [`elide_enclave::loader::ImagePlan`] reload for
    /// plain).
    pub warm_per_s: f64,
    /// Cold launches per second (full attested handshake for the elide
    /// build; ELF re-parse + load for plain).
    pub cold_per_s: f64,
    /// Execution throughput under the page cap, millions of guest
    /// instructions per second (best-of-reps).
    pub mips: f64,
    /// Page evictions (EWB) during the throughput region.
    pub evictions: u64,
    /// Page reloads (ELDU) during the throughput region.
    pub reloads: u64,
}

impl PressureRecord {
    /// Warm-over-cold relaunch speedup.
    pub fn speedup(&self) -> f64 {
        if self.cold_per_s > 0.0 {
            self.warm_per_s / self.cold_per_s
        } else {
            0.0
        }
    }
}

/// Renders EPC-pressure records as JSON.
pub fn pressure_records_json(bench: &str, records: &[PressureRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"unit\": \"relaunches_per_second\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"build\": \"{}\", \"factor\": {}, \"page_cap\": {}, \
             \"total_pages\": {}, \"warm_per_s\": {:.1}, \"cold_per_s\": {:.1}, \
             \"speedup\": {:.2}, \"mips\": {:.3}, \"evictions\": {}, \"reloads\": {}}}{}\n",
            json_escape(&r.app),
            json_escape(r.build),
            r.factor,
            r.page_cap,
            r.total_pages,
            r.warm_per_s,
            r.cold_per_s,
            r.speedup(),
            r.mips,
            r.evictions,
            r.reloads,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_<bench>.json` (pressure schema) at the workspace root.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_pressure_json(
    bench: &str,
    records: &[PressureRecord],
) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, pressure_records_json(bench, records))?;
    Ok(path)
}

/// The oversubscription factors the EPC-pressure bench sweeps.
pub const PRESSURE_FACTORS: [usize; 3] = [1, 4, 16];

/// Times the throughput region (`reps` workload repetitions, best-of) on a
/// runtime whose budget is already armed, returning (mips, evictions,
/// reloads) accumulated over the whole region.
fn pressure_mips(
    name: &str,
    rt: &mut elide_enclave::runtime::EnclaveRuntime,
    indices: &std::collections::HashMap<String, u64>,
    reps: usize,
) -> (f64, u64, u64) {
    run_workload(name, rt, indices); // warmup (first-touch reloads)
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let base = rt.retired_total();
        let t0 = Instant::now();
        run_workload(name, rt, indices);
        let seconds = t0.elapsed().as_secs_f64();
        instructions = rt.retired_total() - base;
        if seconds < best {
            best = seconds;
        }
    }
    let (ev, rl) =
        rt.epc_budget().map(|b| (b.stats().evictions, b.stats().reloads)).unwrap_or((0, 0));
    (instructions as f64 / best / 1e6, ev, rl)
}

/// Measures the **elide** build of `app` under EPC pressure: cold
/// full-handshake launch rate once, then per factor the warm sealed-restore
/// rate and execution throughput under the derived page cap.
///
/// # Panics
///
/// Panics if any pipeline stage fails (benchmark harness context).
pub fn epc_pressure_elide(app: &App, reps: usize) -> Vec<PressureRecord> {
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

    let mut records = Vec::new();
    for factor in PRESSURE_FACTORS {
        let page_cap = (total_pages / factor).max(1);

        // Warm rate under the cap: load from the plan, arm the budget,
        // sealed fast-path restore — zero server contact.
        let t0 = Instant::now();
        let mut last = None;
        for i in 0..reps {
            let offline = Arc::new(Mutex::new(OfflineTransport));
            let mut l = package
                .launch_planned(&plan, &platform, offline, Arc::clone(&sealed), 0x3A91 + i as u64)
                .expect("warm start");
            let mut brng = SeededRandom::new(0xB0D6 + i as u64);
            l.runtime.set_epc_budget(EpcBudget::new(page_cap, &mut brng)).expect("budget");
            l.restore(restore_idx).expect("warm restore");
            last = Some(l);
        }
        let warm_per_s = reps as f64 / t0.elapsed().as_secs_f64();

        let mut l = last.expect("reps > 0");
        let (mips, evictions, reloads) = pressure_mips(app.name, &mut l.runtime, &indices, reps);
        records.push(PressureRecord {
            app: app.name.to_string(),
            build: "elide",
            factor,
            page_cap,
            total_pages,
            warm_per_s,
            cold_per_s,
            mips,
            evictions,
            reloads,
        });
    }
    records
}

/// Measures the **plain** build of `app` under EPC pressure. "Cold" pays
/// the ELF parse + load every cycle; "warm" reloads from a pre-parsed
/// [`elide_enclave::loader::ImagePlan`]. There is no restore step.
///
/// # Panics
///
/// Panics if any pipeline stage fails.
pub fn epc_pressure_plain(app: &App, reps: usize) -> Vec<PressureRecord> {
    use elide_crypto::rsa::RsaKeyPair;
    use elide_enclave::loader::{sign_enclave, ImagePlan};
    use elide_enclave::runtime::EnclaveRuntime;
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

    let mut records = Vec::new();
    for factor in PRESSURE_FACTORS {
        let page_cap = (total_pages / factor).max(1);

        let t0 = Instant::now();
        let mut last = None;
        for i in 0..reps {
            let loaded = plan.load(&cpu, &sigstruct).expect("load");
            let mut rt =
                EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(0x11 + i as u64)));
            let mut brng = SeededRandom::new(0xB0D6 + i as u64);
            rt.set_epc_budget(EpcBudget::new(page_cap, &mut brng)).expect("budget");
            last = Some(rt);
        }
        let warm_per_s = reps as f64 / t0.elapsed().as_secs_f64();

        let mut rt = last.expect("reps > 0");
        let (mips, evictions, reloads) = pressure_mips(app.name, &mut rt, &indices, reps);
        records.push(PressureRecord {
            app: app.name.to_string(),
            build: "plain",
            factor,
            page_cap,
            total_pages,
            warm_per_s,
            cold_per_s,
            mips,
            evictions,
            reloads,
        });
    }
    records
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

/// One measured configuration of the open-loop provisioning load bench:
/// `requests` arrivals at `rate_per_s`, each timed from its *scheduled*
/// arrival to completion (so queueing delay counts, as in any honest
/// open-loop load test).
#[derive(Debug, Clone)]
pub struct LoadRecord {
    /// Client mode: `"full"` (handshake + fetch) or `"resumed"` (one
    /// round-trip ticket resume), or `"hold"` for the concurrency phase.
    pub mode: &'static str,
    /// Target arrival rate, requests per second (0 for the hold phase).
    pub rate_per_s: f64,
    /// Arrivals issued.
    pub requests: usize,
    /// Arrivals that failed (any error; 0 in a healthy run).
    pub errors: usize,
    /// Peak concurrently-open client connections during the run.
    pub concurrent: usize,
    /// Per-request scheduled-arrival→completion latencies in seconds.
    pub samples: Vec<f64>,
}

impl LoadRecord {
    /// Sorted copy of the samples.
    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s
    }

    /// (p50, p99, p99.9) of the latency samples, in milliseconds.
    pub fn percentiles_ms(&self) -> (f64, f64, f64) {
        let s = self.sorted();
        (percentile(&s, 0.50) * 1e3, percentile(&s, 0.99) * 1e3, percentile(&s, 0.999) * 1e3)
    }

    /// Slowest request, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max) * 1e3
    }
}

/// Renders load records as JSON (latency distribution vs arrival rate).
pub fn load_records_json(bench: &str, records: &[LoadRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"unit\": \"ms\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let (p50, p99, p999) = r.percentiles_ms();
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"rate_per_s\": {:.1}, \"requests\": {}, \"errors\": {}, \
             \"concurrent\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"max_ms\": {:.3}}}{}\n",
            json_escape(r.mode),
            r.rate_per_s,
            r.requests,
            r.errors,
            r.concurrent,
            p50,
            p99,
            p999,
            r.max_ms(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_<bench>.json` (load schema) at the workspace root.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_load_json(bench: &str, records: &[LoadRecord]) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, load_records_json(bench, records))?;
    Ok(path)
}

/// One measured configuration of the delegated-provisioning bench: `peers`
/// enclaves provisioned per repetition, either each against the origin
/// server ("central") or through one local delegate ("delegated" — the
/// per-rep cost includes standing the delegate up, so the single origin
/// handshake it amortises is inside the timed region).
#[derive(Debug, Clone)]
pub struct DelegationRecord {
    /// Provisioning mode: `"central"` or `"delegated"`.
    pub mode: &'static str,
    /// Peer enclaves provisioned per repetition.
    pub peers: usize,
    /// Repetitions timed.
    pub reps: usize,
    /// Origin handshakes consumed per repetition (the headline: `peers`
    /// for central, exactly 1 for delegated).
    pub origin_handshakes: u64,
    /// Peer provisions per second over the whole timed region.
    pub provisions_per_s: f64,
}

impl DelegationRecord {
    /// Mean wall-clock milliseconds per peer provision.
    pub fn ms_per_peer(&self) -> f64 {
        if self.provisions_per_s > 0.0 {
            1e3 / self.provisions_per_s
        } else {
            0.0
        }
    }
}

/// Renders delegation records as JSON.
pub fn delegation_records_json(bench: &str, records: &[DelegationRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"unit\": \"provisions_per_second\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"peers\": {}, \"reps\": {}, \"origin_handshakes\": {}, \
             \"provisions_per_s\": {:.1}, \"ms_per_peer\": {:.3}}}{}\n",
            json_escape(r.mode),
            r.peers,
            r.reps,
            r.origin_handshakes,
            r.provisions_per_s,
            r.ms_per_peer(),
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_<bench>.json` (delegation schema) at the workspace root.
///
/// # Errors
///
/// Propagates the underlying file-write error.
pub fn write_delegation_json(
    bench: &str,
    records: &[DelegationRecord],
) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, delegation_records_json(bench, records))?;
    Ok(path)
}

/// Measures host-level provisioning fan-out: `peers` enclaves per rep,
/// central (every peer pays the full origin handshake) vs delegated (one
/// delegate stands up against the origin, every peer restores from it over
/// local attestation). Returns one record per mode.
///
/// # Panics
///
/// Panics if any pipeline stage fails (benchmark harness context).
pub fn delegation_provisioning(peers: usize, reps: usize) -> Vec<DelegationRecord> {
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
    vec![
        DelegationRecord {
            mode: "central",
            peers,
            reps,
            origin_handshakes: central_handshakes,
            provisions_per_s: total / central_s,
        },
        DelegationRecord {
            mode: "delegated",
            peers,
            reps,
            origin_handshakes: delegated_handshakes,
            provisions_per_s: total / delegated_s,
        },
    ]
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
    fn bench_json_is_well_formed() {
        let records = vec![
            BenchRecord { name: "aes".into(), build: "plain", instructions: 1000, seconds: 0.5 },
            BenchRecord { name: "a\"b".into(), build: "elide", instructions: 2000, seconds: 1.0 },
        ];
        let json = bench_records_json("exec_throughput", &records);
        assert!(json.contains("\"bench\": \"exec_throughput\""));
        assert!(json.contains("\"mips\": 0.002"));
        assert!(json.contains("a\\\"b"), "quotes must be escaped: {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn kernel_json_is_well_formed() {
        let records = vec![
            KernelRecord { name: "aes_gcm_seal".into(), bytes: 1 << 20, iters: 8, seconds: 0.5 },
            KernelRecord { name: "rsa_verify".into(), bytes: 0, iters: 100, seconds: 1.0 },
        ];
        let json = kernel_records_json("crypto_kernels", &records);
        assert!(json.contains("\"kernel\": \"aes_gcm_seal\""));
        assert!(json.contains("\"ops_per_s\": 100.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn latency_json_is_well_formed() {
        let records = vec![LatencyRecord {
            name: "aes".into(),
            build: "elide",
            runs: 2,
            samples: vec![0.010, 0.012],
        }];
        let json = latency_records_json("launch_latency", &records);
        assert!(json.contains("\"mean_ms\": 11.000"));
        assert!(json.contains("\"min_ms\": 10.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
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
    fn load_json_is_well_formed() {
        let records = vec![LoadRecord {
            mode: "full",
            rate_per_s: 50.0,
            requests: 3,
            errors: 0,
            concurrent: 3,
            samples: vec![0.001, 0.002, 0.010],
        }];
        let json = load_records_json("provision_load", &records);
        assert!(json.contains("\"rate_per_s\": 50.0"));
        assert!(json.contains("\"p50_ms\": 2.000"));
        assert!(json.contains("\"p999_ms\": 10.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn delegation_json_is_well_formed() {
        let records = vec![
            DelegationRecord {
                mode: "central",
                peers: 4,
                reps: 10,
                origin_handshakes: 4,
                provisions_per_s: 250.0,
            },
            DelegationRecord {
                mode: "delegated",
                peers: 4,
                reps: 10,
                origin_handshakes: 1,
                provisions_per_s: 500.0,
            },
        ];
        let json = delegation_records_json("delegation", &records);
        assert!(json.contains("\"mode\": \"delegated\""));
        assert!(json.contains("\"origin_handshakes\": 1"));
        assert!(json.contains("\"ms_per_peer\": 2.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
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
