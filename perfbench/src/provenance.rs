//! Where a result came from: the code, the compiler, the host, the seed.

use crate::report::json_str;
use elide_crypto::sha2::Sha256;
use std::path::{Path, PathBuf};

/// The provenance header of one run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git` commit of the checkout, when it is a repository.
    pub commit: String,
    /// SHA-256 over the workspace sources the benchmark builds.
    pub source_sha256: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// CPU model of the host.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// Build profile.
    pub profile: &'static str,
    /// UTC date and time of the run.
    pub date: String,
}

impl Provenance {
    /// Collects the header for a run from the checkout root `root`.
    pub fn collect(root: &Path) -> Provenance {
        Provenance {
            commit: git_head(root).unwrap_or_else(|| "unknown".into()),
            source_sha256: source_digest(root),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            date: utc_now(),
        }
    }

    /// The header as JSON members (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"commit\": {}, \"source_sha256\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {}, \"profile\": {}, \"date\": {}",
            json_str(&self.commit),
            json_str(&self.source_sha256),
            json_str(&self.rustc),
            json_str(&self.cpu),
            self.nproc,
            json_str(self.profile),
            json_str(&self.date)
        )
    }
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => {
            std::fs::read_to_string(git.join(r)).ok().map(|s| s.trim().to_string()).or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            })
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Hashes every file of the workspace crates and manifests, in path
/// order, so two runs of the same source carry the same digest.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src", "perfbench/Cargo.toml"] {
        walk(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Sha256::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().into_owned();
            h.update(rel.as_bytes());
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(&bytes);
        }
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                walk(&p, out);
            }
        }
    }
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), valid after 1970.
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", rem / 3600, rem % 3600 / 60, rem % 60)
}
