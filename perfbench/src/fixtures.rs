//! Fixtures shared by the workloads: built and protected apps, platforms,
//! the timing transport and the output checks.

use crate::trace;
use elide_apps::harness::App;
use elide_core::api::{protect, Mode, Platform, ProtectedPackage};
use elide_core::elide_asm::request;
use elide_core::error::ElideError;
use elide_core::protocol::Transport;
use elide_core::sanitizer::DataPlacement;
use elide_core::server::AuthServer;
use elide_crypto::rng::{RandomSource, SeededRandom};
use elide_crypto::rsa::RsaKeyPair;
use elide_elf::ElfFile;
use elide_enclave::loader::{sign_enclave, ImagePlan};
use elide_enclave::EnclaveRuntime;
use sgx_sim::enclave::AccessKind;
use sgx_sim::quote::{AttestationService, QuotingEnclave, QE_MEASUREMENT};
use sgx_sim::report::{ereport, TargetInfo};
use sgx_sim::sigstruct::SigStruct;
use sgx_sim::Enclave;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Fixture keys and platforms come from this fixed seed, not from the
/// workload seed: they are the system under test, not its input, and a
/// fixed seed keeps set-up work identical across runs.
pub const FIXTURE_SEED: u64 = 0x5E7_0B3C;

/// One app built both ways: the plain signed image and the protected
/// package, plus the unsanitized `.text` the restore must reproduce.
pub struct Built {
    /// The app.
    pub app: App,
    /// Plain image (no SgxElide runtime).
    pub plain_image: Vec<u8>,
    /// Vendor signature over the plain image.
    pub plain_sig: SigStruct,
    /// Sanitized, signed package.
    pub package: ProtectedPackage,
    /// Address of `.text` in the enclave.
    pub text_addr: u64,
    /// `.text` of the unsanitized SgxElide image.
    pub text: Vec<u8>,
    /// Ecall indices of the plain build.
    pub plain_idx: HashMap<String, u64>,
    /// Ecall indices of the protected build (with `elide_restore`).
    pub elide_idx: HashMap<String, u64>,
}

impl Built {
    /// Builds, signs and protects `app` under vendor key `key_seed`.
    ///
    /// # Errors
    ///
    /// Any build, sanitize or signing failure.
    pub fn new(app: App, key_seed: u64) -> Result<Built, ElideError> {
        let mut rng = SeededRandom::new(FIXTURE_SEED ^ key_seed);
        let vendor = RsaKeyPair::generate(512, &mut rng);
        let plain_image = app.build_plain_image()?;
        let plain_sig = sign_enclave(&plain_image, &vendor, 1, 1)?;
        let original = app.build_elide_image()?;
        let package =
            protect(&original, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)?;
        let elf = ElfFile::parse(original).map_err(|e| ElideError::BadImage(e.to_string()))?;
        let section =
            elf.section_by_name(".text").ok_or_else(|| ElideError::BadImage("no .text".into()))?;
        let text =
            elf.section_data(section).map_err(|e| ElideError::BadImage(e.to_string()))?.to_vec();
        let (plain_idx, elide_idx) = (app.plain_indices(), app.protected_indices());
        Ok(Built {
            text_addr: section.sh_addr,
            text,
            plain_image,
            plain_sig,
            package,
            plain_idx,
            elide_idx,
            app,
        })
    }

    /// The `elide_restore` ecall index.
    pub fn restore_idx(&self) -> u64 {
        self.elide_idx["elide_restore"]
    }

    /// Pages of the sanitized image and of the plain image.
    ///
    /// # Errors
    ///
    /// Image parse failures.
    pub fn epc_pages(&self) -> Result<(usize, usize), ElideError> {
        Ok((self.package.image_plan()?.pages(), ImagePlan::new(&self.plain_image)?.pages()))
    }

    /// Checks that the enclave's `.text` is byte-identical to the
    /// unsanitized image's, i.e. that the restore put back every byte.
    pub fn check_text(&self, rt: &EnclaveRuntime) -> Result<(), String> {
        let got = rt
            .enclave()
            .read(self.text_addr, self.text.len(), AccessKind::Read)
            .map_err(|e| format!("{}: read .text: {e}", self.app.name))?;
        if got == self.text {
            Ok(())
        } else {
            Err(format!("{}: restored .text differs from the unsanitized image", self.app.name))
        }
    }

    /// A server for this package alone, trusting `platform`'s quotes.
    pub fn server(&self, platform: &Platform) -> Arc<AuthServer> {
        let server = self.package.make_server(ias_for(platform));
        Arc::new(server.with_rng(Box::new(SeededRandom::new(FIXTURE_SEED ^ 0x5E))))
    }
}

/// A copy of `p` (the package type has no `Clone`).
pub fn copy_package(p: &ProtectedPackage) -> ProtectedPackage {
    ProtectedPackage {
        image: p.image.clone(),
        sigstruct: p.sigstruct.clone(),
        meta: p.meta.clone(),
        server_data: p.server_data.clone(),
        local_data_file: p.local_data_file.clone(),
        mrenclave: p.mrenclave,
        sanitized_functions: p.sanitized_functions.clone(),
    }
}

/// A platform provisioned from the fixture seed.
pub fn platform(salt: u64) -> Platform {
    let mut rng = SeededRandom::new(FIXTURE_SEED ^ salt);
    Platform::provision(&mut rng, &mut AttestationService::new())
}

/// An attestation service that knows `platform`'s quoting key.
pub fn ias_for(platform: &Platform) -> AttestationService {
    let mut ias = AttestationService::new();
    ias.register_device(platform.qe.device_public_key().clone());
    ias
}

/// A quote over `report_data` from `enclave`, as the untrusted host
/// produces it for a handshake.
///
/// # Errors
///
/// `EREPORT` or quoting failures, as transport errors.
pub fn quote(
    enclave: &Enclave,
    qe: &QuotingEnclave,
    report_data: [u8; 64],
) -> Result<Vec<u8>, ElideError> {
    let report = ereport(enclave, &TargetInfo { mrenclave: QE_MEASUREMENT }, report_data)
        .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
    let quote = qe.quote(&report).map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
    Ok(quote.to_bytes())
}

/// Runs the app's self-checking workload (it panics on any divergence
/// from the host reference). Returns the instructions it retired.
pub fn self_check(
    name: &str,
    rt: &mut EnclaveRuntime,
    idx: &HashMap<String, u64>,
) -> Result<u64, String> {
    let before = rt.retired_total();
    std::panic::catch_unwind(AssertUnwindSafe(|| elide_apps::run_workload(name, rt, idx)))
        .map_err(|p| format!("{name}: workload check failed: {}", panic_msg(&p)))?;
    Ok(rt.retired_total() - before)
}

fn panic_msg(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

const SERVER_SPANS: [&str; 9] = [
    "server.other",
    "server.meta",
    "server.data",
    "server.handshake",
    "server.ticket",
    "server.resume",
    "server.delegate",
    "server.peer_attest",
    "server.peer_restore",
];
const SERVICE_SPANS: [&str; 9] = [
    "service.other",
    "service.meta",
    "service.data",
    "service.handshake",
    "service.ticket",
    "service.resume",
    "service.delegate",
    "service.peer_attest",
    "service.peer_restore",
];

/// A transport that records each request as a span keyed by its verb:
/// in-process transports under `server` (the server runs inline), TCP
/// transports under `service` (a client-side round trip).
pub struct Timed<T> {
    inner: T,
    names: &'static [&'static str; 9],
    layer: &'static str,
}

impl<T> Timed<T> {
    /// Wraps an in-process transport.
    pub fn server(inner: T) -> Self {
        Timed { inner, names: &SERVER_SPANS, layer: "server" }
    }

    /// Wraps a network transport.
    pub fn service(inner: T) -> Self {
        Timed { inner, names: &SERVICE_SPANS, layer: "service" }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        debug_assert_eq!(request::HANDSHAKE, 3, "span table follows the verb numbering");
        let name = self.names.get(usize::from(req)).copied().unwrap_or(self.names[0]);
        trace::span(self.layer, name, || self.inner.request(req, payload))
    }
}

/// A seeded stream of workload decisions.
pub struct Stream(SeededRandom);

impl Stream {
    /// The stream for `seed`, separated per workload by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Stream(SeededRandom::new(seed ^ salt.rotate_left(17)))
    }

    /// A raw 64-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.draw() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.draw() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}
