//! High-level orchestration: protect an enclave image, stand up the
//! authentication server, and launch the protected enclave — the developer
//! workflow of Figure 1 in a few calls.

use crate::error::ElideError;
use crate::meta::SecretMeta;
use crate::protocol::Transport;
use crate::restore::{
    install_ocalls, is_transient, lock, DelegateSlot, ElideFiles, ErrorSink, RestoreStats,
    RetryPolicy, SealedStore,
};
use crate::sanitizer::{sanitize, sanitize_blacklist, DataPlacement, SanitizedEnclave};
use crate::server::{AuthServer, ExpectedIdentity};
use crate::whitelist::Whitelist;
use elide_crypto::rng::{RandomSource, SeededRandom};
use elide_crypto::rsa::RsaKeyPair;
use elide_enclave::loader::{sign_enclave, ImagePlan};
use elide_enclave::runtime::EnclaveRuntime;
use sgx_sim::quote::{AttestationService, QuotingEnclave};
use sgx_sim::sigstruct::SigStruct;
use sgx_sim::SgxCpu;
use std::sync::{Arc, Mutex};

/// Sanitization mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Whitelist mode (the paper's final design): redact everything not in
    /// the dummy enclave.
    Whitelist,
    /// Blacklist mode (the §3.2 ablation): redact only the named functions.
    Blacklist(Vec<String>),
}

/// A user platform: SGX processor plus its provisioned quoting enclave.
pub struct Platform {
    /// The processor.
    pub cpu: SgxCpu,
    /// The quoting enclave.
    pub qe: Arc<QuotingEnclave>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform").finish_non_exhaustive()
    }
}

impl Platform {
    /// Powers on a platform and registers its device key with `ias`.
    pub fn provision(rng: &mut dyn RandomSource, ias: &mut AttestationService) -> Platform {
        let cpu = SgxCpu::new(rng);
        let qe = QuotingEnclave::provision(&cpu, rng);
        ias.register_device(qe.device_public_key().clone());
        Platform { cpu, qe: Arc::new(qe) }
    }
}

/// Everything `protect` produces: ship `image` + `sigstruct` (+
/// `local_data_file`), give `meta`/`server_data` to the server.
pub struct ProtectedPackage {
    /// The sanitized, signed enclave image.
    pub image: Vec<u8>,
    /// Vendor signature over the sanitized measurement.
    pub sigstruct: SigStruct,
    /// Server-only metadata.
    pub meta: SecretMeta,
    /// Server-only plaintext payload (empty in local mode).
    pub server_data: Vec<u8>,
    /// `enclave.secret.data` shipped with the enclave (local mode).
    pub local_data_file: Vec<u8>,
    /// MRENCLAVE of the sanitized image (what attestation must show).
    pub mrenclave: [u8; 32],
    /// Names and sizes of sanitized functions (Table 1).
    pub sanitized_functions: Vec<(String, u64)>,
}

impl std::fmt::Debug for ProtectedPackage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedPackage")
            .field("image_len", &self.image.len())
            .field("sanitized_functions", &self.sanitized_functions.len())
            .finish_non_exhaustive()
    }
}

/// Sanitizes and signs an enclave image built with the SgxElide runtime.
///
/// # Errors
///
/// Propagates sanitizer and signing errors; in particular
/// [`ElideError::BadImage`] when the image was not linked against
/// [`crate::elide_asm::ELIDE_ASM`].
pub fn protect(
    image: &[u8],
    vendor: &RsaKeyPair,
    mode: &Mode,
    placement: DataPlacement,
    rng: &mut dyn RandomSource,
) -> Result<ProtectedPackage, ElideError> {
    let out: SanitizedEnclave = match mode {
        Mode::Whitelist => {
            let wl = Whitelist::from_dummy_enclave()?;
            sanitize(image, &wl, placement, rng)?
        }
        Mode::Blacklist(fns) => {
            let names: Vec<&str> = fns.iter().map(String::as_str).collect();
            sanitize_blacklist(image, &names, placement, rng)?
        }
    };
    let sigstruct = sign_enclave(&out.image, vendor, 1, 1)?;
    // The SIGSTRUCT carries the sanitized image's measurement.
    let mrenclave = sigstruct.measurement;
    Ok(ProtectedPackage {
        image: out.image,
        sigstruct,
        meta: out.meta,
        server_data: out.secret_data,
        local_data_file: out.local_data_file,
        mrenclave,
        sanitized_functions: out.sanitized_functions,
    })
}

impl ProtectedPackage {
    /// Builds the authentication server for this package, pinned to the
    /// sanitized enclave's measurement and the vendor identity.
    pub fn make_server(&self, ias: AttestationService) -> AuthServer {
        let expected = ExpectedIdentity {
            mrenclave: Some(self.mrenclave),
            mrsigner: self.sigstruct.mrsigner().ok(),
        };
        let data = if self.meta.is_local() { Vec::new() } else { self.server_data.clone() };
        AuthServer::new(self.meta.clone(), data, expected, ias)
    }

    /// The files the untrusted host ships next to the enclave.
    pub fn files(&self, sealed: SealedStore) -> ElideFiles {
        ElideFiles {
            data_file: if self.meta.is_local() { Some(self.local_data_file.clone()) } else { None },
            sealed,
        }
    }

    /// Loads the sanitized enclave on `platform` and wires the SgxElide
    /// ocalls against `transport`. Returns the runtime, ready for
    /// [`LaunchedApp::restore`].
    ///
    /// # Errors
    ///
    /// Propagates load/`EINIT` failures.
    pub fn launch(
        &self,
        platform: &Platform,
        transport: Arc<Mutex<dyn Transport + Send>>,
        sealed: SealedStore,
        seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        self.launch_planned(&self.image_plan()?, platform, transport, sealed, seed)
    }

    /// Pre-parses this package's image into an [`ImagePlan`] so repeated
    /// launches (warm starts, pool cycling) skip the ELF walk.
    ///
    /// # Errors
    ///
    /// Propagates image parse failures.
    pub fn image_plan(&self) -> Result<ImagePlan, ElideError> {
        Ok(ImagePlan::new(&self.image)?)
    }

    /// [`Self::launch`] from a pre-parsed [`ImagePlan`] (must come from
    /// this package's image). A warm start is this launch over
    /// [`crate::protocol::OfflineTransport`]: the restore must then take the
    /// sealed fast path, and fails with [`ElideError::NoSealedState`] if it
    /// reaches for the server instead.
    ///
    /// # Errors
    ///
    /// Propagates load/`EINIT` failures.
    pub fn launch_planned(
        &self,
        plan: &ImagePlan,
        platform: &Platform,
        transport: Arc<Mutex<dyn Transport + Send>>,
        sealed: SealedStore,
        seed: u64,
    ) -> Result<LaunchedApp, ElideError> {
        let loaded = plan.load(&platform.cpu, &self.sigstruct)?;
        let runtime = EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(seed)));
        Ok(LaunchedApp::new(runtime, transport, Arc::clone(&platform.qe), self.files(sealed)))
    }
}

/// A launched (sanitized) enclave with the SgxElide ocalls installed.
pub struct LaunchedApp {
    /// The underlying enclave runtime; use it for application ecalls.
    pub runtime: EnclaveRuntime,
    /// How [`Self::restore`] retries transient failures; never by default.
    pub retry: RetryPolicy,
    /// Records the underlying host-side error behind a failed restore.
    errors: ErrorSink,
    /// Holds the delegate transport during [`Self::restore_delegated`].
    delegate: DelegateSlot,
}

impl std::fmt::Debug for LaunchedApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchedApp")
            .field("runtime", &self.runtime)
            .field("retry", &self.retry)
            .finish_non_exhaustive()
    }
}

impl LaunchedApp {
    /// Installs the SgxElide ocalls into `runtime`: server requests go to
    /// `transport` (quoted against `qe`), file reads and writes to `files`.
    pub fn new(
        mut runtime: EnclaveRuntime,
        transport: Arc<Mutex<dyn Transport + Send>>,
        qe: Arc<QuotingEnclave>,
        files: ElideFiles,
    ) -> Self {
        let (errors, delegate) = install_ocalls(&mut runtime, transport, qe, files);
        LaunchedApp { runtime, retry: RetryPolicy::none(), errors, delegate }
    }

    /// Restores the enclave's secret code (the one developer-visible call):
    /// the guest tries its sealed blob, then the server, and transient
    /// failures are retried under [`Self::retry`] with a full handshake.
    ///
    /// # Errors
    ///
    /// The underlying host-side cause when the ocalls recorded one, else
    /// [`ElideError::RestoreFailed`] with the guest status (see
    /// [`crate::elide_asm::restore_status`]) or the ecall's own fault. A
    /// non-transient error (see [`is_transient`]) is returned at once.
    pub fn restore(&mut self, restore_ecall_index: u64) -> Result<RestoreStats, ElideError> {
        let mut result = self.attempt(restore_ecall_index, &[]);
        for delay in self.retry.delays() {
            match &result {
                Err(e) if is_transient(e) => std::thread::sleep(delay),
                _ => break,
            }
            result = self.attempt(restore_ecall_index, &[]);
        }
        result
    }

    /// Restores through a local delegate instead of the origin server: the
    /// guest attests to `delegate_mrenclave`, and for this one call its
    /// server requests go to `delegate`. Any failure leaves the enclave
    /// sanitized, and a later [`Self::restore`] on the same runtime goes to
    /// the origin. There is no retry.
    ///
    /// # Errors
    ///
    /// As for [`Self::restore`].
    pub fn restore_delegated(
        &mut self,
        restore_ecall_index: u64,
        delegate: Box<dyn Transport + Send>,
        delegate_mrenclave: &[u8; 32],
    ) -> Result<RestoreStats, ElideError> {
        *lock(&self.delegate) = Some(delegate);
        let result = self.attempt(restore_ecall_index, delegate_mrenclave);
        *lock(&self.delegate) = None;
        result
    }

    /// One `elide_restore` ecall. A 32-byte `input` makes the guest attest
    /// to that MRENCLAVE (a local delegate) instead of the quoting enclave.
    fn attempt(
        &mut self,
        restore_ecall_index: u64,
        input: &[u8],
    ) -> Result<RestoreStats, ElideError> {
        lock(&self.errors).take(); // a stale cause from an earlier attempt
        let result = self.runtime.ecall(restore_ecall_index, input, 0);
        let cause = lock(&self.errors).take();
        match result {
            Ok(r) if r.status == crate::elide_asm::restore_status::OK => {
                Ok(RestoreStats { instructions: r.instructions })
            }
            Ok(r) => Err(cause.unwrap_or(ElideError::RestoreFailed { status: r.status })),
            Err(e) => Err(cause.unwrap_or(e.into())),
        }
    }
}
