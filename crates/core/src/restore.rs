//! The untrusted half of the Runtime Restorer: the `elide_server_request`,
//! `elide_read_file` and `elide_write_file` ocalls (§3.4: "the ocalls are
//! automatically called by our library"), installed by
//! [`crate::api::LaunchedApp::new`], plus the client-side retry policy.

use crate::elide_asm::{request, OCALL_READ_FILE, OCALL_SERVER_REQUEST, OCALL_WRITE_FILE};
use crate::error::ElideError;
use crate::protocol::Transport;
use elide_enclave::runtime::EnclaveRuntime;
use sgx_sim::quote::QuotingEnclave;
use sgx_sim::report::Report;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared, persistent store for the sealed blob (stands in for the file the
/// paper's step ❼ writes to disk; persists across enclave launches).
pub type SealedStore = Arc<Mutex<Option<Vec<u8>>>>;

/// Side-channel for the *underlying* host error behind a restore failure.
///
/// The ocall ABI can only hand the guest `-1`, which the guest folds into a
/// coarse restore status — losing whether the failure was a timeout, an
/// authentication rejection, or a server-side fault. The ocalls record the
/// last host-side error here so a failed restore can surface it.
pub(crate) type ErrorSink = Arc<Mutex<Option<ElideError>>>;

/// The delegate transport of the delegated restore in progress, if any.
/// [`crate::api::LaunchedApp::restore_delegated`] fills it for one restore
/// and empties it afterwards; every other restore finds it empty.
pub(crate) type DelegateSlot = Arc<Mutex<Option<Box<dyn Transport + Send>>>>;

/// Locks `m`, ignoring poisoning: the guarded values stay consistent even
/// if a holder panicked.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Creates an empty sealed store.
pub fn new_sealed_store() -> SealedStore {
    Arc::new(Mutex::new(None))
}

/// Host-side files available to the enclave's ocalls.
#[derive(Debug, Clone)]
pub struct ElideFiles {
    /// `enclave.secret.data` shipped next to the enclave (local mode).
    pub data_file: Option<Vec<u8>>,
    /// The sealed blob store.
    pub sealed: SealedStore,
}

/// Installs the three SgxElide ocalls into an enclave runtime and returns
/// the runtime's [`ErrorSink`] and [`DelegateSlot`].
///
/// The `elide_server_request` handler converts the enclave's
/// local-attestation report into a quote via the platform quoting enclave
/// before forwarding the handshake to `origin` — the host-side leg of
/// remote attestation. While the slot holds a delegate, every request goes
/// to the delegate instead: the handshake payload is the raw
/// `[report 160][dh_pub]`, with the report targeted at the *delegate's*
/// MRENCLAVE (such a report cannot be quoted: the quoting enclave refuses
/// reports not targeted at itself), so it is forwarded verbatim as a
/// `PEER_ATTEST`, and the follow-up requests belong to the delegate's
/// channel. With the slot empty again, the same runtime falls back to the
/// origin without relaunching.
pub(crate) fn install_ocalls(
    rt: &mut EnclaveRuntime,
    origin: Arc<Mutex<dyn Transport + Send>>,
    qe: Arc<QuotingEnclave>,
    files: ElideFiles,
) -> (ErrorSink, DelegateSlot) {
    let sink: ErrorSink = Arc::new(Mutex::new(None));
    let slot: DelegateSlot = Arc::new(Mutex::new(None));

    // --- elide_server_request ---
    let delegate = Arc::clone(&slot);
    let errors = Arc::clone(&sink);
    rt.register_ocall(
        OCALL_SERVER_REQUEST,
        Box::new(move |regs, mem| {
            let req = regs[1] as u8;
            let in_ptr = regs[2];
            let in_len = regs[3] as usize;
            let out_ptr = regs[4];
            let out_cap = regs[5] as usize;
            let result = (|| -> Result<Vec<u8>, ElideError> {
                let payload = if in_len > 0 { mem.read(in_ptr, in_len)? } else { Vec::new() };
                let handshake = req as u64 == request::HANDSHAKE;
                if handshake && payload.len() <= Report::SERIALIZED_LEN {
                    return Err(ElideError::Transport("handshake payload too short".into()));
                }
                if let Some(delegate) = lock(&delegate).as_mut() {
                    let req = if handshake { request::PEER_ATTEST as u8 } else { req };
                    return delegate.request(req, &payload);
                }
                if !handshake {
                    return origin.lock().expect("transport mutex").request(req, &payload);
                }
                let report = Report::from_bytes(&payload[..Report::SERIALIZED_LEN])
                    .ok_or_else(|| ElideError::Transport("bad report".into()))?;
                let quote = qe
                    .quote(&report)
                    .map_err(|e| ElideError::Transport(format!("quoting failed: {e}")))?;
                let quote_bytes = quote.to_bytes();
                let quote_len = u32::try_from(quote_bytes.len())
                    .map_err(|_| ElideError::Transport("quote too large for frame".into()))?;
                let mut fwd = Vec::with_capacity(4 + quote_bytes.len() + payload.len() - 160);
                fwd.extend_from_slice(&quote_len.to_le_bytes());
                fwd.extend_from_slice(&quote_bytes);
                fwd.extend_from_slice(&payload[Report::SERIALIZED_LEN..]);
                origin.lock().expect("transport mutex").request(req, &fwd)
            })();
            match result {
                Ok(body) if body.len() <= out_cap => {
                    mem.write(out_ptr, &body)?;
                    regs[0] = body.len() as u64;
                }
                // Failures surface to the guest as -1; it maps them to its
                // own status codes (network errors are the developer's to
                // handle, §3.4). The real error is kept for the host.
                Ok(body) => {
                    *lock(&errors) = Some(ElideError::Transport(format!(
                        "server response of {} bytes exceeds the guest's {out_cap}-byte buffer",
                        body.len()
                    )));
                    regs[0] = u64::MAX;
                }
                Err(e) => {
                    *lock(&errors) = Some(e);
                    regs[0] = u64::MAX;
                }
            }
            Ok(())
        }),
    );

    // --- elide_read_file ---
    let data_file = files.data_file.clone();
    let sealed = Arc::clone(&files.sealed);
    rt.register_ocall(
        OCALL_READ_FILE,
        Box::new(move |regs, mem| {
            let out_ptr = regs[4];
            let out_cap = regs[5] as usize;
            let contents: Option<Vec<u8>> = match regs[1] {
                0 => data_file.clone(),
                1 => sealed.lock().expect("sealed store").clone(),
                _ => None,
            };
            match contents {
                Some(bytes) if bytes.len() <= out_cap => {
                    mem.write(out_ptr, &bytes)?;
                    regs[0] = bytes.len() as u64;
                }
                _ => regs[0] = u64::MAX,
            }
            Ok(())
        }),
    );

    // --- elide_write_file ---
    let sealed = Arc::clone(&files.sealed);
    rt.register_ocall(
        OCALL_WRITE_FILE,
        Box::new(move |regs, mem| {
            if regs[1] == 1 {
                let bytes = mem.read(regs[2], regs[3] as usize)?;
                *sealed.lock().expect("sealed store") = Some(bytes);
                regs[0] = 0;
            } else {
                regs[0] = u64::MAX;
            }
            Ok(())
        }),
    );

    (sink, slot)
}

/// Statistics from one restoration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreStats {
    /// Instructions the enclave retired during `elide_restore`.
    pub instructions: u64,
}

/// Client-side retry policy: connect attempts and restore re-runs back
/// off exponentially (each delay doubles, capped at `max_delay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub retries: u32,
    /// Delay before the first retry.
    pub initial_delay: std::time::Duration,
    /// Upper bound on any single delay.
    pub max_delay: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            initial_delay: std::time::Duration::from_millis(50),
            max_delay: std::time::Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy { retries: 0, ..Default::default() }
    }

    /// The backoff delays, one per retry.
    pub fn delays(&self) -> Vec<std::time::Duration> {
        crate::protocol::backoff_series(self.initial_delay, self.max_delay, self.retries)
    }
}

/// True when `err` is a failure a healthy server could later satisfy, so a
/// client retry is worthwhile. Authentication rejections
/// ([`ServerError::AttestationFailed`] / [`ServerError::WrongEnclave`] /
/// [`ServerError::BadBinding`]) are permanent: retrying would re-present
/// the same identity and fail the same way.
///
/// [`ServerError::AttestationFailed`]: crate::error::ServerError::AttestationFailed
/// [`ServerError::WrongEnclave`]: crate::error::ServerError::WrongEnclave
/// [`ServerError::BadBinding`]: crate::error::ServerError::BadBinding
pub fn is_transient(err: &ElideError) -> bool {
    use crate::elide_asm::restore_status;
    use crate::error::ServerError;
    match err {
        // Network trouble: the next attempt may reconnect.
        ElideError::Transport(_) => true,
        // Server-side internal fault (e.g. store I/O): explicitly retryable.
        // NoSession is transient too — a reconnect mid-restore lands the
        // next request on a fresh, unestablished session, and the retry's
        // re-handshake repairs that.
        ElideError::Server(ServerError::Internal | ServerError::NoSession) => true,
        ElideError::Server(_) => false,
        // Coarse guest statuses with no recorded cause: same set as before.
        ElideError::RestoreFailed {
            status:
                restore_status::HANDSHAKE_FAILED
                | restore_status::META_FAILED
                | restore_status::DATA_FAILED,
        } => true,
        _ => false,
    }
}
