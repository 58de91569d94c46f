//! Error type for the SgxElide pipeline.

use elide_enclave::EnclaveError;
use std::fmt;

/// Errors raised by the sanitizer, server, or runtime restorer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ElideError {
    /// Enclave build/load/run failure.
    Enclave(EnclaveError),
    /// ELF parse/patch failure.
    Elf(elide_elf::ElfError),
    /// The image lacks a required section or symbol.
    BadImage(String),
    /// The enclave's `elide_restore` returned a failure status.
    RestoreFailed {
        /// Status code (see [`crate::elide_asm::restore_status`]).
        status: u64,
    },
    /// Attestation or session failure on the server side.
    Server(ServerError),
    /// A transport-level failure talking to the server.
    Transport(String),
    /// A secret-store registration/loading failure.
    Store(String),
    /// A warm start found no usable sealed blob — the enclave was never
    /// provisioned (or its sealed state was discarded or tampered with); a
    /// cold launch with a full attested handshake is required first.
    NoSealedState,
}

/// Errors the authentication server reports.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServerError {
    /// Quote verification failed (unknown device or bad signature).
    AttestationFailed,
    /// The quoted enclave is not the expected one.
    WrongEnclave,
    /// The report data does not bind the DH public value.
    BadBinding,
    /// META/DATA requested before a successful handshake.
    NoSession,
    /// Malformed request payload.
    BadRequest,
    /// Unknown request type byte.
    UnknownRequest(u8),
    /// The server hit an internal failure (e.g. secret-store I/O); the
    /// client may retry.
    Internal,
    /// A session-resumption ticket was invalid, expired, replayed, or
    /// sealed for a different enclave; the client must fall back to the
    /// full attested handshake.
    TicketRejected,
    /// A delegation request was refused: the requester is not authorized
    /// to delegate, the peer is outside the signed policy, the policy has
    /// expired or been revoked, or a peer-attestation report failed
    /// in-enclave verification. The peer must fall back to the origin.
    DelegationRejected,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::AttestationFailed => write!(f, "quote verification failed"),
            ServerError::WrongEnclave => write!(f, "quoted enclave is not the expected one"),
            ServerError::BadBinding => write!(f, "report data does not bind the DH key"),
            ServerError::NoSession => write!(f, "no attested session established"),
            ServerError::BadRequest => write!(f, "malformed request"),
            ServerError::UnknownRequest(b) => write!(f, "unknown request type {b}"),
            ServerError::Internal => write!(f, "internal server error"),
            ServerError::TicketRejected => write!(f, "resumption ticket rejected"),
            ServerError::DelegationRejected => write!(f, "delegation request rejected"),
        }
    }
}

impl std::error::Error for ServerError {}

impl fmt::Display for ElideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElideError::Enclave(e) => write!(f, "enclave error: {e}"),
            ElideError::Elf(e) => write!(f, "elf error: {e}"),
            ElideError::BadImage(s) => write!(f, "bad enclave image: {s}"),
            ElideError::RestoreFailed { status } => {
                write!(f, "elide_restore failed with status {status}")
            }
            ElideError::Server(e) => write!(f, "server error: {e}"),
            ElideError::Transport(s) => write!(f, "transport error: {s}"),
            ElideError::Store(s) => write!(f, "secret store error: {s}"),
            ElideError::NoSealedState => {
                write!(f, "no sealed state: the enclave must be provisioned (cold) first")
            }
        }
    }
}

impl std::error::Error for ElideError {}

impl From<EnclaveError> for ElideError {
    fn from(e: EnclaveError) -> Self {
        ElideError::Enclave(e)
    }
}

impl From<elide_elf::ElfError> for ElideError {
    fn from(e: elide_elf::ElfError) -> Self {
        ElideError::Elf(e)
    }
}

impl From<ServerError> for ElideError {
    fn from(e: ServerError) -> Self {
        ElideError::Server(e)
    }
}
