//! Host-side provisioning client: drives the full attested handshake, the
//! encrypted META/DATA fetches, and — new with the async provisioning
//! plane — ticket-based session resumption over any [`Transport`].
//!
//! The enclave-internal restore path ([`crate::restore`]) keeps speaking
//! the protocol through ocalls; this client is for host tooling, load
//! generators, and fleet agents that relaunch enclaves often enough for
//! the one-round-trip resume path to matter.

use crate::delegation::DelegationBundle;
use crate::elide_asm::request;
use crate::error::ElideError;
use crate::meta::{SecretMeta, META_BODY_LEN};
use crate::protocol::{decrypt_msg, Transport};
use crate::ticket::RESUME_KDF_LABEL;
use elide_crypto::dh::DhKeyPair;
use elide_crypto::kdf::derive_key_128;
use elide_crypto::rng::{OsRandom, RandomSource};
use elide_crypto::rsa::RsaPublicKey;
use elide_crypto::sha2::Sha256;

/// Produces a serialized quote binding `report_data` — the platform leg
/// of attestation (ereport + quoting enclave), injected so the client
/// stays independent of how the caller reaches its enclave.
pub type QuoteFn<'a> = dyn FnMut([u8; 64]) -> Result<Vec<u8>, ElideError> + 'a;

/// The restore payload a resumed session delivers in its single round
/// trip: the secret metadata plus (remote mode) the secret data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumedSecret {
    /// Parsed secret metadata.
    pub meta: SecretMeta,
    /// Secret data (empty in local mode, where the ciphertext ships with
    /// the enclave and only the key travels).
    pub data: Vec<u8>,
}

/// A provisioning session from the client's side of the wire.
///
/// After [`full_handshake`](Self::full_handshake) the client holds the
/// channel key and can fetch secrets; [`request_ticket`](Self::request_ticket)
/// then stores a resumption ticket, and
/// [`try_resume`](Self::try_resume) turns the next relaunch into one
/// round trip, transparently falling back to the full handshake when the
/// server rejects the ticket (expiry, replay, restart, rotation).
pub struct ProvisionClient {
    key: Option<[u8; 16]>,
    ticket: Option<([u8; 16], Vec<u8>)>,
    rng: Box<dyn RandomSource + Send>,
}

impl std::fmt::Debug for ProvisionClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvisionClient")
            .field("established", &self.key.is_some())
            .field("has_ticket", &self.ticket.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for ProvisionClient {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvisionClient {
    /// A fresh, unestablished client using the OS RNG.
    pub fn new() -> Self {
        ProvisionClient { key: None, ticket: None, rng: Box::new(OsRandom) }
    }

    /// Replaces the RNG (seeded in tests).
    pub fn with_rng(mut self, rng: Box<dyn RandomSource + Send>) -> Self {
        self.rng = rng;
        self
    }

    /// True once a handshake or resume has established the channel.
    pub fn is_established(&self) -> bool {
        self.key.is_some()
    }

    /// True while an unredeemed resumption ticket is held.
    pub fn has_ticket(&self) -> bool {
        self.ticket.is_some()
    }

    /// The sealed blob of the held ticket, if any. The blob is opaque to
    /// the client; exposing it lets callers persist or inspect tickets
    /// (and lets abuse tests replay one verbatim).
    pub fn ticket_blob(&self) -> Option<&[u8]> {
        self.ticket.as_ref().map(|(_, blob)| blob.as_slice())
    }

    /// Runs the full DH+attestation handshake: generates an ephemeral DH
    /// key, has `quote_fn` produce a quote whose report data binds it,
    /// and derives the channel key from the server's response.
    ///
    /// # Errors
    ///
    /// Server rejections pass through; a malformed server public value is
    /// [`ElideError::Transport`].
    pub fn full_handshake(
        &mut self,
        transport: &mut dyn Transport,
        quote_fn: &mut QuoteFn,
    ) -> Result<(), ElideError> {
        let kp = DhKeyPair::generate(self.rng.as_mut());
        let public = kp.public_bytes();
        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&Sha256::digest(&public));
        let quote = quote_fn(report_data)?;
        let quote_len = u32::try_from(quote.len())
            .map_err(|_| ElideError::Transport("quote too large for frame".into()))?;
        let mut payload = Vec::with_capacity(4 + quote.len() + public.len());
        payload.extend_from_slice(&quote_len.to_le_bytes());
        payload.extend_from_slice(&quote);
        payload.extend_from_slice(&public);
        let server_pub = transport.request(request::HANDSHAKE as u8, &payload)?;
        let key = kp
            .derive_session_key(&server_pub)
            .ok_or_else(|| ElideError::Transport("bad server DH public value".into()))?;
        self.key = Some(key);
        Ok(())
    }

    fn key(&self) -> Result<&[u8; 16], ElideError> {
        self.key
            .as_ref()
            .ok_or_else(|| ElideError::Transport("client session not established".into()))
    }

    /// Fetches and decrypts the secret metadata.
    ///
    /// # Errors
    ///
    /// Server rejections pass through; decryption failures are
    /// [`ElideError::Transport`].
    pub fn fetch_meta(&mut self, transport: &mut dyn Transport) -> Result<SecretMeta, ElideError> {
        let sealed = transport.request(request::META as u8, &[])?;
        let body = decrypt_msg(self.key()?, &sealed)?;
        SecretMeta::from_body(&body)
            .ok_or_else(|| ElideError::Transport("malformed secret metadata".into()))
    }

    /// Fetches and decrypts the secret data (remote mode only).
    ///
    /// # Errors
    ///
    /// Server rejections pass through; decryption failures are
    /// [`ElideError::Transport`].
    pub fn fetch_data(&mut self, transport: &mut dyn Transport) -> Result<Vec<u8>, ElideError> {
        let sealed = transport.request(request::DATA as u8, &[])?;
        decrypt_msg(self.key()?, &sealed)
    }

    /// Requests a resumption ticket for the established session and
    /// stores it for a later [`resume`](Self::resume).
    ///
    /// # Errors
    ///
    /// Requires an established session; decryption failures are
    /// [`ElideError::Transport`].
    pub fn request_ticket(&mut self, transport: &mut dyn Transport) -> Result<(), ElideError> {
        let sealed = transport.request(request::TICKET as u8, &[])?;
        let body = decrypt_msg(self.key()?, &sealed)?;
        if body.len() <= 16 {
            return Err(ElideError::Transport("short ticket response".into()));
        }
        let mut ticket_id = [0u8; 16];
        ticket_id.copy_from_slice(&body[..16]);
        self.ticket = Some((ticket_id, body[16..].to_vec()));
        Ok(())
    }

    /// Presents the stored ticket to resume in one round trip, consuming
    /// the ticket (tickets are single-use server-side) and rotating the
    /// channel to the derived resumption key.
    ///
    /// # Errors
    ///
    /// [`crate::error::ServerError::TicketRejected`] when the server refuses the ticket
    /// (callers usually want [`try_resume`](Self::try_resume), which falls
    /// back automatically); [`ElideError::Transport`] without a ticket.
    pub fn resume(&mut self, transport: &mut dyn Transport) -> Result<ResumedSecret, ElideError> {
        let (ticket_id, blob) = self
            .ticket
            .take()
            .ok_or_else(|| ElideError::Transport("no resumption ticket held".into()))?;
        let old_key = *self.key()?;
        let resumed_key = derive_key_128(&old_key, RESUME_KDF_LABEL, &ticket_id);
        let sealed = transport.request(request::RESUME as u8, &blob)?;
        let body = decrypt_msg(&resumed_key, &sealed)?;
        if body.len() < META_BODY_LEN {
            return Err(ElideError::Transport("short resume response".into()));
        }
        let meta = SecretMeta::from_body(&body[..META_BODY_LEN])
            .ok_or_else(|| ElideError::Transport("malformed secret metadata".into()))?;
        let data = body[META_BODY_LEN..].to_vec();
        self.key = Some(resumed_key);
        Ok(ResumedSecret { meta, data })
    }

    /// Fetches this session's [`DelegationBundle`] over the established
    /// channel (the `DELEGATE` verb) and validates the policy signature
    /// against the origin's delegation public key before returning it.
    /// The caller is expected to be the host agent standing up a
    /// [`crate::delegation::DelegateServer`] for the enclave this session
    /// attested.
    ///
    /// # Errors
    ///
    /// [`crate::error::ServerError::DelegationRejected`] passes through (no grant);
    /// a malformed bundle or a policy the origin key did not sign is
    /// [`ElideError::Transport`] — the wire or the server is lying.
    pub fn fetch_delegation(
        &mut self,
        transport: &mut dyn Transport,
        origin_key: &RsaPublicKey,
    ) -> Result<DelegationBundle, ElideError> {
        let sealed = transport.request(request::DELEGATE as u8, &[])?;
        let body = decrypt_msg(self.key()?, &sealed)?;
        let bundle = DelegationBundle::from_bytes(&body)
            .ok_or_else(|| ElideError::Transport("malformed delegation bundle".into()))?;
        if !bundle.signed.verify(origin_key) {
            return Err(ElideError::Transport("delegation policy signature invalid".into()));
        }
        Ok(bundle)
    }

    /// The relaunch path: resume from the stored ticket if possible,
    /// otherwise (no ticket, or the server rejected it) run the full
    /// handshake and fetch the secret the long way. Returns the secret
    /// plus whether the fast path was taken.
    ///
    /// # Errors
    ///
    /// Errors from the fallback full handshake or fetches propagate.
    pub fn try_resume(
        &mut self,
        transport: &mut dyn Transport,
        quote_fn: &mut QuoteFn,
    ) -> Result<(ResumedSecret, bool), ElideError> {
        if self.ticket.is_some() && self.key.is_some() {
            // Any resume rejection falls back: the ticket is spent or the
            // server no longer honors it, and the full handshake is
            // always sufficient.
            if let Ok(secret) = self.resume(transport) {
                return Ok((secret, true));
            }
        }
        self.full_handshake(transport, quote_fn)?;
        let meta = self.fetch_meta(transport)?;
        let data = if meta.is_local() { Vec::new() } else { self.fetch_data(transport)? };
        Ok((ResumedSecret { meta, data }, false))
    }
}
