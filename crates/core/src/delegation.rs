//! Delegated enclave-to-enclave provisioning: peer-to-peer secret fan-out.
//!
//! The paper's protocol contacts the developer's authentication server on
//! every enclave launch. At fleet scale that server is the hot-path
//! bottleneck, so this module lets one *provisioned* enclave on a host act
//! as a **delegate secret server** for its neighbors:
//!
//! 1. The origin [`crate::server::AuthServer`] provisions delegate A the
//!    classic way (DH + remote attestation), then — over the same attested
//!    channel — hands it a [`DelegationBundle`]: a [`SignedPolicy`] naming
//!    the peer identities A may serve, plus the per-peer secrets, all
//!    signed by the origin's delegation key.
//! 2. A peer enclave B attests *locally*: it sends A a 160-byte
//!    local-attestation `Report` targeted at A's MRENCLAVE (the
//!    `EREPORT_TARGETED` intrinsic) with its DH public value bound into
//!    the report data.
//! 3. A verifies the report **inside the enclave** (the whitelisted
//!    `elide_verify_report` ecall → `VERIFY_REPORT` intrinsic: same
//!    processor, targeted at A), checks B against the signed policy, and
//!    serves B's secrets over the report-data-bound DH channel.
//!
//! The origin server is contacted **once per host** no matter how many
//! peers launch. Everything here fails closed: a revoked or expired
//! policy, a report that does not verify, an identity outside the policy,
//! or a tampered re-sealed payload all leave the peer's secret code
//! unexecutable (the peer falls back to the origin, or stays sanitized).

use crate::elide_asm::request;
use crate::error::{ElideError, ServerError};
use crate::meta::{SecretMeta, META_BODY_LEN};
use crate::protocol::{seal_msg_with, Transport};
use crate::ticket::MAX_CLOCK_SKEW_MS;
use elide_crypto::dh::DhKeyPair;
use elide_crypto::gcm::AesGcm;
use elide_crypto::rng::RandomSource;
use elide_crypto::rsa::RsaPublicKey;
use elide_crypto::sha2::Sha256;
use sgx_sim::report::Report;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Magic prefix of a serialized [`DelegationPolicy`].
pub const POLICY_MAGIC: &[u8; 8] = b"ELIDPOLI";
/// Magic prefix of a serialized [`DelegationBundle`].
pub const BUNDLE_MAGIC: &[u8; 8] = b"ELIDBNDL";

/// One peer identity a delegate is authorized to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerGrant {
    /// Peer MRENCLAVE.
    pub mrenclave: [u8; 32],
    /// Peer MRSIGNER.
    pub mrsigner: [u8; 32],
}

/// The origin-authored authorization: which delegate may serve which
/// peers, and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationPolicy {
    /// MRENCLAVE of the authorized delegate. Peer reports must target
    /// exactly this measurement.
    pub delegate_mrenclave: [u8; 32],
    /// Unique policy id (revocation/audit handle).
    pub policy_id: [u8; 16],
    /// Issue time, milliseconds since the Unix epoch.
    pub issued_ms: u64,
    /// Validity window in milliseconds (0 = already expired).
    pub ttl_ms: u64,
    /// Identities the delegate may serve.
    pub peers: Vec<PeerGrant>,
}

impl DelegationPolicy {
    /// True when `(mrenclave, mrsigner)` appears in the grant list.
    pub fn permits(&self, mrenclave: &[u8; 32], mrsigner: &[u8; 32]) -> bool {
        self.peers.iter().any(|g| &g.mrenclave == mrenclave && &g.mrsigner == mrsigner)
    }

    /// Expiry check with the same clock-skew discipline as resumption
    /// tickets ([`crate::ticket::TicketPlain::expired_at`]): a zero TTL is
    /// always expired, and a policy issued more than [`MAX_CLOCK_SKEW_MS`]
    /// in the future is treated as forged rather than not-yet-valid.
    pub fn expired_at(&self, now: u64) -> bool {
        if self.ttl_ms == 0 || self.issued_ms > now.saturating_add(MAX_CLOCK_SKEW_MS) {
            return true;
        }
        now.saturating_sub(self.issued_ms) >= self.ttl_ms
    }

    /// Serializes to the canonical layout:
    /// `ELIDPOLI || delegate_mrenclave || policy_id || issued_ms || ttl_ms
    /// || peer_count u32 || (mrenclave, mrsigner)*`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 + 16 + 8 + 8 + 4 + self.peers.len() * 64);
        out.extend_from_slice(POLICY_MAGIC);
        out.extend_from_slice(&self.delegate_mrenclave);
        out.extend_from_slice(&self.policy_id);
        out.extend_from_slice(&self.issued_ms.to_le_bytes());
        out.extend_from_slice(&self.ttl_ms.to_le_bytes());
        out.extend_from_slice(&(self.peers.len() as u32).to_le_bytes());
        for g in &self.peers {
            out.extend_from_slice(&g.mrenclave);
            out.extend_from_slice(&g.mrsigner);
        }
        out
    }

    /// Parses the canonical layout; rejects trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 76 || &bytes[..8] != POLICY_MAGIC {
            return None;
        }
        let delegate_mrenclave: [u8; 32] = bytes[8..40].try_into().ok()?;
        let policy_id: [u8; 16] = bytes[40..56].try_into().ok()?;
        let issued_ms = u64::from_le_bytes(bytes[56..64].try_into().ok()?);
        let ttl_ms = u64::from_le_bytes(bytes[64..72].try_into().ok()?);
        let count = u32::from_le_bytes(bytes[72..76].try_into().ok()?) as usize;
        if bytes.len() != 76usize.checked_add(count.checked_mul(64)?)? {
            return None;
        }
        let mut peers = Vec::with_capacity(count);
        for i in 0..count {
            let off = 76 + i * 64;
            peers.push(PeerGrant {
                mrenclave: bytes[off..off + 32].try_into().ok()?,
                mrsigner: bytes[off + 32..off + 64].try_into().ok()?,
            });
        }
        Some(DelegationPolicy { delegate_mrenclave, policy_id, issued_ms, ttl_ms, peers })
    }
}

/// A [`DelegationPolicy`] plus the origin's RSA signature over its
/// canonical serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedPolicy {
    /// The policy.
    pub policy: DelegationPolicy,
    /// Origin signature over [`DelegationPolicy::to_bytes`].
    pub signature: Vec<u8>,
}

impl SignedPolicy {
    /// True when `key` (the origin's delegation public key) signed this
    /// exact policy.
    pub fn verify(&self, key: &RsaPublicKey) -> bool {
        key.verify(&self.policy.to_bytes(), &self.signature).is_ok()
    }

    /// Serializes as `[policy_len u32][policy][sig_len u32][sig]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let policy = self.policy.to_bytes();
        let mut out = Vec::with_capacity(8 + policy.len() + self.signature.len());
        out.extend_from_slice(&(policy.len() as u32).to_le_bytes());
        out.extend_from_slice(&policy);
        out.extend_from_slice(&(self.signature.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses the canonical layout; rejects trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let policy_len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let mut off = 4;
        let policy = DelegationPolicy::from_bytes(bytes.get(off..off + policy_len)?)?;
        off += policy_len;
        let sig_len = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?) as usize;
        off += 4;
        let signature = bytes.get(off..off + sig_len)?.to_vec();
        off += sig_len;
        if off != bytes.len() {
            return None;
        }
        Some(SignedPolicy { policy, signature })
    }
}

/// The secret material a delegate re-serves to one peer identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSecret {
    /// Peer MRENCLAVE this secret is for.
    pub mrenclave: [u8; 32],
    /// Peer MRSIGNER this secret is for.
    pub mrsigner: [u8; 32],
    /// The peer's secret metadata.
    pub meta: SecretMeta,
    /// The peer's secret data (empty in local mode).
    pub data: Vec<u8>,
}

/// What the origin hands a delegate over the attested channel: the signed
/// policy plus the secrets of every granted peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationBundle {
    /// The signed authorization.
    pub signed: SignedPolicy,
    /// Per-peer secrets, one entry per policy grant.
    pub secrets: Vec<PeerSecret>,
}

impl DelegationBundle {
    /// The secret entry for `(mrenclave, mrsigner)`, if granted.
    pub fn secret_for(&self, mrenclave: &[u8; 32], mrsigner: &[u8; 32]) -> Option<&PeerSecret> {
        self.secrets.iter().find(|s| &s.mrenclave == mrenclave && &s.mrsigner == mrsigner)
    }

    /// Serializes as `ELIDBNDL || [signed_len u32][signed] ||
    /// [count u32] || ([mrenclave][mrsigner][meta_body][data_len u32][data])*`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let signed = self.signed.to_bytes();
        let mut out = Vec::with_capacity(16 + signed.len());
        out.extend_from_slice(BUNDLE_MAGIC);
        out.extend_from_slice(&(signed.len() as u32).to_le_bytes());
        out.extend_from_slice(&signed);
        out.extend_from_slice(&(self.secrets.len() as u32).to_le_bytes());
        for s in &self.secrets {
            out.extend_from_slice(&s.mrenclave);
            out.extend_from_slice(&s.mrsigner);
            out.extend_from_slice(&s.meta.to_body());
            out.extend_from_slice(&(s.data.len() as u32).to_le_bytes());
            out.extend_from_slice(&s.data);
        }
        out
    }

    /// Parses the canonical layout; rejects trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 || &bytes[..8] != BUNDLE_MAGIC {
            return None;
        }
        let signed_len = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        let mut off = 12;
        let signed = SignedPolicy::from_bytes(bytes.get(off..off + signed_len)?)?;
        off += signed_len;
        let count = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?) as usize;
        off += 4;
        let mut secrets = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let mrenclave: [u8; 32] = bytes.get(off..off + 32)?.try_into().ok()?;
            off += 32;
            let mrsigner: [u8; 32] = bytes.get(off..off + 32)?.try_into().ok()?;
            off += 32;
            let meta = SecretMeta::from_body(bytes.get(off..off + META_BODY_LEN)?)?;
            off += META_BODY_LEN;
            let data_len = u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?) as usize;
            off += 4;
            let data = bytes.get(off..off + data_len)?.to_vec();
            off += data_len;
            secrets.push(PeerSecret { mrenclave, mrsigner, meta, data });
        }
        if off != bytes.len() {
            return None;
        }
        Some(DelegationBundle { signed, secrets })
    }
}

/// In-enclave verification of a peer's local-attestation report — the
/// delegate-side trust anchor. Production delegates use
/// [`EcallReportVerifier`] (the whitelisted `elide_verify_report` ecall);
/// tests can substitute hostile or permissive verifiers.
pub trait ReportVerifier: Send {
    /// MRENCLAVE peers must target (the delegate's own measurement).
    fn delegate_mrenclave(&self) -> [u8; 32];
    /// True when the 160-byte serialized report carries a valid MAC under
    /// the delegate's report key (same processor, targeted at the
    /// delegate).
    fn verify(&mut self, report: &[u8]) -> bool;
}

/// [`ReportVerifier`] backed by a launched delegate enclave: each verify
/// is one `elide_verify_report` ecall (status 0 = genuine). The ecall is
/// whitelisted, so it works on an *unrestored* instance of the delegate
/// image — which is how a delegate can vouch for its own twin before any
/// peer (including that twin) holds the secret code.
pub struct EcallReportVerifier {
    app: Arc<Mutex<crate::api::LaunchedApp>>,
    ecall_index: u64,
    mrenclave: [u8; 32],
}

impl EcallReportVerifier {
    /// Wraps a launched instance of the delegate image. `ecall_index` is
    /// the image's `elide_verify_report` slot; `mrenclave` its
    /// measurement.
    pub fn new(
        app: Arc<Mutex<crate::api::LaunchedApp>>,
        ecall_index: u64,
        mrenclave: [u8; 32],
    ) -> Self {
        EcallReportVerifier { app, ecall_index, mrenclave }
    }
}

impl ReportVerifier for EcallReportVerifier {
    fn delegate_mrenclave(&self) -> [u8; 32] {
        self.mrenclave
    }

    fn verify(&mut self, report: &[u8]) -> bool {
        let mut app = self.app.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        matches!(app.runtime.ecall(self.ecall_index, report, 0), Ok(r) if r.status == 0)
    }
}

/// Per-peer channel state on the delegate (mirrors the origin's
/// [`crate::session::Session`], scoped to one peer connection).
struct PeerSession {
    channel: AesGcm,
    iv_salt: [u8; 4],
    seq: u64,
    secret: PeerSecret,
}

impl PeerSession {
    fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut iv = [0u8; 12];
        iv[..8].copy_from_slice(&self.seq.to_le_bytes());
        iv[8..].copy_from_slice(&self.iv_salt);
        self.seq += 1;
        seal_msg_with(&self.channel, &iv, plaintext)
    }
}

/// A host-resident delegate secret server: one provisioned enclave's
/// bundle, its in-enclave report verifier, and the serving state.
///
/// Construction validates the whole trust chain up front: the bundle's
/// policy signature against the origin's delegation key, the policy's
/// delegate measurement against the verifier's enclave, and the expiry
/// window. A delegate that fails any check never serves a single peer.
pub struct DelegateServer {
    bundle: DelegationBundle,
    verifier: Mutex<Box<dyn ReportVerifier>>,
    rng: Mutex<Box<dyn RandomSource + Send>>,
    served: AtomicU64,
    revoked: AtomicBool,
    online: AtomicBool,
}

impl std::fmt::Debug for DelegateServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelegateServer")
            .field("peers", &self.bundle.signed.policy.peers.len())
            .field("served", &self.served.load(Ordering::Relaxed))
            .field("revoked", &self.revoked.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl DelegateServer {
    /// Validates the trust chain and stands up the delegate.
    ///
    /// # Errors
    ///
    /// [`ServerError::DelegationRejected`] when the policy signature does
    /// not verify under `origin_key`, the policy names a different
    /// delegate than `verifier`'s enclave, or the policy is expired (or
    /// future-dated beyond the skew allowance) at `now_ms`.
    pub fn new(
        bundle: DelegationBundle,
        origin_key: &RsaPublicKey,
        verifier: Box<dyn ReportVerifier>,
        rng: Box<dyn RandomSource + Send>,
        now_ms: u64,
    ) -> Result<Arc<Self>, ElideError> {
        if !bundle.signed.verify(origin_key) {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        if bundle.signed.policy.delegate_mrenclave != verifier.delegate_mrenclave() {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        if bundle.signed.policy.expired_at(now_ms) {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        Ok(Arc::new(DelegateServer {
            bundle,
            verifier: Mutex::new(verifier),
            rng: Mutex::new(rng),
            served: AtomicU64::new(0),
            revoked: AtomicBool::new(false),
            online: AtomicBool::new(true),
        }))
    }

    /// The validated policy.
    pub fn policy(&self) -> &DelegationPolicy {
        &self.bundle.signed.policy
    }

    /// Peer attestations served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Revokes the delegate: every in-flight and future peer request is
    /// refused with [`ServerError::DelegationRejected`].
    pub fn revoke(&self) {
        self.revoked.store(true, Ordering::SeqCst);
    }

    /// True once revoked.
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }

    /// Marks the delegate (un)reachable — models the delegate enclave
    /// being evicted mid-handshake. Offline delegates fail requests with a
    /// transport error, which peers treat as "fall back to the origin".
    pub fn set_online(&self, online: bool) {
        self.online.store(online, Ordering::SeqCst);
    }

    /// True while the delegate is serving.
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::SeqCst)
    }

    /// True when this delegate may serve `(mrenclave, mrsigner)` right
    /// now: online, unrevoked, unexpired, granted, and holding the secret.
    pub fn can_serve(&self, mrenclave: &[u8; 32], mrsigner: &[u8; 32], now_ms: u64) -> bool {
        self.is_online()
            && !self.is_revoked()
            && !self.policy().expired_at(now_ms)
            && self.policy().permits(mrenclave, mrsigner)
            && self.bundle.secret_for(mrenclave, mrsigner).is_some()
    }

    /// Opens a peer connection: a [`Transport`] speaking `PEER_ATTEST` /
    /// `META` / `DATA` / `PEER_RESTORE` against this delegate.
    pub fn connect(self: &Arc<Self>) -> DelegatePeerTransport {
        DelegatePeerTransport { server: Arc::clone(self), session: None }
    }

    fn peer_attest(&self, payload: &[u8]) -> Result<(Vec<u8>, PeerSession), ElideError> {
        use crate::ticket::now_ms;
        if self.is_revoked() {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        if self.policy().expired_at(now_ms()) {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        if payload.len() <= Report::SERIALIZED_LEN {
            return Err(ElideError::Server(ServerError::BadRequest));
        }
        let (report_bytes, peer_pub) = payload.split_at(Report::SERIALIZED_LEN);
        // The MAC check happens INSIDE the delegate enclave: only it holds
        // the report key for its own measurement.
        if !self
            .verifier
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .verify(report_bytes)
        {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        let report =
            Report::from_bytes(report_bytes).ok_or(ElideError::Server(ServerError::BadRequest))?;
        if !self.policy().permits(&report.mrenclave, &report.mrsigner) {
            return Err(ElideError::Server(ServerError::DelegationRejected));
        }
        // Same key-splicing defense as the origin handshake: the report
        // data must bind the DH public value.
        if report.report_data[..32] != Sha256::digest(peer_pub) {
            return Err(ElideError::Server(ServerError::BadBinding));
        }
        let secret = self
            .bundle
            .secret_for(&report.mrenclave, &report.mrsigner)
            .ok_or(ElideError::Server(ServerError::DelegationRejected))?
            .clone();
        let mut rng = self.rng.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // A fresh DH ephemeral per attestation: replaying a recorded
        // peer-attestation transcript yields a channel keyed to a secret
        // the replayer does not hold, so the sealed payload stays opaque.
        let kp = DhKeyPair::generate(rng.as_mut());
        let channel_key =
            kp.derive_session_key(peer_pub).ok_or(ElideError::Server(ServerError::BadBinding))?;
        let mut iv_salt = [0u8; 4];
        rng.fill(&mut iv_salt);
        drop(rng);
        let session = PeerSession {
            channel: AesGcm::new(&channel_key).expect("16-byte channel key"),
            iv_salt,
            seq: 0,
            secret,
        };
        self.served.fetch_add(1, Ordering::SeqCst);
        Ok((kp.public_bytes(), session))
    }
}

/// One peer's connection to a [`DelegateServer`]; implements [`Transport`]
/// so a delegated restore ([`crate::api::LaunchedApp::restore_delegated`])
/// can speak to a delegate exactly like it speaks to the origin.
pub struct DelegatePeerTransport {
    server: Arc<DelegateServer>,
    session: Option<PeerSession>,
}

impl std::fmt::Debug for DelegatePeerTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelegatePeerTransport")
            .field("established", &self.session.is_some())
            .finish_non_exhaustive()
    }
}

impl Transport for DelegatePeerTransport {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        if !self.server.is_online() {
            // Matches a dead wire (the delegate enclave was evicted):
            // transient, so peers retry against the origin.
            return Err(ElideError::Transport("delegate offline".into()));
        }
        match req as u64 {
            // The delegate leg opens with PEER_ATTEST only; the restore
            // ocall rewrites the guest's HANDSHAKE before it gets here.
            request::PEER_ATTEST => {
                let (server_pub, session) = self.server.peer_attest(payload)?;
                self.session = Some(session);
                Ok(server_pub)
            }
            request::META => {
                let s = self.session.as_mut().ok_or(ElideError::Server(ServerError::NoSession))?;
                let body = s.secret.meta.to_body();
                Ok(s.seal(&body))
            }
            request::DATA => {
                let s = self.session.as_mut().ok_or(ElideError::Server(ServerError::NoSession))?;
                if s.secret.meta.is_local() {
                    return Err(ElideError::Server(ServerError::BadRequest));
                }
                let data = s.secret.data.clone();
                Ok(s.seal(&data))
            }
            request::PEER_RESTORE => {
                let s = self.session.as_mut().ok_or(ElideError::Server(ServerError::NoSession))?;
                let meta_body = s.secret.meta.to_body();
                let mut body = Vec::with_capacity(meta_body.len() + s.secret.data.len());
                body.extend_from_slice(&meta_body);
                if !s.secret.meta.is_local() {
                    body.extend_from_slice(&s.secret.data);
                }
                Ok(s.seal(&body))
            }
            other => Err(ElideError::Server(ServerError::UnknownRequest(other as u8))),
        }
    }
}

/// Host-wide registry of live delegates, consulted by
/// [`crate::service::pool::EnclavePool`] (and any launcher) before going
/// to the origin.
#[derive(Default)]
pub struct DelegateRegistry {
    delegates: RwLock<Vec<Arc<DelegateServer>>>,
}

impl std::fmt::Debug for DelegateRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelegateRegistry").field("delegates", &self.len()).finish()
    }
}

impl DelegateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registered delegates.
    pub fn len(&self) -> usize {
        self.delegates.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when no delegate is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers a validated delegate.
    pub fn register(&self, delegate: Arc<DelegateServer>) {
        self.delegates.write().unwrap_or_else(std::sync::PoisonError::into_inner).push(delegate);
    }

    /// The first delegate currently able to serve `(mrenclave, mrsigner)`.
    pub fn delegate_for(
        &self,
        mrenclave: &[u8; 32],
        mrsigner: &[u8; 32],
    ) -> Option<Arc<DelegateServer>> {
        let now = crate::ticket::now_ms();
        self.delegates
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .find(|d| d.can_serve(mrenclave, mrsigner, now))
            .map(Arc::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elide_crypto::rng::SeededRandom;
    use elide_crypto::rsa::RsaKeyPair;

    fn sample_meta() -> SecretMeta {
        SecretMeta {
            flags: 0,
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        }
    }

    fn sample_policy() -> DelegationPolicy {
        DelegationPolicy {
            delegate_mrenclave: [0xA1; 32],
            policy_id: [7; 16],
            issued_ms: 1_000,
            ttl_ms: 60_000,
            peers: vec![
                PeerGrant { mrenclave: [0xB1; 32], mrsigner: [0xC1; 32] },
                PeerGrant { mrenclave: [0xB2; 32], mrsigner: [0xC2; 32] },
            ],
        }
    }

    #[test]
    fn policy_roundtrip_is_canonical() {
        let p = sample_policy();
        let bytes = p.to_bytes();
        assert_eq!(DelegationPolicy::from_bytes(&bytes), Some(p.clone()));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(DelegationPolicy::from_bytes(&padded), None);
        assert_eq!(DelegationPolicy::from_bytes(&bytes[..bytes.len() - 1]), None);
        // Count field inconsistent with the byte length.
        let mut forged = bytes.clone();
        forged[72..76].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(DelegationPolicy::from_bytes(&forged), None);
    }

    #[test]
    fn policy_permits_and_expires() {
        let p = sample_policy();
        assert!(p.permits(&[0xB1; 32], &[0xC1; 32]));
        assert!(!p.permits(&[0xB1; 32], &[0xC2; 32]), "mrsigner must match too");
        assert!(!p.permits(&[0xB3; 32], &[0xC1; 32]));
        assert!(!p.expired_at(1_000));
        assert!(p.expired_at(61_000));
        // Future-dated beyond skew: dead immediately (same rule as tickets).
        let future = DelegationPolicy { issued_ms: 3_600_000, ..sample_policy() };
        assert!(future.expired_at(0));
        assert!(!future.expired_at(3_600_000));
    }

    #[test]
    fn signed_policy_verifies_and_rejects_tampering() {
        let mut rng = SeededRandom::new(3);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let policy = sample_policy();
        let signature = kp.sign(&policy.to_bytes()).unwrap();
        let signed = SignedPolicy { policy, signature };
        assert!(signed.verify(kp.public_key()));
        // A different key does not verify.
        let other = RsaKeyPair::generate(512, &mut rng);
        assert!(!signed.verify(other.public_key()));
        // Widening the grant list invalidates the signature.
        let mut widened = signed.clone();
        widened.policy.peers.push(PeerGrant { mrenclave: [9; 32], mrsigner: [9; 32] });
        assert!(!widened.verify(kp.public_key()));
        // Wire roundtrip is canonical.
        let bytes = signed.to_bytes();
        assert_eq!(SignedPolicy::from_bytes(&bytes), Some(signed));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(SignedPolicy::from_bytes(&padded), None);
    }

    #[test]
    fn bundle_roundtrip_and_lookup() {
        let mut rng = SeededRandom::new(4);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let policy = sample_policy();
        let signature = kp.sign(&policy.to_bytes()).unwrap();
        let bundle = DelegationBundle {
            signed: SignedPolicy { policy, signature },
            secrets: vec![PeerSecret {
                mrenclave: [0xB1; 32],
                mrsigner: [0xC1; 32],
                meta: sample_meta(),
                data: b"peer secret".to_vec(),
            }],
        };
        let bytes = bundle.to_bytes();
        assert_eq!(DelegationBundle::from_bytes(&bytes), Some(bundle.clone()));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(DelegationBundle::from_bytes(&padded), None);
        assert_eq!(DelegationBundle::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert!(bundle.secret_for(&[0xB1; 32], &[0xC1; 32]).is_some());
        assert!(bundle.secret_for(&[0xB2; 32], &[0xC2; 32]).is_none());
    }
}
