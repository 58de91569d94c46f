//! Delegated enclave-to-enclave provisioning, end to end.
//!
//! The tentpole proof: a host provisions one delegate session against the
//! origin AuthServer, fetches a signed delegation bundle, and every other
//! enclave on the host restores from the local delegate — the origin sees
//! **exactly one** attested handshake for the whole host.
//!
//! Plus the negative matrix: a delegate on another CPU, a report targeted
//! at the wrong MRENCLAVE, a non-delegate trying to serve peers, and a
//! replayed peer-attestation transcript must all fail closed — no path
//! yields secret bytes or executable code.

use sgxelide::core::api::{protect, Mode, Platform, ProtectedPackage};
use sgxelide::core::client::ProvisionClient;
use sgxelide::core::delegation::{
    DelegateRegistry, DelegateServer, EcallReportVerifier, ReportVerifier,
};
use sgxelide::core::elide_asm::{request, ELIDE_ASM};
use sgxelide::core::error::{ElideError, ServerError};
use sgxelide::core::protocol::{decrypt_msg, InProcessTransport, Transport};
use sgxelide::core::restore::new_sealed_store;
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::server::AuthServer;
use sgxelide::core::service::pool::{EnclavePool, PoolConfig};
use sgxelide::core::ticket::now_ms;
use sgxelide::crypto::dh::DhKeyPair;
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::crypto::sha2::Sha256;
use sgxelide::sgx::quote::{AttestationService, QE_MEASUREMENT};
use sgxelide::sgx::report::{ereport, TargetInfo};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const ANSWER_IDX: u64 = 0;
const RESTORE_IDX: u64 = 1;
const VERIFY_IDX: u64 = 2;
const ANSWER: u64 = 42;

/// Builds the protected app image. Same seed → byte-identical package, so
/// every "peer" instance on the host shares one MRENCLAVE.
fn build_package(seed: u64) -> ProtectedPackage {
    let mut rng = SeededRandom::new(seed);
    let mut b = sgxelide::enclave::image::EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(&format!(
            ".section text\n.global get_answer\n.func get_answer\n    movi r0, {ANSWER}\n    ret\n.endfunc\n"
        ))
        .ecall("get_answer")
        .ecall("elide_restore")
        .ecall("elide_verify_report");
    let image = b.build().unwrap();
    let vendor = RsaKeyPair::generate(512, &mut rng);
    protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap()
}

/// One host: a platform, the origin server (delegation granted), and the
/// package identity.
struct Host {
    platform: Arc<Platform>,
    server: Arc<AuthServer>,
    mrenclave: [u8; 32],
    mrsigner: [u8; 32],
    /// Package build seed: every instance must rebuild with the same seed
    /// so vendor key (MRSIGNER) and measurement (MRENCLAVE) are shared.
    pkg_seed: u64,
}

fn host(seed: u64) -> Host {
    let mut rng = SeededRandom::new(seed);
    let mut scratch = AttestationService::new();
    let platform = Arc::new(Platform::provision(&mut rng, &mut scratch));
    let mut ias = AttestationService::new();
    ias.register_device(platform.qe.device_public_key().clone());
    let pkg_seed = seed ^ 0x9A6E;
    let package = build_package(pkg_seed);
    let mrsigner = package.sigstruct.mrsigner().unwrap();
    let mrenclave = package.mrenclave;
    let server =
        Arc::new(package.make_server(ias).with_rng(Box::new(SeededRandom::new(seed ^ 0x5E6))));
    server.authorize_delegate(mrenclave, &[(mrenclave, mrsigner)]);
    Host { platform, server, mrenclave, mrsigner, pkg_seed }
}

impl Host {
    fn package(&self) -> ProtectedPackage {
        let p = build_package(self.pkg_seed);
        assert_eq!(p.mrenclave, self.mrenclave, "deterministic build must reproduce the identity");
        p
    }

    fn origin_transport(&self) -> Arc<Mutex<dyn Transport + Send>> {
        Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&self.server))))
    }

    /// Stands up the host's delegate: one sanitized anchor instance for
    /// in-enclave report verification, one origin handshake to fetch the
    /// signed bundle. Returns the delegate plus the origin's policy key.
    fn stand_up_delegate(&self, host_seed: u64) -> Arc<DelegateServer> {
        let anchor = self
            .package()
            .launch(&self.platform, self.origin_transport(), new_sealed_store(), host_seed)
            .unwrap();
        let anchor = Arc::new(Mutex::new(anchor));
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(host_seed)));
        let mut transport = InProcessTransport::new(Arc::clone(&self.server));
        let a = Arc::clone(&anchor);
        let qe = Arc::clone(&self.platform.qe);
        let mut quote_fn = move |report_data: [u8; 64]| {
            let app = a.lock().unwrap();
            let report = ereport(
                app.runtime.enclave(),
                &TargetInfo { mrenclave: QE_MEASUREMENT },
                report_data,
            )
            .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
            let quote =
                qe.quote(&report).map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
            Ok(quote.to_bytes())
        };
        client.full_handshake(&mut transport, &mut quote_fn).expect("delegate handshake");
        let origin_key = self.server.delegation_public_key().expect("delegation key");
        let bundle = client.fetch_delegation(&mut transport, &origin_key).expect("bundle");
        let verifier = EcallReportVerifier::new(anchor, VERIFY_IDX, self.mrenclave);
        DelegateServer::new(
            bundle,
            &origin_key,
            Box::new(verifier),
            Box::new(SeededRandom::new(host_seed ^ 0xD11)),
            now_ms(),
        )
        .expect("delegate stands up")
    }
}

#[test]
fn n_peers_one_host_costs_exactly_one_origin_handshake() {
    let host = host(0xD117_0001);
    let delegate = host.stand_up_delegate(0xA1);
    assert_eq!(host.server.handshakes(), 1, "the delegate's own handshake");

    let registry = Arc::new(DelegateRegistry::new());
    registry.register(Arc::clone(&delegate));

    let mut pool =
        EnclavePool::new(PoolConfig { max_resident: 4, page_cap: None }).with_delegates(registry);
    for i in 0..3u64 {
        let package = host.package();
        pool.admit(
            &format!("peer{i}"),
            package,
            Arc::clone(&host.platform),
            host.origin_transport(),
            RESTORE_IDX,
            0xB0 + i,
        )
        .unwrap();
    }

    // Every peer restored and answers; all three provisions were local.
    for i in 0..3 {
        let app = pool.checkout(&format!("peer{i}")).unwrap();
        assert_eq!(app.runtime.ecall(ANSWER_IDX, &[], 0).unwrap().status, ANSWER);
    }
    assert_eq!(pool.stats().cold_provisions, 3);
    assert_eq!(pool.stats().delegated_provisions, 3, "every provision must be delegated");
    assert_eq!(delegate.served(), 3);
    assert_eq!(host.server.handshakes(), 1, "origin contacted once for the whole host");

    // Delegated provisioning still writes the sealed blob: evict + warm
    // start works fully offline.
    pool.evict("peer1");
    let app = pool.checkout("peer1").unwrap();
    assert_eq!(app.runtime.ecall(ANSWER_IDX, &[], 0).unwrap().status, ANSWER);
    assert_eq!(pool.stats().warm_starts, 1);
    assert_eq!(host.server.handshakes(), 1, "warm start must not touch the origin either");
}

#[test]
fn pool_without_delegate_grant_falls_back_to_origin() {
    let host = host(0xD117_0002);
    // Registry exists but holds no delegate: cold provisions go to origin.
    let registry = Arc::new(DelegateRegistry::new());
    let mut pool = EnclavePool::new(PoolConfig::default()).with_delegates(registry);
    pool.admit(
        "solo",
        host.package(),
        Arc::clone(&host.platform),
        host.origin_transport(),
        RESTORE_IDX,
        0xC0,
    )
    .unwrap();
    assert_eq!(pool.stats().delegated_provisions, 0);
    assert_eq!(host.server.handshakes(), 1);
    let app = pool.checkout("solo").unwrap();
    assert_eq!(app.runtime.ecall(ANSWER_IDX, &[], 0).unwrap().status, ANSWER);
}

/// Counts the requests a peer sends to its delegate.
struct CountingTransport {
    inner: Box<dyn Transport + Send>,
    requests: Arc<AtomicU64>,
}

impl Transport for CountingTransport {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        self.inner.request(req, payload)
    }
}

/// A failed delegated restore leaves no delegate behind: the origin
/// fallback on the same runtime sends the delegate nothing and runs a full
/// handshake with the origin.
#[test]
fn failed_delegated_restore_leaves_no_delegate_armed() {
    let host = host(0xD117_000D);
    let delegate = host.stand_up_delegate(0xAD);
    let target = delegate.policy().delegate_mrenclave;
    delegate.revoke();

    let requests = Arc::new(AtomicU64::new(0));
    let peer =
        CountingTransport { inner: Box::new(delegate.connect()), requests: Arc::clone(&requests) };
    let mut app = host
        .package()
        .launch(&host.platform, host.origin_transport(), new_sealed_store(), 0xCD)
        .unwrap();
    let err = app.restore_delegated(RESTORE_IDX, Box::new(peer), &target).unwrap_err();
    assert_eq!(err, ElideError::Server(ServerError::DelegationRejected));
    let sent = requests.load(Ordering::SeqCst);
    assert!(sent > 0, "the delegated restore must have reached the delegate");
    assert!(app.runtime.ecall(ANSWER_IDX, &[], 0).is_err(), "rejected restore left code live");

    let handshakes = host.server.handshakes();
    app.restore(RESTORE_IDX).unwrap();
    assert_eq!(requests.load(Ordering::SeqCst), sent, "the fallback reached the delegate");
    assert_eq!(host.server.handshakes(), handshakes + 1, "the fallback must use the origin");
    assert_eq!(app.runtime.ecall(ANSWER_IDX, &[], 0).unwrap().status, ANSWER);
}

/// A peer's local-attestation leg: report from `app`'s enclave targeted at
/// `target`, binding `report_data`.
fn peer_report(
    app: &sgxelide::core::api::LaunchedApp,
    target: [u8; 32],
    report_data: [u8; 64],
) -> Vec<u8> {
    ereport(app.runtime.enclave(), &TargetInfo { mrenclave: target }, report_data)
        .unwrap()
        .to_bytes()
}

#[test]
fn cross_cpu_peer_report_is_refused() {
    let host = host(0xD117_0003);
    let delegate = host.stand_up_delegate(0xA3);
    let target = delegate.policy().delegate_mrenclave;

    // Same enclave image, but launched on a *different CPU*: its report
    // MAC is keyed to the other processor's report key, so the delegate's
    // in-enclave verification must refuse it — delegation never crosses
    // the CPU boundary.
    let mut rng = SeededRandom::new(0xD117_0004);
    let mut scratch = AttestationService::new();
    let other_platform = Platform::provision(&mut rng, &mut scratch);
    let foreign = host
        .package()
        .launch(&other_platform, host.origin_transport(), new_sealed_store(), 0xC3)
        .unwrap();

    let kp = DhKeyPair::generate(&mut rng);
    let public = kp.public_bytes();
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&Sha256::digest(&public));
    let mut payload = peer_report(&foreign, target, report_data);
    payload.extend_from_slice(&public);

    let mut t = delegate.connect();
    match t.request(request::PEER_ATTEST as u8, &payload) {
        Err(ElideError::Server(ServerError::DelegationRejected)) => {}
        other => panic!("cross-CPU report must be DelegationRejected, got {other:?}"),
    }
    assert_eq!(delegate.served(), 0);
}

#[test]
fn report_targeting_wrong_mrenclave_is_refused() {
    let host = host(0xD117_0005);
    let delegate = host.stand_up_delegate(0xA5);

    // Genuine peer, same CPU, but the report targets the quoting enclave
    // instead of the delegate: the MAC is keyed to the wrong target, so
    // in-enclave verification fails.
    let peer = host
        .package()
        .launch(&host.platform, host.origin_transport(), new_sealed_store(), 0xC5)
        .unwrap();
    let mut rng = SeededRandom::new(0xD117_0006);
    let kp = DhKeyPair::generate(&mut rng);
    let public = kp.public_bytes();
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&Sha256::digest(&public));
    let mut payload = peer_report(&peer, QE_MEASUREMENT, report_data);
    payload.extend_from_slice(&public);

    let mut t = delegate.connect();
    match t.request(request::PEER_ATTEST as u8, &payload) {
        Err(ElideError::Server(ServerError::DelegationRejected)) => {}
        other => panic!("wrong-target report must be DelegationRejected, got {other:?}"),
    }
}

#[test]
fn delegate_answers_only_peer_attest_not_handshake() {
    let host = host(0xD117_000D);
    let delegate = host.stand_up_delegate(0xAD);
    let target = delegate.policy().delegate_mrenclave;

    // A genuine peer payload that PEER_ATTEST would accept, sent under the
    // origin's HANDSHAKE verb: the delegate knows no such request, and no
    // session comes of it.
    let peer = host
        .package()
        .launch(&host.platform, host.origin_transport(), new_sealed_store(), 0xCD)
        .unwrap();
    let mut rng = SeededRandom::new(0xD117_000E);
    let kp = DhKeyPair::generate(&mut rng);
    let public = kp.public_bytes();
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&Sha256::digest(&public));
    let mut payload = peer_report(&peer, target, report_data);
    payload.extend_from_slice(&public);

    let mut t = delegate.connect();
    match t.request(request::HANDSHAKE as u8, &payload) {
        Err(ElideError::Server(ServerError::UnknownRequest(3))) => {}
        other => panic!("HANDSHAKE to a delegate must be UnknownRequest(3), got {other:?}"),
    }
    match t.request(request::META as u8, &[]) {
        Err(ElideError::Server(ServerError::NoSession)) => {}
        other => panic!("META after a refused HANDSHAKE must be NoSession, got {other:?}"),
    }
    assert_eq!(delegate.served(), 0);
}

#[test]
fn peer_outside_the_policy_is_refused() {
    let host = host(0xD117_0007);
    let delegate = host.stand_up_delegate(0xA7);
    let target = delegate.policy().delegate_mrenclave;

    // A different enclave on the same CPU: its report verifies (right CPU,
    // right target) but its measurement is not in the signed policy.
    let mut rng = SeededRandom::new(0xD117_0008);
    let mut b = sgxelide::enclave::image::EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(".section text\n.global other_fn\n.func other_fn\n    movi r0, 7\n    movi r1, 7\n    ret\n.endfunc\n")
        .ecall("other_fn")
        .ecall("elide_restore");
    let image = b.build().unwrap();
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let other =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    assert_ne!(other.mrenclave, host.mrenclave, "distinct identity required for this test");
    let outsider =
        other.launch(&host.platform, host.origin_transport(), new_sealed_store(), 0xC7).unwrap();

    let kp = DhKeyPair::generate(&mut rng);
    let public = kp.public_bytes();
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&Sha256::digest(&public));
    let mut payload = peer_report(&outsider, target, report_data);
    payload.extend_from_slice(&public);

    let mut t = delegate.connect();
    match t.request(request::PEER_ATTEST as u8, &payload) {
        Err(ElideError::Server(ServerError::DelegationRejected)) => {}
        other => panic!("out-of-policy peer must be DelegationRejected, got {other:?}"),
    }
}

#[test]
fn non_delegate_cannot_obtain_or_serve_a_bundle() {
    let host = host(0xD117_0009);

    // Origin side: an attested session whose identity has no grant gets
    // DelegationRejected on the DELEGATE verb.
    host.server.revoke_delegate(&host.mrenclave);
    let anchor = host
        .package()
        .launch(&host.platform, host.origin_transport(), new_sealed_store(), 0xC9)
        .unwrap();
    let anchor = Arc::new(Mutex::new(anchor));
    let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(0xC9)));
    let mut transport = InProcessTransport::new(Arc::clone(&host.server));
    let a = Arc::clone(&anchor);
    let qe = Arc::clone(&host.platform.qe);
    let mut quote_fn = move |report_data: [u8; 64]| {
        let app = a.lock().unwrap();
        let report =
            ereport(app.runtime.enclave(), &TargetInfo { mrenclave: QE_MEASUREMENT }, report_data)
                .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
        let quote = qe.quote(&report).map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
        Ok(quote.to_bytes())
    };
    client.full_handshake(&mut transport, &mut quote_fn).expect("handshake");
    match transport.request(request::DELEGATE as u8, &[]) {
        Err(ElideError::Server(ServerError::DelegationRejected)) => {}
        other => panic!("ungranted DELEGATE must be rejected, got {other:?}"),
    }

    // Host side: a bundle signed for delegate A cannot be served by an
    // enclave measuring B — construction refuses the mismatch.
    host.server.authorize_delegate(host.mrenclave, &[(host.mrenclave, host.mrsigner)]);
    let origin_key = host.server.delegation_public_key().unwrap();
    let bundle = client.fetch_delegation(&mut transport, &origin_key).expect("bundle");
    struct Impostor;
    impl ReportVerifier for Impostor {
        fn delegate_mrenclave(&self) -> [u8; 32] {
            [0xBB; 32]
        }
        fn verify(&mut self, _report: &[u8]) -> bool {
            true
        }
    }
    let err = DelegateServer::new(
        bundle,
        &origin_key,
        Box::new(Impostor),
        Box::new(SeededRandom::new(1)),
        now_ms(),
    )
    .unwrap_err();
    assert!(matches!(err, ElideError::Server(ServerError::DelegationRejected)));
}

#[test]
fn replayed_peer_attestation_transcript_yields_no_secret() {
    let host = host(0xD117_000B);
    let delegate = host.stand_up_delegate(0xAB);
    let target = delegate.policy().delegate_mrenclave;

    // Legitimate peer exchange, recorded byte for byte.
    let peer = host
        .package()
        .launch(&host.platform, host.origin_transport(), new_sealed_store(), 0xCB)
        .unwrap();
    let mut rng = SeededRandom::new(0xD117_000C);
    let kp = DhKeyPair::generate(&mut rng);
    let public = kp.public_bytes();
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&Sha256::digest(&public));
    let mut payload = peer_report(&peer, target, report_data);
    payload.extend_from_slice(&public);

    let mut t1 = delegate.connect();
    let delegate_pub_1 = t1.request(request::PEER_ATTEST as u8, &payload).expect("attest");
    let key_1 = kp.derive_session_key(&delegate_pub_1).expect("session key");
    let sealed_1 = t1.request(request::PEER_RESTORE as u8, &[]).expect("restore");
    assert!(decrypt_msg(&key_1, &sealed_1).is_ok(), "legit session decrypts");

    // Replay the exact transcript on a fresh connection: the delegate
    // cannot tell, but its fresh DH ephemeral keys the new channel to a
    // secret only the *original* peer holds — the replayer decrypts
    // nothing, with the old session key or anything it saw on the wire.
    let mut t2 = delegate.connect();
    let delegate_pub_2 = t2.request(request::PEER_ATTEST as u8, &payload).expect("attest replays");
    assert_ne!(delegate_pub_1, delegate_pub_2, "fresh DH ephemeral per attestation");
    let sealed_2 = t2.request(request::PEER_RESTORE as u8, &[]).expect("restore");
    assert!(
        decrypt_msg(&key_1, &sealed_2).is_err(),
        "replayed transcript must not decrypt under the recorded session key"
    );
}
