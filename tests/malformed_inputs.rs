//! Robustness against malformed untrusted inputs, in both directions:
//! oversized, truncated and garbage *server responses* must produce clean
//! failure statuses inside the enclave (never faults or partial restores),
//! and abusive *client bytes* on the wire — truncated frames, oversized
//! length prefixes, pre-handshake garbage, mid-frame stalls — must make
//! the service drop the connection without harming other clients.

use sgxelide::core::api::{protect, LaunchedApp, Mode, Platform};
use sgxelide::core::elide_asm::{request, restore_status, ELIDE_ASM, RESTORE_CAP};
use sgxelide::core::meta::SecretMeta;
use sgxelide::core::protocol::{InProcessTransport, Transport};
use sgxelide::core::restore::{new_sealed_store, ElideFiles};
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::server::{AuthServer, ExpectedIdentity};
use sgxelide::core::ElideError;
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::enclave::image::EnclaveImageBuilder;
use sgxelide::enclave::loader::load_enclave;
use sgxelide::enclave::runtime::EnclaveRuntime;
use sgxelide::sgx::quote::AttestationService;
use std::sync::{Arc, Mutex};

struct Rewriter<F: FnMut(u8, Vec<u8>) -> Vec<u8>> {
    inner: InProcessTransport,
    rewrite: F,
}

impl<F: FnMut(u8, Vec<u8>) -> Vec<u8>> Transport for Rewriter<F> {
    fn request(&mut self, req: u8, payload: &[u8]) -> Result<Vec<u8>, ElideError> {
        let resp = self.inner.request(req, payload)?;
        Ok((self.rewrite)(req, resp))
    }
}

/// The test guest: ecall 0 is the secret `s`, ecall 1 `elide_restore`.
fn guest_image() -> Vec<u8> {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(".section text\n.global s\n.func s\n    movi r0, 3\n    ret\n.endfunc\n")
        .ecall("s")
        .ecall("elide_restore");
    b.build().unwrap()
}

fn restore_with<F>(rewrite: F, seed: u64) -> Result<(), ElideError>
where
    F: FnMut(u8, Vec<u8>) -> Vec<u8> + Send + 'static,
{
    let image = guest_image();
    let mut rng = SeededRandom::new(seed);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let transport =
        Arc::new(Mutex::new(Rewriter { inner: InProcessTransport::new(server), rewrite }));
    let mut app = package.launch(&platform, transport, new_sealed_store(), seed ^ 3).unwrap();
    app.restore(1).map(|_| ())
}

#[test]
fn truncated_meta_response_fails_cleanly() {
    let err = restore_with(
        |req, mut resp| {
            if req as u64 == request::META {
                resp.truncate(10); // below IV+tag minimum
            }
            resp
        },
        0xA1,
    )
    .unwrap_err();
    assert_eq!(err, ElideError::RestoreFailed { status: restore_status::META_FAILED });
}

#[test]
fn empty_meta_response_fails_cleanly() {
    let err =
        restore_with(|req, resp| if req as u64 == request::META { Vec::new() } else { resp }, 0xA2)
            .unwrap_err();
    // An empty response fits no message; the enclave reports META failure
    // (the host-side ocall also maps zero-capacity overflows to -1).
    assert_eq!(err, ElideError::RestoreFailed { status: restore_status::META_FAILED });
}

#[test]
fn oversized_data_response_fails_cleanly() {
    let err = restore_with(
        |req, resp| {
            if req as u64 == request::DATA {
                vec![0x41; 300 * 1024] // larger than the guest restore buffers
            } else {
                resp
            }
        },
        0xA3,
    )
    .unwrap_err();
    // Either the ocall layer rejects it (doesn't fit out_cap → -1 → DATA
    // failure) or the guest's length guard does; both must be clean.
    assert_eq!(err, ElideError::RestoreFailed { status: restore_status::DATA_FAILED });
}

#[test]
fn garbage_data_response_fails_cleanly() {
    let err = restore_with(
        |req, resp| {
            if req as u64 == request::DATA {
                vec![0xCC; 4096]
            } else {
                resp
            }
        },
        0xA4,
    )
    .unwrap_err();
    assert_eq!(err, ElideError::RestoreFailed { status: restore_status::DATA_AUTH_FAILED });
}

/// Protects the test guest, lets `edit` change what the server serves
/// (metadata and payload) and the data file shipped next to the enclave,
/// then restores once. Returns the restore result and whether the secret
/// ecall still faults afterwards.
fn restore_edited<E>(placement: DataPlacement, edit: E, seed: u64) -> (Result<(), ElideError>, bool)
where
    E: FnOnce(&mut SecretMeta, &mut Vec<u8>, &mut ElideFiles),
{
    let mut rng = SeededRandom::new(seed);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package = protect(&guest_image(), &vendor, &Mode::Whitelist, placement, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let mut meta = package.meta.clone();
    let mut data = if meta.is_local() { Vec::new() } else { package.server_data.clone() };
    let mut files = package.files(new_sealed_store());
    edit(&mut meta, &mut data, &mut files);
    let expected = ExpectedIdentity { mrenclave: Some(package.mrenclave), mrsigner: None };
    let server = Arc::new(AuthServer::new(meta, data, expected, ias));
    let loaded = load_enclave(&platform.cpu, &package.image, &package.sigstruct).unwrap();
    let rt = EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(seed ^ 3)));
    let transport = Arc::new(Mutex::new(InProcessTransport::new(server)));
    let mut app = LaunchedApp::new(rt, transport, Arc::clone(&platform.qe), files);
    let result = app.restore(1).map(|_| ());
    (result, app.runtime.ecall(0, &[], 0).is_err())
}

const DATA_FAILED: Result<(), ElideError> =
    Err(ElideError::RestoreFailed { status: restore_status::DATA_FAILED });

#[test]
fn whitelist_data_longer_than_text_fails_cleanly() {
    // Whitelist data is decrypted straight over .text, so a payload longer
    // than the text would overwrite whatever follows it.
    let (result, faults) = restore_edited(
        DataPlacement::Remote,
        |meta, data, _| {
            meta.data_len += 16;
            data.extend_from_slice(&[0x90; 16]);
        },
        0xB1,
    );
    assert_eq!(result, DATA_FAILED);
    assert!(faults, "no partial restore");
}

#[test]
fn local_data_file_of_wrong_length_fails_cleanly() {
    for (longer, seed) in [(false, 0xB2), (true, 0xB3)] {
        let (result, faults) = restore_edited(
            DataPlacement::LocalEncrypted,
            |_, _, files| {
                let file = files.data_file.as_mut().unwrap();
                if longer {
                    file.push(0);
                } else {
                    file.pop();
                }
            },
            seed,
        );
        assert_eq!(result, DATA_FAILED, "longer file: {longer}");
        assert!(faults, "no partial restore (longer file: {longer})");
    }
}

#[test]
fn data_response_one_byte_over_the_restore_buffer_fails_cleanly() {
    // A response of RESTORE_CAP bytes is copied in and fails its tag; one
    // byte more is refused before the copy.
    for (len, status, seed) in [
        (RESTORE_CAP, restore_status::DATA_AUTH_FAILED, 0xB4),
        (RESTORE_CAP + 1, restore_status::DATA_FAILED, 0xB5),
    ] {
        let err = restore_with(
            move |req, resp| {
                if req as u64 == request::DATA {
                    vec![0xCC; len as usize]
                } else {
                    resp
                }
            },
            seed,
        )
        .unwrap_err();
        assert_eq!(err, ElideError::RestoreFailed { status }, "{len}-byte response");
    }
}

#[test]
fn wrong_sized_handshake_response_fails_cleanly() {
    for (len, seed) in [(0usize, 0xA5u64), (1, 0xA6), (4096, 0xA7)] {
        let err = restore_with(
            move |req, resp| {
                if req as u64 == request::HANDSHAKE {
                    vec![7u8; len]
                } else {
                    resp
                }
            },
            seed,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ElideError::RestoreFailed {
                    status: restore_status::BAD_SERVER_KEY
                        | restore_status::HANDSHAKE_FAILED
                        | restore_status::META_FAILED
                }
            ),
            "len {len}: got {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Wire-level abuse against the TCP service. Every scenario ends with a
// well-formed probe request proving the service survived the abuse.
// ---------------------------------------------------------------------------

mod wire_abuse {
    use sgxelide::core::meta::SecretMeta;
    use sgxelide::core::server::{AuthServer, ExpectedIdentity};
    use sgxelide::core::service::{serve, ServiceConfig, ServiceHandle};
    use sgxelide::core::transport::tcp::TcpAcceptor;
    use sgxelide::core::transport::Limits;
    use sgxelide::crypto::rng::SeededRandom;
    use sgxelide::sgx::quote::AttestationService;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    fn start_service(limits: Limits, connections: usize) -> (String, ServiceHandle) {
        let meta = SecretMeta {
            flags: 0,
            data_len: 4,
            text_len: 4,
            restore_offset: 0,
            key: [1; 16],
            iv: [2; 12],
            tag: [3; 16],
        };
        let server = Arc::new(
            AuthServer::new(
                meta,
                b"data".to_vec(),
                ExpectedIdentity::default(),
                AttestationService::new(),
            )
            .with_rng(Box::new(SeededRandom::new(0xAB))),
        );
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap().to_string();
        let handle = serve(
            acceptor,
            server,
            ServiceConfig::default()
                .with_workers(2)
                .with_limits(limits)
                .with_max_connections(Some(connections)),
        );
        (addr, handle)
    }

    /// Reads until EOF (bounded by a client-side timeout) and returns the
    /// bytes received.
    fn drain(stream: &mut TcpStream) -> Vec<u8> {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        buf
    }

    /// A well-formed pre-handshake META request: the server must answer
    /// with a NoSession status frame, proving it is still healthy.
    fn probe_ok(addr: &str) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[1u8]).unwrap();
        s.write_all(&0u32.to_le_bytes()).unwrap();
        let mut head = [0u8; 5];
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.read_exact(&mut head).unwrap();
        assert_eq!(head[0], 4, "NoSession status expected from healthy server");
        assert_eq!(u32::from_le_bytes(head[1..5].try_into().unwrap()), 0);
    }

    #[test]
    fn truncated_frame_drops_connection() {
        let (addr, handle) = start_service(Limits::default(), 2);
        let mut s = TcpStream::connect(&addr).unwrap();
        // Declare 100 payload bytes, deliver 10, then half-close.
        s.write_all(&[3u8]).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
        // Tolerate the server racing us to the drop (see the garbage test).
        let _ = s.shutdown(std::net::Shutdown::Write);
        assert!(drain(&mut s).is_empty(), "no response for a truncated frame");
        probe_ok(&addr);
        handle.join();
    }

    #[test]
    fn oversized_length_prefix_drops_connection() {
        let limits = Limits::default().with_max_frame(1024);
        let (addr, handle) = start_service(limits, 2);
        let mut s = TcpStream::connect(&addr).unwrap();
        // The declared length exceeds the service's frame limit: the
        // connection must drop before any payload is even read.
        s.write_all(&[3u8]).unwrap();
        s.write_all(&(1024u32 + 1).to_le_bytes()).unwrap();
        assert!(drain(&mut s).is_empty(), "no response for an oversized frame");
        probe_ok(&addr);
        handle.join();
    }

    #[test]
    fn garbage_before_handshake_drops_connection() {
        let (addr, handle) = start_service(Limits::default(), 2);
        let mut s = TcpStream::connect(&addr).unwrap();
        // Not a frame at all: byte 2..6 decode as a huge length prefix.
        s.write_all(&[0xFFu8; 64]).unwrap();
        // The server may have already dropped the connection on the bad
        // frame; a NotConnected error here is the behavior under test.
        let _ = s.shutdown(std::net::Shutdown::Write);
        assert!(drain(&mut s).is_empty(), "no response for garbage bytes");
        probe_ok(&addr);
        handle.join();
    }

    #[test]
    fn stalled_client_mid_frame_hits_read_timeout() {
        let limits = Limits::default().with_read_timeout(Duration::from_millis(200));
        let (addr, handle) = start_service(limits, 2);
        let mut s = TcpStream::connect(&addr).unwrap();
        // Start a frame and then stall with the socket held open: the
        // worker's read timeout must free it for the next client.
        s.write_all(&[3u8]).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
        let t0 = std::time::Instant::now();
        assert!(drain(&mut s).is_empty(), "stalled connection must be dropped");
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "drop must come from the server's read timeout, not the client's"
        );
        probe_ok(&addr);
        handle.join();
    }
}
