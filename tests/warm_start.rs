//! Warm-start correctness: a provisioned enclave evicted to sealed state
//! and relaunched offline must be indistinguishable from a cold launch —
//! bit-identical application output and the same MRENCLAVE — on both
//! execution engines and for both the plain and the elided build. The
//! warm path must also never touch the authentication server.

use sgxelide::core::api::{protect, Mode, Platform};
use sgxelide::core::elide_asm::ELIDE_ASM;
use sgxelide::core::protocol::{InProcessTransport, OfflineTransport};
use sgxelide::core::restore::new_sealed_store;
use sgxelide::core::sanitizer::DataPlacement;
use sgxelide::core::ElideError;
use sgxelide::crypto::rng::SeededRandom;
use sgxelide::crypto::rsa::RsaKeyPair;
use sgxelide::enclave::image::EnclaveImageBuilder;
use sgxelide::sgx::budget::EpcBudget;
use sgxelide::sgx::quote::AttestationService;
use sgxelide::vm::interp::Engine;
use std::sync::{Arc, Mutex};

/// `mix(x)`: a little arithmetic pipeline whose output depends on every
/// input bit — any page-content corruption along the evict/restore path
/// changes the result.
const GUEST: &str = ".section text\n\
     .global mix\n.func mix\n\
     \x20   ld64 r0, [r2]\n\
     \x20   movi r1, 40503\n\
     \x20   mul  r0, r0, r1\n\
     \x20   xori r0, r0, 22667\n\
     \x20   add  r0, r0, r1\n\
     \x20   ret\n.endfunc\n";

const MIX: u64 = 0;
const ELIDE_RESTORE: u64 = 1;

/// Output vector of `mix` over a spread of inputs on the given engine.
fn outputs(rt: &mut sgxelide::enclave::EnclaveRuntime, engine: Engine) -> Vec<u64> {
    rt.set_engine(engine);
    (0..16u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            rt.ecall(MIX, &x.to_le_bytes(), 0).expect("mix runs").status
        })
        .collect()
}

#[test]
fn elided_warm_start_matches_cold_launch_on_both_engines() {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM).source(GUEST).ecall("mix").ecall("elide_restore");
    let image = b.build().unwrap();
    let mut rng = SeededRandom::new(0x3A51);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let server = Arc::new(package.make_server(ias));
    let plan = package.image_plan().unwrap();

    // Cold launch: full attested provisioning; record the ground truth.
    let sealed = new_sealed_store();
    let transport = Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
    let mut cold =
        package.launch_planned(&plan, &platform, transport, Arc::clone(&sealed), 7).unwrap();
    cold.restore(ELIDE_RESTORE).unwrap();
    let cold_mrenclave = cold.runtime.enclave().mrenclave();
    let cold_interp = outputs(&mut cold.runtime, Engine::Interp);
    let cold_super = outputs(&mut cold.runtime, Engine::Superblock);
    assert_eq!(cold_interp, cold_super, "engines must agree with each other");
    let handshakes = server.handshakes();

    // Evict the whole enclave to sealed state: every page EWB'd out, then
    // the runtime dropped. Only the sealed store survives.
    let mut budget = EpcBudget::new(1, &mut rng);
    budget.evict_all(&mut cold.runtime.world_mut().enclave).unwrap();
    drop(cold);

    // Warm start: offline relaunch from the sealed blob. Same MRENCLAVE,
    // bit-identical outputs on both engines, zero server contact.
    let offline = Arc::new(Mutex::new(OfflineTransport));
    let mut warm =
        package.launch_planned(&plan, &platform, offline, Arc::clone(&sealed), 8).unwrap();
    warm.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(warm.runtime.enclave().mrenclave(), cold_mrenclave);
    assert_eq!(outputs(&mut warm.runtime, Engine::Interp), cold_interp);
    assert_eq!(outputs(&mut warm.runtime, Engine::Superblock), cold_super);
    assert_eq!(server.handshakes(), handshakes, "warm start must not contact the server");

    // And under a tight page budget the answers still cannot change.
    let offline = Arc::new(Mutex::new(OfflineTransport));
    let mut squeezed =
        package.launch_planned(&plan, &platform, offline, Arc::clone(&sealed), 9).unwrap();
    let mut brng = SeededRandom::new(0xCA9);
    squeezed.runtime.set_epc_budget(EpcBudget::new(3, &mut brng)).unwrap();
    squeezed.restore(ELIDE_RESTORE).unwrap();
    assert_eq!(outputs(&mut squeezed.runtime, Engine::Interp), cold_interp);
    assert_eq!(outputs(&mut squeezed.runtime, Engine::Superblock), cold_super);
    let stats = squeezed.runtime.epc_budget().unwrap().stats();
    assert!(stats.evictions > 0, "a 3-page cap must actually page: {stats:?}");
    assert_eq!(stats.reload_failures, 0);
}

#[test]
fn warm_start_without_sealed_state_is_a_typed_error() {
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM).source(GUEST).ecall("mix").ecall("elide_restore");
    let image = b.build().unwrap();
    let mut rng = SeededRandom::new(0x3A52);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let package =
        protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng).unwrap();
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let plan = package.image_plan().unwrap();
    let offline = Arc::new(Mutex::new(OfflineTransport));
    let mut warm =
        package.launch_planned(&plan, &platform, offline, new_sealed_store(), 1).unwrap();
    let err = warm.restore(ELIDE_RESTORE).unwrap_err();
    assert!(matches!(err, ElideError::NoSealedState), "got {err:?}");
}

#[test]
fn plain_build_replays_identically_from_an_image_plan() {
    use sgxelide::enclave::loader::{sign_enclave, ImagePlan};
    use sgxelide::enclave::runtime::EnclaveRuntime;

    let mut b = EnclaveImageBuilder::new();
    b.source(GUEST).ecall("mix");
    let image = b.build().unwrap();
    let mut rng = SeededRandom::new(0x3A53);
    let cpu = sgxelide::sgx::SgxCpu::new(&mut rng);
    let vendor = RsaKeyPair::generate(512, &mut rng);
    let sig = sign_enclave(&image, &vendor, 1, 1).unwrap();
    let plan = ImagePlan::new(&image).unwrap();

    // The plan's cached measurement equals the offline signer's.
    assert_eq!(plan.mrenclave(), sig.measurement);

    let mut first =
        EnclaveRuntime::with_rng(plan.load(&cpu, &sig).unwrap(), Box::new(SeededRandom::new(1)));
    let interp = outputs(&mut first, Engine::Interp);
    let superb = outputs(&mut first, Engine::Superblock);
    let mrenclave = first.enclave().mrenclave();
    drop(first);

    // A replayed load is bit-identical, even under a tight budget.
    let mut again =
        EnclaveRuntime::with_rng(plan.load(&cpu, &sig).unwrap(), Box::new(SeededRandom::new(2)));
    let mut brng = SeededRandom::new(0xCAA);
    again.set_epc_budget(EpcBudget::new(2, &mut brng)).unwrap();
    assert_eq!(again.enclave().mrenclave(), mrenclave);
    assert_eq!(outputs(&mut again, Engine::Interp), interp);
    assert_eq!(outputs(&mut again, Engine::Superblock), superb);
}
