//! `pool_churn`: one client driving an `EnclavePool` (closed loop). Each
//! round builds a pool whose `max_resident` is below its instance count
//! and whose `page_cap` oversubscribes every resident's EPC pages, admits
//! several instances of each Figure 3 app through one `DelegateRegistry`
//! delegate (delegated fan-out: the origin server is contacted only when
//! the delegate stands up), then runs a seeded Zipf stream of checkouts,
//! each followed by one short request checked against the app's host
//! reference.
//!
//! Primary operation: a checkout that warm-started (classified by the
//! `PoolStats` delta). Secondary: a delegated admission.

use crate::fixtures::{self, copy_package, Built, Stream};
use crate::report::Report;
use crate::stats::{self, Series};
use crate::{trace, Config};
use elide_apps::crackme;
use elide_core::api::{protect, Mode, Platform, ProtectedPackage};
use elide_core::client::ProvisionClient;
use elide_core::delegation::{DelegateRegistry, DelegateServer, EcallReportVerifier};
use elide_core::elide_asm::ELIDE_ASM;
use elide_core::error::ElideError;
use elide_core::protocol::{InProcessTransport, Transport};
use elide_core::restore::new_sealed_store;
use elide_core::sanitizer::DataPlacement;
use elide_core::server::{AuthServer, ExpectedIdentity};
use elide_core::service::pool::{EnclavePool, PoolConfig, PoolStats};
use elide_core::store::{SecretEntry, SecretStore};
use elide_core::ticket::now_ms;
use elide_crypto::aes::Aes;
use elide_crypto::des::Des;
use elide_crypto::rng::SeededRandom;
use elide_crypto::rsa::RsaKeyPair;
use elide_crypto::sha1::Sha1;
use elide_crypto::sha2::Sha256;
use elide_enclave::image::EnclaveImageBuilder;
use elide_enclave::EnclaveRuntime;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Instances admitted per app each round.
pub const INSTANCES_PER_APP: usize = 2;
/// Enclaves kept resident; below the instance count, so checkouts of
/// evicted instances warm-start.
pub const MAX_RESIDENT: usize = 4;
/// EPC oversubscription: each resident may keep this share of the
/// smallest app's pages (1/2 = 2x oversubscription).
pub const PAGE_CAP_DIVISOR: usize = 2;
/// Checkouts per round after the admissions.
pub const CHECKOUTS_PER_ROUND: usize = 200;
/// Zipf exponent of the checkout stream.
pub const ZIPF_S: f64 = 1.1;
/// Rounds whose counts form the fingerprint; every run completes them.
pub const FINGERPRINT_ROUNDS: usize = 1;

const ANCHOR_VERIFY_IDX: u64 = 2;

/// The delegate's host: one platform, the origin server, the delegate.
pub struct Fixture {
    /// The Figure 3 apps.
    pub apps: Vec<Built>,
    /// The platform every instance (and the delegate) runs on.
    pub platform: Arc<Platform>,
    /// The origin server; its store holds every app's secret.
    pub server: Arc<AuthServer>,
    /// The delegate, granted every app.
    pub delegate: Arc<DelegateServer>,
    /// A registry holding the delegate.
    pub registry: Arc<DelegateRegistry>,
    /// Pages each resident enclave may keep.
    pub page_cap: usize,
}

/// The delegate's own enclave: a tiny guest with the whitelisted
/// `elide_verify_report` ecall.
fn anchor_package() -> Result<ProtectedPackage, ElideError> {
    let mut rng = SeededRandom::new(fixtures::FIXTURE_SEED ^ 0xA7C4);
    let mut b = EnclaveImageBuilder::new();
    b.source(ELIDE_ASM)
        .source(".section text\n.global get_answer\n.func get_answer\n    movi r0, 42\n    ret\n.endfunc\n")
        .ecall("get_answer")
        .ecall("elide_restore")
        .ecall("elide_verify_report");
    let image = b.build()?;
    let vendor = RsaKeyPair::generate(512, &mut rng);
    protect(&image, &vendor, &Mode::Whitelist, DataPlacement::Remote, &mut rng)
}

fn entry(name: &str, p: &ProtectedPackage) -> SecretEntry {
    SecretEntry {
        name: name.to_string(),
        meta: p.meta.clone(),
        data: p.server_data.clone(),
        expected: ExpectedIdentity {
            mrenclave: Some(p.mrenclave),
            mrsigner: p.sigstruct.mrsigner().ok(),
        },
    }
}

impl Fixture {
    /// Builds the apps, the origin server and the delegate (whose stand-up
    /// is the one origin handshake of the host).
    ///
    /// # Errors
    ///
    /// Any build, handshake or delegation failure.
    pub fn new() -> Result<Fixture, ElideError> {
        let platform = Arc::new(fixtures::platform(0x9001));
        let apps = crate::cold::apps()
            .into_iter()
            .enumerate()
            .map(|(i, app)| Built::new(app, 0x300 + i as u64))
            .collect::<Result<Vec<_>, _>>()?;
        let anchor = anchor_package()?;
        let mut store = SecretStore::new();
        store.insert(entry("delegate", &anchor));
        let mut grants = Vec::new();
        for b in &apps {
            store.insert(entry(b.app.name, &b.package));
            let mrsigner =
                b.package.sigstruct.mrsigner().map_err(|e| ElideError::BadImage(e.to_string()))?;
            grants.push((b.package.mrenclave, mrsigner));
        }
        let server = Arc::new(
            AuthServer::with_store(store, fixtures::ias_for(&platform))
                .with_rng(Box::new(SeededRandom::new(fixtures::FIXTURE_SEED ^ 0x9002))),
        );
        server.authorize_delegate(anchor.mrenclave, &grants);

        // Stand the delegate up: launch the anchor, attest it to the origin
        // over the anchor's own quote, fetch the signed bundle.
        let origin: Arc<Mutex<dyn Transport + Send>> =
            Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&server))));
        let launched = anchor.launch(&platform, origin, new_sealed_store(), 0xA1)?;
        let launched = Arc::new(Mutex::new(launched));
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(0xA2)));
        let mut wire = InProcessTransport::new(Arc::clone(&server));
        let (a, qe) = (Arc::clone(&launched), Arc::clone(&platform.qe));
        let mut quote = move |rd: [u8; 64]| {
            let app = a.lock().map_err(|_| ElideError::Transport("anchor lock poisoned".into()))?;
            fixtures::quote(app.runtime.enclave(), &qe, rd)
        };
        client.full_handshake(&mut wire, &mut quote)?;
        let origin_key = server
            .delegation_public_key()
            .ok_or_else(|| ElideError::Store("no delegation key".into()))?;
        let bundle = client.fetch_delegation(&mut wire, &origin_key)?;
        let verifier = EcallReportVerifier::new(launched, ANCHOR_VERIFY_IDX, anchor.mrenclave);
        let delegate = DelegateServer::new(
            bundle,
            &origin_key,
            Box::new(verifier),
            Box::new(SeededRandom::new(0xA3)),
            now_ms(),
        )?;
        let registry = Arc::new(DelegateRegistry::new());
        registry.register(Arc::clone(&delegate));

        let smallest = apps
            .iter()
            .map(|b| b.package.image_plan().map(|p| p.pages()))
            .collect::<Result<Vec<_>, _>>()?;
        let page_cap = (smallest.into_iter().min().unwrap_or(2) / PAGE_CAP_DIVISOR).max(1);
        Ok(Fixture { apps, platform, server, delegate, registry, page_cap })
    }
}

/// One short request against a checked-out instance of `app`, checked
/// against the host reference.
fn short_request(
    app: &str,
    rt: &mut EnclaveRuntime,
    idx: &HashMap<String, u64>,
    input: u64,
) -> Result<(), String> {
    let call = |rt: &mut EnclaveRuntime, name: &str, data: &[u8], out: usize| {
        rt.ecall(idx[name], data, out).map_err(|e| format!("{app}: {name}: {e}"))
    };
    let bytes = input.to_le_bytes();
    let ok = match app {
        "AES" => {
            let key: [u8; 16] = std::array::from_fn(|i| bytes[i % 8] ^ i as u8);
            let block: [u8; 16] = std::array::from_fn(|i| bytes[(i + 3) % 8].wrapping_add(i as u8));
            call(rt, "aes_set_key", &key, 0)?;
            let got = call(rt, "aes_encrypt", &block, 16)?.output;
            let mut want = block;
            Aes::new_128(&key).encrypt_block(&mut want);
            got[..16] == want
        }
        "DES" => {
            let key: [u8; 8] = bytes;
            let block = input.rotate_left(13);
            call(rt, "des_set_key", &key, 0)?;
            let got = call(rt, "des_encrypt_block", &block.to_be_bytes(), 8)?.output;
            got[..8] == Des::new(&key).encrypt_block(block).to_be_bytes()
        }
        "Sha1" => {
            let msg: Vec<u8> =
                (0..(input % 200) as usize).map(|i| bytes[i % 8] ^ i as u8).collect();
            let got = call(rt, "sha1_hash", &msg, 20)?.output;
            got[..20] == Sha1::digest(&msg)
        }
        "Shas" => {
            let msg: Vec<u8> =
                (0..(input % 200) as usize).map(|i| bytes[i % 8].wrapping_mul(i as u8)).collect();
            let got = call(rt, "sha256_hash", &msg, 32)?.output;
            got[..32] == Sha256::digest(&msg)
        }
        "Crackme" => {
            let mut guess = *crackme::PASSWORD;
            guess[(input % 16) as usize] ^= (input >> 8) as u8 & 1;
            let got = call(rt, "check_password", &guess, 0)?.status;
            got == u64::from(crackme::reference_check(&guess))
        }
        other => return Err(format!("no short request for {other}")),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{app}: request output differs from the host reference"))
    }
}

/// Zipf(`ZIPF_S`) cumulative weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
    let total: f64 = w.iter().sum();
    w.iter()
        .scan(0.0, |acc, x| {
            *acc += x / total;
            Some(*acc)
        })
        .collect()
}

struct Tally {
    start: Instant,
    admit: Series,
    warm: Series,
    hit: Series,
    checkouts: Series,
    warm_instructions: Vec<f64>,
    pool: PoolStats,
    epc: [u64; 3],
}

fn add_stats(a: &mut PoolStats, b: PoolStats) {
    a.hits += b.hits;
    a.warm_starts += b.warm_starts;
    a.cold_provisions += b.cold_provisions;
    a.delegated_provisions += b.delegated_provisions;
    a.enclave_evictions += b.enclave_evictions;
}

/// One round: a fresh pool, the delegated admissions, the checkout stream.
fn round(fx: &Fixture, stream: &mut Stream, armed: bool, t: &mut Tally, rep: &mut Report) {
    let mut pool =
        EnclavePool::new(PoolConfig { max_resident: MAX_RESIDENT, page_cap: Some(fx.page_cap) })
            .with_delegates(Arc::clone(&fx.registry));
    let mut ids = Vec::new();
    for k in 0..INSTANCES_PER_APP {
        for (a, b) in fx.apps.iter().enumerate() {
            let id = format!("{}#{k}", b.app.name);
            let origin: Arc<Mutex<dyn Transport + Send>> =
                Arc::new(Mutex::new(InProcessTransport::new(Arc::clone(&fx.server))));
            let seed = stream.draw();
            let before = pool.stats().delegated_provisions;
            let (dur, res) = trace::op("admit", armed, || {
                trace::span("pool", "pool.admit", || {
                    pool.admit(
                        &id,
                        copy_package(&b.package),
                        Arc::clone(&fx.platform),
                        origin,
                        b.restore_idx(),
                        seed,
                    )
                })
            });
            rep.attempted += 1;
            match res {
                Ok(()) if pool.stats().delegated_provisions == before + 1 => {
                    t.admit.push(t.start.elapsed().as_secs_f64(), dur);
                    ids.push((id, a));
                }
                Ok(()) => rep.fail(format!("{id}: admission was not delegated")),
                Err(e) => rep.fail(format!("{id}: admit: {e}")),
            }
        }
    }
    if ids.is_empty() {
        return;
    }
    // Seeded rank order: which instance is the most popular changes per round.
    let ranks = stream.permutation(ids.len());
    let cdf = zipf_cdf(ids.len());
    let mut epc_seen: HashMap<usize, [u64; 3]> = HashMap::new();
    for _ in 0..CHECKOUTS_PER_ROUND {
        let u = stream.unit();
        let rank = cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1);
        let (id, a) = &ids[ranks[rank]];
        let b = &fx.apps[*a];
        let input = stream.draw();
        let before = pool.stats();
        let (dur, res) = trace::op("checkout", armed, || {
            let app = trace::span("pool", "pool.checkout", || pool.checkout(id))
                .map_err(|e| format!("{id}: checkout: {e}"))?;
            let instructions = app.runtime.retired_total();
            trace::span("vm", "vm.request", || {
                short_request(b.app.name, &mut app.runtime, &b.elide_idx, input)
            })?;
            let epc = app.runtime.epc_budget().map(|budget| budget.stats());
            Ok::<_, String>((instructions, epc))
        });
        rep.attempted += 1;
        let at = t.start.elapsed().as_secs_f64();
        t.checkouts.push(at, dur);
        let after = pool.stats();
        match res {
            Ok((instructions, epc)) => {
                if after.warm_starts > before.warm_starts {
                    t.warm.push(at, dur);
                    t.warm_instructions.push(instructions as f64);
                    epc_seen.remove(&ranks[rank]);
                } else {
                    t.hit.push(at, dur);
                }
                // Budget counters restart with each warm start: add the
                // growth since this runtime was last read.
                if let Some(s) = epc {
                    let now = [s.evictions, s.reloads, s.clean_drops];
                    let last = epc_seen.insert(ranks[rank], now).unwrap_or([0; 3]);
                    for k in 0..3 {
                        t.epc[k] += now[k] - last[k];
                    }
                }
            }
            Err(e) => rep.fail(e),
        }
    }
    add_stats(&mut t.pool, pool.stats());
}

/// Runs rounds for `cfg.seconds` (and at least the fingerprint rounds)
/// and records the metrics into `rep`.
pub fn run(fx: &Fixture, cfg: &Config, rep: &mut Report) {
    let mut stream = Stream::new(cfg.seed, 0x9001);
    let served0 = fx.delegate.served();
    let start = Instant::now();
    let mut t = Tally {
        start,
        admit: Series::default(),
        warm: Series::default(),
        hit: Series::default(),
        checkouts: Series::default(),
        warm_instructions: Vec::new(),
        pool: PoolStats::default(),
        epc: [0; 3],
    };
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut n = 0;
    while n < FINGERPRINT_ROUNDS || Instant::now() < deadline {
        round(fx, &mut stream, cfg.trace && n % 2 == 0, &mut t, rep);
        n += 1;
        if n == FINGERPRINT_ROUNDS {
            for (k, v) in [
                ("pool.hits", t.pool.hits),
                ("pool.warm_starts", t.pool.warm_starts),
                ("pool.enclave_evictions", t.pool.enclave_evictions),
                ("pool.delegated_provisions", t.pool.delegated_provisions),
                ("pool.cold_provisions", t.pool.cold_provisions),
                ("epc.evictions", t.epc[0]),
                ("epc.reloads", t.epc[1]),
                ("epc.clean_drops", t.epc[2]),
                ("delegation.served", fx.delegate.served() - served0),
                ("restore.instructions.warm", t.warm_instructions.iter().sum::<f64>() as u64),
            ] {
                rep.fingerprint.insert(k.into(), v);
                rep.set(k, v as f64);
            }
        }
    }
    let origin_handshakes = fx.server.handshakes();
    rep.attempted += 1;
    if origin_handshakes != 1 {
        rep.fail(format!(
            "origin served {origin_handshakes} handshakes; one delegate host must cost exactly 1"
        ));
    }
    rep.fingerprint.insert("delegation.origin_handshakes".into(), origin_handshakes);
    rep.set("delegation.origin_handshakes", origin_handshakes as f64);
    rep.set("restore.instructions.warm", stats::median(&t.warm_instructions));
    rep.set("pool.hit_ratio", t.hit.len() as f64 / (t.hit.len() + t.warm.len()).max(1) as f64);
    rep.set("pool.hit_ms.p50", t.hit.ms(0.5));

    rep.set("primary_ms.p50", t.warm.ms(0.5));
    rep.set("secondary_ms.p50", t.admit.ms(0.5));
    rep.set("ops_per_s", t.checkouts.per_busy_second());
    rep.samples("primary_ms", t.warm.len());
    rep.samples("secondary_ms", t.admit.len());
    rep.samples("pool.hit_ms.p50", t.hit.len());
    rep.note(format!(
        "admit_ms.p50 {:.3} ms (n={}); warm_start_ms.p50 {:.3} ms, warm_start_ms.p99 {:.3} ms (n={}); checkouts_per_s {:.1} 1/s; page_cap {} pages, {n} rounds",
        t.admit.ms(0.5),
        t.admit.len(),
        t.warm.ms(0.5),
        t.warm.ms(0.99),
        t.warm.len(),
        t.checkouts.per_busy_second(),
        fx.page_cap
    ));
}
