//! `cold_launch`: one client launching enclaves back to back (closed
//! loop). Each round visits the Figure 3 apps in a seeded order and runs,
//! in a seeded order per app, one elided launch (fresh sealed store:
//! `image_plan` → `launch_planned` → `LaunchedApp::restore` through a full
//! attested handshake against the app's in-process `AuthServer`) and one
//! plain launch (`load_enclave`).
//!
//! Primary operation: the elided launch. Secondary: the plain launch.

use crate::fixtures::{self, Built, Stream, Timed};
use crate::report::Report;
use crate::stats::{self, Series};
use crate::{trace, Config};
use elide_core::api::Platform;
use elide_core::error::ElideError;
use elide_core::protocol::{InProcessTransport, Transport};
use elide_core::restore::new_sealed_store;
use elide_core::server::AuthServer;
use elide_crypto::rng::SeededRandom;
use elide_enclave::loader::load_enclave;
use elide_enclave::EnclaveRuntime;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rounds whose counts form the fingerprint; every run completes them.
pub const FINGERPRINT_ROUNDS: usize = 4;

/// The apps of the paper's Figures 3 and 4.
pub fn apps() -> Vec<elide_apps::harness::App> {
    use elide_apps::*;
    vec![aes_app::app(), des_app::app(), sha1_app::app(), shas_app::app(), crackme::app()]
}

/// Built apps, their servers and the platform they launch on.
pub struct Fixture {
    /// The apps, built both ways.
    pub apps: Vec<Built>,
    /// One server per app, pinned to that app's sanitized measurement.
    pub servers: Vec<Arc<AuthServer>>,
    /// The launch platform.
    pub platform: Platform,
}

impl Fixture {
    /// Builds and protects the apps and stands up their servers.
    ///
    /// # Errors
    ///
    /// Any build or protect failure.
    pub fn new() -> Result<Fixture, ElideError> {
        let platform = fixtures::platform(0xC01D);
        let apps = apps()
            .into_iter()
            .enumerate()
            .map(|(i, app)| Built::new(app, i as u64))
            .collect::<Result<Vec<_>, _>>()?;
        let servers = apps.iter().map(|b| b.server(&platform)).collect();
        Ok(Fixture { apps, servers, platform })
    }
}

/// One elided launch of app `i`; `check_workload` also runs the app's
/// self-checking workload on the restored enclave (outside the timing).
/// Returns the launch time and the restore's retired instructions.
fn elided_launch(
    fx: &Fixture,
    i: usize,
    seed: u64,
    armed: bool,
    check_workload: bool,
    rep: &mut Report,
) -> Option<(f64, u64)> {
    let b = &fx.apps[i];
    let server = Arc::clone(&fx.servers[i]);
    let (dur, res) = trace::op("elided_launch", armed, || {
        let transport: Arc<Mutex<dyn Transport + Send>> =
            Arc::new(Mutex::new(Timed::server(InProcessTransport::new(server))));
        let plan = trace::span("enclave", "enclave.plan", || b.package.image_plan())?;
        let mut app = trace::span("sgx", "sgx.load.elide", || {
            b.package.launch_planned(&plan, &fx.platform, transport, new_sealed_store(), seed)
        })?;
        let stats = trace::span("restore", "restore", || app.restore(b.restore_idx()))?;
        Ok::<_, ElideError>((app, stats))
    });
    rep.attempted += 1;
    let checked = res.map_err(|e| format!("{}: elided launch: {e}", b.app.name)).and_then(
        |(mut app, stats)| {
            b.check_text(&app.runtime)?;
            if check_workload {
                fixtures::self_check(b.app.name, &mut app.runtime, &b.elide_idx)?;
            }
            Ok((dur, stats.instructions))
        },
    );
    checked.map_err(|e| rep.fail(e)).ok()
}

/// One plain launch of app `i`, as [`elided_launch`]. Returns its time.
fn plain_launch(
    fx: &Fixture,
    i: usize,
    seed: u64,
    armed: bool,
    check_workload: bool,
    rep: &mut Report,
) -> Option<f64> {
    let b = &fx.apps[i];
    let (dur, res) = trace::op("plain_launch", armed, || {
        let loaded = trace::span("sgx", "sgx.load.plain", || {
            load_enclave(&fx.platform.cpu, &b.plain_image, &b.plain_sig)
        })?;
        Ok::<_, ElideError>(EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(seed))))
    });
    rep.attempted += 1;
    let checked =
        res.map_err(|e| format!("{}: plain launch: {e}", b.app.name)).and_then(|mut rt| {
            if check_workload {
                fixtures::self_check(b.app.name, &mut rt, &b.plain_idx)?;
            }
            Ok(dur)
        });
    checked.map_err(|e| rep.fail(e)).ok()
}

/// Runs the closed loop for `cfg.seconds` (and at least the fingerprint
/// rounds) and records its metrics into `rep`.
pub fn run(fx: &Fixture, cfg: &Config, rep: &mut Report) {
    let mut stream = Stream::new(cfg.seed, 0xC01D);
    let n = fx.apps.len();

    // Warm-up: one launch of each kind per app, each followed by the app's
    // self-checking workload, so every app passes it once per run and the
    // check never lands between timed launches.
    for i in 0..n {
        elided_launch(fx, i, stream.draw(), false, true, rep);
        plain_launch(fx, i, stream.draw(), false, true, rep);
    }

    let handshakes = || fx.servers.iter().map(|s| s.handshakes()).sum::<u64>();
    let handshakes0 = handshakes();
    let (mut elided, mut plain, mut launches) =
        (Series::default(), Series::default(), Series::default());
    let mut instructions = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut round = 0;
    while round < FINGERPRINT_ROUNDS || Instant::now() < deadline {
        let armed = cfg.trace && round % 2 == 0;
        for i in stream.permutation(n) {
            let elided_first = stream.draw() & 1 == 0;
            let seeds = [stream.draw(), stream.draw()];
            let order = if elided_first { [true, false] } else { [false, true] };
            for (is_elided, seed) in order.into_iter().zip(seeds) {
                let dur = if is_elided {
                    elided_launch(fx, i, seed, armed, false, rep).map(|(dur, ins)| {
                        instructions.push(ins);
                        dur
                    })
                } else {
                    plain_launch(fx, i, seed, armed, false, rep)
                };
                if let Some(dur) = dur {
                    let at = start.elapsed().as_secs_f64();
                    if is_elided { &mut elided } else { &mut plain }.push(at, dur);
                    launches.push(at, dur);
                }
            }
        }
        round += 1;
        if round == FINGERPRINT_ROUNDS {
            rep.fingerprint.insert("server.handshakes".into(), handshakes() - handshakes0);
            rep.fingerprint.insert("restore.instructions.cold".into(), instructions.iter().sum());
        }
    }
    let (mut pages_elide, mut pages_plain) = (0, 0);
    for b in &fx.apps {
        match b.epc_pages() {
            Ok((e, p)) => {
                pages_elide += e;
                pages_plain += p;
            }
            Err(e) => rep.fail(format!("{}: plan: {e}", b.app.name)),
        }
    }
    rep.fingerprint.insert("sgx.epc_pages.elide".into(), pages_elide as u64);
    rep.fingerprint.insert("sgx.epc_pages.plain".into(), pages_plain as u64);
    rep.set("sgx.epc_pages.elide", pages_elide as f64);
    rep.set("sgx.epc_pages.plain", pages_plain as f64);
    let instructions: Vec<f64> = instructions.into_iter().map(|x| x as f64).collect();
    rep.set("restore.instructions.cold", stats::median(&instructions));
    rep.set("server.handshakes", rep.fingerprint["server.handshakes"] as f64);

    rep.set("primary_ms.p50", elided.ms(0.5));
    rep.set("secondary_ms.p50", plain.ms(0.5));
    rep.set("ops_per_s", launches.per_busy_second());
    rep.samples("primary_ms", elided.len());
    rep.samples("secondary_ms", plain.len());
    rep.note(format!(
        "cold_launch_ms.p50 {:.3} ms, cold_launch_ms.p99 {:.3} ms (n={}); plain_launch_ms.p50 {:.3} ms (n={})",
        elided.ms(0.5),
        elided.ms(0.99),
        elided.len(),
        plain.ms(0.5),
        plain.len()
    ));
}
