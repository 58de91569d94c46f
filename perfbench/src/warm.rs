//! `warm_exec`: the paper's "no overhead after restore" claim. Set-up
//! launches each instruction-bound app once per build (the elided copy
//! restored through its server); the closed loop then runs each app's
//! self-checking workload pass round-robin in a seeded order, alternating
//! builds in a seeded order within each app.
//!
//! Primary operation: one round of elided passes (every app once).
//! Secondary: the same round on the plain build.

use crate::fixtures::{self, Built, Stream};
use crate::report::{Report, EXEC_APPS};
use crate::stats::Series;
use crate::{trace, Config};
use elide_core::error::ElideError;
use elide_core::protocol::InProcessTransport;
use elide_core::restore::new_sealed_store;
use elide_crypto::rng::SeededRandom;
use elide_enclave::loader::load_enclave;
use elide_enclave::EnclaveRuntime;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rounds whose counts form the fingerprint; every run completes them.
pub const FINGERPRINT_ROUNDS: usize = 4;

/// The apps, in [`EXEC_APPS`] order.
pub fn apps() -> Vec<elide_apps::harness::App> {
    use elide_apps::*;
    vec![
        aes_app::app(),
        des_app::app(),
        sha1_app::app(),
        xtea::app(),
        json_app::app(),
        merkle_app::app(),
    ]
}

/// One app, launched once per build.
pub struct Resident {
    /// The app, built both ways.
    pub built: Built,
    /// The restored elided runtime.
    pub elide: EnclaveRuntime,
    /// The plain runtime.
    pub plain: EnclaveRuntime,
}

/// The resident apps.
pub struct Fixture {
    /// One entry per app of [`apps`].
    pub apps: Vec<Resident>,
}

impl Fixture {
    /// Builds, launches and restores every app.
    ///
    /// # Errors
    ///
    /// Any build, launch or restore failure.
    pub fn new() -> Result<Fixture, ElideError> {
        let platform = fixtures::platform(0xE8EC);
        let mut resident = Vec::new();
        for (i, app) in apps().into_iter().enumerate() {
            let built = Built::new(app, 0x100 + i as u64)?;
            let transport = Arc::new(Mutex::new(InProcessTransport::new(built.server(&platform))));
            let mut launched =
                built.package.launch(&platform, transport, new_sealed_store(), 0xE1 + i as u64)?;
            launched.restore(built.restore_idx())?;
            let loaded = load_enclave(&platform.cpu, &built.plain_image, &built.plain_sig)?;
            let plain =
                EnclaveRuntime::with_rng(loaded, Box::new(SeededRandom::new(0xE2 + i as u64)));
            resident.push(Resident { built, elide: launched.runtime, plain });
        }
        Ok(Fixture { apps: resident })
    }
}

#[derive(Default, Clone, Copy)]
struct PerBuild {
    seconds: f64,
    retired: u64,
}

/// Per app and build (`[elide, plain]`): instructions of one pass, which
/// must repeat, and the time and instructions of the timed passes.
struct Tally {
    retired: Vec<[Option<u64>; 2]>,
    per_app: Vec<[PerBuild; 2]>,
}

/// One checked workload pass of app `i` on `build` (0 elided, 1 plain).
fn pass(
    fx: &mut Fixture,
    t: &mut Tally,
    i: usize,
    build: usize,
    armed: bool,
    rep: &mut Report,
) -> Option<f64> {
    let r = &mut fx.apps[i];
    let (rt, idx) = if build == 0 {
        (&mut r.elide, &r.built.elide_idx)
    } else {
        (&mut r.plain, &r.built.plain_idx)
    };
    let name = r.built.app.name;
    let kind = if build == 0 { "elide_pass" } else { "plain_pass" };
    let (dur, res) = trace::op(kind, armed, || {
        trace::span("vm", "vm.pass", || fixtures::self_check(name, rt, idx))
    });
    rep.attempted += 1;
    let checked = res.and_then(|ins| match t.retired[i][build] {
        Some(first) if first != ins => {
            Err(format!("{name}: pass retired {ins} instructions, first pass {first}"))
        }
        _ => {
            t.retired[i][build] = Some(ins);
            Ok(ins)
        }
    });
    match checked {
        Ok(ins) => {
            t.per_app[i][build].seconds += dur;
            t.per_app[i][build].retired += ins;
            Some(dur)
        }
        Err(e) => {
            rep.fail(e);
            None
        }
    }
}

/// Runs the closed loop for `cfg.seconds` (and at least the fingerprint
/// rounds) and records its metrics into `rep`.
pub fn run(fx: &mut Fixture, cfg: &Config, rep: &mut Report) {
    let mut stream = Stream::new(cfg.seed, 0xE8EC);
    let n = fx.apps.len();
    let mut t = Tally { retired: vec![[None; 2]; n], per_app: vec![[PerBuild::default(); 2]; n] };
    let (mut rounds, mut passes) = ([Series::default(), Series::default()], Series::default());

    // Warm-up: one untimed pass per app and build fills the decode and
    // translation caches before anything is timed.
    for i in 0..n {
        for build in 0..2 {
            pass(fx, &mut t, i, build, false, rep);
        }
    }
    t.per_app = vec![[PerBuild::default(); 2]; n];
    let stats0: Vec<[exec_stats::Snapshot; 2]> = fx.apps.iter().map(exec_stats::both).collect();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let mut round = 0;
    while round < FINGERPRINT_ROUNDS || Instant::now() < deadline {
        let armed = cfg.trace && round % 2 == 0;
        let mut round_s = [0.0; 2];
        let mut complete = true;
        for i in stream.permutation(n) {
            let first = (stream.draw() & 1) as usize;
            for build in [first, 1 - first] {
                match pass(fx, &mut t, i, build, armed, rep) {
                    Some(d) => {
                        round_s[build] += d;
                        passes.push(start.elapsed().as_secs_f64(), d);
                    }
                    None => complete = false,
                }
            }
        }
        if complete {
            let at = start.elapsed().as_secs_f64();
            rounds[0].push(at, round_s[0]);
            rounds[1].push(at, round_s[1]);
        }
        round += 1;
        if round == FINGERPRINT_ROUNDS {
            for (b, build) in ["elide", "plain"].iter().enumerate() {
                let (mut translated, mut entered) = (0, 0);
                for (app, s0) in fx.apps.iter().zip(&stats0) {
                    let now = exec_stats::both(app)[b];
                    translated += now.translated - s0[b].translated;
                    entered += now.entered - s0[b].entered;
                }
                rep.fingerprint.insert(format!("vm.blocks_translated.{build}"), translated);
                rep.fingerprint.insert(format!("vm.blocks_entered.{build}"), entered);
            }
        }
    }
    for (i, app) in EXEC_APPS.iter().enumerate() {
        let [e, p] = t.per_app[i];
        let mips =
            |b: PerBuild| if b.seconds > 0.0 { b.retired as f64 / b.seconds / 1e6 } else { 0.0 };
        rep.set(format!("vm.mips.{app}.elide"), mips(e));
        rep.set(format!("vm.mips.{app}.plain"), mips(p));
        // Time ratio at equal work: both builds retire the same pass.
        let ratio = if mips(e) > 0.0 { mips(p) / mips(e) } else { 0.0 };
        rep.set(format!("vm.elide_over_plain.{app}"), ratio);
        let [re, rp] = t.retired[i];
        if re != rp {
            rep.fail(format!("{app}: elided pass retired {re:?} instructions, plain {rp:?}"));
        }
        rep.set(format!("vm.retired.{app}"), re.unwrap_or(0) as f64);
        rep.fingerprint.insert(format!("vm.retired.{app}"), re.unwrap_or(0));
    }
    for (b, build) in ["elide", "plain"].iter().enumerate() {
        let (mut trans, mut interp) = (0, 0);
        for (app, s0) in fx.apps.iter().zip(&stats0) {
            let now = exec_stats::both(app)[b];
            trans += now.trans_retired - s0[b].trans_retired;
            interp += now.interp_retired - s0[b].interp_retired;
        }
        rep.set(format!("vm.trans_share.{build}"), trans as f64 / (trans + interp).max(1) as f64);
        for key in ["vm.blocks_translated", "vm.blocks_entered"] {
            let name = format!("{key}.{build}");
            rep.set(name.clone(), rep.fingerprint[&name] as f64);
        }
    }

    rep.set("primary_ms.p50", rounds[0].ms(0.5));
    rep.set("secondary_ms.p50", rounds[1].ms(0.5));
    rep.set("ops_per_s", passes.per_busy_second());
    rep.samples("primary_ms", rounds[0].len());
    rep.samples("secondary_ms", rounds[1].len());
    let total = |b: usize| {
        let (s, r) =
            t.per_app.iter().fold((0.0, 0u64), |(s, r), a| (s + a[b].seconds, r + a[b].retired));
        r as f64 / s / 1e6
    };
    rep.note(format!(
        "exec_mips.elide {:.2} Minstr/s, exec_mips.plain {:.2} Minstr/s over the whole mix ({} rounds)",
        total(0),
        total(1),
        rounds[0].len()
    ));
}

/// `EnclaveRuntime::exec_stats` of both builds of one resident app.
mod exec_stats {
    use super::Resident;

    #[derive(Default, Clone, Copy)]
    pub struct Snapshot {
        pub translated: u64,
        pub entered: u64,
        pub trans_retired: u64,
        pub interp_retired: u64,
    }

    fn of(rt: &elide_enclave::EnclaveRuntime) -> Snapshot {
        let s = rt.exec_stats();
        Snapshot {
            translated: s.blocks_translated,
            entered: s.blocks_entered,
            trans_retired: s.trans_retired,
            interp_retired: s.interp_retired,
        }
    }

    /// `[elide, plain]`.
    pub fn both(r: &Resident) -> [Snapshot; 2] {
        [of(&r.elide), of(&r.plain)]
    }
}
