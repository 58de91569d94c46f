//! `provision_mix`: open-loop provisioning traffic over TCP loopback
//! against `service::serve` with its default configuration.
//!
//! Seeded Poisson arrivals come at each rate of [`LADDER`], each on its
//! own short-lived connection. The rates the host sustains take turns in
//! short segments over the whole run, so that each sees the host as the
//! whole run does; the overload rate runs once, last. A seeded 1:3 mix of full
//! handshakes and ticket resumes runs against one multi-enclave
//! `SecretStore` holding the sanitized payloads of the Table 1 apps. A
//! full arrival attests, fetches the metadata and payload and takes a
//! ticket; a resume arrival redeems a ticket an earlier arrival took and
//! takes a fresh one, so the ticket supply never runs dry. The 1:3 ratio
//! is an assumption: no production trace exists.
//!
//! At most `nproc` client threads send; when all are busy an arrival
//! starts late, and its latency still counts from when it was due.
//!
//! Primary operation: a full arrival at the first rate. Secondary: a full
//! arrival at the second rate, under 1.75 times the load. Resume latency
//! is only logged: the service's shard loop sleeps 500 µs when no
//! connection made progress, and whether a connection's first request
//! races that sleep is settled per process, so one run's resume p50 sits
//! near 1.0 ms and the next near 1.45 ms.

use crate::fixtures::{self, copy_package, Built, Stream, Timed};
use crate::report::Report;
use crate::stats::{self, Series};
use crate::{trace, Config};
use elide_core::api::Platform;
use elide_core::client::ProvisionClient;
use elide_core::error::ElideError;
use elide_core::meta::SecretMeta;
use elide_core::protocol::{InProcessTransport, TcpTransport, Transport};
use elide_core::server::{AuthServer, ExpectedIdentity};
use elide_core::service::{serve, ServiceConfig, ServiceHandle};
use elide_core::store::{SecretEntry, SecretStore};
use elide_core::transport::tcp::TcpAcceptor;
use elide_core::transport::Limits;
use elide_crypto::rng::SeededRandom;
use sgx_sim::Enclave;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rates, arrivals per second, each with its share of the run.
/// The first two give the primary and secondary latencies. Both stay well
/// below what the service sustains: a slow stretch of a shared host
/// delays every wake-up of the service's and the client's threads, and
/// the nearer the rate is to capacity, the more those delays queue. The
/// last rate is above what a 2-vCPU host sustains.
pub const LADDER: [(f64, f64); 4] = [(100.0, 0.35), (175.0, 0.35), (500.0, 0.15), (1400.0, 0.15)];
/// Segments each rate but the last is split into, taken in turn, so that
/// every rate is sampled over the whole run and the primary and secondary
/// latencies see the same host conditions.
pub const CYCLES: usize = 10;
/// The latency limit a rate must meet at its p99 to count as sustained.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Generator lag may grow by at most this much across a segment of a
/// rate (median over its segments).
pub const LAG_GROWTH_LIMIT_MS: f64 = 5.0;
/// One arrival in this many is a full handshake; the rest resume.
pub const FULL_ONE_IN: u64 = 4;
/// Tickets each tenant holds before the run: enough that no resume waits
/// for one while every client thread is busy.
const TICKETS_PER_TENANT: usize = 4;
/// Latency recorded for an arrival that failed or was dropped, seconds.
const MISSED_S: f64 = 1e6;
/// Arrivals not started this long after their rate's window are dropped.
const GRACE: Duration = Duration::from_millis(500);

/// One enclave identity in the store, with an enclave to quote from.
pub struct Tenant {
    name: &'static str,
    meta: SecretMeta,
    data: Vec<u8>,
    enclave: Enclave,
}

/// The running service, its tenants and the ticket supply.
pub struct Fixture {
    tenants: Vec<Tenant>,
    platform: Platform,
    server: std::sync::Arc<AuthServer>,
    addr: String,
    handle: Option<ServiceHandle>,
    /// Clients holding an unredeemed ticket, per tenant.
    tickets: Mutex<Vec<Vec<ProvisionClient>>>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

impl Fixture {
    /// Protects the Table 1 apps, stores their payloads, starts the
    /// service and takes the starting tickets.
    ///
    /// # Errors
    ///
    /// Any build, bind or handshake failure.
    pub fn new() -> Result<Fixture, ElideError> {
        let platform = fixtures::platform(0x960);
        let mut store = SecretStore::new();
        let mut tenants = Vec::new();
        for (i, app) in elide_apps::all_apps().into_iter().enumerate() {
            let b = Built::new(app, 0x200 + i as u64)?;
            let p = copy_package(&b.package);
            store.insert(SecretEntry {
                name: b.app.name.to_string(),
                meta: p.meta.clone(),
                data: p.server_data.clone(),
                expected: ExpectedIdentity {
                    mrenclave: Some(p.mrenclave),
                    mrsigner: p.sigstruct.mrsigner().ok(),
                },
            });
            let enclave = p.image_plan()?.load(&platform.cpu, &p.sigstruct)?.enclave;
            tenants.push(Tenant { name: b.app.name, meta: p.meta, data: p.server_data, enclave });
        }
        if store.len() != tenants.len() {
            return Err(ElideError::Store("two Table 1 apps share a measurement".into()));
        }
        let server = std::sync::Arc::new(
            AuthServer::with_store(store, fixtures::ias_for(&platform))
                .with_rng(Box::new(SeededRandom::new(fixtures::FIXTURE_SEED ^ 0x961))),
        );
        let acceptor =
            TcpAcceptor::bind("127.0.0.1:0").map_err(|e| ElideError::Transport(e.to_string()))?;
        let addr =
            acceptor.local_addr().map_err(|e| ElideError::Transport(e.to_string()))?.to_string();
        let handle = serve(acceptor, std::sync::Arc::clone(&server), ServiceConfig::default());
        let mut fx = Fixture {
            tenants,
            platform,
            server,
            addr,
            handle: Some(handle),
            tickets: Mutex::new(Vec::new()),
        };
        // The starting tickets are taken in process: the same handshakes,
        // without the loopback round trips, whose wake-ups made set-up time
        // follow the host's scheduling delays.
        let mut wire = InProcessTransport::new(std::sync::Arc::clone(&fx.server));
        let mut supply = Vec::new();
        for t in 0..fx.tenants.len() {
            let clients = (0..TICKETS_PER_TENANT)
                .map(|k| {
                    let seed = fixtures::FIXTURE_SEED ^ ((t * 64 + k) as u64);
                    let (client, _) = fx.full(&mut wire, t, seed)?;
                    Ok(client)
                })
                .collect::<Result<Vec<_>, ElideError>>()?;
            supply.push(clients);
        }
        fx.tickets = Mutex::new(supply);
        Ok(fx)
    }

    fn connect(&self) -> Result<Timed<TcpTransport>, ElideError> {
        let t = trace::span("service", "service.connect", || {
            TcpTransport::connect_with(&self.addr, Limits::default())
        })?;
        Ok(Timed::service(t))
    }

    /// A full arrival for tenant `t`: attest, fetch, take a ticket.
    /// Returns the ticket-holding client and whether the secret matched.
    fn full(
        &self,
        wire: &mut dyn Transport,
        t: usize,
        seed: u64,
    ) -> Result<(ProvisionClient, bool), ElideError> {
        let tenant = &self.tenants[t];
        let mut client = ProvisionClient::new().with_rng(Box::new(SeededRandom::new(seed)));
        let mut quote = |rd: [u8; 64]| {
            trace::span("client", "client.quote", || {
                fixtures::quote(&tenant.enclave, &self.platform.qe, rd)
            })
        };
        trace::span("client", "client.full_handshake", || client.full_handshake(wire, &mut quote))?;
        let meta = client.fetch_meta(wire)?;
        let data = client.fetch_data(wire)?;
        client.request_ticket(wire)?;
        Ok((client, meta == tenant.meta && data == tenant.data))
    }

    /// A resume arrival: redeem `client`'s ticket and take a fresh one.
    fn resume(
        &self,
        t: usize,
        mut client: ProvisionClient,
    ) -> Result<(ProvisionClient, bool), ElideError> {
        let tenant = &self.tenants[t];
        let mut wire = self.connect()?;
        let secret = client.resume(&mut wire)?;
        client.request_ticket(&mut wire)?;
        Ok((client, secret.meta == tenant.meta && secret.data == tenant.data))
    }

    /// Runs one arrival; `Ok(true)` when it made a full handshake.
    fn arrival(&self, a: &Arrival) -> Result<bool, String> {
        let held = if a.full {
            None
        } else {
            self.tickets.lock().expect("ticket supply lock").get_mut(a.tenant).and_then(Vec::pop)
        };
        let full = held.is_none();
        let result = match held {
            Some(client) => self.resume(a.tenant, client),
            None => self.connect().and_then(|mut wire| self.full(&mut wire, a.tenant, a.seed)),
        };
        let name = self.tenants[a.tenant].name;
        let (client, matched) =
            result.map_err(|e| format!("{name}: {}: {e}", if full { "full" } else { "resume" }))?;
        self.tickets.lock().expect("ticket supply lock")[a.tenant].push(client);
        if matched {
            Ok(full)
        } else {
            Err(format!("{name}: provisioned payload differs from the stored secret"))
        }
    }
}

/// One scheduled arrival.
struct Arrival {
    at: Duration,
    full: bool,
    tenant: usize,
    seed: u64,
}

/// What happened to one arrival.
struct Done {
    index: usize,
    full: bool,
    /// Whether it was sent; arrivals still unsent well after their rate's
    /// window are dropped.
    sent: bool,
    /// From when it was due to completion; `None` if it failed or was dropped.
    latency: Option<f64>,
    lag: f64,
    end: Instant,
}

/// Open connections and client threads of the generator, with peaks.
#[derive(Default)]
struct Gauge {
    open: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn enter(&self) {
        let now = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }
    fn exit(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one segment of a rate, its schedule starting at `base`, and
/// returns its arrivals' outcomes.
fn run_rate(
    fx: &Fixture,
    base: Instant,
    arrivals: &[Arrival],
    threads: usize,
    cfg: &Config,
    errors: &Mutex<Vec<String>>,
    gauge: &Gauge,
) -> Vec<Done> {
    let stop = base + arrivals.last().map_or(Duration::ZERO, |a| a.at) + GRACE;
    let next = AtomicUsize::new(0);
    let mut done = Vec::with_capacity(arrivals.len());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(a) = arrivals.get(i) else { break };
                        let due = base + a.at;
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let start = Instant::now();
                        let lag = start.duration_since(due).as_secs_f64();
                        if start > stop {
                            out.push(Done {
                                index: i,
                                full: a.full,
                                sent: false,
                                latency: None,
                                lag,
                                end: start,
                            });
                            continue;
                        }
                        let armed = cfg.trace && i.is_multiple_of(2);
                        gauge.enter();
                        let (_, res) =
                            trace::op(if a.full { "full" } else { "resume" }, armed, || {
                                fx.arrival(a)
                            });
                        gauge.exit();
                        let end = Instant::now();
                        let latency = end.duration_since(due).as_secs_f64();
                        match res {
                            Ok(full) => out.push(Done {
                                index: i,
                                full,
                                sent: true,
                                latency: Some(latency),
                                lag,
                                end,
                            }),
                            Err(e) => {
                                errors.lock().expect("error list lock").push(e);
                                out.push(Done {
                                    index: i,
                                    full: a.full,
                                    sent: true,
                                    latency: None,
                                    lag,
                                    end,
                                });
                            }
                        }
                    }
                    (out, trace::take())
                })
            })
            .collect();
        for w in workers {
            let (out, t) = w.join().expect("client thread panicked");
            done.extend(out);
            trace::absorb(t);
        }
    });
    done
}

/// Outcome of one rate over all its segments. Samples are stamped with
/// the rate's own running time, its segments laid end to end, so windows
/// of it span segments taken at different times.
#[derive(Default)]
struct Rung {
    rate: f64,
    /// Arrivals scheduled, sent and completed.
    scheduled: usize,
    attempted: usize,
    completed: usize,
    full: Series,
    resume: Series,
    /// Every arrival; a failed or dropped one as missing the limit.
    all: Series,
    lag: Series,
    /// Running time of the segments so far, seconds.
    elapsed: f64,
    /// Growth of the generator lag across each segment, ms.
    lag_growth: Vec<f64>,
}

impl Rung {
    /// Adds one segment; `done` is in schedule order.
    fn add(&mut self, done: &[Done], base: Instant) {
        self.scheduled += done.len();
        self.attempted += done.iter().filter(|d| d.sent).count();
        self.completed += done.iter().filter(|d| d.latency.is_some()).count();
        for d in done {
            let at = self.elapsed + d.end.saturating_duration_since(base).as_secs_f64();
            self.all.push(at, d.latency.unwrap_or(MISSED_S));
            self.lag.push(at, d.lag);
            match (d.latency, d.full) {
                (Some(l), true) => self.full.push(at, l),
                (Some(l), false) => self.resume.push(at, l),
                (None, _) => {}
            }
        }
        let last = done.iter().map(|d| d.end).max().unwrap_or(base);
        self.elapsed += last.saturating_duration_since(base).as_secs_f64();
        // Generator lag over the first and the last quarter of the segment.
        let lags: Vec<f64> = done.iter().map(|d| d.lag * 1e3).collect();
        let q = (lags.len() / 4).max(1).min(lags.len());
        self.lag_growth.push(stats::median(&lags[lags.len() - q..]) - stats::median(&lags[..q]));
    }

    /// Completions per second of the rate's running time.
    fn delivered(&self) -> f64 {
        self.completed as f64 / self.elapsed.max(1e-9)
    }

    fn sustained(&self) -> bool {
        self.all.median_ms(0.99) <= P99_LIMIT_MS
            && stats::median(&self.lag_growth) <= LAG_GROWTH_LIMIT_MS
            && self.completed == self.scheduled
    }
}

/// Runs every rate of the ladder for its share of `cfg.seconds` and
/// records the metrics into `rep`.
pub fn run(fx: &Fixture, cfg: &Config, rep: &mut Report) {
    let mut stream = Stream::new(cfg.seed, 0x960);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let errors = Mutex::new(Vec::new());
    let gauge = Gauge::default();
    let (hs0, rs0) = (fx.server.handshakes(), fx.server.resumptions());
    // Set-up takes every starting ticket with one full handshake each.
    rep.fingerprint.insert("server.handshakes.setup".into(), hs0);
    let mut rungs: Vec<Rung> =
        LADDER.iter().map(|&(rate, _)| Rung { rate, ..Rung::default() }).collect();
    let overload = LADDER.len() - 1;
    let order = (0..CYCLES).flat_map(|_| 0..overload).chain([overload]);
    for k in order {
        let (rate, share) = LADDER[k];
        let segments = if k == overload { 1.0 } else { CYCLES as f64 };
        let count = (rate * share * cfg.seconds / segments).round().max(8.0) as usize;
        // Poisson arrivals: independent users, and no fixed period for the
        // schedule to lock in phase with the service's poll loop.
        let mut due = 0.0;
        let arrivals: Vec<Arrival> = (0..count)
            .map(|_| {
                due += -(1.0 - stream.unit()).ln() / rate;
                Arrival {
                    at: Duration::from_secs_f64(due),
                    full: stream.draw().is_multiple_of(FULL_ONE_IN),
                    tenant: stream.below(fx.tenants.len()),
                    seed: stream.draw(),
                }
            })
            .collect();
        // A short lead, so that client threads are up before the first arrival is due.
        let base = Instant::now() + Duration::from_millis(20);
        let mut done = run_rate(fx, base, &arrivals, threads, cfg, &errors, &gauge);
        done.sort_by_key(|d| d.index);
        rungs[k].add(&done, base);
    }
    for e in errors.into_inner().expect("error list lock") {
        rep.fail(e);
    }
    let attempted: usize = rungs.iter().map(|r| r.attempted).sum();
    rep.attempted += attempted as u64;
    let fulls: usize = rungs.iter().map(|r| r.full.len()).sum();
    let resumes: usize = rungs.iter().map(|r| r.resume.len()).sum();
    let (hs, rs) = (fx.server.handshakes() - hs0, fx.server.resumptions() - rs0);
    if hs != fulls as u64 || rs != resumes as u64 {
        rep.fail(format!(
            "server counted {hs} handshakes and {rs} resumptions; clients completed {fulls} and {resumes}"
        ));
    }
    rep.set("server.handshakes", hs as f64);
    rep.set("server.resumptions", rs as f64);

    rep.set("primary_ms.p50", rungs[0].full.median_ms(0.5));
    rep.set("secondary_ms.p50", rungs[1].full.median_ms(0.5));
    rep.samples("primary_ms", rungs[0].full.len());
    rep.samples("secondary_ms", rungs[1].full.len());
    let best = rungs.iter().filter(|r| r.sustained()).max_by(|a, b| a.rate.total_cmp(&b.rate));
    let max_rps = best.map_or(0.0, Rung::delivered);
    rep.set("ops_per_s", max_rps);
    if let Some(r) = best {
        rep.set("gen.lag_ms.p99", stats::quantile(&r.lag.values(), 0.99) * 1e3);
        rep.set("gen.lag_ms.max", stats::max(&r.lag.values()) * 1e3);
    }
    rep.set("gen.threads", threads as f64);
    rep.set("gen.peak_connections", gauge.peak.load(Ordering::SeqCst) as f64);
    for r in &rungs {
        rep.note(format!(
            "rate {:>5.0}/s: n={} full p50 {:.3} ms, resume p50 {:.3} ms, provision_ms.p99 {:.3} ms, lag p99 {:.3} ms, delivered {:.1}/s, {}",
            r.rate,
            r.attempted,
            r.full.median_ms(0.5),
            r.resume.median_ms(0.5),
            r.all.median_ms(0.99),
            stats::quantile(&r.lag.values(), 0.99) * 1e3,
            r.delivered(),
            if r.sustained() { "sustained" } else { "not sustained" }
        ));
    }
    rep.note(format!("provision_max_rps {max_rps:.2} 1/s (limit p99 <= {P99_LIMIT_MS} ms, {threads} client threads)"));
}
