//! Open-loop load test of the async provisioning plane: Poisson-ish
//! arrivals (fixed-interval open loop) of provisioning clients against
//! one sharded event-loop service, at several target rates, in two
//! modes — `full` (attested DH handshake + encrypted fetch) and
//! `resumed` (one-round-trip ticket resume). Latency is measured from
//! each request's *scheduled* arrival to completion, so a server that
//! falls behind shows its queueing delay instead of hiding it (the
//! coordinated-omission trap of closed-loop harnesses).
//!
//! A final `hold` phase opens ≥1,000 simultaneous connections and runs a
//! full handshake on every one of them while all stay open — the
//! concurrency level the old thread-per-connection worker pool could not
//! reach without a thousand blocked threads.
//!
//! Emits `BENCH_provision_load.json` at the workspace root.
//!
//! Env knobs (CI smoke uses tiny values):
//! * `ELIDE_LOAD_RATES`    — comma-separated arrival rates/s (default `25,50,100`)
//! * `ELIDE_LOAD_REQUESTS` — arrivals per rate per mode (default `150`)
//! * `ELIDE_LOAD_HOLD`     — concurrent connections in the hold phase (default `1000`)
//!
//! The run aborts if any request errors or the hold phase's p99 exceeds
//! [`HOLD_P99_BUDGET_MS`].
//!
//! Plain-main harness (`cargo bench --bench provision_load`).

use elide_bench::{env_or, percentile, print_row, write_rows, Row};
use elide_core::api::Platform;
use elide_core::client::ProvisionClient;
use elide_core::error::ElideError;
use elide_core::meta::SecretMeta;
use elide_core::protocol::TcpTransport;
use elide_core::server::{AuthServer, ExpectedIdentity};
use elide_core::service::{serve, ServiceConfig};
use elide_core::store::{SecretEntry, SecretStore};
use elide_core::transport::tcp::TcpAcceptor;
use elide_core::transport::Limits;
use elide_crypto::rng::SeededRandom;
use elide_crypto::rsa::RsaKeyPair;
use sgx_sim::epc::{PagePerms, PageType};
use sgx_sim::quote::{AttestationService, QE_MEASUREMENT};
use sgx_sim::report::{ereport, TargetInfo};
use sgx_sim::sigstruct::SigStruct;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PAYLOAD_LEN: usize = 4096;

/// Hold-phase p99 ceiling. Deliberately loose: it exists to catch a
/// deadlocked shard or an accept/readiness livelock, not to benchmark the
/// runner.
const HOLD_P99_BUDGET_MS: f64 = 60_000.0;

/// One result row: the latency distribution of `samples` (seconds) plus
/// the run's shape.
fn load_row(
    mode: &str,
    rate_per_s: f64,
    errors: usize,
    concurrent: usize,
    mut samples: Vec<f64>,
) -> Row {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ms = |q: f64| percentile(&samples, q) * 1e3;
    Row::new()
        .str("mode", mode)
        .num("rate_per_s", rate_per_s, 1)
        .int("requests", samples.len() as u64)
        .int("errors", errors as u64)
        .int("concurrent", concurrent as u64)
        .num("p50_ms", ms(0.50), 3)
        .num("p99_ms", ms(0.99), 3)
        .num("p999_ms", ms(0.999), 3)
        .num("max_ms", samples.last().map_or(0.0, |s| s * 1e3), 3)
}

/// Everything a client thread needs to attest and fetch.
struct Ctx {
    platform: Platform,
    enclave: sgx_sim::enclave::Enclave,
    addr: String,
    limits: Limits,
}

impl Ctx {
    fn quote(&self, report_data: [u8; 64]) -> Result<Vec<u8>, ElideError> {
        let report = ereport(&self.enclave, &TargetInfo { mrenclave: QE_MEASUREMENT }, report_data)
            .map_err(|e| ElideError::Transport(format!("ereport: {e}")))?;
        let quote = self
            .platform
            .qe
            .quote(&report)
            .map_err(|e| ElideError::Transport(format!("quote: {e}")))?;
        Ok(quote.to_bytes())
    }

    fn connect(&self) -> Result<TcpTransport, ElideError> {
        TcpTransport::connect_with(&self.addr, self.limits)
    }
}

/// Tracks concurrently-open client connections and the peak.
struct Gauge {
    open: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn new() -> Self {
        Gauge { open: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }
    fn enter(&self) {
        let now = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }
    fn exit(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One full-handshake client: connect, attest, fetch the secret.
fn run_full(ctx: &Ctx) -> Result<(), ElideError> {
    let mut t = ctx.connect()?;
    let mut client = ProvisionClient::new();
    let mut qf = |rd: [u8; 64]| ctx.quote(rd);
    client.full_handshake(&mut t, &mut qf)?;
    let data = client.fetch_data(&mut t)?;
    assert_eq!(data.len(), PAYLOAD_LEN);
    Ok(())
}

/// One resumed client: connect, redeem the pre-issued ticket.
fn run_resumed(ctx: &Ctx, mut client: ProvisionClient) -> Result<(), ElideError> {
    let mut t = ctx.connect()?;
    let secret = client.resume(&mut t)?;
    assert_eq!(secret.data.len(), PAYLOAD_LEN);
    Ok(())
}

/// Open-loop run: `requests` arrivals at `rate` per second. `clients` is
/// `Some` for resumed mode (one ticket-holding client per arrival).
fn run_rate(
    mode: &'static str,
    rate: f64,
    requests: usize,
    ctx: &Arc<Ctx>,
    clients: Option<Vec<ProvisionClient>>,
) -> Row {
    let gauge = Arc::new(Gauge::new());
    let t0 = Instant::now() + Duration::from_millis(50); // let threads spawn
    let mut clients = clients.map(|v| v.into_iter());
    let threads: Vec<_> = (0..requests)
        .map(|i| {
            let ctx = Arc::clone(ctx);
            let gauge = Arc::clone(&gauge);
            let client = clients.as_mut().map(|it| it.next().expect("one client per arrival"));
            let sched = t0 + Duration::from_secs_f64(i as f64 / rate);
            std::thread::spawn(move || {
                std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                gauge.enter();
                let result = match client {
                    None => run_full(&ctx),
                    Some(c) => run_resumed(&ctx, c),
                };
                gauge.exit();
                (Instant::now().saturating_duration_since(sched).as_secs_f64(), result.is_err())
            })
        })
        .collect();

    let mut samples = Vec::with_capacity(requests);
    let mut errors = 0usize;
    for t in threads {
        let (latency, failed) = t.join().expect("client thread");
        samples.push(latency);
        errors += usize::from(failed);
    }
    load_row(mode, rate, errors, gauge.peak.load(Ordering::Relaxed), samples)
}

/// Hold phase: `count` clients connect, wait until *all* are connected,
/// then each runs a full handshake while every connection stays open.
fn run_hold(count: usize, ctx: &Arc<Ctx>) -> Row {
    let barrier = Arc::new(Barrier::new(count));
    let threads: Vec<_> = (0..count)
        .map(|_| {
            let ctx = Arc::clone(ctx);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let t = ctx.connect();
                barrier.wait(); // all `count` connections now open at once
                let start = Instant::now();
                let result = t.and_then(|mut t| {
                    let mut client = ProvisionClient::new();
                    let mut qf = |rd: [u8; 64]| ctx.quote(rd);
                    client.full_handshake(&mut t, &mut qf)?;
                    client.fetch_data(&mut t).map(|d| assert_eq!(d.len(), PAYLOAD_LEN))
                });
                (start.elapsed().as_secs_f64(), result.is_err())
            })
        })
        .collect();

    let mut samples = Vec::with_capacity(count);
    let mut errors = 0usize;
    for t in threads {
        let (latency, failed) = t.join().expect("hold thread");
        samples.push(latency);
        errors += usize::from(failed);
    }
    load_row("hold", 0.0, errors, count, samples)
}

fn main() {
    let rates: Vec<f64> = std::env::var("ELIDE_LOAD_RATES")
        .unwrap_or_else(|_| "25,50,100".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&r: &f64| r > 0.0)
        .collect();
    let requests: usize = env_or("ELIDE_LOAD_REQUESTS", 150);
    let hold: usize = env_or("ELIDE_LOAD_HOLD", 1000);

    // --- stand the plane up once -------------------------------------
    let mut rng = SeededRandom::new(0x10AD);
    let mut ias = AttestationService::new();
    let platform = Platform::provision(&mut rng, &mut ias);
    let enclave = {
        let mut e = platform.cpu.ecreate(0x100000, 0x1000).unwrap();
        e.eadd(0x100000, &[3; 4096], PagePerms::RX, PageType::Reg).unwrap();
        for i in 0..16 {
            e.eextend(0x100000 + i * 256).unwrap();
        }
        let kp = RsaKeyPair::generate(512, &mut rng);
        let sig = SigStruct::sign(&kp, e.current_measurement().unwrap(), 1, 1).unwrap();
        e.einit(&sig).unwrap();
        e
    };
    let mut store = SecretStore::new();
    store.insert(SecretEntry {
        name: "load".into(),
        meta: SecretMeta {
            flags: 0,
            data_len: PAYLOAD_LEN as u64,
            text_len: PAYLOAD_LEN as u64,
            restore_offset: 0,
            key: [7; 16],
            iv: [8; 12],
            tag: [9; 16],
        },
        data: vec![0x5A; PAYLOAD_LEN],
        expected: ExpectedIdentity { mrenclave: Some(enclave.mrenclave()), mrsigner: None },
    });
    let server = Arc::new(AuthServer::with_store(store, ias));

    // Generous limits: under a 1,000-way hold the tail handshake waits
    // for every one queued ahead of it, and that wait is the measurement,
    // not a timeout.
    let limits = Limits {
        read_timeout: Some(Duration::from_secs(120)),
        write_timeout: Some(Duration::from_secs(120)),
        ..Limits::default()
    };
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().unwrap().to_string();
    let handle = serve(
        acceptor,
        Arc::clone(&server),
        ServiceConfig::default().with_workers(2).with_limits(limits),
    );
    let ctx = Arc::new(Ctx { platform, enclave, addr, limits });

    println!("provision_load (rates={rates:?}, requests={requests}, hold={hold})");
    let mut rows = Vec::new();
    let mut push = |row: Row| {
        print_row(&row, rows.is_empty());
        rows.push(row);
    };

    for &rate in &rates {
        push(run_rate("full", rate, requests, &ctx, None));

        // Pre-issue one single-use ticket per planned resumed arrival
        // (untimed setup: the resumed mode measures redemption alone).
        let clients: Vec<ProvisionClient> = (0..requests)
            .map(|_| {
                let mut t = ctx.connect().expect("connect");
                let mut client = ProvisionClient::new();
                let mut qf = |rd: [u8; 64]| ctx.quote(rd);
                client.full_handshake(&mut t, &mut qf).expect("handshake");
                client.request_ticket(&mut t).expect("ticket");
                client
            })
            .collect();
        push(run_rate("resumed", rate, requests, &ctx, Some(clients)));
    }

    push(run_hold(hold, &ctx));

    // Hold-mode baseline: with every connection open at once the tail
    // handshake queues behind all the others, so its latency is the
    // plane's worst case — bound the p99 by an explicit budget (and the
    // global errors==0 check below covers the hold phase too).
    let hold_row = rows.last().expect("hold row");
    assert_eq!(hold_row.number("errors"), Some(0.0), "hold mode must complete every handshake");
    let hold_p99_ms = hold_row.number("p99_ms").expect("p99_ms");
    assert!(
        hold_p99_ms <= HOLD_P99_BUDGET_MS,
        "hold-mode p99 {hold_p99_ms:.1} ms blew the {HOLD_P99_BUDGET_MS:.0} ms budget \
         at {hold} held connections"
    );

    let total_errors: f64 = rows.iter().filter_map(|r| r.number("errors")).sum();
    let params = Row::new()
        .str("rates", rates.iter().map(f64::to_string).collect::<Vec<_>>().join(","))
        .int("requests", requests as u64)
        .int("hold", hold as u64);
    let path = write_rows("provision_load", "ms", params, &rows).expect("write json");
    println!("\nwrote {}", path.display());
    println!(
        "served {} handshakes, {} resumptions, {} errors",
        server.handshakes(),
        server.resumptions(),
        total_errors
    );
    handle.shutdown();
    assert_eq!(total_errors, 0.0, "a healthy provisioning plane drops nothing");
}
