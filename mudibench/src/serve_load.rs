//! `serve-1k`: the mudi-serve request path under two streams.
//!
//! One process, two generator threads, two connections, a virtual
//! clock:
//!
//! - the **infer stream** is open loop: requests are due on a fixed
//!   schedule (a doubling ladder of rates, 500 req/s up to 8,000, with
//!   1,000 req/s as the nominal rate) and each is timed from when it was
//!   due, so a stall counts against every request queued behind it;
//! - the **admin stream** is mudi-serve's pacer, driven by hand: every
//!   100 ms `/admin/clock` advances the session 6 simulated seconds
//!   (mudi-serve's default pace of 60), every second `/admin/slo` and
//!   `/metrics` are read, and every 10 seconds a device fails.
//!
//! The admin stream is totally ordered and infers never change kernel
//! state, so the simulated outcome depends only on the seed and the
//! number of ticks. The untraced run goes through [`Server`] over
//! loopback; the traced run sends the same streams through
//! `parse_request` → `App::handle` → `Response::write_to` in process,
//! with every call recorded as a span.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::engine::{ClusterConfig, ClusterSession};
use cluster::systems::SystemKind;
use serve::http::{parse_request, ParseStatus};
use serve::json::Json;
use serve::{App, ServeClock, Server};
use simcore::{SimEventKind, SimRng};
use workloads::ServiceId;

use crate::kernel::{self, Pin, Readings};
use crate::report::{Report, Tally};
use crate::spans::Spans;
use crate::stats::{self, OpenLoop, Timed};

/// One admin tick of wall time.
const TICK: Duration = Duration::from_millis(100);
/// Simulated seconds one `/admin/clock` tick advances.
const ADVANCE_S: f64 = 6.0;
/// The nominal infer rate, requests per second.
const NOMINAL_RPS: f64 = 1000.0;
/// The latency limit a sustained rate must hold its p99 under: a tenth
/// of the tightest classifier SLO (100 ms).
const LIMIT_MS: f64 = 10.0;
/// Requests per block of the nominal rung: the reported tails are the
/// median of the blocks' tails, so one host stall moves one block only.
const BLOCK: usize = 1000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// How long a client waits on one response before counting a timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// One rung of the infer ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Requests per second.
    pub rate: f64,
    /// Wall seconds the rung lasts.
    pub secs: f64,
}

/// The workload's shape.
pub struct ServeSpec {
    /// The cluster behind the server.
    pub config: ClusterConfig,
    /// Simulated seconds the clock is advanced before timing starts.
    pub warmup_secs: f64,
    /// Admin ticks in the timed window.
    pub ticks: usize,
    /// The infer ladder, in order.
    pub rungs: Vec<Rung>,
    /// Seed of the request mix and the fault targets.
    pub seed: u64,
}

/// `serve-1k` at `seconds` of timed window: the paper's 1000-GPU
/// simulated cluster with the LLM services.
pub fn serve_1k(seed: u64, seconds: u64, smoke: bool) -> ServeSpec {
    let mut config = ClusterConfig::simulated(SystemKind::Mudi, seed);
    config.llm_services = true;
    if smoke {
        config.devices = 48;
        config.jobs = 240;
    }
    let window = if smoke { 10.0 } else { seconds.max(10) as f64 };
    // The nominal rung gets 40 % of the window, the others 15 % each.
    let rungs = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]
        .iter()
        .map(|&rate| Rung {
            rate,
            secs: window * if rate == NOMINAL_RPS { 0.4 } else { 0.15 },
        })
        .collect();
    ServeSpec {
        config,
        warmup_secs: 3600.0,
        ticks: (window / TICK.as_secs_f64()).round() as usize,
        rungs,
        seed,
    }
}

/// The admin stream's digest and the session fingerprint at the pinned
/// seed.
#[derive(Clone, Copy, Debug)]
pub struct ServePin {
    /// Digest of the admin stream's (normalised) responses.
    pub admin_digest: u64,
    /// `ExperimentResult::fingerprint` of the finished session.
    pub fingerprint: Pin,
}

// ---------------------------------------------------------------------
// Requests and their transports.
// ---------------------------------------------------------------------

/// What a request asks for, which fixes how its reply is checked and
/// which span name its handling gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Infer,
    InferTokens(u32),
    Warmup,
    Clock,
    Slo,
    Metrics,
    Fault,
}

impl Kind {
    fn handle_span(self) -> &'static str {
        match self {
            Kind::Infer => "serve.handle.infer",
            Kind::InferTokens(_) => "serve.handle.infer_tokens",
            Kind::Warmup => "serve.handle.warmup",
            Kind::Clock => "serve.handle.clock",
            Kind::Slo => "serve.handle.slo",
            Kind::Metrics => "serve.handle.metrics",
            Kind::Fault => "serve.handle.faults",
        }
    }
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A reply: status and body.
struct Reply {
    status: u16,
    body: Vec<u8>,
}

/// Splits one complete HTTP response off the front of `buf`, if it has
/// fully arrived.
fn take_response(buf: &mut Vec<u8>) -> Result<Option<Reply>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("no status code")?;
    let len = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .ok_or("no content-length")?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Reply { status, body }))
}

/// Where a stream's requests go.
trait Transport {
    fn call(&mut self, bytes: &[u8], kind: Kind, id: u64) -> Result<Reply, String>;

    /// Closes the transport, handing back any spans it recorded.
    fn into_spans(self: Box<Self>) -> Option<Spans> {
        None
    }
}

/// A keep-alive loopback connection to a running [`Server`].
struct Socket {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Socket {
    fn connect(addr: SocketAddr) -> std::io::Result<Socket> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Socket {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }
}

impl Transport for Socket {
    fn call(&mut self, bytes: &[u8], _: Kind, _: u64) -> Result<Reply, String> {
        self.stream.write_all(bytes).map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(reply) = take_response(&mut self.buf)? {
                return Ok(reply);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// The same request path in process: parse, handle, encode — each call
/// a span when a recorder is attached.
struct InProcess {
    app: Arc<App>,
    spans: Option<Spans>,
    out: Vec<u8>,
}

/// Runs `f`, as a span when there is a recorder.
fn timed<R>(
    spans: &mut Option<Spans>,
    name: &'static str,
    parent: Option<u32>,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(sp) => sp.time(name, parent, id, f),
        None => f(),
    }
}

impl Transport for InProcess {
    fn call(&mut self, bytes: &[u8], kind: Kind, id: u64) -> Result<Reply, String> {
        let root = self
            .spans
            .as_mut()
            .map(|sp| sp.open("serve.request", None, id));
        let parsed = timed(&mut self.spans, "serve.parse_request", root, id, || {
            parse_request(bytes)
        });
        let ParseStatus::Complete { request, .. } = parsed else {
            return Err(format!("request did not parse: {parsed:?}"));
        };
        let app = &self.app;
        let response = timed(&mut self.spans, kind.handle_span(), root, id, || {
            app.handle(&request)
        });
        let out = &mut self.out;
        timed(
            &mut self.spans,
            "serve.Response::write_to",
            root,
            id,
            || response.write_to(out),
        )
        .map_err(|e| e.to_string())?;
        if let (Some(sp), Some(root)) = (self.spans.as_mut(), root) {
            sp.close(root);
        }
        take_response(&mut self.out)?.ok_or_else(|| "incomplete response".to_string())
    }

    fn into_spans(self: Box<Self>) -> Option<Spans> {
        self.spans
    }
}

// ---------------------------------------------------------------------
// The two streams.
// ---------------------------------------------------------------------

/// Sleeps until `due` (sleeping, not spinning: the generator shares
/// the host's cores with the server it measures).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The seeded infer mix: ~90 % classifier requests, ~10 % generative
/// ones decoding 32–128 tokens.
struct Mix {
    rng: SimRng,
    classifiers: Vec<ServiceId>,
    generative: Vec<ServiceId>,
}

impl Mix {
    fn new(seed: u64, zoo: &workloads::Zoo) -> Mix {
        let (generative, classifiers): (Vec<_>, Vec<_>) =
            zoo.services().iter().partition(|s| s.generative.is_some());
        Mix {
            rng: SimRng::seed(seed).fork("bench-infer"),
            classifiers: classifiers.iter().map(|s| s.id).collect(),
            generative: generative.iter().map(|s| s.id).collect(),
        }
    }

    fn next(&mut self) -> (Vec<u8>, Kind) {
        let pick =
            |rng: &mut SimRng, from: &[ServiceId]| from[(rng.u64() % from.len() as u64) as usize];
        if !self.generative.is_empty() && self.rng.f64() < 0.1 {
            let svc = pick(&mut self.rng, &self.generative);
            let tokens = 32 + (self.rng.u64() % 97) as u32;
            let body = format!("{{\"service\":{},\"tokens\":{tokens}}}", svc.0);
            (
                http_request("POST", "/v1/infer", &body),
                Kind::InferTokens(tokens),
            )
        } else {
            let svc = pick(&mut self.rng, &self.classifiers);
            let body = format!("{{\"service\":{}}}", svc.0);
            (http_request("POST", "/v1/infer", &body), Kind::Infer)
        }
    }
}

/// Whether an infer reply is a routed request of the asked-for shape.
fn infer_reply_ok(reply: &Reply, kind: Kind) -> bool {
    if reply.status != 200 {
        return false;
    }
    let Ok(body) = std::str::from_utf8(&reply.body) else {
        return false;
    };
    body.contains("\"device\":")
        && match kind {
            Kind::InferTokens(n) => body.matches("\"latency_ms\"").count() == n as usize,
            _ => body.contains("\"latency_ms\""),
        }
}

/// One timed infer request, kept compact so the generator's own memory
/// stays small next to the server's.
struct InferSample {
    /// Due, sent and done, microseconds from the stream start.
    micros: [u32; 3],
    /// Requests due but not yet sent when this one went out (itself
    /// included).
    backlog: u32,
    rung: u8,
    ok: bool,
}

impl InferSample {
    fn t(&self) -> Timed {
        let [due, sent, done] = self.micros.map(|us| Duration::from_micros(u64::from(us)));
        Timed { due, sent, done }
    }
}

/// The infer stream's record.
#[derive(Default)]
struct InferOut {
    samples: Vec<InferSample>,
    /// Rungs run (the ladder stops above the nominal rate at the first
    /// rung that misses the limit).
    rungs_run: usize,
    notes: Vec<String>,
}

impl InferOut {
    /// Latencies of one rung in milliseconds, in sending order; a
    /// failed request counts as missing every limit.
    fn latencies_ms(&self, rung: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| usize::from(s.rung) == rung)
            .map(|s| {
                if s.ok {
                    s.t().latency().as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// Whether a rung held its p99 under the limit with no growing
    /// backlog: when its last request left, no more than one limit's
    /// worth of requests was waiting.
    fn sustained(&self, rung: usize, rate: f64) -> bool {
        let Ok(p99) = stats::labelled(&stats::sorted(self.latencies_ms(rung)), 99.0) else {
            return false;
        };
        let last_backlog = self
            .samples
            .iter()
            .rev()
            .find(|s| usize::from(s.rung) == rung)
            .map_or(usize::MAX, |s| s.backlog as usize);
        p99 <= LIMIT_MS && last_backlog as f64 <= (rate * LIMIT_MS / 1e3).max(1.0)
    }
}

/// Index of the nominal rung.
fn nominal(spec: &ServeSpec) -> usize {
    spec.rungs
        .iter()
        .position(|r| r.rate == NOMINAL_RPS)
        .expect("the ladder includes the nominal rate")
}

fn infer_stream(
    tx: &mut dyn Transport,
    spec: &ServeSpec,
    mut mix: Mix,
    start: Instant,
) -> InferOut {
    let mut out = InferOut::default();
    let mut rung_start = start;
    let mut id = 0u64;
    for (ri, rung) in spec.rungs.iter().enumerate() {
        // Above the nominal rate, climb only while the last rung held.
        if ri > nominal(spec) && !out.sustained(ri - 1, spec.rungs[ri - 1].rate) {
            break;
        }
        out.rungs_run = ri + 1;
        let sched = OpenLoop { rate: rung.rate };
        let n = (rung.rate * rung.secs).round() as usize;
        for i in 0..n {
            let due = rung_start + sched.due(i);
            wait_until(due);
            let sent = Instant::now();
            let backlog = sched.due_by(sent - rung_start).min(n) - i;
            let (bytes, kind) = mix.next();
            let reply = tx.call(&bytes, kind, id);
            let done = Instant::now();
            let ok = match &reply {
                Ok(r) => infer_reply_ok(r, kind),
                Err(_) => false,
            };
            if !ok && out.notes.len() < 5 {
                out.notes.push(match reply {
                    Ok(r) => format!(
                        "infer answered {}: {}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    ),
                    Err(e) => format!("infer failed: {e}"),
                });
            }
            let us = |t: Instant| (t - start).as_micros() as u32;
            out.samples.push(InferSample {
                micros: [us(due), us(sent), us(done)],
                backlog: backlog as u32,
                rung: ri as u8,
                ok,
            });
            id += 1;
        }
        // The next rung starts on schedule, or once this one's backlog
        // has drained if it overran.
        rung_start = (rung_start + Duration::from_secs_f64(rung.secs)).max(Instant::now());
    }
    out
}

/// FNV-1a, for the admin stream digest.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The part of an admin response that depends only on the admin
/// stream: per-request API tallies and trace counters that count
/// routed infers are dropped, since they depend on how the two streams
/// interleave.
fn normalised(kind: Kind, body: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(body);
    let routed = format!("kind=\"{}\"", SimEventKind::InferenceRouted.name());
    match kind {
        Kind::Slo => match Json::parse(&text) {
            Ok(Json::Obj(fields)) => strip_api(Json::Obj(fields)).render().into_bytes(),
            _ => body.to_vec(),
        },
        Kind::Metrics => text
            .lines()
            .filter(|l| !l.contains(&routed) && !l.contains("mudi_trace_events_emitted_total"))
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes(),
        _ => body.to_vec(),
    }
}

fn strip_api(v: Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "api_requests" && k != "api_violations")
                .map(|(k, v)| (k, strip_api(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_api).collect()),
        other => other,
    }
}

/// The admin stream's record.
struct AdminOut {
    /// `/admin/clock` timings.
    clock: Vec<Timed>,
    digest: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl AdminOut {
    fn new() -> AdminOut {
        AdminOut {
            clock: Vec::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Sends one admin request, folds its reply into the digest and
    /// returns its timing.
    fn call(
        &mut self,
        tx: &mut dyn Transport,
        kind: Kind,
        bytes: &[u8],
        id: u64,
        due: Instant,
        start: Instant,
    ) -> Timed {
        let sent = Instant::now();
        let reply = tx.call(bytes, kind, id);
        let done = Instant::now();
        self.attempted += 1;
        match reply {
            Ok(r) if r.status == 200 => {
                self.digest = fnv(self.digest, format!("{kind:?} {}\n", r.status).as_bytes());
                self.digest = fnv(self.digest, &normalised(kind, &r.body));
            }
            other => {
                self.failed += 1;
                if self.notes.len() < 5 {
                    self.notes.push(match other {
                        Ok(r) => format!(
                            "{kind:?} answered {}: {}",
                            r.status,
                            String::from_utf8_lossy(&r.body)
                        ),
                        Err(e) => format!("{kind:?} failed: {e}"),
                    });
                }
            }
        }
        Timed {
            due: due.saturating_duration_since(start),
            sent: sent.saturating_duration_since(start),
            done: done.saturating_duration_since(start),
        }
    }
}

fn admin_stream(
    tx: &mut dyn Transport,
    spec: &ServeSpec,
    devices: usize,
    mut out: AdminOut,
    start: Instant,
) -> AdminOut {
    let mut rng = SimRng::seed(spec.seed).fork("bench-faults");
    let clock = http_request(
        "POST",
        "/admin/clock",
        &format!("{{\"advance_s\":{ADVANCE_S}}}"),
    );
    let slo = http_request("GET", "/admin/slo", "");
    let metrics = http_request("GET", "/metrics", "");
    let mut id = 1u64 << 40;
    for k in 0..spec.ticks {
        let due = start + TICK * k as u32;
        wait_until(due);
        let t = out.call(tx, Kind::Clock, &clock, id, due, start);
        out.clock.push(t);
        if k % 10 == 9 {
            out.call(tx, Kind::Slo, &slo, id + 1, due, start);
            out.call(tx, Kind::Metrics, &metrics, id + 2, due, start);
        }
        if k % 100 == 49 {
            let device = rng.u64() % devices as u64;
            let body =
                format!("{{\"device\":{device},\"kind\":\"device-failure\",\"repair_s\":300}}");
            out.call(
                tx,
                Kind::Fault,
                &http_request("POST", "/admin/faults", &body),
                id + 3,
                due,
                start,
            );
        }
        id += 4;
    }
    out
}

// ---------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------

/// How a pass reaches the server.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// [`Server`] over loopback.
    Socket,
    /// In process, optionally recording spans.
    InProcess { spans: bool },
}

struct ServePass {
    setup_s: Vec<f64>,
    infer: InferOut,
    admin: AdminOut,
    /// Kernel events fired during the timed window.
    window_events: u64,
    readings: Readings,
    spans: Option<Spans>,
}

/// One pass; a panic inside the program (which also poisons the
/// session lock) is caught and returned as an error.
fn run_pass(spec: &ServeSpec, path: Path) -> Result<ServePass, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pass(spec, path)))
        .map_err(crate::report::panic_message)?
}

fn pass(spec: &ServeSpec, path: Path) -> Result<ServePass, String> {
    let origin = Instant::now();
    let mut spans = matches!(path, Path::InProcess { spans: true }).then(|| Spans::new(origin));
    let reps = if path == Path::Socket { SETUP_REPS } else { 1 };
    let mut setup_s = Vec::new();
    let mut live: Option<(Arc<App>, Option<Server>)> = None;
    for _ in 0..reps {
        drop(live.take());
        let t0 = Instant::now();
        let session = timed(&mut spans, "session.new", None, 0, || {
            ClusterSession::new(spec.config.clone())
        });
        let app = App::new(session, ServeClock::frozen());
        let server = match path {
            Path::Socket => Some(
                Server::start(Arc::clone(&app), "127.0.0.1:0")
                    .map_err(|e| format!("cannot bind loopback: {e}"))?,
            ),
            Path::InProcess { .. } => None,
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((app, server));
    }
    let (app, server) = live.expect("at least one set-up");
    // The session is finished by value; this stands in for it inside
    // the app once the streams are done.
    let placeholder = ClusterSession::new(ClusterConfig::tiny(SystemKind::Mudi, spec.seed));
    let (devices, mix) = {
        let s = app.session().lock().expect("session lock");
        (s.device_count(), Mix::new(spec.seed, s.zoo()))
    };
    let connect = |spans: Option<Spans>| -> Result<Box<dyn Transport + Send>, String> {
        Ok(match &server {
            Some(srv) => {
                Box::new(Socket::connect(srv.addr()).map_err(|e| format!("cannot connect: {e}"))?)
            }
            None => Box::new(InProcess {
                app: Arc::clone(&app),
                spans,
                out: Vec::with_capacity(1 << 16),
            }),
        })
    };
    let mut admin_tx = connect(spans.as_ref().map(|_| Spans::new(origin)))?;
    let mut infer_tx = connect(spans.as_ref().map(|_| Spans::new(origin)))?;

    let mut admin = AdminOut::new();
    let warm = http_request(
        "POST",
        "/admin/clock",
        &format!("{{\"advance_s\":{}}}", spec.warmup_secs),
    );
    let now = Instant::now();
    admin.call(admin_tx.as_mut(), Kind::Warmup, &warm, 0, now, now);
    let events_before = app.session().lock().expect("session lock").events_fired();

    let start = Instant::now() + Duration::from_millis(10);
    let (infer, admin) = std::thread::scope(|scope| {
        let infer_tx = &mut infer_tx;
        let admin_tx = &mut admin_tx;
        let infer = scope.spawn(move || infer_stream(infer_tx.as_mut(), spec, mix, start));
        let admin =
            scope.spawn(move || admin_stream(admin_tx.as_mut(), spec, devices, admin, start));
        (
            infer.join().map_err(crate::report::panic_message),
            admin.join().map_err(crate::report::panic_message),
        )
    });
    let (infer, admin) = (infer?, admin?);
    let window_events = app.session().lock().expect("session lock").events_fired() - events_before;

    // Close the connections and the server, then take the session back.
    for tx in [infer_tx, admin_tx] {
        if let (Some(sp), Some(recorded)) = (spans.as_mut(), tx.into_spans()) {
            sp.merge(recorded);
        }
    }
    drop(server);
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&app) > 1 {
        if Instant::now() > deadline {
            return Err("server connections did not close".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut session = {
        let mut guard = app.session().lock().expect("session lock");
        std::mem::replace(&mut *guard, placeholder)
    };
    if let Some(sp) = spans.as_mut() {
        kernel::probe_request_path(&mut session, sp);
    }
    let readings = Readings::finish(session, spans.as_mut());
    Ok(ServePass {
        setup_s,
        infer,
        admin,
        window_events,
        readings,
        spans,
    })
}

// ---------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------

/// Checks a pass: every request answered correctly, the clock where the
/// admin stream put it, and — at the pinned seed — the admin digest and
/// the session fingerprint.
fn check_pass(p: &ServePass, spec: &ServeSpec, pin: Option<ServePin>, tally: &mut Tally) {
    let failed = p.infer.samples.iter().filter(|s| !s.ok).count() as u64;
    tally.ops(p.infer.samples.len() as u64, failed, "infer requests");
    tally.notes.extend(p.infer.notes.iter().cloned());
    tally.ops(p.admin.attempted, p.admin.failed, "admin requests");
    tally.notes.extend(p.admin.notes.iter().cloned());
    let want = spec.warmup_secs + spec.ticks as f64 * ADVANCE_S;
    tally.check((p.readings.sim_secs - want).abs() < 1e-6, || {
        format!("session clock {} s, expected {want} s", p.readings.sim_secs)
    });
    kernel::check_readings(&p.readings, None, pin.map(|p| p.fingerprint), tally);
    if let Some(pin) = pin {
        tally.check(p.admin.digest == pin.admin_digest, || {
            format!(
                "admin digest {:016x}, pinned {:016x}",
                p.admin.digest, pin.admin_digest
            )
        });
    }
}

fn failed_pass(report: &mut Report, e: String) {
    report.tally.ops(1, 1, "passes");
    report.tally.notes.push(e);
}

/// The untraced run: one pass through [`Server`] over loopback.
pub fn measure(spec: &ServeSpec, pin: Option<ServePin>) -> Report {
    let mut report = Report::default();
    let p = match run_pass(spec, Path::Socket) {
        Ok(p) => p,
        Err(e) => {
            failed_pass(&mut report, e);
            return report;
        }
    };
    check_pass(&p, spec, pin, &mut report.tally);
    report.lanes = p.readings.phase.lanes;
    report.workers = p.readings.phase.workers;
    let lat = p.infer.latencies_ms(nominal(spec));
    let mut block_tail = |pct| match stats::median_block_percentile(&lat, BLOCK, pct) {
        Ok(v) => v,
        Err(e) => {
            report
                .tally
                .check(false, || format!("nominal-rate p{pct}: {e}"));
            f64::NAN
        }
    };
    let p90 = block_tail(90.0);
    let p99 = block_tail(99.0);
    let p50 = if lat.is_empty() {
        f64::NAN
    } else {
        stats::median_of(&lat)
    };
    let clock_busy: f64 = p
        .admin
        .clock
        .iter()
        .map(|t| t.service().as_secs_f64())
        .sum();
    report.set("setup_s", stats::median_of(&p.setup_s));
    report.figure("events_per_s", p.window_events as f64 / clock_busy, "1/s");
    report.set("latency_ms_p50", p50);
    let r = &p.readings.result;
    report.set("slo_violation_rate", r.overall_violation_rate());
    report.set("goodput_iters_per_h", r.goodput_iters_per_hour());

    let sustained = (0..p.infer.rungs_run)
        .rev()
        .find(|&i| (0..=i).all(|j| p.infer.sustained(j, spec.rungs[j].rate)))
        .map_or(0.0, |i| spec.rungs[i].rate);
    let attempted = p.infer.samples.len() as f64;
    let failed = p.infer.samples.iter().filter(|s| !s.ok).count() as f64;
    let clock_ms = stats::sorted(
        p.admin
            .clock
            .iter()
            .map(|t| t.service().as_secs_f64() * 1e3)
            .collect(),
    );
    report.figure("req_ms_p50", p50, "ms");
    report.figure("req_ms_p90", p90, "ms");
    report.figure("req_ms_p99", p99, "ms");
    report.figure("sustained_rps", sustained, "req/s");
    report.figure(
        "error_rate",
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        },
        "ratio",
    );
    report.figure(
        "token_slo_violation_rate",
        r.overall_token_violation_rate(),
        "ratio",
    );
    report.figure(
        "clock_ms_p50",
        if clock_ms.is_empty() {
            f64::NAN
        } else {
            stats::median(&clock_ms)
        },
        "ms",
    );
    for (i, rung) in spec.rungs.iter().enumerate().take(p.infer.rungs_run) {
        let lat = stats::sorted(p.infer.latencies_ms(i));
        let tail = stats::highest_supported(&lat);
        eprintln!(
            "rung {:>5} req/s: {} requests, p50 {:.3} ms, p90 {:.3} ms, {}, sustained {}",
            rung.rate,
            lat.len(),
            stats::median(&lat),
            stats::percentile(&lat, 90.0),
            tail.map_or("too few samples".into(), |t| format!(
                "p{} {:.3} ms",
                t.pct, t.value
            )),
            p.infer.sustained(i, rung.rate)
        );
    }
    report.figure("infer_requests", attempted, "count");
    report.figure("admin_requests", p.admin.attempted as f64, "count");
    report.fingerprint = Some(format!(
        "fingerprint {:016x} events {} admin_digest {:016x}",
        p.readings.fingerprint, p.readings.events, p.admin.digest
    ));
    report
}

/// The traced run: the same streams in process twice, without and then
/// with spans; per-layer metrics come from the second.
pub fn trace(spec: &ServeSpec, pin: Option<ServePin>) -> Report {
    let mut report = Report::default();
    let base = match run_pass(spec, Path::InProcess { spans: false }) {
        Ok(p) => p,
        Err(e) => {
            failed_pass(&mut report, e);
            return report;
        }
    };
    check_pass(&base, spec, pin, &mut report.tally);
    let mut p = match run_pass(spec, Path::InProcess { spans: true }) {
        Ok(p) => p,
        Err(e) => {
            failed_pass(&mut report, e);
            return report;
        }
    };
    check_pass(&p, spec, None, &mut report.tally);
    report.tally.check(
        p.readings.fingerprint == base.readings.fingerprint && p.admin.digest == base.admin.digest,
        || {
            format!(
                "traced pass differs: fingerprint {:016x} digest {:016x} vs {:016x} {:016x}",
                p.readings.fingerprint,
                p.admin.digest,
                base.readings.fingerprint,
                base.admin.digest
            )
        },
    );
    report.fingerprint = Some(format!(
        "fingerprint {:016x} events {} admin_digest {:016x}",
        p.readings.fingerprint, p.readings.events, p.admin.digest
    ));
    let mut sp = p.spans.take().expect("traced pass records spans");
    kernel::set_setup_layers(
        &mut report,
        &spec.config,
        p.setup_s[0],
        &p.readings.phase,
        &mut sp,
    );
    kernel::set_kernel_layers(
        &mut report,
        p.window_events,
        &p.readings,
        &base.readings,
        &sp,
        "serve.handle.clock",
    );

    set_serve_layers(&mut report, &sp);
    set_serve_figures(&mut report, &sp, &p.infer);
    let failed = p.infer.samples.iter().filter(|s| !s.ok).count() as u64 + p.admin.failed;
    report.set(
        "serve.requests",
        (p.infer.samples.len() as u64 + p.admin.attempted) as f64,
    );
    report.set("serve.failed", failed as f64);
    let mean_service = |q: &ServePass| {
        q.infer
            .samples
            .iter()
            .map(|s| s.t().service().as_secs_f64())
            .sum::<f64>()
            / q.infer.samples.len().max(1) as f64
    };
    report.set(
        "trace.overhead_ratio",
        mean_service(&p) / mean_service(&base),
    );
    report.set("trace.spans", sp.all().len() as f64);
    report.spans = Some(sp);
    report
}

/// The serve-layer metrics a recording of `parse_request` →
/// `App::handle` → `write_to` spans gives. A layer with no spans is not
/// set; a tail with spans but too few to label is a failed check.
pub fn set_serve_layers(report: &mut Report, sp: &Spans) {
    let us = |v: f64| v * 1e6;
    let v = sp.secs_sorted("serve.parse_request");
    if !v.is_empty() {
        report.set("serve.parse_us_p50", us(stats::median(&v)));
    }
    for (metric, span) in [
        ("serve.parse_us_p99", "serve.parse_request"),
        ("serve.write_us_p99", "serve.Response::write_to"),
        ("serve.handle.infer_us_p99", "serve.handle.infer"),
        (
            "serve.handle.infer_tokens_us_p99",
            "serve.handle.infer_tokens",
        ),
    ] {
        let v = sp.secs_sorted(span);
        if v.is_empty() {
            continue;
        }
        match stats::labelled(&v, 99.0) {
            Ok(x) => report.set(metric, us(x)),
            Err(e) => report.tally.check(false, || format!("{span}: {e}")),
        }
    }
    if let Some(&v) = sp.secs_sorted("serve.handle.metrics").last() {
        report.set("serve.handle.metrics_us_max", us(v));
    }
    let roots = sp.named("serve.request").count();
    if roots > 0 {
        report.set(
            "serve.request.self_us_mean",
            us(sp.self_secs("serve.request") / roots as f64),
        );
    }
}

/// The admin-stream and load-generator figures of a traced serve-1k
/// pass: clock and SLO handle times, how many infers overlapped
/// a clock step, and the generator's lateness and backlog.
fn set_serve_figures(report: &mut Report, sp: &Spans, infer: &InferOut) {
    let us = |v: f64| v * 1e6;
    let clock = sp.secs_sorted("serve.handle.clock");
    let max = |name: &str| sp.secs_sorted(name).last().map_or(f64::NAN, |&v| us(v));
    report.figure(
        "serve.handle.clock_us_p50",
        if clock.is_empty() {
            f64::NAN
        } else {
            us(stats::median(&clock))
        },
        "us",
    );
    report.figure("serve.handle.clock_us_max", max("serve.handle.clock"), "us");
    report.figure("serve.handle.slo_us_max", max("serve.handle.slo"), "us");
    let infers: Vec<_> = sp
        .named("serve.handle.infer")
        .chain(sp.named("serve.handle.infer_tokens"))
        .map(|s| s.interval())
        .collect();
    let clocks: Vec<_> = sp
        .named("serve.handle.clock")
        .map(|s| s.interval())
        .collect();
    report.figure(
        "serve.infer_blocked_share",
        stats::overlap_share(&infers, &clocks),
        "ratio",
    );
    let late = stats::sorted(
        infer
            .samples
            .iter()
            .map(|s| s.t().late().as_secs_f64() * 1e3)
            .collect(),
    );
    match stats::labelled(&late, 99.0) {
        Ok(v) => report.figure("loadgen.late_ms_p99", v, "ms"),
        Err(e) => report
            .tally
            .check(false, || format!("generator lateness: {e}")),
    }
    report.figure(
        "loadgen.backlog_max",
        infer.samples.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
        "count",
    );
}

/// Requests the serve-layer probe sends per kind.
const PROBE_REQUESTS: usize = 1000;

/// Sends requests through the serve layers — `parse_request` →
/// `App::handle` → `Response::write_to`, each a span — on a kernel
/// workload's stepped session: classifier infers, generative infers
/// where the zoo has them, and `/metrics` reads. The app's virtual clock
/// stays at zero, behind the session, so handling never steps it and
/// the fingerprint is unchanged. Returns the session and how many of the
/// `(attempted, failed)` requests failed.
pub fn probe_serve_layers(
    mut session: ClusterSession,
    sp: &mut Spans,
) -> (ClusterSession, u64, u64) {
    let placeholder = ClusterSession::new(ClusterConfig::tiny(SystemKind::Mudi, 0));
    let (classifiers, generative) = kernel::live_services(&mut session);
    let (classifier, generative) = (classifiers.first().copied(), generative.first().copied());
    let app = App::new(session, ServeClock::frozen());
    let mut tx = InProcess {
        app: Arc::clone(&app),
        spans: Some(sp.take()),
        out: Vec::with_capacity(1 << 16),
    };
    let mut requests: Vec<(Vec<u8>, Kind)> = Vec::new();
    if let Some(svc) = classifier {
        let body = format!("{{\"service\":{}}}", svc.0);
        requests.extend(
            (0..PROBE_REQUESTS).map(|_| (http_request("POST", "/v1/infer", &body), Kind::Infer)),
        );
    }
    if let Some(svc) = generative {
        let body = format!("{{\"service\":{},\"tokens\":64}}", svc.0);
        requests.extend((0..PROBE_REQUESTS).map(|_| {
            (
                http_request("POST", "/v1/infer", &body),
                Kind::InferTokens(64),
            )
        }));
    }
    requests.extend((0..20).map(|_| (http_request("GET", "/metrics", ""), Kind::Metrics)));
    let mut failed = 0;
    for (id, (bytes, kind)) in requests.iter().enumerate() {
        let ok = match &tx.call(bytes, *kind, id as u64) {
            Ok(reply) if *kind == Kind::Metrics => reply.status == 200,
            Ok(reply) => infer_reply_ok(reply, *kind),
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }
    *sp = tx.spans.take().expect("the probe records spans");
    drop(tx);
    let session = std::mem::replace(
        &mut *app.session().lock().expect("session lock"),
        placeholder,
    );
    (session, requests.len() as u64, failed)
}
