//! `serve-mixed`: a closed loop of two keep-alive clients against a
//! fresh in-process `recon_serve::Server` per repeat.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use recon_asm::corpus::CORPUS;
use recon_isa::rng::{Rng, SplitMix64};
use recon_serve::client::Connection;
use recon_serve::json::escape;
use recon_serve::{execute, parse, JobKind, JobSpec, Json, ServeConfig, Server};
use recon_sim::{parallel_map, System};
use recon_workloads::{find, Scale, Suite};

use crate::layers::Layers;
use crate::report::{fx, mean, Outcome, Samples};
use crate::trace::{nanos, Call, Lane, SelfTimes};
use crate::workloads::{finish_e2e, schemes, secs, shuffle, slug, Plan};

const NAME: &str = "serve-mixed";
const CLIENTS: usize = 2;
/// The server's worker threads.
const WORKERS: usize = 2;
const RUN_BENCHES: [&str; 6] = ["mcf", "xalancbmk", "lbm", "omnetpp", "leela", "perlbench"];
/// A session's composition: `run` jobs, `asm` jobs and exact repeats.
/// 400 requests leave 20 latency samples beyond the p95.
const RUNS: usize = 200;
const ASMS: usize = 120;
const REPEATS: usize = 80;
/// Requests per session in `--smoke`.
const SMOKE_REQUESTS: usize = 24;
/// Parts a session is played in (see `session`).
const SEGMENTS: usize = 4;
/// Attempts per request before a run of `429`s counts as a failure.
const MAX_429: u32 = 200;

/// What one request of the mix asks for.
#[derive(Clone, Copy)]
enum Slot {
    Run(&'static str, usize),
    Asm(usize, usize),
    Repeat,
}

/// The request bodies of one session. The composition is fixed, so
/// every seed asks for the same work: the `run` jobs cycle through
/// every pairing of `RUN_BENCHES` (SPEC2017 stand-ins) and scheme, each
/// with a seeded fast-forward of 1k-30k instructions; the `asm` jobs
/// cycle through the corpus programs, each under successive schemes
/// and made unique by a trailing comment; the repeats are exact copies
/// of an earlier body, which become cache hits or single-flight joins.
/// The seed shuffles the order and draws the fast-forward lengths and
/// which bodies repeat.
fn request_mix(seed: u64, smoke: bool) -> Vec<Arc<str>> {
    let mut rng = SplitMix64::new(seed);
    let mut slots = Vec::with_capacity(RUNS + ASMS + REPEATS);
    slots.extend((0..RUNS).map(|i| Slot::Run(RUN_BENCHES[i % RUN_BENCHES.len()], i % 5)));
    slots.extend((0..ASMS).map(|i| {
        let program = i % CORPUS.len();
        Slot::Asm(program, (program + i / CORPUS.len()) % 5)
    }));
    slots.extend(std::iter::repeat_n(Slot::Repeat, REPEATS));
    shuffle(&mut slots, &mut rng);
    if smoke {
        slots.truncate(SMOKE_REQUESTS);
    }
    // A repeat needs an earlier body to repeat.
    if let Some(first) = slots.iter().position(|s| !matches!(s, Slot::Repeat)) {
        slots.swap(0, first);
    }
    let mut bodies: Vec<Arc<str>> = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let body: Arc<str> = match slot {
            Slot::Repeat => Arc::clone(&bodies[rng.below_usize(i)]),
            Slot::Asm(program, s) => {
                let source = format!("{}\n; request {seed}/{i}\n", CORPUS[program].source);
                format!(
                    r#"{{"kind":"asm","scheme":"{}","source":"{}"}}"#,
                    slug(schemes()[s]),
                    escape(&source)
                )
                .into()
            }
            Slot::Run(bench, s) => {
                let ff = 1_000 + rng.below(29_001);
                format!(
                    r#"{{"kind":"run","suite":"spec2017","bench":"{bench}","scheme":"{}","fast_forward":{ff}}}"#,
                    slug(schemes()[s])
                )
                .into()
            }
        };
        bodies.push(body);
    }
    bodies
}

/// One answered request.
struct Answer {
    index: usize,
    status: u16,
    hit: bool,
    retries: u64,
    start: Instant,
    end: Instant,
    body: String,
}

/// One played session.
struct Session {
    /// The answers, in request order.
    answers: Vec<Answer>,
    /// Seconds from the first request to the last answer.
    wall_s: f64,
    /// Seconds the server's start took.
    started_s: f64,
    /// Execution seconds the server itself measured over the session
    /// (`recon_sim_exec_seconds_total`).
    server_exec_s: f64,
}

/// Starts a server, plays the session, shuts the server down.
///
/// The session runs in `SEGMENTS` equal parts on the same server and
/// connections. Between parts, with no request in flight, the host
/// slowdown is read: a session lasts seconds, over which the host's
/// speed changes, and readings spread through it scale it better than
/// readings at its ends.
fn session(bodies: &[Arc<str>], sm: &mut Samples) -> Session {
    let (server, started_s) = start_server();
    let addr = server.addr();
    let mut conns: Vec<Connection> = (0..CLIENTS).map(|_| Connection::new(addr)).collect();
    let mut answers = Vec::with_capacity(bodies.len());
    let mut wall_s = 0.0;
    let part = bodies.len().div_ceil(SEGMENTS);
    sm.read_slowdown(CLIENTS);
    for (seg, chunk) in bodies.chunks(part).enumerate() {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| scope.spawn(move || client(conn, chunk, seg * part, c)))
                .collect();
            for h in handles {
                answers.extend(h.join().expect("client thread"));
            }
        });
        wall_s += secs(t0, Instant::now());
        sm.read_slowdown(CLIENTS);
    }
    // Close the keep-alive connections first: the server's drain waits
    // for open ones.
    drop(conns);
    let server_exec_s = server_exec_seconds(addr);
    stop(server);
    answers.sort_by_key(|a| a.index);
    Session {
        answers,
        wall_s,
        started_s,
        server_exec_s,
    }
}

/// Client `c`'s share of a part of the session that starts at request
/// `first`: every `CLIENTS`-th body, each sent once its previous answer
/// is in (a 429 is retried).
fn client(conn: &mut Connection, bodies: &[Arc<str>], first: usize, c: usize) -> Vec<Answer> {
    let mut out = Vec::new();
    for (i, body) in bodies.iter().enumerate().skip(c).step_by(CLIENTS) {
        let index = first + i;
        let start = Instant::now();
        let mut retries = 0;
        let resp = loop {
            match conn.request("POST", "/jobs", Some(body)) {
                Ok(r) if r.status == 429 && retries < u64::from(MAX_429) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(r) => break Some(r),
                Err(_) => break None,
            }
        };
        let end = Instant::now();
        out.push(Answer {
            index,
            status: resp.as_ref().map_or(0, |r| r.status),
            hit: resp.as_ref().and_then(|r| r.header("x-recon-cache")) == Some("hit"),
            retries,
            start,
            end,
            body: resp.map(|r| r.body).unwrap_or_default(),
        });
    }
    out
}

/// A fresh server (2 workers, queue of 16, in-memory cache, no chaos)
/// and the seconds its start took.
fn start_server() -> (Server, f64) {
    let s0 = Instant::now();
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_cap: 16,
        ..ServeConfig::default()
    })
    .expect("loopback server starts");
    (server, secs(s0, Instant::now()))
}

/// Drains the server and joins all its threads.
fn stop(server: Server) {
    let _ = recon_serve::client::request(server.addr(), "POST", "/shutdown", None);
    server.wait();
}

/// The server's `recon_sim_exec_seconds_total` (0 if unreadable).
fn server_exec_seconds(addr: SocketAddr) -> f64 {
    recon_serve::client::request(addr, "GET", "/metrics", None)
        .ok()
        .and_then(|r| {
            r.body
                .lines()
                .find(|l| l.starts_with("recon_sim_exec_seconds_total"))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Digest of every status and payload, in request order.
fn payload_digest(answers: &[Answer]) -> u64 {
    let mut bytes = Vec::new();
    for a in answers {
        bytes.extend_from_slice(&a.status.to_le_bytes());
        bytes.extend_from_slice(a.body.as_bytes());
    }
    fx(&bytes)
}

/// Index of the first occurrence of each distinct body.
fn first_of(bodies: &[Arc<str>]) -> BTreeMap<&str, usize> {
    let mut m = BTreeMap::new();
    for (i, b) in bodies.iter().enumerate() {
        m.entry(&**b).or_insert(i);
    }
    m
}

fn spec_of(body: &str) -> JobSpec {
    JobSpec::from_json(&parse(body).expect("mix bodies are JSON")).expect("mix specs validate")
}

/// Direct in-process executions of every distinct body, on the
/// server's worker count: `(payload, seconds)` per body.
fn direct(firsts: &BTreeMap<&str, usize>) -> BTreeMap<String, (Result<String, String>, f64)> {
    let bodies: Vec<&str> = firsts.keys().copied().collect();
    let ran = parallel_map(WORKERS, bodies, |b| {
        let spec = spec_of(b);
        let t0 = Instant::now();
        let out = execute(&spec, None)
            .map(|o| o.payload)
            .map_err(|e| format!("{e:?}"));
        (b.to_string(), (out, secs(t0, Instant::now())))
    });
    ran.into_iter().collect()
}

/// Detailed instructions a payload reports.
fn committed(payload: &str) -> u64 {
    parse(payload)
        .ok()
        .and_then(|v| v.get("committed").and_then(Json::as_u64))
        .unwrap_or(0)
}

pub fn serve_mixed(plan: &Plan) -> Outcome {
    let mut o = Outcome::default();
    let mut layers = Layers::default();
    let mut sm = Samples::default();
    let check_direct = plan.direct_check(NAME);
    let bodies = request_mix(plan.seed, plan.smoke);
    let firsts = first_of(&bodies);

    // Untimed: direct executions are the reference payloads on seeds the
    // goldens do not pin (and warm the server's workload memo either
    // way, as a fuel-capped run of each benchmark does otherwise).
    let reference = if check_direct {
        direct(&firsts)
    } else {
        for bench in RUN_BENCHES {
            let body = format!(
                r#"{{"kind":"run","suite":"spec2017","bench":"{bench}","scheme":"stt","fuel":1}}"#
            );
            let _ = execute(&spec_of(&body), None);
        }
        BTreeMap::new()
    };

    let mut digest: Option<u64> = None;
    let (mut hits, mut answered) = (0u64, 0u64);
    let gen = |layers: &mut Layers| {
        let g0 = Instant::now();
        let mix = request_mix(plan.seed, plan.smoke);
        let gen_s = secs(g0, Instant::now());
        layers.gen_ms.push(gen_s * 1e3);
        (mix, gen_s)
    };
    for _ in 0..plan.setup_samples() {
        let (_, gen_s) = gen(&mut layers);
        let (server, started_s) = start_server();
        sm.setup(gen_s + started_s);
        stop(server);
    }
    let start = Instant::now();
    let mut repeats = 0;
    while plan.more(repeats, start) {
        let (mix, gen_s) = gen(&mut layers);
        let s = session(&mix, &mut sm);
        sm.setup(gen_s + s.started_s);
        let mut instructions = 0;
        let mut rep = Vec::with_capacity(mix.len());
        for a in &s.answers {
            rep.push(nanos(a.start, a.end) / 1e6);
            layers.retries_429 += a.retries;
            hits += u64::from(a.hit);
            answered += 1;
            if firsts.get(&*bodies[a.index]) == Some(&a.index) {
                instructions += committed(&a.body);
            }
            let matches = match reference.get(&*bodies[a.index]) {
                Some((Ok(p), _)) => *p == a.body,
                Some((Err(_), _)) => false,
                None => true,
            };
            o.op(match (a.status, matches) {
                (200, true) => None,
                (200, false) => Some(format!("{NAME} req {}: differs from direct", a.index)),
                (s, _) => Some(format!("{NAME} req {}: status {s}", a.index)),
            });
        }
        let d = payload_digest(&s.answers);
        if digest.is_some_and(|first| first != d) {
            o.fail(format!(
                "{NAME}: repeat {repeats} payloads differ from repeat 0"
            ));
        }
        digest.get_or_insert(d);
        sm.repeat(instructions, s.wall_s, rep);
        repeats += 1;
    }
    o.digests
        .push(("payloads".to_string(), digest.unwrap_or(0)));

    finish_e2e(&mut o, &sm, &mut layers);

    if plan.trace {
        layers.cache_hit_ratio = hits as f64 / answered.max(1) as f64;
        trace_session(plan, &mut o, &mut layers, &bodies, &firsts, &sm);
    }
    o
}

/// The traced session: one span per request, then each request's
/// admission, fast-forward, assembly and simulation time attached to it
/// as calls.
///
/// The server does not report per-request execution times, only their
/// total over the session. So every distinct body is executed directly
/// after the session (on as many threads as the server has workers),
/// split into fast-forward (timed on a fresh `System`), assembly and
/// the rest; those times are then scaled so that they sum to the
/// server's own in-session total. Each is attached to the earliest
/// request of its body that missed the cache. The split between bodies
/// is an estimate; the total is the server's measurement, so the
/// layers' self times add up to the traced requests' time.
fn trace_session(
    plan: &Plan,
    o: &mut Outcome,
    layers: &mut Layers,
    bodies: &[Arc<str>],
    firsts: &BTreeMap<&str, usize>,
    untraced: &Samples,
) {
    let epoch = Instant::now();
    let mut traced = Samples::default();
    let s = session(bodies, &mut traced);
    let slowdown = mean(&traced.slowdowns);
    layers.overhead_frac = s.wall_s / slowdown / untraced.median_wall_s() - 1.0;
    let mut lanes = [Lane::new(epoch, 1), Lane::new(epoch, 2)];
    for a in &s.answers {
        o.op((a.status != 200)
            .then(|| format!("{NAME} traced req {}: status {}", a.index, a.status)));
    }

    let timed = direct(firsts);
    let direct_total: f64 = timed.values().map(|r| r.1).sum();
    let scale = if direct_total > 0.0 {
        s.server_exec_s / direct_total
    } else {
        0.0
    };
    let mut benches = BTreeMap::new();
    let mut est: BTreeMap<&str, (f64, Vec<Call>)> = BTreeMap::new();
    for &body in firsts.keys() {
        let t0 = Instant::now();
        let spec = JobSpec::from_json(&parse(body).expect("json")).expect("valid");
        let parse_ns = nanos(t0, Instant::now());
        layers.parse_us.push(parse_ns / 1e3);
        let exec_ns = timed.get(body).map_or(0.0, |r| r.1 * 1e9);
        let (mut ff_ns, mut asm_ns) = (0.0, 0.0);
        match spec.kind {
            JobKind::Run => {
                let name = spec.bench.as_deref().expect("run specs name a bench");
                let bench = benches
                    .entry(name.to_string())
                    .or_insert_with(|| find(Suite::Spec2017, name, Scale::Quick).expect("bench"));
                let exp = recon_serve::job::experiment_for(Suite::Spec2017);
                let scheme = spec.scheme.expect("run specs name a scheme");
                let mut sys = System::new(&bench.workload, exp.core, exp.mem, scheme, exp.recon);
                let f0 = Instant::now();
                let steps = sys.fast_forward(spec.fast_forward.unwrap_or(0));
                ff_ns = nanos(f0, Instant::now());
                layers.ff_instructions += steps;
                layers.ff_ns += ff_ns;
            }
            JobKind::Asm => {
                let a0 = Instant::now();
                let p = recon_asm::assemble(spec.source.as_deref().expect("asm source"));
                asm_ns = nanos(a0, Instant::now());
                std::hint::black_box(p.is_ok());
                layers.assemble_ms.push(asm_ns / 1e6);
            }
            _ => {}
        }
        layers.exec_ns += exec_ns;
        layers.exec_ms.push(exec_ns * scale / 1e6);
        let calls = vec![
            call("isa.ff", ff_ns * scale),
            call("asm.assemble", asm_ns * scale),
            call("sim.run", (exec_ns - ff_ns - asm_ns).max(0.0) * scale),
        ];
        est.insert(body, (parse_ns, calls));
    }

    // The executing request of each body: its earliest-sent miss.
    let mut executor: BTreeMap<&str, usize> = BTreeMap::new();
    for a in s.answers.iter().filter(|a| !a.hit) {
        let body = &*bodies[a.index];
        let earlier = executor
            .get(body)
            .is_some_and(|&i| s.answers[i].start <= a.start);
        if !earlier {
            executor.insert(body, a.index);
        }
    }
    let (mut miss_ns, mut misses) = (0.0, 0u64);
    for a in &s.answers {
        let body = &*bodies[a.index];
        let latency_ns = nanos(a.start, a.end);
        let mut calls = Vec::new();
        if let Some((parse_ns, exec)) = est.get(body) {
            calls.push(call("serve.parse", *parse_ns));
            if executor.get(body) == Some(&a.index) {
                calls.extend(exec.iter().cloned());
            }
        }
        if a.hit {
            layers.hit_ms.push(latency_ns / 1e6);
        } else {
            miss_ns += latency_ns;
            misses += 1;
        }
        let lane = &mut lanes[a.index % CLIENTS];
        let id = lane.id();
        let rid = format!("req-{}", a.index);
        lane.record(id, None, "serve.request", &rid, a.start, a.end, calls);
    }
    layers.overhead_ms = (miss_ns / 1e6 - s.server_exec_s * 1e3) / misses.max(1) as f64;
    let spans: Vec<_> = lanes.iter().flat_map(|l| l.spans.clone()).collect();
    let st = SelfTimes::of(&spans, &["serve.request"]);
    o.layers = layers.metrics(&st);
    match crate::trace::write_trace(NAME, plan.seed, &lanes) {
        Ok(path) => eprintln!("trace written to {path}"),
        Err(e) => eprintln!("warning: trace not written: {e}"),
    }
}

fn call(name: &'static str, ns: f64) -> Call {
    Call {
        name,
        within: None,
        count: 1,
        ns,
    }
}
