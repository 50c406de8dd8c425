//! `serve_mixed`: an in-process `dds serve` daemon driven at a fixed
//! offered rate.
//!
//! Two client threads each own one keep-alive connection. Connection A
//! carries cache hits on a pre-filled set of `specs/` and `specs/fuzz/`
//! specs plus a `/health` probe every [`HEALTH_EVERY`] requests; connection
//! B carries misses — a spec under a fresh `system` name, so it has a new
//! fingerprint and runs the engine. Each request is sent at its due time,
//! or as soon as the connection's previous response is in if that is later,
//! and is timed from its due time, so a stall is charged to every request
//! queued behind it. After the fixed-rate phase one connection pipelines
//! hits for [`SERVICE_SECS`] (see [`service`]): each spec's median time per
//! hit is its service time, the gated `geomean_ms`. Then both connections
//! send hits back to back for [`SATURATE_SECS`]: the completed rate is the
//! daemon's hit capacity over two keep-alive connections.
//!
//! Where the rates come from: the hit rate is a fifth of the committed hit
//! throughput in `bench/serve_baseline.json`, and the health-probe share is
//! that of `serve_load --soak`. The repository records no miss rate for
//! steady traffic, so [`MISS_RPS`] is an assumption; see its comment.

use crate::corpus::{self, Input};
use crate::layers::TracedRun;
use crate::stats::{geomean, median, percentile};
use crate::trace;
use crate::{repeat_setup, Args, Metric, Report, SETUP_SECS};
use dds_cli::api::VerifyRequest;
use dds_cli::lower::Task;
use dds_cli::runner::RunOptions;
use dds_cli::serve::client::{verify_body, Conn};
use dds_cli::serve::{ServeOptions, Server};
use dds_cli::{render, Lowered};
use dds_gen::FuzzRng;
use std::time::{Duration, Instant};

/// Offered hit rate of the fixed-rate phase (requests per second): about a
/// fifth of the 9945 hits/s that `bench/serve_baseline.json` records for
/// eight closed-loop clients, so the daemon runs well below capacity and a
/// hit's latency is its service time, not queueing.
const HIT_RPS: f64 = 2000.0;
/// Offered miss rate of the fixed-rate phase — an assumption, as the
/// repository records no miss rate for steady traffic. `serve_load --soak`
/// makes 6 engine runs in about 169k requests, which at [`HIT_RPS`] would
/// leave about one miss a run and no miss latency to report; the 73% hit
/// rate in `bench/serve_baseline.json` comes from `serve_load`'s phases
/// (each corpus spec is sent cold once), not from traffic. Five a second
/// gives 50 misses in the 10-second phase of a 30-second run, enough for a
/// p90 with five samples beyond it, while engine runs stay a small share of
/// the two cores that the daemon and clients share.
const MISS_RPS: f64 = 5.0;
/// Every this many requests on connection A is a `/health` probe: the
/// share of health probes in `serve_load --soak` traffic.
const HEALTH_EVERY: usize = 31;
/// A run is invalid when the generator's lateness p99 exceeds this: then
/// the client, not the daemon, may have made the tail. Lateness is how long
/// after it could have gone a request was sent, where it could go at its
/// due time or when the previous response on its connection was in,
/// whichever is later; so it excludes waiting on the daemon and includes
/// every stall of the client thread.
const GENERATOR_LATE_LIMIT_MS: f64 = 2.0;
/// A request slower than this fails.
const REQUEST_LIMIT: Duration = Duration::from_secs(30);
/// Length of the back-to-back phase, run as [`BURSTS`] bursts; the
/// fixed-rate phase gets what [`SERVICE_SECS`] and this leave of
/// `--seconds`.
const SATURATE_SECS: f64 = 5.0;
const BURSTS: u64 = 10;
/// Length of the pipelined service-time phase (see [`service`]).
const SERVICE_SECS: f64 = 15.0;
/// Requests of one spec sent before their answers are read. A hit's answer
/// is under 300 bytes, so a whole batch of answers fits in the client's
/// socket buffer and the daemon never blocks writing while the client is
/// still sending.
const PIPELINE: usize = 32;
/// Hits sent after pre-filling, to warm connections and caches.
const WARMUP_HITS: usize = 200;
/// The sender sleeps until this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(100);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Hit(usize),
    /// A spec of the hit set renamed with this suffix number.
    Miss(usize, u64),
    Health,
}

/// One scheduled request.
struct Planned {
    due: Duration,
    kind: Kind,
}

/// One completed (or failed) request.
#[derive(Debug)]
struct Done {
    kind: Kind,
    latency_ms: f64,
    /// How late the client sent it (see [`GENERATOR_LATE_LIMIT_MS`]), in ms.
    generator_late_ms: f64,
    /// Body of a miss, kept for the check against the library.
    body: Option<String>,
    error: Option<String>,
}

/// The daemon with its hit set filled.
struct Fixture {
    server: Server,
    hits: Vec<Input>,
    /// The `POST /verify` body of each hit.
    hit_requests: Vec<String>,
    /// Response bodies from the pre-fill, which every hit must repeat.
    hit_bodies: Vec<String>,
    /// Indices of `hits` usable as misses: every property a reach or
    /// bounded-halt task, so the traced pipeline can replay them.
    miss_pool: Vec<usize>,
}

fn hit_request(i: &Input) -> String {
    verify_body(&i.text, Some(&i.id), None)
}

/// Loads the corpus, starts the daemon and pre-fills the hit set.
fn setup() -> Result<Fixture, String> {
    let mut hits = corpus::read_dir("specs", &[""])?;
    hits.extend(corpus::read_dir("specs/fuzz", &[""])?);
    let mut miss_pool = Vec::new();
    for (n, i) in hits.iter().enumerate() {
        let loaded = VerifyRequest::new(i.text.as_str())
            .load()
            .map_err(|e| format!("{}: {e}", i.id))?;
        if replayable(&loaded.lowered) {
            miss_pool.push(n);
        }
    }
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeOptions::default()
    })
    .map_err(|e| format!("serve: {e}"))?;
    let mut conn = Conn::connect(&server.addr()).map_err(|e| e.to_string())?;
    let hit_requests: Vec<String> = hits.iter().map(hit_request).collect();
    let mut hit_bodies = Vec::with_capacity(hits.len());
    for (i, body) in hits.iter().zip(&hit_requests) {
        let r = conn
            .request("POST", "/verify", body)
            .map_err(|e| format!("pre-fill {}: {e}", i.id))?;
        if r.status != 200 {
            return Err(format!("pre-fill {}: status {}", i.id, r.status));
        }
        hit_bodies.push(r.body);
        if r.closed {
            conn = Conn::connect(&server.addr()).map_err(|e| e.to_string())?;
        }
    }
    for n in 0..WARMUP_HITS {
        let r = conn
            .request("POST", "/verify", &hit_requests[n % hits.len()])
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.closed {
            conn = Conn::connect(&server.addr()).map_err(|e| e.to_string())?;
        }
    }
    Ok(Fixture {
        server,
        hits,
        hit_requests,
        hit_bodies,
        miss_pool,
    })
}

fn replayable(l: &Lowered) -> bool {
    l.properties
        .iter()
        .all(|p| matches!(p.task, Task::Reach(_) | Task::BoundedHalt { .. }))
}

/// The name a spec declares on its `system` line.
fn system_name(text: &str) -> &str {
    text.lines()
        .find_map(|l| l.strip_prefix("system "))
        .unwrap_or("")
        .trim()
}

/// The spec renamed to `system <name>_m<k>`: same search, new fingerprint.
fn renamed(text: &str, k: u64) -> String {
    let mut seen = false;
    let lines: Vec<String> = text
        .lines()
        .map(|l| {
            if !seen && l.starts_with("system ") {
                seen = true;
                format!("{}_m{k}", l.trim_end())
            } else {
                l.to_owned()
            }
        })
        .collect();
    lines.join("\n") + "\n"
}

/// Hits and health probes for connection A, misses for connection B, over
/// `secs` seconds, drawn from the seeded generator.
fn fixed_plan(fx: &Fixture, rng: &mut FuzzRng, secs: f64) -> (Vec<Planned>, Vec<Planned>) {
    let mut a = Vec::new();
    let n = (HIT_RPS * secs) as usize;
    for k in 0..n {
        let due = Duration::from_secs_f64(k as f64 / HIT_RPS);
        if k % HEALTH_EVERY == HEALTH_EVERY - 1 {
            a.push(Planned {
                due,
                kind: Kind::Health,
            });
        } else {
            a.push(Planned {
                due,
                kind: Kind::Hit(rng.below(fx.hits.len())),
            });
        }
    }
    let mut b = Vec::new();
    let n = (MISS_RPS * secs) as usize;
    for k in 0..n {
        b.push(Planned {
            due: Duration::from_secs_f64((k as f64 + 0.5) / MISS_RPS),
            kind: Kind::Miss(fx.miss_pool[rng.below(fx.miss_pool.len())], k as u64),
        });
    }
    (a, b)
}

/// Waits until `at`: sleeps most of the way, then spins, because a sleep
/// alone overshoots by tens of microseconds.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if now >= at {
        return;
    }
    if at - now > SPIN {
        std::thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Sends `plan` over one keep-alive connection, one request in flight.
fn drive(fx: &Fixture, plan: &[Planned], origin: Instant) -> Vec<Done> {
    let addr = fx.server.addr();
    let mut out = Vec::with_capacity(plan.len());
    let mut conn = Conn::connect(&addr);
    // When the previous response on this connection was in.
    let mut answered = origin;
    for p in plan {
        let miss_body = match p.kind {
            Kind::Miss(spec, k) => {
                let i = &fx.hits[spec];
                verify_body(&renamed(&i.text, k), Some(&i.id), None)
            }
            _ => String::new(),
        };
        let due = origin + p.due;
        wait_until(due);
        let late = due.max(answered).elapsed();
        let result = match &mut conn {
            Ok(c) => match p.kind {
                Kind::Health => c.request("GET", "/health", ""),
                Kind::Hit(h) => c.request("POST", "/verify", &fx.hit_requests[h]),
                Kind::Miss(..) => c.request("POST", "/verify", &miss_body),
            },
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        answered = Instant::now();
        let latency = answered - due;
        let mut done = Done {
            kind: p.kind,
            latency_ms: latency.as_secs_f64() * 1e3,
            generator_late_ms: late.as_secs_f64() * 1e3,
            body: None,
            error: None,
        };
        match result {
            Err(e) => {
                done.error = Some(format!("{:?}: {e}", p.kind));
                conn = Conn::connect(&addr);
            }
            Ok(r) => {
                if r.status != 200 {
                    done.error = Some(format!("{:?}: status {}", p.kind, r.status));
                } else if latency > REQUEST_LIMIT {
                    done.error = Some(format!("{:?}: over the time limit", p.kind));
                }
                match p.kind {
                    Kind::Hit(h) if r.body != fx.hit_bodies[h] => {
                        done.error = Some(format!("hit {h}: body differs from the pre-fill"));
                    }
                    Kind::Health if !r.body.contains("\"ok\"") => {
                        done.error = Some("health: unexpected body".to_owned());
                    }
                    Kind::Miss(..) => done.body = Some(r.body),
                    _ => {}
                }
                if r.closed {
                    conn = Conn::connect(&addr);
                }
            }
        }
        out.push(done);
    }
    out
}

/// Runs both connections' plans concurrently from a common origin.
fn phase(fx: &Fixture, a: &[Planned], b: &[Planned]) -> (Vec<Done>, Vec<Done>) {
    // Give both threads time to connect before the first due time.
    let origin = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let ta = s.spawn(|| drive(fx, a, origin));
        let tb = s.spawn(|| drive(fx, b, origin));
        (
            ta.join().expect("client thread A panicked"),
            tb.join().expect("client thread B panicked"),
        )
    })
}

/// The geometric mean over the hit set of each spec's median hit latency at
/// the fixed rate, printed beside the gated service time. A hit's latency
/// at 2000/s is mostly wake-ups of idle threads, which CPU steal on a shared
/// host stretches from run to run, so it is a note, not a gated metric.
fn spec_median_geomean(done: &[Done], specs: usize) -> f64 {
    let mut by_spec: Vec<Vec<f64>> = vec![Vec::new(); specs];
    for d in done {
        if let Kind::Hit(h) = d.kind {
            by_spec[h].push(d.latency_ms);
        }
    }
    geomean_of_medians(&by_spec)
}

/// The geometric mean over specs of each spec's median sample (specs
/// without samples are left out).
fn geomean_of_medians(by_spec: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = by_spec
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect();
    geomean(&medians)
}

fn latencies(done: &[Done], keep: impl Fn(Kind) -> bool) -> Vec<f64> {
    done.iter()
        .filter(|d| keep(d.kind))
        .map(|d| d.latency_ms)
        .collect()
}

/// Checks pre-fill and miss bodies against the library's answers.
fn check_bodies(fx: &Fixture, misses: &[Done], report: &mut Report) {
    let library: Vec<String> = fx
        .hits
        .iter()
        .map(|i| {
            VerifyRequest::new(i.text.as_str())
                .label(i.id.as_str())
                .verify()
                .map(|r| render::normalize_wall_ns(&render::json(&[r.report])))
                .unwrap_or_else(|e| e.to_string())
        })
        .collect();
    for (n, (got, want)) in fx.hit_bodies.iter().zip(&library).enumerate() {
        if &render::normalize_wall_ns(got) != want {
            report.fail(format!(
                "pre-fill {}: body differs from the library run",
                fx.hits[n].id
            ));
        }
    }
    for d in misses {
        let (Kind::Miss(spec, k), Some(body)) = (d.kind, &d.body) else {
            continue;
        };
        // The rename changes the report ids and nothing else.
        let old = system_name(&fx.hits[spec].text);
        let want = library[spec].replace(
            &format!("\"id\":\"{old}::"),
            &format!("\"id\":\"{old}_m{k}::"),
        );
        if render::normalize_wall_ns(body) != want {
            report.fail(format!(
                "miss {}: body differs from the library run",
                fx.hits[spec].id
            ));
        }
    }
}

fn count_failures(done: &[Done], report: &mut Report) {
    for d in done {
        report.attempted += 1;
        if let Some(e) = &d.error {
            report.fail(e.clone());
        }
    }
}

/// The fixed-rate phase with its checks; returns the generator lateness
/// p99 (ms) and the completed requests of both connections.
fn fixed_phase(
    fx: &Fixture,
    rng: &mut FuzzRng,
    secs: f64,
    report: &mut Report,
) -> (f64, Vec<Done>, Vec<Done>) {
    let (plan_a, plan_b) = fixed_plan(fx, rng, secs);
    let (a, b) = phase(fx, &plan_a, &plan_b);
    count_failures(&a, report);
    count_failures(&b, report);
    check_bodies(fx, &b, report);
    let late: Vec<f64> = a.iter().chain(&b).map(|d| d.generator_late_ms).collect();
    let late_p99 = percentile(&late, 99.0).value;
    if late_p99 > GENERATOR_LATE_LIMIT_MS {
        report.fail(format!(
            "invalid run: the generator sent {late_p99:.3} ms late at p99, over the \
             {GENERATOR_LATE_LIMIT_MS} ms limit"
        ));
    }
    (late_p99, a, b)
}

/// The best completed-hit rate of [`BURSTS`] back-to-back bursts over
/// `secs` in all (see [`burst`]).
fn saturate(fx: &Fixture, seed: u64, secs: f64, report: &mut Report) -> f64 {
    (0..BURSTS)
        .map(|n| burst(fx, seed.wrapping_add(n), secs / BURSTS as f64, report))
        .fold(0.0, f64::max)
}

/// Sends seeded hits back to back on both connections for `secs` and
/// returns the completed requests per second.
fn burst(fx: &Fixture, seed: u64, secs: f64, report: &mut Report) -> f64 {
    let addr = fx.server.addr();
    let one = |stream: u64| {
        let mut rng = FuzzRng::for_case(seed, 0x5a7, stream);
        let (mut done, mut errors) = (0u64, Vec::new());
        let mut conn = Conn::connect(&addr);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let h = rng.below(fx.hits.len());
            let r = match &mut conn {
                Ok(c) => c.request("POST", "/verify", &fx.hit_requests[h]),
                Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            };
            done += 1;
            match r {
                Ok(r) if r.status == 200 && r.body == fx.hit_bodies[h] => {
                    if r.closed {
                        conn = Conn::connect(&addr);
                    }
                }
                Ok(r) => errors.push(format!("saturate hit {h}: status {}", r.status)),
                Err(e) => {
                    errors.push(format!("saturate hit {h}: {e}"));
                    conn = Conn::connect(&addr);
                }
            }
        }
        (done, errors, start.elapsed().as_secs_f64())
    };
    let (a, b) = std::thread::scope(|s| {
        let ta = s.spawn(|| one(1));
        let tb = s.spawn(|| one(2));
        (
            ta.join().expect("client thread A panicked"),
            tb.join().expect("client thread B panicked"),
        )
    });
    report.attempted += a.0 + b.0;
    for e in a.1.into_iter().chain(b.1) {
        report.fail(e);
    }
    (a.0 + b.0) as f64 / a.2.max(b.2)
}

/// A pipelined connection with the count of requests the daemon has taken
/// on it, so it is replaced before the per-connection cap closes it
/// mid-batch.
struct Pipe {
    conn: Conn,
    sent: usize,
}

impl Pipe {
    /// Connects and waits for one `/health` answer, so the daemon has
    /// accepted the connection before anything on it is timed.
    fn open(fx: &Fixture) -> std::io::Result<Pipe> {
        let mut conn = Conn::connect(&fx.server.addr())?;
        conn.request("GET", "/health", "")?;
        Ok(Pipe { conn, sent: 1 })
    }
}

/// Per-hit service time, per spec of the hit set: rounds over the hit set
/// in a seeded order, each spec sent [`PIPELINE`] times back to back on one
/// connection before its answers are read, timed from the first send to the
/// last answer and divided by [`PIPELINE`]. Returns each spec's samples in
/// ms. Pipelined, the daemon reads the next request from its buffer
/// instead of sleeping on the socket, so the time is the work a hit takes
/// (parse, fingerprint, lower, cache lookup, the wire) rather than the
/// wake-ups an idle 2-core host adds to a lone request, which made the
/// fixed-rate latency too unsteady to gate.
fn service(fx: &Fixture, rng: &mut FuzzRng, secs: f64, report: &mut Report) -> Vec<Vec<f64>> {
    let cap = ServeOptions::default().max_conn_requests;
    let mut samples = vec![Vec::new(); fx.hits.len()];
    let mut pipe: Option<Pipe> = None;
    let start = Instant::now();
    let mut order: Vec<usize> = (0..fx.hits.len()).collect();
    while start.elapsed().as_secs_f64() < secs {
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k + 1));
        }
        for &h in &order {
            if pipe.as_ref().is_none_or(|p| p.sent + PIPELINE >= cap) {
                match Pipe::open(fx) {
                    Ok(p) => pipe = Some(p),
                    Err(e) => {
                        report.attempted += 1;
                        report.fail(format!("service: connect: {e}"));
                        return samples;
                    }
                }
            }
            let p = pipe.as_mut().expect("opened above");
            report.attempted += PIPELINE as u64;
            p.sent += PIPELINE;
            let t = Instant::now();
            let batch = (|| {
                for _ in 0..PIPELINE {
                    p.conn.send("POST", "/verify", &fx.hit_requests[h])?;
                }
                (0..PIPELINE)
                    .map(|_| p.conn.recv())
                    .collect::<std::io::Result<Vec<_>>>()
            })();
            let per_hit_ms = t.elapsed().as_secs_f64() * 1e3 / PIPELINE as f64;
            match batch {
                Err(e) => {
                    report.fail(format!("service hit {h}: {e}"));
                    pipe = None;
                }
                Ok(rs) => {
                    let bad = rs
                        .iter()
                        .filter(|r| r.status != 200 || r.body != fx.hit_bodies[h] || r.closed)
                        .count();
                    for _ in 0..bad {
                        report.fail(format!("service hit {h}: status, body or close differs"));
                    }
                    samples[h].push(per_hit_ms);
                }
            }
        }
    }
    samples
}

/// Length of the fixed-rate phase: what the later phases leave of
/// `--seconds`, and at least a second.
fn fixed_secs(args: &Args) -> f64 {
    (args.seconds.as_secs_f64() - SERVICE_SECS - SATURATE_SECS).max(1.0)
}

/// Runs `serve_mixed`.
pub fn run(args: &Args) -> Result<Report, String> {
    let (fx, setup_s) = repeat_setup(SETUP_SECS, setup, |old: Fixture| {
        old.server.shutdown();
    })?;
    let mut rng = FuzzRng::new(args.seed);
    let mut report = Report::default();
    if args.trace {
        traced(args, &fx, &mut rng, &mut report)?;
        fx.server.shutdown();
        return Ok(report);
    }

    let (late_p99, a, b) = fixed_phase(&fx, &mut rng, fixed_secs(args), &mut report);
    let service_ms = service(&fx, &mut rng, SERVICE_SECS, &mut report);
    let capacity = saturate(&fx, args.seed, SATURATE_SECS, &mut report);
    fx.server.shutdown();
    let hits = latencies(&a, |k| matches!(k, Kind::Hit(_)));
    let misses = latencies(&b, |_| true);
    let (hit_p99, miss_p90) = (percentile(&hits, 99.0), percentile(&misses, 90.0));
    report.notes.extend([
        Metric::new("hit_p50_ms", percentile(&hits, 50.0).value, "ms"),
        Metric::new("hit_p99_ms", hit_p99.value, "ms"),
        Metric::new("hit_p99_samples_beyond", hit_p99.beyond as f64, "count"),
        Metric::new("hit_geomean_ms", geomean(&hits), "ms"),
        Metric::new("miss_p50_ms", percentile(&misses, 50.0).value, "ms"),
        Metric::new("miss_p90_ms", miss_p90.value, "ms"),
        Metric::new("miss_p90_samples_beyond", miss_p90.beyond as f64, "count"),
        Metric::new(
            "hit_spec_median_geomean_ms",
            spec_median_geomean(&a, fx.hits.len()),
            "ms",
        ),
        Metric::new("generator_late_p99_ms", late_p99, "ms"),
    ]);
    report.metrics.extend([
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_rps", capacity, "1/s"),
        Metric::new("geomean_ms", geomean_of_medians(&service_ms), "ms"),
    ]);
    Ok(report)
}

/// The traced run: the fixed-rate phase for the daemon's counters, then
/// the library calls a hit and a miss make, traced layer by layer.
fn traced(args: &Args, fx: &Fixture, rng: &mut FuzzRng, report: &mut Report) -> Result<(), String> {
    let (late_p99, _, _) = fixed_phase(fx, rng, fixed_secs(args), report);
    let serve_stats = fx.server.stats();
    let mut run = TracedRun::default();
    let opts = RunOptions::default();
    let mut request = 0;
    // A hit parses, fingerprints and lowers before the cache answers.
    for i in &fx.hits {
        request += 1;
        let t0 = Instant::now();
        let want = VerifyRequest::new(i.text.as_str())
            .load()
            .map(|l| l.fingerprint);
        run.untraced_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let got = trace::load(&mut run.tracer, request, &i.id, &i.text, &opts);
        run.traced_s += t1.elapsed().as_secs_f64();
        if got.ok() != want.ok() {
            report.fail(format!("{}: traced fingerprint differs", i.id));
        }
    }
    // A miss runs the whole pipeline.
    for &n in &fx.miss_pool {
        request += 1;
        let i = &fx.hits[n];
        let t0 = Instant::now();
        let want = VerifyRequest::new(i.text.as_str())
            .label(i.id.as_str())
            .verify();
        if let Ok(w) = &want {
            std::hint::black_box(render::json(std::slice::from_ref(&w.report)));
        }
        run.untraced_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let got = trace::verify(
            &mut run.tracer,
            request,
            &i.id,
            &i.text,
            &opts,
            &run.counters,
        );
        run.traced_s += t1.elapsed().as_secs_f64();
        report.attempted += 1;
        match (got, want) {
            (Ok(got), Ok(want)) => {
                if !got.matches(&want.report) {
                    report.fail(format!("{}: traced report differs", i.id));
                }
                for s in got.properties.iter().filter_map(|p| p.stats.as_ref()) {
                    run.engine.merge(s);
                }
                run.threads = run.threads.max(got.threads);
            }
            (Err(e), _) => report.fail(e),
            (_, Err(e)) => report.fail(e.to_string()),
        }
    }
    let mut layers = run.finish(args, 1, report)?;
    layers.serve = Some(serve_stats);
    layers.generator_late_p99_ms = late_p99;
    report.metrics = layers.metrics();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_touches_only_the_system_line() {
        let text = "# the system demo\nsystem demo\nclass free\n";
        assert_eq!(system_name(text), "demo");
        let out = renamed(text, 7);
        assert_eq!(out, "# the system demo\nsystem demo_m7\nclass free\n");
        assert_eq!(system_name(&out), "demo_m7");
    }
}
