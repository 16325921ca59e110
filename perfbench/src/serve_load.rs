//! The two plan-service workloads: a loopback `PlanServer` driven through
//! `PlanClient`, as a service user sees it.

use std::collections::HashMap;
use std::time::Instant;

use qsdnn::engine::{Assignment, CostLut, PlatformRegistry, Profiler};
use qsdnn::nn::zoo;
use qsdnn_serve::protocol::{
    encode_body, MetricValue, MetricsResponse, PlanRequest, PlanResponse, Response, StatsResponse,
};
use qsdnn_serve::{PlanClient, PlanServer, ServeError, ServerConfig};
use serde::Value;

use crate::report::{object, record_core, Report, STAGES};
use crate::scenarios::{cold_draw, hot_working_set, Zipf};
use crate::stats::{delta_quantile, geomean, histogram_delta, mean, median, quantile};
use crate::trace::Tracer;
use crate::Args;

/// Server starts per `cold-plans` run; `setup_s` is their median.
const COLD_SETUPS: usize = 101;
/// Server starts plus cache fills per `hot-plans` run.
const HOT_SETUPS: usize = 5;
/// Requests each `hot-plans` connection keeps in flight.
const HOT_WINDOW: usize = 4;

/// The shipping server configuration on the benchmark host's two threads.
fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

fn serve_err(context: &str) -> impl Fn(ServeError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// A running server and the benchmark's connections to it.
struct Fixture {
    server: PlanServer,
    v3: PlanClient,
    v2: Option<PlanClient>,
}

impl Fixture {
    /// Closes the connections, then stops the server and joins its
    /// threads.
    fn stop(self) {
        drop((self.v3, self.v2));
        self.server.shutdown();
    }
}

fn start(with_v2: bool) -> Result<Fixture, String> {
    let server = PlanServer::start(server_config()).map_err(serve_err("server start"))?;
    let v3 = PlanClient::connect_with_version(server.local_addr(), 3)
        .map_err(serve_err("v3 connect"))?;
    let v2 = if with_v2 {
        Some(
            PlanClient::connect_with_version(server.local_addr(), 2)
                .map_err(serve_err("v2 connect"))?,
        )
    } else {
        None
    };
    Ok(Fixture { server, v3, v2 })
}

/// Server counters and histograms at the edges of the timed phase.
struct Snapshot {
    stats: StatsResponse,
    metrics: MetricsResponse,
}

fn snapshot(client: &mut PlanClient) -> Result<Snapshot, String> {
    Ok(Snapshot {
        stats: client.stats().map_err(serve_err("stats"))?,
        metrics: client.metrics().map_err(serve_err("metrics"))?,
    })
}

/// Records a traced reply: the client round trip, with the server's
/// echoed stage timings as its children (laid out back to back from the
/// request's start; their durations are the server's own).
fn record_request(
    tracer: &mut Tracer,
    t0: Instant,
    t1: Instant,
    request: u64,
    reply: &PlanResponse,
) {
    let Some(id) = tracer.record("serve.request", t0, t1, None, request) else {
        return;
    };
    let mut cursor = tracer.span(id).start_us;
    for stage in reply.trace.iter().flat_map(|t| &t.stages) {
        let name = format!("serve.stage.{}", stage.stage);
        tracer.record_duration(&name, cursor, stage.ms, Some(id), request);
        cursor += stage.ms * 1e3;
    }
}

/// Server-side stage quantiles over the timed phase, re-quantiled from
/// the histogram deltas between the two snapshots. The `metrics` request
/// that took the first snapshot finishes inside the phase, so it adds one
/// sample to the stages it touched.
fn stage_metrics(report: &mut Report, before: &MetricsResponse, after: &MetricsResponse) {
    let histogram = |m: &MetricsResponse, stage: &str| {
        m.family("qsdnn_request_stage_us")?
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(k, v)| k == "stage" && v == stage))
            .and_then(|s| match &s.value {
                MetricValue::Histogram(h) => Some(h.clone()),
                _ => None,
            })
    };
    for stage in STAGES {
        if let (Some(b), Some(a)) = (histogram(before, stage), histogram(after, stage)) {
            let delta = histogram_delta(&b, &a);
            for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
                let us = delta_quantile(&delta, q);
                report.set(format!("serve.stage.{stage}.{label}_ms"), us as f64 / 1e3);
            }
        }
    }
}

fn cache_metrics(report: &mut Report, before: &StatsResponse, after: &StatsResponse) {
    let (b, a) = (&before.plan_cache, &after.plan_cache);
    let hits = a.hits.saturating_sub(b.hits) as f64;
    let misses = a.misses.saturating_sub(b.misses) as f64;
    if hits + misses > 0.0 {
        report.set("serve.cache.hit_ratio", hits / (hits + misses));
    }
    report.set(
        "serve.cache.coalesced",
        a.coalesced.saturating_sub(b.coalesced) as f64,
    );
    report.set(
        "serve.cache.evictions",
        a.evictions.saturating_sub(b.evictions) as f64,
    );
}

/// Transfer figures over a set of replies, with the server's search
/// stage split by whether the search was warm-started.
fn transfer_metrics<'a>(report: &mut Report, replies: impl Iterator<Item = &'a PlanResponse>) {
    let (mut n, mut distances, mut cold, mut warm) = (0usize, Vec::new(), Vec::new(), Vec::new());
    for reply in replies {
        n += 1;
        if let Some(w) = &reply.warm_start {
            distances.push(w.donor_distance);
        }
        let search = reply
            .trace
            .iter()
            .flat_map(|t| &t.stages)
            .find(|s| s.stage == "search");
        if let Some(s) = search {
            if reply.warm_start.is_some() {
                warm.push(s.ms);
            } else {
                cold.push(s.ms);
            }
        }
    }
    if n > 0 {
        report.set(
            "serve.transfer.warm_share",
            distances.len() as f64 / n as f64,
        );
    }
    report.set("serve.transfer.mean_donor_distance", mean(&distances));
    report.set("serve.cold_search_p50_ms", median(&cold));
    report.set("serve.warm_search_p50_ms", median(&warm));
}

/// Client round trip minus the server's span total, for a traced reply.
fn gap(round_trip_ms: f64, reply: &PlanResponse) -> Option<f64> {
    reply.trace.as_ref().map(|t| round_trip_ms - t.total_ms)
}

fn v3_bytes(reply: &PlanResponse) -> usize {
    encode_body(&Response::Plan(reply.clone())).map_or(0, |b| b.len())
}

fn v2_bytes(reply: &PlanResponse) -> usize {
    serde_json::to_string(&Response::Plan(reply.clone())).map_or(0, |s| s.len())
}

/// `cold-plans`: one v3 connection, closed loop, every request a distinct
/// scenario, so every request misses the plan cache.
pub fn cold_plans(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(COLD_SETUPS);
    let mut fixture: Option<Fixture> = None;
    for _ in 0..COLD_SETUPS {
        if let Some(f) = fixture.take() {
            f.stop();
        }
        let t0 = Instant::now();
        fixture = Some(start(false)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Fixture { server, mut v3, .. } = fixture.expect("at least one setup");
    report.set("setup_s", median(&setups));

    let before = snapshot(&mut v3)?;
    let draw = cold_draw(args.seed);
    let drawn = draw.len();
    let mut served: Vec<(PlanRequest, f64, PlanResponse)> = Vec::new();
    let start = Instant::now();
    let deadline = start + args.seconds;
    for (i, mut req) in draw.into_iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        req.trace = tracer.enabled();
        report.attempted += 1;
        let t0 = Instant::now();
        let result = v3.plan(req.clone());
        let t1 = Instant::now();
        match result {
            Ok(reply) => {
                record_request(tracer, t0, t1, i as u64, &reply);
                served.push((req, (t1 - t0).as_secs_f64() * 1e3, reply));
            }
            Err(e) => report.fail(format!("{} b{}: {e}", req.network, req.batch), false),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let after = snapshot(&mut v3)?;
    drop(v3);
    server.shutdown();

    check_cold(&mut report, &served);
    let latencies: Vec<f64> = served.iter().map(|(_, ms, _)| *ms).collect();
    let speedups: Vec<f64> = served.iter().map(|(_, _, r)| r.speedup()).collect();
    report.set("latency_p50_ms", median(&latencies));
    report.set("latency_p90_ms", quantile(&latencies, 0.9));
    report.set("throughput_rps", served.len() as f64 / elapsed);
    report.set("plan_speedup_geomean", geomean(&speedups));
    report.set("solve_s", median(&latencies) / 1e3);

    stage_metrics(&mut report, &before.metrics, &after.metrics);
    cache_metrics(&mut report, &before.stats, &after.stats);
    transfer_metrics(&mut report, served.iter().map(|(_, _, r)| r));
    let gaps: Vec<f64> = served.iter().filter_map(|(_, ms, r)| gap(*ms, r)).collect();
    report.set("serve.unattributed_ms", median(&gaps));
    let bytes: Vec<f64> = served.iter().map(|(_, _, r)| v3_bytes(r) as f64).collect();
    report.set("serve.reply_bytes.mean", mean(&bytes));
    report.set(
        "serve.reply_bytes.max",
        bytes.iter().copied().fold(0.0, f64::max),
    );
    let outcomes: Vec<_> = served
        .iter()
        .map(|(_, _, r)| (r.members.as_slice(), r.winner.as_str()))
        .collect();
    record_core(&mut report, &outcomes);

    report.note("scenarios_drawn", Value::UInt(drawn as u64));
    // A run that asks for every scenario before its deadline measured
    // less than `--seconds`.
    report.note(
        "draw_exhausted",
        Value::Bool(report.attempted == drawn as u64),
    );
    report.note("setup_samples", Value::UInt(setups.len() as u64));
    Ok(report)
}

/// LUT identity: network, batch, platform, mode.
type LutKey = (String, usize, String, &'static str);

fn lut_key(req: &PlanRequest) -> LutKey {
    (
        req.network.clone(),
        req.batch,
        req.platform.clone(),
        req.mode.label(),
    )
}

/// Profiles every distinct scenario of `served` the way the server does:
/// public registry, server-default repeats.
fn own_luts(served: &[(PlanRequest, f64, PlanResponse)]) -> HashMap<LutKey, CostLut> {
    let registry = PlatformRegistry::builtin();
    let repeats = ServerConfig::default().profile_repeats;
    let mut luts = HashMap::new();
    for (req, _, _) in served {
        let key = lut_key(req);
        if luts.contains_key(&key) {
            continue;
        }
        let (Ok(spec), Some(net)) = (
            registry.resolve(&req.platform),
            zoo::by_name(&req.network, req.batch),
        ) else {
            continue;
        };
        let lut =
            Profiler::with_repeats(registry.instantiate(spec), repeats).profile(&net, req.mode);
        luts.insert(key, lut);
    }
    luts
}

/// Re-derives each served plan's cost on a LUT the benchmark profiles
/// itself with the server's public settings: the plan must be a fresh
/// search, beat or tie Vanilla, and cost exactly what the server says
/// (up to floating-point summation order).
fn check_cold(report: &mut Report, served: &[(PlanRequest, f64, PlanResponse)]) {
    let luts = own_luts(served);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for (req, _, reply) in served {
        let name = format!(
            "{} b{} {} {} {}",
            req.network,
            req.batch,
            req.platform,
            req.mode.label(),
            req.objective.tag()
        );
        if reply.cache_hit {
            report.fail(format!("{name}: cold request served from cache"), true);
            continue;
        }
        if reply.best.best_cost_ms > reply.vanilla_cost_ms {
            report.fail(format!("{name}: plan costs more than Vanilla"), true);
            continue;
        }
        let Some(lut) = luts.get(&lut_key(req)) else {
            report.fail(format!("{name}: unknown platform or network"), true);
            continue;
        };
        let lut = lut.with_objective(req.objective);
        let assignment = &reply.best.best_assignment;
        let valid = assignment.len() == lut.len()
            && assignment
                .iter()
                .enumerate()
                .all(|(l, &ci)| ci < lut.candidates(l).len());
        if !valid {
            report.fail(format!("{name}: assignment does not fit the LUT"), true);
        } else if !close(lut.cost(assignment), reply.best.best_cost_ms)
            || !close(lut.cost(&lut.vanilla_assignment()), reply.vanilla_cost_ms)
        {
            report.fail(format!("{name}: cost does not re-evaluate"), true);
        }
    }
}

/// What one `hot-plans` connection saw.
#[derive(Default)]
struct HotConn {
    attempted: u64,
    latencies: Vec<f64>,
    speedups: Vec<f64>,
    /// Round trip minus server span total, per traced reply.
    gaps: Vec<f64>,
    warm: usize,
    /// Replies per working-set entry, and the first reply of each.
    counts: Vec<u64>,
    first: Vec<Option<PlanResponse>>,
    failures: Vec<(String, bool)>,
}

/// One pipelined connection: keeps `HOT_WINDOW` requests in flight,
/// drawing scenarios by Zipf popularity, until the deadline; then drains.
fn hot_connection(
    mut client: PlanClient,
    mut zipf: Zipf,
    set: &[PlanRequest],
    expected: &[Assignment],
    deadline: Instant,
    tracer: &mut Tracer,
    request_base: u64,
) -> (PlanClient, HotConn) {
    let mut out = HotConn {
        counts: vec![0; set.len()],
        first: vec![None; set.len()],
        ..HotConn::default()
    };
    let mut pending: HashMap<u64, (usize, Instant)> = HashMap::new();
    loop {
        while pending.len() < HOT_WINDOW && Instant::now() < deadline {
            let idx = zipf.sample();
            let mut req = set[idx].clone();
            req.trace = tracer.enabled();
            out.attempted += 1;
            match client.submit_plan(req) {
                Ok(ticket) => {
                    pending.insert(ticket.id(), (idx, Instant::now()));
                }
                Err(e) => {
                    out.failures.push((format!("submit: {e}"), false));
                    return (client, out);
                }
            }
        }
        if pending.is_empty() {
            return (client, out);
        }
        let (ticket, resp) = match client.wait_any() {
            Ok(r) => r,
            Err(e) => {
                for _ in pending.drain() {
                    out.failures.push((format!("wait: {e}"), false));
                }
                return (client, out);
            }
        };
        let t1 = Instant::now();
        let Some((idx, t0)) = pending.remove(&ticket.id()) else {
            continue;
        };
        let reply = match resp {
            Response::Plan(p) => p,
            other => {
                out.failures.push((format!("reply: {other:?}"), false));
                continue;
            }
        };
        let name = &set[idx].network;
        if !reply.cache_hit {
            out.failures
                .push((format!("{name}: not a cache hit"), true));
            continue;
        }
        if reply.best.best_assignment != expected[idx] {
            out.failures
                .push((format!("{name}: assignment differs from fill"), true));
            continue;
        }
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        record_request(tracer, t0, t1, request_base + ticket.id(), &reply);
        out.latencies.push(ms);
        out.speedups.push(reply.speedup());
        out.gaps.extend(gap(ms, &reply));
        out.warm += usize::from(reply.warm_start.is_some());
        out.counts[idx] += 1;
        if out.first[idx].is_none() {
            out.first[idx] = Some(reply);
        }
    }
}

/// `hot-plans`: a fixed working set planned during setup, then replayed
/// by Zipf popularity over one v3 and one v2 pipelined connection, so
/// every request is a cache hit.
pub fn hot_plans(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let set = hot_working_set();
    let mut setups = Vec::with_capacity(HOT_SETUPS);
    let mut solves = Vec::new();
    let mut expected: Vec<Assignment> = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..HOT_SETUPS {
        if let Some(f) = fixture.take() {
            f.stop();
        }
        let t0 = Instant::now();
        let mut f = start(true)?;
        let mut fill = Vec::with_capacity(set.len());
        let t = Instant::now();
        for req in &set {
            let reply = f.v3.plan(req.clone()).map_err(serve_err("cache fill"))?;
            fill.push(reply.best.best_assignment);
        }
        solves.push(t.elapsed().as_secs_f64() / set.len() as f64);
        setups.push(t0.elapsed().as_secs_f64());
        if !expected.is_empty() {
            report.attempted += 1;
            if expected != fill {
                report.fail("cache fill differs between setups".into(), true);
            }
        }
        expected = fill;
        fixture = Some(f);
    }
    let Fixture { server, v3, v2 } = fixture.expect("at least one setup");
    let v2 = v2.expect("hot-plans opens a v2 connection");
    report.set("setup_s", median(&setups));
    report.set("solve_s", median(&solves));

    let mut v3 = v3;
    let before = snapshot(&mut v3)?;
    let start = Instant::now();
    let deadline = start + args.seconds;
    let origin = tracer.origin();
    let traced = tracer.enabled();
    let ((v3, conn3, t3), (v2, conn2, t2)) = std::thread::scope(|s| {
        let run = |client: PlanClient, seed: u64, request_base: u64| {
            let set = &set;
            let expected = &expected;
            s.spawn(move || {
                let mut tracer = Tracer::new(origin, traced);
                let (client, conn) = hot_connection(
                    client,
                    Zipf::new(seed, set.len()),
                    set,
                    expected,
                    deadline,
                    &mut tracer,
                    request_base,
                );
                (client, conn, tracer)
            })
        };
        let h3 = run(v3, args.seed.wrapping_mul(2), 0);
        let h2 = run(v2, args.seed.wrapping_mul(2) + 1, 1 << 32);
        (
            h3.join().expect("v3 connection thread"),
            h2.join().expect("v2 connection thread"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();
    tracer.absorb(t3);
    tracer.absorb(t2);
    let mut v3 = v3;
    let after = snapshot(&mut v3)?;
    drop((v3, v2));
    server.shutdown();

    let mut latencies = Vec::new();
    let mut speedups = Vec::new();
    let mut gaps = Vec::new();
    let mut warm = 0;
    let (mut weighted_bytes, mut max_bytes) = (0.0, 0usize);
    for (proto, conn) in [("v3", &conn3), ("v2", &conn2)] {
        report.attempted += conn.attempted;
        for (message, wrong) in &conn.failures {
            report.fail(format!("{proto} {message}"), *wrong);
        }
        report.set(format!("serve.{proto}.hit_p50_ms"), median(&conn.latencies));
        latencies.extend_from_slice(&conn.latencies);
        speedups.extend_from_slice(&conn.speedups);
        gaps.extend_from_slice(&conn.gaps);
        warm += conn.warm;
        for (reply, &count) in conn.first.iter().zip(&conn.counts) {
            if let Some(reply) = reply {
                let bytes = if proto == "v3" {
                    v3_bytes(reply)
                } else {
                    v2_bytes(reply)
                };
                weighted_bytes += bytes as f64 * count as f64;
                max_bytes = max_bytes.max(bytes);
            }
        }
    }
    let served = latencies.len() as f64;
    report.set("latency_p50_ms", median(&latencies));
    report.set("latency_p90_ms", quantile(&latencies, 0.9));
    report.set("throughput_rps", served / elapsed);
    report.set("plan_speedup_geomean", geomean(&speedups));

    stage_metrics(&mut report, &before.metrics, &after.metrics);
    cache_metrics(&mut report, &before.stats, &after.stats);
    report.set("serve.unattributed_ms", median(&gaps));
    if served > 0.0 {
        report.set("serve.reply_bytes.mean", weighted_bytes / served);
        report.set("serve.transfer.warm_share", warm as f64 / served);
    }
    report.set("serve.reply_bytes.max", max_bytes as f64);

    let mix: Vec<(String, Value)> = set
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let n = conn2.counts[i] + conn3.counts[i];
            (req.network.clone(), Value::UInt(n))
        })
        .collect();
    report.note("requests_per_scenario", object(mix));
    report.note("latency_p99_ms", Value::Float(quantile(&latencies, 0.99)));
    report.note("setup_samples", Value::UInt(setups.len() as u64));
    Ok(report)
}
