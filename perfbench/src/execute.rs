//! `execute`: the paper's pipeline in-process through the public
//! `engine`/`core` API, with no server — Phase 1 on `measured-host`,
//! portfolio search, then the chosen plan run for real next to Vanilla.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use qsdnn::engine::{
    run_network, Assignment, CostLut, ExecutionResult, Fnv64, MeasuredPlatform, Mode, Objective,
    PlatformRegistry, PlatformSpec, Profiler,
};
use qsdnn::nn::{zoo, Network};
use qsdnn::primitives::{execute_layer, generate_weights};
use qsdnn::tensor::{DataLayout, Tensor};
use qsdnn::{Portfolio, PortfolioOutcome};
use qsdnn_serve::protocol::default_episodes;
use qsdnn_serve::ServerConfig;
use serde::Value;

use crate::report::{object, record_core, Report, ALGORITHMS, EXECUTE_AGGREGATE};
use crate::stats::{median, quantile};

use crate::trace::Tracer;
use crate::Args;

/// Networks run per `execute` run — a chain, fire modules with pointwise
/// convolutions, and residual joins with strided 1×1 shortcuts — with
/// how many extra times per round each is solved (Phase 1 plus search):
/// a short solve is repeated across the run and its median reported.
const NETWORKS: [(&str, usize); 3] = [("lenet5", 6), ("squeezenet_v11", 0), ("resnet18", 0)];
/// The network `execute`'s end-to-end figures come from. It is the one
/// small enough to solve and run many times per run; one 10-s Phase 1 or
/// a few dozen 150-ms inferences of squeezenet_v11 still spread by 10–45%
/// between runs after normalization, as memory-heavy layers slow with
/// neighbours' memory traffic, which the probe does not see. The other
/// networks' figures are per-layer metrics and detail.
const END_TO_END: &str = "lenet5";
/// Phase-1 repeats per primitive on `measured-host`.
const PROFILE_REPEATS: usize = 1;
/// Fixture constructions per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Side of the probe's square matrices: 0.27–0.45 ms per probe.
const PROBE_N: usize = 48;
/// About the probe's time in the fast state of the 2-vCPU host the
/// benchmark was tuned on; normalized figures read as milliseconds on a
/// host that stays in that state.
const PROBE_NOMINAL_MS: f64 = 0.27;
/// Probes before and after each solve.
const PROBE_BURST: usize = 5;
/// Fewest chosen-plan inferences per network, whatever the time budget.
const MIN_INFERENCES: usize = 5;
/// Instrumented inferences per network in a traced run.
const INSTRUMENTED_RUNS: usize = 3;
/// Plan/Vanilla output tolerance of the repository's executor
/// equivalence tests.
const TOLERANCE: f32 = 1e-3;

struct Case {
    name: &'static str,
    extra_solves: usize,
    net: Network,
    input: Tensor,
    /// Seed `run_network` generates the weights from.
    weight_seed: u64,
    /// The end-to-end network's reference plan and the LUT it indexes.
    reference: Option<(CostLut, Assignment)>,
}

/// The default portfolio's plan for a latency LUT.
fn search(lut: &CostLut) -> Option<PortfolioOutcome> {
    let seeds = ServerConfig::default().default_seeds;
    Portfolio::paper_default(default_episodes(lut.len()), &seeds).run_sequential(lut)
}

/// Networks, their seeded inputs, and for the end-to-end network a
/// reference plan: the default portfolio's choice on the deterministic
/// `sim-tx2` CPU-mode LUT at the server's default repeats. A measured-host
/// plan changes from run to run with timing noise; the reference plan
/// is the same in every run, so its inference time moves only when
/// execution gets faster or slower.
fn fixture(seed: u64) -> Result<(Vec<Case>, PlatformRegistry), String> {
    let registry = PlatformRegistry::builtin();
    let sim = registry
        .resolve(PlatformRegistry::DEFAULT)
        .map_err(|e| e.to_string())?;
    let repeats = ServerConfig::default().profile_repeats;
    let mut cases = Vec::with_capacity(NETWORKS.len());
    for (name, extra_solves) in NETWORKS {
        let net = zoo::by_name(name, 1).ok_or(format!("unknown network {name}"))?;
        let input = Tensor::random(net.layers()[0].output_shape, DataLayout::Nchw, seed);
        let reference = if name == END_TO_END {
            let lut = Profiler::with_repeats(registry.instantiate(sim), repeats)
                .profile(&net, Mode::Cpu)
                .with_objective(Objective::Latency);
            let plan = search(&lut).ok_or(format!("{name}: no reference plan"))?;
            Some((lut, plan.best.best_assignment))
        } else {
            None
        };
        cases.push(Case {
            name,
            extra_solves,
            net,
            input,
            weight_seed: seed.wrapping_add(1),
            reference,
        });
    }
    Ok((cases, registry))
}

/// Times a fixed f32 matrix product, the benchmark's own code and not
/// the program's, in milliseconds. On the shared host the benchmark was
/// built on, a single thread's speed flips between two states up to 2x
/// apart in stretches of seconds; the thread is on the CPU throughout
/// (its run-queue wait stays near zero), so the slowdown is in the
/// computation itself, and the probe slows with it.
fn probe() -> f64 {
    let n = PROBE_N;
    // Opaque inputs keep the compiler from moving work out of the timed
    // region or specializing it.
    let a: Vec<f32> = black_box((0..n * n).map(|i| (i % 7) as f32).collect());
    let b: Vec<f32> = black_box((0..n * n).map(|i| (i % 5) as f32).collect());
    let mut c = black_box(vec![0f32; n * n]);
    let t = Instant::now();
    for _ in 0..2 {
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * b[k * n + j];
                }
            }
        }
    }
    black_box(&c);
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of `PROBE_BURST` probes.
fn probe_burst() -> f64 {
    median(&(0..PROBE_BURST).map(|_| probe()).collect::<Vec<_>>())
}

/// `ms` taken while the probe took `probe_ms`, rescaled to a host where
/// the probe takes `PROBE_NOMINAL_MS`.
fn normalize(ms: f64, probe_ms: f64) -> f64 {
    ms * PROBE_NOMINAL_MS / probe_ms
}

/// Inference times of one loop.
struct Timings {
    /// Wall milliseconds per inference.
    ms: Vec<f64>,
    /// Per inference, the milliseconds of the probe run just before it.
    probes: Vec<f64>,
}

impl Timings {
    /// Each inference's time normalized by its probe.
    fn normalized(&self) -> impl Iterator<Item = f64> + '_ {
        self.ms
            .iter()
            .zip(&self.probes)
            .map(|(&ms, &p)| normalize(ms, p))
    }
}

/// Runs `assignment` for at least `MIN_INFERENCES` inferences and at
/// least `budget`, each preceded by a probe; returns the inference times
/// and the first inference's result. The loop counts as one operation,
/// checked through that result, so `attempted` is the same in every run
/// whatever the host's speed.
fn infer(
    tracer: &mut Tracer,
    case: &Case,
    lut: &CostLut,
    assignment: &Assignment,
    request: u64,
    budget: Duration,
    report: &mut Report,
) -> (Timings, ExecutionResult) {
    let mut timings = Timings {
        ms: Vec::new(),
        probes: Vec::new(),
    };
    let mut first = None;
    report.attempted += 1;
    let start = Instant::now();
    while timings.ms.len() < MIN_INFERENCES || start.elapsed() < budget {
        let probe_ms = probe();
        let t = Instant::now();
        let result = tracer.time("engine.run_network", None, request, |_, _| {
            run_network(&case.net, lut, assignment, &case.input, case.weight_seed)
        });
        timings.ms.push(t.elapsed().as_secs_f64() * 1e3);
        timings.probes.push(probe_ms);
        first.get_or_insert(result);
    }
    (timings, first.expect("at least one inference"))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic".into())
}

fn assignment_hash(assignment: &Assignment) -> String {
    let mut h = Fnv64::new();
    for &ci in assignment {
        h.write_usize(ci);
    }
    format!("{:016x}", h.finish())
}

/// Per-call time of one inference, split the way the executor spends it.
#[derive(Default)]
struct Breakdown {
    weights_ms: f64,
    to_layout_ms: f64,
    execute_ms: [f64; ALGORITHMS.len()],
}

fn timed<T>(
    tracer: &mut Tracer,
    name: &str,
    parent: Option<usize>,
    request: u64,
    acc: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    *acc += (end - start).as_secs_f64() * 1e3;
    tracer.record(name, start, end, parent, request);
    out
}

/// The executor's loop, written out here so each public call it makes
/// (`generate_weights`, `Tensor::to_layout`, `execute_layer`) gets its own
/// span. Its output is checked against `run_network`'s.
fn instrumented_run(
    tracer: &mut Tracer,
    case: &Case,
    lut: &CostLut,
    assignment: &Assignment,
    request: u64,
) -> (Tensor, Breakdown) {
    let mut b = Breakdown::default();
    let out = tracer.time("engine.executor", None, request, |tracer, root| {
        let mut activations: Vec<Tensor> = Vec::with_capacity(case.net.len());
        for node in case.net.layers() {
            let prim = lut.candidates(node.id.0)[assignment[node.id.0]];
            let in_shapes = case.net.input_shapes(node.id);
            let weights = timed(
                tracer,
                "primitives.generate_weights",
                root,
                request,
                &mut b.weights_ms,
                || generate_weights(node, &in_shapes, case.weight_seed),
            );
            let sources: Vec<&Tensor> = if node.inputs.is_empty() {
                vec![&case.input]
            } else {
                node.inputs.iter().map(|p| &activations[p.0]).collect()
            };
            let gathered: Vec<Tensor> = sources
                .into_iter()
                .map(|t| {
                    timed(
                        tracer,
                        "tensor.to_layout",
                        root,
                        request,
                        &mut b.to_layout_ms,
                        || t.to_layout(prim.layout),
                    )
                })
                .collect();
            let refs: Vec<&Tensor> = gathered.iter().collect();
            let alg = ALGORITHMS
                .iter()
                .position(|&a| a == prim.algorithm)
                .expect("known algorithm");
            let out = timed(
                tracer,
                "primitives.execute_layer",
                root,
                request,
                &mut b.execute_ms[alg],
                || execute_layer(node, &prim, &refs, &weights),
            );
            activations.push(out);
        }
        let last = activations.pop().expect("non-empty network");
        timed(
            tracer,
            "tensor.to_layout",
            root,
            request,
            &mut b.to_layout_ms,
            || last.to_layout(DataLayout::Nchw),
        )
    });
    (out, b)
}

/// Reference-plan inference of one network, accumulated over rounds.
#[derive(Default)]
struct Reference {
    /// Per round: the median wall milliseconds.
    round_p50: Vec<f64>,
    /// Every round's normalized inference milliseconds.
    normalized: Vec<f64>,
    output: Option<Tensor>,
}

/// Every solve of one network in a run.
#[derive(Default)]
struct Solves {
    seconds: Vec<f64>,
    /// `seconds`, normalized by the probe bursts around each solve.
    normalized: Vec<f64>,
    profile_s: Vec<f64>,
    speedups: Vec<f64>,
    hashes: Vec<Value>,
}

/// The state one `execute` run shares between its networks and rounds.
struct Bench<'a> {
    cases: &'a [Case],
    registry: &'a PlatformRegistry,
    measured: &'a PlatformSpec,
    round_budget: Duration,
    refs: Vec<Reference>,
    solves: Vec<Solves>,
}

impl Bench<'_> {
    /// Phase 1 on `measured-host` plus the default portfolio for network
    /// `i`, recorded among its solves.
    fn solve(
        &mut self,
        tracer: &mut Tracer,
        report: &mut Report,
        i: usize,
    ) -> Result<(CostLut, PortfolioOutcome), String> {
        let case = &self.cases[i];
        let (registry, measured) = (self.registry, self.measured);
        report.attempted += 1;
        let before = probe_burst();
        let t0 = Instant::now();
        let profiled = tracer.time("engine.profile", None, i as u64, |_, _| {
            catch_unwind(AssertUnwindSafe(|| {
                Profiler::with_repeats(registry.instantiate(measured), PROFILE_REPEATS)
                    .profile(&case.net, Mode::Cpu)
            }))
        });
        let profile_s = t0.elapsed().as_secs_f64();
        let lut = profiled
            .map_err(|payload| {
                format!(
                    "{}: Phase 1 panicked after {profile_s:.1} s: {}",
                    case.name,
                    panic_message(&*payload)
                )
            })?
            .with_objective(Objective::Latency);
        report.attempted += 1;
        let t1 = Instant::now();
        let outcome = tracer
            .time("core.search", None, i as u64, |_, _| search(&lut))
            .ok_or(format!(
                "{}: no portfolio member produced a plan",
                case.name
            ))?;
        let seconds = profile_s + t1.elapsed().as_secs_f64();
        let after = probe_burst();
        let acc = &mut self.solves[i];
        acc.profile_s.push(profile_s);
        acc.seconds.push(seconds);
        acc.normalized
            .push(normalize(seconds, (before + after) / 2.0));
        acc.speedups
            .push(lut.cost(&lut.vanilla_assignment()) / outcome.best.best_cost_ms);
        acc.hashes.push(Value::String(assignment_hash(
            &outcome.best.best_assignment,
        )));
        Ok((lut, outcome))
    }

    /// One round: each network's extra solves, then reference-plan
    /// inference for every network that has a reference plan. Rounds are
    /// spread over the run, so each network's reference figures pool
    /// samples from its whole length.
    fn round(&mut self, tracer: &mut Tracer, report: &mut Report) {
        for i in 0..self.cases.len() {
            for _ in 0..self.cases[i].extra_solves {
                if let Err(message) = self.solve(tracer, report, i) {
                    report.fail(message, false);
                }
            }
        }
        for (request, (case, acc)) in self.cases.iter().zip(&mut self.refs).enumerate() {
            if let Some((lut, plan)) = &case.reference {
                let (timings, first) = infer(
                    tracer,
                    case,
                    lut,
                    plan,
                    request as u64,
                    self.round_budget,
                    report,
                );
                acc.round_p50.push(median(&timings.ms));
                acc.normalized.extend(timings.normalized());
                match &acc.output {
                    None => acc.output = Some(first.output),
                    Some(out) if out.approx_eq(&first.output, TOLERANCE) != Ok(true) => {
                        report.fail(
                            format!(
                                "{}: reference plan's output changed between rounds",
                                case.name
                            ),
                            true,
                        );
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// `execute`: per network, Phase 1 on `measured-host` in CPU mode and
/// the default portfolio (the paper's time to solution), repeated
/// inference of the plan that solve chose, and one Vanilla inference that
/// the chosen and reference plans' outputs are checked against. Rounds of
/// extra solves and reference-plan inference run around the networks.
pub fn execute(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        built = Some(fixture(args.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (cases, registry) = built.expect("at least one setup");
    report.set("setup_s", median(&setups));

    let measured = registry
        .resolve("measured-host")
        .map_err(|e| e.to_string())?;
    // Per network: a sixth of the run for the chosen plan. Half the run
    // for the reference plan, split over one round before each network
    // and one after the last.
    let chosen_budget = args.seconds / 6;
    let mut bench = Bench {
        cases: &cases,
        registry: &registry,
        measured,
        round_budget: args.seconds / (2 * (cases.len() as u32 + 1)),
        refs: cases.iter().map(|_| Reference::default()).collect(),
        solves: cases.iter().map(|_| Solves::default()).collect(),
    };
    let mut vanilla_outputs: Vec<Option<Tensor>> = vec![None; cases.len()];
    let mut facts: Vec<Vec<(&str, Value)>> = vec![Vec::new(); cases.len()];
    let mut outcomes = Vec::new();

    for (i, case) in cases.iter().enumerate() {
        bench.round(tracer, &mut report);
        let request = i as u64;
        let name = case.name;
        let (lut, outcome) = match bench.solve(tracer, &mut report, i) {
            Ok(solved) => solved,
            Err(message) => {
                facts[i].push(("status", Value::String(message.clone())));
                report.fail(message, false);
                continue;
            }
        };
        let plan = &outcome.best.best_assignment;
        let (chosen_t, chosen) = infer(
            tracer,
            case,
            &lut,
            plan,
            request,
            chosen_budget,
            &mut report,
        );
        report.attempted += 1;
        let t2 = Instant::now();
        let vanilla = tracer.time("engine.run_network", None, request, |_, _| {
            run_network(
                &case.net,
                &lut,
                &lut.vanilla_assignment(),
                &case.input,
                case.weight_seed,
            )
        });
        let vanilla_ms = t2.elapsed().as_secs_f64() * 1e3;
        if chosen.output.approx_eq(&vanilla.output, TOLERANCE) != Ok(true) {
            report.fail(
                format!("{name}: chosen plan's output differs from Vanilla"),
                true,
            );
        }
        vanilla_outputs[i] = Some(vanilla.output);

        let chosen_ms = &chosen_t.ms;
        let plan_ms = median(chosen_ms);
        if EXECUTE_AGGREGATE.contains(&name) {
            let predicted_speedup = bench.solves[i].speedups.last().copied().unwrap_or(0.0);
            for (key, value) in [
                ("engine.executor.plan_ms", plan_ms),
                ("engine.executor.vanilla_ms", vanilla_ms),
                ("engine.executor.measured_speedup", vanilla_ms / plan_ms),
                ("engine.executor.predicted_speedup", predicted_speedup),
                (
                    "engine.executor.conversions",
                    chosen.layout_conversions as f64,
                ),
                (
                    "engine.executor.transfers",
                    chosen.processor_transfers as f64,
                ),
                ("engine.lut_ratio", plan_ms / outcome.best.best_cost_ms),
            ] {
                report.set(format!("{key}.{name}"), value);
            }
        }
        if tracer.enabled() {
            let mut parts: Vec<Breakdown> = Vec::new();
            for _ in 0..INSTRUMENTED_RUNS {
                report.attempted += 1;
                let (out, b) = instrumented_run(tracer, case, &lut, plan, request);
                if out.approx_eq(&chosen.output, TOLERANCE) != Ok(true) {
                    report.fail(
                        format!("{name}: instrumented run differs from run_network"),
                        true,
                    );
                }
                parts.push(b);
            }
            let med =
                |f: &dyn Fn(&Breakdown) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
            report.set(
                format!("primitives.generate_weights_ms.{name}"),
                med(&|b| b.weights_ms),
            );
            report.set(
                format!("tensor.to_layout_ms.{name}"),
                med(&|b| b.to_layout_ms),
            );
            for (k, alg) in ALGORITHMS.iter().enumerate() {
                report.set(
                    format!("primitives.execute_layer_ms.{name}.{}", alg.name()),
                    med(&|b| b.execute_ms[k]),
                );
            }
        }

        facts[i].extend([
            ("status", Value::String("ok".into())),
            ("infer_p50_ms", Value::Float(plan_ms)),
            ("infer_p90_ms", Value::Float(quantile(chosen_ms, 0.9))),
            (
                "infer_p50_normalized_ms",
                Value::Float(median(&chosen_t.normalized().collect::<Vec<_>>())),
            ),
            ("inferences", Value::UInt(chosen_ms.len() as u64)),
            ("plan_hash", Value::String(assignment_hash(plan))),
            ("winner", Value::String(outcome.winner.clone())),
            ("vanilla_ms", Value::Float(vanilla_ms)),
        ]);
        outcomes.push(outcome);
    }
    bench.round(tracer, &mut report);

    // Per network: median normalized solve seconds and median predicted
    // speedup over its solves.
    let mut solved = None;
    for (i, (case, acc)) in cases.iter().zip(&bench.solves).enumerate() {
        if acc.seconds.is_empty() {
            continue;
        }
        let (normalized, speedup) = (median(&acc.normalized), median(&acc.speedups));
        let profile_s = median(&acc.profile_s);
        facts[i].extend([
            ("solves", Value::UInt(acc.seconds.len() as u64)),
            ("solve_s", Value::Float(median(&acc.seconds))),
            ("solve_normalized_s", Value::Float(normalized)),
            ("profile_s", Value::Float(profile_s)),
            ("predicted_speedup", Value::Float(speedup)),
            ("plan_hashes", Value::Array(acc.hashes.clone())),
        ]);
        if case.name == END_TO_END {
            solved = Some((normalized, speedup));
        }
        if EXECUTE_AGGREGATE.contains(&case.name) {
            let sweeps = Profiler::<MeasuredPlatform>::inference_count(&case.net, Mode::Cpu);
            report.set(
                format!("engine.profiler.measured_s.{}", case.name),
                profile_s,
            );
            report.set(
                format!("engine.profiler.ms_per_inference.{}", case.name),
                profile_s * 1e3 / sweeps as f64,
            );
        }
    }

    let mut reference = None;
    for (i, (case, acc)) in cases.iter().zip(&bench.refs).enumerate() {
        let (Some((_, plan)), Some(out)) = (&case.reference, &acc.output) else {
            continue;
        };
        let matches = vanilla_outputs[i]
            .as_ref()
            .is_some_and(|v| out.approx_eq(v, TOLERANCE) == Ok(true));
        if vanilla_outputs[i].is_some() && !matches {
            report.fail(
                format!(
                    "{}: reference plan's output differs from Vanilla",
                    case.name
                ),
                true,
            );
        }
        let round_p50 = acc.round_p50.iter().map(|&ms| Value::Float(ms));
        facts[i].extend([
            ("reference_p50_ms", Value::Float(median(&acc.normalized))),
            (
                "reference_p90_ms",
                Value::Float(quantile(&acc.normalized, 0.9)),
            ),
            ("reference_round_p50_ms", Value::Array(round_p50.collect())),
            ("reference_hash", Value::String(assignment_hash(plan))),
        ]);
        reference = Some(&acc.normalized);
    }

    let core: Vec<_> = outcomes
        .iter()
        .map(|o| (o.members.as_slice(), o.winner.as_str()))
        .collect();
    record_core(&mut report, &core);

    let (Some(ms), Some((solve_s, speedup))) = (reference, solved) else {
        return Err(format!("{END_TO_END}: no end-to-end figures"));
    };
    report.set("latency_p50_ms", median(ms));
    report.set("latency_p90_ms", quantile(ms, 0.9));
    report.set(
        "throughput_rps",
        ms.len() as f64 * 1e3 / ms.iter().sum::<f64>(),
    );
    report.set("plan_speedup_geomean", speedup);
    report.set("solve_s", solve_s);
    let networks = cases
        .iter()
        .zip(facts)
        .map(|(case, f)| (case.name, object(f)));
    report.note("networks", object(networks));
    report.note("setup_samples", Value::UInt(setups.len() as u64));
    Ok(report)
}
