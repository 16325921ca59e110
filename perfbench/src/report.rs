//! Metric catalogue and the result a workload run hands back.

use std::collections::BTreeMap;

use qsdnn::primitives::Algorithm;
use qsdnn::MemberSummary;
use serde::Value;

use crate::stats::median;
use crate::trace::LAYERS;

/// End-to-end metrics: every workload measures every one, untraced.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("plan_speedup_geomean", "ratio"),
    ("solve_s", "s"),
];

/// Networks whose `execute` figures feed the per-layer catalogue (the
/// end-to-end figures come from lenet5). `resnet18` is attempted too, but
/// it fails in Phase 1 today; when it succeeds it adds rows to the run's
/// detail line instead of moving these figures.
pub const EXECUTE_AGGREGATE: [&str; 2] = ["lenet5", "squeezenet_v11"];

/// Pipeline stages the serve stack spans, in order.
pub const STAGES: [&str; 7] = [
    "parse",
    "queue",
    "profile",
    "cache",
    "search",
    "serialize",
    "write",
];

/// Portfolio member names under the default portfolio (three QS-DNN
/// seeds, then the baselines).
pub const MEMBERS: [&str; 7] = [
    "qs-dnn.0",
    "qs-dnn.1",
    "qs-dnn.2",
    "random",
    "annealing",
    "chain-dp",
    "pbqp",
];

/// Search methods a plan can be won by.
pub const METHODS: [&str; 5] = ["qs-dnn", "random", "annealing", "chain-dp", "pbqp"];

pub const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Direct,
    Algorithm::DirectOpt,
    Algorithm::Gemm,
    Algorithm::Gemv,
    Algorithm::Winograd,
    Algorithm::SparseCsr,
];

/// Per-layer metrics, reported by the traced run of every workload. A
/// layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for stage in STAGES {
        add(format!("serve.stage.{stage}.p50_ms"), "ms");
        add(format!("serve.stage.{stage}.p99_ms"), "ms");
    }
    add("serve.unattributed_ms".into(), "ms");
    add("serve.reply_bytes.mean".into(), "bytes");
    add("serve.reply_bytes.max".into(), "bytes");
    add("serve.v2.hit_p50_ms".into(), "ms");
    add("serve.v3.hit_p50_ms".into(), "ms");
    add("serve.cache.hit_ratio".into(), "ratio");
    add("serve.cache.coalesced".into(), "count");
    add("serve.cache.evictions".into(), "count");
    add("serve.transfer.warm_share".into(), "ratio");
    add("serve.transfer.mean_donor_distance".into(), "ratio");
    add("serve.cold_search_p50_ms".into(), "ms");
    add("serve.warm_search_p50_ms".into(), "ms");
    for member in MEMBERS {
        add(format!("core.member.{member}.wall_ms"), "ms");
    }
    add("core.qsdnn.episodes_per_s".into(), "1/s");
    for method in METHODS {
        add(format!("core.winner_share.{method}"), "ratio");
    }
    for net in EXECUTE_AGGREGATE {
        add(format!("engine.profiler.measured_s.{net}"), "s");
        add(format!("engine.profiler.ms_per_inference.{net}"), "ms");
        add(format!("engine.executor.plan_ms.{net}"), "ms");
        add(format!("engine.executor.vanilla_ms.{net}"), "ms");
        add(format!("engine.executor.measured_speedup.{net}"), "ratio");
        add(format!("engine.executor.predicted_speedup.{net}"), "ratio");
        add(format!("engine.executor.conversions.{net}"), "count");
        add(format!("engine.executor.transfers.{net}"), "count");
        add(format!("engine.lut_ratio.{net}"), "ratio");
        add(format!("primitives.generate_weights_ms.{net}"), "ms");
        for alg in ALGORITHMS {
            add(
                format!("primitives.execute_layer_ms.{net}.{}", alg.name()),
                "ms",
            );
        }
        add(format!("tensor.to_layout_ms.{net}"), "ms");
    }
    for layer in LAYERS {
        add(format!("trace.{layer}.total_ms"), "ms");
        add(format!("trace.{layer}.self_ms"), "ms");
        add(format!("trace.{layer}.unattributed_ms"), "ms");
    }
    add("trace.spans".into(), "count");
    add("trace.overhead_ms".into(), "ms");
    add("trace.overhead_share".into(), "ratio");
    out
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: the timed phase's, plus set-up fills that
    /// are checked.
    pub attempted: u64,
    /// Operations that errored, panicked or failed an output check.
    pub failed: u64,
    /// Output checks that failed (each also counted in `failed`).
    pub wrong: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Extra named facts for the detail line (per-network figures,
    /// assignment hashes, ...).
    pub detail: Vec<(String, Value)>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn note(&mut self, key: impl Into<String>, value: Value) {
        self.detail.push((key.into(), value));
    }

    /// Counts one failed operation; `wrong` marks a failed output check.
    pub fn fail(&mut self, message: String, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Search-layer figures over fresh portfolio runs, given each run's
/// member summaries and winner label: median wall time per member (over
/// runs where it applied), QS-DNN episode rate, and each method's share
/// of wins.
pub fn record_core(report: &mut Report, runs: &[(&[MemberSummary], &str)]) {
    let method = |label: &str| label.split('(').next().unwrap_or("").to_string();
    let mut walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut episodes, mut qsdnn_ms) = (0usize, 0.0);
    let mut wins: BTreeMap<String, usize> = BTreeMap::new();
    for (members, winner) in runs {
        let mut qsdnn_seen = 0;
        for m in members.iter().filter(|m| m.best_cost_ms.is_some()) {
            let mut name = method(&m.label);
            if name == "qs-dnn" {
                name = format!("qs-dnn.{qsdnn_seen}");
                qsdnn_seen += 1;
                episodes += m.episodes;
                qsdnn_ms += m.wall_time_ms;
            }
            walls.entry(name).or_default().push(m.wall_time_ms);
        }
        *wins.entry(method(winner)).or_default() += 1;
    }
    for (name, values) in &walls {
        report.set(format!("core.member.{name}.wall_ms"), median(values));
    }
    if qsdnn_ms > 0.0 {
        report.set(
            "core.qsdnn.episodes_per_s",
            episodes as f64 / (qsdnn_ms / 1e3),
        );
    }
    for (name, n) in wins {
        report.set(
            format!("core.winner_share.{name}"),
            n as f64 / runs.len() as f64,
        );
    }
}
