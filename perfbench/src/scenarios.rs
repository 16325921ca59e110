//! Seeded request generation. The program under test only ever sees the
//! requests built here; the seed is the benchmark's `--seed` argument.

use qsdnn::engine::{Mode, Objective};
use qsdnn_serve::protocol::{PlanRequest, TransferMode};

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs whatever the vendored `rand` does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zoo networks of the `cold-plans` draw: chains and branchy graphs —
/// the whole zoo, so a run at today's speed does not exhaust the draw.
pub const COLD_NETWORKS: [&str; 13] = [
    "lenet5",
    "alexnet",
    "vgg19",
    "mobilenet_v1",
    "squeezenet_v11",
    "resnet18",
    "googlenet",
    "toy_branchy",
    "sphereface20",
    "tiny_yolo_v2",
    "vgg16",
    "resnet34",
    "tiny_cnn",
];

const BATCHES: [usize; 4] = [1, 2, 4, 8];

/// Simulated targets with the modes each one supports (`sim-cpu-only`
/// has no GPU).
const TARGETS: [(&str, Mode); 5] = [
    ("sim-tx2", Mode::Cpu),
    ("sim-tx2", Mode::Gpgpu),
    ("sim-gpu-heavy", Mode::Cpu),
    ("sim-gpu-heavy", Mode::Gpgpu),
    ("sim-cpu-only", Mode::Cpu),
];

/// Latency and energy, plus the weighted trade-off between them (paper
/// §VII), which keeps a run at today's speed from exhausting the draw.
const OBJECTIVES: [Objective; 3] = [
    Objective::Latency,
    Objective::Energy,
    Objective::Weighted { lambda: 0.5 },
];

/// A default-budget plan request: server-default episodes and seeds,
/// transfer `auto`.
pub fn plan_request(
    network: &str,
    batch: usize,
    platform: &str,
    mode: Mode,
    objective: Objective,
) -> PlanRequest {
    PlanRequest {
        network: network.to_string(),
        batch,
        mode,
        objective,
        episodes: 0,
        seeds: Vec::new(),
        transfer: TransferMode::Auto,
        trace: false,
        platform: platform.to_string(),
    }
}

/// The `cold-plans` draw: every scenario of the space exactly once, in a
/// seeded order. Networks take turns (round `r` holds the `r`-th scenario
/// of every network, networks in a seeded order per round), so a run that
/// stops after any number of requests has asked about every network
/// almost equally often and runs of different seeds do comparable work.
pub fn cold_draw(seed: u64) -> Vec<PlanRequest> {
    let mut rng = Rng::new(seed);
    let per_network: Vec<Vec<PlanRequest>> = COLD_NETWORKS
        .iter()
        .map(|net| {
            let mut list = Vec::new();
            for &batch in &BATCHES {
                for &(platform, mode) in &TARGETS {
                    for &objective in &OBJECTIVES {
                        list.push(plan_request(net, batch, platform, mode, objective));
                    }
                }
            }
            rng.shuffle(&mut list);
            list
        })
        .collect();
    let rounds = per_network[0].len();
    let mut order: Vec<usize> = (0..COLD_NETWORKS.len()).collect();
    let mut queues: Vec<_> = per_network.into_iter().map(Vec::into_iter).collect();
    let mut draw = Vec::with_capacity(rounds * order.len());
    for _ in 0..rounds {
        rng.shuffle(&mut order);
        draw.extend(order.iter().filter_map(|&n| queues[n].next()));
    }
    draw
}

/// The `hot-plans` working set, in fixed popularity-rank order (rank 1
/// first). Each is planned cold at the default budget (transfer off), so
/// the replies span default reply sizes from about 1 KB (plans won by
/// chain DP or PBQP) to hundreds of KB (QS-DNN winners carrying their
/// learning curve); the heaviest replies sit at the unpopular end so the
/// traffic mix is not dominated by a single scenario.
pub fn hot_working_set() -> Vec<PlanRequest> {
    [
        "mobilenet_v1",
        "lenet5",
        "toy_branchy",
        "alexnet",
        "resnet18",
        "vgg19",
        "squeezenet_v11",
        "googlenet",
    ]
    .iter()
    .map(|net| PlanRequest {
        transfer: TransferMode::Off,
        ..plan_request(net, 1, "sim-tx2", Mode::Gpgpu, Objective::Latency)
    })
    .collect()
}

/// Seeded draws from a Zipf(1) popularity over `n` ranks: rank `k`
/// (0-based) has weight `1 / (k + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
    rng: Rng,
}

impl Zipf {
    pub fn new(seed: u64, n: usize) -> Self {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        Zipf {
            cdf,
            rng: Rng::new(seed),
        }
    }

    /// The next rank.
    pub fn sample(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn key(r: &PlanRequest) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            r.network,
            r.batch,
            r.platform,
            r.mode.label(),
            r.objective.tag()
        )
    }

    #[test]
    fn same_seed_same_draw_other_seed_other_draw() {
        assert_eq!(cold_draw(7), cold_draw(7));
        assert_ne!(cold_draw(7), cold_draw(8));
        let draws = |seed| {
            let mut z = Zipf::new(seed, 8);
            (0..500).map(|_| z.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn cold_draw_has_no_duplicate_scenario() {
        for seed in 0..4 {
            let draw = cold_draw(seed);
            let distinct: HashSet<String> = draw.iter().map(key).collect();
            assert_eq!(distinct.len(), draw.len(), "seed {seed}");
            assert_eq!(draw.len(), COLD_NETWORKS.len() * 4 * 5 * 3);
        }
    }

    #[test]
    fn cold_draw_interleaves_networks() {
        let draw = cold_draw(3);
        for round in draw.chunks(COLD_NETWORKS.len()) {
            let nets: HashSet<&str> = round.iter().map(|r| r.network.as_str()).collect();
            assert_eq!(nets.len(), COLD_NETWORKS.len());
        }
        assert!(draw
            .iter()
            .all(|r| r.platform != "sim-cpu-only" || r.mode == Mode::Cpu));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut z = Zipf::new(11, 8);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample()] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }
}
