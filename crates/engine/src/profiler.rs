//! Phase 1 of QS-DNN: inference on the (simulated) embedded system to
//! populate the [`CostLut`].
//!
//! Mirrors paper §V.A:
//!
//! 1. every primitive type is benchmarked network-wide (mean over a
//!    configurable number of repeats — 50 in the paper, one per image);
//!    each repeat is one [`Platform::layer_sample`], a single execution
//!    that yields both its time and its energy;
//! 2. all compatibility layers between *consecutive* (graph-adjacent)
//!    layers are profiled, branches included (Fig. 3). The executor
//!    inserts a conversion based only on the producer's and consumer's
//!    (processor, layout), so each edge takes one
//!    [`Platform::conversion_sample`] per distinct such pair and every
//!    candidate pair sharing it reuses the sample;
//! 3. the LUT is assembled.

use std::collections::HashMap;

use qsdnn_nn::Network;
use qsdnn_primitives::{registry, Library, Primitive};

use crate::{CostLut, IncomingEdge, LayerEntry, Mode, Platform};

/// Phase-1 profiler driving a [`Platform`].
///
/// # Examples
///
/// ```
/// use qsdnn_engine::{AnalyticalPlatform, Mode, Profiler};
/// use qsdnn_nn::zoo;
///
/// let net = zoo::lenet5(1);
/// let mut profiler = Profiler::new(AnalyticalPlatform::tx2());
/// let lut = profiler.profile(&net, Mode::Cpu);
/// assert_eq!(lut.len(), net.len());
/// ```
#[derive(Debug)]
pub struct Profiler<P: Platform> {
    platform: P,
    repeats: usize,
}

impl<P: Platform> Profiler<P> {
    /// Profiler with the paper's repeat count (50 inferences per primitive).
    pub fn new(platform: P) -> Self {
        Profiler {
            platform,
            repeats: 50,
        }
    }

    /// Profiler with a custom repeat count (≥1).
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    pub fn with_repeats(platform: P, repeats: usize) -> Self {
        assert!(repeats > 0, "at least one repeat is required");
        Profiler { platform, repeats }
    }

    /// Consumes the profiler, returning the platform.
    pub fn into_platform(self) -> P {
        self.platform
    }

    /// Number of whole-network inference sweeps Phase 1 performs: one per
    /// distinct global implementation (per library, its maximum per-layer
    /// variant count), plus one for compatibility profiling (paper §V.A).
    pub fn inference_count(net: &Network, mode: Mode) -> usize {
        let mut sweeps = 0;
        for lib in Library::ALL {
            let max_variants = net
                .layers()
                .iter()
                .map(|node| {
                    registry::candidates(node)
                        .into_iter()
                        .filter(|p| mode.admits(p) && p.library == lib)
                        .count()
                })
                .max()
                .unwrap_or(0);
            sweeps += max_variants;
        }
        sweeps + 1
    }

    /// Runs Phase 1 and assembles the LUT.
    pub fn profile(&mut self, net: &Network, mode: Mode) -> CostLut {
        let profile_start = std::time::Instant::now();
        let mut entries: Vec<LayerEntry> = Vec::with_capacity(net.len());
        // 1) Per-primitive benchmarking, averaged over repeats.
        let mut all_candidates: Vec<Vec<Primitive>> = Vec::with_capacity(net.len());
        let mut layer_samples = 0;
        for node in net.layers() {
            let candidates: Vec<Primitive> = registry::candidates(node)
                .into_iter()
                .filter(|p| mode.admits(p))
                .collect();
            let mut time_ms = Vec::with_capacity(candidates.len());
            let mut energy_mj = Vec::with_capacity(candidates.len());
            for prim in &candidates {
                let mut acc = 0.0;
                let mut acc_e = 0.0;
                for _ in 0..self.repeats {
                    let (t, e) = self.platform.layer_sample(net, node, prim);
                    acc += t;
                    acc_e += e;
                }
                time_ms.push(acc / self.repeats as f64);
                energy_mj.push(acc_e / self.repeats as f64);
            }
            layer_samples += candidates.len() * self.repeats;
            all_candidates.push(candidates.clone());
            entries.push(LayerEntry {
                name: node.desc.name.clone(),
                tag: node.desc.tag(),
                candidates,
                time_ms,
                energy_mj,
                incoming: Vec::new(),
            });
        }
        // 2) Compatibility layers on every graph edge (branches handled),
        //    one sample per distinct (processor, layout) pair.
        let mut conversion_samples = 0;
        for node in net.layers() {
            let li = node.id.0;
            for &producer in &node.inputs {
                let shape = net.node(producer).output_shape;
                let from_cands = &all_candidates[producer.0];
                let self_cands = &all_candidates[li];
                let mut samples = HashMap::new();
                let mut penalty = Vec::with_capacity(from_cands.len() * self_cands.len());
                let mut penalty_energy_mj = Vec::with_capacity(penalty.capacity());
                for pf in from_cands {
                    for pt in self_cands {
                        let key = (pf.processor, pf.layout, pt.processor, pt.layout);
                        let (t, e) = *samples
                            .entry(key)
                            .or_insert_with(|| self.platform.conversion_sample(shape, pf, pt));
                        penalty.push(t);
                        penalty_energy_mj.push(e);
                    }
                }
                conversion_samples += samples.len();
                entries[li].incoming.push(IncomingEdge {
                    from: producer.0,
                    penalty,
                    penalty_energy_mj,
                });
            }
        }
        let registry = qsdnn_obs::global();
        registry
            .histogram(
                "qsdnn_profile_us",
                "Wall time of one Phase-1 profiling run (full network)",
                &[],
            )
            .record_duration(profile_start.elapsed());
        registry
            .counter(
                "qsdnn_profile_layers_total",
                "Network layers profiled in Phase-1 runs",
                &[],
            )
            .add(net.len() as u64);
        for (kind, n) in [("layer", layer_samples), ("conversion", conversion_samples)] {
            registry
                .counter(
                    "qsdnn_profile_samples_total",
                    "Platform samples drawn by Phase-1 runs (one kernel run or conversion each)",
                    &[("kind", kind)],
                )
                .add(n as u64);
        }
        CostLut::from_parts(net.name(), self.platform.name(), mode, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyticalPlatform;
    use qsdnn_nn::zoo;
    use qsdnn_primitives::Processor;

    fn quick_lut(name: &str, mode: Mode) -> CostLut {
        let net = zoo::by_name(name, 1).expect("known net");
        Profiler::with_repeats(AnalyticalPlatform::tx2(), 3).profile(&net, mode)
    }

    #[test]
    fn lut_covers_every_layer_and_edge() {
        let net = zoo::googlenet(1);
        let lut = Profiler::with_repeats(AnalyticalPlatform::tx2(), 2).profile(&net, Mode::Cpu);
        assert_eq!(lut.len(), net.len());
        let edges: usize = lut.layers().iter().map(|l| l.incoming.len()).sum();
        assert_eq!(edges, net.edges().len(), "all branches profiled (Fig. 3)");
    }

    #[test]
    fn cpu_mode_excludes_gpu_candidates() {
        let lut = quick_lut("lenet5", Mode::Cpu);
        for l in lut.layers() {
            assert!(l.candidates.iter().all(|p| p.processor == Processor::Cpu));
        }
    }

    #[test]
    fn gpgpu_mode_includes_gpu_candidates() {
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        let has_gpu = lut
            .layers()
            .iter()
            .any(|l| l.candidates.iter().any(|p| p.processor == Processor::Gpu));
        assert!(has_gpu);
    }

    #[test]
    fn averaging_repeats_tightens_towards_base() {
        // With many repeats the profiled mean must approach the noise-free
        // base time.
        let net = zoo::lenet5(1);
        let platform = AnalyticalPlatform::tx2();
        let conv1 = &net.layers()[1];
        let prim = qsdnn_primitives::registry::candidates(conv1)[1];
        let base = platform.base_layer_time_ms(&net, conv1, &prim);
        let lut = Profiler::with_repeats(platform, 200).profile(&net, Mode::Cpu);
        let ci = lut.candidates(1).iter().position(|p| *p == prim).unwrap();
        let measured = lut.time(1, ci);
        assert!(
            (measured - base).abs() / base < 0.02,
            "{measured} vs {base}"
        );
    }

    #[test]
    fn inference_count_matches_paper_structure() {
        let net = zoo::vgg19(1);
        // CPU mode: vanilla 1 + blas 6 + nnpack 2 + armcl 2 + sparse 1
        // (fc/pointwise) + 1 compatibility sweep.
        let n = Profiler::<AnalyticalPlatform>::inference_count(&net, Mode::Cpu);
        assert!(n > 5 && n < 30, "sweep count {n}");
        let n_gpu = Profiler::<AnalyticalPlatform>::inference_count(&net, Mode::Gpgpu);
        assert!(n_gpu > n, "GPGPU adds cuDNN/cuBLAS sweeps");
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn zero_repeats_rejected() {
        let _ = Profiler::with_repeats(AnalyticalPlatform::tx2(), 0);
    }

    #[test]
    fn energy_is_profiled_alongside_time() {
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        for (l, entry) in lut.layers().iter().enumerate().skip(1) {
            for ci in 0..entry.candidates.len() {
                assert!(lut.energy(l, ci) > 0.0, "{}: candidate {ci}", entry.name);
            }
        }
        let v = lut.vanilla_assignment();
        assert!(lut.energy_cost(&v) > 0.0);
    }

    #[test]
    fn gpu_burns_more_power_per_unit_time() {
        // Energy/time ratio must reflect the processor's power draw.
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        let conv2 = 3; // lenet conv2 entry
        let entry = &lut.layers()[conv2];
        let gpu = entry
            .candidates
            .iter()
            .position(|p| p.processor == Processor::Gpu)
            .expect("gpu candidate");
        let cpu = 0;
        let gpu_ratio = lut.energy(conv2, gpu) / lut.time(conv2, gpu);
        let cpu_ratio = lut.energy(conv2, cpu) / lut.time(conv2, cpu);
        assert!(
            gpu_ratio > cpu_ratio * 2.0,
            "gpu {gpu_ratio} vs cpu {cpu_ratio}"
        );
    }

    /// Counts the samples Phase 1 draws; conversion times are a pure
    /// function of the (processor, layout) pair so memoized penalties can
    /// be checked against it.
    #[derive(Default)]
    struct Counting {
        layer_calls: usize,
        conversion_calls: usize,
    }

    impl Counting {
        fn conversion(from: &Primitive, to: &Primitive) -> f64 {
            match (from.processor == to.processor, from.layout == to.layout) {
                (true, true) => 0.0,
                (true, false) => 0.5,
                (false, true) => 2.0,
                (false, false) => 2.5,
            }
        }
    }

    impl Platform for Counting {
        fn layer_time_ms(&mut self, _: &Network, _: &qsdnn_nn::Node, _: &Primitive) -> f64 {
            self.layer_calls += 1;
            1.0
        }

        fn conversion_time_ms(
            &mut self,
            _: qsdnn_tensor::Shape,
            from: &Primitive,
            to: &Primitive,
        ) -> f64 {
            self.conversion_calls += 1;
            Counting::conversion(from, to)
        }

        fn processor_power_w(&self, _: Processor) -> f64 {
            2.0
        }

        fn transfer_power_w(&self) -> f64 {
            3.0
        }

        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn one_sample_per_repeat_and_per_compatibility_layer() {
        let net = zoo::toy_branchy(1);
        let repeats = 3;
        let mut profiler = Profiler::with_repeats(Counting::default(), repeats);
        let lut = profiler.profile(&net, Mode::Gpgpu);
        let platform = profiler.into_platform();

        let candidates: usize = lut.layers().iter().map(|l| l.candidates.len()).sum();
        assert_eq!(platform.layer_calls, candidates * repeats);

        let mut distinct = 0;
        for (li, entry) in lut.layers().iter().enumerate() {
            for edge in &entry.incoming {
                let mut pairs = std::collections::HashSet::new();
                for (fi, pf) in lut.candidates(edge.from).iter().enumerate() {
                    for (ti, pt) in lut.candidates(li).iter().enumerate() {
                        pairs.insert((pf.processor, pf.layout, pt.processor, pt.layout));
                        let k = fi * entry.candidates.len() + ti;
                        assert_eq!(edge.penalty[k], Counting::conversion(pf, pt));
                        assert_eq!(edge.penalty_energy_mj[k], edge.penalty[k] * 3.0);
                    }
                }
                distinct += pairs.len();
            }
        }
        assert!(
            distinct
                < lut
                    .layers()
                    .iter()
                    .flat_map(|l| &l.incoming)
                    .map(|e| e.penalty.len())
                    .sum()
        );
        assert_eq!(platform.conversion_calls, distinct);
    }

    #[test]
    fn measured_samples_pair_time_with_energy() {
        use crate::MeasuredPlatform;
        let net = zoo::lenet5(1);
        let platform = MeasuredPlatform::new(5);
        let cpu_w = platform.processor_power_w(Processor::Cpu);
        let lut = Profiler::with_repeats(platform, 2).profile(&net, Mode::Gpgpu);
        for (li, entry) in lut.layers().iter().enumerate() {
            for (ci, prim) in entry.candidates.iter().enumerate() {
                if prim.processor != Processor::Cpu {
                    continue;
                }
                let (t, e) = (lut.time(li, ci), lut.energy(li, ci));
                assert!(
                    (e - t * cpu_w).abs() <= 1e-12 * e.abs(),
                    "{}/{prim}: energy {e} is not time {t} x {cpu_w} W",
                    entry.name
                );
            }
            for edge in &entry.incoming {
                let from = lut.candidates(edge.from);
                let n = entry.candidates.len();
                let mut seen = std::collections::HashMap::new();
                for (fi, pf) in from.iter().enumerate() {
                    for (ti, pt) in entry.candidates.iter().enumerate() {
                        let k = fi * n + ti;
                        let key = (pf.processor, pf.layout, pt.processor, pt.layout);
                        let sample = (edge.penalty[k], edge.penalty_energy_mj[k]);
                        assert_eq!(*seen.entry(key).or_insert(sample), sample, "{}", entry.name);
                    }
                }
            }
        }
    }

    #[test]
    fn objective_scalarization_is_linear() {
        use crate::Objective;
        let lut = quick_lut("lenet5", Mode::Gpgpu);
        let a = lut.greedy_assignment();
        let base = lut.cost(&a);
        let energy = lut.energy_cost(&a);
        let weighted = lut.with_objective(Objective::Weighted { lambda: 2.0 });
        assert!((weighted.cost(&a) - (base + 2.0 * energy)).abs() < 1e-9);
        let pure_e = lut.with_objective(Objective::Energy);
        assert!((pure_e.cost(&a) - energy).abs() < 1e-9);
        let identity = lut.with_objective(Objective::Latency);
        assert!((identity.cost(&a) - base).abs() < 1e-12);
    }
}
