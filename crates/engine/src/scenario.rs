//! Structured scenario descriptors for cross-scenario transfer.
//!
//! The plan cache's content addressing is deliberately exact: one bit of
//! difference in a profiled time produces a different fingerprint and a
//! cold search. A [`ScenarioDescriptor`] is the *similarity* counterpart —
//! a compact structural summary of one search scenario (network, per-layer
//! type and candidate-set summary, batch, platform configuration and
//! objective) with a [`ScenarioDescriptor::distance`] premetric, so a
//! service can find the *nearest* previously-solved scenario and
//! warm-start a new search from its plan instead of starting from scratch
//! (Mulder et al.'s transfer observation, ROADMAP "cross-scenario
//! transfer").
//!
//! Descriptors never replace fingerprints as cache keys; they are the
//! index key that maps "similar enough" scenarios onto each other.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use qsdnn_primitives::Primitive;

use crate::fingerprint::write_primitive;
use crate::{CostLut, Fnv64, Objective};

/// Structural summary of one layer of a scenario: its type, its candidate
/// primitives and their profiled costs (in the scenario's objective units).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Layer type discriminant (stable lowercase [`LayerTag`] name).
    ///
    /// [`LayerTag`]: qsdnn_nn::LayerTag
    pub tag: String,
    /// The layer's admissible primitives, in LUT candidate order.
    pub candidates: Vec<Primitive>,
    /// Mean profiled cost per candidate, parallel to `candidates`.
    pub cost: Vec<f64>,
    /// Stable hash of the candidate identities (order-sensitive) — two
    /// layers with equal signatures offer the exact same choice set.
    pub candidate_sig: u64,
}

/// A compact, structured description of one *(network, batch, platform,
/// objective)* search scenario, extracted from its Phase-1 LUT.
///
/// Equality of descriptors is looser than equality of LUT fingerprints:
/// two profiling runs with slightly different measured times produce
/// different fingerprints but (time scale aside) nearby descriptors. The
/// [`ScenarioDescriptor::distance`] premetric quantifies that proximity.
///
/// # Examples
///
/// ```
/// use qsdnn_engine::{toy, ScenarioDescriptor};
///
/// let a = ScenarioDescriptor::of(&toy::fig1_lut());
/// let b = ScenarioDescriptor::of(&toy::small_chain_lut());
/// assert_eq!(a.distance(&a), 0.0, "a scenario is zero-distance from itself");
/// assert_eq!(a.distance(&b), b.distance(&a), "distance is symmetric");
/// assert!(a.distance(&b) > 0.0, "different scenarios are apart");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDescriptor {
    /// Network name the LUT was profiled from.
    pub network: String,
    /// Platform name the profile came from.
    pub platform: String,
    /// Processor mode label (`"cpu"` / `"gpgpu"`).
    pub mode: String,
    /// Batch size of the scenario; 0 when unknown (e.g. a client-supplied
    /// LUT whose request did not carry one).
    #[serde(default)]
    pub batch: usize,
    /// Objective tag (see [`Objective::tag`]); empty when unknown.
    #[serde(default)]
    pub objective: String,
    /// Numeric platform summary from [`PlatformSpec::features`]; empty
    /// when the scenario predates platform selection (or came from a
    /// default-platform request, which stays byte-identical to the
    /// pre-registry service). When both sides carry features, the
    /// platform distance term grows smoothly with spec divergence
    /// instead of being a flat mismatch penalty.
    ///
    /// [`PlatformSpec::features`]: crate::PlatformSpec::features
    #[serde(default)]
    pub platform_features: Vec<f64>,
    /// Per-layer structural summaries, in topological order.
    pub layers: Vec<LayerSummary>,
}

/// Distance contributed by a differing platform or mode (either makes
/// profiled numbers incomparable in scale, though structure still maps).
const PLATFORM_MISMATCH: f64 = 2.0;
/// Distance contributed by a differing network name (structure may still
/// align layer by layer; the name mismatch keeps same-network donors
/// preferred).
const NETWORK_MISMATCH: f64 = 1.0;
/// Distance contributed by a differing objective: a latency-optimal donor
/// plan says little about an energy-optimal one.
const OBJECTIVE_MISMATCH: f64 = 4.0;
/// Weight of one doubling of the batch size.
const PER_BATCH_DOUBLING: f64 = 0.25;
/// Weight of one e-fold difference in total profiled cost.
const PER_SCALE_EFOLD: f64 = 0.1;

impl ScenarioDescriptor {
    /// Extracts the descriptor of a LUT. Pure and deterministic: equal LUTs
    /// always yield equal descriptors (and equal
    /// [`ScenarioDescriptor::fingerprint`]s), like [`CostLut::fingerprint`].
    ///
    /// Batch and objective are not recorded in the LUT; use
    /// [`ScenarioDescriptor::with_batch`] / [`ScenarioDescriptor::with_objective`]
    /// to attach them when known.
    pub fn of(lut: &CostLut) -> Self {
        let layers = lut
            .layers()
            .iter()
            .map(|l| {
                let mut h = Fnv64::new();
                for p in &l.candidates {
                    write_primitive(&mut h, p);
                }
                LayerSummary {
                    tag: l.tag.name().to_string(),
                    candidates: l.candidates.clone(),
                    cost: l.time_ms.clone(),
                    candidate_sig: h.finish(),
                }
            })
            .collect();
        ScenarioDescriptor {
            network: lut.network().to_string(),
            platform: lut.platform().to_string(),
            mode: lut.mode().label().to_string(),
            batch: 0,
            objective: String::new(),
            platform_features: Vec::new(),
            layers,
        }
    }

    /// Returns the descriptor with the scenario's batch size attached.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Returns the descriptor with the scenario's objective attached.
    pub fn with_objective(mut self, objective: &Objective) -> Self {
        self.objective = objective.tag();
        self
    }

    /// Returns the descriptor with a platform feature vector attached
    /// (see [`PlatformSpec::features`]). Only non-default-platform
    /// scenarios attach one, so legacy descriptors keep their exact
    /// fingerprints.
    ///
    /// [`PlatformSpec::features`]: crate::PlatformSpec::features
    pub fn with_platform_features(mut self, features: Vec<f64>) -> Self {
        self.platform_features = features;
        self
    }

    /// Stable 64-bit content fingerprint of the descriptor — the identity
    /// under which a scenario index stores it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("qsdnn-scenario-v1");
        h.write_str(&self.network);
        h.write_str(&self.platform);
        h.write_str(&self.mode);
        h.write_usize(self.batch);
        h.write_str(&self.objective);
        // Marker-style: absent features hash exactly as they did before
        // platform selection existed, keeping legacy identities stable.
        if !self.platform_features.is_empty() {
            h.write_str("platform-features");
            h.write_usize(self.platform_features.len());
            for &v in &self.platform_features {
                h.write_f64(v);
            }
        }
        h.write_usize(self.layers.len());
        for l in &self.layers {
            h.write_str(&l.tag);
            h.write_u64(l.candidate_sig);
            h.write_usize(l.cost.len());
            for &t in &l.cost {
                h.write_f64(t);
            }
        }
        h.finish()
    }

    /// Sum of all per-candidate costs — the scenario's overall cost scale.
    pub fn total_cost(&self) -> f64 {
        self.layers.iter().map(|l| l.cost.iter().sum::<f64>()).sum()
    }

    /// Scenario similarity: layer-structure edit cost plus parameter
    /// deltas. This is a *premetric* — `d(a, a) == 0`, `d(a, b) == d(b, a)`
    /// and `d(a, b) >= 0` for all descriptors (the triangle inequality is
    /// not guaranteed and not needed for nearest-neighbor ranking).
    ///
    /// Lower is more transferable: 0 is the same scenario; a batch
    /// neighbor of the same network scores fractions of 1; a different
    /// network, platform or objective adds whole units.
    pub fn distance(&self, other: &ScenarioDescriptor) -> f64 {
        let mut tags = TagInterner::default();
        let own = ScenarioShape::of(self, &mut tags);
        let theirs = ScenarioShape::of(other, &mut tags);
        let edit = layer_edit_cost(&own.layers, &theirs.layers);
        self.distance_with_shapes(other, &own, &theirs, edit)
    }

    /// [`ScenarioDescriptor::distance`] from precomputed inputs: both
    /// descriptors' shapes (built through one [`TagInterner`]) and the
    /// [`layer_edit_cost`] between them. The edit cost depends on the two
    /// layer-key sequences only, so a caller scoring many descriptors can
    /// compute it once per distinct pair of layer sequences. `distance` is
    /// this function with both computed on the spot, so the two agree bit
    /// for bit.
    pub fn distance_with_shapes(
        &self,
        other: &ScenarioDescriptor,
        own: &ScenarioShape,
        theirs: &ScenarioShape,
        edit: f64,
    ) -> f64 {
        // The summation order below is part of the result's bits.
        let mut d = 0.0;
        if self.network != other.network {
            d += NETWORK_MISMATCH;
        }
        if self.platform != other.platform {
            d += platform_divergence(self, other);
        }
        if self.mode != other.mode {
            d += PLATFORM_MISMATCH;
        }
        if self.objective != other.objective {
            d += OBJECTIVE_MISMATCH;
        }
        let (ba, bb) = (self.batch.max(1) as f64, other.batch.max(1) as f64);
        d += PER_BATCH_DOUBLING * (ba.log2() - bb.log2()).abs();
        let longest = own.layers.len().max(theirs.layers.len());
        if longest > 0 {
            d += edit / longest as f64;
        }
        let (ta, tb) = (own.total_cost, theirs.total_cost);
        if ta > 0.0 && tb > 0.0 && ta.is_finite() && tb.is_finite() {
            d += PER_SCALE_EFOLD * (ta.ln() - tb.ln()).abs();
        }
        d
    }
}

/// One layer as the edit cost sees it: an interned tag id and the
/// candidate-set signature. Two keys built through the same
/// [`TagInterner`] are equal exactly when the layers' tags and candidate
/// signatures are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerKey {
    tag: usize,
    candidate_sig: u64,
}

/// Dense ids for layer tag strings, so the edit cost compares integers
/// instead of strings. Ids are comparable only between keys built
/// through the same interner, which grows by one entry per distinct tag
/// it sees.
#[derive(Debug, Default)]
pub struct TagInterner {
    ids: HashMap<String, usize>,
}

impl TagInterner {
    /// The tag's id, assigning the next free one on first sight.
    pub fn intern(&mut self, tag: &str) -> usize {
        if let Some(&id) = self.ids.get(tag) {
            return id;
        }
        let id = self.ids.len();
        self.ids.insert(tag.to_string(), id);
        id
    }
}

/// The layer-dependent inputs of [`ScenarioDescriptor::distance`],
/// precomputed: the interned per-layer keys and the total profiled cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioShape {
    /// One key per layer, in topological order. Shared, so equal shapes
    /// can point at one allocation.
    pub layers: Arc<[LayerKey]>,
    /// [`ScenarioDescriptor::total_cost`].
    pub total_cost: f64,
}

impl ScenarioShape {
    /// The shape of `desc`, its layer tags interned through `tags`.
    pub fn of(desc: &ScenarioDescriptor, tags: &mut TagInterner) -> Self {
        ScenarioShape {
            layers: desc
                .layers
                .iter()
                .map(|l| LayerKey {
                    tag: tags.intern(&l.tag),
                    candidate_sig: l.candidate_sig,
                })
                .collect(),
            total_cost: desc.total_cost(),
        }
    }
}

/// Platform term of the distance, used when the platform *names* differ.
/// With feature vectors on both sides (see
/// [`PlatformSpec::features`](crate::PlatformSpec::features)) the term is
/// `PLATFORM_MISMATCH · m/(m+1)` where `m` is the mean absolute
/// feature delta — zero for identically-specced twins, strictly
/// increasing in spec divergence, and always below the flat
/// [`PLATFORM_MISMATCH`] so cross-platform donors stay inside the serve
/// layer's donor cutoff. Without features (legacy descriptors,
/// default-platform scenarios) it degrades to the historical flat
/// penalty. Symmetric by construction.
fn platform_divergence(a: &ScenarioDescriptor, b: &ScenarioDescriptor) -> f64 {
    if a.platform_features.is_empty() || a.platform_features.len() != b.platform_features.len() {
        return PLATFORM_MISMATCH;
    }
    let n = a.platform_features.len() as f64;
    let mean = a
        .platform_features
        .iter()
        .zip(&b.platform_features)
        .map(|(x, y)| (x - y).abs())
        .sum::<f64>()
        / n;
    if !mean.is_finite() {
        return PLATFORM_MISMATCH;
    }
    PLATFORM_MISMATCH * mean / (mean + 1.0)
}

/// Substitution cost between two layers, in half units: free for an
/// identical choice set, half for the same layer type with a different
/// candidate set, full for a type change. Symmetric by construction.
fn substitution_halves(a: LayerKey, b: LayerKey) -> u32 {
    if a.tag != b.tag {
        2
    } else if a.candidate_sig != b.candidate_sig {
        1
    } else {
        0
    }
}

/// Levenshtein-style edit cost over two layer-key sequences (insert/delete
/// cost 1, substitution per [`substitution_halves`]). Every cost is a
/// multiple of one half, so the DP runs exactly in integer half units.
/// `O(n·m)`.
pub fn layer_edit_cost(a: &[LayerKey], b: &[LayerKey]) -> f64 {
    let m = b.len();
    let mut prev: Vec<u32> = (0..=m as u32).map(|j| 2 * j).collect();
    let mut row = vec![0u32; m + 1];
    for (i, &ka) in a.iter().enumerate() {
        row[0] = 2 * (i as u32 + 1);
        for (j, &kb) in b.iter().enumerate() {
            let sub = prev[j] + substitution_halves(ka, kb);
            let del = prev[j + 1] + 2;
            let ins = row[j] + 2;
            row[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    f64::from(prev[m]) * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn extraction_is_deterministic() {
        let lut = toy::small_chain_lut();
        let a = ScenarioDescriptor::of(&lut);
        let b = ScenarioDescriptor::of(&lut);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn batch_and_objective_separate_fingerprints() {
        let base = ScenarioDescriptor::of(&toy::fig1_lut());
        let batched = base.clone().with_batch(4);
        let energetic = base.clone().with_objective(&Objective::Energy);
        assert_ne!(base.fingerprint(), batched.fingerprint());
        assert_ne!(base.fingerprint(), energetic.fingerprint());
        assert_ne!(batched.fingerprint(), energetic.fingerprint());
    }

    #[test]
    fn distance_is_a_premetric_on_toys() {
        let a = ScenarioDescriptor::of(&toy::fig1_lut()).with_batch(1);
        let b = ScenarioDescriptor::of(&toy::small_chain_lut()).with_batch(4);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(b.distance(&b), 0.0);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b) >= 0.0);
    }

    #[test]
    fn batch_neighbors_are_closer_than_other_networks() {
        let base = ScenarioDescriptor::of(&toy::small_chain_lut()).with_batch(1);
        let batch2 = ScenarioDescriptor::of(&toy::small_chain_lut()).with_batch(2);
        let other = ScenarioDescriptor::of(&toy::fig1_lut()).with_batch(1);
        let near = base.distance(&batch2);
        let far = base.distance(&other);
        assert!(
            near < far,
            "batch neighbor ({near}) must beat a different network ({far})"
        );
        assert!(near <= PER_BATCH_DOUBLING + 1e-12, "only the batch differs");
    }

    #[test]
    fn objective_mismatch_dominates_batch_deltas() {
        let lat = ScenarioDescriptor::of(&toy::small_chain_lut())
            .with_batch(1)
            .with_objective(&Objective::Latency);
        let nrg = ScenarioDescriptor::of(&toy::small_chain_lut())
            .with_batch(1)
            .with_objective(&Objective::Energy);
        let batch8 = ScenarioDescriptor::of(&toy::small_chain_lut())
            .with_batch(8)
            .with_objective(&Objective::Latency);
        assert!(lat.distance(&nrg) > lat.distance(&batch8));
    }

    #[test]
    fn edit_cost_sees_structure() {
        let chain = ScenarioDescriptor::of(&toy::small_chain_lut());
        let mut shorter = chain.clone();
        shorter.layers.pop();
        // One deletion over max-length layers.
        let d = chain.distance(&shorter);
        assert!(d > 0.0 && d <= 1.0, "structural delta is bounded: {d}");
    }

    /// The edit cost over string tags in floating point, as the DP read
    /// before it moved onto interned keys and integer half units.
    fn string_edit_cost(a: &[LayerSummary], b: &[LayerSummary]) -> f64 {
        let sub = |x: &LayerSummary, y: &LayerSummary| {
            if x.tag != y.tag {
                1.0
            } else if x.candidate_sig != y.candidate_sig {
                0.5
            } else {
                0.0
            }
        };
        let mut prev: Vec<f64> = (0..=b.len()).map(|j| j as f64).collect();
        for (i, x) in a.iter().enumerate() {
            let mut row = vec![(i + 1) as f64; b.len() + 1];
            for (j, y) in b.iter().enumerate() {
                row[j + 1] = (prev[j] + sub(x, y))
                    .min(prev[j + 1] + 1.0)
                    .min(row[j] + 1.0);
            }
            prev = row;
        }
        prev[b.len()]
    }

    #[test]
    fn interned_half_unit_edit_cost_matches_the_string_dp() {
        let layer = |tag: &str, sig: u64| LayerSummary {
            tag: tag.to_string(),
            candidates: Vec::new(),
            cost: vec![1.0],
            candidate_sig: sig,
        };
        // A small deterministic LCG walks tags, signatures and lengths.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let tags = ["conv", "fc", "relu", "pool"];
        let mut seq = || -> Vec<LayerSummary> {
            let len = next(9);
            (0..len)
                .map(|_| layer(tags[next(4) as usize], next(3)))
                .collect()
        };
        for _ in 0..200 {
            let (a, b) = (seq(), seq());
            let mut interner = TagInterner::default();
            let mut shape = |layers: &[LayerSummary]| {
                let mut d = ScenarioDescriptor::of(&toy::fig1_lut());
                d.layers = layers.to_vec();
                ScenarioShape::of(&d, &mut interner)
            };
            let (sa, sb) = (shape(&a), shape(&b));
            assert_eq!(
                layer_edit_cost(&sa.layers, &sb.layers).to_bits(),
                string_edit_cost(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn platform_term_is_monotone_in_spec_divergence_and_bounded() {
        use crate::PlatformSpec;
        let mk = |name: &str, features: Vec<f64>| {
            let mut d = ScenarioDescriptor::of(&toy::small_chain_lut()).with_batch(1);
            d.platform = name.to_string();
            d.with_platform_features(features)
        };
        let base = mk("a", PlatformSpec::tx2().features());
        let mut mild_spec = PlatformSpec::tx2();
        if let Some(gpu) = &mut mild_spec.gpu {
            gpu.compute_scale = 1.5;
        }
        let mild = mk("b", mild_spec.features());
        let wild = mk("c", PlatformSpec::gpu_heavy().features());
        let legacy = mk("d", Vec::new());
        let (near, far, flat) = (
            base.distance(&mild),
            base.distance(&wild),
            base.distance(&legacy),
        );
        assert!(near > 0.0, "diverging specs must be apart: {near}");
        assert!(
            near < far,
            "more divergence, more distance: {near} vs {far}"
        );
        assert!(
            far < PLATFORM_MISMATCH,
            "featured divergence stays below the flat penalty: {far}"
        );
        assert_eq!(
            flat, PLATFORM_MISMATCH,
            "legacy descriptors keep the flat term"
        );
        // Identically-specced twins under different names are free.
        let twin = mk("e", PlatformSpec::tx2().features());
        assert_eq!(base.distance(&twin), 0.0);
        // Still symmetric with features on.
        assert_eq!(base.distance(&wild), wild.distance(&base));
    }

    #[test]
    fn platform_features_change_fingerprint_only_when_present() {
        let base = ScenarioDescriptor::of(&toy::fig1_lut());
        let with_features = base
            .clone()
            .with_platform_features(crate::PlatformSpec::gpu_heavy().features());
        assert_ne!(base.fingerprint(), with_features.fingerprint());
        // An explicitly-empty vector is the absent marker: same identity.
        assert_eq!(
            base.fingerprint(),
            base.clone()
                .with_platform_features(Vec::new())
                .fingerprint()
        );
    }

    #[test]
    fn serde_roundtrip() {
        let desc = ScenarioDescriptor::of(&toy::fig1_lut())
            .with_batch(2)
            .with_objective(&Objective::Weighted { lambda: 0.5 });
        let json = serde_json::to_string(&desc).expect("serializes");
        let back: ScenarioDescriptor = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(desc, back);
        assert_eq!(desc.fingerprint(), back.fingerprint());
    }
}
