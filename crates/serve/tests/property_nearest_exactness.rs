//! Exactness of `ScenarioIndex::nearest` against a naive reference.
//!
//! `nearest` precomputes each entry's shape on insert and runs the layer
//! edit cost once per distinct shape per lookup. Neither may change a
//! single bit of the answer: over random index histories (repeated
//! shapes, tags no entry carries, mixed lengths, removals, FIFO
//! evictions and reloads from disk), every lookup must return exactly
//! what scoring every live entry with `ScenarioDescriptor::distance`,
//! dropping those past the donor cutoff and sorting by (distance, newer
//! first) returns — same entries, same order, same distance bits.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, UNIX_EPOCH};

use proptest::prelude::*;
use qsdnn::engine::{LayerSummary, ScenarioDescriptor};
use qsdnn_serve::{ScenarioEntry, ScenarioIndex};

/// The serve layer's donor cutoff (`MAX_DONOR_DISTANCE` in
/// `qsdnn-serve/src/transfer.rs`).
const DONOR_CUTOFF: f64 = 6.0;
/// Index bound: small, so histories evict.
const MAX_ENTRIES: usize = 6;
/// Base keys drawn from a pool barely larger than the bound, so inserts
/// also replace live entries.
const KEYS: u64 = 9;
const TAGS: [&str; 4] = ["conv", "fc", "relu", "pool"];

/// Successive draws from one random word (splitmix64).
struct Draw(u64);

impl Draw {
    fn next(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.next(options.len() as u64) as usize]
    }
}

/// A layer sequence: `(tag, candidate signature)` per layer.
type Shape = Vec<(String, u64)>;

/// A few shapes of mixed lengths (the empty one included), shared by
/// every descriptor of a case so shapes repeat.
fn palette(seed: u64) -> Vec<Shape> {
    let mut draw = Draw(seed);
    (0..5)
        .map(|i| {
            let len = if i == 0 { 0 } else { draw.next(9) };
            (0..len)
                .map(|_| (draw.pick(&TAGS).to_string(), draw.next(3)))
                .collect()
        })
        .collect()
}

fn descriptor(shape: &Shape, draw: &mut Draw) -> ScenarioDescriptor {
    let layers = shape
        .iter()
        .map(|(tag, sig)| LayerSummary {
            tag: tag.clone(),
            candidates: Vec::new(),
            cost: (0..1 + draw.next(3))
                .map(|_| draw.next(1000) as f64 / 100.0)
                .collect(),
            candidate_sig: *sig,
        })
        .collect();
    let platform_features = match draw.next(3) {
        0 => Vec::new(),
        n => vec![n as f64, draw.next(5) as f64 / 2.0],
    };
    ScenarioDescriptor {
        network: draw.pick(&["lenet5", "resnet18"]).to_string(),
        platform: draw.pick(&["sim-tx2", "sim-gpu-heavy"]).to_string(),
        mode: draw.pick(&["cpu", "gpgpu"]).to_string(),
        batch: [0, 1, 2, 4, 8][draw.next(5) as usize],
        objective: draw.pick(&["latency", "energy", ""]).to_string(),
        platform_features,
        layers,
    }
}

/// A probe: usually a palette shape, sometimes one carrying a tag that
/// no entry has.
fn probe(palette: &[Shape], draw: &mut Draw) -> ScenarioDescriptor {
    let mut shape = palette[draw.next(palette.len() as u64) as usize].clone();
    if draw.next(3) == 0 {
        let at = draw.next(shape.len() as u64 + 1) as usize;
        shape.insert(at, ("mystery".to_string(), draw.next(3)));
    }
    descriptor(&shape, draw)
}

/// What the index should hold: live entries with their insertion
/// sequence.
#[derive(Default)]
struct Model {
    entries: Vec<(u64, ScenarioEntry)>,
    seq: u64,
}

impl Model {
    fn insert(&mut self, entry: ScenarioEntry) {
        self.entries.retain(|(_, e)| e.base_key != entry.base_key);
        self.seq += 1;
        self.entries.push((self.seq, entry));
        if self.entries.len() > MAX_ENTRIES {
            let oldest = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].0)
                .expect("non-empty");
            self.entries.remove(oldest);
        }
    }

    fn remove(&mut self, plan_key: &str) {
        self.entries.retain(|(_, e)| e.plan_key != plan_key);
    }

    /// The naive `nearest`: score everything, filter, sort, truncate.
    fn nearest(
        &self,
        probe: &ScenarioDescriptor,
        base_key: &str,
        k: usize,
    ) -> Vec<(ScenarioEntry, f64)> {
        let mut scored: Vec<(u64, &ScenarioEntry, f64)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.base_key != base_key)
            .map(|(seq, e)| (*seq, e, probe.distance(&e.descriptor)))
            .filter(|(_, _, d)| d.is_finite() && *d <= DONOR_CUTOFF)
            .collect();
        scored.sort_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)));
        scored
            .into_iter()
            .take(k)
            .map(|(_, e, d)| (e.clone(), d))
            .collect()
    }
}

/// Reopens the index from `dir`, first stamping each file's modification
/// time with its entry's insertion order: the reload orders entries by
/// modification time, and files written within one clock tick would
/// otherwise reload in directory order.
fn reload(dir: &Path, model: &Model) -> ScenarioIndex {
    for (seq, entry) in &model.entries {
        let path = dir.join(format!("{}.json", entry.base_key));
        let on_disk = std::fs::read_to_string(&path).expect("live entry is on disk");
        assert_eq!(
            on_disk,
            serde_json::to_string(entry).expect("serializes"),
            "the file holds the entry's JSON and nothing else"
        );
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(UNIX_EPOCH + Duration::from_secs(1_000_000 + seq)))
            .expect("stamp mtime");
    }
    ScenarioIndex::with_dir(dir, MAX_ENTRIES).expect("reopen")
}

fn scratch_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qsdnn_nearest_exact_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same(got: &[(std::sync::Arc<ScenarioEntry>, f64)], want: &[(ScenarioEntry, f64)]) {
    assert_eq!(got.len(), want.len(), "donor count");
    for ((ge, gd), (we, wd)) in got.iter().zip(want) {
        assert_eq!(**ge, *we, "same donors in the same order");
        assert_eq!(gd.to_bits(), wd.to_bits(), "distance bits: {gd} vs {wd}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nearest_equals_the_naive_reference(
        shape_seed in 0u64..u64::MAX,
        ops in proptest::collection::vec(0u64..u64::MAX, 20..60),
    ) {
        let palette = palette(shape_seed);
        let dir = scratch_dir();
        let mut index = ScenarioIndex::with_dir(&dir, MAX_ENTRIES).expect("index dir");
        let mut model = Model::default();
        for word in ops {
            let mut draw = Draw(word);
            match draw.next(10) {
                0..=5 => {
                    let shape = &palette[draw.next(palette.len() as u64) as usize];
                    let descriptor = descriptor(shape, &mut draw);
                    let base_key = format!("k{}", draw.next(KEYS));
                    // Some plans live under a key several entries share,
                    // so one removal can drop more than one entry.
                    let plan_key = if draw.next(3) == 0 {
                        format!("shared{}", draw.next(2))
                    } else {
                        base_key.clone()
                    };
                    index.insert(descriptor.clone(), base_key.clone(), plan_key.clone(), None);
                    model.insert(ScenarioEntry {
                        descriptor,
                        base_key,
                        plan_key,
                        warm_start: None,
                    });
                }
                6 | 7 => {
                    let plan_key = match draw.next(3) {
                        0 => format!("shared{}", draw.next(2)),
                        _ => format!("k{}", draw.next(KEYS)),
                    };
                    index.remove(&plan_key);
                    model.remove(&plan_key);
                }
                _ => {
                    drop(index);
                    index = reload(&dir, &model);
                }
            }
            prop_assert_eq!(index.len(), model.entries.len());
            let probe = probe(&palette, &mut draw);
            let base_key = format!("k{}", draw.next(KEYS + 2));
            let k = 1 + draw.next(MAX_ENTRIES as u64 + 1) as usize;
            assert_same(&index.nearest(&probe, &base_key, k), &model.nearest(&probe, &base_key, k));
        }
        drop(index);
        std::fs::remove_dir_all(&dir).ok();
    }
}
