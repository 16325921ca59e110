//! The scenario transfer index: descriptor → plan-cache key.
//!
//! [`PlanCache`](crate::PlanCache) answers *exact* repeats; this index
//! answers *similar* ones. Every successfully computed plan registers its
//! [`ScenarioDescriptor`] here; on a plan-cache miss the server asks the
//! index for the K nearest cached scenarios and warm-starts the search
//! from the best usable donor (see `qsdnn::QTable::transfer_from`).
//!
//! The index is deliberately loose about staleness — it stores keys, not
//! values, so an entry can outlive its plan (evicted from memory *and*
//! garbage-collected from the spill tier). Callers therefore treat every
//! entry as a hint: fetch the donor through the plan cache, and on failure
//! call [`ScenarioIndex::remove`] so the index converges back onto what is
//! actually fetchable. That keeps the coupling with the cache's eviction
//! machinery one-directional and lock-free between the two structures.
//!
//! **Bounded:** at most `max_entries` scenarios, FIFO by insertion (a
//! re-inserted scenario refreshes its position). **Durable:** with a
//! directory (the server nests `scenarios/` inside its spill dir), every
//! entry persists as `<base_key>.json` and the constructor reloads the
//! surviving files, so a restarted server keeps warm-starting from its
//! previous life's scenarios.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use qsdnn::engine::{layer_edit_cost, LayerKey, ScenarioDescriptor, ScenarioShape, TagInterner};
use serde::{Deserialize, Serialize};

use crate::protocol::WarmStartInfo;

/// Default bound on indexed scenarios. Distance lookups scan every entry,
/// so the bound also caps miss-path latency. A lookup costs a few hundred
/// nanoseconds per entry plus one `O(layers²)` layer edit cost per
/// distinct layer shape (see [`ScenarioIndex::nearest`]): replaying a
/// seeded 780-scenario zoo draw (26 distinct shapes) into an index
/// measured 0.33 ms mean and 1.0 ms p99 per lookup on a 2-vCPU host,
/// where one edit cost per *entry* had measured 10.7 ms and 47 ms.
pub const DEFAULT_INDEX_ENTRIES: usize = 1024;

/// How many nearest donors a lookup hands back for the caller to try in
/// order (a donor can be stale or map to nothing).
pub const DEFAULT_DONOR_CANDIDATES: usize = 4;

/// Donors farther than this are never offered: past a few whole-unit
/// mismatches (network + objective, say) a transferred table is noise.
const MAX_DONOR_DISTANCE: f64 = 6.0;

/// One indexed scenario.
///
/// `base_key` is the identity — the cold plan key of *(LUT, objective,
/// portfolio spec)* — because two scenarios can share a descriptor while
/// differing in search spec (episode budget, seeds), and each must keep
/// its own plan. `plan_key` is where the scenario's plan actually lives:
/// equal to `base_key` after a cold search, a warm key after a
/// warm-started one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEntry {
    /// The scenario's structural descriptor (the distance key).
    pub descriptor: ScenarioDescriptor,
    /// Cold plan key of the scenario — the entry's identity.
    pub base_key: String,
    /// Plan-cache key its plan lives under (cold or warm).
    pub plan_key: String,
    /// Provenance carried by the indexed plan, when it was itself
    /// warm-started — echoed on cached repeats of the same scenario.
    #[serde(default)]
    pub warm_start: Option<WarmStartInfo>,
}

/// One indexed scenario with its distance inputs, computed once on insert.
struct Indexed {
    /// Insertion sequence: drives FIFO eviction and recency tie-breaks.
    seq: u64,
    /// `Arc`'d so distance scans can snapshot the set cheaply and score
    /// outside the lock.
    entry: Arc<ScenarioEntry>,
    /// In memory only, never persisted; its `layers` is the allocation
    /// every entry of the same shape shares (see `IndexState::shapes`).
    shape: ScenarioShape,
}

struct IndexState {
    /// `base_key` → its indexed scenario.
    map: HashMap<String, Indexed>,
    /// FIFO queue of `(sequence, base_key)`; a pair whose sequence no
    /// longer matches the map (the key was re-inserted) is skipped on
    /// eviction instead of evicting the refreshed entry.
    order: VecDeque<(u64, String)>,
    /// Monotonic insertion counter.
    seq: u64,
    /// Tag ids of every shape in the index and of every probe.
    tags: TagInterner,
    /// Each distinct layer-key sequence of the entries, stored once, with
    /// the number of entries using it. Entries of equal shape share that
    /// one allocation, which is what lets `nearest` memoize the edit cost
    /// by pointer.
    shapes: HashMap<Arc<[LayerKey]>, usize>,
}

impl IndexState {
    fn empty() -> Self {
        IndexState {
            map: HashMap::new(),
            order: VecDeque::new(),
            seq: 0,
            tags: TagInterner::default(),
            shapes: HashMap::new(),
        }
    }

    /// The descriptor's shape, its layer keys shared with every entry of
    /// the same shape; counts one more user of them.
    fn acquire_shape(&mut self, descriptor: &ScenarioDescriptor) -> ScenarioShape {
        let mut shape = ScenarioShape::of(descriptor, &mut self.tags);
        if let Some((shared, _)) = self.shapes.get_key_value(&*shape.layers) {
            shape.layers = Arc::clone(shared);
        }
        *self.shapes.entry(Arc::clone(&shape.layers)).or_insert(0) += 1;
        shape
    }

    /// Removes `base_key`'s entry, if present, and releases its shape.
    fn take(&mut self, base_key: &str) {
        if let Some(gone) = self.map.remove(base_key) {
            self.release_shape(&gone.shape);
        }
    }

    fn release_shape(&mut self, shape: &ScenarioShape) {
        if let Some(users) = self.shapes.get_mut(&*shape.layers) {
            *users -= 1;
            if *users == 0 {
                self.shapes.remove(&*shape.layers);
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Edit-cost evaluations `nearest` made on this thread.
    static EDIT_COSTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Concurrent, bounded, optionally durable map from scenario descriptors
/// to plan-cache keys. See the module docs for the staleness contract.
pub struct ScenarioIndex {
    state: Mutex<IndexState>,
    dir: Option<PathBuf>,
    max_entries: usize,
}

impl ScenarioIndex {
    /// In-memory index bounded to `max_entries` (min 1).
    pub fn new(max_entries: usize) -> Self {
        ScenarioIndex {
            state: Mutex::new(IndexState::empty()),
            dir: None,
            max_entries: max_entries.max(1),
        }
    }

    /// Durable index: entries persist as `<dir>/<base_key>.json` and
    /// the constructor reloads every parseable file (oldest first by
    /// modification time, trimmed to the bound). Unparseable files — a
    /// torn write, an old format — are deleted, not fatal.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or listed.
    pub fn with_dir(dir: impl Into<PathBuf>, max_entries: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut files: Vec<(PathBuf, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "json") {
                let mtime = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                files.push((path, mtime));
            }
        }
        files.sort_by_key(|f| f.1);
        let index = ScenarioIndex {
            state: Mutex::new(IndexState::empty()),
            dir: Some(dir),
            max_entries: max_entries.max(1),
        };
        for (path, _) in files {
            let parsed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|json| serde_json::from_str::<ScenarioEntry>(&json).ok());
            match parsed {
                // Loaded entries are NOT re-persisted: rewriting them
                // would refresh every file's mtime and erase the very
                // age ordering the next reload sorts by.
                Some(entry) => index.insert_entry(entry, false),
                None => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(index)
    }

    fn path_for(&self, base_key: &str) -> Option<PathBuf> {
        // Base keys are 16-hex-digit fingerprints, safe as file names.
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{base_key}.json")))
    }

    fn persist(&self, entry: &ScenarioEntry) {
        let Some(path) = self.path_for(&entry.base_key) else {
            return;
        };
        // Best effort: a lost index file only costs a future warm start.
        if let Ok(json) = serde_json::to_string(entry) {
            let tmp = path.with_extension("json.tmp");
            if std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, &path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    fn unlink(&self, base_key: &str) {
        if let Some(path) = self.path_for(base_key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Registers a scenario's plan. A scenario already present (by
    /// `base_key`) is replaced and refreshed to the back of the eviction
    /// queue; past the bound the oldest entry (and its file) goes.
    pub fn insert(
        &self,
        descriptor: ScenarioDescriptor,
        base_key: String,
        plan_key: String,
        warm_start: Option<WarmStartInfo>,
    ) {
        self.insert_entry(
            ScenarioEntry {
                descriptor,
                base_key,
                plan_key,
                warm_start,
            },
            true,
        );
    }

    fn insert_entry(&self, entry: ScenarioEntry, persist: bool) {
        let entry = Arc::new(entry);
        let evicted: Vec<String> = {
            let mut state = self.state.lock().expect("index lock");
            state.seq += 1;
            let seq = state.seq;
            let shape = state.acquire_shape(&entry.descriptor);
            let indexed = Indexed {
                seq,
                entry: Arc::clone(&entry),
                shape,
            };
            if let Some(replaced) = state.map.insert(entry.base_key.clone(), indexed) {
                state.release_shape(&replaced.shape);
            }
            state.order.push_back((seq, entry.base_key.clone()));
            // Persisting inside the critical section keeps the disk file
            // in lockstep with the in-memory winner when two requests
            // race on one scenario; inserts only happen on fresh
            // computes, so the hot paths (lookup/nearest) never pay for
            // this I/O.
            if persist {
                self.persist(&entry);
            }
            let mut evicted = Vec::new();
            while state.map.len() > self.max_entries {
                let Some((seq, key)) = state.order.pop_front() else {
                    break;
                };
                match state.map.get(&key) {
                    // A stale queue pair: the key was re-inserted later
                    // and its refreshed entry must survive.
                    Some(current) if current.seq != seq => continue,
                    _ => {
                        state.take(&key);
                        evicted.push(key);
                    }
                }
            }
            evicted
        };
        for key in evicted {
            self.unlink(&key);
        }
    }

    /// Drops every entry whose plan lives under `plan_key` — called when
    /// a donor's plan turned out to be gone from both cache tiers.
    pub fn remove(&self, plan_key: &str) {
        let dropped: Vec<String> = {
            let mut state = self.state.lock().expect("index lock");
            let dropped: Vec<String> = state
                .map
                .values()
                .filter(|ix| ix.entry.plan_key == plan_key)
                .map(|ix| ix.entry.base_key.clone())
                .collect();
            for key in &dropped {
                state.take(key);
            }
            dropped
        };
        for key in dropped {
            self.unlink(&key);
        }
    }

    /// The entry for exactly this scenario (`base_key` identity) — how a
    /// repeated warm scenario finds its own cached plan, which lives under
    /// a warm key the exact-match cache lookup cannot derive. `O(1)` and
    /// clone-free: it runs on every plan-cache hit of a transfer-enabled
    /// server.
    pub fn lookup(&self, base_key: &str) -> Option<Arc<ScenarioEntry>> {
        let state = self.state.lock().expect("index lock");
        state.map.get(base_key).map(|ix| Arc::clone(&ix.entry))
    }

    /// The up-to-`k` nearest donor scenarios to `probe` by
    /// [`ScenarioDescriptor::distance`], ascending, excluding the probe's
    /// own scenario (`base_key`) and anything past the transferability
    /// cutoff. An identical descriptor under a *different* base key — the
    /// same network searched with another episode budget, say — is a
    /// perfect (distance-0) donor. Ties break to the more recently
    /// inserted entry, so a batch sweep chains each step off the last.
    ///
    /// Cost: `O(entries + distinct shapes × layers²)`. The layer edit
    /// cost, the only quadratic part of the distance, runs once per
    /// distinct layer-key sequence among the entries; every other term
    /// is `O(1)` per entry on inputs computed at insert.
    pub fn nearest(
        &self,
        probe: &ScenarioDescriptor,
        base_key: &str,
        k: usize,
    ) -> Vec<(Arc<ScenarioEntry>, f64)> {
        // Snapshot under the lock (cheap `Arc` clones), score outside, so
        // the scan never serializes every connection handler on the
        // index mutex.
        let (probe_shape, snapshot) = {
            let mut state = self.state.lock().expect("index lock");
            let probe_shape = ScenarioShape::of(probe, &mut state.tags);
            let snapshot: Vec<(u64, Arc<ScenarioEntry>, ScenarioShape)> = state
                .map
                .values()
                .filter(|ix| ix.entry.base_key != base_key)
                .map(|ix| (ix.seq, Arc::clone(&ix.entry), ix.shape.clone()))
                .collect();
            (probe_shape, snapshot)
        };
        // Equal shapes share one `layers` allocation, so its address
        // identifies the shape.
        let mut edits: HashMap<*const LayerKey, f64> = HashMap::new();
        let mut scored: Vec<(u64, Arc<ScenarioEntry>, f64)> = snapshot
            .into_iter()
            .map(|(seq, e, shape)| {
                let edit = *edits
                    .entry(Arc::as_ptr(&shape.layers).cast())
                    .or_insert_with(|| {
                        #[cfg(test)]
                        EDIT_COSTS.with(|n| n.set(n.get() + 1));
                        layer_edit_cost(&probe_shape.layers, &shape.layers)
                    });
                let d = probe.distance_with_shapes(&e.descriptor, &probe_shape, &shape, edit);
                (seq, e, d)
            })
            .filter(|(_, _, d)| d.is_finite() && *d <= MAX_DONOR_DISTANCE)
            .collect();
        scored.sort_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)));
        scored.truncate(k);
        scored.into_iter().map(|(_, e, d)| (e, d)).collect()
    }

    /// Scenarios currently indexed.
    pub fn len(&self) -> usize {
        self.state.lock().expect("index lock").map.len()
    }

    /// Whether the index holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsdnn::engine::{toy, Objective};

    fn desc(batch: usize) -> ScenarioDescriptor {
        ScenarioDescriptor::of(&toy::small_chain_lut())
            .with_batch(batch)
            .with_objective(&Objective::Latency)
    }

    fn other_desc() -> ScenarioDescriptor {
        ScenarioDescriptor::of(&toy::fig1_lut())
            .with_batch(1)
            .with_objective(&Objective::Latency)
    }

    /// Shorthand: base key and plan key coincide (a cold entry).
    fn put(index: &ScenarioIndex, d: ScenarioDescriptor, key: &str) {
        index.insert(d, key.to_string(), key.to_string(), None);
    }

    #[test]
    fn nearest_ranks_batch_neighbors_first() {
        let index = ScenarioIndex::new(16);
        put(&index, other_desc(), "other");
        put(&index, desc(1), "b1");
        put(&index, desc(8), "b8");
        let near = index.nearest(&desc(2), "probe", 3);
        assert_eq!(near.len(), 3);
        assert_eq!(near[0].0.plan_key, "b1", "closest batch first");
        assert_eq!(near[1].0.plan_key, "b8");
        assert!(near[0].1 < near[1].1 && near[1].1 < near[2].1);
        // A scenario is never its own donor…
        let self_near = index.nearest(&desc(1), "b1", 3);
        assert!(self_near.iter().all(|(e, _)| e.base_key != "b1"));
        // …but an identical descriptor under a different base key (same
        // scenario, different search spec) is a perfect distance-0 donor.
        let twin = index.nearest(&desc(8), "not-b8", 1);
        assert_eq!(twin[0].0.plan_key, "b8");
        assert_eq!(twin[0].1, 0.0);
    }

    #[test]
    fn nearest_runs_one_edit_cost_per_distinct_shape() {
        let index = ScenarioIndex::new(64);
        // Batch variants share one layer shape; fig1 is a second shape.
        for batch in [1, 2, 4, 8, 16] {
            put(&index, desc(batch), &format!("chain-{batch}"));
            index.insert(
                desc(batch).with_objective(&Objective::Energy),
                format!("chain-energy-{batch}"),
                format!("chain-energy-{batch}"),
                None,
            );
        }
        put(&index, other_desc(), "fig1");
        put(&index, other_desc().with_batch(2), "fig1-b2");
        let evaluations = |probe: &ScenarioDescriptor, base_key: &str| {
            let before = EDIT_COSTS.with(|n| n.get());
            let near = index.nearest(probe, base_key, 4);
            (EDIT_COSTS.with(|n| n.get()) - before, near)
        };
        let (evals, near) = evaluations(&desc(2), "probe");
        assert_eq!(evals, 2, "12 entries in 2 shapes");
        assert_eq!(near[0].0.base_key, "chain-2");
        // Excluding every entry of one shape leaves one evaluation.
        index.remove("fig1");
        index.remove("fig1-b2");
        assert_eq!(evaluations(&other_desc(), "probe").0, 1);
        // Every lookup starts its memo afresh.
        assert_eq!(evaluations(&other_desc(), "probe").0, 1);
        // A probe's own entry is not scored.
        let empty = ScenarioIndex::new(4);
        put(&empty, desc(1), "self");
        let before = EDIT_COSTS.with(|n| n.get());
        assert!(empty.nearest(&desc(1), "self", 4).is_empty());
        assert_eq!(EDIT_COSTS.with(|n| n.get()), before);
    }

    #[test]
    fn shapes_are_shared_and_released_with_their_entries() {
        let index = ScenarioIndex::new(3);
        put(&index, desc(1), "b1");
        put(&index, desc(2), "b2");
        put(&index, other_desc(), "fig1");
        let users = |index: &ScenarioIndex| {
            let state = index.state.lock().unwrap();
            let mut users: Vec<usize> = state.shapes.values().copied().collect();
            users.sort_unstable();
            users
        };
        assert_eq!(users(&index), vec![1, 2]);
        // Replacing an entry swaps its shape's user; FIFO eviction and
        // removal release theirs.
        index.insert(other_desc(), "b1".into(), "b1".into(), None);
        assert_eq!(users(&index), vec![1, 2]);
        put(&index, desc(4), "b4");
        assert_eq!(index.len(), 3);
        index.remove("fig1");
        index.remove("b1");
        assert_eq!(users(&index), vec![1]);
        index.remove("b4");
        assert!(users(&index).is_empty());
    }

    #[test]
    fn lookup_is_keyed_by_base_key_and_replaces() {
        let index = ScenarioIndex::new(16);
        put(&index, desc(1), "b1");
        assert_eq!(index.lookup("b1").expect("present").plan_key, "b1");
        assert!(index.lookup("b2").is_none());
        // Re-registering the same scenario (e.g. after a warm start moved
        // its plan under a warm key) replaces, never duplicates.
        index.insert(desc(1), "b1".into(), "b1-warm".into(), None);
        assert_eq!(index.len(), 1);
        assert_eq!(index.lookup("b1").expect("present").plan_key, "b1-warm");
        // Same descriptor, different search spec: a separate entry.
        index.insert(desc(1), "b1-eps2".into(), "b1-eps2".into(), None);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn bound_evicts_oldest_first() {
        let index = ScenarioIndex::new(2);
        put(&index, desc(1), "b1");
        put(&index, desc(2), "b2");
        put(&index, desc(4), "b4");
        assert_eq!(index.len(), 2);
        assert!(index.lookup("b1").is_none(), "oldest evicted");
        assert!(index.lookup("b4").is_some());
    }

    #[test]
    fn remove_drops_stale_plan_keys() {
        let index = ScenarioIndex::new(16);
        index.insert(desc(1), "s1".into(), "gone".into(), None);
        index.insert(desc(2), "s2".into(), "kept".into(), None);
        index.remove("gone");
        assert_eq!(index.len(), 1);
        assert!(index
            .nearest(&desc(4), "probe", 8)
            .iter()
            .all(|(e, _)| e.plan_key == "kept"));
    }

    #[test]
    fn durable_index_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("qsdnn_scidx_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let index = ScenarioIndex::with_dir(&dir, 16).unwrap();
            put(&index, desc(1), "b1");
            put(&index, desc(2), "b2");
        }
        // Plus one corrupt file that must be swept, not crash the reload.
        std::fs::write(dir.join("deadbeef00000000.json"), "{not json").unwrap();
        let reloaded = ScenarioIndex::with_dir(&dir, 16).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.lookup("b1").expect("reloaded").plan_key, "b1");
        assert!(
            !dir.join("deadbeef00000000.json").exists(),
            "corrupt entries are deleted on reload"
        );
        // Eviction unlinks files, so a re-open honors the bound.
        let bounded = ScenarioIndex::with_dir(&dir, 1).unwrap();
        assert_eq!(bounded.len(), 1);
        drop(bounded);
        let reopened = ScenarioIndex::with_dir(&dir, 16).unwrap();
        assert_eq!(reopened.len(), 1, "evicted entries stay gone on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hopeless_donors_are_never_offered() {
        let index = ScenarioIndex::new(16);
        let mut far = other_desc();
        far.platform = "saturn-v".into();
        far.mode = "fpga".into();
        far.objective = "carbon".into();
        // network+platform+mode+objective mismatches: 1+2+2+4 > cutoff.
        put(&index, far, "far");
        assert!(index.nearest(&desc(1), "probe", 4).is_empty());
    }
}
