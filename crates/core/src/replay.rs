//! Experience replay (paper §IV.C, buffer size 128 following Baker et al.).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use serde::{Deserialize, Serialize};

/// One stored transition: at layer `layer`, with layer `layer - 1` running
/// candidate `prev`, action `action` was taken and reward `reward`
/// (negative step time) was received. The successor state is `(layer + 1,
/// action)` by construction; `terminal` marks the last layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Layer index of the action.
    pub layer: usize,
    /// Candidate chosen at the previous layer (0 when `layer == 0`).
    pub prev: usize,
    /// Candidate chosen at `layer`.
    pub action: usize,
    /// Immediate reward (ms, negated).
    pub reward: f64,
    /// Whether this was the final layer of the episode.
    pub terminal: bool,
}

/// Fixed-capacity ring buffer of transitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayBuffer {
    capacity: usize,
    items: Vec<Transition>,
    head: usize,
}

impl ReplayBuffer {
    /// Buffer with the given capacity (the paper uses 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer needs capacity");
        ReplayBuffer {
            capacity,
            items: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Stores a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Refills `out` with the buffer contents in random order (one replay
    /// pass), reusing `out`'s allocation across passes.
    pub fn shuffle_into(&self, rng: &mut SmallRng, out: &mut Vec<Transition>) {
        out.clear();
        out.extend_from_slice(&self.items);
        out.shuffle(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(layer: usize) -> Transition {
        Transition {
            layer,
            prev: 0,
            action: 0,
            reward: -1.0,
            terminal: false,
        }
    }

    #[test]
    fn push_grows_until_capacity() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..3 {
            b.push(t(i));
        }
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn eviction_replaces_oldest_first() {
        let mut b = ReplayBuffer::new(2);
        b.push(t(0));
        b.push(t(1));
        b.push(t(2)); // evicts t(0)
        let layers: Vec<usize> = b.items.iter().map(|x| x.layer).collect();
        assert!(layers.contains(&1) && layers.contains(&2));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut b = ReplayBuffer::new(16);
        for i in 0..10 {
            b.push(t(i));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        // Stale contents of the scratch vector are replaced, not kept.
        let mut pass = vec![t(99); 3];
        b.shuffle_into(&mut rng, &mut pass);
        let mut got: Vec<usize> = pass.iter().map(|x| x.layer).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
