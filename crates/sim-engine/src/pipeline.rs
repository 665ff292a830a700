//! Pacing state for a k-deep access pipeline.
//!
//! A serial timed controller floors each slot's issue time at the read
//! completion of the *immediately preceding* access. A k-deep pipeline
//! relaxes that to the access `k` slots back: up to `k` accesses may be in
//! flight, and the issue rate is bounded by the slowest window of `k`
//! consecutive reads instead of every single one. [`FloorRing`] is the
//! domain-neutral piece of that rule — a bounded FIFO of read-completion
//! floors whose front (once full) is the pacing floor for the next slot.
//!
//! At depth 1 the ring holds exactly the last floor, so
//! `(t + T).max(ring.floor())` reproduces the serial pacing rule
//! byte-for-byte — which is what lets the pipelined controllers keep their
//! depth-1 reports identical to the serial twin.

use std::collections::VecDeque;

use crate::checkpoint::{SnapError, SnapReader, SnapWriter};
use crate::Cycle;

/// Bounded FIFO of per-access read floors implementing the depth-k pacing
/// rule (see the module docs).
///
/// # Examples
///
/// ```
/// use iroram_sim_engine::{Cycle, FloorRing};
///
/// // Depth 2: the first access imposes no floor on the second...
/// let mut ring = FloorRing::new(2);
/// ring.push(Cycle(100));
/// assert_eq!(ring.floor(), Cycle::ZERO);
/// // ...but it floors the third.
/// ring.push(Cycle(250));
/// assert_eq!(ring.floor(), Cycle(100));
/// ring.push(Cycle(400));
/// assert_eq!(ring.floor(), Cycle(250));
/// ```
#[derive(Debug, Clone)]
pub struct FloorRing {
    // Configuration; restore validates the snapshot against it.
    depth: usize,
    floors: VecDeque<Cycle>,
}

impl FloorRing {
    /// Creates a ring of capacity `depth`; `0` is clamped to `1` (a
    /// deserialized config may carry the field-absent default).
    pub fn new(depth: u32) -> Self {
        let depth = depth.max(1) as usize;
        FloorRing {
            depth,
            floors: VecDeque::with_capacity(depth),
        }
    }

    /// The configured pipeline depth (always ≥ 1).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of floors currently held (≤ depth).
    pub fn len(&self) -> usize {
        self.floors.len()
    }

    /// True when no access has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.floors.is_empty()
    }

    /// Records the read floor of a just-issued access, evicting the oldest
    /// floor once more than `depth` are held.
    pub fn push(&mut self, floor: Cycle) {
        if self.floors.len() == self.depth {
            self.floors.pop_front();
        }
        self.floors.push_back(floor);
    }

    /// The pacing floor for the next slot: [`Cycle::ZERO`] while fewer than
    /// `depth` accesses are in flight, the oldest recorded floor once the
    /// ring is full. At depth 1 this is always the last pushed floor.
    pub fn floor(&self) -> Cycle {
        if self.floors.len() < self.depth {
            Cycle::ZERO
        } else {
            self.floors.front().copied().unwrap_or(Cycle::ZERO)
        }
    }

    /// Forgets all recorded floors (e.g. on controller reset).
    pub fn clear(&mut self) {
        self.floors.clear();
    }

    /// Serializes the recorded floors for a checkpoint (the depth comes
    /// from configuration and is not written).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.floors.len());
        for f in &self.floors {
            w.put_u64(f.raw());
        }
    }

    /// Restores the floors captured by [`FloorRing::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, or [`SnapError::Corrupt`] if the
    /// snapshot holds more floors than this ring's configured depth.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_seq_len(8)?;
        if n > self.depth {
            return Err(SnapError::Corrupt("FloorRing overfull"));
        }
        self.floors.clear();
        for _ in 0..n {
            self.floors.push_back(Cycle(r.take_u64()?));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_one_reproduces_the_serial_rule() {
        let mut ring = FloorRing::new(1);
        assert_eq!(ring.floor(), Cycle::ZERO);
        for f in [100u64, 250, 90, 4000] {
            ring.push(Cycle(f));
            assert_eq!(
                ring.floor(),
                Cycle(f),
                "depth 1 floor must be the last push"
            );
        }
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn zero_depth_clamps_to_one() {
        let ring = FloorRing::new(0);
        assert_eq!(ring.depth(), 1);
    }

    #[test]
    fn floor_is_zero_until_full_then_oldest() {
        let mut ring = FloorRing::new(3);
        ring.push(Cycle(10));
        ring.push(Cycle(20));
        assert_eq!(ring.floor(), Cycle::ZERO, "not full yet");
        ring.push(Cycle(30));
        assert_eq!(ring.floor(), Cycle(10));
        ring.push(Cycle(40));
        assert_eq!(ring.floor(), Cycle(20), "oldest floor evicted on push");
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut ring = FloorRing::new(2);
        ring.push(Cycle(5));
        ring.push(Cycle(6));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.floor(), Cycle::ZERO);
    }
}
