//! The IR-DWB dirty-LRU candidate scanner (paper Fig. 9, subtask 1).
//!
//! IR-DWB keeps "a register `Ptr` that points to the dirty LRU entry of one
//! LLC cache set", round-robining across sets when the LLC is idle. If no
//! candidate is found after a full sweep, the search pauses for 1000 cycles
//! and restarts from a random set.

use iroram_sim_engine::{Cycle, SimRng, SnapError, SnapReader, SnapWriter};

use crate::SetAssocCache;

/// State machine that hunts for dirty LRU LLC entries to early-write-back.
#[derive(Debug, Clone)]
pub struct DirtyLruScanner {
    set_ptr: usize,
    /// Candidate currently pointed at (the paper's `Ptr` register).
    candidate: Option<u64>,
    /// Whether the candidate is locked by an in-flight write-back sequence.
    locked: bool,
    paused_until: Cycle,
    pause_cycles: u64,
}

impl DirtyLruScanner {
    /// Creates a scanner with the paper's 1000-cycle pause.
    pub fn new() -> Self {
        Self::with_pause(1000)
    }

    /// Creates a scanner that pauses `pause_cycles` after a fruitless sweep.
    pub fn with_pause(pause_cycles: u64) -> Self {
        DirtyLruScanner {
            set_ptr: 0,
            candidate: None,
            locked: false,
            paused_until: Cycle::ZERO,
            pause_cycles,
        }
    }

    /// The current candidate address, if any.
    pub fn candidate(&self) -> Option<u64> {
        self.candidate
    }

    /// Whether the candidate is locked (write-back in progress).
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Locks the current candidate for a write-back sequence. Returns the
    /// locked address, or `None` if there is no candidate.
    pub fn lock(&mut self) -> Option<u64> {
        if self.candidate.is_some() {
            self.locked = true;
        }
        self.candidate
    }

    /// Releases the candidate (write-back finished or aborted).
    pub fn release(&mut self) {
        self.candidate = None;
        self.locked = false;
    }

    /// Serializes the sweep cursor, candidate register and pause deadline
    /// for a checkpoint (`pause_cycles` is configuration and not written).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.set_ptr);
        w.put_opt_u64(self.candidate);
        w.put_bool(self.locked);
        w.put_u64(self.paused_until.raw());
    }

    /// Restores the state captured by [`DirtyLruScanner::save_state`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated or corrupt payload.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.set_ptr = r.take_usize()?;
        self.candidate = r.take_opt_u64()?;
        self.locked = r.take_bool()?;
        self.paused_until = Cycle(r.take_u64()?);
        Ok(())
    }

    /// Advances the search by up to one full sweep of the LLC sets.
    ///
    /// Models the idle-time round-robin: validates or refreshes the
    /// candidate against the cache's current state. Per the paper, if the
    /// pointed entry "is accessed and thus no longer an LRU entry, we clear
    /// `Ptr` (even if it is locked)" — the caller should check
    /// [`DirtyLruScanner::candidate`] going `None` to abort an in-flight
    /// sequence.
    pub fn step(&mut self, llc: &SetAssocCache, now: Cycle, rng: &mut SimRng) {
        // Validate the existing candidate first.
        if let Some(addr) = self.candidate {
            match llc.probe(addr) {
                Some(info) if info.is_lru && info.dirty => return, // still good
                _ => {
                    // No longer the dirty LRU: clear Ptr, even if locked.
                    self.candidate = None;
                    self.locked = false;
                }
            }
        }
        if now < self.paused_until {
            return;
        }
        let sets = llc.sets();
        for _ in 0..sets {
            let set = self.set_ptr;
            self.set_ptr = (self.set_ptr + 1) % sets;
            if let Some(lru) = llc.lru_of_set(set) {
                if lru.dirty {
                    self.candidate = Some(lru.addr);
                    return;
                }
            }
        }
        // Fruitless sweep: pause, restart from a random set.
        self.paused_until = now + self.pause_cycles;
        self.set_ptr = rng.next_below(sets as u64) as usize;
    }
}

impl Default for DirtyLruScanner {
    fn default() -> Self {
        DirtyLruScanner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    fn llc() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(4, 2))
    }

    #[test]
    fn finds_dirty_lru() {
        let mut cache = llc();
        cache.insert(0, true); // set 0
        cache.insert(1, false); // set 1
        let mut s = DirtyLruScanner::new();
        let mut rng = SimRng::seed_from(1);
        s.step(&cache, Cycle(0), &mut rng);
        assert_eq!(s.candidate(), Some(0));
    }

    #[test]
    fn skips_clean_lru() {
        let mut cache = llc();
        // Set 0: clean LRU (addr 0), dirty MRU (addr 4).
        cache.insert(0, false);
        cache.insert(4, true);
        cache.access(4, true);
        let mut s = DirtyLruScanner::new();
        let mut rng = SimRng::seed_from(1);
        s.step(&cache, Cycle(0), &mut rng);
        // addr 4 is not LRU, addr 0 is clean → no candidate in set 0.
        assert_ne!(s.candidate(), Some(4));
    }

    #[test]
    fn pauses_after_fruitless_sweep() {
        let cache = llc(); // empty: no candidates
        let mut s = DirtyLruScanner::with_pause(1000);
        let mut rng = SimRng::seed_from(2);
        s.step(&cache, Cycle(0), &mut rng);
        assert_eq!(s.candidate(), None);
        // Now dirty data appears, but the scanner is paused.
        let mut cache = cache;
        cache.insert(0, true);
        s.step(&cache, Cycle(500), &mut rng);
        assert_eq!(s.candidate(), None, "should still be paused");
        s.step(&cache, Cycle(1000), &mut rng);
        assert_eq!(s.candidate(), Some(0));
    }

    #[test]
    fn clears_candidate_when_no_longer_lru() {
        let mut cache = llc();
        cache.insert(0, true);
        cache.insert(4, false); // same set 0
        let mut s = DirtyLruScanner::new();
        let mut rng = SimRng::seed_from(3);
        s.step(&cache, Cycle(0), &mut rng);
        assert_eq!(s.candidate(), Some(0));
        assert_eq!(s.lock(), Some(0));
        // Access 0 → it becomes MRU; candidate must clear even while locked.
        cache.access(0, false);
        s.step(&cache, Cycle(1), &mut rng);
        assert_ne!(s.candidate(), Some(0));
        assert!(!s.is_locked());
    }

    #[test]
    fn clears_candidate_when_cleaned() {
        let mut cache = llc();
        cache.insert(0, true);
        let mut s = DirtyLruScanner::new();
        let mut rng = SimRng::seed_from(4);
        s.step(&cache, Cycle(0), &mut rng);
        assert_eq!(s.candidate(), Some(0));
        cache.mark_clean(0);
        s.step(&cache, Cycle(1), &mut rng);
        assert_ne!(s.candidate(), Some(0));
    }

    #[test]
    fn save_restore_round_trips_candidate_and_pause() {
        let mut cache = llc();
        cache.insert(0, true);
        let mut s = DirtyLruScanner::with_pause(500);
        let mut rng = SimRng::seed_from(9);
        s.step(&cache, Cycle(0), &mut rng);
        s.lock();
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = DirtyLruScanner::with_pause(500);
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.candidate(), Some(0));
        assert!(fresh.is_locked());
    }

    #[test]
    fn lock_and_release() {
        let mut cache = llc();
        cache.insert(8, true);
        let mut s = DirtyLruScanner::new();
        let mut rng = SimRng::seed_from(5);
        assert_eq!(s.lock(), None, "nothing to lock yet");
        s.step(&cache, Cycle(0), &mut rng);
        assert_eq!(s.lock(), Some(8));
        assert!(s.is_locked());
        s.release();
        assert_eq!(s.candidate(), None);
        assert!(!s.is_locked());
    }
}
