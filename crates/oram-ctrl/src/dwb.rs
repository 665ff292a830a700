//! The IR-DWB engine (paper Section IV-D, Fig. 9).
//!
//! When the timing-protection slot would otherwise carry a dummy path,
//! IR-DWB spends it flushing a *dirty LRU* LLC line instead: up to two
//! PosMap paths (the paper's `Stage = 3/2`) followed by the data write path
//! (`Stage = 1`), after which the LLC line is marked clean so its eventual
//! eviction costs nothing. The engine aborts (clearing `Ptr`) whenever the
//! candidate stops being the dirty LRU entry or is evicted normally.

use iroram_cache::{DirtyLruScanner, MemoryHierarchy};
use iroram_protocol::{BlockAddr, PathOram, PathRecord, PlbStatus};
use iroram_sim_engine::{Cycle, SimRng, SnapError, SnapReader, SnapWriter};

use crate::SimError;

/// Statistics of the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DwbStats {
    /// Dummy slots converted to useful paths.
    pub converted_slots: u64,
    /// Of those, PosMap paths (stages 3 and 2).
    pub converted_posmap: u64,
    /// Of those, data write paths (stage 1).
    pub converted_data: u64,
    /// LLC lines fully cleaned.
    pub completed: u64,
    /// Sequences aborted (candidate touched, cleaned, or evicted).
    pub aborted: u64,
}

iroram_sim_engine::counter_codec!(DwbStats {
    converted_slots,
    converted_posmap,
    converted_data,
    completed,
    aborted
});

/// The dummy-to-write-back conversion engine.
///
/// The victim lifecycle is single-owner: a sequence begins only in `adopt`
/// (which locks the scanner's candidate) and ends only in `abort_sequence`
/// or `complete_sequence`, so every started sequence is counted exactly
/// once as completed or aborted — [`DwbEngine::check_coherence`] asserts
/// this ledger together with the engine↔scanner `Ptr`/lock agreement.
#[derive(Debug)]
pub struct DwbEngine {
    scanner: DirtyLruScanner,
    /// The locked victim of an in-flight sequence (the paper's `Ptr` +
    /// `Stage != 0` condition).
    victim: Option<BlockAddr>,
    /// Sequences ever started (victims locked). Not part of the serialized
    /// [`DwbStats`]; the audit checks
    /// `started == completed + aborted + in-flight`.
    started: u64,
    stats: DwbStats,
    rng: SimRng,
}

impl DwbEngine {
    /// Creates an idle engine.
    pub fn new(seed: u64) -> Self {
        DwbEngine {
            scanner: DirtyLruScanner::new(),
            victim: None,
            started: 0,
            stats: DwbStats::default(),
            rng: SimRng::seed_from(seed ^ 0xD3B),
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> &DwbStats {
        &self.stats
    }

    /// The locked victim of the in-flight sequence, if any (audit hook).
    pub fn victim(&self) -> Option<BlockAddr> {
        self.victim
    }

    /// Total write-back sequences ever started (audit hook).
    pub fn sequences_started(&self) -> u64 {
        self.started
    }

    /// Serializes the engine's logical state (scanner registers, locked
    /// victim, sequence ledger, counters, RNG) for a checkpoint snapshot.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.scanner.save_state(w);
        w.put_opt_u64(self.victim.map(|v| v.0));
        w.put_u64(self.started);
        self.stats.save(w);
        for s in self.rng.state() {
            w.put_u64(s);
        }
    }

    /// Restores state written by [`DwbEngine::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or internally
    /// inconsistent (victim without a matching scanner candidate).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.scanner.restore_state(r)?;
        self.victim = r.take_opt_u64()?.map(BlockAddr);
        if self.victim.map(|v| v.0) != self.scanner.candidate() {
            return Err(SnapError::Corrupt("DWB victim disagrees with scanner"));
        }
        self.started = r.take_u64()?;
        self.stats = DwbStats::restore(r)?;
        let in_flight = u64::from(self.victim.is_some());
        if self.started != self.stats.completed + self.stats.aborted + in_flight {
            return Err(SnapError::Corrupt("DWB sequence ledger does not balance"));
        }
        let mut state = [0u64; 4];
        for s in &mut state {
            *s = r.take_u64()?;
        }
        self.rng = SimRng::from_state(state);
        Ok(())
    }

    /// Starts a sequence on the scanner's current candidate: the one place
    /// a victim is adopted and the scanner locked.
    fn adopt(&mut self, candidate: u64) {
        debug_assert!(self.victim.is_none(), "previous sequence not closed");
        self.victim = Some(BlockAddr(candidate));
        self.scanner.lock();
        self.started += 1;
    }

    /// Ends the in-flight sequence as aborted, exactly once. Releases the
    /// scanner only while we still own its lock — when the scanner has
    /// already re-pointed `Ptr` at a fresh (unlocked) candidate, that
    /// candidate belongs to the next sequence and must survive the abort.
    fn abort_sequence(&mut self) {
        debug_assert!(self.victim.is_some(), "no sequence to abort");
        self.victim = None;
        if self.scanner.is_locked() {
            self.scanner.release();
        }
        self.stats.aborted += 1;
    }

    /// Ends the in-flight sequence as completed, exactly once.
    fn complete_sequence(&mut self) {
        debug_assert!(self.victim.is_some(), "no sequence to complete");
        self.victim = None;
        self.scanner.release();
        self.stats.completed += 1;
    }

    /// The paper's abort rule for victim selection: "if the entry is chosen
    /// as a victim entry, we abort the early eviction … and perform the
    /// normal eviction instead."
    pub fn on_eviction(&mut self, addr: BlockAddr) {
        if self.victim == Some(addr) {
            self.abort_sequence();
        }
    }

    /// Cache-side audit: the engine's victim, the scanner's `Ptr`/lock
    /// registers, and the LLC must agree, and the sequence ledger must
    /// balance. Returns a description of the first violation found.
    pub fn check_coherence(&self, hierarchy: &MemoryHierarchy) -> Result<(), String> {
        if self.victim.map(|v| v.0) != self.scanner.candidate() {
            return Err(format!(
                "DWB victim {:?} != scanner Ptr {:?}",
                self.victim,
                self.scanner.candidate()
            ));
        }
        if self.victim.is_some() != self.scanner.is_locked() {
            return Err(format!(
                "DWB victim {:?} but scanner locked = {}",
                self.victim,
                self.scanner.is_locked()
            ));
        }
        if let Some(v) = self.victim {
            // Any eviction notifies `on_eviction`, and only the engine's own
            // completion marks the line clean, so a locked victim must still
            // be a dirty resident of the LLC.
            match hierarchy.llc().probe(v.0) {
                Some(info) if info.dirty => {}
                Some(_) => return Err(format!("DWB victim {v:?} is clean in the LLC")),
                None => return Err(format!("DWB victim {v:?} not resident in the LLC")),
            }
        }
        let in_flight = u64::from(self.victim.is_some());
        if self.started != self.stats.completed + self.stats.aborted + in_flight {
            return Err(format!(
                "DWB sequence ledger: started {} != completed {} + aborted {} + in-flight {}",
                self.started, self.stats.completed, self.stats.aborted, in_flight
            ));
        }
        Ok(())
    }

    /// Offers the engine a dummy slot at `now`. Returns the path access it
    /// converted the slot into, or `None` if no conversion was possible
    /// (the caller then issues a plain dummy path).
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] if the victim's write-back is rejected by the
    /// protocol (e.g. the line is unmapped) — a sequencing bug, not a
    /// fault.
    pub fn try_convert(
        &mut self,
        protocol: &mut PathOram,
        hierarchy: &mut MemoryHierarchy,
        now: Cycle,
    ) -> Result<Option<PathRecord>, SimError> {
        // Bound the number of candidates examined per slot: hardware checks
        // one Ptr register, but on-chip serves can finish a candidate
        // without producing a path, letting us look once more.
        for _ in 0..4 {
            // Keep/refresh the candidate (clears Ptr if it is no longer the
            // dirty LRU entry, even when locked).
            self.scanner.step(hierarchy.llc(), now, &mut self.rng);
            // Re-sync the sequence with the scanner's Ptr register.
            match (self.victim, self.scanner.candidate()) {
                (Some(v), Some(c)) if v.0 == c => {} // sequence still in flight
                (Some(_), Some(c)) => {
                    // Our victim stopped being the dirty LRU and the scanner
                    // already found a fresh candidate.
                    self.abort_sequence();
                    self.adopt(c);
                }
                (Some(_), None) => {
                    self.abort_sequence();
                    return Ok(None);
                }
                (None, Some(c)) => self.adopt(c),
                (None, None) => return Ok(None),
            }
            let victim = self.victim.expect("just synced");
            // Derive the remaining work (the paper's Stage register) from
            // PLB state.
            match protocol.posmap_status(victim) {
                PlbStatus::MissBoth => {
                    let pm1 = protocol.posmap().space().pm1_block_of(victim);
                    let pm2 = protocol.posmap().space().pm2_block_of(pm1);
                    let r = protocol.fetch_posmap_block(pm2);
                    if !r.paths.is_empty() {
                        self.stats.converted_slots += 1;
                        self.stats.converted_posmap += 1;
                        return Ok(Some(r.paths[0]));
                    }
                    continue; // resolved on-chip; advance to the next stage
                }
                PlbStatus::MissPm1 => {
                    let pm1 = protocol.posmap().space().pm1_block_of(victim);
                    let r = protocol.fetch_posmap_block(pm1);
                    if !r.paths.is_empty() {
                        self.stats.converted_slots += 1;
                        self.stats.converted_posmap += 1;
                        return Ok(Some(r.paths[0]));
                    }
                    continue;
                }
                PlbStatus::Hit => {
                    // Stage 1: write the dirty line's data back via a normal
                    // (write) data access, then mark it clean.
                    let r = protocol.data_access(victim, None)?;
                    hierarchy.llc_mark_clean(victim.0);
                    self.complete_sequence();
                    if let Some(&p) = r.paths.first() {
                        self.stats.converted_slots += 1;
                        self.stats.converted_data += 1;
                        return Ok(Some(p));
                    }
                    continue; // served on-chip; slot still free, look again
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iroram_cache::HierarchyConfig;
    use iroram_protocol::OramConfig;

    fn setup() -> (PathOram, MemoryHierarchy, DwbEngine) {
        let protocol = PathOram::new(OramConfig::tiny());
        let hierarchy = MemoryHierarchy::new(HierarchyConfig {
            l1_sets: 4,
            l1_assoc: 1,
            llc_sets: 8,
            llc_assoc: 2,
        });
        (protocol, hierarchy, DwbEngine::new(9))
    }

    #[test]
    fn no_dirty_lines_no_conversion() {
        let (mut p, mut h, mut e) = setup();
        h.access(1, false);
        assert!(e.try_convert(&mut p, &mut h, Cycle(0)).unwrap().is_none());
        assert_eq!(e.stats().converted_slots, 0);
    }

    #[test]
    fn converts_and_cleans_a_dirty_line() {
        let (mut p, mut h, mut e) = setup();
        h.access(3, true); // dirty LLC line for data block 3
        let mut slots = 0;
        // Drive dummy slots until the victim is fully cleaned.
        while h.llc_is_dirty(3) && slots < 10 {
            let _ = e.try_convert(&mut p, &mut h, Cycle(slots * 1000));
            slots += 1;
        }
        assert!(!h.llc_is_dirty(3), "line should be cleaned via DWB");
        assert_eq!(e.stats().completed, 1);
        assert!(e.stats().converted_slots >= 1);
    }

    #[test]
    fn stage_count_matches_plb_state() {
        let (mut p, mut h, mut e) = setup();
        h.access(5, true);
        // Cold PLB: expect up to 2 posmap conversions + 1 data conversion.
        let mut got = Vec::new();
        for i in 0..6 {
            if let Some(r) = e.try_convert(&mut p, &mut h, Cycle(i * 1000)).unwrap() {
                got.push(r.ptype);
            }
            if !h.llc_is_dirty(5) {
                break;
            }
        }
        assert!(!h.llc_is_dirty(5));
        assert!(e.stats().converted_data <= 1);
        assert!(
            e.stats().converted_posmap <= 2,
            "at most two posmap stages ({got:?})"
        );
    }

    #[test]
    fn eviction_aborts_sequence() {
        let (mut p, mut h, mut e) = setup();
        h.access(7, true);
        // Start the sequence (locks the victim).
        let _ = e.try_convert(&mut p, &mut h, Cycle(0));
        e.on_eviction(BlockAddr(7));
        assert_eq!(e.stats().aborted, 1);
        // A foreign eviction does not abort.
        e.on_eviction(BlockAddr(99));
        assert_eq!(e.stats().aborted, 1);
    }

    #[test]
    fn cleaned_elsewhere_aborts() {
        let (mut p, mut h, mut e) = setup();
        h.access(9, true);
        let _ = e.try_convert(&mut p, &mut h, Cycle(0));
        h.llc_mark_clean(9);
        // Next slot: the scanner sees the candidate is clean → abort,
        // counted exactly once.
        let _ = e.try_convert(&mut p, &mut h, Cycle(1000));
        assert_eq!(e.stats().aborted, 1);
    }

    #[test]
    fn abort_counted_once_even_when_evicted_after_repoint() {
        // A victim that stops being the dirty LRU gets its sequence aborted
        // when the scanner re-points; its later normal eviction must not be
        // counted as a second abort of the same sequence.
        let (mut p, mut h, mut e) = setup();
        h.access(3, true); // dirty line, set 3 of the 8-set LLC
        let _ = e.try_convert(&mut p, &mut h, Cycle(0));
        assert_eq!(e.victim(), Some(BlockAddr(3)));
        // Another dirty line appears and the old victim is cleaned behind
        // the engine's back, so the next slot re-points to the new line.
        h.access(4, true);
        h.llc_mark_clean(3);
        let _ = e.try_convert(&mut p, &mut h, Cycle(1000));
        assert_eq!(e.victim(), Some(BlockAddr(4)));
        assert_eq!(
            e.stats().aborted,
            1,
            "re-point aborts the old sequence once"
        );
        // The old victim now leaves the LLC normally: no double count.
        e.on_eviction(BlockAddr(3));
        assert_eq!(e.stats().aborted, 1);
        // The in-flight sequence on the new victim is still intact.
        e.check_coherence(&h).unwrap();
    }

    #[test]
    fn sequence_ledger_balances() {
        let (mut p, mut h, mut e) = setup();
        h.access(3, true);
        h.access(9, true);
        for i in 0..12u64 {
            let _ = e.try_convert(&mut p, &mut h, Cycle(i * 2000));
            e.check_coherence(&h).unwrap();
        }
        let s = *e.stats();
        let in_flight = u64::from(e.victim().is_some());
        assert!(e.sequences_started() >= 1);
        assert_eq!(e.sequences_started(), s.completed + s.aborted + in_flight);
    }
}
