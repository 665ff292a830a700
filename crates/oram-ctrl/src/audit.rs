//! The always-available audit subsystem: a differential functional oracle
//! plus timing, DRAM-conservation, cache-coherence and structural audits.
//!
//! Enabled by [`crate::SystemConfig::audit`]; the controllers then thread an
//! [`AuditState`] through every access. The audits **observe only** — they
//! never write payloads, draw randomness, touch statistics, or change
//! timing — so a run with auditing on is bit-identical (in every reported
//! number) to the same run with auditing off.
//!
//! What is checked, and the paper invariant each check guards:
//!
//! * **Functional oracle** — a plain `addr → payload` shadow map. The first
//!   time the ORAM serves a block the oracle learns its payload; every later
//!   serve must return the same value (payloads are conserved across path
//!   remaps, escrow round-trips and tree-top migration). This is Path
//!   ORAM's basic storage contract \[27\].
//! * **Timing schedule** — with timing protection on, slot `k+1` must issue
//!   at exactly `max(t_k + T, read-phase completion of slot k)` for every
//!   scheme: the obliviousness contract (one indistinguishable path per `T`,
//!   paced only by the public occupancy rule).
//! * **DRAM conservation** — every path access issues exactly `Σ Z_l` line
//!   reads plus `Σ Z_l` line writes for the configured `ZAllocation`
//!   (IR-Alloc's path-length accounting, Section IV-C), and the DRAM model
//!   never completes a request before its arrival.
//! * **Structural audits** — periodically (and at end of run) the whole
//!   protocol state is swept by `PathOram::check_invariants`: single
//!   residence, path/leaf consistency, escrow exclusivity, per-level bucket
//!   `Z` bounds, and the tree-top store's internal coherence (S-Stash
//!   TT-pointer ↔ entry agreement).
//! * **IR-DWB coherence** — the dirty-LRU scanner's candidate/lock state
//!   must always agree with the engine's victim and with the LLC's view of
//!   the line (checked every slot via `DwbEngine::check_coherence`).

use std::collections::BTreeMap;

use iroram_sim_engine::{Cycle, FloorRing, SnapError, SnapReader, SnapWriter};

/// How many violation messages are stored verbatim (the count is exact;
/// only the sample list is capped).
const MAX_SAMPLES: usize = 32;

/// Slots between whole-structure invariant sweeps.
pub(crate) const STRUCTURAL_PERIOD: u64 = 256;

/// Audit results for one run (merged across controllers for ρ's two trees).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Individual checks performed.
    pub checks: u64,
    /// Checks that failed.
    pub violations: u64,
    /// Up to `MAX_SAMPLES` (32) violation messages, in discovery order.
    pub samples: Vec<String>,
}

impl AuditReport {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }
}

/// Per-controller audit state (see the module docs for the check list).
#[derive(Debug)]
pub(crate) struct AuditState {
    /// The functional oracle: block address → last known payload.
    oracle: BTreeMap<u64, u64>,
    /// Expected issue time of the next slot (None before the first slot or
    /// when timing protection is off).
    expected_slot: Option<Cycle>,
    /// Independent re-derivation of the depth-`k` pacing floor: the audit
    /// keeps its own ring of read-phase completions, so a pipelined
    /// controller's schedule is validated against `(t + T).max(floor of
    /// the access k slots back)` — which at depth 1 is exactly the serial
    /// occupancy rule.
    floors: FloorRing,
    /// DRAM latency underflows already reported (the counter is cumulative).
    seen_underflows: u64,
    /// Lines the pipelined controller had deferred in its write buffer
    /// after the previous slot (the conservation ledger's carry; 0
    /// serially).
    pending_write_lines: u64,
    /// Slots processed (drives the periodic structural sweep).
    slots: u64,
    checks: u64,
    violations: u64,
    samples: Vec<String>,
}

impl AuditState {
    /// Audit state validating a depth-`pipeline_depth` schedule (pass the
    /// controller's *effective* depth; `1` = the serial rule).
    pub(crate) fn new(pipeline_depth: u32) -> Self {
        AuditState {
            oracle: BTreeMap::new(),
            expected_slot: None,
            floors: FloorRing::new(pipeline_depth),
            seen_underflows: 0,
            pending_write_lines: 0,
            slots: 0,
            checks: 0,
            violations: 0,
            samples: Vec::new(),
        }
    }

    /// Records a failed check.
    pub(crate) fn violation(&mut self, msg: String) {
        self.checks += 1;
        self.violations += 1;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(msg);
        }
    }

    /// Records a passed check.
    pub(crate) fn passed(&mut self) {
        self.checks += 1;
    }

    /// Oracle check: the ORAM served `addr` with payload `got`. Learns the
    /// value on first sight, compares on every later serve.
    pub(crate) fn oracle_read(&mut self, addr: u64, got: u64) {
        self.checks += 1;
        match self.oracle.insert(addr, got) {
            Some(expected) if expected != got => {
                self.violations += 1;
                if self.samples.len() < MAX_SAMPLES {
                    self.samples.push(format!(
                        "oracle: blk#{addr} served payload {got:#x}, shadow map holds {expected:#x}"
                    ));
                }
            }
            _ => {}
        }
    }

    /// Timing-schedule check for a slot issued at `t`. `read_floor` is the
    /// CPU-clock completion of this slot's read phase (the occupancy floor
    /// binding the slot `depth` positions later under the pipelined pacing
    /// rule; at depth 1, the floor for the very next slot). With `tp` off
    /// there is no schedule.
    pub(crate) fn note_slot(&mut self, t: Cycle, t_interval: u64, read_floor: Cycle, tp: bool) {
        if !tp {
            self.expected_slot = None;
            return;
        }
        self.checks += 1;
        if let Some(expected) = self.expected_slot {
            if t != expected {
                self.violations += 1;
                if self.samples.len() < MAX_SAMPLES {
                    self.samples.push(format!(
                        "timing: slot issued at {t}, schedule requires exactly {expected}"
                    ));
                }
            }
        }
        self.floors.push(read_floor);
        self.expected_slot = Some((t + t_interval).max(self.floors.floor()));
    }

    /// DRAM-conservation check for one finished path: the path touched
    /// `got_lines` memory slots (`expected_lines` per the `ZAllocation`),
    /// the DRAM request counter grew by `dram_delta`, and the DRAM model has
    /// seen `underflows` completion-before-arrival events in total.
    ///
    /// `pending_lines` is the size of the write-back batch the pipelined
    /// controller has deferred *after* this slot (always 0 serially). The
    /// request-count identity becomes a running write ledger: each slot's
    /// scheduled requests plus the change in deferred lines must equal one
    /// read and one write per touched slot — so overlapped schedules are
    /// held to the same conservation law, just shifted by the one batch
    /// legitimately in the write buffer.
    pub(crate) fn check_conservation(
        &mut self,
        got_lines: u64,
        expected_lines: u64,
        dram_delta: u64,
        underflows: u64,
        pending_lines: u64,
    ) {
        if got_lines == expected_lines {
            self.passed();
        } else {
            self.violation(format!(
                "conservation: path touched {got_lines} memory slots, Z allocation sums to {expected_lines}"
            ));
        }
        if dram_delta + pending_lines == 2 * got_lines + self.pending_write_lines {
            self.passed();
        } else {
            self.violation(format!(
                "conservation: path issued {dram_delta} DRAM requests with {pending_lines} deferred \
                 ({} were deferred before), expected one read + one write per touched slot ({})",
                self.pending_write_lines,
                2 * got_lines
            ));
        }
        self.pending_write_lines = pending_lines;
        if underflows > self.seen_underflows {
            self.violation(format!(
                "dram: {} request(s) completed before their arrival cycle",
                underflows - self.seen_underflows
            ));
            self.seen_underflows = underflows;
        }
    }

    /// Counts a processed slot; true when a periodic structural sweep is
    /// due.
    pub(crate) fn structural_due(&mut self) -> bool {
        self.slots += 1;
        self.slots.is_multiple_of(STRUCTURAL_PERIOD)
    }

    /// Folds a structural invariant-check result in, labelling failures
    /// with `what` (e.g. "main tree").
    pub(crate) fn note_structural<E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<(), E>,
    ) {
        match result {
            Ok(()) => self.passed(),
            Err(e) => self.violation(format!("structure ({what}): {e}")),
        }
    }

    /// Serializes the audit's state (oracle shadow map, pacing schedule,
    /// conservation carries, counters, samples) for a checkpoint snapshot,
    /// so a restored audited run keeps validating with full history.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.oracle.len());
        for (&addr, &payload) in &self.oracle {
            w.put_u64(addr);
            w.put_u64(payload);
        }
        w.put_opt_u64(self.expected_slot.map(|c| c.0));
        self.floors.save_state(w);
        w.put_u64(self.seen_underflows);
        w.put_u64(self.pending_write_lines);
        w.put_u64(self.slots);
        w.put_u64(self.checks);
        w.put_u64(self.violations);
        w.put_usize(self.samples.len());
        for s in &self.samples {
            w.put_str(s);
        }
    }

    /// Restores state written by [`AuditState::save_state`].
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_seq_len(16)?;
        self.oracle.clear();
        let mut last: Option<u64> = None;
        for _ in 0..n {
            let addr = r.take_u64()?;
            let payload = r.take_u64()?;
            if last.is_some_and(|prev| prev >= addr) {
                return Err(SnapError::Corrupt("oracle entries out of order"));
            }
            last = Some(addr);
            self.oracle.insert(addr, payload);
        }
        self.expected_slot = r.take_opt_u64()?.map(Cycle);
        self.floors.restore_state(r)?;
        self.seen_underflows = r.take_u64()?;
        self.pending_write_lines = r.take_u64()?;
        self.slots = r.take_u64()?;
        self.checks = r.take_u64()?;
        self.violations = r.take_u64()?;
        let samples = r.take_seq_len(8)?;
        if samples > MAX_SAMPLES {
            return Err(SnapError::Corrupt("more samples than the cap"));
        }
        self.samples.clear();
        for _ in 0..samples {
            self.samples.push(r.take_str()?.to_owned());
        }
        Ok(())
    }

    /// The report so far.
    pub(crate) fn report(&self) -> AuditReport {
        AuditReport {
            checks: self.checks,
            violations: self.violations,
            samples: self.samples.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_learns_then_detects_divergence() {
        let mut a = AuditState::new(1);
        a.oracle_read(7, 0xAB);
        a.oracle_read(7, 0xAB);
        assert_eq!(a.report().violations, 0);
        a.oracle_read(7, 0xCD);
        let r = a.report();
        assert_eq!(r.violations, 1);
        assert!(r.samples[0].contains("blk#7"));
        // The oracle tracks the served value, so a repeat of the new value
        // is consistent again (one corruption event, not a cascade).
        a.oracle_read(7, 0xCD);
        assert_eq!(a.report().violations, 1);
    }

    #[test]
    fn timing_audit_requires_exact_schedule() {
        let mut a = AuditState::new(1);
        let t = 100;
        a.note_slot(Cycle(100), t, Cycle(150), true);
        // Next slot must be max(100+100, 150) = 200.
        a.note_slot(Cycle(200), t, Cycle(350), true);
        assert_eq!(a.report().violations, 0);
        // Occupancy floor dominates: expected 350, not 300.
        a.note_slot(Cycle(300), t, Cycle(0), true);
        assert_eq!(a.report().violations, 1);
        assert!(a.report().samples[0].contains("timing"));
    }

    #[test]
    fn timing_audit_validates_overlapped_schedules_at_depth_two() {
        // At depth 2 the floor comes from the access two slots back, so a
        // slot may issue while the previous access's read is still in
        // flight — and the serial rule would flag exactly that schedule.
        let t = 100;
        let mut deep = AuditState::new(2);
        deep.note_slot(Cycle(100), t, Cycle(900), true);
        // Slot 1's floor (900) does not bind slot 2 at depth 2.
        deep.note_slot(Cycle(200), t, Cycle(950), true);
        // Slot 3 is floored by slot 1's read completion (900).
        deep.note_slot(Cycle(900), t, Cycle(1000), true);
        assert_eq!(deep.report().violations, 0);
        // The depth-2 schedule is exact, not a lower bound: slot 4 must
        // issue at max(900 + T, slot 2's floor) = 1000, not earlier.
        deep.note_slot(Cycle(940), t, Cycle(1100), true);
        assert_eq!(deep.report().violations, 1);

        let mut serial = AuditState::new(1);
        serial.note_slot(Cycle(100), t, Cycle(900), true);
        serial.note_slot(Cycle(200), t, Cycle(950), true);
        assert_eq!(
            serial.report().violations,
            1,
            "the serial rule rejects the overlapped schedule"
        );
    }

    #[test]
    fn timing_audit_disabled_without_protection() {
        let mut a = AuditState::new(1);
        a.note_slot(Cycle(100), 100, Cycle(0), false);
        a.note_slot(Cycle(777), 100, Cycle(0), false);
        assert_eq!(a.report().checks, 0);
    }

    #[test]
    fn conservation_audit_checks_both_ledgers() {
        let mut a = AuditState::new(1);
        a.check_conservation(36, 36, 72, 0, 0);
        assert!(a.report().is_clean());
        a.check_conservation(35, 36, 70, 0, 0);
        assert_eq!(a.report().violations, 1);
        a.check_conservation(36, 36, 71, 0, 0);
        assert_eq!(a.report().violations, 2);
        // Underflows report once per new event, not per path.
        a.check_conservation(36, 36, 72, 2, 0);
        a.check_conservation(36, 36, 72, 2, 0);
        assert_eq!(a.report().violations, 3);
    }

    /// Pipelined conservation: the deferred write batch is a ledger carry,
    /// not a loss — each slot's scheduled requests plus the carry change
    /// must still equal one read + one write per touched slot.
    #[test]
    fn conservation_audit_carries_the_deferred_write_batch() {
        let mut a = AuditState::new(4);
        // First pipelined slot: 36 reads scheduled, all 36 writes deferred.
        a.check_conservation(36, 36, 36, 0, 36);
        assert!(a.report().is_clean());
        // Steady state: 36 reads + the previous 36 writes land; 36 defer.
        a.check_conservation(36, 36, 72, 0, 36);
        assert!(a.report().is_clean());
        // A dropped write batch (only the reads landed, nothing deferred)
        // must trip the ledger.
        a.check_conservation(36, 36, 36, 0, 0);
        assert_eq!(a.report().violations, 1);
    }

    #[test]
    fn sample_list_is_capped_but_count_exact() {
        let mut a = AuditState::new(1);
        for i in 0..100 {
            a.violation(format!("v{i}"));
        }
        let r = a.report();
        assert_eq!(r.violations, 100);
        assert_eq!(r.samples.len(), MAX_SAMPLES);
    }
}
