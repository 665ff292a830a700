//! Per-bank row-buffer state machine.

use iroram_sim_engine::{Cycle, SnapError, SnapReader, SnapWriter};

use crate::DramTimings;

/// The row-buffer and timing state of one DRAM bank.
///
/// The bank tracks which row is open and the earliest cycles at which the
/// next activate or column command may issue. [`BankState::access`] applies
/// one read or write to the bank, returning the cycle at which the request's
/// data transfer may begin (before bus arbitration) and whether it was a row
/// hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the next activate may issue (tRC / tRP chains).
    next_act: Cycle,
    /// Earliest cycle the next column command may issue.
    next_cas: Cycle,
    /// Earliest cycle a precharge may issue (tRAS / tWR chains).
    next_pre: Cycle,
}

/// Outcome of timing one access against a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// Cycle the column command issues.
    pub cas_issue: Cycle,
    /// Whether the access hit the open row.
    pub row_hit: bool,
    /// Whether the bank had no open row (first touch / after refresh model).
    pub row_empty: bool,
}

impl BankState {
    /// A bank with no open row and no timing debts.
    pub fn new() -> Self {
        BankState {
            open_row: None,
            next_act: Cycle::ZERO,
            next_cas: Cycle::ZERO,
            next_pre: Cycle::ZERO,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Returns whether an access to `row` at this point would be a row hit.
    pub fn would_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// Times one access to `row` arriving at `at`, updating bank state.
    ///
    /// Returns when the CAS command issues; the caller adds CL/CWL and burst
    /// time and arbitrates the data bus.
    pub fn access(&mut self, row: u64, is_write: bool, at: Cycle, t: &DramTimings) -> BankAccess {
        let (row_hit, row_empty, cas_ready) = match self.open_row {
            Some(open) if open == row => (true, false, self.next_cas.max(at)),
            Some(_) => {
                // Conflict: precharge then activate then CAS.
                let pre_issue = self.next_pre.max(at);
                let act_issue = (pre_issue + t.t_rp).max(self.next_act);
                self.open_row = Some(row);
                self.next_act = act_issue + t.row_cycle();
                self.next_pre = act_issue + t.t_ras;
                (false, false, act_issue + t.t_rcd)
            }
            None => {
                // Empty: just activate.
                let act_issue = self.next_act.max(at);
                self.open_row = Some(row);
                self.next_act = act_issue + t.row_cycle();
                self.next_pre = act_issue + t.t_ras;
                (false, true, act_issue + t.t_rcd)
            }
        };
        let cas_issue = cas_ready.max(self.next_cas);
        self.next_cas = cas_issue + t.t_ccd;
        if is_write {
            // Write recovery delays a future precharge of this bank.
            let write_done = cas_issue + t.cwl + t.t_burst;
            self.next_pre = self.next_pre.max(write_done + t.t_wr);
            // And write-to-read turnaround delays the next CAS slightly.
            self.next_cas = self.next_cas.max(write_done + t.t_wtr);
        }
        BankAccess {
            cas_issue,
            row_hit,
            row_empty,
        }
    }

    /// Serializes the open row and timing debts for a checkpoint.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_opt_u64(self.open_row);
        w.put_u64(self.next_act.raw());
        w.put_u64(self.next_cas.raw());
        w.put_u64(self.next_pre.raw());
    }

    /// Restores the state captured by [`BankState::save_state`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated or corrupt payload.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.open_row = r.take_opt_u64()?;
        self.next_act = Cycle(r.take_u64()?);
        self.next_cas = Cycle(r.take_u64()?);
        self.next_pre = Cycle(r.take_u64()?);
        Ok(())
    }

    /// Models a refresh-like event: closes the row.
    pub fn close_row(&mut self, at: Cycle, t: &DramTimings) {
        if self.open_row.take().is_some() {
            let pre_issue = self.next_pre.max(at);
            self.next_act = self.next_act.max(pre_issue + t.t_rp);
        }
    }
}

impl Default for BankState {
    fn default() -> Self {
        BankState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::ddr3_1600()
    }

    #[test]
    fn empty_bank_first_access_activates() {
        let mut b = BankState::new();
        let a = b.access(7, false, Cycle(100), &t());
        assert!(!a.row_hit);
        assert!(a.row_empty);
        assert_eq!(a.cas_issue, Cycle(100 + 11)); // tRCD after activate
        assert_eq!(b.open_row(), Some(7));
    }

    #[test]
    fn row_hit_is_fast() {
        let mut b = BankState::new();
        let first = b.access(7, false, Cycle(0), &t());
        let second = b.access(7, false, first.cas_issue + 10, &t());
        assert!(second.row_hit);
        // Only CAS spacing applies.
        assert_eq!(second.cas_issue, first.cas_issue + 10);
    }

    #[test]
    fn row_conflict_pays_precharge_activate() {
        let mut b = BankState::new();
        let first = b.access(7, false, Cycle(0), &t());
        let conflict = b.access(9, false, first.cas_issue, &t());
        assert!(!conflict.row_hit && !conflict.row_empty);
        // At least tRAS must elapse from activate before precharge, then
        // tRP + tRCD before the new CAS.
        assert!(conflict.cas_issue.raw() >= t().t_ras + t().t_rp + t().t_rcd);
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn back_to_back_hits_respect_ccd() {
        let mut b = BankState::new();
        let a0 = b.access(1, false, Cycle(0), &t());
        let a1 = b.access(1, false, Cycle(0), &t());
        assert_eq!(a1.cas_issue, a0.cas_issue + t().t_ccd);
    }

    #[test]
    fn write_recovery_delays_conflict() {
        let tm = t();
        let mut read_bank = BankState::new();
        let mut write_bank = BankState::new();
        read_bank.access(1, false, Cycle(0), &tm);
        write_bank.access(1, true, Cycle(0), &tm);
        let after_read = read_bank.access(2, false, Cycle(0), &tm);
        let after_write = write_bank.access(2, false, Cycle(0), &tm);
        assert!(
            after_write.cas_issue > after_read.cas_issue,
            "write recovery should delay the following row conflict"
        );
    }

    #[test]
    fn save_restore_round_trips_timing_debts() {
        let tm = t();
        let mut b = BankState::new();
        b.access(7, true, Cycle(10), &tm);
        b.access(9, false, Cycle(20), &tm);
        let mut w = SnapWriter::new();
        b.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = BankState::new();
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh, b);
        assert_eq!(fresh.access(9, false, Cycle(30), &tm), b.access(9, false, Cycle(30), &tm));
    }

    #[test]
    fn close_row_forces_empty_activate() {
        let tm = t();
        let mut b = BankState::new();
        b.access(3, false, Cycle(0), &tm);
        b.close_row(Cycle(100), &tm);
        assert_eq!(b.open_row(), None);
        let a = b.access(3, false, Cycle(200), &tm);
        assert!(!a.row_hit && a.row_empty);
    }
}
