//! The trace-driven out-of-order core model.
//!
//! A standard trace-simulation approximation of the paper's 4-issue,
//! 128-entry-ROB core (Table I): instructions retire at the issue width;
//! a read miss lets younger instructions proceed until it reaches the head
//! of the reorder window, at which point the core stalls until the data
//! returns ("stall on use at ROB head"). Store misses retire through the
//! write buffer and never stall directly — their cost arrives as ORAM queue
//! back-pressure.

use iroram_sim_engine::{Cycle, SnapError, SnapReader, SnapWriter};

use crate::ReqId;

/// Outcome of asking the core whether the next memory op may issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueCheck {
    /// The op may issue at this cycle.
    Ready(Cycle),
    /// The core is stalled: the given outstanding request must complete
    /// first.
    Blocked(ReqId),
}

#[derive(Debug, Clone, Copy)]
struct Miss {
    inst_no: u64,
    req: ReqId,
    done: Option<Cycle>,
}

/// The trace-driven core.
#[derive(Debug, Clone)]
pub struct TraceCpu {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    rob: u64,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    ipc: u64,
    // lint: allow(snapshot-drift, configuration; restore validates the snapshot against it)
    mshrs: usize,
    cursor: Cycle,
    inst_count: u64,
    outstanding: Vec<Miss>,
}

impl TraceCpu {
    /// Creates a core with the given reorder window (instructions), issue
    /// width (instructions/cycle) and outstanding-read-miss limit.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(rob: u64, ipc: u64, mshrs: usize) -> Self {
        assert!(rob > 0 && ipc > 0 && mshrs > 0, "core parameters must be nonzero");
        TraceCpu {
            rob,
            ipc,
            mshrs,
            cursor: Cycle::ZERO,
            inst_count: 0,
            outstanding: Vec::new(),
        }
    }

    /// Current pipeline time.
    pub fn cursor(&self) -> Cycle {
        self.cursor
    }

    /// Instructions processed so far.
    pub fn instructions(&self) -> u64 {
        self.inst_count
    }

    /// Number of outstanding read misses.
    pub fn outstanding_misses(&self) -> usize {
        self.outstanding.len()
    }

    /// Checks whether the next memory op (after `gap` instructions) can
    /// issue, applying the ROB-head and MSHR constraints. Does not mutate
    /// retirement state — call [`TraceCpu::issue`] once `Ready`.
    pub fn try_issue(&mut self, gap: u32) -> IssueCheck {
        let inst_next = self.inst_count + gap as u64 + 1;
        let mut t = self.cursor + gap as u64 / self.ipc;
        // ROB: any miss older than the window must have completed.
        for m in &self.outstanding {
            if inst_next.saturating_sub(m.inst_no) > self.rob {
                match m.done {
                    Some(done) => t = t.max(done),
                    None => return IssueCheck::Blocked(m.req),
                }
            }
        }
        // MSHRs: if full, the oldest miss must drain first.
        if self.outstanding.len() >= self.mshrs {
            let oldest = self
                .outstanding
                .iter()
                .min_by_key(|m| m.inst_no)
                .expect("nonempty");
            match oldest.done {
                Some(done) => t = t.max(done),
                None => return IssueCheck::Blocked(oldest.req),
            }
        }
        IssueCheck::Ready(t)
    }

    /// Commits the issue of the next memory op at `at` (from a `Ready`
    /// check), charging `latency` pipeline cycles (cache-hit service), and
    /// retires any constraint-expired misses.
    pub fn issue(&mut self, gap: u32, at: Cycle, latency: u64) {
        let inst_next = self.inst_count + gap as u64 + 1;
        self.outstanding.retain(|m| {
            !(inst_next.saturating_sub(m.inst_no) > self.rob
                && m.done.is_some_and(|d| d <= at))
        });
        if self.outstanding.len() >= self.mshrs {
            // The Ready check guaranteed the oldest is complete.
            let oldest_idx = self
                .outstanding
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.inst_no)
                .map(|(i, _)| i)
                .expect("nonempty");
            self.outstanding.swap_remove(oldest_idx);
        }
        self.inst_count = inst_next;
        self.cursor = at + latency;
    }

    /// Registers a read miss issued as the op at the current instruction
    /// position.
    pub fn add_miss(&mut self, req: ReqId) {
        self.outstanding.push(Miss {
            inst_no: self.inst_count,
            req,
            done: None,
        });
    }

    /// Records the completion time of an outstanding read miss.
    pub fn complete(&mut self, req: ReqId, done: Cycle) {
        for m in &mut self.outstanding {
            if m.req == req {
                m.done = Some(done);
            }
        }
    }

    /// The latest known completion among outstanding misses (for final
    /// execution-time accounting).
    pub fn last_known_completion(&self) -> Cycle {
        self.outstanding
            .iter()
            .filter_map(|m| m.done)
            .fold(Cycle::ZERO, Cycle::max)
    }

    /// Serializes the core's logical state (pipeline cursor, retired
    /// instruction count, outstanding misses) for a checkpoint snapshot.
    /// The ROB/IPC/MSHR parameters are configuration, not state.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.cursor.0);
        w.put_u64(self.inst_count);
        w.put_usize(self.outstanding.len());
        for m in &self.outstanding {
            w.put_u64(m.inst_no);
            w.put_u64(m.req);
            w.put_opt_u64(m.done.map(|c| c.0));
        }
    }

    /// Restores state written by [`TraceCpu::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or holds more
    /// outstanding misses than this core's MSHR limit.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cursor = Cycle(r.take_u64()?);
        self.inst_count = r.take_u64()?;
        let n = r.take_seq_len(17)?;
        if n > self.mshrs {
            return Err(SnapError::Corrupt("more outstanding misses than MSHRs"));
        }
        self.outstanding.clear();
        for _ in 0..n {
            let inst_no = r.take_u64()?;
            let req = r.take_u64()?;
            let done = r.take_opt_u64()?.map(Cycle);
            self.outstanding.push(Miss { inst_no, req, done });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_advances_time_by_gap_over_ipc() {
        let mut cpu = TraceCpu::new(128, 4, 8);
        match cpu.try_issue(40) {
            IssueCheck::Ready(t) => {
                assert_eq!(t, Cycle(10));
                cpu.issue(40, t, 2);
                assert_eq!(cpu.cursor(), Cycle(12));
                assert_eq!(cpu.instructions(), 41);
            }
            IssueCheck::Blocked(_) => panic!("nothing outstanding"),
        }
    }

    #[test]
    fn rob_blocks_on_old_incomplete_miss() {
        let mut cpu = TraceCpu::new(128, 4, 8);
        let IssueCheck::Ready(t) = cpu.try_issue(0) else {
            panic!()
        };
        cpu.issue(0, t, 0);
        cpu.add_miss(42);
        // Within the window: free to continue.
        assert!(matches!(cpu.try_issue(100), IssueCheck::Ready(_)));
        let IssueCheck::Ready(t) = cpu.try_issue(100) else {
            panic!()
        };
        cpu.issue(100, t, 0);
        // Now 101 insts past the miss; next op at +50 exceeds the 128 window.
        assert_eq!(cpu.try_issue(50), IssueCheck::Blocked(42));
        // Completion unblocks and floors the issue time.
        cpu.complete(42, Cycle(5000));
        match cpu.try_issue(50) {
            IssueCheck::Ready(t) => assert!(t >= Cycle(5000)),
            IssueCheck::Blocked(_) => panic!("completed miss must unblock"),
        }
    }

    #[test]
    fn mshr_limit_blocks() {
        let mut cpu = TraceCpu::new(10_000, 4, 2);
        for r in 0..2 {
            let IssueCheck::Ready(t) = cpu.try_issue(1) else {
                panic!()
            };
            cpu.issue(1, t, 0);
            cpu.add_miss(r);
        }
        assert_eq!(cpu.try_issue(1), IssueCheck::Blocked(0));
        cpu.complete(0, Cycle(77));
        match cpu.try_issue(1) {
            IssueCheck::Ready(t) => {
                assert!(t >= Cycle(77));
                cpu.issue(1, t, 0);
                assert_eq!(cpu.outstanding_misses(), 1, "oldest drained");
            }
            IssueCheck::Blocked(_) => panic!("MSHR should free after completion"),
        }
    }

    #[test]
    fn retired_misses_leave_the_window() {
        let mut cpu = TraceCpu::new(64, 4, 8);
        let IssueCheck::Ready(t) = cpu.try_issue(0) else {
            panic!()
        };
        cpu.issue(0, t, 0);
        cpu.add_miss(1);
        cpu.complete(1, Cycle(100));
        // Issue far past the window: the completed miss retires.
        let IssueCheck::Ready(t) = cpu.try_issue(200) else {
            panic!()
        };
        cpu.issue(200, t, 0);
        assert_eq!(cpu.outstanding_misses(), 0);
        assert_eq!(cpu.last_known_completion(), Cycle::ZERO);
    }

    #[test]
    fn completion_floor_applies_to_issue_time() {
        let mut cpu = TraceCpu::new(8, 1, 8);
        let IssueCheck::Ready(t) = cpu.try_issue(0) else {
            panic!()
        };
        cpu.issue(0, t, 0);
        cpu.add_miss(9);
        cpu.complete(9, Cycle(1_000));
        // Next op is beyond the tiny ROB → must wait for cycle 1000.
        match cpu.try_issue(20) {
            IssueCheck::Ready(t) => assert!(t >= Cycle(1_000)),
            IssueCheck::Blocked(_) => panic!("known completion should not block"),
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn rejects_zero_params() {
        let _ = TraceCpu::new(0, 4, 8);
    }
}
