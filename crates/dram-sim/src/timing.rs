//! DRAM timing parameters.

/// DDR timing constraints, in DRAM clock cycles.
///
/// Defaults model DDR3-1600 (800 MHz bus, 11-11-11-28), matching the paper's
/// Table I DRAM clock. Only the constraints that matter at transaction
/// granularity are modelled; sub-command effects (tFAW, tRRD across a burst
/// of activates) are folded into the per-bank activate spacing.
///
/// # Examples
///
/// ```
/// use iroram_dram::DramTimings;
/// let t = DramTimings::ddr3_1600();
/// assert_eq!(t.cl, 11);
/// assert!(t.row_cycle() >= t.t_ras + t.t_rp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// CAS (read) latency: column command to first data beat.
    pub cl: u64,
    /// CAS write latency: column-write command to first data beat.
    pub cwl: u64,
    /// Activate to column command.
    pub t_rcd: u64,
    /// Precharge duration.
    pub t_rp: u64,
    /// Activate to precharge (row must stay open at least this long).
    pub t_ras: u64,
    /// Data burst duration on the bus (BL8 at DDR = 4 bus cycles).
    pub t_burst: u64,
    /// Column-to-column command spacing within a bank group.
    pub t_ccd: u64,
    /// Write recovery: last write data beat to precharge of same bank.
    pub t_wr: u64,
    /// Write-to-read turnaround on the same rank.
    pub t_wtr: u64,
    /// Activate-to-activate spacing between different banks (tRRD).
    pub t_rrd: u64,
}

impl DramTimings {
    /// DDR3-1600 11-11-11-28 timings.
    pub fn ddr3_1600() -> Self {
        DramTimings {
            cl: 11,
            cwl: 8,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_burst: 4,
            t_ccd: 4,
            t_wr: 12,
            t_wtr: 6,
            t_rrd: 5,
        }
    }

    /// Row cycle time tRC = tRAS + tRP: minimum spacing between activates to
    /// the same bank.
    pub fn row_cycle(&self) -> u64 {
        self.t_ras + self.t_rp
    }

    /// Latency of an isolated row-hit read (command to last data beat).
    pub fn hit_read_latency(&self) -> u64 {
        self.cl + self.t_burst
    }

    /// Latency of an isolated row-miss read (precharge + activate + read).
    pub fn miss_read_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.cl + self.t_burst
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        DramTimings::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_sanity() {
        let t = DramTimings::ddr3_1600();
        assert_eq!(t.row_cycle(), 39);
        assert_eq!(t.hit_read_latency(), 15);
        assert_eq!(t.miss_read_latency(), 37);
        assert!(t.cwl < t.cl);
    }

    #[test]
    fn default_is_ddr3() {
        assert_eq!(DramTimings::default(), DramTimings::ddr3_1600());
    }
}
