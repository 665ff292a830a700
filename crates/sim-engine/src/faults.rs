//! Deterministic, seeded fault injection.
//!
//! A [`FaultConfig`] describes *rates* for four fault classes; a
//! [`FaultPlan`] turns those rates plus a seed into a concrete, reproducible
//! fault sequence. The plan owns its own [`SimRng`] stream, so enabling
//! faults never perturbs the simulator's other random streams, and a
//! configuration with every rate at zero produces **no plan at all**
//! ([`FaultPlan::new`] returns `None`): a zero-rate run is bit-identical to
//! a run built before this module existed.
//!
//! Determinism contract: the fault sequence is a pure function of
//! `(FaultConfig, base_seed)`. Cells in a parallel sweep each build their
//! plan from their own cell seed, so the same faults strike the same cells
//! at any `--jobs N`. Retries of a transient-faulted cell mix the attempt
//! number into the stream, so attempt 2 deterministically sees a *different*
//! (but still reproducible) fault sequence than attempt 1.
//!
//! The fault classes (the consumer decides what each draw means — this
//! module knows nothing about tree geometry or trace formats):
//!
//! * **DRAM line corruption** — with probability `dram_corruption` per path
//!   slot, one stored line's payload is XORed with a random nonzero mask
//!   (models a bit-flip in off-chip memory; IRO's threat model).
//! * **Transient bank stall** — with probability `bank_stall` per path slot,
//!   the path's DRAM batch arrival is delayed by `bank_stall_dram_cycles`
//!   (models a refresh/thermal stall; pure timing, no data effect).
//! * **Stash-pressure storm** — with probability `stash_storm` per slot, a
//!   storm begins: background eviction is suppressed for `storm_slots`
//!   consecutive slots, forcing the stash to absorb the pressure.
//! * **Trace mangling** — with probability `trace_mangle` per trace record,
//!   the record's address is replaced with an out-of-range value (models a
//!   corrupted trace file the front end must reject gracefully).

use crate::checkpoint::{SnapError, SnapReader, SnapWriter};
use crate::SimRng;

/// Fault rates and magnitudes. Plain data, defaulting to all-zero (no
/// faults). Wire it through the system configuration; build a [`FaultPlan`]
/// from it at simulation start.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Salt mixed into the plan's RNG stream (lets two plans built from the
    /// same base seed — e.g. a controller-level and a trace-level plan —
    /// draw independently).
    pub seed: u64,
    /// Retry attempt number, mixed into the stream so a deterministic retry
    /// of a transient-faulted cell sees a fresh fault sequence.
    pub attempt: u32,
    /// Per-path-slot probability of corrupting one stored DRAM line.
    pub dram_corruption: f64,
    /// Per-path-slot probability of a transient bank stall.
    pub bank_stall: f64,
    /// Extra DRAM-clock cycles a stalled path's batch arrival is delayed by.
    pub bank_stall_dram_cycles: u64,
    /// Per-slot probability that a stash-pressure storm begins.
    pub stash_storm: f64,
    /// Number of consecutive slots a storm suppresses background eviction.
    pub storm_slots: u64,
    /// Per-trace-record probability of mangling the record's address.
    pub trace_mangle: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// No faults: every rate zero. A plan built from this config is `None`.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            attempt: 0,
            dram_corruption: 0.0,
            bank_stall: 0.0,
            bank_stall_dram_cycles: 64,
            stash_storm: 0.0,
            storm_slots: 32,
            trace_mangle: 0.0,
        }
    }

    /// Whether any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.dram_corruption > 0.0
            || self.bank_stall > 0.0
            || self.stash_storm > 0.0
            || self.trace_mangle > 0.0
    }
}

/// Counters for faults actually injected by one plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// DRAM lines corrupted.
    pub corruptions: u64,
    /// Transient bank stalls injected.
    pub stalls: u64,
    /// Total extra DRAM cycles added by stalls.
    pub stall_cycles: u64,
    /// Stash-pressure storms begun.
    pub storms: u64,
    /// Trace records mangled.
    pub mangled_records: u64,
}

/// A concrete fault sequence: the config's rates bound to one seeded RNG
/// stream. Build with [`FaultPlan::new`]; query once per slot / record.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    cfg: FaultConfig,
    rng: SimRng,
    /// Remaining slots of the storm in progress (0 = no storm).
    storm_left: u64,
    injected: InjectedFaults,
}

impl FaultPlan {
    /// Builds a plan for this config seeded from `base_seed`, or `None` if
    /// every rate is zero (so inactive configs cost nothing and cannot
    /// perturb a run).
    pub fn new(cfg: &FaultConfig, base_seed: u64) -> Option<FaultPlan> {
        if !cfg.is_active() {
            return None;
        }
        let mixed = base_seed
            ^ cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (cfg.attempt as u64).wrapping_mul(0xD134_2543_DE82_EF95);
        Some(FaultPlan {
            cfg: cfg.clone(),
            rng: SimRng::seed_from(mixed),
            storm_left: 0,
            injected: InjectedFaults::default(),
        })
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Counters for faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// Per-slot corruption decision: `Some((pick, mask))` when a line should
    /// be corrupted this slot, where `pick` is a uniform draw in
    /// `[0, u64::MAX]` for the consumer to map onto a storage location, and
    /// `mask` is a nonzero XOR mask for the payload.
    pub fn corrupt_line(&mut self) -> Option<(u64, u64)> {
        if self.cfg.dram_corruption > 0.0 && self.rng.chance(self.cfg.dram_corruption) {
            let pick = self.rng.next_u64();
            let mask = self.rng.next_u64() | 1; // never the identity mask
            self.injected.corruptions += 1;
            Some((pick, mask))
        } else {
            None
        }
    }

    /// Per-slot stall decision: extra DRAM cycles to delay this path's batch
    /// arrival by (0 = no stall).
    pub fn bank_stall(&mut self) -> u64 {
        if self.cfg.bank_stall > 0.0 && self.rng.chance(self.cfg.bank_stall) {
            self.injected.stalls += 1;
            self.injected.stall_cycles += self.cfg.bank_stall_dram_cycles;
            self.cfg.bank_stall_dram_cycles
        } else {
            0
        }
    }

    /// Per-slot storm decision: advances the storm state machine and
    /// returns `true` while a storm is suppressing background eviction.
    pub fn storm_active(&mut self) -> bool {
        if self.storm_left > 0 {
            self.storm_left -= 1;
            return true;
        }
        if self.cfg.stash_storm > 0.0 && self.rng.chance(self.cfg.stash_storm) {
            self.injected.storms += 1;
            self.storm_left = self.cfg.storm_slots.saturating_sub(1);
            return true;
        }
        false
    }

    /// Serializes the plan's mutable cursor (RNG stream position, storm
    /// state, injected counters) for a checkpoint. The config is not
    /// written: a restored plan is rebuilt from the run configuration and
    /// then has this state overlaid.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for s in self.rng.state() {
            w.put_u64(s);
        }
        w.put_u64(self.storm_left);
        w.put_u64(self.injected.corruptions);
        w.put_u64(self.injected.stalls);
        w.put_u64(self.injected.stall_cycles);
        w.put_u64(self.injected.storms);
        w.put_u64(self.injected.mangled_records);
    }

    /// Restores the cursor captured by [`FaultPlan::save_state`], resuming
    /// the fault sequence exactly where the snapshot left it.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the snapshot bytes are truncated or corrupt.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let s = [r.take_u64()?, r.take_u64()?, r.take_u64()?, r.take_u64()?];
        self.rng = SimRng::from_state(s);
        self.storm_left = r.take_u64()?;
        self.injected = InjectedFaults {
            corruptions: r.take_u64()?,
            stalls: r.take_u64()?,
            stall_cycles: r.take_u64()?,
            storms: r.take_u64()?,
            mangled_records: r.take_u64()?,
        };
        Ok(())
    }

    /// Per-record mangling decision: `Some(raw)` when this trace record's
    /// address should be replaced, where `raw` is a uniform draw the
    /// consumer maps onto an out-of-range address.
    pub fn mangle_record(&mut self) -> Option<u64> {
        if self.cfg.trace_mangle > 0.0 && self.rng.chance(self.cfg.trace_mangle) {
            self.injected.mangled_records += 1;
            Some(self.rng.next_u64())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_cfg() -> FaultConfig {
        FaultConfig {
            seed: 7,
            dram_corruption: 0.3,
            bank_stall: 0.2,
            stash_storm: 0.1,
            trace_mangle: 0.05,
            ..FaultConfig::none()
        }
    }

    #[test]
    fn zero_rate_config_builds_no_plan() {
        assert!(!FaultConfig::none().is_active());
        assert!(FaultPlan::new(&FaultConfig::none(), 123).is_none());
    }

    #[test]
    fn same_seed_same_sequence() {
        let cfg = active_cfg();
        let mut a = FaultPlan::new(&cfg, 42).unwrap();
        let mut b = FaultPlan::new(&cfg, 42).unwrap();
        for _ in 0..500 {
            assert_eq!(a.corrupt_line(), b.corrupt_line());
            assert_eq!(a.bank_stall(), b.bank_stall());
            assert_eq!(a.storm_active(), b.storm_active());
            assert_eq!(a.mangle_record(), b.mangle_record());
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn different_attempts_differ() {
        let cfg = active_cfg();
        let retry = FaultConfig {
            attempt: 1,
            ..cfg.clone()
        };
        let mut a = FaultPlan::new(&cfg, 42).unwrap();
        let mut b = FaultPlan::new(&retry, 42).unwrap();
        let seq_a: Vec<_> = (0..64).map(|_| a.corrupt_line()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.corrupt_line()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn storm_runs_for_configured_slots() {
        let cfg = FaultConfig {
            stash_storm: 1.0,
            storm_slots: 4,
            ..FaultConfig::none()
        };
        let mut plan = FaultPlan::new(&cfg, 1).unwrap();
        // Every slot is active: the first draw starts a 4-slot storm, and
        // with rate 1.0 a new storm begins the moment one ends.
        for _ in 0..16 {
            assert!(plan.storm_active());
        }
        // Storms counted once per storm, not per slot: 16 slots / 4 per storm.
        assert_eq!(plan.injected().storms, 4);
    }

    #[test]
    fn masks_are_never_identity() {
        let cfg = FaultConfig {
            dram_corruption: 1.0,
            ..FaultConfig::none()
        };
        let mut plan = FaultPlan::new(&cfg, 9).unwrap();
        for _ in 0..256 {
            let (_, mask) = plan.corrupt_line().unwrap();
            assert_ne!(mask, 0);
        }
        assert_eq!(plan.injected().corruptions, 256);
    }

    #[test]
    fn stall_accounting_matches_draws() {
        let cfg = FaultConfig {
            bank_stall: 1.0,
            bank_stall_dram_cycles: 10,
            ..FaultConfig::none()
        };
        let mut plan = FaultPlan::new(&cfg, 3).unwrap();
        for _ in 0..5 {
            assert_eq!(plan.bank_stall(), 10);
        }
        assert_eq!(plan.injected().stalls, 5);
        assert_eq!(plan.injected().stall_cycles, 50);
    }
}
