//! Wall-clock phase profiler for the simulator's steady-state loop.
//!
//! Breaks a run into four phases — DRAM scheduling, stash/protocol work,
//! position-map resolution, and LLC lookups — and accumulates the wall time
//! spent in each. **Profiling never touches reports**: it measures the
//! *simulator's* time (like `perfstat`), is disabled by default, and when
//! enabled only reads clocks and counters outside all simulated state, so
//! every report stays byte-identical with profiling on or off.
//!
//! The accumulators are process-global atomics: `--jobs N` workers add into
//! the same pools, so the table reflects total time across the worker pool.
//!
//! Instrumented code holds a [`PhaseGuard`]:
//!
//! ```
//! use iroram_sim_engine::profiler::{self, Phase};
//! profiler::set_enabled(true);
//! {
//!     let _p = profiler::enter(Phase::DramSchedule);
//!     // ... scheduling work ...
//! }
//! profiler::set_enabled(false);
//! assert_eq!(profiler::snapshot()[Phase::DramSchedule as usize].calls, 1);
//! profiler::reset();
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// Wall-clock use is this module's whole purpose; it never feeds a report.
// lint: allow(determinism, profiler measures the simulator's wall time only; output is gated behind --profile and excluded from all reports)
use std::time::Instant;

/// Number of [`Phase`] variants.
pub const PHASES: usize = 4;

/// A steady-state phase of the timed simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// FR-FCFS batch scheduling and path request generation.
    DramSchedule = 0,
    /// Functional protocol work: path reads into the stash, write-back
    /// planning, background eviction.
    Stash = 1,
    /// Recursive position-map resolution and PosMap block fetches.
    PosMap = 2,
    /// LLC/L1 hierarchy lookups on the CPU side.
    Llc = 3,
}

impl Phase {
    /// All phases, in table order.
    pub const ALL: [Phase; PHASES] = [Phase::DramSchedule, Phase::Stash, Phase::PosMap, Phase::Llc];

    /// Human-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::DramSchedule => "dram-schedule",
            Phase::Stash => "stash",
            Phase::PosMap => "posmap",
            Phase::Llc => "llc",
        }
    }
}

// lint: allow(thread-order, opt-in stderr diagnostics; figure outputs never read these counters)
static ENABLED: AtomicBool = AtomicBool::new(false);
// lint: allow(thread-order, opt-in stderr diagnostics; figure outputs never read these counters)
static NANOS: [AtomicU64; PHASES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
// lint: allow(thread-order, opt-in stderr diagnostics; figure outputs never read these counters)
static CALLS: [AtomicU64; PHASES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Turns profiling on or off (off is the default; a disabled guard costs
/// one relaxed atomic load).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all phase accumulators (e.g. between per-scheme measurements).
pub fn reset() {
    for i in 0..PHASES {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

/// Accumulated totals for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Total wall time spent, in nanoseconds.
    pub nanos: u64,
    /// Number of guarded sections entered.
    pub calls: u64,
}

impl PhaseStat {
    /// Total seconds spent in the phase.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Reads the current accumulators, indexed by `Phase as usize`.
pub fn snapshot() -> [PhaseStat; PHASES] {
    Phase::ALL.map(|phase| PhaseStat {
        phase,
        nanos: NANOS[phase as usize].load(Ordering::Relaxed),
        calls: CALLS[phase as usize].load(Ordering::Relaxed),
    })
}

/// An RAII phase timer: created by [`enter`], adds its elapsed wall time to
/// the phase's accumulator on drop. Inert (and nearly free) while profiling
/// is disabled.
#[must_use = "the guard times the scope it lives in"]
#[derive(Debug)]
pub struct PhaseGuard {
    // lint: allow(determinism, wall-time capture is the profiler's function; never report-visible)
    start: Option<(Phase, Instant)>,
}

/// Starts timing `phase` (no-op when profiling is disabled).
pub fn enter(phase: Phase) -> PhaseGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return PhaseGuard { start: None };
    }
    // lint: allow(determinism, wall-time capture is the profiler's function; never report-visible)
    let started = Instant::now();
    PhaseGuard {
        start: Some((phase, started)),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((phase, start)) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            NANOS[phase as usize].fetch_add(nanos, Ordering::Relaxed);
            CALLS[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global accumulators are shared across the test binary's threads,
    // so these tests tolerate concurrent increments: they assert deltas on
    // phases no other test touches.

    #[test]
    fn disabled_guard_records_nothing() {
        set_enabled(false);
        let before = snapshot()[Phase::Llc as usize].calls;
        {
            let _p = enter(Phase::Llc);
        }
        assert_eq!(snapshot()[Phase::Llc as usize].calls, before);
    }

    #[test]
    fn enabled_guard_accumulates_calls_and_time() {
        let before = snapshot()[Phase::PosMap as usize];
        set_enabled(true);
        {
            let _p = enter(Phase::PosMap);
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        let after = snapshot()[Phase::PosMap as usize];
        assert_eq!(after.calls, before.calls + 1);
        assert!(after.nanos >= before.nanos);
    }

    #[test]
    fn phase_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASES);
    }
}
