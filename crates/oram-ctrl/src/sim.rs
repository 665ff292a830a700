//! Full-system simulation driver and reports.

use std::path::PathBuf;

use iroram_cache::{AccessOutcome, HierarchyStats, MemoryHierarchy};
use iroram_dram::DramStats;
use iroram_protocol::{BlockAddr, ProtocolStats};
use iroram_sim_engine::{
    checkpoint, profiler, Cycle, FaultPlan, SnapError, SnapReader, SnapWriter,
};
use iroram_trace::{Bench, WorkloadGen};

use crate::audit::AuditReport;
use crate::controller::StashPressure;
use crate::cpu::IssueCheck;
use crate::dwb::DwbStats;
use crate::{
    OramRequest, Scheme, SimError, SlotStats, SystemConfig, TimedController, TraceCpu,
};

/// Demand-queue depth at which the core stalls (miss-queue back-pressure).
const MAX_QUEUE: usize = 16;

/// Where a run checkpoints and which configuration the snapshot belongs to.
///
/// The fingerprint is stamped into every snapshot header and checked on
/// restore, so a snapshot written for one cell can never resume another:
/// a mismatch is a typed [`SnapError::ConfigMismatch`], not silent
/// divergence.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Snapshot file (written atomically: temp sibling + rename).
    pub path: PathBuf,
    /// Configuration fingerprint (the experiment journal's cell key).
    pub fingerprint: u64,
}

/// How long to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimit {
    /// Memory operations to replay from the workload.
    pub mem_ops: u64,
}

impl RunLimit {
    /// Run for `n` memory operations.
    pub fn mem_ops(n: u64) -> Self {
        RunLimit { mem_ops: n }
    }
}

/// Fault-injection and integrity accounting for one run. All-zero when no
/// fault plan was active and the memory image stayed clean.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// DRAM line corruptions injected by the fault plan.
    pub injected_corruptions: u64,
    /// Corruptions the integrity layer detected on a path read.
    pub detected: u64,
    /// Detected corruptions repaired by the modelled re-fetch.
    pub recovered: u64,
    /// Corruptions consumed by the protocol without detection.
    pub undetected: u64,
    /// Transient bank stalls injected.
    pub bank_stalls: u64,
    /// Total DRAM cycles added by bank stalls.
    pub stall_cycles: u64,
    /// Stash-pressure storms (bg-eviction suppression windows) started.
    pub storms: u64,
    /// Trace records the fault plan mangled.
    pub mangled_records: u64,
    /// Malformed trace records rejected by input validation.
    pub rejected_records: u64,
    /// CPU cycles of re-fetch penalty charged for detected corruption.
    pub refetch_penalty_cycles: u64,
}

/// Results of one full-system run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Workload name.
    pub workload: String,
    /// Execution time in CPU cycles (trace issue + memory drain).
    pub cycles: u64,
    /// Instructions represented by the replayed trace window.
    pub instructions: u64,
    /// Memory operations replayed.
    pub mem_ops: u64,
    /// Protocol statistics (main tree for ρ).
    pub protocol: ProtocolStats,
    /// Small-tree protocol statistics (ρ only).
    pub protocol_small: Option<ProtocolStats>,
    /// Slot accounting.
    pub slots: SlotStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Cache-hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// IR-DWB statistics, when the engine ran.
    pub dwb: Option<DwbStats>,
    /// Fault-injection and integrity accounting (all-zero when clean).
    pub faults: FaultStats,
    /// Stash pressure observed over the run.
    pub stash: StashPressure,
}

impl SimReport {
    /// Instructions per cycle achieved.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Measured read MPKI (LLC read misses per kilo-instruction).
    pub fn read_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.hierarchy.read_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Measured write MPKI.
    pub fn write_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.hierarchy.write_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Speedup of `self` relative to `base` (>1 means faster).
    pub fn speedup_over(&self, base: &SimReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            base.cycles as f64 / self.cycles as f64
        }
    }

    /// Total PosMap path accesses (main + small trees).
    pub fn posmap_paths(&self) -> u64 {
        self.protocol.posmap_paths()
            + self
                .protocol_small
                .as_ref()
                .map_or(0, ProtocolStats::posmap_paths)
    }

    /// Total paths of all types.
    pub fn total_paths(&self) -> u64 {
        self.protocol.total_paths()
            + self
                .protocol_small
                .as_ref()
                .map_or(0, ProtocolStats::total_paths)
    }
}

/// The full-system simulation entry points.
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Runs `bench`'s calibrated workload on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on [`SimError`]; use [`Simulation::try_run_bench`] to handle
    /// failures.
    pub fn run_bench(cfg: &SystemConfig, bench: Bench, limit: RunLimit) -> SimReport {
        Self::try_run_bench(cfg, bench, limit)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Fallible form of [`Simulation::run_bench`].
    pub fn try_run_bench(
        cfg: &SystemConfig,
        bench: Bench,
        limit: RunLimit,
    ) -> Result<SimReport, SimError> {
        let gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
        Ok(Self::try_run_audited(cfg, gen, limit, bench.name())?.0)
    }

    /// Like [`Simulation::run_bench`], also returning the audit results
    /// (Some iff `cfg.audit`).
    ///
    /// # Panics
    ///
    /// Panics on [`SimError`]; use [`Simulation::try_run_bench_audited`].
    pub fn run_bench_audited(
        cfg: &SystemConfig,
        bench: Bench,
        limit: RunLimit,
    ) -> (SimReport, Option<AuditReport>) {
        Self::try_run_bench_audited(cfg, bench, limit)
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Fallible form of [`Simulation::run_bench_audited`].
    pub fn try_run_bench_audited(
        cfg: &SystemConfig,
        bench: Bench,
        limit: RunLimit,
    ) -> Result<(SimReport, Option<AuditReport>), SimError> {
        let gen = WorkloadGen::for_bench(bench, cfg.data_blocks(), cfg.seed);
        Self::try_run_audited(cfg, gen, limit, bench.name())
    }

    /// Runs an arbitrary workload generator on `cfg`, also returning the
    /// audit results (Some iff `cfg.audit`). Auditing observes only: the
    /// [`SimReport`] is identical with the flag on or off. Every
    /// controller-level failure (stash overflow past the hard limit, stuck
    /// requests, malformed trace records with no fault plan to blame)
    /// surfaces as a typed [`SimError`] instead of a panic.
    pub fn try_run_audited(
        cfg: &SystemConfig,
        gen: WorkloadGen,
        limit: RunLimit,
        workload: &str,
    ) -> Result<(SimReport, Option<AuditReport>), SimError> {
        Self::try_run_checkpointed(cfg, gen, limit, workload, None)
    }

    /// Like [`Simulation::try_run_audited`], with crash-consistent
    /// checkpointing. With `Some(spec)` and `cfg.checkpoint_interval > 0`,
    /// the complete simulation state is snapshotted to `spec.path` every
    /// `checkpoint_interval` path slots; on entry an existing snapshot for
    /// the same fingerprint resumes the run mid-cell, and the finished
    /// report is byte-identical to an uninterrupted run's. The last
    /// mid-run snapshot is left on disk; callers that no longer need to
    /// resume (the sweep runner, once the report is journaled) delete it.
    ///
    /// # Errors
    ///
    /// [`SimError`] as for the uncheckpointed form, plus
    /// [`SimError::Snapshot`] for a corrupt, mismatched, or unwritable
    /// snapshot, and [`SimError::Config`] for an inconsistent ORAM
    /// configuration (checked before anything is built).
    pub fn try_run_checkpointed(
        cfg: &SystemConfig,
        mut gen: WorkloadGen,
        limit: RunLimit,
        workload: &str,
        ckpt: Option<&CheckpointSpec>,
    ) -> Result<(SimReport, Option<AuditReport>), SimError> {
        cfg.oram.validate()?;
        let mut ctl = TimedController::new(cfg);
        let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);
        let mut cpu = TraceCpu::new(cfg.rob_insts, cfg.ipc, cfg.mshrs);
        let mut next_id: u64 = 1;
        let mut last_completion = Cycle::ZERO;

        // Trace-level fault stream (record mangling), independent of the
        // controller's plan so the two draw from distinct sequences.
        let mut trace_plan = FaultPlan::new(&cfg.faults, cfg.seed ^ 0xFA01_7C02);
        let data_blocks = cfg.data_blocks();
        let mut rejected_records = 0u64;
        let mut record_index = 0u64;
        let mut ops = 0u64;

        // Resume from an existing snapshot, if one matches.
        let mut last_ckpt_slots = 0u64;
        if let Some(spec) = ckpt {
            if let Some((header, payload)) = checkpoint::load(&spec.path)? {
                if header.fingerprint != spec.fingerprint {
                    return Err(SimError::Snapshot(SnapError::ConfigMismatch {
                        expected: spec.fingerprint,
                        found: header.fingerprint,
                    }));
                }
                let mut r = SnapReader::new(&payload);
                ops = r.take_u64()?;
                record_index = r.take_u64()?;
                rejected_records = r.take_u64()?;
                next_id = r.take_u64()?;
                last_completion = Cycle(r.take_u64()?);
                gen.restore_state(&mut r)?;
                cpu.restore_state(&mut r)?;
                hierarchy.restore_state(&mut r)?;
                // lint: allow(secret-flow, snapshot payload is operator-visible checkpoint bytes, not ORAM block contents)
                match (r.take_u8()?, &mut trace_plan) {
                    (0, None) => {}
                    (1, Some(p)) => p.restore_state(&mut r)?,
                    _ => {
                        return Err(SimError::Snapshot(SnapError::Corrupt(
                            "trace-plan presence mismatch",
                        )))
                    }
                }
                ctl.restore_state(&mut r)?;
                r.finish()?;
                last_ckpt_slots = header.slots_done;
            }
        }

        while ops < limit.mem_ops {
            // Checkpoint cadence: between records the machine is quiescent
            // (no partially applied path access), so this is a consistent
            // cut of the whole simulation state.
            if let Some(spec) = ckpt {
                let slots = ctl.slots_done();
                if cfg.checkpoint_interval > 0
                    && slots >= last_ckpt_slots + cfg.checkpoint_interval
                {
                    let mut w = SnapWriter::new();
                    w.put_u64(ops);
                    w.put_u64(record_index);
                    w.put_u64(rejected_records);
                    w.put_u64(next_id);
                    w.put_u64(last_completion.0);
                    gen.save_state(&mut w);
                    cpu.save_state(&mut w);
                    hierarchy.save_state(&mut w);
                    match &trace_plan {
                        None => w.put_u8(0),
                        Some(p) => {
                            w.put_u8(1);
                            p.save_state(&mut w);
                        }
                    }
                    ctl.save_state(&mut w);
                    checkpoint::persist(&spec.path, spec.fingerprint, slots, &w.into_bytes())?;
                    last_ckpt_slots = slots;
                }
            }
            let mut rec = gen.next_record();
            let index = record_index;
            record_index += 1;
            if let Some(plan) = &mut trace_plan {
                if let Some(m) = plan.mangle_record() {
                    // Push the address out of the configured population, as
                    // a bit flip in a stored trace would.
                    rec.addr = data_blocks + (m % data_blocks.max(1));
                }
            }
            if rec.addr >= data_blocks {
                if trace_plan.is_some() {
                    // Under fault injection, validation drops the record
                    // and the run continues (the robustness contract).
                    rejected_records += 1;
                    continue;
                }
                return Err(SimError::MalformedRecord {
                    index,
                    addr: rec.addr,
                    data_blocks,
                });
            }
            loop {
                match cpu.try_issue(rec.gap) {
                    IssueCheck::Ready(t) => {
                        if ctl.queue_len() >= MAX_QUEUE {
                            ctl.advance_until_queue_below(MAX_QUEUE, &mut hierarchy)?;
                            for (id, done) in ctl.take_completions() {
                                last_completion = last_completion.max(done);
                                cpu.complete(id, done);
                            }
                            continue;
                        }
                        let addr = BlockAddr(rec.addr);
                        let (outcome, evicted) = {
                            let _p = profiler::enter(profiler::Phase::Llc);
                            hierarchy.access_full(rec.addr, rec.is_write)
                        };
                        let mut latency = match outcome {
                            AccessOutcome::L1Hit => cfg.l1_hit_lat,
                            AccessOutcome::LlcHit => cfg.llc_hit_lat,
                            AccessOutcome::Miss => 0,
                        };
                        let mut submitted_read: Option<u64> = None;
                        if outcome == AccessOutcome::Miss {
                            if ctl.front_try(addr, t).is_some() {
                                latency = cfg.front_hit_lat;
                            } else {
                                let id = next_id;
                                next_id += 1;
                                ctl.submit(OramRequest {
                                    id,
                                    addr,
                                    arrival: t,
                                    blocking: !rec.is_write,
                                });
                                if !rec.is_write {
                                    submitted_read = Some(id);
                                }
                            }
                        }
                        if let Some(ev) = evicted {
                            let id = next_id;
                            next_id += 1;
                            ctl.on_llc_eviction(BlockAddr(ev.addr), ev.dirty, t, id);
                        }
                        cpu.issue(rec.gap, t, latency);
                        if let Some(id) = submitted_read {
                            cpu.add_miss(id);
                        }
                        ops += 1;
                        ctl.advance_until(cpu.cursor(), &mut hierarchy)?;
                        for (id, done) in ctl.take_completions() {
                            last_completion = last_completion.max(done);
                            cpu.complete(id, done);
                        }
                        break;
                    }
                    IssueCheck::Blocked(req) => {
                        ctl.advance_until_complete(req, &mut hierarchy)?;
                        for (id, done) in ctl.take_completions() {
                            last_completion = last_completion.max(done);
                            cpu.complete(id, done);
                        }
                    }
                }
            }
        }
        // Drain the remaining memory work (queued writes, write-backs).
        let drain_end = ctl.drain(&mut hierarchy)?;
        for (id, done) in ctl.take_completions() {
            last_completion = last_completion.max(done);
            cpu.complete(id, done);
        }
        let cycles = cpu
            .cursor()
            .max(last_completion)
            .max(cpu.last_known_completion())
            .max(drain_end)
            .raw();

        ctl.final_audit(&hierarchy);
        let audit = ctl.audit_report();
        let (protocol, protocol_small) = ctl.protocol_stats();
        let istats = ctl.integrity_stats();
        let injected = ctl.fault_injected();
        let faults = FaultStats {
            injected_corruptions: istats.injected,
            detected: istats.detected,
            recovered: istats.recovered,
            undetected: istats.undetected,
            bank_stalls: injected.stalls,
            stall_cycles: injected.stall_cycles,
            storms: injected.storms,
            mangled_records: injected.mangled_records,
            rejected_records,
            refetch_penalty_cycles: ctl.refetch_penalty_cycles(),
        };
        let report = SimReport {
            scheme: cfg.scheme,
            workload: workload.to_owned(),
            cycles,
            instructions: cpu.instructions(),
            mem_ops: ops,
            protocol,
            protocol_small,
            slots: *ctl.slot_stats(),
            dram: *ctl.dram_stats(),
            hierarchy: *hierarchy.stats(),
            dwb: ctl.dwb_stats(),
            faults,
            stash: ctl.stash_pressure(),
        };
        // The last mid-run snapshot (if any) is left on disk: deleting it
        // is the caller's call, once the report is safely persisted. Tests
        // also resume from it to prove restored runs match uninterrupted
        // ones.
        Ok((report, audit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iroram_cache::HierarchyConfig;
    use iroram_protocol::{TreeTopMode, ZAllocation};

    fn tiny(scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::scaled(scheme);
        cfg.oram.levels = 10;
        cfg.oram.data_blocks = 1 << 11;
        cfg.oram.zalloc = ZAllocation::uniform(10, 4);
        cfg.oram.treetop = TreeTopMode::Dedicated { levels: 4 };
        cfg.oram.plb_sets = 8;
        cfg.oram.plb_ways = 2;
        cfg.hierarchy = HierarchyConfig {
            l1_sets: 16,
            l1_assoc: 2,
            llc_sets: 64,
            llc_assoc: 4,
        };
        cfg.with_scheme(scheme)
    }

    #[test]
    fn all_schemes_run_to_completion() {
        for scheme in crate::ALL_SCHEMES {
            let cfg = tiny(scheme);
            let report = Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(2_000));
            assert_eq!(report.mem_ops, 2_000, "{scheme:?}");
            assert!(report.cycles > 0, "{scheme:?}");
            assert!(report.instructions > 2_000, "{scheme:?}");
            assert!(report.ipc() > 0.0, "{scheme:?}");
        }
    }

    #[test]
    fn heavier_workloads_take_longer() {
        let cfg = tiny(Scheme::Baseline);
        let light = Simulation::run_bench(&cfg, Bench::Xal, RunLimit::mem_ops(3_000));
        let heavy = Simulation::run_bench(&cfg, Bench::Xz, RunLimit::mem_ops(3_000));
        // Heavy misses more and therefore has more path traffic per op.
        assert!(heavy.total_paths() > light.total_paths());
    }

    #[test]
    fn timing_protection_issues_dummies() {
        let cfg = tiny(Scheme::Baseline);
        let report = Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(2_000));
        assert!(
            report.slots.dummy_slots > 0,
            "a light benchmark must have idle slots → dummies"
        );
        let mut no_tp = cfg.clone();
        no_tp.timing_protection = false;
        let r2 = Simulation::run_bench(&no_tp, Bench::Gcc, RunLimit::mem_ops(2_000));
        assert_eq!(r2.slots.dummy_slots, 0);
    }

    #[test]
    fn reports_are_deterministic() {
        let cfg = tiny(Scheme::IrOram);
        let a = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(1_500));
        let b = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(1_500));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.slots, b.slots);
    }

    #[test]
    fn mpki_accounting() {
        let cfg = tiny(Scheme::Baseline);
        let r = Simulation::run_bench(&cfg, Bench::Lbm, RunLimit::mem_ops(4_000));
        assert!(r.write_mpki() > r.read_mpki(), "lbm is write-dominated");
        assert!(r.read_mpki() >= 0.0);
    }

    #[test]
    fn audit_is_clean_and_does_not_perturb() {
        for scheme in crate::ALL_SCHEMES {
            let cfg = tiny(scheme);
            let plain = Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(2_000));
            let mut audited = cfg.clone();
            audited.audit = true;
            let (report, audit) =
                Simulation::run_bench_audited(&audited, Bench::Gcc, RunLimit::mem_ops(2_000));
            let audit = audit.expect("audit enabled");
            assert!(
                audit.checks > 100,
                "{scheme:?}: audit barely ran ({} checks)",
                audit.checks
            );
            assert!(
                audit.is_clean(),
                "{scheme:?}: {} violations, e.g. {:?}",
                audit.violations,
                audit.samples.first()
            );
            // "Audits observe, they don't perturb": every reported number
            // must be identical with auditing on.
            assert_eq!(report.cycles, plain.cycles, "{scheme:?}");
            assert_eq!(report.protocol, plain.protocol, "{scheme:?}");
            assert_eq!(report.slots, plain.slots, "{scheme:?}");
            assert_eq!(report.dram, plain.dram, "{scheme:?}");
            assert_eq!(report.hierarchy, plain.hierarchy, "{scheme:?}");
        }
    }

    #[test]
    fn audit_report_absent_when_disabled() {
        let cfg = tiny(Scheme::Baseline);
        let (_, audit) =
            Simulation::run_bench_audited(&cfg, Bench::Gcc, RunLimit::mem_ops(500));
        assert!(audit.is_none());
    }

    #[test]
    fn irdwb_converts_some_dummies_on_writeheavy() {
        let cfg = tiny(Scheme::IrDwb);
        let r = Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(4_000));
        let d = r.dwb.expect("engine enabled");
        assert!(
            d.converted_slots > 0,
            "gcc has dummies and dirty lines to convert"
        );
    }
}
