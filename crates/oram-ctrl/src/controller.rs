//! The timed ORAM controller: one fixed-rate slot engine for every scheme.
//!
//! [`TimedController`] owns the timing-channel discipline — the DRAM system
//! and path tables, the slot clock and its pacing, the k-deep pipeline and
//! write deferral, stash-pressure degradation, the fault plan, the audit
//! hooks, completions and slot accounting. A [`PathChooser`] supplies only
//! the scheme's work: which path each slot carries. [`SingleTree`] serves
//! every scheme but ρ; [`RhoTrees`] holds ρ's main and small trees.

use std::collections::VecDeque;

use iroram_cache::MemoryHierarchy;
use iroram_dram::{DramStats, DramSystem, PathTable, SubtreeLayout};
use iroram_protocol::{
    BlockAddr, IntegrityStats, PathOram, PathRecord, ProtocolStats, RemapPolicy,
};
use iroram_sim_engine::{
    profiler, ClockRatio, Cycle, FaultPlan, InjectedFaults, SnapError, SnapReader, SnapWriter,
};

use crate::audit::{AuditReport, AuditState};
use crate::dwb::DwbStats;
use crate::pipeline::{self, PipelineState, PipelineStats};
use crate::rho::RhoTrees;
use crate::{DwbEngine, SimError, SystemConfig};

/// Identifier of an in-flight ORAM request.
pub type ReqId = u64;

/// Consecutive slots the stash may sit over its hard limit while graceful
/// degradation (admission throttling + background eviction) tries to drain
/// it, before [`SimError::StashOverflow`] fires. Bounded so a stash pinned
/// over the limit (e.g. by a fault storm suppressing eviction) still
/// surfaces as the typed transient error.
pub const OVERFLOW_GRACE_SLOTS: u64 = 64;

/// Admission duty cycle in degraded mode: while the stash sits between the
/// degradation watermark and the hard limit, new work is admitted on one
/// slot in this many (full stop only above the hard limit). Reduced-rate
/// rather than zero-rate admission guarantees forward progress even when
/// nothing else drains the stash — a full stop below the hard limit could
/// spin forever without ever reaching the overflow error.
pub const DEGRADED_ADMIT_PERIOD: u64 = 4;

/// A request submitted to the ORAM controller after missing the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramRequest {
    /// Request id (assigned by the simulator).
    pub id: ReqId,
    /// Block address.
    pub addr: BlockAddr,
    /// Cycle the request reached the controller.
    pub arrival: Cycle,
    /// Whether the CPU waits for this request (demand read miss).
    pub blocking: bool,
}

/// Slot-level accounting (what each timing-protection slot carried).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Total path slots issued.
    pub total_slots: u64,
    /// Slots carrying real work (PosMap, data, delayed write-back paths).
    pub real_slots: u64,
    /// Slots carrying background-eviction paths.
    pub bg_slots: u64,
    /// Slots carrying plain dummy paths.
    pub dummy_slots: u64,
    /// Slots converted by IR-DWB.
    pub converted_slots: u64,
}

iroram_sim_engine::counter_codec!(SlotStats {
    total_slots,
    real_slots,
    bg_slots,
    dummy_slots,
    converted_slots
});

/// Stash soft-capacity pressure accounting. The soft capacity is a
/// background-eviction trigger, not a wall (Stefanov et al. treat overflow
/// as a probabilistic event); these counters measure how hard the workload
/// leaned on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StashPressure {
    /// Configured soft capacity (background-eviction trigger).
    pub soft_capacity: u64,
    /// Stash occupancy high-water mark.
    pub max_occupancy: u64,
    /// Slots that began with the stash over its soft capacity.
    pub overflow_slots: u64,
    /// Idle→pending transitions of the background-eviction condition.
    pub bg_escalations: u64,
    /// Slots that began over the degradation watermark (¾ of the hard
    /// limit) with new-work admission throttled so eviction could drain.
    pub degraded_slots: u64,
    /// Eligible demand/write-back admissions deferred by that throttle.
    pub throttled_admissions: u64,
}

iroram_sim_engine::counter_codec!(StashPressure {
    soft_capacity,
    max_occupancy,
    overflow_slots,
    bg_escalations,
    degraded_slots,
    throttled_admissions
});

/// The tree a path belongs to. Only ρ has a small tree; its paths use the
/// DRAM region after the main tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tree {
    Main,
    Small,
}

/// The [`SlotStats`] category a slot counts under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    Real,
    Bg,
    Converted,
    Dummy,
}

/// A path a chooser picked for this slot (a real or bg-eviction path).
#[derive(Debug)]
pub(crate) struct Pick {
    pub(crate) path: PathRecord,
    pub(crate) kind: SlotKind,
    /// Blocking request the path's read phase completes.
    pub(crate) completes: Option<ReqId>,
}

impl Pick {
    pub(crate) fn real(path: PathRecord, completes: Option<ReqId>) -> Self {
        Pick {
            path,
            kind: SlotKind::Real,
            completes,
        }
    }

    pub(crate) fn bg(path: PathRecord) -> Self {
        Pick {
            path,
            kind: SlotKind::Bg,
            completes: None,
        }
    }
}

/// What the engine lends a chooser for one slot.
pub(crate) struct SlotCtx<'a> {
    /// The slot's issue time.
    pub(crate) t: Cycle,
    /// Degraded mode: eligible new work must wait.
    pub(crate) throttle: bool,
    /// A fault-injected storm suppresses background eviction.
    pub(crate) storm: bool,
    pub(crate) pipe: Option<&'a mut PipelineState>,
    audit: Option<&'a mut AuditState>,
    front_hit_lat: u64,
    completions: &'a mut Vec<(ReqId, Cycle)>,
    throttled_admissions: &'a mut u64,
}

impl SlotCtx<'_> {
    /// Oracle check for a block the protocol just served.
    pub(crate) fn oracle_read(&mut self, addr: BlockAddr, payload: u64) {
        if let Some(audit) = &mut self.audit {
            audit.oracle_read(addr.0, payload);
        }
    }

    /// Completes request `id`, served on-chip during this slot.
    pub(crate) fn complete_on_chip(&mut self, id: ReqId) {
        self.completions.push((id, self.t + self.front_hit_lat));
    }

    /// Counts an eligible admission the degradation throttle deferred.
    pub(crate) fn throttled(&mut self) {
        *self.throttled_admissions += 1;
    }
}

/// The scheme half of the engine: which path each slot carries. A closed
/// set — a new scheme is a new variant, not a new controller. (Variants
/// are boxed: each embeds whole protocol instances.)
#[derive(Debug)]
pub(crate) enum PathChooser {
    /// One tree (every scheme but ρ).
    SingleTree(Box<SingleTree>),
    /// ρ's main and small trees.
    RhoTrees(Box<RhoTrees>),
}

impl PathChooser {
    fn new(cfg: &SystemConfig) -> Self {
        if cfg.scheme.uses_rho() {
            PathChooser::RhoTrees(Box::new(RhoTrees::new(cfg)))
        } else {
            PathChooser::SingleTree(Box::new(SingleTree::new(cfg)))
        }
    }

    /// The main tree (the only one outside ρ).
    fn main(&self) -> &PathOram {
        match self {
            PathChooser::SingleTree(s) => &s.protocol,
            PathChooser::RhoTrees(r) => &r.main,
        }
    }

    fn main_mut(&mut self) -> &mut PathOram {
        match self {
            PathChooser::SingleTree(s) => &mut s.protocol,
            PathChooser::RhoTrees(r) => &mut r.main,
        }
    }

    /// ρ's small tree.
    fn small(&self) -> Option<&PathOram> {
        match self {
            PathChooser::SingleTree(_) => None,
            PathChooser::RhoTrees(r) => Some(&r.small),
        }
    }

    /// Every tree, main first.
    fn trees(&self) -> impl Iterator<Item = &PathOram> {
        std::iter::once(self.main()).chain(self.small())
    }

    fn dwb(&self) -> Option<&DwbEngine> {
        match self {
            PathChooser::SingleTree(s) => s.dwb.as_ref(),
            PathChooser::RhoTrees(_) => None,
        }
    }

    fn front_try(&mut self, addr: BlockAddr, audit: Option<&mut AuditState>) -> bool {
        match self {
            PathChooser::SingleTree(s) => front_serve(&mut s.protocol, addr, audit),
            PathChooser::RhoTrees(r) => r.front_try(addr, audit),
        }
    }

    fn submit(&mut self, req: OramRequest) {
        match self {
            PathChooser::SingleTree(s) => s.queue.push_back(req),
            PathChooser::RhoTrees(r) => r.submit(req),
        }
    }

    fn on_llc_eviction(
        &mut self,
        addr: BlockAddr,
        dirty: bool,
        now: Cycle,
        id: ReqId,
        audit: Option<&mut AuditState>,
    ) {
        match self {
            PathChooser::SingleTree(s) => s.on_llc_eviction(addr, dirty, now, id, audit),
            PathChooser::RhoTrees(r) => r.on_llc_eviction(addr, dirty, now),
        }
    }

    fn queue_len(&self) -> usize {
        match self {
            PathChooser::SingleTree(s) => s.queue.len() + usize::from(s.current.is_some()),
            PathChooser::RhoTrees(r) => r.queue_len(),
        }
    }

    /// Queued or in-progress requests and write-backs (bg eviction aside).
    fn has_queued_work(&self) -> bool {
        match self {
            PathChooser::SingleTree(s) => {
                s.current.is_some() || !s.queue.is_empty() || !s.wb_queue.is_empty()
            }
            PathChooser::RhoTrees(r) => r.has_queued_work(),
        }
    }

    /// Picks this slot's path and the tree the slot belongs to; `None`
    /// leaves the slot idle (converted or dummy).
    fn slot_path(&mut self, ctx: &mut SlotCtx<'_>) -> Result<(Tree, Option<Pick>), SimError> {
        match self {
            PathChooser::SingleTree(s) => Ok((Tree::Main, s.slot_path(ctx)?)),
            PathChooser::RhoTrees(r) => r.slot_path(ctx),
        }
    }

    /// IR-DWB: converts an idle slot into an early write-back path.
    fn convert_idle(
        &mut self,
        hierarchy: &mut MemoryHierarchy,
        t: Cycle,
    ) -> Result<Option<PathRecord>, SimError> {
        match self {
            PathChooser::SingleTree(s) => match &mut s.dwb {
                Some(dwb) => dwb.try_convert(&mut s.protocol, hierarchy, t),
                None => Ok(None),
            },
            PathChooser::RhoTrees(_) => Ok(None),
        }
    }

    /// The dummy path of an idle slot: each dummy uses the slot's own tree.
    fn dummy_path(&mut self, tree: Tree) -> PathRecord {
        match (self, tree) {
            (PathChooser::RhoTrees(r), Tree::Small) => r.small.dummy_path(),
            (c, _) => c.main_mut().dummy_path(),
        }
    }

    /// Next slot time of an idle slot without timing protection: the single
    /// tree jumps to the next queued arrival, ρ waits one interval.
    fn idle_next_slot(&self, t: Cycle, t_interval: u64) -> Cycle {
        match self {
            PathChooser::SingleTree(s) => match s.queue.front() {
                Some(r) if r.arrival > t => r.arrival,
                _ => t + t_interval,
            },
            PathChooser::RhoTrees(_) => t + t_interval,
        }
    }

    /// Structural invariant sweep of every tree.
    fn note_structural(&self, audit: &mut AuditState) {
        match self {
            PathChooser::SingleTree(s) => {
                audit.note_structural("protocol", s.protocol.check_invariants());
            }
            PathChooser::RhoTrees(r) => {
                audit.note_structural("main tree", r.main.check_invariants());
                audit.note_structural("small tree", r.small.check_invariants());
            }
        }
    }

    /// IR-DWB coherence: victim, scanner lock and the LLC's dirty bit agree.
    fn check_dwb(&self, audit: &mut AuditState, hierarchy: &MemoryHierarchy) {
        if let Some(dwb) = self.dwb() {
            match dwb.check_coherence(hierarchy) {
                Ok(()) => audit.passed(),
                Err(e) => audit.violation(format!("dwb: {e}")),
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        match self {
            PathChooser::SingleTree(s) => {
                w.put_u8(0);
                s.save_state(w);
            }
            PathChooser::RhoTrees(r) => {
                w.put_u8(1);
                r.save_state(w);
            }
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (r.take_u8()?, self) {
            (0, PathChooser::SingleTree(s)) => s.restore_state(r),
            (1, PathChooser::RhoTrees(t)) => t.restore_state(r),
            _ => Err(SnapError::Corrupt(
                "path-chooser mismatch (single tree vs ρ)",
            )),
        }
    }
}

/// One tree's DRAM region: the precomputed path→line table, its line
/// offset, and the memory-backed lines per path.
#[derive(Debug)]
struct Region {
    table: PathTable,
    offset: u64,
    lines: u64,
}

/// The per-tree regions (fixed at construction).
#[derive(Debug)]
struct Regions {
    main: Region,
    small: Option<Region>,
}

impl Regions {
    fn get(&self, tree: Tree) -> &Region {
        match (tree, &self.small) {
            (Tree::Small, Some(small)) => small,
            _ => &self.main,
        }
    }

    /// The region of the tree a pipeline record names.
    fn of_record(&self, small_tree: bool) -> &Region {
        self.get(if small_tree { Tree::Small } else { Tree::Main })
    }
}

/// The timed Path ORAM controller for every scheme.
///
/// Drives the functional protocol one path per slot, schedules each path's
/// block reads/writes on the DRAM model (via the subtree layout), and
/// enforces the timing-channel discipline: a slot every `T` cycles,
/// dummies when idle, every path identical in shape.
#[derive(Debug)]
pub struct TimedController {
    pub(crate) chooser: PathChooser,
    dram: DramSystem,
    regions: Regions,
    t_interval: u64,
    timing_protection: bool,
    clock: ClockRatio,
    decrypt_lat: u64,
    front_hit_lat: u64,
    next_slot: Cycle,
    /// The k-deep access pipeline; `None` at effective depth 1, where the
    /// serial code paths run verbatim (see [`crate::pipeline`]).
    pipe: Option<PipelineState>,
    completions: Vec<(ReqId, Cycle)>,
    slot_stats: SlotStats,
    last_write_done: Cycle,
    /// Audit state (ρ: oracle over the main tree only — small-tree slots
    /// are re-used by different data blocks).
    audit: Option<Box<AuditState>>,
    /// Fault plan (None when every rate is zero — the common case).
    faults: Option<FaultPlan>,
    /// CPU cycles charged per detected-and-repaired corrupted bucket.
    refetch_lat: u64,
    /// Hard limit on any stash; staying over it past the bounded grace is
    /// a transient `SimError`.
    stash_hard_limit: usize,
    /// Degradation watermark (¾ of the hard limit): above it, new-work
    /// admission is throttled so background eviction can drain the stash.
    degrade_watermark: usize,
    /// Integrity detections already charged a re-fetch penalty.
    seen_detected: u64,
    /// Total re-fetch penalty cycles charged so far.
    penalty_cycles: u64,
    /// Previous slot's bg-eviction-pending state (escalation edges).
    was_bg_pending: bool,
    overflow_slots: u64,
    bg_escalations: u64,
    /// Degraded-mode slot count (see [`StashPressure::degraded_slots`]).
    degraded_slots: u64,
    /// Admissions deferred by the degradation throttle.
    throttled_admissions: u64,
    /// Consecutive slots a stash has sat over the hard limit (the
    /// degradation grace counter; reset when it drains back under).
    overflow_grace: u64,
    slots_done: u64,
}

impl TimedController {
    /// Builds the controller (protocol init included) for any scheme.
    pub fn new(cfg: &SystemConfig) -> Self {
        let chooser = PathChooser::new(cfg);
        let cached = cfg.oram.treetop.cached_levels();
        let main = chooser.main().layout();
        let main_layout = SubtreeLayout::new(&main.memory_z(cached), cfg.subtree_group);
        let regions = Regions {
            main: Region {
                table: main_layout.path_table(0),
                offset: 0,
                lines: main.path_len_memory(cached),
            },
            small: chooser.small().map(|small| Region {
                table: SubtreeLayout::new(&small.layout().memory_z(0), cfg.subtree_group)
                    .path_table(0),
                offset: main_layout.total_lines(),
                lines: small.layout().path_len_memory(0),
            }),
        };
        TimedController {
            chooser,
            dram: DramSystem::new(cfg.dram),
            regions,
            t_interval: cfg.t_interval,
            timing_protection: cfg.timing_protection,
            clock: cfg.clock,
            decrypt_lat: cfg.decrypt_lat,
            front_hit_lat: cfg.front_hit_lat,
            next_slot: Cycle(cfg.t_interval),
            pipe: PipelineState::new(cfg.pipeline_depth),
            completions: Vec::new(),
            slot_stats: SlotStats::default(),
            last_write_done: Cycle::ZERO,
            audit: cfg.audit.then(|| {
                Box::new(AuditState::new(pipeline::effective_depth(
                    cfg.pipeline_depth,
                )))
            }),
            faults: FaultPlan::new(&cfg.faults, cfg.seed ^ 0xFA01_7C01),
            refetch_lat: cfg.refetch_lat,
            stash_hard_limit: cfg.effective_stash_hard_limit(),
            degrade_watermark: cfg.effective_stash_hard_limit() / 4 * 3,
            seen_detected: 0,
            penalty_cycles: 0,
            was_bg_pending: false,
            overflow_slots: 0,
            bg_escalations: 0,
            degraded_slots: 0,
            throttled_admissions: 0,
            overflow_grace: 0,
            slots_done: 0,
        }
    }

    /// The functional protocol instance (ρ: the main tree).
    pub fn protocol(&self) -> &PathOram {
        self.chooser.main()
    }

    /// Protocol statistics of the main tree, and of ρ's small tree.
    pub fn protocol_stats(&self) -> (ProtocolStats, Option<ProtocolStats>) {
        (
            self.chooser.main().stats().clone(),
            self.chooser.small().map(|s| s.stats().clone()),
        )
    }

    /// The audit results so far (None unless `cfg.audit` was set).
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.audit.as_ref().map(|a| a.report())
    }

    /// End-of-run audit: a final whole-structure sweep plus IR-DWB
    /// coherence. No-op when auditing is off.
    pub fn final_audit(&mut self, hierarchy: &MemoryHierarchy) {
        let Some(audit) = &mut self.audit else { return };
        self.chooser.note_structural(audit);
        self.chooser.check_dwb(audit, hierarchy);
    }

    /// The DRAM system's statistics (shared by every tree).
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Slot accounting.
    pub fn slot_stats(&self) -> &SlotStats {
        &self.slot_stats
    }

    /// IR-DWB statistics, if the engine is enabled.
    pub fn dwb_stats(&self) -> Option<DwbStats> {
        self.chooser.dwb().map(|d| *d.stats())
    }

    /// Pipeline counters, if the controller runs at effective depth > 1.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.pipe.as_ref().map(PipelineState::stats)
    }

    /// Integrity-layer counters (injected / detected / recovered /
    /// undetected corruptions), summed over every tree.
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.chooser.trees().map(PathOram::integrity_stats).fold(
            IntegrityStats::default(),
            |a, s| IntegrityStats {
                injected: a.injected + s.injected,
                detected: a.detected + s.detected,
                recovered: a.recovered + s.recovered,
                undetected: a.undetected + s.undetected,
            },
        )
    }

    /// Counters for faults the plan actually injected (zeros with no plan).
    pub fn fault_injected(&self) -> InjectedFaults {
        self.faults
            .as_ref()
            .map(|p| p.injected())
            .unwrap_or_default()
    }

    /// Total CPU cycles of re-fetch penalty charged for detected
    /// corruption.
    pub fn refetch_penalty_cycles(&self) -> u64 {
        self.penalty_cycles
    }

    /// Stash pressure (main-tree soft capacity; occupancy high-water mark
    /// over every stash).
    pub fn stash_pressure(&self) -> StashPressure {
        StashPressure {
            soft_capacity: self.chooser.main().config().stash_capacity as u64,
            max_occupancy: self
                .chooser
                .trees()
                .map(PathOram::stash_peak)
                .max()
                .unwrap_or(0) as u64,
            overflow_slots: self.overflow_slots,
            bg_escalations: self.bg_escalations,
            degraded_slots: self.degraded_slots,
            throttled_admissions: self.throttled_admissions,
        }
    }

    /// Slots processed so far (the checkpoint trigger and the snapshot
    /// header's progress field).
    pub fn slots_done(&self) -> u64 {
        self.slots_done
    }

    /// Pending request-queue depth (for CPU back-pressure).
    pub fn queue_len(&self) -> usize {
        self.chooser.queue_len()
    }

    /// Whether background eviction is pending in any tree.
    fn bg_evict_pending(&self) -> bool {
        self.chooser.trees().any(PathOram::bg_evict_pending)
    }

    /// Whether any real (non-dummy) work remains.
    pub fn has_real_work(&self) -> bool {
        self.chooser.has_queued_work() || self.bg_evict_pending()
    }

    /// Tries to serve an LLC miss from the on-chip front stores (F-Stash,
    /// escrow, S-Stash; ρ's small-tree stash). On a hit returns the
    /// completion time; the request never consumes a path slot.
    pub fn front_try(&mut self, addr: BlockAddr, now: Cycle) -> Option<Cycle> {
        self.chooser
            .front_try(addr, self.audit.as_deref_mut())
            .then_some(now + self.front_hit_lat)
    }

    /// Submits a demand request (the caller should have tried
    /// [`TimedController::front_try`] first).
    pub fn submit(&mut self, req: OramRequest) {
        self.chooser.submit(req);
    }

    /// Notifies the controller of an LLC eviction. Dirty lines become write
    /// requests (immediate remap) or delayed write-backs; IR-DWB aborts any
    /// sequence targeting the line.
    pub fn on_llc_eviction(&mut self, addr: BlockAddr, dirty: bool, now: Cycle, id: ReqId) {
        self.chooser
            .on_llc_eviction(addr, dirty, now, id, self.audit.as_deref_mut());
    }

    /// Drains accumulated request completions.
    pub fn take_completions(&mut self) -> Vec<(ReqId, Cycle)> {
        std::mem::take(&mut self.completions)
    }

    /// Processes every slot due at or before `now`.
    pub fn advance_until(
        &mut self,
        now: Cycle,
        hierarchy: &mut MemoryHierarchy,
    ) -> Result<(), SimError> {
        while self.next_slot <= now {
            self.process_slot(hierarchy)?;
        }
        Ok(())
    }

    /// Advances slots until request `id` completes, returning its completion
    /// time. An unknown request (never submitted) surfaces as
    /// [`SimError::RequestStuck`] — the queues are FIFO, so a submitted
    /// request always completes.
    pub fn advance_until_complete(
        &mut self,
        id: ReqId,
        hierarchy: &mut MemoryHierarchy,
    ) -> Result<Cycle, SimError> {
        loop {
            if let Some(&(_, done)) = self.completions.iter().find(|&&(rid, _)| rid == id) {
                return Ok(done);
            }
            if !self.has_real_work() {
                return Err(SimError::RequestStuck { id });
            }
            self.process_slot(hierarchy)?;
        }
    }

    /// Advances slots until the pending queue drops below `limit` (CPU
    /// back-pressure when the miss queue fills).
    pub fn advance_until_queue_below(
        &mut self,
        limit: usize,
        hierarchy: &mut MemoryHierarchy,
    ) -> Result<Cycle, SimError> {
        while self.queue_len() >= limit {
            self.process_slot(hierarchy)?;
        }
        Ok(self.next_slot)
    }

    /// Runs slots until all real work drains. Returns the time the last
    /// path's write phase finished.
    pub fn drain(&mut self, hierarchy: &mut MemoryHierarchy) -> Result<Cycle, SimError> {
        while self.has_real_work() {
            self.process_slot(hierarchy)?;
        }
        // Pipelined: the last slot's write-back is still deferred — land it
        // so the run's DRAM traffic and retirement time are complete.
        self.flush_writes();
        Ok(self.last_write_done.max(self.next_slot))
    }

    /// Issues one slot. Public for lock-step tests; normal callers use the
    /// `advance_*` methods.
    pub fn process_slot(&mut self, hierarchy: &mut MemoryHierarchy) -> Result<(), SimError> {
        if let Some(audit) = &mut self.audit {
            // IR-DWB state is quiescent between slots.
            self.chooser.check_dwb(audit, hierarchy);
            if audit.structural_due() {
                self.chooser.note_structural(audit);
            }
        }
        // Fault plan: one storm/corruption decision per slot, before any
        // protocol work (a corrupted bucket may sit on this very path).
        // Corruption targets the main tree — the off-chip bulk of storage.
        let mut storm = false;
        if let Some(plan) = &mut self.faults {
            storm = plan.storm_active();
            if let Some((pick, mask)) = plan.corrupt_line() {
                inject_corruption(self.chooser.main_mut(), pick, mask);
            }
        }
        // Stash pressure over every tree: sampled at slot boundaries. Over
        // the degradation watermark (¾ of the hard limit), new-work
        // admission is throttled so background eviction can drain the
        // stash; over the hard limit itself a bounded grace of degraded
        // slots runs before the typed transient error fires. Clean runs
        // never cross the watermark, so the schedule is unchanged
        // (`dram_traffic_is_workload_independent_at_every_pipeline_depth`
        // asserts it for every scheme, idle and saturated).
        let occupancy = self
            .chooser
            .trees()
            .map(|o| o.stash_len())
            .fold(0, usize::max);
        if occupancy > self.chooser.main().config().stash_capacity {
            self.overflow_slots += 1;
        }
        let pending = self.bg_evict_pending();
        if pending && !self.was_bg_pending {
            self.bg_escalations += 1;
        }
        self.was_bg_pending = pending;
        let degraded = occupancy > self.degrade_watermark;
        if degraded {
            self.degraded_slots += 1;
        }
        if occupancy > self.stash_hard_limit {
            self.overflow_grace += 1;
            if self.overflow_grace > OVERFLOW_GRACE_SLOTS {
                return Err(SimError::StashOverflow {
                    occupancy,
                    hard_limit: self.stash_hard_limit,
                    slot: self.slots_done,
                });
            }
        } else {
            self.overflow_grace = 0;
        }
        // Degraded admission gate: above the hard limit nothing is admitted
        // (the grace above bounds how long that can last); between the
        // watermark and the hard limit one slot in DEGRADED_ADMIT_PERIOD
        // still admits, so throttling can never stall the run outright.
        let throttle = occupancy > self.stash_hard_limit
            || (degraded && !self.slots_done.is_multiple_of(DEGRADED_ADMIT_PERIOD));
        self.slots_done += 1;
        let t = self.next_slot;
        let (tree, pick) = self.chooser.slot_path(&mut SlotCtx {
            t,
            throttle,
            storm,
            pipe: self.pipe.as_mut(),
            audit: self.audit.as_deref_mut(),
            front_hit_lat: self.front_hit_lat,
            completions: &mut self.completions,
            throttled_admissions: &mut self.throttled_admissions,
        })?;
        if let Some(p) = pick {
            self.finish_path(t, p.path, tree, p.kind, p.completes);
        } else if let Some(path) = self.chooser.convert_idle(hierarchy, t)? {
            self.finish_path(t, path, Tree::Main, SlotKind::Converted, None);
        } else if self.timing_protection {
            let path = {
                let _p = profiler::enter(profiler::Phase::Stash);
                self.chooser.dummy_path(tree)
            };
            self.finish_path(t, path, tree, SlotKind::Dummy, None);
        } else {
            // No fixed-rate discipline: an idle slot issues nothing.
            self.next_slot = self.chooser.idle_next_slot(t, self.t_interval);
        }
        Ok(())
    }

    /// Flushes the deferred write-back (pipelined mode) into the memory
    /// controller, its lines rebuilt from the pending path's tree and leaf,
    /// records the path as in flight for conflict detection, and returns
    /// the write completion — `None` when nothing was pending.
    fn flush_writes(&mut self) -> Option<Cycle> {
        let pending = self.pipe.as_mut()?.take_pending()?;
        let region = self.regions.of_record(pending.small_tree);
        let write_done = self.dram.schedule_lines(
            region.table.lines(pending.leaf, region.offset),
            true,
            pending.read_done,
        );
        if let Some(pipe) = &mut self.pipe {
            pipe.record(pending.leaf, pending.small_tree, write_done);
        }
        self.last_write_done = self
            .last_write_done
            .max(self.clock.slow_to_fast(write_done));
        Some(write_done)
    }

    /// Lines of the deferred write-back still awaiting flush: one path of
    /// the pending path's tree (0 in serial mode, or with nothing pending).
    /// The DRAM request counter trails the slot count by exactly this
    /// amount mid-run; [`TimedController::drain`] flushes it.
    pub fn deferred_write_lines(&self) -> u64 {
        self.pipe
            .as_ref()
            .and_then(PipelineState::pending)
            .map_or(0, |p| {
                self.regions.of_record(p.small_tree).table.path_len() as u64
            })
    }

    /// Counts the slot, schedules the path's DRAM traffic in its tree's
    /// region, and advances the slot clock.
    fn finish_path(
        &mut self,
        t: Cycle,
        path: PathRecord,
        tree: Tree,
        kind: SlotKind,
        completes: Option<ReqId>,
    ) {
        let _phase = profiler::enter(profiler::Phase::DramSchedule);
        let stats = &mut self.slot_stats;
        stats.total_slots += 1;
        *match kind {
            SlotKind::Real => &mut stats.real_slots,
            SlotKind::Bg => &mut stats.bg_slots,
            SlotKind::Converted => &mut stats.converted_slots,
            SlotKind::Dummy => &mut stats.dummy_slots,
        } += 1;
        let small_tree = tree == Tree::Small;
        let req_before = self.dram.stats().requests;
        // Transient bank stall: the batch reaches the memory controller
        // late; everything downstream (including the timing audit's floor)
        // sees the shifted completion.
        let stall = self.faults.as_mut().map_or(0, |p| p.bank_stall());
        let mut arrival = self.clock.fast_to_slow(t) + stall;
        // Pipelined: a path sharing a memory bucket with the still-deferred
        // write batch must let that batch land first (write-before-read on
        // a shared bucket); one sharing with an older unretired in-flight
        // path of the same tree is held until its write-back retires (the
        // trees occupy disjoint DRAM regions, so cross-tree paths never
        // conflict). Either way the held path's blocks wait in the stash
        // escrow / F-Stash meanwhile.
        let table = &self.regions.get(tree).table;
        if self
            .pipe
            .as_mut()
            .is_some_and(|p| p.pending_conflicts(table, path.leaf.0, small_tree))
        {
            if let Some(done) = self.flush_writes() {
                arrival = arrival.max(done);
            }
        }
        let region = self.regions.get(tree);
        if let Some(pipe) = &mut self.pipe {
            let hold = pipe.conflict_hold(&region.table, path.leaf.0, small_tree, arrival);
            if let Some(hold) = hold {
                arrival = hold;
            }
        }
        let expected_lines = region.lines;
        let lines = region.table.path_len() as u64;
        let path_lines = region.table.lines(path.leaf.0, region.offset);
        let (read_done, write_done) = if self.pipe.is_some() {
            let read_done = self.dram.schedule_lines(path_lines, false, arrival);
            // Read-priority write-back: flush the *previous* slot's writes
            // now that this read has been scheduled (the read outranks them
            // in the bank queues), then defer our own the same way. The
            // pipeline keeps only its tree, leaf and read completion; the
            // flush rebuilds its lines from the path table.
            self.flush_writes();
            if let Some(pipe) = &mut self.pipe {
                pipe.stash_write(path.leaf.0, small_tree, read_done);
            }
            (read_done, None)
        } else {
            // Serially, the write-back follows the read at once: one call
            // schedules both, straight from the path table, decoding each
            // line once.
            let (read_done, write_done) = self.dram.schedule_path(path_lines, arrival);
            (read_done, Some(write_done))
        };
        // Re-fetch penalty: every corruption this path's read phase detected
        // and repaired stretches the read-phase completion — the public
        // occupancy floor — so recovery is a measured timing cost, not a
        // schedule violation.
        let detected = self.integrity_stats().detected;
        let penalty = (detected - self.seen_detected) * self.refetch_lat;
        self.seen_detected = detected;
        self.penalty_cycles += penalty;
        let read_floor_cpu = self.clock.slow_to_fast(read_done) + penalty;
        let read_done_cpu = read_floor_cpu + self.decrypt_lat;
        if let Some(wd) = write_done {
            let write_done_cpu = self.clock.slow_to_fast(wd);
            self.last_write_done = self.last_write_done.max(write_done_cpu);
        }
        if let Some(id) = completes {
            self.completions.push((id, read_done_cpu));
        }
        let deferred = self.deferred_write_lines();
        if let Some(audit) = &mut self.audit {
            audit.note_slot(t, self.t_interval, read_floor_cpu, self.timing_protection);
            audit.check_conservation(
                lines,
                expected_lines,
                self.dram.stats().requests - req_before,
                self.dram.latency_underflows(),
                deferred,
            );
        }
        // Fixed rate with the occupancy constraint: serially, the
        // controller finishes a path's read phase before issuing the next
        // path; the write phase drains through the memory controller in the
        // background and contends with the next path's reads via DRAM
        // bank/bus state. Pipelined, the floor comes from the access
        // `depth` slots back instead, so consecutive accesses overlap.
        self.next_slot = match &mut self.pipe {
            Some(pipe) => pipe.pace(t, self.t_interval, read_floor_cpu),
            None => (t + self.t_interval).max(read_floor_cpu),
        };
    }

    // -- Checkpointing ------------------------------------------------------

    /// Serializes the controller's complete logical state — the chooser
    /// (tag, trees, queues, in-flight work, IR-DWB), DRAM timing state,
    /// pipeline, audit, fault plan, and every counter — for a checkpoint
    /// snapshot. Derived state (the path tables) is rebuilt from
    /// configuration instead, and so are the deferred write-back's lines
    /// (from the pending path's tree and leaf, which the pipeline saves).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.chooser.save_state(w);
        self.dram.save_state(w);
        w.put_u64(self.next_slot.0);
        match &self.pipe {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                p.save_state(w);
            }
        }
        w.put_usize(self.completions.len());
        for &(id, done) in &self.completions {
            w.put_u64(id);
            w.put_u64(done.0);
        }
        self.slot_stats.save(w);
        w.put_u64(self.last_write_done.0);
        match &self.audit {
            None => w.put_u8(0),
            Some(a) => {
                w.put_u8(1);
                a.save_state(w);
            }
        }
        match &self.faults {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                p.save_state(w);
            }
        }
        w.put_u64(self.seen_detected);
        w.put_u64(self.penalty_cycles);
        w.put_bool(self.was_bg_pending);
        w.put_u64(self.overflow_slots);
        w.put_u64(self.bg_escalations);
        w.put_u64(self.degraded_slots);
        w.put_u64(self.throttled_admissions);
        w.put_u64(self.overflow_grace);
        w.put_u64(self.slots_done);
    }

    /// Restores state written by [`TimedController::save_state`] into a
    /// controller freshly built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or was written by a
    /// controller with a different configuration (single tree vs ρ, and
    /// pipeline/DWB/audit/fault presence must match), or when a pipeline
    /// path's leaf lies outside its tree.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.chooser.restore_state(r)?;
        self.dram.restore_state(r)?;
        self.next_slot = Cycle(r.take_u64()?);
        let leaves = (
            self.chooser.main().layout().num_leaves(),
            self.chooser.small().map(|s| s.layout().num_leaves()),
        );
        match (r.take_u8()?, &mut self.pipe) {
            (0, None) => {}
            (1, Some(p)) => p.restore_state(r, leaves)?,
            _ => return Err(SnapError::Corrupt("pipeline presence mismatch")),
        }
        let n = r.take_seq_len(16)?;
        self.completions.clear();
        for _ in 0..n {
            let id = r.take_u64()?;
            let done = Cycle(r.take_u64()?);
            self.completions.push((id, done));
        }
        self.slot_stats = SlotStats::restore(r)?;
        self.last_write_done = Cycle(r.take_u64()?);
        match (r.take_u8()?, &mut self.audit) {
            (0, None) => {}
            (1, Some(a)) => a.restore_state(r)?,
            _ => return Err(SnapError::Corrupt("audit presence mismatch")),
        }
        match (r.take_u8()?, &mut self.faults) {
            (0, None) => {}
            (1, Some(p)) => p.restore_state(r)?,
            _ => return Err(SnapError::Corrupt("fault-plan presence mismatch")),
        }
        self.seen_detected = r.take_u64()?;
        self.penalty_cycles = r.take_u64()?;
        self.was_bg_pending = r.take_bool()?;
        self.overflow_slots = r.take_u64()?;
        self.bg_escalations = r.take_u64()?;
        self.degraded_slots = r.take_u64()?;
        self.throttled_admissions = r.take_u64()?;
        self.overflow_grace = r.take_u64()?;
        self.slots_done = r.take_u64()?;
        Ok(())
    }
}

/// Serves `addr` from `tree`'s on-chip front stores (F-Stash, escrow,
/// S-Stash) if it is there, feeding the audit oracle.
pub(crate) fn front_serve(
    tree: &mut PathOram,
    addr: BlockAddr,
    audit: Option<&mut AuditState>,
) -> bool {
    let Some((_, payload)) = tree.front_access(addr, None) else {
        return false;
    };
    if let Some(audit) = audit {
        audit.oracle_read(addr.0, payload);
    }
    true
}

/// Maps a fault-plan corruption draw onto one memory bucket slot of `tree`
/// and flips its stored payload.
fn inject_corruption(tree: &mut PathOram, pick: u64, mask: u64) {
    let cached = tree.config().treetop.cached_levels();
    let levels = tree.config().levels;
    if cached >= levels {
        return; // whole tree on-chip: nothing off-chip to corrupt
    }
    let span = (levels - cached) as u64;
    let level = cached + (pick % span) as usize;
    let bucket = (pick >> 8) % (1u64 << level);
    let z = tree.layout().z_of(level) as u64;
    let slot = ((pick >> 40) % z) as u32;
    tree.inject_tree_fault(level, bucket, slot, mask);
}

/// Main-tree work: pending PosMap fetches, then the final step.
#[derive(Debug)]
pub(crate) enum Work {
    /// A demand request: its data path follows.
    Request {
        req: OramRequest,
        pm: VecDeque<BlockAddr>,
        /// ρ only: install into the small tree on completion (locality
        /// hint captured at submit time).
        install: bool,
    },
    /// A delayed-remap write-back: a free stash insert follows.
    DelayedWb {
        addr: BlockAddr,
        pm: VecDeque<BlockAddr>,
    },
}

/// Fetches the next block of a pending PosMap chain: `None` once the chain
/// is done, else the slot's pick — `None` inside when the block was
/// on-chip and the search goes on. With `oracle`, the served block feeds
/// the audit oracle.
pub(crate) fn posmap_step(
    tree: &mut PathOram,
    pm: &mut VecDeque<BlockAddr>,
    oracle: Option<&mut SlotCtx<'_>>,
) -> Option<Option<Pick>> {
    let pm_addr = pm.pop_front()?;
    let rec = {
        let _p = profiler::enter(profiler::Phase::PosMap);
        tree.fetch_posmap_block(pm_addr)
    };
    if let Some(ctx) = oracle {
        ctx.oracle_read(pm_addr, rec.payload);
    }
    Some(rec.paths.first().map(|&p| Pick::real(p, None)))
}

/// Serializes an optional [`Work`] item (tag 0 = none).
pub(crate) fn save_opt_work(w: &mut SnapWriter, work: Option<&Work>) {
    match work {
        None => w.put_u8(0),
        Some(Work::Request { req, pm, install }) => {
            w.put_u8(1);
            save_req(w, req);
            save_addr_deque(w, pm);
            w.put_bool(*install);
        }
        Some(Work::DelayedWb { addr, pm }) => {
            w.put_u8(2);
            w.put_u64(addr.0);
            save_addr_deque(w, pm);
        }
    }
}

/// Restores an optional [`Work`] item written by [`save_opt_work`].
pub(crate) fn restore_opt_work(r: &mut SnapReader<'_>) -> Result<Option<Work>, SnapError> {
    Ok(Some(match r.take_u8()? {
        0 => return Ok(None),
        1 => {
            let req = restore_req(r)?;
            let pm = restore_addr_deque(r)?;
            let install = r.take_bool()?;
            Work::Request { req, pm, install }
        }
        2 => {
            let addr = BlockAddr(r.take_u64()?);
            let pm = restore_addr_deque(r)?;
            Work::DelayedWb { addr, pm }
        }
        _ => return Err(SnapError::Corrupt("bad work tag")),
    }))
}

/// The single-tree path chooser: demand requests in FIFO order, delayed
/// write-backs, background eviction, and IR-DWB conversion of idle slots.
#[derive(Debug)]
pub(crate) struct SingleTree {
    protocol: PathOram,
    queue: VecDeque<OramRequest>,
    wb_queue: VecDeque<BlockAddr>,
    current: Option<Work>,
    dwb: Option<DwbEngine>,
}

impl SingleTree {
    fn new(cfg: &SystemConfig) -> Self {
        SingleTree {
            protocol: PathOram::new(cfg.oram.clone()),
            queue: VecDeque::new(),
            wb_queue: VecDeque::new(),
            current: None,
            dwb: cfg
                .scheme
                .uses_dwb()
                .then(|| DwbEngine::new(cfg.seed ^ 0xD00D)),
        }
    }

    fn on_llc_eviction(
        &mut self,
        addr: BlockAddr,
        dirty: bool,
        now: Cycle,
        id: ReqId,
        audit: Option<&mut AuditState>,
    ) {
        if let Some(dwb) = &mut self.dwb {
            dwb.on_eviction(addr);
        }
        match self.protocol.config().remap {
            RemapPolicy::Immediate => {
                // The ORAM write access; nobody waits on it. If the block
                // is still in an on-chip store, the write merges for free.
                if dirty && !front_serve(&mut self.protocol, addr, audit) {
                    self.queue.push_back(OramRequest {
                        id,
                        addr,
                        arrival: now,
                        blocking: false,
                    });
                }
            }
            RemapPolicy::Delayed => {
                // Clean or dirty: the block must re-enter the ORAM — unless
                // it was never removed (it was served from S-Stash and still
                // lives in the tree).
                if self.protocol.is_escrowed(addr) {
                    self.wb_queue.push_back(addr);
                }
            }
        }
    }

    /// Finds the path for this slot; protocol steps that resolve on-chip
    /// consume no slot and the search goes on.
    fn slot_path(&mut self, ctx: &mut SlotCtx<'_>) -> Result<Option<Pick>, SimError> {
        loop {
            if let Some(Work::Request { pm, .. } | Work::DelayedWb { pm, .. }) = &mut self.current {
                match posmap_step(&mut self.protocol, pm, Some(ctx)) {
                    Some(None) => continue, // PosMap block was on-chip
                    Some(pick) => return Ok(pick),
                    None => {}
                }
            }
            match self.current.take() {
                Some(Work::Request { req, .. }) => {
                    // Data phase. A duplicate request may find the block
                    // already escrowed (fetched by an earlier request under
                    // delayed remapping) or back on-chip — serve it for
                    // free.
                    if let Some((_, payload)) = self.protocol.front_access(req.addr, None) {
                        ctx.oracle_read(req.addr, payload);
                        if req.blocking {
                            ctx.complete_on_chip(req.id);
                        }
                        continue;
                    }
                    let rec = {
                        let _p = profiler::enter(profiler::Phase::Stash);
                        self.protocol.data_access(req.addr, None)?
                    };
                    ctx.oracle_read(req.addr, rec.payload);
                    let completes = req.blocking.then_some(req.id);
                    match rec.paths.first() {
                        Some(&p) => return Ok(Some(Pick::real(p, completes))),
                        None => {
                            // Found on-chip (tree top / stash): complete now.
                            if let Some(id) = completes {
                                ctx.complete_on_chip(id);
                            }
                            continue;
                        }
                    }
                }
                Some(Work::DelayedWb { addr, .. }) => {
                    // The block may have been re-evicted (duplicate queue
                    // entry) or already re-inserted; only escrowed blocks
                    // re-enter.
                    if self.protocol.is_escrowed(addr) {
                        self.protocol.delayed_insert_block(addr)?;
                    }
                    continue;
                }
                None => {}
            }
            // Background eviction outranks new work: the stash must drain —
            // unless a fault-injected storm is suppressing it.
            if !ctx.storm && self.protocol.bg_evict_pending() {
                let _p = profiler::enter(profiler::Phase::Stash);
                return Ok(Some(Pick::bg(self.protocol.bg_evict_once())));
            }
            // Degraded mode: admission is throttled — eligible new work
            // waits while background eviction (which already outranks
            // admission) drains the stash back under the watermark.
            if ctx.throttle {
                if self.queue.front().is_some_and(|r| r.arrival <= ctx.t)
                    || !self.wb_queue.is_empty()
                {
                    ctx.throttled();
                }
                return Ok(None);
            }
            // Start the next demand request that has arrived.
            if let Some(req) = self.queue.pop_front_if(|r| r.arrival <= ctx.t) {
                let _p = profiler::enter(profiler::Phase::PosMap);
                let pm = match ctx.pipe.as_mut().and_then(|p| p.take_spec(req.addr)) {
                    Some(pm) => pm,
                    None => self.protocol.posmap_resolve(req.addr).into(),
                };
                // Pipelined: resolve the next queued request's PosMap chain
                // speculatively, so its first path can issue the moment a
                // slot frees.
                if let Some(pipe) = &mut ctx.pipe {
                    if !pipe.has_spec() {
                        if let Some(next_addr) = self.queue.front().map(|r| r.addr) {
                            let spec = self.protocol.posmap_resolve(next_addr).into();
                            pipe.set_spec(next_addr, spec);
                        }
                    }
                }
                self.current = Some(Work::Request {
                    req,
                    pm,
                    install: false,
                });
                continue;
            }
            // Delayed write-backs fill remaining capacity.
            if let Some(addr) = self.wb_queue.pop_front() {
                let _p = profiler::enter(profiler::Phase::PosMap);
                let pm = self.protocol.posmap_resolve(addr).into();
                self.current = Some(Work::DelayedWb { addr, pm });
                continue;
            }
            return Ok(None); // no real work eligible
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.protocol.save_state(w);
        w.put_usize(self.queue.len());
        for req in &self.queue {
            save_req(w, req);
        }
        save_addr_deque(w, &self.wb_queue);
        save_opt_work(w, self.current.as_ref());
        match &self.dwb {
            None => w.put_u8(0),
            Some(d) => {
                w.put_u8(1);
                d.save_state(w);
            }
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.protocol.restore_state(r)?;
        let n = r.take_seq_len(25)?;
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(restore_req(r)?);
        }
        self.wb_queue = restore_addr_deque(r)?;
        self.current = restore_opt_work(r)?;
        match (r.take_u8()?, &mut self.dwb) {
            (0, None) => {}
            (1, Some(d)) => d.restore_state(r)?,
            _ => return Err(SnapError::Corrupt("DWB presence mismatch")),
        }
        Ok(())
    }
}

/// Serializes one [`OramRequest`].
pub(crate) fn save_req(w: &mut SnapWriter, req: &OramRequest) {
    w.put_u64(req.id);
    w.put_u64(req.addr.0);
    w.put_u64(req.arrival.0);
    w.put_bool(req.blocking);
}

/// Restores one [`OramRequest`].
pub(crate) fn restore_req(r: &mut SnapReader<'_>) -> Result<OramRequest, SnapError> {
    Ok(OramRequest {
        id: r.take_u64()?,
        addr: BlockAddr(r.take_u64()?),
        arrival: Cycle(r.take_u64()?),
        blocking: r.take_bool()?,
    })
}

/// Serializes a FIFO of block addresses (a PosMap-fetch chain or a
/// write-back queue).
pub(crate) fn save_addr_deque(w: &mut SnapWriter, pm: &VecDeque<BlockAddr>) {
    w.put_usize(pm.len());
    for a in pm {
        w.put_u64(a.0);
    }
}

/// Restores a FIFO of block addresses.
pub(crate) fn restore_addr_deque(r: &mut SnapReader<'_>) -> Result<VecDeque<BlockAddr>, SnapError> {
    let n = r.take_seq_len(8)?;
    let mut pm = VecDeque::with_capacity(n);
    for _ in 0..n {
        pm.push_back(BlockAddr(r.take_u64()?));
    }
    Ok(pm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use iroram_cache::HierarchyConfig;

    fn tiny_system(scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::scaled(scheme);
        cfg.oram.levels = 9;
        cfg.oram.data_blocks = 1 << 10;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(9, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 3 };
        cfg.oram.plb_sets = 4;
        cfg.oram.plb_ways = 2;
        cfg.hierarchy = HierarchyConfig {
            l1_sets: 8,
            l1_assoc: 2,
            llc_sets: 32,
            llc_assoc: 4,
        };
        cfg.with_scheme(scheme)
    }

    fn hierarchy(cfg: &SystemConfig) -> MemoryHierarchy {
        MemoryHierarchy::new(cfg.hierarchy)
    }

    #[test]
    fn blocking_request_completes() {
        let cfg = tiny_system(Scheme::Baseline);
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        let addr = BlockAddr(5);
        if ctl.front_try(addr, Cycle(0)).is_some() {
            return; // randomly resident on-chip; nothing to test
        }
        ctl.submit(OramRequest {
            id: 1,
            addr,
            arrival: Cycle(0),
            blocking: true,
        });
        let done = ctl.advance_until_complete(1, &mut h).unwrap();
        assert!(done > Cycle(0));
        assert!(ctl.slot_stats().total_slots >= 1);
    }

    #[test]
    fn slots_respect_t_interval() {
        let cfg = tiny_system(Scheme::Baseline);
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        // Run 50 dummy slots.
        for _ in 0..50 {
            ctl.process_slot(&mut h).unwrap();
        }
        let s = ctl.slot_stats();
        assert_eq!(s.total_slots, 50);
        assert_eq!(s.dummy_slots, 50, "no work → all dummies");
        // The slot clock advanced by at least 50 × T.
        assert!(ctl.next_slot >= Cycle(50 * cfg.t_interval));
    }

    #[test]
    fn dummy_paths_touch_dram_like_real_ones() {
        let cfg = tiny_system(Scheme::Baseline);
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        ctl.process_slot(&mut h).unwrap();
        let per_path = ctl.dram_stats().requests;
        assert_eq!(
            per_path,
            2 * ctl.protocol().layout().path_len_memory(3),
            "one read + one write per memory slot on the path"
        );
    }

    #[test]
    fn no_timing_protection_no_dummies() {
        let mut cfg = tiny_system(Scheme::Baseline);
        cfg.timing_protection = false;
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        for _ in 0..20 {
            ctl.process_slot(&mut h).unwrap();
        }
        assert_eq!(ctl.slot_stats().dummy_slots, 0);
        assert_eq!(ctl.dram_stats().requests, 0);
    }

    #[test]
    fn dirty_eviction_immediate_becomes_write_request() {
        let cfg = tiny_system(Scheme::Baseline);
        let mut ctl = TimedController::new(&cfg);
        let _h = hierarchy(&cfg);
        // Use an address guaranteed not on-chip by draining front first.
        let mut victim = None;
        for a in 0..64 {
            if ctl.front_try(BlockAddr(a), Cycle(0)).is_none() {
                victim = Some(BlockAddr(a));
                break;
            }
        }
        let victim = victim.expect("some block off-chip");
        let before = ctl.queue_len();
        ctl.on_llc_eviction(victim, true, Cycle(0), 77);
        assert_eq!(ctl.queue_len(), before + 1);
        // Clean evictions are free under immediate remap.
        ctl.on_llc_eviction(victim, false, Cycle(0), 78);
        assert_eq!(ctl.queue_len(), before + 1);
    }

    #[test]
    fn delayed_eviction_requeues_escrowed_blocks() {
        let cfg = tiny_system(Scheme::LlcD);
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        // Access a block so it gets escrowed.
        ctl.submit(OramRequest {
            id: 1,
            addr: BlockAddr(9),
            arrival: Cycle(0),
            blocking: true,
        });
        ctl.advance_until_complete(1, &mut h).unwrap();
        if ctl.protocol().is_escrowed(BlockAddr(9)) {
            ctl.on_llc_eviction(BlockAddr(9), false, Cycle(10_000), 2);
            assert!(ctl.has_real_work());
            ctl.drain(&mut h).unwrap();
            assert!(!ctl.protocol().is_escrowed(BlockAddr(9)));
        }
    }

    #[test]
    fn dwb_converts_dummies_for_dirty_llc_lines() {
        let cfg = tiny_system(Scheme::IrDwb);
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        // Make several LLC lines dirty.
        for a in 0..8u64 {
            h.access(a, true);
        }
        for _ in 0..40 {
            ctl.process_slot(&mut h).unwrap();
        }
        let s = ctl.slot_stats();
        assert!(
            s.converted_slots > 0,
            "dummy slots should convert to write-backs"
        );
        let d = ctl.dwb_stats().expect("engine enabled");
        assert!(d.completed > 0, "at least one line fully cleaned");
    }

    #[test]
    fn fifo_order_of_blocking_requests() {
        let cfg = tiny_system(Scheme::Baseline);
        let mut ctl = TimedController::new(&cfg);
        let mut h = hierarchy(&cfg);
        let mut ids = Vec::new();
        let mut id = 0;
        for a in 100..110 {
            if ctl.front_try(BlockAddr(a), Cycle(0)).is_none() {
                id += 1;
                ctl.submit(OramRequest {
                    id,
                    addr: BlockAddr(a),
                    arrival: Cycle(0),
                    blocking: true,
                });
                ids.push(id);
            }
        }
        if ids.is_empty() {
            return;
        }
        let last = *ids.last().expect("nonempty");
        ctl.advance_until_complete(last, &mut h).unwrap();
        let completions = ctl.take_completions();
        let order: Vec<ReqId> = completions.iter().map(|&(i, _)| i).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "FIFO completions");
        // Completion times are non-decreasing as well.
        let times: Vec<Cycle> = completions.iter().map(|&(_, t)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
