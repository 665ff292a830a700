//! The ρ (relaxed hierarchical ORAM) baseline \[23\].
//!
//! ρ adds a second, smaller ORAM tree that absorbs most accesses: recently
//! used blocks live in the small tree (cheap paths), cold blocks in the main
//! tree. To defend the timing channel with two path lengths, paths issue in
//! a **fixed pattern** — the paper evaluates 1 main-tree access per 2
//! small-tree accesses — with dummies of the matching kind inserted when a
//! slot has no real work. The main tree runs the delayed remapping policy
//! (a block fetched into the small tree leaves the main tree and is
//! re-inserted when evicted from the small tree).
//!
//! This models exactly the behaviour the paper measures against: the
//! average win from cheaper small-tree paths, and the pathology on
//! low-locality benchmarks (mcf) where most requests need scarce main-tree
//! slots and the fixed pattern inflates dummy traffic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use iroram_cache::MemoryHierarchy;
use iroram_dram::{DramSystem, MemRequest, PathTable, SubtreeLayout};
use iroram_protocol::{
    BlockAddr, IntegrityStats, OramConfig, PathOram, PathRecord, RemapPolicy, TreeTopMode,
    ZAllocation,
};
use iroram_sim_engine::{
    profiler, ClockRatio, Cycle, FaultPlan, InjectedFaults, SnapError, SnapReader, SnapWriter,
};

use crate::audit::{AuditReport, AuditState};
use crate::controller::{
    restore_addr_deque, restore_req, save_addr_deque, save_req, DEGRADED_ADMIT_PERIOD,
    OVERFLOW_GRACE_SLOTS,
};
use crate::pipeline::{self, PipelineState, PipelineStats};
use crate::{OramRequest, ReqId, SimError, SlotStats, StashPressure, SystemConfig};

#[derive(Debug)]
enum MainWork {
    Request {
        req: OramRequest,
        pm: VecDeque<BlockAddr>,
        /// Whether to install into the small tree on completion (locality
        /// hint captured at submit time: the PosMap₁ entry was already
        /// PLB-resident).
        install: bool,
    },
    Wb {
        addr: BlockAddr,
        pm: VecDeque<BlockAddr>,
    },
}

#[derive(Debug)]
enum SmallWork {
    /// A demand access that hit the small-tree directory.
    Hit {
        req: OramRequest,
        slot: u64,
        pm: VecDeque<BlockAddr>,
    },
    /// Installation of a freshly fetched block into its small slot.
    Install {
        slot: u64,
        pm: VecDeque<BlockAddr>,
    },
}

fn save_main_work(w: &mut SnapWriter, work: &MainWork) {
    match work {
        MainWork::Request { req, pm, install } => {
            w.put_u8(1);
            save_req(w, req);
            save_addr_deque(w, pm);
            w.put_bool(*install);
        }
        MainWork::Wb { addr, pm } => {
            w.put_u8(2);
            w.put_u64(addr.0);
            save_addr_deque(w, pm);
        }
    }
}

fn restore_main_work(r: &mut SnapReader<'_>) -> Result<MainWork, SnapError> {
    match r.take_u8()? {
        1 => {
            let req = restore_req(r)?;
            let pm = restore_addr_deque(r)?;
            let install = r.take_bool()?;
            Ok(MainWork::Request { req, pm, install })
        }
        2 => {
            let addr = BlockAddr(r.take_u64()?);
            let pm = restore_addr_deque(r)?;
            Ok(MainWork::Wb { addr, pm })
        }
        _ => Err(SnapError::Corrupt("bad main-work tag")),
    }
}

fn save_small_work(w: &mut SnapWriter, work: &SmallWork) {
    match work {
        SmallWork::Hit { req, slot, pm } => {
            w.put_u8(1);
            save_req(w, req);
            w.put_u64(*slot);
            save_addr_deque(w, pm);
        }
        SmallWork::Install { slot, pm } => {
            w.put_u8(2);
            w.put_u64(*slot);
            save_addr_deque(w, pm);
        }
    }
}

fn restore_small_work(r: &mut SnapReader<'_>) -> Result<SmallWork, SnapError> {
    match r.take_u8()? {
        1 => {
            let req = restore_req(r)?;
            let slot = r.take_u64()?;
            let pm = restore_addr_deque(r)?;
            Ok(SmallWork::Hit { req, slot, pm })
        }
        2 => {
            let slot = r.take_u64()?;
            let pm = restore_addr_deque(r)?;
            Ok(SmallWork::Install { slot, pm })
        }
        _ => Err(SnapError::Corrupt("bad small-work tag")),
    }
}

/// The dual-tree ρ controller.
#[derive(Debug)]
pub struct RhoController {
    /// Main-tree protocol (delayed remapping).
    pub main: PathOram,
    /// Small-tree protocol (immediate remapping, on-chip position map).
    pub small: PathOram,
    dram: DramSystem,
    // lint: allow(snapshot-drift, precomputed from the layout at construction)
    main_table: PathTable,
    // lint: allow(snapshot-drift, precomputed from the layout at construction)
    small_table: PathTable,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    small_offset: u64,
    /// Reused path request buffer (reads rewritten in place into writes).
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    reqs_buf: Vec<MemRequest>,
    /// Pipelined mode's deferred write-back batch (read-priority write
    /// buffer, shared by both trees — the slot schedule is one stream).
    /// Always empty at effective depth 1.
    write_buf: Vec<MemRequest>,
    /// small slot → resident data address.
    slots: Vec<Option<u64>>,
    /// data address → small slot.
    directory: BTreeMap<u64, u64>,
    last_use: Vec<u64>,
    use_tick: u64,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    t_interval: u64,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    timing_protection: bool,
    // lint: allow(snapshot-drift, configuration (a pure cycle-ratio converter))
    clock: ClockRatio,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    decrypt_lat: u64,
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    front_hit_lat: u64,
    next_slot: Cycle,
    slot_idx: u64,
    main_queue: VecDeque<MainWork>,
    current_main: Option<MainWork>,
    small_queue: VecDeque<SmallWork>,
    current_small: Option<SmallWork>,
    /// The k-deep access pipeline, shared across both trees' slots; `None`
    /// at effective depth 1 (see [`crate::pipeline`]). ρ resolves PosMap
    /// chains at submit time, so only pacing and conflict detection apply.
    pipe: Option<PipelineState>,
    completions: Vec<(ReqId, Cycle)>,
    slot_stats: SlotStats,
    last_write_done: Cycle,
    /// Recently missed addresses (install gate).
    // lint: allow(snapshot-drift, rebuilt from the serialized reuse_order deque on restore)
    reuse_filter: BTreeSet<u64>,
    reuse_order: VecDeque<u64>,
    // lint: allow(snapshot-drift, configuration; restore validates the snapshot against it)
    reuse_capacity: usize,
    /// Audit state (main tree only: small-tree slots are re-used by
    /// different data blocks, so their payloads carry no oracle contract).
    audit: Option<Box<AuditState>>,
    /// Fault plan (None when every rate is zero — the common case).
    faults: Option<FaultPlan>,
    /// CPU cycles charged per detected-and-repaired corrupted bucket.
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    refetch_lat: u64,
    /// Hard limit on either stash; staying over it past the bounded grace
    /// is a transient `SimError`.
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    stash_hard_limit: usize,
    /// Degradation watermark (¾ of the hard limit); see
    /// [`crate::TimedController`].
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    degrade_watermark: usize,
    /// Integrity detections (both trees) already charged a penalty.
    seen_detected: u64,
    penalty_cycles: u64,
    /// Whether a stash-pressure storm suppresses bg eviction this slot.
    storm_now: bool,
    was_bg_pending: bool,
    overflow_slots: u64,
    bg_escalations: u64,
    /// Degraded-mode slot count (see [`StashPressure::degraded_slots`]).
    degraded_slots: u64,
    /// Admissions deferred by the degradation throttle.
    throttled_admissions: u64,
    /// Consecutive slots a stash has sat over the hard limit.
    overflow_grace: u64,
    slots_done: u64,
}

impl RhoController {
    /// Builds the ρ controller: the main tree from `cfg.oram` (forced to
    /// delayed remapping) plus a small tree four levels shorter with `Z=2`
    /// and a fully on-chip position map.
    pub fn new(cfg: &SystemConfig) -> Self {
        let mut main_cfg = cfg.oram.clone();
        main_cfg.remap = RemapPolicy::Delayed;
        let main = PathOram::new(main_cfg);

        let small_levels = cfg.oram.levels.saturating_sub(2).max(3);
        let small_cfg = OramConfig {
            levels: small_levels,
            data_blocks: 1u64 << (small_levels - 1),
            zalloc: ZAllocation::from_z(vec![2; small_levels]),
            treetop: TreeTopMode::None,
            stash_capacity: cfg.oram.stash_capacity,
            // Big enough to hold the whole small position map on-chip.
            plb_sets: 512,
            plb_ways: 4,
            remap: RemapPolicy::Immediate,
            max_bg_evicts_per_access: cfg.oram.max_bg_evicts_per_access,
            encrypt_payloads: cfg.oram.encrypt_payloads,
            integrity: cfg.oram.integrity,
            seed: cfg.oram.seed ^ 0x5A11,
        };
        let mut small = PathOram::new(small_cfg);
        // Warm the small PLB so the on-chip position map never misses.
        small.warm_plb();
        let n_small = small.config().data_blocks;

        let cached = cfg.oram.treetop.cached_levels();
        let main_layout = SubtreeLayout::new(&main.layout().memory_z(cached), cfg.subtree_group);
        let small_layout =
            SubtreeLayout::new(&small.layout().memory_z(0), cfg.subtree_group);
        let small_offset = main_layout.total_lines();
        let n_slots = n_small as usize;
        RhoController {
            main,
            small,
            dram: {
                let mut d = DramSystem::new(cfg.dram);
                d.set_sched_threads(cfg.sched_threads);
                d
            },
            main_table: main_layout.path_table(0),
            small_table: small_layout.path_table(0),
            small_offset,
            reqs_buf: Vec::new(),
            write_buf: Vec::new(),
            slots: vec![None; n_slots],
            directory: BTreeMap::new(),
            last_use: vec![0; n_slots],
            use_tick: 0,
            t_interval: cfg.t_interval,
            timing_protection: cfg.timing_protection,
            clock: cfg.clock,
            decrypt_lat: cfg.decrypt_lat,
            front_hit_lat: cfg.front_hit_lat,
            next_slot: Cycle(cfg.t_interval),
            slot_idx: 0,
            main_queue: VecDeque::new(),
            current_main: None,
            small_queue: VecDeque::new(),
            current_small: None,
            pipe: PipelineState::new(cfg.pipeline_depth),
            completions: Vec::new(),
            slot_stats: SlotStats::default(),
            last_write_done: Cycle::ZERO,
            reuse_filter: BTreeSet::new(),
            reuse_order: VecDeque::new(),
            reuse_capacity: 2 * n_slots,
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
            storm_now: false,
            was_bg_pending: false,
            overflow_slots: 0,
            bg_escalations: 0,
            degraded_slots: 0,
            throttled_admissions: 0,
            overflow_grace: 0,
            slots_done: 0,
        }
    }

    /// The audit results so far (None unless `cfg.audit` was set).
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.audit.as_ref().map(|a| a.report())
    }

    /// End-of-run audit: a final structural sweep of both trees. No-op when
    /// auditing is off.
    pub fn final_audit(&mut self, _hierarchy: &MemoryHierarchy) {
        let Some(audit) = &mut self.audit else { return };
        audit.note_structural("main tree", self.main.check_invariants());
        audit.note_structural("small tree", self.small.check_invariants());
    }

    /// DRAM statistics (shared by both trees).
    pub fn dram_stats(&self) -> &iroram_dram::DramStats {
        self.dram.stats()
    }

    /// Slot accounting.
    pub fn slot_stats(&self) -> &SlotStats {
        &self.slot_stats
    }

    /// Pipeline counters, if the controller runs at effective depth > 1.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.pipe.as_ref().map(PipelineState::stats)
    }

    /// Merged integrity counters of both trees.
    pub fn integrity_stats(&self) -> IntegrityStats {
        let m = self.main.integrity_stats();
        let s = self.small.integrity_stats();
        IntegrityStats {
            injected: m.injected + s.injected,
            detected: m.detected + s.detected,
            recovered: m.recovered + s.recovered,
            undetected: m.undetected + s.undetected,
        }
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
    /// over both stashes).
    pub fn stash_pressure(&self) -> StashPressure {
        StashPressure {
            soft_capacity: self.main.config().stash_capacity as u64,
            max_occupancy: self.main.stash_peak().max(self.small.stash_peak()) as u64,
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

    /// Serializes the controller's complete logical state into a checkpoint
    /// payload. Configuration-derived structures (path tables, layouts,
    /// scratch buffers) are rebuilt by the constructor, not stored.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.main.save_state(w);
        self.small.save_state(w);
        self.dram.save_state(w);
        w.put_usize(self.write_buf.len());
        for req in &self.write_buf {
            w.put_u64(req.line_addr);
            w.put_bool(req.is_write);
            w.put_u64(req.arrival.0);
        }
        w.put_usize(self.slots.len());
        for s in &self.slots {
            w.put_opt_u64(*s);
        }
        w.put_usize(self.directory.len());
        for (&addr, &slot) in &self.directory {
            w.put_u64(addr);
            w.put_u64(slot);
        }
        w.put_usize(self.last_use.len());
        for &tick in &self.last_use {
            w.put_u64(tick);
        }
        w.put_u64(self.use_tick);
        w.put_u64(self.next_slot.0);
        w.put_u64(self.slot_idx);
        w.put_usize(self.main_queue.len());
        for work in &self.main_queue {
            save_main_work(w, work);
        }
        match &self.current_main {
            None => w.put_u8(0),
            Some(work) => {
                w.put_u8(1);
                save_main_work(w, work);
            }
        }
        w.put_usize(self.small_queue.len());
        for work in &self.small_queue {
            save_small_work(w, work);
        }
        match &self.current_small {
            None => w.put_u8(0),
            Some(work) => {
                w.put_u8(1);
                save_small_work(w, work);
            }
        }
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
        w.put_u64(self.slot_stats.total_slots);
        w.put_u64(self.slot_stats.real_slots);
        w.put_u64(self.slot_stats.bg_slots);
        w.put_u64(self.slot_stats.dummy_slots);
        w.put_u64(self.slot_stats.converted_slots);
        w.put_u64(self.last_write_done.0);
        w.put_usize(self.reuse_order.len());
        for &addr in &self.reuse_order {
            w.put_u64(addr);
        }
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
        w.put_bool(self.storm_now);
        w.put_bool(self.was_bg_pending);
        w.put_u64(self.overflow_slots);
        w.put_u64(self.bg_escalations);
        w.put_u64(self.degraded_slots);
        w.put_u64(self.throttled_admissions);
        w.put_u64(self.overflow_grace);
        w.put_u64(self.slots_done);
    }

    /// Restores state written by [`RhoController::save_state`] into a
    /// freshly constructed controller for the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the payload is malformed or inconsistent with
    /// this controller's configuration (slot-table size, reuse-filter
    /// capacity, component presence).
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.main.restore_state(r)?;
        self.small.restore_state(r)?;
        self.dram.restore_state(r)?;
        let n = r.take_seq_len(17)?;
        self.write_buf.clear();
        for _ in 0..n {
            let line_addr = r.take_u64()?;
            let is_write = r.take_bool()?;
            let arrival = Cycle(r.take_u64()?);
            self.write_buf.push(MemRequest {
                line_addr,
                is_write,
                arrival,
            });
        }
        let n = r.take_seq_len(1)?;
        if n != self.slots.len() {
            return Err(SnapError::Corrupt("small-tree slot table size mismatch"));
        }
        for s in &mut self.slots {
            *s = r.take_opt_u64()?;
        }
        let n = r.take_seq_len(16)?;
        if n > self.slots.len() {
            return Err(SnapError::Corrupt("directory larger than the slot table"));
        }
        self.directory.clear();
        let mut last_addr = None;
        for _ in 0..n {
            let addr = r.take_u64()?;
            let slot = r.take_u64()?;
            if last_addr.is_some_and(|prev| addr <= prev) {
                return Err(SnapError::Corrupt("directory entries out of order"));
            }
            last_addr = Some(addr);
            if slot as usize >= self.slots.len() {
                return Err(SnapError::Corrupt("directory points past the slot table"));
            }
            self.directory.insert(addr, slot);
        }
        let n = r.take_seq_len(8)?;
        if n != self.last_use.len() {
            return Err(SnapError::Corrupt("LRU table size mismatch"));
        }
        for tick in &mut self.last_use {
            *tick = r.take_u64()?;
        }
        self.use_tick = r.take_u64()?;
        self.next_slot = Cycle(r.take_u64()?);
        self.slot_idx = r.take_u64()?;
        let n = r.take_seq_len(9)?;
        self.main_queue.clear();
        for _ in 0..n {
            let work = restore_main_work(r)?;
            self.main_queue.push_back(work);
        }
        self.current_main = match r.take_u8()? {
            0 => None,
            1 => Some(restore_main_work(r)?),
            _ => return Err(SnapError::Corrupt("bad current-main tag")),
        };
        let n = r.take_seq_len(9)?;
        self.small_queue.clear();
        for _ in 0..n {
            let work = restore_small_work(r)?;
            self.small_queue.push_back(work);
        }
        self.current_small = match r.take_u8()? {
            0 => None,
            1 => Some(restore_small_work(r)?),
            _ => return Err(SnapError::Corrupt("bad current-small tag")),
        };
        match (r.take_u8()?, &mut self.pipe) {
            (0, None) => {}
            (1, Some(p)) => p.restore_state(r)?,
            _ => return Err(SnapError::Corrupt("pipeline presence mismatch")),
        }
        let n = r.take_seq_len(16)?;
        self.completions.clear();
        for _ in 0..n {
            let id = r.take_u64()?;
            let done = Cycle(r.take_u64()?);
            self.completions.push((id, done));
        }
        self.slot_stats.total_slots = r.take_u64()?;
        self.slot_stats.real_slots = r.take_u64()?;
        self.slot_stats.bg_slots = r.take_u64()?;
        self.slot_stats.dummy_slots = r.take_u64()?;
        self.slot_stats.converted_slots = r.take_u64()?;
        self.last_write_done = Cycle(r.take_u64()?);
        let n = r.take_seq_len(8)?;
        if n > self.reuse_capacity {
            return Err(SnapError::Corrupt("reuse filter larger than its capacity"));
        }
        self.reuse_order.clear();
        self.reuse_filter.clear();
        for _ in 0..n {
            let addr = r.take_u64()?;
            if !self.reuse_filter.insert(addr) {
                return Err(SnapError::Corrupt("duplicate reuse-filter entry"));
            }
            self.reuse_order.push_back(addr);
        }
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
        self.storm_now = r.take_bool()?;
        self.was_bg_pending = r.take_bool()?;
        self.overflow_slots = r.take_u64()?;
        self.bg_escalations = r.take_u64()?;
        self.degraded_slots = r.take_u64()?;
        self.throttled_admissions = r.take_u64()?;
        self.overflow_grace = r.take_u64()?;
        self.slots_done = r.take_u64()?;
        Ok(())
    }

    /// Demand-queue depth (for CPU back-pressure).
    pub fn queue_len(&self) -> usize {
        self.main_queue.len() + self.small_queue.len()
    }

    /// Whether real work remains in either tree.
    pub fn has_real_work(&self) -> bool {
        self.current_main.is_some()
            || self.current_small.is_some()
            || !self.main_queue.is_empty()
            || !self.small_queue.is_empty()
            || self.main.bg_evict_pending()
            || self.small.bg_evict_pending()
    }

    fn touch(&mut self, slot: u64) {
        self.use_tick += 1;
        self.last_use[slot as usize] = self.use_tick;
    }

    /// On-chip front check: the small-tree stash for directory residents,
    /// the main stash otherwise.
    pub fn front_try(&mut self, addr: BlockAddr, now: Cycle) -> Option<Cycle> {
        if let Some(&slot) = self.directory.get(&addr.0) {
            self.touch(slot);
            return self
                .small
                .front_access(BlockAddr(slot), None)
                .map(|_| now + self.front_hit_lat);
        }
        // Not small-resident → escrow cannot hit (escrow == small-resident),
        // so this only serves genuine main-stash residents.
        let (_, payload) = self.main.front_access(addr, None)?;
        if let Some(audit) = &mut self.audit {
            audit.oracle_read(addr.0, payload);
        }
        Some(now + self.front_hit_lat)
    }

    /// Submits a demand request.
    pub fn submit(&mut self, req: OramRequest) {
        if let Some(&slot) = self.directory.get(&req.addr.0) {
            self.touch(slot);
            let pm = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                self.small.posmap_resolve(BlockAddr(slot)).into()
            };
            self.small_queue.push_back(SmallWork::Hit { req, slot, pm });
        } else {
            let pm: VecDeque<BlockAddr> = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                self.main.posmap_resolve(req.addr).into()
            };
            // Install only blocks with observed re-reference behaviour: a
            // miss whose address was missed before (within the filter
            // window) has mid-range reuse worth caching in the small tree;
            // a streaming sweep or a uniform-random probe does not.
            let install = self.reuse_filter.contains(&req.addr.0);
            self.remember_miss(req.addr.0);
            self.main_queue
                .push_back(MainWork::Request { req, pm, install });
        }
    }

    /// Records a missed address in the bounded reuse filter.
    fn remember_miss(&mut self, addr: u64) {
        if self.reuse_filter.insert(addr) {
            self.reuse_order.push_back(addr);
            if self.reuse_order.len() > self.reuse_capacity {
                if let Some(old) = self.reuse_order.pop_front() {
                    self.reuse_filter.remove(&old);
                }
            }
        }
    }

    /// LLC eviction notification.
    pub fn on_llc_eviction(&mut self, addr: BlockAddr, dirty: bool, _now: Cycle, _id: ReqId) {
        if self.directory.contains_key(&addr.0) {
            // Block is small-tree resident; its content is already owned by
            // the small tree (dirty data merges on the next small access).
            return;
        }
        if self.main.is_escrowed(addr) {
            let pm = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                self.main.posmap_resolve(addr).into()
            };
            self.main_queue.push_back(MainWork::Wb { addr, pm });
        } else if dirty {
            // Still mapped in the main tree: a write access re-fetches it.
            let pm = {
                let _p = profiler::enter(profiler::Phase::PosMap);
                self.main.posmap_resolve(addr).into()
            };
            self.main_queue.push_back(MainWork::Request {
                req: OramRequest {
                    id: u64::MAX,
                    addr,
                    arrival: _now,
                    blocking: false,
                },
                pm,
                install: false,
            });
        }
    }

    /// Drains accumulated completions.
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

    /// Advances until request `id` completes. An unknown request (never
    /// submitted) surfaces as [`SimError::RequestStuck`].
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

    /// Advances until the demand queues drop below `limit`.
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

    /// Runs until all real work drains.
    pub fn drain(&mut self, hierarchy: &mut MemoryHierarchy) -> Result<Cycle, SimError> {
        while self.has_real_work() {
            self.process_slot(hierarchy)?;
        }
        // Pipelined: the last slot's write-back is still deferred — land it
        // so the run's DRAM traffic and retirement time are complete.
        self.flush_writes();
        Ok(self.last_write_done.max(self.next_slot))
    }

    /// Issues one slot following the 1 main : 2 small fixed pattern.
    pub fn process_slot(&mut self, _hierarchy: &mut MemoryHierarchy) -> Result<(), SimError> {
        if let Some(audit) = &mut self.audit {
            if audit.structural_due() {
                audit.note_structural("main tree", self.main.check_invariants());
                audit.note_structural("small tree", self.small.check_invariants());
            }
        }
        // Fault plan: one storm/corruption decision per slot (corruption
        // targets the main tree — the off-chip bulk of ρ's storage).
        self.storm_now = false;
        if let Some(plan) = &mut self.faults {
            self.storm_now = plan.storm_active();
            if let Some((pick, mask)) = plan.corrupt_line() {
                self.inject_corruption(pick, mask);
            }
        }
        // Stash pressure over both trees, plus the hard limit.
        let occupancy = self.main.stash_len().max(self.small.stash_len());
        // lint: allow(secret-flow, overflow stats counter; occupancy never alters the issued DRAM schedule)
        if occupancy > self.main.config().stash_capacity {
            self.overflow_slots += 1;
        }
        let pending = self.main.bg_evict_pending() || self.small.bg_evict_pending();
        if pending && !self.was_bg_pending {
            self.bg_escalations += 1;
        }
        self.was_bg_pending = pending;
        // Graceful degradation mirrors the single-tree controller: over the
        // watermark new-work admission throttles; over the hard limit a
        // bounded grace window lets eviction recover before the typed
        // overflow error fires.
        let degraded = occupancy > self.degrade_watermark;
        // lint: allow(secret-flow, degraded-slot stats counter; the admission gate below is the sanctioned throttle)
        if degraded {
            self.degraded_slots += 1;
        }
        // lint: allow(secret-flow, documented graceful-degradation exit; clean runs stay under the watermark so the schedule is unchanged)
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
        // Degraded admission gate (see the single-tree controller): full
        // stop above the hard limit, one-in-DEGRADED_ADMIT_PERIOD admission
        // between the watermark and the hard limit so throttling can never
        // stall the run outright.
        let throttle = occupancy > self.stash_hard_limit
            || (degraded && !self.slots_done.is_multiple_of(DEGRADED_ADMIT_PERIOD));
        self.slots_done += 1;
        let t = self.next_slot;
        let is_main = self.slot_idx.is_multiple_of(3);
        self.slot_idx += 1;
        let issued = if is_main {
            self.main_slot(t, throttle)?
        } else {
            self.small_slot(t, throttle)?
        };
        self.slot_stats.total_slots += 1;
        match issued {
            Some((path, is_small_tree, completes)) => {
                self.slot_stats.real_slots += 1;
                self.finish_path(t, path, is_small_tree, completes);
            }
            None => {
                if self.timing_protection {
                    self.slot_stats.dummy_slots += 1;
                    let (path, small) = {
                        let _p = profiler::enter(profiler::Phase::Stash);
                        if is_main {
                            (self.main.dummy_path(), false)
                        } else {
                            (self.small.dummy_path(), true)
                        }
                    };
                    self.finish_path(t, path, small, None);
                } else {
                    self.slot_stats.total_slots -= 1; // idle, not a slot
                    self.next_slot = t + self.t_interval;
                }
            }
        }
        Ok(())
    }

    /// Maps a fault-plan corruption draw onto one main-tree memory bucket
    /// slot and flips its stored payload.
    fn inject_corruption(&mut self, pick: u64, mask: u64) {
        let cached = self.main.config().treetop.cached_levels();
        let levels = self.main.config().levels;
        if cached >= levels {
            return;
        }
        let span = (levels - cached) as u64;
        let level = cached + (pick % span) as usize;
        let bucket = (pick >> 8) % (1u64 << level);
        let z = self.main.layout().z_of(level) as u64;
        let slot = ((pick >> 40) % z) as u32;
        self.main.inject_tree_fault(level, bucket, slot, mask);
    }

    /// Finds the path for a main-tree slot.
    #[allow(clippy::type_complexity)]
    fn main_slot(
        &mut self,
        t: Cycle,
        throttle: bool,
    ) -> Result<Option<(PathRecord, bool, Option<ReqId>)>, SimError> {
        loop {
            match self.current_main.take() {
                Some(MainWork::Request {
                    req,
                    mut pm,
                    install,
                }) => {
                    if let Some(pm_addr) = pm.pop_front() {
                        let rec = {
                            let _p = profiler::enter(profiler::Phase::PosMap);
                            self.main.fetch_posmap_block(pm_addr)
                        };
                        if let Some(audit) = &mut self.audit {
                            audit.oracle_read(pm_addr.0, rec.payload);
                        }
                        self.current_main = Some(MainWork::Request { req, pm, install });
                        if let Some(&p) = rec.paths.first() {
                            return Ok(Some((p, false, None)));
                        }
                        continue;
                    }
                    // A duplicate request may find the block already
                    // small-resident (escrowed) — serve it without a path.
                    if self.main.is_escrowed(req.addr)
                        || self.directory.contains_key(&req.addr.0)
                        || self.main.front_access(req.addr, None).is_some()
                    {
                        if req.blocking {
                            self.completions.push((req.id, t + self.front_hit_lat));
                        }
                        continue;
                    }
                    // Data phase: fetch, then install into the small tree —
                    // but only blocks showing locality (their PosMap₁ entry
                    // was PLB-resident). Installing every random-access
                    // block would churn the small tree with install/evict
                    // traffic for data that will never be re-referenced,
                    // which is not what ρ's hierarchy does for streaming /
                    // pointer-chasing workloads.
                    let rec = {
                        let _p = profiler::enter(profiler::Phase::Stash);
                        self.main.data_access(req.addr, None)?
                    };
                    if let Some(audit) = &mut self.audit {
                        audit.oracle_read(req.addr.0, rec.payload);
                    }
                    let completes = req.blocking.then_some(req.id);
                    if install {
                        self.schedule_install(req.addr);
                    } else if self.main.is_escrowed(req.addr) {
                        // Not worth caching: send it straight back to the
                        // main tree (a free stash insert under delayed
                        // remapping — the PosMap is already resolved).
                        self.main.delayed_insert_block(req.addr)?;
                    }
                    match rec.paths.first() {
                        Some(&p) => return Ok(Some((p, false, completes))),
                        None => {
                            if let Some(id) = completes {
                                self.completions.push((id, t + self.front_hit_lat));
                            }
                            continue;
                        }
                    }
                }
                Some(MainWork::Wb { addr, mut pm }) => {
                    if let Some(pm_addr) = pm.pop_front() {
                        let rec = {
                            let _p = profiler::enter(profiler::Phase::PosMap);
                            self.main.fetch_posmap_block(pm_addr)
                        };
                        if let Some(audit) = &mut self.audit {
                            audit.oracle_read(pm_addr.0, rec.payload);
                        }
                        self.current_main = Some(MainWork::Wb { addr, pm });
                        if let Some(&p) = rec.paths.first() {
                            return Ok(Some((p, false, None)));
                        }
                        continue;
                    }
                    if self.main.is_escrowed(addr) {
                        self.main.delayed_insert_block(addr)?;
                    }
                    continue;
                }
                None => {}
            }
            if !self.storm_now && self.main.bg_evict_pending() {
                self.slot_stats.bg_slots += 1;
                let path = {
                    let _p = profiler::enter(profiler::Phase::Stash);
                    self.main.bg_evict_once()
                };
                return Ok(Some((path, false, None)));
            }
            // Degraded mode: queued work waits while background eviction
            // (which already outranks admission) drains the stash.
            if throttle {
                if !self.main_queue.is_empty() {
                    self.throttled_admissions += 1;
                }
                return Ok(None);
            }
            if let Some(work) = self.main_queue.pop_front() {
                self.current_main = Some(work);
                continue;
            }
            return Ok(None);
        }
    }

    /// Finds the path for a small-tree slot.
    #[allow(clippy::type_complexity)]
    fn small_slot(
        &mut self,
        t: Cycle,
        throttle: bool,
    ) -> Result<Option<(PathRecord, bool, Option<ReqId>)>, SimError> {
        loop {
            match self.current_small.take() {
                Some(SmallWork::Hit { req, slot, mut pm }) => {
                    if let Some(pm_addr) = pm.pop_front() {
                        let rec = {
                            let _p = profiler::enter(profiler::Phase::PosMap);
                            self.small.fetch_posmap_block(pm_addr)
                        };
                        self.current_small = Some(SmallWork::Hit { req, slot, pm });
                        if let Some(&p) = rec.paths.first() {
                            return Ok(Some((p, true, None)));
                        }
                        continue;
                    }
                    let rec = {
                        let _p = profiler::enter(profiler::Phase::Stash);
                        self.small.data_access(BlockAddr(slot), None)?
                    };
                    let completes = req.blocking.then_some(req.id);
                    match rec.paths.first() {
                        Some(&p) => return Ok(Some((p, true, completes))),
                        None => {
                            if let Some(id) = completes {
                                self.completions.push((id, t + self.front_hit_lat));
                            }
                            continue;
                        }
                    }
                }
                Some(SmallWork::Install { slot, mut pm }) => {
                    if let Some(pm_addr) = pm.pop_front() {
                        let rec = {
                            let _p = profiler::enter(profiler::Phase::PosMap);
                            self.small.fetch_posmap_block(pm_addr)
                        };
                        self.current_small = Some(SmallWork::Install { slot, pm });
                        if let Some(&p) = rec.paths.first() {
                            return Ok(Some((p, true, None)));
                        }
                        continue;
                    }
                    let rec = {
                        let _p = profiler::enter(profiler::Phase::Stash);
                        self.small.data_access(BlockAddr(slot), None)?
                    };
                    match rec.paths.first() {
                        Some(&p) => return Ok(Some((p, true, None))),
                        None => continue,
                    }
                }
                None => {}
            }
            if !self.storm_now && self.small.bg_evict_pending() {
                self.slot_stats.bg_slots += 1;
                let path = {
                    let _p = profiler::enter(profiler::Phase::Stash);
                    self.small.bg_evict_once()
                };
                return Ok(Some((path, true, None)));
            }
            if throttle {
                if !self.small_queue.is_empty() {
                    self.throttled_admissions += 1;
                }
                return Ok(None);
            }
            if let Some(work) = self.small_queue.pop_front() {
                self.current_small = Some(work);
                continue;
            }
            return Ok(None);
        }
    }

    /// Allocates a small-tree slot for `addr` (evicting the LRU resident if
    /// needed) and enqueues the install path.
    fn schedule_install(&mut self, addr: BlockAddr) {
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(free) => free as u64,
            None => {
                let victim = (0..self.slots.len())
                    .min_by_key(|&i| self.last_use[i])
                    .expect("small tree has slots") as u64;
                let old = self.slots[victim as usize]
                    .take()
                    .expect("occupied victim");
                self.directory.remove(&old);
                // The evicted block returns to the main tree.
                let pm = {
                    let _p = profiler::enter(profiler::Phase::PosMap);
                    self.main.posmap_resolve(BlockAddr(old)).into()
                };
                self.main_queue.push_back(MainWork::Wb {
                    addr: BlockAddr(old),
                    pm,
                });
                victim
            }
        };
        self.slots[slot as usize] = Some(addr.0);
        self.directory.insert(addr.0, slot);
        self.touch(slot);
        let pm = {
            let _p = profiler::enter(profiler::Phase::PosMap);
            self.small.posmap_resolve(BlockAddr(slot)).into()
        };
        self.small_queue.push_back(SmallWork::Install { slot, pm });
    }

    /// Flushes the deferred write-back batch (pipelined mode) into the
    /// memory controller, records the path as in flight for conflict
    /// detection, and returns the write completion — `None` when nothing
    /// was pending.
    fn flush_writes(&mut self) -> Option<Cycle> {
        let pending = self.pipe.as_mut()?.take_pending()?;
        let write_done = self
            .dram
            .schedule_batch_done(&self.write_buf, pending.read_done);
        self.write_buf.clear();
        if let Some(pipe) = &mut self.pipe {
            pipe.record(pending.leaf, pending.small_tree, write_done);
        }
        self.last_write_done = self
            .last_write_done
            .max(self.clock.slow_to_fast(write_done));
        Some(write_done)
    }

    /// Lines of the deferred write-back batch still awaiting flush (0 in
    /// serial mode); [`RhoController::drain`] flushes it.
    pub fn deferred_write_lines(&self) -> u64 {
        self.write_buf.len() as u64
    }

    /// Schedules a path's DRAM traffic (small-tree paths use the address
    /// region after the main tree).
    fn finish_path(
        &mut self,
        t: Cycle,
        path: PathRecord,
        small_tree: bool,
        completes: Option<ReqId>,
    ) {
        let _phase = profiler::enter(profiler::Phase::DramSchedule);
        let table = if small_tree {
            &self.small_table
        } else {
            &self.main_table
        };
        let req_before = self.dram.stats().requests;
        // Transient bank stall (see `TimedController::finish_path`).
        let stall = self.faults.as_mut().map_or(0, |p| p.bank_stall());
        let mut arrival = self.clock.fast_to_slow(t) + stall;
        // Pipelined: a path sharing a memory bucket with the still-deferred
        // write batch flushes it first (write-before-read on a shared
        // bucket); one sharing with an older unretired in-flight path of
        // the same tree is held until its write-back retires (the trees
        // occupy disjoint DRAM regions, so cross-tree paths never
        // conflict).
        if self
            .pipe
            .as_mut()
            // lint: allow(secret-flow, leaf already revealed by this path access; the conflict check compares only public path addresses)
            .is_some_and(|p| p.pending_conflicts(table, path.leaf.0, small_tree))
        {
            if let Some(done) = self.flush_writes() {
                arrival = arrival.max(done);
            }
        }
        let (table, offset) = if small_tree {
            (&self.small_table, self.small_offset)
        } else {
            (&self.main_table, 0)
        };
        if let Some(pipe) = &mut self.pipe {
            // lint: allow(secret-flow, leaf already revealed by this path access; the hold compares only public path addresses)
            if let Some(hold) = pipe.conflict_hold(table, path.leaf.0, small_tree, arrival) {
                arrival = hold;
            }
        }
        table.fill_reads(path.leaf.0, offset, arrival, &mut self.reqs_buf);
        let lines = self.reqs_buf.len() as u64;
        let read_done = self.dram.schedule_batch_done(&self.reqs_buf, arrival);
        let write_done = if self.pipe.is_some() {
            // Read-priority write-back (see `TimedController::finish_path`):
            // flush the previous slot's deferred writes behind this read,
            // then defer our own batch the same way.
            self.flush_writes();
            self.write_buf.clear();
            self.write_buf.extend(self.reqs_buf.iter().map(|r| {
                let mut w = *r;
                w.is_write = true;
                w.arrival = read_done;
                w
            }));
            if let Some(pipe) = &mut self.pipe {
                pipe.stash_write(path.leaf.0, small_tree, read_done);
            }
            None
        } else {
            // Write-back touches the same lines: rewrite the batch in place
            // rather than building a second request vector.
            for r in &mut self.reqs_buf {
                r.is_write = true;
                r.arrival = read_done;
            }
            Some(self.dram.schedule_batch_done(&self.reqs_buf, read_done))
        };
        // Re-fetch penalty for corruption detected by this path's read
        // phase (see `TimedController::finish_path`).
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
        if let Some(audit) = &mut self.audit {
            let expected = if small_tree {
                self.small.layout().path_len_memory(0)
            } else {
                let cached = self.main.config().treetop.cached_levels();
                self.main.layout().path_len_memory(cached)
            };
            audit.note_slot(t, self.t_interval, read_floor_cpu, self.timing_protection);
            audit.check_conservation(
                lines,
                expected,
                self.dram.stats().requests - req_before,
                self.dram.latency_underflows(),
                self.write_buf.len() as u64,
            );
        }
        // See `TimedController::finish_path`: pace on the read phase; the
        // write phase overlaps the next path through DRAM state. Both
        // trees' slots share one schedule, so one pipeline paces them all.
        self.next_slot = match &mut self.pipe {
            Some(pipe) => pipe.pace(t, self.t_interval, read_floor_cpu),
            None => (t + self.t_interval).max(read_floor_cpu),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use iroram_cache::HierarchyConfig;

    fn tiny_rho() -> (RhoController, MemoryHierarchy) {
        let mut cfg = SystemConfig::scaled(Scheme::Rho);
        cfg.oram.levels = 9;
        cfg.oram.data_blocks = 1 << 10;
        cfg.oram.zalloc = ZAllocation::uniform(9, 4);
        cfg.oram.treetop = TreeTopMode::Dedicated { levels: 3 };
        cfg.oram.plb_sets = 4;
        cfg.oram.plb_ways = 2;
        let cfg = cfg.with_scheme(Scheme::Rho);
        let h = MemoryHierarchy::new(HierarchyConfig {
            l1_sets: 8,
            l1_assoc: 2,
            llc_sets: 32,
            llc_assoc: 4,
        });
        (RhoController::new(&cfg), h)
    }

    #[test]
    fn re_referenced_block_installs_into_small_tree() {
        let (mut rho, mut h) = tiny_rho();
        let addr = BlockAddr(17);
        if rho.front_try(addr, Cycle(0)).is_some() {
            return;
        }
        // First touch: PLB cold → no locality signal → no install.
        rho.submit(OramRequest {
            id: 1,
            addr,
            arrival: Cycle(0),
            blocking: true,
        });
        let done = rho.advance_until_complete(1, &mut h).unwrap();
        assert!(done > Cycle(0));
        rho.drain(&mut h).unwrap();
        assert!(
            !rho.directory.contains_key(&addr.0),
            "cold first touch must not install"
        );
        // Second touch: the PosMap1 entry is PLB-resident → install.
        if rho.front_try(addr, Cycle(1_000_000)).is_none() {
            rho.submit(OramRequest {
                id: 2,
                addr,
                arrival: Cycle(1_000_000),
                blocking: true,
            });
            rho.advance_until_complete(2, &mut h).unwrap();
            rho.drain(&mut h).unwrap();
            assert!(
                rho.directory.contains_key(&addr.0),
                "re-referenced block installs in the small tree"
            );
            assert!(rho.main.is_escrowed(addr), "left the main tree");
        }
    }

    #[test]
    fn small_resident_access_avoids_main_tree() {
        let (mut rho, mut h) = tiny_rho();
        let addr = BlockAddr(33);
        // Touch twice so the block installs (locality gate).
        let mut id = 0;
        for t in [0u64, 1_000_000] {
            if rho.front_try(addr, Cycle(t)).is_none() {
                id += 1;
                rho.submit(OramRequest {
                    id,
                    addr,
                    arrival: Cycle(t),
                    blocking: true,
                });
                rho.advance_until_complete(id, &mut h).unwrap();
                rho.drain(&mut h).unwrap();
            }
        }
        if !rho.directory.contains_key(&addr.0) {
            return; // served on-chip throughout; nothing to check
        }
        let main_data_before = rho.main.stats().data_paths;
        // Re-access: must be served without main-tree data paths.
        if rho.front_try(addr, Cycle(2_000_000)).is_none() {
            rho.submit(OramRequest {
                id: 99,
                addr,
                arrival: Cycle(2_000_000),
                blocking: true,
            });
            rho.advance_until_complete(99, &mut h).unwrap();
        }
        assert_eq!(
            rho.main.stats().data_paths,
            main_data_before,
            "small-tree hit must not touch the main tree"
        );
    }

    #[test]
    fn fixed_pattern_issues_dummies_of_both_kinds() {
        let (mut rho, mut h) = tiny_rho();
        for _ in 0..30 {
            rho.process_slot(&mut h).unwrap();
        }
        assert_eq!(rho.slot_stats().dummy_slots, 30);
        assert!(rho.main.stats().dummy_paths >= 9);
        assert!(rho.small.stats().dummy_paths >= 19);
    }

    #[test]
    fn small_tree_eviction_writes_back_to_main() {
        let (mut rho, mut h) = tiny_rho();
        let capacity = rho.slots.len();
        // Fill the small tree beyond capacity (two passes: the locality
        // gate installs on the second touch).
        let mut id = 0;
        for pass in 0..2u64 {
            for a in 0..(capacity as u64 + 4) {
                let addr = BlockAddr(a);
                if rho.front_try(addr, Cycle(pass)).is_none() {
                    id += 1;
                    rho.submit(OramRequest {
                        id,
                        addr,
                        arrival: Cycle(pass),
                        blocking: false,
                    });
                }
            }
            rho.drain(&mut h).unwrap();
        }
        assert!(
            rho.directory.len() <= capacity,
            "directory bounded by small-tree capacity"
        );
        // Evicted blocks must be back in the main tree (not escrowed).
        let escrowed: usize = rho.main.escrowed().count();
        assert_eq!(escrowed, rho.directory.len(), "escrow == small residents");
    }

    #[test]
    fn small_plb_is_warm() {
        let (rho, _) = tiny_rho();
        let (hits, misses) = rho.small.plb_counters();
        assert_eq!(hits, 0, "stats were reset after warmup");
        assert_eq!(misses, 0);
    }
}
