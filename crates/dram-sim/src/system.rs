//! The top-level DRAM system: channels, scheduling, statistics.

use iroram_sim_engine::{Cycle, SnapError, SnapReader, SnapWriter};

use crate::{AddressMapping, BankState, DecodedAddr, DramTimings};

/// A single cache-line memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Flat line address (one unit = one 64 B line).
    pub line_addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Arrival time at the memory controller, in DRAM cycles.
    pub arrival: Cycle,
}

impl MemRequest {
    /// A read of `line_addr` arriving at `arrival`.
    pub fn read(line_addr: u64, arrival: Cycle) -> Self {
        MemRequest {
            line_addr,
            is_write: false,
            arrival,
        }
    }

    /// A write of `line_addr` arriving at `arrival`.
    pub fn write(line_addr: u64, arrival: Cycle) -> Self {
        MemRequest {
            line_addr,
            is_write: true,
            arrival,
        }
    }
}

/// The completion record for one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Index of the request within its submitted batch.
    pub index: usize,
    /// Cycle at which the last data beat transfers.
    pub completion: Cycle,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

/// DRAM system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Address mapping (channels, banks, row size, interleave).
    pub mapping: AddressMapping,
    /// Timing parameters.
    pub timings: DramTimings,
    /// FR-FCFS reorder window: how many oldest queued requests per channel
    /// the scheduler examines when hunting for a row hit.
    pub reorder_window: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            mapping: AddressMapping::default(),
            timings: DramTimings::default(),
            reorder_window: 16,
        }
    }
}

/// Aggregate statistics over a system's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that found the bank empty (activate only).
    pub row_empties: u64,
    /// Requests that conflicted with a different open row.
    pub row_conflicts: u64,
    /// Total requests served.
    pub requests: u64,
    /// Total read requests served.
    pub reads: u64,
    /// Total write requests served.
    pub writes: u64,
    /// Sum of (completion − arrival) over all requests, for mean latency.
    pub total_latency: u64,
    /// Busy data-bus cycles summed over channels.
    pub bus_busy_cycles: u64,
    /// Completion time of the latest request so far.
    pub last_completion: u64,
}

impl DramStats {
    /// Row-buffer hit rate over all served requests.
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }

    /// Mean service latency in DRAM cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }

    /// Achieved data-bus utilization (busy cycles / elapsed cycles / channels).
    pub fn bus_utilization(&self, channels: u32) -> f64 {
        if self.last_completion == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / (self.last_completion as f64 * channels as f64)
        }
    }

    /// Folds another stats record into this one (counter sums plus the
    /// `last_completion` max). Every field is commutative, so absorbing
    /// per-channel deltas in channel order equals the old per-request
    /// interleaved accumulation bit for bit.
    fn absorb(&mut self, d: &DramStats) {
        self.row_hits += d.row_hits;
        self.row_empties += d.row_empties;
        self.row_conflicts += d.row_conflicts;
        self.requests += d.requests;
        self.reads += d.reads;
        self.writes += d.writes;
        self.total_latency += d.total_latency;
        self.bus_busy_cycles += d.bus_busy_cycles;
        self.last_completion = self.last_completion.max(d.last_completion);
    }
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<BankState>,
    bus_free: Cycle,
    /// Direction of the last data burst (for read↔write turnaround).
    last_was_write: Option<bool>,
}

/// A request with its address decoded exactly once, at enqueue. The channel
/// is implicit (one scratch queue per channel), so the FR-FCFS scan reads
/// `(bank, row)` straight from the entry instead of re-dividing the line
/// address on every window iteration.
#[derive(Debug, Clone, Copy)]
struct DecodedRequest {
    /// Position of the request in the submitted batch.
    orig_idx: u32,
    bank: u32,
    row: u64,
    is_write: bool,
    arrival: Cycle,
    /// Set once the request has been scheduled; served entries stay in
    /// place (no tail shifting) and the scan skips them.
    served: bool,
}

/// A multi-channel DRAM memory system with FR-FCFS scheduling.
///
/// The model is transaction-level: callers submit batches of requests (e.g.
/// all the block reads of one ORAM path) with [`DramSystem::schedule_batch`]
/// and receive per-request completion times. Bank and bus state persist
/// across batches, so sustained-bandwidth effects (queueing, row locality,
/// write recovery) accumulate naturally.
///
/// Within a batch the scheduler serves each channel's queue with FR-FCFS:
/// among the oldest `reorder_window` pending requests it prefers one hitting
/// an open row, falling back to the oldest. Across batches service is FIFO,
/// matching a memory controller whose queues drain faster than the ORAM
/// controller refills them.
#[derive(Debug, Clone)]
pub struct DramSystem {
    // lint: allow(snapshot-drift, configuration, fixed at construction for the whole run)
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DramStats,
    /// Count of completions computed earlier than their request's arrival.
    /// A completion before arrival is a scheduler bug, not a zero-latency
    /// request, so this is kept out of [`DramStats`] (it is not a property
    /// of the modeled memory system) and asserted zero by the audit layer.
    latency_underflows: u64,
    /// Per-channel scratch queues for [`DramSystem::schedule_batch`]:
    /// cleared at the start of every batch, never deallocated, so the
    /// steady state schedules with zero heap traffic.
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    queues: Vec<Vec<DecodedRequest>>,
    /// Direct-placement completion buffer: slot `i` receives request `i`'s
    /// completion as it is scheduled, so no final sort is needed.
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    out: Vec<Completion>,
    /// Worker count for intra-batch channel-parallel scheduling (1 =
    /// always serial). Channels are independent by construction, so any
    /// value yields byte-identical completions and stats; the threshold
    /// [`DramSystem::PARALLEL_MIN_BATCH`] keeps small batches serial.
    // lint: allow(snapshot-drift, configuration; worker count never changes completions)
    sched_threads: u32,
    /// Per-channel completion scratch for the parallel path: each worker
    /// emits into its own channel's buffer, and the deterministic merge
    /// scatters them into `out` in fixed channel order.
    // lint: allow(snapshot-drift, per-call scratch, cleared before each use)
    pouts: Vec<Vec<Completion>>,
    /// Test hook: skip the host-core clamp on `sched_threads` so the
    /// parallel machinery is exercised even on single-core hosts.
    // lint: allow(snapshot-drift, test hook, fixed at construction)
    ignore_core_clamp: bool,
}

/// The host's core count, probed once: workers are pure CPU-bound, so
/// spawning more of them than cores only adds scoped-thread overhead.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl DramSystem {
    /// Creates a system in the all-banks-idle state.
    pub fn new(cfg: DramConfig) -> Self {
        let channels: Vec<Channel> = (0..cfg.mapping.channels())
            .map(|_| Channel {
                banks: vec![BankState::new(); cfg.mapping.banks() as usize],
                bus_free: Cycle::ZERO,
                last_was_write: None,
            })
            .collect();
        let queues = vec![Vec::new(); channels.len()];
        let pouts = vec![Vec::new(); channels.len()];
        DramSystem {
            cfg,
            channels,
            stats: DramStats::default(),
            latency_underflows: 0,
            queues,
            out: Vec::new(),
            sched_threads: 1,
            pouts,
            ignore_core_clamp: false,
        }
    }

    /// Batches smaller than this always schedule serially, whatever
    /// `sched_threads` says: a per-path ORAM batch (tens of requests) is
    /// far too small to amortize spawning scoped workers, so the threshold
    /// keeps the default simulation loop on the zero-overhead serial path
    /// while large batches (benches, bulk replays) fan out.
    pub const PARALLEL_MIN_BATCH: usize = 64;

    /// Sets the worker count for intra-batch channel-parallel scheduling.
    /// `0` and `1` both mean serial. Scheduling output is byte-identical
    /// for every value: channels never share state, and the merge reads
    /// them back in fixed channel order.
    pub fn set_sched_threads(&mut self, n: u32) {
        self.sched_threads = n.max(1);
    }

    /// Current intra-batch scheduling worker count (as configured; the
    /// batch dispatch additionally clamps to the host's core count).
    pub fn sched_threads(&self) -> u32 {
        self.sched_threads
    }

    /// Disables the host-core clamp on the worker count. Testing hook:
    /// correctness tests use this to force the parallel dispatch + merge
    /// path on hosts with fewer cores than `sched_threads`.
    #[doc(hidden)]
    pub fn set_ignore_core_clamp(&mut self, on: bool) {
        self.ignore_core_clamp = on;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Number of requests whose computed completion preceded their arrival.
    /// Always zero for a correct scheduler; the audit layer asserts it.
    pub fn latency_underflows(&self) -> u64 {
        self.latency_underflows
    }

    /// Schedules a batch of requests, returning one [`Completion`] per
    /// request in the order of the input slice (the `index` field also
    /// records the position).
    ///
    /// All requests are fully served; the returned completion times may
    /// exceed any request's arrival by the queueing delay implied by bank
    /// and bus contention.
    pub fn schedule_batch(&mut self, requests: &[MemRequest]) -> Vec<Completion> {
        #[cfg(any(test, feature = "reference-scheduler"))]
        if reference::forced() {
            return self.schedule_batch_reference(requests);
        }
        self.run_batch(requests);
        self.out.clone()
    }

    /// Convenience: schedules a batch and returns the latest completion time
    /// (the phase-done time the ORAM controller waits on), or `at` for an
    /// empty batch. This is the allocation-free path the ORAM controllers
    /// sit on: completions land in the internal buffer and only the fold
    /// result escapes.
    pub fn schedule_batch_done(&mut self, requests: &[MemRequest], at: Cycle) -> Cycle {
        #[cfg(any(test, feature = "reference-scheduler"))]
        if reference::forced() {
            return self
                .schedule_batch_reference(requests)
                .into_iter()
                .map(|c| c.completion)
                .fold(at, Cycle::max);
        }
        at.max(self.run_batch(requests))
    }

    /// The FR-FCFS scheduling core. Fills `self.out` (slot `i` = request
    /// `i`'s completion) and returns the latest completion in the batch
    /// ([`Cycle::ZERO`] for an empty batch).
    ///
    /// Uses the persistent per-channel scratch queues: each request is
    /// decoded exactly once at enqueue, and served entries are flagged in
    /// place (index-cursor scan) rather than removed, so a batch performs no
    /// heap allocation and no tail shifting once the scratch has warmed up.
    fn run_batch(&mut self, requests: &[MemRequest]) -> Cycle {
        let t = self.cfg.timings;
        let window = self.cfg.reorder_window.max(1);
        // Clamp to the host: on a box with fewer cores than the configured
        // worker count, extra scoped threads cost spawn overhead and win
        // nothing. The clamp never changes results — only who computes them.
        let mut threads = (self.sched_threads as usize).max(1);
        if !self.ignore_core_clamp {
            threads = threads.min(host_cores());
        }
        let DramSystem {
            cfg,
            channels,
            stats,
            latency_underflows,
            queues,
            out,
            pouts,
            ..
        } = self;
        // Partition into the per-channel scratch queues, decoding once.
        for q in queues.iter_mut() {
            q.clear();
        }
        for (i, req) in requests.iter().enumerate() {
            let d = decode_once(&cfg.mapping, req.line_addr);
            // lint: allow(panic, decode returns channel < cfg.mapping.channels() == queues.len() by construction)
            queues[d.channel as usize].push(DecodedRequest {
                orig_idx: i as u32,
                bank: d.bank,
                row: d.row,
                is_write: req.is_write,
                arrival: req.arrival,
                served: false,
            });
        }
        out.clear();
        let placeholder = Completion {
            index: 0,
            completion: Cycle::ZERO,
            row_hit: false,
        };
        out.resize(requests.len(), placeholder);
        let mut latest = Cycle::ZERO;
        let parallel =
            threads > 1 && channels.len() > 1 && requests.len() >= Self::PARALLEL_MIN_BATCH;
        if parallel {
            // Fan the channels out across scoped workers (the same
            // scoped-thread worker-loop shape as the experiment runner's
            // `par_map`). Each worker owns a disjoint contiguous chunk of
            // (channel, queue, scratch, delta) rows, so no simulated state
            // is ever shared; the merge below reads the per-channel
            // results back in fixed channel order, making the output
            // independent of thread count and interleaving.
            for p in pouts.iter_mut() {
                p.clear();
            }
            let mut deltas = vec![ChannelDelta::new(); channels.len()];
            let mut work: Vec<(
                &mut Channel,
                &mut Vec<DecodedRequest>,
                &mut Vec<Completion>,
                &mut ChannelDelta,
            )> = channels
                .iter_mut()
                .zip(queues.iter_mut())
                .zip(pouts.iter_mut())
                .zip(deltas.iter_mut())
                .map(|(((ch, q), p), d)| (ch, q, p, d))
                .collect();
            let chunk = work.len().div_ceil(threads.min(work.len()));
            // Scoped workers compute independent per-channel results; the
            // serial merge below is in fixed channel order, so scheduling
            // output never depends on thread timing. (This is one of the
            // two sanctioned thread-order sites — see iroram-lint.)
            std::thread::scope(|s| {
                for slice in work.chunks_mut(chunk) {
                    s.spawn(move || {
                        for (ch, queue, pout, delta) in slice.iter_mut() {
                            **delta = scan_channel(&t, window, ch, queue, &mut |c| pout.push(c));
                        }
                    });
                }
            });
            // Deterministic merge: channel order, then emission order
            // within a channel — exactly the serial loop's order.
            for (pout, delta) in pouts.iter().zip(deltas.iter()) {
                for c in pout {
                    // lint: allow(panic, completion index < requests.len() == out.len() by construction)
                    out[c.index] = *c;
                }
                stats.absorb(&delta.stats);
                *latency_underflows += delta.underflows;
                latest = latest.max(delta.latest);
            }
        } else {
            for (ch, queue) in channels.iter_mut().zip(queues.iter_mut()) {
                let delta = scan_channel(&t, window, ch, queue, &mut |c| {
                    // Direct placement: request i's completion goes to slot
                    // i, so the batch needs no final sort.
                    // lint: allow(panic, completion index < requests.len() == out.len() by construction)
                    out[c.index] = c;
                });
                stats.absorb(&delta.stats);
                *latency_underflows += delta.underflows;
                latest = latest.max(delta.latest);
            }
        }
        latest
    }

    /// Serializes all persistent scheduling state — per-bank row/timing
    /// state, per-channel bus and turnaround state, lifetime statistics and
    /// the underflow counter — for a checkpoint. The per-batch scratch
    /// buffers are excluded: they are cleared at the start of every batch,
    /// and checkpoints are only taken between batches.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.channels.len());
        for ch in &self.channels {
            w.put_usize(ch.banks.len());
            for b in &ch.banks {
                b.save_state(w);
            }
            w.put_u64(ch.bus_free.raw());
            w.put_u8(match ch.last_was_write {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        w.put_u64(self.stats.row_hits);
        w.put_u64(self.stats.row_empties);
        w.put_u64(self.stats.row_conflicts);
        w.put_u64(self.stats.requests);
        w.put_u64(self.stats.reads);
        w.put_u64(self.stats.writes);
        w.put_u64(self.stats.total_latency);
        w.put_u64(self.stats.bus_busy_cycles);
        w.put_u64(self.stats.last_completion);
        w.put_u64(self.latency_underflows);
    }

    /// Restores the state captured by [`DramSystem::save_state`] into a
    /// system built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the snapshot's channel/bank geometry does
    /// not match this system; any [`SnapError`] on truncation.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let nch = r.take_seq_len(8)?;
        if nch != self.channels.len() {
            return Err(SnapError::Corrupt("DRAM channel count mismatch"));
        }
        for ch in &mut self.channels {
            let nb = r.take_seq_len(8)?;
            if nb != ch.banks.len() {
                return Err(SnapError::Corrupt("DRAM bank count mismatch"));
            }
            for b in &mut ch.banks {
                b.restore_state(r)?;
            }
            ch.bus_free = Cycle(r.take_u64()?);
            ch.last_was_write = match r.take_u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                _ => return Err(SnapError::Corrupt("bad bus-direction tag")),
            };
        }
        self.stats = DramStats {
            row_hits: r.take_u64()?,
            row_empties: r.take_u64()?,
            row_conflicts: r.take_u64()?,
            requests: r.take_u64()?,
            reads: r.take_u64()?,
            writes: r.take_u64()?,
            total_latency: r.take_u64()?,
            bus_busy_cycles: r.take_u64()?,
            last_completion: r.take_u64()?,
        };
        self.latency_underflows = r.take_u64()?;
        Ok(())
    }

    /// Models a refresh-ish global row closure (used between benchmark runs
    /// and by tests).
    pub fn close_all_rows(&mut self, at: Cycle) {
        let t = self.cfg.timings;
        for ch in &mut self.channels {
            for b in &mut ch.banks {
                b.close_row(at, &t);
            }
        }
    }
}

/// What one channel's FR-FCFS scan produced, accumulated locally so the
/// scan can run off-thread and be folded into the system totals afterwards.
#[derive(Debug, Clone, Copy)]
struct ChannelDelta {
    stats: DramStats,
    underflows: u64,
    latest: Cycle,
}

impl ChannelDelta {
    fn new() -> Self {
        ChannelDelta {
            stats: DramStats::default(),
            underflows: 0,
            latest: Cycle::ZERO,
        }
    }
}

/// The FR-FCFS scan for one channel: serves every entry in `queue`,
/// emitting one [`Completion`] per request (in service order) and returning
/// the channel's stats delta. This is the single scheduling core shared by
/// the serial and channel-parallel paths of [`DramSystem::run_batch`]; it
/// touches only its own channel's banks/bus, which is what makes the
/// parallel fan-out trivially deterministic.
fn scan_channel(
    t: &DramTimings,
    window: usize,
    ch: &mut Channel,
    queue: &mut [DecodedRequest],
    emit: &mut impl FnMut(Completion),
) -> ChannelDelta {
    let mut delta = ChannelDelta::new();
    // `head` is the oldest unserved entry; everything before it is
    // served. Picks are always within `window` unserved entries of
    // `head`, so the skip loops below touch at most a window's worth
    // of served holes.
    let mut head = 0usize;
    let mut remaining = queue.len();
    while remaining > 0 {
        // lint: allow(panic, head < queue.len(): `remaining` unserved entries all sit at or after head)
        while queue[head].served {
            head += 1;
        }
        // FR-FCFS: among the window of oldest requests, pick the
        // first row hit; otherwise the oldest. A hit may only be
        // hoisted over the oldest request if it has arrived by the
        // time the channel could start serving that oldest request —
        // otherwise the channel would idle-wait on a future arrival
        // while an already-arrived request sits queued (priority
        // inversion that the latency-underflow audit flagged).
        // lint: allow(panic, head was just positioned on an unserved entry)
        let hoist_gate = queue[head].arrival.max(ch.bus_free);
        let limit = window.min(remaining);
        let mut pick = head;
        let mut seen = 0usize;
        // Probe by reference off a subslice: the window scan is the hottest
        // loop in the scheduler, and iterating dodges both the per-probe
        // bounds check and a full `DecodedRequest` copy per probe.
        // lint: allow(panic, head < queue.len(): positioned on an unserved entry above)
        for (off, e) in queue[head..].iter().enumerate() {
            if e.served {
                continue;
            }
            // lint: allow(panic, decode returns bank < cfg.mapping.banks() == ch.banks.len() by construction)
            if e.arrival <= hoist_gate && ch.banks[e.bank as usize].would_hit(e.row) {
                pick = head + off;
                break;
            }
            seen += 1;
            if seen == limit {
                break;
            }
        }
        // lint: allow(panic, pick indexes an unserved entry found by the scan above)
        let e = &mut queue[pick];
        e.served = true;
        remaining -= 1;
        let e = *e;
        if pick == head {
            head += 1;
        }
        // lint: allow(panic, decode returns bank < cfg.mapping.banks() == ch.banks.len() by construction)
        let acc = ch.banks[e.bank as usize].access(e.row, e.is_write, e.arrival, t);
        // Data transfer: CAS + CL (or CWL) to first beat, bus holds
        // for t_burst; serialize on the channel data bus.
        let lat = if e.is_write { t.cwl } else { t.cl };
        // Channel-level read↔write turnaround: switching the data
        // bus direction costs bus idle time (write-to-read pays
        // tWTR; read-to-write pays the CL/CWL offset plus a bubble).
        let turnaround = match ch.last_was_write {
            Some(last) if last != e.is_write => {
                if last {
                    t.t_wtr + 2
                } else {
                    (t.cl - t.cwl) + 2
                }
            }
            _ => 0,
        };
        let data_start = (acc.cas_issue + lat).max(ch.bus_free + turnaround);
        let completion = data_start + t.t_burst;
        ch.bus_free = completion;
        ch.last_was_write = Some(e.is_write);
        // Account.
        delta.stats.requests += 1;
        if e.is_write {
            delta.stats.writes += 1;
        } else {
            delta.stats.reads += 1;
        }
        if acc.row_hit {
            delta.stats.row_hits += 1;
        } else if acc.row_empty {
            delta.stats.row_empties += 1;
        } else {
            delta.stats.row_conflicts += 1;
        }
        match completion.raw().checked_sub(e.arrival.raw()) {
            Some(lat) => delta.stats.total_latency += lat,
            None => {
                // Completion before arrival means the scheduler
                // violated causality; record it for the audit
                // instead of silently clamping to zero latency.
                delta.underflows += 1;
                debug_assert!(
                    false,
                    "DRAM completion {completion} precedes arrival {}",
                    e.arrival
                );
            }
        }
        delta.stats.bus_busy_cycles += t.t_burst;
        delta.stats.last_completion = delta.stats.last_completion.max(completion.raw());
        delta.latest = delta.latest.max(completion);
        emit(Completion {
            index: e.orig_idx as usize,
            completion,
            row_hit: acc.row_hit,
        });
    }
    delta
}

/// The scheduler's only call into [`AddressMapping::decode`] — a wrapper so
/// tests can count invocations and assert the decode-once contract (exactly
/// one decode per request per batch).
#[inline]
fn decode_once(mapping: &AddressMapping, line_addr: u64) -> DecodedAddr {
    #[cfg(test)]
    decode_count::note();
    mapping.decode(line_addr)
}

/// Test-only decode-call counter behind [`decode_once`].
#[cfg(test)]
pub(crate) mod decode_count {
    use std::cell::Cell;

    thread_local! {
        static CALLS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn note() {
        CALLS.with(|c| c.set(c.get() + 1));
    }

    /// Decode calls made by the scheduler on this thread so far.
    pub(crate) fn calls() -> u64 {
        CALLS.with(Cell::get)
    }
}

/// Runtime switch routing [`DramSystem::schedule_batch`] (and `_done`)
/// through the naive reference scheduler, so differential tests can run a
/// whole simulation against the pre-optimization implementation. The switch
/// is thread-local: equivalence tests force it on their own thread (run
/// cells with `jobs = 1`) without perturbing parallel neighbours.
#[cfg(any(test, feature = "reference-scheduler"))]
pub mod reference {
    use std::cell::Cell;

    thread_local! {
        static FORCE: Cell<bool> = const { Cell::new(false) };
    }

    /// Forces (or releases) the reference scheduler on this thread.
    pub fn force(on: bool) {
        FORCE.with(|f| f.set(on));
    }

    /// Whether the reference scheduler is forced on this thread.
    pub fn forced() -> bool {
        FORCE.with(Cell::get)
    }
}

/// The pre-optimization scheduler, kept verbatim as the differential-testing
/// oracle for the decoded-request pipeline: allocate-per-batch queues, a
/// decode per scan candidate, `remove(pick)` tail shifts, and a final sort.
/// Every report must be byte-identical whichever implementation runs.
#[cfg(any(test, feature = "reference-scheduler"))]
impl DramSystem {
    /// [`DramSystem::schedule_batch`] as originally written (naive FR-FCFS).
    pub fn schedule_batch_reference(&mut self, requests: &[MemRequest]) -> Vec<Completion> {
        let t = self.cfg.timings;
        let window = self.cfg.reorder_window.max(1);
        // Partition into per-channel queues, keeping original indices.
        let nch = self.channels.len();
        let mut queues: Vec<Vec<(usize, MemRequest)>> = vec![Vec::new(); nch];
        for (i, req) in requests.iter().enumerate() {
            let d = self.cfg.mapping.decode(req.line_addr);
            queues[d.channel as usize].push((i, *req));
        }
        let mut out = Vec::with_capacity(requests.len());
        for (ch_idx, mut queue) in queues.into_iter().enumerate() {
            let ch = &mut self.channels[ch_idx];
            while !queue.is_empty() {
                let scan = queue.len().min(window);
                let hoist_gate = queue[0].1.arrival.max(ch.bus_free);
                let pick = queue[..scan]
                    .iter()
                    .position(|(_, r)| {
                        let d = self.cfg.mapping.decode(r.line_addr);
                        r.arrival <= hoist_gate && ch.banks[d.bank as usize].would_hit(d.row)
                    })
                    .unwrap_or(0);
                let (orig_idx, req) = queue.remove(pick);
                let d = self.cfg.mapping.decode(req.line_addr);
                let acc = ch.banks[d.bank as usize].access(d.row, req.is_write, req.arrival, &t);
                let lat = if req.is_write { t.cwl } else { t.cl };
                let turnaround = match ch.last_was_write {
                    Some(last) if last != req.is_write => {
                        if last {
                            t.t_wtr + 2
                        } else {
                            (t.cl - t.cwl) + 2
                        }
                    }
                    _ => 0,
                };
                let data_start = (acc.cas_issue + lat).max(ch.bus_free + turnaround);
                let completion = data_start + t.t_burst;
                ch.bus_free = completion;
                ch.last_was_write = Some(req.is_write);
                self.stats.requests += 1;
                if req.is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                if acc.row_hit {
                    self.stats.row_hits += 1;
                } else if acc.row_empty {
                    self.stats.row_empties += 1;
                } else {
                    self.stats.row_conflicts += 1;
                }
                match completion.raw().checked_sub(req.arrival.raw()) {
                    Some(lat) => self.stats.total_latency += lat,
                    None => {
                        self.latency_underflows += 1;
                        debug_assert!(
                            false,
                            "DRAM completion {completion} precedes arrival {}",
                            req.arrival
                        );
                    }
                }
                self.stats.bus_busy_cycles += t.t_burst;
                self.stats.last_completion = self.stats.last_completion.max(completion.raw());
                out.push(Completion {
                    index: orig_idx,
                    completion,
                    row_hit: acc.row_hit,
                });
            }
        }
        out.sort_by_key(|c| c.index);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interleave;

    fn sys() -> DramSystem {
        DramSystem::new(DramConfig::default())
    }

    #[test]
    fn single_read_latency() {
        let mut d = sys();
        let done = d.schedule_batch(&[MemRequest::read(0, Cycle(0))]);
        let t = DramTimings::ddr3_1600();
        // Empty bank: activate + tRCD + CL + burst.
        assert_eq!(done[0].completion, Cycle(t.t_rcd + t.cl + t.t_burst));
        assert!(!done[0].row_hit);
    }

    #[test]
    fn sequential_lines_fan_out_across_channels() {
        let mut d = sys();
        let reqs: Vec<MemRequest> = (0..4).map(|i| MemRequest::read(i, Cycle(0))).collect();
        let done = d.schedule_batch(&reqs);
        // All four should finish at the same time (independent channels).
        let t0 = done[0].completion;
        assert!(done.iter().all(|c| c.completion == t0));
    }

    #[test]
    fn same_row_accesses_become_hits() {
        let mut d = sys();
        // Lines 0,4,8,… land in channel 0, same row.
        let reqs: Vec<MemRequest> = (0..8).map(|i| MemRequest::read(i * 4, Cycle(0))).collect();
        let done = d.schedule_batch(&reqs);
        let hits = done.iter().filter(|c| c.row_hit).count();
        assert_eq!(hits, 7, "all but the opener should hit");
        assert!(d.stats().row_hit_rate() > 0.8);
    }

    #[test]
    fn row_conflicts_are_slower_than_hits() {
        let mapping = AddressMapping::new(1, 1, 16, Interleave::CacheLine);
        let cfg = DramConfig {
            mapping,
            ..DramConfig::default()
        };
        // Same bank, alternating rows → conflicts.
        let mut d = DramSystem::new(cfg);
        let conflict_reqs: Vec<MemRequest> = (0..8)
            .map(|i| MemRequest::read((i % 2) * 16, Cycle(0)))
            .collect();
        let conflict_done = d.schedule_batch_done(&conflict_reqs, Cycle(0));

        let mut d2 = DramSystem::new(cfg);
        let hit_reqs: Vec<MemRequest> = (0..8).map(|i| MemRequest::read(i, Cycle(0))).collect();
        let hit_done = d2.schedule_batch_done(&hit_reqs, Cycle(0));
        assert!(
            conflict_done > hit_done,
            "conflicts {conflict_done} vs hits {hit_done}"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        // Two requests to row A (open), one to row B interleaved between
        // them in queue order; FR-FCFS should serve A,A before B... but the
        // conflict request arrived first so FCFS would do B first. Verify the
        // hit count is higher than strict FCFS would give.
        let mapping = AddressMapping::new(1, 1, 16, Interleave::CacheLine);
        let cfg = DramConfig {
            mapping,
            reorder_window: 8,
            ..DramConfig::default()
        };
        let mut d = DramSystem::new(cfg);
        // Open row 0.
        d.schedule_batch(&[MemRequest::read(0, Cycle(0))]);
        // Queue: B(row1), A(row0), A(row0).
        let done = d.schedule_batch(&[
            MemRequest::read(16, Cycle(0)),
            MemRequest::read(1, Cycle(0)),
            MemRequest::read(2, Cycle(0)),
        ]);
        let hits = done.iter().filter(|c| c.row_hit).count();
        assert_eq!(hits, 2, "both row-0 requests should be served as hits first");
        // And the row-1 request finishes last.
        assert!(done[0].completion > done[1].completion);
    }

    #[test]
    fn bank_state_persists_across_batches() {
        let mut d = sys();
        d.schedule_batch(&[MemRequest::read(0, Cycle(0))]);
        let again = d.schedule_batch(&[MemRequest::read(0, Cycle(1000))]);
        assert!(again[0].row_hit);
    }

    #[test]
    fn close_all_rows_clears_hits() {
        let mut d = sys();
        d.schedule_batch(&[MemRequest::read(0, Cycle(0))]);
        d.close_all_rows(Cycle(100));
        let again = d.schedule_batch(&[MemRequest::read(0, Cycle(1000))]);
        assert!(!again[0].row_hit);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = sys();
        let reqs: Vec<MemRequest> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    MemRequest::write(i, Cycle(0))
                } else {
                    MemRequest::read(i, Cycle(0))
                }
            })
            .collect();
        d.schedule_batch(&reqs);
        let s = d.stats();
        assert_eq!(s.requests, 100);
        assert_eq!(s.reads + s.writes, 100);
        assert_eq!(s.writes, 34);
        assert!(s.mean_latency() > 0.0);
        assert!(s.bus_utilization(4) > 0.0);
        assert_eq!(s.row_hits + s.row_empties + s.row_conflicts, 100);
    }

    #[test]
    fn empty_batch_done_returns_at() {
        let mut d = sys();
        assert_eq!(d.schedule_batch_done(&[], Cycle(42)), Cycle(42));
    }

    #[test]
    fn frfcfs_does_not_hoist_future_arrivals() {
        // Regression: the row-hit preference used to ignore arrival times,
        // so a row hit arriving far in the future was hoisted over an
        // already-arrived older request, stalling the channel (and inflating
        // the older request's latency by the whole wait).
        let mapping = AddressMapping::new(1, 1, 16, Interleave::CacheLine);
        let cfg = DramConfig {
            mapping,
            reorder_window: 8,
            ..DramConfig::default()
        };
        let mut d = DramSystem::new(cfg);
        // Open row 0.
        d.schedule_batch(&[MemRequest::read(0, Cycle(0))]);
        // Oldest request targets row 1 and has arrived; a row-0 hit arrives
        // only at cycle 10 000. FCFS order must win: the arrived request is
        // served first and completes long before the future arrival.
        let done = d.schedule_batch(&[
            MemRequest::read(16, Cycle(0)),
            MemRequest::read(1, Cycle(10_000)),
        ]);
        assert!(
            done[0].completion < Cycle(10_000),
            "arrived request was stalled behind a future arrival: {}",
            done[0].completion
        );
        assert!(done[1].completion > Cycle(10_000));
        assert_eq!(d.latency_underflows(), 0);
    }

    #[test]
    fn arrival_time_floors_service() {
        let mut d = sys();
        let done = d.schedule_batch(&[MemRequest::read(0, Cycle(10_000))]);
        assert!(done[0].completion > Cycle(10_000));
    }

    /// A shuffled multi-channel batch mixing rows, banks, directions and
    /// arrivals — enough to exercise hoisting, turnaround and cross-channel
    /// interleaving in one go.
    fn shuffled_batch(n: u64) -> Vec<MemRequest> {
        (0..n)
            .map(|i| {
                // A multiplicative shuffle (odd constant => bijection mod 2^k
                // ranges is not needed; spread is what matters).
                let addr = (i * 2654435761) % 40_000;
                if i % 3 == 0 {
                    MemRequest::write(addr, Cycle(i * 7 % 50))
                } else {
                    MemRequest::read(addr, Cycle(i * 5 % 50))
                }
            })
            .collect()
    }

    #[test]
    fn decode_runs_exactly_once_per_request_per_batch() {
        let mut d = sys();
        let reqs = shuffled_batch(64);
        let before = decode_count::calls();
        d.schedule_batch(&reqs);
        assert_eq!(
            decode_count::calls() - before,
            64,
            "decode must run exactly N times for an N-request batch"
        );
        // And again for the allocation-free done path.
        let before = decode_count::calls();
        d.schedule_batch_done(&reqs, Cycle(0));
        assert_eq!(decode_count::calls() - before, 64);
    }

    #[test]
    fn completions_are_in_input_order_for_shuffled_batch() {
        let mut d = sys();
        let reqs = shuffled_batch(100);
        let done = d.schedule_batch(&reqs);
        assert_eq!(done.len(), reqs.len());
        for (i, c) in done.iter().enumerate() {
            assert_eq!(c.index, i, "slot {i} holds completion for request {}", c.index);
        }
    }

    #[test]
    fn matches_reference_scheduler_across_batches() {
        // Same request stream through both implementations, multiple batches
        // so bank/bus state differences would accumulate and surface.
        let cfgs = [
            DramConfig::default(),
            DramConfig {
                mapping: AddressMapping::new(1, 2, 8, Interleave::CacheLine),
                reorder_window: 4,
                ..DramConfig::default()
            },
            DramConfig {
                mapping: AddressMapping::new(2, 4, 16, Interleave::Row),
                reorder_window: 1,
                ..DramConfig::default()
            },
        ];
        for cfg in cfgs {
            let mut fast = DramSystem::new(cfg);
            let mut naive = DramSystem::new(cfg);
            for batch in 0..8u64 {
                let reqs = shuffled_batch(48 + batch * 7);
                let a = fast.schedule_batch(&reqs);
                let b = naive.schedule_batch_reference(&reqs);
                assert_eq!(a, b, "batch {batch}");
                assert_eq!(fast.stats(), naive.stats(), "stats after batch {batch}");
                assert_eq!(fast.latency_underflows(), naive.latency_underflows());
            }
        }
    }

    #[test]
    fn reference_force_switch_routes_public_api() {
        let reqs = shuffled_batch(32);
        let mut a = sys();
        let mut b = sys();
        reference::force(true);
        let forced = a.schedule_batch(&reqs);
        let forced_done = b.schedule_batch_done(&reqs, Cycle(3));
        reference::force(false);
        let mut c = sys();
        let mut d = sys();
        assert_eq!(forced, c.schedule_batch(&reqs));
        assert_eq!(forced_done, d.schedule_batch_done(&reqs, Cycle(3)));
    }

    #[test]
    fn parallel_scheduling_matches_serial_and_reference() {
        // Large batches cross PARALLEL_MIN_BATCH and fan out across scoped
        // workers; every thread count must produce the serial (and
        // reference) schedule bit for bit, batch after batch.
        for threads in [2u32, 3, 4, 8] {
            let mut par = sys();
            par.set_sched_threads(threads);
            // Exercise the real parallel dispatch even on single-core CI.
            par.set_ignore_core_clamp(true);
            let mut ser = sys();
            let mut naive = sys();
            for batch in 0..4u64 {
                let n = DramSystem::PARALLEL_MIN_BATCH as u64 * 4 + batch * 11;
                let reqs = shuffled_batch(n);
                let a = par.schedule_batch(&reqs);
                let b = ser.schedule_batch(&reqs);
                let c = naive.schedule_batch_reference(&reqs);
                assert_eq!(a, b, "threads {threads} batch {batch}");
                assert_eq!(b, c, "threads {threads} batch {batch} vs reference");
                assert_eq!(par.stats(), ser.stats());
                assert_eq!(par.latency_underflows(), ser.latency_underflows());
            }
        }
    }

    #[test]
    fn small_batches_stay_serial_and_identical_under_sched_threads() {
        // Below the threshold the parallel path must not engage (no
        // observable difference, and the same completions either way).
        let mut par = sys();
        par.set_sched_threads(4);
        let mut ser = sys();
        for batch in 0..6u64 {
            let reqs = shuffled_batch(DramSystem::PARALLEL_MIN_BATCH as u64 - 1 - batch);
            assert_eq!(par.schedule_batch(&reqs), ser.schedule_batch(&reqs));
        }
        assert_eq!(par.stats(), ser.stats());
    }

    #[test]
    fn sched_threads_zero_means_serial() {
        let mut d = sys();
        d.set_sched_threads(0);
        assert_eq!(d.sched_threads(), 1);
        let done = d.schedule_batch(&shuffled_batch(300));
        assert_eq!(done.len(), 300);
    }

    #[test]
    fn save_restore_continues_schedule_identically() {
        let mut live = sys();
        live.schedule_batch(&shuffled_batch(128));
        let mut w = SnapWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = sys();
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.stats(), live.stats());
        for batch in 0..3u64 {
            let reqs = shuffled_batch(40 + batch * 9);
            assert_eq!(fresh.schedule_batch(&reqs), live.schedule_batch(&reqs));
            assert_eq!(fresh.stats(), live.stats(), "batch {batch}");
        }
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let live = sys();
        let mut w = SnapWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = DramSystem::new(DramConfig {
            mapping: AddressMapping::new(1, 2, 8, Interleave::CacheLine),
            ..DramConfig::default()
        });
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            other.restore_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn scratch_buffers_persist_and_stay_clean_across_batches() {
        let mut d = sys();
        // A big batch warms the scratch; a following small batch must not
        // see stale entries (wrong stats/completions would betray leakage).
        d.schedule_batch(&shuffled_batch(256));
        let before = d.stats().requests;
        let done = d.schedule_batch(&shuffled_batch(3));
        assert_eq!(done.len(), 3);
        assert_eq!(d.stats().requests - before, 3);
    }
}
