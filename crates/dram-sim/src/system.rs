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
}

/// A multi-channel DRAM memory system with FR-FCFS scheduling.
///
/// The model is transaction-level: callers submit batches of requests (e.g.
/// all the block reads of one ORAM path) with [`DramSystem::schedule_batch`]
/// and receive per-request completion times. Bank and bus state persist
/// across batches, so sustained-bandwidth effects (queueing, row locality,
/// write recovery) accumulate naturally. [`DramSystem::schedule_path`]
/// takes one ORAM path's lines and schedules its read and write-back.
///
/// Within a batch the scheduler serves each channel's queue with FR-FCFS:
/// among the oldest `reorder_window` pending requests it prefers one hitting
/// an open row, falling back to the oldest. Across batches service is FIFO,
/// matching a memory controller whose queues drain faster than the ORAM
/// controller refills them.
#[derive(Debug, Clone)]
pub struct DramSystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DramStats,
    /// Count of completions computed earlier than their request's arrival.
    /// A completion before arrival is a scheduler bug, not a zero-latency
    /// request, so this is kept out of [`DramStats`] (it is not a property
    /// of the modeled memory system) and asserted zero by the audit layer.
    latency_underflows: u64,
    /// Per-channel queues of the batch scheduled last, in batch order:
    /// refilled by every batch, never deallocated, so the steady state
    /// schedules with zero heap traffic. A path's write-back serves them
    /// again instead of decoding its lines a second time.
    queues: Vec<Vec<DecodedRequest>>,
    /// The scan's unserved-entry bitset (bit `i` = queue entry `i`), one
    /// channel at a time.
    live: Vec<u64>,
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
        DramSystem {
            cfg,
            channels,
            stats: DramStats::default(),
            latency_underflows: 0,
            queues,
            live: Vec::new(),
        }
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
        let placeholder = Completion {
            index: 0,
            completion: Cycle::ZERO,
            row_hit: false,
        };
        let mut out = vec![placeholder; requests.len()];
        let shape = self.enqueue(requests.iter().copied());
        self.serve_queued(shape, Some(&mut out));
        out
    }

    /// Convenience: schedules a batch and returns the latest completion time
    /// (the phase-done time the ORAM controller waits on), or `at` for an
    /// empty batch. Allocation-free: no per-request completion is kept,
    /// only the fold escapes.
    pub fn schedule_batch_done(&mut self, requests: &[MemRequest], at: Cycle) -> Cycle {
        #[cfg(any(test, feature = "reference-scheduler"))]
        if reference::forced() {
            return self.reference_done(requests, at);
        }
        let shape = self.enqueue(requests.iter().copied());
        at.max(self.serve_queued(shape, None))
    }

    /// Schedules one ORAM path as the serial controller issues it: a read
    /// of each of `lines`, all arriving at `at`, then a write of each of
    /// the same lines, all arriving when the last read completes. Returns
    /// `(read_done, write_done)`, each folded like
    /// [`DramSystem::schedule_batch_done`] (the read from `at`, the
    /// write-back from `read_done`).
    ///
    /// The same as `schedule_batch_done(reads, at)` followed by
    /// `schedule_batch_done(writes, read_done)`, but each line is decoded
    /// once for both batches: the write-back serves the read's queues again.
    pub fn schedule_path(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        at: Cycle,
    ) -> (Cycle, Cycle) {
        let reads = lines.into_iter().map(|line| MemRequest::read(line, at));
        #[cfg(any(test, feature = "reference-scheduler"))]
        if reference::forced() {
            let reads: Vec<MemRequest> = reads.collect();
            let read_done = self.reference_done(&reads, at);
            let writes: Vec<MemRequest> = reads
                .iter()
                .map(|r| MemRequest::write(r.line_addr, read_done))
                .collect();
            return (read_done, self.reference_done(&writes, read_done));
        }
        let shape = self.enqueue(reads);
        let read_done = at.max(self.serve_queued(shape, None));
        let write_back = Shape::Uniform {
            is_write: true,
            arrival: read_done,
        };
        (
            read_done,
            read_done.max(self.serve_queued(write_back, None)),
        )
    }

    /// Refills the per-channel queues from `requests`, decoding each line
    /// once, and reports the batch's [`Shape`].
    fn enqueue(&mut self, requests: impl IntoIterator<Item = MemRequest>) -> Shape {
        for q in self.queues.iter_mut() {
            q.clear();
        }
        let mut first = None;
        let mut mixed = false;
        for (i, req) in requests.into_iter().enumerate() {
            let d = decode_once(&self.cfg.mapping, req.line_addr);
            let &mut (is_write, arrival) = first.get_or_insert((req.is_write, req.arrival));
            mixed |= req.is_write != is_write || req.arrival != arrival;
            // lint: allow(panic, decode returns channel < cfg.mapping.channels() == queues.len() by construction)
            self.queues[d.channel as usize].push(DecodedRequest {
                orig_idx: i as u32,
                bank: d.bank,
                row: d.row,
                is_write: req.is_write,
                arrival: req.arrival,
            });
        }
        match first {
            Some((is_write, arrival)) if !mixed => Shape::Uniform { is_write, arrival },
            _ => Shape::Mixed,
        }
    }

    /// Serves every queued request, channel by channel, placing request
    /// `i`'s completion in `out[i]` when a buffer is given. Returns the
    /// latest completion ([`Cycle::ZERO`] for an empty batch).
    fn serve_queued(&mut self, shape: Shape, mut out: Option<&mut [Completion]>) -> Cycle {
        let t = self.cfg.timings;
        let window = self.cfg.reorder_window.max(1);
        let mut latest = Cycle::ZERO;
        for (ch, queue) in self.channels.iter_mut().zip(&self.queues) {
            let live = &mut self.live;
            let out = out.as_deref_mut();
            let tally = match shape {
                Shape::Mixed => {
                    scan_channel::<true>(&t, window, ch, queue, live, out, (false, Cycle::ZERO))
                }
                Shape::Uniform { is_write, arrival } => {
                    scan_channel::<false>(&t, window, ch, queue, live, out, (is_write, arrival))
                }
            };
            let n = queue.len() as u64;
            let s = &mut self.stats;
            s.requests += n;
            s.writes += tally.writes;
            s.reads += n - tally.writes;
            s.row_hits += tally.row_hits;
            s.row_empties += tally.row_empties;
            s.row_conflicts += n - tally.row_hits - tally.row_empties;
            s.total_latency += tally.latency;
            s.bus_busy_cycles += n * t.t_burst;
            s.last_completion = s.last_completion.max(tally.latest.raw());
            self.latency_underflows += tally.underflows;
            latest = latest.max(tally.latest);
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
}

/// How the requests of a batch vary.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every request has this direction and arrival, as a path's read batch
    /// and its write-back do.
    Uniform { is_write: bool, arrival: Cycle },
    /// Directions or arrivals differ: each entry carries its own, and the
    /// scan evaluates the hoist gate.
    Mixed,
}

/// What one channel's scan adds to the lifetime statistics, kept in
/// locals and folded into [`DramStats`] once per channel.
struct Tally {
    writes: u64,
    row_hits: u64,
    row_empties: u64,
    latency: u64,
    underflows: u64,
    /// The channel's latest completion ([`Cycle::ZERO`] if it served none).
    latest: Cycle,
}

/// The FR-FCFS scan for one channel: serves every entry in `queue`,
/// placing request `i`'s [`Completion`] in `out[i]` when a buffer is given.
///
/// `live` is the unserved-entry bitset, so the scan walks only the entries
/// still queued, however far served ones are scattered. With `MIXED` off
/// every entry is served as `uniform`'s direction and arrival (the batch's
/// [`Shape::Uniform`]), and the hoist gate is skipped: no entry can arrive
/// after the oldest one.
fn scan_channel<const MIXED: bool>(
    t: &DramTimings,
    window: usize,
    ch: &mut Channel,
    queue: &[DecodedRequest],
    live: &mut Vec<u64>,
    mut out: Option<&mut [Completion]>,
    uniform: (bool, Cycle),
) -> Tally {
    let mut tally = Tally {
        writes: 0,
        row_hits: 0,
        row_empties: 0,
        latency: 0,
        underflows: 0,
        latest: Cycle::ZERO,
    };
    let words = queue.len().div_ceil(64);
    live.clear();
    live.resize(words, !0);
    if let Some(last) = live.last_mut() {
        *last >>= words * 64 - queue.len();
    }
    // `head_word` is the first bitset word with an unserved entry; every
    // word before it is spent.
    let mut head_word = 0usize;
    let mut bus_free = ch.bus_free;
    let mut last_was_write = ch.last_was_write;
    let banks = ch.banks.as_mut_slice();
    for _ in 0..queue.len() {
        // lint: allow(panic, an unserved entry remains on every iteration, so a nonzero word sits at or after head_word)
        while live[head_word] == 0 {
            head_word += 1;
        }
        // lint: allow(panic, head_word was just positioned on a nonzero word)
        let head = head_word * 64 + live[head_word].trailing_zeros() as usize;
        // lint: allow(panic, head is a set bit, and bits are set only below queue.len())
        let first = &queue[head];
        // FR-FCFS: among the window of oldest requests, pick the
        // first row hit; otherwise the oldest. A hit may only be
        // hoisted over the oldest request if it has arrived by the
        // time the channel could start serving that oldest request —
        // otherwise the channel would idle-wait on a future arrival
        // while an already-arrived request sits queued (priority
        // inversion that the latency-underflow audit flagged).
        let hoist_gate = if MIXED {
            first.arrival.max(bus_free)
        } else {
            Cycle::ZERO
        };
        // The oldest request is checked first: inside a run of one row it
        // is the usual pick, and the gate never holds it back.
        // lint: allow(panic, decode returns bank < cfg.mapping.banks() == ch.banks.len() by construction)
        let pick = if window == 1 || banks[first.bank as usize].would_hit(first.row) {
            head
        } else {
            // The rest of the window: the next `window - 1` unserved
            // entries after the head, word by word.
            let mut pick = head;
            let mut left = window - 1;
            let mut w = head_word;
            // lint: allow(panic, head_word was positioned on a nonzero word above)
            let mut bits = live[w] & (!1u64 << (head % 64));
            'scan: loop {
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // lint: allow(panic, i is a set bit, and bits are set only below queue.len())
                    let e = &queue[i];
                    // lint: allow(panic, decode returns bank < cfg.mapping.banks() == ch.banks.len() by construction)
                    let hit = banks[e.bank as usize].would_hit(e.row);
                    if hit && (!MIXED || e.arrival <= hoist_gate) {
                        pick = i;
                        break 'scan;
                    }
                    left -= 1;
                    if left == 0 {
                        break 'scan;
                    }
                }
                w += 1;
                match live.get(w) {
                    Some(&word) => bits = word,
                    None => break,
                }
            }
            pick
        };
        // lint: allow(panic, pick is a set bit, so pick / 64 < live.len())
        live[pick / 64] &= !(1u64 << (pick % 64));
        // lint: allow(panic, pick is a set bit, and bits are set only below queue.len())
        let e = queue[pick];
        let (is_write, arrival) = if MIXED {
            (e.is_write, e.arrival)
        } else {
            uniform
        };
        // lint: allow(panic, decode returns bank < cfg.mapping.banks() == ch.banks.len() by construction)
        let acc = banks[e.bank as usize].access(e.row, is_write, arrival, t);
        // Data transfer: CAS + CL (or CWL) to first beat, bus holds
        // for t_burst; serialize on the channel data bus.
        let lat = if is_write { t.cwl } else { t.cl };
        // Channel-level read↔write turnaround: switching the data
        // bus direction costs bus idle time (write-to-read pays
        // tWTR; read-to-write pays the CL/CWL offset plus a bubble).
        let turnaround = match last_was_write {
            Some(last) if last != is_write => {
                if last {
                    t.t_wtr + 2
                } else {
                    (t.cl - t.cwl) + 2
                }
            }
            _ => 0,
        };
        let data_start = (acc.cas_issue + lat).max(bus_free + turnaround);
        let completion = data_start + t.t_burst;
        bus_free = completion;
        last_was_write = Some(is_write);
        if MIXED {
            tally.writes += u64::from(is_write);
        }
        tally.row_hits += u64::from(acc.row_hit);
        tally.row_empties += u64::from(acc.row_empty);
        match completion.raw().checked_sub(arrival.raw()) {
            Some(lat) => tally.latency += lat,
            None => {
                // Completion before arrival means the scheduler
                // violated causality; record it for the audit
                // instead of silently clamping to zero latency.
                tally.underflows += 1;
                debug_assert!(
                    false,
                    "DRAM completion {completion} precedes arrival {}",
                    arrival
                );
            }
        }
        if let Some(out) = out.as_deref_mut() {
            // lint: allow(panic, orig_idx < requests.len() == out.len() by construction)
            out[e.orig_idx as usize] = Completion {
                index: e.orig_idx as usize,
                completion,
                row_hit: acc.row_hit,
            };
        }
    }
    ch.bus_free = bus_free;
    ch.last_was_write = last_was_write;
    if !queue.is_empty() {
        tally.latest = ch.bus_free;
    }
    if !MIXED && uniform.0 {
        tally.writes = queue.len() as u64;
    }
    tally
}

/// The scheduler's only call into [`AddressMapping::decode`] — a wrapper so
/// tests can count invocations and assert the decode-once contract (exactly
/// one decode per request per batch, and per line per path).
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

/// Runtime switch routing [`DramSystem::schedule_batch`] (and `_done`, and
/// [`DramSystem::schedule_path`]) through the naive reference scheduler, so differential tests can run a
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

    /// The reference run folded like [`DramSystem::schedule_batch_done`].
    fn reference_done(&mut self, requests: &[MemRequest], at: Cycle) -> Cycle {
        self.schedule_batch_reference(requests)
            .into_iter()
            .map(|c| c.completion)
            .fold(at, Cycle::max)
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
        assert_eq!(
            hits, 2,
            "both row-0 requests should be served as hits first"
        );
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
        assert!(s.total_latency > 0);
        assert!(s.bus_busy_cycles > 0);
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
        // A path's read and write-back decode each line once between them.
        let lines = path_lines(&mut 7, 40);
        let before = decode_count::calls();
        d.schedule_path(lines, Cycle(9));
        assert_eq!(
            decode_count::calls() - before,
            40,
            "the write-back must reuse the read's decoded queues"
        );
    }

    #[test]
    fn completions_are_in_input_order_for_shuffled_batch() {
        let mut d = sys();
        let reqs = shuffled_batch(100);
        let done = d.schedule_batch(&reqs);
        assert_eq!(done.len(), reqs.len());
        for (i, c) in done.iter().enumerate() {
            assert_eq!(
                c.index, i,
                "slot {i} holds completion for request {}",
                c.index
            );
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
        // The path entry point too: forced, the scheduler's decoder never
        // runs, and both routes agree.
        let lines = path_lines(&mut 3, 40);
        let mut e = sys();
        let mut f = sys();
        reference::force(true);
        let before = decode_count::calls();
        let forced_path = e.schedule_path(lines.iter().copied(), Cycle(5));
        assert_eq!(
            decode_count::calls(),
            before,
            "forced run left the reference"
        );
        reference::force(false);
        assert_eq!(forced_path, f.schedule_path(lines, Cycle(5)));
        assert_eq!(e.stats(), f.stats());
    }

    /// The lines of one ORAM path: `n` lines to a random leaf of a Z=4
    /// subtree layout under a 7-level tree top (40 lines is the L=17 path
    /// `TimedController` submits). `seed` advances per call.
    fn path_lines(seed: &mut u64, n: usize) -> Vec<u64> {
        let mut z = vec![0u32; 7];
        z.resize(7 + n.div_ceil(4), 4);
        let table = crate::SubtreeLayout::new(&z, 4).path_table(0);
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let leaf = (*seed >> 33) % (1 << (z.len() - 1));
        table.lines(leaf, 0).take(n).collect()
    }

    /// The path entry point against the reference scheduler running the
    /// read batch and then the write-back of the same lines: equal done
    /// times, stats, underflows and snapshot bytes after every path.
    fn assert_paths_match_reference(cfg: DramConfig, lines: usize, paths: u64) {
        let mut fast = DramSystem::new(cfg);
        let mut naive = DramSystem::new(cfg);
        let mut seed = lines as u64;
        let mut at = Cycle(0);
        for path in 0..paths {
            let path_lines = path_lines(&mut seed, lines);
            let (read_done, write_done) = fast.schedule_path(path_lines.iter().copied(), at);
            let reads: Vec<MemRequest> = path_lines
                .iter()
                .map(|&l| MemRequest::read(l, at))
                .collect();
            let naive_read = naive.reference_done(&reads, at);
            let writes: Vec<MemRequest> = path_lines
                .iter()
                .map(|&l| MemRequest::write(l, naive_read))
                .collect();
            let naive_write = naive.reference_done(&writes, naive_read);
            assert_eq!(
                (read_done, write_done),
                (naive_read, naive_write),
                "path {path}"
            );
            assert_eq!(fast.stats(), naive.stats(), "path {path}");
            assert_eq!(fast.latency_underflows(), naive.latency_underflows());
            let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
            fast.save_state(&mut a);
            naive.save_state(&mut b);
            assert_eq!(a.into_bytes(), b.into_bytes(), "path {path}");
            // The next path arrives one slot later, or when this read ends.
            at = (at + 300).max(read_done);
        }
    }

    #[test]
    fn paths_match_the_reference_read_then_write_back() {
        // The default system: 40 lines over 4 channels, 10 per queue.
        assert_paths_match_reference(DramConfig::default(), 40, 200);
        for reorder_window in [1, 16] {
            // One channel: a 40-line queue longer than the window, and a
            // 100-line queue whose unserved bits span two bitset words.
            for lines in [40, 100] {
                let cfg = DramConfig {
                    mapping: AddressMapping::new(1, 8, 128, Interleave::CacheLine),
                    reorder_window,
                    ..DramConfig::default()
                };
                assert_paths_match_reference(cfg, lines, 100);
            }
        }
    }

    #[test]
    fn parallel_scheduling_matches_serial_and_reference() {
        // Batches several times a path's size (a path is at most a few
        // dozen requests) spread over every channel at once; the
        // per-channel scans must still match the serial reference schedule
        // bit for bit, batch after batch, at every channel count.
        for channels in [2u32, 4, 8] {
            let cfg = DramConfig {
                mapping: AddressMapping::new(channels, 8, 128, Interleave::CacheLine),
                ..DramConfig::default()
            };
            let mut fast = DramSystem::new(cfg);
            let mut naive = DramSystem::new(cfg);
            for batch in 0..4u64 {
                let reqs = shuffled_batch(256 + batch * 11);
                let a = fast.schedule_batch(&reqs);
                let b = naive.schedule_batch_reference(&reqs);
                assert_eq!(a, b, "channels {channels} batch {batch}");
                assert_eq!(
                    fast.stats(),
                    naive.stats(),
                    "channels {channels} batch {batch}"
                );
                assert_eq!(fast.latency_underflows(), naive.latency_underflows());
            }
        }
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
