//! The top-level DRAM system: channels, scheduling, statistics.

use iroram_sim_engine::{Cycle, SnapError, SnapReader, SnapWriter};

use crate::{AddressMapping, BankState, DecodedAddr, DramTimings};

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

iroram_sim_engine::counter_codec!(DramStats {
    row_hits,
    row_empties,
    row_conflicts,
    requests,
    reads,
    writes,
    total_latency,
    bus_busy_cycles,
    last_completion
});

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

/// A queued line with its address decoded exactly once, at enqueue. The
/// channel is implicit (one scratch queue per channel) and every line of a
/// batch shares its direction and arrival, so the FR-FCFS scan reads only
/// `(bank, row)` from the entry instead of re-dividing the line address on
/// every window iteration.
#[derive(Debug, Clone, Copy)]
struct DecodedRequest {
    bank: u32,
    row: u64,
}

/// A multi-channel DRAM memory system with FR-FCFS scheduling.
///
/// The model is transaction-level: a caller submits a batch of lines that
/// share one direction and one arrival (all the block reads of one ORAM
/// path, or its write-back) with [`DramSystem::schedule_lines`] and gets
/// back the time its last line completes; [`DramSystem::schedule_path`]
/// takes one path's lines and schedules its read and write-back. Bank and
/// bus state persist across batches, so sustained-bandwidth effects
/// (queueing, row locality, write recovery, read↔write turnaround)
/// accumulate naturally.
///
/// Within a batch the scheduler serves each channel's queue with FR-FCFS:
/// among the oldest `reorder_window` pending lines it prefers one hitting
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

    /// Schedules a batch of `lines`, all writes when `is_write` (else all
    /// reads) and all arriving at `at`, and returns the latest completion
    /// (the phase-done time the ORAM controller waits on), or `at` for an
    /// empty batch. Every line is fully served; the completion may exceed
    /// `at` by the queueing delay implied by bank and bus contention.
    pub fn schedule_lines(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        is_write: bool,
        at: Cycle,
    ) -> Cycle {
        #[cfg(any(test, feature = "reference-scheduler"))]
        if reference::forced() {
            let lines: Vec<u64> = lines.into_iter().collect();
            return self.schedule_lines_reference(&lines, is_write, at);
        }
        self.enqueue(lines);
        at.max(self.serve_queued(is_write, at))
    }

    /// Schedules one ORAM path as the serial controller issues it: a read
    /// of each of `lines`, all arriving at `at`, then a write of each of
    /// the same lines, all arriving when the last read completes. Returns
    /// `(read_done, write_done)`.
    ///
    /// The same as `schedule_lines(lines, false, at)` followed by
    /// `schedule_lines(lines, true, read_done)`, but each line is decoded
    /// once for both batches: the write-back serves the read's queues again.
    pub fn schedule_path(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        at: Cycle,
    ) -> (Cycle, Cycle) {
        #[cfg(any(test, feature = "reference-scheduler"))]
        if reference::forced() {
            let lines: Vec<u64> = lines.into_iter().collect();
            let read_done = self.schedule_lines_reference(&lines, false, at);
            return (
                read_done,
                self.schedule_lines_reference(&lines, true, read_done),
            );
        }
        self.enqueue(lines);
        let read_done = at.max(self.serve_queued(false, at));
        (read_done, read_done.max(self.serve_queued(true, read_done)))
    }

    /// Refills the per-channel queues from `lines`, decoding each once.
    fn enqueue(&mut self, lines: impl IntoIterator<Item = u64>) {
        for q in self.queues.iter_mut() {
            q.clear();
        }
        for line in lines {
            let d = decode_once(&self.cfg.mapping, line);
            // lint: allow(panic, decode returns channel < cfg.mapping.channels() == queues.len() by construction)
            self.queues[d.channel as usize].push(DecodedRequest {
                bank: d.bank,
                row: d.row,
            });
        }
    }

    /// Serves every queued line, channel by channel, as a write when
    /// `is_write` (else a read) arriving at `arrival`. Returns the latest
    /// completion ([`Cycle::ZERO`] for an empty batch).
    fn serve_queued(&mut self, is_write: bool, arrival: Cycle) -> Cycle {
        let t = self.cfg.timings;
        let window = self.cfg.reorder_window.max(1);
        let mut latest = Cycle::ZERO;
        for (ch, queue) in self.channels.iter_mut().zip(&self.queues) {
            let tally = scan_channel(&t, window, ch, queue, &mut self.live, is_write, arrival);
            let n = queue.len() as u64;
            let s = &mut self.stats;
            s.requests += n;
            if is_write {
                s.writes += n;
            } else {
                s.reads += n;
            }
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
        self.stats.save(w);
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
        self.stats = DramStats::restore(r)?;
        self.latency_underflows = r.take_u64()?;
        Ok(())
    }
}

/// What one channel's scan adds to the lifetime statistics, kept in
/// locals and folded into [`DramStats`] once per channel.
struct Tally {
    row_hits: u64,
    row_empties: u64,
    latency: u64,
    underflows: u64,
    /// The channel's latest completion ([`Cycle::ZERO`] if it served none).
    latest: Cycle,
}

/// The FR-FCFS scan for one channel: serves every entry in `queue` as a
/// write when `is_write` (else a read) arriving at `arrival`.
///
/// `live` is the unserved-entry bitset, so the scan walks only the entries
/// still queued, however far served ones are scattered. Every entry of a
/// batch arrives at once, so a row hit never waits on a later arrival and
/// any hit in the window may be hoisted over the oldest entry.
fn scan_channel(
    t: &DramTimings,
    window: usize,
    ch: &mut Channel,
    queue: &[DecodedRequest],
    live: &mut Vec<u64>,
    is_write: bool,
    arrival: Cycle,
) -> Tally {
    let mut tally = Tally {
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
    // Data transfer: CAS + CL (or CWL) to first beat, bus holds for
    // t_burst; serialize on the channel data bus.
    let cas_lat = if is_write { t.cwl } else { t.cl };
    for _ in 0..queue.len() {
        // lint: allow(panic, an unserved entry remains on every iteration, so a nonzero word sits at or after head_word)
        while live[head_word] == 0 {
            head_word += 1;
        }
        // lint: allow(panic, head_word was just positioned on a nonzero word)
        let head = head_word * 64 + live[head_word].trailing_zeros() as usize;
        // lint: allow(panic, head is a set bit, and bits are set only below queue.len())
        let first = &queue[head];
        // FR-FCFS: among the window of oldest entries, pick the first row
        // hit; otherwise the oldest. The oldest entry is checked first:
        // inside a run of one row it is the usual pick.
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
                    if banks[e.bank as usize].would_hit(e.row) {
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
        // lint: allow(panic, decode returns bank < cfg.mapping.banks() == ch.banks.len() by construction)
        let acc = banks[e.bank as usize].access(e.row, is_write, arrival, t);
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
        let data_start = (acc.cas_issue + cas_lat).max(bus_free + turnaround);
        let completion = data_start + t.t_burst;
        bus_free = completion;
        last_was_write = Some(is_write);
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
    }
    ch.bus_free = bus_free;
    ch.last_was_write = last_was_write;
    if !queue.is_empty() {
        tally.latest = ch.bus_free;
    }
    tally
}

/// The scheduler's only call into [`AddressMapping::decode`] — a wrapper so
/// tests can count invocations and assert the decode-once contract (exactly
/// one decode per line per batch, and per line per path).
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

/// Runtime switch routing [`DramSystem::schedule_lines`] and
/// [`DramSystem::schedule_path`] through the naive reference scheduler, so
/// differential tests can run a whole simulation against the
/// pre-optimization implementation. The switch
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
/// decode per scan candidate, an arrival gate on every hoist, and
/// `remove(pick)` tail shifts. Every report must be byte-identical whichever
/// implementation runs.
#[cfg(any(test, feature = "reference-scheduler"))]
impl DramSystem {
    /// [`DramSystem::schedule_lines`] as originally written (naive
    /// FR-FCFS over a list of requests, one per line, each carrying the
    /// batch's direction and arrival).
    pub fn schedule_lines_reference(&mut self, lines: &[u64], is_write: bool, at: Cycle) -> Cycle {
        /// One line's request in the reference's private list.
        #[derive(Clone, Copy)]
        struct Request {
            line_addr: u64,
            is_write: bool,
            arrival: Cycle,
        }
        let t = self.cfg.timings;
        let window = self.cfg.reorder_window.max(1);
        // Partition into per-channel queues.
        let nch = self.channels.len();
        let mut queues: Vec<Vec<Request>> = vec![Vec::new(); nch];
        for &line_addr in lines {
            let d = self.cfg.mapping.decode(line_addr);
            queues[d.channel as usize].push(Request {
                line_addr,
                is_write,
                arrival: at,
            });
        }
        let mut done = at;
        for (ch_idx, mut queue) in queues.into_iter().enumerate() {
            let ch = &mut self.channels[ch_idx];
            while !queue.is_empty() {
                let scan = queue.len().min(window);
                let hoist_gate = queue[0].arrival.max(ch.bus_free);
                let pick = queue[..scan]
                    .iter()
                    .position(|r| {
                        let d = self.cfg.mapping.decode(r.line_addr);
                        r.arrival <= hoist_gate && ch.banks[d.bank as usize].would_hit(d.row)
                    })
                    .unwrap_or(0);
                let req = queue.remove(pick);
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
                done = done.max(completion);
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interleave;

    fn sys() -> DramSystem {
        DramSystem::new(DramConfig::default())
    }

    fn snapshot(d: &DramSystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        d.save_state(&mut w);
        w.into_bytes()
    }

    /// Equal stats, underflow counts and snapshot bytes (banks, buses,
    /// turnaround state) on the two systems.
    fn assert_same_state(fast: &DramSystem, naive: &DramSystem, at: &str) {
        assert_eq!(fast.stats(), naive.stats(), "stats after {at}");
        assert_eq!(
            fast.latency_underflows(),
            naive.latency_underflows(),
            "underflows after {at}"
        );
        assert!(snapshot(fast) == snapshot(naive), "state after {at}");
    }

    #[test]
    fn single_read_latency() {
        let mut d = sys();
        let done = d.schedule_lines([0], false, Cycle(0));
        let t = DramTimings::ddr3_1600();
        // Empty bank: activate + tRCD + CL + burst.
        assert_eq!(done, Cycle(t.t_rcd + t.cl + t.t_burst));
        assert_eq!((d.stats().row_hits, d.stats().row_empties), (0, 1));
    }

    #[test]
    fn sequential_lines_fan_out_across_channels() {
        let one = sys().schedule_lines([0], false, Cycle(0));
        let mut d = sys();
        // All four finish as one read alone does (independent channels).
        assert_eq!(d.schedule_lines(0..4, false, Cycle(0)), one);
        assert!(d.channels.iter().all(|ch| ch.bus_free == one));
    }

    #[test]
    fn same_row_accesses_become_hits() {
        let mut d = sys();
        // Lines 0,4,8,… land in channel 0, same row.
        d.schedule_lines((0..8).map(|i| i * 4), false, Cycle(0));
        assert_eq!(d.stats().row_hits, 7, "all but the opener should hit");
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
        let conflict_done = d.schedule_lines((0..8).map(|i| (i % 2) * 16), false, Cycle(0));

        let mut d2 = DramSystem::new(cfg);
        let hit_done = d2.schedule_lines(0..8, false, Cycle(0));
        assert!(
            conflict_done > hit_done,
            "conflicts {conflict_done} vs hits {hit_done}"
        );
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        // Two requests to row A (open), one to row B ahead of them in queue
        // order; FCFS would serve B first, FR-FCFS serves A,A as hits, then
        // B, whose row is left open.
        let mapping = AddressMapping::new(1, 1, 16, Interleave::CacheLine);
        let run = |reorder_window| {
            let mut d = DramSystem::new(DramConfig {
                mapping,
                reorder_window,
                ..DramConfig::default()
            });
            // Open row 0.
            d.schedule_lines([0], false, Cycle(0));
            // Queue: B(row1), A(row0), A(row0).
            let done = d.schedule_lines([16, 1, 2], false, Cycle(0));
            (done, d.stats().row_hits, d.channels[0].banks[0].open_row())
        };
        let (frfcfs_done, frfcfs_hits, open_row) = run(8);
        assert_eq!(
            frfcfs_hits, 2,
            "both row-0 requests should be served as hits first"
        );
        assert_eq!(open_row, Some(1), "the row-1 request is served last");
        let (fcfs_done, fcfs_hits, _) = run(1);
        assert_eq!(fcfs_hits, 1);
        assert!(frfcfs_done < fcfs_done);
    }

    #[test]
    fn bank_state_persists_across_batches() {
        let mut d = sys();
        d.schedule_lines([0], false, Cycle(0));
        d.schedule_lines([0], true, Cycle(1000));
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = sys();
        let (writes, reads): (Vec<u64>, Vec<u64>) = (0..100).partition(|i| i % 3 == 0);
        d.schedule_lines(reads, false, Cycle(0));
        d.schedule_lines(writes, true, Cycle(0));
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
        assert_eq!(d.schedule_lines([], true, Cycle(42)), Cycle(42));
        assert_eq!(d.schedule_path([], Cycle(42)), (Cycle(42), Cycle(42)));
        assert_eq!(d.stats(), &DramStats::default());
    }

    #[test]
    fn arrival_time_floors_service() {
        let mut d = sys();
        assert!(d.schedule_lines([0], false, Cycle(10_000)) > Cycle(10_000));
    }

    /// `n` lines spread over rows, banks and channels by a multiplicative
    /// shuffle (no subtree locality); `salt` makes successive batches
    /// differ.
    fn shuffled_lines(n: u64, salt: u64) -> Vec<u64> {
        (0..n)
            .map(|i| (i + salt * 977) * 2654435761 % 40_000)
            .collect()
    }

    /// Batch `b` of a differential run: `n` shuffled lines whose direction
    /// and arrival change from batch to batch. The directions run
    /// read, write, write, read, read, so every turnaround (and no
    /// turnaround) occurs; the arrivals step down from far ahead of the
    /// channels to behind them, so a batch may find them idle or busy.
    /// Bank and bus state carry across the batches.
    fn batch(b: u64, n: u64) -> (Vec<u64>, bool, Cycle) {
        (
            shuffled_lines(n, b),
            matches!(b % 5, 1 | 2),
            Cycle(b * 7919 % 9000),
        )
    }

    /// Runs `batches` through the scheduler and the reference side by side:
    /// equal done times, stats, underflows and snapshot bytes after every
    /// batch.
    fn assert_batches_match_reference(
        cfg: DramConfig,
        batches: impl IntoIterator<Item = (Vec<u64>, bool, Cycle)>,
    ) {
        let mut fast = DramSystem::new(cfg);
        let mut naive = DramSystem::new(cfg);
        for (b, (lines, is_write, at)) in batches.into_iter().enumerate() {
            let done = fast.schedule_lines(lines.iter().copied(), is_write, at);
            let naive_done = naive.schedule_lines_reference(&lines, is_write, at);
            assert_eq!(done, naive_done, "batch {b} of {cfg:?}");
            assert_same_state(&fast, &naive, &format!("batch {b} of {cfg:?}"));
        }
    }

    #[test]
    fn decode_runs_exactly_once_per_request_per_batch() {
        let mut d = sys();
        let lines = shuffled_lines(64, 0);
        let before = decode_count::calls();
        d.schedule_lines(lines, true, Cycle(0));
        assert_eq!(
            decode_count::calls() - before,
            64,
            "decode must run exactly N times for an N-line batch"
        );
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
    fn matches_reference_scheduler_across_batches() {
        // Same batch stream through both implementations, multiple batches
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
            assert_batches_match_reference(cfg, (0..8).map(|b| batch(b, 48 + b * 7)));
        }
    }

    #[test]
    fn reference_force_switch_routes_public_api() {
        // Forced, the scheduler's decoder never runs, and both routes
        // agree, for a batch and for a path.
        let lines = shuffled_lines(32, 0);
        let mut a = sys();
        reference::force(true);
        let before = decode_count::calls();
        let forced = a.schedule_lines(lines.iter().copied(), true, Cycle(3));
        assert_eq!(
            decode_count::calls(),
            before,
            "forced run left the reference"
        );
        reference::force(false);
        let mut b = sys();
        assert_eq!(forced, b.schedule_lines(lines, true, Cycle(3)));
        assert_same_state(&a, &b, "the forced batch");

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
        assert_same_state(&e, &f, "the forced path");
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
            let naive_read = naive.schedule_lines_reference(&path_lines, false, at);
            let naive_write = naive.schedule_lines_reference(&path_lines, true, naive_read);
            assert_eq!(
                (read_done, write_done),
                (naive_read, naive_write),
                "path {path}"
            );
            assert_same_state(&fast, &naive, &format!("path {path}"));
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
        // dozen lines) spread over every channel at once, and at one
        // channel a queue spanning several bitset words; the per-channel
        // scans must still match the serial reference schedule bit for
        // bit, batch after batch, at every channel count.
        for channels in [1u32, 2, 4, 8] {
            let cfg = DramConfig {
                mapping: AddressMapping::new(channels, 8, 128, Interleave::CacheLine),
                ..DramConfig::default()
            };
            assert_batches_match_reference(cfg, (0..4).map(|b| batch(b, 256 + b * 11)));
        }
    }

    #[test]
    fn save_restore_continues_schedule_identically() {
        let mut live = sys();
        live.schedule_lines(shuffled_lines(128, 0), false, Cycle(0));
        let bytes = snapshot(&live);
        let mut fresh = sys();
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_same_state(&fresh, &live, "the restore");
        for b in 1..4u64 {
            let (lines, is_write, at) = batch(b, 40 + b * 9);
            assert_eq!(
                fresh.schedule_lines(lines.iter().copied(), is_write, at),
                live.schedule_lines(lines, is_write, at)
            );
            assert_same_state(&fresh, &live, &format!("batch {b}"));
        }
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let bytes = snapshot(&sys());
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
        // A big batch warms the scratch; a following small batch must not
        // see stale entries (wrong stats or done times would betray
        // leakage).
        let (big, small) = (shuffled_lines(256, 0), shuffled_lines(3, 1));
        let mut d = sys();
        let mut naive = sys();
        d.schedule_lines(big.iter().copied(), true, Cycle(0));
        naive.schedule_lines_reference(&big, true, Cycle(0));
        let before = d.stats().requests;
        assert_eq!(
            d.schedule_lines(small.iter().copied(), false, Cycle(0)),
            naive.schedule_lines_reference(&small, false, Cycle(0))
        );
        assert_eq!(d.stats().requests - before, 3);
        assert_same_state(&d, &naive, "the small batch");
    }
}
