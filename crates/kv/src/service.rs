//! The sharded KV service: a position directory over S independent ORAM
//! shards, bounded per-shard request queues, and deterministic scoped
//! workers.
//!
//! Determinism contract (pinned by `tests/kv_determinism.rs`): operations
//! are partitioned to shards *at submission time*, each shard serves its
//! queue strictly in submission order with shard-private state (ORAM,
//! RNG, overflow stash), and replies merge back sorted by the global
//! submission sequence number. Worker count therefore changes only *which
//! thread* runs a shard, never what the shard computes — `workers <= 1`
//! is the serial reference twin that the threaded path must match
//! byte-for-byte.

use iroram_hash::mix64;
use iroram_protocol::{AddressSpace, OramConfig, RemapPolicy, TreeTopMode, ZAllocation};

use crate::store::{shard_of, Clock, KvError, KvOp, KvShard, ShardReport};

/// PLB associativity of every shard (the set count follows the map size).
const PLB_WAYS: usize = 4;

/// Service construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvConfig {
    /// Independent ORAM shards.
    pub shards: usize,
    /// Table slots per shard (a power of two).
    pub slots_per_shard: u64,
    /// Scoped worker threads for [`KvService::flush`] (clamped to the
    /// shard count; `<= 1` serves serially).
    pub workers: usize,
    /// Bounded per-shard queue depth; [`KvService::submit`] fails with
    /// [`KvError::QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// Operations per ORAM access batch within a shard's flush.
    pub batch_ops: usize,
    /// Master seed; every shard derives its own ORAM and victim-choice
    /// RNG seeds from it.
    pub seed: u64,
}

impl KvConfig {
    /// Sizes a service for `total_keys` keys over `shards` shards: slots
    /// are 1.5x the per-shard key share (rounded up to a power of two,
    /// minimum 512), keeping the cuckoo tables at a comfortable ~2/3 load
    /// ceiling.
    pub fn for_keys(total_keys: u64, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let per_shard = total_keys.div_ceil(shards as u64);
        let slots = (per_shard.saturating_mul(3) / 2)
            .max(512)
            .next_power_of_two();
        KvConfig {
            shards,
            slots_per_shard: slots,
            workers: shards,
            queue_capacity: 1 << 16,
            batch_ops: 32,
            seed: 0xC0FFEE,
        }
    }

    /// The ORAM configuration backing shard `shard`: a tree sized so the
    /// table occupies the usual ~50% data-block utilization
    /// (`data_blocks = slots = 2^(levels+1)`), the top half of the levels
    /// (capped at 7) in a dedicated tree-top cache, payload encryption
    /// and integrity checking on.
    ///
    /// The PLB holds the shard's whole PosMap₁+₂ (`n_pm1 + n_pm2` lines,
    /// 4 ways, rounded up to whole sets). PosMap addresses are contiguous
    /// and index by their low bits, so no set receives more than 4 of
    /// them: once [`KvShard::new`] has warmed it, the PLB never misses.
    pub fn oram_config(&self, shard: usize) -> OramConfig {
        let slots = self.slots_per_shard;
        assert!(slots.is_power_of_two() && slots >= 512);
        let levels = (63 - slots.leading_zeros()) as usize - 1;
        let space = AddressSpace::new(slots);
        OramConfig {
            levels,
            data_blocks: slots,
            zalloc: ZAllocation::uniform(levels, 4),
            treetop: TreeTopMode::Dedicated {
                levels: (levels / 2).min(7),
            },
            stash_capacity: 200,
            plb_sets: (space.n_pm1() + space.n_pm2()).div_ceil(PLB_WAYS as u64) as usize,
            plb_ways: PLB_WAYS,
            remap: RemapPolicy::Immediate,
            max_bg_evicts_per_access: 8,
            encrypt_payloads: true,
            integrity: true,
            seed: mix64(self.seed ^ (0x0053_4841_5244 + shard as u64)), // "SHARD"
        }
    }

    /// Folds every configuration field into a workload fingerprint, for
    /// the benchmark history's provenance notes. Exhaustive destructuring
    /// (no `..`) so adding a field without extending the fold is a
    /// compile error, mirroring `iroram_experiments::journal`.
    pub fn fingerprint(&self) -> u64 {
        let KvConfig {
            shards,
            slots_per_shard,
            workers: _, // worker count must not change the workload
            queue_capacity,
            batch_ops,
            seed,
        } = self;
        let mut fp = 0xB10C_5EED_u64;
        for field in [
            *shards as u64,
            *slots_per_shard,
            *queue_capacity as u64,
            *batch_ops as u64,
            *seed,
        ] {
            fp = mix64(fp.rotate_left(9) ^ field);
        }
        fp
    }
}

/// One reply: the submission sequence number and the operation's result
/// (previous/stored value, per [`KvOp`]'s conventions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvResult {
    /// Sequence number [`KvService::submit`] returned for this op.
    pub seq: u64,
    /// The op's outcome.
    pub reply: Result<Option<u32>, KvError>,
}

/// Everything one [`KvService::flush`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Replies for every queued op, sorted by sequence number.
    pub replies: Vec<KvResult>,
    /// Per-reply service latency in clock ticks, aligned with `replies`
    /// (all zero when no clock was injected). Excluded from `replies` so
    /// the deterministic payload stays separable from timing.
    pub latencies: Vec<u64>,
    /// Per-shard busy time in clock ticks for this flush (zero without a
    /// clock).
    pub shard_busy: Vec<u64>,
    /// Per-shard operation counts for this flush.
    pub shard_ops: Vec<u64>,
}

/// One queued operation.
#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    op: KvOp,
}

/// What one shard's queue drain produced (latency in clock ticks).
struct ShardOut {
    replies: Vec<(u64, Result<Option<u32>, KvError>, u64)>,
    busy: u64,
}

/// The sharded oblivious KV service.
pub struct KvService {
    cfg: KvConfig,
    shards: Vec<KvShard>,
    queues: Vec<Vec<Pending>>,
    next_seq: u64,
}

impl KvService {
    /// Builds the service: `cfg.shards` independent ORAM shards, each
    /// with its own derived seed.
    pub fn new(cfg: KvConfig) -> Self {
        let shards: Vec<KvShard> = (0..cfg.shards)
            .map(|s| KvShard::new(cfg.oram_config(s), cfg.slots_per_shard))
            .collect();
        let queues = (0..cfg.shards).map(|_| Vec::new()).collect();
        KvService {
            cfg,
            shards,
            queues,
            next_seq: 0,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Queues one operation on its shard, returning the sequence number
    /// its reply will carry.
    ///
    /// # Errors
    ///
    /// [`KvError::QueueFull`] when the target shard's bounded queue is at
    /// capacity — flush and resubmit.
    pub fn submit(&mut self, op: KvOp) -> Result<u64, KvError> {
        let shard = shard_of(op.key(), self.cfg.shards);
        if self.queues[shard].len() >= self.cfg.queue_capacity {
            return Err(KvError::QueueFull);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queues[shard].push(Pending { seq, op });
        Ok(seq)
    }

    /// Serves every queued operation and returns the merged replies.
    pub fn flush(&mut self) -> FlushOutcome {
        self.flush_with_clock(None)
    }

    /// [`KvService::flush`] with an injected clock for latency and
    /// per-shard busy-time measurement. The clock influences only the
    /// timing fields of the outcome, never replies or reports.
    pub fn flush_with_clock(&mut self, clock: Option<Clock<'_>>) -> FlushOutcome {
        let queues: Vec<Vec<Pending>> = self.queues.iter_mut().map(std::mem::take).collect();
        let shard_ops: Vec<u64> = queues.iter().map(|q| q.len() as u64).collect();
        let batch_ops = self.cfg.batch_ops.max(1);
        let workers = self.cfg.workers.clamp(1, self.cfg.shards);

        let outs: Vec<ShardOut> = if workers <= 1 {
            // The serial reference twin: same per-shard serving code, same
            // shard order, no threads.
            self.shards
                .iter_mut()
                .zip(&queues)
                .map(|(shard, q)| drain_shard(shard, q, batch_ops, clock))
                .collect()
        } else {
            // Scoped fan-out: disjoint contiguous shard chunks per worker,
            // joined in chunk order, so the merged result is independent
            // of scheduling.
            let chunk = self.cfg.shards.div_ceil(workers);
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .chunks_mut(chunk)
                    .zip(queues.chunks(chunk))
                    .map(|(shard_chunk, queue_chunk)| {
                        s.spawn(move || {
                            shard_chunk
                                .iter_mut()
                                .zip(queue_chunk)
                                .map(|(shard, q)| drain_shard(shard, q, batch_ops, clock))
                                .collect::<Vec<ShardOut>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("kv worker panicked"))
                    .collect()
            })
        };

        let shard_busy: Vec<u64> = outs.iter().map(|o| o.busy).collect();
        let mut merged: Vec<(u64, Result<Option<u32>, KvError>, u64)> =
            outs.into_iter().flat_map(|o| o.replies).collect();
        merged.sort_by_key(|&(seq, _, _)| seq);
        let latencies = merged.iter().map(|&(_, _, lat)| lat).collect();
        let replies = merged
            .into_iter()
            .map(|(seq, reply, _)| KvResult { seq, reply })
            .collect();
        FlushOutcome {
            replies,
            latencies,
            shard_busy,
            shard_ops,
        }
    }

    /// Convenience single-op put (submit + flush). Replies with the
    /// previous value, if any.
    ///
    /// # Errors
    ///
    /// Propagates the op's [`KvError`].
    pub fn put(&mut self, key: u32, value: u32) -> Result<Option<u32>, KvError> {
        self.single(KvOp::Put { key, value })
    }

    /// Convenience single-op get (submit + flush).
    ///
    /// # Errors
    ///
    /// Propagates the op's [`KvError`].
    pub fn get(&mut self, key: u32) -> Result<Option<u32>, KvError> {
        self.single(KvOp::Get { key })
    }

    /// Convenience single-op delete (submit + flush). Replies with the
    /// removed value, if any.
    ///
    /// # Errors
    ///
    /// Propagates the op's [`KvError`].
    pub fn delete(&mut self, key: u32) -> Result<Option<u32>, KvError> {
        self.single(KvOp::Delete { key })
    }

    fn single(&mut self, op: KvOp) -> Result<Option<u32>, KvError> {
        self.submit(op)?;
        self.flush()
            .replies
            .pop()
            .expect("one op queued, one reply out")
            .reply
    }

    /// Deterministic per-shard reports (shard index order).
    pub fn reports(&self) -> Vec<ShardReport> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.report(i))
            .collect()
    }

    /// Dumps the full logical contents, sorted by key. Reads every table
    /// slot through the ORAMs (mutating protocol state): capture
    /// [`KvService::reports`] first if you need them.
    pub fn dump(&mut self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self.shards.iter_mut().flat_map(KvShard::dump).collect();
        out.sort_unstable();
        out
    }

    /// Direct access to the shards (tests, invariant checks).
    pub fn shards(&self) -> &[KvShard] {
        &self.shards
    }
}

/// Drains one shard's queue in submission order, batching `batch_ops`
/// operations per ORAM access batch.
fn drain_shard(
    shard: &mut KvShard,
    queue: &[Pending],
    batch_ops: usize,
    clock: Option<Clock<'_>>,
) -> ShardOut {
    let mut replies = Vec::with_capacity(queue.len());
    let start = clock.map_or(0, |c| c());
    for chunk in queue.chunks(batch_ops) {
        let ops: Vec<KvOp> = chunk.iter().map(|p| p.op).collect();
        let (outs, lats) = shard.run_batch_timed(&ops, clock);
        for ((p, reply), lat) in chunk.iter().zip(outs).zip(lats) {
            replies.push((p.seq, reply, lat));
        }
    }
    let busy = clock.map_or(0, |c| c().saturating_sub(start));
    ShardOut { replies, busy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iroram_cache::{CacheConfig, SetAssocCache};

    #[test]
    fn plb_covers_the_whole_position_map_without_conflicts() {
        for log_slots in 9..=21 {
            let cfg = KvConfig {
                slots_per_shard: 1 << log_slots,
                ..KvConfig::for_keys(1, 1)
            };
            let oram = cfg.oram_config(0);
            let space = AddressSpace::new(oram.data_blocks);
            let pm_lines = space.n_pm1() + space.n_pm2();
            let capacity = (oram.plb_sets * oram.plb_ways) as u64;
            assert!(
                (pm_lines..pm_lines + 4).contains(&capacity),
                "2^{log_slots} slots: {capacity} PLB lines for {pm_lines} PosMap blocks"
            );
            let plb = SetAssocCache::new(CacheConfig::new(oram.plb_sets, oram.plb_ways));
            let mut per_set = vec![0usize; oram.plb_sets];
            for addr in space.n_data()..space.total_blocks() {
                per_set[plb.set_of(addr)] += 1;
            }
            let fullest = per_set.iter().copied().max().unwrap_or(0);
            assert!(
                fullest <= oram.plb_ways,
                "2^{log_slots} slots: a PLB set receives {fullest} PosMap blocks"
            );
        }
    }
}
