//! One KV shard: bounded cuckoo-style slotting over a single Path ORAM.
//!
//! Every ORAM block stores one entry packed as `(key << 32) | value`; keys
//! are nonzero `u32`s so the zero payload unambiguously marks an empty
//! slot (a stored value of 0 is still distinguishable from "absent"
//! because the packed entry carries the nonzero key in its upper half).
//!
//! A key hashes to [`PROBES`] candidate slots. Every operation performs the
//! same ORAM access sequence — [`PROBES`] probe reads followed by exactly
//! one write-phase access — whether it hits, misses, inserts, updates or
//! deletes; when no real write is needed the write phase is an identity
//! read-modify-write ("refresh") of the first candidate, which remaps and
//! re-encrypts the block exactly like a real write. The access sequence is
//! fixed, the path count is not: an access served on-chip takes no path,
//! and the write phase usually is, since its block is one the probes just
//! left in the stash or the tree top. A uniform-key op therefore averages
//! about 3.02 paths, not 4 (see DESIGN.md § "Service layer" on this
//! leak). An insert that finds all candidates occupied displaces a victim
//! cuckoo-style for at most [`MAX_KICKS`] relocation rounds (each again
//! [`PROBES`] reads + 1 write); the last displaced entry parks in a
//! bounded *client-side* overflow stash that never touches the server.

use std::collections::BTreeMap;

use iroram_hash::mix64;
use iroram_protocol::{AccessBatch, BlockAddr, OramConfig, PathOram, ProtocolStats};
use iroram_sim_engine::SimRng;

/// Candidate slots per key: the fixed probe width of every operation.
pub const PROBES: usize = 3;

/// Relocation rounds a colliding insert may spend before the displaced
/// entry parks in the overflow stash.
pub const MAX_KICKS: usize = 8;

/// Client-side overflow stash capacity. When it is full, inserts that
/// would need displacement fail with [`KvError::StoreFull`] instead of
/// risking data loss.
pub const OVERFLOW_CAPACITY: usize = 64;

/// Per-probe hash salts: the i-th candidate slot of `key` is
/// `mix64(key ^ SALT[i])` masked to the shard's slot count. Distinct
/// odd-ish constants decorrelate the three probe sequences.
const PROBE_SALTS: [u64; PROBES] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];

/// Salt for the shard directory hash, distinct from every probe salt so
/// shard choice and slot choice are independent.
const SHARD_SALT: u64 = 0x85EB_CA77_C2B2_AE63;

/// The shard index `key` belongs to, out of `shards`.
pub fn shard_of(key: u32, shards: usize) -> usize {
    (mix64(u64::from(key) ^ SHARD_SALT) % shards as u64) as usize
}

/// A wall-clock source injected by benchmark harnesses: returns
/// monotonically increasing ticks (e.g. nanoseconds). The KV crate never
/// reads time itself — determinism-linted code must not — so latency
/// measurement lives entirely in the caller's closure. Clock reads never
/// influence replies, stats or ORAM state.
pub type Clock<'a> = &'a (dyn Fn() -> u64 + Sync);

/// Packs a (nonzero key, value) pair into one ORAM block payload.
fn pack(key: u32, value: u32) -> u64 {
    debug_assert_ne!(key, 0);
    (u64::from(key) << 32) | u64::from(value)
}

/// The key half of a packed entry (0 = empty slot).
fn key_of(entry: u64) -> u32 {
    (entry >> 32) as u32
}

/// The value half of a packed entry.
fn value_of(entry: u64) -> u32 {
    entry as u32
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or update; replies with the previous value, if any.
    Put {
        /// Nonzero key.
        key: u32,
        /// New value (0 is a legal stored value).
        value: u32,
    },
    /// Lookup; replies with the stored value, if any.
    Get {
        /// Nonzero key.
        key: u32,
    },
    /// Remove; replies with the removed value, if any.
    Delete {
        /// Nonzero key.
        key: u32,
    },
}

impl KvOp {
    /// The key this operation addresses.
    pub fn key(&self) -> u32 {
        match *self {
            KvOp::Put { key, .. } | KvOp::Get { key } | KvOp::Delete { key } => key,
        }
    }
}

/// Service-layer errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Key 0 is reserved as the empty-slot marker and cannot be stored.
    ZeroKey,
    /// The table and the overflow stash cannot absorb another insert.
    StoreFull,
    /// A shard's bounded request queue is full; flush before submitting
    /// more.
    QueueFull,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::ZeroKey => write!(f, "key 0 is reserved as the empty-slot marker"),
            KvError::StoreFull => write!(f, "shard table and overflow stash are full"),
            KvError::QueueFull => write!(f, "shard request queue is full"),
        }
    }
}

/// Per-shard KV-layer counters (the ORAM keeps its own
/// [`ProtocolStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Put operations served.
    pub puts: u64,
    /// Get operations served.
    pub gets: u64,
    /// Delete operations served.
    pub deletes: u64,
    /// Operations that found their key (in table or overflow).
    pub hits: u64,
    /// Operations that did not.
    pub misses: u64,
    /// Cuckoo relocation rounds performed.
    pub kicks: u64,
    /// Entries parked in the overflow stash (cumulative).
    pub overflow_parked: u64,
    /// Peak overflow stash occupancy.
    pub overflow_peak: u64,
    /// Inserts rejected with [`KvError::StoreFull`].
    pub store_full: u64,
}

/// A deterministic end-of-run snapshot of one shard, for twin-run
/// byte-identity checks and bench provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index in the service.
    pub shard: usize,
    /// Slot count of the shard's table.
    pub slots: u64,
    /// KV-layer counters.
    pub kv: KvStats,
    /// Protocol counters of the underlying ORAM.
    pub oram: ProtocolStats,
    /// Current ORAM stash occupancy.
    pub stash_len: usize,
    /// Peak ORAM stash occupancy.
    pub stash_peak: usize,
    /// Current overflow stash occupancy.
    pub overflow_len: usize,
}

/// One KV shard: a cuckoo-slotted table inside a single [`PathOram`],
/// plus the client-side overflow stash and the shard's private RNG for
/// victim selection.
pub struct KvShard {
    oram: PathOram,
    slot_mask: u64,
    overflow: BTreeMap<u32, u32>,
    rng: SimRng,
    stats: KvStats,
}

impl KvShard {
    /// Builds a shard with `slots` table slots (a power of two) backed by
    /// an ORAM sized by [`crate::KvConfig::oram_config`], with its PLB
    /// warmed ([`PathOram::warm_plb`]) and the statistics zeroed.
    pub fn new(cfg: OramConfig, slots: u64) -> Self {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        assert!(
            slots <= cfg.data_blocks,
            "{slots} slots cannot fit {} ORAM data blocks",
            cfg.data_blocks
        );
        let rng = SimRng::seed_from(mix64(cfg.seed ^ 0x4B56_5249_4E47)); // "KVRING"
        let mut oram = PathOram::new(cfg);
        oram.warm_plb();
        KvShard {
            oram,
            slot_mask: slots - 1,
            overflow: BTreeMap::new(),
            rng,
            stats: KvStats::default(),
        }
    }

    /// Table slot count.
    pub fn slots(&self) -> u64 {
        self.slot_mask + 1
    }

    /// The [`PROBES`] candidate slots of `key`. Candidates may collide on
    /// small tables; collisions only shrink the key's effective choice
    /// set, they never break correctness.
    fn candidates(&self, key: u32) -> [u64; PROBES] {
        let mut out = [0u64; PROBES];
        for (slot, salt) in out.iter_mut().zip(PROBE_SALTS) {
            *slot = mix64(u64::from(key) ^ salt) & self.slot_mask;
        }
        out
    }

    /// Serves one batch of operations in order, returning one reply per
    /// op. All ORAM traffic goes through a single [`AccessBatch`], so the
    /// background-eviction drain is planned once for the whole batch.
    pub fn run_batch(&mut self, ops: &[KvOp]) -> Vec<Result<Option<u32>, KvError>> {
        self.run_batch_timed(ops, None).0
    }

    /// [`KvShard::run_batch`] with per-op latency sampling through an
    /// injected clock. The clocked and unclocked paths execute the exact
    /// same access sequence — the clock only brackets each op — so
    /// replies and stats are byte-identical either way.
    pub fn run_batch_timed(
        &mut self,
        ops: &[KvOp],
        clock: Option<Clock<'_>>,
    ) -> (Vec<Result<Option<u32>, KvError>>, Vec<u64>) {
        let mut out = Vec::with_capacity(ops.len());
        let mut lats = Vec::with_capacity(ops.len());
        let cands: Vec<[u64; PROBES]> = ops.iter().map(|op| self.candidates(op.key())).collect();
        let KvShard {
            oram,
            slot_mask,
            overflow,
            rng,
            stats,
        } = self;
        let mut batch = oram.batch();
        for (op, cand) in ops.iter().zip(&cands) {
            let t0 = clock.map_or(0, |c| c());
            out.push(exec_op(
                &mut batch, overflow, rng, stats, *slot_mask, *op, *cand,
            ));
            lats.push(clock.map_or(0, |c| c().saturating_sub(t0)));
        }
        batch.finish();
        stats.overflow_peak = stats.overflow_peak.max(overflow.len() as u64);
        (out, lats)
    }

    /// Serves a single operation (a batch of one).
    pub fn run_op(&mut self, op: KvOp) -> Result<Option<u32>, KvError> {
        self.run_batch(std::slice::from_ref(&op))
            .pop()
            .expect("one op in, one reply out")
    }

    /// This shard's deterministic report.
    pub fn report(&self, shard: usize) -> ShardReport {
        ShardReport {
            shard,
            slots: self.slots(),
            kv: self.stats.clone(),
            oram: self.oram.stats().clone(),
            stash_len: self.oram.stash_len(),
            stash_peak: self.oram.stash_peak(),
            overflow_len: self.overflow.len(),
        }
    }

    /// The underlying ORAM (for invariant checks in tests).
    pub fn oram(&self) -> &PathOram {
        &self.oram
    }

    /// Dumps every stored (key, value) pair — table slots in slot order,
    /// then overflow entries in key order. Reads the table through the
    /// ORAM, so this mutates protocol state; capture reports first.
    pub fn dump(&mut self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for slot in 0..=self.slot_mask {
            let entry = self.oram.read(slot);
            if key_of(entry) != 0 {
                out.push((key_of(entry), value_of(entry)));
            }
        }
        out.extend(self.overflow.iter().map(|(&k, &v)| (k, v)));
        out
    }
}

/// Executes one operation against a shard's open access batch.
///
/// Access sequence (identical for put/get/delete, hit or miss):
/// [`PROBES`] probe reads, then exactly one write-phase access. Only a
/// put that finds every candidate occupied by other keys extends this
/// with displacement rounds.
fn exec_op(
    batch: &mut AccessBatch<'_>,
    overflow: &mut BTreeMap<u32, u32>,
    rng: &mut SimRng,
    stats: &mut KvStats,
    slot_mask: u64,
    op: KvOp,
    cands: [u64; PROBES],
) -> Result<Option<u32>, KvError> {
    let key = op.key();
    if key == 0 {
        return Err(KvError::ZeroKey);
    }

    // Probe phase: PROBES reads, unconditionally.
    let mut entries = [0u64; PROBES];
    for (entry, &slot) in entries.iter_mut().zip(&cands) {
        *entry = batch.access(BlockAddr(slot), None).payload;
    }
    // The decisions below branch on probed payloads: that is the KV
    // client's own plaintext working state (the trusted side of the
    // boundary). Every arm but displacement issues one write-phase
    // access; displacement adds 0–MAX_KICKS relocation rounds, a leak
    // DESIGN.md § "Service layer" names and ROADMAP item 4 removes. The
    // shard's `every_op_costs_the_accesses_its_arm_and_kicks_dictate` test
    // pins each op's access count to its arm and kick count.
    let found = entries.iter().position(|&e| key_of(e) == key);
    let empty = entries.iter().position(|&e| e == 0);
    let in_overflow = overflow.contains_key(&key);

    match op {
        KvOp::Get { .. } => {
            stats.gets += 1;
            let value = match found {
                Some(i) => Some(value_of(entries[i])),
                None => overflow.get(&key).copied(),
            };
            tally_hit(stats, value.is_some());
            refresh(batch, cands[0]);
            Ok(value)
        }
        KvOp::Delete { .. } => {
            stats.deletes += 1;
            match found {
                Some(i) => {
                    tally_hit(stats, true);
                    batch.access(BlockAddr(cands[i]), Some(0));
                    Ok(Some(value_of(entries[i])))
                }
                None => {
                    let prev = overflow.remove(&key);
                    tally_hit(stats, prev.is_some());
                    refresh(batch, cands[0]);
                    Ok(prev)
                }
            }
        }
        KvOp::Put { value, .. } => {
            stats.puts += 1;
            match (found, in_overflow, empty) {
                // Update in place.
                (Some(i), _, _) => {
                    tally_hit(stats, true);
                    batch.access(BlockAddr(cands[i]), Some(pack(key, value)));
                    Ok(Some(value_of(entries[i])))
                }
                // Key parked in overflow and a table slot opened up: drain
                // it back into the table.
                (None, true, Some(e)) => {
                    tally_hit(stats, true);
                    let prev = overflow.remove(&key);
                    batch.access(BlockAddr(cands[e]), Some(pack(key, value)));
                    Ok(prev)
                }
                // Key parked in overflow, table still full: update there.
                (None, true, None) => {
                    tally_hit(stats, true);
                    let prev = overflow.insert(key, value);
                    refresh(batch, cands[0]);
                    Ok(prev)
                }
                // Fresh insert into an empty candidate.
                (None, false, Some(e)) => {
                    tally_hit(stats, false);
                    batch.access(BlockAddr(cands[e]), Some(pack(key, value)));
                    Ok(None)
                }
                // All candidates occupied by other keys: displace one.
                (None, false, None) => {
                    tally_hit(stats, false);
                    if overflow.len() >= OVERFLOW_CAPACITY {
                        // Refusing *before* displacing keeps the chain
                        // lossless: a kicked-out entry always has a
                        // guaranteed overflow slot to land in.
                        stats.store_full += 1;
                        refresh(batch, cands[0]);
                        return Err(KvError::StoreFull);
                    }
                    let j = rng.next_below(PROBES as u64) as usize;
                    let carry = entries[j];
                    let mut from = cands[j];
                    batch.access(BlockAddr(from), Some(pack(key, value)));
                    relocate(batch, overflow, rng, stats, slot_mask, carry, &mut from);
                    Ok(None)
                }
            }
        }
    }
}

/// Cuckoo relocation: re-home the displaced packed entry `carry`, kicked
/// out of slot `from`, displacing further victims for at most
/// [`MAX_KICKS`] rounds before parking the last one in the overflow stash
/// (capacity was checked by the caller, so the park cannot fail).
fn relocate(
    batch: &mut AccessBatch<'_>,
    overflow: &mut BTreeMap<u32, u32>,
    rng: &mut SimRng,
    stats: &mut KvStats,
    slot_mask: u64,
    mut carry: u64,
    from: &mut u64,
) {
    for _ in 0..MAX_KICKS {
        stats.kicks += 1;
        let ckey = key_of(carry);
        let mut cands = [0u64; PROBES];
        for (slot, salt) in cands.iter_mut().zip(PROBE_SALTS) {
            *slot = mix64(u64::from(ckey) ^ salt) & slot_mask;
        }
        let mut entries = [0u64; PROBES];
        for (entry, &slot) in entries.iter_mut().zip(&cands) {
            *entry = batch.access(BlockAddr(slot), None).payload;
        }
        if let Some(e) = entries.iter().position(|&e| e == 0) {
            batch.access(BlockAddr(cands[e]), Some(carry));
            return;
        }
        // Never kick the entry we just wrote back out: exclude `from`.
        let choices: Vec<usize> = (0..PROBES).filter(|&i| cands[i] != *from).collect();
        if choices.is_empty() {
            // Pathological: every candidate of the carried key is the slot
            // it came from. Park it instead of cycling.
            break;
        }
        let j = choices[rng.next_below(choices.len() as u64) as usize];
        let victim = entries[j];
        batch.access(BlockAddr(cands[j]), Some(carry));
        carry = victim;
        *from = cands[j];
    }
    stats.overflow_parked += 1;
    let prev = overflow.insert(key_of(carry), value_of(carry));
    debug_assert!(
        prev.is_none(),
        "displaced key cannot already be in overflow"
    );
}

/// The identity write-phase access: remaps and re-encrypts `slot` exactly
/// like a real write, making no-write operations indistinguishable from
/// writes on the server.
fn refresh(batch: &mut AccessBatch<'_>, slot: u64) {
    batch.access_with(BlockAddr(slot), |cur| cur);
}

fn tally_hit(stats: &mut KvStats, hit: bool) {
    if hit {
        stats.hits += 1;
    } else {
        stats.misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvConfig;

    fn shard() -> KvShard {
        let cfg = KvConfig::for_keys(256, 1);
        KvShard::new(cfg.oram_config(0), cfg.slots_per_shard)
    }

    #[test]
    fn packing_roundtrips_and_zero_is_empty() {
        for (k, v) in [(1u32, 0u32), (1, u32::MAX), (u32::MAX, 0), (7, 42)] {
            let e = pack(k, v);
            assert_ne!(e, 0, "nonzero key must never pack to the empty marker");
            assert_eq!(key_of(e), k);
            assert_eq!(value_of(e), v);
        }
        assert_eq!(key_of(0), 0, "the empty slot parses as key 0");
    }

    #[test]
    fn value_zero_is_distinct_from_absent() {
        let mut s = shard();
        assert_eq!(s.run_op(KvOp::Put { key: 5, value: 0 }), Ok(None));
        assert_eq!(s.run_op(KvOp::Get { key: 5 }), Ok(Some(0)));
        assert_eq!(s.run_op(KvOp::Delete { key: 5 }), Ok(Some(0)));
        assert_eq!(s.run_op(KvOp::Get { key: 5 }), Ok(None));
    }

    #[test]
    fn zero_key_is_rejected_for_every_op() {
        let mut s = shard();
        assert_eq!(
            s.run_op(KvOp::Put { key: 0, value: 1 }),
            Err(KvError::ZeroKey)
        );
        assert_eq!(s.run_op(KvOp::Get { key: 0 }), Err(KvError::ZeroKey));
        assert_eq!(s.run_op(KvOp::Delete { key: 0 }), Err(KvError::ZeroKey));
    }

    #[test]
    fn put_get_delete_basic() {
        let mut s = shard();
        assert_eq!(s.run_op(KvOp::Get { key: 9 }), Ok(None));
        assert_eq!(s.run_op(KvOp::Put { key: 9, value: 81 }), Ok(None));
        assert_eq!(s.run_op(KvOp::Put { key: 9, value: 82 }), Ok(Some(81)));
        assert_eq!(s.run_op(KvOp::Get { key: 9 }), Ok(Some(82)));
        assert_eq!(s.run_op(KvOp::Delete { key: 9 }), Ok(Some(82)));
        assert_eq!(s.run_op(KvOp::Delete { key: 9 }), Ok(None));
        s.oram().check_invariants().expect("ORAM sound");
    }

    #[test]
    fn every_base_op_costs_exactly_probes_plus_one_accesses() {
        let mut s = shard();
        // Ops that cannot trigger displacement on an empty table.
        let script = [
            KvOp::Get { key: 11 },           // miss
            KvOp::Put { key: 11, value: 1 }, // fresh insert
            KvOp::Get { key: 11 },           // hit
            KvOp::Put { key: 11, value: 2 }, // update
            KvOp::Delete { key: 11 },        // hit delete
            KvOp::Delete { key: 11 },        // miss delete
        ];
        for op in script {
            let before = s.oram().stats().accesses;
            s.run_op(op).unwrap();
            let cost = s.oram().stats().accesses - before;
            assert_eq!(
                cost,
                PROBES as u64 + 1,
                "{op:?} must cost exactly {} accesses, got {cost}",
                PROBES + 1
            );
        }
    }

    /// A deliberately tiny 64-slot table inside a tiny ORAM, so collision
    /// paths (displacement, overflow, StoreFull) actually trigger.
    fn tiny_shard() -> KvShard {
        KvShard::new(OramConfig::tiny(), 64)
    }

    #[test]
    fn displacement_keeps_every_entry_reachable() {
        // Overfill a tiny table far beyond what pure probing can place:
        // displacement plus the overflow stash must keep every surviving
        // put readable, and nothing may be silently lost.
        let mut s = tiny_shard();
        let mut stored = Vec::new();
        let mut full = 0u32;
        for k in 1..=200u32 {
            match s.run_op(KvOp::Put {
                key: k,
                value: k * 3,
            }) {
                Ok(_) => stored.push(k),
                Err(KvError::StoreFull) => full += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(full > 0, "200 puts into 64 slots must eventually refuse");
        for &k in &stored {
            assert_eq!(s.run_op(KvOp::Get { key: k }), Ok(Some(k * 3)), "key {k}");
        }
        let report = s.report(0);
        assert!(report.kv.kicks > 0, "displacement must have triggered");
        assert!(
            report.kv.overflow_peak as usize <= OVERFLOW_CAPACITY,
            "overflow stash bounded"
        );
        s.oram().check_invariants().expect("ORAM sound");
    }

    #[test]
    fn overflow_drains_back_into_the_table() {
        let mut s = tiny_shard();
        for k in 1..=200u32 {
            let _ = s.run_op(KvOp::Put { key: k, value: k });
        }
        let parked = s.report(0).overflow_len;
        assert!(parked > 0, "overfill must have parked entries");
        // Deleting table entries opens candidate slots; re-putting a
        // parked key must then move it back into the table.
        for k in 1..=100u32 {
            let _ = s.run_op(KvOp::Delete { key: k });
        }
        let parked_keys: Vec<u32> = s.overflow.keys().copied().collect();
        for k in parked_keys {
            let prev = s
                .run_op(KvOp::Put {
                    key: k,
                    value: k + 1,
                })
                .unwrap();
            assert!(prev.is_some(), "parked key {k} must still be present");
        }
        assert!(
            s.report(0).overflow_len <= parked,
            "re-puts must not grow overflow"
        );
    }

    #[test]
    fn dump_reflects_contents() {
        let mut s = shard();
        for k in [3u32, 1, 7] {
            s.run_op(KvOp::Put {
                key: k,
                value: k * 10,
            })
            .unwrap();
        }
        let mut d = s.dump();
        d.sort_unstable();
        assert_eq!(d, vec![(1, 10), (3, 30), (7, 70)]);
    }

    /// A fixed op stream over the tiny table: 240 keys, so it collides,
    /// displaces, overflows and refuses; plus key 2265, whose three
    /// candidates are one slot of the 64. Values come from `value`.
    fn op_stream(value: impl Fn(u64) -> u32) -> Vec<KvOp> {
        let mut rng = SimRng::seed_from(41);
        (0..900u64)
            .map(|i| {
                let key = match rng.next_below(40) {
                    0 => 2265,
                    _ => 1 + rng.next_below(240) as u32,
                };
                match rng.next_below(4) {
                    0 => KvOp::Get { key },
                    1 => KvOp::Delete { key },
                    _ => KvOp::Put {
                        key,
                        value: value(i),
                    },
                }
            })
            .collect()
    }

    /// The ORAM's memory-facing state after an op: the counters, every
    /// block's PosMap leaf, and each block's place and leaf in the stash,
    /// tree top, tree and escrow — everything but the payloads. The shard
    /// keeps its path records to itself, so this stands in for the leaf
    /// sequence: a path more or fewer, or one to another leaf, changes a
    /// counter, the random draws behind every later remap, or where
    /// blocks sit.
    fn server_view(oram: &PathOram) -> (ProtocolStats, Vec<u64>) {
        let pm = oram.posmap();
        let mut v: Vec<u64> = (0..pm.space().total_blocks())
            .map(|a| pm.leaf_of(BlockAddr(a)).map_or(u64::MAX, |l| l.0))
            .collect();
        v.extend(oram.stash().iter().flat_map(|b| [b.addr.0, b.leaf.0]));
        if let Some(top) = oram.treetop_store() {
            for level in 0..top.cached_levels() {
                for bucket in 0..1u64 << level {
                    let held = top.peek_bucket(level, bucket);
                    v.extend(held.iter().flat_map(|b| [b.addr.0, b.leaf.0]));
                }
            }
        }
        for (level, bucket, b) in oram.tree().iter_blocks() {
            v.extend([level as u64, bucket, b.addr.0, b.leaf.0]);
        }
        v.extend(oram.escrowed().map(|a| a.0));
        (oram.stats().clone(), v)
    }

    /// The KV counterpart of the protocol's payload-independence test: one
    /// key stream, stored once with all-zero values and once with odd
    /// pseudo-random ones, in batches of one to four ops, must leave the
    /// ORAM's memory-facing state identical after every batch. Catches any
    /// branch on a stored value that reaches an ORAM access. The shard
    /// also takes no path of its own: it asks for no dummy path, and the
    /// second shard's stash is too roomy ever to overflow, so a background
    /// eviction there would be a stray path.
    #[test]
    fn server_view_is_payload_independent() {
        let roomy = OramConfig {
            stash_capacity: 1 << 12,
            ..OramConfig::tiny()
        };
        for cfg in [OramConfig::tiny(), roomy] {
            let run = |value: fn(u64) -> u32| {
                let ops = op_stream(value);
                let mut s = KvShard::new(cfg.clone(), 64);
                let mut sizes = SimRng::seed_from(7);
                let mut views = Vec::new();
                let mut rest = &ops[..];
                while !rest.is_empty() {
                    let n = (1 + sizes.next_below(4) as usize).min(rest.len());
                    s.run_batch(&rest[..n]);
                    let st = s.oram.stats();
                    assert_eq!(st.dummy_paths, 0, "a stray dummy path");
                    if s.oram.stash_peak() <= cfg.stash_capacity {
                        assert_eq!(st.bg_evict_paths, 0, "an eviction with room");
                    }
                    views.push(server_view(&s.oram));
                    rest = &rest[n..];
                }
                views
            };
            let zeros = run(|_| 0);
            let odd = run(|i| mix64(i) as u32 | 1);
            assert_eq!(zeros.len(), odd.len());
            for (i, (z, o)) in zeros.iter().zip(&odd).enumerate() {
                assert!(
                    z == o,
                    "batch {i}: the ORAM's view depends on the stored values"
                );
            }
        }
    }

    /// Each op issues exactly the ORAM accesses its cuckoo arm and kick
    /// count dictate — [`PROBES`] reads plus one write-phase access, and
    /// as many again per relocation round, less the write of a round that
    /// carried a key whose candidates are all one slot (it parks after the
    /// reads) — however full the stash is. Stray dummy paths between ops
    /// vary the stash; the accesses are counted by the ORAM. (A degenerate
    /// key parked as the last victim of a full `MAX_KICKS` chain would
    /// read as a broken round too; this stream parks none that way.)
    #[test]
    fn every_op_costs_the_accesses_its_arm_and_kicks_dictate() {
        let mut s = tiny_shard();
        let mut noise = SimRng::seed_from(5);
        let (mut kicked, mut broke) = (0, 0);
        for op in op_stream(|i| i as u32) {
            for _ in 0..noise.next_below(3) {
                s.oram.dummy_path();
            }
            let accesses = s.oram.stats().accesses;
            let kicks = s.stats.kicks;
            let parked: Vec<u32> = s.overflow.keys().copied().collect();
            let _ = s.run_op(op);
            let kicks = s.stats.kicks - kicks;
            let degenerate_park = s
                .overflow
                .keys()
                .filter(|k| !parked.contains(k))
                .any(|&k| s.candidates(k).iter().all(|&c| c == s.candidates(k)[0]));
            let expect = (PROBES as u64 + 1) * (1 + kicks) - u64::from(degenerate_park);
            assert_eq!(
                s.oram.stats().accesses - accesses,
                expect,
                "{op:?} ({kicks} kicks, degenerate park {degenerate_park})"
            );
            kicked += u64::from(kicks > 0);
            broke += u64::from(degenerate_park);
        }
        assert!(
            kicked > 0 && broke > 0,
            "{kicked} displacing ops, {broke} broken rounds"
        );
        assert!(s.stats.store_full > 0, "the stream must fill the table");
    }

    #[test]
    fn shard_directory_is_stable_and_total() {
        for key in 1..2000u32 {
            let s = shard_of(key, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(key, 4), "stable");
        }
    }
}
