//! `iroram-kv`: a sharded oblivious key–value serving layer over the
//! functional Path ORAM (`iroram-protocol`).
//!
//! This is the paper's motivating scenario made concrete: an application on
//! an untrusted server whose *access pattern* must not leak. The layer
//! stacks three mechanisms (see `DESIGN.md` § "Service layer"):
//!
//! 1. **Shard directory** — keys hash via [`iroram_hash::mix64`] to one of
//!    S independent [`iroram_protocol::PathOram`] instances. Shallower
//!    per-shard trees mean fewer memory levels per path, and independent
//!    shards serve concurrently.
//! 2. **Bounded cuckoo-style slotting** — each key owns [`store::PROBES`]
//!    candidate slots inside its shard. Every `get`/`put`/`delete` costs
//!    the same fixed number of ORAM accesses (the probe reads plus one
//!    write-phase access), so hits, misses, inserts and deletes are
//!    indistinguishable; a colliding insert displaces a victim for at most
//!    [`store::MAX_KICKS`] relocation rounds before parking in a bounded
//!    client-side overflow stash.
//! 3. **Batched submission + scoped workers** — operations queue per shard
//!    (bounded queues) and are served in batches through the protocol's
//!    [`iroram_protocol::AccessBatch`] API by one scoped worker per shard
//!    chunk; replies merge by submission sequence number, so a fixed seed
//!    produces byte-identical replies and per-shard reports at *any*
//!    worker count (the serial path is the reference twin).
//!
//! All randomness flows through [`iroram_sim_engine::SimRng`]; the crate is
//! covered by the workspace determinism and thread-order lints, and its
//! server view by the shard's payload-independence and access-count tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod store;

pub use service::{FlushOutcome, KvConfig, KvResult, KvService};
pub use store::{
    shard_of, Clock, KvError, KvOp, KvShard, KvStats, ShardReport, MAX_KICKS, OVERFLOW_CAPACITY,
    PROBES,
};
