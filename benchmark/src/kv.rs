//! The KV workloads: a closed loop of batched clients and an open loop at a
//! fixed rate, against the sharded oblivious KV service. Every reply is
//! checked against a model kept by the benchmark.

use std::collections::BTreeMap;
use std::time::Instant;

use iroram_bench::hist::Histogram;
use iroram_hash::mix64;
use iroram_kv::{Clock, FlushOutcome, KvConfig, KvError, KvOp, KvService, ShardReport, PROBES};

use crate::gen::{all_keys, KeyDist, OpGen};
use crate::host::Paired;
use crate::report::{pct_of, pct_over, Outcome};
use crate::stats::{median, percentile, tail_summary, time_setups};
use crate::trace::SpanStore;

/// Operations a closed-loop client submits before waiting for the replies.
const WINDOW: usize = 1_024;

/// Closed-loop service time timed as one piece, seconds: whole windows
/// until at least this long, then a run of the reference kernel.
const SLICE_S: f64 = 0.2;

/// Length of one round of the two loops: 80% closed loop, 20% open loop.
/// Rounds repeat for the whole measurement, so each loop samples the
/// host's slow and fast spells alike.
const ROUND_S: f64 = 2.0;

/// Most operations the open loop hands to one flush; bounds the queues
/// when the service falls behind.
const MAX_OPEN_BATCH: usize = 4_096;

/// What one KV workload runs.
#[derive(Debug, Clone)]
pub struct KvShape {
    keys: u64,
    shards: usize,
    dist: KeyDist,
    /// Open-loop arrival rate, ops/s: about a quarter of the closed-loop
    /// capacity. Most operations then find the service idle, and stay so
    /// when the host runs a third slower. Near half the capacity, a slower
    /// spell tips the median operation into waiting behind another batch
    /// and raises the median latency by up to a half.
    open_rate: f64,
}

impl KvShape {
    /// 8,192 keys over 4 shards, Zipf(0.99) keys.
    pub fn small_zipf() -> Self {
        KvShape {
            keys: 8_192,
            shards: 4,
            dist: KeyDist::Zipf(0.99),
            open_rate: 30_000.0,
        }
    }

    /// 131,072 keys in one shard, uniform keys.
    pub fn large_uniform() -> Self {
        KvShape {
            keys: 131_072,
            shards: 1,
            dist: KeyDist::Uniform,
            open_rate: 10_000.0,
        }
    }

    /// The same shape over 512 keys and short phases: the smoke-test size.
    pub fn smoke(self) -> Self {
        KvShape {
            keys: 512,
            open_rate: 2_000.0,
            ..self
        }
    }
}

/// The benchmark's model of the store, and the failure tally.
struct Model {
    map: BTreeMap<u32, u32>,
    attempted: u64,
    failed: u64,
}

impl Model {
    /// Checks one reply against the model, applying the op when the
    /// service accepted it.
    fn check(&mut self, op: KvOp, reply: &Result<Option<u32>, KvError>) {
        self.attempted += 1;
        let ok = match (op, reply) {
            (_, Err(_)) => false,
            (KvOp::Get { key }, Ok(v)) => *v == self.map.get(&key).copied(),
            (KvOp::Put { key, value }, Ok(v)) => *v == self.map.insert(key, value),
            (KvOp::Delete { key }, Ok(v)) => *v == self.map.remove(&key),
        };
        if !ok {
            self.failed += 1;
        }
    }
}

/// Timing of one measured phase (rounds of the two loops).
struct Phase {
    /// Closed-loop slices: operations and service time, with the reference
    /// kernel's time after each.
    slices: Paired,
    /// Closed-loop windows served.
    windows: u64,
    /// Open-loop latency from due time to the return of the flush that
    /// carried the reply, ns.
    open: Histogram,
    /// How late the generator submitted each open-loop op, ns.
    late: Histogram,
    /// Service-side per-op latency from the injected clock (traced only).
    service: Histogram,
    /// Operations routed to each shard.
    shard_ops: Vec<u64>,
    /// Σ shard busy time (traced only), ns.
    busy_ns: u64,
    /// Operations submitted.
    ops: u64,
}

impl Phase {
    fn new(shards: usize) -> Self {
        Phase {
            slices: Paired::default(),
            windows: 0,
            open: Histogram::new(),
            late: Histogram::new(),
            service: Histogram::new(),
            shard_ops: vec![0; shards],
            busy_ns: 0,
            ops: 0,
        }
    }

    /// Median closed-loop ops/s of a slice, scaled to a quiet host.
    fn ops_per_s(&self) -> f64 {
        median(&self.slices.scaled_rates())
    }
}

/// Runs one KV workload: set-up (service build plus loading every key),
/// then an untraced measurement of `seconds`; with `trace`, an untraced
/// and a traced one of half as long each.
pub fn run(
    workload: &'static str,
    shape: &KvShape,
    seed: u64,
    seconds: f64,
    trace: Option<&mut SpanStore>,
) -> Outcome {
    let mut out = Outcome::new(workload);
    let mut cfg = KvConfig::for_keys(shape.keys, shape.shards);
    cfg.seed = seed;
    // Serve the shards serially. On a two-core host shared with other
    // machines, a flush fanned out to two threads waits for the second
    // core to wake: that wait (50-90 us per flush) varied by a third from
    // run to run, more than any bound this benchmark could hold.
    cfg.workers = 1;
    let mut load_order = all_keys(shape.keys);
    iroram_sim_engine::SimRng::seed_from(mix64(seed ^ 0x4C4F_4144)).shuffle(&mut load_order);
    let value_of = |key: u32| mix64(u64::from(key) ^ seed) as u32;

    let mut model = Model {
        map: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    // Set-up: build the service and load every key, checking each reply;
    // twice or more before the measurement and once or more after, for at
    // least a second and half a second, so one slow spell of the host
    // cannot move the median.
    let setup = |model: &mut Model| {
        model.map.clear();
        let mut load = Phase::new(shape.shards);
        let mut service = KvService::new(cfg.clone());
        for chunk in load_order.chunks(16_384) {
            let ops: Vec<KvOp> = chunk
                .iter()
                .map(|&key| KvOp::Put {
                    key,
                    value: value_of(key),
                })
                .collect();
            serve(
                &mut service,
                &ops,
                None,
                &mut SpanStore::disabled(),
                &mut load,
                model,
            );
        }
        service
    };
    let (mut setup_times, mut kv) = time_setups(2, 1.0, || setup(&mut model));

    let mut gen = OpGen::new(shape.keys, shape.dist, mix64(seed ^ 0x4F50_5347_454E));
    let seconds = if trace.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let before = kv.reports();
    let plb_before = plb(&kv);
    let phase = measure(
        &mut kv,
        &mut gen,
        &mut model,
        shape,
        seconds,
        &mut SpanStore::disabled(),
        None,
    );
    let after = kv.reports();
    let plb_after = plb(&kv);

    let ops_per_s = phase.ops_per_s();
    out.set("ops_per_s", ops_per_s);
    let unscaled = phase.slices.rates();
    out.set("bench.unscaled_ops_per_s", median(&unscaled));
    out.set("bench.host_slowdown", median(&phase.slices.slowdowns()));
    out.set("bench.closed_windows", phase.windows as f64);
    out.notes.push(format!(
        "bench.closed_slices {} unscaled ops/s min {} max {}",
        phase.slices.len(),
        percentile(&unscaled, 0.0),
        percentile(&unscaled, 1.0)
    ));
    out.set("bench.open_samples", phase.open.count() as f64);
    out.notes.push(format!(
        "bench.open_tail p50={:.1}us, {} at {} ops/s",
        phase.open.value_at(0.5) as f64 * 1e-3,
        tail_summary(&phase.open, 1e-3, "us"),
        shape.open_rate
    ));
    out.notes.push(format!(
        "bench.gen_late {}",
        tail_summary(&phase.late, 1e-3, "us")
    ));
    counts(&mut out, &before, &after, plb_before, plb_after, &phase);

    if let Some(store) = trace {
        let clock_epoch = Instant::now();
        let clock = move || nanos(clock_epoch.elapsed());
        let traced = measure(
            &mut kv,
            &mut gen,
            &mut model,
            shape,
            seconds,
            store,
            Some(&clock),
        );
        let submit_s = store.seconds("submit");
        let flush_s = store.seconds("flush");
        let busy_s = traced.busy_ns as f64 / 1e9;
        let service_s = submit_s + flush_s;
        out.set("kv.submit_ns_per_op", submit_s * 1e9 / traced.ops as f64);
        out.set("kv.flush_s", flush_s);
        out.set("kv.shard_busy_s", busy_s);
        out.set("kv.flush_overhead_s", flush_s - busy_s);
        out.set("kv.submit_pct", pct_of(submit_s, service_s));
        out.set("kv.shard_busy_pct", pct_of(busy_s, service_s));
        out.set("kv.flush_overhead_pct", pct_of(flush_s - busy_s, service_s));
        out.notes.push(format!(
            "kv.service_latency {}",
            tail_summary(&traced.service, 1.0, "ns")
        ));
        let overhead = pct_over(ops_per_s, traced.ops_per_s());
        out.set("bench.trace_overhead_pct", overhead);
        out.notes
            .push(format!("bench.trace_overhead_pct.ops_per_s {overhead} %"));
    }

    // Every op costs PROBES reads and one write-phase access, and each
    // cuckoo relocation round costs the same again: the server-visible
    // shape is independent of the keys and the outcome.
    let reports = kv.reports();
    let accesses: u64 = reports.iter().map(|r| r.oram.accesses).sum();
    let rounds: u64 = reports
        .iter()
        .map(|r| r.kv.puts + r.kv.gets + r.kv.deletes + r.kv.kicks)
        .sum();
    out.check(
        "uniform access shape",
        accesses == (PROBES as u64 + 1) * rounds,
    );
    out.check(
        "closed and open loops ran",
        phase.slices.len() > 0 && phase.open.count() > 0,
    );

    drop(kv);
    setup_times.extend(time_setups(1, 0.5, || setup(&mut model)).0);
    out.set("setup_s", median(&setup_times.scaled_secs()));
    out.set("bench.unscaled_setup_s", median(setup_times.secs()));
    out.attempted = model.attempted;
    out.failed = model.failed;
    out
}

/// Matches replies (in submission order) to `ops`, skipping the refused
/// submissions, which count as failed.
fn check_replies(ops: &[KvOp], refused: &[usize], outcome: &FlushOutcome, model: &mut Model) {
    let mut replies = outcome.replies.iter();
    for (i, &op) in ops.iter().enumerate() {
        if refused.contains(&i) {
            model.check(op, &Err(KvError::QueueFull));
        } else {
            let reply = replies.next().map_or(Err(KvError::QueueFull), |r| r.reply);
            model.check(op, &reply);
        }
    }
}

/// Rounds of [`ROUND_S`] (or `seconds`, if shorter) until `seconds` have
/// passed, each running the two loops in turn, each loop at least once:
///
/// - a closed loop of [`WINDOW`]-operation batches, each submitted after
///   the previous one's replies, timed in slices of [`SLICE_S`];
/// - an open loop at the shape's rate, each operation timed from when it
///   was due.
///
/// Spans: workload → closed-loop / open-loop → submit, flush.
fn measure(
    kv: &mut KvService,
    gen: &mut OpGen,
    model: &mut Model,
    shape: &KvShape,
    seconds: f64,
    store: &mut SpanStore,
    clock: Option<Clock<'_>>,
) -> Phase {
    let mut phase = Phase::new(shape.shards);
    let round = ROUND_S.min(seconds);
    let slice = SLICE_S.min(0.8 * round);
    let start = Instant::now();
    store.enter("workload");
    loop {
        store.enter("closed-loop");
        let t = Instant::now();
        loop {
            let (mut ops_done, mut took) = (0, 0.0);
            while took < slice {
                let ops: Vec<KvOp> = (0..WINDOW).map(|_| gen.next_op()).collect();
                let t0 = Instant::now();
                let done = serve(kv, &ops, clock, store, &mut phase, model);
                took += done.duration_since(t0).as_secs_f64();
                ops_done += WINDOW;
                phase.windows += 1;
            }
            phase.slices.push(ops_done as f64, took);
            if t.elapsed().as_secs_f64() >= 0.8 * round {
                break;
            }
        }
        store.exit();

        store.enter("open-loop");
        let epoch = Instant::now();
        let now_ns = || nanos(epoch.elapsed());
        let end_ns = (0.2 * round * 1e9) as u64;
        let period_ns = 1e9 / shape.open_rate;
        let due = |i: u64| (i as f64 * period_ns) as u64;
        let mut next = 0u64;
        while due(next) < end_ns {
            let now = now_ns();
            if due(next) > now {
                std::hint::spin_loop();
                continue;
            }
            let mut ops = Vec::new();
            let mut dues = Vec::new();
            while due(next) <= now && due(next) < end_ns && ops.len() < MAX_OPEN_BATCH {
                phase.late.record(now - due(next));
                dues.push(due(next));
                ops.push(gen.next_op());
                next += 1;
            }
            let done = nanos(serve(kv, &ops, clock, store, &mut phase, model) - epoch);
            for d in dues {
                phase.open.record(done - d);
            }
        }
        store.exit();

        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    store.exit();
    phase
}

/// `d` in whole nanoseconds, saturating.
fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Submits and flushes one batch inside `submit` and `flush` spans, and
/// accumulates the phase's routing and (with a clock) service timing.
/// Returns when the flush returned; then checks every reply against the
/// model.
fn serve(
    kv: &mut KvService,
    ops: &[KvOp],
    clock: Option<Clock<'_>>,
    store: &mut SpanStore,
    phase: &mut Phase,
    model: &mut Model,
) -> Instant {
    store.enter("submit");
    let mut refused = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        if kv.submit(op).is_err() {
            refused.push(i);
        }
    }
    store.exit();
    store.enter("flush");
    let outcome = kv.flush_with_clock(clock);
    store.exit();
    let done = Instant::now();
    phase.ops += ops.len() as u64;
    for (acc, n) in phase.shard_ops.iter_mut().zip(&outcome.shard_ops) {
        *acc += n;
    }
    if clock.is_some() {
        phase.busy_ns += outcome.shard_busy.iter().sum::<u64>();
        for &lat in &outcome.latencies {
            phase.service.record(lat);
        }
    }
    check_replies(ops, &refused, &outcome, model);
    done
}

/// Σ PLB `(hits, misses)` over the shards.
fn plb(kv: &KvService) -> (u64, u64) {
    kv.shards().iter().fold((0, 0), |(h, m), s| {
        let (sh, sm) = s.oram().plb_counters();
        (h + sh, m + sm)
    })
}

/// Per-layer counts over the untraced phase, from the shard reports taken
/// before and after it.
fn counts(
    out: &mut Outcome,
    before: &[ShardReport],
    after: &[ShardReport],
    plb_before: (u64, u64),
    plb_after: (u64, u64),
    phase: &Phase,
) {
    let delta = |f: &dyn Fn(&ShardReport) -> u64| {
        after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()
    };
    let ops = delta(&|r| r.kv.puts + r.kv.gets + r.kv.deletes) as f64;
    let per_op = |n: u64| n as f64 / ops;
    out.set("paths_per_op", per_op(delta(&|r| r.oram.total_paths())));
    out.set(
        "oram-protocol.pt_p_paths_per_op",
        per_op(delta(&|r| r.oram.posmap_paths())),
    );
    out.set(
        "oram-protocol.pt_d_paths_per_op",
        per_op(delta(&|r| r.oram.data_paths)),
    );
    out.set(
        "oram-protocol.pt_m_paths_per_op",
        per_op(delta(&|r| r.oram.dummy_paths)),
    );
    out.set(
        "oram-protocol.bg_paths_per_op",
        per_op(delta(&|r| r.oram.bg_evict_paths)),
    );
    let peak = after.iter().map(|r| r.stash_peak).max().unwrap_or(0);
    out.set("oram-protocol.stash_peak", peak as f64);
    let (hits, misses) = (plb_after.0 - plb_before.0, plb_after.1 - plb_before.1);
    out.set(
        "oram-protocol.plb_hit_ratio",
        hits as f64 / (hits + misses) as f64,
    );
    out.set(
        "kv.kicks_per_put",
        delta(&|r| r.kv.kicks) as f64 / delta(&|r| r.kv.puts) as f64,
    );
    let overflow = after.iter().map(|r| r.kv.overflow_peak).max().unwrap_or(0);
    out.set("kv.overflow_peak", overflow as f64);
    let (h, m) = (delta(&|r| r.kv.hits), delta(&|r| r.kv.misses));
    out.set("kv.hit_ratio", h as f64 / (h + m) as f64);
    let shard_ops: Vec<f64> = phase.shard_ops.iter().map(|&n| n as f64).collect();
    let mean = shard_ops.iter().sum::<f64>() / shard_ops.len() as f64;
    out.set("kv.shard_imbalance", percentile(&shard_ops, 1.0) / mean);
}
