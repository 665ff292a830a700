//! Resume journal: a per-cell append-only JSONL store of finished results.
//!
//! Long sweeps die — OOM killers, pre-empted CI runners, a fault-injection
//! campaign tripping a real bug. The journal lets a re-run skip every cell
//! that already finished: each completed cell appends one line keyed by a
//! *fingerprint* of everything that determines its result (the full system
//! config, the benchmark, and the run length). On `--resume`, cells whose
//! fingerprint is already present are answered from the journal, so an
//! interrupted-then-resumed sweep produces byte-identical output to an
//! uninterrupted one.
//!
//! The workspace has no serialization dependency, so the codec here is
//! hand-rolled: a tiny JSON writer and a recursive-descent reader covering
//! exactly the subset
//! [`ir_oram::SimReport`] needs (objects, arrays, unsigned integers,
//! escaped strings, `null`). Unknown object keys are ignored on read and
//! malformed lines are skipped, so journals survive schema drift and torn
//! final writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ir_oram::{FaultStats, RunLimit, Scheme, SimReport, StashPressure, SystemConfig, ALL_SCHEMES};
use iroram_trace::Bench;

/// Fingerprints one simulation cell: every input that determines its
/// report, hashed with FNV-1a over a field-by-field rendering.
///
/// The config is destructured **exhaustively** (no `..`): adding a field
/// to [`SystemConfig`] without extending this key is a compile error, and
/// a field bound here but left out of the key is an unused variable.
/// `tests/config_fingerprint.rs` checks behaviorally that mutating any
/// single field changes the fingerprint. Structured fields (`oram`, `hierarchy`, `dram`,
/// `clock`, `faults`) contribute their full `Debug` rendering.
pub fn fingerprint(cfg: &SystemConfig, bench: Bench, limit: RunLimit) -> u64 {
    let SystemConfig {
        scheme,
        oram,
        hierarchy,
        dram,
        t_interval,
        timing_protection,
        clock,
        rob_insts,
        ipc,
        mshrs,
        l1_hit_lat,
        llc_hit_lat,
        front_hit_lat,
        decrypt_lat,
        subtree_group,
        seed,
        audit,
        faults,
        refetch_lat,
        stash_hard_limit,
        pipeline_depth,
        checkpoint_interval,
    } = cfg;
    let key = format!(
        "scheme={scheme:?}|oram={oram:?}|hierarchy={hierarchy:?}|dram={dram:?}\
         |t_interval={t_interval}|timing_protection={timing_protection}\
         |clock={clock:?}|rob_insts={rob_insts}|ipc={ipc}|mshrs={mshrs}\
         |l1_hit_lat={l1_hit_lat}|llc_hit_lat={llc_hit_lat}\
         |front_hit_lat={front_hit_lat}|decrypt_lat={decrypt_lat}\
         |subtree_group={subtree_group}|seed={seed}|audit={audit}\
         |faults={faults:?}|refetch_lat={refetch_lat}\
         |stash_hard_limit={stash_hard_limit}|pipeline_depth={pipeline_depth}\
         |checkpoint_interval={checkpoint_interval}\
         |{bench:?}|{}",
        limit.mem_ops
    );
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An append-only journal file plus the fingerprints it already contains.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    done: BTreeMap<u64, SimReport>,
    // lint: allow(thread-order, append-only journal writer shared with par_map workers; one line per finished cell, order-independent by fingerprint)
    writer: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` and indexes every
    /// well-formed line already present. Malformed or truncated lines —
    /// e.g. a torn final write from a killed run — are skipped, not fatal.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened for append.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut done = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                if let Some((fp, report)) = decode_line(line) {
                    done.insert(fp, report);
                }
            }
        }
        let writer = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            path: path.to_owned(),
            done,
            // lint: allow(thread-order, append-only journal writer shared with par_map workers; one line per finished cell, order-independent by fingerprint)
            writer: Mutex::new(writer),
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cells already recorded.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no cells are recorded yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The stored report for `fp`, if this cell already finished.
    pub fn lookup(&self, fp: u64) -> Option<SimReport> {
        self.done.get(&fp).cloned()
    }

    /// Appends one finished cell. The line is flushed immediately so a
    /// killed process loses at most the cell in flight.
    pub fn record(&self, fp: u64, report: &SimReport) {
        let line = encode_line(fp, report);
        let mut file = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Journal append failures must not kill the sweep mid-run; the
        // worst case is re-simulating this cell on resume.
        let _ = writeln!(file, "{line}");
        let _ = file.flush();
    }

    /// Rewrites the journal as exactly one line per distinct cell, dropping
    /// duplicate lines (cells re-recorded across interrupted runs) and any
    /// malformed lines skipped at open. Written atomically: a temp sibling
    /// is written, synced, and renamed over the journal, so a kill during
    /// compaction leaves either the old or the new file, never a torn one.
    /// Call after a matrix completes — mid-sweep the append-only form is
    /// the crash-safety mechanism.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the rewrite fails; the original journal is
    /// left untouched in that case.
    pub fn compact(&self) -> std::io::Result<()> {
        // Hold the append lock for the whole read-rewrite-rename so a
        // concurrent `record` can neither be dropped from the rewrite nor
        // land on the file being replaced. `record` flushes every line, so
        // the file is the complete, current state.
        let mut file = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut cells: BTreeMap<u64, SimReport> = BTreeMap::new();
        for line in std::fs::read_to_string(&self.path)?.lines() {
            if let Some((fp, report)) = decode_line(line) {
                cells.insert(fp, report);
            }
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for (fp, report) in &cells {
                writeln!(f, "{}", encode_line(*fp, report))?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen the writer: the old handle would keep appending to the
        // unlinked inode.
        *file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_line(fp: u64, r: &SimReport) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(s, "{{\"fp\":\"{fp:016x}\",\"report\":");
    encode_report(&mut s, r);
    s.push('}');
    s
}

fn encode_report(s: &mut String, r: &SimReport) {
    s.push('{');
    kv_str(s, "scheme", r.scheme.name());
    s.push(',');
    kv_str(s, "workload", &r.workload);
    s.push(',');
    kv_u64(s, "cycles", r.cycles);
    s.push(',');
    kv_u64(s, "instructions", r.instructions);
    s.push(',');
    kv_u64(s, "mem_ops", r.mem_ops);
    s.push(',');
    key(s, "protocol");
    encode_protocol(s, &r.protocol);
    s.push(',');
    key(s, "protocol_small");
    match &r.protocol_small {
        Some(p) => encode_protocol(s, p),
        None => s.push_str("null"),
    }
    s.push(',');
    key(s, "slots");
    s.push('{');
    kv_u64(s, "total_slots", r.slots.total_slots);
    s.push(',');
    kv_u64(s, "real_slots", r.slots.real_slots);
    s.push(',');
    kv_u64(s, "bg_slots", r.slots.bg_slots);
    s.push(',');
    kv_u64(s, "dummy_slots", r.slots.dummy_slots);
    s.push(',');
    kv_u64(s, "converted_slots", r.slots.converted_slots);
    s.push_str("},");
    key(s, "dram");
    s.push('{');
    kv_u64(s, "row_hits", r.dram.row_hits);
    s.push(',');
    kv_u64(s, "row_empties", r.dram.row_empties);
    s.push(',');
    kv_u64(s, "row_conflicts", r.dram.row_conflicts);
    s.push(',');
    kv_u64(s, "requests", r.dram.requests);
    s.push(',');
    kv_u64(s, "reads", r.dram.reads);
    s.push(',');
    kv_u64(s, "writes", r.dram.writes);
    s.push(',');
    kv_u64(s, "total_latency", r.dram.total_latency);
    s.push(',');
    kv_u64(s, "bus_busy_cycles", r.dram.bus_busy_cycles);
    s.push(',');
    kv_u64(s, "last_completion", r.dram.last_completion);
    s.push_str("},");
    key(s, "hierarchy");
    s.push('{');
    kv_u64(s, "accesses", r.hierarchy.accesses);
    s.push(',');
    kv_u64(s, "reads", r.hierarchy.reads);
    s.push(',');
    kv_u64(s, "writes", r.hierarchy.writes);
    s.push(',');
    kv_u64(s, "l1_hits", r.hierarchy.l1_hits);
    s.push(',');
    kv_u64(s, "llc_hits", r.hierarchy.llc_hits);
    s.push(',');
    kv_u64(s, "misses", r.hierarchy.misses);
    s.push(',');
    kv_u64(s, "read_misses", r.hierarchy.read_misses);
    s.push(',');
    kv_u64(s, "write_misses", r.hierarchy.write_misses);
    s.push(',');
    kv_u64(s, "dirty_writebacks", r.hierarchy.dirty_writebacks);
    s.push_str("},");
    key(s, "dwb");
    match &r.dwb {
        Some(d) => {
            s.push('{');
            kv_u64(s, "converted_slots", d.converted_slots);
            s.push(',');
            kv_u64(s, "converted_posmap", d.converted_posmap);
            s.push(',');
            kv_u64(s, "converted_data", d.converted_data);
            s.push(',');
            kv_u64(s, "completed", d.completed);
            s.push(',');
            kv_u64(s, "aborted", d.aborted);
            s.push('}');
        }
        None => s.push_str("null"),
    }
    s.push(',');
    key(s, "faults");
    s.push('{');
    kv_u64(s, "injected_corruptions", r.faults.injected_corruptions);
    s.push(',');
    kv_u64(s, "detected", r.faults.detected);
    s.push(',');
    kv_u64(s, "recovered", r.faults.recovered);
    s.push(',');
    kv_u64(s, "undetected", r.faults.undetected);
    s.push(',');
    kv_u64(s, "bank_stalls", r.faults.bank_stalls);
    s.push(',');
    kv_u64(s, "stall_cycles", r.faults.stall_cycles);
    s.push(',');
    kv_u64(s, "storms", r.faults.storms);
    s.push(',');
    kv_u64(s, "mangled_records", r.faults.mangled_records);
    s.push(',');
    kv_u64(s, "rejected_records", r.faults.rejected_records);
    s.push(',');
    kv_u64(s, "refetch_penalty_cycles", r.faults.refetch_penalty_cycles);
    s.push_str("},");
    key(s, "stash");
    s.push('{');
    kv_u64(s, "soft_capacity", r.stash.soft_capacity);
    s.push(',');
    kv_u64(s, "max_occupancy", r.stash.max_occupancy);
    s.push(',');
    kv_u64(s, "overflow_slots", r.stash.overflow_slots);
    s.push(',');
    kv_u64(s, "bg_escalations", r.stash.bg_escalations);
    s.push(',');
    kv_u64(s, "degraded_slots", r.stash.degraded_slots);
    s.push(',');
    kv_u64(s, "throttled_admissions", r.stash.throttled_admissions);
    s.push_str("}}");
}

fn encode_protocol(s: &mut String, p: &iroram_protocol::ProtocolStats) {
    s.push('{');
    kv_u64(s, "accesses", p.accesses);
    s.push(',');
    kv_u64(s, "fstash_hits", p.fstash_hits);
    s.push(',');
    kv_u64(s, "sstash_hits", p.sstash_hits);
    s.push(',');
    kv_u64(s, "escrow_hits", p.escrow_hits);
    s.push(',');
    kv_u64(s, "treetop_hits", p.treetop_hits);
    s.push(',');
    kv_u64(s, "pos1_paths", p.pos1_paths);
    s.push(',');
    kv_u64(s, "pos2_paths", p.pos2_paths);
    s.push(',');
    kv_u64(s, "data_paths", p.data_paths);
    s.push(',');
    kv_u64(s, "bg_evict_paths", p.bg_evict_paths);
    s.push(',');
    kv_u64(s, "dummy_paths", p.dummy_paths);
    s.push(',');
    key(s, "served_level");
    s.push('[');
    for (i, v) in p.served_level.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push_str("],");
    kv_u64(s, "served_stash", p.served_stash);
    s.push(',');
    kv_u64(s, "blocks_from_memory", p.blocks_from_memory);
    s.push(',');
    kv_u64(s, "blocks_to_memory", p.blocks_to_memory);
    s.push(',');
    kv_u64(s, "sstash_rejects", p.sstash_rejects);
    s.push(',');
    kv_u64(s, "delayed_inserts", p.delayed_inserts);
    s.push('}');
}

fn key(s: &mut String, k: &str) {
    let _ = write!(s, "\"{k}\":");
}

fn kv_u64(s: &mut String, k: &str, v: u64) {
    let _ = write!(s, "\"{k}\":{v}");
}

fn kv_str(s: &mut String, k: &str, v: &str) {
    let _ = write!(s, "\"{k}\":\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The JSON value subset the journal emits.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Num(u64),
    Str(String),
    Null,
}

impl Json {
    fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(n, _)| n == k).map(|(_, v)| v),
            _ => None,
        }
    }

    fn u64(&self, k: &str) -> Option<u64> {
        match self.get(k)? {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn str(&self, k: &str) -> Option<&str> {
        match self.get(k)? {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        (self.peek()? == c).then(|| self.pos += 1)
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b'n' => {
                let rest = self.bytes.get(self.pos..self.pos + 4)?;
                (rest == b"null").then(|| {
                    self.pos += 4;
                    Json::Null
                })
            }
            b'0'..=b'9' => self.number().map(Json::Num),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            let k = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            fields.push((k, v));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match c {
                b'"' => return Some(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c => {
                    // Multi-byte UTF-8: copy the remaining continuation
                    // bytes of this character verbatim.
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self.bytes.get(start..start + len)?;
                    self.pos = start + len;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<u64> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        (self.pos > start)
            .then(|| std::str::from_utf8(&self.bytes[start..self.pos]).ok())??
            .parse()
            .ok()
    }
}

fn decode_line(line: &str) -> Option<(u64, SimReport)> {
    let v = Parser::new(line).value()?;
    let fp = u64::from_str_radix(v.str("fp")?, 16).ok()?;
    let report = decode_report(v.get("report")?)?;
    Some((fp, report))
}

fn scheme_by_name(name: &str) -> Option<Scheme> {
    ALL_SCHEMES.into_iter().find(|s| s.name() == name)
}

fn decode_report(v: &Json) -> Option<SimReport> {
    let slots = v.get("slots")?;
    let dram = v.get("dram")?;
    let h = v.get("hierarchy")?;
    let f = v.get("faults")?;
    let st = v.get("stash")?;
    Some(SimReport {
        scheme: scheme_by_name(v.str("scheme")?)?,
        workload: v.str("workload")?.to_owned(),
        cycles: v.u64("cycles")?,
        instructions: v.u64("instructions")?,
        mem_ops: v.u64("mem_ops")?,
        protocol: decode_protocol(v.get("protocol")?)?,
        protocol_small: match v.get("protocol_small")? {
            Json::Null => None,
            p => Some(decode_protocol(p)?),
        },
        slots: ir_oram::SlotStats {
            total_slots: slots.u64("total_slots")?,
            real_slots: slots.u64("real_slots")?,
            bg_slots: slots.u64("bg_slots")?,
            dummy_slots: slots.u64("dummy_slots")?,
            converted_slots: slots.u64("converted_slots")?,
        },
        dram: iroram_dram::DramStats {
            row_hits: dram.u64("row_hits")?,
            row_empties: dram.u64("row_empties")?,
            row_conflicts: dram.u64("row_conflicts")?,
            requests: dram.u64("requests")?,
            reads: dram.u64("reads")?,
            writes: dram.u64("writes")?,
            total_latency: dram.u64("total_latency")?,
            bus_busy_cycles: dram.u64("bus_busy_cycles")?,
            last_completion: dram.u64("last_completion")?,
        },
        hierarchy: iroram_cache::HierarchyStats {
            accesses: h.u64("accesses")?,
            reads: h.u64("reads")?,
            writes: h.u64("writes")?,
            l1_hits: h.u64("l1_hits")?,
            llc_hits: h.u64("llc_hits")?,
            misses: h.u64("misses")?,
            read_misses: h.u64("read_misses")?,
            write_misses: h.u64("write_misses")?,
            dirty_writebacks: h.u64("dirty_writebacks")?,
        },
        dwb: match v.get("dwb")? {
            Json::Null => None,
            d => Some(ir_oram::DwbStats {
                converted_slots: d.u64("converted_slots")?,
                converted_posmap: d.u64("converted_posmap")?,
                converted_data: d.u64("converted_data")?,
                completed: d.u64("completed")?,
                aborted: d.u64("aborted")?,
            }),
        },
        faults: FaultStats {
            injected_corruptions: f.u64("injected_corruptions")?,
            detected: f.u64("detected")?,
            recovered: f.u64("recovered")?,
            undetected: f.u64("undetected")?,
            bank_stalls: f.u64("bank_stalls")?,
            stall_cycles: f.u64("stall_cycles")?,
            storms: f.u64("storms")?,
            mangled_records: f.u64("mangled_records")?,
            rejected_records: f.u64("rejected_records")?,
            refetch_penalty_cycles: f.u64("refetch_penalty_cycles")?,
        },
        stash: StashPressure {
            soft_capacity: st.u64("soft_capacity")?,
            max_occupancy: st.u64("max_occupancy")?,
            overflow_slots: st.u64("overflow_slots")?,
            bg_escalations: st.u64("bg_escalations")?,
            // Absent in journals written before degradation accounting.
            degraded_slots: st.u64("degraded_slots").unwrap_or(0),
            throttled_admissions: st.u64("throttled_admissions").unwrap_or(0),
        },
    })
}

fn decode_protocol(v: &Json) -> Option<iroram_protocol::ProtocolStats> {
    let levels = match v.get("served_level")? {
        Json::Arr(items) => items
            .iter()
            .map(|j| match j {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .collect::<Option<Vec<u64>>>()?,
        _ => return None,
    };
    Some(iroram_protocol::ProtocolStats {
        accesses: v.u64("accesses")?,
        fstash_hits: v.u64("fstash_hits")?,
        sstash_hits: v.u64("sstash_hits")?,
        escrow_hits: v.u64("escrow_hits")?,
        treetop_hits: v.u64("treetop_hits")?,
        pos1_paths: v.u64("pos1_paths")?,
        pos2_paths: v.u64("pos2_paths")?,
        data_paths: v.u64("data_paths")?,
        bg_evict_paths: v.u64("bg_evict_paths")?,
        dummy_paths: v.u64("dummy_paths")?,
        served_level: levels,
        served_stash: v.u64("served_stash")?,
        blocks_from_memory: v.u64("blocks_from_memory")?,
        blocks_to_memory: v.u64("blocks_to_memory")?,
        sstash_rejects: v.u64("sstash_rejects")?,
        delayed_inserts: v.u64("delayed_inserts")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::Simulation;

    fn small_report() -> SimReport {
        let opts = crate::ExpOptions::quick();
        let mut cfg = opts.system(Scheme::IrOram);
        cfg.oram.levels = 10;
        cfg.oram.data_blocks = 1 << 11;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(10, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
        let cfg = cfg.with_scheme(Scheme::IrOram);
        Simulation::run_bench(&cfg, Bench::Gcc, RunLimit::mem_ops(800))
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = small_report();
        let line = encode_line(7, &r);
        let (fp, back) = decode_line(&line).expect("decodes");
        assert_eq!(fp, 7);
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn rho_report_round_trips_with_small_tree() {
        let opts = crate::ExpOptions::quick();
        let mut cfg = opts.system(Scheme::Rho);
        cfg.oram.levels = 10;
        cfg.oram.data_blocks = 1 << 11;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(10, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
        let cfg = cfg.with_scheme(Scheme::Rho);
        let r = Simulation::run_bench(&cfg, Bench::Mcf, RunLimit::mem_ops(600));
        assert!(r.protocol_small.is_some());
        let (_, back) = decode_line(&encode_line(1, &r)).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let r = small_report();
        let good = encode_line(42, &r);
        let torn = &good[..good.len() / 2];
        std::fs::write(&path, format!("{good}\nnot json at all\n{torn}\n")).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.lookup(42).is_some());
        assert!(j.lookup(43).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_then_reopen_finds_the_cell() {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.jsonl");
        std::fs::remove_file(&path).ok();
        let r = small_report();
        let j = Journal::open(&path).unwrap();
        j.record(99, &r);
        j.record(100, &r);
        drop(j);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 2);
        assert_eq!(format!("{:?}", j2.lookup(99).unwrap()), format!("{r:?}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_dedupes_and_preserves_every_cell() {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.jsonl");
        std::fs::remove_file(&path).ok();
        let r = small_report();
        // Duplicate lines (the same cell re-recorded across interrupted
        // runs) plus garbage, as a crashed-and-resumed sweep leaves behind.
        let good = encode_line(7, &r);
        std::fs::write(
            &path,
            format!("{good}\n{good}\nnot json\n{}\n{good}\n", encode_line(8, &r)),
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        j.compact().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per distinct cell");
        // Appending still works after compaction (the writer is reopened on
        // the new inode).
        j.record(9, &r);
        drop(j);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.len(), 3);
        assert!(j2.lookup(7).is_some() && j2.lookup(8).is_some() && j2.lookup(9).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_separates_cells() {
        let opts = crate::ExpOptions::quick();
        let a = opts.system(Scheme::Baseline);
        let b = opts.system(Scheme::IrOram);
        let lim = RunLimit::mem_ops(100);
        assert_ne!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&b, Bench::Gcc, lim)
        );
        assert_ne!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&a, Bench::Mcf, lim)
        );
        assert_ne!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&a, Bench::Gcc, RunLimit::mem_ops(101))
        );
        assert_eq!(
            fingerprint(&a, Bench::Gcc, lim),
            fingerprint(&opts.system(Scheme::Baseline), Bench::Gcc, lim)
        );
    }
}
