//! Resume journal: a per-cell append-only store of finished results.
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
//! A line is the lowercase hex of one snapshot frame
//! ([`checkpoint::encode_snapshot`]): the cell's fingerprint in the header
//! and the report, written by [`SimReport::save`], as the payload. The
//! frame's magic, version and checksum make a torn final write, a line of
//! an older journal format or one from another [`checkpoint::SNAP_VERSION`]
//! fail to decode; such lines are skipped and counted, never misread.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ir_oram::{RunLimit, SimReport, SystemConfig};
use iroram_sim_engine::{checkpoint, SnapError, SnapReader, SnapWriter};
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
    checkpoint::fnv1a(checkpoint::FNV_BASIS, key.as_bytes())
}

/// An append-only journal file plus the fingerprints it already contains.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    done: BTreeMap<u64, SimReport>,
    skipped: usize,
    // lint: allow(thread-order, append-only journal writer shared with par_map workers; one line per finished cell, order-independent by fingerprint)
    writer: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` and indexes every
    /// line that decodes. Lines that do not — a torn final write from a
    /// killed run, a line of an older format — are skipped and counted
    /// ([`Journal::skipped`]), not fatal.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be opened for append.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let (done, skipped) = match std::fs::read_to_string(path) {
            Ok(text) => read_cells(&text),
            Err(_) => (BTreeMap::new(), 0),
        };
        let writer = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Journal {
            path: path.to_owned(),
            done,
            skipped,
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

    /// Number of lines [`Journal::open`] skipped because they did not
    /// decode.
    pub fn skipped(&self) -> usize {
        self.skipped
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
    /// lines skipped at open. Written atomically: a temp sibling
    /// ([`checkpoint::temp_path`]) is written, synced, and renamed over the
    /// journal, so a kill during compaction leaves either the old or the
    /// new file, never a torn one. Call after a matrix completes —
    /// mid-sweep the append-only form is the crash-safety mechanism.
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
        let (cells, _) = read_cells(&std::fs::read_to_string(&self.path)?);
        let tmp = checkpoint::temp_path(&self.path);
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

/// Indexes every line of `text` that decodes, the last line of a cell
/// winning, and counts the lines that do not.
fn read_cells(text: &str) -> (BTreeMap<u64, SimReport>, usize) {
    let mut cells = BTreeMap::new();
    let mut skipped = 0;
    for line in text.lines() {
        match decode_line(line) {
            Ok((fp, report)) => {
                cells.insert(fp, report);
            }
            Err(_) => skipped += 1,
        }
    }
    (cells, skipped)
}

/// One journal line: the hex of a snapshot frame holding the report.
fn encode_line(fp: u64, report: &SimReport) -> String {
    let mut w = SnapWriter::new();
    report.save(&mut w);
    hex(&checkpoint::encode_snapshot(fp, 0, &w.into_bytes()))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Decodes a line written by [`encode_line`].
fn decode_line(line: &str) -> Result<(u64, SimReport), SnapError> {
    let digit = |c: u8| char::from(c).to_digit(16);
    let frame = line
        .as_bytes()
        .chunks(2)
        .map(|pair| match *pair {
            [hi, lo] => Some((digit(hi)? << 4 | digit(lo)?) as u8),
            _ => None,
        })
        .collect::<Option<Vec<u8>>>()
        .ok_or(SnapError::Corrupt("journal line is not hex"))?;
    let (header, payload) = checkpoint::decode_snapshot(&frame)?;
    let mut r = SnapReader::new(payload);
    let report = SimReport::restore(&mut r)?;
    r.finish()?;
    Ok((header.fingerprint, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_oram::{Scheme, Simulation, ALL_SCHEMES};
    use proptest::prelude::*;

    /// `scheme` on a tiny tree, run for `ops` memory operations.
    fn report_of(scheme: Scheme, bench: Bench, ops: u64) -> SimReport {
        let opts = crate::ExpOptions::quick();
        let mut cfg = opts.system(scheme);
        cfg.oram.levels = 10;
        cfg.oram.data_blocks = 1 << 11;
        cfg.oram.zalloc = iroram_protocol::ZAllocation::uniform(10, 4);
        cfg.oram.treetop = iroram_protocol::TreeTopMode::Dedicated { levels: 4 };
        let cfg = cfg.with_scheme(scheme);
        Simulation::run_bench(&cfg, bench, RunLimit::mem_ops(ops))
    }

    fn small_report() -> SimReport {
        report_of(Scheme::IrOram, Bench::Gcc, 800)
    }

    /// A journal path under the temp dir, removed first.
    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iroram-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    fn payload(r: &SimReport) -> Vec<u8> {
        let mut w = SnapWriter::new();
        r.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn report_round_trips_exactly() {
        let r = small_report();
        assert!(r.dwb.is_some());
        let line = encode_line(7, &r);
        let (fp, back) = decode_line(&line).expect("decodes");
        assert_eq!(fp, 7);
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn rho_report_round_trips_with_small_tree() {
        let r = report_of(Scheme::Rho, Bench::Mcf, 600);
        assert!(r.protocol_small.is_some());
        let (_, back) = decode_line(&encode_line(1, &r)).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let path = temp_journal("torn.journal");
        let r = small_report();
        let good = encode_line(42, &r);
        let torn = &good[..good.len() / 2];
        // The same frame under another format version (bytes 8..12).
        let mut frame = checkpoint::encode_snapshot(43, 0, &payload(&r));
        frame[8..12].copy_from_slice(&(checkpoint::SNAP_VERSION + 1).to_le_bytes());
        let other_version = hex(&frame);
        assert!(matches!(
            decode_line(&other_version),
            Err(SnapError::BadVersion(_))
        ));
        std::fs::write(
            &path,
            format!("{good}\nnot a frame at all\n{other_version}\n{torn}\n"),
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.len(), j.skipped()), (1, 3));
        assert!(j.lookup(42).is_some());
        assert!(j.lookup(43).is_none());
        std::fs::remove_file(&path).ok();
    }

    /// A line written by the JSON journal format this one replaced.
    const OLD_FORMAT_LINE: &str = r#"{"fp":"0000000000000007","report":{"scheme":"IR-ORAM","workload":"gcc","cycles":11416,"instructions":16632,"mem_ops":800,"protocol":{"accesses":0,"fstash_hits":0,"sstash_hits":5,"escrow_hits":0,"treetop_hits":0,"pos1_paths":5,"pos2_paths":1,"data_paths":19,"bg_evict_paths":0,"dummy_paths":7,"served_level":[0,0,4,1,1,0,0,1,4,19],"served_stash":0,"blocks_from_memory":544,"blocks_to_memory":544,"sstash_rejects":0,"delayed_inserts":0},"protocol_small":null,"slots":{"total_slots":32,"real_slots":24,"bg_slots":0,"dummy_slots":7,"converted_slots":1},"dram":{"row_hits":1056,"row_empties":32,"row_conflicts":0,"requests":1088,"reads":544,"writes":544,"total_latency":53105,"bus_busy_cycles":4352,"last_completion":2854},"hierarchy":{"accesses":800,"reads":547,"writes":253,"l1_hits":782,"llc_hits":0,"misses":18,"read_misses":8,"write_misses":10,"dirty_writebacks":0},"dwb":{"converted_slots":1,"converted_posmap":0,"converted_data":1,"completed":6,"aborted":0},"faults":{"injected_corruptions":0,"detected":0,"recovered":0,"undetected":0,"bank_stalls":0,"stall_cycles":0,"storms":0,"mangled_records":0,"rejected_records":0,"refetch_penalty_cycles":0},"stash":{"soft_capacity":200,"max_occupancy":15,"overflow_slots":0,"bg_escalations":0,"degraded_slots":0,"throttled_admissions":0}}}"#;

    #[test]
    fn record_then_reopen_finds_the_cell() {
        let path = temp_journal("rt.journal");
        let r = small_report();
        let j = Journal::open(&path).unwrap();
        j.record(99, &r);
        j.record(100, &r);
        drop(j);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!((j2.len(), j2.skipped()), (2, 0));
        assert_eq!(format!("{:?}", j2.lookup(99).unwrap()), format!("{r:?}"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_dedupes_and_preserves_every_cell() {
        let path = temp_journal("compact.journal");
        let r = small_report();
        // Duplicate lines (the same cell re-recorded across interrupted
        // runs) plus a line of the old format (cell 7), as a sweep resumed
        // across the format change leaves behind.
        let good = encode_line(8, &r);
        std::fs::write(
            &path,
            format!(
                "{good}\n{good}\n{OLD_FORMAT_LINE}\n{}\n{good}\n",
                encode_line(9, &r)
            ),
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!((j.len(), j.skipped()), (2, 1));
        assert!(j.lookup(7).is_none(), "the old line's cell is not answered");
        j.compact().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per distinct cell");
        assert!(!text.contains(OLD_FORMAT_LINE));
        assert!(!checkpoint::temp_path(&path).exists());
        // Appending still works after compaction (the writer is reopened on
        // the new inode).
        j.record(10, &r);
        drop(j);
        let j2 = Journal::open(&path).unwrap();
        assert_eq!((j2.len(), j2.skipped()), (3, 0));
        assert!([8, 9, 10].iter().all(|&fp| j2.lookup(fp).is_some()));
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A damaged report payload, re-framed with a valid checksum,
        /// never panics the decoder: truncated, spliced from the front of
        /// one report and the back of another, or with a byte flipped, it
        /// decodes to a typed [`SnapError`] or to a report that saves back
        /// to the same bytes.
        #[test]
        fn damaged_reports_decode_to_an_error_or_the_same_bytes(
            scheme in 0usize..8,
            other_scheme in 0usize..8,
            damage in 0u8..3,
            at in any::<usize>(),
            from in any::<usize>(),
            mask in 1u8..255,
        ) {
            let bytes = payload(&report_of(ALL_SCHEMES[scheme], Bench::Mcf, 200));
            let other = payload(&report_of(ALL_SCHEMES[other_scheme], Bench::Lbm, 150));
            let damaged = match damage {
                0 => bytes[..at % (bytes.len() + 1)].to_vec(),
                1 => [&bytes[..at % (bytes.len() + 1)], &other[from % (other.len() + 1)..]].concat(),
                _ => {
                    let mut flipped = bytes.clone();
                    flipped[at % bytes.len()] ^= mask;
                    flipped
                }
            };
            let line = hex(&checkpoint::encode_snapshot(5, 0, &damaged));
            if let Ok((fp, report)) = decode_line(&line) {
                prop_assert_eq!(fp, 5);
                prop_assert_eq!(payload(&report), damaged);
            }
        }
    }

    #[test]
    fn fingerprint_separates_cells() {
        let opts = crate::ExpOptions::quick();
        let a = opts.system(Scheme::Baseline);
        let b = opts.system(Scheme::IrOram);
        let lim = RunLimit::mem_ops(100);
        // Snapshot files are named by the fingerprint, and `chaos` and
        // `perfstat` key on it: it must not move.
        assert_eq!(fingerprint(&a, Bench::Gcc, lim), 0x667d_64f5_c420_ca44);
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
