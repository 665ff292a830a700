//! Append-only benchmark history (`BENCH_history.jsonl`) plumbing shared
//! by the perf harness binaries (`perfstat`, `kv_bench`).
//!
//! Each line of the history file is one hand-rolled JSON object describing
//! one recorded run. Two *bench families* write to the same file: the
//! simulator-throughput harness (`"bench": "sim"`) and the KV serving-layer
//! harness (`"bench": "kv"`). Ratchet baselines must never cross families —
//! a KV run and a sim run are not rate-comparable even when their scale and
//! job-count labels collide — so every lookup is keyed by a [`HistoryKey`]
//! that includes the family. Lines written before the `bench` field existed
//! are all simulator runs and parse as the `"sim"` family.
//!
//! The scanners here are deliberately not a JSON parser: the writers in
//! this repository are the only producers, every value is flat, and the
//! workspace has no serialization dependency to lean on.

/// One ratchet-comparability key: entries with equal keys measure the same
/// workload and may be rate-compared; everything else is a different
/// lineage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryKey {
    /// Bench family: `"sim"` (perfstat) or `"kv"` (kv_bench).
    pub bench: String,
    /// Scale label (`"quick"`, `"standard"`, `"full"`, `"custom"`).
    pub scale: String,
    /// Worker count the run used.
    pub jobs: u64,
    /// Fold over the full workload configuration: same fingerprint = same
    /// simulated workload, so a rate delta is attributable to the code.
    pub cfg_fp: u64,
}

impl HistoryKey {
    /// The `cfg-fp <hex>` tag embedded in an entry's `note` field.
    pub fn fp_tag(&self) -> String {
        format!("cfg-fp {:016x}", self.cfg_fp)
    }

    /// Whether one history line belongs to this key's lineage.
    pub fn matches(&self, line: &str) -> bool {
        // Missing `bench` field = legacy entry, written by perfstat before
        // the field existed: simulator family by construction.
        let bench = field_str(line, "bench").unwrap_or("sim");
        bench == self.bench
            && field_str(line, "scale") == Some(self.scale.as_str())
            && field_f64(line, "jobs") == Some(self.jobs as f64)
            && field_str(line, "note").is_some_and(|n| n.contains(&self.fp_tag()))
    }

    /// The most recent recorded rate of this lineage: scans `history`
    /// newest-line-first for the first entry that [`Self::matches`] and
    /// pulls `rate_field` out of it.
    pub fn latest_rate(&self, history: &str, rate_field: &str) -> Option<f64> {
        history
            .lines()
            .rev()
            .find(|l| self.matches(l))
            .and_then(|l| field_f64(l, rate_field))
    }
}

/// Pulls a numeric field out of one hand-rolled history line.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls a string field out of one hand-rolled history line.
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM_LINE: &str = "{\"epoch_secs\": 1754600000, \"bench\": \"sim\", \
        \"scale\": \"quick\", \"jobs\": 1, \"total_mem_ops\": 448000, \
        \"total_wall_seconds\": 0.7, \"total_mem_ops_per_sec\": 640000.0, \
        \"note\": \"commit abc, cfg-fp 00000000000000ff\"}";
    const KV_LINE: &str = "{\"epoch_secs\": 1754600001, \"bench\": \"kv\", \
        \"scale\": \"quick\", \"jobs\": 1, \"kv_ops\": 65536, \
        \"kv_ops_per_sec\": 9000.0, \
        \"note\": \"commit abc, cfg-fp 00000000000000ff\"}";
    const LEGACY_LINE: &str = "{\"epoch_secs\": 1754600002, \
        \"scale\": \"quick\", \"jobs\": 1, \"total_mem_ops\": 448000, \
        \"total_wall_seconds\": 0.7, \"total_mem_ops_per_sec\": 620000.0, \
        \"note\": \"commit abc, cfg-fp 00000000000000ff\"}";

    fn key(bench: &str) -> HistoryKey {
        HistoryKey {
            bench: bench.to_owned(),
            scale: "quick".to_owned(),
            jobs: 1,
            cfg_fp: 0xff,
        }
    }

    #[test]
    fn families_cannot_cross_match() {
        // Same scale, same jobs, same cfg-fp — only the family differs.
        // The sim key must reject the kv line and vice versa, else one
        // bench's ratchet would gate against the other's rates.
        assert!(key("sim").matches(SIM_LINE));
        assert!(!key("sim").matches(KV_LINE));
        assert!(key("kv").matches(KV_LINE));
        assert!(!key("kv").matches(SIM_LINE));
    }

    #[test]
    fn legacy_lines_without_bench_field_are_sim() {
        assert!(key("sim").matches(LEGACY_LINE));
        assert!(!key("kv").matches(LEGACY_LINE));
    }

    #[test]
    fn latest_rate_scans_newest_first_within_family() {
        let hist = format!("{LEGACY_LINE}\n{KV_LINE}\n{SIM_LINE}\n");
        assert_eq!(
            key("sim").latest_rate(&hist, "total_mem_ops_per_sec"),
            Some(640000.0)
        );
        assert_eq!(key("kv").latest_rate(&hist, "kv_ops_per_sec"), Some(9000.0));
        // A family with no entries yields no baseline, not a cross-match.
        let kv_only = format!("{KV_LINE}\n");
        assert_eq!(
            key("sim").latest_rate(&kv_only, "total_mem_ops_per_sec"),
            None
        );
    }

    #[test]
    fn mismatched_scale_jobs_or_fp_breaks_the_lineage() {
        let mut k = key("sim");
        k.scale = "full".to_owned();
        assert!(!k.matches(SIM_LINE));
        let mut k = key("sim");
        k.jobs = 4;
        assert!(!k.matches(SIM_LINE));
        let mut k = key("sim");
        k.cfg_fp = 0xfe;
        assert!(!k.matches(SIM_LINE));
    }

    #[test]
    fn field_scanners_parse_writer_lines() {
        assert_eq!(field_str(SIM_LINE, "scale"), Some("quick"));
        assert_eq!(field_f64(SIM_LINE, "jobs"), Some(1.0));
        assert_eq!(field_f64(SIM_LINE, "total_mem_ops_per_sec"), Some(640000.0));
        assert_eq!(field_f64(SIM_LINE, "absent"), None);
        assert_eq!(field_str(KV_LINE, "bench"), Some("kv"));
    }
}
