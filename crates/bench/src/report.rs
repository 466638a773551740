//! Reading and diffing `BENCH_protocols.json`.
//!
//! The bench recorder writes one self-describing JSON document per run
//! (see the `bench_protocols` binary); this module parses those
//! documents back — with a purpose-built scanner, since the workspace is
//! offline and carries no serde — and computes per-protocol deltas
//! between two recordings, which is how a PR demonstrates (or catches)
//! a throughput change. The `bench_diff` binary is the CLI front end.
//!
//! The parser is deliberately tolerant: it scans for record objects by
//! their `"family"` key and reads only the fields it knows, so older
//! recordings (e.g. ones without the `mode` field, or with
//! `"mode": "threaded"` rows of the retired thread-per-node driver)
//! still diff cleanly.

use std::collections::BTreeMap;

/// One `bench_protocols` measurement: a protocol run at one point of the
/// batch × topology × execution-mode grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Protocol family: `"hh"` or `"matrix"`.
    pub family: String,
    /// Protocol name as the paper spells it (`"P1"`, `"P3wor"`, …).
    pub protocol: String,
    /// Arrivals per delivery epoch.
    pub batch: u64,
    /// Topology label (`"star"`, `"tree4"`, …).
    pub topology: String,
    /// Execution mode: `"seq"` (batch-first sequential runner) or
    /// `"pooled"` (the worker-pool execution engine); old recordings
    /// may also carry `"threaded"` (the retired thread-per-node
    /// driver), and ones without the field read as `"seq"`.
    pub mode: String,
    /// Worker threads of a `"pooled"` record; `0` (absent in older
    /// recordings and non-pooled rows) means not applicable.
    pub workers: u64,
    /// Per-record site count, recorded only when it differs from the
    /// grid default in `meta` (the `m = 1024` pooled rows); `0` means
    /// the default.
    pub sites: u64,
    /// Row dimensionality of a `d`-axis record; `0` (absent before the
    /// kernel A/B axis) means the grid default `mt_dim`.
    pub dim: u64,
    /// Linalg profile of a `d`-axis record (`"naive"` / `"blocked"`);
    /// empty means the build default.
    pub profile: String,
    /// Broadcast-plane label of a plane-axis record (`"fanout"`,
    /// `"cascade"`, `"gossip4x24"`, …); empty (all recordings older
    /// than the gossip plane, and every row that runs the default tree
    /// cascade) means the default plane.
    pub plane: String,
    /// Arrivals per second of wall clock.
    pub throughput: f64,
    /// End-of-stream error (protocol-specific metric).
    pub err: f64,
    /// Total message cost in the paper's units.
    pub msgs_total: u64,
    /// Messages the root coordinator received — the fan-in pressure.
    pub root_in_msgs: u64,
    /// Measured upward wire bytes, summed at every hop (PR 8's wire
    /// codecs); `0` in recordings older than the transport layer.
    pub bytes_up: u64,
    /// Measured downward broadcast bytes (structural: payload wire size
    /// × recipients); `0` in pre-transport recordings.
    pub bytes_down: u64,
    /// Broadcast deliveries — one per edge a frame actually crossed;
    /// `0` in recordings that predate the counter.
    pub broadcast_cost: u64,
    /// Dissemination latency in rounds, summed over events (gossip
    /// plane axis); `0` when not recorded.
    pub broadcast_lag_rounds: u64,
    /// Leaves left stale, summed over events (gossip plane axis); `0`
    /// for structural planes and older recordings.
    pub broadcast_stale: u64,
    /// Node tasks the pooled engine executed; `0` for non-pooled rows
    /// and recordings older than the scheduler-telemetry fields.
    pub tasks: u64,
    /// Chunks stolen across worker deques (pooled rows only).
    pub steals: u64,
    /// Times a worker slept on the wakeup condvar (pooled rows only).
    pub parks: u64,
    /// Per-worker steal counts, slash-separated (`"12/9/14"`, worker 0
    /// first); empty when not recorded.
    pub worker_steals: String,
    /// Per-worker park counts, same encoding.
    pub worker_parks: String,
    /// Churn scenario label of a churn-driver row (PR 9, e.g.
    /// `"leave+join+crash"`); empty for ordinary rows and recordings
    /// older than the churn axis.
    pub churn: String,
    /// Measured wire size of the boundary snapshot a churn row
    /// captured; `0` when no snapshot was taken (or pre-churn rows).
    pub snapshot_bytes: u64,
}

impl BenchRecord {
    /// The identity a record is matched on across two recordings. The
    /// `workers` / `sites` axes (absent before the pooled engine) only
    /// enter the key when set, so old-schema records keep their keys.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}/{} batch={} {} {}",
            self.family, self.protocol, self.batch, self.topology, self.mode
        );
        if self.workers > 0 {
            key.push_str(&format!(" w{}", self.workers));
        }
        if self.sites > 0 {
            key.push_str(&format!(" m{}", self.sites));
        }
        if self.dim > 0 {
            key.push_str(&format!(" d{}", self.dim));
        }
        if !self.profile.is_empty() {
            key.push_str(&format!(" {}", self.profile));
        }
        if !self.plane.is_empty() {
            key.push_str(&format!(" plane:{}", self.plane));
        }
        if !self.churn.is_empty() {
            key.push_str(&format!(" churn:{}", self.churn));
        }
        key
    }
}

/// Extracts the raw text of a `"key": value` field from one JSON object
/// body (no nesting below the record level, which `emit` guarantees).
fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field(obj: &str, key: &str) -> Option<String> {
    let raw = raw_field(obj, key)?;
    Some(raw.trim_matches('"').to_string())
}

fn f64_field(obj: &str, key: &str) -> Option<f64> {
    raw_field(obj, key)?.parse().ok()
}

fn u64_field(obj: &str, key: &str) -> Option<u64> {
    // Throughput-style fields may be written as floats; round-trip
    // through f64 so both spellings parse.
    Some(f64_field(obj, key)?.round() as u64)
}

/// Parses every record object out of a `BENCH_protocols.json` document.
///
/// Records missing required fields are skipped rather than failing the
/// whole diff; the `meta` header object (which has no `"family"`) is
/// ignored by construction.
pub fn parse_bench_json(text: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    // Record objects never nest, so each is the span between a '{' that
    // is followed (somewhere before its '}') by a "family" key.
    for chunk in text.split('{').skip(1) {
        let obj = match chunk.find('}') {
            Some(end) => &chunk[..=end],
            None => continue,
        };
        let (Some(family), Some(protocol)) = (str_field(obj, "family"), str_field(obj, "protocol"))
        else {
            continue;
        };
        let Some(throughput) = f64_field(obj, "throughput_per_s") else {
            continue;
        };
        out.push(BenchRecord {
            family,
            protocol,
            batch: u64_field(obj, "batch").unwrap_or(0),
            topology: str_field(obj, "topology").unwrap_or_else(|| "star".into()),
            mode: str_field(obj, "mode").unwrap_or_else(|| "seq".into()),
            workers: u64_field(obj, "workers").unwrap_or(0),
            sites: u64_field(obj, "sites").unwrap_or(0),
            dim: u64_field(obj, "dim").unwrap_or(0),
            profile: str_field(obj, "profile").unwrap_or_default(),
            plane: str_field(obj, "plane").unwrap_or_default(),
            throughput,
            err: f64_field(obj, "err").unwrap_or(f64::NAN),
            msgs_total: u64_field(obj, "msgs_total").unwrap_or(0),
            root_in_msgs: u64_field(obj, "root_in_msgs").unwrap_or(0),
            bytes_up: u64_field(obj, "bytes_up").unwrap_or(0),
            bytes_down: u64_field(obj, "bytes_down").unwrap_or(0),
            broadcast_cost: u64_field(obj, "broadcast_cost").unwrap_or(0),
            broadcast_lag_rounds: u64_field(obj, "broadcast_lag_rounds").unwrap_or(0),
            broadcast_stale: u64_field(obj, "broadcast_stale").unwrap_or(0),
            tasks: u64_field(obj, "tasks").unwrap_or(0),
            steals: u64_field(obj, "steals").unwrap_or(0),
            parks: u64_field(obj, "parks").unwrap_or(0),
            worker_steals: str_field(obj, "worker_steals").unwrap_or_default(),
            worker_parks: str_field(obj, "worker_parks").unwrap_or_default(),
            churn: str_field(obj, "churn").unwrap_or_default(),
            snapshot_bytes: u64_field(obj, "snapshot_bytes").unwrap_or(0),
        });
    }
    out
}

/// One matched pair of measurements across two recordings.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Shared record identity ([`BenchRecord::key`]).
    pub key: String,
    /// Baseline (committed) measurement.
    pub old: BenchRecord,
    /// Fresh measurement.
    pub new: BenchRecord,
}

impl DiffRow {
    /// Relative throughput change, `new/old − 1`.
    pub fn speedup(&self) -> f64 {
        self.new.throughput / self.old.throughput - 1.0
    }
}

/// Pairs two recordings on [`BenchRecord::key`], returning the matched
/// rows plus the keys unique to either side (grid changes are reported,
/// not silently dropped).
pub fn diff(old: &[BenchRecord], new: &[BenchRecord]) -> (Vec<DiffRow>, Vec<String>, Vec<String>) {
    let old_by: BTreeMap<String, &BenchRecord> = old.iter().map(|r| (r.key(), r)).collect();
    let new_by: BTreeMap<String, &BenchRecord> = new.iter().map(|r| (r.key(), r)).collect();
    let mut rows = Vec::new();
    let mut only_old = Vec::new();
    let mut only_new = Vec::new();
    for (k, o) in &old_by {
        match new_by.get(k) {
            Some(n) => rows.push(DiffRow {
                key: k.clone(),
                old: (*o).clone(),
                new: (*n).clone(),
            }),
            None => only_old.push(k.clone()),
        }
    }
    for k in new_by.keys() {
        if !old_by.contains_key(k) {
            only_new.push(k.clone());
        }
    }
    (rows, only_old, only_new)
}

/// Per-protocol geometric-mean speedup over the matched rows — the
/// one-line-per-protocol summary a PR description quotes.
pub fn per_protocol_geomean(rows: &[DiffRow]) -> Vec<(String, f64, usize)> {
    let mut acc: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for row in rows {
        let label = format!("{}/{}", row.old.family, row.old.protocol);
        let ratio = (row.new.throughput / row.old.throughput).max(f64::MIN_POSITIVE);
        let e = acc.entry(label).or_insert((0.0, 0));
        e.0 += ratio.ln();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(label, (ln_sum, n))| (label, (ln_sum / n as f64).exp(), n))
        .collect()
}

/// Per-dimensionality geometric-mean speedup over the matched rows —
/// the `d`-axis breakout of the diff. Rows without a recorded `dim`
/// (the pre-kernel-A/B grid) aggregate under `d = 0`, printed as the
/// grid default. Empty when neither recording carries `d`-axis rows.
pub fn per_dim_geomean(rows: &[DiffRow]) -> Vec<(u64, f64, usize)> {
    let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for row in rows {
        let ratio = (row.new.throughput / row.old.throughput).max(f64::MIN_POSITIVE);
        let e = acc.entry(row.old.dim).or_insert((0.0, 0));
        e.0 += ratio.ln();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(dim, (ln_sum, n))| (dim, (ln_sum / n as f64).exp(), n))
        .collect()
}

/// Within-one-recording kernel A/B: for every `(family/protocol, d)`
/// pair measured under both the `"naive"` and `"blocked"` profiles,
/// the blocked-over-naive throughput ratio. This is the measured kernel
/// speedup (same rows, same run, same machine — only the linalg profile
/// differs), which `bench_diff` prints for the *fresh* recording so the
/// PR quote does not depend on a baseline file.
pub fn kernel_speedup_by_dim(records: &[BenchRecord]) -> Vec<(String, u64, f64)> {
    let mut naive: BTreeMap<(String, u64), f64> = BTreeMap::new();
    let mut blocked: BTreeMap<(String, u64), f64> = BTreeMap::new();
    for r in records {
        if r.dim == 0 {
            continue;
        }
        let id = (format!("{}/{}", r.family, r.protocol), r.dim);
        match r.profile.as_str() {
            "naive" => {
                naive.insert(id, r.throughput);
            }
            "blocked" => {
                blocked.insert(id, r.throughput);
            }
            _ => {}
        }
    }
    naive
        .into_iter()
        .filter_map(|(id, base)| {
            let fast = *blocked.get(&id)?;
            Some((id.0, id.1, fast / base))
        })
        .collect()
}

/// Per-protocol geometric mean of the measured wire-byte counters over
/// one recording's rows — the communication-volume summary `bench_diff`
/// prints (advisory; bytes changes are expected whenever a codec or a
/// protocol's message mix changes, so this never gates). Rows without
/// byte counters (pre-transport recordings) are skipped; the result is
/// empty when nothing was measured.
pub fn per_protocol_bytes_geomean(records: &[BenchRecord]) -> Vec<(String, f64, f64, usize)> {
    let mut acc: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for r in records {
        if r.bytes_up == 0 {
            continue;
        }
        let label = format!("{}/{}", r.family, r.protocol);
        let e = acc.entry(label).or_insert((0.0, 0.0, 0));
        e.0 += (r.bytes_up as f64).ln();
        e.1 += (r.bytes_down.max(1) as f64).ln();
        e.2 += 1;
    }
    acc.into_iter()
        .map(|(label, (up, down, n))| {
            let nf = n as f64;
            (label, (up / nf).exp(), (down / nf).exp(), n)
        })
        .collect()
}

/// Per-protocol geometric-mean *ratio* of wire bytes across the matched
/// rows of a diff (`new/old`), restricted to pairs where both sides
/// measured bytes — empty against a pre-transport baseline. Advisory,
/// like [`per_protocol_bytes_geomean`].
pub fn per_protocol_bytes_ratio(rows: &[DiffRow]) -> Vec<(String, f64, usize)> {
    let mut acc: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for row in rows {
        if row.old.bytes_up == 0 || row.new.bytes_up == 0 {
            continue;
        }
        let label = format!("{}/{}", row.old.family, row.old.protocol);
        let ratio = row.new.bytes_up as f64 / row.old.bytes_up as f64;
        let e = acc.entry(label).or_insert((0.0, 0));
        e.0 += ratio.ln();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(label, (ln_sum, n))| (label, (ln_sum / n as f64).exp(), n))
        .collect()
}

/// Per-protocol geometric mean of the measured snapshot wire size over
/// one recording's churn rows — the recovery-cost summary `bench_diff`
/// prints for the fresh recording (advisory; snapshot size tracks the
/// coordinator's state, which changes whenever a codec or sketch layout
/// does, so this never gates). Rows that took no snapshot are skipped;
/// empty when the recording predates the churn axis.
pub fn per_protocol_snapshot_geomean(records: &[BenchRecord]) -> Vec<(String, f64, usize)> {
    let mut acc: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for r in records {
        if r.snapshot_bytes == 0 {
            continue;
        }
        let label = format!("{}/{}", r.family, r.protocol);
        let e = acc.entry(label).or_insert((0.0, 0));
        e.0 += (r.snapshot_bytes as f64).ln();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(label, (ln_sum, n))| (label, (ln_sum / n as f64).exp(), n))
        .collect()
}

/// Per-protocol (and, when recorded, per-broadcast-plane) geometric
/// mean of the measured broadcast deliveries over one recording's rows
/// — the fan-out-cost summary `bench_diff` prints (advisory; broadcast
/// cost legitimately changes whenever the event mix or the plane
/// parameters do, so this never gates). The plane label joins the
/// grouping key so the gossip rows read next to their structural
/// baselines at the same deployment. Rows without broadcast deliveries
/// are skipped; empty when the recording predates the counter.
pub fn per_protocol_broadcast_geomean(records: &[BenchRecord]) -> Vec<(String, f64, usize)> {
    let mut acc: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for r in records {
        if r.broadcast_cost == 0 {
            continue;
        }
        let mut label = format!("{}/{}", r.family, r.protocol);
        if !r.plane.is_empty() {
            label.push_str(&format!(" plane:{}", r.plane));
        }
        let e = acc.entry(label).or_insert((0.0, 0));
        e.0 += (r.broadcast_cost as f64).ln();
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(label, (ln_sum, n))| (label, (ln_sum / n as f64).exp(), n))
        .collect()
}

/// The worst per-protocol geometric-mean regression, as a percentage
/// (`−12.0` = the slowest protocol lost 12% throughput), with its
/// label. `None` when nothing matched. This is the quantity the
/// `bench_diff --fail-on <pct>` gate compares against its threshold.
pub fn worst_protocol_regression(geomeans: &[(String, f64, usize)]) -> Option<(String, f64)> {
    geomeans
        .iter()
        .map(|(label, ratio, _)| (label.clone(), (ratio - 1.0) * 100.0))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "meta": {"sites": 64, "batches": [64]},
  "results": [
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "star", "elapsed_s": 0.5, "throughput_per_s": 240000, "err": 1.0e-3, "msgs_total": 9000, "up_msgs": 100, "broadcast_events": 3, "broadcast_cost": 192, "max_fan_in": 64, "root_in_msgs": 100, "hops": 1},
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree4", "mode": "threaded", "elapsed_s": 0.25, "throughput_per_s": 480000.5, "err": 1.1e-3, "msgs_total": 9500, "root_in_msgs": 30, "hops": 3}
  ]
}"#;

    #[test]
    fn parses_records_and_defaults_mode() {
        let recs = parse_bench_json(SAMPLE);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].mode, "seq"); // absent field defaults
        assert_eq!(recs[0].throughput, 240000.0);
        assert_eq!(recs[0].root_in_msgs, 100);
        assert_eq!(recs[1].mode, "threaded");
        assert_eq!(recs[1].topology, "tree4");
        assert_eq!(recs[1].root_in_msgs, 30);
        assert!((recs[1].err - 1.1e-3).abs() < 1e-12);
    }

    #[test]
    fn meta_object_is_not_a_record() {
        let recs = parse_bench_json(SAMPLE);
        assert!(recs.iter().all(|r| r.family == "hh"));
    }

    #[test]
    fn diff_matches_on_key_and_reports_strays() {
        let old = parse_bench_json(SAMPLE);
        let mut new = old.clone();
        new[0].throughput *= 1.25;
        new.remove(1);
        let (rows, only_old, only_new) = diff(&old, &new);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].speedup() - 0.25).abs() < 1e-12);
        assert_eq!(only_old.len(), 1);
        assert!(only_new.is_empty());
    }

    /// New-schema fixture: the pooled axis (`workers`) and an
    /// off-default site count (`sites`, the m = 1024 row).
    const POOLED_SAMPLE: &str = r#"{
  "meta": {"sites": 64},
  "results": [
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree8", "mode": "pooled", "workers": 2, "throughput_per_s": 100000, "err": 1.0e-3, "msgs_total": 9000, "root_in_msgs": 40, "hops": 2},
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree8", "mode": "pooled", "workers": 8, "sites": 1024, "throughput_per_s": 90000, "err": 1.0e-3, "msgs_total": 9500, "root_in_msgs": 55, "hops": 3}
  ]
}"#;

    /// PR 7 schema: pooled rows carry the work-stealing scheduler's
    /// counters, with per-worker detail as slash-separated strings.
    const SCHED_SAMPLE: &str = r#"{
  "meta": {"sites": 64},
  "results": [
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree8", "mode": "pooled", "workers": 3, "sites": 65536, "throughput_per_s": 800000, "err": 1.0e-3, "msgs_total": 9000, "root_in_msgs": 40, "hops": 6, "tasks": 224694, "steals": 35, "parks": 4, "wakeups": 4, "worker_steals": "12/9/14", "worker_parks": "2/0/2"}
  ]
}"#;

    #[test]
    fn scheduler_telemetry_parses_and_defaults_to_zero() {
        let recs = parse_bench_json(SCHED_SAMPLE);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].tasks, 224694);
        assert_eq!(recs[0].steals, 35);
        assert_eq!(recs[0].parks, 4);
        assert_eq!(recs[0].worker_steals, "12/9/14");
        assert_eq!(recs[0].worker_parks, "2/0/2");
        // The telemetry does not enter the record identity.
        assert_eq!(recs[0].key(), "hh/P1 batch=64 tree8 pooled w3 m65536");
        // Older recordings parse with the counters zeroed.
        let old = parse_bench_json(SAMPLE);
        assert_eq!(old[0].tasks, 0);
        assert!(old[0].worker_steals.is_empty());
    }

    #[test]
    fn workers_and_sites_axes_parse_and_distinguish_keys() {
        let recs = parse_bench_json(POOLED_SAMPLE);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].workers, 2);
        assert_eq!(recs[0].sites, 0); // grid default, not recorded
        assert_eq!(recs[0].key(), "hh/P1 batch=64 tree8 pooled w2");
        assert_eq!(recs[1].workers, 8);
        assert_eq!(recs[1].sites, 1024);
        assert_eq!(recs[1].key(), "hh/P1 batch=64 tree8 pooled w8 m1024");
        // Old-schema records (no workers field) keep their old keys.
        let old = parse_bench_json(SAMPLE);
        assert_eq!(old[0].workers, 0);
        assert_eq!(old[0].key(), "hh/P1 batch=64 star seq");
    }

    /// Gossip-plane axis (PR 10): rows carry a `plane` label plus the
    /// broadcast-shape counters next to `broadcast_cost`.
    const PLANE_SAMPLE: &str = r#"{
  "meta": {"sites": 64},
  "results": [
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree8", "mode": "pooled", "workers": 8, "sites": 65536, "plane": "gossip4x24", "throughput_per_s": 500000, "err": 1.0e-3, "msgs_total": 9000, "broadcast_cost": 700000, "broadcast_lag_rounds": 72, "broadcast_stale": 12, "root_in_msgs": 40, "hops": 6},
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree8", "mode": "pooled", "workers": 8, "sites": 65536, "plane": "fanout", "throughput_per_s": 450000, "err": 1.0e-3, "msgs_total": 9000, "broadcast_cost": 2800000, "broadcast_lag_rounds": 3, "broadcast_stale": 0, "root_in_msgs": 40, "hops": 6}
  ]
}"#;

    #[test]
    fn plane_axis_parses_keys_and_broadcast_geomean() {
        let recs = parse_bench_json(PLANE_SAMPLE);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].plane, "gossip4x24");
        assert_eq!(recs[0].broadcast_cost, 700000);
        assert_eq!(recs[0].broadcast_lag_rounds, 72);
        assert_eq!(recs[0].broadcast_stale, 12);
        // The plane enters the record identity, so gossip rows diff
        // against gossip rows and never against a structural baseline.
        assert_eq!(
            recs[0].key(),
            "hh/P1 batch=64 tree8 pooled w8 m65536 plane:gossip4x24"
        );
        assert_ne!(recs[0].key(), recs[1].key());
        // Plane-less recordings keep their keys and zeroed counters.
        let old = parse_bench_json(SAMPLE);
        assert!(old[0].plane.is_empty());
        assert_eq!(old[0].key(), "hh/P1 batch=64 star seq");
        assert_eq!(old[1].broadcast_cost, 0, "absent counter defaults to 0");

        // The advisory geomean groups per protocol + plane; rows
        // without the counter are skipped.
        let gm = per_protocol_broadcast_geomean(&recs);
        assert_eq!(gm.len(), 2);
        assert_eq!(gm[0].0, "hh/P1 plane:fanout");
        assert!((gm[0].1 - 2_800_000.0).abs() < 1e-6);
        assert_eq!(gm[1].0, "hh/P1 plane:gossip4x24");
        assert!((gm[1].1 - 700_000.0).abs() < 1e-6);
        let skipped = per_protocol_broadcast_geomean(&parse_bench_json(POOLED_SAMPLE));
        assert!(skipped.is_empty(), "rows without the counter are skipped");
    }

    #[test]
    fn gate_flags_worst_protocol_regression() {
        // Fixture pair: the committed baseline vs a fresh recording in
        // which hh/P1 lost ~20% throughput on both matched rows.
        let old = parse_bench_json(POOLED_SAMPLE);
        let mut new = old.clone();
        new[0].throughput *= 0.8;
        new[1].throughput *= 0.8;
        let (rows, _, _) = diff(&old, &new);
        let gm = per_protocol_geomean(&rows);
        let (label, pct) = worst_protocol_regression(&gm).expect("matched rows");
        assert_eq!(label, "hh/P1");
        assert!((pct - -20.0).abs() < 1e-9, "worst regression {pct}%");
        // The gate semantics bench_diff applies: fail when the worst
        // regression exceeds the threshold.
        assert!(pct < -10.0, "a 10% gate must trip");
        assert!(pct >= -30.0, "a 30% gate must not trip");
        // No regression ⇒ nothing to flag.
        let (rows, _, _) = diff(&old, &old);
        let (_, pct) = worst_protocol_regression(&per_protocol_geomean(&rows)).unwrap();
        assert!(pct.abs() < 1e-9);
    }

    /// `d`-axis fixture: MT-P2 at two dimensionalities under both
    /// linalg profiles, as the kernel A/B section records them.
    const DAXIS_SAMPLE: &str = r#"{
  "meta": {"sites": 64, "daxis_dims": [44, 512]},
  "results": [
    {"family": "matrix", "protocol": "P2", "batch": 256, "topology": "star", "mode": "seq", "dim": 44, "profile": "naive", "throughput_per_s": 50000, "err": 1.0e-2, "msgs_total": 900, "root_in_msgs": 40, "hops": 1},
    {"family": "matrix", "protocol": "P2", "batch": 256, "topology": "star", "mode": "seq", "dim": 44, "profile": "blocked", "throughput_per_s": 60000, "err": 1.0e-2, "msgs_total": 900, "root_in_msgs": 40, "hops": 1},
    {"family": "matrix", "protocol": "P2", "batch": 256, "topology": "star", "mode": "seq", "dim": 512, "profile": "naive", "throughput_per_s": 2000, "err": 1.0e-2, "msgs_total": 900, "root_in_msgs": 40, "hops": 1},
    {"family": "matrix", "protocol": "P2", "batch": 256, "topology": "star", "mode": "seq", "dim": 512, "profile": "blocked", "throughput_per_s": 5000, "err": 1.0e-2, "msgs_total": 900, "root_in_msgs": 40, "hops": 1}
  ]
}"#;

    #[test]
    fn dim_and_profile_parse_and_distinguish_keys() {
        let recs = parse_bench_json(DAXIS_SAMPLE);
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].dim, 44);
        assert_eq!(recs[0].profile, "naive");
        assert_eq!(recs[0].key(), "matrix/P2 batch=256 star seq d44 naive");
        assert_eq!(recs[3].key(), "matrix/P2 batch=256 star seq d512 blocked");
        // Old-schema records (no dim/profile) keep their old keys.
        let old = parse_bench_json(SAMPLE);
        assert_eq!(old[0].dim, 0);
        assert_eq!(old[0].profile, "");
        assert_eq!(old[0].key(), "hh/P1 batch=64 star seq");
    }

    #[test]
    fn per_dim_geomean_groups_by_dimension() {
        let old = parse_bench_json(DAXIS_SAMPLE);
        let mut new = old.clone();
        for r in &mut new {
            if r.dim == 512 {
                r.throughput *= 2.0;
            }
        }
        let (rows, _, _) = diff(&old, &new);
        let by_dim = per_dim_geomean(&rows);
        assert_eq!(by_dim.len(), 2);
        assert_eq!(by_dim[0].0, 44);
        assert!((by_dim[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(by_dim[1].0, 512);
        assert!((by_dim[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_speedup_pairs_profiles_within_one_recording() {
        let recs = parse_bench_json(DAXIS_SAMPLE);
        let ab = kernel_speedup_by_dim(&recs);
        assert_eq!(ab.len(), 2);
        assert_eq!(ab[0], ("matrix/P2".to_string(), 44, 1.2));
        assert_eq!(ab[1].1, 512);
        assert!((ab[1].2 - 2.5).abs() < 1e-12);
        // Rows without a d axis contribute nothing.
        assert!(kernel_speedup_by_dim(&parse_bench_json(SAMPLE)).is_empty());
    }

    /// PR 8 schema: records carry the measured wire-byte counters.
    const BYTES_SAMPLE: &str = r#"{
  "meta": {"sites": 64},
  "results": [
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "star", "mode": "seq", "throughput_per_s": 100000, "err": 1.0e-3, "msgs_total": 9000, "root_in_msgs": 40, "hops": 1, "bytes_up": 4000, "bytes_down": 1000},
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree4", "mode": "seq", "throughput_per_s": 90000, "err": 1.0e-3, "msgs_total": 9500, "root_in_msgs": 20, "hops": 3, "bytes_up": 16000, "bytes_down": 4000}
  ]
}"#;

    #[test]
    fn byte_counters_parse_and_default_to_zero() {
        let recs = parse_bench_json(BYTES_SAMPLE);
        assert_eq!(recs[0].bytes_up, 4000);
        assert_eq!(recs[0].bytes_down, 1000);
        // Bytes do not enter the record identity.
        assert_eq!(recs[0].key(), "hh/P1 batch=64 star seq");
        // Pre-transport recordings parse with the counters zeroed.
        let old = parse_bench_json(SAMPLE);
        assert_eq!(old[0].bytes_up, 0);
        assert_eq!(old[0].bytes_down, 0);
    }

    #[test]
    fn bytes_geomeans_skip_unmeasured_rows() {
        let recs = parse_bench_json(BYTES_SAMPLE);
        let gm = per_protocol_bytes_geomean(&recs);
        assert_eq!(gm.len(), 1);
        let (label, up, down, n) = &gm[0];
        assert_eq!(label, "hh/P1");
        assert_eq!(*n, 2);
        assert!((up - 8000.0).abs() < 1e-6, "geomean of 4k and 16k is 8k");
        assert!((down - 2000.0).abs() < 1e-6);
        // A pre-transport recording yields nothing.
        assert!(per_protocol_bytes_geomean(&parse_bench_json(SAMPLE)).is_empty());
        // Ratio across a diff: doubles when the fresh run doubles bytes,
        // and is empty against a baseline without byte counters.
        let mut new = recs.clone();
        for r in &mut new {
            r.bytes_up *= 2;
        }
        let (rows, _, _) = diff(&recs, &new);
        let ratios = per_protocol_bytes_ratio(&rows);
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0].1 - 2.0).abs() < 1e-9);
        let (rows, _, _) = diff(&parse_bench_json(SAMPLE), &parse_bench_json(SAMPLE));
        assert!(per_protocol_bytes_ratio(&rows).is_empty());
    }

    const CHURN_SAMPLE: &str = r#"{
  "meta": {"sites": 64},
  "results": [
    {"family": "hh", "protocol": "P1", "batch": 64, "topology": "tree4", "mode": "churn", "churn": "leave+join+crash", "throughput_per_s": 50000, "err": 1.0e-3, "msgs_total": 9000, "root_in_msgs": 40, "bytes_up": 4000, "bytes_down": 1000, "snapshot_bytes": 2048},
    {"family": "mt", "protocol": "P2", "batch": 16, "topology": "tree4", "mode": "churn", "churn": "leave+join+crash", "throughput_per_s": 20000, "err": 2.0e-2, "msgs_total": 800, "root_in_msgs": 20, "bytes_up": 9000, "bytes_down": 2000, "snapshot_bytes": 8192}
  ]
}"#;

    #[test]
    fn churn_rows_key_on_scenario_and_snapshot_bytes_stay_out_of_key() {
        let recs = parse_bench_json(CHURN_SAMPLE);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].churn, "leave+join+crash");
        assert_eq!(recs[0].snapshot_bytes, 2048);
        assert_eq!(
            recs[0].key(),
            "hh/P1 batch=64 tree4 churn churn:leave+join+crash"
        );
        // Ordinary rows are unaffected: no churn suffix, zero snapshot.
        let old = parse_bench_json(SAMPLE);
        assert!(old[0].churn.is_empty());
        assert_eq!(old[0].snapshot_bytes, 0);
        assert_eq!(old[0].key(), "hh/P1 batch=64 star seq");
    }

    #[test]
    fn snapshot_geomean_skips_snapshotless_rows() {
        let recs = parse_bench_json(CHURN_SAMPLE);
        let gm = per_protocol_snapshot_geomean(&recs);
        assert_eq!(gm.len(), 2);
        assert_eq!(gm[0].0, "hh/P1");
        assert!((gm[0].1 - 2048.0).abs() < 1e-6);
        assert_eq!(gm[1].0, "mt/P2");
        assert!((gm[1].1 - 8192.0).abs() < 1e-6);
        // Recordings that predate the churn axis yield nothing.
        assert!(per_protocol_snapshot_geomean(&parse_bench_json(BYTES_SAMPLE)).is_empty());
    }

    #[test]
    fn geomean_aggregates_per_protocol() {
        let old = parse_bench_json(SAMPLE);
        let mut new = old.clone();
        new[0].throughput *= 2.0;
        new[1].throughput *= 0.5;
        let (rows, _, _) = diff(&old, &new);
        let gm = per_protocol_geomean(&rows);
        assert_eq!(gm.len(), 1);
        let (label, ratio, n) = &gm[0];
        assert_eq!(label, "hh/P1");
        assert_eq!(*n, 2);
        assert!((ratio - 1.0).abs() < 1e-9, "geomean of 2x and 0.5x is 1");
    }
}
