//! Content-addressed schedule cache with crash-safe persistence and a
//! byte cap.
//!
//! Entries map a [`crate::proto::cache_key`] to the **rendered result
//! JSON** of a completed, non-degraded schedule. Storing the rendered
//! bytes (not the parsed result) is what makes warm replies
//! byte-identical to cold ones: the daemon replays the stored string
//! verbatim, it never re-renders.
//!
//! # Bounded residency
//!
//! The cache holds at most `max_bytes` resident bytes. Each entry is
//! charged its persisted line length (key plus escaped result, see
//! below), which is at least its result's length, so one number bounds
//! both the result bytes held in memory and the size of a compacted
//! file. Past the cap the least recently used entries are evicted:
//! recency is a logical clock bumped by every [`ScheduleCache::get`] hit
//! and every insert, so eviction order is a pure function of the
//! request sequence — deterministic, no wall clock. An entry larger
//! than the whole cap is never admitted. An evicted key simply misses
//! and is rescheduled cold, with the same bytes.
//!
//! # Persistence
//!
//! One ndjson line per entry — `{"key":"<16 hex>","result":"<escaped
//! result JSON>"}` — appended with a single `write_all` per line (the
//! same line-atomicity discipline as the `tms-trace` spill sink), so a
//! crash can tear at most the final line. Transient write faults are
//! retried with bounded backoff; a persistent fault (disk-full, a torn
//! write) degrades the cache to memory-only for the rest of the run —
//! the daemon keeps answering, it just stops persisting. The file is
//! append-only while the daemon runs (evictions are not written), so it
//! is bounded at the next open, not during a run.
//!
//! # Recovery
//!
//! [`ScheduleCache::open`] streams the file line by line and replays
//! its entries in append order under the cap: a later line for a key
//! supersedes an earlier one, and the oldest entries are evicted as
//! the cap is reached, so what survives is what a daemon that had run
//! with this cap would hold. Like `tms_trace::stream::
//! parse_spill_lossy` it recovers the valid prefix of a torn or
//! partially corrupted file: a torn *final* line is the expected crash
//! artifact and is silently dropped; malformed lines elsewhere are
//! dropped too (availability wins over the spill reader's hard-error
//! stance — a daemon that refuses to start over one bad cache line
//! would turn a disk hiccup into an outage) but are *counted* so the
//! operator sees the corruption. Whenever the file holds anything that
//! is not resident — dropped, superseded or evicted lines — the
//! survivors are rewritten, oldest first, so the file is clean and at
//! most `max_bytes` long for the next restart.

use crate::proto::key_hex;
use serde_json::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use tms_faults::{FaultPlan, IoFault};

/// Default cap on resident cache bytes: 1 MiB, about 1,700 of the
/// ~600-byte results a typical loop renders to.
pub const DEFAULT_CACHE_MAX_BYTES: usize = 1 << 20;
/// Retries per persist line before degrading (matches the spill sink).
const CACHE_WRITE_RETRIES: u32 = 3;
/// Base backoff between retries, doubled per attempt.
const CACHE_BACKOFF_US: u64 = 50;

/// What [`ScheduleCache::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries recovered (resident after the replay).
    pub recovered: usize,
    /// A torn (unterminated or unparseable) final line was dropped.
    pub dropped_torn_tail: bool,
    /// Malformed non-final lines dropped (counted corruption).
    pub dropped_corrupt: usize,
    /// Valid entries the replay evicted to stay under the cap.
    pub evicted: usize,
}

/// Outcome of one [`ScheduleCache::insert`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReport {
    /// Transient faults retried away.
    pub retries: u64,
    /// This insert degraded the cache to memory-only.
    pub degraded_now: bool,
    /// Entries evicted to make room (the new entry itself counts when
    /// it is larger than the whole cap and so is not admitted).
    pub evicted: u64,
}

/// One resident entry.
struct Entry {
    result: String,
    /// Bytes charged against the cap (the persisted line length).
    cost: usize,
    /// Logical time of the last insert or hit.
    tick: Cell<u64>,
}

/// Byte-capped LRU map plus append-only persistence. Not internally
/// synchronised — the daemon serialises access behind one mutex.
pub struct ScheduleCache {
    entries: BTreeMap<u64, Entry>,
    /// Recency index: last-use tick → key, oldest first. Interior
    /// mutability lets a read-only [`get`](ScheduleCache::get) refresh
    /// recency.
    recency: RefCell<BTreeMap<u64, u64>>,
    clock: Cell<u64>,
    bytes: usize,
    max_bytes: usize,
    path: Option<PathBuf>,
    file: Option<File>,
    /// 1-based persist-attempt counter, the key for injected faults.
    write_index: u64,
    plan: FaultPlan,
}

fn parse_entry(line: &str) -> Option<(u64, String)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let key = v.get("key")?.as_str()?;
    if key.len() != 16 {
        return None;
    }
    let key = u64::from_str_radix(key, 16).ok()?;
    let result = v.get("result")?.as_str()?;
    // The stored result must itself be a JSON object — anything else
    // is corruption, not an entry.
    let parsed: Value = serde_json::from_str(result).ok()?;
    parsed.as_object()?;
    Some((key, result.to_string()))
}

fn render_entry(key: u64, result: &str) -> String {
    let escaped = serde_json::to_string(&Value::Str(result.to_string()))
        .unwrap_or_else(|_| "\"\"".to_string());
    format!("{{\"key\":\"{}\",\"result\":{escaped}}}\n", key_hex(key))
}

impl ScheduleCache {
    fn empty(plan: FaultPlan, max_bytes: usize) -> ScheduleCache {
        ScheduleCache {
            entries: BTreeMap::new(),
            recency: RefCell::new(BTreeMap::new()),
            clock: Cell::new(0),
            bytes: 0,
            max_bytes,
            path: None,
            file: None,
            write_index: 0,
            plan,
        }
    }

    /// A memory-only cache (no persistence) holding at most
    /// `max_bytes` resident bytes.
    pub fn in_memory(plan: FaultPlan, max_bytes: usize) -> ScheduleCache {
        ScheduleCache::empty(plan, max_bytes)
    }

    /// Open (or create) a persisted cache at `path` under the default
    /// cap; see [`ScheduleCache::open_with_cap`].
    pub fn open(path: &Path, plan: FaultPlan) -> (ScheduleCache, LoadReport) {
        ScheduleCache::open_with_cap(path, plan, DEFAULT_CACHE_MAX_BYTES)
    }

    /// Open (or create) a persisted cache at `path` holding at most
    /// `max_bytes`, replaying the valid entries of whatever is there in
    /// append order and compacting the file when anything in it did not
    /// survive. I/O errors degrade to a memory-only cache — the daemon
    /// must come up regardless.
    pub fn open_with_cap(
        path: &Path,
        plan: FaultPlan,
        max_bytes: usize,
    ) -> (ScheduleCache, LoadReport) {
        let mut cache = ScheduleCache::empty(plan, max_bytes);
        let mut report = LoadReport::default();
        // Lines in the file that are not resident after the replay.
        let mut stale = 0usize;
        match File::open(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => {
                // Unreadable file: treat as fully corrupt, start cold.
                report.dropped_corrupt += 1;
            }
            Ok(file) => {
                let mut reader = BufReader::new(file);
                let mut buf = Vec::new();
                // A malformed line is corruption if another line
                // follows it, a torn tail if it is the last.
                let mut pending_bad = false;
                loop {
                    buf.clear();
                    match reader.read_until(b'\n', &mut buf) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(_) => {
                            report.dropped_corrupt += 1;
                            break;
                        }
                    }
                    if pending_bad {
                        report.dropped_corrupt += 1;
                        pending_bad = false;
                    }
                    let terminated = buf.last() == Some(&b'\n');
                    let line = std::str::from_utf8(&buf)
                        .ok()
                        .map(|l| l.trim_end_matches('\n').trim_end_matches('\r'));
                    match line.and_then(parse_entry) {
                        Some((key, result)) => {
                            if !terminated {
                                // A final line that parsed but was never
                                // terminated still counts as torn for
                                // reporting purposes; the entry itself is
                                // kept (its JSON was complete).
                                report.dropped_torn_tail = true;
                            }
                            let cost = render_entry(key, &result).len();
                            if cache.remove(key) {
                                stale += 1; // superseded by this line
                            }
                            let evicted = cache.admit(key, result, cost);
                            report.evicted += evicted as usize;
                        }
                        None => pending_bad = true,
                    }
                }
                if pending_bad {
                    report.dropped_torn_tail = true;
                }
            }
        }
        report.recovered = cache.entries.len();

        // Compact: rewrite the survivors, oldest first, so the file is
        // clean (appended lines stay parseable) and holds exactly what
        // is resident. Write-then-rename keeps the old file intact if
        // the rewrite itself is interrupted.
        let needs_compact = report.dropped_torn_tail
            || report.dropped_corrupt > 0
            || report.evicted > 0
            || stale > 0;
        if needs_compact {
            let mut out = String::with_capacity(cache.bytes);
            for key in cache.recency.borrow().values() {
                out.push_str(&render_entry(*key, &cache.entries[key].result));
            }
            let mut tmp = path.as_os_str().to_owned();
            tmp.push(".compact");
            if std::fs::write(&tmp, out).is_ok() {
                let _ = std::fs::rename(&tmp, path);
            }
        }

        cache.file = OpenOptions::new().create(true).append(true).open(path).ok();
        cache.path = Some(path.to_path_buf());
        (cache, report)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident bytes (each entry charged its persisted line length);
    /// never more than [`ScheduleCache::max_bytes`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The cap on resident bytes.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Whether inserts still reach the disk.
    pub fn persisting(&self) -> bool {
        self.file.is_some()
    }

    fn tick(&self) -> u64 {
        let now = self.clock.get() + 1;
        self.clock.set(now);
        now
    }

    /// The stored result for `key`, if any. A hit makes `key` the most
    /// recently used entry.
    pub fn get(&self, key: u64) -> Option<&str> {
        let entry = self.entries.get(&key)?;
        let now = self.tick();
        let mut recency = self.recency.borrow_mut();
        recency.remove(&entry.tick.replace(now));
        recency.insert(now, key);
        Some(&entry.result)
    }

    /// Drop `key` (the corruption-bypass path: the entry is rescheduled
    /// cold and re-inserted). Returns whether it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(entry) = self.entries.remove(&key) else {
            return false;
        };
        self.recency.get_mut().remove(&entry.tick.get());
        self.bytes -= entry.cost;
        true
    }

    /// Make `key` resident as the most recently used entry, evicting
    /// least recently used ones until the cap holds. Returns the number
    /// of entries evicted; an entry larger than the whole cap is not
    /// admitted and counts as one eviction. `key` must not be resident.
    fn admit(&mut self, key: u64, result: String, cost: usize) -> u64 {
        if cost > self.max_bytes {
            return 1;
        }
        let mut evicted = 0;
        while self.bytes + cost > self.max_bytes {
            let Some((_, oldest)) = self.recency.get_mut().pop_first() else {
                break;
            };
            let entry = self.entries.remove(&oldest).expect("indexed entry");
            self.bytes -= entry.cost;
            evicted += 1;
        }
        let now = self.tick();
        self.recency.get_mut().insert(now, key);
        self.entries.insert(
            key,
            Entry {
                result,
                cost,
                tick: Cell::new(now),
            },
        );
        self.bytes += cost;
        evicted
    }

    /// One faultable write attempt: either the injected fault or the
    /// real `write_all` outcome.
    fn write_attempt(&mut self, bytes: &[u8]) -> Result<(), (std::io::Error, bool)> {
        self.write_index += 1;
        if let Some(fault) = self.plan.cache_write_fault(self.write_index) {
            if fault == IoFault::ShortWrite {
                // A torn write reaches the file for real — that is the
                // crash artifact restart recovery must cope with.
                if let Some(f) = &mut self.file {
                    let _ = f.write_all(&bytes[..bytes.len() / 2]);
                    let _ = f.flush();
                }
            }
            let persistent = fault != IoFault::Interrupted;
            return Err((fault.to_io_error(), persistent));
        }
        let Some(f) = &mut self.file else {
            return Ok(()); // memory-only: nothing to do
        };
        match f.write_all(bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                let transient = e.kind() == std::io::ErrorKind::Interrupted;
                Err((e, !transient))
            }
        }
    }

    /// Insert `result` under `key` as the most recently used entry,
    /// evicting least recently used entries past the cap, and persist
    /// it when a file is attached. Transient faults retry with bounded
    /// backoff; persistent ones (or exhausted retries) degrade the
    /// cache to memory-only.
    pub fn insert(&mut self, key: u64, result: &str) -> WriteReport {
        let line = render_entry(key, result);
        self.remove(key);
        let mut report = WriteReport {
            evicted: self.admit(key, result.to_string(), line.len()),
            ..WriteReport::default()
        };
        if self.file.is_none() || !self.entries.contains_key(&key) {
            return report;
        }
        let mut attempt = 0u32;
        loop {
            match self.write_attempt(line.as_bytes()) {
                Ok(()) => return report,
                Err((_, persistent)) => {
                    if persistent || attempt >= CACHE_WRITE_RETRIES {
                        // Degrade: keep answering from memory, stop
                        // touching the disk. The file's existing prefix
                        // stays valid for the next restart.
                        self.file = None;
                        report.degraded_now = true;
                        return report;
                    }
                    attempt += 1;
                    report.retries += 1;
                    std::thread::sleep(std::time::Duration::from_micros(
                        CACHE_BACKOFF_US << attempt,
                    ));
                }
            }
        }
    }

    /// The backing path, if persisted.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_faults::FaultRates;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tmsd-cache-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut c, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r, LoadReport::default());
        c.insert(1, r#"{"ii":4}"#);
        c.insert(0xdead_beef_0000_0001, r#"{"ii":7,"name":"x"}"#);
        drop(c);
        let (c2, r2) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r2.recovered, 2);
        assert!(!r2.dropped_torn_tail);
        assert_eq!(c2.get(1), Some(r#"{"ii":4}"#));
        assert_eq!(
            c2.get(0xdead_beef_0000_0001),
            Some(r#"{"ii":7,"name":"x"}"#)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_and_compacted() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut c, _) = ScheduleCache::open(&path, FaultPlan::disabled());
        c.insert(1, r#"{"ii":4}"#);
        c.insert(2, r#"{"ii":5}"#);
        drop(c);
        // Tear the last line mid-way, as a killed process would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let (c2, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r.recovered, 1);
        assert!(r.dropped_torn_tail);
        assert_eq!(r.dropped_corrupt, 0);
        assert_eq!(c2.get(1), Some(r#"{"ii":4}"#));
        assert_eq!(c2.get(2), None);
        drop(c2);
        // Compaction left a clean file: reopening drops nothing.
        let (_, r3) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r3.recovered, 1);
        assert!(!r3.dropped_torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_counted_and_survivors_kept() {
        let path = tmp("midfile");
        let _ = std::fs::remove_file(&path);
        let good1 = render_entry(10, r#"{"ii":1}"#);
        let good2 = render_entry(11, r#"{"ii":2}"#);
        std::fs::write(&path, format!("{good1}garbage not json\n{good2}")).unwrap();
        let (c, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(r.recovered, 2);
        assert_eq!(r.dropped_corrupt, 1);
        assert_eq!(c.get(10), Some(r#"{"ii":1}"#));
        assert_eq!(c.get(11), Some(r#"{"ii":2}"#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_write_faults_retry_and_clear() {
        let path = tmp("transient");
        let _ = std::fs::remove_file(&path);
        // Write index 1 is transient-faulted (rate 1024 would fault
        // every attempt and exhaust retries, so pin a single index via
        // a quiet plan plus torn/fail modes off and rate that hits
        // sometimes — instead use rate 1024 but observe degradation).
        let plan = FaultPlan::with_rates(
            31,
            FaultRates {
                cache_write_transient_per_1024: 1024,
                ..FaultRates::default()
            },
        );
        let (mut c, _) = ScheduleCache::open(&path, plan);
        let w = c.insert(1, r#"{"ii":4}"#);
        // Every attempt faults transiently, so retries exhaust and the
        // cache degrades — but the entry stays resident.
        assert_eq!(w.retries, CACHE_WRITE_RETRIES as u64);
        assert!(w.degraded_now);
        assert!(!c.persisting());
        assert_eq!(c.get(1), Some(r#"{"ii":4}"#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_degrades_and_restart_recovers_prefix() {
        let path = tmp("tornwrite");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::with_rates(
            37,
            FaultRates {
                cache_write_transient_per_1024: 0,
                cache_write_torn_at: Some(2),
                ..FaultRates::default()
            },
        );
        let (mut c, _) = ScheduleCache::open(&path, plan);
        assert_eq!(c.insert(1, r#"{"ii":4}"#), WriteReport::default());
        let w = c.insert(2, r#"{"ii":5}"#);
        assert!(w.degraded_now, "a torn write must degrade immediately");
        assert!(!c.persisting());
        // Memory still serves both entries this run.
        assert_eq!(c.get(2), Some(r#"{"ii":5}"#));
        drop(c);
        // Restart: the intact first line survives, the torn second is
        // dropped by lossy recovery.
        let (c2, r) = ScheduleCache::open(&path, FaultPlan::disabled());
        assert_eq!(c2.get(1), Some(r#"{"ii":4}"#));
        assert_eq!(c2.get(2), None);
        assert!(r.dropped_torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    /// A result of exactly `len` bytes whose persisted line is
    /// `line_len(len)` bytes (no characters need escaping).
    fn result_of_len(len: usize) -> String {
        format!("{{\"pad\":\"{}\"}}", "x".repeat(len - 10))
    }

    #[test]
    fn eviction_is_byte_capped_lru_and_get_refreshes_recency() {
        let r = result_of_len(100);
        let cost = render_entry(1, &r).len();
        // Room for exactly three entries.
        let mut c = ScheduleCache::in_memory(FaultPlan::disabled(), 3 * cost + cost / 2);
        for key in 1..=3 {
            assert_eq!(c.insert(key, &r).evicted, 0);
        }
        assert_eq!(c.bytes(), 3 * cost);
        // A hit on 1 makes 2 the least recently used entry.
        assert!(c.get(1).is_some());
        let w = c.insert(4, &r);
        assert_eq!(w.evicted, 1);
        assert_eq!(c.get(2), None, "the LRU entry is the one evicted");
        assert!(c.get(1).is_some() && c.get(3).is_some() && c.get(4).is_some());
        assert!(c.bytes() <= c.max_bytes());
        // A larger entry evicts as many old ones as it needs, oldest
        // (by last use: 1, 3, 4 were just read in that order) first.
        let big = result_of_len(2 * r.len());
        assert_eq!(c.insert(5, &big).evicted, 2);
        assert_eq!((c.get(1), c.get(3)), (None, None));
        assert!(c.get(4).is_some() && c.get(5).is_some());
        assert!(c.bytes() <= c.max_bytes());
        // An entry larger than the whole cap is never admitted.
        let huge = result_of_len(4 * cost);
        assert_eq!(c.insert(6, &huge).evicted, 1);
        assert_eq!(c.get(6), None);
        assert!(c.get(4).is_some() && c.get(5).is_some());

        // Same operations, same survivors: eviction is deterministic.
        let run = || {
            let mut c = ScheduleCache::in_memory(FaultPlan::disabled(), 5 * cost);
            for i in 0..40u64 {
                c.insert(i % 11, &r);
                c.get((i * 7) % 11);
            }
            (0..11).filter(|&k| c.get(k).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert_eq!(run().len(), 5);
    }

    #[test]
    fn reopening_an_oversized_file_keeps_the_latest_entries_and_compacts() {
        let path = tmp("oversized");
        let _ = std::fs::remove_file(&path);
        let r = result_of_len(200);
        let cost = render_entry(0, &r).len();
        {
            let (mut c, _) = ScheduleCache::open_with_cap(&path, FaultPlan::disabled(), 1 << 20);
            for key in 0..20u64 {
                c.insert(key, &r);
            }
            // A key appended twice: its later line supersedes the first.
            c.insert(3, &r);
        }
        let cap = 5 * cost + cost / 2;
        assert!(std::fs::metadata(&path).unwrap().len() as usize > cap);
        let (c, report) = ScheduleCache::open_with_cap(&path, FaultPlan::disabled(), cap);
        assert_eq!(report.recovered, 5);
        assert!(!report.dropped_torn_tail);
        assert_eq!(report.dropped_corrupt, 0);
        assert!(report.evicted > 0);
        assert!(c.bytes() <= cap);
        // The most recently appended entries survive: 16..=19, then 3.
        let kept: Vec<u64> = (0..20).filter(|&k| c.get(k).is_some()).collect();
        assert_eq!(kept, vec![3, 16, 17, 18, 19]);
        drop(c);
        // The file was rewritten to at most the cap plus one entry.
        let size = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(size <= cap + cost, "compacted file is {size} bytes");
        // A clean, in-cap file reopens with nothing to drop or evict.
        let (_, again) = ScheduleCache::open_with_cap(&path, FaultPlan::disabled(), cap);
        assert_eq!(
            again,
            LoadReport {
                recovered: 5,
                ..LoadReport::default()
            }
        );
        let _ = std::fs::remove_file(&path);
    }
}
