//! The content-addressed result store.
//!
//! One file per cell result under `<dir>/entries/`, named by the FNV-1a
//! digest of `(cell token, code fingerprint)`. Entries are self-describing
//! and self-verifying:
//!
//! ```text
//! dvs-cell v1
//! token=<cell token>
//! fpr=<code fingerprint, 16 hex>
//! payload_fnv=<FNV-1a of the payload, 16 hex>
//! payload_len=<bytes>
//! --
//! <payload>
//! ```
//!
//! Writes are crash-safe (temp file, fsync, atomic rename). Reads re-check
//! everything: a malformed header, a stale fingerprint, a short payload, or
//! a digest mismatch *quarantines* the entry — it is moved (never silently
//! deleted) into `<dir>/quarantine/` for forensics, and the caller sees a
//! miss, recomputes, and overwrites. The store never fails a job: an
//! unavailable directory or an exhausted size budget sheds the write and
//! the service keeps serving compute.

use dvs_engine::{fnv1a, fnv1a_str, write_durable, FNV_OFFSET};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic first line of every entry file.
const MAGIC: &str = "dvs-cell v1";

/// The outcome of a store lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The entry existed, verified clean, and matches the current code
    /// fingerprint; the payload is returned exactly as stored.
    Hit(String),
    /// No entry (or the store is degraded/disabled).
    Miss,
    /// An entry existed but failed verification and was quarantined; the
    /// reason is one of `malformed`, `stale`, `truncated`, `corrupt`.
    Quarantined(&'static str),
}

/// The outcome of a store write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// Durably written.
    Stored,
    /// Shed — the service keeps running without the cache write. The reason
    /// is one of `store-unavailable`, `size-budget`, `io-error`.
    Shed(&'static str),
}

/// What [`Store::verify_all`] found.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Entries scanned.
    pub checked: usize,
    /// Entries that verified clean.
    pub ok: usize,
    /// `(file name, reason)` for every quarantined entry.
    pub quarantined: Vec<(String, String)>,
}

/// What [`Store::gc`] removed.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Entries removed because their fingerprint is not current.
    pub removed_stale: usize,
    /// Entries removed to get back under the size budget.
    pub removed_budget: usize,
    /// Entry bytes remaining after collection.
    pub remaining_bytes: u64,
}

/// A content-addressed result store rooted at a directory, or a disabled
/// placeholder when the directory is unavailable (degraded mode: every
/// lookup misses, every write sheds).
#[derive(Debug)]
pub struct Store {
    entries: PathBuf,
    quarantine: PathBuf,
    fingerprint: u64,
    budget: Option<u64>,
    bytes: u64,
    quarantine_seq: u64,
    enabled: bool,
}

/// The store key for a cell token under a code fingerprint.
pub fn cell_key(token: &str, fingerprint: u64) -> u64 {
    let mut h = fnv1a_str(FNV_OFFSET, token);
    for byte in fingerprint.to_le_bytes() {
        h = fnv1a(h, byte);
    }
    h
}

/// FNV-1a digest of a payload, the integrity check stored next to it.
pub fn payload_fnv(payload: &str) -> u64 {
    fnv1a_str(FNV_OFFSET, payload)
}

impl Store {
    /// Opens (creating if needed) the store under `dir`, keyed by
    /// `fingerprint`, with an optional entry-bytes budget.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or scanning the directories. Callers that
    /// want degradation instead of failure fall back to
    /// [`Store::disabled`].
    pub fn open(dir: &Path, fingerprint: u64, budget: Option<u64>) -> std::io::Result<Store> {
        let entries = dir.join("entries");
        let quarantine = dir.join("quarantine");
        fs::create_dir_all(&entries)?;
        fs::create_dir_all(&quarantine)?;
        let mut bytes = 0;
        for entry in fs::read_dir(&entries)? {
            bytes += entry?.metadata()?.len();
        }
        Ok(Store {
            entries,
            quarantine,
            fingerprint,
            budget,
            bytes,
            quarantine_seq: 0,
            enabled: true,
        })
    }

    /// A degraded store: every lookup misses, every write sheds. Used when
    /// the store directory cannot be opened — the service keeps computing.
    pub fn disabled() -> Store {
        Store {
            entries: PathBuf::new(),
            quarantine: PathBuf::new(),
            fingerprint: 0,
            budget: None,
            bytes: 0,
            quarantine_seq: 0,
            enabled: false,
        }
    }

    /// Whether this store is live (false in degraded mode).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current entry bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn entry_path(&self, token: &str) -> PathBuf {
        self.entries
            .join(format!("{:016x}.cell", cell_key(token, self.fingerprint)))
    }

    /// Looks `token` up, verifying integrity and fingerprint currency.
    /// Never errors: any unreadable or unverifiable entry is quarantined
    /// and reported as such, so the caller recomputes.
    pub fn get(&mut self, token: &str) -> Lookup {
        if !self.enabled {
            return Lookup::Miss;
        }
        let path = self.entry_path(token);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(_) => return self.quarantine_entry(&path, "malformed"),
        };
        match parse_entry(&raw, self.fingerprint) {
            Ok(entry) if entry.token == token => Lookup::Hit(entry.payload),
            // A key collision between distinct tokens: not corruption, but
            // not this cell's result either.
            Ok(_) => Lookup::Miss,
            Err(reason) => self.quarantine_entry(&path, reason),
        }
    }

    /// Moves a bad entry into the quarantine directory (never deletes
    /// evidence) and accounts its bytes out of the store.
    fn quarantine_entry(&mut self, path: &Path, reason: &'static str) -> Lookup {
        let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.quarantine_seq += 1;
        let dest = self
            .quarantine
            .join(format!("{name}.{}.{reason}", self.quarantine_seq));
        if fs::rename(path, &dest).is_err() {
            // Rename across a broken directory: fall back to removal so the
            // bad entry can at least not be served again.
            let _ = fs::remove_file(path);
        }
        self.bytes = self.bytes.saturating_sub(len);
        Lookup::Quarantined(reason)
    }

    /// Writes `payload` for `token` with [`write_durable`]. Sheds instead
    /// of erroring when degraded, over budget, or on I/O failure (the temp
    /// file is removed).
    pub fn put(&mut self, token: &str, payload: &str) -> PutOutcome {
        if !self.enabled {
            return PutOutcome::Shed("store-unavailable");
        }
        let entry = render_entry(token, self.fingerprint, payload);
        let path = self.entry_path(token);
        let old_len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let new_bytes = self.bytes - old_len + entry.len() as u64;
        if self.budget.is_some_and(|b| new_bytes > b) {
            return PutOutcome::Shed("size-budget");
        }
        match write_durable(&path, entry.as_bytes()) {
            Ok(()) => {
                self.bytes = new_bytes;
                PutOutcome::Stored
            }
            Err(_) => PutOutcome::Shed("io-error"),
        }
    }

    /// Verifies every entry on disk, quarantining anything that fails.
    pub fn verify_all(&mut self) -> VerifyReport {
        let mut report = VerifyReport::default();
        if !self.enabled {
            return report;
        }
        for path in self.entry_paths() {
            report.checked += 1;
            let verdict = fs::read(&path)
                .map_err(|_| "malformed")
                .and_then(|raw| parse_entry(&raw, self.fingerprint).map(|_| ()));
            match verdict {
                Ok(()) => report.ok += 1,
                Err(reason) => {
                    let name = path
                        .file_name()
                        .unwrap_or_default()
                        .to_string_lossy()
                        .into_owned();
                    self.quarantine_entry(&path, reason);
                    report.quarantined.push((name, reason.to_owned()));
                }
            }
        }
        report
    }

    /// Deletes stale-fingerprint entries, then (if a budget is configured)
    /// deletes further entries in file-name order until under budget.
    pub fn gc(&mut self) -> GcReport {
        let mut report = GcReport::default();
        if !self.enabled {
            return report;
        }
        let mut keep = Vec::new();
        for path in self.entry_paths() {
            let stale = match fs::read(&path) {
                Ok(raw) => matches!(parse_entry(&raw, self.fingerprint), Err("stale")),
                Err(_) => false,
            };
            if stale {
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if fs::remove_file(&path).is_ok() {
                    self.bytes = self.bytes.saturating_sub(len);
                    report.removed_stale += 1;
                    continue;
                }
            }
            keep.push(path);
        }
        if let Some(budget) = self.budget {
            for path in keep {
                if self.bytes <= budget {
                    break;
                }
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if fs::remove_file(&path).is_ok() {
                    self.bytes = self.bytes.saturating_sub(len);
                    report.removed_budget += 1;
                }
            }
        }
        report.remaining_bytes = self.bytes;
        report
    }

    /// Entry files in deterministic (name-sorted) order.
    fn entry_paths(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.entries)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "cell"))
                    .collect()
            })
            .unwrap_or_default();
        paths.sort();
        paths
    }

    /// Number of quarantined files accumulated under this store.
    pub fn quarantined_count(&self) -> usize {
        fs::read_dir(&self.quarantine)
            .map(|rd| rd.filter_map(|e| e.ok()).count())
            .unwrap_or(0)
    }
}

/// Renders the durable entry text for a payload.
fn render_entry(token: &str, fingerprint: u64, payload: &str) -> String {
    format!(
        "{MAGIC}\ntoken={token}\nfpr={fingerprint:016x}\npayload_fnv={:016x}\npayload_len={}\n--\n{payload}",
        payload_fnv(payload),
        payload.len(),
    )
}

struct Entry {
    token: String,
    payload: String,
}

/// Parses and fully verifies an entry file. The error is the quarantine
/// reason: `malformed`, `stale`, `truncated`, or `corrupt`.
fn parse_entry(raw: &[u8], fingerprint: u64) -> Result<Entry, &'static str> {
    let text = std::str::from_utf8(raw).map_err(|_| "malformed")?;
    let mut lines = text.splitn(6, '\n');
    let magic = lines.next().ok_or("malformed")?;
    if magic != MAGIC {
        return Err("malformed");
    }
    let token = field(lines.next(), "token=")?;
    let fpr = u64::from_str_radix(field(lines.next(), "fpr=")?, 16).map_err(|_| "malformed")?;
    let stored_fnv =
        u64::from_str_radix(field(lines.next(), "payload_fnv=")?, 16).map_err(|_| "malformed")?;
    let len: usize = field(lines.next(), "payload_len=")?
        .parse()
        .map_err(|_| "malformed")?;
    let rest = lines.next().ok_or("truncated")?;
    let payload = rest.strip_prefix("--\n").ok_or("malformed")?;
    if fpr != fingerprint {
        return Err("stale");
    }
    if payload.len() != len {
        return Err("truncated");
    }
    if payload_fnv(payload) != stored_fnv {
        return Err("corrupt");
    }
    Ok(Entry {
        token: token.to_owned(),
        payload: payload.to_owned(),
    })
}

fn field<'a>(line: Option<&'a str>, prefix: &str) -> Result<&'a str, &'static str> {
    line.and_then(|l| l.strip_prefix(prefix)).ok_or("malformed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dvs-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_then_get_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut store = Store::open(&dir, 7, None).expect("open");
        assert_eq!(store.get("cell-a"), Lookup::Miss);
        assert_eq!(store.put("cell-a", "{ \"x\": 1 }\n"), PutOutcome::Stored);
        assert_eq!(
            store.get("cell-a"),
            Lookup::Hit("{ \"x\": 1 }\n".to_owned())
        );
        // Payloads survive reopen.
        let mut store = Store::open(&dir, 7, None).expect("reopen");
        assert_eq!(
            store.get("cell-a"),
            Lookup::Hit("{ \"x\": 1 }\n".to_owned())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_is_quarantined_on_read() {
        let dir = tmp_dir("stale");
        Store::open(&dir, 1, None).expect("open").put("c", "v\n");
        let mut newer = Store::open(&dir, 2, None).expect("open");
        assert_eq!(newer.get("c"), Lookup::Miss, "different key, no entry");
        // Same key, old fingerprint inside: plant the old-revision entry
        // where the new fingerprint's key points.
        fs::write(newer.entry_path("c"), render_entry("c", 1, "v\n")).expect("plant stale entry");
        assert_eq!(newer.get("c"), Lookup::Quarantined("stale"));
        assert_eq!(newer.quarantined_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_corruption_are_quarantined() {
        let dir = tmp_dir("corrupt");
        let mut store = Store::open(&dir, 7, None).expect("open");
        store.put("c1", "payload one\n");
        store.put("c2", "payload two\n");
        // Truncate c1.
        let p1 = store.entry_path("c1");
        let raw = fs::read(&p1).expect("read");
        fs::write(&p1, &raw[..raw.len() - 4]).expect("truncate");
        assert_eq!(store.get("c1"), Lookup::Quarantined("truncated"));
        // Bit-flip c2's payload (same length).
        let p2 = store.entry_path("c2");
        let mut raw = fs::read(&p2).expect("read");
        let last = raw.len() - 2;
        raw[last] ^= 0x01;
        fs::write(&p2, &raw).expect("flip");
        assert_eq!(store.get("c2"), Lookup::Quarantined("corrupt"));
        assert_eq!(store.quarantined_count(), 2);
        // Both recomputable: a fresh put serves hits again.
        store.put("c1", "payload one\n");
        assert_eq!(store.get("c1"), Lookup::Hit("payload one\n".to_owned()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_budget_sheds_writes_but_keeps_reads() {
        let dir = tmp_dir("budget");
        let mut store = Store::open(&dir, 7, Some(200)).expect("open");
        assert_eq!(store.put("small", "x\n"), PutOutcome::Stored);
        let big = "y".repeat(400);
        assert_eq!(store.put("big", &big), PutOutcome::Shed("size-budget"));
        assert_eq!(store.get("small"), Lookup::Hit("x\n".to_owned()));
        assert_eq!(store.get("big"), Lookup::Miss);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_degrades_to_miss_and_shed() {
        let mut store = Store::disabled();
        assert!(!store.enabled());
        assert_eq!(store.get("any"), Lookup::Miss);
        assert_eq!(store.put("any", "v"), PutOutcome::Shed("store-unavailable"));
        assert_eq!(store.verify_all().checked, 0);
    }

    #[test]
    fn verify_all_sweeps_bad_entries() {
        let dir = tmp_dir("verify");
        let mut store = Store::open(&dir, 7, None).expect("open");
        store.put("good", "ok\n");
        store.put("bad", "soon broken\n");
        let p = store.entry_path("bad");
        let raw = fs::read(&p).expect("read");
        fs::write(&p, &raw[..raw.len() - 3]).expect("truncate");
        let report = store.verify_all();
        assert_eq!(report.checked, 2);
        assert_eq!(report.ok, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].1, "truncated");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_stale_then_enforces_budget() {
        let dir = tmp_dir("gc");
        // Write two entries under fingerprint 1.
        let mut old = Store::open(&dir, 1, None).expect("open");
        old.put("a", "aaa\n");
        old.put("b", "bbb\n");
        // Reopen under fingerprint 2 with fresh entries: old ones are stale.
        let mut mid = Store::open(&dir, 2, None).expect("open");
        mid.put("c", "ccc\n");
        mid.put("d", "ddd\n");
        drop(mid);
        // A third open with a budget: gc drops the stale pair first, then
        // evicts fresh entries until the remainder fits.
        let mut new = Store::open(&dir, 2, Some(120)).expect("open");
        let report = new.gc();
        assert_eq!(report.removed_stale, 2);
        assert!(
            report.removed_budget >= 1,
            "two ~90-byte entries exceed the 120-byte budget"
        );
        assert!(report.remaining_bytes <= 120);
        let _ = fs::remove_dir_all(&dir);
    }
}
