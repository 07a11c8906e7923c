//! The persistent result store: a content-addressed response cache plus
//! the `SweepRunner` memo persistence file.
//!
//! Layout under the cache directory:
//!
//! * `<kk>/<key>.json` — one file per job, where `key` is
//!   [`tbstc::jobspec::JobSpec::cache_key`] (32 hex chars of the
//!   canonicalized spec) and `<kk>` is its first two hex chars — 256
//!   shard subdirectories, so concurrent writers never contend on one
//!   directory and listing stays cheap at millions of entries. The
//!   file holds the *exact response body bytes*, so a hit across a
//!   process restart is byte-identical to the original response.
//! * `memo.jsonl` — the serialized model-level memo cache: a version
//!   header line, then one `{"bandwidth_gbps":..,"job":..,"result":..}`
//!   entry per line, sorted for deterministic files. Checkpoint appends
//!   during a run go through [`ResultStore::append_memo`]; the shutdown
//!   flush rewrites the file merged and sorted.
//! * `jobs/<key>.json` — the durable [`JobStatus`] document of one
//!   long-running job, and `jobs/<key>.cancel` — a cancel-request
//!   marker another process's controller picks up between chunks.
//! * `locks/<name>.lock` — flock(2) advisory lock files. Every mutation
//!   of shared state (the memo file, a job's execution) is serialized
//!   through [`ResultStore::lock_store`] / [`ResultStore::lock_job`],
//!   which is what lets N serve processes share one store: the lock is
//!   per open file description, so it excludes other processes *and*
//!   other store handles inside one process.
//!
//! All readers are corruption-tolerant: a truncated or garbled file
//! logs a warning to stderr and degrades to a recompute — it never
//! panics and never serves bad bytes (every read is validated by a full
//! JSON parse before use). Corrupt memo lines are skipped (not fatal to
//! the rest of the file) and counted for the
//! `tbstc_memo_corrupt_lines_total` metric.
//!
//! Lock-discipline invariant (enforced by the `store-lock-discipline`
//! lint rule): this module is the only place in `tbstc-serve` allowed
//! to create, write, or rename files — every store mutation funnels
//! through the accessors here, where the locking lives.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tbstc::jobspec::{
    model_result_from_value, model_result_to_value, sim_job_from_value, sim_job_to_value,
};
use tbstc::jobstate::JobStatus;
use tbstc::json::Json;
use tbstc::runner::SimJob;
use tbstc::sim::ModelResult;
use tbstc::Error;

#[cfg(unix)]
#[allow(unsafe_code, reason = "flock(2) shim: the cross-process store lock")]
mod sys {
    //! flock(2) shim. Like the signal(2) and poll(2) shims, the process
    //! already links the platform C library, so one `extern "C"`
    //! declaration is the whole unsafe surface.

    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    /// Takes a non-blocking exclusive advisory lock on `file`.
    /// `Err(WouldBlock)` means another holder (process or open file
    /// description) has it. The lock releases when `file` closes.
    pub fn try_lock_exclusive(file: &File) -> io::Result<()> {
        loop {
            // SAFETY: flock(2) takes the raw fd (owned by `file`, alive
            // for the whole call) and an i32 flag word; it reads or
            // writes no memory of ours.
            let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
            if rc == 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    /// No advisory locking off unix — locks degrade to in-process
    /// single-flight only (the dispatcher still dedupes within one
    /// server).
    pub fn try_lock_exclusive(_file: &File) -> io::Result<()> {
        Ok(())
    }
}

/// A held advisory lock; dropping it releases the lock (the file
/// descriptor closes). See the module docs for the lock layout.
#[derive(Debug)]
pub struct StoreLock {
    _file: fs::File,
}

/// Name of the memo persistence file inside the cache directory.
pub const MEMO_FILE: &str = "memo.jsonl";
/// Header line identifying the memo file format.
pub const MEMO_HEADER: &str = r#"{"format":"tbstc-memo","version":1}"#;

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One persisted memo entry: the engine bandwidth it belongs to, the job
/// key and its result.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// Off-chip bandwidth of the engine that computed this entry, GB/s.
    pub bandwidth_gbps: f64,
    /// The memoized grid point.
    pub job: SimJob,
    /// Its simulation result.
    pub result: ModelResult,
}

/// The on-disk store (see module docs).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| Error::Io(format!("cannot create cache dir {}: {e}", dir.display())))?;
        Ok(ResultStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether `key` has the shape our cache keys have (32 hex chars).
    /// Anything else is refused — keys arrive in URLs and must never
    /// escape the cache directory.
    pub fn valid_key(key: &str) -> bool {
        key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())
    }

    /// The sharded entry path: `<first two hex>/<key>.json`.
    fn path_for(&self, key: &str) -> Option<PathBuf> {
        if !Self::valid_key(key) {
            return None;
        }
        let shard = key.get(..2)?;
        Some(self.dir.join(shard).join(format!("{key}.json")))
    }

    /// Fetches the cached response body for `key`, validating that the
    /// bytes still parse as JSON. Corrupt entries log a warning and
    /// report a miss (the caller recomputes and overwrites).
    pub fn get(&self, key: &str) -> Option<String> {
        let path = self.path_for(key)?;
        let body = fs::read_to_string(&path).ok()?;
        if Json::parse(body.trim_end()).is_err() {
            eprintln!(
                "tbstc-serve: warning: corrupt cache entry {} — recomputing",
                path.display()
            );
            return None;
        }
        Some(body)
    }

    /// Stores `body` under `key` atomically (`write_atomic`), so a
    /// crash mid-write can never leave a half-entry at the final path.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] on a malformed key, [`Error::Io`] on write
    /// failures.
    pub fn put(&self, key: &str, body: &str) -> Result<(), Error> {
        let path = self
            .path_for(key)
            .ok_or_else(|| Error::InvalidSpec(format!("malformed cache key `{key}`")))?;
        write_atomic(&path, body.as_bytes())
    }

    /// Path of the memo persistence file.
    pub fn memo_path(&self) -> PathBuf {
        self.dir.join(MEMO_FILE)
    }

    /// Opens (creating if needed) the lock file for `name`.
    fn open_lock_file(&self, name: &str) -> Result<fs::File, Error> {
        let locks = self.dir.join("locks");
        fs::create_dir_all(&locks)
            .map_err(|e| Error::Io(format!("cannot create lock dir {}: {e}", locks.display())))?;
        let path = locks.join(format!("{name}.lock"));
        fs::OpenOptions::new()
            .create(true)
            .truncate(false) // never rewrite: the fd exists only to flock
            .write(true)
            .open(&path)
            .map_err(|e| Error::Io(format!("cannot open lock file {}: {e}", path.display())))
    }

    /// Tries to take the named exclusive lock without waiting.
    /// `Ok(None)` means another holder has it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the lock file cannot be opened or locked for a
    /// reason other than contention.
    pub fn try_lock(&self, name: &str) -> Result<Option<StoreLock>, Error> {
        let file = self.open_lock_file(name)?;
        match sys::try_lock_exclusive(&file) {
            Ok(()) => Ok(Some(StoreLock { _file: file })),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(Error::Io(format!("cannot lock `{name}`: {e}"))),
        }
    }

    /// Takes the named exclusive lock, polling until it is free or
    /// `should_abort` returns true (`Ok(None)`). Polling rather than a
    /// blocking flock keeps the wait interruptible by shutdown.
    ///
    /// # Errors
    ///
    /// As [`ResultStore::try_lock`].
    pub fn lock(
        &self,
        name: &str,
        should_abort: &dyn Fn() -> bool,
    ) -> Result<Option<StoreLock>, Error> {
        loop {
            if let Some(lock) = self.try_lock(name)? {
                return Ok(Some(lock));
            }
            if should_abort() {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The store-wide lock guarding `memo.jsonl` mutations. Held only
    /// for the duration of a file rewrite, so waiting is unconditional.
    ///
    /// # Errors
    ///
    /// As [`ResultStore::try_lock`].
    pub fn lock_store(&self) -> Result<StoreLock, Error> {
        match self.lock("store", &|| false)? {
            Some(lock) => Ok(lock),
            None => Err(Error::Io("store lock wait aborted".into())),
        }
    }

    /// Tries to claim execution of job `key` fleet-wide (no waiting).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] on a malformed key, else as
    /// [`ResultStore::try_lock`].
    pub fn try_lock_job(&self, key: &str) -> Result<Option<StoreLock>, Error> {
        if !Self::valid_key(key) {
            return Err(Error::InvalidSpec(format!("malformed cache key `{key}`")));
        }
        self.try_lock(&format!("job-{key}"))
    }

    /// Claims execution of job `key` fleet-wide, waiting until the
    /// current holder finishes or `should_abort` trips (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// As [`ResultStore::try_lock_job`].
    pub fn lock_job(
        &self,
        key: &str,
        should_abort: &dyn Fn() -> bool,
    ) -> Result<Option<StoreLock>, Error> {
        if !Self::valid_key(key) {
            return Err(Error::InvalidSpec(format!("malformed cache key `{key}`")));
        }
        self.lock(&format!("job-{key}"), should_abort)
    }

    /// Persists the memo entries merged with whatever is already on disk
    /// (another process sharing the store may have appended since we
    /// loaded), deduplicated on the serialized line, sorted for a
    /// deterministic file, written atomically (`write_atomic`).
    /// The whole read-merge-write runs under the store lock so
    /// concurrent flushes cannot lose each other's entries.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on lock or write failures.
    pub fn save_memo(&self, entries: &[MemoEntry]) -> Result<(), Error> {
        let _lock = self.lock_store()?;
        let mut lines: BTreeSet<String> = entries.iter().map(serialize_memo_line).collect();
        if let Ok(text) = fs::read_to_string(self.memo_path()) {
            let mut existing = text.lines();
            if existing.next() == Some(MEMO_HEADER) {
                for line in existing {
                    if !line.is_empty() && parse_memo_line(line).is_ok() {
                        lines.insert(line.to_string());
                    }
                }
            }
        }
        let mut text = String::with_capacity(lines.iter().map(String::len).sum::<usize>() + 64);
        text.push_str(MEMO_HEADER);
        text.push('\n');
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        write_atomic(&self.memo_path(), text.as_bytes())
    }

    /// Appends freshly computed entries to the memo file under the store
    /// lock — the checkpoint write of the durable job path. Cheaper than
    /// [`ResultStore::save_memo`] (no rewrite) at the cost of the sorted
    /// invariant, which the shutdown flush restores.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on lock or write failures.
    pub fn append_memo(&self, entries: &[MemoEntry]) -> Result<(), Error> {
        if entries.is_empty() {
            return Ok(());
        }
        let _lock = self.lock_store()?;
        let path = self.memo_path();
        let fresh = fs::metadata(&path).map(|m| m.len() == 0).unwrap_or(true);
        let mut text = String::new();
        if fresh {
            text.push_str(MEMO_HEADER);
            text.push('\n');
        }
        for entry in entries {
            text.push_str(&serialize_memo_line(entry));
            text.push('\n');
        }
        let append = |path: &Path| -> std::io::Result<()> {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()
        };
        append(&path).map_err(|e| Error::Io(format!("cannot append to {}: {e}", path.display())))
    }

    /// Reloads the memo file. Tolerant by construction: a missing file
    /// is an empty cache; a bad header ignores the file; a truncated or
    /// malformed entry line is skipped and counted (one summary warning)
    /// while every other line still loads — the worst outcome is
    /// recomputation, never a panic. Returns the entries and the number
    /// of corrupt lines skipped (exported as
    /// `tbstc_memo_corrupt_lines_total`).
    pub fn load_memo_counting(&self) -> (Vec<MemoEntry>, u64) {
        let path = self.memo_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return (Vec::new(), 0),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(MEMO_HEADER) => {}
            None => return (Vec::new(), 0),
            Some(_) => {
                eprintln!(
                    "tbstc-serve: warning: {} has an unknown header — ignoring the memo cache",
                    path.display()
                );
                return (Vec::new(), 1);
            }
        }
        let mut out = Vec::new();
        let mut corrupt = 0u64;
        let mut first_bad: Option<(usize, Error)> = None;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            match parse_memo_line(line) {
                Ok(entry) => out.push(entry),
                Err(e) => {
                    corrupt += 1;
                    if first_bad.is_none() {
                        first_bad = Some((i + 1, e));
                    }
                }
            }
        }
        if let Some((lineno, e)) = first_bad {
            eprintln!(
                "tbstc-serve: warning: {}: skipped {corrupt} corrupt line(s), first at entry {lineno} ({e}) — kept {} entries",
                path.display(),
                out.len()
            );
        }
        (out, corrupt)
    }

    /// The durable job-status path for `key`: `jobs/<key>.json`.
    fn job_status_path(&self, key: &str) -> Option<PathBuf> {
        Self::valid_key(key).then(|| self.dir.join("jobs").join(format!("{key}.json")))
    }

    /// The cancel-request marker path for `key`: `jobs/<key>.cancel`.
    fn cancel_path(&self, key: &str) -> Option<PathBuf> {
        Self::valid_key(key).then(|| self.dir.join("jobs").join(format!("{key}.cancel")))
    }

    /// Persists a job's status document atomically (`write_atomic`),
    /// so readers in other processes only ever see complete documents.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] on a malformed id, [`Error::Io`] on write
    /// failures.
    pub fn put_job_status(&self, status: &JobStatus) -> Result<(), Error> {
        let path = self
            .job_status_path(&status.id)
            .ok_or_else(|| Error::InvalidSpec(format!("malformed job id `{}`", status.id)))?;
        write_atomic(&path, format!("{}\n", status.to_json()).as_bytes())
    }

    /// Fetches the persisted status of job `key`, if any. A corrupt
    /// document logs a warning and reads as absent.
    pub fn get_job_status(&self, key: &str) -> Option<JobStatus> {
        let path = self.job_status_path(key)?;
        let text = fs::read_to_string(&path).ok()?;
        match JobStatus::from_json(text.trim_end()) {
            Ok(status) => Some(status),
            Err(e) => {
                eprintln!(
                    "tbstc-serve: warning: corrupt job status {} ({e}) — ignoring",
                    path.display()
                );
                None
            }
        }
    }

    /// Every persisted job status, sorted by id for deterministic
    /// listings. Corrupt documents are skipped with a warning.
    pub fn list_job_statuses(&self) -> Vec<JobStatus> {
        let jobs_dir = self.dir.join("jobs");
        let entries = match fs::read_dir(&jobs_dir) {
            Ok(e) => e,
            Err(_) => return Vec::new(),
        };
        let mut out: Vec<JobStatus> = entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                let key = name.strip_suffix(".json")?;
                self.get_job_status(key)
            })
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// Drops a cancel-request marker for job `key`, visible to whichever
    /// process's controller owns the job — cancellation works across the
    /// fleet, not just within the process that took the DELETE.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] on a malformed key, [`Error::Io`] on write
    /// failures.
    pub fn request_cancel(&self, key: &str) -> Result<(), Error> {
        let path = self
            .cancel_path(key)
            .ok_or_else(|| Error::InvalidSpec(format!("malformed cache key `{key}`")))?;
        write_atomic(&path, b"cancel\n")
    }

    /// Whether a cancel marker is pending for job `key`.
    pub fn cancel_requested(&self, key: &str) -> bool {
        self.cancel_path(key).is_some_and(|p| p.exists())
    }

    /// Removes the cancel marker for job `key` (after honoring it, or
    /// when re-queueing a cancelled job).
    pub fn clear_cancel(&self, key: &str) {
        if let Some(path) = self.cancel_path(key) {
            let _ = fs::remove_file(path);
        }
    }
}

/// The store's one durable write: creates the parent directory, writes
/// `bytes` to a temp file unique to this process and call beside `path`
/// (`<stem>.tmp.<pid>.<n>`), syncs it, renames it over `path` and, on
/// unix, syncs the directory. On any error the temp file is removed, so
/// a failed write leaves neither a partial target nor a stray temp file.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir)
        .map_err(|e| Error::Io(format!("cannot create dir {}: {e}", dir.display())))?;
    let mut tmp_name = path.file_stem().unwrap_or_default().to_os_string();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = dir.join(tmp_name);
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // The new name survives a crash only once its directory is synced.
        #[cfg(unix)]
        fs::File::open(dir)?.sync_all()?;
        Ok(())
    };
    write().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        Error::Io(format!("cannot persist {}: {e}", path.display()))
    })
}

/// The canonical serialized line of one memo entry (the dedup key for
/// merge-on-save).
fn serialize_memo_line(e: &MemoEntry) -> String {
    Json::obj([
        ("bandwidth_gbps", Json::Num(e.bandwidth_gbps)),
        ("job", sim_job_to_value(&e.job)),
        ("result", model_result_to_value(&e.result)),
    ])
    .to_string()
}

fn parse_memo_line(line: &str) -> Result<MemoEntry, Error> {
    let v = Json::parse(line)?;
    let bandwidth_gbps = v
        .get("bandwidth_gbps")
        .and_then(Json::as_f64)
        .filter(|b| b.is_finite() && *b > 0.0)
        .ok_or_else(|| Error::InvalidSpec("memo entry missing bandwidth".into()))?;
    let job = sim_job_from_value(
        v.get("job")
            .ok_or_else(|| Error::InvalidSpec("memo entry missing job".into()))?,
    )?;
    let result = model_result_from_value(
        v.get("result")
            .ok_or_else(|| Error::InvalidSpec("memo entry missing result".into()))?,
    )?;
    Ok(MemoEntry {
        bandwidth_gbps,
        job,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbstc::prelude::*;
    use tbstc::sim::Arch;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("tbstc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    fn sample_entry(seed: u64) -> MemoEntry {
        let job = SimJob {
            arch: Arch::TbStc,
            model: ModelSpec::Gcn {
                nodes: 64,
                features: 16,
            },
            sparsity: 0.5,
            seed,
        };
        let engine = SweepRunner::with_runner(
            tbstc::sim::HwConfig::with_bandwidth_gbps(64.0),
            Runner::serial(),
        );
        MemoEntry {
            bandwidth_gbps: 64.0,
            job,
            result: engine.model(job),
        }
    }

    #[test]
    fn put_get_roundtrips_bytes() {
        let store = tmp_store("putget");
        let key = "0123456789abcdef0123456789abcdef";
        let body = "{\"x\":1}\n";
        store.put(key, body).unwrap();
        assert_eq!(store.get(key).as_deref(), Some(body));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn rejects_path_traversal_keys() {
        let store = tmp_store("keys");
        assert!(!ResultStore::valid_key("../../../../etc/passwd"));
        assert!(!ResultStore::valid_key("0123456789abcdef0123456789abcdeg"));
        assert!(store.get("../escape").is_none());
        assert!(store.put("../escape", "{}").is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_result_entry_reads_as_miss() {
        let store = tmp_store("corrupt");
        let key = "00000000000000000000000000000001";
        store.put(key, "{\"ok\":true}").unwrap();
        fs::write(store.path_for(key).unwrap(), "{\"ok\":tru").unwrap();
        assert!(store.get(key).is_none(), "corrupt entry must read as miss");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn entries_land_in_prefix_shard_dirs() {
        let store = tmp_store("shards");
        let key = "ab0000000000000000000000000000ff";
        store.put(key, "{\"v\":1}").unwrap();
        assert!(
            store.dir().join("ab").join(format!("{key}.json")).is_file(),
            "entry must live under its two-hex shard directory"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn memo_roundtrips() {
        let store = tmp_store("memo");
        let entries = vec![sample_entry(0), sample_entry(1)];
        store.save_memo(&entries).unwrap();
        let mut back = store.load_memo_counting().0;
        back.sort_by_key(|e| e.job.seed);
        assert_eq!(back, entries);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_memo_file_degrades_without_panic() {
        let store = tmp_store("truncated");
        let entries = vec![sample_entry(0), sample_entry(1), sample_entry(2)];
        store.save_memo(&entries).unwrap();
        // Chop the file mid-way through the last entry.
        let path = store.memo_path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 40]).unwrap();

        let back = store.load_memo_counting().0;
        assert_eq!(back.len(), 2, "entries before the tear survive");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_memo_lines_are_skipped_and_counted() {
        let store = tmp_store("skipcount");
        let entries = vec![sample_entry(0), sample_entry(1), sample_entry(2)];
        store.save_memo(&entries).unwrap();
        let path = store.memo_path();
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        // Garble the *middle* entry: everything after it must still load.
        lines[2] = "{\"bandwidth_gbps\":64.0,\"job\":gar";
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let (back, corrupt) = store.load_memo_counting();
        assert_eq!(back.len(), 2, "entries after the corrupt line survive");
        assert_eq!(corrupt, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn append_then_save_merges_without_duplicates() {
        let store = tmp_store("append");
        let a = sample_entry(0);
        let b = sample_entry(1);
        store.append_memo(std::slice::from_ref(&a)).unwrap();
        store.append_memo(std::slice::from_ref(&b)).unwrap();
        // Re-appending an identical entry duplicates the line on disk...
        store.append_memo(std::slice::from_ref(&a)).unwrap();
        // ...but the merge-on-save flush dedupes and sorts.
        store.save_memo(std::slice::from_ref(&b)).unwrap();
        let text = fs::read_to_string(store.memo_path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], MEMO_HEADER);
        assert_eq!(lines.len(), 3, "header + two unique entries: {text}");
        let mut sorted = lines[1..].to_vec();
        sorted.sort_unstable();
        assert_eq!(lines[1..], sorted[..], "flush leaves a sorted file");
        let mut back = store.load_memo_counting().0;
        back.sort_by_key(|e| e.job.seed);
        assert_eq!(back, vec![a, b]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn job_lock_excludes_second_holder_until_dropped() {
        let store = tmp_store("lock");
        let other = ResultStore::open(store.dir()).unwrap();
        let key = "0123456789abcdef0123456789abcdef";
        let held = store.try_lock_job(key).unwrap();
        assert!(held.is_some(), "first claim wins");
        if cfg!(unix) {
            assert!(
                other.try_lock_job(key).unwrap().is_none(),
                "second handle must see the job as claimed"
            );
            assert!(
                other.lock_job(key, &|| true).unwrap().is_none(),
                "aborting waiter gives up"
            );
        }
        drop(held);
        assert!(
            other.try_lock_job(key).unwrap().is_some(),
            "released lock is claimable"
        );
        assert!(store.try_lock_job("../escape").is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn job_status_persists_lists_and_survives_corruption() {
        let store = tmp_store("jobstatus");
        let spec = tbstc::jobspec::JobSpec::from_json(
            r#"{"type":"sweep","archs":["tb-stc"],
                "models":[{"kind":"gcn","nodes":64,"features":16}],
                "sparsities":[0.5,0.75]}"#,
        )
        .unwrap();
        let status = tbstc::jobstate::JobStatus::queued(&spec);
        store.put_job_status(&status).unwrap();
        assert_eq!(store.get_job_status(&status.id), Some(status.clone()));

        let running = status
            .clone()
            .with_state(tbstc::jobstate::JobState::Running { done: 1, total: 2 });
        store.put_job_status(&running).unwrap();
        assert_eq!(store.list_job_statuses(), vec![running.clone()]);

        fs::write(
            store.dir().join("jobs").join(format!("{}.json", status.id)),
            "{\"id\":tru",
        )
        .unwrap();
        assert!(store.get_job_status(&status.id).is_none());
        assert!(store.list_job_statuses().is_empty());
        assert!(store.get_job_status("not-a-key").is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn cancel_markers_roundtrip() {
        let store = tmp_store("cancel");
        let key = "ff000000000000000000000000000000";
        assert!(!store.cancel_requested(key));
        store.request_cancel(key).unwrap();
        assert!(store.cancel_requested(key));
        store.clear_cancel(key);
        assert!(!store.cancel_requested(key));
        assert!(store.request_cancel("../escape").is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Every `*.tmp.*` file anywhere under the store.
    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.extend(tmp_files(&path));
            } else if path.to_string_lossy().contains(".tmp.") {
                out.push(path);
            }
        }
        out
    }

    #[test]
    fn writes_leave_no_temp_file_whether_they_land_or_fail() {
        let store = tmp_store("atomic");
        let key = "0123456789abcdef0123456789abcdef";
        let spec = tbstc::jobspec::JobSpec::from_json(
            r#"{"type":"simulate","arch":"tb-stc","model":{"kind":"gcn","nodes":16,"features":8},"sparsity":0.5}"#,
        )
        .unwrap();
        let status = JobStatus::queued(&spec);
        let write = |name: &str| match name {
            "put" => store.put(key, "{}\n"),
            "save_memo" => store.save_memo(&[sample_entry(0)]),
            _ => store.put_job_status(&status),
        };
        let targets = [
            ("put", store.path_for(key).unwrap()),
            ("save_memo", store.memo_path()),
            ("put_job_status", store.job_status_path(&status.id).unwrap()),
        ];
        for (name, target) in &targets {
            write(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(target.is_file(), "{name} landed");
            assert_eq!(tmp_files(store.dir()), Vec::<PathBuf>::new(), "{name}");

            // A directory at the target makes the rename fail.
            fs::remove_file(target).unwrap();
            fs::create_dir(target).unwrap();
            assert!(write(name).is_err(), "{name} must fail onto a directory");
            assert_eq!(tmp_files(store.dir()), Vec::<PathBuf>::new(), "{name}");
            fs::remove_dir(target).unwrap();
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn garbage_memo_file_loads_empty() {
        let store = tmp_store("garbage");
        fs::write(store.memo_path(), "not a memo file\n").unwrap();
        assert!(store.load_memo_counting().0.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_memo_file_loads_empty() {
        let store = tmp_store("missing");
        assert!(store.load_memo_counting().0.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }
}
