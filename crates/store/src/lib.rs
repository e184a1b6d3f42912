//! `fgbs-store` — the persistent pipeline-artifact store.
//!
//! The paper's economics are *profile once, query forever*: Steps A/B
//! characterise the suite on the reference machine, and every later
//! system-selection question (Steps C–E) reuses that characterisation.
//! This crate supplies the durable half of that bargain: a
//! content-addressed, versioned, on-disk store that persists each
//! pipeline stage keyed by a stable hash of its inputs, so a second
//! process — or a long-running query service — answers in O(lookup)
//! instead of O(pipeline).
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   objects/<kind>/<key>.bin     # self-describing artifact files
//! ```
//!
//! The object files are the store's only index: a listing is a scan of
//! `objects/`. Every object file carries a magic number, format version,
//! its own kind and key, and an FNV-1a checksum of the payload, so a
//! corrupted or truncated artifact is *detected* on read (and reported as
//! an error) rather than silently decoded. Writes go to a temp file
//! private to the writer and are published with an atomic rename: a
//! crash mid-write leaves the previous artifact intact.
//!
//! # Keys
//!
//! Keys are 128-bit stable hashes (hex) of the *inputs* of a stage —
//! suite content, architecture, clustering options, format version — so
//! any input change moves to a fresh key and stale artifacts are simply
//! never looked up again. Eviction is explicit ([`Store::gc`]), never
//! implicit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod flight;
mod hash;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use flight::SingleFlight;
pub use hash::{fnv64, hash_fields, StableHasher};

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::UNIX_EPOCH;

/// Artifact file magic bytes.
const MAGIC: &[u8; 4] = b"FGBS";
/// On-disk format version; bumping it orphans (but never corrupts) old
/// artifacts.
pub const FORMAT_VERSION: u32 = 1;

/// Sequence number that makes each `put`'s temp file name unique within
/// the process (the pid makes it unique across processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The pipeline stage an artifact belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// Steps A+B: a profiled suite (reference characterisation).
    Profile,
    /// Steps C+D: a reduced suite (clusters + representatives).
    Reduce,
    /// Step E: a prediction outcome on one target.
    Predict,
    /// A GA fitness-cache snapshot (genome → fitness).
    Fitness,
    /// A rendered service response body (byte-exact replay).
    Response,
    /// A portable codelet-snippet pack (see `fgbs-snippet`).
    Snippet,
    /// A flight-recorder dump captured at a failure (panic, 503,
    /// quarantine, armed failpoint); see `fgbs_trace::flightrec`.
    Diagnostic,
}

impl ArtifactKind {
    /// All kinds, in display order.
    pub const ALL: [ArtifactKind; 7] = [
        ArtifactKind::Profile,
        ArtifactKind::Reduce,
        ArtifactKind::Predict,
        ArtifactKind::Fitness,
        ArtifactKind::Response,
        ArtifactKind::Snippet,
        ArtifactKind::Diagnostic,
    ];

    /// Directory name of the kind (also written into each object frame).
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Profile => "profile",
            ArtifactKind::Reduce => "reduce",
            ArtifactKind::Predict => "predict",
            ArtifactKind::Fitness => "fitness",
            ArtifactKind::Response => "response",
            ArtifactKind::Snippet => "snippet",
            ArtifactKind::Diagnostic => "diagnostic",
        }
    }

    /// Parse a kind name.
    pub fn parse(s: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stored artifact, as described by its object file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Stage the artifact belongs to.
    pub kind: ArtifactKind,
    /// Content key (32 hex chars).
    pub key: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Unix seconds when the object file was last written (its mtime;
    /// eviction order).
    pub stored_at: u64,
}

/// Monotonic hit/miss/put/eviction counters, observable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `get`s answered from disk.
    pub hits: u64,
    /// `get`s that found nothing (caller must compute).
    pub misses: u64,
    /// Artifacts written.
    pub puts: u64,
    /// Artifacts removed by `gc` or `remove`.
    pub evictions: u64,
    /// Transient-I/O operations retried (see [`fgbs_fault::RetryPolicy`]).
    pub retries: u64,
    /// Corrupt artifacts moved aside for recomputation (self-healing).
    pub quarantines: u64,
}

/// Report of one garbage-collection pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifacts removed.
    pub removed: usize,
    /// Payload bytes freed.
    pub bytes_freed: u64,
}

/// The content-addressed artifact store.
///
/// Thread safe: `put`/`get`/`gc` all take `&self`; share it behind an
/// `Arc`. Every writer, in this process or another, publishes through a
/// temp file of its own and an atomic rename, so concurrent puts of one
/// key never see each other's partial writes.
pub struct Store {
    root: PathBuf,
    retry: fgbs_fault::RetryPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    evictions: AtomicU64,
    retries: AtomicU64,
    quarantines: AtomicU64,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("counters", &self.counters())
            .finish()
    }
}

impl Store {
    /// Open (creating if necessary) a store rooted at `root`. Opening
    /// reads and writes nothing but the `objects/` directory's creation.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Store {
            root,
            retry: fgbs_fault::RetryPolicy::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        })
    }

    /// Run `op`, retrying transient failures per the store's
    /// [`fgbs_fault::RetryPolicy`] with exponential backoff + jitter.
    fn with_retry<T>(&self, site: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if fgbs_fault::is_transient(&e) && attempt + 1 < self.retry.attempts => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    fgbs_fault::note_retry(site);
                    let pause = self.retry.backoff(attempt, fnv64(site.as_bytes()));
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn kind_dir(&self, kind: ArtifactKind) -> PathBuf {
        self.root.join("objects").join(kind.as_str())
    }

    fn object_path(&self, kind: ArtifactKind, key: &str) -> PathBuf {
        self.kind_dir(kind).join(format!("{key}.bin"))
    }

    /// Store `payload` under `(kind, key)`, replacing any previous
    /// version atomically (write a temp file, fsync, rename, fsync the
    /// directory so the rename itself is durable).
    ///
    /// The temp file is named for this call alone
    /// (`<key>.<pid>-<seq>.tmp`), so concurrent puts of one key never
    /// truncate or rename away each other's frame. The write is verified
    /// by reading the temp frame back before publishing; a short or
    /// mangled write is retried like any other transient I/O failure
    /// instead of publishing a corrupt artifact.
    pub fn put(&self, kind: ArtifactKind, key: &str, payload: &[u8]) -> io::Result<()> {
        let publish_started = std::time::Instant::now();
        let parent = self.kind_dir(kind);
        fs::create_dir_all(&parent)?;
        let path = parent.join(format!("{key}.bin"));
        let framed = frame(kind, key, payload);

        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = parent.join(format!("{key}.{}-{seq}.tmp", std::process::id()));
        let published = self.with_retry("store.write", || {
            fgbs_fault::maybe_io("store.write")?;
            let keep = fgbs_fault::short_len("store.write.short", framed.len());
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&framed[..keep])?;
                f.sync_all()?;
            }
            // Read-back verification: never publish a frame that does not
            // round-trip. Failures are reported as transient so the retry
            // loop rewrites rather than surfacing a corrupt artifact.
            let written = fs::read(&tmp)?;
            if unframe(&written, kind, key).is_err() {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("{kind}/{key}: write verification failed (short or mangled write)"),
                ));
            }
            fs::rename(&tmp, &path)?;
            sync_dir(&parent)
        });
        if let Err(e) = published {
            // No later put reuses this name, so a failed one cleans up
            // after itself (after a rename there is nothing to remove).
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }

        self.puts.fetch_add(1, Ordering::Relaxed);
        fgbs_trace::counter("store.puts", 1);
        fgbs_trace::stat("store.put_us", publish_started.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Fetch the payload stored under `(kind, key)`.
    ///
    /// `Ok(None)` means "not stored": either a plain miss, or a stored
    /// artifact that failed its integrity checks — wrong magic, version,
    /// identity, or checksum — and was *quarantined* (moved out of
    /// `objects/` into `quarantine/`) so the caller recomputes and
    /// republishes it. Transient read errors are retried with backoff
    /// before surfacing.
    pub fn get(&self, kind: ArtifactKind, key: &str) -> io::Result<Option<Vec<u8>>> {
        let lookup_started = std::time::Instant::now();
        let path = self.object_path(kind, key);
        let read = self.with_retry("store.read", || {
            fgbs_fault::maybe_io("store.read")?;
            fs::read(&path)
        });
        let mut framed = match read {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                fgbs_trace::counter("store.misses", 1);
                fgbs_trace::stat("store.get_us", lookup_started.elapsed().as_micros() as u64);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        fgbs_fault::corrupt("store.read.bytes", &mut framed);
        let result = match unframe(&framed, kind, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                fgbs_trace::counter("store.hits", 1);
                Ok(Some(payload))
            }
            Err(_) => {
                // Self-healing: a corrupt artifact is moved aside and
                // reported as a miss so upstream stages recompute it and
                // atomically republish under the same key.
                self.quarantine_object(kind, key, &path)?;
                self.misses.fetch_add(1, Ordering::Relaxed);
                fgbs_trace::counter("store.misses", 1);
                fgbs_trace::stat("store.corrupt_reads", 1);
                Ok(None)
            }
        };
        fgbs_trace::stat("store.get_us", lookup_started.elapsed().as_micros() as u64);
        result
    }

    /// Move a corrupt object out of `objects/` into `quarantine/`, so
    /// subsequent lookups miss cleanly.
    fn quarantine_object(&self, kind: ArtifactKind, key: &str, path: &Path) -> io::Result<()> {
        let qdir = self.root.join("quarantine");
        fs::create_dir_all(&qdir)?;
        let qpath = qdir.join(format!("{}-{key}.bin", kind.as_str()));
        match fs::rename(path, &qpath) {
            Ok(()) => {}
            // A concurrent get may have quarantined it first.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        fgbs_trace::counter("store.quarantines", 1);
        fgbs_trace::flightrec::trigger("quarantine.object", fgbs_trace::current_request_id());
        Ok(())
    }

    /// Quarantine externally submitted bytes that failed validation —
    /// e.g. a corrupt snippet pack received over HTTP. The bytes are
    /// preserved under `quarantine/` for inspection (never under
    /// `objects/`, so they can never be decoded as an artifact later)
    /// and the quarantine counter ticks exactly as for an on-disk
    /// corruption, so `/metrics` surfaces rejected submissions.
    pub fn quarantine_external(
        &self,
        kind: ArtifactKind,
        key: &str,
        bytes: &[u8],
    ) -> io::Result<PathBuf> {
        let qdir = self.root.join("quarantine");
        fs::create_dir_all(&qdir)?;
        let qpath = qdir.join(format!("{}-{key}.submitted", kind.as_str()));
        fs::write(&qpath, bytes)?;
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        fgbs_trace::counter("store.quarantines", 1);
        fgbs_trace::stat("store.quarantine.external", 1);
        fgbs_trace::flightrec::trigger("quarantine.external", fgbs_trace::current_request_id());
        Ok(qpath)
    }

    /// Remove one artifact; true when something was deleted.
    pub fn remove(&self, kind: ArtifactKind, key: &str) -> io::Result<bool> {
        match fs::remove_file(self.object_path(kind, key)) {
            Ok(()) => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                fgbs_trace::counter("store.evictions", 1);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The object files, one scan of `objects/<kind>/` per kind, with
    /// their keys: the file name without `.bin` (temp files and other
    /// strays are skipped). Nothing is read or stat'ed.
    fn objects(&self) -> impl Iterator<Item = (ArtifactKind, String, fs::DirEntry)> + '_ {
        ArtifactKind::ALL.into_iter().flat_map(move |kind| {
            let entries = fs::read_dir(self.kind_dir(kind))
                .into_iter()
                .flatten()
                .flatten();
            entries.filter_map(move |entry| {
                let key = entry
                    .file_name()
                    .to_str()?
                    .strip_suffix(".bin")?
                    .to_string();
                Some((kind, key, entry))
            })
        })
    }

    /// Every stored artifact, sorted by kind then key (stable listing):
    /// `stored_at` is the file's mtime, and `bytes` the file length minus
    /// the frame. No object is read.
    pub fn list(&self) -> Vec<ArtifactMeta> {
        let mut listed: Vec<ArtifactMeta> = self
            .objects()
            .filter_map(|(kind, key, entry)| {
                // Gone since the directory was read (gc, quarantine).
                let meta = entry.metadata().ok()?;
                let stored_at = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_secs());
                Some(ArtifactMeta {
                    kind,
                    bytes: payload_len(meta.len(), kind, &key),
                    key,
                    stored_at,
                })
            })
            .collect();
        listed.sort_by(|a, b| (a.kind, &a.key).cmp(&(b.kind, &b.key)));
        listed
    }

    /// Number of stored artifacts: the names [`Store::list`] would list,
    /// counted without a `stat` per object.
    pub fn count(&self) -> usize {
        self.objects().count()
    }

    /// Evict the oldest artifacts, keeping at most `keep_per_kind` of
    /// each kind (newest first by `stored_at`, key as tie-break).
    pub fn gc(&self, keep_per_kind: usize) -> io::Result<GcReport> {
        let gc_started = std::time::Instant::now();
        let mut artifacts = self.list();
        artifacts.sort_by(|a, b| {
            a.kind
                .cmp(&b.kind)
                .then_with(|| b.stored_at.cmp(&a.stored_at))
                .then_with(|| a.key.cmp(&b.key))
        });
        let mut report = GcReport::default();
        for same_kind in artifacts.chunk_by(|a, b| a.kind == b.kind) {
            for meta in same_kind.iter().skip(keep_per_kind) {
                if self.remove(meta.kind, &meta.key)? {
                    report.removed += 1;
                    report.bytes_freed += meta.bytes;
                }
            }
        }
        fgbs_trace::stat("store.gc_us", gc_started.elapsed().as_micros() as u64);
        Ok(report)
    }

    /// Unframe every object in the store; returns a description of each
    /// one that fails its integrity checks (empty = healthy).
    pub fn verify(&self) -> Vec<String> {
        let mut issues = Vec::new();
        for meta in self.list() {
            let framed = match fs::read(self.object_path(meta.kind, &meta.key)) {
                Ok(b) => b,
                // Removed since the listing: no longer stored, not corrupt.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => {
                    issues.push(format!("{}/{}: unreadable object: {e}", meta.kind, meta.key));
                    continue;
                }
            };
            if let Err(msg) = unframe(&framed, meta.kind, &meta.key) {
                issues.push(format!("{}/{}: {msg}", meta.kind, meta.key));
            }
        }
        issues
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }
}

/// Fsync a directory so a just-renamed entry inside it survives a crash.
/// The file's own `sync_all` makes the *content* durable; only a sync of
/// the parent directory makes the *name* durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    fgbs_fault::maybe_io("store.dir_sync")?;
    fs::File::open(dir)?.sync_all()
}

/// The object file frame: magic, format version, kind and key (each a
/// `u64` length and its bytes), the payload's FNV-1a checksum, and the
/// payload (a `u64` length and its bytes). All integers little endian.
fn frame(kind: ArtifactKind, key: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(u32::from_le_bytes(*MAGIC));
    w.put_u32(FORMAT_VERSION);
    w.put_str(kind.as_str());
    w.put_str(key);
    w.put_u64(fnv64(payload));
    w.put_bytes(payload);
    w.into_bytes()
}

/// Payload length of a [`frame`]d object file `file_len` bytes long: the
/// frame adds 40 fixed bytes (magic 4, version 4, checksum 8 and three
/// `u64` lengths) plus the kind and key strings.
fn payload_len(file_len: u64, kind: ArtifactKind, key: &str) -> u64 {
    file_len.saturating_sub(40 + kind.as_str().len() as u64 + key.len() as u64)
}

/// Validate an object file frame and extract its payload.
fn unframe(framed: &[u8], kind: ArtifactKind, key: &str) -> Result<Vec<u8>, String> {
    let mut r = ByteReader::new(framed);
    let magic = r.get_u32().map_err(|e| e.to_string())?;
    if magic != u32::from_le_bytes(*MAGIC) {
        return Err("bad magic".into());
    }
    let version = r.get_u32().map_err(|e| e.to_string())?;
    if version != FORMAT_VERSION {
        return Err(format!("format version {version} != {FORMAT_VERSION}"));
    }
    let stored_kind = r.get_str().map_err(|e| e.to_string())?;
    let stored_key = r.get_str().map_err(|e| e.to_string())?;
    if stored_kind != kind.as_str() || stored_key != key {
        return Err(format!(
            "identity mismatch: file says {stored_kind}/{stored_key}"
        ));
    }
    let checksum = r.get_u64().map_err(|e| e.to_string())?;
    let payload = r.get_bytes().map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    if fnv64(&payload) != checksum {
        return Err("payload checksum mismatch".into());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The failpoint registry is process-global; tests that install a
    /// plan serialize on this lock so parallel store tests (which expect
    /// no faults) never observe one.
    static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_guard() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fgbs-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_counters() {
        let _g = fault_guard();
        let root = tmp_root("roundtrip");
        let s = Store::open(&root).unwrap();
        assert_eq!(s.get(ArtifactKind::Profile, "k1").unwrap(), None);
        s.put(ArtifactKind::Profile, "k1", b"hello artifacts").unwrap();
        assert_eq!(
            s.get(ArtifactKind::Profile, "k1").unwrap().as_deref(),
            Some(&b"hello artifacts"[..])
        );
        let c = s.counters();
        assert_eq!((c.hits, c.misses, c.puts), (1, 1, 1));
        let listed: Vec<_> = s.list().into_iter().map(|m| (m.kind, m.key)).collect();
        assert_eq!(listed, vec![(ArtifactKind::Profile, "k1".to_string())]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let _g = fault_guard();
        let root = tmp_root("reopen");
        {
            let s = Store::open(&root).unwrap();
            s.put(ArtifactKind::Predict, "p", &[1, 2, 3]).unwrap();
        }
        let s = Store::open(&root).unwrap();
        assert_eq!(s.get(ArtifactKind::Predict, "p").unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(s.list().len(), 1);
        assert!(s.verify().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn list_reports_exact_payload_lengths_and_skips_strays() {
        let _g = fault_guard();
        let root = tmp_root("list-bytes");
        let s = Store::open(&root).unwrap();
        let cases: [(ArtifactKind, &str, usize); 6] = [
            (ArtifactKind::Profile, "p", 0),
            (ArtifactKind::Reduce, "0123456789abcdef0123456789abcdef", 1),
            (ArtifactKind::Predict, "k", 255),
            (ArtifactKind::Response, "a-longer-key-with.dots.in-it", 4096),
            (ArtifactKind::Diagnostic, "req7-quarantine.object-123", 70_001),
            (ArtifactKind::Fitness, "f", 3),
        ];
        for &(kind, key, n) in &cases {
            s.put(kind, key, &vec![0xA5; n]).unwrap();
        }
        // A crash mid-put leaves a temp file; other strays may sit there too.
        fs::write(root.join("objects/predict/k.123-4.tmp"), b"torn").unwrap();
        fs::write(root.join("objects/predict/notes.txt"), b"not an object").unwrap();

        let mut expected: Vec<ArtifactMeta> = cases
            .iter()
            .map(|&(kind, key, n)| ArtifactMeta {
                kind,
                key: key.to_string(),
                bytes: n as u64,
                stored_at: 0,
            })
            .collect();
        expected.sort_by(|a, b| (a.kind, &a.key).cmp(&(b.kind, &b.key)));
        let listed: Vec<ArtifactMeta> = s
            .list()
            .into_iter()
            .map(|m| ArtifactMeta { stored_at: 0, ..m })
            .collect();
        assert_eq!(listed, expected);
        assert_eq!(s.count(), listed.len(), "the count skips strays too");
        assert!(s.verify().is_empty(), "strays are not objects");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_object_is_detected_and_quarantined_not_decoded() {
        let _g = fault_guard();
        let root = tmp_root("corrupt-obj");
        let s = Store::open(&root).unwrap();
        s.put(ArtifactKind::Reduce, "r", b"payload-bytes").unwrap();
        // Flip a byte in the middle of the object file.
        let path = root.join("objects/reduce/r.bin");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(!s.verify().is_empty(), "verify sees the corruption");
        // Self-healing: the corrupt frame is never decoded — it is moved
        // to quarantine/ and reported as a miss so the caller recomputes.
        assert_eq!(s.get(ArtifactKind::Reduce, "r").unwrap(), None);
        assert_eq!(s.counters().quarantines, 1);
        assert!(root.join("quarantine/reduce-r.bin").exists());
        assert!(!path.exists());
        assert!(s.verify().is_empty(), "the victim left objects/");
        // Republishing under the same key completes the heal.
        s.put(ArtifactKind::Reduce, "r", b"payload-bytes").unwrap();
        assert_eq!(
            s.get(ArtifactKind::Reduce, "r").unwrap(),
            Some(b"payload-bytes".to_vec())
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn interrupted_write_leaves_old_artifact_intact() {
        let _g = fault_guard();
        let root = tmp_root("crash");
        let s = Store::open(&root).unwrap();
        s.put(ArtifactKind::Profile, "suite", b"version-1").unwrap();
        // Simulate a crash mid-rewrite: a partially written .tmp exists
        // but the rename never happened.
        let tmp = root.join("objects/profile/suite.tmp");
        fs::write(&tmp, b"garbage half-written artifa").unwrap();
        // The published artifact still reads back exactly.
        assert_eq!(
            s.get(ArtifactKind::Profile, "suite").unwrap(),
            Some(b"version-1".to_vec())
        );
        // Re-opening the store is unaffected by the stray .tmp.
        drop(s);
        let s = Store::open(&root).unwrap();
        assert_eq!(
            s.get(ArtifactKind::Profile, "suite").unwrap(),
            Some(b"version-1".to_vec())
        );
        assert!(s.verify().is_empty(), "tmp files are not artifacts");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn replacement_is_atomic_and_versioned_by_key() {
        let _g = fault_guard();
        let root = tmp_root("replace");
        let s = Store::open(&root).unwrap();
        s.put(ArtifactKind::Response, "q", b"old").unwrap();
        s.put(ArtifactKind::Response, "q", b"new").unwrap();
        assert_eq!(s.get(ArtifactKind::Response, "q").unwrap(), Some(b"new".to_vec()));
        assert_eq!(s.list().len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_keeps_newest_per_kind() {
        let _g = fault_guard();
        let root = tmp_root("gc");
        let s = Store::open(&root).unwrap();
        for i in 0..5 {
            s.put(ArtifactKind::Predict, &format!("k{i}"), &[i]).unwrap();
        }
        s.put(ArtifactKind::Profile, "keepme", b"x").unwrap();
        // Make eviction order deterministic despite same-second stamps.
        for i in 0..5u64 {
            fs::File::options()
                .write(true)
                .open(root.join(format!("objects/predict/k{i}.bin")))
                .unwrap()
                .set_modified(UNIX_EPOCH + std::time::Duration::from_secs(1000 + i))
                .unwrap();
        }
        let report = s.gc(2).unwrap();
        assert_eq!(report.removed, 3);
        assert_eq!(report.bytes_freed, 3);
        let left: Vec<String> = s.list().into_iter().map(|m| m.key).collect();
        assert_eq!(left, vec!["keepme", "k3", "k4"]);
        assert_eq!(s.counters().evictions, 3);
        assert!(s.verify().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn external_quarantine_preserves_bytes_and_counts() {
        let _g = fault_guard();
        let root = tmp_root("quarantine-ext");
        let s = Store::open(&root).unwrap();
        let qpath = s
            .quarantine_external(ArtifactKind::Snippet, "badkey", b"mangled submission")
            .unwrap();
        assert!(qpath.starts_with(root.join("quarantine")));
        assert_eq!(fs::read(&qpath).unwrap(), b"mangled submission");
        assert_eq!(s.counters().quarantines, 1);
        // Nothing was published: the store itself stays healthy and empty.
        assert!(s.list().is_empty());
        assert!(s.verify().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wrong_identity_is_rejected() {
        let _g = fault_guard();
        let root = tmp_root("identity");
        let s = Store::open(&root).unwrap();
        s.put(ArtifactKind::Profile, "a", b"data").unwrap();
        // Copy the object under a different key: identity check must trip
        // and the impostor is quarantined, never decoded.
        fs::copy(
            root.join("objects/profile/a.bin"),
            root.join("objects/profile/b.bin"),
        )
        .unwrap();
        assert_eq!(s.get(ArtifactKind::Profile, "b").unwrap(), None);
        assert_eq!(s.counters().quarantines, 1);
        assert!(!root.join("objects/profile/b.bin").exists());
        // The original is untouched.
        assert_eq!(s.get(ArtifactKind::Profile, "a").unwrap(), Some(b"data".to_vec()));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn transient_read_errors_are_retried() {
        let _g = fault_guard();
        let root = tmp_root("retry-read");
        let s = Store::open(&root).unwrap();
        s.put(ArtifactKind::Profile, "k", b"payload").unwrap();
        // Fail the first two read attempts; the bounded retry loop
        // (4 attempts by default) recovers without surfacing an error.
        fgbs_fault::install(fgbs_fault::FaultPlan::new(11).with_rule(
            "store.read",
            fgbs_fault::FaultAction::Err,
            1.0,
            2,
        ));
        assert_eq!(s.get(ArtifactKind::Profile, "k").unwrap(), Some(b"payload".to_vec()));
        assert_eq!(s.counters().retries, 2);
        fgbs_fault::clear();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn short_writes_are_caught_by_readback_and_retried() {
        let _g = fault_guard();
        let root = tmp_root("short-write");
        let s = Store::open(&root).unwrap();
        // One short write: the read-back verification rejects the
        // truncated frame and the retry republishes it whole.
        fgbs_fault::install(fgbs_fault::FaultPlan::new(5).with_rule(
            "store.write.short",
            fgbs_fault::FaultAction::Short(6),
            1.0,
            1,
        ));
        s.put(ArtifactKind::Reduce, "r", b"full-payload").unwrap();
        fgbs_fault::clear();
        assert_eq!(s.get(ArtifactKind::Reduce, "r").unwrap(), Some(b"full-payload".to_vec()));
        assert!(s.counters().retries >= 1);
        assert!(s.verify().is_empty());
        // Every attempt short: the put fails and removes its temp file,
        // since no later put would ever reuse its name.
        fgbs_fault::install(fgbs_fault::FaultPlan::new(5).with_rule(
            "store.write.short",
            fgbs_fault::FaultAction::Short(6),
            1.0,
            u64::MAX,
        ));
        assert!(s.put(ArtifactKind::Reduce, "never", b"full-payload").is_err());
        fgbs_fault::clear();
        let names: Vec<_> = fs::read_dir(root.join("objects/reduce"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec!["r.bin"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_sync_failures_propagate_from_put() {
        let _g = fault_guard();
        let root = tmp_root("dirsync");
        let s = Store::open(&root).unwrap();
        // Exhaust the retry budget on the directory sync: the put must
        // surface the failure, not silently claim durability.
        fgbs_fault::install(fgbs_fault::FaultPlan::new(2).with_rule(
            "store.dir_sync",
            fgbs_fault::FaultAction::Err,
            1.0,
            u64::MAX,
        ));
        assert!(s.put(ArtifactKind::Profile, "d", b"x").is_err());
        fgbs_fault::clear();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let _g = fault_guard();
        let root = tmp_root("concurrent");
        let s = Store::open(&root).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..10u8 {
                        let key = format!("t{t}-i{i}");
                        s.put(ArtifactKind::Response, &key, &[t, i]).unwrap();
                        assert_eq!(
                            s.get(ArtifactKind::Response, &key).unwrap(),
                            Some(vec![t, i])
                        );
                    }
                });
            }
        });
        assert_eq!(s.list().len(), 40);
        assert!(s.verify().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }
}
