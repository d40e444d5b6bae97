//! The persistent, content-addressed result store.
//!
//! Campaign memoization used to live only in RAM: every process re-measured
//! the full grid, so warm re-runs and grid *extensions* paid for points that
//! had already been computed. [`ResultStore`] persists finished results on
//! disk, keyed by the same structural hashes the in-memory [`crate::memo`]
//! layer uses — widened to 128 bits end to end — so a re-run restores every
//! previously measured point and only computes what the spec added.
//!
//! # Layout
//!
//! The store is a **directory** holding one append-only log per
//! [`StoreTable`] (point tables plus the shared `(curve, Q)` bounds table),
//! so million-entry sweeps load per-table and concurrent writer *processes*
//! never contend on one file. A store path that is a regular file is
//! refused: the single-file layout of earlier releases is no longer read.
//!
//! Each record is one [`fnpr_obs::frame`] line in the [`STORE_FORMAT`]
//! (`FNPR3`) format with head words `[tag, key_lo, key_hi, fingerprint,
//! stamp]`:
//!
//! * `tag` — the [`StoreTable`] the entry belongs to (notably the
//!   `(curve, Q)` bounds table is *shared* between the `[cfg]` and
//!   soundness workloads);
//! * `key_lo`/`key_hi` — the 128-bit content address (structural scenario
//!   hash);
//! * `fingerprint` — the [`analysis_fingerprint`] of the writer; entries
//!   from a different analysis version are treated as stale and recomputed;
//! * `stamp` — unix seconds at write time, driving the `store gc` age/size
//!   retention policies (never read into results).
//!
//! The payload is the result as compact JSON (single line by
//! construction). Lines of any other format version read as invalid.
//!
//! # Worker deltas
//!
//! Multi-process sweeps give each worker a [`ResultStore::open_delta`]
//! view: the canonical store is read (read-only) to seed the index, and
//! every write lands in the worker's **private delta directory** — same
//! per-table layout, no cross-process contention. The coordinator then
//! [`ResultStore::merge_delta`]s each worker's directory into the canonical
//! store: records are appended and deduplicated by their 128-bit key
//! (first losslessly-encoded record wins; torn delta tails and corrupt
//! lines are skipped, never fatal).
//!
//! # Correctness contract
//!
//! *Never crash, never serve wrong data.* Any unreadable, truncated,
//! corrupt, version- or fingerprint-mismatched entry degrades to a cache
//! miss: the point recomputes and a fresh valid entry is appended. A value
//! is only persisted after a **round-trip self-check** (serialize → parse →
//! compare equal), so every restored value compares equal to the computed
//! one — and because the JSON float encoding is shortest-round-trip exact,
//! warm aggregates are **byte-identical** to a cold run's. Non-finite
//! floats are the one lossy case (JSON has no NaN/Inf); the self-check
//! fails for them and the point simply stays uncached.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use fnpr_obs::frame::{self, Format};
use serde::{Deserialize, Serialize};

use crate::memo::ScenarioHasher;
use crate::report::StoreStats;

/// The on-disk record format. Bump the magic on any record-layout change;
/// old lines then read as invalid and recompute.
pub const STORE_FORMAT: Format = Format::new("FNPR3", TAG_CHECKSUM);

/// Version of the *result schemas* this crate writes (the point/bounds
/// payload shapes). Folded into [`analysis_fingerprint`]; bump when a
/// report struct changes shape or meaning.
const RESULTS_VERSION: u64 = 1;

/// Domain tags for store-internal key derivation.
const TAG_FINGERPRINT: u64 = 0x464e_5052; // "FNPR"
const TAG_CHECKSUM: u64 = 0x434b_534d; // "CKSM"
const TAG_BOUNDS_KEY: u64 = 0x424e_4451; // "BNDQ"

/// The fingerprint stamped on every entry this build writes: a hash of the
/// workspace analysis version ([`fnpr_core::ANALYSIS_VERSION`]) and the
/// result-schema version. Entries carrying any other fingerprint are
/// *stale* — possibly computed by different analysis semantics — and are
/// never served, only garbage-collected.
#[must_use]
pub fn analysis_fingerprint() -> u64 {
    ScenarioHasher::new(TAG_FINGERPRINT)
        .word(fnpr_core::ANALYSIS_VERSION)
        .word(RESULTS_VERSION)
        .finish()
}

/// The tables a store multiplexes — one log file each under the store
/// directory. Each workload's finished grid points get their own table;
/// [`StoreTable::Bounds`] is shared by every workload that caches
/// `(curve, Q)` bound computations (ROADMAP follow-up (b): the `[cfg]` and
/// soundness memos key into this one table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreTable {
    /// Finished acceptance grid points.
    AcceptancePoints,
    /// Finished soundness shards.
    SoundnessShards,
    /// Finished multicore grid points.
    MulticorePoints,
    /// Finished `[cfg]` grid points.
    CfgPoints,
    /// Shared `(curve structural hash, Q) → bounds` entries.
    Bounds,
}

impl StoreTable {
    /// Every table, in display order.
    pub const ALL: [StoreTable; 5] = [
        StoreTable::AcceptancePoints,
        StoreTable::SoundnessShards,
        StoreTable::MulticorePoints,
        StoreTable::CfgPoints,
        StoreTable::Bounds,
    ];

    /// The on-disk tag.
    #[must_use]
    pub fn tag(self) -> u32 {
        match self {
            StoreTable::AcceptancePoints => 0x4143_4350, // "ACCP"
            StoreTable::SoundnessShards => 0x534e_4453,  // "SNDS"
            StoreTable::MulticorePoints => 0x4d43_4f52,  // "MCOR"
            StoreTable::CfgPoints => 0x4347_5054,        // "CGPT"
            StoreTable::Bounds => 0x424e_4453,           // "BNDS"
        }
    }

    /// Human-readable label for `store stats`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StoreTable::AcceptancePoints => "acceptance points",
            StoreTable::SoundnessShards => "soundness shards",
            StoreTable::MulticorePoints => "multicore points",
            StoreTable::CfgPoints => "cfg points",
            StoreTable::Bounds => "shared (curve, Q) bounds",
        }
    }

    /// The table's shard file name under a store directory.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            StoreTable::AcceptancePoints => "acceptance_points.tbl",
            StoreTable::SoundnessShards => "soundness_shards.tbl",
            StoreTable::MulticorePoints => "multicore_points.tbl",
            StoreTable::CfgPoints => "cfg_points.tbl",
            StoreTable::Bounds => "bounds.tbl",
        }
    }

    /// Position in [`Self::ALL`] (file-handle and display index).
    #[must_use]
    pub fn index(self) -> usize {
        StoreTable::ALL
            .into_iter()
            .position(|t| t == self)
            .expect("every table is in ALL")
    }

    /// Whether entries of this table are whole grid points (they drive the
    /// `points restored / computed` counters; bounds count separately).
    fn is_points(self) -> bool {
        !matches!(self, StoreTable::Bounds)
    }

    fn from_tag(tag: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.tag() == tag)
    }
}

/// One shared `(curve, Q)` bounds entry. `alg1`/`eq4` are authoritative
/// totals (`None` = the bound diverged); `naive`/`exact` are `None` until a
/// soundness run needs and computes them — a `[cfg]`-written partial entry
/// still saves the expensive Algorithm 1 / Eq. 4 halves, and the soundness
/// run upgrades it in place (appends a complete record).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundsEntry {
    /// Algorithm 1 total delay (`None` = divergent).
    pub alg1: Option<f64>,
    /// Eq. 4 total delay (`None` = divergent).
    pub eq4: Option<f64>,
    /// Naive-selection total (`None` = not computed yet).
    pub naive: Option<f64>,
    /// Exact adversary total (`None` = not computed yet).
    pub exact: Option<f64>,
}

impl BoundsEntry {
    /// `true` once every field has been measured (the soundness workload's
    /// full quad; divergent `alg1`/`eq4` never complete because the quad
    /// consumers treat divergence as a failed scenario anyway).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.alg1.is_some() && self.eq4.is_some() && self.naive.is_some() && self.exact.is_some()
    }
}

/// Key of the shared bounds table: the curve's cached 128-bit structural
/// hash plus `Q`. One definition, used by both the `[cfg]` and the
/// soundness workloads, so their cached bound computations dedupe whenever
/// grids collide on the same `(fi, Q)` pair.
#[must_use]
pub fn bounds_key(curve: &fnpr_core::DelayCurve, q: f64) -> u128 {
    ScenarioHasher::new(TAG_BOUNDS_KEY)
        .word128(curve.structural_hash128())
        .f64(q)
        .finish128()
}

/// One decoded record line.
struct Record<'a> {
    table: StoreTable,
    key: u128,
    fingerprint: u64,
    stamp: u64,
    payload: &'a str,
}

impl<'a> Record<'a> {
    /// The record's line (trailing newline included).
    fn encode(&self) -> String {
        STORE_FORMAT.encode(
            &[
                u64::from(self.table.tag()),
                self.key as u64,
                (self.key >> 64) as u64,
                self.fingerprint,
                self.stamp,
            ],
            self.payload,
        )
    }

    /// Decodes a line; `None` unless it is an undamaged record of a known
    /// table.
    fn decode(line: &'a str) -> Option<Self> {
        let ([tag, key_lo, key_hi, fingerprint, stamp], payload) = STORE_FORMAT.decode(line)?;
        Some(Self {
            table: StoreTable::from_tag(u32::try_from(tag).ok()?)?,
            key: (u128::from(key_hi) << 64) | u128::from(key_lo),
            fingerprint,
            stamp,
            payload,
        })
    }
}

/// How one log line reads against the store's fingerprint.
enum ParsedLine<'a> {
    Valid(Record<'a>),
    Stale,
    Invalid,
}

/// Classifies one log line: [`ParsedLine::Invalid`] unless it decodes,
/// [`ParsedLine::Stale`] when it was written under another analysis
/// fingerprint.
fn parse_record(line: &str, fingerprint: u64) -> ParsedLine<'_> {
    match Record::decode(line) {
        Some(record) if record.fingerprint == fingerprint => ParsedLine::Valid(record),
        Some(_) => ParsedLine::Stale,
        None => ParsedLine::Invalid,
    }
}

/// Independently locked index shards, like [`crate::memo::Memo`]'s: cold
/// runs of large grids look up and insert from every worker thread, and a
/// single index mutex would serialize them all.
const INDEX_SHARDS: usize = 16;

/// In-progress marker inside the store directory: written by
/// [`ResultStore::begin_run`], removed by [`ResultStore::end_run`]. A
/// marker left by a dead process means the previous run was interrupted.
const INPROGRESS_FILE: &str = "campaign.inprogress";

/// Directory under the store root holding per-job worker delta trees
/// (`.deltas/job-<pid>/worker-<w>`).
const DELTAS_DIR: &str = ".deltas";

/// How this store handle touches disk.
enum StoreMode {
    /// The canonical sharded directory: reads and appends in place.
    Sharded,
    /// Index only — no append handles, no healing. Serves `store stats`
    /// without side effects.
    ReadOnly,
    /// A worker's view: index seeded from the canonical store, appends
    /// into a private delta directory for the coordinator to merge.
    Delta { delta_dir: PathBuf },
}

/// The persistent, content-addressed result store: an in-memory index over
/// per-table append-only log files. Shared by reference across worker
/// threads; the index is sharded so lookups on distinct keys do not contend
/// (each table's append file is necessarily a single writer per process —
/// cross-process writers use delta directories instead).
pub struct ResultStore {
    path: PathBuf,
    mode: StoreMode,
    fingerprint: u64,
    entries: Vec<Mutex<HashMap<(u32, u128), String>>>,
    /// Append handles in [`StoreTable::ALL`] order; `None` when read-only.
    files: Option<Vec<Mutex<File>>>,
    // Counters (informational; never part of deterministic aggregates).
    points_restored: AtomicU64,
    points_computed: AtomicU64,
    bounds_restored: AtomicU64,
    bounds_computed: AtomicU64,
    invalid_entries: AtomicU64,
    stale_entries: AtomicU64,
    write_errors: AtomicU64,
    warned_write: AtomicBool,
    /// What the opening orphan sweep found (writable sharded opens only;
    /// default-empty for read-only and delta handles).
    orphan_sweep: OrphanSweep,
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish_non_exhaustive()
    }
}

/// Counts accumulated while loading log files.
#[derive(Default)]
struct LoadCounts {
    invalid: u64,
    stale: u64,
    healed: u64,
}

impl ResultStore {
    /// Opens (creating if absent) the store at `path` under the current
    /// build's [`analysis_fingerprint`]. `path` is the store *directory*
    /// (one log file per table). Existing content is indexed; truncated,
    /// corrupt, unknown-version or wrong-fingerprint lines are counted and
    /// skipped — they can only cause recomputation, never wrong data.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (unreadable existing files, uncreatable
    /// directory), and [`std::io::ErrorKind::NotADirectory`] when `path` is
    /// a regular file (the single-file layout is no longer read; the file
    /// is left untouched). Corrupt *content* is not an error.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Self::open_with_fingerprint(path, analysis_fingerprint())
    }

    /// [`Self::open`] with an explicit fingerprint (tests use this to
    /// emulate an analysis-version change).
    ///
    /// # Errors
    ///
    /// As [`Self::open`].
    pub fn open_with_fingerprint(path: &Path, fingerprint: u64) -> std::io::Result<Self> {
        Self::open_in(path, StoreMode::Sharded, fingerprint)
    }

    /// Opens the store at `path` for reading only — no tail healing, no
    /// append handles. This is what `store stats` uses so inspecting a
    /// store never mutates it. [`Self::put`] on a read-only store counts a
    /// write error and drops the value.
    ///
    /// # Errors
    ///
    /// Real I/O failures reading existing files; a regular file at `path`
    /// as for [`Self::open`].
    pub fn open_read_only(path: &Path) -> std::io::Result<Self> {
        Self::open_in(path, StoreMode::ReadOnly, analysis_fingerprint())
    }

    /// Opens a worker's **delta view**: the canonical store at `canonical`
    /// seeds the index read-only, and every write appends into `delta_dir`
    /// — same per-table layout, private to this worker, so concurrent
    /// worker processes never contend on the canonical files. The
    /// coordinator folds the delta back with [`Self::merge_delta`].
    ///
    /// # Errors
    ///
    /// Real I/O failures reading the canonical store or creating the delta
    /// directory; a regular file at `canonical` as for [`Self::open`].
    pub fn open_delta(canonical: &Path, delta_dir: &Path) -> std::io::Result<Self> {
        let mode = StoreMode::Delta {
            delta_dir: delta_dir.to_path_buf(),
        };
        Self::open_in(canonical, mode, analysis_fingerprint())
    }

    fn open_in(path: &Path, mode: StoreMode, fingerprint: u64) -> std::io::Result<Self> {
        refuse_single_file(path)?;
        let mut entries: Vec<HashMap<(u32, u128), String>> =
            (0..INDEX_SHARDS).map(|_| HashMap::new()).collect();
        let mut counts = LoadCounts::default();
        let files = match &mode {
            StoreMode::Sharded => {
                std::fs::create_dir_all(path)?;
                Some(open_tables(path, fingerprint, &mut entries, &mut counts)?)
            }
            StoreMode::ReadOnly => {
                load_tables(path, fingerprint, &mut entries, &mut counts)?;
                None
            }
            StoreMode::Delta { delta_dir } => {
                load_tables(path, fingerprint, &mut entries, &mut counts)?;
                std::fs::create_dir_all(delta_dir)?;
                // Delta entries written after the canonical load supersede
                // it in the index, mirroring the within-process upgrade
                // semantics.
                Some(open_tables(
                    delta_dir,
                    fingerprint,
                    &mut entries,
                    &mut counts,
                )?)
            }
        };
        counts.publish();
        let mut store = Self {
            path: path.to_path_buf(),
            mode,
            fingerprint,
            entries: entries.into_iter().map(Mutex::new).collect(),
            files,
            points_restored: AtomicU64::new(0),
            points_computed: AtomicU64::new(0),
            bounds_restored: AtomicU64::new(0),
            bounds_computed: AtomicU64::new(0),
            invalid_entries: AtomicU64::new(counts.invalid),
            stale_entries: AtomicU64::new(counts.stale),
            write_errors: AtomicU64::new(0),
            warned_write: AtomicBool::new(false),
            orphan_sweep: OrphanSweep::default(),
        };
        if matches!(store.mode, StoreMode::Sharded) {
            // Crash-safe resume: fold in whatever dead jobs left behind
            // (worker deltas that were never merged, an in-progress marker
            // from a killed coordinator) before anyone reads the index.
            store.orphan_sweep = store.sweep_orphans();
        }
        Ok(store)
    }

    /// The canonical store directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Marks a run as in progress: writes the `campaign.inprogress`
    /// marker (pid, start stamp, campaign name) into the store directory.
    /// Best-effort and sharded-mode only — a store that cannot take the
    /// marker still runs, it just cannot report interruptions later.
    pub fn begin_run(&self, name: &str) {
        if !matches!(self.mode, StoreMode::Sharded) {
            return;
        }
        let content = format!(
            "pid={} started={} name={}\n",
            std::process::id(),
            fnpr_obs::ledger::unix_now(),
            name
        );
        let _ = std::fs::write(self.path.join(INPROGRESS_FILE), content);
    }

    /// Removes the in-progress marker written by [`Self::begin_run`] —
    /// only when it is ours, so a concurrent job's marker survives.
    pub fn end_run(&self) {
        if !matches!(self.mode, StoreMode::Sharded) {
            return;
        }
        let marker = self.path.join(INPROGRESS_FILE);
        if let Ok(content) = std::fs::read_to_string(&marker) {
            if marker_pid(content.trim()) == Some(std::process::id()) {
                let _ = std::fs::remove_file(&marker);
            }
        }
    }

    /// What the opening orphan sweep merged and reaped (empty for
    /// read-only and delta handles, which never sweep).
    #[must_use]
    pub fn orphan_sweep(&self) -> &OrphanSweep {
        &self.orphan_sweep
    }

    /// The `campaign.inprogress` marker content of an interrupted
    /// (dead-pid) previous run, observed and cleared by the opening
    /// sweep.
    #[must_use]
    pub fn interrupted_run(&self) -> Option<&str> {
        self.orphan_sweep.interrupted.as_deref()
    }

    /// Read-only inventory of `.deltas/job-*` trees still present under
    /// the store: `(directories, total bytes)`. `store stats` reports
    /// this instead of silently ignoring orphans; a writable open sweeps
    /// the dead ones, so anything still here after that belongs to a
    /// live job.
    #[must_use]
    pub fn orphaned_deltas(&self) -> (u64, u64) {
        let mut dirs = 0;
        let mut bytes = 0;
        if let Ok(entries) = std::fs::read_dir(self.path.join(DELTAS_DIR)) {
            for entry in entries.filter_map(Result::ok) {
                let path = entry.path();
                if path.is_dir() {
                    dirs += 1;
                    bytes += dir_bytes(&path);
                }
            }
        }
        (dirs, bytes)
    }

    /// Merges then reaps every `.deltas/job-<pid>` tree whose owning
    /// process is dead, and collects (then clears) an in-progress marker
    /// left by a dead coordinator. Delta liveness is conservative: our
    /// own pid, any pid with a `/proc` entry, and any job directory
    /// whose pid cannot be parsed or verified is treated as live and
    /// left alone. A marker that cannot be parsed is cleared (nothing
    /// live can reclaim it).
    fn sweep_orphans(&self) -> OrphanSweep {
        let mut sweep = OrphanSweep::default();
        let deltas = self.path.join(DELTAS_DIR);
        if let Ok(entries) = std::fs::read_dir(&deltas) {
            let mut jobs: Vec<PathBuf> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            jobs.sort();
            for job in jobs {
                match job_pid(&job) {
                    Some(pid) if !pid_is_live(pid) => {
                        sweep.bytes += dir_bytes(&job);
                        let mut workers: Vec<PathBuf> = std::fs::read_dir(&job)
                            .into_iter()
                            .flatten()
                            .filter_map(Result::ok)
                            .map(|e| e.path())
                            .filter(|p| p.is_dir())
                            .collect();
                        workers.sort();
                        for worker in workers {
                            // Merge is idempotent and torn-tail tolerant:
                            // a half-written delta line counts as invalid
                            // and the point recomputes, never corrupts.
                            if let Ok(report) = self.merge_delta(&worker) {
                                sweep.merged += report.merged;
                            }
                        }
                        if std::fs::remove_dir_all(&job).is_ok() {
                            sweep.swept_dirs += 1;
                        }
                    }
                    _ => sweep.live_skipped += 1,
                }
            }
            let _ = std::fs::remove_dir(&deltas);
        }
        let marker = self.path.join(INPROGRESS_FILE);
        if let Ok(content) = std::fs::read_to_string(&marker) {
            let content = content.trim().to_string();
            match marker_pid(&content) {
                Some(pid) if pid_is_live(pid) => {}
                _ => {
                    let _ = std::fs::remove_file(&marker);
                    fnpr_obs::counter!("campaign.store.resume.interrupted").incr();
                    sweep.interrupted = Some(content);
                }
            }
        }
        fnpr_obs::counter!("campaign.store.orphans.swept").add(sweep.swept_dirs);
        fnpr_obs::counter!("campaign.store.orphans.merged").add(sweep.merged);
        sweep
    }

    /// Fetches and decodes an entry; `None` on absence *or* undecodable
    /// payload (counted as invalid — the caller recomputes either way).
    /// Does not touch the restored/computed counters; use
    /// [`Self::get_or_compute`] for counted point access.
    #[must_use]
    pub fn get<V: Deserialize>(&self, table: StoreTable, key: u128) -> Option<V> {
        // Clone the payload under the shard lock, parse outside it.
        let payload = self.entries[index_shard(key)]
            .lock()
            .expect("store index poisoned")
            .get(&(table.tag(), key))
            .cloned()?;
        match serde_json::from_str(&payload) {
            Ok(v) => Some(v),
            Err(_) => {
                self.invalid_entries.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists an entry, **after** a two-sided round-trip self-check: the
    /// value is serialized, parsed back, and must both compare equal
    /// (catches NaN payloads — JSON has no NaN, and `NaN != NaN` makes
    /// `PartialEq` fail) *and* re-serialize to the identical string
    /// (catches any value equality cannot see, e.g. a float formatter
    /// normalizing `-0.0` to `0.0` — equal under `==`, different bytes in
    /// the rendered aggregates). On any mismatch the entry is skipped so a
    /// later run recomputes instead of restoring a lossy value. Write
    /// failures are counted and warned once — the campaign result never
    /// depends on the store being writable.
    pub fn put<V>(&self, table: StoreTable, key: u128, value: &V)
    where
        V: Serialize + Deserialize + PartialEq,
    {
        let payload = serde_json::to_string(value);
        debug_assert!(!payload.contains('\n'), "compact JSON is single-line");
        match serde_json::from_str::<V>(&payload) {
            Ok(rt) if rt == *value && serde_json::to_string(&rt) == payload => {}
            _ => {
                self.count_write_error("value does not round-trip losslessly");
                return;
            }
        }
        let Some(files) = &self.files else {
            self.count_write_error("store is read-only");
            return;
        };
        let line = Record {
            table,
            key,
            fingerprint: self.fingerprint,
            stamp: fnpr_obs::ledger::unix_now(),
            payload: &payload,
        }
        .encode();
        // Hold the table's file lock across the index insert too: `gc`
        // snapshots under the file locks, so an entry must never be on
        // disk without being indexed (the reverse order would let a
        // concurrent gc rewrite the file without this line and lose it).
        let mut file = files[table.index()].lock().expect("store file poisoned");
        if let Err(e) = file.write_all(line.as_bytes()) {
            self.count_write_error(&e.to_string());
            return;
        }
        self.entries[index_shard(key)]
            .lock()
            .expect("store index poisoned")
            .insert((table.tag(), key), payload);
    }

    /// The counted point-level access path: restore the entry if present,
    /// otherwise run `compute` and persist its success. Errors from
    /// `compute` propagate unstored.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_compute<V, E>(
        &self,
        table: StoreTable,
        key: u128,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        V: Serialize + Deserialize + PartialEq,
    {
        if let Some(v) = self.get(table, key) {
            self.count(table, true);
            return Ok(v);
        }
        let v = compute()?;
        self.count(table, false);
        self.put(table, key, &v);
        Ok(v)
    }

    /// Bumps the restored/computed counter pair for `table` (and mirrors
    /// the event into the global telemetry registry — a write-only side
    /// channel, never read back into aggregates).
    pub fn count(&self, table: StoreTable, restored: bool) {
        let counter = match (table.is_points(), restored) {
            (true, true) => {
                fnpr_obs::counter!("campaign.store.points.restored").incr();
                &self.points_restored
            }
            (true, false) => {
                fnpr_obs::counter!("campaign.store.points.computed").incr();
                &self.points_computed
            }
            (false, true) => {
                fnpr_obs::counter!("campaign.store.bounds.restored").incr();
                &self.bounds_restored
            }
            (false, false) => {
                fnpr_obs::counter!("campaign.store.bounds.computed").incr();
                &self.bounds_computed
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn count_write_error(&self, why: &str) {
        fnpr_obs::counter!("campaign.store.write_errors").incr();
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        if !self.warned_write.swap(true, Ordering::Relaxed) {
            eprintln!(
                "fnpr-campaign: warning: result store {} not updated: {why} \
                 (results are unaffected; later runs recompute)",
                self.path.display()
            );
        }
    }

    /// Counters for this process's use of the store (scheduling-dependent;
    /// informational only — deliberately not part of the deterministic
    /// report surface).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            points_restored: self.points_restored.load(Ordering::Relaxed),
            points_computed: self.points_computed.load(Ordering::Relaxed),
            bounds_restored: self.bounds_restored.load(Ordering::Relaxed),
            bounds_computed: self.bounds_computed.load(Ordering::Relaxed),
            invalid_entries: self.invalid_entries.load(Ordering::Relaxed),
            stale_entries: self.stale_entries.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Live entry count per table (valid, current-fingerprint entries).
    #[must_use]
    pub fn table_counts(&self) -> Vec<(StoreTable, usize)> {
        let mut counts = vec![0usize; StoreTable::ALL.len()];
        for shard in &self.entries {
            let entries = shard.lock().expect("store index poisoned");
            for (i, table) in StoreTable::ALL.into_iter().enumerate() {
                counts[i] += entries.keys().filter(|(t, _)| *t == table.tag()).count();
            }
        }
        StoreTable::ALL.into_iter().zip(counts).collect()
    }

    /// Per-shard file inventory for `store stats`: each table's file path,
    /// on-disk size and live record count.
    #[must_use]
    pub fn shard_files(&self) -> Vec<ShardFileInfo> {
        self.table_counts()
            .into_iter()
            .map(|(table, records)| {
                let path = self.path.join(table.file_name());
                ShardFileInfo {
                    table,
                    path: path.clone(),
                    bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                    records,
                }
            })
            .collect()
    }

    /// Merges one worker's delta directory into this (writable, sharded)
    /// store: every valid, current-fingerprint delta record whose key is
    /// **not** already present is appended and indexed; duplicate keys keep
    /// the first losslessly-encoded record (the canonical entry, or the
    /// earliest merged delta line); torn tails, corrupt lines and stale
    /// fingerprints are counted and skipped. Merging the same delta twice
    /// is a no-op (everything dedupes), so re-merges after a coordinator
    /// crash are safe.
    ///
    /// # Errors
    ///
    /// Real I/O failures reading delta files or appending to the store;
    /// also if this handle is read-only.
    pub fn merge_delta(&self, delta_dir: &Path) -> std::io::Result<MergeReport> {
        let Some(files) = &self.files else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "cannot merge into a read-only store",
            ));
        };
        let mut report = MergeReport::default();
        for table in StoreTable::ALL {
            // A torn final line (no trailing newline) reads as invalid —
            // merge heals around it rather than rejecting the whole delta.
            let mut failed = None;
            read_table(&delta_dir.join(table.file_name()), |line| {
                if failed.is_none() {
                    failed = self.merge_line(files, table, line, &mut report).err();
                }
            })?;
            if let Some(e) = failed {
                return Err(e);
            }
        }
        fnpr_obs::counter!("campaign.store.shard.delta.merged").add(report.merged);
        fnpr_obs::counter!("campaign.store.shard.delta.duplicate").add(report.duplicate);
        fnpr_obs::counter!("campaign.store.shard.delta.invalid").add(report.invalid);
        fnpr_obs::counter!("campaign.store.shard.delta.stale").add(report.stale);
        Ok(report)
    }

    /// Merges one delta line found in `table`'s delta file: appends and
    /// indexes it unless its key is already present.
    fn merge_line(
        &self,
        files: &[Mutex<File>],
        table: StoreTable,
        line: &str,
        report: &mut MergeReport,
    ) -> std::io::Result<()> {
        let record = match parse_record(line, self.fingerprint) {
            ParsedLine::Valid(record) => record,
            ParsedLine::Stale => {
                report.stale += 1;
                return Ok(());
            }
            ParsedLine::Invalid => {
                report.invalid += 1;
                return Ok(());
            }
        };
        if record.table != table {
            // A record filed under the wrong table file still merges into
            // its own table; count it so misplaced writers are visible.
            report.misfiled += 1;
        }
        // First losslessly-encoded record wins: hold the file lock across
        // the presence check, append and index insert (same invariant as
        // `put`).
        let mut file = files[record.table.index()]
            .lock()
            .expect("store file poisoned");
        let shard = &self.entries[index_shard(record.key)];
        let index_key = (record.table.tag(), record.key);
        if shard
            .lock()
            .expect("store index poisoned")
            .contains_key(&index_key)
        {
            report.duplicate += 1;
            return Ok(());
        }
        file.write_all(record.encode().as_bytes())?;
        shard
            .lock()
            .expect("store index poisoned")
            .insert(index_key, record.payload.to_string());
        report.merged += 1;
        Ok(())
    }

    /// [`Self::gc_with`] under the default (structural-only) policy.
    ///
    /// # Errors
    ///
    /// As [`Self::gc_with`].
    pub fn gc(&self) -> std::io::Result<GcReport> {
        self.gc_with(GcPolicy::default())
    }

    /// Rewrites every table file keeping exactly the live entries:
    /// duplicates (superseded appends), invalid, stale and unknown-version
    /// lines are dropped, then the retention `policy` evicts live entries
    /// **oldest-first** (by write stamp). Each rewrite goes through a sibling temp file +
    /// rename, so a crash mid-gc leaves either the old or the new file,
    /// never a torn one. Returns what was scanned, kept, dropped, evicted
    /// and reclaimed.
    ///
    /// # Errors
    ///
    /// I/O failures writing or renaming the new files; also if this handle
    /// is read-only.
    pub fn gc_with(&self, policy: GcPolicy) -> std::io::Result<GcReport> {
        let Some(files) = &self.files else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "cannot gc a read-only store",
            ));
        };
        // Hold every table's file lock across the whole rewrite; `put`
        // holds the lock across both its append *and* its index insert —
        // so every entry on disk is indexed by the time this snapshot
        // runs, and no concurrent put can land a line the rewrite drops.
        let mut guards: Vec<_> = files
            .iter()
            .map(|f| f.lock().expect("store file poisoned"))
            .collect();
        let mut scanned = 0usize;
        let mut bytes_before = 0u64;
        // Latest valid line per (tag, key), with its stamp — re-parsed
        // from disk (not the index) because stamps only live in the files.
        let mut live: BTreeMap<(u32, u128), (u64, String)> = BTreeMap::new();
        for table in StoreTable::ALL {
            bytes_before += read_table(&self.table_file_path(table), |line| {
                scanned += 1;
                if let ParsedLine::Valid(r) = parse_record(line, self.fingerprint) {
                    live.insert((r.table.tag(), r.key), (r.stamp, r.payload.to_string()));
                }
            })?;
        }
        let structurally_live = live.len();

        // Retention: age cutoff first, then oldest-first size eviction.
        let mut evicted = 0usize;
        if let Some(days) = policy.max_age_days {
            let cutoff =
                fnpr_obs::ledger::unix_now().saturating_sub((days * 86_400.0).max(0.0) as u64);
            let before = live.len();
            live.retain(|_, (stamp, _)| *stamp >= cutoff);
            evicted += before - live.len();
        }
        // Every tag in `live` came from a valid record, so `from_tag` holds.
        let line = |(tag, key): (u32, u128), stamp: u64, payload: &str| {
            StoreTable::from_tag(tag).map(|table| {
                let record = Record {
                    table,
                    key,
                    fingerprint: self.fingerprint,
                    stamp,
                    payload,
                };
                (table, record.encode())
            })
        };
        let mut records: Vec<((u32, u128), (u64, String))> = live.into_iter().collect();
        // Eviction and output order: oldest first, then (tag, key).
        records.sort_by_key(|a| (a.1 .0, a.0));
        if let Some(max_bytes) = policy.max_bytes {
            let sizes: Vec<u64> = records
                .iter()
                .map(|(id, (stamp, payload))| {
                    line(*id, *stamp, payload).map_or(0, |(_, l)| l.len() as u64)
                })
                .collect();
            // The shortest oldest-first prefix whose eviction fits the rest.
            let mut rest: u64 = sizes.iter().sum();
            let cut = sizes
                .iter()
                .take_while(|&&size| {
                    let over = rest > max_bytes;
                    if over {
                        rest -= size;
                    }
                    over
                })
                .count();
            records.drain(..cut);
            evicted += cut;
        }

        // Rewrite each table file (sorted by (tag, key) for deterministic
        // output), then swap in the index matching the survivors.
        records.sort_by_key(|&(id, _)| id);
        let kept = records.len();
        let mut per_table: Vec<String> = vec![String::new(); StoreTable::ALL.len()];
        for (id, (stamp, payload)) in &records {
            if let Some((table, l)) = line(*id, *stamp, payload) {
                per_table[table.index()].push_str(&l);
            }
        }
        let mut bytes_after = 0u64;
        for (i, table) in StoreTable::ALL.into_iter().enumerate() {
            let file_path = self.table_file_path(table);
            let tmp = path_with_suffix(&file_path, ".gc-tmp");
            std::fs::write(&tmp, &per_table[i])?;
            std::fs::rename(&tmp, &file_path)?;
            bytes_after += per_table[i].len() as u64;
            // Reopen the append handle on the fresh file.
            *guards[i] = frame::open_append(&file_path)?.0;
        }
        for shard in &self.entries {
            shard.lock().expect("store index poisoned").clear();
        }
        for (id, (_, payload)) in records {
            self.entries[index_shard(id.1)]
                .lock()
                .expect("store index poisoned")
                .insert(id, payload);
        }
        let report = GcReport {
            scanned,
            kept,
            dropped: scanned.saturating_sub(structurally_live),
            evicted,
            bytes_before,
            bytes_after,
        };
        fnpr_obs::counter!("campaign.store.gc.scanned").add(report.scanned as u64);
        fnpr_obs::counter!("campaign.store.gc.dropped").add(report.dropped as u64);
        fnpr_obs::counter!("campaign.store.gc.evicted").add(report.evicted as u64);
        fnpr_obs::counter!("campaign.store.gc.bytes_reclaimed").add(report.bytes_reclaimed());
        Ok(report)
    }

    /// Where `table`'s log file lives for this handle's write view.
    fn table_file_path(&self, table: StoreTable) -> PathBuf {
        match &self.mode {
            StoreMode::Delta { delta_dir } => delta_dir.join(table.file_name()),
            _ => self.path.join(table.file_name()),
        }
    }
}

impl LoadCounts {
    fn publish(&self) {
        fnpr_obs::counter!("campaign.store.invalid").add(self.invalid);
        fnpr_obs::counter!("campaign.store.stale").add(self.stale);
        fnpr_obs::counter!("campaign.store.healed").add(self.healed);
    }
}

/// One row of [`ResultStore::shard_files`].
#[derive(Debug, Clone)]
pub struct ShardFileInfo {
    /// The table this file holds.
    pub table: StoreTable,
    /// The file's path.
    pub path: PathBuf,
    /// On-disk size in bytes (0 if the file does not exist yet).
    pub bytes: u64,
    /// Live (valid, current-fingerprint) records indexed from this file's
    /// table(s).
    pub records: usize,
}

/// Retention policy for [`ResultStore::gc_with`]: both knobs optional,
/// both evicting *live* entries oldest-first on top of the structural
/// cleanup (superseded/invalid/stale lines always drop).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GcPolicy {
    /// Evict entries older than this many days (by write stamp).
    pub max_age_days: Option<f64>,
    /// Evict oldest entries until the store fits in this many bytes.
    pub max_bytes: Option<u64>,
}

/// What a writable open's orphan sweep merged and reaped (see
/// [`ResultStore::orphan_sweep`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrphanSweep {
    /// Dead `.deltas/job-<pid>` trees removed after merging.
    pub swept_dirs: u64,
    /// Records merged into the canonical store from dead jobs' deltas.
    pub merged: u64,
    /// Bytes the swept trees occupied before removal.
    pub bytes: u64,
    /// Job trees left alone because their owning process looks alive.
    pub live_skipped: u64,
    /// Content of a dead run's `campaign.inprogress` marker, when one was
    /// found (and cleared): the previous run was interrupted and this
    /// open is effectively a resume.
    pub interrupted: Option<String>,
}

/// The pid embedded in a `.deltas/job-<pid>` directory name.
fn job_pid(path: &Path) -> Option<u32> {
    path.file_name()?
        .to_str()?
        .strip_prefix("job-")?
        .parse()
        .ok()
}

/// The pid embedded in a `pid=<pid> …` in-progress marker line.
fn marker_pid(content: &str) -> Option<u32> {
    content
        .split_whitespace()
        .next()?
        .strip_prefix("pid=")?
        .parse()
        .ok()
}

/// Conservative liveness: our own pid is live, a pid with a `/proc`
/// entry is live, and on systems without `/proc` everything is live
/// (sweeping can only be wrong in one direction — never reap a running
/// job's deltas).
fn pid_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if !proc_root.exists() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// Recursive byte total of a directory tree (best-effort; unreadable
/// entries count zero).
fn dir_bytes(path: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.filter_map(Result::ok) {
            let child = entry.path();
            if child.is_dir() {
                total += dir_bytes(&child);
            } else if let Ok(meta) = entry.metadata() {
                total += meta.len();
            }
        }
    }
    total
}

/// What one [`ResultStore::merge_delta`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Records appended to the canonical store.
    pub merged: u64,
    /// Records skipped because their key was already present (in the
    /// canonical store or an earlier delta line).
    pub duplicate: u64,
    /// Unparseable lines skipped (torn tails, corruption, unknown
    /// versions).
    pub invalid: u64,
    /// Well-formed lines from another analysis fingerprint, skipped.
    pub stale: u64,
    /// Valid records found in the wrong table's delta file (merged into
    /// their own table regardless).
    pub misfiled: u64,
}

impl MergeReport {
    /// The one-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "merged {} records ({} duplicate, {} invalid, {} stale skipped)",
            self.merged, self.duplicate, self.invalid, self.stale
        )
    }
}

/// What one [`ResultStore::gc_with`] pass scanned, kept and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Non-empty lines across all table files before the rewrite.
    pub scanned: usize,
    /// Live entries written back.
    pub kept: usize,
    /// Lines dropped structurally (superseded duplicates, invalid, stale,
    /// unknown versions and torn-tail terminators).
    pub dropped: usize,
    /// Live entries evicted by the retention policy (oldest-first).
    pub evicted: usize,
    /// Total table-file bytes before the rewrite.
    pub bytes_before: u64,
    /// Total table-file bytes after the rewrite.
    pub bytes_after: u64,
}

impl GcReport {
    /// Bytes the rewrite gave back (0 if the store somehow grew).
    #[must_use]
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }

    /// The one-line human summary the CLI prints on stderr.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "scanned {} lines, kept {} entries, dropped {}, evicted {}; {} -> {} bytes ({} reclaimed)",
            self.scanned,
            self.kept,
            self.dropped,
            self.evicted,
            self.bytes_before,
            self.bytes_after,
            self.bytes_reclaimed()
        )
    }
}

/// Feeds every line of the table log at `path` to `each`; a missing log
/// reads as empty. Returns the bytes read.
fn read_table(path: &Path, each: impl FnMut(&str)) -> std::io::Result<u64> {
    match frame::read_file_lines(path, each) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        other => other,
    }
}

/// Loads one log file into the index shards. Missing files load as empty.
fn load_log_file(
    path: &Path,
    fingerprint: u64,
    entries: &mut [HashMap<(u32, u128), String>],
    counts: &mut LoadCounts,
) -> std::io::Result<()> {
    read_table(path, |line| match parse_record(line, fingerprint) {
        ParsedLine::Valid(r) => {
            // Later lines supersede earlier ones (append-only upgrades,
            // e.g. a bounds entry completed by a soundness run).
            entries[index_shard(r.key)].insert((r.table.tag(), r.key), r.payload.to_string());
        }
        ParsedLine::Stale => counts.stale += 1,
        ParsedLine::Invalid => counts.invalid += 1,
    })?;
    Ok(())
}

/// Loads every table log under the store directory `dir` and opens each
/// for appending, healing torn tails left by crashed writers (the torn
/// line itself was already counted invalid by the load).
fn open_tables(
    dir: &Path,
    fingerprint: u64,
    entries: &mut [HashMap<(u32, u128), String>],
    counts: &mut LoadCounts,
) -> std::io::Result<Vec<Mutex<File>>> {
    let mut files = Vec::with_capacity(StoreTable::ALL.len());
    for table in StoreTable::ALL {
        let path = dir.join(table.file_name());
        load_log_file(&path, fingerprint, entries, counts)?;
        let (file, healed) = frame::open_append(&path)?;
        counts.healed += u64::from(healed);
        files.push(Mutex::new(file));
    }
    Ok(files)
}

/// Loads every table log of the store directory at `path` (if it
/// exists) without mutating anything.
fn load_tables(
    path: &Path,
    fingerprint: u64,
    entries: &mut [HashMap<(u32, u128), String>],
    counts: &mut LoadCounts,
) -> std::io::Result<()> {
    for table in StoreTable::ALL {
        load_log_file(&path.join(table.file_name()), fingerprint, entries, counts)?;
    }
    Ok(())
}

/// Rejects a store path that is a regular file — the single-file layout
/// of earlier releases — without touching it.
fn refuse_single_file(path: &Path) -> std::io::Result<()> {
    if path.is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotADirectory,
            format!(
                "{} is a regular file: single-file result stores are no longer read \
                 (point the store at a directory)",
                path.display()
            ),
        ));
    }
    Ok(())
}

/// `path` with `suffix` appended to its final component (not an extension
/// swap: `bounds.tbl` + `.gc-tmp` = `bounds.tbl.gc-tmp`).
fn path_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Index shard for a key: by the low word, like the in-RAM memo tables.
fn index_shard(key: u128) -> usize {
    (key as u64 as usize) % INDEX_SHARDS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store_path(name: &str) -> PathBuf {
        crate::testutil::scratch_dir("store_unit").join(name)
    }

    /// One encoded record line under an explicit fingerprint and stamp.
    fn record_line(
        table: StoreTable,
        key: u128,
        fingerprint: u64,
        stamp: u64,
        payload: &str,
    ) -> String {
        Record {
            table,
            key,
            fingerprint,
            stamp,
            payload,
        }
        .encode()
    }

    #[test]
    fn record_checksum_matches_the_previous_layout() {
        // Same head words, same domain: the checksum of a record is the
        // value the pre-codec layout computed for the same fields.
        let key: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        let head = [
            u64::from(StoreTable::Bounds.tag()),
            key as u64,
            (key >> 64) as u64,
            0x1111_2222_3333_4444,
            1_700_000_000,
        ];
        assert_eq!(
            STORE_FORMAT.checksum(&head, "{\"alg1\":1.5}"),
            0xf6b6_2a14_56c7_cef6
        );
        let line = record_line(
            StoreTable::Bounds,
            key,
            0x1111_2222_3333_4444,
            1_700_000_000,
            "{}",
        );
        let record = Record::decode(line.trim_end()).expect("round trip");
        assert_eq!(
            (record.table, record.key, record.payload),
            (StoreTable::Bounds, key, "{}")
        );
        // A well-framed line of an unknown table reads as invalid.
        let unknown = STORE_FORMAT.encode(&[0x5858_5858, 1, 0, analysis_fingerprint(), 1], "{}");
        assert!(matches!(
            parse_record(unknown.trim_end(), analysis_fingerprint()),
            ParsedLine::Invalid
        ));
    }

    /// The bounds table's log file under a sharded store directory.
    fn bounds_file(store_dir: &Path) -> PathBuf {
        store_dir.join(StoreTable::Bounds.file_name())
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_store_path("basic.log");
        {
            let store = ResultStore::open(&path).unwrap();
            assert_eq!(store.get::<f64>(StoreTable::Bounds, 42), None);
            store.put(StoreTable::Bounds, 42, &1.5f64);
            assert_eq!(store.get::<f64>(StoreTable::Bounds, 42), Some(1.5));
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 42), Some(1.5));
        let stats = store.stats();
        assert_eq!(stats.invalid_entries, 0);
        assert_eq!(stats.stale_entries, 0);
        assert!(path.is_dir(), "a fresh store is a directory");
    }

    #[test]
    fn tables_do_not_alias() {
        let path = temp_store_path("tables.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::Bounds, 7, &1.0f64);
        store.put(StoreTable::CfgPoints, 7, &2.0f64);
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 7), Some(1.0));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 7), Some(2.0));
        assert_eq!(store.get::<f64>(StoreTable::AcceptancePoints, 7), None);
        let counts: HashMap<_, _> = store.table_counts().into_iter().collect();
        assert_eq!(counts[&StoreTable::Bounds], 1);
        assert_eq!(counts[&StoreTable::CfgPoints], 1);
        assert_eq!(counts[&StoreTable::MulticorePoints], 0);
        // And the sharded layout physically separates them.
        assert!(bounds_file(&path).is_file());
        assert!(path.join(StoreTable::CfgPoints.file_name()).is_file());
    }

    #[test]
    fn get_or_compute_counts_and_persists() {
        let path = temp_store_path("counted.log");
        let store = ResultStore::open(&path).unwrap();
        let v: Result<f64, ()> = store.get_or_compute(StoreTable::CfgPoints, 1, || Ok(2.5));
        assert_eq!(v, Ok(2.5));
        let v: Result<f64, ()> = store.get_or_compute(StoreTable::CfgPoints, 1, || panic!());
        assert_eq!(v, Ok(2.5));
        let stats = store.stats();
        assert_eq!((stats.points_computed, stats.points_restored), (1, 1));
        // Errors propagate and are not stored.
        let e: Result<f64, u8> = store.get_or_compute(StoreTable::CfgPoints, 2, || Err(9));
        assert_eq!(e, Err(9));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 2), None);
    }

    #[test]
    fn truncated_tail_degrades_to_recompute() {
        let path = temp_store_path("truncated.log");
        {
            let store = ResultStore::open(&path).unwrap();
            store.put(StoreTable::Bounds, 1, &1.0f64);
            store.put(StoreTable::Bounds, 2, &2.0f64);
        }
        // Chop the table file mid-way through the last line (a crashed
        // writer).
        let tbl = bounds_file(&path);
        let bytes = std::fs::read(&tbl).unwrap();
        std::fs::write(&tbl, &bytes[..bytes.len() - 4]).unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 1), Some(1.0));
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 2), None, "truncated");
        assert_eq!(store.stats().invalid_entries, 1);
        // Rewriting the lost entry restores it for the next open.
        store.put(StoreTable::Bounds, 2, &2.0f64);
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::Bounds, 2), Some(2.0));
    }

    #[test]
    fn wrong_fingerprint_is_stale_never_served() {
        let path = temp_store_path("stale.log");
        {
            let store = ResultStore::open_with_fingerprint(&path, 111).unwrap();
            store.put(StoreTable::Bounds, 5, &1.0f64);
        }
        let store = ResultStore::open_with_fingerprint(&path, 222).unwrap();
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 5), None);
        assert_eq!(store.stats().stale_entries, 1);
        // The recomputed value is written under the new fingerprint and
        // wins on the next open; the stale line survives until gc.
        store.put(StoreTable::Bounds, 5, &2.0f64);
        let again = ResultStore::open_with_fingerprint(&path, 222).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::Bounds, 5), Some(2.0));
        assert_eq!(again.stats().stale_entries, 1);
        assert_eq!(again.gc().unwrap().kept, 1);
        let clean = ResultStore::open_with_fingerprint(&path, 222).unwrap();
        assert_eq!(clean.stats().stale_entries, 0);
        assert_eq!(clean.get::<f64>(StoreTable::Bounds, 5), Some(2.0));
    }

    #[test]
    fn non_finite_values_are_never_persisted() {
        let path = temp_store_path("nonfinite.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::Bounds, 1, &f64::NAN);
        store.put(StoreTable::Bounds, 2, &f64::INFINITY);
        store.put(StoreTable::Bounds, 3, &Some(f64::NAN));
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 1), None);
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 2), None);
        assert_eq!(store.get::<Option<f64>>(StoreTable::Bounds, 3), None);
        assert_eq!(store.stats().write_errors, 3);
        // Finite negative zero, by contrast, survives bit-exactly.
        store.put(StoreTable::Bounds, 4, &(-0.0f64));
        let restored = store.get::<f64>(StoreTable::Bounds, 4).unwrap();
        assert_eq!(restored.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn gc_drops_superseded_duplicates() {
        let path = temp_store_path("gc.log");
        let store = ResultStore::open(&path).unwrap();
        for i in 0..5 {
            store.put(StoreTable::Bounds, 9, &(i as f64));
        }
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 9), Some(4.0));
        let tbl = bounds_file(&path);
        let lines_before = std::fs::read_to_string(&tbl).unwrap().lines().count();
        assert_eq!(lines_before, 5);
        let bytes_before = std::fs::metadata(&tbl).unwrap().len();
        let report = store.gc().unwrap();
        let lines_after = std::fs::read_to_string(&tbl).unwrap().lines().count();
        assert_eq!(lines_after, 1);
        // The report reflects exactly what the rewrite did.
        assert_eq!((report.scanned, report.kept, report.dropped), (5, 1, 4));
        assert_eq!(report.evicted, 0);
        assert_eq!(report.bytes_before, bytes_before);
        assert_eq!(report.bytes_after, std::fs::metadata(&tbl).unwrap().len());
        assert_eq!(
            report.bytes_reclaimed(),
            report.bytes_before - report.bytes_after
        );
        let summary = report.summary();
        assert!(
            summary.contains("scanned 5 lines, kept 1 entries, dropped 4"),
            "{summary}"
        );
        assert!(summary.contains("reclaimed"), "{summary}");
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 9), Some(4.0));
        // The append handle still works after the rename.
        store.put(StoreTable::Bounds, 10, &7.0f64);
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::Bounds, 10), Some(7.0));
    }

    /// Appends a record with an explicit stamp (the normal `put` path
    /// always stamps "now", which age/size-policy tests cannot wait out).
    fn append_stamped(store_dir: &Path, table: StoreTable, key: u128, stamp: u64, payload: &str) {
        let line = record_line(table, key, analysis_fingerprint(), stamp, payload);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(store_dir.join(table.file_name()))
            .unwrap()
            .write_all(line.as_bytes())
            .unwrap();
    }

    #[test]
    fn gc_age_policy_evicts_old_entries_oldest_first() {
        let path = temp_store_path("gc_age.log");
        drop(ResultStore::open(&path).unwrap());
        let now = fnpr_obs::ledger::unix_now();
        append_stamped(
            &path,
            StoreTable::Bounds,
            1,
            now.saturating_sub(40 * 86_400),
            "1.0",
        );
        append_stamped(
            &path,
            StoreTable::Bounds,
            2,
            now.saturating_sub(3 * 86_400),
            "2.0",
        );
        append_stamped(&path, StoreTable::CfgPoints, 3, 0, "3.0"); // Stamp 0: oldest.
        let store = ResultStore::open(&path).unwrap();
        let report = store
            .gc_with(GcPolicy {
                max_age_days: Some(7.0),
                max_bytes: None,
            })
            .unwrap();
        assert_eq!((report.kept, report.evicted, report.dropped), (1, 2, 0));
        // Evicted entries leave the index immediately, not just the files.
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 1), None);
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 2), Some(2.0));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 3), None);
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.get::<f64>(StoreTable::Bounds, 2), Some(2.0));
        assert!(
            report.summary().contains("evicted 2"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn gc_size_policy_evicts_oldest_until_it_fits() {
        let path = temp_store_path("gc_size.log");
        drop(ResultStore::open(&path).unwrap());
        // Three same-size records, stamps 10 < 20 < 30.
        for (key, stamp) in [(1u128, 10u64), (2, 20), (3, 30)] {
            append_stamped(&path, StoreTable::Bounds, key, stamp, "5.5");
        }
        let store = ResultStore::open(&path).unwrap();
        let one_line =
            record_line(StoreTable::Bounds, 1, analysis_fingerprint(), 10, "5.5").len() as u64;
        // Budget for exactly two records: the oldest (stamp 10) must go.
        let report = store
            .gc_with(GcPolicy {
                max_age_days: None,
                max_bytes: Some(2 * one_line),
            })
            .unwrap();
        assert_eq!((report.kept, report.evicted), (2, 1));
        assert!(report.bytes_after <= 2 * one_line);
        assert_eq!(
            store.get::<f64>(StoreTable::Bounds, 1),
            None,
            "oldest evicted"
        );
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 2), Some(5.5));
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 3), Some(5.5));
        // A zero budget empties the store without erroring.
        let report = store
            .gc_with(GcPolicy {
                max_age_days: None,
                max_bytes: Some(0),
            })
            .unwrap();
        assert_eq!((report.kept, report.evicted), (0, 2));
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 3), None);
    }

    #[test]
    fn single_file_paths_are_refused_untouched() {
        let dir = crate::testutil::scratch_dir("store_single_file");
        let file = dir.join("store.log");
        let content = b"FNPR2 0 0 0 0 0 0 x\ntorn tail";
        std::fs::write(&file, content).unwrap();
        let delta = dir.join("delta");
        let opens: [(&str, std::io::Result<ResultStore>); 3] = [
            ("writable", ResultStore::open(&file)),
            ("read-only", ResultStore::open_read_only(&file)),
            ("delta", ResultStore::open_delta(&file, &delta)),
        ];
        for (mode, opened) in opens {
            let err = opened.expect_err(mode);
            assert_eq!(err.kind(), std::io::ErrorKind::NotADirectory, "{mode}");
            let message = err.to_string();
            assert!(
                message.contains(&file.display().to_string()),
                "{mode}: {message}"
            );
            assert!(message.contains("no longer read"), "{mode}: {message}");
            assert_eq!(
                std::fs::read(&file).unwrap(),
                content,
                "{mode} touched the file"
            );
        }
        assert!(!delta.exists(), "a refused delta open creates nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_files_reports_per_table_sizes_and_counts() {
        let path = temp_store_path("inventory.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::Bounds, 1, &1.0f64);
        store.put(StoreTable::Bounds, 2, &2.0f64);
        store.put(StoreTable::MulticorePoints, 3, &3.0f64);
        let files = store.shard_files();
        assert_eq!(files.len(), StoreTable::ALL.len());
        let by_table: HashMap<_, _> = files
            .iter()
            .map(|f| (f.table, (f.records, f.bytes)))
            .collect();
        assert_eq!(by_table[&StoreTable::Bounds].0, 2);
        assert_eq!(by_table[&StoreTable::MulticorePoints].0, 1);
        assert_eq!(by_table[&StoreTable::AcceptancePoints], (0, 0));
        assert_eq!(
            by_table[&StoreTable::Bounds].1,
            std::fs::metadata(bounds_file(&path)).unwrap().len()
        );
    }

    #[test]
    fn delta_store_reads_canonical_and_writes_privately() {
        let dir = crate::testutil::scratch_dir("store_delta");
        let canonical_path = dir.join("canonical");
        {
            let canonical = ResultStore::open(&canonical_path).unwrap();
            canonical.put(StoreTable::Bounds, 1, &1.0f64);
        }
        let delta_dir = dir.join("delta-0");
        let worker = ResultStore::open_delta(&canonical_path, &delta_dir).unwrap();
        // Canonical entries are served read-through...
        assert_eq!(worker.get::<f64>(StoreTable::Bounds, 1), Some(1.0));
        // ...and writes land in the delta directory only.
        worker.put(StoreTable::Bounds, 2, &2.0f64);
        assert_eq!(worker.get::<f64>(StoreTable::Bounds, 2), Some(2.0));
        let canonical_bounds = std::fs::read_to_string(bounds_file(&canonical_path)).unwrap();
        assert_eq!(canonical_bounds.lines().count(), 1, "canonical untouched");
        let delta_bounds = std::fs::read_to_string(bounds_file(&delta_dir)).unwrap();
        assert_eq!(delta_bounds.lines().count(), 1);

        // Merge folds the delta in; a second merge dedupes everything.
        let canonical = ResultStore::open(&canonical_path).unwrap();
        let report = canonical.merge_delta(&delta_dir).unwrap();
        assert_eq!((report.merged, report.duplicate), (1, 0));
        assert_eq!(canonical.get::<f64>(StoreTable::Bounds, 2), Some(2.0));
        let again = canonical.merge_delta(&delta_dir).unwrap();
        assert_eq!((again.merged, again.duplicate), (0, 1));
        // And the merged entry persists across reopen.
        drop(canonical);
        let reopened = ResultStore::open(&canonical_path).unwrap();
        assert_eq!(reopened.get::<f64>(StoreTable::Bounds, 2), Some(2.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_dedups_by_key_keeping_the_first_lossless_record() {
        let dir = crate::testutil::scratch_dir("store_merge_dedup");
        let canonical_path = dir.join("canonical");
        drop(ResultStore::open(&canonical_path).unwrap());
        // Worker A wrote 7 → 1.0 first; worker B raced and wrote 7 → 9.0
        // (cannot happen for deterministic points, but merge must still be
        // well-defined): the first merged record wins, deterministically.
        let delta_a = dir.join("delta-a");
        let delta_b = dir.join("delta-b");
        for d in [&delta_a, &delta_b] {
            std::fs::create_dir_all(d).unwrap();
        }
        append_stamped(&delta_a, StoreTable::Bounds, 7, 100, "1.0");
        append_stamped(&delta_b, StoreTable::Bounds, 7, 100, "9.0");
        // A corrupt (not losslessly decodable) record for key 8 in delta A
        // must lose to the valid one in delta B.
        let broken = record_line(StoreTable::Bounds, 8, analysis_fingerprint(), 5, "2.0")
            .replace("2.0", "6.6");
        std::fs::OpenOptions::new()
            .append(true)
            .open(bounds_file(&delta_a))
            .unwrap()
            .write_all(broken.as_bytes())
            .unwrap();
        append_stamped(&delta_b, StoreTable::Bounds, 8, 100, "8.0");

        let canonical = ResultStore::open(&canonical_path).unwrap();
        let a = canonical.merge_delta(&delta_a).unwrap();
        assert_eq!((a.merged, a.invalid), (1, 1));
        let b = canonical.merge_delta(&delta_b).unwrap();
        assert_eq!((b.merged, b.duplicate), (1, 1));
        assert_eq!(canonical.get::<f64>(StoreTable::Bounds, 7), Some(1.0));
        assert_eq!(canonical.get::<f64>(StoreTable::Bounds, 8), Some(8.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_heals_around_torn_delta_tails() {
        // A worker killed mid-append leaves an unterminated final line;
        // the merge must take every complete record and skip the wreck.
        let dir = crate::testutil::scratch_dir("store_merge_torn");
        let canonical_path = dir.join("canonical");
        drop(ResultStore::open(&canonical_path).unwrap());
        let delta = dir.join("delta-torn");
        std::fs::create_dir_all(&delta).unwrap();
        append_stamped(&delta, StoreTable::Bounds, 1, 50, "1.0");
        append_stamped(&delta, StoreTable::Bounds, 2, 50, "2.0");
        let tbl = bounds_file(&delta);
        let bytes = std::fs::read(&tbl).unwrap();
        std::fs::write(&tbl, &bytes[..bytes.len() - 4]).unwrap();

        let canonical = ResultStore::open(&canonical_path).unwrap();
        let report = canonical.merge_delta(&delta).unwrap();
        assert_eq!((report.merged, report.invalid), (1, 1));
        assert_eq!(canonical.get::<f64>(StoreTable::Bounds, 1), Some(1.0));
        assert_eq!(canonical.get::<f64>(StoreTable::Bounds, 2), None);
        // Stale (wrong-fingerprint) delta records are skipped too.
        let stale_delta = dir.join("delta-stale");
        std::fs::create_dir_all(&stale_delta).unwrap();
        let line = record_line(StoreTable::Bounds, 3, 0xdead, 50, "3.0");
        std::fs::write(bounds_file(&stale_delta), line).unwrap();
        let report = canonical.merge_delta(&stale_delta).unwrap();
        assert_eq!((report.merged, report.stale), (0, 1));
        assert_eq!(canonical.get::<f64>(StoreTable::Bounds, 3), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounds_key_tracks_curve_and_q() {
        let a = fnpr_core::DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 1.0)], 100.0).unwrap();
        let b = fnpr_core::DelayCurve::from_breakpoints([(0.0, 8.0), (40.0, 2.0)], 100.0).unwrap();
        assert_ne!(bounds_key(&a, 9.0), bounds_key(&b, 9.0));
        assert_ne!(bounds_key(&a, 9.0), bounds_key(&a, 9.5));
        assert_eq!(bounds_key(&a, 9.0), bounds_key(&a.clone(), 9.0));
    }

    #[test]
    fn bounds_entry_round_trips_and_reports_completeness() {
        let partial = BoundsEntry {
            alg1: Some(3.0),
            eq4: Some(4.0),
            naive: None,
            exact: None,
        };
        assert!(!partial.is_complete());
        let full = BoundsEntry {
            naive: Some(1.0),
            exact: Some(2.0),
            ..partial
        };
        assert!(full.is_complete());
        let path = temp_store_path("bounds.log");
        let store = ResultStore::open(&path).unwrap();
        store.put(StoreTable::Bounds, 1, &partial);
        store.put(StoreTable::Bounds, 1, &full);
        assert_eq!(store.get::<BoundsEntry>(StoreTable::Bounds, 1), Some(full));
    }

    /// A pid no live process can hold (kernels cap pids far below this),
    /// so `job-<DEAD_PID>` trees and `pid=<DEAD_PID>` markers always look
    /// dead to the liveness check.
    const DEAD_PID: u32 = 99_999_999;

    #[test]
    fn dead_job_deltas_merge_and_reap_on_open() {
        let path = temp_store_path("orphans.log");
        ResultStore::open(&path).unwrap();
        // A worker delta tree from a job whose coordinator died before
        // merging.
        let worker_dir = path
            .join(DELTAS_DIR)
            .join(format!("job-{DEAD_PID}"))
            .join("worker-0");
        {
            let delta = ResultStore::open_delta(&path, &worker_dir).unwrap();
            delta.put(StoreTable::Bounds, 5, &2.5f64);
            delta.put(StoreTable::CfgPoints, 6, &3.5f64);
        }
        let store = ResultStore::open(&path).unwrap();
        let sweep = store.orphan_sweep();
        assert_eq!(sweep.swept_dirs, 1);
        assert_eq!(sweep.merged, 2);
        assert!(sweep.bytes > 0);
        assert_eq!(sweep.live_skipped, 0);
        assert!(
            !path.join(DELTAS_DIR).exists(),
            "swept job dirs (and the empty .deltas parent) are removed"
        );
        // The orphaned results are restored, not recomputed.
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 5), Some(2.5));
        assert_eq!(store.get::<f64>(StoreTable::CfgPoints, 6), Some(3.5));
        assert_eq!(store.orphaned_deltas(), (0, 0));
        // Idempotent: a third open has nothing left to sweep.
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(*again.orphan_sweep(), OrphanSweep::default());
    }

    #[test]
    fn live_job_deltas_are_left_alone() {
        let path = temp_store_path("live_orphans.log");
        ResultStore::open(&path).unwrap();
        let job_dir = path
            .join(DELTAS_DIR)
            .join(format!("job-{}", std::process::id()));
        {
            let delta = ResultStore::open_delta(&path, &job_dir.join("worker-0")).unwrap();
            delta.put(StoreTable::Bounds, 9, &1.0f64);
        }
        let store = ResultStore::open(&path).unwrap();
        let sweep = store.orphan_sweep();
        assert_eq!((sweep.swept_dirs, sweep.merged), (0, 0));
        assert_eq!(sweep.live_skipped, 1);
        assert!(job_dir.is_dir(), "a live job's deltas must survive");
        assert_eq!(store.get::<f64>(StoreTable::Bounds, 9), None);
        let (dirs, bytes) = store.orphaned_deltas();
        assert_eq!(dirs, 1);
        assert!(bytes > 0);
    }

    #[test]
    fn dead_marker_reports_interrupted_and_clears() {
        let path = temp_store_path("marker.log");
        ResultStore::open(&path).unwrap();
        let marker = path.join(INPROGRESS_FILE);
        std::fs::write(&marker, format!("pid={DEAD_PID} started=123 name=doomed\n")).unwrap();
        let store = ResultStore::open(&path).unwrap();
        let interrupted = store.interrupted_run().expect("interruption detected");
        assert!(interrupted.contains("name=doomed"));
        assert!(!marker.exists(), "dead markers are cleared once reported");
        let again = ResultStore::open(&path).unwrap();
        assert_eq!(again.interrupted_run(), None);
    }

    #[test]
    fn begin_end_run_marker_lifecycle() {
        let path = temp_store_path("marker_own.log");
        let store = ResultStore::open(&path).unwrap();
        let marker = path.join(INPROGRESS_FILE);
        store.begin_run("alive");
        assert!(marker.is_file());
        // Another open while we run: our pid is live, so the marker is
        // neither reported nor cleared.
        let other = ResultStore::open(&path).unwrap();
        assert_eq!(other.interrupted_run(), None);
        assert!(marker.is_file(), "a live run's marker must survive");
        store.end_run();
        assert!(!marker.exists());
        // end_run leaves someone else's marker alone.
        std::fs::write(&marker, format!("pid={DEAD_PID} started=1 name=x\n")).unwrap();
        store.end_run();
        assert!(marker.exists());
    }

    #[test]
    fn read_only_open_reports_orphans_without_touching() {
        let path = temp_store_path("ro_orphans.log");
        ResultStore::open(&path).unwrap();
        let job_dir = path.join(DELTAS_DIR).join(format!("job-{DEAD_PID}"));
        {
            let delta = ResultStore::open_delta(&path, &job_dir.join("worker-0")).unwrap();
            delta.put(StoreTable::Bounds, 3, &4.0f64);
        }
        let store = ResultStore::open_read_only(&path).unwrap();
        assert_eq!(*store.orphan_sweep(), OrphanSweep::default());
        let (dirs, bytes) = store.orphaned_deltas();
        assert_eq!(dirs, 1);
        assert!(bytes > 0);
        assert!(
            job_dir.is_dir(),
            "a read-only open reports orphans but never sweeps them"
        );
    }
}
