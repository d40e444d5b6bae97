//! Pluggable executor backends: *where* grid shards run.
//!
//! [`crate::exec::parallel_map`] fixes the execution semantics — shards
//! claimed in index order, results slotted by shard, abort at the first
//! error, aggregates a pure function of `(seed, coords)`. This module puts
//! a seam in front of it: an [`ExecutorBackend`] decides where each shard's
//! computation physically happens, and because every shard's RNG streams
//! are pure functions of the campaign seed and grid coordinates (never of
//! the claiming thread **or process**), any backend produces byte-identical
//! aggregates.
//!
//! Two backends ship today:
//!
//! * [`LocalThreads`] — the original in-process `std::thread` pool,
//!   verbatim behind the trait;
//! * [`ProcessPool`] — re-invokes the current binary as `worker`
//!   subprocesses, one per worker slot, striping shards across them
//!   (`shard i → worker i % workers`). Workers receive a [`WorkerJob`] as
//!   JSON on stdin and stream stdio-framed results back; any shard a
//!   worker fails to deliver (torn pipe, crashed worker, undecodable
//!   payload) silently falls back to computing in the coordinator, so the
//!   process backend is never *less* reliable than the local one.
//!
//! The coordinator is the **only** canonical-store writer: workers open
//! the store in delta mode ([`crate::store::ResultStore::open_delta`]) and
//! write private shard files that [`crate::run_campaign_with_store`]
//! merges after the run.
//!
//! # Worker wire protocol
//!
//! One [`fnpr_obs::frame`] line per frame on the worker's stdout, in the
//! [`FRAME_FORMAT`] (`FNPRW2`) format with head words `[kind, shard]`:
//!
//! * `ok` (kind 1) carries one shard result as compact (single-line) JSON;
//! * `err` (kind 2) ships a shard failure message; the coordinator
//!   surfaces the lowest-indexed one, mirroring `parallel_map`;
//! * `done` (kind 3, shard 0) is the worker's final frame, carrying its
//!   store/memo counters for the coordinator to absorb into the run's
//!   [`crate::CampaignOutcome`];
//! * `raw` (kind 4, empty payload) reports a shard whose value does not
//!   survive a JSON round-trip (e.g. NaN inside — JSON has no NaN); the
//!   coordinator recomputes it locally so results match the local backend
//!   bit for bit.

use std::io::{BufReader, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fnpr_obs::frame::{self, Format};
use serde::{Deserialize, Serialize};

use crate::error::CampaignError;
use crate::exec::parallel_map;
use crate::fault::{FaultPlan, WorkerFaults};
use crate::memo::MemoStats;
use crate::report::StoreStats;
use crate::spec::{CampaignSpec, Workload};
use crate::store::ResultStore;
use crate::{acceptance, cfg_workload, multicore, soundness};

/// The worker wire format; bump the magic on any frame change.
pub const FRAME_FORMAT: Format = Format::new("FNPRW2", TAG_FRAME);

/// Domain tag for frame checksums.
const TAG_FRAME: u64 = 0x4652_414d; // "FRAM"

/// Environment variable naming the worker executable. Defaults to
/// `std::env::current_exe()` — the normal case, where the coordinator *is*
/// the `fnpr-campaign` binary. Library consumers (tests, other binaries)
/// set this to a real `fnpr-campaign` build.
pub const WORKER_EXE_ENV: &str = "FNPR_CAMPAIGN_WORKER_EXE";

/// Where shards of a campaign run execute. The contract every backend must
/// honor (pinned by the determinism suite): results come back in shard
/// order, bit-identical to [`parallel_map`] at any parallelism, and the
/// lowest-indexed shard failure is the one reported.
pub trait ExecutorBackend {
    /// Short backend identifier (`"local"`, `"process"`) for reports and
    /// telemetry.
    fn name(&self) -> &'static str;

    /// How many shards may run at once (threads or worker processes).
    fn parallelism(&self) -> usize;

    /// Runs `work(i)` for every `i in 0..count` and returns results in
    /// index order. `work` must be pure per shard: the backend may run it
    /// anywhere, locally or in a subprocess computing the identical
    /// function from the shipped spec.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing shard.
    fn run<T>(
        &self,
        count: usize,
        work: &(dyn Fn(usize) -> Result<T, CampaignError> + Sync),
    ) -> Result<Vec<T>, CampaignError>
    where
        T: Send + Serialize + Deserialize + PartialEq;
}

/// The original in-process backend: [`parallel_map`] on a scoped
/// `std::thread` pool, moved behind the trait unchanged.
#[derive(Debug, Clone, Copy)]
pub struct LocalThreads {
    /// Worker-thread count.
    pub threads: NonZeroUsize,
}

impl ExecutorBackend for LocalThreads {
    fn name(&self) -> &'static str {
        "local"
    }

    fn parallelism(&self) -> usize {
        self.threads.get()
    }

    fn run<T>(
        &self,
        count: usize,
        work: &(dyn Fn(usize) -> Result<T, CampaignError> + Sync),
    ) -> Result<Vec<T>, CampaignError>
    where
        T: Send + Serialize + Deserialize + PartialEq,
    {
        parallel_map(count, self.threads, work)
    }
}

/// Store and memo counters one worker ships home in its `done` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Points/shards the worker restored from the canonical store.
    pub points_restored: u64,
    /// Points/shards the worker computed (written to its delta).
    pub points_computed: u64,
    /// Bounds entries restored.
    pub bounds_restored: u64,
    /// Bounds entries computed.
    pub bounds_computed: u64,
    /// Refused/failed store writes in the worker.
    pub write_errors: u64,
    /// In-process memo hits.
    pub memo_hits: u64,
    /// In-process memo misses.
    pub memo_misses: u64,
}

impl WorkerStats {
    fn absorb(&mut self, other: &WorkerStats) {
        self.points_restored += other.points_restored;
        self.points_computed += other.points_computed;
        self.bounds_restored += other.bounds_restored;
        self.bounds_computed += other.bounds_computed;
        self.write_errors += other.write_errors;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    /// The store-counter half, shaped for [`crate::CampaignOutcome`].
    /// `invalid`/`stale` stay zero deliberately: workers load the same
    /// canonical files as the coordinator, so absorbing their load-time
    /// counts would double-report every bad line.
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        StoreStats {
            points_restored: self.points_restored,
            points_computed: self.points_computed,
            bounds_restored: self.bounds_restored,
            bounds_computed: self.bounds_computed,
            invalid_entries: 0,
            stale_entries: 0,
            write_errors: self.write_errors,
        }
    }

    /// The memo-counter half.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo_hits,
            misses: self.memo_misses,
        }
    }
}

/// One worker subprocess's assignment, shipped as JSON on its stdin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerJob {
    /// The full campaign spec (JSON text, parseable by
    /// [`CampaignSpec::parse`]). The worker re-validates it and rebuilds
    /// the identical grid; shard indices below refer to that grid.
    pub spec: String,
    /// The shard indices this worker computes, in the order to emit them.
    pub shards: Vec<usize>,
    /// Canonical store to read through (never written by workers).
    pub canonical_store: Option<String>,
    /// Private delta directory for this worker's writes.
    pub delta_store: Option<String>,
    /// This worker's id — the `worker` coordinate of fault-injection
    /// decisions ([`crate::fault`]). Replacement workers spawned by
    /// redispatch get fresh ids, so their schedules are fresh but still
    /// deterministic.
    pub worker: usize,
}

/// Kill-on-drop guard around a worker subprocess: dropping it kills and
/// reaps the child, so a panicking (or early-returning) coordinator never
/// leaks zombie workers — whichever thread drops the guard last cleans
/// up. Killing an already-exited child is a no-op; the `wait` reaps it.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Per-worker supervision state, shared between the supervisor thread
/// (which owns the stdio) and the wave's watchdog thread (which kills on
/// inactivity).
struct WorkerWatch {
    /// The live child, behind a mutex so supervisor and watchdog race
    /// safely for the kill; `take()`-and-drop kills + reaps exactly once.
    child: Mutex<Option<ChildGuard>>,
    /// Last observed activity (spawn, job shipped, or frame received).
    last_activity: Mutex<Instant>,
    /// Set when the supervisor thread is finished with this worker.
    done: AtomicBool,
}

impl WorkerWatch {
    fn new() -> Self {
        Self {
            child: Mutex::new(None),
            // fnpr-lint: allow(wall_clock, "worker-liveness watchdog; never feeds an aggregate")
            last_activity: Mutex::new(Instant::now()),
            done: AtomicBool::new(false),
        }
    }

    fn install(&self, child: ChildGuard) {
        *self.child.lock().expect("worker guard poisoned") = Some(child);
    }

    fn touch(&self) {
        // fnpr-lint: allow(wall_clock, "worker-liveness watchdog; never feeds an aggregate")
        *self.last_activity.lock().expect("worker clock poisoned") = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.last_activity
            .lock()
            .expect("worker clock poisoned")
            .elapsed()
    }

    /// Kills and reaps the child if it is still registered; `true` when
    /// this call actually killed it.
    fn kill(&self) -> bool {
        self.child
            .lock()
            .expect("worker guard poisoned")
            .take()
            .is_some()
    }
}

/// Sets an [`AtomicBool`] on drop — marks a supervisor finished on every
/// exit path (including panics), so the watchdog loop always terminates.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The multi-process backend: shards striped across `workers` subprocesses
/// of the current binary, results streamed back over stdio frames.
pub struct ProcessPool {
    /// Worker-process count.
    pub workers: NonZeroUsize,
    /// The spec text shipped to workers (JSON).
    spec_json: String,
    /// Canonical store path workers read through.
    canonical_store: Option<PathBuf>,
    /// Root under which per-worker delta directories are created.
    delta_root: Option<PathBuf>,
    /// Watchdog inactivity bound: a worker producing no frame for this
    /// long is killed and its unfinished shards reclaimed. `None`
    /// disables the watchdog.
    timeout: Option<Duration>,
    /// Redispatch rounds for reclaimed shards before the coordinator
    /// computes them locally.
    max_retries: usize,
    /// Threads for the coordinator's parallel fallback pass.
    fallback_threads: NonZeroUsize,
    /// Armed fault plan — coordinator side only logs the schedule and
    /// counts planned events; workers execute it.
    fault: Option<FaultPlan>,
    /// Sum of worker `done`-frame stats, for the outcome.
    absorbed: Mutex<WorkerStats>,
}

impl ProcessPool {
    /// A pool of `workers` over `spec_json` (the campaign spec as JSON
    /// text). When the run has a store, `canonical_store` is the sharded
    /// store directory and `delta_root` the directory under which each
    /// worker gets a private `worker-<w>` delta subdirectory.
    ///
    /// Supervision defaults: no watchdog timeout, one redispatch round,
    /// fallback parallelism equal to the worker count.
    #[must_use]
    pub fn new(
        workers: NonZeroUsize,
        spec_json: String,
        canonical_store: Option<PathBuf>,
        delta_root: Option<PathBuf>,
    ) -> Self {
        Self {
            workers,
            spec_json,
            canonical_store,
            delta_root,
            timeout: None,
            max_retries: 1,
            fallback_threads: workers,
            fault: None,
            absorbed: Mutex::new(WorkerStats::default()),
        }
    }

    /// Sets the watchdog inactivity timeout and the redispatch budget.
    #[must_use]
    pub fn with_supervision(mut self, timeout: Option<Duration>, max_retries: usize) -> Self {
        self.timeout = timeout;
        self.max_retries = max_retries;
        self
    }

    /// Sets the thread count for the coordinator's local fallback pass.
    #[must_use]
    pub fn with_fallback_threads(mut self, threads: NonZeroUsize) -> Self {
        self.fallback_threads = threads;
        self
    }

    /// Attaches an armed fault plan for schedule logging and
    /// `campaign.fault.planned.*` counters.
    #[must_use]
    pub fn with_fault(mut self, fault: Option<FaultPlan>) -> Self {
        self.fault = fault;
        self
    }

    /// Worker counters absorbed so far (all `done` frames seen).
    #[must_use]
    pub fn absorbed(&self) -> WorkerStats {
        *self.absorbed.lock().expect("absorbed stats poisoned")
    }

    /// The per-worker delta directory for worker slot `w`.
    fn delta_dir(&self, w: usize) -> Option<PathBuf> {
        self.delta_root
            .as_ref()
            .map(|root| root.join(format!("worker-{w}")))
    }

    /// The worker executable: [`WORKER_EXE_ENV`] override, else this
    /// process's own binary.
    fn worker_exe() -> std::io::Result<PathBuf> {
        // fnpr-lint: allow(env_read, "test hook selecting the worker binary; results are unaffected")
        match std::env::var_os(WORKER_EXE_ENV) {
            Some(exe) if !exe.is_empty() => Ok(PathBuf::from(exe)),
            _ => std::env::current_exe(),
        }
    }

    /// Logs one wave's planned fault events to stderr (the chaos-CI
    /// artifact) and counts them under `campaign.fault.planned.*`.
    fn log_fault_schedule(&self, assignments: &[(usize, Vec<usize>)]) {
        let Some(plan) = &self.fault else { return };
        for (id, shards) in assignments {
            for event in plan.schedule(*id as u64, shards) {
                fnpr_obs::counter(&format!("campaign.fault.planned.{}", event.key())).incr();
                eprintln!("fnpr-campaign: fault schedule: worker {id}: {event}");
            }
        }
    }

    /// Spawns worker `id`, ships its job, and drains its frames into
    /// `slots`. The child is registered in `watch` so the wave watchdog
    /// (or a drop during unwind) can kill it; a kill closes the child's
    /// stdout, so the blocking read loop always terminates.
    fn supervise<T>(
        &self,
        exe: &Path,
        id: usize,
        shards: Vec<usize>,
        watch: &WorkerWatch,
        slots: &[Slot<T>],
        meter: Option<&fnpr_obs::ProgressMeter>,
    ) where
        T: Send + Serialize + Deserialize + PartialEq,
    {
        let done_counter = fnpr_obs::counter!("campaign.points.done");
        let shipped = fnpr_obs::counter!("campaign.backend.shards.shipped");
        let raw_frames = fnpr_obs::counter!("campaign.backend.shards.raw");
        let job = WorkerJob {
            spec: self.spec_json.clone(),
            shards,
            canonical_store: self
                .canonical_store
                .as_ref()
                .map(|p| p.display().to_string()),
            delta_store: self.delta_dir(id).map(|p| p.display().to_string()),
            worker: id,
        };
        let mut child = match std::process::Command::new(exe)
            .arg("worker")
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
        {
            Ok(child) => child,
            Err(e) => {
                eprintln!(
                    "fnpr-campaign: warning: worker {id} failed to spawn ({e}); \
                     its shards fall back to the coordinator"
                );
                return;
            }
        };
        fnpr_obs::counter!("campaign.backend.workers.spawned").incr();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        watch.install(ChildGuard(child));
        watch.touch();
        // Ship the job, close stdin so the worker sees EOF. A broken
        // pipe here means the worker never learned its assignment: kill
        // it and reclaim the shards immediately rather than waiting on
        // a child that will never frame.
        if let Some(mut stdin) = stdin {
            if let Err(e) = stdin.write_all(serde_json::to_string(&job).as_bytes()) {
                fnpr_obs::counter!("campaign.backend.ship_failed").incr();
                eprintln!(
                    "fnpr-campaign: warning: worker {id}: shipping the job failed ({e}); \
                     reclaiming its {} shard(s)",
                    job.shards.len()
                );
                watch.kill();
                return;
            }
        }
        watch.touch();
        if let Some(stdout) = stdout {
            // A shard is retired by its `ok` or `err` frame.
            let retire = || {
                done_counter.incr();
                if let Some(meter) = meter {
                    meter.tick();
                }
            };
            // A read error ends the stream like EOF: undelivered shards
            // fall back.
            let _ = frame::for_each_line(BufReader::new(stdout), |line| {
                watch.touch();
                let Some(frame) = deliver(line, slots) else {
                    return;
                };
                match frame {
                    Frame::Raw { .. } => raw_frames.incr(),
                    Frame::Done { stats } => self
                        .absorbed
                        .lock()
                        .expect("absorbed stats poisoned")
                        .absorb(&stats),
                    Frame::Ok { .. } => {
                        shipped.incr();
                        retire();
                    }
                    Frame::Err { .. } => retire(),
                }
            });
        }
        // EOF: reap (kill is a no-op on an exited child).
        watch.kill();
    }
}

impl ExecutorBackend for ProcessPool {
    fn name(&self) -> &'static str {
        "process"
    }

    fn parallelism(&self) -> usize {
        self.workers.get()
    }

    fn run<T>(
        &self,
        count: usize,
        work: &(dyn Fn(usize) -> Result<T, CampaignError> + Sync),
    ) -> Result<Vec<T>, CampaignError>
    where
        T: Send + Serialize + Deserialize + PartialEq,
    {
        if count == 0 {
            return Ok(Vec::new());
        }
        let workers = self.workers.get().min(count);
        fnpr_obs::gauge!("campaign.points.total").set(count as u64);
        let meter = crate::exec::build_meter(count);

        // One result slot per shard, filled from worker frames; anything
        // still empty afterwards is redispatched and finally computed
        // locally.
        let slots: Vec<Slot<T>> = (0..count).map(|_| Mutex::new(None)).collect();
        let missing = |slots: &[Slot<T>]| -> Vec<usize> {
            slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.lock().expect("backend slot poisoned").is_none())
                .map(|(i, _)| i)
                .collect()
        };

        let exe = match Self::worker_exe() {
            Ok(exe) => Some(exe),
            Err(e) => {
                eprintln!(
                    "fnpr-campaign: warning: cannot resolve worker executable ({e}); \
                     computing every shard in the coordinator"
                );
                None
            }
        };
        if let Some(exe) = &exe {
            // Wave 0 is the striped partition: worker w owns shards w,
            // w+workers, … — a pure function of (shard, workers), so
            // placement never depends on timing. Each retry wave
            // re-stripes whatever dead or hung workers failed to deliver
            // across replacement workers with fresh ids (fresh fault
            // coordinates, still deterministic).
            let mut assignments: Vec<(usize, Vec<usize>)> = (0..workers)
                .map(|w| (w, (w..count).step_by(workers).collect()))
                .collect();
            let mut next_id = workers;
            for round in 0.. {
                self.log_fault_schedule(&assignments);
                let watches: Vec<WorkerWatch> =
                    assignments.iter().map(|_| WorkerWatch::new()).collect();
                std::thread::scope(|scope| {
                    if let Some(timeout) = self.timeout {
                        let watches = &watches;
                        let assignments = &assignments;
                        scope.spawn(move || {
                            while !watches.iter().all(|w| w.done.load(Ordering::Relaxed)) {
                                for ((id, _), watch) in assignments.iter().zip(watches) {
                                    if !watch.done.load(Ordering::Relaxed)
                                        && watch.idle_for() > timeout
                                        && watch.kill()
                                    {
                                        fnpr_obs::counter!("campaign.supervise.timeouts").incr();
                                        eprintln!(
                                            "fnpr-campaign: warning: worker {id} produced no \
                                             frame for {:.1}s; killed (unfinished shards are \
                                             redispatched or recomputed)",
                                            timeout.as_secs_f64()
                                        );
                                    }
                                }
                                std::thread::sleep(Duration::from_millis(20));
                            }
                        });
                    }
                    for ((id, shards), watch) in assignments.iter().zip(&watches) {
                        let slots = &slots;
                        let meter = meter.as_ref();
                        scope.spawn(move || {
                            let _finished = SetOnDrop(&watch.done);
                            self.supervise(exe, *id, shards.clone(), watch, slots, meter);
                        });
                    }
                });
                let unfilled = missing(&slots);
                if unfilled.is_empty() || round >= self.max_retries {
                    break;
                }
                let replacements = workers.min(unfilled.len());
                fnpr_obs::counter!("campaign.supervise.retries").incr();
                fnpr_obs::counter!("campaign.supervise.reclaimed").add(unfilled.len() as u64);
                eprintln!(
                    "fnpr-campaign: redispatching {} reclaimed shard(s) across {} replacement \
                     worker(s) (retry {}/{})",
                    unfilled.len(),
                    replacements,
                    round + 1,
                    self.max_retries
                );
                assignments = (0..replacements)
                    .map(|k| {
                        let shards = unfilled.iter().copied().skip(k).step_by(replacements);
                        (next_id + k, shards.collect())
                    })
                    .collect();
                next_id += replacements;
            }
        }

        // Parallel local fallback for anything workers never delivered —
        // a dead worker degrades to multi-threaded coordinator compute.
        let unfilled = missing(&slots);
        if !unfilled.is_empty() {
            let fallback = fnpr_obs::counter!("campaign.backend.shards.fallback");
            let done_counter = fnpr_obs::counter!("campaign.points.done");
            let threads = self.fallback_threads.get().min(unfilled.len());
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = unfilled.get(k) else { return };
                        *slots[i].lock().expect("backend slot poisoned") = Some(work(i));
                        fallback.incr();
                        done_counter.incr();
                        if let Some(meter) = &meter {
                            meter.tick();
                        }
                        crate::fault::kill_switch_tick();
                    });
                }
            });
        }

        // Assembly in shard order, so the lowest-indexed error wins
        // exactly as in `parallel_map`.
        let mut out = Vec::with_capacity(count);
        for slot in slots {
            match slot.into_inner().expect("backend slot poisoned") {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                None => unreachable!("the fallback pass fills every empty slot"),
            }
        }
        Ok(out)
    }
}

/// The runtime backend selection ([`ExecutorBackend`] has a generic
/// method, so dispatch is by enum rather than `dyn`).
pub enum Executor {
    /// In-process threads.
    Local(LocalThreads),
    /// Worker subprocesses (boxed: the pool carries spec + paths, far
    /// larger than the local variant).
    Process(Box<ProcessPool>),
}

impl Executor {
    /// A local-threads executor.
    #[must_use]
    pub fn local(threads: NonZeroUsize) -> Self {
        Executor::Local(LocalThreads { threads })
    }

    /// A process-pool executor around an already-configured pool; see
    /// [`ProcessPool::new`] and its `with_*` builders.
    #[must_use]
    pub fn process(pool: ProcessPool) -> Self {
        Executor::Process(Box::new(pool))
    }

    /// Backend identifier for reports and telemetry.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Executor::Local(b) => b.name(),
            Executor::Process(b) => b.name(),
        }
    }

    /// Threads or worker processes.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        match self {
            Executor::Local(b) => b.parallelism(),
            Executor::Process(b) => b.parallelism(),
        }
    }

    /// Dispatches to the backend's [`ExecutorBackend::run`].
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing shard.
    pub fn run<T>(
        &self,
        count: usize,
        work: &(dyn Fn(usize) -> Result<T, CampaignError> + Sync),
    ) -> Result<Vec<T>, CampaignError>
    where
        T: Send + Serialize + Deserialize + PartialEq,
    {
        match self {
            Executor::Local(b) => b.run(count, work),
            Executor::Process(b) => b.run(count, work),
        }
    }

    /// Worker counters absorbed from `done` frames (zero for local).
    #[must_use]
    pub fn absorbed(&self) -> WorkerStats {
        match self {
            Executor::Local(_) => WorkerStats::default(),
            Executor::Process(b) => b.absorbed(),
        }
    }
}

/// Frame kinds (the first head word).
const KIND_OK: u64 = 1;
const KIND_ERR: u64 = 2;
const KIND_DONE: u64 = 3;
const KIND_RAW: u64 = 4;

/// A parsed worker frame.
enum Frame<'a> {
    Ok { shard: usize, payload: &'a str },
    Err { shard: usize, message: &'a str },
    Raw { shard: usize },
    Done { stats: WorkerStats },
}

/// Encodes one frame line.
fn encode_frame(kind: u64, shard: usize, payload: &str) -> String {
    FRAME_FORMAT.encode(&[kind, shard as u64], payload)
}

/// Formats an `err` frame; the message is flattened to one line.
fn format_err_frame(shard: usize, message: &str) -> String {
    encode_frame(KIND_ERR, shard, &message.replace(['\n', '\r'], " "))
}

/// Formats the final `done` frame carrying the worker's counters.
fn format_done_frame(stats: &WorkerStats) -> String {
    encode_frame(KIND_DONE, 0, &serde_json::to_string(stats))
}

/// Parses one worker stdout line; `None` for anything malformed (the
/// coordinator treats those shards as undelivered and recomputes).
fn parse_frame(line: &str) -> Option<Frame<'_>> {
    let ([kind, shard], payload) = FRAME_FORMAT.decode(line)?;
    let shard = usize::try_from(shard).ok()?;
    match kind {
        KIND_OK => Some(Frame::Ok { shard, payload }),
        KIND_ERR => Some(Frame::Err {
            shard,
            message: payload,
        }),
        KIND_RAW if payload.is_empty() => Some(Frame::Raw { shard }),
        KIND_DONE if shard == 0 => Some(Frame::Done {
            stats: serde_json::from_str(payload).ok()?,
        }),
        _ => None,
    }
}

/// One shard's result slot, filled from a worker frame or by fallback.
type Slot<T> = Mutex<Option<Result<T, CampaignError>>>;

/// Routes one worker stdout line: an `ok` or `err` frame fills its
/// shard's slot. Returns the frame when it took effect; `None` for
/// malformed lines, undecodable payloads and out-of-range shards, which
/// leave every slot alone so the shard falls back. A `raw` frame never
/// fills its slot: the fallback pass recomputes that shard bit-exactly.
fn deliver<'a, T: Deserialize>(line: &'a str, slots: &[Slot<T>]) -> Option<Frame<'a>> {
    let frame = parse_frame(line)?;
    let (shard, value) = match &frame {
        Frame::Ok { shard, payload } => (*shard, Ok(serde_json::from_str(payload).ok()?)),
        Frame::Err { shard, message } => {
            (*shard, Err(CampaignError::Analysis(message.to_string())))
        }
        Frame::Raw { shard } => return (*shard < slots.len()).then_some(frame),
        Frame::Done { .. } => return Some(frame),
    };
    *slots.get(shard)?.lock().expect("backend slot poisoned") = Some(value);
    Some(frame)
}

/// Emits one frame per assigned shard: `ok` for values that survive the
/// JSON round-trip, `raw` for values that do not, `err` for shard
/// failures. Every shard gets exactly one frame, in assignment order.
/// When a fault schedule is armed, each shard passes through its
/// injection hooks: [`WorkerFaults::before_shard`] (stall/crash) before
/// computing and [`WorkerFaults::mangle_frame`] (corrupt/truncate)
/// before writing.
fn emit_shards<T>(
    shards: &[usize],
    out: &mut dyn Write,
    faults: Option<&WorkerFaults>,
    compute: impl Fn(usize) -> Result<T, CampaignError>,
) -> std::io::Result<()>
where
    T: Serialize + Deserialize + PartialEq,
{
    for &i in shards {
        if let Some(faults) = faults {
            faults.before_shard(i);
        }
        let frame = match compute(i) {
            Ok(v) => {
                let payload = serde_json::to_string(&v);
                // Same two-sided self-check as the result store: ship only
                // values the coordinator will decode to the identical value
                // (and identical bytes in the rendered aggregates).
                match serde_json::from_str::<T>(&payload) {
                    Ok(rt) if rt == v && serde_json::to_string(&rt) == payload => {
                        encode_frame(KIND_OK, i, &payload)
                    }
                    _ => encode_frame(KIND_RAW, i, ""),
                }
            }
            Err(e) => format_err_frame(i, &e.to_string()),
        };
        let frame = match faults {
            Some(faults) => faults.mangle_frame(i, frame),
            None => frame,
        };
        out.write_all(frame.as_bytes())?;
    }
    Ok(())
}

/// The worker-subprocess entry point: parse the [`WorkerJob`] from
/// `job_json`, rebuild the campaign, compute the assigned shards and
/// stream frames to `out`. Telemetry stays off (the coordinator owns the
/// progress line and metric exports); the worker never spawns further
/// workers — shards compute directly, whatever `[executor]` says.
///
/// # Errors
///
/// Job/spec parse and validation failures, and I/O errors writing frames.
/// The coordinator treats a worker that dies this way as undelivered
/// shards and recomputes them locally.
pub fn run_worker(job_json: &str, out: &mut dyn Write) -> Result<(), CampaignError> {
    let job: WorkerJob = serde_json::from_str(job_json)?;
    let campaign = CampaignSpec::parse(&job.spec)?.validate()?;
    // Fault injection executes in the worker: decisions are pure
    // functions of (fault_seed, worker, shard), armed only when both the
    // spec carries a `[fault]` table and `FNPR_FAULT` says so.
    let faults = crate::fault::active_plan(campaign.fault.as_ref())?
        .map(|plan| WorkerFaults::new(plan, job.worker as u64));
    let faults = faults.as_ref();
    let store = match (&job.canonical_store, &job.delta_store) {
        (Some(canonical), Some(delta)) => Some(ResultStore::open_delta(
            Path::new(canonical),
            Path::new(delta),
        )?),
        _ => None,
    };
    let store = store.as_ref();
    let seed = campaign.seed;
    let memo = match &campaign.workload {
        Workload::Acceptance(params) => {
            let engine = acceptance::AcceptanceEngine::new();
            emit_shards(&job.shards, out, faults, |i| {
                acceptance::compute_shard(params, seed, i, &engine, store)
            })?;
            engine.taskset_memo.stats()
        }
        Workload::Soundness(params) => {
            let engine = soundness::SoundnessEngine::new();
            emit_shards(&job.shards, out, faults, |i| {
                soundness::compute_shard(params, seed, i, &engine, store)
            })?;
            engine.bounds_memo.stats()
        }
        Workload::Multicore(params) => {
            let engine = multicore::MulticoreEngine::new();
            emit_shards(&job.shards, out, faults, |i| {
                multicore::compute_shard(params, seed, i, &engine, store)
            })?;
            engine.taskset_memo.stats()
        }
        Workload::Cfg(params) => {
            let engine = cfg_workload::CfgEngine::new();
            emit_shards(&job.shards, out, faults, |i| {
                cfg_workload::compute_shard(params, seed, i, &engine, store)
            })?;
            engine.program_memo.stats() + engine.curve_memo.stats()
        }
    };
    // Torn-tail injection: clip the delta store's newest log after the
    // shards are flushed, exercising the coordinator's heal-on-merge.
    if let Some(faults) = faults {
        faults.after_shards(job.delta_store.as_deref().map(Path::new));
    }
    let store_stats = store.map(ResultStore::stats).unwrap_or_default();
    let stats = WorkerStats {
        points_restored: store_stats.points_restored,
        points_computed: store_stats.points_computed,
        bounds_restored: store_stats.bounds_restored,
        bounds_computed: store_stats.bounds_computed,
        write_errors: store_stats.write_errors,
        memo_hits: memo.hits,
        memo_misses: memo.misses,
    };
    out.write_all(format_done_frame(&stats).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame without its trailing newline, as the line reader yields it.
    fn unframed(frame: &str) -> &str {
        frame.strip_suffix('\n').expect("frames end in a newline")
    }

    #[test]
    fn local_backend_matches_parallel_map() {
        for threads in [1usize, 2, 8] {
            let exec = Executor::local(NonZeroUsize::new(threads).unwrap());
            assert_eq!(exec.name(), "local");
            let out: Vec<u64> = exec.run(20, &|i| Ok(i as u64 * 3)).unwrap();
            assert_eq!(out, (0..20).map(|i| i * 3).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn frames_round_trip() {
        let ok = encode_frame(KIND_OK, 7, "{\"x\":1.5}");
        match parse_frame(unframed(&ok)) {
            Some(Frame::Ok { shard, payload }) => {
                assert_eq!(shard, 7);
                assert_eq!(payload, "{\"x\":1.5}");
            }
            _ => panic!("ok frame did not parse: {ok}"),
        }
        let err = format_err_frame(3, "analysis failure:\nmultiline");
        match parse_frame(unframed(&err)) {
            Some(Frame::Err { shard, message }) => {
                assert_eq!(shard, 3);
                assert_eq!(message, "analysis failure: multiline");
            }
            _ => panic!("err frame did not parse: {err}"),
        }
        match parse_frame(unframed(&encode_frame(KIND_RAW, 9, ""))) {
            Some(Frame::Raw { shard }) => assert_eq!(shard, 9),
            _ => panic!("raw frame did not parse"),
        }
        let stats = WorkerStats {
            points_computed: 4,
            memo_hits: 11,
            ..WorkerStats::default()
        };
        match parse_frame(unframed(&format_done_frame(&stats))) {
            Some(Frame::Done { stats: parsed }) => assert_eq!(parsed, stats),
            _ => panic!("done frame did not parse"),
        }
        // Well-framed lines of an unknown kind, a raw frame with a payload
        // and a done frame for a shard are all rejected.
        for bad in [
            encode_frame(5, 1, "{}"),
            encode_frame(KIND_RAW, 1, "x"),
            encode_frame(KIND_DONE, 1, &serde_json::to_string(&stats)),
        ] {
            assert!(parse_frame(unframed(&bad)).is_none(), "{bad}");
        }
    }

    #[test]
    fn out_of_range_and_undecodable_frames_fall_back() {
        let slots: Vec<Slot<f64>> = (0..2).map(|_| Mutex::new(None)).collect();
        let deliver_frame = |frame: String| deliver(unframed(&frame), &slots).is_some();
        for frame in [
            encode_frame(KIND_OK, 2, "1.5"),
            format_err_frame(2, "boom"),
            encode_frame(KIND_RAW, 2, ""),
            encode_frame(KIND_OK, 0, "not json"),
            "garbage\n".to_string(),
        ] {
            assert!(!deliver_frame(frame.clone()), "{frame}");
        }
        assert!(slots.iter().all(|s| s.lock().unwrap().is_none()));
        assert!(deliver_frame(encode_frame(KIND_RAW, 1, "")));
        assert!(slots[1].lock().unwrap().is_none(), "raw shards fall back");
        assert!(deliver_frame(encode_frame(KIND_OK, 1, "1.5")));
        assert!(deliver_frame(format_err_frame(0, "boom")));
        assert!(matches!(*slots[0].lock().unwrap(), Some(Err(_))));
        assert!(matches!(*slots[1].lock().unwrap(), Some(Ok(v)) if v == 1.5));
    }

    #[test]
    fn emit_ships_ok_raw_and_err_frames() {
        let mut out = Vec::new();
        emit_shards(&[0, 1, 2], &mut out, None, |i| match i {
            0 => Ok(1.5f64),
            1 => Ok(f64::NAN), // no JSON round-trip → raw
            _ => Err(CampaignError::Analysis("boom".into())),
        })
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(matches!(
            parse_frame(lines[0]),
            Some(Frame::Ok { shard: 0, .. })
        ));
        assert!(matches!(
            parse_frame(lines[1]),
            Some(Frame::Raw { shard: 1 })
        ));
        match parse_frame(lines[2]) {
            Some(Frame::Err { shard, message }) => {
                assert_eq!(shard, 2);
                assert!(message.contains("boom"));
            }
            _ => panic!("expected err frame: {}", lines[2]),
        }
    }

    /// A worker whose frames are mangled by fault injection still yields a run where every mangled shard falls back — pinned
    /// here at the parse layer: mangled frames never parse.
    #[test]
    fn fault_mangled_frames_parse_to_none() {
        let plan = FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::default()
        };
        let faults = WorkerFaults::new(plan, 0);
        let frame = encode_frame(KIND_OK, 5, "{\"x\":2.5}");
        let mangled = faults.mangle_frame(5, frame.clone());
        assert_ne!(mangled, frame);
        assert!(parse_frame(unframed(&mangled)).is_none());

        let plan = FaultPlan {
            truncate: 1.0,
            ..FaultPlan::default()
        };
        let faults = WorkerFaults::new(plan, 0);
        let mangled = faults.mangle_frame(5, frame.clone());
        assert_ne!(mangled, frame);
        assert!(parse_frame(unframed(&mangled)).is_none());
    }

    #[test]
    fn worker_stats_absorb_and_split() {
        let mut total = WorkerStats::default();
        total.absorb(&WorkerStats {
            points_computed: 3,
            bounds_restored: 2,
            memo_hits: 5,
            memo_misses: 1,
            ..WorkerStats::default()
        });
        total.absorb(&WorkerStats {
            points_restored: 4,
            write_errors: 1,
            memo_hits: 2,
            ..WorkerStats::default()
        });
        let store = total.store_stats();
        assert_eq!(store.points_computed, 3);
        assert_eq!(store.points_restored, 4);
        assert_eq!(store.bounds_restored, 2);
        assert_eq!(store.write_errors, 1);
        assert_eq!((store.invalid_entries, store.stale_entries), (0, 0));
        let memo = total.memo_stats();
        assert_eq!((memo.hits, memo.misses), (7, 1));
    }
}
