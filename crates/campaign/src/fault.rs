//! Deterministic fault injection: a seeded harness that makes every
//! failure path of the process backend testable and **replayable**.
//!
//! A campaign spec may carry a `[fault]` table ([`FaultSpec`]) describing
//! a failure schedule: worker crashes before a shard, artificial stalls,
//! frame corruption/truncation on the worker wire protocol, torn delta
//! tails, and a coordinator kill switch for crash-resume drills. Like
//! `[telemetry]` and `[executor]`, the table is **excluded from the
//! scenario hash** — injecting faults must never change what a campaign
//! computes, only how much work recovery does.
//!
//! Injection only happens when the `FNPR_FAULT` environment variable arms
//! it (see [`armed`]), so a spec with a `[fault]` table is inert in normal
//! runs. Every injection decision is a pure function of
//! `(fault_seed, site, worker, shard)` via [`crate::memo::ScenarioHasher`]
//! — no clocks, no RNG state — so a failure schedule replays
//! byte-for-byte: the coordinator can print the exact schedule its workers
//! will execute before spawning any of them.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::error::CampaignError;
use crate::memo::ScenarioHasher;

/// Domain tag for fault-decision hashes.
const TAG_FAULT: u64 = 0x4641_554c; // "FAUL"

/// The `FNPR_FAULT` environment variable: unset/empty/`0`/`off` disarms
/// injection entirely; `1`/`true`/`on` arms the spec's `[fault]` table;
/// any other value is parsed as an inline `key=value,key=value` plan that
/// overrides the spec (used by chaos CI to inject faults into an
/// unmodified spec). Worker subprocesses inherit the variable, so one
/// setting governs the whole job tree.
pub const FAULT_ENV: &str = "FNPR_FAULT";

/// Raw `[fault]` table: a seeded failure schedule. All fields optional;
/// absent probabilities default to 0 (never). Probabilities are per
/// `(worker, shard)` site, evaluated independently per fault class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed of the failure schedule (independent of the campaign seed, so
    /// the same workload can replay under many schedules). Default 0.
    pub seed: Option<u64>,
    /// P(worker exits abruptly before computing a shard).
    pub crash: Option<f64>,
    /// P(worker sleeps `stall_ms` before computing a shard) — the hung
    /// worker the watchdog must reap.
    pub stall: Option<f64>,
    /// Stall duration in milliseconds (default 30000: longer than any
    /// sane watchdog timeout, so an unwatched stall is visible).
    pub stall_ms: Option<u64>,
    /// P(a shard's result frame is corrupted in flight) — the checksum
    /// must reject it and the coordinator recompute the shard.
    pub corrupt: Option<f64>,
    /// P(a shard's result frame is truncated mid-line).
    pub truncate: Option<f64>,
    /// P(a worker's delta store loses its tail) — torn-tail healing plus
    /// merge-side validation must absorb it.
    pub torn_delta: Option<f64>,
    /// Coordinator kill switch: abort the coordinator process (no
    /// destructors, like SIGKILL) after this many retired shards. For
    /// crash-resume drills; meaningful for one run, not a probability.
    pub kill_after: Option<u64>,
}

/// A validated failure schedule, ready for pure per-site decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Schedule seed.
    pub seed: u64,
    /// P(crash before shard).
    pub crash: f64,
    /// P(stall before shard).
    pub stall: f64,
    /// Stall duration (milliseconds).
    pub stall_ms: u64,
    /// P(frame corrupted).
    pub corrupt: f64,
    /// P(frame truncated).
    pub truncate: f64,
    /// P(delta tail torn), per worker.
    pub torn_delta: f64,
    /// Abort the coordinator after N retired shards.
    pub kill_after: Option<u64>,
}

impl Default for FaultPlan {
    /// The empty schedule: every probability zero, nothing armed.
    fn default() -> Self {
        Self {
            seed: 0,
            crash: 0.0,
            stall: 0.0,
            stall_ms: 30_000,
            corrupt: 0.0,
            truncate: 0.0,
            torn_delta: 0.0,
            kill_after: None,
        }
    }
}

/// One planned injection, for schedule logging and `campaign.fault.*`
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Worker exits before computing the shard.
    Crash {
        /// The shard it dies in front of.
        shard: usize,
    },
    /// Worker sleeps before computing the shard.
    Stall {
        /// The stalled shard.
        shard: usize,
        /// Sleep duration (milliseconds).
        ms: u64,
    },
    /// The shard's result frame is corrupted.
    Corrupt {
        /// The affected shard.
        shard: usize,
    },
    /// The shard's result frame is truncated.
    Truncate {
        /// The affected shard.
        shard: usize,
    },
    /// The worker's delta store loses its tail.
    TornDelta,
}

impl FaultEvent {
    /// Counter-name suffix (`campaign.fault.planned.<key>`).
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            FaultEvent::Crash { .. } => "crash",
            FaultEvent::Stall { .. } => "stall",
            FaultEvent::Corrupt { .. } => "corrupt",
            FaultEvent::Truncate { .. } => "truncate",
            FaultEvent::TornDelta => "torn_delta",
        }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::Crash { shard } => write!(f, "crash before shard {shard}"),
            FaultEvent::Stall { shard, ms } => write!(f, "stall {ms}ms before shard {shard}"),
            FaultEvent::Corrupt { shard } => write!(f, "corrupt frame of shard {shard}"),
            FaultEvent::Truncate { shard } => write!(f, "truncate frame of shard {shard}"),
            FaultEvent::TornDelta => write!(f, "tear delta-store tail"),
        }
    }
}

// Decision-site tags: distinct words so e.g. crash and stall schedules
// are independent even at the same (seed, worker, shard).
const SITE_CRASH: u64 = 1;
const SITE_STALL: u64 = 2;
const SITE_CORRUPT: u64 = 3;
const SITE_TRUNCATE: u64 = 4;
const SITE_TORN: u64 = 5;

fn check_probability(key: &str, p: Option<f64>) -> Result<f64, CampaignError> {
    let p = p.unwrap_or(0.0);
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(CampaignError::Spec(format!(
            "`{key}` must be a probability in [0, 1], not {p}"
        )));
    }
    Ok(p)
}

impl FaultPlan {
    /// Validates a raw [`FaultSpec`] into a plan.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] on probabilities outside `[0, 1]`.
    pub fn from_spec(spec: &FaultSpec) -> Result<Self, CampaignError> {
        Ok(Self {
            seed: spec.seed.unwrap_or(0),
            crash: check_probability("crash", spec.crash)?,
            stall: check_probability("stall", spec.stall)?,
            stall_ms: spec.stall_ms.unwrap_or(30_000),
            corrupt: check_probability("corrupt", spec.corrupt)?,
            truncate: check_probability("truncate", spec.truncate)?,
            torn_delta: check_probability("torn_delta", spec.torn_delta)?,
            kill_after: spec.kill_after,
        })
    }

    /// The pure coin for one decision site: a uniform value in `[0, 1)`
    /// derived only from `(fault_seed, site, worker, shard)`.
    fn roll(&self, site: u64, worker: u64, shard: u64) -> f64 {
        let h = ScenarioHasher::new(TAG_FAULT)
            .word(self.seed)
            .word(site)
            .word(worker)
            .word(shard)
            .finish();
        // Top 53 bits → exactly representable in f64, uniform in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does `worker` crash before computing `shard`?
    #[must_use]
    pub fn crashes_at(&self, worker: u64, shard: u64) -> bool {
        self.roll(SITE_CRASH, worker, shard) < self.crash
    }

    /// Does `worker` stall before computing `shard`?
    #[must_use]
    pub fn stalls_at(&self, worker: u64, shard: u64) -> bool {
        self.roll(SITE_STALL, worker, shard) < self.stall
    }

    /// Is `shard`'s result frame corrupted?
    #[must_use]
    pub fn corrupts_at(&self, worker: u64, shard: u64) -> bool {
        self.roll(SITE_CORRUPT, worker, shard) < self.corrupt
    }

    /// Is `shard`'s result frame truncated? (Corruption wins when both
    /// trigger — one mangling per frame.)
    #[must_use]
    pub fn truncates_at(&self, worker: u64, shard: u64) -> bool {
        self.roll(SITE_TRUNCATE, worker, shard) < self.truncate
    }

    /// Does `worker` tear its delta-store tail after its last shard?
    #[must_use]
    pub fn tears_delta(&self, worker: u64) -> bool {
        self.roll(SITE_TORN, worker, 0) < self.torn_delta
    }

    /// The exact schedule `worker` will execute over `shards` (in
    /// assignment order): what the worker-side hooks do, predicted
    /// coordinator-side. A crash ends the worker, so nothing after it is
    /// planned — including the delta tear.
    #[must_use]
    pub fn schedule(&self, worker: u64, shards: &[usize]) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for &shard in shards {
            let s = shard as u64;
            if self.stalls_at(worker, s) {
                events.push(FaultEvent::Stall {
                    shard,
                    ms: self.stall_ms,
                });
            }
            if self.crashes_at(worker, s) {
                events.push(FaultEvent::Crash { shard });
                return events;
            }
            if self.corrupts_at(worker, s) {
                events.push(FaultEvent::Corrupt { shard });
            } else if self.truncates_at(worker, s) {
                events.push(FaultEvent::Truncate { shard });
            }
        }
        if self.tears_delta(worker) {
            events.push(FaultEvent::TornDelta);
        }
        events
    }
}

/// Is fault injection armed for this process? See [`FAULT_ENV`].
#[must_use]
pub fn armed() -> bool {
    // fnpr-lint: allow(env_read, "chaos-test arming switch; injected faults are themselves seeded")
    match std::env::var(FAULT_ENV) {
        Ok(v) => !matches!(v.trim(), "" | "0" | "off"),
        Err(_) => false,
    }
}

/// Parses an inline `key=value,key=value` plan from the env payload
/// (keys are the `[fault]` table keys).
fn parse_env_plan(text: &str) -> Result<FaultSpec, CampaignError> {
    let mut spec = FaultSpec::default();
    for item in text.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (key, value) = item.split_once('=').ok_or_else(|| {
            CampaignError::Spec(format!(
                "{FAULT_ENV}: expected key=value, got {item:?} (keys: seed, crash, stall, \
                 stall_ms, corrupt, truncate, torn_delta, kill_after)"
            ))
        })?;
        let bad = |what: &str| {
            CampaignError::Spec(format!(
                "{FAULT_ENV}: bad {what} value {value:?} for `{key}`"
            ))
        };
        match key.trim() {
            "seed" => spec.seed = Some(value.parse().map_err(|_| bad("integer"))?),
            "crash" => spec.crash = Some(value.parse().map_err(|_| bad("number"))?),
            "stall" => spec.stall = Some(value.parse().map_err(|_| bad("number"))?),
            "stall_ms" => spec.stall_ms = Some(value.parse().map_err(|_| bad("integer"))?),
            "corrupt" => spec.corrupt = Some(value.parse().map_err(|_| bad("number"))?),
            "truncate" => spec.truncate = Some(value.parse().map_err(|_| bad("number"))?),
            "torn_delta" => spec.torn_delta = Some(value.parse().map_err(|_| bad("number"))?),
            "kill_after" => spec.kill_after = Some(value.parse().map_err(|_| bad("integer"))?),
            other => {
                return Err(CampaignError::Spec(format!(
                    "{FAULT_ENV}: unknown fault key `{other}`"
                )))
            }
        }
    }
    Ok(spec)
}

/// Resolves the active failure schedule for this process: `None` when
/// [`FAULT_ENV`] is disarmed, the spec's `[fault]` table when armed with
/// `1`/`true`/`on` (still `None` if the spec has no table), or the env
/// payload itself parsed as an inline plan. Both the coordinator and its
/// worker subprocesses resolve the same value, so their schedules agree.
///
/// # Errors
///
/// [`CampaignError::Spec`] on an unparseable env payload or invalid
/// probabilities.
pub fn active_plan(spec: Option<&FaultSpec>) -> Result<Option<FaultPlan>, CampaignError> {
    // fnpr-lint: allow(env_read, "chaos-test plan channel shared with workers; deterministic given the plan")
    let value = match std::env::var(FAULT_ENV) {
        Ok(v) => v,
        Err(_) => return Ok(None),
    };
    match value.trim() {
        "" | "0" | "off" => Ok(None),
        "1" | "true" | "on" => spec.map(FaultPlan::from_spec).transpose(),
        inline => Ok(Some(FaultPlan::from_spec(&parse_env_plan(inline)?)?)),
    }
}

/// Worker-side injection hooks: the plan bound to this worker's id, ready
/// to drop into the shard-emission loop.
#[derive(Debug, Clone, Copy)]
pub struct WorkerFaults {
    plan: FaultPlan,
    worker: u64,
}

impl WorkerFaults {
    /// Binds `plan` to worker `worker`.
    #[must_use]
    pub fn new(plan: FaultPlan, worker: u64) -> Self {
        Self { plan, worker }
    }

    /// Runs the before-compute hooks for `shard`: sleeps through a
    /// scheduled stall, then **exits the process** on a scheduled crash
    /// (abrupt, like a real worker death — frames already written are
    /// out, nothing else is flushed).
    pub fn before_shard(&self, shard: usize) {
        let s = shard as u64;
        if self.plan.stalls_at(self.worker, s) {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
        }
        if self.plan.crashes_at(self.worker, s) {
            eprintln!(
                "fnpr-campaign worker {}: fault: crashing before shard {shard}",
                self.worker
            );
            std::process::exit(113);
        }
    }

    /// Applies scheduled frame mangling to `shard`'s outgoing frame:
    /// corruption (one byte flipped) or truncation (line cut mid-body).
    /// Either way the frame checksum must reject the line and the
    /// coordinator recompute the shard.
    #[must_use]
    pub fn mangle_frame(&self, shard: usize, frame: String) -> String {
        let s = shard as u64;
        if self.plan.corrupts_at(self.worker, s) {
            return corrupt_line(&frame);
        }
        if self.plan.truncates_at(self.worker, s) {
            return truncate_line(&frame);
        }
        frame
    }

    /// Runs the after-shards hook: tears the tail off the worker's delta
    /// store (the largest table file loses its last bytes), simulating a
    /// worker that died mid-append. Shipped frames are unaffected; the
    /// merge skips the torn line.
    pub fn after_shards(&self, delta_dir: Option<&std::path::Path>) {
        let Some(dir) = delta_dir else { return };
        if !self.plan.tears_delta(self.worker) {
            return;
        }
        let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_file())
                .collect(),
            Err(_) => return,
        };
        files.sort();
        // Tear the last nonempty file (deterministic choice given the
        // deterministic set of files a worker writes).
        for path in files.iter().rev() {
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            if len > 8 {
                if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
                    let _ = file.set_len(len - 7);
                }
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator kill switch (crash-resume drills)
// ---------------------------------------------------------------------

/// Disarmed sentinel for [`KILL_AFTER`].
const KILL_DISARMED: u64 = u64::MAX;
/// Retired-shard threshold at which the coordinator aborts.
static KILL_AFTER: AtomicU64 = AtomicU64::new(KILL_DISARMED);
/// Retired shards since the switch was last armed.
static KILL_RETIRED: AtomicU64 = AtomicU64::new(0);

/// Arms (or, with `None`, disarms) the coordinator kill switch:
/// [`kill_switch_tick`] aborts the process once `after` shards have
/// retired. Process-global — intended for one CLI run at a time (the
/// crash-resume drill), not for concurrent in-process campaigns.
pub fn arm_kill_switch(after: Option<u64>) {
    KILL_RETIRED.store(0, Ordering::SeqCst);
    KILL_AFTER.store(after.unwrap_or(KILL_DISARMED), Ordering::SeqCst);
}

/// Counts one retired shard against the kill switch; aborts the process
/// (no destructors — the SIGKILL analogue) at the armed threshold. One
/// relaxed load when disarmed.
pub(crate) fn kill_switch_tick() {
    let limit = KILL_AFTER.load(Ordering::Relaxed);
    if limit == KILL_DISARMED {
        return;
    }
    let retired = KILL_RETIRED.fetch_add(1, Ordering::SeqCst) + 1;
    if retired >= limit {
        eprintln!(
            "fnpr-campaign: fault: aborting coordinator after {retired} retired shards \
             (kill_after = {limit})"
        );
        std::process::abort();
    }
}

/// Flips one mid-line character (deterministically, by content length) so
/// the frame checksum fails; char count and trailing newline are
/// preserved.
fn corrupt_line(frame: &str) -> String {
    let chars: Vec<char> = frame.trim_end_matches('\n').chars().collect();
    let flip = chars.len() / 2;
    let body: String = chars
        .into_iter()
        .enumerate()
        .map(|(i, c)| match (i == flip, c) {
            (true, '#') => '%',
            (true, _) => '#',
            (false, c) => c,
        })
        .collect();
    format!("{body}\n")
}

/// Cuts the line to two thirds of its length (char-boundary-safe),
/// keeping the newline so one mangled frame costs exactly one shard.
fn truncate_line(frame: &str) -> String {
    let body = frame.trim_end_matches('\n');
    let mut cut = (body.len() * 2 / 3).min(body.len().saturating_sub(1));
    while cut > 0 && !body.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}\n", &body[..cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &FaultSpec) -> FaultPlan {
        FaultPlan::from_spec(spec).unwrap()
    }

    #[test]
    fn decisions_are_pure_and_monotone_in_probability() {
        let never = plan(&FaultSpec {
            crash: Some(0.0),
            ..FaultSpec::default()
        });
        let always = plan(&FaultSpec {
            crash: Some(1.0),
            ..FaultSpec::default()
        });
        let half = plan(&FaultSpec {
            crash: Some(0.5),
            ..FaultSpec::default()
        });
        let mut fired = 0;
        for worker in 0..4u64 {
            for shard in 0..64u64 {
                assert!(!never.crashes_at(worker, shard));
                assert!(always.crashes_at(worker, shard));
                let d = half.crashes_at(worker, shard);
                assert_eq!(d, half.crashes_at(worker, shard), "decision not pure");
                fired += u64::from(d);
            }
        }
        // 256 fair-ish coins: a wildly skewed count means the roll is broken.
        assert!((64..=192).contains(&fired), "p=0.5 fired {fired}/256");
    }

    #[test]
    fn sites_and_seeds_are_independent() {
        let a = plan(&FaultSpec {
            seed: Some(1),
            crash: Some(0.5),
            stall: Some(0.5),
            ..FaultSpec::default()
        });
        let b = plan(&FaultSpec {
            seed: Some(2),
            crash: Some(0.5),
            stall: Some(0.5),
            ..FaultSpec::default()
        });
        let crash_a: Vec<bool> = (0..128).map(|s| a.crashes_at(0, s)).collect();
        let stall_a: Vec<bool> = (0..128).map(|s| a.stalls_at(0, s)).collect();
        let crash_b: Vec<bool> = (0..128).map(|s| b.crashes_at(0, s)).collect();
        assert_ne!(crash_a, stall_a, "sites share a decision stream");
        assert_ne!(crash_a, crash_b, "seeds share a decision stream");
    }

    #[test]
    fn schedule_mirrors_worker_hooks() {
        let p = plan(&FaultSpec {
            crash: Some(0.4),
            stall: Some(0.4),
            corrupt: Some(0.4),
            truncate: Some(0.4),
            torn_delta: Some(1.0),
            ..FaultSpec::default()
        });
        let shards: Vec<usize> = (0..32).collect();
        let events = p.schedule(7, &shards);
        // Nothing is scheduled after a crash; without one, the tear ends
        // the schedule.
        if let Some(pos) = events
            .iter()
            .position(|e| matches!(e, FaultEvent::Crash { .. }))
        {
            assert_eq!(pos, events.len() - 1, "events scheduled after a crash");
        } else {
            assert_eq!(events.last(), Some(&FaultEvent::TornDelta));
        }
        assert_eq!(events, p.schedule(7, &shards), "schedule not replayable");
    }

    #[test]
    fn spec_validation_rejects_bad_probabilities() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = FaultPlan::from_spec(&FaultSpec {
                stall: Some(bad),
                ..FaultSpec::default()
            });
            assert!(err.is_err(), "accepted stall = {bad}");
        }
    }

    #[test]
    fn env_payload_parses_and_rejects_unknowns() {
        let spec = parse_env_plan("seed=7, crash=0.25,stall=1.0,stall_ms=50,kill_after=4").unwrap();
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.crash, Some(0.25));
        assert_eq!(spec.stall_ms, Some(50));
        assert_eq!(spec.kill_after, Some(4));
        assert!(parse_env_plan("explode=1").is_err());
        assert!(parse_env_plan("crash").is_err());
        assert!(parse_env_plan("crash=lots").is_err());
    }

    #[test]
    fn mangled_frames_change_but_stay_terminated() {
        let frame = crate::backend::FRAME_FORMAT.encode(&[1, 3], "{\"x\":1.5}");
        let corrupted = corrupt_line(&frame);
        assert_ne!(corrupted, frame);
        assert!(corrupted.ends_with('\n'));
        assert_eq!(corrupted.len(), frame.len());
        let truncated = truncate_line(&frame);
        assert_ne!(truncated, frame);
        assert!(truncated.ends_with('\n'));
        assert!(truncated.len() < frame.len());
    }

    #[test]
    fn kill_switch_is_inert_below_threshold_and_when_disarmed() {
        arm_kill_switch(None);
        kill_switch_tick(); // must not abort
        arm_kill_switch(Some(1_000_000));
        kill_switch_tick(); // still far below the threshold
        arm_kill_switch(None);
    }
}
