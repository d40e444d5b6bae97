//! The four workloads: the spec each one generates from the seed, the
//! per-rep state it needs, one timed rep, and the correctness gate every
//! rep passes through.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib::{process_cpu_seconds, CpuTicks};
use crate::record::{fnv1a, FNV_OFFSET};
use fnpr_campaign::{
    run_campaign_with_options, BackendChoice, Campaign, CampaignError, CampaignOutcome,
    CampaignReport, CampaignSpec, ExecOptions, ResultStore,
};

/// The seed whose aggregates are pinned by [`Workload::golden_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 style FP + EDF acceptance-ratio sweep.
    Acceptance,
    /// Section IV program → CRPD → delay-curve sweep.
    CfgPipeline,
    /// Random step curves against every bound, validated by the simulator.
    SoundnessSim,
    /// A soundness grid extended from a pre-populated store through worker
    /// processes.
    StoreExtend,
}

/// Input scale. `Full` is what the benchmark measures; `Tiny` keeps every
/// workload's shape at a handful of items for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A few items per workload.
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Acceptance,
        Workload::CfgPipeline,
        Workload::SoundnessSim,
        Workload::StoreExtend,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Acceptance => "acceptance",
            Workload::CfgPipeline => "cfg_pipeline",
            Workload::SoundnessSim => "soundness_sim",
            Workload::StoreExtend => "store_extend",
        }
    }

    /// Digest of the aggregates at [`DEFAULT_SEED`] and [`Size::Full`].
    pub fn golden_digest(self) -> u64 {
        match self {
            Workload::Acceptance => 0xea38_21cd_8ae5_b84c,
            Workload::CfgPipeline => 0xd5cd_3266_0463_f753,
            Workload::SoundnessSim => 0x27f0_9098_0dd2_c1aa,
            Workload::StoreExtend => 0xdcaf_4336_713f_2d1b,
        }
    }

    /// Whether a rep runs through worker processes against a restored
    /// store.
    pub fn uses_store(self) -> bool {
        self == Workload::StoreExtend
    }

    /// The spec a timed rep runs.
    pub fn spec_text(self, seed: u64, size: Size) -> String {
        let tiny = size == Size::Tiny;
        match self {
            Workload::Acceptance => format!(
                "name = \"bench-acceptance\"\nseed = {seed}\nworkload = \"acceptance\"\n\
                 [acceptance]\nsets_per_point = {}\nutilizations = {}\n\
                 [acceptance.taskset]\nn = 8\nutilization = 0.5\n\
                 period_range = [10.0, 1000.0]\ndeadline_factor = [1.0, 1.0]\n",
                if tiny { 3 } else { 400 },
                if tiny {
                    "{ values = [0.5] }"
                } else {
                    "{ start = 0.3, stop = 0.9, step = 0.1 }"
                },
            ),
            Workload::CfgPipeline => {
                let axes = if tiny {
                    "programs_per_point = 2\ndepths = [1]\nloop_iterations = [4]\n\
                     footprints = [8]\nq_scales = { values = [0.5] }\nsets = [32]\n\
                     associativity = [1]\nreload_cost = [10.0]\n"
                } else {
                    "programs_per_point = 96\ndepths = [1, 2, 3]\nloop_iterations = [4, 8]\n\
                     footprints = [8, 32]\nq_scales = { values = [0.25, 0.5] }\n\
                     sets = [32, 128]\nassociativity = [2]\nreload_cost = [10.0]\n"
                };
                format!(
                    "name = \"bench-cfg\"\nseed = {seed}\nworkload = \"cfg\"\n\
                     [cfg]\n{axes}line_bytes = [16]\n"
                )
            }
            Workload::SoundnessSim => soundness_spec(
                "bench-soundness",
                seed,
                if tiny { 40 } else { 20_000 },
                10,
                true,
            ),
            Workload::StoreExtend => {
                soundness_spec("bench-store", seed, store_trials(size) * 2, 4, false)
            }
        }
    }

    /// The spec that pre-populates the store a `store_extend` rep extends:
    /// the first half of the measured grid's trials.
    fn base_spec_text(self, seed: u64, size: Size) -> String {
        soundness_spec("bench-store", seed, store_trials(size), 4, false)
    }
}

fn store_trials(size: Size) -> usize {
    match size {
        Size::Full => 20_000,
        Size::Tiny => 40,
    }
}

fn soundness_spec(
    name: &str,
    seed: u64,
    trials: usize,
    per_shard: usize,
    simulate: bool,
) -> String {
    format!(
        "name = \"{name}\"\nseed = {seed}\nworkload = \"soundness\"\n\
         [soundness]\ntrials = {trials}\ntrials_per_shard = {per_shard}\nsimulate = {simulate}\n"
    )
}

/// Parses and validates a spec: the set-up a user pays before any shard
/// runs.
pub fn parse_spec(text: &str) -> Result<Campaign, String> {
    CampaignSpec::parse(text)
        .and_then(|spec| spec.validate())
        .map_err(|e| format!("spec: {e}"))
}

/// FNV-1a over the CSV rendering and the summary totals: equal digests
/// mean byte-identical aggregates. (The JSON rendering carries the same
/// data; leaving it out keeps the harness's own allocations out of
/// `peak_rss_mb`.)
pub fn digest(report: &CampaignReport) -> u64 {
    let summary = format!("{:?}", report.summary);
    fnv1a(FNV_OFFSET, report.to_csv().bytes().chain(summary.bytes()))
}

/// Items one run completed: analysed task sets, (program, geometry, Q)
/// analyses, or trials.
pub fn items(report: &CampaignReport) -> u64 {
    let sets: usize = report.acceptance.iter().map(|p| p.generated).sum();
    let programs: usize = report.cfg.iter().map(|p| p.programs).sum();
    let trials: usize = report.soundness.iter().map(|s| s.rows.len()).sum();
    (sets + programs + trials) as u64
}

/// One finished campaign run.
pub struct Rep {
    /// Wall seconds of the `run_campaign_with_options` call.
    pub seconds: f64,
    /// CPU seconds this process and its reaped workers spent in the call.
    pub cpu_seconds: Option<f64>,
    /// Share of the vCPU time wanted during the call that the VM was given.
    pub delivered: f64,
    /// Items completed.
    pub items: u64,
    /// Aggregate digest.
    pub digest: u64,
    /// Dominance and simulator violations the report counts.
    pub violations: u64,
    /// The full outcome, for counters and report timing.
    pub outcome: CampaignOutcome,
}

/// Runs `campaign` once on `workers` local threads or worker processes.
pub fn run_rep(
    campaign: &Campaign,
    workers: usize,
    backend: BackendChoice,
    store: Option<&ResultStore>,
) -> Result<Rep, CampaignError> {
    let options = ExecOptions {
        threads: Some(workers),
        backend: Some(backend),
        workers: Some(workers),
        ..ExecOptions::default()
    };
    let (ticks, cpu, start) = (CpuTicks::now(), process_cpu_seconds(), Instant::now());
    let outcome = run_campaign_with_options(campaign, &options, store)?;
    let seconds = start.elapsed().as_secs_f64();
    let cpu_seconds = cpu.zip(process_cpu_seconds()).map(|(a, b)| b - a);
    let delivered = ticks.delivered_share(CpuTicks::now());
    let report = &outcome.report;
    Ok(Rep {
        seconds,
        cpu_seconds,
        delivered,
        items: items(report),
        digest: digest(report),
        violations: (report.summary.dominance_violations + report.summary.sim_violations) as u64,
        outcome,
    })
}

/// A workload ready to run reps: its spec text and, for `store_extend`,
/// the pristine pre-populated store each rep restores.
pub struct Fixture {
    /// Which workload.
    pub workload: Workload,
    /// The measured spec.
    pub spec_text: String,
    /// The measured spec, validated.
    pub campaign: Campaign,
    pristine: Option<PathBuf>,
    live: PathBuf,
}

/// What one set-up produced: its time, the validated spec and the opened
/// store.
pub struct Setup {
    /// Seconds spent parsing, validating and opening the store.
    pub seconds: f64,
    /// Seconds of that spent in `ResultStore::open`.
    pub open_seconds: f64,
    /// The validated spec.
    pub campaign: Campaign,
    /// The opened store (`store_extend` only).
    pub store: Option<ResultStore>,
}

impl Fixture {
    /// Builds the workload's inputs from `seed`; for `store_extend` this
    /// also computes the pre-populated store under `work_dir`.
    pub fn new(workload: Workload, seed: u64, size: Size, work_dir: &Path) -> Result<Self, String> {
        let spec_text = workload.spec_text(seed, size);
        let campaign = parse_spec(&spec_text)?;
        let live = work_dir.join("live.fnprstore");
        let pristine = if workload.uses_store() {
            let path = work_dir.join("pristine.fnprstore");
            let base = parse_spec(&workload.base_spec_text(seed, size))?;
            let store = ResultStore::open(&path).map_err(|e| format!("store: {e}"))?;
            run_rep(&base, 2, BackendChoice::Local, Some(&store))
                .map_err(|e| format!("pre-populating the store: {e}"))?;
            Some(path)
        } else {
            None
        };
        Ok(Self {
            workload,
            spec_text,
            campaign,
            pristine,
            live,
        })
    }

    /// Restores the live store to a byte-identical copy of the pristine one
    /// (untimed), so no rep sees what an earlier rep appended.
    pub fn restore_store(&self) -> Result<(), String> {
        let Some(pristine) = &self.pristine else {
            return Ok(());
        };
        copy_dir(pristine, &self.live).map_err(|e| format!("restoring the store: {e}"))
    }

    /// The timed set-up of one run: parse and validate the spec, and open
    /// the restored store.
    pub fn setup(&self) -> Result<Setup, String> {
        let start = Instant::now();
        let campaign = parse_spec(&self.spec_text)?;
        let opened = Instant::now();
        let store = if self.pristine.is_some() {
            Some(ResultStore::open(&self.live).map_err(|e| format!("store: {e}"))?)
        } else {
            None
        };
        let open_seconds = opened.elapsed().as_secs_f64();
        Ok(Setup {
            seconds: start.elapsed().as_secs_f64(),
            open_seconds,
            campaign,
            store,
        })
    }

    /// The backend a timed rep uses.
    pub fn backend(&self) -> BackendChoice {
        if self.workload.uses_store() {
            BackendChoice::Process
        } else {
            BackendChoice::Local
        }
    }

    /// Bytes in the pristine and the live store.
    pub fn store_bytes(&self) -> (u64, u64) {
        match &self.pristine {
            Some(pristine) => (dir_bytes(pristine), dir_bytes(&self.live)),
            None => (0, 0),
        }
    }
}

/// Replaces `to` with a copy of the flat directory `from`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

/// The correctness gate. Every rep's digest must equal the expected one —
/// the golden digest at [`DEFAULT_SEED`], otherwise the first rep's — so
/// reps at different worker counts and backends must be byte-identical to
/// each other. Errors, mismatches and violations count as failed items.
pub struct Gate {
    expected: Option<u64>,
    /// Items attempted across every checked rep.
    pub attempted: u64,
    /// Items failed across every checked rep.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub notes: Vec<String>,
}

impl Gate {
    /// A gate expecting `expected`, or the first rep's digest when `None`.
    pub fn new(expected: Option<u64>) -> Self {
        Self {
            expected,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// The gate for `workload` at `seed` and full size.
    pub fn for_seed(workload: Workload, seed: u64) -> Self {
        Self::new((seed == DEFAULT_SEED).then(|| workload.golden_digest()))
    }

    /// Checks one rep; returns whether it passed.
    pub fn check(&mut self, label: &str, rep: &Result<Rep, CampaignError>) -> bool {
        match rep {
            Ok(rep) => {
                self.attempted += rep.items.max(1);
                let expected = *self.expected.get_or_insert(rep.digest);
                if rep.digest != expected {
                    self.failed += rep.items.max(1);
                    self.notes.push(format!(
                        "{label}: digest {:016x} != expected {expected:016x}",
                        rep.digest
                    ));
                    false
                } else if rep.violations > 0 {
                    self.failed += rep.violations.min(rep.items.max(1));
                    self.notes
                        .push(format!("{label}: {} violations", rep.violations));
                    false
                } else {
                    true
                }
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.notes.push(format!("{label}: {e}"));
                false
            }
        }
    }

    /// Records a rep that could not run, e.g. because its set-up failed.
    pub fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(note);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rep(workload: Workload, workers: usize) -> (Fixture, Rep) {
        let dir = std::env::temp_dir().join(format!(
            "fnpr_bench_{}_{}_{workers}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let fixture = Fixture::new(workload, 5, Size::Tiny, &dir).unwrap();
        fixture.restore_store().unwrap();
        let setup = fixture.setup().unwrap();
        let rep = run_rep(
            &setup.campaign,
            workers,
            BackendChoice::Local,
            setup.store.as_ref(),
        )
        .unwrap();
        drop(setup);
        let _ = std::fs::remove_dir_all(&dir);
        (fixture, rep)
    }

    #[test]
    fn every_workload_parses_at_both_sizes() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for size in [Size::Full, Size::Tiny] {
                parse_spec(&w.spec_text(3, size)).unwrap();
            }
        }
    }

    #[test]
    fn gate_trips_on_a_wrong_golden_digest() {
        let (_, rep) = tiny_rep(Workload::SoundnessSim, 1);
        assert!(rep.items > 0);
        let mut right = Gate::new(Some(rep.digest));
        assert!(right.check("rep", &Ok(clone_rep(&rep))));
        assert_eq!((right.attempted, right.failed), (rep.items, 0));
        let mut wrong = Gate::new(Some(rep.digest ^ 1));
        assert!(!wrong.check("rep", &Ok(clone_rep(&rep))));
        assert_eq!((wrong.attempted, wrong.failed), (rep.items, rep.items));
    }

    #[test]
    fn worker_counts_agree_on_tiny_inputs() {
        for w in [Workload::Acceptance, Workload::CfgPipeline] {
            let (_, one) = tiny_rep(w, 1);
            let (_, two) = tiny_rep(w, 2);
            assert!(one.items > 0, "{}", w.name());
            let mut gate = Gate::new(None);
            assert!(gate.check("1", &Ok(one)));
            assert!(gate.check("2", &Ok(two)), "{:?}", gate.notes);
        }
    }

    fn clone_rep(rep: &Rep) -> Rep {
        Rep {
            seconds: rep.seconds,
            cpu_seconds: rep.cpu_seconds,
            delivered: rep.delivered,
            items: rep.items,
            digest: rep.digest,
            violations: rep.violations,
            outcome: rep.outcome.clone(),
        }
    }
}
