//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload, and the result they print.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use fnpr_campaign::report::summarize;
use fnpr_campaign::{BackendChoice, CampaignReport, StoreStats, Workload as Params};

use crate::calib::{normalised_rate, time_kernel, unshared_seconds, CALIB_REF_S};
use crate::record::{commit, host, json_num, json_str, peak_rss_mb, source_digest};
use crate::replay::{replay, LAYER_TIMES};
use crate::stats::{median, quartiles};
use crate::workload::{run_rep, Fixture, Gate, Rep, Size};
use crate::Args;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("items_per_s", "items/s"),
    ("items_per_s_2t", "items/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. A layer a
/// workload does not load reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("synth.taskset_s", "s"),
    ("synth.tasksets", "count"),
    ("synth.program_s", "s"),
    ("synth.curve_s", "s"),
    ("cfg.compile_s", "s"),
    ("pipeline.prepare_s", "s"),
    ("pipeline.curve_s", "s"),
    ("pipeline.programs.prepared", "count"),
    ("cache.crpd_s", "s"),
    ("cache.crpd.analyses", "count"),
    ("core.alg1_s", "s"),
    ("core.eq4_s", "s"),
    ("core.capped_s", "s"),
    ("core.naive_s", "s"),
    ("core.exact_s", "s"),
    ("core.alg1.windows", "count"),
    ("core.cursor.segment_advances", "count"),
    ("core.eq4.iterations", "count"),
    ("sched.npr_s", "s"),
    ("sched.inflate_s", "s"),
    ("sched.test_s", "s"),
    ("sched.rta.iterations", "count"),
    ("sim.simulate_s", "s"),
    ("sim.dispatches", "count"),
    ("sim.preemptions", "count"),
    ("memo.taskset.hit_ratio", "ratio"),
    ("memo.taskset.lookups", "count"),
    ("memo.program.hit_ratio", "ratio"),
    ("memo.program.lookups", "count"),
    ("memo.curve.hit_ratio", "ratio"),
    ("memo.curve.lookups", "count"),
    ("memo.bound.hit_ratio", "ratio"),
    ("memo.bound.lookups", "count"),
    ("exec.busy_s", "s"),
    ("exec.idle_s", "s"),
    ("store.open_s", "s"),
    ("store.overhead_s", "s"),
    ("store.bytes_appended", "bytes"),
    ("store.points.restored", "count"),
    ("store.points.computed", "count"),
    ("backend.overhead_s", "s"),
    ("backend.workers.spawned", "count"),
    ("backend.shards.shipped", "count"),
    ("report.fold_render_s", "s"),
    ("host.calib_s", "s"),
    ("host.raw_items_per_s", "items/s"),
    ("obs.trace_overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Per-layer counters read from `fnpr-obs` after a traced rep.
const COUNTERS: [(&str, &str); 11] = [
    ("synth.tasksets", "synth.tasksets.generated"),
    ("pipeline.programs.prepared", "pipeline.programs.prepared"),
    ("cache.crpd.analyses", "cache.crpd.analyses"),
    ("core.alg1.windows", "core.alg1.windows"),
    (
        "core.cursor.segment_advances",
        "core.cursor.segment_advances",
    ),
    ("core.eq4.iterations", "core.eq4.iterations"),
    ("sched.rta.iterations", "sched.rta.iterations"),
    ("sim.dispatches", "sim.dispatches"),
    ("sim.preemptions", "sim.preemptions"),
    (
        "backend.workers.spawned",
        "campaign.backend.workers.spawned",
    ),
    ("backend.shards.shipped", "campaign.backend.shards.shipped"),
];

/// Memo hit ratios, their base counts, and the campaign memo tables each
/// sums (the soundness workload's `(curve, Q)` table is named `bounds`).
const MEMOS: [(&str, &str, &[&str]); 4] = [
    (
        "memo.taskset.hit_ratio",
        "memo.taskset.lookups",
        &["taskset"],
    ),
    (
        "memo.program.hit_ratio",
        "memo.program.lookups",
        &["program"],
    ),
    ("memo.curve.hit_ratio", "memo.curve.lookups", &["curve"]),
    (
        "memo.bound.hit_ratio",
        "memo.bound.lookups",
        &["bound", "bounds"],
    ),
];

/// Rounds every run makes even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 2;

/// What one benchmark run prints.
pub struct BenchResult {
    /// Every check passed and no item failed.
    pub correct: bool,
    /// Items attempted across every checked rep.
    pub attempted: u64,
    /// Items failed.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The stamped record line.
    pub record: String,
    /// Gate failures, for stderr.
    pub notes: Vec<String>,
}

impl BenchResult {
    /// The result line, printed last.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One rep as the record stamps it.
struct RepRecord {
    label: &'static str,
    workers: usize,
    backend: &'static str,
    traced: bool,
    raw_s: f64,
    /// Share of the vCPU time wanted during the rep that the VM was given.
    delivered: f64,
    /// CPU seconds of this process and its reaped workers during the rep.
    cpu_s: Option<f64>,
    calib_before_s: f64,
    calib_after_s: f64,
    setup_s: f64,
    open_s: f64,
    items: u64,
    passed: bool,
}

impl RepRecord {
    fn calib_s(&self) -> f64 {
        self.calib_before_s.min(self.calib_after_s)
    }

    fn rate(&self) -> f64 {
        let unshared = unshared_seconds(self.workers, self.raw_s, self.cpu_s, self.delivered);
        normalised_rate(
            self.items,
            unshared,
            self.calib_before_s,
            self.calib_after_s,
        )
    }
}

struct Bench<'a> {
    args: &'a Args,
    /// When the run started: `--seconds` budgets the whole run, set-up
    /// and warm-up included.
    start: Instant,
    fixture: Fixture,
    gate: Gate,
    reps: Vec<RepRecord>,
}

impl Bench<'_> {
    /// One rep: restore the store, time the set-up, optionally bracket
    /// the run with the calibration kernel or trace it, then gate it.
    fn rep(
        &mut self,
        label: &'static str,
        workers: usize,
        backend: BackendChoice,
        calibrate: bool,
        traced: bool,
    ) -> Option<Rep> {
        let setup = self
            .fixture
            .restore_store()
            .and_then(|()| self.fixture.setup());
        let setup = match setup {
            Ok(setup) => setup,
            Err(e) => {
                self.gate.fail(format!("{label}: {e}"));
                return None;
            }
        };
        let calib_before_s = if calibrate { time_kernel(workers) } else { 0.0 };
        if traced {
            fnpr_obs::reset();
            fnpr_obs::set_enabled(true);
        }
        let rep = run_rep(&setup.campaign, workers, backend, setup.store.as_ref());
        fnpr_obs::set_enabled(false);
        let calib_after_s = if calibrate { time_kernel(workers) } else { 0.0 };
        drop(setup.store);
        let passed = self.gate.check(label, &rep);
        let rep = rep.ok();
        self.reps.push(RepRecord {
            label,
            workers,
            backend: match backend {
                BackendChoice::Local => "local",
                BackendChoice::Process => "process",
            },
            traced,
            raw_s: rep.as_ref().map_or(0.0, |r| r.seconds),
            delivered: rep.as_ref().map_or(1.0, |r| r.delivered),
            cpu_s: rep.as_ref().and_then(|r| r.cpu_seconds),
            calib_before_s,
            calib_after_s,
            setup_s: setup.seconds,
            open_s: setup.open_seconds,
            items: rep.as_ref().map_or(0, |r| r.items),
            passed,
        });
        rep
    }

    fn timed(&self, label: &'static str, workers: usize) -> impl Iterator<Item = &RepRecord> {
        self.reps
            .iter()
            .filter(move |r| r.label == label && r.workers == workers && r.raw_s > 0.0)
    }
}

/// Runs one workload as `args` asks, with temporary state under `work`.
pub fn run(args: &Args, work: &Path) -> Result<BenchResult, String> {
    let start = Instant::now();
    let fixture = Fixture::new(args.workload, args.seed, args.size, work)?;
    let gate = match args.size {
        Size::Full => Gate::for_seed(args.workload, args.seed),
        Size::Tiny => Gate::new(None),
    };
    let mut bench = Bench {
        args,
        start,
        fixture,
        gate,
        reps: Vec::new(),
    };
    if args.workload.uses_store() {
        // The process-backend extension must be byte-identical to a plain
        // local run of the same grid.
        let reference = run_rep(&bench.fixture.campaign, 2, BackendChoice::Local, None);
        bench.gate.check("local reference", &reference);
    }
    let metrics = if args.trace {
        traced(&mut bench)?
    } else {
        untraced(&mut bench)?
    };
    Ok(finish(bench, metrics))
}

fn untraced(s: &mut Bench) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let backend = s.fixture.backend();
    s.rep("warm-up", 1, backend, false, false);
    s.rep("warm-up", 2, backend, false, false);
    let spent = |s: &Bench| s.start.elapsed().as_secs_f64() >= s.args.seconds;
    let mut round = 0;
    while round < MIN_ROUNDS || !spent(s) {
        // 2-worker reps vary more (shard load balance, memo races), so
        // they get twice the samples; the order flips each round so
        // neither count always runs in the other's wake.
        let order = if round % 2 == 0 { [1, 2, 2] } else { [2, 2, 1] };
        for workers in order {
            if round >= MIN_ROUNDS && spent(s) {
                break;
            }
            s.rep("timed", workers, backend, true, false);
        }
        round += 1;
    }
    // Items over normalised seconds pooled across the timed reps: the
    // run's throughput, smooth even where rep times are bimodal.
    let rate = |workers| -> f64 {
        let (items, seconds) = s.timed("timed", workers).fold((0.0, 0.0), |(i, t), r| {
            (i + r.items as f64, t + r.items as f64 / r.rate())
        });
        items / seconds
    };
    let setups: Vec<f64> = s
        .reps
        .iter()
        .filter(|r| r.label == "timed")
        .map(|r| r.setup_s)
        .collect();
    let values = [
        rate(1),
        rate(2),
        median(&setups),
        peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect())
}

fn traced(s: &mut Bench) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let backend = s.fixture.backend();
    let store_workload = s.args.workload.uses_store();
    s.rep("warm-up", 1, backend, false, false);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut overheads = Vec::new();
    let mut fold_render = Vec::new();
    let mut store_overheads = Vec::new();
    let mut backend_overheads = Vec::new();
    let mut counters = BTreeMap::new();
    let mut store_stats = StoreStats::default();
    let mut appended = 0u64;
    // The 2-worker rep and the replay below take the last quarter.
    let budget = 0.75 * s.args.seconds;
    let mut round = 0;
    while round < MIN_ROUNDS || s.start.elapsed().as_secs_f64() < budget {
        round += 1;
        let Some(plain) = s.rep("untraced", 1, backend, true, false) else {
            continue;
        };
        let Some(traced) = s.rep("traced", 1, backend, false, true) else {
            continue;
        };
        counters = fnpr_obs::counters_snapshot();
        store_stats = traced.outcome.store.unwrap_or_default();
        let (before, after) = s.fixture.store_bytes();
        appended = after.saturating_sub(before);
        overheads.push(traced.seconds / plain.seconds);
        fold_render.push(time_fold_render(&traced.outcome.report));
        if store_workload {
            let Some(local) = s.rep("local+store", 1, BackendChoice::Local, false, false) else {
                continue;
            };
            backend_overheads.push(plain.seconds - local.seconds);
            let bare = run_rep(&s.fixture.campaign, 1, BackendChoice::Local, None);
            if s.gate.check("local, no store", &bare) {
                if let Ok(bare) = bare {
                    store_overheads.push(local.seconds - bare.seconds);
                }
            }
        }
    }
    for (metric, counter) in COUNTERS {
        values.insert(metric, counters.get(counter).copied().unwrap_or(0) as f64);
    }
    for (ratio_name, lookups_name, tables) in MEMOS {
        let count = |kind: &str| -> u64 {
            tables
                .iter()
                .filter_map(|t| counters.get(&format!("campaign.memo.{t}.{kind}")))
                .sum()
        };
        let (hits, lookups) = (count("hit"), count("hit") + count("miss"));
        let ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        values.insert(ratio_name, ratio);
        values.insert(lookups_name, lookups as f64);
    }
    values.insert("store.points.restored", store_stats.points_restored as f64);
    values.insert("store.points.computed", store_stats.points_computed as f64);
    values.insert("store.bytes_appended", appended as f64);
    let open: Vec<f64> = s.reps.iter().map(|r| r.open_s).collect();
    values.insert(
        "store.open_s",
        if store_workload { median(&open) } else { 0.0 },
    );
    values.insert("store.overhead_s", median(&store_overheads));
    values.insert("backend.overhead_s", median(&backend_overheads));
    values.insert("report.fold_render_s", median(&fold_render));
    values.insert("obs.trace_overhead", median(&overheads));
    let plain: Vec<&RepRecord> = s.timed("untraced", 1).collect();
    let raw: Vec<f64> = plain.iter().map(|r| r.items as f64 / r.raw_s).collect();
    let calib: Vec<f64> = plain.iter().map(|r| r.calib_s()).collect();
    values.insert("host.raw_items_per_s", median(&raw));
    values.insert("host.calib_s", median(&calib));

    // Executor busy time at 2 workers, from the shard-latency roll-up; the
    // process backend keeps shards in other processes, so `store_extend`
    // measures its executor on the local backend.
    let exec_backend = if store_workload {
        BackendChoice::Local
    } else {
        backend
    };
    let (busy, idle) = match s.rep("traced, 2 workers", 2, exec_backend, false, true) {
        Some(rep) => {
            let busy = fnpr_obs::histograms_snapshot()
                .get("campaign.shard.micros")
                .map_or(0.0, |h| h.sum as f64 / 1e6);
            (busy, (2.0 * rep.seconds - busy).max(0.0))
        }
        None => (0.0, 0.0),
    };
    values.insert("exec.busy_s", busy);
    values.insert("exec.idle_s", idle);

    let first_trial = match &s.fixture.campaign.workload {
        Params::Soundness(p) if store_workload => p.trials / 2,
        _ => 0,
    };
    let layers = replay(&s.fixture.campaign, first_trial)?;
    s.gate.attempted += layers.items;
    if layers.violations > 0 {
        s.gate.failed += layers.violations;
        s.gate
            .notes
            .push(format!("replay: {} violations", layers.violations));
    }
    for layer in LAYER_TIMES {
        values.insert(layer, layers.times.get(layer).copied().unwrap_or(0.0));
    }
    values.insert("trace.coverage", layers.coverage());

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&v| (name, v, unit))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

/// Seconds to fold a finished report's summary and render CSV and JSON.
fn time_fold_render(report: &CampaignReport) -> f64 {
    let start = Instant::now();
    let summary = summarize(
        &report.acceptance,
        &report.soundness,
        &report.multicore,
        &report.cfg,
        &report.methods,
    );
    let rendered = report.to_csv().len() + report.to_json().len();
    std::hint::black_box((summary, rendered));
    start.elapsed().as_secs_f64()
}

fn finish(bench: Bench, metrics: Vec<(&'static str, f64, &'static str)>) -> BenchResult {
    let Bench {
        args, gate, reps, ..
    } = bench;
    let mut notes = gate.notes;
    let sane = metrics.iter().all(|&(name, v, _)| {
        let ok = v.is_finite() && (args.trace || v > 0.0);
        if !ok {
            notes.push(format!("metric {name} read {v}"));
        }
        ok
    });
    let (cpu, nproc) = host();
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host\": {{\"cpu_model\": {}, \"nproc\": {nproc}}}, \"commit\": {}, \
         \"source_digest\": {}, \"calib_ref_s\": {}, \"reps\": [",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        json_num(args.seconds),
        json_str(&cpu),
        commit().map_or_else(|| "null".into(), |c| json_str(&c)),
        json_str(&source_digest()),
        json_num(CALIB_REF_S),
    );
    for (i, r) in reps.iter().enumerate() {
        let _ = write!(
            record,
            "{}{{\"label\": {}, \"workers\": {}, \"backend\": {}, \"traced\": {}, \
             \"raw_s\": {}, \"delivered\": {}, \"cpu_s\": {}, \"calib_before_s\": {}, \"calib_after_s\": {}, \
             \"setup_s\": {}, \"items\": {}, \"passed\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(r.label),
            r.workers,
            json_str(r.backend),
            r.traced,
            json_num(r.raw_s),
            json_num(r.delivered),
            r.cpu_s.map_or_else(|| "null".into(), json_num),
            json_num(r.calib_before_s),
            json_num(r.calib_after_s),
            json_num(r.setup_s),
            r.items,
            r.passed,
        );
    }
    record.push(']');
    for workers in [1, 2] {
        let rates: Vec<f64> = reps
            .iter()
            .filter(|r| r.label == "timed" && r.workers == workers && r.raw_s > 0.0)
            .map(RepRecord::rate)
            .collect();
        if let Some((q1, q3)) = quartiles(&rates) {
            let _ = write!(
                record,
                ", \"rate_{workers}w\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                rates.len(),
                json_num(q1),
                json_num(median(&rates)),
                json_num(q3),
            );
        }
    }
    record.push_str("}}");
    BenchResult {
        correct: gate.failed == 0 && gate.attempted > 0 && sane,
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        metrics,
        record,
        notes,
    }
}
