//! The traced run's layer-by-layer replay: the workload's inputs,
//! regenerated with the same generators and parameters, pushed through the
//! substrate crates' `pub` calls one layer at a time, with the benchmark
//! timing each call. The campaign engine fuses these layers inside one
//! shard; here every call is timed on its own, so the times say which
//! layer a change moved.
//!
//! Times are inclusive: a call's time holds everything it does inside.
//! Calls never overlap in wall time, so their sum over the replay's wall
//! is the trace's coverage.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fnpr_cache::{CacheConfig, CrpdAnalysis};
use fnpr_campaign::exec::stream_seed;
use fnpr_campaign::spec::{AcceptanceParams, CfgParams, SoundnessParams};
use fnpr_campaign::{Campaign, Workload as Params};
use fnpr_core::{
    algorithm1, algorithm1_capped, eq4_bound_for_curve, exact_worst_case, naive_bound, DelayCurve,
};
use fnpr_pipeline::{program_access_map, PreparedProgram};
use fnpr_sched::{
    edf_schedulable_with_npr, preemption_caps, preemption_caps_edf, rta_floating_npr, DelayMethod,
    TaskSet,
};
use fnpr_sim::{check_against_algorithm1, simulate, Scenario, SimConfig};
use fnpr_synth::{random_program, random_step_curve, random_taskset, with_npr_and_curves, Policy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every timed layer call of a replay, in output order.
pub const LAYER_TIMES: [&str; 16] = [
    "synth.taskset_s",
    "synth.program_s",
    "synth.curve_s",
    "cfg.compile_s",
    "pipeline.prepare_s",
    "pipeline.curve_s",
    "cache.crpd_s",
    "core.alg1_s",
    "core.eq4_s",
    "core.capped_s",
    "core.naive_s",
    "core.exact_s",
    "sched.npr_s",
    "sched.inflate_s",
    "sched.test_s",
    "sim.simulate_s",
];

/// Stream tags of the replay's own RNG streams.
const TAG_BASE: u64 = 0x5242_4153; // "RBAS"
const TAG_EQUIP: u64 = 0x5245_5150; // "REQP"
const TAG_PROGRAM: u64 = 0x5250_5247; // "RPRG"
const TAG_TRIAL: u64 = 0x5254_5249; // "RTRI"

/// What one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Seconds per layer call name.
    pub times: BTreeMap<&'static str, f64>,
    /// Wall seconds of the whole replay.
    pub wall: f64,
    /// Dominance or simulator violations the replay observed.
    pub violations: u64,
    /// Items replayed.
    pub items: u64,
}

impl Replay {
    fn time<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(call());
        *self.times.entry(layer).or_insert(0.0) += start.elapsed().as_secs_f64();
        out
    }

    /// Sum of layer times over the replay wall.
    pub fn coverage(&self) -> f64 {
        self.times.values().sum::<f64>() / self.wall
    }
}

/// Replays `campaign`'s workload; `first_trial` skips the soundness trials
/// a restored store already holds.
pub fn replay(campaign: &Campaign, first_trial: usize) -> Result<Replay, String> {
    let mut out = Replay::default();
    let start = Instant::now();
    match &campaign.workload {
        Params::Acceptance(p) => acceptance(p, campaign.seed, &mut out)?,
        Params::Cfg(p) => cfg(p, campaign.seed, &mut out)?,
        Params::Soundness(p) => soundness(p, campaign.seed, first_trial, &mut out)?,
        Params::Multicore(_) => return Err("no replay for the multicore workload".into()),
    }
    out.wall = start.elapsed().as_secs_f64();
    Ok(out)
}

fn acceptance(p: &AcceptanceParams, seed: u64, out: &mut Replay) -> Result<(), String> {
    for (ui, &utilization) in p.utilizations.iter().enumerate() {
        let ts_params = fnpr_synth::TaskSetParams {
            utilization,
            ..p.taskset
        };
        // Base sets are shared by both policies, as the campaign's memo
        // shares them.
        let mut bases: BTreeMap<(usize, usize), Option<TaskSet>> = BTreeMap::new();
        for &policy in &p.policies {
            for instance in 0..p.sets_per_point {
                let mut equipped = None;
                for attempt in 0..p.max_attempts_factor {
                    let words = [ui as u64, instance as u64, attempt as u64];
                    let base = match bases.get(&(instance, attempt)) {
                        Some(base) => base.clone(),
                        None => {
                            let mut rng =
                                StdRng::seed_from_u64(stream_seed(TAG_BASE, seed, &words));
                            let base = out
                                .time("synth.taskset_s", || random_taskset(&mut rng, &ts_params))
                                .ok();
                            bases.insert((instance, attempt), base.clone());
                            base
                        }
                    };
                    let Some(base) = base else { continue };
                    let mut rng = StdRng::seed_from_u64(stream_seed(
                        TAG_EQUIP,
                        seed,
                        &[words[0], words[1], words[2], policy as u64],
                    ));
                    let tasks = out.time("sched.npr_s", || {
                        with_npr_and_curves(&mut rng, &base, policy, p.q_scale, p.delay_frac)
                    });
                    if let Ok(Some(tasks)) = tasks {
                        equipped = Some(tasks);
                        break;
                    }
                }
                let Some(tasks) = equipped else { continue };
                out.items += 1;
                let verdicts: Vec<bool> = p
                    .methods
                    .iter()
                    .map(|&method| analyse_set(&tasks, policy, method, out))
                    .collect::<Result<_, _>>()?;
                check_acceptance_dominance(&p.methods, &verdicts, out);
            }
        }
    }
    Ok(())
}

/// One schedulability test, layer by layer: the core bound per task, the
/// inflated set, then the RTA or demand test.
fn analyse_set(
    tasks: &TaskSet,
    policy: Policy,
    method: DelayMethod,
    out: &mut Replay,
) -> Result<bool, String> {
    let caps = match method {
        DelayMethod::Algorithm1Capped => out.time("sched.inflate_s", || match policy {
            Policy::FixedPriority => preemption_caps(tasks),
            Policy::Edf => preemption_caps_edf(tasks),
        }),
        _ => Vec::new(),
    };
    let mut wcets = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let (Some(q), Some(curve)) = (task.q(), task.delay_curve()) else {
            return Err("replayed task set lacks Q or a curve".into());
        };
        let delay = match method {
            DelayMethod::None => Some(0.0),
            DelayMethod::Eq4 => out
                .time("core.eq4_s", || eq4_bound_for_curve(curve, q))
                .map_err(|e| e.to_string())?
                .total_delay(),
            DelayMethod::Algorithm1 => out
                .time("core.alg1_s", || algorithm1(curve, q))
                .map_err(|e| e.to_string())?
                .total_delay(),
            DelayMethod::Algorithm1Capped => out
                .time("core.capped_s", || algorithm1_capped(curve, q, caps[i]))
                .map_err(|e| e.to_string())?
                .map(|b| b.total_delay),
        };
        match delay {
            Some(d) => wcets.push(task.wcet() + d),
            None => return Ok(false),
        }
    }
    let inflated = out
        .time("sched.inflate_s", || tasks.with_wcets(&wcets))
        .map_err(|e| e.to_string())?;
    let verdict = out.time("sched.test_s", || match policy {
        Policy::FixedPriority => rta_floating_npr(&inflated).map(|r| r.schedulable()),
        Policy::Edf => edf_schedulable_with_npr(&inflated),
    });
    Ok(verdict.unwrap_or(false))
}

/// Acceptance by a tighter bound implies acceptance by the looser one:
/// Eq. 4 ⇒ Algorithm 1 ⇒ capped Algorithm 1 ⇒ no delay.
fn check_acceptance_dominance(methods: &[DelayMethod], verdicts: &[bool], out: &mut Replay) {
    let accepted = |m: DelayMethod| methods.iter().position(|&x| x == m).map(|i| verdicts[i]);
    let chain = [
        DelayMethod::Eq4,
        DelayMethod::Algorithm1,
        DelayMethod::Algorithm1Capped,
        DelayMethod::None,
    ];
    for pair in chain.windows(2) {
        if let (Some(true), Some(false)) = (accepted(pair[0]), accepted(pair[1])) {
            out.violations += 1;
        }
    }
}

fn cfg(p: &CfgParams, seed: u64, out: &mut Replay) -> Result<(), String> {
    for &depth in &p.depths {
        for &loop_iterations in &p.loop_iterations {
            for &footprint in &p.footprints {
                let gen = fnpr_synth::ProgramGenParams {
                    max_depth: depth,
                    max_loop_iterations: loop_iterations,
                    footprint_lines: footprint,
                    ..p.program
                };
                for instance in 0..p.programs_per_point {
                    let words = [depth as u64, loop_iterations, footprint, instance as u64];
                    let mut rng = StdRng::seed_from_u64(stream_seed(TAG_PROGRAM, seed, &words));
                    cfg_program(p, &gen, &mut rng, out)?;
                }
            }
        }
    }
    Ok(())
}

/// One program: generate, compile, prepare once; then per cache geometry
/// CRPD and the delay curve; then per `Q` the two bounds — the sharing the
/// campaign's program, curve and bound memos exploit.
fn cfg_program(
    p: &CfgParams,
    gen: &fnpr_synth::ProgramGenParams,
    rng: &mut StdRng,
    out: &mut Replay,
) -> Result<(), String> {
    let generated = out
        .time("synth.program_s", || random_program(rng, gen))
        .map_err(|e| e.to_string())?;
    let compiled = out
        .time("cfg.compile_s", || {
            fnpr_cfg::ast::compile(&generated.program, gen.block_bytes)
        })
        .map_err(|e| e.to_string())?;
    let prepared = out
        .time("pipeline.prepare_s", || {
            PreparedProgram::new(&compiled.cfg, &compiled.loop_bounds)
        })
        .map_err(|e| e.to_string())?;
    for &sets in &p.sets {
        for &ways in &p.associativity {
            for &line in &p.line_bytes {
                for &reload in &p.reload_costs {
                    let cache =
                        CacheConfig::new(sets, ways, line, reload).map_err(|e| e.to_string())?;
                    let accesses =
                        out.time("pipeline.curve_s", || program_access_map(&compiled, &cache));
                    out.time("cache.crpd_s", || {
                        CrpdAnalysis::analyze(&compiled.cfg, &accesses, &cache)
                    })
                    .map_err(|e| e.to_string())?;
                    let analysis = out
                        .time("pipeline.curve_s", || prepared.analyze(&accesses, &cache))
                        .map_err(|e| e.to_string())?;
                    for &q_scale in &p.q_scales {
                        let q = q_scale * analysis.timing.wcet;
                        let alg1 = out
                            .time("core.alg1_s", || algorithm1(&analysis.curve, q))
                            .map_err(|e| e.to_string())?
                            .total_delay();
                        let eq4 = out
                            .time("core.eq4_s", || eq4_bound_for_curve(&analysis.curve, q))
                            .map_err(|e| e.to_string())?
                            .total_delay();
                        out.items += 1;
                        match (alg1, eq4) {
                            (Some(a), Some(e)) if a > e + 1e-6 => out.violations += 1,
                            (None, Some(_)) => out.violations += 1,
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn soundness(
    p: &SoundnessParams,
    seed: u64,
    first_trial: usize,
    out: &mut Replay,
) -> Result<(), String> {
    for trial in first_trial..p.trials {
        let mut rng = StdRng::seed_from_u64(stream_seed(TAG_TRIAL, seed, &[trial as u64]));
        let c = rng.gen_range(p.c_range.0..p.c_range.1);
        let segments = rng.gen_range(p.segments.0..p.segments.1) as usize;
        let max_value = rng.gen_range(p.max_value_range.0..p.max_value_range.1);
        let curve = out
            .time("synth.curve_s", || {
                random_step_curve(&mut rng, c, segments, max_value)
            })
            .map_err(|e| format!("{e:?}"))?;
        let q = curve.max_value() + rng.gen_range(p.q_slack_range.0..p.q_slack_range.1);
        let bounds = soundness_bounds(&curve, q, out)
            .ok_or_else(|| format!("replayed trial {trial}: a bound diverged"))?;
        let (_, exact, alg1, eq4) = bounds;
        if exact > alg1 + 1e-6 || alg1 > eq4 + 1e-6 {
            out.violations += 1;
        }
        if p.simulate {
            let holds = out.time("sim.simulate_s", || {
                let scenario = Scenario::random_interference(
                    c,
                    q,
                    &curve,
                    rng.gen_range(0.1..2.0),
                    1.0,
                    q * 2.0,
                    c * 4.0,
                    &mut rng,
                );
                let result = simulate(&scenario, &SimConfig::floating_npr_fp(1e9));
                check_against_algorithm1(&result, 1, &curve, q).map(|check| check.holds)
            });
            if !holds.map_err(|e| e.to_string())? {
                out.violations += 1;
            }
        }
        out.items += 1;
    }
    Ok(())
}

/// Naive, exact, Algorithm 1 and Eq. 4 totals of one curve; `None` if any
/// diverges (the generator keeps `Q` above the curve maximum, so none
/// should).
fn soundness_bounds(curve: &DelayCurve, q: f64, out: &mut Replay) -> Option<(f64, f64, f64, f64)> {
    let naive = out
        .time("core.naive_s", || naive_bound(curve, q))
        .ok()?
        .total_delay;
    let exact = out
        .time("core.exact_s", || exact_worst_case(curve, q))
        .ok()??
        .total_delay;
    let alg1 = out
        .time("core.alg1_s", || algorithm1(curve, q))
        .ok()?
        .total_delay()?;
    let eq4 = out
        .time("core.eq4_s", || eq4_bound_for_curve(curve, q))
        .ok()?
        .total_delay()?;
    Some((naive, exact, alg1, eq4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{parse_spec, Size, Workload};

    #[test]
    fn tiny_replays_cover_their_layers_without_violations() {
        let expect: [(Workload, &[&str]); 3] = [
            (
                Workload::Acceptance,
                &[
                    "synth.taskset_s",
                    "sched.npr_s",
                    "core.alg1_s",
                    "sched.test_s",
                ],
            ),
            (
                Workload::CfgPipeline,
                &[
                    "synth.program_s",
                    "cfg.compile_s",
                    "cache.crpd_s",
                    "pipeline.curve_s",
                ],
            ),
            (
                Workload::SoundnessSim,
                &["synth.curve_s", "core.exact_s", "sim.simulate_s"],
            ),
        ];
        for (workload, layers) in expect {
            let campaign = parse_spec(&workload.spec_text(9, Size::Tiny)).unwrap();
            let r = replay(&campaign, 0).unwrap();
            assert!(r.items > 0, "{}", workload.name());
            assert_eq!(r.violations, 0, "{}", workload.name());
            for layer in layers {
                assert!(
                    r.times.contains_key(layer),
                    "{} lacks {layer}",
                    workload.name()
                );
                assert!(LAYER_TIMES.contains(layer));
            }
            assert!(r.coverage() > 0.0 && r.coverage() <= 1.0 + 1e-9);
        }
    }
}
