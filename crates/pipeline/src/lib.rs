//! End-to-end pipeline: program structure → CRPD → delay curve → bounds.
//!
//! This crate wires the substrates together exactly as Section IV of the
//! paper prescribes:
//!
//! 1. `fnpr-cache` computes `CRPD_b` for every basic block (useful-cache-
//!    block analysis over the *original*, possibly cyclic graph);
//! 2. `fnpr-cfg` reduces loops and computes every block's execution window
//!    (Eqs. 1–3 on the reduced, acyclic graph);
//! 3. `fi(t) = max {CRPD_b : b ∈ BB(t)}` is assembled with
//!    [`DelayCurve::from_windows`], a super-block taking the maximum CRPD of
//!    its members (conservative: any member may be executing inside the
//!    super-block's window);
//! 4. `fnpr-core` turns `fi` and `Qi` into the cumulative delay bound and
//!    the inflated WCET `C′` (Eq. 5).
//!
//! Two entry granularities exist: [`analyze_task`] runs every stage for one
//! `(program, cache)` pair, while [`PreparedProgram`] splits the pipeline at
//! its natural seam — loop reduction, occupancy and timing depend only on
//! the program, never on the cache — so geometry sweeps (the `[cfg]`
//! campaign workload, design-space exploration) prepare each program once
//! and re-derive curves per cache for a fraction of the cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use fnpr_cache::{AccessMap, CacheConfig, CacheError, CrpdAnalysis, EcbSet};
use fnpr_cfg::ast::CompiledProgram;
use fnpr_cfg::{
    reduce_loops, BlockId, Cfg, CfgError, GraphTiming, LoopBound, Occupancy, ReducedCfg,
};
use fnpr_core::{CurveError, DelayCurve};

/// Errors from the cross-crate pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Graph construction/reduction failed.
    Cfg(CfgError),
    /// Cache analysis failed.
    Cache(CacheError),
    /// Curve assembly failed.
    Curve(CurveError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Cfg(e) => write!(f, "cfg: {e}"),
            PipelineError::Cache(e) => write!(f, "cache: {e}"),
            PipelineError::Curve(e) => write!(f, "curve: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Cfg(e) => Some(e),
            PipelineError::Cache(e) => Some(e),
            PipelineError::Curve(e) => Some(e),
        }
    }
}

impl From<CfgError> for PipelineError {
    fn from(e: CfgError) -> Self {
        PipelineError::Cfg(e)
    }
}
impl From<CacheError> for PipelineError {
    fn from(e: CacheError) -> Self {
        PipelineError::Cache(e)
    }
}
impl From<CurveError> for PipelineError {
    fn from(e: CurveError) -> Self {
        PipelineError::Curve(e)
    }
}

/// Everything the pipeline derives for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskAnalysis {
    /// The preemption-delay function `fi`.
    pub curve: DelayCurve,
    /// Whole-task timing (BCET/WCET of the reduced, call-inclusive graph).
    pub timing: GraphTiming,
    /// Per-original-block CRPD bounds (index = block id).
    pub crpd_per_block: Vec<f64>,
}

/// The cache-independent half of the pipeline, computed once per program:
/// loop reduction, execution windows (Eqs. 1–3) and whole-graph timing.
///
/// Preparing is the expensive structural part; [`PreparedProgram::analyze`]
/// then derives a delay curve for any cache geometry without repeating it.
/// [`analyze_task`] is the one-shot composition of the two.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use fnpr_pipeline::PreparedProgram;
/// use fnpr_cache::{AccessMap, CacheConfig};
/// use fnpr_cfg::{CfgBuilder, ExecInterval};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CfgBuilder::new();
/// let load = b.block(ExecInterval::new(10.0, 12.0)?);
/// let work = b.block(ExecInterval::new(30.0, 50.0)?);
/// b.edge(load, work)?;
/// let cfg = b.build()?;
/// let mut acc = AccessMap::new();
/// acc.set(load, vec![0, 16]);
/// acc.set(work, vec![0, 16]);
///
/// // One preparation, two cache geometries.
/// let prepared = PreparedProgram::new(&cfg, &BTreeMap::new())?;
/// let small = prepared.analyze(&acc, &CacheConfig::new(16, 1, 16, 10.0)?)?;
/// let fast = prepared.analyze(&acc, &CacheConfig::new(16, 1, 16, 2.0)?)?;
/// assert_eq!(small.curve.max_value(), 20.0);
/// assert_eq!(fast.curve.max_value(), 4.0);
/// assert_eq!(small.timing.wcet, 62.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    cfg: Cfg,
    reduced: ReducedCfg,
    occupancy: Occupancy,
    timing: GraphTiming,
}

impl PreparedProgram {
    /// Runs the cache-independent stages: loop reduction (needs a
    /// [`LoopBound`] per loop header), occupancy windows and graph timing.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] wrapping the failing stage (e.g. a loop
    /// without a bound).
    pub fn new(
        cfg: &Cfg,
        loop_bounds: &BTreeMap<BlockId, LoopBound>,
    ) -> Result<Self, PipelineError> {
        let _prepare = fnpr_obs::span("pipeline.prepare", "pipeline");
        let reduced = {
            let _s = fnpr_obs::span("pipeline.loop_reduction", "pipeline");
            reduce_loops(cfg, loop_bounds)?
        };
        let occupancy = {
            let _s = fnpr_obs::span("pipeline.occupancy", "pipeline");
            Occupancy::analyze(&reduced.cfg)?
        };
        let timing = {
            let _s = fnpr_obs::span("pipeline.timing", "pipeline");
            GraphTiming::analyze(&reduced.cfg)?
        };
        fnpr_obs::counter!("pipeline.programs.prepared").incr();
        Ok(Self {
            cfg: cfg.clone(),
            reduced,
            occupancy,
            timing,
        })
    }

    /// The original (possibly cyclic) graph this program was prepared from.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Whole-task timing of the reduced graph.
    #[must_use]
    pub fn timing(&self) -> &GraphTiming {
        &self.timing
    }

    /// Derives the delay curve for one cache geometry (unknown-preempter
    /// default: the full cache may be evicted).
    ///
    /// # Errors
    ///
    /// As [`analyze_task`].
    pub fn analyze(
        &self,
        accesses: &AccessMap,
        cache: &CacheConfig,
    ) -> Result<TaskAnalysis, PipelineError> {
        // Full damage: `crpd_against(b, EcbSet::full(cache))` is `crpd(b)`.
        let crpd = self.crpd(accesses, cache)?;
        self.assemble(crpd.per_block())
    }

    /// Derives the delay curve against a *specific* preempter footprint
    /// (see [`analyze_task_against`]).
    ///
    /// # Errors
    ///
    /// As [`analyze_task`].
    pub fn analyze_against(
        &self,
        accesses: &AccessMap,
        cache: &CacheConfig,
        ecb: &EcbSet,
    ) -> Result<TaskAnalysis, PipelineError> {
        let crpd = self.crpd(accesses, cache)?;
        self.assemble(
            (0..self.cfg.len())
                .map(|b| crpd.crpd_against(BlockId(b), ecb))
                .collect(),
        )
    }

    /// CRPD on the original graph (the dataflow handles cycles).
    fn crpd(&self, accesses: &AccessMap, cache: &CacheConfig) -> Result<CrpdAnalysis, CacheError> {
        let _s = fnpr_obs::span("pipeline.crpd", "pipeline");
        CrpdAnalysis::analyze(&self.cfg, accesses, cache)
    }

    /// Assembles `fi` from the per-block CRPD of the original graph.
    fn assemble(&self, crpd_per_block: Vec<f64>) -> Result<TaskAnalysis, PipelineError> {
        let _curve_span = fnpr_obs::span("pipeline.curve", "pipeline");
        // fi(t) = max CRPD over the blocks possibly executing at t; a
        // super-block inherits the max of its members.
        let windows = self.occupancy.value_windows(|reduced_block| {
            self.reduced.members[reduced_block.index()]
                .iter()
                .map(|b| crpd_per_block[b.index()])
                .fold(0.0, f64::max)
        });
        let curve = DelayCurve::from_windows(windows, self.occupancy.wcet())?;
        fnpr_obs::counter!("pipeline.curves.derived").incr();
        Ok(TaskAnalysis {
            curve,
            timing: self.timing,
            crpd_per_block,
        })
    }
}

/// Runs the full Section IV pipeline for one task.
///
/// `cfg` is the task's control-flow graph (loops allowed), `loop_bounds`
/// maps loop headers to iteration bounds (empty for loop-free code),
/// `accesses` the per-block memory accesses, `cache` the cache geometry.
///
/// # Errors
///
/// Returns a [`PipelineError`] wrapping the first failing stage.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use fnpr_pipeline::analyze_task;
/// use fnpr_cache::{AccessMap, CacheConfig};
/// use fnpr_cfg::{CfgBuilder, ExecInterval};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CfgBuilder::new();
/// let load = b.block(ExecInterval::new(10.0, 12.0)?);
/// let work = b.block(ExecInterval::new(30.0, 50.0)?);
/// b.edge(load, work)?;
/// let cfg = b.build()?;
/// let mut acc = AccessMap::new();
/// acc.set(load, vec![0, 16]);
/// acc.set(work, vec![0, 16]);
/// let analysis = analyze_task(
///     &cfg,
///     &BTreeMap::new(),
///     &acc,
///     &CacheConfig::new(16, 1, 16, 10.0)?,
/// )?;
/// assert_eq!(analysis.curve.max_value(), 20.0); // two useful lines
/// assert_eq!(analysis.timing.wcet, 62.0);
/// # Ok(())
/// # }
/// ```
pub fn analyze_task(
    cfg: &Cfg,
    loop_bounds: &BTreeMap<BlockId, LoopBound>,
    accesses: &AccessMap,
    cache: &CacheConfig,
) -> Result<TaskAnalysis, PipelineError> {
    PreparedProgram::new(cfg, loop_bounds)?.analyze(accesses, cache)
}

/// [`analyze_task`] against a *specific* preempter footprint — the paper's
/// future-work item (i), "discarding less information during the
/// computation of `fi(t)`".
///
/// `ecb` is the union of the evicting cache blocks of every task that can
/// preempt this one ([`fnpr_cache::EcbSet::of_task`], unioned). Only useful
/// blocks in sets the preempters actually touch are charged, so the derived
/// curve is pointwise below the unknown-preempter default; with
/// [`EcbSet::full`] this is exactly [`analyze_task`].
///
/// # Errors
///
/// As [`analyze_task`].
pub fn analyze_task_against(
    cfg: &Cfg,
    loop_bounds: &BTreeMap<BlockId, LoopBound>,
    accesses: &AccessMap,
    cache: &CacheConfig,
    ecb: &EcbSet,
) -> Result<TaskAnalysis, PipelineError> {
    PreparedProgram::new(cfg, loop_bounds)?.analyze_against(accesses, cache, ecb)
}

/// The [`AccessMap`] of a compiled structured program under one cache
/// geometry: the instruction fetches of its linear code layout plus the
/// per-block data accesses the AST carries.
#[must_use]
pub fn program_access_map(program: &CompiledProgram, cache: &CacheConfig) -> AccessMap {
    let mut accesses = AccessMap::from_code_layout(&program.layout, cache);
    for (block, addrs) in program.accesses.iter().enumerate() {
        for &addr in addrs {
            accesses.push(BlockId(block), addr);
        }
    }
    accesses
}

/// One task's program inputs for [`analyze_taskset`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProgram {
    /// The task's control-flow graph (loops allowed).
    pub cfg: Cfg,
    /// Loop bounds keyed by header.
    pub loop_bounds: BTreeMap<BlockId, LoopBound>,
    /// Per-block memory accesses.
    pub accesses: AccessMap,
}

/// Analyses a whole fixed-priority task set (index 0 = highest priority),
/// computing every task's delay curve **against the union footprint of its
/// actual preempters** — the tasks with higher priority — instead of the
/// unknown-preempter full-cache default.
///
/// The lowest-priority task gets the full union of everything above it; the
/// highest-priority task can never be preempted under fixed priorities, so
/// its curve is identically zero.
///
/// # Errors
///
/// As [`analyze_task`], per task.
pub fn analyze_taskset(
    programs: &[TaskProgram],
    cache: &CacheConfig,
) -> Result<Vec<TaskAnalysis>, PipelineError> {
    let footprints: Vec<EcbSet> = programs
        .iter()
        .map(|p| EcbSet::of_task(&p.accesses, cache))
        .collect();
    let mut out = Vec::with_capacity(programs.len());
    for (i, program) in programs.iter().enumerate() {
        let mut preempters = EcbSet::new();
        for footprint in footprints.iter().take(i) {
            preempters = preempters.union(footprint);
        }
        out.push(analyze_task_against(
            &program.cfg,
            &program.loop_bounds,
            &program.accesses,
            cache,
            &preempters,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::ast::{compile, Stmt};
    use fnpr_cfg::fixtures::figure1_cfg;
    use fnpr_cfg::{CfgBuilder, ExecInterval};
    use fnpr_core::{algorithm1, eq4_bound_for_curve};

    #[test]
    fn figure1_pipeline_produces_usable_curve() {
        let cfg = figure1_cfg();
        let cache = CacheConfig::new(32, 1, 16, 5.0).unwrap();
        // Straight-line code layout: block i occupies 64 bytes at i*64.
        let layout: Vec<(BlockId, u64, u64)> = (0..cfg.len())
            .map(|i| (BlockId(i), i as u64 * 64, 64))
            .collect();
        let accesses = AccessMap::from_code_layout(&layout, &cache);
        let analysis = analyze_task(&cfg, &BTreeMap::new(), &accesses, &cache).unwrap();
        assert_eq!(analysis.timing.wcet, 215.0);
        assert_eq!(analysis.curve.domain_end(), 215.0);
        assert!(analysis.curve.max_value() > 0.0);
        // The derived curve feeds the bound analyses.
        let q = analysis.curve.max_value() + 10.0;
        let alg1 = algorithm1(&analysis.curve, q).unwrap().expect_converged();
        let eq4 = eq4_bound_for_curve(&analysis.curve, q)
            .unwrap()
            .expect_converged();
        assert!(alg1.total_delay <= eq4.total_delay + 1e-9);
    }

    #[test]
    fn loop_program_pipeline() {
        // entry -> header -> body -> header -> exit, body reuses one line.
        let mut b = CfgBuilder::new();
        let entry = b.block(ExecInterval::new(2.0, 2.0).unwrap());
        let header = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        let body = b.block(ExecInterval::new(5.0, 5.0).unwrap());
        let exit = b.block(ExecInterval::new(2.0, 2.0).unwrap());
        b.edge(entry, header).unwrap();
        b.edge(header, body).unwrap();
        b.edge(body, header).unwrap();
        b.edge(header, exit).unwrap();
        let cfg = b.build().unwrap();
        let cache = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let mut acc = AccessMap::new();
        acc.set(body, vec![0]); // reused every iteration
        let mut bounds = BTreeMap::new();
        bounds.insert(header, LoopBound::exact(4).unwrap());
        let analysis = analyze_task(&cfg, &bounds, &acc, &cache).unwrap();
        // The loop super-block window carries the body's CRPD (10).
        assert_eq!(analysis.curve.max_value(), 10.0);
        // Loop: 4 iterations x (1 + 5) = 24 max; total 2 + 24 + 2.
        assert_eq!(analysis.timing.wcet, 28.0);
        // Delay is only chargeable inside the loop window, zero at the tail.
        assert_eq!(analysis.curve.value_at(27.5), 0.0);
    }

    #[test]
    fn ecb_aware_curve_is_pointwise_tighter() {
        let cfg = figure1_cfg();
        let cache = CacheConfig::new(16, 1, 16, 8.0).unwrap();
        let layout: Vec<(BlockId, u64, u64)> = (0..cfg.len())
            .map(|i| (BlockId(i), i as u64 * 48, 48))
            .collect();
        let accesses = AccessMap::from_code_layout(&layout, &cache);
        let default = analyze_task(&cfg, &BTreeMap::new(), &accesses, &cache).unwrap();
        // A preempter touching a single cache set: at most one useful line
        // per block can be lost.
        let ecb = fnpr_cache::EcbSet::from_sets([0]);
        let refined =
            analyze_task_against(&cfg, &BTreeMap::new(), &accesses, &cache, &ecb).unwrap();
        assert!(default.curve.dominates(&refined.curve));
        assert!(refined.curve.max_value() < default.curve.max_value());
        // Empty footprint: free preemptions.
        let free = analyze_task_against(
            &cfg,
            &BTreeMap::new(),
            &accesses,
            &cache,
            &fnpr_cache::EcbSet::new(),
        )
        .unwrap();
        assert_eq!(free.curve.max_value(), 0.0);
        // Full footprint == default.
        let full = analyze_task_against(
            &cfg,
            &BTreeMap::new(),
            &accesses,
            &cache,
            &fnpr_cache::EcbSet::full(&cache),
        )
        .unwrap();
        assert_eq!(full.curve, default.curve);
    }

    #[test]
    fn taskset_analysis_uses_preempter_footprints() {
        let cache = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        // Task 0 (highest): touches sets 0-1. Task 1: touches sets 2-3 and
        // reuses its own lines. Task 2 (lowest): reuses lines in sets 0-3.
        let make = |lines: &[u64]| -> TaskProgram {
            let mut b = CfgBuilder::new();
            let load = b.block(ExecInterval::new(2.0, 2.0).unwrap());
            let reuse = b.block(ExecInterval::new(8.0, 10.0).unwrap());
            b.edge(load, reuse).unwrap();
            let cfg = b.build().unwrap();
            let mut accesses = AccessMap::new();
            for &line in lines {
                accesses.push(load, line * 16);
                accesses.push(reuse, line * 16);
            }
            TaskProgram {
                cfg,
                loop_bounds: BTreeMap::new(),
                accesses,
            }
        };
        let programs = vec![make(&[0, 1]), make(&[2, 3]), make(&[0, 1, 2, 3])];
        let analyses = analyze_taskset(&programs, &cache).unwrap();
        // Highest priority: never preempted -> zero curve.
        assert_eq!(analyses[0].curve.max_value(), 0.0);
        // Middle: preempter (task 0) touches sets 0-1 only; its own useful
        // lines live in sets 2-3 -> still zero damage.
        assert_eq!(analyses[1].curve.max_value(), 0.0);
        // Lowest: preempters cover sets 0-3, all four lines exposed.
        assert_eq!(analyses[2].curve.max_value(), 40.0);
        // Against the unknown-preempter default the middle task would pay.
        let default = analyze_task(
            &programs[1].cfg,
            &programs[1].loop_bounds,
            &programs[1].accesses,
            &cache,
        )
        .unwrap();
        assert_eq!(default.curve.max_value(), 20.0);
    }

    #[test]
    fn missing_loop_bound_surfaces_as_cfg_error() {
        let (cfg, _) = fnpr_cfg::fixtures::single_loop_cfg().unwrap();
        let cache = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let err = analyze_task(&cfg, &BTreeMap::new(), &AccessMap::new(), &cache).unwrap_err();
        assert!(matches!(err, PipelineError::Cfg(_)));
        assert!(err.to_string().contains("loop"));
        assert!(err.source().is_some());
    }

    #[test]
    fn prepared_program_matches_one_shot_analysis_across_geometries() {
        let compiled = compile(
            &Stmt::seq([
                Stmt::basic("init", 2.0, 3.0),
                Stmt::bounded_loop(4, Stmt::basic("work", 5.0, 6.0)),
                Stmt::basic("emit", 1.0, 1.0),
            ]),
            64,
        )
        .unwrap();
        let prepared = PreparedProgram::new(&compiled.cfg, &compiled.loop_bounds).unwrap();
        for (sets, assoc, line, brt) in [(16, 1, 16, 10.0), (64, 2, 32, 4.0), (8, 1, 64, 25.0)] {
            let cache = CacheConfig::new(sets, assoc, line, brt).unwrap();
            let accesses = program_access_map(&compiled, &cache);
            let fast = prepared.analyze(&accesses, &cache).unwrap();
            let slow =
                analyze_task(&compiled.cfg, &compiled.loop_bounds, &accesses, &cache).unwrap();
            assert_eq!(fast, slow, "geometry ({sets},{assoc},{line},{brt})");
            // The per-geometry curves also agree on the structural hash the
            // campaign memo layers key on — cached at construction, so both
            // derivation paths expose identical O(1) identities.
            assert_eq!(
                fast.curve.structural_hash(),
                slow.curve.structural_hash(),
                "geometry ({sets},{assoc},{line},{brt})"
            );
        }
    }

    // --- Edge cases the generated-program campaign workload hits. ---

    #[test]
    fn loop_free_program_with_no_accesses_gets_zero_crpd_curve() {
        let compiled = compile(
            &Stmt::seq([Stmt::basic("a", 3.0, 4.0), Stmt::basic("b", 2.0, 2.0)]),
            64,
        )
        .unwrap();
        let cache = CacheConfig::new(16, 1, 16, 10.0).unwrap();
        let analysis = analyze_task(
            &compiled.cfg,
            &compiled.loop_bounds,
            &AccessMap::new(),
            &cache,
        )
        .unwrap();
        assert_eq!(analysis.curve.max_value(), 0.0);
        assert_eq!(analysis.curve.domain_end(), analysis.timing.wcet);
        assert!(analysis.crpd_per_block.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn single_block_program_analyzes_cleanly() {
        let mut b = CfgBuilder::new();
        let only = b.block(ExecInterval::new(7.0, 9.0).unwrap());
        let cfg = b.build().unwrap();
        let cache = CacheConfig::new(8, 1, 16, 5.0).unwrap();
        // No accesses at all: the curve exists and is identically zero.
        let empty = analyze_task(&cfg, &BTreeMap::new(), &AccessMap::new(), &cache).unwrap();
        assert_eq!(empty.timing.wcet, 9.0);
        assert_eq!(empty.curve.max_value(), 0.0);
        // A single block has no preemption point between a first and a
        // later use inside the window model, but the analysis must still
        // not error when the block does touch memory.
        let mut acc = AccessMap::new();
        acc.set(only, vec![0, 16, 32]);
        let with_acc = analyze_task(&cfg, &BTreeMap::new(), &acc, &cache).unwrap();
        assert_eq!(with_acc.curve.domain_end(), 9.0);
    }

    #[test]
    fn loop_bound_with_zero_min_iterations_is_accepted() {
        // A skippable loop (min 0): the reduced best case is 0 executions,
        // and with an empty access map the curve is zero-CRPD everywhere.
        let mut b = CfgBuilder::new();
        let entry = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        let header = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        let body = b.block(ExecInterval::new(4.0, 4.0).unwrap());
        let exit = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        b.edge(entry, header).unwrap();
        b.edge(header, body).unwrap();
        b.edge(body, header).unwrap();
        b.edge(header, exit).unwrap();
        let cfg = b.build().unwrap();
        let mut bounds = BTreeMap::new();
        bounds.insert(header, LoopBound::new(0, 3).unwrap());
        let cache = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        let analysis = analyze_task(&cfg, &bounds, &AccessMap::new(), &cache).unwrap();
        assert_eq!(analysis.curve.max_value(), 0.0);
        // Max: entry 1 + 3 x (header 1 + body 4) + exit 1.
        assert_eq!(analysis.timing.wcet, 17.0);
    }
}
