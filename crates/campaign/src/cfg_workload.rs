//! The `[cfg]` workload: generated structured programs through the **full
//! Section IV pipeline** — compile (`fnpr_cfg::ast`) → per-block CRPD
//! (`fnpr-cache`) → execution windows → delay curve `fi` (`fnpr-pipeline`)
//! → Algorithm 1 / Eq. 4 bounds (`fnpr-core`) — swept over program-shape
//! axes (nesting depth × loop bounds × data footprint), cache-geometry axes
//! (sets × associativity × line size × reload cost) and a `Qi` axis.
//!
//! This is the first campaign workload whose delay curves come from program
//! *structure* rather than synthetic generators, exercising the substrate
//! crates at campaign scale.
//!
//! Determinism follows the engine contract: program generation streams are
//! pure functions of `(campaign seed, shape coordinates, instance)` — never
//! of the cache geometry, the `Qi` choice or the claiming thread — so every
//! geometry/Q point of a grid row analyses the *same* programs. Memoization
//! exploits exactly that sharing, at two layers:
//!
//! * **programs** — generation + compilation + the cache-independent
//!   pipeline half ([`PreparedProgram`]: loop reduction, occupancy, timing)
//!   are keyed by the generation stream, so the whole geometry × Q
//!   sub-grid reuses each compiled program;
//! * **curves** — the cache-dependent half (CRPD → `fi`) is keyed by
//!   `(program structural hash, cache geometry)`, so the `Qi` axis (and any
//!   duplicated geometry points) reuses derived curves.

use std::sync::Arc;

use fnpr_cache::CacheConfig;
use fnpr_cfg::ast::CompiledProgram;
use fnpr_core::{algorithm1, eq4_bound_for_curve};
use fnpr_pipeline::{program_access_map, PreparedProgram, TaskAnalysis};
use fnpr_synth::{random_program, ProgramGenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::Executor;
use crate::error::CampaignError;
use crate::exec::stream_key128;
use crate::memo::{Memo, ScenarioHasher};
use crate::report::CfgPoint;
use crate::spec::CfgParams;
use crate::store::{bounds_key, BoundsEntry, ResultStore, StoreTable};

/// Domain tags for RNG stream / memo key derivation.
const TAG_PROGRAM: u64 = 0x4347_5047; // "CGPG"
const TAG_CURVE: u64 = 0x4347_4356; // "CGCV"
const TAG_POINT: u64 = 0x4347_5450; // "CGTP"

/// A generated program plus the cache-independent half of its analysis,
/// shared across every geometry and `Qi` point of the grid. The source
/// statement tree is deliberately *not* retained — these live in a
/// run-lifetime memo, and everything downstream (access maps, hashes,
/// block counts) reads the compiled form.
pub struct ProgramArtifacts {
    /// The compiled CFG, loop bounds, layout and data accesses.
    pub compiled: CompiledProgram,
    /// Loop reduction + occupancy + timing, reused per geometry.
    pub prepared: PreparedProgram,
    /// 128-bit structural hash of the compiled program (blocks, edges,
    /// bounds, layout, accesses) — the program half of the curve memo key.
    pub structural_hash: u128,
}

/// One memoized bound computation: `(Algorithm 1 total, Eq. 4 total)`
/// with `None` for a divergent bound, or the error message of a failed
/// analysis.
pub type BoundTotals = Result<(Option<f64>, Option<f64>), String>;

/// Shared state across shards of one `run` call.
pub struct CfgEngine {
    /// Programs keyed by their generation stream key.
    pub program_memo: Memo<Option<Arc<ProgramArtifacts>>>,
    /// Derived curves keyed by `(program structural hash, geometry)`.
    pub curve_memo: Memo<Option<Arc<TaskAnalysis>>>,
    /// `(Algorithm 1, Eq. 4)` total delays (`None` = divergent) keyed by
    /// `(curve structural hash, Q)` — the curve's hash is cached inside
    /// the `DelayCurve` itself, so a lookup costs O(1) rather than a
    /// re-hash of every segment, and the key derivation
    /// ([`crate::store::bounds_key`]) is *shared with the soundness
    /// workload*, so the two workloads' cached bound computations dedupe
    /// through one persistent table. Dedupes bound computations whenever
    /// grid axes collide on the same `(fi, Q)` pair (duplicated geometry
    /// points, q_scales × identical WCETs). Failures memoize the error
    /// message, so the diagnostic survives the cache (analyses are
    /// deterministic: a retry would fail identically).
    pub bound_memo: Memo<BoundTotals>,
}

impl CfgEngine {
    /// A fresh engine with empty memo tables.
    #[must_use]
    pub fn new() -> Self {
        Self {
            program_memo: Memo::named("program"),
            curve_memo: Memo::named("curve"),
            bound_memo: Memo::named("bound"),
        }
    }
}

impl Default for CfgEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// One grid point's coordinates, in the exact order `run` visits them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Program nesting depth.
    pub depth: usize,
    /// Maximum loop iteration bound.
    pub loop_iterations: u64,
    /// Distinct data lines in the access pool.
    pub footprint: u64,
    /// Cache sets.
    pub sets: usize,
    /// Cache ways per set.
    pub associativity: usize,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Block reload time.
    pub reload_cost: f64,
    /// `Qi` as a fraction of WCET.
    pub q_scale: f64,
}

/// The expanded grid in run (and therefore report/CSV) order: shape-major
/// (depth, loop bound, footprint), then geometry (sets, associativity,
/// line size, reload cost), then `Qi` — so consecutive rows share
/// programs, then curves. The CLI's `grid` subcommand prints exactly this
/// expansion.
#[must_use]
pub fn grid_points(params: &CfgParams) -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for &depth in &params.depths {
        for &loop_iterations in &params.loop_iterations {
            for &footprint in &params.footprints {
                for &sets in &params.sets {
                    for &associativity in &params.associativity {
                        for &line_bytes in &params.line_bytes {
                            for &reload_cost in &params.reload_costs {
                                for &q_scale in &params.q_scales {
                                    grid.push(GridPoint {
                                        depth,
                                        loop_iterations,
                                        footprint,
                                        sets,
                                        associativity,
                                        line_bytes,
                                        reload_cost,
                                        q_scale,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    grid
}

/// Grid rows (points that differ only in `Qi`) per claim block.
const CLAIM_BLOCK_ROWS: usize = 8;

/// The grid index of the `claim`-th shard of a `len`-point grid.
///
/// [`grid_points`] runs `Qi` innermost, so adjacent grid indices share one
/// `(program, geometry)` curve. An executor hands out adjacent shards to
/// its workers, so claiming in grid order would have two workers generate
/// the same programs and derive the same curves side by side. Shards are
/// therefore claimed `Qi`-major within blocks of [`CLAIM_BLOCK_ROWS`] rows:
/// the first `Qi` pass over a block claims a distinct geometry or shape
/// each time, and the later passes find its curves in the memo while they
/// are still recently used. (A `Qi`-major walk over the whole grid cost
/// one worker about 8% of its throughput.) Results are put back in grid
/// order, so reports and store keys never see the claim order.
fn claim_to_grid(params: &CfgParams, claim: usize, len: usize) -> usize {
    let q_count = params.q_scales.len();
    let rows = len / q_count;
    let first_row = claim / (CLAIM_BLOCK_ROWS * q_count) * CLAIM_BLOCK_ROWS;
    let height = CLAIM_BLOCK_ROWS.min(rows - first_row);
    let offset = claim - first_row * q_count;
    (first_row + offset % height) * q_count + offset / height
}

/// Runs the full grid on the given executor and returns the points in
/// [`grid_points`] order. Shards are claimed in `claim_to_grid` order,
/// which keeps two workers from deriving the same curves side by side.
///
/// # Errors
///
/// Propagates the failure of the first failing shard in claim order.
pub fn run(
    params: &CfgParams,
    campaign_seed: u64,
    executor: &Executor,
    engine: &CfgEngine,
    store: Option<&ResultStore>,
) -> Result<Vec<CfgPoint>, CampaignError> {
    let grid = grid_points(params);
    let claimed = executor.run(grid.len(), &|i| {
        let point = grid[claim_to_grid(params, i, grid.len())];
        compute_grid_point(params, campaign_seed, point, engine, store)
    })?;
    let mut placed: Vec<(usize, CfgPoint)> = claimed
        .into_iter()
        .enumerate()
        .map(|(i, point)| (claim_to_grid(params, i, grid.len()), point))
        .collect();
    placed.sort_unstable_by_key(|&(g, _)| g);
    Ok(placed.into_iter().map(|(_, point)| point).collect())
}

/// Computes one shard by its claim index (see `claim_to_grid`) — the
/// worker-process entry point, addressing the identical grid and claim
/// order a local run uses.
///
/// # Errors
///
/// Rejects out-of-range shards; otherwise propagates the point's failure.
pub(crate) fn compute_shard(
    params: &CfgParams,
    campaign_seed: u64,
    shard: usize,
    engine: &CfgEngine,
    store: Option<&ResultStore>,
) -> Result<CfgPoint, CampaignError> {
    let grid = grid_points(params);
    if shard >= grid.len() {
        return Err(CampaignError::Spec(format!(
            "shard {shard} out of range (cfg grid has {} points)",
            grid.len()
        )));
    }
    let point = grid[claim_to_grid(params, shard, grid.len())];
    compute_grid_point(params, campaign_seed, point, engine, store)
}

fn compute_grid_point(
    params: &CfgParams,
    campaign_seed: u64,
    point: GridPoint,
    engine: &CfgEngine,
    store: Option<&ResultStore>,
) -> Result<CfgPoint, CampaignError> {
    let compute = || run_point(params, campaign_seed, point, engine, store);
    match store {
        Some(s) => s.get_or_compute(
            StoreTable::CfgPoints,
            point_key(params, campaign_seed, point),
            compute,
        ),
        None => compute(),
    }
}

/// Content address of one finished grid point: campaign seed, the
/// generation template (including the user `tag`, which prefixes the
/// stored shape strings), and the full point coordinates — never the axis
/// lists, so grid extensions restore shared points.
fn point_key(params: &CfgParams, campaign_seed: u64, point: GridPoint) -> u128 {
    ScenarioHasher::new(TAG_POINT)
        .word(campaign_seed)
        .word(params.programs_per_point as u64)
        .str(&params.tag)
        .word(params.program.max_sequence as u64)
        .f64(params.program.cost_range.0)
        .f64(params.program.cost_range.1)
        .f64(params.program.branch_probability)
        .f64(params.program.loop_probability)
        .word(params.program.block_bytes)
        .word(params.program.accesses_per_block.0 as u64)
        .word(params.program.accesses_per_block.1 as u64)
        .word(point.depth as u64)
        .word(point.loop_iterations)
        .word(point.footprint)
        .word(point.sets as u64)
        .word(point.associativity as u64)
        .word(point.line_bytes)
        .f64(point.reload_cost)
        .f64(point.q_scale)
        .finish128()
}

fn run_point(
    params: &CfgParams,
    campaign_seed: u64,
    point: GridPoint,
    engine: &CfgEngine,
    store: Option<&ResultStore>,
) -> Result<CfgPoint, CampaignError> {
    let tag = if params.tag.is_empty() {
        String::new()
    } else {
        format!("{}:", params.tag)
    };
    let mut out = CfgPoint {
        shape: format!(
            "{tag}d{}_l{}_f{}",
            point.depth, point.loop_iterations, point.footprint
        ),
        depth: point.depth,
        loop_iterations: point.loop_iterations,
        footprint: point.footprint,
        sets: point.sets,
        associativity: point.associativity,
        line_bytes: point.line_bytes,
        reload_cost: point.reload_cost,
        q_scale: point.q_scale,
        programs: 0,
        blocks_mean: 0.0,
        wcet_mean: 0.0,
        curve_max_mean: 0.0,
        alg1_converged: 0,
        eq4_converged: 0,
        delay_mean: 0.0,
        pessimism_mean: 0.0,
        pessimism_max: 0.0,
        pessimism_count: 0,
        dominance_violations: 0,
    };
    let gen_params = ProgramGenParams {
        max_depth: point.depth,
        max_loop_iterations: point.loop_iterations,
        footprint_lines: point.footprint,
        ..params.program
    };
    let cache = CacheConfig::new(
        point.sets,
        point.associativity,
        point.line_bytes,
        point.reload_cost,
    )
    .map_err(|e| CampaignError::Analysis(format!("cache geometry: {e}")))?;

    let mut blocks_sum = 0usize;
    let mut wcet_sum = 0.0;
    let mut curve_max_sum = 0.0;
    let mut delay_sum = 0.0;
    let mut gap_sum = 0.0;

    for instance in 0..params.programs_per_point {
        let program_key = program_key(campaign_seed, &gen_params, instance);
        let artifacts = engine
            .program_memo
            // The generation seed is the key's low word — exactly the
            // pre-widening 64-bit stream seed, so generated programs (and
            // every aggregate) are unchanged by the 128-bit keys.
            .get_or_insert_with(program_key, || {
                build_program(program_key as u64, &gen_params)
            })
            .ok_or_else(|| {
                CampaignError::Analysis(format!(
                    "program generation failed (shape {}, instance {instance})",
                    out.shape
                ))
            })?;
        let analysis = engine
            .curve_memo
            .get_or_insert_with(curve_key(&artifacts, &cache), || {
                let accesses = program_access_map(&artifacts.compiled, &cache);
                artifacts
                    .prepared
                    .analyze(&accesses, &cache)
                    .ok()
                    .map(Arc::new)
            })
            .ok_or_else(|| {
                CampaignError::Analysis(format!(
                    "pipeline failed (shape {}, instance {instance})",
                    out.shape
                ))
            })?;

        out.programs += 1;
        blocks_sum += artifacts.compiled.cfg.len();
        wcet_sum += analysis.timing.wcet;
        curve_max_sum += analysis.curve.max_value();

        let q = point.q_scale * analysis.timing.wcet;
        let key = bounds_key(&analysis.curve, q);
        let (alg1, eq4) = engine
            .bound_memo
            .get_or_insert_with(key, || compute_point_bounds(&analysis.curve, q, store, key))
            .map_err(|e| {
                CampaignError::Analysis(format!("{e} (shape {}, instance {instance})", out.shape))
            })?;
        accumulate_bounds(alg1, eq4, &mut out, &mut delay_sum, &mut gap_sum);
    }

    if out.programs > 0 {
        let n = out.programs as f64;
        out.blocks_mean = blocks_sum as f64 / n;
        out.wcet_mean = wcet_sum / n;
        out.curve_max_mean = curve_max_sum / n;
    }
    if out.alg1_converged > 0 {
        out.delay_mean = delay_sum / out.alg1_converged as f64;
    }
    if out.pessimism_count > 0 {
        out.pessimism_mean = gap_sum / out.pessimism_count as f64;
    }
    Ok(out)
}

/// Computes — or restores from the **shared** `(curve, Q)` store table —
/// one pair of Algorithm 1 / Eq. 4 totals (`None` = divergent). On a
/// store miss the computed totals are persisted as a partial
/// [`BoundsEntry`] (`naive`/`exact` left for a soundness run to fill in);
/// a hit may equally have been written by a soundness campaign — the two
/// workloads' bound memos key into one table (ROADMAP follow-up (b)).
/// Errors (malformed `q`, cannot happen for generated programs) are
/// reported, memoized in RAM by the caller, and never persisted.
fn compute_point_bounds(
    curve: &fnpr_core::DelayCurve,
    q: f64,
    store: Option<&ResultStore>,
    key: u128,
) -> Result<(Option<f64>, Option<f64>), String> {
    if let Some(store) = store {
        if let Some(entry) = store.get::<BoundsEntry>(StoreTable::Bounds, key) {
            store.count(StoreTable::Bounds, true);
            return Ok((entry.alg1, entry.eq4));
        }
    }
    let alg1 = algorithm1(curve, q)
        .map_err(|e| format!("algorithm1 (q {q}): {e}"))?
        .total_delay();
    let eq4 = eq4_bound_for_curve(curve, q)
        .map_err(|e| format!("eq4 (q {q}): {e}"))?
        .total_delay();
    if let Some(store) = store {
        store.count(StoreTable::Bounds, false);
        store.put(
            StoreTable::Bounds,
            key,
            &BoundsEntry {
                alg1,
                eq4,
                naive: None,
                exact: None,
            },
        );
    }
    Ok((alg1, eq4))
}

/// Folds one program's bound totals into the point aggregates.
fn accumulate_bounds(
    alg1_total: Option<f64>,
    eq4_total: Option<f64>,
    out: &mut CfgPoint,
    delay_sum: &mut f64,
    gap_sum: &mut f64,
) {
    if let Some(d) = alg1_total {
        out.alg1_converged += 1;
        *delay_sum += d;
    }
    if eq4_total.is_some() {
        out.eq4_converged += 1;
    }
    match (alg1_total, eq4_total) {
        (Some(a), Some(e)) => {
            // Theorem 1 dominance: Algorithm 1 never exceeds Eq. 4.
            if a > e + 1e-6 {
                out.dominance_violations += 1;
            }
            if a > 1e-12 {
                let ratio = e / a;
                *gap_sum += ratio;
                out.pessimism_count += 1;
                out.pessimism_max = out.pessimism_max.max(ratio);
            }
        }
        // Eq. 4 converging where the tighter Algorithm 1 diverges would
        // invert the dominance ordering.
        (None, Some(_)) => out.dominance_violations += 1,
        _ => {}
    }
}

/// Generates, compiles and prepares one program. `None` on any failure
/// (cannot happen for the shapes the generator emits; surfaced as an
/// [`CampaignError::Analysis`] by the caller rather than a panic).
fn build_program(seed: u64, params: &ProgramGenParams) -> Option<Arc<ProgramArtifacts>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let compiled = random_program(&mut rng, params).ok()?.compiled;
    let prepared = PreparedProgram::new(&compiled.cfg, &compiled.loop_bounds).ok()?;
    let structural_hash = program_hash128(&compiled);
    Some(Arc::new(ProgramArtifacts {
        compiled,
        prepared,
        structural_hash,
    }))
}

/// Memo key (its low word doubling as the RNG seed) for one program: a
/// pure function of the campaign seed, the generation template and the
/// instance index. Cache geometry and `Qi` are deliberately absent so the
/// whole geometry × Q sub-grid shares programs.
fn program_key(campaign_seed: u64, params: &ProgramGenParams, instance: usize) -> u128 {
    stream_key128(
        TAG_PROGRAM,
        campaign_seed,
        &[
            params.max_depth as u64,
            params.max_sequence as u64,
            params.cost_range.0.to_bits(),
            params.cost_range.1.to_bits(),
            params.max_loop_iterations,
            params.branch_probability.to_bits(),
            params.loop_probability.to_bits(),
            params.block_bytes,
            params.footprint_lines,
            params.accesses_per_block.0 as u64,
            params.accesses_per_block.1 as u64,
            instance as u64,
        ],
    )
}

/// Structural hash of a compiled program: blocks (intervals), edges, loop
/// bounds, layout granularity and data accesses. Two structurally identical
/// programs hash equally regardless of how they were generated. The
/// 64-bit value is the low word of [`program_hash128`].
#[must_use]
pub fn program_hash(compiled: &CompiledProgram) -> u64 {
    program_hash128(compiled) as u64
}

/// The 128-bit program hash keying the curve memo (see [`program_hash`]).
#[must_use]
pub fn program_hash128(compiled: &CompiledProgram) -> u128 {
    let mut h = ScenarioHasher::new(0x4347_5348); // "CGSH"
    h = h.word(compiled.cfg.len() as u64);
    for block in compiled.cfg.blocks() {
        h = h.f64(block.exec.min).f64(block.exec.max);
    }
    // Every variable-length section is length-prefixed (same aliasing
    // argument as the spec axes): the block count above covers blocks,
    // layout and the outer accesses vector, but edges need their own.
    h = h.word(compiled.cfg.edges().count() as u64);
    for (from, to) in compiled.cfg.edges() {
        h = h.word(from.index() as u64).word(to.index() as u64);
    }
    h = h.word(compiled.loop_bounds.len() as u64);
    for (header, bound) in &compiled.loop_bounds {
        h = h
            .word(header.index() as u64)
            .word(bound.min_iterations)
            .word(bound.max_iterations);
    }
    for (_, base, size) in &compiled.layout {
        h = h.word(*base).word(*size);
    }
    for accesses in &compiled.accesses {
        h = h.word(accesses.len() as u64);
        for &a in accesses {
            h = h.word(a);
        }
    }
    h.finish128()
}

/// Curve memo key: `(program structural hash, cache geometry)`.
fn curve_key(artifacts: &ProgramArtifacts, cache: &CacheConfig) -> u128 {
    ScenarioHasher::new(TAG_CURVE)
        .word128(artifacts.structural_hash)
        .word(cache.sets() as u64)
        .word(cache.associativity() as u64)
        .word(cache.line_bytes())
        .f64(cache.reload_cost())
        .finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, Workload};
    use std::num::NonZeroUsize;

    fn local(threads: usize) -> Executor {
        Executor::local(NonZeroUsize::new(threads).unwrap())
    }

    fn small_params() -> CfgParams {
        let spec = CampaignSpec::parse(
            r#"
workload = "cfg"
[cfg]
programs_per_point = 4
depths = [2]
loop_iterations = [4]
footprints = [6]
q_scales = { values = [0.3, 0.6] }
sets = [16, 64]
associativity = [1]
line_bytes = [16]
reload_cost = [10.0]
"#,
        )
        .unwrap();
        match spec.validate().unwrap().workload {
            Workload::Cfg(c) => c,
            _ => unreachable!(),
        }
    }

    #[test]
    fn points_cover_the_grid_in_order() {
        let params = small_params();
        let engine = CfgEngine::new();
        let points = run(&params, 7, &local(2), &engine, None).unwrap();
        // 1 shape x 2 set counts x 2 q scales.
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].sets, 16);
        assert_eq!(points[0].q_scale, 0.3);
        assert_eq!(points[1].q_scale, 0.6);
        assert_eq!(points[2].sets, 64);
        for p in &points {
            assert_eq!(p.shape, "d2_l4_f6");
            assert_eq!(p.programs, 4);
            assert!(p.blocks_mean > 0.0);
            assert!(p.wcet_mean > 0.0);
            assert!(p.alg1_converged >= p.eq4_converged, "dominance order");
        }
    }

    #[test]
    fn claims_are_a_blocked_qi_major_permutation_of_the_grid() {
        let mut params = small_params();
        params.q_scales = vec![0.2, 0.4, 0.6];
        params.footprints = vec![4, 6, 8, 10, 12];
        let grid = grid_points(&params);
        // 5 footprints x 2 set counts: one full block of 8 rows, one of 2.
        let rows = grid.len() / params.q_scales.len();
        assert_eq!(rows, 10);
        let order: Vec<usize> = (0..grid.len())
            .map(|i| claim_to_grid(&params, i, grid.len()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..grid.len()).collect::<Vec<_>>());
        let (full, partial) = order.split_at(CLAIM_BLOCK_ROWS * params.q_scales.len());
        for (block, height) in [(full, CLAIM_BLOCK_ROWS), (partial, rows - CLAIM_BLOCK_ROWS)] {
            for pass in block.chunks(height) {
                // One Qi per pass, and a distinct row (curve) per claim.
                assert!(pass
                    .iter()
                    .all(|&g| grid[g].q_scale == grid[pass[0]].q_scale));
                for pair in pass.windows(2) {
                    assert_eq!(pair[1], pair[0] + params.q_scales.len());
                }
            }
        }
        // Out-of-range shards are refused, in-range ones land on their point.
        let engine = CfgEngine::new();
        assert!(compute_shard(&params, 7, grid.len(), &engine, None).is_err());
        let points = run(&params, 7, &local(1), &engine, None).unwrap();
        let last = compute_shard(&params, 7, grid.len() - 1, &engine, None).unwrap();
        assert_eq!(last, points[order[grid.len() - 1]]);
    }

    #[test]
    fn real_structure_produces_nonzero_curves_and_dominance_holds() {
        let params = small_params();
        let engine = CfgEngine::new();
        let points = run(&params, 11, &local(4), &engine, None).unwrap();
        assert!(
            points.iter().any(|p| p.curve_max_mean > 0.0),
            "no program produced CRPD — the pipeline is not being exercised"
        );
        for p in &points {
            assert_eq!(p.dominance_violations, 0, "dominance violated on {p:?}");
            assert!(p.pessimism_max >= p.pessimism_mean);
            if p.pessimism_count > 0 {
                assert!(p.pessimism_mean >= 1.0 - 1e-9, "Eq.4 beat Algorithm 1");
            }
        }
    }

    #[test]
    fn geometry_and_q_axes_share_programs_and_curves_via_memo() {
        let params = small_params();
        let engine = CfgEngine::new();
        let _ = run(&params, 7, &local(1), &engine, None).unwrap();
        let programs = engine.program_memo.stats();
        // 4 grid points share one shape: 4 programs generated once, hit 3x.
        assert_eq!(programs.misses, 4);
        assert_eq!(programs.hits, 12);
        let curves = engine.curve_memo.stats();
        // 2 geometries x 4 programs computed once; the second q_scale hits.
        assert_eq!(curves.misses, 8);
        assert_eq!(curves.hits, 8);
        // Bounds: one lookup per (program, geometry, q_scale) point; any
        // colliding (curve, Q) pairs (e.g. geometries yielding identical
        // curves) dedupe into hits.
        let bounds = engine.bound_memo.stats();
        assert_eq!(bounds.misses + bounds.hits, 16);
        assert!(bounds.misses >= 8, "distinct q_scales cannot collide");
    }

    #[test]
    fn zero_footprint_programs_have_zero_curves_but_still_run() {
        let mut params = small_params();
        params.footprints = vec![0];
        params.program.accesses_per_block = (0, 0);
        // Tiny line size so even instruction fetches cannot be reused
        // across blocks... they still can within the layout; footprint 0
        // only removes *data* accesses, so just assert the run completes
        // and the bounds stay ordered.
        let engine = CfgEngine::new();
        let points = run(&params, 3, &local(2), &engine, None).unwrap();
        for p in &points {
            assert_eq!(p.programs, 4);
            assert_eq!(p.dominance_violations, 0);
        }
    }

    #[test]
    fn program_hash_distinguishes_structure_but_not_generation_path() {
        let params = ProgramGenParams::default();
        let a = random_program(&mut StdRng::seed_from_u64(1), &params).unwrap();
        let a2 = random_program(&mut StdRng::seed_from_u64(1), &params).unwrap();
        let b = random_program(&mut StdRng::seed_from_u64(2), &params).unwrap();
        assert_eq!(program_hash(&a.compiled), program_hash(&a2.compiled));
        assert_ne!(program_hash(&a.compiled), program_hash(&b.compiled));
    }
}
