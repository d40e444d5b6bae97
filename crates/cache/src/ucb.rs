//! Useful-cache-block analysis (Lee et al. style).
//!
//! A memory block is *useful* at a program point `p` if it **may be cached**
//! at `p` (forward reaching analysis) and **may be referenced again after
//! `p` before being evicted** (backward live analysis). Evicting a useful
//! block costs one reload when the task resumes — the per-point CRPD is
//! bounded by the number of useful blocks the preempter may evict.
//!
//! Following [3]'s granularity, usefulness is computed *per basic block*:
//! the reported set for block `b` covers every point inside `b`
//! (entry-reaching ∪ in-block accesses intersected with in-block accesses ∪
//! exit-live), so the derived `CRPD_b` is constant across the block — which
//! is exactly the shape the paper's `fi(t) = max {CRPD_b : b ∈ BB(t)}`
//! composition consumes.
//!
//! Transfer functions are exact for direct-mapped caches. For `A`-way LRU
//! caches the may-analyses keep every possibly-cached block (no eviction in
//! the abstract transfer) and the per-set useful count is capped at `A`;
//! this over-approximates the age-based analyses of the later literature but
//! remains sound (see the concrete-simulator property tests).
//!
//! # Representation
//!
//! The analysis interns the task's `L` distinct memory lines once, sorted by
//! `(cache set, line)`, so every cache set owns a contiguous range of bit
//! positions. Every per-block fact is then one row of `⌈L / 64⌉` words: the
//! lines the block touches, every line of every set it touches, and its
//! first and last access per touched set. The transfer functions are word
//! operations:
//!
//! * direct-mapped, forward `out = (in & !sets) | last` and backward
//!   `in = (out & !sets) | first` — an access replaces its whole set;
//! * set-associative, both directions `x = y | touched`.
//!
//! Interning costs `O(a log L)` for `a` accesses, and one dataflow pass
//! costs `O((n + e) · ⌈L / 64⌉)` word operations for `n` blocks and `e`
//! edges — no allocation inside a pass. The result keeps only the line
//! table, one useful row per block and each block's capped count, so the
//! CRPD queries read a row rather than walking per-set ordered sets.
//!
//! # Pass order
//!
//! Both dataflows are Gauss–Seidel sweeps, the forward one in reverse
//! post-order and the backward one in its reverse, each capped at `4n + 8`
//! passes. The transfers are monotone, so the fixpoint does not depend on
//! the sweep order — but the number of passes does, and with it whether
//! [`CacheError::FixpointLimit`] is reported. The order is therefore part of
//! the contract: it is the one the earlier per-set ordered-set formulation
//! used, so every fixpoint and every error is the one that formulation
//! reaches (the oracle property test in this module checks exactly that).
//! Blocks unreachable from the entry are never swept, so their reaching and
//! live rows stay empty.

use std::collections::BTreeSet;

use fnpr_cfg::{BlockId, Cfg};
use serde::{Deserialize, Serialize};

use crate::access::AccessMap;
use crate::config::CacheConfig;
use crate::error::CacheError;

/// The graph facts the dataflow reads. [`Cfg`] is the only production
/// graph; the oracle tests add raw adjacency lists, which — unlike a built
/// [`Cfg`] — may hold blocks unreachable from the entry.
trait FlowGraph {
    fn blocks(&self) -> usize;
    fn reverse_post_order(&self) -> Vec<BlockId>;
    fn predecessors(&self, b: BlockId) -> &[BlockId];
    fn successors(&self, b: BlockId) -> &[BlockId];
}

impl FlowGraph for Cfg {
    fn blocks(&self) -> usize {
        self.len()
    }

    fn reverse_post_order(&self) -> Vec<BlockId> {
        Cfg::reverse_post_order(self)
    }

    fn predecessors(&self, b: BlockId) -> &[BlockId] {
        Cfg::predecessors(self, b)
    }

    fn successors(&self, b: BlockId) -> &[BlockId] {
        Cfg::successors(self, b)
    }
}

/// One bit row of `words` words per basic block, stored flat.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rows {
    words: usize,
    bits: Vec<u64>,
}

impl Rows {
    fn new(blocks: usize, words: usize) -> Self {
        Self {
            words,
            bits: vec![0; blocks * words],
        }
    }

    fn row(&self, b: usize) -> &[u64] {
        &self.bits[b * self.words..(b + 1) * self.words]
    }

    fn row_mut(&mut self, b: usize) -> &mut [u64] {
        &mut self.bits[b * self.words..(b + 1) * self.words]
    }
}

fn set_bit(row: &mut [u64], k: usize) {
    row[k / 64] |= 1 << (k % 64);
}

fn has_bit(row: &[u64], k: usize) -> bool {
    row[k / 64] & (1 << (k % 64)) != 0
}

/// The positions of the set bits of `row`, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&x| {
            let rest = x & (x - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// Per-block access summaries over the interned lines.
struct Summaries {
    /// Every line the block touches.
    touched: Rows,
    /// Every line of every set the block touches.
    sets: Rows,
    /// Per touched set, the line the block accesses first.
    first: Rows,
    /// Per touched set, the line the block accesses last.
    last: Rows,
}

impl Summaries {
    /// Builds the summaries of every block; `lines` is the interned line
    /// table, sorted by `(set, line)`.
    fn build(n: usize, accesses: &AccessMap, config: &CacheConfig, lines: &[u64]) -> Self {
        let words = lines.len().div_ceil(64);
        let key = |line: u64| (config.set_of_block(line), line);
        // For each interned line, the bit range `lo..hi` of its set.
        let mut range = vec![(0, 0); lines.len()];
        let mut lo = 0;
        for group in lines.chunk_by(|&a, &b| key(a).0 == key(b).0) {
            let hi = lo + group.len();
            range[lo..hi].fill((lo, hi));
            lo = hi;
        }
        let mut s = Self {
            touched: Rows::new(n, words),
            sets: Rows::new(n, words),
            first: Rows::new(n, words),
            last: Rows::new(n, words),
        };
        let mut index = Vec::new();
        let mut seen = vec![0; words];
        for (block, addrs) in accesses.iter() {
            let b = block.index();
            index.clear();
            index.extend(addrs.iter().map(|&a| {
                let line = config.block_of(a);
                let found = lines.binary_search_by_key(&key(line), |&m| key(m));
                found.expect("interned") // fnpr-lint: allow(panic_budget, "every accessed line was interned above")
            }));
            for &k in &index {
                set_bit(s.touched.row_mut(b), k);
                let (lo, hi) = range[k];
                // A set is touched once its first bit is in `sets`.
                if !has_bit(s.sets.row(b), lo) {
                    set_bit(s.first.row_mut(b), k);
                    let sets = s.sets.row_mut(b);
                    (lo..hi).for_each(|j| set_bit(sets, j));
                }
            }
            seen.fill(0);
            for &k in index.iter().rev() {
                let lo = range[k].0;
                if !has_bit(&seen, lo) {
                    set_bit(&mut seen, lo);
                    set_bit(s.last.row_mut(b), k);
                }
            }
        }
        s
    }
}

/// Gauss–Seidel sweeps over `order` until one pass changes nothing: each
/// block's `meet` row is the union of its `edges` neighbours' `out` rows,
/// and its `out` row is `(meet & !kill) | gen`. Returns `(meet, out)`.
fn solve<'a>(
    order: &[BlockId],
    edges: impl Fn(BlockId) -> &'a [BlockId],
    gen: &Rows,
    kill: Option<&Rows>,
    limit: usize,
) -> Result<(Rows, Rows), CacheError> {
    let zeroed = || Rows {
        words: gen.words,
        bits: vec![0; gen.bits.len()],
    };
    let (mut meet, mut out) = (zeroed(), zeroed());
    let mut m = vec![0; gen.words];
    let mut o = vec![0; gen.words];
    for _pass in 0..limit {
        let mut changed = false;
        for &b in order {
            let bi = b.index();
            m.fill(0);
            for &p in edges(b) {
                for (x, y) in m.iter_mut().zip(out.row(p.index())) {
                    *x |= y;
                }
            }
            for (w, (x, g)) in o.iter_mut().zip(gen.row(bi)).enumerate() {
                let kept = kill.map_or(m[w], |kill| m[w] & !kill.row(bi)[w]);
                *x = kept | g;
            }
            if m != meet.row(bi) || o != out.row(bi) {
                changed = true;
                meet.row_mut(bi).copy_from_slice(&m);
                out.row_mut(bi).copy_from_slice(&o);
            }
        }
        if !changed {
            return Ok((meet, out));
        }
    }
    Err(CacheError::FixpointLimit { limit })
}

/// Calls `f(set, useful lines in that set)` for every cache set with a bit
/// in `row`, in ascending set order (`lines` is sorted by set, so each
/// set's bits are contiguous).
fn for_each_set(row: &[u64], lines: &[u64], config: &CacheConfig, mut f: impl FnMut(usize, usize)) {
    let mut run: Option<(usize, usize)> = None;
    for k in ones(row) {
        let set = config.set_of_block(lines[k]);
        match &mut run {
            Some((s, count)) if *s == set => *count += 1,
            _ => {
                if let Some((s, count)) = run {
                    f(s, count);
                }
                run = Some((set, 1));
            }
        }
    }
    if let Some((s, count)) = run {
        f(s, count);
    }
}

/// Σ over the sets `damaged` selects of the lines of `row` in that set,
/// capped at the associativity.
fn capped_total(
    row: &[u64],
    lines: &[u64],
    config: &CacheConfig,
    damaged: impl Fn(usize) -> bool,
) -> usize {
    let ways = config.associativity();
    let mut total = 0;
    for_each_set(row, lines, config, |set, count| {
        if damaged(set) {
            total += count.min(ways);
        }
    });
    total
}

/// Result of the useful-cache-block dataflow over one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UcbAnalysis {
    /// The task's distinct memory lines, sorted by `(set, line)`: bit `k`
    /// of a row stands for `lines[k]`.
    lines: Vec<u64>,
    /// Per basic block, the useful lines.
    useful: Rows,
    /// Per basic block, the capped useful count ([`UcbAnalysis::ucb_count`]).
    counts: Vec<usize>,
    config: CacheConfig,
}

impl UcbAnalysis {
    /// Runs the reaching/live dataflow and intersects the results.
    ///
    /// Works on cyclic graphs directly (the fixpoint handles loops); no loop
    /// reduction is required before CRPD analysis.
    ///
    /// # Errors
    ///
    /// * [`CacheError::UnknownBlock`] if `accesses` references a block
    ///   outside `cfg`;
    /// * [`CacheError::FixpointLimit`] if the dataflow fails to stabilise
    ///   (cannot happen for well-formed graphs; the limit is a backstop).
    pub fn analyze(
        cfg: &Cfg,
        accesses: &AccessMap,
        config: &CacheConfig,
    ) -> Result<Self, CacheError> {
        Self::analyze_with_limit(cfg, accesses, config, 4 * cfg.len() + 8)
    }

    /// [`UcbAnalysis::analyze`] with an explicit pass limit per dataflow.
    fn analyze_with_limit(
        graph: &impl FlowGraph,
        accesses: &AccessMap,
        config: &CacheConfig,
        limit: usize,
    ) -> Result<Self, CacheError> {
        let n = graph.blocks();
        accesses.validate_blocks(n)?;
        let mut lines: Vec<u64> = accesses
            .iter()
            .flat_map(|(_, addrs)| addrs.iter().map(|&a| config.block_of(a)))
            .collect();
        lines.sort_unstable_by_key(|&line| (config.set_of_block(line), line));
        lines.dedup();
        let s = Summaries::build(n, accesses, config, &lines);

        let forward = graph.reverse_post_order();
        let backward: Vec<BlockId> = forward.iter().rev().copied().collect();
        let (forward_gen, backward_gen, kill) = if config.is_direct_mapped() {
            (&s.last, &s.first, Some(&s.sets))
        } else {
            (&s.touched, &s.touched, None)
        };
        let (reach_in, _) = solve(
            &forward,
            |b| graph.predecessors(b),
            forward_gen,
            kill,
            limit,
        )?;
        let (live_out, _) = solve(
            &backward,
            |b| graph.successors(b),
            backward_gen,
            kill,
            limit,
        )?;

        // Useful at any point of b: (reach_in ∪ touched) ∩ (live_out ∪ touched).
        let mut useful = s.touched;
        for b in 0..n {
            let (cached, needed) = (reach_in.row(b), live_out.row(b));
            for (w, x) in useful.row_mut(b).iter_mut().enumerate() {
                *x = (cached[w] | *x) & (needed[w] | *x);
            }
        }
        let counts = (0..n)
            .map(|b| capped_total(useful.row(b), &lines, config, |_| true))
            .collect();
        Ok(Self {
            lines,
            useful,
            counts,
            config: *config,
        })
    }

    /// The useful row of block `b`.
    fn row(&self, b: BlockId) -> &[u64] {
        assert!(
            b.index() < self.counts.len(),
            "block {} is outside the analysed graph",
            b.index()
        );
        self.useful.row(b.index())
    }

    /// Σ over the sets `damaged` selects of the useful count of block `b`
    /// in that set, capped at the associativity.
    pub(crate) fn capped_damage(&self, b: BlockId, damaged: impl Fn(usize) -> bool) -> usize {
        capped_total(self.row(b), &self.lines, &self.config, damaged)
    }

    /// The useful memory blocks of basic block `b`, per cache set (an owned
    /// view built from the block's useful row).
    ///
    /// # Panics
    ///
    /// Panics if `b` does not belong to the analysed graph.
    #[must_use]
    pub fn useful_blocks(&self, b: BlockId) -> Vec<BTreeSet<u64>> {
        let mut per_set = vec![BTreeSet::new(); self.config.sets()];
        for k in ones(self.row(b)) {
            let line = self.lines[k];
            per_set[self.config.set_of_block(line)].insert(line);
        }
        per_set
    }

    /// Per-set useful counts capped at the associativity (at most `A` lines
    /// of one set can be resident simultaneously).
    #[must_use]
    pub fn capped_counts(&self, b: BlockId) -> Vec<usize> {
        let ways = self.config.associativity();
        let mut counts = vec![0; self.config.sets()];
        for_each_set(self.row(b), &self.lines, &self.config, |set, count| {
            counts[set] = count.min(ways);
        });
        counts
    }

    /// Total useful-block count of a block (sum of capped per-set counts) —
    /// the `|UCB|` figure of the literature.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not belong to the analysed graph.
    #[must_use]
    pub fn ucb_count(&self, b: BlockId) -> usize {
        self.counts[b.index()]
    }

    /// Every block's [`UcbAnalysis::ucb_count`], indexed by block id.
    pub(crate) fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The cache configuration the analysis ran under.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn iv() -> ExecInterval {
        ExecInterval::new(1.0, 1.0).unwrap()
    }

    fn chain(n: usize) -> (Cfg, Vec<BlockId>) {
        let mut b = CfgBuilder::new();
        let ids: Vec<BlockId> = (0..n).map(|_| b.block(iv())).collect();
        for pair in ids.windows(2) {
            b.edge(pair[0], pair[1]).unwrap();
        }
        (b.build().unwrap(), ids)
    }

    /// 4-set direct-mapped, 16-byte lines: address 16*k is line k, set k%4.
    fn config() -> CacheConfig {
        CacheConfig::new(4, 1, 16, 10.0).unwrap()
    }

    #[test]
    fn loaded_then_reused_block_is_useful_in_between() {
        // b0 loads line 0; b1 does unrelated work (line 1); b2 reuses line 0.
        let (cfg, ids) = chain(3);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0]);
        acc.set(ids[1], vec![16]);
        acc.set(ids[2], vec![0]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // During b1, line 0 is cached (reaching) and will be reused (live).
        assert!(ucb.useful_blocks(ids[1])[0].contains(&0));
        assert_eq!(ucb.ucb_count(ids[1]), 2); // line 0 useful + line 1 in-block
                                              // During b2 the reuse happens within the block itself.
        assert!(ucb.useful_blocks(ids[2])[0].contains(&0));
    }

    #[test]
    fn dead_block_is_not_useful() {
        // b0 loads line 0, never used again.
        let (cfg, ids) = chain(2);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0]);
        acc.set(ids[1], vec![16]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        assert!(!ucb.useful_blocks(ids[1])[0].contains(&0));
        assert_eq!(ucb.ucb_count(ids[1]), 1); // only its own line 1
    }

    #[test]
    fn conflicting_access_kills_usefulness_direct_mapped() {
        // Lines 0 and 4 share set 0 (4 sets). b0 loads line 0; b1 loads
        // line 4 (evicts 0); b2 reuses line 0. During b1, line 0 is not
        // useful at exit (evicted), but the reaching-in ∪ touched covers it;
        // the intersection with live-out ∪ touched keeps line 4 only...
        let (cfg, ids) = chain(3);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0]);
        acc.set(ids[1], vec![64]); // line 4, set 0
        acc.set(ids[2], vec![0]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // In b2, line 0 is accessed in-block: useful there.
        assert!(ucb.useful_blocks(ids[2])[0].contains(&0));
        // In b1: reaching-in {0}, touched {4}: cached = {0,4};
        // live-out: b2's first access to set 0 is line 0 -> live {0};
        // needed = {0,4}; useful = {0,4} ∩ ... = both. Capped at A=1.
        assert_eq!(ucb.capped_counts(ids[1])[0], 1);
        // In b0: live-out of b0 = live-in of b1 = first access {4}? No:
        // direct-mapped live-in of b1 = {4} (its first access). So line 0 is
        // not live after b0 (it will be evicted before reuse): not useful.
        assert!(!ucb
            .useful_blocks(ids[0])
            .iter()
            .any(|s| s.contains(&0) && s.len() > 1));
        assert_eq!(ucb.capped_counts(ids[0])[0], 1); // its own access only
    }

    #[test]
    fn loop_reuse_is_useful_across_back_edge() {
        // entry -> header -> body -> header; header -> exit.
        // The body accesses line 2 every iteration: useful at the header.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv());
        let header = b.block(iv());
        let body = b.block(iv());
        let exit = b.block(iv());
        b.edge(entry, header).unwrap();
        b.edge(header, body).unwrap();
        b.edge(body, header).unwrap();
        b.edge(header, exit).unwrap();
        let cfg = b.build().unwrap();
        let mut acc = AccessMap::new();
        acc.set(body, vec![32]); // line 2, set 2
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // At the header, line 2 may be cached (previous iteration) and will
        // be referenced again (next iteration): useful.
        assert!(ucb.useful_blocks(header)[2].contains(&2));
        // At the exit it is dead.
        assert_eq!(ucb.ucb_count(exit), 0);
    }

    #[test]
    fn set_associative_caps_per_set() {
        // 1 set, 2-way: three blocks all in the same set, all reused.
        let cache = CacheConfig::new(1, 2, 16, 10.0).unwrap();
        let (cfg, ids) = chain(2);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0, 16, 32]);
        acc.set(ids[1], vec![0, 16, 32]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &cache).unwrap();
        // Three useful blocks but only 2 ways: capped at 2.
        assert_eq!(ucb.useful_blocks(ids[0])[0].len(), 3);
        assert_eq!(ucb.ucb_count(ids[0]), 2);
    }

    #[test]
    fn associativity_rescues_conflicting_working_set() {
        // Lines 0 and 4 conflict in a 4-set direct-mapped cache; both are
        // reused after block b1. Direct-mapped: the set thrashes — the
        // resident line 4 is evicted by b2's first access (line 0) before
        // its own reuse, so *nothing* is useful during b1. 2-way: both stay
        // cached and useful.
        let (cfg, ids) = chain(3);
        let mut acc = AccessMap::new();
        acc.set(ids[0], vec![0, 64]); // lines 0 and 4, both set 0
        acc.set(ids[1], vec![16]); // unrelated
        acc.set(ids[2], vec![0, 64]); // reuse both
        let dm = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let ucb_dm = UcbAnalysis::analyze(&cfg, &acc, &dm).unwrap();
        assert_eq!(ucb_dm.capped_counts(ids[1])[0], 0);
        let a2 = CacheConfig::new(4, 2, 16, 10.0).unwrap();
        let ucb_a2 = UcbAnalysis::analyze(&cfg, &acc, &a2).unwrap();
        assert_eq!(ucb_a2.capped_counts(ids[1])[0], 2);
        assert!(ucb_a2.ucb_count(ids[1]) > ucb_dm.ucb_count(ids[1]));
    }

    #[test]
    fn lee_style_config_runs_realistic_layout() {
        // A 40-block straight-line task with a 25% shared buffer, under the
        // literature-standard 256-set direct-mapped i-cache.
        let (cfg, ids) = chain(40);
        let config = CacheConfig::lee_style();
        let layout: Vec<(BlockId, u64, u64)> = ids
            .iter()
            .map(|b| (*b, b.index() as u64 * 64, 64))
            .collect();
        let mut acc = AccessMap::from_code_layout(&layout, &config);
        for &b in ids.iter().step_by(4) {
            acc.push(b, 0x10000);
            acc.push(b, 0x10010);
        }
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config).unwrap();
        // The shared buffer is useful between its uses.
        let between = ids[1]; // between step-4 users 0 and 4
        let buffer_line = 0x10000 / 16;
        let set = config.set_of_block(buffer_line);
        assert!(ucb.useful_blocks(between)[set].contains(&buffer_line));
        // Straight-line code is never reused: only the buffer and the
        // block's own lines count.
        assert!(ucb.ucb_count(between) <= 4 + 2);
    }

    #[test]
    fn validates_access_map() {
        let (cfg, _) = chain(2);
        let mut acc = AccessMap::new();
        acc.set(BlockId(9), vec![0]);
        assert!(matches!(
            UcbAnalysis::analyze(&cfg, &acc, &config()),
            Err(CacheError::UnknownBlock { index: 9 })
        ));
    }

    #[test]
    fn empty_access_map_has_no_useful_blocks() {
        let (cfg, ids) = chain(3);
        let ucb = UcbAnalysis::analyze(&cfg, &AccessMap::new(), &config()).unwrap();
        for &b in &ids {
            assert_eq!(ucb.ucb_count(b), 0);
        }
    }

    #[test]
    fn diamond_merges_paths() {
        // entry loads line 0; branches b1 (reuses line 0) / b2 (loads
        // conflicting line 4); join reuses line 0.
        let mut b = CfgBuilder::new();
        let entry = b.block(iv());
        let left = b.block(iv());
        let right = b.block(iv());
        let join = b.block(iv());
        b.edge(entry, left).unwrap();
        b.edge(entry, right).unwrap();
        b.edge(left, join).unwrap();
        b.edge(right, join).unwrap();
        let cfg = b.build().unwrap();
        let mut acc = AccessMap::new();
        acc.set(entry, vec![0]);
        acc.set(left, vec![0]);
        acc.set(right, vec![64]); // line 4, conflicts with line 0
        acc.set(join, vec![0]);
        let ucb = UcbAnalysis::analyze(&cfg, &acc, &config()).unwrap();
        // On the left path line 0 stays cached and is reused at the join:
        // useful during left. May-analysis keeps it useful during right too
        // (it may be cached -- no: right's last access replaces set 0 ...)
        assert!(ucb.useful_blocks(left)[0].contains(&0));
        // At the join, line 0 may be cached (left path) and is accessed.
        assert!(ucb.useful_blocks(join)[0].contains(&0));
    }
}

/// The per-set ordered-set formulation of the dataflow, kept as the oracle
/// the bit-row analysis must match bit for bit: same fixpoints, same pass
/// counts, same errors.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeSet;

    use fnpr_cfg::BlockId;

    use super::FlowGraph;
    use crate::access::AccessMap;
    use crate::config::CacheConfig;
    use crate::error::CacheError;

    /// Per-set contents abstraction: for each cache set, the memory blocks
    /// that may occupy it.
    type SetContents = Vec<BTreeSet<u64>>;

    /// Per basic block, per cache set: the useful memory blocks.
    pub(super) fn analyze(
        cfg: &impl FlowGraph,
        accesses: &AccessMap,
        config: &CacheConfig,
        limit: usize,
    ) -> Result<Vec<SetContents>, CacheError> {
        accesses.validate_blocks(cfg.blocks())?;
        let n = cfg.blocks();
        let sets = config.sets();
        let empty = || vec![BTreeSet::new(); sets];

        let mut touched: Vec<SetContents> = vec![empty(); n];
        let mut first: Vec<Vec<Option<u64>>> = vec![vec![None; sets]; n];
        let mut last: Vec<Vec<Option<u64>>> = vec![vec![None; sets]; n];
        for b in 0..n {
            for &addr in accesses.of(BlockId(b)) {
                let block = config.block_of(addr);
                let set = config.set_of_block(block);
                touched[b][set].insert(block);
                if first[b][set].is_none() {
                    first[b][set] = Some(block);
                }
                last[b][set] = Some(block);
            }
        }

        let mut reach_in: Vec<SetContents> = vec![empty(); n];
        let mut reach_out: Vec<SetContents> = vec![empty(); n];
        let order = cfg.reverse_post_order();
        let mut stable = false;
        for _pass in 0..limit {
            let mut changed = false;
            for &b in &order {
                let bi = b.index();
                let mut incoming = empty();
                for &p in cfg.predecessors(b) {
                    for s in 0..sets {
                        incoming[s].extend(reach_out[p.index()][s].iter().copied());
                    }
                }
                let mut outgoing = empty();
                for s in 0..sets {
                    if config.is_direct_mapped() {
                        match last[bi][s] {
                            Some(m) => {
                                outgoing[s].insert(m);
                            }
                            None => outgoing[s] = incoming[s].clone(),
                        }
                    } else {
                        outgoing[s] = incoming[s].clone();
                        outgoing[s].extend(touched[bi][s].iter().copied());
                    }
                }
                if incoming != reach_in[bi] || outgoing != reach_out[bi] {
                    changed = true;
                    reach_in[bi] = incoming;
                    reach_out[bi] = outgoing;
                }
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            return Err(CacheError::FixpointLimit { limit });
        }

        let mut live_in: Vec<SetContents> = vec![empty(); n];
        let mut live_out: Vec<SetContents> = vec![empty(); n];
        stable = false;
        for _pass in 0..limit {
            let mut changed = false;
            for &b in order.iter().rev() {
                let bi = b.index();
                let mut outgoing = empty();
                for &succ in cfg.successors(b) {
                    for s in 0..sets {
                        outgoing[s].extend(live_in[succ.index()][s].iter().copied());
                    }
                }
                let mut incoming = empty();
                for s in 0..sets {
                    if config.is_direct_mapped() {
                        match first[bi][s] {
                            Some(m) => {
                                incoming[s].insert(m);
                            }
                            None => incoming[s] = outgoing[s].clone(),
                        }
                    } else {
                        incoming[s] = outgoing[s].clone();
                        incoming[s].extend(touched[bi][s].iter().copied());
                    }
                }
                if outgoing != live_out[bi] || incoming != live_in[bi] {
                    changed = true;
                    live_out[bi] = outgoing;
                    live_in[bi] = incoming;
                }
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            return Err(CacheError::FixpointLimit { limit });
        }

        let mut useful: Vec<SetContents> = Vec::with_capacity(n);
        for b in 0..n {
            let mut per_set = empty();
            for s in 0..sets {
                let mut cached: BTreeSet<u64> = reach_in[b][s].clone();
                cached.extend(touched[b][s].iter().copied());
                let mut needed: BTreeSet<u64> = live_out[b][s].clone();
                needed.extend(touched[b][s].iter().copied());
                per_set[s] = cached.intersection(&needed).copied().collect();
            }
            useful.push(per_set);
        }
        Ok(useful)
    }
}

/// The bit-row analysis against the ordered-set oracle on random cyclic
/// graphs (back edges, self-loops, unreachable blocks, several exits),
/// direct-mapped and 2- to 4-way caches, colliding lines, more than 64
/// distinct lines, no lines at all, stray blocks and small pass limits.
#[cfg(test)]
mod oracle_properties {
    use std::collections::BTreeSet;

    use fnpr_cfg::{BlockId, Cfg, CfgBuilder, ExecInterval};
    use proptest::prelude::*;

    use super::{oracle, FlowGraph, UcbAnalysis};
    use crate::access::AccessMap;
    use crate::config::CacheConfig;
    use crate::crpd::CrpdAnalysis;
    use crate::ecb::EcbSet;

    #[derive(Debug, Clone)]
    struct Case {
        /// Blocks reachable from the entry (a spanning tree links them).
        reachable: usize,
        /// Extra blocks no path from the entry reaches.
        unreachable: usize,
        /// Spanning-tree parent picks, reduced modulo the block index.
        parents: Vec<usize>,
        /// Extra edges (back edges, self-loops, cross edges), reduced
        /// modulo the block count; edges into the entry or from a
        /// reachable into an unreachable block are skipped.
        extra: Vec<(usize, usize)>,
        /// Per-block line ids, cycled over the blocks.
        lines: Vec<Vec<u64>>,
        sets: usize,
        ways: usize,
        /// `None` runs at the real `4n + 8` limit.
        limit: Option<usize>,
        /// An access registered for a block outside the graph.
        stray: bool,
        /// Damaged-set mask for the `crpd_against` comparison.
        ecb_mask: u64,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        // The arms of `prop_oneof!` are equally likely: two colliding, two
        // wide, one empty.
        let colliding = || prop::collection::vec(prop::collection::vec(0u64..24, 0..7), 15);
        let wide = || prop::collection::vec(prop::collection::vec(0u64..600, 0..24), 15);
        let line_lists = prop_oneof![colliding(), colliding(), wide(), wide(), Just(Vec::new())];
        let limit = prop_oneof![Just(None), Just(None), (1usize..6).prop_map(Some)];
        (
            (1usize..12, 0usize..4, 1usize..9, 1usize..5),
            prop::collection::vec(0usize..1000, 16),
            prop::collection::vec((0usize..1000, 0usize..1000), 0..18),
            line_lists,
            limit,
            (0u32..20, 0u64..u64::MAX),
        )
            .prop_map(
                |(
                    (reachable, unreachable, sets, ways),
                    parents,
                    extra,
                    lines,
                    limit,
                    (stray, ecb_mask),
                )| {
                    Case {
                        reachable,
                        unreachable,
                        parents,
                        extra,
                        // An empty list stands for a task with no accesses.
                        lines: if lines.is_empty() {
                            vec![Vec::new()]
                        } else {
                            lines
                        },
                        sets,
                        ways,
                        limit,
                        stray: stray == 0,
                        ecb_mask,
                    }
                },
            )
    }

    /// Raw adjacency lists: unlike [`CfgBuilder`], nothing here insists
    /// that every block is reachable from the entry.
    struct Adjacency {
        succs: Vec<Vec<BlockId>>,
        preds: Vec<Vec<BlockId>>,
    }

    impl FlowGraph for Adjacency {
        fn blocks(&self) -> usize {
            self.succs.len()
        }

        /// The same iterative depth-first walk as `Cfg::reverse_post_order`.
        fn reverse_post_order(&self) -> Vec<BlockId> {
            let mut visited = vec![false; self.succs.len()];
            let mut post = Vec::new();
            let mut stack = vec![(0, 0)];
            visited[0] = true;
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                if let Some(&succ) = self.succs[b].get(*next) {
                    *next += 1;
                    if !visited[succ.index()] {
                        visited[succ.index()] = true;
                        stack.push((succ.index(), 0));
                    }
                } else {
                    post.push(BlockId(b));
                    stack.pop();
                }
            }
            post.reverse();
            post
        }

        fn predecessors(&self, b: BlockId) -> &[BlockId] {
            &self.preds[b.index()]
        }

        fn successors(&self, b: BlockId) -> &[BlockId] {
            &self.succs[b.index()]
        }
    }

    /// Builds the case's graph, accesses and cache. The graph is a `Cfg`
    /// when every block is reachable (checked against the adjacency lists'
    /// own order), and adjacency lists only otherwise.
    fn build(case: &Case) -> (Adjacency, Option<Cfg>, AccessMap, CacheConfig) {
        let n = case.reachable + case.unreachable;
        let mut graph = Adjacency {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };
        let mut edges = Vec::new();
        for i in 1..case.reachable {
            edges.push((case.parents[i] % i, i));
        }
        for &(from, to) in &case.extra {
            let (from, to) = (from % n, to % n);
            // No edge into the entry, none from a reachable block into an
            // unreachable one.
            if to != 0 && !(from < case.reachable && to >= case.reachable) {
                edges.push((from, to));
            }
        }
        let mut builder = CfgBuilder::new();
        let iv = ExecInterval::new(1.0, 1.0).unwrap();
        for _ in 0..n {
            builder.block(iv);
        }
        for (from, to) in edges {
            if !graph.succs[from].contains(&BlockId(to)) {
                graph.succs[from].push(BlockId(to));
                graph.preds[to].push(BlockId(from));
                builder.edge(BlockId(from), BlockId(to)).unwrap();
            }
        }
        assert_eq!(graph.reverse_post_order().len(), case.reachable);
        let cfg = (case.unreachable == 0).then(|| builder.build().unwrap());
        if let Some(cfg) = &cfg {
            assert_eq!(cfg.reverse_post_order(), graph.reverse_post_order());
        }

        let mut acc = AccessMap::new();
        for block in 0..n {
            let lines = &case.lines[block % case.lines.len()];
            acc.set(BlockId(block), lines.iter().map(|l| l * 16).collect());
        }
        if case.stray {
            acc.set(BlockId(n + 2), vec![0]);
        }
        let config = CacheConfig::new(case.sets, case.ways, 16, 10.0).unwrap();
        (graph, cfg, acc, config)
    }

    /// The ordered-set formulation of `crpd_against`.
    fn oracle_damage(useful: &[BTreeSet<u64>], ecb: &EcbSet, ways: usize) -> usize {
        useful
            .iter()
            .enumerate()
            .filter(|&(s, _)| ecb.contains(s))
            .map(|(_, lines)| lines.len().min(ways))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn bit_rows_match_the_ordered_set_oracle(case in arb_case()) {
            let (graph, cfg, acc, config) = build(&case);
            let limit = case.limit.unwrap_or(4 * graph.blocks() + 8);
            let new = UcbAnalysis::analyze_with_limit(&graph, &acc, &config, limit);
            let old = oracle::analyze(&graph, &acc, &config, limit);
            let (ucb, useful) = match (new, old) {
                (Ok(ucb), Ok(useful)) => (ucb, useful),
                (Err(new), Err(old)) => {
                    prop_assert_eq!(new, old);
                    return;
                }
                (new, old) => panic!(
                    "outcomes differ: new {:?} vs oracle {:?}",
                    new.map(|_| ()),
                    old.map(|_| ())
                ),
            };
            let ecb = EcbSet::from_sets(
                (0..config.sets() + 2).filter(|s| case.ecb_mask >> (s % 64) & 1 == 1),
            );
            // The public entry point on a built graph, at the real limit.
            let crpd = cfg.filter(|_| case.limit.is_none()).map(|cfg| {
                let crpd = CrpdAnalysis::analyze(&cfg, &acc, &config).unwrap();
                assert_eq!(crpd.ucb(), &ucb);
                crpd
            });
            for (b, per_set) in useful.iter().enumerate() {
                let block = BlockId(b);
                prop_assert_eq!(&ucb.useful_blocks(block), per_set);
                let capped: Vec<usize> =
                    per_set.iter().map(|s| s.len().min(case.ways)).collect();
                prop_assert_eq!(ucb.ucb_count(block), capped.iter().sum::<usize>());
                prop_assert_eq!(ucb.capped_counts(block), capped);
                let damage = oracle_damage(per_set, &ecb, case.ways);
                prop_assert_eq!(ucb.capped_damage(block, |s| ecb.contains(s)), damage);
                if let Some(crpd) = &crpd {
                    prop_assert_eq!(crpd.crpd_against(block, &ecb), damage as f64 * 10.0);
                    prop_assert_eq!(crpd.crpd(block), ucb.ucb_count(block) as f64 * 10.0);
                    prop_assert_eq!(crpd.per_block()[b], crpd.crpd(block));
                }
            }
        }
    }

    #[test]
    fn unreachable_blocks_and_wide_rows_match_the_oracle() {
        // Two unreachable blocks (one feeding a reachable block), a
        // self-loop, a back edge and 70 distinct lines (two-word rows).
        let case = Case {
            reachable: 3,
            unreachable: 2,
            parents: vec![0; 16],
            extra: vec![(2, 1), (1, 1), (3, 4), (4, 1)],
            lines: vec![(0..70).collect(), Vec::new()],
            sets: 4,
            ways: 1,
            limit: None,
            stray: false,
            ecb_mask: u64::MAX,
        };
        let (graph, cfg, acc, config) = build(&case);
        assert!(cfg.is_none());
        assert_eq!(graph.reverse_post_order().len(), 3);
        assert!(acc.touched_blocks(&config).len() > 64);
        let ucb = UcbAnalysis::analyze_with_limit(&graph, &acc, &config, 4 * 5 + 8).unwrap();
        let useful = oracle::analyze(&graph, &acc, &config, 4 * 5 + 8).unwrap();
        for (b, per_set) in useful.iter().enumerate() {
            assert_eq!(&ucb.useful_blocks(BlockId(b)), per_set);
        }
        // The unreachable blocks keep only their own accesses.
        assert_eq!(ucb.ucb_count(BlockId(3)), 0);
        assert_eq!(ucb.ucb_count(BlockId(4)), 4);
    }
}
