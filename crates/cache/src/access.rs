//! Per-basic-block memory access sequences.

use std::collections::BTreeMap;

use fnpr_cfg::{BlockId, Cfg};
use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;
use crate::error::CacheError;

/// Ordered memory accesses (byte addresses) of every basic block of one
/// task.
///
/// This is the cache-model view of the task: `fnpr-cfg` deliberately does
/// not store accesses, so the same graph can be analysed under different
/// memory layouts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessMap {
    accesses: BTreeMap<BlockId, Vec<u64>>,
}

impl AccessMap {
    /// Creates an empty map (blocks without entries access nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the ordered access list of a block, replacing any previous list.
    pub fn set(&mut self, block: BlockId, addresses: Vec<u64>) -> &mut Self {
        self.accesses.insert(block, addresses);
        self
    }

    /// Appends one access to a block's list.
    pub fn push(&mut self, block: BlockId, address: u64) -> &mut Self {
        self.accesses.entry(block).or_default().push(address);
        self
    }

    /// The ordered accesses of a block (empty if none registered).
    #[must_use]
    pub fn of(&self, block: BlockId) -> &[u64] {
        self.accesses.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over `(block, accesses)` pairs in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &[u64])> {
        self.accesses.iter().map(|(&b, v)| (b, v.as_slice()))
    }

    /// Checks that every referenced block exists in `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownBlock`] for the first out-of-range block.
    pub fn validate(&self, cfg: &Cfg) -> Result<(), CacheError> {
        self.validate_blocks(cfg.len())
    }

    /// [`AccessMap::validate`] against a graph of `blocks` blocks.
    pub(crate) fn validate_blocks(&self, blocks: usize) -> Result<(), CacheError> {
        for &block in self.accesses.keys() {
            if block.index() >= blocks {
                return Err(CacheError::UnknownBlock {
                    index: block.index(),
                });
            }
        }
        Ok(())
    }

    /// Derives an access map for straight-line *instruction fetches*: block
    /// `b` occupies `sizes[b]` bytes starting at `base[b]`, and fetches one
    /// access per line it spans. A convenient generator for
    /// instruction-cache studies (the paper's \[3\] models i-caches).
    #[must_use]
    pub fn from_code_layout(layout: &[(BlockId, u64, u64)], config: &CacheConfig) -> Self {
        let mut map = Self::new();
        for &(block, base, size) in layout {
            let mut addresses = Vec::new();
            let mut at = base;
            let end = base + size.max(1);
            while at < end {
                addresses.push(at);
                at += config.line_bytes();
            }
            map.set(block, addresses);
        }
        map
    }

    /// Appends a strided array walk to a block: `count` element accesses of
    /// `elem_bytes` each, starting at `base`, `stride` elements apart — the
    /// standard data-cache workload (sequential scan with `stride = 1`,
    /// column walks with larger strides).
    ///
    /// ```
    /// use fnpr_cache::AccessMap;
    /// use fnpr_cfg::BlockId;
    /// let mut map = AccessMap::new();
    /// map.push_array_walk(BlockId(0), 0x1000, 4, 8, 2);
    /// assert_eq!(map.of(BlockId(0)), &[0x1000, 0x1010, 0x1020, 0x1030]);
    /// ```
    pub fn push_array_walk(
        &mut self,
        block: BlockId,
        base: u64,
        count: u64,
        elem_bytes: u64,
        stride: u64,
    ) -> &mut Self {
        for k in 0..count {
            self.push(block, base + k * stride * elem_bytes);
        }
        self
    }

    /// All distinct memory blocks (line-granule) touched by the whole task.
    #[must_use]
    pub fn touched_blocks(&self, config: &CacheConfig) -> Vec<u64> {
        let mut blocks: Vec<u64> = self
            .accesses
            .values()
            .flatten()
            .map(|&a| config.block_of(a))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnpr_cfg::{CfgBuilder, ExecInterval};

    fn two_block_cfg() -> Cfg {
        let mut b = CfgBuilder::new();
        let x = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        let y = b.block(ExecInterval::new(1.0, 1.0).unwrap());
        b.edge(x, y).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn set_push_and_query() {
        let mut map = AccessMap::new();
        map.set(BlockId(0), vec![0, 16]).push(BlockId(0), 32);
        assert_eq!(map.of(BlockId(0)), &[0, 16, 32]);
        assert!(map.of(BlockId(1)).is_empty());
        assert_eq!(map.iter().count(), 1);
    }

    #[test]
    fn validation_against_cfg() {
        let cfg = two_block_cfg();
        let mut map = AccessMap::new();
        map.set(BlockId(1), vec![0]);
        assert!(map.validate(&cfg).is_ok());
        map.set(BlockId(5), vec![0]);
        assert!(matches!(
            map.validate(&cfg),
            Err(CacheError::UnknownBlock { index: 5 })
        ));
    }

    #[test]
    fn code_layout_generates_line_fetches() {
        let config = CacheConfig::new(16, 1, 16, 10.0).unwrap();
        let map = AccessMap::from_code_layout(&[(BlockId(0), 0, 40), (BlockId(1), 40, 8)], &config);
        // 40 bytes from 0: lines at 0, 16, 32.
        assert_eq!(map.of(BlockId(0)), &[0, 16, 32]);
        // 8 bytes from 40: single access at 40.
        assert_eq!(map.of(BlockId(1)), &[40]);
    }

    #[test]
    fn array_walks_generate_strided_accesses() {
        let mut map = AccessMap::new();
        // Sequential scan: 4 x 4-byte elements from 0x100.
        map.push_array_walk(BlockId(0), 0x100, 4, 4, 1);
        assert_eq!(map.of(BlockId(0)), &[0x100, 0x104, 0x108, 0x10c]);
        // Column walk with stride 16 (e.g. row-major matrix column).
        let mut map2 = AccessMap::new();
        map2.push_array_walk(BlockId(0), 0, 3, 8, 16);
        assert_eq!(map2.of(BlockId(0)), &[0, 128, 256]);
        // A stride-16 walk with 16-byte lines touches a new line each time.
        let config = CacheConfig::new(8, 1, 16, 10.0).unwrap();
        assert_eq!(map2.touched_blocks(&config).len(), 3);
    }

    #[test]
    fn touched_blocks_dedup() {
        let config = CacheConfig::new(4, 1, 16, 10.0).unwrap();
        let mut map = AccessMap::new();
        map.set(BlockId(0), vec![0, 4, 8, 16]); // lines 0, 0, 0, 1
        map.set(BlockId(1), vec![16, 64]); // lines 1, 4
        assert_eq!(map.touched_blocks(&config), vec![0, 1, 4]);
    }
}
