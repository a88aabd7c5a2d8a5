//! Set-associative cache hierarchy with `clflush` support.
//!
//! Each core owns a private hierarchy (Table 1 of the paper gives every
//! core a private 4 MB last-level cache slice): an L1, an optional L2
//! (§10.3 adds a 256 KB L2), and an LLC. Caches are write-back,
//! write-allocate, LRU. A `clflush` invalidates the line in every level
//! and emits a writeback if it was dirty — exactly what the attack loops
//! rely on to force every access to DRAM.

use lh_dram::{Span, LINE_BYTES};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Hit latency of this level.
    pub hit_latency: Span,
}

impl CacheLevelConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.capacity / (LINE_BYTES * self.ways as u64)).max(1) as usize
    }
}

/// Hierarchy configuration for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// L1 data cache.
    pub l1: CacheLevelConfig,
    /// Optional private L2 (§10.3 sensitivity study).
    pub l2: Option<CacheLevelConfig>,
    /// Last-level cache (private per core, per Table 1).
    pub llc: CacheLevelConfig,
}

impl CacheConfig {
    /// Table 1 configuration: 32 KB 8-way L1 (1 ns), no L2, 4 MB 16-way
    /// LLC (12 ns).
    pub fn paper_default() -> CacheConfig {
        CacheConfig {
            l1: CacheLevelConfig {
                capacity: 32 * 1024,
                ways: 8,
                hit_latency: Span::from_ns(1),
            },
            l2: None,
            llc: CacheLevelConfig {
                capacity: 4 * 1024 * 1024,
                ways: 16,
                hit_latency: Span::from_ns(12),
            },
        }
    }

    /// §10.3 configuration: adds a 256 KB 8-way L2 (4 ns) and grows the
    /// LLC to 6 MB per core.
    pub fn large_hierarchy() -> CacheConfig {
        CacheConfig {
            l2: Some(CacheLevelConfig {
                capacity: 256 * 1024,
                ways: 8,
                hit_latency: Span::from_ns(4),
            }),
            llc: CacheLevelConfig {
                capacity: 6 * 1024 * 1024,
                ways: 16,
                hit_latency: Span::from_ns(12),
            },
            ..CacheConfig::paper_default()
        }
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::paper_default()
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Hit latency if some level hit; `None` means the access goes to
    /// memory.
    pub hit_latency: Option<Span>,
    /// Dirty lines evicted on the way (must be written back to memory).
    pub writeback: Option<u64>,
}

/// One cache level: per-set recency-ordered (front = MRU) tag lists.
#[derive(Debug, Clone)]
struct Level {
    config: CacheLevelConfig,
    /// `sets[i]` holds `(tag, dirty)` in recency order.
    sets: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
}

impl Level {
    fn new(config: CacheLevelConfig) -> Level {
        Level {
            config,
            sets: vec![Vec::new(); config.sets()],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Looks up `line`; on hit, refreshes LRU and ORs `mark_dirty`.
    fn access(&mut self, line: u64, mark_dirty: bool) -> bool {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(t, _)| t == line) {
            let (tag, dirty) = ways.remove(pos);
            ways.insert(0, (tag, dirty || mark_dirty));
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks presence without touching LRU or stats.
    fn probe(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.sets[set].iter().any(|&(t, _)| t == line)
    }

    /// Inserts `line`; returns an evicted dirty line if any.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<u64> {
        let ways_cap = self.config.ways as usize;
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(t, _)| t == line) {
            let (tag, was_dirty) = ways.remove(pos);
            ways.insert(0, (tag, was_dirty || dirty));
            return None;
        }
        ways.insert(0, (line, dirty));
        if ways.len() > ways_cap {
            let (victim, victim_dirty) = ways.pop().expect("overfull set");
            return victim_dirty.then_some(victim);
        }
        None
    }

    /// Removes `line`; returns whether it was present and dirty.
    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(t, _)| t == line) {
            let (_, dirty) = ways.remove(pos);
            dirty
        } else {
            false
        }
    }
}

/// Hit/miss counts per level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses (DRAM accesses).
    pub llc_misses: u64,
    /// clflush operations executed.
    pub flushes: u64,
}

/// A private cache hierarchy for one core.
///
/// # Examples
///
/// ```
/// use lh_sim::{CacheConfig, CacheHierarchy};
///
/// let mut c = CacheHierarchy::new(CacheConfig::paper_default());
/// assert!(c.access(0x1000, false).hit_latency.is_none()); // cold miss
/// c.fill(0x1000, false);
/// assert!(c.access(0x1000, false).hit_latency.is_some()); // now a hit
/// c.flush(0x1000);
/// assert!(c.access(0x1000, false).hit_latency.is_none()); // flushed
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Level,
    l2: Option<Level>,
    llc: Level,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    pub fn new(config: CacheConfig) -> CacheHierarchy {
        CacheHierarchy {
            l1: Level::new(config.l1),
            l2: config.l2.map(Level::new),
            llc: Level::new(config.llc),
        }
    }

    fn line_of(addr: u64) -> u64 {
        addr / LINE_BYTES
    }

    /// Performs a demand access. On a hit, returns the hit level's
    /// latency; on a full miss returns `None` (caller fetches from DRAM
    /// and calls [`CacheHierarchy::fill`] at completion).
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        let line = Self::line_of(addr);
        if self.l1.access(line, write) {
            return CacheAccess {
                hit_latency: Some(self.l1.config.hit_latency),
                writeback: None,
            };
        }
        if let Some(l2) = &mut self.l2 {
            if l2.access(line, write) {
                // Promote into L1.
                let wb = self.l1.fill(line, write);
                return CacheAccess {
                    hit_latency: Some(l2.config.hit_latency),
                    writeback: wb.map(|l| l * LINE_BYTES),
                };
            }
        }
        if self.llc.access(line, write) {
            let mut wb = self.l1.fill(line, write);
            if let Some(l2) = &mut self.l2 {
                let wb2 = l2.fill(line, false);
                wb = wb.or(wb2);
            }
            return CacheAccess {
                hit_latency: Some(self.llc.config.hit_latency),
                writeback: wb.map(|l| l * LINE_BYTES),
            };
        }
        CacheAccess {
            hit_latency: None,
            writeback: None,
        }
    }

    /// Inserts a line fetched from memory into every level; returns dirty
    /// evictions (as byte addresses) that must be written back.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Vec<u64> {
        let line = Self::line_of(addr);
        let mut wbs = Vec::new();
        if let Some(v) = self.l1.fill(line, dirty) {
            wbs.push(v * LINE_BYTES);
        }
        if let Some(l2) = &mut self.l2 {
            if let Some(v) = l2.fill(line, false) {
                wbs.push(v * LINE_BYTES);
            }
        }
        if let Some(v) = self.llc.fill(line, false) {
            wbs.push(v * LINE_BYTES);
        }
        wbs
    }

    /// Inserts a prefetched line into the levels below L1 (prefetches do
    /// not pollute the L1); returns dirty evictions.
    pub fn fill_prefetch(&mut self, addr: u64) -> Vec<u64> {
        let line = Self::line_of(addr);
        let mut wbs = Vec::new();
        if let Some(l2) = &mut self.l2 {
            if let Some(v) = l2.fill(line, false) {
                wbs.push(v * LINE_BYTES);
            }
        }
        if let Some(v) = self.llc.fill(line, false) {
            wbs.push(v * LINE_BYTES);
        }
        wbs
    }

    /// Whether `addr`'s line is present in any level (no LRU side effect).
    pub fn contains(&self, addr: u64) -> bool {
        let line = Self::line_of(addr);
        self.l1.probe(line)
            || self.l2.as_ref().is_some_and(|l2| l2.probe(line))
            || self.llc.probe(line)
    }

    /// `clflush`: invalidates the line everywhere; returns `true` if a
    /// dirty copy existed (the caller must issue a memory writeback).
    pub fn flush(&mut self, addr: u64) -> bool {
        let line = Self::line_of(addr);
        let mut dirty = self.l1.invalidate(line);
        if let Some(l2) = &mut self.l2 {
            dirty |= l2.invalidate(line);
        }
        dirty | self.llc.invalidate(line)
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            l1_hits: self.l1.hits,
            l1_misses: self.l1.misses,
            l2_hits: self.l2.as_ref().map_or(0, |l| l.hits),
            l2_misses: self.l2.as_ref().map_or(0, |l| l.misses),
            llc_hits: self.llc.hits,
            llc_misses: self.llc.misses,
            flushes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            l1: CacheLevelConfig {
                capacity: 512,
                ways: 2,
                hit_latency: Span::from_ns(1),
            },
            l2: None,
            llc: CacheLevelConfig {
                capacity: 2048,
                ways: 4,
                hit_latency: Span::from_ns(12),
            },
        }
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = CacheHierarchy::new(small());
        assert!(c.access(0x0, false).hit_latency.is_none());
        c.fill(0x0, false);
        let a = c.access(0x0, false);
        assert_eq!(a.hit_latency, Some(Span::from_ns(1)));
    }

    #[test]
    fn l1_eviction_falls_back_to_llc() {
        let mut c = CacheHierarchy::new(small());
        // L1: 512 B / 2 ways → 4 sets; lines mapping to set 0: 0, 4, 8...
        for line in [0u64, 4, 8] {
            c.fill(line * 64, false);
        }
        // Line 0 evicted from L1 (2 ways), but still in LLC (4 ways/set,
        // LLC has 8 sets so they spread differently).
        let a = c.access(0, false);
        assert_eq!(a.hit_latency, Some(Span::from_ns(12)), "LLC hit expected");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = CacheHierarchy::new(small());
        // Fill set 0 of the LLC (8 sets, 4 ways): lines 0,8,16,24,32 — the
        // fifth fill evicts line 0. Mark line 0 dirty everywhere.
        c.fill(0, true);
        let mut wb_seen = false;
        for line in [8u64, 16, 24, 32] {
            // Flushing from L1 first keeps only the LLC copy... just fill
            // and collect writebacks.
            let wbs = c.fill(line * 64, false);
            wb_seen |= wbs.contains(&0);
        }
        // The dirty line 0 must eventually be written back from L1 or LLC.
        assert!(
            wb_seen || c.contains(0),
            "dirty line lost without writeback"
        );
    }

    #[test]
    fn flush_removes_from_all_levels_and_reports_dirty() {
        let mut c = CacheHierarchy::new(small());
        c.fill(0x40, false);
        c.access(0x40, true); // dirty in L1
        assert!(c.flush(0x40), "flush of dirty line reports dirty");
        assert!(!c.contains(0x40));
        assert!(!c.flush(0x40), "second flush is clean");
    }

    #[test]
    fn repeated_flush_access_always_misses() {
        // The attack-loop invariant: flush+load never hits in cache.
        let mut c = CacheHierarchy::new(CacheConfig::paper_default());
        for _ in 0..100 {
            c.flush(0x1234_0000);
            assert!(c.access(0x1234_0000, false).hit_latency.is_none());
            c.fill(0x1234_0000, false);
        }
        assert_eq!(c.stats().l1_misses, 100);
    }

    #[test]
    fn prefetch_fill_skips_l1() {
        let mut c = CacheHierarchy::new(CacheConfig::large_hierarchy());
        c.fill_prefetch(0x2000);
        // L1 miss but L2 hit.
        let a = c.access(0x2000, false);
        assert_eq!(a.hit_latency, Some(Span::from_ns(4)));
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = CacheHierarchy::new(small());
        // Two lines in one L1 set (2 ways): 0 and 4. Touch 0, insert 8:
        // 4 must be the victim, 0 stays.
        c.fill(0, false);
        c.fill(4 * 64, false);
        c.access(0, false);
        c.fill(8 * 64, false);
        assert!(c.access(0, false).hit_latency == Some(Span::from_ns(1)));
    }

    #[test]
    fn paper_configs_have_expected_shape() {
        let d = CacheConfig::paper_default();
        assert_eq!(d.l1.sets(), 64);
        assert!(d.l2.is_none());
        assert_eq!(d.llc.sets(), 4096);
        let l = CacheConfig::large_hierarchy();
        assert_eq!(l.l2.unwrap().sets(), 512);
        assert_eq!(l.llc.capacity, 6 * 1024 * 1024);
    }
}
