//! A functional set-associative cache with true-LRU replacement.

use serde::{Deserialize, Serialize};

use crate::geometry::{Addr, CacheGeometry};

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// The line number (in units of the line size) of a line evicted to
    /// make room, if the fill displaced one.
    pub evicted_line: Option<u64>,
    /// Whether the evicted line was dirty (must be written back — the
    /// write-back traffic STREAM's `moved_bytes` accounts for).
    pub evicted_dirty: bool,
}

/// A set-associative cache with LRU replacement, tracking tags only (a
/// *functional* model: it answers hit/miss questions, it does not hold
/// data).
///
/// Accesses allocate on miss (read-allocate; the reproduced experiments are
/// latency/bandwidth studies over loads, with stores modelled as allocating
/// too, matching the write-back write-allocate Alpha caches).
///
/// # Examples
///
/// ```
/// use alphasim_cache::{Addr, CacheGeometry, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2));
/// assert!(!c.access(Addr::new(0)).hit);   // cold miss
/// assert!(c.access(Addr::new(32)).hit);   // same line
/// assert_eq!(c.hits(), 1);
/// assert_eq!(c.misses(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Per set: `(tag, dirty)` in LRU order, most recently used last.
    sets: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssocCache {
    /// An empty cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            sets: vec![Vec::new(); geometry.sets() as usize],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access `addr` with a load, allocating its line (clean) on a miss.
    pub fn access(&mut self, addr: Addr) -> AccessResult {
        self.reference(addr, false)
    }

    /// Access `addr` with a store, allocating (write-allocate) and marking
    /// the line dirty.
    pub fn access_write(&mut self, addr: Addr) -> AccessResult {
        self.reference(addr, true)
    }

    fn reference(&mut self, addr: Addr, write: bool) -> AccessResult {
        let set_idx = self.geometry.set_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let ways = self.geometry.ways() as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (t, dirty) = set.remove(pos);
            set.push((t, dirty || write));
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted_line: None,
                evicted_dirty: false,
            };
        }
        self.misses += 1;
        let (evicted, evicted_dirty) = if set.len() == ways {
            let (victim_tag, dirty) = set.remove(0);
            if dirty {
                self.writebacks += 1;
            }
            (
                Some(victim_tag * self.geometry.sets() + set_idx as u64),
                dirty,
            )
        } else {
            (None, false)
        };
        set.push((tag, write));
        AccessResult {
            hit: false,
            evicted_line: evicted,
            evicted_dirty,
        }
    }

    /// Whether `addr`'s line is currently resident (no LRU update, no fill).
    pub fn probe(&self, addr: Addr) -> bool {
        let set = &self.sets[self.geometry.set_of(addr) as usize];
        let tag = self.geometry.tag_of(addr);
        set.iter().any(|&(t, _)| t == tag)
    }

    /// Invalidate `addr`'s line if resident; reports whether it was.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let set_idx = self.geometry.set_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            set.remove(pos);
            true
        } else {
            false
        }
    }

    /// Drop every line and reset statistics.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Whether the cache has seen no access since construction or
    /// [`flush`](Self::flush) and holds no line.
    pub(crate) fn is_cold(&self) -> bool {
        self.hits == 0 && self.misses == 0 && self.sets.iter().all(Vec::is_empty)
    }

    /// Install the end state of a monotone load sweep into a cold cache.
    /// `lines` are the distinct line numbers the sweep touched, newest
    /// first; each set keeps its newest `ways` of them, the oldest in LRU
    /// position, all clean. `lines` is read only until every set is full.
    pub(crate) fn fill_cold(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        hits: u64,
        misses: u64,
    ) {
        debug_assert!(self.is_cold(), "fill_cold needs a cold cache");
        let (sets, ways) = (self.geometry.sets(), self.geometry.ways() as usize);
        let mut unfilled = self.sets.len();
        for line in lines {
            let set = &mut self.sets[(line % sets) as usize];
            if set.len() < ways {
                set.insert(0, (line / sets, false));
                if set.len() == ways {
                    unfilled -= 1;
                    if unfilled == 0 {
                        break;
                    }
                }
            }
        }
        self.hits = hits;
        self.misses = misses;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Hits since construction or [`flush`](Self::flush).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction or [`flush`](Self::flush).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty lines written back on eviction so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss ratio (0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        SetAssocCache::new(CacheGeometry::new(256, 64, 2))
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        let a = Addr::new(0);
        let b = Addr::new(2 * 64);
        let d = Addr::new(4 * 64);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        let r = c.access(d); // evicts b
        assert_eq!(r.evicted_line, Some(2));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(Addr::new(i * 64));
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::new(CacheGeometry::new(128, 64, 1)); // 2 sets
        let a = Addr::new(0);
        let conflicting = Addr::new(2 * 64); // same set, different tag
        c.access(a);
        c.access(conflicting);
        assert!(!c.probe(a), "direct-mapped conflict must evict");
        // Ping-pong: every access misses.
        c.flush();
        for _ in 0..10 {
            assert!(!c.access(a).hit);
            assert!(!c.access(conflicting).hit);
        }
        assert_eq!(c.misses(), 20);
    }

    #[test]
    fn seven_way_holds_seven_conflicting_lines() {
        let mut c = SetAssocCache::new(CacheGeometry::ev7_l2());
        let sets = c.geometry().sets();
        // 7 lines all mapping to set 0.
        for i in 0..7u64 {
            c.access(Addr::new(i * sets * 64));
        }
        for i in 0..7u64 {
            assert!(c.probe(Addr::new(i * sets * 64)), "way {i} lost");
        }
        // An 8th conflicting line evicts the LRU (line 0).
        c.access(Addr::new(7 * sets * 64));
        assert!(!c.probe(Addr::new(0)));
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = SetAssocCache::new(CacheGeometry::new(64 * 1024, 64, 2));
        let lines = 64 * 1024 / 64;
        // Two full sweeps; second sweep must be all hits.
        for _ in 0..2 {
            for i in 0..lines {
                c.access(Addr::new(i * 64));
            }
        }
        assert_eq!(c.misses(), lines);
        assert_eq!(c.hits(), lines);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_on_sweep() {
        // Sequential sweep of 2x the capacity with LRU: every access misses.
        let mut c = SetAssocCache::new(CacheGeometry::new(4096, 64, 2));
        let lines = 2 * 4096 / 64;
        for _ in 0..3 {
            for i in 0..lines {
                c.access(Addr::new(i * 64));
            }
        }
        assert_eq!(c.hits(), 0);
        assert!((c.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let a = Addr::new(64);
        c.access(a);
        assert!(c.invalidate(a));
        assert!(!c.probe(a));
        assert!(!c.invalidate(a));
    }

    #[test]
    fn flush_resets_everything() {
        let mut c = tiny();
        c.access(Addr::new(0));
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.miss_ratio(), 0.0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let a = Addr::new(0);
        let b = Addr::new(2 * 64);
        c.access(a);
        c.access(b);
        // Probing `a` must NOT refresh it.
        assert!(c.probe(a));
        c.access(Addr::new(4 * 64)); // evicts LRU = a
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }
}

#[cfg(test)]
mod dirty_tests {
    use super::*;

    /// Whether `addr`'s line is resident *and dirty*.
    fn is_dirty(c: &SetAssocCache, addr: Addr) -> bool {
        let set = &c.sets[c.geometry.set_of(addr) as usize];
        let tag = c.geometry.tag_of(addr);
        set.iter().any(|&(t, d)| t == tag && d)
    }

    #[test]
    fn stores_mark_lines_dirty_and_evictions_write_back() {
        let mut c = SetAssocCache::new(CacheGeometry::new(128, 64, 1)); // 2 sets
        let a = Addr::new(0);
        c.access_write(a);
        assert!(is_dirty(&c, a));
        // Conflicting fill evicts the dirty line: one write-back.
        let r = c.access(Addr::new(2 * 64));
        assert_eq!(r.evicted_line, Some(0));
        assert!(r.evicted_dirty);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut c = SetAssocCache::new(CacheGeometry::new(128, 64, 1));
        c.access(Addr::new(0));
        let r = c.access(Addr::new(2 * 64));
        assert!(!r.evicted_dirty);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn read_after_write_keeps_dirty_bit() {
        let mut c = SetAssocCache::new(CacheGeometry::new(256, 64, 2));
        let a = Addr::new(64);
        c.access_write(a);
        c.access(a); // LRU refresh must not launder the dirty bit
        assert!(is_dirty(&c, a));
    }

    #[test]
    fn write_hit_dirties_a_clean_line() {
        let mut c = SetAssocCache::new(CacheGeometry::new(256, 64, 2));
        let a = Addr::new(0);
        c.access(a);
        assert!(!is_dirty(&c, a));
        assert!(c.access_write(a).hit);
        assert!(is_dirty(&c, a));
    }

    #[test]
    fn stream_like_write_stream_generates_one_writeback_per_line() {
        // A store sweep over 2x capacity: every line comes back out dirty.
        let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2));
        let lines = 2 * 1024 / 64;
        for i in 0..lines {
            c.access_write(Addr::new(i * 64));
        }
        // First `capacity` fills evict nothing; the rest evict dirty lines.
        assert_eq!(c.writebacks(), lines - 16);
    }
}
