//! A functional set-associative cache with true-LRU replacement.

use serde::{Deserialize, Serialize};

use crate::geometry::{Addr, CacheGeometry};

/// A set-associative cache with LRU replacement, tracking tags only (a
/// *functional* model: it answers hit/miss questions, it does not hold
/// data).
///
/// Loads allocate on a miss. The tags live in one flat array, `ways` slots
/// per set, indexed by shift and mask; a slot holds its line's tag plus
/// one, and 0 while empty. No tag is `u64::MAX`, since
/// [`CacheGeometry::new`] refuses a single set of 1-byte lines, so 0 never
/// names a line and a set needs no count of its resident lines.
///
/// # Examples
///
/// ```
/// use alphasim_cache::{Addr, CacheGeometry, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2));
/// assert!(!c.access(Addr::new(0)));   // cold miss
/// assert!(c.access(Addr::new(32)));   // same line
/// assert_eq!(c.hits(), 1);
/// assert_eq!(c.misses(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// log2 of the line size: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// log2 of the set count: a line's set is its low `set_bits` bits, its
    /// tag the bits above.
    set_bits: u32,
    /// `ways` slots per set, set after set, each `tag + 1` or 0 (empty). A
    /// set's empty slots come first, then its resident tags in LRU order,
    /// most recently used last.
    slots: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// An empty cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            line_shift: geometry.line_bytes().trailing_zeros(),
            set_bits: geometry.sets().trailing_zeros(),
            slots: vec![0; (geometry.sets() * u64::from(geometry.ways())) as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Load `addr`, allocating its line on a miss; returns whether it hit.
    pub fn access(&mut self, addr: Addr) -> bool {
        let line = addr.get() >> self.line_shift;
        let key = (line >> self.set_bits) + 1;
        let set = self.set_mut(line);
        if let Some(pos) = set.iter().rposition(|&k| k == key) {
            set[pos..].rotate_left(1);
            self.hits += 1;
            return true;
        }
        // Evict the LRU slot (an empty one while the set has any).
        set.copy_within(1.., 0);
        set[set.len() - 1] = key;
        self.misses += 1;
        false
    }

    /// The slots of `line`'s set.
    fn set_mut(&mut self, line: u64) -> &mut [u64] {
        let ways = self.geometry.ways() as usize;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        &mut self.slots[set * ways..][..ways]
    }

    /// Whether the cache has seen no access since construction.
    pub(crate) fn is_cold(&self) -> bool {
        self.hits == 0 && self.misses == 0
    }

    /// Install the end state of a monotone load sweep into a cold cache.
    /// `lines` are the distinct line numbers the sweep touched, newest
    /// first; each set keeps its newest `ways` of them, the oldest in LRU
    /// position, and ignores the rest.
    pub(crate) fn fill_cold(
        &mut self,
        lines: impl IntoIterator<Item = u64>,
        hits: u64,
        misses: u64,
    ) {
        debug_assert!(self.is_cold(), "fill_cold needs a cold cache");
        for line in lines {
            let key = (line >> self.set_bits) + 1;
            let set = self.set_mut(line);
            // Older lines arrive later and go in front of the newer ones.
            if let Some(slot) = set.iter().rposition(|&k| k == 0) {
                set[slot] = key;
            }
        }
        self.hits = hits;
        self.misses = misses;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&k| k != 0).count()
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
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
    use proptest::prelude::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        SetAssocCache::new(CacheGeometry::new(256, 64, 2))
    }

    /// `set`'s resident tags, least recently used first.
    fn set_tags(c: &SetAssocCache, set: usize) -> Vec<u64> {
        let ways = c.geometry.ways() as usize;
        let slots = &c.slots[set * ways..][..ways];
        let empty = slots.iter().take_while(|&&k| k == 0).count();
        let resident = &slots[empty..];
        assert!(
            !resident.contains(&0),
            "set {set}: empty slot after a resident one"
        );
        resident.iter().map(|&k| k - 1).collect()
    }

    /// Whether `addr`'s line is resident (no LRU update, no fill).
    fn resident(c: &SetAssocCache, addr: Addr) -> bool {
        let g = c.geometry;
        set_tags(c, g.set_of(addr) as usize).contains(&g.tag_of(addr))
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
        assert!(!c.access(d)); // evicts b
        assert!(resident(&c, a));
        assert!(!resident(&c, b));
        assert!(resident(&c, d));
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
        let geometry = CacheGeometry::new(128, 64, 1); // 2 sets
        let a = Addr::new(0);
        let conflicting = Addr::new(2 * 64); // same set, different tag
        let mut c = SetAssocCache::new(geometry);
        c.access(a);
        c.access(conflicting);
        assert!(!resident(&c, a), "direct-mapped conflict must evict");
        // Ping-pong: every access misses.
        let mut c = SetAssocCache::new(geometry);
        for _ in 0..10 {
            assert!(!c.access(a));
            assert!(!c.access(conflicting));
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
            assert!(resident(&c, Addr::new(i * sets * 64)), "way {i} lost");
        }
        // An 8th conflicting line evicts the LRU (line 0).
        c.access(Addr::new(7 * sets * 64));
        assert!(!resident(&c, Addr::new(0)));
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
    fn the_largest_tags_never_read_as_empty_slots() {
        // Two sets of 1-byte lines and one set of 2-byte lines: the largest
        // tag is u64::MAX >> 1, the smallest 0. Neither may hit a cold
        // slot, and both must survive as residents.
        for g in [CacheGeometry::new(4, 1, 2), CacheGeometry::new(4, 2, 2)] {
            let mut c = SetAssocCache::new(g);
            let (top, low) = (Addr::new(u64::MAX), Addr::new(0));
            assert_eq!(g.tag_of(top), u64::MAX >> 1);
            assert!(!c.access(top), "{g:?}: a cold cache hit the top tag");
            assert!(!c.access(low), "{g:?}: a cold set hit tag 0");
            assert!(c.access(low) && c.access(top), "{g:?}");
            let set = g.set_of(top) as usize;
            assert!(set_tags(&c, set).ends_with(&[u64::MAX >> 1]), "{g:?}");
            // A neighbour of the top tag evicts the LRU line, not `top`.
            assert!(!c.access(Addr::new(u64::MAX - 2)), "{g:?}");
            assert!(resident(&c, top) && resident(&c, Addr::new(u64::MAX - 2)));
            assert_eq!((c.hits(), c.misses()), (2, 3));
        }
    }

    /// True LRU the plain way: per set, its resident tags least recently
    /// used first, found by division. Returns whether `addr` hit.
    fn reference_access(sets: &mut [Vec<u64>], g: CacheGeometry, addr: Addr) -> bool {
        let line = addr.get() / g.line_bytes();
        let n = sets.len() as u64;
        let set = &mut sets[(line % n) as usize];
        let tag = line / n;
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push(tag);
            return true;
        }
        if set.len() == g.ways() as usize {
            set.remove(0);
        }
        set.push(tag);
        false
    }

    /// 1–64 sets, 1–8 ways, 1–128 B lines, but not one set of 1-byte
    /// lines, which `CacheGeometry::new` refuses.
    fn geometries() -> impl Strategy<Value = CacheGeometry> {
        (0u32..7, 1u32..=8, 0u32..8)
            .prop_filter("one set of 1-byte lines", |&(s, _, l)| s + l > 0)
            .prop_map(|(s, w, l)| {
                let line = 1u64 << l;
                CacheGeometry::new((1u64 << s) * u64::from(w) * line, line, w)
            })
    }

    /// Loads over a few times the largest cache, plus a sprinkling of
    /// arbitrary 64-bit addresses for tags near the top of the range.
    fn loads() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            (0u64..8, 0u64..1 << 17, any::<u64>())
                .prop_map(|(pick, low, any)| if pick == 0 { any } else { low }),
            1..600,
        )
    }

    proptest! {
        /// After every load, the flat layout agrees with the reference on
        /// the hit flag and on every set's resident tags in LRU order.
        #[test]
        fn flat_sets_match_the_reference_lru(g in geometries(), loads in loads()) {
            let mut c = SetAssocCache::new(g);
            let mut reference = vec![Vec::new(); g.sets() as usize];
            for (i, &a) in loads.iter().enumerate() {
                let a = Addr::new(a);
                let hit = c.access(a);
                prop_assert_eq!(hit, reference_access(&mut reference, g, a), "load {}", i);
                for (set, lru) in reference.iter().enumerate() {
                    prop_assert_eq!(&set_tags(&c, set), lru, "set {} after load {}", set, i);
                }
            }
            let resident: usize = reference.iter().map(Vec::len).sum();
            prop_assert_eq!(c.resident_lines(), resident);
            prop_assert_eq!(c.hits() + c.misses(), loads.len() as u64);
        }
    }
}
