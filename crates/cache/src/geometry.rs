//! Cache geometry and physical addresses.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A physical byte address.
///
/// # Examples
///
/// ```
/// use alphasim_cache::Addr;
/// let a = Addr::new(0x1040);
/// assert_eq!(a.line(64), 0x41);
/// assert_eq!(a.get(), 0x1040);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(u64);

impl Addr {
    /// An address from its byte value.
    pub const fn new(a: u64) -> Self {
        Addr(a)
    }

    /// The raw byte address.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The cache-line number for a given line size.
    pub fn line(self, line_bytes: u64) -> u64 {
        self.0 / line_bytes
    }

    /// Offset the address by `delta` bytes.
    pub fn offset(self, delta: u64) -> Addr {
        Addr(self.0.wrapping_add(delta))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(a: u64) -> Self {
        Addr(a)
    }
}

/// Size, line size, and associativity of one cache level.
///
/// # Examples
///
/// ```
/// use alphasim_cache::CacheGeometry;
/// let g = CacheGeometry::ev7_l2();
/// assert_eq!(g.size_bytes(), 1_835_008); // 1.75 MB
/// assert_eq!(g.ways(), 7);
/// assert_eq!(g.sets(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u64,
    ways: u32,
}

impl CacheGeometry {
    /// A geometry from total size, line size and way count.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `ways >= 1`, and
    /// `size_bytes` is an exact multiple of `ways * line_bytes` with a
    /// power-of-two set count. Also panics on a single set of 1-byte
    /// lines: there every address is its own tag, which leaves no tag
    /// value for [`SetAssocCache`](crate::SetAssocCache) to mark an empty
    /// way with.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(ways >= 1, "need at least one way");
        let way_bytes = u64::from(ways) * line_bytes;
        assert!(
            size_bytes.is_multiple_of(way_bytes),
            "size must divide into ways x lines"
        );
        let sets = size_bytes / way_bytes;
        assert!(sets.is_power_of_two(), "set count must be 2^k, got {sets}");
        assert!(
            sets > 1 || line_bytes > 1,
            "one set of 1-byte lines makes every u64 a tag"
        );
        CacheGeometry {
            size_bytes,
            line_bytes,
            ways,
        }
    }

    /// The EV7's on-chip L2: 1.75 MB, 7-way, 64-byte lines (paper §2).
    pub fn ev7_l2() -> Self {
        CacheGeometry::new(7 * 256 * 1024, 64, 7)
    }

    /// The EV68 off-chip B-cache on GS320/ES45: 16 MB direct-mapped.
    pub fn ev68_bcache() -> Self {
        CacheGeometry::new(16 * 1024 * 1024, 64, 1)
    }

    /// The 21264-family L1 data cache: 64 KB, 2-way.
    pub fn alpha_l1d() -> Self {
        CacheGeometry::new(64 * 1024, 64, 2)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * self.line_bytes)
    }

    /// The set index an address maps to.
    pub fn set_of(self, addr: Addr) -> u64 {
        addr.line(self.line_bytes) % self.sets()
    }

    /// The tag of an address (the line number above the set index).
    pub fn tag_of(self, addr: Addr) -> u64 {
        addr.line(self.line_bytes) / self.sets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_and_offset() {
        let a = Addr::new(130);
        assert_eq!(a.line(64), 2);
        assert_eq!(a.offset(64).line(64), 3);
        assert_eq!(Addr::from(5u64).get(), 5);
        assert_eq!(format!("{}", Addr::new(16)), "0x10");
    }

    #[test]
    fn ev7_l2_geometry() {
        let g = CacheGeometry::ev7_l2();
        assert_eq!(g.size_bytes(), 1_835_008);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.ways(), 7);
        assert_eq!(g.sets(), 4096);
    }

    #[test]
    fn bcache_geometry() {
        let g = CacheGeometry::ev68_bcache();
        assert_eq!(g.ways(), 1);
        assert_eq!(g.sets(), 16 * 1024 * 1024 / 64);
    }

    #[test]
    fn set_and_tag_partition_the_line_number() {
        let g = CacheGeometry::new(8 * 1024, 64, 2); // 64 sets
        for line in 0..1000u64 {
            let a = Addr::new(line * 64 + 13);
            assert_eq!(g.set_of(a), line % 64);
            assert_eq!(g.tag_of(a), line / 64);
        }
    }

    #[test]
    fn addresses_in_same_line_share_set_and_tag() {
        let g = CacheGeometry::ev7_l2();
        let base = Addr::new(0xABCDE0 & !63);
        for off in 0..64 {
            assert_eq!(g.set_of(base.offset(off)), g.set_of(base));
            assert_eq!(g.tag_of(base.offset(off)), g.tag_of(base));
        }
    }

    #[test]
    #[should_panic(expected = "set count must be 2^k")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3 * 64 * 5, 64, 1);
    }

    #[test]
    #[should_panic(expected = "one set of 1-byte lines makes every u64 a tag")]
    fn rejects_one_set_of_byte_lines() {
        let _ = CacheGeometry::new(4, 1, 4);
    }

    #[test]
    #[should_panic(expected = "line size must be 2^k")]
    fn rejects_odd_line_size() {
        let _ = CacheGeometry::new(1024, 48, 1);
    }
}
