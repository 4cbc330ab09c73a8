//! Open-page tracking for Direct Rambus memory.

use serde::{Deserialize, Serialize};

/// The bank state "no row open": above every row id.
const NO_ROW: u64 = u64::MAX;

/// A banked open-page (row-buffer) table.
///
/// The 21364 can keep "up to 2048 pages open simultaneously" (paper §2) —
/// but those pages live in *banks*: each bank holds one open row, and two
/// pages that share a bank conflict. This is why Fig. 5's latency rises
/// from ~80 ns to ~130 ns as the stride grows: unit strides keep hitting
/// the open row, while large power-of-two strides alias onto a few banks
/// and close the row on every access.
///
/// # Examples
///
/// ```
/// use alphasim_mem::OpenPageTable;
/// let mut t = OpenPageTable::new(2, 1024);
/// assert!(!t.touch(7)); // first touch opens the row
/// assert!(t.touch(7));  // subsequent touches hit
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenPageTable {
    /// `log2` of the page size in bytes.
    page_shift: u32,
    /// `banks - 1`: `bank = page % banks = page & bank_mask`.
    bank_mask: u64,
    /// Open row per bank, [`NO_ROW`] while the bank has none. A row id is
    /// a [`page_of`](Self::page_of) value: an address shifted right by at
    /// least 10 bits, so below 2^54, and `NO_ROW` never names a real row.
    /// One word per bank, not an `Option`'s two.
    banks: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl OpenPageTable {
    /// A table of `banks` banks over `page_kib`-KiB pages.
    ///
    /// # Panics
    ///
    /// Panics unless `page_kib` and `banks` are both powers of two (so
    /// neither is zero).
    pub fn new(page_kib: u64, banks: usize) -> Self {
        assert!(
            page_kib.is_power_of_two(),
            "page size must be a power of two KiB, got {page_kib}"
        );
        assert!(
            banks.is_power_of_two(),
            "bank count must be a power of two, got {banks}"
        );
        OpenPageTable {
            page_shift: page_kib.trailing_zeros() + 10,
            bank_mask: banks as u64 - 1,
            banks: vec![NO_ROW; banks],
            hits: 0,
            misses: 0,
        }
    }

    /// The RDRAM page an address belongs to.
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Touch a page: `true` if its bank already has this row open (page
    /// hit); otherwise the row is activated, displacing the bank's previous
    /// row. `page` is a [`page_of`](Self::page_of) value.
    pub fn touch(&mut self, page: u64) -> bool {
        debug_assert!(page < 1 << 54, "page {page:#x} is not a page_of value");
        let bank = (page & self.bank_mask) as usize;
        if self.banks[bank] == page {
            self.hits += 1;
            return true;
        }
        self.banks[bank] = page;
        self.misses += 1;
        false
    }

    /// Number of banks (the maximum simultaneously open pages).
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Page hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Page misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_lines_hit_open_page() {
        // 2 KiB pages hold 32 cache lines; a unit-stride stream misses once
        // per page.
        let mut t = OpenPageTable::new(2, 1024);
        let mut misses = 0;
        for line in 0..64u64 {
            let page = t.page_of(line * 64);
            if !t.touch(page) {
                misses += 1;
            }
        }
        assert_eq!(misses, 2);
        assert_eq!(t.hits(), 62);
    }

    #[test]
    fn large_power_of_two_stride_conflicts_in_banks() {
        // Stride 16 KiB = 8 pages: successive accesses alias onto a cycle
        // of banks; with more rows than the cycle covers, every access
        // conflicts once the working set exceeds the aliased banks.
        let mut t = OpenPageTable::new(2, 64);
        let mut hit = 0;
        // 512 distinct pages, stride 8 pages -> 64-bank cycle of length 8,
        // each bank sees 64 different rows.
        for i in 0..4096u64 {
            let page = (i % 512) * 8;
            if t.touch(page) {
                hit += 1;
            }
        }
        assert_eq!(hit, 0, "strided rows must keep conflicting");
    }

    #[test]
    fn bank_capacity_bounds_open_pages() {
        let mut t = OpenPageTable::new(2, 16);
        for p in 0..100 {
            t.touch(p);
        }
        assert_eq!(t.bank_count(), 16);
        // The most recent row in bank (99 % 16) is open.
        assert!(t.touch(99));
        assert!(!t.touch(83)); // same bank as 99, different row
    }

    #[test]
    fn distinct_banks_do_not_interfere() {
        let mut t = OpenPageTable::new(2, 8);
        t.touch(0);
        t.touch(1);
        t.touch(2);
        assert!(t.touch(0));
        assert!(t.touch(1));
        assert!(t.touch(2));
    }

    #[test]
    fn page_and_bank_match_division() {
        for (page_kib, banks) in [(1, 1), (2, 2048), (8, 128), (64, 4)] {
            let mut t = OpenPageTable::new(page_kib, banks);
            for addr in [0, 1023, 1024, 2047, 8191, 8192, 123_456_789, u64::MAX] {
                let page = t.page_of(addr);
                assert_eq!(page, addr / (page_kib * 1024), "{page_kib} KiB, {addr}");
                assert!(page < 1 << 54, "{page_kib} KiB, {addr}");
                t.touch(page);
                assert_eq!(t.banks[(page % banks as u64) as usize], page);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not a page_of value")]
    fn touch_rejects_a_row_id_no_address_maps_to() {
        OpenPageTable::new(2, 8).touch(NO_ROW);
    }

    #[test]
    #[should_panic(expected = "page size must be a power of two KiB, got 3")]
    fn rejects_non_power_of_two_page() {
        let _ = OpenPageTable::new(3, 8);
    }

    #[test]
    #[should_panic(expected = "page size must be a power of two KiB, got 0")]
    fn rejects_zero_page() {
        let _ = OpenPageTable::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two, got 96")]
    fn rejects_non_power_of_two_banks() {
        let _ = OpenPageTable::new(2, 96);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two, got 0")]
    fn rejects_zero_banks() {
        let _ = OpenPageTable::new(2, 0);
    }
}
