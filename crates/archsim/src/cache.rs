//! Trace-driven set-associative cache model.

use serde::{Deserialize, Serialize};

/// Hit/miss counters. Mergeable: `a + b` combines the counts of two
/// disjoint measurement intervals (or two cores), so per-core counter
/// sets sum to the run-global totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub accesses: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Alias for [`CacheStats::miss_ratio`] under the name most profiling
    /// tools use. Defined (as 0.0) even when no accesses were recorded —
    /// never NaN, so downstream reports can divide/format unconditionally.
    pub fn miss_rate(&self) -> f64 {
        self.miss_ratio()
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses + rhs.accesses,
            misses: self.misses + rhs.misses,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| a + b)
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Each set is a slice of tags in LRU order, most recent first; hits and
/// fills rotate the slice — exact (not pseudo) LRU, which is what the
/// miss-ratio estimates assume. Set count need not be a power of two (the
/// Xeon 8170's 11-way 35.75 MiB L3 isn't): indexing masks and shifts when
/// it is and falls back to modulo and division otherwise.
///
/// A way stores its line's set-relative tag (`line / sets`) plus one in a
/// `u32`, `0` marking an empty way: half the footprint of a full line
/// number, and a fresh tag array is all zeros, so pages of sets a replay
/// never touches are never committed. The addressable range is therefore
/// addresses below `(2^32 - 1) × sets × line_bytes` — just under 256 GiB
/// for a single set of 64-byte lines and more for every real geometry, far
/// above every trace here (ISA kernel data starts at 1 MiB; the stream
/// generators stay inside their working sets).
/// [`Cache::access`] panics beyond it rather than alias two lines.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `sets - 1` when `sets` is a power of two, else `None` (modulo).
    set_mask: Option<u64>,
    /// `log2(sets)` when `sets` is a power of two (unused otherwise).
    set_shift: u32,
    /// `tags[set * ways + way]`: the tag + 1 held by each way, way 0 most
    /// recently used; 0 marks an empty way.
    tags: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Explicit geometry: `sets × ways` lines of `line_bytes`.
    pub fn with_geometry(sets: usize, ways: usize, line_bytes: u32) -> Self {
        assert!(sets >= 1 && ways >= 1);
        assert!(line_bytes.is_power_of_two());
        Self {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            set_shift: sets.trailing_zeros(),
            tags: vec![0; sets * ways],
            stats: CacheStats::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1u64 << self.line_shift)
    }

    /// Access a byte address; returns `true` on hit. Misses allocate
    /// (write-allocate policy for both reads and writes, as on all the
    /// studied machines). Panics on an address past the addressable range
    /// (see [`Cache`]).
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let (set, tag) = match self.set_mask {
            Some(mask) => (line & mask, line >> self.set_shift),
            None => (line % self.sets as u64, line / self.sets as u64),
        };
        assert!(
            tag < u64::from(u32::MAX),
            "address {addr:#x} is past the cache's addressable range"
        );
        let tag = tag as u32 + 1;
        let set = set as usize;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        match ways.iter().position(|&t| t == tag) {
            Some(w) => {
                // Hit: move to the MRU position.
                ways[..=w].rotate_right(1);
                true
            }
            None => {
                // Miss: the LRU way rotates to the front and is refilled.
                self.stats.misses += 1;
                ways.rotate_right(1);
                ways[0] = tag;
                false
            }
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (keeping contents — for warm-up protocols).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all contents and reset statistics.
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.stats = CacheStats::default();
    }
}

/// Closed-form steady-state miss-ratio estimates for the synthetic access
/// patterns (per *reference*, not per line). These are what the
/// performance model uses at paper scale; the trace-driven [`Cache`]
/// validates them in this crate's tests.
pub mod estimate {
    /// Streaming (unit-stride) reads of `elem_bytes` elements over a
    /// working set of `ws` bytes against a cache of `cap` bytes with
    /// `line` -byte lines: if the working set fits, ~0 after warm-up; if
    /// it doesn't, one miss per line → `elem/line` misses per reference.
    pub fn streaming(ws: f64, cap: f64, elem_bytes: u32, line: u32) -> f64 {
        if ws <= cap {
            0.0
        } else {
            f64::from(elem_bytes) / f64::from(line)
        }
    }

    /// Strided access: each reference advances `stride` bytes, so the
    /// fraction of references opening a new line is `min(1, stride/line)`;
    /// scaled by the non-resident fraction of the working set.
    pub fn strided(ws: f64, cap: f64, stride_bytes: u32, line: u32) -> f64 {
        let new_line_per_ref = (f64::from(stride_bytes.max(1)) / f64::from(line)).min(1.0);
        new_line_per_ref * hit_shortfall(ws, cap)
    }

    /// Uniform random references within a working set of `ws` bytes: the
    /// hit probability is the fraction of the working set resident,
    /// ~`cap/ws` in steady state (LRU ≈ random for uniform traffic).
    pub fn random_in_ws(ws: f64, cap: f64) -> f64 {
        if ws <= cap {
            0.0
        } else {
            1.0 - cap / ws
        }
    }

    /// The fraction of references NOT covered by the cache for patterns
    /// that sweep the working set cyclically (LRU pathological case is a
    /// full miss; real kernels are closer to random-replacement behaviour,
    /// so we use the resident-fraction model).
    fn hit_shortfall(ws: f64, cap: f64) -> f64 {
        (1.0 - cap / ws).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_within_capacity_hits_after_warmup() {
        // 4 KiB cache, walk 2 KiB twice: second pass must be all hits.
        let mut c = Cache::with_geometry(16, 4, 64);
        assert_eq!(c.capacity(), 4096);
        for addr in (0..2048).step_by(8) {
            c.access(addr);
        }
        c.reset_stats();
        for addr in (0..2048).step_by(8) {
            c.access(addr);
        }
        assert_eq!(c.stats().misses, 0, "{:?}", c.stats());
    }

    #[test]
    fn streaming_beyond_capacity_misses_once_per_line() {
        let mut c = Cache::with_geometry(16, 4, 64); // 4 KiB
                                                     // Stream 64 KiB of u64s.
        for addr in (0..65536u64).step_by(8) {
            c.access(addr);
        }
        let st = c.stats();
        let expect = 65536 / 64;
        assert_eq!(st.misses, expect, "one miss per line");
        let est = estimate::streaming(65536.0, 4096.0, 8, 64);
        assert!((st.miss_ratio() - est).abs() < 1e-9);
    }

    #[test]
    fn lru_keeps_hot_line_alive() {
        let mut c = Cache::with_geometry(1, 2, 64); // 2 lines, 1 set
        let hot = 0u64;
        let a = 64u64;
        let b = 128u64;
        c.access(hot); // miss
        c.access(a); // miss
        c.access(hot); // hit, promotes hot to MRU
        c.access(b); // miss, evicts a (LRU), not hot
        assert!(c.access(hot), "hot line must survive");
        assert!(!c.access(a), "a was evicted");
    }

    #[test]
    fn random_within_ws_matches_resident_fraction_estimate() {
        let cap = 16 * 1024u64;
        let ws = 128 * 1024u64;
        let mut c = Cache::with_geometry(64, 4, 64);
        assert_eq!(c.capacity(), cap);
        // Deterministic LCG addresses within ws.
        let mut x = 12345u64;
        // Warm up.
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            c.access((x >> 11) % ws);
        }
        c.reset_stats();
        for _ in 0..100_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            c.access((x >> 11) % ws);
        }
        let measured = c.stats().miss_ratio();
        let est = estimate::random_in_ws(ws as f64, cap as f64);
        assert!(
            (measured - est).abs() < 0.06,
            "measured {measured:.3} vs estimate {est:.3}"
        );
    }

    #[test]
    fn non_power_of_two_sets_work() {
        // 11-way, 52 sets (Xeon-8170-like slice geometry).
        let mut c = Cache::with_geometry(52, 11, 64);
        for addr in (0..c.capacity()).step_by(64) {
            c.access(addr);
        }
        c.reset_stats();
        for addr in (0..c.capacity()).step_by(64) {
            c.access(addr);
        }
        // Modulo indexing maps the linear sweep perfectly: all hits.
        assert_eq!(c.stats().misses, 0);
    }

    /// Textbook true LRU: one most-recent-first list of line numbers per
    /// set, no packing, no rotation tricks.
    struct ReferenceLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
        line_bytes: u64,
    }

    impl ReferenceLru {
        fn new(sets: usize, ways: usize, line_bytes: u32) -> Self {
            Self {
                sets: vec![Vec::new(); sets],
                ways,
                line_bytes: u64::from(line_bytes),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let hit = match set.iter().position(|&l| l == line) {
                Some(w) => {
                    set.remove(w);
                    true
                }
                None => {
                    set.truncate(self.ways - 1);
                    false
                }
            };
            set.insert(0, line);
            hit
        }
    }

    /// The first address past the range [`Cache`] documents.
    fn addressable_bytes(sets: usize, line: u32) -> u64 {
        u64::from(u32::MAX) * sets as u64 * u64::from(line)
    }

    #[test]
    fn matches_reference_lru_access_by_access() {
        // Power-of-two and non-power-of-two set counts (the latter is the
        // Xeon 8170's 11-way L3 slice shape), several line sizes.
        let geometries = [
            (64, 8, 64),
            (16, 4, 64),
            (52, 11, 64),
            (13, 3, 128),
            (1, 2, 64),
        ];
        for (sets, ways, line) in geometries {
            let span = (sets * ways) as u64 * u64::from(line) * 3;
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ span;
            let mut random = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 11
            };
            let random_stream: Vec<u64> = (0..40_000).map(|_| random() % span).collect();
            let strided_stream: Vec<u64> = [8u64, 64, 72, 4096, 4160]
                .iter()
                .flat_map(|&stride| (0..8_000u64).map(move |i| (i * stride) % span))
                .collect();
            // Two sets, each hit by 3×ways distinct tags spread over the
            // whole tag range, up to the last addressable line: every way
            // of a set holds a different tag, and tags far apart must
            // never alias.
            let bound = addressable_bytes(sets, line);
            let lines = bound / u64::from(line);
            let tag_count = 3 * ways as u64;
            let tags: Vec<u64> = (0..tag_count)
                .map(|j| (lines / sets as u64 - 1) / (tag_count - 1) * j)
                .chain([lines / sets as u64 - 1])
                .collect();
            let conflict_stream: Vec<u64> = (0..20_000)
                .map(|_| {
                    let r = random();
                    let set = (sets as u64 - 1) * (r & 1);
                    let tag = tags[(r >> 1) as usize % tags.len()];
                    (tag * sets as u64 + set) * u64::from(line) + (r >> 20) % u64::from(line)
                })
                .chain([bound - 1, bound - u64::from(line), bound - 1])
                .collect();
            for stream in [random_stream, strided_stream, conflict_stream] {
                let mut cache = Cache::with_geometry(sets, ways, line);
                let mut reference = ReferenceLru::new(sets, ways, line);
                for (i, &addr) in stream.iter().enumerate() {
                    assert_eq!(
                        cache.access(addr),
                        reference.access(addr),
                        "{sets}x{ways}x{line}: access {i} to {addr:#x}"
                    );
                }
                assert!(cache.stats().misses > 0 && cache.stats().misses < cache.stats().accesses);
            }
        }
    }

    #[test]
    #[should_panic(expected = "addressable range")]
    fn address_past_the_range_panics_with_power_of_two_sets() {
        let mut c = Cache::with_geometry(64, 8, 64);
        c.access(addressable_bytes(64, 64));
    }

    #[test]
    #[should_panic(expected = "addressable range")]
    fn address_past_the_range_panics_with_modulo_sets() {
        let mut c = Cache::with_geometry(52, 11, 64);
        c.access(addressable_bytes(52, 64));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Cache::with_geometry(4, 2, 64);
        c.access(0);
        c.access(64);
        c.flush();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0), "flushed line must miss");
    }

    #[test]
    fn estimates_are_monotone_in_working_set() {
        let cap = 32768.0;
        let mut prev = 0.0;
        for ws_kb in [16.0, 32.0, 64.0, 128.0, 256.0] {
            let m = estimate::random_in_ws(ws_kb * 1024.0, cap);
            assert!(m >= prev);
            prev = m;
        }
    }
}
