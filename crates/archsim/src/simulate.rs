//! Multi-level trace-driven hierarchy simulation.
//!
//! Chains trace-driven [`Cache`] instances into an L1→L2→L3 hierarchy and
//! replays synthetic address streams through it, producing the same
//! [`MissBreakdown`] quantity the closed-form estimates predict — the
//! cross-validation layer between "fast analytic model" (used at paper
//! scale) and "cycle-free but faithful cache behaviour".

use rvhpc_machines::Machine;

use crate::cache::{Cache, CacheStats};
use crate::counters::HierarchyCounters;
use crate::hierarchy::MissBreakdown;
use crate::stream_gen::AddressStream;

/// Sets, ways and line size of one trace-driven cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    pub sets: usize,
    pub ways: usize,
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// The geometry holding `bytes` in `ways`-way sets of `line_bytes`
    /// lines (at least one set).
    fn for_capacity(bytes: f64, ways: u32, line_bytes: u32) -> Self {
        let sets = ((bytes / f64::from(line_bytes) / f64::from(ways)) as usize).max(1);
        Self {
            sets,
            ways: ways as usize,
            line_bytes,
        }
    }

    fn build(&self) -> Cache {
        Cache::with_geometry(self.sets, self.ways, self.line_bytes)
    }
}

/// The cache geometry one hardware thread sees: everything a
/// [`TraceHierarchy`] (and so a trace replay) depends on. Two machines
/// with equal geometries replay any trace to identical counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyGeometry {
    pub l1: CacheGeometry,
    pub l2: CacheGeometry,
    pub l3: Option<CacheGeometry>,
}

impl HierarchyGeometry {
    /// The hierarchy seen by **one thread of `threads`** on machine `m`:
    /// private L1, its share of the (possibly cluster-shared) L2, and its
    /// share of the L3. L2 and L3 use the L1 line size.
    pub fn for_thread(m: &Machine, threads: u32) -> Self {
        let threads = threads.max(1);
        let line = m.l1d.line_bytes;
        let l2_sharers = threads.min(m.l2.shared_by_cores).max(1);
        Self {
            l1: CacheGeometry {
                sets: m.l1d.sets().max(1) as usize,
                ways: m.l1d.associativity as usize,
                line_bytes: line,
            },
            l2: CacheGeometry::for_capacity(
                m.l2.size_bytes as f64 / f64::from(l2_sharers),
                m.l2.associativity,
                line,
            ),
            l3: m.l3.as_ref().map(|l3| {
                let sharers = threads.min(l3.shared_by_cores).max(1);
                CacheGeometry::for_capacity(
                    l3.size_bytes as f64 / f64::from(sharers),
                    l3.associativity,
                    line,
                )
            }),
        }
    }
}

/// A three-level (or two-level) cache hierarchy that replays address
/// traces. Caches are non-inclusive: each level is looked up on a miss in
/// the previous one and allocates on miss, mirroring the estimate model's
/// assumptions. The per-level service counts are the levels' own hit and
/// miss counts: a level's accesses are the previous level's misses, and
/// the last level's misses go to DRAM.
pub struct TraceHierarchy {
    l1: Cache,
    l2: Cache,
    l3: Option<Cache>,
    /// Counter values at the last phase-boundary snapshot.
    snapshot_mark: HierarchyCounters,
}

impl TraceHierarchy {
    /// An empty hierarchy of the given geometry.
    pub fn new(geometry: &HierarchyGeometry) -> Self {
        Self {
            l1: geometry.l1.build(),
            l2: geometry.l2.build(),
            l3: geometry.l3.as_ref().map(CacheGeometry::build),
            snapshot_mark: HierarchyCounters::default(),
        }
    }

    /// The hierarchy [`HierarchyGeometry::for_thread`] describes.
    pub fn for_thread(m: &Machine, threads: u32) -> Self {
        Self::new(&HierarchyGeometry::for_thread(m, threads))
    }

    /// Explicit capacities in bytes, 8-way at every level (for tests and
    /// ablations).
    pub fn with_capacities(l1: u64, l2: u64, l3: Option<u64>, line: u32) -> Self {
        let level = |bytes: u64| CacheGeometry {
            sets: (bytes as usize / line as usize / 8).max(1),
            ways: 8,
            line_bytes: line,
        };
        Self::new(&HierarchyGeometry {
            l1: level(l1),
            l2: level(l2),
            l3: l3.map(level),
        })
    }

    /// Replay one access.
    pub fn access(&mut self, addr: u64) {
        if !self.l1.access(addr) && !self.l2.access(addr) {
            if let Some(l3) = &mut self.l3 {
                l3.access(addr);
            }
        }
    }

    /// Replay `n` accesses from a stream.
    pub fn replay(&mut self, stream: &mut dyn AddressStream, n: usize) {
        for _ in 0..n {
            let a = stream.next_addr();
            self.access(a);
        }
    }

    /// Zero the counters (keeping cache contents — warm-up protocol).
    pub fn reset_stats(&mut self) {
        self.snapshot_mark = HierarchyCounters::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
    }

    /// Cumulative per-level service counts since the last reset.
    pub fn counters(&self) -> HierarchyCounters {
        let (l1, l2) = (self.l1.stats(), self.l2.stats());
        let l3 = self.l3.as_ref().map(Cache::stats);
        let hits = |s: CacheStats| s.accesses - s.misses;
        HierarchyCounters {
            accesses: l1.accesses,
            l1_hits: hits(l1),
            l2_hits: hits(l2),
            l3_hits: l3.map_or(0, hits),
            dram: l3.unwrap_or(l2).misses,
        }
    }

    /// Phase-boundary snapshot: the activity since the previous call (or
    /// since reset). Successive snapshots partition [`Self::counters`], so
    /// per-phase counter sets sum to the run totals.
    pub fn snapshot(&mut self) -> HierarchyCounters {
        let now = self.counters();
        let delta = now.since(&self.snapshot_mark);
        self.snapshot_mark = now;
        delta
    }

    /// The measured per-level service breakdown.
    pub fn breakdown(&self) -> MissBreakdown {
        let c = self.counters();
        if c.accesses == 0 {
            return MissBreakdown::default();
        }
        let n = c.accesses as f64;
        MissBreakdown {
            l1: c.l1_hits as f64 / n,
            l2: c.l2_hits as f64 / n,
            l3: c.l3_hits as f64 / n,
            dram: c.dram as f64 / n,
        }
    }

    /// Total accesses replayed since the last reset.
    pub fn accesses(&self) -> u64 {
        self.l1.stats().accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_gen::{RandomInWs, Sequential};
    use rvhpc_machines::presets;

    #[test]
    fn levels_serve_progressively_larger_working_sets() {
        // 32 KiB L1 / 256 KiB L2 / 2 MiB L3: a working set sized for each
        // level must be served predominantly by that level.
        let line = 64;
        let cases = [
            (16 * 1024u64, "l1"),
            (128 * 1024, "l2"),
            (1024 * 1024, "l3"),
            (64 * 1024 * 1024, "dram"),
        ];
        for (ws, expect) in cases {
            let mut h =
                TraceHierarchy::with_capacities(32 * 1024, 256 * 1024, Some(2 * 1024 * 1024), line);
            let mut s = RandomInWs::new(8, ws, 1234);
            h.replay(&mut s, 300_000); // warm
            h.reset_stats();
            h.replay(&mut s, 300_000);
            let b = h.breakdown();
            let dominant = [("l1", b.l1), ("l2", b.l2), ("l3", b.l3), ("dram", b.dram)]
                .into_iter()
                .max_by(|a, c| a.1.total_cmp(&c.1))
                .unwrap();
            assert_eq!(dominant.0, expect, "ws={ws}: {b:?}");
        }
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut h = TraceHierarchy::with_capacities(32 * 1024, 512 * 1024, None, 64);
        let mut s = Sequential::new(8, 8 * 1024 * 1024);
        h.replay(&mut s, 200_000);
        let b = h.breakdown();
        assert!((b.total() - 1.0).abs() < 1e-12);
        assert_eq!(b.l3, 0.0, "no L3 configured");
    }

    #[test]
    fn trace_agrees_with_analytic_hierarchy_for_streaming() {
        // SG2044, one thread, huge streaming working set: the analytic
        // model says 1/8 of 8-byte refs reach DRAM; the trace must concur.
        let m = presets::sg2044();
        let mut h = TraceHierarchy::for_thread(&m, 1);
        let ws = 512 * 1024 * 1024u64; // 512 MiB, beyond every level
        let mut s = Sequential::new(8, ws);
        h.replay(&mut s, 400_000);
        h.reset_stats();
        h.replay(&mut s, 400_000);
        let measured = h.breakdown();
        let analytic = crate::hierarchy::Hierarchy::for_threads(&m, 1).breakdown(
            ws as f64,
            crate::hierarchy::Pattern::Streaming { elem_bytes: 8 },
        );
        assert!(
            (measured.dram - analytic.dram).abs() < 0.02,
            "dram: trace {:.4} vs analytic {:.4}",
            measured.dram,
            analytic.dram
        );
    }

    #[test]
    fn trace_agrees_with_analytic_hierarchy_for_random() {
        // Working set between the L2 and L3 shares at full occupancy.
        let m = presets::sg2044();
        let mut h = TraceHierarchy::for_thread(&m, 64);
        let ws = 700 * 1024u64; // 700 KiB vs 512 KiB L2 share, 1 MiB L3 share
        let mut s = RandomInWs::new(8, ws, 42);
        h.replay(&mut s, 400_000);
        h.reset_stats();
        h.replay(&mut s, 400_000);
        let measured = h.breakdown();
        let analytic = crate::hierarchy::Hierarchy::for_threads(&m, 64).breakdown(
            ws as f64,
            crate::hierarchy::Pattern::RandomInWs { elem_bytes: 8 },
        );
        // The random estimate is a resident-fraction approximation; allow
        // a coarse but meaningful tolerance on the DRAM fraction.
        assert!(
            (measured.dram - analytic.dram).abs() < 0.1,
            "dram: trace {:.4} vs analytic {:.4}",
            measured.dram,
            analytic.dram
        );
        // And L1 must be near-useless for both (ws >> L1).
        assert!(measured.l1 < 0.15, "{measured:?}");
    }

    #[test]
    fn phase_snapshots_partition_the_counters() {
        let mut h = TraceHierarchy::with_capacities(32 * 1024, 256 * 1024, None, 64);
        let mut s = Sequential::new(8, 8 * 1024 * 1024);
        h.replay(&mut s, 10_000);
        let phase1 = h.snapshot();
        h.replay(&mut s, 25_000);
        let phase2 = h.snapshot();
        assert_eq!(phase1.accesses, 10_000);
        assert_eq!(phase2.accesses, 25_000);
        assert!(phase1.is_consistent() && phase2.is_consistent());
        assert_eq!(
            phase1 + phase2,
            h.counters(),
            "phase deltas must sum to the run totals"
        );
        // An immediate snapshot with no traffic is empty.
        assert_eq!(h.snapshot().accesses, 0);
    }

    #[test]
    fn reset_keeps_contents_but_zeroes_counters() {
        let mut h = TraceHierarchy::with_capacities(32 * 1024, 256 * 1024, None, 64);
        let mut s = Sequential::new(8, 16 * 1024);
        h.replay(&mut s, 4096);
        h.reset_stats();
        assert_eq!(h.accesses(), 0);
        // Warm contents: an immediate re-walk hits L1 entirely.
        h.replay(&mut s, 2048);
        let b = h.breakdown();
        assert!(b.l1 > 0.99, "{b:?}");
    }
}
