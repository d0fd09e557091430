//! Trace-consuming front door next to `simulate`: the instruction-level
//! backend (`rvhpc-isa`) interprets real RV64 code and streams
//! [`TraceEvent`]s here, where they drive the same per-thread cache/TLB
//! models used by the stream replays, plus a deterministic 2-bit branch
//! predictor. The resulting [`ReplayStats`] characterise a kernel at
//! instruction granularity without any wall-clock or randomness.

use crate::cache::CacheStats;
use crate::counters::HierarchyCounters;
use crate::simulate::{HierarchyGeometry, TraceHierarchy};
use crate::tlb::Tlb;
use rvhpc_machines::Machine;

/// One event emitted by an instruction-level frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    Load { addr: u64, bytes: u8 },
    Store { addr: u64, bytes: u8 },
    Branch { pc: u64, taken: bool },
    Vector { elems: u32, gather: bool },
    Retire,
}

/// Deterministic 2-bit saturating-counter branch predictor, direct-mapped
/// on the half-word-aligned pc. Counters start at 1 (weakly not-taken).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<u8>,
    mask: u64,
    branches: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor entries must be a power of two"
        );
        BranchPredictor {
            table: vec![1; entries],
            mask: entries as u64 - 1,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Record the outcome of a conditional branch at `pc`; returns true if
    /// the prediction was wrong.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let slot = ((pc >> 1) & self.mask) as usize;
        let counter = &mut self.table[slot];
        let predicted_taken = *counter >= 2;
        let miss = predicted_taken != taken;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.branches += 1;
        if miss {
            self.mispredicts += 1;
        }
        miss
    }

    pub fn branches(&self) -> u64 {
        self.branches
    }

    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    pub fn miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Characterisation of a replayed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    pub instret: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub vector_ops: u64,
    pub vector_elems: u64,
    pub gather_ops: u64,
    pub hierarchy: HierarchyCounters,
    pub tlb: CacheStats,
}

impl ReplayStats {
    pub fn branch_miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Consumes a trace-event stream into per-thread cache hierarchies, the
/// L1 dTLB model, and a branch predictor. One consumer models one hardware
/// thread under one or more cache geometries at once: the TLB, predictor
/// and event counts depend on no geometry and are kept once, while every
/// memory event also drives one [`TraceHierarchy`] per geometry. Equal
/// geometries replay a trace to equal [`ReplayStats`], whether or not they
/// share a consumer.
pub struct TraceConsumer {
    hiers: Vec<TraceHierarchy>,
    tlb: Tlb,
    predictor: BranchPredictor,
    instret: u64,
    loads: u64,
    stores: u64,
    vector_ops: u64,
    vector_elems: u64,
    gather_ops: u64,
}

impl TraceConsumer {
    /// A consumer replaying into one hierarchy per entry of `geometries`
    /// (at least one), in order.
    pub fn with_geometries(geometries: &[HierarchyGeometry]) -> Self {
        assert!(!geometries.is_empty(), "a consumer needs a geometry");
        TraceConsumer {
            hiers: geometries.iter().map(TraceHierarchy::new).collect(),
            tlb: Tlb::typical_l1_dtlb(),
            predictor: BranchPredictor::new(1024),
            instret: 0,
            loads: 0,
            stores: 0,
            vector_ops: 0,
            vector_elems: 0,
            gather_ops: 0,
        }
    }

    /// A consumer whose caches have `geometry`.
    pub fn new(geometry: &HierarchyGeometry) -> Self {
        Self::with_geometries(std::slice::from_ref(geometry))
    }

    /// One thread of `threads` on `machine`, sharing L2/L3 capacity the
    /// same way the stream replays do.
    pub fn for_thread(machine: &Machine, threads: u32) -> Self {
        Self::new(&HierarchyGeometry::for_thread(machine, threads))
    }

    /// Replay one event. Inlined into the per-event tracer hooks of other
    /// crates, where the event kind is usually a constant.
    #[inline]
    pub fn consume(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Load { addr, .. } => {
                self.loads += 1;
                self.mem(addr);
            }
            TraceEvent::Store { addr, .. } => {
                self.stores += 1;
                self.mem(addr);
            }
            TraceEvent::Branch { pc, taken } => {
                self.predictor.predict_and_update(pc, taken);
            }
            TraceEvent::Vector { elems, gather } => {
                self.vector_ops += 1;
                self.vector_elems += elems as u64;
                if gather {
                    self.gather_ops += 1;
                }
            }
            TraceEvent::Retire => self.instret += 1,
        }
    }

    fn mem(&mut self, addr: u64) {
        self.tlb.access(addr);
        for hier in &mut self.hiers {
            hier.access(addr);
        }
    }

    /// The statistics under the first geometry: the only one of a consumer
    /// built by [`TraceConsumer::new`] or [`TraceConsumer::for_thread`].
    pub fn stats(&self) -> ReplayStats {
        self.geometry_stats(0)
    }

    /// The statistics under the `i`-th geometry given to
    /// [`TraceConsumer::with_geometries`].
    pub fn geometry_stats(&self, i: usize) -> ReplayStats {
        ReplayStats {
            instret: self.instret,
            loads: self.loads,
            stores: self.stores,
            branches: self.predictor.branches(),
            mispredicts: self.predictor.mispredicts(),
            vector_ops: self.vector_ops,
            vector_elems: self.vector_elems,
            gather_ops: self.gather_ops,
            hierarchy: self.hiers[i].counters(),
            tlb: self.tlb.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn predictor_learns_a_loop() {
        let mut bp = BranchPredictor::new(64);
        // 100 taken branches at the same pc: the first two mispredict
        // (counter starts weakly-not-taken), then it locks on.
        for _ in 0..100 {
            bp.predict_and_update(0x1000, true);
        }
        assert_eq!(bp.branches(), 100);
        assert!(bp.mispredicts() <= 2, "mispredicts = {}", bp.mispredicts());
    }

    #[test]
    fn consumer_counts_are_deterministic() {
        let machine = rvhpc_machines::presets::sg2044();
        let run = || {
            let mut c = TraceConsumer::for_thread(&machine, 4);
            for i in 0..10_000u64 {
                c.consume(TraceEvent::Retire);
                c.consume(TraceEvent::Load {
                    addr: 0x10_0000 + (i * 64) % 65536,
                    bytes: 8,
                });
                c.consume(TraceEvent::Branch {
                    pc: 0x1000,
                    taken: i % 17 != 0,
                });
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    /// A deterministic stream with loads, stores, branches, vector ops
    /// and retires over a 3 MiB footprint: past every L1 and L2 share,
    /// inside some L3 shares.
    fn recorded_stream() -> Vec<TraceEvent> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut events = Vec::new();
        for i in 0..60_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let offset = match i % 3 {
                0 => (i * 8) % (3 << 20),
                1 => (x >> 20) % (3 << 20),
                _ => (i * 4160) % (1 << 20),
            };
            let addr = 0x10_0000 + offset;
            events.push(TraceEvent::Retire);
            events.push(if x & 0x300 == 0 {
                TraceEvent::Store { addr, bytes: 8 }
            } else {
                TraceEvent::Load { addr, bytes: 8 }
            });
            if i % 5 == 0 {
                events.push(TraceEvent::Branch {
                    pc: 0x1000 + (i % 40) * 4,
                    taken: x & 0x7 != 0,
                });
            }
            if i % 11 == 0 {
                events.push(TraceEvent::Vector {
                    elems: 4,
                    gather: i % 22 == 0,
                });
            }
        }
        events
    }

    #[test]
    fn fan_out_matches_independent_consumers_per_geometry() {
        use rvhpc_machines::presets;
        let sg2044 = HierarchyGeometry::for_thread(&presets::sg2044(), 16);
        let geometries = [
            sg2044,
            HierarchyGeometry::for_thread(&presets::banana_pi_f3(), 8),
            HierarchyGeometry::for_thread(&presets::xeon8170(), 1),
            sg2044,
            HierarchyGeometry::for_thread(&presets::sg2044(), 1),
        ];
        assert!(geometries[1].l3.is_none(), "the X60 has no L3");
        let l3 = geometries[2].l3.expect("the Xeon 8170 has an L3");
        assert!(!l3.sets.is_power_of_two(), "{l3:?}");

        let events = recorded_stream();
        let mut fan_out = TraceConsumer::with_geometries(&geometries);
        for &ev in &events {
            fan_out.consume(ev);
        }
        for (i, geometry) in geometries.iter().enumerate() {
            let mut single = TraceConsumer::new(geometry);
            for &ev in &events {
                single.consume(ev);
            }
            assert_eq!(fan_out.geometry_stats(i), single.stats(), "geometry {i}");
        }
        let dram = |i: usize| fan_out.geometry_stats(i).hierarchy.dram;
        assert_ne!(dram(0), dram(1), "geometries must replay differently");
        assert_eq!(fan_out.geometry_stats(0), fan_out.geometry_stats(3));
        assert_eq!(fan_out.stats(), fan_out.geometry_stats(0));
    }
}
