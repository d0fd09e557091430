//! Kernel characterisation: assemble → decode → CFG → interpret a kernel
//! with trace events routed into the archsim replay models, yielding a
//! deterministic instruction-granularity [`KernelCharacter`] that the core
//! engine's `Backend::Isa` prediction path consumes.
//!
//! A character is a pure function of its [`CharKey`]: the kernel, the
//! extension set, whether RVV is emitted, the VLEN and the per-thread
//! cache geometry. Clock, memory and core-timing fields of a machine never
//! reach it, so callers that price many machines can characterize each
//! distinct key once and share the result. Only the cache replay reads the
//! geometry: [`characterize_keys`] interprets a kernel once for every key
//! that differs only there, fanning the events out to one hierarchy per
//! geometry without storing a trace.

use crate::cfg::build_cfg;
use crate::interp::run;
use crate::ir::{ExtSet, Instr};
use crate::kernels::{build, KernelId, MAX_STEPS};
use crate::trace::Tracer;
use rvhpc_archsim::cache::CacheStats;
use rvhpc_archsim::counters::HierarchyCounters;
use rvhpc_archsim::replay::{TraceConsumer, TraceEvent};
use rvhpc_archsim::HierarchyGeometry;
use rvhpc_machines::Machine;

/// The ablatable extension dimensions of the instruction-level backend.
/// `rvv` is a request: it only takes effect on machines whose vector unit
/// is RVV (see [`CharKey::new`]), mirroring how the compiler flag sweeps in
/// the paper only matter on hardware that has the extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaExt {
    pub zba: bool,
    pub zbb: bool,
    pub rvv: bool,
}

impl IsaExt {
    pub fn full() -> Self {
        IsaExt {
            zba: true,
            zbb: true,
            rvv: true,
        }
    }

    pub fn to_ext_set(self, rvv_active: bool) -> ExtSet {
        ExtSet {
            m: true,
            a: true,
            c: true,
            zba: self.zba,
            zbb: self.zbb,
            v: rvv_active,
        }
    }

    /// Short human-readable form, e.g. "+zba+zbb-rvv".
    pub fn label(self) -> String {
        let sign = |on: bool| if on { '+' } else { '-' };
        format!(
            "{}zba{}zbb{}rvv",
            sign(self.zba),
            sign(self.zbb),
            sign(self.rvv)
        )
    }
}

impl Default for IsaExt {
    fn default() -> Self {
        IsaExt::full()
    }
}

/// Everything the prediction backend needs to know about one kernel run:
/// architectural counts from the interpreter plus microarchitectural counts
/// from the replay models.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCharacter {
    pub kernel: KernelId,
    pub ext: IsaExt,
    /// Whether the RVV path was actually emitted (machine has RVV and
    /// `ext.rvv` was requested).
    pub rvv_active: bool,
    /// Units of useful work (elements / nonzeros / samples).
    pub elems: u64,
    pub flops_per_elem: f64,
    pub instret: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub vector_ops: u64,
    pub vector_elems: u64,
    pub gather_ops: u64,
    /// Static code properties.
    pub static_instrs: usize,
    pub compressed_instrs: usize,
    pub cfg_blocks: usize,
    pub cfg_edges: usize,
    /// Measured cache-hierarchy service counts for the kernel's (small)
    /// working set — a cross-check against the analytic hierarchy, not a
    /// class-scale measurement.
    pub hierarchy: HierarchyCounters,
    pub tlb: CacheStats,
}

impl KernelCharacter {
    pub fn instret_per_elem(&self) -> f64 {
        self.instret as f64 / self.elems as f64
    }

    pub fn refs_per_elem(&self) -> f64 {
        (self.loads + self.stores) as f64 / self.elems as f64
    }

    pub fn branch_rate(&self) -> f64 {
        self.branches as f64 / self.instret as f64
    }

    pub fn branch_misrate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Guest flops per retired guest instruction (rvr's "ops/guest" notion,
    /// applied to useful work).
    pub fn ops_per_instr(&self) -> f64 {
        self.flops_per_elem * self.elems as f64 / self.instret as f64
    }
}

/// Tracer adapter: forwards interpreter hooks into a [`TraceConsumer`].
struct ReplayTracer<'a> {
    consumer: &'a mut TraceConsumer,
}

impl Tracer for ReplayTracer<'_> {
    fn retire(&mut self, _pc: u64, _instr: &Instr) {
        self.consumer.consume(TraceEvent::Retire);
    }

    fn mem(&mut self, addr: u64, bytes: u8, is_store: bool) {
        let ev = if is_store {
            TraceEvent::Store { addr, bytes }
        } else {
            TraceEvent::Load { addr, bytes }
        };
        self.consumer.consume(ev);
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.consumer.consume(TraceEvent::Branch { pc, taken });
    }

    fn vector(&mut self, elems: u32, gather: bool) {
        self.consumer.consume(TraceEvent::Vector { elems, gather });
    }
}

/// Everything a [`KernelCharacter`] depends on. [`characterize_key`] reads
/// nothing else, so equal keys give equal characters. Built only by
/// [`CharKey::new`], so every key is one some machine produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CharKey {
    kernel: KernelId,
    ext: IsaExt,
    /// Whether the RVV path is emitted: `ext.rvv` on a machine whose
    /// vector unit is RVV.
    rvv_active: bool,
    /// Vector register width the kernel is built for (128 when RVV is off).
    vlen: u32,
    /// The cache geometry one thread sees.
    geometry: HierarchyGeometry,
}

impl CharKey {
    /// The key of `kernel` run by one of `threads` threads on `machine`.
    pub fn new(kernel: KernelId, machine: &Machine, threads: u32, ext: IsaExt) -> Self {
        let rvv_active = ext.rvv && machine.vector.is_rvv();
        let vlen = if rvv_active {
            machine.vector.width_bits().max(64)
        } else {
            128
        };
        CharKey {
            kernel,
            ext,
            rvv_active,
            vlen,
            geometry: HierarchyGeometry::for_thread(machine, threads.max(1)),
        }
    }

    /// Whether `self` and `other` run the same program — equal kernel,
    /// extensions and VLEN — and so differ at most in cache geometry:
    /// one interpretation characterizes both ([`characterize_keys`]).
    pub fn interprets_like(&self, other: &CharKey) -> bool {
        (self.kernel, self.ext, self.rvv_active, self.vlen)
            == (other.kernel, other.ext, other.rvv_active, other.vlen)
    }
}

/// Run the full pipeline for one kernel on one machine and return its
/// character: [`characterize_key`] of the machine's [`CharKey`].
pub fn characterize(
    kernel: KernelId,
    machine: &Machine,
    threads: u32,
    ext: IsaExt,
) -> KernelCharacter {
    characterize_key(&CharKey::new(kernel, machine, threads, ext))
}

/// Run the full pipeline for one key: [`characterize_keys`] of a one-key
/// group.
pub fn characterize_key(key: &CharKey) -> KernelCharacter {
    characterize_keys(std::slice::from_ref(key))
        .pop()
        .expect("one character per key")
}

/// Characterize a group of keys that all [interpret
/// alike](CharKey::interprets_like), returning one character per key in
/// order. The kernel is built, decoded and interpreted once; its events go
/// live to one shared TLB and branch predictor and to one cache hierarchy
/// per distinct geometry, so no trace is stored. Deterministic: each
/// character equals the one its key gets alone, whatever the group. Panics
/// on a mixed group, or if the kernel traps or produces wrong results —
/// the latter two indicate a backend bug, never a data-dependent condition.
pub fn characterize_keys(keys: &[CharKey]) -> Vec<KernelCharacter> {
    let Some(first) = keys.first() else {
        return Vec::new();
    };
    assert!(
        keys.iter().all(|k| k.interprets_like(first)),
        "characterize_keys needs keys that differ only in cache geometry"
    );
    let _prof = rvhpc_obs::prof::scope("isa.characterize");
    let mut geometries: Vec<HierarchyGeometry> = Vec::new();
    let slots: Vec<usize> = keys
        .iter()
        .map(|k| match geometries.iter().position(|g| *g == k.geometry) {
            Some(slot) => slot,
            None => {
                geometries.push(k.geometry);
                geometries.len() - 1
            }
        })
        .collect();

    let kernel = first.kernel;
    let ext_set = first.ext.to_ext_set(first.rvv_active);
    let built = build(kernel, &ext_set, first.vlen);
    let prog = built.decode(&ext_set);
    let cfg = build_cfg(&prog);

    let mut consumer = TraceConsumer::with_geometries(&geometries);
    let mut cpu = built.cpu.clone();
    let stats = {
        let mut tracer = ReplayTracer {
            consumer: &mut consumer,
        };
        run(&mut cpu, &prog, &mut tracer, MAX_STEPS)
            .unwrap_or_else(|t| panic!("kernel {} trapped: {t}", kernel.name()))
    };
    built
        .verify(&cpu)
        .unwrap_or_else(|e| panic!("kernel {} verification failed: {e}", kernel.name()));

    slots
        .into_iter()
        .map(|slot| {
            let replay = consumer.geometry_stats(slot);
            debug_assert_eq!(replay.instret, stats.instret);
            KernelCharacter {
                kernel,
                ext: first.ext,
                rvv_active: first.rvv_active,
                elems: built.elems,
                flops_per_elem: built.flops_per_elem,
                instret: stats.instret,
                loads: stats.loads,
                stores: stats.stores,
                branches: stats.branches,
                mispredicts: replay.mispredicts,
                vector_ops: stats.vector_ops,
                vector_elems: stats.vector_elems,
                gather_ops: replay.gather_ops,
                static_instrs: prog.instrs.len(),
                compressed_instrs: prog.compressed_count(),
                cfg_blocks: cfg.block_count(),
                cfg_edges: cfg.edge_count(),
                hierarchy: replay.hierarchy,
                tlb: replay.tlb,
            }
        })
        .collect()
}
