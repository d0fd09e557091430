//! Kernel characterisation: assemble → decode → CFG → interpret a kernel
//! with its conditional branches fed to a 2-bit branch predictor, yielding
//! a deterministic instruction-granularity [`KernelCharacter`] that the
//! core engine's `Backend::Isa` prediction path consumes. Cache behaviour
//! is not replayed here: the core engine prices it with its analytic
//! hierarchy model.
//!
//! A character is a pure function of its [`CharKey`]: the kernel, the
//! extension set, whether RVV is emitted and the VLEN. Cache geometry,
//! thread count, clock, memory and core-timing fields of a machine never
//! reach it, so callers that price many machines can characterize each
//! distinct key once and share the result.

use crate::cfg::build_cfg;
use crate::interp::run;
use crate::ir::ExtSet;
use crate::kernels::{build, KernelId, MAX_STEPS};
use crate::trace::Tracer;
use rvhpc_archsim::replay::BranchPredictor;
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
/// architectural counts from the interpreter plus the branch predictor's
/// mispredicts.
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
    /// Static code properties.
    pub static_instrs: usize,
    pub compressed_instrs: usize,
    pub cfg_blocks: usize,
    pub cfg_edges: usize,
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

/// Entries of the characterization's branch predictor: the size archsim's
/// `TraceConsumer` uses, so a character's mispredicts equal a full trace
/// replay's.
const PREDICTOR_ENTRIES: usize = 1024;

/// Characterization traces only conditional branches, into the predictor.
impl Tracer for BranchPredictor {
    fn branch(&mut self, pc: u64, taken: bool) {
        self.predict_and_update(pc, taken);
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
}

impl CharKey {
    /// The key of `kernel` run on `machine`.
    pub fn new(kernel: KernelId, machine: &Machine, ext: IsaExt) -> Self {
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
        }
    }
}

/// Run the full pipeline for one kernel on one machine and return its
/// character: [`characterize_key`] of the machine's [`CharKey`]. `threads`
/// does not reach the character, since no cache is replayed; the parameter
/// is kept only because the end-to-end benchmark's layer pass
/// (`e2ebench/src/layers.rs`) calls this signature.
pub fn characterize(
    kernel: KernelId,
    machine: &Machine,
    _threads: u32,
    ext: IsaExt,
) -> KernelCharacter {
    characterize_key(&CharKey::new(kernel, machine, ext))
}

/// Run the full pipeline for one key: build, decode, build the CFG and
/// interpret the kernel once, with its branches fed to the predictor.
/// Deterministic: equal keys give equal characters. Panics if the kernel
/// traps or produces wrong results — both indicate a backend bug, never a
/// data-dependent condition.
pub fn characterize_key(key: &CharKey) -> KernelCharacter {
    let _prof = rvhpc_obs::prof::scope("isa.characterize");
    let kernel = key.kernel;
    let ext_set = key.ext.to_ext_set(key.rvv_active);
    let built = build(kernel, &ext_set, key.vlen);
    let prog = built.decode(&ext_set);
    let cfg = build_cfg(&prog);

    let mut predictor = BranchPredictor::new(PREDICTOR_ENTRIES);
    let mut cpu = built.cpu.clone();
    let stats = run(&mut cpu, &prog, &mut predictor, MAX_STEPS)
        .unwrap_or_else(|t| panic!("kernel {} trapped: {t}", kernel.name()));
    built
        .verify(&cpu)
        .unwrap_or_else(|e| panic!("kernel {} verification failed: {e}", kernel.name()));
    debug_assert_eq!(predictor.branches(), stats.branches);

    KernelCharacter {
        kernel,
        ext: key.ext,
        rvv_active: key.rvv_active,
        elems: built.elems,
        flops_per_elem: built.flops_per_elem,
        instret: stats.instret,
        loads: stats.loads,
        stores: stats.stores,
        branches: stats.branches,
        mispredicts: predictor.mispredicts(),
        vector_ops: stats.vector_ops,
        vector_elems: stats.vector_elems,
        static_instrs: prog.instrs.len(),
        compressed_instrs: prog.compressed_count(),
        cfg_blocks: cfg.block_count(),
        cfg_edges: cfg.edge_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_archsim::replay::{TraceConsumer, TraceEvent};

    /// The kernels' few branches sit within a hundred bytes, where no
    /// predictor size aliases; this stream spreads branches over 16 KiB so
    /// that any other table size mispredicts differently.
    #[test]
    fn branch_tracing_predicts_like_a_trace_replay() {
        let mut predictor = BranchPredictor::new(PREDICTOR_ENTRIES);
        let mut consumer = TraceConsumer::for_thread(&rvhpc_machines::presets::sg2044(), 1);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x1_0000 + ((x >> 33) % 8192) * 2;
            let taken = !(pc >> 1).is_multiple_of(3) || x & 0xf == 0;
            Tracer::branch(&mut predictor, pc, taken);
            consumer.consume(TraceEvent::Branch { pc, taken });
        }
        let reference = consumer.stats();
        assert_eq!(predictor.branches(), reference.branches);
        assert_eq!(predictor.mispredicts(), reference.mispredicts);
    }
}
