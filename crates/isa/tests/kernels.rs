//! End-to-end kernel tests: every kernel assembles, decodes, builds a CFG,
//! interprets to completion, and verifies bit-exactly against the Rust
//! reference — under every extension configuration. Ablation deltas that the
//! CLI and CI rely on are asserted here too.

use rvhpc_isa::interp::run;
use rvhpc_isa::ir::ExtSet;
use rvhpc_isa::kernels::{build, MAX_STEPS};
use rvhpc_isa::trace::{NullTracer, Tracer};
use rvhpc_isa::{build_cfg, characterize, Instr, IsaExt, KernelId};

fn ext_configs() -> Vec<ExtSet> {
    vec![
        ExtSet::full(),
        ExtSet {
            zba: false,
            ..ExtSet::full()
        },
        ExtSet {
            zbb: false,
            ..ExtSet::full()
        },
        ExtSet {
            v: false,
            ..ExtSet::full()
        },
        ExtSet::rv64imac(),
    ]
}

#[test]
fn all_kernels_run_and_verify_under_all_ext_configs() {
    for id in KernelId::ALL {
        for ext in ext_configs() {
            let built = build(id, &ext, 128);
            let prog = built.decode(&ext);
            let cfg = build_cfg(&prog);
            assert!(cfg.block_count() >= 2, "{}: CFG too small", id.name());
            let mut cpu = built.cpu.clone();
            let stats = run(&mut cpu, &prog, &mut NullTracer, MAX_STEPS)
                .unwrap_or_else(|t| panic!("{} {ext:?}: {t}", id.name()));
            assert!(
                stats.instret > built.elems,
                "{}: suspiciously low instret",
                id.name()
            );
            built
                .verify(&cpu)
                .unwrap_or_else(|e| panic!("{} {ext:?}: {e}", id.name()));
        }
    }
}

/// Counts every hook call, to compare static and dynamic dispatch.
#[derive(Default, PartialEq, Debug)]
struct Counting {
    retires: u64,
    mems: u64,
    branches: u64,
    vectors: u64,
}

impl Tracer for Counting {
    fn retire(&mut self, _pc: u64, _instr: &Instr) {
        self.retires += 1;
    }
    fn mem(&mut self, _addr: u64, _bytes: u8, _is_store: bool) {
        self.mems += 1;
    }
    fn branch(&mut self, _pc: u64, _taken: bool) {
        self.branches += 1;
    }
    fn vector(&mut self, _elems: u32, _gather: bool) {
        self.vectors += 1;
    }
}

#[test]
fn trait_object_tracers_see_the_same_events() {
    let ext = ExtSet::full();
    for id in KernelId::ALL {
        let built = build(id, &ext, 256);
        let prog = built.decode(&ext);
        let mut direct = Counting::default();
        let mut cpu = built.cpu.clone();
        let a = run(&mut cpu, &prog, &mut direct, MAX_STEPS).expect("runs");
        let mut boxed = Counting::default();
        let dynamic: &mut dyn Tracer = &mut boxed;
        let mut cpu = built.cpu.clone();
        let b = run(&mut cpu, &prog, dynamic, MAX_STEPS).expect("runs");
        assert_eq!(a, b, "{}", id.name());
        assert_eq!(direct, boxed, "{}", id.name());
        assert_eq!(direct.retires, a.instret);
    }
}

#[test]
fn zba_ablation_changes_instret_on_three_kernels() {
    let m = rvhpc_machines::presets::sg2044();
    for id in [KernelId::Triad, KernelId::Spmv, KernelId::MgResid] {
        let with = characterize(
            id,
            &m,
            1,
            IsaExt {
                rvv: false,
                ..IsaExt::full()
            },
        );
        let without = characterize(
            id,
            &m,
            1,
            IsaExt {
                zba: false,
                rvv: false,
                ..IsaExt::full()
            },
        );
        assert!(
            without.instret > with.instret,
            "{}: -zba should raise instret ({} vs {})",
            id.name(),
            without.instret,
            with.instret
        );
    }
}

#[test]
fn zbb_ablation_changes_instret_on_two_kernels() {
    let m = rvhpc_machines::presets::sg2044();
    for id in [KernelId::Spmv, KernelId::EpAccum] {
        let with = characterize(
            id,
            &m,
            1,
            IsaExt {
                rvv: false,
                ..IsaExt::full()
            },
        );
        let without = characterize(
            id,
            &m,
            1,
            IsaExt {
                zbb: false,
                rvv: false,
                ..IsaExt::full()
            },
        );
        assert!(
            without.instret > with.instret,
            "{}: -zbb should raise instret ({} vs {})",
            id.name(),
            without.instret,
            with.instret
        );
    }
}

#[test]
fn zbb_fallback_is_branch_free_on_ep() {
    let m = rvhpc_machines::presets::sg2044();
    let with = characterize(
        KernelId::EpAccum,
        &m,
        1,
        IsaExt {
            rvv: false,
            ..IsaExt::full()
        },
    );
    let without = characterize(
        KernelId::EpAccum,
        &m,
        1,
        IsaExt {
            zbb: false,
            rvv: false,
            ..IsaExt::full()
        },
    );
    // The compare/mask/select sequence replaces maxu without introducing
    // data-dependent branches: the ablation is pure instruction count.
    assert_eq!(
        without.branches, with.branches,
        "branch-free max fallback must not change the branch stream"
    );
    assert_eq!(
        without.instret,
        with.instret + 4 * with.elems,
        "fallback costs exactly four extra instructions per element"
    );
}

#[test]
fn rvv_lowers_triad_instret() {
    let m = rvhpc_machines::presets::sg2044();
    assert!(m.vector.is_rvv(), "SG2044 should be an RVV machine");
    let vec = characterize(KernelId::Triad, &m, 1, IsaExt::full());
    let scalar = characterize(
        KernelId::Triad,
        &m,
        1,
        IsaExt {
            rvv: false,
            ..IsaExt::full()
        },
    );
    assert!(vec.rvv_active);
    assert!(!scalar.rvv_active);
    assert!(
        vec.instret < scalar.instret,
        "vectorised triad should retire fewer instructions ({} vs {})",
        vec.instret,
        scalar.instret
    );
    assert!(vec.vector_ops > 0);
    assert_eq!(scalar.vector_ops, 0);
}

#[test]
fn characterization_is_deterministic() {
    let m = rvhpc_machines::presets::sg2044();
    let a = characterize(KernelId::Spmv, &m, 8, IsaExt::full());
    let b = characterize(KernelId::Spmv, &m, 8, IsaExt::full());
    assert_eq!(a, b);
}

#[test]
fn spmv_has_realistic_branch_misses() {
    let m = rvhpc_machines::presets::sg2044();
    let ch = characterize(KernelId::Spmv, &m, 1, IsaExt::full());
    // The inner loop exits once per row; the 2-bit predictor misses there.
    assert!(ch.mispredicts > 0, "expected some mispredicts");
    let rate = ch.branch_misrate();
    assert!(
        rate > 0.001 && rate < 0.2,
        "miss rate {rate} out of plausible range"
    );
}

#[test]
fn compressed_instructions_present_in_kernel_code() {
    for id in KernelId::ALL {
        let ext = ExtSet {
            v: false,
            ..ExtSet::full()
        };
        let built = build(id, &ext, 128);
        let prog = built.decode(&ext);
        assert!(
            prog.compressed_count() > 0,
            "{}: expected compressed instructions in the stream",
            id.name()
        );
    }
}
