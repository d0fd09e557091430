//! A kernel character is a pure function of its `CharKey`: machine fields
//! outside the key never change it, every field inside the key does change
//! the key, and the counts a character shares with a full archsim trace
//! replay equal that replay's.

use rvhpc_archsim::{TraceConsumer, TraceEvent};
use rvhpc_isa::interp::run;
use rvhpc_isa::kernels::{build, MAX_STEPS};
use rvhpc_isa::{characterize, characterize_key, CharKey, Instr, IsaExt, KernelId, Tracer};
use rvhpc_machines::{presets, Machine, VectorIsa};

/// The SG2044 with every clock, memory and core-timing field moved.
fn retimed(base: &Machine) -> Machine {
    let mut m = base.clone();
    m.clock_ghz *= 1.7;
    m.memory.sustained_fraction *= 0.6;
    m.memory.channels *= 2;
    m.memory.mt_per_s += 800;
    m.memory.idle_latency_ns *= 1.5;
    m.core.mlp *= 1.3;
    m.core.stream_mlp *= 0.8;
    m.core.scalar_ipc *= 1.2;
    m.core.issue_width += 2;
    m.core.branch_miss_penalty += 5;
    m.core.out_of_order = !m.core.out_of_order;
    m
}

type Edit = fn(&mut Machine);

/// Clock, memory, core-timing and cache edits of the SG2044, run at
/// several thread counts: none of it reaches the key or the character.
#[test]
fn clock_memory_and_core_fields_never_reach_the_character() {
    let base = presets::sg2044();
    let edits: [(&str, Edit); 11] = [
        ("timing", |m| *m = retimed(m)),
        ("l1 size", |m| m.l1d.size_bytes *= 2),
        ("l1 ways", |m| m.l1d.associativity *= 2),
        ("line size", |m| m.l1d.line_bytes *= 2),
        ("l2 size", |m| m.l2.size_bytes *= 2),
        ("l2 ways", |m| m.l2.associativity += 1),
        ("l2 sharers", |m| m.l2.shared_by_cores = 1),
        ("l3 size", |m| {
            m.l3.as_mut().expect("sg2044 has an L3").size_bytes /= 2
        }),
        ("l3 ways", |m| {
            m.l3.as_mut().expect("sg2044 has an L3").associativity = 11
        }),
        ("l3 sharers", |m| {
            m.l3.as_mut().expect("sg2044 has an L3").shared_by_cores = 4
        }),
        ("no l3", |m| m.l3 = None),
    ];
    let ext = IsaExt::full();
    for kernel in KernelId::ALL {
        let key = CharKey::new(kernel, &base, ext);
        let reference = characterize(kernel, &base, 16, ext);
        for (what, edit) in edits {
            let mut m = base.clone();
            edit(&mut m);
            assert_eq!(CharKey::new(kernel, &m, ext), key, "{what}");
            for threads in [1, 64] {
                assert_eq!(
                    characterize(kernel, &m, threads, ext),
                    reference,
                    "{} {what} @ {threads} threads",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn characterize_is_characterize_key_of_the_machine_key() {
    let m = presets::sg2042();
    let ext = IsaExt {
        zbb: false,
        ..IsaExt::full()
    };
    let key = CharKey::new(KernelId::EpAccum, &m, ext);
    assert_eq!(
        characterize(KernelId::EpAccum, &m, 16, ext),
        characterize_key(&key)
    );
}

#[test]
fn every_vlen_and_extension_change_moves_the_key() {
    let base = presets::sg2044();
    let key_of = |m: &Machine, ext: IsaExt| CharKey::new(KernelId::Spmv, m, ext);
    let reference = key_of(&base, IsaExt::full());

    let edits: [(&str, Edit); 2] = [
        ("vlen", |m| m.vector = VectorIsa::Rvv1_0 { vlen_bits: 256 }),
        ("no rvv", |m| m.vector = VectorIsa::None),
    ];
    for (what, edit) in edits {
        let mut m = base.clone();
        edit(&mut m);
        assert_ne!(key_of(&m, IsaExt::full()), reference, "{what}");
    }
    for ext in &ablations()[1..] {
        assert_ne!(key_of(&base, *ext), reference, "{}", ext.label());
    }
}

/// The extension ablations the paper's compiler-flag sweeps cover.
fn ablations() -> [IsaExt; 4] {
    [
        IsaExt::full(),
        IsaExt {
            zba: false,
            ..IsaExt::full()
        },
        IsaExt {
            zbb: false,
            ..IsaExt::full()
        },
        IsaExt {
            rvv: false,
            ..IsaExt::full()
        },
    ]
}

/// Records every interpreter event as the archsim event it replays as.
struct Recorder(Vec<TraceEvent>);

impl Tracer for Recorder {
    fn retire(&mut self, _pc: u64, _instr: &Instr) {
        self.0.push(TraceEvent::Retire);
    }

    fn mem(&mut self, addr: u64, bytes: u8, is_store: bool) {
        self.0.push(if is_store {
            TraceEvent::Store { addr, bytes }
        } else {
            TraceEvent::Load { addr, bytes }
        });
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.0.push(TraceEvent::Branch { pc, taken });
    }

    fn vector(&mut self, elems: u32, gather: bool) {
        self.0.push(TraceEvent::Vector { elems, gather });
    }
}

/// Differential test against the full cache/TLB/branch replay as
/// reference: the same program, recorded and replayed through archsim's
/// `TraceConsumer`, gives the counts a character carries.
#[test]
fn characters_match_a_full_trace_replay() {
    let mut sg2044_vlen256 = presets::sg2044();
    sg2044_vlen256.vector = VectorIsa::Rvv1_0 { vlen_bits: 256 };
    let runs = [
        (presets::sg2044(), 16),
        (presets::sg2042(), 64),
        (sg2044_vlen256, 16),
    ];
    let mut mispredicting = 0;
    for (machine, threads) in &runs {
        for kernel in KernelId::ALL {
            for ext in ablations() {
                let what = format!(
                    "{} {} on {} {:?}",
                    kernel.name(),
                    ext.label(),
                    machine.part,
                    machine.vector
                );
                let ch = characterize(kernel, machine, *threads, ext);
                let vlen = if ch.rvv_active {
                    machine.vector.width_bits()
                } else {
                    128
                };
                let ext_set = ext.to_ext_set(ch.rvv_active);
                let built = build(kernel, &ext_set, vlen);
                let prog = built.decode(&ext_set);
                let mut cpu = built.cpu.clone();
                let mut recorder = Recorder(Vec::new());
                run(&mut cpu, &prog, &mut recorder, MAX_STEPS).expect("kernel runs");

                let mut consumer = TraceConsumer::for_thread(machine, *threads);
                for &ev in &recorder.0 {
                    consumer.consume(ev);
                }
                let r = consumer.stats();
                assert_eq!(
                    [
                        ch.instret,
                        ch.loads,
                        ch.stores,
                        ch.branches,
                        ch.mispredicts,
                        ch.vector_ops,
                        ch.vector_elems
                    ],
                    [
                        r.instret,
                        r.loads,
                        r.stores,
                        r.branches,
                        r.mispredicts,
                        r.vector_ops,
                        r.vector_elems
                    ],
                    "{what}"
                );
                if ch.mispredicts > 0 {
                    mispredicting += 1;
                }
            }
        }
    }
    assert!(mispredicting > 0, "no run exercised the predictor");
}
