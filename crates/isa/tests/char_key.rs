//! A kernel character is a pure function of its `CharKey`: machine fields
//! outside the key never change it, and every field inside the key does
//! change the key.

use rvhpc_isa::{characterize, characterize_key, CharKey, IsaExt, KernelId};
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

#[test]
fn clock_memory_and_core_fields_never_reach_the_character() {
    let base = presets::sg2044();
    let other = retimed(&base);
    for kernel in KernelId::ALL {
        for threads in [1, 64] {
            let ext = IsaExt::full();
            assert_eq!(
                CharKey::new(kernel, &base, threads, ext),
                CharKey::new(kernel, &other, threads, ext)
            );
            let a = characterize(kernel, &base, threads, ext);
            let b = characterize(kernel, &other, threads, ext);
            assert_eq!(a, b, "{} @ {threads} threads", kernel.name());
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
    let key = CharKey::new(KernelId::EpAccum, &m, 16, ext);
    assert_eq!(
        characterize(KernelId::EpAccum, &m, 16, ext),
        characterize_key(&key)
    );
}

#[test]
fn every_geometry_vlen_and_extension_change_moves_the_key() {
    let base = presets::sg2044();
    let threads = 16;
    let key_of = |m: &Machine, ext: IsaExt| CharKey::new(KernelId::Spmv, m, threads, ext);
    let reference = key_of(&base, IsaExt::full());

    type Edit = fn(&mut Machine);
    let edits: [(&str, Edit); 12] = [
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
        ("vlen", |m| m.vector = VectorIsa::Rvv1_0 { vlen_bits: 256 }),
        ("no rvv", |m| m.vector = VectorIsa::None),
    ];
    for (what, edit) in edits {
        let mut m = base.clone();
        edit(&mut m);
        assert_ne!(key_of(&m, IsaExt::full()), reference, "{what}");
    }

    let exts = [
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
    ];
    for ext in exts {
        assert_ne!(key_of(&base, ext), reference, "{}", ext.label());
    }

    // The thread count reaches the key only through the cache shares.
    assert_ne!(
        CharKey::new(KernelId::Spmv, &base, 64, IsaExt::full()),
        reference,
        "64 threads split the L3 four times finer than 16"
    );
}
