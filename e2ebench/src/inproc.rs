//! The gated workloads, both in process. `isa_sweep` resolves seeded
//! what-if grids through cold `Engine`s with the instruction-level
//! backend; `npb_host` runs the eight NPB kernels on the parallel runtime.
//! Each repeats its unit of work for the whole run and reports medians.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use rvhpc_core::engine::{Backend, Engine, MachineSel, Plan, Query, SpecKind};
use rvhpc_core::Prediction;
use rvhpc_isa::IsaExt;
use rvhpc_machines::{presets, Machine, MachineId, VectorIsa};
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_parallel::Pool;

use crate::report::Report;
use crate::util::{self, median, Rng};

// ---------------------------------------------------------------- isa_sweep

/// Custom machines in one solve grid; each is crossed with the kernels'
/// benchmarks and the thread counts, under both backends.
pub const ISA_GRID_MACHINES: usize = 24;
pub const ISA_BENCHES: [BenchmarkId; 3] = [BenchmarkId::Cg, BenchmarkId::Mg, BenchmarkId::Ep];
pub const ISA_THREADS: [u32; 2] = [16, 64];
const RISCV_BASES: [MachineId; 4] = [
    MachineId::Sg2044,
    MachineId::Sg2042,
    MachineId::BananaPiF3,
    MachineId::MilkVJupyter,
];

/// Seeded distinct RISC-V what-if machines: machine `unique` of a seed
/// is the same whatever order machines are made in, and its clock makes
/// it distinct from every other machine of the run.
pub fn what_if(seed: u64, unique: u64) -> Machine {
    let mut r = Rng::new(seed, 1 << 32 | unique);
    let mut m = presets::by_id(RISCV_BASES[r.below(RISCV_BASES.len())]);
    m.clock_ghz = 1.0 + unique as f64 * 1e-6;
    let vlen = [128, 256, 512][r.below(3)];
    m.vector = match m.vector {
        VectorIsa::Rvv0_7 { .. } => VectorIsa::Rvv0_7 { vlen_bits: vlen },
        VectorIsa::Rvv1_0 { .. } => VectorIsa::Rvv1_0 { vlen_bits: vlen },
        other => other,
    };
    m.memory.sustained_fraction *= 0.5 + r.unit();
    m.core.mlp *= 0.75 + 0.5 * r.unit();
    m
}

fn query(machine: MachineSel, bench: BenchmarkId, threads: u32, backend: Backend) -> Query {
    Query {
        machine,
        bench,
        class: Class::C,
        threads,
        spec: SpecKind::PaperHeadline,
        backend,
    }
}

/// Solve grid `g` of a seed: `ISA_GRID_MACHINES` machines × benchmarks ×
/// thread counts, ISA backend first, then the same points under the
/// profile backend.
pub fn isa_grid(seed: u64, g: u64) -> Plan {
    let mut plan = Plan::new();
    let sels: Vec<MachineSel> = (0..ISA_GRID_MACHINES as u64)
        .map(|m| plan.add_machine(what_if(seed, g * ISA_GRID_MACHINES as u64 + m)))
        .collect();
    for backend in [Backend::Isa(IsaExt::full()), Backend::Profile] {
        for &sel in &sels {
            for bench in ISA_BENCHES {
                for threads in ISA_THREADS {
                    plan.push(query(sel, bench, threads, backend));
                }
            }
        }
    }
    plan
}

/// Whether two resolves gave bit-identical predictions.
pub fn same(a: &[Arc<Prediction>], b: &[Arc<Prediction>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.seconds.to_bits() == y.seconds.to_bits() && x.mops.to_bits() == y.mops.to_bits()
        })
}

/// Grid points re-checked per run against a serial fresh engine.
const ISA_CHECK_SAMPLE: usize = 12;

pub fn run_isa(seed: u64, seconds: f64, r: &mut Report) -> io::Result<()> {
    let mut setups = Vec::new();
    let mut solves = Vec::new();
    let mut first = None;
    let t_run = Instant::now();
    while solves.len() < 5 || t_run.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let pool = Pool::new(util::nproc());
        let plan = isa_grid(seed, solves.len() as u64);
        setups.push(t0.elapsed().as_secs_f64());
        let engine = Engine::new();
        let t1 = Instant::now();
        let preds = engine.execute_on(&plan, &pool);
        solves.push(t1.elapsed().as_secs_f64());
        r.ops(plan.len() as u64, 0);
        first.get_or_insert((plan, preds));
    }
    // Outside the timed windows: a fixed sample of the first grid against
    // a serial resolve on a fresh engine.
    let (plan, preds) = first.expect("at least one solve");
    let mut sample = Plan::new();
    let mut got = Vec::new();
    for (i, q) in plan
        .queries()
        .iter()
        .enumerate()
        .step_by(plan.len() / ISA_CHECK_SAMPLE)
    {
        let mut one = Plan::new();
        let sel = one.add_machine(plan.machine_of(q));
        one.push(Query { machine: sel, ..*q });
        sample.merge(one);
        got.push(Arc::clone(&preds[i]));
    }
    if !same(&Engine::new().execute_with_jobs(&sample, 1), &got) {
        r.problem("isa_sweep: grid predictions differ from a jobs=1 fresh engine".to_string());
        r.ops(0, sample.len() as u64);
    }

    r.add("setup_s", median(&setups), "s");
    r.add("solve_s", median(&solves), "s");
    r.add(
        "rss_peak_mb",
        util::vm_hwm_mb("self").unwrap_or(f64::NAN),
        "MB",
    );
    Ok(())
}

// ---------------------------------------------------------------- npb_host

/// The solve pass: the paper's eight benchmarks at the sizes this host
/// runs in about two seconds.
pub const NPB_PASS: [(BenchmarkId, Class); 8] = [
    (BenchmarkId::Is, Class::W),
    (BenchmarkId::Mg, Class::W),
    (BenchmarkId::Cg, Class::W),
    (BenchmarkId::Ft, Class::W),
    (BenchmarkId::Ep, Class::S),
    (BenchmarkId::Bt, Class::S),
    (BenchmarkId::Sp, Class::S),
    (BenchmarkId::Lu, Class::S),
];

/// One pass in the paper's order; returns (NPB-timed seconds, untimed
/// seconds, per-benchmark results) and counts the runs into `r`. The
/// order is fixed because the process's peak memory depends on it.
pub fn npb_pass(pool: &Pool, r: &mut Report) -> (f64, f64, Vec<rvhpc_npb::BenchResult>) {
    let (mut timed, mut untimed) = (0.0, 0.0);
    let mut results = Vec::new();
    for (bench, class) in NPB_PASS {
        let t0 = Instant::now();
        let res = rvhpc_npb::run(bench, class, pool);
        let wall = t0.elapsed().as_secs_f64();
        timed += res.time_seconds;
        untimed += (wall - res.time_seconds).max(0.0);
        r.ops(1, u64::from(!res.verified.passed()));
        if !res.verified.passed() {
            r.problem(format!(
                "npb_host: {} class {} failed verification",
                res.name,
                res.class.name()
            ));
        }
        results.push(res);
    }
    (timed, untimed, results)
}

/// NPB inputs are fixed by the NPB specification, so `npb_host` takes no
/// seed.
pub fn run_npb(seconds: f64, r: &mut Report) -> io::Result<()> {
    let pool = Pool::new(util::nproc());
    let (mut solves, mut setups) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    while solves.len() < 3 || t_run.elapsed().as_secs_f64() < seconds {
        let (timed, untimed, _) = npb_pass(&pool, r);
        solves.push(timed);
        setups.push(untimed);
    }
    r.add("setup_s", median(&setups), "s");
    r.add("solve_s", median(&solves), "s");
    r.add(
        "rss_peak_mb",
        util::vm_hwm_mb("self").unwrap_or(f64::NAN),
        "MB",
    );
    Ok(())
}
