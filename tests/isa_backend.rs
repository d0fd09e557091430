//! End-to-end checks of the instruction-level prediction backend:
//! engine dispatch on `Backend::Isa`, byte-identical output at any
//! worker count, agreement with the profile backend, and the gated
//! `isa` metrics section.

use rvhpc::eval::engine::{Backend, Engine, MachineSel, Plan, Query, SpecKind};
use rvhpc::eval::{isa_backend, metrics, predict, Scenario};
use rvhpc::isa::{CharKey, IsaExt, KernelId};
use rvhpc::machines::{presets, Machine, MachineId, VectorIsa};
use rvhpc::npb::{BenchmarkId, Class};
use rvhpc::obs::{json, JsonValue};
use rvhpc::parallel::Pool;

/// A small mixed plan: every mapped benchmark under both backends plus
/// one ablated variant.
fn mixed_plan() -> Plan {
    let mut plan = Plan::new();
    for bench in [BenchmarkId::Cg, BenchmarkId::Mg, BenchmarkId::Ep] {
        let q = Query::paper(MachineId::Sg2044, bench, Class::B, 32);
        plan.push(q);
        plan.push(q.with_backend(Backend::Isa(IsaExt::full())));
        plan.push(q.with_backend(Backend::Isa(IsaExt {
            zba: false,
            ..IsaExt::full()
        })));
    }
    plan
}

/// The executor must produce byte-identical predictions for the ISA
/// backend at any worker count — the determinism contract `reproduce
/// --jobs N` documents, extended to trace-driven queries.
#[test]
fn isa_predictions_are_identical_across_worker_counts() {
    let plan = mixed_plan();
    let serialize = |jobs: usize| -> Vec<String> {
        Engine::new()
            .execute_with_jobs(&plan, jobs)
            .iter()
            .map(|p| format!("{:?}", (p.seconds, p.mops, &p.per_phase)))
            .collect()
    };
    assert_eq!(serialize(1), serialize(8));
}

/// The extension ablations of the paper's compiler-flag sweeps.
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

/// A what-if grid shaped like the benchmark's: retimed RISC-V machines
/// (clock, memory and core fields moved; two VLENs) crossed with the
/// mapped benchmarks and two thread counts, under every extension
/// ablation, then with vectorization off, then under the profile backend.
/// Pairs of machines differ only outside the characterization key, so keys
/// are shared across queries, and thread counts move only the geometry, so
/// one interpretation serves several keys.
fn what_if_grid() -> Plan {
    let mut plan = Plan::new();
    let mut sels = Vec::new();
    for (i, base) in [presets::sg2044(), presets::sg2042()]
        .into_iter()
        .enumerate()
    {
        for variant in 0..2u32 {
            let mut m: Machine = base.clone();
            m.clock_ghz = 1.0 + f64::from(variant) * 0.7 + i as f64 * 1e-3;
            m.memory.sustained_fraction *= 0.6 + 0.5 * f64::from(variant);
            m.core.mlp *= 0.8 + 0.4 * f64::from(variant);
            if i == 0 {
                m.vector = VectorIsa::Rvv1_0 { vlen_bits: 256 };
            }
            sels.push(plan.add_machine(m));
        }
    }
    let no_vectorize = {
        let m = presets::sg2044();
        let mut s = Scenario::headline(&m, 1);
        s.compiler.vectorize = false;
        SpecKind::Custom {
            compiler: s.compiler,
            bind: s.bind,
            law: s.law,
        }
    };
    let runs = ablations()
        .map(|ext| (Backend::Isa(ext), SpecKind::PaperHeadline))
        .into_iter()
        .chain([
            (Backend::Isa(IsaExt::full()), no_vectorize),
            (Backend::Profile, SpecKind::PaperHeadline),
        ]);
    for (backend, spec) in runs {
        for &machine in &sels {
            for bench in [BenchmarkId::Cg, BenchmarkId::Mg, BenchmarkId::Ep] {
                for threads in [16, 64] {
                    plan.push(Query {
                        machine,
                        bench,
                        class: Class::C,
                        threads,
                        spec,
                        backend,
                    });
                }
            }
        }
    }
    plan
}

/// Every query of `plan` priced on its own by the uncached backends, as
/// (seconds, mops) bits.
fn uncached_bits(plan: &Plan) -> Vec<(u64, u64)> {
    plan.queries()
        .iter()
        .map(|q| {
            let machine = plan.machine_of(q);
            let scenario = q.scenario(&machine);
            let profile = rvhpc::npb::profile(q.bench, q.class);
            let p = match q.backend {
                Backend::Isa(ext) => isa_backend::predict_isa(&profile, &scenario, ext),
                Backend::Profile => predict(&profile, &scenario),
            };
            (p.seconds.to_bits(), p.mops.to_bits())
        })
        .collect()
}

fn bits(predictions: &[std::sync::Arc<rvhpc::eval::Prediction>]) -> Vec<(u64, u64)> {
    predictions
        .iter()
        .map(|p| (p.seconds.to_bits(), p.mops.to_bits()))
        .collect()
}

/// The engine characterizes a plan's keys once, one interpretation per
/// group; the result must be bit-identical to pricing every query on its
/// own with the uncached backend, at any worker count, on an ephemeral or
/// a persistent pool, and for a plan of one ISA query (a one-key group).
#[test]
fn shared_characterizations_match_uncached_predictions_bit_for_bit() {
    let grid = what_if_grid();
    assert!(grid
        .queries()
        .iter()
        .all(|q| matches!(q.machine, MachineSel::Custom(_))));
    let single = Plan::single(
        Query::paper(MachineId::Sg2044, BenchmarkId::Mg, Class::B, 8)
            .with_backend(Backend::Isa(IsaExt::full())),
    );
    let pool = Pool::new(2);
    for plan in [&grid, &single] {
        let reference = uncached_bits(plan);
        for jobs in [1, 2, 4] {
            let got = bits(&Engine::new().execute_with_jobs(plan, jobs));
            assert_eq!(got, reference, "jobs={jobs}");
        }
        let got = bits(&Engine::new().execute_on(plan, &pool));
        assert_eq!(got, reference, "persistent pool");
    }
}

/// The kernel interpretations `run` performs on this thread inside plan
/// executions: `isa.characterize` profiler frames under `engine.execute`
/// under a `root` frame no other test opens.
fn interpretations(root: &'static str, run: impl FnOnce()) -> u64 {
    let frame = rvhpc::obs::prof::scope(root);
    run();
    drop(frame);
    let profile = rvhpc::obs::prof::snapshot();
    assert_eq!(profile.interval, 1, "every frame close must be sampled");
    let key = format!("{root};engine.execute;isa.characterize");
    profile.stacks.get(&key).copied().unwrap_or(0)
}

/// Each group of keys that differ only in cache geometry is interpreted
/// exactly once per plan execution, observed through the
/// `isa.characterize` profiler frame of a serial execution.
#[test]
fn each_group_is_interpreted_once_per_execution() {
    let plan = what_if_grid();
    let keys: Vec<CharKey> = plan
        .queries()
        .iter()
        .filter_map(|q| match q.backend {
            Backend::Isa(ext) => {
                isa_backend::char_key(q.bench, &q.scenario(&plan.machine_of(q)), ext)
            }
            Backend::Profile => None,
        })
        .collect();
    let groups = keys
        .iter()
        .enumerate()
        .filter(|&(i, k)| !keys[..i].iter().any(|e| e.interprets_like(k)))
        .count() as u64;
    let distinct: std::collections::HashSet<CharKey> = keys.iter().copied().collect();
    assert!(
        groups < distinct.len() as u64,
        "the grid must hold keys that share an interpretation"
    );

    rvhpc::obs::prof::set_profiling(true);
    let engine = Engine::new();
    let cold = interpretations("isa_backend.cold", || {
        engine.execute_with_jobs(&plan, 1);
    });
    let warm = interpretations("isa_backend.warm", || {
        engine.execute_with_jobs(&plan, 1);
    });
    let fresh = interpretations("isa_backend.fresh", || {
        Engine::new().execute_with_jobs(&plan, 1);
    });
    rvhpc::obs::prof::set_profiling(false);
    assert_eq!(cold, groups, "one interpretation per group");
    assert_eq!(warm, 0, "a warm engine interprets nothing");
    assert_eq!(fresh, groups, "no characterization outlives an execution");
}

/// Profile and ISA backends memoize independently: same grid point,
/// different backend, different prediction object — and the ablated
/// extension set is a third, distinct entry.
#[test]
fn backends_cache_separately_and_ablation_changes_predictions() {
    let engine = Engine::new();
    let q = Query::paper(MachineId::Sg2044, BenchmarkId::Cg, Class::B, 32);
    let profile_pred = engine.predict_one(q);
    let isa_pred = engine.predict_one(q.with_backend(Backend::Isa(IsaExt::full())));
    let no_zba = engine.predict_one(q.with_backend(Backend::Isa(IsaExt {
        zba: false,
        ..IsaExt::full()
    })));
    assert_ne!(profile_pred.seconds, isa_pred.seconds);
    assert_ne!(isa_pred.seconds, no_zba.seconds);
    assert!(
        no_zba.seconds > isa_pred.seconds,
        "dropping zba must cost instructions on CG's spmv: {} vs {}",
        isa_pred.seconds,
        no_zba.seconds
    );
    // All three are cache hits the second time.
    let misses_before = engine.metrics().prediction_misses;
    engine.predict_one(q);
    engine.predict_one(q.with_backend(Backend::Isa(IsaExt::full())));
    assert_eq!(engine.metrics().prediction_misses, misses_before);
}

/// The two backends must agree within the committed CI tolerance on
/// every mapped kernel (the `isa-smoke` contract, asserted widest here).
#[test]
fn backends_agree_within_committed_tolerance() {
    const TOLERANCE: f64 = 4.0;
    let m = presets::sg2044();
    let s = Scenario::headline(&m, 64);
    for kernel in KernelId::ALL {
        let template = match kernel {
            KernelId::Triad => isa_backend::triad_profile(Class::C),
            _ => rvhpc::npb::profile(isa_backend::bench_for(kernel), Class::C),
        };
        let analytic = predict(&template, &s).seconds;
        let traced = isa_backend::run_kernel(kernel, Class::C, &s, IsaExt::full())
            .prediction
            .seconds;
        let ratio = (traced / analytic).max(analytic / traced);
        assert!(
            ratio <= TOLERANCE,
            "{}: traced {traced} vs analytic {analytic} (ratio {ratio:.2} > {TOLERANCE})",
            kernel.name()
        );
    }
}

/// The `isa` metrics section appears only when attached — profile-backend
/// documents never carry it — and round-trips through JSON with the
/// rvr-style counters present.
#[test]
fn isa_metrics_section_is_gated() {
    let m = presets::sg2044();
    let s = Scenario::headline(&m, 8);
    let profile = rvhpc::npb::profile(BenchmarkId::Cg, Class::B);
    let pred = predict(&profile, &s);

    let plain = metrics::prediction_document(&profile, &s, &pred);
    let plain_parsed = json::parse(&plain.to_json()).expect("valid JSON");
    assert!(
        plain_parsed.get("isa").is_none(),
        "profile-backend document must not carry the isa section"
    );

    let ext = IsaExt::full();
    let run = isa_backend::run_kernel(KernelId::Spmv, Class::B, &s, ext);
    let runs = vec![run.clone()];
    let doc = metrics::with_section(
        metrics::prediction_document(&run.profile, &s, &run.prediction),
        "isa",
        isa_backend::isa_section(&runs, &s, ext),
    );
    let parsed = json::parse(&doc.to_json()).expect("valid JSON");
    let section = parsed.get("isa").expect("isa section present");
    assert_eq!(
        section.get("backend").and_then(JsonValue::as_str),
        Some("isa")
    );
    let kernels = section
        .get("kernels")
        .and_then(JsonValue::as_array)
        .expect("kernels array");
    assert_eq!(kernels.len(), 1);
    for field in ["instret", "ipc", "branch_miss_pct", "ops_per_instr"] {
        assert!(
            kernels[0].get(field).and_then(JsonValue::as_f64).is_some(),
            "isa.kernels[0].{field} missing"
        );
    }
}

/// The rendered per-kernel report is deterministic and carries the
/// rvr-style columns the acceptance criteria name.
#[test]
fn isa_report_is_deterministic_with_expected_columns() {
    let m = presets::sg2044();
    let s = Scenario::headline(&m, 64);
    let ext = IsaExt::full();
    let render = || {
        let runs: Vec<_> = KernelId::ALL
            .iter()
            .map(|&k| isa_backend::run_kernel(k, Class::C, &s, ext))
            .collect();
        isa_backend::isa_report(&runs, &s, ext)
    };
    let a = render();
    assert_eq!(a, render());
    for col in ["instret", "IPC", "br-miss%", "ops/instr"] {
        assert!(a.contains(col), "report missing column {col}:\n{a}");
    }
}
