//! The per-layer attribution run (`--trace 1`).
//!
//! Every traced run visits every layer on the traffic of the workload the
//! layer does most of its work in (the table in `e2ebench/README.md`),
//! so each run prints the same per-layer metrics whichever `--workload`
//! it was given. The workload only selects which headline metric
//! `bench.trace_overhead` compares with and without tracing. Layer spans
//! come from what the program already exports: `serve --trace` Chrome
//! traces, the server's metrics document and the obs recorder summary;
//! everything else is timed here around calls into public functions.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rvhpc_archsim::{TraceConsumer, TraceEvent};
use rvhpc_core::engine::{Engine, Plan};
use rvhpc_isa::{Instr, IsaExt, NullTracer, Tracer};
use rvhpc_obs::json::JsonValue;
use rvhpc_parallel::Pool;
use rvhpc_serve::proto::{self, Request};

use crate::grid::{self, Step};
use crate::inproc;
use crate::net::{self, Pace};
use crate::report::Report;
use crate::serve_wl::{self, Inputs, Mix, Server, Session};
use crate::util::{self, json_num, quantile, sorted};

/// Seconds of traffic in each traced serve step.
const SERVE_STEP_S: f64 = 1.0;
/// Seconds per step of the null-server grid.
const NULL_STEP_S: f64 = 0.5;

pub fn run(workload: &str, seed: u64, seconds: f64, work: &Path, r: &mut Report) -> io::Result<()> {
    let t0 = Instant::now();
    let phase = |name: &str| eprintln!("e2ebench: {name} at {:.1}s", t0.elapsed().as_secs_f64());
    let bin = serve_wl::build_serve()?;
    phase("serve_hot layers");
    let hot = serve_layers(Mix::Hot, &bin, seed, seconds, work, r)?;
    phase("serve_cold layers");
    let cold = serve_layers(Mix::Cold, &bin, seed, seconds, work, r)?;
    report_serve(&hot, &cold, r);
    phase("null baseline");
    null_baseline(seed, r)?;
    phase("model, isa and archsim layers");
    model_layer(seed, r);
    isa_layers(seed, r);
    phase("parallel layer on the isa grid");
    let isa_overhead = isa_parallel(seed, r);
    phase("npb and parallel layers");
    let npb_overhead = npb_layers(r);
    phase("stream");
    stream_layer(r);
    phase("done");
    let overhead = match workload {
        "serve_hot" => hot.overhead(),
        "serve_cold" => cold.overhead(),
        "isa_sweep" => isa_overhead,
        _ => npb_overhead,
    };
    r.add("bench.trace_overhead", overhead, "frac");
    Ok(())
}

// -------------------------------------------------------------------- serve

/// What one mix's traced and untraced mid-rate steps showed.
struct ServeLayers {
    levels: Vec<Step>,
    walk: Vec<Step>,
    untraced: Step,
    traced: Step,
    /// Mean client latency of the traced step, from due time.
    client_mean_us: f64,
    /// Per-request span durations by span name, traced step only.
    spans: BTreeMap<String, Vec<f64>>,
    /// Mean per-request union of span intervals (Σ layer self times).
    self_sum_us: f64,
    /// Metrics-document deltas over the traced step, and the final doc.
    hits: f64,
    misses: f64,
    received: f64,
    shed: f64,
    doc: JsonValue,
    server_cpu_s: f64,
    parse_us: f64,
}

impl ServeLayers {
    fn overhead(&self) -> f64 {
        self.traced.p50() / self.untraced.p50() - 1.0
    }

    fn mean_span(&self, name: &str) -> f64 {
        let v = self.spans.get(name).map_or(&[][..], |v| v.as_slice());
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

/// Measure `mix` on an untraced server, then run its mid-rate step on a
/// traced server with the same requests and read that server's spans and
/// metrics document.
fn serve_layers(
    mix: Mix,
    bin: &Path,
    seed: u64,
    seconds: f64,
    work: &Path,
    r: &mut Report,
) -> io::Result<ServeLayers> {
    let reference = serve_wl::reference_rps(mix);
    let frac = grid::LEVELS[1].0;

    // Untraced first. On the hot mix: the three latency levels and the
    // capacity walk, which are reported here, without a bound, because on
    // a shared 2-vCPU machine their run-to-run spread exceeds any bound
    // the benchmark may set. On both mixes the mid level is the baseline
    // of the tracing overhead.
    let args = serve_wl::server_args(mix, work, "untraced")?;
    let (mut s, _) = Session::start(bin, &args, mix, seed, r)?;
    let (levels, walk) = match mix {
        Mix::Hot => (
            s.levels(reference, seconds, 1, r)?,
            s.grid_walk(reference, seconds, r)?,
        ),
        Mix::Cold => (vec![s.step(frac, reference, SERVE_STEP_S, r)?], Vec::new()),
    };
    s.server.quit()?;
    grid::log(&format!("{mix:?} untraced"), &levels, serve_wl::LIMIT_US);
    grid::log(&format!("{mix:?} untraced"), &walk, serve_wl::LIMIT_US);
    let untraced = levels
        .iter()
        .find(|l| l.frac == frac)
        .expect("mid level ran")
        .clone();

    let trace_path = work.join(format!("trace-{mix:?}.json"));
    let mut args = serve_wl::server_args(mix, work, "traced")?;
    args.push("--trace".to_string());
    args.push(trace_path.display().to_string());
    let (mut s, _) = Session::start(bin, &args, mix, seed, r)?;
    let before = s.server.admin("metrics")?;
    let cpu0 = s.server.cpu_s();
    // The step's own request lines, also used to time the parser.
    let first = s.next_id;
    let n = (frac * reference * SERVE_STEP_S).ceil() as usize;
    let bodies = s.inputs.take(n);
    let (lat, wrong, out) = s.send(&bodies, Pace::Rate(frac * reference))?;
    serve_wl::count(r, "traced step", &lat, wrong);
    let cpu1 = s.server.cpu_s();
    let after = s.server.admin("metrics")?;
    s.server.quit()?;
    let mut traced = Step::new(frac, frac * reference, lat.clone(), SERVE_STEP_S * 1e6);
    traced.lateness(&out.late_us, out.cpu_s);

    let delta = |path: &[&str]| json_num(&after, path) - json_num(&before, path);
    let hits = delta(&["server", "cache", "hits"]);
    let misses = delta(&["server", "cache", "misses"]);
    let received = delta(&["server", "requests", "received"]);
    let shed = delta(&["server", "requests", "rejected_admission"]);

    eprintln!("e2ebench: {mix:?} trace analysis");
    // Spans: group the traced server's request spans by trace id, keep the
    // predicts of the step (the ones after the warm-up), per name.
    let text = std::fs::read_to_string(&trace_path)?;
    if !text.contains("\"droppedEvents\":0") {
        r.problem(format!("{mix:?}: the server trace dropped events"));
    }
    const REQUEST_CATS: [&str; 7] = [
        "proto-parse",
        "queue-wait",
        "dedup-merge",
        "cache-probe",
        "engine-exec",
        "reply-write",
        "region",
    ];
    let mut by_trace: HashMap<u64, Vec<(String, f64, f64)>> = HashMap::new();
    for e in trace_events(&text)? {
        if !REQUEST_CATS.contains(&e.cat) {
            continue;
        }
        let name = if e.cat == "cache-probe" {
            "probe"
        } else {
            e.name
        };
        by_trace
            .entry(e.arg)
            .or_default()
            .push((name.to_string(), e.ts, e.dur));
    }
    let mut predicts: Vec<Vec<(String, f64, f64)>> = by_trace
        .into_values()
        .filter(|spans| spans.iter().any(|(n, _, _)| n == "queue"))
        .collect();
    predicts.sort_by(|a, b| {
        let start = |s: &Vec<(String, f64, f64)>| s.iter().map(|x| x.1).fold(f64::MAX, f64::min);
        start(a).total_cmp(&start(b))
    });
    let warm = serve_wl::HOT_SET;
    if predicts.len() != warm + n {
        r.problem(format!(
            "{mix:?}: trace holds {} predicts, not the warm-up's {warm} and the step's {n}",
            predicts.len()
        ));
        return Err(io::Error::other("incomplete server trace"));
    }
    let mut spans: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut self_sum = 0.0;
    for req in &predicts[warm..] {
        let mut per_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _, dur) in req {
            *per_name.entry(name.as_str()).or_default() += dur;
        }
        for (name, dur) in per_name {
            spans.entry(name.to_string()).or_default().push(dur);
        }
        self_sum += union_len(req.iter().map(|(_, ts, dur)| (*ts, ts + dur)).collect());
    }

    eprintln!("e2ebench: {mix:?} parser timing");
    // The parser, timed directly on the step's own lines.
    let lines: Vec<String> = serve_wl::lines(&bodies, first)
        .into_iter()
        .map(|l| String::from_utf8(l).expect("generated lines are UTF-8"))
        .collect();
    let t0 = Instant::now();
    let mut parsed = 0;
    for _ in 0..5 {
        for l in &lines {
            parsed += usize::from(matches!(
                std::hint::black_box(proto::parse_request(l)),
                Ok(Request::Predict(_))
            ));
        }
    }
    let parse_us = util::us(t0.elapsed()) / (5 * lines.len()) as f64;
    if parsed != 5 * lines.len() {
        r.problem(format!("{mix:?}: parse_request rejected a generated line"));
    }

    let client_mean_us = lat.iter().flatten().sum::<f64>() / lat.len().max(1) as f64;
    Ok(ServeLayers {
        levels,
        walk,
        untraced,
        traced,
        client_mean_us,
        spans,
        self_sum_us: self_sum / n as f64,
        hits,
        misses,
        received,
        shed,
        doc: after,
        server_cpu_s: cpu1 - cpu0,
        parse_us,
    })
}

/// One complete-span event of a Chrome trace written by `rvhpc-obs`.
struct Span<'a> {
    cat: &'a str,
    name: &'a str,
    arg: u64,
    ts: f64,
    dur: f64,
}

/// The events of an `rvhpc-obs` Chrome trace. The exporter writes one
/// flat object per event with fixed keys, so a field scan per object
/// suffices; a trace of a few seconds of traffic holds ~10^5 events.
fn trace_events(text: &str) -> io::Result<Vec<Span<'_>>> {
    let bad = |what: &str| io::Error::other(format!("unexpected trace layout: {what}"));
    let body = text
        .split_once("\"traceEvents\":[")
        .ok_or_else(|| bad("no traceEvents"))?
        .1;
    let mut out = Vec::new();
    for obj in body.split("{\"args\":").skip(1) {
        let num = |key: &str| field(obj, key).and_then(|v| v.parse::<f64>().ok());
        let (Some(cat), Some(name), Some(arg), Some(ts), Some(dur)) = (
            field(obj, "\"cat\":"),
            field(obj, "\"name\":"),
            num("{\"arg\":"),
            num("\"ts\":"),
            num("\"dur\":"),
        ) else {
            return Err(bad(obj));
        };
        out.push(Span {
            cat,
            name,
            arg: arg as u64,
            ts,
            dur,
        });
    }
    Ok(out)
}

/// The value after `key` in a flat JSON object, unquoted.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(key)? + key.len();
    let rest = &obj[at..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Total length covered by a set of intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

fn report_serve(hot: &ServeLayers, cold: &ServeLayers, r: &mut Report) {
    r.add("serve.proto.parse_us", hot.parse_us, "us");
    let queue = sorted(hot.spans.get("queue").cloned().unwrap_or_default());
    r.add("serve.batch.queue_wait_p50_us", quantile(&queue, 0.5), "us");
    r.add(
        "serve.batch.queue_wait_p99_us",
        quantile(&queue, 0.99),
        "us",
    );
    r.add("serve.batch.dedup_us", hot.mean_span("dedup"), "us");
    r.add("serve.engine.probe_us", hot.mean_span("probe"), "us");
    r.add("serve.engine.exec_us", cold.mean_span("execute"), "us");
    r.add("serve.reply.write_us", hot.mean_span("reply"), "us");
    for (mix, l) in [("hot", hot), ("cold", cold)] {
        if l.self_sum_us > l.client_mean_us {
            r.problem(format!(
                "serve {mix}: layer self times ({:.1}us) exceed client latency ({:.1}us)",
                l.self_sum_us, l.client_mean_us
            ));
        }
    }
    r.add(
        "serve.unaccounted_us",
        hot.client_mean_us - hot.self_sum_us,
        "us",
    );
    r.add(
        "serve.service_p50_us",
        json_num(&hot.doc, &["server", "service_latency", "p50_us"]),
        "us",
    );
    r.add(
        "serve.service_p99_us",
        json_num(&hot.doc, &["server", "service_latency", "p99_us"]),
        "us",
    );
    let executed = json_num(&cold.doc, &["engine", "executor", "executed"]);
    let batches = json_num(&cold.doc, &["engine", "executor", "batches"]);
    r.add("serve.batch.batch_size_mean", executed / batches, "count");
    r.add(
        "serve.batch.shed_frac",
        (hot.shed + cold.shed) / (hot.received + cold.received),
        "frac",
    );
    r.add(
        "serve.cpu_us_per_req",
        hot.server_cpu_s * 1e6 / hot.traced.attempted as f64,
        "us",
    );
    r.add(
        "engine.hit_ratio",
        hot.hits / (hot.hits + hot.misses),
        "frac",
    );
    r.add("engine.misses", hot.misses, "count");
    r.add(
        "engine.store.appends",
        json_num(&cold.doc, &["store", "disk", "appends"]),
        "count",
    );
    r.add(
        "engine.store.bytes",
        json_num(&cold.doc, &["store", "disk", "bytes"]),
        "B",
    );
    grid::report(r, &hot.levels, &hot.walk, serve_wl::LIMIT_US);
    for (step, (_, level)) in hot.levels.iter().zip(grid::LEVELS) {
        r.add(format!("p99_us.{level}"), step.p99(), "us");
    }
    r.add("bench.gen.late_p99_us", hot.untraced.late_p99_us, "us");
    r.add("bench.client.cpu_s", hot.untraced.gen_cpu_s, "s");
}

/// The null-server grid at serve_hot's rates, same generator and lines.
fn null_baseline(seed: u64, r: &mut Report) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    let (mut server, _) = Server::spawn(&exe, &["--null-server".to_string()])?;
    let result = null_grid(&server, seed, r);
    server.kill();
    let steps = result?;
    grid::log("null", &steps, serve_wl::LIMIT_US);
    let mid: Vec<&Step> = steps
        .iter()
        .filter(|s| s.frac == grid::LEVELS[1].0)
        .collect();
    r.add("bench.null.p50_us", mid[0].p50(), "us");
    r.add("bench.null.p99_us", mid[0].p99(), "us");
    r.add(
        "bench.null.capacity_rps",
        grid::capacity(&steps, serve_wl::LIMIT_US),
        "1/s",
    );
    Ok(())
}

fn null_grid(server: &Server, seed: u64, r: &mut Report) -> io::Result<Vec<Step>> {
    let mut conns = net::connect(&server.addr, serve_wl::CONNS)?;
    let mut inputs = Inputs::new(Mix::Hot, seed);
    let reference = serve_wl::reference_rps(Mix::Hot);
    let mut steps = Vec::new();
    let mut next_id = 1;
    for frac in grid::FRACTIONS {
        let rate = frac * reference;
        let bodies = inputs.take((rate * NULL_STEP_S).ceil() as usize);
        let lines = serve_wl::lines(&bodies, next_id);
        let out = net::drive(
            &mut conns,
            &lines,
            next_id,
            Pace::Rate(rate),
            std::time::Duration::from_secs(2),
        )?;
        next_id += lines.len() as u64;
        // The echo of each line is the line itself.
        let lat: Vec<Option<f64>> = out
            .lat_us
            .iter()
            .zip(&out.replies)
            .zip(&lines)
            .map(|((l, reply), line)| match reply {
                Some(rep) if rep.as_slice() == &line[..line.len() - 1] => *l,
                _ => None,
            })
            .collect();
        serve_wl::count(r, "null step", &lat, 0);
        let mut step = Step::new(frac, rate, lat, NULL_STEP_S * 1e6);
        step.lateness(&out.late_us, out.cpu_s);
        steps.push(step);
        if !grid::keep_going(&steps, serve_wl::LIMIT_US) {
            break;
        }
    }
    Ok(steps)
}

// ------------------------------------------------------- model, isa, archsim

/// `model::predict` per profile query, on serve_cold's descriptors.
fn model_layer(seed: u64, r: &mut Report) {
    let mut inputs = Inputs::new(Mix::Cold, seed);
    let reqs: Vec<_> = (0..2000)
        .map(
            |_| match proto::parse_request(&format!("{{{}}}", inputs.fresh())) {
                Ok(Request::Predict(p)) => p,
                _ => panic!("benchmark generated an invalid request"),
            },
        )
        .collect();
    let mut profiles = HashMap::new();
    let cases: Vec<_> = reqs
        .iter()
        .map(|req| {
            let (plan, q) = req.to_plan();
            let profile = profiles
                .entry((q.bench, q.class))
                .or_insert_with(|| rvhpc_npb::profile(q.bench, q.class))
                .clone();
            (plan.machine_of(&q), q, profile)
        })
        .collect();
    let t0 = Instant::now();
    for (machine, q, profile) in &cases {
        std::hint::black_box(rvhpc_core::predict(profile, &q.scenario(machine)));
    }
    r.ops(cases.len() as u64, 0);
    r.add(
        "model.predict_us",
        util::us(t0.elapsed()) / cases.len() as f64,
        "us",
    );
}

/// Records the interpreter's events as archsim replay events.
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

/// Machines of the isa sweep the layer timings run on.
const ISA_LAYER_MACHINES: usize = 4;
/// Repetitions of the cheap decode and CFG calls per timing.
const REPS: usize = 200;

/// decode → CFG → interpret → replay on the sweep's kernels and machines.
fn isa_layers(seed: u64, r: &mut Report) {
    let ext = IsaExt::full();
    let (mut decoded, mut decode_s, mut cfg_s, mut cfgs) = (0usize, 0.0, 0.0, 0usize);
    let (mut instret, mut interp_s) = (0u64, 0.0);
    let (mut events, mut replay_s, mut characterize_s) = (0usize, 0.0, 0.0);
    let threads = inproc::ISA_THREADS[0];
    for m in 0..ISA_LAYER_MACHINES as u64 {
        let machine = inproc::what_if(seed, m);
        for bench in inproc::ISA_BENCHES {
            let kernel =
                rvhpc_core::isa_backend::kernel_for(bench).expect("sweep benches have kernels");
            let rvv = ext.rvv && machine.vector.is_rvv();
            let set = ext.to_ext_set(rvv);
            let vlen = if rvv {
                machine.vector.width_bits().max(64)
            } else {
                128
            };
            let built = rvhpc_isa::build(kernel, &set, vlen);

            let t0 = Instant::now();
            let mut prog = None;
            for _ in 0..REPS {
                prog = Some(std::hint::black_box(rvhpc_isa::decode_program(
                    &built.code,
                    rvhpc_isa::kernels::TEXT_BASE,
                    &set,
                )));
            }
            decode_s += t0.elapsed().as_secs_f64();
            let prog = prog.expect("REPS > 0");
            decoded += REPS * prog.instrs.len();

            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(rvhpc_isa::build_cfg(&prog));
            }
            cfg_s += t0.elapsed().as_secs_f64();
            cfgs += REPS;

            let mut cpu = built.cpu.clone();
            let t0 = Instant::now();
            let stats = rvhpc_isa::run(
                &mut cpu,
                &prog,
                &mut NullTracer,
                rvhpc_isa::kernels::MAX_STEPS,
            );
            interp_s += t0.elapsed().as_secs_f64();
            match stats {
                Ok(st) if built.verify(&cpu).is_ok() => instret += st.instret,
                _ => r.problem(format!("isa: kernel {} did not verify", kernel.name())),
            }
            r.ops(1, 0);

            let mut rec = Recorder(Vec::new());
            let mut cpu = built.cpu.clone();
            let _ = rvhpc_isa::run(&mut cpu, &prog, &mut rec, rvhpc_isa::kernels::MAX_STEPS);
            let mut consumer = TraceConsumer::for_thread(&machine, threads);
            let t0 = Instant::now();
            for ev in &rec.0 {
                consumer.consume(*ev);
            }
            replay_s += t0.elapsed().as_secs_f64();
            events += rec.0.len();
            std::hint::black_box(consumer.stats());

            let t0 = Instant::now();
            std::hint::black_box(rvhpc_isa::characterize(kernel, &machine, threads, ext));
            characterize_s += t0.elapsed().as_secs_f64();
        }
    }
    r.add(
        "isa.decode.minstr_s",
        decoded as f64 / decode_s / 1e6,
        "Minstr/s",
    );
    r.add("isa.cfg_us", cfg_s * 1e6 / cfgs as f64, "us");
    r.add(
        "isa.interp.minstr_s",
        instret as f64 / interp_s / 1e6,
        "Minstr/s",
    );
    r.add("isa.instret", instret as f64, "count");
    r.add(
        "archsim.replay.mevents_s",
        events as f64 / replay_s / 1e6,
        "Mevents/s",
    );
    r.add("archsim.replay_share", replay_s / characterize_s, "frac");
}

/// Untraced/traced solve pairs behind the isa grid's tracing overhead.
const OVERHEAD_PAIRS: usize = 3;

/// Pool busy share on the isa grid, and the grid's tracing overhead.
fn isa_parallel(seed: u64, r: &mut Report) -> f64 {
    let plan: Plan = inproc::isa_grid(seed, 0);
    let t0 = Instant::now();
    let serial = Engine::new().execute_with_jobs(&plan, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    let pool = Pool::new(util::nproc());
    let solve = |traced: bool| -> (f64, Vec<Arc<rvhpc_core::Prediction>>) {
        rvhpc_obs::set_enabled(traced);
        let t0 = Instant::now();
        let preds = Engine::new().execute_on(&plan, &pool);
        let secs = t0.elapsed().as_secs_f64();
        rvhpc_obs::set_enabled(false);
        let _ = rvhpc_obs::drain_all();
        (secs, preds)
    };
    // Alternate untraced and traced solves so warm-up favours neither.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut preds = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        let (secs, p) = solve(false);
        untraced.push(secs);
        preds = p;
        traced.push(solve(true).0);
    }
    let (untraced_s, traced_s) = (util::median(&untraced), util::median(&traced));
    r.ops((1 + 2 * OVERHEAD_PAIRS as u64) * plan.len() as u64, 0);
    if !inproc::same(&serial, &preds) {
        r.problem("isa grid: pool resolve differs from jobs=1".to_string());
    }
    r.add(
        "parallel.busy_frac",
        serial_s / (untraced_s * pool.nthreads() as f64),
        "frac",
    );
    traced_s / untraced_s - 1.0
}

// ------------------------------------------------------------ npb, stream

fn npb_layers(r: &mut Report) -> f64 {
    let pool = Pool::new(util::nproc());
    let by_name = |res: &[rvhpc_npb::BenchResult]| -> BTreeMap<String, (f64, f64)> {
        res.iter()
            .map(|b| (b.name.to_ascii_lowercase(), (b.time_seconds, b.mops)))
            .collect()
    };
    let (untraced, _, res) = inproc::npb_pass(&pool, r);
    let full = by_name(&res);

    let _ = rvhpc_obs::drain_all();
    rvhpc_obs::set_enabled(true);
    let (traced, _, _) = inproc::npb_pass(&pool, r);
    rvhpc_obs::set_enabled(false);
    let data = rvhpc_obs::drain_all();
    if data.dropped > 0 {
        r.problem(format!("npb: the recorder dropped {} events", data.dropped));
    }
    let summary = rvhpc_obs::summarize(&data.events);
    let kind = |k: &str| summary.per_kind.get(k).copied().unwrap_or_default();
    r.add("parallel.region_us", kind("region").total_us as f64, "us");
    r.add(
        "parallel.chunk_acquires",
        kind("chunk-acquire").count as f64,
        "count",
    );
    r.add(
        "parallel.chunk_acquire_us",
        kind("chunk-acquire").total_us as f64,
        "us",
    );
    r.add(
        "parallel.barrier_wait_us",
        kind("barrier-wait").total_us as f64,
        "us",
    );

    let single = Pool::new(1);
    let (_, _, res1) = inproc::npb_pass(&single, r);
    let one = by_name(&res1);
    for (name, (t_n, mops)) in &full {
        r.add(format!("parallel.speedup.{name}"), one[name].0 / t_n, "x");
        r.add(format!("npb.{name}.mops"), *mops, "Mop/s");
    }
    traced / untraced - 1.0
}

/// Host STREAM triad, the bandwidth roof for reading npb.mg/cg/ft.
fn stream_layer(r: &mut Report) {
    const N: usize = 4 << 20;
    let res = rvhpc_stream::host::run_host_stream(N, 5, &Pool::new(util::nproc()));
    r.ops(1, u64::from(!res.validated));
    if !res.validated {
        r.problem("stream: solution check failed".to_string());
    }
    r.add("stream.triad_gbs", res.best_gbs[3], "GB/s");
}
