//! `serve_hot` and `serve_cold`: open-loop predict traffic over loopback
//! against a `serve` child process, every reply checked byte for byte
//! against a fresh in-process engine.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rvhpc_core::engine::{Engine, Plan};
use rvhpc_machines::MachineId;
use rvhpc_npb::{BenchmarkId, Class};
use rvhpc_obs::json::{self, JsonValue};
use rvhpc_parallel::Pool;
use rvhpc_serve::proto::{self, Request};

use crate::grid::{self, Step};
use crate::net::{self, Conn, Pace};
use crate::report::Report;
use crate::util::{self, median, Rng};

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ~95% repeats of a warmed preset set, ~5% fresh what-if descriptors.
    Hot,
    /// Every request a distinct what-if descriptor; server has `--store`.
    Cold,
}

/// Reference rate (requests/s) the grid's fractions apply to: the
/// highest rate at which each mix kept its p99 within 1 ms on a 2-vCPU
/// x86-64 virtual machine when the benchmark was defined.
pub fn reference_rps(mix: Mix) -> f64 {
    match mix {
        Mix::Hot => 15_000.0,
        Mix::Cold => 8_000.0,
    }
}

/// p99 limit for capacity, microseconds: above the few-millisecond
/// stalls a 2-vCPU virtual machine shows at any load, so that crossing
/// it means queueing.
pub const LIMIT_US: f64 = 50_000.0;
/// Preset queries in the hot set.
pub const HOT_SET: usize = 100;
/// Share of hot-mix requests that are fresh descriptors.
pub const HOT_FRESH: f64 = 0.05;
/// Connections the generator spreads requests over.
pub const CONNS: usize = 8;
/// In-flight window of the `solve_s` batch.
pub const SOLVE_WINDOW: usize = 32;
/// How long to wait for stragglers after the last request of a step.
const DRAIN: Duration = Duration::from_secs(2);

const CLASSES: [Class; 5] = [Class::S, Class::W, Class::A, Class::B, Class::C];
const THREADS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The seeded request stream of one mix.
pub struct Inputs {
    mix: Mix,
    rng: Rng,
    hot: Vec<String>,
    fresh: u64,
}

impl Inputs {
    pub fn new(mix: Mix, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let mut hot = Vec::with_capacity(HOT_SET);
        while hot.len() < HOT_SET {
            let body = format!(
                r#""bench":"{}","class":"{}","threads":{},"machine":"{}""#,
                BenchmarkId::ALL[rng.below(8)].name(),
                CLASSES[rng.below(CLASSES.len())].name(),
                THREADS[rng.below(THREADS.len())],
                MachineId::ALL[rng.below(MachineId::ALL.len())].name(),
            );
            if !hot.contains(&body) {
                hot.push(body);
            }
        }
        Inputs {
            mix,
            rng: Rng::new(seed, 2),
            hot,
            fresh: 0,
        }
    }

    /// The hot set (the warm-up pass of the hot mix).
    pub fn hot_set(&self) -> &[String] {
        &self.hot
    }

    /// A what-if descriptor no earlier request of this run used: the
    /// clock is unique per request, the rest is drawn from the seed.
    pub fn fresh(&mut self) -> String {
        self.fresh += 1;
        let r = &mut self.rng;
        format!(
            r#""bench":"{}","class":"{}","threads":{},"machine":{{"base":"{}","clock_ghz":{:.6},"bandwidth_scale":{:.3},"mlp_scale":{:.3}}}"#,
            BenchmarkId::ALL[r.below(8)].name(),
            CLASSES[r.below(CLASSES.len())].name(),
            THREADS[r.below(THREADS.len())],
            MachineId::ALL[r.below(MachineId::ALL.len())].name(),
            1.0 + self.fresh as f64 * 1e-6,
            0.5 + r.unit(),
            0.75 + 0.5 * r.unit(),
        )
    }

    /// The next request body of the mix.
    pub fn next(&mut self) -> String {
        match self.mix {
            Mix::Hot if self.rng.unit() >= HOT_FRESH => self.hot[self.rng.below(HOT_SET)].clone(),
            _ => self.fresh(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Expected `result` objects, from a fresh in-process engine.
pub struct Oracle {
    engine: Engine,
    pool: Pool,
    known: HashMap<String, JsonValue>,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            engine: Engine::new(),
            pool: Pool::new(util::nproc()),
            known: HashMap::new(),
        }
    }

    /// Resolve every body not seen yet, as one plan on the pool.
    pub fn learn(&mut self, bodies: &[String]) {
        let mut plan = Plan::new();
        let mut pending = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for body in bodies {
            if self.known.contains_key(body) || !seen.insert(body) {
                continue;
            }
            let Ok(Request::Predict(req)) = proto::parse_request(&format!("{{{body}}}")) else {
                panic!("benchmark generated an invalid request: {body}");
            };
            plan.merge(req.to_plan().0);
            pending.push((body.clone(), req));
        }
        let preds = self.engine.execute_on(&plan, &self.pool);
        for ((body, req), pred) in pending.into_iter().zip(preds) {
            self.known
                .insert(body, proto::prediction_result(&req, &pred));
        }
    }

    /// The reply a correct server sends for `body` under `id`.
    pub fn reply(&self, body: &str, id: u64) -> String {
        proto::render_ok(Some(id), self.known[body].clone())
    }
}

/// Request lines for `bodies`, ids from `first_id`.
pub fn lines(bodies: &[String], first_id: u64) -> Vec<Vec<u8>> {
    bodies
        .iter()
        .zip(first_id..)
        .map(|(b, id)| format!("{{\"op\":\"predict\",\"id\":{id},{b}}}\n").into_bytes())
        .collect()
}

/// Latencies of an outcome with wrong replies turned into failures;
/// returns them with the count of wrong replies.
pub fn checked(
    oracle: &Oracle,
    bodies: &[String],
    first_id: u64,
    out: &net::Outcome,
) -> (Vec<Option<f64>>, u64) {
    let mut wrong = 0;
    let lat = out
        .lat_us
        .iter()
        .zip(&out.replies)
        .zip(bodies.iter().zip(first_id..))
        .map(|((lat, reply), (body, id))| match reply {
            Some(r) if r.as_slice() == oracle.reply(body, id).as_bytes() => *lat,
            Some(_) => {
                wrong += 1;
                None
            }
            None => None,
        })
        .collect();
    (lat, wrong)
}

/// Build the repository's `serve` binary (a no-op when it is current)
/// and return its path.
pub fn build_serve() -> io::Result<PathBuf> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "serve",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other("cargo build --bin serve failed"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|d| {
            d.get("target")
                .and_then(|t| t.get("name"))
                .and_then(|n| n.as_str())
                == Some("serve")
        })
        .find_map(|d| {
            d.get("executable")
                .and_then(|e| e.as_str())
                .map(PathBuf::from)
        })
        .ok_or_else(|| io::Error::other("cargo reported no serve executable"))
}

/// A running server child.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawn `program args...`, wait for its `listening on ADDR` banner;
    /// returns the server and the seconds that took.
    pub fn spawn(program: &Path, args: &[String]) -> io::Result<(Server, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut banner)?;
        let secs = t0.elapsed().as_secs_f64();
        let Some(addr) = banner.trim().split("listening on ").nth(1) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("no listen banner: {banner:?}")));
        };
        let addr = addr.to_string();
        Ok((Server { child, addr }, secs))
    }

    /// One admin round trip on a fresh blocking connection.
    pub fn admin(&self, op: &str) -> io::Result<JsonValue> {
        let mut s = TcpStream::connect(&self.addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        writeln!(s, "{{\"op\":\"{op}\"}}")?;
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line)?;
        let doc = json::parse(line.trim()).map_err(|e| io::Error::other(e.to_string()))?;
        doc.get("result")
            .cloned()
            .ok_or_else(|| io::Error::other(format!("admin {op} failed: {line}")))
    }

    pub fn hwm_mb(&self) -> f64 {
        util::vm_hwm_mb(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }

    pub fn cpu_s(&self) -> f64 {
        util::proc_cpu_s(self.child.id()).unwrap_or(f64::NAN)
    }

    /// Ask for a graceful drain and wait for the process to end.
    pub fn quit(&mut self) -> io::Result<()> {
        let asked = self.admin("quit").is_ok();
        let t0 = Instant::now();
        while asked && t0.elapsed() < Duration::from_secs(20) {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err(io::Error::other("server did not drain in time"))
    }

    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A server never outlives the run, whichever way the run ends.
impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The per-run state of a serve workload: server, generator connections,
/// input stream and oracle, with a request-id counter.
pub struct Session {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub inputs: Inputs,
    pub oracle: Oracle,
    pub next_id: u64,
}

impl Session {
    /// Start a server and run the warm-up pass; returns the session and
    /// the set-up seconds (spawn to banner plus warm-up).
    pub fn start(
        bin: &Path,
        args: &[String],
        mix: Mix,
        seed: u64,
        r: &mut Report,
    ) -> io::Result<(Session, f64)> {
        let mut inputs = Inputs::new(mix, seed);
        let mut oracle = Oracle::new();
        let warm: Vec<String> = match inputs.mix {
            Mix::Hot => inputs.hot_set().to_vec(),
            Mix::Cold => inputs.take(HOT_SET),
        };
        oracle.learn(&warm);
        let (server, spawn_s) = Server::spawn(bin, args)?;
        let t0 = Instant::now();
        let mut conns = net::connect(&server.addr, CONNS)?;
        let mut s = Session {
            server,
            conns: Vec::new(),
            inputs,
            oracle,
            next_id: 1,
        };
        let out = net::drive(
            &mut conns,
            &lines(&warm, s.next_id),
            s.next_id,
            Pace::Window(SOLVE_WINDOW),
            DRAIN,
        )?;
        let (lat, wrong) = checked(&s.oracle, &warm, s.next_id, &out);
        s.next_id += warm.len() as u64;
        count(r, "warm-up", &lat, wrong);
        s.conns = conns;
        Ok((s, spawn_s + t0.elapsed().as_secs_f64()))
    }

    /// Send `bodies` paced by `pace`; returns checked latencies, the
    /// number of wrong replies and the raw outcome.
    pub fn send(
        &mut self,
        bodies: &[String],
        pace: Pace,
    ) -> io::Result<(Vec<Option<f64>>, u64, net::Outcome)> {
        self.oracle.learn(bodies);
        let first = self.next_id;
        self.next_id += bodies.len() as u64;
        let out = net::drive(&mut self.conns, &lines(bodies, first), first, pace, DRAIN)?;
        let (lat, wrong) = checked(&self.oracle, bodies, first, &out);
        Ok((lat, wrong, out))
    }

    /// The latency levels, `reps` times each, interleaved.
    pub fn levels(
        &mut self,
        reference: f64,
        seconds: f64,
        reps: usize,
        r: &mut Report,
    ) -> io::Result<Vec<Step>> {
        let mut steps = Vec::new();
        for _ in 0..reps {
            for (frac, _) in grid::LEVELS {
                steps.push(self.step(frac, reference, grid::step_secs(frac, seconds), r)?);
            }
        }
        Ok(steps)
    }

    /// The capacity grid walk, upwards until two misses in a row.
    pub fn grid_walk(
        &mut self,
        reference: f64,
        seconds: f64,
        r: &mut Report,
    ) -> io::Result<Vec<Step>> {
        let mut steps = Vec::new();
        for frac in grid::FRACTIONS {
            steps.push(self.step(frac, reference, grid::step_secs(frac, seconds), r)?);
            if !grid::keep_going(&steps, LIMIT_US) {
                break;
            }
        }
        Ok(steps)
    }

    /// One open-loop step at `frac` of `reference` for `secs`.
    pub fn step(
        &mut self,
        frac: f64,
        reference: f64,
        secs: f64,
        r: &mut Report,
    ) -> io::Result<Step> {
        let rate = frac * reference;
        let bodies = self.inputs.take((rate * secs).ceil() as usize);
        let (lat, wrong, out) = self.send(&bodies, Pace::Rate(rate))?;
        count(r, "step", &lat, wrong);
        let mut step = Step::new(frac, rate, lat, secs * 1e6);
        step.lateness(&out.late_us, out.cpu_s);
        Ok(step)
    }
}

/// Count a batch's operations into the report, naming wrong replies.
pub fn count(r: &mut Report, what: &str, lat: &[Option<f64>], wrong: u64) {
    let failed = lat.iter().filter(|l| l.is_none()).count() as u64;
    r.ops(lat.len() as u64, failed);
    if wrong > 0 {
        r.problem(format!(
            "{what}: {wrong} replies differ from the in-process engine"
        ));
    }
}

/// Server arguments for a mix: defaults, plus a fresh store for `Cold`.
pub fn server_args(mix: Mix, work: &Path, tag: &str) -> io::Result<Vec<String>> {
    let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
    if mix == Mix::Cold {
        let dir = work.join(format!("store-{tag}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        args.push("--store".to_string());
        args.push(dir.display().to_string());
    }
    Ok(args)
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `solve_s` batches per run; `solve_s` is their median.
const SOLVES: usize = 5;

/// The untraced end-to-end run of a serve workload.
pub fn run(mix: Mix, seed: u64, seconds: f64, work: &Path, r: &mut Report) -> io::Result<()> {
    let bin = build_serve()?;
    let mut setups = Vec::new();
    let mut session = None;
    for rep in 0..SETUPS {
        let args = server_args(mix, work, &rep.to_string())?;
        let (s, secs) = Session::start(&bin, &args, mix, seed, r)?;
        setups.push(secs);
        if let Some(mut old) = session.replace(s) {
            old.server.quit()?;
        }
    }
    let mut s = session.expect("at least one set-up");
    let reference = reference_rps(mix);
    let before = s.server.admin("metrics")?;
    let levels = s.levels(reference, seconds, grid::LEVEL_REPEATS, r)?;
    let after = s.server.admin("metrics")?;
    let delta = |key| {
        util::json_num(&after, &["server", "cache", key])
            - util::json_num(&before, &["server", "cache", key])
    };
    let (hits, misses) = (delta("hits"), delta("misses"));
    eprintln!(
        "{mix:?}: cache hit share over the level steps {:.4}",
        hits / (hits + misses)
    );
    // solve_s: fixed batches answered through a bounded window.
    let mut solves = Vec::new();
    for _ in 0..SOLVES {
        let bodies = s.inputs.take((reference * seconds / 20.0) as usize);
        let (lat, wrong, out) = s.send(&bodies, Pace::Window(SOLVE_WINDOW))?;
        count(r, "solve", &lat, wrong);
        solves.push(out.wall_s);
    }
    // Peak memory over the fixed part of the run; the grid walk's length
    // depends on where capacity lies.
    let hwm = s.server.hwm_mb();
    let steps = s.grid_walk(reference, seconds, r)?;
    grid::log(&format!("{mix:?} levels"), &levels, LIMIT_US);
    grid::log(&format!("{mix:?} grid"), &steps, LIMIT_US);
    s.server.quit()?;

    r.add("setup_s", median(&setups), "s");
    grid::report(r, &levels, &steps, LIMIT_US);
    r.add("solve_s", median(&solves), "s");
    r.add("rss_peak_mb", hwm, "MB");
    Ok(())
}
