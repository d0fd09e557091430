//! rvhpc end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload isa_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics of one workload; `--trace 1` prints the per-layer attribution
//! run instead. Every line before the last is for people; the last line
//! is the JSON result. See `e2ebench/README.md`.

mod grid;
mod inproc;
mod layers;
mod net;
mod null;
mod report;
mod serve_wl;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_cold", "isa_sweep", "npb_host"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload {{{}}} --seed N --seconds S --trace {{0|1}}",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--null-server") {
        return match null::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench null server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    // Scratch files (stores, traces) live under the checkout and are
    // removed when the run ends.
    let work = PathBuf::from("e2ebench").join(".work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut r = Report::default();
    let outcome = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds, &work, &mut r)
    } else {
        match args.workload.as_str() {
            "serve_hot" => {
                serve_wl::run(serve_wl::Mix::Hot, args.seed, args.seconds, &work, &mut r)
            }
            "serve_cold" => {
                serve_wl::run(serve_wl::Mix::Cold, args.seed, args.seconds, &work, &mut r)
            }
            "isa_sweep" => inproc::run_isa(args.seed, args.seconds, &mut r),
            _ => inproc::run_npb(args.seconds, &mut r),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("e2ebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    r.print();
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
