//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --work-dir <dir> [--out-dir <dir>]`
//!
//! Runs one workload in this process, single-threaded, and prints a short
//! human-readable report followed, as the last line of standard output,
//! by one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` measures the end-to-end metrics with observability off;
//! `--trace 1` runs the traced episode and prints the per-layer metrics.
//! A failed correctness check prints the violations to standard error,
//! still prints the JSON line (with `"correct": false`), and exits 1.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::episode::Kind;
use perfbench::{layers, timed};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let (result, errors) = if args.trace {
        let traced = layers::run(args.kind, args.seed, &args.work_dir);
        println!("{}", traced.report());
        if let Some(dir) = &args.out_dir {
            match traced.write_spans(dir, args.kind, args.seed) {
                Ok(path) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
            }
        }
        (traced.result(), traced.errors.clone())
    } else {
        let t = timed::run(args.kind, args.seed, args.seconds, &args.work_dir);
        println!(
            "{} seed {}: {} episode(s), {} intervals of {} timed rounds, window {:.3} s, \
             {} committed in window, {} latency samples; setup samples {}; \
             input generation {:.3} s (excluded); settled {} committed + {} rejected-invalid + \
             {} failed of {} submitted; ledger {}",
            args.kind,
            args.seed,
            t.episodes,
            t.intervals.len(),
            args.kind.shape().interval_rounds,
            t.window_s(),
            t.intervals.iter().map(|i| i.committed).sum::<u64>(),
            t.intervals
                .iter()
                .map(|i| i.latencies_ms.len())
                .sum::<usize>(),
            t.setups.len(),
            t.gen_s,
            t.committed,
            t.rejected,
            t.failed,
            t.submitted,
            t.head,
        );
        let (tps, p50, p90, setup) = t.medians(false);
        println!(
            "{} raw wall-clock medians: commit_tps {tps:.3} commit_ms_p50 {p50:.3} \
             commit_ms_p90 {p90:.3} setup_s {setup:.5}; median host-speed factor {:.4}",
            args.kind,
            t.median_scale(),
        );
        (t.result(), t.errors.clone())
    };
    for e in &errors {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
