//! The repository benchmark.
//!
//! ```text
//! clonos-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--reduced]
//! ```
//!
//! `--trace 0` is a timed run: it repeats the workload for `--seconds` host
//! seconds with no tracing, checks every job's output with the oracle, and
//! prints the end-to-end metrics, host times scaled to nominal host speed
//! (see `calib`). `--trace 1` is the traced run: spans
//! around every public call, layer probes, baseline rows, and the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `--reduced` shrinks the inputs; reduced runs check the benchmark itself
//! and never publish numbers: their result line carries units and `null`
//! values, and they write no result file.
//!
//! Normally driven by `perfbench/run.py`, which builds this package first.

// Host-time measurement is this benchmark's purpose (the workspace
// clippy.toml disallows wall-clock reads to keep the engine deterministic).
#![allow(clippy::disallowed_methods)]

mod calib;
mod oracle;
mod out;
mod probes;
mod timed;
mod trace;
mod traced;
mod virt;
mod workloads;

use workloads::{Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    out_dir: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut out_dir = std::path::PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--out-dir" => out_dir = value()?.into(),
            "--reduced" => size = Size::Reduced,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clonos-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"run\": {}, \
         \"commit\": {}, \"tree_digest\": {}, \"nproc\": {}, \"config\": {}}}",
        out::string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        out::string(if args.size == Size::Full {
            "full"
        } else {
            "reduced"
        }),
        out::string(&env("PERFBENCH_COMMIT")),
        out::string(&env("PERFBENCH_TREE_DIGEST")),
        workloads::host_cpus(),
        out::string(&workloads::describe(args.workload, args.size)),
    );
    println!("provenance {provenance}");

    let outcome = if args.trace {
        traced::run(
            args.workload,
            args.seed,
            args.seconds,
            args.size,
            &args.out_dir,
        )
    } else {
        timed::run(args.workload, args.seed, args.seconds, args.size)
    };
    for line in &outcome.report {
        println!("{line}");
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let publish = args.size == Size::Full;
    for (name, value, unit) in outcome.metrics.iter() {
        if publish {
            println!("metric {name} = {} {unit}", out::num(*value));
        } else {
            println!("metric {name} [{unit}] (reduced run: value not published)");
        }
    }
    let correct = outcome.failed == 0;
    let line = out::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
        publish,
    );
    if publish {
        let _ = std::fs::create_dir_all(&args.out_dir);
        let file = args.out_dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            args.trace as u8
        ));
        let body = format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n");
        if let Err(e) = std::fs::write(&file, body) {
            eprintln!("clonos-perfbench: cannot write {}: {e}", file.display());
        }
    }
    println!("{line}");
}
