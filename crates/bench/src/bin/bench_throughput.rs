//! **Multi-threaded runtime scaling: records/sec vs worker threads.**
//!
//! Runs two failure-free workloads — the §7.2 synthetic chain (depth 4,
//! parallelism 8, keyed stateful stages) and a keyed running-sum
//! aggregation — on the sharded actor runtime, sweeping 1/2/4/8 worker
//! threads, plus a single-threaded sim-scheduler reference row. Reports
//! records/sec, speedup vs 1 worker, scaling efficiency, and the runtime's
//! own counters (steals, backpressure stalls, mailbox highwater, per-worker
//! event skew), and writes `BENCH_throughput.json`. The acceptance floor
//! for the runtime work is ≥3x records/sec at 8 workers vs 1 on the chain
//! workload, near-linear to 4.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_throughput`
//! (`BENCH_SMOKE=1` shrinks the workload for CI smoke runs and
//! additionally asserts the parallel record counts match a sim-scheduled
//! run of the same job; it writes `target/bench-smoke/BENCH_throughput.json`
//! instead.)

// Host-time measurement is this binary's purpose (clippy.toml wall-clock
// disallow list exempts measurement code explicitly).
#![allow(clippy::disallowed_methods)]

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_bench::{
    host_cpus, populate_round_robin, smoke, synthetic_chain, synthetic_rows, Ledger, LedgerRow,
    Value,
};
use clonos_engine::operators::ReduceOp;
use clonos_engine::*;
use clonos_sim::VirtualDuration;

const SEED: u64 = 41;
const PARALLELISM: usize = 8;
const KEYS: i64 = 64; // divisible by PARALLELISM: keys stay partition-local
const RATE: u64 = 100_000;

fn rows_total() -> i64 {
    if smoke() {
        4_000
    } else {
        200_000
    }
}

fn virtual_secs() -> u64 {
    if smoke() {
        10
    } else {
        30
    }
}

fn worker_sweep() -> &'static [usize] {
    if smoke() {
        &[2]
    } else {
        &[1, 2, 4, 8]
    }
}

fn ft() -> FtMode {
    FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full))
}

fn chain_runner() -> JobRunner {
    let job = synthetic_chain(4, PARALLELISM, RATE);
    let mut runner = JobRunner::new(job, EngineConfig::default().with_seed(SEED).with_ft(ft()));
    populate_round_robin(&mut runner, "in", &synthetic_rows(rows_total(), KEYS));
    runner
}

/// src("in") → keyed running-sum → sink("out"), all at PARALLELISM.
fn keyed_agg_runner() -> JobRunner {
    let mut g = JobGraph::new("keyed-agg");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(RATE).key_field(0));
    let agg = g.add_operator(
        "sum",
        PARALLELISM,
        factory(|| {
            ReduceOp::new(|acc: Option<&Row>, row: &Row| {
                let prev = acc.map(|a| a.int(1)).unwrap_or(0);
                Row::new(vec![row.0[0].clone(), Datum::Int(prev + row.int(1))])
            })
        }),
    );
    g.connect(src, agg, Partitioning::Hash);
    let sink = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(agg, sink, Partitioning::Hash);
    let mut runner = JobRunner::new(g, EngineConfig::default().with_seed(SEED).with_ft(ft()));
    populate_round_robin(&mut runner, "in", &synthetic_rows(rows_total(), KEYS));
    runner
}

type MakeRunner = fn() -> JobRunner;

/// One run: 0 workers = deterministic sim scheduler (single-threaded
/// reference). The 1-worker run sets `base`, the rate later runs' speedup
/// is relative to.
fn measure(workload: &str, make: MakeRunner, workers: usize, base: &mut Option<f64>) -> LedgerRow {
    let duration = VirtualDuration::from_secs(virtual_secs());
    let report = if workers == 0 {
        make().run_for(duration)
    } else {
        make().run_parallel_for(
            duration,
            &ParallelConfig { workers, ..ParallelConfig::default() },
        )
    };
    assert_eq!(
        report.records_in,
        rows_total() as u64,
        "{workload} did not drain its input ({} workers)",
        workers
    );
    assert!(report.duplicate_idents().is_empty(), "{workload} produced duplicates");
    let rate = report.records_out as f64 / report.wall_seconds.max(1e-9);
    if workers == 1 {
        *base = Some(rate);
    }
    let speedup = match *base {
        Some(b) if workers > 0 => rate / b.max(1e-9),
        _ => f64::NAN,
    };
    let rs = report.runtime_stats;
    LedgerRow::new()
        .text("workload", "workload", workload)
        .int("workers", "workers", workers as u64)
        .int("records_out", "records", report.records_out)
        .num("wall_seconds", "wall s", report.wall_seconds, 4)
        .num("records_per_sec", "rec/s", rate, 1)
        .num("speedup_vs_1w", "speedup", speedup, 3)
        .num("scaling_efficiency", "eff", speedup / workers as f64, 3)
        .int("steals", "steals", rs.steals)
        .int("mailbox_stalls", "stalls", rs.mailbox_stalls)
        .int("mailbox_depth_highwater", "mbox hw", rs.mailbox_depth_highwater)
        .int("min_worker_events", "min ev", rs.min_worker_events)
        .int("max_worker_events", "max ev", rs.max_worker_events)
}

/// Smoke gate: the parallel runtime must complete and match the record
/// counts of a sim-scheduled run of the same job and inputs.
fn sim_parity_check() {
    let duration = VirtualDuration::from_secs(virtual_secs());
    let sim = chain_runner().run_for(duration);
    let par = chain_runner().run_parallel_for(
        duration,
        &ParallelConfig { workers: 2, ..ParallelConfig::default() },
    );
    assert_eq!(sim.records_in, par.records_in, "smoke: records_in diverges from sim");
    assert_eq!(sim.records_out, par.records_out, "smoke: records_out diverges from sim");
    assert_eq!(par.runtime_stats.workers, 2);
    println!(
        "smoke: parallel runtime matches sim ({} in / {} out)",
        par.records_in, par.records_out
    );
}

fn main() {
    if smoke() {
        sim_parity_check();
    }

    let workloads: [(&'static str, MakeRunner); 2] =
        [("chain", chain_runner), ("keyed_agg", keyed_agg_runner)];
    let mut rows: Vec<LedgerRow> = Vec::new();
    let mut chain_speedup_8w = None;
    for (name, make) in workloads {
        // Sim-scheduler reference first, then the worker sweep.
        let mut base = None;
        for &w in [0].iter().chain(worker_sweep()) {
            let row = measure(name, make, w, &mut base);
            if name == "chain" && w == 8 && base.is_some() {
                chain_speedup_8w = Some(row.get("speedup_vs_1w"));
            }
            rows.push(row);
        }
    }

    let cores = host_cpus();
    let mut ledger = Ledger::new(
        "throughput",
        "throughput",
        "Sharded actor runtime: records/sec vs workers",
        rows,
    )
    .field("parallelism", Value::Int(PARALLELISM as u64))
    .field("host_parallelism", Value::Int(cores as u64))
    .field("rows_total", Value::Int(rows_total() as u64))
    .field("chain_speedup_8w", Value::Num(chain_speedup_8w.unwrap_or(f64::NAN), 3));
    ledger = match chain_speedup_8w {
        Some(s) => ledger.line(format!(
            "chain speedup at 8 workers vs 1: {s:.2}x (acceptance floor: 3.00x)"
        )),
        None => ledger.line("smoke run: 8-worker acceptance configuration skipped"),
    };
    // Scaling is bounded by the CPUs the OS schedules us on: on a 1-core
    // host every worker count gives the same throughput, so the sweep
    // measures overhead, not parallel speedup.
    if chain_speedup_8w.is_some() && cores < 8 {
        ledger = ledger.line(format!(
            "note: host schedules only {cores} CPU(s) — speedup is bounded by \
             min(workers, host CPUs); the floor assumes an 8-core host"
        ));
    }
    ledger.finish();
}
