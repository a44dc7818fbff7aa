//! **Recovery-time distribution under chaos-style faults** — single task
//! kill vs whole-node crash, Clonos causal recovery vs global-rollback
//! baseline, swept over seeds.
//!
//! Each run kills at a fixed instant but varies the engine seed (and a 50 ms
//! detection-jitter window), so the sweep samples the recovery-time
//! distribution rather than a single trajectory. Recovery time follows the
//! paper's definition: time from the failure until observed latency returns
//! within 10% of the pre-failure baseline. Writes `BENCH_recovery.json`.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_recovery [seeds]`
//! (`BENCH_SMOKE=1` writes `target/bench-smoke/BENCH_recovery.json` instead.)

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_bench::{percentile, populate_round_robin, Ledger, LedgerRow, Value};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

const RATE: u64 = 2_000;
const PARALLELISM: usize = 2;
const NODES: u32 = 4;
const SECS: u64 = 60;
const KILL_AT: u64 = 20_000_000; // µs: after 4 checkpoints and a 15 s baseline

fn chain() -> JobGraph {
    let mut g = JobGraph::new("bench-recovery");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(RATE).key_field(0));
    let stage = || {
        factory(|| {
            ProcessOp::new(|_i, rec: &Record, ctx: &mut OpCtx<'_>| {
                let c = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
                ctx.state.set_value(0, rec.key, Row::new(vec![Datum::Int(c)]));
                let _ts = ctx.timestamp()?;
                ctx.emit(rec.key, rec.event_time, rec.row.clone());
                Ok(())
            })
        })
    };
    let a = g.add_operator("a", PARALLELISM, stage());
    let b = g.add_operator("b", PARALLELISM, stage());
    let snk = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(src, a, Partitioning::Hash);
    g.connect(a, b, Partitioning::Hash);
    g.connect(b, snk, Partitioning::Hash);
    g
}

#[derive(Clone, Copy)]
enum FaultKind {
    SingleKill,
    NodeCrash,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::SingleKill => "single kill (task 3)",
            FaultKind::NodeCrash => "node crash (node 2)",
        }
    }

    fn plan(self) -> FailurePlan {
        match self {
            FaultKind::SingleKill => FailurePlan::none().kill_at(VirtualTime(KILL_AT), 3),
            FaultKind::NodeCrash => FailurePlan::none().node_crash_at(VirtualTime(KILL_AT), 2),
        }
    }
}

fn run_one(ft: FtMode, fault: FaultKind, seed: u64) -> RunReport {
    let mut cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
    cfg.num_nodes = NODES;
    cfg.detection_jitter = VirtualDuration::from_millis(50);
    let mut runner = JobRunner::new(chain(), cfg);
    let n = RATE as i64 * PARALLELISM as i64 * (SECS as i64 - 15);
    let rows: Vec<Row> =
        (0..n).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)])).collect();
    populate_round_robin(&mut runner, "in", &rows);
    runner.with_failures(fault.plan()).run_for(VirtualDuration::from_secs(SECS))
}

fn main() {
    let seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(15);
    type ModeCell = (&'static str, fn() -> FtMode);
    let modes: [ModeCell; 2] = [
        ("clonos", || FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full))),
        ("global-rollback", || FtMode::GlobalRollback),
    ];
    let mut rows = Vec::new();
    for (mode, ft) in modes {
        for fault in [FaultKind::SingleKill, FaultKind::NodeCrash] {
            let mut times = Vec::new();
            let mut detect_us_total = 0u64;
            let mut detect_samples = 0u64;
            let mut escalations = 0u64;
            for seed in 0..seeds {
                let report = run_one(ft(), fault, seed);
                assert!(
                    report.duplicate_idents().is_empty() && report.ident_gaps().is_empty(),
                    "{mode}/{} seed {seed}: output not exactly-once",
                    fault.label()
                );
                if let Some(t) = report.recovery_time(1.10) {
                    times.push(t.as_secs_f64());
                }
                detect_us_total += report.recovery_stats.detection_latency_us_total;
                detect_samples += report.recovery_stats.detection_samples;
                escalations += report.recovery_stats.escalations;
            }
            times.sort_by(f64::total_cmp);
            assert!(!times.is_empty(), "{mode}/{}: no run stabilized", fault.label());
            let detect_ms = detect_us_total as f64 / detect_samples.max(1) as f64 / 1_000.0;
            rows.push(
                LedgerRow::new()
                    .text("mode", "system", mode)
                    .text("fault", "fault", fault.label())
                    .int("stabilized", "stabilized", times.len() as u64)
                    .num("recovery_p50_s", "p50 s", percentile(&times, 50.0), 3)
                    .num("recovery_p99_s", "p99 s", percentile(&times, 99.0), 3)
                    .num("mean_detection_ms", "mean detect ms", detect_ms, 3)
                    .int("escalations", "escalations", escalations),
            );
        }
    }
    Ledger::new(
        "recovery",
        "recovery_time",
        "Recovery time distribution (10% latency-stabilization criterion)",
        rows,
    )
    .field("seeds_per_cell", Value::Int(seeds))
    .field("kill_at_s", Value::Int(KILL_AT / 1_000_000))
    .finish();
}
