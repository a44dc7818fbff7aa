//! **Barrier progress under induced backpressure: aligned vs unaligned
//! checkpoints.**
//!
//! Drives the depth-4 keyed chain with a sustained slow consumer (one
//! mid-stage task throttled 150× in repeating windows, so its input queue
//! holds a multi-hundred-record backlog whenever a barrier arrives) and
//! measures checkpoint completion latency — trigger at the JM to the last
//! ack — in both checkpoint modes. Aligned barriers wait behind the backlog
//! (alignment stall); unaligned barriers jump the queue and carry the
//! overtaken records inside the checkpoint image. Reports p50/p99 completion
//! latency per mode, bytes per checkpoint image (the O(in-flight) overhead
//! unaligned pays), and writes `BENCH_barrier.json`. The acceptance floor
//! for the unaligned checkpoint work is a ≥5x p99 completion-latency
//! reduction under backpressure.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_barrier`
//! (`BENCH_SMOKE=1` runs the same horizon and writes
//! `target/bench-smoke/BENCH_barrier.json` instead.)

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_bench::{percentile, populate_round_robin, Ledger, LedgerRow, Value};
use clonos_engine::config::CheckpointMode;
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

const RATE: u64 = 1_000;
const PARALLELISM: usize = 2;
const NODES: u32 = 4;
const SECS: u64 = 40;
/// Checkpoints every 2 s; slow windows open every 3 s, so barriers land in
/// every phase of the backlog's build/drain cycle.
const CP_INTERVAL_SECS: u64 = 2;
const SLOW_PERIOD_SECS: u64 = 3;
const SLOW_FACTOR: u64 = 150;
const SLOW_WINDOW: VirtualDuration = VirtualDuration::from_millis(1_500);

fn chain() -> JobGraph {
    let mut g = JobGraph::new("bench-barrier");
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

/// Repeating slow windows over task 3 ("a" stage) covering the input span.
fn backpressure_plan() -> FailurePlan {
    let mut plan = FailurePlan::none();
    let mut at = 4u64;
    while at + 2 < SECS - 5 {
        plan = plan.slow_at(VirtualTime(at * 1_000_000), 3, SLOW_FACTOR, SLOW_WINDOW);
        at += SLOW_PERIOD_SECS;
    }
    plan
}

fn run_one(mode: CheckpointMode) -> RunReport {
    let ft = FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full));
    let mut cfg = EngineConfig::default().with_seed(42).with_ft(ft);
    cfg.num_nodes = NODES;
    cfg.checkpoint_interval = VirtualDuration::from_secs(CP_INTERVAL_SECS);
    cfg.checkpoint_mode = mode;
    let mut runner = JobRunner::new(chain(), cfg);
    let n = RATE as i64 * PARALLELISM as i64 * (SECS as i64 - 5);
    let rows: Vec<Row> =
        (0..n).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)])).collect();
    populate_round_robin(&mut runner, "in", &rows);
    runner.with_failures(backpressure_plan()).run_for(VirtualDuration::from_secs(SECS))
}

/// Completion latency (µs) per checkpoint id: JM trigger → last ack.
fn checkpoint_latencies(report: &RunReport) -> Vec<u64> {
    let mut triggered = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in &report.causal_events {
        match e.kind {
            "TriggerCheckpoint" => {
                triggered.entry(e.epoch).or_insert(e.at);
            }
            "CheckpointComplete" => {
                if let Some(t0) = triggered.get(&e.epoch) {
                    out.push(e.at.saturating_sub(*t0).as_micros());
                }
            }
            _ => {}
        }
    }
    out
}

fn measure(mode: CheckpointMode, label: &str) -> LedgerRow {
    let report = run_one(mode);
    assert!(report.records_out > 0, "{label}: no output committed");
    assert!(
        report.duplicate_idents().is_empty() && report.ident_gaps().is_empty(),
        "{label}: exactly-once violated under backpressure"
    );
    let mut lat = checkpoint_latencies(&report);
    if std::env::var("BENCH_BARRIER_DEBUG").is_ok() {
        eprintln!("{label}: per-checkpoint completion latencies (us, trigger order): {lat:?}");
    }
    lat.sort_unstable();
    assert!(lat.len() >= 3, "{label}: only {} completed checkpoints", lat.len());
    let cs = &report.checkpoint_stats;
    let images = cs.full_snapshots + cs.delta_snapshots;
    LedgerRow::new()
        .text("mode", "mode", label)
        .int("completed", "completed", lat.len() as u64)
        .int("p50_us", "p50 us", percentile(&lat, 50.0))
        .int("p99_us", "p99 us", percentile(&lat, 99.0))
        .int("bytes_per_image", "B/image", (cs.full_bytes + cs.delta_bytes) / images.max(1))
        .int("alignment_stall_us", "stall us", cs.alignment_stall_us)
        .int("overtaken_records", "overtaken", cs.overtaken_records)
        .int("overtaken_bytes", "overtaken B", cs.overtaken_bytes)
}

fn main() {
    let aligned = measure(CheckpointMode::Aligned, "aligned");
    let unaligned = measure(CheckpointMode::Unaligned, "unaligned");
    let ratio = |key| aligned.get(key) / unaligned.get(key).max(1.0);
    let (p99_ratio, p50_ratio) = (ratio("p99_us"), ratio("p50_us"));
    let overtaken = unaligned.get("overtaken_records");
    Ledger::new(
        "barrier",
        "barrier",
        "Checkpoint completion under a 150x slow consumer (trigger -> last ack)",
        vec![aligned, unaligned],
    )
    .field("slow_factor", Value::Int(SLOW_FACTOR))
    .field("p99_reduction", Value::Num(p99_ratio, 3))
    .field("p50_reduction", Value::Num(p50_ratio, 3))
    .line(format!(
        "p99 completion-latency reduction (aligned/unaligned): {p99_ratio:.2}x \
         (acceptance floor: 5.00x); p50: {p50_ratio:.2}x"
    ))
    .gate(
        overtaken > 0.0,
        "unaligned run captured no overtaken records — backpressure did not bite",
    )
    .gate(
        p99_ratio >= 5.0,
        format!("unaligned p99 is not >=5x below aligned p99 ({p99_ratio:.2}x)"),
    )
    .finish();
}
