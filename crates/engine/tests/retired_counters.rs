//! Job-wide counters must keep what a task incarnation did after that
//! incarnation is killed or rolled back: the cluster folds every per-task
//! counter into its retired accumulator before dropping the `Task`.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_sim::{VirtualDuration, VirtualTime};

const PARALLELISM: usize = 2;

/// src → op → sink at parallelism 2: task ids src 1-2, op 3-4, sink 5-6.
/// The op reads the timestamp service, so it records determinants.
fn runner(ft: FtMode) -> JobRunner {
    let mut g = JobGraph::new("retired-counters");
    let src = g.add_source("src", PARALLELISM, SourceSpec::new("in").rate(2_000).key_field(0));
    let op = g.add_operator(
        "op",
        PARALLELISM,
        factory(|| {
            ProcessOp::new(|_i, rec: &Record, ctx: &mut OpCtx<'_>| {
                let _ts = ctx.timestamp()?;
                ctx.emit(rec.key, rec.event_time, rec.row.clone());
                Ok(())
            })
        }),
    );
    let snk = g.add_sink("sink", PARALLELISM, SinkSpec { topic: "out".into() });
    g.connect(src, op, Partitioning::Hash);
    g.connect(op, snk, Partitioning::Hash);
    let mut runner = JobRunner::new(g, EngineConfig::default().with_seed(7).with_ft(ft));
    for p in 0..PARALLELISM {
        let rows = (0..12_000).map(|i| Row::new(vec![Datum::Int(i % 64), Datum::Int(i)]));
        runner.populate("in", p, rows);
    }
    runner
}

/// The counters a kill must never shrink.
fn counters(c: &Cluster) -> [u64; 5] {
    let (ts_calls, ts_dets) = c.ts_service_counts();
    let r = c.routing_stats();
    [r.records_routed, r.channel_writes, c.log_stats().determinants_recorded, ts_calls, ts_dets]
}

#[test]
fn killing_a_task_keeps_its_counters() {
    let mut runner = runner(FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)));
    runner.cluster.run_until(VirtualTime(6_000_000));
    let before = counters(&runner.cluster);
    assert!(before.iter().all(|&n| n > 0), "counters idle before the kill: {before:?}");
    runner.cluster.kill_task(3);
    assert_eq!(counters(&runner.cluster), before, "the kill dropped task 3's counters");
}

#[test]
fn rollback_report_counts_cancelled_incarnations() {
    // Task 3 dies at 6 s; the heartbeat timeout and restart delay keep the
    // job cancelled past 20 s, so every counter in the final report comes
    // from retired incarnations.
    let mut runner = runner(FtMode::GlobalRollback);
    runner.cluster.run_until(VirtualTime(6_000_000));
    let routed = runner.cluster.routing_stats().records_routed;
    let (ts_calls, _) = runner.cluster.ts_service_counts();
    assert!(routed > 0 && ts_calls > 0);
    let report = runner
        .with_failures(FailurePlan::none().kill_at(VirtualTime(6_000_000), 3))
        .run_for(VirtualDuration::from_secs(20));
    assert!(
        report.routing_stats.records_routed >= routed,
        "records_routed {} < {routed} routed before the kill",
        report.routing_stats.records_routed
    );
    assert!(
        report.ts_service_calls >= ts_calls,
        "ts_service_calls {} < {ts_calls} made before the kill",
        report.ts_service_calls
    );
}
