//! The timed run: repeat passes over the workload's jobs for the requested
//! host seconds, check every job's output, and report medians over passes.
//! Host times are scaled pass by pass to nominal host speed with the
//! reference kernel of `calib`; the unscaled medians print in the report.

use crate::calib;
use crate::oracle;
use crate::out::{peak_rss_mb, rss_mb, Metrics};
use crate::virt::{self, median, percentile};
use crate::workloads::{self, Ft, Input, JobSpec, Scheduler, Size, Workload};
use std::time::{Duration, Instant};

/// Fewest passes a run makes, so medians have something to choose from.
const MIN_PASSES: usize = 3;
/// Hard stop for the whole run, whatever `--seconds` asks for.
const RUN_CAP: Duration = Duration::from_secs(150);

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

/// One pass over every job of the workload.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    run_s: f64,
    /// Host slowdown over the pass against nominal speed (`calib::Meter`).
    slowdown: f64,
    /// Reference-kernel samples the slowdown rests on.
    ref_samples: usize,
    /// Generated input records the pass's jobs read.
    input: u64,
    /// The engine's `records_in`: the input plus a recovered source's
    /// re-reads from its checkpointed offset.
    records_in: u64,
    violations: u64,
    /// Per-job `virt::fingerprint`s (sim-scheduled workloads only).
    fingerprints: Vec<u64>,
}

pub fn run(w: Workload, seed: u64, seconds: u64, size: Size) -> Outcome {
    let started = Instant::now();
    let input: Input = workloads::generate(w, seed, size);
    let gen_s = started.elapsed().as_secs_f64();
    let specs: Vec<JobSpec> = workloads::jobs(w, seed, size, &input, Ft::ClonosFull, None);
    let expected = oracle::expected(&specs, &input);
    let threads = match specs[0].scheduler {
        Scheduler::Sim => 1,
        Scheduler::Threaded(workers) => workers,
    };
    calib::prepare();
    // What the benchmark itself holds resident while jobs run.
    let harness_mb = rss_mb();

    let mut passes: Vec<Pass> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut summary = virt::Summary::default();
    let mut attempted = 0u64;
    loop {
        let t_pass = Instant::now();
        let mut pass = Pass::default();
        let mut meter = calib::Meter::start(threads);
        for (spec, exp) in specs.iter().zip(&expected) {
            let ex = workloads::execute(spec, &input, &mut || meter.tick());
            pass.setup_s += ex.setup_s;
            pass.run_s += ex.run_s;
            pass.input += spec.expect_in;
            pass.records_in += ex.report.records_in;
            attempted += spec.expect_in;
            let mut verdict = oracle::check(spec, &ex.report, exp.as_deref());
            if w.sim_scheduled() {
                pass.fingerprints.push(virt::fingerprint(&ex.report));
                if passes.is_empty() {
                    if let Err(e) = summary.add(&ex.report, &ex.faults) {
                        verdict.violations += 1;
                        verdict.notes.push(e);
                    }
                }
            }
            pass.violations += verdict.violations;
            if passes.is_empty() || verdict.violations > 0 {
                notes.extend(verdict.notes);
            }
        }
        (pass.slowdown, pass.ref_samples) = meter.slowdown();
        if passes
            .first()
            .is_some_and(|first| first.fingerprints != pass.fingerprints)
        {
            pass.violations += 1;
            notes.push(format!(
                "pass {}: virtual-time results differ from pass 0 on the same seed",
                passes.len()
            ));
        }
        passes.push(pass);
        let elapsed = started.elapsed();
        if passes.len() >= MIN_PASSES && elapsed.as_secs_f64() >= seconds as f64 {
            break;
        }
        if elapsed + t_pass.elapsed() > RUN_CAP {
            notes.push(format!(
                "stopped after {} passes at the {RUN_CAP:?} cap",
                passes.len()
            ));
            break;
        }
    }

    let failed: u64 = passes.iter().map(|p| p.violations).sum();
    // Host times scaled to nominal host speed, pass by pass.
    let tput: Vec<f64> = passes
        .iter()
        .map(|p| p.input as f64 * p.slowdown / p.run_s)
        .collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s / p.slowdown).collect();
    let raw_tput: Vec<f64> = passes.iter().map(|p| p.input as f64 / p.run_s).collect();
    let raw_setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let mut metrics = Metrics::default();
    metrics.put("throughput_rps", median(&tput), "1/s");
    metrics.put("setup_s", median(&setup), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");

    let mut report = vec![
        format!(
            "passes={} input_per_pass={} records_in_per_pass={} gen_s={gen_s} \
             harness_rss_mb={harness_mb} failed_frac={}",
            passes.len(),
            passes[0].input,
            passes[0].records_in,
            failed as f64 / attempted.max(1) as f64
        ),
        format!(
            "pass setup_s: {}",
            passes
                .iter()
                .map(|p| format!("{:.4}", p.setup_s))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "unscaled: throughput_rps={} setup_s={}",
            median(&raw_tput),
            median(&raw_setup)
        ),
        format!(
            "pass slowdown: {}",
            passes
                .iter()
                .map(|p| format!("{:.4}/{}", p.slowdown, p.ref_samples))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "pass run_s: {}",
            passes
                .iter()
                .map(|p| format!("{:.4}", p.run_s))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    report.extend(describe_virtual(w, summary.sorted()));
    Outcome {
        metrics,
        attempted,
        failed,
        notes,
        report,
    }
}

fn ms(us: Option<u64>) -> String {
    us.map(|u| format!("{} ms", u as f64 / 1000.0))
        .unwrap_or_else(|| "n/a".into())
}

/// The virtual-time end-to-end figures (latency, checkpoint, recovery) for
/// the human-readable report. They repeat exactly per seed; the traced run
/// reports them as per-layer metrics.
fn describe_virtual(w: Workload, v: virt::Summary) -> Vec<String> {
    if !w.sim_scheduled() {
        return vec![
            "latency_p50_ms/latency_p99_ms/checkpoint_p99_ms: n/a (threaded runtime: its \
             virtual clock is not comparable across runs)"
                .into(),
            "recovery_ms_p50/recovery_ms_max/catchup_ms: n/a (no faults)".into(),
        ];
    }
    let mut lines = vec![
        format!(
            "latency_p50_ms={} latency_p99_ms={} samples={}",
            ms(percentile(&v.latency_us, 50.0)),
            ms(percentile(&v.latency_us, 99.0)),
            v.latency_us.len()
        ),
        format!(
            "checkpoint_p99_ms={} checkpoints={}",
            ms(percentile(&v.checkpoint_us, 99.0)),
            v.checkpoint_us.len()
        ),
    ];
    if v.recoveries.is_empty() {
        lines.push("recovery_ms_p50/recovery_ms_max/catchup_ms: n/a (no faults)".into());
        return lines;
    }
    let (total, catchup) = (v.phase(|r| r.total_us), v.phase(|r| r.catchup_us));
    lines.push(format!(
        "recovery_ms_p50={} recovery_ms_max={} catchup_ms_p50={} catchup_ms_max={} faults={}",
        ms(percentile(&total, 50.0)),
        ms(total.last().copied()),
        ms(percentile(&catchup, 50.0)),
        ms(catchup.last().copied()),
        total.len()
    ));
    for (i, r) in v.recoveries.iter().enumerate() {
        lines.push(format!(
            "fault {i}: detect={} gather={} replay={} total={} catchup={}",
            ms(Some(r.detect_us)),
            ms(Some(r.gather_us)),
            ms(Some(r.replay_us)),
            ms(Some(r.total_us)),
            ms(Some(r.catchup_us))
        ));
    }
    lines
}
