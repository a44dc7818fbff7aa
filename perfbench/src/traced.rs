//! The traced run: spans around every public call the benchmark makes, the
//! run phase cut into fixed virtual-time slices labelled from the causal
//! trace, layer probes at the volumes the run counted, baseline rows, and
//! the per-layer metrics with each layer's share of run host time.
//!
//! Attribution of run host time (host CPU time on the threaded runtime):
//! - record path: `ns per call` from the probes × the calls the run's
//!   counters report (routing: record encodes; storage: record decodes at
//!   receivers and sources; causal: `record`, `collect_delta` per sent
//!   buffer, `ingest_delta`; inflight: `append` per sent buffer; services:
//!   timestamp calls; state: the keyed-state calls of the benchmark's own
//!   operators; sim: delivered events);
//! - checkpoint: host time of `barrier` slices above the median `steady`
//!   (or `drain`, once the input ran dry) slice of the same job;
//! - recovery: the same excess over `recovery` slices, plus the `kill_*`
//!   calls;
//! - runtime (threaded only): CPU time above the sim-scheduled baseline of
//!   the same job, less that baseline's scheduler share;
//! - unattributed: whatever remains. It is negative when probes, timed in
//!   isolation, charge more than the run spent.

use crate::oracle::{self, Multiset};
use crate::out::{cpu_seconds, rss_mb, Metrics};
use crate::probes;
use crate::timed::Outcome;
use crate::trace::Tracer;
use crate::virt::{self, median, percentile};
use crate::workloads::{self, Ft, Input, JobSpec, Scheduler, Size, Workload};
use clonos::TaskId;
use clonos_engine::metrics::{CheckpointStats, RecoveryStats, StateBackendStats};
use clonos_engine::runner::Fault;
use clonos_engine::{JobRunner, ParallelConfig, Row, RunReport};
use clonos_sim::{VirtualDuration, VirtualTime};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Virtual length of one `run_until` slice. Fault instants fall on slice
/// boundaries.
const SLICE: VirtualDuration = VirtualDuration::from_millis(50);
/// Most calls one probe batch makes.
const PROBE_CAP: u64 = 20_000;

/// One `run_until` slice: host ns, phase label, and whether the input had
/// run dry when it started.
struct Slice {
    ns: u64,
    label: &'static str,
    drained: bool,
}

/// Host seconds of `label` slices above the job's median `steady` slice (or
/// median `drain` slice, for slices after the input ran dry).
fn excess_s(slices: &[Slice], label: &str) -> f64 {
    let base = |want: &str| {
        let v: Vec<f64> = slices
            .iter()
            .filter(|s| s.label == want)
            .map(|s| s.ns as f64 / 1e9)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let steady = base("steady");
    let drain = base("drain").or(steady).unwrap_or(0.0);
    let steady = steady.unwrap_or(drain);
    let total: f64 = slices
        .iter()
        .filter(|s| s.label == label)
        .map(|s| s.ns as f64 / 1e9 - if s.drained { drain } else { steady })
        .sum();
    total.max(0.0)
}

/// The run phase of a sim-scheduled job, cut into slices.
struct Sliced {
    report: RunReport,
    events: u64,
    mean_pending: f64,
    snapshot_bytes: u64,
    slices: Vec<Slice>,
    kills_s: f64,
    faults: Vec<virt::Injected>,
}

/// Drive the job in `SLICE`-long `run_until` calls, injecting each fault
/// with `kill_task`/`kill_node` at its instant, and label every slice from
/// the causal events it produced: `recovery` while a killed task has not
/// reported `RecoveryDone`, else `barrier` while a checkpoint is pending,
/// else `drain` once the input ran dry, else `steady`.
fn run_sliced(
    tracer: &mut Tracer,
    mut runner: JobRunner,
    spec: &JobSpec,
    resolved: &[(Fault, virt::Injected)],
) -> Sliced {
    let end = VirtualTime::ZERO + spec.duration;
    let mut due = resolved.iter().peekable();
    let mut recovering: BTreeSet<TaskId> = BTreeSet::new();
    let mut pending_ckpt: BTreeSet<u64> = BTreeSet::new();
    let (mut seen, mut pending_sum) = (0, 0u64);
    let (mut slices, mut kills_s, mut faults) = (Vec::new(), 0.0, Vec::new());
    let mut t = VirtualTime::ZERO;
    while t < end {
        while let Some((fault, injected)) = due.next_if(|f| f.1.at <= t) {
            let k = match *fault {
                Fault::KillTask(task) => {
                    let k = tracer.begin("kill_task", "recovery");
                    runner.cluster.kill_task(task);
                    k
                }
                Fault::KillNode(node) => {
                    let k = tracer.begin("kill_node", "recovery");
                    runner.cluster.kill_node(node);
                    k
                }
                other => unreachable!("the workloads inject only kills, not {other:?}"),
            };
            tracer.end(k);
            kills_s += tracer.span(k).ns() as f64 / 1e9;
            recovering.extend(injected.victims.iter().copied());
            faults.push(injected.clone());
        }
        let mut next = (t + SLICE).min(end);
        if let Some(f) = due.peek() {
            next = next.min(f.1.at);
        }
        let drained = runner.cluster.metrics.records_in >= spec.expect_in;
        let was_recovering = !recovering.is_empty();
        let was_barrier = !pending_ckpt.is_empty();
        let s = tracer.begin("run_until", "");
        runner.cluster.run_until(next);
        tracer.end(s);
        let causal = &runner.cluster.metrics.causal;
        let mut triggered = false;
        for e in &causal[seen..] {
            match e.kind {
                "TriggerCheckpoint" => {
                    pending_ckpt.insert(e.epoch);
                    triggered = true;
                }
                "CheckpointComplete" => {
                    pending_ckpt.remove(&e.epoch);
                }
                "RecoveryDone" => {
                    recovering.remove(&e.task);
                }
                _ => {}
            }
        }
        seen = causal.len();
        let label = if was_recovering {
            "recovery"
        } else if was_barrier || triggered {
            "barrier"
        } else if drained {
            "drain"
        } else {
            "steady"
        };
        tracer.relabel(s, label);
        slices.push(Slice {
            ns: tracer.span(s).ns(),
            label,
            drained,
        });
        pending_sum += runner.cluster.sim.pending() as u64;
        t = next;
    }
    let events = runner.cluster.sim.delivered();
    let mean_pending = pending_sum as f64 / slices.len().max(1) as f64;
    let snapshot_bytes = runner.cluster.snapshots.total_bytes();
    let s = tracer.begin("run_for", "report");
    let report = runner.run_for(spec.duration);
    tracer.end(s);
    Sliced {
        report,
        events,
        mean_pending,
        snapshot_bytes,
        slices,
        kills_s,
        faults,
    }
}

/// One traced job.
struct JobTrace {
    label: String,
    /// Generated input records the job reads.
    input: u64,
    report: RunReport,
    /// Events the sim scheduler delivered (0 on the threaded runtime).
    events: u64,
    mean_pending: f64,
    state_ops: u64,
    snapshot_bytes: u64,
    /// Host seconds of the run phase: wall time on the sim scheduler, CPU
    /// time of the whole process on the threaded runtime.
    run_s: f64,
    /// Host seconds of set-up plus run, as the untraced run measures them.
    job_s: f64,
    barrier_s: f64,
    recovery_s: f64,
    faults: Vec<virt::Injected>,
}

/// Operations attempted and oracle violations found, across every job the
/// traced run executes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn job(&mut self, spec: &JobSpec, verdict: oracle::Verdict) {
        self.attempted += spec.expect_in;
        self.failed += verdict.violations;
        self.notes.extend(verdict.notes);
    }

    fn flag(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

fn traced_job(
    tracer: &mut Tracer,
    tally: &mut Tally,
    spec: &JobSpec,
    input: &Input,
    expected: Option<&[u64]>,
) -> JobTrace {
    let staged = workloads::stage_input(spec, input);
    let ops0 = spec.state_ops.get();
    let job = tracer.begin("job", spec.label.clone());
    let t_job = Instant::now();
    let s = tracer.begin("new", "setup");
    let mut runner = spec.new_runner();
    tracer.end(s);
    let s = tracer.begin("populate", "storage");
    for (topic, part, rows) in staged {
        runner.populate(topic, part, rows);
    }
    tracer.end(s);
    let resolved = workloads::resolve_faults(spec, &runner.cluster);

    let run = tracer.begin("run", "run");
    let t_run = Instant::now();
    let cpu0 = cpu_seconds();
    let sliced = match spec.scheduler {
        Scheduler::Sim => run_sliced(tracer, runner, spec, &resolved),
        Scheduler::Threaded(workers) => {
            let s = tracer.begin("run_parallel_for", "runtime");
            let pcfg = ParallelConfig {
                workers,
                ..ParallelConfig::default()
            };
            let report = runner.run_parallel_for(spec.duration, &pcfg);
            tracer.end(s);
            Sliced {
                report,
                events: 0,
                mean_pending: 0.0,
                snapshot_bytes: 0,
                slices: Vec::new(),
                kills_s: 0.0,
                faults: Vec::new(),
            }
        }
    };
    let run_s = match spec.scheduler {
        Scheduler::Sim => t_run.elapsed().as_secs_f64(),
        Scheduler::Threaded(_) => cpu_seconds() - cpu0,
    };
    tracer.end(run);
    let job_s = t_job.elapsed().as_secs_f64();

    let s = tracer.begin("oracle", "oracle");
    let mut verdict = oracle::check(spec, &sliced.report, expected);
    if let Err(e) = virt::recoveries(&sliced.report, &sliced.faults) {
        verdict.violations += 1;
        verdict.notes.push(e);
    }
    tally.job(spec, verdict);
    tracer.end(s);
    tracer.end(job);

    JobTrace {
        label: spec.label.clone(),
        input: spec.expect_in,
        events: sliced.events,
        mean_pending: sliced.mean_pending,
        state_ops: spec.state_ops.get() - ops0,
        snapshot_bytes: sliced.snapshot_bytes,
        run_s,
        job_s,
        barrier_s: excess_s(&sliced.slices, "barrier"),
        recovery_s: excess_s(&sliced.slices, "recovery") + sliced.kills_s,
        report: sliced.report,
        faults: sliced.faults,
    }
}

/// The traced jobs of the first traced pass, with host times replaced by
/// medians over every traced pass.
struct Pairs {
    jobs: Vec<JobTrace>,
    /// Median over pairs of traced minus untraced pass time.
    overhead_s: f64,
    untraced_s: f64,
    count: usize,
}

/// Traced and untraced passes in pairs, alternating which goes first, until
/// `seconds` have passed since `started` (at least one pair). On the sim
/// scheduler every pass, sliced or not, must reproduce the first traced
/// pass's virtual-time results.
#[allow(clippy::too_many_arguments)]
fn measure_pairs(
    tracer: &mut Tracer,
    tally: &mut Tally,
    w: Workload,
    specs: &[JobSpec],
    input: &Input,
    expected: &[Option<Multiset>],
    started: Instant,
    seconds: u64,
) -> Pairs {
    let mut first: Vec<JobTrace> = Vec::new();
    let mut host: Vec<Vec<[f64; 4]>> = vec![Vec::new(); specs.len()];
    let (mut overheads, mut untraced) = (Vec::new(), Vec::new());
    let check = |tally: &mut Tally, first: &[JobTrace], label: &str, r: &RunReport, what: &str| {
        if let Some(f) = first.iter().find(|j| j.label == label) {
            if w.sim_scheduled() && virt::fingerprint(&f.report) != virt::fingerprint(r) {
                tally.flag(format!("{label}: {what} changed its virtual-time results"));
            }
        }
    };
    while overheads.is_empty() || started.elapsed().as_secs_f64() < seconds as f64 {
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        // Pair 0 runs traced first, so its untraced pass is checked too.
        let untraced_first = overheads.len() % 2 == 1;
        for untraced_turn in [untraced_first, !untraced_first] {
            let pass = tracer.begin("pass", if untraced_turn { "untraced" } else { "traced" });
            for (i, (spec, exp)) in specs.iter().zip(expected).enumerate() {
                if untraced_turn {
                    let ex = workloads::execute(spec, input, &mut || {});
                    tally.job(spec, oracle::check(spec, &ex.report, exp.as_deref()));
                    untraced_s += ex.setup_s + ex.run_s;
                    check(tally, &first, &spec.label, &ex.report, "slicing the run");
                } else {
                    let j = traced_job(tracer, tally, spec, input, exp.as_deref());
                    traced_s += j.job_s;
                    host[i].push([j.run_s, j.job_s, j.barrier_s, j.recovery_s]);
                    check(tally, &first, &spec.label, &j.report, "another traced pass");
                    if first.len() == i {
                        first.push(j);
                    }
                }
            }
            tracer.end(pass);
        }
        overheads.push(traced_s - untraced_s);
        untraced.push(untraced_s);
    }
    for (j, h) in first.iter_mut().zip(&host) {
        let med = |k: usize| median(&h.iter().map(|v| v[k]).collect::<Vec<_>>());
        (j.run_s, j.job_s, j.barrier_s, j.recovery_s) = (med(0), med(1), med(2), med(3));
    }
    Pairs {
        jobs: first,
        overhead_s: median(&overheads),
        untraced_s: median(&untraced),
        count: overheads.len(),
    }
}

/// Counters summed over a pass's jobs.
#[derive(Default)]
struct Totals {
    input: u64,
    records_in: u64,
    route_encodes: u64,
    record_clones: u64,
    channel_writes: u64,
    determinants: u64,
    delta_bytes: u64,
    entries_reencoded: u64,
    deltas_ingested: u64,
    buffers: u64,
    peak_resident: u64,
    blocked_appends: u64,
    ts_calls: u64,
    ts_determinants: u64,
    state_ops: u64,
    events: u64,
    pending: Vec<f64>,
    run_s: f64,
    barrier_s: f64,
    recovery_s: f64,
    checkpoints: u64,
    snapshot_bytes: u64,
}

impl Totals {
    fn of(jobs: &[JobTrace]) -> Totals {
        let mut t = Totals::default();
        for j in jobs {
            let r = &j.report;
            t.input += j.input;
            t.records_in += r.records_in;
            t.route_encodes += r.routing_stats.route_encodes;
            t.record_clones += r.routing_stats.record_clones;
            t.channel_writes += r.routing_stats.channel_writes;
            t.determinants += r.log_stats.determinants_recorded;
            t.delta_bytes += r.log_stats.delta_bytes_shipped;
            t.entries_reencoded += r.log_stats.entries_reencoded;
            t.deltas_ingested += r.log_stats.deltas_ingested;
            t.buffers += r.inflight_stats.buffers_logged;
            t.peak_resident = t.peak_resident.max(r.inflight_stats.peak_resident_bytes);
            t.blocked_appends += r.inflight_stats.blocked_appends;
            t.ts_calls += r.ts_service_calls;
            t.ts_determinants += r.ts_service_determinants;
            t.state_ops += j.state_ops;
            t.events += j.events;
            t.pending.push(j.mean_pending);
            t.run_s += j.run_s;
            t.barrier_s += j.barrier_s;
            t.recovery_s += j.recovery_s;
            t.checkpoints += virt::checkpoint_latencies_us(&r.causal_events).len() as u64;
            t.snapshot_bytes += j.snapshot_bytes;
        }
        t
    }
}

/// Baseline rows: the fault-tolerance overhead against global rollback
/// (nexmark_steady), or the same job on the sim scheduler (chain_threaded).
#[derive(Default)]
struct Baseline {
    ft_full: f64,
    ft_dsd1: f64,
    speedup_vs_sim: f64,
    /// chain_threaded: the traced sim-scheduled run of the same job.
    sim_jobs: Vec<JobTrace>,
    lines: Vec<String>,
}

fn baseline(
    tracer: &mut Tracer,
    tally: &mut Tally,
    w: Workload,
    seed: u64,
    size: Size,
    input: &Input,
    expected: &[Option<Multiset>],
) -> Baseline {
    let mut b = Baseline::default();
    match w {
        Workload::NexmarkSteady => {
            // Query by query, the three modes back to back, so drift in host
            // speed hits all three alike.
            let s = tracer.begin("baseline", "ft modes");
            let modes = [Ft::GlobalRollback, Ft::ClonosDsd1, Ft::ClonosFull];
            let specs: Vec<Vec<JobSpec>> = modes
                .iter()
                .map(|&ft| workloads::jobs(w, seed, size, input, ft, None))
                .collect();
            let (mut recs, mut secs) = ([0u64; 3], [0f64; 3]);
            for q in 0..specs[0].len() {
                for (m, mode_specs) in specs.iter().enumerate() {
                    let ex = workloads::execute(&mode_specs[q], input, &mut || {});
                    tally.job(
                        &mode_specs[q],
                        oracle::check(&mode_specs[q], &ex.report, None),
                    );
                    recs[m] += mode_specs[q].expect_in;
                    secs[m] += ex.run_s;
                }
            }
            tracer.end(s);
            let tput = |m: usize| recs[m] as f64 / secs[m];
            let (gr, dsd1, full) = (tput(0), tput(1), tput(2));
            b.ft_full = 1.0 - full / gr;
            b.ft_dsd1 = 1.0 - dsd1 / gr;
            b.lines.push(format!(
                "baseline records/s: global-rollback={gr} clonos-dsd1={dsd1} clonos-full={full}"
            ));
        }
        Workload::ChainThreaded => {
            let s = tracer.begin("baseline", "sim scheduler");
            let specs = workloads::jobs(w, seed, size, input, Ft::ClonosFull, Some(Scheduler::Sim));
            for (spec, exp) in specs.iter().zip(expected) {
                b.sim_jobs
                    .push(traced_job(tracer, tally, spec, input, exp.as_deref()));
            }
            tracer.end(s);
            // Untraced threaded wall time against the traced sim run's wall
            // time (slicing costs are within the tracing overhead).
            let threaded_s: f64 = workloads::jobs(w, seed, size, input, Ft::ClonosFull, None)
                .iter()
                .zip(expected)
                .map(|(spec, exp)| {
                    let ex = workloads::execute(spec, input, &mut || {});
                    tally.job(spec, oracle::check(spec, &ex.report, exp.as_deref()));
                    ex.run_s
                })
                .sum();
            let sim_s: f64 = b.sim_jobs.iter().map(|j| j.run_s).sum();
            b.speedup_vs_sim = sim_s / threaded_s;
            b.lines.push(format!(
                "baseline: sim-scheduled run {sim_s} s, threaded run {threaded_s} s ({} workers); \
                 sim.*, checkpoint.*, state.*, storage.* and recovery.* below come from the \
                 sim-scheduled run",
                workloads::host_cpus()
            ));
        }
        Workload::StateRecovery => {}
    }
    b
}

/// ns per call of each layer's public functions, from the probes.
struct ProbeNs {
    encode: f64,
    decode: f64,
    causal: probes::CausalNs,
    append: f64,
    timestamp: f64,
    state: f64,
    sim_event: f64,
}

/// Run the probes at the volumes and shapes `tot` counted. `sched` is the
/// sim-scheduled pass (the baseline on chain_threaded).
fn probe(w: Workload, size: Size, input: &Input, tot: &Totals, sched: &Totals) -> ProbeNs {
    let sample: Vec<Row> = input
        .topics
        .last()
        .map(|t| t.partitions[0].iter().take(1_000).cloned().collect())
        .unwrap_or_default();
    let (encode, decode) = probes::record_codec(&sample);
    let buffers = tot.buffers.max(1);
    // Mean sent buffer: records per buffer × encoded row size (plus the
    // record header), and the mean piggybacked delta.
    let row_bytes = sample.iter().map(|r| r.to_bytes().len()).sum::<usize>() as f64
        / sample.len().max(1) as f64;
    let payload = (row_bytes + 12.0) * tot.channel_writes as f64 / buffers as f64;
    // A call gap that reproduces the run's timestamp-cache hit rate: one
    // determinant per 1 ms cache window.
    let gap_us = 1_000 * tot.ts_determinants / tot.ts_calls.max(1);
    ProbeNs {
        encode,
        decode,
        causal: probes::causal(tot.determinants / buffers, buffers.min(PROBE_CAP)),
        append: probes::inflight_append(
            payload as usize,
            (tot.delta_bytes / buffers) as usize,
            buffers.min(PROBE_CAP),
        ),
        timestamp: probes::timestamp_calls(gap_us, tot.ts_calls.clamp(1, PROBE_CAP)),
        state: match workloads::state_shape(w, size) {
            Some((keys, budget)) => {
                probes::state_ops(keys, budget, tot.state_ops.clamp(2, PROBE_CAP))
            }
            None => probes::state_ops(1_000, 0, PROBE_CAP),
        },
        sim_event: probes::sim_events(
            median(&sched.pending).max(1.0) as usize,
            sched.events.clamp(1, PROBE_CAP),
        ),
    }
}

/// Host seconds charged to each layer, in `share.<layer>` order.
fn attribute(tot: &Totals, sched: Option<&Totals>, p: &ProbeNs) -> [(&'static str, f64); 10] {
    let ns = |count: u64, per: f64| count as f64 * per / 1e9;
    let (checkpoint, runtime) = match sched {
        // Threaded: the barrier cost of the sim-scheduled run of the same
        // job, and the CPU time the runtime adds over that run's non-sim work.
        Some(s) => (
            s.barrier_s,
            (tot.run_s - (s.run_s - ns(s.events, p.sim_event))).max(0.0),
        ),
        None => (tot.barrier_s, 0.0),
    };
    [
        ("sim", ns(tot.events, p.sim_event)),
        ("storage", ns(tot.channel_writes + tot.records_in, p.decode)),
        (
            "causal",
            ns(tot.determinants, p.causal.record)
                + ns(tot.buffers, p.causal.collect_delta)
                + ns(tot.deltas_ingested, p.causal.ingest_delta),
        ),
        ("inflight", ns(tot.buffers, p.append)),
        ("services", ns(tot.ts_calls, p.timestamp)),
        ("recovery", tot.recovery_s),
        ("routing", ns(tot.route_encodes, p.encode)),
        ("checkpoint", checkpoint),
        ("state", ns(tot.state_ops, p.state)),
        ("runtime", runtime),
    ]
}

/// Virtual-time and barrier-path figures of sim-scheduled jobs.
fn virtual_metrics(m: &mut Metrics, jobs: &[JobTrace], tot: &Totals, checkpoint_s: f64) {
    let mut v = virt::Summary::default();
    let mut cs = CheckpointStats::default();
    let mut sb = StateBackendStats::default();
    let mut rs = RecoveryStats::default();
    for j in jobs {
        let r = &j.report;
        // A job whose recovery never completed already failed its oracle.
        let _ = v.add(r, &j.faults);
        cs.full_bytes += r.checkpoint_stats.full_bytes;
        cs.delta_bytes += r.checkpoint_stats.delta_bytes;
        cs.alignment_stall_us += r.checkpoint_stats.alignment_stall_us;
        cs.reconstruct_us += r.checkpoint_stats.reconstruct_us;
        sb.absorb(&r.state_backend_stats);
        rs.gather_retries += r.recovery_stats.gather_retries;
        rs.replay_request_retries += r.recovery_stats.replay_request_retries;
        rs.escalations += r.recovery_stats.escalations;
    }
    let v = v.sorted();
    let (lat, ckpt) = (&v.latency_us, &v.checkpoint_us);
    let ms = |us: Option<u64>| us.unwrap_or(0) as f64 / 1000.0;
    m.put(
        "sim.events_per_record",
        tot.events as f64 / tot.input.max(1) as f64,
        "count/rec",
    );
    m.put(
        "sim.ns_per_event",
        tot.run_s * 1e9 / tot.events.max(1) as f64,
        "ns",
    );
    m.put("sim.latency_p50_ms", ms(percentile(lat, 50.0)), "ms_virt");
    m.put("sim.latency_p99_ms", ms(percentile(lat, 99.0)), "ms_virt");
    m.put("sim.latency_samples", lat.len() as f64, "count");
    m.put(
        "checkpoint.host_ms_per_barrier",
        checkpoint_s * 1e3 / tot.checkpoints.max(1) as f64,
        "ms",
    );
    m.put("checkpoint.barriers", tot.checkpoints as f64, "count");
    m.put(
        "checkpoint.latency_p99_ms",
        ms(percentile(ckpt, 99.0)),
        "ms_virt",
    );
    m.put("checkpoint.full_bytes", cs.full_bytes as f64, "B");
    m.put("checkpoint.delta_bytes", cs.delta_bytes as f64, "B");
    m.put(
        "checkpoint.alignment_stall_us",
        cs.alignment_stall_us as f64,
        "us_virt",
    );
    m.put("state.flushes", sb.flushes as f64, "count");
    m.put("state.compactions", sb.compactions as f64, "count");
    m.put("state.faults", sb.faults as f64, "count");
    m.put("state.evictions", sb.evictions as f64, "count");
    m.put(
        "state.filter_negative_ratio",
        sb.filter_negatives as f64 / sb.point_reads.max(1) as f64,
        "ratio",
    );
    m.put("state.tier_io_us", sb.tier_io_us as f64, "us_virt");
    m.put("storage.snapshot_bytes", tot.snapshot_bytes as f64, "B");
    m.put(
        "storage.reconstruct_us",
        cs.reconstruct_us as f64,
        "us_virt",
    );

    let (total, catchup) = (v.phase(|r| r.total_us), v.phase(|r| r.catchup_us));
    m.put("recovery.faults", v.recoveries.len() as f64, "count");
    m.put(
        "recovery.detect_ms",
        ms(percentile(&v.phase(|r| r.detect_us), 50.0)),
        "ms_virt",
    );
    m.put(
        "recovery.gather_ms",
        ms(percentile(&v.phase(|r| r.gather_us), 50.0)),
        "ms_virt",
    );
    m.put(
        "recovery.replay_ms",
        ms(percentile(&v.phase(|r| r.replay_us), 50.0)),
        "ms_virt",
    );
    m.put(
        "recovery.total_ms_p50",
        ms(percentile(&total, 50.0)),
        "ms_virt",
    );
    m.put(
        "recovery.total_ms_max",
        ms(total.last().copied()),
        "ms_virt",
    );
    m.put(
        "recovery.catchup_ms_p50",
        ms(percentile(&catchup, 50.0)),
        "ms_virt",
    );
    m.put(
        "recovery.catchup_ms_max",
        ms(catchup.last().copied()),
        "ms_virt",
    );
    m.put("recovery.gather_retries", rs.gather_retries as f64, "count");
    m.put(
        "recovery.replay_request_retries",
        rs.replay_request_retries as f64,
        "count",
    );
    m.put("recovery.escalations", rs.escalations as f64, "count");
}

pub fn run(w: Workload, seed: u64, seconds: u64, size: Size, out_dir: &Path) -> Outcome {
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let root = tracer.begin("traced_run", w.name());
    let s = tracer.begin("generate", "load generator");
    let input = workloads::generate(w, seed, size);
    tracer.end(s);
    let specs = workloads::jobs(w, seed, size, &input, Ft::ClonosFull, None);
    let expected = oracle::expected(&specs, &input);
    let harness_mb = rss_mb();

    let base = baseline(&mut tracer, &mut tally, w, seed, size, &input, &expected);
    let pairs = measure_pairs(
        &mut tracer,
        &mut tally,
        w,
        &specs,
        &input,
        &expected,
        started,
        seconds,
    );
    let tot = Totals::of(&pairs.jobs);
    // On chain_threaded the scheduler, barrier and virtual-time figures come
    // from the sim-scheduled baseline: the threaded run has no sim
    // scheduler, cannot be sliced, and its virtual clock is not comparable
    // across runs.
    let sim_tot = (!base.sim_jobs.is_empty()).then(|| Totals::of(&base.sim_jobs));
    let sched = sim_tot.as_ref().unwrap_or(&tot);
    let s = tracer.begin("probes", "probes");
    let p = probe(w, size, &input, &tot, sched);
    tracer.end(s);
    tracer.end(root);
    let layers = attribute(&tot, sim_tot.as_ref(), &p);
    let unattributed = tot.run_s - layers.iter().map(|l| l.1).sum::<f64>();

    let mut m = Metrics::default();
    let per = |v: u64| v as f64 / tot.input.max(1) as f64;
    m.put("run.records_in", tot.records_in as f64, "count");
    m.put("run.harness_rss_mb", harness_mb, "MiB");
    m.put("run.host_s", tot.run_s, "s");
    m.put("sim.probe_ns_per_event", p.sim_event, "ns");
    m.put(
        "routing.record_clones_per_record",
        per(tot.record_clones),
        "count/rec",
    );
    m.put(
        "routing.route_encodes_per_record",
        per(tot.route_encodes),
        "count/rec",
    );
    m.put("routing.encode_ns", p.encode, "ns");
    m.put("storage.decode_ns", p.decode, "ns");
    m.put(
        "causal.determinants_per_record",
        per(tot.determinants),
        "count/rec",
    );
    m.put(
        "causal.delta_bytes_per_record",
        per(tot.delta_bytes),
        "B/rec",
    );
    m.put(
        "causal.entries_reencoded",
        tot.entries_reencoded as f64,
        "count",
    );
    m.put("causal.record_ns", p.causal.record, "ns");
    m.put("causal.collect_delta_ns", p.causal.collect_delta, "ns");
    m.put("causal.ingest_delta_ns", p.causal.ingest_delta, "ns");
    m.put("inflight.buffers_per_record", per(tot.buffers), "count/rec");
    m.put(
        "inflight.peak_resident_bytes",
        tot.peak_resident as f64,
        "B",
    );
    m.put(
        "inflight.blocked_appends",
        tot.blocked_appends as f64,
        "count",
    );
    m.put("inflight.append_ns", p.append, "ns");
    m.put("services.ts_calls", tot.ts_calls as f64, "count");
    m.put("services.ts_ns", p.timestamp, "ns");
    m.put("state.ops_per_record", per(tot.state_ops), "count/rec");
    m.put("state.op_ns", p.state, "ns");
    let rt = pairs
        .jobs
        .iter()
        .map(|j| j.report.runtime_stats)
        .find(|r| r.workers > 0);
    let rt = rt.unwrap_or_default();
    m.put("runtime.steals", rt.steals as f64, "count");
    m.put("runtime.mailbox_stalls", rt.mailbox_stalls as f64, "count");
    m.put(
        "runtime.mailbox_depth_highwater",
        rt.mailbox_depth_highwater as f64,
        "count",
    );
    let skew = rt.max_worker_events as f64 / rt.min_worker_events.max(1) as f64;
    m.put(
        "runtime.worker_skew",
        if rt.workers > 0 { skew } else { 0.0 },
        "ratio",
    );
    m.put("runtime.speedup_vs_sim", base.speedup_vs_sim, "ratio");
    let sched_jobs = if base.sim_jobs.is_empty() {
        &pairs.jobs
    } else {
        &base.sim_jobs
    };
    virtual_metrics(&mut m, sched_jobs, sched, layers[7].1);
    for (layer, secs) in layers {
        m.put(&format!("share.{layer}"), secs / tot.run_s, "frac");
    }
    m.put("share.unattributed", unattributed / tot.run_s, "frac");
    m.put("trace.overhead_s", pairs.overhead_s, "s");
    m.put(
        "trace.overhead_frac",
        pairs.overhead_s / pairs.untraced_s,
        "frac",
    );
    m.put("trace.spans", tracer.spans().len() as f64, "count");
    m.put("ft.overhead_full", base.ft_full, "frac");
    m.put("ft.overhead_dsd1", base.ft_dsd1, "frac");

    let mut lines = base.lines;
    lines.push(format!(
        "attribution of run host time {} s{}:",
        tot.run_s,
        if sim_tot.is_some() {
            " (process CPU time)"
        } else {
            ""
        }
    ));
    for (layer, secs) in layers.into_iter().chain([("unattributed", unattributed)]) {
        lines.push(format!(
            "  {layer:<12} {secs:>10.4} s  {:>6.2}%",
            100.0 * secs / tot.run_s
        ));
    }
    lines.push(format!(
        "tracing overhead: {} s, the median over {} traced/untraced pairs (untraced pass {} s)",
        pairs.overhead_s, pairs.count, pairs.untraced_s
    ));
    lines.extend(self_time_summary(&tracer));
    lines.push(export(&tracer, out_dir, w, seed, size));
    Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        report: lines,
    }
}

/// Self time per span name and label, summed.
fn self_time_summary(tracer: &Tracer) -> Vec<String> {
    let own = tracer.self_ns();
    let mut by: std::collections::BTreeMap<(&str, &str), (u64, u64)> = Default::default();
    for s in tracer.spans().iter().filter(|s| s.name != "job") {
        let e = by.entry((s.name, s.label.as_str())).or_default();
        e.0 += 1;
        e.1 += own[s.id];
    }
    let mut out = vec!["span self time (name/label: count, s):".to_string()];
    for ((name, label), (n, ns)) in by {
        out.push(format!("  {name}/{label}: {n}, {}", ns as f64 / 1e9));
    }
    out
}

/// Write the spans as JSON lines and Chrome trace-event JSON.
fn export(tracer: &Tracer, dir: &Path, w: Workload, seed: u64, size: Size) -> String {
    let tag = if size == Size::Full { "" } else { "-reduced" };
    let base = dir.join(format!("trace-{}-seed{seed}{tag}", w.name()));
    let jsonl = base.with_extension("jsonl");
    let chrome = base.with_extension("chrome.json");
    let res = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&jsonl, tracer.to_jsonl()))
        .and_then(|_| std::fs::write(&chrome, tracer.to_chrome()));
    match res {
        Ok(()) => format!(
            "trace written: {} and {}",
            jsonl.display(),
            chrome.display()
        ),
        Err(e) => format!("trace not written: {e}"),
    }
}
