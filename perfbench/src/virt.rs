//! Virtual-time metrics computed from a report's `latency_series` and
//! `causal_events`, at the resolution of the simulated clock (1 µs), instead
//! of `RunReport::recovery_time`'s 250 ms buckets.

use clonos::TaskId;
use clonos_engine::metrics::CausalEvent;
use clonos_engine::RunReport;
use clonos_sim::VirtualTime;
use std::hash::{Hash, Hasher};

/// Nearest-rank percentile (the rule `LatencyRecorder::percentile` uses) of
/// sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// Median of unsorted host timings.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Event-to-sink latency samples in µs.
pub fn latency_samples_us(report: &RunReport) -> Vec<u64> {
    report
        .latency_series
        .points()
        .iter()
        .map(|&(_, s)| (s * 1e6).round() as u64)
        .collect()
}

/// Trigger → complete latency (µs) of every checkpoint that completed.
pub fn checkpoint_latencies_us(events: &[CausalEvent]) -> Vec<u64> {
    let mut out = Vec::new();
    for done in events.iter().filter(|e| e.kind == "CheckpointComplete") {
        if let Some(trig) = events
            .iter()
            .find(|e| e.kind == "TriggerCheckpoint" && e.epoch == done.epoch)
        {
            out.push(done.at.saturating_sub(trig.at).as_micros());
        }
    }
    out
}

/// One injected fault and the tasks it killed.
#[derive(Clone, Debug)]
pub struct Injected {
    pub at: VirtualTime,
    pub victims: Vec<TaskId>,
}

/// A fault's recovery, along its critical path (the victim that finished
/// last): kill → `FailureDetected` → `BeginReplay` → `RecoveryDone`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Recovery {
    /// Kill → failure detected at the JM.
    pub detect_us: u64,
    /// Detection → replay begins (standby install and determinant gather).
    pub gather_us: u64,
    /// Replay begins → the recovering task reports `RecoveryDone`.
    pub replay_us: u64,
    /// Kill → last `RecoveryDone` the fault caused.
    pub total_us: u64,
    /// Kill → sink latency back within 10% of its pre-fault baseline.
    pub catchup_us: u64,
}

fn first_after<'a>(
    events: &'a [CausalEvent],
    kind: &str,
    task: TaskId,
    after: VirtualTime,
) -> Option<&'a CausalEvent> {
    events
        .iter()
        .find(|e| e.kind == kind && e.task == task && e.at >= after)
}

/// Recovery timeline of each fault, or the victims that never reported
/// `RecoveryDone` (an escalated or stalled recovery).
pub fn recoveries(report: &RunReport, faults: &[Injected]) -> Result<Vec<Recovery>, String> {
    let ev = &report.causal_events;
    let mut out = Vec::new();
    for (i, f) in faults.iter().enumerate() {
        let next_fault = faults.get(i + 1).map(|n| n.at);
        let mut worst: Option<Recovery> = None;
        for &v in &f.victims {
            let phases = first_after(ev, "FailureDetected", v, f.at).and_then(|det| {
                let begin = first_after(ev, "BeginReplay", v, det.at)?;
                let done = first_after(ev, "RecoveryDone", v, begin.at)?;
                Some(Recovery {
                    detect_us: det.at.saturating_sub(f.at).as_micros(),
                    gather_us: begin.at.saturating_sub(det.at).as_micros(),
                    replay_us: done.at.saturating_sub(begin.at).as_micros(),
                    total_us: done.at.saturating_sub(f.at).as_micros(),
                    catchup_us: 0,
                })
            });
            let Some(r) = phases else {
                return Err(format!("fault {i} at {}: task {v} never recovered", f.at));
            };
            if worst.is_none_or(|w| r.total_us > w.total_us) {
                worst = Some(r);
            }
        }
        let mut r = worst.ok_or_else(|| format!("fault {i} at {} killed no task", f.at))?;
        // Checkpoints after the recovery raise latency on their own; the
        // window the fault is judged in ends at the first of them.
        let recovered = f.at + clonos_sim::VirtualDuration::from_micros(r.total_us);
        let next_barrier = ev
            .iter()
            .find(|e| e.kind == "TriggerCheckpoint" && e.at >= recovered)
            .map(|e| e.at);
        let horizon = match (next_fault, next_barrier) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        r.catchup_us = catchup_us(report, f.at, horizon);
        out.push(r);
    }
    Ok(out)
}

/// Catch-up resolution: latency is averaged over 10 ms buckets.
const BUCKET_US: u64 = 10_000;
/// The pre-fault baseline is the median bucket mean over this window (the
/// median, so a checkpoint's latency bump inside it does not count).
const BASELINE_US: u64 = 2_000_000;
const TOLERANCE: f64 = 0.10;

/// Mean sink latency (s) of each non-empty 10 ms bucket in `[from, to)`,
/// keyed by bucket index counted from `from`.
fn bucket_means(pts: &[(VirtualTime, f64)], from: u64, to: u64) -> Vec<(u64, f64)> {
    let mut out: Vec<(u64, f64)> = Vec::new();
    let mut n = 0u32;
    let start = pts.partition_point(|(t, _)| t.as_micros() < from);
    for &(t, v) in pts[start..].iter().take_while(|(t, _)| t.as_micros() < to) {
        let b = (t.as_micros() - from) / BUCKET_US;
        match out.last_mut() {
            Some((lb, sum)) if *lb == b => {
                *sum += v;
                n += 1;
            }
            _ => {
                if let Some((_, sum)) = out.last_mut() {
                    *sum /= n as f64;
                }
                out.push((b, v));
                n = 1;
            }
        }
    }
    if let Some((_, sum)) = out.last_mut() {
        *sum /= n as f64;
    }
    out
}

/// Time from the fault until 10 ms bucket means of sink latency stay within
/// 10% of the pre-fault baseline, judged up to `horizon` (or the end of
/// output): the end of the last bucket in that window over the tolerance.
pub fn catchup_us(report: &RunReport, fault: VirtualTime, horizon: Option<VirtualTime>) -> u64 {
    let pts = report.latency_series.points();
    let f = fault.as_micros();
    let base: Vec<f64> = bucket_means(pts, f.saturating_sub(BASELINE_US), f)
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    if base.is_empty() {
        return 0;
    }
    let limit = median(&base) * (1.0 + TOLERANCE);
    let end = horizon.map(|h| h.as_micros()).unwrap_or(u64::MAX);
    bucket_means(pts, f, end)
        .into_iter()
        .rev()
        .find(|&(_, m)| m > limit)
        .map(|(b, _)| (b + 1) * BUCKET_US)
        .unwrap_or(0)
}

/// Fingerprint of everything a sim-scheduled job makes observable in
/// virtual time: outputs, latency samples, the causal trace and counters.
/// Two runs of one job on one seed must agree on it.
pub fn fingerprint(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    report.records_in.hash(&mut h);
    report.records_out.hash(&mut h);
    for (task, meta, rec) in &report.sink_output {
        (task, meta.ident, meta.epoch, rec.create_ts).hash(&mut h);
    }
    for &(t, v) in report.latency_series.points() {
        (t.as_micros(), v.to_bits()).hash(&mut h);
    }
    for e in &report.causal_events {
        (e.at.as_micros(), e.kind, e.epoch, e.task).hash(&mut h);
    }
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?}",
        report.log_stats,
        report.routing_stats,
        report.inflight_stats,
        report.checkpoint_stats,
        report.state_backend_stats,
        report.recovery_stats
    )
    .hash(&mut h);
    h.finish()
}

/// FNV-1a: a fixed-key hasher, so fingerprints compare across processes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Virtual-time figures over a pass's sim-scheduled jobs.
#[derive(Default)]
pub struct Summary {
    pub latency_us: Vec<u64>,
    pub checkpoint_us: Vec<u64>,
    pub recoveries: Vec<Recovery>,
}

impl Summary {
    /// Add one job. The error names a fault whose recovery never completed.
    pub fn add(&mut self, report: &RunReport, faults: &[Injected]) -> Result<(), String> {
        self.latency_us.extend(latency_samples_us(report));
        self.checkpoint_us
            .extend(checkpoint_latencies_us(&report.causal_events));
        self.recoveries.extend(recoveries(report, faults)?);
        Ok(())
    }

    /// Latency and checkpoint samples sorted for `percentile`.
    pub fn sorted(mut self) -> Summary {
        self.latency_us.sort_unstable();
        self.checkpoint_us.sort_unstable();
        self
    }

    /// One field of every recovery, sorted.
    pub fn phase(&self, f: fn(&Recovery) -> u64) -> Vec<u64> {
        let mut v: Vec<u64> = self.recoveries.iter().map(f).collect();
        v.sort_unstable();
        v
    }
}
