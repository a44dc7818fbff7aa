//! The three workloads: inputs generated from the seed, their job graphs and
//! engine configurations, and one execution of a job through the public
//! `JobRunner` API with set-up and run phase timed apart.
//!
//! Every workload runs Clonos exactly-once with DSD=Full. Sources emit on
//! their fixed virtual-time schedule (`SourceSpec::rate`), so the offered
//! load is an open loop in virtual time.

use crate::virt::Injected;
use clonos::config::{ClonosConfig, SharingDepth};
use clonos::TaskId;
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::runner::Fault;
use clonos_engine::*;
use clonos_nexmark::{build_query, GeneratorConfig, NexmarkGenerator, QueryId, ALL_QUERIES};
use clonos_sim::{SimRng, VirtualDuration, VirtualTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Nexmark Q1–Q9 and Q11–Q14 on the sim scheduler, no failures.
    NexmarkSteady,
    /// The §7.2 synthetic chain on the threaded runtime, no failures.
    ChainThreaded,
    /// A keyed chain with tiered state far over budget, under faults.
    StateRecovery,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NexmarkSteady,
        Workload::ChainThreaded,
        Workload::StateRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NexmarkSteady => "nexmark_steady",
            Workload::ChainThreaded => "chain_threaded",
            Workload::StateRecovery => "state_recovery",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload runs on the deterministic sim scheduler, where
    /// virtual-time metrics are meaningful and repeat exactly per seed.
    pub fn sim_scheduled(self) -> bool {
        self != Workload::ChainThreaded
    }
}

/// Full runs publish numbers; reduced runs only check that the benchmark
/// itself works (every metric prints, the oracle passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

// ---- nexmark_steady -------------------------------------------------------

const NEX_PARALLELISM: usize = 2;
/// Bids per second per source instance (persons and auctions run at 1/10
/// and 1/5 of it, per `build_query`).
const NEX_RATE: u64 = 5_000;
const NEX_SECS: u64 = 12;

fn nex_events(size: Size) -> usize {
    match size {
        Size::Full => 60_000,
        Size::Reduced => 6_000,
    }
}

/// Mean event-time gap of the generator. Reduced runs stretch it so their
/// few events still span the 4 s windows every query needs to emit.
fn nex_generator(seed: u64, size: Size) -> GeneratorConfig {
    let inter_event_us = match size {
        Size::Full => GeneratorConfig::default().inter_event_us,
        Size::Reduced => 1_000,
    };
    GeneratorConfig {
        seed,
        inter_event_us,
        ..Default::default()
    }
}

// ---- chain_threaded -------------------------------------------------------

/// Source plus three keyed stages: graph depth 4.
const CHAIN_STAGES: usize = 3;
const CHAIN_PARALLELISM: usize = 8;
const CHAIN_RATE: u64 = 50_000;
const CHAIN_KEYS: u64 = 4_096;
const CHAIN_SECS: u64 = 6;

fn chain_rows(size: Size) -> usize {
    match size {
        Size::Full => 200_000,
        Size::Reduced => 8_000,
    }
}

// ---- state_recovery -------------------------------------------------------

const SR_STAGES: usize = 3;
const SR_PARALLELISM: usize = 2;
const SR_NODES: u32 = 4;
/// Resident bytes of one `[count, value]` state row, used only to size the
/// tiered budget at about a tenth of each task's keyed state.
const SR_ENTRY_BYTES: u64 = 46;

struct SrScale {
    keys: u64,
    rate: u64,
    input_secs: u64,
    secs: u64,
}

fn sr_scale(size: Size) -> SrScale {
    match size {
        Size::Full => SrScale {
            keys: 40_000,
            rate: 2_000,
            input_secs: 24,
            secs: 30,
        },
        Size::Reduced => SrScale {
            keys: 6_000,
            rate: 500,
            input_secs: 24,
            secs: 30,
        },
    }
}

/// Faults at fixed virtual instants, each mid-epoch (checkpoints fire every
/// 5 s) and well before the input runs dry at 24 s. `Node` resolves to the
/// node hosting the second stage's first subtask, so its standby and
/// co-located tasks die together.
#[derive(Clone, Copy, Debug)]
pub enum FaultSpec {
    /// Kill subtask `subtask` of stage `stage` (0-based).
    Task {
        stage: usize,
        subtask: usize,
    },
    Node,
}

pub const SR_FAULTS: [(u64, FaultSpec); 3] = [
    (
        6_300_000,
        FaultSpec::Task {
            stage: 1,
            subtask: 0,
        },
    ),
    (12_700_000, FaultSpec::Node),
    (
        18_400_000,
        FaultSpec::Task {
            stage: 2,
            subtask: 1,
        },
    ),
];

/// Per-task state budget for the tiered backend.
pub fn sr_budget(size: Size) -> u64 {
    let s = sr_scale(size);
    (s.keys / SR_PARALLELISM as u64 * SR_ENTRY_BYTES / 10).max(4 * 1024)
}

// ---------------------------------------------------------------------------

/// Input rows of one topic, pre-split by partition.
pub struct TopicInput {
    pub topic: &'static str,
    pub partitions: Vec<Vec<Row>>,
}

impl TopicInput {
    fn split(topic: &'static str, rows: Vec<Row>, parts: usize) -> TopicInput {
        let mut partitions: Vec<Vec<Row>> = vec![Vec::new(); parts];
        for (i, r) in rows.into_iter().enumerate() {
            partitions[i % parts].push(r);
        }
        TopicInput { topic, partitions }
    }

    pub fn len(&self) -> u64 {
        self.partitions.iter().map(|p| p.len() as u64).sum()
    }
}

/// Everything generated from the seed before any timing starts.
pub struct Input {
    pub topics: Vec<TopicInput>,
}

impl Input {
    pub fn topic(&self, name: &str) -> Option<&TopicInput> {
        self.topics.iter().find(|t| t.topic == name)
    }

    pub fn rows(&self) -> u64 {
        self.topics.iter().map(TopicInput::len).sum()
    }
}

pub fn generate(w: Workload, seed: u64, size: Size) -> Input {
    match w {
        Workload::NexmarkSteady => {
            let mut gen = NexmarkGenerator::new(nex_generator(seed, size));
            let (persons, auctions, bids) = gen.generate(nex_events(size));
            Input {
                topics: vec![
                    TopicInput::split("persons", persons, NEX_PARALLELISM),
                    TopicInput::split("auctions", auctions, NEX_PARALLELISM),
                    TopicInput::split("bids", bids, NEX_PARALLELISM),
                ],
            }
        }
        Workload::ChainThreaded => Input {
            topics: vec![TopicInput::split(
                "in",
                keyed_rows(seed, chain_rows(size), CHAIN_KEYS),
                CHAIN_PARALLELISM,
            )],
        },
        Workload::StateRecovery => {
            let s = sr_scale(size);
            let n = (s.rate * SR_PARALLELISM as u64 * s.input_secs) as usize;
            Input {
                topics: vec![TopicInput::split(
                    "in",
                    keyed_rows(seed, n, s.keys),
                    SR_PARALLELISM,
                )],
            }
        }
    }
}

/// `[key, seq, payload]` rows with uniformly drawn keys. Every row is
/// distinct (`seq`), so output multisets compare exactly.
fn keyed_rows(seed: u64, n: usize, keys: u64) -> Vec<Row> {
    let mut rng = SimRng::new(seed).fork(0x6B65_7965);
    (0..n)
        .map(|i| {
            let key = rng.gen_range(keys) as i64;
            let payload = (rng.next_u64() >> 1) as i64;
            Row::new(vec![
                Datum::Int(key),
                Datum::Int(i as i64),
                Datum::Int(payload),
            ])
        })
        .collect()
}

/// Counts keyed-state calls made by the benchmark's own operators, so the
/// traced run can charge the state layer at the volume the run produced.
#[derive(Clone, Default)]
pub struct StateOps(Arc<AtomicU64>);

impl StateOps {
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A keyed stateful stage: bump a per-key counter, read the clock (the
/// nondeterminism Clonos logs), and forward the row unchanged.
fn counting_stage(ops: &StateOps) -> clonos_engine::operator::OperatorFactory {
    let ops = ops.clone();
    factory(move || {
        let ops = ops.clone();
        ProcessOp::new(move |_input, rec: &Record, ctx: &mut OpCtx<'_>| {
            let count = ctx.state.value(0, rec.key).map(|r| r.int(0)).unwrap_or(0) + 1;
            ctx.state.set_value(
                0,
                rec.key,
                Row::new(vec![Datum::Int(count), rec.row.0[2].clone()]),
            );
            ops.0.fetch_add(2, Ordering::Relaxed);
            let _ts = ctx.timestamp()?;
            ctx.emit(rec.key, rec.event_time, rec.row.clone());
            Ok(())
        })
    })
}

/// `src → stage0 → … → sink`, hash-partitioned on the key at every hop.
/// Returns the graph and each stage's vertex.
fn keyed_chain(
    name: &str,
    stages: usize,
    parallelism: usize,
    rate: u64,
    ops: &StateOps,
) -> (JobGraph, Vec<VertexId>) {
    let mut g = JobGraph::new(name);
    let mut prev = g.add_source(
        "src",
        parallelism,
        SourceSpec::new("in").rate(rate).key_field(0),
    );
    let mut ids = Vec::new();
    for s in 0..stages {
        let v = g.add_operator(&format!("stage{s}"), parallelism, counting_stage(ops));
        g.connect(prev, v, Partitioning::Hash);
        ids.push(v);
        prev = v;
    }
    let sink = g.add_sink(
        "sink",
        parallelism,
        SinkSpec {
            topic: "out".into(),
        },
    );
    g.connect(prev, sink, Partitioning::Hash);
    (g, ids)
}

/// The fault-tolerance mode a job runs under. The workloads use
/// `ClonosFull`; the others are the traced run's baseline rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ft {
    ClonosFull,
    ClonosDsd1,
    GlobalRollback,
}

impl Ft {
    fn mode(self) -> FtMode {
        match self {
            Ft::ClonosFull => FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
            Ft::ClonosDsd1 => FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Depth(1))),
            Ft::GlobalRollback => FtMode::GlobalRollback,
        }
    }
}

/// The scheduler that drives a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    Sim,
    Threaded(usize),
}

/// One job of a workload, ready to execute.
pub struct JobSpec {
    pub label: String,
    /// Builds the job graph; `JobGraph` is not `Clone`, and every
    /// execution deploys a fresh one.
    build: Box<dyn Fn() -> JobGraph>,
    config: EngineConfig,
    /// Topics (by name) this job reads from the workload input.
    topics: Vec<&'static str>,
    pub duration: VirtualDuration,
    pub faults: Vec<(VirtualTime, FaultSpec)>,
    pub scheduler: Scheduler,
    /// Input records the sources must ingest.
    pub expect_in: u64,
    /// The stages forward rows unchanged: output multiset = input multiset.
    pub forwards_rows: bool,
    /// Stage vertices (for resolving fault targets).
    pub stages: Vec<VertexId>,
    pub state_ops: StateOps,
}

/// Host worker threads the threaded runtime gets: one per CPU.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The jobs one pass of a workload executes, in order.
pub fn jobs(
    w: Workload,
    seed: u64,
    size: Size,
    input: &Input,
    ft: Ft,
    scheduler: Option<Scheduler>,
) -> Vec<JobSpec> {
    let base = EngineConfig::default().with_seed(seed).with_ft(ft.mode());
    match w {
        Workload::NexmarkSteady => ALL_QUERIES
            .iter()
            .map(|&q| nexmark_job(q, &base, input))
            .collect(),
        Workload::ChainThreaded => {
            let ops = StateOps::default();
            let build_ops = ops.clone();
            let build = move || {
                keyed_chain(
                    "chain_threaded",
                    CHAIN_STAGES,
                    CHAIN_PARALLELISM,
                    CHAIN_RATE,
                    &build_ops,
                )
            };
            let stages = build().1;
            vec![JobSpec {
                label: "chain".into(),
                build: Box::new(move || build().0),
                config: base,
                topics: vec!["in"],
                duration: VirtualDuration::from_secs(CHAIN_SECS),
                faults: Vec::new(),
                scheduler: scheduler.unwrap_or(Scheduler::Threaded(host_cpus())),
                expect_in: input.rows(),
                forwards_rows: true,
                stages,
                state_ops: ops,
            }]
        }
        Workload::StateRecovery => {
            let s = sr_scale(size);
            let ops = StateOps::default();
            let build_ops = ops.clone();
            let rate = s.rate;
            let build = move || {
                keyed_chain(
                    "state_recovery",
                    SR_STAGES,
                    SR_PARALLELISM,
                    rate,
                    &build_ops,
                )
            };
            let stages = build().1;
            let mut config = base.with_state_memory_budget(sr_budget(size));
            config.num_nodes = SR_NODES;
            // Seeded detection jitter: detection order and timing vary with
            // the seed but repeat exactly within one.
            config.detection_jitter = VirtualDuration::from_millis(50);
            vec![JobSpec {
                label: "state".into(),
                build: Box::new(move || build().0),
                config,
                topics: vec!["in"],
                duration: VirtualDuration::from_secs(s.secs),
                faults: SR_FAULTS
                    .iter()
                    .map(|&(at, f)| (VirtualTime(at), f))
                    .collect(),
                scheduler: Scheduler::Sim,
                expect_in: input.rows(),
                forwards_rows: true,
                stages,
                state_ops: ops,
            }]
        }
    }
}

fn nexmark_job(q: QueryId, base: &EngineConfig, input: &Input) -> JobSpec {
    let build = move || build_query(q, NEX_PARALLELISM, NEX_RATE);
    let graph = build();
    let topics: Vec<&'static str> = ["persons", "auctions", "bids"]
        .into_iter()
        .filter(|t| {
            graph.vertices.iter().any(
                |v| matches!(&v.kind, clonos_engine::graph::VertexKind::Source(s) if s.topic == *t),
            )
        })
        .collect();
    let expect_in = topics
        .iter()
        .filter_map(|t| input.topic(t))
        .map(TopicInput::len)
        .sum();
    JobSpec {
        label: q.to_string(),
        build: Box::new(build),
        config: base.clone(),
        topics,
        duration: VirtualDuration::from_secs(NEX_SECS),
        faults: Vec::new(),
        scheduler: Scheduler::Sim,
        expect_in,
        forwards_rows: false,
        stages: Vec::new(),
        state_ops: StateOps::default(),
    }
}

/// Input rows cloned out of the shared input, outside any timed region.
pub type Staged = Vec<(&'static str, usize, Vec<Row>)>;

pub fn stage_input(spec: &JobSpec, input: &Input) -> Staged {
    let mut out = Vec::new();
    for t in &spec.topics {
        let ti = input
            .topic(t)
            .expect("workload input has every topic its jobs read");
        for (p, rows) in ti.partitions.iter().enumerate() {
            out.push((ti.topic, p, rows.clone()));
        }
    }
    out
}

impl JobSpec {
    /// `JobRunner::new` on a fresh graph.
    pub fn new_runner(&self) -> JobRunner {
        JobRunner::new((self.build)(), self.config.clone())
    }
}

/// Resolve fault specs to engine faults, and the tasks each kills, once the
/// cluster is deployed.
pub fn resolve_faults(spec: &JobSpec, cluster: &Cluster) -> Vec<(Fault, Injected)> {
    let task_of = |stage: usize, subtask: usize| -> TaskId {
        cluster.graph.by_vertex[&spec.stages[stage]][subtask]
    };
    spec.faults
        .iter()
        .map(|&(at, f)| match f {
            FaultSpec::Task { stage, subtask } => {
                let t = task_of(stage, subtask);
                (
                    Fault::KillTask(t),
                    Injected {
                        at,
                        victims: vec![t],
                    },
                )
            }
            FaultSpec::Node => {
                let node = cluster
                    .node_of(task_of(1, 0))
                    .expect("deployed task has a node");
                let victims: Vec<TaskId> = cluster
                    .graph
                    .tasks
                    .iter()
                    .map(|t| t.id)
                    .filter(|&t| cluster.node_of(t) == Some(node))
                    .collect();
                (Fault::KillNode(node), Injected { at, victims })
            }
        })
        .collect()
}

/// One job executed with no tracing: set-up and run phase timed apart.
pub struct Executed {
    pub report: RunReport,
    pub setup_s: f64,
    pub run_s: f64,
    pub faults: Vec<Injected>,
}

/// Virtual length of one `run_until` call of a sim-scheduled run phase.
const RUN_SLICE: VirtualDuration = VirtualDuration::from_millis(100);

/// Execute one job. `between` runs at points where the host clock is not
/// running for either phase: after set-up, between the sim-scheduled run
/// phase's `run_until` slices, and after the run; only the time between
/// those points counts. Slicing leaves every virtual-time result as it is
/// (the traced run checks these results against its own 50 ms slices).
pub fn execute(spec: &JobSpec, input: &Input, between: &mut dyn FnMut()) -> Executed {
    let staged = stage_input(spec, input);
    // Set-up: `JobRunner::new` plus `populate`.
    let t0 = Instant::now();
    let mut runner = spec.new_runner();
    for (topic, part, rows) in staged {
        runner.populate(topic, part, rows);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    between();
    let resolved = resolve_faults(spec, &runner.cluster);
    let faults = resolved.iter().map(|(_, i)| i.clone()).collect();
    let mut run_s = 0.0;
    let report = match spec.scheduler {
        Scheduler::Sim => {
            let end = VirtualTime::ZERO + spec.duration;
            let mut due = resolved.iter().peekable();
            let mut t = VirtualTime::ZERO;
            loop {
                let t0 = Instant::now();
                while let Some((fault, _)) = due.next_if(|f| f.1.at <= t) {
                    match *fault {
                        Fault::KillTask(task) => runner.cluster.kill_task(task),
                        Fault::KillNode(node) => runner.cluster.kill_node(node),
                        other => unreachable!("the workloads inject only kills, not {other:?}"),
                    }
                }
                if t >= end {
                    // `run_for` with no failure plan only collects the report.
                    let report = runner.run_for(spec.duration);
                    run_s += t0.elapsed().as_secs_f64();
                    break report;
                }
                let mut next = (t + RUN_SLICE).min(end);
                if let Some(f) = due.peek() {
                    next = next.min(f.1.at);
                }
                runner.cluster.run_until(next);
                run_s += t0.elapsed().as_secs_f64();
                between();
                t = next;
            }
        }
        Scheduler::Threaded(workers) => {
            let t0 = Instant::now();
            let report = runner.run_parallel_for(
                spec.duration,
                &ParallelConfig {
                    workers,
                    ..ParallelConfig::default()
                },
            );
            run_s = t0.elapsed().as_secs_f64();
            report
        }
    };
    between();
    Executed {
        report,
        setup_s,
        run_s,
        faults,
    }
}

/// Keys per task and per-task state budget the workload's keyed stages
/// see, for the state probe (`None`: no stage of the benchmark's own).
pub fn state_shape(w: Workload, size: Size) -> Option<(u64, u64)> {
    match w {
        Workload::NexmarkSteady => None,
        Workload::ChainThreaded => Some((CHAIN_KEYS / CHAIN_PARALLELISM as u64, 0)),
        Workload::StateRecovery => {
            Some((sr_scale(size).keys / SR_PARALLELISM as u64, sr_budget(size)))
        }
    }
}

/// Configuration summary recorded with every result.
pub fn describe(w: Workload, size: Size) -> String {
    match w {
        Workload::NexmarkSteady => format!(
            "queries=Q1-Q9,Q11-Q14 parallelism={NEX_PARALLELISM} rate={NEX_RATE} events={} \
             inter_event_us={} virtual_s={NEX_SECS} ft=clonos-eo-dsd-full scheduler=sim",
            nex_events(size),
            nex_generator(0, size).inter_event_us
        ),
        Workload::ChainThreaded => format!(
            "stages={CHAIN_STAGES} parallelism={CHAIN_PARALLELISM} rate={CHAIN_RATE} keys={CHAIN_KEYS} \
             rows={} virtual_s={CHAIN_SECS} ft=clonos-eo-dsd-full scheduler=threaded workers={}",
            chain_rows(size),
            host_cpus()
        ),
        Workload::StateRecovery => {
            let s = sr_scale(size);
            format!(
                "stages={SR_STAGES} parallelism={SR_PARALLELISM} nodes={SR_NODES} keys={} rate={} \
                 input_s={} virtual_s={} budget_bytes={} checkpoint_s=5 faults=kill@6.3s,node@12.7s,kill@18.4s \
                 ft=clonos-eo-dsd-full scheduler=sim",
                s.keys,
                s.rate,
                s.input_secs,
                s.secs,
                sr_budget(size)
            )
        }
    }
}
