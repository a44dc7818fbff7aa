//! Shared harness utilities for the figure/table-regenerating binaries and
//! the Criterion benchmarks: configuration factories, the synthetic workload
//! of §7.2, plain-text table/series printing, and the `BENCH_*.json` ledger.

use clonos::config::{ClonosConfig, SharingDepth};
use clonos_engine::operator::OpCtx;
use clonos_engine::operators::ProcessOp;
use clonos_engine::*;
use clonos_nexmark::{build_query, populate_topics, GeneratorConfig, QueryId};
use clonos_sim::{VirtualDuration, VirtualTime};

/// The three configurations of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    Flink,
    ClonosDsd1,
    ClonosFull,
}

impl Config {
    pub fn label(self) -> &'static str {
        match self {
            Config::Flink => "Flink",
            Config::ClonosDsd1 => "Clonos (DSD=1)",
            Config::ClonosFull => "Clonos (DSD=Full)",
        }
    }

    pub fn ft(self) -> FtMode {
        match self {
            Config::Flink => FtMode::GlobalRollback,
            Config::ClonosDsd1 => FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Depth(1))),
            Config::ClonosFull => FtMode::Clonos(ClonosConfig::exactly_once(SharingDepth::Full)),
        }
    }
}

/// Run one Nexmark query in one configuration; no failures.
pub fn run_query(q: QueryId, cfg: Config, seed: u64, p: usize, events: usize, secs: u64) -> RunReport {
    let job = build_query(q, p, 5_000);
    let ecfg = EngineConfig::default().with_seed(seed).with_ft(cfg.ft());
    let mut runner = JobRunner::new(job, ecfg);
    populate_topics(&mut runner, events, GeneratorConfig { seed, ..Default::default() });
    runner.run_for(VirtualDuration::from_secs(secs))
}

/// Populate a query's topics with enough events to feed its sources at full
/// rate for `secs` virtual seconds. Generates Nexmark events in proportion
/// and keeps only what each topic needs.
pub fn populate_for(runner: &mut JobRunner, seed: u64, p: usize, rate: u64, secs: u64) {
    let need = |per_inst: u64| (per_inst * p as u64 * secs) as usize;
    let needs = [
        ("persons", need(rate / 10)),
        ("auctions", need(rate / 5)),
        ("bids", need(rate)),
    ];
    let mut gen = clonos_nexmark::NexmarkGenerator::new(GeneratorConfig {
        seed,
        ..Default::default()
    });
    let mut have = [0usize; 3];
    let active: Vec<bool> =
        needs.iter().map(|(t, _)| runner.cluster.topic(t).is_some()).collect();
    let mut round = 0;
    while needs
        .iter()
        .enumerate()
        .any(|(i, &(_, n))| active[i] && have[i] < n)
    {
        round += 1;
        assert!(round < 10_000, "generator starved");
        let (persons, auctions, bids) = gen.generate(100_000);
        for (i, rows) in [persons, auctions, bids].into_iter().enumerate() {
            let (topic, need_n) = needs[i];
            if !active[i] || have[i] >= need_n {
                continue;
            }
            let take = (need_n - have[i]).min(rows.len());
            populate_round_robin(runner, topic, &rows[..take]);
            have[i] += take;
        }
    }
}

/// Deal `rows` round-robin over the partitions of `topic`.
pub fn populate_round_robin(runner: &mut JobRunner, topic: &str, rows: &[Row]) {
    let parts = runner.cluster.topic(topic).map(|t| t.num_partitions()).unwrap_or(1);
    for p in 0..parts {
        let slice: Vec<Row> = rows.iter().skip(p).step_by(parts).cloned().collect();
        runner.populate(topic, p, slice);
    }
}

/// Run one Nexmark query with failure injection, with inputs sized to keep
/// the sources busy for the whole experiment.
#[allow(clippy::too_many_arguments)]
pub fn run_query_with_kills(
    q: QueryId,
    cfg: Config,
    seed: u64,
    p: usize,
    rate: u64,
    secs: u64,
    kills: &[(u64, u64)],
    engine_tweak: impl FnOnce(&mut EngineConfig),
) -> RunReport {
    let job = build_query(q, p, rate);
    let mut ecfg = EngineConfig::default().with_seed(seed).with_ft(cfg.ft());
    engine_tweak(&mut ecfg);
    let mut runner = JobRunner::new(job, ecfg);
    populate_for(&mut runner, seed, p, rate, secs);
    let mut plan = FailurePlan::none();
    for &(at, t) in kills {
        plan = plan.kill_at(VirtualTime(at), t);
    }
    runner.with_failures(plan).run_for(VirtualDuration::from_secs(secs))
}

/// The §7.2/7.4 synthetic workload: a chain of `depth` keyed stateful
/// stages at the given parallelism, fed from one source vertex. Each stage
/// does a small stateful update plus a wall-clock read (so it is
/// nondeterministic and carries per-record state).
pub fn synthetic_chain(depth: usize, parallelism: usize, rate: u64) -> JobGraph {
    let mut g = JobGraph::new(format!("synthetic-d{depth}-p{parallelism}"));
    let src = g.add_source("src", parallelism, SourceSpec::new("in").rate(rate).key_field(0));
    let mut prev = src;
    for d in 0..depth.saturating_sub(1) {
        let stage = g.add_operator(
            &format!("stage{d}"),
            parallelism,
            factory(|| {
                ProcessOp::new(|_input, rec: &Record, ctx: &mut OpCtx<'_>| {
                    // Stateful per-key counter + a nondeterministic read.
                    let count = ctx
                        .state
                        .value(9, rec.key)
                        .map(|r| r.int(0))
                        .unwrap_or(0)
                        + 1;
                    ctx.state.set_value(9, rec.key, Row::new(vec![Datum::Int(count)]));
                    // Nondeterministic read (the reason Clonos must log) plus
                    // the stateful counter, both observable at the sink.
                    let _ts = ctx.timestamp()?;
                    let mut row = rec.row.0.clone();
                    row.push(Datum::Int(count));
                    ctx.emit(rec.key, rec.event_time, Row::new(row));
                    Ok(())
                })
            }),
        );
        g.connect(prev, stage, Partitioning::Hash);
        prev = stage;
    }
    let sink = g.add_sink("sink", parallelism, SinkSpec { topic: "out".into() });
    g.connect(prev, sink, Partitioning::Hash);
    g
}

/// Rows for the synthetic chain: `[key, value]` pairs.
pub fn synthetic_rows(n: i64, keys: i64) -> Vec<Row> {
    (0..n).map(|i| Row::new(vec![Datum::Int(i % keys), Datum::Int(i)])).collect()
}

/// Run the synthetic chain.
#[allow(clippy::too_many_arguments)]
pub fn run_synthetic(
    depth: usize,
    parallelism: usize,
    ft: FtMode,
    seed: u64,
    rate: u64,
    secs: u64,
    kills: &[(u64, u64)],
    engine_tweak: impl FnOnce(&mut EngineConfig),
) -> RunReport {
    // Leave a drain margin: input runs out ~8 s before the experiment ends
    // so that tail records are not still in flight at the measurement cutoff.
    let events = (rate * parallelism as u64 * secs.saturating_sub(8)) as i64;
    let job = synthetic_chain(depth, parallelism, rate);
    let mut cfg = EngineConfig::default().with_seed(seed).with_ft(ft);
    engine_tweak(&mut cfg);
    let mut runner = JobRunner::new(job, cfg);
    populate_round_robin(&mut runner, "in", &synthetic_rows(events, 100));
    let mut plan = FailurePlan::none();
    for &(at, t) in kills {
        plan = plan.kill_at(VirtualTime(at), t);
    }
    runner.with_failures(plan).run_for(VirtualDuration::from_secs(secs))
}

// ---------------------------------------------------------------------
// Plain-text reporting
// ---------------------------------------------------------------------

/// Print a header + aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header.iter().map(|s| s.to_string()).collect()));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Downsample and print a `(time, value)` series as rows.
pub fn print_series(title: &str, series: &[(VirtualTime, f64)], max_rows: usize) {
    println!("\n-- {title} --");
    let step = (series.len() / max_rows.max(1)).max(1);
    for chunk in series.chunks(step) {
        let t = chunk[0].0;
        let mean = chunk.iter().map(|&(_, v)| v).sum::<f64>() / chunk.len() as f64;
        println!("{:>10.3}s  {:>12.4}", t.as_secs_f64(), mean);
    }
}

/// Mean throughput over a time window, from a report's bucketed series.
pub fn mean_rate(report: &RunReport, from_s: u64, to_s: u64) -> f64 {
    let from = VirtualTime(from_s * 1_000_000);
    let to = VirtualTime(to_s * 1_000_000);
    let pts: Vec<f64> = report
        .throughput
        .iter()
        .filter(|&&(t, _)| t >= from && t < to)
        .map(|&(_, v)| v)
        .collect();
    if pts.is_empty() {
        0.0
    } else {
        pts.iter().sum::<f64>() / pts.len() as f64
    }
}

/// Nearest-rank percentile (`p` in percent) of non-empty sorted samples,
/// the rule `LatencyRecorder::percentile` uses.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[((p / 100.0) * (sorted.len() - 1) as f64).round() as usize]
}

// ---------------------------------------------------------------------
// BENCH_*.json ledgers
// ---------------------------------------------------------------------

/// `BENCH_SMOKE=1` selects a smoke run: bins shrink whatever costs real
/// time, and the ledger goes to `target/bench-smoke/` instead of over the
/// committed `BENCH_*.json`.
pub fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// CPUs the OS will schedule this process on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `git describe --always --dirty` of the working directory, or `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One ledger value, formatted once for both the text table and the JSON
/// file.
#[derive(Clone, Debug)]
pub enum Value {
    Int(u64),
    /// A float and its decimal places; a non-finite one is `null` (`-` in
    /// the table).
    Num(f64, usize),
    Str(String),
    Bool(bool),
    Obj(Vec<(&'static str, Value)>),
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Num(x, _) if !x.is_finite() => "null".into(),
            Value::Str(s) => format!("{s:?}"),
            Value::Obj(fields) => json_object(fields.iter().map(|(k, v)| (*k, v))),
            v => v.text(),
        }
    }

    fn text(&self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Num(x, _) if !x.is_finite() => "-".into(),
            Value::Num(x, d) => format!("{x:.d$}"),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Obj(_) => self.json(),
        }
    }
}

/// `{"key": value, ...}` on one line.
fn json_object<'a>(fields: impl Iterator<Item = (&'a str, &'a Value)>) -> String {
    let body: Vec<String> = fields.map(|(k, v)| format!("\"{k}\": {}", v.json())).collect();
    format!("{{{}}}", body.join(", "))
}

/// One measured configuration: a table row and a JSON object in `rows[]`.
/// Each cell is named once: JSON key, column header, value.
#[derive(Clone, Debug, Default)]
pub struct LedgerRow(Vec<(&'static str, &'static str, Value)>);

impl LedgerRow {
    pub fn new() -> LedgerRow {
        LedgerRow::default()
    }

    pub fn cell(mut self, key: &'static str, header: &'static str, value: Value) -> LedgerRow {
        self.0.push((key, header, value));
        self
    }

    pub fn int(self, key: &'static str, header: &'static str, v: u64) -> LedgerRow {
        self.cell(key, header, Value::Int(v))
    }

    pub fn num(self, key: &'static str, header: &'static str, v: f64, dp: usize) -> LedgerRow {
        self.cell(key, header, Value::Num(v, dp))
    }

    pub fn text(self, key: &'static str, header: &'static str, v: &str) -> LedgerRow {
        self.cell(key, header, Value::Str(v.to_string()))
    }

    /// The number under `key` (NaN if it is not a number).
    pub fn get(&self, key: &str) -> f64 {
        match self.0.iter().find(|(k, _, _)| *k == key) {
            Some((_, _, Value::Int(n))) => *n as f64,
            Some((_, _, Value::Num(x, _))) => *x,
            Some(_) => f64::NAN,
            None => panic!("ledger row has no `{key}`"),
        }
    }
}

/// A bench's ledger: a provenance header (`bench`, `smoke`, `commit`,
/// `host_cpus`), the bin's config and summary fields, and its rows. `finish`
/// prints the table and summary lines, fails on any gate that did not hold,
/// and writes `BENCH_<stem>.json` — in the working directory for a full
/// run, under `target/bench-smoke/` for a smoke run.
pub struct Ledger {
    file: String,
    fields: Vec<(&'static str, Value)>,
    title: &'static str,
    rows: Vec<LedgerRow>,
    lines: Vec<String>,
    failures: Vec<String>,
}

impl Ledger {
    pub fn new(stem: &str, bench: &str, title: &'static str, rows: Vec<LedgerRow>) -> Ledger {
        let fields = vec![
            ("bench", Value::Str(bench.into())),
            ("smoke", Value::Bool(smoke())),
            ("commit", Value::Str(commit())),
            ("host_cpus", Value::Int(host_cpus() as u64)),
        ];
        let file = format!("BENCH_{stem}.json");
        Ledger { file, fields, title, rows, lines: Vec::new(), failures: Vec::new() }
    }

    /// A config or summary field, written after the provenance header.
    pub fn field(mut self, key: &'static str, value: Value) -> Ledger {
        self.fields.push((key, value));
        self
    }

    /// A summary line printed under the table.
    pub fn line(mut self, line: impl Into<String>) -> Ledger {
        self.lines.push(line.into());
        self
    }

    /// An enforced check: `finish` panics with `failure` (after printing,
    /// before writing) unless `ok`.
    pub fn gate(mut self, ok: bool, failure: impl Into<String>) -> Ledger {
        if !ok {
            self.failures.push(failure.into());
        }
        self
    }

    /// Print the table and summary lines, enforce the gates, write the file.
    pub fn finish(self) {
        let header: Vec<&str> =
            self.rows.first().map(|r| r.0.iter().map(|c| c.1).collect()).unwrap_or_default();
        let table: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.0.iter().map(|c| c.2.text()).collect()).collect();
        print_table(self.title, &header, &table);
        if !self.lines.is_empty() {
            println!();
        }
        for line in &self.lines {
            println!("{line}");
        }
        assert!(self.failures.is_empty(), "{}", self.failures.join("; "));

        let mut out = String::from("{\n");
        for (key, value) in &self.fields {
            out += &format!("  \"{key}\": {},\n", value.json());
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", json_object(r.0.iter().map(|(k, _, v)| (*k, v)))))
            .collect();
        out += &format!("  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
        write_bench_json(&self.file, &out);
    }
}

/// Write a ledger file: `name` in the working directory for a full run,
/// `target/bench-smoke/<name>` for a smoke run, so smoke runs never
/// overwrite committed figures.
fn write_bench_json(name: &str, json: &str) {
    let path = if smoke() {
        let dir = std::path::Path::new("target/bench-smoke");
        std::fs::create_dir_all(dir).expect("create target/bench-smoke");
        dir.join(name)
    } else {
        std::path::PathBuf::from(name)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
